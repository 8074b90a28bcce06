"""Digest of a small end-to-end CLI run, to check that a change keeps every
output byte for byte.

    python tools/cli_digest.py SRC_DIR

runs the package found in SRC_DIR (the directory holding ``anchorloc``)
through a small pipeline in a temporary directory: ``gen-world`` (400 train
/ 80 test frames, interval 40), again with ``--seed 8`` into its own
directory, again from the first run's ``world.ini`` through
``--world-file``, and from a small world file whose landmark names are not
ASCII (a UTF-8 round trip through the readers and writers), ``train`` for 5
epochs with ``--checkpoint-every 2``, a tanh ``train`` with the cross-entropy
term on (``alpha1 = 2.0``), the same tanh config overridden by ``--seed 3 --k 20
--no-cross-entropy --epochs 2``, a 2-epoch ``train`` whose
config sets every ``[network]``, ``[train]`` and ``[loss]`` key away from its
default, argmax, ``--weighted`` and cross-entropy ``eval``, an ``eval`` of the
periodic checkpoint ``run/checkpoint_epoch0004.bin``, and ``sweep-anchors --k
1,5,10,20 --epochs 3``. Then one command for each failing exit code, which
pins the error contract: ``sweep-anchors --k ,`` (1), an ``eval`` of a copy
of ``run/checkpoint.bin`` and a ``train`` on a copy of ``ds``, each copy's
binary file with its version field set to 2 (2), and a 1-epoch ``train``
with ``[loss] alpha2 = 1e308``, whose loss is not finite (3). Each command
runs in its own process with BLAS pinned to one thread.
It prints every command with its exit code, stdout and stderr (the temporary
directory shown as ``$TMP``), then ``sha256  relative/path`` for every file
the run left, each ``.ini`` file followed by its text indented by four spaces
(so a config change shows as changed lines in a diff), and deletes the
directory.
Run it on two source trees and diff the outputs. Exits 1 if a command's exit
code is not the one expected of it.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

SMALL = "[world]\nn_train = 400\nn_test = 80\n\n[data]\nframe_interval = 40\n"
TANH_CE = SMALL + "\n[network]\nactivation = tanh\n\n[loss]\nalpha1 = 2.0\n"
EVERY = SMALL + ("\n[network]\nhidden_layers = 24,16\nactivation = tanh\nseed = 5\n"
                 "\n[train]\nlr = 0.001\nbatch_size = 20\nepochs = 2\nlr_halving_period = 1\n"
                 "shuffle_seed = 9\n"
                 "\n[loss]\nalpha1 = 0.5\nalpha2 = 4.0\nalpha3 = 2.5\n")
OVERFLOW = SMALL + "\n[loss]\nalpha2 = 1e308\n"  # the first batch's loss is not finite
WORLD_UTF8 = ("[world]\nseed = 4\nfov_half_angle = 90\nz_base = 0.5\nz_noise_amp = 0.1\n"
              "noise_sigma = 0.01\nlateral_jitter = 0.05\nheading_jitter_deg = 2\n"
              "route = 0,0; 8,0; 8,3; 0,3; 0,0\nlandmarks = lmé:8,0; 路標:0,3; ñandú:4,1.5\n"
              "obstacles = 4,0.5,4,1\n")

COMMANDS = (  # (expected exit code, arguments)
    (0, ["gen-world", "--config", "small.ini", "--out", "ds"]),
    (0, ["gen-world", "--config", "small.ini", "--out", "ds-seed8", "--seed", "8"]),
    (0, ["gen-world", "--config", "small.ini", "--world-file", "ds/world.ini", "--out",
         "ds-world"]),
    (0, ["gen-world", "--config", "small.ini", "--world-file", "world-utf8.ini", "--out",
         "ds-utf8"]),
    (0, ["train", "--config", "small.ini", "--data", "ds", "--out", "run", "--epochs", "5",
         "--checkpoint-every", "2"]),
    (0, ["train", "--config", "tanh-ce.ini", "--data", "ds", "--out", "run-ce", "--epochs", "5"]),
    (0, ["train", "--config", "tanh-ce.ini", "--data", "ds", "--out", "run-flags", "--seed", "3",
         "--k", "20", "--no-cross-entropy", "--epochs", "2"]),
    (0, ["train", "--config", "every.ini", "--data", "ds", "--out", "run-every"]),
    (0, ["eval", "--checkpoint", "run/checkpoint.bin", "--data", "ds", "--out", "eval-argmax"]),
    (0, ["eval", "--checkpoint", "run/checkpoint.bin", "--data", "ds", "--out", "eval-weighted",
         "--weighted"]),
    (0, ["eval", "--checkpoint", "run-ce/checkpoint.bin", "--data", "ds", "--out", "eval-ce"]),
    (0, ["eval", "--checkpoint", "run/checkpoint_epoch0004.bin", "--data", "ds", "--out",
         "eval-epoch4"]),
    (0, ["sweep-anchors", "--config", "small.ini", "--data", "ds", "--out", "sweep",
         "--k", "1,5,10,20", "--epochs", "3"]),
)

# run after COMMANDS and after the version-2 copies of run/checkpoint.bin and
# ds/features_train.bin are made: one command per failing exit code
FAILING = (
    (1, ["sweep-anchors", "--config", "small.ini", "--data", "ds", "--out", "sweep-none",
         "--k", ","]),
    (2, ["eval", "--checkpoint", "run-v2/checkpoint.bin", "--data", "ds", "--out", "eval-v2"]),
    (2, ["train", "--config", "small.ini", "--data", "ds-v2", "--out", "run-on-v2"]),
    (3, ["train", "--config", "overflow.ini", "--data", "ds", "--out", "run-overflow",
         "--epochs", "1"]),
)


def version_2_copies(work) -> None:
    """``run-v2/checkpoint.bin`` and ``ds-v2``: copies of ``run/checkpoint.bin``
    and ``ds`` whose binary file's u32 version field (bytes 4-7) reads 2."""
    os.makedirs(os.path.join(work, "run-v2"))
    shutil.copyfile(os.path.join(work, "run", "checkpoint.bin"),
                    os.path.join(work, "run-v2", "checkpoint.bin"))
    shutil.copytree(os.path.join(work, "ds"), os.path.join(work, "ds-v2"))
    for path in ("run-v2/checkpoint.bin", "ds-v2/features_train.bin"):
        with open(os.path.join(work, path), "r+b") as fh:
            fh.seek(4)
            fh.write((2).to_bytes(4, "little"))


def run(work, env, expected: int, args) -> bool:
    """Runs ``anchorloc args`` in ``work`` and prints the command, its exit
    code, stdout and stderr; whether the exit code is ``expected``."""
    proc = subprocess.run([sys.executable, "-m", "anchorloc.cli", *args], cwd=work, env=env,
                          capture_output=True, text=True)
    print(f"$ anchorloc {' '.join(args)}  -> exit {proc.returncode}")
    for stream in (proc.stdout, proc.stderr):
        sys.stdout.write(stream.replace(work, "$TMP"))
    return proc.returncode == expected


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or not os.path.isdir(os.path.join(argv[0], "anchorloc")):
        print("usage: python tools/cli_digest.py SRC_DIR", file=sys.stderr)
        return 1
    env = dict(os.environ, PYTHONPATH=os.path.abspath(argv[0]), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    work = tempfile.mkdtemp(prefix="cli-digest-")
    try:
        for name, text in (("small.ini", SMALL), ("tanh-ce.ini", TANH_CE), ("every.ini", EVERY),
                           ("overflow.ini", OVERFLOW), ("world-utf8.ini", WORLD_UTF8)):
            with open(os.path.join(work, name), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        passed = [run(work, env, *command) for command in COMMANDS]
        version_2_copies(work)
        passed += [run(work, env, *command) for command in FAILING]
        for root, dirs, files in os.walk(work):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    raw = fh.read()
                print(f"{hashlib.sha256(raw).hexdigest()}  {os.path.relpath(path, work)}")
                if name.endswith(".ini"):
                    for line in raw.decode("utf-8").splitlines():
                        print(f"    {line}".rstrip())
    finally:
        shutil.rmtree(work)
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
