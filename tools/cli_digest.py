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
1,5,10,20 --epochs 3``. Each command runs in its own process with BLAS pinned to one thread.
It prints every command with its exit code, stdout and stderr (the temporary
directory shown as ``$TMP``), then ``sha256  relative/path`` for every file
the run left, each ``.ini`` file followed by its text indented by four spaces
(so a config change shows as changed lines in a diff), and deletes the
directory.
Run it on two source trees and diff the outputs. Exits 1 if a command
failed.
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
WORLD_UTF8 = ("[world]\nseed = 4\nfov_half_angle = 90\nz_base = 0.5\nz_noise_amp = 0.1\n"
              "noise_sigma = 0.01\nlateral_jitter = 0.05\nheading_jitter_deg = 2\n"
              "route = 0,0; 8,0; 8,3; 0,3; 0,0\nlandmarks = lmé:8,0; 路標:0,3; ñandú:4,1.5\n"
              "obstacles = 4,0.5,4,1\n")

COMMANDS = (
    ["gen-world", "--config", "small.ini", "--out", "ds"],
    ["gen-world", "--config", "small.ini", "--out", "ds-seed8", "--seed", "8"],
    ["gen-world", "--config", "small.ini", "--world-file", "ds/world.ini", "--out", "ds-world"],
    ["gen-world", "--config", "small.ini", "--world-file", "world-utf8.ini", "--out", "ds-utf8"],
    ["train", "--config", "small.ini", "--data", "ds", "--out", "run", "--epochs", "5",
     "--checkpoint-every", "2"],
    ["train", "--config", "tanh-ce.ini", "--data", "ds", "--out", "run-ce", "--epochs", "5"],
    ["train", "--config", "tanh-ce.ini", "--data", "ds", "--out", "run-flags", "--seed", "3",
     "--k", "20", "--no-cross-entropy", "--epochs", "2"],
    ["train", "--config", "every.ini", "--data", "ds", "--out", "run-every"],
    ["eval", "--checkpoint", "run/checkpoint.bin", "--data", "ds", "--out", "eval-argmax"],
    ["eval", "--checkpoint", "run/checkpoint.bin", "--data", "ds", "--out", "eval-weighted",
     "--weighted"],
    ["eval", "--checkpoint", "run-ce/checkpoint.bin", "--data", "ds", "--out", "eval-ce"],
    ["eval", "--checkpoint", "run/checkpoint_epoch0004.bin", "--data", "ds", "--out",
     "eval-epoch4"],
    ["sweep-anchors", "--config", "small.ini", "--data", "ds", "--out", "sweep",
     "--k", "1,5,10,20", "--epochs", "3"],
)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or not os.path.isdir(os.path.join(argv[0], "anchorloc")):
        print("usage: python tools/cli_digest.py SRC_DIR", file=sys.stderr)
        return 1
    env = dict(os.environ, PYTHONPATH=os.path.abspath(argv[0]), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    work = tempfile.mkdtemp(prefix="cli-digest-")
    failed = False
    try:
        for name, text in (("small.ini", SMALL), ("tanh-ce.ini", TANH_CE), ("every.ini", EVERY),
                           ("world-utf8.ini", WORLD_UTF8)):
            with open(os.path.join(work, name), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        for args in COMMANDS:
            proc = subprocess.run([sys.executable, "-m", "anchorloc.cli", *args], cwd=work,
                                  env=env, capture_output=True, text=True)
            failed |= proc.returncode != 0
            print(f"$ anchorloc {' '.join(args)}  -> exit {proc.returncode}")
            for stream in (proc.stdout, proc.stderr):
                sys.stdout.write(stream.replace(work, "$TMP"))
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
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
