"""Where a training step's time goes, phase by phase, at 20 and at 2000 anchors.

    python tools/step_profile.py SRC_DIR [--label L] [--tier1-s SECONDS]

imports ``anchorloc`` from SRC_DIR (the directory holding it) and trains the
default world (seed 7, 2000 train / 500 test frames, the README network,
batch 32) through the package's own ``optim.train`` at k=100 (N=20 anchors)
and at k=1 (N=2000), with numpy's OpenBLAS held at one thread by
``model.one_blas_thread``. For the run only, it wraps

- ``model.Bound.forward`` (phase ``forward``, the trunk),
- ``model.Bound.head`` (``head``: the logits and absolute heads; the offsets
  head, which the loss reads on first use, is its own phase, ``offsets_head``),
- ``model.Bound.backward`` (``backward``),
- ``loss.batch_total_loss`` (``loss``, less the offsets head it runs),
- ``optim._InPlaceAdam.step`` (``adam``),

and charges each call its self time: its duration less that of the wrapped
calls inside it. A step runs from the end of one Adam step to the end of the
next in the same epoch (an epoch's first step, which spans the epoch's
shuffle and gather, is not counted), and ``gather`` is the step less the
phases: slicing the batch and building its ground-truth offsets.

Before training it times the set-up phases, each call on its own, over
SETUP_RUNS runs after one warm-up: ``simworld.default_world``,
``simworld.generate`` (2000 / 500 frames), ``data.export_dataset`` into a
temporary directory, ``data.load_dataset_files`` from it, and ``data.assemble``
of the loaded splits at k=100 and at k=1.

Epoch 0 is a warm-up. After it, wrapped and unwrapped epochs alternate in
pairs, the wrapped one first in even pairs and second in odd ones, and the
wrapper overhead is the median over pairs of the wrapped epoch's time over
the unwrapped one's, less 1. Phase times come from the wrapped epochs.

Prints one line per phase and writes ``BENCH_<label>.json`` (``label``
defaults to SRC_DIR's short git revision) in the current directory: per N
the parameter count, the step's and each phase's median and interquartile
range in microseconds, and the overhead; each set-up phase's median and
interquartile range in milliseconds; and a provenance block (numpy and
BLAS versions, the thread setting, the CPU, the git revision and the sha256
of each ``anchorloc/*.py``). ``--tier1-s`` records a Tier-1 wall time, measured
elsewhere, as ``info.tier1_s``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

# the two regimes of the anchor sweep: (frame interval k, epochs run). At k=100
# the run stops before epoch 100 or so, where the first moments of dead units
# decay into subnormals and Adam's step takes twice as long.
RUNS = ((100, 81), (1, 41))
PHASES = ("gather", "forward", "head", "offsets_head", "loss", "backward", "adam")
SETUP_RUNS = 15


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1, "q1": q1, "q3": q3}


class StepClock:
    """Self time per phase of each step, from wrappers installed on the
    package's classes and module for the wrapped epochs only."""

    def __init__(self, model, loss, optim):
        self.targets = ((model.Bound, "forward", lambda args: "forward"),
                        (model.Bound, "head",
                         lambda args: "offsets_head" if args[1] == "offsets" else "head"),
                        (model.Bound, "backward", lambda args: "backward"),
                        (loss, "batch_total_loss", lambda args: "loss"),
                        (optim._InPlaceAdam, "step", lambda args: "adam"))
        self.originals = [getattr(owner, name) for owner, name, _ in self.targets]
        self.open = []  # the wrapped time inside each call still running
        self.phases = dict.fromkeys(PHASES[1:], 0)
        self.last_end = None  # ns at the end of the last Adam step of this epoch
        self.steps = []  # per counted step: (step ns, {phase: self ns})

    def timed(self, fn, phase_of, ends_step):
        def call(*args, **kwargs):
            self.open.append(0)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                inner = self.open.pop()
                self.phases[phase_of(args)] += end - start - inner
                if self.open:
                    self.open[-1] += end - start
                if ends_step:
                    if self.last_end is not None:
                        self.steps.append((end - self.last_end, self.phases))
                    self.phases = dict.fromkeys(PHASES[1:], 0)
                    self.last_end = end
        return call

    def install(self, on: bool) -> None:
        self.last_end = None
        self.phases = dict.fromkeys(PHASES[1:], 0)
        for (owner, name, phase_of), fn in zip(self.targets, self.originals):
            setattr(owner, name, self.timed(fn, phase_of, name == "step") if on else fn)


def profile(samples, k: int, epochs: int) -> dict:
    from anchorloc import data, loss, model, optim

    scene = data.from_simworld(*samples, k=k)
    spec = model.NetworkSpec(input_dim=scene.train.features.shape[1],
                             num_anchors=scene.num_anchors)
    clock = StepClock(model, loss, optim)
    epoch_ns = []  # (wrapped, ns) per epoch after the warm-up
    last = [time.perf_counter_ns()]

    def wrapped(epoch: int) -> bool:
        pair, second = divmod(epoch - 1, 2)
        return epoch > 0 and second == pair % 2

    def on_epoch(stats, snapshot):
        now = time.perf_counter_ns()
        if stats.epoch > 0:
            epoch_ns.append((wrapped(stats.epoch), now - last[0]))
        clock.install(wrapped(stats.epoch + 1))
        last[0] = time.perf_counter_ns()

    try:
        with model.one_blas_thread():
            optim.train(scene.train, spec, optim.TrainConfig(epochs=epochs, batch_size=32),
                        epoch_callback=on_epoch)
    finally:
        clock.install(False)
    ratios = []
    for i in range(0, len(epoch_ns) - 1, 2):
        (w1, t1), (_, t2) = epoch_ns[i], epoch_ns[i + 1]
        ratios.append(t1 / t2 if w1 else t2 / t1)
    phases = {name: [] for name in PHASES}
    for step, parts in clock.steps:
        phases["gather"].append(step - sum(parts.values()))
        for name, ns in parts.items():
            phases[name].append(ns)
    us = 1e-3
    return {
        "k": k,
        "num_anchors": scene.num_anchors,
        "param_count": model.param_count(spec),
        "batch_size": 32,
        "epochs": epochs,
        "steps_counted": len(clock.steps),
        "step_us": quartiles([s * us for s, _ in clock.steps]),
        "phases_us": {name: quartiles([ns * us for ns in values])
                      for name, values in phases.items()},
        "overhead_pct": {"pairs": len(ratios), **quartiles([100 * (r - 1) for r in ratios])},
    }


def setup_profile() -> dict:
    """Median and IQR in ms of each set-up phase over SETUP_RUNS runs, at one
    OpenBLAS thread; the first run is a warm-up and is not counted."""
    from anchorloc import data, model, simworld

    ms = {name: [] for name in ("default_world", "generate", "export_dataset",
                                "load_dataset_files", "assemble_k100", "assemble_k1")}

    def timed(name, fn, *args):
        start = time.perf_counter_ns()
        out = fn(*args)
        ms[name].append((time.perf_counter_ns() - start) * 1e-6)
        return out

    with model.one_blas_thread(), tempfile.TemporaryDirectory() as work:
        for _ in range(SETUP_RUNS + 1):
            world = timed("default_world", simworld.default_world)
            samples = timed("generate", simworld.generate, world, simworld.DEFAULT_N_TRAIN,
                            simworld.DEFAULT_N_TEST)
            timed("export_dataset", data.export_dataset, work, *samples)
            train_poses, train_feats, test_poses, test_feats = timed(
                "load_dataset_files", data.load_dataset_files, work)
            for k in (100, 1):
                timed(f"assemble_k{k}", data.assemble, train_poses, train_feats, k, test_poses,
                      test_feats)
    return {name: quartiles(values[1:]) for name, values in ms.items()}


def git(src, *args):
    try:
        out = subprocess.run(["git", "-C", src, *args], capture_output=True, text=True,
                             timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def sha256_of(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def provenance(np, src) -> dict:
    package = os.path.join(src, "anchorloc")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    status = git(src, "status", "--porcelain", "--", package)
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": "1, held by anchorloc.model.one_blas_thread",
        "cpu": cpu_model(),
        "cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "git_revision": git(src, "rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": {name: sha256_of(os.path.join(package, name))
                       for name in sorted(os.listdir(package)) if name.endswith(".py")},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("src", metavar="SRC_DIR", help="the directory holding anchorloc")
    p.add_argument("--label", help="names BENCH_<label>.json (default: the short git revision)")
    p.add_argument("--tier1-s", type=float, help="a Tier-1 wall time to record, in seconds")
    args = p.parse_args(argv)
    src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(src, "anchorloc", "__init__.py")):
        p.error(f"no anchorloc package in {src}")
    label = args.label or git(src, "rev-parse", "--short", "HEAD") or "local"
    sys.dont_write_bytecode = True
    sys.path.insert(0, src)
    import numpy as np

    from anchorloc import simworld

    samples = simworld.generate(simworld.default_world(), simworld.DEFAULT_N_TRAIN,
                                simworld.DEFAULT_N_TEST)
    out = {"label": label, "provenance": provenance(np, src), "runs": {},
           "setup_ms": setup_profile()}
    if args.tier1_s is not None:
        out["info"] = {"tier1_s": args.tier1_s}
    print(f"set-up over {SETUP_RUNS} runs:")
    for name, q in out["setup_ms"].items():
        print(f"    {name:<19} {q['median']:8.2f} ms  [IQR {q['iqr']:.2f}]")
    for k, epochs in RUNS:
        run = profile(samples, k, epochs)
        out["runs"][f"N={run['num_anchors']}"] = run
        print(f"N={run['num_anchors']} (k={k}, {run['param_count']} parameters, "
              f"{run['steps_counted']} steps): step {run['step_us']['median']:.1f} us "
              f"[IQR {run['step_us']['iqr']:.1f}], wrapper overhead "
              f"{run['overhead_pct']['median']:+.2f}% [IQR {run['overhead_pct']['iqr']:.2f}] "
              f"over {run['overhead_pct']['pairs']} epoch pairs")
        for name, q in run["phases_us"].items():
            print(f"    {name:<13} {q['median']:9.1f} us  [IQR {q['iqr']:.1f}]")
    path = f"BENCH_{label}.json"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
