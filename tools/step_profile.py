"""Where a training step's time goes, phase by phase, at 20 and at 2000 anchors,
and where a served query's goes at 200.

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
- ``data.SampleBatch.offsets_at`` (``offsets_at``: the batch's ground-truth
  offsets),
- ``optim._InPlaceAdam.step`` (``adam``),

and charges each call its self time: its duration less that of the wrapped
calls inside it. A step runs from the end of one Adam step to the end of the
next in the same epoch (an epoch's first step, which spans the epoch's
shuffle and gather, is not counted), and ``slicing_and_clock`` is the step
less the phases: slicing the batch out of the epoch's rows, plus this tool's
own bookkeeping between the wrapped calls.

Before training it times the set-up phases, each call on its own, over
SETUP_RUNS runs after one warm-up: ``simworld.default_world``,
``simworld.generate`` (2000 / 500 frames), ``data.export_dataset`` into a
temporary directory, ``data.load_dataset_files`` from it, then on their own
the four file calls that make up those two, each over both splits:
``data.save_pose_file``, ``data.save_features``, ``data.load_pose_file`` and
``data.load_features``; then ``data.assemble`` of the loaded splits at k=100
and at k=1, and ``data.SampleBatch.of`` of each loaded split on the k=1
anchor map (the nearest-anchor labels over 2000 anchors, most of
``assemble_k1``).

Epoch 0 is a warm-up. After it, wrapped and unwrapped epochs alternate in
pairs, the wrapped one first in even pairs and second in odd ones, and the
wrapper overhead is the median over pairs of the wrapped epoch's time over
the unwrapped one's, less 1. Phase times come from the wrapped epochs.

The query profile trains the localize workload's served model (k=10, N=200
anchors, 40 epochs) and serves the test frames one at a time, as that
workload does: ``evaluation.reconstruct_pose(model.forward(...))``. It wraps ``model.Bound.forward`` (``trunk``),
``model.Bound.head`` (``logits_head`` and ``absolute_head``; an argmax pose
runs no offsets head), ``evaluation.reconstruct`` (``reconstruct``) and
``evaluation.reconstruct_pose`` (``pose``: its self time, the batch check
and building the Pose); ``glue`` is the query less the phases: ``forward``,
``forward_batch`` and the prediction's construction, plus this tool's
bookkeeping. After a warm-up pass, wrapped and unwrapped passes alternate as
epochs do above; ``query_us`` is the per-query time of the unwrapped passes.

Prints one line per phase and writes ``BENCH_<label>.json`` (``label``
defaults to SRC_DIR's short git revision) in the current directory: per N
the parameter count, the step's and each phase's median and interquartile
range in microseconds, and the overhead; the same for the query; each
set-up phase's median and interquartile range in milliseconds; and a
provenance block (numpy and BLAS versions, the thread setting, the CPU, the
git revision and the sha256 of each ``anchorloc/*.py``). ``--tier1-s``
records a Tier-1 wall time, measured elsewhere, as ``info.tier1_s``.
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
PHASES = ("slicing_and_clock", "offsets_at", "forward", "head", "offsets_head", "loss",
          "backward", "adam")
SETUP_RUNS = 15
# the localize workload's served model: frame interval k, epochs trained
QUERY_K, QUERY_EPOCHS = 10, 40
QUERY_PASSES = 20
QUERY_PHASES = ("glue", "trunk", "logits_head", "absolute_head", "reconstruct", "pose")


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1, "q1": q1, "q3": q3}


class PhaseClock:
    """Self time per phase, from wrappers installed on the package's classes
    and modules while ``install(True)`` holds: each wrapped call is charged
    its duration less that of the wrapped calls inside it. ``targets`` are
    (owner, attribute, phase of the call's arguments)."""

    def __init__(self, targets, phases):
        self.targets = targets
        self.originals = [getattr(owner, name) for owner, name, _ in targets]
        self.names = phases
        self.open = []  # the wrapped time inside each call still running
        self.phases = dict.fromkeys(phases, 0)

    def timed(self, fn, phase_of, on_end=None):
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
                if on_end is not None:
                    on_end(end)
        return call

    def take(self) -> dict:
        """The phases charged since the last take, which starts them anew."""
        phases, self.phases = self.phases, dict.fromkeys(self.names, 0)
        return phases

    def install(self, on: bool) -> None:
        self.take()
        for (owner, name, phase_of), fn in zip(self.targets, self.originals):
            setattr(owner, name, self.timed(fn, phase_of, self.end_hook(name)) if on else fn)

    def end_hook(self, name):
        """What runs at the end of each call of the wrapped ``name``, or None."""
        return None


class StepClock(PhaseClock):
    """Self time per phase of each step, for the wrapped epochs only."""

    def __init__(self, data, model, loss, optim):
        super().__init__(((data.SampleBatch, "offsets_at", lambda args: "offsets_at"),
                          (model.Bound, "forward", lambda args: "forward"),
                          (model.Bound, "head",
                           lambda args: "offsets_head" if args[1] == "offsets" else "head"),
                          (model.Bound, "backward", lambda args: "backward"),
                          (loss, "batch_total_loss", lambda args: "loss"),
                          (optim._InPlaceAdam, "step", lambda args: "adam")), PHASES[1:])
        self.last_end = None  # ns at the end of the last Adam step of this epoch
        self.steps = []  # per counted step: (step ns, {phase: self ns})

    def end_step(self, end: int) -> None:
        phases = self.take()
        if self.last_end is not None:
            self.steps.append((end - self.last_end, phases))
        self.last_end = end

    def end_hook(self, name):
        return self.end_step if name == "step" else None

    def install(self, on: bool) -> None:
        self.last_end = None
        super().install(on)


def wrapped(i: int) -> bool:
    """Whether epoch or pass i, after the warm-up i = 0, runs wrapped: the
    wrapped one of each pair comes first in even pairs, second in odd ones."""
    pair, second = divmod(i - 1, 2)
    return i > 0 and second == pair % 2


def overhead_pct(runs) -> dict:
    """The median over pairs of runs, from (wrapped, ns) per run, of the
    wrapped run's time over the unwrapped one's, less 1, in percent."""
    ratios = []
    for i in range(0, len(runs) - 1, 2):
        (w1, t1), (_, t2) = runs[i], runs[i + 1]
        ratios.append(t1 / t2 if w1 else t2 / t1)
    return {"pairs": len(ratios), **quartiles([100 * (r - 1) for r in ratios])}


def phases_us(names, timed) -> dict:
    """Median and IQR in us of each phase, from (total ns, {phase: self ns})
    per call; the first name is the residual, the total less the phases."""
    phases = {name: [] for name in names}
    for total, parts in timed:
        phases[names[0]].append(total - sum(parts.values()))
        for name, ns in parts.items():
            phases[name].append(ns)
    return {name: quartiles([ns * 1e-3 for ns in values]) for name, values in phases.items()}


def profile(samples, k: int, epochs: int) -> dict:
    from anchorloc import data, loss, model, optim

    scene = data.from_simworld(*samples, k=k)
    spec = model.NetworkSpec(input_dim=scene.train.features.shape[1],
                             num_anchors=scene.num_anchors)
    clock = StepClock(data, model, loss, optim)
    epoch_ns = []  # (wrapped, ns) per epoch after the warm-up
    last = [time.perf_counter_ns()]

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
    return {
        "k": k,
        "num_anchors": scene.num_anchors,
        "param_count": model.param_count(spec),
        "batch_size": 32,
        "epochs": epochs,
        "steps_counted": len(clock.steps),
        "step_us": quartiles([s * 1e-3 for s, _ in clock.steps]),
        "phases_us": phases_us(PHASES, clock.steps),
        "overhead_pct": overhead_pct(epoch_ns),
    }


def query_profile(samples) -> dict:
    """Where a served B=1 query's time goes, at the localize workload's k and
    epochs: QUERY_PASSES + 1 passes over the test frames, the first a
    warm-up, then wrapped and unwrapped passes alternating in pairs."""
    from anchorloc import data, evaluation, model, optim

    scene = data.from_simworld(*samples, k=QUERY_K)
    spec = model.NetworkSpec(input_dim=scene.train.features.shape[1],
                             num_anchors=scene.num_anchors)
    clock = PhaseClock(((model.Bound, "forward", lambda args: "trunk"),
                        (model.Bound, "head", lambda args: f"{args[1]}_head"),
                        (evaluation, "reconstruct", lambda args: "reconstruct"),
                        (evaluation, "reconstruct_pose", lambda args: "pose")), QUERY_PHASES[1:])
    amap = scene.anchor_map
    timed, plain, pass_ns = [], [], []  # per query (ns, phases); per query ns; per pass
    try:
        with model.one_blas_thread():
            params = optim.train(scene.train, spec,
                                 optim.TrainConfig(epochs=QUERY_EPOCHS, batch_size=32)).params
            for p in range(QUERY_PASSES + 1):
                on = wrapped(p)
                clock.install(on)
                begin = time.perf_counter_ns()
                for feature in scene.test.features:
                    start = time.perf_counter_ns()
                    evaluation.reconstruct_pose(model.forward(spec, params, feature), amap)
                    ns = time.perf_counter_ns() - start
                    if on:
                        timed.append((ns, clock.take()))
                    elif p:
                        plain.append(ns)
                if p:
                    pass_ns.append((on, time.perf_counter_ns() - begin))
    finally:
        clock.install(False)
    return {
        "k": QUERY_K,
        "num_anchors": scene.num_anchors,
        "param_count": model.param_count(spec),
        "epochs": QUERY_EPOCHS,
        "queries_counted": len(timed),
        "query_us": quartiles([ns * 1e-3 for ns in plain]),
        "phases_us": phases_us(QUERY_PHASES, timed),
        "overhead_pct": overhead_pct(pass_ns),
    }


def setup_profile() -> dict:
    """Median and IQR in ms of each set-up phase over SETUP_RUNS runs, at one
    OpenBLAS thread; the first run is a warm-up and is not counted."""
    from anchorloc import data, geometry, model, simworld

    ms = {name: [] for name in ("default_world", "generate", "export_dataset",
                                "load_dataset_files", "save_pose_file", "save_features",
                                "load_pose_file", "load_features", "assemble_k100",
                                "assemble_k1", "sample_batch_k1_train", "sample_batch_k1_test")}

    def timed(name, fn, *args):
        start = time.perf_counter_ns()
        out = fn(*args)
        ms[name].append((time.perf_counter_ns() - start) * 1e-6)
        return out

    def both_splits(name, fn, *calls):
        return timed(name, lambda: [fn(*args) for args in calls])

    with model.one_blas_thread(), tempfile.TemporaryDirectory() as work:
        for _ in range(SETUP_RUNS + 1):
            world = timed("default_world", simworld.default_world)
            samples = timed("generate", simworld.generate, world, simworld.DEFAULT_N_TRAIN,
                            simworld.DEFAULT_N_TEST)
            timed("export_dataset", data.export_dataset, work, *samples)
            train_poses, train_feats, test_poses, test_feats = timed(
                "load_dataset_files", data.load_dataset_files, work)
            paths = [os.path.join(work, name) for name in (data.POSES_TRAIN, data.POSES_TEST,
                                                           data.FEATURES_TRAIN,
                                                           data.FEATURES_TEST)]
            both_splits("save_pose_file", data.save_pose_file, (paths[0], train_poses),
                        (paths[1], test_poses))
            both_splits("save_features", data.save_features,
                        (paths[2], train_poses.frame_ids, train_feats),
                        (paths[3], test_poses.frame_ids, test_feats))
            both_splits("load_pose_file", data.load_pose_file, (paths[0],), (paths[1],))
            both_splits("load_features", data.load_features, (paths[2],), (paths[3],))
            for k in (100, 1):
                timed(f"assemble_k{k}", data.assemble, train_poses, train_feats, k, test_poses,
                      test_feats)
            anchor_map = geometry.build_anchor_map(train_poses.positions, 1)
            for split, poses, feats in (("train", train_poses, train_feats),
                                        ("test", test_poses, test_feats)):
                timed(f"sample_batch_k1_{split}", data.SampleBatch.of, poses, feats, anchor_map)
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
        print(f"    {name:<22} {q['median']:8.2f} ms  [IQR {q['iqr']:.2f}]")
    query = out["query"] = query_profile(samples)
    print(f"query, N={query['num_anchors']} (k={QUERY_K}, {query['queries_counted']} wrapped "
          f"queries): {query['query_us']['median']:.2f} us unwrapped "
          f"[IQR {query['query_us']['iqr']:.2f}], wrapper overhead "
          f"{query['overhead_pct']['median']:+.2f}% [IQR {query['overhead_pct']['iqr']:.2f}] "
          f"over {query['overhead_pct']['pairs']} pass pairs")
    for name, q in query["phases_us"].items():
        print(f"    {name:<17} {q['median']:9.2f} us  [IQR {q['iqr']:.2f}]")
    for k, epochs in RUNS:
        run = profile(samples, k, epochs)
        out["runs"][f"N={run['num_anchors']}"] = run
        print(f"N={run['num_anchors']} (k={k}, {run['param_count']} parameters, "
              f"{run['steps_counted']} steps): step {run['step_us']['median']:.1f} us "
              f"[IQR {run['step_us']['iqr']:.1f}], wrapper overhead "
              f"{run['overhead_pct']['median']:+.2f}% [IQR {run['overhead_pct']['iqr']:.2f}] "
              f"over {run['overhead_pct']['pairs']} epoch pairs")
        for name, q in run["phases_us"].items():
            print(f"    {name:<17} {q['median']:9.1f} us  [IQR {q['iqr']:.1f}]")
    path = f"BENCH_{label}.json"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
