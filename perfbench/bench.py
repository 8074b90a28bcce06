"""The three anchorloc workloads, their output checks and their metrics.

Everything here drives the package through its public functions only. The
caller pins the BLAS thread count before this module first imports numpy.
"""

from __future__ import annotations

import contextlib
import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

from anchorloc import baseline, data, evaluation, geometry, loss, model, optim, simworld
from anchorloc.baseline import DirectSpec
from anchorloc.errors import (DegenerateOrientationError, InvalidInputError,
                              TrainingDivergenceError)
from anchorloc.model import NetworkSpec

import spans
from speed import Speed, Stopwatch

# The README configuration: default world sizes, a 48x48 trunk, net seed 1,
# shuffle seed 2, batch 32 (the TrainConfig default).
N_TRAIN = simworld.DEFAULT_N_TRAIN
N_TEST = simworld.DEFAULT_N_TEST
HIDDEN = (48, 48)
NET_SEED = 1
SHUFFLE_SEED = 2

SETUP_REPEATS = 3      # setup_s is the median of this many set-ups
N_QUERIES = 2000       # distinct query frames served by the localize workload
MIN_QUERIES = 2000     # leaves 20 queries beyond p99
PIECE_QUERIES = 500    # queries between two speed samples
TRACE_QUERIES = 5000   # queries per pass in the traced run
ALLOC_EPOCHS = 1       # epochs trained under tracemalloc

# Errors a training step or a query may raise on bad numbers.
NUMERICAL_ERRORS = (TrainingDivergenceError, DegenerateOrientationError, InvalidInputError)

MODULES = {"simworld": simworld, "data": data, "geometry": geometry, "model": model,
           "loss": loss, "optim": optim, "evaluation": evaluation, "baseline": baseline}


@dataclass(frozen=True)
class Workload:
    name: str
    k: int               # anchor frame interval
    epochs: int
    direct: bool         # also train the direct-regression control
    serve: bool          # train in set-up and measure the query loop


WORKLOADS = {
    w.name: w for w in (
        Workload("train-sparse", k=100, epochs=120, direct=True, serve=False),
        Workload("train-dense", k=1, epochs=4, direct=False, serve=False),
        Workload("localize", k=10, epochs=40, direct=False, serve=True),
    )
}


class Tally:
    """Attempted and failed operations; a failed output check counts as one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)

    def check(self, ok: bool, why: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(1, why)


@dataclass
class Trained:
    spec: NetworkSpec
    params: np.ndarray
    direct_params: np.ndarray | None
    final_loss: float
    samples: int
    raw_s: float         # training wall time
    ref_s: float         # the same at reference speed


@dataclass
class Scene:
    dataset: data.SceneDataset
    queries: data.SampleBatch   # frames the closed loop localizes
    served: Trained | None      # the localize workload's model, trained in set-up


def train(wl: Workload, dataset: data.SceneDataset, tally: Tally, speed: Speed | None):
    """Train the anchor model (and the direct control) and check them.

    With ``speed``, each epoch of the anchor model and the whole direct run
    are timed as pieces. The traced run passes None, so that no speed sample
    lands inside a span.
    """
    n = len(dataset.train)
    spec = NetworkSpec(input_dim=dataset.train.features.shape[1], hidden_layers=HIDDEN,
                       num_anchors=dataset.num_anchors, seed=NET_SEED)
    cfg = optim.TrainConfig(epochs=wl.epochs, shuffle_seed=SHUFFLE_SEED)
    runs = 2 if wl.direct else 1
    steps = runs * wl.epochs * math.ceil(n / cfg.batch_size)
    tally.attempted += steps
    watch = Stopwatch(speed) if speed is not None else None

    def lap(*_):
        if watch is not None:
            watch.lap()

    try:
        reports = [optim.train(dataset.train, spec, cfg, epoch_callback=lap)]
        lap()
        if wl.direct:
            dspec = DirectSpec(input_dim=spec.input_dim, hidden_layers=HIDDEN, seed=NET_SEED)
            reports.append(baseline.train_direct(dataset.train, dspec, cfg))
            lap()
    except NUMERICAL_ERRORS as err:
        tally.fail(steps, f"training raised {type(err).__name__}: {err}")
        return None
    for label, rep in zip(("anchor", "direct"), reports):
        tally.check(bool(np.isfinite(rep.params).all()), f"{label} parameters not finite")
        tally.check(rep.epochs[-1].total < rep.epochs[0].total,
                    f"{label} final loss {rep.epochs[-1].total} not below first "
                    f"{rep.epochs[0].total}")
    return Trained(spec=spec, params=reports[0].params,
                   direct_params=reports[1].params if wl.direct else None,
                   final_loss=reports[0].epochs[-1].total, samples=runs * wl.epochs * n,
                   raw_s=watch.raw if watch else 0.0, ref_s=watch.ref if watch else 0.0)


def set_up(wl: Workload, seed: int, work_dir: str, tally: Tally, speed: Speed | None) -> Scene:
    """World generation, dataset export and reload, anchor-map assembly; for
    the localize workload also the served model and the query frames."""
    world = simworld.default_world(seed)
    train_samples, test_samples = simworld.generate(world, N_TRAIN, N_TEST)
    data.export_dataset(work_dir, train_samples, test_samples)
    dataset = data.load_dataset_dir(work_dir, wl.k)
    if not wl.serve:
        return Scene(dataset=dataset, queries=dataset.test, served=None)
    served = train(wl, dataset, tally, speed)
    # The test stream's first N_TEST draws are the test split; the frames
    # after them are fresh poses of the same world.
    _, stream = simworld.generate(world, 0, N_TEST + N_QUERIES)
    frames = stream[N_TEST:]
    queries = data.SampleBatch.build(
        [f"q{i:05d}" for i in range(len(frames))], [s.pose for s in frames],
        np.array([s.feature for s in frames]), dataset.anchor_map)
    return Scene(dataset=dataset, queries=queries, served=served)


def timed_set_up(wl, seed, work_dir, tally, speed):
    """(scene, raw seconds, reference-speed seconds). Callers drop their
    previous scene first, so set-ups do not stack in RSS."""
    gc.collect()
    watch = Stopwatch(speed)
    scene = set_up(wl, seed, work_dir, tally, speed)
    watch.lap()
    return scene, watch.raw, watch.ref


def localize(trained: Trained, scene: Scene, tally: Tally, speed: Speed, *,
             seconds: float = 0.0, count: int = 0):
    """Closed loop with one client: each query waits for the previous reply.

    Runs for ``seconds`` and at least ``count`` queries, cycling over the
    query frames, in pieces of PIECE_QUERIES between speed samples. Returns
    (raw latencies, reference-speed latencies, poses of the first pass);
    latencies are in ns.
    """
    feats = scene.queries.features
    amap = scene.dataset.anchor_map
    spec, params = trained.spec, trained.params
    clock = time.perf_counter_ns
    raw, ref, first_pass = [], [], []
    end = clock() + int(seconds * 1e9)
    watch = Stopwatch(speed)
    i = 0
    while i < count or clock() < end:
        piece = []
        for _ in range(PIECE_QUERIES):
            feature = feats[i % len(feats)]
            start = clock()
            try:
                pose = evaluation.reconstruct_pose(model.forward(spec, params, feature), amap)
            except NUMERICAL_ERRORS as err:
                pose = None
                tally.fail(1, f"query {i} raised {type(err).__name__}: {err}")
            piece.append(clock() - start)
            tally.attempted += 1
            if pose is not None:
                q = pose.orientation
                if not (np.isfinite(pose.position).all() and abs(float(q @ q) - 1.0) < 1e-9):
                    tally.fail(1, f"query {i}: pose not finite or quaternion not unit")
            if i < len(feats):
                first_pass.append(pose)
            i += 1
        piece = np.array(piece, dtype=np.float64)
        raw.append(piece)
        ref.append(piece * watch.lap())
    return np.concatenate(raw), np.concatenate(ref), first_pass


def check_against_evaluate(trained: Trained, scene: Scene, poses, tally: Tally):
    """The B=1 poses must give evaluate's per-sample errors to 1e-9; returns
    the evaluation report."""
    batch = scene.queries
    report = evaluation.evaluate(trained.spec, trained.params, batch, scene.dataset.anchor_map)
    worst = 0.0
    for pose, (terr, rerr, _, _), pos, quat in zip(
            poses, report.per_sample, batch.positions, batch.orientations):
        if pose is None:
            continue
        worst = max(worst,
                    abs(float(np.linalg.norm(pose.position - pos)) - terr),
                    abs(geometry.quat_angle_deg(pose.orientation, quat) - rerr))
    tally.check(len(poses) == len(batch) and worst <= 1e-9,
                f"B=1 poses disagree with evaluate by {worst:g}")
    return report


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _quality(trained: Trained, report) -> dict:
    return {
        "optim.final_loss": (trained.final_loss, "1"),
        "evaluation.median_error_m": (report.median_translation_m, "m"),
        "evaluation.median_error_deg": (report.median_rotation_deg, "deg"),
    }


def measure(wl: Workload, seed: int, seconds: float, work_dir: str, tally: Tally):
    """The untraced run. Returns (end-to-end metrics, raw times, counts and
    quality), both as {name: (value, unit)}, or None when training failed."""
    speed = Speed()
    scene, setups, rates = None, [], []  # rates: (raw, reference-speed) samples/s

    def timed(trained: Trained) -> None:
        rates.append((trained.samples / trained.raw_s, trained.samples / trained.ref_s))

    for _ in range(SETUP_REPEATS):
        scene = None
        scene, raw_s, ref_s = timed_set_up(wl, seed, work_dir, tally, speed)
        setups.append((raw_s, ref_s))
        if scene.served is not None:
            timed(scene.served)

    if wl.serve:
        trained = scene.served
        if trained is None:
            return None
        raw_ns, ref_ns, poses = localize(trained, scene, tally, speed, seconds=seconds,
                                         count=MIN_QUERIES)
    else:
        # Training runs from the same seeds, each followed by queries for a
        # third of its time, so both sample the whole run.
        raw_ns, ref_ns, poses, first_params = [], [], None, None
        start = time.perf_counter()
        while not rates or time.perf_counter() - start < seconds:
            began = time.perf_counter()
            trained = train(wl, scene.dataset, tally, speed)
            if trained is None:
                return None
            timed(trained)
            params = trained.params.tobytes()
            first_params = first_params or params
            tally.check(params == first_params,
                        "retraining from the same seeds changed the parameters")
            raw, ref, first = localize(trained, scene, tally, speed,
                                       seconds=(time.perf_counter() - began) / 3,
                                       count=0 if poses else MIN_QUERIES)
            raw_ns.append(raw)
            ref_ns.append(ref)
            poses = poses or first
        raw_ns, ref_ns = np.concatenate(raw_ns), np.concatenate(ref_ns)

    report = check_against_evaluate(trained, scene, poses, tally)
    p50, p99 = np.percentile(ref_ns, [50, 99]) / 1e3
    raw_p50, raw_p99 = np.percentile(raw_ns, [50, 99]) / 1e3
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "train_samples_per_s": (statistics.median(ref for _, ref in rates), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "localize_us_p50": (float(p50), "us"),
        "localize_us_p99": (float(p99), "us"),
        "ok_ratio": (1.0 - tally.failed / tally.attempted, "ratio"),
    }
    info = {
        "raw.setup_s": (statistics.median(raw for raw, _ in setups), "s"),
        "raw.train_samples_per_s": (statistics.median(raw for raw, _ in rates), "1/s"),
        "raw.localize_us_p50": (float(raw_p50), "us"),
        "raw.localize_us_p99": (float(raw_p99), "us"),
        "queries": (len(raw_ns), "count"),
        "timed_trainings": (len(rates), "count"),
        **_quality(trained, report),
    }
    return metrics, info


def _traced_pass(wl: Workload, scene: Scene, tally: Tally, speed: Speed):
    """One training run (train workloads), TRACE_QUERIES queries and the
    check against evaluate. Returns (trained, poses, evaluation report,
    reference-speed seconds)."""
    watch = Stopwatch(speed)
    trained = scene.served if wl.serve else train(wl, scene.dataset, tally, None)
    if trained is None:
        return None, None, None, 0.0
    _, _, poses = localize(trained, scene, tally, speed, count=TRACE_QUERIES)
    report = check_against_evaluate(trained, scene, poses, tally)
    watch.lap()
    return trained, poses, report, watch.ref


def _output_bytes(trained: Trained, poses) -> bytes:
    direct = b"" if trained.direct_params is None else trained.direct_params.tobytes()
    return trained.params.tobytes() + direct + b"".join(
        p.position.tobytes() + p.orientation.tobytes() for p in poses if p is not None)


def trace(wl: Workload, seed: int, work_dir: str, tally: Tally):
    """The traced run: set-up untraced, then traced; then the pass untraced,
    traced, untraced, traced, so that a slow spell of the machine does not
    land on one side only; then an allocation pass. Returns per-layer
    metrics as {name: (value, unit)}."""
    speed = Speed()
    tracer = spans.Tracer(spans.targets(MODULES))
    outputs, seconds = [], {False: 0.0, True: 0.0}
    scene = set_up(wl, seed, work_dir, tally, None)
    for i, traced in enumerate((False, True, False, True)):
        if i == 1:  # set up again under the tracer, so its spans are recorded once
            scene = None
            gc.collect()
            with tracer:
                scene = set_up(wl, seed, work_dir, tally, None)
        with tracer if traced else contextlib.nullcontext():
            trained, poses, report, took = _traced_pass(wl, scene, tally, speed)
        if trained is None:
            return None
        outputs.append(_output_bytes(trained, poses))
        seconds[traced] += took
    tally.check(all(out == outputs[0] for out in outputs),
                "traced passes changed the trained parameters or the poses")

    allocs = spans.PeakAllocations(spans.targets(MODULES))
    with allocs:
        optim.train(scene.dataset.train, trained.spec,
                    optim.TrainConfig(epochs=ALLOC_EPOCHS, shuffle_seed=SHUFFLE_SEED))

    spec = trained.spec
    n_params = model.param_count(spec)
    dims = (spec.input_dim, *spec.hidden_layers)
    macs = sum(a * b for a, b in zip(dims, dims[1:])) + dims[-1] * (3 * spec.num_anchors + 5)
    batch = optim.TrainConfig().batch_size
    offsets_bytes = sum(getattr(b, "offsets", np.zeros(0)).nbytes
                        for b in (scene.dataset.train, scene.dataset.test))
    metrics = tracer.metrics()
    metrics.update(allocs.metrics())
    metrics.update(_quality(trained, report))
    metrics.update({
        "model.param_count": (n_params, "count"),
        # forward 2 flops per multiply-add, backward twice that
        "model.gflop_per_step": (6 * batch * macs / 1e9, "GFLOP"),
        # read params, grads, m, v and write params, m, v once each
        "optim.adam_mb_moved_per_step": (7 * 8 * n_params / 1e6, "MB"),
        "data.offsets_mb": (offsets_bytes / 1e6, "MB"),
        "geometry.num_anchors": (scene.dataset.num_anchors, "count"),
        "trace.overhead_pct": (100.0 * (seconds[True] / seconds[False] - 1.0), "%"),
    })
    return metrics
