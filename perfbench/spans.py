"""Layer spans recorded from outside the package.

Each public function is wrapped under the module attribute it is looked up
by (``data.assemble`` is found in ``data``'s globals by ``load_dataset_dir``,
``optim.adam_step`` in ``optim``'s globals by the training loop,
``model.forward_batch`` in ``model``'s globals by ``model.forward``, and so
on), so the spans see every call without any change to the package. The
wrappers are removed again when the ``with`` block ends.
"""

from __future__ import annotations

import functools
import time
import tracemalloc

import numpy as np

# Calls that run a training loop; each opens an ``optim.step`` span.
TRAIN_CALLS = ("optim.train", "baseline.train_direct")
STEP = "optim.step"
STEP_END = "optim.adam_step"


TRACED = (
    "simworld.generate", "data.export_dataset", "data.load_dataset_dir",
    "data.assemble", "data.build_anchor_map", "optim.train",
    "model.forward_batch", "loss.batch_total_loss", "model.backward_batch",
    "optim.adam_step", "evaluation.evaluate", "model.forward",
    "evaluation.reconstruct_pose", "baseline.train_direct",
    "baseline.forward_batch", "baseline.direct_loss_batch",
    "baseline.backward_batch",
)
SPAN_NAMES = TRACED + (STEP,)


def targets(mods) -> list[tuple[object, str, str]]:
    """(module, attribute, span name) for every traced function.

    ``mods`` maps a module name such as ``"optim"`` to the imported module.
    """
    out = []
    for name in TRACED:
        mod, attr = name.split(".")
        out.append((mods[mod], attr, name))
    return out


ALLOC_SPANS = ("model.forward_batch", "loss.batch_total_loss",
               "model.backward_batch", "optim.adam_step")


class _Patched:
    """Replaces module attributes with wrappers for the life of a ``with``."""

    def __init__(self, targets, make_wrapper):
        self._targets = targets
        self._make_wrapper = make_wrapper
        self._saved = []

    def __enter__(self):
        for module, attr, name in self._targets:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, functools.wraps(fn)(self._make_wrapper(name, fn)))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False


class Tracer(_Patched):
    """Times every wrapped call and keeps one record per span in memory.

    A span's self time is its duration minus the durations of the spans it
    directly encloses. ``optim.step`` is a span the loop does not have: it
    runs from the end of one ``optim.adam_step`` to the end of the next, so
    it encloses forward, loss, backward and Adam, and its self time is the
    batch gather plus the loop's own bookkeeping. The first step of each
    training call starts with the call, so it also carries the call's
    preamble (parameter init); the part after the last Adam step belongs to
    the training call itself.
    """

    def __init__(self, targets):
        super().__init__(targets, self._wrapper)
        self.records: list[tuple[str, int, int]] = []  # (name, duration ns, self ns)
        self._stack: list[list] = []                    # [name, start ns, child ns]

    def _close(self, now: int) -> None:
        name, start, child = self._stack.pop()
        duration = now - start
        self.records.append((name, duration, duration - child))
        if self._stack:
            self._stack[-1][2] += duration

    def _wrapper(self, name, fn):
        clock = time.perf_counter_ns
        stack = self._stack
        opens_steps = name in TRAIN_CALLS
        ends_step = name == STEP_END

        def traced(*args, **kwargs):
            start = clock()
            stack.append([name, start, 0])
            if opens_steps:
                stack.append([STEP, start, 0])
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                if opens_steps:
                    while stack[-1][0] != name:  # the unfinished step after the last update
                        stack.pop()
                self._close(now)
                if ends_step and stack and stack[-1][0] == STEP:
                    self._close(now)
                    stack.append([STEP, now, 0])
        return traced

    def metrics(self) -> dict[str, tuple[float, str]]:
        """``<span>.calls``, ``.busy_s``, ``.self_us_p50`` and ``.self_us_p99``."""
        durations: dict[str, list[int]] = {name: [] for name in SPAN_NAMES}
        selfs: dict[str, list[int]] = {name: [] for name in SPAN_NAMES}
        for name, duration, own in self.records:
            durations[name].append(duration)
            selfs[name].append(own)
        out = {}
        for name in SPAN_NAMES:
            own = np.array(selfs[name], dtype=np.float64) / 1e3
            out[f"{name}.calls"] = (len(own), "count")
            out[f"{name}.busy_s"] = (sum(durations[name]) / 1e9, "s")
            p50, p99 = np.percentile(own, [50, 99]) if own.size else (0.0, 0.0)
            out[f"{name}.self_us_p50"] = (float(p50), "us")
            out[f"{name}.self_us_p99"] = (float(p99), "us")
        return out


class PeakAllocations(_Patched):
    """Largest tracemalloc peak above the call's starting level, per span.

    tracemalloc slows every allocation, so this pass never shares a run with
    the timed spans. The peaks are counts of bytes, not timings.
    """

    def __init__(self, targets):
        chosen = [t for t in targets if t[2] in ALLOC_SPANS]
        super().__init__(chosen, self._wrapper)
        self.peak_bytes = {name: 0 for name in ALLOC_SPANS}

    def __enter__(self):
        tracemalloc.start()
        return super().__enter__()

    def __exit__(self, *exc):
        super().__exit__(*exc)
        tracemalloc.stop()
        return False

    def _wrapper(self, name, fn):
        def measured(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.peak_bytes[name] = max(self.peak_bytes[name], peak)
        return measured

    def metrics(self) -> dict[str, tuple[float, str]]:
        return {f"{name}.peak_alloc_kb": (self.peak_bytes[name] / 1024, "kB")
                for name in ALLOC_SPANS}
