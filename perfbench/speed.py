"""Machine-speed reference for normalizing wall-clock times.

On a shared machine the same code runs up to about 1.7x slower for seconds
or minutes at a time while other tenants load the core, so raw times of one
run differ from the next by far more than a regression worth catching. The
benchmark therefore times a fixed reference kernel, which lives here and not
in the package, right before and after each measured piece of work, and
scales the piece's time by ``REF_S`` over the mean of the two samples. A
change to the package moves the piece and not the kernel, so it shows in
full; a slow spell of the machine moves both and mostly cancels. The kernel
mixes what the package's hot paths do: small-matrix numpy calls, small
array and object construction, and plain Python. Raw times are printed next
to the normalized ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

ROUNDS = 200
# The kernel's time on an uncontended core of the machine the benchmark was
# defined on (2-vCPU x86-64 VM at 2.1 GHz, numpy 2.4 with OpenBLAS, 1 thread),
# so normalized times read as that machine's quiet-core times.
REF_S = 3.4e-3


@dataclass(frozen=True)
class _Record:
    values: np.ndarray
    first: float


class Speed:
    """Times the reference kernel; ``spent`` is the total time spent in it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((32, 48))
        self._b = rng.standard_normal((48, 48))
        self._x = rng.standard_normal(12)
        self._w = rng.standard_normal((48, 12))
        self.spent = 0.0

    def sample(self) -> float:
        a, b, x, w = self._a, self._b, self._x, self._w
        start = time.perf_counter()
        for i in range(ROUNDS):
            total = float(np.maximum(a @ b + 1.0, 0.0).sum())
            h = np.maximum(np.asarray(x, dtype=np.float64).reshape(1, -1) @ w.T, 0.0)
            rec = _Record(values=h[0].copy(), first=float(h[0, 0]))
            total += int(np.argmax(rec.values)) + float(np.linalg.norm(rec.values))
            for j in range(8):
                d = {"i": i, "j": [j, j + 1]}
                total += d["i"] + len(d["j"]) + sum(d["j"])
        took = time.perf_counter() - start
        self.spent += took
        return took


class Stopwatch:
    """Times consecutive pieces of work, each between two kernel samples.

    ``raw`` and ``ref`` sum the pieces' raw and reference-speed seconds.
    Kernel samples taken inside a piece (by a nested stopwatch) are not
    counted in it.
    """

    def __init__(self, speed: Speed):
        self.speed = speed
        self.raw = 0.0
        self.ref = 0.0
        self._before = speed.sample()
        self._spent = speed.spent
        self._start = time.perf_counter()

    def lap(self, *_) -> float:
        """End the current piece and start the next; returns the piece's
        reference-speed scale. Usable as an epoch callback."""
        took = time.perf_counter() - self._start - (self.speed.spent - self._spent)
        after = self.speed.sample()
        scale = 2.0 * REF_S / (self._before + after)
        self.raw += took
        self.ref += took * scale
        self._before = after
        self._spent = self.speed.spent
        self._start = time.perf_counter()
        return scale
