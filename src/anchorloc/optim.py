"""Adam optimizer, stepped learning-rate schedule, the mini-batch loop and
training checkpoints.

The loop, :func:`train_loop`, runs every model's training step: forward
through ``model.Bound``, the model's loss, backward, then Adam. ``train``
(the anchor model) and ``baseline.train_direct`` (the direct control)
supply only a loss, which returns ``Bound.backward``'s per-head gradients;
the network pass and the loss check their inputs. The loop runs at one
OpenBLAS thread (``model.one_blas_thread``), so its parameters do not depend
on the process's thread count. A
training checkpoint is the network spec, the parameters and Adam's state
(three arrays of the spec's parameter count), so a resumed run continues
the optimizer too; :func:`save_training_checkpoint` and
:func:`load_training_checkpoint` are the one writer and reader of its
layout; ``files.write_binary`` writes it, after its magic and version,
whole or not at all, and ``files.read_binary`` checks those two.
``TrainReport.epochs`` holds one :class:`EpochStats` row per epoch trained.

Training is deterministic given the two seeds involved (network init seed and
shuffle seed): per-epoch permutations come from a generator keyed on
(shuffle_seed, epoch), so a run resumed from a checkpoint replays exactly the
same batches as an uninterrupted one. A run holds four parameter-sized
vectors, the parameters, the gradient and Adam's two moments, each starting
on a 64-byte boundary, and Adam steps them in cache-sized blocks; a fresh
run's init is written straight into the parameter buffer, and the epoch
callback copies them only when it asks for a snapshot.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import loss as lossmod
from . import model as modelmod
from .data import SampleBatch
from .errors import (DegenerateOrientationError, InvalidInputError, ParseError,
                     TrainingDivergenceError, as_int, as_seed)
from .files import read_binary, write_binary
from .loss import LossWeights
from .model import NetworkSpec

# Adam's moment decay rates and denominator floor (Kingma & Ba, Alg. 1)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 3e-4
    batch_size: int = 32
    epochs: int = 120
    lr_halving_period: int = 30
    shuffle_seed: int = 2
    weights: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self):
        for name in ("batch_size", "epochs", "lr_halving_period"):
            object.__setattr__(self, name, as_int(name, getattr(self, name), InvalidInputError))
        object.__setattr__(self, "shuffle_seed",
                           as_seed("shuffle_seed", self.shuffle_seed, InvalidInputError))
        if not math.isfinite(self.lr) or self.lr <= 0:
            raise InvalidInputError(f"lr must be finite and > 0, got {self.lr}")
        if self.batch_size < 1:
            raise InvalidInputError("batch_size must be >= 1")
        if self.lr_halving_period < 1:
            raise InvalidInputError("lr_halving_period must be >= 1")
        if self.epochs < 0:
            raise InvalidInputError("epochs must be >= 0")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    lr: float
    total: float
    offset: float
    absolute: float
    ce: float


@dataclass
class TrainReport:
    epochs: list[EpochStats]
    params: np.ndarray
    adam_state: "AdamState"


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def lr_at(epoch: int, config: TrainConfig) -> float:
    """Base lr halved once per completed halving period."""
    if epoch < 0:
        raise InvalidInputError("epoch must be >= 0")
    return config.lr * 0.5 ** (epoch // config.lr_halving_period)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState,
              lr: float) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update (:meth:`_InPlaceAdam.step` on copies).
    Returns new arrays; inputs untouched."""
    if np.shape(grads) != params.shape:
        raise InvalidInputError("gradient/parameter shape mismatch")
    adam = _InPlaceAdam(params, state)
    adam.grad[...] = grads
    adam.step(lr)
    return adam.params, AdamState(m=adam.m, v=adam.v, t=adam.t)


# Adam's elements per pass: 32 Ki float64 (256 KiB per array) keeps a block's
# params, grad, m, v and scratch (1.25 MiB) in a 2 MiB L2 through its operations
_BLOCK = 1 << 15


def _aligned(n: int) -> np.ndarray:
    """An uninitialised float64 vector of n entries that starts on a 64-byte
    boundary: query latency depends on where the served vector sits, and
    Adam's throughput on where the moments sit."""
    buf = np.empty(n + 8)
    start = -buf.ctypes.data % 64 // 8
    return buf[start:start + n]


class _InPlaceAdam:
    """Adam in Kingma & Ba's efficient form (arXiv:1412.6980, end of section 2:
    Algorithm 1 with its two bias corrections folded into the step size and
    the denominator floor) on the four parameter-sized vectors that one
    training run owns, ``params``, ``grad``, ``m`` and ``v``, each 64-byte
    aligned, plus one scratch block. A step runs in blocks of ``_BLOCK``
    entries, each through the whole update, on views built once (a vector of
    one block has one view of each whole array). Every operation writes into
    a buffer with ``out=`` or in place, so a step allocates nothing the size
    of the parameter vector. ``step`` uses ``grad`` as scratch once ``v`` is
    updated, so after a step it no longer holds the gradient. The parameters
    start from a copy of ``params``, or, given a network spec, from
    ``model.init`` written straight into their buffer; the state starts from
    zero, or from a copy of ``state``."""

    def __init__(self, params, state: AdamState | None = None):
        fresh = isinstance(params, modelmod.Trunk)
        n = modelmod.param_count(params) if fresh else np.size(params)
        if state is not None and not np.shape(state.m) == np.shape(state.v) == (n,):
            raise InvalidInputError("Adam state/parameter shape mismatch")
        self.params = _aligned(n)
        if fresh:  # first, so init's per-layer draws never sit beside all four vectors
            modelmod.init(params, out=self.params)
        else:
            self.params[...] = params
        self.grad, self.m, self.v = (_aligned(n) for _ in range(3))
        self.grad[...] = 0.0
        self.m[...] = 0.0 if state is None else state.m
        self.v[...] = 0.0 if state is None else state.v
        self.t = 0 if state is None else state.t
        scratch = _aligned(min(n, _BLOCK))
        self._blocks = [(self.grad[i:i + _BLOCK], self.m[i:i + _BLOCK], self.v[i:i + _BLOCK],
                         self.params[i:i + _BLOCK], scratch[:min(_BLOCK, n - i)])
                        for i in range(0, n, _BLOCK)]

    def step(self, lr: float) -> None:
        # g.g is finite unless some entry is inf or nan, or their squares
        # overflow; only then is the exact per-entry check worth its pass.
        # The whole gradient passes before any block is updated.
        g = self.grad
        if not math.isfinite(g @ g) and not np.isfinite(g).all():
            raise TrainingDivergenceError("non-finite gradient in Adam step")
        self.t += 1
        # the two bias corrections fold into the step size lr_t and the floor
        # eps_t, so m / (sqrt(v) + eps_t) is the one divide per entry
        root = math.sqrt(1.0 - BETA2 ** self.t)
        lr_t, eps_t = lr * root / (1.0 - BETA1 ** self.t), EPS * root
        for g, m, v, params, s1 in self._blocks:
            m *= BETA1
            m += np.multiply(g, 1.0 - BETA1, out=s1)
            v *= BETA2
            np.multiply(g, 1.0 - BETA2, out=s1)
            s1 *= g
            v += s1
            np.sqrt(v, out=g)  # g is spent
            g += eps_t
            np.divide(m, g, out=s1)
            s1 *= lr_t
            params -= s1

    def snapshot(self) -> tuple[np.ndarray, AdamState]:
        """Copies of the parameters and the state, which later steps leave alone."""
        return self.params.copy(), AdamState(m=self.m.copy(), v=self.v.copy(), t=self.t)


@np.errstate(over="ignore", invalid="ignore")  # the inf or nan left raises below
@modelmod.one_blas_thread()
def train_loop(samples: SampleBatch, spec, config: TrainConfig, loss, targets,
               init_params: np.ndarray | None = None, init_state: AdamState | None = None,
               start_epoch: int = 0, epoch_callback=None) -> TrainReport:
    """The mini-batch loop every model trains with: forward, ``loss``,
    backward and Adam on one :class:`model.Bound` over the run's buffers.

    Each epoch gathers the features and every array of ``targets`` (one row
    per sample) in its shuffled order once; a batch is a slice of each.
    ``loss(net, h, *rows)`` gets the Bound, its trunk output and the batch's
    rows of the targets, and returns the LossBreakdown of batch means and the
    upstream gradient (B, width) per head of the batch-mean loss. Parameters
    start from ``model.init(spec)``, written into the run's own buffer, or
    from copies of ``init_params``, the Adam state from zero or a copy of
    ``init_state``; the run keeps no other copy of either. The run holds
    numpy's OpenBLAS at one thread.
    ``epoch_callback(stats, snapshot)`` gets the epoch's stats and a
    zero-argument ``snapshot()`` that returns copies of the parameters and
    the Adam state as they are when it is called, never the buffers later
    steps overwrite; a callback that does not call it costs no copy.
    """
    n_samples = samples.features.shape[0]
    if n_samples == 0:
        raise InvalidInputError("training requires a non-empty sample list")
    adam = _InPlaceAdam(spec if init_params is None else init_params, init_state)
    net = modelmod.Bound(spec, adam.params, adam.grad)
    history: list[EpochStats] = []
    for epoch in range(start_epoch, config.epochs):
        lr = lr_at(epoch, config)
        perm = np.random.default_rng([config.shuffle_seed, epoch]).permutation(n_samples)
        feats = samples.features[perm]
        cols = [t[perm] for t in targets]
        total = offset = absolute = ce = 0.0  # sums of batch size times batch mean
        for bstart in range(0, n_samples, config.batch_size):
            rows = slice(bstart, bstart + config.batch_size)
            x = feats[rows]
            cache = net.forward(x)
            try:
                breakdown, d_heads = loss(net, cache[-1], *[c[rows] for c in cols])
                net.backward(cache, d_heads)
                if not math.isfinite(breakdown.total):
                    raise TrainingDivergenceError("loss became non-finite")
                adam.step(lr)
            except (TrainingDivergenceError, DegenerateOrientationError) as err:
                raise TrainingDivergenceError(
                    str(err), epoch=epoch, batch=bstart // config.batch_size) from None
            b = x.shape[0]
            total += b * breakdown.total
            offset += b * breakdown.offset_term
            absolute += b * breakdown.absolute_term
            ce += b * breakdown.ce_term
        stats = EpochStats(epoch=epoch, lr=lr, total=total / n_samples,
                           offset=offset / n_samples, absolute=absolute / n_samples,
                           ce=ce / n_samples)
        history.append(stats)
        if epoch_callback is not None:
            epoch_callback(stats, adam.snapshot)
    return TrainReport(epochs=history, params=adam.params,
                       adam_state=AdamState(m=adam.m, v=adam.v, t=adam.t))


def train(samples: SampleBatch, spec: NetworkSpec, config: TrainConfig, *,
          init_params: np.ndarray | None = None,
          init_state: AdamState | None = None,
          start_epoch: int = 0,
          epoch_callback=None) -> TrainReport:
    """End-to-end training of the three-head network on a SampleBatch whose
    anchor map has ``spec.num_anchors`` anchors.

    Passing ``init_params``/``init_state``/``start_epoch`` resumes from a
    checkpoint and reproduces the uninterrupted trajectory exactly.
    """
    def batch_loss(net, h, positions, orientations, nearest):
        return lossmod.batch_total_loss(modelmod.prediction(net, h), samples.offsets_at(positions),
                                        positions[:, 2], orientations, nearest, config.weights)

    return train_loop(samples, spec, config, batch_loss,
                      (samples.positions, samples.orientations, samples.nearest),
                      init_params, init_state, start_epoch, epoch_callback)


# --- training checkpoints ----------------------------------------------------

_MAGIC, _VERSION = b"ALCK", 1
_ARRAYS = ("params", "adam_m", "adam_v")


def save_training_checkpoint(path, spec: NetworkSpec, params: np.ndarray,
                             state: AdamState, epoch: int,
                             meta: dict | None = None) -> None:
    """Checkpoint with optimizer state so training can resume bit-exactly.

    Byte layout: magic ``ALCK``, u32 version 1, u32 header length, a JSON
    header with sorted keys and no spaces (the network spec, the name and
    shape of ``params``, ``adam_m`` and ``adam_v`` in that order, and the
    meta: ``epoch`` and ``adam_t``, which keys of ``meta`` override), then
    the three arrays as little-endian float64 in C order, so a load/save
    cycle is bit-exact. ``files.write_binary`` writes the bytes whole, so a
    write that fails midway leaves a previous checkpoint as it was.
    """
    arrays = [np.ascontiguousarray(a, dtype="<f8") for a in (params, state.m, state.v)]
    header = {
        "spec": asdict(spec),
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in zip(_ARRAYS, arrays)],
        "meta": {"epoch": epoch, "adam_t": state.t, **(meta or {})},
    }
    hbytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    write_binary(path, _MAGIC, _VERSION, [len(hbytes).to_bytes(4, "little"), hbytes,
                                          *(a.tobytes() for a in arrays)])


def load_training_checkpoint(path):
    """Returns (spec, params, AdamState, epoch, meta) of a file in
    :func:`save_training_checkpoint`'s layout.

    The spec names every NetworkSpec field, which NetworkSpec checks, and fixes
    the arrays: exactly ``params``, ``adam_m`` and ``adam_v``, in that order,
    each of shape ``[param_count(spec)]``. The meta's ``epoch``,
    ``adam_t`` and ``frame_interval``, where present, must be integers. Any
    other header, arrays of any other size, and a non-finite array entry are
    ParseError.
    """
    raw = read_binary(path, _MAGIC, _VERSION, "checkpoint")
    off = 12 + int.from_bytes(raw[8:12], "little")
    if off > len(raw):
        raise ParseError(f"{path}: truncated header")
    try:  # RecursionError: JSON nested too deeply to decode
        header = json.loads(raw[12:off].decode())
        if set(header["spec"]) != {f.name for f in fields(NetworkSpec)}:  # so none is defaulted
            raise KeyError(f"spec keys {sorted(header['spec'])} are not NetworkSpec's fields")
        spec = NetworkSpec(**header["spec"])
        n = modelmod.param_count(spec)
        if header["arrays"] != [{"name": a, "shape": [n]} for a in _ARRAYS]:
            raise ValueError(f"arrays must be {', '.join(_ARRAYS)}, in that order, each of "
                             f"shape [{n}], the spec's parameter count")
        meta = header["meta"]
        if not isinstance(meta, dict):
            raise TypeError("meta is not an object")
        for key, missing in (("epoch", None), ("adam_t", None), ("frame_interval", 0)):
            if type(meta.get(key, missing)) is not int:
                raise TypeError(f"meta {key!r} is not an integer: {meta.get(key, missing)!r}")
    except (ValueError, KeyError, TypeError, RecursionError) as err:
        raise ParseError(f"{path}: bad header: {type(err).__name__}: {err}") from None
    size = len(_ARRAYS) * 8 * n
    if len(raw) - off != size:
        raise ParseError(f"{path}: {len(raw) - off} bytes of arrays, the spec needs {size}")
    arrays = np.frombuffer(raw[off:], dtype="<f8").reshape(len(_ARRAYS), n)
    bad = np.argwhere(~np.isfinite(arrays))
    if bad.size:
        a, i = bad[0]
        raise ParseError(f"{path}: {_ARRAYS[a]}[{i}] is {arrays[a, i]}, not finite")
    params, m, v = (a.copy() for a in arrays)
    return spec, params, AdamState(m=m, v=v, t=meta["adam_t"]), meta["epoch"], meta
