"""Adam optimizer, stepped learning-rate schedule and the mini-batch loop.

The loop runs every model's training step: forward through ``model.Bound``,
the model's loss, backward, then Adam. ``train`` (the anchor model) and
``baseline.train_direct`` (the direct control) supply only their input checks
and a loss.

Training is deterministic given the two seeds involved (network init seed and
shuffle seed): per-epoch permutations come from a generator keyed on
(shuffle_seed, epoch), so a run resumed from a checkpoint replays exactly the
same batches as an uninterrupted one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import loss as lossmod
from . import model as modelmod
from .data import SampleBatch
from .errors import InvalidInputError, ParseError, TrainingDivergenceError
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
    shuffle_seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self):
        if self.lr <= 0:
            raise InvalidInputError(f"lr must be > 0, got {self.lr}")
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

    @classmethod
    def initial(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n), t=0)


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


def _epoch_permutation(shuffle_seed: int, epoch: int, n: int) -> np.ndarray:
    rng = np.random.default_rng([shuffle_seed & 0xFFFFFFFFFFFFFFFF, epoch])
    return rng.permutation(n)


class _InPlaceAdam:
    """Adam (Kingma & Ba, Alg. 1) on parameter, moment and gradient buffers
    that one training run owns. Every operation writes into a buffer with
    ``out=`` or in place, so a step allocates nothing the size of the
    parameter vector. ``step`` uses ``grad`` as scratch once ``v`` is
    updated, so after a step it no longer holds the gradient."""

    def __init__(self, params: np.ndarray, state: AdamState):
        self.params = np.array(params, dtype=np.float64)
        self.m = np.array(state.m, dtype=np.float64)
        self.v = np.array(state.v, dtype=np.float64)
        self.t = state.t
        self.grad = np.zeros_like(self.params)
        self._s1 = np.empty_like(self.params)
        self._finite = np.empty(self.params.shape, dtype=bool)

    def step(self, lr: float) -> None:
        g, m, v, s1 = self.grad, self.m, self.v, self._s1
        if not np.isfinite(g, out=self._finite).all():
            raise TrainingDivergenceError("non-finite gradient in Adam step")
        self.t += 1
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=s1)
        v *= BETA2
        np.multiply(g, 1.0 - BETA2, out=s1)
        s1 *= g
        v += s1
        np.divide(m, 1.0 - BETA1 ** self.t, out=s1)  # m_hat
        s1 *= lr
        np.divide(v, 1.0 - BETA2 ** self.t, out=g)  # v_hat; g is spent
        np.sqrt(g, out=g)
        g += EPS
        s1 /= g
        self.params -= s1

    def snapshot(self) -> tuple[np.ndarray, AdamState]:
        """Copies of the parameters and the state, which later steps leave alone."""
        return self.params.copy(), AdamState(m=self.m.copy(), v=self.v.copy(), t=self.t)


def _train_loop(samples: SampleBatch, spec, config: TrainConfig, loss,
                init_params: np.ndarray | None = None, init_state: AdamState | None = None,
                start_epoch: int = 0, epoch_callback=None) -> TrainReport:
    """The mini-batch loop every model trains with: forward, ``loss``,
    backward and Adam on one :class:`model.Bound` over the run's buffers.

    ``loss(heads, idx)`` gets the head outputs for rows ``idx`` and returns
    the LossBreakdown of batch means and the upstream gradient per head of
    the batch-mean loss. Parameters start from ``model.init(spec)`` or copies
    of ``init_params``, the Adam state from zero or a copy of ``init_state``.
    ``epoch_callback`` gets snapshots, not the buffers.
    """
    feats = samples.features
    n_samples = feats.shape[0]
    if n_samples == 0:
        raise InvalidInputError("training requires a non-empty sample list")
    params = modelmod.init(spec) if init_params is None else init_params
    adam = _InPlaceAdam(params, AdamState.initial(params.size) if init_state is None
                        else init_state)
    net = modelmod.Bound(spec, adam.params, adam.grad)
    history: list[EpochStats] = []
    for epoch in range(start_epoch, config.epochs):
        lr = lr_at(epoch, config)
        perm = _epoch_permutation(config.shuffle_seed, epoch, n_samples)
        sums = np.zeros(4)  # total, offset, absolute, ce weighted by batch size
        for bstart in range(0, n_samples, config.batch_size):
            idx = perm[bstart:bstart + config.batch_size]
            heads, cache = net.forward(feats[idx])
            breakdown, d_heads = loss(heads, idx)
            net.backward(cache, d_heads)
            try:
                if not np.isfinite(breakdown.total):
                    raise TrainingDivergenceError("loss became non-finite")
                adam.step(lr)
            except TrainingDivergenceError as err:
                raise TrainingDivergenceError(
                    str(err), epoch=epoch, batch=bstart // config.batch_size) from None
            sums += len(idx) * np.array([breakdown.total, breakdown.offset_term,
                                         breakdown.absolute_term, breakdown.ce_term])
        means = sums / n_samples
        stats = EpochStats(epoch=epoch, lr=lr, total=float(means[0]),
                           offset=float(means[1]), absolute=float(means[2]),
                           ce=float(means[3]))
        history.append(stats)
        if epoch_callback is not None:
            epoch_callback(stats, *adam.snapshot())
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
    feats = samples.features
    if feats.shape[1] != spec.input_dim:
        raise InvalidInputError(
            f"feature dim {feats.shape[1]} does not match spec input_dim {spec.input_dim}")
    if len(samples.anchor_map) != spec.num_anchors:
        raise InvalidInputError(
            f"anchor map has {len(samples.anchor_map)} anchors, spec expects {spec.num_anchors}")
    gt_z = samples.positions[:, 2]

    def batch_loss(heads, idx):
        breakdown, *d = lossmod.batch_total_loss_inplace(
            modelmod.prediction(spec, heads), samples.offsets_at(idx), gt_z[idx],
            samples.orientations[idx], samples.nearest[idx], config.weights)
        return breakdown, modelmod.head_grads(*d)

    return _train_loop(samples, spec, config, batch_loss, init_params, init_state,
                       start_epoch, epoch_callback)


def save_training_checkpoint(path, spec: NetworkSpec, params: np.ndarray,
                             state: AdamState, epoch: int,
                             meta: dict | None = None) -> None:
    """Checkpoint with optimizer state so training can resume bit-exactly."""
    full_meta = {"epoch": epoch, "adam_t": state.t}
    full_meta.update(meta or {})
    modelmod.save_checkpoint(path, spec, params,
                             extra_arrays={"adam_m": state.m, "adam_v": state.v},
                             meta=full_meta)


def load_training_checkpoint(path):
    """Returns (spec, params, AdamState, epoch, meta).

    Adam's moments must both be there, shaped like ``params`` and with an
    ``adam_t``, or both be absent; ``adam_t``, ``epoch`` and
    ``frame_interval``, where present, must be integers. Otherwise
    ParseError.
    """
    spec, params, arrays, meta = modelmod.load_checkpoint(path)
    for key in ("adam_t", "epoch", "frame_interval"):
        if key in meta and type(meta[key]) is not int:
            raise ParseError(f"{path}: meta {key!r} is not an integer: {meta[key]!r}")
    m, v = arrays.get("adam_m"), arrays.get("adam_v")
    if m is None and v is None:
        state = AdamState.initial(params.size)
    elif m is None or v is None or not m.shape == v.shape == params.shape or "adam_t" not in meta:
        raise ParseError(f"{path}: adam_m and adam_v must come together, shaped like "
                         "params and with adam_t")
    else:
        state = AdamState(m=m, v=v, t=meta["adam_t"])
    return spec, params, state, meta.get("epoch", 0), meta
