"""Confidence-weighted multi-task loss with analytic gradients.

Three components:

- offset term: sum over anchors of the squared (x, y) offset residual,
  weighted by the softmax confidence of that anchor. Gradient flows through
  both the offsets and the logits, which is what lets the classifier discover
  a relevant anchor without ever seeing an anchor label.
- absolute term: squared z residual plus squared distance between the ground
  truth quaternion and the normalized raw orientation output. Invariant to
  positive scaling of the raw orientation by construction.
- cross-entropy against the nearest-anchor label, an opt-in ablation that
  is on exactly when its weight alpha1 is > 0.

The total is an alpha-weighted sum. Each term is one batched kernel and
:func:`batch_total_loss` combines them; a single sample is a batch of one.
Every model's loss returns its terms' :meth:`LossBreakdown.of` and the per-head
gradient table ``model.Bound.backward`` takes. :func:`offset_term` and
:func:`batch_total_loss` work in the array their caller hands over; the rest
is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateOrientationError, InvalidInputError
from .model import ABS_HEAD_DIM, ABS_ORIENT, ABS_Z, BatchPrediction

ORIENT_NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class LossWeights:
    alpha1: float = 0.0   # cross-entropy weight; the term is on when > 0
    alpha2: float = 10.0  # confidence-weighted offset weight
    alpha3: float = 1.0   # absolute (z + orientation) weight

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "alpha3"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise InvalidInputError(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class LossBreakdown:
    offset_term: float
    absolute_term: float
    ce_term: float
    total: float

    @classmethod
    def of(cls, weights: LossWeights, off_per, abs_per, ce_per=None) -> LossBreakdown:
        """Batch means of the per-sample terms (B,) and of their weighted total
        (no ``ce_per`` is a 0). Each is ``np.add.reduce(per) / B``, the pairwise
        sum and division of ``ndarray.mean`` without its Python wrapper."""
        total_per = weights.alpha2 * off_per
        if ce_per is not None:
            total_per += weights.alpha1 * ce_per  # IEEE addition commutes
        total_per += weights.alpha3 * abs_per
        return cls(*(0.0 if per is None else float(np.add.reduce(per) / per.shape[0])
                     for per in (off_per, abs_per, ce_per, total_per)))


def _softmax(logits: np.ndarray):
    """Stable softmax over anchor logits -> (c, m, s): c is ``exp(logits - m)``
    over its sum s, m the max; m and s keep the last axis at length 1. The
    log-sum-exp is m + log(s)."""
    l = np.asarray(logits, dtype=np.float64)
    m = l.max(axis=-1, keepdims=True)
    e = l - m
    np.exp(e, out=e)
    s = e.sum(axis=-1, keepdims=True)
    e /= s
    return e, m, s


def confidences(logits: np.ndarray) -> np.ndarray:
    """Stable softmax over anchor logits."""
    return _softmax(logits)[0]


def unit_orientation(orient_raw: np.ndarray, gt_orient: np.ndarray | None = None,
                     scale: float = 1.0):
    """Unit quaternions ``u = P/||P||`` of raw orientation outputs P, one per
    row of a (B, 4) array.

    Given unit targets q of the same shape, also returns the gradient of
    ``scale * ||q - u||^2`` w.r.t. P through the normalization Jacobian,
    ``scale * 2(u(u.q) - q)/||P||`` (else None). A norm of at most
    ORIENT_NORM_FLOOR, or one that is not finite (an overflowed square, a nan),
    cannot be normalized and raises DegenerateOrientationError.
    """
    # np.linalg.norm without its dispatch, checked on plain floats (cheapest at B=1)
    norms = np.sqrt(np.add.reduce(orient_raw * orient_raw, axis=-1, keepdims=True))
    for row, norm in enumerate(norms.ravel().tolist()):
        if not ORIENT_NORM_FLOOR < norm < math.inf:
            raise DegenerateOrientationError(
                f"raw orientation norm {norm:g} in row {row} cannot be normalized")
    u = orient_raw / norms
    if gt_orient is None:
        return u, None
    udotq = (u * gt_orient).sum(axis=-1, keepdims=True)
    return u, scale * 2.0 * (u * udotq - gt_orient) / norms


# --- per-term batched kernels ---------------------------------------------------
# Each returns the per-sample term (B,) and its gradients multiplied by
# ``scale``: a batch mean's caller passes the term's alpha times 1/B.

def offset_term(c: np.ndarray, resid: np.ndarray, scale: float = 1.0):
    """Confidence-weighted squared offset residuals -> (per, d_logits, d_offsets).

    ``c`` is the softmax of the logits (B, N). The residual ``gt_offsets -
    offsets`` (B, N, 2) is overwritten with d_offsets, ``(resid c) (-2 scale)``
    in that order, with ``c`` applied one coordinate at a time (twice as fast
    as a broadcast over the length-2 axis)."""
    x, y = resid[:, :, 0], resid[:, :, 1]
    r = np.square(x)
    rc = np.square(y)
    r += rc
    np.multiply(r, c, out=rc)
    per = rc.sum(axis=1)
    r -= per[:, None]
    r *= c
    r *= scale
    x *= c
    y *= c
    resid *= -2.0 * scale
    return per, r, resid


def absolute_term(z_hat: np.ndarray, orient_raw: np.ndarray, gt_z: np.ndarray,
                  gt_orient: np.ndarray, scale: float = 1.0):
    """Squared z residual plus squared distance to the normalized orientation
    -> (per, d_z, d_orient)."""
    u, d_orient = unit_orientation(orient_raw, gt_orient, scale)
    dz_resid = z_hat - gt_z
    per = dz_resid ** 2 + ((gt_orient - u) ** 2).sum(axis=1)
    return per, scale * 2.0 * dz_resid, d_orient


def cross_entropy_term(logits: np.ndarray, softmax, nearest: np.ndarray,
                       scale: float = 1.0):
    """-log softmax(logits)[nearest] in log space -> (per, d_logits);
    ``softmax`` is ``_softmax(logits)``, whose sum gives the log-sum-exp."""
    c, m, s = softmax
    rows = np.arange(logits.shape[0])
    g = c.copy()
    g[rows, nearest] -= 1.0
    return (m + np.log(s))[:, 0] - logits[rows, nearest], scale * g


def batch_total_loss(pred: BatchPrediction, gt_offsets: np.ndarray, gt_z: np.ndarray,
                     gt_orient: np.ndarray, nearest: np.ndarray, weights: LossWeights):
    """Mean loss over a batch plus upstream gradients for backward_batch,
    computed in ``gt_offsets``: on return it holds the offsets head's. Each
    term's kernel scales its gradients by its alpha times 1/B, so the
    parameter gradient is the mean of per-sample gradients.

    Returns (LossBreakdown of means, {head: (B, width)} for every head).
    """
    if gt_offsets.shape != (*pred.logits.shape, 2):
        raise InvalidInputError(f"ground-truth offsets {gt_offsets.shape} do not match the "
                                f"predictions' (batch, anchors, 2) = {(*pred.logits.shape, 2)}")
    B = pred.logits.shape[0]
    inv_b = 1.0 / B
    softmax = _softmax(pred.logits)
    off_per, d_logits, d_offsets = offset_term(
        softmax[0], np.subtract(gt_offsets, pred.offsets, out=gt_offsets),
        weights.alpha2 * inv_b)
    d_abs = np.empty((B, ABS_HEAD_DIM))
    abs_per, d_abs[:, ABS_Z], d_abs[:, ABS_ORIENT] = absolute_term(
        pred.z_hat, pred.orient_raw, gt_z, gt_orient, weights.alpha3 * inv_b)
    ce_per = None
    if weights.alpha1 > 0:
        ce_per, d_logits_ce = cross_entropy_term(pred.logits, softmax, nearest,
                                                 weights.alpha1 * inv_b)
        d_logits += d_logits_ce
    return (LossBreakdown.of(weights, off_per, abs_per, ce_per),
            {"logits": d_logits, "offsets": d_offsets.reshape(B, -1), "absolute": d_abs})
