"""Direct 6-DOF regression control: the same trunk, one 7-wide head
(x, y, z plus unnormalized quaternion), no anchors.

This is the comparison model used to show that the anchor mechanism, not the
trunk, is responsible for localization accuracy. It is a spec plus a loss:
``model.Bound`` runs its network pass and ``optim``'s loop trains it with the
same Adam, schedule and shuffling as the anchor model, so runs differ only in
the head and loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as modelmod
from . import optim as optimmod
from .data import SampleBatch
from .evaluation import EvalReport, report_from_poses
from .loss import LossBreakdown, LossWeights, absolute_term, batch_mean, unit_orientation
from .optim import TrainConfig, TrainReport


@dataclass(frozen=True)
class DirectSpec(modelmod.Trunk):
    """The anchor model's trunk with one 7-wide pose head instead of the
    three anchor heads; ``model`` lays out, initializes and runs both."""

    def head_dims(self) -> dict[str, int]:
        return {"pose": 7}  # x, y, z, quaternion


def forward_batch(spec: DirectSpec, params: np.ndarray, features: np.ndarray) -> np.ndarray:
    bound = modelmod.Bound(spec, params)
    return bound.head("pose", bound.forward(features)[-1])


def backward_batch(spec: DirectSpec, params: np.ndarray, cache, d_pose: np.ndarray) -> np.ndarray:
    return modelmod.Bound(spec, params, np.zeros(modelmod.param_count(spec))).backward(
        cache, {"pose": d_pose})


def direct_loss_batch(pose_out: np.ndarray, gt_xyz: np.ndarray, gt_orient: np.ndarray,
                      weights: LossWeights):
    """Mean direct-regression loss and the upstream gradient (already /B).

    Horizontal squared error is weighted like the offset term and the
    z/orientation part is the anchor model's absolute term, so the control
    shares the anchor model's loss weighting.
    """
    xy_resid = pose_out[:, :2] - gt_xyz[:, :2]
    off_per = (xy_resid ** 2).sum(axis=1)
    abs_per, d_z, d_orient = absolute_term(pose_out[:, 2], pose_out[:, 3:], gt_xyz[:, 2],
                                           gt_orient, weights.alpha3)
    total_per = weights.alpha2 * off_per + weights.alpha3 * abs_per

    inv_b = 1.0 / pose_out.shape[0]
    d_pose = np.empty_like(pose_out)  # every column is written below
    d_pose[:, :2] = weights.alpha2 * 2.0 * xy_resid * inv_b
    d_pose[:, 2] = d_z * inv_b
    d_pose[:, 3:] = d_orient * inv_b

    breakdown = LossBreakdown(offset_term=batch_mean(off_per),
                              absolute_term=batch_mean(abs_per),
                              ce_term=0.0, total=batch_mean(total_per))
    return breakdown, d_pose


def train_direct(samples: SampleBatch, spec: DirectSpec, config: TrainConfig) -> TrainReport:
    """Same loop, schedule and shuffles as optim.train, different head/loss."""
    def batch_loss(net, h, gt_xyz, gt_orient):
        breakdown, d_pose = direct_loss_batch(net.head("pose", h), gt_xyz, gt_orient,
                                              config.weights)
        return breakdown, {"pose": d_pose}

    return optimmod.train_loop(samples, spec, config, batch_loss,
                               (samples.positions, samples.orientations))


def evaluate_direct(spec: DirectSpec, params: np.ndarray, batch: SampleBatch) -> EvalReport:
    pose = forward_batch(spec, params, batch.features)
    quats, _ = unit_orientation(pose[:, 3:])
    pred_anchor = np.full(len(batch), -1)
    return report_from_poses(pose[:, :3], quats, batch, pred_anchor)
