"""Direct 6-DOF regression control: the same trunk, one 7-wide head
(x, y, z plus unnormalized quaternion), no anchors.

This is the comparison model used to show that the anchor mechanism, not the
trunk, is responsible for localization accuracy. It is a spec plus a loss
that reuses the anchor model's absolute term: ``model.Bound`` runs its
network pass and ``optim``'s loop trains it with the same Adam, schedule and
shuffling as the anchor model, so runs differ only in the head and loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as modelmod
from . import optim as optimmod
from .data import SampleBatch
from .evaluation import EvalReport, report_from_poses
from .loss import LossBreakdown, LossWeights, absolute_term, unit_orientation
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


backward_batch = modelmod.backward_batch


def direct_loss_batch(pose_out: np.ndarray, gt_xyz: np.ndarray, gt_orient: np.ndarray,
                      weights: LossWeights):
    """Mean direct-regression loss and the pose head's upstream gradient
    (each term's alpha times 1/B): the squared horizontal error, weighted like
    the anchor model's offset term, and its absolute term for z and
    orientation."""
    inv_b = 1.0 / len(pose_out)
    d_pose = np.empty_like(pose_out)  # every column is written below
    xy_resid = np.subtract(pose_out[:, :2], gt_xyz[:, :2], out=d_pose[:, :2])
    off_per = (xy_resid ** 2).sum(axis=1)
    abs_per, d_pose[:, 2], d_pose[:, 3:] = absolute_term(
        pose_out[:, 2], pose_out[:, 3:], gt_xyz[:, 2], gt_orient, weights.alpha3 * inv_b)
    xy_resid *= weights.alpha2 * 2.0 * inv_b
    return LossBreakdown.of(weights, off_per, abs_per), {"pose": d_pose}


def train_direct(samples: SampleBatch, spec: DirectSpec, config: TrainConfig) -> TrainReport:
    """Same loop, schedule and shuffles as optim.train, different head/loss."""
    def batch_loss(net, h, gt_xyz, gt_orient):
        return direct_loss_batch(net.head("pose", h), gt_xyz, gt_orient, config.weights)

    return optimmod.train_loop(samples, spec, config, batch_loss,
                               (samples.positions, samples.orientations))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite orientation raises
@modelmod.one_blas_thread()
def evaluate_direct(spec: DirectSpec, params: np.ndarray, batch: SampleBatch) -> EvalReport:
    """Metrics of the control on a test batch, as ``evaluation.evaluate`` gives
    the anchor model's, at one OpenBLAS thread as that runs."""
    pose = forward_batch(spec, params, batch.features)
    quats, _ = unit_orientation(pose[:, 3:])
    pred_anchor = np.full(len(batch), -1)
    return report_from_poses(pose[:, :3], quats, batch, pred_anchor)
