"""Pose reconstruction from the three heads and the localization metrics:
median/mean translation error, median rotation error, threshold accuracy,
the anchor-interval sweep, and the anchor-discovery stats.

Argmax reconstruction reads the offsets of each row's argmax anchor only, so
``evaluate``, ``discovery_stats`` and a served query never build the (B, N, 2)
offsets table of a :func:`model.forward_batch` prediction; weighted mode
reads the whole table.

The accuracy criterion counts a prediction correct exactly when the
translation error is below 2 m AND the rotation error is below 5 degrees.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from . import model as modelmod
from . import optim as optimmod
from .data import SampleBatch, assemble
from .errors import InvalidInputError, NonFinitePoseError
from .files import write_atomically, write_csv
from .geometry import ANCHOR_DEDUP_TOL, AnchorMap, Pose, quat_angle_deg
from .loss import confidences, unit_orientation
from .model import BatchPrediction, NetworkSpec

ACCURACY_TRANSLATION_M = 2.0
ACCURACY_ROTATION_DEG = 5.0


@dataclass
class EvalReport:
    median_translation_m: float
    mean_translation_m: float
    median_rotation_deg: float
    accuracy_2m_5deg: float
    per_sample: list[tuple[float, float, int, int]]  # (terr, rerr, argmax anchor, nearest anchor)

    def to_dict(self) -> dict:
        """Every field, with ``num_samples`` in place of ``per_sample``."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["num_samples"] = len(out.pop("per_sample"))
        return out


def reconstruct(pred: BatchPrediction, anchor_map: AnchorMap, mode: str = "argmax"):
    """Poses from network outputs -> (positions (B, 3), unit quaternions, argmax
    anchors). (x, y) is the argmax anchor plus its offset (ties take the lowest
    index; only that anchor's offsets are read), or in weighted mode the
    confidence-weighted mean of the two."""
    B, N = pred.logits.shape
    if N != len(anchor_map):
        raise InvalidInputError("prediction/anchor-map size mismatch")
    quats, _ = unit_orientation(pred.orient_raw)
    j = pred.logits.argmax(axis=1)
    pos = np.empty((B, 3))
    pos[:, 2] = pred.z_hat
    if mode == "argmax":
        np.add(anchor_map.anchors.take(j, axis=0), pred.anchor_offsets(j), out=pos[:, :2])
    elif mode == "weighted":
        c = confidences(pred.logits)
        pos[:, :2] = (c[:, :, None] * (anchor_map.anchors[None] + pred.offsets)).sum(axis=1)
    else:
        raise InvalidInputError(f"unknown reconstruction mode {mode!r}")
    return pos, quats, j


def reconstruct_pose(pred: BatchPrediction, anchor_map: AnchorMap) -> Pose:
    """The Pose of a batch-of-one prediction, by argmax :func:`reconstruct`,
    built from the views of row 0; any other batch size is InvalidInputError."""
    if pred.logits.shape[0] != 1:
        raise InvalidInputError(
            f"reconstruct_pose takes a batch of one, got {pred.logits.shape[0]} rows")
    pos, quats, _ = reconstruct(pred, anchor_map)
    return Pose(position=pos[0], orientation=quats[0])


@np.errstate(over="ignore", invalid="ignore")  # a non-finite error raises below
def report_from_poses(pred_xyz: np.ndarray, pred_quats: np.ndarray,
                      batch: SampleBatch, pred_anchor: np.ndarray) -> EvalReport:
    """Metrics from already-reconstructed poses (shared with the baseline); a
    translation error that is not finite is NonFinitePoseError."""
    if len(batch) == 0:
        raise InvalidInputError("cannot evaluate an empty test set")
    terr = np.linalg.norm(pred_xyz - batch.positions, axis=1)
    bad = np.flatnonzero(~np.isfinite(terr))
    if bad.size:
        i = bad[0]
        raise NonFinitePoseError(f"translation error of test row {i} is {terr[i]} "
                                 f"(reconstructed position {pred_xyz[i].tolist()})")
    rerr = np.array([quat_angle_deg(q, g) for q, g in zip(pred_quats, batch.orientations)])
    correct = (terr < ACCURACY_TRANSLATION_M) & (rerr < ACCURACY_ROTATION_DEG)
    per_sample = [(float(t), float(r), int(a), int(n))
                  for t, r, a, n in zip(terr, rerr, pred_anchor, batch.nearest)]
    return EvalReport(
        median_translation_m=statistics.median(terr.tolist()),
        mean_translation_m=float(terr.mean()),
        median_rotation_deg=statistics.median(rerr.tolist()),
        accuracy_2m_5deg=float(correct.mean()),
        per_sample=per_sample,
    )


@np.errstate(over="ignore", invalid="ignore")  # a non-finite orientation raises
@modelmod.one_blas_thread()
def evaluate(spec: NetworkSpec, params: np.ndarray, batch: SampleBatch,
             anchor_map: AnchorMap, mode: str = "argmax") -> EvalReport:
    """Per-sample errors and metrics on a test batch; weighted mode averages
    by confidence. Runs at one OpenBLAS thread, as training does."""
    pred = modelmod.forward_batch(spec, params, batch.features)
    pos, quats, j = reconstruct(pred, anchor_map, mode)
    return report_from_poses(pos, quats, batch, j)


# --- anchor discovery -----------------------------------------------------------

def co_located_anchors(anchor_map: AnchorMap, landmarks) -> dict[int, str]:
    """anchor index -> landmark id for landmarks at an anchor's "same point"."""
    out = {}
    for name, p in landmarks:
        d = np.linalg.norm(anchor_map.anchors - np.asarray(p, dtype=np.float64), axis=1)
        j = int(d.argmin())
        if d[j] <= ANCHOR_DEDUP_TOL:
            out[j] = name
    return out


def discovery_stats(spec: NetworkSpec, params: np.ndarray, batch: SampleBatch,
                    anchor_map: AnchorMap, landmarks) -> tuple[int, int]:
    """(successes, qualifying) for the anchor-discovery experiment.

    Qualifying samples are those whose nearest anchor carries a co-located
    landmark that is NOT in the sample's visible set. A success is an
    argmax-confidence anchor whose own co-located landmark IS visible.
    """
    if batch.visible_sets is None:
        raise InvalidInputError("discovery requires samples with visibility ground truth")
    anchor_lm = co_located_anchors(anchor_map, landmarks)
    pred = modelmod.forward_batch(spec, params, batch.features)
    j = pred.logits.argmax(axis=1)
    qualifying = successes = 0
    for i in range(len(batch)):
        ni = int(batch.nearest[i])
        if ni not in anchor_lm:
            continue
        if anchor_lm[ni] in batch.visible_sets[i]:
            continue
        qualifying += 1
        picked = int(j[i])
        if picked in anchor_lm and anchor_lm[picked] in batch.visible_sets[i]:
            successes += 1
    return successes, qualifying


# --- anchor interval sweep --------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    k: int
    num_anchors: int
    median_m: float
    median_deg: float
    accuracy: float


def sweep_anchor_interval(train_poses, train_features, test_poses, test_features,
                          k_values, spec_template: NetworkSpec,
                          config: optimmod.TrainConfig) -> list[SweepRow]:
    """Train one model per frame interval with identical seeds and config.

    The network spec template is reused with num_anchors replaced by each
    interval's anchor count, so every run differs only in its anchor map.
    """
    if not k_values:
        raise InvalidInputError("need at least one k value")
    rows = []
    for k in k_values:
        scene = assemble(train_poses, train_features, int(k), test_poses, test_features)
        spec = replace(spec_template, num_anchors=scene.num_anchors)
        report = optimmod.train(scene.train, spec, config)
        ev = evaluate(spec, report.params, scene.test, scene.anchor_map)
        rows.append(SweepRow(k=int(k), num_anchors=scene.num_anchors,
                             median_m=ev.median_translation_m,
                             median_deg=ev.median_rotation_deg,
                             accuracy=ev.accuracy_2m_5deg))
    return rows


# --- report / artifact writers -----------------------------------------------------

def write_eval_report(out_dir, report: EvalReport) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_atomically(os.path.join(out_dir, "eval_report.json"),
                     json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    write_csv(os.path.join(out_dir, "eval_per_sample.csv"),
              ("index", "translation_m", "rotation_deg", "pred_anchor", "nearest_anchor"),
              ((i, *row) for i, row in enumerate(report.per_sample)))


def write_sweep_csv(path, rows: list[SweepRow]) -> None:
    write_csv(path, ("k", "N", "median_m", "median_deg", "accuracy"), map(astuple, rows))


def _svg_polyline(points, color):
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return (f'<polyline fill="none" stroke="{color}" stroke-width="2" '
            f'points="{pts}" />')


def write_sweep_svg(path, rows: list[SweepRow]) -> None:
    """Two-panel vector plot of median error and accuracy against k."""
    w, h, pad = 360, 220, 40
    panels = []
    for pi, (label, values) in enumerate([
            ("median translation (m)", [r.median_m for r in rows]),
            ("accuracy <2m,<5deg", [r.accuracy for r in rows])]):
        x0 = pi * w
        ks = [r.k for r in rows]
        vmax = max(values) or 1.0
        vmin = min(values)
        span = (vmax - vmin) or 1.0
        kspan = (max(ks) - min(ks)) or 1
        pts = [(x0 + pad + (k - min(ks)) / kspan * (w - 2 * pad),
                h - pad - (v - vmin) / span * (h - 2 * pad))
               for k, v in zip(ks, values)]
        panels.append(f'<text x="{x0 + pad}" y="20" font-size="12">{label}</text>')
        panels.append(_svg_polyline(pts, "#1f77b4"))
        for (px, py), k, v in zip(pts, ks, values):
            panels.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="#d62728" />')
            panels.append(f'<text x="{px:.2f}" y="{h - pad + 16}" font-size="10" '
                          f'text-anchor="middle">k={k}</text>')
            panels.append(f'<text x="{px:.2f}" y="{py - 8:.2f}" font-size="9" '
                          f'text-anchor="middle">{v:.3g}</text>')
    body = "\n".join(panels)
    svg = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{2 * w}" height="{h}">\n'
           f'<rect width="{2 * w}" height="{h}" fill="white" />\n{body}\n</svg>\n')
    write_atomically(path, svg)
