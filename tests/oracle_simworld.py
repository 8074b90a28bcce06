"""Oracle: world generation as it ran on numpy scalars, one sample at a time.

These are copies of ``simworld._Route``, ``segments_intersect``, ``_yaw_of``,
``visibility``, ``sample_features``, ``_route_poses`` and ``generate`` from
before generation moved to Python floats. ``simworld`` must reproduce them
bit for bit; ``tests/test_simworld.py`` checks that under Hypothesis.
"""

import math

import numpy as np

from anchorloc.errors import InvalidInputError, InvalidSpecError
from anchorloc.geometry import Pose, yaw_quat
from anchorloc.simworld import (GRAZE_EPS, Sample, WorldSpec, _STREAM_TEST,
                                _STREAM_TEST_NOISE, _STREAM_TRAIN, _STREAM_TRAIN_NOISE,
                                _wrap_angle, _z_profile, encode_distance)


class Route:
    def __init__(self, waypoints: np.ndarray):
        self.pts = np.asarray(waypoints, dtype=np.float64)
        seg = np.diff(self.pts, axis=0)
        self.seg_len = np.hypot(seg[:, 0], seg[:, 1])
        self.cum = np.concatenate([[0.0], np.cumsum(self.seg_len)])
        self.length = float(self.cum[-1])
        self.seg_dir = np.zeros_like(seg)
        nz = self.seg_len > 0
        self.seg_dir[nz] = seg[nz] / self.seg_len[nz, None]

    def locate(self, s: float) -> tuple[np.ndarray, float]:
        """Position and tangent angle at arc length ``s`` (clamped to the end)."""
        s = min(max(s, 0.0), self.length)
        i = int(np.searchsorted(self.cum, s, side="right") - 1)
        i = min(i, len(self.seg_len) - 1)
        while self.seg_len[i] == 0 and i > 0:
            i -= 1
        pos = self.pts[i] + (s - self.cum[i]) * self.seg_dir[i]
        angle = math.atan2(self.seg_dir[i][1], self.seg_dir[i][0])
        return pos, angle


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def segments_intersect(p1, p2, q1, q2) -> bool:
    """Exact-orientation segment intersection; collinear grazing counts."""
    d1 = _cross(q1, q2, p1)
    d2 = _cross(q1, q2, p2)
    d3 = _cross(p1, p2, q1)
    d4 = _cross(p1, p2, q2)
    if ((d1 > GRAZE_EPS and d2 < -GRAZE_EPS) or (d1 < -GRAZE_EPS and d2 > GRAZE_EPS)) and \
       ((d3 > GRAZE_EPS and d4 < -GRAZE_EPS) or (d3 < -GRAZE_EPS and d4 > GRAZE_EPS)):
        return True

    def on_segment(a, b, c):
        return (min(a[0], b[0]) - GRAZE_EPS <= c[0] <= max(a[0], b[0]) + GRAZE_EPS and
                min(a[1], b[1]) - GRAZE_EPS <= c[1] <= max(a[1], b[1]) + GRAZE_EPS)

    if abs(d1) <= GRAZE_EPS and on_segment(q1, q2, p1):
        return True
    if abs(d2) <= GRAZE_EPS and on_segment(q1, q2, p2):
        return True
    if abs(d3) <= GRAZE_EPS and on_segment(p1, p2, q1):
        return True
    if abs(d4) <= GRAZE_EPS and on_segment(p1, p2, q2):
        return True
    return False


def _yaw_of(pose: Pose) -> float:
    w, x, y, z = pose.orientation
    return math.atan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))


def visibility(pose: Pose, landmark: tuple[float, float] | np.ndarray,
               spec: WorldSpec) -> tuple[bool, float, float]:
    """(visible, bearing_rad, distance_m) of a landmark from a camera pose.

    Visible means within the field of view AND the sight line touches no
    obstacle segment. Grazing contact is conservatively treated as occluded.
    """
    cam = pose.xy
    lm = np.asarray(landmark, dtype=np.float64)
    delta = lm - cam
    distance = float(np.hypot(delta[0], delta[1]))
    if distance < 1e-12:
        return True, 0.0, 0.0
    bearing = _wrap_angle(math.atan2(delta[1], delta[0]) - _yaw_of(pose))
    if abs(bearing) > math.radians(spec.fov_half_angle):
        return False, bearing, distance
    for a, b in spec.obstacles:
        if segments_intersect(cam, lm, np.asarray(a), np.asarray(b)):
            return False, bearing, distance
    return True, bearing, distance


def sample_features(pose: Pose, spec: WorldSpec,
                    noise: np.ndarray | None = None) -> tuple[np.ndarray, frozenset[str]]:
    """Feature vector (3 channels per landmark) and the exact visible set."""
    feat = np.zeros(spec.feature_dim)
    visible: set[str] = set()
    for i, (name, lm) in enumerate(spec.landmarks):
        vis, bearing, dist = visibility(pose, lm, spec)
        if vis:
            visible.add(name)
            b, e = bearing, encode_distance(dist)
            if noise is not None:
                b += spec.noise_sigma * noise[i, 0]
                e += spec.noise_sigma * noise[i, 1]
            feat[3 * i] = 1.0
            feat[3 * i + 1] = b
            feat[3 * i + 2] = e
    return feat, frozenset(visible)


def route_poses(spec: WorldSpec, n: int, stream: int, ordered: bool) -> list[Pose]:
    """Jittered camera poses along the route; ordered=True mimics a video pass."""
    route = Route(spec.route)
    if route.length <= 0.0:
        raise InvalidSpecError("route has zero length")
    rng = np.random.default_rng([spec.seed & 0xFFFFFFFFFFFFFFFF, stream])
    if ordered:
        s = (np.arange(n) + rng.uniform(0.0, 1.0, size=n)) / max(n, 1) * route.length
    else:
        s = rng.uniform(0.0, route.length, size=n)
    lateral = rng.uniform(-spec.lateral_jitter, spec.lateral_jitter, size=n)
    hjit = np.radians(rng.uniform(-spec.heading_jitter_deg, spec.heading_jitter_deg, size=n))
    z = _z_profile(s / route.length, spec)

    poses = []
    for i in range(n):
        base, tangent = route.locate(float(s[i]))
        normal = np.array([-math.sin(tangent), math.cos(tangent)])
        xy = base + lateral[i] * normal
        yaw = tangent + float(hjit[i])
        poses.append(Pose(position=np.array([xy[0], xy[1], z[i]]),
                          orientation=yaw_quat(yaw)))
    return poses


def generate(spec: WorldSpec, n_train: int, n_test: int) -> tuple[list[Sample], list[Sample]]:
    """Deterministic train/test sample lists; splits use disjoint RNG streams."""
    if n_train < 0 or n_test < 0:
        raise InvalidInputError("sample counts must be >= 0")
    out = []
    for n, pose_stream, noise_stream, ordered in (
            (n_train, _STREAM_TRAIN, _STREAM_TRAIN_NOISE, True),
            (n_test, _STREAM_TEST, _STREAM_TEST_NOISE, False)):
        poses = route_poses(spec, n, pose_stream, ordered)
        nrng = np.random.default_rng([spec.seed & 0xFFFFFFFFFFFFFFFF, noise_stream])
        noise = nrng.standard_normal((n, len(spec.landmarks), 2))
        samples = []
        for i, pose in enumerate(poses):
            feat, vis = sample_features(pose, spec, noise[i])
            samples.append(Sample(feature=feat, pose=pose, visible_set=vis))
        out.append(samples)
    return out[0], out[1]
