"""Deterministic synthetic localization world.

A camera travels a closed 2-D route; point landmarks sit in the world and
obstacle segments can block the line of sight. Each sample's feature vector
encodes, per landmark: a visibility bit, the bearing relative to the camera
heading, and an encoded inverse distance. Occluded or out-of-view landmarks
contribute exactly zeroed channels.

The default world is a stadium-shaped loop (two straight legs joined by
semicircular caps) with four landmarks placed exactly at anchor positions
(every 100th training frame) and two obstacle "trees" beside the legs. The
layout guarantees some landmark is almost always nearly dead ahead, and it
makes "the nearest anchor's landmark is behind you or blocked, but another
anchor's landmark is in clear view" a common, measurable situation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidSpecError, ParseError
from .geometry import Pose, yaw_quat

GRAZE_EPS = 1e-12

# independent RNG streams so changing one concern never reshuffles another
_STREAM_TRAIN = 11
_STREAM_TEST = 12
_STREAM_TRAIN_NOISE = 21
_STREAM_TEST_NOISE = 22
_STREAM_Z = 31

DEFAULT_FRAME_INTERVAL = 100
DEFAULT_N_TRAIN = 2000
DEFAULT_N_TEST = 500


@dataclass(frozen=True)
class WorldSpec:
    route: np.ndarray                       # (W, 2) ordered waypoints, meters
    landmarks: tuple[tuple[str, tuple[float, float]], ...]
    obstacles: tuple[tuple[tuple[float, float], tuple[float, float]], ...] = ()
    fov_half_angle: float = 60.0            # degrees
    z_base: float = 0.0
    z_noise_amp: float = 0.25               # amplitude of the seeded smooth z profile
    noise_sigma: float = 0.0                # feature noise std (visible channels only)
    lateral_jitter: float = 0.10            # uniform +- meters across the route
    heading_jitter_deg: float = 3.0         # uniform +- degrees around the tangent
    seed: int = 7

    def __post_init__(self):
        route = np.asarray(self.route, dtype=np.float64)
        if route.ndim != 2 or route.shape[1] != 2 or route.shape[0] < 2:
            raise InvalidSpecError("route must be an ordered (W, 2) list with W >= 2")
        if not np.isfinite(route).all():
            raise InvalidSpecError("route waypoints must be finite")
        for name in ("fov_half_angle", "z_base", "z_noise_amp", "noise_sigma",
                     "lateral_jitter", "heading_jitter_deg"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidSpecError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("lateral_jitter", "heading_jitter_deg"):  # drawn from [-v, v]
            if not 0.0 <= 2.0 * getattr(self, name) < math.inf:
                raise InvalidSpecError(f"{name} must be >= 0 and span a finite range, got "
                                       f"{getattr(self, name)}")
        if not 0.0 < self.fov_half_angle < 180.0:
            raise InvalidSpecError("fov_half_angle must be in (0, 180) degrees")
        lm = tuple((str(name), (float(p[0]), float(p[1]))) for name, p in self.landmarks)
        names = [name for name, _ in lm]
        if len(set(names)) != len(names):
            raise InvalidSpecError("landmark identifiers must be unique")
        obs = tuple(((float(a[0]), float(a[1])), (float(b[0]), float(b[1])))
                    for a, b in self.obstacles)
        for name, p in lm:
            if not all(map(math.isfinite, p)):
                raise InvalidSpecError(f"landmark {name!r} coordinates must be finite, got {p}")
        for j, (a, b) in enumerate(obs):
            if not all(map(math.isfinite, a + b)):
                raise InvalidSpecError(f"obstacle {j} coordinates must be finite, got {a + b}")
        route = route.copy()
        route.setflags(write=False)
        object.__setattr__(self, "route", route)
        object.__setattr__(self, "landmarks", lm)
        object.__setattr__(self, "obstacles", obs)

    @property
    def feature_dim(self) -> int:
        return 3 * len(self.landmarks)


@dataclass(frozen=True)
class Sample:
    """One synthetic record. ``visible_set`` is ground truth for assertions
    and analysis; it is never part of the feature vector beyond the bits."""

    feature: np.ndarray
    pose: Pose
    visible_set: frozenset[str]


# --- route parametrization ----------------------------------------------------

class _Route:
    def __init__(self, waypoints: np.ndarray):
        self.pts = np.asarray(waypoints, dtype=np.float64)
        seg = np.diff(self.pts, axis=0)
        self.seg_len = np.hypot(seg[:, 0], seg[:, 1])
        self.cum = np.concatenate([[0.0], np.cumsum(self.seg_len)])
        self.length = float(self.cum[-1])
        self.seg_dir = np.zeros_like(seg)
        nz = self.seg_len > 0
        self.seg_dir[nz] = seg[nz] / self.seg_len[nz, None]

    def locate(self, s: np.ndarray) -> tuple[np.ndarray, list[float]]:
        """(n, 2) positions and n tangent angles at arc lengths ``s``, each
        clamped to the route. A point on a zero-length segment takes the last
        non-zero segment before it (the first segment if there is none)."""
        # as Python's min(max(s, 0.0), length), which keeps s = -0.0
        s = np.where(s < 0.0, 0.0, s)
        s = np.where(s > self.length, self.length, s)
        nseg = len(self.seg_len)
        i = np.minimum(np.searchsorted(self.cum, s, side="right") - 1, nseg - 1)
        i = np.maximum.accumulate(np.where(self.seg_len > 0, np.arange(nseg), 0))[i]
        pos = self.pts[i] + (s - self.cum[i])[:, None] * self.seg_dir[i]
        angles = [math.atan2(dy, dx) for dx, dy in self.seg_dir.tolist()]
        return pos, [angles[j] for j in i.tolist()]


# --- visibility ----------------------------------------------------------------

def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_segment(a, b, c) -> bool:
    return (min(a[0], b[0]) - GRAZE_EPS <= c[0] <= max(a[0], b[0]) + GRAZE_EPS and
            min(a[1], b[1]) - GRAZE_EPS <= c[1] <= max(a[1], b[1]) + GRAZE_EPS)


def segments_intersect(p1, p2, q1, q2) -> bool:
    """Exact-orientation segment intersection; collinear grazing counts."""
    d1 = _cross(q1, q2, p1)
    d2 = _cross(q1, q2, p2)
    d3 = _cross(p1, p2, q1)
    d4 = _cross(p1, p2, q2)
    if ((d1 > GRAZE_EPS and d2 < -GRAZE_EPS) or (d1 < -GRAZE_EPS and d2 > GRAZE_EPS)) and \
       ((d3 > GRAZE_EPS and d4 < -GRAZE_EPS) or (d3 < -GRAZE_EPS and d4 > GRAZE_EPS)):
        return True
    if abs(d1) <= GRAZE_EPS and _on_segment(q1, q2, p1):
        return True
    if abs(d2) <= GRAZE_EPS and _on_segment(q1, q2, p2):
        return True
    if abs(d3) <= GRAZE_EPS and _on_segment(p1, p2, q1):
        return True
    if abs(d4) <= GRAZE_EPS and _on_segment(p1, p2, q2):
        return True
    return False


def _yaw_of(pose: Pose) -> float:
    w, x, y, z = pose.orientation.tolist()
    return math.atan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))


def _wrap_angle(a: float) -> float:
    return math.atan2(math.sin(a), math.cos(a))


def visibility(pose: Pose, landmark: tuple[float, float] | np.ndarray,
               spec: WorldSpec) -> tuple[bool, float, float]:
    """(visible, bearing_rad, distance_m) of a landmark from a camera pose.

    Visible means within the field of view AND the sight line touches no
    obstacle segment. Grazing contact is conservatively treated as occluded.
    """
    cam = pose.position[:2].tolist()
    lm = (float(landmark[0]), float(landmark[1]))
    dx, dy = lm[0] - cam[0], lm[1] - cam[1]
    distance = float(np.hypot(dx, dy))
    if distance < 1e-12:
        return True, 0.0, 0.0
    bearing = _wrap_angle(math.atan2(dy, dx) - _yaw_of(pose))
    if abs(bearing) > math.radians(spec.fov_half_angle):
        return False, bearing, distance
    for a, b in spec.obstacles:
        if segments_intersect(cam, lm, a, b):
            return False, bearing, distance
    return True, bearing, distance


# --- feature encoding -----------------------------------------------------------

# Range is compressed to (0, 1], so far landmarks at different distances look
# alike once feature noise is on; bearing stays in plain radians.

def encode_distance(d: float) -> float:
    return 1.0 / (1.0 + d)


def decode_distance(enc: float) -> float:
    return 1.0 / enc - 1.0


def sample_features(pose: Pose, spec: WorldSpec,
                    noise: np.ndarray | None = None) -> tuple[np.ndarray, frozenset[str]]:
    """Feature vector (3 channels per landmark) and the exact visible set."""
    feat = [0.0] * spec.feature_dim
    visible: set[str] = set()
    if noise is not None:
        noise = noise.tolist()
    for i, (name, lm) in enumerate(spec.landmarks):
        vis, bearing, dist = visibility(pose, lm, spec)
        if vis:
            visible.add(name)
            b, e = bearing, encode_distance(dist)
            if noise is not None:
                b += spec.noise_sigma * noise[i][0]
                e += spec.noise_sigma * noise[i][1]
            feat[3 * i:3 * i + 3] = 1.0, b, e
    return np.array(feat), frozenset(visible)


# --- sampling -------------------------------------------------------------------

def _z_profile(fracs: np.ndarray, spec: WorldSpec) -> np.ndarray:
    """Smooth, seeded, periodic height profile over route fraction in [0, 1)."""
    if spec.z_noise_amp == 0.0:
        return np.full_like(fracs, spec.z_base)
    rng = np.random.default_rng([spec.seed & 0xFFFFFFFFFFFFFFFF, _STREAM_Z])
    ph = rng.uniform(0.0, 1.0, size=2)
    wave = 0.6 * np.sin(2 * np.pi * (fracs + ph[0])) + \
        0.4 * np.sin(2 * np.pi * (2 * fracs + ph[1]))
    return spec.z_base + spec.z_noise_amp * wave


def _camera_path(spec: WorldSpec, n: int, stream: int, ordered: bool):
    """Lists of x, y, z and yaw of n jittered camera poses along the route;
    ordered=True mimics a video pass."""
    route = _Route(spec.route)
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

    base, tangent = route.locate(s)
    xs, ys = [], []
    for (bx, by), t, lat in zip(base.tolist(), tangent, lateral.tolist()):
        xs.append(bx + lat * -math.sin(t))
        ys.append(by + lat * math.cos(t))
    yaws = [t + h for t, h in zip(tangent, hjit.tolist())]
    return xs, ys, z.tolist(), yaws


def generate(spec: WorldSpec, n_train: int, n_test: int) -> tuple[list[Sample], list[Sample]]:
    """Deterministic train/test sample lists; splits use disjoint RNG streams."""
    if n_train < 0 or n_test < 0:
        raise InvalidInputError("sample counts must be >= 0")
    out = []
    for n, pose_stream, noise_stream, ordered in (
            (n_train, _STREAM_TRAIN, _STREAM_TRAIN_NOISE, True),
            (n_test, _STREAM_TEST, _STREAM_TEST_NOISE, False)):
        poses = [Pose(position=np.array([x, y, z]), orientation=yaw_quat(yaw))
                 for x, y, z, yaw in zip(*_camera_path(spec, n, pose_stream, ordered))]
        nrng = np.random.default_rng([spec.seed & 0xFFFFFFFFFFFFFFFF, noise_stream])
        noise = nrng.standard_normal((n, len(spec.landmarks), 2))
        samples = []
        for i, pose in enumerate(poses):
            feat, vis = sample_features(pose, spec, noise[i])
            samples.append(Sample(feature=feat, pose=pose, visible_set=vis))
        out.append(samples)
    return out[0], out[1]


# --- the default benchmark world -------------------------------------------------

def stadium_route() -> np.ndarray:
    """Closed loop: two straight legs joined by semicircular caps."""
    leg, radius, cap_points = 15.0, 1.0, 48
    pts = [(0.0, 0.0), (leg, 0.0)]
    for j in range(1, cap_points + 1):
        a = -math.pi / 2 + math.pi * j / cap_points
        pts.append((leg + radius * math.cos(a), radius + radius * math.sin(a)))
    pts.append((0.0, 2 * radius))
    for j in range(1, cap_points + 1):
        a = math.pi / 2 + math.pi * j / cap_points
        pts.append((radius * math.cos(a), radius + radius * math.sin(a)))
    return np.array(pts)

# frames whose positions become landmarks under the default interval of 100:
# the two cap midpoints and the two cap exits (anchors 9, 10, 19 and 0)
_DEFAULT_LANDMARK_FRAMES = (0, 900, 1000, 1900)

_DEFAULT_OBSTACLES = (
    ((9.0, 0.5), (9.0, 1.2)),   # median tree: hides the far top corner from leg 1
    ((6.0, 0.8), (6.0, 1.3)),   # median tree: hides the route start from leg 3
)


def default_world(seed: int = 7, noise_sigma: float = 0.02) -> WorldSpec:
    """The frozen benchmark world: landmarks co-located with anchor positions.

    Landmark placement is a two-pass construction: the camera path depends
    only on the route and seed, so the positions of the chosen anchor frames
    can be computed first and the landmarks pinned exactly there. Placement
    always uses the canonical training pass (DEFAULT_N_TRAIN frames), so the
    same world can be sampled at any count; exact anchor co-location holds
    for the benchmark configuration of 2000 frames at interval 100.
    """
    bare = WorldSpec(route=stadium_route(), landmarks=(), obstacles=_DEFAULT_OBSTACLES,
                     noise_sigma=noise_sigma, seed=seed)
    xs, ys, _, _ = _camera_path(bare, DEFAULT_N_TRAIN, _STREAM_TRAIN, ordered=True)
    landmarks = tuple((f"lm{frame // DEFAULT_FRAME_INTERVAL:02d}", (xs[frame], ys[frame]))
                      for frame in _DEFAULT_LANDMARK_FRAMES)
    return WorldSpec(route=stadium_route(), landmarks=landmarks,
                     obstacles=_DEFAULT_OBSTACLES, noise_sigma=noise_sigma, seed=seed)


# --- world spec file ------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_world_spec(path, spec: WorldSpec) -> None:
    """Plain-text world schema; floats carry 17 significant digits so a
    load/save cycle reproduces the world bit-exactly."""
    lines = ["[world]"]
    lines.append("seed = " + str(spec.seed))
    lines.append("fov_half_angle = " + _fmt(spec.fov_half_angle))
    lines.append("z_base = " + _fmt(spec.z_base))
    lines.append("z_noise_amp = " + _fmt(spec.z_noise_amp))
    lines.append("noise_sigma = " + _fmt(spec.noise_sigma))
    lines.append("lateral_jitter = " + _fmt(spec.lateral_jitter))
    lines.append("heading_jitter_deg = " + _fmt(spec.heading_jitter_deg))
    lines.append("route = " + "; ".join(f"{_fmt(p[0])},{_fmt(p[1])}" for p in spec.route))
    lines.append("landmarks = " + "; ".join(
        f"{name}:{_fmt(p[0])},{_fmt(p[1])}" for name, p in spec.landmarks))
    lines.append("obstacles = " + "; ".join(
        f"{_fmt(a[0])},{_fmt(a[1])},{_fmt(b[0])},{_fmt(b[1])}" for a, b in spec.obstacles))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_world_spec(path) -> WorldSpec:
    try:
        with open(path, "r") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not a text file: {err}") from None
    values: dict[str, str] = {}
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("["):
            continue
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    try:
        route = np.array([[float(c) for c in part.split(",")]
                          for part in values["route"].split(";")])
        landmarks = []
        if values.get("landmarks"):
            for part in values["landmarks"].split(";"):
                name, _, coords = part.strip().partition(":")
                x, y = (float(c) for c in coords.split(","))
                landmarks.append((name, (x, y)))
        obstacles = []
        if values.get("obstacles"):
            for part in values["obstacles"].split(";"):
                x1, y1, x2, y2 = (float(c) for c in part.split(","))
                obstacles.append(((x1, y1), (x2, y2)))
        return WorldSpec(
            route=route,
            landmarks=tuple(landmarks),
            obstacles=tuple(obstacles),
            fov_half_angle=float(values["fov_half_angle"]),
            z_base=float(values["z_base"]),
            z_noise_amp=float(values["z_noise_amp"]),
            noise_sigma=float(values["noise_sigma"]),
            lateral_jitter=float(values["lateral_jitter"]),
            heading_jitter_deg=float(values["heading_jitter_deg"]),
            seed=int(values["seed"]),
        )
    except (KeyError, ValueError) as err:
        raise InvalidSpecError(f"malformed world spec file {path}: {err}") from None
