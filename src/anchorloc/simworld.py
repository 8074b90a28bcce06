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

:func:`generate` computes each split's frames together, as the columns of a
:class:`Frames` (positions, orientations, features and visible masks), in
the operation order of the scalar formulas: elementwise array arithmetic
rounds as the scalar does, the transcendentals run per element through
``math`` (libm), never numpy's SIMD loops, whose last bit can depend on the
CPU, and distances come from elementwise ``np.hypot``, which equals scalar
``np.hypot``. :func:`sample_features`, :func:`visibility` and
:func:`segments_intersect` are single-frame calls into the same kernels.

A world spec is saved as ``world.ini`` text through ``files.write_ini`` and
read by ``files.read_ini`` like the CLI's config files. Its float fields are
listed once, in file order, in ``_FLOAT_FIELDS``: the spec's checks, writer
and reader walk it. A landmark name holds no ``;``, ``:``, line break or lone
surrogate and does not start with whitespace, so it reads back as itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import InvalidInputError, InvalidSpecError, as_seed
from .files import encodable, fmt, read_ini, write_ini
from .geometry import Pose

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
DEFAULT_SEED = 7
DEFAULT_NOISE_SIGMA = 0.02

_FLOAT_FIELDS = ("fov_half_angle", "z_base", "z_noise_amp", "noise_sigma", "lateral_jitter",
                "heading_jitter_deg")


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
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        route = np.asarray(self.route, dtype=np.float64)
        if route.ndim != 2 or route.shape[1] != 2 or route.shape[0] < 2:
            raise InvalidSpecError("route must be an ordered (W, 2) list with W >= 2")
        if not np.isfinite(route).all():
            raise InvalidSpecError("route waypoints must be finite")
        for name in _FLOAT_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise InvalidSpecError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("lateral_jitter", "heading_jitter_deg"):  # drawn from [-v, v]
            if not 0.0 <= 2.0 * getattr(self, name) < math.inf:
                raise InvalidSpecError(f"{name} must be >= 0 and span a finite range, got "
                                       f"{getattr(self, name)}")
        for name in ("noise_sigma", "z_noise_amp"):  # -v would be v with its sign flipped
            if getattr(self, name) < 0.0:
                raise InvalidSpecError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 < self.fov_half_angle < 180.0:
            raise InvalidSpecError("fov_half_angle must be in (0, 180) degrees")
        object.__setattr__(self, "seed", as_seed("seed", self.seed))
        lm = tuple((str(name), (float(p[0]), float(p[1]))) for name, p in self.landmarks)
        names = [name for name, _ in lm]
        if len(set(names)) != len(names):
            raise InvalidSpecError("landmark identifiers must be unique")
        obs = tuple(((float(a[0]), float(a[1])), (float(b[0]), float(b[1])))
                    for a, b in self.obstacles)
        for name, p in lm:
            if name[:1].isspace() or any(c in name for c in ";:\n\r") or not encodable(name):
                raise InvalidSpecError(f"landmark name {name!r} starts with whitespace or holds "
                                       "';', ':', a line break or a lone surrogate, which "
                                       "world.ini cannot read back")
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


@dataclass(frozen=True, eq=False)
class Frames:
    """One split of generated frames as read-only columns. Indexing gives a
    :class:`Sample` (its pose is built then) and slicing gives ``Frames``, so
    a split reads like a list of samples, while ``data`` reads the columns."""

    positions: np.ndarray      # (n, 3)
    orientations: np.ndarray   # (n, 4) unit quaternions (w, x, y, z)
    features: np.ndarray       # (n, 3L)
    visible: np.ndarray        # (n, L) bool: which landmarks each frame sees
    names: tuple[str, ...]     # the L landmark names

    def __len__(self) -> int:
        return self.features.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Frames(self.positions[i], self.orientations[i], self.features[i],
                          self.visible[i], self.names)
        return Sample(feature=self.features[i],
                      pose=Pose(position=self.positions[i], orientation=self.orientations[i]),
                      visible_set=frozenset(compress(self.names, self.visible[i])))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    @property
    def visible_sets(self) -> list[frozenset[str]]:
        return [frozenset(compress(self.names, row)) for row in self.visible.tolist()]


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

    def locate(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
        angles = np.array([math.atan2(dy, dx) for dx, dy in self.seg_dir.tolist()])
        return pos, angles[i]


# --- visibility ----------------------------------------------------------------

def _each(fn, *arrays) -> np.ndarray:
    """``fn`` of Python floats applied per element of same-shaped arrays."""
    return np.array(list(map(fn, *(a.ravel().tolist() for a in arrays))),
                    dtype=np.float64).reshape(arrays[0].shape)


def _crosses(p1, p2, q1, q2) -> np.ndarray:
    """Whether segment p1-p2 touches segment q1-q2, elementwise over points
    given as (x, y) pairs of broadcasting arrays or floats: exact orientation
    tests, where collinear grazing counts."""
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def within(a, b, c):  # c in the box of a and b, widened by GRAZE_EPS
        return ((np.minimum(a[0], b[0]) - GRAZE_EPS <= c[0])
                & (c[0] <= np.maximum(a[0], b[0]) + GRAZE_EPS)
                & (np.minimum(a[1], b[1]) - GRAZE_EPS <= c[1])
                & (c[1] <= np.maximum(a[1], b[1]) + GRAZE_EPS))

    def straddle(u, v):
        return ((u > GRAZE_EPS) & (v < -GRAZE_EPS)) | ((u < -GRAZE_EPS) & (v > GRAZE_EPS))

    d1, d2 = cross(q1, q2, p1), cross(q1, q2, p2)
    d3, d4 = cross(p1, p2, q1), cross(p1, p2, q2)
    hit = straddle(d1, d2) & straddle(d3, d4)
    for d, a, b, c in ((d1, q1, q2, p1), (d2, q1, q2, p2), (d3, p1, p2, q1), (d4, p1, p2, q2)):
        hit = hit | ((np.abs(d) <= GRAZE_EPS) & within(a, b, c))
    return hit


def segments_intersect(p1, p2, q1, q2) -> bool:
    """Exact-orientation segment intersection; collinear grazing counts."""
    return bool(_crosses(*((float(p[0]), float(p[1])) for p in (p1, p2, q1, q2))))


def _headings(orientations: np.ndarray) -> np.ndarray:
    """The yaw of each (w, x, y, z) row of ``orientations`` (n, 4)."""
    w, x, y, z = orientations.T
    return _each(math.atan2, 2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))


def _wrap_angle(a: float) -> float:
    return math.atan2(math.sin(a), math.cos(a))


def _sight(cams: np.ndarray, yaws: np.ndarray, points: np.ndarray, spec: WorldSpec):
    """(visible, bearing_rad, distance_m), each (n, L), of the points (L, 2)
    from cameras at the (x, y) ``cams`` (n, 2) heading ``yaws`` (n,).

    Visible means within the field of view AND the sight line touches no
    obstacle segment; a point at the camera is visible at bearing and
    distance 0.
    """
    cam = (cams[:, 0, None], cams[:, 1, None])
    point = (points[:, 0], points[:, 1])
    with np.errstate(over="ignore", invalid="ignore"):  # Python floats overflow silently
        dx, dy = point[0] - cam[0], point[1] - cam[1]
        distance = np.hypot(dx, dy)
        bearing = _each(_wrap_angle, _each(math.atan2, dy, dx) - yaws[:, None])
        hidden = np.abs(bearing) > math.radians(spec.fov_half_angle)
        for a, b in spec.obstacles:
            hidden |= _crosses(cam, point, a, b)
    at_camera = distance < 1e-12
    bearing[at_camera] = 0.0
    distance[at_camera] = 0.0
    return at_camera | ~hidden, bearing, distance


def visibility(pose: Pose, landmark: tuple[float, float] | np.ndarray,
               spec: WorldSpec) -> tuple[bool, float, float]:
    """(visible, bearing_rad, distance_m) of a landmark from a camera pose.

    Visible means within the field of view AND the sight line touches no
    obstacle segment. Grazing contact is conservatively treated as occluded.
    """
    point = np.array([[float(landmark[0]), float(landmark[1])]])
    vis, bearing, distance = _sight(pose.position[None, :2], _headings(pose.orientation[None]),
                                    point, spec)
    return bool(vis[0, 0]), float(bearing[0, 0]), float(distance[0, 0])


# --- feature encoding -----------------------------------------------------------

# Range is compressed to (0, 1], so far landmarks at different distances look
# alike once feature noise is on; bearing stays in plain radians.

def encode_distance(d: float) -> float:
    return 1.0 / (1.0 + d)


def _observe(positions: np.ndarray, orientations: np.ndarray, spec: WorldSpec,
             noise: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Features (n, 3L) and the visible mask (n, L) of n camera poses; the
    noise (n, L, 2), scaled by ``noise_sigma``, is added to the bearing and
    the encoded distance of each visible landmark."""
    n, count = positions.shape[0], len(spec.landmarks)
    points = np.array([p for _, p in spec.landmarks], dtype=np.float64).reshape(count, 2)
    visible, bearing, distance = _sight(positions[:, :2], _headings(orientations), points, spec)
    encoded = encode_distance(distance)
    if noise is not None:
        bearing = bearing + spec.noise_sigma * noise[..., 0]
        encoded = encoded + spec.noise_sigma * noise[..., 1]
    feats = np.stack([visible.astype(np.float64), bearing, encoded], axis=2)
    feats[~visible] = 0.0
    return feats.reshape(n, 3 * count), visible


def sample_features(pose: Pose, spec: WorldSpec,
                    noise: np.ndarray | None = None) -> tuple[np.ndarray, frozenset[str]]:
    """Feature vector (3 channels per landmark) and the exact visible set."""
    if noise is not None:
        noise = np.asarray(noise, dtype=np.float64)[None]
    feats, visible = _observe(pose.position[None], pose.orientation[None], spec, noise)
    return feats[0], frozenset(compress((name for name, _ in spec.landmarks), visible[0]))


# --- sampling -------------------------------------------------------------------

def _z_profile(fracs: np.ndarray, spec: WorldSpec) -> np.ndarray:
    """Smooth, seeded, periodic height profile over route fraction in [0, 1)."""
    if spec.z_noise_amp == 0.0:
        return np.full_like(fracs, spec.z_base)
    rng = np.random.default_rng([spec.seed, _STREAM_Z])
    ph = rng.uniform(0.0, 1.0, size=2)
    wave = 0.6 * np.sin(2 * np.pi * (fracs + ph[0])) + \
        0.4 * np.sin(2 * np.pi * (2 * fracs + ph[1]))
    return spec.z_base + spec.z_noise_amp * wave


def _camera_path(spec: WorldSpec, n: int, stream: int,
                 ordered: bool) -> tuple[np.ndarray, np.ndarray]:
    """Positions (n, 3) and yaws (n,) of n jittered camera poses along the
    route; ordered=True mimics a video pass."""
    route = _Route(spec.route)
    if route.length <= 0.0:
        raise InvalidSpecError("route has zero length")
    rng = np.random.default_rng([spec.seed, stream])
    if ordered:
        s = (np.arange(n) + rng.uniform(0.0, 1.0, size=n)) / max(n, 1) * route.length
    else:
        s = rng.uniform(0.0, route.length, size=n)
    lateral = rng.uniform(-spec.lateral_jitter, spec.lateral_jitter, size=n)
    hjit = np.radians(rng.uniform(-spec.heading_jitter_deg, spec.heading_jitter_deg, size=n))
    z = _z_profile(s / route.length, spec)

    base, tangent = route.locate(s)
    x = base[:, 0] + lateral * -_each(math.sin, tangent)
    y = base[:, 1] + lateral * _each(math.cos, tangent)
    return np.column_stack([x, y, z]), tangent + hjit


def generate(spec: WorldSpec, n_train: int, n_test: int) -> tuple[Frames, Frames]:
    """Deterministic train/test splits; splits use disjoint RNG streams.
    Each split's frames are computed together, as columns."""
    if n_train < 0 or n_test < 0:
        raise InvalidInputError("sample counts must be >= 0")
    names = tuple(name for name, _ in spec.landmarks)
    out = []
    for n, pose_stream, noise_stream, ordered in (
            (n_train, _STREAM_TRAIN, _STREAM_TRAIN_NOISE, True),
            (n_test, _STREAM_TEST, _STREAM_TEST_NOISE, False)):
        positions, yaws = _camera_path(spec, n, pose_stream, ordered)
        if not np.isfinite(positions).all():
            raise InvalidInputError("pose components must be finite")
        half = 0.5 * yaws
        orientations = np.zeros((n, 4))
        orientations[:, 0] = _each(math.cos, half)
        orientations[:, 3] = _each(math.sin, half)
        nrng = np.random.default_rng([spec.seed, noise_stream])
        noise = nrng.standard_normal((n, len(spec.landmarks), 2))
        columns = (positions, orientations, *_observe(positions, orientations, spec, noise))
        for column in columns:
            column.setflags(write=False)
        out.append(Frames(*columns, names))
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


def default_world(seed: int = DEFAULT_SEED, noise_sigma: float = DEFAULT_NOISE_SIGMA) -> WorldSpec:
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
    positions, _ = _camera_path(bare, DEFAULT_N_TRAIN, _STREAM_TRAIN, ordered=True)
    landmarks = tuple((f"lm{frame // DEFAULT_FRAME_INTERVAL:02d}", tuple(positions[frame, :2]))
                      for frame in _DEFAULT_LANDMARK_FRAMES)
    return WorldSpec(route=stadium_route(), landmarks=landmarks,
                     obstacles=_DEFAULT_OBSTACLES, noise_sigma=noise_sigma, seed=seed)


# --- world spec files ------------------------------------------------------------

def save_world_spec(path, spec: WorldSpec) -> None:
    """Plain-text world schema; floats carry 17 significant digits so a
    load/save cycle reproduces the world bit-exactly."""
    write_ini(path, {"world": {
        "seed": spec.seed,
        **{name: fmt(getattr(spec, name)) for name in _FLOAT_FIELDS},
        "route": "; ".join(f"{fmt(p[0])},{fmt(p[1])}" for p in spec.route),
        "landmarks": "; ".join(f"{name}:{fmt(p[0])},{fmt(p[1])}" for name, p in spec.landmarks),
        "obstacles": "; ".join(f"{fmt(a[0])},{fmt(a[1])},{fmt(b[0])},{fmt(b[1])}"
                               for a, b in spec.obstacles),
    }})


def load_world_spec(path) -> WorldSpec:
    values = read_ini(path, {"world": ("seed", *_FLOAT_FIELDS, "route", "landmarks",
                                       "obstacles")}).get("world", {})
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
            **{name: float(values[name]) for name in _FLOAT_FIELDS},
            seed=int(values["seed"]),
        )
    except (KeyError, ValueError) as err:
        raise InvalidSpecError(f"malformed world spec file {path}: {err}") from None
