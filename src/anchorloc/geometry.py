"""Pose representation, quaternion math and anchor-map construction.

Conventions
-----------
- Positions are 3-vectors in meters, world frame.
- Orientations are unit quaternions in (w, x, y, z) order.
- Anchors live in the horizontal (x, y) plane only; z and orientation are
  always handled in the global frame.

A ``Pose`` holds read-only copies of the arrays it is given, checked and
renormalized. A served query builds its pose once instead:
``evaluation.reconstruct_pose`` hands the fresh rows of ``reconstruct`` to
:meth:`Pose.adopt`, which checks only that they are float64 arrays of the
right shapes, the position finite and the quaternion unit to 1e-12, and keeps
both arrays as they are, with the bytes the constructor would give them;
anything else goes through the constructor.

Everything here is immutable after construction and all operations are pure,
so concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMapError, InvalidInputError

# Two anchors closer than this are considered the same point and deduplicated.
ANCHOR_DEDUP_TOL = 1e-9

# A 4-vector shorter than this has a squared norm, and partial sums of its
# squares, below about 2**1022: far from overflow.
_NORM_SAFE = 2.0 ** 511


@dataclass(frozen=True)
class Pose:
    """A 6-DOF camera state: position plus unit-quaternion orientation.

    The constructor keeps read-only float64 copies of the arrays given and
    renormalizes the orientation; a quaternion with (near-)zero norm, or one
    whose squared norm overflows, or a non-finite component is rejected.
    :meth:`adopt` is the one exception: it keeps the caller's own arrays,
    made read-only, when they already hold the bytes the constructor would.
    """

    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        # contiguous float64 1-D copies, which the caller's arrays cannot change
        pos = np.array(self.position, dtype=np.float64).reshape(-1)
        quat = np.array(self.orientation, dtype=np.float64).reshape(-1)
        if pos.shape != (3,):
            raise InvalidInputError(f"position must be a 3-vector, got shape {pos.shape}")
        if quat.shape != (4,):
            raise InvalidInputError(f"orientation must be a 4-vector, got shape {quat.shape}")
        q = quat.tolist()
        if not all(map(math.isfinite, pos.tolist() + q)):
            raise InvalidInputError("pose components must be finite")
        norm = quat_norm(quat, q)
        if norm == math.inf:
            raise InvalidInputError("orientation quaternion norm overflows")
        if norm < 1e-12:
            raise InvalidInputError("orientation quaternion has zero norm")
        # idempotent normalization keeps parse/serialize cycles bit-stable
        if abs(norm - 1.0) > 1e-12:
            quat = quat / norm
        pos.setflags(write=False)
        quat.setflags(write=False)
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "orientation", quat)

    @classmethod
    def adopt(cls, position: np.ndarray, orientation: np.ndarray) -> Pose:
        """The Pose of arrays the caller gives up, as a served query builds it:
        ``position`` a fresh float64 3-vector and ``orientation`` a row of
        ``loss.unit_orientation``, float64, finite and of norm 1 to a few
        ulps. When both are plain float64 ndarrays of shapes (3,) and (4,),
        the position's sum is finite (so is each component) and the squared
        norm is within 1e-12 of 1 (so the norm is within about 5e-13, where
        the constructor keeps a quaternion as it is), both arrays are kept
        as they are and made read-only: no copy, no second norm, the
        constructor's bytes. Any other input goes through the constructor,
        which copies, converts and reshapes it or raises its own errors.

        A kept array may be a view, such as a row of a batch: the caller must
        hold no other reference to it or to the array it views, since only
        the kept array itself is made read-only."""
        if not (type(position) is np.ndarray and type(orientation) is np.ndarray
                and position.dtype == orientation.dtype == np.float64
                and position.shape == (3,) and orientation.shape == (4,)):
            return cls(position=position, orientation=orientation)
        x, y, z = position.tolist()
        w, i, j, k = orientation.tolist()
        if not (math.isfinite(x + y + z) and abs(w * w + i * i + j * j + k * k - 1.0) <= 1e-12):
            return cls(position=position, orientation=orientation)
        position.setflags(write=False)
        orientation.setflags(write=False)
        pose = object.__new__(cls)
        object.__setattr__(pose, "position", position)
        object.__setattr__(pose, "orientation", orientation)
        return pose

    @property
    def xy(self) -> np.ndarray:
        return self.position[:2]


def quat_norm(quat: np.ndarray, comps: list[float]) -> float:
    """Norm of a float64 4-vector: the same sum and root that np.linalg.norm
    takes for a 1-D float64 vector, or inf, without a warning, where the
    squared norm overflows. ``comps`` is ``quat.tolist()``, which callers
    already hold."""
    if math.hypot(*comps) < _NORM_SAFE:  # hypot itself never overflows
        return math.sqrt(quat.dot(quat))
    with np.errstate(over="ignore"):
        return math.sqrt(quat.dot(quat))


def quat_norms(quats: np.ndarray) -> np.ndarray:
    """:func:`quat_norm` of each row of ``quats`` (n, 4), bit for bit: a
    1 x 4 by 4 x 1 ``matmul`` takes the dot routine that ``quat.dot(quat)``
    takes, so each row's squares sum in the same order."""
    q = np.ascontiguousarray(quats, dtype=np.float64)
    with np.errstate(over="ignore"):
        return np.sqrt(np.matmul(q[:, None, :], q[:, :, None]).reshape(-1))


@dataclass(frozen=True)
class AnchorMap:
    """Ordered, finite anchor coordinates in the (x, y) plane, held in a
    read-only copy of the array given."""

    anchors: np.ndarray  # (N, 2)

    def __post_init__(self):
        a = np.array(self.anchors, dtype=np.float64, order="C")
        if a.ndim != 2 or a.shape[1] != 2 or a.shape[0] == 0:
            raise InvalidInputError(f"anchors must be a non-empty (N, 2) array, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise InvalidInputError("anchor coordinates must be finite")
        a.setflags(write=False)
        object.__setattr__(self, "anchors", a)

    def __len__(self) -> int:
        return self.anchors.shape[0]


def build_anchor_map(positions: np.ndarray, k: int) -> AnchorMap:
    """Subsample every k-th position into an anchor list.

    ``positions`` is (n, 2) or (n, 3), whose first two columns are (x, y).
    Anchors are the (x, y) of rows 0, k, 2k, ...; in that order,
    a candidate within ``ANCHOR_DEDUP_TOL`` of an anchor already kept is
    dropped, keeping the first occurrence so anchor indices stay reproducible.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if len(positions) == 0:
        raise InvalidInputError("cannot build an anchor map from an empty pose list")
    if k < 1:
        raise InvalidInputError(f"frame interval must be >= 1, got {k}")

    candidates = positions[::k, :2]
    order = np.lexsort((candidates[:, 1], candidates[:, 0]))  # x, then y, then index
    srt = candidates[order]
    # A repeat of an earlier candidate's exact (x, y) is always dropped: what
    # keeps or drops the first occurrence drops the repeat too, and a dropped
    # candidate decides nothing.
    repeat = np.r_[False, (srt[1:] == srt[:-1]).all(axis=1)]
    keep = np.ones(len(candidates), dtype=bool)
    keep[order[repeat]] = False
    # The others run the greedy rule over their close pairs only. Pairs come
    # sorted by the later index, so an earlier candidate is settled when read.
    for i, j in zip(*_close_pairs(candidates, order[~repeat])):
        if keep[i]:
            keep[j] = False
    if keep.sum() == 1:
        raise DegenerateMapError("all anchors collapse to a single point")
    return AnchorMap(anchors=candidates[keep])


def _close_pairs(xy: np.ndarray, idx: np.ndarray) -> tuple[list[int], list[int]]:
    """Pairs (earlier, later) of the rows ``idx`` of ``xy``, given in order of
    x, whose squared distance is below ``ANCHOR_DEDUP_TOL**2``; sorted by the
    later index.

    The rows split into bands wherever x jumps by more than 2 tol, so a
    close pair never straddles two bands; only pairs in one band and within
    2 tol in y are tested. A complex number sorts by its real part, then its
    imaginary part, so ``band + 1j * y`` orders the rows by band, then y.
    """
    x, y = xy[idx, 0], xy[idx, 1]
    band = np.r_[0, np.cumsum(np.diff(x) > 2 * ANCHOR_DEDUP_TOL)]
    key = band + 1j * y
    order = np.argsort(key, kind="stable")
    key, idx = key[order], idx[order]
    ends = np.searchsorted(key, key + 2j * ANCHOR_DEDUP_TOL, side="right")
    counts = ends - np.arange(len(idx)) - 1
    lo = np.repeat(np.arange(len(idx)), counts)
    hi = lo + 1 + np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    earlier = np.minimum(idx[lo], idx[hi])
    later = np.maximum(idx[lo], idx[hi])
    close = ((xy[earlier] - xy[later]) ** 2).sum(axis=1) < ANCHOR_DEDUP_TOL**2
    by_later = np.argsort(later[close], kind="stable")
    return earlier[close][by_later].tolist(), later[close][by_later].tolist()


def quat_angle_deg(a: np.ndarray, b: np.ndarray) -> float:
    """Geodesic angle between two unit quaternions, in degrees.

    Uses 2*arccos(|a.b|), which respects the double cover (q and -q encode
    the same rotation), so the result is always in [0, 180].
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    for q in (a, b):
        if q.shape != (4,):
            raise InvalidInputError("quaternions must be 4-vectors")
        if abs(np.linalg.norm(q) - 1.0) > 1e-6:
            raise InvalidInputError("quat_angle_deg requires unit quaternions (within 1e-6)")
    dot = min(1.0, abs(float(np.dot(a, b))))
    return math.degrees(2.0 * math.acos(dot))


def yaw_quat(yaw_rad: float) -> np.ndarray:
    """Unit quaternion for a rotation of ``yaw_rad`` about the +z axis."""
    h = 0.5 * yaw_rad
    return np.array([math.cos(h), 0.0, 0.0, math.sin(h)])
