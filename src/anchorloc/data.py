"""Dataset ingestion: pose text files, binary feature files, anchor-map
precomputation and per-batch offset tables.

Pose text format (UTF-8), one record per line::

    frame_id tx ty tz qw qx qy qz

Lines starting with ``#`` (and blank lines) are ignored, so a frame id is
non-empty, holds no whitespace and does not start with ``#``; as in feature
files, it holds no lone surrogate, which UTF-8 cannot encode. Floats are
written with 17 significant digits, which round-trips IEEE doubles exactly,
so parse -> serialize -> parse is bit-stable.

Poses travel as columns, a :class:`PoseTable` of frame ids, positions and
orientations, from a generated world or a pose file to a :class:`SampleBatch`,
with no per-record ``Pose`` on the way. The reader converts each line to
floats, then checks every quaternion norm and renormalizes in bulk, with the
arithmetic :class:`geometry.Pose` applies to one; an error names the file and
its first faulty line (``PATH, line N: ...``). The writer formats rows of
Python floats.

Feature files are little-endian binary: magic ``ALFT`` and a u32 version,
which ``files.write_binary`` writes and ``files.read_binary`` checks, u64
frame count, u64 dim, then per row a u32-length-prefixed UTF-8 frame id and
``dim`` float64 values, which must be finite.

A dataset directory holds ``poses_train.txt``, ``poses_test.txt``,
``features_train.bin``, ``features_test.bin``; ``files`` writes each whole
and reads the pose text.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DataIntegrityError, InvalidInputError, ParseError
from .geometry import AnchorMap, Pose, build_anchor_map, quat_norms
from .files import encodable, read_binary, read_lines, write_atomically, write_binary
from .simworld import Frames

QUAT_NORM_TOL = 1e-3

_FEAT_MAGIC = b"ALFT"
_FEAT_VERSION = 1

# Elements of the (rows, N) squared-distance table that SampleBatch.of
# holds at a time (1 MB); each row's argmin is the same as over the whole table.
_NEAREST_BLOCK = 2**17

POSES_TRAIN = "poses_train.txt"
POSES_TEST = "poses_test.txt"
FEATURES_TRAIN = "features_train.bin"
FEATURES_TEST = "features_test.bin"


@dataclass(frozen=True)
class PoseTable:
    """Pose records as columns: frame ids, positions (n, 3) in meters and
    orientations (n, 4), unit quaternions in (w, x, y, z) order, all finite."""

    frame_ids: list[str]
    positions: np.ndarray
    orientations: np.ndarray

    def __post_init__(self):
        n = len(self.frame_ids)
        for name, width in (("positions", 3), ("orientations", 4)):
            values = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if values.shape != (n, width):
                raise InvalidInputError(f"{name} must be ({n}, {width}), one row per frame id, "
                                        f"got shape {values.shape}")
            if not np.isfinite(values).all():
                raise InvalidInputError("pose components must be finite")
            object.__setattr__(self, name, values)

    def __len__(self) -> int:
        return len(self.frame_ids)

    @classmethod
    def of(cls, frame_ids, poses: list[Pose]) -> "PoseTable":
        """The columns of ``poses``, one per frame id."""
        n = len(poses)
        return cls(list(frame_ids), np.array([p.position for p in poses]).reshape(n, 3),
                   np.array([p.orientation for p in poses]).reshape(n, 4))


def load_pose_file(path) -> PoseTable:
    """The records of a pose text file, in order. Each line is converted to
    floats, then the quaternion norms of all of them are checked and
    renormalized together, as :class:`geometry.Pose` would one at a time; an
    error names the file and the first faulty line."""
    ids, rows, numbers = [], [], []
    stop = None
    for n, raw in enumerate(read_lines(path), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 8:
            stop = ParseError(f"expected 8 whitespace-separated fields, got {len(parts)}", n,
                              path)
            break
        try:
            rows.append([float(p) for p in parts[1:]])
        except ValueError as err:
            stop = ParseError(f"bad float field: {err}", n, path)
            break
        ids.append(parts[0])
        numbers.append(n)
    values = np.array(rows, dtype=np.float64).reshape(len(rows), 7)
    quats = values[:, 3:]
    norms = quat_norms(quats)
    far = np.abs(norms - 1.0) > QUAT_NORM_TOL  # false for a NaN norm, which is not finite
    faulty = far | ~np.isfinite(values).all(axis=1)
    if faulty.any():
        i = int(faulty.argmax())
        where = f"{path}, line {numbers[i]}"
        if far[i]:
            raise DataIntegrityError(f"{where}: quaternion norm {norms[i]:.6g} is more than "
                                     f"{QUAT_NORM_TOL} from unit")
        raise InvalidInputError(f"{where}: pose components must be finite")
    if stop is not None:
        raise stop
    # divided by the norm where geometry.Pose would, so file round-trips stay bit-stable
    off = np.abs(norms - 1.0) > 1e-12
    quats[off] /= norms[off, None]
    return PoseTable(ids, values[:, :3], quats)


def save_pose_file(path, poses: PoseTable) -> None:
    for frame_id in poses.frame_ids:
        if frame_id.split() != [frame_id] or frame_id.startswith("#") or not encodable(frame_id):
            raise InvalidInputError(f"frame id {frame_id!r} is empty, holds whitespace or a lone "
                                    "surrogate or starts with '#', so its pose line would not "
                                    "read back")
    line = "%s" + " %.17g" * 7 + "\n"  # fmt's 17 significant digits
    write_atomically(path, "".join(
        line % (frame_id, *row) for frame_id, row in
        zip(poses.frame_ids, np.hstack([poses.positions, poses.orientations]).tolist())))


def save_features(path, frame_ids: list[str], features: np.ndarray) -> None:
    feats = np.ascontiguousarray(features, dtype="<f8")
    if feats.ndim != 2 or feats.shape[0] != len(frame_ids):
        raise InvalidInputError("features must be (n, d) with one row per frame id")
    parts = [feats.shape[0].to_bytes(8, "little"), feats.shape[1].to_bytes(8, "little")]
    for fid, row in zip(frame_ids, feats):
        if not encodable(fid):
            raise InvalidInputError(f"frame id {fid!r} holds a lone surrogate, which UTF-8 "
                                    "cannot encode")
        enc = fid.encode()
        parts += [len(enc).to_bytes(4, "little"), enc, row.tobytes()]
    write_binary(path, _FEAT_MAGIC, _FEAT_VERSION, parts)


def load_features(path) -> tuple[list[str], np.ndarray]:
    raw = read_binary(path, _FEAT_MAGIC, _FEAT_VERSION, "feature file")
    if len(raw) < 24:
        raise ParseError(f"{path}: truncated header ({len(raw)} bytes)")
    count = int.from_bytes(raw[8:16], "little")
    dim = int.from_bytes(raw[16:24], "little")
    # checked before allocating: every row takes at least 4 + 8 * dim bytes
    if count * (4 + 8 * dim) > len(raw) - 24:
        raise ParseError(f"{path}: {count} rows of dim {dim} do not fit in {len(raw)} bytes")
    ids = []
    try:  # zero rows pass the size check above with any dim
        feats = np.empty((count, dim))
    except ValueError as err:
        raise ParseError(f"{path}: {count} rows of dim {dim}: {err}") from None
    off = 24
    for i in range(count):
        idlen = int.from_bytes(raw[off:off + 4], "little")
        off += 4
        if off + idlen + 8 * dim > len(raw):
            raise ParseError(f"{path}: truncated in row {i}")
        try:
            ids.append(raw[off:off + idlen].decode())
        except UnicodeDecodeError:
            raise ParseError(f"{path}: frame id of row {i} is not UTF-8") from None
        off += idlen
        feats[i] = np.frombuffer(raw[off:off + 8 * dim], dtype="<f8")
        off += 8 * dim
    if off != len(raw):
        raise ParseError(f"{path}: {len(raw) - off} bytes after the last row")
    finite = np.isfinite(feats).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DataIntegrityError(f"{path}: frame {ids[i]!r} (row {i}) has a non-finite feature")
    return ids, feats


@dataclass
class SampleBatch:
    """Column-stacked samples with loss-ready ground truth."""

    frame_ids: list[str]
    features: np.ndarray       # (n, d)
    positions: np.ndarray      # (n, 3)
    orientations: np.ndarray   # (n, 4)
    anchor_map: AnchorMap
    nearest: np.ndarray        # (n,) closest anchor in (x, y), the lowest index on a tie
    visible_sets: list[frozenset[str]] | None = None

    def __len__(self) -> int:
        return self.features.shape[0]

    def offsets_at(self, positions: np.ndarray) -> np.ndarray:
        """Ground-truth offsets (B, N, 2) of a batch's positions (B, 3): each
        sample's (x, y) minus every anchor. The (x, y) are first repeated N
        times into a new array, so the subtraction runs over contiguous memory
        (a broadcast over the length-2 axis is an order of magnitude slower)."""
        anchors = self.anchor_map.anchors
        out = positions[:, :2].repeat(anchors.shape[0], axis=0).reshape(-1, *anchors.shape)
        out -= anchors
        return out

    @classmethod
    def build(cls, frame_ids, poses: list[Pose], features: np.ndarray,
              anchor_map: AnchorMap, visible_sets=None) -> "SampleBatch":
        """:meth:`of` the columns of ``poses``."""
        return cls.of(PoseTable.of(frame_ids, poses), features, anchor_map, visible_sets)

    @classmethod
    def of(cls, poses: PoseTable, features: np.ndarray, anchor_map: AnchorMap,
           visible_sets=None) -> "SampleBatch":
        n = len(poses)
        feats = np.asarray(features, dtype=np.float64)
        if feats.shape[0] != n:
            raise InvalidInputError(
                f"{feats.shape[0]} feature rows for {n} poses")
        positions = poses.positions
        ax, ay = anchor_map.anchors.T
        rows = max(1, _NEAREST_BLOCK // len(anchor_map))
        nearest = np.empty(n, dtype=np.intp)
        for s in range(0, n, rows):
            px, py = positions[s:s + rows, 0, None], positions[s:s + rows, 1, None]
            d2 = (ax - px) ** 2 + (ay - py) ** 2
            nearest[s:s + rows] = d2.argmin(axis=1)
        return cls(frame_ids=list(poses.frame_ids), features=feats, positions=positions,
                   orientations=poses.orientations, anchor_map=anchor_map, nearest=nearest,
                   visible_sets=visible_sets)


@dataclass
class SceneDataset:
    """A scene's two splits; both hold the anchor map of the train split."""

    train: SampleBatch
    test: SampleBatch

    @property
    def anchor_map(self) -> AnchorMap:
        return self.train.anchor_map

    @property
    def num_anchors(self) -> int:
        return len(self.anchor_map)


def assemble(poses: PoseTable, features: np.ndarray, k: int,
             test_poses: PoseTable, test_features: np.ndarray, *,
             train_visible=None, test_visible=None) -> SceneDataset:
    """Build a SceneDataset; the anchor map comes from training poses ONLY.

    :meth:`SampleBatch.of` converts each split's features, checks that
    they have one row per pose and labels nearest anchors; the test split
    (which may be empty) never contributes anchors.
    """
    anchor_map = build_anchor_map(poses.positions, k)
    return SceneDataset(
        train=SampleBatch.of(poses, features, anchor_map, visible_sets=train_visible),
        test=SampleBatch.of(test_poses, test_features, anchor_map, visible_sets=test_visible))


def _pose_tables(train: Frames, test: Frames) -> tuple[PoseTable, PoseTable]:
    """The splits' pose columns under frame ids t00000, ... (test: e00000, ...)."""
    return tuple(PoseTable([f"{prefix}{i:05d}" for i in range(len(frames))], frames.positions,
                           frames.orientations)
                 for prefix, frames in (("t", train), ("e", test)))


def from_simworld(train: Frames, test: Frames, k: int) -> SceneDataset:
    """Assemble directly from in-memory world frames, keeping visibility
    ground truth for discovery analysis."""
    train_poses, test_poses = _pose_tables(train, test)
    return assemble(train_poses, train.features, k, test_poses, test.features,
                    train_visible=train.visible_sets, test_visible=test.visible_sets)


def export_dataset(out_dir, train: Frames, test: Frames) -> None:
    """Write the four dataset files for a generated world."""
    os.makedirs(out_dir, exist_ok=True)
    train_poses, test_poses = _pose_tables(train, test)
    save_pose_file(os.path.join(out_dir, POSES_TRAIN), train_poses)
    save_pose_file(os.path.join(out_dir, POSES_TEST), test_poses)
    save_features(os.path.join(out_dir, FEATURES_TRAIN), train_poses.frame_ids, train.features)
    save_features(os.path.join(out_dir, FEATURES_TEST), test_poses.frame_ids, test.features)


def load_dataset_files(data_dir):
    """The four files of a dataset directory as (train_poses, train_features,
    test_poses, test_features), once each split's pose and feature files are
    checked to list the same frame ids in the same order."""
    train_poses = load_pose_file(os.path.join(data_dir, POSES_TRAIN))
    test_poses = load_pose_file(os.path.join(data_dir, POSES_TEST))
    train_ids, train_feats = load_features(os.path.join(data_dir, FEATURES_TRAIN))
    test_ids, test_feats = load_features(os.path.join(data_dir, FEATURES_TEST))
    if train_poses.frame_ids != train_ids:
        raise DataIntegrityError("train pose/feature frame ids disagree")
    if test_poses.frame_ids != test_ids:
        raise DataIntegrityError("test pose/feature frame ids disagree")
    return train_poses, train_feats, test_poses, test_feats


def load_dataset_dir(data_dir, k: int) -> SceneDataset:
    """Load the standard dataset directory layout and assemble with interval k."""
    train_poses, train_feats, test_poses, test_feats = load_dataset_files(data_dir)
    return assemble(train_poses, train_feats, k, test_poses, test_feats)
