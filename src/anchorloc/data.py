"""Dataset ingestion: pose text files, binary feature files, anchor-map
precomputation and per-batch offset tables.

Pose text format (UTF-8), one record per line::

    frame_id tx ty tz qw qx qy qz

Lines starting with ``#`` (and blank lines) are ignored, so a frame id is
non-empty, holds no whitespace and does not start with ``#``; as in feature
files, it holds no lone surrogate, which UTF-8 cannot encode. Floats are
written with 17 significant digits, which round-trips IEEE doubles exactly,
so parse -> serialize -> parse is bit-stable.

Feature files are little-endian binary: magic ``ALFT``, a u32 version, u64
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
from .geometry import AnchorMap, Pose, build_anchor_map, quat_norm
from .files import encodable, fmt, read_lines, write_atomically
from .simworld import Sample

QUAT_NORM_TOL = 1e-3

_FEAT_MAGIC = b"ALFT"
_FEAT_VERSION = 1

# Elements of the (rows, N) squared-distance table that SampleBatch.build
# holds at a time (1 MB); each row's argmin is the same as over the whole table.
_NEAREST_BLOCK = 2**17

POSES_TRAIN = "poses_train.txt"
POSES_TEST = "poses_test.txt"
FEATURES_TRAIN = "features_train.bin"
FEATURES_TEST = "features_test.bin"


def format_pose_line(frame_id: str, pose: Pose) -> str:
    if frame_id.split() != [frame_id] or frame_id.startswith("#") or not encodable(frame_id):
        raise InvalidInputError(f"frame id {frame_id!r} is empty, holds whitespace or a lone "
                                "surrogate or starts with '#', so its pose line would not "
                                "read back")
    fields = [frame_id]
    fields += [fmt(v) for v in pose.position]
    fields += [fmt(v) for v in pose.orientation]
    return " ".join(fields)


def parse_pose_line(line: str, line_number: int | None = None) -> tuple[str, Pose]:
    parts = line.split()
    if len(parts) != 8:
        raise ParseError(f"expected 8 whitespace-separated fields, got {len(parts)}",
                         line_number)
    frame_id = parts[0]
    try:
        values = [float(p) for p in parts[1:]]
    except ValueError as err:
        raise ParseError(f"bad float field: {err}", line_number) from None
    quat = np.array(values[3:])
    norm = quat_norm(quat, values[3:])
    if abs(norm - 1.0) > QUAT_NORM_TOL:
        raise DataIntegrityError(
            f"line {line_number}: quaternion norm {norm:.6g} is more than "
            f"{QUAT_NORM_TOL} from unit")
    # Pose renormalizes (idempotently), keeping file round-trips bit-stable
    return frame_id, Pose(position=np.array(values[:3]), orientation=quat)


def load_pose_file(path) -> list[tuple[str, Pose]]:
    """Ordered (frame_id, Pose) records from a pose text file."""
    records = []
    for n, raw in enumerate(read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        records.append(parse_pose_line(line, n))
    return records


def save_pose_file(path, records: list[tuple[str, Pose]]) -> None:
    write_atomically(path, "".join(format_pose_line(fid, pose) + "\n" for fid, pose in records))


def save_features(path, frame_ids: list[str], features: np.ndarray) -> None:
    feats = np.ascontiguousarray(features, dtype="<f8")
    if feats.ndim != 2 or feats.shape[0] != len(frame_ids):
        raise InvalidInputError("features must be (n, d) with one row per frame id")
    parts = [_FEAT_MAGIC, _FEAT_VERSION.to_bytes(4, "little"),
             feats.shape[0].to_bytes(8, "little"), feats.shape[1].to_bytes(8, "little")]
    for fid, row in zip(frame_ids, feats):
        if not encodable(fid):
            raise InvalidInputError(f"frame id {fid!r} holds a lone surrogate, which UTF-8 "
                                    "cannot encode")
        enc = fid.encode()
        parts += [len(enc).to_bytes(4, "little"), enc, row.tobytes()]
    write_atomically(path, b"".join(parts))


def load_features(path) -> tuple[list[str], np.ndarray]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _FEAT_MAGIC:
        raise ParseError(f"{path}: not a feature file (bad magic)")
    if len(raw) < 24:
        raise ParseError(f"{path}: truncated header ({len(raw)} bytes)")
    version = int.from_bytes(raw[4:8], "little")
    if version != _FEAT_VERSION:
        raise ParseError(f"{path}: unsupported feature file version {version}")
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
        n = len(poses)
        feats = np.asarray(features, dtype=np.float64)
        if feats.shape[0] != n:
            raise InvalidInputError(
                f"{feats.shape[0]} feature rows for {n} poses")
        positions = np.array([p.position for p in poses]).reshape(n, 3)
        orientations = np.array([p.orientation for p in poses]).reshape(n, 4)
        ax, ay = anchor_map.anchors.T
        rows = max(1, _NEAREST_BLOCK // len(anchor_map))
        nearest = np.empty(n, dtype=np.intp)
        for s in range(0, n, rows):
            px, py = positions[s:s + rows, 0, None], positions[s:s + rows, 1, None]
            d2 = (ax - px) ** 2 + (ay - py) ** 2
            nearest[s:s + rows] = d2.argmin(axis=1)
        return cls(frame_ids=list(frame_ids), features=feats, positions=positions,
                   orientations=orientations, anchor_map=anchor_map, nearest=nearest,
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


def assemble(poses: list[tuple[str, Pose]], features: np.ndarray, k: int,
             test_poses: list[tuple[str, Pose]], test_features: np.ndarray, *,
             train_visible=None, test_visible=None) -> SceneDataset:
    """Build a SceneDataset; the anchor map comes from training poses ONLY.

    :meth:`SampleBatch.build` converts each split's features, checks that
    they have one row per pose and labels nearest anchors; the test split
    (which may be empty) never contributes anchors.
    """
    pose_objs = [p for _, p in poses]
    anchor_map = build_anchor_map(pose_objs, k)
    train = SampleBatch.build([fid for fid, _ in poses], pose_objs, features,
                              anchor_map, visible_sets=train_visible)
    test = SampleBatch.build([fid for fid, _ in test_poses], [p for _, p in test_poses],
                             test_features, anchor_map, visible_sets=test_visible)
    return SceneDataset(train=train, test=test)


def _stack_splits(train_samples: list[Sample], test_samples: list[Sample]):
    """[train records, train features, test records, test features]: frame ids
    t00000, ... (test: e00000, ...) with poses, and (n, dim) stacked features."""
    first = (train_samples or test_samples)[:1]
    dim = first[0].feature.shape[0] if first else 0
    splits = []
    for prefix, samples in (("t", train_samples), ("e", test_samples)):
        splits.append([(f"{prefix}{i:05d}", s.pose) for i, s in enumerate(samples)])
        splits.append(np.array([s.feature for s in samples]).reshape(len(samples), dim))
    return splits


def from_simworld(train_samples: list[Sample], test_samples: list[Sample], k: int) -> SceneDataset:
    """Assemble directly from in-memory world samples, keeping visibility
    ground truth for discovery analysis."""
    train_recs, tf, test_recs, ef = _stack_splits(train_samples, test_samples)
    return assemble(train_recs, tf, k, test_recs, ef,
                    train_visible=[s.visible_set for s in train_samples],
                    test_visible=[s.visible_set for s in test_samples])


def export_dataset(out_dir, train_samples: list[Sample], test_samples: list[Sample]) -> None:
    """Write the four dataset files for a generated world."""
    os.makedirs(out_dir, exist_ok=True)
    train_recs, tf, test_recs, ef = _stack_splits(train_samples, test_samples)
    save_pose_file(os.path.join(out_dir, POSES_TRAIN), train_recs)
    save_pose_file(os.path.join(out_dir, POSES_TEST), test_recs)
    save_features(os.path.join(out_dir, FEATURES_TRAIN), [r[0] for r in train_recs], tf)
    save_features(os.path.join(out_dir, FEATURES_TEST), [r[0] for r in test_recs], ef)


def load_dataset_files(data_dir):
    """The four files of a dataset directory as (train_poses, train_features,
    test_poses, test_features), once each split's pose and feature files are
    checked to list the same frame ids in the same order."""
    train_poses = load_pose_file(os.path.join(data_dir, POSES_TRAIN))
    test_poses = load_pose_file(os.path.join(data_dir, POSES_TEST))
    train_ids, train_feats = load_features(os.path.join(data_dir, FEATURES_TRAIN))
    test_ids, test_feats = load_features(os.path.join(data_dir, FEATURES_TEST))
    if [fid for fid, _ in train_poses] != train_ids:
        raise DataIntegrityError("train pose/feature frame ids disagree")
    if [fid for fid, _ in test_poses] != test_ids:
        raise DataIntegrityError("test pose/feature frame ids disagree")
    return train_poses, train_feats, test_poses, test_feats


def load_dataset_dir(data_dir, k: int) -> SceneDataset:
    """Load the standard dataset directory layout and assemble with interval k."""
    train_poses, train_feats, test_poses, test_feats = load_dataset_files(data_dir)
    return assemble(train_poses, train_feats, k, test_poses, test_feats)
