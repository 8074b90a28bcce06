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
with no per-record ``Pose`` on the way. The reader splits each line and
checks its field count, then converts every float field of the lines before
the first short one in one pass of Python's own ``float`` (so it accepts what
``float`` accepts, ``1_0`` and other scripts' digits included); only when
that pass fails does it walk the fields to find the first bad one. It then
checks every quaternion norm and renormalizes in bulk, with the arithmetic
:class:`geometry.Pose` applies to one. An error names the file and the first
faulty line (``PATH, line N: ...``), whatever the fault of that line and of
later ones. The writer formats rows of Python floats.

Feature files are little-endian binary: magic ``ALFT`` and a u32 version,
which ``files.write_binary`` writes and ``files.read_binary`` checks, u64
frame count, u64 dim, then per row a u32-length-prefixed UTF-8 frame id and
``dim`` float64 values, which must be finite. When every frame id takes the
same number of bytes L, as generated ids do, the rows are one record array
(u32 length, L id bytes, ``dim`` float64): the writer fills it and writes one
``tobytes``, and the reader takes it as a view when the file is exactly that
long for the first row's L and every length field is L, then decodes the ids
row by row and copies the values with one assignment. Ragged ids, and every
file the view does not fit or whose ids do not decode, go through a walk of
the rows, one at a time, which alone says what is wrong with a file.

A sample's nearest-anchor label is the lowest index of the minimum of its row
of the squared-distance table ``(ax - px)**2 + (ay - py)**2`` over the N
anchors. A table larger than one row block is searched through a grid of
square cells first: a sample in the anchors' box reads only the anchors of
the 3 x 3 cells around its own, and its label is settled when its minimum
there lies within the radius the block certifies, a cell's side less a
rounding slack; every distance it compares is the table's own entry. Other
samples (an empty block, a nearest anchor farther than that radius, a
sample outside the box, a box of zero or non-finite extent) take the argmin
of their whole table rows, so every label equals the full-table argmin.

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

# Elements of the (rows, N) squared-distance table that _nearest_anchors
# holds at a time (1 MB); each row's argmin is the same as over the whole table.
_NEAREST_BLOCK = 2**17
# The fraction of a cell's side that _nearest_in_cells gives up to rounding.
_CELL_SLACK = 1e-6

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
    """The records of a pose text file, in order. Each line is split and its
    field count checked, then every float field of the lines up to the first
    short one goes through Python's ``float`` in one pass; only when that
    pass fails are the fields walked again to find the line of the first bad
    one. The quaternion norms are then checked and renormalized together, as
    :class:`geometry.Pose` would one at a time; an error names the file and
    the first faulty line."""
    fields, numbers = [], []
    stop = None
    for n, parts in enumerate(map(str.split, read_lines(path)), start=1):
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 8:
            stop = ParseError(f"expected 8 whitespace-separated fields, got {len(parts)}", n,
                              path)
            break
        fields += parts
        numbers.append(n)
    ids = fields[::8]
    del fields[::8]
    try:
        values = np.fromiter(map(float, fields), np.float64, len(fields))
    except ValueError:
        for j, field in enumerate(fields):
            try:
                float(field)
            except ValueError as err:
                row = j // 7
                stop = ParseError(f"bad float field: {err}", numbers[row], path)
                break
        del ids[row:], fields[7 * row:]
        values = np.fromiter(map(float, fields), np.float64, len(fields))
    values = values.reshape(len(ids), 7)
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
    count, dim = feats.shape
    encoded = []
    for fid in frame_ids:
        try:
            encoded.append(fid.encode())
        except UnicodeEncodeError:
            raise InvalidInputError(f"frame id {fid!r} holds a lone surrogate, which UTF-8 "
                                    "cannot encode") from None
    parts = [count.to_bytes(8, "little"), dim.to_bytes(8, "little")]
    idlen = len(encoded[0]) if encoded else 0
    if all(len(enc) == idlen for enc in encoded):
        rows = np.empty(count, _feature_rows(idlen, dim))
        rows["n"] = idlen
        rows["id"] = np.frombuffer(b"".join(encoded), np.uint8).reshape(count, idlen)
        rows["x"] = feats
        parts.append(rows.tobytes())
    else:
        body, width = memoryview(feats.tobytes()), 8 * dim
        for i, enc in enumerate(encoded):
            parts += [len(enc).to_bytes(4, "little"), enc, body[i * width:(i + 1) * width]]
    write_binary(path, _FEAT_MAGIC, _FEAT_VERSION, parts)


def _feature_rows(idlen: int, dim: int) -> np.dtype:
    """The rows of a feature file whose frame ids all take ``idlen`` bytes."""
    return np.dtype([("n", "<u4"), ("id", "u1", (idlen,)), ("x", "<f8", (dim,))])


def load_features(path) -> tuple[list[str], np.ndarray]:
    raw = read_binary(path, _FEAT_MAGIC, _FEAT_VERSION, "feature file")
    if len(raw) < 24:
        raise ParseError(f"{path}: truncated header ({len(raw)} bytes)")
    count = int.from_bytes(raw[8:16], "little")
    dim = int.from_bytes(raw[16:24], "little")
    # checked before allocating: every row takes at least 4 + 8 * dim bytes
    if count * (4 + 8 * dim) > len(raw) - 24:
        raise ParseError(f"{path}: {count} rows of dim {dim} do not fit in {len(raw)} bytes")
    try:  # zero rows pass the size check above with any dim
        feats = np.empty((count, dim), dtype="<f8")
    except ValueError as err:
        raise ParseError(f"{path}: {count} rows of dim {dim}: {err}") from None
    # a file of equal-length ids is one record array; any other goes row by
    # row, and only that walk says what is wrong with a file
    idlen = int.from_bytes(raw[24:28], "little")
    ids = None
    if count and len(raw) == 24 + count * (4 + idlen + 8 * dim):
        rows = np.frombuffer(raw, _feature_rows(idlen, dim), count, 24)
        if (rows["n"] == idlen).all():
            blob = rows["id"].tobytes()
            try:
                ids = [blob[i * idlen:(i + 1) * idlen].decode() for i in range(count)]
            except UnicodeDecodeError:
                pass
            else:
                feats[...] = rows["x"]
    if ids is None:
        ids = _walk_feature_rows(path, raw, feats)
    finite = np.isfinite(feats).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DataIntegrityError(f"{path}: frame {ids[i]!r} (row {i}) has a non-finite feature")
    return ids, feats


def _walk_feature_rows(path, raw: bytes, feats: np.ndarray) -> list[str]:
    """The frame ids of a feature file's rows, walked one at a time; each
    row's values are copied as bytes into ``feats``, with no numpy call per row."""
    ids = []
    count, dim = feats.shape
    view, out = memoryview(raw), memoryview(feats.reshape(-1).view(np.uint8))
    width, off = 8 * dim, 24
    for i in range(count):
        idlen = int.from_bytes(raw[off:off + 4], "little")
        off += 4
        if off + idlen + width > len(raw):
            raise ParseError(f"{path}: truncated in row {i}")
        try:
            ids.append(raw[off:off + idlen].decode())
        except UnicodeDecodeError:
            raise ParseError(f"{path}: frame id of row {i} is not UTF-8") from None
        off += idlen
        out[i * width:(i + 1) * width] = view[off:off + width]
        off += width
    if off != len(raw):
        raise ParseError(f"{path}: {len(raw) - off} bytes after the last row")
    return ids


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
        return cls(frame_ids=list(poses.frame_ids), features=feats, positions=poses.positions,
                   orientations=poses.orientations, anchor_map=anchor_map,
                   nearest=_nearest_anchors(poses.positions, anchor_map.anchors),
                   visible_sets=visible_sets)


def _nearest_anchors(positions: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Index (n,) of the anchor (N, 2) closest in (x, y) to each row of
    ``positions`` (n, 3), the lowest index on a tie: each row's argmin in the
    squared-distance table ``(ax - px)**2 + (ay - py)**2``.

    A table of more than one row block goes through :func:`_nearest_in_cells`
    first; the rows it does not settle, or every row of a smaller table, take
    the argmin of their table rows, ``_NEAREST_BLOCK`` elements at a time."""
    n = len(positions)
    nearest = np.empty(n, dtype=np.intp)
    rows = np.arange(n)
    if n * len(anchors) > _NEAREST_BLOCK:
        rows = rows[~_nearest_in_cells(positions, anchors, nearest)]
    ax, ay = anchors.T
    step = max(1, _NEAREST_BLOCK // len(anchors))
    for s in range(0, len(rows), step):
        block = rows[s:s + step]
        px, py = positions[block, 0, None], positions[block, 1, None]
        nearest[block] = _squared_distances(ax, ay, px, py).argmin(axis=1)
    return nearest


def _squared_distances(ax, ay, px, py):
    """The table's entries, one expression for the cell grid and the row blocks."""
    return (ax - px) ** 2 + (ay - py) ** 2


def _nearest_in_cells(positions: np.ndarray, anchors: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A mask of the rows of ``positions`` whose nearest anchor a cell grid
    certifies; writes their labels, the table's argmins, into ``out``.

    The anchors are binned into square cells of side h, the longer side of
    their bounding box over 2 sqrt(N) (Bentley, Weide & Yao 1980), and sorted
    by (cell, index): a row's 3 x 3 block of cells is three runs of that
    order. Rows go in chunks of about one row block of entries (one row at
    least), so clustered anchors take no more memory than the table does.

    An anchor outside a row's block is more than h away, less the rounding
    of the cell arithmetic (under 4 Q units in the last place of h, for Q
    cells across, far below ``_CELL_SLACK``), so a block minimum below
    ``(h * (1 - _CELL_SLACK))**2`` is below every entry outside the block.
    Values that overflow settle nothing, and no numpy warning is raised."""
    settled = np.zeros(len(positions), dtype=bool)
    with np.errstate(all="ignore"):
        lo, hi = anchors.min(axis=0), anchors.max(axis=0)
        h = float((hi - lo).max() / (2 * np.sqrt(len(anchors))))
        if not np.finfo(float).tiny <= h < np.inf:  # a subnormal h could round off the slack
            return settled
        r = h * (1 - _CELL_SLACK)
        # cell (i, j) of the box is (i + 1) + width * (j + 1): a ring of empty
        # cells around the box keeps each run of three inside one row of cells
        width = int((hi[0] - lo[0]) / h) + 3

        def cell_of(xy):
            return np.floor((xy - lo) / h).astype(np.intp) @ [1, width] + width + 1

        cells = cell_of(anchors)
        order = np.argsort(cells, kind="stable")
        cells = cells[order]
        ax, ay = anchors[order].T.copy()
        # rows in the anchors' box; the others are left to the table
        rows = np.flatnonzero(((positions[:, :2] >= lo) & (positions[:, :2] <= hi)).all(axis=1))
        q = positions[rows, :2]
        runs = cell_of(q)[:, None] + [-width, 0, width]
        first = np.searchsorted(cells, runs - 1, side="left")
        counts = np.searchsorted(cells, runs + 1, side="right") - first
        per_row = counts.sum(axis=1)
        chunk = (np.cumsum(per_row) - per_row) // _NEAREST_BLOCK
        cuts = [0, *(np.flatnonzero(np.diff(chunk)) + 1), len(rows)]
        for a, b in zip(cuts, cuts[1:]):
            c, k = counts[a:b].ravel(), per_row[a:b]
            full = k > 0
            if not full.any():
                continue
            pos = np.arange(k.sum()) + np.repeat(first[a:b].ravel() - np.cumsum(c) + c, c)
            px, py = (np.repeat(v, k) for v in q[a:b].T)
            d2 = _squared_distances(ax[pos], ay[pos], px, py)
            starts = (np.cumsum(k) - k)[full]
            best = np.minimum.reduceat(d2, starts)
            ids = np.where(d2 == np.repeat(best, k[full]), order[pos], len(anchors))
            ok = best < r * r
            hit = rows[a:b][full][ok]
            out[hit] = np.minimum.reduceat(ids, starts)[ok]
            settled[hit] = True
    return settled


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
    paths = [os.path.join(data_dir, name)
             for name in (POSES_TRAIN, POSES_TEST, FEATURES_TRAIN, FEATURES_TEST)]
    train_poses, test_poses = map(load_pose_file, paths[:2])
    (train_ids, train_feats), (test_ids, test_feats) = map(load_features, paths[2:])
    _check_same_frames(paths[0], train_poses.frame_ids, paths[2], train_ids)
    _check_same_frames(paths[1], test_poses.frame_ids, paths[3], test_ids)
    return train_poses, train_feats, test_poses, test_feats


def _check_same_frames(poses_path, pose_ids, features_path, feature_ids) -> None:
    """DataIntegrityError naming both files, and the first row whose frame ids
    differ or else the two counts, unless the two lists are equal."""
    if pose_ids == feature_ids:
        return
    for i, (a, b) in enumerate(zip(pose_ids, feature_ids)):
        if a != b:
            raise DataIntegrityError(f"{poses_path}: row {i} is frame {a!r}, but row {i} of "
                                     f"{features_path} is {b!r}")
    raise DataIntegrityError(f"{poses_path}: {len(pose_ids)} frames, but {features_path} "
                             f"holds {len(feature_ids)}")


def load_dataset_dir(data_dir, k: int) -> SceneDataset:
    """Load the standard dataset directory layout and assemble with interval k."""
    train_poses, train_feats, test_poses, test_feats = load_dataset_files(data_dir)
    return assemble(train_poses, train_feats, k, test_poses, test_feats)
