import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anchorloc import data
from anchorloc.errors import DataIntegrityError, InvalidInputError, ParseError
from anchorloc.files import fmt
from anchorloc.geometry import AnchorMap, Pose

from conftest import make_pose, nearest_anchor


@st.composite
def anchor_scenes(draw):
    """(anchors (N, 2), queries (n, 2)) on a half-unit lattice, scaled by
    10**-6 to 10**6: anchors in a row, a column, the plane or alone, drawn
    with repeats; queries on anchors, midway between two or four, just
    outside the anchors' box or far from it."""
    shape = draw(st.sampled_from(["plane", "row", "column", "one"]))
    count = 1 if shape == "one" else draw(st.integers(2, 40))
    pool = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1,
                         max_size=count))
    anchors = np.array(draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count)),
                       dtype=float)
    if shape == "row":
        anchors[:, 1] = 2.0
    elif shape == "column":
        anchors[:, 0] = -1.0
    half = st.integers(-16, 16).map(lambda v: v / 2)
    near = st.tuples(half, half)
    far = st.tuples(st.integers(-10**6, 10**6), st.sampled_from([-10**6, 10**6]))
    queries = draw(st.lists(near | far.map(lambda q: q[::-1]) | far, min_size=1, max_size=40))
    scale = 10.0 ** draw(st.integers(-6, 6))
    return anchors * scale, np.array(queries, dtype=float) * scale


def read_pose_lines(tmp_path, *lines):
    """The pose table of a file of ``lines``; a line's records are one-line files."""
    path = tmp_path / "poses.txt"
    path.write_text("".join(line + "\n" for line in lines))
    return data.load_pose_file(path)


class TestPoseLines:
    def test_basic_line(self, tmp_path):
        poses = read_pose_lines(tmp_path, "f0 1 2 3 1 0 0 0")
        assert poses.frame_ids == ["f0"]
        np.testing.assert_array_equal(poses.positions, [[1, 2, 3]])
        np.testing.assert_array_equal(poses.orientations, [[1, 0, 0, 0]])

    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(ParseError) as err:
            read_pose_lines(tmp_path, "# header", "f0 1 2 3 1 0 0 0", "", "f1 1 2 3 1 0 0")
        assert err.value.line_number == 4

    def test_bad_float(self, tmp_path):
        with pytest.raises(ParseError):
            read_pose_lines(tmp_path, "f0 1 2 3 one 0 0 0")

    def test_near_unit_quaternion_renormalized(self, tmp_path):
        poses = read_pose_lines(tmp_path, "f0 0 0 0 1.0005 0 0 0")
        assert abs(np.linalg.norm(poses.orientations[0]) - 1.0) < 1e-12

    def test_far_from_unit_rejected(self, tmp_path):
        with pytest.raises(DataIntegrityError, match="line 2: "):
            read_pose_lines(tmp_path, "f0 0 0 0 1 0 0 0", "f1 0 0 0 1.5 0 0 0")

    def test_overflowing_norm_is_far_from_unit(self, tmp_path):
        with pytest.raises(DataIntegrityError, match="norm inf"):
            read_pose_lines(tmp_path, "f0 0 0 0 1e200 0 0 0")

    def test_format_parse_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        poses = [Pose(position=rng.uniform(-1e3, 1e3, 3), orientation=rng.standard_normal(4))
                 for _ in range(200)]
        table = data.PoseTable.of(["x"] * 200, poses)
        data.save_pose_file(tmp_path / "poses.txt", table)
        parsed = data.load_pose_file(tmp_path / "poses.txt")
        assert np.array_equal(parsed.positions, table.positions)
        assert np.array_equal(parsed.orientations, table.orientations)

    def test_renormalizes_each_line_as_pose_does(self, tmp_path):
        # norms within the file tolerance, some within 1e-12 of unit, which Pose keeps
        rng = np.random.default_rng(4)
        quats = rng.standard_normal((300, 4))
        quats /= np.linalg.norm(quats, axis=1)[:, None]
        quats *= 1.0 + rng.choice([0.0, 3e-13, -7e-13, 1e-9, -4e-4, 9e-4], size=(300, 1))
        lines = [f"f{i} 0 0 0 " + " ".join(format(v, ".17g") for v in q)
                 for i, q in enumerate(quats)]
        poses = read_pose_lines(tmp_path, *lines)
        want = np.array([Pose(position=np.zeros(3), orientation=q).orientation for q in quats])
        assert poses.orientations.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lines, error, message", [
        (["f0 1 2 3 1 0 0 0", "f1 1 2 3 1 0 0"], ParseError,
         "line 2: expected 8 whitespace-separated fields, got 7"),
        (["f0 1 2 3 1 0 0 0", "f1 1 2 x 1 0 0 0"], ParseError, "line 2: bad float field: "),
        (["f0 1 2 3 1 0 0 0", "f1 1 2 3 1.5 0 0 0"], DataIntegrityError,
         "line 2: quaternion norm 1.5 is more than 0.001 from unit"),
        (["f0 1 2 3 1 0 0 0", "f1 1 inf 3 1 0 0 0"], InvalidInputError,
         "line 2: pose components must be finite"),
        (["f0 1 2 3 1 0 0 nan"], InvalidInputError, "line 1: pose components must be finite"),
        # the first faulty line decides, whatever its fault and the later one's
        (["# c", "f0 1 2 3 2 0 0 0", "f1 1 2 3"], DataIntegrityError, "line 2: quaternion"),
        (["f0 1 2 3", "f1 1 2 3 2 0 0 0"], ParseError, "line 1: expected 8"),
        (["f0 nan 2 3 1 0 0 0", "f1 1 2 3 2 0 0 0"], InvalidInputError, "line 1: pose"),
        (["f0 1 2 x 1 0 0 0", "f1 1 2 3"], ParseError,
         "line 1: bad float field: could not convert string to float: 'x'"),
        (["f0 1 2 3 1 0 0 0", "f1 y 2 3 1 0 0 0", "f2 1 2 3 1 0 0 0", "f3 z 2 3 1 0 0 0"],
         ParseError, "line 2: bad float field: could not convert string to float: 'y'"),
        (["f0 1 2 3", "f1 1 2 x 1 0 0 0"], ParseError, "line 1: expected 8"),
        (["f0 1 2 3 2 0 0 0", "f1 1 2 x 1 0 0 0"], DataIntegrityError,
         "line 1: quaternion norm 2 is more than 0.001 from unit"),
    ], ids=["short", "bad-float", "far-norm", "inf", "nan-quat", "norm-first", "short-first",
            "nan-first", "bad-float-first", "bad-float-before-bad-float",
            "short-before-bad-float", "norm-before-bad-float"])
    def test_an_error_names_the_file_and_its_line(self, tmp_path, lines, error, message):
        with pytest.raises(error) as err:
            read_pose_lines(tmp_path, *lines)
        assert str(err.value).startswith(f"{tmp_path / 'poses.txt'}, {message}")

    def test_a_field_reads_as_python_float_reads_it(self, tmp_path):
        # underscores, a bare sign and point, and digits of other scripts
        poses = read_pose_lines(tmp_path, "f0 1_0 +.5 \u0661\u0662.\u0665 1 -0 0_0 \uff10")
        assert poses.positions.tolist() == [[10.0, 0.5, 12.5]]
        assert poses.orientations.tobytes() == np.array([[1.0, -0.0, 0.0, 0.0]]).tobytes()
        with pytest.raises(InvalidInputError, match="line 1: pose components must be finite"):
            read_pose_lines(tmp_path, "f0 Infinity 0 0 1 0 0 0")


class TestPoseFiles:
    def test_comment_only_file(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("# one comment\n# another\n\n")
        poses = data.load_pose_file(path)
        assert len(poses) == 0 and poses.frame_ids == []
        assert poses.positions.shape == (0, 3) and poses.orientations.shape == (0, 4)

    def test_serialize_load_bytes_stable(self, tmp_path, tiny_samples):
        train, _ = tiny_samples
        records = data.PoseTable([f"t{i:05d}" for i in range(len(train))], train.positions,
                                 train.orientations)
        p1 = tmp_path / "a.txt"
        data.save_pose_file(p1, records)
        loaded = data.load_pose_file(p1)
        p2 = tmp_path / "b.txt"
        data.save_pose_file(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_lines_are_each_field_through_fmt(self, tmp_path):
        # the writer formats whole rows; each field must read as files.fmt writes it
        rng = np.random.default_rng(6)
        positions = rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-300, 300, size=(50, 3))
        positions[0] = [-0.0, 5e-324, 1.7976931348623157e308]
        orientations = rng.standard_normal((50, 4))
        orientations /= np.linalg.norm(orientations, axis=1)[:, None]
        table = data.PoseTable([f"f{i}" for i in range(50)], positions, orientations)
        data.save_pose_file(tmp_path / "poses.txt", table)
        want = "".join(" ".join([fid, *map(fmt, row)]) + "\n" for fid, row in
                       zip(table.frame_ids, np.hstack([positions, orientations])))
        assert (tmp_path / "poses.txt").read_text() == want

    @settings(max_examples=200, deadline=None)
    @given(fid=st.text(st.one_of(st.characters(), st.sampled_from(" \t\n\r#"))))
    @example(fid="#x")
    @example(fid="a b")
    @example(fid="")
    @example(fid="f\ud800")
    def test_a_frame_id_reads_back_or_is_rejected(self, tmp_path_factory, fid):
        path = tmp_path_factory.mktemp("ids") / "poses.txt"
        try:
            data.save_pose_file(path, data.PoseTable.of(
                [fid, "f1"], [make_pose(1.0, 2.0), make_pose(3.0, 4.0)]))
        except InvalidInputError:
            assert not any(path.parent.iterdir())
            return
        assert data.load_pose_file(path).frame_ids == [fid, "f1"]

    @pytest.mark.parametrize("fid", ["#x", "a b", "", " x", "x\n", "a\u2028b", "f\ud800"])
    def test_a_frame_id_a_pose_file_cannot_carry_is_rejected(self, tmp_path, fid):
        with pytest.raises(InvalidInputError, match="frame id"):
            data.save_pose_file(tmp_path / "poses.txt",
                                data.PoseTable.of([fid], [make_pose(1.0, 2.0)]))
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("first, second", [("a b", "#x"), ("#x", ""), ("f\ud800", "a b"),
                                               ("", "f\ud800"), ("#x", "#y"),
                                               ("f\ud800", "g\udfff"), ("a\tb", "c\u2028d")])
    def test_the_first_of_two_bad_frame_ids_is_named(self, tmp_path, first, second):
        ids = ["f0", first, "f2", second, "f4"]
        with pytest.raises(InvalidInputError) as err:
            data.save_pose_file(tmp_path / "poses.txt",
                                data.PoseTable.of(ids, [make_pose(float(i), 0.0) for i in range(5)]))
        assert str(err.value) == (f"frame id {first!r} is empty, holds whitespace or a lone "
                                  "surrogate or starts with '#', so its pose line would not "
                                  "read back")
        assert not any(tmp_path.iterdir())

    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_bytes(b"f0 0 0 0 1 0 0 0\r\n# c\rf\xff1 0 0 0 1 0 0 0\n")
        with pytest.raises(ParseError) as err:
            data.load_pose_file(path)
        assert err.value.line_number == 3
        assert str(err.value).startswith(f"{path}, line 3: not a text file: ")

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("f0 0 0 0 1 0 0 0\nbroken line\n")
        with pytest.raises(ParseError) as err:
            data.load_pose_file(path)
        assert err.value.line_number == 2

    @pytest.mark.parametrize("positions, orientations", [
        (np.zeros((2, 3)), np.array([[1.0, 0, 0, 0]])),
        (np.zeros((1, 2)), np.array([[1.0, 0, 0, 0]])),
        (np.array([[0.0, np.inf, 0.0]]), np.array([[1.0, 0, 0, 0]])),
        (np.zeros((1, 3)), np.array([[np.nan, 0, 0, 0]]))],
        ids=["rows", "width", "inf", "nan"])
    def test_a_table_holds_one_finite_pose_per_frame_id(self, positions, orientations):
        with pytest.raises(InvalidInputError):
            data.PoseTable(["f0"], positions, orientations)


def feature_file_bytes(frame_ids, features) -> bytes:
    """The feature-file layout, field by field: magic, u32 version, u64 rows,
    u64 width, then per row a u32 byte length, the UTF-8 id and the values."""
    count, dim = features.shape
    out = [b"ALFT", struct.pack("<IQQ", 1, count, dim)]
    for fid, row in zip(frame_ids, features.tolist()):
        enc = fid.encode("utf-8")
        out.append(struct.pack(f"<I{len(enc)}s{dim}d", len(enc), enc, *row))
    return b"".join(out)


@st.composite
def feature_tables(draw):
    """(frame ids, features, bad row): ids all of one byte length (ASCII, or
    multi-byte ones of unequal character length) or ragged, empty ids, 0 rows,
    width 0; for ids of one non-zero length, perhaps a row whose id is to be
    made not UTF-8."""
    count = draw(st.integers(0, 6))
    shape = draw(st.sampled_from(["ascii", "multi-byte", "empty", "ragged"]))
    if shape == "ascii":
        size = draw(st.integers(1, 7))
        word = st.text(st.characters(max_codepoint=127), min_size=size, max_size=size)
    elif shape == "multi-byte":
        word = st.sampled_from(["\u00e9", "ab", "\u00fc", "z9"])
    elif shape == "empty":
        word = st.just("")
    else:
        word = st.text(st.characters(exclude_categories=["Cs"]), max_size=5)
    ids = draw(st.lists(word, min_size=count, max_size=count))
    dim = draw(st.integers(0, 4))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=count * dim, max_size=count * dim))
    bad = None
    if shape in ("ascii", "multi-byte") and count:
        bad = draw(st.none() | st.integers(0, count - 1))
    return ids, np.array(values, dtype=np.float64).reshape(count, dim), bad


class TestFeatureFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        ids = [f"fr{i}" for i in range(17)]
        feats = rng.standard_normal((17, 6))
        path = tmp_path / "f.bin"
        data.save_features(path, ids, feats)
        ids2, feats2 = data.load_features(path)
        assert ids2 == ids
        assert np.array_equal(feats, feats2)
        path2 = tmp_path / "g.bin"
        data.save_features(path2, ids2, feats2)
        assert path.read_bytes() == path2.read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(table=feature_tables())
    @example(table=(["ab", "c", "def"], np.zeros((3, 2)), None))  # ragged, of a uniform size
    @example(table=(["\u00e9", "ab"], np.ones((2, 1)), None))
    @example(table=(["", ""], np.ones((2, 0)), None))
    @example(table=([], np.ones((0, 3)), None))
    @example(table=(["fr0", "fr1", "fr2"], np.ones((3, 2)), 2))
    def test_bytes_are_the_documented_layout(self, tmp_path_factory, table):
        ids, feats, bad = table
        path = tmp_path_factory.mktemp("feats") / "f.bin"
        data.save_features(path, ids, feats)
        want = feature_file_bytes(ids, feats)
        assert path.read_bytes() == want
        if bad is not None:  # the first byte of row bad's id
            row = len(want[24:]) // len(ids)
            path.write_bytes(want[:24 + bad * row + 4] + b"\xff" + want[24 + bad * row + 5:])
            with pytest.raises(ParseError, match=f": frame id of row {bad} is not UTF-8$"):
                data.load_features(path)
            return
        ids2, feats2 = data.load_features(path)
        assert ids2 == ids
        assert feats2.shape == feats.shape and feats2.tobytes() == feats.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ParseError):
            data.load_features(path)

    def test_row_count_mismatch_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError):
            data.save_features(tmp_path / "f.bin", ["a"], np.zeros((2, 3)))

    def test_a_frame_id_utf8_cannot_encode_is_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError, match="frame id"):
            data.save_features(tmp_path / "f.bin", ["f0", "f\ud800"], np.zeros((2, 3)))
        assert not any(tmp_path.iterdir())


class TestAssemble:
    def test_k1_gives_one_anchor_per_distinct_position(self):
        poses = data.PoseTable.of([f"p{i}" for i in range(8)],
                                  [make_pose(float(i), 0.0) for i in range(8)])
        feats = np.zeros((8, 3))
        scene = data.assemble(poses, feats, 1, data.PoseTable.of([], []), np.zeros((0, 3)))
        assert scene.num_anchors == 8

    def test_batch_offsets_match_geometry_exactly(self, tiny_samples):
        train, test = tiny_samples
        scene = data.from_simworld(train, test, k=7)
        rng = np.random.default_rng(0)
        for batch in (scene.train, scene.test):
            for size in (1, 5, len(batch)):
                idx = rng.choice(len(batch), size=size, replace=False)
                # each sample's (x, y) in every anchor's origin
                expected = np.stack([batch.positions[i, :2] - scene.anchor_map.anchors
                                     for i in idx])
                assert np.array_equal(batch.offsets_at(batch.positions[idx]), expected)

    def test_nearest_labels_match_geometry(self, tiny_samples):
        train, test = tiny_samples
        scene = data.from_simworld(train, test, k=9)
        for batch in (scene.train, scene.test):
            for i in range(len(batch)):
                assert batch.nearest[i] == nearest_anchor(
                    batch.positions[i], scene.anchor_map)

    def test_nearest_labels_across_row_blocks(self):
        # a 200 x 100 grid of anchors in shuffled index order
        rng = np.random.default_rng(3)
        gx, gy = np.meshgrid(np.arange(200.0), np.arange(100.0))
        anchors = rng.permutation(np.c_[gx.ravel(), gy.ravel()])
        amap = AnchorMap(anchors=anchors)
        rows = max(1, data._NEAREST_BLOCK // len(amap))
        n = 3 * rows + rows // 2
        assert n % rows and n // rows >= 3
        # outside the anchors' box, where no cell grid settles a row: midway
        # between two anchors of the nearest edge, and anywhere
        xy = np.floor(rng.uniform(0, [199, 99], size=(n, 2)))
        xy[0::3, 0] += 0.5
        xy[0::3, 1] = -rng.integers(1, 4, size=xy[0::3].shape[0])
        xy[1::3, 1] += 0.5
        xy[1::3, 0] = 199 + rng.integers(1, 4, size=xy[1::3].shape[0])
        xy[2::3] = rng.uniform(-400, 600, size=xy[2::3].shape) - [[0, 1000]]
        positions = np.c_[xy, np.zeros(n)]
        assert not data._nearest_in_cells(positions, amap.anchors, np.empty(n, np.intp)).any()
        poses = [make_pose(x, y) for x, y in xy]
        batch = data.SampleBatch.build([str(i) for i in range(n)], poses,
                                       np.zeros((n, 1)), amap)
        expected = [nearest_anchor(p.position, amap) for p in poses]
        assert batch.nearest.dtype == np.intp
        assert batch.nearest.tolist() == expected

    def test_nearest_labels_of_grid_and_fallback_rows(self):
        # 2000 anchors scattered over a 60 m square, less a disc of radius 10 m
        rng = np.random.default_rng(4)
        anchors = rng.uniform(0, 60, size=(2600, 2))
        amap = AnchorMap(anchors=anchors[np.hypot(*(anchors - 30).T) > 10][:2000])
        assert len(amap) == 2000
        # anywhere in the square, in the disc, and outside the square
        xy = rng.uniform(0, 60, size=(900, 2))
        xy[600:750] = 30 + rng.uniform(-7, 7, size=(150, 2))
        xy[750:] += [[0, 61]]
        positions = np.c_[rng.permutation(xy), np.zeros(len(xy))]
        n = len(positions)
        settled = data._nearest_in_cells(positions, amap.anchors, np.empty(n, np.intp))
        assert 0 < settled.sum() < n
        batch = data.SampleBatch.of(data.PoseTable([str(i) for i in range(n)], positions,
                                                   np.tile([1.0, 0, 0, 0], (n, 1))),
                                    np.zeros((n, 1)), amap)
        assert batch.nearest.tolist() == [nearest_anchor(p, amap) for p in positions]

    @settings(max_examples=200, deadline=None)
    @given(scene=anchor_scenes())
    def test_nearest_labels_are_the_table_argmin(self, scene):
        anchors, xy = scene
        n = len(xy)
        poses = data.PoseTable([str(i) for i in range(n)], np.c_[xy, np.ones(n)],
                               np.tile([1.0, 0, 0, 0], (n, 1)))
        amap = AnchorMap(anchors=anchors)
        # one-element row blocks: every table of more than one element goes
        # through the cell grid, and each row it leaves is a block of its own
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_NEAREST_BLOCK", 1)
            batch = data.SampleBatch.of(poses, np.zeros((n, 1)), amap)
        assert batch.nearest.tolist() == [nearest_anchor(p, amap) for p in poses.positions]

    def test_anchor_count_by_index_rule(self, tiny_samples):
        train, test = tiny_samples
        k = 10
        scene = data.from_simworld(train, test, k=k)
        # index arithmetic oracle: every k-th frame, minus duplicate positions
        subsampled = [train[i].pose.xy for i in range(0, len(train), k)]
        uniq = []
        for p in subsampled:
            if not any(np.linalg.norm(p - q) < 1e-9 for q in uniq):
                uniq.append(p)
        assert scene.num_anchors == len(uniq)

    def test_anchors_from_training_only(self, tiny_samples):
        train, test = tiny_samples
        full = data.from_simworld(train, test, k=10)
        fewer_test = data.from_simworld(train, test[:5], k=10)
        assert np.array_equal(full.anchor_map.anchors, fewer_test.anchor_map.anchors)

    def test_count_mismatch_rejected(self):
        poses = data.PoseTable.of(["a", "b"], [make_pose(0, 0), make_pose(1, 0)])
        with pytest.raises(InvalidInputError):
            data.assemble(poses, np.zeros((3, 2)), 1, data.PoseTable.of([], []),
                          np.zeros((0, 2)))
        with pytest.raises(InvalidInputError):
            data.assemble(poses, np.zeros((2, 2)), 1, poses, np.zeros((1, 2)))


class TestDatasetDirectory:
    def test_export_and_load_match_in_memory(self, tmp_path, tiny_samples):
        train, test = tiny_samples
        data.export_dataset(tmp_path, train, test)
        for name in (data.POSES_TRAIN, data.POSES_TEST,
                     data.FEATURES_TRAIN, data.FEATURES_TEST):
            assert (tmp_path / name).exists()
        scene_file = data.load_dataset_dir(tmp_path, k=10)
        scene_mem = data.from_simworld(train, test, k=10)
        assert np.array_equal(scene_file.anchor_map.anchors, scene_mem.anchor_map.anchors)
        assert np.array_equal(scene_file.train.features, scene_mem.train.features)
        assert np.array_equal(scene_file.train.positions, scene_mem.train.positions)
        assert np.array_equal(scene_file.test.nearest, scene_mem.test.nearest)

    def test_export_deterministic_bytes(self, tmp_path, tiny_samples):
        train, test = tiny_samples
        a, b = tmp_path / "a", tmp_path / "b"
        data.export_dataset(a, train, test)
        data.export_dataset(b, train, test)
        for name in (data.POSES_TRAIN, data.POSES_TEST,
                     data.FEATURES_TRAIN, data.FEATURES_TEST):
            assert (a / name).read_bytes() == (b / name).read_bytes()
