import numpy as np
import pytest

from anchorloc import data
from anchorloc.errors import DataIntegrityError, InvalidInputError, ParseError
from anchorloc.geometry import Pose

from conftest import make_pose


class TestPoseLines:
    def test_basic_line(self):
        fid, pose = data.parse_pose_line("f0 1 2 3 1 0 0 0")
        assert fid == "f0"
        np.testing.assert_array_equal(pose.position, [1, 2, 3])
        np.testing.assert_array_equal(pose.orientation, [1, 0, 0, 0])

    def test_wrong_field_count(self):
        with pytest.raises(ParseError) as err:
            data.parse_pose_line("f0 1 2 3 1 0 0", line_number=4)
        assert err.value.line_number == 4

    def test_bad_float(self):
        with pytest.raises(ParseError):
            data.parse_pose_line("f0 1 2 3 one 0 0 0")

    def test_near_unit_quaternion_renormalized(self):
        _, pose = data.parse_pose_line("f0 0 0 0 1.0005 0 0 0")
        assert abs(np.linalg.norm(pose.orientation) - 1.0) < 1e-12

    def test_far_from_unit_rejected(self):
        with pytest.raises(DataIntegrityError):
            data.parse_pose_line("f0 0 0 0 1.5 0 0 0", line_number=2)

    def test_overflowing_norm_is_far_from_unit(self):
        with pytest.raises(DataIntegrityError, match="norm inf"):
            data.parse_pose_line("f0 0 0 0 1e200 0 0 0", line_number=2)

    def test_format_parse_round_trip_is_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            pose = Pose(position=rng.uniform(-1e3, 1e3, 3),
                        orientation=rng.standard_normal(4))
            line = data.format_pose_line("x", pose)
            _, parsed = data.parse_pose_line(line)
            assert np.array_equal(parsed.position, pose.position)
            assert np.array_equal(parsed.orientation, pose.orientation)


class TestPoseFiles:
    def test_comment_only_file(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("# one comment\n# another\n\n")
        assert data.load_pose_file(path) == []

    def test_serialize_load_bytes_stable(self, tmp_path, tiny_samples):
        train, _ = tiny_samples
        records = [(f"t{i:05d}", s.pose) for i, s in enumerate(train)]
        p1 = tmp_path / "a.txt"
        data.save_pose_file(p1, records)
        loaded = data.load_pose_file(p1)
        p2 = tmp_path / "b.txt"
        data.save_pose_file(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("f0 0 0 0 1 0 0 0\nbroken line\n")
        with pytest.raises(ParseError) as err:
            data.load_pose_file(path)
        assert err.value.line_number == 2


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

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ParseError):
            data.load_features(path)

    def test_row_count_mismatch_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError):
            data.save_features(tmp_path / "f.bin", ["a"], np.zeros((2, 3)))


class TestAssemble:
    def test_k1_gives_one_anchor_per_distinct_position(self):
        poses = [(f"p{i}", make_pose(float(i), 0.0)) for i in range(8)]
        feats = np.zeros((8, 3))
        scene = data.assemble(poses, feats, 1)
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
                assert np.array_equal(batch.offsets_at(idx), expected)

    def test_nearest_labels_match_geometry(self, tiny_samples):
        from anchorloc.geometry import nearest_anchor
        train, test = tiny_samples
        scene = data.from_simworld(train, test, k=9)
        for batch in (scene.train, scene.test):
            for i in range(len(batch)):
                assert batch.nearest[i] == nearest_anchor(
                    batch.positions[i], scene.anchor_map)

    def test_nearest_labels_across_row_blocks(self):
        from anchorloc.geometry import AnchorMap, nearest_anchor
        # a 200 x 100 grid of anchors in shuffled index order
        rng = np.random.default_rng(3)
        gx, gy = np.meshgrid(np.arange(200.0), np.arange(100.0))
        anchors = rng.permutation(np.c_[gx.ravel(), gy.ravel()])
        amap = AnchorMap(anchors=anchors, frame_interval=1)
        rows = max(1, data._NEAREST_BLOCK // len(amap))
        n = 3 * rows + rows // 2
        assert n % rows and n // rows >= 3
        # midway between two anchors, equidistant from four, and anywhere
        xy = np.floor(rng.uniform(0, [199, 99], size=(n, 2)))
        xy[0::3, 0] += 0.5
        xy[1::3] += 0.5
        xy[2::3] += rng.uniform(0, 1, size=xy[2::3].shape)
        poses = [make_pose(x, y) for x, y in xy]
        batch = data.SampleBatch.build([str(i) for i in range(n)], poses,
                                       np.zeros((n, 1)), amap)
        expected = [nearest_anchor(p.position, amap) for p in poses]
        assert batch.nearest.dtype == np.intp
        assert batch.nearest.tolist() == expected

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
        poses = [("a", make_pose(0, 0)), ("b", make_pose(1, 0))]
        with pytest.raises(InvalidInputError):
            data.assemble(poses, np.zeros((3, 2)), 1)


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
