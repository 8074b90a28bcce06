import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anchorloc import data, evaluation, model, optim
from anchorloc.errors import (AnchorLocError, DegenerateOrientationError, InvalidInputError,
                              NonFinitePoseError)
from anchorloc.evaluation import (co_located_anchors, discovery_stats, evaluate, reconstruct,
                                  reconstruct_pose, report_from_poses,
                                  sweep_anchor_interval)
from anchorloc.geometry import AnchorMap, Pose, yaw_quat
from anchorloc.loss import ORIENT_NORM_FLOOR, LossWeights
from anchorloc.model import BatchPrediction, NetworkSpec
from anchorloc.optim import TrainConfig

from conftest import make_pose, openblas_threads


def pred_with(logits, offsets, z=0.0, orient=(1, 0, 0, 0)):
    """A batch-of-one BatchPrediction."""
    return BatchPrediction(logits=np.asarray(logits, dtype=float)[None],
                           offsets=np.asarray(offsets, dtype=float)[None],
                           z_hat=np.array([float(z)]),
                           orient_raw=np.asarray(orient, dtype=float)[None])


# a head output: finite, huge, or not finite
OUTPUT = st.one_of(st.floats(-1e3, 1e3),
                   st.sampled_from([1e300, -1e300, math.inf, -math.inf, math.nan]))
# components whose squares underflow (to subnormals or to 0)
TINY = st.sampled_from([0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-170, -3e-160])


@st.composite
def raw_orientation(draw):
    """A raw orientation whose norm is 10**e times that of a direction in
    [-1, 1]^4, with e from just under log10(ORIENT_NORM_FLOOR) to 150; each
    component may instead be one whose square underflows."""
    e = draw(st.floats(-12.0, 150.0))
    return tuple(draw(TINY) if draw(st.booleans()) and draw(st.booleans())
                 else draw(st.floats(-1.0, 1.0)) * 10.0 ** e for _ in range(4))


RAW_ORIENTATION = raw_orientation()


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or its error as (class, message)."""
    try:
        return fn(*args)
    except AnchorLocError as err:
        return type(err), str(err)


class TestReconstructPose:
    def test_one_hot_perfect(self):
        amap = AnchorMap(anchors=np.array([[0.0, 0.0], [10.0, 0.0]]))
        pred = pred_with([40.0, 0.0], [[3.0, 4.0], [0.0, 0.0]], z=1.5)
        pose = reconstruct_pose(pred, amap)
        np.testing.assert_allclose(pose.position, [3.0, 4.0, 1.5])

    def test_argmax_tie_takes_lowest_index(self):
        amap = AnchorMap(anchors=np.array([[0.0, 0.0], [10.0, 0.0]]))
        pred = pred_with([2.0, 2.0], [[1.0, 0.0], [1.0, 0.0]])
        pose = reconstruct_pose(pred, amap)
        assert pose.position[0] == pytest.approx(1.0)

    def test_matches_direct_reimplementation(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            amap = AnchorMap(anchors=rng.uniform(-5, 5, (n, 2)))
            pred = pred_with(rng.standard_normal(n), rng.standard_normal((n, 2)),
                             z=rng.standard_normal(), orient=rng.standard_normal(4) + 0.2)
            pose = reconstruct_pose(pred, amap)
            j = max(range(n), key=lambda i: pred.logits[0, i])
            expected = amap.anchors[j] + pred.offsets[0, j]
            np.testing.assert_allclose(pose.position[:2], expected, atol=1e-12)

    def test_degenerate_orientation_raises(self):
        amap = AnchorMap(anchors=np.zeros((1, 2)))
        pred = pred_with([1.0], [[0.0, 0.0]], orient=np.zeros(4))
        with pytest.raises(DegenerateOrientationError):
            reconstruct_pose(pred, amap)

    def test_batch_rows_match_batches_of_one(self):
        rng = np.random.default_rng(2)
        n, B = 6, 9
        amap = AnchorMap(anchors=rng.uniform(-5, 5, (n, 2)))
        pred = BatchPrediction(logits=rng.standard_normal((B, n)),
                               offsets=rng.standard_normal((B, n, 2)),
                               z_hat=rng.standard_normal(B),
                               orient_raw=rng.standard_normal((B, 4)) + 0.2)
        pos, quats, j = reconstruct(pred, amap)
        for i in range(B):
            pose = reconstruct_pose(pred_with(pred.logits[i], pred.offsets[i], pred.z_hat[i],
                                              pred.orient_raw[i]), amap)
            assert pose.position.tobytes() == pos[i].tobytes()
            assert pose.orientation.tobytes() == quats[i].tobytes()
            assert j[i] == pred.logits[i].argmax()

    @pytest.mark.parametrize("field", ["z_hat", "argmax_offset"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_output_rejected(self, field, value):
        # Pose.adopt checks the position, with the constructor's message; the
        # orientation is finite whenever unit_orientation returns
        amap = AnchorMap(anchors=np.array([[0.0, 0.0], [10.0, 0.0]]))
        pred = pred_with([0.0, 3.0], [[0.0, 0.0], [1.0, 2.0]], z=1.0)
        if field == "z_hat":
            pred.z_hat[0] = value
        else:
            pred.offsets[0, 1, 0] = value
        with pytest.raises(InvalidInputError, match="finite"):
            reconstruct_pose(pred, amap)

    @settings(max_examples=300, deadline=None)
    @given(logits=st.lists(st.floats(-10, 10), min_size=1, max_size=4),
           offsets=st.lists(st.tuples(OUTPUT, OUTPUT), min_size=4, max_size=4),
           z=OUTPUT, orient=RAW_ORIENTATION)
    @example(logits=[0.0], offsets=[(1.0, 2.0)] * 4, z=3.0,
             orient=(ORIENT_NORM_FLOOR * (1 + 2**-40), 0.0, 0.0, 0.0))
    @example(logits=[0.0], offsets=[(1.0, 2.0)] * 4, z=3.0,
             orient=(1e150, -1e150, 1e150, 1e-170))
    @example(logits=[0.0], offsets=[(1e300, -1e300)] * 4, z=-1e300,
             orient=(2e-12, 5e-324, -1e-160, 0.0))
    @example(logits=[1.0, 0.0], offsets=[(math.nan, 0.0), (0.0, 0.0)] * 2, z=0.0,
             orient=(0.5, 0.5, 0.5, 0.5))
    @example(logits=[0.0], offsets=[(0.0, 0.0)] * 4, z=math.inf, orient=(0.0,) * 4)
    def test_is_the_constructors_pose_of_reconstructs_row(self, logits, offsets, z, orient):
        n = len(logits)
        amap = AnchorMap(anchors=np.linspace(-50.0, 50.0, 2 * n).reshape(n, 2))
        pred = pred_with(logits, offsets[:n], z, orient)

        def constructed():
            pos, quats, _ = reconstruct(pred, amap)
            return Pose(position=pos[0], orientation=quats[0])

        got, want = outcome(reconstruct_pose, pred, amap), outcome(constructed)
        if not isinstance(want, Pose):
            assert got == want
            return
        for name in ("position", "orientation"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_a_later_query_leaves_an_earlier_pose_as_it_was(self):
        spec, params, amap, rng = head_spec_params(6, seed=3)
        poses, snapshots = [], []
        for feature in rng.standard_normal((20, spec.input_dim)):
            pose = reconstruct_pose(model.forward(spec, params, feature), amap)
            poses.append(pose)
            snapshots.append(pose.position.tobytes() + pose.orientation.tobytes())
        assert len(set(snapshots)) == len(poses)
        assert [p.position.tobytes() + p.orientation.tobytes() for p in poses] == snapshots

    def test_anchor_map_of_another_size_rejected(self):
        amap = AnchorMap(anchors=np.zeros((3, 2)))
        with pytest.raises(InvalidInputError, match="size mismatch"):
            reconstruct(pred_with([1.0, 0.0], [[0.0, 0.0], [1.0, 0.0]]), amap)

    def test_unknown_mode_rejected(self):
        amap = AnchorMap(anchors=np.zeros((2, 2)))
        with pytest.raises(InvalidInputError, match="unknown reconstruction mode 'median'"):
            reconstruct(pred_with([1.0, 0.0], [[0.0, 0.0], [1.0, 0.0]]), amap, mode="median")

    def test_batch_of_more_than_one_rejected(self):
        amap = AnchorMap(anchors=np.zeros((1, 2)))
        pred = BatchPrediction(logits=np.zeros((2, 1)), offsets=np.zeros((2, 1, 2)),
                               z_hat=np.zeros(2), orient_raw=np.ones((2, 4)))
        with pytest.raises(InvalidInputError):
            reconstruct_pose(pred, amap)


def head_spec_params(n, seed=0):
    """A small anchor model over n anchors whose parameters, biases too, are
    all nonzero."""
    spec = NetworkSpec(input_dim=5, hidden_layers=(7, 6), num_anchors=n, seed=seed)
    rng = np.random.default_rng(seed)
    params = model.init(spec) + rng.uniform(-0.5, 0.5, model.param_count(spec))
    return spec, params, AnchorMap(anchors=rng.uniform(-50, 50, (n, 2))), rng


def materialised(pred):
    """The same prediction with its offsets table built: the full-head path."""
    return BatchPrediction(logits=pred.logits, offsets=pred.offsets, z_hat=pred.z_hat,
                           orient_raw=pred.orient_raw)


class TestArgmaxReadsOneAnchor:
    """forward_batch leaves the offsets head to its first use; argmax
    reconstruction reads only the argmax anchor's 2 weight rows and biases."""

    @pytest.mark.parametrize("n, tie", [(1, False), (20, False), (20, True), (2000, False),
                                        (2000, True)], ids=["1", "20", "20-tie", "2000", "2000-tie"])
    @pytest.mark.parametrize("B", [1, 9])
    def test_matches_the_materialised_offsets(self, B, n, tie):
        spec, params, amap, rng = head_spec_params(n)
        if tie:  # anchors 3 and n - 2 share every row's top logit: the lower one wins
            W, b = model._layer_table(spec, params)[2]  # two trunk layers, then logits
            W[:] = 0.0
            b[:] = rng.uniform(-1, 0, n)
            b[[3, n - 2]] = 2.0
        pred = model.forward_batch(spec, params, rng.standard_normal((B, 5)))
        pos, quats, j = reconstruct(pred, amap)
        ref_pos, ref_quats, ref_j = reconstruct(materialised(pred), amap)
        assert np.array_equal(j, ref_j) and np.array_equal(j, pred.logits.argmax(axis=1))
        if tie:
            assert np.all(j == 3)
        assert np.abs(pos - ref_pos).max() <= 1e-12
        assert pos[:, 2].tobytes() == ref_pos[:, 2].tobytes()
        assert quats.tobytes() == ref_quats.tobytes()

    @pytest.mark.parametrize("n", [1, 20, 2000])
    @pytest.mark.parametrize("B", [1, 9])
    def test_weighted_is_the_materialised_path_byte_for_byte(self, B, n):
        spec, params, amap, rng = head_spec_params(n, seed=1)
        x = rng.standard_normal((B, 5))
        bound = model.Bound(spec, params)
        full = materialised(model.prediction(bound, bound.forward(x)[-1]))
        got = reconstruct(model.forward_batch(spec, params, x), amap, "weighted")
        want = reconstruct(full, amap, "weighted")
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_no_batch_offsets_table_is_allocated(self):
        # a (B, N, 2) float64 table at N=2000, B=500 is 16 MB; the logits
        # table, half of that, is the largest array argmax evaluation needs
        spec, params, amap, rng = head_spec_params(2000, seed=2)
        B = 500
        poses = [make_pose(*rng.uniform(-50, 50, 2)) for _ in range(B)]
        landmarks = tuple((f"L{i}", tuple(amap.anchors[i])) for i in range(0, 2000, 100))
        visible = [frozenset(f"L{i}" for i in rng.choice(2000, 3) // 100 * 100)
                   for _ in range(B)]
        batch = batch_from_poses(poses, amap, rng.standard_normal((B, 5)), visible)
        table = B * 2000 * 2 * 8
        tracemalloc.start()
        try:
            for run in (lambda: evaluate(spec, params, batch, amap),
                        lambda: discovery_stats(spec, params, batch, amap, landmarks)):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                run()
                assert tracemalloc.get_traced_memory()[1] - base < table
        finally:
            tracemalloc.stop()


def batch_from_poses(poses, anchor_map, features=None, visible=None):
    n = len(poses)
    feats = features if features is not None else np.zeros((n, 3))
    return data.SampleBatch.build([f"s{i}" for i in range(n)], poses, feats,
                                  anchor_map, visible_sets=visible)


class TestReportFromPoses:
    def test_all_perfect(self):
        amap = AnchorMap(anchors=np.array([[0.0, 0.0], [4.0, 0.0]]))
        poses = [make_pose(0.5, 0.2, z=0.1, yaw=0.3), make_pose(3.0, -0.5, z=0.0, yaw=2.0)]
        batch = batch_from_poses(poses, amap)
        report = report_from_poses(batch.positions.copy(), batch.orientations.copy(),
                                   batch, np.zeros(2, dtype=int))
        assert report.median_translation_m == 0.0
        assert report.median_rotation_deg == pytest.approx(0.0, abs=1e-5)
        assert report.accuracy_2m_5deg == 1.0

    def test_threshold_edges(self):
        # 1.9 m / 4.9 deg counts; 2.1 m / 4.0 deg does not
        amap = AnchorMap(anchors=np.zeros((1, 2)))
        poses = [make_pose(0.0, 0.0, yaw=0.0), make_pose(0.0, 0.0, yaw=0.0)]
        batch = batch_from_poses(poses, amap)
        pred_xyz = np.array([[1.9, 0.0, 0.0], [2.1, 0.0, 0.0]])
        pred_q = np.stack([yaw_quat(np.radians(4.9)), yaw_quat(np.radians(4.0))])
        report = report_from_poses(pred_xyz, pred_q, batch, np.zeros(2, dtype=int))
        flags = [(t < 2.0 and r < 5.0) for t, r, _, _ in report.per_sample]
        assert flags == [True, False]
        assert report.accuracy_2m_5deg == 0.5

    def test_exact_threshold_not_counted(self):
        amap = AnchorMap(anchors=np.zeros((1, 2)))
        batch = batch_from_poses([make_pose(0, 0)], amap)
        report = report_from_poses(np.array([[2.0, 0.0, 0.0]]),
                                   np.array([[1.0, 0, 0, 0.0]]),
                                   batch, np.zeros(1, dtype=int))
        assert report.accuracy_2m_5deg == 0.0

    def test_empty_rejected(self):
        amap = AnchorMap(anchors=np.zeros((1, 2)))
        batch = batch_from_poses([], amap)
        with pytest.raises(InvalidInputError):
            report_from_poses(np.zeros((0, 3)), np.zeros((0, 4)), batch, np.zeros(0))

    @pytest.mark.parametrize("position", [(np.nan, 0.0, 0.0), (0.0, np.inf, 0.0),
                                          (1e308, -1e308, 0.0)], ids=["nan", "inf", "overflows"])
    def test_non_finite_translation_error_names_the_first_row(self, position):
        # a report of it would hold Infinity or NaN, which is not JSON
        amap = AnchorMap(anchors=np.zeros((1, 2)))
        batch = batch_from_poses([make_pose(0, 0)] * 4, amap)
        pred_xyz = np.zeros((4, 3))
        pred_xyz[[1, 3]] = position
        with pytest.raises(NonFinitePoseError, match="test row 1 "):
            report_from_poses(pred_xyz, batch.orientations.copy(), batch, np.zeros(4, dtype=int))


class TestEvaluateNetwork:
    def test_evaluate_runs_and_is_deterministic(self, tiny_samples):
        train, test = tiny_samples
        scene = data.from_simworld(train, test, k=10)
        # tanh trunk: an untrained relu net can zero out for unlucky inputs
        spec = NetworkSpec(input_dim=scene.train.features.shape[1], hidden_layers=(8,),
                           num_anchors=scene.num_anchors, activation="tanh", seed=2)
        params = model.init(spec)
        a = evaluate(spec, params, scene.test, scene.anchor_map)
        b = evaluate(spec, params, scene.test, scene.anchor_map)
        assert a.per_sample == b.per_sample
        assert np.isfinite(a.median_translation_m)

    def test_weighted_equals_argmax_for_one_hot(self, tiny_samples):
        train, test = tiny_samples
        scene = data.from_simworld(train, test, k=10)
        spec = NetworkSpec(input_dim=scene.train.features.shape[1], hidden_layers=(8,),
                           num_anchors=scene.num_anchors, activation="tanh", seed=2)
        params = model.init(spec)
        W, b = model._layer_table(spec, params)[1]  # the trunk layer, then the logits head
        W[:] = 0.0
        b[:] = 0.0
        b[1] = 50.0  # every sample puts all its confidence on anchor 1
        a = evaluate(spec, params, scene.test, scene.anchor_map, mode="argmax")
        b = evaluate(spec, params, scene.test, scene.anchor_map, mode="weighted")
        np.testing.assert_allclose(np.array(a.per_sample), np.array(b.per_sample),
                                   rtol=0, atol=1e-12)


class TestDiscovery:
    def make_world_batch(self):
        # anchors at x = 0, 1, 2, 3; landmarks on anchors 1 and 2
        amap = AnchorMap(anchors=np.array([[0.0, 0], [1.0, 0], [2.0, 0], [3.0, 0]]))
        landmarks = (("L1", (1.0, 0.0)), ("L2", (2.0, 0.0)))
        poses = [make_pose(1.1, 0.0), make_pose(1.9, 0.0), make_pose(0.1, 0.0)]
        visible = [frozenset({"L2"}), frozenset({"L1", "L2"}), frozenset({"L1"})]
        batch = batch_from_poses(poses, amap, visible=visible)
        return amap, landmarks, batch

    def test_co_located_mapping(self):
        amap, landmarks, _ = self.make_world_batch()
        assert co_located_anchors(amap, landmarks) == {1: "L1", 2: "L2"}

    def test_oracle_predictor_scores_one(self):
        amap, landmarks, batch = self.make_world_batch()
        # sample 0 qualifies (nearest anchor 1, L1 not visible); an oracle that
        # picks an anchor with a visible landmark must score 1.0
        spec = NetworkSpec(input_dim=3, hidden_layers=(2,), num_anchors=4, seed=0)
        params = model.init(spec)
        W, b = model._layer_table(spec, params)[1]  # the trunk layer, then the logits head
        W[:] = 0.0
        b[:] = np.array([0.0, 0.0, 50.0, 0.0])  # always picks anchor 2
        s, q = discovery_stats(spec, params, batch, amap, landmarks)
        assert (s, q) == (1, 1)

    def test_nearest_baseline_scores_zero(self):
        amap, landmarks, batch = self.make_world_batch()
        spec = NetworkSpec(input_dim=3, hidden_layers=(2,), num_anchors=4, seed=0)
        params = model.init(spec)
        W, b = model._layer_table(spec, params)[1]  # the trunk layer, then the logits head
        W[:] = 0.0
        b[:] = np.array([0.0, 50.0, 0.0, 0.0])  # always picks anchor 1
        s, q = discovery_stats(spec, params, batch, amap, landmarks)
        assert (s, q) == (0, 1)

    def test_no_qualifying_sample_gives_zero_of_zero(self):
        amap, landmarks, batch = self.make_world_batch()
        all_visible = [frozenset({"L1", "L2"})] * 3
        batch2 = data.SampleBatch(frame_ids=batch.frame_ids, features=batch.features,
                                  positions=batch.positions,
                                  orientations=batch.orientations,
                                  anchor_map=batch.anchor_map, nearest=batch.nearest,
                                  visible_sets=all_visible)
        spec = NetworkSpec(input_dim=3, hidden_layers=(2,), num_anchors=4, seed=0)
        assert discovery_stats(spec, model.init(spec), batch2, amap, landmarks) == (0, 0)

    def test_requires_visibility_ground_truth(self):
        amap, landmarks, batch = self.make_world_batch()
        batch.visible_sets = None
        spec = NetworkSpec(input_dim=3, hidden_layers=(2,), num_anchors=4, seed=0)
        with pytest.raises(InvalidInputError):
            discovery_stats(spec, model.init(spec), batch, amap, landmarks)


@pytest.fixture(scope="module")
def tiny_scene(tiny_samples):
    scene = data.from_simworld(*tiny_samples, k=10)
    spec = NetworkSpec(input_dim=scene.train.features.shape[1], hidden_layers=(16,),
                       num_anchors=scene.num_anchors, seed=5)
    return scene, spec


def test_discovery_overflow_raises_only_the_packages_error(tiny_world, tiny_scene):
    # as in evaluate: numpy's overflow stays quiet, and logits that are not
    # finite are the package's error, not an argmax
    scene, spec = tiny_scene
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFinitePoseError, match="logits of test row 0 are not finite"):
            discovery_stats(spec, model.init(spec) * 1e160, scene.test, scene.anchor_map,
                            tiny_world.landmarks)


def test_discovery_runs_at_one_thread_and_restores_the_count(tiny_world, tiny_scene,
                                                             monkeypatch):
    scene, spec = tiny_scene
    get, put = openblas_threads()
    seen = []
    forward = model.Bound.forward
    monkeypatch.setattr(model.Bound, "forward",
                        lambda net, x: seen.append(get()) or forward(net, x))
    before = get()
    put(2)
    try:
        discovery_stats(spec, model.init(spec), scene.test, scene.anchor_map,
                        tiny_world.landmarks)
        assert get() == 2
    finally:
        put(before)
    assert seen == [1]


@pytest.fixture(scope="module")
def raw(tiny_samples):
    train, test = tiny_samples
    train_poses = data.PoseTable([f"t{i}" for i in range(len(train))], train.positions,
                                 train.orientations)
    test_poses = data.PoseTable([f"e{i}" for i in range(len(test))], test.positions,
                                test.orientations)
    return train_poses, train.features, test_poses, test.features


class TestSweep:
    def test_single_k_matches_standalone_run(self, raw, tiny_samples):
        train_poses, tf, test_poses, ef = raw
        tpl = NetworkSpec(input_dim=tf.shape[1], hidden_layers=(8,), num_anchors=1, seed=3)
        cfg = TrainConfig(epochs=2, shuffle_seed=5, weights=LossWeights())
        rows = sweep_anchor_interval(train_poses, tf, test_poses, ef, [10], tpl, cfg)

        train_s, test_s = tiny_samples
        scene = data.from_simworld(train_s, test_s, k=10)
        spec = NetworkSpec(input_dim=tf.shape[1], hidden_layers=(8,),
                           num_anchors=scene.num_anchors, seed=3)
        report = optim.train(scene.train, spec, cfg)
        ev = evaluate(spec, report.params, scene.test, scene.anchor_map)
        assert rows[0].median_m == ev.median_translation_m
        assert rows[0].accuracy == ev.accuracy_2m_5deg
        assert rows[0].num_anchors == scene.num_anchors

    def test_deterministic_csv_bytes(self, raw, tmp_path):
        train_poses, tf, test_poses, ef = raw
        tpl = NetworkSpec(input_dim=tf.shape[1], hidden_layers=(8,), num_anchors=1, seed=3)
        cfg = TrainConfig(epochs=2, shuffle_seed=5, weights=LossWeights())
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            out.mkdir()
            evaluation.write_sweep_csv(out / "sweep.csv", sweep_anchor_interval(
                train_poses, tf, test_poses, ef, [5, 10], tpl, cfg))
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()

    def test_empty_k_list_rejected(self, raw):
        train_poses, tf, test_poses, ef = raw
        tpl = NetworkSpec(input_dim=tf.shape[1], hidden_layers=(8,), num_anchors=1, seed=3)
        with pytest.raises(InvalidInputError):
            sweep_anchor_interval(train_poses, tf, test_poses, ef, [],
                                  tpl, TrainConfig(epochs=1))

    def test_artifacts_written(self, raw, tmp_path):
        train_poses, tf, test_poses, ef = raw
        tpl = NetworkSpec(input_dim=tf.shape[1], hidden_layers=(8,), num_anchors=1, seed=3)
        cfg = TrainConfig(epochs=1, shuffle_seed=5)
        rows = sweep_anchor_interval(train_poses, tf, test_poses, ef, [8, 16], tpl, cfg)
        evaluation.write_sweep_csv(tmp_path / "sweep.csv", rows)
        evaluation.write_sweep_svg(tmp_path / "sweep.svg", rows)
        text = (tmp_path / "sweep.csv").read_text()
        assert text.splitlines()[0] == "k,N,median_m,median_deg,accuracy"
        assert len(text.splitlines()) == 3
        assert (tmp_path / "sweep.svg").read_text().startswith("<svg")
