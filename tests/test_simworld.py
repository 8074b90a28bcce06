import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracle_simworld as oracle
from anchorloc import geometry, simworld
from anchorloc.errors import InvalidInputError, InvalidSpecError
from anchorloc.simworld import (WorldSpec, default_world, generate, load_world_spec,
                                sample_features, save_world_spec, segments_intersect,
                                stadium_route, visibility)

from conftest import make_pose, nearest_anchor


def decode_distance(enc):
    """Inverse of ``simworld.encode_distance``."""
    return 1.0 / enc - 1.0


def segments_intersect_oracle(p1, p2, q1, q2, eps=1e-12):
    """Independent parametric solve with bounds checks."""
    p1, p2, q1, q2 = (np.asarray(v, dtype=float) for v in (p1, p2, q1, q2))
    d1, d2 = p2 - p1, q2 - q1
    A = np.column_stack([d1, -d2])
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    if abs(det) > 1e-14:
        t, s = np.linalg.solve(A, q1 - p1)
        return -eps <= t <= 1 + eps and -eps <= s <= 1 + eps
    # parallel: check collinearity then 1-D overlap
    if abs(np.cross(d1, q1 - p1)) > 1e-12:
        return False
    axis = 0 if abs(d1[0]) >= abs(d1[1]) else 1
    lo1, hi1 = sorted([p1[axis], p2[axis]])
    lo2, hi2 = sorted([q1[axis], q2[axis]])
    return hi1 >= lo2 - eps and hi2 >= lo1 - eps


class TestSegmentsIntersect:
    def test_plain_crossing(self):
        assert segments_intersect((0, 0), (2, 2), (0, 2), (2, 0))

    def test_disjoint(self):
        assert not segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))

    def test_touching_endpoint_counts(self):
        assert segments_intersect((0, 0), (1, 1), (1, 1), (2, 0))

    def test_collinear_overlap_counts(self):
        assert segments_intersect((0, 0), (2, 0), (1, 0), (3, 0))

    def test_matches_oracle_on_random_configs(self):
        rng = np.random.default_rng(11)
        disagreements = 0
        for _ in range(1000):
            pts = rng.uniform(-3, 3, size=(4, 2))
            ours = segments_intersect(pts[0], pts[1], pts[2], pts[3])
            ref = segments_intersect_oracle(pts[0], pts[1], pts[2], pts[3])
            disagreements += ours != ref
        assert disagreements == 0


class TestVisibility:
    def test_landmark_ahead_visible(self, tiny_world):
        pose = make_pose(1.0, 0.0, yaw=0.0)
        vis, bearing, dist = visibility(pose, (4.0, 0.0), tiny_world)
        assert vis and bearing == pytest.approx(0.0, abs=1e-12)
        assert dist == pytest.approx(3.0)

    def test_landmark_behind_invisible(self, tiny_world):
        pose = make_pose(1.0, 0.0, yaw=0.0)
        vis, bearing, _ = visibility(pose, (-2.0, 0.0), tiny_world)
        assert not vis
        assert abs(math.degrees(bearing)) == pytest.approx(180.0, abs=1e-9)

    def test_obstacle_blocks_midpoint_crossing(self):
        spec = WorldSpec(route=np.array([[0, 0], [10, 0]]), landmarks=(),
                         obstacles=(((5.0, -1.0), (5.0, 1.0)),))
        pose = make_pose(0.0, 0.0, yaw=0.0)
        vis, _, _ = visibility(pose, (10.0, 0.0), spec)
        assert not vis

    def test_fov_boundary(self):
        spec = WorldSpec(route=np.array([[0, 0], [1, 0]]), landmarks=(),
                         fov_half_angle=60.0)
        pose = make_pose(0.0, 0.0, yaw=0.0)
        just_in = (math.cos(math.radians(59.9)), math.sin(math.radians(59.9)))
        just_out = (math.cos(math.radians(60.1)), math.sin(math.radians(60.1)))
        assert visibility(pose, just_in, spec)[0]
        assert not visibility(pose, just_out, spec)[0]

    def test_occlusion_against_oracle_1000(self):
        rng = np.random.default_rng(12)
        spec = WorldSpec(route=np.array([[0, 0], [1, 0]]), landmarks=(),
                         obstacles=(((0, 0), (0, 0)),), fov_half_angle=179.0)
        mismatches = 0
        for _ in range(1000):
            cam = rng.uniform(-5, 5, size=2)
            lm = rng.uniform(-5, 5, size=2)
            a, b = rng.uniform(-5, 5, size=2), rng.uniform(-5, 5, size=2)
            blocked = segments_intersect_oracle(cam, lm, a, b)
            spec2 = WorldSpec(route=spec.route, landmarks=(), obstacles=((tuple(a), tuple(b)),),
                              fov_half_angle=179.0)
            yaw = math.atan2(lm[1] - cam[1], lm[0] - cam[0])  # look straight at it
            vis, _, _ = visibility(make_pose(cam[0], cam[1], yaw=yaw), lm, spec2)
            mismatches += vis != (not blocked)
        assert mismatches == 0


class TestFeatures:
    def test_invertible_for_visible_landmarks(self, tiny_world):
        pose = make_pose(1.0, 0.2, yaw=0.1)
        feat, visible = sample_features(pose, tiny_world)
        for i, (name, lm) in enumerate(tiny_world.landmarks):
            vis, bearing, dist = visibility(pose, lm, tiny_world)
            if vis:
                assert name in visible
                assert feat[3 * i] == 1.0
                assert feat[3 * i + 1] == pytest.approx(bearing, abs=1e-9)
                assert decode_distance(feat[3 * i + 2]) == pytest.approx(dist, abs=1e-9)

    def test_invisible_channels_zeroed(self, tiny_world):
        pose = make_pose(5.9, 1.0, yaw=0.0)  # landmark "b" directly behind
        feat, visible = sample_features(pose, tiny_world)
        for i, (name, _) in enumerate(tiny_world.landmarks):
            if name not in visible:
                assert feat[3 * i] == 0.0
                assert feat[3 * i + 1] == 0.0
                assert feat[3 * i + 2] == 0.0

    def test_feature_dim(self, tiny_world):
        assert tiny_world.feature_dim == 3 * len(tiny_world.landmarks)


class TestGenerate:
    def test_deterministic(self, tiny_world):
        a_train, a_test = generate(tiny_world, 50, 20)
        b_train, b_test = generate(tiny_world, 50, 20)
        for a, b in zip(a_train + a_test, b_train + b_test):
            assert np.array_equal(a.feature, b.feature)
            assert np.array_equal(a.pose.position, b.pose.position)
            assert a.visible_set == b.visible_set

    def test_counts(self, tiny_world):
        train, test = generate(tiny_world, 30, 7)
        assert len(train) == 30 and len(test) == 7

    def test_zero_counts_allowed(self, tiny_world):
        train, test = generate(tiny_world, 0, 5)
        assert train == [] and len(test) == 5

    def test_negative_counts_rejected(self, tiny_world):
        with pytest.raises(InvalidInputError):
            generate(tiny_world, -1, 0)

    def test_zero_length_route_rejected(self):
        spec = WorldSpec(route=np.array([[1.0, 1.0], [1.0, 1.0]]), landmarks=())
        with pytest.raises(InvalidSpecError):
            generate(spec, 5, 5)

    def test_train_test_disjoint_positions(self, tiny_world):
        train, test = generate(tiny_world, 80, 30)
        train_xy = {tuple(s.pose.position[:2]) for s in train}
        assert all(tuple(s.pose.position[:2]) not in train_xy for s in test)


class TestWorldSpecValidation:
    def test_route_needs_two_points(self):
        with pytest.raises(InvalidSpecError):
            WorldSpec(route=np.array([[0.0, 0.0]]), landmarks=())

    def test_fov_range(self):
        for bad in (0.0, 180.0, -5.0):
            with pytest.raises(InvalidSpecError):
                WorldSpec(route=np.array([[0, 0], [1, 0]]), landmarks=(),
                          fov_half_angle=bad)

    def test_duplicate_landmark_ids_rejected(self):
        with pytest.raises(InvalidSpecError):
            WorldSpec(route=np.array([[0, 0], [1, 0]]),
                      landmarks=(("x", (0, 0)), ("x", (1, 1))))

    @pytest.mark.parametrize("field", ["noise_sigma", "z_noise_amp"])
    def test_negative_noise_scale_rejected(self, field):
        # -v scales the same draws as v with the sign flipped: one value per noise
        route = np.array([[0, 0], [1, 0]])
        with pytest.raises(InvalidSpecError, match=f"{field} must be >= 0, got -0.02"):
            WorldSpec(route=route, landmarks=(), **{field: -0.02})
        assert getattr(WorldSpec(route=route, landmarks=(), **{field: 0.0}), field) == 0.0


class TestWorldSpecFile:
    def test_round_trip(self, tmp_path, tiny_world):
        path = tmp_path / "world.ini"
        save_world_spec(path, tiny_world)
        loaded = load_world_spec(path)
        assert np.array_equal(loaded.route, tiny_world.route)
        assert loaded.landmarks == tiny_world.landmarks
        assert loaded.obstacles == tiny_world.obstacles
        assert loaded.seed == tiny_world.seed
        # byte-stable second serialization
        path2 = tmp_path / "world2.ini"
        save_world_spec(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(name=st.text(st.one_of(st.characters(), st.sampled_from(" \t\n\r;:,#="))))
    @example(name="a;b")
    @example(name="x:y")
    @example(name=" lm")
    @example(name="lm ")
    @example(name="a\ud800")
    def test_a_landmark_name_reads_back_or_is_rejected(self, tmp_path_factory, name):
        # the name both first and last, where world.ini's separators and the
        # reader's stripping touch it
        try:
            spec = WorldSpec(route=[[0.0, 0.0], [1.0, 0.0]],
                             landmarks=((name, (0.5, 0.25)), (name + "'", (0.75, 0.5))))
        except InvalidSpecError:
            return
        path = tmp_path_factory.mktemp("names") / "world.ini"
        save_world_spec(path, spec)
        assert load_world_spec(path).landmarks == spec.landmarks

    @pytest.mark.parametrize("name", ["a;b", "x:y", " lm", "\tlm", "a\nb", "a\rb", "a\ud800"])
    def test_a_name_world_ini_cannot_carry_is_rejected(self, name):
        with pytest.raises(InvalidSpecError, match="landmark name"):
            WorldSpec(route=[[0.0, 0.0], [1.0, 0.0]], landmarks=((name, (0.5, 0.25)),))

    def test_loaded_world_generates_identical_samples(self, tmp_path, tiny_world):
        path = tmp_path / "world.ini"
        save_world_spec(path, tiny_world)
        loaded = load_world_spec(path)
        a, _ = generate(tiny_world, 20, 0)
        b, _ = generate(loaded, 20, 0)
        for s, t in zip(a, b):
            assert np.array_equal(s.feature, t.feature)


@pytest.fixture(scope="module")
def world():
    return default_world()


@pytest.fixture(scope="module")
def splits(world):
    return generate(world, simworld.DEFAULT_N_TRAIN, simworld.DEFAULT_N_TEST)


class TestDefaultWorld:
    """Frozen facts about the benchmark world; these pin the fixture."""

    def test_twenty_anchors(self, world, splits):
        train, _ = splits
        amap = geometry.build_anchor_map([s.pose for s in train],
                                         simworld.DEFAULT_FRAME_INTERVAL)
        assert len(amap) == 20

    def test_four_landmarks_two_obstacles(self, world):
        assert len(world.landmarks) == 4
        assert len(world.obstacles) == 2

    def test_landmarks_exactly_on_anchors(self, world, splits):
        train, _ = splits
        amap = geometry.build_anchor_map([s.pose for s in train],
                                         simworld.DEFAULT_FRAME_INTERVAL)
        for _, p in world.landmarks:
            d = np.linalg.norm(amap.anchors - np.asarray(p), axis=1)
            assert d.min() < 1e-9

    def test_no_blackout_samples(self, splits):
        train, test = splits
        assert all(s.visible_set for s in train)
        assert all(s.visible_set for s in test)

    def test_occluded_nearest_fraction_in_band(self, world, splits):
        train, test = splits
        amap = geometry.build_anchor_map([s.pose for s in train],
                                         simworld.DEFAULT_FRAME_INTERVAL)
        lm_anchor = {}
        for name, p in world.landmarks:
            d = np.linalg.norm(amap.anchors - np.asarray(p), axis=1)
            lm_anchor[int(d.argmin())] = name
        have = occluded = 0
        for s in test:
            j = nearest_anchor(s.pose.position, amap)
            if j in lm_anchor:
                have += 1
                occluded += lm_anchor[j] not in s.visible_set
        fraction = occluded / have
        assert 0.1 < fraction < 0.9
        # frozen fixture measurement (seed 7): 50 of 97
        assert (occluded, have) == (50, 97)


# --- bit-identity against the numpy-scalar oracle ------------------------------

_COORD = st.sampled_from([0.0, -0.0, -2.5, 3.0]) | st.floats(-20, 20)


@st.composite
def routes_with_repeats(draw):
    """2-6 waypoints plus 0-2 repeats, each right beside its original, so the
    route has zero-length segments, at its start or end too."""
    pts = draw(st.lists(st.tuples(_COORD, _COORD), min_size=2, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        j = draw(st.integers(0, len(pts) - 1))
        pts.insert(j, pts[j])
    return np.array(pts)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


class TestLocateOracle:
    @settings(max_examples=300, deadline=None)
    @given(routes_with_repeats(), st.lists(st.floats(-0.2, 1.2), max_size=10))
    def test_matches_scalar_locate(self, waypoints, fracs):
        ref = oracle.Route(waypoints)
        cum = ref.cum
        s = np.concatenate([cum, np.nextafter(cum, -np.inf), np.nextafter(cum, np.inf),
                            [0.0, -0.0, ref.length, -1.0, ref.length + 1.0],
                            np.array(fracs) * ref.length])
        pos, angles = simworld._Route(waypoints).locate(s)
        expected = [ref.locate(float(v)) for v in s]
        assert pos.tobytes() == _bits([p for p, _ in expected])
        assert _bits(angles) == _bits([a for _, a in expected])


_N_TRAIN, _N_TEST = 12, 5


@st.composite
def small_worlds(draw):
    """A random route with 1-4 landmarks, some exactly at a training camera's
    position, and 0-3 obstacles, some collinear with a camera's sight line."""
    route = draw(routes_with_repeats())
    assume(oracle.Route(route).length > 0.0)
    params = dict(fov_half_angle=draw(st.sampled_from([30.0, 60.0, 120.0, 179.0])),
                  z_noise_amp=draw(st.sampled_from([0.0, 0.25])),
                  noise_sigma=draw(st.sampled_from([0.0, 0.02, 0.5])),
                  lateral_jitter=draw(st.sampled_from([0.0, 0.1, 0.7])),
                  heading_jitter_deg=draw(st.sampled_from([0.0, 3.0, 40.0])),
                  seed=draw(st.integers(0, 2**64 - 1)))
    bare = WorldSpec(route=route, landmarks=(), **params)
    cams = [p.position[:2].tolist() for p in
            oracle.route_poses(bare, _N_TRAIN, simworld._STREAM_TRAIN, ordered=True)]
    at_camera = st.sampled_from(cams)
    points = draw(st.lists(at_camera | st.tuples(_COORD, _COORD), min_size=1, max_size=4))
    landmarks = tuple((f"l{i}", tuple(p)) for i, p in enumerate(points))
    obstacles = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            c, lm = np.array(draw(at_camera)), np.array(draw(st.sampled_from(points)))
            t0, t1 = draw(st.lists(st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0, 1.5]),
                                   min_size=2, max_size=2))
            obstacles.append((tuple(c + t0 * (lm - c)), tuple(c + t1 * (lm - c))))
        else:
            obstacles.append((draw(st.tuples(_COORD, _COORD)), draw(st.tuples(_COORD, _COORD))))
    return WorldSpec(route=route, landmarks=landmarks, obstacles=tuple(obstacles), **params)


class TestGenerateOracle:
    @settings(max_examples=150, deadline=None)
    @given(small_worlds())
    def test_matches_scalar_generate(self, spec):
        got = generate(spec, _N_TRAIN, _N_TEST)
        want = oracle.generate(spec, _N_TRAIN, _N_TEST)
        for new, ref in zip(got[0] + got[1], want[0] + want[1]):
            assert new.feature.tobytes() == ref.feature.tobytes()
            assert new.pose.position.tobytes() == ref.pose.position.tobytes()
            assert new.pose.orientation.tobytes() == ref.pose.orientation.tobytes()
            assert new.visible_set == ref.visible_set

    def test_default_world_matches_scalar_route(self):
        for seed in (7, 11):
            poses = oracle.route_poses(WorldSpec(route=stadium_route(), landmarks=(), seed=seed),
                                       simworld.DEFAULT_N_TRAIN, simworld._STREAM_TRAIN,
                                       ordered=True)
            landmarks = default_world(seed).landmarks
            for (_, xy), frame in zip(landmarks, simworld._DEFAULT_LANDMARK_FRAMES):
                assert _bits(xy) == poses[frame].position[:2].tobytes()
