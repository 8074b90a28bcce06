import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anchorloc.data import SampleBatch
from anchorloc.errors import DegenerateMapError, InvalidInputError
from anchorloc.geometry import (ANCHOR_DEDUP_TOL, AnchorMap, Pose, build_anchor_map,
                                quat_norm, quat_norms,
                                quat_angle_deg, yaw_quat)

from conftest import make_pose, nearest_label, random_unit_quat


def line_positions(xs, y=0.0):
    return np.array([[x, y, 0.0] for x in xs], dtype=np.float64).reshape(-1, 3)


def offsets_at(pos, amap):
    """The (N, 2) ground-truth offsets that training derives for one position."""
    batch = SampleBatch.build(["p"], [make_pose(*pos)], np.zeros((1, 1)), amap)
    return batch.offsets_at(batch.positions)[0]


class TestPose:
    def test_orientation_renormalized(self):
        p = Pose(position=np.zeros(3), orientation=np.array([2.0, 0.0, 0.0, 0.0]))
        assert abs(np.linalg.norm(p.orientation) - 1.0) < 1e-9

    def test_rejects_nonfinite_position(self):
        with pytest.raises(InvalidInputError):
            Pose(position=np.array([np.nan, 0, 0]), orientation=np.array([1, 0, 0, 0]))

    def test_rejects_zero_quaternion(self):
        with pytest.raises(InvalidInputError):
            Pose(position=np.zeros(3), orientation=np.zeros(4))

    def test_rejects_quaternion_whose_squared_norm_overflows(self):
        # its norm would be inf, and dividing by it the zero quaternion
        with pytest.raises(InvalidInputError, match="overflows"):
            Pose(position=np.zeros(3), orientation=np.array([1e200, 0.0, 0.0, 0.0]))

    def test_arrays_immutable(self):
        p = make_pose(1.0, 2.0)
        with pytest.raises(ValueError):
            p.position[0] = 5.0

    def test_later_writes_to_the_callers_arrays_do_not_reach_it(self):
        pos, q = np.array([1.0, 2.0, 3.0]), yaw_quat(0.3)
        p = Pose(position=pos, orientation=q)
        pos[0] = 99.0
        q[:] = [0.0, 1.0, 0.0, 0.0]
        assert p.position.tolist() == [1.0, 2.0, 3.0]
        assert p.orientation.tolist() == yaw_quat(0.3).tolist()


def pose_checks_oracle(position, orientation):
    """Oracle: ``Pose.__post_init__`` as it checked on numpy before it moved to
    Python floats, plus the rejection of a squared norm that overflows; the
    stored (position, orientation), or the error raised."""
    pos = np.asarray(position, dtype=np.float64).reshape(-1)
    quat = np.asarray(orientation, dtype=np.float64).reshape(-1)
    if pos.shape != (3,):
        raise InvalidInputError(f"position must be a 3-vector, got shape {pos.shape}")
    if quat.shape != (4,):
        raise InvalidInputError(f"orientation must be a 4-vector, got shape {quat.shape}")
    if not np.isfinite(pos).all() or not np.isfinite(quat).all():
        raise InvalidInputError("pose components must be finite")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(quat))
    if norm == math.inf:
        raise InvalidInputError("orientation quaternion norm overflows")
    if norm < 1e-12:
        raise InvalidInputError("orientation quaternion has zero norm")
    if abs(norm - 1.0) > 1e-12:
        quat = quat / norm
    return pos, quat


_SLOT = (st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 1e-200, 1e200])
         | st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def near_unit_quats(draw):
    """Unit quaternions scaled to a norm at, or a few ulps from, 1 +- 1e-12."""
    q = draw(st.lists(st.floats(-1, 1), min_size=4, max_size=4))
    norm = math.sqrt(sum(c * c for c in q))
    assume(norm > 1e-3)
    scale = draw(st.sampled_from([1.0, 1 + 1e-12, 1 - 1e-12, 0.5, 3.0])) * \
        (1.0 + draw(st.integers(-4, 4)) * 2.0**-52)
    return [c / norm * scale for c in q]


class TestPoseOracle:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(_SLOT, min_size=3, max_size=4),
           st.lists(_SLOT, min_size=3, max_size=4) | near_unit_quats())
    def test_matches_numpy_checks(self, position, orientation):
        try:
            want = pose_checks_oracle(np.array(position), np.array(orientation))
        except InvalidInputError as err:
            with pytest.raises(type(err), match=re.escape(str(err))):
                Pose(position=np.array(position), orientation=np.array(orientation))
            return
        pose = Pose(position=np.array(position), orientation=np.array(orientation))
        assert pose.position.tobytes() == want[0].tobytes()
        assert pose.orientation.tobytes() == want[1].tobytes()
        assert not pose.position.flags.writeable and not pose.orientation.flags.writeable


class TestQuatNorms:
    def test_each_row_is_quat_norm_bit_for_bit(self):
        rng = np.random.default_rng(8)
        rows = [rng.standard_normal((400, 4)),
                rng.standard_normal((400, 4)) * 1e-4 + [1.0, 0.0, 0.0, 0.0],
                rng.standard_normal((50, 4)) * 10.0 ** rng.integers(-320, 300, size=(50, 1)),
                [[1e200, 0, 0, 0], [1e155, 1e155, 0, 0], [np.inf, 0, 0, 0], [np.nan, 1, 0, 0],
                 [0, 0, 0, 0], [5e-324, 0, 0, 0], [-0.0, 0, 0, 0]]]
        quats = np.concatenate(rows)
        want = np.array([quat_norm(q, q.tolist()) for q in quats])
        assert quat_norms(quats).tobytes() == want.tobytes()
        assert quat_norms(np.zeros((0, 4))).shape == (0,)


class TestBuildAnchorMap:
    def test_every_third_frame(self):
        amap = build_anchor_map(line_positions(range(10)), 3)
        np.testing.assert_allclose(amap.anchors[:, 0], [0, 3, 6, 9])
        np.testing.assert_allclose(amap.anchors[:, 1], 0)

    def test_k1_keeps_unique_positions(self):
        amap = build_anchor_map(line_positions([0, 1, 1, 2, 3, 3]), 1)
        np.testing.assert_allclose(amap.anchors[:, 0], [0, 1, 2, 3])

    def test_duplicates_within_tolerance_dropped(self):
        amap = build_anchor_map(line_positions([0.0, 1.0, 1.0 + 1e-12, 2.0]), 1)
        assert len(amap) == 3

    def test_empty_poses_rejected(self):
        with pytest.raises(InvalidInputError):
            build_anchor_map([], 1)

    def test_bad_interval_rejected(self):
        with pytest.raises(InvalidInputError):
            build_anchor_map(line_positions([0, 1]), 0)

    def test_collapsed_map_rejected(self):
        with pytest.raises(DegenerateMapError):
            build_anchor_map(line_positions([1.0] * 5, y=1.0), 2)

    def test_larger_k_never_more_anchors(self):
        rng = np.random.default_rng(0)
        xy = np.array([rng.uniform(-5, 5, size=2) for _ in range(60)])
        counts = [len(build_anchor_map(xy, k)) for k in (1, 2, 3, 5, 10)]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] == 60  # distinct random positions, k = 1


def greedy_dedup(candidates):
    """Oracle: the all-pairs greedy loop that anchor dedup once ran. Each
    candidate, in order, is tested against every anchor kept so far."""
    kept = np.empty_like(candidates)
    m = 0
    for cand in candidates:
        if m > 0:
            d2 = ((kept[:m] - cand) ** 2).sum(axis=1)
            if (d2 < ANCHOR_DEDUP_TOL**2).any():
                continue
        kept[m] = cand
        m += 1
    if m == 1:
        raise DegenerateMapError("all anchors collapse to a single point")
    return kept[:m].copy()


# Cluster centres share x values (0.0, 1e6 + 0.5) so that different clusters
# line up in x; at 1e6 + 0.5 the tolerance is only about 9 ulps of x.
_CENTRE = st.sampled_from([0.0, -3.25, 1e6 + 0.5]) | st.floats(-100, 100)


@st.composite
def near_duplicate_clusters(draw):
    """2-40 points around 1-4 centres. A point is its centre plus jitter
    times small integers, so points share x with different y and sit exactly
    one tolerance apart; a chain is a run of points one step apart, with
    0.5 tol < step < tol, so neighbours are close but the ends are not."""
    centres = draw(st.lists(st.tuples(_CENTRE, _CENTRE), min_size=1, max_size=4))
    points = []
    for _ in range(draw(st.integers(1, 8))):
        cx, cy = draw(st.sampled_from(centres))
        if draw(st.booleans()):
            step = draw(st.floats(0.5, 0.99)) * ANCHOR_DEDUP_TOL
            dx, dy = draw(st.sampled_from([(1, 0), (0, 1), (0.6, 0.8)]))
            points += [(cx + i * step * dx, cy + i * step * dy)
                       for i in range(draw(st.integers(2, 6)))]
        else:
            jitter = draw(st.sampled_from([0.0, 3e-10, 1e-9, 2e-9]))
            units = st.integers(-3, 3)
            points += [(cx + jitter * draw(units), cy + jitter * draw(units))
                       for _ in range(draw(st.integers(1, 8)))]
    points = draw(st.permutations(points))[:40]
    assume(len(points) >= 2)
    return np.array(points)


class TestDedupOracle:
    @settings(max_examples=300, deadline=None)
    @given(near_duplicate_clusters())
    def test_matches_greedy_oracle(self, points):
        try:
            expected = greedy_dedup(points)
        except DegenerateMapError:
            with pytest.raises(DegenerateMapError):
                build_anchor_map(points, 1)
            return
        assert build_anchor_map(points, 1).anchors.tobytes() == expected.tobytes()

    def test_chain_keeps_both_ends(self):
        step = 0.75 * ANCHOR_DEDUP_TOL
        points = np.array([[0.0, 0.0], [step, 0.0], [2 * step, 0.0], [5.0, 5.0]])
        anchors = build_anchor_map(points, 1).anchors
        assert np.array_equal(anchors, points[[0, 2, 3]])
        assert np.array_equal(anchors, greedy_dedup(points))


class TestRelativeOffsets:
    def test_change_of_origin(self):
        amap = build_anchor_map(line_positions([0, 10]), 1)
        np.testing.assert_allclose(offsets_at([3.0, 4.0, -2.0], amap), [[3, 4], [-7, 4]])

    def test_zero_offset_at_coincident_anchor(self):
        amap = build_anchor_map(line_positions([0, 5]), 1)
        np.testing.assert_allclose(offsets_at([5.0, 0.0, 1.0], amap)[1], [0, 0])

    def test_round_trip_100_random(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = rng.integers(2, 12)
            anchors = rng.uniform(-50, 50, size=(n, 2))
            amap = AnchorMap(anchors=anchors)
            pos = rng.uniform(-50, 50, size=3)
            recon = amap.anchors + offsets_at(pos, amap)
            assert np.abs(recon - pos[:2]).max() < 1e-12


class TestAnchorMap:
    def test_holds_a_copy_and_leaves_the_callers_array_writeable(self):
        arr = np.arange(6.0).reshape(3, 2)
        amap = AnchorMap(anchors=arr)
        assert amap.anchors is not arr and arr.flags.writeable
        arr[0] = 99.0
        assert amap.anchors.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
        assert not amap.anchors.flags.writeable

    def test_no_rows_rejected(self):
        with pytest.raises(InvalidInputError, match="non-empty"):
            AnchorMap(anchors=np.zeros((0, 2)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_anchor_rejected(self, value):
        with pytest.raises(InvalidInputError, match="finite"):
            AnchorMap(anchors=np.array([[0.0, 0.0], [1.0, value]]))


class TestNearestAnchor:
    def test_basic(self):
        amap = build_anchor_map(line_positions([0, 1]), 1)
        assert nearest_label(np.array([0.4, 0.0, 0.0]), amap) == 0

    def test_midpoint_tie_breaks_low(self):
        amap = build_anchor_map(line_positions([0, 1]), 1)
        assert nearest_label(np.array([0.5, 0.0, 0.0]), amap) == 0

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = rng.integers(2, 25)
            anchors = rng.uniform(-10, 10, size=(n, 2))
            amap = AnchorMap(anchors=anchors)
            pos = rng.uniform(-10, 10, size=3)
            # independent linear scan
            best, best_d = 0, math.inf
            for i, (ax, ay) in enumerate(anchors):
                d = math.hypot(pos[0] - ax, pos[1] - ay)
                if d < best_d:
                    best, best_d = i, d
            assert nearest_label(pos, amap) == best


class TestQuatAngle:
    def test_identical(self):
        q = random_unit_quat(np.random.default_rng(0))
        # acos resolution near 1 limits tiny angles to ~1e-7 degrees
        assert quat_angle_deg(q, q) == pytest.approx(0.0, abs=1e-5)

    def test_double_cover(self):
        q = random_unit_quat(np.random.default_rng(1))
        assert quat_angle_deg(q, -q) == pytest.approx(0.0, abs=1e-5)

    def test_ninety_degree_z_rotation(self):
        a = np.array([1.0, 0.0, 0.0, 0.0])
        b = yaw_quat(math.pi / 2)  # w = cos 45 deg, z = sin 45 deg
        assert quat_angle_deg(a, b) == pytest.approx(90.0, abs=1e-9)

    def test_rejects_non_unit(self):
        with pytest.raises(InvalidInputError):
            quat_angle_deg(np.array([2.0, 0, 0, 0]), np.array([1.0, 0, 0, 0]))

    def test_rejects_a_3_vector(self):
        with pytest.raises(InvalidInputError, match="4-vectors"):
            quat_angle_deg(np.array([1.0, 0, 0]), np.array([1.0, 0, 0, 0]))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_unit_quat(rng), random_unit_quat(rng)
        ab, ba = quat_angle_deg(a, b), quat_angle_deg(b, a)
        assert ab == pytest.approx(ba, abs=1e-9)
        assert 0.0 <= ab <= 180.0


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_offset_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    anchors = rng.uniform(-100, 100, size=(rng.integers(2, 8), 2))
    amap = AnchorMap(anchors=anchors)
    pos = rng.uniform(-100, 100, size=3)
    recon = amap.anchors + offsets_at(pos, amap)
    assert np.abs(recon - pos[:2]).max() < 1e-12
