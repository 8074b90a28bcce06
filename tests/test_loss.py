import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from anchorloc.errors import DegenerateOrientationError, InvalidInputError
from anchorloc.geometry import OffsetTable
from anchorloc.loss import (LossWeights, PoseTarget, absolute_loss, absolute_loss_grad,
                            batch_total_loss, confidences, cross_entropy_grad,
                            cross_entropy_loss, offset_loss, offset_loss_grad,
                            total_loss)
from anchorloc.model import BatchPrediction, PosePrediction

from conftest import random_unit_quat

getcontext().prec = 60


def make_pred(logits, offsets, z=0.0, orient=(1.0, 0.0, 0.0, 0.0)):
    return PosePrediction(logits=np.asarray(logits, dtype=float),
                          offsets=np.asarray(offsets, dtype=float),
                          z_hat=float(z), orient_raw=np.asarray(orient, dtype=float))


def random_case(rng, n=None):
    n = n or int(rng.integers(2, 7))
    pred = make_pred(rng.standard_normal(n), rng.standard_normal((n, 2)),
                     z=rng.standard_normal(), orient=rng.standard_normal(4) + 0.1)
    target = PoseTarget(offsets=rng.standard_normal((n, 2)), z=rng.standard_normal(),
                        orientation=random_unit_quat(rng),
                        nearest_index=int(rng.integers(0, n)))
    return pred, target


def softmax_decimal(logits):
    """High-precision softmax oracle via the decimal module."""
    exps = [Decimal(float(v)).exp() for v in logits]
    total = sum(exps)
    return [e / total for e in exps]


class TestConfidences:
    def test_symmetry(self):
        np.testing.assert_allclose(confidences([0.0, 0.0]), [0.5, 0.5])

    def test_shift_invariance(self):
        for c in (-100.0, 0.0, 3.7):
            np.testing.assert_allclose(confidences([c, c, c]), [1 / 3] * 3, atol=1e-15)

    def test_extreme_logits_stable(self):
        c = confidences([1000.0, 0.0])
        assert np.isfinite(c).all()
        assert c[0] == pytest.approx(1.0, abs=1e-12)
        assert c[1] >= 0.0

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            logits = rng.uniform(-30, 30, size=rng.integers(2, 8))
            ours = confidences(logits)
            oracle = softmax_decimal(logits)
            for a, b in zip(ours, oracle):
                assert abs(a - float(b)) < 1e-12

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            c = confidences(rng.uniform(-50, 50, size=rng.integers(2, 9)))
            assert abs(c.sum() - 1.0) < 1e-12


class TestOffsetLoss:
    def test_one_hot_reduces_to_single_anchor(self):
        gt = OffsetTable(np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]]))
        pred = make_pred([40.0, 0.0, 0.0], np.zeros((3, 2)))
        expected = 1.0 + 4.0  # residual of anchor 0 only
        assert offset_loss(pred, gt) == pytest.approx(expected, abs=1e-12)

    def test_perfect_offsets_zero_loss(self):
        rng = np.random.default_rng(2)
        offs = rng.standard_normal((4, 2))
        pred = make_pred(rng.standard_normal(4), offs)
        assert offset_loss(pred, OffsetTable(offs)) == 0.0

    def test_hand_evaluated_case(self):
        # C = [0.5, 0.5], residuals (1,0) and (0,2) -> 0.5*1 + 0.5*4 = 2.5
        gt = OffsetTable(np.array([[1.0, 0.0], [0.0, 2.0]]))
        pred = make_pred([0.0, 0.0], np.zeros((2, 2)))
        assert offset_loss(pred, gt) == pytest.approx(2.5, abs=1e-12)

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            pred, target = random_case(rng)
            r = ((target.offsets - pred.offsets) ** 2).sum(axis=1)
            value = offset_loss(pred, OffsetTable(target.offsets))
            assert r.min() - 1e-12 <= value <= r.max() + 1e-12

    def test_anchor_count_mismatch(self):
        pred = make_pred([0.0, 0.0], np.zeros((2, 2)))
        with pytest.raises(InvalidInputError):
            offset_loss(pred, OffsetTable(np.zeros((3, 2))))


class TestAbsoluteLoss:
    def test_scale_invariance_and_zero(self):
        q = random_unit_quat(np.random.default_rng(4))
        for c in (0.3, 1.0, 7.7):
            pred = make_pred([0.0], np.zeros((1, 2)), z=1.5, orient=c * q)
            assert absolute_loss(pred, 1.5, q) == pytest.approx(0.0, abs=1e-12)

    def test_negated_quaternion_costs_four(self):
        q = random_unit_quat(np.random.default_rng(5))
        pred = make_pred([0.0], np.zeros((1, 2)), z=0.0, orient=-q)
        assert absolute_loss(pred, 0.0, q) == pytest.approx(4.0, abs=1e-12)

    def test_matches_independent_evaluation(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            q = random_unit_quat(rng)
            raw = rng.standard_normal(4) * 2 + 0.05
            gz, pz = rng.standard_normal(), rng.standard_normal()
            pred = make_pred([0.0], np.zeros((1, 2)), z=pz, orient=raw)
            # independent evaluation with plain python floats
            norm = math.sqrt(sum(float(v) ** 2 for v in raw))
            u = [float(v) / norm for v in raw]
            expected = (gz - pz) ** 2 + sum((float(a) - b) ** 2 for a, b in zip(q, u))
            assert absolute_loss(pred, gz, q) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_orientation_signaled(self):
        pred = make_pred([0.0], np.zeros((1, 2)), orient=np.zeros(4))
        with pytest.raises(DegenerateOrientationError):
            absolute_loss(pred, 0.0, np.array([1.0, 0, 0, 0]))


class TestCrossEntropy:
    def test_correct_with_large_gap(self):
        assert cross_entropy_loss(np.array([40.0, 0.0, 0.0]), 0) < 1e-15

    def test_uniform_logits(self):
        assert cross_entropy_loss(np.zeros(4), 2) == pytest.approx(math.log(4), abs=1e-12)

    def test_matches_decimal_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            logits = rng.uniform(-20, 20, size=rng.integers(2, 8))
            j = int(rng.integers(0, len(logits)))
            probs = softmax_decimal(logits)
            expected = -float(probs[j].ln())
            assert cross_entropy_loss(logits, j) == pytest.approx(expected, abs=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(InvalidInputError):
            cross_entropy_loss(np.zeros(3), 3)


def fd_prediction_gradient(fn, pred, h=1e-5):
    """Central differences of a scalar loss over every PosePrediction entry."""
    grads = {}
    def shifted(field, idx, delta):
        kw = dict(logits=pred.logits.copy(), offsets=pred.offsets.copy(),
                  z=pred.z_hat, orient=pred.orient_raw.copy())
        if field == "z":
            kw["z"] += delta
        else:
            arr = kw[field if field != "orient" else "orient"]
            arr[idx] += delta
        return make_pred(kw["logits"], kw["offsets"], kw["z"], kw["orient"])
    for field, shape in (("logits", pred.logits.shape), ("offsets", pred.offsets.shape),
                         ("orient", pred.orient_raw.shape)):
        g = np.zeros(shape)
        for idx in np.ndindex(shape):
            g[idx] = (fn(shifted(field, idx, h)) - fn(shifted(field, idx, -h))) / (2 * h)
        grads[field] = g
    grads["z"] = (fn(shifted("z", None, h)) - fn(shifted("z", None, -h))) / (2 * h)
    return grads


def assert_close(analytic, fd, tol=1e-4):
    a, f = np.asarray(analytic, dtype=float), np.asarray(fd, dtype=float)
    denom = np.maximum(1.0, np.abs(a))
    assert (np.abs(a - f) / denom).max() < tol


class TestGradients:
    def test_offset_loss_gradients(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            pred, target = random_case(rng)
            gt = OffsetTable(target.offsets)
            d_logits, d_offsets = offset_loss_grad(pred, gt)
            fd = fd_prediction_gradient(lambda p: offset_loss(p, gt), pred)
            assert_close(d_logits, fd["logits"])
            assert_close(d_offsets, fd["offsets"])

    def test_absolute_loss_gradients(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            pred, target = random_case(rng)
            d_z, d_orient = absolute_loss_grad(pred, target.z, target.orientation)
            fd = fd_prediction_gradient(
                lambda p: absolute_loss(p, target.z, target.orientation), pred)
            assert_close(d_z, fd["z"])
            assert_close(d_orient, fd["orient"])

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            logits = rng.standard_normal(5)
            j = int(rng.integers(0, 5))
            analytic = cross_entropy_grad(logits, j)
            h = 1e-5
            fd = np.zeros(5)
            for i in range(5):
                hi, lo = logits.copy(), logits.copy()
                hi[i] += h
                lo[i] -= h
                fd[i] = (cross_entropy_loss(hi, j) - cross_entropy_loss(lo, j)) / (2 * h)
            assert_close(analytic, fd)

    def test_total_loss_gradient(self):
        rng = np.random.default_rng(11)
        weights = LossWeights(alpha1=2.0, alpha2=10.0, alpha3=1.0, use_cross_entropy=True)
        for _ in range(10):
            pred, target = random_case(rng)
            _, grad = total_loss(pred, target, weights)
            fd = fd_prediction_gradient(
                lambda p: total_loss(p, target, weights)[0].total, pred)
            assert_close(grad.d_logits, fd["logits"])
            assert_close(grad.d_offsets, fd["offsets"])
            assert_close(grad.d_z, fd["z"])
            assert_close(grad.d_orient, fd["orient"])


class TestTotalLoss:
    def test_alpha_isolation(self):
        rng = np.random.default_rng(12)
        pred, target = random_case(rng)
        ce_only = LossWeights(alpha1=3.0, alpha2=0.0, alpha3=0.0, use_cross_entropy=True)
        breakdown, _ = total_loss(pred, target, ce_only)
        assert breakdown.total == pytest.approx(3.0 * breakdown.ce_term, abs=1e-12)

        off_only = LossWeights(alpha1=0.0, alpha2=5.0, alpha3=0.0, use_cross_entropy=False)
        breakdown, _ = total_loss(pred, target, off_only)
        assert breakdown.total == pytest.approx(5.0 * breakdown.offset_term, abs=1e-12)

    def test_zero_residuals_zero_total(self):
        rng = np.random.default_rng(13)
        q = random_unit_quat(rng)
        offs = rng.standard_normal((3, 2))
        pred = make_pred(rng.standard_normal(3), offs, z=0.7, orient=2.0 * q)
        target = PoseTarget(offsets=offs, z=0.7, orientation=q, nearest_index=0)
        breakdown, _ = total_loss(pred, target, LossWeights(use_cross_entropy=False))
        assert breakdown.total == pytest.approx(0.0, abs=1e-12)

    def test_alpha_homogeneity(self):
        rng = np.random.default_rng(14)
        pred, target = random_case(rng)
        b1, _ = total_loss(pred, target, LossWeights(alpha2=10.0, alpha3=0.0))
        b2, _ = total_loss(pred, target, LossWeights(alpha2=20.0, alpha3=0.0))
        assert b2.total == pytest.approx(2.0 * b1.total, rel=1e-15)

    def test_breakdown_composition(self):
        rng = np.random.default_rng(15)
        w = LossWeights(alpha1=1.5, alpha2=4.0, alpha3=0.5, use_cross_entropy=True)
        for _ in range(10):
            pred, target = random_case(rng)
            b, _ = total_loss(pred, target, w)
            expected = w.alpha1 * b.ce_term + w.alpha2 * b.offset_term + w.alpha3 * b.absolute_term
            assert b.total == pytest.approx(expected, abs=1e-12)
            assert b.offset_term >= 0 and b.absolute_term >= 0 and b.ce_term >= 0


class TestBatchPath:
    def test_batch_matches_per_sample_mean(self):
        rng = np.random.default_rng(16)
        n, B = 4, 7
        w = LossWeights(alpha1=2.0, alpha2=10.0, alpha3=1.0, use_cross_entropy=True)
        preds, targets = zip(*(random_case(rng, n=n) for _ in range(B)))
        bpred = BatchPrediction(
            logits=np.stack([p.logits for p in preds]),
            offsets=np.stack([p.offsets for p in preds]),
            z_hat=np.array([p.z_hat for p in preds]),
            orient_raw=np.stack([p.orient_raw for p in preds]))
        gt_off = np.stack([t.offsets for t in targets])
        gt_z = np.array([t.z for t in targets])
        gt_q = np.stack([t.orientation for t in targets])
        near = np.array([t.nearest_index for t in targets])

        breakdown, d_logits, d_offsets, d_z, d_orient = batch_total_loss(
            bpred, gt_off, gt_z, gt_q, near, w)

        singles = [total_loss(p, t, w) for p, t in zip(preds, targets)]
        assert breakdown.total == pytest.approx(
            np.mean([s[0].total for s in singles]), rel=1e-12)
        for i, (_, g) in enumerate(singles):
            np.testing.assert_allclose(d_logits[i], g.d_logits / B, atol=1e-14)
            np.testing.assert_allclose(d_offsets[i], g.d_offsets / B, atol=1e-14)
            assert d_z[i] == pytest.approx(g.d_z / B, abs=1e-14)
            np.testing.assert_allclose(d_orient[i], g.d_orient / B, atol=1e-14)

    def test_batch_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        n, B = 4, 3
        w = LossWeights(alpha1=1.5, alpha2=4.0, alpha3=0.7, use_cross_entropy=True)
        preds, targets = zip(*(random_case(rng, n=n) for _ in range(B)))
        fields = {"logits": np.stack([p.logits for p in preds]),
                  "offsets": np.stack([p.offsets for p in preds]),
                  "z_hat": np.array([p.z_hat for p in preds]),
                  "orient_raw": np.stack([p.orient_raw for p in preds])}
        gt = (np.stack([t.offsets for t in targets]), np.array([t.z for t in targets]),
              np.stack([t.orientation for t in targets]),
              np.array([t.nearest_index for t in targets]))

        def total(f):
            return batch_total_loss(BatchPrediction(**f), *gt, w)[0].total

        _, *analytic = batch_total_loss(BatchPrediction(**fields), *gt, w)
        h = 1e-5
        for name, grad in zip(fields, analytic):
            fd = np.zeros_like(fields[name])
            for idx in np.ndindex(fd.shape):
                shifted = []
                for delta in (h, -h):
                    f = {k: v.copy() for k, v in fields.items()}
                    f[name][idx] += delta
                    shifted.append(total(f))
                fd[idx] = (shifted[0] - shifted[1]) / (2 * h)
            assert_close(grad, fd)

    def test_negative_alpha_rejected(self):
        with pytest.raises(InvalidInputError):
            LossWeights(alpha2=-1.0)
