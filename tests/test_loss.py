import math
from collections import namedtuple
from dataclasses import astuple
from decimal import Decimal, getcontext

import numpy as np
import pytest

from anchorloc.errors import DegenerateOrientationError, InvalidInputError
from anchorloc.loss import (LossWeights, _softmax, absolute_term, batch_total_loss,
                            confidences, cross_entropy_term, offset_term)
from anchorloc.model import BatchPrediction

from conftest import prediction_grads, random_unit_quat

getcontext().prec = 60

# ground truth of a batch, in batch_total_loss's argument order
Target = namedtuple("Target", "offsets z orientation nearest")


def one(kernel, *rows):
    """``kernel`` on a batch of one sample: each input gains a batch axis of
    length 1 and each output loses it."""
    return [out[0] for out in kernel(*(np.asarray(r)[None] for r in rows))]


def offset_value(logits, offsets, gt_offsets):
    return one(offset_term, confidences(logits), np.subtract(gt_offsets, offsets))[0]


def absolute_value(z, orient, gt_z, gt_orient):
    return one(absolute_term, z, orient, gt_z, gt_orient)[0]


def ce_term(logits, nearest):
    """cross_entropy_term with the softmax of the same logits."""
    return cross_entropy_term(logits, _softmax(logits), nearest)


def ce_value(logits, nearest):
    return one(ce_term, logits, nearest)[0]


def make_pred(logits, offsets, z=0.0, orient=(1.0, 0.0, 0.0, 0.0)):
    """The fields of a one-sample BatchPrediction."""
    return {"logits": np.asarray(logits, dtype=float)[None],
            "offsets": np.asarray(offsets, dtype=float)[None],
            "z_hat": np.array([float(z)]),
            "orient_raw": np.asarray(orient, dtype=float)[None]}


def random_case(rng, n=None):
    n = n or int(rng.integers(2, 7))
    pred = make_pred(rng.standard_normal(n), rng.standard_normal((n, 2)),
                     z=rng.standard_normal(), orient=rng.standard_normal(4) + 0.1)
    target = Target(offsets=rng.standard_normal((1, n, 2)), z=np.array([rng.standard_normal()]),
                    orientation=random_unit_quat(rng)[None],
                    nearest=np.array([rng.integers(0, n)]))
    return pred, target


def total(pred, target, weights):
    """batch_total_loss of make_pred fields; it works in a copy of the target
    offsets, so ``target`` can be reused."""
    return batch_total_loss(BatchPrediction(**pred), target.offsets.copy(), *target[1:], weights)


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
        gt = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]])
        expected = 1.0 + 4.0  # residual of anchor 0 only
        assert offset_value([40.0, 0.0, 0.0], np.zeros((3, 2)), gt) == pytest.approx(
            expected, abs=1e-12)

    def test_perfect_offsets_zero_loss(self):
        rng = np.random.default_rng(2)
        offs = rng.standard_normal((4, 2))
        assert offset_value(rng.standard_normal(4), offs, offs) == 0.0

    def test_hand_evaluated_case(self):
        # C = [0.5, 0.5], residuals (1,0) and (0,2) -> 0.5*1 + 0.5*4 = 2.5
        gt = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert offset_value([0.0, 0.0], np.zeros((2, 2)), gt) == pytest.approx(2.5, abs=1e-12)

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            pred, target = random_case(rng)
            r = ((target.offsets - pred["offsets"])[0] ** 2).sum(axis=1)
            value = offset_value(pred["logits"][0], pred["offsets"][0], target.offsets[0])
            assert r.min() - 1e-12 <= value <= r.max() + 1e-12

    def test_anchor_count_mismatch(self):
        pred = BatchPrediction(**make_pred([0.0, 0.0], np.zeros((2, 2))))
        with pytest.raises(InvalidInputError):
            batch_total_loss(pred, np.zeros((1, 3, 2)), np.zeros(1),
                             np.array([[1.0, 0, 0, 0]]), np.zeros(1, dtype=int), LossWeights())


class TestAbsoluteLoss:
    def test_scale_invariance_and_zero(self):
        q = random_unit_quat(np.random.default_rng(4))
        for c in (0.3, 1.0, 7.7):
            assert absolute_value(1.5, c * q, 1.5, q) == pytest.approx(0.0, abs=1e-12)

    def test_negated_quaternion_costs_four(self):
        q = random_unit_quat(np.random.default_rng(5))
        assert absolute_value(0.0, -q, 0.0, q) == pytest.approx(4.0, abs=1e-12)

    def test_matches_independent_evaluation(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            q = random_unit_quat(rng)
            raw = rng.standard_normal(4) * 2 + 0.05
            gz, pz = rng.standard_normal(), rng.standard_normal()
            # independent evaluation with plain python floats
            norm = math.sqrt(sum(float(v) ** 2 for v in raw))
            u = [float(v) / norm for v in raw]
            expected = (gz - pz) ** 2 + sum((float(a) - b) ** 2 for a, b in zip(q, u))
            assert absolute_value(pz, raw, gz, q) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_orientation_signaled(self):
        with pytest.raises(DegenerateOrientationError):
            absolute_value(0.0, np.zeros(4), 0.0, np.array([1.0, 0, 0, 0]))


class TestCrossEntropy:
    def test_correct_with_large_gap(self):
        assert ce_value(np.array([40.0, 0.0, 0.0]), 0) < 1e-15

    def test_uniform_logits(self):
        assert ce_value(np.zeros(4), 2) == pytest.approx(math.log(4), abs=1e-12)

    def test_matches_decimal_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            logits = rng.uniform(-20, 20, size=rng.integers(2, 8))
            j = int(rng.integers(0, len(logits)))
            probs = softmax_decimal(logits)
            expected = -float(probs[j].ln())
            assert ce_value(logits, j) == pytest.approx(expected, abs=1e-12)


def fd_gradient(fn, fields, h=1e-5):
    """Central differences of the scalar ``fn(fields)`` over every entry of
    every array in ``fields``."""
    grads = {}
    for name, arr in fields.items():
        g = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            shifted = []
            for delta in (h, -h):
                f = {k: v.copy() for k, v in fields.items()}
                f[name][idx] += delta
                shifted.append(fn(f))
            g[idx] = (shifted[0] - shifted[1]) / (2 * h)
        grads[name] = g
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
            gt = target.offsets[0]
            _, d_logits, d_offsets = one(offset_term, confidences(pred["logits"][0]),
                                         gt - pred["offsets"][0])
            fd = fd_gradient(lambda p: offset_value(p["logits"][0], p["offsets"][0], gt), pred)
            assert_close(d_logits, fd["logits"][0])
            assert_close(d_offsets, fd["offsets"][0])

    def test_absolute_loss_gradients(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            pred, target = random_case(rng)
            gt = (target.z[0], target.orientation[0])
            _, d_z, d_orient = one(absolute_term, pred["z_hat"][0], pred["orient_raw"][0], *gt)
            fd = fd_gradient(
                lambda p: absolute_value(p["z_hat"][0], p["orient_raw"][0], *gt), pred)
            assert_close(d_z, fd["z_hat"][0])
            assert_close(d_orient, fd["orient_raw"][0])

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            logits = rng.standard_normal(5)
            j = int(rng.integers(0, 5))
            _, analytic = one(ce_term, logits, j)
            h = 1e-5
            fd = np.zeros(5)
            for i in range(5):
                hi, lo = logits.copy(), logits.copy()
                hi[i] += h
                lo[i] -= h
                fd[i] = (ce_value(hi, j) - ce_value(lo, j)) / (2 * h)
            assert_close(analytic, fd)

    def test_total_loss_gradient(self):
        rng = np.random.default_rng(11)
        weights = LossWeights(alpha1=2.0, alpha2=10.0, alpha3=1.0)
        for _ in range(10):
            pred, target = random_case(rng)
            grad = prediction_grads(total(pred, target, weights)[1])
            fd = fd_gradient(lambda p: total(p, target, weights)[0].total, pred)
            for name, g in zip(pred, grad):
                assert_close(g, fd[name])


class TestTotalLoss:
    def test_alpha_isolation(self):
        rng = np.random.default_rng(12)
        pred, target = random_case(rng)
        ce_only = LossWeights(alpha1=3.0, alpha2=0.0, alpha3=0.0)
        breakdown = total(pred, target, ce_only)[0]
        assert breakdown.total == pytest.approx(3.0 * breakdown.ce_term, abs=1e-12)

        off_only = LossWeights(alpha1=0.0, alpha2=5.0, alpha3=0.0)
        breakdown = total(pred, target, off_only)[0]
        assert breakdown.total == pytest.approx(5.0 * breakdown.offset_term, abs=1e-12)

    def test_zero_residuals_zero_total(self):
        rng = np.random.default_rng(13)
        q = random_unit_quat(rng)
        offs = rng.standard_normal((3, 2))
        pred = make_pred(rng.standard_normal(3), offs, z=0.7, orient=2.0 * q)
        target = Target(offs[None], np.array([0.7]), q[None], np.array([0]))
        breakdown = total(pred, target, LossWeights())[0]
        assert breakdown.total == pytest.approx(0.0, abs=1e-12)

    def test_alpha_homogeneity(self):
        rng = np.random.default_rng(14)
        pred, target = random_case(rng)
        b1 = total(pred, target, LossWeights(alpha2=10.0, alpha3=0.0))[0]
        b2 = total(pred, target, LossWeights(alpha2=20.0, alpha3=0.0))[0]
        assert b2.total == pytest.approx(2.0 * b1.total, rel=1e-15)

    def test_breakdown_composition(self):
        rng = np.random.default_rng(15)
        w = LossWeights(alpha1=1.5, alpha2=4.0, alpha3=0.5)
        for _ in range(10):
            pred, target = random_case(rng)
            b = total(pred, target, w)[0]
            expected = w.alpha1 * b.ce_term + w.alpha2 * b.offset_term + w.alpha3 * b.absolute_term
            assert b.total == pytest.approx(expected, abs=1e-12)
            assert b.offset_term >= 0 and b.absolute_term >= 0 and b.ce_term >= 0


class TestBatchPath:
    def test_batch_matches_per_sample_mean(self):
        rng = np.random.default_rng(16)
        n, B = 4, 7
        w = LossWeights(alpha1=2.0, alpha2=10.0, alpha3=1.0)
        preds, targets = zip(*(random_case(rng, n=n) for _ in range(B)))
        bpred = BatchPrediction(**{k: np.concatenate([p[k] for p in preds]) for k in preds[0]})
        gt = [np.concatenate(field) for field in zip(*targets)]

        breakdown, d_heads = batch_total_loss(bpred, *gt, w)
        d_logits, d_offsets, d_z, d_orient = prediction_grads(d_heads)

        singles = [total(p, t, w) for p, t in zip(preds, targets)]
        assert breakdown.total == pytest.approx(
            np.mean([s[0].total for s in singles]), rel=1e-12)
        for i, (g_logits, g_offsets, g_z, g_orient) in enumerate(
                prediction_grads(s[1]) for s in singles):
            np.testing.assert_allclose(d_logits[i], g_logits[0] / B, atol=1e-14)
            np.testing.assert_allclose(d_offsets[i], g_offsets[0] / B, atol=1e-14)
            assert d_z[i] == pytest.approx(g_z[0] / B, abs=1e-14)
            np.testing.assert_allclose(d_orient[i], g_orient[0] / B, atol=1e-14)

    @pytest.mark.parametrize("use_ce", [False, True], ids=["ce-off", "ce-on"])
    @pytest.mark.parametrize("B", [1, 7, 32])
    def test_breakdown_is_the_mean_of_the_kernels(self, B, use_ce):
        """Bit for bit: each field is ``float(per.mean())`` of the kernels'
        per-sample terms, and the total is alpha1 ce + alpha2 off + alpha3 abs
        per sample, with ce a zero array when cross-entropy is off."""
        rng = np.random.default_rng(18 + B)
        w = LossWeights(alpha1=1.3 if use_ce else 0.0, alpha2=7.0, alpha3=0.6)
        preds, targets = zip(*(random_case(rng, n=5) for _ in range(B)))
        fields = {k: np.concatenate([p[k] for p in preds]) for k in preds[0]}
        gt = Target(*(np.concatenate(field) for field in zip(*targets)))
        off = offset_term(confidences(fields["logits"]), gt.offsets - fields["offsets"])[0]
        absolute = absolute_term(fields["z_hat"], fields["orient_raw"], gt.z,
                                 gt.orientation)[0]
        ce = ce_term(fields["logits"], gt.nearest)[0] if use_ce else np.zeros(B)
        per_total = w.alpha1 * ce + w.alpha2 * off + w.alpha3 * absolute
        expected = (off.mean(), absolute.mean(), ce.mean(), per_total.mean())
        breakdown = total(fields, gt, w)[0]
        assert [v.hex() for v in astuple(breakdown)] == [float(v).hex() for v in expected]

    @pytest.mark.parametrize("use_ce", [False, True], ids=["ce-off", "ce-on"])
    @pytest.mark.parametrize("B", [32, 16, 24])
    def test_gradients_scaled_once_match_scaling_by_alpha_then_by_1_over_b(self, B, use_ce):
        """Each kernel scales its gradients by alpha/B once. A reference that
        scales by alpha and then by 1/B, each offset gradient as ``-2 r c``
        first, agrees bit for bit when 1/B is a power of two (as at the
        training batch sizes 32 and 16) and otherwise to within 1e-15 of each
        table's largest entry (relative to the entry itself, a logit's offset
        and cross-entropy gradients can cancel to a few ulps of the terms)."""
        rng = np.random.default_rng(40 + B)
        w = LossWeights(alpha1=1.3 if use_ce else 0.0, alpha2=7.0, alpha3=0.6)
        preds, targets = zip(*(random_case(rng, n=6) for _ in range(B)))
        fields = {k: np.concatenate([p[k] for p in preds]) for k in preds[0]}
        gt = Target(*(np.concatenate(field) for field in zip(*targets)))
        inv_b = 1.0 / B
        softmax = _softmax(fields["logits"])
        c = softmax[0]
        resid = gt.offsets - fields["offsets"]
        r = np.square(resid).sum(axis=2)
        d_logits = c * (r - (r * c).sum(axis=1)[:, None]) * w.alpha2 * inv_b
        d_offsets = -2.0 * resid * c[:, :, None] * w.alpha2 * inv_b
        _, d_z, d_orient = absolute_term(fields["z_hat"], fields["orient_raw"], gt.z,
                                         gt.orientation, w.alpha3)
        if use_ce:
            d_logits += cross_entropy_term(fields["logits"], softmax, gt.nearest,
                                           w.alpha1)[1] * inv_b
        want = (d_logits, d_offsets, d_z * inv_b, d_orient * inv_b)
        got = prediction_grads(total(fields, gt, w)[1])
        for g, ref in zip(got, want):
            if B == 24:
                assert np.abs(g - ref).max() <= 1e-15 * np.abs(ref).max()
            else:
                assert g.tobytes() == ref.tobytes()

    def test_batch_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        n, B = 4, 3
        w = LossWeights(alpha1=1.5, alpha2=4.0, alpha3=0.7)
        preds, targets = zip(*(random_case(rng, n=n) for _ in range(B)))
        fields = {k: np.concatenate([p[k] for p in preds]) for k in preds[0]}
        gt = Target(*(np.concatenate(field) for field in zip(*targets)))

        analytic = prediction_grads(total(fields, gt, w)[1])
        fd = fd_gradient(lambda f: total(f, gt, w)[0].total, fields)
        for name, grad in zip(fields, analytic):
            assert_close(grad, fd[name])

    def test_negative_alpha_rejected(self):
        with pytest.raises(InvalidInputError):
            LossWeights(alpha2=-1.0)
