import numpy as np
import pytest

from anchorloc import baseline, data, model
from anchorloc.baseline import DirectSpec, direct_loss_batch, train_direct
from anchorloc.errors import DegenerateOrientationError
from anchorloc.loss import LossWeights
from anchorloc.optim import TrainConfig

from conftest import random_unit_quat


def test_parameter_count():
    spec = DirectSpec(input_dim=6, hidden_layers=(10,), seed=0)
    assert model.param_count(spec) == (6 * 10 + 10) + (10 * 7 + 7)


def test_forward_shapes_and_determinism():
    spec = DirectSpec(input_dim=4, hidden_layers=(5,), seed=1)
    params = model.init(spec)
    X = np.random.default_rng(0).standard_normal((3, 4))
    a = baseline.forward_batch(spec, params, X)
    b = baseline.forward_batch(spec, params, X)
    assert a.shape == (3, 7)
    assert np.array_equal(a, b)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    spec = DirectSpec(input_dim=4, hidden_layers=(6,), activation="tanh", seed=2)
    params = model.init(spec)
    X = rng.standard_normal((3, 4))
    gt_xyz = rng.standard_normal((3, 3))
    gt_q = np.stack([random_unit_quat(rng) for _ in range(3)])
    w = LossWeights(alpha2=10.0, alpha3=1.0)

    heads, cache = model.Bound(spec, params).forward(X)
    pose = heads["pose"]
    _, d_pose = direct_loss_batch(pose, gt_xyz, gt_q, w)
    analytic = baseline.backward_batch(spec, params, cache, d_pose)

    h = 1e-5
    for idx in rng.choice(params.size, size=30, replace=False):
        vals = []
        for sign in (+1, -1):
            p = params.copy()
            p[idx] += sign * h
            out = baseline.forward_batch(spec, p, X)
            breakdown, _ = direct_loss_batch(out, gt_xyz, gt_q, w)
            vals.append(breakdown.total)
        fd = (vals[0] - vals[1]) / (2 * h)
        assert abs(analytic[idx] - fd) / max(1.0, abs(analytic[idx])) < 1e-4


def test_training_reduces_loss(tiny_samples):
    train_s, test_s = tiny_samples
    scene = data.from_simworld(train_s, test_s, k=10)
    spec = DirectSpec(input_dim=scene.train.features.shape[1], hidden_layers=(16,), seed=4)
    report = train_direct(scene.train, spec, TrainConfig(epochs=20, shuffle_seed=6))
    assert report.epochs[-1].total < report.epochs[0].total
    ev = baseline.evaluate_direct(spec, report.params, scene.test)
    assert np.isfinite(ev.median_translation_m)


def test_degenerate_orientation_is_a_numerical_error(tiny_samples):
    rng = np.random.default_rng(5)
    pose = rng.standard_normal((3, 7))
    pose[1, 3:] = 0.0
    gt_q = np.stack([random_unit_quat(rng) for _ in range(3)])
    with pytest.raises(DegenerateOrientationError):
        direct_loss_batch(pose, rng.standard_normal((3, 3)), gt_q, LossWeights())

    train_s, test_s = tiny_samples
    scene = data.from_simworld(train_s, test_s, k=10)
    spec = DirectSpec(input_dim=scene.train.features.shape[1], hidden_layers=(4,), seed=0)
    params = model.init(spec)
    views = model._Views(spec, params)
    views.W["pose"][3:] = 0.0  # orientation rows of the head
    with pytest.raises(DegenerateOrientationError):
        baseline.evaluate_direct(spec, params, scene.test)
