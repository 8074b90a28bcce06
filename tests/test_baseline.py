import warnings
from dataclasses import astuple

import numpy as np
import pytest

from anchorloc import baseline, data, model
from anchorloc.baseline import DirectSpec, direct_loss_batch, train_direct
from anchorloc.errors import DegenerateOrientationError
from anchorloc.loss import LossWeights, absolute_term
from anchorloc.optim import TrainConfig

from conftest import openblas_threads, random_unit_quat


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

    bound = model.Bound(spec, params)
    cache = bound.forward(X)
    pose = bound.head("pose", cache[-1])
    _, d_heads = direct_loss_batch(pose, gt_xyz, gt_q, w)
    analytic = baseline.backward_batch(spec, params, cache, d_heads)

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
    W_pose, _ = model._layer_table(spec, params)[1]  # the trunk layer, then the pose head
    W_pose[3:] = 0.0  # orientation rows of the head
    with pytest.raises(DegenerateOrientationError):
        baseline.evaluate_direct(spec, params, scene.test)



@pytest.fixture(scope="module")
def scene_and_spec(tiny_samples):
    scene = data.from_simworld(*tiny_samples, k=10)
    return scene, DirectSpec(input_dim=scene.train.features.shape[1], hidden_layers=(16,), seed=4)


def test_overflowing_parameters_raise_only_the_packages_error(scene_and_spec):
    # as in evaluation.evaluate, numpy's overflow stays quiet and the
    # non-finite orientation it leaves is the package's error
    scene, spec = scene_and_spec
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DegenerateOrientationError):
            baseline.evaluate_direct(spec, model.init(spec) * 1e160, scene.test)


def test_evaluation_runs_at_one_thread_and_restores_the_count(scene_and_spec, monkeypatch):
    scene, spec = scene_and_spec
    get, put = openblas_threads()
    seen = []
    forward = model.Bound.forward
    monkeypatch.setattr(model.Bound, "forward",
                        lambda net, x: seen.append(get()) or forward(net, x))
    before = get()
    put(2)
    try:
        baseline.evaluate_direct(spec, model.init(spec), scene.test)
        assert get() == 2
    finally:
        put(before)
    assert seen == [1]


@pytest.mark.parametrize("use_ce", [False, True], ids=["ce-off", "ce-on"])
@pytest.mark.parametrize("B", [1, 7, 32])
def test_loss_breakdown_is_the_mean_of_the_terms(B, use_ce):
    """Bit for bit: each field is ``float(per.mean())`` of the per-sample
    terms; the control has no cross-entropy term whatever the weights say."""
    rng = np.random.default_rng(40 + B)
    w = LossWeights(alpha1=1.3 if use_ce else 0.0, alpha2=7.0, alpha3=0.6)
    pose = rng.standard_normal((B, 7))
    pose[:, 3] += 3.0  # keeps every raw orientation far from zero
    gt_xyz = rng.standard_normal((B, 3))
    gt_orient = np.array([random_unit_quat(rng) for _ in range(B)])
    off = ((pose[:, :2] - gt_xyz[:, :2]) ** 2).sum(axis=1)
    absolute = absolute_term(pose[:, 2], pose[:, 3:], gt_xyz[:, 2], gt_orient)[0]
    expected = (off.mean(), absolute.mean(), 0.0,
                (w.alpha2 * off + w.alpha3 * absolute).mean())
    breakdown = direct_loss_batch(pose, gt_xyz, gt_orient, w)[0]
    assert [v.hex() for v in astuple(breakdown)] == [float(v).hex() for v in expected]
