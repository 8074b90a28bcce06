import math

import numpy as np
import pytest

from anchorloc import baseline, data, loss, model
from anchorloc.baseline import DirectSpec
from anchorloc.errors import InvalidInputError, TrainingDivergenceError
from anchorloc.loss import LossWeights
from anchorloc.model import NetworkSpec
from anchorloc.optim import (AdamState, EpochStats, TrainConfig, adam_step,
                             load_training_checkpoint, lr_at, save_training_checkpoint, train)


class ScalarAdam:
    """Independent single-parameter Adam, plain python floats."""

    def __init__(self, lr, b1=0.9, b2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, b1, b2, eps
        self.m = self.v = 0.0
        self.t = 0

    def step(self, theta, g):
        self.t += 1
        self.m = self.b1 * self.m + (1 - self.b1) * g
        self.v = self.b2 * self.v + (1 - self.b2) * g * g
        m_hat = self.m / (1 - self.b1 ** self.t)
        v_hat = self.v / (1 - self.b2 ** self.t)
        return theta - self.lr * m_hat / (math.sqrt(v_hat) + self.eps)


class TestLrSchedule:
    def test_initial(self):
        cfg = TrainConfig(lr=4e-4)
        assert lr_at(0, cfg) == 4e-4

    def test_halved_at_epoch_30(self):
        cfg = TrainConfig(lr=4e-4)
        assert lr_at(30, cfg) == 2e-4

    def test_halved_twice_at_epoch_60(self):
        cfg = TrainConfig(lr=4e-4)
        assert lr_at(60, cfg) == 1e-4

    def test_piecewise_constant_non_increasing(self):
        cfg = TrainConfig(lr=1e-3, lr_halving_period=30)
        values = [lr_at(e, cfg) for e in range(100)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[0] == values[29] and values[30] == values[59]

    def test_custom_period(self):
        cfg = TrainConfig(lr=8e-4, lr_halving_period=5)
        assert lr_at(14, cfg) == 2e-4


class TestAdamStep:
    def test_zero_gradient_leaves_parameters(self):
        params = np.array([1.0, -2.0, 3.0])
        state = AdamState.initial(3)
        for _ in range(5):
            params, state = adam_step(params, np.zeros(3), state, lr=0.1)
        np.testing.assert_array_equal(params, [1.0, -2.0, 3.0])

    def test_first_step_moves_by_lr_sign(self):
        # step = lr * g / (|g| + eps), so magnitude is lr up to the eps floor
        for g in (0.3, -7.0, 1e-3):
            params = np.array([1.0])
            new, _ = adam_step(params, np.array([g]), AdamState.initial(1), lr=0.01)
            assert new[0] == pytest.approx(1.0 - 0.01 * math.copysign(1, g), rel=1e-4)

    def test_quadratic_trajectory_matches_scalar_oracle(self):
        theta = np.array([1.0])
        state = AdamState.initial(1)
        oracle = ScalarAdam(lr=0.1)
        ref = 1.0
        for _ in range(10):
            g = 2.0 * theta[0]
            theta, state = adam_step(theta, np.array([g]), state, lr=0.1)
            ref = oracle.step(ref, 2.0 * ref)
            assert theta[0] == pytest.approx(ref, abs=1e-10)

    def test_vector_matches_scalar_oracle_bit_for_bit(self):
        # one independent scalar Adam per parameter; both sides run the same
        # IEEE operations in the same order, so they agree exactly
        rng = np.random.default_rng(21)
        params = rng.standard_normal(7)
        state = AdamState.initial(7)
        oracles = [ScalarAdam(lr=1e-2) for _ in range(7)]
        ref = params.tolist()
        for step in range(80):
            lr = 1e-2 * 0.5 ** (step // 40)
            g = rng.choice([-1.0, 1.0], size=7) * 10.0 ** rng.uniform(-6, 2, size=7)
            params, state = adam_step(params, g, state, lr)
            for i, oracle in enumerate(oracles):
                oracle.lr = lr
                ref[i] = oracle.step(ref[i], float(g[i]))
            assert params.tolist() == ref
            assert state.m.tolist() == [o.m for o in oracles]
            assert state.v.tolist() == [o.v for o in oracles]
            assert state.t == step + 1

    def test_inputs_not_mutated(self):
        params = np.array([1.0, 2.0])
        g = np.array([0.5, -0.5])
        state = AdamState.initial(2)
        adam_step(params, g, state, lr=0.1)
        np.testing.assert_array_equal(params, [1.0, 2.0])
        assert state.t == 0 and np.all(state.m == 0)

    def test_nonfinite_gradient_aborts(self):
        with pytest.raises(TrainingDivergenceError):
            adam_step(np.ones(2), np.array([1.0, np.inf]), AdamState.initial(2), lr=0.1)


@pytest.fixture(scope="module")
def tiny_scene(tiny_world, tiny_samples):
    train_s, test_s = tiny_samples
    return data.from_simworld(train_s, test_s, k=10)


@pytest.fixture(scope="module")
def tiny_net(tiny_scene):
    return NetworkSpec(input_dim=tiny_scene.train.features.shape[1],
                       hidden_layers=(16,), num_anchors=tiny_scene.num_anchors, seed=5)


class TestTrain:
    def test_zero_epochs_returns_init(self, tiny_scene, tiny_net):
        cfg = TrainConfig(epochs=0)
        report = train(tiny_scene.train, tiny_net, cfg)
        assert report.epochs == []
        np.testing.assert_array_equal(report.params, model.init(tiny_net))

    def test_deterministic(self, tiny_scene, tiny_net):
        cfg = TrainConfig(epochs=3, shuffle_seed=9)
        a = train(tiny_scene.train, tiny_net, cfg)
        b = train(tiny_scene.train, tiny_net, cfg)
        assert np.array_equal(a.params, b.params)
        assert a.epochs == b.epochs

    def test_shuffle_seed_changes_trajectory(self, tiny_scene, tiny_net):
        a = train(tiny_scene.train, tiny_net, TrainConfig(epochs=2, shuffle_seed=1))
        b = train(tiny_scene.train, tiny_net, TrainConfig(epochs=2, shuffle_seed=2))
        assert not np.array_equal(a.params, b.params)

    def test_loss_decreases_on_tiny_world(self, tiny_scene, tiny_net):
        report = train(tiny_scene.train, tiny_net, TrainConfig(epochs=25, shuffle_seed=3))
        assert report.epochs[-1].total < report.epochs[0].total

    def test_lr_sequence_follows_rule(self, tiny_scene, tiny_net):
        cfg = TrainConfig(epochs=8, lr=1e-3, lr_halving_period=3)
        report = train(tiny_scene.train, tiny_net, cfg)
        assert [s.lr for s in report.epochs] == [lr_at(e, cfg) for e in range(8)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_location(self, tiny_scene, tiny_net):
        # an absurd alpha makes activations overflow within a few steps
        cfg = TrainConfig(epochs=4, lr=1e250,
                          weights=LossWeights(alpha2=1e280, use_cross_entropy=False))
        with pytest.raises(TrainingDivergenceError) as err:
            train(tiny_scene.train, tiny_net, cfg)
        assert err.value.epoch is not None

    def test_empty_dataset_rejected(self, tiny_scene, tiny_net):
        empty = data.SampleBatch.build([], [], np.zeros((0, tiny_net.input_dim)),
                                       tiny_scene.anchor_map)
        with pytest.raises(InvalidInputError):
            train(empty, tiny_net, TrainConfig(epochs=1))

    def test_resume_reproduces_uninterrupted_run(self, tiny_scene, tiny_net, tmp_path):
        cfg6 = TrainConfig(epochs=6, shuffle_seed=4)
        full = train(tiny_scene.train, tiny_net, cfg6)

        cfg3 = TrainConfig(epochs=3, shuffle_seed=4)
        half = train(tiny_scene.train, tiny_net, cfg3)
        ckpt = tmp_path / "resume.bin"
        save_training_checkpoint(ckpt, tiny_net, half.params, half.adam_state, epoch=3)

        spec2, params2, state2, epoch2, _ = load_training_checkpoint(ckpt)
        assert epoch2 == 3
        resumed = train(tiny_scene.train, spec2, cfg6, init_params=params2,
                        init_state=state2, start_epoch=3)
        assert np.array_equal(resumed.params, full.params)
        assert resumed.epochs == full.epochs[3:]


def reference_loop(samples, params, state, config, loss_grad, start_epoch=0):
    """Mini-batch Adam built only from public pure functions: the documented
    shuffles, ``loss_grad(params, idx)`` -> (LossBreakdown, flat gradient) and
    ``adam_step``. Returns (params, state, [EpochStats])."""
    n = len(samples)
    history = []
    for epoch in range(start_epoch, config.epochs):
        lr = lr_at(epoch, config)
        perm = np.random.default_rng([config.shuffle_seed, epoch]).permutation(n)
        sums = np.zeros(4)
        for start in range(0, n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            b, grad = loss_grad(params, idx)
            params, state = adam_step(params, grad, state, lr)
            sums += len(idx) * np.array([b.total, b.offset_term, b.absolute_term, b.ce_term])
        means = sums / n
        history.append(EpochStats(epoch=epoch, lr=lr, total=float(means[0]),
                                  offset=float(means[1]), absolute=float(means[2]),
                                  ce=float(means[3])))
    return params, state, history


def anchor_loss_grad(samples, spec, weights):
    def loss_grad(params, idx):
        heads, cache = model.Bound(spec, params).forward(samples.features[idx])
        b, *d = loss.batch_total_loss(model.prediction(spec, heads), samples.offsets_at(idx),
                                      samples.positions[idx, 2], samples.orientations[idx],
                                      samples.nearest[idx], weights)
        return b, model.backward_batch(spec, params, cache, *d)
    return loss_grad


def direct_loss_grad(samples, spec, weights):
    def loss_grad(params, idx):
        heads, cache = model.Bound(spec, params).forward(samples.features[idx])
        b, d_pose = baseline.direct_loss_batch(heads["pose"], samples.positions[idx],
                                               samples.orientations[idx], weights)
        return b, baseline.backward_batch(spec, params, cache, d_pose)
    return loss_grad


def assert_same_run(report, params, state, history):
    assert np.array_equal(report.params, params)
    assert np.array_equal(report.adam_state.m, state.m)
    assert np.array_equal(report.adam_state.v, state.v)
    assert report.adam_state.t == state.t
    assert report.epochs == history


class TestInPlaceStep:
    """The training loop updates buffers in place; these runs must equal the
    pure functions' trajectory exactly."""

    @pytest.mark.parametrize("activation, use_ce", [("relu", False), ("tanh", True)])
    def test_matches_pure_reference_loop(self, tiny_scene, activation, use_ce):
        spec = NetworkSpec(input_dim=tiny_scene.train.features.shape[1], hidden_layers=(16, 8),
                           num_anchors=tiny_scene.num_anchors, activation=activation, seed=5)
        cfg = TrainConfig(epochs=4, batch_size=7, lr=1e-2, lr_halving_period=2, shuffle_seed=3,
                          weights=LossWeights(alpha1=0.5, alpha2=3.0, alpha3=0.7,
                                              use_cross_entropy=use_ce))
        report = train(tiny_scene.train, spec, cfg)
        ref = reference_loop(tiny_scene.train, model.init(spec), AdamState.initial(
            model.param_count(spec)), cfg, anchor_loss_grad(tiny_scene.train, spec, cfg.weights))
        assert_same_run(report, *ref)

    def test_direct_matches_pure_reference_loop(self, tiny_scene):
        spec = DirectSpec(input_dim=tiny_scene.train.features.shape[1], hidden_layers=(16,),
                          seed=4)
        cfg = TrainConfig(epochs=3, batch_size=9, lr=1e-2, shuffle_seed=6)
        report = baseline.train_direct(tiny_scene.train, spec, cfg)
        ref = reference_loop(tiny_scene.train, model.init(spec), AdamState.initial(
            model.param_count(spec)), cfg, direct_loss_grad(tiny_scene.train, spec,
                                                               cfg.weights))
        assert_same_run(report, *ref)

    def test_resumed_run_leaves_inputs_and_snapshots_alone(self, tiny_scene, tiny_net):
        cfg = TrainConfig(epochs=5, batch_size=11, lr=1e-2, shuffle_seed=8)
        half = train(tiny_scene.train, tiny_net, TrainConfig(epochs=2, batch_size=11, lr=1e-2,
                                                             shuffle_seed=8))
        init_params, init_state = half.params, half.adam_state
        kept = (init_params.copy(), init_state.m.copy(), init_state.v.copy(), init_state.t)

        seen = []

        def on_epoch(stats, params, state):
            seen.append((params, state, params.copy(), state.m.copy(), state.v.copy(), state.t))

        report = train(tiny_scene.train, tiny_net, cfg, init_params=init_params,
                       init_state=init_state, start_epoch=2, epoch_callback=on_epoch)
        assert np.array_equal(init_params, kept[0])
        assert np.array_equal(init_state.m, kept[1])
        assert np.array_equal(init_state.v, kept[2])
        assert init_state.t == kept[3]

        assert len(seen) == 3
        for params, state, params0, m0, v0, t0 in seen:
            assert np.array_equal(params, params0)
            assert np.array_equal(state.m, m0) and np.array_equal(state.v, v0)
            assert state.t == t0
        assert not np.array_equal(seen[0][0], seen[-1][0])
        assert np.array_equal(seen[-1][0], report.params)

        ref = reference_loop(tiny_scene.train, kept[0], AdamState(m=kept[1], v=kept[2],
                                                                   t=kept[3]),
                             cfg, anchor_loss_grad(tiny_scene.train, tiny_net, cfg.weights),
                             start_epoch=2)
        assert_same_run(report, *ref)
