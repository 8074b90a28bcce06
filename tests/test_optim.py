import json
import math
import re
import struct
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from anchorloc import baseline, data, evaluation, loss, model, optim, simworld
from anchorloc.baseline import DirectSpec
from anchorloc.errors import InvalidInputError, TrainingDivergenceError
from anchorloc.loss import LossWeights
from anchorloc.model import NetworkSpec
from anchorloc.optim import (AdamState, EpochStats, TrainConfig, adam_step,
                             load_training_checkpoint, lr_at, save_training_checkpoint, train)

from conftest import half_writes, openblas_threads


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

    def test_negative_epoch_rejected(self):
        with pytest.raises(InvalidInputError, match="epoch must be >= 0"):
            lr_at(-1, TrainConfig())


class TestAdamStep:
    def test_zero_gradient_leaves_parameters(self):
        params = np.array([1.0, -2.0, 3.0])
        state = AdamState(m=np.zeros(3), v=np.zeros(3))
        for _ in range(5):
            params, state = adam_step(params, np.zeros(3), state, lr=0.1)
        np.testing.assert_array_equal(params, [1.0, -2.0, 3.0])

    def test_first_step_moves_by_lr_sign(self):
        # step = lr * g / (|g| + eps), so magnitude is lr up to the eps floor
        for g in (0.3, -7.0, 1e-3):
            params = np.array([1.0])
            new, _ = adam_step(params, np.array([g]), AdamState(m=np.zeros(1), v=np.zeros(1)),
                               lr=0.01)
            assert new[0] == pytest.approx(1.0 - 0.01 * math.copysign(1, g), rel=1e-4)

    def test_quadratic_trajectory_matches_scalar_oracle(self):
        theta = np.array([1.0])
        state = AdamState(m=np.zeros(1), v=np.zeros(1))
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
        state = AdamState(m=np.zeros(7), v=np.zeros(7))
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
        state = AdamState(m=np.zeros(2), v=np.zeros(2))
        adam_step(params, g, state, lr=0.1)
        np.testing.assert_array_equal(params, [1.0, 2.0])
        assert state.t == 0 and np.all(state.m == 0)

    def test_gradient_of_another_shape_rejected(self):
        with pytest.raises(InvalidInputError, match="shape mismatch"):
            adam_step(np.ones(3), np.ones(2), AdamState(m=np.zeros(3), v=np.zeros(3)), lr=0.1)

    def test_nonfinite_gradient_aborts(self):
        with pytest.raises(TrainingDivergenceError):
            adam_step(np.ones(2), np.array([1.0, np.inf]),
                      AdamState(m=np.zeros(2), v=np.zeros(2)), lr=0.1)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf], ids=["nan", "-inf"])
    def test_nonfinite_gradient_leaves_the_state(self, bad):
        adam = optim._InPlaceAdam(np.array([1.0, -2.0, 3.0]), AdamState(
            m=np.array([0.1, -0.2, 0.3]), v=np.array([0.4, 0.5, 0.6]), t=5))
        kept = [a.tobytes() for a in (adam.params, adam.m, adam.v)]
        adam.grad[...] = [0.5, bad, -0.25]
        with pytest.raises(TrainingDivergenceError):
            adam.step(0.1)
        assert adam.t == 5
        assert [a.tobytes() for a in (adam.params, adam.m, adam.v)] == kept

    def test_blocks_match_scalar_oracle_bit_for_bit(self, monkeypatch):
        # two whole blocks and 5 entries: scalar oracles at every block edge and
        # at random entries, and the whole vector against the same steps taken
        # as one block, whose arithmetic the 7-entry oracle test pins
        block = optim._BLOCK
        n = 2 * block + 5
        rng = np.random.default_rng(22)
        params = rng.standard_normal(n)
        blocked = optim._InPlaceAdam(params)
        monkeypatch.setattr(optim, "_BLOCK", n)
        whole = optim._InPlaceAdam(params)
        assert (len(blocked._blocks), len(whole._blocks)) == (3, 1)
        edges = {i + d for i in (block, 2 * block) for d in range(-3, 3)}
        lanes = sorted(edges | {0, 1, 2} | set(range(n - 5, n))
                       | set(rng.choice(n, 40, replace=False).tolist()))
        oracles = [ScalarAdam(lr=1e-2) for _ in lanes]
        ref = params[lanes].tolist()
        for step in range(60):
            lr = 1e-2 * 0.5 ** (step // 30)
            g = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-6, 2, size=n)
            for adam in (blocked, whole):
                adam.grad[...] = g
                adam.step(lr)
            for j, (i, oracle) in enumerate(zip(lanes, oracles)):
                oracle.lr = lr
                ref[j] = oracle.step(ref[j], float(g[i]))
            assert blocked.params[lanes].tolist() == ref
            assert blocked.m[lanes].tolist() == [o.m for o in oracles]
            assert blocked.v[lanes].tolist() == [o.v for o in oracles]
            for a, b in ((blocked.params, whole.params), (blocked.m, whole.m),
                         (blocked.v, whole.v)):
                assert a.tobytes() == b.tobytes()
            assert blocked.t == whole.t == step + 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_nonfinite_entry_in_the_last_block_leaves_every_block(self, bad):
        n = 2 * optim._BLOCK + 5
        rng = np.random.default_rng(23)
        adam = optim._InPlaceAdam(rng.standard_normal(n), AdamState(
            m=rng.standard_normal(n), v=rng.random(n), t=5))
        assert len(adam._blocks) == 3
        kept = [a.tobytes() for a in (adam.params, adam.m, adam.v)]
        adam.grad[...] = rng.standard_normal(n)
        adam.grad[n - 2] = bad
        with pytest.raises(TrainingDivergenceError):
            adam.step(0.1)
        assert adam.t == 5
        assert [a.tobytes() for a in (adam.params, adam.m, adam.v)] == kept

    def test_finite_gradient_whose_squares_overflow_steps(self):
        # every entry is finite, so Adam steps, though g.g overflows to inf
        g = [1e200, -1e200, 0.5, -0.25]
        params = np.array([1.0, 2.0, -3.0, 4.0])
        with np.errstate(over="ignore"):
            new, state = adam_step(params, np.array(g),
                                   AdamState(m=np.zeros(4), v=np.zeros(4)), lr=0.1)
        oracles = [ScalarAdam(0.1) for _ in g]
        assert new.tolist() == [o.step(p, gi) for o, p, gi in zip(oracles, params.tolist(), g)]
        assert state.m.tolist() == [o.m for o in oracles]
        assert state.v.tolist() == [o.v for o in oracles]
        assert state.v[:2].tolist() == [math.inf, math.inf]
        assert new[:2].tolist() == [1.0, 2.0] and state.t == 1


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

    def test_divergence_aborts_with_location(self, tiny_scene, tiny_net):
        # an absurd alpha makes activations overflow within a few steps
        cfg = TrainConfig(epochs=4, lr=1e250,
                          weights=LossWeights(alpha2=1e280))
        with pytest.raises(TrainingDivergenceError) as err:
            train(tiny_scene.train, tiny_net, cfg)
        assert err.value.epoch is not None

    def test_non_finite_loss_aborts_at_the_first_batch(self, tiny_scene, tiny_net):
        # finite residuals times an alpha near the largest double overflow the total
        cfg = TrainConfig(epochs=1, weights=LossWeights(alpha2=1e308))
        with pytest.raises(TrainingDivergenceError, match="loss became non-finite") as err:
            train(tiny_scene.train, tiny_net, cfg)
        assert (err.value.epoch, err.value.batch) == (0, 0)

    @pytest.mark.parametrize("field", ["epochs", "batch_size", "lr_halving_period"])
    @pytest.mark.parametrize("value", [2.5, True, 3.0])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(InvalidInputError, match=f"{field} must be an integer"):
            TrainConfig(**{field: value})

    def test_numpy_integer_counts_become_ints(self):
        cfg = TrainConfig(epochs=np.int64(3), batch_size=np.int32(7),
                          lr_halving_period=np.uint8(2))
        counts = (cfg.epochs, cfg.batch_size, cfg.lr_halving_period)
        assert counts == (3, 7, 2) and all(type(v) is int for v in counts)

    @pytest.mark.parametrize("field", ["input_dim", "num_anchors"])
    def test_spec_mismatch_names_both_numbers(self, tiny_scene, tiny_net, field):
        have = getattr(tiny_net, field)
        spec = replace(tiny_net, **{field: have + 1})
        with pytest.raises(InvalidInputError) as err:
            train(tiny_scene.train, spec, TrainConfig(epochs=1))
        assert {str(have), str(have + 1)} <= set(re.findall(r"\d+", str(err.value)))

    def test_moments_of_another_size_rejected(self, tiny_scene, tiny_net):
        n = model.param_count(tiny_net) - 1
        with pytest.raises(InvalidInputError, match="Adam state/parameter shape mismatch"):
            train(tiny_scene.train, tiny_net, TrainConfig(epochs=1),
                  init_state=AdamState(m=np.zeros(n), v=np.zeros(n)))

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


def anchor_loss(samples, weights):
    """The anchor model's loss on rows ``idx``, given a Bound and its trunk
    output: (LossBreakdown, per-head gradient table)."""
    def heads(bound, h, idx):
        return loss.batch_total_loss(model.prediction(bound, h),
                                     samples.offsets_at(samples.positions[idx]),
                                     samples.positions[idx, 2], samples.orientations[idx],
                                     samples.nearest[idx], weights)
    return heads


def direct_loss(samples, weights):
    """The direct control's loss, called as :func:`anchor_loss`'s."""
    def heads(bound, h, idx):
        return baseline.direct_loss_batch(bound.head("pose", h), samples.positions[idx],
                                          samples.orientations[idx], weights)
    return heads


LOSSES = {NetworkSpec: anchor_loss, DirectSpec: direct_loss}


def loss_grad_of(samples, spec, weights):
    """``reference_loop``'s loss_grad for spec's model: its loss, then
    ``model.backward_batch`` of the per-head table into a flat gradient."""
    heads = LOSSES[type(spec)](samples, weights)

    def loss_grad(params, idx):
        bound = model.Bound(spec, params)
        cache = bound.forward(samples.features[idx])
        b, d_heads = heads(bound, cache[-1], idx)
        return b, model.backward_batch(spec, params, cache, d_heads)
    return loss_grad


class TestLossContract:
    """Both models' losses return what ``model.Bound.backward`` takes, and one
    ``backward_batch`` serves both specs."""

    @pytest.mark.parametrize("spec_type", [NetworkSpec, DirectSpec])
    def test_a_loss_returns_a_batch_row_per_head(self, tiny_scene, spec_type):
        samples = tiny_scene.train
        args = dict(input_dim=samples.features.shape[1], hidden_layers=(8,), seed=3)
        if spec_type is NetworkSpec:
            args["num_anchors"] = tiny_scene.num_anchors
        spec = spec_type(**args)
        idx = np.arange(5)
        bound = model.Bound(spec, model.init(spec))
        heads = LOSSES[spec_type](samples, LossWeights(alpha1=1.0))
        _, d_heads = heads(bound, bound.forward(samples.features[idx])[-1], idx)
        assert {name: d.shape for name, d in d_heads.items()} == \
            {name: (5, width) for name, width in spec.head_dims().items()}

    def test_the_control_backward_is_the_models(self):
        assert baseline.backward_batch is model.backward_batch


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
                          weights=LossWeights(alpha1=0.5 if use_ce else 0.0, alpha2=3.0,
                                              alpha3=0.7))
        report = train(tiny_scene.train, spec, cfg)
        n = model.param_count(spec)
        ref = reference_loop(tiny_scene.train, model.init(spec), AdamState(
            m=np.zeros(n), v=np.zeros(n)), cfg, loss_grad_of(tiny_scene.train, spec,
                                                             cfg.weights))
        assert_same_run(report, *ref)

    def test_direct_matches_pure_reference_loop(self, tiny_scene):
        spec = DirectSpec(input_dim=tiny_scene.train.features.shape[1], hidden_layers=(16,),
                          seed=4)
        cfg = TrainConfig(epochs=3, batch_size=9, lr=1e-2, shuffle_seed=6)
        report = baseline.train_direct(tiny_scene.train, spec, cfg)
        n = model.param_count(spec)
        ref = reference_loop(tiny_scene.train, model.init(spec), AdamState(
            m=np.zeros(n), v=np.zeros(n)), cfg, loss_grad_of(tiny_scene.train, spec,
                                                             cfg.weights))
        assert_same_run(report, *ref)

    def test_resumed_run_leaves_inputs_and_snapshots_alone(self, tiny_scene, tiny_net):
        cfg = TrainConfig(epochs=5, batch_size=11, lr=1e-2, shuffle_seed=8)
        half = train(tiny_scene.train, tiny_net, TrainConfig(epochs=2, batch_size=11, lr=1e-2,
                                                             shuffle_seed=8))
        init_params, init_state = half.params, half.adam_state
        kept = (init_params.copy(), init_state.m.copy(), init_state.v.copy(), init_state.t)

        seen = []

        def on_epoch(stats, snapshot):
            params, state = snapshot()
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
                             cfg, loss_grad_of(tiny_scene.train, tiny_net, cfg.weights),
                             start_epoch=2)
        assert_same_run(report, *ref)


    @pytest.mark.parametrize("epochs", [0, 1, 2, 3])
    def test_trained_parameters_start_on_a_64_byte_boundary(self, tiny_scene, tiny_net,
                                                             epochs):
        direct = DirectSpec(input_dim=tiny_net.input_dim, hidden_layers=(16,))
        cfg = TrainConfig(epochs=epochs)
        for report in (train(tiny_scene.train, tiny_net, cfg),
                       baseline.train_direct(tiny_scene.train, direct, cfg)):
            for a in (report.params, report.adam_state.m, report.adam_state.v):
                assert a.ctypes.data % 64 == 0

    @pytest.mark.parametrize("n", [1, 3, 10, 101, 2 * optim._BLOCK + 5])
    def test_adam_step_parameters_start_on_a_64_byte_boundary(self, n):
        # params, grad, m and v, and each block's views of them
        params, state = adam_step(np.ones(n), np.ones(n),
                                  AdamState(m=np.zeros(n), v=np.zeros(n)), 1e-3)
        adam = optim._InPlaceAdam(np.ones(n))
        for a in (params, state.m, state.v, adam.params, adam.grad, adam.m, adam.v,
                  *(view for views in adam._blocks for view in views)):
            assert a.ctypes.data % 64 == 0

    def test_training_holds_four_parameter_sized_arrays(self, tiny_scene):
        # params, grad, m and v, plus one Adam block of scratch: wide layers
        # keep a step's temporaries small beside the 8P-byte vectors, and a
        # callback that takes no snapshot costs no copy
        spec = NetworkSpec(input_dim=tiny_scene.train.features.shape[1],
                           hidden_layers=(600, 600), num_anchors=tiny_scene.num_anchors, seed=3)
        n = model.param_count(spec)
        assert n > 2 * optim._BLOCK
        cfg = TrainConfig(epochs=2)
        init = model.init(spec)
        held = []

        def on_epoch(stats, snapshot):
            held.append(tracemalloc.get_traced_memory()[0] - base)

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train(tiny_scene.train, spec, cfg, init_params=init,
                  epoch_callback=lambda stats, snapshot: None)
            peak = tracemalloc.get_traced_memory()[1] - base
            # a fresh run writes model.init straight into Adam's parameter
            # buffer, so it never holds a spare copy of it
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            report = train(tiny_scene.train, spec, cfg, epoch_callback=on_epoch)
            fresh_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * n
        assert len(held) == 2 and max(held) < 5 * 8 * n
        assert fresh_peak < 5 * 8 * n
        assert np.array_equal(report.params, train(tiny_scene.train, spec, cfg,
                                                   init_params=init).params)


def test_library_training_does_not_depend_on_the_thread_count():
    # at k=1 the default world has 2000 anchors; the logits head's input
    # gradient, a (32, N) @ (N, 48) product, is where OpenBLAS splits the sums
    # across threads when it may use more than one
    get, put = openblas_threads()
    scene = data.from_simworld(*simworld.generate(simworld.default_world(),
                                                  simworld.DEFAULT_N_TRAIN, 1), k=1)
    spec = NetworkSpec(input_dim=scene.train.features.shape[1], num_anchors=scene.num_anchors,
                       seed=5)
    before = get()
    params = []
    try:
        for threads in (1, 2):
            put(threads)
            params.append(train(scene.train, spec, TrainConfig(epochs=2, shuffle_seed=7)).params)
            assert get() == threads
    finally:
        put(before)
    assert params[0].tobytes() == params[1].tobytes()


def test_training_and_evaluation_run_at_one_thread_and_restore_the_count(
        tiny_scene, tiny_net, monkeypatch):
    get, put = openblas_threads()
    seen = []
    forward = model.Bound.forward
    monkeypatch.setattr(model.Bound, "forward",
                        lambda net, x: seen.append(get()) or forward(net, x))
    before = get()
    put(2)
    try:
        report = train(tiny_scene.train, tiny_net, TrainConfig(epochs=1))
        evaluation.evaluate(tiny_net, report.params, tiny_scene.test, tiny_scene.anchor_map)
        assert get() == 2
    finally:
        put(before)
    assert len(seen) > 1 and set(seen) == {1}


def small_spec():
    return NetworkSpec(input_dim=5, hidden_layers=(7,), num_anchors=3, activation="tanh",
                       seed=11)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        spec = small_spec()
        params = model.init(spec)
        rng = np.random.default_rng(1)
        state = AdamState(m=rng.standard_normal(params.size), v=rng.random(params.size), t=7)
        path = tmp_path / "ckpt.bin"
        save_training_checkpoint(path, spec, params, state, epoch=3)
        spec2, params2, state2, epoch2, meta = load_training_checkpoint(path)
        assert spec2 == spec
        assert np.array_equal(params, params2)
        assert np.array_equal(state.m, state2.m) and np.array_equal(state.v, state2.v)
        assert state2.t == 7
        assert epoch2 == 3 and meta["epoch"] == 3

    def test_byte_layout(self, tmp_path):
        # the documented layout, assembled independently of the writer
        spec = small_spec()
        params = model.init(spec)
        rng = np.random.default_rng(2)
        state = AdamState(m=rng.standard_normal(params.size), v=rng.random(params.size), t=5)
        path = tmp_path / "ckpt.bin"
        save_training_checkpoint(path, spec, params, state, epoch=2,
                                 meta={"frame_interval": 4, "scene": "s", "epoch": 9})
        n = params.size
        header = {"spec": asdict(spec),
                  "arrays": [{"name": name, "shape": [n]}
                             for name in ("params", "adam_m", "adam_v")],
                  "meta": {"epoch": 9, "adam_t": 5, "frame_interval": 4, "scene": "s"}}
        hbytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        expected = (b"ALCK" + struct.pack("<II", 1, len(hbytes)) + hbytes
                    + b"".join(struct.pack(f"<{n}d", *a) for a in (params, state.m, state.v)))
        assert path.read_bytes() == expected

    def test_saved_forward_reproduces_outputs(self, tmp_path):
        spec = small_spec()
        params = model.init(spec)
        x = np.linspace(0, 1, spec.input_dim)
        before = model.forward(spec, params, x)
        path = tmp_path / "ckpt.bin"
        save_training_checkpoint(path, spec, params, AdamState(
            m=np.zeros(params.size), v=np.zeros(params.size)), epoch=0)
        spec2, params2, _, _, _ = load_training_checkpoint(path)
        after = model.forward(spec2, params2, x)
        assert np.array_equal(before.logits, after.logits)
        assert np.array_equal(before.orient_raw, after.orient_raw)

    def test_failed_write_leaves_previous_checkpoint(self, tmp_path):
        spec = small_spec()
        params = model.init(spec)
        state = AdamState(m=np.zeros(params.size), v=np.zeros(params.size))
        path = tmp_path / "ckpt.bin"
        save_training_checkpoint(path, spec, params, state, epoch=1)
        before = path.read_bytes()

        with half_writes(), pytest.raises(OSError):
            save_training_checkpoint(path, spec, params + 1.0, state, epoch=2)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]

        save_training_checkpoint(path, spec, params + 1.0, state, epoch=2)
        assert load_training_checkpoint(path)[4] == {"epoch": 2, "adam_t": 0}
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]
