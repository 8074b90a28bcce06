import sys
import threading

import numpy as np
import pytest

from anchorloc import model
from anchorloc.baseline import DirectSpec
from anchorloc.errors import InvalidInputError, InvalidSpecError
from anchorloc.model import NetworkSpec


def small_spec(**kw):
    args = dict(input_dim=5, hidden_layers=(7,), num_anchors=3, activation="tanh", seed=11)
    args.update(kw)
    return NetworkSpec(**args)


def forward_reference(spec, params, x):
    """Straight-line re-evaluation of the forward arithmetic, loops only."""
    # trunk layer i is at index i; the heads follow in head_dims() order
    table = model._layer_table(spec, params)
    depth = len(spec.hidden_layers)
    h = list(x)
    for W, b in table[:depth]:
        out = []
        for r in range(W.shape[0]):
            acc = b[r]
            for c in range(W.shape[1]):
                acc += W[r, c] * h[c]
            out.append(max(acc, 0.0) if spec.activation == "relu" else np.tanh(acc))
        h = out
    heads = {}
    for name, (W, b) in zip(("logits", "offsets", "absolute"), table[depth:]):
        heads[name] = [b[r] + sum(W[r, c] * h[c] for c in range(W.shape[1]))
                       for r in range(W.shape[0])]
    return heads


def scalar_loss_and_grad(pred):
    """Arbitrary smooth scalar of all heads of a BatchPrediction, plus its
    gradient as the per-head table backward_batch takes."""
    value = (np.sin(pred.logits).sum() + (pred.offsets ** 2).sum()
             + 3.0 * pred.z_hat.sum() + np.cos(pred.orient_raw).sum())
    d_abs = np.empty((len(pred.z_hat), model.ABS_HEAD_DIM))
    d_abs[:, model.ABS_Z], d_abs[:, model.ABS_ORIENT] = 3.0, -np.sin(pred.orient_raw)
    grad = {"logits": np.cos(pred.logits),
            "offsets": 2.0 * pred.offsets.reshape(len(pred.z_hat), -1), "absolute": d_abs}
    return value, grad


def backward_one(spec, params, x, upstream):
    """backward_batch for one feature vector, after the forward pass that
    produces its cache."""
    cache = model.Bound(spec, params).forward(x[None])
    return model.backward_batch(spec, params, cache, upstream)


class TestInit:
    def test_deterministic(self):
        spec = small_spec()
        a, b = model.init(spec), model.init(spec)
        assert np.array_equal(a, b)

    def test_seed_changes_parameters(self):
        a = model.init(small_spec(seed=1))
        b = model.init(small_spec(seed=2))
        assert not np.array_equal(a, b)

    def test_parameter_count_formula(self):
        # input 8, hidden [16], N = 4
        spec = NetworkSpec(input_dim=8, hidden_layers=(16,), num_anchors=4, seed=0)
        expected = (8 * 16 + 16) + (16 * 4 + 4) + (16 * 8 + 8) + (16 * 5 + 5)
        assert model.param_count(spec) == expected
        assert model.init(spec).size == expected

    def test_biases_zero(self):
        spec = small_spec()
        for _, b in model._layer_table(spec, model.init(spec)):
            assert np.all(b == 0.0)

    @pytest.mark.parametrize("make", [lambda **kw: NetworkSpec(num_anchors=2, **kw), DirectSpec],
                             ids=["NetworkSpec", "DirectSpec"])
    @pytest.mark.parametrize("bad", [{"hidden_layers": (0,)}, {"activation": "sigmoid"},
                                     {"input_dim": 0}, {"seed": -1}, {"seed": 2**64},
                                     {"input_dim": 12.0}, {"hidden_layers": (4.9,)},
                                     {"seed": True}],
                             ids=["zero-width", "unknown-activation", "no-input", "negative-seed",
                                  "seed-2**64", "float-input", "float-width", "bool-seed"])
    def test_invalid_trunk_rejected(self, make, bad):
        with pytest.raises(InvalidSpecError):
            make(**{"input_dim": 4, **bad})

    def test_no_anchors_rejected(self):
        with pytest.raises(InvalidSpecError, match="num_anchors must be >= 1"):
            NetworkSpec(input_dim=4, num_anchors=0)

    def test_num_anchors_is_an_integer(self):
        with pytest.raises(InvalidSpecError, match="num_anchors"):
            NetworkSpec(input_dim=4, num_anchors=2.0)

    def test_numpy_integers_become_ints(self):
        spec = NetworkSpec(input_dim=np.int64(5), hidden_layers=(np.int32(7),),
                           num_anchors=np.uint8(3), seed=np.uint64(2**63))
        assert spec == NetworkSpec(input_dim=5, hidden_layers=(7,), num_anchors=3, seed=2**63)
        assert {type(v) for v in (spec.input_dim, *spec.hidden_layers, spec.num_anchors,
                                  spec.seed)} == {int}


class TestForward:
    def test_zero_parameters_zero_outputs(self):
        spec = small_spec()
        params = np.zeros(model.param_count(spec))
        pred = model.forward(spec, params, np.ones(spec.input_dim))
        assert np.all(pred.logits == 0) and np.all(pred.offsets == 0)
        assert np.all(pred.z_hat == 0) and np.all(pred.orient_raw == 0)

    def test_purity(self):
        spec = small_spec()
        params = model.init(spec)
        x = np.linspace(-1, 1, spec.input_dim)
        a, b = model.forward(spec, params, x), model.forward(spec, params, x)
        assert np.array_equal(a.logits, b.logits)
        assert np.array_equal(a.offsets, b.offsets)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_matches_straight_line_reference(self, activation):
        rng = np.random.default_rng(5)
        spec = small_spec(activation=activation)
        params = model.init(spec)
        for _ in range(5):
            x = rng.standard_normal(spec.input_dim)
            pred = model.forward(spec, params, x)
            ref = forward_reference(spec, params, x)
            assert np.abs(pred.logits[0] - ref["logits"]).max() < 1e-12
            assert np.abs(pred.offsets[0].ravel() - ref["offsets"]).max() < 1e-12
            assert abs(pred.z_hat[0] - ref["absolute"][0]) < 1e-12
            assert np.abs(pred.orient_raw[0] - ref["absolute"][1:]).max() < 1e-12

    def test_batch_matches_single(self):
        spec = small_spec()
        params = model.init(spec)
        X = np.random.default_rng(3).standard_normal((6, spec.input_dim))
        batch = model.forward_batch(spec, params, X)
        for i in range(6):
            single = model.forward(spec, params, X[i])
            # BLAS may pick different kernels per shape; agreement to 1e-12
            np.testing.assert_allclose(batch.logits[i], single.logits[0], atol=1e-12)
            np.testing.assert_allclose(batch.offsets[i], single.offsets[0], atol=1e-12)
            assert batch.z_hat[i] == pytest.approx(single.z_hat[0], abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        spec = small_spec()
        with pytest.raises(InvalidInputError):
            model.forward(spec, model.init(spec), np.zeros(spec.input_dim + 1))

    def test_parameters_one_short_rejected(self):
        spec = small_spec()
        with pytest.raises(InvalidInputError, match="parameter vector has"):
            model.forward(spec, model.init(spec)[:-1], np.zeros(spec.input_dim))

    def test_empty_batch_has_an_empty_offsets_table(self):
        spec = small_spec()
        pred = model.forward_batch(spec, model.init(spec), np.zeros((0, spec.input_dim)))
        assert pred.logits.shape == (0, spec.num_anchors)
        assert pred.offsets.shape == (0, spec.num_anchors, 2)


def pred_bytes(pred):
    return [a.tobytes() for a in (pred.logits, pred.offsets, pred.z_hat, pred.orient_raw)]


def fresh_forward(spec, params, x):
    """The forward pass of a new binding of ``params``."""
    bound = model.Bound(spec, params)
    return model.prediction(bound, bound.forward(x[None])[-1])


class TestServedBinding:
    """model.forward reuses the binding of the last parameter vector it served;
    it must never answer from parameters the caller has since changed."""

    def test_in_place_update_is_seen(self):
        spec = small_spec()
        params = model.init(spec)
        x = np.linspace(-1, 1, spec.input_dim)
        before = pred_bytes(model.forward(spec, params, x))
        params *= 1.5
        params[-1] += 0.25
        after = pred_bytes(model.forward(spec, params, x))
        assert after == pred_bytes(fresh_forward(spec, params, x))
        assert after != before

    def test_offsets_head_is_read_at_first_use(self):
        # the trunk and the other heads run in forward; the offsets head's
        # weights are read when the offsets are first used
        spec = small_spec()
        params = model.init(spec)
        x = np.linspace(-1, 1, spec.input_dim)
        pred = model.forward(spec, params, x)
        logits = pred.logits.copy()
        W, b = model._layer_table(spec, params)[2]  # the trunk layer, logits, then offsets
        W += 0.5
        b -= 0.25
        fresh = fresh_forward(spec, params, x)
        assert pred.offsets.tobytes() == fresh.offsets.tobytes()
        assert pred.logits.tobytes() == logits.tobytes() == fresh.logits.tobytes()

    def test_alternating_vectors_and_specs(self):
        relu, tanh = small_spec(activation="relu"), small_spec(activation="tanh")
        vectors = (model.init(relu), -2.0 * model.init(relu))
        x = np.linspace(-1, 1, relu.input_dim)
        expected = {(s, i): pred_bytes(fresh_forward(s, v, x))
                    for s in (relu, tanh) for i, v in enumerate(vectors)}
        assert len({tuple(e) for e in expected.values()}) == 4
        pairs = [(s, i) for s in (relu, tanh) for i in range(2)]
        for spec, i in pairs + sorted(pairs, key=lambda p: p[1]) + pairs[::-1]:
            assert pred_bytes(model.forward(spec, vectors[i], x)) == expected[spec, i]

    @pytest.mark.parametrize("kind", ["float32", "strided", "list"])
    def test_converted_params_are_never_served_stale(self, kind):
        spec = small_spec()
        base = model.init(spec)
        make = {"float32": lambda p: p.astype(np.float32),
                "strided": lambda p: np.repeat(p, 2)[::2],
                "list": lambda p: p.tolist()}[kind]
        x = np.linspace(-1, 1, spec.input_dim)
        params = make(base)
        before = pred_bytes(model.forward(spec, params, x))
        params[:] = make(1.5 * base)
        after = pred_bytes(model.forward(spec, params, x))
        assert after == pred_bytes(fresh_forward(spec, params, x))
        assert after != before

    def test_threads_each_get_their_own_answers(self):
        # the one served binding is shared by every thread in the process
        specs = [small_spec(activation=a) for a in ("relu", "tanh")]
        x = np.linspace(-1, 1, specs[0].input_dim)
        work = [(specs[i % 2], model.init(specs[0]) * (1.0 + i)) for i in range(6)]
        expected = [pred_bytes(fresh_forward(spec, params, x)) for spec, params in work]
        wrong = []

        def serve(i):
            spec, params = work[i]
            for _ in range(300):
                if pred_bytes(model.forward(spec, params, x)) != expected[i]:
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=serve, args=(i,)) for i in range(len(work))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_new_vector_where_a_freed_one_was(self):
        # converted inputs are not held, so a new one may take a freed one's id
        spec = small_spec()
        base = model.init(spec)
        x = np.linspace(-1, 1, spec.input_dim)
        for i in range(20):
            params = base.astype(np.float32)
            params += np.float32(0.01 * i)
            assert pred_bytes(model.forward(spec, params, x)) == pred_bytes(
                fresh_forward(spec, params, x))
            del params


class TestBackward:
    def test_zero_upstream_zero_gradient(self):
        spec = small_spec()
        params = model.init(spec)
        upstream = {"logits": np.zeros((1, 3)), "offsets": np.zeros((1, 6)),
                    "absolute": np.zeros((1, 5))}
        grad = backward_one(spec, params, np.ones(spec.input_dim), upstream)
        assert np.all(grad == 0)

    def test_linearity(self):
        spec = small_spec()
        params = model.init(spec)
        x = np.linspace(-1, 1, spec.input_dim)
        _, g = scalar_loss_and_grad(model.forward_batch(spec, params, x[None]))
        grad1 = backward_one(spec, params, x, g)
        grad2 = backward_one(spec, params, x, {name: 2 * d for name, d in g.items()})
        assert np.abs(grad2 - 2 * grad1).max() < 1e-12

    def test_malformed_upstream_rejected(self):
        spec = small_spec()
        params = model.init(spec)
        bad = {"logits": np.zeros((2, spec.num_anchors)),
               "offsets": np.zeros((1, 2 * spec.num_anchors)), "absolute": np.zeros((1, 5))}
        with pytest.raises(InvalidInputError, match="batch sizes disagree"):
            backward_one(spec, params, np.ones(spec.input_dim), bad)

    def test_matches_finite_differences(self):
        spec = small_spec(activation="tanh")
        rng = np.random.default_rng(9)
        params = model.init(spec)
        x = rng.standard_normal(spec.input_dim)
        _, upstream = scalar_loss_and_grad(model.forward_batch(spec, params, x[None]))
        analytic = backward_one(spec, params, x, upstream)
        h = 1e-5
        for idx in rng.choice(params.size, size=40, replace=False):
            for sign, store in ((+1, "hi"), (-1, "lo")):
                p = params.copy()
                p[idx] += sign * h
                v, _ = scalar_loss_and_grad(model.forward_batch(spec, p, x[None]))
                if sign > 0:
                    hi = v
                else:
                    lo = v
            fd = (hi - lo) / (2 * h)
            assert abs(analytic[idx] - fd) / max(1.0, abs(analytic[idx])) < 1e-4

