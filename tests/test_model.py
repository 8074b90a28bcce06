import errno

import numpy as np
import pytest

from anchorloc import model
from anchorloc.errors import InvalidInputError, InvalidSpecError
from anchorloc.model import NetworkSpec


def small_spec(**kw):
    args = dict(input_dim=5, hidden_layers=(7,), num_anchors=3, activation="tanh", seed=11)
    args.update(kw)
    return NetworkSpec(**args)


def forward_reference(spec, params, x):
    """Straight-line re-evaluation of the forward arithmetic, loops only."""
    views = model._Views(spec, params)
    h = list(x)
    for li in range(len(spec.hidden_layers)):
        W, b = views.W[f"trunk{li}"], views.b[f"trunk{li}"]
        out = []
        for r in range(W.shape[0]):
            acc = b[r]
            for c in range(W.shape[1]):
                acc += W[r, c] * h[c]
            out.append(max(acc, 0.0) if spec.activation == "relu" else np.tanh(acc))
        h = out
    heads = {}
    for name in ("logits", "offsets", "absolute"):
        W, b = views.W[name], views.b[name]
        heads[name] = [b[r] + sum(W[r, c] * h[c] for c in range(W.shape[1]))
                       for r in range(W.shape[0])]
    return heads


def scalar_loss_and_grad(pred):
    """Arbitrary smooth scalar of all heads of a BatchPrediction, plus its
    gradient as backward_batch's upstream arguments."""
    value = (np.sin(pred.logits).sum() + (pred.offsets ** 2).sum()
             + 3.0 * pred.z_hat.sum() + np.cos(pred.orient_raw).sum())
    grad = (np.cos(pred.logits), 2.0 * pred.offsets, np.full_like(pred.z_hat, 3.0),
            -np.sin(pred.orient_raw))
    return value, grad


def backward_one(spec, params, x, upstream):
    """backward_batch for one feature vector, after the forward pass that
    produces its cache."""
    _, cache = model.Bound(spec, params).forward(x[None])
    return model.backward_batch(spec, params, cache, *upstream)


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
        views = model._Views(spec, model.init(spec))
        for b in views.b.values():
            assert np.all(b == 0.0)

    def test_zero_width_layer_rejected(self):
        with pytest.raises(InvalidSpecError):
            NetworkSpec(input_dim=4, hidden_layers=(0,), num_anchors=2)


class TestForward:
    def test_zero_parameters_zero_outputs(self):
        spec = small_spec()
        params = np.zeros(model.param_count(spec))
        pred = model.forward(spec, params, np.ones(spec.input_dim))
        assert np.all(pred.logits == 0) and np.all(pred.offsets == 0)
        assert pred.z_hat == 0 and np.all(pred.orient_raw == 0)

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
            assert np.abs(pred.logits - ref["logits"]).max() < 1e-12
            assert np.abs(pred.offsets.ravel() - ref["offsets"]).max() < 1e-12
            assert abs(pred.z_hat - ref["absolute"][0]) < 1e-12
            assert np.abs(pred.orient_raw - ref["absolute"][1:]).max() < 1e-12

    def test_batch_matches_single(self):
        spec = small_spec()
        params = model.init(spec)
        X = np.random.default_rng(3).standard_normal((6, spec.input_dim))
        batch = model.forward_batch(spec, params, X)
        for i in range(6):
            single = model.forward(spec, params, X[i])
            # BLAS may pick different kernels per shape; agreement to 1e-12
            np.testing.assert_allclose(batch.logits[i], single.logits, atol=1e-12)
            np.testing.assert_allclose(batch.offsets[i], single.offsets, atol=1e-12)
            assert batch.z_hat[i] == pytest.approx(single.z_hat, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        spec = small_spec()
        with pytest.raises(InvalidInputError):
            model.forward(spec, model.init(spec), np.zeros(spec.input_dim + 1))


class TestBackward:
    def test_zero_upstream_zero_gradient(self):
        spec = small_spec()
        params = model.init(spec)
        upstream = (np.zeros((1, 3)), np.zeros((1, 3, 2)), np.zeros(1), np.zeros((1, 4)))
        grad = backward_one(spec, params, np.ones(spec.input_dim), upstream)
        assert np.all(grad == 0)

    def test_linearity(self):
        spec = small_spec()
        params = model.init(spec)
        x = np.linspace(-1, 1, spec.input_dim)
        _, g = scalar_loss_and_grad(model.forward_batch(spec, params, x[None]))
        grad1 = backward_one(spec, params, x, g)
        grad2 = backward_one(spec, params, x, [2 * d for d in g])
        assert np.abs(grad2 - 2 * grad1).max() < 1e-12

    def test_malformed_upstream_rejected(self):
        spec = small_spec()
        params = model.init(spec)
        bad = (np.zeros((2, spec.num_anchors)), np.zeros((1, spec.num_anchors, 2)),
               np.zeros(1), np.zeros((1, 4)))
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


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        spec = small_spec()
        params = model.init(spec)
        extra = {"adam_m": np.random.default_rng(1).standard_normal(params.size)}
        path = tmp_path / "ckpt.bin"
        model.save_checkpoint(path, spec, params, extra_arrays=extra, meta={"epoch": 3})
        spec2, params2, arrays, meta = model.load_checkpoint(path)
        assert spec2 == spec
        assert np.array_equal(params, params2)
        assert np.array_equal(extra["adam_m"], arrays["adam_m"])
        assert meta["epoch"] == 3

    def test_saved_forward_reproduces_outputs(self, tmp_path):
        spec = small_spec()
        params = model.init(spec)
        x = np.linspace(0, 1, spec.input_dim)
        before = model.forward(spec, params, x)
        path = tmp_path / "ckpt.bin"
        model.save_checkpoint(path, spec, params)
        spec2, params2, _, _ = model.load_checkpoint(path)
        after = model.forward(spec2, params2, x)
        assert np.array_equal(before.logits, after.logits)
        assert np.array_equal(before.orient_raw, after.orient_raw)

    def test_failed_write_leaves_previous_checkpoint(self, tmp_path, monkeypatch):
        spec = small_spec()
        params = model.init(spec)
        path = tmp_path / "ckpt.bin"
        model.save_checkpoint(path, spec, params, meta={"epoch": 1})
        before = path.read_bytes()

        class HalfWriter:
            """A file whose write stores half the bytes, then fails as a full disk would."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        real_open = open
        monkeypatch.setattr(model, "open", lambda *a, **kw: HalfWriter(real_open(*a, **kw)),
                            raising=False)
        with pytest.raises(OSError):
            model.save_checkpoint(path, spec, params + 1.0, meta={"epoch": 2})
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]

        model.save_checkpoint(path, spec, params + 1.0, meta={"epoch": 2})
        assert model.load_checkpoint(path)[3] == {"epoch": 2}
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]
