"""Differentiable three-head network over ingested feature vectors.

A fully-connected trunk feeds three linear heads: per-anchor confidence
logits, per-anchor (x, y) offsets, and a 5-vector of absolute outputs
(z plus an unnormalized orientation quaternion). Gradients are computed
by hand-written reverse mode; there is no autograd framework underneath,
which keeps the arithmetic exactly reproducible.

Parameters are one flat float64 vector whose layout is a pure function of
the network shape (trunk layers in order, then the logits / offsets /
absolute heads), so checkpoints round-trip bit-exactly. Layout, trunk and
heads are driven by a spec's ``head_dims()`` table, so the direct-regression
control in ``baseline`` runs on the same code with its own head.
:class:`Bound` is the one forward and backward pass; ``forward_batch``,
``forward`` and ``backward_batch`` are calls into it.
"""

from __future__ import annotations

import functools
import io
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidSpecError, ParseError

ACTIVATIONS = ("relu", "tanh")

ABS_HEAD_DIM = 5  # z plus 4 orientation components


def check_trunk(spec) -> None:
    """Validate a frozen spec's trunk fields, storing its widths as a tuple."""
    object.__setattr__(spec, "hidden_layers", tuple(int(w) for w in spec.hidden_layers))
    if spec.input_dim < 1:
        raise InvalidSpecError("input_dim must be >= 1")
    if any(w < 1 for w in spec.hidden_layers):
        raise InvalidSpecError("hidden layer widths must be >= 1")
    if spec.activation not in ACTIVATIONS:
        raise InvalidSpecError(f"activation must be one of {ACTIVATIONS}")


@dataclass(frozen=True)
class NetworkSpec:
    input_dim: int
    hidden_layers: tuple[int, ...]
    num_anchors: int
    activation: str = "relu"
    seed: int = 0

    def __post_init__(self):
        check_trunk(self)
        if self.num_anchors < 1:
            raise InvalidSpecError("num_anchors must be >= 1")

    def head_dims(self) -> dict[str, int]:
        n = self.num_anchors
        return {"logits": n, "offsets": 2 * n, "absolute": ABS_HEAD_DIM}

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "hidden_layers": list(self.hidden_layers),
            "num_anchors": self.num_anchors,
            "activation": self.activation,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkSpec":
        return cls(
            input_dim=int(d["input_dim"]),
            hidden_layers=tuple(int(w) for w in d["hidden_layers"]),
            num_anchors=int(d["num_anchors"]),
            activation=str(d["activation"]),
            seed=int(d["seed"]),
        )


@dataclass(frozen=True)
class PosePrediction:
    """Single-sample network outputs: logits, offsets, z and raw orientation."""

    logits: np.ndarray      # (N,)
    offsets: np.ndarray     # (N, 2)
    z_hat: float
    orient_raw: np.ndarray  # (4,)


@dataclass
class BatchPrediction:
    """Stacked outputs for a batch; row i is sample i."""

    logits: np.ndarray      # (B, N)
    offsets: np.ndarray     # (B, N, 2)
    z_hat: np.ndarray       # (B,)
    orient_raw: np.ndarray  # (B, 4)


# --- flat parameter layout ---------------------------------------------------

@functools.lru_cache(maxsize=64)
def _layer_shapes(spec: NetworkSpec) -> tuple[tuple[str, int, int], ...]:
    """(name, out_dim, in_dim) for every weight matrix, in storage order.

    Any spec with ``input_dim``, ``hidden_layers`` and a ``head_dims()``
    table of head name -> width gets this layout and the trunk below.
    """
    shapes = []
    dims = (spec.input_dim, *spec.hidden_layers)
    for i in range(len(dims) - 1):
        shapes.append((f"trunk{i}", dims[i + 1], dims[i]))
    for name, out in spec.head_dims().items():
        shapes.append((name, out, dims[-1]))
    return tuple(shapes)


def param_count(spec: NetworkSpec) -> int:
    return sum(o * i + o for _, o, i in _layer_shapes(spec))


class _Views:
    """Weight/bias views into a flat parameter (or gradient) vector."""

    def __init__(self, spec: NetworkSpec, flat: np.ndarray):
        self.W: dict[str, np.ndarray] = {}
        self.b: dict[str, np.ndarray] = {}
        off = 0
        for name, out, inp in _layer_shapes(spec):
            self.W[name] = flat[off:off + out * inp].reshape(out, inp)
            off += out * inp
            self.b[name] = flat[off:off + out]
            off += out
        if off != flat.size:
            raise InvalidInputError(
                f"parameter vector has {flat.size} entries, spec requires {off}")


def init(spec: NetworkSpec) -> np.ndarray:
    """Deterministic parameter init: scaled-uniform by fan-in, zero biases."""
    rng = np.random.default_rng(spec.seed)
    flat = np.zeros(param_count(spec))
    views = _Views(spec, flat)
    for name, out, inp in _layer_shapes(spec):
        bound = 1.0 / np.sqrt(inp)
        views.W[name][...] = rng.uniform(-bound, bound, size=(out, inp))
        # biases stay zero
    return flat


# --- the network pass --------------------------------------------------------

def _act_(a: np.ndarray, kind: str) -> np.ndarray:
    """The activation, applied in place."""
    if kind == "relu":
        return np.maximum(a, 0.0, out=a)
    return np.tanh(a, out=a)


def _act_grad_from_output(h: np.ndarray, kind: str) -> np.ndarray:
    # gradients recoverable from post-activation values for both choices
    if kind == "relu":
        return (h > 0.0).astype(np.float64)
    return 1.0 - h * h


class Bound:
    """The network pass: a spec's trunk and heads over one parameter vector,
    sliced into weight/bias views once.

    :meth:`forward` reads the parameters as they are when it is called, so an
    optimizer that updates the vector in place needs no rebinding.
    :meth:`backward` overwrites the bound gradient vector; only a Bound made
    with ``grad`` can run it.
    """

    def __init__(self, spec, params: np.ndarray, grad: np.ndarray | None = None):
        self.spec = spec
        self._views = _Views(spec, np.asarray(params, dtype=np.float64))
        self.grad = grad
        self._gviews = None if grad is None else _Views(spec, grad)

    def forward(self, features: np.ndarray):
        """Trunk plus every head of ``spec.head_dims()`` for features (B, input_dim).

        Returns ({head name: (B, width)}, cache), where the cache holds the
        per-layer activations :meth:`backward` needs.
        """
        spec, views = self.spec, self._views
        X = np.asarray(features, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != spec.input_dim:
            raise InvalidInputError(
                f"features must be (B, {spec.input_dim}), got shape {X.shape}")
        h = X
        cache = [h]
        for i in range(len(spec.hidden_layers)):
            a = h @ views.W[f"trunk{i}"].T
            a += views.b[f"trunk{i}"]
            h = _act_(a, spec.activation)
            cache.append(h)
        heads = {}
        for name in spec.head_dims():
            out = h @ views.W[name].T
            out += views.b[name]
            heads[name] = out
        return heads, cache

    def backward(self, cache: list[np.ndarray], d_heads: dict[str, np.ndarray]) -> np.ndarray:
        """Reverse-mode gradient over the flat parameter vector, given upstream
        gradients (B, width) for the heads in ``spec.head_dims()`` order.

        Every entry of the bound gradient is overwritten, and it is returned.
        Sample contributions are summed (scale the upstream values for mean
        reduction).
        """
        spec, views, gviews = self.spec, self._views, self._gviews
        h = cache[-1]
        dh = None
        for name, d in d_heads.items():
            np.matmul(d.T, h, out=gviews.W[name])
            np.add.reduce(d, axis=0, out=gviews.b[name])
            dh_head = d @ views.W[name]
            if dh is None:
                dh = dh_head
            else:
                dh += dh_head

        for i in reversed(range(len(spec.hidden_layers))):
            dh *= _act_grad_from_output(cache[i + 1], spec.activation)
            np.matmul(dh.T, cache[i], out=gviews.W[f"trunk{i}"])
            np.add.reduce(dh, axis=0, out=gviews.b[f"trunk{i}"])
            if i:  # no gradient w.r.t. the input features is needed
                dh = dh @ views.W[f"trunk{i}"]
        return self.grad


def prediction(spec: NetworkSpec, heads: dict[str, np.ndarray]) -> BatchPrediction:
    """The anchor model's head outputs as a BatchPrediction (views, no copies)."""
    absolute = heads["absolute"]
    return BatchPrediction(logits=heads["logits"],
                           offsets=heads["offsets"].reshape(-1, spec.num_anchors, 2),
                           z_hat=absolute[:, 0], orient_raw=absolute[:, 1:])


def head_grads(d_logits: np.ndarray, d_offsets: np.ndarray, d_z: np.ndarray,
               d_orient: np.ndarray) -> dict[str, np.ndarray]:
    """Upstream gradients w.r.t. a BatchPrediction as the per-head table that
    :meth:`Bound.backward` takes."""
    B = d_logits.shape[0]
    if d_offsets.shape[0] != B or d_z.shape[0] != B or d_orient.shape[0] != B:
        raise InvalidInputError("upstream gradient batch sizes disagree")
    d_abs = np.concatenate([d_z[:, None], d_orient], axis=1)
    return {"logits": d_logits, "offsets": d_offsets.reshape(B, -1), "absolute": d_abs}


def forward_batch(spec: NetworkSpec, params: np.ndarray, features: np.ndarray) -> BatchPrediction:
    """Batched forward pass. ``features`` is (B, input_dim)."""
    return prediction(spec, Bound(spec, params).forward(features)[0])


def forward(spec: NetworkSpec, params: np.ndarray, feature: np.ndarray) -> PosePrediction:
    """Single-sample forward pass."""
    pred = forward_batch(spec, params, np.reshape(feature, (1, -1)))
    return PosePrediction(logits=pred.logits[0], offsets=pred.offsets[0],
                          z_hat=float(pred.z_hat[0]), orient_raw=pred.orient_raw[0])


def backward_batch(spec: NetworkSpec, params: np.ndarray, cache: list[np.ndarray],
                   d_logits: np.ndarray, d_offsets: np.ndarray,
                   d_z: np.ndarray, d_orient: np.ndarray) -> np.ndarray:
    """:meth:`Bound.backward` into a new gradient vector, given upstream
    gradients w.r.t. the batched head outputs."""
    return Bound(spec, params, np.zeros(param_count(spec))).backward(
        cache, head_grads(d_logits, d_offsets, d_z, d_orient))


# --- checkpoint container ----------------------------------------------------

_CKPT_MAGIC = b"ALCK"
_CKPT_VERSION = 1


def save_checkpoint(path, spec: NetworkSpec, params: np.ndarray,
                    extra_arrays: dict[str, np.ndarray] | None = None,
                    meta: dict | None = None) -> None:
    """Versioned binary container: spec + flat parameters (+ named extras).

    Byte layout: magic ``ALCK``, u32 version, u32 header length, a JSON
    header (network spec, array names/shapes in order, free-form metadata),
    then each array as raw little-endian float64 in C order. Everything is
    written canonically (sorted JSON keys, fixed array order), so a
    load/save cycle is bit-exact. The bytes go to a temporary file in the
    same directory that then replaces ``path``, so a write that fails midway
    leaves any previous checkpoint at ``path`` as it was.
    """
    arrays = {"params": np.asarray(params, dtype=np.float64)}
    for name, arr in (extra_arrays or {}).items():
        arrays[name] = np.asarray(arr, dtype=np.float64)
    header = {
        "spec": spec.to_dict(),
        "arrays": [{"name": k, "shape": list(v.shape)} for k, v in arrays.items()],
        "meta": meta or {},
    }
    hbytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    buf = io.BytesIO()
    buf.write(_CKPT_MAGIC)
    buf.write(_CKPT_VERSION.to_bytes(4, "little"))
    buf.write(len(hbytes).to_bytes(4, "little"))
    buf.write(hbytes)
    for v in arrays.values():
        buf.write(np.ascontiguousarray(v, dtype="<f8").tobytes())
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(buf.getvalue())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Returns (spec, params, extra_arrays, meta)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _CKPT_MAGIC:
        raise InvalidInputError(f"{path}: not a checkpoint file")
    version = int.from_bytes(raw[4:8], "little")
    if version != _CKPT_VERSION:
        raise InvalidInputError(f"{path}: unsupported checkpoint version {version}")
    hlen = int.from_bytes(raw[8:12], "little")
    off = 12 + hlen
    if off > len(raw):
        raise ParseError(f"{path}: truncated header")
    try:
        spec, entries, meta = _parse_header(raw[12:off])
    except (ValueError, KeyError, TypeError, RecursionError) as err:
        raise ParseError(f"{path}: bad header: {type(err).__name__}: {err}") from None
    arrays = {}
    for name, shape in entries:
        n = int(np.prod(shape)) if shape else 1
        if off + 8 * n > len(raw):
            raise ParseError(f"{path}: truncated in array {name!r}")
        arrays[name] = np.frombuffer(raw[off:off + 8 * n], dtype="<f8").reshape(shape).copy()
        off += 8 * n
    if off != len(raw):
        raise ParseError(f"{path}: {len(raw) - off} bytes after the last array")
    params = arrays.pop("params")
    return spec, params, arrays, meta


def _parse_header(hbytes: bytes):
    """(spec, [(array name, shape)], meta) of a checkpoint's JSON header.
    Anything malformed raises ValueError, KeyError or TypeError (or, for JSON
    nested too deeply to decode, RecursionError)."""
    header = json.loads(hbytes.decode())
    spec = NetworkSpec.from_dict(header["spec"])
    entries = [(str(e["name"]), tuple(int(d) for d in e["shape"])) for e in header["arrays"]]
    if any(d < 0 for _, shape in entries for d in shape):
        raise ValueError("negative array dimension")
    if "params" not in dict(entries):
        raise KeyError("params")
    meta = header["meta"]
    if not isinstance(meta, dict):
        raise TypeError("meta is not an object")
    return spec, entries, meta
