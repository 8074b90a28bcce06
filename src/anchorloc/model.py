"""Differentiable three-head network over ingested feature vectors.

A fully-connected trunk feeds three linear heads: per-anchor confidence
logits, per-anchor (x, y) offsets, and a 5-vector of absolute outputs
(z plus an unnormalized orientation quaternion). Gradients are computed
by hand-written reverse mode; there is no autograd framework underneath,
which keeps the arithmetic exactly reproducible.

Parameters are one flat float64 vector whose layout is a pure function of
the network shape (trunk layers in order, then the logits / offsets /
absolute heads); ``optim`` writes and reads them in its training
checkpoints, and this module does no file I/O. Layout, trunk and
heads are driven by a :class:`Trunk` subclass's ``head_dims()`` table, so the
direct-regression control in ``baseline`` runs on the same code with its own head.
:class:`Bound` is the one network pass: :meth:`Bound.forward` runs the trunk,
:meth:`Bound.head` any one head and :meth:`Bound.backward` the gradient.
:func:`prediction` is the one builder of the anchor model's BatchPrediction,
for training and queries alike. It runs the logits and absolute heads; the
2N-wide offsets head is read when the offsets are first used, so an in-place
parameter update in between is seen, and argmax reconstruction reads only one
anchor's 2 weight rows and 2 biases per row. ``forward_batch``, ``forward`` and
``backward_batch`` (for any spec) call into Bound; ``forward_batch`` (so every
``forward``) reuses the Bound of the last parameter vector it served, so a
stream of queries does not rebind the network. :func:`one_blas_thread` pins
numpy's OpenBLAS to one thread for the products run here.
"""

from __future__ import annotations

import contextlib
import ctypes
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidSpecError, as_int, as_seed

ACTIVATIONS = ("relu", "tanh")

ABS_HEAD_DIM = 5  # z plus 4 orientation components
ABS_Z, ABS_ORIENT = 0, slice(1, ABS_HEAD_DIM)  # the absolute head's columns


@dataclass(frozen=True)
class Trunk:
    """The fully-connected trunk both models share; the defaults are the
    README configuration. Subclasses add the heads through ``head_dims()``.
    Sizes and the seed (in [0, 2**64)) are ints: bools and floats fail."""

    input_dim: int
    hidden_layers: tuple[int, ...] = (48, 48)
    activation: str = "relu"
    seed: int = 1

    def __post_init__(self):
        object.__setattr__(self, "input_dim", as_int("input_dim", self.input_dim))
        object.__setattr__(self, "hidden_layers",
                           tuple(as_int("hidden layer width", w) for w in self.hidden_layers))
        object.__setattr__(self, "seed", as_seed("seed", self.seed))
        if self.input_dim < 1:
            raise InvalidSpecError("input_dim must be >= 1")
        if any(w < 1 for w in self.hidden_layers):
            raise InvalidSpecError("hidden layer widths must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise InvalidSpecError(f"activation must be one of {ACTIVATIONS}")


@dataclass(frozen=True, kw_only=True)
class NetworkSpec(Trunk):
    num_anchors: int

    def __post_init__(self):
        object.__setattr__(self, "num_anchors", as_int("num_anchors", self.num_anchors))
        super().__post_init__()
        if self.num_anchors < 1:
            raise InvalidSpecError("num_anchors must be >= 1")

    def head_dims(self) -> dict[str, int]:
        n = self.num_anchors
        return {"logits": n, "offsets": 2 * n, "absolute": ABS_HEAD_DIM}


class BatchPrediction:
    """Stacked outputs for a batch; row i is sample i. ``offsets`` is given, or
    built by ``bound.head("offsets", h)`` on first read; :meth:`anchor_offsets`
    reads one anchor per row without building it."""

    def __init__(self, logits, offsets=None, z_hat=None, orient_raw=None, *,
                 bound=None, h=None):
        self.logits = logits            # (B, N)
        self.z_hat = z_hat              # (B,)
        self.orient_raw = orient_raw    # (B, 4)
        self._offsets = offsets         # (B, N, 2)
        self._bound, self._h = bound, h  # the trunk output h (B, width) of a Bound

    @property
    def offsets(self) -> np.ndarray:
        if self._offsets is None:
            self._offsets = self._bound.head("offsets", self._h).reshape(*self.logits.shape, 2)
        return self._offsets

    def anchor_offsets(self, j: np.ndarray) -> np.ndarray:
        """(B, 2): row i's offsets to anchor j[i]. From a Bound, only the 2
        weight rows and 2 biases of each row's anchor are read (dot product,
        then + b); otherwise they are taken from ``offsets``."""
        if self._bound is None:
            B, N, _ = self.offsets.shape
            return self.offsets.reshape(-1, 2).take(np.arange(0, B * N, N) + j, axis=0)
        rows, biases = self._bound.anchor_rows
        out = np.matmul(rows.take(j, axis=0), self._h[:, :, None])[:, :, 0]
        out += biases.take(j, axis=0)
        return out


# --- flat parameter layout ---------------------------------------------------

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


def _layer_table(spec, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) views into a flat parameter (or gradient) vector for every
    layer, in storage order: trunk layer i at index i, then the heads in
    ``head_dims()`` order."""
    if flat.size != param_count(spec):
        raise InvalidInputError(
            f"parameter vector has {flat.size} entries, spec requires {param_count(spec)}")
    table = []
    off = 0
    for _, out, inp in _layer_shapes(spec):
        W = flat[off:off + out * inp].reshape(out, inp)
        off += out * inp
        table.append((W, flat[off:off + out]))
        off += out
    return table


def init(spec: NetworkSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Deterministic parameter init: scaled-uniform by fan-in, zero biases;
    written into ``out`` (a float64 vector of ``param_count(spec)`` entries)
    when it is given, else into a new vector."""
    rng = np.random.default_rng(spec.seed)
    flat = np.empty(param_count(spec)) if out is None else out
    for W, b in _layer_table(spec, flat):
        bound = 1.0 / np.sqrt(W.shape[1])
        W[...] = rng.uniform(-bound, bound, size=W.shape)
        b[...] = 0.0
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
    sliced into per-layer weight/bias tables once.

    :meth:`forward` reads the parameters as they are when it is called, so an
    optimizer that updates the vector in place needs no rebinding. The tables
    hold each weight view transposed (``Wt``), as the forward pass multiplies
    by it, and each bias as a (1, width) row, which a batch of one adds
    without broadcasting.
    :meth:`backward` overwrites the bound gradient vector; only a Bound made
    with ``grad`` can run it.
    """

    def __init__(self, spec, params: np.ndarray, grad: np.ndarray | None = None):
        self.spec = spec
        self.grad = grad
        depth = len(spec.hidden_layers)
        flat = np.asarray(params, dtype=np.float64)
        layers = [(W.T, b[None]) for W, b in _layer_table(spec, flat)]
        self._trunk = layers[:depth]
        self._heads = dict(zip(spec.head_dims(), layers[depth:]))
        if "offsets" in self._heads:  # per anchor: 2 weight rows and 2 biases
            Wt, b = self._heads["offsets"]
            self.anchor_rows = (Wt.T.reshape(-1, 2, Wt.shape[0]), b.reshape(-1, 2))
        if grad is not None:
            glayers = _layer_table(spec, grad)
            self._gtrunk, self._gheads = glayers[:depth], glayers[depth:]

    def forward(self, features: np.ndarray) -> list[np.ndarray]:
        """The trunk for features (B, input_dim): the per-layer activations
        :meth:`backward` needs, the input first and the trunk output
        ``h`` (B, width) last, which :meth:`head` takes."""
        spec = self.spec
        act = spec.activation
        X = np.asarray(features, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != spec.input_dim:
            raise InvalidInputError(
                f"features must be (B, {spec.input_dim}), got shape {X.shape}")
        h = X
        cache = [h]
        for Wt, b in self._trunk:
            a = h @ Wt
            a += b
            h = _act_(a, act)
            cache.append(h)
        return cache

    def head(self, name: str, h: np.ndarray) -> np.ndarray:
        """Head ``name`` of ``spec.head_dims()`` over the trunk output h: (B, width)."""
        Wt, b = self._heads[name]
        out = h @ Wt
        out += b
        return out

    def backward(self, cache: list[np.ndarray], d_heads: dict[str, np.ndarray]) -> np.ndarray:
        """Reverse-mode gradient over the flat parameter vector, given upstream
        gradients (B, width) for every head in ``spec.head_dims()``.

        Every entry of the bound gradient is overwritten, and it is returned.
        Sample contributions are summed (scale the upstream values for mean
        reduction).
        """
        h = cache[-1]
        dh = None
        for (name, (Wt, _)), (gW, gb) in zip(self._heads.items(), self._gheads):
            d = d_heads[name]
            np.matmul(d.T, h, out=gW)
            np.add.reduce(d, axis=0, out=gb)
            dh_head = d @ Wt.T
            if dh is None:
                dh = dh_head
            else:
                dh += dh_head

        for i in reversed(range(len(self._trunk))):
            gW, gb = self._gtrunk[i]
            dh *= _act_grad_from_output(cache[i + 1], self.spec.activation)
            np.matmul(dh.T, cache[i], out=gW)
            np.add.reduce(dh, axis=0, out=gb)
            if i:  # no gradient w.r.t. the input features is needed
                dh = dh @ self._trunk[i][0].T
        return self.grad


def prediction(bound: Bound, h: np.ndarray) -> BatchPrediction:
    """The anchor model's BatchPrediction over the trunk output h of ``bound``:
    the logits and absolute heads run now, the offsets head on first read."""
    absolute = bound.head("absolute", h)
    return BatchPrediction(logits=bound.head("logits", h), z_hat=absolute[:, ABS_Z],
                           orient_raw=absolute[:, ABS_ORIENT], bound=bound, h=h)


# The Bound of the last parameter vector forward_batch served, as (spec,
# params, Bound). The strong references keep both ids from being reused.
_served = None


def _bound(spec, params) -> Bound:
    """A Bound of (spec, params) for a forward pass: the last one again when
    both are the same objects as last time and its views alias ``params``
    (a C-contiguous float64 ndarray), so in-place updates are seen; any other
    input is bound fresh."""
    global _served
    last = _served
    if last is not None and last[0] is spec and last[1] is params:
        return last[2]
    bound = Bound(spec, params)
    if type(params) is np.ndarray and params.dtype == np.float64 and params.flags.c_contiguous:
        _served = (spec, params, bound)
    return bound


def forward_batch(spec: NetworkSpec, params: np.ndarray, features: np.ndarray) -> BatchPrediction:
    """Batched forward pass. ``features`` is (B, input_dim). The trunk, logits
    and absolute heads run now; the offsets head is read when the offsets are
    first used, so an in-place parameter update in between is seen."""
    bound = _bound(spec, params)
    return prediction(bound, bound.forward(features)[-1])


def forward(spec: NetworkSpec, params: np.ndarray, feature: np.ndarray) -> BatchPrediction:
    """Single-sample forward pass: :func:`forward_batch` on a batch of one."""
    return forward_batch(spec, params, np.asarray(feature).reshape(1, -1))


def backward_batch(spec, params: np.ndarray, cache: list[np.ndarray],
                   d_heads: dict[str, np.ndarray]) -> np.ndarray:
    """:meth:`Bound.backward` of any spec into a new gradient vector, given
    the upstream gradient (B, width) of every head in ``spec.head_dims()``,
    as a model's loss returns them."""
    B = cache[-1].shape[0]
    if any(np.shape(d_heads.get(k)) != (B, w) for k, w in spec.head_dims().items()):
        raise InvalidInputError(f"upstream gradient batch sizes disagree: heads need ({B}, width)")
    return Bound(spec, params, np.zeros(param_count(spec))).backward(cache, d_heads)


@contextlib.contextmanager
def one_blas_thread():
    """numpy's bundled OpenBLAS at one thread, and its previous count restored
    on exit: how OpenBLAS splits some products' sums depends on the thread
    count, and so would trained parameters and the bytes written from them.
    Where numpy links another BLAS, nothing is pinned."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        yield
        return
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)
