"""Dense tensors with tape-based reverse-mode automatic differentiation.

A ``Tensor`` wraps a contiguous row-major numpy array (float32 or float64).
Gradients are recorded define-by-run: while a ``Tape`` is active, every op
that touches an attached tensor appends a node with a backward closure.
``backward(loss)`` pops the node list in reverse, accumulating gradients
into the watched leaves. Tapes are rebuilt per forward pass and are confined
to a single thread.

Image tensors use the B x C x H x W layout throughout.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import erf, expit

from .errors import DetachedTensor, NonFiniteValue, NotScalar, ShapeMismatch

_FLOAT_DTYPES = (np.float32, np.float64)
# Python floats are weak scalars to numpy, so ops keep their input's dtype;
# an np.float64 constant here would promote every float32 activation.
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _contig(arr: np.ndarray) -> np.ndarray:
    """Row-major contiguous view/copy that preserves 0-d shapes
    (np.ascontiguousarray would promote scalars to rank 1)."""
    return arr if arr.flags["C_CONTIGUOUS"] else np.ascontiguousarray(arr)


class Tensor:
    """n-dimensional numeric array, optionally attached to a differentiation tape."""

    __slots__ = ("data", "grad", "tape_id", "_tape")

    def __init__(self, data, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = _contig(arr)
        self.grad: Optional[np.ndarray] = None
        self.tape_id: Optional[int] = None
        self._tape: Optional["Tape"] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        """The underlying array. Treat as read-only."""
        return self.data

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name})"

    # operator sugar; all routed through the op functions below
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return add(neg(self), other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)

    def transpose(self, *axes):
        return transpose(self, axes[0] if len(axes) == 1 and isinstance(axes[0], (tuple, list)) else axes)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)


class Parameter:
    """A named, trainable tensor. Names are assigned when a model registry is built."""

    __slots__ = ("name", "tensor", "requires_grad", "no_decay")

    def __init__(self, tensor: Tensor, requires_grad: bool = True, no_decay: bool = False):
        self.name = ""
        self.tensor = tensor
        self.requires_grad = requires_grad
        self.no_decay = no_decay

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data

    @property
    def grad(self) -> Optional[np.ndarray]:
        return self.tensor.grad

    def __repr__(self):
        return f"Parameter({self.name or '<unnamed>'}, shape={self.tensor.shape})"


@dataclass
class TapeNode:
    op: str
    input_ids: tuple
    output_id: int
    backward: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]


@dataclass
class Tape:
    """Ordered record of ops for one forward pass; inputs always precede consumers."""

    nodes: list = field(default_factory=list)
    next_id: int = 0
    consumed: bool = False
    _watched: list = field(default_factory=list)

    def _alloc(self) -> int:
        nid = self.next_id
        self.next_id += 1
        return nid

    def watch(self, t: Tensor) -> None:
        """Register a leaf tensor; after backward() it will hold a gradient
        (zeros if the loss does not depend on it)."""
        if t._tape is not self:
            t._tape = self
            t.tape_id = self._alloc()
            self._watched.append(t)

    def __enter__(self) -> "Tape":
        _STATE.stack.append(self)
        return self

    def __exit__(self, *exc):
        _STATE.stack.pop()
        return False


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []


_STATE = _ThreadState()


def _active() -> Optional[Tape]:
    return _STATE.stack[-1] if _STATE.stack else None


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"{op} produced non-finite values")


def _out(op: str, inputs: Sequence, data: np.ndarray, backward) -> Tensor:
    """Wrap an op result; record a tape node if any input is attached."""
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = _contig(data)
    out.grad = None
    out.tape_id = None
    out._tape = None
    tape = _active()
    if tape is not None:
        ids = tuple(
            t.tape_id if isinstance(t, Tensor) and t._tape is tape else None
            for t in inputs
        )
        if any(i is not None for i in ids):
            out._tape = tape
            out.tape_id = tape._alloc()
            tape.nodes.append(TapeNode(op, ids, out.tape_id, backward))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to the shape of a broadcast operand."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _as_array(x, like: Tensor):
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=like.data.dtype)


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b) -> Tensor:
    bd = _as_array(b, a)
    data = a.data + bd

    def backward(g):
        ga = _unbroadcast(g, a.data.shape)
        gb = _unbroadcast(g, bd.shape) if isinstance(b, Tensor) else None
        return ga, gb

    return _out("add", (a, b), data, backward)


def sub(a: Tensor, b) -> Tensor:
    bd = _as_array(b, a)
    data = a.data - bd

    def backward(g):
        ga = _unbroadcast(g, a.data.shape)
        gb = -_unbroadcast(g, bd.shape) if isinstance(b, Tensor) else None
        return ga, gb

    return _out("sub", (a, b), data, backward)


def neg(a: Tensor) -> Tensor:
    return _out("neg", (a,), -a.data, lambda g: (-g,))


def mul(a: Tensor, b) -> Tensor:
    bd = _as_array(b, a)
    data = a.data * bd

    def backward(g):
        ga = _unbroadcast(g * bd, a.data.shape)
        gb = _unbroadcast(g * a.data, bd.shape) if isinstance(b, Tensor) else None
        return ga, gb

    return _out("mul", (a, b), data, backward)


def div(a: Tensor, b) -> Tensor:
    bd = _as_array(b, a)
    with np.errstate(divide="ignore", invalid="ignore"):
        data = a.data / bd

    def backward(g):
        ga = _unbroadcast(g / bd, a.data.shape)
        gb = (
            _unbroadcast(-g * a.data / (bd * bd), bd.shape)
            if isinstance(b, Tensor)
            else None
        )
        return ga, gb

    return _out("div", (a, b), data, backward)


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        data = np.exp(a.data)
    return _out("exp", (a,), data, lambda g: (g * data,))


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(a.data)
    return _out("log", (a,), data, lambda g: (g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)

    def backward(g):
        return (g * 0.5 / data,)

    return _out("sqrt", (a,), data, backward)


def sigmoid(a: Tensor) -> Tensor:
    data = expit(a.data)

    def backward(g):
        return (g * data * (1.0 - data),)

    return _out("sigmoid", (a,), data, backward)


def gelu(a: Tensor) -> Tensor:
    """x * Phi(x) with the exact Gaussian CDF (erf form, not the tanh fit)."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    data = x * cdf

    def backward(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        return (g * (cdf + x * pdf),)

    return _out("gelu", (a,), data, backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax along ``axis``; rows sum to one."""
    x = a.data
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / np.sum(e, axis=axis, keepdims=True)

    def backward(g):
        inner = np.sum(g * data, axis=axis, keepdims=True)
        return (data * (g - inner),)

    return _out("softmax", (a,), data, backward)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    m = np.max(x, axis=axis, keepdims=True)
    shifted = x - m
    lse = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
    data = shifted - lse

    def backward(g):
        return (g - np.exp(data) * np.sum(g, axis=axis, keepdims=True),)

    return _out("log_softmax", (a,), data, backward)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)
    src = a.data.shape
    return _out("reshape", (a,), data, lambda g: (g.reshape(src),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    data = a.data.transpose(axes)
    return _out("transpose", (a,), data, lambda g: (g.transpose(inv),))


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    data = a.data[idx]

    def backward(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return _out("narrow", (a,), data, backward)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    shapes = [t.data.shape for t in tensors]
    ref = list(shapes[0])
    for s in shapes[1:]:
        if len(s) != len(ref) or any(
            i != axis % len(ref) and s[i] != ref[i] for i in range(len(ref))
        ):
            raise ShapeMismatch(f"concat on axis {axis} with shapes {shapes}")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [s[axis] for s in shapes]
    offsets = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _out("concat", tuple(tensors), data, backward)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    src_shape = a.data.shape

    def backward(g):
        if axis is not None and not keepdims:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            g = np.expand_dims(g, tuple(ax % len(src_shape) for ax in axes))
        return (np.broadcast_to(g, src_shape),)

    return _out("sum", (a,), data, backward)


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.mean(axis=axis, keepdims=keepdims)
    src_shape = a.data.shape
    n = a.data.size if axis is None else int(
        np.prod([src_shape[ax % len(src_shape)] for ax in ((axis,) if isinstance(axis, int) else axis)])
    )

    def backward(g):
        if axis is not None and not keepdims:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            g = np.expand_dims(g, tuple(ax % len(src_shape) for ax in axes))
        return (np.broadcast_to(g / n, src_shape),)

    return _out("mean", (a,), data, backward)


# ---------------------------------------------------------------------------
# matmul and convolutions
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes.

    Either ``b`` is a plain matrix applied to every leading slot of ``a``,
    or both operands carry identical leading (batch) dimensions.
    """
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeMismatch(f"matmul needs rank >= 2 operands, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeMismatch(f"matmul inner dims differ: {ad.shape} @ {bd.shape}")
    if bd.ndim == 2:
        data = ad @ bd

        def backward(g):
            ga = g @ bd.swapaxes(-1, -2)
            gb = ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            return ga, gb

    elif ad.ndim == bd.ndim and ad.shape[:-2] == bd.shape[:-2]:
        data = ad @ bd

        def backward(g):
            ga = g @ bd.swapaxes(-1, -2)
            gb = ad.swapaxes(-1, -2) @ g
            return ga, gb

    else:
        raise ShapeMismatch(f"matmul leading dims differ: {ad.shape} @ {bd.shape}")
    return _out("matmul", (a, b), data, backward)


def _conv_geometry(h: int, w: int, kh: int, kw: int, stride: int, padding: int):
    eff_h, eff_w = h + 2 * padding - kh, w + 2 * padding - kw
    if eff_h < 0 or eff_w < 0:
        raise ShapeMismatch(f"kernel {kh}x{kw} does not fit {h}x{w} input with padding {padding}")
    if eff_h % stride or eff_w % stride:
        raise ShapeMismatch(
            f"conv geometry not exact: input {h}x{w}, kernel {kh}x{kw}, "
            f"stride {stride}, padding {padding}"
        )
    return eff_h // stride + 1, eff_w // stride + 1


def _conv_taps(h: int, w: int, kh: int, kw: int, ho: int, wo: int, stride: int, padding: int):
    """(i, j, (out rows, in rows), (out cols, in cols)) per kernel tap, clipped to
    the map (empty if the tap sees only padding): output r reads stride*r + i - padding."""
    def axis(n: int, n_out: int, i: int):
        lo = max(0, -((i - padding) // stride))
        hi = max(lo, min(n_out, (n - 1 + padding - i) // stride + 1))
        return slice(lo, hi), slice(stride * lo + i - padding, stride * hi + i - padding, stride)

    return [(i, j, axis(h, ho, i), axis(w, wo, j)) for i in range(kh) for j in range(kw)]


def conv2d(x: Tensor, w: Tensor, b: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation of B x C x H x W input with O x C x kh x kw kernels,
    as kn2row: one GEMM gives kh*kw*O per-tap outputs at every input pixel, and
    each tap's window is added in at its offset. No padding or im2col columns
    are built; the tape keeps x and w."""
    xd, wd = x.data, w.data
    if xd.ndim != 4 or wd.ndim != 4:
        raise ShapeMismatch(f"conv2d expects 4-d input and weight, got {xd.shape}, {wd.shape}")
    bsz, c, h, width = xd.shape
    o, cw, kh, kw = wd.shape
    if cw != c:
        raise ShapeMismatch(f"conv2d channel mismatch: input {c}, weight {cw}")
    if b is not None and b.data.shape != (o,):
        raise ShapeMismatch(f"conv2d bias shape {b.data.shape}, expected ({o},)")
    ho, wo = _conv_geometry(h, width, kh, kw, stride, padding)
    taps = _conv_taps(h, width, kh, kw, ho, wo, stride, padding)
    x2 = xd.reshape(bsz, c, h * width)
    wt = wd.transpose(2, 3, 0, 1).reshape(kh * kw * o, c)
    z = (wt @ x2).reshape(bsz, kh, kw, o, h, width)
    data = np.zeros((bsz, o, ho, wo), z.dtype)
    if b is not None:  # start from the bias: adding it last rounds worse
        data += b.data[:, None, None]
    for i, j, (ro, ri), (co, ci) in taps:
        data[:, :, ro, co] += z[:, i, j, :, ri, ci]

    def backward(g):
        gz = np.zeros((bsz, kh, kw, o, h, width), dtype=g.dtype)
        for i, j, (ro, ri), (co, ci) in taps:
            gz[:, i, j, :, ri, ci] = g[:, :, ro, co]
        gz = gz.reshape(bsz, kh * kw * o, h * width)
        gx = (wt.T @ gz).reshape(xd.shape)
        gw = (gz @ x2.transpose(0, 2, 1)).sum(axis=0).reshape(kh, kw, o, c).transpose(2, 3, 0, 1)
        gb = g.sum(axis=(0, 2, 3)) if b is not None else None
        return gx, gw, gb

    return _out("conv2d", (x, w, b), data, backward)


def conv_transpose2d(x: Tensor, w: Tensor, b: Optional[Tensor] = None, stride: int = 1) -> Tensor:
    """Transposed convolution (adjoint of conv2d) with C x O x k x k kernels and
    stride k, so windows never overlap: one GEMM gives every output pixel, and a
    pixel shuffle lays the k*k taps out as an (H*k) x (W*k) map."""
    xd, wd = x.data, w.data
    if xd.ndim != 4 or wd.ndim != 4:
        raise ShapeMismatch(f"conv_transpose2d expects 4-d operands, got {xd.shape}, {wd.shape}")
    bsz, c, h, width = xd.shape
    cw, o, kh, kw = wd.shape
    if cw != c:
        raise ShapeMismatch(f"conv_transpose2d channel mismatch: input {c}, weight {cw}")
    if kh != stride or kw != stride:
        raise ShapeMismatch(f"conv_transpose2d needs kernel equal to stride, got {kh}x{kw} and {stride}")
    if b is not None and b.data.shape != (o,):
        raise ShapeMismatch(f"conv_transpose2d bias shape {b.data.shape}, expected ({o},)")
    x2 = xd.reshape(bsz, c, h * width)
    wm = wd.reshape(c, o * kh * kw)
    z = (wm.T @ x2).reshape(bsz, o, kh, kw, h, width)
    data = z.transpose(0, 1, 4, 2, 5, 3).reshape(bsz, o, h * kh, width * kw)
    if b is not None:
        data += b.data[:, None, None]

    def backward(g):
        gz = g.reshape(bsz, o, h, kh, width, kw).transpose(0, 1, 3, 5, 2, 4).reshape(bsz, o * kh * kw, h * width)
        gx = (wm @ gz).reshape(xd.shape)
        gw = np.tensordot(x2, gz, axes=([0, 2], [0, 2])).reshape(wd.shape)
        gb = g.sum(axis=(0, 2, 3)) if b is not None else None
        return gx, gw, gb

    return _out("conv_transpose2d", (x, w, b), data, backward)


# ---------------------------------------------------------------------------
# pooling and normalization
# ---------------------------------------------------------------------------

def avg_pool(x: Tensor, window: int) -> Tensor:
    """Non-overlapping mean pooling; stride equals the window."""
    wh = ww = int(window)
    xd = x.data
    src = xd.shape
    bsz, c, h, w = src
    if h % wh or w % ww:
        raise ShapeMismatch(f"pool window {wh}x{ww} does not tile {h}x{w}")
    ho, wo = h // wh, w // ww
    data = np.zeros((bsz, c, ho, wo), xd.dtype)
    for i in range(wh):
        for j in range(ww):
            data += xd[:, :, i::wh, j::ww]
    data *= 1.0 / (wh * ww)

    def backward(g):
        g6 = np.broadcast_to(
            g[:, :, :, None, :, None] / (wh * ww),
            (bsz, c, ho, wh, wo, ww),
        )
        return (g6.reshape(src),)

    return _out("avg_pool", (x,), data, backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Zero mean / unit variance over the last (feature) axis, then affine."""
    xd = x.data
    d = xd.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeMismatch(
            f"layer_norm affine shapes {gamma.data.shape}/{beta.data.shape} do not match feature dim {d}"
        )
    mu = xd.mean(axis=-1, keepdims=True)
    xmu = xd - mu
    var = np.mean(xmu * xmu, axis=-1, keepdims=True)
    ivar = 1.0 / np.sqrt(var + eps)
    xhat = xmu * ivar
    data = xhat * gamma.data + beta.data

    def backward(g):
        gbeta = g.reshape(-1, d).sum(axis=0)
        ggamma = (g * xhat).reshape(-1, d).sum(axis=0)
        gxhat = g * gamma.data
        gx = ivar * (
            gxhat
            - gxhat.mean(axis=-1, keepdims=True)
            - xhat * np.mean(gxhat * xhat, axis=-1, keepdims=True)
        )
        return gx, ggamma, gbeta

    return _out("layer_norm", (x, gamma, beta), data, backward)


def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: zero with probability p and scale survivors by 1/(1-p)
    during training; exact identity at inference or p == 0."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability {p} outside [0, 1)")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs an explicit rng")
    keep = (rng.random(x.data.shape) >= p).astype(x.data.dtype)
    scale = 1.0 / (1.0 - p)
    data = x.data * keep * scale
    return _out("dropout", (x,), data, lambda g: (g * keep * scale,))


# ---------------------------------------------------------------------------
# backward pass and the finite-difference oracle
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate gradients of every watched leaf reachable from ``loss``.

    Unreachable watched leaves receive zero gradients. The tape is consumed in
    reverse topological order: each node is freed once used; a second call raises.
    """
    if loss.data.size != 1:
        raise NotScalar(f"backward() needs a scalar loss, got shape {loss.shape}")
    tape = loss._tape
    if tape is None or loss.tape_id is None or tape.consumed:
        raise DetachedTensor("loss tensor is not attached to a tape, or backward() already consumed it")
    tape.consumed = True
    grads = {loss.tape_id: np.ones_like(loss.data)}
    while tape.nodes:  # popping frees each node's closure and activations once used
        node = tape.nodes.pop()
        g = grads.pop(node.output_id, None)
        if g is None:
            continue
        for tid, gin in zip(node.input_ids, node.backward(g)):
            if tid is None or gin is None:
                continue
            if tid in grads:
                grads[tid] = grads[tid] + gin
            else:
                grads[tid] = gin
    for leaf in tape._watched:
        g = grads.get(leaf.tape_id)
        if g is None:
            leaf.grad = np.zeros_like(leaf.data)
        else:
            leaf.grad = _contig(np.asarray(g, dtype=leaf.data.dtype))


def _max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between the tape gradient of ``f`` at ``x`` and
    central finite differences, coordinate by coordinate.

    ``f`` must be pure and deterministic; it is evaluated 2*size(x) + 1 times.
    """
    with Tape() as tape:
        tape.watch(x)
        out = f(x)
        if out.data.size != 1:
            raise NotScalar("grad_check target function must return a scalar")
        backward(out)
        analytic = x.grad.astype(np.float64)
    base = x.data
    numeric = np.zeros(base.shape, dtype=np.float64)
    flat_num = numeric.reshape(-1)
    for i in range(base.size):
        probe = base.copy().reshape(-1)
        probe[i] += eps
        fp = float(f(Tensor(probe.reshape(base.shape), dtype=base.dtype)).data.reshape(-1)[0])
        probe[i] = base.reshape(-1)[i] - eps
        fm = float(f(Tensor(probe.reshape(base.shape), dtype=base.dtype)).data.reshape(-1)[0])
        flat_num[i] = (fp - fm) / (2.0 * eps)
    return _max_rel_err(analytic, numeric)


def grad_check_tensors(loss_fn: Callable[[], Tensor], tensors: Sequence[Tensor], eps: float = 1e-5) -> float:
    """Like grad_check but for a closure over several tensors (e.g. a block's
    input plus its parameters). Perturbs each tensor in place and restores it."""
    with Tape() as tape:
        for t in tensors:
            tape.watch(t)
        loss = loss_fn()
        if loss.data.size != 1:
            raise NotScalar("grad_check target function must return a scalar")
        backward(loss)
        analytic = [t.grad.astype(np.float64).copy() for t in tensors]
    worst = 0.0
    for t, ana in zip(tensors, analytic):
        flat = t.data.reshape(-1)
        numeric = np.zeros(flat.size, dtype=np.float64)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + eps
            fp = float(loss_fn().data.reshape(-1)[0])
            flat[i] = old - eps
            fm = float(loss_fn().data.reshape(-1)[0])
            flat[i] = old
            numeric[i] = (fp - fm) / (2.0 * eps)
        worst = max(worst, _max_rel_err(ana.reshape(-1), numeric))
    return worst
