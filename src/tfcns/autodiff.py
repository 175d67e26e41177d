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

from .errors import DetachedTensor, NonFiniteValue, NotScalar, ShapeMismatch

_FLOAT_DTYPES = (np.float32, np.float64)
# Python floats are weak scalars to numpy, so ops keep their input's dtype;
# an np.float64 constant here would promote every float32 activation.
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Elements of one band's largest working array (1 MB in float32): a conv's
# per-tap GEMM output, per-tap gradient or input gradient, or one of erf's
# temporaries.
_BAND_ELEMS = 1 << 18


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

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name})"


class Parameter(Tensor):
    """A trainable tensor with a registry name (assigned when a model's
    registry is built) and a flag that exempts it from weight decay."""

    __slots__ = ("name", "no_decay")

    def __init__(self, data, no_decay: bool = False):
        super().__init__(data)
        self.name = ""
        self.no_decay = no_decay


@dataclass
class TapeNode:
    op: str
    input_ids: tuple
    output_id: int
    backward: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]
    writes_grad: bool = False  # backward adds into its g, so it must own g (see backward())


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


def _recorder(inputs: Sequence) -> Optional[tuple[Tape, tuple]]:
    """(active tape, input ids) if any input is attached to the active tape, else None."""
    tape = _active()
    ids = tuple(t.tape_id if isinstance(t, Tensor) and t._tape is tape else None for t in inputs)
    return (tape, ids) if tape is not None and any(i is not None for i in ids) else None


def _out(op: str, inputs: Sequence, data: np.ndarray, backward) -> Tensor:
    """Wrap an op result; record a tape node if the active tape records it."""
    return _wrap_out(op, _recorder(inputs), data, backward)


def _wrap_out(op: str, record: Optional[tuple[Tape, tuple]], data: np.ndarray, backward,
              writes_grad: bool = False) -> Tensor:
    """Wrap an op result; append a tape node given ``_recorder``'s (tape, input ids)."""
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = _contig(data)
    out.grad = None
    out.tape_id = None
    out._tape = None
    if record is not None:
        tape, ids = record
        out._tape, out.tape_id = tape, tape._alloc()
        tape.nodes.append(TapeNode(op, ids, out.tape_id, backward, writes_grad))
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


def _binary(op: str, a: Tensor, b, data_fn, grad_a, grad_b) -> Tensor:
    """Elementwise ``data_fn(a, b)`` under numpy broadcasting. ``b`` may be a
    Tensor, an array or a Python scalar; a non-Tensor ``b`` is cast to ``a``'s
    dtype and gets no gradient. ``grad_a(a, b)`` and ``grad_b(a, b)`` return
    a function of ``g`` that gives the operand's gradient at the broadcast
    shape, and backward sums it back to the operand's shape. They are called
    only for an operand the tape records, so the node keeps only the arrays
    those functions read, and the operand shapes. A gradient that returns
    ``g`` itself hands ``g`` on uncopied (see backward())."""
    xd = a.data
    yd = b.data if isinstance(b, Tensor) else np.asarray(b, dtype=xd.dtype)
    data = data_fn(xd, yd)
    record = _recorder((a, b))
    if record is None:
        return _wrap_out(op, None, data, None)
    id_a, id_b = record[1]
    shapes = (xd.shape, yd.shape)
    grads = (grad_a(xd, yd) if id_a is not None else None,
             grad_b(xd, yd) if id_b is not None else None)

    def backward(g):
        return tuple(None if fn is None else _unbroadcast(fn(g), shape) for fn, shape in zip(grads, shapes))

    return _wrap_out(op, record, data, backward)


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------

# Each gradient factory below is a closure over only the operands it reads.
def _pass(x, y):
    return lambda g: g


def add(a: Tensor, b) -> Tensor:
    return _binary("add", a, b, np.add, _pass, _pass)


def mul(a: Tensor, b) -> Tensor:
    return _binary("mul", a, b, np.multiply, lambda x, y: lambda g: g * y, lambda x, y: lambda g: g * x)


def div(a: Tensor, b) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        return _binary("div", a, b, np.divide, lambda x, y: lambda g: g / y,
                       lambda x, y: lambda g: -g * x / (y * y))


def expit(x: np.ndarray) -> np.ndarray:
    """The logistic sigmoid 1 / (1 + exp(-x)) of an array, in its dtype,
    computed in one new array. Where exp(-x) overflows to inf the result is
    its limit, 0."""
    out = np.negative(x)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def sigmoid(a: Tensor) -> Tensor:
    data = expit(a.data)

    def backward(g):
        t = g * data  # (g * s) * (1 - s), multiplied in place: 1 - s is the only temporary
        t *= 1.0 - data
        return (t,)

    return _out("sigmoid", (a,), data, backward)


# erf in float32: Eigen's generic_fast_erf_float (also XLA's), x * P(x^2) / Q(x^2)
# with x clamped to [-4, 4]. Coefficients highest power first.
_ERF32_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
            -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
            -1.60960333262415e-02)
_ERF32_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
            -7.37332916720468e-03, -1.42647390514189e-02)
# erf in float64: Cephes ndtr.c, x * T(x^2) / U(x^2) for |x| <= 1, else
# 1 - exp(-x^2) * P(|x|) / Q(|x|).
_ERF64_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
            7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF64_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
            2.26290000613890934246e4, 4.92673942608635921086e4)
_ERF64_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
            4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
            9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERF64_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
            9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
            1.65666309194161350182e3, 5.57535340817727675546e2)


def _horner(x: np.ndarray, coefs: tuple, out: np.ndarray) -> np.ndarray:
    """The polynomial with ``coefs`` (highest power first) at x, by Horner's
    rule into ``out`` (Cephes polevl; a leading 1.0 gives p1evl's bits)."""
    np.multiply(x, coefs[0], out=out)
    for c in coefs[1:-1]:
        out += c
        out *= x
    out += coefs[-1]
    return out


def _erf32_band(x: np.ndarray, bufs: list) -> None:
    np.clip(x, -4.0, 4.0, out=x)
    x2 = np.multiply(x, x, out=bufs[0])
    x *= _horner(x2, _ERF32_P, bufs[1])
    x /= _horner(x2, _ERF32_Q, bufs[2])


def _erf64_band(x: np.ndarray, bufs: list) -> None:
    a = np.minimum(np.abs(x, out=bufs[0]), 8.0, out=bufs[0])  # erfc(8) < 1e-27: erf is 1 there
    z = np.multiply(a, a, out=bufs[1])
    small = _horner(z, _ERF64_T, bufs[2])
    small *= a
    small /= _horner(z, _ERF64_U, bufs[3])
    big = np.exp(np.negative(z, out=z), out=z)
    big *= _horner(a, _ERF64_P, bufs[3])
    big /= _horner(a, _ERF64_Q, bufs[3])
    np.subtract(1.0, big, out=big)
    np.copyto(big, small, where=a <= 1.0)
    np.copysign(big, x, out=x)


def _erf(x: np.ndarray) -> np.ndarray:
    """erf of a contiguous float32 or float64 array, in place, in bands of
    _BAND_ELEMS elements whose few temporaries are reused from band to band;
    returns x. float64 is within 1 ulp of Cephes; float32 is within 8 ulp."""
    flat = x.reshape(-1)
    band, n_bufs = (_erf32_band, 3) if x.dtype == np.float32 else (_erf64_band, 4)
    bufs = [np.empty(min(flat.size, _BAND_ELEMS), x.dtype) for _ in range(n_bufs)]
    for s in range(0, flat.size, _BAND_ELEMS):
        xs = flat[s:s + _BAND_ELEMS]
        band(xs, [b[:xs.size] for b in bufs])
    return x


def _gelu_forward(x: np.ndarray):
    """(x * Phi(x), Phi(x)) with the exact Gaussian CDF (erf form, not the tanh fit)."""
    cdf = _erf(x * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    return x * cdf, cdf


def _gelu_slope(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """d gelu / dx = Phi(x) + x * phi(x), in one new array; backward is g * slope."""
    slope = np.multiply(x, -0.5)
    with np.errstate(over="ignore"):  # -x^2/2 beyond the dtype's range is -inf; exp gives its limit, 0
        slope *= x
    np.exp(slope, out=slope)
    slope *= _INV_SQRT2PI
    slope *= x
    slope += cdf
    return slope


def gelu(a: Tensor) -> Tensor:
    """x * Phi(x) with the exact Gaussian CDF (erf form, not the tanh fit).
    When a tape records it, the node keeps only the slope, computed in the
    forward; the input and the CDF are not kept."""
    data, cdf = _gelu_forward(a.data)
    record = _recorder((a,))
    slope = _gelu_slope(a.data, cdf) if record is not None else None
    del cdf
    return _wrap_out("gelu", record, data, lambda g: (g * slope,))


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


def _unreduce(g: np.ndarray, shape: tuple, axis) -> np.ndarray:
    """A reduction's output gradient broadcast back to its input ``shape``."""
    if axis is not None:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        g = np.expand_dims(g, tuple(ax % len(shape) for ax in axes))
    return np.broadcast_to(g, shape)


def reduce_sum(a: Tensor, axis=None) -> Tensor:
    data = a.data.sum(axis=axis)
    src_shape = a.data.shape
    return _out("sum", (a,), data, lambda g: (_unreduce(g, src_shape, axis),))


def reduce_mean(a: Tensor, axis=None) -> Tensor:
    data = a.data.mean(axis=axis)
    src_shape = a.data.shape
    n = a.data.size // data.size
    return _out("mean", (a,), data, lambda g: (_unreduce(g / n, src_shape, axis),))


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
    if bd.ndim != 2 and ad.shape[:-2] != bd.shape[:-2]:
        raise ShapeMismatch(f"matmul leading dims differ: {ad.shape} @ {bd.shape}")
    data = ad @ bd

    def backward(g):
        ga = g @ bd.swapaxes(-1, -2)
        if bd.ndim == 2:  # one matrix for every leading slot: sum its gradient over them
            gb = ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        else:
            gb = ad.swapaxes(-1, -2) @ g
        return ga, gb

    return _out("matmul", (a, b), data, backward)


def _conv_bands(xshape: tuple, kh: int, kw: int, o: int):
    """Bands [(s0, s1, r0, r1, taps)] of a "same" stride-1 conv's input:
    samples [s0, s1) whole where one sample fits, else one sample's input
    rows [r0, r1), so that a band's largest working array (kh*kw*O per-tap
    channels or C input-gradient channels over its pixels) stays within
    _BAND_ELEMS. Row bands run top to bottom, samples in order within each.
    ``taps`` lists (i, j, (out rows, band rows), (out cols, in cols)) per
    kernel tap, clipped to the band (empty if the tap reads none of it): tap
    row i is the offset d = i - kh // 2, output row r reads input row r + d,
    so its output rows are [max(0, r0 - d), min(h, r1 - d)); band rows count
    from r0, and columns work the same way."""
    bsz, c, h, w = xshape

    def axis(n: int, d: int, r0: int, r1: int):
        lo = max(0, r0 - d)
        hi = max(lo, min(n, r1 - d))
        return slice(lo, hi), slice(lo + d - r0, hi + d - r0)

    cols = [axis(w, j - kw // 2, 0, w) for j in range(kw)]
    row = max(kh * kw * o, c) * w
    rows = max(1, min(h, _BAND_ELEMS // row))
    group = max(1, _BAND_ELEMS // (row * h)) if rows == h else 1
    bands = []
    for r0 in range(0, h, rows):
        r1 = min(h, r0 + rows)
        taps = [(i, j, axis(h, i - kh // 2, r0, r1), cols[j]) for i in range(kh) for j in range(kw)]
        bands += [(s0, min(bsz, s0 + group), r0, r1, taps) for s0 in range(0, bsz, group)]
    return bands


def _conv2d_forward(xd: np.ndarray, wd: np.ndarray, bd: Optional[np.ndarray]):
    """Array math of ``conv2d``: (output, context for ``_conv2d_backward``).
    ``xd`` may be a channel-prefix view of a larger buffer; it is not copied."""
    if xd.ndim != 4 or wd.ndim != 4:
        raise ShapeMismatch(f"conv2d expects 4-d input and weight, got {xd.shape}, {wd.shape}")
    bsz, c, h, width = xd.shape
    o, cw, kh, kw = wd.shape
    if cw != c:
        raise ShapeMismatch(f"conv2d channel mismatch: input {c}, weight {cw}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeMismatch(f"conv2d kernel {kh}x{kw} has an even side, so it has no centre tap")
    if bd is not None and bd.shape != (o,):
        raise ShapeMismatch(f"conv2d bias shape {bd.shape}, expected ({o},)")
    bands = _conv_bands(xd.shape, kh, kw, o)
    x2 = xd.reshape(bsz, c, h * width)
    wt = wd.transpose(2, 3, 0, 1).reshape(kh * kw * o, c)
    data = np.zeros((bsz, o, h, width), np.result_type(xd, wd))
    if bd is not None:  # start from the bias: adding it last rounds worse
        data += bd[:, None, None]
    # a sample's row bands run top to bottom and taps in (i, j) order within
    # a band, so every output element still receives its taps in (i, j) order
    for s0, s1, r0, r1, taps in bands:
        z = (wt @ x2[s0:s1, :, r0 * width:r1 * width]).reshape(s1 - s0, kh, kw, o, r1 - r0, width)
        for i, j, (ro, ri), (co, ci) in taps:
            data[s0:s1, :, ro, co] += z[:, i, j, :, ri, ci]
        del z
    return data, (x2, wd, bands, xd.shape, bd is not None)


def _conv2d_backward(g: np.ndarray, ctx, gx: Optional[np.ndarray] = None):
    """(gx, gw, gb) of ``_conv2d_forward``, one band at a time; gb
    is None for a bias-free conv. Given ``gx`` (of the input's shape), the
    input gradient is added into it in place instead of into a new array.
    The weight gradient is summed sample by sample, in order, as one GEMM
    over the batch would sum it; only where samples are split into row bands
    is it summed band by band instead."""
    x2, wd, bands, xshape, has_bias = ctx
    c, width = xshape[1], xshape[3]
    o, _, kh, kw = wd.shape
    wt = wd.transpose(2, 3, 0, 1).reshape(kh * kw * o, c)
    if gx is None:
        gx = np.zeros(xshape, np.result_type(g, wd))
    gw = None
    for s0, s1, r0, r1, taps in bands:
        gz = np.zeros((s1 - s0, kh, kw, o, r1 - r0, width), dtype=g.dtype)
        for i, j, (ro, ri), (co, ci) in taps:
            gz[:, i, j, :, ri, ci] = g[s0:s1, :, ro, co]
        gz = gz.reshape(s1 - s0, kh * kw * o, (r1 - r0) * width)
        gx[s0:s1, :, r0:r1] += (wt.T @ gz).reshape(s1 - s0, c, r1 - r0, width)
        for gw_sample in gz @ x2[s0:s1, :, r0 * width:r1 * width].transpose(0, 2, 1):
            gw = gw_sample if gw is None else gw + gw_sample
        del gz
    gb = g.sum(axis=(0, 2, 3)) if has_bias else None
    return gx, gw.reshape(kh, kw, o, c).transpose(2, 3, 0, 1), gb


def conv2d(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """2-D cross-correlation of B x C x H x W input with O x C x kh x kw
    kernels of odd sides, stride 1 and "same": zero-padded by (kh // 2, kw // 2)
    so the output keeps H x W. Runs as kn2row over bands of whole samples or of
    input rows: per band, one GEMM gives kh*kw*O per-tap outputs at every
    pixel of the band, and each tap's window is added in at its offset. No
    padding or im2col columns are built, and the per-tap outputs and
    gradients never exceed one band; the tape keeps x and w."""
    data, ctx = _conv2d_forward(x.data, w.data, None if b is None else b.data)
    return _out("conv2d", (x, w, b), data, lambda g: _conv2d_backward(g, ctx))


def dense_block(inputs: list, weights: Sequence[Tensor], biases: Sequence[Optional[Tensor]],
                dropout_p: float, rng: Optional[np.random.Generator] = None) -> Tensor:
    """FC-DenseNet block as one op over a shared feature buffer (Pleiss et al.,
    arXiv:1707.06990): the inputs fill the first C0 channels of one
    B x (C0 + L*g) x H x W buffer F, and layer i writes dropout(gelu(conv3x3))
    of the channel-prefix view F[:, :C0 + i*g] into the next g channels.
    Dropout runs when given a generator.
    The op consumes ``inputs``: once they are copied into F it empties the
    list, and no backward reads them, so an input that nothing else
    references is freed before the first layer's conv.
    Backward walks the layers in reverse, adding each layer's input gradient
    into its prefix of the output gradient in place, band by band (no
    full-size input gradient is built). Its node writes into its gradient, so
    backward() hands it an array it owns and copies one only if it is not.
    When a tape records the node it keeps F and, per layer, the GELU slope
    and the bool dropout keep mask: (itemsize + 1) bytes per element of the
    layer's slot. Otherwise each layer's arrays are freed once it is done."""
    shapes = [t.shape for t in inputs]
    if any(len(s) != 4 or s[0] != shapes[0][0] or s[2:] != shapes[0][2:] for s in shapes):
        raise ShapeMismatch(f"dense_block inputs differ in batch or map size: {shapes}")
    sizes = [s[1] for s in shapes]
    c0 = sum(sizes)
    growth = weights[0].shape[0] if weights else 0
    if any(w.shape[0] != growth or w.shape[2:] != (3, 3) for w in weights):
        raise ShapeMismatch(f"dense_block layer weights {[w.shape for w in weights]} are not g x C x 3 x 3")
    record = _recorder((*inputs, *weights, *biases))
    feats = np.empty((shapes[0][0], c0 + len(weights) * growth, *shapes[0][2:]),
                     np.result_type(*(t.data for t in inputs)))
    np.concatenate([t.data for t in inputs], axis=1, out=feats[:, :c0])
    inputs.clear()
    saved = [] if record is not None else None
    for i, (w, b) in enumerate(zip(weights, biases)):
        lo = c0 + i * growth
        z, ctx = _conv2d_forward(feats[:, :lo], w.data, None if b is None else b.data)
        y, cdf = _gelu_forward(z)
        keep = _dropout_keep(y, dropout_p, rng)
        feats[:, lo:lo + growth] = y if keep is None else y * _dropout_scale(keep, dropout_p, y.dtype)
        if saved is not None:
            saved.append((ctx, _gelu_slope(z, cdf), keep))
        del z, cdf, y, keep  # this layer's working arrays go before the next conv

    def backward(g):
        gws, gbs = [None] * len(saved), [None] * len(saved)
        while saved:  # popping frees each layer's slope and mask once used
            ctx, slope, keep = saved.pop()
            i = len(saved)
            lo = c0 + i * growth
            scale = 1.0 if keep is None else _dropout_scale(keep, dropout_p, g.dtype)
            gz = g[:, lo:lo + growth] * scale  # (g * mask) * slope, rounded as dropout then gelu
            gz *= slope
            del slope, keep, scale
            _, gws[i], gbs[i] = _conv2d_backward(gz, ctx, g[:, :lo])
        return (*np.split(g[:, :c0], np.cumsum(sizes)[:-1], axis=1), *gws, *gbs)

    return _wrap_out("dense_block", record, feats, backward, writes_grad=True)


def conv_transpose2d(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Transposed convolution (adjoint of a strided conv) with square C x O x k x k
    kernels and stride k, so windows never overlap: one GEMM gives every output
    pixel, and a pixel shuffle lays the k*k taps out as an (H*k) x (W*k) map."""
    xd, wd = x.data, w.data
    if xd.ndim != 4 or wd.ndim != 4:
        raise ShapeMismatch(f"conv_transpose2d expects 4-d operands, got {xd.shape}, {wd.shape}")
    bsz, c, h, width = xd.shape
    cw, o, kh, kw = wd.shape
    if cw != c:
        raise ShapeMismatch(f"conv_transpose2d channel mismatch: input {c}, weight {cw}")
    if kh != kw:
        raise ShapeMismatch(f"conv_transpose2d needs a square kernel, got {kh}x{kw}")
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

def avg_pool(x: Tensor) -> Tensor:
    """Non-overlapping 2x2 mean pooling; halves both spatial dims."""
    xd = x.data
    src = xd.shape
    bsz, c, h, w = src
    if h % 2 or w % 2:
        raise ShapeMismatch(f"pool window 2x2 does not tile {h}x{w}")
    ho, wo = h // 2, w // 2
    data = np.zeros((bsz, c, ho, wo), xd.dtype)
    for i in range(2):
        for j in range(2):
            data += xd[:, :, i::2, j::2]
    data *= 0.25

    def backward(g):
        g6 = np.broadcast_to(g[:, :, :, None, :, None] / 4, (bsz, c, ho, 2, wo, 2))
        return (g6.reshape(src),)

    return _out("avg_pool", (x,), data, backward)


def normalize(x: Tensor, eps: float) -> Tensor:
    """Zero mean and unit variance over the last axis: (x - mean) / sqrt(var + eps).
    The tape keeps the output and the per-row sqrt(var + eps)."""
    xd = x.data
    xmu = xd - xd.mean(axis=-1, keepdims=True)
    std = np.sqrt(np.mean(xmu * xmu, axis=-1, keepdims=True) + eps)
    data = xmu / std

    def backward(g):
        gc = g - g.mean(axis=-1, keepdims=True)
        gc -= data * np.mean(g * data, axis=-1, keepdims=True)
        gc /= std
        return (gc,)

    return _out("normalize", (x,), data, backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """``normalize`` with eps 1e-6 over the last (feature) axis, then affine."""
    d = x.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeMismatch(
            f"layer_norm affine shapes {gamma.data.shape}/{beta.data.shape} do not match feature dim {d}"
        )
    return add(mul(normalize(x, 1e-6), gamma), beta)


def _dropout_keep(x: np.ndarray, p: float, rng: Optional[np.random.Generator]):
    """Bool keep mask of inverted dropout, False with probability p; None
    where dropout is the identity (no generator, or p == 0)."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability {p} outside [0, 1)")
    if rng is None or p == 0.0:
        return None
    return rng.random(x.shape) >= p


def _dropout_scale(keep: np.ndarray, p: float, dtype) -> np.ndarray:
    """The multiplier of a keep mask: 0 where dropped, else 1/(1-p)."""
    return keep.astype(dtype) * (1.0 / (1.0 - p))


def dropout(x: Tensor, p: float, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: runs when given a generator, zeroing with probability
    p and scaling survivors by 1/(1-p); exact identity without a generator or
    at p == 0. The tape keeps the bool keep mask and rebuilds the multiplier
    in backward."""
    keep = _dropout_keep(x.data, p, rng)
    if keep is None:
        return x
    dtype = x.data.dtype
    return _out("dropout", (x,), x.data * _dropout_scale(keep, p, dtype),
                lambda g: (g * _dropout_scale(keep, p, dtype),))


# ---------------------------------------------------------------------------
# backward pass and the finite-difference oracle
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate gradients of every watched leaf reachable from ``loss``.

    Unreachable watched leaves receive zero gradients. The tape is consumed in
    reverse topological order: each node is freed once used; a second call raises.

    A pending gradient is *owned* when nothing else holds it, so it may be
    written in place. It is owned if the engine allocated it (the loss seed,
    or the sum for an id reached more than once), or if one node returned it
    for exactly one input, it is no view (``base is None``) and it is not the
    same object as another gradient of that node (``add(a, b)`` hands one
    array to both). A node that hands its own ``g`` on (``add`` with a
    constant) passes ownership only if ``g`` was owned. A repeated id is
    summed with ``+=`` into an owned entry whose dtype holds the sum (the
    same bits as a new sum), else into a new array. A node that writes into
    its gradient (``dense_block``) gets an owned ``g``: the engine copies
    ``g`` first only if it is not owned.
    """
    if loss.data.size != 1:
        raise NotScalar(f"backward() needs a scalar loss, got shape {loss.shape}")
    tape = loss._tape
    if tape is None or loss.tape_id is None or tape.consumed:
        raise DetachedTensor("loss tensor is not attached to a tape, or backward() already consumed it")
    tape.consumed = True
    grads = {loss.tape_id: np.ones_like(loss.data)}
    owned = {loss.tape_id}
    while tape.nodes:  # popping frees each node's closure and activations once used
        node = tape.nodes.pop()
        g = grads.pop(node.output_id, None)
        if g is None:
            continue
        g_owned = node.output_id in owned
        owned.discard(node.output_id)
        if node.writes_grad and not g_owned:
            g, g_owned = g.copy(), True
        pending = [(tid, gin) for tid, gin in zip(node.input_ids, node.backward(g))
                   if tid is not None and gin is not None]
        objs = [id(gin) for _, gin in pending]
        for tid, gin in pending:
            mine = objs.count(id(gin)) == 1 and (g_owned if gin is g else gin.base is None)
            if tid not in grads:
                grads[tid] = gin
                if mine:
                    owned.add(tid)
            elif tid in owned and grads[tid].dtype == np.result_type(grads[tid], gin):
                grads[tid] += gin
            else:
                grads[tid] = grads[tid] + gin
                owned.add(tid)
    for leaf in tape._watched:
        g = grads.pop(leaf.tape_id, None)  # so a non-contiguous gradient goes once copied
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
    return grad_check_tensors(lambda: f(x), [x], eps)


def grad_check_tensors(loss_fn: Callable[[], Tensor], tensors: Sequence[Tensor], eps: float = 1e-5) -> float:
    """Like grad_check but for a closure over several tensors (e.g. a block's
    input plus its parameters). Perturbs each tensor in place and restores it,
    also when ``loss_fn`` raises."""
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
            try:
                flat[i] = old + eps
                fp = float(loss_fn().data.reshape(-1)[0])
                flat[i] = old - eps
                fm = float(loss_fn().data.reshape(-1)[0])
            finally:
                flat[i] = old
            numeric[i] = (fp - fm) / (2.0 * eps)
        worst = max(worst, _max_rel_err(ana.reshape(-1), numeric))
    return worst
