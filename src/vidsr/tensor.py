"""Dense rank-4 tensor engine backed by numpy.

Everything downstream (networks, fusion, prompts, metrics) consumes the
operations defined here. Values are float32 (B, C, H, W) arrays; the raw
``_*`` kernels preserve dtype so the gradient checker can run them in
float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class TensorError(ValueError):
    """Base for shape/value violations in tensor operations."""


class ChannelMismatch(TensorError):
    """Input channel count does not match what the operation expects."""


class ShapeMismatch(TensorError):
    """Operand dimensions are incompatible."""


RESIZE_SCALES = (
    Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
    Fraction(1), Fraction(2), Fraction(3), Fraction(4),
)


def _as_f32(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float32)


@dataclass(frozen=True)
class Tensor4:
    """Immutable (batch, channels, height, width) float32 array."""

    data: np.ndarray

    def __post_init__(self):
        d = self.data
        if d.ndim != 4:
            raise ShapeMismatch(f"Tensor4 needs 4 dims, got {d.ndim}")
        if d.dtype != np.float32 or not d.flags.c_contiguous:
            d = _as_f32(d)
            object.__setattr__(self, "data", d)
        d.setflags(write=False)

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @staticmethod
    def zeros(b: int, c: int, h: int, w: int) -> "Tensor4":
        return Tensor4(np.zeros((b, c, h, w), np.float32))

    @staticmethod
    def from_array(a) -> "Tensor4":
        # copies, so the caller's array keeps its writeability
        return Tensor4(np.array(a, np.float32, order="C"))

    def to_array(self) -> np.ndarray:
        return np.array(self.data)


@dataclass(frozen=True)
class ConvKernel:
    """Convolution weights (out, in, K, K) plus a per-output-channel bias.

    K is odd and restricted to 1 or 3; the bias is always present (zeros
    are fine).
    """

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = _as_f32(self.weight)
        b = _as_f32(self.bias)
        if w.ndim != 4 or w.shape[2] != w.shape[3]:
            raise ShapeMismatch(f"kernel weight must be (out,in,K,K), got {w.shape}")
        k = w.shape[2]
        if k % 2 == 0:
            raise ShapeMismatch(f"even kernel size {k} not supported")
        if k not in (1, 3):
            raise ShapeMismatch(f"kernel size {k} not supported (use 1 or 3)")
        if b.shape != (w.shape[0],):
            raise ShapeMismatch(f"bias shape {b.shape} != ({w.shape[0]},)")
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weight.shape[1]

    @property
    def size(self) -> int:
        return self.weight.shape[2]

    def param_count(self) -> int:
        return self.weight.size + self.bias.size


# ---------------------------------------------------------------------------
# raw kernels (dtype-preserving, ndarray in / ndarray out)
# ---------------------------------------------------------------------------

# _to_hwc, _to_chw and _im2col are no longer called by any conv; they stay
# defined because perfbench/tracer.py wraps them by name.

def _to_hwc(x):
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1))


def _to_chw(x):
    return np.ascontiguousarray(x.transpose(0, 3, 1, 2))


def _im2col(xp_hwc, k):
    """Channels-last sliding windows flattened to (B*Ho*Wo, K*K*C)."""
    b, hp, wp, c = xp_hwc.shape
    win = sliding_window_view(xp_hwc, (k, k), axis=(1, 2))  # (B,Ho,Wo,C,k,k)
    col = np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3))
    return col.reshape(b * (hp - k + 1) * (wp - k + 1), k * k * c)


# The convs below take and return NCHW and never build im2col. The
# input is padded into a channel-major (C, B, Hp, Wp) buffer whose flat
# view (C, n), n = B*Hp*Wp, puts tap (u, v) of output pixel j at column
# j + u*Wp + v. Stacking the K horizontal shifts gives a (K*C, n-K+1)
# matrix, and each tap row u is one GEMM over the column window starting
# at u*Wp. Output columns are positions in the padded grid; those whose
# rows or columns run past Ho or Wo mix neighbouring rows or images and
# are cropped, the rest never read across an image boundary.

def _shift_stack(x, k, padding, pad_values=None):
    """(B,C,H,W) -> ((K*C, n-K+1) horizontal shifts, Hp, Wp).

    Row block v is the flat padded input shifted left by v; block 0 is
    written straight from x and the others are copied from it.
    """
    bb, c, h, w = x.shape
    p = padding
    hp, wp = h + 2 * p, w + 2 * p
    n = bb * hp * wp
    buf = np.empty((k, c, n), x.dtype)
    xp = buf[0].reshape(c, bb, hp, wp)
    if p:
        fill = 0 if pad_values is None else \
            np.asarray(pad_values, x.dtype)[:, None, None, None]
        xp[:, :, :p] = fill
        xp[:, :, -p:] = fill
        xp[:, :, p:-p, :p] = fill
        xp[:, :, p:-p, -p:] = fill
    xp[:, :, p:p + h, p:p + w] = x.transpose(1, 0, 2, 3)
    for v in range(1, k):
        buf[v, :, :n - v] = buf[0, :, v:]
    return buf.reshape(k * c, n)[:, :n - k + 1], hp, wp


def _correlate(x, w, padding, pad_values=None, bias=None):
    """Stride-1 NCHW cross-correlation by per-tap-row GEMMs."""
    bb, c, h, ww = x.shape
    o, i, k, _ = w.shape
    dt = x.dtype
    wv = np.asarray(w, dt)
    ho = h - k + 1 + 2 * padding
    wo = ww - k + 1 + 2 * padding
    if k == 1 and padding == 0:
        y = np.matmul(wv[:, :, 0, 0], x.reshape(bb, c, h * ww))
        if bias is not None:
            y += np.asarray(bias, dt)[:, None]
        return y.reshape(bb, o, ho, wo)
    sh, hp, wp = _shift_stack(x, k, padding, pad_values)
    # (K, O, K*I): tap row u, columns ordered (v, i) like the shift stack
    rows = np.ascontiguousarray(wv.transpose(2, 0, 3, 1)).reshape(k, o, k * i)
    span = bb * hp * wp - (k - 1) * (wp + 1)   # last valid output + 1
    acc = np.empty((o, bb * hp * wp), dt)
    np.matmul(rows[0], sh[:, :span], out=acc[:, :span])
    for u in range(1, k):
        acc[:, :span] += rows[u] @ sh[:, u * wp:u * wp + span]
    y = np.empty((bb, o, ho, wo), dt)
    valid = acc.reshape(o, bb, hp, wp)[:, :, :ho, :wo].transpose(1, 0, 2, 3)
    if bias is None:
        y[...] = valid
    else:
        np.add(valid, np.asarray(bias, dt)[:, None, None], out=y)
    return y


def _conv2d(x, w, b, padding, pad_values=None):
    """Stride-1 cross-correlation plus per-output-channel bias."""
    return _correlate(x, w, padding, pad_values, b)


def _conv2d_grad_bias(gy):
    return gy.sum(axis=(0, 2, 3))


def _conv2d_grad_weight(x, gy, k, padding, pad_values=None):
    """Weight gradient: per-tap-row GEMMs of the input shifts against gy."""
    bb, c, h, ww = x.shape
    o, ho, wo = gy.shape[1], gy.shape[2], gy.shape[3]
    dt = gy.dtype
    if k == 1 and padding == 0:
        g = np.matmul(gy.reshape(bb, o, ho * wo),
                      x.reshape(bb, c, h * ww).transpose(0, 2, 1)).sum(axis=0)
        return g.reshape(o, c, 1, 1)
    sh, hp, wp = _shift_stack(np.asarray(x, dt), k, padding, pad_values)
    span = bb * hp * wp - (k - 1) * (wp + 1)
    # gy zero-embedded in the padded grid as the (n, O) GEMM operand;
    # a contiguous (n, O) runs faster here than the transposed (O, n).
    ge = np.zeros((bb, hp, wp, o), dt)
    ge[:, :ho, :wo] = gy.transpose(0, 2, 3, 1)
    gt = ge.reshape(-1, o)[:span]
    g = np.empty((k, k * c, o), dt)
    for u in range(k):
        np.matmul(sh[:, u * wp:u * wp + span], gt, out=g[u])
    return np.ascontiguousarray(g.reshape(k, k, c, o).transpose(3, 2, 0, 1))


def _conv2d_grad_input(gy, w, padding, in_shape):
    """Input gradient: correlation of gy with the flipped, transposed
    kernel at padding K-1-p, which lands exactly on the input grid."""
    k = w.shape[2]
    q = k - 1 - padding
    if q < 0:   # outputs whose taps all fall on padding reach no input
        gy = gy[:, :, -q:q, -q:q]
        q = 0
    wf = np.asarray(w, gy.dtype)[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    out = _correlate(gy, wf, q)
    if out.shape != in_shape:
        raise ShapeMismatch(f"conv backward produced {out.shape}, expected {in_shape}")
    return out


def _pad_const(x, p):
    """Zero-pad the two spatial axes of an NCHW array by p on every side."""
    bb, c, h, w = x.shape
    out = np.zeros((bb, c, h + 2 * p, w + 2 * p), x.dtype)
    out[:, :, p:p + h, p:p + w] = x
    return out


def _pixel_shuffle(x, r):
    b, c, h, w = x.shape
    co = c // (r * r)
    y = x.reshape(b, co, r, r, h, w).transpose(0, 1, 4, 2, 5, 3)
    return np.ascontiguousarray(y).reshape(b, co, h * r, w * r)


def _pixel_unshuffle(x, r):
    b, c, h, w = x.shape
    ho, wo = h // r, w // r
    y = x.reshape(b, c, ho, r, wo, r).transpose(0, 1, 3, 5, 2, 4)
    return np.ascontiguousarray(y).reshape(b, c * r * r, ho, wo)


def _cubic_weight(t: float) -> float:
    # Keys cubic convolution kernel, a = -0.5 (Catmull-Rom).
    at = abs(t)
    if at <= 1.0:
        return (1.5 * at - 2.5) * at * at + 1.0
    if at < 2.0:
        return ((-0.5 * at + 2.5) * at - 4.0) * at + 2.0
    return 0.0


def _resize_matrix(n_in: int, n_out: int) -> np.ndarray:
    """(n_out, n_in) cubic interpolation matrix, half-pixel centers,
    border taps clamped (clamped taps fold their weight onto the edge)."""
    m = np.zeros((n_out, n_in), np.float64)
    for dst in range(n_out):
        src = (dst + 0.5) * n_in / n_out - 0.5
        base = int(np.floor(src))
        for tap in range(base - 1, base + 3):
            wgt = _cubic_weight(src - tap)
            m[dst, min(max(tap, 0), n_in - 1)] += wgt
    return m


# A banded (n_out, n_in) matrix is applied in row blocks of at most
# BAND_BLOCK outputs, each one GEMM over only the input span [a, b) that
# its nonzeros cover: about BAND_BLOCK/scale + taps inputs per output
# instead of n_in. A matrix with at most BAND_BLOCK rows is one block.
BAND_BLOCK = 64


def _band_blocks(m, dtype):
    """Split a banded matrix into (lo, hi, a, b, m[lo:hi, a:b]) row blocks."""
    blocks = []
    for lo in range(0, m.shape[0], BAND_BLOCK):
        rows = m[lo:lo + BAND_BLOCK]
        nz = np.flatnonzero(rows.any(axis=0))
        a, b = int(nz[0]), int(nz[-1]) + 1
        mb = np.array(rows[:, a:b], dtype)
        mb.setflags(write=False)
        blocks.append((lo, lo + rows.shape[0], a, b, mb))
    return tuple(blocks)


def _band_apply(x, blocks, n_out, axis):
    """Multiply the banded matrix of ``blocks`` into axis -1 or -2 of x."""
    shape = list(x.shape)
    shape[axis] = n_out
    y = np.empty(shape, x.dtype)
    if axis == -1:
        x2 = x.reshape(-1, x.shape[-1])
        y2 = y.reshape(-1, n_out)
        for lo, hi, a, b, mb in blocks:
            np.matmul(x2[:, a:b], mb.T, out=y2[:, lo:hi])
    else:
        for lo, hi, a, b, mb in blocks:
            np.matmul(mb, x[..., a:b, :], out=y[..., lo:hi, :])
    return y


@lru_cache(maxsize=64)
def _resize_blocks(n_in: int, n_out: int, transpose: bool, dtype):
    """Band blocks of the n_in -> n_out resize, or with transpose of the
    adjoint of the n_out -> n_in resize."""
    m = _resize_matrix(n_out, n_in).T if transpose else _resize_matrix(n_in, n_out)
    return _band_blocks(m, dtype)


def _bicubic_resize(x, out_h, out_w, transpose=False):
    """Separable cubic resize; transpose=True applies the adjoint operator."""
    h, w = x.shape[-2:]
    t = _band_apply(x, _resize_blocks(w, out_w, transpose, x.dtype), out_w, -1)
    return _band_apply(t, _resize_blocks(h, out_h, transpose, x.dtype), out_h, -2)


def _relu(x):
    return np.maximum(x, 0)


def _clamp01(x):
    return np.clip(x, 0, 1)


# ---------------------------------------------------------------------------
# public operations on Tensor4
# ---------------------------------------------------------------------------

def conv2d(x: Tensor4, kernel: ConvKernel, padding: int,
           pad_value_per_channel=None) -> Tensor4:
    """Stride-1 convolution with zero or per-channel constant padding.

    padding must be 0 or (K-1)/2; absent pad values mean zero padding.
    """
    b, c, h, w = x.dims
    if c != kernel.in_channels:
        raise ChannelMismatch(
            f"input has {c} channels, kernel expects {kernel.in_channels}")
    k = kernel.size
    if padding not in (0, (k - 1) // 2):
        raise ShapeMismatch(f"padding {padding} invalid for K={k}")
    pv = None
    if pad_value_per_channel is not None:
        pv = np.asarray(pad_value_per_channel, np.float32)
        if pv.shape != (c,):
            raise ShapeMismatch(f"pad values must have shape ({c},), got {pv.shape}")
    y = _conv2d(x.data, kernel.weight, kernel.bias, padding, pv)
    return Tensor4(y)


def bicubic_resize(x: Tensor4, scale) -> Tensor4:
    """Cubic resampling (a=-0.5, half-pixel centers, clamped borders)."""
    frac = Fraction(scale).limit_denominator(64)
    if frac not in RESIZE_SCALES:
        raise ShapeMismatch(f"unsupported scale {scale}")
    b, c, h, w = x.dims
    oh = h * frac
    ow = w * frac
    if oh.denominator != 1 or ow.denominator != 1:
        raise ShapeMismatch(f"scale {frac} gives non-integral dims for ({h},{w})")
    oh, ow = int(oh), int(ow)
    if frac == 1:
        return x
    return Tensor4(_bicubic_resize(x.data, oh, ow))


def clamp01(a: Tensor4) -> Tensor4:
    return Tensor4(_clamp01(a.data))
