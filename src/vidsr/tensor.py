"""Dense rank-4 tensor engine backed by numpy.

Everything downstream (networks, fusion, prompts, metrics) consumes the
operations defined here. Values are float32 (B, C, H, W) arrays; the raw
``_*`` kernels preserve dtype so the gradient checker can run them in
float64.
"""

from __future__ import annotations

import threading
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


# The convs below take and return NCHW and never build im2col. In the
# channel-major padded grid, flattened per channel, tap (u, v) of output
# position j sits at column j + u*Wp + v. The output is computed in tiles
# of about CONV_TILE grid columns: whole images when two or more fit,
# else bands of rows of one image. For each tile the K horizontal shifts
# of its padded input rows are written into one reused (K*C, m + (K-1)*Wp)
# stack, one (K*O x K*C) GEMM gives every tap row's partial sums, and tap
# row u's (O, m) slab, read u*Wp columns further on, is added in place to
# row 0's. Each output is summed in the same order as by one GEMM per tap
# row over the whole grid. Grid columns past Wo and rows past Ho mix
# neighbouring rows or images; the crop into the output drops them and
# adds the bias. CONV_TILE was timed on the 270x480 frame and the training
# patches (2-core Xeon, 2 MB L2 per core): at 12288 a 16-channel 3x3
# tile's stack and GEMM output are 2.5 MB each, split over the two BLAS
# threads, and it ran 3% faster than 8192; 4096 was 15-25% slower.
CONV_TILE = 12288


def _conv_tiles(bb, hp, ho, wp, k):
    """Tiles of about CONV_TILE grid columns and near-equal size, as
    (b0, nb, r0, r, ps, nr): output rows [r0, r0+r) of images [b0, b0+nb),
    with ps grid rows per image in the tile's output slab and nr padded
    input rows per image in its stack."""
    nb = CONV_TILE // (hp * wp)
    if nb >= 2:
        nt = -(-bb // nb)
        nb = -(-bb // nt)
        return [(b0, min(nb, bb - b0), 0, ho, hp, hp)
                for b0 in range(0, bb, nb)]
    nt = -(-ho // max(1, CONV_TILE // wp))
    r = -(-ho // nt)
    tiles = []
    for b0 in range(bb):
        for r0 in range(0, ho, r):
            rr = min(r, ho - r0)
            tiles.append((b0, 1, r0, rr, rr, rr + k - 1))
    return tiles


def _fill_stack(x, b0, nb, r0, nr, k, padding, fill, out):
    """Write padded rows [r0, r0+nr) of images [b0, b0+nb), flattened, and
    their horizontal shifts by 1..K-1 into the K row blocks of out
    (K*C, width); columns past the data are zero."""
    c, w = x.shape[1], x.shape[3]
    p = padding
    wp = w + 2 * p
    m = nb * nr * wp
    g = out[:c, :m].reshape(c, nb, nr, wp)
    lo = max(r0, p) - r0                      # tile rows holding image rows
    hi = min(r0 + nr, p + x.shape[2]) - r0
    if p:
        g[:, :, :lo] = fill
        g[:, :, hi:] = fill
        g[:, :, lo:hi, :p] = fill
        g[:, :, lo:hi, p + w:] = fill
    g[:, :, lo:hi, p:p + w] = \
        x[b0:b0 + nb, :, r0 + lo - p:r0 + hi - p].transpose(1, 0, 2, 3)
    out[:c, m:] = 0
    for v in range(1, k):
        out[v * c:(v + 1) * c, :-v] = out[:c, v:]
        out[v * c:(v + 1) * c, -v:] = 0
    return out


# Per-thread conv buffers (the shift stack, and the GEMM output slab or
# grad-weight's embedded gy), kept between calls so that a conv allocates
# only its result. Every use overwrites the part it reads. With fresh
# multi-MB buffers per call, grad-weight in the training loop ran about
# 10% slower than the same code run alone. A thread keeps the largest
# stack and slab it has used.
_WORKSPACE = threading.local()


def _workspace(slot, size, dt):
    """A flat dt buffer of size elements from this thread's slot, reused
    across calls and grown when too small; its contents are garbage."""
    key = (slot, np.dtype(dt))
    buf = _WORKSPACE.__dict__.get(key)
    if buf is None or buf.size < size:
        buf = _WORKSPACE.__dict__[key] = np.empty(size, dt)
    return buf[:size]


def _pad_fill(pad_values, dt):
    return 0 if pad_values is None else \
        np.asarray(pad_values, dt)[:, None, None, None]


def _correlate(x, w, padding, pad_values=None, bias=None):
    """Stride-1 NCHW cross-correlation by one stacked GEMM per tile."""
    bb, c, h, ww = x.shape
    o, i, k, _ = w.shape
    dt = x.dtype
    wv = np.asarray(w, dt)
    hp, wp = h + 2 * padding, ww + 2 * padding
    ho, wo = hp - k + 1, wp - k + 1
    if k == 1 and padding == 0:
        y = np.matmul(wv[:, :, 0, 0], x.reshape(bb, c, h * ww))
        if bias is not None:
            y += np.asarray(bias, dt)[:, None]
        return y.reshape(bb, o, ho, wo)
    # (K*O, K*I): rows ordered (u, o), columns (v, i) like the stack
    rows = np.ascontiguousarray(wv.transpose(2, 0, 3, 1)).reshape(k * o, k * i)
    fill = _pad_fill(pad_values, dt)
    bv = None if bias is None else np.asarray(bias, dt)[:, None, None]
    halo = (k - 1) * wp
    tiles = _conv_tiles(bb, hp, ho, wp, k)
    width = max(nb * ps for _, nb, _, _, ps, _ in tiles) * wp + halo
    stack = _workspace("stack", k * c * width, dt)
    slab = _workspace("slab", k * o * width, dt)
    y = np.empty((bb, o, ho, wo), dt)
    for b0, nb, r0, r, ps, nr in tiles:
        m = nb * ps * wp
        st = _fill_stack(x, b0, nb, r0, nr, k, padding, fill,
                         stack[:k * c * (m + halo)].reshape(k * c, m + halo))
        s = slab[:k * o * (m + halo)].reshape(k * o, m + halo)
        np.matmul(rows, st, out=s)
        acc = s[:o, :m]
        for u in range(1, k):
            np.add(acc, s[u * o:(u + 1) * o, u * wp:u * wp + m], out=acc)
        valid = acc.reshape(o, nb, ps, wp)[:, :, :r, :wo].transpose(1, 0, 2, 3)
        yt = y[b0:b0 + nb, :, r0:r0 + r]
        if bv is None:
            yt[...] = valid
        else:
            np.add(valid, bv, out=yt)
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
    p = padding
    hp, wp = h + 2 * p, ww + 2 * p
    n = bb * hp * wp
    span = n - (k - 1) * (wp + 1)
    # the whole grid as one tile
    sh = _fill_stack(np.asarray(x, dt), 0, bb, 0, hp, k, p,
                     _pad_fill(pad_values, dt),
                     _workspace("stack", k * c * n, dt).reshape(k * c, n))
    # gy zero-embedded in the padded grid as the (n, O) GEMM operand;
    # a contiguous (n, O) runs faster here than the transposed (O, n).
    ge = _workspace("slab", n * o, dt).reshape(bb, hp, wp, o)
    ge[:, ho:] = 0
    ge[:, :ho, wo:] = 0
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
