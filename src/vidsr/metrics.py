"""Restoration quality metrics and the delivery cost model."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from .tensor import (
    ShapeMismatch,
    Tensor4,
    ValidationError,
    _band_apply,
    _band_blocks,
    _parallel,
    _parts,
    _workspace,
    bicubic_resize,
)

MB = 10 ** 6

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
SSIM_STRIP = 32   # SSIM output rows filtered and reduced at a time
# _mse's pieces, in elements: a 0.5 MB float64 difference. On a 540x960
# frame 2**16 and 2**17 ran 12-16% faster than 2**18.
MSE_PIECE = 2 ** 16


def _mse(a, b) -> float:
    """Mean squared difference of two float32 arrays, in float64 where their
    difference is exact. Each piece of MSE_PIECE elements writes its difference
    into this thread's stack buffer and reduces it by one dot product; the
    piece sums are added in piece order over the tensor module's workers."""
    a, b = a.ravel(), b.ravel()

    def piece(lo):
        hi = lo + MSE_PIECE
        d = _workspace("stack", min(hi, a.size) - lo, np.float64)
        d[...] = a[lo:hi]
        d -= b[lo:hi]
        return float(np.dot(d, d))

    total = 0.0
    for part in _parallel(piece, range(0, a.size, MSE_PIECE)):
        total += part
    return total / a.size


def psnr(a: Tensor4, b: Tensor4) -> float:
    """Peak signal-to-noise ratio in dB over all channels, range [0,1].

    Identical images return +inf.
    """
    if a.dims != b.dims:
        raise ShapeMismatch(f"psnr: dims {a.dims} vs {b.dims}")
    mse = _mse(a.data, b.data)
    if mse == 0:
        return math.inf
    return float(10.0 * np.log10(1.0 / mse))


def _gaussian_window(n=SSIM_WINDOW, sigma=SSIM_SIGMA):
    r = np.arange(n, dtype=np.float64) - (n - 1) / 2
    g = np.exp(-(r ** 2) / (2 * sigma ** 2))
    g /= g.sum()
    return g


@lru_cache(maxsize=16)
def _window_matrix(n_in: int) -> np.ndarray:
    """(n_in - n + 1, n_in) matrix of the valid correlation with the window."""
    g = _gaussian_window()
    m = np.zeros((n_in - g.size + 1, n_in))
    for i in range(m.shape[0]):
        m[i, i:i + g.size] = g
    m.setflags(write=False)
    return m


@lru_cache(maxsize=16)
def _window_blocks(n_in: int):
    return _band_blocks(_window_matrix(n_in), np.float64)


def ssim(a: Tensor4, b: Tensor4) -> float:
    """Mean local SSIM on the grayscale (channel-mean) images.

    11x11 Gaussian window (sigma 1.5), K1=0.01, K2=0.03, dynamic range 1.
    The image is scored SSIM_STRIP output rows at a time. A strip writes
    the channel means x and y of its input rows and the moment maps
    x^2+y^2 and xy (SSIM only needs var_x + var_y) as one stacked float64
    array into its thread's stack buffer, filters them with one GEMM down
    the columns into the slab buffer, then with the banded row filter back
    into the stack, and evaluates the SSIM map in place. The strips are
    split over the tensor module's workers by the image's output pixels
    (tensor._parts); per-strip sums are added in strip order.
    """
    if a.dims != b.dims:
        raise ShapeMismatch(f"ssim: dims {a.dims} vs {b.dims}")
    _, _, h, w = a.dims
    n = SSIM_WINDOW
    if h < n or w < n:
        raise ShapeMismatch(
            f"image ({h}x{w}) smaller than the {n}x{n} window")
    ho, wo = h - n + 1, w - n + 1
    cols = _window_matrix(SSIM_STRIP + n - 1)
    rows = _window_blocks(w)
    c1 = SSIM_K1 ** 2
    c2 = SSIM_K2 ** 2
    strips = range(0, ho, SSIM_STRIP)
    parts = _parts(ho * wo)
    total = 0.0
    for i in range(a.dims[0]):
        def strip(r):
            s = min(SSIM_STRIP, ho - r)
            k = s + n - 1
            stack = _workspace("stack", k * 4 * w, np.float64)
            m = stack.reshape(k, 4, w)
            x, y, sq, xy = m.transpose(1, 0, 2)
            a.data[i, :, r:r + k].mean(axis=0, dtype=np.float64, out=x)
            b.data[i, :, r:r + k].mean(axis=0, dtype=np.float64, out=y)
            np.multiply(x, x, out=sq)
            np.multiply(y, y, out=xy)
            sq += xy
            np.multiply(x, y, out=xy)
            slab = _workspace("slab", s * 4 * w, np.float64)
            f = np.matmul(cols[:s, :k], m.reshape(k, 4 * w),
                          out=slab.reshape(s, 4 * w))
            g = _band_apply(f.reshape(4 * s, w), rows, wo, -1,
                            out=stack[:4 * s * wo].reshape(4 * s, wo))
            mu_x, mu_y, e2, exy = g.reshape(s, 4, wo).transpose(1, 0, 2)
            # in the order, which sets the bits, of mxy = mu_x mu_y,
            # m2 = mu_x^2 + mu_y^2,
            # (2 mxy + c1)(2 (exy - mxy) + c2) / ((m2 + c1)(e2 - m2 + c2))
            q = slab[:s * wo].reshape(s, wo)
            np.multiply(mu_x, mu_y, out=q)
            np.multiply(mu_x, mu_x, out=mu_x)
            np.multiply(mu_y, mu_y, out=mu_y)
            m2 = np.add(mu_x, mu_y, out=mu_x)
            exy -= q
            exy *= 2
            exy += c2
            q *= 2
            q += c1
            q *= exy
            e2 -= m2
            e2 += c2
            m2 += c1
            m2 *= e2
            q /= m2
            return float(q.sum())

        for part in _parallel(strip, strips, parts):
            total += part
    return total / (a.dims[0] * ho * wo)


def consistency(lr: Tensor4, sr: Tensor4, scale: int) -> float:
    """MSE between the LR input and the downscaled SR output, times 10.

    Reported in units of 1e-1 to match the usual table scale.
    """
    if scale == 1:
        down = sr
    else:
        down = bicubic_resize(sr, Fraction(1, scale))
    if down.dims != lr.dims:
        raise ShapeMismatch(f"consistency: {down.dims} vs {lr.dims}")
    return _mse(lr.data, down.data) * 10.0


# ---------------------------------------------------------------------------
# delivery cost model
# ---------------------------------------------------------------------------

SCHEMES = ("per-chunk-models", "shared-model", "shared-model+tvp")


@dataclass
class CostReport:
    """Byte accounting for one delivery scheme.

    per-chunk-models: sum(S_i + L_i)
    shared-model:     S + sum(L_i)
    shared-model+tvp: S + sum(L_i + T_i)
    """

    scheme: str
    lr_bytes: list = field(default_factory=list)
    model_bytes: list = field(default_factory=list)
    prompt_bytes: list = field(default_factory=list)

    @property
    def chunk_count(self) -> int:
        return len(self.lr_bytes)

    @property
    def lr_total(self) -> int:
        return sum(self.lr_bytes)

    @property
    def model_total(self) -> int:
        return sum(self.model_bytes) + sum(self.prompt_bytes)

    @property
    def total_bytes(self) -> int:
        return self.lr_total + self.model_total

    def format_line(self) -> str:
        """'LR+MODEL (TOTAL)' in MB, e.g. '3.62+0.27 (3.89)'."""
        return "%.2f+%.2f (%.2f)" % (self.lr_total / MB, self.model_total / MB,
                                     self.total_bytes / MB)


def _file_size(path) -> int:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"cost report input missing: {p}")
    return p.stat().st_size


def cost_report(scheme: str, lr_chunk_files, model_files,
                prompt_bytes=None, lr_override_bytes=None) -> CostReport:
    """Measure artifact sizes and assemble the per-scheme totals.

    lr_chunk_files: one list of frame paths per chunk. model_files: one
    container for shared schemes, one per chunk otherwise. prompt_bytes:
    per-chunk prompt payload sizes (shared-model+tvp only).
    lr_override_bytes substitutes externally-encoded chunk sizes.
    """
    if scheme not in SCHEMES:
        raise ValidationError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    n = len(lr_chunk_files)
    if lr_override_bytes is not None:
        if len(lr_override_bytes) != n:
            raise ValidationError("need one LR size override per chunk")
        lr_bytes = [int(v) for v in lr_override_bytes]
    else:
        lr_bytes = [sum(_file_size(f) for f in chunk) for chunk in lr_chunk_files]
    model_files = list(model_files)
    if scheme == "per-chunk-models":
        if len(model_files) != n:
            raise ValidationError(f"per-chunk scheme needs {n} models, "
                                  f"got {len(model_files)}")
    elif len(model_files) != 1:
        raise ValidationError("shared schemes take exactly one model container")
    model_bytes = [_file_size(f) for f in model_files]
    if scheme == "shared-model+tvp":
        t = [int(v) for v in (prompt_bytes or [])]
        if len(t) != n:
            raise ValidationError(f"need one prompt size per chunk, got {len(t)}")
    else:
        t = [0] * n
    return CostReport(scheme, lr_bytes, model_bytes, t)
