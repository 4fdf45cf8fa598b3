"""Collapse multi-branch convolution blocks into single 3x3 convolutions.

A 1x1 cascade followed by a 3x3 conv is an affine map followed by a
convolution, so it folds into one 3x3 kernel; parallel branches with
identical configuration fold by kernel summation. All folding arithmetic
runs in float64 and is stored back as float32.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .network import Branch, MultiBranchConv, SRNet, _block_stems, net_from_params
from .tensor import ChannelMismatch, ConvKernel, ShapeMismatch


def fold_cascade(cascade, in_channels: int):
    """Fold a chain of 1x1 convolutions into one affine map (W, b).

    Passing a value v through the chain equals W @ v + b.
    """
    w = np.eye(in_channels, dtype=np.float64)
    b = np.zeros(in_channels, np.float64)
    for k in cascade:
        if k.size != 1:
            raise ShapeMismatch("cascade kernels must be 1x1")
        if k.in_channels != w.shape[0]:
            raise ChannelMismatch(
                f"cascade chain breaks: {w.shape[0]} -> {k.in_channels}")
        m = np.asarray(k.weight[:, :, 0, 0], np.float64)
        b = m @ b + np.asarray(k.bias, np.float64)
        w = m @ w
    return w, b


def fuse_cascade(cascade, conv3: ConvKernel) -> ConvKernel:
    """Fold (1x1 cascade, 3x3 conv) into one 3x3 conv.

    The result, applied with padding 1 and zero padding, reproduces the
    sequential forward under the block border convention exactly: the
    cascade maps the zero ring to its accumulated bias, and that bias is
    folded into the fused bias term here.
    """
    if conv3.size != 3:
        raise ShapeMismatch("expected a 3x3 kernel to fold into")
    cascade = list(cascade)
    in_ch = cascade[0].in_channels if cascade else conv3.in_channels
    w_chain, b_chain = fold_cascade(cascade, in_ch)
    if w_chain.shape[0] != conv3.in_channels:
        raise ChannelMismatch(
            f"cascade emits {w_chain.shape[0]} channels, conv expects "
            f"{conv3.in_channels}")
    q3 = np.asarray(conv3.weight, np.float64)
    fused_w = np.einsum("omuv,mi->oiuv", q3, w_chain)
    fused_b = np.asarray(conv3.bias, np.float64) + np.einsum(
        "omuv,m->o", q3, b_chain)
    return ConvKernel(fused_w.astype(np.float32), fused_b.astype(np.float32))


def fuse_parallel_sum(kernels) -> ConvKernel:
    """Merge same-config parallel branches by summing kernels and biases."""
    kernels = list(kernels)
    first = kernels[0]
    for k in kernels[1:]:
        if k.size != first.size or k.in_channels != first.in_channels:
            raise ShapeMismatch("parallel branches must share kernel config")
        if k.out_channels != first.out_channels:
            raise ShapeMismatch("parallel sum needs equal output widths")
    w = np.sum([np.asarray(k.weight, np.float64) for k in kernels], axis=0)
    b = np.sum([np.asarray(k.bias, np.float64) for k in kernels], axis=0)
    return ConvKernel(w.astype(np.float32), b.astype(np.float32))


def fuse_block(conv: MultiBranchConv) -> ConvKernel:
    """Collapse one multi-branch block into a single 3x3 convolution."""
    return fuse_parallel_sum(fuse_cascade(br.cascade, br.main)
                             for br in conv.branches)


def fuse_network(net: SRNet) -> SRNet:
    """The one-branch network: every body block collapsed into one 3x3
    conv, head and tail copied unchanged. A one-branch network fuses to
    an equal copy, so the operation is idempotent."""
    cfg = net.config
    values = dict(net.params)

    def k(stem):
        return ConvKernel(values[f"{stem}.w"], values[f"{stem}.b"])

    for prefix in (f"body{b}.conv{c}" for b in range(cfg.blocks) for c in (0, 1)):
        fused = fuse_block(MultiBranchConv(cfg.channels, [
            Branch([k(s) for s in casc], k(main))
            for casc, main in _block_stems(prefix, cfg.branches)]))
        values[f"{prefix}.w"], values[f"{prefix}.b"] = fused.weight, fused.bias
    return net_from_params(replace(cfg, branches=1), values)
