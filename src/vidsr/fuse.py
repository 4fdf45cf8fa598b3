"""Collapse multi-branch convolution blocks into single 3x3 convolutions.

A 1x1 cascade followed by a 3x3 conv is an affine map followed by a
convolution, so it folds into one 3x3 kernel; parallel branches fold by
kernel summation. The fold works on plain (weight, bias) array pairs:
its arithmetic runs in float64 and its result has the input's dtype.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .network import SRNet, _block_stems, net_from_params


def fold_branch(cascade, main):
    """Float64 (weight, bias) of the one 3x3 conv that equals a branch:
    the 1x1 ``cascade`` of (w, b) pairs, then the 3x3 ``main`` pair.

    Applied at padding 1, the result reproduces the branch under the
    block border convention exactly: the cascade maps the zero ring to
    its accumulated bias, and that bias is folded into the fused bias.
    """
    q3, b3 = (np.asarray(a, np.float64) for a in main)
    n = cascade[0][0].shape[1] if cascade else q3.shape[1]
    w, b = np.eye(n), np.zeros(n)
    for cw, cb in cascade:
        m = np.asarray(cw[:, :, 0, 0], np.float64)
        b = m @ b + np.asarray(cb, np.float64)
        w = m @ w
    return (np.einsum("omuv,mi->oiuv", q3, w),
            b3 + np.einsum("omuv,m->o", q3, b))


def fold_block(branches):
    """(weight, bias) of the one 3x3 conv that equals a block of
    ``branches``, each a (cascade, main) pair as ``fold_branch`` takes.

    Each folded branch is rounded to the dtype of the main weights, the
    branches are summed in float64 in branch order, and the sum is
    rounded to that dtype again.
    """
    dt = np.asarray(branches[0][1][0]).dtype
    ws, bs = zip(*(fold_branch(casc, main) for casc, main in branches))

    def total(parts):
        return np.sum([p.astype(dt).astype(np.float64) for p in parts],
                      axis=0).astype(dt)

    return total(ws), total(bs)


def _block_pairs(params, prefix, branches):
    """A block's branches as ``fold_block`` takes them, read from the
    name->array dict ``params`` under ``prefix``."""
    def pair(stem):
        return params[f"{stem}.w"], params[f"{stem}.b"]

    return [([pair(s) for s in casc], pair(main))
            for casc, main in _block_stems(prefix, branches)]


def fuse_network(net: SRNet) -> SRNet:
    """The one-branch network: every body block collapsed into one 3x3
    conv, head and tail copied unchanged. A one-branch network fuses to
    an equal copy, so the operation is idempotent."""
    cfg = net.config
    values = dict(net.params)
    for prefix in (f"body{b}.conv{c}" for b in range(cfg.blocks) for c in (0, 1)):
        values[f"{prefix}.w"], values[f"{prefix}.b"] = fold_block(
            _block_pairs(net.params, prefix, cfg.branches))
    return net_from_params(replace(cfg, branches=1), values)
