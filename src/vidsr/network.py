"""SR network built from multi-branch convolution blocks.

A multi-branch block holds M parallel branches; branch i applies i
consecutive 1x1 convolutions followed by one 3x3 convolution, and the
branch outputs are summed. Branches contain no nonlinearity, which is
what makes the block collapsible into a single convolution (see
``fuse``). The delivered network is the same type with M = 1.

Border convention: the input of a block of M >= 2 branches is
zero-padded by one pixel before the 1x1 cascade, and the 3x3
convolutions then run without padding. The cascade maps the zero ring
to its accumulated bias, which is exactly the ring value the fused bias
term assumes, so fusion is exact at the borders too. A one-branch block
has no cascade and runs as one 3x3 convolution at padding 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    ShapeMismatch,
    Tensor4,
    ValidationError,
    _as_f32,
    _bicubic_resize,
    _conv2d,
    _pad_const,
)


@dataclass(frozen=True)
class BackboneConfig:
    channels: int = 16
    blocks: int = 2
    branches: int = 3
    scale: int = 2
    global_skip: bool = True

    def __post_init__(self):
        if self.channels < 1 or self.blocks < 1 or self.branches < 1:
            raise ValidationError("channels, blocks, branches must be >= 1")
        if self.scale not in (2, 3, 4):
            raise ValidationError(f"scale must be 2, 3 or 4, got {self.scale}")


@dataclass
class SRNet:
    """head conv -> residual blocks of two multi-branch convs -> tail conv
    + pixel shuffle, with an optional global bicubic skip. ``params`` holds
    one float32 array per name of ``param_shapes(config)``, in its order."""

    config: BackboneConfig
    params: dict


# ---------------------------------------------------------------------------
# parameter naming (stable order shared by the optimizer and the container)
# ---------------------------------------------------------------------------

def _block_stems(prefix, branches):
    """Parameter name stems of one body block, as (cascade stems, main
    stem) per branch. A one-branch block is a plain conv named by its
    prefix, as fusion delivers it."""
    if branches == 1:
        return [((), prefix)]
    return [([f"{prefix}.br{i}.casc{j}" for j in range(i)], f"{prefix}.br{i}.main")
            for i in range(branches)]


def param_shapes(config: BackboneConfig) -> dict:
    """Every parameter's name and shape, in the one order that
    initialization, the optimizer and the container share: the head, then
    each block's branches (cascade 1x1 kernels before the 3x3 main), then
    the tail."""
    c = config.channels
    shapes = {}

    def conv(stem, out_ch, in_ch, k):
        shapes[f"{stem}.w"] = (out_ch, in_ch, k, k)
        shapes[f"{stem}.b"] = (out_ch,)

    conv("head", c, 3, 3)
    for b in range(config.blocks):
        for ci in range(2):
            for casc, main in _block_stems(f"body{b}.conv{ci}", config.branches):
                for stem in casc:
                    conv(stem, c, c, 1)
                conv(main, c, c, 3)
    conv("tail", 3 * config.scale ** 2, c, 3)
    return shapes


def named_params(net) -> list:
    """Deterministic (name, array) list covering every parameter tensor."""
    return list(net.params.items())


def param_count(net) -> int:
    return sum(int(a.size) for a in net.params.values())


def net_from_params(config: BackboneConfig, values: dict) -> SRNet:
    """Network of ``config``'s shape with its parameters read from ``values``
    by the names ``param_shapes`` gives them, as read-only contiguous
    float32 arrays. A missing name raises KeyError naming it, and a wrong
    shape ShapeMismatch naming it; other names are ignored (a container
    with other tensors is refused by ``model_io.load_model``)."""
    params = {}
    for name, shape in param_shapes(config).items():
        a = _as_f32(values[name])
        if a.shape != shape:
            raise ShapeMismatch(f"{name} has shape {a.shape}, want {shape}")
        a.setflags(write=False)
        params[name] = a
    return SRNet(config, params)


def rebuild_with_params(net: SRNet, values: dict) -> SRNet:
    """Copy of the network with parameter arrays replaced by ``values``."""
    return net_from_params(net.config, values)


# ---------------------------------------------------------------------------
# forward (one code path for eager arrays and for tape nodes)
# ---------------------------------------------------------------------------

class EagerOps:
    """Array-level mirror of the Tape op surface (no gradients)."""

    @staticmethod
    def conv2d(x, w, b, padding, **epilogue):
        return _conv2d(x, w, b, padding, **epilogue)

    @staticmethod
    def pad_const(x, p):
        return _pad_const(x, p)

    @staticmethod
    def sum_nodes(items):
        items = list(items)
        total = items[0]
        for it in items[1:]:
            total = total + it
        return total

    @staticmethod
    def concat_channels(items):
        return np.concatenate(list(items), axis=1)

    stack_kernels = concat_channels

    @staticmethod
    def bicubic_resize(x, oh, ow):
        return _bicubic_resize(x, oh, ow)


def TapeOps(tape):
    """A Tape already has the EagerOps surface; it is passed as is."""
    return tape


def leaf_params(tape, net) -> dict:
    """Register every network parameter as a tape leaf."""
    return {name: tape.leaf(arr) for name, arr in net.params.items()}


def mbconv_apply(ops, branches, x, params, prefix, **epilogue):
    """Forward of a body block of ``branches`` branches: sum of
    f_i(g_i(x)), with parameters read from ``params`` under ``prefix``, and
    the conv ``epilogue`` (relu, shuffle, residual) applied by its last
    conv.

    A one-branch block is one 3x3 conv at padding 1. Otherwise the
    branch sum is evaluated as one convolution over the
    channel-concatenated cascade outputs with the branch kernels stacked
    along the input-channel axis; that is the same sum, just as a single
    GEMM.
    """
    stems = _block_stems(prefix, branches)
    if len(stems) == 1:
        main = stems[0][1]
        return ops.conv2d(x, params[f"{main}.w"], params[f"{main}.b"], 1,
                          **epilogue)
    xp = ops.pad_const(x, 1)
    zs = []
    for casc, _ in stems:
        z = xp
        for stem in casc:
            z = ops.conv2d(z, params[f"{stem}.w"], params[f"{stem}.b"], 0)
        zs.append(z)
    ws = [params[f"{main}.w"] for _, main in stems]
    bs = [params[f"{main}.b"] for _, main in stems]
    return ops.conv2d(ops.concat_channels(zs), ops.stack_kernels(ws),
                      ops.sum_nodes(bs), 0, **epilogue)


def net_forward(ops, net: SRNet, params, x):
    """Full SR forward on either backend; clamping is the caller's business.

    The ReLUs, the residual adds, the pixel shuffle and the bicubic skip
    run as conv epilogues: relu(conv + bias), shuffle, then + residual.
    """
    cfg = net.config
    m, scale = cfg.branches, cfg.scale
    u = ops.conv2d(x, params["head.w"], params["head.b"], 1)
    for b in range(cfg.blocks):
        t = mbconv_apply(ops, m, u, params, f"body{b}.conv0", relu=True)
        u = mbconv_apply(ops, m, t, params, f"body{b}.conv1", residual=u)
    skip = None
    if cfg.global_skip:
        _, _, h, w = x.shape
        skip = ops.bicubic_resize(x, h * scale, w * scale)
    return ops.conv2d(u, params["tail.w"], params["tail.b"], 1,
                      shuffle=scale, residual=skip)


def sr_forward(net, lr: Tensor4, clamp: bool = False) -> Tensor4:
    """Super-resolve one (1,3,h,w) frame (or a batch of them)."""
    if lr.dims[1] != 3:
        raise ShapeMismatch(f"expected 3-channel input, got {lr.dims[1]}")
    y = net_forward(EagerOps, net, net.params, lr.data)
    if clamp:
        np.clip(y, 0, 1, out=y)
    return Tensor4(y)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def build_backbone(config: BackboneConfig, seed: int = 0) -> SRNet:
    """Randomly initialized multi-branch backbone; deterministic in seed.

    3x3 kernels draw U(+-1/sqrt(9 in)) and 1x1 cascade kernels the
    identity plus U(+-0.01), in ``param_shapes`` order; biases are zero.
    The near-identity cascade keeps an M-branch block close to M copies
    of a plain conv at the start of training.
    """
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_shapes(config).items():
        if len(shape) == 1:
            params[name] = np.zeros(shape, np.float32)
        elif shape[2] == 3:
            bound = 1.0 / np.sqrt(shape[1] * 9)
            params[name] = rng.uniform(-bound, bound, shape).astype(np.float32)
        else:
            params[name] = (np.eye(shape[0], dtype=np.float32).reshape(shape)
                            + rng.uniform(-0.01, 0.01, shape).astype(np.float32))
    return net_from_params(config, params)
