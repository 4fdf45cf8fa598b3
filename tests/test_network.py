import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidsr import tensor as T
from vidsr.fuse import _block_pairs, fold_block, fuse_network
from vidsr.network import (
    BackboneConfig,
    EagerOps,
    SRNet,
    _block_stems,
    build_backbone,
    mbconv_apply,
    named_params,
    net_forward,
    net_from_params,
    param_count,
    param_shapes,
    sr_forward,
)
from vidsr.prompt import VisualPrompt, apply_prompt
from vidsr.tensor import ShapeMismatch, Tensor4

from oracles import srnet_oracle


def rnd(shape, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    return ((rng.random(shape) - 0.5) * 2 * scale).astype(np.float32)


def kern3(c_out, c_in, seed, bias=True):
    """A 3x3 (weight, bias) pair."""
    return (rnd((c_out, c_in, 3, 3), seed),
            rnd((c_out,), seed + 1000) if bias else np.zeros(c_out, np.float32))


def kern1(c, seed, bias=True):
    """A C->C 1x1 (weight, bias) pair."""
    return (rnd((c, c, 1, 1), seed),
            rnd((c,), seed + 1000) if bias else np.zeros(c, np.float32))


def identity1(c):
    return np.eye(c, dtype=np.float32).reshape(c, c, 1, 1), np.zeros(c, np.float32)


def block_dict(branches):
    """A block's branches, each a (cascade pairs, main pair), as the
    name->array dict of a block of prefix "block"."""
    params = {}
    for (stems, main), (cascade, pair) in zip(_block_stems("block", len(branches)),
                                              branches):
        for stem, (w, b) in zip((*stems, main), (*cascade, pair)):
            params |= {f"{stem}.w": w, f"{stem}.b": b}
    return params


def random_branches(c, m, seed):
    return [([kern1(c, seed + 10 * i + j) for j in range(i)], kern3(c, c, seed + 100 + i))
            for i in range(m)]


def random_block(c, m, seed):
    return block_dict(random_branches(c, m, seed))


def block_forward(m, x, params):
    """Eager forward of the block of m branches in ``params``."""
    return mbconv_apply(EagerOps, m, x, params, "block")


def folded_block_forward(m, x, params):
    """The same block folded by ``fold_block`` and run as one 3x3 conv."""
    w, b = fold_block(_block_pairs(params, "block", m))
    return block_forward(1, x, {"block.w": w, "block.b": b})


class TestMultiBranchForward:
    def test_single_bare_branch_equals_plain_conv(self):
        c = 4
        k = kern3(c, c, 1)
        x = rnd((1, c, 6, 6), 2)
        got = block_forward(1, x, block_dict([([], k)]))
        np.testing.assert_array_equal(got, T._conv2d(x, *k, 1))

    def test_identity_cascade_gives_sum_of_plain_convs(self):
        c = 3
        f0 = kern3(c, c, 3)
        f1 = kern3(c, c, 4)
        x = rnd((2, c, 5, 7), 5)
        got = block_forward(2, x, block_dict([([], f0), ([identity1(c)], f1)]))
        want = T._conv2d(x, *f0, 1) + T._conv2d(x, *f1, 1)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_output_dims_equal_input_dims(self):
        for c, m, h, w in ((1, 1, 3, 3), (4, 3, 8, 5), (2, 4, 6, 6)):
            x = rnd((1, c, h, w), 6)
            assert block_forward(m, x, random_block(c, m, seed=c * 10 + m)).shape \
                == x.shape

    def test_branch_linearity_zero_bias(self):
        c = 4
        p = block_dict([([kern1(c, 40 + 10 * i + j, bias=False) for j in range(i)],
                         kern3(c, c, 50 + i, bias=False)) for i in range(3)])
        x = rnd((1, c, 6, 6), 8)
        y = rnd((1, c, 6, 6), 9)
        a, b = 0.6, -1.1
        lhs = block_forward(3, (a * x + b * y).astype(np.float32), p)
        rhs = a * block_forward(3, x, p) + b * block_forward(3, y, p)
        np.testing.assert_allclose(lhs, rhs, atol=1e-5)

    def test_zero_branch_is_no_op(self):
        c = 3
        branches = random_branches(c, 2, seed=60)
        zero_main = (np.zeros((c, c, 3, 3), np.float32), np.zeros(c, np.float32))
        extra = ([kern1(c, 61), kern1(c, 62)], zero_main)
        x = rnd((1, c, 5, 5), 63)
        np.testing.assert_allclose(block_forward(3, x, block_dict(branches + [extra])),
                                   block_forward(2, x, block_dict(branches)),
                                   atol=1e-6)

    def test_channel_mismatch_rejected(self):
        # the forward checks channels once, at the network's input
        net = build_backbone(BackboneConfig(channels=4, blocks=1, branches=2),
                             seed=70)
        with pytest.raises(ShapeMismatch, match="3-channel"):
            sr_forward(net, Tensor4.zeros(1, 4, 4, 4))

    # A block's structure and widths are its names and shapes in
    # param_shapes: net_from_params refuses a block tensor that breaks
    # them, by name (every name: test_param_shapes_decides_every_name_and_shape).

    @staticmethod
    def refused(channels, name, value):
        cfg = BackboneConfig(channels=channels, blocks=1, branches=2)
        values = dict(build_backbone(cfg, seed=70).params)
        if value is None:
            del values[name]
        else:
            values[name] = value
        error = KeyError if value is None else ShapeMismatch
        with pytest.raises(error, match=re.escape(name)):
            net_from_params(cfg, values)

    def test_branch_structure_enforced(self):
        # branch 1 must carry its one cascade kernel, and branch 0 has none
        self.refused(2, "body0.conv0.br1.casc0.w", None)
        assert "body0.conv0.br0.casc0.w" not in param_shapes(
            BackboneConfig(channels=2, blocks=1, branches=2))

    def test_branch_chain_break_rejected(self):
        # a 2->3 cascade kernel cannot feed a 4-channel 3x3 conv
        self.refused(4, "body0.conv1.br1.casc0.w", np.zeros((3, 2, 1, 1), np.float32))

    def test_branch_width_mismatch_rejected(self):
        # every kernel of a block maps its channels to its channels
        self.refused(3, "body0.conv0.br1.casc0.w", identity1(4)[0])
        self.refused(3, "body0.conv0.br1.main.w", kern3(3, 4, 71)[0])
        # a cascade that reads 4 channels feeding a 3->3 main conv
        self.refused(3, "body0.conv0.br1.casc0.w", np.ones((3, 4, 1, 1), np.float32))


def expected_param_count(config: BackboneConfig) -> int:
    """Closed-form parameter count by enumerating every kernel."""
    c, s = config.channels, config.scale
    conv3 = lambda ci, co: co * ci * 9 + co
    conv1 = c * c + c
    total = conv3(3, c) + conv3(c, 3 * s * s)
    per_block_conv = sum(i * conv1 + conv3(c, c) for i in range(config.branches))
    total += config.blocks * 2 * per_block_conv
    return total


class TestBackbone:
    def test_param_count_matches_enumeration(self):
        cfg = BackboneConfig(channels=16, blocks=2, branches=3, scale=2)
        net = build_backbone(cfg, seed=0)
        assert param_count(net) == expected_param_count(cfg)

    def test_m1_count_equals_plain_baseline(self):
        cfg = BackboneConfig(channels=8, blocks=2, branches=1, scale=2)
        net = build_backbone(cfg, seed=0)
        plain = (8 * 3 * 9 + 8) + 2 * 2 * (8 * 8 * 9 + 8) + (8 * 12 * 9 + 12)
        assert param_count(net) == plain

    def test_same_seed_bit_identical(self):
        cfg = BackboneConfig(channels=8, blocks=1, branches=2, scale=3)
        a = build_backbone(cfg, seed=123)
        b = build_backbone(cfg, seed=123)
        for (na, pa), (nb, pb) in zip(named_params(a), named_params(b)):
            assert na == nb
            np.testing.assert_array_equal(pa, pb)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            BackboneConfig(scale=5)

    def test_zero_net_with_skip_is_bicubic(self):
        cfg = BackboneConfig(channels=4, blocks=1, branches=2, scale=2)
        net = build_backbone(cfg, seed=0)
        zeros = {name: np.zeros_like(p) for name, p in named_params(net)}
        from vidsr.network import rebuild_with_params
        net0 = rebuild_with_params(net, zeros)
        x = Tensor4.from_array(np.random.default_rng(3).random((1, 3, 6, 6)))
        got = sr_forward(net0, x)
        want = T.bicubic_resize(x, 2)
        np.testing.assert_allclose(got.data, want.data, atol=1e-6)

    def test_output_dims(self):
        cfg = BackboneConfig(channels=8, blocks=1, branches=2, scale=2)
        net = build_backbone(cfg, seed=1)
        x = Tensor4.from_array(np.random.default_rng(4).random((1, 3, 24, 24)))
        assert sr_forward(net, x).dims == (1, 3, 48, 48)

    def test_rebuild_keeps_kind_and_parameters(self):
        from vidsr.fuse import fuse_network
        from vidsr.network import SRNet, rebuild_with_params
        net = build_backbone(BackboneConfig(channels=4, blocks=2, branches=3,
                                            scale=3), seed=6)
        # the training network and its one-branch fusion are one type
        for src in (net, fuse_network(net)):
            params = dict(named_params(src))
            again = rebuild_with_params(src, params)
            assert type(again) is SRNet and again.config == src.config
            got = dict(named_params(again))
            assert list(got) == list(params)
            for name, arr in params.items():
                assert got[name].tobytes() == arr.tobytes()

    def test_one_branch_training_forward_records_no_pad(self):
        # a one-branch block is one 3x3 conv at padding 1 on the tape too
        from vidsr.autodiff import Tape
        from vidsr.network import leaf_params, net_forward
        net = build_backbone(BackboneConfig(channels=4, blocks=2, branches=1,
                                            scale=2), seed=0)
        tape = Tape()
        x = tape.leaf(np.zeros((2, 3, 6, 6), np.float32))
        net_forward(tape, net, leaf_params(tape, net), x)
        ops = [n.op for n in tape.nodes]
        assert "pad_const" not in ops
        assert ops.count("conv2d") == 2 + 2 * 2

    @pytest.mark.parametrize("branches", [1, 3])
    def test_tape_forward_runs_epilogues_in_convs(self, branches):
        # ReLUs, residual adds, the pixel shuffle and the bicubic skip are
        # conv epilogues: 2 + 2*blocks block convs (plus the 1x1 cascade),
        # and bit-equal to the eager forward
        from vidsr.autodiff import Tape
        from vidsr.network import leaf_params, net_forward
        net = build_backbone(BackboneConfig(channels=4, blocks=2,
                                            branches=branches, scale=2), seed=2)
        tape = Tape()
        x = np.random.default_rng(5).random((2, 3, 6, 7)).astype(np.float32)
        y = net_forward(tape, net, leaf_params(tape, net), tape.leaf(x))
        ops = [n.op for n in tape.nodes]
        cascade = 2 * 2 * branches * (branches - 1) // 2
        assert ops.count("conv2d") == 2 + 2 * 2 + cascade
        assert not {"relu", "add", "pixel_shuffle"} & set(ops)
        assert y.value.tobytes() == sr_forward(net, Tensor4(x)).data.tobytes()

    def test_clamp_is_clip_of_forward(self):
        net = build_backbone(BackboneConfig(channels=4, blocks=1, branches=1,
                                            scale=2), seed=3)
        x = Tensor4.from_array(
            np.random.default_rng(6).random((1, 3, 8, 9)) * 4 - 2)
        raw = sr_forward(net, x).data
        assert raw.min() < 0 and raw.max() > 1
        got = sr_forward(net, x, clamp=True).data
        assert got.tobytes() == np.clip(raw, 0, 1).tobytes()

    def test_names_are_unique_and_ordered(self):
        cfg = BackboneConfig(channels=4, blocks=2, branches=3, scale=2)
        net = build_backbone(cfg, seed=5)
        names = [n for n, _ in named_params(net)]
        assert len(names) == len(set(names))
        assert names[0] == "head.w" and names[-1] == "tail.b"


def layout(net):
    return [(name, arr.shape) for name, arr in named_params(net)]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(channels=st.integers(1, 5), blocks=st.integers(1, 2),
       branches=st.integers(1, 4), scale=st.integers(2, 4), data=st.data())
def test_param_shapes_decides_every_name_and_shape(channels, blocks, branches,
                                                   scale, data):
    cfg = BackboneConfig(channels=channels, blocks=blocks, branches=branches,
                         scale=scale)
    shapes = param_shapes(cfg)
    net = build_backbone(cfg, seed=0)
    assert layout(net) == list(shapes.items())
    assert param_count(net) == expected_param_count(cfg)
    fused = fuse_network(net)
    assert layout(fused) == list(param_shapes(replace(cfg, branches=1)).items())
    # one tensor of a wrong shape is refused by name, whichever it is
    for name, shape in shapes.items():
        bad = list(shape)
        axis = data.draw(st.integers(0, len(bad)), label=name)
        if axis == len(bad):
            bad.append(1)           # one dim too many
        else:
            bad[axis] += data.draw(st.sampled_from([-1, 1])) if bad[axis] > 1 else 1
        with pytest.raises(ShapeMismatch, match=f"^{re.escape(name)} has shape"):
            net_from_params(cfg, {**net.params, name: np.zeros(bad, np.float32)})


def float64_params(cfg, seed):
    """A built network's parameters in float64, with every bias drawn
    nonzero, so that the border ring and each residual carry signal."""
    rng = np.random.default_rng(seed)
    return {name: rng.uniform(-0.5, 0.5, a.shape) if a.ndim == 1
            else a.astype(np.float64)
            for name, a in build_backbone(cfg, seed).params.items()}


def assert_built_and_fused_match(cfg, params, x, want):
    """The engine's forward of the built network, and of its blocks folded
    by ``fold_block``, both in float64, against the loop oracle."""
    built = net_forward(EagerOps, SRNet(cfg, params), params, x)
    fused = dict(params)
    for prefix in (f"body{b}.conv{c}" for b in range(cfg.blocks) for c in (0, 1)):
        fused[f"{prefix}.w"], fused[f"{prefix}.b"] = fold_block(
            _block_pairs(params, prefix, cfg.branches))
    one = replace(cfg, branches=1)
    single = net_forward(EagerOps, SRNet(one, fused), fused, x)
    assert built.dtype == single.dtype == np.float64
    assert built.shape == single.shape == want.shape
    np.testing.assert_allclose(built, want, rtol=0, atol=1e-9)
    np.testing.assert_allclose(single, want, rtol=0, atol=1e-9)


class TestLoopOracle:
    """The whole network against ``oracles.srnet_oracle`` in float64."""

    @pytest.mark.parametrize("branches, scale, blocks, channels, h, w", [
        (1, 2, 1, 3, 7, 9),
        (2, 3, 2, 4, 6, 5),
        (3, 4, 1, 2, 10, 10),
        (4, 2, 2, 4, 8, 6),
        (3, 3, 2, 3, 5, 8),
    ])
    def test_forward_matches_oracle(self, branches, scale, blocks, channels, h, w):
        cfg = BackboneConfig(channels=channels, blocks=blocks,
                             branches=branches, scale=scale)
        params = float64_params(cfg, seed=branches * 100 + scale * 10 + blocks)
        x = np.random.default_rng(h * w).random((1, 3, h, w))
        assert_built_and_fused_match(cfg, params, x, srnet_oracle(cfg, params, x))

    def test_prompted_frame_matches_oracle(self):
        # frame and prompt on a 1/256 grid, so the float32 prompt add is
        # exact and both sides see the same float64 input
        cfg = BackboneConfig(channels=4, blocks=1, branches=3, scale=2)
        params = float64_params(cfg, seed=77)
        rng = np.random.default_rng(78)
        frame = rng.integers(0, 256, (1, 3, 10, 9)) / 256
        prompt = VisualPrompt(0, rng.integers(-64, 64, (3, 6, 4)) / 256)
        x = apply_prompt(Tensor4.from_array(frame), prompt).data.astype(np.float64)
        want_in = frame.copy()
        want_in[:, :, 2:8, 2:6] += prompt.values
        assert_built_and_fused_match(cfg, params, x,
                                     srnet_oracle(cfg, params, want_in))
