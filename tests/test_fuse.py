import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidsr.fuse import (
    fold_cascade,
    fuse_block,
    fuse_cascade,
    fuse_network,
    fuse_parallel_sum,
)
from vidsr.network import (
    BackboneConfig,
    build_backbone,
    mbconv_forward,
    named_params,
    param_count,
    sr_forward,
)
from vidsr.tensor import ConvKernel, ShapeMismatch, Tensor4, conv2d

from oracles import conv2d_oracle
from test_network import identity1, kern1, kern3, random_mbconv, rnd


def sequential_branch_oracle(x, cascade, conv3):
    """Branch forward straight from the border convention, all loops:
    zero-pad by one, run the 1x1 chain, then the 3x3 conv unpadded."""
    b, c, h, w = x.shape
    padded = np.zeros((b, c, h + 2, w + 2), np.float64)
    padded[:, :, 1:-1, 1:-1] = x
    z = padded
    for k in cascade:
        z = conv2d_oracle(z, k.weight, k.bias, padding=0)
    return conv2d_oracle(z, conv3.weight, conv3.bias, padding=0)


class TestFuseCascade:
    def test_empty_cascade_is_exact_copy(self):
        conv3 = kern3(3, 3, 1)
        fused = fuse_cascade([], conv3)
        np.testing.assert_array_equal(fused.weight, conv3.weight)
        np.testing.assert_array_equal(fused.bias, conv3.bias)

    def test_identity_cascade_is_exact_copy(self):
        conv3 = kern3(4, 4, 2)
        fused = fuse_cascade([identity1(4)], conv3)
        np.testing.assert_array_equal(fused.weight, conv3.weight)
        np.testing.assert_array_equal(fused.bias, conv3.bias)

    def test_hand_algebra_c1(self):
        one = ConvKernel(np.full((1, 1, 1, 1), 2.0, np.float32),
                         np.ones(1, np.float32))
        conv3 = ConvKernel(np.ones((1, 1, 3, 3), np.float32),
                           np.zeros(1, np.float32))
        fused = fuse_cascade([one], conv3)
        np.testing.assert_array_equal(fused.weight,
                                      np.full((1, 1, 3, 3), 2.0, np.float32))
        np.testing.assert_array_equal(fused.bias, np.array([9.0], np.float32))
        # behavioural check on random input, against the loop oracle
        x = rnd((1, 1, 5, 5), 3)
        want = sequential_branch_oracle(x, [one], conv3)
        got = conv2d_oracle(x, fused.weight, fused.bias, padding=1)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_three_kernel_chain_matches_sequential_forward(self):
        c = 4
        cascade = [kern1(c, 10 + j) for j in range(3)]
        conv3 = kern3(c, c, 20)
        fused = fuse_cascade(cascade, conv3)
        x = rnd((2, c, 6, 6), 21)
        want = sequential_branch_oracle(x, cascade, conv3)
        got = conv2d(Tensor4.from_array(x), fused, padding=1).data
        np.testing.assert_allclose(got, want, atol=1e-4)
        # borders carry the cascade bias effect; make sure they're not trivial
        assert np.abs(want[:, :, 0, :]).max() > 0

    def test_channel_break_rejected(self):
        bad = ConvKernel(np.zeros((3, 2, 1, 1), np.float32), np.zeros(3, np.float32))
        with pytest.raises(Exception):
            fuse_cascade([bad], kern3(4, 4, 30))


class TestFuseParallel:
    def test_sum_of_identical_kernels_doubles(self):
        k = kern3(3, 3, 1)
        fused = fuse_parallel_sum([k, k])
        np.testing.assert_allclose(fused.weight, 2 * k.weight, atol=1e-7)
        np.testing.assert_allclose(fused.bias, 2 * k.bias, atol=1e-7)

    def test_sum_with_zero_branch(self):
        k = kern3(3, 3, 2)
        zero = ConvKernel(np.zeros_like(k.weight), np.zeros_like(k.bias))
        fused = fuse_parallel_sum([k, zero])
        np.testing.assert_array_equal(fused.weight, k.weight)
        np.testing.assert_array_equal(fused.bias, k.bias)

    def test_sum_matches_branch_sum_forward(self):
        ks = [kern3(4, 4, 40 + i) for i in range(3)]
        fused = fuse_parallel_sum(ks)
        x = Tensor4.from_array(rnd((1, 4, 7, 7), 44))
        want = sum(conv2d(x, k, 1).data for k in ks)
        got = conv2d(x, fused, 1).data
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_config_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            fuse_parallel_sum([kern3(3, 3, 70), kern3(3, 4, 71)])


class TestFuseBlock:
    def test_random_specs_equivalence(self):
        # randomized block specs: C in 1..8, M in 1..4, cascade depth <= 3
        # (depth == branch index, capped by M-1), dims <= 16
        rng = np.random.default_rng(2024)
        for case in range(100):
            c = int(rng.integers(1, 9))
            m = int(rng.integers(1, 5))
            mb = random_mbconv(c, m, seed=3000 + case)
            fused = fuse_block(mb)
            h = int(rng.integers(3, 17))
            w = int(rng.integers(3, 17))
            x = Tensor4.from_array(
                (rng.random((1, c, h, w)) - 0.5).astype(np.float32))
            multi = mbconv_forward(mb, x).data
            single = conv2d(x, fused, padding=1).data
            gap = np.abs(multi - single).max()
            assert gap <= 1e-4, f"case {case}: gap {gap}"


class TestFuseNetwork:
    def test_m1_net_fuses_to_identical_copy(self):
        cfg = BackboneConfig(channels=8, blocks=2, branches=1, scale=2)
        net = build_backbone(cfg, seed=0)
        fused = fuse_network(net)
        assert fused.config == net.config
        want = named_params(net)
        got = named_params(fused)
        assert [n for n, _ in got] == [n for n, _ in want]
        for (name, a), (_, b) in zip(got, want):
            assert a.tobytes() == b.tobytes(), name

    def test_default_net_equivalence_on_random_inputs(self):
        cfg = BackboneConfig(channels=16, blocks=2, branches=3, scale=2)
        net = build_backbone(cfg, seed=7)
        fused = fuse_network(net)
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(20):
            x = Tensor4.from_array(rng.random((1, 3, 10, 10), np.float32))
            a = sr_forward(net, x).data
            b = sr_forward(fused, x).data
            worst = max(worst, np.abs(a - b).max())
        assert worst <= 1e-4

    def test_fused_param_count_equals_m1_baseline(self):
        cfg = BackboneConfig(channels=16, blocks=2, branches=3, scale=2)
        fused = fuse_network(build_backbone(cfg, seed=1))
        baseline = build_backbone(
            BackboneConfig(channels=16, blocks=2, branches=1, scale=2), seed=1)
        assert param_count(fused) == param_count(baseline)
        assert param_count(build_backbone(cfg, seed=1)) > param_count(fused)

    def test_idempotent(self):
        cfg = BackboneConfig(channels=4, blocks=1, branches=3, scale=2)
        fused = fuse_network(build_backbone(cfg, seed=3))
        again = fuse_network(fused)
        assert again.config == fused.config
        for (na, a), (nb, b) in zip(named_params(fused), named_params(again)):
            assert na == nb
            np.testing.assert_array_equal(a, b)


# Properties of the fold over random shapes; derandomized so that a run
# of the suite always draws the same examples.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


@PROPERTY
@given(depth=st.integers(0, 4), width=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fold_cascade_matches_sequential_chain(depth, width, seed):
    rng = np.random.default_rng(seed)
    # biases bounded away from zero, so a dropped bias term shows
    cascade = [ConvKernel(rng.standard_normal((width, width, 1, 1)),
                          rng.choice([-1.0, 1.0], width)
                          * rng.uniform(0.1, 1.0, width))
               for _ in range(depth)]
    v = rng.standard_normal((width, 7))
    want = v
    for k in cascade:
        want = (np.asarray(k.weight[:, :, 0, 0], np.float64) @ want
                + np.asarray(k.bias, np.float64)[:, None])
    w, b = fold_cascade(cascade, width)
    np.testing.assert_allclose(w @ v + b[:, None], want, rtol=0, atol=1e-10)


@PROPERTY
@given(m=st.integers(1, 4), c=st.integers(1, 5), h=st.integers(1, 9),
       w=st.integers(1, 9), seed=st.integers(0, 10 ** 6))
def test_fuse_block_matches_multibranch_forward(m, c, h, w, seed):
    mb = random_mbconv(c, m, seed)
    x = Tensor4.from_array(rnd((2, c, h, w), seed + 7))
    multi = mbconv_forward(mb, x).data
    single = conv2d(x, fuse_block(mb), padding=1).data
    # the whole output, so the one-pixel border ring is compared too
    assert np.abs(multi - single).max() <= 1e-4
