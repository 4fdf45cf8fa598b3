import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vidsr.fuse import fold_block, fold_branch, fuse_network
from vidsr.network import (
    BackboneConfig,
    build_backbone,
    named_params,
    param_count,
    sr_forward,
)
from vidsr.tensor import Tensor4, _conv2d

from oracles import conv2d_oracle
from test_network import (
    block_forward,
    folded_block_forward,
    identity1,
    kern1,
    kern3,
    random_block,
    random_branches,
    rnd,
)


def sequential_branch_oracle(x, cascade, conv3):
    """Branch forward straight from the border convention, all loops:
    zero-pad by one, run the 1x1 chain of (w, b) pairs, then the 3x3
    pair unpadded."""
    b, c, h, w = x.shape
    padded = np.zeros((b, c, h + 2, w + 2), np.float64)
    padded[:, :, 1:-1, 1:-1] = x
    z = padded
    for k in cascade:
        z = conv2d_oracle(z, *k, padding=0)
    return conv2d_oracle(z, *conv3, padding=0)


class TestFuseCascade:
    def test_empty_cascade_is_exact_copy(self):
        conv3 = kern3(3, 3, 1)
        w, b = fold_branch([], conv3)
        np.testing.assert_array_equal(w, conv3[0])
        np.testing.assert_array_equal(b, conv3[1])

    def test_identity_cascade_is_exact_copy(self):
        conv3 = kern3(4, 4, 2)
        w, b = fold_branch([identity1(4)], conv3)
        np.testing.assert_array_equal(w, conv3[0])
        np.testing.assert_array_equal(b, conv3[1])

    def test_hand_algebra_c1(self):
        one = (np.full((1, 1, 1, 1), 2.0, np.float32), np.ones(1, np.float32))
        conv3 = (np.ones((1, 1, 3, 3), np.float32), np.zeros(1, np.float32))
        w, b = fold_branch([one], conv3)
        np.testing.assert_array_equal(w, np.full((1, 1, 3, 3), 2.0))
        np.testing.assert_array_equal(b, [9.0])
        # behavioural check on random input, against the loop oracle
        x = rnd((1, 1, 5, 5), 3)
        want = sequential_branch_oracle(x, [one], conv3)
        got = conv2d_oracle(x, w, b, padding=1)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_three_kernel_chain_matches_sequential_forward(self):
        c = 4
        cascade = [kern1(c, 10 + j) for j in range(3)]
        conv3 = kern3(c, c, 20)
        w, b = (a.astype(np.float32) for a in fold_branch(cascade, conv3))
        x = rnd((2, c, 6, 6), 21)
        want = sequential_branch_oracle(x, cascade, conv3)
        got = _conv2d(x, w, b, 1)
        np.testing.assert_allclose(got, want, atol=1e-4)
        # borders carry the cascade bias effect; make sure they're not trivial
        assert np.abs(want[:, :, 0, :]).max() > 0


class TestFuseParallel:
    def test_sum_of_identical_kernels_doubles(self):
        k = kern3(3, 3, 1)
        w, b = fold_block([([], k), ([], k)])
        np.testing.assert_allclose(w, 2 * k[0], atol=1e-7)
        np.testing.assert_allclose(b, 2 * k[1], atol=1e-7)

    def test_sum_with_zero_branch(self):
        k = kern3(3, 3, 2)
        zero = (np.zeros_like(k[0]), np.zeros_like(k[1]))
        w, b = fold_block([([], k), ([], zero)])
        np.testing.assert_array_equal(w, k[0])
        np.testing.assert_array_equal(b, k[1])

    def test_sum_matches_branch_sum_forward(self):
        ks = [kern3(4, 4, 40 + i) for i in range(3)]
        w, b = fold_block([([], k) for k in ks])
        x = rnd((1, 4, 7, 7), 44)
        want = sum(_conv2d(x, *k, 1) for k in ks)
        got = _conv2d(x, w, b, 1)
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_keeps_the_dtype_of_its_input(self):
        blocks = [random_branches(c, m, seed=90 + 10 * m + c)
                  for m in (1, 2, 3, 4) for c in (1, 3, 5)]
        for branches in blocks:
            w32, b32 = fold_block(branches)
            w64, b64 = fold_block([([(w.astype(np.float64), b.astype(np.float64))
                                     for w, b in casc],
                                    tuple(a.astype(np.float64) for a in main))
                                   for casc, main in branches])
            assert (w32.dtype, b32.dtype) == (np.float32, np.float32)
            assert (w64.dtype, b64.dtype) == (np.float64, np.float64)
            np.testing.assert_allclose(w64, w32, rtol=0, atol=1e-6)
            np.testing.assert_allclose(b64, b32, rtol=0, atol=1e-6)


class TestFuseBlock:
    def test_random_specs_equivalence(self):
        # randomized block specs: C in 1..8, M in 1..4, cascade depth <= 3
        # (depth == branch index, capped by M-1), dims <= 16
        rng = np.random.default_rng(2024)
        for case in range(100):
            c = int(rng.integers(1, 9))
            m = int(rng.integers(1, 5))
            p = random_block(c, m, seed=3000 + case)
            h = int(rng.integers(3, 17))
            w = int(rng.integers(3, 17))
            x = (rng.random((1, c, h, w)) - 0.5).astype(np.float32)
            multi = block_forward(m, x, p)
            single = folded_block_forward(m, x, p)
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
    cascade = [(rng.standard_normal((width, width, 1, 1)),
                rng.choice([-1.0, 1.0], width) * rng.uniform(0.1, 1.0, width))
               for _ in range(depth)]
    v = rng.standard_normal((width, 7))
    want = v
    for w, b in cascade:
        want = w[:, :, 0, 0] @ want + b[:, None]
    # a centre-tap identity main conv exposes the cascade's affine map
    centre = np.zeros((width, width, 3, 3))
    centre[:, :, 1, 1] = np.eye(width)
    w, b = fold_branch(cascade, (centre, np.zeros(width)))
    assert not np.any(w[:, :, [0, 2], :]) and not np.any(w[:, :, :, [0, 2]])
    np.testing.assert_allclose(w[:, :, 1, 1] @ v + b[:, None], want,
                               rtol=0, atol=1e-10)


@PROPERTY
@given(m=st.integers(1, 4), c=st.integers(1, 5), h=st.integers(1, 9),
       w=st.integers(1, 9), seed=st.integers(0, 10 ** 6))
def test_fuse_block_matches_multibranch_forward(m, c, h, w, seed):
    p = random_block(c, m, seed)
    x = rnd((2, c, h, w), seed + 7)
    multi = block_forward(m, x, p)
    single = folded_block_forward(m, x, p)
    # the whole output, so the one-pixel border ring is compared too
    assert np.abs(multi - single).max() <= 1e-4
