from fractions import Fraction

import numpy as np
import pytest

from vidsr import tensor as T
from vidsr.autodiff import Tape

from oracles import bicubic_oracle, conv2d_oracle


def t4(a):
    return T.Tensor4.from_array(a)


def kern(w, b=None):
    w = np.asarray(w, np.float32)
    if b is None:
        b = np.zeros(w.shape[0], np.float32)
    return T.ConvKernel(w, b)


class TestConv2d:
    def test_all_ones_tap_counting(self):
        x = t4(np.ones((1, 1, 3, 3)))
        k = kern(np.ones((1, 1, 3, 3)))
        y = T.conv2d(x, k, padding=1).data[0, 0]
        assert y[1, 1] == 9
        assert y[0, 0] == 4 and y[0, 2] == 4 and y[2, 0] == 4 and y[2, 2] == 4
        assert y[0, 1] == 6

    def test_identity_1x1(self):
        rng = np.random.default_rng(1)
        x = t4(rng.random((2, 3, 4, 5)))
        k = kern(np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1))
        y = T.conv2d(x, k, padding=0)
        np.testing.assert_array_equal(y.data, x.data)

    def test_matches_loop_oracle_single(self):
        rng = np.random.default_rng(7)
        x = rng.random((2, 3, 5, 5)).astype(np.float32)
        w = (rng.random((4, 3, 3, 3)) - 0.5).astype(np.float32)
        b = (rng.random(4) - 0.5).astype(np.float32)
        got = T.conv2d(t4(x), T.ConvKernel(w, b), padding=1).data
        want = conv2d_oracle(x, w, b, 1)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_matches_loop_oracle_random_cases(self):
        # 200 random small cases, both kernel sizes, both paddings,
        # with and without per-channel pad values.
        rng = np.random.default_rng(42)
        for case in range(200):
            k = int(rng.choice([1, 3]))
            ci = int(rng.integers(1, 5))
            co = int(rng.integers(1, 5))
            h = int(rng.integers(k, 8))
            w = int(rng.integers(k, 8))
            bsz = int(rng.integers(1, 3))
            pad = 0 if k == 1 else int(rng.choice([0, 1]))
            x = rng.standard_normal((bsz, ci, h, w)).astype(np.float32)
            wt = rng.standard_normal((co, ci, k, k)).astype(np.float32)
            bs = rng.standard_normal(co).astype(np.float32)
            pv = None
            if pad and rng.random() < 0.5:
                pv = rng.standard_normal(ci).astype(np.float32)
            got = T.conv2d(t4(x), T.ConvKernel(wt, bs), pad, pv).data
            want = conv2d_oracle(x, wt, bs, pad, pv)
            np.testing.assert_allclose(got, want, atol=1e-5,
                                       err_msg=f"case {case}")

    def test_k1_is_per_pixel_matmul(self):
        rng = np.random.default_rng(3)
        x = rng.random((1, 4, 6, 6)).astype(np.float32)
        w = rng.standard_normal((5, 4, 1, 1)).astype(np.float32)
        b = rng.standard_normal(5).astype(np.float32)
        got = T.conv2d(t4(x), T.ConvKernel(w, b), 0).data
        m = w[:, :, 0, 0]
        want = np.einsum("oc,bchw->bohw", m, x) + b[None, :, None, None]
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_channel_mismatch_rejected(self):
        x = t4(np.zeros((1, 2, 4, 4)))
        k = kern(np.zeros((1, 3, 3, 3)))
        with pytest.raises(T.ChannelMismatch):
            T.conv2d(x, k, 1)

    def test_even_kernel_rejected(self):
        with pytest.raises(T.ShapeMismatch):
            kern(np.zeros((1, 1, 2, 2)))

    def test_bad_padding_rejected(self):
        x = t4(np.zeros((1, 1, 4, 4)))
        with pytest.raises(T.ShapeMismatch):
            T.conv2d(x, kern(np.zeros((1, 1, 3, 3))), 2)


class TestConvAdjoints:
    """The backward kernels are the exact adjoints of the loop oracle.

    For a linear map A, <gy, A x> = <A^T gy, x>. The conv is linear in x
    at zero bias and zero padding, and linear in w at zero bias with or
    without constant pad values (those act as extra input pixels). B > 1
    with H != W checks that no tap crosses an image or row boundary in
    the batch-flattened layout.
    """

    CASES = [(b, k, p) for b in (1, 3) for k in (1, 3) for p in (0, 1)]

    @staticmethod
    def operands(b, k, p, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((b, 2, 5, 4))
        w = rng.standard_normal((3, 2, k, k))
        gy = rng.standard_normal((b, 3, 5 + 2 * p - k + 1, 4 + 2 * p - k + 1))
        return rng, x, w, gy

    @pytest.mark.parametrize("b,k,p", CASES)
    def test_grad_input_is_adjoint(self, b, k, p):
        _, x, w, gy = self.operands(b, k, p, 10 * b + k + p)
        y = conv2d_oracle(x, w, np.zeros(3), p)
        gx = T._conv2d_grad_input(gy, w, p, x.shape)
        assert gx.dtype == np.float64
        np.testing.assert_allclose(np.vdot(gx, x), np.vdot(gy, y), rtol=1e-12)

    @pytest.mark.parametrize("b,k,p", CASES)
    @pytest.mark.parametrize("with_pad_values", [False, True])
    def test_grad_weight_is_adjoint(self, b, k, p, with_pad_values):
        rng, x, w, gy = self.operands(b, k, p, 20 * b + k + p)
        pv = rng.standard_normal(2) if with_pad_values else None
        y = conv2d_oracle(x, w, np.zeros(3), p, pv)
        gw = T._conv2d_grad_weight(x, gy, k, p, pv)
        assert gw.dtype == np.float64 and gw.shape == w.shape
        np.testing.assert_allclose(np.vdot(gw, w), np.vdot(gy, y), rtol=1e-12)


class TestConvTiles:
    """With CONV_TILE cut to a few grid columns, small float64 cases run
    as several tiles: one-row bands (tile 1), bands of 2 or 3 rows with a
    shorter last band (tile 16), and whole-image tiles whose GEMM spans an
    image boundary (tile 130: two 9x7 padded images, then a last tile of
    one; or all three 7x5 ones at padding 0)."""

    TILES = (1, 16, 130)
    CASES = [(t, p) for t in TILES for p in (0, 1)]

    @staticmethod
    def operands(p, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 2, 7, 5))
        w = rng.standard_normal((4, 2, 3, 3))
        b = rng.standard_normal(4)
        gy = rng.standard_normal((3, 4, 5 + 2 * p, 3 + 2 * p))
        return rng, x, w, b, gy

    @pytest.mark.parametrize("tile,p", CASES)
    @pytest.mark.parametrize("with_pad_values", [False, True])
    def test_forward_matches_oracle(self, monkeypatch, tile, p,
                                    with_pad_values):
        monkeypatch.setattr(T, "CONV_TILE", tile)
        rng, x, w, b, _ = self.operands(p, tile + p)
        pv = rng.standard_normal(2) if with_pad_values and p else None
        if p:
            assert len(T._conv_tiles(3, 9, 7, 7, 3)) > 1
        got = T._conv2d(x, w, b, p, pv)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, conv2d_oracle(x, w, b, p, pv),
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("tile,p", CASES)
    def test_grad_input_is_adjoint(self, monkeypatch, tile, p):
        monkeypatch.setattr(T, "CONV_TILE", tile)
        _, x, w, _, gy = self.operands(p, 2 * tile + p)
        y = conv2d_oracle(x, w, np.zeros(4), p)
        gx = T._conv2d_grad_input(gy, w, p, x.shape)
        np.testing.assert_allclose(np.vdot(gx, x), np.vdot(gy, y), rtol=1e-12)

    @pytest.mark.parametrize("tile,p", CASES)
    @pytest.mark.parametrize("with_pad_values", [False, True])
    def test_grad_weight_is_adjoint(self, monkeypatch, tile, p,
                                    with_pad_values):
        monkeypatch.setattr(T, "CONV_TILE", tile)
        rng, x, w, _, gy = self.operands(p, 3 * tile + p)
        pv = rng.standard_normal(2) if with_pad_values else None
        y = conv2d_oracle(x, w, np.zeros(4), p, pv)
        gw = T._conv2d_grad_weight(x, gy, 3, p, pv)
        np.testing.assert_allclose(np.vdot(gw, w), np.vdot(gy, y), rtol=1e-12)

    @pytest.mark.parametrize("tile", TILES)
    def test_tiles_cover_every_output_row_once(self, monkeypatch, tile):
        monkeypatch.setattr(T, "CONV_TILE", tile)
        rows = [(b, row)
                for b0, nb, r0, r, _, _ in T._conv_tiles(3, 9, 7, 7, 3)
                for b in range(b0, b0 + nb) for row in range(r0, r0 + r)]
        assert sorted(rows) == [(b, r) for b in range(3) for r in range(7)]


class TestPixelShuffle:
    def test_definition_2x2(self):
        x = np.array([1., 2., 3., 4.], np.float32).reshape(1, 4, 1, 1)
        y = T._pixel_shuffle(x, 2)
        np.testing.assert_array_equal(y[0, 0], [[1, 2], [3, 4]])

    def test_r1_identity(self):
        x = np.random.default_rng(0).random((2, 3, 4, 4)).astype(np.float32)
        np.testing.assert_array_equal(T._pixel_shuffle(x, 1), x)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(11)
        x = rng.random((2, 8, 3, 3)).astype(np.float32)
        y = T._pixel_shuffle(x, 2)
        assert y.shape == (2, 2, 6, 6)
        np.testing.assert_array_equal(T._pixel_unshuffle(y, 2), x)
        # bijective: element multiset preserved
        assert sorted(y.ravel()) == sorted(x.ravel())

    def test_indivisible_rejected(self):
        # channels not divisible by r^2 cannot be reshaped; nothing is
        # silently dropped
        with pytest.raises(ValueError):
            T._pixel_shuffle(np.zeros((1, 3, 2, 2), np.float32), 2)


class TestBicubic:
    def test_constant_preserved(self):
        for scale in (2, 3, 4, "1/2"):
            from fractions import Fraction
            s = Fraction(scale) if isinstance(scale, str) else scale
            x = t4(np.full((1, 3, 12, 12), 0.37, np.float32))
            y = T.bicubic_resize(x, s)
            np.testing.assert_allclose(y.data, 0.37, atol=1e-6)

    def test_checkerboard_x2_matches_oracle(self):
        board = np.array([[0.0, 1.0], [1.0, 0.0]], np.float32)
        x = t4(board.reshape(1, 1, 2, 2))
        got = T.bicubic_resize(x, 2).data
        want = bicubic_oracle(x.data, 4, 4)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_random_matches_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.random((1, 2, 6, 8)).astype(np.float32)
        for s, oh, ow in ((2, 12, 16), (3, 18, 24)):
            got = T.bicubic_resize(t4(x), s).data
            want = bicubic_oracle(x, oh, ow)
            np.testing.assert_allclose(got, want, atol=1e-5)
        from fractions import Fraction
        got = T.bicubic_resize(t4(x), Fraction(1, 2)).data
        want = bicubic_oracle(x, 3, 4)
        np.testing.assert_allclose(got, want, atol=1e-5)

    # sizes whose outputs span several BAND_BLOCK row blocks on both axes
    MULTI_BLOCK = [((70, 150), 2), ((140, 150), Fraction(1, 2)),
                   ((30, 45), 3), ((195, 198), Fraction(1, 3))]

    @pytest.mark.parametrize("hw,scale", MULTI_BLOCK)
    def test_multi_block_matches_oracle(self, hw, scale):
        x = np.random.default_rng(6).random((1, 1, *hw)).astype(np.float32)
        oh, ow = int(hw[0] * scale), int(hw[1] * scale)
        assert min(oh, ow) > T.BAND_BLOCK
        got = T.bicubic_resize(t4(x), scale).data
        np.testing.assert_allclose(got, bicubic_oracle(x, oh, ow), atol=1e-5)

    @pytest.mark.parametrize("hw,scale", MULTI_BLOCK)
    def test_adjoint_identity(self, hw, scale):
        # <Mx, u> = <x, M^T u> in float64, M the resize operator
        rng = np.random.default_rng(7)
        oh, ow = int(hw[0] * scale), int(hw[1] * scale)
        x = rng.standard_normal((2, 3, *hw))
        u = rng.standard_normal((2, 3, oh, ow))
        mx = T._bicubic_resize(x, oh, ow)
        mtu = T._bicubic_resize(u, *hw, transpose=True)
        assert mx.dtype == mtu.dtype == np.float64
        lhs, rhs = float(np.vdot(mx, u)), float(np.vdot(x, mtu))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_ramp_up_down_roundtrip_bound(self):
        # Smooth diagonal ramp over [0,1]; x2 then x1/2 is not exact but
        # stays within 0.02 of the value range (calibrated bound).
        from fractions import Fraction
        i, j = np.mgrid[0:16, 0:16]
        ramp = ((i + j) / 30.0).astype(np.float32).reshape(1, 1, 16, 16)
        up = T.bicubic_resize(t4(ramp), 2)
        down = T.bicubic_resize(up, Fraction(1, 2))
        err = np.abs(down.data - ramp).max()
        assert err <= 0.02

    def test_linearity(self):
        rng = np.random.default_rng(9)
        x = rng.random((1, 1, 8, 8)).astype(np.float32)
        y = rng.random((1, 1, 8, 8)).astype(np.float32)
        a, b = 0.7, -1.3
        lhs = T.bicubic_resize(t4(a * x + b * y), 2).data
        rhs = a * T.bicubic_resize(t4(x), 2).data + b * T.bicubic_resize(t4(y), 2).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-5)

    def test_non_integral_rejected(self):
        from fractions import Fraction
        with pytest.raises(T.ShapeMismatch):
            T.bicubic_resize(t4(np.zeros((1, 1, 5, 5))), Fraction(1, 2))

    def test_unsupported_scale_rejected(self):
        with pytest.raises(T.ShapeMismatch):
            T.bicubic_resize(t4(np.zeros((1, 1, 4, 4))), 5)


class TestElementwise:
    """Elementwise arithmetic lives on the tape (and as plain numpy in
    EagerOps); these check the forward values the tape records."""

    def test_add_zero(self):
        t = Tape()
        x = t.leaf(np.random.default_rng(2).random((1, 2, 3, 3)))
        z = t.leaf(np.zeros((1, 2, 3, 3)))
        np.testing.assert_array_equal(t.add(x, z).value, x.value)

    def test_relu(self):
        x = np.array([-1.0, 2.0], np.float32).reshape(1, 1, 1, 2)
        np.testing.assert_array_equal(T._relu(x).ravel(), [0, 2])

    def test_clamp01(self):
        x = t4(np.array([-0.5, 0.3, 1.7]).reshape(1, 1, 1, 3))
        np.testing.assert_allclose(T.clamp01(x).data.ravel(), [0, 0.3, 1], atol=1e-7)

    def test_sub_mul(self):
        t = Tape()
        x = t.leaf(np.full((1, 1, 2, 2), 3.0))
        y = t.leaf(np.full((1, 1, 2, 2), 1.0))
        np.testing.assert_array_equal(t.sub(x, y).value, np.full((1, 1, 2, 2), 2.0))
        np.testing.assert_array_equal(t.mul_scalar(x, 2.0).value, np.full((1, 1, 2, 2), 6.0))

    def test_dim_mismatch_rejected(self):
        t = Tape()
        with pytest.raises(T.ShapeMismatch):
            t.add(t.leaf(np.zeros((1, 1, 2, 2))), t.leaf(np.zeros((1, 1, 2, 3))))


class TestTensor4:
    def test_immutable(self):
        x = T.Tensor4.zeros(1, 1, 2, 2)
        with pytest.raises(ValueError):
            x.data[0, 0, 0, 0] = 1.0

    def test_finite_after_ops(self):
        rng = np.random.default_rng(4)
        x = t4(rng.standard_normal((1, 4, 6, 6)))
        k = T.ConvKernel(rng.standard_normal((4, 4, 3, 3)).astype(np.float32),
                         rng.standard_normal(4).astype(np.float32))
        y = T.conv2d(x, k, 1)
        assert np.isfinite(y.data).all()
