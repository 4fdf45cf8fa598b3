import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from vidsr import metrics as M
from vidsr import tensor as T
from vidsr.autodiff import Tape

from conftest import CountingPool
from oracles import bicubic_oracle, conv2d_oracle


def t4(a):
    return T.Tensor4.from_array(a)


def kern(w, b=None):
    """A float32 (weight, bias) pair; the bias defaults to zeros."""
    w = np.asarray(w, np.float32)
    if b is None:
        b = np.zeros(w.shape[0], np.float32)
    return w, np.asarray(b, np.float32)


class TestConv2d:
    def test_all_ones_tap_counting(self):
        x = np.ones((1, 1, 3, 3), np.float32)
        y = T._conv2d(x, *kern(np.ones((1, 1, 3, 3))), 1)[0, 0]
        assert y[1, 1] == 9
        assert y[0, 0] == 4 and y[0, 2] == 4 and y[2, 0] == 4 and y[2, 2] == 4
        assert y[0, 1] == 6

    def test_identity_1x1(self):
        rng = np.random.default_rng(1)
        x = rng.random((2, 3, 4, 5)).astype(np.float32)
        y = T._conv2d(x, *kern(np.eye(3).reshape(3, 3, 1, 1)), 0)
        np.testing.assert_array_equal(y, x)

    def test_matches_loop_oracle_single(self):
        rng = np.random.default_rng(7)
        x = rng.random((2, 3, 5, 5)).astype(np.float32)
        w = (rng.random((4, 3, 3, 3)) - 0.5).astype(np.float32)
        b = (rng.random(4) - 0.5).astype(np.float32)
        got = T._conv2d(x, w, b, 1)
        want = conv2d_oracle(x, w, b, 1)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_matches_loop_oracle_random_cases(self):
        # 200 random small cases, both kernel sizes, both paddings
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
            got = T._conv2d(x, wt, bs, pad)
            want = conv2d_oracle(x, wt, bs, pad)
            np.testing.assert_allclose(got, want, atol=1e-5,
                                       err_msg=f"case {case}")

    def test_k1_is_per_pixel_matmul(self):
        rng = np.random.default_rng(3)
        x = rng.random((1, 4, 6, 6)).astype(np.float32)
        w = rng.standard_normal((5, 4, 1, 1)).astype(np.float32)
        b = rng.standard_normal(5).astype(np.float32)
        got = T._conv2d(x, w, b, 0)
        m = w[:, :, 0, 0]
        want = np.einsum("oc,bchw->bohw", m, x) + b[None, :, None, None]
        np.testing.assert_allclose(got, want, atol=1e-5)


class TestConvAdjoints:
    """The backward kernels are the exact adjoints of the loop oracle.

    For a linear map A, <gy, A x> = <A^T gy, x>. The conv is linear in x
    at zero bias and zero padding, and linear in w at zero bias. B > 1
    with H != W checks that no tap crosses an image or row boundary in
    the batch-flattened layout. The ``pre_padded`` cases run on the input
    zero-padded by ``_pad_const`` at padding 0, as a block's cascade
    input is, against the oracle at padding p: the ring the conv pads
    itself and the ring written into the input must agree.
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
    @pytest.mark.parametrize("pre_padded", [False, True])
    def test_grad_weight_is_adjoint(self, b, k, p, pre_padded):
        _, x, w, gy = self.operands(b, k, p, 20 * b + k + p)
        y = conv2d_oracle(x, w, np.zeros(3), p)
        gw = (T._conv2d_grad_weight(T._pad_const(x, p), gy, k, 0) if pre_padded
              else T._conv2d_grad_weight(x, gy, k, p))
        assert gw.dtype == np.float64 and gw.shape == w.shape
        np.testing.assert_allclose(np.vdot(gw, w), np.vdot(gy, y), rtol=1e-12)


class TestConvTiles:
    """With CONV_TILE cut to a few grid columns, small float64 cases run
    as several tiles: one-row bands (tile 1), bands of 2 or 3 rows with a
    shorter last band (tile 16), and whole-image tiles whose GEMM spans an
    image boundary (tile 130: two 9x7 padded images, then a last tile of
    one; or all three 7x5 ones at padding 0). The ``pre_padded`` cases
    run on the input zero-padded by ``_pad_const`` at padding 0, which
    tiles the same grid."""

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
    @pytest.mark.parametrize("pre_padded", [False, True])
    def test_forward_matches_oracle(self, monkeypatch, tile, p, pre_padded):
        monkeypatch.setattr(T, "CONV_TILE", tile)
        _, x, w, b, _ = self.operands(p, tile + p)
        if p:
            assert len(T._conv_tiles(3, 9, 7, 7, 3)) > 1
        got = (T._conv2d(T._pad_const(x, p), w, b, 0) if pre_padded
               else T._conv2d(x, w, b, p))
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, conv2d_oracle(x, w, b, p),
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("tile,p", CASES)
    def test_grad_input_is_adjoint(self, monkeypatch, tile, p):
        monkeypatch.setattr(T, "CONV_TILE", tile)
        _, x, w, _, gy = self.operands(p, 2 * tile + p)
        y = conv2d_oracle(x, w, np.zeros(4), p)
        gx = T._conv2d_grad_input(gy, w, p, x.shape)
        np.testing.assert_allclose(np.vdot(gx, x), np.vdot(gy, y), rtol=1e-12)

    @pytest.mark.parametrize("tile,p", CASES)
    @pytest.mark.parametrize("pre_padded", [False, True])
    def test_grad_weight_is_adjoint(self, monkeypatch, tile, p, pre_padded):
        monkeypatch.setattr(T, "CONV_TILE", tile)
        _, x, w, _, gy = self.operands(p, 3 * tile + p)
        y = conv2d_oracle(x, w, np.zeros(4), p)
        gw = (T._conv2d_grad_weight(T._pad_const(x, p), gy, 3, 0) if pre_padded
              else T._conv2d_grad_weight(x, gy, 3, p))
        np.testing.assert_allclose(np.vdot(gw, w), np.vdot(gy, y), rtol=1e-12)

    @pytest.mark.parametrize("tile", TILES)
    def test_tiles_cover_every_output_row_once(self, monkeypatch, tile):
        monkeypatch.setattr(T, "CONV_TILE", tile)
        rows = [(b, row)
                for b0, nb, r0, r, _, _ in T._conv_tiles(3, 9, 7, 7, 3)
                for b in range(b0, b0 + nb) for row in range(r0, r0 + r)]
        assert sorted(rows) == [(b, r) for b in range(3) for r in range(7)]


class TestConvEpilogue:
    """Each conv epilogue is bit-equal to the unfused ops it replaces, at
    the TestConvTiles tile sizes, in float32 and float64."""

    CASES = [(t, dt, p) for t in TestConvTiles.TILES
             for dt in (np.float32, np.float64) for p in (0, 1)]

    @staticmethod
    def operands(dt, p, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 2, 7, 5)).astype(dt)
        w = rng.standard_normal((8, 2, 3, 3)).astype(dt)
        b = rng.standard_normal(8).astype(dt)
        out = (3, 8, 5 + 2 * p, 3 + 2 * p)
        return rng, x, w, b, out

    @pytest.mark.parametrize("tile,dt,p", CASES)
    def test_relu(self, monkeypatch, tile, dt, p):
        monkeypatch.setattr(T, "CONV_TILE", tile)
        _, x, w, b, _ = self.operands(dt, p, tile + p)
        got = T._conv2d(x, w, b, p, relu=True)
        want = T._relu(T._conv2d(x, w, b, p))
        assert got.dtype == dt and got.tobytes() == want.tobytes()
        assert (got == 0).any() and (got > 0).any()

    @pytest.mark.parametrize("tile,dt,p", CASES)
    def test_residual(self, monkeypatch, tile, dt, p):
        monkeypatch.setattr(T, "CONV_TILE", tile)
        rng, x, w, b, out = self.operands(dt, p, 2 * tile + p)
        r = rng.standard_normal(out).astype(dt)
        got = T._conv2d(x, w, b, p, residual=r)
        assert got.dtype == dt
        assert got.tobytes() == (T._conv2d(x, w, b, p) + r).tobytes()

    @pytest.mark.parametrize("tile,dt,p", CASES)
    def test_shuffle_and_residual(self, monkeypatch, tile, dt, p):
        monkeypatch.setattr(T, "CONV_TILE", tile)
        rng, x, w, b, (n, _, ho, wo) = self.operands(dt, p, 3 * tile + p)
        s = rng.standard_normal((n, 2, 2 * ho, 2 * wo)).astype(dt)
        y = T._pixel_shuffle(T._conv2d(x, w, b, p), 2)
        got = T._conv2d(x, w, b, p, shuffle=2, residual=s)
        assert got.dtype == dt and got.tobytes() == (y + s).tobytes()
        assert T._conv2d(x, w, b, p, shuffle=2).tobytes() == y.tobytes()

    @pytest.mark.parametrize("epilogue", [
        dict(relu=True), dict(shuffle=2),
        dict(residual=np.zeros((1, 4, 3, 3)))], ids=["relu", "shuffle", "residual"])
    def test_1x1_matmul_path_rejects_epilogue(self, epilogue):
        x = np.zeros((1, 2, 3, 3))
        with pytest.raises(ValueError, match="1x1"):
            T._conv2d(x, np.zeros((4, 2, 1, 1)), np.zeros(4), 0, **epilogue)

    def test_relu_with_residual_rejected(self):
        # the tape's backward masks by the conv output, which a residual
        # would have moved off the relu's own output
        x = np.zeros((1, 2, 3, 3))
        with pytest.raises(ValueError, match="relu and residual"):
            T._conv2d(x, np.zeros((2, 2, 3, 3)), np.zeros(2), 1, relu=True,
                      residual=x)

    def test_residual_shape_checked(self):
        x = np.zeros((2, 2, 3, 3))
        with pytest.raises(T.ShapeMismatch):   # would broadcast over B
            T._conv2d(x, np.zeros((2, 2, 3, 3)), np.zeros(2), 1,
                      residual=np.zeros((1, 2, 3, 3)))


class TestWorkers:
    """Kernels split over workers give the bytes they give in turn, and
    calls too small to gain from the pool stay in turn."""

    @staticmethod
    def arrays(seed, *shapes, dt=np.float32):
        rng = np.random.default_rng(seed)
        return [rng.standard_normal(s).astype(dt) for s in shapes]

    def test_conv_on_frame_row_bands(self, split_and_serial):
        x, w, b = self.arrays(0, (1, 8, 130, 200), (8, 8, 3, 3), (8,))
        tiles = T._conv_tiles(1, 132, 130, 202, 3)
        assert len(tiles) >= 2 and all(nb == 1 for _, nb, *_ in tiles)
        split, serial, submits = split_and_serial(
            lambda: T._conv2d(x, w, b, 1, relu=True))
        assert split == serial and submits == 2
        split, serial, submits = split_and_serial(
            lambda: T._conv2d_grad_input(x, w, 1, x.shape))
        assert split == serial and submits == 2

    def test_splits_are_sized_by_work_at_many_workers(self, monkeypatch):
        # 64 workers: tiles keep their size, and a call gets one share
        # per CONV_TILE of work, however many workers there are
        tile = T.CONV_TILE
        for workers in (1, 2, 64):
            monkeypatch.setattr(T, "WORKERS", workers)
            tiles = T._conv_tiles(1, 272, 270, 482, 3)   # the 270x480 frame
            assert len(tiles) == 11
            assert sum(r for _, _, _, r, _, _ in tiles) == 270
            assert [T._parts(n) for n in (1, 2 * tile - 1, 2 * tile, 100 * tile)] \
                == [1, 1, min(2, workers), min(100, workers)]
        pool = CountingPool(2)
        monkeypatch.setattr(T, "_POOL", pool)
        hr, sr = self.arrays(6, (1, 3, 540, 960), (1, 3, 540, 960))
        T._bicubic_resize(hr, 270, 480)
        # each pass: one share per CONV_TILE of the smaller of its input
        # and output, and at most one per piece: the 8 band blocks across,
        # then 5 band blocks times 3 image planes down
        assert pool.submits == (min(3 * 540 * 480 // tile, 8) - 1) \
            + (min(3 * 270 * 480 // tile, 5 * 3) - 1)
        before = pool.submits
        M.ssim(T.Tensor4(hr), T.Tensor4(sr))
        strips = -(-530 // M.SSIM_STRIP)
        assert pool.submits - before == min(strips, 530 * 950 // tile) - 1
        pool.shutdown()

    def test_conv_on_two_whole_image_tiles(self, split_and_serial):
        # the training patches: 32 of 24x24 at 16 channels
        x, w, b, r = self.arrays(1, (32, 16, 24, 24), (16, 16, 3, 3), (16,),
                                 (32, 4, 48, 48))
        assert [nb for _, nb, *_ in T._conv_tiles(32, 26, 24, 26, 3)] == [16, 16]
        split, serial, submits = split_and_serial(
            lambda: T._conv2d(x, w, b, 1, shuffle=2, residual=r))
        assert split == serial and submits == 1

    def test_1x1_path(self, split_and_serial):
        x, w, b, gy = self.arrays(2, (32, 16, 26, 26), (8, 16, 1, 1), (8,),
                                  (32, 8, 26, 26))
        for fn in (lambda: T._conv2d(x, w, b, 0),
                   lambda: T._conv2d_grad_input(gy, w, 0, x.shape),
                   lambda: T._conv2d_grad_weight(x, gy, 1, 0)):
            split, serial, submits = split_and_serial(fn)
            assert split == serial and submits == 1

    @pytest.mark.parametrize("tile,shape,groups", [
        (1, (3, 2, 7, 5), 3), (16, (3, 2, 7, 5), 3),
        (12288, (32, 16, 24, 24), 2)])
    def test_grad_weight(self, monkeypatch, split_and_serial, tile, shape,
                         groups):
        monkeypatch.setattr(T, "CONV_TILE", tile)
        b, _, h, w = shape
        x, gy = self.arrays(3, shape, (b, 4, h, w), dt=np.float64)
        assert len(T._image_groups(b, h + 2, h, w + 2, 3)) == groups
        split, serial, submits = split_and_serial(
            lambda: T._conv2d_grad_weight(x, gy, 3, 1))
        assert split == serial and submits == groups - 1

    def test_bicubic_at_540x960(self, split_and_serial):
        hr, lr = self.arrays(4, (1, 3, 540, 960), (1, 3, 270, 480))
        for fn in (lambda: T._bicubic_resize(hr, 270, 480),
                   lambda: T._bicubic_resize(lr, 540, 960),
                   lambda: T._bicubic_resize(hr, 270, 480, transpose=True)):
            split, serial, submits = split_and_serial(fn)
            assert split == serial and submits == 4   # 2 per pass

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_bicubic_bytes_do_not_follow_workers(self, monkeypatch, workers):
        # 270x480 -> 135x240 (make_lr of a 270x480 frame): cut into one
        # column range per worker, 1 ulp moved in 2,424 of 97,200 values
        (x,) = self.arrays(9, (1, 3, 270, 480))
        with monkeypatch.context() as m:
            m.setattr(T, "WORKERS", 1)
            m.setattr(T, "_POOL", None)
            serial = T._bicubic_resize(x, 135, 240)
        pool = CountingPool(workers - 1)
        monkeypatch.setattr(T, "WORKERS", workers)
        monkeypatch.setattr(T, "_POOL", pool)
        split = T._bicubic_resize(x, 135, 240)
        pool.shutdown()
        assert pool.submits > 0 and split.tobytes() == serial.tobytes()

    @pytest.mark.parametrize("call", [
        # make_lr on a training frame, and the 48x48 eval frame's skip
        lambda a: T._bicubic_resize(a, 48, 48),
        lambda a: T._bicubic_resize(a[..., :48, :48], 96, 96),
        # a conv on the 48x48 eval frame, and a 1x1 conv at batch 1
        lambda a: T._conv2d(a[:, :, :48, :48], np.ones((4, 3, 3, 3), a.dtype),
                            None, 1),
        lambda a: T._conv2d(a, np.ones((4, 3, 1, 1), a.dtype), None, 0),
    ], ids=["make-lr-96", "skip-48", "conv-48", "1x1-batch-1"])
    def test_small_calls_stay_in_turn(self, split_and_serial, call):
        (a,) = self.arrays(5, (1, 3, 96, 96))
        split, serial, submits = split_and_serial(lambda: call(a))
        assert split == serial and submits == 0

    def test_tiled_grad_weight_matches_oracle(self, monkeypatch,
                                              split_and_serial):
        # the groups' partial sums against <gy, conv(x, e)> for each unit
        # kernel e, at a tile that makes 3 groups of 2, 2 and 1 images
        rng = np.random.default_rng(8)
        for p in (0, 1):
            x = rng.standard_normal((5, 2, 7, 5))
            gy = rng.standard_normal((5, 4, 5 + 2 * p, 3 + 2 * p))
            hp, wp = 7 + 2 * p, 5 + 2 * p
            monkeypatch.setattr(T, "CONV_TILE", 2 * hp * wp)
            assert T._image_groups(5, hp, hp - 2, wp, 3) == [(0, 2), (2, 2), (4, 1)]
            want = np.empty((4, 2, 3, 3))
            for ch, u, v in np.ndindex(2, 3, 3):
                e = np.zeros((1, 2, 3, 3))
                e[0, ch, u, v] = 1
                y = conv2d_oracle(x, e, np.zeros(1), p)[:, 0]
                want[:, ch, u, v] = np.einsum("bohw,bhw->o", gy, y)
            got = T._conv2d_grad_weight(x, gy, 3, p)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
            split, serial, submits = split_and_serial(
                lambda: T._conv2d_grad_weight(x, gy, 3, p))
            assert split == serial and submits == 2

    def test_pool_matches_workers(self):
        if T._POOL is None:
            assert T.WORKERS == 1
        else:
            assert T._POOL._max_workers == T.WORKERS - 1

    def test_start_sizes_pool_and_sets_blas_to_one_thread(self, monkeypatch):
        sets = []
        monkeypatch.setattr(T, "_openblas", lambda: (lambda: 4, sets.append))
        workers, pool = T._start_workers()
        pool.shutdown()
        assert workers == 4 and pool._max_workers == 3 and sets == [1]

    @pytest.mark.skipif(T._openblas() is None, reason="no OpenBLAS symbols")
    def test_import_alone_sets_blas_to_one_thread(self):
        # BLAS kept its threads until the first split, so GEMMs that ran
        # before it, or in a process that never split, followed them
        code = ("import vidsr.tensor as T; "
                "print(T.WORKERS, T.blas_threads(), T._POOL is not None)")
        env = {**os.environ, "PYTHONPATH": str(Path(T.__file__).parents[1])}
        read = [subprocess.run([sys.executable, "-c", code], check=True,
                               env=env | {"OPENBLAS_NUM_THREADS": threads},
                               capture_output=True, text=True).stdout.split()
                for threads in ("2", "1")]
        assert read == [["2", "1", "True"], ["1", "1", "False"]]

    def test_without_blas_symbols_there_is_no_pool(self, monkeypatch):
        before = T.blas_threads()

        class NoSymbols:
            def __init__(self, path):
                pass

        monkeypatch.setattr(T.ctypes, "CDLL", NoSymbols)
        assert T._openblas.__wrapped__() is None
        monkeypatch.setattr(T, "_openblas", T._openblas.__wrapped__)
        assert T._start_workers() == (1, None)
        monkeypatch.undo()
        assert T.blas_threads() == before


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
    """Elementwise arithmetic lives on the tape (the forward runs its ReLUs
    and adds as conv epilogues); these check the forward values the tape
    records."""

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
        w = rng.standard_normal((4, 4, 3, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        y = T._conv2d(x.data, w, b, 1)
        assert np.isfinite(y).all()
