import math
import threading
from fractions import Fraction

import numpy as np
import pytest

from vidsr.metrics import (SSIM_STRIP, _gaussian_window, consistency, cost_report,
                           psnr, ssim)
from vidsr.tensor import ShapeMismatch, Tensor4, bicubic_resize

from oracles import ssim_oracle


def t4(a):
    return Tensor4.from_array(a)


def rnd(shape, seed):
    return np.random.default_rng(seed).random(shape).astype(np.float32)


class TestPsnr:
    def test_identical_is_inf(self):
        a = t4(rnd((1, 3, 8, 8), 0))
        assert psnr(a, a) == math.inf

    def test_uniform_one_step_offset(self):
        a = t4(np.full((1, 3, 16, 16), 128 / 255, np.float32))
        b = t4(np.full((1, 3, 16, 16), 129 / 255, np.float32))
        want = 20 * math.log10(255)
        assert abs(psnr(a, b) - want) <= 1e-3

    def test_mse_001_is_20db(self):
        a = t4(np.zeros((1, 3, 8, 8), np.float32))
        b = t4(np.full((1, 3, 8, 8), 0.1, np.float32))
        assert abs(psnr(a, b) - 20.0) <= 1e-6

    def test_symmetric(self):
        a = t4(rnd((1, 3, 8, 8), 1))
        b = t4(rnd((1, 3, 8, 8), 2))
        assert psnr(a, b) == psnr(b, a)

    def test_constant_offset_closed_form(self):
        c = 0.05
        a = t4(np.full((1, 3, 8, 8), 0.4, np.float32))
        b = t4(np.full((1, 3, 8, 8), 0.4 + c, np.float32))
        assert abs(psnr(a, b) - (-20 * math.log10(c))) <= 1e-3

    def test_dim_mismatch(self):
        with pytest.raises(ShapeMismatch):
            psnr(Tensor4.zeros(1, 3, 4, 4), Tensor4.zeros(1, 3, 4, 5))

    def test_matches_mean_of_squares(self):
        a, b = rnd((2, 3, 67, 131), 12), rnd((2, 3, 67, 131), 13)
        mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
        assert abs(psnr(t4(a), t4(b)) - 10 * math.log10(1 / mse)) <= 1e-9


class TestSsim:
    def test_self_is_one(self):
        a = t4(rnd((1, 3, 16, 16), 3))
        assert abs(ssim(a, a) - 1.0) <= 1e-9

    def test_symmetric(self):
        a = t4(rnd((1, 3, 16, 16), 4))
        b = t4(rnd((1, 3, 16, 16), 5))
        assert abs(ssim(a, b) - ssim(b, a)) <= 1e-12

    def test_shift_invariance(self):
        # contrast/structure factors are exactly shift-invariant; the
        # luminance factor drifts with local mean differences, so the
        # property holds to a small tolerance, not exactly
        a = rnd((1, 3, 16, 16), 6) * 0.5
        b = rnd((1, 3, 16, 16), 7) * 0.5
        base = ssim(t4(a), t4(b))
        shifted = ssim(t4(a + 0.2), t4(b + 0.2))
        assert abs(base - shifted) <= 1e-3

    def test_matches_direct_formula_oracle(self):
        a = rnd((1, 1, 14, 14), 8)
        b = rnd((1, 1, 14, 14), 9)
        g = _gaussian_window()
        window = np.outer(g, g)
        want = ssim_oracle(np.asarray(a[0, 0], np.float64),
                           np.asarray(b[0, 0], np.float64), window)
        assert abs(ssim(t4(a), t4(b)) - want) <= 1e-6

    def test_batch_of_strips_matches_oracle(self):
        # 2 images, 3 channels; 69 output rows are two full strips and a
        # partial one, 70 output columns span two row-filter blocks
        h, w = 2 * SSIM_STRIP + 5 + 10, 80
        a = rnd((2, 3, h, w), 14)
        b = np.clip(a + 0.2 * rnd((2, 3, h, w), 15) - 0.1, 0, 1)
        g = _gaussian_window()
        window = np.outer(g, g)
        want = np.mean([ssim_oracle(a[i].astype(np.float64).mean(axis=0),
                                    b[i].astype(np.float64).mean(axis=0), window)
                        for i in range(2)])
        assert abs(ssim(t4(a), t4(b)) - want) <= 1e-6

    def test_inverted_binary_image_negative(self):
        rng = np.random.default_rng(10)
        a = (rng.random((1, 1, 16, 16)) > 0.5).astype(np.float32)
        inv = 1.0 - a
        score = ssim(t4(a), t4(inv))
        assert score < 0
        g = _gaussian_window()
        window = np.outer(g, g)
        want = ssim_oracle(np.asarray(a[0, 0], np.float64),
                           np.asarray(inv[0, 0], np.float64), window)
        assert abs(score - want) <= 1e-6

    def test_too_small_rejected(self):
        with pytest.raises(ShapeMismatch):
            ssim(Tensor4.zeros(1, 3, 8, 8), Tensor4.zeros(1, 3, 8, 8))

    def test_split_strips_give_the_serial_bytes(self, split_and_serial):
        # a 540x960 frame pair: 17 strips, each running a banded row filter
        # that would split too were it not called from inside a share; a
        # share that split over its own busy pool could wait forever (the
        # test pool refuses that, and the timeout backs it up)
        a = t4(rnd((1, 3, 540, 960), 16))
        b = t4(np.clip(a.data + 0.05 * rnd((1, 3, 540, 960), 17), 0, 1))
        result = []
        t = threading.Thread(target=lambda: result.append(
            split_and_serial(lambda: ssim(a, b))), daemon=True)
        t.start()
        t.join(timeout=120)
        assert not t.is_alive(), "ssim did not finish"
        split, serial, submits = result[0]
        assert split == serial and submits == 2


class TestConsistency:
    def test_self_at_scale_1_is_zero(self):
        lr = t4(rnd((1, 3, 12, 12), 11))
        assert consistency(lr, lr, 1) == 0.0

    def test_bicubic_upscale_near_zero(self):
        i, j = np.mgrid[0:12, 0:12]
        lr = t4(np.stack([(i + j) / 33.0] * 3)[None].astype(np.float32))
        sr = bicubic_resize(lr, 2)
        assert consistency(lr, sr, 2) <= 1e-2

    def test_constant_offset_algebra(self):
        i, j = np.mgrid[0:12, 0:12]
        lr = t4(np.stack([(i * j) / 200.0] * 3)[None].astype(np.float32))
        up = bicubic_resize(lr, 2)
        plain = consistency(lr, up, 2)
        shifted = consistency(lr, t4(up.data + np.float32(0.1)), 2)
        down = bicubic_resize(up, Fraction(1, 2))
        mean_r = float(np.mean(np.asarray(down.data, np.float64) - lr.data))
        # MSE(lr, d+0.1) = MSE(lr, d) + 0.2*mean(d-lr) + 0.01, all times 10
        want = plain + 10.0 * (0.2 * mean_r + 0.01)
        assert abs(shifted - want) <= 1e-6
        assert 0.08 <= shifted <= 0.13

    def test_matches_mean_of_squares(self):
        lr, sr = rnd((1, 3, 40, 70), 16), rnd((1, 3, 80, 140), 17)
        down = bicubic_resize(t4(sr), Fraction(1, 2)).data
        want = 10 * np.mean((lr.astype(np.float64) - down.astype(np.float64)) ** 2)
        assert abs(consistency(t4(lr), t4(sr), 2) - want) <= 1e-9

    def test_dim_mismatch(self):
        with pytest.raises(ShapeMismatch):
            consistency(Tensor4.zeros(1, 3, 4, 4), Tensor4.zeros(1, 3, 6, 6), 2)


class TestCostModel:
    def _files(self, tmp_path, name, size):
        p = tmp_path / name
        p.write_bytes(b"\0" * size)
        return p

    def test_paper_style_line(self, tmp_path):
        # 9 LR chunks totalling 3.62 MB, one 0.27 MB model, negligible prompts
        chunks = []
        per = 3_620_000 // 9
        rem = 3_620_000 - per * 8
        for i in range(9):
            size = rem if i == 8 else per
            chunks.append([self._files(tmp_path, f"lr{i}.bin", size)])
        model = self._files(tmp_path, "model.bin", 270_000)
        rep = cost_report("shared-model+tvp", chunks, [model],
                          prompt_bytes=[0] * 9)
        assert rep.format_line() == "3.62+0.27 (3.89)"
        assert rep.total_bytes == 3_890_000

    def test_scheme_formulas(self, tmp_path):
        n = 9
        model_size = 40_000
        chunk_size = 100_000
        chunks = [[self._files(tmp_path, f"c{i}.bin", chunk_size)] for i in range(n)]
        shared_model = self._files(tmp_path, "m.bin", model_size)
        per_models = [self._files(tmp_path, f"m{i}.bin", model_size) for i in range(n)]
        tvp_sizes = [256] * n

        shared = cost_report("shared-model", chunks, [shared_model])
        per_chunk = cost_report("per-chunk-models", chunks, per_models)
        with_tvp = cost_report("shared-model+tvp", chunks, [shared_model],
                               prompt_bytes=tvp_sizes)

        assert shared.total_bytes == model_size + n * chunk_size
        assert per_chunk.total_bytes == n * (model_size + chunk_size)
        assert with_tvp.total_bytes == model_size + n * (chunk_size + 256)
        # strict ordering and the exact (N-1)*S gap
        assert shared.total_bytes < per_chunk.total_bytes
        assert per_chunk.total_bytes - shared.total_bytes == (n - 1) * model_size

    def test_n1_degenerate(self, tmp_path):
        chunks = [[self._files(tmp_path, "c.bin", 5000)]]
        model = self._files(tmp_path, "m.bin", 700)
        a = cost_report("per-chunk-models", chunks, [model])
        b = cost_report("shared-model", chunks, [model])
        assert a.total_bytes == b.total_bytes

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            cost_report("shared-model", [[tmp_path / "nope.bin"]],
                        [tmp_path / "also-nope.bin"])

    def test_lr_override(self, tmp_path):
        chunks = [[self._files(tmp_path, "c.bin", 999_999)]]
        model = self._files(tmp_path, "m.bin", 1000)
        rep = cost_report("shared-model", chunks, [model],
                          lr_override_bytes=[123])
        assert rep.lr_total == 123
