import math

import numpy as np
import pytest

from vidsr.model_io import SynthConfig, generate_synthetic_video
from vidsr.network import BackboneConfig, build_backbone, named_params
from vidsr.pipeline import (
    ChunkedVideo,
    PatchSampler,
    TrainConfig,
    TrainDiverged,
    chunk_boundaries,
    chunk_video,
    default_prompts,
    eval_frames,
    make_lr,
    train,
    train_baseline_per_chunk,
    train_video,
)

# chi-square 0.99 quantiles (df -> value), standard table
CHI2_99 = {7: 18.475}


def tiny_video(frames=6, size=32, seed=0, chunks=3, scale=2):
    hr = generate_synthetic_video(SynthConfig(frames=frames, height=size,
                                              width=size, seed=seed))
    return make_lr(chunk_video(hr, chunks), scale)


def tiny_config(**kw):
    base = dict(scale=2, chunks=3, iters=5, batch=4, patch=16, tvp_size=8,
                lr_rate=1e-3, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestChunking:
    def test_one_frame_per_chunk(self):
        assert chunk_boundaries(9, 9) == [(k, k + 1) for k in range(9)]

    def test_floor_arithmetic(self):
        bounds = chunk_boundaries(10, 3)
        sizes = [hi - lo for lo, hi in bounds]
        assert sizes == [3, 3, 4]

    def test_single_chunk(self):
        assert chunk_boundaries(7, 1) == [(0, 7)]

    def test_partition_property(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            f = int(rng.integers(1, 200))
            n = int(rng.integers(1, f + 1))
            bounds = chunk_boundaries(f, n)
            assert bounds[0][0] == 0 and bounds[-1][1] == f
            for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
                assert hi == lo
            assert all(hi > lo for lo, hi in bounds)

    def test_too_many_chunks_rejected(self):
        with pytest.raises(ValueError):
            chunk_boundaries(3, 4)


class TestMakeLr:
    def test_1080p_x4_gives_270x480(self):
        frame = np.zeros((3, 1080, 1920), np.float32)
        video = make_lr(chunk_video([frame], 1), 4)
        assert video.lr[0].shape == (3, 270, 480)

    def test_constant_frame_gives_constant_lr(self):
        frame = np.full((3, 24, 24), 0.4, np.float32)
        video = make_lr(chunk_video([frame], 1), 2)
        np.testing.assert_allclose(video.lr[0], 0.4, atol=1e-6)

    def test_crops_to_scale_multiple(self):
        frame = np.zeros((3, 33, 35), np.float32)
        video = make_lr(chunk_video([frame], 1), 2)
        assert video.hr[0].shape == (3, 32, 34)
        assert video.lr[0].shape == (3, 16, 17)


class TestSampler:
    def _sampler(self, seed=0, strategy="loss"):
        hr = generate_synthetic_video(SynthConfig(frames=2, height=96,
                                                  width=96, seed=3))
        video = make_lr(chunk_video(hr, 2), 2)
        cfg = TrainConfig(scale=2, chunks=2, patch=48, sampler=strategy,
                          seed=seed)
        return PatchSampler(video, cfg, np.random.default_rng(seed)), video

    def test_deterministic_for_fixed_seed(self):
        a, _ = self._sampler(seed=11)
        b, _ = self._sampler(seed=11)
        assert a.sample(32) == b.sample(32)

    def test_positions_aligned_and_in_bounds(self):
        s, video = self._sampler()
        for ref in s.sample(200):
            assert ref.y % 2 == 0 and ref.x % 2 == 0
            assert 0 <= ref.y <= 96 - 48
            assert 0 <= ref.x <= 96 - 48
            assert ref.chunk == video.chunk_of(ref.frame)

    def test_flat_ema_samples_uniformly(self):
        s, _ = self._sampler(seed=5)
        assert s.ema.size == 8  # 2 frames x 2x2 grid
        refs = s.sample(10000)
        counts = np.zeros(8)
        for r in refs:
            cell = r.frame * 4 + (r.y // 48) * 2 + (r.x // 48)
            counts[cell] += 1
        expected = 10000 / 8
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_99[7]

    def test_hot_cell_drawn_proportionally(self):
        s, _ = self._sampler(seed=6)
        s.ema[:] = 1.0
        s.ema[1, 1, 1] = 10.0
        w = s.cell_weights()
        p_hot = w[7] / w.sum()
        refs = s.sample(10000)
        hot = sum(1 for r in refs
                  if (r.frame, r.y // 48, r.x // 48) == (1, 1, 1))
        sigma = math.sqrt(10000 * p_hot * (1 - p_hot))
        assert abs(hot - 10000 * p_hot) <= 3 * sigma
        cold_avg = (10000 - hot) / 7
        assert hot > 5 * cold_avg

    def test_floor_keeps_every_cell_alive(self):
        s, _ = self._sampler(seed=7)
        s.ema[:] = 0.0
        s.ema[0, 0, 0] = 100.0
        w = s.cell_weights()
        assert (w > 0).all()
        probs = w / w.sum()
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_uniform_strategy_ignores_ema(self):
        s, _ = self._sampler(seed=8, strategy="uniform")
        s.ema[:] = 0.0
        s.ema[0, 0, 0] = 1e9
        refs = s.sample(2000)
        hot = sum(1 for r in refs
                  if (r.frame, r.y // 48, r.x // 48) == (0, 0, 0))
        assert hot < 2000 * 0.25  # nowhere near the EMA-weighted share


class TestTraining:
    def test_zero_iterations_leaves_params_unchanged(self):
        video = tiny_video()
        net = build_backbone(BackboneConfig(channels=4, blocks=1, branches=2,
                                            scale=2), seed=0)
        before = {k: v.copy() for k, v in named_params(net)}
        res = train(net, default_prompts(video, 8), video,
                    tiny_config(iters=0))
        for name, arr in named_params(res.net):
            np.testing.assert_array_equal(arr, before[name])

    def test_loss_decreases_median_of_three_seeds(self):
        wins = 0
        for seed in (0, 1, 2):
            video = tiny_video(seed=seed)
            net = build_backbone(BackboneConfig(channels=4, blocks=1,
                                                branches=2, scale=2), seed=seed)
            res = train(net, default_prompts(video, 8), video,
                        tiny_config(iters=60, seed=seed))
            if res.final_loss < res.first_loss:
                wins += 1
        assert wins >= 2

    def test_bit_identical_reruns(self):
        def run():
            video = tiny_video(seed=4)
            net = build_backbone(BackboneConfig(channels=4, blocks=1,
                                                branches=3, scale=2), seed=4)
            res = train(net, default_prompts(video, 8), video,
                        tiny_config(iters=12, seed=4))
            return res

        a, b = run(), run()
        for (na, pa), (nb, pb) in zip(named_params(a.net), named_params(b.net)):
            assert na == nb
            assert pa.tobytes() == pb.tobytes()
        for p, q in zip(a.prompts, b.prompts):
            assert p.values.tobytes() == q.values.tobytes()

    def test_input_frames_never_mutated(self):
        video = tiny_video(seed=5)
        hr_before = [f.copy() for f in video.hr]
        lr_before = [f.copy() for f in video.lr]
        net = build_backbone(BackboneConfig(channels=4, blocks=1, branches=2,
                                            scale=2), seed=5)
        train(net, default_prompts(video, 8), video, tiny_config(iters=8))
        for a, b in zip(video.hr, hr_before):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(video.lr, lr_before):
            np.testing.assert_array_equal(a, b)

    def test_zero_prompts_match_disabled_prompts_at_start(self):
        video = tiny_video(seed=6)
        net = build_backbone(BackboneConfig(channels=4, blocks=1, branches=2,
                                            scale=2), seed=6)
        with_p = train(net, default_prompts(video, 8), video,
                       tiny_config(iters=1, seed=9))
        without = train(net, [], video, tiny_config(iters=1, seed=9, tvp_size=0))
        assert with_p.first_loss == without.first_loss

    def test_prompts_move_during_training(self):
        video = tiny_video(seed=7)
        net = build_backbone(BackboneConfig(channels=4, blocks=1, branches=2,
                                            scale=2), seed=7)
        res = train(net, default_prompts(video, 8), video,
                    tiny_config(iters=25, tvp_size=8))
        assert any(np.abs(p.values).max() > 0 for p in res.prompts)

    def test_divergence_aborts_with_diagnostics(self):
        video = tiny_video(seed=8)
        net = build_backbone(BackboneConfig(channels=4, blocks=1, branches=2,
                                            scale=2), seed=8)
        cfg = tiny_config(iters=400, lr_rate=1e18, tvp_size=0)
        with pytest.raises(TrainDiverged, match="lr=") as info, \
                np.errstate(all="ignore"):
            train(net, [], video, cfg)
        e = info.value
        assert e.lr == 1e18 and e.config == cfg.snapshot()
        assert len(e.losses) == min(e.iteration + 1, 8)
        assert not np.isfinite(e.losses[-1])
        assert sorted(e.grad_norms) == sorted(n for n, _ in named_params(net))

    def test_log_records_epoch_loss_psnr(self):
        video = tiny_video(seed=9)
        net = build_backbone(BackboneConfig(channels=4, blocks=1, branches=2,
                                            scale=2), seed=9)
        res = train(net, [], video, tiny_config(iters=10, tvp_size=0))
        assert res.log, "expected at least one log entry"
        entry = res.log[-1]
        assert {"epoch", "iter", "loss", "psnr_eval"} <= set(entry)


class TestBaseline:
    def test_per_chunk_models(self):
        video = tiny_video(frames=6, chunks=3)
        bb = BackboneConfig(channels=4, blocks=1, branches=3, scale=2)
        results = train_baseline_per_chunk(video, bb, tiny_config(iters=4))
        assert len(results) == 3
        for res in results:
            assert res.net.config.branches == 1
            assert res.prompts == []

    def test_per_chunk_models_beat_bicubic_per_chunk(self):
        from vidsr.metrics import psnr
        from vidsr.pipeline import evaluate_psnr
        from vidsr.tensor import Tensor4, bicubic_resize, clamp01

        video = tiny_video(frames=4, size=32, chunks=2, seed=12)
        bb = BackboneConfig(channels=8, blocks=1, branches=2, scale=2)
        results = train_baseline_per_chunk(
            video, bb, tiny_config(iters=300, batch=8, patch=24, chunks=2))
        for k, (lo, hi) in enumerate(video.boundaries):
            frames = list(range(lo, hi))
            bicubic = np.mean([
                psnr(clamp01(bicubic_resize(Tensor4(video.lr[f][None]), 2)),
                     Tensor4(video.hr[f][None])) for f in frames])
            sub = ChunkedVideo(video.scale, video.hr[lo:hi], video.lr[lo:hi],
                               [(0, hi - lo)])
            trained = evaluate_psnr(results[k].net, [], sub,
                                    frames=list(range(hi - lo)))
            assert trained > bicubic, f"chunk {k}: {trained:.2f} <= {bicubic:.2f}"

    def test_single_chunk_equals_plain_train(self):
        video = tiny_video(frames=4, chunks=1)
        bb = BackboneConfig(channels=4, blocks=1, branches=1, scale=2)
        cfg = tiny_config(iters=6, chunks=1, tvp_size=0)
        baseline = train_baseline_per_chunk(video, bb, cfg)[0]
        net = build_backbone(bb, seed=cfg.seed)
        direct = train(net, [], video, cfg)
        for (na, pa), (nb, pb) in zip(named_params(baseline.net),
                                      named_params(direct.net)):
            assert na == nb
            assert pa.tobytes() == pb.tobytes()


class TestEvalFrames:
    def test_every_tenth_frame(self):
        video = tiny_video(frames=12, chunks=2)
        assert eval_frames(video) == [0, 10]


class TestTrainVideo:
    def test_wrapper_runs_end_to_end(self):
        hr = generate_synthetic_video(SynthConfig(frames=4, height=32,
                                                  width=32, seed=1))
        bb = BackboneConfig(channels=4, blocks=1, branches=2, scale=2)
        res, video = train_video(hr, bb, tiny_config(iters=3, chunks=2))
        assert isinstance(video, ChunkedVideo)
        assert math.isfinite(res.final_loss)
