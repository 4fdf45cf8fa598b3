"""The three workloads: set-up, measured loop, checks and metrics.

Program functions are always called through their module (``network.
sr_forward``, not an imported name), so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import time
from collections import Counter

import numpy as np

from vidsr import cli, fuse, metrics, model_io, network, pipeline, prompt
from vidsr.tensor import Tensor4

# Acceptance criterion 5's toy recipe; only the branch count varies.
TOY_VIDEO = dict(frames=16, height=96, width=96)
TOY_BACKBONE = dict(channels=16, blocks=2, scale=2)
TOY_TRAIN = dict(scale=2, chunks=9, batch=32, patch=48, tvp_size=48,
                 lr_rate=2e-3, sampler="loss")
# Iterations per pipeline.train call. Every call repeats the same seeded
# run, so calls can be compared for determinism; the final evaluate_psnr
# of each call lands in 1 of 20 iteration gaps, beyond the p90. After
# each call every frame is evaluated, so evaluation samples spread over
# the whole run like the iterations do.
TRAIN_CALL_ITERS = 20

# Delivery geometry: 540x960 HR, x2, two chunks so the prompt switches.
DELIVER_VIDEO = dict(frames=4, height=540, width=960)
DELIVER_CHUNKS = 2
DELIVER_BACKBONE = dict(channels=16, blocks=2, branches=3, scale=2)
PROMPT_SIZE = 48
PROMPT_STD = 0.05
# A trained model adds a small residual to the bicubic skip; scaling the
# random tail keeps the seeded model in that regime instead of clipping.
TAIL_GAIN = 0.1
FUSE_TOLERANCE = 1e-4

LAYERS = ("tensor", "autodiff", "network", "prompt", "pipeline", "fuse",
          "metrics", "model_io")
INCLUSIVE_MS = {
    "tensor.conv_fwd_ms": "tensor.conv_fwd",
    "tensor.conv_grad_input_ms": "tensor.conv_grad_input",
    "tensor.conv_grad_weight_ms": "tensor.conv_grad_weight",
    "tensor.im2col_ms": "tensor.im2col",
    "tensor.layout_ms": "tensor.layout",
    "tensor.bicubic_ms": "tensor.bicubic",
    "tensor.bicubic_adjoint_ms": "tensor.bicubic_adjoint",
    "tensor.pixel_shuffle_ms": "tensor.pixel_shuffle",
    "autodiff.backward_ms": "autodiff.backward",
    "network.net_forward_ms": "network.net_forward",
    "network.mbconv_ms": "network.mbconv",
    "network.sr_forward_ms": "network.sr_forward",
    "prompt.apply_patches_ms": "prompt.apply_patches",
    "prompt.apply_prompt_ms": "prompt.apply_prompt",
    "pipeline.sample_ms": "pipeline.sample",
    "pipeline.sampler_update_ms": "pipeline.sampler_update",
    "pipeline.gather_ms": "pipeline.gather",
    "pipeline.adam_ms": "pipeline.adam",
    "pipeline.epoch_eval_ms": "pipeline.epoch_eval",
    "metrics.psnr_ms": "metrics.psnr",
    "metrics.ssim_ms": "metrics.ssim",
    "metrics.consistency_ms": "metrics.consistency",
    "model_io.read_ppm_ms": "model_io.read_ppm",
    "model_io.write_ppm_ms": "model_io.write_ppm",
}
SETUP_MS = {
    "fuse.fuse_network_ms": "fuse.fuse_network",
    "model_io.load_model_ms": "model_io.load_model",
}
# counts that must repeat exactly: per-unit deltas and across runs
EXACT_COUNTS = ("conv_calls", "conv_flop", "im2col_bytes", "tape_nodes",
                "tape_conv_nodes", "placements")


def conv_work(channels, blocks, branches, scale, b, h, w):
    """Forward convs of one SR forward at LR size h x w: (calls, FLOP).

    FLOP per conv is 2*B*Ho*Wo*K*K*I*O. A block of M branches runs
    M(M-1)/2 1x1 convs on the padded input and one 3x3 conv over the M
    stacked cascade outputs; a fused block runs one C->C 3x3 conv.
    """
    c = channels
    flops = [2 * b * h * w * 9 * 3 * c, 2 * b * h * w * 9 * c * 3 * scale * scale]
    for _ in range(2 * blocks):
        flops += [2 * b * (h + 2) * (w + 2) * c * c] * (branches * (branches - 1) // 2)
        flops.append(2 * b * h * w * 9 * branches * c * c)
    return len(flops), sum(flops)


def params_digest(net, prompts) -> str:
    h = hashlib.sha256()
    for name, arr in network.named_params(net):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr, np.float32).tobytes())
    for p in prompts:
        h.update(p.values.tobytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def delivery_bytes(lr_dir, boundaries, container) -> int:
    """shared-model+tvp total, assembled as `vidsr cost-report` does."""
    _, _, header = model_io.load_model(container)
    lr_chunks = [[model_io.frame_path(lr_dir, i) for i in range(lo, hi)]
                 for lo, hi in boundaries]
    return metrics.cost_report(
        "shared-model+tvp", lr_chunks, [container],
        prompt_bytes=model_io.prompt_payload_bytes(header)).total_bytes


def end_to_end(setup_s, step_s, cpu_s, wall_s, eval_s, psnr_db, rss, nbytes):
    n = len(step_s)
    return {
        "setup_s": (setup_s, "s"),
        "step_ms_p50": (statistics.median(step_s) * 1e3, "ms"),
        "step_ms_p90": (statistics.quantiles(step_s, n=10)[8] * 1e3, "ms"),
        "cpu_ms_per_step": (cpu_s / n * 1e3, "ms"),
        "steps_per_s": (n / wall_s, "1/s"),
        "eval_ms_p50": (statistics.median(eval_s) * 1e3, "ms"),
        "psnr_db": (psnr_db, "dB"),
        "peak_rss_mb": (rss, "MB"),
        "delivery_bytes": (nbytes, "bytes"),
    }


class Units:
    """Count snapshots at unit boundaries (a train call or a frame)."""

    def __init__(self, run):
        self.run = run
        self.snaps = [Counter()]

    def mark(self):
        t = self.run.tracer
        if t is not None and t.phase == "run":
            self.snaps.append(Counter(t.counts["run"]))

    def check_repeat(self):
        """Check every unit made the same counts; returns one unit's counts."""
        deltas = [{k: b[k] - a[k] for k in EXACT_COUNTS}
                  for a, b in zip(self.snaps, self.snaps[1:])]
        self.run.check("counts_repeat_per_unit",
                       all(d == deltas[0] for d in deltas),
                       f"{len(deltas)} units, first {deltas[:1]}, last {deltas[-1:]}")
        return deltas[0]


def per_layer(run, measured, extra):
    """Per-layer metrics of the traced phase, per step."""
    (wall_u, steps_u), (wall_t, steps_t) = measured
    n = steps_t
    total, own = run.tracer.times("run")
    setup_total, _ = run.tracer.times("setup")
    counts = run.tracer.counts["run"]
    m = {k: (total.get(span, 0.0) * 1e3 / n, "ms") for k, span in INCLUSIVE_MS.items()}
    m.update({k: (setup_total.get(span, 0.0) * 1e3 / run.setup_reps, "ms")
              for k, span in SETUP_MS.items()})
    m["autodiff.backward_self_ms"] = (own.get("autodiff.backward", 0.0) * 1e3 / n, "ms")
    m["autodiff.record_self_ms"] = (own.get("autodiff.record", 0.0) * 1e3 / n, "ms")
    m["tensor.conv_calls"] = (counts["conv_calls"] / n, "count")
    m["tensor.conv_mflop"] = (counts["conv_flop"] / n / 1e6, "MFLOP")
    m["tensor.im2col_mb"] = (counts["im2col_bytes"] / n / 1e6, "MB")
    m["autodiff.tape_nodes"] = (counts["tape_nodes"] / n, "count")
    m["autodiff.tape_value_mb"] = (counts["tape_value_bytes"] / n / 1e6, "MB")
    m["prompt.placements_per_iter"] = (counts["placements"] / n, "count")
    layer_self = 0.0
    for layer in LAYERS:
        s = sum(v for k, v in own.items() if k.startswith(layer + ".")) * 1e3 / n
        m[f"{layer}.self_ms"] = (s, "ms")
        layer_self += s
    wall_ms = wall_t * 1e3 / n
    m["trace.wall_ms"] = (wall_ms, "ms")
    m["trace.untraced_ms"] = (wall_ms - layer_self, "ms")
    m["trace.overhead_ms"] = (wall_ms - wall_u * 1e3 / steps_u, "ms")
    m.update(extra)
    run.check("self_times_within_wall", wall_ms - layer_self >= -1e-6,
              f"layer self {layer_self:.3f} ms, wall {wall_ms:.3f} ms")
    run.details["trace_self_ms"] = {k: v * 1e3 / n for k, v in sorted(own.items())}
    run.details["trace_steps"] = n
    return m


def check_counts_across_runs(run, workload, now):
    """One unit's counts must match any earlier run of this source tree,
    workload and seed."""
    path = run.out / f"counts-{run.source_digest}-{workload}-seed{run.seed}.json"
    if path.is_file():
        before = json.loads(path.read_text())
        run.check("counts_repeat_across_runs", before == now,
                  f"{path.name}: {before} vs {now}")
    else:
        path.write_text(json.dumps(now, sort_keys=True) + "\n")
        run.check("counts_repeat_across_runs", True, f"first run, wrote {path.name}")


def check_conv_work(run, counts, steps, expected):
    calls, flop = expected
    run.check("conv_work_matches_architecture",
              counts["conv_calls"] == steps * calls and counts["conv_flop"] == steps * flop,
              f"{counts['conv_calls']} convs / {counts['conv_flop']} FLOP over {steps} "
              f"steps, expected {calls} / {flop} each")


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def train_workload(run, name, branches):
    hr_dir = run.work / "hr"
    model_io.write_frames(hr_dir, model_io.generate_synthetic_video(
        model_io.SynthConfig(seed=run.seed, **TOY_VIDEO)))
    backbone = network.BackboneConfig(branches=branches, **TOY_BACKBONE)
    cfg = pipeline.TrainConfig(iters=TRAIN_CALL_ITERS, seed=run.seed, **TOY_TRAIN)

    def setup():
        hr = model_io.read_frames(hr_dir)
        video = pipeline.make_lr(pipeline.chunk_video(hr, cfg.chunks), cfg.scale)
        net = network.build_backbone(backbone, seed=run.seed)
        # timed as part of set-up; each train call gets fresh prompts
        # because train() updates them in place
        pipeline.default_prompts(video, cfg.tvp_size)
        return video, net

    setup_s, (video, net) = run.setup(setup)

    stamps = []
    samplers = []
    base = pipeline.PatchSampler

    class StampedSampler(base):
        """One timestamp per sample() call; checks every iteration's losses."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            samplers[:] = [self]

        def sample(self, count):
            stamps.append(time.perf_counter())
            return super().sample(count)

        def update(self, refs, losses):
            run.attempted += 1
            if not np.all(np.isfinite(losses)):
                run.failed += 1
                run.check("loss_finite", False, f"iteration {run.attempted}")
            super().update(refs, losses)

    units = Units(run)
    results = []
    step_s, eval_s, psnrs = [], [], []
    cpu_s = 0.0

    def evaluate(result):
        keep = not run.recording
        with run.untraced():
            for f in range(video.num_frames):
                t0 = time.perf_counter()
                psnrs.append(pipeline.evaluate_psnr(result.net, result.prompts,
                                                    video, frames=[f]))
                if keep:
                    eval_s.append(time.perf_counter() - t0)

    def loop(deadline):
        nonlocal cpu_s
        steps = 0
        while True:
            prompts = pipeline.default_prompts(video, cfg.tvp_size)
            mark = len(stamps)
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                result = pipeline.train(net, prompts, video, cfg)
            except pipeline.TrainDiverged as e:
                run.attempted += 1
                run.failed += 1
                run.check("loss_finite", False, str(e))
                return steps
            t1, c1 = time.perf_counter(), time.process_time()
            units.mark()
            gaps = np.diff(stamps[mark:] + [t1]).tolist()
            if not run.recording:
                step_s.extend(gaps)
                cpu_s += c1 - c0
            steps += len(gaps)
            results.append(result)
            run.check("loss_decreases", result.final_loss < result.first_loss,
                      f"first {result.first_loss} final {result.final_loss}")
            evaluate(result)
            t2 = time.perf_counter()
            if t2 + (t2 - t0) > deadline:
                return steps

    pipeline.PatchSampler = StampedSampler
    try:
        measured = [run.measure(loop, secs, traced) for secs, traced in run.phases()]
    finally:
        pipeline.PatchSampler = base
    rss = peak_rss_mb()
    if not results:
        return {}

    digests = {params_digest(r.net, r.prompts) for r in results}
    run.check("calls_deterministic", len(digests) == 1,
              f"{len(digests)} distinct parameter digests over {len(results)} calls")
    final = results[-1]
    run.details.update(params_digest=sorted(digests)[0], train_calls=len(results),
                       iters_per_call=TRAIN_CALL_ITERS, steps=len(step_s),
                       first_loss=final.first_loss, final_loss=final.final_loss)

    psnr_db = float(np.mean(psnrs[-video.num_frames:]))
    run.check("psnr_finite", math.isfinite(psnr_db), psnr_db)

    lr_dir = run.work / "lr"
    model_io.write_frames(lr_dir, video.lr)
    container = run.work / "fused.rcam"
    model_io.save_model(container, fuse.fuse_network(final.net), final.prompts,
                        chunks={"count": video.num_chunks,
                                "boundaries": [list(b) for b in video.boundaries]},
                        train_config=cfg.snapshot())
    nbytes = delivery_bytes(lr_dir, video.boundaries, container)

    if not run.traced:
        wall = measured[0][0]
        return end_to_end(setup_s, step_s, cpu_s, wall, eval_s, psnr_db, rss, nbytes)

    counts = run.tracer.counts["run"]
    steps_t = measured[1][1]
    unit_counts = units.check_repeat()
    check_conv_work(run, counts, steps_t,
                    conv_work(b=cfg.batch, h=cfg.patch // cfg.scale,
                              w=cfg.patch // cfg.scale, branches=branches,
                              **TOY_BACKBONE))
    run.check("tape_conv_nodes_match_kernel_calls",
              counts["tape_conv_nodes"] == counts["conv_calls"],
              f"tape {counts['tape_conv_nodes']} vs kernel {counts['conv_calls']}")
    check_counts_across_runs(run, name, unit_counts)
    w = samplers[-1].cell_weights()
    p = w / w.sum()
    extra = {
        "pipeline.sampler_effective_cells": (float(np.exp(-(p * np.log(p)).sum())), "count"),
        "model_io.container_bytes": (container.stat().st_size, "bytes"),
    }
    return per_layer(run, measured, extra)


# ---------------------------------------------------------------------------
# delivery
# ---------------------------------------------------------------------------

def deliver_workload(run, name):
    hr_dir = run.work / "hr"
    model_io.write_frames(hr_dir, model_io.generate_synthetic_video(
        model_io.SynthConfig(seed=run.seed, **DELIVER_VIDEO)))
    rng = np.random.default_rng(run.seed)
    prompt_values = [rng.normal(0.0, PROMPT_STD, (3, PROMPT_SIZE, PROMPT_SIZE))
                     for _ in range(DELIVER_CHUNKS)]
    backbone = network.BackboneConfig(**DELIVER_BACKBONE)
    chunked = run.work / "chunked"
    lr_dir = chunked / "lr"
    container = run.work / "fused.rcam"

    def setup():
        hr = model_io.read_frames(hr_dir)
        video = pipeline.make_lr(pipeline.chunk_video(hr, DELIVER_CHUNKS), backbone.scale)
        model_io.write_frames(lr_dir, video.lr)
        (chunked / "chunks.json").write_text(json.dumps({
            "chunks": video.num_chunks, "scale": video.scale,
            "frames": video.num_frames,
            "boundaries": [list(b) for b in video.boundaries]}) + "\n")
        net = network.build_backbone(backbone, seed=run.seed)
        params = dict(network.named_params(net))
        params["tail.w"] = params["tail.w"] * TAIL_GAIN
        net = network.rebuild_with_params(net, params)
        prompts = [prompt.VisualPrompt(k, v) for k, v in enumerate(prompt_values)]
        model_io.save_model(container, fuse.fuse_network(net), prompts,
                            chunks={"count": video.num_chunks,
                                    "boundaries": [list(b) for b in video.boundaries]})
        fused, fused_prompts, _ = model_io.load_model(container)
        return video, net, fused, {p.chunk_id: p for p in fused_prompts}

    setup_s, (video, net, fused, prompt_of) = run.setup(setup)
    nframes = video.num_frames
    lr_paths = [model_io.frame_path(lr_dir, i) for i in range(nframes)]
    out_dir = run.work / "sr"
    out_dir.mkdir()
    hr_t = [Tensor4(f[None]) for f in video.hr]

    def prompted(lr, idx):
        x = Tensor4(lr[None])
        p = prompt_of.get(video.chunk_of(idx))
        return x if p is None else prompt.apply_prompt(x, p)

    # untimed frame: warms caches and is the fused side of the fusion check
    x0 = prompted(model_io.read_ppm(lr_paths[0]), 0)
    fused0 = network.sr_forward(fused, x0).data

    units = Units(run)
    step_s, eval_s = [], []
    cpu_s = 0.0
    psnr_of = {}
    frames = 0

    def loop(deadline):
        nonlocal cpu_s, frames
        steps = 0
        while True:
            idx = frames % nframes
            t0, c0 = time.perf_counter(), time.process_time()
            lr = model_io.read_ppm(lr_paths[idx])
            y = network.sr_forward(fused, prompted(lr, idx), clamp=True)
            model_io.write_ppm(model_io.frame_path(out_dir, idx), y.data[0])
            c1, t1 = time.process_time(), time.perf_counter()
            ps = metrics.psnr(y, hr_t[idx])
            ss = metrics.ssim(y, hr_t[idx])
            co = metrics.consistency(Tensor4(lr[None]), y, video.scale)
            t2 = time.perf_counter()
            units.mark()
            run.attempted += 1
            ok = (bool(np.all(np.isfinite(y.data))) and y.data.min() >= 0.0
                  and y.data.max() <= 1.0 and math.isfinite(ps)
                  and -1.0 <= ss <= 1.0 and math.isfinite(co)
                  and psnr_of.setdefault(idx, ps) == ps)
            if not ok:
                run.failed += 1
                run.check("frame_outputs_valid", False,
                          f"frame {idx}: psnr {ps} ssim {ss} consistency {co}")
            if not run.recording:
                step_s.append(t1 - t0)
                eval_s.append(t2 - t1)
                cpu_s += c1 - c0
            frames += 1
            steps += 1
            if frames >= nframes and t2 + (t2 - t0) > deadline:
                return steps

    measured = [run.measure(loop, secs, traced) for secs, traced in run.phases()]
    rss = peak_rss_mb()
    run.check("frame_outputs_valid", True)

    gap = float(np.abs(network.sr_forward(net, x0).data - fused0).max())
    run.check("fused_matches_multibranch", gap <= FUSE_TOLERANCE,
              f"max abs gap {gap:.3e}")
    cli_out = run.work / "cli_sr"
    code = cli.main(["infer", "--model", str(container), "--chunked", str(chunked),
                     "--out", str(cli_out)])
    same = code == 0 and all(
        model_io.frame_path(out_dir, i).read_bytes()
        == model_io.frame_path(cli_out, i).read_bytes() for i in range(nframes))
    run.check("frames_equal_cli_infer", same, f"vidsr infer exit {code}")
    psnr_db = float(np.mean(list(psnr_of.values())))
    nbytes = delivery_bytes(lr_dir, video.boundaries, container)
    run.details.update(fusion_gap=gap, frames=frames, steps=len(step_s),
                       psnr_by_frame=psnr_of)

    if not run.traced:
        wall = measured[0][0]
        return end_to_end(setup_s, step_s, cpu_s, wall, eval_s, psnr_db, rss, nbytes)

    counts = run.tracer.counts["run"]
    steps_t = measured[1][1]
    unit_counts = units.check_repeat()
    h, w = video.lr[0].shape[1:]
    check_conv_work(run, counts, steps_t,
                    conv_work(b=1, h=h, w=w, channels=backbone.channels,
                              blocks=backbone.blocks, branches=1, scale=backbone.scale))
    run.check("no_tape_on_delivery", counts["tape_nodes"] == 0,
              f"{counts['tape_nodes']} tape nodes")
    check_counts_across_runs(run, name, unit_counts)
    extra = {
        "pipeline.sampler_effective_cells": (0.0, "count"),
        "model_io.container_bytes": (container.stat().st_size, "bytes"),
    }
    return per_layer(run, measured, extra)


def run(workload, ctx):
    if workload == "deliver_270p":
        return deliver_workload(ctx, workload)
    return train_workload(ctx, workload, {"train_m3": 3, "train_m1": 1}[workload])
