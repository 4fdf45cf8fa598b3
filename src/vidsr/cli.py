"""Command-line pipeline: synth | chunk | train | fuse | verify-fuse |
infer | eval | cost-report.

Conceptually, train/fuse run on the server and infer/eval on the client.
Progress and metrics go to standard error; machine-readable records go to
files only. Every subcommand writes a run manifest alongside its outputs.

Exit codes: 0 success, 1 usage error, 2 validation/verify failure,
3 internal numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, metrics, model_io
from .fuse import fuse_network
from .network import BackboneConfig, build_backbone, param_count, sr_forward
from .pipeline import (
    TrainConfig,
    TrainDiverged,
    chunk_video,
    default_prompts,
    make_lr,
    train,
    train_baseline_per_chunk,
)
from .prompt import apply_prompt
from .tensor import Tensor4

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

SEED_ENV = "VIDSR_SEED"


class UsageError(Exception):
    pass


class InputError(Exception):
    """A malformed input file (exit 1, like a bad container or frame)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _log(msg):
    print(msg, file=sys.stderr)


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV, "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{SEED_ENV} must be an integer, got {raw!r}") from None


def _sidecar(out_path: Path, name: str) -> Path:
    """``<out>/<name>`` for a directory output, else ``<out>.<name>``."""
    if out_path.is_dir() or not out_path.suffix:
        return out_path / name
    return out_path.with_name(f"{out_path.name}.{name}")


def _write_json(path: Path, obj) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return path


def _write_manifest(out_path: Path, subcommand: str, config: dict,
                    inputs: dict, outputs: list):
    """config is ``vars(args)`` (plus extras); its ``started`` is the
    perf_counter reading main() took when it began."""
    wall = time.perf_counter() - config["started"]
    config = {k: v for k, v in config.items()
              if k not in ("fn", "cmd", "started")}
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "seed": config.get("seed"),
        "inputs": inputs,
        "outputs": [str(o) for o in outputs],
        "tool_version": __version__,
        "numpy_version": np.__version__,
        "wall_seconds": wall,
    }
    return _write_json(_sidecar(out_path, "manifest.json"), manifest)


def _write_records(path, records):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _load_chunk_dir(path: Path):
    """chunks.json plus the LR frames; boundaries are checked to be
    ``chunks`` int [lo, hi) pairs that tile the frames in order."""
    meta_path = path / "chunks.json"
    try:
        meta = json.loads(meta_path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise InputError(f"{meta_path}: not JSON ({e})") from None
    if not isinstance(meta, dict):
        raise InputError(f"{meta_path}: not a JSON object")
    for key in ("chunks", "scale"):
        if type(meta.get(key)) is not int or meta[key] < 1:
            raise InputError(f"{meta_path}: {key!r} must be a positive int, "
                             f"got {meta.get(key)!r}")
    bounds = meta.get("boundaries")
    if not (isinstance(bounds, list) and len(bounds) == meta["chunks"] and all(
            isinstance(b, list) and len(b) == 2
            and all(type(v) is int for v in b) for b in bounds)):
        raise InputError(f"{meta_path}: 'boundaries' must be {meta['chunks']} "
                         f"int [lo, hi] pairs, got {bounds!r}")
    frames = model_io.read_frames(path / "lr")
    edges = [0] + [hi for _, hi in bounds]
    if [lo for lo, _ in bounds] != edges[:-1] or edges[-1] != len(frames) \
            or any(lo >= hi for lo, hi in bounds):
        raise InputError(f"{meta_path}: boundaries {bounds} do not tile the "
                         f"{len(frames)} LR frames")
    return meta, frames


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    out = Path(args.out)
    cfg = model_io.SynthConfig(frames=args.frames, height=args.height,
                               width=args.width,
                               shift=(args.shift_y, args.shift_x),
                               seed=args.seed)
    frames = model_io.generate_synthetic_video(cfg)
    model_io.write_frames(out, frames)
    _write_manifest(out, "synth", vars(args) | {"out": str(out)},
                    {}, [out / f"frame_{i:05d}.ppm" for i in range(len(frames))])
    _log(f"synth: wrote {len(frames)} frames ({args.height}x{args.width}) to {out}")
    return EXIT_OK


def cmd_chunk(args) -> int:
    src = Path(args.frames)
    out = Path(args.out)
    hr = model_io.read_frames(src)
    video = make_lr(chunk_video(hr, args.chunks), args.scale)
    model_io.write_frames(out / "lr", video.lr)
    meta = {
        "chunks": video.num_chunks,
        "scale": video.scale,
        "frames": video.num_frames,
        "boundaries": [list(b) for b in video.boundaries],
        "hr_dir": str(src),
        "lr_dims": list(video.lr[0].shape[1:]),
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "chunks.json").write_text(json.dumps(meta, indent=2) + "\n")
    _write_manifest(out, "chunk", vars(args) | {"out": str(out)},
                    {"frames": str(src)}, [out / "chunks.json", out / "lr"])
    _log(f"chunk: {video.num_frames} frames -> {video.num_chunks} chunks, "
         f"LR {meta['lr_dims'][0]}x{meta['lr_dims'][1]} in {out}")
    return EXIT_OK


def _train_config(args, video) -> TrainConfig:
    iters = args.iters
    if args.epochs is not None:
        ny = (video.hr[0].shape[1] - args.patch) // args.scale + 1
        nx = (video.hr[0].shape[2] - args.patch) // args.scale + 1
        epoch_len = max(1, math.ceil(video.num_frames * ny * nx / args.batch))
        iters = args.epochs * epoch_len
    return TrainConfig(scale=args.scale, chunks=args.chunks, iters=iters,
                       batch=args.batch, lr_rate=args.lr,
                       patch=args.patch, sampler=args.sampler,
                       tvp_size=args.tvp_size, seed=args.seed)


def cmd_train(args) -> int:
    hr = model_io.read_frames(Path(args.frames))
    video = make_lr(chunk_video(hr, args.chunks), args.scale)
    cfg = _train_config(args, video)
    backbone = BackboneConfig(channels=args.channels, blocks=args.blocks,
                              branches=args.branches, scale=args.scale)
    chunks_header = {"count": video.num_chunks,
                     "boundaries": [list(b) for b in video.boundaries]}
    out = Path(args.out)
    try:
        if args.baseline_per_chunk:
            out.mkdir(parents=True, exist_ok=True)
            results = train_baseline_per_chunk(video, backbone, cfg)
        else:
            net = build_backbone(backbone, seed=cfg.seed)
            prompts = default_prompts(video, cfg.tvp_size)
            _log(f"train: {param_count(net)} params, {video.num_chunks} "
                 f"chunks, {len(prompts)} prompts, {cfg.iters} iterations")
            res = train(net, prompts, video, cfg)
    except TrainDiverged as e:
        dump = _write_json(_sidecar(out, "diagnostic.json"), e.diagnostic())
        _log(f"numeric failure: {e}")
        _log(f"diagnostics written to {dump}")
        return EXIT_NUMERIC

    if args.baseline_per_chunk:
        outputs = []
        records = []
        for k, res in enumerate(results):
            path = out / f"chunk{k:02d}.rcam"
            model_io.save_model(path, res.net, [],
                                chunks={"count": 1, "boundaries":
                                        [[0, len(video.hr)]]},
                                train_config=cfg.snapshot())
            outputs.append(path)
            records.extend({"chunk": k, **entry} for entry in res.log)
            _log(f"train[baseline chunk {k}]: loss {res.first_loss:.4f} -> "
                 f"{res.final_loss:.4f}")
        _write_records(out / "metrics.jsonl", records)
        _write_manifest(out, "train", vars(args) | {"resolved": cfg.snapshot()},
                        {"frames": args.frames}, outputs)
        return EXIT_OK

    for entry in res.log:
        _log(f"train: epoch {entry['epoch']} iter {entry['iter']} "
             f"loss {entry['loss']:.4f} psnr {entry['psnr_eval']:.2f}")
    out.parent.mkdir(parents=True, exist_ok=True)
    model_io.save_model(out, res.net, res.prompts, chunks=chunks_header,
                        train_config=cfg.snapshot())
    log_path = args.log or str(out) + ".metrics.jsonl"
    _write_records(log_path, res.log)
    _write_manifest(out, "train", vars(args) | {"resolved": cfg.snapshot()},
                    {"frames": args.frames}, [out, Path(log_path)])
    _log(f"train: wrote {out}")
    return EXIT_OK


def cmd_fuse(args) -> int:
    net, prompts, header = model_io.load_model(args.model)
    fused = fuse_network(net)
    before = param_count(net)
    after = param_count(fused)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    model_io.save_model(out, fused, prompts,
                        chunks=header.get("chunks"),
                        train_config=header.get("train_config"))
    _write_manifest(out, "fuse", vars(args), {"model": args.model}, [out])
    _log(f"fuse: {before} params -> {after} params "
         f"({before - after} removed), wrote {out}")
    return EXIT_OK


def cmd_verify_fuse(args) -> int:
    net, _, _ = model_io.load_model(args.model)
    fused = fuse_network(net)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        h = int(rng.integers(8, 17))
        w = int(rng.integers(8, 17))
        x = Tensor4.from_array(rng.random((1, 3, h, w), np.float32))
        a = sr_forward(net, x)
        b = sr_forward(fused, x)
        worst = max(worst, float(np.abs(a.data - b.data).max()))
    ok = worst <= args.tolerance
    _log(f"verify-fuse: max abs gap {worst:.3e} over {args.trials} inputs "
         f"(tolerance {args.tolerance:.1e}) -> {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VALIDATION


def _infer_one(net, prompts_by_chunk, meta, frames, idx):
    chunk = next(k for k, (lo, hi) in enumerate(meta["boundaries"])
                 if lo <= idx < hi)
    x = Tensor4(frames[idx][None])
    p = prompts_by_chunk.get(chunk)
    if p is not None:
        x = apply_prompt(x, p)
    return sr_forward(net, x, clamp=True).data[0]


def cmd_infer(args) -> int:
    net, prompts, _ = model_io.load_model(args.model)
    meta, frames = _load_chunk_dir(Path(args.chunked))
    if net.scale != meta["scale"]:
        raise ValueError(f"model upscales x{net.scale}, chunks.json says "
                         f"x{meta['scale']}")
    if len(prompts) not in (0, meta["chunks"]):
        raise ValueError(f"model carries {len(prompts)} prompts, chunks.json "
                         f"has {meta['chunks']} chunks")
    prompts_by_chunk = {p.chunk_id: p for p in prompts}
    out = Path(args.out)
    indices = range(len(frames))
    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            sr = list(pool.map(
                lambda i: _infer_one(net, prompts_by_chunk, meta, frames, i),
                indices))
    else:
        sr = [_infer_one(net, prompts_by_chunk, meta, frames, i)
              for i in indices]
    model_io.write_frames(out, sr)
    _write_manifest(out, "infer", vars(args),
                    {"model": args.model, "chunked": args.chunked},
                    [out / f"frame_{i:05d}.ppm" for i in indices])
    _log(f"infer: super-resolved {len(frames)} frames -> {out}")
    return EXIT_OK


def _quantize(frame):
    return model_io.float_to_byte(frame).astype(np.float32) / 255.0


def cmd_eval(args) -> int:
    sr = model_io.read_frames(Path(args.sr))
    hr = model_io.read_frames(Path(args.hr))
    if len(sr) != len(hr):
        raise UsageError(f"frame count mismatch: {len(sr)} SR vs {len(hr)} HR")
    if sr[0].shape != hr[0].shape:
        raise UsageError(f"frame dims differ: SR {sr[0].shape[1]}x{sr[0].shape[2]}"
                         f" vs HR {hr[0].shape[1]}x{hr[0].shape[2]}")
    lr = model_io.read_frames(Path(args.lr)) if args.lr else None

    def one(i):
        a, b = sr[i], hr[i]
        if args.quantize_8bit:
            a, b = _quantize(a), _quantize(b)
        rec = {"frame": i,
               "psnr": metrics.psnr(Tensor4(a[None]), Tensor4(b[None])),
               "ssim": metrics.ssim(Tensor4(a[None]), Tensor4(b[None]))}
        if lr is not None:
            rec["consistency"] = metrics.consistency(
                Tensor4(lr[i][None]), Tensor4(a[None]), args.scale)
        return rec

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            records = list(pool.map(one, range(len(sr))))
    else:
        records = [one(i) for i in range(len(sr))]

    mean_psnr = float(np.mean([r["psnr"] for r in records]))
    mean_ssim = float(np.mean([r["ssim"] for r in records]))
    _log(f"eval: frames {len(records)}  PSNR {mean_psnr:.3f} dB  "
         f"SSIM {mean_ssim:.4f}")
    if lr is not None:
        mean_c = float(np.mean([r["consistency"] for r in records]))
        _log(f"eval: consistency (x1e-1) {mean_c:.3f}")
    if args.records:
        _write_records(args.records, records)
        _write_manifest(Path(args.records), "eval", vars(args),
                        {"sr": args.sr, "hr": args.hr, "lr": args.lr},
                        [args.records])
    return EXIT_OK


def cmd_cost_report(args) -> int:
    meta, _ = _load_chunk_dir(Path(args.chunked))
    lr_dir = Path(args.chunked) / "lr"
    lr_chunks = [[model_io.frame_path(lr_dir, i) for i in range(lo, hi)]
                 for lo, hi in meta["boundaries"]]
    overrides = None
    if args.size_file:
        overrides = json.loads(Path(args.size_file).read_text())
    if args.scheme == "per-chunk-models":
        model_files = args.models
        if not model_files:
            raise UsageError("per-chunk-models needs --models")
        prompt_bytes = None
    else:
        if not args.model:
            raise UsageError(f"{args.scheme} needs --model")
        model_files = [args.model]
        _, _, header = model_io.load_model(args.model)
        prompt_bytes = model_io.prompt_payload_bytes(header)
        n = len(meta["boundaries"])
        if args.scheme == "shared-model+tvp" and len(prompt_bytes) != n:
            raise UsageError(
                f"model carries {len(prompt_bytes)} prompts, video has {n} chunks")
    report = metrics.cost_report(
        args.scheme, lr_chunks, model_files,
        prompt_bytes=prompt_bytes if args.scheme == "shared-model+tvp" else None,
        lr_override_bytes=overrides)
    _log(f"cost-report [{args.scheme}] N={report.chunk_count}")
    _log(f"  LR bytes per chunk: {report.lr_bytes}")
    _log(f"  model bytes: {report.model_bytes}  prompt bytes: {report.prompt_bytes}")
    _log(f"  LR+MODEL (TOTAL) MB: {report.format_line()}")
    if args.records:
        _write_records(args.records, [{
            "scheme": report.scheme,
            "lr_bytes": report.lr_bytes,
            "model_bytes": report.model_bytes,
            "prompt_bytes": report.prompt_bytes,
            "total_bytes": report.total_bytes,
            "line": report.format_line(),
        }])
        _write_manifest(Path(args.records), "cost-report", vars(args),
                        {"chunked": args.chunked}, [args.records])
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="vidsr", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("synth", help="generate a deterministic synthetic video")
    sp.add_argument("--out", required=True)
    sp.add_argument("--frames", type=int, default=16)
    sp.add_argument("--height", type=int, default=96)
    sp.add_argument("--width", type=int, default=96)
    sp.add_argument("--shift-y", type=int, default=1)
    sp.add_argument("--shift-x", type=int, default=2)
    sp.add_argument("--seed", type=int, default=_default_seed())
    sp.set_defaults(fn=cmd_synth)

    cp = sub.add_parser("chunk", help="split into chunks and write LR frames")
    cp.add_argument("--frames", required=True, help="HR frame directory")
    cp.add_argument("--out", required=True)
    cp.add_argument("--chunks", type=int, default=9)
    cp.add_argument("--scale", type=int, default=2, choices=(2, 3, 4))
    cp.set_defaults(fn=cmd_chunk)

    tp = sub.add_parser("train", help="train one content-aware model per video")
    tp.add_argument("--frames", required=True, help="HR frame directory")
    tp.add_argument("--out", required=True, help="model container path "
                    "(directory in --baseline-per-chunk mode)")
    tp.add_argument("--scale", type=int, default=2, choices=(2, 3, 4))
    tp.add_argument("--chunks", type=int, default=9)
    tp.add_argument("--branches", type=int, default=3)
    tp.add_argument("--channels", type=int, default=16)
    tp.add_argument("--blocks", type=int, default=2)
    tp.add_argument("--tvp-size", type=int, default=48,
                    help="prompt size in LR pixels; 0 disables prompts")
    tp.add_argument("--sampler", choices=("uniform", "loss"), default="loss")
    tp.add_argument("--baseline-per-chunk", action="store_true",
                    help="train independent single-branch models per chunk")
    tp.add_argument("--seed", type=int, default=_default_seed())
    tp.add_argument("--epochs", type=int, default=None)
    tp.add_argument("--iters", type=int, default=2000)
    tp.add_argument("--batch", type=int, default=32)
    tp.add_argument("--patch", type=int, default=48)
    tp.add_argument("--lr", type=float, default=5e-5,
                    help="learning rate (toy runs converge faster near 2e-3)")
    tp.add_argument("--log", default=None, help="metrics jsonl path")
    tp.set_defaults(fn=cmd_train)

    fp = sub.add_parser("fuse", help="collapse a trained model for delivery")
    fp.add_argument("--model", required=True)
    fp.add_argument("--out", required=True)
    fp.set_defaults(fn=cmd_fuse)

    vp = sub.add_parser("verify-fuse", help="check fused against multi-branch")
    vp.add_argument("--model", required=True)
    vp.add_argument("--tolerance", type=float, default=1e-4)
    vp.add_argument("--trials", type=int, default=20)
    vp.add_argument("--seed", type=int, default=_default_seed())
    vp.set_defaults(fn=cmd_verify_fuse)

    ip = sub.add_parser("infer", help="super-resolve delivered LR chunks")
    ip.add_argument("--model", required=True)
    ip.add_argument("--chunked", required=True, help="output dir of `chunk`")
    ip.add_argument("--out", required=True)
    ip.add_argument("--jobs", type=int, default=1)
    ip.set_defaults(fn=cmd_infer)

    ep = sub.add_parser("eval", help="PSNR/SSIM (and consistency) vs HR")
    ep.add_argument("--sr", required=True)
    ep.add_argument("--hr", required=True)
    ep.add_argument("--lr", default=None)
    ep.add_argument("--scale", type=int, default=2)
    ep.add_argument("--quantize-8bit", action="store_true")
    ep.add_argument("--records", default=None)
    ep.add_argument("--jobs", type=int, default=1)
    ep.set_defaults(fn=cmd_eval)

    rp = sub.add_parser("cost-report", help="delivery size accounting")
    rp.add_argument("--chunked", required=True)
    rp.add_argument("--scheme", choices=metrics.SCHEMES,
                    default="shared-model+tvp")
    rp.add_argument("--model", default=None)
    rp.add_argument("--models", nargs="*", default=None,
                    help="per-chunk model containers")
    rp.add_argument("--size-file", default=None,
                    help="JSON list of encoded LR byte sizes per chunk")
    rp.add_argument("--records", default=None)
    rp.set_defaults(fn=cmd_cost_report)

    return p


def main(argv=None) -> int:
    started = time.perf_counter()
    try:
        args = build_parser().parse_args(argv)
        args.started = started
        return args.fn(args)
    except UsageError as e:
        _log(f"usage error: {e}")
        return EXIT_USAGE
    except (FileNotFoundError, InputError, model_io.ContainerError,
            model_io.FrameError) as e:
        _log(f"input error: {e}")
        return EXIT_USAGE
    except ValueError as e:
        _log(f"validation error: {e}")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
