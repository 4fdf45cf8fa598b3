"""Command-line pipeline: synth | chunk | train | fuse | verify-fuse |
infer | eval | cost-report.

Conceptually, train/fuse run on the server and infer/eval on the client.
Progress and metrics go to standard error; machine-readable records go to
files only. Every subcommand writes a run manifest alongside its outputs.

Exit codes, one per kind of failure (see ``main``): 0 success; 1 a usage
error or an unreadable or malformed input file; 2 inputs that do not fit
together, or a verify failure; 3 training diverged. Any other exception
is a bug and ends in a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, metrics, model_io, tensor
from .fuse import fuse_network
from .model_io import InputError
from .network import BackboneConfig, build_backbone, param_count, sr_forward
from .pipeline import (
    TrainConfig,
    TrainDiverged,
    check_patch,
    chunk_index,
    chunk_video,
    default_prompts,
    epoch_length,
    make_lr,
    sr_frame,
    train,
    train_baseline_per_chunk,
)
from .tensor import Tensor4, ValidationError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

SEED_ENV = "VIDSR_SEED"


class UsageError(Exception):
    """A bad argument or environment variable, or arguments that do not fit
    together."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _log(msg):
    print(msg, file=sys.stderr)


def _int_from(lo):
    """argparse type: an int no less than lo."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < lo:
            raise argparse.ArgumentTypeError(
                f"must be an int >= {lo}, got {text!r}")
        return value
    return parse


def _finite(positive):
    """argparse type: a finite float > 0 if positive, else >= 0."""
    def parse(text):
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        ok = math.isfinite(value) and (value > 0 if positive else value >= 0)
        if not ok:
            raise argparse.ArgumentTypeError(
                f"must be a finite number {'>' if positive else '>='} 0, "
                f"got {text!r}")
        return value
    return parse


def _env_seed() -> int:
    try:
        return _int_from(0)(os.environ.get(SEED_ENV, "0"))
    except argparse.ArgumentTypeError as e:
        raise UsageError(f"{SEED_ENV} {e}") from None


def _sidecar(out_path: Path, name: str) -> Path:
    """``<out>/<name>`` for a directory output, else ``<out>.<name>``."""
    if out_path.is_dir() or not out_path.suffix:
        return out_path / name
    return out_path.with_name(f"{out_path.name}.{name}")


def _dumps(obj, indent=None) -> str:
    """The one JSON encoding of the files subcommands write. JSON has no
    number for a non-finite float; it is written as its repr string
    ("inf", "-inf", "nan")."""
    def plain(v):
        if isinstance(v, float) and not math.isfinite(v):
            return repr(float(v))
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [plain(x) for x in v]
        return v
    return json.dumps(plain(obj), indent=indent, sort_keys=True, allow_nan=False)


def _write_json(path: Path, obj) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_dumps(obj, indent=2) + "\n")
    return path


def _write_manifest(out_path: Path, subcommand: str, config: dict,
                    inputs: dict, outputs: list):
    """config is ``vars(args)`` (plus extras); its ``started`` is the
    perf_counter reading main() took when it began. The thread facts are
    the BLAS library with its build configuration and the BLAS/OpenMP
    thread variables (null when unset), the CPU count, the tensor kernels'
    worker count and the thread count BLAS runs at (null when it cannot be
    read)."""
    wall = time.perf_counter() - config["started"]
    config = {k: v for k, v in config.items()
              if k not in ("fn", "cmd", "started")}
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    blas |= {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "seed": config.get("seed"),
        "inputs": inputs,
        "outputs": [str(o) for o in outputs],
        "tool_version": __version__,
        "numpy_version": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "workers": tensor.WORKERS,
        "blas_threads": tensor.blas_threads(),
        "wall_seconds": wall,
    }
    return _write_json(_sidecar(out_path, "manifest.json"), manifest)


def _write_records(path, records):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for rec in records:
            fh.write(_dumps(rec) + "\n")


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
    # HR cropped to a multiple of the scale, as the SR frames come out
    model_io.write_frames(out / "hr", video.hr)
    meta = {
        "chunks": video.num_chunks,
        "scale": video.scale,
        "frames": video.num_frames,
        "boundaries": [list(b) for b in video.boundaries],
        "hr_dir": str(out / "hr"),
        "lr_dims": list(video.lr[0].shape[1:]),
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "chunks.json").write_text(json.dumps(meta, indent=2) + "\n")
    _write_manifest(out, "chunk", vars(args) | {"out": str(out)},
                    {"frames": str(src)},
                    [out / "chunks.json", out / "lr", out / "hr"])
    _log(f"chunk: {video.num_frames} frames -> {video.num_chunks} chunks, "
         f"LR {meta['lr_dims'][0]}x{meta['lr_dims'][1]} in {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    if args.baseline_per_chunk and args.log:
        raise UsageError("--log does not apply to --baseline-per-chunk, "
                         "which writes <out>/metrics.jsonl")
    hr = model_io.read_frames(Path(args.frames))
    video = make_lr(chunk_video(hr, args.chunks), args.scale)
    cfg = TrainConfig(scale=args.scale, chunks=args.chunks, iters=args.iters,
                      batch=args.batch, lr_rate=args.lr, patch=args.patch,
                      sampler=args.sampler, tvp_size=args.tvp_size,
                      seed=args.seed)
    if args.epochs is not None:
        cfg = dataclasses.replace(
            cfg, iters=args.epochs * epoch_length(video, cfg))
    backbone = BackboneConfig(channels=args.channels, blocks=args.blocks,
                              branches=args.branches, scale=args.scale)
    chunks_header = {"count": video.num_chunks,
                     "boundaries": [list(b) for b in video.boundaries]}
    check_patch(video, cfg.patch)
    # --out and --log are checked and created once the set-up checks pass,
    # before the run
    out = Path(args.out)
    log_path = Path(args.log or f"{out}.metrics.jsonl")
    if args.baseline_per_chunk:
        out.mkdir(parents=True, exist_ok=True)
    else:
        for path in (out, log_path):
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                        str(path))
            path.parent.mkdir(parents=True, exist_ok=True)
    tvp_side = 0  # the side the trained prompts have; the baseline has none
    try:
        # a diverging run overflows before the non-finite loss check stops
        # it; that check reports it, and numpy's warnings would repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            if args.baseline_per_chunk:
                results = train_baseline_per_chunk(video, backbone, cfg)
            else:
                net = build_backbone(backbone, seed=cfg.seed)
                prompts = default_prompts(video, cfg.tvp_size)
                tvp_side = prompts[0].size_h if prompts else 0
                res = train(net, prompts, video, cfg)
    except TrainDiverged as e:
        dump = _write_json(_sidecar(out, "diagnostic.json"), e.diagnostic())
        _log(f"numeric failure: {e}")
        _log(f"diagnostics written to {dump}")
        return EXIT_NUMERIC
    # --tvp-size is clipped to the LR frame; the manifest records the result
    config = vars(args) | {"resolved": cfg.snapshot() | {"tvp_size": tvp_side}}

    if args.baseline_per_chunk:
        outputs = []
        records = []
        for k, (res, (lo, hi)) in enumerate(zip(results, video.boundaries)):
            path = out / f"chunk{k:02d}.rcam"
            model_io.save_model(path, res.net, [],
                                chunks={"count": 1, "boundaries": [[0, hi - lo]]},
                                train_config=res.config.snapshot())
            outputs.append(path)
            records.extend({"chunk": k, **entry} for entry in res.log)
            _log(f"train[baseline chunk {k}]: loss {res.first_loss:.4f} -> "
                 f"{res.final_loss:.4f}")
        _write_records(out / "metrics.jsonl", records)
        _write_manifest(out, "train", config,
                        {"frames": args.frames}, outputs)
        return EXIT_OK

    model_io.save_model(out, res.net, res.prompts, chunks=chunks_header,
                        train_config=res.config.snapshot())
    _write_records(log_path, res.log)
    _write_manifest(out, "train", config,
                    {"frames": args.frames}, [out, log_path])
    # reported once every output is written, so a failing check or write
    # prints only its own line
    _log(f"train: {param_count(res.net)} params, {video.num_chunks} chunks, "
         f"{len(res.prompts)} prompts, {cfg.iters} iterations")
    for entry in res.log:
        _log(f"train: epoch {entry['epoch']} iter {entry['iter']} "
             f"loss {entry['loss']:.4f} psnr {entry['psnr_eval']:.2f}")
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


def cmd_infer(args) -> int:
    out = Path(args.out)
    chunked = Path(args.chunked)
    for src in (chunked, chunked / "lr"):
        if out.resolve() == src.resolve():
            raise InputError(f"--out {out} is the input directory {src}; "
                             f"infer would overwrite its frames")
    net, prompts, _ = model_io.load_model(args.model)
    meta, frames = _load_chunk_dir(chunked)
    if net.config.scale != meta["scale"]:
        raise ValidationError(f"model upscales x{net.config.scale}, "
                              f"chunks.json says x{meta['scale']}")
    if len(prompts) not in (0, meta["chunks"]):
        raise ValidationError(f"model carries {len(prompts)} prompts, "
                              f"chunks.json has {meta['chunks']} chunks")
    sr = [sr_frame(net, prompts[chunk_index(meta["boundaries"], i)]
                   if prompts else None, f).data[0]
          for i, f in enumerate(frames)]
    model_io.write_frames(out, sr)
    _write_manifest(out, "infer", vars(args),
                    {"model": args.model, "chunked": args.chunked},
                    [model_io.frame_path(out, i) for i in range(len(sr))])
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
    if lr is not None:
        if len(lr) != len(sr):
            raise UsageError(f"frame count mismatch: {len(sr)} SR vs {len(lr)} LR")
        (lh, lw), (h, w) = lr[0].shape[1:], sr[0].shape[1:]
        if (lh * args.scale, lw * args.scale) != (h, w):
            raise UsageError(f"LR frames are {lh}x{lw}, but SR {h}x{w} at "
                             f"x{args.scale} needs {h / args.scale:g}x"
                             f"{w / args.scale:g}")

    records = []
    for i, (a, b) in enumerate(zip(sr, hr)):
        if args.quantize_8bit:
            a, b = _quantize(a), _quantize(b)
        a, b = Tensor4(a[None]), Tensor4(b[None])
        rec = {"frame": i, "psnr": metrics.psnr(a, b),
               "ssim": metrics.ssim(a, b)}
        if lr is not None:
            rec["consistency"] = metrics.consistency(
                Tensor4(lr[i][None]), a, args.scale)
        records.append(rec)

    if args.records:
        _write_records(args.records, records)
        _write_manifest(Path(args.records), "eval", vars(args),
                        {"sr": args.sr, "hr": args.hr, "lr": args.lr},
                        [args.records])
    mean_psnr = float(np.mean([r["psnr"] for r in records]))
    mean_ssim = float(np.mean([r["ssim"] for r in records]))
    _log(f"eval: frames {len(records)}  PSNR {mean_psnr:.3f} dB  "
         f"SSIM {mean_ssim:.4f}")
    if lr is not None:
        mean_c = float(np.mean([r["consistency"] for r in records]))
        _log(f"eval: consistency (x1e-1) {mean_c:.3f}")
    return EXIT_OK


def cmd_cost_report(args) -> int:
    meta, _ = _load_chunk_dir(Path(args.chunked))
    lr_dir = Path(args.chunked) / "lr"
    lr_chunks = [[model_io.frame_path(lr_dir, i) for i in range(lo, hi)]
                 for lo, hi in meta["boundaries"]]
    overrides = None
    if args.size_file:
        n = len(meta["boundaries"])
        try:
            overrides = json.loads(Path(args.size_file).read_text())
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise InputError(f"{args.size_file}: not JSON ({e})") from None
        if not (isinstance(overrides, list) and len(overrides) == n and all(
                type(v) is int and v >= 0 for v in overrides)):
            raise InputError(f"{args.size_file}: must be a list of {n} "
                             f"non-negative ints, one per chunk, got "
                             f"{overrides!r}")
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
    report = metrics.cost_report(
        args.scheme, lr_chunks, model_files,
        prompt_bytes=prompt_bytes if args.scheme == "shared-model+tvp" else None,
        lr_override_bytes=overrides)
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
    _log(f"cost-report [{args.scheme}] N={report.chunk_count}")
    _log(f"  LR bytes per chunk: {report.lr_bytes}")
    _log(f"  model bytes: {report.model_bytes}  prompt bytes: {report.prompt_bytes}")
    _log(f"  LR+MODEL (TOTAL) MB: {report.format_line()}")
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
    sp.add_argument("--frames", type=_int_from(1), default=16)
    # the smallest frame the scene pattern can draw is 9x9
    sp.add_argument("--height", type=_int_from(9), default=96)
    sp.add_argument("--width", type=_int_from(9), default=96)
    sp.add_argument("--shift-y", type=int, default=1)
    sp.add_argument("--shift-x", type=int, default=2)
    sp.add_argument("--seed", type=_int_from(0), default=None)
    sp.set_defaults(fn=cmd_synth)

    cp = sub.add_parser("chunk", help="split into chunks and write LR frames")
    cp.add_argument("--frames", required=True, help="HR frame directory")
    cp.add_argument("--out", required=True)
    cp.add_argument("--chunks", type=_int_from(1), default=9)
    cp.add_argument("--scale", type=int, default=2, choices=(2, 3, 4))
    cp.set_defaults(fn=cmd_chunk)

    tp = sub.add_parser("train", help="train one content-aware model per video")
    tp.add_argument("--frames", required=True, help="HR frame directory")
    tp.add_argument("--out", required=True, help="model container path "
                    "(directory in --baseline-per-chunk mode)")
    tp.add_argument("--scale", type=int, default=2, choices=(2, 3, 4))
    tp.add_argument("--chunks", type=_int_from(1), default=9)
    tp.add_argument("--branches", type=_int_from(1), default=3)
    tp.add_argument("--channels", type=_int_from(1), default=16)
    tp.add_argument("--blocks", type=_int_from(1), default=2)
    tp.add_argument("--tvp-size", type=_int_from(0), default=48,
                    help="prompt size in LR pixels; 0 disables prompts")
    tp.add_argument("--sampler", choices=("uniform", "loss"), default="loss")
    tp.add_argument("--baseline-per-chunk", action="store_true",
                    help="train independent single-branch models per chunk")
    tp.add_argument("--seed", type=_int_from(0), default=None)
    tp.add_argument("--epochs", type=_int_from(1), default=None)
    tp.add_argument("--iters", type=_int_from(1), default=2000)
    tp.add_argument("--batch", type=_int_from(1), default=32)
    tp.add_argument("--patch", type=_int_from(1), default=48)
    tp.add_argument("--lr", type=_finite(positive=True), default=5e-5,
                    help="learning rate (toy runs converge faster near 2e-3)")
    tp.add_argument("--log", default=None, help="metrics jsonl path "
                    "(default <out>.metrics.jsonl; not with --baseline-per-chunk)")
    tp.set_defaults(fn=cmd_train)

    fp = sub.add_parser("fuse", help="collapse a trained model for delivery")
    fp.add_argument("--model", required=True)
    fp.add_argument("--out", required=True)
    fp.set_defaults(fn=cmd_fuse)

    vp = sub.add_parser("verify-fuse", help="check fused against multi-branch")
    vp.add_argument("--model", required=True)
    vp.add_argument("--tolerance", type=_finite(positive=False), default=1e-4)
    vp.add_argument("--trials", type=_int_from(1), default=20)
    vp.add_argument("--seed", type=_int_from(0), default=None)
    vp.set_defaults(fn=cmd_verify_fuse)

    ip = sub.add_parser("infer", help="super-resolve delivered LR chunks")
    ip.add_argument("--model", required=True)
    ip.add_argument("--chunked", required=True, help="output dir of `chunk`")
    ip.add_argument("--out", required=True)
    ip.set_defaults(fn=cmd_infer)

    ep = sub.add_parser("eval", help="PSNR/SSIM (and consistency) vs HR")
    ep.add_argument("--sr", required=True)
    ep.add_argument("--hr", required=True)
    ep.add_argument("--lr", default=None)
    ep.add_argument("--scale", type=int, default=2, choices=(1, 2, 3, 4))
    ep.add_argument("--quantize-8bit", action="store_true")
    ep.add_argument("--records", default=None)
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
        # only a subcommand with --seed reads the variable, and only when
        # --seed is not given
        if getattr(args, "seed", 0) is None:
            args.seed = _env_seed()
        args.started = started
        return args.fn(args)
    except UsageError as e:
        _log(f"usage error: {e}")
        return EXIT_USAGE
    except (OSError, InputError) as e:
        _log(f"input error: {e}")
        return EXIT_USAGE
    except ValidationError as e:
        _log(f"validation error: {e}")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
