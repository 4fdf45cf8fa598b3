"""Bit-exact serialization: model containers, PPM frame stores, synthetic video.

Container layout (all integers little-endian):

    magic "RCAM" | version u16 | header_len u32 | header JSON (UTF-8)
    | payload (raw float32 per manifest order) | crc32(payload) u32

The JSON header carries the architecture, chunking, prompt geometry, a
training-config snapshot and the tensor manifest, so a loader needs no
out-of-band configuration.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .network import BackboneConfig, net_from_params, param_shapes
from .prompt import VisualPrompt
from .tensor import ShapeMismatch, ValidationError

MAGIC = b"RCAM"
FORMAT_VERSION = 1


class InputError(Exception):
    """A malformed or unreadable input file: a model container, a PPM
    frame or frame directory, ``chunks.json`` or a size file."""


@dataclass
class ModelContainer:
    header: dict
    tensors: dict  # name -> float32 ndarray, manifest order


def save_container(path, container: ModelContainer):
    header = dict(container.header)
    header["manifest"] = [
        {"name": name, "dims": list(arr.shape)}
        for name, arr in container.tensors.items()
    ]
    header["tool_version"] = __version__
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    payload = b"".join(
        np.ascontiguousarray(arr, np.float32).astype("<f4").tobytes()
        for arr in container.tensors.values())
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload)))


def load_container(path) -> ModelContainer:
    raw = Path(path).read_bytes()
    if len(raw) < 10 or raw[:4] != MAGIC:
        raise InputError(f"{path}: not a model container")
    (version,) = struct.unpack_from("<H", raw, 4)
    if version != FORMAT_VERSION:
        raise InputError(f"{path}: format version {version}")
    (hlen,) = struct.unpack_from("<I", raw, 6)
    if len(raw) < 10 + hlen + 4:
        raise InputError(f"{path}: header runs past end of file")
    try:
        header = json.loads(raw[10:10 + hlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise InputError(f"{path}: bad header ({e})") from None
    manifest = header.get("manifest") if isinstance(header, dict) else None
    if not isinstance(manifest, list):
        raise InputError(f"{path}: header lacks a tensor manifest")
    for i, entry in enumerate(manifest):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise InputError(f"{path}: manifest entry {i} lacks a tensor name")
        dims = entry.get("dims")
        if not (isinstance(dims, list)
                and all(type(d) is int and d >= 0 for d in dims)):
            raise InputError(f"{path}: manifest entry {entry['name']!r} "
                             f"lacks int dims, got {dims!r}")
    counts = [math.prod(entry["dims"]) for entry in manifest]
    payload_len = sum(counts) * 4
    start = 10 + hlen
    if len(raw) < start + payload_len + 4:
        raise InputError(f"{path}: payload truncated")
    payload = raw[start:start + payload_len]
    (crc,) = struct.unpack_from("<I", raw, start + payload_len)
    if zlib.crc32(payload) != crc:
        raise InputError(f"{path}: payload CRC mismatch")
    tensors = {}
    offset = 0
    for entry, count in zip(manifest, counts):
        arr = np.frombuffer(payload, "<f4", count, offset).reshape(entry["dims"])
        tensors[entry["name"]] = np.ascontiguousarray(arr, np.float32)
        offset += count * 4
    return ModelContainer(header, tensors)


# ---------------------------------------------------------------------------
# model-level save/load
# ---------------------------------------------------------------------------

ARCH_FIELDS = {"channels": int, "blocks": int, "branches": int,
               "scale": int, "global_skip": bool}


def _arch_header(config: BackboneConfig) -> dict:
    # "merge" is always "sum"; loaders reject any other value
    return {"kind": "fused" if config.branches == 1 else "training",
            **asdict(config), "merge": "sum"}


def save_model(path, net, prompts=(), chunks=None, train_config=None):
    """Write a network plus its per-chunk prompts."""
    header = {"arch": _arch_header(net.config)}
    if chunks is not None:
        header["chunks"] = chunks
    if train_config is not None:
        header["train_config"] = train_config
    prompts = list(prompts)
    header["prompts"] = [
        {"chunk_id": p.chunk_id, "dims": list(p.values.shape)} for p in prompts
    ]
    tensors = dict(net.params)
    for p in prompts:
        tensors[f"prompt{p.chunk_id}"] = p.values
    save_container(path, ModelContainer(header, tensors))


def _net_from_container(container: ModelContainer):
    arch = container.header.get("arch")
    if not isinstance(arch, dict):
        raise InputError("container has no architecture header")
    for key in ("kind", "merge", *ARCH_FIELDS):
        if key not in arch:
            raise InputError(f"architecture header lacks {key!r}")
    if arch["merge"] != "sum":
        raise InputError(f"unsupported merge {arch['merge']!r} (only 'sum')")
    for key, kind in ARCH_FIELDS.items():
        if type(arch[key]) is not kind:
            raise InputError(f"architecture {key!r} must be "
                             f"{kind.__name__}, got {arch[key]!r}")
    try:
        cfg = BackboneConfig(**{key: arch[key] for key in ARCH_FIELDS})
    except ValidationError as e:
        raise InputError(f"bad architecture: {e}") from None
    want = _arch_header(cfg)["kind"]
    if arch["kind"] != want:
        raise InputError(f"architecture kind {arch['kind']!r} does not fit "
                         f"{cfg.branches} branches (want {want!r})")
    try:
        return net_from_params(cfg, container.tensors)
    except KeyError as e:
        raise InputError(f"container missing tensor {e}") from None
    except ShapeMismatch as e:
        raise InputError(f"tensors do not fit the architecture: {e}") from None


def load_model(path):
    """Returns (net, prompts, header). Self-describing; no extra config.
    Prompts carry chunk ids 0..n-1 in container order. A tensor that is
    neither a parameter of the header's architecture nor a declared
    prompt is refused, so a header that understates the architecture
    cannot load a smaller network."""
    container = load_container(path)
    net = _net_from_container(container)
    entries = container.header.get("prompts", [])
    if not isinstance(entries, list):
        raise InputError(f"{path}: 'prompts' must be a list")
    prompts = []
    for i, entry in enumerate(entries):
        cid = entry.get("chunk_id") if isinstance(entry, dict) else None
        if type(cid) is not int:
            raise InputError(f"{path}: prompt entry {i} lacks an int chunk_id")
        values = container.tensors.get(f"prompt{cid}")
        if values is None:
            raise InputError(f"{path}: container missing tensor 'prompt{cid}'")
        if entry.get("dims") != list(values.shape):
            raise InputError(f"{path}: prompt {cid} dims {entry.get('dims')!r} "
                             f"differ from its tensor's {list(values.shape)}")
        if cid != i:
            raise InputError(f"{path}: prompt entry {i} has chunk_id {cid}; "
                             f"prompts must carry chunk ids 0..{len(entries) - 1}"
                             f" in order")
        try:
            prompts.append(VisualPrompt(cid, values))
        except ShapeMismatch as e:
            raise InputError(f"{path}: prompt {cid}: {e}") from None
    named = set(param_shapes(net.config)) | {f"prompt{p.chunk_id}" for p in prompts}
    unnamed = sorted(set(container.tensors) - named)
    if unnamed:
        raise InputError(f"{path}: tensor {unnamed[0]!r} is neither a parameter "
                         f"of the architecture nor a declared prompt"
                         f" ({len(unnamed)} such tensors)")
    return net, prompts, container.header


def prompt_payload_bytes(header) -> list:
    """Raw float32 byte size of each serialized prompt, container order."""
    return [math.prod(e["dims"]) * 4 for e in header.get("prompts", [])]


# ---------------------------------------------------------------------------
# PPM frame store
# ---------------------------------------------------------------------------

def float_to_byte(v: np.ndarray) -> np.ndarray:
    """[0,1] float to 8-bit, round-half-away-from-zero after clamping."""
    # every value is >= 0.5 after the add, so the truncating cast is the floor
    v = np.clip(v, 0.0, 1.0)
    v *= 255.0
    v += 0.5
    return v.astype(np.uint8)


def write_ppm(path, frame: np.ndarray):
    """frame: (3, H, W) float32 in [0,1]."""
    if frame.ndim != 4 and frame.ndim != 3:
        raise ShapeMismatch(f"frame must be (3,H,W), got {frame.shape}")
    if frame.ndim == 4:
        frame = frame[0]
    c, h, w = frame.shape
    if c != 3:
        raise ShapeMismatch(f"frame must have 3 channels, got {c}")
    planes = float_to_byte(frame)
    rgb = np.empty((h, w, 3), np.uint8)
    for ch in range(3):
        rgb[:, :, ch] = planes[ch]
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(rgb)


def _read_token(fh):
    tok = b""
    while True:
        ch = fh.read(1)
        if not ch:
            raise InputError("unexpected end of PPM header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = fh.read(1)
            continue
        if ch.isspace():
            if tok:
                return tok
            continue
        tok += ch


def _read_int(fh, path):
    tok = _read_token(fh)
    if not tok.isdigit():
        raise InputError(f"{path}: non-numeric PPM header token {tok!r}")
    return int(tok)


def read_ppm(path) -> np.ndarray:
    """Returns a (3, H, W) float32 array with values v/255."""
    with open(path, "rb") as fh:
        if fh.read(2) != b"P6":
            raise InputError(f"{path}: not a binary PPM (P6)")
        w = _read_int(fh, path)
        h = _read_int(fh, path)
        maxval = _read_int(fh, path)
        if maxval != 255:
            raise InputError(f"{path}: only maxval 255 supported, got {maxval}")
        if w < 1 or h < 1:
            raise InputError(f"{path}: empty frame {w}x{h}")
        # checked before reading, so a huge header allocates nothing
        if w * h * 3 > os.fstat(fh.fileno()).st_size - fh.tell():
            raise InputError(f"{path}: pixel data truncated")
        data = fh.read(w * h * 3)
    rgb = np.frombuffer(data, np.uint8).reshape(h, w, 3)
    return np.ascontiguousarray(rgb.transpose(2, 0, 1)).astype(np.float32) / 255.0


def frame_path(directory, index: int) -> Path:
    return Path(directory) / f"frame_{index:05d}.ppm"


def write_frames(directory, frames):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(frames):
        write_ppm(frame_path(directory, i), frame)


def read_frames(directory):
    """Load frame_00000.ppm ... as a list of (3,H,W) float32 arrays."""
    directory = Path(directory)
    paths = sorted(directory.glob("frame_*.ppm"))
    if not paths:
        raise InputError(f"no frames found in {directory}")
    frames = []
    dims = None
    for i, p in enumerate(paths):
        if p != frame_path(directory, i):
            raise InputError(f"frame indices not contiguous at {p.name}")
        f = read_ppm(p)
        if dims is None:
            dims = f.shape
        elif f.shape != dims:
            raise InputError(
                f"frame {i} dims {f.shape[1:]} differ from {dims[1:]}")
        frames.append(f)
    return frames


# ---------------------------------------------------------------------------
# synthetic video (stands in for real footage)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    frames: int = 16
    height: int = 96
    width: int = 96
    shift: tuple = (1, 2)  # per-frame translation (dy, dx), torus wrap
    seed: int = 0


def _scene_pattern(rng, h, w):
    """Sinusoidal gradients, crisp random rectangles, one pixel-art block.

    Crisp edges and the 4-px-cell texture block are what a plain bicubic
    upscale blurs and an overfit model can reconstruct.
    """
    yy, xx = np.mgrid[0:h, 0:w]
    chans = []
    for _ in range(3):
        # low spatial frequency: the background translates gently, so the
        # midpoint scene change dominates the difference-energy profile
        fy, fx = rng.uniform(0.3, 1.2, 2)
        phase = rng.uniform(0, 2 * np.pi)
        chans.append(0.5 + 0.4 * np.sin(
            2 * np.pi * (fy * yy / h + fx * xx / w) + phase))
    pattern = np.stack(chans)
    for _ in range(10):
        rh = int(rng.integers(h // 8, h // 3))
        rw = int(rng.integers(w // 8, w // 3))
        ry = int(rng.integers(0, h - rh))
        rx = int(rng.integers(0, w - rw))
        pattern[:, ry:ry + rh, rx:rx + rw] = rng.uniform(0, 1, 3)[:, None, None]
    # narrower than the frame, so a portrait frame down to 9 wide has room
    side = min(max(8, (h // 3) // 4 * 4), (w - 1) // 4 * 4)
    ty = int(rng.integers(0, h - side))
    tx = int(rng.integers(0, w - side))
    cells = rng.random((3, side // 4, side // 4))
    pattern[:, ty:ty + side, tx:tx + side] = np.repeat(np.repeat(cells, 4, 1), 4, 2)
    return np.clip(pattern, 0.02, 0.98).astype(np.float32)


def generate_synthetic_video(config: SynthConfig):
    """Deterministic frames: a translating scene with an abrupt change
    at the midpoint (so per-chunk prompts have distinct content)."""
    rng = np.random.default_rng(config.seed)
    scene_a = _scene_pattern(rng, config.height, config.width)
    scene_b = _scene_pattern(rng, config.height, config.width)
    dy, dx = config.shift
    cut = config.frames // 2
    frames = []
    for t in range(config.frames):
        scene = scene_a if t < cut else scene_b
        frames.append(np.ascontiguousarray(
            np.roll(scene, (t * dy, t * dx), axis=(1, 2))))
    return frames
