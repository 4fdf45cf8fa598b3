"""End-to-end content-aware training.

Chunking, LR generation, patch sampling (uniform or loss-weighted), the
Adam loop that trains network weights and per-chunk prompts jointly, and
the per-chunk-independent-models baseline.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .autodiff import Tape
from .network import (
    BackboneConfig,
    build_backbone,
    net_forward,
    rebuild_with_params,
    sr_forward,
)
from .prompt import apply_prompt, make_prompt, patch_placement
from .tensor import ShapeMismatch, Tensor4, ValidationError, _bicubic_resize

EVAL_FRAME_STRIDE = 10  # evaluate on 1 frame out of 10
GRID_CELL = 48          # sampler grid cell, HR pixels
EMA_DECAY = 0.9
EMA_FLOOR = 0.1         # floor = this fraction of the mean EMA
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
DECAY_EPOCH = 200       # from this epoch on, the learning rate is
DECAY_FACTOR = 0.5      # scaled by this factor, once


# losses kept for the divergence dump
DIVERGED_LOSSES = 8


class TrainDiverged(RuntimeError):
    """Loss left the finite range. Carries the iteration, the learning
    rate, the last DIVERGED_LOSSES losses, every parameter's gradient
    norm from the previous iteration and the config snapshot."""

    def __init__(self, iteration, lr, losses, grad_norms, config):
        norms = ", ".join(f"{k}={v:.3g}" for k, v in
                          sorted(grad_norms.items())[:4])
        super().__init__(f"non-finite loss at iteration {iteration} "
                         f"(lr={lr:.3g}; last grad norms: {norms or 'n/a'})")
        self.iteration = iteration
        self.lr = lr
        self.losses = list(losses)
        self.grad_norms = dict(grad_norms)
        self.config = config

    def diagnostic(self) -> dict:
        """The dump ``vidsr train`` writes on exit 3."""
        return {"error": str(self), "iteration": self.iteration,
                "lr": self.lr, "last_losses": self.losses,
                "grad_norms": self.grad_norms, "config": self.config}


@dataclass
class ChunkedVideo:
    """HR frames split into N contiguous, near-equal chunks, plus their
    bicubically downscaled LR counterparts."""

    scale: int
    hr: list
    lr: list
    boundaries: list  # [(lo, hi)), ...]

    @property
    def num_chunks(self) -> int:
        return len(self.boundaries)

    @property
    def num_frames(self) -> int:
        return len(self.hr)

    def chunk_of(self, frame: int) -> int:
        return chunk_index(self.boundaries, frame)


def chunk_index(boundaries, frame: int) -> int:
    """Index of the [lo, hi) boundary pair that holds ``frame``."""
    for k, (lo, hi) in enumerate(boundaries):
        if lo <= frame < hi:
            return k
    raise IndexError(f"frame {frame} outside all chunks")


def chunk_boundaries(frame_count: int, n_chunks: int) -> list:
    """Chunk k spans [floor(k*F/N), floor((k+1)*F/N))."""
    if n_chunks < 1:
        raise ValidationError("need at least one chunk")
    if n_chunks > frame_count:
        raise ValidationError(
            f"cannot split {frame_count} frames into {n_chunks} chunks")
    return [(k * frame_count // n_chunks, (k + 1) * frame_count // n_chunks)
            for k in range(n_chunks)]


def chunk_video(hr_frames, n_chunks: int) -> ChunkedVideo:
    """Partition frames into chunks; LR frames come from make_lr."""
    frames = [np.ascontiguousarray(f, np.float32) for f in hr_frames]
    for f in frames:
        f.setflags(write=False)
    return ChunkedVideo(0, frames, [], chunk_boundaries(len(frames), n_chunks))


def make_lr(chunked: ChunkedVideo, scale: int) -> ChunkedVideo:
    """Bicubically downscale every HR frame, cropping to a multiple of scale."""
    if scale not in (1, 2, 3, 4):
        raise ValidationError(f"scale must be 1..4, got {scale}")
    hr = []
    lr = []
    for f in chunked.hr:
        _, h, w = f.shape
        hc, wc = (h // scale) * scale, (w // scale) * scale
        if hc == 0 or wc == 0:
            raise ShapeMismatch(f"frame ({h}x{w}) smaller than scale {scale}")
        f = np.ascontiguousarray(f[:, :hc, :wc])
        f.setflags(write=False)
        hr.append(f)
        if scale == 1:
            g = f.copy()
        else:
            g = _bicubic_resize(f[None], hc // scale, wc // scale)[0]
        g = np.ascontiguousarray(g)
        g.setflags(write=False)
        lr.append(g)
    return ChunkedVideo(scale, hr, lr, list(chunked.boundaries))


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and sampling setup; every field lands in the container."""

    scale: int = 2
    chunks: int = 9
    iters: int = 2000
    batch: int = 32
    lr_rate: float = 5e-5
    patch: int = 48
    sampler: str = "loss"  # "loss" (EMA-weighted) or "uniform"
    tvp_size: int = 48     # 0 disables prompts
    seed: int = 0

    def __post_init__(self):
        if self.sampler not in ("loss", "uniform"):
            raise ValidationError(f"unknown sampler {self.sampler!r}")
        if self.patch % self.scale:
            raise ValidationError("patch size must be a multiple of the scale")

    def snapshot(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PatchRef:
    frame: int
    chunk: int
    y: int  # HR coordinates, aligned to scale
    x: int


def check_patch(video: ChunkedVideo, patch: int):
    """Refuse an HR patch side that does not fit the frames."""
    _, h, w = video.hr[0].shape
    if patch > h or patch > w:
        raise ShapeMismatch(f"patch {patch} exceeds frame ({h}x{w})")


class PatchSampler:
    """Draws training patches; the loss strategy keeps an EMA of patch
    L1 loss on a coarse grid and samples cells proportionally to it
    (plus a floor so no cell starves)."""

    def __init__(self, video: ChunkedVideo, config: TrainConfig, rng):
        self.video = video
        self.patch = config.patch
        self.scale = video.scale
        self.strategy = config.sampler
        self.rng = rng
        check_patch(video, self.patch)
        _, h, w = video.hr[0].shape
        self.max_y = h - self.patch
        self.max_x = w - self.patch
        self.grid_h = self.max_y // GRID_CELL + 1
        self.grid_w = self.max_x // GRID_CELL + 1
        self.ema = np.zeros((video.num_frames, self.grid_h, self.grid_w))

    def cell_weights(self) -> np.ndarray:
        """Unnormalized sampling weights, flattened over (frame, gy, gx)."""
        flat = self.ema.ravel()
        mean = flat.mean()
        if mean == 0:
            return np.ones_like(flat)
        return flat + EMA_FLOOR * mean

    def _position_in_cell(self, gy, gx):
        lo_y = gy * GRID_CELL
        hi_y = min((gy + 1) * GRID_CELL - 1, self.max_y)
        lo_x = gx * GRID_CELL
        hi_x = min((gx + 1) * GRID_CELL - 1, self.max_x)
        y = int(self.rng.integers(lo_y // self.scale, hi_y // self.scale + 1))
        x = int(self.rng.integers(lo_x // self.scale, hi_x // self.scale + 1))
        return y * self.scale, x * self.scale

    def sample(self, count: int) -> list:
        if self.strategy == "uniform":
            cells = self.rng.integers(0, self.ema.size, size=count)
        else:
            w = self.cell_weights()
            cells = self.rng.choice(self.ema.size, size=count, p=w / w.sum())
        refs = []
        for cell in cells:
            f, rest = divmod(int(cell), self.grid_h * self.grid_w)
            gy, gx = divmod(rest, self.grid_w)
            y, x = self._position_in_cell(gy, gx)
            refs.append(PatchRef(f, self.video.chunk_of(f), y, x))
        return refs

    def update(self, refs, losses):
        if self.strategy == "uniform":
            return
        for ref, val in zip(refs, losses):
            gy = min(ref.y // GRID_CELL, self.grid_h - 1)
            gx = min(ref.x // GRID_CELL, self.grid_w - 1)
            cur = self.ema[ref.frame, gy, gx]
            self.ema[ref.frame, gy, gx] = EMA_DECAY * cur + (1 - EMA_DECAY) * val


@dataclass
class TrainResult:
    net: object
    prompts: list
    config: TrainConfig   # the config the run trained with
    log: list = field(default_factory=list)
    first_loss: float = math.nan
    final_loss: float = math.nan


class Adam:
    def __init__(self, shapes: dict):
        self.m = {k: np.zeros(s, np.float32) for k, s in shapes.items()}
        self.v = {k: np.zeros(s, np.float32) for k, s in shapes.items()}
        self.t = 0

    def step(self, params: dict, grads: dict, lr: float):
        self.t += 1
        corr1 = 1 - ADAM_BETA1 ** self.t
        corr2 = 1 - ADAM_BETA2 ** self.t
        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * g * g
            params[name] = params[name] - lr * (m / corr1) / (
                np.sqrt(v / corr2) + ADAM_EPS)


def _gather_batch(video, refs, patch):
    s = video.scale
    p = patch // s
    lr = np.stack([video.lr[r.frame][:, r.y // s:r.y // s + p,
                                     r.x // s:r.x // s + p] for r in refs])
    hr = np.stack([video.hr[r.frame][:, r.y:r.y + patch,
                                     r.x:r.x + patch] for r in refs])
    return lr, hr


def _batch_placements(video, refs, prompts, patch):
    """Tape placements for every patch that intersects its chunk's prompt."""
    s = video.scale
    p = patch // s
    _, lh, lw = video.lr[0].shape
    placements = []
    for bi, r in enumerate(refs):
        pr = prompts[r.chunk]
        overlap = patch_placement(pr, lh, lw, r.y // s, r.x // s, p, p)
        if overlap is not None:
            fy, fx, py, px, h, w = overlap
            placements.append((r.chunk, bi, fy, fx, py, px, h, w))
    return placements


def epoch_length(video: ChunkedVideo, config: TrainConfig) -> int:
    """Iterations per epoch: enough batches to cover every scale-aligned
    patch position of every frame once."""
    _, h, w = video.hr[0].shape
    ny = (h - config.patch) // config.scale + 1
    nx = (w - config.patch) // config.scale + 1
    return max(1, math.ceil(video.num_frames * ny * nx / config.batch))


def sr_frame(net, prompt, lr: np.ndarray) -> Tensor4:
    """The client's step for one (3, h, w) LR frame: add its chunk's
    prompt (None for no prompt), then super-resolve, clamped to [0, 1]."""
    x = Tensor4(lr[None])
    if prompt is not None:
        x = apply_prompt(x, prompt)
    return sr_forward(net, x, clamp=True)


def eval_frames(video: ChunkedVideo) -> list:
    return list(range(0, video.num_frames, EVAL_FRAME_STRIDE))


def evaluate_psnr(net, prompts, video: ChunkedVideo, frames=None) -> float:
    """Mean PSNR of clamped SR output against HR on the eval frames."""
    from .metrics import psnr

    if frames is None:
        frames = eval_frames(video)
    vals = []
    for f in frames:
        y = sr_frame(net, prompts[video.chunk_of(f)] if prompts else None,
                     video.lr[f])
        vals.append(psnr(y, Tensor4(video.hr[f][None])))
    return float(np.mean(vals))


def train(net, prompts, video: ChunkedVideo, config: TrainConfig) -> TrainResult:
    """Joint Adam training of network weights and per-chunk prompts.

    Patches are drawn across chunks; each patch is prompted by its
    chunk's prompt (the overlapping sub-rectangle) before the forward
    pass. Deterministic for a fixed config and inputs.
    """
    if prompts and len(prompts) != video.num_chunks:
        raise ValidationError(f"need one prompt per chunk "
                              f"({video.num_chunks}), got {len(prompts)}")
    if any(p.chunk_id != k for k, p in enumerate(prompts)):
        raise ValidationError("prompts must be ordered by chunk id")
    rng = np.random.default_rng(config.seed)
    sampler = PatchSampler(video, config, rng)
    params = {name: arr.copy() for name, arr in net.params.items()}
    for p in prompts:
        params[f"prompt{p.chunk_id}"] = p.values.copy()
    adam = Adam({k: v.shape for k, v in params.items()})
    epoch_len = epoch_length(video, config)

    result = TrainResult(net=net, prompts=prompts, config=config)
    last_grad_norms = {}
    recent_losses = deque(maxlen=DIVERGED_LOSSES)
    for it in range(config.iters):
        epoch = it // epoch_len
        lr_t = config.lr_rate * (DECAY_FACTOR if epoch >= DECAY_EPOCH else 1.0)
        refs = sampler.sample(config.batch)
        lr_batch, hr_batch = _gather_batch(video, refs, config.patch)

        tape = Tape()
        pnodes = {name: tape.leaf(arr) for name, arr in params.items()}
        x = tape.leaf(lr_batch)
        if prompts:
            placements = _batch_placements(video, refs, prompts, config.patch)
            x = tape.apply_patches(
                x, [pnodes[f"prompt{p.chunk_id}"] for p in prompts],
                placements)
        y = net_forward(tape, net, pnodes, x)
        loss = tape.l1_loss(y, hr_batch)
        loss_val = float(loss.value.ravel()[0])
        if it == 0:
            result.first_loss = loss_val
        recent_losses.append(loss_val)
        if not math.isfinite(loss_val):
            raise TrainDiverged(it, lr_t, recent_losses, last_grad_norms,
                                config.snapshot())

        node_grads = tape.backward(loss)
        grads = {}
        for name, node in pnodes.items():
            g = node_grads.get(node.id)
            if g is None:
                g = np.zeros_like(params[name])
            grads[name] = g
        last_grad_norms = {k: float(np.linalg.norm(g)) for k, g in grads.items()}
        adam.step(params, grads, lr_t)
        for p in prompts:
            p.values = params[f"prompt{p.chunk_id}"]

        per_sample = np.abs(y.value - hr_batch).mean(axis=(1, 2, 3))
        sampler.update(refs, per_sample)
        result.final_loss = loss_val

        if (it + 1) % epoch_len == 0 or it + 1 == config.iters:
            current = rebuild_with_params(net, params)
            result.log.append({
                "epoch": epoch,
                "iter": it + 1,
                "loss": loss_val,
                "psnr_eval": evaluate_psnr(current, prompts, video),
            })

    result.net = rebuild_with_params(net, params)
    result.prompts = prompts
    return result


def default_prompts(video: ChunkedVideo, size: int) -> list:
    """One zero prompt per chunk, clipped to the LR frame size."""
    if size <= 0:
        return []
    _, lh, lw = video.lr[0].shape
    s = min(size, lh, lw)
    return [make_prompt(k, s) for k in range(video.num_chunks)]


def train_video(hr_frames, backbone: BackboneConfig,
                config: TrainConfig) -> tuple:
    """Convenience wrapper: chunk, downscale, build, train."""
    video = make_lr(chunk_video(hr_frames, config.chunks), config.scale)
    net = build_backbone(backbone, seed=config.seed)
    prompts = default_prompts(video, config.tvp_size)
    return train(net, prompts, video, config), video


def train_baseline_per_chunk(video: ChunkedVideo, backbone: BackboneConfig,
                             config: TrainConfig) -> list:
    """One independent single-branch model per chunk, no prompts."""
    results = []
    base = replace(backbone, branches=1)
    for k, (lo, hi) in enumerate(video.boundaries):
        sub = ChunkedVideo(video.scale, video.hr[lo:hi], video.lr[lo:hi],
                           [(0, hi - lo)])
        cfg_k = replace(config, chunks=1, tvp_size=0, seed=config.seed + k)
        net = build_backbone(base, seed=cfg_k.seed)
        results.append(train(net, [], sub, cfg_k))
    return results
