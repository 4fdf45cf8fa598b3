"""Transparent visual prompts: zero-initialized additive patches.

One prompt per video chunk, shared by every frame of that chunk. The
prompt is added element-wise onto a centered region of the LR frame, so
at initialization it has no effect at all; training moves it jointly
with the network weights. Values may leave [0,1] - nothing clamps here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeMismatch, Tensor4

DEFAULT_SIZE = 48


@dataclass
class VisualPrompt:
    """Learnable (C, S_H, S_W) patch tied to one chunk."""

    chunk_id: int
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, np.float32)
        if v.ndim != 3:
            raise ShapeMismatch(f"prompt values must be (C,S_H,S_W), got {v.shape}")
        self.values = v

    @property
    def size_h(self) -> int:
        return self.values.shape[1]

    @property
    def size_w(self) -> int:
        return self.values.shape[2]

    @property
    def channels(self) -> int:
        return self.values.shape[0]


def make_prompt(chunk_id: int, size: int = DEFAULT_SIZE) -> VisualPrompt:
    """Fresh all-zero RGB size x size prompt (transparent until trained)."""
    return VisualPrompt(chunk_id, np.zeros((3, size, size), np.float32))


def centered_offsets(frame_h: int, frame_w: int, size_h: int,
                     size_w: int) -> tuple[int, int]:
    """Top-left corner of the centered prompt region."""
    if size_h > frame_h or size_w > frame_w:
        raise ShapeMismatch(
            f"prompt ({size_h}x{size_w}) larger than frame ({frame_h}x{frame_w})")
    return (frame_h - size_h) // 2, (frame_w - size_w) // 2


def apply_prompt(frame: Tensor4, prompt: VisualPrompt) -> Tensor4:
    """Add the prompt onto the centered region of every frame in the batch."""
    _, c, h, w = frame.dims
    if c != prompt.channels:
        raise ShapeMismatch(f"frame has {c} channels, prompt {prompt.channels}")
    dy, dx = centered_offsets(h, w, prompt.size_h, prompt.size_w)
    out = frame.to_array()
    out[:, :, dy:dy + prompt.size_h, dx:dx + prompt.size_w] += prompt.values
    return Tensor4(out)


def patch_placement(prompt: VisualPrompt, frame_h: int, frame_w: int,
                    patch_y: int, patch_x: int, patch_h: int, patch_w: int):
    """Overlap of the prompt region with a patch cut from the frame.

    Returns (patch_y0, patch_x0, prompt_y0, prompt_x0, h, w) in local
    coordinates, or None when the patch misses the region entirely.
    """
    dy, dx = centered_offsets(frame_h, frame_w, prompt.size_h, prompt.size_w)
    y0 = max(patch_y, dy)
    x0 = max(patch_x, dx)
    y1 = min(patch_y + patch_h, dy + prompt.size_h)
    x1 = min(patch_x + patch_w, dx + prompt.size_w)
    if y0 >= y1 or x0 >= x1:
        return None
    return (y0 - patch_y, x0 - patch_x, y0 - dy, x0 - dx, y1 - y0, x1 - x0)
