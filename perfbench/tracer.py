"""Span tracer that wraps vidsr functions from outside the package.

While a phase is set, every wrapped call records a span: its name, the
span that was open when it started (its parent), start, end and phase.
Spans stay in memory until ``dump``. A span's self time is its duration
minus the durations of its direct children; calls are single-threaded
and properly nested, so the children never overlap.

Modules that import a kernel by name (``from .tensor import _conv2d``)
hold their own reference to it, so a wrapper replaces the function in
every loaded ``vidsr`` module that binds it, not only where it is
defined. Methods are replaced on their class.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

from vidsr import autodiff, fuse, metrics, model_io, network, pipeline, prompt, tensor

EVAL_SPAN = "pipeline.epoch_eval"


def _conv_counts(tracer, args, kwargs):
    x, w = args[0], args[1]
    padding = args[3] if len(args) > 3 else kwargs["padding"]
    b, _, h, wd = x.shape
    o, i, k, _ = w.shape
    ho, wo = h - k + 1 + 2 * padding, wd - k + 1 + 2 * padding
    tracer.count("conv_calls", 1)
    tracer.count("conv_flop", 2 * b * ho * wo * k * k * i * o)


def _im2col_counts(tracer, args, kwargs):
    xp, k = args[0], args[1]
    b, hp, wp, c = xp.shape
    tracer.count("im2col_bytes",
                 b * (hp - k + 1) * (wp - k + 1) * k * k * c * xp.dtype.itemsize)


def _tape_counts(tracer, args, kwargs):
    nodes = args[0].nodes
    tracer.count("tape_nodes", len(nodes))
    tracer.count("tape_conv_nodes", sum(n.op == "conv2d" for n in nodes))
    tracer.count("tape_value_bytes", sum(n.value.nbytes for n in nodes))


def _placement_counts(tracer, args, kwargs):
    tracer.count("placements", len(args[3]))


def _bicubic_name(args, kwargs):
    transpose = args[3] if len(args) > 3 else kwargs.get("transpose", False)
    return "tensor.bicubic_adjoint" if transpose else "tensor.bicubic"


# (owner, attribute, span name or name function, count hook)
TARGETS = (
    (tensor, "_conv2d", "tensor.conv_fwd", _conv_counts),
    (tensor, "_conv2d_grad_input", "tensor.conv_grad_input", None),
    (tensor, "_conv2d_grad_weight", "tensor.conv_grad_weight", None),
    (tensor, "_im2col", "tensor.im2col", _im2col_counts),
    (tensor, "_to_hwc", "tensor.layout", None),
    (tensor, "_to_chw", "tensor.layout", None),
    (tensor, "_bicubic_resize", _bicubic_name, None),
    (tensor, "_pixel_shuffle", "tensor.pixel_shuffle", None),
    (autodiff.Tape, "backward", "autodiff.backward", _tape_counts),
    *((autodiff.Tape, m, "autodiff.record", None)
      for m in ("pad_const", "concat_channels", "stack_kernels", "sum_nodes",
                "add", "relu", "l1_loss")),
    (network, "net_forward", "network.net_forward", None),
    (network, "mbconv_apply", "network.mbconv", None),
    (network, "sr_forward", "network.sr_forward", None),
    (autodiff.Tape, "apply_patches", "prompt.apply_patches", _placement_counts),
    (prompt, "apply_prompt", "prompt.apply_prompt", None),
    (pipeline.PatchSampler, "sample", "pipeline.sample", None),
    (pipeline.PatchSampler, "update", "pipeline.sampler_update", None),
    (pipeline, "_gather_batch", "pipeline.gather", None),
    (pipeline.Adam, "step", "pipeline.adam", None),
    (pipeline, "evaluate_psnr", EVAL_SPAN, None),
    (pipeline, "train", "pipeline.train", None),
    (fuse, "fuse_network", "fuse.fuse_network", None),
    (metrics, "psnr", "metrics.psnr", None),
    (metrics, "ssim", "metrics.ssim", None),
    (metrics, "consistency", "metrics.consistency", None),
    (model_io, "read_ppm", "model_io.read_ppm", None),
    (model_io, "write_ppm", "model_io.write_ppm", None),
    (model_io, "load_model", "model_io.load_model", None),
)


class Tracer:
    def __init__(self):
        self.spans = []       # [name, parent index or -1, start, end, phase]
        self.phase = None     # None: wrappers pass straight through
        self.counts = defaultdict(Counter)  # phase -> count name -> total
        self._stack = []
        self._patches = []    # (owner, attribute, original), install order

    # -- recording -----------------------------------------------------------

    def count(self, key, n):
        """Add to a count unless inside an epoch-eval forward."""
        if not any(self.spans[i][0] == EVAL_SPAN for i in self._stack):
            self.counts[self.phase][key] += n

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase = tracer.phase
            if phase is None:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            idx = len(tracer.spans)
            span = [label, tracer._stack[-1] if tracer._stack else -1, 0.0, 0.0, phase]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                if hook is not None:
                    hook(tracer, args, kwargs)
                span[2] = perf_counter()
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                tracer._stack.pop()

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        loaded = [m for n, m in sys.modules.items()
                  if n == "vidsr" or n.startswith("vidsr.")]
        for owner, attr, name, hook in TARGETS:
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, hook)
            owners = [owner] if isinstance(owner, type) else [
                m for m in loaded if vars(m).get(attr) is original]
            for o in owners:
                setattr(o, attr, wrapper)
                self._patches.append((o, attr, original))

    def uninstall(self):
        while self._patches:
            o, attr, original = self._patches.pop()
            setattr(o, attr, original)

    # -- reporting -----------------------------------------------------------

    def times(self, phase):
        """(inclusive seconds, self seconds) per span name in one phase."""
        total = defaultdict(float)
        own = defaultdict(float)
        for name, parent, start, end, ph in self.spans:
            if ph != phase:
                continue
            d = end - start
            total[name] += d
            own[name] += d
            if parent >= 0:
                own[self.spans[parent][0]] -= d
        return dict(total), dict(own)

    def dump(self, path, summary):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][2] if self.spans else 0.0
        doc = {
            "summary": summary,
            "names": names,
            "columns": ["name", "parent", "start_s", "end_s", "phase"],
            "spans": [[index[n], p, round(s - t0, 7), round(e - t0, 7), ph]
                      for n, p, s, e, ph in self.spans],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
