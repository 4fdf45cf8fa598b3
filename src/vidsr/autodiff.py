"""Tape-based reverse-mode differentiation over the tensor kernels.

A Tape records primitive applications in execution order (which is a
topological order), keeping whatever forward values each primitive needs
for its backward rule. ``backward`` walks the tape once in reverse and
returns a gradient per node. Tapes are single-writer during recording;
a completed tape is read-only.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    ShapeMismatch,
    _bicubic_resize,
    _conv2d,
    _conv2d_grad_bias,
    _conv2d_grad_input,
    _conv2d_grad_weight,
    _pixel_shuffle,
    _pixel_unshuffle,
    _relu,
)

SCALAR_DIMS = (1, 1, 1, 1)


class Node:
    __slots__ = ("id", "op", "value", "parents", "grad_fn", "recompute")

    def __init__(self, nid, op, value, parents, grad_fn, recompute):
        self.id = nid
        self.op = op
        self.value = value
        self.parents = parents
        self.grad_fn = grad_fn
        self.recompute = recompute

    @property
    def shape(self):
        return self.value.shape


class Tape:
    """Recorder for one forward pass. Not thread-safe while recording."""

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self.nodes: list[Node] = []

    def _record(self, op, value, parents, grad_fn, recompute=None):
        node = Node(len(self.nodes), op, value, parents, grad_fn, recompute)
        self.nodes.append(node)
        return node

    def leaf(self, value) -> Node:
        v = np.ascontiguousarray(value, self.dtype)
        return self._record("leaf", v, (), None)

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: Node, b: Node) -> Node:
        if a.shape != b.shape:
            raise ShapeMismatch(f"add: {a.shape} vs {b.shape}")
        return self._record(
            "add", a.value + b.value, (a, b),
            lambda u: [(a, u), (b, u)],
            lambda: a.value + b.value)

    def sub(self, a: Node, b: Node) -> Node:
        if a.shape != b.shape:
            raise ShapeMismatch(f"sub: {a.shape} vs {b.shape}")
        return self._record(
            "sub", a.value - b.value, (a, b),
            lambda u: [(a, u), (b, -u)],
            lambda: a.value - b.value)

    def sum_nodes(self, items) -> Node:
        items = list(items)
        if len(items) == 1:
            return items[0]
        val = items[0].value.copy()
        for it in items[1:]:
            val += it.value
        return self._record(
            "sum_nodes", val, tuple(items),
            lambda u: [(it, u) for it in items],
            lambda: sum(it.value for it in items))

    def mul_scalar(self, a: Node, s: float) -> Node:
        s = self.dtype.type(s)
        return self._record(
            "mul_scalar", a.value * s, (a,),
            lambda u: [(a, u * s)],
            lambda: a.value * s)

    def square(self, a: Node) -> Node:
        return self._record(
            "square", a.value * a.value, (a,),
            lambda u: [(a, 2.0 * a.value * u)],
            lambda: a.value * a.value)

    def relu(self, a: Node) -> Node:
        y = _relu(a.value)
        # derivative taken as 0 at exactly 0
        return self._record(
            "relu", y, (a,),
            lambda u: [(a, u * (a.value > 0))],
            lambda: _relu(a.value))

    # -- structure ----------------------------------------------------------

    def pad_const(self, a: Node, padding: int, values=None) -> Node:
        b, c, h, w = a.shape
        p = padding

        def fwd():
            if values is None:
                out = np.zeros((b, c, h + 2 * p, w + 2 * p), a.value.dtype)
            else:
                out = np.empty((b, c, h + 2 * p, w + 2 * p), a.value.dtype)
                out[...] = np.asarray(values, a.value.dtype)[None, :, None, None]
            out[:, :, p:-p, p:-p] = a.value
            return out

        if p == 0:
            return a
        return self._record(
            "pad_const", fwd(), (a,),
            lambda u: [(a, np.ascontiguousarray(u[:, :, p:-p, p:-p]))],
            fwd)

    def concat_channels(self, items) -> Node:
        items = list(items)
        splits = np.cumsum([it.shape[1] for it in items])[:-1]

        def grad(u):
            parts = np.split(u, splits, axis=1)
            return [(it, np.ascontiguousarray(g)) for it, g in zip(items, parts)]

        return self._record(
            "concat_channels", np.concatenate([it.value for it in items], axis=1),
            tuple(items), grad,
            lambda: np.concatenate([it.value for it in items], axis=1))

    def stack_kernels(self, items) -> Node:
        """Stack (O,I,K,K) weights along the input-channel axis."""
        items = list(items)
        splits = np.cumsum([it.shape[1] for it in items])[:-1]

        def grad(u):
            parts = np.split(u, splits, axis=1)
            return [(it, np.ascontiguousarray(g)) for it, g in zip(items, parts)]

        return self._record(
            "stack_kernels", np.concatenate([it.value for it in items], axis=1),
            tuple(items), grad,
            lambda: np.concatenate([it.value for it in items], axis=1))

    # -- heavy primitives ----------------------------------------------------

    def conv2d(self, x: Node, w: Node, b: Node, padding: int,
               pad_values=None) -> Node:
        k = w.shape[2]

        def grad(u):
            return [
                (x, _conv2d_grad_input(u, w.value, padding, x.shape)),
                (w, _conv2d_grad_weight(x.value, u, k, padding, pad_values)),
                (b, _conv2d_grad_bias(u)),
            ]

        return self._record(
            "conv2d", _conv2d(x.value, w.value, b.value, padding, pad_values),
            (x, w, b), grad,
            lambda: _conv2d(x.value, w.value, b.value, padding, pad_values))

    def pixel_shuffle(self, x: Node, r: int) -> Node:
        return self._record(
            "pixel_shuffle", _pixel_shuffle(x.value, r), (x,),
            lambda u: [(x, _pixel_unshuffle(u, r))],
            lambda: _pixel_shuffle(x.value, r))

    def bicubic_resize(self, x: Node, out_h: int, out_w: int) -> Node:
        _, _, h, w = x.shape

        def grad(u):
            return [(x, _bicubic_resize(u, h, w, transpose=True))]

        return self._record(
            "bicubic_resize", _bicubic_resize(x.value, out_h, out_w), (x,),
            grad,
            lambda: _bicubic_resize(x.value, out_h, out_w))

    def apply_patches(self, x: Node, prompts, placements) -> Node:
        """Add prompt sub-rectangles onto frame/patch regions.

        prompts: list of (C, S_H, S_W) nodes. placements: tuples
        (slot, batch_index, frame_y, frame_x, prompt_y, prompt_x, h, w)
        where slot indexes ``prompts``. The Jacobian is the identity on
        each placed region, so the prompt gradient is the upstream
        gradient summed over every placement of that prompt.
        """
        prompts = list(prompts)

        def fwd():
            out = x.value.copy()
            for slot, bi, fy, fx, py, px, h, w in placements:
                out[bi, :, fy:fy + h, fx:fx + w] += \
                    prompts[slot].value[:, py:py + h, px:px + w]
            return out

        def grad(u):
            out = [(x, u)]
            acc = {}
            for slot, bi, fy, fx, py, px, h, w in placements:
                g = acc.get(slot)
                if g is None:
                    g = acc[slot] = np.zeros_like(prompts[slot].value)
                g[:, py:py + h, px:px + w] += u[bi, :, fy:fy + h, fx:fx + w]
            out.extend((prompts[slot], g) for slot, g in acc.items())
            return out

        return self._record("apply_patches", fwd(), (x, *prompts), grad, fwd)

    # -- reductions ----------------------------------------------------------

    def sum_all(self, x: Node) -> Node:
        val = np.full(SCALAR_DIMS, x.value.sum(dtype=np.float64), x.value.dtype)
        return self._record(
            "sum_all", val, (x,),
            lambda u: [(x, np.full(x.shape, u.ravel()[0], u.dtype))],
            lambda: np.full(SCALAR_DIMS, x.value.sum(dtype=np.float64), x.value.dtype))

    def l1_loss(self, pred: Node, target) -> Node:
        """Mean absolute error against a constant target array."""
        t = np.asarray(target, pred.value.dtype)
        if t.shape != pred.shape:
            raise ShapeMismatch(f"l1_loss: {pred.shape} vs {t.shape}")
        r = pred.value - t
        val = np.full(SCALAR_DIMS, np.abs(r, dtype=np.float64).mean(), r.dtype)
        n = r.size

        def grad(u):
            # subgradient: sign(0) = 0
            return [(pred, np.sign(r) * (u.ravel()[0] / n))]

        return self._record(
            "l1_loss", val, (pred,), grad,
            lambda: np.full(SCALAR_DIMS, np.abs(pred.value - t, dtype=np.float64).mean(), r.dtype))

    # -- traversal -----------------------------------------------------------

    def backward(self, loss: Node) -> dict[int, np.ndarray]:
        """Gradient of a scalar loss with respect to every recorded node."""
        if loss.shape != SCALAR_DIMS:
            raise ShapeMismatch(f"loss must have dims {SCALAR_DIMS}, got {loss.shape}")
        grads: dict[int, np.ndarray] = {
            loss.id: np.ones(SCALAR_DIMS, loss.value.dtype)}
        for node in reversed(self.nodes[: loss.id + 1]):
            upstream = grads.get(node.id)
            if upstream is None or node.grad_fn is None:
                continue
            for parent, g in node.grad_fn(upstream):
                acc = grads.get(parent.id)
                if acc is None:
                    grads[parent.id] = np.ascontiguousarray(g, parent.value.dtype)
                else:
                    grads[parent.id] = acc + g
        return grads

    def replay_matches(self) -> bool:
        """Re-run every recorded primitive; True if all outputs match bitwise."""
        for node in self.nodes:
            if node.recompute is None:
                continue
            again = node.recompute()
            if again.shape != node.value.shape or not np.array_equal(
                    again, node.value):
                return False
        return True


def finite_diff_check(build, at, eps: float = 1e-3,
                      kink_tol: float = 1e-2) -> float:
    """Max relative error between analytic and central-difference gradients.

    build(tape, x_node) -> loss node defines the scalar function. The
    whole check runs in float64 regardless of the caller's dtype.
    Coordinates where the two one-sided slopes disagree (non-differentiable
    points such as an L1 kink or relu at 0) are excluded.
    """
    at64 = np.asarray(at, np.float64)

    def value(x):
        t = Tape(np.float64)
        return float(build(t, t.leaf(x)).value.ravel()[0])

    tape = Tape(np.float64)
    xn = tape.leaf(at64)
    loss = build(tape, xn)
    analytic = tape.backward(loss).get(xn.id)
    if analytic is None:
        analytic = np.zeros_like(at64)

    f0 = value(at64)
    worst = 0.0
    flat = at64.ravel()
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = eps
        fp = value((flat + bump).reshape(at64.shape))
        fm = value((flat - bump).reshape(at64.shape))
        sp = (fp - f0) / eps
        sm = (f0 - fm) / eps
        if abs(sp - sm) > kink_tol * max(1.0, abs(sp) + abs(sm)):
            continue  # subgradient point
        central = (fp - fm) / (2 * eps)
        err = abs(analytic.ravel()[i] - central) / max(1e-8, abs(central))
        worst = max(worst, err)
    return worst
