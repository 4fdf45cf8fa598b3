import numpy as np
import pytest

from vidsr.autodiff import Tape, finite_diff_check
from vidsr.tensor import ShapeMismatch


def rnd(shape, seed, lo=-0.5, hi=0.5):
    rng = np.random.default_rng(seed)
    return (rng.random(shape) * (hi - lo) + lo).astype(np.float32)


class TestBackwardBasics:
    def test_sum_grad_is_ones(self):
        t = Tape()
        x = t.leaf(rnd((2, 3, 4, 5), 0))
        g = t.backward(t.sum_all(x))[x.id]
        np.testing.assert_array_equal(g, np.ones((2, 3, 4, 5), np.float32))

    def test_conv_sum_grad_counts_taps(self):
        t = Tape()
        x = t.leaf(rnd((1, 1, 5, 5), 1))
        w = t.leaf(np.ones((1, 1, 3, 3), np.float32))
        b = t.leaf(np.zeros(1, np.float32))
        loss = t.sum_all(t.conv2d(x, w, b, padding=1))
        g = t.backward(loss)[x.id][0, 0]
        assert g[2, 2] == 9
        assert g[0, 0] == 4 and g[4, 4] == 4
        assert g[0, 2] == 6

    def test_non_scalar_loss_rejected(self):
        t = Tape()
        x = t.leaf(rnd((1, 1, 2, 2), 2))
        with pytest.raises(ShapeMismatch):
            t.backward(x)

    def test_backward_calls_no_forward_conv(self, monkeypatch):
        # one _conv2d call per conv node: the backward kernels share
        # helpers with the forward but never call it
        from vidsr import tensor
        t = Tape()
        x = t.leaf(rnd((2, 3, 5, 6), 30))
        w3, b3 = t.leaf(rnd((4, 3, 3, 3), 31)), t.leaf(rnd((4,), 32))
        w1, b1 = t.leaf(rnd((2, 4, 1, 1), 33)), t.leaf(rnd((2,), 34))
        y = t.conv2d(t.conv2d(x, w3, b3, 1), w1, b1, 0)
        loss = t.sum_all(t.square(y))
        calls = []
        real = tensor._conv2d

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(tensor, "_conv2d", counting)
        grads = t.backward(loss)
        assert calls == []
        assert all(n.id in grads for n in (x, w3, b3, w1, b1))

    def test_branch_sum_gradient_linearity(self):
        # grad of sum of branch outputs == sum of per-branch grads
        x_val = rnd((1, 3, 6, 6), 6)
        ws = [rnd((3, 3, 3, 3), 7 + i) for i in range(3)]
        bs = [rnd((3,), 17 + i) for i in range(3)]

        t = Tape()
        x = t.leaf(x_val)
        outs = [t.conv2d(x, t.leaf(w), t.leaf(b), 1) for w, b in zip(ws, bs)]
        joint = t.backward(t.sum_all(t.sum_nodes(outs)))[x.id]

        parts = np.zeros_like(joint)
        for w, b in zip(ws, bs):
            ti = Tape()
            xi = ti.leaf(x_val)
            parts += ti.backward(ti.sum_all(ti.conv2d(
                xi, ti.leaf(w), ti.leaf(b), 1)))[xi.id]
        np.testing.assert_allclose(joint, parts, rtol=1e-5, atol=1e-6)


class TestFiniteDiffChecker:
    def test_sum_of_squares(self):
        err = finite_diff_check(
            lambda t, x: t.sum_all(t.square(x)), rnd((1, 2, 3, 3), 8))
        assert err <= 1e-6

    def test_l1_away_from_zero(self):
        target = np.full((1, 1, 3, 3), 0.7, np.float32)
        at = rnd((1, 1, 3, 3), 9, lo=-0.4, hi=0.4)  # residuals all nonzero
        err = finite_diff_check(lambda t, x: t.l1_loss(x, target), at)
        assert err <= 1e-4

    def test_l1_zero_residual_excluded(self):
        target = np.zeros((1, 1, 2, 2), np.float32)
        at = np.array([[0.0, 0.5], [-0.5, 0.25]], np.float32).reshape(1, 1, 2, 2)
        # the (0,0) coordinate sits exactly on the kink; check still passes
        err = finite_diff_check(lambda t, x: t.l1_loss(x, target), at)
        assert err <= 1e-4


class TestPrimitiveGradients:
    """Every primitive matches central finite differences at <= 1e-3."""

    def test_conv2d_input(self):
        w = rnd((3, 2, 3, 3), 10)
        b = rnd((3,), 11)

        def f(t, x):
            return t.sum_all(t.square(t.conv2d(x, t.leaf(w), t.leaf(b), 1)))

        assert finite_diff_check(f, rnd((1, 2, 5, 5), 12)) <= 1e-3

    def test_conv2d_weight_and_bias(self):
        x = rnd((2, 2, 5, 5), 13)
        b = rnd((3,), 14)

        def fw(t, wn):
            return t.sum_all(t.square(t.conv2d(t.leaf(x), wn, t.leaf(b), 1)))

        assert finite_diff_check(fw, rnd((3, 2, 3, 3), 15)) <= 1e-3

        w = rnd((3, 2, 3, 3), 16)

        def fb(t, bn):
            return t.sum_all(t.square(t.conv2d(t.leaf(x), t.leaf(w), bn, 1)))

        assert finite_diff_check(fb, rnd((3,), 17)) <= 1e-3

    def test_conv2d_constant_padding(self):
        # a block's border: the zero ring of pad_const, then the conv
        # unpadded
        w = rnd((2, 2, 3, 3), 18)
        b = rnd((2,), 19)

        def f(t, x):
            return t.sum_all(t.square(t.conv2d(t.pad_const(x, 1), t.leaf(w),
                                               t.leaf(b), 0)))

        assert finite_diff_check(f, rnd((1, 2, 4, 4), 20)) <= 1e-3

    def test_conv2d_1x1(self):
        w = rnd((4, 3, 1, 1), 21)
        b = rnd((4,), 22)

        def f(t, x):
            return t.sum_all(t.square(t.conv2d(x, t.leaf(w), t.leaf(b), 0)))

        assert finite_diff_check(f, rnd((1, 3, 4, 4), 23)) <= 1e-3

    def test_conv2d_relu_epilogue(self):
        # an L1 loss sends a nonzero gradient to the outputs the relu
        # zeroed, so a wrong mask shows
        w = rnd((3, 2, 3, 3), 50)
        b = rnd((3,), 51)
        target = rnd((2, 3, 5, 4), 61)

        def f(t, x):
            y = t.conv2d(x, t.leaf(w), t.leaf(b), 1, relu=True)
            return t.l1_loss(y, target)

        at = rnd((2, 2, 5, 4), 52)
        tape = Tape()
        assert (tape.conv2d(tape.leaf(at), tape.leaf(w), tape.leaf(b), 1,
                            relu=True).value == 0).any()
        assert finite_diff_check(f, at) <= 1e-3

        def fw(t, wn):
            y = t.conv2d(t.leaf(at), wn, t.leaf(b), 1, relu=True)
            return t.l1_loss(y, target)

        assert finite_diff_check(fw, w) <= 1e-3

    def test_conv2d_residual_epilogue(self):
        w = rnd((3, 2, 3, 3), 53)
        b = rnd((3,), 54)
        x = rnd((2, 2, 5, 4), 55)
        r = rnd((2, 3, 3, 2), 56)

        def fx(t, xn):
            y = t.conv2d(xn, t.leaf(w), t.leaf(b), 0, residual=t.leaf(r))
            return t.sum_all(t.square(y))

        def fr(t, rn):
            y = t.conv2d(t.leaf(x), t.leaf(w), t.leaf(b), 0, residual=rn)
            return t.sum_all(t.square(y))

        assert finite_diff_check(fx, x) <= 1e-3
        assert finite_diff_check(fr, r) <= 1e-3

    def test_conv2d_shuffle_residual_epilogue(self):
        w = rnd((8, 2, 3, 3), 57)
        b = rnd((8,), 58)
        x = rnd((2, 2, 4, 3), 59)
        s = rnd((2, 2, 8, 6), 60)

        def fx(t, xn):
            y = t.conv2d(xn, t.leaf(w), t.leaf(b), 1, shuffle=2,
                         residual=t.leaf(s))
            return t.sum_all(t.square(y))

        def fs(t, sn):
            y = t.conv2d(t.leaf(x), t.leaf(w), t.leaf(b), 1, shuffle=2,
                         residual=sn)
            return t.sum_all(t.square(y))

        def fb(t, bn):
            return t.sum_all(t.square(t.conv2d(t.leaf(x), t.leaf(w), bn, 1,
                                               shuffle=2)))

        assert finite_diff_check(fx, x) <= 1e-3
        assert finite_diff_check(fs, s) <= 1e-3
        assert finite_diff_check(fb, b) <= 1e-3

    def test_pad_const(self):
        def f(t, x):
            return t.sum_all(t.square(t.pad_const(x, 1)))

        assert finite_diff_check(f, rnd((1, 2, 3, 3), 24)) <= 1e-3

    def test_pixel_shuffle(self):
        def f(t, x):
            return t.sum_all(t.square(t.pixel_shuffle(x, 2)))

        assert finite_diff_check(f, rnd((1, 4, 3, 3), 25)) <= 1e-3

    def test_bicubic_resize(self):
        def f(t, x):
            return t.sum_all(t.square(t.bicubic_resize(x, 8, 8)))

        assert finite_diff_check(f, rnd((1, 2, 4, 4), 26)) <= 1e-3

    def test_add_sub_mul_scalar(self):
        other = rnd((1, 2, 3, 3), 27)

        def f(t, x):
            y = t.add(x, t.leaf(other))
            z = t.sub(y, t.mul_scalar(x, 0.25))
            return t.sum_all(t.square(z))

        assert finite_diff_check(f, rnd((1, 2, 3, 3), 28)) <= 1e-3

    def test_relu_away_from_zero(self):
        at = rnd((1, 2, 4, 4), 29)
        at[np.abs(at) < 0.05] = 0.1  # keep clear of the kink

        def f(t, x):
            return t.sum_all(t.square(t.relu(x)))

        assert finite_diff_check(f, at) <= 1e-3

    def test_apply_patches_prompt_gradient(self):
        frame = rnd((1, 3, 6, 6), 30)
        placements = [(0, 0, 2, 2, 0, 0, 2, 2)]
        target = rnd((1, 3, 6, 6), 31)

        def f(t, p):
            xn = t.leaf(frame)
            return t.l1_loss(t.apply_patches(xn, [p], placements), target)

        assert finite_diff_check(f, rnd((3, 2, 2), 32)) <= 1e-3

    def test_concat_and_stack(self):
        a = rnd((1, 2, 4, 4), 33)
        w2 = rnd((2, 4, 3, 3), 34)
        b2 = rnd((2,), 35)

        def f(t, x):
            c = t.concat_channels([x, t.leaf(a)])
            return t.sum_all(t.square(t.conv2d(c, t.leaf(w2), t.leaf(b2), 1)))

        assert finite_diff_check(f, rnd((1, 2, 4, 4), 36)) <= 1e-3

        xc = rnd((1, 4, 4, 4), 37)
        wb = rnd((2, 2, 3, 3), 38)

        def g(t, wn):
            ws = t.stack_kernels([wn, t.leaf(wb)])
            return t.sum_all(t.square(t.conv2d(t.leaf(xc), ws, t.leaf(b2), 1)))

        assert finite_diff_check(g, rnd((2, 2, 3, 3), 39)) <= 1e-3


class TestCompositeNet:
    def test_conv_relu_conv_l1_all_params(self):
        x = rnd((1, 2, 6, 6), 40)
        w1 = rnd((3, 2, 3, 3), 41)
        b1 = rnd((3,), 42)
        w2 = rnd((2, 3, 3, 3), 43)
        b2 = rnd((2,), 44)
        target = rnd((1, 2, 6, 6), 45)

        def net(t, nodes):
            h = t.relu(t.conv2d(nodes["x"], nodes["w1"], nodes["b1"], 1))
            y = t.conv2d(h, nodes["w2"], nodes["b2"], 1)
            return t.l1_loss(y, target)

        full = {"x": x, "w1": w1, "b1": b1, "w2": w2, "b2": b2}
        for name in full:
            def f(t, checked, _name=name):
                nodes = {k: (checked if k == _name else t.leaf(v))
                         for k, v in full.items()}
                return net(t, nodes)

            assert finite_diff_check(f, full[name]) <= 1e-3, name
