import numpy as np
import pytest

from vidsr.autodiff import Tape
from vidsr.network import (
    BackboneConfig,
    build_backbone,
    leaf_params,
    net_forward,
    sr_forward,
)
from vidsr.prompt import (
    VisualPrompt,
    apply_prompt,
    centered_offsets,
    make_prompt,
    patch_placement,
)
from vidsr.tensor import ShapeMismatch, Tensor4


def rnd(shape, seed):
    return np.random.default_rng(seed).random(shape).astype(np.float32)


class TestApply:
    def test_zero_prompt_is_bit_transparent(self):
        frame = Tensor4.from_array(rnd((1, 3, 8, 8), 0))
        p = make_prompt(0, 4)
        out = apply_prompt(frame, p)
        assert out.data.tobytes() == frame.data.tobytes()

    def test_centered_region_6x6_s2(self):
        frame = Tensor4.zeros(1, 3, 6, 6)
        p = VisualPrompt(0, np.full((3, 2, 2), 0.5, np.float32))
        out = apply_prompt(frame, p).data
        nz = np.argwhere(out[0, 0] != 0)
        assert set(map(tuple, nz)) == {(2, 2), (2, 3), (3, 2), (3, 3)}
        assert centered_offsets(6, 6, 2, 2) == (2, 2)

    def test_matches_scalar_loop(self):
        frame = rnd((2, 3, 7, 9), 1)
        vals = rnd((3, 3, 4), 2) - 0.5
        p = VisualPrompt(0, vals)
        got = apply_prompt(Tensor4.from_array(frame), p).data
        dy, dx = centered_offsets(7, 9, 3, 4)
        want = frame.copy()
        for b in range(2):
            for c in range(3):
                for i in range(3):
                    for j in range(4):
                        want[b, c, dy + i, dx + j] += vals[c, i, j]
        np.testing.assert_array_equal(got, want)

    def test_prompt_larger_than_frame_rejected(self):
        with pytest.raises(ShapeMismatch):
            apply_prompt(Tensor4.zeros(1, 3, 4, 4), make_prompt(0, 8))


def prompt_grad(upstream, size):
    """Prompt gradient of Tape.apply_patches, for a prompt of the given size
    placed at the centre of every frame in the batch, given d(loss)/d(prompted
    frame). With a zero prompt, y = upstream, and loss = sum(y^2)/2 has
    exactly that gradient at y."""
    b, _, h, w = upstream.shape
    dy, dx = centered_offsets(h, w, size, size)
    tape = Tape()
    p = tape.leaf(make_prompt(0, size).values)
    y = tape.apply_patches(tape.leaf(upstream), [p],
                           [(0, bi, dy, dx, 0, 0, size, size) for bi in range(b)])
    loss = tape.mul_scalar(tape.sum_all(tape.square(y)), 0.5)
    return tape.backward(loss)[p.id]


class TestGradient:
    def test_identity_jacobian(self):
        g = prompt_grad(np.ones((1, 3, 6, 6), np.float32), 2)
        np.testing.assert_array_equal(g, np.ones((3, 2, 2), np.float32))

    def test_restriction_to_region(self):
        up = rnd((1, 3, 6, 6), 2) + 1.0  # nonzero outside the region too
        inside = rnd((3, 2, 2), 3)
        up[0, :, 2:4, 2:4] = inside
        np.testing.assert_array_equal(prompt_grad(up, 2), inside)

    def test_batch_accumulation(self):
        up = rnd((4, 3, 6, 6), 4)
        np.testing.assert_allclose(prompt_grad(up, 2), up[:, :, 2:4, 2:4].sum(0),
                                   atol=1e-6)


class TestPatchPlacement:
    def test_full_overlap(self):
        p = make_prompt(0, 4)
        # frame 12x12 -> region rows/cols 4..7
        assert patch_placement(p, 12, 12, 4, 4, 4, 4) == (0, 0, 0, 0, 4, 4)

    def test_partial_overlap(self):
        p = make_prompt(0, 4)
        got = patch_placement(p, 12, 12, 2, 6, 4, 4)
        # patch rows 2..5 x cols 6..9; region rows 4..7 x cols 4..7
        assert got == (2, 0, 0, 2, 2, 2)

    def test_miss(self):
        p = make_prompt(0, 4)
        assert patch_placement(p, 12, 12, 8, 8, 4, 4) is None


class TestThroughNetwork:
    def test_transparency_at_init(self):
        net = build_backbone(BackboneConfig(channels=8, blocks=1, branches=2,
                                            scale=2), seed=0)
        frame = Tensor4.from_array(rnd((1, 3, 12, 12), 5))
        p = make_prompt(0, 6)
        plain = sr_forward(net, frame)
        prompted = sr_forward(net, apply_prompt(frame, p))
        assert plain.data.tobytes() == prompted.data.tobytes()

    def _tvp_grad(self, net, frame, values, target):
        tape = Tape()
        params = leaf_params(tape, net)
        x = tape.leaf(frame)
        p = tape.leaf(values)
        sh = values.shape[1]
        dy, dx = centered_offsets(frame.shape[2], frame.shape[3], sh, sh)
        prompted = tape.apply_patches(x, [p], [(0, 0, dy, dx, 0, 0, sh, sh)])
        y = net_forward(tape, net, params, prompted)
        loss = tape.l1_loss(y, target)
        return tape.backward(loss)[p.id]

    def test_gradient_locality(self):
        # perturbing a pixel farther than the receptive cone from the
        # prompt region must not move the prompt gradient at all
        net = build_backbone(BackboneConfig(channels=8, blocks=1, branches=2,
                                            scale=2), seed=1)
        frame = rnd((1, 3, 40, 40), 6)
        values = rnd((3, 8, 8), 7) - 0.5
        target = rnd((1, 3, 80, 80), 8)
        g0 = self._tvp_grad(net, frame, values, target)
        poked = frame.copy()
        poked[0, :, 0, 0] += 0.01
        g1 = self._tvp_grad(net, poked, values, target)
        assert np.abs(g0 - g1).max() <= 1e-6

    def test_end_to_end_gradient_matches_finite_differences(self):
        from vidsr.autodiff import finite_diff_check

        net = build_backbone(BackboneConfig(channels=4, blocks=1, branches=2,
                                            scale=2), seed=2)
        frame = rnd((1, 3, 8, 8), 9)
        target = rnd((1, 3, 16, 16), 10)

        def f(tape, p):
            params = leaf_params(tape, net)
            x = tape.leaf(frame)
            prompted = tape.apply_patches(x, [p], [(0, 0, 2, 2, 0, 0, 4, 4)])
            y = net_forward(tape, net, params, prompted)
            return tape.l1_loss(y, target)

        assert finite_diff_check(f, rnd((3, 4, 4), 11) - 0.5) <= 1e-3


class TestDeliveryOverhead:
    def test_prompts_are_below_point1_percent_of_delivery(self):
        # documented large default: 45 s at 30 fps, 1080p source, x4 ->
        # 270x480 LR, 9 chunks, 48x48x3 float32 prompts, EDSR-16/64-class
        # fused model
        frames = 45 * 30
        lr_bytes = frames * 270 * 480 * 3
        model_params = (64 * 3 * 9 + 64) + 16 * 2 * (64 * 64 * 9 + 64) \
            + (64 * 48 * 9 + 48)
        model_bytes = model_params * 4
        prompt_bytes = 9 * (48 * 48 * 3 * 4)
        total = lr_bytes + model_bytes + prompt_bytes
        assert prompt_bytes / total < 0.001
