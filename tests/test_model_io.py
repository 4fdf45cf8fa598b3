import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidsr import model_io as mio
from vidsr.fuse import fuse_network
from vidsr.network import BackboneConfig, build_backbone, named_params, sr_forward
from vidsr.prompt import VisualPrompt, make_prompt
from vidsr.tensor import Tensor4


def toy_net(branches=3, seed=0):
    return build_backbone(BackboneConfig(channels=4, blocks=1,
                                         branches=branches, scale=2), seed=seed)


class TestContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        net = toy_net()
        prompts = [make_prompt(i, 4) for i in range(3)]
        for p in prompts:
            p.values = p.values + np.float32(0.01) * (p.chunk_id + 1)
        path = tmp_path / "model.rcam"
        mio.save_model(path, net, prompts,
                       chunks={"count": 3, "boundaries": [[0, 2], [2, 4], [4, 6]]},
                       train_config={"iters": 7, "seed": 3})
        net2, prompts2, header = mio.load_model(path)
        for (na, a), (nb, b) in zip(named_params(net), named_params(net2)):
            assert na == nb
            assert a.tobytes() == b.tobytes()
        for p, q in zip(prompts, prompts2):
            assert p.chunk_id == q.chunk_id
            assert p.values.tobytes() == q.values.tobytes()
        assert header["chunks"]["count"] == 3
        assert header["train_config"]["iters"] == 7

    @pytest.mark.parametrize("ids", [[5, 6], [0, 0]])
    def test_prompt_chunk_ids_must_be_0_to_n_in_order(self, tmp_path, ids):
        path = tmp_path / "m.rcam"
        mio.save_model(path, toy_net(), [
            VisualPrompt(k, np.full((3, 4, 4), 0.1 * (i + 1), np.float32))
            for i, k in enumerate(ids)])
        with pytest.raises(mio.InputError, match="chunk ids 0..1 in order"):
            mio.load_model(path)

    def test_loaded_net_runs_without_extra_config(self, tmp_path):
        net = toy_net(seed=5)
        path = tmp_path / "m.rcam"
        mio.save_model(path, net)
        net2, _, _ = mio.load_model(path)
        x = Tensor4.from_array(np.random.default_rng(0).random((1, 3, 6, 6)))
        a = sr_forward(net, x)
        b = sr_forward(net2, x)
        assert a.data.tobytes() == b.data.tobytes()

    def test_payload_bitflip_fails_crc(self, tmp_path):
        path = tmp_path / "m.rcam"
        mio.save_model(path, toy_net())
        raw = bytearray(path.read_bytes())
        raw[-20] ^= 0x40  # inside the payload, ahead of the trailing CRC
        path.write_bytes(bytes(raw))
        with pytest.raises(mio.InputError, match="CRC"):
            mio.load_container(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.rcam"
        mio.save_model(path, toy_net())
        raw = bytearray(path.read_bytes())
        raw[0] = ord("X")
        path.write_bytes(bytes(raw))
        with pytest.raises(mio.InputError, match="not a model container"):
            mio.load_container(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "m.rcam"
        mio.save_model(path, toy_net())
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(mio.InputError, match="format version 99"):
            mio.load_container(path)

    def test_header_that_is_not_an_object(self, tmp_path):
        # a JSON list header ended in an AttributeError
        path = tmp_path / "m.rcam"
        blob = b"[1, 2]"
        path.write_bytes(mio.MAGIC + struct.pack("<HI", mio.FORMAT_VERSION, len(blob))
                         + blob + struct.pack("<I", zlib.crc32(b"")))
        with pytest.raises(mio.InputError, match="lacks a tensor manifest"):
            mio.load_container(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.rcam"
        mio.save_model(path, toy_net())
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(mio.InputError, match="truncated"):
            mio.load_container(path)

    def test_fused_header_records_single_branch_topology(self, tmp_path):
        net = toy_net(branches=3)
        fused = fuse_network(net)
        path = tmp_path / "fused.rcam"
        mio.save_model(path, fused)
        _, _, header = mio.load_model(path)
        assert header["arch"]["kind"] == "fused"
        assert header["arch"]["branches"] == 1
        assert header["arch"]["merge"] == "sum"

    def test_prompt_payload_bytes(self, tmp_path):
        path = tmp_path / "m.rcam"
        mio.save_model(path, toy_net(), [make_prompt(0, 4), make_prompt(1, 4)])
        _, _, header = mio.load_model(path)
        assert mio.prompt_payload_bytes(header) == [4 * 4 * 3 * 4] * 2


class TestPpm:
    def test_black_white_round_trip(self, tmp_path):
        for val in (0.0, 1.0):
            frame = np.full((3, 5, 7), val, np.float32)
            p = tmp_path / f"f{val}.ppm"
            mio.write_ppm(p, frame)
            back = mio.read_ppm(p)
            np.testing.assert_array_equal(back, frame)

    def test_half_rounds_away_from_zero(self):
        assert mio.float_to_byte(np.array([0.5]))[0] == 128

    def test_write_bytes_are_floor_of_clip_plus_half(self, tmp_path):
        # every k/255 and (k+0.5)/255, one float32 ulp either side of
        # each, and out-of-range values
        k = np.arange(256, dtype=np.float32)
        centres = np.concatenate([k / 255, (k + 0.5) / 255]).astype(np.float32)
        vals = np.concatenate([
            centres,
            np.nextafter(centres, np.float32(-np.inf)),
            np.nextafter(centres, np.float32(np.inf)),
            np.array([-0.1, 1.2], np.float32)])
        vals = np.concatenate([vals, np.zeros(-len(vals) % 64, np.float32)])
        rgb = np.stack([vals, vals[::-1], np.roll(vals, 7)])
        frame = rgb.reshape(3, -1, 32)
        p = tmp_path / "edges.ppm"
        mio.write_ppm(p, frame)
        want = np.floor(np.clip(frame, 0, 1) * np.float32(255) + np.float32(0.5))
        want = want.astype(np.uint8).transpose(1, 2, 0)
        data = p.read_bytes()
        header = b"P6\n32 %d\n255\n" % frame.shape[1]
        assert data[:len(header)] == header
        assert data[len(header):] == want.tobytes()

    def test_all_byte_values_round_trip(self, tmp_path):
        # one frame containing every representable 8-bit value
        vals = np.arange(256, dtype=np.float32) / 255.0
        frame = np.tile(vals.reshape(1, 16, 16), (3, 1, 1))
        p = tmp_path / "bytes.ppm"
        mio.write_ppm(p, frame)
        back = mio.read_ppm(p)
        np.testing.assert_array_equal(back, frame)
        mio.write_ppm(p, back)
        again = mio.read_ppm(p)
        assert again.tobytes() == back.tobytes()

    def test_store_round_trip_and_contiguity(self, tmp_path):
        rng = np.random.default_rng(1)
        frames = [rng.random((3, 4, 6)).astype(np.float32) for _ in range(3)]
        mio.write_frames(tmp_path / "v", frames)
        back = mio.read_frames(tmp_path / "v")
        assert len(back) == 3
        for orig, rt in zip(frames, back):
            np.testing.assert_array_equal(mio.float_to_byte(rt),
                                          mio.float_to_byte(orig))

    def test_malformed_header_rejected(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P5\n2 2\n255\n\0\0\0\0")
        with pytest.raises(mio.InputError, match="not a binary PPM"):
            mio.read_ppm(p)

    def test_non_numeric_header_token_is_frame_error(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P6\nab 4\n255\n")
        with pytest.raises(mio.InputError, match="bad.ppm"):
            mio.read_ppm(p)

    def test_dim_inconsistency_rejected(self, tmp_path):
        d = tmp_path / "v"
        d.mkdir()
        mio.write_ppm(mio.frame_path(d, 0), np.zeros((3, 4, 4), np.float32))
        mio.write_ppm(mio.frame_path(d, 1), np.zeros((3, 4, 5), np.float32))
        with pytest.raises(mio.InputError, match="differ from"):
            mio.read_frames(d)

    def test_gap_in_indices_rejected(self, tmp_path):
        d = tmp_path / "v"
        d.mkdir()
        mio.write_ppm(mio.frame_path(d, 0), np.zeros((3, 4, 4), np.float32))
        mio.write_ppm(mio.frame_path(d, 2), np.zeros((3, 4, 4), np.float32))
        with pytest.raises(mio.InputError, match="not contiguous"):
            mio.read_frames(d)


class TestSyntheticVideo:
    def test_same_seed_identical(self):
        cfg = mio.SynthConfig(frames=6, height=32, width=32, seed=9)
        a = mio.generate_synthetic_video(cfg)
        b = mio.generate_synthetic_video(cfg)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))

    def test_translation_shows_up_as_correlation_peak(self):
        cfg = mio.SynthConfig(frames=6, height=32, width=32, shift=(2, 3), seed=4)
        frames = mio.generate_synthetic_video(cfg)
        a, b = frames[0], frames[1]
        best = None
        for dy in range(32):
            for dx in range(32):
                score = float((np.roll(a, (dy, dx), axis=(1, 2)) * b).sum())
                if best is None or score > best[0]:
                    best = (score, dy, dx)
        assert (best[1], best[2]) == (2, 3)

    def test_scene_change_spikes_difference_energy(self):
        cfg = mio.SynthConfig(frames=10, height=48, width=48, shift=(1, 1),
                              seed=5)
        frames = mio.generate_synthetic_video(cfg)
        energies = [float(((frames[t + 1] - frames[t]) ** 2).mean())
                    for t in range(9)]
        cut = 10 // 2 - 1  # transition between frames 4 and 5
        others = [e for i, e in enumerate(energies) if i != cut]
        assert energies[cut] > 2 * max(others)


# Malformed bytes: every single-byte change to a saved container, and any
# byte string given as a PPM, either loads or raises the module's own
# error, never another exception. Derandomized, so every run draws the
# same examples.
MALFORMED = settings(derandomize=True, deadline=None, max_examples=300)


def _saved_container() -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.rcam"
        mio.save_model(path, toy_net(branches=2, seed=4),
                       [make_prompt(i, 3) for i in range(2)],
                       chunks={"count": 2, "boundaries": [[0, 1], [1, 2]]})
        return path.read_bytes()


CONTAINER = _saved_container()


def _load_model_bytes(raw: bytes):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.rcam"
        path.write_bytes(raw)
        return mio.load_model(path)


def _loads_or_input_error(raw: bytes):
    try:
        _load_model_bytes(raw)
    except mio.InputError:
        pass


@MALFORMED
@given(pos=st.integers(0, len(CONTAINER) - 1), value=st.integers(0, 255))
def test_container_byte_overwrite_loads_or_raises(pos, value):
    raw = bytearray(CONTAINER)
    raw[pos] = value
    _loads_or_input_error(bytes(raw))


@MALFORMED
@given(pos=st.integers(0, len(CONTAINER) - 1), bit=st.integers(0, 7))
def test_container_bit_flip_loads_or_raises(pos, bit):
    raw = bytearray(CONTAINER)
    raw[pos] ^= 1 << bit
    _loads_or_input_error(bytes(raw))


@MALFORMED
@given(size=st.integers(0, len(CONTAINER) - 1))
def test_container_truncation_raises(size):
    with pytest.raises(mio.InputError):
        _load_model_bytes(CONTAINER[:size])


PPM_HEADER = st.builds(
    lambda w, h, maxval, sep: b"P6%s%d%s%d%s%d%s" % (sep, w, sep, h, sep,
                                                    maxval, sep),
    st.integers(0, 9), st.integers(0, 9),
    st.sampled_from([255, 65535, 0]), st.sampled_from([b"\n", b" ", b"\t"]))


@MALFORMED
@given(data=st.one_of(
    st.binary(max_size=96),
    st.builds(bytes.__add__, PPM_HEADER, st.binary(max_size=300))))
def test_read_ppm_frame_or_frame_error(data):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "f.ppm"
        path.write_bytes(data)
        try:
            frame = mio.read_ppm(path)
        except mio.InputError:
            return
    assert frame.dtype == np.float32 and frame.ndim == 3
    assert frame.shape[0] == 3 and min(frame.shape) >= 1
