import contextlib
import hashlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vidsr
from vidsr import __version__, cli, model_io, tensor
from vidsr.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from vidsr.metrics import psnr
from vidsr.network import BackboneConfig, build_backbone, named_params
from vidsr.pipeline import (
    ChunkedVideo,
    TrainConfig,
    chunk_index,
    chunk_video,
    epoch_length,
    evaluate_psnr,
    make_lr,
    sr_frame,
    train,
)
from vidsr.prompt import VisualPrompt, make_prompt
from vidsr.tensor import Tensor4


@pytest.fixture()
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


def small_train_args(ws, out, seed=1, iters=40, extra=()):
    return ["train", "--frames", ws / "hr", "--out", out,
            "--chunks", 3, "--channels", 8, "--blocks", 1,
            "--iters", iters, "--batch", 8, "--patch", 16,
            "--tvp-size", 12, "--lr", "1e-3", "--seed", seed, *extra]


@pytest.fixture()
def synth_video(workspace):
    assert run("synth", "--out", workspace / "hr", "--frames", 6,
               "--height", 32, "--width", 32, "--seed", 3) == EXIT_OK
    return workspace


class TestPipelineSmoke:
    def test_synth_chunk_train_fuse_verify(self, synth_video):
        ws = synth_video
        assert run("chunk", "--frames", ws / "hr", "--out", ws / "chunked",
                   "--chunks", 3, "--scale", 2) == EXIT_OK
        assert run(*small_train_args(ws, ws / "model.rcam", iters=200)) == EXIT_OK
        assert run("fuse", "--model", ws / "model.rcam",
                   "--out", ws / "fused.rcam") == EXIT_OK
        assert run("verify-fuse", "--model", ws / "model.rcam",
                   "--tolerance", "1e-4") == EXIT_OK

        assert run("infer", "--model", ws / "fused.rcam", "--chunked",
                   ws / "chunked", "--out", ws / "sr") == EXIT_OK
        assert run("eval", "--sr", ws / "sr", "--hr", ws / "hr",
                   "--lr", ws / "chunked" / "lr", "--scale", 2,
                   "--records", ws / "eval.jsonl") == EXIT_OK
        records = [json.loads(line) for line in
                   (ws / "eval.jsonl").read_text().splitlines()]
        assert len(records) == 6
        assert all("psnr" in r and "ssim" in r and "consistency" in r
                   for r in records)

    def test_walkthrough_on_frames_off_the_scale(self, workspace):
        # 17x23 at x3: chunk writes the HR frames cropped to 15x21, which
        # is what infer's SR frames measure
        ws = workspace
        assert run("synth", "--out", ws / "hr", "--frames", 4,
                   "--height", 17, "--width", 23, "--seed", 3) == EXIT_OK
        assert run("chunk", "--frames", ws / "hr", "--out", ws / "chunked",
                   "--chunks", 2, "--scale", 3) == EXIT_OK
        meta = json.loads((ws / "chunked" / "chunks.json").read_text())
        assert meta["hr_dir"] == str(ws / "chunked" / "hr")
        assert run("train", "--frames", ws / "hr", "--out", ws / "m.rcam",
                   "--scale", 3, "--chunks", 2, "--channels", 4,
                   "--blocks", 1, "--iters", 2, "--batch", 2, "--patch", 12,
                   "--tvp-size", 4, "--seed", 0) == EXIT_OK
        assert run("infer", "--model", ws / "m.rcam", "--chunked",
                   ws / "chunked", "--out", ws / "sr") == EXIT_OK
        assert run("eval", "--sr", ws / "sr", "--hr", ws / "chunked" / "hr",
                   "--lr", ws / "chunked" / "lr", "--scale", 3) == EXIT_OK
        assert model_io.read_frames(ws / "chunked" / "hr")[0].shape == (3, 15, 21)

    def test_fused_and_unfused_inference_match(self, synth_video, capsys):
        ws = synth_video
        run("chunk", "--frames", ws / "hr", "--out", ws / "chunked",
            "--chunks", 3, "--scale", 2)
        run(*small_train_args(ws, ws / "model.rcam"))
        run("fuse", "--model", ws / "model.rcam", "--out", ws / "fused.rcam")
        for model, out in (("model.rcam", "sr_multi"), ("fused.rcam", "sr_fused")):
            assert run("infer", "--model", ws / model, "--chunked",
                       ws / "chunked", "--out", ws / out) == EXIT_OK
            assert run("eval", "--sr", ws / out, "--hr", ws / "hr",
                       "--records", ws / f"{out}.jsonl") == EXIT_OK
        psnrs = []
        for out in ("sr_multi", "sr_fused"):
            recs = [json.loads(l) for l in
                    (ws / f"{out}.jsonl").read_text().splitlines()]
            psnrs.append(np.mean([r["psnr"] for r in recs]))
        assert abs(psnrs[0] - psnrs[1]) <= 0.001

    def test_cost_report_line_format(self, synth_video, capsys):
        ws = synth_video
        run("chunk", "--frames", ws / "hr", "--out", ws / "chunked",
            "--chunks", 3, "--scale", 2)
        run(*small_train_args(ws, ws / "model.rcam", iters=5))
        assert run("cost-report", "--chunked", ws / "chunked", "--model",
                   ws / "model.rcam", "--scheme", "shared-model+tvp",
                   "--records", ws / "cost.jsonl") == EXIT_OK
        rec = json.loads((ws / "cost.jsonl").read_text())
        assert re.fullmatch(r"\d+\.\d\d\+\d+\.\d\d \(\d+\.\d\d\)", rec["line"])
        total = sum(rec["lr_bytes"]) + sum(rec["model_bytes"]) \
            + sum(rec["prompt_bytes"])
        assert rec["total_bytes"] == total

    def test_fuse_of_one_branch_container_writes_identical_bytes(self,
                                                                 synth_video):
        # the one-branch training network is the delivered network
        ws = synth_video
        assert run(*small_train_args(ws, ws / "m1.rcam", iters=5,
                                     extra=["--branches", 1])) == EXIT_OK
        assert run("fuse", "--model", ws / "m1.rcam",
                   "--out", ws / "f1.rcam") == EXIT_OK
        assert (ws / "f1.rcam").read_bytes() == (ws / "m1.rcam").read_bytes()

    def test_baseline_per_chunk_and_per_chunk_costs(self, synth_video):
        ws = synth_video
        run("chunk", "--frames", ws / "hr", "--out", ws / "chunked",
            "--chunks", 3, "--scale", 2)
        assert run(*small_train_args(ws, ws / "baseline", iters=5,
                                     extra=["--baseline-per-chunk"])) == EXIT_OK
        models = sorted((ws / "baseline").glob("chunk*.rcam"))
        assert len(models) == 3
        assert run("cost-report", "--chunked", ws / "chunked",
                   "--scheme", "per-chunk-models", "--models", *models,
                   "--records", ws / "c.jsonl") == EXIT_OK
        rec = json.loads((ws / "c.jsonl").read_text())
        assert len(rec["model_bytes"]) == 3

    def test_baseline_containers_record_what_trained_them(self, workspace):
        # each chunk's container claimed the shared seed 3, chunks 2,
        # tvp_size 4 and boundaries [[0, 4]]
        ws = workspace
        assert run("synth", "--out", ws / "hr", "--frames", 4,
                   "--height", 24, "--width", 24, "--seed", 1) == EXIT_OK
        assert run("train", "--frames", ws / "hr", "--out", ws / "base",
                   "--baseline-per-chunk", "--chunks", 2, "--channels", 4,
                   "--blocks", 1, "--iters", 2, "--batch", 2, "--patch", 8,
                   "--tvp-size", 4, "--seed", 3) == EXIT_OK
        hr = model_io.read_frames(ws / "hr")
        for k in range(2):
            net, _, header = model_io.load_model(ws / "base" / f"chunk{k:02d}.rcam")
            cfg = TrainConfig(**header["train_config"])
            assert (cfg.seed, cfg.chunks, cfg.tvp_size) == (3 + k, 1, 0)
            assert header["chunks"] == {"count": 1, "boundaries": [[0, 2]]}
            # the recorded config retrains the chunk's container
            video = make_lr(chunk_video(hr[2 * k:2 * k + 2], cfg.chunks), cfg.scale)
            again = train(build_backbone(net.config, seed=cfg.seed), [], video, cfg)
            assert all(np.array_equal(net.params[n], again.net.params[n])
                       for n in net.params)


class TestThreadCount:
    def test_outputs_do_not_follow_openblas_threads(self, synth_video):
        # at 270x480, make_lr's column cut followed the worker count, so the
        # LR frames, the container and its records followed
        # OPENBLAS_NUM_THREADS (1 against 2); on 32x32 frames a 16-channel
        # training run that never split ran grad-weight at two BLAS threads.
        # infer and eval of the 32x32 frames never split either.
        ws = synth_video
        assert run("synth", "--out", ws / "hr270", "--frames", 2, "--height", 270,
                   "--width", 480, "--seed", 5) == EXIT_OK
        env = {**os.environ, "PYTHONPATH": str(Path(vidsr.__file__).parents[1])}
        small = ["--chunks", 2, "--patch", 16, "--batch", 4]
        digests = []
        for threads in ("1", "2"):
            out = ws / f"threads{threads}"
            for argv in (["chunk", "--frames", ws / "hr270", "--out",
                          out / "chunked", "--chunks", 2],
                         small_train_args(ws, out / "m.rcam", seed=0, iters=30,
                                          extra=small + ["--frames", ws / "hr270"]),
                         small_train_args(ws, out / "m16.rcam", seed=0, iters=30,
                                          extra=["--chunks", 2, "--channels", 16,
                                                 "--patch", 32]),
                         ["chunk", "--frames", ws / "hr", "--out",
                          out / "chunked32", "--chunks", 2],
                         ["infer", "--model", out / "m16.rcam", "--chunked",
                          out / "chunked32", "--out", out / "sr32"],
                         ["eval", "--sr", out / "sr32", "--hr",
                          out / "chunked32" / "hr", "--lr", out / "chunked32" / "lr",
                          "--records", out / "eval32.jsonl"]):
                subprocess.run([sys.executable, "-m", "vidsr.cli", *map(str, argv)],
                               env=env | {"OPENBLAS_NUM_THREADS": threads},
                               check=True, capture_output=True)
            # manifests record the thread facts and chunks.json the paths
            digests.append({p.relative_to(out).as_posix():
                            hashlib.sha256(p.read_bytes()).hexdigest()
                            for p in out.rglob("*") if p.is_file()
                            and p.name not in ("manifest.json", "chunks.json")
                            and not p.name.endswith(".manifest.json")})
        assert len(digests[0]) == 27 and digests[0] == digests[1]


class TestClientPath:
    def test_infer_prompts_each_frame_with_its_chunks_prompt(self, synth_video,
                                                            tmp_path):
        ws = synth_video
        assert run("chunk", "--frames", ws / "hr", "--out", ws / "chunked",
                   "--chunks", 2, "--scale", 2) == EXIT_OK
        net = build_backbone(BackboneConfig(channels=4, blocks=1, branches=2,
                                            scale=2), seed=0)
        rng = np.random.default_rng(0)
        prompts = [VisualPrompt(k, rng.normal(0.0, 0.1, (3, 8, 8)))
                   for k in range(2)]
        model_io.save_model(ws / "m.rcam", net, prompts)
        assert run("infer", "--model", ws / "m.rcam", "--chunked",
                   ws / "chunked", "--out", ws / "sr") == EXIT_OK

        # the LR frames infer reads: the quantized ones on disk
        ref = make_lr(chunk_video(model_io.read_frames(ws / "hr"), 2), 2)
        video = ChunkedVideo(2, ref.hr, model_io.read_frames(ws / "chunked" / "lr"),
                             ref.boundaries)
        assert video.boundaries == [(0, 3), (3, 6)]
        outputs = []
        for i, lr in enumerate(video.lr):
            chunk = video.chunk_of(i)
            y = sr_frame(net, prompts[chunk], lr)
            model_io.write_ppm(tmp_path / "want.ppm", y.data[0])
            got = model_io.frame_path(ws / "sr", i).read_bytes()
            assert got == (tmp_path / "want.ppm").read_bytes()
            # the other chunk's prompt gives other bytes
            model_io.write_ppm(tmp_path / "other.ppm",
                               sr_frame(net, prompts[1 - chunk], lr).data[0])
            assert got != (tmp_path / "other.ppm").read_bytes()
            outputs.append(y)
        want = np.mean([psnr(y, Tensor4(f[None]))
                        for y, f in zip(outputs, video.hr)])
        assert evaluate_psnr(net, prompts, video,
                             frames=range(video.num_frames)) == float(want)

    def test_epochs_resolve_through_epoch_length(self, synth_video):
        ws = synth_video
        assert run("train", "--frames", ws / "hr", "--out", ws / "m.rcam",
                   "--chunks", 2, "--channels", 4, "--blocks", 1,
                   "--branches", 1, "--batch", 8, "--patch", 16,
                   "--tvp-size", 4, "--epochs", 2, "--seed", 0) == EXIT_OK
        cfg = TrainConfig(chunks=2, batch=8, patch=16)
        video = make_lr(chunk_video(model_io.read_frames(ws / "hr"), 2), 2)
        n = epoch_length(video, cfg)
        assert n == 61  # ceil(6 frames * 9 * 9 positions / 8)
        manifest = json.loads((ws / "m.rcam.manifest.json").read_text())
        assert manifest["config"]["resolved"]["iters"] == 2 * n
        log = [json.loads(line) for line in
               (ws / "m.rcam.metrics.jsonl").read_text().splitlines()]
        assert [(e["epoch"], e["iter"]) for e in log] == [(0, n), (1, 2 * n)]


class TestManifests:
    def test_manifest_written_with_resolved_config(self, synth_video):
        ws = synth_video
        manifest = json.loads((ws / "hr" / "manifest.json").read_text())
        assert manifest["subcommand"] == "synth"
        assert manifest["config"]["seed"] == 3
        assert manifest["tool_version"]
        run(*small_train_args(ws, ws / "m.rcam", iters=3))
        tm = json.loads((ws / "m.rcam.manifest.json").read_text())
        assert tm["config"]["resolved"]["iters"] == 3
        assert tm["config"]["resolved"]["batch"] == 8

    def test_manifest_records_wall_time_and_numpy(self, synth_video):
        ws = synth_video
        run(*small_train_args(ws, ws / "m.rcam", iters=3))
        for path in (ws / "hr" / "manifest.json", ws / "m.rcam.manifest.json"):
            manifest = json.loads(path.read_text())
            assert manifest["numpy_version"] == np.__version__
            assert 0 < manifest["wall_seconds"] < 600

    def test_manifest_records_blas_and_threads(self, synth_video, monkeypatch):
        ws = synth_video
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert run("synth", "--out", ws / "s", "--frames", 1,
                   "--height", 9, "--width", 9) == EXIT_OK
        manifest = json.loads((ws / "s" / "manifest.json").read_text())
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["blas"] == {
            "name": blas["name"], "version": blas["version"],
            "openblas configuration": blas.get("openblas configuration"),
            "OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "3"}
        assert manifest["cpu_count"] == os.cpu_count()
        assert manifest["workers"] == tensor.WORKERS >= 1
        assert manifest["blas_threads"] == tensor.blas_threads()

    def test_manifest_records_prompt_side_clipped_to_frame(self, synth_video):
        # 32x32 HR at x2: 16x16 LR frames, so --tvp-size 100 trains 16x16
        ws = synth_video
        assert run(*small_train_args(ws, ws / "m.rcam", iters=2,
                                     extra=("--tvp-size", 100))) == EXIT_OK
        tm = json.loads((ws / "m.rcam.manifest.json").read_text())
        assert tm["config"]["tvp_size"] == 100
        assert tm["config"]["resolved"]["tvp_size"] == 16
        _, prompts, header = model_io.load_model(ws / "m.rcam")
        assert {p.values.shape for p in prompts} == {(3, 16, 16)}
        # the container keeps the configuration as given
        assert header["train_config"]["tvp_size"] == 100

    def test_records_of_identical_frames_are_json(self, synth_video):
        # the infinite PSNR was written as the bare token Infinity
        ws = synth_video
        assert run("eval", "--sr", ws / "hr", "--hr", ws / "hr",
                   "--records", ws / "r.jsonl") == EXIT_OK

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        for line in (ws / "r.jsonl").read_text().splitlines():
            rec = json.loads(line, parse_constant=refuse)
            assert rec["psnr"] == "inf" and rec["ssim"] == 1.0

    def test_train_determinism_byte_identical(self, synth_video):
        ws = synth_video
        run(*small_train_args(ws, ws / "a.rcam", iters=12, seed=9))
        run(*small_train_args(ws, ws / "b.rcam", iters=12, seed=9))
        assert (ws / "a.rcam").read_bytes() == (ws / "b.rcam").read_bytes()


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, workspace):
        assert run("synth", "--nope") == EXIT_USAGE

    def test_missing_input_is_usage_error(self, workspace):
        assert run("chunk", "--frames", workspace / "missing",
                   "--out", workspace / "o") == EXIT_USAGE

    def test_verify_failure_exits_2(self, synth_video):
        ws = synth_video
        run(*small_train_args(ws, ws / "m.rcam", iters=3))
        assert run("verify-fuse", "--model", ws / "m.rcam",
                   "--tolerance", "0") == EXIT_VALIDATION

    def test_numeric_failure_exits_3_with_dump(self, synth_video, capsys):
        ws = synth_video
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run("train", "--frames", ws / "hr", "--out", ws / "x.rcam",
                     "--chunks", 2, "--channels", 4, "--blocks", 1,
                     "--iters", 400, "--batch", 4, "--patch", 16,
                     "--tvp-size", 0, "--lr", "1e18", "--seed", 0)
        assert rc == EXIT_NUMERIC
        # numpy's overflow warnings no longer precede the report
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.strip().splitlines()
        assert not any("Warning" in line for line in err)
        assert err[-2].startswith("numeric failure:")
        assert err[-1].startswith("diagnostics written to")
        assert not (ws / "vidsr-diagnostic.json").exists()
        dump = json.loads((ws / "x.rcam.diagnostic.json").read_text())
        assert dump["iteration"] >= 1 and dump["lr"] == 1e18
        losses = dump["last_losses"]
        assert 2 <= len(losses) <= 8 and losses[-1] in ("nan", "inf")
        assert all(isinstance(v, float) for v in losses[:-1])
        # every parameter's norm, not only the 4 the message names
        net = build_backbone(BackboneConfig(channels=4, blocks=1, branches=3,
                                            scale=2), seed=0)
        assert sorted(dump["grad_norms"]) == sorted(n for n, _ in named_params(net))
        assert dump["config"]["lr_rate"] == 1e18
        assert dump["config"]["seed"] == 0
        assert "lr=" in dump["error"]

    def test_env_var_sets_default_seed(self, workspace, monkeypatch):
        monkeypatch.setenv("VIDSR_SEED", "77")
        assert run("synth", "--out", workspace / "s", "--frames", 2,
                   "--height", 16, "--width", 16) == EXIT_OK
        manifest = json.loads((workspace / "s" / "manifest.json").read_text())
        assert manifest["seed"] == 77

    def test_bad_env_seed_is_one_line_usage_error(self, workspace,
                                                  monkeypatch, capsys):
        monkeypatch.setenv("VIDSR_SEED", "abc")
        assert run("synth", "--out", workspace / "d") == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert "VIDSR_SEED" in err

    def test_negative_env_seed_is_one_line_usage_error(self, workspace,
                                                       monkeypatch, capsys):
        monkeypatch.setenv("VIDSR_SEED", "-1")
        assert run("synth", "--out", workspace / "d") == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.strip() == "usage error: VIDSR_SEED must be an int >= 0, got '-1'"
        assert not (workspace / "d").exists()

    def test_version_ignores_bad_env_seed(self, monkeypatch, capsys):
        monkeypatch.setenv("VIDSR_SEED", "abc")
        with pytest.raises(SystemExit) as e:
            run("--version")
        assert e.value.code == 0
        assert capsys.readouterr().out.strip() == __version__

    @pytest.mark.parametrize("command", ["cost-report", "synth-with-seed"])
    def test_bad_env_seed_is_read_only_for_an_unset_seed(
            self, synth_video, monkeypatch, capsys, command):
        # a subcommand without --seed, and one given --seed, never read it
        ws = synth_video
        assert run("chunk", "--frames", ws / "hr", "--out", ws / "chunked",
                   "--chunks", 3, "--scale", 2) == EXIT_OK
        TestMalformedInputs.save_toy_model(ws / "m.rcam", prompts=3)
        monkeypatch.setenv("VIDSR_SEED", "abc")
        argv = {"cost-report": ["cost-report", "--chunked", ws / "chunked",
                                "--model", ws / "m.rcam"],
                "synth-with-seed": ["synth", "--out", ws / "s", "--frames", 1,
                                    "--height", 9, "--width", 9, "--seed", 4],
                }[command]
        capsys.readouterr()
        assert run(*argv) == EXIT_OK
        assert "VIDSR_SEED" not in capsys.readouterr().err

    def test_unnamed_value_error_is_a_traceback(self, workspace, monkeypatch):
        # only the named classes map to exit codes; any other exception is
        # a bug and leaves main as itself
        def broken(config):
            raise ValueError("not a named check")
        monkeypatch.setattr(model_io, "generate_synthetic_video", broken)
        with pytest.raises(ValueError, match="not a named check"):
            run("synth", "--out", workspace / "d")


class TestMalformedInputs:
    """Each malformed input ends in its documented exit code with one
    line on stderr and no traceback."""

    @staticmethod
    def one_line(capsys):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        return err

    @staticmethod
    def save_toy_model(path, scale=2, prompts=0, branches=3, side=4):
        net = build_backbone(BackboneConfig(channels=4, blocks=1, branches=branches,
                                            scale=scale), seed=0)
        model_io.save_model(path, net, [make_prompt(k, side) for k in range(prompts)])

    @pytest.mark.parametrize("key,value,message", [
        ("channels", None, "lacks 'channels'"),
        ("merge", None, "lacks 'merge'"),
        ("branches", 4, "br3"),            # the tensors hold 3 branches
        ("merge", "concat", "'concat'"),
        ("kind", "other", "'other'"),
        ("kind", "fused", "kind 'fused' does not fit 3 branches"),
        ("scale", 5, "scale"),
        ("blocks", "1", "'blocks'"),
    ])
    def test_bad_arch_is_one_line_input_error(self, workspace, capsys, key,
                                              value, message):
        path = workspace / "m.rcam"
        self.save_toy_model(path)
        c = model_io.load_container(path)
        arch = dict(c.header["arch"])
        if value is None:
            del arch[key]
        else:
            arch[key] = value
        model_io.save_container(path, model_io.ModelContainer(
            {**c.header, "arch": arch}, c.tensors))
        capsys.readouterr()
        assert run("fuse", "--model", path, "--out", workspace / "f.rcam") == EXIT_USAGE
        assert message in self.one_line(capsys)

    @pytest.mark.parametrize("scale,prompts,message", [
        (2, 2, "x2"),        # x2 model on x3 data
        (3, 2, "2 prompts"),  # right scale, one prompt short of 3 chunks
    ])
    def test_infer_rejects_mismatched_model(self, synth_video, capsys,
                                            scale, prompts, message):
        ws = synth_video
        assert run("chunk", "--frames", ws / "hr", "--out", ws / "chunked",
                   "--chunks", 3, "--scale", 3) == EXIT_OK
        self.save_toy_model(ws / "m.rcam", scale=scale, prompts=prompts)
        capsys.readouterr()
        assert run("infer", "--model", ws / "m.rcam", "--chunked",
                   ws / "chunked", "--out", ws / "sr") == EXIT_VALIDATION
        assert message in self.one_line(capsys)
        assert not (ws / "sr").exists()

    @staticmethod
    def edit_header(path, edit):
        """Rewrite a container's JSON header in place, payload untouched."""
        raw = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", raw, 6)
        header = json.loads(raw[10:10 + hlen])
        edit(header)
        blob = json.dumps(header).encode()
        path.write_bytes(raw[:6] + struct.pack("<I", len(blob)) + blob
                         + raw[10 + hlen:])

    @pytest.mark.parametrize("edit,message", [
        (lambda h: h["manifest"][0].pop("dims"), "lacks int dims"),
        (lambda h: h["manifest"][1].pop("name"), "entry 1 lacks a tensor name"),
        (lambda h: h["prompts"][0].pop("chunk_id"), "lacks an int chunk_id"),
        (lambda h: h["prompts"][1].update(chunk_id=5), "'prompt5'"),
        (lambda h: h["prompts"][0].pop("dims"), "prompt 0 dims None"),
        # a tensor of 2**64 elements, which an int64 product wraps to 0
        (lambda h: h["manifest"].append({"name": "big", "dims": [2 ** 32] * 2}),
         "payload truncated"),
    ], ids=["manifest-no-dims", "manifest-no-name", "prompt-no-chunk-id",
            "prompt-tensor-absent", "prompt-no-dims", "manifest-dims-overflow"])
    def test_bad_container_entry_is_one_line_input_error(self, workspace, capsys,
                                                         edit, message):
        path = workspace / "m.rcam"
        self.save_toy_model(path, prompts=2)
        self.edit_header(path, edit)
        capsys.readouterr()
        assert run("fuse", "--model", path, "--out", workspace / "f.rcam") == EXIT_USAGE
        err = self.one_line(capsys)
        assert err.startswith("input error:") and message in err

    @pytest.mark.parametrize("command", ["fuse", "infer"])
    @pytest.mark.parametrize("shapes,name", [
        ({"head.w": (4, 5, 3, 3)}, "head.w"),
        ({"tail.w": (13, 4, 3, 3), "tail.b": (13,)}, "tail.w"),
        ({"body0.conv0.br2.casc1.w": (4, 4, 3, 3)}, "body0.conv0.br2.casc1.w"),
    ], ids=["head-5-inputs", "tail-13-outputs", "cascade-3x3"])
    def test_tensor_of_wrong_shape_is_one_line_input_error(
            self, synth_video, capsys, command, shapes, name):
        # the first two loaded: fuse rewrote them and exited 0, and infer
        # exited 2 with a numpy matmul or reshape message
        ws = synth_video
        assert run("chunk", "--frames", ws / "hr", "--out", ws / "chunked",
                   "--chunks", 3, "--scale", 2) == EXIT_OK
        path = ws / "m.rcam"
        self.save_toy_model(path)
        c = model_io.load_container(path)
        tensors = {**c.tensors, **{k: np.zeros(v, np.float32)
                                   for k, v in shapes.items()}}
        model_io.save_container(path, model_io.ModelContainer(c.header, tensors))
        capsys.readouterr()
        where = ["--chunked", ws / "chunked"] if command == "infer" else []
        assert run(command, "--model", path, *where, "--out", ws / "out") == EXIT_USAGE
        err = self.one_line(capsys)
        assert err.startswith("input error:") and f"{name} has shape" in err
        assert not (ws / "out").exists()

    @pytest.mark.parametrize("command", ["fuse", "infer"])
    @pytest.mark.parametrize("branches,extra,name", [
        (4, {}, "body0.conv0.br3."),     # M=4 tensors under an M=3 header
        (3, {"prompt2": (3, 4, 4)}, "'prompt2'"),   # no prompt entry
        (3, {"notes": (1,)}, "'notes'"),
    ], ids=["understated-branches", "undeclared-prompt", "stray"])
    def test_unnamed_tensor_is_one_line_input_error(
            self, synth_video, capsys, command, branches, extra, name):
        # each used to be dropped on load without a word
        ws = synth_video
        assert run("chunk", "--frames", ws / "hr", "--out", ws / "chunked",
                   "--chunks", 2, "--scale", 2) == EXIT_OK
        path = ws / "m.rcam"
        self.save_toy_model(path, prompts=2, branches=branches)
        c = model_io.load_container(path)
        header = {**c.header, "arch": {**c.header["arch"], "branches": 3}}
        tensors = {**c.tensors, **{k: np.zeros(v, np.float32)
                                   for k, v in extra.items()}}
        model_io.save_container(path, model_io.ModelContainer(header, tensors))
        capsys.readouterr()
        where = ["--chunked", ws / "chunked"] if command == "infer" else []
        assert run(command, "--model", path, *where, "--out", ws / "out") == EXIT_USAGE
        err = self.one_line(capsys)
        assert err.startswith("input error:") and name in err
        assert "neither a parameter" in err
        assert not (ws / "out").exists()

    @pytest.mark.parametrize("command", ["infer", "cost-report"])
    @pytest.mark.parametrize("edit,message", [
        (lambda m: m.pop("boundaries"), "'boundaries' must be 3 int"),
        (lambda m: m["boundaries"][1].__setitem__(1, "4"), "'boundaries' must be 3 int"),
        (lambda m: m["boundaries"][2].__setitem__(1, 5), "do not tile the 6 LR frames"),
        (lambda m: m.update(scale="2"), "'scale' must be a positive int"),
        (lambda m: m.pop("chunks"), "'chunks' must be a positive int"),
    ], ids=["no-boundaries", "str-bound", "gap-at-end", "str-scale", "no-chunks"])
    def test_bad_chunks_json_is_one_line_input_error(self, synth_video, capsys,
                                                     command, edit, message):
        ws = synth_video
        assert run("chunk", "--frames", ws / "hr", "--out", ws / "chunked",
                   "--chunks", 3, "--scale", 2) == EXIT_OK
        meta_path = ws / "chunked" / "chunks.json"
        meta = json.loads(meta_path.read_text())
        edit(meta)
        meta_path.write_text(json.dumps(meta))
        self.save_toy_model(ws / "m.rcam", prompts=3)
        capsys.readouterr()
        out = ["--out", ws / "sr"] if command == "infer" else []
        assert run(command, "--model", ws / "m.rcam", "--chunked",
                   ws / "chunked", *out) == EXIT_USAGE
        err = self.one_line(capsys)
        assert err.startswith("input error:") and message in err
        assert not (ws / "sr").exists()

    def test_eval_rejects_unequal_dims(self, synth_video, capsys):
        ws = synth_video
        # an HR wider than SR used to be cropped to the SR size and scored
        assert run("synth", "--out", ws / "hr_wide", "--frames", 6,
                   "--height", 32, "--width", 36, "--seed", 3) == EXIT_OK
        capsys.readouterr()
        assert run("eval", "--sr", ws / "hr", "--hr", ws / "hr_wide",
                   "--records", ws / "e.jsonl") == EXIT_USAGE
        err = self.one_line(capsys)
        assert "usage error: frame dims differ: SR 32x32 vs HR 32x36" in err
        assert not (ws / "e.jsonl").exists()

    def test_eval_rejects_lr_frame_count_mismatch(self, synth_video, capsys):
        ws = synth_video
        assert run("synth", "--out", ws / "lr1", "--frames", 1,
                   "--height", 16, "--width", 16, "--seed", 3) == EXIT_OK
        capsys.readouterr()
        assert run("eval", "--sr", ws / "hr", "--hr", ws / "hr", "--lr",
                   ws / "lr1", "--scale", 2, "--records", ws / "e.jsonl") == EXIT_USAGE
        err = self.one_line(capsys)
        assert "usage error: frame count mismatch: 6 SR vs 1 LR" in err
        assert not (ws / "e.jsonl").exists()

    def test_eval_rejects_scale_outside_1_to_4(self, synth_video, capsys):
        # --scale 0 used to end in a ZeroDivisionError traceback
        ws = synth_video
        capsys.readouterr()
        assert run("eval", "--sr", ws / "hr", "--hr", ws / "hr", "--lr",
                   ws / "hr", "--scale", 0, "--records", ws / "e.jsonl") == EXIT_USAGE
        err = self.one_line(capsys)
        assert "usage error: argument --scale: invalid choice: 0" in err
        assert not (ws / "e.jsonl").exists()

    def test_eval_rejects_lr_dims_off_scale(self, synth_video, capsys):
        # 32x32 LR frames for 32x32 SR at x2 used to exit 2 while scoring
        ws = synth_video
        capsys.readouterr()
        assert run("eval", "--sr", ws / "hr", "--hr", ws / "hr", "--lr",
                   ws / "hr", "--scale", 2, "--records", ws / "e.jsonl") == EXIT_USAGE
        err = self.one_line(capsys)
        assert ("usage error: LR frames are 32x32, but SR 32x32 at x2 needs "
                "16x16") in err
        assert not (ws / "e.jsonl").exists()

    @pytest.mark.parametrize("argv,message", [
        (["synth", "--frames", 0], "--frames: must be an int >= 1, got '0'"),
        (["synth", "--height", 8], "--height: must be an int >= 9, got '8'"),
        (["synth", "--width", 8], "--width: must be an int >= 9, got '8'"),
        (["verify-fuse", "--tolerance", "nan"],
         "--tolerance: must be a finite number >= 0, got 'nan'"),
        (["verify-fuse", "--tolerance", -1],
         "--tolerance: must be a finite number >= 0, got '-1'"),
        (["verify-fuse", "--trials", 0], "--trials: must be an int >= 1, got '0'"),
        # these trained (NaN weights, exit 0) or ended in a traceback or a
        # numpy message
        (["train", "--lr", "nan"], "--lr: must be a finite number > 0, got 'nan'"),
        (["train", "--lr", "inf"], "--lr: must be a finite number > 0, got 'inf'"),
        (["train", "--lr", 0], "--lr: must be a finite number > 0, got '0'"),
        (["train", "--batch", 0], "--batch: must be an int >= 1, got '0'"),
        (["train", "--batch", -1], "--batch: must be an int >= 1, got '-1'"),
        (["train", "--patch", 0], "--patch: must be an int >= 1, got '0'"),
        (["train", "--tvp-size", -1],
         "--tvp-size: must be an int >= 0, got '-1'"),
        # these wrote an untrained container (exit 0) or exited 2 as a
        # validation error
        (["train", "--iters", -3], "--iters: must be an int >= 1, got '-3'"),
        (["train", "--epochs", -1], "--epochs: must be an int >= 1, got '-1'"),
        (["train", "--chunks", 0], "--chunks: must be an int >= 1, got '0'"),
        (["train", "--branches", 0],
         "--branches: must be an int >= 1, got '0'"),
        (["train", "--channels", 0],
         "--channels: must be an int >= 1, got '0'"),
        (["train", "--blocks", 0], "--blocks: must be an int >= 1, got '0'"),
        (["chunk", "--chunks", 0], "--chunks: must be an int >= 1, got '0'"),
        # these exited 2 with numpy's message on the seed
        (["synth", "--seed", -3], "--seed: must be an int >= 0, got '-3'"),
        (["train", "--seed", -1], "--seed: must be an int >= 0, got '-1'"),
        (["verify-fuse", "--seed", -2], "--seed: must be an int >= 0, got '-2'"),
    ], ids=["synth-frames-0", "synth-height-8", "synth-width-8",
            "tolerance-nan", "tolerance-negative", "trials-0", "lr-nan",
            "lr-inf", "lr-0", "batch-0", "batch-negative", "patch-0",
            "tvp-size-negative", "iters-negative", "epochs-negative",
            "train-chunks-0", "branches-0", "channels-0", "blocks-0",
            "chunk-chunks-0", "synth-seed-negative", "train-seed-negative",
            "verify-fuse-seed-negative"])
    def test_argument_out_of_range_is_one_line_usage_error(self, workspace,
                                                           capsys, argv,
                                                           message):
        self.save_toy_model(workspace / "m.rcam")
        target = {"synth": ["--out", workspace / "d"],
                  "train": ["--frames", workspace / "hr", "--out", workspace / "d"],
                  "chunk": ["--frames", workspace / "hr", "--out", workspace / "d"],
                  }.get(argv[0], ["--model", workspace / "m.rcam"])
        capsys.readouterr()
        assert run(argv[0], *target, *argv[1:]) == EXIT_USAGE
        err = self.one_line(capsys)
        assert err.startswith("usage error:") and message in err
        assert not (workspace / "d").exists()

    @pytest.mark.parametrize("sizes,message", [
        (["x", 1, 2], "got ['x', 1, 2]"),
        ([10, 20], "must be a list of 3 non-negative ints, one per chunk"),
    ], ids=["str-size", "short-list"])
    def test_cost_report_bad_size_file_is_one_line_input_error(
            self, synth_video, capsys, sizes, message):
        ws = synth_video
        assert run("chunk", "--frames", ws / "hr", "--out", ws / "chunked",
                   "--chunks", 3, "--scale", 2) == EXIT_OK
        self.save_toy_model(ws / "m.rcam", prompts=3)
        (ws / "sizes.json").write_text(json.dumps(sizes))
        capsys.readouterr()
        assert run("cost-report", "--chunked", ws / "chunked", "--model",
                   ws / "m.rcam", "--size-file", ws / "sizes.json",
                   "--records", ws / "c.jsonl") == EXIT_USAGE
        err = self.one_line(capsys)
        assert err.startswith("input error:") and message in err
        assert not (ws / "c.jsonl").exists()

    def test_infer_rejects_prompts_off_chunk_ids(self, synth_video, capsys):
        # prompts 5 and 6 matched no chunk and were skipped without a word
        ws = synth_video
        assert run("chunk", "--frames", ws / "hr", "--out", ws / "chunked",
                   "--chunks", 2, "--scale", 2) == EXIT_OK
        net = build_backbone(BackboneConfig(channels=4, blocks=1, branches=3,
                                            scale=2), seed=0)
        model_io.save_model(ws / "m.rcam", net, [
            VisualPrompt(k, np.full((3, 4, 4), 0.1, np.float32)) for k in (5, 6)])
        capsys.readouterr()
        assert run("infer", "--model", ws / "m.rcam", "--chunked",
                   ws / "chunked", "--out", ws / "sr") == EXIT_USAGE
        err = self.one_line(capsys)
        assert err.startswith("input error:") and "chunk_id 5" in err
        assert not (ws / "sr").exists()

    @pytest.mark.parametrize("case,message", [
        ("infer-model-dir", "Is a directory"),
        ("cost-report-model-dir", "Is a directory"),
        ("train-out-dir", "Is a directory"),
        ("train-out-under-file", "File exists"),
        ("eval-records-dir", "Is a directory"),
        ("cost-report-records-dir", "Is a directory"),
    ])
    def test_unusable_path_is_one_line_input_error(self, synth_video, capsys,
                                                   case, message):
        # each ended in an OSError traceback; the training ones only after
        # the whole run
        ws = synth_video
        assert run("chunk", "--frames", ws / "hr", "--out", ws / "chunked",
                   "--chunks", 3, "--scale", 2) == EXIT_OK
        (ws / "adir").mkdir()
        (ws / "afile").write_text("")
        self.save_toy_model(ws / "m.rcam", prompts=3)
        argv = {"infer-model-dir": ["infer", "--model", ws / "adir", "--chunked",
                                    ws / "chunked", "--out", ws / "sr"],
                "cost-report-model-dir": ["cost-report", "--chunked",
                                          ws / "chunked", "--model", ws / "adir"],
                "train-out-dir": small_train_args(ws, ws / "adir", iters=1),
                "train-out-under-file": small_train_args(
                    ws, ws / "afile" / "m.rcam", iters=1),
                "eval-records-dir": ["eval", "--sr", ws / "hr", "--hr", ws / "hr",
                                     "--records", ws / "adir"],
                "cost-report-records-dir": ["cost-report", "--chunked",
                                            ws / "chunked", "--model", ws / "m.rcam",
                                            "--records", ws / "adir"],
                }[case]
        capsys.readouterr()
        assert run(*argv) == EXIT_USAGE
        err = self.one_line(capsys)
        assert err.startswith("input error:") and message in err
        assert not (ws / "sr").exists()

    @pytest.mark.parametrize("out,message", [
        ("adir", "Is a directory"), ("afile/m.rcam", "File exists")])
    def test_train_out_is_checked_before_the_run(self, synth_video, capsys,
                                                 monkeypatch, out, message):
        # both failed only once the whole run was over
        ws = synth_video
        (ws / "adir").mkdir()
        (ws / "afile").write_text("")

        def trained(*args):
            raise AssertionError("train ran")

        monkeypatch.setattr(cli, "train", trained)
        capsys.readouterr()
        assert run(*small_train_args(ws, ws / out)) == EXIT_USAGE
        err = self.one_line(capsys)
        assert err.startswith("input error:") and message in err

    @pytest.mark.parametrize("log,message", [
        ("adir", "Is a directory"), ("afile/log.jsonl", "File exists")])
    def test_train_log_is_checked_before_the_run(self, synth_video, capsys,
                                                 monkeypatch, log, message):
        # both failed only once the whole run was over, with the container
        # written and no log or manifest
        ws = synth_video
        (ws / "adir").mkdir()
        (ws / "afile").write_text("")

        def trained(*args):
            raise AssertionError("train ran")

        monkeypatch.setattr(cli, "train", trained)
        capsys.readouterr()
        assert run(*small_train_args(ws, ws / "m.rcam",
                                     extra=["--log", ws / log])) == EXIT_USAGE
        err = self.one_line(capsys)
        assert err.startswith("input error:") and message in err
        assert not (ws / "m.rcam").exists()

    def test_log_with_baseline_per_chunk_is_usage_error(self, synth_video,
                                                        capsys, monkeypatch):
        # the baseline writes <out>/metrics.jsonl and ignored --log
        ws = synth_video

        def trained(*args):
            raise AssertionError("train ran")

        monkeypatch.setattr(cli, "train_baseline_per_chunk", trained)
        capsys.readouterr()
        assert run(*small_train_args(ws, ws / "base", extra=[
            "--baseline-per-chunk", "--log", ws / "m.jsonl"])) == EXIT_USAGE
        err = self.one_line(capsys)
        assert err.startswith("usage error:") and "--log" in err
        assert not (ws / "base").exists()

    @pytest.mark.parametrize("out", ["chunked", "chunked/lr", "chunked/hr/../lr/"])
    def test_infer_refuses_to_overwrite_its_input(self, synth_video, capsys, out):
        # --out chunked/lr exited 0 and replaced the LR frames by SR frames
        ws = synth_video
        assert run("chunk", "--frames", ws / "hr", "--out", ws / "chunked",
                   "--chunks", 3, "--scale", 2) == EXIT_OK
        self.save_toy_model(ws / "m.rcam", prompts=3)
        before = {p.name: p.read_bytes() for p in (ws / "chunked" / "lr").iterdir()}
        capsys.readouterr()
        assert run("infer", "--model", ws / "m.rcam", "--chunked", ws / "chunked",
                   "--out", ws / out) == EXIT_USAGE
        err = self.one_line(capsys)
        assert err.startswith("input error:") and "overwrite" in err
        assert before == {p.name: p.read_bytes()
                          for p in (ws / "chunked" / "lr").iterdir()}
        assert sorted(p.name for p in (ws / "chunked").iterdir()) \
            == ["chunks.json", "hr", "lr", "manifest.json"]

    @pytest.fixture()
    def small_frames(self, workspace):
        """3 HR frames of 16x16 in hr/, chunked at x2 into 3 chunks of 8x8
        LR frames; 3 frames of 3x3 in hr3/ and 2 of 8x8 in hr8/; a model
        with 2 prompts and one with 3 prompts of 10x10."""
        ws = workspace
        assert run("synth", "--out", ws / "hr", "--frames", 3, "--height", 16,
                   "--width", 16, "--seed", 3) == EXIT_OK
        assert run("chunk", "--frames", ws / "hr", "--out", ws / "chunked",
                   "--chunks", 3, "--scale", 2) == EXIT_OK
        model_io.write_frames(ws / "hr3", [np.full((3, 3, 3), 0.5, np.float32)] * 3)
        model_io.write_frames(ws / "hr8", [np.full((3, 8, 8), 0.5, np.float32)] * 2)
        self.save_toy_model(ws / "m2.rcam", prompts=2)
        self.save_toy_model(ws / "big.rcam", prompts=3, side=10)
        return ws

    TRAIN_ON_HR = ["train", "--frames", "hr", "--out", "d", "--channels", 4,
                   "--blocks", 1, "--iters", 1, "--batch", 2, "--tvp-size", 4]

    @pytest.mark.parametrize("argv,message", [
        (TRAIN_ON_HR + ["--chunks", 3, "--patch", 48],
         "patch 48 exceeds frame (16x16)"),
        # --out was made before this check and left behind empty
        (TRAIN_ON_HR + ["--chunks", 3, "--patch", 48, "--baseline-per-chunk"],
         "patch 48 exceeds frame (16x16)"),
        (TRAIN_ON_HR + ["--chunks", 3, "--patch", 7],
         "patch size must be a multiple of the scale"),
        (["chunk", "--frames", "hr", "--out", "d", "--chunks", 5],
         "cannot split 3 frames into 5 chunks"),
        (TRAIN_ON_HR + ["--chunks", 5], "cannot split 3 frames into 5 chunks"),
        (["chunk", "--frames", "hr3", "--out", "d", "--chunks", 1, "--scale", 4],
         "frame (3x3) smaller than scale 4"),
        (["infer", "--model", "big.rcam", "--chunked", "chunked", "--out", "d"],
         "prompt (10x10) larger than frame (8x8)"),
        (["eval", "--sr", "hr8", "--hr", "hr8", "--records", "d"],
         "image (8x8) smaller than the 11x11 window"),
        # metrics.cost_report's check; cost-report exited 1 with its own copy
        (["cost-report", "--chunked", "chunked", "--model", "m2.rcam",
          "--records", "d"], "need one prompt size per chunk, got 2"),
    ], ids=["train-patch-over-frame", "train-baseline-patch-over-frame",
            "train-patch-off-scale", "chunk-chunks-5",
            "train-chunks-5", "chunk-scale-over-frame", "infer-prompt-over-frame",
            "eval-under-ssim-window", "cost-report-prompt-count"])
    def test_argument_conflicting_with_data_is_one_line_validation_error(
            self, small_frames, capsys, argv, message):
        capsys.readouterr()
        assert run(*argv) == EXIT_VALIDATION
        err = self.one_line(capsys)
        assert err == f"validation error: {message}\n"
        assert not (small_frames / "d").exists()


# ---------------------------------------------------------------------------
# properties through main: every run exits 0 or its documented code, and a
# failing one prints one line with its code's prefix and no traceback
# ---------------------------------------------------------------------------

PREFIXES = {EXIT_USAGE: ("usage error:", "input error:"),
            EXIT_VALIDATION: ("validation error:",)}


def run_quiet(*argv):
    """main's exit code and standard error (capsys is per test, and a
    property runs many examples in one test)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(*argv)
    err = err.getvalue()
    assert "Traceback" not in err
    if code != EXIT_OK:
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(PREFIXES[code]), err
    return code, err


@pytest.fixture(scope="module")
def delivered(tmp_path_factory):
    """6 frames of 32x32 chunked at x2 into 3 chunks, and a model with one
    prompt per chunk."""
    ws = tmp_path_factory.mktemp("delivered")
    assert run_quiet("synth", "--out", ws / "hr", "--frames", 6, "--height", 32,
                     "--width", 32, "--seed", 3)[0] == EXIT_OK
    assert run_quiet("chunk", "--frames", ws / "hr", "--out", ws / "chunked",
                     "--chunks", 3, "--scale", 2)[0] == EXIT_OK
    TestMalformedInputs.save_toy_model(ws / "m.rcam", prompts=3)
    return ws


NOT_AN_INT = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False),
                       st.text(max_size=3), st.lists(st.integers(0, 6), max_size=2),
                       st.dictionaries(st.text(max_size=2), st.integers(),
                                       max_size=1))


def _drop(key):
    return lambda meta: meta.pop(key)


def _set(key, value):
    return lambda meta: meta.__setitem__(key, value)


def _set_bound(k, j, value):
    return lambda meta: meta["boundaries"][k].__setitem__(j, value)


def _reorder(order):
    return lambda meta: meta.__setitem__(
        "boundaries", [meta["boundaries"][k] for k in order])


def _overlap(k, d):
    # chunk k starts d frames inside chunk k - 1
    return lambda meta: meta["boundaries"][k].__setitem__(
        0, meta["boundaries"][k][0] - d)


# the keys the client reads; chunk's other keys are records for people
CHUNKS_KEYS = ("chunks", "scale", "boundaries")

MUTATIONS = st.one_of(
    st.builds(_drop, st.sampled_from(CHUNKS_KEYS)),
    st.builds(_set, st.sampled_from(CHUNKS_KEYS), NOT_AN_INT),
    st.builds(_set_bound, st.integers(0, 2), st.integers(0, 1), NOT_AN_INT),
    st.builds(_reorder, st.permutations(range(3)).filter(
        lambda order: order != [0, 1, 2])),
    st.builds(_overlap, st.integers(1, 2), st.integers(1, 2)),
)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(mutate=MUTATIONS, command=st.sampled_from(["infer", "cost-report"]))
def test_mutated_chunks_json_is_one_line_input_error(delivered, mutate, command):
    ws = delivered
    meta_path = ws / "chunked" / "chunks.json"
    original = meta_path.read_text()
    meta = json.loads(original)
    mutate(meta)
    meta_path.write_text(json.dumps(meta))
    try:
        out = ["--out", ws / "sr"] if command == "infer" else []
        code, err = run_quiet(command, "--model", ws / "m.rcam",
                              "--chunked", ws / "chunked", *out)
    finally:
        meta_path.write_text(original)
    assert code == EXIT_USAGE and err.startswith("input error:"), err
    assert not (ws / "sr").exists()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(frames=st.integers(1, 4), height=st.integers(9, 40),
       width=st.integers(9, 40), scale=st.integers(2, 4),
       chunks=st.integers(1, 4), branches=st.integers(1, 3),
       tvp=st.integers(0, 20), patch_cells=st.integers(1, 6))
def test_tiny_geometry_walkthrough_exits_as_documented(
        frames, height, width, scale, chunks, branches, tvp, patch_cells):
    """synth | chunk | train | fuse | infer, then eval and cost-report of
    the result, at tiny geometries. Each step exits with the code its
    documented checks give these arguments: 2 for more chunks than frames,
    a patch larger than the HR frame cropped to the scale, a frame under
    SSIM's 11x11 window, or a prompt-count mismatch (no prompts under
    shared-model+tvp); 0 otherwise."""
    patch = patch_cells * scale
    side = min(height // scale, width // scale) * scale  # cropped HR
    with tempfile.TemporaryDirectory() as d:
        ws = Path(d)
        chain = [
            (["synth", "--out", ws / "hr", "--frames", frames, "--height", height,
              "--width", width, "--seed", 5], EXIT_OK),
            (["chunk", "--frames", ws / "hr", "--out", ws / "chunked",
              "--chunks", chunks, "--scale", scale],
             EXIT_VALIDATION if chunks > frames else EXIT_OK),
            (["train", "--frames", ws / "hr", "--out", ws / "m.rcam",
              "--scale", scale, "--chunks", chunks, "--branches", branches,
              "--channels", 4, "--blocks", 1, "--iters", 2, "--batch", 2,
              "--patch", patch, "--tvp-size", tvp, "--lr", "1e-3",
              "--seed", 0], EXIT_VALIDATION if patch > side else EXIT_OK),
            (["fuse", "--model", ws / "m.rcam", "--out", ws / "f.rcam"], EXIT_OK),
            (["infer", "--model", ws / "f.rcam", "--chunked", ws / "chunked",
              "--out", ws / "sr"], EXIT_OK),
        ]
        for argv, want in chain:
            assert run_quiet(*argv)[0] == want, argv
            if want != EXIT_OK:
                return
        code, _ = run_quiet("eval", "--sr", ws / "sr", "--hr", ws / "chunked" / "hr",
                            "--lr", ws / "chunked" / "lr", "--scale", scale)
        assert code == (EXIT_VALIDATION if side < 11 else EXIT_OK)
        code, _ = run_quiet("cost-report", "--chunked", ws / "chunked",
                            "--model", ws / "f.rcam")
        assert code == (EXIT_VALIDATION if tvp == 0 else EXIT_OK)

        meta = json.loads((ws / "chunked" / "chunks.json").read_text())
        lr = model_io.read_frames(ws / "chunked" / "lr")
        sr = model_io.read_frames(ws / "sr")
        lh, lw = meta["lr_dims"]
        assert len(sr) == meta["frames"] == frames
        assert {f.shape for f in sr} == {(3, lh * scale, lw * scale)}
        net, prompts, _ = model_io.load_model(ws / "m.rcam")
        fused, fused_prompts, _ = model_io.load_model(ws / "f.rcam")
        for i, f in enumerate(lr):
            k = chunk_index(meta["boundaries"], i)
            a = sr_frame(net, prompts[k] if prompts else None, f)
            b = sr_frame(fused, fused_prompts[k] if fused_prompts else None, f)
            assert np.abs(a.data - b.data).max() <= 1e-4
