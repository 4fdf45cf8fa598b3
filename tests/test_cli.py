import json
import re

import numpy as np
import pytest

from vidsr.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main


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

    def test_numeric_failure_exits_3_with_dump(self, synth_video):
        ws = synth_video
        with np.errstate(all="ignore"):
            rc = run("train", "--frames", ws / "hr", "--out", ws / "x.rcam",
                     "--chunks", 2, "--channels", 4, "--blocks", 1,
                     "--iters", 400, "--batch", 4, "--patch", 16,
                     "--tvp-size", 0, "--lr", "1e18", "--seed", 0)
        assert rc == EXIT_NUMERIC
        assert (ws / "vidsr-diagnostic.json").exists()

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
