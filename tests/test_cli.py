import json
import re
import struct

import numpy as np
import pytest

from vidsr import model_io
from vidsr.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from vidsr.network import BackboneConfig, build_backbone, named_params
from vidsr.prompt import make_prompt


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

    def test_manifest_records_wall_time_and_numpy(self, synth_video):
        ws = synth_video
        run(*small_train_args(ws, ws / "m.rcam", iters=3))
        for path in (ws / "hr" / "manifest.json", ws / "m.rcam.manifest.json"):
            manifest = json.loads(path.read_text())
            assert manifest["numpy_version"] == np.__version__
            assert 0 < manifest["wall_seconds"] < 600

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
    def save_toy_model(path, scale=2, prompts=0):
        net = build_backbone(BackboneConfig(channels=4, blocks=1, branches=3,
                                            scale=scale), seed=0)
        model_io.save_model(path, net, [make_prompt(k, 4) for k in range(prompts)])

    @pytest.mark.parametrize("key,value,message", [
        ("channels", None, "lacks 'channels'"),
        ("merge", None, "lacks 'merge'"),
        ("branches", 4, "br3"),            # the tensors hold 3 branches
        ("merge", "concat", "'concat'"),
        ("kind", "other", "'other'"),
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
    ], ids=["manifest-no-dims", "manifest-no-name", "prompt-no-chunk-id",
            "prompt-tensor-absent", "prompt-no-dims"])
    def test_bad_container_entry_is_one_line_input_error(self, workspace, capsys,
                                                         edit, message):
        path = workspace / "m.rcam"
        self.save_toy_model(path, prompts=2)
        self.edit_header(path, edit)
        capsys.readouterr()
        assert run("fuse", "--model", path, "--out", workspace / "f.rcam") == EXIT_USAGE
        err = self.one_line(capsys)
        assert err.startswith("input error:") and message in err

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
