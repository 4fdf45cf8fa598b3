"""The benchmark's tracer (perfbench/tracer.py) wraps vidsr functions by
owner and name, and its workloads check counts derived from the code. A
name it wraps that no longer exists, or a count that no longer holds,
would only show up in a benchmark run; these tests catch it in the unit
suite."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vidsr import network, tensor
from vidsr.fuse import fuse_network
from vidsr.network import BackboneConfig, build_backbone
from vidsr.tensor import Tensor4

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined_on_its_owner():
    targets = load_tracer().TARGETS
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in targets
               if attr not in vars(owner)]
    assert missing == []


def test_traced_fused_forward_counts_one_conv_per_layer():
    bench = load_tracer()
    cfg = BackboneConfig(channels=4, blocks=2, branches=3, scale=2)
    fused = fuse_network(build_backbone(cfg, seed=0))
    x = Tensor4.from_array(np.random.default_rng(1).random((1, 3, 6, 5)))
    originals = {(owner, attr): vars(owner)[attr]
                 for owner, attr, *_ in bench.TARGETS}
    tracer = bench.Tracer()
    tracer.install()
    try:
        assert network._conv2d is not originals[(tensor, "_conv2d")]
        tracer.phase = "run"
        network.sr_forward(fused, x)
    finally:
        tracer.phase = None
        tracer.uninstall()
    # head, two convs per block, tail
    assert tracer.counts["run"]["conv_calls"] == 2 + 2 * cfg.blocks
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in originals.items())
    assert network._conv2d is originals[(tensor, "_conv2d")]


@pytest.mark.parametrize("workload", ["train_m3", "train_m1", "deliver_270p"])
def test_short_traced_benchmark_run_passes_its_checks(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "0", "--seconds", "2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
