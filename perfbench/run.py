"""vidsr benchmark: toy training at M=3 and M=1, and 270p delivery.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train_m3 --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory; nothing is
installed. Workloads (all closed-loop with one caller, in one process):

- ``train_m3`` / ``train_m1``: the toy recipe of acceptance criterion 5
  (16x96x96 synthetic video, 9 chunks, x2, C=16, 2 blocks, batch 32,
  patch 48, prompt 48, loss sampler, lr 2e-3) with M=3 or M=1 branches,
  driven through ``pipeline.train`` in calls of ``TRAIN_CALL_ITERS``
  iterations until the time is up. A step is one training iteration.
- ``deliver_270p``: the client path on 270x480 LR frames (540x960 HR) in
  two chunks. Set-up fuses a seeded M=3 model with nonzero prompts, saves
  and reloads it. A step is read_ppm -> apply_prompt -> fused
  sr_forward -> write_ppm; the frame is then scored with psnr, ssim and
  consistency against HR.

End-to-end metrics (``--trace 0``) use the same names on every workload;
what a step and an evaluated frame are depends on the workload:

- ``setup_s``: median over repeated set-ups, at least ``SETUP_REPS`` of
  them and at least ``SETUP_SECONDS`` in all (training: read HR, chunk, LR,
  backbone, prompts; delivery: that plus LR frame files, fuse, save and
  load of the container). Input synthesis is not set-up.
- ``step_ms_p50``, ``step_ms_p90``: wall time per training iteration (gap
  between successive ``PatchSampler.sample`` calls) or per delivered frame.
- ``cpu_ms_per_step``: process CPU time (all threads) per step.
- ``steps_per_s``: steps completed per second of measured loop, which
  includes the evaluation below.
- ``eval_ms_p50``: wall time to score one frame: psnr + ssim + consistency
  after each delivered frame; ``pipeline.evaluate_psnr`` on each frame of
  the video after each train call.
- ``psnr_db``: PSNR of the trained model over all frames, or mean PSNR of
  the delivered frames.
- ``peak_rss_mb``: ``ru_maxrss`` of the process after the measured loop.
- ``delivery_bytes``: ``shared-model+tvp`` total of ``metrics.cost_report``
  for the fused container (of the trained model, on training).

``--trace 1`` measures half the time untraced and half traced, and
reports the per-layer metrics listed in ``BENCHMARK.json``. ``*_ms``
metrics are inclusive time in the named function per step;
``*.self_ms`` and ``*_self_ms`` exclude child spans. The layer self times
plus ``trace.untraced_ms`` add up to ``trace.wall_ms``. Counts come from
shapes and are checked to repeat exactly. Spans are written to
``.bench_out/``.

The last line of standard output is the result object; the line before
it holds the environment, the checks and the run details. Exit code 0
means every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("train_m3", "train_m1", "deliver_270p")
SETUP_REPS = 11
SETUP_SECONDS = 1.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "vidsr").glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


class Run:
    """State of one benchmark invocation: arguments, checks, tracer."""

    def __init__(self, args, work: Path, out: Path):
        self.seed = args.seed
        self.seconds = args.seconds
        self.traced = bool(args.trace)
        self.work = work
        self.out = out
        self.checks = {}
        self.details = {}
        self.attempted = 0
        self.failed = 0
        self.setup_reps = 0
        self.source_digest = source_digest()
        self.tracer = None
        if self.traced:
            import tracer

            self.tracer = tracer.Tracer()

    def check(self, name: str, ok, detail=None):
        """Record a named check; a failure sticks with its first detail."""
        if self.checks.get(name, {"ok": True})["ok"]:
            self.checks[name] = {"ok": bool(ok), "detail": detail}

    @contextlib.contextmanager
    def tracing(self, phase):
        """Record spans under phase while inside; a no-op without a tracer."""
        if self.tracer is None or phase is None:
            yield
            return
        self.tracer.install()
        self.tracer.phase = phase
        try:
            yield
        finally:
            self.tracer.phase = None
            self.tracer.uninstall()

    def setup(self, fn):
        """Median wall of repeated calls of fn; returns (seconds, last result)."""
        walls = []
        with self.tracing("setup"):
            while len(walls) < SETUP_REPS or sum(walls) < SETUP_SECONDS:
                t0 = time.perf_counter()
                result = fn()
                walls.append(time.perf_counter() - t0)
        self.setup_reps = len(walls)
        return statistics.median(walls), result

    @property
    def recording(self) -> bool:
        return self.tracer is not None and self.tracer.phase is not None

    @contextlib.contextmanager
    def untraced(self):
        """Suspend span recording, e.g. for the benchmark's own evaluation."""
        if not self.recording:
            yield
            return
        phase, self.tracer.phase = self.tracer.phase, None
        try:
            yield
        finally:
            self.tracer.phase = phase

    def phases(self):
        """(seconds, traced) pairs the measured loop runs for."""
        if self.traced:
            return [(self.seconds / 2, False), (self.seconds / 2, True)]
        return [(self.seconds, False)]

    def measure(self, loop, seconds: float, traced: bool):
        """Run loop(deadline) -> step count; returns (wall s, steps)."""
        with self.tracing("run" if traced else None):
            t0 = time.perf_counter()
            steps = loop(t0 + seconds)
            return time.perf_counter() - t0, steps


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (SRC / "vidsr" / "__init__.py").is_file():
        print(f"benchmark: no vidsr sources under {SRC}", file=sys.stderr)
        return 2
    # keep BLAS within the cores this process may use
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(nproc()))
    sys.path.insert(0, str(SRC))
    import vidsr

    if Path(vidsr.__file__).resolve().parent != SRC / "vidsr":
        print(f"benchmark: imported vidsr from {vidsr.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    out = ROOT / ".bench_out"
    work = out / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    run = Run(args, work, out)
    try:
        metrics = workloads.run(args.workload, run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if run.tracer:
        run.tracer.dump(out / f"trace-{args.workload}-seed{args.seed}.json",
                        {"checks": run.checks, "details": run.details,
                         "metrics": metrics})

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if run.traced else "end_to_end"]]
    run.check("metrics_match_declared", sorted(names) == sorted(metrics),
              sorted(set(names) ^ set(metrics)))
    correct = run.failed == 0 and all(c["ok"] for c in run.checks.values())
    print(json.dumps({
        "workload": args.workload,
        "environment": environment(args.seed),
        "source_digest": run.source_digest,
        "checks": run.checks,
        "details": run.details,
    }, sort_keys=True))
    for name, c in run.checks.items():
        if not c["ok"]:
            print(f"benchmark: check {name} failed: {c['detail']}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
