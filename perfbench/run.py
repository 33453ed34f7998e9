"""Benchmark of the cfmimo simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--scale full|tiny]

Run from the repository root; the simulator is imported from ``src``. Workloads
are defined in ``workloads.py``. With ``--trace 0`` the run reports the
end-to-end metrics: ``setup_s`` plus what ``bench.py`` measures, among them
``speedup_vs_frozen``, the speed of the simulator relative to a frozen copy of
it timed alongside (``worker.py``). ``setup_s`` is the time from starting a
fresh interpreter to the first episode call, timed in turn on the simulator and
on the frozen copy; it is reported as their ratio times ``FROZEN_SETUP_S``, so
that it does not follow the host's drifting speed. The raw samples are in the
report. With ``--trace 1`` it reports the per-layer metrics of the traced loop.
Every child runs with ``OPENBLAS_NUM_THREADS=1``.

Standard output ends with two lines: a JSON report (machine facts, raw samples,
check messages) and the JSON result ``{"correct", "attempted", "failed",
"metrics"}``. The exit code is 0 only when every correctness check passed.
This script uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FROZEN = HERE / "frozen"
# Blocks of set-up probes (two on each simulator) before the measuring process
# and as many after it, so that set-up is sampled across the run.
SETUP_BLOCKS = 2
# Median set-up time of the frozen simulator on the machine the benchmark was
# defined on (2-vCPU VM, Python 3.11, numpy 2.4); setup_s is expressed in it.
FROZEN_SETUP_S = 0.4
DEADLINE_S = 170.0


def child_env(simulator: Path = SRC) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(simulator), env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def run_child(args: list[str], timeout: float, simulator: Path = SRC) -> str:
    """Run a Python child to completion and return its standard output.

    The child gets its own process group, so a timeout also stops the pool
    workers it started.
    """
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=child_env(simulator), stdout=subprocess.PIPE, start_new_session=True,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:1])} exited with code {proc.returncode}")
    return out


def setup_seconds(args, deadline: float, simulator: Path) -> float:
    """Time from starting a fresh interpreter on ``simulator`` to the first episode call."""
    start = time.monotonic()
    out = run_child([str(HERE / "probe.py"), args.workload, str(args.seed), args.scale], deadline - start, simulator)
    return float(out.strip().splitlines()[-1]) - start


def setup_blocks(args, deadline: float, samples: dict) -> None:
    """Add ``SETUP_BLOCKS`` blocks of probes to ``samples``: current, frozen, frozen, current."""
    for _ in range(SETUP_BLOCKS):
        for simulator in (SRC, FROZEN, FROZEN, SRC):
            samples[simulator.name].append(setup_seconds(args, deadline, simulator))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cfmimo benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", default="full")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "cfmimo" / "__init__.py").is_file():
        print(f"no cfmimo sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        setup = {SRC.name: [], FROZEN.name: []}
        if not args.trace:
            setup_blocks(args, deadline, setup)
        bench_args = [
            str(HERE / "bench.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale,
        ]
        result = json.loads(run_child(bench_args, deadline - time.monotonic()).strip().splitlines()[-1])
        if not args.trace:
            setup_blocks(args, deadline, setup)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        # The host's speed drifts, so the current simulator's set-up is scaled
        # by the frozen one's, timed alongside.
        setup_s = FROZEN_SETUP_S * sum(setup[SRC.name]) / sum(setup[FROZEN.name])
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
        result["details"]["setup_samples_s"] = setup
        result["details"]["raw_setup_s"] = statistics.median(setup[SRC.name])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "details": result["details"],
        "errors": result["errors"],
    }
    print(json.dumps(report))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed")} | {"metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
