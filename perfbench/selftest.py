"""Fast self-test of the benchmark on the tiny configuration.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at ``--scale tiny`` through ``run.py``,
untraced and traced, and checks that the result line carries exactly the
declared metrics, each with its declared unit. Then checks that the
bit-identity check rejects a traced loop whose SE has been perturbed by one
ulp, and that the recorded-value check holds SE to 1e-9 relative. Exits 0
when every check passes; takes about a minute.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def check_emitted_metrics(spec: dict) -> list[str]:
    problems = []
    for workload in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            args = ["--workload", workload["name"], "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], *args, "--scale", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            label = f"{workload['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"} or result["correct"] is not True:
                problems.append(f"{label}: bad result keys or not correct: {sorted(result)}")
                continue
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics {sorted(set(got) ^ set(want))} or their units differ")
            for name, metric in result["metrics"].items():
                if not math.isfinite(metric["value"]):
                    problems.append(f"{label}: {name} is {metric['value']}")
    return problems


def check_perturbed_loop_rejected() -> list[str]:
    w = workloads.build("paper_fixed", "tiny")
    cfg = w.with_seed(SEED)
    honest = tracing.traced_episode

    def perturbed(*args, **kwargs):
        result = honest(*args, **kwargs)
        result.se[-1, 0] = np.nextafter(result.se[-1, 0], np.inf)
        return result

    bench.tracing.traced_episode = perturbed
    try:
        result = bench.traced(w, cfg)
    finally:
        bench.tracing.traced_episode = honest
    if result["correct"] or not any("SE differs" in e for e in result["errors"]):
        return ["a traced loop with one SE sample moved by one ulp was accepted"]
    if not bench.traced(w, cfg)["correct"]:
        return ["the honest traced loop was rejected"]
    return []


def check_reference_tolerance() -> list[str]:
    w = workloads.build("handover_churn", "tiny")
    expected = json.loads(bench.RECORDED.read_text())["tiny"][w.name]
    actual = bench.reference(w, parallelism=1)
    problems = []
    if bench.compare_reference(actual, expected):
        problems.append("the recorded tiny reference does not reproduce")
    for rel, must_pass in ((1e-12, True), (1e-8, False)):
        moved = json.loads(json.dumps(actual))
        moved["episode"]["mean_se"] *= 1.0 + rel
        if (not bench.compare_reference(moved, expected)) != must_pass:
            problems.append(f"a mean SE moved by {rel:g} relative was {'rejected' if must_pass else 'accepted'}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_emitted_metrics(spec) + check_perturbed_loop_rejected() + check_reference_tolerance()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest passed" if not problems else f"selftest failed: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
