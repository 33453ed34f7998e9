"""Unit worker of the cfmimo benchmark; ``bench.py`` starts two of them.

    PYTHONPATH=src python3 perfbench/worker.py src WORKLOAD SEED SCALE PARALLELISM
    PYTHONPATH=perfbench/frozen python3 perfbench/worker.py frozen WORKLOAD SEED SCALE PARALLELISM

One worker runs the simulator under test, from ``src``. The other runs
``frozen/cfmimo``, a copy of the simulator as it was when the benchmark was
defined (``src/cfmimo`` without ``cli.py`` and ``selftest.py``). The copy is
never edited; its worker refuses to run if its files no longer hash to
``FROZEN_SHA256``. The shared hosts this benchmark runs on change speed by tens
of percent for tens of seconds at a time, so a throughput on its own does not
compare across runs; ``bench.py`` times the two workers on the same units, one
after the other, and reports the ratio.

Each line read from standard input is a unit index. The worker runs that unit
(``workloads.run_unit``) and answers with one JSON line: its wall time, the
error if it failed, the checks of its outputs and the peak resident memory so
far. It exits at the end of its input.
"""

import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import cfmimo
from cfmimo.errors import SimulationError

import workloads

HERE = Path(__file__).resolve().parent
SIMULATORS = {"src": HERE.parent / "src", "frozen": HERE / "frozen"}
FROZEN_SHA256 = "b5d246680791d85504310011b930bca37aa831571b0e0906762e01cc5362fc44"
BYTES_PER_MB = 1e6


def frozen_digest() -> str:
    """SHA-256 over the relative path and bytes of every source file of the frozen copy."""
    root = SIMULATORS["frozen"]
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def sanity(result, cfg) -> list[str]:
    """Plausibility of one episode's outputs."""
    problems = []
    expected_shape = (cfg.n_steps, cfg.deployment.num_ues)
    if result.se.shape != expected_shape:
        problems.append(f"SE shape {result.se.shape} != {expected_shape}")
    valid = result.se[~np.isnan(result.se)]
    if not np.all(np.isfinite(valid)) or np.any(valid < 0):
        problems.append("SE sample outside [0, inf)")
    if result.ledger.total_fronthaul <= 0:
        problems.append("no fronthaul samples billed")
    unknown = {e.kind for e in result.events} - set(workloads.EVENT_KINDS)
    if unknown:
        problems.append(f"unknown event kinds {sorted(unknown)}")
    return problems


def run(w: workloads.Workload, cfg, unit: int, parallelism: int) -> dict:
    """Run one unit and describe it: wall time, error, sample counts and checks."""
    t0 = perf_counter()
    try:
        result = workloads.run_unit(w, cfg, unit, parallelism)
    except SimulationError as exc:
        return {"wall_s": perf_counter() - t0, "error": str(exc)}
    wall = perf_counter() - t0
    if w.kind == "campaign":
        # run_campaign reports no per-sample NaN count, only cell means.
        return {
            "wall_s": wall,
            "samples": len(result.rows),
            "invalid": sum(1 for r in result.rows if not np.isfinite(r.mean_se)),
            "csv": result.to_csv(),
            "problems": [],
        }
    return {
        "wall_s": wall,
        "samples": int(result.se.size),
        "invalid": int(np.isnan(result.se).sum()),
        "problems": sanity(result, cfg),
    }


def peak_rss_mb(campaign: bool) -> float:
    """Peak resident memory of this worker, or of its pool workers for a campaign."""
    usage = resource.RUSAGE_CHILDREN if campaign else resource.RUSAGE_SELF
    return resource.getrusage(usage).ru_maxrss * 1024 / BYTES_PER_MB


if __name__ == "__main__":
    simulator, name, seed, scale, parallelism = sys.argv[1:6]
    if SIMULATORS[simulator].resolve() not in Path(cfmimo.__file__).resolve().parents:
        sys.exit(f"cfmimo imported from {cfmimo.__file__}, not from {SIMULATORS[simulator]}")
    if simulator == "frozen" and frozen_digest() != FROZEN_SHA256:
        sys.exit(f"the frozen simulator under {SIMULATORS['frozen']} was edited")
    w = workloads.build(name, scale)
    cfg = w.with_seed(int(seed))
    for line in sys.stdin:
        reply = run(w, cfg, int(line), int(parallelism))
        reply["peak_rss_mb"] = peak_rss_mb(w.kind == "campaign")
        print(json.dumps(reply), flush=True)
