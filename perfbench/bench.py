"""Measuring process of the cfmimo benchmark; ``run.py`` starts it.

    python3 perfbench/bench.py --workload NAME --seed N --seconds S --trace 0|1 [--scale full|tiny]

With ``--trace 0`` it calls the simulator's public entry points for about
``--seconds`` seconds and reports the end-to-end metrics except ``setup_s``,
which ``run.py`` measures in fresh interpreters. Two ``worker.py`` processes
run the same units of work (episodes, or campaigns), one on the current
simulator and one on a frozen copy of it; the speed metric is the ratio of
their times, and the raw throughputs go into the details. With ``--trace 1``
it runs a fixed set of episodes through the traced loop (``tracing.py``),
checks each against ``run_episode`` bit for bit and reports the per-layer
metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed``, ``metrics``, ``details`` and
``errors``; every metric is ``{"value": ..., "unit": ...}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import cfmimo
from cfmimo import run_episode
from cfmimo.errors import SimulationError
from cfmimo.simulate import campaign_cells

import tracing
import worker
import workloads

HERE = Path(__file__).resolve().parent
RECORDED = HERE / "recorded.json"
SE_RTOL = 1e-9
# Fresh pairs of workers a measuring window is split over.
SEGMENTS = 4
BYTES_PER_MB = 1e6


def workers() -> int:
    """Pool size of ``desk_sweep``: the cores this process may run on (``nproc``)."""
    return len(os.sched_getaffinity(0))


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": workers(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _campaign_jobs(w: workloads.Workload, cfg) -> list:
    """The (strategy, threshold, speed, setup) episodes of one campaign, in its order."""
    cells = campaign_cells(cfg, w.strategies, [cfg.handover.threshold_db], w.speeds)
    return [(*cell, setup) for cell in cells for setup in range(cfg.n_setups)]


# --- correctness -----------------------------------------------------------


def episode_summary(result) -> dict:
    """Mean SE, handover counts by kind, ledger totals and NaN count of one episode."""
    digest = tracing.episode_digest(result)
    return {
        "mean_se": result.mean_se,
        "handovers": dict(sorted(Counter(event[2] for event in digest["events"]).items())),
        "ledger": digest["ledger"],
        "invalid_samples": digest["invalid_samples"],
    }


def reference(w: workloads.Workload, parallelism: int) -> dict:
    """The workload's outputs at the default seed: what recorded.json holds."""
    cfg = w.with_seed(workloads.DEFAULT_SEED)
    if w.kind == "campaign":
        return {"csv": workloads.run_unit(w, cfg, 0, parallelism).to_csv()}
    return {"episode": episode_summary(workloads.run_unit(w, cfg, 0, parallelism))}


def _close(a: float, b: float) -> bool:
    if np.isnan(a) or np.isnan(b):
        return bool(np.isnan(a) and np.isnan(b))
    return abs(a - b) <= SE_RTOL * max(abs(a), abs(b))


def compare_reference(actual: dict, expected: dict) -> list[str]:
    """SE to 1e-9 relative; handover counts, ledger totals and cell keys exactly."""
    if "csv" in expected:
        return _compare_csv(actual["csv"], expected["csv"])
    mine, theirs = actual["episode"], expected["episode"]
    problems = []
    if not _close(mine["mean_se"], theirs["mean_se"]):
        problems.append(f"mean SE {mine['mean_se']!r} != recorded {theirs['mean_se']!r}")
    for key in ("handovers", "ledger", "invalid_samples"):
        if mine[key] != theirs[key]:
            problems.append(f"{key} {mine[key]} != recorded {theirs[key]}")
    return problems


def _compare_csv(actual: str, expected: str) -> list[str]:
    rows, recorded = actual.splitlines(), expected.splitlines()
    if len(rows) != len(recorded) or rows[:1] != recorded[:1]:
        return [f"campaign CSV has {len(rows)} lines, recorded {len(recorded)}"]
    header = recorded[0].split(",")
    problems = []
    for row, want in zip(rows[1:], recorded[1:]):
        for name, got, exp in zip(header, row.split(","), want.split(",")):
            same = _close(float(got), float(exp)) if name in ("mean_se", "se_stderr") else got == exp
            if not same:
                problems.append(f"campaign cell {want.split(',')[:3]}: {name} {got} != recorded {exp}")
    return problems


def check_reference(w: workloads.Workload, scale: str, parallelism: int) -> list[str]:
    expected = json.loads(RECORDED.read_text())[scale][w.name]
    try:
        actual = reference(w, parallelism)
    except SimulationError as exc:
        return [f"reference run at seed {workloads.DEFAULT_SEED} failed: {exc}"]
    return [f"reference: {p}" for p in compare_reference(actual, expected)]


# --- untraced runs ---------------------------------------------------------


def _timed(call):
    t0 = perf_counter()
    try:
        outcome = call()
    except SimulationError as exc:
        outcome = exc
    return outcome, perf_counter() - t0


class Worker:
    """A ``worker.py`` process running units of one workload on one simulator."""

    def __init__(self, simulator: str, w: workloads.Workload, cfg, scale: str):
        env = dict(os.environ, PYTHONPATH=str(worker.SIMULATORS[simulator]))
        args = [str(HERE / "worker.py"), simulator, w.name, str(cfg.seed), scale, str(workers())]
        self.proc = subprocess.Popen(
            [sys.executable, *args], env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def run(self, unit: int) -> dict:
        """The worker's reply for ``unit``: wall time, error, counts and checks."""
        self.proc.stdin.write(f"{unit}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        finally:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()


def _keep_going(start: float, last: float, seconds: float) -> bool:
    """Start another block while it should end near the window's end."""
    return perf_counter() - start + 0.5 * last < seconds


def _segment(w: workloads.Workload, cfg, seconds: float, scale: str, unit: int) -> list:
    """``(current, frozen)`` replies for units ``unit``, ``unit + 1``, ... for about ``seconds``.

    Each segment starts a fresh pair of workers, alike but for the simulator
    they import. Units run in blocks of four: ``u`` on the current simulator,
    ``u`` on the frozen one, then ``u + 1`` on the frozen one and on the
    current one. This order cancels a linear drift of the host's speed.
    """
    replies = []
    with Worker("src", w, cfg, scale) as current, Worker("frozen", w, cfg, scale) as frozen:
        start = perf_counter()
        while True:
            t0 = perf_counter()
            current_first = current.run(unit)
            frozen_first = frozen.run(unit)
            frozen_second = frozen.run(unit + 1)
            replies += [(current_first, frozen_first), (current.run(unit + 1), frozen_second)]
            unit += 2
            if not _keep_going(start, perf_counter() - t0, seconds):
                return replies


def measure(w: workloads.Workload, cfg, seconds: float, scale: str) -> dict:
    """End-to-end run: the current simulator timed against the frozen one for ``seconds``.

    ``speedup_vs_frozen`` is the frozen simulator's time over the current
    one's, summed over the units both completed. ``peak_rss_mb`` is the median
    over the segments of the current worker's peak after its first unit.
    """
    campaign = w.kind == "campaign"
    episodes_per_unit = len(_campaign_jobs(w, cfg)) if campaign else 1
    cpus = os.sched_getaffinity(0)
    if not campaign:
        # Both workers of a serial workload run on one core, which they
        # inherit: two cores of a shared host can differ in speed for a whole
        # run. Campaigns spread over every core on both sides.
        os.sched_setaffinity(0, {max(cpus)})
    segments = []
    try:
        # A process's speed also depends on where its memory happens to lie,
        # so the window is split over several fresh pairs of workers.
        for _ in range(SEGMENTS):
            unit = sum(len(segment) for segment in segments)
            segments.append(_segment(w, cfg, seconds / SEGMENTS, scale, unit))
    finally:
        os.sched_setaffinity(0, cpus)
    replies = [pair for segment in segments for pair in segment]
    problems = check_reference(w, scale, workers())

    completed = [(c, f) for c, f in replies if "error" not in c and "error" not in f]
    errors = [c["error"] for c, _ in replies if "error" in c]
    for c, _ in completed:
        problems += c["problems"]
    if len({c["csv"] for c, _ in completed if campaign}) > 1:
        problems.append("repeated campaign at the same seed gave a different CSV")
    attempted = episodes_per_unit * len(replies)
    failed = episodes_per_unit * len(errors)
    samples = sum(c["samples"] for c, _ in replies if "error" not in c)
    invalid = sum(c["invalid"] for c, _ in replies if "error" not in c)
    walls = [c["wall_s"] for c, _ in completed]
    frozen_walls = [f["wall_s"] for _, f in completed]
    if completed:
        speedup = sum(frozen_walls) / sum(walls)
        episodes_per_s = episodes_per_unit / statistics.median(walls)
        frozen_episodes_per_s = episodes_per_unit / statistics.median(frozen_walls)
    else:
        problems.append("no unit of work completed")
        speedup = episodes_per_s = frozen_episodes_per_s = float("nan")
    # One unit in a fresh worker: later units add noise of the allocator.
    peak_rss_mb = statistics.median(segment[0][0]["peak_rss_mb"] for segment in segments)
    metrics = {
        "speedup_vs_frozen": _metric(speedup, "x"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "completed_episode_frac": _metric(1.0 - failed / attempted, "ratio"),
        "valid_se_frac": _metric(1.0 - invalid / samples if samples else float("nan"), "ratio"),
    }
    details = {
        "unit": "campaign" if campaign else "episode",
        "unit_walls_s": walls,
        "frozen_unit_walls_s": frozen_walls,
        "steps_per_s": episodes_per_s * cfg.n_steps,
        "episodes_per_s": episodes_per_s,
        "frozen_steps_per_s": frozen_episodes_per_s * cfg.n_steps,
        "frozen_episodes_per_s": frozen_episodes_per_s,
        "failed_episode_frac": failed / attempted,
        "invalid_se_frac": invalid / samples if samples else None,
        "invalid_se_base": "campaign cells" if campaign else "UE-steps",
        "peak_rss_of": "pool workers" if campaign else "worker process",
    }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "details": details,
        "errors": problems + errors,
    }


# --- traced runs -----------------------------------------------------------


def _jobs(w: workloads.Workload, cfg) -> list:
    if w.kind == "campaign":
        return _campaign_jobs(w, cfg)
    return [(w.strategy, w.threshold_db, w.speed_kmh, setup) for setup in range(w.traced_episodes)]


def traced(w: workloads.Workload, cfg) -> dict:
    """Per-layer run: traced episodes, each checked against ``run_episode``."""
    tracer = tracing.Tracer()
    # The pilot probes draw from their own stream, never the episode's.
    probe_rng = np.random.default_rng([cfg.seed, 0x9E3779B9])
    problems, errors = [], []
    failed = 0
    traced_s = program_s = 0.0
    events, ledger = Counter(), Counter()
    invalid = 0
    jobs = _jobs(w, cfg)
    for index, (strategy, threshold, speed, setup) in enumerate(jobs):
        tracer.episode = index
        mine, seconds = _timed(
            lambda: tracing.traced_episode(cfg, setup, strategy, threshold, speed, tracer, probe_rng)
        )
        traced_s += seconds - tracer.probe_time(index)
        theirs, seconds = _timed(
            lambda: run_episode(cfg, setup, strategy=strategy, threshold_db=threshold, speed_kmh=speed)
        )
        program_s += seconds
        label = f"episode {strategy}/{threshold:g} dB/{speed:g} km/h/setup {setup}"
        if isinstance(mine, SimulationError) or isinstance(theirs, SimulationError):
            if str(mine) != str(theirs) or type(mine) is not type(theirs):
                problems.append(f"{label}: traced {mine!r} but program {theirs!r}")
            failed += 1
            errors.append(str(theirs))
            continue
        problems += [f"{label}: {p}" for p in tracing.compare_episodes(mine, theirs)]
        digest = tracing.episode_digest(mine)
        events.update(event[2] for event in digest["events"])
        ledger.update(digest["ledger"])
        invalid += digest["invalid_samples"]

    if w.kind == "campaign":
        # Busy share of the pool: serial episode time over workers x campaign wall.
        _, campaign_s = _timed(lambda: workloads.run_unit(w, cfg, 0, workers()))
        pool_efficiency = program_s / (workers() * campaign_s)
    else:
        pool_efficiency = 1.0  # one process runs every episode back to back
    metrics = layer_metrics(tracer)
    metrics["combining.invalid_samples"] = _metric(invalid, "count")
    for kind in workloads.EVENT_KINDS:
        metrics[f"clustering.events.{kind}"] = _metric(events[kind], "count")
    for counter in ("fronthaul", "inter_odu", "ric", "stats_msgs"):
        metrics[f"signaling.{counter}"] = _metric(ledger[counter], "count")
    metrics["simulate.trace_overhead"] = _metric(traced_s / program_s - 1.0, "ratio")
    metrics["simulate.pool_efficiency"] = _metric(pool_efficiency, "ratio")
    details = {
        "traced_episodes": len(jobs),
        "traced_steps": len(jobs) * cfg.n_steps,
        "traced_s": traced_s,
        "program_s": program_s,
        "byte_figures": "computed from array shapes, not measured",
        "layer_times": "median per step (clustering.setup_s: per episode)",
    }
    return {
        "correct": not problems and failed < len(jobs),
        "attempted": len(jobs),
        "failed": failed,
        "metrics": metrics,
        "details": details,
        "errors": problems + errors,
    }


def layer_metrics(tracer: tracing.Tracer) -> dict:
    """Per-step medians and shares of each layer's spans."""
    per_step = defaultdict(Counter)
    for span in tracer.spans:
        per_step[(span.episode, span.step)][span.name] += span.duration
    steps = [c for (_, step), c in per_step.items() if step > 0]
    setups = [c for (_, step), c in per_step.items() if step == 0]
    step_s = [c[tracing.STEP] - sum(c[p] for p in tracing.PROBES) for c in steps]
    total_step_s = sum(step_s)

    def per_step_median(name: str) -> dict:
        return _metric(statistics.median(c[name] for c in steps), "s")

    def share(name: str) -> dict:
        return _metric(sum(c[name] for c in steps) / total_step_s, "ratio")

    return {
        "simulate.step_s": _metric(statistics.median(step_s), "s"),
        "combining.moments_s": per_step_median("combining.moments"),
        "combining.moments_share": share("combining.moments"),
        "combining.moment_bytes_mb": _metric(tracer.gauges["combining.moment_bytes"] / BYTES_PER_MB, "MB"),
        "pilots.filters_s": per_step_median("pilots.filters"),
        "pilots.observe_s": per_step_median("pilots.observe"),
        "pilots.apply_s": per_step_median("pilots.apply"),
        "channel.refresh_s": per_step_median("channel.refresh"),
        "channel.refresh_share": share("channel.refresh"),
        "channel.shadow_s": per_step_median("channel.shadow"),
        "channel.cov_bytes_mb": _metric(tracer.gauges["channel.cov_bytes"] / BYTES_PER_MB, "MB"),
        "combining.lsfd_sinr_s": per_step_median("combining.lsfd_sinr"),
        "clustering.step_s": per_step_median("clustering.step"),
        "clustering.setup_s": _metric(statistics.median(c["clustering.setup"] for c in setups), "s"),
        "signaling.account_s": per_step_median("signaling.account"),
        "geometry.motion_s": per_step_median("geometry.motion"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    args = parser.parse_args(argv)

    src = HERE.parent / "src"
    if src.resolve() not in Path(cfmimo.__file__).resolve().parents:
        print(f"cfmimo imported from {cfmimo.__file__}, not from {src}", file=sys.stderr)
        return 2
    w = workloads.build(args.workload, args.scale)
    cfg = w.with_seed(args.seed)
    result = traced(w, cfg) if args.trace else measure(w, cfg, args.seconds, args.scale)
    result["details"]["machine"] = machine_facts()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
