"""Episode/campaign drivers, configuration handling, seed derivation."""

import os
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfmimo import clustering, simulate
from cfmimo import config as config_mod
from cfmimo.clustering import HandoverConfig
from cfmimo.config import SimConfig
from cfmimo.errors import ConfigurationError, NumericalError, SimulationError
from cfmimo.geometry import DeploymentConfig
from cfmimo.signaling import FrameConfig
from cfmimo.simulate import (
    AggregateResult,
    CellAggregate,
    campaign_cells,
    episode_seed,
    episodes_to_csv,
    plan_jobs,
    pool_size,
    run_campaign,
    run_episode,
)


def tiny_config(**overrides):
    base = dict(
        deployment=DeploymentConfig(500.0, 8, 4, 2, 4),
        handover=HandoverConfig("fixed", 2.0, 4, 6),
        ts_s=0.5,
        sim_time_s=3.0,
        speeds_kmh=(30.0,),
        n_setups=2,
        n_mc=20,
        seed=5,
    )
    base.update(overrides)
    return SimConfig(**base)


# The `run` settings (seed 1, 2 setups, opportunistic) of a deployment whose combiner system is singular.
SINGULAR_COMBINER = {
    "num_orus": "4", "num_odus": "1", "antennas_per_oru": "2", "num_ues": "4", "tau_p": "4", "n_mc": "8",
    "sim_time_s": "1.0", "serving_cluster_size": "2", "measurement_cluster_size": "3", "n_setups": "2",
    "noise_dbm": "-400",
}


class TestEpisode:
    def test_series_shape_matches_time_grid(self):
        cfg = tiny_config(sim_time_s=10.0)
        result = run_episode(cfg, 0)
        assert result.se.shape == (20, 4)
        finite = result.se[np.isfinite(result.se)]
        assert np.all(finite >= 0)

    def test_determinism(self):
        cfg = tiny_config()
        a = run_episode(cfg, 1)
        b = run_episode(cfg, 1)
        assert np.array_equal(a.se, b.se)
        assert [(e.t, e.ue, e.kind, e.old, e.new) for e in a.events] == [
            (e.t, e.ue, e.kind, e.old, e.new) for e in b.events
        ]
        assert a.ledger.total_fronthaul == b.ledger.total_fronthaul

    @pytest.mark.parametrize("strategy", ["fixed", "opportunistic", "ubiquitous", "cellular"])
    def test_static_network_never_hands_over(self, strategy):
        cfg = tiny_config(speeds_kmh=(0.0,))
        result = run_episode(cfg, 0, strategy=strategy, threshold_db=np.inf, speed_kmh=0.0)
        kinds = {e.kind for e in result.events}
        assert "primary_change" not in kinds
        assert "cellular_handover" not in kinds
        assert "fixed_recluster" not in kinds

    def test_setup_seed_independent_of_cell(self):
        assert episode_seed(9, 0).entropy == episode_seed(9, 0).entropy
        assert episode_seed(9, 0).entropy != episode_seed(9, 1).entropy
        assert episode_seed(9, 0).entropy != episode_seed(10, 0).entropy

    def test_handover_frequency_definition(self):
        cfg = tiny_config(speeds_kmh=(120.0,), sim_time_s=5.0)
        result = run_episode(cfg, 0, strategy="opportunistic", threshold_db=0.5, speed_kmh=120.0)
        changes = [e for e in result.events if e.kind == "primary_change"]
        per_ue = np.zeros(4)
        for e in changes:
            per_ue[e.ue] += 1
        assert np.allclose(result.handover_frequency(), per_ue / 5.0)

    def test_invalid_sample_counter_zero_in_normal_run(self):
        result = run_episode(tiny_config(), 0)
        assert result.invalid_samples == 0
        assert np.all(np.isfinite(result.se))

    def test_ubiquitous_step_memory_grows_with_k_s_max_squared(self):
        # One ubiquitous step at K=90, L=81 (the reference density on 1.5 x 1.5 km),
        # n_mc=8. Its two (K, S_max, S_max) moments take 19 MB; (K, K, S_max, S_max)
        # interferer blocks would take 850 MB.
        deployment = DeploymentConfig(grid_side_m=1500.0, num_orus=81, num_odus=9, antennas_per_oru=4, num_ues=90)
        cfg = SimConfig(deployment=deployment, n_mc=8, sim_time_s=0.5)
        tracemalloc.start()
        try:
            result = run_episode(cfg, 0, strategy=clustering.UBIQUITOUS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(result.se))
        assert peak < 100e6, f"peak {peak / 1e6:.1f} MB"

    @staticmethod
    def _traced_fixed_step(num_ues, num_orus, num_odus, grid_side_m):
        """Traced peak of one fixed step at n_mc=8, N=4."""
        deployment = DeploymentConfig(grid_side_m, num_orus, num_odus, antennas_per_oru=4, num_ues=num_ues)
        cfg = SimConfig(deployment=deployment, n_mc=8, sim_time_s=0.5)
        tracemalloc.start()
        try:
            result = run_episode(cfg, 0, strategy=clustering.FIXED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(result.se))
        return peak

    def test_fixed_step_memory_follows_served_pairs(self):
        # One fixed step at K=160, L=144 (the reference density on 2 x 2 km), n_mc=8. The
        # covariance and factor stacks take 144 * 160 * 4 * 4 * 16 B = 5.9 MB each and the
        # channels, the one draw-sized array, 8 * 144 * 160 * 4 * 16 B = 11.8 MB: 23.6 MB. The
        # 2,560 served pairs' combiners and (K, S_max, S_max) moments (1.3 MB each), error
        # covariances (0.7 MB) and the (L, K) gains, angles and cluster maps took the peak to
        # ~31.4 MB while the stacks were held through the cells; freed once the draws are
        # taken, it reads ~29.4 MB. It read ~37.9 MB with the unmixed draws beside the
        # channels, and ~44 MB with a dense (L, K, N, N) copy of the error covariances.
        peak = self._traced_fixed_step(160, 144, 16, 2000.0)
        assert peak < 34e6, f"peak {peak / 1e6:.1f} MB"

    def test_fixed_step_memory_at_k360(self):
        # One fixed step at K=360, L=324 (the reference density on 3 x 3 km), n_mc=8. The
        # covariance and factor stacks take 324 * 360 * 4 * 4 * 16 B = 29.9 MB each and the
        # channels 8 * 324 * 360 * 4 * 16 B = 59.7 MB: 119.4 MB. The 5,760 served pairs'
        # combiners and moments (2.9 MB each) and error covariances (1.5 MB), the (L, K) gains,
        # angles and cluster maps (~6 MB) and the gain batches took the peak to ~141.5 MB while
        # the stacks were held through the cells, and ~135.4 MB now that they are freed once
        # the draws are taken. With the unmixed draws beside the channels, another 59.7 MB, it
        # read ~187.7 MB.
        peak = self._traced_fixed_step(360, 324, 36, 3000.0)
        assert peak < 150e6, f"peak {peak / 1e6:.1f} MB"

    def test_refresh_does_not_hold_the_previous_statistics(self):
        # Two cellular steps at K=160, L=144, n_mc=4, N=4. A step keeps three arrays of one
        # stack's size, 144 * 160 * 4 * 4 * 16 B = 5.9 MB: the covariance and factor stacks and
        # the channels. The refresh builds the next two stacks with their temporaries, and the
        # estimates, combiners, gains and maps add the rest: the peak read 24.6 MB. With the
        # previous step's stacks still held while the refresh ran, it read 28.2 MB.
        num_ues, num_orus, n_ant, n_mc = 160, 144, 4, 4
        deployment = DeploymentConfig(2000.0, num_orus, 16, antennas_per_oru=n_ant, num_ues=num_ues)
        cfg = SimConfig(deployment=deployment, n_mc=n_mc, sim_time_s=1.0)
        stack = num_orus * num_ues * n_ant * n_ant * 16
        assert n_mc * num_orus * num_ues * n_ant * 16 == stack
        tracemalloc.start()
        try:
            result = run_episode(cfg, 0, strategy=clustering.CELLULAR)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.se.shape == (2, num_ues) and np.all(np.isfinite(result.se))
        assert peak < 4.5 * stack, f"peak {peak / 1e6:.1f} MB"

    def test_episodes_csv(self):
        cfg = tiny_config(sim_time_s=1.0)
        results = [run_episode(cfg, s) for s in range(2)]
        lines = episodes_to_csv(results).strip().splitlines()
        assert lines[0] == "setup,step,ue,se_bits_per_hz"
        assert len(lines) == 1 + 2 * 2 * 4
        setup, step, ue, se = lines[1].split(",")
        assert (setup, step, ue) == ("0", "1", "0")
        assert float(se) == results[0].se[0, 0]


@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(
    strategy=st.sampled_from(["fixed", "opportunistic", "ubiquitous", "cellular"]),
    speed_kmh=st.sampled_from([3.0, 30.0, 120.0]),
    tau_p=st.sampled_from([2, 4]),
    threshold_db=st.sampled_from([0.5, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_episode_properties(strategy, speed_kmh, tau_p, threshold_db, seed):
    """Any tiny episode counts its invalid samples, scores non-negative SE, keeps
    a ledger that sums its non-negative per-step records, and stamps events
    with steps of the episode."""
    cfg = tiny_config(sim_time_s=2.0, n_mc=10, tau_p=tau_p, seed=seed)
    result = run_episode(cfg, 0, strategy=strategy, threshold_db=threshold_db, speed_kmh=speed_kmh)
    n_steps = cfg.n_steps
    assert result.se.shape == (n_steps, 4)
    assert result.invalid_samples == int(np.isnan(result.se).sum())
    assert np.all(result.se[np.isfinite(result.se)] >= 0)
    ledger = result.ledger
    assert [step for step, _ in ledger.steps] == list(range(1, n_steps + 1))
    for counter in ("fronthaul", "inter_odu", "ric", "stats_msgs"):
        records = [getattr(delta, counter) for _, delta in ledger.steps]
        assert all(np.all(record >= 0) for record in records)
        assert getattr(ledger, f"total_{counter}") == sum(int(record.sum()) for record in records)
    assert all(1 <= event.t <= n_steps for event in result.events)


def test_runs_without_scipy():
    """`import cfmimo` loads no scipy, and an episode, a serial campaign and the
    Jakes reference run with every scipy import blocked."""
    code = textwrap.dedent(
        """
        import sys
        import cfmimo
        loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
        assert not loaded, loaded
        sys.modules["scipy"] = None  # any later scipy import raises ImportError
        from cfmimo.channel import jakes_autocorrelation
        from cfmimo.clustering import HandoverConfig
        from cfmimo.geometry import DeploymentConfig
        cfg = cfmimo.SimConfig(
            deployment=DeploymentConfig(500.0, 8, 4, 2, 4), handover=HandoverConfig("fixed", 2.0, 4, 6),
            sim_time_s=1.0, speeds_kmh=(30.0,), n_setups=1, n_mc=4, seed=5,
        )
        assert cfmimo.run_episode(cfg, 0).se.shape == (2, 4)
        assert len(cfmimo.run_campaign(cfg, parallelism=1).rows) == 1
        assert abs(jakes_autocorrelation(3.5e9, 0.8333, 0.5)) < 0.15
        print("ok")
        """
    )
    src = str(Path(simulate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0 and run.stdout.strip() == "ok", run.stderr


def test_episode_processes_load_no_pool_or_masked_arrays():
    """`import cfmimo`, an episode and a serial campaign load none of numpy.ma,
    numpy.polynomial, multiprocessing or concurrent.futures, and the latter two
    run with every multiprocessing import blocked; only a campaign with workers
    loads the pool."""
    code = textwrap.dedent(
        """
        import sys
        import cfmimo
        from cfmimo.clustering import HandoverConfig
        from cfmimo.geometry import DeploymentConfig

        def check(stage):
            loaded = sorted(
                name for name in sys.modules
                if name.split(".")[0] in ("multiprocessing", "concurrent")
                or ".".join(name.split(".")[:2]) in ("numpy.ma", "numpy.polynomial")
            )
            assert not loaded, (stage, loaded)

        check("import")
        cfg = cfmimo.SimConfig(
            deployment=DeploymentConfig(500.0, 8, 4, 2, 4), handover=HandoverConfig("opportunistic", 2.0, 4, 6),
            sim_time_s=1.0, speeds_kmh=(30.0,), n_setups=1, n_mc=4, seed=5,
        )
        assert cfmimo.run_episode(cfg, 0).se.shape == (2, 4)
        check("episode")
        strategies = ["fixed", "opportunistic", "ubiquitous", "cellular"]
        assert len(cfmimo.run_campaign(cfg, strategies=strategies, parallelism=1).rows) == 4
        check("serial campaign")
        sys.modules["multiprocessing"] = None  # any later multiprocessing import raises ImportError
        assert cfmimo.run_episode(cfg, 1).se.shape == (2, 4)
        assert len(cfmimo.run_campaign(cfg, strategies=strategies, parallelism=1).rows) == 4
        print("ok")
        """
    )
    src = str(Path(simulate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0 and run.stdout.strip() == "ok", run.stderr


class TestCampaign:
    def test_cell_grid_and_baseline_dedup(self):
        cfg = tiny_config()
        cells = campaign_cells(cfg, ["fixed", "opportunistic", "ubiquitous", "cellular"], [2.0, 3.0], [3.0, 30.0])
        # 2 strategies x 2 thresholds x 2 speeds + 2 baselines x 1 x 2 speeds
        assert len(cells) == 12

    def test_aggregate_rows_and_schema(self):
        cfg = tiny_config(sim_time_s=1.0, n_setups=2)
        result = run_campaign(cfg, strategies=["fixed", "ubiquitous"], thresholds=[2.0], speeds=[3.0, 30.0])
        assert len(result.rows) == 4
        lines = result.to_csv().strip().splitlines()
        assert lines[0] == AggregateResult.CSV_HEADER
        assert len(lines) == 5
        for line in lines[1:]:
            parts = line.split(",")
            assert parts[0] in ("fixed", "ubiquitous")
            assert len(parts) == 9
            [float(x) for x in parts[1:]]
        row = result.row("fixed", 2.0, 30.0)
        assert row.n_setups == 2

    def test_csv_renders_every_aggregate_field(self):
        result = AggregateResult([
            CellAggregate("fixed", 2.0, 30.0, 1 / 3, 0.1, 0.2, 1e-20, 7.0, 2 / 3, 5),
            CellAggregate("cellular", 0.5, 3.0, np.pi, 0.0, 1.0, 2.0, 0.0, 12.0, 5),
        ])
        names = [f.name for f in fields(CellAggregate) if f.name != "n_setups"]
        header, *lines = result.to_csv().splitlines()
        assert header == AggregateResult.CSV_HEADER == ",".join(names)
        assert header == "strategy,threshold_db,speed_kmh,mean_se,se_stderr,ho_freq,ho_stderr,ric_msgs,inter_odu_samples"
        assert len(lines) == len(result.rows)
        for row, line in zip(result.rows, lines):
            assert line.split(",") == [row.strategy] + [f"{value:.17g}" for value in astuple(row)[1:-1]]

    def test_single_setup_equals_episode(self):
        cfg = tiny_config(n_setups=1, sim_time_s=1.0)
        agg = run_campaign(cfg, strategies=["fixed"], thresholds=[2.0], speeds=[30.0])
        episode = run_episode(cfg, 0, strategy="fixed", threshold_db=2.0, speed_kmh=30.0)
        row = agg.rows[0]
        assert row.mean_se == pytest.approx(episode.mean_se, rel=1e-12)
        assert row.se_stderr == 0.0
        assert row.ho_freq == pytest.approx(episode.mean_handover_frequency)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            run_campaign(tiny_config(), strategies=["mesh"], thresholds=[1.0], speeds=[3.0])

    def test_bad_threshold_rejected_before_any_episode(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("an episode ran before every sweep cell was checked")

        monkeypatch.setattr(simulate, "_run_lockstep", never)
        with pytest.raises(ConfigurationError, match="threshold_db must be finite or \\+inf, got nan"):
            run_campaign(tiny_config(), strategies=["fixed"], thresholds=[2.0, float("nan")], speeds=[3.0])

    def test_pool_size(self, monkeypatch):
        # Pure arithmetic: no pool is started, however large the request.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert pool_size(1, 10) == 1
        assert pool_size(10**6, 2) == 2
        assert pool_size(10**6, 10**6) == 3  # the cores this process may run on, not the host's
        assert pool_size(2, 0) == 0
        monkeypatch.delattr(os, "sched_getaffinity")
        assert pool_size(10**6, 10**6) == 8
        for bad in (0, -3, 2.5, True, "2"):
            with pytest.raises(ConfigurationError, match=f"parallelism.*{bad!r}"):
                pool_size(bad, 5)

    def test_csv_bit_identical_across_parallelism(self):
        cfg = tiny_config(sim_time_s=1.0)
        kwargs = dict(strategies=["fixed", "cellular"], thresholds=[2.0], speeds=[3.0, 30.0])
        serial = run_campaign(cfg, parallelism=1, **kwargs)
        assert run_campaign(cfg, parallelism=2, **kwargs).to_csv() == serial.to_csv()

    def test_bit_identical_across_runs(self):
        cfg = tiny_config(sim_time_s=1.0)
        a = run_campaign(cfg, strategies=["fixed"], thresholds=[2.0], speeds=[3.0, 30.0])
        b = run_campaign(cfg, strategies=["fixed"], thresholds=[2.0], speeds=[3.0, 30.0])
        assert a.to_csv() == b.to_csv()


STRATEGIES = ["fixed", "opportunistic", "ubiquitous", "cellular"]
STRATEGY_SWEEP = dict(strategies=STRATEGIES, thresholds=[2.0, 3.0], speeds=[3.0, 30.0])
THRESHOLD_SWEEP = dict(strategies=["fixed", "opportunistic"], thresholds=[0.0, 0.5, 1.0, 2.0], speeds=[120.0])


def episode_fields(result) -> tuple:
    """Everything an episode reports, in a form that compares floats bit for bit."""
    ledger = result.ledger
    return (
        result.strategy,
        repr(result.threshold_db),
        repr(result.speed_kmh),
        result.se.tobytes(),
        [(e.t, e.ue, e.kind, e.old, e.new) for e in result.events],
        [ledger.total_fronthaul, ledger.total_inter_odu, ledger.total_ric, ledger.total_stats_msgs],
        result.invalid_samples,
    )


class TestLockstep:
    """All cells of one (setup, speed) run in lockstep on shared draws; each
    must still equal its own episode."""

    @pytest.mark.parametrize(
        "parallelism, sweep",
        [
            pytest.param(1, STRATEGY_SWEEP, id="1"),
            pytest.param(2, STRATEGY_SWEEP, id="2"),
            # Eight cells of one job with differing served sets share each
            # step's draws and the estimates of the union of those sets.
            pytest.param(1, THRESHOLD_SWEEP, id="thresholds-1"),
            pytest.param(2, THRESHOLD_SWEEP, id="thresholds-2"),
        ],
    )
    def test_campaign_equals_its_episodes(self, parallelism, sweep):
        cfg = tiny_config(sim_time_s=1.0, n_setups=2, tau_p=2, n_mc=10)
        rows = run_campaign(cfg, parallelism=parallelism, **sweep).rows
        cells = campaign_cells(cfg.resolve(), *sweep.values())
        assert [(r.strategy, r.threshold_db, r.speed_kmh) for r in rows] == cells
        for row, (strategy, threshold, speed) in zip(rows, cells):
            episodes = [
                run_episode(cfg, setup, strategy=strategy, threshold_db=threshold, speed_kmh=speed)
                for setup in range(cfg.n_setups)
            ]
            se = np.array([e.mean_se for e in episodes])
            ho = np.array([e.mean_handover_frequency for e in episodes])
            expected = (
                strategy, threshold, speed,
                float(se.mean()), float(se.std(ddof=1) / np.sqrt(2)),
                float(ho.mean()), float(ho.std(ddof=1) / np.sqrt(2)),
                float(np.mean([e.ledger.total_ric for e in episodes])),
                float(np.mean([e.ledger.total_inter_odu for e in episodes])),
                cfg.n_setups,
            )
            assert [repr(v) for v in astuple(row)] == [repr(v) for v in expected]

    def test_threshold_cells_serve_differing_sets(self, monkeypatch):
        # The threshold case of test_campaign_equals_its_episodes must compare
        # cells whose served sets differ within a step, on the union's estimates.
        cfg = tiny_config(sim_time_s=1.0, n_setups=2, tau_p=2, n_mc=10).resolve()
        needed, served = [], []
        draw_estimates, gain_moments = simulate.draw_estimates, simulate.gain_moments

        def record_needed(*args):
            needed.append(args[-1].copy())
            served.append([])
            return draw_estimates(*args)

        def record_served(combiners, sigma2, powers):
            served[-1].append(combiners.column >= 0)
            return gain_moments(combiners, sigma2, powers)

        monkeypatch.setattr(simulate, "draw_estimates", record_needed)
        monkeypatch.setattr(simulate, "gain_moments", record_served)
        for setup in range(cfg.n_setups):
            cells = [
                simulate.resolve_cell(cfg, strategy, threshold, speed)[:2]
                for strategy, threshold, speed in campaign_cells(cfg, *THRESHOLD_SWEEP.values())
            ]
            simulate._run_lockstep(cfg, cells, 120.0, setup)
        assert all(np.array_equal(n, np.logical_or.reduce(maps)) for n, maps in zip(needed, served))
        # Two strategies alone give at most two distinct maps per step.
        distinct = [len({m.tobytes() for m in maps}) for maps in served]
        assert min(distinct) >= 2 and max(distinct) >= 4

    def test_estimates_released_only_for_the_largest_cell(self, monkeypatch):
        # Within a step, only the gain moments of the cell serving the most
        # pairs run after the driver has dropped the shared estimates.
        cfg = tiny_config(sim_time_s=1.0, n_setups=1, tau_p=2, n_mc=10).resolve()
        draws, calls = [], []
        draw_estimates, gain_moments = simulate.draw_estimates, simulate.gain_moments

        def record_draws(*args):
            draws.append(draw_estimates(*args))
            calls.append([])
            return draws[-1]

        def record_release(combiners, sigma2, powers):
            calls[-1].append((int((combiners.column >= 0).sum()), draws[-1].estimates is None))
            return gain_moments(combiners, sigma2, powers)

        monkeypatch.setattr(simulate, "draw_estimates", record_draws)
        monkeypatch.setattr(simulate, "gain_moments", record_release)
        cells = [simulate.resolve_cell(cfg, strategy, 2.0, 3.0)[:2] for strategy in STRATEGIES]
        simulate._run_lockstep(cfg, cells, 3.0, 0)
        assert len(calls) == cfg.n_steps
        for step in calls:
            assert len(step) == len(STRATEGIES)
            assert [released for _, released in step] == [False] * (len(step) - 1) + [True]
            assert step[-1][0] == max(pairs for pairs, _ in step)

    def test_statistics_released_before_the_cells_run(self, monkeypatch):
        # Once the draws are taken, no step holds its covariance and factor stacks.
        cfg = tiny_config(sim_time_s=1.0, n_setups=1, tau_p=2, n_mc=10).resolve()
        refs, alive = [], []
        refresh_statistics, served_combiners = simulate.refresh_statistics, simulate.served_combiners

        def record_stats(*args):
            stats = refresh_statistics(*args)
            refs.append(weakref.ref(stats))
            return stats

        def record_alive(*args, **kwargs):
            alive.append(refs[-1]() is not None)
            return served_combiners(*args, **kwargs)

        monkeypatch.setattr(simulate, "refresh_statistics", record_stats)
        monkeypatch.setattr(simulate, "served_combiners", record_alive)
        cells = [simulate.resolve_cell(cfg, strategy, 2.0, 3.0)[:2] for strategy in STRATEGIES]
        simulate._run_lockstep(cfg, cells, 3.0, 0)
        assert len(refs) == cfg.n_steps + 1  # the set-up refreshes too
        assert alive == [False] * (cfg.n_steps * len(STRATEGIES))

    def test_job_plan(self):
        # Pure arithmetic: no pool is started.
        cells = [("fixed", 2.0, 3.0), ("fixed", 2.0, 30.0), ("cellular", 2.0, 3.0),
                 ("cellular", 2.0, 30.0), ("ubiquitous", 0.0, 3.0), ("ubiquitous", 0.0, 30.0)]
        groups = [(3.0, 0, [0, 2, 4]), (3.0, 1, [0, 2, 4]), (30.0, 0, [1, 3, 5]), (30.0, 1, [1, 3, 5])]
        assert plan_jobs(cells, 2, 1) == groups
        assert plan_jobs(cells, 2, 4) == groups
        # Two groups, five workers: each group splits into ceil(5 / 2) = 3 parts.
        assert plan_jobs(cells, 1, 5) == [
            (3.0, 0, [0]), (3.0, 0, [2]), (3.0, 0, [4]), (30.0, 0, [1]), (30.0, 0, [3]), (30.0, 0, [5])
        ]
        assert plan_jobs(cells, 1, 4) == [(3.0, 0, [0]), (3.0, 0, [2, 4]), (30.0, 0, [1]), (30.0, 0, [3, 5])]
        # A group never splits into more parts than it has cells.
        assert plan_jobs(cells[:2], 1, 8) == [(3.0, 0, [0]), (30.0, 0, [1])]
        # Every (cell, setup) is in exactly one job.
        for workers in range(1, 9):
            for n_setups in (1, 2, 3):
                covered = sorted((i, setup) for _, setup, members in plan_jobs(cells, n_setups, workers)
                                 for i in members)
                assert covered == sorted((i, s) for i in range(len(cells)) for s in range(n_setups))

    @pytest.mark.parametrize("failing", STRATEGIES)
    def test_cell_failure_stops_only_that_cell(self, monkeypatch, failing):
        cfg = tiny_config(sim_time_s=2.0, n_setups=1, tau_p=2, n_mc=10).resolve()
        solo = {s: run_episode(cfg, 0, strategy=s, threshold_db=2.0, speed_kmh=30.0) for s in STRATEGIES}
        original = clustering.strategy_step

        def strategy_step(state, *args):
            handover, step = args[-3], args[-1]
            if handover.strategy == failing and step == 2:
                raise NumericalError("injected failure")
            return original(state, *args)

        monkeypatch.setattr(clustering, "strategy_step", strategy_step)
        with pytest.raises(SimulationError) as solo_error:
            run_episode(cfg, 0, strategy=failing, threshold_db=2.0, speed_kmh=30.0)
        assert "step 2" in str(solo_error.value) and "injected failure" in str(solo_error.value)
        with pytest.raises(SimulationError) as campaign_error:
            run_campaign(cfg, strategies=STRATEGIES, thresholds=[2.0], speeds=[30.0])
        assert str(campaign_error.value) == str(solo_error.value)

        lanes = [simulate.resolve_cell(cfg, s, 2.0, 30.0)[:2] for s in STRATEGIES]
        outcomes = simulate._run_lockstep(cfg, lanes, 30.0, 0)
        for strategy, outcome in zip(STRATEGIES, outcomes):
            if strategy == failing:
                assert isinstance(outcome, SimulationError)
                assert str(outcome) == str(solo_error.value)
            else:
                assert episode_fields(outcome) == episode_fields(solo[strategy])

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_shared_failure_stops_every_cell(self, parallelism):
        cfg = tiny_config(sigma_sf_db=5000.0, sim_time_s=1.0)
        with pytest.raises(SimulationError) as error:
            run_campaign(cfg, strategies=STRATEGIES, thresholds=[2.0, 3.0], speeds=[3.0, 30.0],
                         parallelism=parallelism)
        assert str(error.value) == (
            "episode aborted at step 0 (strategy=fixed, threshold=2 dB, speed=3 km/h, seed=5, setup=0): "
            "large-scale gain of (O-RU 0, UE 1) is not finite: beta_db = 6193.69"
        )
        cfg = cfg.resolve()
        lanes = [simulate.resolve_cell(cfg, s, 2.0, 30.0)[:2] for s in STRATEGIES]
        outcomes = simulate._run_lockstep(cfg, lanes, 30.0, 0)
        assert all(isinstance(o, SimulationError) and "step 0" in str(o) for o in outcomes)

    # The set-up before the first step: placements, shadowing, pilots, and each cell's arrays.
    @pytest.mark.parametrize(
        "owner,name,error",
        [(simulate.geometry, "uniform_positions", MemoryError("Unable to allocate 7.28 TiB for an array")),
         (simulate.ShadowFading, "initial", NumericalError("injected set-up failure")),
         (simulate.signaling, "SignalingLedger", MemoryError("Unable to allocate 7.28 TiB for an array"))],
    )
    def test_setup_failure_names_the_episode(self, monkeypatch, owner, name, error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(owner, name, fail)
        cfg = tiny_config(n_setups=1)
        expected = f"episode aborted at step 0 (strategy=fixed, threshold=2 dB, speed=30 km/h, seed=5, setup=0): {error}"
        with pytest.raises(SimulationError) as episode_error:
            run_episode(cfg, 0)
        assert str(episode_error.value) == expected and episode_error.value.__cause__ is error
        with pytest.raises(SimulationError) as campaign_error:
            run_campaign(cfg, strategies=STRATEGIES, thresholds=[2.0], parallelism=1)
        assert str(campaign_error.value) == expected
        lanes = [simulate.resolve_cell(cfg, s, 2.0, 30.0)[:2] for s in STRATEGIES]
        outcomes = simulate._run_lockstep(cfg.resolve(), lanes, 30.0, 0)
        assert all(isinstance(o, SimulationError) and str(o).startswith("episode aborted at step 0") for o in outcomes)

    def test_singular_combiner_names_the_episode(self):
        # At -400 dBm the estimates are exact and the noise floor vanishes beside the signals, so
        # an O-RU serving one UE on two antennas has a rank-one Gram (setup 1, step 1).
        cfg = config_mod.default_config()
        for key, value in SINGULAR_COMBINER.items():
            cfg = config_mod.apply_setting(cfg, key, value)
        with pytest.raises(SimulationError) as episode_error:
            run_episode(cfg, 1, strategy="opportunistic")
        message = str(episode_error.value)
        assert message.startswith(
            "episode aborted at step 1 (strategy=opportunistic, threshold=2 dB, speed=3 km/h, seed=1, setup=1): "
            "singular combiner system of O-RU "
        )
        assert isinstance(episode_error.value.__cause__, NumericalError)
        with pytest.raises(SimulationError) as campaign_error:
            run_campaign(cfg, strategies=["opportunistic"], thresholds=[2.0], speeds=[3.0], parallelism=1)
        assert str(campaign_error.value) == message

    def test_setup_configuration_error_passes_through(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ConfigurationError("injected configuration error")

        monkeypatch.setattr(simulate.geometry, "uniform_positions", fail)
        with pytest.raises(ConfigurationError, match="injected configuration error"):
            run_episode(tiny_config(), 0)


class TestConfig:
    def test_defaults_reproduce_reference_parameters(self):
        cfg = SimConfig().resolve()
        assert cfg.deployment.num_ues == 40
        assert cfg.deployment.num_orus == 36
        assert cfg.deployment.num_odus == 9
        assert cfg.deployment.antennas_per_oru == 4
        assert cfg.deployment.grid_side_m == 1000.0
        assert cfg.sigma2_ul_dbm == -94.0
        assert cfg.tau_p == 100
        assert cfg.ts_s == 0.5
        assert cfg.n_setups == 25
        assert cfg.angle_spread_deg == 10.0
        assert cfg.handover.serving_size == 16
        assert cfg.sim_time_s == 10.0
        assert cfg.n_steps == 20
        assert tuple(cfg.speeds_kmh) == (3.0, 30.0, 60.0, 120.0)

    def test_measurement_size_clamped_to_deployment(self):
        cfg = tiny_config().resolve()
        assert cfg.handover.measurement_size == 6
        big = SimConfig(deployment=DeploymentConfig(1000.0, 16, 4, 4, 10),
                        handover=HandoverConfig("fixed", 2.0, 8, 25)).resolve()
        assert big.handover.measurement_size == 16

    def test_file_roundtrip(self, tmp_path):
        cfg = tiny_config(se_prelog=True)
        path = tmp_path / "sim.cfg"
        path.write_text(config_mod.to_text(cfg), encoding="utf-8")
        loaded = config_mod.from_file(str(path))
        assert loaded == cfg

    def test_non_default_file_roundtrip(self, tmp_path):
        cfg = SimConfig(
            deployment=DeploymentConfig(750.0, 16, 4, 2, 7),
            handover=HandoverConfig("cellular", 1.5, 3, 9, 4.5),
            frame=FrameConfig(50, 2),
            ts_s=0.25,
            sim_time_s=7.5,
            speeds_kmh=(10.0 / 3.0, 47.0),
            n_setups=3,
            n_mc=12,
            seed=42,
            tau_p=20,
            power_mw=50.0,
            sigma2_ul_dbm=-96.5,
            sigma_sf_db=6.0,
            shadow_alpha_per_m=0.1,
            angle_spread_deg=15.0,
            antenna_spacing_wl=0.25,
            min_distance_m=2.0,
            se_prelog=True,
            check_quadrature=False,
        )
        text = config_mod.to_text(cfg)
        defaults = config_mod.to_text(SimConfig()).splitlines()
        assert all(line != default for line, default in zip(text.splitlines(), defaults))
        path = tmp_path / "sim.cfg"
        path.write_text(text, encoding="utf-8")
        assert config_mod.from_file(str(path)) == cfg

    def test_unknown_key_named_in_error(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("num_ues = 4\nwarp_factor = 9\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="warp_factor"):
            config_mod.from_file(str(path))

    def test_bad_value_reported(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("num_ues = many\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="num_ues"):
            config_mod.from_file(str(path))

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("# comment\n\nnum_ues = 7  # trailing\n", encoding="utf-8")
        cfg = config_mod.from_file(str(path))
        assert cfg.deployment.num_ues == 7

    @pytest.mark.parametrize(
        "key,value",
        [("sample_time_s", "0"), ("n_mc", "0"), ("power_mw", "-1"), ("strategy", "mesh"),
         ("threshold_db", "-2"), ("speeds_kmh", "")],
    )
    def test_invalid_values_rejected_at_resolve(self, key, value):
        cfg = config_mod.apply_setting(tiny_config(), key, value)
        with pytest.raises(ConfigurationError):
            cfg.resolve()

    @pytest.mark.parametrize("sim_time_s,ts_s", [(1.25, 0.5), (0.7, 0.5)])
    def test_partial_last_sample_rejected(self, sim_time_s, ts_s):
        with pytest.raises(ConfigurationError, match="sim_time_s must be a whole number of sample_time_s"):
            tiny_config(sim_time_s=sim_time_s, ts_s=ts_s).resolve()

    def test_whole_number_of_samples_accepted(self):
        assert tiny_config(sim_time_s=0.3, ts_s=0.1).resolve().n_steps == 3

    def test_episode_length_capped(self):
        cap = config_mod.MAX_STEPS
        assert tiny_config(sim_time_s=cap * 0.5, ts_s=0.5).resolve().n_steps == cap
        with pytest.raises(ConfigurationError, match=f"sim_time_s / sample_time_s must be at most {cap} steps"):
            tiny_config(sim_time_s=(cap + 1) * 0.5, ts_s=0.5).resolve()

    def test_prelog_factor(self):
        cfg = tiny_config(se_prelog=True, tau_p=100)
        assert cfg.prelog == pytest.approx(100 / 200)
        assert tiny_config().prelog == 1.0

    def test_env_default_config(self, tmp_path, monkeypatch):
        path = tmp_path / "env.cfg"
        path.write_text("num_ues = 11\n", encoding="utf-8")
        monkeypatch.setenv(config_mod.ENV_CONFIG_PATH, str(path))
        assert config_mod.default_config().deployment.num_ues == 11
