"""Command-line interface: subcommands, exit codes, output schemas."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cfmimo
from cfmimo import cli, simulate
from cfmimo.clustering import events_to_csv
from cfmimo.combining import second_stage
from cfmimo.config import SimConfig, apply_setting
from cfmimo.errors import SimulationError
from cfmimo.simulate import run_episode

TINY = [
    "--set", "num_orus=8", "--set", "num_odus=4", "--set", "antennas_per_oru=2",
    "--set", "num_ues=4", "--set", "grid_side_m=500",
    "--set", "serving_cluster_size=4", "--set", "measurement_cluster_size=6",
    "--set", "sim_time_s=2", "--set", "n_mc=15", "--set", "speeds_kmh=30",
]


class TestValidate:
    def test_defaults_printed(self, capsys):
        assert cli.main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "num_ues = 40" in out
        assert "num_orus = 36" in out
        assert "noise_dbm = -94.0" in out
        assert "tau_p = 100" in out
        assert "serving_cluster_size = 16" in out

    def test_overrides_applied(self, capsys):
        assert cli.main(["validate", "--set", "num_ues=12", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "num_ues = 12" in out
        assert "seed = 3" in out

    def test_unknown_key_exits_2(self, capsys):
        assert cli.main(["validate", "--set", "bogus=1"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_inconsistent_config_exits_2(self, capsys):
        assert cli.main(["validate", "--set", "num_orus=7"]) == 2
        assert "num_orus" in capsys.readouterr().err

    def test_opportunistic_over_capacity_exits_2(self, capsys):
        # 200 UEs cannot each have a primary O-RU among 36 four-antenna O-RUs.
        assert cli.main(["validate", "--set", "strategy=opportunistic", "--set", "num_ues=200"]) == 2
        assert "num_ues <= num_orus * antennas_per_oru" in capsys.readouterr().err
        assert cli.main(["validate", "--set", "strategy=opportunistic", "--set", "num_ues=144"]) == 0

    def test_bad_value_names_its_key(self, capsys):
        assert cli.main(["validate", "--set", "sample_time_s=0"]) == 2
        assert "sample_time_s must be > 0" in capsys.readouterr().err

    # A step count that overflows to inf, and a finite one above the cap.
    @pytest.mark.parametrize("setting", ["sample_time_s=1e-310", "sim_time_s=1e12"])
    def test_episode_length_over_cap_exits_2(self, capsys, setting):
        assert cli.main(["validate", "--set", setting]) == 2
        assert "sim_time_s / sample_time_s must be at most 100000 steps" in capsys.readouterr().err

    def test_cluster_size_error_names_its_keys(self, capsys):
        assert cli.main(["validate", "--set", "serving_cluster_size=40"]) == 2
        err = capsys.readouterr().err
        assert "serving_cluster_size <= measurement_cluster_size <= num_orus" in err
        assert "serving_size" not in err.replace("serving_cluster_size", "")

    def test_config_file_loaded(self, tmp_path, capsys):
        path = tmp_path / "sim.cfg"
        path.write_text("num_ues = 9\n", encoding="utf-8")
        assert cli.main(["validate", "--config", str(path)]) == 0
        assert "num_ues = 9" in capsys.readouterr().out

    def test_missing_config_exits_2(self, capsys):
        assert cli.main(["validate", "--config", "/nonexistent/sim.cfg"]) == 2

    def test_module_entry_point(self):
        env = dict(os.environ, PYTHONPATH=str(Path(cfmimo.__file__).resolve().parents[1]))
        runs = [
            subprocess.Popen(
                [sys.executable, "-m", "cfmimo", "validate", "--set", setting],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for setting in ("num_ues=7", "bogus=1")
        ]
        (good_out, _), (_, bad_err) = (run.communicate(timeout=60) for run in runs)
        assert runs[0].returncode == 0 and "num_ues = 7" in good_out
        assert runs[1].returncode == 2 and "bogus" in bad_err


class TestRun:
    def test_deterministic_outputs(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["run", *TINY, "--setups", "1", "--seed", "7", "--speed-kmh", "30"]
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()
        lines = out1.read_text().strip().splitlines()
        assert lines[0] == "setup,step,ue,se_bits_per_hz"
        assert len(lines) == 1 + 4 * 4  # 4 steps x 4 UEs

    def test_reports_invalid_samples_left_out_of_the_mean(self, tmp_path, capsys, monkeypatch):
        def ue0_invalid(moments, powers_mw):
            weights, se = second_stage(moments, powers_mw)
            se[0] = np.nan
            return weights, se

        args = ["run", *TINY, "--setups", "2", "--seed", "7", "--out", str(tmp_path / "se.csv")]
        assert cli.main(args) == 0
        assert "(0 of 32 SE samples invalid, left out of the mean)" in capsys.readouterr().out
        monkeypatch.setattr(simulate, "second_stage", ue0_invalid)
        assert cli.main(args) == 0
        # UE 0 of 4 in each of 4 steps of 2 episodes.
        assert "(8 of 32 SE samples invalid, left out of the mean)" in capsys.readouterr().out
        se = np.loadtxt(tmp_path / "se.csv", delimiter=",", skiprows=1)
        assert np.isnan(se[se[:, 2] == 0, 3]).all() and np.isfinite(se[se[:, 2] != 0, 3]).all()

    def test_events_and_ledger_files(self, tmp_path):
        args = [
            "run", *TINY, "--setups", "1", "--seed", "3", "--strategy", "opportunistic",
            "--threshold-db", "0.5", "--speed-kmh", "120",
            "--out", str(tmp_path / "se.csv"),
            "--events-out", str(tmp_path / "events.csv"),
            "--ledger-out", str(tmp_path / "ledger.csv"),
        ]
        assert cli.main(args) == 0
        events = (tmp_path / "events.csv").read_text().strip().splitlines()
        assert events[0] == "setup,t,ue,kind,old,new"
        cfg = SimConfig()
        for item in TINY[1::2]:
            cfg = apply_setting(cfg, *item.split("="))
        result = run_episode(replace(cfg, seed=3), 0, strategy="opportunistic", threshold_db=0.5, speed_kmh=120)
        expected = [f"0,{row}" for row in events_to_csv(result.events).splitlines()[1:]]
        assert expected and events[1:] == expected
        ledger = (tmp_path / "ledger.csv").read_text().strip().splitlines()
        assert ledger[0] == "setup,step,counter,source,destination,amount"
        assert len(ledger) > 1

    @pytest.mark.parametrize(
        "cell,named",
        [
            (["--speed-kmh", "-30"], "-30"),
            (["--strategy", "mesh"], "mesh"),
            (["--strategy", "cellular", "--threshold-db", "-3"], "-3"),
            (["--speed-kmh", "inf"], "inf"),
        ],
    )
    def test_bad_cell_exits_2(self, tmp_path, capsys, cell, named):
        args = ["run", *TINY, "--setups", "1", *cell, "--out", str(tmp_path / "se.csv")]
        assert cli.main(args) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "run_cell,setting,sweep_cell,code",
        [
            *[
                pytest.param(
                    ["--threshold-db", x], ["--set", f"threshold_db={x}"], ["--threshold-db", f"2,{x}"], code,
                    id=f"threshold_db={x}",
                )
                for x, code in (("inf", 0), ("nan", 2), ("-1", 2))
            ],
            # A sweep's threshold axis does not apply to cellular cells.
            *[
                pytest.param(
                    ["--strategy", "cellular", "--threshold-db", x],
                    ["--strategy", "cellular", "--set", f"cellular_hysteresis_db={x}"], None, code,
                    id=f"cellular_hysteresis_db={x}",
                )
                for x, code in (("inf", 0), ("nan", 2), ("-1", 2))
            ],
            *[
                pytest.param(["--speed-kmh", x], ["--set", f"speeds_kmh={x}"], ["--speeds", x], 2, id=f"speeds_kmh={x}")
                for x in ("inf", "-30")
            ],
        ],
    )
    def test_cell_flag_agrees_with_the_key_it_overrides(self, tmp_path, capsys, run_cell, setting, sweep_cell, code):
        verdicts = []
        for command, extra in (("run", run_cell), ("run", setting), ("sweep", sweep_cell)):
            if extra is not None:
                exit_code = cli.main([command, *TINY, "--setups", "1", *extra, "--out", str(tmp_path / "out.csv")])
                verdicts.append((exit_code, capsys.readouterr().err))
        assert verdicts[0][0] == code
        assert all(verdict == verdicts[0] for verdict in verdicts)

    @pytest.mark.parametrize(
        "setting",
        [
            "sigma_sf_db=nan", "min_distance_m=nan", "angle_spread_deg=nan", "power_mw=nan",
            "sample_time_s=nan", "grid_side_m=nan", "sim_time_s=inf", "threshold_db=-inf", "speeds_kmh=3,nan",
        ],
    )
    def test_non_finite_setting_exits_2(self, tmp_path, capsys, setting):
        args = ["run", *TINY, "--setups", "1", "--set", setting, "--out", str(tmp_path / "se.csv")]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert f"{setting.partition('=')[0]} must be finite" in err
        assert not (tmp_path / "se.csv").exists()

    @pytest.mark.parametrize("flag", ["--out", "--events-out", "--ledger-out"])
    def test_bad_output_path_exits_2_before_any_episode(self, monkeypatch, tmp_path, capsys, flag):
        def never(*args, **kwargs):
            raise AssertionError("an episode ran before the output paths were checked")

        monkeypatch.setattr(cli.simulate, "run_episode", never)
        missing = str(tmp_path / "missing" / "x.csv")
        args = ["run", *TINY, "--setups", "1", "--out", str(tmp_path / "se.csv"), flag, missing]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert flag in err and missing in err

    def test_setup_failure_exits_3(self, tmp_path, capsys):
        # Far-spaced antennas under a wide spread defeat the t=0 quadrature check.
        args = [
            "run", *TINY, "--setups", "1", "--set", "antenna_spacing_wl=40", "--set", "angle_spread_deg=80",
            "--out", str(tmp_path / "se.csv"),
        ]
        assert cli.main(args) == 3
        assert "episode aborted at step 0" in capsys.readouterr().err

    # One stage behind each guard of the lockstep driver, shared or per cell.
    @pytest.mark.parametrize(
        "module,stage,step",
        [(simulate, "refresh_statistics", 0), (simulate.clustering, "strategy_step", 1),
         (simulate, "draw_estimates", 1), (simulate, "gain_moments", 1)],
    )
    def test_step_out_of_memory_exits_3(self, monkeypatch, tmp_path, capsys, module, stage, step):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 9.99 TiB for an array")

        monkeypatch.setattr(module, stage, out_of_memory)
        assert cli.main(["run", *TINY, "--setups", "1", "--out", str(tmp_path / "se.csv")]) == 3
        err = capsys.readouterr().err
        assert f"episode aborted at step {step}" in err and "Unable to allocate 9.99 TiB" in err

    def test_setup_out_of_memory_exits_3(self, monkeypatch, tmp_path, capsys):
        # A failure before the first step names the episode too.
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(simulate.geometry, "uniform_positions", out_of_memory)
        assert cli.main(["run", *TINY, "--setups", "1", "--out", str(tmp_path / "se.csv")]) == 3
        err = capsys.readouterr().err
        assert "episode aborted at step 0 (strategy=fixed" in err and "seed=" in err and "setup=0" in err
        assert "Unable to allocate 7.28 TiB" in err
        assert not (tmp_path / "se.csv").exists()

    def test_singular_combiner_exits_3(self, tmp_path, capsys):
        # The reproducer the CI runs: a rank-one combiner Gram at -400 dBm in setup 1.
        args = [
            "run", "--set", "num_orus=4", "--set", "num_odus=1", "--set", "antennas_per_oru=2",
            "--set", "num_ues=4", "--set", "tau_p=4", "--set", "n_mc=8", "--set", "sim_time_s=1.0",
            "--set", "serving_cluster_size=2", "--set", "measurement_cluster_size=3", "--setups", "2",
            "--set", "noise_dbm=-400", "--strategy", "opportunistic", "--out", str(tmp_path / "se.csv"),
        ]
        assert cli.main(args) == 3
        err = capsys.readouterr().err
        assert "aborted at step 1 (strategy=opportunistic, threshold=2 dB, speed=3 km/h, seed=1, setup=1)" in err
        assert "singular combiner system of O-RU" in err and "in draw" in err
        assert not (tmp_path / "se.csv").exists()

    def test_overflowing_gain_exits_3(self, tmp_path, capsys):
        # 10^(beta_db / 10) overflows under this shadowing; the run must not go on with inf gains.
        args = ["run", *TINY, "--setups", "1", "--set", "sigma_sf_db=1e300", "--out", str(tmp_path / "se.csv")]
        assert cli.main(args) == 3
        err = capsys.readouterr().err
        assert "episode aborted at step 0" in err and "is not finite: beta_db" in err
        assert not (tmp_path / "se.csv").exists()


class TestSweep:
    def test_csv_schema(self, tmp_path):
        out = tmp_path / "sweep.csv"
        args = [
            "sweep", *TINY, "--setups", "2", "--seed", "5",
            "--strategy", "fixed,ubiquitous", "--threshold-db", "2",
            "--speeds", "3,30", "--out", str(out),
        ]
        assert cli.main(args) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == (
            "strategy,threshold_db,speed_kmh,mean_se,se_stderr,ho_freq,ho_stderr,"
            "ric_msgs,inter_odu_samples"
        )
        assert len(lines) == 5
        for line in lines[1:]:
            parts = line.split(",")
            assert parts[0] in ("fixed", "ubiquitous")
            [float(v) for v in parts[1:]]

    def test_bad_strategy_exits_2(self, tmp_path, capsys):
        args = ["sweep", *TINY, "--strategy", "mesh", "--out", str(tmp_path / "s.csv")]
        assert cli.main(args) == 2
        assert "mesh" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,named",
        [
            ("--speeds=-30", "-30"),
            ("--parallelism=0", "parallelism must be >= 1"),
            ("--speeds=abc", "--speeds"),
            ("--threshold-db=2,x", "--threshold-db"),
            ("--speeds=,", "speeds axis of the sweep is empty"),
            ("--strategy=,", "strategies axis of the sweep is empty"),
            ("--threshold-db=,", "thresholds axis of the sweep is empty"),
        ],
    )
    def test_bad_speed_or_parallelism_exits_2(self, tmp_path, capsys, flag, named):
        args = ["sweep", *TINY, flag, "--out", str(tmp_path / "s.csv")]
        assert cli.main(args) == 2
        assert named in capsys.readouterr().err

    def test_opportunistic_cell_over_capacity_exits_2_before_any_episode(self, monkeypatch, tmp_path, capsys):
        def never(*args, **kwargs):
            raise AssertionError("an episode ran before every cell was checked")

        monkeypatch.setattr(simulate, "_run_lockstep", never)
        args = ["sweep", *TINY, "--set", "num_ues=17", "--strategy", "fixed,opportunistic",
                "--out", str(tmp_path / "s.csv")]
        assert cli.main(args) == 2
        assert "num_ues <= num_orus * antennas_per_oru" in capsys.readouterr().err

    def test_bad_output_path_exits_2_before_any_episode(self, monkeypatch, tmp_path, capsys):
        def never(*args, **kwargs):
            raise AssertionError("the campaign ran before the output path was checked")

        monkeypatch.setattr(cli.simulate, "run_campaign", never)
        missing = str(tmp_path / "missing" / "s.csv")
        assert cli.main(["sweep", *TINY, "--out", missing]) == 2
        err = capsys.readouterr().err
        assert "--out" in err and missing in err

    def test_runtime_error_exits_3(self, monkeypatch, tmp_path, capsys):
        def boom(*args, **kwargs):
            raise SimulationError("episode aborted at step 3")

        monkeypatch.setattr(cli.simulate, "run_campaign", boom)
        args = ["sweep", *TINY, "--out", str(tmp_path / "s.csv")]
        assert cli.main(args) == 3
        assert "step 3" in capsys.readouterr().err

