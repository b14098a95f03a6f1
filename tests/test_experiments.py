"""Sweep orchestration, persistence, resume, plot emission, and the CLI."""

import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from wiener_cpe import (
    BpsOptParams,
    ConfigError,
    ExperimentConfig,
    emit_plot_data,
    evaluate_params,
    run_sweep,
    run_train,
)
from wiener_cpe.experiments import aggregate_cell, config_hash
from wiener_cpe.training import TrainSchedule, save_params


def _small_config(**overrides):
    base = dict(
        order=16,
        target_entropy=3.5,
        snr_db=(12.0, 15.0),
        sigma_theta_sq=(1e-4,),
        algorithms=("bps",),
        half_window=4,
        num_test_phases=8,
        realizations=2,
        num_symbols=512,
        seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_unknown_algorithm_rejected_before_work(self):
        with pytest.raises(ConfigError):
            _small_config(algorithms=("bps", "viterbi"))

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigError):
            _small_config(snr_db=())

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"snr": [10]})

    def test_both_shaping_knobs_rejected(self):
        with pytest.raises(ConfigError):
            _small_config(target_entropy=3.5, mb_lambda=0.1)

    def test_hash_stable_and_sensitive(self):
        assert config_hash(_small_config()) == config_hash(_small_config())
        assert config_hash(_small_config()) != config_hash(_small_config(seed=6))


class TestAggregation:
    def test_median_matches_sort_oracle(self):
        rng = np.random.default_rng(50)
        for size in (1, 2, 5, 20, 101):
            values = rng.uniform(0, 6, size)
            median, q25, q75 = aggregate_cell(values)
            ordered = np.sort(values)
            if size % 2:
                expected = ordered[size // 2]
            else:
                expected = 0.5 * (ordered[size // 2 - 1] + ordered[size // 2])
            assert median == pytest.approx(expected, abs=0)
            assert q25 <= median <= q75


class TestRunSweep:
    def test_smoke_and_schema(self, tmp_path):
        config = _small_config()
        results = run_sweep(config, tmp_path)
        assert len(results) == 2  # 2 snr x 1 sigma x 1 algo
        assert all(np.isfinite(c.bmi_median) for c in results)
        assert all(0.0 <= c.bmi_median <= 3.5 + 1e-9 for c in results)

        with open(tmp_path / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["algorithm"] == "bps"
        assert rows[0]["M"] == "8"
        assert rows[0]["N"] == "4"

        with open(tmp_path / "realizations.csv") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            body = list(reader)
        assert header == [
            "snr_db",
            "sigma_theta_sq",
            "algorithm",
            "M",
            "N",
            "realization",
            "bmi",
            "sigma_opt",
        ]
        assert len(body) == 4  # 2 cells x 2 realizations

        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["config_hash"] == config_hash(config)

    def test_row_count_covers_product(self, tmp_path):
        config = _small_config(
            snr_db=(12.0, 14.0, 16.0), sigma_theta_sq=(1e-5, 1e-4), algorithms=("bps", "cpn")
        )
        results = run_sweep(config, tmp_path)
        assert len(results) == 3 * 2 * 2

    def test_byte_identical_reruns(self, tmp_path):
        config = _small_config()
        run_sweep(config, tmp_path / "a")
        run_sweep(config, tmp_path / "b")
        for name in ("results.csv", "realizations.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_resume_completes_only_missing_cells(self, tmp_path):
        config = _small_config()
        run_sweep(config, tmp_path)
        full = (tmp_path / "results.csv").read_bytes()

        cell_files = sorted((tmp_path / "cells").glob("*.json"))
        assert len(cell_files) == 2
        cell_files[0].unlink()
        (tmp_path / "results.csv").unlink()

        run_sweep(config, tmp_path)
        assert (tmp_path / "results.csv").read_bytes() == full

    def test_full_resume_keeps_measured_times(self, tmp_path):
        config = _small_config(algorithms=("bps", "map_bp"))
        run_sweep(config, tmp_path)
        first = json.loads((tmp_path / "run_meta.json").read_text())
        walls = first["wall_times_s"]
        assert len(walls) == 4 and all(v > 0 for v in walls.values())
        # measured per algorithm, not one cell time split evenly
        assert walls["snr=12.0 sigma=0.0001 algo=bps"] != walls["snr=12.0 sigma=0.0001 algo=map_bp"]
        assert set(first["shared_tables_s"]) == {"snr=12.0 sigma=0.0001", "snr=15.0 sigma=0.0001"}
        assert all(v > 0 for v in first["shared_tables_s"].values())

        run_sweep(config, tmp_path)  # every cell cached
        resumed = json.loads((tmp_path / "run_meta.json").read_text())
        assert resumed["wall_times_s"] == walls
        assert resumed["shared_tables_s"] == first["shared_tables_s"]

    def test_full_resume_returns_equal_cells(self, tmp_path):
        config = _small_config(algorithms=("bps", "cpn", "map_bp", "bps_opt"))
        computed = run_sweep(config, tmp_path)
        resumed = run_sweep(config, tmp_path)  # every cell read back from cells/
        assert resumed == computed
        assert all(c.shared_time_s > 0 for c in resumed)

    def test_stale_cells_are_ignored_on_config_change(self, tmp_path):
        run_sweep(_small_config(), tmp_path)
        changed = _small_config(seed=6)
        results = run_sweep(changed, tmp_path)
        assert len(results) == 2
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["config_hash"] == config_hash(changed)

    def test_results_version_bump_recomputes_cells(self, tmp_path, monkeypatch):
        from wiener_cpe import experiments

        config = _small_config()
        run_sweep(config, tmp_path)
        computed = []
        run_cell = experiments._run_cell

        def counting_run_cell(*args):
            computed.append(args[2])  # the cell's snr
            return run_cell(*args)

        monkeypatch.setattr(experiments, "_run_cell", counting_run_cell)
        run_sweep(config, tmp_path)
        assert computed == []  # same version: every cell loaded from cells/

        old_hash = config_hash(config)
        monkeypatch.setattr(experiments, "RESULTS_VERSION", experiments.RESULTS_VERSION + 1)
        assert config_hash(config) != old_hash
        run_sweep(config, tmp_path)
        assert computed == list(config.snr_db)
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["results_version"] == experiments.RESULTS_VERSION
        assert meta["config_hash"] == config_hash(config)

    def test_all_algorithms_run(self, tmp_path):
        config = _small_config(
            algorithms=("bps", "cpn", "map_bp", "bps_opt"), realizations=1, num_symbols=256
        )
        results = run_sweep(config, tmp_path)
        assert {c.algorithm for c in results} == {"bps", "cpn", "map_bp", "bps_opt"}

    def test_edge_exclusion_flag(self, tmp_path):
        config = _small_config(exclude_edges=True, realizations=1)
        results = run_sweep(config, tmp_path)
        assert all(np.isfinite(c.bmi_median) for c in results)

    def test_worker_count_from_environment(self, monkeypatch):
        from wiener_cpe.experiments import WORKERS_ENV_VAR, _worker_count

        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert _worker_count(None) == 1
        assert _worker_count(4) == 4
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert _worker_count(None) == 3
        assert _worker_count(2) == 2  # explicit argument wins

    def test_parallel_workers_match_sequential(self, tmp_path):
        config = _small_config(realizations=3, num_symbols=256)
        run_sweep(config, tmp_path / "seq", workers=1)
        run_sweep(config, tmp_path / "par", workers=2)
        assert (tmp_path / "seq" / "results.csv").read_bytes() == (
            tmp_path / "par" / "results.csv"
        ).read_bytes()


class TestEmitPlotData:
    def test_figure_layout(self, tmp_path):
        config = _small_config(
            snr_db=(10.0, 12.0, 14.0),
            sigma_theta_sq=(1e-5, 1e-4),
            algorithms=("bps", "cpn"),
            realizations=1,
            num_symbols=256,
        )
        results = run_sweep(config, tmp_path / "sweep")
        written = emit_plot_data(results, config, tmp_path / "plots")
        csv_files = [p for p in written if p.name.startswith("bmi_vs_snr")]
        assert len(csv_files) == 2
        for path in csv_files:
            lines = path.read_text().strip().splitlines()
            assert lines[0] == "snr_db,bps,cpn"
            assert len(lines) == 4  # header + 3 snr rows
            assert len(lines[1].split(",")) == 3

    def test_empty_results_emit_headers_only(self, tmp_path):
        config = _small_config(sigma_theta_sq=(1e-5, 1e-4))
        written = emit_plot_data([], config, tmp_path)
        assert len(written) == 2
        for path in written:
            lines = path.read_text().strip().splitlines()
            assert len(lines) == 1
            assert lines[0].startswith("snr_db,")

    def test_weights_file_row_count(self, tmp_path, shaped64):
        params_path = tmp_path / "params.json"
        save_params(BpsOptParams.uniform(4), params_path)
        config = _small_config(trained_params_path=str(params_path))
        written = emit_plot_data([], config, tmp_path / "plots")
        weights = [p for p in written if p.name == "learned_weights.csv"][0]
        lines = weights.read_text().strip().splitlines()
        assert len(lines) == 1 + (2 * 4 + 1)


class TestRunTrain:
    def test_desk_scale_persists_params(self, tmp_path):
        config = _small_config(snr_db=(15.0,), sigma_theta_sq=(1e-4,))
        schedule = TrainSchedule(
            epochs=2, batches_start=2, batches_end=3, batch_symbols_start=256,
            batch_symbols_end=512, seed=3,
        )
        report = run_train(config, schedule, tmp_path)
        assert (tmp_path / "params.json").exists()
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "weights.csv").exists()
        assert len(report.loss_curve) == 2

    def test_multi_cell_training_rejected(self, tmp_path):
        config = _small_config()  # two snr values
        with pytest.raises(ConfigError):
            run_train(config, TrainSchedule(epochs=1), tmp_path)

    def test_lr_zero_persists_initialization(self, tmp_path):
        config = _small_config(snr_db=(15.0,))
        schedule = TrainSchedule(
            epochs=1, lr=0.0, batches_start=1, batches_end=1,
            batch_symbols_start=256, batch_symbols_end=256, seed=3,
        )
        report = run_train(config, schedule, tmp_path)
        np.testing.assert_array_equal(report.params.raw_weights, np.zeros(9))
        assert report.params.temperature == pytest.approx(0.1)


    @pytest.mark.parametrize("snr_db", [15.0, -3.5, math.inf])
    def test_noise_variance_from_channel_mapping(self, tmp_path, monkeypatch, snr_db):
        from wiener_cpe import experiments, snr_to_noise_var

        seen = []

        class Stop(Exception):
            pass

        def fake_train(schedule, channel, cfg, constellation, loss_kind):
            seen.append((cfg.sigma_n_sq, snr_to_noise_var(channel.snr_db, constellation)))
            raise Stop

        monkeypatch.setattr(experiments, "train", fake_train)
        with pytest.raises(Stop):
            run_train(_small_config(snr_db=(snr_db,)), TrainSchedule(epochs=1), tmp_path)
        (sigma_n_sq, noise_var), = seen
        assert sigma_n_sq == max(noise_var / 2.0, 1e-12)
        # the inline formula the mapping replaced, for finite SNR and +inf
        legacy = 10.0 ** (-snr_db / 10.0) if math.isfinite(snr_db) else 0.0
        assert sigma_n_sq == max(legacy / 2.0, 1e-12)

    def test_heldout_matches_evaluate_params(self, tmp_path):
        config = _small_config(snr_db=(15.0,), algorithms=("cpn",))
        schedule = TrainSchedule(
            epochs=1, batches_start=1, batches_end=1, batch_symbols_start=256,
            batch_symbols_end=256, seed=3,
        )
        run_train(config, schedule, tmp_path / "model", heldout_realizations=1)
        evaluate_params(
            _small_config(snr_db=(15.0,), realizations=1),
            tmp_path / "model" / "params.json",
            tmp_path / "eval",
        )
        for name in ("results.csv", "realizations.csv"):
            heldout = (tmp_path / "model" / "heldout" / name).read_bytes()
            assert heldout == (tmp_path / "eval" / name).read_bytes()
        with open(tmp_path / "eval" / "results.csv") as fh:
            assert [row["algorithm"] for row in csv.DictReader(fh)] == ["bps", "bps_opt"]


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "wiener_cpe", *args], capture_output=True, text=True
        )

    def test_sweep_roundtrip(self, tmp_path):
        config = dict(
            order=16,
            target_entropy=3.5,
            snr_db=[15.0],
            sigma_theta_sq=[1e-4],
            algorithms=["bps"],
            half_window=4,
            num_test_phases=8,
            realizations=1,
            num_symbols=256,
            seed=1,
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = self._run("sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
        assert out.returncode == 0, out.stderr
        assert (tmp_path / "out" / "results.csv").exists()

        plot = self._run("plot-data", "--results", str(tmp_path / "out"))
        assert plot.returncode == 0, plot.stderr
        assert list((tmp_path / "out" / "plots").glob("bmi_vs_snr*.csv"))

    def test_plot_data_is_read_only(self, tmp_path):
        config = dict(
            order=16,
            target_entropy=3.5,
            snr_db=[12.0, 15.0],
            sigma_theta_sq=[1e-4],
            algorithms=["bps"],
            half_window=4,
            num_test_phases=8,
            realizations=1,
            num_symbols=256,
            seed=1,
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        assert self._run("sweep", "--config", str(cfg_path), "--out", str(out_dir)).returncode == 0
        meta = (out_dir / "run_meta.json").read_bytes()
        results = (out_dir / "results.csv").read_bytes()
        missing = sorted((out_dir / "cells").glob("*.json"))[1]
        missing.unlink()

        plot = self._run("plot-data", "--results", str(out_dir))
        assert plot.returncode == 1
        assert "config error" in plot.stderr and missing.name in plot.stderr
        assert not missing.exists()
        assert (out_dir / "run_meta.json").read_bytes() == meta
        assert (out_dir / "results.csv").read_bytes() == results

    def test_flag_overrides(self, tmp_path):
        out = self._run(
            "sweep", "--order", "16", "--target-entropy", "3.5", "--snr-db", "15",
            "--sigma-theta-sq", "1e-4", "--algorithms", "bps", "--half-window", "2",
            "--test-phases", "8", "--realizations", "1", "--symbols", "256",
            "--seed", "2", "--out", str(tmp_path / "out"),
        )
        assert out.returncode == 0, out.stderr

    def test_config_error_exit_code(self, tmp_path):
        out = self._run(
            "sweep", "--order", "16", "--snr-db", "15", "--sigma-theta-sq", "1e-4",
            "--algorithms", "nonsense", "--out", str(tmp_path / "out"),
        )
        assert out.returncode == 1
        assert "config error" in out.stderr

    @pytest.mark.parametrize(
        "flags",
        [
            ("--test-phases", "1"),
            ("--half-window", "-1"),
            ("--order", "32"),
            ("--symbols", "0"),
            ("--symbols", "5", "--half-window", "4"),
            ("--sigma-theta-sq", "1e-4", "-1e-4"),
            ("--realizations", "0"),
        ],
    )
    def test_invalid_values_exit_1_before_writing(self, tmp_path, flags):
        out = self._run(
            "sweep", "--order", "16", "--snr-db", "15", "--sigma-theta-sq", "1e-4",
            "--half-window", "2", "--test-phases", "8", "--symbols", "64",
            *flags, "--out", str(tmp_path / "out"),
        )
        assert out.returncode == 1, out.stderr
        assert "config error" in out.stderr and "Traceback" not in out.stderr
        assert not (tmp_path / "out").exists()

    def test_eval_scores_bps_and_bps_opt_only(self, tmp_path):
        params_path = tmp_path / "params.json"
        save_params(BpsOptParams.uniform(2), params_path)
        out = self._run(
            "eval", "--order", "16", "--target-entropy", "3.5", "--snr-db", "15",
            "--sigma-theta-sq", "1e-4", "--algorithms", "bps", "cpn", "bps_opt",
            "--half-window", "2", "--test-phases", "8", "--realizations", "1",
            "--symbols", "256", "--params", str(params_path), "--out", str(tmp_path / "eval"),
        )
        assert out.returncode == 0, out.stderr
        with open(tmp_path / "eval" / "results.csv") as fh:
            assert [row["algorithm"] for row in csv.DictReader(fh)] == ["bps", "bps_opt"]

    def test_bad_flag_is_config_error(self, tmp_path):
        out = self._run("sweep", "--no-such-flag", "--out", str(tmp_path / "out"))
        assert out.returncode == 1

    def test_train_and_eval(self, tmp_path):
        train_out = self._run(
            "train", "--order", "16", "--target-entropy", "3.5", "--snr-db", "15",
            "--sigma-theta-sq", "1e-4", "--half-window", "2", "--test-phases", "8",
            "--symbols", "256", "--seed", "1", "--epochs", "1", "--batches-start", "1",
            "--batches-end", "1", "--batch-symbols-start", "256",
            "--batch-symbols-end", "256", "--out", str(tmp_path / "model"),
        )
        assert train_out.returncode == 0, train_out.stderr
        eval_out = self._run(
            "eval", "--order", "16", "--target-entropy", "3.5", "--snr-db", "15",
            "--sigma-theta-sq", "1e-4", "--algorithms", "bps", "bps_opt",
            "--half-window", "2", "--test-phases", "8", "--realizations", "1",
            "--symbols", "256", "--seed", "1",
            "--params", str(tmp_path / "model" / "params.json"),
            "--out", str(tmp_path / "eval"),
        )
        assert eval_out.returncode == 0, eval_out.stderr
        assert (tmp_path / "eval" / "results.csv").exists()
