"""Sweep orchestration: seeded realizations, median-BMI aggregation, and
plot-ready CSV emission.

Outputs of a sweep (all deterministic for a fixed config):

* ``results.csv``      - one row per (snr, sigma_theta_sq, algorithm) cell;
* ``realizations.csv`` - one row per realization with its BMI and the
  optimized demapper variance;
* ``cells/``           - per-cell JSON used for interrupt/resume, keyed by
  the config hash, which covers ``RESULTS_VERSION``;
* ``run_meta.json``    - config echo, hash, results version, and measured
  times: per cell and algorithm the seconds of its estimator,
  postprocessing and demapper search, and per (snr, sigma_theta_sq) the
  seconds of the shared distance tables and transition matrix, each summed
  over realizations (times are intentionally kept out of the CSVs so those
  stay byte-identical).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict, replace
from pathlib import Path

import numpy as np

from .channel import ChannelParams, snr_to_noise_var, transmit
from .constellation import Constellation, build_qam, maxwell_boltzmann_shape, shape_for_entropy
from .estimators import (
    BpsOptParams,
    EstimatorConfig,
    FactorTables,
    _distance_tables,
    bps_estimate,
    bps_opt_estimate,
    cpn_estimate,
    make_grid,
    map_bp_estimate,
    q_matrix,
)
from .metrics import optimize_demapper_variance
from .postproc import postprocess
from .training import TrainSchedule, load_params, save_params, save_report, train, weights_to_csv

KNOWN_ALGORITHMS = ("bps", "cpn", "map_bp", "bps_opt")

# Version of the numbers a sweep produces for a given config. It is part of
# the config hash, so cells cached by code that computed different results
# are recomputed on resume instead of being mixed in. Bump it whenever a
# change moves any BMI or sigma_opt digit. 2: per-axis demapper and bounded
# Brent variance search. 3: per-axis distance tables, and sigma_opt = 1e-6 on
# frames whose BMI is flat at its maximum. 4: full-sequence BP in the log
# domain where linear messages cannot span the frame (near-identity Q).
# 5: bps_opt window sums and readout along phase-major rows. 6: full-sequence
# BP in lockstep blocks (log-marginals move by about 1e-13). 7: windowed BP
# rescales a message only near underflow and flushes Q below 2^-900
# (log-marginals move by about 1e-14).
RESULTS_VERSION = 7

WORKERS_ENV_VAR = "WIENER_CPE_WORKERS"


class ConfigError(ValueError):
    """Invalid experiment configuration; maps to CLI exit code 1."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: constellation, channel grid, estimators, and scale."""

    order: int = 64
    target_entropy: float | None = None
    mb_lambda: float | None = None
    snr_db: tuple[float, ...] = (16.0, 20.0, 24.0)
    sigma_theta_sq: tuple[float, ...] = (1e-5, 1.18e-4, 1e-3)
    algorithms: tuple[str, ...] = ("bps", "cpn", "map_bp")
    half_window: int = 32
    num_test_phases: int = 60
    realizations: int = 100
    num_symbols: int = 2**15
    seed: int = 0
    exclude_edges: bool = False
    r_max: int = 3
    full_sequence_bp: bool = False
    trained_params_path: str | None = None
    phi0: float = 0.0
    random_phi0: bool = False

    def __post_init__(self):
        object.__setattr__(self, "snr_db", tuple(float(v) for v in self.snr_db))
        object.__setattr__(self, "sigma_theta_sq", tuple(float(v) for v in self.sigma_theta_sq))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if not self.snr_db or not self.sigma_theta_sq:
            raise ConfigError("sweep lists must be nonempty")
        if self.realizations < 1:
            raise ConfigError("realizations must be at least 1")
        if not self.algorithms:
            raise ConfigError("need at least one algorithm")
        for name in self.algorithms:
            if name not in KNOWN_ALGORITHMS:
                raise ConfigError(f"unknown algorithm {name!r}; known: {KNOWN_ALGORITHMS}")
        if self.target_entropy is not None and self.mb_lambda is not None:
            raise ConfigError("set at most one of target_entropy and mb_lambda")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)


def build_constellation(config: ExperimentConfig) -> Constellation:
    c = build_qam(config.order)
    if config.target_entropy is not None:
        c, _ = shape_for_entropy(c, config.target_entropy)
    elif config.mb_lambda is not None:
        c = maxwell_boltzmann_shape(c, config.mb_lambda)
    return c


def _load_opt_params(config: ExperimentConfig) -> BpsOptParams:
    if config.trained_params_path is None:
        # uniform weights at t=1e-6 give plain BPS's phase (mod 2pi/n, within
        # 1e-6 rad) on every symbol whose top-two window-mean gap is at least
        # t ln((M-1)/(n 1e-6)); nearer ties may blend (about 0.16% of symbols
        # at 20 dB, sigma_theta^2=1.18e-4, M=15, N=32)
        return BpsOptParams.uniform(config.half_window, temperature=1e-6)
    params = load_params(config.trained_params_path)
    if params.weights.size != 2 * config.half_window + 1:
        raise ConfigError("trained params window length does not match half_window")
    return params


def config_hash(config: ExperimentConfig) -> str:
    """Hash of the result-relevant config content and ``RESULTS_VERSION``
    (trained parameters are hashed by value, not by path)."""
    doc = asdict(config)
    doc.pop("trained_params_path")
    doc["results_version"] = RESULTS_VERSION
    if config.trained_params_path is not None:
        params = _load_opt_params(config)
        doc["trained_params"] = {
            "raw_weights": params.raw_weights.tolist(),
            "raw_temp": params.raw_temp,
        }
    canonical = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class CellResult:
    """Aggregated scores of one (snr, sigma_theta_sq, algorithm) cell.

    ``wall_time_s`` is the algorithm's own estimator, postprocessing and
    demapper-search time, and ``shared_time_s`` that of the distance tables
    and transition matrix all algorithms of the cell share, both summed over
    realizations.
    """

    snr_db: float
    sigma_theta_sq: float
    algorithm: str
    bmi_median: float
    bmi_q25: float
    bmi_q75: float
    slips_median: float
    bmi_values: tuple[float, ...]
    sigma_opt_values: tuple[float, ...]
    slip_counts: tuple[int, ...]
    wall_time_s: float
    shared_time_s: float


def aggregate_cell(values) -> tuple[float, float, float]:
    """(median, lower quartile, upper quartile) of the realization scores."""
    arr = np.asarray(values, dtype=np.float64)
    return (
        float(np.median(arr)),
        float(np.percentile(arr, 25)),
        float(np.percentile(arr, 75)),
    )


def _cell_setup(
    config: ExperimentConfig,
    constellation: Constellation,
    snr_db: float,
    sigma_theta_sq: float,
    seed: int,
) -> tuple[ChannelParams, EstimatorConfig]:
    """The channel of one seeded realization and the estimator settings
    matched to it."""
    channel = ChannelParams(
        snr_db=snr_db,
        sigma_theta_sq=sigma_theta_sq,
        num_symbols=config.num_symbols,
        seed=seed,
        phi0=config.phi0,
        random_phi0=config.random_phi0,
    )
    # the emission kernel exp(-d^2/(2 sigma^2)) takes the per-component
    # noise variance, matching the true circular-Gaussian likelihood
    cfg = EstimatorConfig(
        half_window=config.half_window,
        grid=make_grid(config.num_test_phases, constellation.sym_order),
        sigma_n_sq=max(snr_to_noise_var(snr_db, constellation) / 2.0, 1e-12),
        sigma_theta_sq=sigma_theta_sq,
        wrap_terms=config.r_max,
        full_sequence_bp=config.full_sequence_bp,
    )
    return channel, cfg


def _checked_constellation(config: ExperimentConfig) -> Constellation:
    """Build the constellation and every cell's setup, so that a bad
    config fails as a ConfigError before anything is computed or written."""
    try:
        constellation = build_constellation(config)
        for snr in config.snr_db:
            for sigma in config.sigma_theta_sq:
                _cell_setup(config, constellation, snr, sigma, config.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if config.num_symbols < 2 * config.half_window + 1:
        raise ConfigError("num_symbols must be at least the window length 2 * half_window + 1")
    return constellation


def _evaluate_realization(args):
    (constellation, config, snr_db, sigma_theta_sq, realization, opt_params) = args
    params, cfg = _cell_setup(
        config, constellation, snr_db, sigma_theta_sq, config.seed + realization
    )
    trace = transmit(constellation, params)
    want_min = bool({"bps", "bps_opt"} & set(config.algorithms))
    want_log_r = bool({"cpn", "map_bp"} & set(config.algorithms))
    started = time.perf_counter()
    d_table, log_r = _distance_tables(
        trace.rx_symbols, cfg.grid, constellation, cfg.sigma_n_sq, want_min, want_log_r
    )
    tables = None
    if want_log_r:
        tables = FactorTables(log_r, q_matrix(cfg.grid, cfg.sigma_theta_sq, cfg.wrap_terms))
    shared_s = time.perf_counter() - started

    out = {}
    for algo in config.algorithms:
        started = time.perf_counter()
        if algo == "bps":
            phi_raw = bps_estimate(trace.rx_symbols, cfg, constellation, d_table=d_table)
        elif algo == "cpn":
            phi_raw = cpn_estimate(trace.rx_symbols, cfg, constellation, tables=tables)
        elif algo == "map_bp":
            phi_raw = map_bp_estimate(trace.rx_symbols, cfg, constellation, tables=tables)
        else:
            phi_raw = bps_opt_estimate(
                trace.rx_symbols, cfg, constellation, opt_params, d_table=d_table
            )
        corrected = postprocess(
            phi_raw, trace.rx_symbols, trace.phase_path, constellation.sym_order
        )
        x_hat = corrected.x_hat
        bits = trace.bits
        if config.exclude_edges:
            sl = slice(config.half_window, config.num_symbols - config.half_window)
            x_hat = x_hat[sl]
            bits = bits[sl]
        sigma_opt, report = optimize_demapper_variance(
            x_hat, bits, constellation, edge_excluded=config.exclude_edges
        )
        seconds = time.perf_counter() - started
        out[algo] = (report.bmi_bits, sigma_opt, len(corrected.slip_events), seconds)
    return out, shared_s


def _worker_count(workers: int | None) -> int:
    if workers is not None:
        return max(1, workers)
    env = os.environ.get(WORKERS_ENV_VAR)
    return max(1, int(env)) if env else 1


def _cell_path(cells_dir: Path, digest: str, i_snr: int, i_sigma: int, algo: str) -> Path:
    return cells_dir / f"{digest}_s{i_snr}_g{i_sigma}_{algo}.json"


def run_sweep(
    config: ExperimentConfig, output_dir, workers: int | None = None
) -> list[CellResult]:
    """Run all (snr, sigma, algorithm) cells and persist the result tables.

    Realization r of every cell uses seed = config.seed + r (common random
    numbers across cells). Completed cells are checkpointed under
    ``cells/`` and skipped on re-run when the config hash matches.
    """
    constellation = _checked_constellation(config)
    digest = config_hash(config)
    out_dir = Path(output_dir)
    cells_dir = out_dir / "cells"
    cells_dir.mkdir(parents=True, exist_ok=True)
    opt_params = _load_opt_params(config) if "bps_opt" in config.algorithms else None
    n_workers = _worker_count(workers)

    results: list[CellResult] = []
    wall_times: dict[str, float] = {}
    shared_times: dict[str, float] = {}
    for i_snr, snr in enumerate(config.snr_db):
        for i_sigma, sigma in enumerate(config.sigma_theta_sq):
            cached = {
                algo: _cell_path(cells_dir, digest, i_snr, i_sigma, algo)
                for algo in config.algorithms
            }
            if all(p.exists() for p in cached.values()):
                cells = [_load_cell(cached[algo], snr, sigma, algo) for algo in config.algorithms]
            else:
                cells = _run_cell(
                    constellation, config, snr, sigma, opt_params, n_workers, cached
                )
            results.extend(cells)
            for cell in cells:
                wall_times[f"snr={snr} sigma={sigma} algo={cell.algorithm}"] = cell.wall_time_s
            shared_times[f"snr={snr} sigma={sigma}"] = cells[0].shared_time_s

    _write_results_csv(out_dir / "results.csv", results, config, digest)
    _write_realizations_csv(out_dir / "realizations.csv", results, config)
    meta = {
        "config": asdict(config),
        "config_hash": digest,
        "results_version": RESULTS_VERSION,
        "wall_times_s": wall_times,
        "shared_tables_s": shared_times,
        "workers": n_workers,
    }
    with open(out_dir / "run_meta.json", "w") as fh:
        json.dump(meta, fh, indent=2)
    return results


def _run_cell(constellation, config, snr, sigma, opt_params, n_workers, paths):
    """Compute one (snr, sigma_theta_sq) cell for every algorithm and
    checkpoint each algorithm's result to ``paths[algo]``."""
    tasks = [
        (constellation, config, snr, sigma, r, opt_params) for r in range(config.realizations)
    ]
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            per_realization = list(pool.map(_evaluate_realization, tasks))
    else:
        per_realization = [_evaluate_realization(t) for t in tasks]
    shared_s = sum(shared for _, shared in per_realization)
    cells = []
    for algo in config.algorithms:
        scores = [out[algo] for out, _ in per_realization]
        doc = {
            "bmi_values": [s[0] for s in scores],
            "sigma_opt_values": [s[1] for s in scores],
            "slip_counts": [s[2] for s in scores],
            "wall_time_s": sum(s[3] for s in scores),
            "shared_time_s": shared_s,
        }
        _save_cell(paths[algo], doc)
        cells.append(_cell_from_doc(doc, snr, sigma, algo))
    return cells


def load_sweep(config: ExperimentConfig, output_dir) -> list[CellResult]:
    """Read a finished sweep's cells, in ``run_sweep``'s order, without
    computing or writing anything; a missing cell is a ConfigError."""
    cells_dir = Path(output_dir) / "cells"
    digest = config_hash(config)
    results = []
    for i_snr, snr in enumerate(config.snr_db):
        for i_sigma, sigma in enumerate(config.sigma_theta_sq):
            for algo in config.algorithms:
                path = _cell_path(cells_dir, digest, i_snr, i_sigma, algo)
                if not path.exists():
                    raise ConfigError(
                        f"missing cell {path} (snr_db={snr}, sigma_theta_sq={sigma}, "
                        f"algorithm={algo}); rerun the sweep to compute it"
                    )
                results.append(_load_cell(path, snr, sigma, algo))
    return results


def _save_cell(path: Path, doc: dict) -> None:
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    tmp.replace(path)


def _load_cell(path: Path, snr: float, sigma: float, algo: str) -> CellResult:
    with open(path) as fh:
        return _cell_from_doc(json.load(fh), snr, sigma, algo)


def _cell_from_doc(doc: dict, snr: float, sigma: float, algo: str) -> CellResult:
    """The cell a ``cells/*.json`` doc records, whether just computed or
    read back from disk."""
    median, q25, q75 = aggregate_cell(doc["bmi_values"])
    return CellResult(
        snr_db=snr,
        sigma_theta_sq=sigma,
        algorithm=algo,
        bmi_median=median,
        bmi_q25=q25,
        bmi_q75=q75,
        slips_median=float(np.median(doc["slip_counts"])),
        bmi_values=tuple(doc["bmi_values"]),
        sigma_opt_values=tuple(doc["sigma_opt_values"]),
        slip_counts=tuple(int(v) for v in doc["slip_counts"]),
        wall_time_s=float(doc["wall_time_s"]),
        shared_time_s=float(doc["shared_time_s"]),
    )


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_results_csv(path: Path, results, config: ExperimentConfig, digest: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "config_hash",
                "snr_db",
                "sigma_theta_sq",
                "algorithm",
                "M",
                "N",
                "num_symbols",
                "realizations",
                "bmi_median",
                "bmi_q25",
                "bmi_q75",
                "slips_median",
            ]
        )
        for cell in results:
            writer.writerow(
                [
                    digest,
                    _fmt(cell.snr_db),
                    _fmt(cell.sigma_theta_sq),
                    cell.algorithm,
                    config.num_test_phases,
                    config.half_window,
                    config.num_symbols,
                    config.realizations,
                    _fmt(cell.bmi_median),
                    _fmt(cell.bmi_q25),
                    _fmt(cell.bmi_q75),
                    _fmt(cell.slips_median),
                ]
            )


def _write_realizations_csv(path: Path, results, config: ExperimentConfig) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["snr_db", "sigma_theta_sq", "algorithm", "M", "N", "realization", "bmi", "sigma_opt"]
        )
        for cell in results:
            for r, (bmi_val, sigma_val) in enumerate(
                zip(cell.bmi_values, cell.sigma_opt_values)
            ):
                writer.writerow(
                    [
                        _fmt(cell.snr_db),
                        _fmt(cell.sigma_theta_sq),
                        cell.algorithm,
                        config.num_test_phases,
                        config.half_window,
                        r,
                        _fmt(bmi_val),
                        _fmt(sigma_val),
                    ]
                )


def emit_plot_data(results, config: ExperimentConfig, output_dir) -> list[Path]:
    """One BMI-vs-SNR CSV per sigma_theta_sq (one column per algorithm),
    plus a window-weights CSV when trained parameters are configured."""
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lookup = {(c.snr_db, c.sigma_theta_sq, c.algorithm): c.bmi_median for c in results}
    written = []
    for sigma in config.sigma_theta_sq:
        path = out_dir / f"bmi_vs_snr_sigma_theta_{sigma:.6g}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["snr_db", *config.algorithms])
            for snr in config.snr_db:
                row = [_fmt(snr)]
                complete = True
                for algo in config.algorithms:
                    key = (snr, sigma, algo)
                    if key not in lookup:
                        complete = False
                        break
                    row.append(_fmt(lookup[key]))
                if complete:
                    writer.writerow(row)
        written.append(path)
    if config.trained_params_path is not None:
        path = out_dir / "learned_weights.csv"
        weights_to_csv(_load_opt_params(config), path)
        written.append(path)
    return written


def run_train(
    config: ExperimentConfig,
    schedule: TrainSchedule,
    output_dir,
    loss_kind: str = "bce",
    heldout_realizations: int = 0,
):
    """Train the softmin-BPS parameters for one (snr, sigma_theta_sq) cell.

    Persists ``params.json``, ``report.json``, and ``weights.csv`` under
    ``output_dir``; with ``heldout_realizations`` > 0 it then runs
    ``evaluate_params`` on them into ``output_dir/heldout``.
    """
    _require_single_cell(config, "training")
    constellation = _checked_constellation(config)
    channel, cfg = _cell_setup(
        config, constellation, config.snr_db[0], config.sigma_theta_sq[0], config.seed
    )
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = train(schedule, channel, cfg, constellation, loss_kind=loss_kind)
    save_params(report.params, out_dir / "params.json")
    save_report(report, out_dir / "report.json")
    weights_to_csv(report.params, out_dir / "weights.csv")

    if heldout_realizations > 0:
        evaluate_params(
            replace(config, realizations=heldout_realizations),
            out_dir / "params.json",
            out_dir / "heldout",
        )
    return report


def evaluate_params(
    config: ExperimentConfig,
    params_path,
    output_dir,
    seed_offset: int = 10_000,
    workers: int | None = None,
) -> list[CellResult]:
    """Score plain BPS and the trained softmin BPS in ``params_path`` on
    the held-out seeds ``config.seed + seed_offset + r``, whatever
    algorithms ``config`` lists."""
    _require_single_cell(config, "held-out evaluation")
    eval_config = replace(
        config,
        algorithms=("bps", "bps_opt"),
        seed=config.seed + seed_offset,
        trained_params_path=str(params_path),
    )
    return run_sweep(eval_config, output_dir, workers=workers)


def _require_single_cell(config: ExperimentConfig, purpose: str) -> None:
    if len(config.snr_db) != 1 or len(config.sigma_theta_sq) != 1:
        raise ConfigError(f"{purpose} requires a single (snr, sigma_theta_sq) cell")
