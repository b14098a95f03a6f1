"""Command line interface: sweep, train, eval, plot-data.

Exit codes: 0 on success, 1 on configuration errors, 2 on runtime errors.
Worker count for sweep realizations comes from --workers or the
WIENER_CPE_WORKERS environment variable (default 1).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import fields
from pathlib import Path

from .experiments import (
    ConfigError,
    ExperimentConfig,
    emit_plot_data,
    evaluate_params,
    load_sweep,
    run_sweep,
    run_train,
)
from .training import TrainSchedule


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap to config errors
    def error(self, message):
        raise ConfigError(message)


_CONFIG_FLAGS = {
    "order": ("--order", int, None),
    "target_entropy": ("--target-entropy", float, None),
    "mb_lambda": ("--mb-lambda", float, None),
    "snr_db": ("--snr-db", float, "+"),
    "sigma_theta_sq": ("--sigma-theta-sq", float, "+"),
    "algorithms": ("--algorithms", str, "+"),
    "half_window": ("--half-window", int, None),
    "num_test_phases": ("--test-phases", int, None),
    "realizations": ("--realizations", int, None),
    "num_symbols": ("--symbols", int, None),
    "seed": ("--seed", int, None),
    "r_max": ("--r-max", int, None),
    "trained_params_path": ("--trained-params", str, None),
    "phi0": ("--phi0", float, None),
}


def _add_config_arguments(parser):
    parser.add_argument("--config", type=str, help="JSON config file; flags override its fields")
    for flag, kind, nargs in _CONFIG_FLAGS.values():
        parser.add_argument(flag, type=kind, nargs=nargs)
    parser.add_argument("--exclude-edges", action="store_true", default=None)
    parser.add_argument("--full-sequence-bp", action="store_true", default=None)
    parser.add_argument("--random-phi0", action="store_true", default=None)


def _config_from_args(args) -> ExperimentConfig:
    doc = {}
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
    for field, (flag, _, _) in _CONFIG_FLAGS.items():
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if value is not None:
            doc[field] = value
    for field in ("exclude_edges", "full_sequence_bp", "random_phi0"):
        value = getattr(args, field)
        if value is not None:
            doc[field] = value
    return ExperimentConfig.from_dict(doc)


def _schedule_from_args(args) -> TrainSchedule:
    kwargs = {}
    for field in fields(TrainSchedule):
        value = getattr(args, f"sched_{field.name}", None)
        if value is not None:
            kwargs[field.name] = value
    return TrainSchedule(**kwargs)


def build_parser() -> _Parser:
    parser = _Parser(prog="wiener-cpe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a seeded BMI sweep")
    _add_config_arguments(sweep)
    sweep.add_argument("--out", type=str, required=True)
    sweep.add_argument("--workers", type=int, default=None)

    trainp = sub.add_parser("train", help="train softmin-BPS weights for one cell")
    _add_config_arguments(trainp)
    trainp.add_argument("--out", type=str, required=True)
    trainp.add_argument("--epochs", dest="sched_epochs", type=int)
    trainp.add_argument("--lr", dest="sched_lr", type=float)
    trainp.add_argument("--batches-start", dest="sched_batches_start", type=int)
    trainp.add_argument("--batches-end", dest="sched_batches_end", type=int)
    trainp.add_argument("--batch-symbols-start", dest="sched_batch_symbols_start", type=int)
    trainp.add_argument("--batch-symbols-end", dest="sched_batch_symbols_end", type=int)
    trainp.add_argument("--train-seed", dest="sched_seed", type=int)
    trainp.add_argument("--loss", choices=("bce", "phase_mse"), default="bce")
    trainp.add_argument("--heldout-realizations", type=int, default=0)

    evalp = sub.add_parser("eval", help="score bps and trained bps_opt on held-out seeds")
    _add_config_arguments(evalp)
    evalp.add_argument("--params", type=str, required=True)
    evalp.add_argument("--out", type=str, required=True)
    evalp.add_argument("--seed-offset", type=int, default=10_000)
    evalp.add_argument("--workers", type=int, default=None)

    plotp = sub.add_parser("plot-data", help="emit plot-ready CSVs from sweep results")
    plotp.add_argument("--results", type=str, required=True, help="sweep output directory")
    plotp.add_argument("--out", type=str, default=None)
    return parser


def _cmd_sweep(args) -> int:
    config = _config_from_args(args)
    run_sweep(config, args.out, workers=args.workers)
    return 0


def _cmd_train(args) -> int:
    config = _config_from_args(args)
    schedule = _schedule_from_args(args)
    run_train(
        config,
        schedule,
        args.out,
        loss_kind=args.loss,
        heldout_realizations=args.heldout_realizations,
    )
    return 0


def _cmd_eval(args) -> int:
    config = _config_from_args(args)
    evaluate_params(
        config, args.params, args.out, seed_offset=args.seed_offset, workers=args.workers
    )
    return 0


def _cmd_plot_data(args) -> int:
    results_dir = Path(args.results)
    meta_path = results_dir / "run_meta.json"
    if not meta_path.exists():
        raise ConfigError(f"no run_meta.json under {results_dir}")
    with open(meta_path) as fh:
        meta = json.load(fh)
    config = ExperimentConfig.from_dict(meta["config"])
    results = load_sweep(config, results_dir)
    emit_plot_data(results, config, args.out or results_dir / "plots")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "sweep": _cmd_sweep,
            "train": _cmd_train,
            "eval": _cmd_eval,
            "plot-data": _cmd_plot_data,
        }[args.command]
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
