"""Record the behaviour reference that ``tests/test_sweep_reference.py``
checks.

Runs four seeded one-realization sweeps of 64-QAM shaped to 5.75 bit with
N = 32 and 3500 symbols (four windowed-BP blocks) over 16/24 dB x
sigma_theta^2 1e-5/1e-3 and all four algorithms: M = 15 and M = 60, each
with windowed and with full-sequence BP. For each sweep it stores the
``realizations.csv`` text, the ``results.csv`` text without its
``config_hash`` column (which changes with every config field), the text of
each ``plots/bmi_vs_snr_*.csv`` that ``emit_plot_data`` writes, and the
sha256 of each algorithm's raw estimates, taken by wrapping the four
estimator names that ``experiments`` calls. It also stores the sha256 of
each frame's BP log-marginals, taken by wrapping
``estimators._chain_log_marginals_windowed`` and
``_chain_log_marginals_full``: a constant can move log-marginals without
moving any argmax. It runs one seeded ``run_train`` (16-QAM, one epoch of
one 256-symbol batch) and stores the text of its ``params.json``,
``report.json`` and ``weights.csv``, and ``training.grad`` at that batch's
starting parameters (each entry printed with 17 significant digits, and
the sha256 of the float64 vector): one Adam step keeps little more of the
gradient than its sign. During that ``grad`` call it also wraps
``metrics.AxisDemapper.cross_entropy_grad`` and stores the sha256 of each
demapper block's per-symbol derivatives (g_u, g_v): a last-bit change there
can leave every entry of the summed gradient as it was. Each
record carries the ``RESULTS_VERSION``, numpy version, BLAS build and SIMD
extensions it ran on. Run it with one BLAS thread, since log-marginals
depend on the BLAS thread count:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/record_sweep_reference.py

Re-record only in a change that says why its numbers moved.
"""

import argparse
import contextlib
import hashlib
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from wiener_cpe import (
    ExperimentConfig,
    emit_plot_data,
    estimators,
    experiments,
    metrics,
    run_sweep,
    run_train,
    training,
)
from wiener_cpe.experiments import RESULTS_VERSION
from wiener_cpe.training import TrainSchedule

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = ROOT / "tests" / "data" / "sweep_reference.json"

BASE = ExperimentConfig(
    order=64,
    target_entropy=5.75,
    snr_db=(16.0, 24.0),
    sigma_theta_sq=(1e-5, 1e-3),
    algorithms=("bps", "cpn", "map_bp", "bps_opt"),
    half_window=32,
    realizations=1,
    num_symbols=3500,
    seed=3,
)

TRAIN_CONFIG = ExperimentConfig(
    order=16,
    target_entropy=3.5,
    snr_db=(15.0,),
    sigma_theta_sq=(1e-4,),
    half_window=4,
    num_test_phases=8,
    realizations=1,
    num_symbols=256,
    seed=1,
)
TRAIN_SCHEDULE = TrainSchedule(
    epochs=1, batches_start=1, batches_end=1, batch_symbols_start=256,
    batch_symbols_end=256, seed=3,
)

ESTIMATORS = {
    "bps_estimate": "bps",
    "cpn_estimate": "cpn",
    "map_bp_estimate": "map_bp",
    "bps_opt_estimate": "bps_opt",
}
CHAINS = ("_chain_log_marginals_windowed", "_chain_log_marginals_full")


def sweep_configs() -> dict:
    configs = {}
    for m_count in (15, 60):
        windowed = replace(BASE, num_test_phases=m_count)
        configs[f"m{m_count}_windowed"] = windowed
        configs[f"m{m_count}_full_sequence_bp"] = replace(windowed, full_sequence_bp=True)
    return configs


def build_info() -> dict:
    """The numpy build the CSV bits depend on: its version, its BLAS and
    the SIMD extensions its kernels dispatch to on this CPU."""
    try:
        show = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 only prints its config
        show = {}
    blas = show.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "simd": show.get("SIMD Extensions", {}).get("found"),
    }


def without_hash_column(text: str) -> str:
    return "".join(line.split(",", 1)[1] for line in text.splitlines(keepends=True))


def text(path: Path) -> str:
    return path.read_bytes().decode()


def sha256(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.float64).tobytes()).hexdigest()


@contextlib.contextmanager
def wrapped(module, names, record):
    """Route each of ``names`` in ``module`` (or a class, whose methods
    then get ``self`` first) through ``record(name, out)`` for the duration
    of the block."""

    def wrap(name, fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            record(name, out)
            return out

        return call

    saved = {name: getattr(module, name) for name in names}
    for name, fn in saved.items():
        setattr(module, name, wrap(name, fn))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


def hashed_sweep(config: ExperimentConfig, out_dir: Path) -> tuple[dict, list]:
    """Run one sweep on one worker with the estimators and BP chains
    wrapped. Returns the sha256 of each algorithm's raw estimates in call
    order, and the sha256 of each frame's log-marginals."""
    digests = {algo: hashlib.sha256() for algo in ESTIMATORS.values()}
    frames = []

    def on_estimate(name, out):
        digests[ESTIMATORS[name]].update(np.ascontiguousarray(out, dtype=np.float64).tobytes())

    with (
        wrapped(experiments, ESTIMATORS, on_estimate),
        wrapped(estimators, CHAINS, lambda name, out: frames.append(sha256(out))),
    ):
        results = run_sweep(config, out_dir, workers=1)
    emit_plot_data(results, config, out_dir / "plots")
    return {algo: digests[algo].hexdigest() for algo in config.algorithms}, frames


def trained(model: Path) -> tuple[dict, list]:
    """Run the reference training into ``model``. Returns ``grad`` at its
    first batch and starting parameters, and the sha256 of each demapper
    block's (g_u, g_v) in that ``grad`` call."""
    batches = []
    forward_backward = training._forward_backward

    def recording(params, trace, cfg, constellation, want_grad, *args, **kwargs):
        if want_grad and not batches:
            batches.append((params, trace, cfg, constellation))
        return forward_backward(params, trace, cfg, constellation, want_grad, *args, **kwargs)

    training._forward_backward = recording
    try:
        run_train(TRAIN_CONFIG, TRAIN_SCHEDULE, model)
    finally:
        training._forward_backward = forward_backward
    blocks = []
    with wrapped(
        metrics.AxisDemapper,
        ["cross_entropy_grad"],
        lambda name, out: blocks.append(sha256(np.concatenate(out[1:]))),
    ):
        g_w, g_t = training.grad(*batches[0])
    gradient = np.concatenate([g_w, [g_t]])
    return {"values": [format(v, ".17g") for v in gradient], "sha256": sha256(gradient)}, blocks


def record() -> dict:
    sweeps, estimates, log_marginals = {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in sweep_configs().items():
            out_dir = Path(tmp) / name
            estimates[name], log_marginals[name] = hashed_sweep(config, out_dir)
            sweeps[name] = {
                "results": without_hash_column(text(out_dir / "results.csv")),
                "realizations": text(out_dir / "realizations.csv"),
            }
            for plot in sorted((out_dir / "plots").glob("bmi_vs_snr_*.csv")):
                sweeps[name][f"plots/{plot.stem}"] = text(plot)
        model = Path(tmp) / "model"
        gradient, demapper_grads = trained(model)
        train = {name: text(model / name) for name in ("params.json", "report.json", "weights.csv")}
    return {
        "results_version": RESULTS_VERSION,
        "build": build_info(),
        "sweeps": sweeps,
        "estimates_sha256": estimates,
        "log_marginals_sha256": log_marginals,
        "demapper_grad_sha256": demapper_grads,
        "train": train,
        "train_grad": gradient,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record(), indent=1) + "\n")


if __name__ == "__main__":
    main()
