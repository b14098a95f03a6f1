"""Record the sweep behaviour reference that ``tests/test_sweep_reference.py``
checks.

Runs four seeded one-realization sweeps of 64-QAM shaped to 5.75 bit with
N = 32 and 3500 symbols (four windowed-BP blocks) over 16/24 dB x
sigma_theta^2 1e-5/1e-3 and all four algorithms: M = 15 and M = 60, each
with windowed and with full-sequence BP. For each sweep it stores the
``realizations.csv`` text and the ``results.csv`` text without its
``config_hash`` column (which changes with every config field), plus the
``RESULTS_VERSION``, numpy version, BLAS build and SIMD extensions they ran
on. Run it with one BLAS thread, since log-marginals depend on the BLAS
thread count:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/record_sweep_reference.py

Re-record only in a change that says why its numbers moved.
"""

import argparse
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from wiener_cpe import ExperimentConfig, run_sweep
from wiener_cpe.experiments import RESULTS_VERSION

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


def record() -> dict:
    sweeps = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in sweep_configs().items():
            out_dir = Path(tmp) / name
            run_sweep(config, out_dir, workers=1)
            sweeps[name] = {
                "results": without_hash_column((out_dir / "results.csv").read_bytes().decode()),
                "realizations": (out_dir / "realizations.csv").read_bytes().decode(),
            }
    return {"results_version": RESULTS_VERSION, "build": build_info(), "sweeps": sweeps}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record(), indent=1) + "\n")


if __name__ == "__main__":
    main()
