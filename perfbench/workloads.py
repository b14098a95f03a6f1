"""The benchmark's workloads, their units of work, and the output check.

Every workload scores 64-QAM, Maxwell-Boltzmann shaped to H = 5.75 bit,
with half-window N = 32 at 20 dB. A sweep unit is one ``run_sweep`` call
with ``realizations=1`` and seed ``s + r``, which yields the same BMI as
realization r of a larger sweep with seed s. A training unit is one
seeded optimizer step: ``transmit``, the forward/backward pass and
``adam_step``, the body of ``train()``'s inner loop.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from wiener_cpe import experiments, training
from wiener_cpe.channel import ChannelParams, snr_to_noise_var, transmit
from wiener_cpe.constellation import build_qam, entropy_bits, shape_for_entropy
from wiener_cpe.estimators import BpsOptParams, EstimatorConfig, make_grid, min_distance_table
from wiener_cpe.experiments import ExperimentConfig, build_constellation, run_sweep
from wiener_cpe.metrics import bmi, llrs
from wiener_cpe.training import TrainSchedule, adam_init, adam_step, loss

from tracing import Recorder, instrument_sweep

ORDER = 64
TARGET_ENTROPY = 5.75
SNR_DB = 20.0
HALF_WINDOW = 32
QUICK_SWEEP_SYMBOLS = 2**12
QUICK_BATCH_SYMBOLS = 2**13
PROBE_SYMBOLS = 2**12

# Reference tolerances. BMI and loss are allowed float reassociation noise
# only; sigma_opt may move within a few tolerances of the 1e-4 search on
# log sigma^2, which a different (equally valid) line search would do.
BMI_TOL = 1e-8
LOG_SIGMA_TOL = 1e-3
LOSS_RTOL = 1e-8

ALGORITHM_LAYERS = ("bps", "cpn", "bps_opt", "map_bp", "map_bp_full")
ALGORITHMS = ("bps", "cpn", "bps_opt", "map_bp")


@dataclass(frozen=True)
class Workload:
    """``symbols`` is K per realization, or the batch size of a step.
    An empty ``algorithms`` tuple marks the training workload."""

    name: str
    num_test_phases: int
    sigma_theta_sq: float
    symbols: int
    algorithms: tuple[str, ...] = ()
    full_sequence_bp: bool = False

    @property
    def training(self) -> bool:
        return not self.algorithms

    def quick(self) -> "Workload":
        return replace(
            self, symbols=QUICK_BATCH_SYMBOLS if self.training else QUICK_SWEEP_SYMBOLS
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("m60_central", 60, 1.18e-4, 2**15, ("bps", "cpn", "map_bp")),
        Workload(
            "m15_fast_walk",
            15,
            1e-3,
            2**15,
            ("bps", "cpn", "bps_opt", "map_bp"),
            full_sequence_bp=True,
        ),
        Workload("train_m15", 15, 1.18e-4, 2**17),
    )
}


def sha256(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.float64).tobytes()).hexdigest()


def time_shaping(repeats: int, rec: Recorder) -> None:
    """Spans around the ``shape_for_entropy`` root search of set-up."""
    base = build_qam(ORDER)
    for _ in range(repeats):
        with rec.span("constellation.shape"):
            shape_for_entropy(base, TARGET_ENTROPY)


def _experiment_config(w: Workload) -> ExperimentConfig:
    return ExperimentConfig(
        order=ORDER,
        target_entropy=TARGET_ENTROPY,
        snr_db=(SNR_DB,),
        sigma_theta_sq=(w.sigma_theta_sq,),
        algorithms=w.algorithms or ("bps",),
        half_window=HALF_WINDOW,
        num_test_phases=w.num_test_phases,
        realizations=1,
        num_symbols=w.symbols,
        full_sequence_bp=w.full_sequence_bp,
    )


class SweepRunner:
    """One realization per unit, through the public ``run_sweep``."""

    root_span = "experiments.run_sweep"

    def __init__(self, workload: Workload, work_dir: Path, rec: Recorder):
        self.workload = workload
        self.config = _experiment_config(workload)
        self.entropy = entropy_bits(build_constellation(self.config).probs)
        self.symbols_per_unit = workload.symbols * len(workload.algorithms)
        self.work_dir = work_dir
        self.rec = rec

    def run(self, seed: int, advance: bool = True) -> tuple[float, dict]:
        """Time one realization; return (seconds, outputs per algorithm).
        Realizations are independent, so ``advance`` has no effect."""
        out_dir = Path(tempfile.mkdtemp(dir=self.work_dir))
        self.rec.begin_unit(seed)
        try:
            with instrument_sweep(experiments, self.rec):
                started = time.perf_counter()
                with self.rec.span(self.root_span):
                    cells = run_sweep(replace(self.config, seed=seed), out_dir, workers=1)
                elapsed = time.perf_counter() - started
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        outputs = {
            cell.algorithm: {
                "bmi": cell.bmi_values[0],
                "sigma_opt": cell.sigma_opt_values[0],
                "slips": cell.slip_counts[0],
                "sha256": sha256(self.rec.estimates[cell.algorithm]),
            }
            for cell in cells
        }
        return elapsed, outputs

    def probe(self) -> None:
        """Time one ``llrs`` + ``bmi`` evaluation at each algorithm's
        sigma_opt, outside the realization."""
        for x_hat, bits, constellation, sigma_opt in self.rec.demap_inputs:
            with self.rec.span("metrics.bmi_eval"):
                bmi(bits, llrs(x_hat, constellation, sigma_opt), constellation)

    def check(self, outputs: dict) -> str | None:
        """Invariants every realization must meet; None when it does."""
        for algo in self.workload.algorithms:
            out = outputs.get(algo)
            if out is None:
                return f"{algo}: no result"
            if not (math.isfinite(out["bmi"]) and 0.0 <= out["bmi"] <= self.entropy):
                return f"{algo}: BMI {out['bmi']!r} outside [0, {self.entropy}]"
            if not (math.isfinite(out["sigma_opt"]) and out["sigma_opt"] > 0.0):
                return f"{algo}: sigma_opt {out['sigma_opt']!r} not positive and finite"
        return None

    @staticmethod
    def compare(outputs: dict, ref: dict) -> tuple[str | None, int, int]:
        """Compare with a recorded unit: (error, identical hashes, hashes)."""
        identical = sum(a in outputs and outputs[a]["sha256"] == r["sha256"] for a, r in ref.items())
        return _sweep_mismatch(outputs, ref), identical, len(ref)


def _sweep_mismatch(outputs: dict, ref: dict) -> str | None:
    for algo, want in ref.items():
        got = outputs.get(algo)
        if got is None:
            return f"{algo}: missing against reference"
        if not abs(got["bmi"] - want["bmi"]) <= BMI_TOL:
            return f"{algo}: BMI {got['bmi']!r} != reference {want['bmi']!r}"
        if not abs(math.log(got["sigma_opt"] / want["sigma_opt"])) <= LOG_SIGMA_TOL:
            return f"{algo}: sigma_opt {got['sigma_opt']!r} != reference {want['sigma_opt']!r}"
    return None


class TrainRunner:
    """One optimizer step per unit, on a fresh seeded batch, continuing
    the same Adam trajectory from step to step."""

    root_span = "training.step"

    def __init__(self, workload: Workload, rec: Recorder):
        self.workload = workload
        self.constellation = build_constellation(_experiment_config(workload))
        self.entropy = entropy_bits(self.constellation.probs)
        noise_var = snr_to_noise_var(SNR_DB, self.constellation)
        self.cfg = EstimatorConfig(
            half_window=HALF_WINDOW,
            grid=make_grid(workload.num_test_phases, self.constellation.sym_order),
            sigma_n_sq=max(noise_var / 2.0, 1e-12),
            sigma_theta_sq=workload.sigma_theta_sq,
        )
        self.schedule = TrainSchedule()
        self.params = BpsOptParams.uniform(HALF_WINDOW)
        self.state = adam_init(
            np.concatenate([self.params.raw_weights, [self.params.raw_temp]]),
            beta1=self.schedule.adam_beta1,
            beta2=self.schedule.adam_beta2,
            eps=self.schedule.adam_eps,
        )
        self.symbols_per_unit = workload.symbols
        self.rec = rec
        self._batch = None
        self._probe_params = self.params

    def run(self, seed: int, advance: bool = True) -> tuple[float, dict]:
        """Time one step; return (seconds, outputs). With ``advance`` the
        updated parameters become the start of the next step."""
        rec = self.rec
        rec.begin_unit(seed)
        channel = ChannelParams(
            snr_db=SNR_DB,
            sigma_theta_sq=self.workload.sigma_theta_sq,
            num_symbols=self.workload.symbols,
            seed=seed,
        )
        started = time.perf_counter()
        with rec.span(self.root_span):
            with rec.span("channel.transmit"):
                batch = transmit(self.constellation, channel)
            with rec.span("training.grad"):
                value, g_w, g_t = training._forward_backward(
                    self.params, batch, self.cfg, self.constellation, want_grad=True
                )
            with rec.span("training.adam_step"):
                state = adam_step(self.state, np.concatenate([g_w, [g_t]]), self.schedule.lr)
            params = BpsOptParams.from_raw(state.params[:-1], state.params[-1])
        elapsed = time.perf_counter() - started
        self._batch, self._probe_params = batch, self.params
        if advance:
            self.params, self.state = params, state
        return elapsed, {"loss": value, "sha256": sha256(np.concatenate([g_w, [g_t]]))}

    def probe(self) -> None:
        """Time the forward-only loss and the min-distance table on the
        last step's batch and starting parameters, outside the step."""
        with self.rec.span("training.loss"):
            loss(self._probe_params, self._batch, self.cfg, self.constellation)
        with self.rec.span("estimators.min_table"):
            min_distance_table(self._batch.rx_symbols, self.cfg.grid, self.constellation)

    def check(self, outputs: dict) -> str | None:
        # the loss is the summed per-bit cross entropy in nats; its BMI
        # equivalent H - loss/ln 2 must lie in [0, H]
        value = outputs["loss"]
        if not (math.isfinite(value) and 0.0 <= value <= self.entropy * math.log(2.0)):
            return f"loss {value!r} outside [0, H ln 2]"
        return None

    @staticmethod
    def compare(outputs: dict, ref: dict) -> tuple[str | None, int, int]:
        identical = int(outputs["sha256"] == ref["sha256"])
        if not abs(outputs["loss"] - ref["loss"]) <= LOSS_RTOL * abs(ref["loss"]):
            return f"loss {outputs['loss']!r} != reference {ref['loss']!r}", identical, 1
        return None, identical, 1


def make_runner(workload: Workload, work_dir: Path, rec: Recorder):
    """A runner for the workload; sweeps write their output under ``work_dir``."""
    if workload.training:
        return TrainRunner(workload, rec)
    return SweepRunner(workload, work_dir, rec)


def probe_layers(workload: Workload, work_dir: Path, seed: int) -> Recorder:
    """Every layer once, traced on a recorder of its own, at PROBE_SYMBOLS
    with the workload's M and sigma_theta^2: a sweep with all four
    algorithms, one with full-sequence map_bp, and a training step. It
    gives a measured time to the layers the workload itself does not run."""
    rec = Recorder(tracing=True)
    base = replace(workload, symbols=PROBE_SYMBOLS)
    variants = (
        replace(base, algorithms=ALGORITHMS, full_sequence_bp=False),
        replace(base, algorithms=("map_bp",), full_sequence_bp=True),
        replace(base, algorithms=()),
    )
    for i, variant in enumerate(variants):
        runner = make_runner(variant, work_dir, rec)
        runner.run(seed + i)
        runner.probe()
    return rec
