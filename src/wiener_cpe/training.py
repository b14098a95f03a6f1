"""End-to-end learning of the softmin-BPS window weights and temperature.

The forward pipeline is: weighted-window distance sums -> softmin ->
complex-exponential phase readout -> sector-aligned derotation ->
circular-Gaussian demapper -> bit-level binary cross entropy (a BMI-aligned
loss; a periodic mean-squared phase error is available for ablation).
The gradient with respect to the raw (unconstrained) parameters is
reverse-mode differentiated by hand; no autodiff framework is involved.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, asdict, replace

import numpy as np
from scipy.special import expit

from .channel import ChannelParams, ChannelTrace, transmit
from .constellation import Constellation, entropy_bits
from .estimators import (
    BpsOptParams,
    EstimatorConfig,
    min_distance_table,
    softmin_readout,
    window_sums_weight_grad,
)
from .metrics import DEFAULT_CLAMP, AxisDemapper, bit_signs, softplus
from .postproc import cycle_slip_correct

_LN2 = math.log(2.0)
_CHUNK = 8192


@dataclass(frozen=True)
class TrainSchedule:
    """Optimizer schedule; batch count ramps linearly and batch size
    log2-linearly between the given endpoints over the epochs."""

    epochs: int = 100
    lr: float = 1e-3
    batches_start: int = 10
    batches_end: int = 100
    batch_symbols_start: int = 2**12
    batch_symbols_end: int = 2**17
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        for name in (
            "epochs",
            "batches_start",
            "batches_end",
            "batch_symbols_start",
            "batch_symbols_end",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.lr < 0:
            raise ValueError("lr must be nonnegative")

    def batches_for_epoch(self, epoch: int) -> int:
        frac = 0.0 if self.epochs == 1 else epoch / (self.epochs - 1)
        return int(round(self.batches_start + frac * (self.batches_end - self.batches_start)))

    def symbols_for_epoch(self, epoch: int) -> int:
        frac = 0.0 if self.epochs == 1 else epoch / (self.epochs - 1)
        log2_size = math.log2(self.batch_symbols_start) + frac * (
            math.log2(self.batch_symbols_end) - math.log2(self.batch_symbols_start)
        )
        return int(round(2.0**log2_size))


@dataclass(frozen=True)
class TrainReport:
    """Learned parameters plus per-epoch loss and validation-BMI curves."""

    params: BpsOptParams
    loss_curve: tuple[float, ...]
    val_bmi_curve: tuple[float, ...]
    schedule: TrainSchedule
    snr_db: float
    sigma_theta_sq: float
    half_window: int
    m_count: int
    diverged: bool = False


@dataclass(frozen=True)
class AdamState:
    params: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_init(params0, beta1=0.9, beta2=0.999, eps=1e-8) -> AdamState:
    params0 = np.asarray(params0, dtype=np.float64)
    return AdamState(
        params=params0.copy(),
        m=np.zeros_like(params0),
        v=np.zeros_like(params0),
        beta1=beta1,
        beta2=beta2,
        eps=eps,
    )


def adam_step(state: AdamState, grads, lr: float) -> AdamState:
    """Standard Adam update with bias correction; returns a new state."""
    grads = np.asarray(grads, dtype=np.float64)
    t = state.step_count + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    v = state.beta2 * state.v + (1.0 - state.beta2) * grads**2
    m_hat = m / (1.0 - state.beta1**t)
    v_hat = v / (1.0 - state.beta2**t)
    params = state.params - lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return replace(state, params=params, m=m, v=v, step_count=t)


def _forward_backward(
    params: BpsOptParams,
    trace: ChannelTrace,
    cfg: EstimatorConfig,
    constellation: Constellation,
    want_grad: bool,
    loss_kind: str = "bce",
    clamp: float = DEFAULT_CLAMP,
):
    y = trace.rx_symbols
    size = y.size
    if size < 2 * cfg.half_window + 1:
        raise ValueError("batch shorter than the estimation window")
    if loss_kind not in ("bce", "phase_mse"):
        raise ValueError(f"unknown loss kind {loss_kind!r}")

    n = cfg.grid.sym_order
    w = params.weights
    t = params.temperature

    fwd = softmin_readout(min_distance_table(y, cfg.grid, constellation), cfg.grid, params)
    # Data-aided removal of the n-fold ambiguity: the integer multiple of
    # 2*pi/n separating the raw estimate from the true phase is known from
    # the true path and treated as constant in the backward pass.
    phi_derot = cycle_slip_correct(fwd.estimates, trace.phase_path, n)[0]
    x_hat = y * np.exp(-1j * phi_derot)

    g_phi = np.zeros(size) if want_grad else None

    if loss_kind == "phase_mse":
        residual = phi_derot - trace.phase_path
        total_loss = float(residual @ residual) / size
        if want_grad:
            g_phi = 2.0 * residual / size
    else:
        sigma_sq = max(trace.sigma_n_sq, 1e-12)
        axes = constellation.axis_decomposition()
        total_loss = 0.0
        for start in range(0, size, _CHUNK):
            stop = min(start + _CHUNK, size)
            xc = x_hat[start:stop]
            demapper = AxisDemapper(xc, axes)
            llr = demapper.llrs(sigma_sq, clamp)
            sign = bit_signs(trace.bits[start:stop].T)
            total_loss += float(softplus(-sign * llr).sum())
            if want_grad:
                g_u, g_v = demapper.backward(-sign * expit(-sign * llr) / size)
                # d x_hat / d phi = -j x_hat
                g_phi[start:stop] = g_u * xc.imag - g_v * xc.real
        total_loss /= size

    if not math.isfinite(total_loss):
        raise FloatingPointError(f"non-finite training loss ({total_loss}) on seeded batch")
    if not want_grad:
        return total_loss, None, None

    collapsed = fwd.collapsed
    g_phi[collapsed] = 0.0
    re, im = fwd.readout_re, fwd.readout_im
    scale = g_phi / (n * np.where(collapsed, 1.0, re * re + im * im))
    g_re = -im * scale
    g_im = re * scale
    # d phi / d soft_m = g_re cos(n phi_m) + g_im sin(n phi_m). The softmax
    # backward subtracts sum_m soft_m (d phi / d soft_m) = Re(r) g_re +
    # Im(r) g_im = g_phi (-Im r Re r + Re r Im r) / (n |r|^2) = 0: the
    # normalisation only scales the readout r, which leaves arg(r) alone.
    g_arg = np.outer(fwd.phasors.real, g_re)
    g_arg += np.outer(fwd.phasors.imag, g_im)
    g_arg *= fwd.soft
    g_raw_temp = float(np.vdot(g_arg, fwd.weighted)) / t
    g_w = window_sums_weight_grad(fwd.padded, g_arg) / -t
    g_raw_weights = w * (g_w - float(g_w @ w))
    return total_loss, g_raw_weights, g_raw_temp


def loss(
    params: BpsOptParams,
    batch_trace: ChannelTrace,
    cfg: EstimatorConfig,
    constellation: Constellation,
    loss_kind: str = "bce",
    clamp: float = DEFAULT_CLAMP,
) -> float:
    """Training loss on one batch: mean (over symbols) of the summed per-bit
    binary cross entropies in nats, so an all-zero-LLR frame scores
    m*log(2). Differentiable in the raw parameters."""
    value, _, _ = _forward_backward(
        params, batch_trace, cfg, constellation, want_grad=False, loss_kind=loss_kind, clamp=clamp
    )
    return value


def grad(
    params: BpsOptParams,
    batch_trace: ChannelTrace,
    cfg: EstimatorConfig,
    constellation: Constellation,
    loss_kind: str = "bce",
    clamp: float = DEFAULT_CLAMP,
) -> tuple[np.ndarray, float]:
    """Exact reverse-mode gradient of ``loss`` w.r.t. (raw_weights, raw_temp).

    Piecewise-constant stages (sector alignment, LLR clamp, collapsed-readout
    fallback) contribute zero gradient, matching finite differences of the
    implemented forward almost everywhere.
    """
    _, g_w, g_t = _forward_backward(
        params, batch_trace, cfg, constellation, want_grad=True, loss_kind=loss_kind, clamp=clamp
    )
    return g_w, g_t


def _derived_seed(base_seed: int, key: tuple[int, ...]) -> int:
    return int(np.random.SeedSequence(entropy=base_seed, spawn_key=key).generate_state(1)[0])


def train(
    schedule: TrainSchedule,
    channel_params: ChannelParams,
    cfg: EstimatorConfig,
    constellation: Constellation,
    init_params: BpsOptParams | None = None,
    loss_kind: str = "bce",
    val_symbols: int = 4096,
) -> TrainReport:
    """Online training against the channel simulator.

    Every step draws a fresh seeded batch; batch count and size ramp per
    the schedule. Validation BMI per epoch is the BMI-equivalent of the
    training loss, H(X) - loss/ln(2), on one held-out trace. Deterministic
    for a fixed schedule seed. Aborts (returning the curves so far, flagged)
    if the loss turns non-finite.
    """
    params = init_params if init_params is not None else BpsOptParams.uniform(cfg.half_window)
    state = adam_init(
        np.concatenate([params.raw_weights, [params.raw_temp]]),
        beta1=schedule.adam_beta1,
        beta2=schedule.adam_beta2,
        eps=schedule.adam_eps,
    )
    val_trace = transmit(
        constellation,
        replace(
            channel_params,
            num_symbols=val_symbols,
            seed=_derived_seed(schedule.seed, (1, 0)),
        ),
    )
    entropy = entropy_bits(constellation.probs)

    loss_curve: list[float] = []
    val_bmi_curve: list[float] = []
    diverged = False
    for epoch in range(schedule.epochs):
        epoch_losses = []
        n_batches = schedule.batches_for_epoch(epoch)
        n_symbols = schedule.symbols_for_epoch(epoch)
        for batch in range(n_batches):
            batch_params = replace(
                channel_params,
                num_symbols=n_symbols,
                seed=_derived_seed(schedule.seed, (0, epoch, batch)),
            )
            trace = transmit(constellation, batch_params)
            try:
                value, g_w, g_t = _forward_backward(
                    params, trace, cfg, constellation, want_grad=True, loss_kind=loss_kind
                )
            except FloatingPointError:
                diverged = True
                break
            epoch_losses.append(value)
            state = adam_step(state, np.concatenate([g_w, [g_t]]), schedule.lr)
            params = BpsOptParams.from_raw(state.params[:-1], state.params[-1])
        if diverged:
            break
        loss_curve.append(float(np.mean(epoch_losses)))
        val_loss = loss(params, val_trace, cfg, constellation, loss_kind="bce")
        val_bmi_curve.append(entropy - val_loss / _LN2)

    return TrainReport(
        params=params,
        loss_curve=tuple(loss_curve),
        val_bmi_curve=tuple(val_bmi_curve),
        schedule=schedule,
        snr_db=channel_params.snr_db,
        sigma_theta_sq=channel_params.sigma_theta_sq,
        half_window=cfg.half_window,
        m_count=cfg.grid.m_count,
        diverged=diverged,
    )


def _params_doc(params: BpsOptParams) -> dict:
    return {
        "raw_weights": params.raw_weights.tolist(),
        "raw_temp": params.raw_temp,
        "weights": params.weights.tolist(),
        "temperature": params.temperature,
    }


def save_params(params: BpsOptParams, path) -> None:
    with open(path, "w") as fh:
        json.dump(_params_doc(params), fh, indent=2)


def load_params(path) -> BpsOptParams:
    with open(path) as fh:
        doc = json.load(fh)
    return BpsOptParams.from_raw(np.asarray(doc["raw_weights"]), float(doc["raw_temp"]))


def save_report(report: TrainReport, path) -> None:
    doc = {
        "params": _params_doc(report.params),
        "loss_curve": list(report.loss_curve),
        "val_bmi_curve": list(report.val_bmi_curve),
        "schedule": asdict(report.schedule),
        "snr_db": report.snr_db,
        "sigma_theta_sq": report.sigma_theta_sq,
        "half_window": report.half_window,
        "m_count": report.m_count,
        "diverged": report.diverged,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


def weights_to_csv(params: BpsOptParams, path) -> None:
    """Window weights as (offset from center, weight) rows."""
    half = (params.weights.size - 1) // 2
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["offset", "weight"])
        for j, weight in enumerate(params.weights):
            writer.writerow([j - half, f"{weight:.17g}"])
