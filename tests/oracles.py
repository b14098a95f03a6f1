"""Reference implementations and shared inputs for the tests."""

import dataclasses
import json
import math

import numpy as np
from scipy.special import expit, logsumexp

from wiener_cpe import (
    BpsOptParams,
    EstimatorConfig,
    build_qam,
    maxwell_boltzmann_shape,
    min_distance_table,
    q_matrix,
    shape_for_entropy,
)
from wiener_cpe.channel import ChannelTrace
from wiener_cpe.constellation import Constellation, entropy_bits
from wiener_cpe import metrics
from wiener_cpe.estimators import _DEGENERATE_Q_FLOOR, PhaseGrid, _distance_tables
from wiener_cpe.metrics import (
    DEMAP_CHUNK,
    LLR_CLAMP,
    SIGMA_SQ_RANGE,
    AxisDemapper,
    BmiReport,
    _brent_max,
    bit_signs,
    softplus,
)
from wiener_cpe.numerics import softmax, wrap_sector

_BRUTE_FORCE_LIMIT = 10_000_000
_SHAPING_END = {}


def shaped_qam(order: int, lam_fraction: float) -> Constellation:
    """Square QAM shaped with lam_fraction times the Maxwell-Boltzmann
    parameter that brings it to 2.5 bit (QPSK shaping is the identity)."""
    base = build_qam(order)
    if order not in _SHAPING_END:
        _SHAPING_END[order] = shape_for_entropy(base, 2.5)[1] if order > 4 else 1.0
    return maxwell_boltzmann_shape(base, lam_fraction * _SHAPING_END[order])


def r_table(y, grid: PhaseGrid, constellation: Constellation, sigma_n_sq: float) -> np.ndarray:
    """Log emission factors log sum_x P(x) exp(-|y_k - x e^{j phi_m}|^2 / (2 sigma_n^2)):
    the (K, M) log R table of ``_distance_tables`` alone."""
    return _distance_tables(y, grid, constellation, sigma_n_sq, want_min=False, want_log_r=True)[1]


def build_factor_tables(y, cfg: EstimatorConfig, constellation: Constellation):
    """The (log R, log Q) pair ``map_bp_estimate`` decides on, built from
    ``y`` with ``cfg``'s grid and noise parameters."""
    log_r = r_table(y, cfg.grid, constellation, cfg.sigma_n_sq)
    return log_r, q_matrix(cfg.grid, cfg.sigma_theta_sq)


def scipy_q_matrix(grid: PhaseGrid, sigma_theta_sq: float, r_max: int = 3) -> np.ndarray:
    """``q_matrix`` computed with scipy.special.logsumexp, the expression
    the package used before it carried its own logsumexp."""
    var = max(sigma_theta_sq, _DEGENERATE_Q_FLOOR)
    n = grid.sym_order
    period = 2.0 * np.pi / n
    r_eff = max(r_max, int(math.ceil(5.0 * math.sqrt(var) * n / (2.0 * np.pi))))
    shifts = period * np.arange(-r_eff, r_eff + 1)
    diff = grid.phases[:, None] - grid.phases[None, :]
    log_terms = -((diff[:, :, None] + shifts[None, None, :]) ** 2) / (2.0 * var)
    logq = logsumexp(log_terms, axis=2)
    return logq - logsumexp(logq, axis=1, keepdims=True)


def brute_force_map(y_window, cfg: EstimatorConfig, constellation: Constellation):
    """Exact center marginal by direct enumeration over grid^(2N+1).

    Refuses when M^(2N+1) exceeds 10^7. Returns the argmax phase and the
    normalized probability marginal of the center variable.
    """
    y_window = np.asarray(y_window, dtype=np.complex128)
    window = 2 * cfg.half_window + 1
    if y_window.size != window:
        raise ValueError(f"window must contain exactly {window} symbols")
    m = cfg.grid.m_count
    if m**window > _BRUTE_FORCE_LIMIT:
        raise ValueError("enumeration size guard exceeded")
    log_r, log_q = build_factor_tables(y_window, cfg, constellation)

    shape = (m,) * window
    log_w = np.zeros(shape)
    for pos in range(window):
        sh = [1] * window
        sh[pos] = m
        log_w = log_w + log_r[pos].reshape(sh)
        if pos > 0:
            sh_q = [1] * window
            sh_q[pos - 1] = m
            sh_q[pos] = m
            log_w = log_w + log_q.reshape(sh_q)
    center = window // 2
    other_axes = tuple(a for a in range(window) if a != center)
    log_marginal = logsumexp(log_w, axis=other_axes) if other_axes else log_w
    log_marginal = log_marginal - logsumexp(log_marginal)
    marginal = np.exp(log_marginal)
    return float(cfg.grid.phases[int(np.argmax(marginal))]), marginal


def gather_windowed_sum(table: np.ndarray, half_window: int) -> np.ndarray:
    """Sliding-window column sums with windows truncated at the edges, as
    one fancy-index gather of the cumulative sums for every row."""
    size = table.shape[0]
    padded = np.vstack([np.zeros((1, table.shape[1])), np.cumsum(table, axis=0)])
    k = np.arange(size)
    hi = np.minimum(k + half_window, size - 1)
    lo = np.maximum(k - half_window, 0)
    return padded[hi + 1] - padded[lo]


_MESSAGE_FLOOR = 1e-300


def propagate_rows(messages, r_lin_block, q_lin, log_r_block):
    """One sum-product step on (n, M) row messages, as the estimators ran it
    before messages became columns: multiply in the emission, renormalize
    each row by its peak, push through the transition matrix. Rows whose
    linear product underflows entirely are recomputed through the log
    domain."""
    v = messages * r_lin_block
    peak = v.max(axis=1, keepdims=True)
    dead = peak[:, 0] < _MESSAGE_FLOOR
    if np.any(dead):
        with np.errstate(divide="ignore"):
            b = np.log(messages[dead]) + log_r_block[dead]
        v[dead] = np.exp(b - b.max(axis=1, keepdims=True))
        peak[dead] = 1.0
    return (v / peak) @ q_lin


def windowed_log_marginals(log_r, log_q, half_window):
    """Reference windowed BP: one pass of row messages over the whole
    sequence, with the transition matrix exponentiated as is (subnormal
    entries kept)."""
    size, _ = log_r.shape
    q_lin = np.exp(log_q)
    r_lin = np.exp(log_r - log_r.max(axis=1, keepdims=True))
    fwd = np.ones_like(log_r)
    bwd = np.ones_like(log_r)
    for s in range(half_window, 0, -1):
        head = slice(0, size - s)
        fwd[s:] = propagate_rows(fwd[s:], r_lin[head], q_lin, log_r[head])
        bwd[head] = propagate_rows(bwd[head], r_lin[s:], q_lin, log_r[s:])
    with np.errstate(divide="ignore"):
        return np.log(fwd) + log_r + np.log(bwd)


def row_loop_messages(log_r, q_lin):
    """Reference forward messages of full-sequence BP in linear arithmetic:
    messages[0] = 1 and each later row one one-row ``propagate_rows`` step
    from the row before, with the given linear transition matrix."""
    r_lin = np.exp(log_r - log_r.max(axis=1, keepdims=True))
    messages = np.ones_like(log_r)
    for k in range(1, len(messages)):
        messages[k] = propagate_rows(
            messages[k - 1 : k], r_lin[k - 1 : k], q_lin, log_r[k - 1 : k]
        )[0]
    return messages


def full_log_marginals_rows(log_r, q_lin):
    """Reference full-sequence BP in linear arithmetic: ``row_loop_messages``
    forward, and on the reversed frame backward."""
    fwd = row_loop_messages(log_r, q_lin)
    bwd = row_loop_messages(log_r[::-1], q_lin)[::-1]
    with np.errstate(divide="ignore"):
        return np.log(fwd) + log_r + np.log(bwd)


def full_log_marginals_logdomain(log_r, log_q):
    """Reference full-sequence BP entirely in the log domain: each message
    entry is a logsumexp over the previous message, emission and log
    transition, with no renormalization, so no entry can underflow."""
    size, _ = log_r.shape
    fwd = np.zeros_like(log_r)
    bwd = np.zeros_like(log_r)
    for k in range(1, size):
        fwd[k] = logsumexp((fwd[k - 1] + log_r[k - 1])[:, None] + log_q, axis=0)
    for k in range(size - 2, -1, -1):
        bwd[k] = logsumexp((bwd[k + 1] + log_r[k + 1])[:, None] + log_q, axis=0)
    return fwd + log_r + bwd


def assert_same_decisions(reference, candidate, mode: str, delta: float) -> int:
    """Require equal per-row decisions wherever the reference is decisive.

    ``reference`` and ``candidate`` are (K, M) statistics whose decision per
    row is the ``mode`` ("argmax" or "argmin") over M. If the candidate
    differs from the reference by at most ``delta`` per entry (up to a
    constant per row), a row whose reference top-two gap exceeds 2 delta
    cannot change its decision, so every such row must agree. Returns, and
    prints, the number of rows inside that band, which are not checked.
    """
    if mode not in ("argmax", "argmin"):
        raise ValueError("mode must be 'argmax' or 'argmin'")
    sign = 1.0 if mode == "argmax" else -1.0
    reference = sign * np.asarray(reference, dtype=np.float64)
    candidate = sign * np.asarray(candidate, dtype=np.float64)
    if reference.shape != candidate.shape or reference.ndim != 2:
        raise ValueError("statistics must be (K, M) arrays of one shape")
    top_two = np.partition(reference, -2, axis=1)[:, -2:]
    decisive = top_two[:, 1] - top_two[:, 0] > 2.0 * delta
    ref_pick = np.argmax(reference, axis=1)
    got_pick = np.argmax(candidate, axis=1)
    wrong = np.flatnonzero(decisive & (ref_pick != got_pick))
    in_band = int(np.count_nonzero(~decisive))
    print(f"decision margin: {in_band} of {len(reference)} rows within 2*delta = {2.0 * delta:.3g}")
    assert wrong.size == 0, (
        f"{wrong.size} decisive rows changed their {mode}, first at rows {wrong[:10].tolist()}"
    )
    return in_band


def bmi_report_to_json(report: BmiReport) -> str:
    """The report's fields as one JSON object."""
    return json.dumps(dataclasses.asdict(report))


def bmi_report_from_json(text: str) -> BmiReport:
    """The inverse of ``bmi_report_to_json``."""
    return BmiReport(**json.loads(text))


def unfloored_axis_llrs(x_hat, constellation: Constellation, sigma_sq: float, clamp: float):
    """(m, K) per-axis LLRs in the arithmetic of ``AxisDemapper.llrs`` before
    its log-weights were floored: every weight is exp(log-weight - peak),
    however far it underflows."""
    x_hat = np.asarray(x_hat, dtype=np.complex128)
    axes = constellation.axis_decomposition()
    raw = np.empty((constellation.bits_per_symbol, x_hat.size))
    for coord, levels, log_prior, level_bits, cols in zip(
        (x_hat.real, x_hat.imag), axes.levels, axes.log_priors, axes.level_bits, axes.bit_columns
    ):
        selector = np.zeros((2 * level_bits.shape[1], level_bits.shape[0]))
        selector[0::2] = (level_bits == 0).T
        selector[1::2] = (level_bits == 1).T
        weights = np.square(coord[None, :] - levels[:, None]) * (-1.0 / sigma_sq)
        weights += log_prior[:, None]
        weights -= weights.max(axis=0)
        with np.errstate(divide="ignore"):
            log_sums = np.log(selector @ np.exp(weights))
        raw[cols] = log_sums[0::2] - log_sums[1::2]
    return np.clip(raw, -clamp, clamp)


def kernel_llrs(demapper: AxisDemapper, sigma_sq: float, clamp: float) -> np.ndarray:
    """``demapper.llrs`` clipped to +-clamp. The kernel has already clipped
    them to +-``metrics.LLR_CLAMP``, so clamp may not exceed it; a test of
    a smaller clamp sets ``metrics.LLR_CLAMP`` to it."""
    assert clamp <= metrics.LLR_CLAMP
    return np.clip(demapper.llrs(sigma_sq), -clamp, clamp)


def llr_penalty(demapper: AxisDemapper, bits, sigma_sq: float, clamp: float) -> float:
    """Summed per-bit cross entropy in nats in the LLR arithmetic that the
    cross-entropy kernel replaced: clamped ``AxisDemapper.llrs`` times the
    negated bit signs, softplus, and one sum."""
    llr = kernel_llrs(demapper, sigma_sq, clamp)
    return float(softplus(llr * -bit_signs(np.asarray(bits)).T).sum())


def llr_variance_search(x_hat, bits, constellation: Constellation, clamp: float = LLR_CLAMP):
    """(sigma_opt, BMI clamped into [0, H]) of the demapper-variance search
    scored with ``llr_penalty`` on the whole frame as one block: the
    geometric-mean variance for a frame of identical symbols, the flat-top
    check at sigma^2 = 1e-6 (every LLR at the clamp with the correct sign),
    else bounded Brent on log sigma^2 with tolerance 1e-4."""
    x_hat = np.asarray(x_hat, dtype=np.complex128)
    demapper = AxisDemapper(x_hat, constellation.axis_decomposition())
    entropy = entropy_bits(constellation.probs)
    scale = 1.0 / (x_hat.size * math.log(2.0))

    def score(log_sigma_sq):
        return entropy - llr_penalty(demapper, bits, math.exp(log_sigma_sq), clamp) * scale

    lo, hi = math.log(SIGMA_SQ_RANGE[0]), math.log(SIGMA_SQ_RANGE[1])
    if np.all(x_hat == x_hat[0]):
        sigma_sq = math.sqrt(SIGMA_SQ_RANGE[0] * SIGMA_SQ_RANGE[1])
        best = score(math.log(sigma_sq))
    elif np.all(
        kernel_llrs(demapper, SIGMA_SQ_RANGE[0], clamp) * bit_signs(np.asarray(bits)).T == clamp
    ):
        sigma_sq, best = SIGMA_SQ_RANGE[0], score(lo)
    else:
        log_best, best = _brent_max(score, lo, hi, tol=1e-4)
        sigma_sq = math.exp(log_best)
    return sigma_sq, min(max(best, 0.0), entropy)


def llr_cross_entropy_grad(x_hat, bits, constellation: Constellation, sigma_sq, clamp):
    """(summed cross entropy, its derivatives in Re x_hat and Im x_hat) of a
    block in the LLR arithmetic that the training loss used before the
    cross-entropy kernel: softplus(-s L) summed as in ``llr_penalty``,
    d softplus(-s L) / dL = -s expit(-s L), and the chain rule through both
    class sums of every LLR (the former ``AxisDemapper.backward``). A
    clamped LLR passes no gradient."""
    x_hat = np.asarray(x_hat, dtype=np.complex128)
    axes = constellation.axis_decomposition()
    demapper = AxisDemapper(x_hat, axes)
    sign = bit_signs(np.asarray(bits)).T
    llr = kernel_llrs(demapper, sigma_sq, clamp)
    total = float(softplus(-sign * llr).sum())
    g_llr = -sign * expit(-sign * llr)
    grads = []
    for axis, (cols, levels) in enumerate(zip(axes.bit_columns, axes.levels)):
        weights = demapper._weights[axis]
        sums = demapper._selectors[axis] @ weights
        with np.errstate(divide="ignore"):
            log_sums = np.log(sums)
        raw = log_sums[0::2] - log_sums[1::2]
        g = np.where(np.abs(raw) <= clamp, g_llr[cols], 0.0)  # +-inf is saturated too
        coef = np.empty_like(sums)
        coef[0::2] = g
        coef[1::2] = -g
        np.divide(coef, sums, out=coef, where=coef != 0.0)
        d_metric = weights * (demapper._selectors[axis].T @ coef)
        coord = (x_hat.real, x_hat.imag)[axis]
        d_metric *= coord[None, :] - levels[:, None]
        grads.append(d_metric.sum(axis=0) * (-2.0 / sigma_sq))
    return total, grads[0], grads[1]


def softmin(x, t: float) -> np.ndarray:
    """exp(-x_i/t) / sum_j exp(-x_j/t), stabilized by subtracting the minimum."""
    if t <= 0:
        raise ValueError("temperature must be positive")
    x = np.asarray(x, dtype=np.float64)
    z = np.exp(-(x - x.min(axis=-1, keepdims=True)) / t)
    return z / z.sum(axis=-1, keepdims=True)


def _window_views(table: np.ndarray, half: int) -> np.ndarray:
    pad = np.zeros((half, table.shape[1]))
    padded = np.concatenate([pad, table, pad], axis=0)
    return np.lib.stride_tricks.sliding_window_view(padded, 2 * half + 1, axis=0)


def weighted_window_sums(table: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """D[k, m] = sum_j w_j table[k - N + j, m], zero-padded at the edges, as
    one einsum over the (K, M, 2N+1) windows of the (K, M) table."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.size % 2 == 0:
        raise ValueError("window length must be odd (2N+1)")
    windows = _window_views(table, (weights.size - 1) // 2)
    return np.einsum("kmj,j->km", windows, weights)


def window_weight_grad(table: np.ndarray, grad: np.ndarray, half: int) -> np.ndarray:
    """Adjoint of ``weighted_window_sums`` in the weights, for a (K, M)
    table and a (K, M) gradient of D: sum_{k,m} grad[k, m] table[k - N + j, m]."""
    return np.einsum("km,kmj->j", grad, _window_views(table, half))


def einsum_softmin_forward(d_table, grid, params: BpsOptParams):
    """(weighted, soft, phasors, readout, collapsed, estimates) of the
    weighted-softmin BPS forward pass on the (K, M) distance table: einsum
    window sums, a softmax along each row and a complex readout."""
    n = grid.sym_order
    weighted = weighted_window_sums(d_table, params.weights)
    soft = softmax(-weighted / params.temperature, axis=1)
    phasors = np.exp(1j * n * grid.phases)
    readout = soft @ phasors
    collapsed = np.abs(readout) < 1e-12
    estimates = wrap_sector(np.angle(readout) / n, n)
    estimates[collapsed] = grid.phases[np.argmin(weighted[collapsed], axis=1)]
    return weighted, soft, phasors, readout, collapsed, estimates


def einsum_training_grad(
    params: BpsOptParams,
    trace: ChannelTrace,
    cfg: EstimatorConfig,
    constellation: Constellation,
    clamp: float = LLR_CLAMP,
    chunk: int = DEMAP_CHUNK,
):
    """(loss, raw weight gradient, raw temperature gradient) of the bce
    training loss, computed on the (K, M) distance table with
    ``einsum_softmin_forward``, an einsum weight gradient, and the softmax
    backward with its row-sum term kept."""
    y = trace.rx_symbols
    size = y.size
    n = cfg.grid.sym_order
    w, t = params.weights, params.temperature
    d = min_distance_table(y, cfg.grid, constellation)
    weighted, soft, phasors, readout, collapsed, phi_hat = einsum_softmin_forward(
        d, cfg.grid, params
    )
    period = 2.0 * np.pi / n
    phi_derot = phi_hat - np.rint((phi_hat - trace.phase_path) / period) * period
    x_hat = y * np.exp(-1j * phi_derot)

    sigma_sq = max(trace.sigma_n_sq, 1e-12)
    total_loss = 0.0
    g_phi = np.zeros(size)
    for start in range(0, size, chunk):
        stop = min(start + chunk, size)
        xc = x_hat[start:stop]
        part, g_u, g_v = llr_cross_entropy_grad(
            xc, trace.bits[start:stop], constellation, sigma_sq, clamp
        )
        total_loss += part
        g_phi[start:stop] = (g_u * xc.imag - g_v * xc.real) / size

    g_phi[collapsed] = 0.0
    safe = np.where(collapsed, 1.0, np.abs(readout) ** 2)
    g_re = g_phi * (-readout.imag) / (n * safe)
    g_im = g_phi * readout.real / (n * safe)
    g_soft = np.outer(g_re, phasors.real) + np.outer(g_im, phasors.imag)
    g_arg = soft * (g_soft - (g_soft * soft).sum(axis=1, keepdims=True))
    g_w = window_weight_grad(d, -g_arg / t, cfg.half_window)
    g_raw_temp = float((g_arg * weighted).sum() / t)
    return total_loss / size, w * (g_w - float(g_w @ w)), g_raw_temp
