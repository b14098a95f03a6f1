"""Reference implementations and shared inputs for the tests."""

import numpy as np
from scipy.special import logsumexp

from wiener_cpe import (
    EstimatorConfig,
    build_factor_tables,
    build_qam,
    maxwell_boltzmann_shape,
    shape_for_entropy,
)
from wiener_cpe.constellation import Constellation

_BRUTE_FORCE_LIMIT = 10_000_000
_SHAPING_END = {}


def shaped_qam(order: int, lam_fraction: float) -> Constellation:
    """Square QAM shaped with lam_fraction times the Maxwell-Boltzmann
    parameter that brings it to 2.5 bit (QPSK shaping is the identity)."""
    base = build_qam(order)
    if order not in _SHAPING_END:
        _SHAPING_END[order] = shape_for_entropy(base, 2.5)[1] if order > 4 else 1.0
    return maxwell_boltzmann_shape(base, lam_fraction * _SHAPING_END[order])


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
    tables = build_factor_tables(y_window, cfg, constellation)

    shape = (m,) * window
    log_w = np.zeros(shape)
    for pos in range(window):
        sh = [1] * window
        sh[pos] = m
        log_w = log_w + tables.r_table[pos].reshape(sh)
        if pos > 0:
            sh_q = [1] * window
            sh_q[pos - 1] = m
            sh_q[pos] = m
            log_w = log_w + tables.q_matrix.reshape(sh_q)
    center = window // 2
    other_axes = tuple(a for a in range(window) if a != center)
    log_marginal = logsumexp(log_w, axis=other_axes) if other_axes else log_w
    log_marginal = log_marginal - logsumexp(log_marginal)
    marginal = np.exp(log_marginal)
    return float(cfg.grid.phases[int(np.argmax(marginal))]), marginal
