"""Discrete Wiener phase-noise + AWGN channel: y_k = x_k e^{j phi_k} + n_k."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, sample


@dataclass(frozen=True)
class ChannelParams:
    """Parameters of one seeded channel realization.

    ``snr_db`` is Es/N0 in dB with Es = 1 by constellation normalization;
    ``math.inf`` switches the additive noise off. ``sigma_theta_sq`` is the
    variance in rad^2 of the per-symbol Gaussian phase increments. The
    initial phase is ``phi0``, or drawn uniformly from the symmetry sector
    [-pi/n, pi/n) when ``random_phi0`` is set.
    """

    snr_db: float
    sigma_theta_sq: float
    num_symbols: int
    seed: int
    phi0: float = 0.0
    random_phi0: bool = False

    def __post_init__(self):
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ValueError("snr_db must be finite or +inf")
        if not 0 <= self.sigma_theta_sq < math.inf:
            raise ValueError("sigma_theta_sq must be finite and nonnegative")
        if not math.isfinite(self.phi0):
            raise ValueError("phi0 must be finite")
        if self.num_symbols < 1:
            raise ValueError("num_symbols must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class ChannelTrace:
    """One realization: data, true phase path, and received symbols."""

    bits: np.ndarray
    tx_symbols: np.ndarray
    phase_path: np.ndarray
    rx_symbols: np.ndarray
    params: ChannelParams
    sigma_n_sq: float


def snr_to_noise_var(snr_db: float, constellation: Constellation) -> float:
    """Total complex noise variance for a given Es/N0 in dB.

    Per-component variance is half of this. Requires a unit-energy
    constellation so that Es = 1.
    """
    energy = float(np.sum(constellation.probs * np.abs(constellation.points) ** 2))
    if abs(energy - 1.0) > 1e-9:
        raise ValueError("constellation must have unit average energy")
    if math.isinf(snr_db) and snr_db > 0:
        return 0.0
    return float(10.0 ** (-snr_db / 10.0))


def phase_path(sigma_theta_sq: float, count: int, seed: int, phi0: float = 0.0) -> np.ndarray:
    """Gaussian random-walk phase; element 0 equals ``phi0`` exactly.

    Increments are i.i.d. N(0, sigma_theta_sq) drawn from numpy's PCG64
    ``Generator.normal`` (ziggurat). Cross-implementation agreement is
    statistical, not bit-exact.
    """
    if sigma_theta_sq < 0:
        raise ValueError("sigma_theta_sq must be nonnegative")
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    steps = rng.normal(0.0, math.sqrt(sigma_theta_sq), size=count - 1)
    return phi0 + np.concatenate([[0.0], np.cumsum(steps)])


def transmit(constellation: Constellation, params: ChannelParams) -> ChannelTrace:
    """Run one seeded channel realization.

    Data bits, the phase walk, and the additive noise use independent
    sub-streams derived from ``params.seed``, so all three vary together
    across realizations while staying reproducible.
    """
    ss = np.random.SeedSequence(params.seed)
    data_seed, phase_seed, noise_seed, phi0_seed = (
        int(s) for s in ss.generate_state(4, dtype=np.uint64)
    )
    bits, x = sample(constellation, params.num_symbols, data_seed)

    phi0 = params.phi0
    if params.random_phi0:
        sector = math.pi / constellation.sym_order
        phi0 = float(np.random.default_rng(phi0_seed).uniform(-sector, sector))
    phi = phase_path(params.sigma_theta_sq, params.num_symbols, phase_seed, phi0)

    sigma_n_sq = snr_to_noise_var(params.snr_db, constellation)
    y = x * np.exp(1j * phi)
    if sigma_n_sq > 0.0:
        rng = np.random.default_rng(noise_seed)
        noise = rng.standard_normal(params.num_symbols) + 1j * rng.standard_normal(
            params.num_symbols
        )
        y = y + math.sqrt(sigma_n_sq / 2.0) * noise
    return ChannelTrace(bits, x, phi, y, params, sigma_n_sq)

