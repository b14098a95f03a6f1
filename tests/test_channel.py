"""Wiener phase-noise + AWGN channel model."""

import math

import numpy as np
import pytest
from scipy import stats

from wiener_cpe import ChannelParams, phase_path, snr_to_noise_var, transmit


class TestPhasePath:
    def test_zero_variance_constant_path(self):
        path = phase_path(0.0, 100, seed=1, phi0=0.4)
        np.testing.assert_array_equal(path, np.full(100, 0.4))

    def test_initial_value_exact(self):
        path = phase_path(1e-3, 10, seed=2, phi0=-0.7)
        assert path[0] == -0.7

    def test_increment_variance_matches_parameter(self):
        # sample variance of 10^6 - 1 increments has relative sd ~0.14%
        path = phase_path(1.18e-4, 10**6, seed=11)
        increments = np.diff(path)
        assert abs(increments.var() / 1.18e-4 - 1.0) < 0.01

    def test_random_walk_variance_over_realizations(self):
        # Monte-Carlo oracle: end-to-end variance of the walk equals the
        # number of increments times the step variance
        k = 2**15
        sigma_sq = 1.18e-4
        ends = np.array([phase_path(sigma_sq, k, seed=8000 + r)[-1] for r in range(100)])
        assert abs(ends.var() / ((k - 1) * sigma_sq) - 1.0) < 0.05

    def test_increment_normality(self):
        increments = np.diff(phase_path(1e-3, 10**6, seed=21))
        n = increments.size
        # skewness and excess kurtosis of N samples have sd sqrt(6/N), sqrt(24/N)
        assert abs(stats.skew(increments)) < 3 * math.sqrt(6 / n)
        assert abs(stats.kurtosis(increments)) < 3 * math.sqrt(24 / n)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            phase_path(-1e-6, 10, seed=0)


class TestSnrMapping:
    @pytest.mark.parametrize("snr_db,expected", [(0.0, 1.0), (10.0, 0.1), (20.0, 0.01)])
    def test_values(self, qam64, snr_db, expected):
        assert snr_to_noise_var(snr_db, qam64) == pytest.approx(expected, rel=1e-12)

    def test_infinite_snr_disables_noise(self, qam64):
        assert snr_to_noise_var(math.inf, qam64) == 0.0

    def test_requires_unit_energy(self, qam64):
        from wiener_cpe import Constellation

        bad = object.__new__(Constellation)
        object.__setattr__(bad, "points", qam64.points * 1.5)
        object.__setattr__(bad, "probs", qam64.probs)
        with pytest.raises(ValueError):
            snr_to_noise_var(10.0, bad)


class TestTransmit:
    def test_noiseless_static_channel_is_identity(self, shaped64):
        params = ChannelParams(
            snr_db=math.inf, sigma_theta_sq=0.0, num_symbols=512, seed=3, phi0=0.0
        )
        trace = transmit(shaped64, params)
        np.testing.assert_array_equal(trace.rx_symbols, trace.tx_symbols)
        assert trace.sigma_n_sq == 0.0

    def test_constant_phase_recoverable_by_moment_estimator(self, shaped64):
        params = ChannelParams(
            snr_db=20.0, sigma_theta_sq=0.0, num_symbols=2**15, seed=4, phi0=0.3
        )
        trace = transmit(shaped64, params)
        rotation = np.mean(trace.rx_symbols * np.conj(trace.tx_symbols) / np.abs(trace.tx_symbols) ** 2)
        assert abs(np.angle(rotation) - 0.3) < 0.01

    def test_noise_variance_empirical(self, shaped64):
        params = ChannelParams(snr_db=10.0, sigma_theta_sq=1e-4, num_symbols=2**15, seed=5)
        trace = transmit(shaped64, params)
        noise = trace.rx_symbols - trace.tx_symbols * np.exp(1j * trace.phase_path)
        assert abs(np.mean(np.abs(noise) ** 2) / trace.sigma_n_sq - 1.0) < 0.02

    def test_noise_circularity(self, shaped64):
        params = ChannelParams(snr_db=10.0, sigma_theta_sq=0.0, num_symbols=2**16, seed=6)
        trace = transmit(shaped64, params)
        noise = trace.rx_symbols - trace.tx_symbols * np.exp(1j * trace.phase_path)
        # non-conjugate second moment of K samples has sd sigma^2/sqrt(K)
        pseudo = np.mean(noise**2)
        bound = 4 * trace.sigma_n_sq / math.sqrt(noise.size)
        assert abs(pseudo) < bound

    def test_bit_identical_under_seed(self, shaped64):
        params = ChannelParams(snr_db=18.0, sigma_theta_sq=1e-4, num_symbols=1024, seed=7)
        t1 = transmit(shaped64, params)
        t2 = transmit(shaped64, params)
        np.testing.assert_array_equal(t1.rx_symbols, t2.rx_symbols)
        np.testing.assert_array_equal(t1.bits, t2.bits)
        np.testing.assert_array_equal(t1.phase_path, t2.phase_path)

    def test_random_phi0_stays_in_sector(self, shaped64):
        for seed in range(16):
            params = ChannelParams(
                snr_db=20.0, sigma_theta_sq=0.0, num_symbols=2, seed=seed, random_phi0=True
            )
            trace = transmit(shaped64, params)
            assert -np.pi / 4 <= trace.phase_path[0] < np.pi / 4

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(snr_db=10.0, sigma_theta_sq=-1.0, num_symbols=4, seed=0)
        with pytest.raises(ValueError):
            ChannelParams(snr_db=10.0, sigma_theta_sq=0.0, num_symbols=0, seed=0)
        # +inf SNR is the noiseless switch; every other non-finite value
        # would pass through transmit silently (a NaN SNR adds no noise)
        base = dict(snr_db=math.inf, sigma_theta_sq=1e-4, num_symbols=4, seed=0)
        ChannelParams(**base)
        for field, value in [
            ("snr_db", math.nan),
            ("snr_db", -math.inf),
            ("sigma_theta_sq", math.nan),
            ("sigma_theta_sq", math.inf),
            ("phi0", math.nan),
            ("phi0", math.inf),
        ]:
            with pytest.raises(ValueError, match=field):
                ChannelParams(**{**base, field: value})
