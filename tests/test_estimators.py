"""Phase estimators, factor tables, and the brute-force marginal oracle."""

import itertools
import math
import os
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from wiener_cpe import (
    BpsOptParams,
    ChannelParams,
    Constellation,
    EstimatorConfig,
    bps_estimate,
    bps_opt_estimate,
    build_qam,
    cpn_estimate,
    make_grid,
    map_bp_estimate,
    min_distance_table,
    q_matrix,
    shape_for_entropy,
    transmit,
)
from wiener_cpe import estimators
from wiener_cpe.estimators import (
    _chain_log_marginals_full,
    _chain_log_marginals_windowed,
    _distance_tables,
    phase_major_padded,
    window_sums,
    window_sums_weight_grad,
)
from wiener_cpe.numerics import logsumexp as numpy_logsumexp, wrap_sector

from oracles import (
    assert_same_decisions,
    brute_force_map,
    build_factor_tables,
    einsum_softmin_forward,
    full_log_marginals_logdomain,
    full_log_marginals_rows,
    gather_windowed_sum,
    r_table,
    row_loop_messages,
    scipy_q_matrix,
    shaped_qam,
    softmin,
    weighted_window_sums,
    window_weight_grad,
    windowed_log_marginals,
)


def _cfg(half_window, m_count, sigma_n_sq=0.01, sigma_theta_sq=1.18e-4, **kw):
    return EstimatorConfig(
        half_window=half_window,
        grid=make_grid(m_count, 4),
        sigma_n_sq=sigma_n_sq,
        sigma_theta_sq=sigma_theta_sq,
        **kw,
    )


class TestMakeGrid:
    def test_four_point_grid(self):
        grid = make_grid(4, 4)
        np.testing.assert_allclose(
            grid.phases, [-np.pi / 4, -np.pi / 8, 0.0, np.pi / 8], atol=1e-15
        )

    def test_sixty_point_grid(self):
        grid = make_grid(60, 4)
        assert grid.m_count == 60
        assert grid.phases[0] == pytest.approx(-np.pi / 4)
        assert grid.phases[-1] < np.pi / 4
        np.testing.assert_allclose(np.diff(grid.phases), np.pi / 120, atol=1e-15)

    def test_single_phase_rejected(self):
        with pytest.raises(ValueError):
            make_grid(1, 4)


class TestRTable:
    def test_peak_at_true_phase(self, shaped64):
        grid = make_grid(16, 4)
        m_true = 9
        y = shaped64.points[(np.arange(40) * 7) % 64] * np.exp(1j * grid.phases[m_true])
        table = r_table(y, grid, shaped64, sigma_n_sq=1e-4)
        assert np.all(np.argmax(table, axis=1) == m_true)

    def test_origin_symbol_gives_flat_row(self, qpsk):
        grid = make_grid(8, 4)
        table = r_table(np.array([0.0 + 0.0j]), grid, qpsk, sigma_n_sq=0.1)
        np.testing.assert_allclose(table[0], table[0, 0], atol=1e-13)

    def test_matches_extended_precision_sum(self, shaped64):
        rng = np.random.default_rng(17)
        y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        grid = make_grid(6, 4)
        sigma_sq = 0.05
        table = r_table(y, grid, shaped64, sigma_n_sq=sigma_sq)
        mpmath.mp.dps = 50
        for k in range(5):
            for m in range(6):
                total = mpmath.mpf(0)
                for p, x in zip(shaped64.probs, shaped64.points):
                    d2 = abs(y[k] - x * np.exp(1j * grid.phases[m])) ** 2
                    total += mpmath.mpf(p) * mpmath.exp(-mpmath.mpf(d2) / (2 * sigma_sq))
                expected = float(mpmath.log(total))
                assert abs(table[k, m] - expected) <= 1e-12 * max(1.0, abs(expected))


class TestLogsumexp:
    @pytest.mark.parametrize("keepdims", [False, True])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_bit_identical_to_scipy(self, axis, keepdims):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((9, 8, 7)) * 40.0
        # coarse values tie often, and each row along axis 0 has a tied peak
        a[:, :4] = np.round(a[:, :4] / 8.0) * 8.0
        a[1:3] = a.max() + 1.0
        want = logsumexp(a, axis=axis, keepdims=keepdims)
        got = numpy_logsumexp(a, axis=axis, keepdims=keepdims)
        ties = np.sum(a == np.max(a, axis=axis, keepdims=True), axis=axis)
        assert np.any(ties > 1)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestQMatrix:
    @pytest.mark.parametrize("m_count", [2, 3, 8, 15, 16, 60, 64, 128])
    def test_bit_identical_to_scipy_oracle(self, m_count):
        for sym_order in (1, 4):
            grid = make_grid(m_count, sym_order)
            for sigma_theta_sq in (0.0, 1e-5, 1.18e-4, 1e-3, 0.1, 1.0):
                got = q_matrix(grid, sigma_theta_sq)
                want = scipy_q_matrix(grid, sigma_theta_sq, 3)
                assert got.tobytes() == want.tobytes(), (sym_order, sigma_theta_sq)

    @pytest.mark.parametrize("sigma_theta_sq", [0.0, 1e-5, 1.18e-4, 1e-3, 1e-1, 10.0])
    def test_rows_sum_to_one(self, sigma_theta_sq):
        logq = q_matrix(make_grid(60, 4), sigma_theta_sq)
        rows = np.exp(logsumexp(logq, axis=1))
        np.testing.assert_allclose(rows, 1.0, atol=1e-12)

    def test_circulant_in_wrapped_difference(self):
        logq = q_matrix(make_grid(15, 4), 1.18e-4)
        for i in range(15):
            for j in range(15):
                np.testing.assert_allclose(
                    logq[i, j], logq[0, (j - i) % 15], rtol=1e-12, atol=1e-12
                )

    def test_symmetric(self):
        logq = q_matrix(make_grid(12, 4), 1e-3)
        np.testing.assert_allclose(logq, logq.T, rtol=1e-12, atol=1e-12)

    def test_mass_decays_with_wrapped_distance(self):
        logq = q_matrix(make_grid(60, 4), 1.18e-4)
        row = logq[0]
        wrapped = np.minimum(np.arange(60), 60 - np.arange(60))
        order = np.argsort(wrapped, kind="stable")
        assert np.all(np.diff(row[order]) <= 1e-12)

    def test_zero_variance_degenerates_to_identity(self):
        q = np.exp(q_matrix(make_grid(8, 4), 0.0))
        np.testing.assert_allclose(q, np.eye(8), atol=1e-200)

    def test_huge_variance_near_uniform(self):
        q = np.exp(q_matrix(make_grid(8, 4), 50.0))
        np.testing.assert_allclose(q, 1.0 / 8, rtol=1e-3)


class TestBps:
    def test_noiseless_grid_phase_recovered(self, shaped64):
        grid = make_grid(15, 4)
        m_true = 4
        params = ChannelParams(
            snr_db=math.inf, sigma_theta_sq=0.0, num_symbols=256, seed=1, phi0=grid.phases[m_true]
        )
        trace = transmit(shaped64, params)
        cfg = _cfg(8, 15, sigma_n_sq=1e-4, sigma_theta_sq=0.0)
        est = bps_estimate(min_distance_table(trace.rx_symbols, cfg.grid, shaped64), cfg)
        interior = slice(8, 256 - 8)
        np.testing.assert_array_equal(est[interior], grid.phases[m_true])

    def test_constant_offgrid_phase_snaps_to_nearest(self, shaped64):
        # exhaustive sweep of true phases across the sector; offsets chosen
        # away from the exact midpoints between grid phases (tie cases)
        cfg = _cfg(8, 15, sigma_n_sq=1e-4, sigma_theta_sq=0.0)
        grid = cfg.grid
        for phi_true in np.linspace(-np.pi / 4 + 0.013, np.pi / 4 - 0.017, 9):
            params = ChannelParams(
                snr_db=math.inf, sigma_theta_sq=0.0, num_symbols=128, seed=2, phi0=phi_true
            )
            trace = transmit(shaped64, params)
            est = bps_estimate(min_distance_table(trace.rx_symbols, cfg.grid, shaped64), cfg)
            # nearest in the circular (sector-wrapped) metric
            nearest = grid.phases[np.argmin(np.abs(wrap_sector(grid.phases - phi_true, 4)))]
            interior = slice(8, 128 - 8)
            np.testing.assert_array_equal(est[interior], nearest)

    def test_single_symbol_window(self, shaped64):
        grid = make_grid(8, 4)
        cfg = _cfg(0, 8, sigma_n_sq=1e-4, sigma_theta_sq=0.0)
        y = shaped64.points[:8] * np.exp(1j * grid.phases[5])
        est = bps_estimate(min_distance_table(y, cfg.grid, shaped64), cfg)
        np.testing.assert_array_equal(est, grid.phases[5])

    def test_rejects_short_sequences(self, shaped64):
        cfg = _cfg(4, 8)
        with pytest.raises(ValueError):
            bps_estimate(min_distance_table(np.ones(5, dtype=complex), cfg.grid, shaped64), cfg)


class TestWindowedSum:
    @pytest.mark.parametrize(
        "half, size", [(0, 1), (0, 9), (4, 9), (4, 10), (4, 137), (32, 65), (32, 1000)]
    )
    def test_matches_gather_oracle_bit_for_bit(self, half, size):
        # K = 2N+1, 2N+2, ragged K and N = 0: the slice form whose slabs
        # bps and cpn pick from and the gather form subtract the same
        # cumulative sums
        table = np.random.default_rng(size + half).standard_normal((size, 7)) * 50.0
        sums = estimators._cumulative_sums(table, half)
        np.testing.assert_array_equal(
            sums[2 * half + 1 :] - sums[:size], gather_windowed_sum(table, half)
        )


class TestCpn:
    def test_matches_bps_at_high_snr_uniform(self, qam64):
        params = ChannelParams(snr_db=25.0, sigma_theta_sq=1e-5, num_symbols=4096, seed=3)
        trace = transmit(qam64, params)
        cfg = _cfg(16, 15, sigma_n_sq=trace.sigma_n_sq, sigma_theta_sq=1e-5)
        agree = np.mean(
            bps_estimate(min_distance_table(trace.rx_symbols, cfg.grid, qam64), cfg)
            == cpn_estimate(r_table(trace.rx_symbols, cfg.grid, qam64, cfg.sigma_n_sq), cfg)
        )
        assert agree >= 0.99

    def test_differs_from_bps_for_shaped_at_moderate_snr(self, shaped64):
        params = ChannelParams(snr_db=14.0, sigma_theta_sq=1e-3, num_symbols=4096, seed=4)
        trace = transmit(shaped64, params)
        cfg = _cfg(8, 15, sigma_n_sq=trace.sigma_n_sq, sigma_theta_sq=1e-3)
        disagree = np.mean(
            bps_estimate(min_distance_table(trace.rx_symbols, cfg.grid, shaped64), cfg)
            != cpn_estimate(r_table(trace.rx_symbols, cfg.grid, shaped64, cfg.sigma_n_sq), cfg)
        )
        assert disagree > 0.0

    def test_noiseless_constant_phase(self, shaped64):
        grid = make_grid(15, 4)
        params = ChannelParams(
            snr_db=math.inf, sigma_theta_sq=0.0, num_symbols=128, seed=5, phi0=grid.phases[11]
        )
        trace = transmit(shaped64, params)
        cfg = _cfg(8, 15, sigma_n_sq=1e-4, sigma_theta_sq=0.0)
        est = cpn_estimate(r_table(trace.rx_symbols, cfg.grid, shaped64, cfg.sigma_n_sq), cfg)
        np.testing.assert_array_equal(est[8:-8], grid.phases[11])


class TestMapBp:
    def test_center_marginal_matches_brute_force(self, shaped64):
        rng = np.random.default_rng(6)
        cfg = _cfg(1, 4, sigma_n_sq=0.05, sigma_theta_sq=1e-3)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        log_r, log_q = build_factor_tables(y, cfg, shaped64)
        est = map_bp_estimate(log_r, cfg, log_q)
        logm = _chain_log_marginals_windowed(log_r, log_q, 1)
        phase_bf, marg_bf = brute_force_map(y, cfg, shaped64)
        center = np.exp(logm[1] - logsumexp(logm[1]))
        np.testing.assert_allclose(center, marg_bf, rtol=1e-9, atol=1e-250)
        assert est[1] == phase_bf

    def test_huge_phase_noise_reduces_to_per_symbol_argmax(self, shaped64):
        rng = np.random.default_rng(7)
        y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        cfg = _cfg(8, 8, sigma_n_sq=0.1, sigma_theta_sq=100.0)
        log_r, log_q = build_factor_tables(y, cfg, shaped64)
        est = map_bp_estimate(log_r, cfg, log_q)
        np.testing.assert_array_equal(est, cfg.grid.phases[np.argmax(log_r, axis=1)])

    def test_tiny_phase_noise_fixed_phase_equals_cpn(self, shaped64):
        params = ChannelParams(snr_db=18.0, sigma_theta_sq=0.0, num_symbols=512, seed=8, phi0=0.1)
        trace = transmit(shaped64, params)
        cfg = _cfg(8, 15, sigma_n_sq=trace.sigma_n_sq, sigma_theta_sq=1e-10)
        log_r, log_q = build_factor_tables(trace.rx_symbols, cfg, shaped64)
        np.testing.assert_array_equal(map_bp_estimate(log_r, cfg, log_q), cpn_estimate(log_r, cfg))

    def test_full_sequence_agrees_when_window_covers_everything(self, shaped64):
        rng = np.random.default_rng(9)
        y = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        cfg = _cfg(6, 5, sigma_n_sq=0.05, sigma_theta_sq=1e-3)  # N >= K-1
        log_r, log_q = build_factor_tables(y, cfg, shaped64)
        windowed = _chain_log_marginals_windowed(log_r, log_q, 6)
        full = _chain_log_marginals_full(log_r, log_q)
        np.testing.assert_allclose(windowed, full, rtol=1e-12, atol=1e-12)

    def test_full_sequence_agrees_at_center_when_window_equals_sequence(self, shaped64):
        rng = np.random.default_rng(10)
        y = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        cfg = _cfg(4, 5, sigma_n_sq=0.05, sigma_theta_sq=1e-3)  # 2N+1 == K
        log_r, log_q = build_factor_tables(y, cfg, shaped64)
        windowed = _chain_log_marginals_windowed(log_r, log_q, 4)
        full = _chain_log_marginals_full(log_r, log_q)
        np.testing.assert_allclose(windowed[4], full[4], rtol=1e-12, atol=1e-12)

    def test_config_flag_switches_variant(self, shaped64):
        rng = np.random.default_rng(11)
        y = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        cfg_full = _cfg(2, 5, sigma_n_sq=0.05, full_sequence_bp=True)
        log_r, log_q = build_factor_tables(y, cfg_full, shaped64)
        est = map_bp_estimate(log_r, cfg_full, log_q)
        expected = cfg_full.grid.phases[
            np.argmax(_chain_log_marginals_full(log_r, log_q), axis=1)
        ]
        np.testing.assert_array_equal(est, expected)

    @pytest.mark.parametrize("full_sequence_bp", [False, True])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_emission_table_rejected(self, shaped64, full_sequence_bp, bad):
        # without the check, one NaN or +inf entry makes nearly every
        # full-sequence log-marginal NaN, whose argmax is grid phase 0
        rng = np.random.default_rng(11)
        y = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        cfg = _cfg(2, 5, sigma_n_sq=0.05, full_sequence_bp=full_sequence_bp)
        log_r, log_q = build_factor_tables(y, cfg, shaped64)
        log_r[7, 3] = bad
        with pytest.raises(ValueError, match="emission table has non-finite entries"):
            map_bp_estimate(log_r, cfg, log_q)


class TestBlockedBp:
    """The windowed BP runs column messages in row blocks with halos on a
    flushed Q; it must reproduce the one-pass row recursion on the raw Q."""

    @pytest.mark.parametrize("m_count", [15, 60])
    @pytest.mark.parametrize("sigma_theta_sq", [0.0, 1e-5, 1.18e-4, 1e-3])
    def test_matches_unblocked_unflushed_oracle(self, shaped64, m_count, sigma_theta_sq):
        block = estimators._BP_BLOCK_ROWS
        size = 2 * block + block // 2 + 37  # three blocks, the last one ragged
        params = ChannelParams(
            snr_db=20.0, sigma_theta_sq=sigma_theta_sq, num_symbols=size, seed=23
        )
        trace = transmit(shaped64, params)
        cfg = _cfg(8, m_count, sigma_n_sq=trace.sigma_n_sq / 2, sigma_theta_sq=sigma_theta_sq)
        log_r, log_q = build_factor_tables(trace.rx_symbols, cfg, shaped64)
        got = _chain_log_marginals_windowed(log_r, log_q, 8)
        want = windowed_log_marginals(log_r, log_q, 8)
        np.testing.assert_array_equal(np.argmax(got, axis=1), np.argmax(want, axis=1))
        live = want > -700.0
        assert live.any(axis=1).all()
        assert np.max(np.abs(got[live] - want[live])) <= 1e-12

    @pytest.mark.parametrize("m_count", [15, 60])
    def test_half_window_wider_than_a_block(self, shaped64, m_count):
        # N > _BP_BLOCK_ROWS: the first block's early forward steps reach no
        # kept column, and every block's halo is the whole frame on one side
        size, half = 3000, 1100
        assert half > estimators._BP_BLOCK_ROWS
        params = ChannelParams(snr_db=20.0, sigma_theta_sq=1.18e-4, num_symbols=size, seed=30)
        trace = transmit(shaped64, params)
        cfg = _cfg(half, m_count, sigma_n_sq=trace.sigma_n_sq / 2)
        log_r, log_q = build_factor_tables(trace.rx_symbols, cfg, shaped64)
        got = _chain_log_marginals_windowed(log_r, log_q, half)
        want = windowed_log_marginals(log_r, log_q, half)
        delta = 4 * half * np.finfo(float).eps * np.abs(want).max()
        assert assert_same_decisions(want, got, "argmax", delta) == 0
        top = want >= want.max(axis=1, keepdims=True) - 30.0
        assert np.max(np.abs(got[top] - want[top])) <= 1e-12

    def test_rescale_keeps_columns_that_emissions_oppose(self, monkeypatch):
        # each row favours the next grid phase by 100 nats, while one grid
        # step of Q costs 76: every step takes 76 to 100 nats off a column's
        # peak, so it falls below _RESCALE_BELOW (44 nats) within the window.
        # Without the division the peaks sink until entries 100 nats below
        # them underflow, long before a column counts as dead.
        m_count, half = 4, 20
        size = 2 * estimators._BP_BLOCK_ROWS + 100
        rng = np.random.default_rng(31)
        log_r = np.full((size, m_count), -100.0)
        log_r[np.arange(size), np.arange(size) % m_count] = 0.0
        log_r += rng.uniform(-1.0, 0.0, log_r.shape)
        log_q = q_matrix(make_grid(m_count, 4), 1e-3)
        want = windowed_log_marginals(log_r, log_q, half)
        assert np.all(np.isfinite(want))
        got = _chain_log_marginals_windowed(log_r, log_q, half)
        delta = 4 * half * np.finfo(float).eps * np.abs(want).max()
        assert assert_same_decisions(want, got, "argmax", delta) == 0
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        # the frame needs the rescale: with it disabled, decisions move
        monkeypatch.setattr(estimators, "_RESCALE_BELOW", 0.0)
        unscaled = _chain_log_marginals_windowed(log_r, log_q, half)
        assert np.any(np.argmax(unscaled, axis=1) != np.argmax(want, axis=1))

    @pytest.mark.parametrize(
        "snr_db, seed, sigma_theta_sq",
        [
            pytest.param(16.0, 32, 1.18e-4, id="16.0-32"),
            pytest.param(20.0, 33, 1.18e-4, id="20.0-33"),
            pytest.param(24.0, 34, 1.18e-4, id="24.0-34"),
            pytest.param(24.0, 35, 1e-5, id="24.0-35-1e-05"),
        ],
    )
    def test_flush_moves_no_entry_above_its_band(
        self, shaped64, monkeypatch, snr_db, seed, sigma_theta_sq
    ):
        # M=60: Q has entries between tiny and 2^-700 that only the windowed
        # flush zeroes. Against the same recursion flushed at tiny, message
        # entries at least M^2 2^-847 of their column's peak agree to
        # 1e-12, and no decision moves. That band is narrower than the
        # M^2 2^-647 of map_bp_estimate's docstring.
        m_count, size, half = 60, 2 * estimators._BP_BLOCK_ROWS + 37, 32
        params = ChannelParams(
            snr_db=snr_db, sigma_theta_sq=sigma_theta_sq, num_symbols=size, seed=seed
        )
        trace = transmit(shaped64, params)
        cfg = _cfg(
            half, m_count, sigma_n_sq=trace.sigma_n_sq / 2, sigma_theta_sq=sigma_theta_sq
        )
        log_r, log_q = build_factor_tables(trace.rx_symbols, cfg, shaped64)
        tiny = np.finfo(float).tiny
        q_tiny = estimators._linear_transitions(log_q, tiny)
        q_flushed = estimators._linear_transitions(
            log_q, estimators._WINDOWED_Q_FLUSH
        )
        assert np.count_nonzero(q_tiny) > np.count_nonzero(q_flushed)
        block = np.ascontiguousarray(log_r.T)
        keep = slice(0, size)
        band = m_count**2 * 2.0**-847
        for want, got in zip(
            estimators._windowed_messages(block, q_tiny.T, half, keep),
            estimators._windowed_messages(block, q_flushed.T, half, keep),
        ):
            inside = want >= band * want.max(axis=0)
            np.testing.assert_allclose(got[inside], want[inside], rtol=1e-12, atol=0.0)
        got = _chain_log_marginals_windowed(log_r, log_q, half)
        monkeypatch.setattr(estimators, "_WINDOWED_Q_FLUSH", tiny)
        want = _chain_log_marginals_windowed(log_r, log_q, half)
        delta = 4 * half * np.finfo(float).eps * np.abs(want).max()
        assert assert_same_decisions(want, got, "argmax", delta) == 0

    def test_dead_columns_take_the_log_domain_step(self):
        # with Q the identity in float and each symbol favouring the next
        # grid phase by 800 nats, every linear product after the first step
        # underflows to 0 and must be redone through the log domain (the
        # marginals still lose their support: most rows are -inf throughout
        # on both sides)
        m_count, size = 4, 2 * estimators._BP_BLOCK_ROWS + 3
        log_r = np.full((size, m_count), -800.0)
        log_r[np.arange(size), np.arange(size) % m_count] = 0.0
        log_q = q_matrix(make_grid(m_count, 4), 0.0)
        got = _chain_log_marginals_windowed(log_r, log_q, 3)
        want = windowed_log_marginals(log_r, log_q, 3)
        np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))
        live = np.isfinite(want)
        assert np.max(np.abs(got[live] - want[live])) <= 1e-12

    def test_rows_without_support_raise(self, qpsk):
        # the Q = I table above: every row the oracle leaves -inf at all
        # grid phases must make the estimator raise, not return phase 0
        m_count, size = 4, 2 * estimators._BP_BLOCK_ROWS + 3
        log_r = np.full((size, m_count), -800.0)
        log_r[np.arange(size), np.arange(size) % m_count] = 0.0
        log_q = q_matrix(make_grid(m_count, 4), 0.0)
        want = windowed_log_marginals(log_r, log_q, 3)
        dead = int(np.count_nonzero(~np.isfinite(want).any(axis=1)))
        assert dead > 0
        cfg = _cfg(3, m_count, sigma_theta_sq=0.0)
        with pytest.raises(FloatingPointError, match=f" {dead} of {size} rows"):
            map_bp_estimate(log_r, cfg, log_q)

    @staticmethod
    def _usable_cores(monkeypatch, cores):
        # `cores` CPUs in the process's affinity, one BLAS thread per product,
        # and threads at every grid size
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setattr(estimators, "_BP_THREAD_MIN_PHASES", 2)

    _ROWS = estimators._BP_BLOCK_ROWS

    @pytest.mark.parametrize(
        "m_count, snr_db, sigma_theta_sq, size, half",
        [
            (15, 20.0, 1.18e-4, 2 * _ROWS + _ROWS // 2 + 37, 8),  # three blocks, the last ragged
            (60, 20.0, 1.18e-4, 2 * _ROWS + _ROWS // 2 + 37, 8),
            (15, 20.0, 1.18e-4, 3000, 1100),  # N > _BP_BLOCK_ROWS
            (60, 20.0, 1.18e-4, 3000, 1100),
            (60, 24.0, 1e-5, 3 * _ROWS + 37, 32),
        ],
    )
    def test_threads_match_one_thread_bit_for_bit(
        self, shaped64, monkeypatch, m_count, snr_db, sigma_theta_sq, size, half
    ):
        assert size >= 2 * estimators._BP_BLOCK_ROWS
        params = ChannelParams(
            snr_db=snr_db, sigma_theta_sq=sigma_theta_sq, num_symbols=size, seed=35
        )
        trace = transmit(shaped64, params)
        cfg = _cfg(half, m_count, sigma_n_sq=trace.sigma_n_sq / 2, sigma_theta_sq=sigma_theta_sq)
        log_r, log_q = build_factor_tables(trace.rx_symbols, cfg, shaped64)
        blocks = size // estimators._BP_BLOCK_ROWS
        real = estimators._windowed_messages

        def run_recording(threads):
            # the first `threads` block calls meet at a barrier, so the pool
            # must run them on `threads` distinct threads, the caller's
            # among them; fewer time out and raise BrokenBarrierError
            # instead of hanging
            runners, calls = set(), itertools.count()
            barrier = threading.Barrier(threads, timeout=30.0)

            def recording(*args):
                runners.add(threading.get_ident())
                if next(calls) < threads:
                    barrier.wait()
                return real(*args)

            monkeypatch.setattr(estimators, "_windowed_messages", recording)
            out = _chain_log_marginals_windowed(log_r, log_q, half)
            assert threading.get_ident() in runners and len(runners) == threads
            return out

        self._usable_cores(monkeypatch, 1)
        assert estimators.bp_threads(size, m_count) == 1
        want = run_recording(1)
        self._usable_cores(monkeypatch, 4)
        assert estimators.bp_threads(size, m_count) == min(4, blocks) > 1
        got = run_recording(min(4, blocks))
        assert got.tobytes() == want.tobytes()

    def test_threads_below_min_phases_or_under_blas_threads(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        size = 5 * estimators._BP_BLOCK_ROWS
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert estimators.bp_threads(size, 60) == 4
        assert estimators.bp_threads(size, 15) == 1
        assert estimators.bp_threads(estimators._BP_BLOCK_ROWS + 5, 60) == 1
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert estimators.bp_threads(size, 60) == 2
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        assert estimators.bp_threads(size, 60) == 1  # BLAS takes every core

    def test_block_error_reraises_and_leaves_no_thread(self, monkeypatch):
        self._usable_cores(monkeypatch, 2)
        m_count, size = 8, 3 * estimators._BP_BLOCK_ROWS
        rng = np.random.default_rng(36)
        log_r = rng.uniform(-5.0, 0.0, (size, m_count))
        log_q = q_matrix(make_grid(m_count, 4), 1e-3)
        calls = itertools.count()
        real = estimators._windowed_messages

        def second_fails(*args):
            if next(calls) == 1:
                raise RuntimeError("block failed")
            return real(*args)

        monkeypatch.setattr(estimators, "_windowed_messages", second_fails)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="block failed"):
            map_bp_estimate(log_r, _cfg(4, m_count), log_q)
        assert threading.active_count() == before

    def test_threads_keep_the_callers_error_state(self, monkeypatch):
        # exp(log R - peak) underflows only in the second block, which the
        # caller or the pool thread runs; under the caller's
        # errstate(under="raise") it raises as one thread does
        self._usable_cores(monkeypatch, 2)
        m_count, size = 8, 2 * estimators._BP_BLOCK_ROWS
        log_r = np.zeros((size, m_count))
        log_r[size - 100 :, 0] = -800.0
        log_q = q_matrix(make_grid(m_count, 4), 1e-3)
        assert estimators.bp_threads(size, m_count) == 2
        with np.errstate(under="raise"), pytest.raises(FloatingPointError, match="underflow"):
            _chain_log_marginals_windowed(log_r, log_q, 4)

    def test_distance_tables_do_not_depend_on_chunk_budget(self, shaped64, monkeypatch):
        params = ChannelParams(snr_db=20.0, sigma_theta_sq=1.18e-4, num_symbols=301, seed=24)
        trace = transmit(shaped64, params)
        grid = make_grid(60, 4)
        row_bytes = 8 * grid.m_count

        def tables():
            return _distance_tables(trace.rx_symbols, grid, shaped64, 0.005, True, True)

        d_default, r_default = tables()
        # one-row chunks, ragged 7-row chunks, and a single chunk
        for budget in (1, 7 * row_bytes, row_bytes * (trace.rx_symbols.size + 1)):
            monkeypatch.setattr(estimators, "_TABLE_CHUNK_BYTES", budget)
            d_min, log_r = tables()
            np.testing.assert_array_equal(d_min, d_default)
            np.testing.assert_array_equal(log_r, r_default)


@pytest.fixture(scope="module")
def shaped64_575(qam64):
    constellation, _ = shape_for_entropy(qam64, 5.75)
    return constellation


_L = estimators._FULL_BP_BLOCK_ROWS


def _matched_tables(constellation, m_count, sigma_theta_sq, size, seed):
    params = ChannelParams(
        snr_db=20.0, sigma_theta_sq=sigma_theta_sq, num_symbols=size, seed=seed
    )
    trace = transmit(constellation, params)
    cfg = _cfg(32, m_count, sigma_n_sq=trace.sigma_n_sq / 2, sigma_theta_sq=sigma_theta_sq)
    return build_factor_tables(trace.rx_symbols, cfg, constellation)


class TestFullSequenceBp:
    """One forward and one backward pass over the whole frame: linear
    messages in lockstep blocks while they span the frame's dynamic range,
    the log domain otherwise."""

    @pytest.mark.parametrize("m_count", [15, 60])
    @pytest.mark.parametrize("sigma_theta_sq", [1.18e-4, 1e-3])
    def test_linear_pass_matches_row_loop_bit_for_bit(
        self, shaped64_575, m_count, sigma_theta_sq
    ):
        # named for the row loop it replaced, which matched this oracle bit
        # for bit; the lockstep products round as (blocks, M) @ (M, M)
        # products instead of one-row ones
        size = 4096
        log_r, log_q = _matched_tables(shaped64_575, m_count, sigma_theta_sq, size, seed=25)
        got = _chain_log_marginals_full(log_r, log_q)
        q_lin = estimators._linear_transitions(log_q)
        want = full_log_marginals_rows(log_r, q_lin)
        delta = 4 * size * np.finfo(float).eps * np.abs(want).max()
        assert assert_same_decisions(want, got, "argmax", delta) == 0
        top = want >= want.max(axis=1, keepdims=True) - 30.0
        assert np.max(np.abs(got[top] - want[top])) <= 1e-12

    @pytest.mark.parametrize(
        "m_count, sigma_theta_sq, seed",
        [(15, 1.18e-4, 25), (15, 1e-3, 26), (60, 1.18e-4, 27), (60, 1e-3, 28)],
    )
    def test_block_starts_are_one_step_from_the_block_before(
        self, shaped64_575, m_count, sigma_theta_sq, seed
    ):
        # the stopping rule's claim: in the returned messages, one lockstep
        # step (multiply, peak, divide, one (blocks, M) @ (M, M) product)
        # from the last row of every block gives the first row of the next
        size = 3 * _L + 37
        log_r, log_q = _matched_tables(shaped64_575, m_count, sigma_theta_sq, size, seed=seed)
        q_lin = estimators._linear_transitions(log_q)
        for table in (log_r, log_r[::-1]):
            r_lin = np.exp(table - table.max(axis=1, keepdims=True))
            messages = estimators._sweep(r_lin, q_lin)
            assert messages is not None
            last = np.arange(_L - 1, size, _L)  # the last row of each full block
            v = messages[last] * r_lin[last]
            v /= v.max(axis=1)[:, None]
            # the fourth block's last row is padding, and its end is never read
            v = np.matmul(np.vstack([v, np.ones(m_count)]), q_lin)
            np.testing.assert_array_equal(v[:-1], messages[last + 1])

    @pytest.mark.parametrize(
        "size, m_count",
        [(_L - 1000, 15), (_L - 1, 2), (_L, 15), (_L, 60), (_L + 1, 15), (_L + 1, 60),
         (2 * _L + 37, 60), (2 * _L + 37, 2)],
    )
    def test_block_layouts_match_row_loop(self, shaped64_575, size, m_count):
        # one block is the row loop bit for bit; more blocks round their
        # products as (blocks, M) @ (M, M) and stay within a few ulps
        log_r, log_q = _matched_tables(shaped64_575, m_count, 1e-3, size, seed=29)
        q_lin = estimators._linear_transitions(log_q)
        for table in (log_r, log_r[::-1]):
            r_lin = np.exp(table - table.max(axis=1, keepdims=True))
            got = estimators._sweep(r_lin, q_lin)
            want = row_loop_messages(table, q_lin)
            if size <= _L:
                np.testing.assert_array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        got = _chain_log_marginals_full(log_r, log_q)
        want = full_log_marginals_rows(log_r, q_lin)
        delta = 4 * size * np.finfo(float).eps * np.abs(want).max()
        assert assert_same_decisions(want, got, "argmax", delta) == 0

    def test_dead_product_from_a_guessed_start_is_recomputed(self):
        # Q = I at M = 2. From the true start of block 1, (1e-280, 1), every
        # message keeps both entries above M * 2^-968 of its peak, so the
        # frame is linear. From the first pass's guessed start, ones, the
        # third row of block 1 multiplies (1, 0) by (1e-305, 1), a product
        # below _MESSAGE_FLOOR; that must not send the frame to the log domain.
        log_r = np.zeros((2 * _L, 2))
        log_r[_L - 2 : _L] = [math.log(1e-140), 0.0]
        log_r[_L : _L + 2] = [0.0, math.log(1e-200)]
        log_r[_L + 2] = [math.log(1e-305), 0.0]
        r_lin = np.exp(log_r)
        log_q = q_matrix(make_grid(2, 4), 0.0)
        q_lin = estimators._linear_transitions(log_q)
        np.testing.assert_array_equal(q_lin, np.eye(2))
        got = estimators._sweep(r_lin, q_lin)
        want = row_loop_messages(log_r, q_lin)
        assert got is not None
        assert np.all(want.min(axis=1) >= 2 * 2.0**-968 * want.max(axis=1))
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(
            _chain_log_marginals_full(log_r, log_q), full_log_marginals_rows(log_r, q_lin)
        )

    def test_identity_transitions_follow_column_sums(self, shaped64_575):
        # an estimator sigma_theta^2 of 0 makes Q the identity in float: the
        # phase is one unknown constant, so every row's marginal is the
        # column sum of log R up to a constant. On this frame, whose channel
        # phase does walk, linear messages gave 274 all -inf rows and 1101
        # wrong argmaxes.
        size = 2048
        trace = transmit(
            shaped64_575,
            ChannelParams(snr_db=20.0, sigma_theta_sq=1e-5, num_symbols=size, seed=6),
        )
        cfg = _cfg(32, 15, sigma_n_sq=trace.sigma_n_sq / 2, sigma_theta_sq=0.0)
        log_r, log_q = build_factor_tables(trace.rx_symbols, cfg, shaped64_575)
        got = _chain_log_marginals_full(log_r, log_q)
        want = np.broadcast_to(log_r.sum(axis=0), got.shape)
        # each of the 2K shifted log-domain steps rounds within a few ulps of
        # the running sums, whose spread is at most the sum of the rows' spreads
        delta = 4 * size * np.finfo(float).eps * np.ptp(log_r, axis=1).sum()
        assert assert_same_decisions(want, got, "argmax", delta) == 0
        assert np.all(np.isfinite(got))

    @pytest.mark.parametrize("seed", [2, 8])
    def test_near_identity_matches_log_domain_oracle(self, shaped64_575, seed):
        # sigma_theta^2 = 1e-5 at M = 15: one grid step costs 551 nats, past
        # what a peak-normalized double can hold. Before the log-domain
        # pass, seed 2 had 243 wrong rows, seed 8 152 all -inf rows.
        size = 8192
        log_r, log_q = _matched_tables(shaped64_575, 15, 1e-5, size, seed=seed)
        got = _chain_log_marginals_full(log_r, log_q)
        want = full_log_marginals_logdomain(log_r, log_q)
        # both recursions round within a few ulps of the largest running sum
        # per step
        delta = 4 * size * np.finfo(float).eps * np.abs(want).max()
        assert_same_decisions(want, got, "argmax", delta)
        assert np.all(np.isfinite(got))


def _xwide_tables(y, grid, constellation, sigma_n_sq, rows=256):
    """Reference d_min and log R over all X points: the cross terms
    Re(y conj(x e^{j phi})) of a chunk as one matrix product, then
    |x|^2 - 2 Re(...) reduced over the points and |y|^2 added back, the
    X-wide form the per-axis kernel replaced."""
    y = np.asarray(y, dtype=np.complex128)
    rotated = (np.exp(1j * grid.phases)[:, None] * constellation.points[None, :]).ravel()
    rot_ri = np.stack([rotated.real, rotated.imag])
    point_sq = np.abs(constellation.points) ** 2
    log_p = np.log(constellation.probs)
    inv2s = 1.0 / (2.0 * sigma_n_sq)
    d_min = np.empty((y.size, grid.m_count))
    log_r = np.empty((y.size, grid.m_count))
    for start in range(0, y.size, rows):
        yc = y[start : start + rows]
        y_sq = (np.abs(yc) ** 2)[:, None]
        cross = np.stack([yc.real, yc.imag], axis=1) @ rot_ri
        partial = point_sq - 2.0 * cross.reshape(yc.size, grid.m_count, -1)
        d_min[start : start + rows] = partial.min(axis=2) + y_sq
        log_r[start : start + rows] = logsumexp(log_p - partial * inv2s, axis=2) - y_sq * inv2s
    return d_min, log_r


class TestAxisTables:
    """The per-axis d_min and log R against the X-wide oracle, extended
    precision, chunking, and the estimates they feed."""

    @settings(max_examples=60, deadline=None)
    @given(
        order=st.sampled_from([4, 16, 64, 256]),
        lam_fraction=st.floats(0.0, 1.0),
        log_sigma_n_sq=st.floats(math.log(1e-6), 0.0),
        m_count=st.integers(2, 64),
        noise_scale=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_xwide_oracle(
        self, order, lam_fraction, log_sigma_n_sq, m_count, noise_scale, seed
    ):
        constellation = shaped_qam(order, lam_fraction)
        sigma_n_sq = math.exp(log_sigma_n_sq)
        grid = make_grid(m_count, 4)
        rng = np.random.default_rng(seed)
        near = rng.choice(constellation.points, 48) * np.exp(
            1j * rng.uniform(-np.pi, np.pi, 48)
        ) + noise_scale * math.sqrt(sigma_n_sq) * (
            rng.standard_normal(48) + 1j * rng.standard_normal(48)
        )
        far = rng.uniform(-3.0, 3.0, 16) + 1j * rng.uniform(-3.0, 3.0, 16)
        y = np.concatenate([near, far])
        d_min, log_r = _distance_tables(y, grid, constellation, sigma_n_sq, True, True)
        d_want, r_want = _xwide_tables(y, grid, constellation, sigma_n_sq)
        # the oracle's |y|^2 + |x|^2 - 2 Re(.) cancels terms of this size
        scale = (np.abs(y) ** 2)[:, None] + np.max(np.abs(constellation.points) ** 2)
        assert np.max(np.abs(d_min - d_want) / scale) <= 1e-12
        assert np.max(np.abs(log_r - r_want) / np.maximum(1.0, np.abs(r_want))) <= 1e-9

    def test_decision_boundary_rows_match_extended_precision(self):
        # At sigma_n^2 = 1e-6 the X-wide |y|^2 + |x|^2 - 2 Re(.) loses
        # ~1e-16 (|y|^2 + |x|^2) to cancellation, which the division by
        # 2 sigma^2 turns into relative log R errors of up to ~1e-13 on these
        # rows; the per-axis offsets c - l do not cancel and stay within a
        # few ulps. Rows sit within 2e-6 of an in-phase decision boundary of
        # 256-QAM at one rotated grid phase, where the two nearest levels
        # weigh about equally.
        constellation = build_qam(256)
        levels = constellation.axis_decomposition().levels
        grid = make_grid(8, 4)
        m_check = 3
        rng = np.random.default_rng(43)
        mids = 0.5 * (levels[0][:-1] + levels[0][1:])
        z = rng.choice(mids, 8) + 2e-6 * rng.uniform(-1, 1, 8) + 1j * rng.choice(levels[1], 8)
        y = z * np.exp(1j * grid.phases[m_check])
        sigma_n_sq = 1e-6
        log_r = r_table(y, grid, constellation, sigma_n_sq)
        mpmath.mp.dps = 50
        rot = mpmath.expjpi(-mpmath.mpf(grid.phases[m_check]) / mpmath.pi)
        for k in range(y.size):
            zk = mpmath.mpc(y[k].real, y[k].imag) * rot
            total = mpmath.mpf(0)
            for p, x in zip(constellation.probs, constellation.points):
                d2 = abs(zk - mpmath.mpc(x.real, x.imag)) ** 2
                total += mpmath.mpf(p) * mpmath.exp(-d2 / (2 * sigma_n_sq))
            expected = float(mpmath.log(total))
            assert abs(log_r[k, m_check] - expected) <= 1e-14 * abs(expected)

    def test_estimates_match_oracle_tables(self, shaped64):
        params = ChannelParams(snr_db=20.0, sigma_theta_sq=1.18e-4, num_symbols=2**12, seed=25)
        trace = transmit(shaped64, params)
        cfg = _cfg(32, 60, sigma_n_sq=trace.sigma_n_sq / 2)
        y = trace.rx_symbols
        d_min, log_r = _distance_tables(y, cfg.grid, shaped64, cfg.sigma_n_sq, True, True)
        d_want, r_want = _xwide_tables(y, cfg.grid, shaped64, cfg.sigma_n_sq)
        log_q = q_matrix(cfg.grid, cfg.sigma_theta_sq)
        np.testing.assert_array_equal(bps_estimate(d_min, cfg), bps_estimate(d_want, cfg))
        np.testing.assert_array_equal(cpn_estimate(log_r, cfg), cpn_estimate(r_want, cfg))
        np.testing.assert_array_equal(
            map_bp_estimate(log_r, cfg, log_q), map_bp_estimate(r_want, cfg, log_q)
        )

    def test_rotated_constellation_rejected(self):
        # QPSK rotated onto the axes has three levels per axis, no product grid
        qpsk = build_qam(4)
        diamond = Constellation(qpsk.points * np.exp(1j * np.pi / 4), qpsk.probs, qpsk.bit_labels, 4)
        y = np.array([0.3 + 0.1j, -0.2 + 0.5j])
        with pytest.raises(ValueError, match="product grid"):
            min_distance_table(y, make_grid(8, 4), diamond)
        with pytest.raises(ValueError, match="product grid"):
            r_table(y, make_grid(8, 4), diamond, 0.1)


class TestBruteForce:
    def test_eight_term_sum_matches_hand_computation(self, qpsk):
        cfg = _cfg(1, 2, sigma_n_sq=0.5, sigma_theta_sq=0.01)
        rng = np.random.default_rng(12)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        _, marginal = brute_force_map(y, cfg, qpsk)

        # hand computation: explicit loops over the 2^3 phase tuples
        r_lin = np.exp(r_table(y, cfg.grid, qpsk, 0.5))
        q_lin = np.exp(q_matrix(cfg.grid, 0.01))
        expected = np.zeros(2)
        for a in range(2):
            for c in range(2):
                for b in range(2):
                    expected[c] += (
                        r_lin[0, a] * q_lin[a, c] * r_lin[1, c] * q_lin[c, b] * r_lin[2, b]
                    )
        expected /= expected.sum()
        np.testing.assert_allclose(marginal, expected, rtol=1e-12)

    def test_matches_bp_at_n2_m4(self, shaped64):
        rng = np.random.default_rng(13)
        cfg = _cfg(2, 4, sigma_n_sq=0.03, sigma_theta_sq=5e-4)
        y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        _, marg_bf = brute_force_map(y, cfg, shaped64)
        log_r, log_q = build_factor_tables(y, cfg, shaped64)
        logm = _chain_log_marginals_windowed(log_r, log_q, 2)
        center = np.exp(logm[2] - logsumexp(logm[2]))
        np.testing.assert_allclose(center, marg_bf, rtol=1e-9, atol=1e-250)

    def test_enumeration_order_invariance(self, shaped64):
        # reversing the chain (symmetric transition matrix) must leave the
        # center marginal unchanged
        rng = np.random.default_rng(14)
        cfg = _cfg(1, 6, sigma_n_sq=0.05, sigma_theta_sq=1e-3)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        _, forward = brute_force_map(y, cfg, shaped64)
        _, backward = brute_force_map(y[::-1], cfg, shaped64)
        np.testing.assert_allclose(forward, backward, rtol=1e-12)

    def test_uniform_factors_give_uniform_marginal(self, qpsk):
        cfg = _cfg(1, 4, sigma_n_sq=0.5, sigma_theta_sq=100.0)
        y = np.zeros(3, dtype=complex)  # flat R rows by symmetry
        _, marginal = brute_force_map(y, cfg, qpsk)
        np.testing.assert_allclose(marginal, 0.25, atol=1e-9)

    def test_size_guard(self, qpsk):
        cfg = _cfg(4, 60, sigma_n_sq=0.1)
        with pytest.raises(ValueError):
            brute_force_map(np.ones(9, dtype=complex), cfg, qpsk)


class TestSoftmin:
    def test_two_equal_entries(self):
        np.testing.assert_allclose(softmin(np.array([0.0, 0.0]), 3.7), [0.5, 0.5])

    def test_dominant_minimum(self):
        out = softmin(np.array([0.0, 1000.0]), 1.0)
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-300)

    def test_matches_extended_precision(self):
        rng = np.random.default_rng(15)
        x = rng.uniform(-5, 5, size=12)
        t = 0.37
        out = softmin(x, t)
        mpmath.mp.dps = 60
        terms = [mpmath.exp(-mpmath.mpf(v) / mpmath.mpf(t)) for v in x]
        total = mpmath.fsum(terms)
        expected = np.array([float(v / total) for v in terms])
        np.testing.assert_allclose(out, expected, rtol=1e-14)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            softmin(np.array([1.0, 2.0]), 0.0)

    @given(
        x=st.lists(st.floats(-100, 100), min_size=2, max_size=16),
        t=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=100, deadline=None)
    def test_output_is_probability_vector(self, x, t):
        out = softmin(np.array(x), t)
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) <= 1e-12


class TestPhaseMajorWindow:
    """Window sums along (M, K) rows and their weight adjoint against the
    einsum over (K, M) windows. The weights are random and asymmetric, so a
    flipped kernel cannot pass."""

    @given(
        half=st.integers(0, 12),
        extra=st.integers(0, 300),
        m_count=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_forward_and_adjoint_match_einsum(self, half, extra, m_count, seed):
        rng = np.random.default_rng(seed)
        size = 2 * half + 1 + extra
        table = rng.uniform(0.0, 3.0, (size, m_count))
        weights = rng.uniform(0.05, 1.0, 2 * half + 1)
        weights /= weights.sum()
        grad = rng.standard_normal((size, m_count))
        padded = phase_major_padded(table, half)
        assert padded.shape == (m_count, size + 2 * half)

        got = window_sums(padded, weights)
        want = weighted_window_sums(table, weights)
        np.testing.assert_allclose(got.T, want, rtol=0, atol=3e-14)

        got_g = window_sums_weight_grad(padded, grad.T)
        want_g = window_weight_grad(table, grad, half)
        scale = 3.0 * np.abs(grad).sum()
        np.testing.assert_allclose(got_g, want_g, rtol=0, atol=1e-14 * scale)
        # <window_sums(w), G> = <w, adjoint(G)>
        assert np.vdot(got, grad.T) == pytest.approx(weights @ got_g, rel=0, abs=1e-13 * scale)

    @pytest.mark.parametrize("m_count", [15, 60])
    def test_bps_opt_matches_einsum_pipeline(self, shaped64, m_count):
        params = ChannelParams(snr_db=20.0, sigma_theta_sq=1e-3, num_symbols=4096, seed=25)
        trace = transmit(shaped64, params)
        cfg = _cfg(32, m_count, sigma_n_sq=trace.sigma_n_sq / 2)
        rng = np.random.default_rng(26)
        d_table = min_distance_table(trace.rx_symbols, cfg.grid, shaped64)
        for opt in (
            BpsOptParams.uniform(32),
            BpsOptParams.from_raw(rng.normal(0.0, 0.5, 65), math.log(0.05)),
        ):
            got = bps_opt_estimate(d_table, cfg, opt)
            want = einsum_softmin_forward(d_table, cfg.grid, opt)[-1]
            assert np.abs(wrap_sector(got - want, 4)).max() <= 1e-12


class TestBpsOpt:
    def test_uniform_weights_tiny_temperature_recovers_bps(self, shaped64):
        params = ChannelParams(snr_db=20.0, sigma_theta_sq=1.18e-4, num_symbols=2048, seed=16)
        trace = transmit(shaped64, params)
        cfg = _cfg(16, 15, sigma_n_sq=trace.sigma_n_sq)
        temperature, tolerance = 1e-6, 1e-6
        opt = BpsOptParams.uniform(16, temperature=temperature)
        d_table = min_distance_table(trace.rx_symbols, cfg.grid, shaped64)
        est_opt = bps_opt_estimate(d_table, cfg, opt)
        est_bps = bps_estimate(d_table, cfg)
        # agreement mod 2pi/4 is guaranteed outside the softmin tie band
        # g < g* = t ln((M-1)(1 + 2 sin(4 eps)) / sin(4 eps)), derived at
        # acceptance criterion 2; inside it a near-tie may blend grid phases
        sin_n_eps = math.sin(4 * tolerance)
        g_star = temperature * math.log(14 * (1 + 2 * sin_n_eps) / sin_n_eps)
        d_table = min_distance_table(trace.rx_symbols, cfg.grid, shaped64)
        top_two = np.partition(weighted_window_sums(d_table, opt.weights), 1, axis=1)
        out_of_band = top_two[:, 1] - top_two[:, 0] >= g_star
        assert out_of_band.mean() > 0.99
        agree = np.abs(wrap_sector(est_opt - est_bps, 4)) < tolerance
        assert agree[out_of_band].all()

    def test_exact_grid_hit_with_single_symbol_window(self, shaped64):
        grid = make_grid(8, 4)
        cfg = _cfg(0, 8, sigma_n_sq=1e-4, sigma_theta_sq=0.0)
        y = shaped64.points[:20] * np.exp(1j * grid.phases[3])
        opt = BpsOptParams.uniform(0, temperature=1e-9)
        est = bps_opt_estimate(min_distance_table(y, cfg.grid, shaped64), cfg, opt)
        np.testing.assert_allclose(est, grid.phases[3], atol=1e-9)

    def test_symmetric_collapse_falls_back_to_argmin(self, qpsk):
        # zero symbols give a fully symmetric distance profile: the softmin
        # becomes uniform, the readout sums the full-period phasors to zero
        cfg = _cfg(1, 8, sigma_n_sq=0.1, sigma_theta_sq=1e-4)
        y = np.zeros(5, dtype=complex)
        opt = BpsOptParams.uniform(1, temperature=1e6)
        est = bps_opt_estimate(min_distance_table(y, cfg.grid, qpsk), cfg, opt)
        assert np.all(np.isfinite(est))
        assert np.all(np.isin(est, cfg.grid.phases))

    def test_shift_invariance_of_distances(self, shaped64):
        # adding a constant to every D_m leaves the softmin unchanged
        rng = np.random.default_rng(18)
        y = rng.standard_normal(65) + 1j * rng.standard_normal(65)
        cfg = _cfg(2, 8, sigma_n_sq=0.05)
        opt = BpsOptParams.uniform(2, temperature=0.05)
        d = min_distance_table(y, cfg.grid, shaped64)
        est1 = bps_opt_estimate(d, cfg, opt)
        est2 = bps_opt_estimate(d + 7.3, cfg, opt)
        np.testing.assert_allclose(est1, est2, atol=1e-12)

    def test_weights_length_validated(self, shaped64):
        cfg = _cfg(4, 8)
        with pytest.raises(ValueError):
            d_table = min_distance_table(np.ones(16, dtype=complex), cfg.grid, shaped64)
            bps_opt_estimate(d_table, cfg, BpsOptParams.uniform(3))

    def test_params_validation(self):
        # exp(-1000) underflows to a zero temperature
        with pytest.raises(ValueError, match="temperature"):
            BpsOptParams(raw_weights=np.zeros(2), raw_temp=-1000.0)


class TestSharedProperties:
    @pytest.mark.parametrize("shift", [1, 4, 7])
    def test_grid_rotation_equivariance(self, shaped64, shift):
        params = ChannelParams(snr_db=15.0, sigma_theta_sq=0.0, num_symbols=256, seed=19, phi0=0.05)
        trace = transmit(shaped64, params)
        cfg = _cfg(6, 12, sigma_n_sq=trace.sigma_n_sq, sigma_theta_sq=1e-4)
        grid = cfg.grid
        step = grid.phases[1] - grid.phases[0]
        rotated = trace.rx_symbols * np.exp(1j * grid.phases[shift] + 1j * np.pi / 4)
        # phases[shift] + pi/4 is exactly (shift) steps above phases[0] = -pi/4,
        # i.e. a rotation by "shift" grid steps relative to phase 0
        interior = slice(6, 256 - 6)

        def decisions(y):
            log_r, log_q = build_factor_tables(y, cfg, shaped64)
            return (
                bps_estimate(min_distance_table(y, grid, shaped64), cfg),
                cpn_estimate(log_r, cfg),
                map_bp_estimate(log_r, cfg, log_q),
            )

        for base, moved in zip(decisions(trace.rx_symbols), decisions(rotated)):
            idx_base = np.searchsorted(grid.phases, base[interior])
            idx_moved = np.searchsorted(grid.phases, moved[interior])
            np.testing.assert_array_equal((idx_base + shift) % 12, idx_moved)
        opt = BpsOptParams.uniform(6, temperature=1e-6)
        base = bps_opt_estimate(min_distance_table(trace.rx_symbols, cfg.grid, shaped64), cfg, opt)
        moved = bps_opt_estimate(min_distance_table(rotated, cfg.grid, shaped64), cfg, opt)
        circular_err = np.abs(wrap_sector(moved[interior] - base[interior] - shift * step, 4))
        assert circular_err.max() < 1e-6

    def test_estimators_are_pure(self, shaped64):
        params = ChannelParams(snr_db=18.0, sigma_theta_sq=1e-4, num_symbols=128, seed=20)
        trace = transmit(shaped64, params)
        cfg = _cfg(4, 8, sigma_n_sq=trace.sigma_n_sq)
        opt = BpsOptParams.uniform(4, temperature=0.1)
        d_table = min_distance_table(trace.rx_symbols, cfg.grid, shaped64)
        log_r, log_q = build_factor_tables(trace.rx_symbols, cfg, shaped64)
        for call in (
            lambda: bps_estimate(d_table, cfg),
            lambda: cpn_estimate(log_r, cfg),
            lambda: map_bp_estimate(log_r, cfg, log_q),
            lambda: bps_opt_estimate(d_table, cfg, opt),
        ):
            np.testing.assert_array_equal(call(), call())

    def test_bp_oracle_equivalence_batch(self, shaped64):
        # reduced version of the acceptance criterion for quick feedback
        rng = np.random.default_rng(21)
        checked_argmax = 0
        for _ in range(25):
            half_window = int(rng.integers(1, 3))
            m_count = int(rng.choice([3, 4, 6, 8]))
            sigma_n_sq = float(rng.uniform(0.01, 1.0))
            sigma_theta_sq = float(10 ** rng.uniform(-5, -2))
            cfg = _cfg(half_window, m_count, sigma_n_sq=sigma_n_sq, sigma_theta_sq=sigma_theta_sq)
            size = 2 * half_window + 1
            y = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            _, marg_bf = brute_force_map(y, cfg, shaped64)
            log_r, log_q = build_factor_tables(y, cfg, shaped64)
            est = map_bp_estimate(log_r, cfg, log_q)
            logm = _chain_log_marginals_windowed(log_r, log_q, half_window)
            center = np.exp(logm[half_window] - logsumexp(logm[half_window]))
            np.testing.assert_allclose(center, marg_bf, rtol=1e-9, atol=1e-250)
            top_two = np.sort(marg_bf)[-2:]
            if top_two[1] - top_two[0] > 1e-7:
                checked_argmax += 1
                assert est[half_window] == cfg.grid.phases[np.argmax(marg_bf)]
        assert checked_argmax > 0
