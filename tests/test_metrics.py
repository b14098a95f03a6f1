"""Demapper LLRs, BMI scoring, and demapper-variance optimization."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiener_cpe import (
    ChannelParams,
    Constellation,
    bmi,
    build_qam,
    llrs,
    optimize_demapper_variance,
    shape_for_entropy,
    transmit,
)
from wiener_cpe.constellation import SQUARE_QAM_ORDERS, entropy_bits
from wiener_cpe import metrics
from wiener_cpe.metrics import (
    DEMAP_CHUNK,
    LLR_CLAMP,
    SIGMA_SQ_RANGE,
    AxisDemapper,
    _brent_max,
    bit_signs,
    softplus,
)

from oracles import (
    bmi_report_from_json,
    bmi_report_to_json,
    llr_penalty,
    llr_variance_search,
    shaped_qam,
    unfloored_axis_llrs,
)

LOG_SIGMA_RANGE = (math.log(SIGMA_SQ_RANGE[0]), math.log(SIGMA_SQ_RANGE[1]))


# Reference oracles: the X-wide demapper (every LLR a log-sum-exp over all
# constellation points) and the golden-section variance search, which the
# per-axis kernel and bounded Brent replaced.


def _demapper_d2(x_hat, constellation: Constellation) -> np.ndarray:
    """Squared distances (k, num_points) from symbols to constellation points."""
    points = constellation.points
    point_ri = np.stack([points.real, points.imag])
    cross = np.stack([x_hat.real, x_hat.imag], axis=1) @ point_ri
    return (np.abs(x_hat) ** 2)[:, None] + (np.abs(points) ** 2)[None, :] - 2.0 * cross


def _class_selector(constellation: Constellation) -> np.ndarray:
    # (num_points, 2m): even columns pick bit=0 points, odd columns bit=1
    m = constellation.bits_per_symbol
    selector = np.zeros((constellation.num_points, 2 * m))
    for b in range(m):
        selector[constellation.bit_labels[:, b] == 0, 2 * b] = 1.0
        selector[constellation.bit_labels[:, b] == 1, 2 * b + 1] = 1.0
    return selector


def _llrs_from_d2(d2, constellation: Constellation, sigma_demap_sq: float) -> np.ndarray:
    metric = np.log(constellation.probs)[None, :] - d2 / sigma_demap_sq
    peak = metric.max(axis=1, keepdims=True)
    class_sums = np.exp(metric - peak) @ _class_selector(constellation)
    with np.errstate(divide="ignore"):
        log_sums = np.log(class_sums)
    return log_sums[:, 0::2] - log_sums[:, 1::2]


def _golden_section_max(fun, lo: float, hi: float, tol: float):
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fun(c), fun(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fun(d)
    return (c, fc) if fc >= fd else (d, fd)


def _oracle_score(x_hat, bits, constellation, clamp=LLR_CLAMP):
    """BMI as a function of log sigma^2, on the X-wide oracle."""
    d2 = _demapper_d2(x_hat, constellation)

    def score(log_sigma_sq):
        raw = _llrs_from_d2(d2, constellation, math.exp(log_sigma_sq))
        return bmi(bits, np.clip(raw, -clamp, clamp), constellation)

    return score


class TestLlrs:
    def test_sign_matches_bits_on_exact_point(self, shaped64):
        frame = llrs(shaped64.points, shaped64, sigma_demap_sq=1e-4)
        # L = log(P0/P1): positive iff the point's bit is 0
        signs = np.where(shaped64.bit_labels == 0, 1.0, -1.0)
        assert np.all(np.sign(frame) == signs)

    def test_origin_gives_zero_llrs_uniform_qpsk(self, qpsk):
        frame = llrs(np.zeros(3, dtype=complex), qpsk, sigma_demap_sq=0.5)
        np.testing.assert_array_equal(frame, 0.0)

    def test_matches_extended_precision_oracle(self, shaped64):
        rng = np.random.default_rng(31)
        x_hat = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        sigma_sq = 0.08
        frame = llrs(x_hat, shaped64, sigma_demap_sq=sigma_sq)
        mpmath.mp.dps = 50
        checked = 0
        for k in range(4):
            for b in range(6):
                num = mpmath.mpf(0)
                den = mpmath.mpf(0)
                for p, x, label in zip(shaped64.probs, shaped64.points, shaped64.bit_labels):
                    term = mpmath.mpf(p) * mpmath.exp(
                        -mpmath.mpf(abs(x_hat[k] - x) ** 2) / sigma_sq
                    )
                    if label[b] == 0:
                        num += term
                    else:
                        den += term
                expected = float(mpmath.log(num / den))
                if abs(expected) < LLR_CLAMP:
                    checked += 1
                    assert abs(frame[k, b] - expected) <= 1e-10 * max(1.0, abs(expected))
                else:
                    assert frame[k, b] == math.copysign(LLR_CLAMP, expected)
        assert checked >= 12

    def test_decision_boundary_rows_match_extended_precision(self):
        # At sigma^2 = 1e-6 only rows within about 1e-5 of a decision
        # boundary keep an unclamped LLR. There the X-wide oracle's
        # |x|^2 + |p|^2 - 2 Re(x p*) loses ~1e-15 to cancellation, which the
        # division by sigma^2 turns into LLR errors of up to ~4e-8 at
        # 256-QAM; the per-axis offsets do not cancel.
        constellation = shaped_qam(256, 0.5)
        levels = constellation.axis_decomposition().levels[0]
        rng = np.random.default_rng(41)
        mids = 0.5 * (levels[:-1] + levels[1:])
        x_hat = rng.choice(mids, 4) + 2e-6 * rng.uniform(-1, 1, 4) + 1j * rng.choice(levels, 4)
        sigma_sq = 1e-6
        frame = llrs(x_hat, constellation, sigma_demap_sq=sigma_sq)
        mpmath.mp.dps = 50
        checked = 0
        for k in range(4):
            for b in range(4):  # the in-phase bits
                sums = [mpmath.mpf(0), mpmath.mpf(0)]
                for p, x, label in zip(
                    constellation.probs, constellation.points, constellation.bit_labels
                ):
                    d2 = (mpmath.mpf(x_hat[k].real) - mpmath.mpf(x.real)) ** 2 + (
                        mpmath.mpf(x_hat[k].imag) - mpmath.mpf(x.imag)
                    ) ** 2
                    sums[label[b]] += mpmath.mpf(p) * mpmath.exp(-d2 / sigma_sq)
                expected = float(mpmath.log(sums[0] / sums[1]))
                if abs(expected) < LLR_CLAMP:
                    checked += 1
                    assert abs(frame[k, b] - expected) <= 1e-9
                else:
                    assert frame[k, b] == math.copysign(LLR_CLAMP, expected)
        assert checked >= 4  # one boundary bit per row at least

    def test_clamp_applied(self, shaped64):
        frame = llrs(shaped64.points, shaped64, sigma_demap_sq=1e-6)
        np.testing.assert_array_equal(np.abs(frame), LLR_CLAMP)

    def test_rejects_bad_variance(self, qpsk):
        with pytest.raises(ValueError):
            llrs(np.zeros(2, dtype=complex), qpsk, sigma_demap_sq=0.0)


class TestSeparableKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        order=st.sampled_from([4, 16, 64, 256]),
        lam_fraction=st.floats(0.0, 1.0),
        log_sigma_sq=st.floats(*LOG_SIGMA_RANGE),
        noise_scale=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_xwide_oracle(self, order, lam_fraction, log_sigma_sq, noise_scale, seed):
        constellation = shaped_qam(order, lam_fraction)
        sigma_sq = math.exp(log_sigma_sq)
        rng = np.random.default_rng(seed)
        near = rng.choice(constellation.points, 48) + noise_scale * math.sqrt(sigma_sq) * (
            rng.standard_normal(48) + 1j * rng.standard_normal(48)
        )
        # rows beyond the outermost levels, whose LLRs sit past the clamp
        far = rng.uniform(-3.0, 3.0, 16) + 1j * rng.uniform(-3.0, 3.0, 16)
        x_hat = np.concatenate([near, far])
        got = llrs(x_hat, constellation, sigma_sq)
        want = np.clip(
            _llrs_from_d2(_demapper_d2(x_hat, constellation), constellation, sigma_sq),
            -LLR_CLAMP,
            LLR_CLAMP,
        )
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(
        target_bits=st.floats(4.0, 6.0),
        snr_db=st.floats(6.0, 14.0),
        phase_error=st.floats(0.0, 0.05),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_brent_matches_golden(self, target_bits, snr_db, phase_error, seed):
        # Below about 15 dB the frame's BMI has a strict maximum in sigma^2.
        # Nearer noiseless frames saturate every LLR at small sigma^2, the
        # BMI is flat at H there, and both searches return equal BMIs at
        # different, equally valid variances.
        constellation, _ = shape_for_entropy(build_qam(64), target_bits)
        params = ChannelParams(snr_db=snr_db, sigma_theta_sq=0.0, num_symbols=2048, seed=seed)
        trace = transmit(constellation, params)
        x_hat = trace.rx_symbols * np.exp(-1j * phase_error)
        score = _oracle_score(x_hat, trace.bits, constellation)
        log_golden, bmi_golden = _golden_section_max(score, *LOG_SIGMA_RANGE, tol=1e-4)

        calls = []

        def counted(log_sigma_sq):
            calls.append(log_sigma_sq)
            return score(log_sigma_sq)

        log_brent, bmi_brent = _brent_max(counted, *LOG_SIGMA_RANGE, tol=1e-4)
        assert len(calls) <= 15
        assert abs(bmi_brent - bmi_golden) <= 1e-9
        assert abs(log_brent - log_golden) <= 1e-3

        # end to end: per-axis kernel and Brent against X-wide and golden
        sigma_opt, report = optimize_demapper_variance(x_hat, trace.bits, constellation)
        assert abs(report.bmi_bits - bmi_golden) <= 1e-9
        assert abs(math.log(sigma_opt) - log_golden) <= 1e-3

    def test_label_permutation_mixing_axes_rejected(self):
        qam16 = build_qam(16)
        labels = qam16.bit_labels.copy()
        # points 0 and 5 differ in both the in-phase and the quadrature level
        assert qam16.points[0].real != qam16.points[5].real
        assert qam16.points[0].imag != qam16.points[5].imag
        labels[[0, 5]] = labels[[5, 0]]
        mixed = Constellation(qam16.points, qam16.probs, labels, qam16.sym_order)
        x_hat = np.array([0.1 + 0.2j, -0.3 + 0.4j])
        with pytest.raises(ValueError, match="depends on both axes"):
            llrs(x_hat, mixed, 0.1)
        with pytest.raises(ValueError, match="depends on both axes"):
            optimize_demapper_variance(x_hat, np.zeros((2, 4), dtype=np.uint8), mixed)

    def test_non_separable_geometry_and_priors_rejected(self):
        # QPSK rotated onto the axes: three levels per axis, not a 2 x 2 grid
        qpsk = build_qam(4)
        diamond = Constellation(
            qpsk.points * np.exp(1j * np.pi / 4), qpsk.probs, qpsk.bit_labels, 4
        )
        with pytest.raises(ValueError, match="product grid"):
            llrs(np.zeros(1, dtype=complex), diamond, 0.1)
        # 16-QAM whose priors favour the first and third quadrants
        qam16 = build_qam(16)
        tilt = 1.0 + 0.5 * (qam16.points.real * qam16.points.imag > 0)
        probs = tilt / tilt.sum()
        energy = float(np.sum(probs * np.abs(qam16.points) ** 2))
        tilted = Constellation(
            qam16.points / math.sqrt(energy), probs, qam16.bit_labels, 4
        )
        with pytest.raises(ValueError, match="probabilities do not factor"):
            llrs(np.zeros(1, dtype=complex), tilted, 0.1)


class TestWeightFloor:
    """``AxisDemapper.llrs`` floors its log-weights before the exponential;
    no LLR within the clamp may move."""

    def test_clamp_is_within_the_floor_bound(self):
        # the docstring's bound, LLR_CLAMP <= -floor - ln n - 54 ln 2, at
        # the most levels per axis that any supported order has
        levels = max(build_qam(order).axis_decomposition().levels[0].size
                     for order in SQUARE_QAM_ORDERS)
        assert levels == 16
        bound = -metrics._WEIGHT_FLOOR - math.log(levels) - 54.0 * math.log(2.0)
        assert metrics.LLR_CLAMP <= bound

    @pytest.mark.parametrize("sigma_sq", [1e-6, 1e-4, 1e-3, 0.02])
    def test_matches_unfloored_kernel(self, sigma_sq):
        constellation, _ = shape_for_entropy(build_qam(64), 5.75)
        trace = transmit(
            constellation,
            ChannelParams(snr_db=20.0, sigma_theta_sq=1e-3, num_symbols=4096, seed=31),
        )
        # a residual phase error leaves LLRs below the clamp from 1e-4 up
        x_hat = trace.rx_symbols * np.exp(-1j * (trace.phase_path + 0.03))
        demapper = AxisDemapper(x_hat, constellation.axis_decomposition())
        got = demapper.llrs(sigma_sq)
        want = unfloored_axis_llrs(x_hat, constellation, sigma_sq, LLR_CLAMP)
        np.testing.assert_array_equal(got, want)
        # below 0.02 some log-weights of the in-phase axis sat at the floor
        floored = demapper._weights[0] == np.exp(metrics._WEIGHT_FLOOR)
        assert np.any(floored) == (sigma_sq < 0.02)


# The cross-entropy kernel against the LLR arithmetic it replaced: summed
# penalties within this relative tolerance, and BMI and log sigma_opt of the
# search within it in absolute terms.
KERNEL_TOL = 1e-12


def _residual_frame(constellation, num_symbols, seed, snr_db=20.0, offset=0.03):
    """A frame derotated by its true phase path plus a fixed offset, so that
    LLRs below the clamp remain from sigma^2 = 1e-4 up."""
    trace = transmit(
        constellation,
        ChannelParams(snr_db=snr_db, sigma_theta_sq=1e-3, num_symbols=num_symbols, seed=seed),
    )
    return trace.rx_symbols * np.exp(-1j * (trace.phase_path + offset)), trace.bits


class TestCrossEntropyKernel:
    @pytest.mark.parametrize("sigma_sq", [1e-6, 1e-4, 1e-3, 0.0114, 0.05, 1.0, 10.0])
    @pytest.mark.parametrize("clamp", [LLR_CLAMP, 5.0])
    def test_penalty_matches_llr_oracle(self, shaped64, sigma_sq, clamp, monkeypatch):
        monkeypatch.setattr(metrics, "LLR_CLAMP", clamp)
        x_hat, bits = _residual_frame(shaped64, DEMAP_CHUNK, seed=46)
        axes = shaped64.axis_decomposition()
        got = AxisDemapper(x_hat, axes, bits).cross_entropy(sigma_sq)
        want = llr_penalty(AxisDemapper(x_hat, axes), bits, sigma_sq, clamp)
        assert abs(got - want) <= KERNEL_TOL * want

    @pytest.mark.parametrize("num_symbols", [1, 8191, 8192, 8193, 2**15 + 37])
    def test_search_matches_llr_oracle_across_blocks(self, shaped64, num_symbols):
        x_hat, bits = _residual_frame(shaped64, num_symbols, seed=47)
        sigma_opt, report = optimize_demapper_variance(x_hat, bits, shaped64)
        want_sigma, want_bmi = llr_variance_search(x_hat, bits, shaped64)
        assert report.degenerate == (num_symbols == 1)
        assert abs(math.log(sigma_opt / want_sigma)) <= KERNEL_TOL
        assert abs(report.bmi_bits - want_bmi) <= KERNEL_TOL

    def test_unclamped_bit_in_last_block_on_quadrature_axis_runs_brent(self, shaped64):
        # noiseless, so every bit sits at the floor at 1e-6 except those of
        # the last symbol, moved 1e-5 inside a quadrature decision boundary:
        # the probe must read the frame's last block to the end
        params = ChannelParams(
            snr_db=math.inf, sigma_theta_sq=0.0, num_symbols=2**15 + 37, seed=48
        )
        trace = transmit(shaped64, params)
        sigma_flat, _ = optimize_demapper_variance(trace.rx_symbols, trace.bits, shaped64)
        assert sigma_flat == SIGMA_SQ_RANGE[0]

        x_hat = trace.rx_symbols.copy()
        levels = shaped64.axis_decomposition().levels[1]
        own = int(np.argmin(np.abs(levels - x_hat[-1].imag)))
        other = own + 1 if own + 1 < levels.size else own - 1
        mid = 0.5 * (levels[own] + levels[other])
        x_hat[-1] = x_hat[-1].real + 1j * (mid + 1e-5 * np.sign(levels[own] - mid))
        sigma_opt, report = optimize_demapper_variance(x_hat, trace.bits, shaped64)
        want_sigma, want_bmi = llr_variance_search(x_hat, trace.bits, shaped64)
        assert sigma_opt > SIGMA_SQ_RANGE[0]
        assert abs(math.log(sigma_opt / want_sigma)) <= KERNEL_TOL
        assert abs(report.bmi_bits - want_bmi) <= KERNEL_TOL


class TestBmi:
    def test_perfect_llrs_reach_entropy(self, shaped64):
        bits, symbols = _sample_frame(shaped64, 4096, seed=32)
        frame = llrs(symbols, shaped64, sigma_demap_sq=1e-4)
        value = bmi(bits, frame, shaped64)
        assert abs(value - entropy_bits(shaped64.probs)) < 1e-3

    def test_zero_llrs_lose_one_bit_per_level(self, shaped64):
        bits, _ = _sample_frame(shaped64, 256, seed=33)
        frame = np.zeros((256, 6))
        value = bmi(bits, frame, shaped64)
        assert value == pytest.approx(entropy_bits(shaped64.probs) - 6.0, abs=1e-12)

    def test_awgn_reference_gauss_hermite(self, qam64):
        # independent quadrature oracle for the matched-demapper BMI of the
        # AWGN-only channel at 18 dB on uniform 64-QAM
        snr_db = 18.0
        sigma_sq = 10 ** (-snr_db / 10)
        reference = _bmi_gauss_hermite(qam64, sigma_sq, nodes=40)

        params = ChannelParams(snr_db=snr_db, sigma_theta_sq=0.0, num_symbols=10**6, seed=34)
        trace = transmit(qam64, params)
        frame = llrs(trace.rx_symbols, qam64, sigma_demap_sq=sigma_sq)
        value = bmi(trace.bits, frame, qam64)
        assert abs(value - reference) < 0.01

    def test_bit_flip_symmetry(self, shaped64):
        rng = np.random.default_rng(35)
        x_hat = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        flipped_labels = shaped64.bit_labels.copy()
        flipped_labels[:, 2] ^= 1
        flipped = Constellation(
            shaped64.points, shaped64.probs, flipped_labels, shaped64.sym_order
        )
        bits, _ = _sample_frame(shaped64, 512, seed=36)
        bits_flipped = bits.copy()
        bits_flipped[:, 2] ^= 1
        frame = llrs(x_hat, shaped64, sigma_demap_sq=0.1)
        frame_flipped = llrs(x_hat, flipped, sigma_demap_sq=0.1)
        np.testing.assert_allclose(frame_flipped[:, 2], -frame[:, 2], atol=1e-12)
        assert bmi(bits, frame, shaped64) == pytest.approx(
            bmi(bits_flipped, frame_flipped, flipped), abs=1e-12
        )

    def test_extra_noise_never_helps(self, shaped64):
        rng = np.random.default_rng(37)
        sigma_sq = 0.01
        medians = []
        for extra in (0.0, 0.02):
            values = []
            for r in range(10):
                bits, symbols = _sample_frame(shaped64, 2048, seed=100 + r)
                noise_scale = math.sqrt((sigma_sq + extra) / 2)
                noisy = symbols + noise_scale * (
                    rng.standard_normal(2048) + 1j * rng.standard_normal(2048)
                )
                frame = llrs(noisy, shaped64, sigma_demap_sq=sigma_sq + extra)
                values.append(bmi(bits, frame, shaped64))
            medians.append(np.median(values))
        assert medians[1] <= medians[0] + 1e-3

    def test_clamp_adequacy(self, shaped64):
        params = ChannelParams(snr_db=20.0, sigma_theta_sq=0.0, num_symbols=4096, seed=38)
        trace = transmit(shaped64, params)
        v50 = bmi(trace.bits, llrs(trace.rx_symbols, shaped64, trace.sigma_n_sq), shaped64)
        v100 = bmi(
            trace.bits,
            unfloored_axis_llrs(trace.rx_symbols, shaped64, trace.sigma_n_sq, 100.0).T,
            shaped64,
        )
        assert LLR_CLAMP == 50.0
        assert abs(v50 - v100) <= 1e-3


class TestVarianceOptimizer:
    def test_recovers_true_variance_on_awgn(self, shaped64):
        params = ChannelParams(snr_db=18.0, sigma_theta_sq=0.0, num_symbols=2**14, seed=39)
        trace = transmit(shaped64, params)
        sigma_opt, report = optimize_demapper_variance(trace.rx_symbols, trace.bits, shaped64)
        assert abs(sigma_opt / trace.sigma_n_sq - 1.0) < 0.2
        matched = bmi(
            trace.bits, llrs(trace.rx_symbols, shaped64, trace.sigma_n_sq), shaped64
        )
        assert report.bmi_bits >= matched - 1e-9
        assert abs(report.bmi_bits - matched) < 1e-3

    def test_agrees_with_grid_scan(self, shaped64):
        params = ChannelParams(snr_db=14.0, sigma_theta_sq=0.0, num_symbols=2**13, seed=40)
        trace = transmit(shaped64, params)
        _, report = optimize_demapper_variance(trace.rx_symbols, trace.bits, shaped64)
        grid = np.exp(np.linspace(math.log(1e-4), math.log(1.0), 60))
        scan_best = max(
            bmi(trace.bits, llrs(trace.rx_symbols, shaped64, s), shaped64) for s in grid
        )
        assert report.bmi_bits >= scan_best - 1e-4

    @pytest.mark.parametrize("snr_db", [math.inf, 30.0])
    def test_flat_top_frame_returns_smallest_variance(self, shaped64, snr_db, monkeypatch):
        # every bit's cross entropy sits at its floor at sigma^2 = 1e-6, so
        # the BMI is flat at its maximum there and one probe of the frame's
        # single block settles it
        params = ChannelParams(snr_db=snr_db, sigma_theta_sq=0.0, num_symbols=2**12, seed=44)
        trace = transmit(shaped64, params)
        calls = []
        kernel = AxisDemapper.cross_entropy

        def counted(self, sigma_sq, flat_only=False):
            calls.append((sigma_sq, flat_only))
            return kernel(self, sigma_sq, flat_only)

        monkeypatch.setattr(AxisDemapper, "cross_entropy", counted)
        sigma_opt, report = optimize_demapper_variance(trace.rx_symbols, trace.bits, shaped64)
        assert calls == [(SIGMA_SQ_RANGE[0], True)]
        assert sigma_opt == SIGMA_SQ_RANGE[0]
        score = _oracle_score(trace.rx_symbols, trace.bits, shaped64)
        _, bmi_brent = _brent_max(score, *LOG_SIGMA_RANGE, tol=1e-4)
        assert abs(report.bmi_bits - bmi_brent) <= 1e-12

    @pytest.mark.parametrize("snr_db", [20.0, math.inf])
    def test_frame_with_unclamped_llrs_keeps_brent_result(self, shaped64, snr_db):
        # the search the flat-top check runs ahead of, spelled out; the
        # noiseless frame gets one symbol 1e-5 inside an in-phase decision
        # boundary, whose LLR has the correct sign but stays below the clamp
        params = ChannelParams(snr_db=snr_db, sigma_theta_sq=0.0, num_symbols=2**12, seed=45)
        trace = transmit(shaped64, params)
        x_hat = trace.rx_symbols.copy()
        if math.isinf(snr_db):
            levels = shaped64.axis_decomposition().levels[0]
            own = int(np.argmin(np.abs(levels - x_hat[0].real)))
            other = own + 1 if own + 1 < levels.size else own - 1
            mid = 0.5 * (levels[own] + levels[other])
            x_hat[0] = mid + 1e-5 * np.sign(levels[own] - mid) + 1j * x_hat[0].imag
        demapper = AxisDemapper(x_hat, shaped64.axis_decomposition())
        neg_sign = np.ascontiguousarray(-bit_signs(trace.bits).T)
        scale = 1.0 / (x_hat.size * math.log(2.0))

        def score(log_sigma_sq):
            llr = demapper.llrs(math.exp(log_sigma_sq))
            return entropy_bits(shaped64.probs) - float(softplus(llr * neg_sign).sum()) * scale

        log_brent, bmi_brent = _brent_max(score, *LOG_SIGMA_RANGE, tol=1e-4)
        sigma_opt, report = optimize_demapper_variance(x_hat, trace.bits, shaped64)
        assert sigma_opt == math.exp(log_brent)
        assert report.bmi_bits == bmi_brent
        assert sigma_opt > SIGMA_SQ_RANGE[0]

    def test_degenerate_frame_flagged(self, qpsk):
        x_hat = np.full(64, 0.5 + 0.5j)
        bits = np.zeros((64, 2), dtype=np.uint8)
        _, report = optimize_demapper_variance(x_hat, bits, qpsk)
        assert report.degenerate

    def test_report_json_roundtrip(self, qpsk):
        from wiener_cpe.metrics import BmiReport

        report = BmiReport(
            bmi_bits=1.5,
            entropy_bits=2.0,
            demapper_sigma_sq=0.01,
            num_symbols_scored=100,
            edge_excluded=False,
        )
        assert bmi_report_from_json(bmi_report_to_json(report)) == report


def _sample_frame(constellation, count, seed):
    from wiener_cpe import sample

    return sample(constellation, count, seed)


def _bmi_gauss_hermite(constellation, sigma_sq, nodes=40):
    """Quadrature BMI reference: E over x and circular Gaussian noise of the
    per-bit binary cross entropy, written independently of the package."""
    t, w = np.polynomial.hermite.hermgauss(nodes)
    points = constellation.points
    probs = constellation.probs
    labels = constellation.bit_labels
    m = labels.shape[1]
    sigma = math.sqrt(sigma_sq)

    # noise samples n = sigma * (t_i + j t_j), weight w_i w_j / pi
    noise = sigma * (t[:, None] + 1j * t[None, :]).ravel()
    weight = (w[:, None] * w[None, :]).ravel() / math.pi

    total = 0.0
    for x, px, label in zip(points, probs, labels):
        x_hat = x + noise  # (nodes^2,)
        d2 = np.abs(x_hat[:, None] - points[None, :]) ** 2
        metric = np.log(probs)[None, :] - d2 / sigma_sq
        penalty = np.zeros(noise.size)
        for b in range(m):
            zero = metric[:, labels[:, b] == 0]
            one = metric[:, labels[:, b] == 1]
            lse0 = _logsumexp_rows(zero)
            lse1 = _logsumexp_rows(one)
            llr = lse0 - lse1
            sign = 1.0 - 2.0 * label[b]
            penalty += np.log1p(np.exp(-np.abs(sign * llr))) + np.maximum(-sign * llr, 0.0)
        total += px * float(weight @ penalty)
    return entropy_bits(probs) - total / math.log(2.0)


def _logsumexp_rows(a):
    peak = a.max(axis=1)
    return peak + np.log(np.exp(a - peak[:, None]).sum(axis=1))
