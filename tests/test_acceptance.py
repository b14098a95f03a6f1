"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE n: PASS/FAIL` line (run with `-s` to see
them live). The heavyweight fixtures (two 9-cell sweeps at 20 realizations
and two desk-scale trainings) are shared across criteria; the whole module
takes roughly 15-25 minutes single-threaded.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logsumexp

from wiener_cpe import (
    BpsOptParams,
    ChannelParams,
    EstimatorConfig,
    ExperimentConfig,
    bps_estimate,
    bps_opt_estimate,
    build_qam,
    cpn_estimate,
    entropy_bits,
    make_grid,
    map_bp_estimate,
    min_distance_table,
    optimize_demapper_variance,
    postprocess,
    q_matrix,
    run_sweep,
    shape_for_entropy,
    transmit,
)
from wiener_cpe.estimators import _chain_log_marginals_windowed
from wiener_cpe.numerics import wrap_sector
from wiener_cpe.training import TrainSchedule, grad, loss, train

from oracles import brute_force_map, build_factor_tables, softmin, weighted_window_sums

pytestmark = pytest.mark.acceptance

SEED = 4242
SNR_LIST = (16.0, 20.0, 24.0)
SIGMA_LIST = (1e-5, 1.18e-4, 1e-3)
TARGET_ENTROPY = 5.75  # keeps all criterion-4 cells unsaturated at 16-24 dB


def _report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num}: {status} - {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


@pytest.fixture(scope="module")
def shaped():
    constellation, _ = shape_for_entropy(build_qam(64), TARGET_ENTROPY)
    return constellation


@pytest.fixture(scope="module")
def ordering_sweeps(tmp_path_factory):
    """Criterion 4/5 data: 9 cells x 20 realizations of 2^13 symbols.

    Returns the M=60 and M=15 cells keyed by (snr, sigma, algorithm), each
    with its median and per-realization BMI, and the M=60 sweep's seconds.
    """
    base = dict(
        order=64,
        target_entropy=TARGET_ENTROPY,
        snr_db=SNR_LIST,
        sigma_theta_sq=SIGMA_LIST,
        half_window=32,
        realizations=20,
        num_symbols=2**13,
        seed=SEED,
    )
    started = time.perf_counter()
    rows60 = run_sweep(
        ExperimentConfig(algorithms=("bps", "cpn", "map_bp"), num_test_phases=60, **base),
        tmp_path_factory.mktemp("sweep60"),
    )
    elapsed60 = time.perf_counter() - started
    rows15 = run_sweep(
        ExperimentConfig(algorithms=("bps", "map_bp"), num_test_phases=15, **base),
        tmp_path_factory.mktemp("sweep15"),
    )
    c60 = {(r.snr_db, r.sigma_theta_sq, r.algorithm): r for r in rows60}
    c15 = {(r.snr_db, r.sigma_theta_sq, r.algorithm): r for r in rows15}
    return c60, c15, elapsed60


@pytest.fixture(scope="module")
def reduced_schedule():
    # criterion 6's pinned reduced schedule; lr scaled for the ~375-step
    # run (the paper-scale default lr 1e-3 belongs to the ~5500-step run)
    return TrainSchedule(
        epochs=25,
        lr=1e-2,
        batches_start=5,
        batches_end=25,
        batch_symbols_start=2**11,
        batch_symbols_end=2**14,
        seed=77,
    )


@pytest.fixture(scope="module")
def train_cell(shaped):
    channel = ChannelParams(snr_db=20.0, sigma_theta_sq=1.18e-4, num_symbols=2**11, seed=0)
    cfg = EstimatorConfig(
        half_window=32,
        grid=make_grid(15, 4),
        sigma_n_sq=0.005,
        sigma_theta_sq=1.18e-4,
    )
    return channel, cfg


@pytest.fixture(scope="module")
def trained_default_loss(shaped, train_cell, reduced_schedule):
    channel, cfg = train_cell
    return train(reduced_schedule, channel, cfg, shaped)


@pytest.fixture(scope="module")
def trained_phase_mse(shaped, train_cell, reduced_schedule):
    channel, cfg = train_cell
    return train(reduced_schedule, channel, cfg, shaped, loss_kind="phase_mse")


def _heldout_median(shaped, algo, m_count, params=None, n_traces=11):
    values = []
    for r in range(n_traces):
        channel = ChannelParams(
            snr_db=20.0, sigma_theta_sq=1.18e-4, num_symbols=2**13, seed=50_000 + r
        )
        trace = transmit(shaped, channel)
        cfg = EstimatorConfig(
            half_window=32,
            grid=make_grid(m_count, 4),
            sigma_n_sq=trace.sigma_n_sq / 2.0,
            sigma_theta_sq=1.18e-4,
        )
        if algo == "bps":
            phi = bps_estimate(min_distance_table(trace.rx_symbols, cfg.grid, shaped), cfg)
        elif algo == "map_bp":
            log_r, log_q = build_factor_tables(trace.rx_symbols, cfg, shaped)
            phi = map_bp_estimate(log_r, cfg, log_q)
        else:
            d_table = min_distance_table(trace.rx_symbols, cfg.grid, shaped)
            phi = bps_opt_estimate(d_table, cfg, params)
        corrected = postprocess(phi, trace.rx_symbols, trace.phase_path, 4)
        _, report = optimize_demapper_variance(corrected.x_hat, trace.bits, shaped)
        values.append(report.bmi_bits)
    return float(np.median(values))


def test_criterion_01_bp_exactness(shaped):
    rng = np.random.default_rng(1)
    started = time.perf_counter()
    checked_argmax = 0
    worst = 0.0
    for _ in range(200):
        half_window = int(rng.integers(1, 3))
        m_count = int(rng.choice([3, 4, 6, 8]))
        cfg = EstimatorConfig(
            half_window=half_window,
            grid=make_grid(m_count, 4),
            sigma_n_sq=float(rng.uniform(0.01, 1.0)),
            sigma_theta_sq=float(10 ** rng.uniform(-5, -2)),
        )
        size = 2 * half_window + 1
        y = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        _, marg_bf = brute_force_map(y, cfg, shaped)
        log_r, log_q = build_factor_tables(y, cfg, shaped)
        est = map_bp_estimate(log_r, cfg, log_q)
        logm = _chain_log_marginals_windowed(log_r, log_q, half_window)
        center = np.exp(logm[half_window] - logsumexp(logm[half_window]))
        err = np.abs(center - marg_bf)
        scale = np.maximum(np.abs(marg_bf), np.abs(center))
        ok = np.all((err <= 1e-9 * scale) | (scale < 1e-250))
        assert ok, "BP center marginal deviates from enumeration beyond 1e-9 relative"
        worst = max(worst, float((err / np.maximum(scale, 1e-300)).max()))
        top_two = np.sort(marg_bf)[-2:]
        if top_two[1] - top_two[0] > 1e-7:
            checked_argmax += 1
            assert est[half_window] == cfg.grid.phases[int(np.argmax(marg_bf))]
    elapsed = time.perf_counter() - started
    _report(
        1,
        "BP center marginals match brute-force enumeration (200 instances, 1e-9 relative)",
        elapsed < 60.0 and checked_argmax > 100,
        f"worst rel err {worst:.2e}, argmax checked on {checked_argmax}, {elapsed:.1f}s",
    )


def test_criterion_02_bps_recovery(shaped):
    temperature, tolerance, m_count, n = 1e-6, 1e-6, 15, 4
    # Tie band of the softmin readout. The weights are uniform, 1/(2N+1),
    # so D_m is the window mean and has plain BPS's argmin m*. Let g be the
    # top-two gap of D. The softmin mass off m* is
    #   S = sum_{m != m*} p_m <= (M-1) e^{-g/t}.
    # Rotated by -n phi*, the readout has real part >= 1-2S and imaginary
    # part <= S, so the estimate moves by |delta| <= arcsin(S / (1-2S)) / n.
    # That is <= eps whenever S <= s_max = sin(n eps) / (1 + 2 sin(n eps)),
    # i.e. whenever g >= g* = t ln((M-1) / s_max) ~= t ln((M-1) / (n eps))
    # (1.51e-5 here). Below g* the softmin may blend grid phases; how many
    # symbols fall there is a property of the channel, not of the estimator.
    s_max = math.sin(n * tolerance) / (1.0 + 2.0 * math.sin(n * tolerance))
    g_star = temperature * math.log((m_count - 1) / s_max)
    total = in_band = out_of_band_mismatches = 0
    matching = {temperature: 0, 1e-9: 0}
    for r in range(10):
        channel = ChannelParams(
            snr_db=20.0, sigma_theta_sq=1.18e-4, num_symbols=2**13, seed=7000 + r
        )
        trace = transmit(shaped, channel)
        cfg = EstimatorConfig(
            half_window=32,
            grid=make_grid(m_count, n),
            sigma_n_sq=trace.sigma_n_sq / 2.0,
            sigma_theta_sq=1.18e-4,
        )
        d_table = min_distance_table(trace.rx_symbols, cfg.grid, shaped)
        est_bps = bps_estimate(d_table, cfg)
        for t in matching:
            opt = BpsOptParams.uniform(32, temperature=t)
            est_opt = bps_opt_estimate(d_table, cfg, opt)
            # phases are equal mod 2pi/n: -pi/n may read out as pi/n - delta
            agree = np.abs(wrap_sector(est_opt - est_bps, n)) < tolerance
            matching[t] += int(agree.sum())
            if t == temperature:
                top_two = np.partition(weighted_window_sums(d_table, opt.weights), 1, axis=1)
                band = top_two[:, 1] - top_two[:, 0] < g_star
                in_band += int(band.sum())
                out_of_band_mismatches += int((~agree & ~band).sum())
        total += est_bps.size
    _report(
        2,
        "uniform weights at t=1e-6 recover plain BPS within 1e-6 rad (mod 2pi/n) on every "
        "symbol outside the softmin tie band, and on all symbols at t=1e-9",
        out_of_band_mismatches == 0 and matching[1e-9] == total,
        f"agreement {100 * matching[temperature] / total:.4f}% over {total} symbols; "
        f"{in_band} in band (g < g*={g_star:.2e}), "
        f"{out_of_band_mismatches} mismatches among {total - in_band} out of band; "
        f"t=1e-9 agreement {100 * matching[1e-9] / total:.4f}%",
    )


def test_criterion_03_gradient_correctness(shaped):
    started = time.perf_counter()
    channel = ChannelParams(snr_db=20.0, sigma_theta_sq=1.18e-4, num_symbols=2**10, seed=31)
    trace = transmit(shaped, channel)
    cfg = EstimatorConfig(
        half_window=16,
        grid=make_grid(8, 4),
        sigma_n_sq=trace.sigma_n_sq / 2.0,
        sigma_theta_sq=1.18e-4,
    )
    rng = np.random.default_rng(32)
    step = 1e-5
    window = 2 * 16 + 1  # 33 weight coordinates per point, 330 total
    checked = 0
    failures = []
    for point in range(10):
        raw_w = rng.normal(0.0, 0.4, window)
        raw_t = float(np.log(0.1) + rng.normal(0.0, 0.3))
        g_w, g_t = grad(BpsOptParams.from_raw(raw_w, raw_t), trace, cfg, shaped)
        for i in range(window):
            e = np.zeros(window)
            e[i] = step
            plus = BpsOptParams.from_raw(raw_w + e, raw_t)
            minus = BpsOptParams.from_raw(raw_w - e, raw_t)
            fd = (loss(plus, trace, cfg, shaped) - loss(minus, trace, cfg, shaped)) / (2 * step)
            checked += 1
            err = abs(fd - g_w[i])
            if err > 1e-4 * max(abs(fd), abs(g_w[i])) and err > 1e-10:
                failures.append((point, i, fd, g_w[i]))
        # temperature coordinate, additional to the 330 stated ones
        fd_t = (
            loss(BpsOptParams.from_raw(raw_w, raw_t + step), trace, cfg, shaped)
            - loss(BpsOptParams.from_raw(raw_w, raw_t - step), trace, cfg, shaped)
        ) / (2 * step)
        err_t = abs(fd_t - g_t)
        if err_t > 1e-4 * max(abs(fd_t), abs(g_t)) and err_t > 1e-10:
            failures.append((point, "raw_temp", fd_t, g_t))
    elapsed = time.perf_counter() - started
    fraction = 1.0 - len(failures) / checked
    # any failure must trace to a near-tie of the symbol-distance minimum
    diagnosed = True
    if failures:
        d_full = min_distance_table(trace.rx_symbols, cfg.grid, shaped)
        rotated = np.exp(1j * cfg.grid.phases)[:, None] * shaped.points[None, :]
        for _, _, _, _ in failures:
            d2 = np.abs(trace.rx_symbols[:, None, None] - rotated[None]) ** 2
            gaps = np.partition(d2, 1, axis=2)[:, :, 1] - d_full
            diagnosed &= bool((gaps < 1e-5).any())
    _report(
        3,
        "reverse-mode gradient matches central differences (1e-4 relative, >=95% of 330 coords)",
        fraction >= 0.95 and diagnosed and elapsed < 300.0,
        f"{checked} coords, {len(failures)} failures, {elapsed:.1f}s",
    )


def test_criterion_04_ordering(ordering_sweeps):
    c60, _, elapsed = ordering_sweeps
    violations = []
    for snr in SNR_LIST:
        for sigma in SIGMA_LIST:
            bps_v = c60[(snr, sigma, "bps")].bmi_median
            cpn_v = c60[(snr, sigma, "cpn")].bmi_median
            map_v = c60[(snr, sigma, "map_bp")].bmi_median
            if map_v < cpn_v - 0.005:
                violations.append(f"map<cpn-0.005 at ({snr},{sigma})")
            if map_v < bps_v - 0.005:
                violations.append(f"map<bps-0.005 at ({snr},{sigma})")
            if sigma == 1e-3 and not map_v > bps_v + 0.01:
                violations.append(f"map<=bps+0.01 at ({snr},{sigma})")
    _report(
        4,
        "BP-MAP >= cpn/bps - 0.005 in every cell, and > bps + 0.01 at sigma_theta_sq=1e-3",
        not violations and elapsed < 1800.0,
        f"M=60 sweep {elapsed:.0f}s" + (f"; {violations}" if violations else ""),
    )


def _map_over_bps_gap(cells, snr, sigma):
    """BMI gap of map_bp over bps in one cell: of the medians, and per realization."""
    map_cell, bps_cell = cells[(snr, sigma, "map_bp")], cells[(snr, sigma, "bps")]
    per_realization = np.subtract(map_cell.bmi_values, bps_cell.bmi_values)
    return map_cell.bmi_median - bps_cell.bmi_median, per_realization


def test_criterion_05_diminished_gain_at_m15(ordering_sweeps):
    c60, c15, _ = ordering_sweeps
    failing = []
    for snr in SNR_LIST:
        for sigma in SIGMA_LIST:
            gap60, per_realization60 = _map_over_bps_gap(c60, snr, sigma)
            gap15, per_realization15 = _map_over_bps_gap(c15, snr, sigma)
            if not gap15 < gap60:
                # realization r of both sweeps uses seed SEED + r, so the
                # per-realization difference of gaps is a paired sample
                d = per_realization15 - per_realization60
                stderr = d.std(ddof=1) / math.sqrt(d.size)
                failing.append(
                    f"({snr:g},{sigma:g}): gap15={gap15:+.3g} gap60={gap60:+.3g}, "
                    f"paired d={d.mean():+.2e}+-{stderr:.1e}, d>0 in {int((d > 0).sum())}/{d.size}"
                )
    _report(
        5,
        "map_bp-minus-bps gap at M=15 is smaller than at M=60 in every matched cell",
        not failing,
        "; ".join(failing) if failing else "all 9 cells",
    )


def test_criterion_06_trained_softmin_bps(shaped, trained_default_loss):
    report = trained_default_loss
    assert not report.diverged
    bps15 = _heldout_median(shaped, "bps", 15)
    opt15 = _heldout_median(shaped, "opt", 15, params=report.params)
    map60 = _heldout_median(shaped, "map_bp", 60)
    ok = (opt15 >= bps15 + 0.005) and (opt15 >= map60 - 0.02)
    _report(
        6,
        "trained softmin-BPS beats plain BPS by >=0.005 bit and sits within 0.02 of M=60 BP-MAP",
        ok,
        f"bps15={bps15:.4f} opt15={opt15:.4f} map60={map60:.4f}",
    )


def test_criterion_07_learned_weight_shape(trained_phase_mse):
    weights = trained_phase_mse.params.weights
    smoothed = np.convolve(weights, np.ones(3) / 3.0, mode="valid")
    peak = int(np.argmax(smoothed))
    rising = np.all(np.diff(smoothed[: peak + 1]) >= -1e-9)
    falling = np.all(np.diff(smoothed[peak:]) <= 1e-9)
    center_offset = peak - (smoothed.size - 1) // 2
    ratio = weights[32] / max(weights[0], weights[-1])
    ok = rising and falling and abs(center_offset) <= 1 and ratio >= 2.0
    _report(
        7,
        "learned weights are unimodal about the center (3-tap smoothed) with center/edge >= 2",
        ok,
        f"ratio={ratio:.2f}, smoothed peak offset {center_offset:+d}",
    )


def test_criterion_08_normalization_suite(shaped):
    worst_q = 0.0
    for m_count in (15, 60):
        grid = make_grid(m_count, 4)
        for sigma in SIGMA_LIST:
            rows = np.exp(logsumexp(q_matrix(grid, sigma), axis=1))
            worst_q = max(worst_q, float(np.abs(rows - 1.0).max()))
    rng = np.random.default_rng(81)
    worst_soft = 0.0
    for _ in range(50):
        out = softmin(rng.uniform(-5, 5, size=int(rng.integers(2, 40))), float(rng.uniform(1e-3, 10)))
        worst_soft = max(worst_soft, abs(float(out.sum()) - 1.0))
        assert np.all(out >= 0)
    prob_err = abs(float(shaped.probs.sum()) - 1.0)
    ok = worst_q <= 1e-12 and worst_soft <= 1e-12 and prob_err <= 1e-12
    _report(
        8,
        "transition rows, softmin outputs, and constellation probs normalize to 1 within 1e-12",
        ok,
        f"q={worst_q:.1e} softmin={worst_soft:.1e} probs={prob_err:.1e}",
    )


def test_criterion_09_noiseless_sanity(shaped):
    grid = make_grid(15, 4)
    target_index = 9
    channel = ChannelParams(
        snr_db=math.inf,
        sigma_theta_sq=0.0,
        num_symbols=512,
        seed=91,
        phi0=float(grid.phases[target_index]),
    )
    trace = transmit(shaped, channel)
    cfg = EstimatorConfig(
        half_window=8, grid=grid, sigma_n_sq=1e-4, sigma_theta_sq=0.0
    )
    interior = slice(8, 512 - 8)
    ok = True
    d_table = min_distance_table(trace.rx_symbols, cfg.grid, shaped)
    log_r, log_q = build_factor_tables(trace.rx_symbols, cfg, shaped)
    for est in (
        bps_estimate(d_table, cfg),
        cpn_estimate(log_r, cfg),
        map_bp_estimate(log_r, cfg, log_q),
    ):
        ok &= bool(np.all(est[interior] == grid.phases[target_index]))
    est_opt = bps_opt_estimate(d_table, cfg, BpsOptParams.uniform(8, temperature=1e-6))
    ok &= bool(np.all(np.abs(est_opt[interior] - grid.phases[target_index]) < 1e-6))
    corrected = postprocess(bps_estimate(d_table, cfg), trace.rx_symbols, trace.phase_path, 4)
    _, report = optimize_demapper_variance(corrected.x_hat, trace.bits, shaped)
    bmi_ok = abs(report.bmi_bits - entropy_bits(shaped.probs)) < 1e-3
    _report(
        9,
        "noise-free grid-point channel: every estimator returns the grid phase; BMI = H(X)",
        ok and bmi_ok,
        f"bmi={report.bmi_bits:.6f} vs H={entropy_bits(shaped.probs):.6f}",
    )


def test_criterion_10_sweep_determinism(tmp_path):
    config = ExperimentConfig(
        order=64,
        target_entropy=TARGET_ENTROPY,
        snr_db=(16.0, 20.0),
        sigma_theta_sq=(1.18e-4,),
        algorithms=("bps", "map_bp"),
        half_window=8,
        num_test_phases=15,
        realizations=2,
        num_symbols=2**10,
        seed=SEED,
    )
    run_sweep(config, tmp_path / "a")
    run_sweep(config, tmp_path / "b")
    same = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("results.csv", "realizations.csv")
    )
    _report(10, "identical sweep configs produce byte-identical CSV outputs", same)
