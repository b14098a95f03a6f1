"""Hand-written gradient, Adam, and the end-to-end training loop."""

import math

import numpy as np
import pytest

from wiener_cpe import (
    BpsOptParams,
    ChannelParams,
    EstimatorConfig,
    TrainSchedule,
    build_qam,
    grad,
    loss,
    make_grid,
    train,
    transmit,
)
from wiener_cpe import bps_opt_estimate, metrics, min_distance_table, training
from wiener_cpe.metrics import DEMAP_CHUNK, LLR_CLAMP, AxisDemapper
from wiener_cpe.experiments import load_params, save_params, save_report, weights_to_csv
from wiener_cpe.training import AdamState, TrainReport, adam_init, adam_step

from oracles import einsum_training_grad, llr_cross_entropy_grad


def _cfg(half_window, m_count, sigma_n_sq=0.01, sigma_theta_sq=1.18e-4):
    return EstimatorConfig(
        half_window=half_window,
        grid=make_grid(m_count, 4),
        sigma_n_sq=sigma_n_sq,
        sigma_theta_sq=sigma_theta_sq,
    )


def _trace(constellation, num_symbols, seed, snr_db=20.0, sigma_theta_sq=1.18e-4):
    params = ChannelParams(
        snr_db=snr_db, sigma_theta_sq=sigma_theta_sq, num_symbols=num_symbols, seed=seed
    )
    return transmit(constellation, params)


class TestLoss:
    def test_perfect_phase_noiseless_loss_vanishes(self, shaped64):
        params = ChannelParams(snr_db=math.inf, sigma_theta_sq=0.0, num_symbols=256, seed=1)
        trace = transmit(shaped64, params)
        cfg = _cfg(4, 8, sigma_theta_sq=0.0)
        value = loss(BpsOptParams.uniform(4, temperature=1e-6), trace, cfg, shaped64)
        assert value < 1e-9

    def test_zeroed_batch_gives_bits_times_log2(self, qpsk):
        # all-zero received symbols: symmetric collapse (readout fallback)
        # and exactly-zero LLRs, so the loss sits at m*log(2) per symbol
        params = ChannelParams(snr_db=20.0, sigma_theta_sq=0.0, num_symbols=64, seed=2)
        trace = transmit(qpsk, params)
        object.__setattr__(trace, "rx_symbols", np.zeros(64, dtype=complex))
        cfg = _cfg(2, 8)
        opt = BpsOptParams.uniform(2, temperature=1e6)
        value = loss(opt, trace, cfg, qpsk)
        assert value == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
        g_w, g_t = grad(opt, trace, cfg, qpsk)
        assert np.all(np.isfinite(g_w))
        assert math.isfinite(g_t)

    def test_matches_independent_forward(self, shaped64):
        trace = _trace(shaped64, 48, seed=3)
        cfg = _cfg(3, 6)
        rng = np.random.default_rng(4)
        params = BpsOptParams.from_raw(rng.normal(0, 0.5, 7), float(np.log(0.08)))
        value = loss(params, trace, cfg, shaped64)
        reference = _independent_forward(params, trace, cfg, shaped64)
        assert value == pytest.approx(reference, rel=1e-12)

    def test_batch_shorter_than_window_rejected(self, shaped64):
        trace = _trace(shaped64, 8, seed=5)
        cfg = _cfg(8, 8)
        with pytest.raises(ValueError):
            loss(BpsOptParams.uniform(8), trace, cfg, shaped64)

    def test_phase_mse_variant(self, shaped64):
        trace = _trace(shaped64, 128, seed=6)
        cfg = _cfg(4, 8)
        value = loss(BpsOptParams.uniform(4, 1e-6), trace, cfg, shaped64, loss_kind="phase_mse")
        assert 0.0 < value < (np.pi / 4) ** 2


class TestGrad:
    def test_matches_finite_differences(self, shaped64, monkeypatch):
        _check_finite_differences(shaped64, LLR_CLAMP, monkeypatch)

    def test_matches_finite_differences_with_saturated_llrs(self, shaped64, monkeypatch):
        # nearly every LLR sits at a clamp of 5 (about a third do at the
        # default), so the per-axis clamp mask decides most of the gradient
        _check_finite_differences(shaped64, 5.0, monkeypatch)

    def test_softmax_tangency(self, shaped64):
        # shifting all raw weights leaves the loss unchanged, so the raw
        # gradient must be orthogonal to the all-ones direction
        trace = _trace(shaped64, 256, seed=9)
        cfg = _cfg(4, 8)
        rng = np.random.default_rng(10)
        g_w, _ = grad(BpsOptParams.from_raw(rng.normal(0, 0.5, 9), -2.0), trace, cfg, shaped64)
        assert abs(g_w.sum()) < 1e-14

    def test_phase_mse_gradient(self, shaped64):
        trace = _trace(shaped64, 256, seed=11)
        cfg = _cfg(3, 8)
        raw_w = np.linspace(-0.2, 0.2, 7)
        raw_t = -2.0
        g_w, g_t = grad(
            BpsOptParams.from_raw(raw_w, raw_t), trace, cfg, shaped64, loss_kind="phase_mse"
        )
        step = 1e-6
        for i in range(8):
            plus = _perturbed(raw_w, raw_t, i, +step)
            minus = _perturbed(raw_w, raw_t, i, -step)
            fd = (
                loss(plus, trace, cfg, shaped64, loss_kind="phase_mse")
                - loss(minus, trace, cfg, shaped64, loss_kind="phase_mse")
            ) / (2 * step)
            ana = np.concatenate([g_w, [g_t]])[i]
            assert abs(fd - ana) <= 1e-4 * max(abs(fd), abs(ana), 1e-8)


class TestDemapperKernel:
    @pytest.mark.parametrize("sigma_sq", [1e-6, 1e-4, 1e-3, 0.0114, 0.05])
    @pytest.mark.parametrize("clamp", [LLR_CLAMP, 5.0])
    def test_matches_llr_arithmetic(self, shaped64, sigma_sq, clamp, monkeypatch):
        monkeypatch.setattr(metrics, "LLR_CLAMP", clamp)
        trace = _trace(shaped64, DEMAP_CHUNK, seed=31)
        x_hat = trace.rx_symbols * np.exp(-1j * (trace.phase_path + 0.03))
        demapper = AxisDemapper(x_hat, shaped64.axis_decomposition(), trace.bits)
        total, g_u, g_v = demapper.cross_entropy_grad(sigma_sq)
        want, want_u, want_v = llr_cross_entropy_grad(
            x_hat, trace.bits, shaped64, sigma_sq, clamp
        )
        assert total == demapper.cross_entropy(sigma_sq)
        assert abs(total - want) <= 1e-12 * want
        peak = max(np.abs(want_u).max(), np.abs(want_v).max())
        assert max(np.abs(g_u - want_u).max(), np.abs(g_v - want_v).max()) <= 1e-12 * peak


class TestPhaseMajorPass:
    def test_phase_estimates_equal_bps_opt(self, shaped64, monkeypatch):
        passes = []
        forward = training.softmin_readout

        def recording(*args):
            out = forward(*args)
            passes.append(out)
            return out

        monkeypatch.setattr(training, "softmin_readout", recording)
        trace = _trace(shaped64, 2048, seed=27)
        cfg = _cfg(16, 15, sigma_n_sq=trace.sigma_n_sq / 2)
        params = BpsOptParams.from_raw(np.random.default_rng(28).normal(0, 0.5, 33), -2.5)
        grad(params, trace, cfg, shaped64)
        assert len(passes) == 1
        d_table = min_distance_table(trace.rx_symbols, cfg.grid, shaped64)
        want = bps_opt_estimate(d_table, cfg, params)
        np.testing.assert_array_equal(passes[0].estimates, want)

    @pytest.mark.parametrize("raw_temp", [math.log(0.1), math.log(0.01)])
    def test_matches_einsum_pipeline(self, shaped64, raw_temp):
        trace = _trace(shaped64, 2**12, seed=29)
        cfg = _cfg(32, 15, sigma_n_sq=trace.sigma_n_sq / 2)
        params = BpsOptParams.from_raw(np.random.default_rng(30).normal(0, 0.5, 65), raw_temp)
        value = loss(params, trace, cfg, shaped64)
        g_w, g_t = grad(params, trace, cfg, shaped64)
        want_value, want_w, want_t = einsum_training_grad(params, trace, cfg, shaped64)
        assert value == pytest.approx(want_value, rel=1e-14)
        got, want = np.concatenate([g_w, [g_t]]), np.concatenate([want_w, [want_t]])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_matches_einsum_pipeline_across_demapper_blocks(self, shaped64):
        # two full demapper blocks and a partial one: each block's phase
        # gradient must land on its own symbols
        trace = _trace(shaped64, 2 * DEMAP_CHUNK + 37, seed=49)
        cfg = _cfg(4, 8, sigma_n_sq=trace.sigma_n_sq / 2)
        params = BpsOptParams.from_raw(np.random.default_rng(50).normal(0, 0.5, 9), -2.3)
        value = loss(params, trace, cfg, shaped64)
        g_w, g_t = grad(params, trace, cfg, shaped64)
        want_value, want_w, want_t = einsum_training_grad(params, trace, cfg, shaped64)
        assert value == pytest.approx(want_value, rel=1e-14)
        got, want = np.concatenate([g_w, [g_t]]), np.concatenate([want_w, [want_t]])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestShiftInvariance:
    def test_exact_for_representable_shift(self, shaped64):
        # dyadic raw weights and a power-of-two shift add exactly in floats,
        # so softmax and therefore the loss must be bit-identical
        trace = _trace(shaped64, 128, seed=12)
        cfg = _cfg(3, 8)
        raw_w = np.array([-0.5, 0.25, 0.0, 0.125, -0.25, 0.75, 0.5])
        raw_t = -2.0
        base = loss(BpsOptParams.from_raw(raw_w, raw_t), trace, cfg, shaped64)
        shifted = loss(BpsOptParams.from_raw(raw_w + 0.5, raw_t), trace, cfg, shaped64)
        assert base == shifted

    def test_close_for_general_shift(self, shaped64):
        trace = _trace(shaped64, 128, seed=13)
        cfg = _cfg(3, 8)
        rng = np.random.default_rng(14)
        raw_w = rng.normal(0, 0.5, 7)
        base = loss(BpsOptParams.from_raw(raw_w, -2.0), trace, cfg, shaped64)
        shifted = loss(BpsOptParams.from_raw(raw_w + 0.7321, -2.0), trace, cfg, shaped64)
        assert shifted == pytest.approx(base, rel=1e-12)


class TestAdam:
    def test_first_step_is_sign_scaled(self):
        state = adam_init(np.array([1.0, -2.0]))
        g = np.array([0.3, -0.7])
        new = adam_step(state, g, lr=1e-2)
        # bias-corrected m/sqrt(v) equals sign(g) on the first step
        np.testing.assert_allclose(
            new.params, state.params - 1e-2 * np.sign(g), atol=1e-6
        )

    def test_zero_gradient_keeps_params(self):
        state = adam_init(np.array([0.5, 1.5]))
        new = adam_step(state, np.zeros(2), lr=1e-2)
        np.testing.assert_array_equal(new.params, state.params)

    def test_quadratic_bowl_convergence(self):
        state = adam_init(np.array([3.0]))
        for _ in range(5000):
            g = 2.0 * state.params
            state = adam_step(state, g, lr=1e-2)
        assert abs(state.params[0]) < 1e-3


class TestTrain:
    def _schedule(self, **kw):
        defaults = dict(
            epochs=3,
            lr=1e-3,
            batches_start=2,
            batches_end=4,
            batch_symbols_start=256,
            batch_symbols_end=512,
            seed=21,
        )
        defaults.update(kw)
        return TrainSchedule(**defaults)

    def test_zero_learning_rate_keeps_initialization(self, shaped64):
        channel = ChannelParams(snr_db=20.0, sigma_theta_sq=1.18e-4, num_symbols=256, seed=0)
        cfg = _cfg(4, 8)
        init = BpsOptParams.uniform(4, temperature=0.1)
        report = train(
            self._schedule(lr=0.0), channel, cfg, shaped64, init_params=init, val_symbols=256
        )
        np.testing.assert_array_equal(report.params.raw_weights, init.raw_weights)
        assert report.params.raw_temp == init.raw_temp

    def test_deterministic_under_seed(self, shaped64):
        channel = ChannelParams(snr_db=20.0, sigma_theta_sq=1.18e-4, num_symbols=256, seed=0)
        cfg = _cfg(4, 8)
        r1 = train(self._schedule(), channel, cfg, shaped64, val_symbols=256)
        r2 = train(self._schedule(), channel, cfg, shaped64, val_symbols=256)
        assert r1.loss_curve == r2.loss_curve
        assert r1.val_bmi_curve == r2.val_bmi_curve
        np.testing.assert_array_equal(r1.params.raw_weights, r2.params.raw_weights)

    def test_zero_phase_noise_keeps_weights_near_uniform(self, shaped64):
        channel = ChannelParams(snr_db=20.0, sigma_theta_sq=0.0, num_symbols=256, seed=0)
        cfg = _cfg(4, 8, sigma_theta_sq=0.0)
        report = train(self._schedule(epochs=5), channel, cfg, shaped64, val_symbols=256)
        w = report.params.weights
        assert w.max() / w.min() < 3.0

    def test_curves_have_one_entry_per_epoch(self, shaped64):
        channel = ChannelParams(snr_db=20.0, sigma_theta_sq=1.18e-4, num_symbols=256, seed=0)
        report = train(self._schedule(), channel, _cfg(4, 8), shaped64, val_symbols=256)
        assert len(report.loss_curve) == 3
        assert len(report.val_bmi_curve) == 3
        assert not report.diverged

    def test_schedule_ramps(self):
        schedule = TrainSchedule(
            epochs=100,
            batches_start=10,
            batches_end=100,
            batch_symbols_start=2**12,
            batch_symbols_end=2**17,
        )
        assert schedule.batches_for_epoch(0) == 10
        assert schedule.batches_for_epoch(99) == 100
        assert schedule.symbols_for_epoch(0) == 2**12
        assert schedule.symbols_for_epoch(99) == 2**17
        sizes = [schedule.symbols_for_epoch(e) for e in range(100)]
        assert all(np.diff(sizes) >= 0)

    def test_params_roundtrip_and_weights_csv(self, tmp_path, shaped64):
        params = BpsOptParams.from_raw(np.linspace(-0.3, 0.3, 9), -2.3)
        path = tmp_path / "params.json"
        save_params(params, path)
        back = load_params(path)
        np.testing.assert_array_equal(back.raw_weights, params.raw_weights)
        assert back.raw_temp == params.raw_temp

        csv_path = tmp_path / "weights.csv"
        weights_to_csv(params, csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "offset,weight"
        assert len(lines) == 10
        assert lines[1].startswith("-4,")

    def test_report_persists(self, tmp_path, shaped64):
        channel = ChannelParams(snr_db=20.0, sigma_theta_sq=1.18e-4, num_symbols=256, seed=0)
        report = train(self._schedule(epochs=1), channel, _cfg(4, 8), shaped64, val_symbols=256)
        save_report(report, tmp_path / "report.json")
        import json

        doc = json.loads((tmp_path / "report.json").read_text())
        assert len(doc["loss_curve"]) == 1
        assert doc["half_window"] == 4


    def test_params_and_report_files_are_unchanged(self, tmp_path):
        params = BpsOptParams.from_raw(np.array([-0.5, 0.25, 0.0]), -2.0)
        report = TrainReport(
            params=params,
            loss_curve=(0.5, 0.25),
            val_bmi_curve=(5.0, 5.25),
            schedule=TrainSchedule(epochs=2, seed=3),
            snr_db=20.0,
            sigma_theta_sq=1.18e-4,
            half_window=1,
            m_count=8,
            diverged=False,
        )
        save_params(params, tmp_path / "params.json")
        save_report(report, tmp_path / "report.json")
        assert (tmp_path / "params.json").read_text() == _FIXED_PARAMS_JSON
        assert (tmp_path / "report.json").read_text() == _FIXED_REPORT_JSON


_FIXED_PARAMS_JSON = """{
  "raw_weights": [
    -0.5,
    0.25,
    0.0
  ],
  "raw_temp": -2.0,
  "weights": [
    0.2098318260159648,
    0.4442139791616654,
    0.3459541948223697
  ],
  "temperature": 0.1353352832366127
}"""

_FIXED_REPORT_JSON = """{
  "params": {
    "raw_weights": [
      -0.5,
      0.25,
      0.0
    ],
    "raw_temp": -2.0,
    "weights": [
      0.2098318260159648,
      0.4442139791616654,
      0.3459541948223697
    ],
    "temperature": 0.1353352832366127
  },
  "loss_curve": [
    0.5,
    0.25
  ],
  "val_bmi_curve": [
    5.0,
    5.25
  ],
  "schedule": {
    "epochs": 2,
    "lr": 0.001,
    "batches_start": 10,
    "batches_end": 100,
    "batch_symbols_start": 4096,
    "batch_symbols_end": 131072,
    "adam_beta1": 0.9,
    "adam_beta2": 0.999,
    "adam_eps": 1e-08,
    "seed": 3
  },
  "snr_db": 20.0,
  "sigma_theta_sq": 0.000118,
  "half_window": 1,
  "m_count": 8,
  "diverged": false
}"""


def _check_finite_differences(constellation, clamp, monkeypatch):
    saturated = []
    forward = metrics.AxisDemapper._penalties

    def recording(self, axis, sigma_sq):
        out = forward(self, axis, sigma_sq)
        low, high = metrics._penalty_range()
        saturated.append(float(np.mean((out[0] < low) | (out[0] > high))))
        return out

    monkeypatch.setattr(metrics.AxisDemapper, "_penalties", recording)
    monkeypatch.setattr(metrics, "LLR_CLAMP", clamp)
    trace = _trace(constellation, 512, seed=7)
    cfg = _cfg(4, 8)
    rng = np.random.default_rng(8)
    step = 1e-5
    checked = 0
    failed = 0
    for _ in range(10):
        raw_w = rng.normal(0.0, 0.4, 9)
        raw_t = float(np.log(0.1) + rng.normal(0.0, 0.3))
        g_w, g_t = grad(BpsOptParams.from_raw(raw_w, raw_t), trace, cfg, constellation)
        grads = np.concatenate([g_w, [g_t]])
        for i in range(10):
            plus = _perturbed(raw_w, raw_t, i, +step)
            minus = _perturbed(raw_w, raw_t, i, -step)
            fd = (
                loss(plus, trace, cfg, constellation)
                - loss(minus, trace, cfg, constellation)
            ) / (2 * step)
            checked += 1
            err = abs(fd - grads[i])
            if err > 1e-4 * max(abs(fd), abs(grads[i])) and err > 1e-10:
                failed += 1
    assert checked == 100
    assert min(saturated) >= 0.01
    assert failed / checked <= 0.05


def _perturbed(raw_w, raw_t, index, delta):
    raw_w = raw_w.copy()
    if index < raw_w.size:
        raw_w[index] += delta
    else:
        raw_t = raw_t + delta
    return BpsOptParams.from_raw(raw_w, raw_t)


def _independent_forward(params, trace, cfg, constellation):
    """Plain-loop reimplementation of the training forward pass."""
    y = trace.rx_symbols
    size = y.size
    n = cfg.grid.sym_order
    m_count = cfg.grid.m_count
    half = cfg.half_window
    period = 2.0 * math.pi / n

    # softmax weights and temperature from the raw parameterization
    shifted = params.raw_weights - params.raw_weights.max()
    expw = [math.exp(v) for v in shifted]
    w = [v / math.fsum(expw) for v in expw]
    t = math.exp(params.raw_temp)

    points = constellation.points
    log_p = [math.log(p) for p in constellation.probs]
    labels = constellation.bit_labels
    sigma_sq = max(trace.sigma_n_sq, 1e-12)

    total = 0.0
    for k in range(size):
        d_win = []
        for m in range(m_count):
            acc = 0.0
            for j in range(2 * half + 1):
                i = k - half + j
                if 0 <= i < size:
                    rot = y[i] * complex(math.cos(cfg.grid.phases[m]), -math.sin(cfg.grid.phases[m]))
                    acc += w[j] * min(abs(rot - x) ** 2 for x in points)
            d_win.append(acc)
        lowest = min(d_win)
        soft = [math.exp(-(v - lowest) / t) for v in d_win]
        norm = math.fsum(soft)
        soft = [v / norm for v in soft]
        z = sum(
            s * complex(math.cos(n * ph), math.sin(n * ph))
            for s, ph in zip(soft, cfg.grid.phases)
        )
        if abs(z) < 1e-12:
            phi_hat = cfg.grid.phases[int(np.argmin(d_win))]
        else:
            phi_hat = math.atan2(z.imag, z.real) / n
            phi_hat -= period * math.floor(phi_hat / period + 0.5)
        slip = round((phi_hat - trace.phase_path[k]) / period)
        x_hat = y[k] * complex(math.cos(phi_hat - slip * period), -math.sin(phi_hat - slip * period))

        for b in range(labels.shape[1]):
            class_logs = {0: [], 1: []}
            for idx in range(len(points)):
                metric = log_p[idx] - abs(x_hat - points[idx]) ** 2 / sigma_sq
                class_logs[int(labels[idx, b])].append(metric)
            lse = {}
            for cls, vals in class_logs.items():
                peak = max(vals)
                lse[cls] = peak + math.log(math.fsum(math.exp(v - peak) for v in vals))
            llr = min(max(lse[0] - lse[1], -50.0), 50.0)
            sign = 1.0 - 2.0 * trace.bits[k, b]
            u = -sign * llr
            total += max(u, 0.0) + math.log1p(math.exp(-abs(u)))
    return total / size
