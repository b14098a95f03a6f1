"""The thread pool of every row-parallel stage, and those stages at 1, 2
and 3 cores: threads must change no output byte. The stages that write
into a buffer of another layout or reuse one (the phase-major table
destination, the slab picks of bps and cpn, the in-place softmin and the
training backward that consumes it) are checked against the array they
replace at every core count too."""

import os
import sys
import threading
import time

import numpy as np
import pytest

from wiener_cpe import ChannelParams, EstimatorConfig, make_grid, transmit
from wiener_cpe import training
from wiener_cpe import estimators
from wiener_cpe.estimators import (
    BpsOptParams,
    _distance_tables,
    bps_estimate,
    cpn_estimate,
    min_distance_table,
    phase_major_padded,
    softmin_readout,
    window_sums,
)
from wiener_cpe.metrics import DEMAP_CHUNK, optimize_demapper_variance
from wiener_cpe.numerics import CorePool, free_cores, softmax
from wiener_cpe.postproc import postprocess

from oracles import gather_windowed_sum


def _usable_cores(monkeypatch, cores):
    # `cores` CPUs in the process's affinity and one BLAS thread per product
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)


def _per_core_count(monkeypatch, compute):
    # compute() at 1, 2 and 3 usable cores
    outputs = []
    for cores in (1, 2, 3):
        _usable_cores(monkeypatch, cores)
        assert free_cores() == cores
        outputs.append(compute())
    return outputs


class TestCorePool:
    def test_free_cores_are_those_blas_leaves(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert free_cores() == 4
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert free_cores() == 1
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        assert free_cores() == 1  # BLAS takes every core
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        assert free_cores() == 2

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_calls_run_on_distinct_threads(self, threads):
        # the calls meet at a barrier, so they must run on `threads`
        # distinct threads, the caller's among them; fewer time out and
        # raise BrokenBarrierError instead of hanging
        barrier = threading.Barrier(threads, timeout=30.0)

        def call(i):
            barrier.wait()
            return i, threading.get_ident()

        with CorePool(threads) as run:
            results = run(call, range(threads))
        assert [i for i, _ in results] == list(range(threads))
        runners = {ident for _, ident in results}
        assert len(runners) == threads and threading.get_ident() in runners

    def test_results_come_back_in_item_order_once_each(self):
        # more threads than cores and a short switch interval: a claim that
        # two threads shared would show as a repeated or a missing item
        calls = []

        def call(i, j):
            calls.append(i)
            return i * j

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with CorePool(8) as run:
                for _ in range(20):
                    calls.clear()
                    assert run(call, range(500), range(500, 1000)) == [
                        i * (500 + i) for i in range(500)
                    ]
                    assert sorted(calls) == list(range(500))
        finally:
            sys.setswitchinterval(interval)

    def test_pool_threads_keep_the_callers_error_state(self):
        # only the pool threads' calls underflow; under the caller's
        # errstate(under="raise") they raise, and run re-raises it
        caller = threading.get_ident()
        barrier = threading.Barrier(3, timeout=30.0)

        def call(_):
            barrier.wait()
            if threading.get_ident() != caller:
                np.exp(np.array([-800.0]))

        with CorePool(3) as run, np.errstate(under="raise"):
            with pytest.raises(FloatingPointError, match="underflow"):
                run(call, range(3))

    @pytest.mark.parametrize("raiser", ["caller", "pool thread"])
    def test_failure_waits_for_the_running_calls(self, raiser):
        # one call raises while the other still runs: run re-raises only
        # after the other has finished, and leaving the pool joins its
        # threads
        caller = threading.get_ident()
        barrier = threading.Barrier(2, timeout=30.0)
        finished = []

        def call(_):
            barrier.wait()
            if (threading.get_ident() == caller) == (raiser == "caller"):
                raise RuntimeError("call failed")
            time.sleep(0.2)
            finished.append(threading.get_ident())

        before = threading.active_count()
        with CorePool(2) as run:
            with pytest.raises(RuntimeError, match="call failed"):
                run(call, range(2))
            assert len(finished) == 1
        assert threading.active_count() == before

    def test_one_thread_starts_no_thread(self):
        before = threading.active_count()
        with CorePool(1) as run:
            assert run(lambda i: (i, threading.get_ident()), range(3)) == [
                (i, threading.get_ident()) for i in range(3)
            ]
            assert threading.active_count() == before


def _frame(constellation, num_symbols, seed, snr_db=20.0, sigma_theta_sq=1.18e-4):
    params = ChannelParams(
        snr_db=snr_db, sigma_theta_sq=sigma_theta_sq, num_symbols=num_symbols, seed=seed
    )
    return transmit(constellation, params)


class TestStagesAtEveryCoreCount:
    @pytest.mark.parametrize("m_count", [15, 60])
    @pytest.mark.parametrize("want_log_r", [False, True])
    def test_distance_tables(self, shaped64, monkeypatch, m_count, want_log_r):
        # several 64-KiB chunks per group, the last one ragged
        trace = _frame(shaped64, 2500, 60)
        grid = make_grid(m_count, 4)

        def tables():
            d_min, log_r = _distance_tables(
                trace.rx_symbols, grid, shaped64, trace.sigma_n_sq / 2, True, want_log_r
            )
            return d_min.tobytes(), None if log_r is None else log_r.tobytes()

        one, two, three = _per_core_count(monkeypatch, tables)
        assert one == two == three

    @pytest.mark.parametrize("snr_db", [16.0, 24.0])
    def test_demapper_variance_search(self, shaped64, monkeypatch, snr_db):
        # three full blocks and a ragged one; at 24 dB and 1e-5 every bit
        # sits at the floor, so the flat-top probe decides
        trace = _frame(shaped64, 3 * DEMAP_CHUNK + 700, 61, snr_db, 1e-5)
        cfg = EstimatorConfig(
            half_window=16,
            grid=make_grid(15, 4),
            sigma_n_sq=trace.sigma_n_sq / 2,
            sigma_theta_sq=1e-5,
        )
        d_min, _ = _distance_tables(trace.rx_symbols, cfg.grid, shaped64, None, True, False)
        x_hat = postprocess(
            bps_estimate(d_min, cfg), trace.rx_symbols, trace.phase_path, 4
        ).x_hat

        def search():
            return optimize_demapper_variance(x_hat, trace.bits, shaped64)

        one, two, three = _per_core_count(monkeypatch, search)
        assert one == two == three
        assert (one[0] == 1e-6) == (snr_db == 24.0)

    def test_training_loss_and_gradient(self, shaped64, monkeypatch):
        # five demapper blocks, so the last batch of two or three is short
        trace = _frame(shaped64, 4 * DEMAP_CHUNK + 300, 62)
        cfg = EstimatorConfig(
            half_window=4,
            grid=make_grid(15, 4),
            sigma_n_sq=trace.sigma_n_sq / 2,
            sigma_theta_sq=1.18e-4,
        )
        weights = np.random.default_rng(63).normal(0.0, 0.3, 2 * cfg.half_window + 1)
        params = BpsOptParams.from_raw(weights, np.log(0.2))

        def step():
            loss = training.loss(params, trace, cfg, shaped64)
            g_w, g_t = training.grad(params, trace, cfg, shaped64)
            return loss, g_w.tobytes(), g_t

        one, two, three = _per_core_count(monkeypatch, step)
        assert one == two == three


def _chunk_rows(m_count):
    # rows of one _TABLE_CHUNK_BYTES plane: a table chunk, a bps/cpn slab,
    # and (read as columns) a softmin slab
    return estimators._TABLE_CHUNK_BYTES // (8 * m_count)


class TestBuffersAtEveryCoreCount:
    @pytest.mark.parametrize("m_count", [15, 60])
    @pytest.mark.parametrize("half", [0, 32])
    @pytest.mark.parametrize("chunks", [0.5, 3.4])
    def test_phase_major_destination(self, shaped64, monkeypatch, m_count, half, chunks):
        # K below one chunk, and K not a multiple of the chunk
        size = max(2 * half + 1, int(chunks * _chunk_rows(m_count)))
        trace = _frame(shaped64, size, 64 + size)
        grid = make_grid(m_count, 4)
        want = phase_major_padded(min_distance_table(trace.rx_symbols, grid, shaped64), half)
        _, log_r = _distance_tables(trace.rx_symbols, grid, shaped64, 0.005, False, True)
        want_r = phase_major_padded(log_r, half)

        def tables():
            d_min, log_r = _distance_tables(
                trace.rx_symbols, grid, shaped64, 0.005, True, True, pad=half
            )
            return d_min.tobytes(), log_r.tobytes()

        for d_min, log_r in _per_core_count(monkeypatch, tables):
            assert d_min == want.tobytes() and log_r == want_r.tobytes()

    @pytest.mark.parametrize("m_count", [15, 60])
    @pytest.mark.parametrize("slabs, extra", [(1, -1), (1, 0), (1, 1), (2, 5)])
    def test_slab_picks(self, monkeypatch, m_count, slabs, extra):
        # K just below, at and just above one slab (the last slab takes the
        # remainder, so that is still one) and two slabs, with integer
        # entries so that the window sums are exact and tie often, and with
        # rows on both sides of row `slab` whose windows tie between
        # columns 3 and 7
        half, slab = 4, _chunk_rows(m_count)
        size = slabs * slab + extra
        table = np.random.default_rng(size).integers(0, 3, (size, m_count)).astype(float)
        band = slice(slab - 2 * half - 2, min(size, slab + 2 * half + 2))
        table[band] = 2.0
        table[band, [3, 7]] = 0.0
        sums = gather_windowed_sum(table, half)
        cfg = EstimatorConfig(
            half_window=half, grid=make_grid(m_count, 4), sigma_n_sq=1.0, sigma_theta_sq=0.0
        )
        want_min, want_max = np.argmin(sums, axis=1), np.argmax(-sums, axis=1)
        assert np.all(want_min[slab - half - 2 : slab + half] == 3)

        def picks():
            return bps_estimate(table, cfg).tobytes(), cpn_estimate(-table, cfg).tobytes()

        for bps, cpn in _per_core_count(monkeypatch, picks):
            assert bps == cfg.grid.phases[want_min].tobytes()
            assert cpn == cfg.grid.phases[want_max].tobytes()

    @pytest.mark.parametrize("m_count", [15, 60])
    @pytest.mark.parametrize("slabs", [0, 0.5, 1, 1.01, 4.6])
    def test_in_place_softmin(self, monkeypatch, m_count, slabs):
        # one column, below, at and just above one column slab, and a ragged
        # last slab; numerics.softmax sums a lone column pairwise
        half = 3
        size = max(1, int(slabs * _chunk_rows(m_count)))
        table = np.random.default_rng(size).random((size, m_count)) * 8.0
        padded = phase_major_padded(table, half)
        params = BpsOptParams.from_raw(np.random.default_rng(1).normal(0, 0.5, 7), -2.0)
        want = softmax(window_sums(padded, params.weights) / -params.temperature, axis=0)
        grid = make_grid(m_count, 4)

        def soft():
            return softmin_readout(padded, grid, params).soft.tobytes()

        for got in _per_core_count(monkeypatch, soft):
            assert got == want.tobytes()

    def test_no_call_reads_a_consumed_buffer(self, shaped64, monkeypatch):
        # the backward builds its gradient in the softmin's buffer: grad
        # twice, then loss, must give the bytes of a fresh call each time
        trace = _frame(shaped64, 3000, 65)
        cfg = EstimatorConfig(
            half_window=8,
            grid=make_grid(15, 4),
            sigma_n_sq=trace.sigma_n_sq / 2,
            sigma_theta_sq=1.18e-4,
        )
        params = BpsOptParams.from_raw(np.random.default_rng(66).normal(0, 0.3, 17), -2.0)

        def calls():
            first, second = (training.grad(params, trace, cfg, shaped64) for _ in range(2))
            value = training.loss(params, trace, cfg, shaped64)
            return [(g_w.tobytes(), g_t) for g_w, g_t in (first, second)], value

        outputs = _per_core_count(monkeypatch, calls)
        grads, value = outputs[0]
        assert grads[0] == grads[1]
        assert all(out == outputs[0] for out in outputs)
        assert value == training.loss(params, trace, cfg, shaped64)
