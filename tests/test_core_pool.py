"""The thread pool of every row-parallel stage, and those stages at 1, 2
and 3 cores: threads must change no output byte."""

import os
import sys
import threading
import time

import numpy as np
import pytest

from wiener_cpe import ChannelParams, EstimatorConfig, make_grid, transmit
from wiener_cpe import training
from wiener_cpe.estimators import BpsOptParams, _distance_tables, bps_estimate
from wiener_cpe.metrics import DEMAP_CHUNK, optimize_demapper_variance
from wiener_cpe.numerics import CorePool, free_cores
from wiener_cpe.postproc import postprocess


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
