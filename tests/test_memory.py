"""Peak memory of the stages that build (K, M)-sized arrays, in tables.

One table is K * M * 8 bytes, a float64 (K, M) array. The peak is the
``tracemalloc`` peak during one call above the memory traced when the call
starts, so the inputs do not count, and numpy's allocations on the
``CorePool`` threads are traced like the caller's. Two usable cores and
one BLAS thread are forced, so that two demapper blocks are in flight
whatever the machine.

The bounds, and why they must never be loosened:

* A training step (``_forward_backward`` with a gradient, K = 2^17,
  M = 15, N = 32) keeps three (M, K)-sized arrays that its backward reads
  again: the zero-padded phase-major d_min (M, K + 2N), 1.0005 tables;
  the window sums D; and the softmin, in whose buffer the backward builds
  its gradient. Beside them live the per-symbol vectors (each 1/M of a
  table: derotated symbols, the phase gradient, the readout) and the
  demapper blocks in flight; on the recorded build that comes to 4.24
  tables. Any fourth (K, M) array kept alive at the peak (the (K, M) d_min
  beside its padded copy, a second softmax copy, an outer-product
  temporary) adds a whole table, 5.2 or more, and the parent of this guard
  read 5.68. So 4.5 tables holds with a quarter table to spare and fails
  for any such copy. At 2^14 the demapper blocks, not the tables, set the
  peak (near 9 tables), so the guard runs at 2^17.
* bps and cpn (K = 2^15, M = 60, N = 32) keep one zero-padded cumulative
  sum, (K + 2N + 1, M), 1.002 tables, and pick from it in 64-KiB slabs,
  with one (K,) index vector (1/M of a table): 1.03 tables. Building the
  (K, M) window sums whole, as the parent did, reads 2.00. So 1.25 tables
  holds, and any second (K, M) array fails it.
"""

import os
import tracemalloc

import numpy as np
import pytest

from wiener_cpe import ChannelParams, EstimatorConfig, make_grid, transmit
from wiener_cpe import training
from wiener_cpe.estimators import BpsOptParams, _distance_tables, bps_estimate, cpn_estimate


@pytest.fixture
def two_cores(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)


def _peak_tables(call, table_bytes: int) -> float:
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - start) / table_bytes


def _setup(constellation, num_symbols, m_count, seed):
    trace = transmit(
        constellation,
        ChannelParams(snr_db=20.0, sigma_theta_sq=1.18e-4, num_symbols=num_symbols, seed=seed),
    )
    cfg = EstimatorConfig(
        half_window=32,
        grid=make_grid(m_count, 4),
        sigma_n_sq=trace.sigma_n_sq / 2,
        sigma_theta_sq=1.18e-4,
    )
    return trace, cfg


def test_training_step_keeps_three_tables(shaped64, two_cores):
    size, m_count = 2**17, 15
    trace, cfg = _setup(shaped64, size, m_count, 70)
    params = BpsOptParams.uniform(cfg.half_window)

    def step():
        training._forward_backward(params, trace, cfg, shaped64, want_grad=True)

    assert _peak_tables(step, size * m_count * 8) <= 4.5


@pytest.mark.parametrize("estimate", [bps_estimate, cpn_estimate])
def test_window_picks_keep_one_table(shaped64, two_cores, estimate):
    size, m_count = 2**15, 60
    trace, cfg = _setup(shaped64, size, m_count, 71)
    d_min, log_r = _distance_tables(
        trace.rx_symbols, cfg.grid, shaped64, cfg.sigma_n_sq, True, True
    )
    table = d_min if estimate is bps_estimate else log_r
    assert _peak_tables(lambda: estimate(table, cfg), table.nbytes) <= 1.25
