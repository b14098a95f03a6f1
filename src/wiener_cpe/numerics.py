"""Small shared numeric helpers (stable softmax and log-sum-exp, sector
wrapping) and the thread pool that every row-parallel stage runs on."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextvars import copy_context
from itertools import count

import numpy as np


def free_cores() -> int:
    """Cores in the process's CPU affinity that BLAS threads leave free.

    OpenBLAS runs every product on all cores unless ``OPENBLAS_NUM_THREADS``
    or ``OMP_NUM_THREADS`` says otherwise, so with neither set this is 1:
    threads whose products share cores with BLAS's ran slower than one
    thread (see ``map_bp_estimate``).
    """
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    blas = cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            blas = int(value)
            break
    return max(1, cores // blas)


class CorePool:
    """Runs calls on ``threads`` threads, the caller's and ``threads - 1``
    pool threads that the exit of the owning ``with`` block joins::

        with CorePool(free_cores()) as run:
            results = run(fn, items)

    ``run(fn, *iterables)`` calls ``fn`` on each tuple of items, each
    thread taking the next item left, and returns the results in item
    order. Every call has finished before ``run`` returns or raises, and a
    failed call re-raises in the caller. Pool threads run their calls in a
    copy of the caller's context, so numpy's error state there is the
    caller's. The caller computes rather than waits: every thread that
    allocates keeps a malloc arena of its own, so one thread fewer keeps
    the peak RSS lower.
    """

    def __init__(self, threads: int):
        self._helpers = max(1, threads) - 1
        self._pool = ThreadPoolExecutor(self._helpers) if self._helpers else None

    def __enter__(self) -> "CorePool":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._pool is not None:
            self._pool.shutdown()

    def __call__(self, fn, *iterables) -> list:
        items = list(zip(*iterables))
        results = [None] * len(items)
        claim = count().__next__  # one C call, so no two threads get one index

        def drain() -> None:
            while (i := claim()) < len(items):
                results[i] = fn(*items[i])

        helpers = []
        try:
            for _ in range(min(self._helpers, len(items) - 1)):
                helpers.append(self._pool.submit(copy_context().run, drain))
            drain()
        finally:
            wait(helpers)
        for helper in helpers:
            helper.result()
        return results


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along ``axis``."""
    z = x - np.max(x, axis=axis, keepdims=True)
    np.exp(z, out=z)
    z /= np.sum(z, axis=axis, keepdims=True)
    return z


def logsumexp(a: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    """log(sum(exp(a))) along ``axis`` of a finite array.

    The entries equal to the peak are split out of the sum, as
    scipy.special.logsumexp (1.17) does, so the result is bit-identical to
    scipy's: log1p(rest / count) + log(count) + peak.
    """
    peak = np.max(a, axis=axis, keepdims=True)
    at_peak = a == peak
    count = np.sum(at_peak, axis=axis, keepdims=True, dtype=np.float64)
    terms = np.exp(a - peak)
    terms[at_peak] = 0.0
    rest = np.sum(terms, axis=axis, keepdims=True)
    out = np.log1p(rest / count) + np.log(count) + peak
    return out if keepdims else np.squeeze(out, axis=axis)


def wrap_sector(phi, sym_order: int):
    """Wrap phases into the symmetry sector [-pi/n, pi/n)."""
    period = 2.0 * np.pi / sym_order
    return phi - period * np.floor(phi / period + 0.5)
