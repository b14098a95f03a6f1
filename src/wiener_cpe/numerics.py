"""Small shared numeric helpers (stable softmax and log-sum-exp, sector
wrapping)."""

from __future__ import annotations

import numpy as np


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
