"""Small shared numeric helpers (stable softmax, sector wrapping)."""

from __future__ import annotations

import numpy as np


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along ``axis``."""
    z = x - np.max(x, axis=axis, keepdims=True)
    np.exp(z, out=z)
    z /= np.sum(z, axis=axis, keepdims=True)
    return z


def wrap_sector(phi, sym_order: int):
    """Wrap phases into the symmetry sector [-pi/n, pi/n)."""
    period = 2.0 * np.pi / sym_order
    return phi - period * np.floor(phi / period + 0.5)
