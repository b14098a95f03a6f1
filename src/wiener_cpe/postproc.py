"""Unwrapping, data-aided cycle-slip compensation, and derotation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CorrectedTrace:
    """Post-processed estimates: unwrapped, slip-corrected, and the
    derotated received symbols. ``slip_events`` lists (index, applied
    integer multiple of 2*pi/n) at every index where the multiple changes;
    the initial offset at index 0 is not an event.
    """

    phi_hat_unwrapped: np.ndarray
    phi_hat_corrected: np.ndarray
    x_hat: np.ndarray
    slip_events: list[tuple[int, int]]


def unwrap(phi_hat_raw, sym_order: int) -> np.ndarray:
    """Continuize raw sector estimates by adding integer multiples of 2*pi/n.

    Successive differences are brought into (-pi/n, pi/n]; the first
    element is unchanged. Offsets are accumulated as exact integers so the
    result is raw + (integer cycle count) * period per element.
    """
    phi = np.asarray(phi_hat_raw, dtype=np.float64)
    period = 2.0 * np.pi / sym_order
    if phi.size <= 1:
        return phi.copy()
    steps = np.ceil(np.diff(phi) / period - 0.5)
    cycles = np.concatenate([[0.0], np.cumsum(-steps)])
    return phi + cycles * period


def cycle_slip_correct(phi_unwrapped, phi_true, sym_order: int):
    """Fully data-aided compensation: per symbol, remove the nearest integer
    multiple of 2*pi/n separating the estimate from the true phase.

    Returns (corrected, slip_events). The residual lies in
    [-pi/n, pi/n] everywhere; changes of the removed integer are logged as
    slip events but do not alter the correction.
    """
    phi_unwrapped = np.asarray(phi_unwrapped, dtype=np.float64)
    phi_true = np.asarray(phi_true, dtype=np.float64)
    if phi_unwrapped.shape != phi_true.shape:
        raise ValueError("phase sequences must have the same length")
    period = 2.0 * np.pi / sym_order
    multiples = np.rint((phi_unwrapped - phi_true) / period)
    corrected = phi_unwrapped - multiples * period
    changes = np.nonzero(np.diff(multiples))[0] + 1
    events = [(int(k), int(multiples[k])) for k in changes]
    return corrected, events


def derotate(y, phi_corrected) -> np.ndarray:
    """x_hat[k] = y[k] * e^{-j phi_corrected[k]}."""
    y = np.asarray(y, dtype=np.complex128)
    phi = np.asarray(phi_corrected, dtype=np.float64)
    if y.shape != phi.shape:
        raise ValueError("sequences must have the same length")
    return y * np.exp(-1j * phi)


def postprocess(phi_hat_raw, y, phi_true, sym_order: int) -> CorrectedTrace:
    """Full chain: unwrap, slip-correct against the true phase, derotate."""
    unwrapped = unwrap(phi_hat_raw, sym_order)
    corrected, events = cycle_slip_correct(unwrapped, phi_true, sym_order)
    return CorrectedTrace(unwrapped, corrected, derotate(y, corrected), events)

