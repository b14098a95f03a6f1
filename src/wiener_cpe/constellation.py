"""Gray-labeled square QAM constellations with Maxwell-Boltzmann shaping."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQUARE_QAM_ORDERS = (4, 16, 64, 256)

_PROB_TOL = 1e-12
_ENERGY_TOL = 1e-12
_GEOMETRY_TOL = 1e-9
_SEPARABLE_PROB_RTOL = 1e-12


def entropy_bits(probs) -> float:
    """Shannon entropy in bits with the 0*log(0) = 0 convention."""
    p = np.asarray(probs, dtype=np.float64)
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


def _axis_levels(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # distinct levels (ascending, equal within the geometry tolerance) and
    # each value's level index
    order = np.argsort(values, kind="stable")
    starts = np.concatenate([[True], np.diff(values[order]) > _GEOMETRY_TOL])
    index = np.empty(values.size, dtype=np.intp)
    index[order] = np.cumsum(starts) - 1
    return values[order][starts], index


@dataclass(frozen=True)
class AxisDecomposition:
    """Per-axis factorization of a separable constellation.

    Axis 0 is the in-phase, axis 1 the quadrature component. Point
    ``levels[0][i] + 1j * levels[1][q]`` has probability
    ``exp(log_priors[0][i] + log_priors[1][q])``. Bit column
    ``bit_columns[a][j]`` depends on axis ``a`` alone and takes the value
    ``level_bits[a][l, j]`` at that axis's level ``l``.
    """

    levels: tuple[np.ndarray, np.ndarray]
    log_priors: tuple[np.ndarray, np.ndarray]
    bit_columns: tuple[np.ndarray, np.ndarray]
    level_bits: tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class Constellation:
    """Complex symbol set with point probabilities and per-point bit labels.

    Invariants enforced at construction:

    * the point count is a power of two and all points are distinct;
    * probabilities are strictly positive and sum to one;
    * the average symbol energy under ``probs`` is one;
    * ``bit_labels`` is a bijection onto {0,1}^m with m = log2(#points);
    * rotating the point set by 2*pi/sym_order maps it onto itself.

    Instances are immutable (arrays are marked read-only) and safe to share
    across threads and processes.
    """

    points: np.ndarray
    probs: np.ndarray
    bit_labels: np.ndarray
    sym_order: int

    def __post_init__(self):
        points = np.ascontiguousarray(self.points, dtype=np.complex128)
        probs = np.ascontiguousarray(self.probs, dtype=np.float64)
        labels = np.ascontiguousarray(self.bit_labels, dtype=np.uint8)
        for name, arr in (("points", points), ("probs", probs), ("bit_labels", labels)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        self._validate()

    def _validate(self):
        n = self.points.size
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"point count must be a power of two, got {n}")
        if np.unique(self.points).size != n:
            raise ValueError("constellation points must be distinct")
        if self.probs.shape != (n,):
            raise ValueError("probs must have one entry per point")
        if np.any(self.probs <= 0.0):
            raise ValueError("all point probabilities must be positive")
        if abs(self.probs.sum() - 1.0) > _PROB_TOL:
            raise ValueError("point probabilities must sum to 1")
        energy = float(np.sum(self.probs * np.abs(self.points) ** 2))
        if abs(energy - 1.0) > _ENERGY_TOL:
            raise ValueError(f"average energy must be 1, got {energy!r}")
        m = self.bits_per_symbol
        if self.bit_labels.shape != (n, m):
            raise ValueError(f"bit labels must have shape ({n}, {m})")
        if np.any(self.bit_labels > 1):
            raise ValueError("bit labels must be binary")
        packed = self.bit_labels.astype(np.int64) @ (1 << np.arange(m - 1, -1, -1))
        if np.unique(packed).size != n:
            raise ValueError("bit labels must be a bijection onto {0,1}^m")
        if self.sym_order < 1:
            raise ValueError("sym_order must be a positive integer")
        rotated = self.points * np.exp(2j * np.pi / self.sym_order)
        gaps = np.abs(rotated[:, None] - self.points[None, :]).min(axis=1)
        if gaps.max() > _GEOMETRY_TOL:
            raise ValueError("point set is not invariant under 2*pi/sym_order rotation")

    @property
    def num_points(self) -> int:
        return self.points.size

    @property
    def bits_per_symbol(self) -> int:
        return self.points.size.bit_length() - 1

    def axis_decomposition(self) -> AxisDecomposition:
        """Factor the constellation into an in-phase and a quadrature axis.

        Derived from the points, probabilities and labels alone: the points
        must form a product grid of real and imaginary levels (equal to
        1e-9), the probabilities must factor into per-axis marginals (to
        1e-12 relative), and every bit column must be a function of one
        axis level. Raises ValueError otherwise.
        """
        grid = [_axis_levels(part) for part in (self.points.real, self.points.imag)]
        shape = (grid[0][0].size, grid[1][0].size)
        index = (grid[0][1], grid[1][1])
        occupied = np.zeros(shape, dtype=np.int64)
        np.add.at(occupied, index, 1)
        if np.any(occupied != 1):
            raise ValueError("constellation is not separable: points do not form a product grid")
        joint = np.empty(shape)
        joint[index] = self.probs
        marginals = (joint.sum(axis=1), joint.sum(axis=0))
        if np.any(np.abs(joint - np.outer(*marginals)) > _SEPARABLE_PROB_RTOL * joint):
            raise ValueError("constellation is not separable: probabilities do not factor")
        tables = np.empty(shape + (self.bits_per_symbol,), dtype=np.uint8)
        tables[index] = self.bit_labels
        on_i = np.all(tables == tables[:, :1], axis=(0, 1))
        on_q = np.all(tables == tables[:1, :], axis=(0, 1))
        mixed = np.flatnonzero(~(on_i | on_q))
        if mixed.size:
            raise ValueError(f"constellation is not separable: bit {mixed[0]} depends on both axes")
        columns = (np.flatnonzero(on_i), np.flatnonzero(~on_i))
        return AxisDecomposition(
            levels=(grid[0][0], grid[1][0]),
            log_priors=(np.log(marginals[0]), np.log(marginals[1])),
            bit_columns=columns,
            level_bits=(tables[:, 0][:, columns[0]], tables[0][:, columns[1]]),
        )


def build_qam(order: int) -> Constellation:
    """Gray-labeled square QAM with uniform probabilities and unit energy.

    The first half of each label Gray-codes the in-phase level, the second
    half the quadrature level (independent reflected Gray code per axis).
    Points are enumerated I-major; the ordering is part of the seeded
    sampling contract.
    """
    if order not in SQUARE_QAM_ORDERS:
        raise ValueError(f"order must be one of {SQUARE_QAM_ORDERS}, got {order}")
    side = int(round(math.sqrt(order)))
    axis_bits = side.bit_length() - 1
    levels = 2.0 * np.arange(side) - (side - 1)
    gray = np.arange(side) ^ (np.arange(side) >> 1)
    axis_labels = (gray[:, None] >> np.arange(axis_bits - 1, -1, -1)) & 1

    i_idx, q_idx = np.divmod(np.arange(order), side)
    points = levels[i_idx] + 1j * levels[q_idx]
    points = points / math.sqrt(float(np.mean(np.abs(points) ** 2)))
    labels = np.concatenate([axis_labels[i_idx], axis_labels[q_idx]], axis=1)
    probs = np.full(order, 1.0 / order)
    return Constellation(points, probs, labels.astype(np.uint8), 4)


def _lattice_geometry(points: np.ndarray) -> np.ndarray:
    # Rescale so the minimum distance between distinct points is 2. For
    # square QAM this recovers the odd-integer lattice, which makes the
    # shaping exponent independent of the current energy normalization
    # (re-shaping an already shaped constellation replaces its probs
    # rather than compounding them).
    gaps = np.abs(points[:, None] - points[None, :])
    dmin = gaps[gaps > 0].min()
    return points * (2.0 / dmin)


def maxwell_boltzmann_shape(c: Constellation, lam: float) -> Constellation:
    """Apply Maxwell-Boltzmann point probabilities exp(-lam*|x|^2).

    The exponent is evaluated on the unit-spacing lattice geometry; the
    points are then rescaled so the average energy under the new
    probabilities is one.
    """
    if lam < 0:
        raise ValueError("shaping parameter must be nonnegative")
    base = _lattice_geometry(c.points)
    # floor keeps probabilities strictly positive when exp underflows at
    # large lam; the added mass is far below every tolerance in use
    weights = np.maximum(np.exp(-lam * np.abs(base) ** 2), 1e-300)
    probs = weights / weights.sum()
    energy = float(np.sum(probs * np.abs(base) ** 2))
    return Constellation(base / math.sqrt(energy), probs, c.bit_labels, c.sym_order)


def shape_for_entropy(
    c: Constellation, target_bits: float, tol: float = 1e-9, max_iter: int = 200
) -> tuple[Constellation, float]:
    """Pick the shaping parameter so the symbol entropy hits ``target_bits``.

    Monotone bisection on the shaping exponent; entropy is decreasing in
    it, from log2(#points) at 0 down to 2 bits (the four innermost points
    of a square QAM) in the limit.

    Returns the shaped constellation and the chosen parameter.
    """
    m = c.bits_per_symbol
    if not 2.0 <= target_bits <= m:
        raise ValueError(f"target entropy must lie in [2, {m}] bits, got {target_bits}")
    base = _lattice_geometry(c.points)
    e2 = np.abs(base) ** 2

    def h(lam: float) -> float:
        w = np.exp(-lam * e2)
        return entropy_bits(w / w.sum())

    if target_bits >= m - tol:
        return maxwell_boltzmann_shape(c, 0.0), 0.0

    hi = 1.0
    for _ in range(64):
        if h(hi) <= target_bits:
            break
        hi *= 2.0
    lo = 0.0
    lam = hi
    for _ in range(max_iter):
        lam = 0.5 * (lo + hi)
        val = h(lam)
        if abs(val - target_bits) <= tol:
            break
        if val > target_bits:
            lo = lam
        else:
            hi = lam
    shaped = maxwell_boltzmann_shape(c, lam)
    if abs(entropy_bits(shaped.probs) - target_bits) > 1e-6:
        raise RuntimeError("entropy bisection failed to converge")
    return shaped, lam


def sample(c: Constellation, count: int, rng_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` i.i.d. labeled symbols.

    Inverse-CDF sampling over the fixed point ordering, so output is
    bit-exact reproducible for a given seed. Returns (bits, symbols) with
    bits of shape (count, bits_per_symbol).
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(rng_seed)
    cdf = np.cumsum(c.probs)
    idx = np.searchsorted(cdf, rng.random(count), side="right")
    idx = np.minimum(idx, c.num_points - 1)
    return c.bit_labels[idx].copy(), c.points[idx].copy()
