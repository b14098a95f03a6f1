"""Mismatched circular-Gaussian bit-metric demapper and BMI scoring."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import AxisDecomposition, Constellation, entropy_bits
from .numerics import CorePool, free_cores

# symbols per block of ``demapper_blocks``, which the variance search, the
# training loss and ``llrs`` all score with
DEMAP_CHUNK = 8192
_LN2 = math.log(2.0)

# every LLR is clipped to +-LLR_CLAMP; the kernel reads it at each call
LLR_CLAMP = 50.0
SIGMA_SQ_RANGE = (1e-6, 10.0)
# e^-700 is a normal double, clear of the exponent range below about -707.8
# where numpy's exp leaves its fast path
_WEIGHT_FLOOR = -700.0


@dataclass(frozen=True)
class BmiReport:
    """BMI of one scored frame.

    ``bmi_bits`` is clamped into [0, entropy_bits]; ``negative_clamped``
    records that the raw value was pathological (below zero).
    ``degenerate`` flags frames whose symbols were all identical.
    """

    bmi_bits: float
    entropy_bits: float
    demapper_sigma_sq: float
    num_symbols_scored: int
    edge_excluded: bool
    negative_clamped: bool = False
    degenerate: bool = False


def llrs(x_hat, constellation: Constellation, sigma_demap_sq: float) -> np.ndarray:
    """(K, m) bit-level LLRs of a mismatched circular-Gaussian demapper,
    with the convention L = log P(b=0)/P(b=1).

    L_{k,b} = log [ sum_{x: bit_b(x)=0} P(x) e^{-|x_hat_k - x|^2 / sigma^2} ]
            - log [ sum_{x: bit_b(x)=1} P(x) e^{-|x_hat_k - x|^2 / sigma^2} ]

    Shaped symbol priors enter both class sums; everything is computed with
    log-sum-exp and clamped to +-``LLR_CLAMP``. The constellation must be
    separable (see ``Constellation.axis_decomposition``): each bit then
    depends on one axis only, since the other axis's sum cancels in the
    ratio, and the sums run over that axis's levels.
    """
    if sigma_demap_sq <= 0:
        raise ValueError("sigma_demap_sq must be positive")
    x_hat = np.asarray(x_hat, dtype=np.complex128)
    out = np.empty((x_hat.size, constellation.bits_per_symbol))
    for rows, block in demapper_blocks(x_hat, constellation):
        out[rows] = block.llrs(sigma_demap_sq).T
    return out


def demapper_blocks(
    x_hat: np.ndarray, constellation: Constellation, bits: np.ndarray | None = None
):
    """Yield (rows, AxisDemapper) for each block of ``DEMAP_CHUNK`` symbols
    of ``x_hat`` (with their ``bits``), building each block only when it is
    reached; ``rows`` is the block's slice of the frame."""
    axes = constellation.axis_decomposition()
    for start in range(0, x_hat.size, DEMAP_CHUNK):
        rows = slice(start, start + DEMAP_CHUNK)
        yield rows, AxisDemapper(x_hat[rows], axes, None if bits is None else bits[rows])


class AxisDemapper:
    """The demapper kernel of scoring and training, one axis at a time.

    Binds a block of K symbols (at most ``DEMAP_CHUNK``), and optionally
    their bits, to a separable constellation's per-axis decomposition. It
    keeps the squared offsets of each coordinate from its axis levels and,
    given the bits, where each bit's two class sums sit, so a candidate
    variance costs one exponential per axis level and symbol. Arrays are
    bit-major, (m, K), so that every elementwise pass runs over contiguous
    symbols.

    On an axis of n levels the log-weights are z_l = -d_l^2 / sigma^2 +
    log p_l, shifted to a peak of 0 per symbol and floored at -700 before
    the exponential: a result that is subnormal, or near the underflow
    threshold, makes the exp up to 60x and the class-sum product up to 40x
    slower. With w_l = e^z_l, a bit's class sums are the two rows of
    ``selector @ w`` that its 0 and its 1 pick. S_correct is the row that
    the symbol's bit picks, S_wrong the other one, and S_total their sum.
    With c = ``LLR_CLAMP``, ``llrs`` returns L = log S_0 - log S_1
    clipped to +-c. ``cross_entropy`` sums, per bit, clip(log S_total -
    log S_correct, softplus(-c), softplus(c)), computed as log1p(S_wrong /
    S_correct) so that it keeps its relative precision far below 1 nat.
    For a bit of sign s the raw value is softplus(-s L), and softplus is
    increasing, so this equals softplus(-s clip(L, -c, c)): a bit is
    clipped where its LLR is clamped, up to rounding.

    The floor moves no value within the clamp. It adds less than n e^-700
    to a class sum, while both class sums of a bit with |L| <= c, which
    takes in every unclipped bit, are at least e^-c (one of them holds the
    peak weight 1). That is a relative change below 2^-54, a quarter ulp,
    whenever c <= 700 - ln n - 54 ln 2: 659.8 for the 16 levels of
    256-QAM, the most of any order here, against c = 50.
    """

    def __init__(self, x_hat: np.ndarray, axes: AxisDecomposition, bits: np.ndarray | None = None):
        self._axes = axes
        self._coords = (x_hat.real, x_hat.imag)
        self._selectors = tuple(_class_selector(b) for b in axes.level_bits)
        self._d2 = tuple(
            np.square(c[None, :] - lv[:, None]) for c, lv in zip(self._coords, axes.levels)
        )
        self._weights = tuple(np.empty_like(d2) for d2 in self._d2)
        if bits is not None:
            # flat (m, K) indices, into an axis's (2m, K) class sums, of the
            # row that each symbol's bit picks (row 2j for a 0 in the axis's
            # bit j, 2j + 1 for a 1) and of the other row of the pair
            offset = np.arange(x_hat.size)
            self._picks = []
            for cols in axes.bit_columns:
                rows = 2 * np.arange(cols.size)[:, None] + bits[:, cols].T
                self._picks.append((rows * x_hat.size + offset, (rows ^ 1) * x_hat.size + offset))

    def _class_sums(self, axis: int, sigma_sq: float) -> np.ndarray:
        """(2m, K) class sums of one axis; leaves w in ``_weights[axis]``."""
        weights = self._weights[axis]
        np.multiply(self._d2[axis], -1.0 / sigma_sq, out=weights)
        weights += self._axes.log_priors[axis][:, None]
        weights -= weights.max(axis=0)
        np.maximum(weights, _WEIGHT_FLOOR, out=weights)
        np.exp(weights, out=weights)
        return self._selectors[axis] @ weights

    def llrs(self, sigma_sq: float) -> np.ndarray:
        """(m, K) LLRs at demapper variance ``sigma_sq``, clamped to +-``LLR_CLAMP``."""
        raw = np.empty((sum(cols.size for cols in self._axes.bit_columns), self._d2[0].shape[1]))
        for axis, cols in enumerate(self._axes.bit_columns):
            # the column peak cancels in the ratio; the floor keeps every
            # class sum at e^-700 or more, so each log is finite
            log_sums = np.log(self._class_sums(axis, sigma_sq))
            raw[cols] = log_sums[0::2] - log_sums[1::2]
        return np.clip(raw, -LLR_CLAMP, LLR_CLAMP)

    def _penalties(self, axis: int, sigma_sq: float):
        """(raw, S_correct, S_wrong) of one axis, where raw is the (m, K)
        unclipped cross entropy log S_total - log S_correct."""
        sums = self._class_sums(axis, sigma_sq)
        s_correct, s_wrong = (sums.take(picks) for picks in self._picks[axis])
        raw = np.divide(s_wrong, s_correct)
        np.log1p(raw, out=raw)
        return raw, s_correct, s_wrong

    def cross_entropy(self, sigma_sq: float, flat_only: bool = False) -> float | None:
        """Summed per-bit cross entropy in nats, each bit's clipped to
        [softplus(-c), softplus(c)] for c = ``LLR_CLAMP``. With ``flat_only``
        it returns None at the first axis with a bit above softplus(-c)."""
        low, high = _penalty_range()
        total = 0.0
        for axis in range(2):
            raw = self._penalties(axis, sigma_sq)[0]
            if flat_only and np.any(raw > low):
                return None
            total += float(np.clip(raw, low, high, out=raw).sum())
        return total

    def cross_entropy_grad(self, sigma_sq: float):
        """(``cross_entropy``, its derivatives in Re x_hat and in Im x_hat).

        d CE_b / d z_l = w_l / S_total - [l in correct_b] w_l / S_correct_b,
        and d z_l / d x = -2 (x - level_l) / sigma^2. A clipped bit is
        constant in x_hat and passes no gradient.
        """
        low, high = _penalty_range()
        total = 0.0
        grads = []
        for axis in range(2):
            raw, s_correct, s_wrong = self._penalties(axis, sigma_sq)
            kept = (raw >= low) & (raw <= high)
            total += float(np.clip(raw, low, high, out=raw).sum())
            # per kept bit, w_l / S_total on the wrong class's levels and
            # w_l (1 / S_total - 1 / S_correct) = -w_l (S_wrong / S_correct)
            # / S_total on the correct class's; 0 on clipped bits
            on_wrong = kept / (s_correct + s_wrong)
            on_correct = on_wrong * s_wrong
            on_correct /= -s_correct
            coef = np.empty((2 * raw.shape[0], raw.shape[1]))
            coef.put(self._picks[axis][0], on_correct)
            coef.put(self._picks[axis][1], on_wrong)
            d_z = self._selectors[axis].T @ coef
            d_z *= self._weights[axis]
            d_z *= self._coords[axis][None, :] - self._axes.levels[axis][:, None]
            grads.append(d_z.sum(axis=0) * (-2.0 / sigma_sq))
        return total, grads[0], grads[1]


def _penalty_range() -> tuple[float, float]:
    """(softplus(-c), softplus(c)) for c = ``LLR_CLAMP``: the cross entropy
    of a bit whose LLR sits at the clamp with the correct sign, and with
    the wrong one."""
    low = math.log1p(math.exp(-LLR_CLAMP))
    return low, LLR_CLAMP + low


def _class_selector(level_bits: np.ndarray) -> np.ndarray:
    # (2m, levels): even rows pick bit=0 levels, odd rows bit=1; both class
    # sums per bit come out of one matrix product
    selector = np.zeros((2 * level_bits.shape[1], level_bits.shape[0]))
    selector[0::2] = (level_bits == 0).T
    selector[1::2] = (level_bits == 1).T
    return selector


def bmi(bits, llrs: np.ndarray, constellation: Constellation) -> float:
    """Bit-wise mutual information in bits per symbol.

    H(X) minus the per-bit binary cross entropies evaluated from the (K, m)
    LLRs (as ``llrs`` returns them); the raw (possibly negative) value is
    returned.
    """
    bits = np.asarray(bits)
    if bits.shape != llrs.shape:
        raise ValueError("bits and LLRs must have matching shapes")
    penalty = softplus(-bit_signs(bits) * llrs).sum() / (bits.shape[0] * _LN2)
    return entropy_bits(constellation.probs) - float(penalty)


def bit_signs(bits: np.ndarray) -> np.ndarray:
    """+1 for a 0 bit, -1 for a 1 bit: the sign a correct LLR has."""
    return 1.0 - 2.0 * bits.astype(np.float64)


def softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + e^z) elementwise. At z = -sign * L it is the binary cross
    entropy, in nats, of LLR L for a bit of that sign."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
_SQRT_EPS = math.sqrt(np.finfo(float).eps)


def _brent_max(fun, lo: float, hi: float, tol: float):
    """Maximum of a unimodal function on [lo, hi] by bounded Brent.

    Brent's (1973) minimizer without derivatives: parabolic interpolation
    through the three best points, with a golden-section step whenever the
    parabola would leave the bracket or fail to shrink it. Stops once the
    best point is within ``tol`` (plus a relative sqrt(eps)) of the argmax.
    Returns (argmax, max).
    """
    a, b = lo, hi
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = -fun(x)
    step = prev_step = 0.0
    while True:
        mid = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + tol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (b - a):
            return x, -fx
        parabolic = False
        if abs(prev_step) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            older, prev_step = prev_step, step
            if abs(p) < abs(0.5 * q * older) and q * (a - x) < p < q * (b - x):
                step = p / q
                parabolic = True
                if (x + step - a) < tol2 or (b - x - step) < tol2:
                    step = tol1 if mid >= x else -tol1
        if not parabolic:
            prev_step = (a - x) if x >= mid else (b - x)
            step = _GOLDEN * prev_step
        u = x + (step if abs(step) >= tol1 else math.copysign(tol1, step))
        fu = -fun(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def optimize_demapper_variance(
    x_hat,
    bits,
    constellation: Constellation,
    edge_excluded: bool = False,
) -> tuple[float, BmiReport]:
    """Maximize BMI over the demapper noise variance.

    Bounded Brent search on log sigma^2 over [1e-6, 10] with tolerance 1e-4
    in the log domain. The per-axis offsets and the index of each bit's
    correct class are computed once and shared by every candidate variance.
    A frame of identical symbols cannot carry information about the
    variance and is returned flagged as degenerate.

    The frame is scored in the blocks of ``demapper_blocks``, all kept, by
    ``AxisDemapper.cross_entropy``. The smallest variance, 1e-6, is probed
    first. If every bit's cross entropy there sits at its floor
    softplus(-``LLR_CLAMP``), which no variance can undercut since the
    kernel clips at it, the BMI is flat at its maximum and 1e-6 is returned
    without a search. Such frames (noiseless, or 24 dB at small phase
    noise) would otherwise get an arbitrary point of the flat top. The
    probe stops at the first block and axis with a bit above the floor, so
    on other frames it costs a fraction of one evaluation, and it runs in
    the caller's thread. Every other evaluation scores the blocks on one
    ``CorePool`` of up to ``free_cores()`` threads, held for the whole
    search, and sums the block totals in block order, so the result does
    not depend on the thread count.
    """
    x_hat = np.asarray(x_hat, dtype=np.complex128)
    bits = np.asarray(bits)
    if x_hat.size == 0:
        raise ValueError("empty frame")
    if bits.shape != (x_hat.size, constellation.bits_per_symbol):
        raise ValueError("bits must have one row of bits_per_symbol labels per symbol")
    degenerate = bool(np.all(x_hat == x_hat.flat[0]))
    blocks = [block for _, block in demapper_blocks(x_hat, constellation, bits)]
    entropy = entropy_bits(constellation.probs)
    scale = 1.0 / (x_hat.size * _LN2)

    def flat_floor(sigma_sq: float) -> float | None:
        total = 0.0
        for block in blocks:
            part = block.cross_entropy(sigma_sq, flat_only=True)
            if part is None:
                return None
            total += part
        return total

    with CorePool(min(free_cores(), len(blocks))) as run:

        def score(log_sigma_sq: float) -> float:
            variance = math.exp(log_sigma_sq)
            total = 0.0
            for part in run(lambda block: block.cross_entropy(variance), blocks):
                total += part
            return entropy - total * scale

        if degenerate:
            sigma_sq = math.sqrt(SIGMA_SQ_RANGE[0] * SIGMA_SQ_RANGE[1])
            best = score(math.log(sigma_sq))
        else:
            sigma_sq = SIGMA_SQ_RANGE[0]
            floor = flat_floor(sigma_sq)
            if floor is not None:
                best = entropy - floor * scale
            else:
                log_best, best = _brent_max(
                    score, math.log(SIGMA_SQ_RANGE[0]), math.log(SIGMA_SQ_RANGE[1]), tol=1e-4
                )
                sigma_sq = math.exp(log_best)

    clamped = min(max(best, 0.0), entropy)
    report = BmiReport(
        bmi_bits=clamped,
        entropy_bits=entropy,
        demapper_sigma_sq=sigma_sq,
        num_symbols_scored=int(x_hat.size),
        edge_excluded=edge_excluded,
        negative_clamped=best < 0.0,
        degenerate=degenerate,
    )
    return sigma_sq, report
