"""Mismatched circular-Gaussian bit-metric demapper and BMI scoring."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import AxisDecomposition, Constellation, entropy_bits

_LLR_CHUNK = 4096
_LN2 = math.log(2.0)

DEFAULT_CLAMP = 50.0
SIGMA_SQ_RANGE = (1e-6, 10.0)
# e^-700 is a normal double, clear of the exponent range below about -707.8
# where numpy's exp leaves its fast path
_WEIGHT_FLOOR = -700.0


@dataclass(frozen=True)
class LlrFrame:
    """Per-symbol, per-bit LLRs with the convention L = log P(b=0)/P(b=1),
    clamped symmetrically to +-clamp."""

    llrs: np.ndarray
    clamp: float


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


def llrs(
    x_hat,
    constellation: Constellation,
    sigma_demap_sq: float,
    clamp: float = DEFAULT_CLAMP,
) -> LlrFrame:
    """Bit-level LLRs of a mismatched circular-Gaussian demapper.

    L_{k,b} = log [ sum_{x: bit_b(x)=0} P(x) e^{-|x_hat_k - x|^2 / sigma^2} ]
            - log [ sum_{x: bit_b(x)=1} P(x) e^{-|x_hat_k - x|^2 / sigma^2} ]

    Shaped symbol priors enter both class sums; everything is computed with
    log-sum-exp and clamped to +-clamp. The constellation must be separable
    (see ``Constellation.axis_decomposition``): each bit then depends on one
    axis only, since the other axis's sum cancels in the ratio, and the sums
    run over that axis's levels.
    """
    if sigma_demap_sq <= 0:
        raise ValueError("sigma_demap_sq must be positive")
    x_hat = np.asarray(x_hat, dtype=np.complex128)
    axes = constellation.axis_decomposition()
    out = np.empty((x_hat.size, constellation.bits_per_symbol))
    for start in range(0, x_hat.size, _LLR_CHUNK):
        stop = min(start + _LLR_CHUNK, x_hat.size)
        out[start:stop] = AxisDemapper(x_hat[start:stop], axes).llrs(sigma_demap_sq, clamp).T
    return LlrFrame(out, clamp)


class AxisDemapper:
    """The demapper kernel of scoring and training, one axis at a time.

    Binds a block of K symbols to a separable constellation's per-axis
    decomposition and keeps the squared offsets of each coordinate from its
    axis levels, so a candidate variance costs one exponential per axis
    level and symbol. Arrays are bit-major, (m, K), so that every
    elementwise pass runs over contiguous symbols. ``backward``
    differentiates the last ``llrs`` call.

    Log-weights are shifted to a peak of 0 per symbol and floored at -700
    before the exponential: a result that is subnormal, or near the
    underflow threshold, makes the exp up to 60x and the class-sum product
    up to 40x slower. The floor moves no LLR within the clamp: on an axis of
    n levels it adds less than n e^-700 to a class sum, while both class
    sums of an LLR with |L| <= clamp are at least e^-clamp (one of them
    holds the peak weight 1). That is a relative change below 2^-54, a
    quarter ulp, whenever clamp <= 700 - ln n - 54 ln 2 (660 for 8 levels);
    for a larger clamp no floor is applied.
    """

    def __init__(self, x_hat: np.ndarray, axes: AxisDecomposition):
        self._axes = axes
        self._coords = (x_hat.real, x_hat.imag)
        self._selectors = tuple(_class_selector(bits) for bits in axes.level_bits)
        self._d2 = tuple(
            np.square(c[None, :] - lv[:, None]) for c, lv in zip(self._coords, axes.levels)
        )
        self._weights = tuple(np.empty_like(d2) for d2 in self._d2)
        self._last = None

    def llrs(self, sigma_sq: float, clamp: float) -> np.ndarray:
        """(m, K) LLRs at demapper variance ``sigma_sq``, clamped to +-clamp."""
        num_bits = sum(cols.size for cols in self._axes.bit_columns)
        raw = np.empty((num_bits, self._d2[0].shape[1]))
        class_sums = []
        for cols, log_prior, selector, d2, weights in zip(
            self._axes.bit_columns, self._axes.log_priors, self._selectors, self._d2, self._weights
        ):
            np.multiply(d2, -1.0 / sigma_sq, out=weights)
            weights += log_prior[:, None]
            weights -= weights.max(axis=0)
            if clamp <= -_WEIGHT_FLOOR - math.log(log_prior.size) - 54.0 * _LN2:
                np.maximum(weights, _WEIGHT_FLOOR, out=weights)
            np.exp(weights, out=weights)
            sums = selector @ weights
            class_sums.append(sums)
            # the column peak cancels in the ratio; a class whose mass
            # underflows relative to it yields an infinite LLR, removed by
            # the clamp
            with np.errstate(divide="ignore"):
                log_sums = np.log(sums)
            raw[cols] = log_sums[0::2] - log_sums[1::2]
        self._last = (sigma_sq, clamp, raw, class_sums)
        return np.clip(raw, -clamp, clamp)

    def backward(self, g_llr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """d loss / d Re x_hat and d loss / d Im x_hat from the (m, K)
        d loss / d L. A clamped LLR is constant in x_hat and passes no
        gradient."""
        sigma_sq, clamp, raw, class_sums = self._last
        g_llr = np.where(np.abs(raw) <= clamp, g_llr, 0.0)  # +-inf is saturated too
        grads = []
        for cols, levels, coord, selector, weights, sums in zip(
            self._axes.bit_columns,
            self._axes.levels,
            self._coords,
            self._selectors,
            self._weights,
            class_sums,
        ):
            # fold d llr / d class_sums into one (2m, K) coefficient
            coef = np.empty_like(sums)
            coef[0::2] = g_llr[cols]
            coef[1::2] = -g_llr[cols]
            np.divide(coef, sums, out=coef, where=coef != 0.0)
            d_metric = weights * (selector.T @ coef)
            d_metric *= coord[None, :] - levels[:, None]
            grads.append(d_metric.sum(axis=0) * (-2.0 / sigma_sq))
        return grads[0], grads[1]


def _class_selector(level_bits: np.ndarray) -> np.ndarray:
    # (2m, levels): even rows pick bit=0 levels, odd rows bit=1; both class
    # sums per bit come out of one matrix product
    selector = np.zeros((2 * level_bits.shape[1], level_bits.shape[0]))
    selector[0::2] = (level_bits == 0).T
    selector[1::2] = (level_bits == 1).T
    return selector


def bmi(bits, llr_frame: LlrFrame, constellation: Constellation) -> float:
    """Bit-wise mutual information in bits per symbol.

    H(X) minus the per-bit binary cross entropies evaluated from the LLRs;
    the raw (possibly negative) value is returned.
    """
    bits = np.asarray(bits)
    if bits.shape != llr_frame.llrs.shape:
        raise ValueError("bits and LLRs must have matching shapes")
    penalty = softplus(-bit_signs(bits) * llr_frame.llrs).sum() / (bits.shape[0] * _LN2)
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
    clamp: float = DEFAULT_CLAMP,
    edge_excluded: bool = False,
) -> tuple[float, BmiReport]:
    """Maximize BMI over the demapper noise variance.

    Bounded Brent search on log sigma^2 over [1e-6, 10] with tolerance 1e-4
    in the log domain. The per-axis offsets are computed once and shared by
    every candidate variance. A frame of identical symbols cannot carry
    information about the variance and is returned flagged as degenerate.

    The smallest variance, 1e-6, is scored first. If every LLR there sits
    at the clamp with the correct sign, each bit's cross entropy is at its
    floor softplus(-clamp), which no variance can undercut since |L| <= clamp
    everywhere: the BMI is flat at its maximum and 1e-6 is returned without
    a search. Such frames (noiseless, or 24 dB at small phase noise) would
    otherwise get an arbitrary point of the flat top.
    """
    x_hat = np.asarray(x_hat, dtype=np.complex128)
    bits = np.asarray(bits)
    if x_hat.size == 0:
        raise ValueError("empty frame")
    if bits.shape != (x_hat.size, constellation.bits_per_symbol):
        raise ValueError("bits must have one row of bits_per_symbol labels per symbol")
    degenerate = bool(np.all(x_hat == x_hat.flat[0]))
    demapper = AxisDemapper(x_hat, constellation.axis_decomposition())
    neg_sign = np.ascontiguousarray(-bit_signs(bits).T)
    entropy = entropy_bits(constellation.probs)
    scale = 1.0 / (x_hat.size * _LN2)

    def score(log_sigma_sq: float) -> float:
        llr = demapper.llrs(math.exp(log_sigma_sq), clamp)
        return entropy - float(softplus(llr * neg_sign).sum()) * scale

    if degenerate:
        sigma_sq = math.sqrt(SIGMA_SQ_RANGE[0] * SIGMA_SQ_RANGE[1])
        best = score(math.log(sigma_sq))
    else:
        sigma_sq = SIGMA_SQ_RANGE[0]
        floor = demapper.llrs(sigma_sq, clamp) * neg_sign
        if np.all(floor == -clamp):
            best = entropy - float(softplus(floor).sum()) * scale
        else:
            floor = None  # not kept alive through the search
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
