"""Feed-forward phase estimators for the Wiener phase-noise channel.

Four estimators over a common grid of test phases, each deciding on the
(K, M) tables of ``_distance_tables`` (map_bp also on ``q_matrix``):

* ``bps_estimate``      - windowed blind phase search (argmin of summed
  minimum symbol distances);
* ``cpn_estimate``      - constant-phase-noise MAP variant (argmax of the
  windowed sum of log emission factors, priors included);
* ``map_bp_estimate``   - sum-product marginalization on the chain factor
  graph (windowed per output symbol, optional full-sequence variant);
* ``bps_opt_estimate``  - weighted softmin BPS with a complex-exponential
  phase readout, differentiable in its window weights and temperature.

Emission factors R and transition factors Q are kept in the log domain
throughout; message recursions renormalize (every step, or in windowed BP
only near underflow and at the last step), which never changes the argmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .constellation import Constellation
from .numerics import CorePool, free_cores, logsumexp, softmax, wrap_sector

_TABLE_CHUNK_BYTES = 2**16
_BP_BLOCK_ROWS = 1024
_BP_THREAD_MIN_PHASES = 32
_FULL_BP_BLOCK_ROWS = 1024
_DEGENERATE_Q_FLOOR = 1e-12
_READOUT_FLOOR = 1e-12


@dataclass(frozen=True)
class PhaseGrid:
    """Test phases phi_i = -pi/n + (i-1)*2*pi/(n*M) covering one symmetry sector."""

    phases: np.ndarray
    m_count: int
    sym_order: int

    def __post_init__(self):
        phases = np.ascontiguousarray(self.phases, dtype=np.float64)
        phases.setflags(write=False)
        object.__setattr__(self, "phases", phases)


def make_grid(m_count: int, sym_order: int = 4) -> PhaseGrid:
    """Uniform grid of ``m_count`` test phases over [-pi/n, pi/n)."""
    if m_count < 2:
        raise ValueError("need at least 2 test phases")
    if sym_order < 1:
        raise ValueError("sym_order must be a positive integer")
    idx = np.arange(m_count, dtype=np.float64)
    phases = -np.pi / sym_order + idx * (2.0 * np.pi) / (sym_order * m_count)
    return PhaseGrid(phases, m_count, sym_order)


@dataclass(frozen=True)
class EstimatorConfig:
    """Shared estimator knobs.

    ``half_window`` is N (window length 2N+1; N=0 degenerates to a
    single-symbol window). ``sigma_n_sq`` and ``sigma_theta_sq`` are the
    noise parameters assumed by the estimator, which may differ from the
    channel truth; ``sigma_n_sq`` is the per-component (real/imag) noise
    variance, so the emission kernel exp(-d^2/(2 sigma_n_sq)) is matched to
    a circular Gaussian of total variance 2 sigma_n_sq. ``full_sequence_bp``
    switches the BP estimator to one forward/backward pass over the whole
    sequence instead of per-symbol windows.
    """

    half_window: int
    grid: PhaseGrid
    sigma_n_sq: float
    sigma_theta_sq: float
    full_sequence_bp: bool = False

    def __post_init__(self):
        if self.half_window < 0:
            raise ValueError("half_window must be nonnegative")
        if self.sigma_n_sq <= 0:
            raise ValueError("sigma_n_sq must be positive")
        if self.sigma_theta_sq < 0:
            raise ValueError("sigma_theta_sq must be nonnegative")


@dataclass(frozen=True)
class BpsOptParams:
    """Window weights (on the simplex) and softmin temperature.

    Only the raw values training operates on are fields; ``weights``, the
    softmax of ``raw_weights``, and ``temperature``, the exponential of
    ``raw_temp``, are derived from them, so the constraints hold exactly.
    """

    raw_weights: np.ndarray
    raw_temp: float

    def __post_init__(self):
        raw_weights = np.ascontiguousarray(self.raw_weights, dtype=np.float64)
        weights = softmax(raw_weights)
        for name, arr in (("raw_weights", raw_weights), ("weights", weights)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "raw_temp", float(self.raw_temp))
        object.__setattr__(self, "temperature", float(np.exp(self.raw_temp)))
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")

    @classmethod
    def from_raw(cls, raw_weights, raw_temp: float) -> "BpsOptParams":
        return cls(raw_weights, raw_temp)

    @classmethod
    def uniform(cls, half_window: int, temperature: float = 0.1) -> "BpsOptParams":
        return cls.from_raw(np.zeros(2 * half_window + 1), math.log(temperature))


def _row_blocks(size: int, rows: int):
    """[start, stop) pairs of ``rows`` rows each, the last one taking the
    remainder, so no block is shorter than ``rows`` unless ``size`` is."""
    starts = list(range(0, max(size - rows, 0) + 1, rows))
    return zip(starts, starts[1:] + [size])


def _on_free_cores(fill, count: int) -> None:
    """Run ``fill(group)`` on ``CorePool`` threads, one per free core (at
    most ``count``), where the groups are contiguous slices covering
    range(count)."""
    groups = max(1, min(free_cores(), count))
    cuts = [count * i // groups for i in range(groups + 1)]
    with CorePool(groups) as run:
        run(fill, [slice(a, b) for a, b in zip(cuts, cuts[1:])])


def _distance_tables(
    y,
    grid: PhaseGrid,
    constellation: Constellation,
    sigma_n_sq: float | None,
    want_min: bool,
    want_log_r: bool,
    pad: int | None = None,
):
    """Shared chunked pass over |y_k - x e^{j phi_m}|^2, one axis at a time.

    Rotation keeps distances, so |y - x e^{j phi}|^2 = |z - x|^2 with
    z = y e^{-j phi}. The constellation must be separable (see
    ``Constellation.axis_decomposition``; ValueError otherwise): x = a + jb
    runs over a product of in-phase levels a and quadrature levels b with
    P(x) = P_I(a) P_Q(b), so both tables split into per-axis terms over
    sqrt(X) levels each, with c the axis's coordinate of z:

        d_min = sum over axes of min_l (c - l)^2
        log R = sum over axes of logsumexp_l(log P(l) - (c - l)^2 / (2 sigma^2))

    That is 2 sqrt(X) exponentials per (k, m) instead of X, and the offsets
    c - l lose nothing to cancellation. Chunks are sized in bytes: each
    (rows, M) float64 plane holds ``_TABLE_CHUNK_BYTES`` (64 KiB, 136 rows
    at M=60), so a chunk's (levels, rows, M) offsets stay in cache; the
    last chunk takes the remainder. Every entry depends on its own row
    alone, so the budget never changes a bit of the output, down to
    one-row chunks. For the same reason the chunks can be split into one
    contiguous group per free core (``_on_free_cores``), each group
    writing only its own rows of the tables, without changing a bit.

    The tables go to one of two destinations. With ``pad`` None they are
    (K, M). With ``pad`` = N they are phase-major, (M, K + 2N) with N zero
    columns on each side, the layout the softmin reads (``softmin_readout``),
    and symbol k is column N + k; the chunks are then (levels, M, rows), so
    each chunk writes contiguous runs of its phase rows. Either way an entry
    is the same products, the same exact minimum and the same per-plane sums
    over the levels in level order, added to 0 axis by axis, so both
    destinations hold the same bytes; only the layout in memory differs.
    """
    y = np.asarray(y, dtype=np.complex128)
    size, m_count = y.size, grid.m_count
    axes = constellation.axis_decomposition()
    cos, sin = np.cos(grid.phases), np.sin(grid.phases)
    if pad is None:
        shape = (size, m_count)
    else:
        # one phase per row: the chunks broadcast (M, 1) against (rows,)
        shape = (m_count, size + 2 * pad)
        cos, sin = cos[:, None], sin[:, None]
    d_min = np.zeros(shape) if want_min else None
    log_r = np.zeros(shape) if want_log_r else None
    inv2s = 1.0 / (2.0 * sigma_n_sq) if want_log_r else 0.0
    chunk = max(1, _TABLE_CHUNK_BYTES // (8 * m_count))
    chunks = list(_row_blocks(size, chunk))

    def fill(group: slice) -> None:
        for start, stop in chunks[group]:
            u, v = y.real[start:stop], y.imag[start:stop]
            if pad is None:
                u, v, rows = u[:, None], v[:, None], slice(start, stop)
            else:
                rows = (slice(None), slice(pad + start, pad + stop))
            coords = (u * cos + v * sin, v * cos - u * sin)  # z = y e^{-j phi}
            for coord, levels, log_prior in zip(coords, axes.levels, axes.log_priors):
                d2 = coord[None] - levels[:, None, None]  # (levels, rows, M) or (levels, M, rows)
                np.square(d2, out=d2)
                if want_min:
                    d_min[rows] += d2.min(axis=0)
                if want_log_r:
                    d2 *= -inv2s
                    d2 += log_prior[:, None, None]
                    peak = d2.max(axis=0)
                    d2 -= peak
                    np.exp(d2, out=d2)
                    log_r[rows] += peak + np.log(d2.sum(axis=0))

    _on_free_cores(fill, len(chunks))
    return d_min, log_r


def min_distance_table(y, grid: PhaseGrid, constellation: Constellation) -> np.ndarray:
    """d[k, m] = min over x of |y_k - x e^{j phi_m}|^2."""
    d_min, _ = _distance_tables(y, grid, constellation, None, want_min=True, want_log_r=False)
    return d_min


def q_matrix(grid: PhaseGrid, sigma_theta_sq: float) -> np.ndarray:
    """Log wrapped-normal transition matrix, rows normalized to sum 1.

    Entry (i, j) is the log probability of stepping from grid phase i to
    grid phase j. The wrapping sum is truncated at max(3, ceil(5 sigma_theta
    n / (2 pi))) wraps each way; a zero increment variance is replaced by a
    tiny floor so the kernel degenerates to (numerically) an identity
    instead of a special-cased delta.
    """
    if sigma_theta_sq < 0:
        raise ValueError("sigma_theta_sq must be nonnegative")
    var = max(sigma_theta_sq, _DEGENERATE_Q_FLOOR)
    n = grid.sym_order
    period = 2.0 * np.pi / n
    r_eff = max(3, int(math.ceil(5.0 * math.sqrt(var) * n / (2.0 * np.pi))))
    shifts = period * np.arange(-r_eff, r_eff + 1)
    diff = grid.phases[:, None] - grid.phases[None, :]
    log_terms = -((diff[:, :, None] + shifts[None, None, :]) ** 2) / (2.0 * var)
    logq = logsumexp(log_terms, axis=2)
    return logq - logsumexp(logq, axis=1, keepdims=True)


def _cumulative_sums(table: np.ndarray, half_window: int) -> np.ndarray:
    """The column cumulative sums S of the table with N + 1 zero rows in
    front and N behind, so that row k's window sum, truncated at the
    edges, is S[2N + 1 + k] - S[k]: adding a zero row leaves a partial sum
    exact, and the edge rows get truncated windows."""
    size, width = table.shape
    w = half_window
    sums = np.zeros((size + 2 * w + 1, width))
    sums[w + 1 : w + 1 + size] = table
    np.cumsum(sums, axis=0, out=sums)
    return sums


def _windowed_pick(table: np.ndarray, half_window: int, pick) -> np.ndarray:
    """``pick`` (np.argmin or np.argmax) of each row's window sums over the
    columns. The differences S[2N + 1 + a : 2N + 1 + b] - S[a : b] of the
    ``_cumulative_sums`` are taken in slabs of rows [a, b), each one a
    (rows, M) plane of ``_TABLE_CHUNK_BYTES`` (the last one takes the
    remainder), so the (K, M) window sums never exist. Every row is picked
    from its own differences, so the slabs change no index."""
    size, width = table.shape
    sums = _cumulative_sums(table, half_window)
    ends = sums[2 * half_window + 1 :]
    picked = np.empty(size, dtype=np.intp)
    rows = max(1, _TABLE_CHUNK_BYTES // (8 * width))
    for a, b in _row_blocks(size, rows):
        pick(ends[a:b] - sums[a:b], axis=1, out=picked[a:b])
    return picked


def _check_length(table, cfg: EstimatorConfig):
    if len(table) < 2 * cfg.half_window + 1:
        raise ValueError("sequence shorter than the estimation window")


def bps_estimate(d_table, cfg: EstimatorConfig) -> np.ndarray:
    """Blind phase search on the (K, M) distance table: per-symbol argmin of
    the windowed sum of minimum symbol distances. Windows are truncated at
    the sequence edges; argmin ties break to the lowest grid index. The
    argmin is taken slab by slab from one cumulative sum
    (``_windowed_pick``), so besides that sum no (K, M) array is built.
    """
    _check_length(d_table, cfg)
    return cfg.grid.phases[_windowed_pick(d_table, cfg.half_window, np.argmin)]


def cpn_estimate(log_r, cfg: EstimatorConfig) -> np.ndarray:
    """Constant-phase-noise MAP on the (K, M) log emission table: argmax of
    the windowed sum of log emission factors (symbol priors included,
    transition model dropped), taken slab by slab as in ``bps_estimate``.
    """
    _check_length(log_r, cfg)
    return cfg.grid.phases[_windowed_pick(log_r, cfg.half_window, np.argmax)]


_MESSAGE_FLOOR = 1e-300
_RESCALE_BELOW = 2.0**-64
_WINDOWED_Q_FLUSH = 2.0**-700


def _linear_transitions(log_q, flush: float = np.finfo(np.float64).tiny) -> np.ndarray:
    # exp(log_q) with the entries below `flush` set to 0: a subnormal
    # operand or product makes every product that touches it several times
    # slower, and the bound on what a flushed entry can move is in
    # map_bp_estimate
    q_lin = np.exp(log_q)
    q_lin[q_lin < flush] = 0.0
    return q_lin


def _step_columns(messages, v, r_lin, log_r, q_lin_t, last: bool):
    # One sum-product step, in place, for a batch of (M, n) column messages:
    # multiply in the emission into the buffer v, divide a column by its
    # peak only if the peak fell below _RESCALE_BELOW or this is the last
    # step, push through the transition matrix. Columns whose linear
    # product underflows entirely are recomputed through the log domain,
    # which always has a finite peak.
    np.multiply(messages, r_lin, out=v)
    peak = v.max(axis=0)
    dead = peak < _MESSAGE_FLOOR
    if np.any(dead):
        with np.errstate(divide="ignore"):
            b = np.log(messages[:, dead]) + log_r[:, dead]
        v[:, dead] = np.exp(b - b.max(axis=0))
        peak[dead] = 1.0
    if last:
        v /= peak
    else:
        low = peak < _RESCALE_BELOW
        if np.any(low):
            v[:, low] /= peak[low]
    np.matmul(q_lin_t, v, out=messages)


def _windowed_messages(log_r, q_lin_t, half_window: int, keep: slice):
    # log_r is the (M, rows) transpose of a block and its halos, `keep` its
    # output columns. The forward and backward messages are (M, kept)
    # arrays of the kept columns only: forward column j folds in emission
    # column keep.start + j - s at step s, backward column j emission column
    # keep.start + j + s, and a step is one (M, M) @ (M, n) product. Every
    # column a step reaches is reached again at s = 1, the last step.
    size = log_r.shape[1]
    off, kept = keep.start, keep.stop - keep.start
    r_lin = np.exp(log_r - log_r.max(axis=0))
    fwd = np.ones((log_r.shape[0], kept))
    bwd = np.ones_like(fwd)
    v = np.empty_like(fwd)
    for s in range(half_window, 0, -1):
        first = max(s - off, 0)  # forward columns whose window reaches s rows back
        if first < kept:
            src = slice(off + first - s, off + kept - s)
            _step_columns(
                fwd[:, first:], v[:, first:], r_lin[:, src], log_r[:, src], q_lin_t, s == 1
            )
        stop = min(kept, size - off - s)  # backward columns whose window reaches s rows on
        if stop > 0:
            src = slice(off + s, off + s + stop)
            _step_columns(
                bwd[:, :stop], v[:, :stop], r_lin[:, src], log_r[:, src], q_lin_t, s == 1
            )
    return fwd, bwd


def bp_threads(size: int, m_count: int) -> int:
    """Threads windowed BP runs a ``size``-row frame of ``m_count`` grid
    phases on: one per row block, up to ``free_cores()``, and one below
    ``_BP_THREAD_MIN_PHASES`` phases (see ``map_bp_estimate``)."""
    if m_count < _BP_THREAD_MIN_PHASES:
        return 1
    return max(1, min(free_cores(), size // _BP_BLOCK_ROWS))


def _windowed_block(log_r, q_lin_t, half_window: int, out, a: int, b: int) -> None:
    # output rows [a, b) run the recursion on rows [a - N, b + N) and keep
    # [a, b): every kept row still sees its whole (edge-truncated) window
    lo, hi = max(0, a - half_window), min(len(log_r), b + half_window)
    block = np.ascontiguousarray(log_r[lo:hi].T)
    fwd, bwd = _windowed_messages(block, q_lin_t, half_window, slice(a - lo, b - lo))
    with np.errstate(divide="ignore"):
        np.log(fwd, out=fwd)
        np.log(bwd, out=bwd)
    fwd += block[:, a - lo : b - lo]
    fwd += bwd
    out[a:b] = fwd.T


def _chain_log_marginals_windowed(log_r, log_q, half_window: int) -> np.ndarray:
    # blocks share only read-only inputs and write disjoint rows of out
    out = np.empty_like(log_r)
    q_lin_t = _linear_transitions(log_q, _WINDOWED_Q_FLUSH).T
    starts, stops = zip(*_row_blocks(len(log_r), _BP_BLOCK_ROWS))
    with CorePool(bp_threads(*log_r.shape)) as run:
        run(partial(_windowed_block, log_r, q_lin_t, half_window, out), starts, stops)
    return out


def _sweep(r_lin, q_lin):
    # messages[k] = normalize(messages[k - 1] * r_lin[k - 1]) @ q_lin with
    # messages[0] = 1, in lockstep blocks (see map_bp_estimate). Returns
    # None unless every entry stays at least M * 2^-968 of its message's
    # peak. A row whose product underflows below _MESSAGE_FLOOR fails that
    # early: the peak of r_lin is 1 and every message's peak is at least
    # about 1/M, so the previous message had an entry below the bound.
    # Both checks apply only to blocks whose start is final; elsewhere a
    # dead product is divided by the floor to stay finite, and a later pass
    # recomputes the block.
    size, m_count = r_lin.shape
    rows = _FULL_BP_BLOCK_ROWS
    count = -(-size // rows)
    r_blocks = np.ones((count, rows, m_count))
    r_blocks.reshape(-1, m_count)[:size] = r_lin  # rows of ones pad the end
    messages = np.empty_like(r_blocks)
    starts = np.ones((count, m_count))
    ends = np.empty_like(starts)
    v = np.empty_like(starts)
    bound = m_count * 2.0**-968
    final = 0  # blocks [0, final) are final; block `final` has its final start
    while final < count:
        messages[:, 0] = starts
        for i in range(1, rows + 1):
            np.multiply(messages[:, i - 1], r_blocks[:, i - 1], out=v)
            peak = v.max(axis=1)
            if peak.min() < _MESSAGE_FLOOR:
                if np.any(peak[: final + 1] < _MESSAGE_FLOOR):
                    return None
                np.maximum(peak, _MESSAGE_FLOOR, out=peak)
            v /= peak[:, None]
            np.matmul(v, q_lin, out=messages[:, i] if i < rows else ends)
        # block b's start is final if block b - 1 ran from a final start,
        # which holds up to the first start that the new ends move
        moved = np.flatnonzero((ends[:-1] != starts[1:]).any(axis=1))
        done = moved[0] + 1 if moved.size else count
        kept = messages.reshape(-1, m_count)[final * rows : min(done * rows, size)]
        if np.any(kept.min(axis=1) < bound * kept.max(axis=1)):
            return None
        starts[1:] = ends[:-1]
        final = done
    return messages.reshape(-1, m_count)[:size]


def _log_sweep(log_r, log_q) -> np.ndarray:
    # the same recursion in the log domain, shifted to a peak of 0 each step
    messages = np.empty_like(log_r)
    messages[0] = 0.0
    for k in range(1, len(messages)):
        a = messages[k - 1] + log_r[k - 1]
        terms = (a - a.max())[:, None] + log_q
        peak = terms.max(axis=0)
        terms -= peak
        np.exp(terms, out=terms)
        messages[k] = peak + np.log(terms.sum(axis=0))
    return messages


def _chain_log_marginals_full(log_r, log_q) -> np.ndarray:
    q_lin = _linear_transitions(log_q)
    r_lin = np.exp(log_r - log_r.max(axis=1, keepdims=True))
    fwd = _sweep(r_lin, q_lin)
    bwd = _sweep(r_lin[::-1], q_lin) if fwd is not None else None
    if bwd is not None:
        return np.log(fwd) + log_r + np.log(bwd[::-1])
    return _log_sweep(log_r, log_q) + log_r + _log_sweep(log_r[::-1], log_q)[::-1]


def map_bp_estimate(log_r, cfg: EstimatorConfig, log_q) -> np.ndarray:
    """Approximate MAP phase estimates by sum-product message passing on
    the (K, M) log emission table ``log_r`` and the (M, M) log transition
    matrix ``log_q`` (``q_matrix``, whose rows sum to 1).

    For each output symbol the forward recursion folds in the window
    symbols before it and the backward recursion those after it; the
    estimate is the argmax of the (log) center marginal. The transition
    matrix is symmetric (circulant wrapped normal on a uniform grid), so
    the same matrix serves both directions.

    With ``cfg.full_sequence_bp`` the messages are instead propagated once
    along the entire sequence, which matches the windowed variant when the
    window covers the whole sequence for every symbol (N >= K-1).

    The windowed variant runs in blocks of ``_BP_BLOCK_ROWS`` (1024) output
    rows, the last block taking the remainder. Each block runs the
    recursion over its rows plus N-row halos on both sides, so every row
    sees the same edge-truncated window as one pass over the whole
    sequence, while the block's messages stay in cache. Halo rows are
    emission inputs, not outputs: the forward and backward messages are
    contiguous (M, rows) arrays of the block's kept rows only, forward
    column j folding in the emission s rows before it at step s and
    backward column j the one s rows after it. A block's log R is
    transposed once to (M, rows + halos); each step pushes all of a
    block's messages through Q with one (M, M) @ (M, rows) product
    (Q^T @ v), and the marginals are transposed back as the block is
    written out. Blocks are never cut below 512 rows: on OpenBLAS 0.3.31,
    products of 256 columns or fewer round differently at M=60
    (log-marginals move by up to 2.8e-14).

    The blocks run on a ``numerics.CorePool`` of ``bp_threads`` threads,
    one per free core (``numerics.free_cores``), created and joined inside
    the call, so no thread outlives it. Threading changes no bit: a
    block's products keep their (M, M) @ (M, rows) shapes, so BLAS rounds
    each one as in a single thread, and each block writes only its own
    output rows. Free cores are those in the process's CPU affinity that
    BLAS leaves free: OpenBLAS runs every product on all cores unless
    ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` says otherwise, and
    two threads' products on shared cores ran slower than one thread's
    (1.00-1.34 s against 0.84-1.10 s per 2^15 frame at M=60 on a 2-vCPU
    Xeon VM). Below ``_BP_THREAD_MIN_PHASES`` (32) grid phases the blocks
    run in one thread too: a step's numpy calls are then too short to win
    back the threads' contention for the interpreter lock (a 2^15 frame at
    M=15 took 0.16 s on two threads against 0.11 s on one, same VM, one
    BLAS thread).

    A windowed step multiplies in the emission and takes each column's
    peak, but divides a column by it only when that peak has fallen below
    ``_RESCALE_BELOW`` (2^-64), or on the last step (s = 1, which every
    column that is stepped at all takes). Each emission row peaks at 1,
    and Q, symmetric with rows summing to 1, averages: it neither raises a
    column's peak nor leaves it below 1/M of the product's. So every
    product pushed through Q peaks in [2^-64, 1] and every message in
    [2^-64/M, 1]. A skipped division scales the column by a constant, so
    after the last division the log-marginals are those of a recursion
    normalized at every step, up to rounding (about 1e-14 on 2^15 frames).

    The full-sequence variant cuts each direction's frame into blocks of
    ``_FULL_BP_BLOCK_ROWS`` (1024) rows, the last block padded with rows of
    ones (a message never reads the rows after its own, so the padding
    changes no kept row). All blocks step together: step i multiplies row
    i - 1 of every block by its emission, peak-normalizes each row and
    pushes the (blocks, M) array through Q with one product. The first pass
    starts block 0 from ones and guesses ones for every other block; each
    later pass starts block b from block b - 1's end in the pass before.
    The passes stop when no block's start changes, bit for bit. Then every
    block continues its predecessor exactly, so the output is the
    sequential recursion under the lockstep row arithmetic, with no
    tolerance. After a pass, every block up to and including the first one
    whose start the next pass would change is exact, so at most one pass
    per block runs. The chain forgets its start: on 2^15-symbol frames at
    16-24 dB two to twelve passes run, but below 16 dB at sigma_theta^2 =
    1.18e-4 up to one per block, about 3x the cost of a row-by-row loop.
    The (blocks, M) shape is the same in every pass: with
    OpenBLAS 0.3.31 a row of the product rounds differently at different
    row counts (for 277 of 512 counts at M=60, and the one-row case at
    M=15), so a pass over fewer blocks could change a block that had
    already stopped. A frame of at most one block is the row-by-row
    recursion bit for bit.

    The linear messages are kept only if every entry of every forward and
    backward message stays at or above M * 2^-968 of its message's peak,
    where the flush argument below holds. Only blocks whose start is
    already exact are checked, and an underflowed product there ends the
    linear attempt at once; a block still running from a guess divides a
    dead product by the floor to stay finite and is recomputed by a later
    pass. Below that bound a linear message can no longer carry the
    entries its neighbours need: at M=15 and
    sigma_theta^2 = 1e-5 one grid step costs 551 nats, more than a
    peak-normalized double spans, and forward and backward messages lose
    each other's support (wrong argmaxes, or rows that are -inf
    everywhere). Such a frame is recomputed entirely in the log domain, a
    logsumexp over Q per step, which is exact to rounding and several times
    slower.

    Full-sequence BP sets the transition entries below the smallest normal
    double (tiny = 2.2e-308) to 0 before the products, because subnormal
    operands make them several times slower. Its messages are
    peak-normalized to 1 before each product, so every propagated entry
    lies in [0, 1] and the largest is at least 1/M. A flushed entry moves
    an output entry by less than M * tiny, which is below half an ulp of
    every entry above M * 2^-968 (2.4e-290 at M=60): only entries about
    288 orders of magnitude below their message's peak can change. An
    argmax could move only where the emission and the opposite message
    favour such an entry over the message's peak by a factor of about
    1e288. At the 1.18e-4 centre cell 120 entries of the M=60 Q are
    flushed.

    Windowed BP flushes Q below tau = ``_WINDOWED_Q_FLUSH`` (2^-700)
    instead: its messages sit up to 2^64 below a normalized one, so more
    Q * v products would be subnormal, or close enough to the subnormal
    range to take the slow path (a 24-dB, 1e-5 frame at M=60 took 0.55 s
    with a 2^-900 flush against 0.32 s, two threads of a 2-vCPU Xeon VM).
    A step pushes a product v of peak p in [2^-64, 1] through Q. A
    flushed entry adds less than tau * p to an output entry, and at most
    M of them do, so the flush moves an output entry by less than
    M * tau * p <= M^2 * tau * P, where
    P >= p / M is the output's peak. Half an ulp of an entry x is at
    least 2^-53 x, so the flush moves no entry x >= M^2 * 2^-647 * P by
    as much as half an ulp: for M <= 64, every entry within 2^-635 (about
    440 nats) of its message's peak. An error made at an earlier step is
    carried through the emission (at most 1) and Q (an average), neither
    of which enlarges it. At the 1.18e-4 centre cell 120 more entries of
    the M=60 Q are flushed, and on the tested frames no message entry
    within that band moved by a bit. Full-sequence BP keeps the tiny
    flush because its linear/log rule rests on it: a 2^-700 flush would
    raise that rule's bound from M * 2^-968 to about M * 2^-647 and send
    every frame whose messages span more than about 440 nats to the
    log-domain pass.

    The windowed variant's dead-column fallback rescues one underflowed
    product, but forward and backward messages can still lose each other's
    support (more than about 708 nats apart), which leaves a row -inf at
    every grid phase. Its argmax would silently be grid phase 0, so such a
    frame raises FloatingPointError with the count of dead rows instead,
    and a log R with a NaN or infinite entry raises ValueError up front.
    """
    _check_length(log_r, cfg)
    if not np.all(np.isfinite(log_r)):
        raise ValueError("emission table has non-finite entries")
    if cfg.full_sequence_bp:
        log_marginals = _chain_log_marginals_full(log_r, log_q)
    else:
        log_marginals = _chain_log_marginals_windowed(log_r, log_q, cfg.half_window)
        dead = ~np.isfinite(log_marginals).any(axis=1)
        if np.any(dead):
            raise FloatingPointError(
                f"windowed BP lost its messages' support on {int(dead.sum())} of "
                f"{dead.size} rows (log-marginals -inf at every grid phase)"
            )
    return cfg.grid.phases[np.argmax(log_marginals, axis=1)]


class SoftminReadout(NamedTuple):
    """One weighted-softmin BPS forward pass, in phase-major (M, K) layout.

    ``padded`` is the distance table as (M, K + 2N) with N zero columns on
    each side, ``weighted`` the (M, K) window sums D, ``soft`` the softmin
    of D over the M phases, ``phasors`` e^{j n phi_m}, and
    ``readout_re``/``readout_im`` the parts of sum_m soft_m e^{j n phi_m}.
    ``collapsed`` marks the symbols whose |readout| is below 1e-12; their
    estimate is the argmin grid phase of D. The training backward
    (``training._forward_backward`` with a gradient) consumes ``soft``: it
    builds the softmin's gradient in that buffer, so read ``soft`` before
    that call, or take a copy.
    """

    padded: np.ndarray
    weighted: np.ndarray
    soft: np.ndarray
    phasors: np.ndarray
    readout_re: np.ndarray
    readout_im: np.ndarray
    collapsed: np.ndarray
    estimates: np.ndarray


def phase_major_padded(table: np.ndarray, half_window: int) -> np.ndarray:
    """The (K, M) ``table`` transposed to (M, K + 2N), zero-padded by N
    columns on each side."""
    size, m_count = table.shape
    padded = np.zeros((m_count, size + 2 * half_window))
    padded[:, half_window : half_window + size] = table.T
    return padded


def window_sums(padded: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """D[m, k] = sum_j w_j padded[m, k + j], i.e. sum_j w_j table[k - N + j, m]
    zero-padded at the edges: one ``np.correlate`` along each phase row,
    the rows split across the free cores (``np.correlate`` releases the
    interpreter lock)."""
    out = np.empty((padded.shape[0], padded.shape[1] - weights.size + 1))

    def fill(rows: slice) -> None:
        for row, out_row in zip(padded[rows], out[rows]):
            out_row[:] = np.correlate(row, weights, "valid")

    _on_free_cores(fill, len(padded))
    return out


def window_sums_weight_grad(padded: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Adjoint of ``window_sums`` in the weights: sum_{m,k} grad[m, k]
    padded[m, k + j] for each tap j. The per-row correlations run split
    across the free cores, as in ``window_sums``, and are summed in row
    order."""
    per_row = np.empty((padded.shape[0], padded.shape[1] - grad.shape[1] + 1))

    def fill(rows: slice) -> None:
        for row, g_row, out_row in zip(padded[rows], grad[rows], per_row[rows]):
            out_row[:] = np.correlate(row, g_row, "valid")

    _on_free_cores(fill, len(padded))
    return sum(per_row)


def softmin_readout(padded, grid: PhaseGrid, params: BpsOptParams) -> SoftminReadout:
    """Window sums, softmin and phase readout of the phase-major distance
    table ``padded`` ((M, K + 2N), from ``_distance_tables`` with ``pad`` =
    N or from ``phase_major_padded``), shared by ``bps_opt_estimate`` and
    the training forward pass.

    The softmin is one new array, ``soft``: D / -t is written into it, and
    the column max is subtracted, exponentiated and divided by the column
    sum in place, in column slabs of ``_TABLE_CHUNK_BYTES`` (the last one
    takes the remainder) split across the free cores. That is
    ``numerics.softmax(D / -t, axis=0)`` bit for bit: each operation works
    on its own column, and numpy's axis-0 max and sum run over the rows in
    order on any slab of two or more columns (a one-column slab would be
    summed pairwise, and a slab is that narrow only when K = 1).
    """
    weights = params.weights
    if weights.size % 2 == 0:
        raise ValueError("window length must be odd (2N+1)")
    weighted = window_sums(padded, weights)
    soft = np.empty_like(weighted)
    m_count, size = weighted.shape
    slabs = list(_row_blocks(size, max(2, _TABLE_CHUNK_BYTES // (8 * m_count))))

    def normalize(group: slice) -> None:
        for a, b in slabs[group]:
            slab = soft[:, a:b]
            np.divide(weighted[:, a:b], -params.temperature, out=slab)
            slab -= slab.max(axis=0)
            np.exp(slab, out=slab)
            slab /= slab.sum(axis=0)

    _on_free_cores(normalize, len(slabs))
    n = grid.sym_order
    phasors = np.exp(1j * n * grid.phases)
    readout_re = phasors.real @ soft
    readout_im = phasors.imag @ soft
    collapsed = np.hypot(readout_re, readout_im) < _READOUT_FLOOR
    estimates = wrap_sector(np.arctan2(readout_im, readout_re) / n, n)
    if np.any(collapsed):
        estimates[collapsed] = grid.phases[np.argmin(weighted[:, collapsed], axis=0)]
    return SoftminReadout(
        padded, weighted, soft, phasors, readout_re, readout_im, collapsed, estimates
    )


def bps_opt_estimate(d_table, cfg: EstimatorConfig, params: BpsOptParams) -> np.ndarray:
    """Weighted softmin BPS with complex-exponential readout, on the (K, M)
    minimum-distance table.

    D_m = sum_i w_i d_{i,m} over the window; the estimate is
    arg(e^{j phi n} . softmin_t(D)) / n, continuous in [-pi/n, pi/n).
    When the softmin collapses symmetrically (|readout| < 1e-12) the
    estimate falls back to the hard argmin grid phase.

    The estimate is within eps of the argmin grid phase of D, mod 2pi/n,
    for every symbol whose top-two gap of D is at least
    g* = t ln((M-1)(1 + 2 sin(n eps)) / sin(n eps)) ~= t ln((M-1) / (n eps)).
    With uniform weights (``BpsOptParams.uniform``) that argmin is plain
    BPS's. Symbols below g* are near-ties that the softmin may blend, so a
    small temperature recovers BPS on every symbol only as t -> 0.

    The pass runs on the table transposed to (M, K + 2N)
    (``phase_major_padded``, then ``softmin_readout``): window sums and the
    softmin then run along contiguous rows.
    """
    _check_length(d_table, cfg)
    if params.weights.size != 2 * cfg.half_window + 1:
        raise ValueError("weights length must equal the window length 2N+1")
    padded = phase_major_padded(d_table, cfg.half_window)
    return softmin_readout(padded, cfg.grid, params).estimates
