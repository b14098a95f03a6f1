"""In-memory spans around the calls a sweep makes into each layer.

The benchmark never edits the package. To see inside one ``run_sweep``
call it swaps the names that ``wiener_cpe.experiments`` looks up at call
time (``transmit``, ``_distance_tables``, ``q_matrix``, the four
estimators, ``postprocess`` and ``optimize_demapper_variance``) for thin
wrappers defined here, and restores them afterwards. With tracing off the
wrappers only keep a reference to each algorithm's raw estimates, which
the output check hashes after the unit has been timed; with tracing on
they also record a span per call and the layer counters.
"""

from __future__ import annotations

import contextlib
import statistics
import time
import tracemalloc
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np

_MB = float(2**20)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    unit: int


class Recorder:
    """Spans, counters and captured outputs of the units of one run.

    ``unit`` identifies the realization (its seed) or the training step
    the spans belong to. Spans stay in memory until ``to_json``.
    """

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.spans: list[Span] = []
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.unit = -1
        self.algo: str | None = None
        self.estimates: dict[str, np.ndarray] = {}
        self.demap_inputs: list[tuple] = []
        self._stack: list[int] = []

    def begin_unit(self, unit: int) -> None:
        self.unit = unit
        self.algo = None
        self.estimates = {}
        self.demap_inputs = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.tracing:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.unit))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        if self.tracing:
            self.counters[(self.unit, name)] += value

    # -- aggregation ------------------------------------------------------

    def unit_totals(self, unit: int) -> dict[str, float]:
        """Summed duration per span name within one unit."""
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s.unit == unit:
                totals[s.name] += s.end - s.start
        return totals

    def stage_total(self, unit: int, root: str) -> float:
        """Summed duration of the direct children of the unit's root span."""
        roots = {i for i, s in enumerate(self.spans) if s.unit == unit and s.name == root}
        return sum(s.end - s.start for s in self.spans if s.parent in roots)

    def self_times(self) -> dict[str, float]:
        """Median over units of each span name's self time: its duration
        minus the part covered by its child spans."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        per_unit: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        for i, s in enumerate(self.spans):
            per_unit[s.name][s.unit] += (s.end - s.start) - child_time[i]
        return {name: statistics.median(v.values()) for name, v in sorted(per_unit.items())}

    def to_json(self) -> dict:
        return {
            "spans": [asdict(s) for s in self.spans],
            "counters": [
                {"unit": unit, "name": name, "value": value}
                for (unit, name), value in sorted(self.counters.items())
            ],
            "self_times_s": self.self_times(),
        }


def subnormal_count(log_q: np.ndarray) -> int:
    """Entries of exp(log_q) that are positive but below the smallest
    normal double; each one slows the products that touch it."""
    q = np.exp(log_q)
    return int(np.count_nonzero((q > 0.0) & (q < np.finfo(np.float64).tiny)))


_ESTIMATORS = {
    "bps_estimate": "bps",
    "cpn_estimate": "cpn",
    "map_bp_estimate": "map_bp",
    "bps_opt_estimate": "bps_opt",
}


def _wrap_estimator(rec: Recorder, fn, algo: str):
    def wrapper(y, cfg, *args, **kwargs):
        rec.algo = algo
        layer = "map_bp_full" if algo == "map_bp" and cfg.full_sequence_bp else algo
        with rec.span(f"estimators.{layer}"):
            out = fn(y, cfg, *args, **kwargs)
        rec.estimates[algo] = out
        return out

    return wrapper


def _wrap_transmit(rec: Recorder, fn):
    def wrapper(*args, **kwargs):
        with rec.span("channel.transmit"):
            return fn(*args, **kwargs)

    return wrapper


def _wrap_tables(rec: Recorder, fn):
    def wrapper(*args, **kwargs):
        with rec.span("estimators.tables"):
            if not rec.tracing:
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                out = fn(*args, **kwargs)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        rec.count("estimators.tables_peak_mb", peak / _MB)
        return out

    return wrapper


def _wrap_q_matrix(rec: Recorder, fn):
    def wrapper(*args, **kwargs):
        with rec.span("estimators.q_matrix"):
            out = fn(*args, **kwargs)
        if rec.tracing:
            rec.count("estimators.q_subnormal", subnormal_count(out))
        return out

    return wrapper


def _wrap_postprocess(rec: Recorder, fn):
    def wrapper(*args, **kwargs):
        with rec.span("postproc.postprocess"):
            out = fn(*args, **kwargs)
        rec.count("postproc.slips", len(out.slip_events))
        return out

    return wrapper


def _wrap_demap(rec: Recorder, fn):
    def wrapper(x_hat, bits, constellation, *args, **kwargs):
        with rec.span(f"metrics.demap_search.{rec.algo}"):
            sigma_opt, report = fn(x_hat, bits, constellation, *args, **kwargs)
        if rec.tracing:
            rec.demap_inputs.append((x_hat, bits, constellation, sigma_opt))
        return sigma_opt, report

    return wrapper


@contextlib.contextmanager
def instrument_sweep(experiments, rec: Recorder):
    """Route the layer calls of ``experiments._evaluate_realization``
    through ``rec`` for the duration of the block."""
    wrappers = {
        "transmit": _wrap_transmit(rec, experiments.transmit),
        "_distance_tables": _wrap_tables(rec, experiments._distance_tables),
        "q_matrix": _wrap_q_matrix(rec, experiments.q_matrix),
        "postprocess": _wrap_postprocess(rec, experiments.postprocess),
        "optimize_demapper_variance": _wrap_demap(rec, experiments.optimize_demapper_variance),
    }
    for name, algo in _ESTIMATORS.items():
        wrappers[name] = _wrap_estimator(rec, getattr(experiments, name), algo)
    saved = {name: getattr(experiments, name) for name in wrappers}
    for name, wrapper in wrappers.items():
        setattr(experiments, name, wrapper)
    try:
        yield rec
    finally:
        for name, original in saved.items():
            setattr(experiments, name, original)
