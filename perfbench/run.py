"""Benchmark of the wiener_cpe BMI pipeline, driven through its public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload m60_central --seed 0 --seconds 35 --trace 0

It times seeded units of work (sweep realizations or training steps) on
one process, checks their outputs, and prints every metric by name with
its unit. The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json and
``--trace 1`` its per-layer metrics, taken from a traced re-run of every
timed unit. The full record (environment, per-unit outputs, spans) is
written under ``--out``. See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

# One BLAS thread: on a 2-core Xeon VM a second OpenBLAS thread made the
# m15_fast_walk realization only 6% faster, doubled the CPU time (the
# thread spins) and raised the run-to-run variation from 5% to 8%.
BLAS_THREADS = 1
SETUP_PROBES = 7
QUICK_SETUP_PROBES = 2
QUICK_SECONDS = 5.0


def parse_args(argv, spec):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=0, help="unit r runs with seed + r")
    p.add_argument("--seconds", type=float, default=35.0, help="time budget of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--quick",
        action="store_true",
        help="smoke check at reduced K; its figures are never compared",
    )
    p.add_argument("--units", type=int, help="run exactly this many units, ignoring --seconds")
    p.add_argument("--reference", type=Path, help="reference file (default: reference/<workload>.json)")
    p.add_argument("--record", action="store_true", help="write this run's outputs as the reference")
    p.add_argument("--out", type=Path, default=HERE / "out", help="directory for the run record")
    return p.parse_args(argv)


def pin_blas_threads() -> None:
    """Fix the BLAS thread count before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _openblas_threads_in_use(numpy) -> int | None:
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for label, key in (
        ("l1d", "SC_LEVEL1_DCACHE_SIZE"),
        ("l2", "SC_LEVEL2_CACHE_SIZE"),
        ("l3", "SC_LEVEL3_CACHE_SIZE"),
    ):
        try:
            caches[label] = os.sysconf(key)
        except (ValueError, OSError):
            caches[label] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache_bytes": caches,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
        },
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_in_use": _openblas_threads_in_use(numpy),
    }


def measure_setup(num_test_phases: int, probes: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it is ready to run
    the first realization, once per probe."""
    times = []
    for _ in range(probes):
        started = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), str(num_test_phases)],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return times


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class Harness:
    """Runs the timed loop and applies the output check to every unit."""

    def __init__(self, runner, rec, reference: dict | None, run_seed: int):
        self.runner = runner
        self.rec = rec
        self.reference = reference
        self.run_seed = run_seed
        self.identical = 0
        self.hashed = 0

    def _reference_for(self, seed: int) -> dict | None:
        ref = self.reference
        if ref is None or ref["symbols"] != self.runner.workload.symbols:
            return None
        if self.runner.workload.training and ref["run_seed"] != self.run_seed:
            return None
        return ref["units"].get(str(seed))

    def run_unit(self, seed: int, tracing: bool) -> dict:
        record = {"unit": seed}
        started = time.perf_counter()
        try:
            self.rec.tracing = False
            record["seconds"], outputs = self.runner.run(seed, advance=not tracing)
            record["outputs"] = outputs
            error = self.runner.check(outputs)
            ref = self._reference_for(seed)
            if ref is not None:
                mismatch, identical, hashed = self.runner.compare(outputs, ref)
                error = error or mismatch
                self.identical += identical
                self.hashed += hashed
            if tracing:
                self.rec.tracing = True
                record["traced_seconds"], traced = self.runner.run(seed)
                self.runner.probe()
                if traced != outputs:
                    error = error or "traced run differs from the untraced run"
        except Exception as exc:  # a unit that raises is counted as failed; the run goes on
            record.setdefault("seconds", time.perf_counter() - started)
            error = f"{type(exc).__name__}: {exc}"
        finally:
            self.rec.tracing = False
        record["error"] = error
        return record

    def loop(self, seed: int, seconds: float, units: int | None, tracing: bool) -> list[dict]:
        """Units back to back until the next one would overrun ``seconds``
        (at least one), or exactly ``units`` of them."""
        records = []
        started = time.perf_counter()
        last_cost = 0.0
        for i in itertools.count():
            if units is not None:
                if i >= units:
                    break
            elif i and time.perf_counter() - started + last_cost > seconds:
                break
            unit_started = time.perf_counter()
            records.append(self.run_unit(seed + i, tracing))
            last_cost = time.perf_counter() - unit_started
        return records


def end_to_end_metrics(runner, records, setup_times) -> dict:
    times = [r["seconds"] for r in records]
    return {
        "realization_or_step_s": statistics.median(times),
        "symbols_per_s": runner.symbols_per_unit * len(times) / sum(times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(rec, probe, runner, records) -> dict:
    """Per-layer medians over the traced units. A layer the units never
    ran takes its value from the ``probe`` recorder instead."""
    from workloads import ALGORITHM_LAYERS, ALGORITHMS

    traced = [r for r in records if "traced_seconds" in r]
    ids = [r["unit"] for r in traced]
    totals = {u: rec.unit_totals(u) for u in ids}
    probe_ids = sorted({s.unit for s in probe.spans})
    sources = ((rec, totals), (probe, {u: probe.unit_totals(u) for u in probe_ids}))

    def span(name, match=str.__eq__):
        for _, unit_totals in sources:
            ran = [
                sum(v for k, v in t.items() if match(k, name))
                for t in unit_totals.values()
                if any(match(k, name) for k in t)
            ]
            if ran:
                return _median(ran)
        return 0.0

    def each(name):
        spans = [s for s in rec.spans if s.name == name]
        return _median(s.end - s.start for s in spans or [s for s in probe.spans if s.name == name])

    def counter(name):
        for source, unit_totals in sources:
            ran = [source.counters[(u, name)] for u in unit_totals if (u, name) in source.counters]
            if ran:
                return _median(ran)
        return 0.0

    metrics = {
        "constellation.shape_s": each("constellation.shape"),
        "channel.transmit_s": span("channel.transmit"),
        "estimators.tables_s": span("estimators.tables"),
        "estimators.tables_peak_mb": counter("estimators.tables_peak_mb"),
        "estimators.q_matrix_s": span("estimators.q_matrix"),
        "estimators.q_subnormal": counter("estimators.q_subnormal"),
        "estimators.min_table_s": span("estimators.min_table"),
        "postproc.postprocess_s": span("postproc.postprocess"),
        "postproc.slips": counter("postproc.slips"),
        "metrics.demap_search_s": span("metrics.demap_search.", str.startswith),
        "metrics.bmi_eval_s": each("metrics.bmi_eval"),
        "training.grad_s": span("training.grad"),
        "training.loss_s": span("training.loss"),
        "training.adam_step_s": span("training.adam_step"),
        "experiments.overhead_s": _median(
            totals[u][runner.root_span] - rec.stage_total(u, runner.root_span) for u in ids
        ),
        "trace.overhead_s": _median(r["traced_seconds"] - r["seconds"] for r in traced),
    }
    for layer in ALGORITHM_LAYERS:
        metrics[f"estimators.{layer}_s"] = span(f"estimators.{layer}")
    for algo in ALGORITHMS:
        metrics[f"metrics.demap_search_s.{algo}"] = span(f"metrics.demap_search.{algo}")
    return metrics


def _coverage_lines(rec, runner, records) -> list[str]:
    lines = []
    for r in records:
        if "traced_seconds" not in r:
            continue
        stages = rec.stage_total(r["unit"], runner.root_span)
        lines.append(
            f"unit {r['unit']}: untraced {r['seconds']:.4f} s, stage spans {stages:.4f} s "
            f"({100.0 * stages / r['seconds']:.2f}%), traced {r['traced_seconds']:.4f} s, "
            f"tracing overhead {r['traced_seconds'] - r['seconds']:+.4f} s"
        )
    return lines


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK_FILE.read_text())
    args = parse_args(argv, spec)
    if not (SRC / "wiener_cpe" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'wiener_cpe'}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))

    from tracing import Recorder
    from workloads import WORKLOADS, make_runner, probe_layers, time_shaping

    workload = WORKLOADS[args.workload]
    seconds, probes = args.seconds, SETUP_PROBES
    if args.quick:
        workload = workload.quick()
        seconds, probes = min(seconds, QUICK_SECONDS), QUICK_SETUP_PROBES
    ref_path = args.reference or HERE / "reference" / f"{args.workload}.json"
    reference = None
    if not args.record and ref_path.is_file():
        reference = json.loads(ref_path.read_text())

    args.out.mkdir(parents=True, exist_ok=True)
    work_dir = args.out / f"work-{os.getpid()}"
    work_dir.mkdir()
    try:
        setup_times = measure_setup(workload.num_test_phases, probes)
        rec = Recorder(tracing=False)
        # warm-up: one untimed unit at the quick size; a unit that fails
        # here fails again, and is counted, in the timed loop
        Harness(make_runner(workload.quick(), work_dir, rec), rec, None, args.seed).run_unit(
            args.seed, tracing=False
        )
        runner = make_runner(workload, work_dir, rec)
        harness = Harness(runner, rec, reference, args.seed)
        records = harness.loop(args.seed, seconds, args.units, tracing=bool(args.trace))
        if args.trace:
            rec.tracing = True
            rec.begin_unit(-1)
            time_shaping(5, rec)
            rec.tracing = False
            probe = probe_layers(workload, work_dir, args.seed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(r["error"] is not None for r in records)
    if args.trace:
        values = layer_metrics(rec, probe, runner, records)
        wanted = spec["per_layer"]
    else:
        values = end_to_end_metrics(runner, records, setup_times)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
    doc = {
        "args": {k: str(v) if isinstance(v, Path) else v for k, v in vars(args).items()},
        "workload": vars(workload) | {"algorithms": list(workload.algorithms)},
        "environment": env,
        "setup_s": setup_times,
        "units": records,
        "fingerprint": {"identical": harness.identical, "compared": harness.hashed},
        "metrics": metrics,
    }
    if args.trace:
        doc["trace"] = rec.to_json()
        doc["probe"] = probe.to_json()
    record_path = args.out / f"{tag}.json"
    record_path.write_text(json.dumps(doc, indent=1))

    if args.record:
        if failed:
            print("perfbench: not recording a reference from a run with failures", file=sys.stderr)
            return 1
        ref = {
            "workload": args.workload,
            "symbols": workload.symbols,
            "run_seed": args.seed,
            "units": {str(r["unit"]): r["outputs"] for r in records},
        }
        ref_path.parent.mkdir(parents=True, exist_ok=True)
        ref_path.write_text(json.dumps(ref, indent=1) + "\n")
        print(f"recorded {len(records)} units to {ref_path}")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f"{' quick' if args.quick else ''}: {len(records)} units")
    print("environment " + json.dumps(env))
    for r in records:
        if r["error"] is not None:
            print(f"unit {r['unit']} FAILED: {r['error']}")
    print(f"error_rate {failed / len(records)!r} ({failed} of {len(records)} failed)")
    print(
        f"fingerprint {harness.identical} of {harness.hashed} sha256 identical to the reference"
        if harness.hashed
        else "fingerprint: no reference for these units"
    )
    if args.trace:
        for line in _coverage_lines(rec, runner, records):
            print(line)
        for name, value in rec.self_times().items():
            print(f"self time {name} {value!r} s")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"record {record_path}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(records),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
