"""Four seeded sweeps and one training run against the text recorded in
``tests/data/sweep_reference.json`` by ``scripts/record_sweep_reference.py``.

The rule. On the build the reference was recorded on (the same numpy
version, BLAS build and SIMD extensions) every CSV (``results``,
``realizations`` and each ``plots/bmi_vs_snr_*``), the training run's
``params.json``, ``report.json`` and ``weights.csv``, the sha256 of each
algorithm's raw estimates, of each BP frame's log-marginals and of each
demapper block's per-symbol derivatives in the gradient call, and the
training gradient (its 17-digit text and its sha256) must match the
recording byte for byte. On another build, rounding alone may move the last
bits: two equal-math demapper kernels moved ``sigma_opt`` by about 5e-12 in
log, and log-marginals depend on the BLAS thread count. So there no hash is
compared, each gradient entry must be within 1e-9 relative of the
recording's, every BMI column (a plot CSV's algorithm columns
are BMI medians) must be within 1e-12 (absolute, in bit), each
``log sigma_opt`` within 1e-9, and every other CSV column, slip medians
included, must be equal. The training files there must have the same
structure and text, with every number within 1e-9 relative: one Adam step
moves each raw parameter by about the learning rate, whatever the last bits
of its gradient. These bounds are the contract; a change that moves a number
past them re-records the reference and bumps ``RESULTS_VERSION``, and never
widens them.
"""

import csv
import json
import math
import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

import pytest

from wiener_cpe.experiments import KNOWN_ALGORITHMS

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "tests" / "data" / "sweep_reference.json"
BMI_ATOL = 1e-12
LOG_SIGMA_ATOL = 1e-9
TRAIN_RTOL = 1e-9


@pytest.fixture(scope="module")
def recorded():
    return json.loads(REFERENCE.read_text())


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """The reference sweeps rerun in one subprocess on one BLAS thread."""
    out = tmp_path_factory.mktemp("sweep_reference") / "fresh.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "record_sweep_reference.py"), "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(out.read_text())


def first_difference(want: str, got: str):
    """(line number, recorded line, fresh line) of the first line that
    differs, or None."""
    lines = zip_longest(
        want.splitlines(keepends=True), got.splitlines(keepends=True), fillvalue="<end of file>"
    )
    for number, (w, g) in enumerate(lines, start=1):
        if w != g:
            return number, w, g
    return None


def close_enough(column: str, want: str, got: str) -> bool:
    if column.startswith("bmi") or column in KNOWN_ALGORITHMS:
        return abs(float(want) - float(got)) <= BMI_ATOL
    if column == "sigma_opt":
        return abs(math.log(float(want)) - math.log(float(got))) <= LOG_SIGMA_ATOL
    if column == "weight":
        return math.isclose(float(want), float(got), rel_tol=TRAIN_RTOL)
    return want == got


def json_mismatch(want, got, where="$"):
    """The first (place, recorded, fresh) where two JSON values differ by
    more than ``TRAIN_RTOL`` in a number or at all elsewhere, or None."""
    numbers = (int, float)
    if isinstance(want, numbers) and isinstance(got, numbers) and not isinstance(want, bool):
        return None if math.isclose(want, got, rel_tol=TRAIN_RTOL) else (where, want, got)
    if isinstance(want, dict) and isinstance(got, dict) and want.keys() == got.keys():
        children = ((f"{where}.{key}", want[key], got[key]) for key in want)
    elif isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        children = ((f"{where}[{i}]", w, g) for i, (w, g) in enumerate(zip(want, got)))
    else:
        return None if want == got else (where, want, got)
    return next(filter(None, (json_mismatch(w, g, place) for place, w, g in children)), None)


def tolerance_mismatch(want: str, got: str):
    """The first (line number, column, recorded, fresh) outside the
    cross-build bounds, or None."""
    want_rows, got_rows = csv.reader(want.splitlines()), csv.reader(got.splitlines())
    header = None
    for number, (w_row, g_row) in enumerate(zip_longest(want_rows, got_rows), start=1):
        if header is None or w_row is None or g_row is None or len(w_row) != len(g_row):
            if w_row != g_row:
                return number, "row", w_row, g_row
            header = w_row
            continue
        for column, w, g in zip(header, w_row, g_row):
            if not close_enough(column, w, g):
                return number, column, w, g
    return None


def test_sweeps_match_the_recorded_reference(fresh, recorded):
    assert fresh["results_version"] == recorded["results_version"], (
        "RESULTS_VERSION changed: re-record tests/data/sweep_reference.json"
    )
    assert fresh["sweeps"].keys() == recorded["sweeps"].keys()
    same_build = fresh["build"] == recorded["build"]
    for sweep, tables in recorded["sweeps"].items():
        for table, want in tables.items():
            got = fresh["sweeps"][sweep][table]
            if same_build:
                diff = first_difference(want, got)
                assert diff is None, (
                    f"{sweep} {table}.csv line {diff[0]}: recorded {diff[1]!r}, got {diff[2]!r}"
                )
            else:
                diff = tolerance_mismatch(want, got)
                assert diff is None, (
                    f"{sweep} {table}.csv line {diff[0]} {diff[1]}: recorded {diff[2]!r}, "
                    f"got {diff[3]!r} (build differs from the recording's, so bounds apply)"
                )


def test_raw_estimates_match_on_the_recorded_build(fresh, recorded):
    if fresh["build"] != recorded["build"]:
        pytest.skip("build differs from the recording's: the CSV bounds apply instead")
    assert fresh["estimates_sha256"] == recorded["estimates_sha256"]


def test_log_marginals_match_on_the_recorded_build(fresh, recorded):
    if fresh["build"] != recorded["build"]:
        pytest.skip("build differs from the recording's: log-marginal bits are not compared")
    assert fresh["log_marginals_sha256"] == recorded["log_marginals_sha256"]


def test_demapper_derivatives_match_on_the_recorded_build(fresh, recorded):
    # the summed gradient can hide a last-bit change in these
    if fresh["build"] != recorded["build"]:
        pytest.skip("build differs from the recording's: derivative bits are not compared")
    assert fresh["demapper_grad_sha256"] == recorded["demapper_grad_sha256"]


def test_training_gradient_matches_the_recorded_reference(fresh, recorded):
    want, got = recorded["train_grad"], fresh["train_grad"]
    if fresh["build"] == recorded["build"]:
        assert got == want
    else:
        assert len(got["values"]) == len(want["values"])
        for i, (w, g) in enumerate(zip(want["values"], got["values"])):
            assert math.isclose(float(w), float(g), rel_tol=TRAIN_RTOL), (i, w, g)


def test_training_matches_the_recorded_reference(fresh, recorded):
    same_build = fresh["build"] == recorded["build"]
    assert fresh["train"].keys() == recorded["train"].keys()
    for name, want in recorded["train"].items():
        got = fresh["train"][name]
        if same_build:
            diff = first_difference(want, got)
        elif name.endswith(".json"):
            diff = json_mismatch(json.loads(want), json.loads(got))
        else:
            diff = tolerance_mismatch(want, got)
        assert diff is None, f"{name}: first difference {diff}"


def test_tolerance_rule_catches_a_moved_digit():
    header = "bmi,sigma_opt,slips_median\r\n"
    table = header + "5.0,0.03,0\r\n"
    assert tolerance_mismatch(table, header + "5.0000000000001,0.03,0\r\n") is None
    assert tolerance_mismatch(table, header + "5.0,0.0300000000001,0\r\n") is None
    assert tolerance_mismatch(table, header + "5.00000000001,0.03,0\r\n")[1] == "bmi"
    assert tolerance_mismatch(table, header + "5.0,0.0300001,0\r\n")[1] == "sigma_opt"
    assert tolerance_mismatch(table, header + "5.0,0.03,1\r\n")[1] == "slips_median"
    assert tolerance_mismatch(table, header)[1] == "row"
    assert first_difference(table, header + "5.0,0.031,0\r\n") == (
        2, "5.0,0.03,0\r\n", "5.0,0.031,0\r\n"
    )
    plot = "snr_db,bps\r\n16,5.0\r\n"
    assert tolerance_mismatch(plot, "snr_db,bps\r\n16,5.0000000000001\r\n") is None
    assert tolerance_mismatch(plot, "snr_db,bps\r\n16,5.00000000001\r\n")[1] == "bps"
    weights = "offset,weight\r\n0,0.5\r\n"
    assert tolerance_mismatch(weights, "offset,weight\r\n0,0.5000000000001\r\n") is None
    assert tolerance_mismatch(weights, "offset,weight\r\n0,0.500000001\r\n")[1] == "weight"


def test_json_rule_catches_a_moved_number():
    doc = {"raw_temp": -2.5, "curve": [1.0, 2.0], "diverged": False}
    assert json_mismatch(doc, {"raw_temp": -2.5000000000001, "curve": [1.0, 2.0],
                               "diverged": False}) is None
    assert json_mismatch(doc, {**doc, "curve": [1.0, 2.000001]}) == ("$.curve[1]", 2.0, 2.000001)
    assert json_mismatch(doc, {**doc, "curve": [1.0]})[0] == "$.curve"
    assert json_mismatch(doc, {**doc, "diverged": True})[0] == "$.diverged"
    assert json_mismatch(doc, {"raw_temp": -2.5})[0] == "$"
