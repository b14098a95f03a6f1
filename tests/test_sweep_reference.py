"""Four seeded sweeps against the CSV text recorded in
``tests/data/sweep_reference.json`` by ``scripts/record_sweep_reference.py``.

The rule. On the build the reference was recorded on (the same numpy
version, BLAS build and SIMD extensions) every CSV must match the
recording byte for byte. On another build, rounding alone may move the last
bits: two equal-math demapper kernels moved ``sigma_opt`` by about 5e-12 in
log. So there every BMI column must be within 1e-12 (absolute, in bit), each
``log sigma_opt`` within 1e-9, and every other column, slip medians
included, must be equal. These bounds are the contract; a change that moves
a number past them re-records the reference and bumps ``RESULTS_VERSION``,
and never widens them.
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

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "tests" / "data" / "sweep_reference.json"
BMI_ATOL = 1e-12
LOG_SIGMA_ATOL = 1e-9


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
    if column.startswith("bmi"):
        return abs(float(want) - float(got)) <= BMI_ATOL
    if column == "sigma_opt":
        return abs(math.log(float(want)) - math.log(float(got))) <= LOG_SIGMA_ATOL
    return want == got


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


def test_sweeps_match_the_recorded_reference(fresh):
    recorded = json.loads(REFERENCE.read_text())
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
