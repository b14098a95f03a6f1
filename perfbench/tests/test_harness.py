"""Tiny runs of every workload through the benchmark harness.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
Each run uses ``--quick --units`` so the whole file takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(tmp_path, *args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--out", str(tmp_path / "out"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    doc = result(
        bench(tmp_path, "--workload", workload, "--seed", "5", "--seconds", "1",
              "--trace", str(trace), "--quick", "--units", "1")
    )
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["attempted"] == 1 and doc["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for m in doc["metrics"].values():
        assert isinstance(m["value"], float)
    # every time is measured; only the tracing overhead may come out negative
    timed = {n: m for n, m in doc["metrics"].items() if m["unit"] != "count"}
    timed.pop("trace.overhead_s", None)
    assert all(m["value"] > 0 for m in timed.values()), timed


def _record_then_check(tmp_path, workload, units, corrupt):
    ref = tmp_path / "ref.json"
    common = ["--workload", workload, "--seed", "7", "--trace", "0", "--quick",
              "--units", str(units), "--reference", str(ref)]
    result(bench(tmp_path, *common, "--record"))
    clean = bench(tmp_path, *common)
    assert result(clean)["failed"] == 0
    assert f"fingerprint {units * (1 if workload == 'train_m15' else 4)} of" in clean.stdout

    doc = json.loads(ref.read_text())
    corrupt(doc["units"])
    ref.write_text(json.dumps(doc))
    return bench(tmp_path, *common)


def test_corrupted_sweep_reference_raises_error_rate(tmp_path):
    def corrupt(units):
        units["8"]["cpn"]["bmi"] += 1e-6

    doc = result(_record_then_check(tmp_path, "m15_fast_walk", 2, corrupt))
    assert doc["correct"] is False
    assert doc["attempted"] == 2 and doc["failed"] == 1


def test_corrupted_training_reference_raises_error_rate(tmp_path):
    def corrupt(units):
        units["7"]["loss"] *= 1.0 + 1e-6

    doc = result(_record_then_check(tmp_path, "train_m15", 2, corrupt))
    assert doc["correct"] is False
    assert doc["attempted"] == 2 and doc["failed"] == 1


def test_changed_hash_alone_is_reported_but_not_failed(tmp_path):
    def corrupt(units):
        units["7"]["bps"]["sha256"] = "0" * 64

    proc = _record_then_check(tmp_path, "m15_fast_walk", 1, corrupt)
    assert result(proc)["failed"] == 0
    assert "fingerprint 3 of 4 sha256 identical" in proc.stdout


def test_fails_without_the_package_source(tmp_path):
    bare = tmp_path / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "m15_fast_walk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
