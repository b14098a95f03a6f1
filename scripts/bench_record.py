"""Build a before/after benchmark record (BENCH_<n>.json) from perfbench runs.

Each --parent and --change directory is the --out directory of one round of
``perfbench/run.py`` runs on that side: it holds one
``<workload>-seed<s>-trace<t>.json`` record per workload and seed run in
that round. The i-th parent directory and the i-th change directory form
pair i. For every workload, seed and end-to-end metric of BENCHMARK.json the
output holds each run's value, the median and quartiles per side and the
pairs the change won. Per side it also holds each run's fingerprint and
failure counts and, where the directories have one, the per-layer metrics
(self times and counts) of one traced run (``--trace 1``); and it holds the
machine the runs came from.

    python scripts/bench_record.py --parent p/0 p/1 ... --change c/0 c/1 ... \\
        --parent-commit <sha> --change-commit <sha> --out BENCH_6.json
"""

import argparse
import json
import re
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RECORD_NAME = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json")


def load_round(directory: Path) -> dict:
    """{(workload, seed, trace): record} of one --out directory."""
    records = {}
    for path in sorted(directory.glob("*.json")):
        match = RECORD_NAME.fullmatch(path.name)
        if match:
            key = (match["workload"], int(match["seed"]), int(match["trace"]))
            records[key] = json.loads(path.read_text())
    return records


def summary(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"runs": values, "median": median, "quartiles": [q1, q3]}


def compare(parent_runs: list, change_runs: list, spec: list) -> dict:
    metrics = {}
    for metric in spec:
        name = metric["name"]
        before = [r["metrics"][name]["value"] for r in parent_runs]
        after = [r["metrics"][name]["value"] for r in change_runs]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        pairs = list(zip(before, after))
        parent, change = summary(before), summary(after)
        metrics[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": parent,
            "change": change,
            "pairs": len(pairs),
            "change_wins": sum(sign * (a - b) < 0 for b, a in pairs),
            "ties": sum(a == b for b, a in pairs),
            "median_change_relative": change["median"] / parent["median"] - 1.0,
            "parent_iqr": parent["quartiles"][1] - parent["quartiles"][0],
        }
    return metrics


def run_health(record: dict) -> dict:
    units = record["units"]
    return {
        "units": len(units),
        "failed": sum(u["error"] is not None for u in units),
        "fingerprint_identical": record["fingerprint"]["identical"],
        "fingerprint_compared": record["fingerprint"]["compared"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, nargs="+", required=True)
    parser.add_argument("--change", type=Path, nargs="+", required=True)
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--change-commit", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if len(args.parent) != len(args.change):
        parser.error("give one change directory per parent directory")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rounds = {
        "parent": [load_round(d) for d in args.parent],
        "change": [load_round(d) for d in args.change],
    }
    groups = sorted(
        {key[:2] for side in rounds.values() for r in side for key in r if key[2] == 0}
    )
    workloads = []
    for workload, seed in groups:
        key = (workload, seed, 0)
        paired = [
            (p[key], c[key])
            for p, c in zip(rounds["parent"], rounds["change"])
            if key in p and key in c
        ]
        parent_runs = [p for p, _ in paired]
        change_runs = [c for _, c in paired]
        workloads.append(
            {
                "workload": workload,
                "seed": seed,
                "seconds": parent_runs[0]["args"]["seconds"],
                "metrics": compare(parent_runs, change_runs, spec["end_to_end"]),
                "runs": {
                    "parent": [run_health(r) for r in parent_runs],
                    "change": [run_health(r) for r in change_runs],
                },
            }
        )

    traced = {}
    for side, side_rounds in rounds.items():
        for records in side_rounds:
            for (workload, seed, trace), record in records.items():
                if trace == 1 and side not in traced.setdefault(workload, {}):
                    traced[workload][side] = {
                        "seed": seed,
                        "units": len(record["units"]),
                        "per_layer": {k: v["value"] for k, v in record["metrics"].items()},
                    }

    first = next(r for side in rounds.values() for rr in side for r in rr.values())
    doc = {
        "command": spec["command"],
        "parent_commit": args.parent_commit,
        "change_commit": args.change_commit,
        "machine": first["environment"],
        "workloads": workloads,
        "traced": traced,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
