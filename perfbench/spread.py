"""Median, quartiles and spread of each metric over recorded runs.

    python3 perfbench/spread.py [records_dir [other_records_dir]]

Reads the records that perfbench/run.py leaves in
.perfbench_work/records/ (one per workload, seed and trace setting) and
prints, per workload and trace setting, for each metric the number of
runs, the median, the quartiles, and the spread: the distance between
the quartiles as a share of the median.

Given a second directory (say, the records of another commit, or a
second set of runs), it also prints each metric's median there as a
share of the first, and every seed whose work digest (hits, decoded
points, output faces, solver and ICP iterations) differs between the
two: such a seed did different work, which is a change of behaviour,
not of speed.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from run import WORK, quartiles, spread


def load(records: Path) -> dict[tuple[str, int], dict[int, dict]]:
    """(workload, trace) -> seed -> record."""
    groups: dict[tuple[str, int], dict[int, dict]] = {}
    for path in sorted(records.glob("*.json")):
        record = json.loads(path.read_text())
        summary = record["summary"]
        groups.setdefault((summary["workload"], summary["trace"]), {})[summary["seed"]] = record
    return groups


def metric_values(runs: dict[int, dict]) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for record in runs.values():
        for name, metric in record["result"]["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values


def changed_digests(first: dict[int, dict], second: dict[int, dict]) -> list[int]:
    """Seeds run in both sets whose work digests differ."""
    return sorted(
        seed for seed in first.keys() & second.keys()
        if first[seed]["summary"]["digest"] != second[seed]["summary"]["digest"]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="*", default=[str(WORK / "records")])
    args = parser.parse_args(argv)
    if len(args.records) > 2:
        parser.error("give at most two record directories")

    sets = [load(Path(d)) for d in args.records]
    first, second = sets[0], sets[-1] if len(sets) == 2 else None
    for (workload, trace), runs in first.items():
        print(f"{workload} trace {trace}")
        values = metric_values(runs)
        other = metric_values(second.get((workload, trace), {})) if second else {}
        for name, vals in values.items():
            q1, q2, q3 = quartiles(vals)
            line = (f"  {name:32s} n={len(vals):<3d} median {q2:<12.6g} "
                    f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread(vals):.4f}")
            if other.get(name):
                line += f"  second/first {quartiles(other[name])[1] / q2:.4f}" if q2 else ""
            print(line)
        if second and (workload, trace) in second:
            changed = changed_digests(runs, second[(workload, trace)])
            if changed:
                print(f"  behaviour change: work digest differs for seeds {changed}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
