"""Alternating pairs of benchmark runs on a parent checkout and a changed one.

    python tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed S --pairs N [--seconds 20]

Runs each checkout's own ``perfbench/run.py --trace 0`` in that checkout, N
times on each side, and alternates which side runs first.  For every
end-to-end metric of ``BENCHMARK.json`` it prints each side's median and
quartiles, the number of pairs the change won (ties count for neither), and
whether the medians differ, in the change's favour, by more than the parent's
interquartile range.  A gain may be claimed when the change wins at least nine
tenths of the pairs and the gap beats that range.

``peak_rss_mb`` depends on the length of the checkout's path, so the tool
warns when the two paths differ in length.  It writes nothing itself; each
``run.py`` writes its record under its own ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, args) -> dict:
    """The result line of one ``run.py`` run in ``checkout``."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(metric: dict, parent: list[float], change: list[float]) -> str:
    """One line for ``metric``: medians and quartiles, pairs won, and the gap
    against the parent's interquartile range."""
    sign = -1.0 if metric["better"] == "lower" else 1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    gap = sign * (cm - pm)
    beats = gap > p3 - p1
    claim = "gain holds" if beats and won >= 0.9 * len(parent) else "no gain shown"
    return (
        f"{metric['name']:>16}  parent {pm:.6g} [{p1:.6g}-{p3:.6g}]  change {cm:.6g} [{c1:.6g}-{c3:.6g}]  "
        f"won {won}/{len(parent)}  gap {gap:+.4g} vs parent IQR {p3 - p1:.4g} "
        f"({'beats' if beats else 'does not beat'} it): {claim}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for path in sides.values():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"{path} has no perfbench/run.py")
    if len(str(sides["parent"])) != len(str(sides["change"])):
        print(
            f"warning: checkout paths differ in length ({len(str(sides['parent']))} and {len(str(sides['change']))}"
            " characters); peak_rss_mb depends on it", file=sys.stderr,
        )
    metrics = json.loads((sides["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    failed = {side: 0 for side in sides}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args)
            failed[side] += result["failed"]
            for m in metrics:
                values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
        line = "  ".join(f"{side} " + " ".join(f"{v[-1]:.6g}" for v in values[side].values()) for side in sides)
        print(f"pair {i + 1} ({order[0]} first): {line}", flush=True)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs; "
          f"failed ops: parent {failed['parent']}, change {failed['change']}")
    for m in metrics:
        print(summary(m, values["parent"][m["name"]], values["change"][m["name"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
