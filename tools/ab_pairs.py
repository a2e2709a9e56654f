"""Alternating pairs of benchmark runs on a parent checkout and a changed one.

    python tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W [--workload W2 ..] --seed S --pairs N [--seconds 20]

Runs each checkout's own ``perfbench/run.py --trace 0`` in that checkout, N
times on each side, and alternates which side runs first; with several
``--workload`` options it runs the pairs of each workload in turn and prints
one summary block per workload.  For every end-to-end metric of
``BENCHMARK.json`` a block gives each side's median and quartiles, the
number of pairs the change won (ties count for neither), and whether the
medians differ by more than the parent's interquartile range.  A gain may be
claimed when the change wins at least nine tenths of the pairs and the gap
in its favour beats that range; a metric is ``worse`` when the change's
median trails the parent's by more than that range.  A second line per
metric gives the relative change of the median beside the metric's
``bound``, the share of the parent's median by which an end-to-end metric
may get worse: ``within bound``, ``beyond bound``, or ``unresolved`` when
the parent's own interquartile range is a larger share of its median than
the bound (unless every run of the change reads better than every run of
the parent).  So one command shows the claimed row and every row that must
not get worse.

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


def run_once(checkout: Path, workload: str, args) -> dict:
    """The result line of one ``run.py`` run of ``workload`` in ``checkout``."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
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
    """One line for ``metric``: medians and quartiles, pairs won, the gap
    against the parent's interquartile range, and the verdict: ``gain
    holds``, ``no gain shown``, or ``worse`` when the change's median
    trails the parent's by more than that range."""
    sign = -1.0 if metric["better"] == "lower" else 1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    gap = sign * (cm - pm)
    beats = gap > p3 - p1
    if -gap > p3 - p1:
        claim = "worse"
    elif beats and won >= 0.9 * len(parent):
        claim = "gain holds"
    else:
        claim = "no gain shown"
    return (
        f"{metric['name']:>16}  parent {pm:.6g} [{p1:.6g}-{p3:.6g}]  change {cm:.6g} [{c1:.6g}-{c3:.6g}]  "
        f"won {won}/{len(parent)}  gap {gap:+.4g} vs parent IQR {p3 - p1:.4g} "
        f"({'beats' if beats else 'does not beat'} it): {claim}"
    )


def bound_summary(metric: dict, parent: list[float], change: list[float]) -> str:
    """One line for ``metric``: the change of the median relative to the
    parent's, beside the metric's ``bound``, and the verdict: ``within
    bound``, ``beyond bound`` when the median is worse by more than that
    share of the parent's, or ``unresolved`` when the parent's interquartile
    range is a larger share of its median than the bound and not every run
    of the change reads better than every run of the parent."""
    sign = -1.0 if metric["better"] == "lower" else 1.0
    (p1, pm, p3), cm = quartiles(parent), statistics.median(change)
    change_rel, spread_rel = (cm - pm) / abs(pm), (p3 - p1) / abs(pm)
    every_run_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread_rel > metric["bound"] and not every_run_better:
        verdict = "unresolved"
    elif -sign * change_rel > metric["bound"]:
        verdict = "beyond bound"
    else:
        verdict = "within bound"
    return (
        f"{metric['name']:>16}  median change {change_rel:+.2%} against bound {metric['bound']:.0%} "
        f"(parent IQR {spread_rel:.2%} of its median): {verdict}"
    )


def run_pairs(workload: str, sides: dict, metrics: list, args) -> None:
    """The alternating pairs of ``workload`` and its summary block."""
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    failed = {side: 0 for side in sides}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], workload, args)
            failed[side] += result["failed"]
            for m in metrics:
                values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
        line = "  ".join(f"{side} " + " ".join(f"{v[-1]:.6g}" for v in values[side].values()) for side in sides)
        print(f"{workload} pair {i + 1} ({order[0]} first): {line}", flush=True)
    print(f"{workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs; "
          f"failed ops: parent {failed['parent']}, change {failed['change']}")
    for m in metrics:
        for line in (summary, bound_summary):
            print(line(m, values["parent"][m["name"]], values["change"][m["name"]]), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
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
    for workload in args.workload:
        run_pairs(workload, sides, metrics, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
