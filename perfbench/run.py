"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  With ``--trace 0`` it starts the workload
in a fresh process (``worker.py``), plus two more processes that only set up,
and reports the end-to-end metrics listed in ``BENCHMARK.json``.  With
``--trace 1`` the worker alternates traced and untraced operations and the
per-layer metrics are reported instead.  Human-readable lines come first; the
last line of standard output is the JSON result.  A fuller record, with the
environment and the sample count behind every timing, is written to
``perfbench/results/``.  See ``perfbench/README.md`` for the workloads,
metrics and oracles.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_SAMPLES = 3  # set-up is timed in this many fresh processes; the median is reported
DEADLINE_S = 170.0  # the whole run, children included, ends within this


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("CHERNLAB_JOBS", None)  # the program's default: one job
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # the checkout stays as it was
    return env


def spawn(args, deadline: float, *extra: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(samples: list[float]) -> dict | None:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    for pct in range(99, 49, -1):
        beyond = n - math.ceil(pct / 100.0 * n)
        if beyond >= 10:
            return {"percentile": pct, "value": ordered[n - beyond - 1], "samples_beyond": beyond}
    return None


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def end_to_end(out: dict, setups: list[dict]) -> tuple[dict, dict]:
    """Metrics from the measuring worker's record and the set-up records of
    all workers; times are rescaled to the nominal reference speed."""
    times = out["op_times"]
    ok = out["attempted"] - out["failed"]
    setup_ratios = [s["setup_s"] / s["setup_reference_s"] for s in setups]
    metrics = {
        "op_p50_s": statistics.median(out["op_ratios"]) * NOMINAL_S,
        "setup_s": statistics.median(setup_ratios) * NOMINAL_S,
        "peak_rss_mb": out["peak_rss_mb"],
        "accuracy_digits": -math.log10(max(out["worst_residual"], out["accuracy_floor"])),
    }
    details = {
        "op_p50_s": {"samples": len(times)},
        "op_p50_wall_s": {"value": statistics.median(times), "samples": len(times), "op_times": times},
        "op_tail_wall_s": tail_percentile(times),
        "ops_per_wall_s": {"value": ok / sum(times), "ops": ok, "op_wall_s": sum(times)},
        "reference_s": {"median": statistics.median(out["reference_times"]),
                        "samples": len(out["reference_times"]), "nominal": NOMINAL_S},
        "setup_s": {"samples": len(setups), "wall_s": [s["setup_s"] for s in setups],
                    "reference_s": [s["setup_reference_s"] for s in setups]},
        "error_rate": out["failed"] / out["attempted"],
        "accuracy_digits": {"worst_residual": out["worst_residual"], "ops": ok, "pool_size": out["pool_size"]},
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "chernlab").is_dir():
        print(f"no chernlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        out = spawn(args, deadline, "--spans", str(RESULTS / f"{tag}.spans.jsonl"))
        metrics, details = out["layers"], {"absent": out["absent"]}
        wanted = spec["per_layer"]
    else:
        setups = [spawn(args, deadline, "--setup-only") for _ in range(SETUP_SAMPLES - 1)]
        out = spawn(args, deadline)
        setups.append(out)
        metrics, details = end_to_end(out, setups)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 1

    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "OPENBLAS_NUM_THREADS": worker_env()["OPENBLAS_NUM_THREADS"],
            "CHERNLAB_JOBS": worker_env().get("CHERNLAB_JOBS"),
            "python": out["python"],
            "numpy": out["numpy"],
            "scipy": out["scipy"],
            "platform": platform.platform(),
            "git_commit": git_commit(),
        },
        "result": result,
        "details": details,
        "failures": out["failures"],
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        w, n = args.workload, details["op_p50_s"]["samples"]
        print(f"{w} op_p50_s from {n} ops, setup_s from {SETUP_SAMPLES} processes; both at reference speed")
        print(f"{w} reference_s = {details['reference_s']['median']:.6g} s "
              f"({details['reference_s']['samples']} samples; nominal {NOMINAL_S} s)")
        print(f"{w} op_p50_wall_s = {details['op_p50_wall_s']['value']:.6g} s ({n} ops)")
        tail = details["op_tail_wall_s"]
        if tail is None:
            print(f"{w} op_tail_wall_s absent: fewer than 20 ops")
        else:
            print(f"{w} op_tail_wall_s = {tail['value']:.6g} s "
                  f"(p{tail['percentile']}, {tail['samples_beyond']} samples beyond)")
        print(f"{w} ops_per_wall_s = {details['ops_per_wall_s']['value']:.6g} 1/s ({n} ops)")
        print(f"{w} error_rate = {details['error_rate']:.6g} ({out['failed']} of {out['attempted']})")
        print(f"{w} setup wall_s = {', '.join(f'{s:.4g}' for s in details['setup_s']['wall_s'])}")
    else:
        print(f"{args.workload} absent (no calls or no output on this workload): {', '.join(details['absent'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
