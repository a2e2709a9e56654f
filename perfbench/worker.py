"""One workload in one fresh process: set up the input pool, then run
verification operations back to back (a closed loop with a single caller)
for the given number of seconds.  Prints one JSON line with the raw samples;
``run.py`` starts this process and turns the samples into metrics.

``--spawned-at`` is the parent's ``time.monotonic()`` when it started this
process; on Linux that clock is shared by all processes, so the set-up time
includes interpreter start-up and imports.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Layers whose work happens while the pool is built; they are reported per
# set-up.  Every other traced function is reported per operation.
SETUP_LAYERS = (
    "builders.random_unitary_map",
    "builders.random_band_loop",
    "builders.bloch_circle",
    "khat.a_even",
    "numkernel.mat_exp_skew",
    "kops.inversion_homotopy_odd",
    "kops.inversion_homotopy_even",
)
OP_LAYERS = (
    "chernforms.antisym_trace_power",
    "chernforms.cs_form",
    "chernforms.ch_odd",
    "geomgrid.differentiate",
    "geomgrid.exactness_residual",
    "geomgrid.integrate",
    "periodicity.toeplitz_from_loop",
    "periodicity.h_odd_project",
    "periodicity.det_winding",
    "stiefel.virtual_dimension",
    "numkernel.numerical_rank",
    "khat.khat_class",
    "periodicity.kato_transport",
    "numkernel.polar_unitary",
)
# Observables read from the operations' outputs, worst value over the run.
OBSERVABLES = (
    "periodicity.kato_transport.step_halving_delta",
    "periodicity.kato_transport.tracking_defect",
    "periodicity.kato_transport.gram_drift",
    "periodicity.bott_consistency.band_leak",
    "periodicity.bott_consistency.route_err.ch1",
    "periodicity.bott_consistency.route_err.det",
    "periodicity.bott_consistency.route_err.toeplitz",
    *(f"chernforms.cs_exact.residual.deg{d}" for d in range(4)),
)
# Read from the built pool.
SETUP_OUTPUTS = ("kops.inversion_homotopy_odd.out_mb", "kops.inversion_homotopy_even.out_mb")
# The reference computation is timed again before an operation once this
# long has passed since the last timing, so short operations share one.
REFERENCE_INTERVAL_S = 0.5


def _is_traced(i: int, pool_size: int) -> bool:
    # alternate traced and untraced items within a pass and swap the two sets
    # on the next pass, so both kinds visit every item equally often
    return (i % pool_size + i // pool_size) % 2 == 1


def attempt(run_op, item):
    """Run one operation; return its output, or ``None`` and a failure record.

    An operation fails when it raises, which includes the structural checks
    of :mod:`oracles` (non-finite output, a non-unitary holonomy, ...).
    """
    try:
        return run_op(item), None
    except Exception as exc:  # the run goes on; the failure is counted and kept
        return None, {"error": repr(exc), "traceback": traceback.format_exc()}


def _layer_metrics(tracer, traced_times, untraced_times, outputs, setup_extra) -> tuple[dict, list]:
    n_ops, op_total, calls, self_s = tracer.totals_by_root("op")
    _, _, setup_calls, setup_self = tracer.totals_by_root("setup")
    per_op = max(n_ops, 1)
    m: dict = {}
    for name in SETUP_LAYERS:
        m[f"{name}.calls"] = setup_calls.get(name, 0)
        m[f"{name}.self_s"] = setup_self.get(name, 0.0)
    for name in OP_LAYERS:
        m[f"{name}.calls"] = calls.get(name, 0) / per_op
        m[f"{name}.self_s"] = self_s.get(name, 0.0) / per_op
    for name in SETUP_OUTPUTS:
        m[name] = setup_extra.get(name, 0.0)
    steps_per_op = sum(o.transport_steps for o in outputs) / max(len(outputs), 1)
    kato_self = m["periodicity.kato_transport.self_s"]
    m["periodicity.kato_transport.us_per_step"] = 1e6 * kato_self / steps_per_op if steps_per_op else 0.0
    for name in OBSERVABLES:
        m[name] = max((o.observables[name] for o in outputs if name in o.observables), default=0.0)
    m["chernforms.total_calls"] = sum(c for n, c in calls.items() if n.startswith("chernforms.")) / per_op
    m["op.self_s"] = self_s.get("op", 0.0) / per_op
    m["trace.self_sum_gap_s"] = abs(op_total - sum(self_s.values())) / per_op
    m["trace.op_p50_s"] = statistics.median(traced_times) if traced_times else 0.0
    m["trace.untraced_op_p50_s"] = statistics.median(untraced_times) if untraced_times else 0.0
    m["trace.overhead_ratio"] = (
        m["trace.op_p50_s"] / m["trace.untraced_op_p50_s"] if traced_times and untraced_times else 0.0
    )
    m["trace.traced_ops"] = len(traced_times)
    m["trace.untraced_ops"] = len(untraced_times)
    absent = sorted(
        name
        for name in (*SETUP_LAYERS, *OP_LAYERS)
        if not (setup_calls if name in SETUP_LAYERS else calls).get(name)
    )
    absent += [n for n in OBSERVABLES if not any(n in o.observables for o in outputs)]
    return m, absent


def run(args) -> dict:
    import numpy
    import scipy

    import oracles
    import workloads
    from reference import Reference

    workload = workloads.WORKLOADS[args.workload]
    rng = numpy.random.default_rng(args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        with tracer.installed(), tracer.span("setup"):
            pool, setup_extra = workload.build_pool(rng)
    else:
        pool, setup_extra = workload.build_pool(rng)
    setup_s = time.monotonic() - args.spawned_at
    reference = Reference()
    record = {
        "setup_s": setup_s,
        "setup_reference_s": reference.warm_median(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }
    if args.setup_only:
        return record

    times, ref_times, ref_before = [], [], []
    traced_times, untraced_times, outputs, failures = [], [], [], []
    failed = 0
    i = 0
    t_begin = time.perf_counter()
    while True:
        item = pool[i % len(pool)]
        traced = tracer is not None and _is_traced(i, len(pool))
        if not ref_times or time.perf_counter() - ref_at >= REFERENCE_INTERVAL_S:
            ref_times.append(reference.time_once())
            ref_at = time.perf_counter()
        t0 = time.perf_counter()
        if traced:
            with tracer.installed(), tracer.span("op"):
                out, failure = attempt(workload.run, item)
        else:
            out, failure = attempt(workload.run, item)
        t1 = time.perf_counter()
        ref_before.append(len(ref_times) - 1)
        if failure is None:
            outputs.append(out)
        else:
            failed += 1
            if len(failures) < 5:
                failures.append({"op": i, **failure})
        times.append(t1 - t0)
        if tracer is not None:
            (traced_times if traced else untraced_times).append(t1 - t0)
        i += 1
        if t1 - t_begin >= args.seconds and i >= len(pool):
            break
    ref_times.append(reference.time_once())
    # each op in units of the mean of the reference timings on either side of it
    ratios = [t / (0.5 * (ref_times[k] + ref_times[k + 1])) for t, k in zip(times, ref_before)]
    record.update(
        op_times=times,
        op_ratios=ratios,
        reference_times=ref_times,
        attempted=i,
        failed=failed,
        failures=failures,
        pool_size=len(pool),
        worst_residual=max((o.residual for o in outputs), default=1.0),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        accuracy_floor=oracles.ACCURACY_FLOOR,
    )
    if tracer is not None:
        record["layers"], record["absent"] = _layer_metrics(
            tracer, traced_times, untraced_times, outputs, setup_extra
        )
        spans_path = Path(args.spans)
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with spans_path.open("w") as fh:
            for sid, parent, name, start, end, own, root in tracer.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": start,
                                     "end": end, "self": own, "root": root}) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
