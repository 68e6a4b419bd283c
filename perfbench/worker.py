"""One benchmark process: set up a workload, then time passes over it.

Started by ``run.py`` in a fresh interpreter, once per set-up sample and once
for the measured run. The last line of its output is one JSON object.

Set-up is timed from the start of ``main`` (before ``entlqg`` is imported)
to the end of one untimed warm-up call. The timed phase then runs whole
passes over the workload's batch, starting a pass only while the previous
pass's wall time still fits in the time budget; the first pass always runs.
A traced run spends half the budget on untraced passes and then makes one
traced pass, so its per-layer figures and exact counts cover one pass.
Every time is reported raw and in reference seconds (see calibration.py).
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MAX_REPORTED_FAILURES = 20
SETUP_KERNEL_RUNS = 3


def import_checkout_entlqg():
    """Import entlqg from this checkout's src/, refusing any other installed copy."""
    if not (SRC / "entlqg" / "__init__.py").is_file():
        raise SystemExit(f"no entlqg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import entlqg
    if Path(entlqg.__file__).resolve().parent != SRC / "entlqg":
        raise SystemExit(f"imported entlqg from {entlqg.__file__}, not from {SRC}")
    return entlqg


def run_op(op):
    """Outcome of one operation; an exception is a failed operation."""
    from workloads import FAIL, Outcome
    try:
        return op.run()
    except Exception as exc:  # any error the program raises fails this operation
        return Outcome(FAIL, f"{type(exc).__name__}: {exc}")


def run_pass(ops, watch, tracer=None):
    """Run every operation once under the stopwatch; return (outcomes, exact counts)."""
    outcomes, counts = [], {}
    for op in ops:
        before = tracer.counts() if tracer else None
        outcomes.append(watch.time(lambda: run_op(op)))
        if tracer:
            after = tracer.counts()
            counts[op.label] = {k: after[k] - before[k] for k in after}
    return outcomes, counts


def timed_passes(ops, budget_s: float, watch) -> list:
    outcomes = []
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        outcomes += run_pass(ops, watch)[0]
        now = time.perf_counter()
        if now - start + (now - p0) > budget_s:
            return outcomes


def traced_pass(ops, watch) -> dict:
    from tracing import Tracer
    tracer = Tracer()
    with tracer.installed():
        outcomes, counts = run_pass(ops, watch, tracer)
    metrics = tracer.layer_metrics()
    quality = [o.quality for o in outcomes if o.quality]
    metrics["unravelling.riccati.max_rel_residual"] = max(
        (q["rel_residual"] for q in quality), default=0.0)
    metrics["unravelling.lmi.min_margin"] = min(
        (q["lmi_margin"] for q in quality), default=0.0)
    return {"outcomes": outcomes, "metrics": metrics, "exact_counts": counts}


def per_pass(times: list, n: int) -> list:
    """Sum per-operation times over each pass of n operations."""
    return [sum(times[i:i + n]) for i in range(0, len(times), n)]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    entlqg = import_checkout_entlqg()
    import numpy as np
    import workloads
    # The CLI's heterodyne verify emits this by design; the traced pass counts it.
    warnings.filterwarnings("ignore", message="t_final=.*slowest closed-loop")
    workload = workloads.build(args.workload, args.seed, smoke=args.smoke)
    workload.warm_up()
    setup_s = time.perf_counter() - T_START

    import calibration
    wall_factor = calibration.reference_factor(
        [calibration.kernel() for _ in range(SETUP_KERNEL_RUNS)])[0]
    result = {"setup_s": setup_s, "setup_ref_s": setup_s * wall_factor,
              "entlqg": entlqg.__version__, "numpy": np.__version__}
    if args.setup_only:
        print(json.dumps(result))
        return

    watch = calibration.Stopwatch()
    budget = args.seconds / 2 if args.trace else args.seconds
    outcomes = timed_passes(workload.ops, budget, watch)
    timed, n = len(outcomes), len(workload.ops)
    labels = [op.label for op in workload.ops] * (timed // n)
    if args.trace:
        traced = traced_pass(workload.ops, watch)
        outcomes += traced["outcomes"]
        labels += [op.label for op in workload.ops]
    raw, ref = watch.records, watch.finish()
    op_wall, op_cpu = [r[0] for r in raw[:timed]], [r[1] for r in raw[:timed]]
    ref_wall, ref_cpu = [r[0] for r in ref[:timed]], [r[1] for r in ref[:timed]]
    result.update(
        ops_per_pass=n, op_wall_s=op_wall, op_ref_s=ref_wall,
        pass_wall_s=per_pass(op_wall, n), pass_cpu_s=per_pass(op_cpu, n),
        pass_ref_wall_s=per_pass(ref_wall, n), pass_ref_cpu_s=per_pass(ref_cpu, n),
        calibration_wall_s=[r[0] for block in watch.blocks for r in block],
        fingerprints=[f"{op.label}: {o.fingerprint}"
                      for op, o in zip(workload.ops, outcomes)])
    if args.trace:
        result["trace"] = {
            "wall_s": sum(r[0] for r in raw[timed:]),
            "ref_wall_s": sum(r[0] for r in ref[timed:]),
            "metrics": traced["metrics"], "exact_counts": traced["exact_counts"]}
    result["status_counts"] = {s: sum(o.status == s for o in outcomes)
                               for s in (workloads.PASS, workloads.FAIL, workloads.KNOWN)}
    result["failures"] = [{"op": label, "detail": o.detail}
                          for label, o in zip(labels, outcomes)
                          if o.status == workloads.FAIL][:MAX_REPORTED_FAILURES]
    result["known_defects"] = sorted({f"{label}: {o.detail}"
                                      for label, o in zip(labels, outcomes)
                                      if o.status == workloads.KNOWN})
    print(json.dumps(result))


if __name__ == "__main__":
    main()
