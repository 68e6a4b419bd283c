"""entlqg benchmark: four seeded workloads, end-to-end metrics and a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload curves --seed 1 --seconds 25 --trace 0

Workloads: ``curves``, ``riccati``, ``verify``, ``verify-long`` (see
``workloads.py`` and BENCHMARK.json). With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics of one
traced pass and the tracing overhead. The last line of output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it is a JSON report with the run's environment, operation
counts, failures, 12-digit fingerprints and, when traced, exact counts.

Each sample runs in a fresh process (``worker.py``) with one BLAS thread:
``SETUP_SAMPLES - 1`` set-up-only processes, then the process that runs the
workload. ``setup_s`` is the median set-up time of all of them, and
``peak_rss_mb`` is the ``ru_maxrss`` of the workload process. Times are in
reference seconds, scaled by a calibration kernel (``calibration.py``); the
report keeps the raw ones. The run exits non-zero without a result when the
checkout has no ``src/entlqg``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calibration import CAL_REF_S
from tracing import UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("curves", "riccati", "verify", "verify-long")
SETUP_SAMPLES = 5
SMOKE_SETUP_SAMPLES = 2
RUN_LIMIT_S = 170.0
ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
TAIL_BEYOND = 10
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "op_p50_ms": "ms",
             "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def tail(values: list) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at least
    TAIL_BEYOND samples beyond it. With too few samples, the maximum."""
    s, n = sorted(values), len(values)
    if n > TAIL_BEYOND:
        return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    return s[-1], 100.0, 0


def git_sha(root: Path) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "entlqg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def loadavg() -> list:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, **ONE_THREAD)

    def command(self, *extra) -> list:
        a = self.args
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace)]
        return cmd + (["--smoke"] if a.smoke else []) + list(extra)

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        return left

    @staticmethod
    def parse(out: str, what: str) -> dict:
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError(f"{what} printed no result")
        return json.loads(lines[-1])

    def setup_sample(self) -> dict:
        try:
            proc = subprocess.run(self.command("--setup-only"), cwd=ROOT, env=self.env,
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=self.remaining())
        except subprocess.TimeoutExpired as exc:
            raise BenchError("set-up process timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"set-up process exited with {proc.returncode}")
        return self.parse(proc.stdout, "set-up process")

    def workload_process(self) -> tuple[dict, int]:
        """Run the workload process; return its result and its ru_maxrss in KiB."""
        proc = subprocess.Popen(self.command(), cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(self.remaining(), proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise BenchError(f"workload process exited with {proc.returncode}")
        return self.parse(out, "workload process"), usage.ru_maxrss


def metrics_of(args, setup: list, worker: dict, maxrss_kb: int) -> dict:
    """Metric values by name; every time in reference seconds (see calibration.py)."""
    if args.trace:
        values = dict(worker["trace"]["metrics"])
        values["trace.overhead_ratio"] = (
            worker["trace"]["ref_wall_s"] / statistics.median(worker["pass_ref_wall_s"]) - 1.0)
        return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    values = {
        "setup_s": statistics.median(s["setup_ref_s"] for s in setup),
        "wall_s": statistics.median(worker["pass_ref_wall_s"]),
        "cpu_s": statistics.median(worker["pass_ref_cpu_s"]),
        "op_p50_ms": 1e3 * statistics.median(worker["op_ref_s"]),
        "peak_rss_mb": maxrss_kb / 1024,
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the inputs; for the benchmark's own tests, not for measuring")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "entlqg" / "__init__.py").is_file():
        print(f"error: no entlqg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    load_before = loadavg()
    runner = Runner(args)
    try:
        samples = SMOKE_SETUP_SAMPLES if args.smoke else SETUP_SAMPLES
        setup = [runner.setup_sample() for _ in range(samples - 1)]
        worker, maxrss_kb = runner.workload_process()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup.append(worker)

    counts = worker["status_counts"]
    attempted = sum(counts.values())
    metrics = metrics_of(args, setup, worker, maxrss_kb)
    tail_s, tail_pct, tail_beyond = tail(worker["op_ref_s"])
    cals = worker["calibration_wall_s"]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(ROOT), "src_sha256": source_digest(ROOT),
        "python": sys.version.split()[0], "numpy": worker["numpy"],
        "entlqg": worker["entlqg"], "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before, "loadavg_after": loadavg(),
        "setup_raw_s": [s["setup_s"] for s in setup],
        "passes": len(worker["pass_wall_s"]), "ops_per_pass": worker["ops_per_pass"],
        "timed_ops": len(worker["op_ref_s"]),
        "raw_wall_s": statistics.median(worker["pass_wall_s"]),
        "raw_cpu_s": statistics.median(worker["pass_cpu_s"]),
        "raw_op_p50_ms": 1e3 * statistics.median(worker["op_wall_s"]),
        "calibration_s": {"runs": len(cals), "median": statistics.median(cals),
                          "min": min(cals), "max": max(cals)},
        "op_tail_ms": 1e3 * tail_s, "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": tail_beyond,
        "attempted": attempted, "status_counts": counts,
        # Raised or missed a gate, the known threshold defect included.
        "fail_ratio": (counts["fail"] + counts["known"]) / attempted,
        "failures": worker["failures"], "known_defects": worker["known_defects"],
        "fingerprint_sha256": hashlib.sha256(
            "\n".join(worker["fingerprints"]).encode()).hexdigest(),
        "fingerprints": worker["fingerprints"],
    }
    if args.trace:
        report["exact_counts"] = worker["trace"]["exact_counts"]
        report["traced_pass_raw_wall_s"] = worker["trace"]["wall_s"]

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={report['passes']} timed_ops={report['timed_ops']} "
          f"attempted={attempted} fail_ratio={report['fail_ratio']:.6g} "
          f"(fail={counts['fail']}, known={counts['known']})")
    print(f"  times in reference seconds; calibration kernel median "
          f"{report['calibration_s']['median']:.4g} s against {CAL_REF_S} s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  op_tail_ms = {1e3 * tail_s:.6g} ms (report only): p{tail_pct:.4g}, "
          f"{tail_beyond} of {report['timed_ops']} samples beyond")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": counts["fail"] == 0, "attempted": attempted,
                      "failed": counts["fail"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
