"""Tests of the benchmark itself.

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import calibration  # noqa: E402
import entlqg  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def statuses(workload) -> list:
    return [worker.run_op(op).status for op in workload.ops]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(name, trace):
    proc = run_benchmark("--workload", name, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    report = json.loads(proc.stdout.strip().splitlines()[-2])["report"]
    for key in ("git_sha", "python", "numpy", "nproc", "loadavg_before", "seed",
                "fail_ratio", "fingerprints"):
        assert key in report


def test_missing_sources_fail_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = run_benchmark("--workload", "curves", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrong_oracle_value_counts_as_failed(monkeypatch):
    curves = workloads.build("curves", 5, smoke=True)
    assert workloads.FAIL not in statuses(curves)
    monkeypatch.setattr(workloads, "expected_heterodyne_mu", lambda chi: 0.25)
    monkeypatch.setattr(workloads, "expected_nonlocal_L", lambda chi: -1.0)
    got = statuses(curves)
    wrong = [op.label for op, s in zip(curves.ops, got) if s == workloads.FAIL]
    assert wrong and all(label.endswith(("/heterodyne", "/nonlocal")) for label in wrong)
    assert sum(label.endswith("/heterodyne") for label in wrong) == len(curves.ops) // 7


def test_wrong_riccati_oracle_counts_as_failed(monkeypatch):
    riccati = workloads.build("riccati", 5, smoke=True)
    monkeypatch.setattr(workloads, "expected_sigma_x_W", lambda chi: np.eye(4))
    got = dict(zip((op.label.split("/")[1] for op in riccati.ops), statuses(riccati)))
    assert got.pop("sigma-x") == workloads.FAIL
    assert set(got.values()) == {workloads.PASS}


def test_only_the_documented_recovery_error_is_known(monkeypatch):
    def fail_recovery(p, scheme):
        raise entlqg.RecoveryError("forced")
    monkeypatch.setattr(entlqg, "optimize_scheme", fail_recovery)
    assert workloads.curve_row(0.4999, entlqg.SchemeId.NONLOCAL).status == workloads.KNOWN
    for chi, scheme in ((0.2, entlqg.SchemeId.NONLOCAL), (0.4999, entlqg.SchemeId.LOCAL_I)):
        outcome = worker.run_op(workloads.Op("x", lambda: workloads.curve_row(chi, scheme)))
        assert outcome.status == workloads.FAIL


def test_failed_verify_exit_code_is_failed():
    op = workloads.Op("bad", lambda: workloads.verify_scheme(
        ["verify", "--chi", "0.3", "--ntraj", "0"]))
    assert worker.run_op(op).status == workloads.FAIL


def test_same_seed_gives_same_inputs_and_exact_counts():
    def traced(name, seed):
        w = workloads.build(name, seed, smoke=True)
        result = worker.traced_pass(w.ops, calibration.Stopwatch())
        return [o.fingerprint for o in result["outcomes"]], result["exact_counts"]

    for name in ("curves", "riccati", "verify-long"):
        first, again = traced(name, 8), traced(name, 8)
        assert first == again
        assert any(any(c.values()) for c in first[1].values())
    assert traced("curves", 8)[0] != traced("curves", 9)[0]
