import contextlib
import gc
import io
import json
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from entlqg import SchemeId, unravelling
from entlqg.cli import CHI_MAX, CSV_COLUMNS, fmt12, main, run
from oracles import DOMAIN_CHIS


@pytest.fixture
def runner():
    return CliRunner()


class TestModel:
    def test_zero_coupling(self, runner):
        result = runner.invoke(main, ["model", "--chi", "0"])
        assert result.exit_code == 0
        assert "L = 0 bits" in result.output
        assert "S = 0 bits" in result.output
        assert "[0.5, 0, 0, 0]" in result.output  # vacuum covariance row

    def test_quarter_coupling_values(self, runner):
        result = runner.invoke(main, ["model", "--chi", "0.25"])
        assert result.exit_code == 0
        assert "0.584962500721" in result.output       # log2(1.5)
        assert "0.666666666667" in result.output       # EPR variance 2/3

    def test_domain_error(self, runner):
        # 0.4999995 lies below 1/2 but above CHI_MAX: the message names CHI_MAX
        for chi in ("0.5", "0.4999995"):
            result = runner.invoke(main, ["model", "--chi", chi])
            assert result.exit_code == 2
            assert f"<= {CHI_MAX}, got {chi}" in result.output

    def test_json_document(self, runner):
        result = runner.invoke(main, ["model", "--chi", "0.25", "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["meta"]["command"] == "model"
        assert doc["meta"]["version"]
        assert doc["L_bits"] == pytest.approx(np.log2(1.5), abs=1e-9)
        assert np.asarray(doc["A"]).shape == (4, 4)


class TestCurves:
    def test_all_schemes_grid(self, runner):
        result = runner.invoke(main, ["curves", "--chi-min", "0.05", "--chi-max",
                                      "0.45", "--steps", "9", "--schemes", "all"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        rows = [dict(zip(CSV_COLUMNS, ln.split(","))) for ln in lines[1:]]
        assert len(rows) == 45
        by_chi = {}
        for r in rows:
            by_chi.setdefault(r["chi"], {})[r["scheme"]] = float(r["L_bits"])
        for chi, g in by_chi.items():
            assert (g["nonlocal"] >= g["local-iii"] >= g["heterodyne"] >= g["none"])
            assert abs(g["local-iii"] - g["local-iv"]) <= 1e-9

    def test_nonlocal_column_closed_form(self, runner):
        result = runner.invoke(main, ["curves", "--chi-min", "0.1", "--chi-max",
                                      "0.4", "--steps", "4", "--schemes", "nonlocal"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()[1:]
        assert len(lines) == 4
        for ln in lines:
            row = dict(zip(CSV_COLUMNS, ln.split(",")))
            chi = float(row["chi"])
            assert float(row["L_bits"]) == pytest.approx(-np.log2(1 - 2 * chi),
                                                         abs=1e-9)

    def test_single_step(self, runner):
        result = runner.invoke(main, ["curves", "--chi-min", "0.2", "--chi-max",
                                      "0.3", "--steps", "1", "--schemes", "none"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert len(lines) == 2  # header + one row

    def test_csv_roundtrip_at_12_digits(self, runner, tmp_path):
        out = tmp_path / "curves.csv"
        result = runner.invoke(main, ["curves", "--steps", "3", "--out", str(out)])
        assert result.exit_code == 0
        lines = out.read_text().strip().splitlines()
        for ln in lines[1:]:
            row = dict(zip(CSV_COLUMNS, ln.split(",")))
            for col in ("chi", "param_value", "L_bits", "S_bits", "m_cost"):
                assert fmt12(float(row[col])) == row[col]

    def test_json_format(self, runner):
        result = runner.invoke(main, ["curves", "--steps", "2", "--schemes",
                                      "none,nonlocal", "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["meta"]["command"] == "curves"
        assert len(doc["rows"]) == 4
        assert {r["scheme"] for r in doc["rows"]} == {"none", "nonlocal"}

    def test_io_failure(self, runner):
        result = runner.invoke(main, ["curves", "--steps", "1", "--out",
                                      "/nonexistent-dir/curves.csv"])
        assert result.exit_code == 3

    def test_bad_range(self, runner):
        result = runner.invoke(main, ["curves", "--chi-min", "0.4", "--chi-max",
                                      "0.1"])
        assert result.exit_code == 2
        result = runner.invoke(main, ["curves", "--chi-min", "0.4", "--chi-max",
                                      "0.4999995"])
        assert result.exit_code == 2
        assert f"chi_max <= {CHI_MAX}, got [0.4, 0.4999995]" in result.output
        result = runner.invoke(main, ["curves", "--steps", "0"])
        assert result.exit_code == 2
        assert "steps must be >= 1" in result.output

    def test_unknown_scheme(self, runner):
        result = runner.invoke(main, ["curves", "--schemes", "bogus"])
        assert result.exit_code == 2


class TestOptimize:
    def test_antisymmetric_scheme(self, runner):
        result = runner.invoke(main, ["optimize", "--chi", "0.25", "--scheme",
                                      "local-iii"])
        assert result.exit_code == 0
        assert "lambda = 0.249999" in result.output

    def test_heterodyne(self, runner):
        result = runner.invoke(main, ["optimize", "--chi", "0.25", "--scheme",
                                      "heterodyne"])
        assert result.exit_code == 0
        assert "mu = -0.190983" in result.output

    def test_symmetric_combination_scheme(self, runner):
        result = runner.invoke(main, ["optimize", "--chi", "0.25", "--scheme",
                                      "local-ii"])
        assert result.exit_code == 0
        assert "lambda = 0\n" in result.output
        assert "0.584962500721" in result.output  # open-loop entanglement

    def test_unknown_scheme(self, runner):
        result = runner.invoke(main, ["optimize", "--chi", "0.25", "--scheme",
                                      "local-ix"])
        assert result.exit_code == 2

    def test_self_feedback_scheme_reports_boundary(self, runner):
        result = runner.invoke(main, ["optimize", "--chi", "0.25", "--scheme",
                                      "local-i"])
        assert result.exit_code == 0
        assert "supremum at the stability-window edge" in result.output

    def test_json(self, runner):
        result = runner.invoke(main, ["optimize", "--chi", "0.2", "--scheme",
                                      "nonlocal", "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["result"]["L_bits"] == pytest.approx(-np.log2(0.6), abs=1e-9)
        assert doc["result"]["stability_margin"] == pytest.approx(0.3, abs=1e-9)


class TestVerify:
    ARGS = ["verify", "--chi", "0.3", "--scheme", "nonlocal", "--ntraj", "150",
            "--dt", "0.002", "--horizon", "20", "--seed", "7"]

    def test_nonlocal_all_checks_pass(self, runner):
        result = runner.invoke(main, self.ARGS)
        assert result.exit_code == 0, result.output
        assert "all checks passed" in result.output
        assert "FAIL" not in result.output

    def test_deterministic_output(self, runner):
        a = runner.invoke(main, self.ARGS)
        b = runner.invoke(main, self.ARGS)
        assert a.output == b.output

    def test_zero_trajectories_rejected(self, runner):
        result = runner.invoke(main, ["verify", "--chi", "0.3", "--ntraj", "0"])
        assert result.exit_code == 2

    def test_single_trajectory_rejected(self, runner):
        # one trajectory gives no standard error, so the Monte-Carlo checks
        # would have no tolerance to judge by
        result = runner.invoke(main, ["verify", "--chi", "0.3", "--ntraj", "1"])
        assert result.exit_code == 2
        assert "standard error needs at least two trajectories" in result.output

    @pytest.mark.parametrize("args", [["--horizon", "nan"], ["--horizon", "inf"],
                                      ["--dt", "1e-300", "--horizon", "1e300"]],
                             ids=["nan", "inf", "1e300-steps-of-1e-300"])
    def test_non_finite_horizon_rejected(self, runner, args):
        # a non-finite horizon, or one of more steps dt than a float holds,
        # has no step count: an argument error, not a traceback with the exit
        # code of a failed check
        result = runner.invoke(main, ["verify", "--chi", "0.3", *args])
        assert result.exit_code == 2
        assert "t_final must be finite" in result.output

    def test_step_cap_rejected(self, runner):
        # 10^15 steps of 1e-3 would run for years: an argument error
        result = runner.invoke(main, ["verify", "--chi", "0.3", "--dt", "1e-3",
                                      "--horizon", "1e12", "--ntraj", "2"])
        assert result.exit_code == 2
        assert "at most 100000000 steps" in result.output

    def test_held_covariance_certified_once(self, runner, monkeypatch):
        # the simulator certifies the covariance it holds, and verify prints
        # that certificate: one Riccati residual and one filter-gap eigensolve
        # a run, for the closed-form W of each scheme CI verifies
        counts = {"rhs": 0, "gap": 0}
        rhs, eigvals = unravelling.riccati_rhs, np.linalg.eigvals

        def counted_rhs(*args):
            counts["rhs"] += 1
            return rhs(*args)

        def counted_eigvals(a):
            # unravelling calls eigvals for the filter gap alone
            if sys._getframe(1).f_globals["__name__"] == unravelling.__name__:
                counts["gap"] += 1
            return eigvals(a)

        monkeypatch.setattr(unravelling, "riccati_rhs", counted_rhs)
        monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
        for scheme in ("nonlocal", "heterodyne", "local-iii", "local-iv"):
            counts.update(rhs=0, gap=0)
            result = runner.invoke(main, ["verify", "--chi", "0.3", "--scheme", scheme])
            assert result.exit_code == 0, result.output
            assert "[PASS] stabilizing Riccati solution" in result.output
            assert counts == {"rhs": 1, "gap": 1}, scheme

    def test_decomposition_figure_is_a_seeded_ratio(self, runner):
        # local-iii has entries whose standard error is exactly 0; the worst
        # |diff| / tol still reads the noisy ones, so it moves with the seed
        figures = []
        for seed in ("7", "8"):
            result = runner.invoke(main, ["verify", "--chi", "0.3", "--scheme", "local-iii",
                                          "--seed", seed])
            assert result.exit_code == 0, result.output
            line = next(x for x in result.output.splitlines() if "covariance decomposition" in x)
            figures.append(float(line.rsplit("= ", 1)[1]))
        assert all(0 < f <= 1 for f in figures)
        assert figures[0] != figures[1]

    def test_none_scheme(self, runner):
        result = runner.invoke(main, ["verify", "--chi", "0.2", "--scheme", "none",
                                      "--ntraj", "100", "--dt", "0.005",
                                      "--horizon", "40", "--seed", "3"])
        assert result.exit_code == 0, result.output


class TestVerifyNearThreshold:
    # verify takes each W in closed form, so a run ends well under 1 s on a 2-vCPU
    # VM; 10 s leaves room for a slow machine but not for a Riccati relaxation.
    WALL_BOUND_S = 10.0

    @pytest.mark.parametrize("scheme", ["nonlocal", "heterodyne", "local-iii"])
    def test_bounded_time(self, runner, scheme):
        start = time.perf_counter()
        result = runner.invoke(main, ["verify", "--chi", "0.4999", "--scheme", scheme,
                                      "--ntraj", "16"])
        assert time.perf_counter() - start <= self.WALL_BOUND_S
        assert result.exit_code == 0, result.output
        assert "[PASS] stabilizing Riccati solution" in result.output

    @pytest.mark.parametrize("scheme", ["nonlocal", "heterodyne", "local-iii"])
    def test_passes_at_chi_max(self, runner, scheme):
        result = runner.invoke(main, ["verify", "--chi", str(CHI_MAX), "--scheme", scheme,
                                      "--ntraj", "16"])
        assert result.exit_code == 0, result.output


class TestRecover:
    def test_quarter_coupling_printed_unravelling(self, runner):
        result = runner.invoke(main, ["recover", "--chi", "0.25"])
        assert result.exit_code == 0
        assert "alpha = 0.625" in result.output
        assert "beta = 0.375" in result.output
        assert result.output.count("q1-q2") == 2
        assert result.output.count("p1+p2") == 2
        assert "[0.5, -0.5, 0, 0]" in result.output

    @pytest.mark.parametrize("chi", ["1e-9", "1e-5", "1e-4"])
    def test_rows_labelled_near_zero_coupling(self, runner, chi):
        # W barely fixes U here, yet the rows are the quadratures printed at 0.25
        result = runner.invoke(main, ["recover", "--chi", chi])
        assert result.exit_code == 0
        assert result.output.count("q1-q2") == 2
        assert result.output.count("p1+p2") == 2
        assert "(mixed quadratures)" not in result.output

    def test_zero_coupling_degenerate(self, runner):
        result = runner.invoke(main, ["recover", "--chi", "0.0"])
        assert result.exit_code == 0
        assert "residual" in result.output
        help_text = " ".join(runner.invoke(main, ["recover", "--help"]).output.split())
        assert "below chi ~ 1e-12" in help_text and "at chi = 0 U is not determined" in help_text

    def test_near_threshold(self, runner):
        result = runner.invoke(main, ["recover", "--chi", "0.45"])
        assert result.exit_code == 0
        for line in result.output.splitlines():
            if "recovery residual" in line:
                assert float(line.split("=")[1]) <= 1e-8


class TestDomainSweep:
    # Every command answers over the whole accepted domain, the threshold
    # tail included; the sweep takes about 2 s on a 2-vCPU VM.
    WALL_BOUND_S = 30.0

    def test_every_command_across_the_domain(self, runner):
        failed = []

        def run(args):
            result = runner.invoke(main, args)
            if result.exit_code != 0:
                failed.append((args, result.exit_code, result.output[-200:]))
            return result

        start = time.perf_counter()
        for chi in map(str, DOMAIN_CHIS):
            run(["model", "--chi", chi])
            run(["recover", "--chi", chi])
            for scheme in (s.value for s in SchemeId):
                result = run(["optimize", "--chi", chi, "--scheme", scheme,
                              "--format", "json"])
                if result.exit_code == 0:
                    doc = json.loads(result.output)["result"]
                    if not (np.isfinite(doc["L_bits"]) and np.isfinite(doc["S_bits"])):
                        failed.append((chi, scheme, doc["L_bits"], doc["S_bits"]))
                run(["verify", "--chi", chi, "--scheme", scheme, "--ntraj", "16"])
        assert failed == []
        assert time.perf_counter() - start <= self.WALL_BOUND_S


class TestInProcessRuns:
    @pytest.mark.parametrize("args", [
        ["verify", "--chi", "0.3", "--ntraj", "16", "--horizon", "2"],
        ["optimize", "--chi", "0.3", "--scheme", "heterodyne"],
        ["--help"], ["--version"], ["verify", "--help"]],
        ids=["verify", "optimize", "help", "version", "verify-help"])
    def test_redirected_stdout_is_released(self, monkeypatch, args):
        # A caller that runs the console entry point in process with stdout
        # redirected to a fresh stream each time must not find the streams
        # kept alive after the calls.
        streams = []
        for _ in range(5):
            out = io.StringIO()
            monkeypatch.setattr(sys, "argv", ["entlqg", *args])
            with pytest.raises(SystemExit) as exit_info, contextlib.redirect_stdout(out):
                run()
            assert exit_info.value.code == 0 and "\n" in out.getvalue()
            streams.append(weakref.ref(out))
            del out, exit_info
        gc.collect()
        assert [ref() for ref in streams] == [None] * 5


GOLDEN = Path(__file__).parent / "data"


class TestGoldenOutputs:
    def test_outputs_match_golden_files(self, runner):
        # The printed answers, byte for byte: the default curves CSV, optimize
        # --chi 0.25 --format json for every scheme (without meta.version) and
        # verify --chi 0.3 for the four schemes CI verifies. A change that moves
        # a printed digit must explain it and rewrite the file it changes.
        runs = {"curves.csv": ["curves"]}
        for s in SchemeId:
            runs[f"optimize-chi0.25-{s.value}.json"] = [
                "optimize", "--chi", "0.25", "--scheme", s.value, "--format", "json"]
        for s in ("nonlocal", "heterodyne", "local-iii", "local-iv"):
            runs[f"verify-chi0.3-{s}.txt"] = ["verify", "--chi", "0.3", "--scheme", s]
        assert sorted(runs) == sorted(p.name for p in GOLDEN.iterdir())
        differ = []
        for name, args in runs.items():
            result = runner.invoke(main, args)
            assert result.exit_code == 0, (name, result.output)
            text = result.stdout
            if name.endswith(".json"):
                doc = json.loads(text)
                del doc["meta"]["version"]
                text = json.dumps(doc, indent=2) + "\n"
            if text.encode() != (GOLDEN / name).read_bytes():
                differ.append(name)
        assert differ == []
