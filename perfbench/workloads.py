"""Seeded inputs, operations and oracle gates of the four benchmark workloads.

A workload is a batch of operations generated from the seed; one pass runs
every operation of the batch once. The program receives only the generated
inputs, through the public API of ``entlqg``. Each operation checks its
result against an oracle the package already has (a closed form, the LMI
test, the algebraic Riccati equation, or the CLI's own Monte-Carlo checks)
and ends in one of three states:

- ``pass``: the result met every gate;
- ``fail``: the call raised, or its result missed a gate;
- ``known``: the documented recovery defect near threshold, a
  ``RecoveryError`` from the nonlocal scheme at chi >= 0.4995 (ROADMAP open
  item 4). The ``curves`` grid keeps that tail on purpose so that the fix
  shows; any other error, or this one anywhere else, is a ``fail``.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import entlqg
import entlqg.cli
from entlqg import SchemeId

PASS, FAIL, KNOWN = "pass", "fail", "known"

# curves: one jittered point per equal stratum of [0, CURVES_CHI_HI], plus the
# threshold tail where nonlocal recovery is known to fail.
CURVES_CHI_HI = 0.49
CURVES_STRATA = 17
CHI_TAIL = (0.4995, 0.4999, entlqg.CHI_MAX)
KNOWN_RECOVERY_CHI = 0.4995

# riccati: the relaxation cost of riccati_steady grows like c = 1/(1 - 2 chi),
# so chi is placed by c and jittered by a few per cent in c. Every seed then
# does the same work to within that jitter. Homodyne and -sigma_x relax at the
# slow rate 1 - 2 chi and stop at c = 5 (chi = 0.4, about 1 s each);
# heterodyne and the random unravellings converge in ~10k right-hand sides at
# any chi and reach c = 45 (chi = 0.489).
RICCATI_SLOW_LEVELS = (1.05, 2.0, 5.0)
RICCATI_FAST_LEVELS = (1.05, 2.0, 5.0, 45.0)
RICCATI_JITTER = 0.02
RICCATI_REL_TOL = 1e-9
SIGMA_X_REL_TOL = 1e-8
SIGMA_X = entlqg.Unravelling(-np.array([[0, 1], [1, 0]], dtype=complex))

# verify: `entlqg verify --chi 0.3` at its CLI defaults, for three schemes.
VERIFY_CHI = 0.3
VERIFY_SCHEMES = ("nonlocal", "heterodyne", "local-iii")

# verify-long: heterodyne switched on from the open-loop state, few
# trajectories (less than one 128-trajectory chunk) over a long horizon.
LONG_CHI = 0.3
LONG_DT = 1e-3
LONG_HORIZON = 50.0
LONG_NTRAJ = 64
FIXED_POINT_TOL = 1e-6    # |Vc(T) - W|_inf, as in `entlqg verify`
DECOMPOSITION_SE = 5.0    # covariance decomposition within 5 SE, as in `entlqg verify`

CURVE_PHYSICALITY_REL_TOL = 1e-9
NONLOCAL_L_REL_TOL = 1e-9
HETERODYNE_MU_TOL = 1e-6
OPEN_LOOP_REL_TOL = 1e-12


@dataclass(frozen=True)
class Outcome:
    """Result of one operation: state, reason, 12-digit fingerprint, accuracy figures."""

    status: str
    detail: str = ""
    fingerprint: str = ""
    quality: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], Outcome]


@dataclass(frozen=True)
class Workload:
    """One pass worth of operations and the untimed warm-up call made during set-up."""

    ops: list
    warm_up: Callable[[], object]


def fmt12(x: float) -> str:
    return f"{float(x):.12g}"


def _outcome(problems: list, fingerprint: str, quality: dict | None = None) -> Outcome:
    return Outcome(FAIL if problems else PASS, "; ".join(problems), fingerprint,
                   quality or {})


# ---------------------------------------------------------------- oracles
# Module-level so that the benchmark's tests can substitute a wrong value and
# see the operation counted as failed.

def expected_nonlocal_L(chi: float) -> float:
    return -math.log2(1.0 - 2.0 * chi)


def expected_heterodyne_mu(chi: float) -> float:
    return entlqg.heterodyne_optimal_mu(chi)


def expected_open_loop_V(chi: float) -> np.ndarray:
    return entlqg.open_loop_V(entlqg.NopoParams(chi)).data


def expected_sigma_x_W(chi: float) -> np.ndarray:
    return entlqg.symmetric_family_W(*entlqg.optimal_nonlocal_alpha_beta(chi)).data


def riccati_rel_residual(plant, u, W: np.ndarray) -> float:
    """max|A W + W A^T + D - K K^T| / (largest of its four terms), K = W C^T + Gamma^T."""
    A = entlqg.drift_matrix(plant)
    D = entlqg.diffusion_matrix(plant)
    meas = entlqg.measurement_model(plant, u)
    K = W @ meas.C.T + meas.Gamma.T
    terms = (A @ W, W @ A.T, D, K @ K.T)
    residual = terms[0] + terms[1] + terms[2] - terms[3]
    return float(np.abs(residual).max() / max(np.abs(t).max() for t in terms))


# ---------------------------------------------------------------- curves

def curve_row(chi: float, scheme: SchemeId) -> Outcome:
    try:
        r = entlqg.optimize_scheme(entlqg.NopoParams(chi), scheme)
    except entlqg.RecoveryError as exc:
        if scheme is SchemeId.NONLOCAL and chi >= KNOWN_RECOVERY_CHI:
            return Outcome(KNOWN, f"RecoveryError: {exc}")
        raise

    problems = []
    if not (math.isfinite(r.L) and math.isfinite(r.S)):
        problems.append(f"non-finite L={r.L} or S={r.S}")
    V = r.V.data
    scale = max(1.0, float(np.abs(V).max()))
    if not entlqg.is_physical(r.V, tol=CURVE_PHYSICALITY_REL_TOL * scale):
        problems.append("V violates the uncertainty bound")
    if scheme is SchemeId.NONLOCAL:
        L_exp = expected_nonlocal_L(chi)
        if abs(r.L - L_exp) > NONLOCAL_L_REL_TOL * max(1.0, abs(L_exp)):
            problems.append(f"L={r.L!r}, expected -log2(1-2chi)={L_exp!r}")
    elif scheme is SchemeId.HETERODYNE:
        mu_exp = expected_heterodyne_mu(chi)
        if abs(r.params["mu"] - mu_exp) > HETERODYNE_MU_TOL:
            problems.append(f"mu={r.params['mu']!r}, expected {mu_exp!r}")
    elif scheme is SchemeId.NONE:
        dev = float(np.abs(V - expected_open_loop_V(chi)).max())
        if dev > OPEN_LOOP_REL_TOL * scale:
            problems.append(f"V differs from open_loop_V by {dev:.3e}")

    params = " ".join(f"{k}={fmt12(v)}" for k, v in sorted(r.params.items()))
    fingerprint = (f"{fmt12(chi)} {scheme.value} [{params}] L={fmt12(r.L)} "
                   f"S={fmt12(r.S)} m={fmt12(r.m)} boundary={r.at_boundary}")
    return _outcome(problems, fingerprint)


def _curves(rng: random.Random, smoke: bool) -> Workload:
    strata = 2 if smoke else CURVES_STRATA
    grid = [CURVES_CHI_HI * (k + rng.random()) / strata for k in range(strata)]
    grid += CHI_TAIL
    ops = [Op(f"{fmt12(chi)}/{scheme.value}",
              lambda chi=chi, scheme=scheme: curve_row(chi, scheme))
           for chi in grid for scheme in SchemeId]
    warm = lambda: entlqg.optimize_scheme(entlqg.NopoParams(0.25), SchemeId.HETERODYNE)
    return Workload(ops, warm)


# ---------------------------------------------------------------- riccati

def chi_at_cost(c: float) -> float:
    return 0.5 * (1.0 - 1.0 / c)


def random_upsilon(rng: random.Random) -> entlqg.Unravelling:
    """Complex symmetric Q diag(s) Q^T, Q unitary, singular values s in [0.1, 0.9]."""
    Z = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
                  for _ in range(2)])
    Q, _ = np.linalg.qr(Z)
    s = np.array([rng.uniform(0.1, 0.9) for _ in range(2)])
    return entlqg.Unravelling(Q @ np.diag(s) @ Q.T)


def riccati_pair(chi: float, label: str, u: entlqg.Unravelling) -> Outcome:
    plant = entlqg.build_plant(entlqg.NopoParams(chi))
    W = entlqg.riccati_steady(plant, u)
    rel = riccati_rel_residual(plant, u, W.data)
    lmi = entlqg.lmi_feasible(W, plant)
    problems = []
    if not rel <= RICCATI_REL_TOL:
        problems.append(f"relative Riccati residual {rel:.3e}")
    if not lmi.feasible:
        problems.append(f"LMI margins {lmi.physical_margin:.3e}, {lmi.dissipation_margin:.3e}")
    if label == "sigma-x":
        W_exp = expected_sigma_x_W(chi)
        dev = float(np.abs(W.data - W_exp).max())
        if dev > SIGMA_X_REL_TOL * max(1.0, float(np.abs(W_exp).max())):
            problems.append(f"W differs from symmetric_family_W by {dev:.3e}")
    fingerprint = f"{fmt12(chi)} {label} W=[" + ",".join(fmt12(x) for x in W.data.ravel()) + "]"
    quality = {"rel_residual": rel,
               "lmi_margin": min(lmi.physical_margin, lmi.dissipation_margin)}
    return _outcome(problems, fingerprint, quality)


def _riccati(rng: random.Random, smoke: bool) -> Workload:
    slow = RICCATI_SLOW_LEVELS[:1] if smoke else RICCATI_SLOW_LEVELS
    fast = RICCATI_FAST_LEVELS[:1] if smoke else RICCATI_FAST_LEVELS
    jitter = lambda c: chi_at_cost(c * (1.0 + RICCATI_JITTER * (2.0 * rng.random() - 1.0)))
    pairs = [(jitter(c), "homodyne-q", entlqg.HOMODYNE_Q) for c in slow]
    pairs += [(jitter(c), "sigma-x", SIGMA_X) for c in slow]
    pairs += [(jitter(c), "heterodyne", entlqg.HETERODYNE) for c in fast]
    pairs += [(jitter(c), f"random{k}", random_upsilon(rng)) for k, c in enumerate(fast)]
    ops = [Op(f"{fmt12(chi)}/{label}", lambda a=(chi, label, u): riccati_pair(*a))
           for chi, label, u in pairs]
    warm = lambda: entlqg.riccati_steady(
        entlqg.build_plant(entlqg.NopoParams(chi_at_cost(RICCATI_FAST_LEVELS[0]))),
        entlqg.HETERODYNE)
    return Workload(ops, warm)


# ---------------------------------------------------------------- verify

def run_cli(args: list) -> tuple[int, str]:
    """Run the console-script entry point in-process; return (exit code, stdout)."""
    out = io.StringIO()
    saved_argv = sys.argv
    sys.argv = ["entlqg", *args]
    try:
        with contextlib.redirect_stdout(out):
            entlqg.cli.run()
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.argv = saved_argv
    return code, out.getvalue()


def verify_scheme(args: list) -> Outcome:
    code, text = run_cli(args)
    checks = " | ".join(line for line in text.splitlines() if line.startswith("["))
    return Outcome(PASS if code == 0 else FAIL, f"exit code {code}", checks)


def _verify(rng: random.Random, smoke: bool) -> Workload:
    extra = ["--ntraj", "16", "--horizon", "10"] if smoke else []
    ops = []
    for scheme in VERIFY_SCHEMES:
        args = ["verify", "--chi", str(VERIFY_CHI), "--scheme", scheme,
                "--seed", str(rng.randrange(2**31)), *extra]
        ops.append(Op(scheme, lambda args=args: verify_scheme(args)))
    warm = lambda: run_cli(["verify", "--chi", str(VERIFY_CHI), "--scheme", "heterodyne",
                            "--ntraj", "8", "--horizon", "0.5"])
    return Workload(ops, warm)


# ---------------------------------------------------------------- verify-long

@dataclass(frozen=True)
class LongCase:
    """Heterodyne at its optimal gain with the oracles `entlqg verify` compares to."""

    plant: object
    u: entlqg.Unravelling
    gain: entlqg.FeedbackGain
    v0: entlqg.CovarianceMatrix
    W: np.ndarray
    V_pred: np.ndarray

    @classmethod
    def build(cls, chi: float) -> "LongCase":
        p = entlqg.NopoParams(chi)
        plant = entlqg.build_plant(p)
        u, gain = entlqg.scheme_realization(p, entlqg.optimize_scheme(p, SchemeId.HETERODYNE))
        loop = entlqg.closed_loop(entlqg.drift_matrix(plant), entlqg.diffusion_matrix(plant),
                                  gain, entlqg.measurement_model(plant, u))
        return cls(plant=plant, u=u, gain=gain, v0=entlqg.open_loop_V(p),
                   W=entlqg.riccati_steady(plant, u).data,
                   V_pred=entlqg.lyapunov_steady(loop.A_prime, loop.D_prime).data)

    def simulate(self, horizon: float, n_traj: int, seed: int):
        cfg = entlqg.SimConfig(dt=LONG_DT, t_final=horizon, n_traj=n_traj, seed=seed)
        return entlqg.simulate_conditional(self.plant, self.u, self.gain, cfg, v0=self.v0)


def long_run(case: LongCase, horizon: float, n_traj: int, seed: int) -> Outcome:
    stats = case.simulate(horizon, n_traj, seed)
    dv = float(np.abs(stats.v_c_final.data - case.W).max())
    tol = DECOMPOSITION_SE * stats.mean_outer_sem() + entlqg.cli.MC_FLOOR
    excess = float((np.abs(stats.v_unconditional - case.V_pred) - tol).max())
    problems = []
    if not dv <= FIXED_POINT_TOL:
        problems.append(f"|Vc(T) - W|_inf = {dv:.3e}")
    if not excess <= 0.0:
        problems.append(f"decomposition excess over 5 SE = {excess:.3e}")
    fingerprint = (f"seed={seed} dVc={dv:.3e} excess={excess:.3e} v_unc=["
                   + ",".join(fmt12(x) for x in stats.v_unconditional.ravel()) + "]")
    return _outcome(problems, fingerprint)


def _verify_long(rng: random.Random, smoke: bool) -> Workload:
    case = LongCase.build(LONG_CHI)
    horizon, n_traj = (20.0, 8) if smoke else (LONG_HORIZON, LONG_NTRAJ)
    seed = rng.randrange(2**31)
    ops = [Op(f"seed{seed}", lambda: long_run(case, horizon, n_traj, seed))]
    warm = lambda: case.simulate(0.5, 4, seed)
    return Workload(ops, warm)


GENERATORS = {"curves": _curves, "riccati": _riccati, "verify": _verify,
            "verify-long": _verify_long}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """Generate a workload's inputs from the seed; ``smoke`` shrinks them for tests."""
    return GENERATORS[name](random.Random(seed), smoke)
