"""Acceptance suite: each test enforces one acceptance criterion at its stated
tolerance and prints a PASS/FAIL line (run with -s to see them inline)."""

import numpy as np

from entlqg import (HETERODYNE, HOMODYNE_Q, JOINT_HOMODYNE, CovarianceMatrix, NopoParams, SchemeId,
                    build_plant, closed_loop, cost_matrix, diffusion_matrix, drift_matrix,
                    heterodyne_closed_form_V, homodyne_closed_form_V, lmi_feasible,
                    lyapunov_steady, measurement_model, optimal_gain, optimal_nonlocal,
                    optimal_nonlocal_alpha_beta, optimize_scheme, recover_unravelling,
                    regulation_cost, regulation_cost_sem, riccati_steady, scheme_realization,
                    simulate_conditional, symmetric_family_W, symplectic_eigenvalues, u_matrix,
                    SimConfig)
from entlqg.dynamics import is_hurwitz
from entlqg.nopo import heterodyne_gain, heterodyne_stable, homodyne_gain, homodyne_stable
from entlqg.cli import MC_FLOOR
from oracles import (CHI_GRID, PRINTED_OPTIMAL_U, printed_heterodyne_loop,
                     printed_homodyne_loop)


def _report(name: str, failures: list[str]):
    print(f"\n[{'PASS' if not failures else 'FAIL'}] {name}")
    for f in failures:
        print(f"    - {f}")
    assert not failures, f"{name}: " + " | ".join(failures)


def test_criterion_01_closed_form_curves():
    failures = []
    for chi in CHI_GRID:
        p = NopoParams(chi)
        L_nl = optimize_scheme(p, SchemeId.NONLOCAL).L
        L_none = optimize_scheme(p, SchemeId.NONE).L
        if abs(L_nl + np.log2(1 - 2 * chi)) > 1e-9:
            failures.append(f"nonlocal L at chi={chi}: {L_nl}")
        if abs(L_none - np.log2(1 + 2 * chi)) > 1e-9:
            failures.append(f"open-loop L at chi={chi}: {L_none}")
    p = NopoParams(0.25)
    if abs(optimize_scheme(p, SchemeId.NONLOCAL).L - 1.0) > 1e-9:
        failures.append("spot value chi=0.25 nonlocal != 1.0")
    if abs(optimize_scheme(p, SchemeId.NONE).L - 0.584963) > 1e-6:
        failures.append("spot value chi=0.25 open loop != 0.584963")
    _report("criterion 1: closed-form curve reproduction", failures)


def test_criterion_02_local_scheme_optima():
    failures = []
    for chi in CHI_GRID:
        p = NopoParams(chi)
        r3 = optimize_scheme(p, SchemeId.LOCAL_III)
        r4 = optimize_scheme(p, SchemeId.LOCAL_IV)
        if abs(r3.params["lambda"] - chi) > 1e-6:
            failures.append(f"case iii lambda* at chi={chi}: {r3.params['lambda']}")
        if abs(r4.params["lambda"] + chi) > 1e-6:
            failures.append(f"case iv lambda* at chi={chi}: {r4.params['lambda']}")
        if abs(r3.L - r4.L) > 1e-9:
            failures.append(f"case iii/iv L mismatch at chi={chi}")
        L_open = np.log2(1 + 2 * chi)
        for case, r in (("i", optimize_scheme(p, SchemeId.LOCAL_I)),
                        ("ii", optimize_scheme(p, SchemeId.LOCAL_II))):
            if abs(r.params["lambda"]) > 1e-6 or abs(r.L - L_open) > 1e-9:
                failures.append(
                    f"case {case} at chi={chi}: lambda*={r.params['lambda']:.6g}, "
                    f"L={r.L:.6g} vs open-loop {L_open:.6g}")
    # Known red clause: the self-feedback scheme (case i) genuinely improves on
    # zero feedback. dL/dlambda > 0 at lambda = 0 for every chi > 0; the section
    # optimum is lambda = chi (reaching the case-iii value) for chi < 1/6 and the
    # supremum moves to the stability-window edge for larger chi. The stated
    # expectation lambda* = 0 contradicts maximizing L over the stated window,
    # so this criterion fails honestly rather than being forced green.
    _report("criterion 2: local-scheme optima", failures)


def test_criterion_03_heterodyne_optimum_and_ordering():
    failures = []
    for chi in CHI_GRID:
        p = NopoParams(chi)
        r = optimize_scheme(p, SchemeId.HETERODYNE)
        mu_exp = 0.5 * (-1 - 2 * chi + np.sqrt(1 + 4 * chi**2))
        if abs(r.params["mu"] - mu_exp) > 1e-6:
            failures.append(f"mu* at chi={chi}: {r.params['mu']} vs {mu_exp}")
        L_none = optimize_scheme(p, SchemeId.NONE).L
        L_iii = optimize_scheme(p, SchemeId.LOCAL_III).L
        L_nl = optimize_scheme(p, SchemeId.NONLOCAL).L
        if not (L_none < r.L < L_iii):
            failures.append(f"ordering violated at chi={chi}: "
                            f"{L_none} < {r.L} < {L_iii}")
        if not (L_nl >= L_iii >= r.L >= L_none):
            failures.append(f"curve order a>=b>=c>=d violated at chi={chi}")
    _report("criterion 3: heterodyne optimum and curve ordering", failures)


def test_criterion_04_purity():
    failures = []
    for chi in CHI_GRID:
        p = NopoParams(chi)
        if optimize_scheme(p, SchemeId.NONLOCAL).S > 1e-8:
            failures.append(f"nonlocal S > 1e-8 at chi={chi}")
        if optimize_scheme(p, SchemeId.LOCAL_IV).S > 1e-8:
            failures.append(f"case iv S > 1e-8 at chi={chi}")
    p = NopoParams(0.25)
    S_open = optimize_scheme(p, SchemeId.NONE).S
    if not S_open > 0:
        failures.append("open-loop S not positive at chi=0.25")
    if abs(S_open - 0.8028270921714572) > 1e-9:
        failures.append(f"open-loop S at chi=0.25: {S_open}")
    if not optimize_scheme(p, SchemeId.LOCAL_III).S > 0:
        failures.append("case iii S not positive at chi=0.25")
    if not optimize_scheme(p, SchemeId.HETERODYNE).S > 0:
        failures.append("heterodyne S not positive at chi=0.25")
    gamma, sigma = np.diag([0.5, 2 / 3]), np.diag([0.25, -1 / 3])
    spectrum = symplectic_eigenvalues(CovarianceMatrix(np.block([[gamma, sigma],
                                                                 [sigma.T, gamma]])))
    if np.max(np.abs(spectrum - 0.5)) > 1e-9:
        failures.append(f"case-iv benchmark spectrum {spectrum} != 1/2")
    _report("criterion 4: purity of nonlocal and case-iv states", failures)


def test_criterion_05_riccati_lmi_consistency():
    failures = []
    for chi in (0.1, 0.25, 0.4):
        p = NopoParams(chi)
        plant = build_plant(p)
        W = riccati_steady(plant, JOINT_HOMODYNE)
        alpha, beta = optimal_nonlocal_alpha_beta(chi)
        dev = np.max(np.abs(W.data - symmetric_family_W(alpha, beta).data))
        if dev > 1e-8:
            failures.append(f"W pattern deviation {dev:.2e} at chi={chi}")
        report = lmi_feasible(W, plant, tol=1e-8)
        if report.physical_margin < -1e-8 or report.dissipation_margin < -1e-8:
            failures.append(f"LMI margins at chi={chi}: {report}")
        if abs(report.physical_margin) > 1e-6:
            failures.append(f"first margin not at boundary at chi={chi}: "
                            f"{report.physical_margin:.2e}")
    _report("criterion 5: Riccati/LMI consistency", failures)


def test_criterion_06_unravelling_recovery():
    failures = []
    p = NopoParams(0.25)
    plant = build_plant(p)
    W = symmetric_family_W(*optimal_nonlocal_alpha_beta(0.25))
    u, residual = recover_unravelling(W, plant)
    U = u_matrix(u)
    if np.max(np.abs(U - PRINTED_OPTIMAL_U)) > 1e-8:
        failures.append("recovered U does not match the expected pattern")
    if residual > 1e-8:
        failures.append(f"recovery residual {residual:.2e}")
    if np.max(np.abs(U @ U - U)) > 1e-10:
        failures.append("recovered U is not a projector")
    W_round = riccati_steady(plant, u)
    dev = np.max(np.abs(W_round.data - W.data))
    if dev > 1e-7:
        failures.append(f"roundtrip deviation {dev:.2e}")
    _report("criterion 6: unravelling recovery", failures)


def test_criterion_07_general_vs_printed_closed_loop():
    failures = []
    rng = np.random.default_rng(2024)
    for k in range(50):
        chi = rng.uniform(0.01, 0.45)
        p = NopoParams(chi)
        plant = build_plant(p)
        A, D = drift_matrix(plant), diffusion_matrix(plant)

        lp = rng.uniform(-0.5, 0.25 - chi / 2 - 1e-3)
        lm = rng.uniform(-0.5, 0.25 + chi / 2 - 1e-3)
        meas = measurement_model(plant, HOMODYNE_Q)
        loop = closed_loop(A, D, homodyne_gain(lp, lm), meas)
        Ap, Dp = printed_homodyne_loop(chi, lp, lm)
        if np.max(np.abs(loop.A_prime - Ap)) > 1e-12:
            failures.append(f"homodyne A' mismatch at draw {k}")
        if np.max(np.abs(loop.D_prime - Dp)) > 1e-12:
            failures.append(f"homodyne D' mismatch at draw {k}")
        V_cf = homodyne_closed_form_V(p, lp, lm)
        V_ly = lyapunov_steady(loop.A_prime, loop.D_prime)
        if np.max(np.abs(V_cf.data - V_ly.data)) > 1e-10:
            failures.append(f"homodyne closed-form V mismatch at draw {k}")

        mu = rng.uniform(-0.5 - chi + 1e-3, 0.5 - chi - 1e-3)
        meas_h = measurement_model(plant, HETERODYNE)
        loop_h = closed_loop(A, D, heterodyne_gain(mu), meas_h)
        Ap_h, Dp_h = printed_heterodyne_loop(chi, mu)
        if np.max(np.abs(loop_h.A_prime - Ap_h)) > 1e-12:
            failures.append(f"heterodyne A' mismatch at draw {k}")
        if np.max(np.abs(loop_h.D_prime - Dp_h)) > 1e-12:
            failures.append(f"heterodyne D' mismatch at draw {k}")
        V_cf = heterodyne_closed_form_V(p, mu)
        V_ly = lyapunov_steady(loop_h.A_prime, loop_h.D_prime)
        if np.max(np.abs(V_cf.data - V_ly.data)) > 1e-10:
            failures.append(f"heterodyne closed-form V mismatch at draw {k}")
    _report("criterion 7: general vs printed closed loop", failures)


def test_criterion_08_optimal_gain_fixed_point():
    failures = []
    for chi in (0.05, 0.15, 0.25, 0.35, 0.45):
        p = NopoParams(chi)
        plant = build_plant(p)
        W = riccati_steady(plant, JOINT_HOMODYNE)
        meas = measurement_model(plant, JOINT_HOMODYNE)
        loop = closed_loop(drift_matrix(plant), diffusion_matrix(plant),
                           optimal_gain(W, meas), meas)
        V = lyapunov_steady(loop.A_prime, loop.D_prime)
        dev = np.max(np.abs(V.data - W.data))
        if dev > 1e-8:
            failures.append(f"fixed-point deviation {dev:.2e} at chi={chi}")
    _report("criterion 8: Markovian optimal-gain fixed point", failures)


def test_criterion_09_monte_carlo_oracle():
    failures = []
    p = NopoParams(0.3)
    plant = build_plant(p)
    result = optimal_nonlocal(p)
    u, gain = scheme_realization(p, result)
    W = riccati_steady(plant, u)
    cfg = SimConfig(dt=1e-3, t_final=20.0, n_traj=1000, seed=7)
    stats = simulate_conditional(plant, u, gain, cfg, v0=W)

    dv = np.max(np.abs(stats.v_c_final.data - W.data))
    if dv > 1e-6:
        failures.append(f"deterministic Vc deviates from W by {dv:.2e}")

    # Under the optimal gain the noise coefficient cancels exactly, so the
    # cross-trajectory standard errors collapse to zero; MC_FLOOR is the
    # deterministic numerical-noise allowance on top of the statistical bound.
    tol_outer = 4.0 * stats.mean_outer_sem() + MC_FLOOR
    excess = np.max(np.abs(stats.mean_outer) - tol_outer)
    if excess > 0:
        failures.append(f"mean outer product exceeds 4 SE by {excess:.2e}")

    m_opt = float(np.trace(cost_matrix() @ W.data))
    cost = regulation_cost(stats, cost_matrix())
    tol_cost = 3.0 * regulation_cost_sem(stats, cost_matrix()) + MC_FLOOR
    if abs(cost - m_opt) > tol_cost:
        failures.append(f"cost {cost} vs m_opt {m_opt} beyond {tol_cost:.2e}")
    _report("criterion 9: Monte-Carlo oracle", failures)


def test_criterion_10_stability_windows():
    failures = []
    chi = 0.25
    plant = build_plant(NopoParams(chi))
    A, D = drift_matrix(plant), diffusion_matrix(plant)
    meas = measurement_model(plant, HOMODYNE_Q)
    for lp in np.linspace(-0.6133, 0.5871, 50):
        for lm in np.linspace(-0.6133, 0.5871, 50):
            loop = closed_loop(A, D, homodyne_gain(lp, lm), meas)
            if homodyne_stable(chi, lp, lm) != is_hurwitz(loop.A_prime):
                failures.append(f"homodyne window mismatch at ({lp}, {lm})")
    for chi_h in np.linspace(0.0123, 0.4511, 50):
        plant = build_plant(NopoParams(chi_h))
        A, D = drift_matrix(plant), diffusion_matrix(plant)
        meas = measurement_model(plant, HETERODYNE)
        for mu in np.linspace(-1.2133, 0.7871, 50):
            loop = closed_loop(A, D, heterodyne_gain(mu), meas)
            if heterodyne_stable(chi_h, mu) != is_hurwitz(loop.A_prime):
                failures.append(f"heterodyne window mismatch at ({chi_h}, {mu})")
    _report("criterion 10: stability windows", failures)
