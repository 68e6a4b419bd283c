from fractions import Fraction

import numpy as np
import pytest

from entlqg import (CHI_MAX, HETERODYNE, JOINT_HOMODYNE, NopoParams, SchemeId, StabilityError,
                    build_plant, closed_loop, closed_loop_for_scheme, conditional_V, cost_matrix,
                    diffusion_matrix, drift_matrix, epr_variance, heterodyne_closed_form_V,
                    heterodyne_optimal_mu, homodyne_closed_form_V, lmi_feasible, log_negativity,
                    lyapunov_steady, measurement_model, open_loop_V, optimal_nonlocal,
                    optimal_nonlocal_alpha_beta, optimize_scheme, recover_unravelling,
                    riccati_steady, scheme_curves, scheme_realization, symmetric_family_W,
                    von_neumann_entropy)
from entlqg.dynamics import HURWITZ_TOL
from entlqg.nopo import (_MAX_CURVE_STEPS, _SCHEMES, EDGE_MARGIN, heterodyne_gain,
                         heterodyne_stable)
from entlqg.unravelling import riccati_certificate
from oracles import (CHI_GRID, DOMAIN_CHIS, MEASUREMENTS, expanded_heterodyne_V,
                     expanded_homodyne_V, grid_maximizer, grid_minimizer,
                     relative_error_to_exact)

THRESHOLD_CHIS = (0.1, 0.45, 0.499, 0.4999, 0.49999, CHI_MAX)


def assert_closed_form_is_grid_optimum(chi, grid=400):
    """The grid minimizer lies within 1e-6 of the closed form, and the cost
    decreases monotonically with beta along the active physicality boundary."""
    a_exp, b_exp = optimal_nonlocal_alpha_beta(chi)
    a_num, b_num = grid_minimizer(chi, grid)
    assert max(abs(a_num - a_exp), abs(b_num - b_exp)) <= 1e-6
    bs = np.linspace(0.0, b_exp, 200) if b_exp > 0 else np.array([0.0])
    m_boundary = np.sqrt(1.0 + 4.0 * bs**2) - 2.0 * bs
    assert np.all(np.diff(m_boundary) <= 1e-15)
    return a_num, b_num


class TestBuildPlant:
    def test_zero_coupling(self):
        plant = build_plant(NopoParams(0.0))
        assert np.allclose(drift_matrix(plant), -np.eye(4) / 2, atol=1e-15)
        assert np.allclose(diffusion_matrix(plant), np.eye(4) / 2, atol=1e-15)

    def test_quarter_coupling_matrices(self):
        plant = build_plant(NopoParams(0.25))
        A = drift_matrix(plant)
        expected = np.array([[-0.5, 0, 0.25, 0], [0, -0.5, 0, -0.25],
                             [0.25, 0, -0.5, 0], [0, -0.25, 0, -0.5]])
        assert np.allclose(A, expected, atol=1e-14)
        assert np.allclose(diffusion_matrix(plant), np.eye(4) / 2, atol=1e-14)

    def test_hamiltonian_matrix_pattern(self):
        chi = 0.37
        G = build_plant(NopoParams(chi)).G
        assert np.array_equal(G, G.T)
        antidiag = [G[0, 3], G[1, 2], G[2, 1], G[3, 0]]
        assert np.allclose(antidiag, chi, atol=1e-15)
        assert np.count_nonzero(G) == 4

    def test_chi_domain(self):
        with pytest.raises(ValueError):
            NopoParams(0.5)
        with pytest.raises(ValueError):
            NopoParams(-0.01)
        NopoParams(CHI_MAX)  # boundary of the allowed domain


class TestOpenLoopV:
    def test_zero_coupling_vacuum(self):
        assert np.allclose(open_loop_V(NopoParams(0.0)).data, np.eye(4) / 2,
                           atol=1e-15)

    def test_quarter_coupling_values(self):
        V = open_loop_V(NopoParams(0.25)).data
        assert V[0, 0] == pytest.approx(2 / 3, abs=1e-15)
        assert V[0, 2] == pytest.approx(1 / 3, abs=1e-15)

    def test_matches_lyapunov_solver(self):
        for chi in np.linspace(0.0, 0.45, 20):
            p = NopoParams(chi)
            plant = build_plant(p)
            V = lyapunov_steady(drift_matrix(plant), diffusion_matrix(plant))
            assert np.max(np.abs(V.data - open_loop_V(p).data)) <= 1e-10


class TestCostMatrix:
    def test_vacuum_cost(self):
        assert np.trace(cost_matrix() @ (np.eye(4) / 2)) == pytest.approx(1.0,
                                                                          abs=1e-15)

    def test_symmetric_q_mode_costless(self):
        v = np.array([1.0, 0.0, 1.0, 0.0])
        assert np.allclose(cost_matrix() @ v, 0.0, atol=1e-15)

    def test_eigenvalues(self):
        w = np.sort(np.linalg.eigvalsh(cost_matrix()))
        assert np.allclose(w, [0.0, 0.0, 1.0, 1.0], atol=1e-14)


class TestOptimalNonlocal:
    def test_quarter_coupling(self):
        r = optimal_nonlocal(NopoParams(0.25))
        assert r.params["alpha"] == pytest.approx(0.625, abs=1e-12)
        assert r.params["beta"] == pytest.approx(0.375, abs=1e-12)
        assert r.m == pytest.approx(0.5, abs=1e-12)
        assert r.L == pytest.approx(1.0, abs=1e-12)
        assert r.S <= 1e-8

    def test_zero_coupling(self):
        r = optimal_nonlocal(NopoParams(0.0))
        assert r.params["alpha"] == pytest.approx(0.5, abs=1e-15)
        assert r.params["beta"] == pytest.approx(0.0, abs=1e-15)
        assert r.m == pytest.approx(1.0, abs=1e-12)
        assert r.L == pytest.approx(0.0, abs=1e-12)
        assert f"{r.L:.12g}" == "0"

    @pytest.mark.parametrize("chi", DOMAIN_CHIS)
    def test_closed_form_over_whole_domain(self, chi):
        r = optimize_scheme(NopoParams(chi), SchemeId.NONLOCAL)
        assert r.L == pytest.approx(-np.log2(1 - 2 * chi), rel=1e-12)
        assert r.S == 0.0
        assert r.m == pytest.approx(1 - 2 * chi, rel=1e-12)
        if chi <= 0.45:
            # Where V is well conditioned, the generic spectra agree.
            assert log_negativity(r.V) == pytest.approx(r.L, abs=1e-10)
            assert von_neumann_entropy(r.V) <= 1e-8
            assert np.trace(cost_matrix() @ r.V.data) == pytest.approx(r.m, abs=1e-12)

    @pytest.mark.parametrize("chi", [0.05, 0.25, 0.45])
    def test_recovery_cross_check(self, chi):
        p = NopoParams(chi)
        u, residual = recover_unravelling(optimize_scheme(p, SchemeId.NONLOCAL).V,
                                          build_plant(p))
        assert residual <= 1e-8
        assert np.max(np.abs(u.upsilon - JOINT_HOMODYNE.upsilon)) <= 1e-12

    @pytest.mark.parametrize("chi", [0.4995, 0.4999, 0.49999, CHI_MAX])
    def test_recovery_near_threshold(self, chi):
        # The residual's terms are of size max|W|^2 ~ 1/(1 - 2 chi)^2, so the
        # recovery is judged relative to that size.
        p = NopoParams(chi)
        W = optimize_scheme(p, SchemeId.NONLOCAL).V
        u, residual = recover_unravelling(W, build_plant(p))
        assert residual <= 1e-8 * np.max(np.abs(W.data)) ** 2
        assert np.max(np.abs(u.upsilon - JOINT_HOMODYNE.upsilon)) <= 1e-9

    @pytest.mark.parametrize("chi", CHI_GRID)
    def test_purity_across_grid(self, chi):
        alpha, beta = optimal_nonlocal_alpha_beta(chi)
        W = symmetric_family_W(alpha, beta)
        assert von_neumann_entropy(W) <= 1e-8


class TestVerifyNonlocalOptimum:
    def test_quarter_coupling_grid(self):
        assert_closed_form_is_grid_optimum(0.25, grid=400)
        alpha, beta = optimal_nonlocal_alpha_beta(0.25)
        assert alpha == pytest.approx(0.625)
        assert beta == pytest.approx(0.375)

    def test_small_coupling(self):
        _, beta_numeric = assert_closed_form_is_grid_optimum(0.1)
        assert optimal_nonlocal_alpha_beta(0.1)[1] == pytest.approx(0.1125, abs=1e-12)
        assert abs(beta_numeric - 0.1125) <= 1e-6

    def test_zero_coupling(self):
        _, beta_numeric = assert_closed_form_is_grid_optimum(0.0)
        assert abs(beta_numeric) <= 1e-6
        alpha, beta = optimal_nonlocal_alpha_beta(0.0)
        assert 2.0 * (alpha - beta) == pytest.approx(1.0)


class TestHomodyneClosedForm:
    def test_zero_feedback_reduces_to_open_loop(self):
        p = NopoParams(0.3)
        V = homodyne_closed_form_V(p, 0.0, 0.0)
        assert np.max(np.abs(V.data - open_loop_V(p).data)) <= 1e-14

    def test_antisymmetric_feedback_at_coupling_strength(self):
        V = homodyne_closed_form_V(NopoParams(0.25), 0.0, 0.25).data
        assert V[0, 0] == pytest.approx(0.625, abs=1e-12)
        assert V[0, 2] == pytest.approx(0.375, abs=1e-12)
        assert V[1, 1] == pytest.approx(2 / 3, abs=1e-12)
        assert V[1, 3] == pytest.approx(-1 / 3, abs=1e-12)

    def test_opposite_sign_feedback(self):
        V = homodyne_closed_form_V(NopoParams(0.25), -0.25, 0.25).data
        assert V[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert V[0, 2] == pytest.approx(0.25, abs=1e-12)

    def test_unstable_parameters_rejected(self):
        with pytest.raises(StabilityError):
            homodyne_closed_form_V(NopoParams(0.25), 0.2, 0.0)


class TestClosedFormsExact:
    """The factored closed forms against the expanded ones in exact arithmetic,
    at each scheme's optimum up to threshold, where the expanded forms cancel."""

    @pytest.mark.parametrize("chi", THRESHOLD_CHIS)
    def test_homodyne_optima(self, chi):
        p = NopoParams(chi)
        # local-i: its optimum chi below 1/6, beyond it the point just inside
        # the window edge that optimize_scheme reports.
        x_i = min(chi, 0.25 - chi / 2 - EDGE_MARGIN)
        for lp, lm in ((x_i, x_i), (0.0, chi), (-chi, chi)):
            exact = expanded_homodyne_V(Fraction(chi), Fraction(lp), Fraction(lm))
            V = homodyne_closed_form_V(p, lp, lm).data
            assert relative_error_to_exact(V, exact) <= 1e-15, (lp, lm)

    @pytest.mark.parametrize("chi", THRESHOLD_CHIS)
    def test_heterodyne_optimum(self, chi):
        mu = heterodyne_optimal_mu(chi)
        exact = expanded_heterodyne_V(Fraction(chi), Fraction(mu))
        V = heterodyne_closed_form_V(NopoParams(chi), mu).data
        assert relative_error_to_exact(V, exact) <= 1e-15

    @pytest.mark.parametrize("chi", [0.4999, 0.49999])
    def test_local_iii_entropy_near_threshold(self, chi):
        # The expanded form put a symplectic eigenvalue below 1/2 here.
        # At CHI_MAX the 4x4 eigen-solve itself still loses that precision.
        assert von_neumann_entropy(homodyne_closed_form_V(NopoParams(chi), 0.0, chi)) > 0


class TestHeterodyneClosedForm:
    def test_zero_feedback_reduces_to_open_loop(self):
        p = NopoParams(0.2)
        assert np.max(np.abs(heterodyne_closed_form_V(p, 0.0).data
                             - open_loop_V(p).data)) <= 1e-14

    def test_optimal_mu_matches_lyapunov(self):
        p = NopoParams(0.25)
        mu = heterodyne_optimal_mu(0.25)
        plant = build_plant(p)
        loop = closed_loop(drift_matrix(plant), diffusion_matrix(plant),
                           heterodyne_gain(mu), measurement_model(plant, HETERODYNE))
        V = lyapunov_steady(loop.A_prime, loop.D_prime)
        assert np.max(np.abs(V.data - heterodyne_closed_form_V(p, mu).data)) <= 1e-10

    def test_unstable_mu_rejected(self):
        with pytest.raises(StabilityError):
            heterodyne_closed_form_V(NopoParams(0.25), 0.3)

    @pytest.mark.parametrize("chi", sorted({1e-12, 1e-9, 1e-6} | set(DOMAIN_CHIS)))
    def test_optimal_mu_solves_its_quadratic(self, chi):
        # mu* is the root of mu^2 + (1 + 2chi) mu + chi inside the window,
        # here evaluated exactly on the float mu; a form that cancels misses
        # it at small chi.
        mu = heterodyne_optimal_mu(chi)
        c = Fraction(chi)
        residual = Fraction(mu)**2 + (1 + 2 * c) * Fraction(mu) + c
        assert abs(residual) <= 4 * np.finfo(float).eps * max(chi, abs(mu))
        assert heterodyne_stable(chi, mu)

    @pytest.mark.parametrize("chi", sorted(set(CHI_GRID.tolist()) | set(DOMAIN_CHIS)))
    def test_optimum_is_grid_optimum(self, chi):
        r = optimize_scheme(NopoParams(chi), SchemeId.HETERODYNE)
        mu_grid, L_grid = grid_maximizer(chi)
        assert r.params["mu"] == heterodyne_optimal_mu(chi)
        assert r.L >= L_grid - 1e-12 * max(1.0, r.L)
        # L is flat to round-off within ~1e-8 of its peak, so the argmax is
        # held to criterion 03's 1e-6. At chi = 0, L is 0 on the whole window
        # and no mu is singled out.
        if L_grid > 0:
            assert abs(mu_grid - r.params["mu"]) <= 1e-6


class TestOptimizeScheme:
    def test_antisymmetric_scheme_optimum(self):
        r = optimize_scheme(NopoParams(0.25), SchemeId.LOCAL_III)
        assert r.params["lambda"] == pytest.approx(0.25, abs=1e-6)
        assert r.L == pytest.approx(0.7924812503605781, abs=1e-9)
        assert not r.at_boundary

    def test_opposite_sign_scheme_matches_antisymmetric(self):
        r3 = optimize_scheme(NopoParams(0.25), SchemeId.LOCAL_III)
        r4 = optimize_scheme(NopoParams(0.25), SchemeId.LOCAL_IV)
        assert r4.params["lambda"] == pytest.approx(-0.25, abs=1e-6)
        assert abs(r3.L - r4.L) <= 1e-9
        assert r4.S <= 1e-8
        assert r3.S > 0.01

    def test_symmetric_combination_scheme_is_flat(self):
        # Feedback on the antisqueezed combination leaves the entanglement
        # exactly at its open-loop value; the optimizer reports zero feedback.
        for chi in (0.1, 0.25, 0.4):
            r = optimize_scheme(NopoParams(chi), SchemeId.LOCAL_II)
            assert r.params["lambda"] == 0.0
            assert r.L == pytest.approx(np.log2(1 + 2 * chi), abs=1e-9)
            assert not r.at_boundary

    def test_self_feedback_scheme_below_window_knee(self):
        # In-loop amplification of each mode's own current squeezes the
        # antisymmetric combination most strongly at lambda = chi; for
        # chi < 1/6 that stationary point is inside the stability window and
        # attains the same entanglement as the antisymmetric scheme.
        for chi in (0.05, 0.1, 0.15):
            r = optimize_scheme(NopoParams(chi), SchemeId.LOCAL_I)
            assert r.params["lambda"] == pytest.approx(chi, abs=1e-6)
            expected = -0.5 * np.log2((1 - 2 * chi) / (1 + 2 * chi))
            assert r.L == pytest.approx(expected, abs=1e-9)
            assert not r.at_boundary

    def test_self_feedback_scheme_beyond_window_knee(self):
        # For chi > 1/6 the stationary point lambda = chi lies outside the
        # window and the objective increases monotonically up to the
        # stability edge: the supremum is not attained.
        for chi in (0.25, 0.4):
            r = optimize_scheme(NopoParams(chi), SchemeId.LOCAL_I)
            assert r.at_boundary
            edge = 0.25 - chi / 2
            assert r.params["lambda"] == pytest.approx(edge, abs=1e-4)
            assert r.L > np.log2(1 + 2 * chi)

    def test_none_scheme_is_open_loop(self):
        p = NopoParams(0.3)
        r = optimize_scheme(p, SchemeId.NONE)
        assert np.array_equal(r.V.data, open_loop_V(p).data)
        assert r.params == {}

    def test_every_scheme_is_one_row(self):
        # a row's optimum rule and V(p, x) give the result's reported parameter
        # and, bit for bit, its V: nonlocal's too, from whose V(p, beta)
        # scheme_realization builds the optimal gain
        p = NopoParams(0.3)
        assert list(_SCHEMES) == list(SchemeId)
        for scheme, row in _SCHEMES.items():
            r = optimize_scheme(p, scheme)
            x = row.optimum(p)[0]
            assert r.reported_param == (row.param or "none", x)
            assert np.array_equal(row.V(p, x).data, r.V.data)

    def test_zero_coupling_all_schemes_idle(self):
        p = NopoParams(0.0)
        for scheme in SchemeId:
            r = optimize_scheme(p, scheme)
            assert r.L == pytest.approx(0.0, abs=1e-12)
            for value in r.params.values():
                if scheme is SchemeId.NONLOCAL:
                    continue
                assert value == 0.0


class TestSchemeCurves:
    def test_closed_form_columns(self):
        rows = scheme_curves(0.1, 0.4, 4, (SchemeId.NONLOCAL, SchemeId.NONE))
        assert len(rows) == 8
        for r in rows:
            if r.scheme is SchemeId.NONLOCAL:
                assert r.L == pytest.approx(-np.log2(1 - 2 * r.chi), abs=1e-9)
            else:
                assert r.L == pytest.approx(np.log2(1 + 2 * r.chi), abs=1e-9)

    def test_row_ordering_and_entropy(self):
        rows = scheme_curves(0.05, 0.45, 5)
        by_chi = {}
        for r in rows:
            by_chi.setdefault(round(r.chi, 6), {})[r.scheme] = r
        assert len(by_chi) == 5
        for chi, group in by_chi.items():
            assert (group[SchemeId.NONLOCAL].L >= group[SchemeId.LOCAL_III].L
                    >= group[SchemeId.HETERODYNE].L >= group[SchemeId.NONE].L)
            assert abs(group[SchemeId.LOCAL_III].L - group[SchemeId.LOCAL_IV].L) <= 1e-9
            assert group[SchemeId.NONLOCAL].S <= 1e-8
            assert group[SchemeId.LOCAL_IV].S <= 1e-8
            if chi >= 0.1:
                assert group[SchemeId.LOCAL_III].S > 0.01

    def test_deterministic_order(self):
        rows = scheme_curves(0.1, 0.2, 2, (SchemeId.NONE, SchemeId.NONLOCAL))
        assert [r.scheme for r in rows] == [SchemeId.NONLOCAL, SchemeId.NONE] * 2
        assert rows[0].chi <= rows[-1].chi

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            scheme_curves(0.4, 0.1, 3)
        with pytest.raises(ValueError):
            scheme_curves(0.0, 0.3, 0)
        # each grid point is an optimization per scheme: capped
        with pytest.raises(ValueError, match=f"steps must be at most {_MAX_CURVE_STEPS}"):
            scheme_curves(0.0, 0.3, _MAX_CURVE_STEPS + 1)


class TestEprBound:
    @pytest.mark.parametrize("chi", CHI_GRID)
    def test_open_loop_epr_variance(self, chi):
        V = open_loop_V(NopoParams(chi))
        for theta in (0.0, 1.0, np.pi / 3):
            value = epr_variance(V, theta)
            assert value == pytest.approx(1 / (1 + 2 * chi), abs=1e-12)
            assert value >= 0.5

    def test_closed_loop_matrices_consistent(self):
        # Every scheme's realization (unravelling and gain) reproduces its V.
        # Relative to max|V|: local-i's supremum sits at the window edge,
        # where max|V| ~ 5e4.
        for chi in (0.1, 0.25, 0.4):
            p = NopoParams(chi)
            for scheme in SchemeId:
                r = optimize_scheme(p, scheme)
                loop = closed_loop_for_scheme(p, r)
                V = lyapunov_steady(loop.A_prime, loop.D_prime)
                scale = max(1.0, np.max(np.abs(r.V.data)))
                assert np.max(np.abs(V.data - r.V.data)) <= 1e-9 * scale, (chi, scheme)


class TestConditionalV:
    @pytest.mark.parametrize("chi", (0.05, 0.25, 0.45))
    @pytest.mark.parametrize("scheme", MEASUREMENTS)
    def test_matches_riccati_relaxation(self, scheme, chi):
        W = conditional_V(NopoParams(chi), scheme).data
        relaxed = riccati_steady(build_plant(NopoParams(chi)), MEASUREMENTS[scheme]).data
        assert np.max(np.abs(W - relaxed)) <= 1e-10 * np.max(np.abs(W))

    @pytest.mark.parametrize("chi", DOMAIN_CHIS)
    @pytest.mark.parametrize("scheme", MEASUREMENTS)
    def test_stabilizing_solution_over_whole_domain(self, scheme, chi):
        plant = build_plant(NopoParams(chi))
        W = conditional_V(NopoParams(chi), scheme)
        A, D = drift_matrix(plant), diffusion_matrix(plant)
        meas = measurement_model(plant, MEASUREMENTS[scheme])
        cert = riccati_certificate(A, D, meas.C, meas.Gamma, W.data)
        assert cert.rel_residual <= 1e-14
        assert cert.filter_gap < -HURWITZ_TOL
        assert cert.stabilizing
        assert lmi_feasible(W, plant).feasible

    def test_every_scheme_gets_the_state_of_its_measurement(self):
        p = NopoParams(0.25)
        plant = build_plant(p)
        A, D = drift_matrix(plant), diffusion_matrix(plant)
        for scheme in SchemeId:
            u, _ = scheme_realization(p, optimize_scheme(p, scheme))
            meas = measurement_model(plant, u)
            W = conditional_V(p, scheme).data
            assert riccati_certificate(A, D, meas.C, meas.Gamma, W).rel_residual <= 1e-14, scheme
