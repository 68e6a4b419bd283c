import numpy as np
import pytest

from entlqg import (HETERODYNE, HOMODYNE_Q, JOINT_HOMODYNE, FeedbackGain, InvalidUnravellingError,
                    NoStableSolutionError, NopoParams, PlantModel, SchemeId, SimConfig,
                    Unravelling, build_plant, diffusion_matrix, drift_matrix, lmi_feasible,
                    lyapunov_steady, measurement_model, open_loop_V, optimal_nonlocal_alpha_beta,
                    optimize_scheme, recover_unravelling, riccati_rhs, riccati_steady,
                    simulate_conditional, symmetric_family_W, u_matrix)
from entlqg.gaussian import CovarianceMatrix, symplectic_form
from entlqg.unravelling import _cbar, riccati_certificate, riccati_map, riccati_propagator
from oracles import PRINTED_OPTIMAL_U, anti_stabilizing_solution, rk4_relaxation, rk4_step

PRINTED_OPTIMAL_C = (1 / np.sqrt(2)) * np.array([[1, 0, -1, 0], [-1, 0, 1, 0],
                                                 [0, 1, 0, 1], [0, 1, 0, 1]])


def random_unravelling(rng, scale=1.0):
    """Random valid two-channel unravelling: pull toward upsilon = 0 until U is PSD."""
    Y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    Y = 0.5 * (Y + Y.T) * scale
    for _ in range(80):
        u = Unravelling(Y)
        try:
            u_matrix(u)
            return u
        except InvalidUnravellingError:
            Y = 0.7 * Y
    raise AssertionError("sampler failed to produce a valid unravelling")


class TestUMatrix:
    def test_q_homodyne(self):
        assert np.allclose(u_matrix(HOMODYNE_Q), np.diag([1.0, 1.0, 0.0, 0.0]),
                           atol=1e-15)

    def test_heterodyne(self):
        assert np.allclose(u_matrix(HETERODYNE), np.eye(4) / 2, atol=1e-15)

    def test_optimal(self):
        assert np.allclose(u_matrix(JOINT_HOMODYNE), PRINTED_OPTIMAL_U,
                           atol=1e-15)

    def test_indefinite_rejected(self):
        with pytest.raises(InvalidUnravellingError):
            u_matrix(Unravelling(3.0 * np.eye(2, dtype=complex)))

    def test_upsilon_symmetrized(self):
        u = Unravelling(np.array([[0.0, 0.4], [0.2, 0.0]], dtype=complex))
        assert u.upsilon[0, 1] == pytest.approx(0.3)

    def test_non_square_upsilon_rejected(self):
        with pytest.raises(ValueError, match="upsilon must be square"):
            Unravelling(np.zeros((2, 3), dtype=complex))


class TestCbar:
    def test_nopo_printed_matrix(self):
        plant = build_plant(NopoParams(0.3))
        expected = (1 / np.sqrt(2)) * np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                                                [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float)
        assert np.allclose(_cbar(plant.Ctilde), expected, atol=1e-15)

    def test_real_coupling_zero_lower_block(self):
        Ct = np.array([[1.0, 2.0, 0.0, 0.0]], dtype=complex)
        Cb = _cbar(Ct)
        assert np.allclose(Cb[1], 0.0)

    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        Ct = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        Cb = _cbar(Ct)
        assert np.allclose(Cb[:2] + 1j * Cb[2:], Ct, atol=1e-15)


class TestPsdSqrt:
    """The PSD root of U that measurement_model takes, read off C = 2 U^{1/2} Cbar."""

    @staticmethod
    def root(u):
        # Cbar of the oscillator is 1/sqrt(2) times a permutation, so it inverts exactly.
        plant = build_plant(NopoParams(0.25))
        return 0.5 * measurement_model(plant, u).C @ np.linalg.inv(_cbar(plant.Ctilde))

    def test_projector_is_own_root(self):
        assert np.allclose(self.root(JOINT_HOMODYNE), PRINTED_OPTIMAL_U, atol=1e-12)

    def test_scaled_identity(self):
        assert np.allclose(self.root(HETERODYNE), np.eye(4) / np.sqrt(2), atol=1e-14)

    def test_singular_diagonal(self):
        assert np.allclose(self.root(HOMODYNE_Q), np.diag([1.0, 1.0, 0.0, 0.0]),
                           atol=1e-14)

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidUnravellingError):
            measurement_model(build_plant(NopoParams(0.25)),
                              Unravelling(3.0 * np.eye(2, dtype=complex)))

    def test_rounding_negative_eigenvalue_is_zeroed(self):
        # U's least eigenvalue is -5e-10, inside u_matrix's -1e-9 tolerance:
        # accepted once and taken as zero in the root
        u = Unravelling(np.diag([1.0 + 1e-9, 1.0]).astype(complex))
        assert np.linalg.eigvalsh(u_matrix(u)).min() == pytest.approx(-5e-10, rel=1e-3)
        root = self.root(u)
        assert np.all(np.isfinite(root))
        assert np.max(np.abs(root @ root - u_matrix(u))) <= 1e-9

    def test_square_recovers_unravelling_matrices(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            u = random_unravelling(rng)
            root = self.root(u)
            assert np.max(np.abs(root @ root - u_matrix(u))) <= 1e-10


class TestMeasurementModel:
    def test_optimal_unravelling_printed_C(self):
        plant = build_plant(NopoParams(0.25))
        meas = measurement_model(plant, JOINT_HOMODYNE)
        assert np.allclose(meas.C, PRINTED_OPTIMAL_C, atol=1e-12)

    def test_q_homodyne_selects_positions(self):
        plant = build_plant(NopoParams(0.25))
        meas = measurement_model(plant, HOMODYNE_Q)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[1, 2] = np.sqrt(2)
        assert np.allclose(meas.C, expected, atol=1e-12)

    def test_heterodyne_scales_cbar(self):
        plant = build_plant(NopoParams(0.25))
        meas = measurement_model(plant, HETERODYNE)
        assert np.allclose(meas.C, np.sqrt(2) * _cbar(plant.Ctilde), atol=1e-14)

    def test_channel_count_mismatch(self):
        plant = build_plant(NopoParams(0.25))
        with pytest.raises(ValueError):
            measurement_model(plant, Unravelling(np.zeros((3, 3), dtype=complex)))


class TestRiccatiRhs:
    def test_symmetric_form_matches_general_form(self):
        rng = np.random.default_rng(31)
        plant = build_plant(NopoParams(0.3))
        A, D = drift_matrix(plant), diffusion_matrix(plant)
        for u in (HOMODYNE_Q, HETERODYNE, random_unravelling(rng)):
            meas = measurement_model(plant, u)
            C, Gamma = meas.C, meas.Gamma
            for _ in range(10):
                R = rng.normal(size=(4, 4))
                V = R + R.T
                K = V @ C.T + Gamma.T
                general = A @ V + V @ A.T + D - K @ (C @ V + Gamma)
                got = riccati_rhs(A, D, C, Gamma, V)
                assert np.max(np.abs(got - general)) <= 1e-14 * np.max(np.abs(general))
                assert np.array_equal(got, got.T)


class TestRiccatiPropagator:
    @pytest.mark.parametrize("dt", [1e-2, 1e-3])
    def test_transient_matches_rk4(self, dt):
        # the exact linear-fractional map against a fine RK4 integration of
        # the Riccati equation, from the open-loop state to T = 2
        p = NopoParams(0.25)
        plant = build_plant(p)
        A, D = drift_matrix(plant), diffusion_matrix(plant)
        meas = measurement_model(plant, HOMODYNE_Q)
        V = open_loop_V(p).data
        for _ in range(2000):
            V = rk4_step(lambda X: riccati_rhs(A, D, meas.C, meas.Gamma, X), V, 1e-3)
        Phi = riccati_propagator(A, D, meas.C, meas.Gamma, dt)
        mapped = open_loop_V(p).data
        for _ in range(int(round(2.0 / dt))):
            mapped = riccati_map(mapped, Phi)
        assert np.max(np.abs(V - open_loop_V(p).data)) > 1e-2   # a real transient
        assert np.max(np.abs(mapped - V)) <= 1e-10


class TestRiccatiSteady:
    @pytest.mark.parametrize("chi, u", [(0.25, HETERODYNE), (0.1, JOINT_HOMODYNE)])
    def test_matches_rk4_relaxation(self, chi, u):
        plant = build_plant(NopoParams(chi))
        W = riccati_steady(plant, u).data
        assert np.max(np.abs(W - rk4_relaxation(plant, u))) <= 1e-10

    @pytest.mark.parametrize("chi", [0.05, 0.3, 0.45])
    @pytest.mark.parametrize("u", [HOMODYNE_Q, HETERODYNE, JOINT_HOMODYNE,
                                   random_unravelling(np.random.default_rng(29))],
                             ids=["homodyne-q", "heterodyne", "sigma-x", "random"])
    def test_result_is_held_by_the_simulator(self, chi, u):
        # riccati_steady stops on the simulator's fixed-point rule, so a run
        # started on its W holds it exactly, with no relaxation of its own
        plant = build_plant(NopoParams(chi))
        W = riccati_steady(plant, u)
        cfg = SimConfig(dt=1e-2, t_final=1.0, n_traj=2, seed=0)
        stats = simulate_conditional(plant, u, FeedbackGain(np.zeros((4, 4))), cfg, v0=W)
        assert np.array_equal(stats.v_c_final.data, W.data)

    def test_backward_flow_lands_on_unphysical_solution(self):
        # Stepped backward, the exact flow relaxes to the anti-stabilizing
        # solution: it solves the algebraic equation, but is unphysical.
        plant = build_plant(NopoParams(0.3))
        A, D = drift_matrix(plant), diffusion_matrix(plant)
        meas = measurement_model(plant, HETERODYNE)
        Phi = riccati_propagator(A, D, meas.C, meas.Gamma, -0.01)
        V = lyapunov_steady(A, D).data
        for _ in range(20000):
            if np.max(np.abs(riccati_rhs(A, D, meas.C, meas.Gamma, V))) <= 1e-10:
                break
            V = riccati_map(V, Phi)
        assert np.max(np.abs(riccati_rhs(A, D, meas.C, meas.Gamma, V))) <= 1e-10
        anti = anti_stabilizing_solution(plant, HETERODYNE)
        assert np.max(np.abs(V - anti)) <= 1e-9   # measured 8.5e-11
        assert lmi_feasible(CovarianceMatrix(anti), plant).physical_margin < -0.5
        assert riccati_certificate(A, D, meas.C, meas.Gamma, anti).filter_gap > 0

    def test_anti_stabilizing_landing_rejected(self, monkeypatch):
        # run backward, the relaxation meets its stop rule on the
        # anti-stabilizing solution; the filter gap certificate rejects it
        monkeypatch.setattr("entlqg.unravelling._RICCATI_DT", -0.01)
        with pytest.raises(NoStableSolutionError, match="not stabilizing"):
            riccati_steady(build_plant(NopoParams(0.3)), HETERODYNE)

    @pytest.mark.parametrize("chi", [0.1, 0.25])
    def test_optimal_unravelling_reaches_family_pattern(self, chi):
        p = NopoParams(chi)
        W = riccati_steady(build_plant(p), JOINT_HOMODYNE)
        alpha, beta = optimal_nonlocal_alpha_beta(chi)
        assert np.max(np.abs(W.data - symmetric_family_W(alpha, beta).data)) <= 1e-8

    def test_homodyne_satisfies_lmis(self):
        for chi in (0.05, 0.25, 0.4):
            p = NopoParams(chi)
            plant = build_plant(p)
            W = riccati_steady(plant, HOMODYNE_Q)
            report = lmi_feasible(W, plant, tol=1e-8)
            assert report.feasible

    def test_no_measurement_plant_has_no_steady_state(self):
        # A plant without damping channels has purely Hamiltonian drift with
        # trace zero, which can never be Hurwitz: the relaxation start point
        # does not exist and the solver must say so.
        G = np.zeros((4, 4))
        G[0, 3] = G[3, 0] = G[1, 2] = G[2, 1] = 0.25
        plant = PlantModel(G=G, Ctilde=np.zeros((2, 4), dtype=complex))
        with pytest.raises(NoStableSolutionError):
            riccati_steady(plant, Unravelling(np.zeros((2, 2), dtype=complex)))

    def test_both_riccati_forms_agree(self):
        p = NopoParams(0.3)
        plant = build_plant(p)
        for u in (JOINT_HOMODYNE, HOMODYNE_Q, HETERODYNE):
            W = riccati_steady(plant, u)
            A, D = drift_matrix(plant), diffusion_matrix(plant)
            meas = measurement_model(plant, u)
            res_mre = np.max(np.abs(riccati_rhs(A, D, meas.C, meas.Gamma, W.data)))
            Omega = A - meas.Gamma.T @ meas.C
            E = symplectic_form(2) @ meas.C.T / 2
            res_amre = np.max(np.abs(Omega @ W.data + W.data @ Omega.T
                                     - W.data @ meas.C.T @ meas.C @ W.data + E @ E.T))
            assert res_mre <= 1e-9
            assert res_amre <= 1e-9

    def test_conditioning_never_increases_uncertainty(self):
        rng = np.random.default_rng(19)
        p = NopoParams(0.25)
        plant = build_plant(p)
        trace_open = np.trace(open_loop_V(p).data)
        for _ in range(8):
            u = random_unravelling(rng)
            W = riccati_steady(plant, u)
            assert np.trace(W.data) <= trace_open + 1e-9
            report = lmi_feasible(W, plant)
            assert report.physical_margin >= -1e-8
            assert report.dissipation_margin >= -1e-8


class TestLmiFeasible:
    def test_optimal_W_saturates_physicality(self):
        p = NopoParams(0.25)
        W = symmetric_family_W(*optimal_nonlocal_alpha_beta(0.25))
        report = lmi_feasible(W, build_plant(p))
        assert report.feasible
        assert abs(report.physical_margin) <= 1e-9

    def test_open_loop_sits_on_dissipation_boundary(self):
        p = NopoParams(0.25)
        report = lmi_feasible(open_loop_V(p), build_plant(p))
        assert report.feasible
        assert abs(report.dissipation_margin) <= 1e-12
        assert report.physical_margin > 1e-3

    def test_below_vacuum_infeasible(self):
        p = NopoParams(0.25)
        report = lmi_feasible(CovarianceMatrix(np.eye(4) / 4), build_plant(p))
        assert not report.feasible
        assert report.physical_margin < -1e-3


class TestRecoverUnravelling:
    def test_reproduces_printed_optimal_unravelling(self):
        p = NopoParams(0.25)
        plant = build_plant(p)
        W = symmetric_family_W(*optimal_nonlocal_alpha_beta(0.25))
        u, residual = recover_unravelling(W, plant)
        assert residual <= 1e-8
        U = u_matrix(u)
        assert np.max(np.abs(U - PRINTED_OPTIMAL_U)) <= 1e-8
        assert np.max(np.abs(U @ U - U)) <= 1e-10

    def test_roundtrip_through_riccati(self):
        p = NopoParams(0.25)
        plant = build_plant(p)
        W1 = riccati_steady(plant, HOMODYNE_Q)
        u, residual = recover_unravelling(W1, plant)
        assert residual <= 1e-8
        W2 = riccati_steady(plant, u)
        assert np.max(np.abs(W2.data - W1.data)) <= 1e-7

    @pytest.mark.parametrize("chi", [1e-9, 1e-5, 1e-4])
    def test_near_vacuum_recovery_is_the_joint_homodyne_projector(self, chi):
        # W barely fixes U near chi = 0: the least-squares U sits ~1e-16 / chi
        # off the projector, and is snapped onto it
        p = NopoParams(chi)
        u, residual = recover_unravelling(optimize_scheme(p, SchemeId.NONLOCAL).V,
                                          build_plant(p))
        assert residual <= 1e-8
        assert np.max(np.abs(u_matrix(u) - PRINTED_OPTIMAL_U)) <= 1e-14

    def test_snap_kept_only_where_it_reproduces_w(self, monkeypatch):
        # U's eigenvalues 0.05 and 0.95 lie within a widened snap of 0 and 1,
        # but the snapped U measures q alone and misses W: the fit is kept
        p = NopoParams(0.25)
        plant = build_plant(p)
        W = riccati_steady(plant, Unravelling(0.9 * np.eye(2)))
        monkeypatch.setattr("entlqg.unravelling._RECOVERY_SNAP", 0.1)
        u, residual = recover_unravelling(W, plant)
        assert residual <= 1e-8
        assert np.max(np.abs(u.upsilon - 0.9 * np.eye(2))) <= 1e-10

    def test_zero_coupling_degenerate_recovery(self):
        p = NopoParams(0.0)
        plant = build_plant(p)
        u, residual = recover_unravelling(CovarianceMatrix(np.eye(4) / 2), plant)
        assert residual <= 1e-8
        u_matrix(u)  # must be a valid unravelling

    def test_infeasible_W_rejected(self):
        p = NopoParams(0.25)
        with pytest.raises(ValueError):
            recover_unravelling(CovarianceMatrix(np.eye(4) / 4), build_plant(p))
