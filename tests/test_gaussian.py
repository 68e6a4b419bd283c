import numpy as np
import pytest

from entlqg import (CovarianceMatrix, NopoParams, UnphysicalStateError, epr_variance, is_physical,
                    log_negativity, open_loop_V, symmetric_family_W, symplectic_eigenvalues,
                    von_neumann_entropy)
from entlqg.gaussian import _i_symplectic_form, partial_transpose, symplectic_form
from oracles import (brute_force_spectrum, determinant_symplectic_eigenvalues, open_loop_matrix,
                     reflected_product)

LOG2_1P5 = 0.5849625007211562      # log2(1.5)
HALF_LOG2_3 = 0.7924812503605781   # (1/2) log2(3)


class TestSymplecticForm:
    def test_single_mode(self):
        assert np.array_equal(symplectic_form(1), np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_two_modes_block_diagonal(self):
        S = symplectic_form(2)
        blk = np.array([[0.0, 1.0], [-1.0, 0.0]])
        expected = np.zeros((4, 4))
        expected[:2, :2] = blk
        expected[2:, 2:] = blk
        assert np.array_equal(S, expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_orthogonality_and_antisymmetry(self, n):
        S = symplectic_form(n)
        assert np.allclose(S @ S.T, np.eye(2 * n), atol=1e-15)
        assert np.array_equal(S.T, -S)
        assert np.allclose(S @ S, -np.eye(2 * n), atol=1e-15)

    def test_rejects_zero_modes(self):
        with pytest.raises(ValueError):
            symplectic_form(0)

    def test_shared_and_read_only(self):
        # built once per mode count and handed to every caller, so no caller
        # may write into it
        for form in (symplectic_form, _i_symplectic_form):
            S = form(2)
            assert form(2) is S
            with pytest.raises(ValueError):
                S[0, 1] = 2.0
        assert symplectic_form(2)[0, 1] == 1.0


class TestIsPhysical:
    def test_vacuum_saturates(self):
        assert is_physical(CovarianceMatrix(np.eye(4) / 2), tol=1e-9)

    def test_below_vacuum_noise(self):
        assert not is_physical(CovarianceMatrix(np.eye(4) / 4))

    def test_open_loop_state(self):
        V = CovarianceMatrix(open_loop_matrix(0.25))
        assert is_physical(V)
        # eigenvalue oracle
        S = symplectic_form(2)
        assert np.linalg.eigvalsh(V.data + 0.5j * S).min() >= -1e-9


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        spec = symplectic_eigenvalues(CovarianceMatrix(np.eye(4) / 2))
        assert np.allclose(spec, [0.5, 0.5], atol=1e-14)

    def test_open_loop_value(self):
        V = CovarianceMatrix(open_loop_matrix(0.25))
        spec = symplectic_eigenvalues(V)
        nu = 1.0 / (2.0 * np.sqrt(1 - 4 * 0.25**2))  # = 1/sqrt(3)
        assert np.allclose(spec, [nu, nu], atol=1e-12)
        assert np.allclose(brute_force_spectrum(V.data), [nu] * 4, atol=1e-12)

    def test_optimal_conditional_state_is_pure(self):
        spec = symplectic_eigenvalues(symmetric_family_W(0.625, 0.375))
        assert np.allclose(spec, [0.5, 0.5], atol=1e-12)

    def test_descending_order(self):
        V = CovarianceMatrix(np.diag([2.0, 2.0, 0.5, 0.5]))
        spec = symplectic_eigenvalues(V)
        assert spec[0] >= spec[1]
        assert spec.min() == spec[-1]


class TestPartialTranspose:
    def test_vacuum_invariant(self):
        V = CovarianceMatrix(np.eye(4) / 2)
        assert np.array_equal(partial_transpose(V, 1).data, V.data)

    def test_involution_exact(self):
        rng = np.random.default_rng(0)
        V = CovarianceMatrix(np.eye(4) / 2 + 0.1 * rng.normal(size=(4, 4)))
        twice = partial_transpose(partial_transpose(V, 0), 0)
        assert np.array_equal(twice.data, V.data)

    def test_flips_momentum_cross_correlation(self):
        chi = 0.25
        V = CovarianceMatrix(open_loop_matrix(chi))
        Vt = partial_transpose(V, 1)
        s = chi / (1 - 4 * chi**2)
        assert Vt.data[1, 3] == pytest.approx(s, abs=1e-15)
        assert V.data[1, 3] == pytest.approx(-s, abs=1e-15)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            partial_transpose(CovarianceMatrix(np.eye(4) / 2), 2)

    def test_matches_reflected_product(self):
        # one row and one column negated: the bits of F V F wherever V has no
        # exact zero, which the product would turn into +0
        rng = np.random.default_rng(19)
        for n_modes in (1, 2, 3):
            V = CovarianceMatrix(rng.normal(size=(2 * n_modes, 2 * n_modes)))
            for mode in range(n_modes):
                want = CovarianceMatrix(reflected_product(V.data, mode)).data
                assert partial_transpose(V, mode).data.tobytes() == want.tobytes()


class TestLogNegativity:
    def test_vacuum_separable(self):
        assert log_negativity(CovarianceMatrix(np.eye(4) / 2)) == 0.0

    @pytest.mark.parametrize("chi", [0.05, 0.15, 0.25, 0.35, 0.45])
    def test_open_loop_closed_form(self, chi):
        V = CovarianceMatrix(open_loop_matrix(chi))
        assert log_negativity(V) == pytest.approx(np.log2(1 + 2 * chi), abs=1e-12)

    def test_spot_value(self):
        V = CovarianceMatrix(open_loop_matrix(0.25))
        assert log_negativity(V) == pytest.approx(LOG2_1P5, abs=1e-12)

    def test_asymmetric_closed_loop_state(self):
        gamma, sigma = np.diag([0.5, 2 / 3]), np.diag([0.25, -1 / 3])
        V = CovarianceMatrix(np.block([[gamma, sigma], [sigma.T, gamma]]))
        assert log_negativity(V) == pytest.approx(HALF_LOG2_3, abs=1e-12)
        assert -np.log2(2 * np.sqrt(1 / 12)) == pytest.approx(HALF_LOG2_3, abs=1e-15)

    def test_separable_product_state(self):
        # independently squeezed modes, no cross correlations
        V = CovarianceMatrix(np.diag([2.0, 0.125, 0.125, 2.0]))
        assert is_physical(V)
        assert log_negativity(V) == 0.0


class TestVonNeumannEntropy:
    def test_vacuum_pure(self):
        assert von_neumann_entropy(CovarianceMatrix(np.eye(4) / 2)) == 0.0

    def test_open_loop_value(self):
        V = CovarianceMatrix(open_loop_matrix(0.25))
        nu = 1 / np.sqrt(3)
        g = (nu + 0.5) * np.log2(nu + 0.5) - (nu - 0.5) * np.log2(nu - 0.5)
        assert von_neumann_entropy(V) == pytest.approx(2 * g, abs=1e-12)
        assert von_neumann_entropy(V) == pytest.approx(0.8028270921714572, abs=1e-12)

    def test_unphysical_input_rejected(self):
        with pytest.raises(UnphysicalStateError):
            von_neumann_entropy(CovarianceMatrix(np.eye(4) / 4))

    def test_zero_iff_spectrum_at_half(self):
        pure = symmetric_family_W(0.625, 0.375)
        assert von_neumann_entropy(pure) <= 1e-8
        assert np.allclose(symplectic_eigenvalues(pure), 0.5, atol=1e-8)
        mixed = CovarianceMatrix(open_loop_matrix(0.2))
        assert von_neumann_entropy(mixed) > 1e-3
        assert symplectic_eigenvalues(mixed).max() > 0.5 + 1e-8


class TestEprVariance:
    @pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 2, 2.0])
    def test_open_loop_closed_form(self, theta):
        V = CovarianceMatrix(open_loop_matrix(0.25))
        assert epr_variance(V, theta) == pytest.approx(2 / 3, abs=1e-12)

    def test_vacuum_level(self):
        V = CovarianceMatrix(np.eye(4) / 2)
        for theta in np.linspace(0, np.pi, 7):
            assert epr_variance(V, theta) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("chi", [0.1, 0.3, 0.45])
    def test_theta_independence_on_symmetric_family(self, chi):
        V = CovarianceMatrix(open_loop_matrix(chi))
        values = [epr_variance(V, t) for t in np.linspace(0, 2 * np.pi, 100)]
        assert max(values) - min(values) <= 1e-10


class TestInvariants:
    def test_physicality_matches_spectrum_on_random_matrices(self):
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(1000):
            if rng.random() < 0.5:
                A = rng.normal(size=(4, 4)) * 0.5
                V = CovarianceMatrix(np.eye(4) / 2 + A @ A.T)   # physical by construction
            else:
                V = CovarianceMatrix(np.eye(4) / 2 * rng.uniform(0.2, 0.999))
            phys = is_physical(V)
            spec_ok = bool(symplectic_eigenvalues(V).min() >= 0.5 - 1e-9)
            assert phys == spec_ok
            checked += 1
        assert checked == 1000

    def test_determinant_formula_matches_general_route(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            beta = rng.uniform(0, 1.5)
            alpha = 0.5 * np.sqrt(1 + 4 * beta**2) + rng.uniform(0, 0.5)
            V = symmetric_family_W(alpha, beta)
            general = symplectic_eigenvalues(V)
            closed = determinant_symplectic_eigenvalues(V)
            # the untransposed family spectrum is degenerate, so the closed
            # form takes the square root of a cancelled discriminant and
            # carries sqrt(eps) noise; the transposed spectrum is split and
            # meets the tight tolerance
            assert abs(general[0] - closed[0]) <= 5e-8
            assert abs(general[-1] - closed[1]) <= 5e-8
            Vt = partial_transpose(V, 1)
            assert abs(symplectic_eigenvalues(Vt).min()
                       - determinant_symplectic_eigenvalues(Vt)[1]) <= 1e-10

    @pytest.mark.parametrize("chi", [0.1, 0.25, 0.4])
    def test_log_negativity_via_determinant_formula(self, chi):
        V = open_loop_V(NopoParams(chi))
        zt = determinant_symplectic_eigenvalues(partial_transpose(V, 1))[1]
        assert log_negativity(V) == pytest.approx(-np.log2(2 * zt), abs=1e-10)


class TestCovarianceMatrix:
    def test_symmetrizes_on_construction(self):
        m = np.array([[1.0, 0.2], [0.1, 1.0]])
        V = CovarianceMatrix(m)
        assert np.array_equal(V.data, V.data.T)
        assert V.data[0, 1] == pytest.approx(0.15)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(np.eye(3))

    def test_n_modes(self):
        assert CovarianceMatrix(np.eye(6) / 2).n_modes == 3

    def test_two_mode_functionals_reject_other_sizes(self):
        one_mode = CovarianceMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            log_negativity(one_mode)
        with pytest.raises(ValueError):
            epr_variance(one_mode, 0.0)
