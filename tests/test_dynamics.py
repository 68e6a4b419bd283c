import numpy as np
import pytest

from entlqg import (NoStableSolutionError, NopoParams, PlantModel, build_plant, diffusion_matrix,
                    drift_matrix, lyapunov_steady)
from entlqg.dynamics import is_hurwitz


def nopo_drift(chi):
    return np.array([[-0.5, 0, chi, 0], [0, -0.5, 0, -chi],
                     [chi, 0, -0.5, 0], [0, -chi, 0, -0.5]])


def raw_plant(chi):
    """Plant built directly, bypassing the chi-domain cap of NopoParams."""
    G = np.zeros((4, 4))
    G[0, 3] = G[3, 0] = G[1, 2] = G[2, 1] = chi
    Ct = (1 / np.sqrt(2)) * np.array([[1, 1j, 0, 0], [0, 0, 1, 1j]], dtype=complex)
    return PlantModel(G=G, Ctilde=Ct)


class TestDriftMatrix:
    def test_quarter_coupling(self):
        A = drift_matrix(build_plant(NopoParams(0.25)))
        assert np.allclose(A, nopo_drift(0.25), atol=1e-14)

    def test_zero_coupling_pure_damping(self):
        A = drift_matrix(build_plant(NopoParams(0.0)))
        assert np.allclose(A, -np.eye(4) / 2, atol=1e-15)
        assert is_hurwitz(A)
        assert np.allclose(np.linalg.eigvals(A).real, -0.5, atol=1e-14)

    @pytest.mark.parametrize("chi", np.linspace(0.01, 0.49, 20))
    def test_matches_printed_form(self, chi):
        A = drift_matrix(raw_plant(chi))
        assert np.allclose(A, nopo_drift(chi), atol=1e-14)

    def test_real_coupling_contributes_no_drift(self):
        # a purely real bath coupling has no imaginary product part, so the
        # drift reduces to the Hamiltonian flow (zero here)
        plant = PlantModel(G=np.zeros((4, 4)),
                           Ctilde=np.array([[1.0, 0, 0.5, 0]], dtype=complex))
        assert np.allclose(drift_matrix(plant), 0.0, atol=1e-15)


class TestDiffusionMatrix:
    @pytest.mark.parametrize("chi", [0.0, 0.2, 0.45])
    def test_vacuum_noise(self, chi):
        D = diffusion_matrix(build_plant(NopoParams(chi)))
        assert np.allclose(D, np.eye(4) / 2, atol=1e-14)

    def test_no_coupling_no_noise(self):
        plant = PlantModel(G=np.zeros((4, 4)), Ctilde=np.zeros((2, 4), dtype=complex))
        assert np.allclose(diffusion_matrix(plant), 0.0, atol=1e-15)

    def test_positive_semidefinite_for_random_coupling(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            Ct = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
            plant = PlantModel(G=np.zeros((4, 4)), Ctilde=Ct)
            D = diffusion_matrix(plant)
            assert np.linalg.eigvalsh(D).min() >= -1e-10


class TestIsHurwitz:
    def test_nopo_below_threshold(self):
        assert is_hurwitz(nopo_drift(0.25))
        assert np.allclose(np.sort(np.linalg.eigvals(nopo_drift(0.25)).real),
                           [-0.75, -0.75, -0.25, -0.25], atol=1e-12)

    def test_nopo_at_threshold(self):
        assert not is_hurwitz(nopo_drift(0.5))  # eigenvalue exactly 0

    def test_identity(self):
        assert is_hurwitz(-np.eye(3))
        assert not is_hurwitz(np.eye(3))


class TestLyapunovSteady:
    def test_isotropic_balance(self):
        V = lyapunov_steady(-np.eye(4) / 2, np.eye(4) / 2)
        assert np.allclose(V.data, np.eye(4) / 2, atol=1e-14)

    def test_nopo_closed_form(self):
        plant = build_plant(NopoParams(0.25))
        V = lyapunov_steady(drift_matrix(plant), diffusion_matrix(plant))
        assert V.data[0, 0] == pytest.approx(2 / 3, abs=1e-12)
        assert V.data[0, 2] == pytest.approx(1 / 3, abs=1e-12)
        assert V.data[1, 3] == pytest.approx(-1 / 3, abs=1e-12)
        assert V.data[0, 1] == pytest.approx(0.0, abs=1e-14)

    def test_random_systems_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            A = rng.normal(size=(4, 4))
            A -= (np.linalg.eigvals(A).real.max() + 0.5) * np.eye(4)
            assert is_hurwitz(A)
            R = rng.normal(size=(4, 4))
            D = R @ R.T
            V = lyapunov_steady(A, D)
            residual = np.max(np.abs(A @ V.data + V.data @ A.T + D))
            assert residual <= 1e-10 * max(1.0, np.max(np.abs(D)))

    def test_unstable_drift_rejected(self):
        with pytest.raises(NoStableSolutionError):
            lyapunov_steady(nopo_drift(0.5), np.eye(4) / 2)


class TestPlantModel:
    def test_symmetrizes_hamiltonian_matrix(self):
        G = np.array([[0.0, 0.3], [0.1, 0.0]])
        plant = PlantModel(G=G, Ctilde=np.zeros((1, 2), dtype=complex))
        assert np.array_equal(plant.G, plant.G.T)

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            PlantModel(G=np.zeros((4, 4)), Ctilde=np.zeros((2, 6), dtype=complex))

    @pytest.mark.parametrize("shape", [(2, 3), (3, 3)], ids=["non-square", "odd"])
    def test_hamiltonian_matrix_square_and_even(self, shape):
        # one q and one p per mode: a G of any other shape has no modes
        with pytest.raises(ValueError, match="G must be square with even size"):
            PlantModel(G=np.zeros(shape), Ctilde=np.zeros((1, shape[1]), dtype=complex))
