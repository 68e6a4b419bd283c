"""Unconditional moment dynamics of linear Gaussian plants.

A plant is specified by a quadratic Hamiltonian matrix G, a linear bath
coupling Ctilde and a control input matrix B. The first moments obey
d<x>/dt = A<x> + Bu and the covariance obeys dV/dt = A V + V A^T + D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoStableSolutionError, NumericalError
from .gaussian import CovarianceMatrix, symplectic_form

HURWITZ_TOL = 1e-9


@dataclass(frozen=True)
class PlantModel:
    """Linear plant: Hamiltonian matrix G, bath coupling Ctilde, input matrix B."""

    G: np.ndarray        # 2N x 2N real symmetric
    Ctilde: np.ndarray   # L x 2N complex
    B: np.ndarray        # 2N x M real

    def __post_init__(self):
        G = np.asarray(self.G, dtype=float)
        if G.ndim != 2 or G.shape[0] != G.shape[1] or G.shape[0] % 2:
            raise ValueError(f"G must be square with even size, got {G.shape}")
        object.__setattr__(self, "G", 0.5 * (G + G.T))
        Ct = np.asarray(self.Ctilde, dtype=complex)
        if Ct.ndim != 2 or Ct.shape[1] != G.shape[0]:
            raise ValueError(f"Ctilde must be L x {G.shape[0]}, got {Ct.shape}")
        object.__setattr__(self, "Ctilde", Ct)
        B = np.asarray(self.B, dtype=float)
        if B.ndim != 2 or B.shape[0] != G.shape[0]:
            raise ValueError(f"B must have {G.shape[0]} rows, got {B.shape}")
        object.__setattr__(self, "B", B)

    @property
    def n_modes(self) -> int:
        return self.G.shape[0] // 2

    @property
    def n_channels(self) -> int:
        return self.Ctilde.shape[0]


def drift_matrix(plant: PlantModel) -> np.ndarray:
    """A = Sigma (G + Im[Ctilde^dag Ctilde])."""
    S = symplectic_form(plant.n_modes)
    return S @ (plant.G + (plant.Ctilde.conj().T @ plant.Ctilde).imag)


def diffusion_matrix(plant: PlantModel) -> np.ndarray:
    """D = Sigma Re[Ctilde^dag Ctilde] Sigma^T, symmetrized."""
    S = symplectic_form(plant.n_modes)
    D = S @ (plant.Ctilde.conj().T @ plant.Ctilde).real @ S.T
    return 0.5 * (D + D.T)


def is_hurwitz(A: np.ndarray, tol: float = HURWITZ_TOL) -> bool:
    """True iff every eigenvalue of A has real part < -tol."""
    return bool(np.linalg.eigvals(A).real.max() < -tol)


def lyapunov_steady(A: np.ndarray, D: np.ndarray) -> CovarianceMatrix:
    """Unique symmetric solution of A V + V A^T + D = 0 for Hurwitz A.

    Solved by Kronecker vectorization; at the matrix sizes used here the
    resulting dense linear system is trivial. The residual is verified.
    """
    A = np.asarray(A, dtype=float)
    D = np.asarray(D, dtype=float)
    if not is_hurwitz(A):
        raise NoStableSolutionError("drift matrix is not Hurwitz; no stable steady state")
    n = A.shape[0]
    K = np.kron(np.eye(n), A) + np.kron(A, np.eye(n))
    v = np.linalg.solve(K, -D.reshape(-1, order="F"))
    V = v.reshape((n, n), order="F")
    V = 0.5 * (V + V.T)
    residual = np.max(np.abs(A @ V + V @ A.T + D))
    if residual > 1e-10 * max(1.0, np.max(np.abs(D))):
        raise NumericalError(f"Lyapunov residual {residual:.3e} above tolerance")
    return CovarianceMatrix(V)


def integrate_moments(A: np.ndarray, D: np.ndarray, V0: CovarianceMatrix,
                      dt: float = 1e-3, t_final: float = 10.0) -> CovarianceMatrix:
    """Fixed-step RK4 integration of dV/dt = A V + V A^T + D from V0."""
    if dt <= 0 or t_final < dt:
        raise ValueError("require 0 < dt <= t_final")
    A = np.asarray(A, dtype=float)
    D = np.asarray(D, dtype=float)

    def rhs(V):
        return A @ V + V @ A.T + D

    V = V0.data.copy()
    n_full, rem = divmod(t_final, dt)
    steps = [dt] * int(round(n_full))
    if rem > 1e-12 * dt:
        steps.append(rem)
    for h in steps:
        k1 = rhs(V)
        k2 = rhs(V + 0.5 * h * k1)
        k3 = rhs(V + 0.5 * h * k2)
        k4 = rhs(V + h * k3)
        V = V + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        V = 0.5 * (V + V.T)
        if not np.all(np.isfinite(V)):
            raise NumericalError("moment integration diverged (non-finite values)")
    return CovarianceMatrix(V)
