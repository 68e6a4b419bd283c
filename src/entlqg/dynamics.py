"""Unconditional moment dynamics of linear Gaussian plants.

A plant is specified by a quadratic Hamiltonian matrix G and a linear bath
coupling Ctilde. The first moments obey d<x>/dt = A<x> plus any feedback
drive, and the covariance obeys dV/dt = A V + V A^T + D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoStableSolutionError, NumericalError
from .gaussian import CovarianceMatrix, symplectic_form

HURWITZ_TOL = 1e-9


@dataclass(frozen=True)
class PlantModel:
    """Linear plant: Hamiltonian matrix G and bath coupling Ctilde."""

    G: np.ndarray        # 2N x 2N real symmetric
    Ctilde: np.ndarray   # L x 2N complex

    def __post_init__(self):
        G = np.asarray(self.G, dtype=float)
        if G.ndim != 2 or G.shape[0] != G.shape[1] or G.shape[0] % 2:
            raise ValueError(f"G must be square with even size, got {G.shape}")
        object.__setattr__(self, "G", 0.5 * (G + G.T))
        Ct = np.asarray(self.Ctilde, dtype=complex)
        if Ct.ndim != 2 or Ct.shape[1] != G.shape[0]:
            raise ValueError(f"Ctilde must be L x {G.shape[0]}, got {Ct.shape}")
        object.__setattr__(self, "Ctilde", Ct)

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


def is_hurwitz(A: np.ndarray) -> bool:
    """True iff every eigenvalue of A has real part < -HURWITZ_TOL."""
    return bool(np.linalg.eigvals(A).real.max() < -HURWITZ_TOL)


def _lyapunov_operator(A: np.ndarray) -> np.ndarray:
    """kron(I, A) + kron(A, I): entry (a n + i, b n + j) is I_ab A_ij + A_ab I_ij."""
    n = len(A)
    I = np.eye(n)
    K = np.multiply.outer(I, A) + np.multiply.outer(A, I)
    return K.transpose(0, 2, 1, 3).reshape(n * n, n * n)


def lyapunov_steady(A: np.ndarray, D: np.ndarray) -> CovarianceMatrix:
    """Unique symmetric solution of A V + V A^T + D = 0 for Hurwitz A.

    Solved by Kronecker vectorization; at the matrix sizes used here the
    resulting dense linear system is trivial. NumericalError is raised when
    that system is singular to working precision or the residual misses
    1e-10 max(1, max|D|).
    """
    A = np.asarray(A, dtype=float)
    D = np.asarray(D, dtype=float)
    if not is_hurwitz(A):
        raise NoStableSolutionError("drift matrix is not Hurwitz; no stable steady state")
    n = A.shape[0]
    try:
        v = np.linalg.solve(_lyapunov_operator(A), -D.reshape(-1, order="F"))
    except np.linalg.LinAlgError:
        raise NumericalError("Kronecker operator of the Lyapunov equation is singular") from None
    V = v.reshape((n, n), order="F")
    V = 0.5 * (V + V.T)
    residual = np.max(np.abs(A @ V + V @ A.T + D))
    if residual > 1e-10 * max(1.0, np.max(np.abs(D))):
        raise NumericalError(f"Lyapunov residual {residual:.3e} above tolerance")
    return CovarianceMatrix(V)


def _expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential: Taylor series of M / 2^s (1-norm <= 1/2), squared s times."""
    norm = np.abs(M).sum(axis=0).max()
    s = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
    X = M / 2.0**s
    E = term = np.eye(len(M))
    for k in range(1, 19):   # truncation below 0.5^19 / 19! ~ 2e-23
        term = term @ X
        term /= k
        E += term
    for _ in range(s):
        E = E @ E
    return E

