"""Gaussian-state phase-space primitives.

Quadratures are ordered (q1, p1, ..., qN, pN) with hbar = 1, so the vacuum
covariance matrix is I/2 and the canonical commutator is [x_n, x_m] = i S_nm
with S the symplectic form built by :func:`symplectic_form`.

Entanglement (logarithmic negativity) and entropy are reported in bits:
both use base-2 logarithms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, UnphysicalStateError

PHYSICALITY_TOL = 1e-9
PAIRING_TOL = 1e-8


def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2N x 2N symplectic form: N diagonal blocks [[0, 1], [-1, 0]]."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        out[2 * k, 2 * k + 1] = 1.0
        out[2 * k + 1, 2 * k] = -1.0
    return out


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetrized second moments of the quadratures of an N-mode Gaussian state.

    The constructor symmetrizes its input, so ``data`` is exactly symmetric.
    Physicality (data + i*Sigma/2 >= 0) is not enforced here; use
    :func:`is_physical`.
    """

    data: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.data, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise ValueError(f"covariance matrix must be square with even size, got {m.shape}")
        object.__setattr__(self, "data", 0.5 * (m + m.T))

    @property
    def n_modes(self) -> int:
        return self.data.shape[0] // 2


def is_physical(V: CovarianceMatrix, tol: float = PHYSICALITY_TOL) -> bool:
    """Uncertainty-relation test: min eigenvalue of V + i*Sigma/2 >= -tol."""
    n = V.n_modes
    H = V.data + 0.5j * symplectic_form(n)
    return bool(np.linalg.eigvalsh(H).min() >= -tol)


def symplectic_eigenvalues(V: CovarianceMatrix) -> np.ndarray:
    """Moduli of the eigenvalues of i*Sigma*V, deduplicated from +/- pairs.

    The spectrum of i*Sigma*V consists of pairs (+nu, -nu); the returned
    values are the N distinct moduli, descending. Each is >= 1/2 for a
    physical state.
    """
    n = V.n_modes
    ev = np.linalg.eigvals(1j * symplectic_form(n) @ V.data)
    a = np.sort(np.abs(ev))[::-1]
    for k in range(n):
        gap = a[2 * k] - a[2 * k + 1]
        if gap > PAIRING_TOL * max(1.0, a[2 * k]):
            raise NumericalError(
                f"symplectic spectrum does not come in +/- pairs (gap {gap:.3e})")
    return a[::2].copy()


def partial_transpose(V: CovarianceMatrix, mode: int) -> CovarianceMatrix:
    """Momentum reflection of one mode: flips the sign of its p row and column."""
    n = V.n_modes
    if not 0 <= mode < n:
        raise ValueError(f"mode index {mode} out of range for {n} modes")
    F = np.eye(2 * n)
    F[2 * mode + 1, 2 * mode + 1] = -1.0
    return CovarianceMatrix(F @ V.data @ F)


def log_negativity(V: CovarianceMatrix) -> float:
    """Logarithmic negativity of a two-mode state, in bits.

    Returns max(0, -log2(2*zt)) where zt is the smallest symplectic
    eigenvalue of the partially transposed state.
    """
    if V.n_modes != 2:
        raise ValueError("log_negativity is defined here for two-mode states only")
    zt = symplectic_eigenvalues(partial_transpose(V, 1)).min()
    return max(0.0, -float(np.log2(2.0 * zt)))


def _entropy_term(x: float) -> float:
    # g(1/2) = 0 by continuity; values within tolerance below 1/2 are clamped.
    if x < 0.5 - PHYSICALITY_TOL:
        raise UnphysicalStateError(f"symplectic eigenvalue {x} below vacuum bound 1/2")
    if x <= 0.5:
        return 0.0
    return float((x + 0.5) * np.log2(x + 0.5) - (x - 0.5) * np.log2(x - 0.5))


def von_neumann_entropy(V: CovarianceMatrix) -> float:
    """Entropy of a Gaussian state in bits: sum of g(nu) over the symplectic spectrum."""
    return sum(_entropy_term(x) for x in symplectic_eigenvalues(V))


def epr_variance(V: CovarianceMatrix, theta: float) -> float:
    """Variance of x1(theta) + x2(pi - theta), with x_j(t) = cos(t) q_j + sin(t) p_j.

    The vacuum level of this combination is 1; values below 1 witness
    two-mode entanglement for states of the symmetric block form.
    """
    if V.n_modes != 2:
        raise ValueError("epr_variance is defined for two-mode states only")
    c, s = np.cos(theta), np.sin(theta)
    v = np.array([c, s, -c, s])
    return float(v @ V.data @ v)
