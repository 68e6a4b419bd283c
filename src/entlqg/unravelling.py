"""Measurement unravellings of the bath and the conditional steady state.

An unravelling is parameterized by a complex symmetric matrix upsilon whose
derived real matrix U (``u_matrix``) must be positive semidefinite. From U
one obtains the measurement matrices C and Gamma that enter the conditional
moment equations; the stationary conditional covariance W solves a Riccati
equation and is characterized by two linear matrix inequalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import PlantModel, _expm, diffusion_matrix, drift_matrix, lyapunov_steady
from .errors import (InvalidUnravellingError, NoStableSolutionError, NumericalError,
                     RecoveryError)
from .gaussian import CovarianceMatrix, symplectic_form

U_PSD_TOL = 1e-9
RICCATI_DERIVATIVE_TOL = 1e-12
RICCATI_RESIDUAL_TOL = 1e-9
RICCATI_MAX_STEPS = 10**7
_RICCATI_DT = 0.01
RECOVERY_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class Unravelling:
    """Continuous monitoring choice, given by the complex symmetric matrix upsilon.

    upsilon = I measures the q quadrature of every channel; upsilon = 0
    splits each channel equally over both quadratures.
    """

    upsilon: np.ndarray

    def __post_init__(self):
        Y = np.asarray(self.upsilon, dtype=complex)
        if Y.ndim != 2 or Y.shape[0] != Y.shape[1]:
            raise ValueError(f"upsilon must be square, got {Y.shape}")
        object.__setattr__(self, "upsilon", 0.5 * (Y + Y.T))

    @property
    def n_channels(self) -> int:
        return self.upsilon.shape[0]


@dataclass(frozen=True)
class MeasurementModel:
    """Matrices of the real current y = C <x> + dw/dt and its back-action Gamma."""

    C: np.ndarray
    Gamma: np.ndarray


def _u_eigh(u: Unravelling) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U with its eigendecomposition; rejects U with an eigenvalue below -U_PSD_TOL."""
    Y = u.upsilon
    I = np.eye(u.n_channels)
    U = 0.5 * np.block([[I + Y.real, Y.imag], [Y.imag, I - Y.real]])
    w, Q = np.linalg.eigh(U)
    if w.min() < -U_PSD_TOL:
        raise InvalidUnravellingError(
            f"unravelling matrix indefinite (min eigenvalue {w.min():.3e})")
    return U, w, Q


def u_matrix(u: Unravelling) -> np.ndarray:
    """Real unravelling matrix (1/2) [[I + Re Y, Im Y], [Im Y, I - Re Y]]; must be PSD."""
    return _u_eigh(u)[0]


def cbar(Ctilde: np.ndarray) -> np.ndarray:
    """Real 2L x 2N stack of the coupling: real part rows over imaginary part rows."""
    Ct = np.asarray(Ctilde, dtype=complex)
    return np.vstack([Ct.real, Ct.imag])


def s_matrix(n_channels: int) -> np.ndarray:
    """The 2L x 2L block matrix [[0, I], [-I, 0]] acting on (Re, Im) current space."""
    I = np.eye(n_channels)
    Z = np.zeros((n_channels, n_channels))
    return np.block([[Z, I], [-I, Z]])


def measurement_model(plant: PlantModel, u: Unravelling) -> MeasurementModel:
    """C = 2 U^{1/2} Cbar and Gamma = -U^{1/2} S Cbar Sigma^T for the given unravelling.

    Eigenvalues of U within a relative 1e-12 of zero are taken as exactly
    zero: the square root would otherwise turn O(eps) eigenvalue noise of a
    singular U (a projector in particular) into O(sqrt(eps)) entries.
    """
    if u.n_channels != plant.n_channels:
        raise ValueError(
            f"unravelling has {u.n_channels} channels, plant has {plant.n_channels}")
    _, w, Q = _u_eigh(u)
    w[w < 1e-12 * max(1.0, w.max())] = 0.0
    Us = Q @ np.diag(np.sqrt(w)) @ Q.T
    Cb = cbar(plant.Ctilde)
    S = s_matrix(plant.n_channels)
    Sig = symplectic_form(plant.n_modes)
    return MeasurementModel(C=2.0 * Us @ Cb, Gamma=-Us @ S @ Cb @ Sig.T)


def riccati_rhs(A: np.ndarray, D: np.ndarray, C: np.ndarray, Gamma: np.ndarray,
                V: np.ndarray) -> np.ndarray:
    """Right-hand side of the conditional covariance equation, for symmetric V.

    dV/dt = A V + V A^T + D - K K^T, K = V C^T + Gamma^T = (C V + Gamma)^T.
    """
    AV = A @ V
    K = V @ C.T + Gamma.T
    return AV + AV.T + D - K @ K.T


def riccati_propagator(A: np.ndarray, D: np.ndarray, C: np.ndarray, Gamma: np.ndarray,
                       dt: float) -> np.ndarray:
    """Phi = exp(H dt), the exact step of the conditional covariance equation.

    With Omega = A - Gamma^T C, V = X Y^-1 solves the equation
    dV/dt = Omega V + V Omega^T + (D - Gamma^T Gamma) - V C^T C V exactly
    when d[X; Y]/dt = H [X; Y], H = [[Omega, D - Gamma^T Gamma], [C^T C, -Omega^T]].
    """
    Omega = A - Gamma.T @ C
    return _expm(dt * np.block([[Omega, D - Gamma.T @ Gamma], [C.T @ C, -Omega.T]]))


def riccati_map(V: np.ndarray, Phi: np.ndarray) -> np.ndarray:
    """V <- (Phi11 V + Phi12)(Phi21 V + Phi22)^-1 for one Phi or a stack of them."""
    n = len(V)
    XY = Phi @ np.concatenate((V, np.eye(n)))
    # X Y^-1 = (Y^-T X^T)^T, and V is symmetric.
    Vs = np.linalg.solve(XY[..., n:, :].swapaxes(-1, -2), XY[..., :n, :].swapaxes(-1, -2))
    return 0.5 * (Vs + Vs.swapaxes(-1, -2))


def riccati_steady(plant: PlantModel, u: Unravelling) -> CovarianceMatrix:
    """Stabilizing steady state of the conditional covariance equation.

    Solved by relaxation along the exact Riccati flow: from the unconditional
    steady state, V is stepped forward by ``riccati_map`` with
    Phi = exp(H dt), dt = 0.01, until max|dV/dt| <= RICCATI_DERIVATIVE_TOL,
    which is guaranteed to land on the stabilizing solution when one exists
    (a backward flow would relax to the anti-stabilizing solution instead). The
    converged matrix is then checked against the equivalent algebraic form
    0 = Omega W + W Omega^T - W C^T C W + E E^T with Omega = A - Gamma^T C
    and E = Sigma C^T / 2.
    """
    A = drift_matrix(plant)
    D = diffusion_matrix(plant)
    meas = measurement_model(plant, u)
    C, Gamma = meas.C, meas.Gamma
    V = lyapunov_steady(A, D).data
    Phi = riccati_propagator(A, D, C, Gamma, _RICCATI_DT)

    for _ in range(RICCATI_MAX_STEPS):
        rate = np.abs(riccati_rhs(A, D, C, Gamma, V)).max()
        if rate <= RICCATI_DERIVATIVE_TOL:
            break
        if not np.isfinite(rate):
            raise NoStableSolutionError("Riccati relaxation diverged")
        V = riccati_map(V, Phi)
    else:
        raise NoStableSolutionError(
            f"Riccati relaxation did not converge within {RICCATI_MAX_STEPS} steps")

    Sig = symplectic_form(plant.n_modes)
    Omega = A - Gamma.T @ C
    E = Sig @ C.T / 2.0
    residual = np.max(np.abs(Omega @ V + V @ Omega.T - V @ C.T @ C @ V + E @ E.T))
    if residual > RICCATI_RESIDUAL_TOL:
        raise NumericalError(
            f"algebraic Riccati residual {residual:.3e} above {RICCATI_RESIDUAL_TOL:.0e}")
    return CovarianceMatrix(V)


class LmiReport(NamedTuple):
    feasible: bool
    physical_margin: float      # min eigenvalue of W + i Sigma / 2
    dissipation_margin: float   # min eigenvalue of D + A W + W A^T


def lmi_feasible(W: CovarianceMatrix, plant: PlantModel, tol: float = 1e-9) -> LmiReport:
    """Test the two matrix inequalities characterizing attainable conditional covariances.

    A symmetric W is the stationary conditional covariance of some
    unravelling iff W + i Sigma / 2 >= 0 and D + A W + W A^T >= 0.
    """
    A = drift_matrix(plant)
    D = diffusion_matrix(plant)
    Sig = symplectic_form(plant.n_modes)
    m1 = float(np.linalg.eigvalsh(W.data + 0.5j * Sig).min().real)
    M = D + A @ W.data + W.data @ A.T
    m2 = float(np.linalg.eigvalsh(0.5 * (M + M.T)).min())
    return LmiReport(feasible=(m1 >= -tol and m2 >= -tol),
                     physical_margin=m1, dissipation_margin=m2)


def recover_unravelling(W: CovarianceMatrix, plant: PlantModel) -> tuple[Unravelling, float]:
    """Find an unravelling whose conditional steady state is W.

    Solves R^T U R = D + A W + W A^T with R = 2 Cbar W + S Cbar Sigma in the
    least-squares sense (pseudoinverse applied on both sides; R may be
    singular), then projects the result onto the affine family of valid
    unravelling matrices before validating. The generating unravelling need
    not be unique; the returned one reproduces W.

    Returns the unravelling and the residual ||R^T U R - (D + A W + W A^T)||_inf.
    """
    report = lmi_feasible(W, plant, tol=1e-8)
    if not report.feasible:
        raise ValueError(
            f"W violates the attainability inequalities (margins {report.physical_margin:.3e}, "
            f"{report.dissipation_margin:.3e})")
    A = drift_matrix(plant)
    D = diffusion_matrix(plant)
    Cb = cbar(plant.Ctilde)
    S = s_matrix(plant.n_channels)
    Sig = symplectic_form(plant.n_modes)
    L = plant.n_channels

    M = D + A @ W.data + W.data @ A.T
    M = 0.5 * (M + M.T)
    R = 2.0 * Cb @ W.data + S @ Cb @ Sig
    Rp = np.linalg.pinv(R, rcond=1e-10)
    U0 = Rp.T @ M @ Rp
    U0 = 0.5 * (U0 + U0.T)

    # Project onto the block structure (1/2)[[I+ReY, ImY], [ImY, I-ReY]].
    re_y = U0[:L, :L] - U0[L:, L:]
    re_y = 0.5 * (re_y + re_y.T)
    im_y = U0[:L, L:] + U0[:L, L:].T
    recovered = Unravelling(re_y + 1j * im_y)

    U = u_matrix(recovered)  # raises InvalidUnravellingError if indefinite
    residual = float(np.max(np.abs(R.T @ U @ R - M)))
    if residual > RECOVERY_RESIDUAL_TOL:
        raise RecoveryError(
            f"recovery residual {residual:.3e} above {RECOVERY_RESIDUAL_TOL:.0e}")
    return recovered, residual
