"""Markovian feedback: a drive BF y(t) applied to the current of a measurement model.

BF maps the current directly onto the quadratures (an identity input
matrix). Feedback modifies the unconditional dynamics to A' = A + BF C and
D' = D + BF BF^T + BF Gamma + Gamma^T BF^T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .unravelling import MeasurementModel
from .gaussian import CovarianceMatrix


@dataclass(frozen=True)
class FeedbackGain:
    """Current gain BF (2N x 2L), acting on the real current y."""

    BF: np.ndarray

    def __post_init__(self):
        BF = np.asarray(self.BF, dtype=float)
        if not np.all(np.isfinite(BF)):
            raise ValueError("gain matrix must have finite entries")
        object.__setattr__(self, "BF", BF)


@dataclass(frozen=True)
class ClosedLoop:
    """Feedback-modified drift and diffusion matrices."""

    A_prime: np.ndarray
    D_prime: np.ndarray


def closed_loop(A: np.ndarray, D: np.ndarray, gain: FeedbackGain,
                meas: MeasurementModel) -> ClosedLoop:
    """A' = A + BF C; D' = D + BF BF^T + BF Gamma + Gamma^T BF^T, symmetrized."""
    BF = gain.BF
    Ap = A + BF @ meas.C
    Dp = D + BF @ BF.T + BF @ meas.Gamma + meas.Gamma.T @ BF.T
    return ClosedLoop(A_prime=Ap, D_prime=0.5 * (Dp + Dp.T))


def optimal_gain(W: CovarianceMatrix, meas: MeasurementModel) -> FeedbackGain:
    """BF = -W C^T - Gamma^T: drives the conditional mean to zero.

    With this gain the unconditional stationary covariance of the closed
    loop equals the conditional covariance W.
    """
    return FeedbackGain(BF=-W.data @ meas.C.T - meas.Gamma.T)


def homodyne_gain(lam_plus: float, lam_minus: float) -> FeedbackGain:
    """Gain for q-quadrature homodyne currents of the two-mode oscillator.

    Drives q1 and q2 with the symmetric/antisymmetric current combinations
    at strengths lam_plus and lam_minus.
    """
    a = (lam_plus + lam_minus) / np.sqrt(2.0)
    b = (lam_plus - lam_minus) / np.sqrt(2.0)
    BF = np.zeros((4, 4))
    BF[0, 0] = BF[2, 1] = a
    BF[0, 1] = BF[2, 0] = b
    return FeedbackGain(BF=BF)


def heterodyne_gain(mu: float) -> FeedbackGain:
    """Gain for heterodyne currents: drives each mode with the other mode's current."""
    BF = np.zeros((4, 4))
    BF[0, 1] = mu
    BF[1, 3] = -mu
    BF[2, 0] = mu
    BF[3, 2] = -mu
    return FeedbackGain(BF=BF)


def homodyne_stable(chi: float, lam_plus: float, lam_minus: float) -> bool:
    """Closed-loop stability window of the homodyne scheme: lam_pm < 1/4 -/+ chi/2."""
    return lam_plus < 0.25 - chi / 2 and lam_minus < 0.25 + chi / 2


def heterodyne_stable(chi: float, mu: float) -> bool:
    """Closed-loop stability window of the heterodyne scheme: -1/2 - chi < mu < 1/2 - chi."""
    return -0.5 - chi < mu < 0.5 - chi
