"""Markovian feedback: a drive BF y(t) applied to the current of a measurement model.

BF maps the current directly onto the quadratures (an identity input
matrix). Feedback modifies the unconditional dynamics to A' = A + BF C and
D' = D + BF BF^T + BF Gamma + Gamma^T BF^T. Nothing here is specific to
one plant: fixed gains live with the plant that defines them.
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
