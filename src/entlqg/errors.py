"""Exception types raised by the entlqg package."""

from __future__ import annotations


class EntlqgError(Exception):
    """Base class for all errors raised by this package."""


class UnphysicalStateError(EntlqgError):
    """A covariance matrix violates the quantum uncertainty bound."""


class NumericalError(EntlqgError):
    """A numerical consistency check failed (residuals, eigenvalue pairing)."""


class InvalidUnravellingError(EntlqgError):
    """The unravelling matrix derived from upsilon is not positive semidefinite."""


class NoStableSolutionError(EntlqgError):
    """No stable steady state exists (drift not Hurwitz, or no convergence)."""


class RecoveryError(EntlqgError):
    """Unravelling recovery produced a residual above tolerance."""


class StabilityError(EntlqgError):
    """Feedback parameters lie outside the closed-loop stability window."""


class TrajectoryDivergenceError(EntlqgError):
    """A simulated trajectory diverged."""

    def __init__(self, message: str, trajectory: int):
        super().__init__(message)
        self.trajectory = trajectory
