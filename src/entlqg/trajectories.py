"""Monte-Carlo oracle for the conditional dynamics under measurement and feedback.

The conditional covariance is deterministic and starts where the caller puts
it. Started on a fixed point of its Riccati equation it stays constant;
started anywhere else it is propagated exactly, once per noise block for all
trajectories, by the linear-fractional map of the Riccati flow that
``riccati_steady`` relaxes along, and held constant from the end of the
first block on which it reaches a fixed point. The conditional means follow
a linear SDE driven by the measurement noise and are stepped for all
trajectories at once by an exponential-midpoint rule: the drift is applied
exactly, as e^{A_cl dt}, and each increment is carried through half a step
of it. Noise is drawn in blocks of time steps, so peak memory does not
depend on the horizon; where the noise coefficient is exactly zero, none is
drawn. In steady state the unconditional covariance decomposes as the
conditional covariance plus the ensemble second moment of the means, which
is what the statistics returned here verify.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import PlantModel, _expm, diffusion_matrix, drift_matrix, is_hurwitz
from .errors import StabilityError, TrajectoryDivergenceError
from .feedback import FeedbackGain
from .gaussian import CovarianceMatrix
# riccati_steady has no caller here; the benchmark's tracer binds
# entlqg.trajectories.riccati_steady by name.
from .unravelling import (RICCATI_DERIVATIVE_TOL, Unravelling, measurement_model,
                          riccati_map, riccati_propagator, riccati_rhs, riccati_steady)

_BLOCK = 256              # time steps per noise block
_ROWS = 256               # trajectories advanced together; bounds memory in n_traj
_DIVERGENCE_LIMIT = 1e6
_BURN_IN = 0.5            # fraction of the horizon left out of the statistics


@dataclass(frozen=True)
class SimConfig:
    """Simulation grid and ensemble settings.

    dt and t_final are in damping-time units; dt is capped at 1e-2, where the
    exponential-midpoint step biases the stationary covariance of the means
    by a few parts in 1e6 (second order in dt). Each trajectory draws its
    Gaussian increments from an independent counter-based stream derived
    from the master seed, so a trajectory's result is bit-identical whatever
    the ensemble size or chunking (an ensemble of one trajectory excepted:
    NumPy steps it on a matrix-vector path that can differ in the last bits).
    """

    dt: float = 1e-2
    t_final: float = 20.0
    n_traj: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.dt <= 1e-2:
            raise ValueError(f"dt must be in (0, 1e-2], got {self.dt}")
        if self.t_final < self.dt:
            raise ValueError("t_final must be at least dt")
        if self.n_traj < 1:
            raise ValueError("n_traj must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass(frozen=True)
class TrajectoryStats:
    """Aggregated steady-state statistics of a simulated ensemble.

    mean_outer is the time-and-ensemble average of <x><x>^T after burn-in;
    v_unconditional = v_c_final + mean_outer estimates the stationary
    unconditional covariance. Per-trajectory aggregates are kept so that
    standard errors are estimated across trajectories, not within one.
    """

    v_c_final: CovarianceMatrix
    mean_outer: np.ndarray
    v_unconditional: np.ndarray
    n_steps: int
    outer_by_traj: np.ndarray   # (n_traj, 2N, 2N) time-averaged <x><x>^T
    mean_by_traj: np.ndarray    # (n_traj, 2N) time-averaged <x>

    @property
    def n_traj(self) -> int:
        return self.outer_by_traj.shape[0]

    def mean_outer_sem(self) -> np.ndarray:
        """Entrywise standard error of mean_outer across trajectories."""
        ddof = 1 if self.n_traj > 1 else 0
        return self.outer_by_traj.std(axis=0, ddof=ddof) / np.sqrt(self.n_traj)

    def traj_mean(self) -> np.ndarray:
        """Ensemble average of the time-averaged conditional means."""
        return self.mean_by_traj.mean(axis=0)

    def traj_mean_sem(self) -> np.ndarray:
        ddof = 1 if self.n_traj > 1 else 0
        return self.mean_by_traj.std(axis=0, ddof=ddof) / np.sqrt(self.n_traj)


def _trajectory_rng(seed: int, index: int) -> np.random.Generator:
    # Counter-based splitting: one Philox key per (seed, trajectory) pair.
    return np.random.Generator(np.random.Philox(key=(seed << 64) + index))


def simulate_conditional(plant: PlantModel, u: Unravelling, gain: FeedbackGain,
                         cfg: SimConfig, v0: CovarianceMatrix) -> TrajectoryStats:
    """Simulate the conditional moments under continuous measurement and feedback.

    The conditional covariance starts from ``v0``; for steady-state
    operation pass the stationary conditional covariance W. On a fixed
    point, where max|dV/dt| <= RICCATI_DERIVATIVE_TOL * max(1, max|V|), it
    is held constant and ``v_c_final`` equals ``v0`` exactly. Otherwise
    it is propagated exactly by V <- (Phi11 V + Phi12)(Phi21 V + Phi22)^-1
    with Phi = exp(H dt), one 4N x 4N exponential per run and one batched
    ``riccati_map`` per block, until the end of the first ``_BLOCK``-step
    block where the same fixed-point rule holds; from there it is held, as
    if the run had started on it.

    Conditional means start at zero and follow
    d<x> = A_cl <x> dt + K dw, with A_cl = A + BF C and
    K = V_c C^T + Gamma^T + BF, stepped for all trajectories at once by
    X <- e^{A_cl dt} X + sqrt(dt) e^{A_cl dt/2} K xi. The drift is exact; the
    increment's covariance is the midpoint rule for the exact
    int_0^dt e^{A_cl s} K K^T e^{A_cl^T s} ds, so its error is second order
    in dt. Each trajectory draws its 2L-dimensional increments xi from its
    own Philox stream, in blocks of ``_BLOCK`` steps; the draws are
    bit-identical to one draw over the whole horizon. When the covariance is
    held constant and K is exactly zero, nothing is drawn: the means and
    every aggregate are exactly zero. Each block steps the ensemble in row
    chunks of up to ``_ROWS`` trajectories, so peak memory grows with the
    number of trajectories but not with the horizon. Statistics are
    accumulated after a burn-in of the first ``_BURN_IN`` of the horizon.
    """
    A = drift_matrix(plant)
    D = diffusion_matrix(plant)
    meas = measurement_model(plant, u)
    C, Gamma, BF = meas.C, meas.Gamma, gain.BF
    A_cl = A + BF @ C

    if not is_hurwitz(A_cl):
        raise StabilityError("closed-loop drift A + BF C is not Hurwitz")
    slowest = 1.0 / abs(np.linalg.eigvals(A_cl).real.max())
    if cfg.t_final < 10.0 * slowest:
        warnings.warn(
            f"t_final={cfg.t_final} is below 10x the slowest closed-loop time "
            f"constant ({slowest:.2f}); statistics may carry transient bias",
            stacklevel=2)

    def on_fixed_point(V):
        rate = np.max(np.abs(riccati_rhs(A, D, C, Gamma, V)))
        return rate <= RICCATI_DERIVATIVE_TOL * max(1.0, np.max(np.abs(V)))

    n_steps, dt = cfg.n_steps, cfg.dt
    V = v0.data
    moving = not on_fixed_point(V)
    if moving:
        Phi = riccati_propagator(A, D, C, Gamma, dt)
        powers = np.empty((_BLOCK + 1, *Phi.shape))
        powers[0] = np.eye(len(Phi))
        for j in range(_BLOCK):
            powers[j + 1] = powers[j] @ Phi

    k_burn = int(_BURN_IN * n_steps)
    n = A.shape[0]
    half = _expm(0.5 * dt * A_cl)
    Phit = (half @ half).T
    Ht = np.sqrt(dt) * half.T

    def held_Kt(V):
        # Noise factor of a held covariance: K^T carried through half a step.
        return (V @ C.T + Gamma.T + BF).T @ Ht

    Kt = held_Kt(V)
    # Even row chunks, so that no chunk holds a lone trajectory: NumPy would
    # step it on its matrix-vector path, whose last bits differ.
    n_chunks = -(-cfg.n_traj // _ROWS)
    edges = [cfg.n_traj * k // n_chunks for k in range(n_chunks + 1)]
    if not moving and not np.any(Kt):
        edges = [0]   # no noise reaches the means: they stay exactly zero
    rngs = [_trajectory_rng(cfg.seed, i) for i in range(edges[-1])]
    X_all = np.zeros((cfg.n_traj, n))
    sum_x = np.zeros((cfg.n_traj, n))
    sum_xx = np.zeros((cfg.n_traj, n, n))
    for start in range(0, n_steps, _BLOCK):
        b = min(_BLOCK, n_steps - start)
        if moving:
            Vs = riccati_map(V, powers[:b + 1])
            V = Vs[b]
            Kt = (Vs[:b] @ C.T + Gamma.T + BF).transpose(0, 2, 1) @ Ht
        for lo, hi in zip(edges, edges[1:]):
            xi = np.empty((hi - lo, _BLOCK, C.shape[0]))
            for draw, rng in zip(xi, rngs[lo:hi]):
                rng.standard_normal(out=draw[:b])
            # Time-major noise terms, overwritten in place by the states.
            F = np.matmul(xi[:, :b].transpose(1, 0, 2), Kt)
            X, step = X_all[lo:hi], np.empty((hi - lo, n))
            for f in F:
                np.dot(X, Phit, out=step)   # cheaper per call than X @ Phit
                f += step
                X = f
            if not np.abs(X).max() <= _DIVERGENCE_LIMIT:
                bad = lo + int(np.abs(X).max(axis=1).argmax())
                raise TrajectoryDivergenceError(
                    f"trajectory {bad} diverged by step {start + b}", trajectory=bad)
            X_all[lo:hi] = X
            kept = F[max(0, k_burn - start):]
            sum_x[lo:hi] += kept.sum(axis=0)
            sum_xx[lo:hi] += np.einsum("tci,tcj->cij", kept, kept, optimize=True)
        if moving and on_fixed_point(V):
            # The start rule, applied at the block's end: hold V from here.
            moving = False
            Kt = held_Kt(V)
    mean_by = sum_x / (n_steps - k_burn)
    outer_by = sum_xx / (n_steps - k_burn)

    v_c_final = CovarianceMatrix(V)
    mean_outer = outer_by.mean(axis=0)
    return TrajectoryStats(
        v_c_final=v_c_final, mean_outer=mean_outer,
        v_unconditional=v_c_final.data + mean_outer,
        n_steps=n_steps, outer_by_traj=outer_by, mean_by_traj=mean_by)


def regulation_cost(stats: TrajectoryStats, P: np.ndarray) -> float:
    """Steady-state quadratic cost estimate tr[P V_unconditional]."""
    return float(np.trace(np.asarray(P) @ stats.v_unconditional))


def regulation_cost_sem(stats: TrajectoryStats, P: np.ndarray) -> float:
    """Standard error of the cost estimate across trajectories."""
    P = np.asarray(P)
    per_traj = np.einsum("ij,cji->c", P, stats.outer_by_traj)
    ddof = 1 if stats.n_traj > 1 else 0
    return float(per_traj.std(ddof=ddof) / np.sqrt(stats.n_traj))
