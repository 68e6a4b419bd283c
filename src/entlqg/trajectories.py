"""Monte-Carlo oracle for the conditional dynamics under measurement and feedback.

The conditional covariance is deterministic: held on a fixed point of its
Riccati equation, or propagated exactly until it reaches one. The conditional
means follow a linear SDE driven by the measurement noise, whose law is known
in closed form at every step, so they take its exact step at any dt, held
covariance or moving. In steady state the unconditional covariance decomposes
as the conditional covariance plus the ensemble second moment of the means,
which is what the statistics returned here verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .dynamics import (PlantModel, _expm, diffusion_matrix, drift_matrix, is_hurwitz,
                       lyapunov_steady)
from .errors import StabilityError, TrajectoryDivergenceError
from .feedback import FeedbackGain, closed_loop
from .gaussian import CovarianceMatrix
# riccati_rhs and riccati_steady have no caller here; the benchmark's tracer
# binds entlqg.trajectories.riccati_rhs and .riccati_steady by name.
from .unravelling import (RICCATI_REL_TOL, Unravelling, measurement_model, riccati_map,
                          riccati_propagator, riccati_rel_residual, riccati_rhs, riccati_steady)

_BLOCK = 256              # time steps per noise block
_ROWS = 256               # trajectories advanced together; bounds memory in n_traj
_DIVERGENCE_LIMIT = 1e6
_BURN_IN = 0.5            # fraction of the horizon left out of the statistics


@dataclass(frozen=True)
class SimConfig:
    """Simulation grid and ensemble settings.

    dt and t_final are in damping-time units. The means' chain is exact, up
    to round-off, at any dt, which only sets how finely the kept window is
    sampled; a moving start's covariance path needs dt <= 1e-2. The
    statistics keep the last 1 - ``_BURN_IN`` of the horizon, and the means
    start there, at t_b = ``_BURN_IN`` * t_final. The starts and Gaussian
    increments come from one SFC64 stream per row chunk, seeded by the
    SeedSequence spawn key (chunk,) of the master seed, so a run is
    bit-identical for the same seed and ensemble size. A step draws one
    normal per trajectory for each row of its noise factor: the rank r of
    the increment while the covariance is held (at the optimal gains, r = 2
    for heterodyne and 1 for local-iii), 2N while it moves.
    """

    dt: float = 1e-2
    t_final: float = 20.0
    n_traj: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not self.dt <= self.t_final < np.inf:
            raise ValueError(f"t_final must be finite and at least dt, got {self.t_final}")
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
    unconditional covariance. The per-trajectory outer products are kept so
    that standard errors are estimated across trajectories, not within one.
    """

    v_c_final: CovarianceMatrix
    mean_outer: np.ndarray
    v_unconditional: np.ndarray
    outer_by_traj: np.ndarray   # (n_traj, 2N, 2N) time-averaged <x><x>^T

    def mean_outer_sem(self) -> np.ndarray:
        """Entrywise standard error of mean_outer across trajectories."""
        return _sem(self.outer_by_traj)


def _sem(samples: np.ndarray) -> np.ndarray:
    """Standard error of the mean over the first axis, one sample per trajectory."""
    if len(samples) < 2:
        raise ValueError("a standard error needs at least two trajectories")
    return samples.std(axis=0, ddof=1) / np.sqrt(len(samples))


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    """One SFC64 stream per row chunk, seeded by the chunk's SeedSequence spawn key."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(chunk,))))


def _psd_root(M: np.ndarray) -> np.ndarray:
    """Principal square root of a symmetric positive semidefinite matrix, or of each in a stack.

    Eigenvalues below 1e-12 times the largest are zeroed, a purely relative
    rule: round-off draws no noise, and a tiny nonzero matrix keeps its root.
    """
    w, E = np.linalg.eigh(0.5 * (M + M.swapaxes(-1, -2)))
    w = np.where(w < 1e-12 * w.max(axis=-1, keepdims=True), 0.0, w)
    return (E * np.sqrt(w)[..., None, :]) @ E.swapaxes(-1, -2)


def _psd_factor(M: np.ndarray) -> np.ndarray:
    """Rows F, r x n, with F^T F = M for a symmetric positive semidefinite M.

    Cholesky with diagonal pivoting: each pivot is the first index whose
    remaining diagonal is within a relative 1e-9 of the largest, so that
    diagonals equal by symmetry keep their order under round-off, and the
    factor stops once every remaining diagonal is below 1e-12 times the
    largest diagonal of M. F is a function of M alone and moves continuously
    with it, also where an eigenvalue is degenerate and an eigenbasis is not.
    """
    S = 0.5 * (M + M.T)
    floor = 1e-12 * S.diagonal().max()
    rows = []
    while len(rows) < len(S) and not S.diagonal().max() <= floor:   # NaN: a NaN factor
        d = S.diagonal()
        p = int(np.argmax(d >= (1 - 1e-9) * d.max()))
        rows.append(S[p] / np.sqrt(d[p]))
        S = S - np.outer(rows[-1], rows[-1])
    return np.array(rows).reshape(-1, len(M))


def simulate_conditional(plant: PlantModel, u: Unravelling, gain: FeedbackGain,
                         cfg: SimConfig, v0: CovarianceMatrix) -> TrajectoryStats:
    """Simulate the conditional moments under continuous measurement and feedback.

    The conditional covariance starts from ``v0``; for steady-state
    operation pass the stationary conditional covariance W. On a fixed
    point, where ``riccati_rel_residual`` <= RICCATI_REL_TOL (the stop rule
    of ``riccati_steady``), it is held and ``v_c_final`` equals ``v0``
    exactly. Otherwise it is propagated exactly by
    V <- (Phi11 V + Phi12)(Phi21 V + Phi22)^-1 with Phi = exp(H dt), one
    4N x 4N exponential per run, until the end of the first ``_BLOCK``-step
    block where the same fixed-point rule holds; from there it is held, as if
    the run had started on it. One batched ``riccati_map`` a block maps V to
    its end and to each of its steps in the kept window, the only path the
    means read. A moving start raises ``ValueError`` for dt > 1e-2: the map
    through the powers Phi^j, up to j = ``_BLOCK``, loses accuracy as dt
    grows and turns singular (a 4e-11 error at dt 0.1 and a ``LinAlgError``
    at dt 0.5 for q-homodyne from the open-loop state at chi 0.25).

    Conditional means follow d<x> = A_cl <x> dt + K dw, with A_cl = A + BF C
    and K = V_c C^T + Gamma^T + BF. Their law at step k is N(0, Z_k), so they
    take the exact step x <- Phi x + R_k^T xi, Phi = e^{A_cl dt}, at any dt,
    with R_k^T R_k = Q_k = Z_{k+1} - Phi Z_k Phi^T and xi one standard normal
    per row of R_k. A row chunk holds a block's states and normals in a slab,
    Y[k] = [X_k; xi_k], and takes a step as the one product X_{k+1} =
    [Phi | R_k^T] Y[k], a held block's through the bound ``dot`` of its one
    constant [Phi | R^T]; only the kept window is stepped, from a start drawn
    in N(0, Z) at t_b = ``_BURN_IN`` * t_final through ``_psd_factor(Z)``. Each
    block adds the upper triangle of its per-trajectory Gram sum_k X_k X_k^T
    by n row products, row i from its diagonal on, and the triangle is
    mirrored once at the end, so ``outer_by_traj`` is exactly symmetric. A
    held step's R is ``_psd_factor(Q)``, a pivoted Cholesky factor with r
    rows, r the rank of Q (2 for heterodyne and 1 for local-iii at their
    optimal gains, against 2N = 4), canonical and continuous in Q. A moving
    step's R_k is the principal root of Q_k, 2N rows: the small directions
    of a moving Q_k are round-off (below), and a pivoted factor of them would
    not match an independent reference's draws. Held, Z is the
    stationary law lyapunov_steady(A_cl, K K^T) = V_pred - W, which keeps Q
    accurate relative to its size when K is only round-off. From a moving
    start (means zero at t = 0), Z = V_unc - V_c, as the unconditional state
    follows the closed-loop Lyapunov flow V_unc(t) = V_pred + P (v0 - V_pred)
    P^T, P = e^{A_cl t}, V_pred = lyapunov_steady(A', D') of ``closed_loop``:
    while the covariance moves, Q_k = (V_pred - Phi V_pred Phi^T) -
    (V_c,k+1 - Phi V_c,k Phi^T), V_c,k+1 the one-step map of V_c,k. Being a
    difference of terms the size of Z or V, Q_k carries a few eps times their
    max in round-off, large relative to Q_k ~ dt |K|^2 where dt or K is small
    or chi nears threshold (6e-8 held at dt 1e-3 for local-iv at chi 0.4999).
    Even row chunks of up to ``_ROWS`` trajectories each draw from one SFC64
    stream, seeded by a SeedSequence spawn key: the start normals, then
    time-major increments in ``_BLOCK``-step blocks, bit-identical to one draw
    over the window, and nothing when the covariance is held and K is exactly
    zero, which leaves every aggregate exactly zero. A run is bit-identical for
    the same seed and ensemble size; peak memory does not grow with the
    horizon. Divergence is reported at its step on the full horizon grid.
    """
    A = drift_matrix(plant)
    D = diffusion_matrix(plant)
    meas = measurement_model(plant, u)
    C, Gamma, BF = meas.C, meas.Gamma, gain.BF
    loop = closed_loop(A, D, gain, meas)
    A_cl = loop.A_prime

    if not is_hurwitz(A_cl):
        raise StabilityError("closed-loop drift A + BF C is not Hurwitz")

    n_steps, dt = cfg.n_steps, cfg.dt
    k_burn = int(_BURN_IN * n_steps)
    n = A.shape[0]
    V = v0.data
    Phi = _expm(dt * A_cl)

    def hold(V):   # K, the means' stationary law Z and their step matrix [Phi | R^T]
        K = V @ C.T + Gamma.T + BF
        Z = lyapunov_steady(A_cl, K @ K.T).data
        return K, Z, np.hstack((Phi, _psd_factor(Z - Phi @ Z @ Phi.T).T))

    moving = not riccati_rel_residual(A, D, C, Gamma, V) <= RICCATI_REL_TOL
    if moving:
        if dt > 1e-2:
            raise ValueError(f"a moving start needs dt <= 1e-2, got {dt}")
        H = riccati_propagator(A, D, C, Gamma, dt)
        powers = np.empty((_BLOCK + 1, *H.shape))
        powers[0] = np.eye(len(H))
        for j in range(_BLOCK):
            powers[j + 1] = powers[j] @ H
        V_pred = lyapunov_steady(A_cl, loop.D_prime).data
        Q_pred = V_pred - Phi @ V_pred @ Phi.T
        P = _expm(k_burn * dt * A_cl)
        V_unc_b = V_pred + P @ (V - V_pred) @ P.T   # V_unc at t_b
        first = 0
    else:
        K, Z, M = hold(V)
        first = k_burn   # the burn-in would only carry the means to N(0, Z)
    held_start = not moving

    # Even row chunks, so that none is a small remainder with a high per-row
    # step cost; the split depends on n_traj alone, and so do the streams.
    n_chunks = -(-cfg.n_traj // _ROWS)
    edges = [cfg.n_traj * k // n_chunks for k in range(n_chunks + 1)]
    if held_start and not np.any(K):
        edges = [0]   # no noise reaches the means: they stay exactly zero
    chunks = [(_chunk_rng(cfg.seed, c), *e) for c, e in enumerate(zip(edges, edges[1:]))]
    X_all = np.zeros((cfg.n_traj, n))
    sum_xx = np.zeros((n, n, cfg.n_traj))   # sum_xx[i, j], j >= i: the Gram's upper triangle
    for start in range(first, n_steps, _BLOCK):
        b = min(_BLOCK, n_steps - start)
        skip = max(0, k_burn - start)   # steps of this block before the kept window
        if moving:
            Vs = riccati_map(V, powers[min(skip, b):b + 1])   # Vs[0]: first kept step, or the end
            V = Vs[-1]
        if skip < b:   # the block reaches into the kept window
            if start <= k_burn:   # which opens here: draw the start in N(0, Z(t_b))
                Z_b = Z if held_start else V_unc_b - (Vs[0] if moving else V)
                F_b = _psd_factor(Z_b)
                for rng, lo, hi in chunks:
                    X_all[lo:hi] = rng.standard_normal((hi - lo, len(F_b))) @ F_b
            if moving:   # V_c,k+1 by one step from V_c,k: no path round-off in Q_k
                Vk = Vs[:-1]
                R = _psd_root(Q_pred + Phi @ Vk @ Phi.T - riccati_map(Vk, H))
                M = np.concatenate((np.broadcast_to(Phi, Vk.shape), R.swapaxes(1, 2)), axis=2)
            for rng, lo, hi in chunks:
                # Y[k] = [X_k^T; xi_k^T], so each step is the one product M_k Y[k].
                Y = np.empty((b - skip + 1, M.shape[-1], hi - lo))
                Y[0, :n] = X_all[lo:hi].T
                xi = rng.standard_normal((b - skip, hi - lo, M.shape[-1] - n))
                Y[:-1, n:] = xi.transpose(0, 2, 1)
                dots = repeat(M.dot) if M.ndim == 2 else (Mk.dot for Mk in M)
                for dot, y, x in zip(dots, Y[:-1], Y[1:, :n]):
                    dot(y, out=x)
                X = Y[1:, :n]
                if not np.abs(X[-1]).max() <= _DIVERGENCE_LIMIT:
                    bad = lo + int(np.abs(X[-1]).max(axis=0).argmax())
                    raise TrajectoryDivergenceError(
                        f"trajectory {bad} diverged by step {start + b}", trajectory=bad)
                X_all[lo:hi] = X[-1].T
                for i in range(n):   # row i of the block's Gram, from its diagonal on
                    sum_xx[i, i:, lo:hi] += np.einsum("kjr,kr->jr", X[:, i:], X[:, i])
        if moving and riccati_rel_residual(A, D, C, Gamma, V) <= RICCATI_REL_TOL:
            # The start rule, applied at the block's end: hold V from here.
            moving = False
            *_, M = hold(V)
    for i in range(n):   # mirror the triangle once
        sum_xx[i + 1:, i] = sum_xx[i, i + 1:]
    outer_by = sum_xx.transpose(2, 0, 1) / (n_steps - k_burn)

    v_c_final = CovarianceMatrix(V)
    mean_outer = outer_by.mean(axis=0)
    return TrajectoryStats(v_c_final=v_c_final, mean_outer=mean_outer,
                           v_unconditional=v_c_final.data + mean_outer,
                           outer_by_traj=outer_by)


def regulation_cost(stats: TrajectoryStats, P: np.ndarray) -> float:
    """Steady-state quadratic cost estimate tr[P V_unconditional]."""
    return float(np.trace(np.asarray(P) @ stats.v_unconditional))


def regulation_cost_sem(stats: TrajectoryStats, P: np.ndarray) -> float:
    """Standard error of the cost estimate across trajectories."""
    return float(_sem(np.einsum("ij,cji->c", np.asarray(P), stats.outer_by_traj)))
