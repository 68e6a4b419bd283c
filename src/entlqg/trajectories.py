"""Monte-Carlo oracle for the conditional dynamics under measurement and feedback.

The conditional covariance is deterministic and held on a fixed point of its
Riccati equation for the whole run; a start off the fixed point is first
relaxed to it along the exact Riccati flow. The conditional means follow a
linear SDE driven by the measurement noise. They start in its stationary law
and take its exact step at any dt, in coordinates of the range of that law,
which they never leave: at most 2 of the 4 phase-space dimensions at the
optimal gain of every scheme of the two-mode oscillator. In steady state the
unconditional covariance decomposes as the conditional covariance plus the
ensemble second moment of the means, which is what the statistics returned
here verify.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .dynamics import (PlantModel, _expm, diffusion_matrix, drift_matrix, is_hurwitz,
                       lyapunov_steady)
from .errors import StabilityError, TrajectoryDivergenceError
from .feedback import FeedbackGain
from .gaussian import CovarianceMatrix
# riccati_rhs and riccati_steady have no caller here; the benchmark's tracer
# binds entlqg.trajectories.riccati_rhs and .riccati_steady by name.
from .unravelling import (RiccatiCertificate, Unravelling, _stabilizing_fixed_point,
                          measurement_model, riccati_rhs, riccati_steady)

_BLOCK = 256              # time steps per noise block
_FOLD = 8                 # time steps per product of the folded step matrix; divides _BLOCK
_FOLD_ROWS = 128          # the widest row chunk that folds; a wider one takes a step per product
_ROWS = 256               # trajectories advanced together; bounds memory in n_traj
_DIVERGENCE_LIMIT = 1e6
_MAX_STEPS = 10**8        # steps on the horizon grid: 2000x the longest run in tests and perfbench
_MAX_TRAJ = 10**6         # 250x the largest ensemble in tests; bounds memory
_MAX_KEPT = 10**11        # n_traj x kept steps: about an hour of stepping; bounds run time
_BURN_IN = 0.5            # fraction of the horizon left out of the statistics
_RELAX_STEP = 2.56        # step of the exact Riccati flow that relaxes a start off its fixed point


@dataclass(frozen=True)
class SimConfig:
    """Simulation grid and ensemble settings.

    dt and t_final are in damping-time units. The conditional covariance is
    held, and the means' chain is exact, up to round-off, at any dt, which
    only sets how finely the kept window is sampled. The horizon holds
    n_steps = t_final / dt steps, at most ``_MAX_STEPS``. The statistics
    keep the last 1 - ``_BURN_IN`` of the horizon, and the means start
    there, at t_b = ``_BURN_IN`` * t_final, in their stationary law. The
    starts and Gaussian increments come from one SFC64 stream per row chunk,
    seeded by the SeedSequence spawn key (chunk,) of the master seed, so a
    run is bit-identical for the same seed and ensemble size. A step draws
    one normal per trajectory for each row of its noise factor: the rank r
    of the increment, 2 for heterodyne and 1 for local-iii at their optimal
    gains. The draw is time-major, one step after another, however many
    steps one product advances. n_traj and seed are integers, NumPy's
    included; a float or a bool is rejected. n_traj is at most
    ``_MAX_TRAJ``, which bounds the run's memory, and n_traj times the kept
    steps at most ``_MAX_KEPT``, which bounds its run time.
    """

    dt: float = 1e-2
    t_final: float = 20.0
    n_traj: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name in ("n_traj", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(value, "__index__"):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not 1.0 <= self.t_final / self.dt < np.inf:   # dt <= t_final, finite n_steps
            raise ValueError(f"t_final must be finite in dt steps and >= dt, got {self.t_final}")
        if self.n_steps > _MAX_STEPS:
            raise ValueError(f"t_final / dt must be at most {_MAX_STEPS} steps, "
                             f"got {self.n_steps}")
        if self.n_traj < 1:
            raise ValueError("n_traj must be >= 1")
        if self.n_traj > _MAX_TRAJ:
            raise ValueError(f"n_traj must be at most {_MAX_TRAJ} trajectories, got {self.n_traj}")
        kept = self.n_traj * (self.n_steps - int(_BURN_IN * self.n_steps))
        if kept > _MAX_KEPT:
            raise ValueError(f"n_traj times the kept steps must be at most {_MAX_KEPT} "
                             f"trajectory-steps, got {kept}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass(frozen=True)
class TrajectoryStats:
    """Aggregated steady-state statistics of a simulated ensemble.

    certificate is the simulator's one ``riccati_certificate`` of v_c_final,
    the covariance held. mean_outer is the time-and-ensemble average of
    <x><x>^T after burn-in; v_unconditional = v_c_final + mean_outer estimates
    the stationary unconditional covariance. The per-trajectory outer products
    are kept so that standard errors are estimated across trajectories.
    """

    v_c_final: CovarianceMatrix
    certificate: RiccatiCertificate
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

    The conditional covariance is held for the whole run on the stabilizing
    solution that ``unravelling._stabilizing_fixed_point`` reaches from
    ``v0`` at the step ``_RELAX_STEP``, which ``cfg.dt`` does not set, and
    certifies once, as ``certificate``. A ``v0`` on it is held as it is:
    for steady-state operation pass the stationary conditional covariance
    W, which ``v_c_final`` then equals.

    Conditional means follow d<x> = A_cl <x> dt + K dw, with A_cl = A + BF C
    and K = V_c C^T + Gamma^T + BF. Their stationary law is Z =
    lyapunov_steady(A_cl, K K^T), whose range, the controllable subspace of
    (A_cl, K), is A_cl-invariant and holds every mean. With F =
    ``_psd_factor(Z)``, B is the orthonormal n x d basis of range(Z) from
    the QR factorization of F^T, d = len(F): at most 2 at the optimal gain
    of every scheme of the two-mode oscillator (1 for local-iii up to chi
    0.45), 2N = 4 at zero gain, and 0 when K is exactly zero. The chain
    steps the coordinates z of x = B z. They start at t_b = ``_BURN_IN`` *
    t_final in their law, as xi F B, and take the exact step z <- Phi_z z +
    R_z^T xi at any dt: Phi_z = e^{B^T A_cl B dt}, exact because range(Z)
    is invariant, and R_z^T = B^T R^T, with R^T R = Q = Z - Phi Z Phi^T,
    Phi = e^{A_cl dt}, and xi one standard normal per row of R. R is
    ``_psd_factor(Q)``, a pivoted Cholesky factor with r rows, r the rank
    of Q (2 for heterodyne and 1 for local-iii at their optimal gains),
    canonical and continuous in Q. Taking Q from Z keeps it accurate
    relative to its size when K is only round-off. The chain advances s
    steps per product of one (s d) x (d + s r) step matrix M_s, built once
    a call by s products: row block j, [Phi_z^j | Phi_z^{j-1} R_z^T ...
    R_z^T | 0], maps [z_k; xi_k; ...; xi_{k+s-1}] to z_{k+j}. s is
    ``_FOLD`` for up to ``_FOLD_ROWS`` trajectories, where a product's call
    overhead dominates, and 1, M_1 = [Phi_z | R_z^T], for more, where the
    products are flop-bound and the fold would slow the Gram. A row chunk
    holds a block's states and normals in a slab of P = s (d + r) rows per
    group, [z_0; xi_0..xi_{s-1}; z_1..z_s; xi_s..xi_{2s-1}; z_{s+1}..z_{2s};
    ...], so a group of s steps reads one contiguous row range and writes
    the next, in one ``M_s.dot``; a last group of m < s steps uses the
    prefix M_s[:m d, :d + m r]. Only the kept window is stepped. Each block
    adds the d (d + 1) / 2 entries of the upper triangle of its
    per-trajectory Gram sum_k z_k z_k^T by d row products over the slab's
    (groups, s, d, rows) view of its states, row i from its diagonal on.
    The triangle is mirrored once at the end, and the Gram G_z mapped back
    once, as B G_z B^T, symmetrized so that ``outer_by_traj`` is exactly
    symmetric. Even row chunks of up to ``_ROWS`` trajectories each draw
    from one SFC64 stream, seeded by a SeedSequence spawn key: the start
    normals, then time-major increments in ``_BLOCK``-step blocks,
    bit-identical to one draw over the window, and nothing when K is
    exactly zero, which leaves every aggregate exactly zero. A run is
    bit-identical for the same seed and ensemble size; peak memory does not
    grow with the horizon. Divergence of x = B z is checked once a block and
    reported at its step on the full horizon grid.
    """
    A = drift_matrix(plant)
    D = diffusion_matrix(plant)
    meas = measurement_model(plant, u)
    C, Gamma, BF = meas.C, meas.Gamma, gain.BF
    A_cl = A + BF @ C

    if not is_hurwitz(A_cl):
        raise StabilityError("closed-loop drift A + BF C is not Hurwitz")

    V, cert = _stabilizing_fixed_point(A, D, C, Gamma, v0.data, _RELAX_STEP)
    n_steps = cfg.n_steps
    k_burn = int(_BURN_IN * n_steps)
    Phi = _expm(cfg.dt * A_cl)
    K = V @ C.T + Gamma.T + BF
    Z = lyapunov_steady(A_cl, K @ K.T).data
    F = _psd_factor(Z)
    # The means x = B z stay in range(Z), which A_cl maps into itself: the
    # chain steps their d coordinates z in the orthonormal basis B.
    B = np.linalg.qr(F.T)[0]
    d = B.shape[1]
    A_z = B.T @ A_cl @ B
    Phi_z = _expm(cfg.dt * A_z) if d else A_z   # d = 0 when K = 0: nothing to step
    R_T = B.T @ _psd_factor(Z - Phi @ Z @ Phi.T).T
    # a row chunk is wider than _FOLD_ROWS exactly when n_traj is
    s, r = (_FOLD if cfg.n_traj <= _FOLD_ROWS else 1), R_T.shape[1]
    cols, P = d + s * r, s * (d + r)   # rows a group reads; rows per group in the slab
    # The s-step matrix: row block j = [Phi_z^j | Phi_z^{j-1} R_z^T ... R_z^T | 0]
    # maps [z_k; xi_k; ...; xi_{k+s-1}] to z_{k+j}; block 0 = [I | 0] seeds it.
    M = np.zeros((s + 1, d, cols))
    M[0, :, :d] = np.eye(d)
    for j in range(1, s + 1):
        M[j] = Phi_z @ M[j - 1]
        M[j, :, d + (j - 1) * r:d + j * r] = R_T
    M = M[1:].reshape(s * d, cols)

    # Even row chunks, so that none is a small remainder with a high per-row
    # step cost; the split depends on n_traj alone, and so do the streams.
    n_chunks = -(-cfg.n_traj // _ROWS)
    edges = [cfg.n_traj * k // n_chunks for k in range(n_chunks + 1)]
    if not np.any(K):
        edges = [0]   # no noise reaches the means: they stay exactly zero
    chunks = [(_chunk_rng(cfg.seed, c), *e) for c, e in enumerate(zip(edges, edges[1:]))]
    z_all = np.zeros((cfg.n_traj, d))
    for rng, lo, hi in chunks:   # the start, in N(0, Z) at t_b
        z_all[lo:hi] = rng.standard_normal((hi - lo, d)) @ (F @ B)
    sum_zz = np.zeros((d, d, cfg.n_traj))   # sum_zz[i, j], j >= i: the Gram's upper triangle
    for start in range(k_burn, n_steps, _BLOCK):
        b = min(_BLOCK, n_steps - start)
        G, full = -(-b // s), b // s   # groups of s steps, the last one partial when b % s
        m = b - (G - 1) * s            # steps in the last group
        for rng, lo, hi in chunks:
            # Y = [z_0; xi_0..xi_{s-1}; z_1..z_s; xi_s..xi_{2s-1}; ...]: group g
            # maps its rows [gP, gP + cols) to the next s states, the rows after.
            w = hi - lo
            Y = np.empty((d + G * P, w))
            Y[:d] = z_all[lo:hi].T
            inputs = Y[:G * P].reshape(G, P, w)[:, :cols]
            outputs = Y[d:].reshape(G, P, w)[:, s * r:]
            XI = inputs[:, d:].reshape(G, s, r, w)
            X = outputs.reshape(G, s, d, w)   # X[g, k] = z_{gs+k+1}
            xi = rng.standard_normal((b, w, r))
            XI[:full] = xi[:full * s].reshape(full, s, w, r).transpose(0, 1, 3, 2)
            XI[full:, :b % s] = xi[full * s:].transpose(0, 2, 1)
            for y, x in zip(inputs[:-1], outputs[:-1]):
                M.dot(y, out=x)
            M[:m * d, :d + m * r].dot(inputs[-1, :d + m * r], out=outputs[-1, :m * d])
            X[-1, m:] = 0   # the last group's unstepped slots add nothing to the Gram
            z = X[-1, m - 1]
            x = np.abs(B @ z)
            if not x.max() <= _DIVERGENCE_LIMIT:
                bad = lo + int(x.max(axis=0).argmax())
                raise TrajectoryDivergenceError(
                    f"trajectory {bad} diverged by step {start + b}", trajectory=bad)
            z_all[lo:hi] = z.T
            for i in range(d):   # row i of the block's Gram, from its diagonal on
                sum_zz[i, i:, lo:hi] += np.einsum("gkjw,gkw->jw", X[:, :, i:], X[:, :, i])
    for i in range(d):   # mirror the triangle once
        sum_zz[i + 1:, i] = sum_zz[i, i + 1:]
    outer_by = B @ (sum_zz.transpose(2, 0, 1) / (n_steps - k_burn)) @ B.T
    outer_by = 0.5 * (outer_by + outer_by.swapaxes(1, 2))   # exactly symmetric

    v_c_final = CovarianceMatrix(V)
    mean_outer = outer_by.mean(axis=0)
    return TrajectoryStats(v_c_final=v_c_final, certificate=cert, mean_outer=mean_outer,
                           v_unconditional=v_c_final.data + mean_outer,
                           outer_by_traj=outer_by)


def regulation_cost(stats: TrajectoryStats, P: np.ndarray) -> float:
    """Steady-state quadratic cost estimate tr[P V_unconditional]."""
    return float(np.trace(np.asarray(P) @ stats.v_unconditional))


def regulation_cost_sem(stats: TrajectoryStats, P: np.ndarray) -> float:
    """Standard error of the cost estimate across trajectories."""
    return float(_sem(np.einsum("ij,cji->c", np.asarray(P), stats.outer_by_traj)))
