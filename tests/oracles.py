"""The tests' oracles and the printed matrices and chi sets they share, each defined once.

Each oracle's docstring names the ``entlqg`` function it checks and why it is independent."""

import decimal
from fractions import Fraction

import numpy as np

from entlqg import (CHI_MAX, HETERODYNE, HOMODYNE_Q, JOINT_HOMODYNE, NopoParams, SchemeId,
                    diffusion_matrix, drift_matrix, heterodyne_closed_form_V, log_negativity,
                    lyapunov_steady, measurement_model, optimal_nonlocal_alpha_beta)
from entlqg.gaussian import symplectic_form
from entlqg.trajectories import _BURN_IN, _ROWS, _chunk_rng, _psd_factor

CHI_GRID = np.round(np.linspace(0.05, 0.45, 9), 10)
# The whole accepted domain, with the threshold tail where V has entries ~1/(1-2chi).
DOMAIN_CHIS = (0.0, 1e-9, 0.25, 0.45, 0.499, 0.4999, 0.49999, CHI_MAX)
PRINTED_OPTIMAL_U = 0.5 * np.array([[1, -1, 0, 0], [-1, 1, 0, 0],
                                    [0, 0, 1, 1], [0, 0, 1, 1]])
# The three measurements, each by a scheme that uses it.
MEASUREMENTS = {SchemeId.LOCAL_III: HOMODYNE_Q, SchemeId.HETERODYNE: HETERODYNE,
                SchemeId.NONLOCAL: JOINT_HOMODYNE}
RK4_SUBSTEPS = 8   # RK4 steps per time step in exact_reference: its error stays below 1e-13


def rk4_step(rhs, V, h, k1=None):
    """Checks riccati_map: an RK4 step of dV/dt = rhs(V), polynomial, not the exact flow."""
    if k1 is None:   # the caller may pass k1 = rhs(V)
        k1 = rhs(V)
    k2 = rhs(V + 0.5 * h * k1)
    k3 = rhs(V + 0.5 * h * k2)
    k4 = rhs(V + h * k3)
    return V + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def rk4_relaxation(plant, u, dt=0.01):
    """Checks riccati_steady: RK4 to max|dV/dt| <= 1e-12, not its exact flow or relative stop."""
    A, D = drift_matrix(plant), diffusion_matrix(plant)
    meas = measurement_model(plant, u)

    def rhs(V):
        K = V @ meas.C.T + meas.Gamma.T
        return A @ V + V @ A.T + D - K @ (meas.C @ V + meas.Gamma)

    V = lyapunov_steady(A, D).data
    for _ in range(10**6):
        k1 = rhs(V)
        if np.max(np.abs(k1)) <= 1e-12:
            return V
        V = rk4_step(rhs, V, dt, k1)
        V = 0.5 * (V + V.T)
    raise AssertionError("RK4 oracle did not converge")


def anti_stabilizing_solution(plant, u):
    """Checks riccati_certificate: X Y^-1 over H's stable eigenvectors, an eigensolve, not a flow.

    [X; Y] spans the invariant subspace of the Hamiltonian H of the conditional
    Riccati equation for eigenvalues with negative real part; X Y^-1 solves the
    algebraic equation, but is the anti-stabilizing solution.
    """
    A, D = drift_matrix(plant), diffusion_matrix(plant)
    meas = measurement_model(plant, u)
    C, Gamma = meas.C, meas.Gamma
    Omega = A - Gamma.T @ C
    w, vecs = np.linalg.eig(np.block([[Omega, D - Gamma.T @ Gamma], [C.T @ C, -Omega.T]]))
    X, Y = np.split(vecs[:, w.real < 0], 2)
    V = np.linalg.solve(Y.T, X.T).real   # (X Y^-1)^T; the solution is real and symmetric
    return 0.5 * (V + V.T)


def grid_minimizer(chi, grid=400):
    """Checks optimal_nonlocal_alpha_beta: min 2(alpha-beta) over a grid, not the closed form."""
    # Constraints: alpha >= sqrt(1+4 beta^2)/2 (physicality of the family) and
    # 1/2 - (alpha +/- beta)(1 -/+ 2chi) >= 0 (attainability). A dense grid is
    # refined five times around its best point. Returns (alpha, beta).
    a_exp, b_exp = optimal_nonlocal_alpha_beta(chi)
    a_lo, a_hi = 0.45, 0.5 / (1.0 - 2.0 * chi) + 0.2
    b_lo, b_hi = -0.1, 1.5 * b_exp + 0.2
    best = (np.inf, a_exp, b_exp)
    for _ in range(5):
        al = np.linspace(a_lo, a_hi, grid)
        be = np.linspace(b_lo, b_hi, grid)
        A, B = np.meshgrid(al, be, indexing="ij")
        feasible = ((A - 0.5 * np.sqrt(1.0 + 4.0 * B**2) >= 0)
                    & (0.5 - (A + B) * (1.0 - 2.0 * chi) >= 0)
                    & (0.5 - (A - B) * (1.0 + 2.0 * chi) >= 0))
        m = np.where(feasible, 2.0 * (A - B), np.inf)
        k = np.unravel_index(np.argmin(m), m.shape)
        if m[k] < best[0]:
            best = (float(m[k]), float(A[k]), float(B[k]))
        da, db = al[1] - al[0], be[1] - be[0]
        a_lo, a_hi = best[1] - 2 * da, best[1] + 2 * da
        b_lo, b_hi = best[2] - 2 * db, best[2] + 2 * db
    return best[1], best[2]


def grid_maximizer(chi, points=4001, rounds=8):
    """Checks heterodyne_optimal_mu: max of L(heterodyne_closed_form_V) on a grid, no root."""
    # The grid spans the open stability window -1/2 - chi < mu < 1/2 - chi
    # without its edges, and is refined around its best point, each round over
    # +-2 spacings of the last. Returns (mu, L).
    p = NopoParams(chi)
    lo, hi = -0.5 - chi, 0.5 - chi
    best = (-np.inf, None)
    for _ in range(rounds):
        mus = np.linspace(lo, hi, points)[1:-1]
        Ls = [log_negativity(heterodyne_closed_form_V(p, mu)) for mu in mus]
        k = int(np.argmax(Ls))
        if Ls[k] > best[0]:
            best = (Ls[k], float(mus[k]))
        step = mus[1] - mus[0]
        lo, hi = max(lo, best[1] - 2 * step), min(hi, best[1] + 2 * step)
        points = 41
    return best[1], best[0]


def expanded_homodyne_V(chi, lp, lm):
    """Checks homodyne_closed_form_V: the expanded form, exact on Fractions, not factored."""
    den = (1 + 2 * chi - 4 * lm) * (-1 + 2 * chi + 4 * lp)
    gqq = (-1 + 4 * (1 + chi) * lp - 2 * (1 + 2 * chi) * lp**2
           + lm**2 * (-2 + 4 * chi + 8 * lp)
           - 4 * lm * (-1 + chi + 4 * lp - 2 * lp**2)) / (2 * den)
    sqq = (lm**2 * (1 - 4 * lp) - lp**2 + 4 * lm * lp**2
           + chi * (-1 + 2 * lm - 2 * lm**2 + 2 * lp - 2 * lp**2)) / den
    gpp = 1 / (2 * (1 - 4 * chi**2))
    spp = -chi / (1 - 4 * chi**2)
    return [[gqq, 0, sqq, 0], [0, gpp, 0, spp], [sqq, 0, gqq, 0], [0, spp, 0, gpp]]


def expanded_heterodyne_V(chi, mu):
    """Checks heterodyne_closed_form_V: the expanded form, exact on Fractions, not factored."""
    den = -1 + 4 * (chi + mu)**2
    g = (-1 + 4 * chi * mu + 2 * mu**2) / (2 * den)
    s = -(chi + 2 * chi * mu**2 + 2 * mu**3) / den
    return [[g, 0, s, 0], [0, g, 0, -s], [s, 0, g, 0], [0, -s, 0, g]]


def expanded_nonlocal_W(chi):
    """Checks the nonlocal row's variances: its alpha and beta as ratios, exact on Fractions.

    alpha = sqrt(1 + 4 beta^2)/2 is rational here: 1 + 4 beta^2 is the square of
    (1 - 2chi + 2chi^2)/(1 - 2chi) at beta = chi(1 - chi)/(1 - 2chi).
    """
    alpha = (1 - 2 * chi + 2 * chi**2) / (2 * (1 - 2 * chi))
    beta = chi * (1 - chi) / (1 - 2 * chi)
    return [[alpha, 0, beta, 0], [0, alpha, 0, -beta], [beta, 0, alpha, 0], [0, -beta, 0, alpha]]


def exact_epr_variances(scheme, chi, x):
    """Checks each scheme row's state: (q+, q-, p+, p-) of its expanded form at Fraction chi, x."""
    lams = {SchemeId.LOCAL_I: (x, x), SchemeId.LOCAL_II: (x, 0), SchemeId.LOCAL_III: (0, x),
            SchemeId.LOCAL_IV: (x, -x), SchemeId.NONE: (0, 0)}
    if scheme is SchemeId.NONLOCAL:
        V = expanded_nonlocal_W(chi)
    elif scheme is SchemeId.HETERODYNE:
        V = expanded_heterodyne_V(chi, x)
    else:
        V = expanded_homodyne_V(chi, *lams[scheme])
    return V[0][0] + V[0][2], V[0][0] - V[0][2], V[1][1] + V[1][3], V[1][1] - V[1][3]


def epr_figures_exact(q_plus, q_minus, p_plus, p_minus):
    """Checks _EprState.figures: L, S and m of exact Fraction variances, in 40-digit decimal.

    The variances and their products are exact; only the square roots and
    logarithms round, at 40 digits. Returns floats (L, S, m).
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        half, ln2 = decimal.Decimal("0.5"), decimal.Decimal(2).ln()

        def root(f):
            return (decimal.Decimal(f.numerator) / decimal.Decimal(f.denominator)).sqrt()

        def g(nu):
            if nu <= half:
                return decimal.Decimal(0)
            return ((nu + half) * (nu + half).ln() - (nu - half) * (nu - half).ln()) / ln2

        nu_pt = min(root(q_plus * p_minus), root(q_minus * p_plus))
        L = max(decimal.Decimal(0), -(2 * nu_pt).ln() / ln2)
        S = g(root(q_plus * p_plus)) + g(root(q_minus * p_minus))
        return float(L), float(S), float(q_minus + p_plus)


def relative_error_to_exact(V, exact):
    """max|V - exact| / max|exact|, with the difference taken in exact arithmetic."""
    scale = max(abs(x) for row in exact for x in row)
    return float(max(abs(Fraction(float(V[i, j])) - Fraction(exact[i][j]))
                     for i in range(4) for j in range(4)) / scale)


def printed_homodyne_loop(chi, lp, lm):
    """Checks closed_loop under homodyne_gain: (A', D') as printed, not built from C, Gamma."""
    Ap = np.array([[-0.5 + lm + lp, 0, chi - lm + lp, 0],
                   [0, -0.5, 0, -chi],
                   [chi - lm + lp, 0, -0.5 + lm + lp, 0],
                   [0, -chi, 0, -0.5]])
    a = (1 - lm - lp)**2 + (lm - lp)**2
    b = 2 * (1 - lm - lp) * (lm - lp)
    Dp = 0.5 * np.array([[a, 0, b, 0], [0, 1, 0, 0], [b, 0, a, 0], [0, 0, 0, 1]])
    return Ap, Dp


def printed_heterodyne_loop(chi, mu):
    """Checks closed_loop under heterodyne_gain: (A', D') as printed, not built from C, Gamma."""
    c = chi + mu
    Ap = np.array([[-0.5, 0, c, 0], [0, -0.5, 0, -c],
                   [c, 0, -0.5, 0], [0, -c, 0, -0.5]])
    d = 1 + 2 * mu * mu
    Dp = 0.5 * np.array([[d, 0, -2 * mu, 0], [0, d, 0, 2 * mu],
                         [-2 * mu, 0, d, 0], [0, 2 * mu, 0, d]])
    return Ap, Dp


def open_loop_matrix(chi):
    """Checks the Gaussian functionals: the printed open-loop V, whose spectra are closed forms."""
    g = 0.5 / (1 - 4 * chi**2)
    s = chi / (1 - 4 * chi**2)
    return np.array([[g, 0, s, 0], [0, g, 0, -s], [s, 0, g, 0], [0, -s, 0, g]])


def brute_force_spectrum(V):
    """Checks symplectic_eigenvalues: all 2N moduli of eig(i Sigma V), unpaired."""
    S = symplectic_form(V.shape[0] // 2)
    return np.sort(np.abs(np.linalg.eigvals(1j * S @ V)))


def determinant_symplectic_eigenvalues(V):
    """Checks symplectic_eigenvalues: (larger, smaller) from block determinants, no eigen-solve."""
    # closed form valid for the symmetric family det(gamma1) == det(gamma2)
    m = V.data
    u = float(np.linalg.det(m[:2, :2]) + np.linalg.det(m[:2, 2:]))
    root = np.sqrt(max(u * u - float(np.linalg.det(m)), 0.0))
    return float(np.sqrt(u + root)), float(np.sqrt(max(u - root, 0.0)))


def expm_by_eig(M):
    """Checks the simulator's Taylor _expm: e^M by eigendecomposition (M = A_cl dt)."""
    lam, E = np.linalg.eig(M)
    return ((E * np.exp(lam)) @ np.linalg.inv(E)).real


def smith_stationary(Phi, Q):
    """Checks lyapunov_steady(A_cl, K K^T): Z = Phi Z Phi^T + Q by doubling, no Kronecker solve."""
    Z, M = Q, Phi
    for _ in range(64):   # Z <- Z + M Z M^T, M <- M^2 sums 2^64 terms of the series
        Z, M = Z + M @ Z @ M.T, M @ M
    return Z


def increment_by_eig(A_cl, K, dt):
    """Checks the held step's Z - Phi Z Phi^T: its integral over dt, in the eigenbasis of A_cl."""
    # int_0^dt e^{A_cl s} K K^T e^{A_cl^T s} ds, without lyapunov_steady or _expm
    lam, E = np.linalg.eig(A_cl)
    Einv = np.linalg.inv(E)
    s = lam[:, None] + lam[None, :]
    return (E @ (Einv @ K @ K.T @ Einv.T * np.expm1(s * dt) / s) @ E.T).real


def exact_reference(plant, u, gain, cfg, v0):
    """Checks simulate_conditional's means: stepped on its own draws with increments from RK4.

    The covariance is held at ``v0``. The increment covariance Q is the Z
    that RK4 of dZ/dt = A_cl Z + Z A_cl^T + K K^T reaches from 0 over dt,
    not the Lyapunov difference the simulator uses. The means start at the
    end of the burn-in in the chain's stationary law (Smith doubling), then
    X <- e^{A_cl dt} X + xi R. The start and each step draw r normals
    through the simulator's ``_psd_factor`` of the reference's own Z and Q:
    a deterministic map, as the stream convention is. All trajectories fit
    in one row chunk, so every draw comes from chunk 0's stream, time-major.
    Returns the time-averaged outer products of the means and the covariance.
    """
    assert cfg.n_traj <= _ROWS
    n_steps, dt = cfg.n_steps, cfg.dt
    k_burn = int(_BURN_IN * n_steps)
    meas = measurement_model(plant, u)
    A_cl = drift_matrix(plant) + gain.BF @ meas.C
    Phi_cl = expm_by_eig(dt * A_cl)
    V = v0.data
    n = len(V)
    K = V @ meas.C.T + meas.Gamma.T + gain.BF
    KKt = K @ K.T
    Q = np.zeros((n, n))
    for _ in range(RK4_SUBSTEPS):
        Q = rk4_step(lambda Z: A_cl @ Z + Z @ A_cl.T + KKt, Q, dt / RK4_SUBSTEPS)
    rng = _chunk_rng(cfg.seed, 0)
    F, R = _psd_factor(smith_stationary(Phi_cl, Q)), _psd_factor(Q)
    X = rng.normal(size=(cfg.n_traj, len(F))) @ F
    SXX = np.zeros((cfg.n_traj, n, n))
    for _ in range(k_burn, n_steps):
        X = X @ Phi_cl.T + rng.normal(size=(cfg.n_traj, len(R))) @ R
        SXX += np.einsum("ci,cj->cij", X, X)
    return SXX / (n_steps - k_burn), V


def exact_mean_outer_se(A_cl, K, dt, horizon, n_traj):
    """Checks mean_outer_sem: the exact SE of mean_outer for a held start, by Isserlis' theorem.

    The T kept means are the stationary chain X <- Phi X + R xi, whose lag
    covariances are G_k = Phi^k Z. By Isserlis' theorem one trajectory's
    time average M has Var(M_ij) = T^-2 sum_{|k|<T} (T - |k|)
    (G_k,ii G_k,jj + G_k,ij G_k,ji); the lags k and -k contribute alike.
    """
    n_steps = int(round(horizon / dt))
    T = n_steps - int(_BURN_IN * n_steps)
    Phi = expm_by_eig(dt * A_cl)
    G = smith_stationary(Phi, increment_by_eig(A_cl, K, dt))
    var = np.zeros_like(G)
    for k in range(T):
        var += (2 - (k == 0)) * (T - k) * (np.outer(np.diag(G), np.diag(G)) + G * G.T)
        G = Phi @ G
    return np.sqrt(var / (T**2 * n_traj))
