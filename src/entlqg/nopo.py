"""The two-mode parametric oscillator and its measurement/feedback schemes.

Two damped bosonic modes are coupled by a two-mode-squeezing interaction of
dimensionless strength chi (cavity linewidth units); chi < 1/2 is the
instability threshold. This module builds the plant and alone knows its
seven schemes: one table (``_SCHEMES``) holds, per ``SchemeId``, its parameter
x, measurement, stationary covariance V(p, x) and gain at x, the conditional
covariance W its measurement sets (``conditional_V``), and its optimum rule: a
scan of the stability window for the four local schemes, a closed form for
heterodyne and nonlocal, x = 0 for ``none``. It also tabulates L and S curves.

Every stationary state here has the symmetric two-block pattern
V = [[gq,0,sq,0],[0,gp,0,sp],[sq,0,gq,0],[0,sp,0,gp]] and is written by its
EPR-basis variances q+- = gq +- sq and p+- = gp +- sp, each a ratio of
factors that stay positive inside the scheme's stability window, so no
closed form cancels near threshold. The state keeps them, and L, S and m are
their products (``_EprState.figures``), not spectra of the 4x4 matrix, which
lose up to ~1e-6 relative near threshold. The optimal scheme, joint homodyne
detection of q1-q2 and p1+p2 (``JOINT_HOMODYNE``) with the optimal gain, is
given by its closed form alone; recovering its measurement from the
conditional covariance is a cross-check, not a step of the computation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import PlantModel, drift_matrix, diffusion_matrix
from .errors import StabilityError
from .feedback import ClosedLoop, FeedbackGain, closed_loop, optimal_gain
# von_neumann_entropy and recover_unravelling have no caller here; the
# benchmark's tracer binds entlqg.nopo.<name> by name.
from .gaussian import CovarianceMatrix, _entropy_term, log_negativity, von_neumann_entropy
from .unravelling import Unravelling, measurement_model, recover_unravelling

CHI_MAX = 0.5 - 1e-6

# Scan bracket for feedback parameters whose stability window is a half line;
# every known optimum lies well inside (-0.75, window edge).
SCAN_LO = -0.75
EDGE_MARGIN = 1e-6
SCAN_POINTS = 200
GOLDEN_TOL = 1e-9
# A parameter value of exactly 0 is returned whenever zero feedback attains
# the maximum within this tolerance (flat objectives).
ZERO_SNAP_TOL = 1e-10
# Grid points of scheme_curves: all seven schemes take ~40 s at the cap.
_MAX_CURVE_STEPS = 10**3


@dataclass(frozen=True)
class NopoParams:
    """Coupling strength chi in [0, 1/2), strictly inside the instability threshold."""

    chi: float

    def __post_init__(self):
        if not 0.0 <= self.chi <= CHI_MAX:
            raise ValueError(f"chi must satisfy 0 <= chi <= {CHI_MAX}, got {self.chi}")


class SchemeId(str, enum.Enum):
    """Measurement/feedback schemes considered for the oscillator."""

    NONLOCAL = "nonlocal"      # joint homodyne of q1-q2 and p1+p2, optimal gain
    LOCAL_I = "local-i"        # q homodyne, each current fed back to its own mode
    LOCAL_II = "local-ii"      # q homodyne, symmetric-combination feedback only
    LOCAL_III = "local-iii"    # q homodyne, antisymmetric-combination feedback only
    LOCAL_IV = "local-iv"      # q homodyne, opposite-sign combination feedback
    HETERODYNE = "heterodyne"  # heterodyne on both modes, cross feedback
    NONE = "none"              # no feedback


#: Schemes shown on the entanglement/entropy curves ("all" in the CLI).
CURVE_SCHEMES = (SchemeId.NONLOCAL, SchemeId.LOCAL_III, SchemeId.LOCAL_IV,
                 SchemeId.HETERODYNE, SchemeId.NONE)


@dataclass(frozen=True)
class SchemeResult:
    """Optimized scheme at one chi: parameters, stationary covariance, L, S, cost."""

    scheme: SchemeId
    chi: float
    params: dict[str, float]
    V: CovarianceMatrix
    L: float
    S: float
    m: float
    at_boundary: bool = False

    @property
    def reported_param(self) -> tuple[str, float]:
        """(name, value) of the reported parameter: beta for nonlocal, ("none", 0.0) for none."""
        name = _SCHEMES[self.scheme].param
        return name or "none", self.params.get(name, 0.0)


def build_plant(p: NopoParams) -> PlantModel:
    """Hamiltonian matrix with antidiagonal chi and one damping channel per mode."""
    chi = p.chi
    G = np.zeros((4, 4))
    G[0, 3] = G[3, 0] = G[1, 2] = G[2, 1] = chi
    Ct = (1.0 / np.sqrt(2.0)) * np.array([[1, 1j, 0, 0], [0, 0, 1, 1j]], dtype=complex)
    return PlantModel(G=G, Ctilde=Ct)


#: q-quadrature homodyne on both channels, heterodyne on both channels, and
#: the optimal measurement: joint homodyne of q1-q2 and p1+p2 (upsilon = -sigma_x).
HOMODYNE_Q = Unravelling(np.eye(2, dtype=complex))
HETERODYNE = Unravelling(np.zeros((2, 2), dtype=complex))
JOINT_HOMODYNE = Unravelling(-np.array([[0, 1], [1, 0]], dtype=complex))


def homodyne_gain(lam_plus: float, lam_minus: float) -> FeedbackGain:
    """Gain for the q-quadrature homodyne currents of ``HOMODYNE_Q``.

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
    """Gain for the heterodyne currents: drives each mode with the other mode's current."""
    BF = np.zeros((4, 4))
    BF[0, 1] = BF[2, 0] = mu
    BF[1, 3] = BF[3, 2] = -mu
    return FeedbackGain(BF=BF)


def _homodyne_W(chi: float) -> CovarianceMatrix:
    """Conditional covariance under q-homodyne: q+- = (1 +- 2chi)/2, p+- = 1/(2(1 +- 2chi)).

    q+ p+ = q- p- = 1/4: the state is pure.
    """
    return _epr_state((1 + 2 * chi) / 2, (1 - 2 * chi) / 2,
                      0.5 / (1 + 2 * chi), 0.5 / (1 - 2 * chi))


def _heterodyne_W(chi: float) -> CovarianceMatrix:
    """Conditional covariance under heterodyne: q+- = g +- chi, p+- = g -+ chi.

    g = sqrt(1 + 4 chi^2)/2, so q+ p+ = q- p- = 1/4: the state is pure.
    """
    g = np.hypot(0.5, chi)
    return _epr_state(g + chi, g - chi, g - chi, g + chi)


def _homodyne_window(chi: float) -> tuple[float, float]:
    """Upper bounds of the homodyne stability window: lam_pm < 1/4 -/+ chi/2."""
    return 0.25 - chi / 2, 0.25 + chi / 2


def homodyne_stable(chi: float, lam_plus: float, lam_minus: float) -> bool:
    """Closed-loop stability window of the homodyne scheme (``_homodyne_window``)."""
    plus_max, minus_max = _homodyne_window(chi)
    return lam_plus < plus_max and lam_minus < minus_max


def heterodyne_stable(chi: float, mu: float) -> bool:
    """Closed-loop stability window of the heterodyne scheme: -1/2 - chi < mu < 1/2 - chi."""
    return -0.5 - chi < mu < 0.5 - chi


@dataclass(frozen=True)
class _EprState(CovarianceMatrix):
    """A symmetric two-block V that keeps its EPR-basis variances epr = (q+, q-, p+, p-).

    Its symplectic eigenvalues are sqrt(q+ p+) and sqrt(q- p-), the partial
    transpose swaps p+ and p-, and m = tr(P V) = q- + p+ for P = ``cost_matrix()``.
    """

    epr: tuple[float, float, float, float]

    def figures(self) -> tuple[float, float, float]:
        """L, S and m, as products of the four variances."""
        qp, qm, pp, pm = self.epr
        nu_pt = min(np.sqrt(qp * pm), np.sqrt(qm * pp))
        return (max(0.0, -float(np.log2(2.0 * nu_pt))),
                _entropy_term(np.sqrt(qp * pp)) + _entropy_term(np.sqrt(qm * pm)),
                float(qm + pp))


def _epr_state(q_plus: float, q_minus: float, p_plus: float,
               p_minus: float) -> _EprState:
    """Symmetric two-block V with EPR-basis variances q+- = gq +- sq, p+- = gp +- sp."""
    gq, sq = (q_plus + q_minus) / 2, (q_plus - q_minus) / 2
    gp, sp = (p_plus + p_minus) / 2, (p_plus - p_minus) / 2
    return _EprState(np.array([[gq, 0, sq, 0], [0, gp, 0, sp], [sq, 0, gq, 0], [0, sp, 0, gp]]),
                     (q_plus, q_minus, p_plus, p_minus))


def open_loop_V(p: NopoParams) -> CovarianceMatrix:
    """Closed-form stationary covariance without feedback."""
    anti, squeezed = 0.5 / (1 - 2 * p.chi), 0.5 / (1 + 2 * p.chi)
    return _epr_state(anti, squeezed, squeezed, anti)


def cost_matrix() -> np.ndarray:
    """Quadratic form of <(q1-q2)^2>/2 + <(p1+p2)^2>/2; vacuum cost is 1."""
    return 0.5 * np.array([[1.0, 0, -1, 0], [0, 1, 0, 1], [-1, 0, 1, 0], [0, 1, 0, 1]])


def optimal_nonlocal_alpha_beta(chi: float) -> tuple[float, float]:
    """Closed-form minimizer of the cost within the symmetric covariance family."""
    beta = chi * (1.0 - chi) / (1.0 - 2.0 * chi)
    alpha = 0.5 * np.sqrt(1.0 + 4.0 * beta**2)
    return alpha, beta


def symmetric_family_W(alpha: float, beta: float) -> CovarianceMatrix:
    """Member of the symmetric covariance family: alpha on the diagonal, +/-beta cross."""
    return CovarianceMatrix(np.array([[alpha, 0, beta, 0], [0, alpha, 0, -beta],
                                      [beta, 0, alpha, 0], [0, -beta, 0, alpha]]))


def _nonlocal_W(chi: float) -> _EprState:
    """The optimum's W, ``symmetric_family_W``: q+ = p- = 1/(2(1-2chi)), q- = p+ = (1-2chi)/2."""
    wide, narrow = 0.5 / (1 - 2 * chi), (1 - 2 * chi) / 2
    return _EprState(symmetric_family_W(*optimal_nonlocal_alpha_beta(chi)).data,
                     (wide, narrow, narrow, wide))


def homodyne_closed_form_V(p: NopoParams, lam_plus: float,
                           lam_minus: float) -> CovarianceMatrix:
    """Closed-form stationary covariance under q-homodyne feedback.

    The p-quadrature block is feedback independent. Raises StabilityError
    outside the stability window.
    """
    chi, lp, lm = p.chi, lam_plus, lam_minus
    if not homodyne_stable(chi, lp, lm):
        raise StabilityError(f"(lam_plus={lp}, lam_minus={lm}) unstable at chi={chi}")
    return _epr_state((1 - 2 * lp)**2 / (2 * (1 - 2 * chi - 4 * lp)),
                      (1 - 2 * lm)**2 / (2 * (1 + 2 * chi - 4 * lm)),
                      0.5 / (1 + 2 * chi), 0.5 / (1 - 2 * chi))


def heterodyne_closed_form_V(p: NopoParams, mu: float) -> CovarianceMatrix:
    """Closed-form stationary covariance under heterodyne cross feedback."""
    chi = p.chi
    if not heterodyne_stable(chi, mu):
        raise StabilityError(f"mu={mu} unstable at chi={chi}")
    anti = (1 - 2 * mu + 2 * mu**2) / (2 * (1 - 2 * chi - 2 * mu))
    squeezed = (1 + 2 * mu + 2 * mu**2) / (2 * (1 + 2 * chi + 2 * mu))
    return _epr_state(anti, squeezed, squeezed, anti)


def heterodyne_optimal_mu(chi: float) -> float:
    """Optimal heterodyne feedback strength: the larger root of mu^2 + (1 + 2chi) mu + chi.

    Written as -2chi / (1 + 2chi + sqrt(1 + 4chi^2)), which does not cancel at
    small chi; ``0.0 -`` makes chi = 0 give 0, not -0.
    """
    return 0.0 - 2.0 * chi / (1.0 + 2.0 * chi + np.sqrt(1.0 + 4.0 * chi**2))


def _golden_max(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximization with deterministic left bias on ties."""
    ratio = 2.0 / (1.0 + np.sqrt(5.0))
    x1 = hi - ratio * (hi - lo)
    x2 = lo + ratio * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > GOLDEN_TOL:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - ratio * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + ratio * (hi - lo)
            f2 = f(x2)
    x = 0.5 * (lo + hi)
    return x, f(x)


def _scan_max(objective, lo: float, hi: float) -> tuple[float, bool]:
    """Maximizer of objective on the window (lo, hi), and whether it sits on the edge.

    A 200-point scan locates the best interior local maximum, which
    golden-section search refines to 1e-9. A supremum on the window edge is
    not attained, so the point just inside is returned with True. Where zero
    attains the maximum within tolerance, x is exactly 0 (flat objectives).
    """
    lo, hi = lo + EDGE_MARGIN, hi - EDGE_MARGIN
    xs = np.linspace(lo, hi, SCAN_POINTS)
    Ls = np.array([objective(x) for x in xs])
    interior = [k for k in range(1, SCAN_POINTS - 1)
                if Ls[k] >= Ls[k - 1] and Ls[k] >= Ls[k + 1]]
    at_boundary = False
    if interior:
        k = interior[int(np.argmax(Ls[interior]))]
        x_star, L_star = _golden_max(objective, xs[k - 1], xs[k + 1])
        edge_best = max(Ls[0], Ls[-1])
        if edge_best > L_star + 1e-12:
            k = 0 if Ls[0] >= Ls[-1] else SCAN_POINTS - 1
            x_star, L_star, at_boundary = xs[k], Ls[k], True
    else:
        k = int(np.argmax(Ls))
        x_star, L_star, at_boundary = xs[k], Ls[k], True

    if lo < 0.0 < hi and objective(0.0) >= L_star - ZERO_SNAP_TOL * (1.0 + abs(L_star)):
        return 0.0, False
    return x_star, at_boundary


class _Scheme(NamedTuple):
    """A scheme's row: x is its parameter ``param`` (None: no feedback), V(p, x) its
    stationary covariance and gain(p, x) its gain under ``unravelling``, W(chi) the
    conditional covariance its measurement alone sets, optimum(p) x* and whether it
    sits on the stability-window edge, more(chi) the parameters reported before x."""

    param: str | None
    unravelling: Unravelling
    V: Callable[[NopoParams, float], _EprState]
    gain: Callable[[NopoParams, float], FeedbackGain]
    W: Callable[[float], _EprState]
    optimum: Callable[[NopoParams], tuple[float, bool]]
    more: Callable[[float], dict[str, float]] = lambda chi: {}


def _local(g, window) -> _Scheme:
    """q-homodyne with gain arguments g(x), scanned over window(*_homodyne_window(chi))."""
    V = lambda p, x: homodyne_closed_form_V(p, *g(x))
    return _Scheme("lambda", HOMODYNE_Q, V, lambda p, x: homodyne_gain(*g(x)), _homodyne_W,
                   lambda p: _scan_max(lambda x: log_negativity(V(p, x)),
                                       *window(*_homodyne_window(p.chi))))


# Rows call the closed forms, gains and scan through the module globals at
# each call, so a name rebound on this module reaches every scheme.
_SCHEMES = {
    SchemeId.NONLOCAL: _Scheme(
        "beta", JOINT_HOMODYNE, lambda p, x: _nonlocal_W(p.chi),
        lambda p, x: optimal_gain(_nonlocal_W(p.chi),
                                  measurement_model(build_plant(p), JOINT_HOMODYNE)),
        _nonlocal_W, lambda p: (optimal_nonlocal_alpha_beta(p.chi)[1], False),
        lambda chi: {"alpha": optimal_nonlocal_alpha_beta(chi)[0]}),
    SchemeId.LOCAL_I: _local(lambda x: (x, x), lambda plus, minus: (SCAN_LO, plus)),
    SchemeId.LOCAL_II: _local(lambda x: (x, 0.0), lambda plus, minus: (SCAN_LO, plus)),
    SchemeId.LOCAL_III: _local(lambda x: (0.0, x), lambda plus, minus: (SCAN_LO, minus)),
    SchemeId.LOCAL_IV: _local(lambda x: (x, -x), lambda plus, minus: (-minus, plus)),
    SchemeId.HETERODYNE: _Scheme("mu", HETERODYNE, lambda p, x: heterodyne_closed_form_V(p, x),
                                 lambda p, x: heterodyne_gain(x), _heterodyne_W,
                                 lambda p: (heterodyne_optimal_mu(p.chi), False)),
    SchemeId.NONE: _Scheme(None, HOMODYNE_Q, lambda p, x: open_loop_V(p),
                           lambda p, x: homodyne_gain(x, x), _homodyne_W, lambda p: (0.0, False)),
}


def optimize_scheme(p: NopoParams, scheme: SchemeId) -> SchemeResult:
    """Maximize the entanglement of a scheme over its parameter, by its row's optimum rule.

    The four local schemes scan their stability windows (``_scan_max``) and
    carry ``at_boundary=True`` where the supremum is not attained. L, S and m
    are the products of the state's four EPR variances (``_EprState.figures``).
    """
    row = _SCHEMES[scheme]
    x, at_boundary = row.optimum(p)
    V = row.V(p, x)
    params = row.more(p.chi) | ({} if row.param is None else {row.param: float(x)})
    return SchemeResult(scheme, p.chi, params, V, *V.figures(), at_boundary)


def scheme_curves(chi_min: float, chi_max: float, steps: int,
                  schemes: tuple[SchemeId, ...] = CURVE_SCHEMES) -> list[SchemeResult]:
    """Optimize each named scheme once on a chi grid; rows ordered by (chi, scheme)."""
    if not 0.0 <= chi_min < chi_max <= CHI_MAX:
        raise ValueError(f"require 0 <= chi_min < chi_max <= {CHI_MAX}, got "
                         f"[{chi_min}, {chi_max}]")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if steps > _MAX_CURVE_STEPS:
        raise ValueError(f"steps must be at most {_MAX_CURVE_STEPS}, got {steps}")
    grid = np.linspace(chi_min, chi_max, steps) if steps > 1 else np.array([chi_min])
    ordered = sorted(set(schemes), key=list(SchemeId).index)
    return [optimize_scheme(NopoParams(float(chi)), scheme)
            for chi in grid for scheme in ordered]


def scheme_realization(p: NopoParams, result: SchemeResult):
    """Unravelling and gain realizing a scheme result's stationary state."""
    row = _SCHEMES[result.scheme]
    return row.unravelling, row.gain(p, result.reported_param[1])


def conditional_V(p: NopoParams, scheme: SchemeId) -> CovarianceMatrix:
    """Closed-form stationary conditional covariance W of a scheme's measurement.

    W solves the Riccati equation of the measurement alone, whatever the gain:
    the q-homodyne state for the local schemes and ``none``, the heterodyne
    state, and for ``nonlocal`` the optimum's V, which its gain makes the
    unconditional state too.
    """
    return _SCHEMES[scheme].W(p.chi)


def closed_loop_for_scheme(p: NopoParams, result: SchemeResult) -> ClosedLoop:
    """Closed-loop (A', D') matrices realizing a scheme result's stationary state."""
    plant = build_plant(p)
    u, gain = scheme_realization(p, result)
    return closed_loop(drift_matrix(plant), diffusion_matrix(plant), gain,
                       measurement_model(plant, u))
