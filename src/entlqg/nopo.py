"""The two-mode parametric oscillator and its measurement/feedback schemes.

Two damped bosonic modes are coupled by a two-mode-squeezing interaction of
dimensionless strength chi (cavity linewidth units); chi < 1/2 is the
instability threshold. This module builds the plant and alone knows its
schemes: their measurements, gains and stability windows, with one table
(``_SCALAR_SCHEMES``) for the scalar ones. It gives closed forms for the
stationary covariances of every scheme and for the conditional covariance
each measurement leaves (``conditional_V``), optimizes each scheme's scalar
parameter, and generates entanglement/entropy curves.

Every stationary state here has the symmetric two-block pattern
V = [[gq,0,sq,0],[0,gp,0,sp],[sq,0,gq,0],[0,sp,0,gp]] and is written by its
EPR-basis variances q+- = gq +- sq and p+- = gp +- sp, each a ratio of
factors that stay positive inside the scheme's stability window, so no
closed form cancels near threshold. The optimal scheme, joint homodyne
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
from .gaussian import CovarianceMatrix, log_negativity, von_neumann_entropy
# recover_unravelling has no caller here; the benchmark's tracer binds
# entlqg.nopo.recover_unravelling by name.
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


class _Family(NamedTuple):
    """A measurement: parameter name, unravelling, stability bounds(chi), V(p, *g), gain(*g),
    and W(chi), the stationary conditional covariance the measurement alone sets."""

    param: str
    unravelling: Unravelling
    bounds: Callable[[float], tuple[float, float]]
    V: Callable[..., CovarianceMatrix]
    gain: Callable[..., FeedbackGain]
    W: Callable[[float], CovarianceMatrix]


# V and gain look their functions up in the module globals at each call.
_HOMODYNE = _Family("lambda", HOMODYNE_Q, lambda chi: (0.25 - chi / 2, 0.25 + chi / 2),
                    lambda p, *g: homodyne_closed_form_V(p, *g), lambda *g: homodyne_gain(*g),
                    _homodyne_W)
_HETERODYNE = _Family("mu", HETERODYNE, lambda chi: (-0.5 - chi, 0.5 - chi),
                      lambda p, *g: heterodyne_closed_form_V(p, *g),
                      lambda *g: heterodyne_gain(*g), _heterodyne_W)


def homodyne_stable(chi: float, lam_plus: float, lam_minus: float) -> bool:
    """Closed-loop stability window of the homodyne scheme: lam_pm < 1/4 -/+ chi/2."""
    plus_max, minus_max = _HOMODYNE.bounds(chi)
    return lam_plus < plus_max and lam_minus < minus_max


def heterodyne_stable(chi: float, mu: float) -> bool:
    """Closed-loop stability window of the heterodyne scheme: -1/2 - chi < mu < 1/2 - chi."""
    lo, hi = _HETERODYNE.bounds(chi)
    return lo < mu < hi


def _epr_state(q_plus: float, q_minus: float, p_plus: float,
               p_minus: float) -> CovarianceMatrix:
    """Symmetric two-block V with EPR-basis variances q+- = gq +- sq, p+- = gp +- sp."""
    gq, sq = (q_plus + q_minus) / 2, (q_plus - q_minus) / 2
    gp, sp = (p_plus + p_minus) / 2, (p_plus - p_minus) / 2
    return CovarianceMatrix(np.array([[gq, 0, sq, 0], [0, gp, 0, sp],
                                      [sq, 0, gq, 0], [0, sp, 0, gp]]))


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


def optimal_nonlocal(p: NopoParams) -> SchemeResult:
    """Globally optimal scheme: joint homodyne of q1-q2 and p1+p2 with the optimal gain.

    The stationary conditional covariance has the symmetric two-block
    pattern with cross correlation beta = chi(1-chi)/(1-2chi) and
    alpha = sqrt(1+4 beta^2)/2. It is pure (S = 0), its cost is
    m = 2(alpha-beta) = 1-2chi and its entanglement is L = -log2(1-2chi),
    all given here in closed form. ``JOINT_HOMODYNE`` generates it, and
    ``scheme_realization`` pairs that measurement with ``optimal_gain``.
    """
    alpha, beta = optimal_nonlocal_alpha_beta(p.chi)
    m = 1.0 - 2.0 * p.chi
    return SchemeResult(
        scheme=SchemeId.NONLOCAL, chi=p.chi,
        params={"alpha": alpha, "beta": beta},
        # abs: at chi = 0, -log2(1) is -0.0, which would print as -0.
        V=symmetric_family_W(alpha, beta), L=abs(float(np.log2(m))), S=0.0, m=m)


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
    """Closed-form optimal heterodyne feedback strength."""
    return 0.5 * (-1.0 - 2.0 * chi + np.sqrt(1.0 + 4.0 * chi**2))


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


#: Each scalar scheme: its family, the family's gain arguments g(x) for its
#: parameter x, and its scan window for x given the family's bounds b.
_SCALAR_SCHEMES = {
    SchemeId.LOCAL_I: (_HOMODYNE, lambda x: (x, x), lambda b: (SCAN_LO, b[0])),
    SchemeId.LOCAL_II: (_HOMODYNE, lambda x: (x, 0.0), lambda b: (SCAN_LO, b[0])),
    SchemeId.LOCAL_III: (_HOMODYNE, lambda x: (0.0, x), lambda b: (SCAN_LO, b[1])),
    SchemeId.LOCAL_IV: (_HOMODYNE, lambda x: (x, -x), lambda b: (-b[1], b[0])),
    SchemeId.HETERODYNE: (_HETERODYNE, lambda x: (x,), lambda b: b),
}


def optimize_scheme(p: NopoParams, scheme: SchemeId) -> SchemeResult:
    """Maximize the entanglement of a scheme over its scalar parameter.

    A 200-point scan over the stability window locates the best interior
    local maximum, which golden-section search refines to 1e-9. If the scan
    maximum sits on the window edge with no interior maximum above it, the
    supremum is not attained; the result carries ``at_boundary=True`` and
    reports the value just inside the window. Whenever zero feedback
    attains the maximum within tolerance the parameter is reported as
    exactly 0 (flat objectives).
    """
    if scheme is SchemeId.NONE:
        V = open_loop_V(p)
        return SchemeResult(scheme=scheme, chi=p.chi, params={}, V=V,
                            L=log_negativity(V), S=von_neumann_entropy(V),
                            m=float(np.trace(cost_matrix() @ V.data)))
    if scheme is SchemeId.NONLOCAL:
        return optimal_nonlocal(p)

    family, gains, window = _SCALAR_SCHEMES[scheme]
    lo, hi = window(family.bounds(p.chi))
    lo, hi = lo + EDGE_MARGIN, hi - EDGE_MARGIN
    build = lambda x: family.V(p, *gains(x))
    objective = lambda x: log_negativity(build(x))

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

    if lo < 0.0 < hi:
        L_zero = objective(0.0)
        if L_zero >= L_star - ZERO_SNAP_TOL * (1.0 + abs(L_star)):
            x_star, L_star, at_boundary = 0.0, L_zero, False

    V = build(x_star)
    return SchemeResult(scheme=scheme, chi=p.chi, params={family.param: float(x_star)},
                        V=V, L=L_star, S=von_neumann_entropy(V),
                        m=float(np.trace(cost_matrix() @ V.data)),
                        at_boundary=at_boundary)


def scheme_curves(chi_min: float, chi_max: float, steps: int,
                  schemes: tuple[SchemeId, ...] = CURVE_SCHEMES) -> list[SchemeResult]:
    """Optimize each scheme on a chi grid; rows ordered by (chi, scheme)."""
    if not 0.0 <= chi_min < chi_max <= CHI_MAX:
        raise ValueError(f"require 0 <= chi_min < chi_max <= {CHI_MAX}, got "
                         f"[{chi_min}, {chi_max}]")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    grid = np.linspace(chi_min, chi_max, steps) if steps > 1 else np.array([chi_min])
    order = {s: i for i, s in enumerate(SchemeId)}
    ordered = sorted(schemes, key=order.__getitem__)
    return [optimize_scheme(NopoParams(float(chi)), scheme)
            for chi in grid for scheme in ordered]


def scheme_realization(p: NopoParams, result: SchemeResult):
    """Unravelling and gain realizing a scheme result's stationary state."""
    scheme = result.scheme
    if scheme is SchemeId.NONE:
        return HOMODYNE_Q, homodyne_gain(0.0, 0.0)
    if scheme is SchemeId.NONLOCAL:
        meas = measurement_model(build_plant(p), JOINT_HOMODYNE)
        return JOINT_HOMODYNE, optimal_gain(result.V, meas)
    family, gains, _ = _SCALAR_SCHEMES[scheme]
    return family.unravelling, family.gain(*gains(result.params[family.param]))


def conditional_V(p: NopoParams, scheme: SchemeId) -> CovarianceMatrix:
    """Closed-form stationary conditional covariance W of a scheme's measurement.

    W solves the Riccati equation of the measurement alone, whatever the gain:
    the q-homodyne state for the local schemes and ``none``, the heterodyne
    state, and for ``nonlocal`` the optimum's V, which its gain makes the
    unconditional state too.
    """
    if scheme is SchemeId.NONLOCAL:
        return optimal_nonlocal(p).V
    family = _HOMODYNE if scheme is SchemeId.NONE else _SCALAR_SCHEMES[scheme][0]
    return family.W(p.chi)


def closed_loop_for_scheme(p: NopoParams, result: SchemeResult) -> ClosedLoop:
    """Closed-loop (A', D') matrices realizing a scheme result's stationary state."""
    plant = build_plant(p)
    u, gain = scheme_realization(p, result)
    return closed_loop(drift_matrix(plant), diffusion_matrix(plant), gain,
                       measurement_model(plant, u))
