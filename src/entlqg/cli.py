"""Command-line surface: model inspection, curves, optimization, verification, recovery.

Exit codes: 0 success, 1 failed verification checks, 2 argument/domain
error, 3 I/O failure, 4 simulation divergence, 5 unravelling recovery
failure. Entanglement L and entropy S are reported in bits; rates and times
are in cavity linewidth units.
"""

from __future__ import annotations

import json
import sys

import click
import numpy as np

from . import __version__
from .dynamics import drift_matrix, diffusion_matrix, lyapunov_steady
from .errors import (EntlqgError, InvalidUnravellingError, RecoveryError,
                     TrajectoryDivergenceError)
from .feedback import closed_loop
from .gaussian import epr_variance
from .nopo import (CHI_MAX, CURVE_SCHEMES, NopoParams, SchemeId, SchemeResult,
                   build_plant, closed_loop_for_scheme, conditional_V, cost_matrix,
                   optimize_scheme, scheme_curves, scheme_realization)
from .trajectories import SimConfig, regulation_cost, regulation_cost_sem, simulate_conditional
# riccati_steady has no caller here; the benchmark's tracer binds
# entlqg.cli.riccati_steady by name.
from .unravelling import (RICCATI_REL_TOL, measurement_model, recover_unravelling,
                          riccati_steady, u_matrix)

CSV_COLUMNS = ("chi", "scheme", "param_name", "param_value",
               "L_bits", "S_bits", "m_cost", "stability_flag")
# Deterministic floor for Monte-Carlo comparisons, relative to max(1, max|W|):
# under the optimal gain the measurement noise cancels exactly and standard
# errors collapse to zero.
MC_FLOOR = 1e-9


def _print_info(ctx, param, value):
    # sys.stdout by name, as in every click.echo here: click keeps an unnamed echo's stream alive.
    if value and not ctx.resilient_parsing:
        text = ctx.get_help() if param.name == "help" else f"entlqg, version {__version__}"
        click.echo(text, color=ctx.color, file=sys.stdout)
        ctx.exit()


def fmt12(x: float) -> str:
    """Serialize a number with 12 significant digits."""
    return f"{float(x):.12g}"


def _matrix_lines(name: str, M: np.ndarray) -> list[str]:
    lines = [f"{name}:"]
    for row in np.atleast_2d(M):
        lines.append("  [" + ", ".join(fmt12(v) for v in row) + "]")
    return lines


def _validate_chi(ctx, param, value):
    try:
        NopoParams(value)
    except ValueError as exc:
        raise click.BadParameter(str(exc))
    return value


def _parse_scheme(ctx, param, value):
    try:
        return SchemeId(value)
    except ValueError:
        raise click.BadParameter(
            f"unknown scheme {value!r}; choose from "
            + ", ".join(s.value for s in SchemeId))


def _json_meta(command: str, flags: dict) -> dict:
    return {"version": __version__, "command": command, "flags": flags}


def _record(result: SchemeResult) -> dict:
    name, value = result.reported_param
    return {
        "chi": float(fmt12(result.chi)),
        "scheme": result.scheme.value,
        "param_name": name,
        "param_value": float(fmt12(value)),
        "L_bits": float(fmt12(result.L)),
        "S_bits": float(fmt12(result.S)),
        "m_cost": float(fmt12(result.m)),
        "stability_flag": not result.at_boundary,
    }


@click.group()
@click.help_option("--version", callback=_print_info, help="Show the version and exit.")
def main():
    """Steady-state LQG feedback control of a two-mode parametric oscillator.

    Computes optimal and constrained-local measurement/feedback schemes for
    two damped bosonic modes coupled at strength CHI, and reports the
    resulting entanglement (log-negativity, bits) and purity (entropy, bits).
    """


@main.command()
@click.option("--chi", type=float, required=True, callback=_validate_chi,
              help=f"Coupling strength, 0 <= chi <= {CHI_MAX}.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
def model(chi: float, fmt: str):
    """Print the plant matrices and open-loop diagnostics."""
    p = NopoParams(chi)
    plant = build_plant(p)
    A, D = drift_matrix(plant), diffusion_matrix(plant)
    open_loop = optimize_scheme(p, SchemeId.NONE)
    V, L, S = open_loop.V, open_loop.L, open_loop.S
    epr = epr_variance(V, 0.0)
    if fmt == "json":
        doc = {
            "meta": _json_meta("model", {"chi": chi}),
            "G": plant.G.tolist(),
            "Ctilde_re": plant.Ctilde.real.tolist(),
            "Ctilde_im": plant.Ctilde.imag.tolist(),
            "A": A.tolist(),
            "D": D.tolist(),
            "V_open_loop": V.data.tolist(),
            "L_bits": L,
            "S_bits": S,
            "epr_variance": epr,
        }
        click.echo(json.dumps(doc, indent=2), file=sys.stdout)
        return
    lines = [f"two-mode parametric oscillator, chi = {fmt12(chi)} (linewidth units)"]
    lines += _matrix_lines("G (Hamiltonian matrix)", plant.G)
    lines += _matrix_lines("Re Ctilde", plant.Ctilde.real)
    lines += _matrix_lines("Im Ctilde", plant.Ctilde.imag)
    lines += _matrix_lines("A (drift)", A)
    lines += _matrix_lines("D (diffusion)", D)
    lines += _matrix_lines("V (open-loop stationary covariance)", V.data)
    lines.append(f"log-negativity L = {fmt12(L)} bits")
    lines.append(f"von Neumann entropy S = {fmt12(S)} bits")
    lines.append(f"EPR variance <(x1(t)+x2(pi-t))^2> = {fmt12(epr)} (vacuum level 1, "
                 "independent of t)")
    click.echo("\n".join(lines), file=sys.stdout)


@main.command()
@click.option("--chi-min", type=float, default=0.05, show_default=True)
@click.option("--chi-max", type=float, default=0.45, show_default=True)
@click.option("--steps", type=int, default=9, show_default=True)
@click.option("--schemes", default="all", show_default=True,
              help="Comma-separated scheme names, or 'all' for the five curve schemes.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--out", default=None, help="Output path (stdout when omitted).")
def curves(chi_min: float, chi_max: float, steps: int, schemes: str, fmt: str,
           out: str | None):
    """Entanglement/entropy table over a chi grid (figure data)."""
    if schemes.strip() == "all":
        selected = CURVE_SCHEMES
    else:
        selected = tuple(_parse_scheme(None, None, s.strip())
                         for s in schemes.split(",") if s.strip())
        if not selected:
            raise click.BadParameter("no schemes given")
    try:
        results = scheme_curves(chi_min, chi_max, steps, selected)
    except ValueError as exc:
        raise click.BadParameter(str(exc))
    rows = [_record(r) for r in results]

    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for r in rows:
            lines.append(",".join(
                str(r[c]).lower() if c == "stability_flag"
                else (r[c] if c in ("scheme", "param_name") else fmt12(r[c]))
                for c in CSV_COLUMNS))
        text = "\n".join(lines) + "\n"
    else:
        flags = {"chi_min": chi_min, "chi_max": chi_max, "steps": steps,
                 "schemes": [s.value for s in selected]}
        text = json.dumps({"meta": _json_meta("curves", flags), "rows": rows},
                          indent=2) + "\n"

    if out is None:
        click.echo(text, nl=False, file=sys.stdout)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        click.echo(f"error: cannot write {out}: {exc}", file=sys.stderr)
        sys.exit(3)
    click.echo(f"wrote {len(rows)} rows to {out}", file=sys.stdout)


@main.command()
@click.option("--chi", type=float, required=True, callback=_validate_chi)
@click.option("--scheme", callback=_parse_scheme, required=True,
              help="One of: " + ", ".join(s.value for s in SchemeId))
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
def optimize(chi: float, scheme: SchemeId, fmt: str):
    """Optimal feedback parameter and resulting L, S, cost for one scheme."""
    p = NopoParams(chi)
    result = optimize_scheme(p, scheme)
    loop = closed_loop_for_scheme(p, result)
    margin = -float(np.linalg.eigvals(loop.A_prime).real.max())
    rec = _record(result)
    if fmt == "json":
        doc = {"meta": _json_meta("optimize", {"chi": chi, "scheme": scheme.value}),
               "result": rec | {"params": result.params, "stability_margin": margin}}
        click.echo(json.dumps(doc, indent=2), file=sys.stdout)
        return
    click.echo(f"scheme = {scheme.value}   chi = {fmt12(chi)}", file=sys.stdout)
    for name, value in (result.params or {"(no parameter)": 0.0}).items():
        click.echo(f"  {name} = {fmt12(value)}", file=sys.stdout)
    click.echo(f"  L = {fmt12(result.L)} bits", file=sys.stdout)
    click.echo(f"  S = {fmt12(result.S)} bits", file=sys.stdout)
    click.echo(f"  m = {fmt12(result.m)} (quadratic cost, vacuum level 1)", file=sys.stdout)
    click.echo(f"  closed-loop stability margin = {fmt12(margin)}", file=sys.stdout)
    if result.at_boundary:
        click.echo("  note: supremum at the stability-window edge; value reported "
                   "just inside the window", file=sys.stdout)


def _check(label: str, ok: bool, detail: str, lines: list[str]) -> bool:
    lines.append(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    return ok


@main.command()
@click.option("--chi", type=float, required=True, callback=_validate_chi)
@click.option("--scheme", callback=_parse_scheme, default="nonlocal", show_default=True)
@click.option("--ntraj", type=int, default=1000, show_default=True)
@click.option("--dt", type=float, default=0.5, show_default=True)
@click.option("--horizon", type=float, default=20.0, show_default=True)
@click.option("--seed", type=int, default=7, show_default=True)
def verify(chi: float, scheme: SchemeId, ntraj: int, dt: float, horizon: float,
           seed: int):
    """Monte-Carlo check of a scheme against its closed-form conditional state.

    The trajectories start on the closed-form conditional covariance W. The
    first check prints ``stats.certificate``, the simulator's one certificate
    of the covariance it held. The trajectory statistics are then compared
    with W and with the Lyapunov steady state of the closed loop.
    """
    if ntraj < 2:
        raise click.BadParameter("a standard error needs at least two trajectories",
                                 param_hint="'--ntraj'")
    try:
        cfg = SimConfig(dt=dt, t_final=horizon, n_traj=ntraj, seed=seed)
    except ValueError as exc:
        raise click.BadParameter(str(exc))

    p = NopoParams(chi)
    result = optimize_scheme(p, scheme)
    u, gain = scheme_realization(p, result)
    plant = build_plant(p)
    A, D = drift_matrix(plant), diffusion_matrix(plant)
    meas = measurement_model(plant, u)
    W = conditional_V(p, scheme)
    loop = closed_loop(A, D, gain, meas)
    V_pred = lyapunov_steady(loop.A_prime, loop.D_prime)

    # The nonlocal gain is built from result.V, which is W, so started there
    # its noise coefficient is exactly zero and the simulator draws nothing.
    try:
        stats = simulate_conditional(plant, u, gain, cfg, v0=W)
    except TrajectoryDivergenceError as exc:
        click.echo(f"error: {exc} (trajectory {exc.trajectory})", file=sys.stderr)
        sys.exit(4)

    lines = [f"scheme={scheme.value} chi={fmt12(chi)} ntraj={ntraj} dt={fmt12(dt)} "
             f"horizon={fmt12(horizon)} seed={seed}"]
    ok = True

    cert = stats.certificate
    ok &= _check("stabilizing Riccati solution", cert.stabilizing,
                 f"relative residual {cert.rel_residual:.3e} (tol {RICCATI_REL_TOL:.0e}), "
                 f"filter gap {cert.filter_gap:.3e}", lines)

    scale = max(1.0, np.max(np.abs(W.data)))
    dv = np.max(np.abs(stats.v_c_final.data - W.data))
    tol_dv = 1e-6 * scale
    ok &= _check("conditional covariance fixed point", dv <= tol_dv,
                 f"|Vc(T) - W|_inf = {dv:.3e} (tol {tol_dv:.3g})", lines)

    floor = MC_FLOOR * scale
    tol_dec = 5.0 * stats.mean_outer_sem() + floor
    ratio = np.max(np.abs(stats.v_unconditional - V_pred.data) / tol_dec)
    ok &= _check("covariance decomposition", ratio <= 1,
                 f"worst |diff| / (5 SE + floor) = {ratio:.3e}", lines)

    if scheme is SchemeId.NONLOCAL:
        tol_outer = 4.0 * stats.mean_outer_sem() + floor
        worst = np.max(np.abs(stats.mean_outer) / tol_outer)
        ok &= _check("mean outer product regulated to zero", worst <= 1,
                     f"worst |mean outer| / (4 SE + floor) = {worst:.3e}", lines)

        m_opt = result.m
        cost = regulation_cost(stats, cost_matrix())
        tol_cost = 3.0 * regulation_cost_sem(stats, cost_matrix()) + floor
        ok &= _check("regulation cost", abs(cost - m_opt) <= tol_cost,
                     f"|{fmt12(cost)} - {fmt12(m_opt)}| = {abs(cost - m_opt):.3e} "
                     f"(tol {tol_cost:.3e})", lines)

    lines.append("all checks passed" if ok else "some checks FAILED")
    click.echo("\n".join(lines), file=sys.stdout)
    if not ok:
        sys.exit(1)


_ROW_PATTERNS = {
    "q1": np.array([1.0, 0, 0, 0]), "p1": np.array([0, 1.0, 0, 0]),
    "q2": np.array([0, 0, 1.0, 0]), "p2": np.array([0, 0, 0, 1.0]),
    "q1-q2": np.array([1.0, 0, -1, 0]) / np.sqrt(2),
    "q1+q2": np.array([1.0, 0, 1, 0]) / np.sqrt(2),
    "p1-p2": np.array([0, 1.0, 0, -1]) / np.sqrt(2),
    "p1+p2": np.array([0, 1.0, 0, 1]) / np.sqrt(2),
}


def _label_row(row: np.ndarray) -> str:
    norm = float(np.linalg.norm(row))
    if norm < 1e-10:
        return "(no signal)"
    unit = row / norm
    for name, pat in _ROW_PATTERNS.items():
        if min(np.max(np.abs(unit - pat)), np.max(np.abs(unit + pat))) <= 1e-8:
            return name
    return "(mixed quadratures)"


@main.command()
@click.option("--chi", type=float, required=True, callback=_validate_chi)
def recover(chi: float):
    """Recover the optimal unravelling from the optimal conditional covariance.

    Near chi = 0, W - vacuum ~ chi fixes U only to ~1e-16 / chi, so below
    chi ~ 1e-12 the rows print as "(mixed quadratures)", and at chi = 0
    U is not determined at all: every unravelling leaves the vacuum. From
    chi ~ 1e-16 down to the smallest normal floats (~2e-308) the fitted U
    mostly comes out indefinite and recover exits 5 ("unravelling matrix
    indefinite"); some such chi, as 1e-308, print the chi = 0 answer. At
    subnormal chi R's pseudo-inverse overflows: exit 5.
    """
    p = NopoParams(chi)
    plant = build_plant(p)
    best = optimize_scheme(p, SchemeId.NONLOCAL)
    try:
        u, residual = recover_unravelling(best.V, plant)
    except (RecoveryError, InvalidUnravellingError) as exc:
        click.echo(f"error: recovery failed: {exc}", file=sys.stderr)
        sys.exit(5)
    meas = measurement_model(plant, u)
    lines = [f"optimal conditional covariance at chi = {fmt12(chi)}: "
             f"alpha = {fmt12(best.params['alpha'])}, "
             f"beta = {fmt12(best.params['beta'])}"]
    lines += _matrix_lines("recovered unravelling matrix U", u_matrix(u))
    lines.append(f"recovery residual = {residual:.3e}")
    lines += _matrix_lines("measurement matrix C", meas.C)
    lines.append("measured quadratures (rows of C):")
    for k, row in enumerate(meas.C):
        lines.append(f"  row {k + 1}: {_label_row(row)}")
    click.echo("\n".join(lines), file=sys.stdout)


for command in (main, *main.commands.values()):   # click caches its --help option (8.1.8+)
    command.get_help_option(click.Context(command)).callback = _print_info


def run():  # console-script entry point
    try:
        main(standalone_mode=True)
    except EntlqgError as exc:   # top-level safety net
        click.echo(f"error: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    run()
