"""Every verdict that consumes the Dirichlet solve must fail a wrong solve,
the Muckenhoupt verdict and its closed-form anchor must fail a wrong
A_2 product, and the inclusion verdict must fail a wrong W11 norm from
alpha = 1/2 up (below it, the pinned cells it does not see).

Each wrong solver replaces solve_dirichlet where the studies and the CLI
look it up; the verify, convergence and energy verdicts must then all
fail, and with the real solver all three must pass.  Some wrong solvers
are wrong in a way only one verdict can see: the convergence verdict
must fail an error that appears under refinement, and the energy verdict
must hold the u it got back to the solve's residual contract.  A
checkerboard added to the solve is a known verify pass, pinned below.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import degenash.analysis as analysis_mod
import degenash.cli as cli_mod
import degenash.norms as norms_mod
from conftest import half_disk_closed_form, half_disk_constant
from degenash.analysis import (
    Verdict,
    convergence_study,
    energy_estimate_study,
    muckenhoupt_study,
    strict_inclusion_demo,
)
from degenash.cli import parse_config, run
from degenash.fields import manufactured_pair
from degenash.grid import GridFunction, build_grid, weighted_inner
from degenash.operators import RESIDUAL_TOL, DirichletSolver, assemble, dy, solve_dirichlet

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def zero_solver(op, f, tol=RESIDUAL_TOL):
    _, report = solve_dirichlet(op, f, tol)
    return GridFunction.zeros(op.grid), report


def doubled_solver(op, f, tol=RESIDUAL_TOL):
    u, report = solve_dirichlet(op, f, tol)
    return 2.0 * u, report


def solve_at(op, f, tol, alpha):
    # solves on the grid of another alpha and relabels the result as this grid's
    grid = build_grid(op.grid.nx, op.grid.ny, alpha)
    u, report = solve_dirichlet(assemble(grid), GridFunction(grid, f.values), tol)
    return GridFunction(op.grid, u.values), report


def alpha_one_solver(op, f, tol=RESIDUAL_TOL):
    return solve_at(op, f, tol, 1.0)


def scaled_alpha_solver(op, f, tol=RESIDUAL_TOL):
    # at 1.2 alpha verify's residual order on [32, 64] is 0.35, and the
    # convergence orders on [8, 16, 32] are 0.69 and 0.51
    return solve_at(op, f, tol, 1.2 * op.grid.alpha)


def adjoint_solver(op, f, tol=RESIDUAL_TOL):
    _, report = solve_dirichlet(op, f, tol)
    return GridFunction(op.grid, op.grid.grid_order(DirichletSolver(op).solve_adjoint(op.grid.y_rows(f.values)))), report


def checkerboard_solver(op, f, tol=RESIDUAL_TOL):
    # u plus a checkerboard of 0.1 max|u|
    u, report = solve_dirichlet(op, f, tol)
    i, j = np.indices((op.grid.nx, op.grid.ny))
    checkerboard = 0.1 * np.max(np.abs(u.values)) * (-1.0) ** (i + j).ravel()
    return GridFunction(op.grid, u.values + checkerboard), report


WRONG_SOLVERS = [zero_solver, doubled_solver, alpha_one_solver, adjoint_solver, scaled_alpha_solver]
# Verify's verdict on the wrong solves it is known not to see: d_x, d_y and
# the cell averages of its pairings all annihilate a checkerboard, so its
# residual order stays that of the true solve (1.03 on [32, 64]).
VERIFY_UNDER_UNSEEN_SOLVERS = {checkerboard_solver: Verdict.PASS}


def verdicts(tmp_path) -> dict[str, Verdict]:
    """The verify (shipped 64x64 config), convergence and energy verdicts."""
    cfg = parse_config((CONFIG_DIR / "verify_weak_form.yaml").read_text())
    cfg.output_dir = str(tmp_path)
    return {
        "verify": Verdict(run(cfg).verdict),
        "convergence": convergence_study([8, 16, 32]).verdict,
        "energy": energy_estimate_study([16, 32, 64], alpha=0.5).verdict,
    }


def test_real_solver_passes_every_verdict(tmp_path):
    assert verdicts(tmp_path) == dict.fromkeys(["verify", "convergence", "energy"], Verdict.PASS)


@pytest.mark.parametrize("solver", WRONG_SOLVERS, ids=lambda s: s.__name__)
def test_wrong_solver_fails_every_verdict(tmp_path, monkeypatch, solver):
    monkeypatch.setattr(analysis_mod, "solve_dirichlet", solver)
    monkeypatch.setattr(cli_mod, "solve_dirichlet", solver)
    assert verdicts(tmp_path) == dict.fromkeys(["verify", "convergence", "energy"], Verdict.FAIL)


@pytest.mark.parametrize("solver", VERIFY_UNDER_UNSEEN_SOLVERS, ids=lambda s: s.__name__)
def test_verify_under_a_solve_it_does_not_see(tmp_path, monkeypatch, solver):
    monkeypatch.setattr(cli_mod, "solve_dirichlet", solver)
    cfg = parse_config((CONFIG_DIR / "verify_weak_form.yaml").read_text())
    cfg.output_dir = str(tmp_path)
    assert Verdict(run(cfg).verdict) == VERIFY_UNDER_UNSEEN_SOLVERS[solver]


def exact_until_finest_solver(op, f, tol=RESIDUAL_TOL):
    # exact at 8 and 16, the real solve at 32: the L2 errors are [0, 0, 9.2e-3]
    u, report = solve_dirichlet(op, f, tol)
    return (manufactured_pair(op.grid)[0] if op.grid.nx < 32 else u), report


def overflowing_finest_solver(op, f, tol=RESIDUAL_TOL):
    # the L2 error at 32 overflows to inf
    u, report = solve_dirichlet(op, f, tol)
    return (1e300 * u if op.grid.nx == 32 else u), report


@pytest.mark.parametrize(
    "solver, last_order",
    [(exact_until_finest_solver, "-inf"), (overflowing_finest_solver, "nan")],
    ids=lambda s: getattr(s, "__name__", s),
)
def test_error_under_refinement_fails_convergence(monkeypatch, solver, last_order):
    monkeypatch.setattr(analysis_mod, "solve_dirichlet", solver)
    result = convergence_study([8, 16, 32])
    assert repr(result.observed_orders[-1]) == repr(float(last_order))
    assert result.verdict == Verdict.FAIL


@pytest.mark.parametrize("eps, verdict", [(10 * RESIDUAL_TOL, Verdict.FAIL), (RESIDUAL_TOL / 10, Verdict.PASS)])
def test_energy_holds_the_returned_u_to_the_contract(monkeypatch, eps, verdict):
    # (1 + eps) u with the real solve's report: every ratio scales alike,
    # so only the residual recheck of the returned u, about eps * ||f||,
    # can fail it, and at 10 * RESIDUAL_TOL it must
    def scaled_solver(op, f, tol=RESIDUAL_TOL):
        u, report = solve_dirichlet(op, f, tol)
        return (1.0 + eps) * u, report

    monkeypatch.setattr(analysis_mod, "solve_dirichlet", scaled_solver)
    assert energy_estimate_study([16, 32, 64], alpha=0.5).verdict == verdict


def test_energy_fails_a_solution_of_either_sign(monkeypatch):
    # the checkerboard solve with the residual recheck made to pass: every
    # ratio stays bounded, so only the sign of u can fail it (the M-matrix
    # gives u >= 0 for the nonnegative forcing terms)
    monkeypatch.setattr(analysis_mod, "solve_dirichlet", checkerboard_solver)
    monkeypatch.setattr(analysis_mod, "_check_residual", lambda op, u, f, tol=RESIDUAL_TOL: (0.0, True))
    assert energy_estimate_study([16, 32, 64], alpha=0.5).verdict == Verdict.FAIL


def test_muckenhoupt_fails_the_product_of_w_with_itself(monkeypatch):
    # the (e, e) mutant: avg(w) * avg(w) in place of avg(w) * avg(1/w).
    # Every constant it reports looks plausible (x^0.5 gives at most 1,
    # x^-3 still diverges); only the Cauchy-Schwarz floor of 1 sees it.
    assert muckenhoupt_study().verdict == Verdict.PASS
    ball_integrals = norms_mod._ball_integrals

    def same_sign(cx, cy, r, exponents):
        # muckenhoupt_panel asks for (e, -e) per weight; integrate (e, e)
        return ball_integrals(cx, cy, r, tuple(e for e in exponents[::2] for _ in (0, 1)))

    monkeypatch.setattr(norms_mod, "_ball_integrals", same_sign)
    assert muckenhoupt_study().verdict == Verdict.FAIL


def midpoint_ball_integrals(cx, cy, r, exponents):
    """The rule the ball integrals used before the Gauss rules: the y-chord
    in closed form and a 2048-node midpoint rule in x, which keeps x = 0
    off its nodes and so reads too little of x**-e next to it."""
    x_lo, x_hi = np.maximum(cx - r, 0.0), np.minimum(cx + r, 1.0)
    x_hi = np.maximum(x_hi, x_lo)
    step = ((x_hi - x_lo) / 2048)[:, None]
    x = x_lo[:, None] + (np.arange(2048) + 0.5) * step
    half = np.sqrt(np.maximum(r[:, None] ** 2 - (x - cx[:, None]) ** 2, 0.0))
    chord = np.maximum(np.minimum(cy[:, None] + half, 1.0) - np.maximum(cy[:, None] - half, 0.0), 0.0)
    integrals = np.array([np.sum(x**e * chord, axis=1) * step[:, 0] for e in exponents])
    return integrals, np.sum(chord, axis=1) * step[:, 0]


@pytest.mark.parametrize("e", [0.5, 0.9])
@pytest.mark.parametrize("r", [1e-3, 0.01, 0.1, 0.3])
def test_half_disk_anchor_fails_the_midpoint_rule(monkeypatch, r, e):
    # the midpoint rule reads x^(1/2) at 1.347739 on every half-disk, where
    # the closed form is 1.358122 (-0.76 %), and x^0.9 at 3.40 for 5.60
    monkeypatch.setattr(norms_mod, "_ball_integrals", midpoint_ball_integrals)
    constant = half_disk_constant(monkeypatch, r, e)
    assert not math.isclose(constant, half_disk_closed_form(e), rel_tol=1e-10)
    if (r, e) == (0.01, 0.5):
        assert round(constant, 6) == 1.347739 and round(half_disk_closed_form(e), 6) == 1.358122


def test_muckenhoupt_fails_the_midpoint_rule(monkeypatch):
    # the midpoint rule reads x^(1/2) below its closed form on the
    # lattice's half-disks, and on no ball above it
    monkeypatch.setattr(norms_mod, "_ball_integrals", midpoint_ball_integrals)
    assert muckenhoupt_study().verdict == Verdict.FAIL


real_norms = norms_mod._norms


def unweighted_dy_norms(u, include_mixed):
    # d_y u without its x^alpha weight: at alpha = 1/2, w11 reads 0.97967 ... 1.14358
    report = real_norms(u, include_mixed)
    dyu = dy(u)
    wdy = math.sqrt(weighted_inner(dyu, dyu, 0.0))
    return dataclasses.replace(report, weighted_dy_l2=wdy, w11=math.sqrt(report.l2**2 + report.dx_l2**2 + wdy**2))


def doubled_dx_norms(u, include_mixed):
    # 2 d_x u: at alpha = 1/2, w11 reads 1.07768 ... 1.20507
    report = real_norms(u, include_mixed)
    dx_l2 = 2.0 * report.dx_l2
    return dataclasses.replace(report, dx_l2=dx_l2, w11=math.sqrt(report.l2**2 + dx_l2**2 + report.weighted_dy_l2**2))


# The inclusion verdict of each norm mutant per alpha, as measured on
# levels 16 to 256 (16 to 128 gives the same).  Both mutants still raise
# the d_y norm at every step and settle under refinement; from alpha = 1/2
# up each overshoots w11_exact(alpha) by level 64.  At alpha = 0.1 the true
# gap is still 0.349 at level 256, so both mutants stay below it, and at
# alpha = 0.25 so does the dropped u_y weight: known cells the rule does
# not see.
INCLUSION_UNDER_WRONG_NORMS = {
    0.1: {"unweighted_dy_norms": Verdict.PASS, "doubled_dx_norms": Verdict.PASS},
    0.25: {"unweighted_dy_norms": Verdict.PASS, "doubled_dx_norms": Verdict.FAIL},
    0.5: {"unweighted_dy_norms": Verdict.FAIL, "doubled_dx_norms": Verdict.FAIL},
    0.75: {"unweighted_dy_norms": Verdict.FAIL, "doubled_dx_norms": Verdict.FAIL},
    1.0: {"unweighted_dy_norms": Verdict.FAIL, "doubled_dx_norms": Verdict.FAIL},
}


@pytest.mark.parametrize("alpha", INCLUSION_UNDER_WRONG_NORMS)
def test_inclusion_under_a_wrong_w11(monkeypatch, alpha):
    levels = [16, 32, 64, 128, 256]
    assert strict_inclusion_demo(levels, alpha).verdict == Verdict.PASS
    seen = {}
    for wrong_norms in (unweighted_dy_norms, doubled_dx_norms):
        monkeypatch.setattr(norms_mod, "_norms", wrong_norms)
        seen[wrong_norms.__name__] = strict_inclusion_demo(levels, alpha).verdict
    assert seen == INCLUSION_UNDER_WRONG_NORMS[alpha]
