"""Every verdict that consumes the Dirichlet solve must fail a wrong solve.

Each wrong solver replaces solve_dirichlet where the studies and the CLI
look it up; the verify, convergence and energy verdicts must then all
fail, and with the real solver all three must pass.
"""

from pathlib import Path

import pytest

import degenash.analysis as analysis_mod
import degenash.cli as cli_mod
from degenash.analysis import Verdict, convergence_study, energy_estimate_study
from degenash.cli import parse_config, run
from degenash.grid import GridFunction, build_grid
from degenash.operators import RESIDUAL_TOL, DirichletSolver, assemble, solve_dirichlet

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def zero_solver(op, f, tol=RESIDUAL_TOL):
    _, report = solve_dirichlet(op, f, tol)
    return GridFunction.zeros(op.grid), report


def doubled_solver(op, f, tol=RESIDUAL_TOL):
    u, report = solve_dirichlet(op, f, tol)
    return 2.0 * u, report


def alpha_one_solver(op, f, tol=RESIDUAL_TOL):
    # solves on the alpha = 1 grid and relabels the result as this grid's
    grid = build_grid(op.grid.nx, op.grid.ny, 1.0)
    u, report = solve_dirichlet(assemble(grid), GridFunction(grid, f.values), tol)
    return GridFunction(op.grid, u.values), report


def adjoint_solver(op, f, tol=RESIDUAL_TOL):
    _, report = solve_dirichlet(op, f, tol)
    return GridFunction(op.grid, DirichletSolver(op).solve_adjoint(f.values)), report


WRONG_SOLVERS = [zero_solver, doubled_solver, alpha_one_solver, adjoint_solver]


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
