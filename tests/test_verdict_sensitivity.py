"""The kill matrix: what every shipped verdict does with each wrong program
(mutation analysis; DeMillo, Lipton & Sayward, Computer 1978).

MUTANTS names each wrong program once, as an installer that monkeypatches
it in where the program looks it up.  VERDICTS runs every config under
configs/ through the CLI at its shipped levels (the game at 32 x 32), the
`oracle` column compares that game run's controls and costs with
its exact reference equilibrium (tests/test_game.py), and the
`manufactured` column solves the manufactured game, whose continuous
equilibrium is known (tests/test_game.py::manufactured_game), at
MANUFACTURED_LEVELS and reads the observed orders of both controls'
errors.  KILLS is the committed table
of what each verdict does with each mutant: a verdict that stops killing a
mutant, or starts failing the true program, fails test_kill_matrix.  Every
row but `none` holds a fail, and `none` passes every column.

To add a mutant, define its installer in MUTANTS and add its row to KILLS,
as test_kill_matrix reports it; a new config adds a column.  Checks that
are not one cell per config (an order's reading, a tolerance from both
sides, other alphas or radii) follow the matrix and take their mutants from
MUTANTS.
"""

import json
import math

import numpy as np
import pytest

import degenash.analysis as analysis_mod
import degenash.cli as cli_mod
import degenash.game as game_mod
import degenash.norms as norms_mod
import degenash.operators as operators_mod
from conftest import CONFIG_DIR, half_disk_closed_form, half_disk_constant, shipped_game
from degenash.analysis import Verdict, convergence_study, energy_estimate_study, observed_orders, strict_inclusion_demo
from degenash.fields import manufactured_pair
from degenash.grid import GridFunction, build_grid, weighted_inner
from degenash.operators import RESIDUAL_TOL, DirichletSolver, dx, solve_dirichlet
from degenash.game import control_norm, nash_solve
from test_game import manufactured_game, matches_reference, reference_equilibrium


def solve_mutant(wrong):
    """Replace solve_dirichlet where the studies and the CLI look it up by
    wrong(grid, f, u), given the true solve u of A u = f on grid."""

    def install(monkeypatch):
        def solve(grid, f, tol=RESIDUAL_TOL):
            u, report = solve_dirichlet(grid, f, tol)
            return wrong(grid, f, u), report

        for module in (analysis_mod, cli_mod):
            monkeypatch.setattr(module, "solve_dirichlet", solve)

    return install


def solved_at(grid, f, alpha):
    """The solve on the grid of another alpha, relabelled as grid's."""
    other = build_grid(grid.nx, grid.ny, alpha)
    return GridFunction(grid, solve_dirichlet(other, GridFunction(other, f.values))[0].values)


def checkerboard(grid, f, u):
    """u plus a checkerboard of 0.1 max|u|.  Verify passes it: d_x, d_y and
    the cell averages of its pairings annihilate a checkerboard, so its
    residual order stays that of the true solve (1.03 on [32, 64])."""
    j, i = np.indices((grid.ny, grid.nx))
    return GridFunction(grid, u.values + 0.1 * np.max(np.abs(u.values)) * (-1.0) ** (i + j).ravel())


def scaled_solve(eps):
    """(1 + eps) u with the true solve's report: only the energy study's
    recheck of the residual contract, about eps * ||f||, can see it."""
    return solve_mutant(lambda grid, f, u: (1.0 + eps) * u)


def midpoint_ball_integrals(cx, cy, r, exponents):
    """The y-chord in closed form and a 2048-node midpoint rule in x, which
    keeps x = 0 off its nodes and so reads too little of x**-e next to it."""
    x_lo, x_hi = np.maximum(cx - r, 0.0), np.minimum(cx + r, 1.0)
    step = ((np.maximum(x_hi, x_lo) - x_lo) / 2048)[:, None]
    x = x_lo[:, None] + (np.arange(2048) + 0.5) * step
    half = np.sqrt(np.maximum(r[:, None] ** 2 - (x - cx[:, None]) ** 2, 0.0))
    chord = np.maximum(np.minimum(cy[:, None] + half, 1.0) - np.maximum(cy[:, None] - half, 0.0), 0.0)
    integrals = np.array([np.sum(x**e * chord, axis=1) * step[:, 0] for e in exponents])
    return integrals, np.sum(chord, axis=1) * step[:, 0]


def unweighted_gradient(game, i, f1, f2):
    # x^alpha p + 2 f becomes p + 2 f on omega_i
    nodes = game.follower(i)[0].nodes
    own = (f1 if i == 1 else f2).values[nodes]
    values = GRADIENT(game, i, f1, f2).values.copy()
    values[nodes] = (values[nodes] - 2.0 * own) * np.tile(game.grid.x, game.grid.ny)[nodes] ** -game.grid.alpha + 2.0 * own
    return GridFunction(game.grid, values)


def factor_coupled_at_alpha_1(grid):
    """The march's factors with the coupling to the row below built from
    x**1 in place of x**alpha; T's own factors keep alpha."""
    _, d, e = FACTOR(grid)
    return grid.x / grid.hy, d, e


def uncoupled_march(factors, rows, before=None):
    """The march with no coupling to the row below: each row solves
    T u_j = f_j alone."""
    _, d, e = factors
    for row in rows:
        operators_mod.dpttrs(d, e, row, 1)


def store_holds_every_row(self, rhs, last_row=None):
    """The forward solve, after which the store claims to hold every row:
    a later solve copies the stale rows above the last bound."""
    out = SOLVE(self, rhs, last_row)
    self._last = (*self._last[:2], len(rhs))
    return out


GRADIENT, BALL_INTEGRALS, SOLVE_ADJOINT = game_mod.gradient, norms_mod._ball_integrals, DirichletSolver.solve_adjoint
FACTOR, SOLVE = operators_mod._factor, DirichletSolver.solve
MUTANTS = {
    "none": lambda mp: None,
    "solve-zero": solve_mutant(lambda grid, f, u: GridFunction.zeros(grid)),
    "solve-doubled": solve_mutant(lambda grid, f, u: 2.0 * u),
    "solve-at-alpha-1": solve_mutant(lambda grid, f, u: solved_at(grid, f, 1.0)),
    "solve-at-1.2-alpha": solve_mutant(lambda grid, f, u: solved_at(grid, f, 1.2 * grid.alpha)),
    "solve-adjoint": solve_mutant(
        lambda grid, f, u: GridFunction(grid, DirichletSolver(grid).solve_adjoint(f.values))
    ),
    "solve-checkerboard": solve_mutant(checkerboard),
    # exact below level 128, the true solve at 128: the last L2 order is -inf
    "solve-exact-below-128": solve_mutant(lambda grid, f, u: manufactured_pair(grid)[0] if grid.nx < 128 else u),
    # the L2 error at 128 overflows to inf, its order is NaN
    "solve-1e300-at-128": solve_mutant(lambda grid, f, u: 1e300 * u if grid.nx == 128 else u),
    "solve-times-1+1e-9": scaled_solve(10 * RESIDUAL_TOL),
    "norm-dx-doubled": lambda mp: mp.setattr(norms_mod, "dx", lambda u: 2.0 * dx(u)),
    "norm-dy-unweighted": lambda mp: mp.setattr(
        norms_mod, "weighted_inner", lambda u, v, e, *a: weighted_inner(u, v, 0.0 if e == u.grid.alpha else e, *a)
    ),
    "ball-midpoint": lambda mp: mp.setattr(norms_mod, "_ball_integrals", midpoint_ball_integrals),
    # avg(w) * avg(w) in place of avg(w) * avg(1/w): muckenhoupt_panel asks for (e, -e) per weight
    "ball-same-sign": lambda mp: mp.setattr(
        norms_mod, "_ball_integrals", lambda cx, cy, r, es: BALL_INTEGRALS(cx, cy, r, tuple(e for e in es[::2] for _ in "ee"))
    ),
    "game-gradient-unweighted": lambda mp: mp.setattr(game_mod, "gradient", unweighted_gradient),
    "game-adjoint-one-row-short": lambda mp: mp.setattr(
        DirichletSolver, "solve_adjoint", lambda self, rhs, last_row=None: SOLVE_ADJOINT(self, rhs, last_row + 1)
    ),
    # wrong inside the march, so every solve is wrong: the residual contract
    # of the one-shot solve and of the game's final state both see it
    "march-coupling-at-alpha-1": lambda mp: mp.setattr(operators_mod, "_factor", factor_coupled_at_alpha_1),
    "march-no-coupling": lambda mp: mp.setattr(operators_mod, "_march", uncoupled_march),
    "store-holds-every-row": lambda mp: mp.setattr(DirichletSolver, "solve", store_holds_every_row),
}


def shipped(path):
    """The CLI's verdict on the config at path, written under out: exit 0
    is a pass, and exit 1 a fail or an error."""
    argv = [cli_mod.parse_config(path.read_text()).command, "--config", str(path)]
    argv += ["--level-override", "32"] if argv[0] == "game" else []
    return lambda out: {0: "pass", 1: "fail"}[cli_mod.main(argv + ["--out", str(out / path.stem)])]


# The exact equilibrium of the shipped game at 32 x 32, computed before any mutant is installed
GAME_32 = shipped_game(n=32)
REFERENCE_32 = reference_equilibrium(GAME_32)


def oracle(out):
    """Whether the game column's run matches REFERENCE_32: its controls as
    game_fields.tsv holds them and its costs as report.json does."""
    run = out / "benchmark_game"
    f1, f2 = (GridFunction(GAME_32.grid, v) for v in np.loadtxt(run / "game_fields.tsv", skiprows=1, usecols=(4, 5), unpack=True))
    results = json.loads((run / "report.json").read_text())["results"]
    return "pass" if matches_reference(GAME_32, REFERENCE_32, f1, f2, results["j1"], results["j2"]) else "fail"


# n + 1 doubles from level to level; the true game's last orders read 0.94
# and 0.91, and with the adjoint march one row short 0.52 and 0.50
MANUFACTURED_LEVELS = [31, 63, 127]
MANUFACTURED_ORDER = 0.85


def manufactured(out):
    """Whether nash_solve converges on the manufactured game at every level
    of MANUFACTURED_LEVELS, and the last observed order of both controls'
    errors, relative in control_norm, reaches MANUFACTURED_ORDER; a level
    that does not converge fails it there.  The game runs in the library,
    so out is not read."""
    errors = []
    for n in MANUFACTURED_LEVELS:
        cfg, star = manufactured_game(n)
        res = nash_solve(cfg)
        if not res.converged:
            return "fail"
        alpha = cfg.grid.alpha
        errors.append([control_norm(f - s, alpha) / control_norm(s, alpha) for f, s in zip((res.f1_star, res.f2_star), star)])
    orders = [observed_orders(MANUFACTURED_LEVELS, control)[-1] for control in zip(*errors)]
    return "pass" if all(order >= MANUFACTURED_ORDER for order in orders) else "fail"


VERDICTS = {path.stem: shipped(path) for path in sorted(CONFIG_DIR.glob("*.yaml"))} | {"oracle": oracle, "manufactured": manufactured}
# exit 1 is a fail in every cell but energy on solve-1e300-at-128, where the
# overflow warning is an error under the test settings
KILLS_TABLE = """
mutant                      benchmark_game  solve_example  study_coercivity  study_convergence  study_embedding  study_energy  study_inclusion  study_muckenhoupt  verify_weak_form  oracle  manufactured
none                        pass            pass           pass              pass               pass             pass          pass             pass               pass              pass    pass
solve-zero                  pass            pass           pass              fail               pass             fail          pass             pass               fail              pass    pass
solve-doubled               pass            pass           pass              fail               pass             fail          pass             pass               fail              pass    pass
solve-at-alpha-1            pass            pass           pass              fail               pass             fail          pass             pass               fail              pass    pass
solve-at-1.2-alpha          pass            pass           pass              fail               pass             fail          pass             pass               fail              pass    pass
solve-adjoint               pass            pass           pass              fail               pass             fail          pass             pass               fail              pass    pass
solve-checkerboard          pass            pass           pass              fail               pass             fail          pass             pass               pass              pass    pass
solve-exact-below-128       pass            pass           pass              fail               pass             fail          pass             pass               fail              pass    pass
solve-1e300-at-128          pass            pass           pass              fail               pass             fail          pass             pass               pass              pass    pass
solve-times-1+1e-9          pass            pass           pass              pass               pass             fail          pass             pass               pass              pass    pass
norm-dx-doubled             pass            pass           pass              pass               pass             pass          fail             pass               pass              pass    pass
norm-dy-unweighted          pass            pass           pass              pass               pass             pass          fail             pass               pass              pass    pass
ball-midpoint               pass            pass           pass              pass               pass             pass          pass             fail               pass              pass    pass
ball-same-sign              pass            pass           pass              pass               pass             pass          pass             fail               pass              pass    pass
game-gradient-unweighted    fail            pass           pass              pass               pass             pass          pass             pass               pass              fail    fail
game-adjoint-one-row-short  pass            pass           pass              pass               pass             pass          pass             pass               pass              fail    fail
march-coupling-at-alpha-1   fail            fail           pass              fail               pass             fail          pass             pass               fail              fail    fail
march-no-coupling           fail            fail           pass              fail               pass             fail          pass             pass               fail              fail    fail
store-holds-every-row       fail            pass           pass              pass               pass             pass          pass             pass               pass              fail    pass
"""
HEADER, *ROWS = (line.split() for line in KILLS_TABLE.strip().splitlines())
KILLS = {name: dict(zip(HEADER[1:], cells)) for name, *cells in ROWS}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_kill_matrix(tmp_path, monkeypatch, mutant):
    MUTANTS[mutant](monkeypatch)
    assert {name: verdict(tmp_path) for name, verdict in VERDICTS.items()} == KILLS[mutant]


def test_every_mutant_is_killed_and_the_true_program_passes_all():
    assert set(KILLS["none"].values()) == {"pass"}
    assert [name for name, row in KILLS.items() if "fail" not in row.values()] == ["none"]


def test_kills_rows_are_the_mutants():
    assert list(KILLS) == list(MUTANTS)


def test_kills_columns_are_the_shipped_configs_and_the_game_checks():
    assert HEADER[1:] == sorted(path.stem for path in CONFIG_DIR.glob("*.yaml")) + ["oracle", "manufactured"]
    assert all(len(row) == len(HEADER) for row in ROWS)


@pytest.mark.parametrize("mutant, last_order", [("solve-exact-below-128", "-inf"), ("solve-1e300-at-128", "nan")])
def test_error_under_refinement_fails_convergence(monkeypatch, mutant, last_order):
    MUTANTS[mutant](monkeypatch)
    result = convergence_study([16, 32, 64, 128])
    assert repr(result.observed_orders[-1]) == repr(float(last_order))
    assert result.verdict == Verdict.FAIL


@pytest.mark.parametrize("eps, verdict", [(10 * RESIDUAL_TOL, Verdict.FAIL), (RESIDUAL_TOL / 10, Verdict.PASS)])
def test_energy_holds_the_returned_u_to_the_contract(monkeypatch, eps, verdict):
    # every ratio scales alike, so only the residual recheck sees eps
    scaled_solve(eps)(monkeypatch)
    assert energy_estimate_study([16, 32, 64], alpha=0.5).verdict == verdict


def test_energy_fails_a_solution_of_either_sign(monkeypatch):
    # the checkerboard with the residual recheck made to pass: every ratio
    # stays bounded, so only the sign of u can fail it (the M-matrix gives
    # u >= 0 for the nonnegative forcing terms)
    MUTANTS["solve-checkerboard"](monkeypatch)
    monkeypatch.setattr(analysis_mod, "_check_residual", lambda grid, u, f, tol=RESIDUAL_TOL: (0.0, True))
    assert energy_estimate_study([16, 32, 64], alpha=0.5).verdict == Verdict.FAIL


@pytest.mark.parametrize("e", [0.5, 0.9])
@pytest.mark.parametrize("r", [1e-3, 0.01, 0.1, 0.3])
def test_half_disk_anchor_fails_the_midpoint_rule(monkeypatch, r, e):
    # the midpoint rule reads x^(1/2) at 1.347739 on every half-disk, where
    # the closed form is 1.358122 (-0.76 %), and x^0.9 at 3.40 for 5.60
    MUTANTS["ball-midpoint"](monkeypatch)
    constant = half_disk_constant(monkeypatch, r, e)
    assert not math.isclose(constant, half_disk_closed_form(e), rel_tol=1e-10)
    if (r, e) == (0.01, 0.5):
        assert round(constant, 6) == 1.347739 and round(half_disk_closed_form(e), 6) == 1.358122


# The inclusion verdict at the alphas the shipped config does not run, on
# levels 16 to 256 (16 to 128 gives the same).  At alpha = 0.1 the true gap
# to w11_exact is still 0.349 at level 256, so both norm mutants stay below
# it, and at alpha = 0.25 so does the dropped u_y weight: known cells the
# rule does not see.
INCLUSION_AT = {
    0.1: {"none": "pass", "norm-dx-doubled": "pass", "norm-dy-unweighted": "pass"},
    0.25: {"none": "pass", "norm-dx-doubled": "fail", "norm-dy-unweighted": "pass"},
    0.75: {"none": "pass", "norm-dx-doubled": "fail", "norm-dy-unweighted": "fail"},
    1.0: {"none": "pass", "norm-dx-doubled": "fail", "norm-dy-unweighted": "fail"},
}


@pytest.mark.parametrize("alpha", INCLUSION_AT)
def test_inclusion_at_other_alphas(monkeypatch, alpha):
    seen = {}
    for mutant in INCLUSION_AT[alpha]:
        MUTANTS[mutant](monkeypatch)
        seen[mutant] = strict_inclusion_demo([16, 32, 64, 128, 256], alpha).verdict.value
        monkeypatch.undo()
    assert seen == INCLUSION_AT[alpha]
