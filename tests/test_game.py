import dataclasses
import functools
import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import degenash.game as game_mod
import degenash.operators as operators
from conftest import CONFIG_DIR, load_script, random_field, shipped_game
from degenash.cli import parse_config, run
from degenash.fields import bump_family, bumps
from degenash.game import (
    BR_TOL,
    DEVIATION_SAMPLES,
    DEVIATION_SEED,
    INNER_TOL,
    GameConfig,
    _admissible,
    _feasible_deviations,
    best_response,
    certify,
    control_inner,
    control_norm,
    cost,
    gradient,
    nash_solve,
    project_ball,
    state_solve,
)
from degenash.grid import GridFunction, _x_power, build_grid, rect_mask
from degenash.operators import assemble


@pytest.fixture(scope="module")
def mini_cfg():
    """Benchmark geometry on a cheap 24x24 grid."""
    return shipped_game(n=24)


def feasible_random(cfg, mask, m, seed, scale=0.3):
    f = GridFunction(cfg.grid, np.random.default_rng(seed).standard_normal(cfg.grid.n) * scale)
    return project_ball(f, m, mask, cfg.grid.alpha)


class TestStateSolve:
    @pytest.fixture(scope="class")
    def no_leader(self, mini_cfg):
        return dataclasses.replace(mini_cfg, g=GridFunction.zeros(mini_cfg.grid))

    def test_all_zero(self, no_leader):
        z = GridFunction.zeros(no_leader.grid)
        y = state_solve(no_leader, z, z)
        assert np.all(y.values == 0.0)

    def test_superposition(self, mini_cfg, no_leader):
        cfg = mini_cfg
        rng = np.random.default_rng(3)
        g = GridFunction(cfg.grid, rng.standard_normal(cfg.grid.n))
        f1 = GridFunction(cfg.grid, rng.standard_normal(cfg.grid.n))
        f2 = GridFunction(cfg.grid, rng.standard_normal(cfg.grid.n))
        z = GridFunction.zeros(cfg.grid)
        leader = dataclasses.replace(cfg, g=g)
        y_all = state_solve(leader, f1, f2)
        y_sum = state_solve(leader, z, z).values + state_solve(no_leader, f1, z).values + state_solve(no_leader, z, f2).values
        scale = np.linalg.norm(y_all.values) + 1.0
        assert np.linalg.norm(y_all.values - y_sum) <= 1e-10 * scale

    def test_masked_source_outside_region_is_inert(self, no_leader):
        cfg = no_leader
        z = GridFunction.zeros(cfg.grid)
        # f1 supported entirely outside omega1
        outside = rect_mask(cfg.grid, 0.0, 0.35, 0.0, 1.0)
        f1 = outside.apply(GridFunction(cfg.grid, np.ones(cfg.grid.n)))
        assert not np.any(cfg.omega1.indicator & (f1.values != 0.0))
        y = state_solve(cfg, f1, z)
        assert np.all(y.values == 0.0)


class TestCost:
    def test_penalty_free_when_matched(self, mini_cfg):
        cfg = mini_cfg
        z = GridFunction.zeros(cfg.grid)
        matched = dataclasses.replace(cfg, yd1=state_solve(cfg, z, z))
        assert cost(matched, 1, z, z) == 0.0

    def test_zero_controls_tracking_only(self, mini_cfg):
        cfg = mini_cfg
        z = GridFunction.zeros(cfg.grid)
        y = state_solve(cfg, z, z)
        g = cfg.grid
        expected = g.hx * g.hy * float(
            np.sum(np.where(cfg.g1_obs.indicator, y.values - cfg.yd1.values, 0.0) ** 2)
        )
        assert cost(cfg, 1, z, z) == pytest.approx(expected, rel=1e-14)

    def test_quadratic_homogeneity_with_zero_data(self):
        # with g = 0 and a zero target follower 1's cost is 2-homogeneous
        cfg = shipped_game(n=16)
        cfg = dataclasses.replace(cfg, g=GridFunction.zeros(cfg.grid), yd1=GridFunction.zeros(cfg.grid))
        f1 = feasible_random(cfg, cfg.omega1, cfg.m1, seed=8)
        f2 = feasible_random(cfg, cfg.omega2, cfg.m2, seed=9)
        j1 = cost(cfg, 1, f1, f2)
        j4 = cost(cfg, 1, 2.0 * f1, f2)
        assert j4 == pytest.approx(4.0 * j1, rel=1e-12)

    def test_an_overflow_raises_inside_cost_and_leaves_no_trace(self):
        cfg = shipped_game(n=16)
        z = GridFunction.zeros(cfg.grid)
        before = cost(cfg, 1, z, z)
        # every penalty product is finite; their sum overflows
        huge = cfg.omega1.apply(GridFunction(cfg.grid, np.full(cfg.grid.n, 5e153)))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError) as err:
            cost(cfg, 1, huge, z)
        # the innermost frame of the package is cost: not the solve
        assert [entry.name for entry in err.traceback if "degenash" in str(entry.path)][-1] == "cost"
        assert _bits(cost(cfg, 1, z, z)) == _bits(before)


class TestGradient:
    def test_zero_mismatch_zero_gradient(self, mini_cfg):
        cfg = mini_cfg
        z = GridFunction.zeros(cfg.grid)
        matched = dataclasses.replace(cfg, yd1=state_solve(cfg, z, z))
        grad = gradient(matched, 1, z, z)
        assert np.all(grad.values == 0.0)

    def test_support_inside_control_region(self, mini_cfg):
        cfg = mini_cfg
        f1 = feasible_random(cfg, cfg.omega1, cfg.m1, seed=4)
        f2 = feasible_random(cfg, cfg.omega2, cfg.m2, seed=5)
        grad = gradient(cfg, 1, f1, f2)
        assert np.all(grad.values[~cfg.omega1.indicator] == 0.0)

    def test_finite_difference_oracle(self, mini_cfg):
        cfg = mini_cfg
        rng = np.random.default_rng(99)
        f1 = feasible_random(cfg, cfg.omega1, cfg.m1, seed=14)
        f2 = feasible_random(cfg, cfg.omega2, cfg.m2, seed=15)
        eps = 1e-6
        for i, mask in ((1, cfg.omega1), (2, cfg.omega2)):
            grad = gradient(cfg, i, f1, f2)
            for _ in range(5):
                d = mask.apply(GridFunction(cfg.grid, rng.standard_normal(cfg.grid.n)))
                d = d * (1.0 / control_norm(d, cfg.grid.alpha))
                if i == 1:
                    jp, jm = (cost(cfg, 1, f1 - s * d, f2) for s in (-eps, eps))
                else:
                    jp, jm = (cost(cfg, 2, f1, f2 - s * d) for s in (-eps, eps))
                fd = (jp - jm) / (2 * eps)
                an = control_inner(grad, d, cfg.grid.alpha)
                assert abs(fd - an) / max(abs(fd), 1e-30) < 1e-5


class TestProjectBall:
    def test_interior_point_unchanged(self, mini_cfg):
        cfg = mini_cfg
        f = cfg.omega1.apply(GridFunction(cfg.grid, 1e-3 * np.ones(cfg.grid.n)))
        out = project_ball(f, cfg.m1, cfg.omega1, cfg.grid.alpha)
        assert np.array_equal(out.values, f.values)

    def test_radial_rescaling(self, mini_cfg):
        cfg = mini_cfg
        alpha = cfg.grid.alpha
        f = cfg.omega1.apply(GridFunction(cfg.grid, np.ones(cfg.grid.n)))
        n0 = control_norm(f, alpha)
        f = f * (2.0 * cfg.m1 / n0)  # norm exactly 2 M
        out = project_ball(f, cfg.m1, cfg.omega1, alpha)
        assert control_norm(out, alpha) == pytest.approx(cfg.m1, rel=1e-12)
        # direction preserved
        cos = control_inner(out, f, alpha) / (control_norm(out, alpha) * control_norm(f, alpha))
        assert cos == pytest.approx(1.0, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        # radii tiny enough to underflow the squared norm are out of scope
        m=st.one_of(st.just(0.0), st.floats(1e-8, 2.0)),
    )
    def test_idempotent_and_feasible(self, seed, m):
        g = build_grid(10, 10, 0.5)
        mask = rect_mask(g, 0.3, 0.8, 0.2, 0.9)
        f = random_field(g, seed)
        once = project_ball(f, m, mask, g.alpha)
        twice = project_ball(once, m, mask, g.alpha)
        assert np.array_equal(once.values, twice.values)
        assert control_norm(once, g.alpha) <= m + 1e-12

    def test_zero_radius(self, mini_cfg):
        f = GridFunction(mini_cfg.grid, np.ones(mini_cfg.grid.n))
        out = project_ball(f, 0.0, mini_cfg.omega1, mini_cfg.grid.alpha)
        assert np.all(out.values == 0.0)

    @pytest.mark.parametrize("m", [math.nan, math.inf, -1.0])
    def test_radius_by_the_m1_rule(self, mini_cfg, m):
        # the rule GameConfig holds m1 and m2 to, naming the radius
        f = GridFunction(mini_cfg.grid, np.ones(mini_cfg.grid.n))
        with pytest.raises(ValueError, match=re.escape(f"m must be finite and nonnegative, got {m!r}")):
            project_ball(f, m, mini_cfg.omega1, mini_cfg.grid.alpha)


class TestBestResponse:
    def test_zero_radius_returns_zero(self, mini_cfg):
        # no shortcut: project_ball returns zeros, so the first residual is 0.0
        cfg = shipped_game(n=16, m1=0.0)
        out, residual = best_response(cfg, 1, GridFunction.zeros(cfg.grid))
        assert np.all(out.values == 0.0)
        assert residual == 0.0

    def test_converged_residual_within_tolerance(self, mini_cfg):
        f2 = feasible_random(mini_cfg, mini_cfg.omega2, mini_cfg.m2, seed=31)
        _, residual = best_response(mini_cfg, 1, f2)
        assert residual <= INNER_TOL

    def test_global_minimum_at_zero(self):
        # g = 0 and a zero target: J_1(0) = 0 is the global minimum
        cfg = shipped_game(n=16)
        zero = GridFunction.zeros(cfg.grid)
        cfg = dataclasses.replace(cfg, g=zero, yd1=zero)
        out, _ = best_response(cfg, 1, zero)
        assert np.all(out.values == 0.0)

    def test_monotone_descent_and_feasible_iterates(self, mini_cfg, monkeypatch):
        # gradient runs once per outer iteration, at the iterate then held:
        # the costs of those iterates, repeats dropped, are the accepted ones
        cfg = mini_cfg
        costs, iterates = [], []
        cost, gradient = game_mod.cost, game_mod.gradient

        def recorded_cost(cfg, i, f1, f2):
            costs.append((f1, cost(cfg, i, f1, f2)))
            return costs[-1][1]

        def recorded_gradient(cfg, i, f1, f2):
            if not iterates or iterates[-1] is not f1:
                iterates.append(f1)
            return gradient(cfg, i, f1, f2)

        monkeypatch.setattr(game_mod, "cost", recorded_cost)
        monkeypatch.setattr(game_mod, "gradient", recorded_gradient)
        f2 = feasible_random(cfg, cfg.omega2, cfg.m2, seed=31)
        out, _ = best_response(cfg, 1, f2)
        trace = [next(j for f, j in costs if f is f1) for f1 in iterates]
        assert len(trace) > 1
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert control_norm(out, cfg.grid.alpha) <= cfg.m1 + 1e-12

    def test_variational_inequality_oracle(self, mini_cfg):
        cfg = mini_cfg
        f2 = feasible_random(cfg, cfg.omega2, cfg.m2, seed=41)
        f_star, _ = best_response(cfg, 1, f2)
        grad = gradient(cfg, 1, f_star, f2)
        rng = np.random.default_rng(42)
        for _ in range(50):
            v = cfg.omega1.apply(GridFunction(cfg.grid, rng.standard_normal(cfg.grid.n)))
            v = project_ball(v * rng.uniform(0.0, 2.0), cfg.m1, cfg.omega1, cfg.grid.alpha)
            assert control_inner(grad, v - f_star, cfg.grid.alpha) >= -1e-6


class TestNashSolve:
    def test_singleton_feasible_sets(self):
        cfg = shipped_game(n=16, m1=0.0, m2=0.0)
        res = nash_solve(cfg)
        assert np.all(res.f1_star.values == 0.0) and np.all(res.f2_star.values == 0.0)
        assert res.converged and res.certified
        assert res.certification_margin == 0.0
        assert res.br_iterations == 1

    def test_weak_coupling_fast_convergence(self):
        cfg = shipped_game(n=24)
        res = nash_solve(dataclasses.replace(cfg, g=GridFunction.zeros(cfg.grid)))
        assert res.converged and res.br_iterations <= 4

    def test_benchmark_mini(self, mini_cfg):
        res = nash_solve(mini_cfg)
        assert res.converged and res.certified
        assert res.br_residuals[-1] <= BR_TOL
        alpha = mini_cfg.grid.alpha
        assert control_norm(res.f1_star, alpha) <= mini_cfg.m1 + 1e-12
        assert control_norm(res.f2_star, alpha) <= mini_cfg.m2 + 1e-12
        # monotone residual tail
        assert all(b <= a for a, b in zip(res.br_residuals, res.br_residuals[1:]))
        # fixed-point property
        b1, _ = best_response(mini_cfg, 1, res.f2_star)
        b2, _ = best_response(mini_cfg, 2, res.f1_star)
        assert control_norm(b1 - res.f1_star, alpha) <= 10 * BR_TOL
        assert control_norm(b2 - res.f2_star, alpha) <= 10 * BR_TOL

    def test_inner_cap_reported_not_raised(self, monkeypatch):
        cfg = shipped_game(n=16)
        monkeypatch.setattr(game_mod, "INNER_MAX_ITERS", 1)
        _, residual = best_response(cfg, 1, GridFunction.zeros(cfg.grid))
        assert residual > INNER_TOL
        res = nash_solve(cfg)
        assert not res.converged
        assert res.br_iterations == 1
        assert res.br_residuals == [residual]
        assert np.all(res.f1_star.values == 0.0) and np.all(res.f2_star.values == 0.0)
        assert math.isfinite(res.j1) and math.isfinite(res.j2)

    def test_control_just_outside_the_ball_reported_not_raised(self, monkeypatch):
        # project_ball's output sits within round-off of M = 1e6, for this
        # draw by 1.16e-10 above it: admissible by certify's rule, though
        # more than 1e-12 above M.  Which draw lands above M depends on the
        # order control_norm sums in
        m = 1e6
        cfg = shipped_game(n=16, m1=m, m2=m)
        v = 1e7 * np.random.default_rng(4).standard_normal(cfg.grid.n)
        f1 = project_ball(GridFunction(cfg.grid, v), m, cfg.omega1, cfg.grid.alpha)
        assert control_norm(f1, cfg.grid.alpha) > m + 1e-12
        assert game_mod._admissible(cfg, 1, f1)
        zero = GridFunction.zeros(cfg.grid)
        monkeypatch.setattr(game_mod, "best_response", lambda cfg, i, f_other: (f1 if i == 1 else zero, 0.0))
        res = nash_solve(cfg)
        assert res.converged
        assert np.array_equal(res.f1_star.values, f1.values)

    @pytest.mark.parametrize("i", [1, 2])
    def test_nan_inner_residual_reported_not_raised(self, monkeypatch, i):
        # a NaN residual from either follower stops the sweeps unconverged
        cfg = shipped_game(n=16)
        zero = GridFunction.zeros(cfg.grid)
        calls = []

        def stub(cfg, j, f_other):
            calls.append(j)
            return zero, math.nan if j == i else 0.0

        monkeypatch.setattr(game_mod, "best_response", stub)
        res = nash_solve(cfg)
        assert not res.converged
        assert res.br_iterations == 1
        assert len(res.br_residuals) == 1 and math.isnan(res.br_residuals[0])
        # follower 2 runs only after follower 1 has converged
        assert calls == [1, 2][:i]

    def test_final_state_off_the_residual_contract_reported_not_raised(self, monkeypatch):
        # the one check is of the final state against its own right-hand
        # side, which the true march meets; a miss only clears converged
        cfg = shipped_game(n=16)
        seen = []

        def miss(grid, u, f, tol=operators.RESIDUAL_TOL):
            seen.append(operators._check_residual(grid, u, f, tol))
            return math.inf, False

        monkeypatch.setattr(game_mod, "_check_residual", miss)
        res = nash_solve(cfg)
        assert not res.converged and res.certified
        assert res.br_residuals[-1] <= BR_TOL
        ((residual, met),) = seen
        assert met and residual <= operators.RESIDUAL_TOL

    def test_deterministic(self, mini_cfg):
        r1 = nash_solve(mini_cfg)
        r2 = nash_solve(mini_cfg)
        assert np.array_equal(r1.f1_star.values, r2.f1_star.values)
        assert r1.j1 == r2.j1 and r1.certification_margin == r2.certification_margin


# The coupled regions: follower 1 acts below y = 0.45 and observes above
# y = 0.55, where follower 2's control reaches.
COUPLED = {
    "omega1": [0.35, 0.5, 0.1, 0.45],
    "omega2": [0.5, 0.65, 0.1, 0.45],
    "g1_obs": [0.3, 0.6, 0.55, 0.9],
    "g2_obs": [0.4, 0.7, 0.55, 0.9],
}
# omega1 overlaps omega and omega2
OVERLAP = {"omega1": [0.2, 0.6, 0.1, 0.7], "omega2": [0.4, 0.8, 0.5, 0.9]}
GAMES = {"shipped": {}, "active": {"m1": 1e-4, "m2": 1e-4}, "coupled": COUPLED, "overlap": OVERLAP}


@pytest.fixture(scope="module")
def counted():
    """scripts/bench_levels.py's counting() of nash_solve on the shipped and
    the active game at 128x128."""
    counting = load_script("bench_levels").counting
    runs = {}
    for name in ("shipped", "active"):
        with counting() as counts:
            nash_solve(shipped_game(n=128, **GAMES[name]))
        runs[name] = counts
    return runs


def _result_bits(res):
    arrays = (res.f1_star, res.f2_star, res.state)
    floats = (res.j1, res.j2, res.certification_margin, *res.br_residuals)
    return [a.values.tobytes() for a in arrays] + [repr(v) for v in floats]


class TestMarchReuse:
    @pytest.mark.parametrize("game", [{}, {"m1": 1e-4, "m2": 1e-4}, COUPLED], ids=["shipped", "active", "coupled"])
    def test_equilibrium_equals_fresh_full_marches(self, monkeypatch, game):
        reused = nash_solve(shipped_game(n=32, **game))
        cfg = shipped_game(n=32, **game)
        solver = operators.DirichletSolver
        # every solve a full march on a new solver: no store, no bound
        for name in ("solve", "solve_adjoint"):
            method = getattr(solver, name)
            monkeypatch.setattr(solver, name, lambda self, rhs, last_row=None, m=method: m(solver(cfg.grid), rhs))
        assert _result_bits(reused) == _result_bits(nash_solve(cfg))

    @pytest.mark.parametrize("i", [1, 2])
    def test_gradient_adjoint_stops_at_the_control_region(self, monkeypatch, mini_cfg, i):
        bounds = []
        adjoint = mini_cfg.solver.solve_adjoint
        monkeypatch.setattr(
            mini_cfg.solver, "solve_adjoint", lambda rhs, last_row=None: bounds.append(last_row) or adjoint(rhs, last_row)
        )
        z = GridFunction.zeros(mini_cfg.grid)
        gradient(mini_cfg, i, z, z)
        assert bounds == [mini_cfg.follower(i)[0].bottom_row]

    def test_shipped_game_marches_few_rows(self, counted):
        # forward solves march 56,492 rows when each is a full march on a
        # new solver, 36,566 when each also stops at its bound, and 20,760
        # with a store that kept only the rows up to its last bound (held =
        # stop, not max(start, stop)), all to the same bits; adjoint solves
        # keep nothing and march 3,132 rows without bounds
        counts = counted["shipped"]
        assert (counts["forward_rows"], counts["adjoint_rows"]) == (20_702, 1_656)


# (nx, ny, game keys) -> repr of j1, j2 and the certification margin, and
# the sha256 of the bytes of f1*, f2* and the state in node order
# j*nx + i.  On a non-square grid a swap of x and y in a solve, a scatter
# or a gather moves them; a square grid cannot show it.
NON_SQUARE = {
    "shipped-48x80": (
        (48, 80, {}),
        ("0.00011713579917997836", "0.0001914604691532527", "6.350160663322617e-08"),
        "a1e39b0ad32286b087d3b230821820d7b63ff0a4fef8fdcb65352f6483f6b543",
    ),
    "active-80x48": (
        (80, 48, {"m1": 1e-4, "m2": 1e-4}),
        ("0.00012593989308913337", "0.00021280597380744846", "4.19051184316426e-08"),
        "87e2b5456452e274b2afc19b54747eaa5a58bd0153db127610c1e1f047e32628",
    ),
}


@pytest.mark.parametrize("name", NON_SQUARE)
def test_non_square_game_keeps_its_bits(name):
    (nx, ny, game), floats, digest = NON_SQUARE[name]
    bits = _result_bits(nash_solve(shipped_game(n=nx, ny=ny, **game)))
    assert tuple(bits[3:6]) == floats
    assert hashlib.sha256(b"".join(bits[:3])).hexdigest() == digest


def reference_equilibrium(cfg):
    """The exact Nash pair of a game whose balls are both inactive.

    The game is then linear-quadratic, and on region vectors its Nash
    conditions are one block linear system (Basar & Olsder, Dynamic
    Noncooperative Game Theory, SIAM 1999):

        sum_j (S_ii^T S_ij + delta_ij D_i) f_j = S_ii^T (yd_i - y_g) on G_i,

    where S_ij holds the rows of A^-1 on G_i and its columns on omega_j,
    D_i = diag(x^-alpha) on omega_i and y_g = A^-1 chi_omega g.  The
    columns come from one solve per control node on a fresh solver."""
    grid = cfg.grid
    solver = operators.DirichletSolver(grid)
    ctrl = [cfg.follower(i)[0].nodes for i in (1, 2)]
    obs = [cfg.follower(i)[1].nodes for i in (1, 2)]
    columns = []
    for nodes in ctrl:
        cols = np.empty((grid.n, nodes.size))
        for k, node in enumerate(nodes):
            unit = np.zeros(grid.n)
            unit[node] = 1.0
            cols[:, k] = solver.solve(unit)
        columns.append(cols)
    y_g = solver.solve(cfg.omega.apply(cfg.g).values)
    weight = np.tile(grid.x ** -grid.alpha, grid.ny)
    rows, rhs = [], []
    for i, yd in enumerate((cfg.yd1, cfg.yd2)):
        s_ii = columns[i][obs[i]]
        rows.append(
            np.hstack([s_ii.T @ columns[j][obs[i]] + (i == j) * np.diag(weight[ctrl[i]]) for j in range(2)])
        )
        rhs.append(s_ii.T @ (yd.values[obs[i]] - y_g[obs[i]]))
    solution = np.linalg.solve(np.vstack(rows), np.concatenate(rhs))
    pair = []
    for nodes, part in zip(ctrl, np.split(solution, [ctrl[0].size])):
        values = np.zeros(grid.n)
        values[nodes] = part
        pair.append(GridFunction(grid, values))
    return tuple(pair)


def reference_errors(cfg, ref, f1, f2, j1, j2):
    """Relative errors of the controls, in control_norm, and of J_1 and J_2
    against the reference pair."""
    alpha = cfg.grid.alpha
    controls = [control_norm(f - r, alpha) / control_norm(r, alpha) for f, r in zip((f1, f2), ref)]
    costs = [abs(j - cost(cfg, i, *ref)) / abs(cost(cfg, i, *ref)) for i, j in ((1, j1), (2, j2))]
    return controls, costs


def matches_reference(cfg, ref, f1, f2, j1, j2):
    controls, costs = reference_errors(cfg, ref, f1, f2, j1, j2)
    return max(controls) <= 1e-5 and max(costs) <= 1e-8


REFERENCE_GAMES = {"shipped-32": (32, {}), "shipped-64": (64, {}), "coupled-32": (32, COUPLED)}


class TestReferenceEquilibrium:
    """nash_solve against the exact equilibrium of the linear-quadratic
    game, and wrong answers that the comparison fails; the wrong games it
    fails are rows of tests/test_verdict_sensitivity.py's kill matrix."""

    @pytest.fixture(scope="class")
    def shipped32(self):
        cfg = shipped_game(n=32)
        return cfg, reference_equilibrium(cfg), nash_solve(cfg)

    @pytest.mark.parametrize("name", REFERENCE_GAMES)
    def test_nash_solve_matches_the_reference(self, name):
        n, game = REFERENCE_GAMES[name]
        cfg = shipped_game(n=n, **game)
        ref = reference_equilibrium(cfg)
        # the balls are inactive, so the linear system is the game
        assert control_norm(ref[0], cfg.grid.alpha) < cfg.m1 and control_norm(ref[1], cfg.grid.alpha) < cfg.m2
        res = nash_solve(cfg)
        assert res.converged
        controls, costs = reference_errors(cfg, ref, res.f1_star, res.f2_star, res.j1, res.j2)
        assert max(controls) <= 1e-5, controls
        assert max(costs) <= 1e-8, costs

    @pytest.mark.parametrize(
        "mutate",
        [lambda f1, f2: (0.5 * f1, f2), lambda f1, f2: (f1, 0.0 * f2), lambda f1, f2: (f2, f1)],
        ids=["f1-halved", "f2-zero", "followers-swapped"],
    )
    def test_wrong_answer_fails(self, shipped32, mutate):
        cfg, ref, res = shipped32
        f1, f2 = mutate(res.f1_star, res.f2_star)
        assert not matches_reference(cfg, ref, f1, f2, cost(cfg, 1, f1, f2), cost(cfg, 2, f1, f2))


def manufactured_game(n, alpha=0.5, c=(3e-3, -2e-3)):
    """An n x n game whose continuous equilibrium is known, and that pair
    sampled at the nodes (the method of manufactured solutions; Roache,
    J. Fluids Eng. 2002).

    The state y* = 1e-3 sin(pi x) sin(pi y / 2) vanishes where the upwind
    operator A = -1/2 d_xx + x^alpha d_y reads its data (x = 0, 1 and
    y = 0), and each adjoint p_i* = c_i sin(pi x) cos(pi y / 2) where
    A* = -1/2 d_xx - x^alpha d_y reads its own (x = 0, 1 and y = 1).  With
    omega = G_1 = G_2 the whole square, the optimality system then sets
    f_i* = -x^alpha p_i* / 2 on omega_i, g = A y* - f_1* - f_2* and
    yd_i = y* - A* p_i* / 2; the radii m_i = 10 leave both balls inactive.
    For n + 1 a power of 2 every edge of omega_i lies on a grid line."""
    grid = build_grid(n, n, alpha)
    pi = math.pi

    def a_state(x, y):  # A y*
        return 1e-3 * np.sin(pi * x) * (pi**2 / 2 * np.sin(pi * y / 2) + pi / 2 * x**alpha * np.cos(pi * y / 2))

    def control(x, y, ci):  # f_i*, before the mask of omega_i
        return -(x**alpha) * ci * np.sin(pi * x) * np.cos(pi * y / 2) / 2

    def target(x, y, ci):  # yd_i = y* - A* p_i* / 2
        a_adjoint = ci * (pi**2 / 2 * np.cos(pi * y / 2) + pi / 2 * x**alpha * np.sin(pi * y / 2))
        return np.sin(pi * x) * (1e-3 * np.sin(pi * y / 2) - a_adjoint / 2)

    square = rect_mask(grid, 0.0, 1.0, 0.0, 1.0)
    controls = rect_mask(grid, 0.375, 0.625, 0.125, 0.375), rect_mask(grid, 0.375, 0.625, 0.625, 0.875)
    star = [mask.apply(GridFunction.from_callable(grid, functools.partial(control, ci=ci)))
            for mask, ci in zip(controls, c)]
    g = GridFunction.from_callable(grid, a_state) - star[0] - star[1]
    yd1, yd2 = (GridFunction.from_callable(grid, functools.partial(target, ci=ci)) for ci in c)
    return GameConfig(grid, square, *controls, square, square, g, yd1, yd2, m1=10.0, m2=10.0), star


class TestManufacturedEquilibrium:
    """nash_solve against the continuous equilibrium of a manufactured
    game at 63, 127 and 255 nodes a side: both control errors, relative in
    control_norm, fall at first order, and with the adjoint march one row
    short, as in the kill matrix's game-adjoint-one-row-short, at half that."""

    @pytest.mark.parametrize("mutant,orders_hold", [
        ("none", lambda order: order >= 0.85),  # 0.97 and 0.96 when written
        ("game-adjoint-one-row-short", lambda order: order < 0.7),  # 0.51 and 0.50
    ], ids=["none", "game-adjoint-one-row-short"])
    def test_last_observed_orders(self, monkeypatch, mutant, orders_hold):
        from test_verdict_sensitivity import MUTANTS  # imported here, as it imports this module

        MUTANTS[mutant](monkeypatch)
        errors = []
        for n in (63, 127, 255):
            cfg, star = manufactured_game(n)
            res = nash_solve(cfg)
            assert res.converged, n
            errors.append([control_norm(f - s, cfg.grid.alpha) / control_norm(s, cfg.grid.alpha)
                           for f, s in zip((res.f1_star, res.f2_star), star)])
        # h halves from level to level, so an order is the log2 of an error ratio
        orders = [math.log2(before / after) for before, after in zip(*errors[-2:])]
        assert all(map(orders_hold, orders)), (errors, orders)

    def test_second_alpha(self):
        # at alpha = 1/2 the weights x^alpha and x^(1 - alpha) are one, so
        # a slip between the exponents of the followers' gradient or penalty
        # weights shows only at another alpha: there it leaves the controls
        # about 100 % off and the sweeps unconverged
        errors = {}
        for n in (63, 127):
            cfg, star = manufactured_game(n, alpha=0.7)
            res = nash_solve(cfg)
            assert res.converged, n
            errors[n] = [control_norm(f - s, cfg.grid.alpha) / control_norm(s, cfg.grid.alpha)
                         for f, s in zip((res.f1_star, res.f2_star), star)]
        assert max(errors[127]) < 5e-3, errors  # 1.06e-3 and 3.18e-4 when written


class TestCertify:
    def test_equilibrium_certifies(self, mini_cfg):
        res = nash_solve(mini_cfg)
        ok, margin = certify(mini_cfg, res.f1_star, res.f2_star)
        assert ok
        jmax = max(res.j1, res.j2)
        assert margin >= -1e-8 * (1.0 + jmax)

    def test_perturbed_candidate_fails(self, mini_cfg):
        cfg = mini_cfg
        res = nash_solve(cfg)
        bump = next(bumps(cfg.grid, bump_family(1, seed=55)))
        bad = project_ball(GridFunction(cfg.grid, res.f1_star.values + 0.5 * bump.values), cfg.m1, cfg.omega1, cfg.grid.alpha)
        assert control_norm(bad - res.f1_star, cfg.grid.alpha) > 1e-3
        ok, margin = certify(cfg, bad, res.f2_star)
        assert not ok
        assert margin < 0

    def test_candidate_outside_the_ball_fails(self):
        # the free equilibrium's norms, 2.5e-4 and 2.8e-4, exceed M_i = 1e-4
        free = nash_solve(shipped_game(n=64))
        active = shipped_game(n=64, m1=1e-4, m2=1e-4)
        assert not certify(active, free.f1_star, free.f2_star)[0]
        assert nash_solve(active).certified

    @pytest.mark.parametrize("i", [1, 2])
    def test_candidate_off_its_region_fails(self, mini_cfg, i):
        res = nash_solve(mini_cfg)
        pair = [res.f1_star, res.f2_star]
        region = mini_cfg.follower(i)[0]
        vals = pair[i - 1].values.copy()
        vals[np.flatnonzero(~region.indicator)[0]] = 1e-9
        pair[i - 1] = GridFunction(mini_cfg.grid, vals)
        assert not certify(mini_cfg, *pair)[0]

    def test_non_finite_cost_fails(self):
        cfg = shipped_game(n=16, yd1={"kind": "sinsin", "amplitude": 1.0e200})
        z = GridFunction.zeros(cfg.grid)
        with np.errstate(over="ignore"):
            assert cost(cfg, 1, z, z) == math.inf
            ok, margin = certify(cfg, z, z)
        # follower 1's margins are inf - inf; follower 2's zero deviation
        # alone would report 0.0
        assert not ok
        assert math.isnan(margin)

    def test_non_finite_candidate_cost_fails_alone(self, monkeypatch):
        # J_i* = inf with finite deviation costs: every margin is -inf,
        # which meets -tol = -inf, so only the check of J_i* fails it
        cfg = shipped_game(n=16)
        z = GridFunction.zeros(cfg.grid)
        finite_cost = game_mod.cost
        monkeypatch.setattr(
            game_mod, "cost", lambda cfg, i, f1, f2: math.inf if f1 is f2 is z else finite_cost(cfg, i, f1, f2)
        )
        assert certify(cfg, z, z) == (False, -math.inf)

    def test_zero_radius_costs_one_deviation_per_follower(self, monkeypatch):
        # with M_i = 0 the zero control is the whole feasible set: one cost
        # at the candidate and one at the zero control per follower
        cfg = shipped_game(n=16, m1=0.0, m2=0.0)
        z = GridFunction.zeros(cfg.grid)
        calls = []
        counted = game_mod.cost
        monkeypatch.setattr(game_mod, "cost", lambda *args: calls.append(args) or counted(*args))
        assert certify(cfg, z, z) == (True, 0.0)
        assert len(calls) == 4

    def test_overflowing_deviation_passes(self):
        # deviations of norm 1e200 cost inf, a margin of +inf: worse for
        # the follower, so the equilibrium of radius 1 certifies again
        unit = nash_solve(shipped_game(n=16))
        with np.errstate(over="ignore", invalid="ignore"):
            res = nash_solve(shipped_game(n=16, m1=1e200, m2=1e200))
        assert res.certified and unit.certified
        assert np.array_equal(res.f1_star.values, unit.f1_star.values)
        assert res.certification_margin == unit.certification_margin == 1.0925893788085706e-07

    def test_non_finite_margin_reaches_a_loadable_report(self, tmp_path):
        run_cfg = parse_config((CONFIG_DIR / "benchmark_game.yaml").read_text())
        run_cfg.nx = run_cfg.ny = 16
        run_cfg.game["yd1"] = {"kind": "sinsin", "amplitude": 1.0e200}
        run_cfg.output_dir = str(tmp_path)
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(run_cfg).verdict == "fail"
        results = json.loads((tmp_path / "report.json").read_text())["results"]
        assert results["certified"] is False
        assert results["certification_margin"] == "nan"

    @pytest.mark.parametrize("game", list(GAMES.values()), ids=list(GAMES))
    def test_streamed_deviations_match_a_list(self, game):
        cfg = shipped_game(n=32, **game)
        z = GridFunction.zeros(cfg.grid)
        feasible = (
            feasible_random(cfg, cfg.omega1, cfg.m1, 5, scale=1e-3),
            feasible_random(cfg, cfg.omega2, cfg.m2, 6, scale=1e-3),
        )
        for pair in ((z, z), feasible):
            ok, margin = certify(cfg, *pair)
            ref_ok, ref_margin = _list_certify(cfg, *pair)
            assert (ok, _bits(margin)) == (ref_ok, _bits(ref_margin))

    def test_active_equilibrium_is_admissible_to_the_last_bit(self):
        # projected onto its ball, each control has norm M_i up to round-off;
        # 16 units of round-off more take it outside project_ball's rule
        cfg = shipped_game(n=32, m1=1e-4, m2=1e-4)
        res = nash_solve(cfg)
        for i, f in ((1, res.f1_star), (2, res.f2_star)):
            m = cfg.follower(i).m
            assert control_norm(f, cfg.grid.alpha) == pytest.approx(m, rel=1e-14, abs=0)
            assert _admissible(cfg, i, f)
            assert not _admissible(cfg, i, f * (1.0 + 16 * np.finfo(float).eps))

    def test_certify_holds_one_deviation_at_a_time(self):
        cfg = shipped_game(n=64)
        z = GridFunction.zeros(cfg.grid)
        # the first call builds the solver, its stores and the source
        certify(cfg, z, z)
        tracemalloc.start()
        try:
            certify(cfg, z, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # all 201 deviations of a follower held at once take about 6.4 MB
        assert peak < 4 * 8 * cfg.grid.n


class TestAdjointConsistency:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_transpose_pairing(self, seed):
        g = build_grid(9, 11, 0.5)
        A = assemble(g).matrix
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(g.n)
        p = rng.standard_normal(g.n)
        lhs = float((A @ u) @ p)
        rhs = float(u @ (A.T @ p))
        assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + abs(rhs) + 1.0)


class TestGameConfigValidation:
    def test_negative_radius_rejected(self, mini_cfg):
        with pytest.raises(ValueError):
            shipped_game(n=16, m1=-1.0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("m1", math.nan),
            ("m2", math.inf),
        ],
    )
    def test_unusable_value_rejected(self, name, value):
        cfg = shipped_game(n=16)
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(cfg, **{name: value})

    @pytest.mark.parametrize("name", ["omega", "omega1", "omega2", "g1_obs", "g2_obs", "g", "yd1", "yd2"])
    def test_value_on_another_grid_rejected(self, name):
        cfg = shipped_game(n=16)
        # same shape, other alpha: nothing downstream would notice
        other_alpha = dataclasses.replace(getattr(cfg, name), grid=build_grid(16, 16, 1.0))
        other_shape = getattr(shipped_game(n=24), name)
        for value in (other_alpha, other_shape):
            with pytest.raises(ValueError, match=rf"^{name} lives on"):
                dataclasses.replace(cfg, **{name: value})

    def test_equal_targets_warn(self):
        grid = build_grid(8, 8, 0.5)
        sin = GridFunction.from_callable(grid, lambda X, Y: np.sin(np.pi * X) * np.sin(np.pi * Y))
        with pytest.warns(UserWarning, match="targets coincide"):
            GameConfig(
                grid=grid,
                omega=rect_mask(grid, 0.1, 0.9, 0.1, 0.9),
                omega1=rect_mask(grid, 0.1, 0.5, 0.1, 0.9),
                omega2=rect_mask(grid, 0.5, 0.9, 0.1, 0.9),
                g1_obs=rect_mask(grid, 0.1, 0.9, 0.1, 0.5),
                g2_obs=rect_mask(grid, 0.1, 0.9, 0.5, 0.9),
                g=sin, yd1=sin, yd2=GridFunction(grid, sin.values.copy()), m1=1.0, m2=1.0,
            )

    def test_empty_region_rejected(self):
        grid = build_grid(8, 8, 0.5)
        sin = GridFunction.from_callable(grid, lambda X, Y: X)
        with pytest.raises(ValueError, match="no interior nodes"):
            GameConfig(
                grid=grid,
                omega=rect_mask(grid, 0.0, 0.01, 0.0, 0.01),  # no nodes inside
                omega1=rect_mask(grid, 0.1, 0.5, 0.1, 0.9),
                omega2=rect_mask(grid, 0.5, 0.9, 0.1, 0.9),
                g1_obs=rect_mask(grid, 0.1, 0.9, 0.1, 0.5),
                g2_obs=rect_mask(grid, 0.1, 0.9, 0.5, 0.9),
                g=sin, yd1=sin, yd2=2.0 * sin, m1=1.0, m2=1.0,
            )

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(GameConfig)])
    def test_fields_are_frozen(self, mini_cfg, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(mini_cfg, name, getattr(mini_cfg, name))

    def test_follower_index_validated(self, mini_cfg):
        with pytest.raises(ValueError):
            mini_cfg.follower(3)

    @pytest.mark.parametrize("i", [1, 2])
    def test_follower_record_is_built_once_and_read_only(self, mini_cfg, i):
        player = mini_cfg.follower(i)
        assert player is mini_cfg.follower(i)
        grid, ctrl, obs = mini_cfg.grid, player.ctrl.indicator, player.obs.indicator
        x = np.tile(grid.x, grid.ny)
        assert _bits(player.yd_obs) == _bits((mini_cfg.yd1, mini_cfg.yd2)[i - 1].values[obs])
        assert _bits(player.x_inv) == _bits(x[ctrl] ** -grid.alpha)
        assert _bits(player.x_pow) == _bits(x[ctrl] ** grid.alpha)
        assert not any(a.flags.writeable for a in (player.yd_obs, player.x_inv, player.x_pow))


class TestEquality:
    def test_shipped_control_regions_differ(self, mini_cfg):
        # the masks used to compare by grid alone, so these two were equal
        assert mini_cfg.omega1 != mini_cfg.omega2
        assert mini_cfg.omega1 == mini_cfg.omega1

    def test_game_config_compares_and_hashes_by_identity(self, mini_cfg):
        same_fields = dataclasses.replace(mini_cfg)
        assert mini_cfg == mini_cfg and mini_cfg != same_fields  # == used to raise ValueError
        assert len({mini_cfg, mini_cfg, same_fields}) == 2  # hash used to raise TypeError

    def test_nash_result_compares_by_identity(self, mini_cfg):
        zero = GridFunction.zeros(mini_cfg.grid)
        result = game_mod.NashResult(zero, zero, zero, 0.0, 0.0, 0, [], True, True, 0.0)
        assert result == result
        assert result != dataclasses.replace(result)  # used to raise ValueError


# Full-grid np.where references of the game's region arithmetic.


def _where_rhs(cfg, f1, f2):
    return (
        np.where(cfg.omega.indicator, cfg.g.values, 0.0)
        + np.where(cfg.omega1.indicator, f1.values, 0.0)
        + np.where(cfg.omega2.indicator, f2.values, 0.0)
    )


def _where_cost(cfg, i, f1, f2):
    ctrl, obs = cfg.follower(i)[:2]
    yd = (cfg.yd1, cfg.yd2)[i - 1]
    grid = cfg.grid
    y = cfg.solver.solve(_where_rhs(cfg, f1, f2), last_row=obs.top_row)
    tracking = float(grid.hx * grid.hy * np.sum(np.where(obs.indicator, y - yd.values, 0.0) ** 2))
    f_own = f1 if i == 1 else f2
    w = np.tile(grid.x ** -grid.alpha, grid.ny)
    penalty = grid.hx * grid.hy * float(np.sum(np.where(ctrl.indicator, f_own.values, 0.0) ** 2 * w))
    return tracking + penalty


def _where_gradient(cfg, i, f1, f2):
    ctrl, obs = cfg.follower(i)[:2]
    yd = (cfg.yd1, cfg.yd2)[i - 1]
    grid = cfg.grid
    y = cfg.solver.solve(_where_rhs(cfg, f1, f2), last_row=obs.top_row)
    p = cfg.solver.solve_adjoint(np.where(obs.indicator, 2.0 * (y - yd.values), 0.0))
    f_own = f1 if i == 1 else f2
    xa = np.tile(grid.x**grid.alpha, grid.ny)
    return np.where(ctrl.indicator, xa * p + 2.0 * f_own.values, 0.0)


# Region-sum references of the game's cost and deviation norms: each
# product on the region's nodes, gathered by its indicator, summed by np.sum.


def _region_weight(cfg, i, exponent):
    return np.tile(cfg.grid.x**exponent, cfg.grid.ny)[cfg.follower(i)[0].indicator]


def _region_cost(cfg, i, f1, f2):
    ctrl, obs = cfg.follower(i)[:2]
    yd = (cfg.yd1, cfg.yd2)[i - 1]
    grid = cfg.grid
    y = cfg.solver.solve(_where_rhs(cfg, f1, f2), last_row=obs.top_row)
    tracking = grid.hx * grid.hy * np.sum((y[obs.indicator] - yd.values[obs.indicator]) ** 2)
    f_own = f1 if i == 1 else f2
    w = _region_weight(cfg, i, -grid.alpha)
    penalty = grid.hx * grid.hy * np.sum(f_own.values[ctrl.indicator] ** 2 * w)
    return float(tracking + penalty)


def _region_deviations(cfg, i, rng):
    ctrl, _, m = cfg.follower(i)[:3]
    grid = cfg.grid
    w = _region_weight(cfg, i, -grid.alpha)
    out = [np.zeros(grid.n)]
    n = DEVIATION_SAMPLES
    for k in range(n):
        d = rng.standard_normal(int(ctrl.indicator.sum()))
        nd = math.sqrt(grid.hx * grid.hy * np.sum(w * d * d))
        radius = m if k < n // 2 else m * rng.uniform(0.0, 1.0)
        vals = np.zeros(grid.n)
        vals[ctrl.indicator] = d * (radius / nd)
        out.append(vals)
    return out


def _region_norm(region, values):
    """The norm of the control that is values on the region's nodes, from
    a full-grid array of zeros holding the weighted squares there."""
    g = region.grid
    full = np.zeros(g.n)
    full[region.nodes] = np.tile(g.x**-g.alpha, g.ny)[region.nodes] * values * values
    return math.sqrt(max(g.hx * g.hy * float(np.sum(full)), 0.0))


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _list_certify(cfg, f1, f2):
    """certify's verdict and minimum margin for an admissible candidate,
    from every deviation of a follower built before any is costed."""
    ok, margins = True, []
    for i in (1, 2):
        j_star = cost(cfg, i, f1, f2)
        for v in _region_deviations(cfg, i, np.random.default_rng([DEVIATION_SEED, i])):
            v = GridFunction(cfg.grid, v)
            margin = cost(cfg, i, *((v, f2) if i == 1 else (f1, v))) - j_star
            ok = ok and margin >= -1e-8 * (1.0 + j_star)
            margins.append(margin)
    return ok, min(margins)


class TestArrayLevelEquivalence:
    """The array-level game kernels reproduce the full-grid formulas they
    replaced bit for bit, the sign of every zero included; the costs and
    deviation norms, summed on their regions, reproduce the region-sum
    references bit for bit and the full-grid costs to round-off."""

    @pytest.fixture(scope="class")
    def cfg16(self):
        return shipped_game(n=16)

    def test_state_solve_matches_masked_sum(self, cfg16):
        g, f1, f2 = (random_field(cfg16.grid, s) for s in (1, 2, 3))
        cfg = dataclasses.replace(cfg16, g=g)
        rhs = cfg.omega.apply(g).values + cfg.omega1.apply(f1).values + cfg.omega2.apply(f2).values
        expected = cfg.solver.solve(rhs)
        assert np.array_equal(state_solve(cfg, f1, f2).values, expected)

    def test_state_solve_rejects_foreign_grid(self, cfg16):
        z = GridFunction.zeros(cfg16.grid)
        other = GridFunction.zeros(build_grid(16, 16, 1.0))
        # state_solve, cost and gradient name the control and both grids
        calls = (state_solve, lambda c, *f: cost(c, 1, *f), lambda c, *f: gradient(c, 2, *f))
        for name, args in (("f1", (other, z)), ("f2", (z, other))):
            text = f"{name} lives on {other.grid}, not on the game's grid {cfg16.grid}"
            for call in calls:
                with pytest.raises(ValueError, match=re.escape(text)):
                    call(cfg16, *args)

    @pytest.mark.parametrize("shape, alpha", [((16, 16), 0.5), ((16, 32), 1.0), ((7, 5), 0.25)])
    def test_control_inner_matches_2d_formula(self, shape, alpha):
        grid = build_grid(*shape, alpha)
        u, v = random_field(grid, 4), random_field(grid, 5)
        w = grid.x ** (-alpha)
        old = float(grid.hx * grid.hy * np.sum(w[None, :] * u.values2d() * v.values2d()))
        assert control_inner(u, v, alpha) == old

    @pytest.mark.parametrize("shape", [(7, 12), (12, 7)])
    @pytest.mark.parametrize("grid_alpha", [0.5, 1.0])
    def test_control_inner_has_the_bits_of_the_full_grid_sum(self, shape, grid_alpha):
        # at the grid's alpha and at another, in both call orders, on
        # fields with signed zeros; the row x^-alpha is kept per (grid, alpha)
        grid = build_grid(*shape, grid_alpha)
        values = np.random.default_rng(6).standard_normal((2, grid.n))
        values[0, ::3], values[0, 1::5] = -0.0, 0.0
        u, v = (GridFunction(grid, a) for a in values)
        for alpha in (grid_alpha, 0.3, grid_alpha, 0.3):
            for a, b in ((u, v), (v, u), (u, u)):
                want = grid.hx * grid.hy * np.sum(grid.x**-alpha * a.values2d() * b.values2d())
                assert np.float64(control_inner(a, b, alpha)).tobytes() == want.tobytes()
        row = _x_power(grid, -grid_alpha)
        assert row is _x_power(grid, -grid_alpha) and not row.flags.writeable

    def test_grids_of_one_shape_keep_their_own_row(self):
        # a row kept for one grid is never served to another grid of the
        # same shape with another alpha, whichever is paired first
        a, b = build_grid(9, 6, 0.5), build_grid(9, 6, 1.0)
        for first, second in ((a, b), (b, a)):
            for grid in (first, second):
                u = random_field(grid, 8)
                want = float(grid.hx * grid.hy * np.sum(grid.x**-grid.alpha * u.values2d() * u.values2d()))
                assert control_inner(u, u, grid.alpha) == want
        assert _x_power(a, -a.alpha) is not _x_power(b, -b.alpha)
        assert not np.array_equal(_x_power(a, -a.alpha), _x_power(b, -b.alpha))

    def test_state_solve_accepts_an_equal_grid_object(self, cfg16):
        # _rhs tests the grid by identity first, then by value
        twin = build_grid(cfg16.grid.nx, cfg16.grid.ny, cfg16.grid.alpha)
        assert twin is not cfg16.grid
        f1 = random_field(cfg16.grid, 9)
        want = state_solve(cfg16, f1, GridFunction.zeros(cfg16.grid)).values
        got = state_solve(cfg16, GridFunction(twin, f1.values), GridFunction.zeros(twin)).values
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "shape_u, alpha_u, shape_v, alpha_v",
        [((16, 16), 0.5, (16, 16), 1.0), ((16, 32), 0.5, (32, 16), 0.5)],
    )
    def test_control_inner_rejects_mixed_grids(self, shape_u, alpha_u, shape_v, alpha_v):
        u = GridFunction.zeros(build_grid(*shape_u, alpha_u))
        v = GridFunction.zeros(build_grid(*shape_v, alpha_v))
        with pytest.raises(ValueError, match="different grids"):
            control_inner(u, v, alpha_u)

    @pytest.mark.parametrize("i", [1, 2])
    def test_deviations_sampled_on_control_region(self, cfg16, i):
        cfg = cfg16
        region, _, m = cfg.follower(i)[:3]
        n = DEVIATION_SAMPLES
        devs = list(_feasible_deviations(cfg, i))
        assert len(devs) == n + 1
        assert np.all(devs[0].values == 0.0)
        alpha = cfg.grid.alpha
        for d in devs:
            assert not np.any(d.values[~region.indicator])
        for d in devs[1 : n // 2 + 1]:
            assert abs(control_norm(d, alpha) - m) <= 1e-12 * m
        for d in devs[n // 2 + 1 :]:
            assert control_norm(d, alpha) <= m * (1.0 + 1e-12)
        again = list(_feasible_deviations(cfg, i))
        assert all(np.array_equal(a.values, b.values) for a, b in zip(devs, again))

    @pytest.fixture(
        scope="class",
        params=list(GAMES.values()),
        ids=list(GAMES),
    )
    def cfg(self, request):
        return shipped_game(n=32, **request.param)

    @pytest.fixture(params=["zero", "random"])
    def controls(self, cfg, request):
        if request.param == "zero":
            return GridFunction.zeros(cfg.grid), GridFunction.zeros(cfg.grid)
        rng = np.random.default_rng(17)
        pair = []
        for _ in range(2):
            # values everywhere, so the masking matters, and some -0.0
            vals = rng.standard_normal(cfg.grid.n)
            vals[rng.random(cfg.grid.n) < 0.2] = -0.0
            pair.append(GridFunction(cfg.grid, vals))
        return tuple(pair)

    def test_state_right_hand_side(self, cfg, controls, monkeypatch):
        f1, f2 = controls
        # the leader's source with -0.0 at some nodes too
        vals = cfg.g.values.copy()
        vals[np.random.default_rng(18).random(cfg.grid.n) < 0.2] = -0.0
        g = GridFunction(cfg.grid, vals)
        game = dataclasses.replace(cfg, g=g)
        seen = []
        solve = game.solver.solve
        monkeypatch.setattr(
            game.solver, "solve", lambda rhs, last_row=None: seen.append(_bits(rhs)) or solve(rhs, last_row)
        )
        y = state_solve(game, f1, f2)
        cost(game, 1, f1, f2)
        expected = _where_rhs(game, f1, f2)
        # the solver takes the right-hand side as node values
        assert seen == [_bits(expected)] * 2
        assert _bits(y.values) == _bits(solve(expected))

    def test_source_follows_a_new_leader_source(self, cfg):
        z = GridFunction.zeros(cfg.grid)
        assert np.any(cfg.source != 0.0)
        game = dataclasses.replace(cfg, g=z)
        assert _bits(game.source) == _bits(z.values)
        assert _bits(cost(game, 1, z, z)) == _bits(_region_cost(game, 1, z, z))

    @pytest.mark.parametrize("i", [1, 2])
    def test_cost_and_gradient(self, cfg, controls, i):
        f1, f2 = controls
        assert _bits(cost(cfg, i, f1, f2)) == _bits(_region_cost(cfg, i, f1, f2))
        assert _bits(gradient(cfg, i, f1, f2).values) == _bits(_where_gradient(cfg, i, f1, f2))

    @pytest.mark.parametrize("i", [1, 2])
    def test_cost_within_round_off_of_the_where_formula(self, cfg, controls, i):
        # a dropped weight or a wrong region misses by O(1)
        f1, f2 = controls
        expected = _where_cost(cfg, i, f1, f2)
        assert abs(cost(cfg, i, f1, f2) - expected) <= 1e-14 * abs(expected)

    @pytest.mark.parametrize("i", [1, 2])
    def test_deviations_and_their_norms(self, cfg, i):
        got = list(_feasible_deviations(cfg, i))
        expected = _region_deviations(cfg, i, np.random.default_rng([DEVIATION_SEED, i]))
        assert [_bits(d.values) for d in got] == [_bits(d) for d in expected]

    @pytest.mark.parametrize("i", [1, 2])
    def test_control_norm_is_the_region_norm(self, cfg, controls, i):
        # _admissible reads control_norm once the support check has passed
        region = cfg.follower(i)[0]
        f = region.apply(controls[i - 1])
        assert _bits(control_norm(f, cfg.grid.alpha)) == _bits(_region_norm(region, f.values[region.nodes]))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("i", [1, 2])
    def test_admissible_reads_control_norm_to_the_last_bit(self, cfg, i, seed):
        # the least radius that admits f by project_ball's rule, and the
        # float below it, which does not: a norm that differs from
        # control_norm in its last bits fails one of the two
        region = cfg.follower(i)[0]
        f = region.apply(random_field(cfg.grid, seed))
        norm = control_norm(f, cfg.grid.alpha)
        m = norm / (1.0 + game_mod._FEAS_SLACK)
        while not game_mod._within_ball(norm, m):
            m = np.nextafter(m, math.inf)
        while game_mod._within_ball(norm, np.nextafter(m, 0.0)):
            m = np.nextafter(m, 0.0)
        assert _admissible(dataclasses.replace(cfg, **{f"m{i}": float(m)}), i, f)
        assert not _admissible(dataclasses.replace(cfg, **{f"m{i}": float(np.nextafter(m, 0.0))}), i, f)


class TestSolveCounts:
    """The solve and call counts of the benchmark's two game workloads at
    128x128, as scripts/bench_levels.py's counting() takes them; perfbench's
    self-test pins the solve counts too."""

    def test_shipped_game(self, counted):
        counts = counted["shipped"]
        assert (counts["forward_solves"], counts["adjoint_solves"]) == (487, 36)
        assert (counts["cost_calls"], counts["gradient_calls"]) == (450, 36)
        assert (counts["certify_cost_calls"], counts["certify_forward_solves"]) == (404, 404)

    def test_active_game(self, counted):
        counts = counted["active"]
        assert (counts["forward_solves"], counts["adjoint_solves"]) == (431, 12)
        assert (counts["cost_calls"], counts["gradient_calls"]) == (418, 12)
        assert (counts["certify_cost_calls"], counts["certify_forward_solves"]) == (404, 404)
        assert (counts["forward_rows"], counts["adjoint_rows"]) == (19_230, 552)
