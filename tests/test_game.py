import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import degenash.game as game_mod
import degenash.operators as operators
from conftest import random_field, shipped_game
from degenash.fields import bump_from_parameters, bump_parameter_sets
from degenash.game import (
    BR_TOL,
    DEVIATION_SAMPLES,
    BestResponseError,
    GameConfig,
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
from degenash.grid import GridFunction, build_grid, rect_mask
from degenash.operators import assemble


@pytest.fixture(scope="module")
def mini_cfg():
    """Benchmark geometry on a cheap 24x24 grid."""
    return shipped_game(n=24, seed=77)


def feasible_random(cfg, mask, m, seed, scale=0.3):
    f = GridFunction(cfg.grid, np.random.default_rng(seed).standard_normal(cfg.grid.n) * scale)
    return project_ball(f, m, mask, cfg.grid.alpha)


class TestStateSolve:
    def test_all_zero(self, mini_cfg):
        z = GridFunction.zeros(mini_cfg.grid)
        y = state_solve(mini_cfg, z, z, z)
        assert np.all(y.values == 0.0)

    def test_superposition(self, mini_cfg):
        cfg = mini_cfg
        rng = np.random.default_rng(3)
        g = GridFunction(cfg.grid, rng.standard_normal(cfg.grid.n))
        f1 = GridFunction(cfg.grid, rng.standard_normal(cfg.grid.n))
        f2 = GridFunction(cfg.grid, rng.standard_normal(cfg.grid.n))
        z = GridFunction.zeros(cfg.grid)
        y_all = state_solve(cfg, g, f1, f2)
        y_sum = state_solve(cfg, g, z, z) + state_solve(cfg, z, f1, z) + state_solve(cfg, z, z, f2)
        scale = np.linalg.norm(y_all.values) + 1.0
        assert np.linalg.norm(y_all.values - y_sum.values) <= 1e-10 * scale

    def test_masked_source_outside_region_is_inert(self, mini_cfg):
        cfg = mini_cfg
        z = GridFunction.zeros(cfg.grid)
        # f1 supported entirely outside omega1
        outside = rect_mask(cfg.grid, 0.0, 0.35, 0.0, 1.0)
        f1 = outside.apply(GridFunction(cfg.grid, np.ones(cfg.grid.n)))
        assert not np.any(cfg.omega1.indicator & (f1.values != 0.0))
        y = state_solve(cfg, z, f1, z)
        assert np.all(y.values == 0.0)


class TestCost:
    def test_penalty_free_when_matched(self, mini_cfg):
        cfg = mini_cfg
        z = GridFunction.zeros(cfg.grid)
        y = state_solve(cfg, cfg.g, z, z)
        matched = GameConfig(
            grid=cfg.grid, omega=cfg.omega, omega1=cfg.omega1, omega2=cfg.omega2,
            g1_obs=cfg.g1_obs, g2_obs=cfg.g2_obs, g=cfg.g, yd1=y, yd2=cfg.yd2,
            m1=cfg.m1, m2=cfg.m2, seed=cfg.seed,
        )
        assert cost(matched, 1, z, z) == 0.0

    def test_zero_controls_tracking_only(self, mini_cfg):
        cfg = mini_cfg
        z = GridFunction.zeros(cfg.grid)
        y = state_solve(cfg, cfg.g, z, z)
        g = cfg.grid
        expected = g.hx * g.hy * float(
            np.sum(np.where(cfg.g1_obs.indicator, y.values - cfg.yd1.values, 0.0) ** 2)
        )
        assert cost(cfg, 1, z, z) == pytest.approx(expected, rel=1e-14)

    def test_quadratic_homogeneity_with_zero_data(self):
        # with g = 0 and zero targets the whole cost is 2-homogeneous
        cfg = shipped_game(n=16, seed=5)
        zero = GridFunction.zeros(cfg.grid)
        cfg.g = zero
        cfg.yd1 = zero
        cfg.yd2 = 0.0 * cfg.yd2  # keep targets distinct objects
        f1 = feasible_random(cfg, cfg.omega1, cfg.m1, seed=8)
        f2 = feasible_random(cfg, cfg.omega2, cfg.m2, seed=9)
        j1 = cost(cfg, 1, f1, f2)
        j4 = cost(cfg, 1, 2.0 * f1, f2)
        assert j4 == pytest.approx(4.0 * j1, rel=1e-12)


class TestGradient:
    def test_zero_mismatch_zero_gradient(self, mini_cfg):
        cfg = mini_cfg
        z = GridFunction.zeros(cfg.grid)
        y = state_solve(cfg, cfg.g, z, z)
        matched = GameConfig(
            grid=cfg.grid, omega=cfg.omega, omega1=cfg.omega1, omega2=cfg.omega2,
            g1_obs=cfg.g1_obs, g2_obs=cfg.g2_obs, g=cfg.g, yd1=y, yd2=cfg.yd2,
            m1=cfg.m1, m2=cfg.m2, seed=cfg.seed,
        )
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
                    jp, jm = cost(cfg, 1, f1 + eps * d, f2), cost(cfg, 1, f1 - eps * d, f2)
                else:
                    jp, jm = cost(cfg, 2, f1, f2 + eps * d), cost(cfg, 2, f1, f2 - eps * d)
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


class TestBestResponse:
    def test_zero_radius_returns_zero(self, mini_cfg):
        cfg = shipped_game(n=16, m1=0.0, seed=3)
        out = best_response(cfg, 1, GridFunction.zeros(cfg.grid))
        assert np.all(out.values == 0.0)

    def test_global_minimum_at_zero(self):
        # g = 0 and zero targets: J_i(0) = 0 is the global minimum
        cfg = shipped_game(n=16, seed=3)
        zero = GridFunction.zeros(cfg.grid)
        cfg.g = zero
        cfg.yd1 = zero
        cfg.yd2 = GridFunction.zeros(cfg.grid)
        out = best_response(cfg, 1, zero)
        assert np.all(out.values == 0.0)

    def test_monotone_descent_and_feasible_iterates(self, mini_cfg):
        cfg = mini_cfg
        trace = []
        f2 = feasible_random(cfg, cfg.omega2, cfg.m2, seed=31)
        out = best_response(cfg, 1, f2, trace=trace)
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert control_norm(out, cfg.grid.alpha) <= cfg.m1 + 1e-12

    def test_variational_inequality_oracle(self, mini_cfg):
        cfg = mini_cfg
        f2 = feasible_random(cfg, cfg.omega2, cfg.m2, seed=41)
        f_star = best_response(cfg, 1, f2)
        grad = gradient(cfg, 1, f_star, f2)
        rng = np.random.default_rng(42)
        for _ in range(50):
            v = cfg.omega1.apply(GridFunction(cfg.grid, rng.standard_normal(cfg.grid.n)))
            v = project_ball(v * rng.uniform(0.0, 2.0), cfg.m1, cfg.omega1, cfg.grid.alpha)
            assert control_inner(grad, v - f_star, cfg.grid.alpha) >= -1e-6


class TestNashSolve:
    def test_singleton_feasible_sets(self):
        cfg = shipped_game(n=16, m1=0.0, m2=0.0, seed=9)
        res = nash_solve(cfg)
        assert np.all(res.f1_star.values == 0.0) and np.all(res.f2_star.values == 0.0)
        assert res.converged and res.certified
        assert res.certification_margin == 0.0
        assert res.br_iterations == 1

    def test_weak_coupling_fast_convergence(self):
        cfg = shipped_game(n=24, seed=13)
        cfg.g = GridFunction.zeros(cfg.grid)
        res = nash_solve(cfg)
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
        b1 = best_response(mini_cfg, 1, res.f2_star)
        b2 = best_response(mini_cfg, 2, res.f1_star)
        assert control_norm(b1 - res.f1_star, alpha) <= 10 * BR_TOL
        assert control_norm(b2 - res.f2_star, alpha) <= 10 * BR_TOL

    def test_inner_cap_reported_not_raised(self, monkeypatch):
        cfg = shipped_game(n=16, seed=5)
        monkeypatch.setattr(game_mod, "INNER_MAX_ITERS", 1)
        with pytest.raises(BestResponseError) as err:
            best_response(cfg, 1, GridFunction.zeros(cfg.grid))
        res = nash_solve(cfg)
        assert not res.converged
        assert res.br_iterations == 1
        assert res.br_residuals == [err.value.residual]
        assert np.all(res.f1_star.values == 0.0) and np.all(res.f2_star.values == 0.0)
        assert math.isfinite(res.j1) and math.isfinite(res.j2)

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


def _result_bits(res):
    arrays = (res.f1_star, res.f2_star, res.state)
    floats = (res.j1, res.j2, res.certification_margin, *res.br_residuals)
    return [a.values.tobytes() for a in arrays] + [repr(v) for v in floats]


class TestMarchReuse:
    @pytest.mark.parametrize("game", [{}, {"m1": 1e-4, "m2": 1e-4}, COUPLED], ids=["shipped", "active", "coupled"])
    def test_equilibrium_equals_fresh_full_marches(self, monkeypatch, game):
        reused = nash_solve(shipped_game(n=32, **game))
        march = operators._YMarch.solve

        def fresh(self, rhs, trans="N", last_row=None):
            self._last.clear()
            return march(self, rhs, trans)

        monkeypatch.setattr(operators._YMarch, "solve", fresh)
        assert _result_bits(reused) == _result_bits(nash_solve(shipped_game(n=32, **game)))

    def test_shipped_game_marches_few_rows(self, monkeypatch):
        # 29,812 rows when every solve marches from its first nonzero row to y = 1
        calls = []
        original = operators.dpttrs
        monkeypatch.setattr(operators, "dpttrs", lambda *args: calls.append(1) or original(*args))
        nash_solve(shipped_game(n=64))
        assert len(calls) <= 12_000


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
        bump = bump_from_parameters(cfg.grid, bump_parameter_sets(1, seed=55)[0])
        bad = project_ball(res.f1_star + 0.5 * bump, cfg.m1, cfg.omega1, cfg.grid.alpha)
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
        pair = [res.f1_star.copy(), res.f2_star.copy()]
        region = mini_cfg.follower(i)[0]
        pair[i - 1].values[np.flatnonzero(~region.indicator)[0]] = 1e-9
        assert not certify(mini_cfg, *pair)[0]

    def test_non_finite_cost_fails(self):
        cfg = shipped_game(n=16, yd1={"kind": "sinsin", "amplitude": 1.0e200})
        z = GridFunction.zeros(cfg.grid)
        with np.errstate(over="ignore"):
            assert cost(cfg, 1, z, z) == math.inf
            ok, _ = certify(cfg, z, z)
        assert not ok


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
            shipped_game(n=16, m1=-1.0, seed=1)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("m1", math.nan),
            ("m2", math.inf),
            ("seed", -3),
            ("seed", 1.5),
            ("seed", True),
            ("seed", "7"),
        ],
    )
    def test_unusable_value_rejected(self, name, value):
        cfg = shipped_game(n=16, seed=1)
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(cfg, **{name: value})

    @pytest.mark.parametrize("name", ["omega", "omega1", "omega2", "g1_obs", "g2_obs", "g", "yd1", "yd2"])
    def test_value_on_another_grid_rejected(self, name):
        cfg = shipped_game(n=16, seed=1)
        # same shape, other alpha: nothing downstream would notice
        other_alpha = dataclasses.replace(getattr(cfg, name), grid=build_grid(16, 16, 1.0))
        other_shape = getattr(shipped_game(n=24, seed=1), name)
        for value in (other_alpha, other_shape):
            with pytest.raises(ValueError, match=rf"^{name} lives on"):
                dataclasses.replace(cfg, **{name: value})

    @pytest.mark.parametrize("seed", [0, 2**40, np.int64(5)])
    def test_integer_seed_accepted(self, seed):
        cfg = shipped_game(n=16, seed=1)
        assert dataclasses.replace(cfg, seed=seed).seed == seed

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
                g=sin, yd1=sin, yd2=sin.copy(), m1=1.0, m2=1.0, seed=0,
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
                g=sin, yd1=sin, yd2=2.0 * sin, m1=1.0, m2=1.0, seed=0,
            )

    def test_follower_index_validated(self, mini_cfg):
        with pytest.raises(ValueError):
            mini_cfg.follower(3)


# omega1 overlaps omega and omega2
OVERLAP = {"omega1": [0.2, 0.6, 0.1, 0.7], "omega2": [0.4, 0.8, 0.5, 0.9]}


# Full-grid np.where references of the game's region arithmetic.


def _where_rhs(cfg, g, f1, f2):
    return (
        np.where(cfg.omega.indicator, g.values, 0.0)
        + np.where(cfg.omega1.indicator, f1.values, 0.0)
        + np.where(cfg.omega2.indicator, f2.values, 0.0)
    )


def _where_cost(cfg, i, f1, f2):
    ctrl, obs, yd, _ = cfg.follower(i)
    grid = cfg.grid
    y = cfg.solver.solve(_where_rhs(cfg, cfg.g, f1, f2), last_row=obs.top_row)
    tracking = float(grid.hx * grid.hy * np.sum(np.where(obs.indicator, y - yd.values, 0.0) ** 2))
    f_own = f1 if i == 1 else f2
    w = np.repeat(grid.x ** -grid.alpha, grid.ny)
    penalty = grid.hx * grid.hy * float(np.sum(np.where(ctrl.indicator, f_own.values, 0.0) ** 2 * w))
    return tracking + penalty


def _where_gradient(cfg, i, f1, f2):
    ctrl, obs, yd, _ = cfg.follower(i)
    grid = cfg.grid
    y = cfg.solver.solve(_where_rhs(cfg, cfg.g, f1, f2), last_row=obs.top_row)
    p = cfg.solver.solve_adjoint(np.where(obs.indicator, 2.0 * (y - yd.values), 0.0))
    f_own = f1 if i == 1 else f2
    xa = np.repeat(grid.x**grid.alpha, grid.ny)
    return np.where(ctrl.indicator, xa * p + 2.0 * f_own.values, 0.0)


def _where_deviations(cfg, i, rng):
    ctrl, _, _, m = cfg.follower(i)
    out = [np.zeros(cfg.grid.n)]
    n = DEVIATION_SAMPLES
    for k in range(n):
        vals = np.zeros(cfg.grid.n)
        vals[ctrl.indicator] = rng.standard_normal(int(ctrl.indicator.sum()))
        d = GridFunction(cfg.grid, vals)
        nd = control_norm(d, cfg.grid.alpha)
        if nd == 0.0:
            continue
        radius = m if k < n // 2 else m * rng.uniform(0.0, 1.0)
        out.append((d * (radius / nd)).values)
    return out


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestArrayLevelEquivalence:
    """The array-level game kernels reproduce the full-grid formulas they
    replaced bit for bit, the sign of every zero included."""

    @pytest.fixture(scope="class")
    def cfg16(self):
        return shipped_game(n=16, seed=9)

    def test_state_solve_matches_masked_sum(self, cfg16):
        cfg = cfg16
        g, f1, f2 = (random_field(cfg.grid, s) for s in (1, 2, 3))
        rhs = cfg.omega.apply(g) + cfg.omega1.apply(f1) + cfg.omega2.apply(f2)
        expected = cfg.solver.solve(rhs.values)
        assert np.array_equal(state_solve(cfg, g, f1, f2).values, expected)

    def test_state_solve_rejects_foreign_grid(self, cfg16):
        z = GridFunction.zeros(cfg16.grid)
        other = GridFunction.zeros(build_grid(16, 16, 1.0))
        for args in ((other, z, z), (z, other, z), (z, z, other)):
            with pytest.raises(ValueError, match="different grids"):
                state_solve(cfg16, *args)

    @pytest.mark.parametrize("shape, alpha", [((16, 16), 0.5), ((16, 32), 1.0), ((7, 5), 0.25)])
    def test_control_inner_matches_2d_formula(self, shape, alpha):
        grid = build_grid(*shape, alpha)
        u, v = random_field(grid, 4), random_field(grid, 5)
        w = grid.x ** (-alpha)
        old = float(grid.hx * grid.hy * np.sum(w[:, None] * u.values2d() * v.values2d()))
        assert control_inner(u, v, alpha) == old

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
        region, _, _, m = cfg.follower(i)
        n = DEVIATION_SAMPLES
        devs = _feasible_deviations(cfg, i, np.random.default_rng([cfg.seed, i]))
        assert len(devs) == n + 1
        assert np.all(devs[0].values == 0.0)
        alpha = cfg.grid.alpha
        for d in devs:
            assert not np.any(d.values[~region.indicator])
        for d in devs[1 : n // 2 + 1]:
            assert abs(control_norm(d, alpha) - m) <= 1e-12 * m
        for d in devs[n // 2 + 1 :]:
            assert control_norm(d, alpha) <= m * (1.0 + 1e-12)
        again = _feasible_deviations(cfg, i, np.random.default_rng([cfg.seed, i]))
        assert all(np.array_equal(a.values, b.values) for a, b in zip(devs, again))

    @pytest.fixture(
        scope="class",
        params=[{}, {"m1": 1e-4, "m2": 1e-4}, COUPLED, OVERLAP],
        ids=["shipped", "active", "coupled", "overlap"],
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
        g = cfg.g.copy()
        g.values[np.random.default_rng(18).random(cfg.grid.n) < 0.2] = -0.0
        game = dataclasses.replace(cfg, g=g)
        seen = []
        solve = game.solver.solve
        monkeypatch.setattr(
            game.solver, "solve", lambda rhs, last_row=None: seen.append(_bits(rhs)) or solve(rhs, last_row)
        )
        y = state_solve(game, g, f1, f2)
        cost(game, 1, f1, f2)
        expected = _where_rhs(game, g, f1, f2)
        assert seen == [_bits(expected)] * 2
        assert _bits(y.values) == _bits(solve(expected))

    def test_source_follows_a_new_leader_source(self, cfg):
        game = dataclasses.replace(cfg)
        z = GridFunction.zeros(cfg.grid)
        assert np.any(game.source != 0.0)
        game.g = z
        assert _bits(game.source) == _bits(z.values)
        assert cost(game, 1, z, z) == _where_cost(game, 1, z, z)

    @pytest.mark.parametrize("i", [1, 2])
    def test_cost_and_gradient(self, cfg, controls, i):
        f1, f2 = controls
        assert _bits(cost(cfg, i, f1, f2)) == _bits(_where_cost(cfg, i, f1, f2))
        assert _bits(gradient(cfg, i, f1, f2).values) == _bits(_where_gradient(cfg, i, f1, f2))

    @pytest.mark.parametrize("i", [1, 2])
    def test_deviations_and_their_norms(self, cfg, i):
        got = _feasible_deviations(cfg, i, np.random.default_rng([cfg.seed, i]))
        expected = _where_deviations(cfg, i, np.random.default_rng([cfg.seed, i]))
        assert [_bits(d.values) for d in got] == [_bits(d) for d in expected]
