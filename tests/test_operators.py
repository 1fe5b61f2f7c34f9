import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import degenash.operators as operators
from conftest import random_field, shipped_game
from degenash.fields import bump_parameter_sets, bump_from_parameters, manufactured_pair
from degenash.grid import GridFunction, build_grid, weighted_inner
from degenash.operators import (
    DirichletSolver,
    SolverError,
    _diff_along,
    _YMarch,
    assemble,
    dx,
    dy,
    solve_dirichlet,
    theta_weak_form_residual,
    weak_form_residual,
)


def interior_rows(grid, x_margin=1, y_lo=1, y_hi=0):
    """Flat indices of nodes at least x_margin/y_lo/y_hi nodes away from
    the respective boundaries."""
    idx = []
    for i in range(x_margin, grid.nx - x_margin):
        for j in range(y_lo, grid.ny - y_hi):
            idx.append(i * grid.ny + j)
    return np.array(idx)


class TestAssemble:
    def test_five_point_stencil(self, small_grid):
        op = assemble(small_grid)
        nnz_per_row = np.diff(op.matrix.indptr)
        assert nnz_per_row.max() <= 5
        assert op.matrix.shape == (small_grid.n, small_grid.n)

    def test_upwind_row_matches_hand_stencil(self):
        g = build_grid(5, 5, 0.5)
        op = assemble(g)
        i, j = 2, 2
        row = op.matrix.getrow(i * g.ny + j).toarray().ravel()
        c = g.x[i] ** 0.5
        expected = {
            (i, j): 1.0 / g.hx**2 + c / g.hy,
            (i - 1, j): -0.5 / g.hx**2,
            (i + 1, j): -0.5 / g.hx**2,
            (i, j - 1): -c / g.hy,
        }
        for (ii, jj), val in expected.items():
            assert row[ii * g.ny + jj] == pytest.approx(val, rel=1e-14)
        assert np.count_nonzero(row) == 4

    def test_constant_annihilated_away_from_boundary(self, small_grid):
        op = assemble(small_grid)
        one = GridFunction(small_grid, np.ones(small_grid.n))
        Au = op.apply(one).values
        assert np.max(np.abs(Au[interior_rows(small_grid)])) < 1e-10

    def test_quadratic_diffusion_exact(self, small_grid):
        # -1/2 (x(1-x))'' = 1, no y-dependence: centered differencing is
        # exact for quadratics
        op = assemble(small_grid)
        u = GridFunction.from_callable(small_grid, lambda X, Y: X * (1 - X))
        Au = op.apply(u).values
        assert np.allclose(Au[interior_rows(small_grid)], 1.0, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(
        nx=st.integers(2, 40),
        ny=st.integers(2, 40),
        alpha=st.floats(0.0, 1.0, exclude_min=True),
        seed=st.integers(0, 10**6),
        zero=st.booleans(),
    )
    def test_stencil_apply_is_the_matvec_bit_for_bit(self, nx, ny, alpha, seed, zero):
        g = build_grid(nx, ny, alpha)
        op = assemble(g)
        u = GridFunction.zeros(g) if zero else random_field(g, seed)
        assert op.apply(u).values.tobytes() == (op.matrix @ u.values).tobytes()

    @pytest.mark.parametrize("other", [build_grid(32, 16, 0.5), build_grid(16, 32, 1.0)])
    def test_apply_rejects_foreign_grid(self, other):
        op = assemble(build_grid(16, 32, 0.5))
        with pytest.raises(ValueError, match="different grid"):
            op.apply(GridFunction.zeros(other))

class TestSolve:
    def test_zero_rhs_zero_solution(self, small_grid):
        op = assemble(small_grid)
        u, rep = solve_dirichlet(op, GridFunction.zeros(small_grid))
        assert np.all(u.values == 0.0)
        assert rep.residual_norm == 0.0
        assert rep.iterations == 0

    def test_residual_contract(self, small_grid):
        op = assemble(small_grid)
        f = GridFunction.from_callable(small_grid, lambda X, Y: np.sin(3 * X + Y))
        u, rep = solve_dirichlet(op, f, tol=1e-10)
        scale = max(1.0, float(np.linalg.norm(f.values)))
        assert rep.residual_norm <= 1e-10 * scale

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6), a=st.floats(-3, 3), b=st.floats(-3, 3))
    def test_linearity(self, seed, a, b):
        g = build_grid(10, 10, 0.5)
        op = assemble(g)
        f1 = random_field(g, seed)
        f2 = random_field(g, seed + 1)
        u12, _ = solve_dirichlet(op, a * f1 + b * f2)
        u1, _ = solve_dirichlet(op, f1)
        u2, _ = solve_dirichlet(op, f2)
        scale = abs(a) * np.linalg.norm(f1.values) + abs(b) * np.linalg.norm(f2.values) + 1.0
        diff = np.linalg.norm(u12.values - a * u1.values - b * u2.values)
        assert diff <= 1e-9 * scale

    def test_residual_norm_does_not_depend_on_blas_threads(self):
        # at 512^2 a threaded BLAS dot product rounds ||A u - f|| differently
        # from a single-threaded one; at 128^2 and 256^2 both agree
        code = (
            "from degenash.fields import named_field\n"
            "from degenash.grid import build_grid\n"
            "from degenash.operators import assemble, solve_dirichlet\n"
            "g = build_grid(512, 512, 0.5)\n"
            "print(repr(solve_dirichlet(assemble(g), named_field(g, 'sinsin', 1.0))[1].residual_norm))\n"
        )
        src = str(Path(operators.__file__).resolve().parent.parent)
        printed = set()
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            printed.add(proc.stdout)
        assert len(printed) == 1, printed

    def test_library_imports_no_sparse_solver(self):
        # every solve is the march, so no SuperLU factorization is reachable
        code = "import sys, degenash, degenash.cli\nassert 'scipy.sparse.linalg' not in sys.modules\n"
        src = str(Path(operators.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_invalid_tol(self, small_grid):
        op = assemble(small_grid)
        with pytest.raises(ValueError):
            solve_dirichlet(op, GridFunction.zeros(small_grid), tol=0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_nonfinite_tol_rejected(self, small_grid, tol):
        op = assemble(small_grid)
        with pytest.raises(ValueError, match="finite"):
            solve_dirichlet(op, GridFunction.zeros(small_grid), tol=tol)

    def test_unattainable_tol_raises_solver_error(self, small_grid):
        op = assemble(small_grid)
        f = GridFunction.from_callable(small_grid, lambda X, Y: np.sin(3 * X + Y))
        with pytest.raises(SolverError) as err:
            solve_dirichlet(op, f, tol=1e-300)
        assert math.isfinite(err.value.residual) and err.value.residual > 0.0

    def test_contract_is_one_check(self, small_grid, monkeypatch):
        # below the round-off floor the one march solve is checked and
        # reported, never refined
        op = assemble(small_grid)
        f = GridFunction.from_callable(small_grid, lambda X, Y: np.sin(3 * X + Y))
        u = GridFunction(small_grid, DirichletSolver(op).solve(f.values))
        floor = operators.euclidean_norm(op.apply(u).values - f.values)
        calls = []
        original = _YMarch.solve
        monkeypatch.setattr(_YMarch, "solve", lambda self, *args, **kw: calls.append(1) or original(self, *args, **kw))
        with pytest.raises(SolverError) as err:
            solve_dirichlet(op, f, tol=1e-300)
        assert len(calls) == 1
        assert err.value.residual == floor

    def test_manufactured_error_shrinks(self):
        errs = []
        for n in (16, 32):
            g = build_grid(n, n, 0.5)
            u_exact, f = manufactured_pair(g)
            u, _ = solve_dirichlet(assemble(g), f)
            errs.append(np.max(np.abs(u.values - u_exact.values)))
        assert 1.5 <= errs[0] / errs[1] <= 2.6

    def test_discrete_maximum_principle_upwind(self):
        g = build_grid(24, 24, 0.5)
        op = assemble(g)
        rng = np.random.default_rng(11)
        f = GridFunction(g, -np.abs(rng.standard_normal(g.n)))
        u, _ = solve_dirichlet(op, f)
        assert np.max(u.values) <= 1e-12


def _assert_march_matches_superlu(op, rhs):
    """Forward and adjoint march solves of rhs equal spsolve on A and A^T."""
    solver = DirichletSolver(op)
    A = op.matrix.tocsc()
    for got, ref in (
        (solver.solve(rhs), spla.spsolve(A, rhs)),
        (solver.solve_adjoint(rhs), spla.spsolve(A.T.tocsc(), rhs)),
    ):
        assert got.shape == rhs.shape
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def _random_rhs(nx, ny, alpha, seed, columns=None):
    op = assemble(build_grid(nx, ny, alpha))
    shape = (op.grid.n,) if columns is None else (op.grid.n, columns)
    return op, np.random.default_rng(seed).standard_normal(shape)


class TestYMarch:
    @pytest.mark.parametrize(
        "nx,ny,alpha,columns",
        [(2, 2, 0.25, None), (2, 2, 1.0, None), (7, 19, 0.25, None), (23, 6, 1.0, None), (9, 14, 0.5, 3)],
    )
    def test_matches_superlu(self, nx, ny, alpha, columns):
        _assert_march_matches_superlu(*_random_rhs(nx, ny, alpha, nx * ny, columns))

    @settings(max_examples=20, deadline=None)
    @given(
        nx=st.integers(2, 24),
        ny=st.integers(2, 24),
        alpha=st.floats(0.05, 1.0),
        seed=st.integers(0, 10**6),
    )
    def test_matches_superlu_property(self, nx, ny, alpha, seed):
        _assert_march_matches_superlu(*_random_rhs(nx, ny, alpha, seed))

    @pytest.mark.parametrize("columns", [None, 3])
    def test_zero_rows_skipped(self, columns):
        # rows y_0..y_3 and y_9..y_13 are zero: the forward march starts at
        # y_4, the adjoint march at y_8, and the rows before each start
        # solve to exact zeros
        op, rhs = _random_rhs(11, 14, 0.5, 5, columns)
        by_row = rhs.reshape(11, 14, -1)
        by_row[:, :4] = 0.0
        by_row[:, 9:] = 0.0
        _assert_march_matches_superlu(op, rhs)
        solver = DirichletSolver(op)
        forward = solver.solve(rhs).reshape(by_row.shape)
        adjoint = solver.solve_adjoint(rhs).reshape(by_row.shape)
        assert np.all(forward[:, :4] == 0.0) and np.all(forward[:, 4] != 0.0)
        assert np.all(adjoint[:, 9:] == 0.0) and np.all(adjoint[:, 8] != 0.0)

    @pytest.mark.parametrize("columns", [None, 3])
    def test_zero_rhs_solves_to_zero(self, columns):
        op, rhs = _random_rhs(6, 5, 0.5, 0, columns)
        rhs[:] = 0.0
        _assert_march_matches_superlu(op, rhs)
        solver = DirichletSolver(op)
        assert np.all(solver.solve(rhs) == 0.0) and np.all(solver.solve_adjoint(rhs) == 0.0)

    @pytest.mark.parametrize("length", [12 * 12 - 1, 2 * 12 * 12])
    def test_wrong_length_rejected(self, small_grid, length):
        solver = DirichletSolver(assemble(small_grid))
        with pytest.raises(ValueError):
            solver.solve(np.ones(length))
        with pytest.raises(ValueError):
            solver.solve_adjoint(np.ones(length))


def _rows_read(trans, last_row):
    """The y-rows a solve with this bound holds, as a slice of axis 1."""
    if last_row is None:
        return np.s_[:]
    return np.s_[: last_row + 1] if trans == "N" else np.s_[last_row:]


class TestMarchReuse:
    NX, NY = 9, 11

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 10**6))
    def test_reused_rows_equal_a_fresh_march(self, data, seed):
        # each right-hand side equals the last one of its direction and
        # column count except from a random row on in march order (a
        # change row of ny is an exact repeat), and carries a random bound
        nx, ny = self.NX, self.NY
        grid = build_grid(nx, ny, 0.5)
        march = _YMarch(grid)
        rng = np.random.default_rng(seed)
        last: dict = {}
        steps = data.draw(st.lists(st.tuples(
            st.sampled_from("NT"), st.sampled_from([1, 3]), st.integers(0, ny),
            st.one_of(st.none(), st.integers(0, ny - 1)), st.booleans(),
        ), min_size=1, max_size=12))
        for trans, k, change, last_row, zero in steps:
            rhs = last.get((trans, k), np.zeros((nx, ny, k))).copy()
            changed = np.s_[:, change:] if trans == "N" else np.s_[:, : ny - change]
            rhs[changed] = 0.0 if zero else rng.standard_normal(rhs[changed].shape)
            last[trans, k] = rhs
            flat = rhs.reshape(nx * ny) if k == 1 else rhs.reshape(nx * ny, k)
            got = march.solve(flat, trans, last_row).reshape(nx, ny, k)
            fresh = _YMarch(grid).solve(flat, trans, last_row).reshape(nx, ny, k)
            full = _YMarch(grid).solve(flat, trans).reshape(nx, ny, k)
            read = _rows_read(trans, last_row)
            assert np.array_equal(got, fresh)
            assert np.array_equal(got[:, read], full[:, read])
            unread = np.ones(ny, dtype=bool)
            unread[read] = False
            assert np.all(got[:, unread] == 0.0)

    def test_rows_marched(self, monkeypatch):
        calls = []
        original = operators.dpttrs
        monkeypatch.setattr(operators, "dpttrs", lambda *args: calls.append(1) or original(*args))
        nx, ny = self.NX, self.NY
        march = _YMarch(build_grid(nx, ny, 0.5))
        rng = np.random.default_rng(4)

        def marched(rhs, trans="N", last_row=None):
            calls.clear()
            march.solve(rhs, trans, last_row)
            return len(calls)

        assert marched(np.zeros(nx * ny)) == 0
        rhs = rng.standard_normal((nx, ny))
        assert marched(rhs.ravel()) == ny
        assert marched(rhs.ravel()) == 0
        for k in (0, 4, ny - 1):
            rhs[:, k:] = rng.standard_normal((nx, ny - k))
            assert marched(rhs.ravel()) == ny - k
        # A^T marches down from y = 1: a change up to row k marches k + 1 rows
        adjoint = rhs.copy()
        assert marched(adjoint.ravel(), "T") == ny
        adjoint[:, :5] = 0.0
        assert marched(adjoint.ravel(), "T") == 5
        assert marched(adjoint.ravel(), "T") == 0
        # a bound stops the march; rows past it are marched when read
        rhs[:, 2:] = rng.standard_normal((nx, ny - 2))
        assert marched(rhs.ravel(), last_row=5) == 4
        assert marched(rhs.ravel(), last_row=3) == 0
        assert marched(rhs.ravel()) == ny - 6

    def test_bound_outside_the_grid_rejected(self, small_grid):
        solver = DirichletSolver(assemble(small_grid))
        for last_row in (-1, small_grid.ny):
            with pytest.raises(ValueError, match="last_row"):
                solver.solve(np.ones(small_grid.n), last_row=last_row)


class TestBoundedAdjoint:
    NX, NY = 9, 11

    @pytest.mark.parametrize("last_row", range(NY))
    def test_rows_read_equal_the_unbounded_adjoint(self, last_row):
        grid = build_grid(self.NX, self.NY, 0.5)
        rhs = random_field(grid, last_row).values
        bounded = DirichletSolver(assemble(grid)).solve_adjoint(rhs, last_row=last_row)
        full = DirichletSolver(assemble(grid)).solve_adjoint(rhs)
        b, f = bounded.reshape(self.NX, self.NY), full.reshape(self.NX, self.NY)
        assert b[:, last_row:].tobytes() == f[:, last_row:].tobytes()
        assert np.all(b[:, :last_row] == 0.0)

    def test_rows_marched(self, monkeypatch):
        calls = []
        original = operators.dpttrs
        monkeypatch.setattr(operators, "dpttrs", lambda *args: calls.append(1) or original(*args))
        nx, ny = self.NX, self.NY
        rhs = np.zeros((nx, ny))
        # the march starts at the highest nonzero row, 7, and runs down to the bound
        rhs[:, 2:8] = np.random.default_rng(3).standard_normal((nx, 6))
        for last_row, rows in ((7, 1), (4, 4), (0, 8)):
            calls.clear()
            DirichletSolver(assemble(build_grid(nx, ny, 0.5))).solve_adjoint(rhs.ravel(), last_row=last_row)
            assert len(calls) == rows

    def test_bound_outside_the_grid_rejected(self, small_grid):
        solver = DirichletSolver(assemble(small_grid))
        for last_row in (-1, small_grid.ny):
            with pytest.raises(ValueError, match="last_row"):
                solver.solve_adjoint(np.ones(small_grid.n), last_row=last_row)


def _matrix_built(op):
    """Whether op.matrix has been read (it is cached on first read)."""
    return "matrix" in vars(op)


class TestLazyMatrix:
    def test_upwind_solves_build_no_matrix(self, small_grid):
        op = assemble(small_grid)
        f = random_field(small_grid, 3)
        solve_dirichlet(op, f)
        solver = DirichletSolver(op)
        solver.solve(f.values)
        solver.solve_adjoint(f.values)
        op.apply(f)
        assert not _matrix_built(op)

    def test_game_solver_builds_no_matrix(self):
        solver = shipped_game(n=12, seed=0).solver
        solver.solve(np.ones(12 * 12))
        assert not _matrix_built(solver.op)


class TestWeakForm:
    def test_all_zero(self, small_grid):
        z = GridFunction.zeros(small_grid)
        phi = random_field(small_grid, 5)
        assert weak_form_residual(z, z, phi) == 0.0
        assert theta_weak_form_residual(z, z, phi, 1.0) == 0.0

    def test_manufactured_residual_first_order(self):
        res = []
        for n in (16, 32, 64):
            g = build_grid(n, n, 0.5)
            u, f = manufactured_pair(g)
            phi = GridFunction.from_callable(g, lambda X, Y: np.sin(np.pi * X) * np.sin(2 * np.pi * Y))
            res.append(abs(weak_form_residual(u, f, phi)))
        assert res[1] < res[0] and res[2] < res[1]
        assert res[2] < 0.6 * res[0]

    def test_solved_state_residual_decreases(self):
        params = bump_parameter_sets(10, seed=21)
        worst = []
        for n in (16, 32, 64):
            g = build_grid(n, n, 0.5)
            _, f = manufactured_pair(g)
            u, _ = solve_dirichlet(assemble(g), f)
            worst.append(max(abs(weak_form_residual(u, f, bump_from_parameters(g, p))) for p in params))
        assert worst[1] < worst[0] and worst[2] < worst[1]

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_linear_in_test_function(self, seed):
        g = build_grid(9, 9, 0.5)
        u = random_field(g, seed)
        f = random_field(g, seed + 1)
        p1 = random_field(g, seed + 2)
        p2 = random_field(g, seed + 3)
        lhs = weak_form_residual(u, f, 2.0 * p1 - 5.0 * p2)
        rhs = 2.0 * weak_form_residual(u, f, p1) - 5.0 * weak_form_residual(u, f, p2)
        assert abs(lhs - rhs) <= 1e-11 * (abs(lhs) + abs(rhs) + 1.0)

    def test_theta_zero_matches_dy_test_form(self, small_grid):
        u = random_field(small_grid, 1)
        f = random_field(small_grid, 2)
        phi = random_field(small_grid, 3)
        # independent evaluation of the unweighted d_y-test identity
        alpha = small_grid.alpha
        dphi = dy(phi)
        manual = (
            weighted_inner(dy(u), dphi, alpha)
            + 0.5 * weighted_inner(dx(u), dx(dphi), 0.0)
            - weighted_inner(f, dphi, 0.0)
        )
        assert theta_weak_form_residual(u, f, phi, 0.0) == pytest.approx(manual, rel=1e-14, abs=1e-15)

    def test_theta_manufactured_residual_decreases(self):
        res = []
        for n in (16, 32, 64):
            g = build_grid(n, n, 0.5)
            u, f = manufactured_pair(g)
            phi = GridFunction.from_callable(g, lambda X, Y: np.sin(np.pi * X) * np.sin(2 * np.pi * Y))
            res.append(abs(theta_weak_form_residual(u, f, phi, 1.0)))
        assert res[1] < res[0] and res[2] < res[1]

    def test_negative_theta_rejected(self, small_grid):
        z = GridFunction.zeros(small_grid)
        with pytest.raises(ValueError):
            theta_weak_form_residual(z, z, z, -0.5)

    @pytest.mark.parametrize("theta", [math.nan, math.inf])
    def test_nonfinite_theta_rejected(self, small_grid, theta):
        z = GridFunction.zeros(small_grid)
        with pytest.raises(ValueError, match="finite"):
            theta_weak_form_residual(z, z, z, theta)


def _diff_along_moveaxis(values, h, axis):
    """The differences written with np.moveaxis, as the reference."""
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (v[1] - v[0]) / h
    out[-1] = (v[-1] - v[-2]) / h
    return np.moveaxis(out, 0, axis)


class TestDiffAlong:
    @pytest.mark.parametrize("nx,ny", [(12, 12), (9, 7), (5, 16), (2, 3)])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_matches_moveaxis_formula(self, nx, ny, axis):
        g = build_grid(nx, ny, 0.5)
        values = random_field(g, nx + ny).values2d()
        h = (g.hx, g.hy)[axis]
        got, ref = _diff_along(values, h, axis), _diff_along_moveaxis(values, h, axis)
        assert got.shape == ref.shape
        assert got.tobytes() == np.ascontiguousarray(ref).tobytes()
        # dx and dy flatten the result in the grid's C order
        d = (dx, dy)[axis](GridFunction(g, values))
        assert d.values.tobytes() == np.ascontiguousarray(ref).reshape(g.n).tobytes()
