import ast
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import degenash.operators as operators
from conftest import random_field
from degenash.fields import bump_parameter_sets, bump_from_parameters, manufactured_pair, named_field
from degenash.grid import GridFunction, _cell_sums, build_grid, weighted_inner
from degenash.operators import (
    DirichletSolver,
    SolverError,
    _apply,
    _diff_along,
    assemble,
    dx,
    dy,
    solve_dirichlet,
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
        Au = _apply(small_grid, np.ones(small_grid.n))
        assert np.max(np.abs(Au[interior_rows(small_grid)])) < 1e-10

    def test_quadratic_diffusion_exact(self, small_grid):
        # -1/2 (x(1-x))'' = 1, no y-dependence: centered differencing is
        # exact for quadratics
        u = GridFunction.from_callable(small_grid, lambda X, Y: X * (1 - X))
        Au = _apply(small_grid, u.values)
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
        u = GridFunction.zeros(g) if zero else random_field(g, seed)
        assert _apply(g, u.values).tobytes() == (assemble(g).matrix @ u.values).tobytes()

class TestSolve:
    @pytest.mark.parametrize("nx,ny", [(12, 12), (13, 7), (64, 64), (127, 129)])
    def test_one_shot_solve_matches_the_store_solve(self, nx, ny):
        # solve_dirichlet marches without DirichletSolver's store, to the
        # same bits, zeros and their signs included
        g = build_grid(nx, ny, 0.5)
        rough = random_field(g, nx).values2d().copy()
        rough[:, : ny // 2] = 0.0  # the first rows that couple anything sit halfway up
        rough[::2, 1] = -0.0
        fields = [
            named_field(g, "sinsin"),
            random_field(g, ny),
            GridFunction(g, rough),
            named_field(g, "zero", -1.0),  # -0.0 at every node
            GridFunction.zeros(g),
        ]
        for f in fields:
            u, _ = solve_dirichlet(g, f)
            assert g.y_rows(u.values).tobytes() == DirichletSolver(g).solve(g.y_rows(f.values)).tobytes()

    def test_zero_rhs_zero_solution(self, small_grid):
        u, rep = solve_dirichlet(small_grid, GridFunction.zeros(small_grid))
        assert np.all(u.values == 0.0)
        assert rep.residual_norm == 0.0
        assert rep.iterations == 0

    def test_residual_contract(self, small_grid):
        f = GridFunction.from_callable(small_grid, lambda X, Y: np.sin(3 * X + Y))
        u, rep = solve_dirichlet(small_grid, f, tol=1e-10)
        scale = max(1.0, float(np.linalg.norm(f.values)))
        assert rep.residual_norm <= 1e-10 * scale

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6), a=st.floats(-3, 3), b=st.floats(-3, 3))
    def test_linearity(self, seed, a, b):
        g = build_grid(10, 10, 0.5)
        f1 = random_field(g, seed)
        f2 = random_field(g, seed + 1)
        u12, _ = solve_dirichlet(g, a * f1 + b * f2)
        u1, _ = solve_dirichlet(g, f1)
        u2, _ = solve_dirichlet(g, f2)
        scale = abs(a) * np.linalg.norm(f1.values) + abs(b) * np.linalg.norm(f2.values) + 1.0
        diff = np.linalg.norm(u12.values - a * u1.values - b * u2.values)
        assert diff <= 1e-9 * scale

    def test_residual_norm_does_not_depend_on_blas_threads(self):
        # at 512^2 a threaded BLAS dot product rounds ||A u - f|| differently
        # from a single-threaded one; at 128^2 and 256^2 both agree
        code = (
            "from degenash.fields import named_field\n"
            "from degenash.grid import build_grid\n"
            "from degenash.operators import solve_dirichlet\n"
            "g = build_grid(512, 512, 0.5)\n"
            "print(repr(solve_dirichlet(g, named_field(g, 'sinsin', 1.0))[1].residual_norm))\n"
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
        # every solve is the march, so no SuperLU factorization is reachable,
        # and only reading op.matrix imports scipy.sparse
        code = (
            "import sys, degenash, degenash.cli\n"
            "assert 'scipy.sparse' not in sys.modules\n"
            "op = degenash.assemble(degenash.build_grid(4, 4, 0.5))\n"
            "assert op.matrix.shape == (16, 16) and 'scipy.sparse' in sys.modules\n"
        )
        src = str(Path(operators.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_scipy_is_imported_only_by_operators_and_cli(self):
        # (enclosing function, or None at module level, and imported name)
        # of each scipy import in the package: the march's LAPACK routines,
        # scipy.sparse when SparseOperator.matrix is read, and cli's version string
        expected = {
            "operators": {
                (None, "scipy.linalg.lapack.dpttrf"), (None, "scipy.linalg.lapack.dpttrs"), ("matrix", "scipy.sparse"),
            },
            "cli": {(None, "scipy")},
        }
        # the CSR reference stays behind operators: every solve takes a Grid,
        # and __init__ only re-exports it
        reference = {"SparseOperator", "assemble"}
        found, named = {}, {}

        def visit(node, where, into):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Import):
                    into.update((where, a.name) for a in child.names if a.name.split(".")[0] == "scipy")
                elif isinstance(child, ast.ImportFrom) and (child.module or "").split(".")[0] == "scipy":
                    into.update((where, f"{child.module}.{a.name}") for a in child.names)
                visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where, into)

        for path in sorted(Path(operators.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            imports = set()
            visit(tree, None, imports)
            if imports:
                found[path.stem] = imports
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and reference & {a.name for a in node.names}:
                    named.setdefault(path.stem, set()).add("import")
                elif {getattr(node, "id", None), getattr(node, "attr", None)} & reference:
                    named.setdefault(path.stem, set()).add("use")
        assert found == expected
        assert named == {"operators": {"use"}, "__init__": {"import"}}

    def test_invalid_tol(self, small_grid):
        with pytest.raises(ValueError):
            solve_dirichlet(small_grid, GridFunction.zeros(small_grid), tol=0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_nonfinite_tol_rejected(self, small_grid, tol):
        with pytest.raises(ValueError, match="finite"):
            solve_dirichlet(small_grid, GridFunction.zeros(small_grid), tol=tol)

    def test_unattainable_tol_raises_solver_error(self, small_grid):
        f = GridFunction.from_callable(small_grid, lambda X, Y: np.sin(3 * X + Y))
        with pytest.raises(SolverError) as err:
            solve_dirichlet(small_grid, f, tol=1e-300)
        assert math.isfinite(err.value.residual) and err.value.residual > 0.0

    @pytest.mark.parametrize("amplitude", [1.0e200, 1.0e308])
    def test_unmeasurable_residual_raises_solver_error(self, amplitude):
        # at 1e200 ||f|| and ||A u - f|| both overflow to inf, and
        # inf <= 1e-10 * inf holds; at 1e308 A u overflows and the residual
        # is NaN: a residual that is not finite must fail the contract
        g = build_grid(16, 16, 0.5)
        f = named_field(g, "sinsin", amplitude)
        with pytest.raises(SolverError) as err:
            solve_dirichlet(g, f)
        assert not math.isfinite(err.value.residual)

    def test_contract_is_one_check(self, small_grid, monkeypatch):
        # below the round-off floor the one march solve is checked and
        # reported, never refined
        f = GridFunction.from_callable(small_grid, lambda X, Y: np.sin(3 * X + Y))
        u = small_grid.grid_order(DirichletSolver(small_grid).solve(small_grid.y_rows(f.values)))
        floor = operators.euclidean_norm(_apply(small_grid, u) - f.values)
        calls = []
        original = operators._march
        monkeypatch.setattr(operators, "_march", lambda *args, **kw: calls.append(1) or original(*args, **kw))
        with pytest.raises(SolverError) as err:
            solve_dirichlet(small_grid, f, tol=1e-300)
        assert len(calls) == 1
        assert err.value.residual == floor

    def test_manufactured_error_shrinks(self):
        errs = []
        for n in (16, 32):
            g = build_grid(n, n, 0.5)
            u_exact, f = manufactured_pair(g)
            u, _ = solve_dirichlet(g, f)
            errs.append(np.max(np.abs(u.values - u_exact.values)))
        assert 1.5 <= errs[0] / errs[1] <= 2.6

    def test_discrete_maximum_principle_upwind(self):
        g = build_grid(24, 24, 0.5)
        rng = np.random.default_rng(11)
        f = GridFunction(g, -np.abs(rng.standard_normal(g.n)))
        u, _ = solve_dirichlet(g, f)
        assert np.max(u.values) <= 1e-12


def _assert_march_matches_superlu(grid, rhs, last_row=None):
    """Forward and adjoint march solves of the y-rows rhs equal spsolve on A
    and A^T, in the matrix's order i*ny + j, on the y-rows a solve bounded
    by last_row reads, and are zero on the others."""
    solver = DirichletSolver(grid)
    A = assemble(grid).matrix.tocsc()
    nx, ny = grid.nx, grid.ny
    flat = grid.grid_order(rhs)
    for adjoint, got, ref in (
        (False, solver.solve(rhs, last_row), spla.spsolve(A, flat)),
        (True, solver.solve_adjoint(rhs, last_row), spla.spsolve(A.T.tocsc(), flat)),
    ):
        assert got.shape == rhs.shape == (ny, nx)
        ref = grid.y_rows(ref)
        read = np.zeros((ny, nx), dtype=bool)
        read[_rows_read(adjoint, last_row)] = True
        assert np.linalg.norm(got[read] - ref[read]) <= 1e-12 * np.linalg.norm(ref[read])
        assert np.all(got[~read] == 0.0)


def _random_rhs(nx, ny, alpha, seed):
    """An nx x ny grid and a random right-hand side on it as C-contiguous
    y-rows (ny, nx)."""
    grid = build_grid(nx, ny, alpha)
    values = np.random.default_rng(seed).standard_normal(grid.n)
    return grid, grid.y_rows(values)


class TestYMarch:
    @pytest.mark.parametrize(
        "nx,ny,alpha,last_row",
        [(2, 2, 0.25, None), (2, 2, 1.0, None), (7, 19, 0.25, None), (23, 6, 1.0, None), (9, 14, 0.5, 5)],
    )
    def test_matches_superlu(self, nx, ny, alpha, last_row):
        _assert_march_matches_superlu(*_random_rhs(nx, ny, alpha, nx * ny), last_row)

    @settings(max_examples=20, deadline=None)
    @given(
        nx=st.integers(2, 24),
        ny=st.integers(2, 24),
        alpha=st.floats(0.05, 1.0),
        seed=st.integers(0, 10**6),
    )
    def test_matches_superlu_property(self, nx, ny, alpha, seed):
        _assert_march_matches_superlu(*_random_rhs(nx, ny, alpha, seed))

    @pytest.mark.parametrize("last_row", [None, 6])
    def test_zero_rows_skipped(self, last_row):
        # rows y_0..y_3 and y_9..y_13 are zero: the forward march starts at
        # y_4, the adjoint march at y_8, and the rows before each start
        # solve to exact zeros
        grid, rhs = _random_rhs(11, 14, 0.5, 5)
        rhs[:4] = 0.0
        rhs[9:] = 0.0
        _assert_march_matches_superlu(grid, rhs, last_row)
        solver = DirichletSolver(grid)
        forward = solver.solve(rhs, last_row)
        adjoint = solver.solve_adjoint(rhs, last_row)
        assert np.all(forward[:4] == 0.0) and np.all(forward[4] != 0.0)
        assert np.all(adjoint[9:] == 0.0) and np.all(adjoint[8] != 0.0)

    @pytest.mark.parametrize("last_row", [None, 2])
    def test_zero_rhs_solves_to_zero(self, last_row):
        grid = build_grid(6, 5, 0.5)
        rhs = np.zeros((5, 6))
        _assert_march_matches_superlu(grid, rhs, last_row)
        solver = DirichletSolver(grid)
        assert np.all(solver.solve(rhs, last_row) == 0.0) and np.all(solver.solve_adjoint(rhs, last_row) == 0.0)

    @pytest.mark.parametrize("length", [12 * 12 - 1, 12 * 12, 2 * 12 * 12])
    def test_flat_rhs_rejected(self, small_grid, length):
        # a flat array, even of nx*ny entries, is no y-row layout
        solver = DirichletSolver(small_grid)
        for solve in (solver.solve, solver.solve_adjoint):
            with pytest.raises(ValueError, match=re.escape("(ny, nx) = (12, 12)")):
                solve(np.ones(length))

    @pytest.mark.parametrize("columns", [1, 3])
    def test_column_block_rejected(self, small_grid, columns):
        # a solve takes one right-hand side; the error names the shape given
        rhs = np.ones((small_grid.n, columns))
        solver = DirichletSolver(small_grid)
        for solve in (solver.solve, solver.solve_adjoint):
            with pytest.raises(ValueError, match=re.escape(str(rhs.shape))):
                solve(rhs)


class TestYRows:
    """A solve takes and returns y-rows, shape (ny, nx), row j holding
    y-row j.  On a non-square grid a transposed read or write fails."""

    @pytest.mark.parametrize("nx,ny", [(6, 5), (5, 6)])
    @pytest.mark.parametrize("last_row", [None, 0, 3])
    def test_solves_equal_spsolve_after_reordering(self, nx, ny, last_row):
        # the rows above the bound (forward) or below it (adjoint) are zero
        _assert_march_matches_superlu(*_random_rhs(nx, ny, 0.5, nx + 10 * ny), last_row)

    @pytest.mark.parametrize("nx,ny", [(6, 5), (5, 6)])
    def test_forward_solve_has_the_bits_of_solve_dirichlet(self, nx, ny):
        g = build_grid(nx, ny, 0.5)
        f = random_field(g, nx)
        u, _ = solve_dirichlet(g, f)
        rows = DirichletSolver(g).solve(g.y_rows(f.values))
        assert rows.shape == (ny, nx)
        assert rows.tobytes() == g.y_rows(u.values).tobytes()

    @pytest.mark.parametrize("nx,ny", [(6, 5), (5, 6)])
    def test_flat_and_grid_shaped_rhs_rejected(self, nx, ny):
        solver = DirichletSolver(build_grid(nx, ny, 0.5))
        for rhs in (np.ones(nx * ny), np.ones((nx, ny))):
            for solve in (solver.solve, solver.solve_adjoint):
                with pytest.raises(ValueError, match=re.escape(f"(ny, nx) = ({ny}, {nx})")):
                    solve(rhs)


def _rows_read(adjoint, last_row):
    """The y-rows a solve with this bound holds, as a slice of axis 0."""
    if last_row is None:
        return np.s_[:]
    return np.s_[last_row:] if adjoint else np.s_[: last_row + 1]


def _solve(solver, rhs, adjoint=False, last_row=None):
    return (solver.solve_adjoint if adjoint else solver.solve)(rhs, last_row)


# bounds that are no integer: True would read as row 1, and 2.0 would pass
# the range check and then fail in the slicing with a TypeError
NO_ROW_INDEX = (True, False, np.True_, 2.0, np.float64(2.0), "2")


class TestMarchReuse:
    NX, NY = 9, 11

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 10**6))
    def test_reused_rows_equal_a_fresh_march(self, data, seed):
        # each right-hand side equals the last one of its direction except
        # from a random row on in march order (a change row of ny is an
        # exact repeat), and carries a random bound
        nx, ny = self.NX, self.NY
        grid = build_grid(nx, ny, 0.5)
        solver = DirichletSolver(grid)
        rng = np.random.default_rng(seed)
        last: dict = {}
        steps = data.draw(st.lists(st.tuples(
            st.booleans(), st.integers(0, ny),
            st.one_of(st.none(), st.integers(0, ny - 1)), st.booleans(),
        ), min_size=1, max_size=12))
        for adjoint, change, last_row, zero in steps:
            rhs = last.get(adjoint, np.zeros((ny, nx))).copy()
            changed = np.s_[: ny - change] if adjoint else np.s_[change:]
            rhs[changed] = 0.0 if zero else rng.standard_normal(rhs[changed].shape)
            last[adjoint] = rhs
            got = _solve(solver, rhs, adjoint, last_row)
            fresh = _solve(DirichletSolver(grid), rhs, adjoint, last_row)
            full = _solve(DirichletSolver(grid), rhs, adjoint)
            read = _rows_read(adjoint, last_row)
            assert np.array_equal(got, fresh)
            assert np.array_equal(got[read], full[read])
            unread = np.ones(ny, dtype=bool)
            unread[read] = False
            assert np.all(got[unread] == 0.0)

    def test_rows_marched(self, monkeypatch):
        calls = []
        original = operators.dpttrs
        monkeypatch.setattr(operators, "dpttrs", lambda *args: calls.append(1) or original(*args))
        nx, ny = self.NX, self.NY
        solver = DirichletSolver(build_grid(nx, ny, 0.5))
        rng = np.random.default_rng(4)

        def marched(rhs, adjoint=False, last_row=None):
            calls.clear()
            _solve(solver, rhs, adjoint, last_row)
            return len(calls)

        assert marched(np.zeros((ny, nx))) == 0
        rhs = rng.standard_normal((ny, nx))
        assert marched(rhs) == ny
        assert marched(rhs) == 0
        for k in (0, 4, ny - 1):
            rhs[k:] = rng.standard_normal((ny - k, nx))
            assert marched(rhs) == ny - k
        # A^T marches down from y = 1: a change up to row k marches k + 1 rows
        down = rhs.copy()
        assert marched(down, True) == ny
        down[:5] = 0.0
        assert marched(down, True) == 5
        assert marched(down, True) == 0
        # a bound stops the march; rows past it are marched when read
        rhs[2:] = rng.standard_normal((ny - 2, nx))
        assert marched(rhs, last_row=5) == 4
        assert marched(rhs, last_row=3) == 0
        assert marched(rhs) == ny - 6

    def test_bound_outside_the_grid_rejected(self, small_grid):
        solver = DirichletSolver(small_grid)
        for last_row in (-1, small_grid.ny, *NO_ROW_INDEX):
            with pytest.raises(ValueError, match="last_row"):
                solver.solve(np.ones((small_grid.ny, small_grid.nx)), last_row=last_row)

    def test_numpy_integer_bound_accepted(self, small_grid):
        rhs = small_grid.y_rows(random_field(small_grid, 8).values)
        for adjoint in (False, True):
            got = _solve(DirichletSolver(small_grid), rhs, adjoint, np.int64(4))
            assert got.tobytes() == _solve(DirichletSolver(small_grid), rhs, adjoint, 4).tobytes()


class TestBoundedAdjoint:
    NX, NY = 9, 11

    @pytest.mark.parametrize("last_row", range(NY))
    def test_rows_read_equal_the_unbounded_adjoint(self, last_row):
        grid = build_grid(self.NX, self.NY, 0.5)
        rhs = grid.y_rows(random_field(grid, last_row).values)
        b = DirichletSolver(grid).solve_adjoint(rhs, last_row=last_row)
        f = DirichletSolver(grid).solve_adjoint(rhs)
        assert b[last_row:].tobytes() == f[last_row:].tobytes()
        assert np.all(b[:last_row] == 0.0)

    def test_rows_marched(self, monkeypatch):
        calls = []
        original = operators.dpttrs
        monkeypatch.setattr(operators, "dpttrs", lambda *args: calls.append(1) or original(*args))
        nx, ny = self.NX, self.NY
        rhs = np.zeros((ny, nx))
        # the march starts at the highest nonzero row, 7, and runs down to the bound
        rhs[2:8] = np.random.default_rng(3).standard_normal((6, nx))
        for last_row, rows in ((7, 1), (4, 4), (0, 8)):
            calls.clear()
            DirichletSolver(build_grid(nx, ny, 0.5)).solve_adjoint(rhs, last_row=last_row)
            assert len(calls) == rows

    def test_bound_outside_the_grid_rejected(self, small_grid):
        solver = DirichletSolver(small_grid)
        for last_row in (-1, small_grid.ny, *NO_ROW_INDEX):
            with pytest.raises(ValueError, match="last_row"):
                solver.solve_adjoint(np.ones((small_grid.ny, small_grid.nx)), last_row=last_row)


class TestWeakForm:
    def test_all_zero(self, small_grid):
        z = GridFunction.zeros(small_grid)
        phi = random_field(small_grid, 5)
        assert weak_form_residual(z, z, phi) == 0.0
        assert weak_form_residual(z, z, dy(phi), 1.0) == 0.0

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
            u, _ = solve_dirichlet(g, f)
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
        assert weak_form_residual(u, f, dy(phi), 0.0) == pytest.approx(manual, rel=1e-14, abs=1e-15)

    def test_theta_manufactured_residual_decreases(self):
        res = []
        for n in (16, 32, 64):
            g = build_grid(n, n, 0.5)
            u, f = manufactured_pair(g)
            phi = GridFunction.from_callable(g, lambda X, Y: np.sin(np.pi * X) * np.sin(2 * np.pi * Y))
            res.append(abs(weak_form_residual(u, f, dy(phi), 1.0)))
        assert res[1] < res[0] and res[2] < res[1]

    def test_negative_theta_rejected(self, small_grid):
        z = GridFunction.zeros(small_grid)
        with pytest.raises(ValueError):
            weak_form_residual(z, z, dy(z), -0.5)

    @pytest.mark.parametrize("theta", [math.nan, math.inf])
    def test_nonfinite_theta_rejected(self, small_grid, theta):
        z = GridFunction.zeros(small_grid)
        with pytest.raises(ValueError, match="finite"):
            weak_form_residual(z, z, dy(z), theta)

    @pytest.mark.parametrize("n", [8, 17])
    def test_d_y_test_form_keeps_its_bits(self, n):
        # the exp(-theta*y)-weighted d_y-test residual as a callable
        # y-weight computed it, written out term by term
        g = build_grid(n, n, 0.5)
        u, f, phi = (random_field(g, s) for s in (1, 2, 3))
        theta = 1.0

        def inner(a, b, exponent):
            w = g.hx * g.hy * np.power(g.xc, exponent)[:, None] * np.exp(-theta * g.yc)[None, :]
            return float(np.sum(w * (_cell_sums(a) * _cell_sums(b))))

        dphi = dy(phi)
        ref = inner(dy(u), dphi, g.alpha) + 0.5 * inner(dx(u), dx(dphi), 0.0) - inner(f, dphi, 0.0)
        assert weak_form_residual(u, f, dphi, theta) == ref


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
