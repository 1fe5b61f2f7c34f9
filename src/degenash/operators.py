"""Discrete degenerate operator, Dirichlet solver, and weak-form residuals.

The canonical sign convention is

    A u = -1/2 u_xx + x**alpha u_y = f,

which is the operator the weak form actually characterizes (integrating
the x-term by parts gives the +1/2 (u_x, phi_x) pairing).  The advection
coefficient x**alpha is nonnegative, so the scheme differences backward
in y (upwind) and the resulting matrix is an M-matrix.

With no y-diffusion, x**alpha u_y acts as the time derivative of a
degenerate Kolmogorov-type parabolic equation, and A u = f is an
implicit-Euler march in y.  Every y-row j solves the same symmetric
positive definite tridiagonal system

    T u_j = f_j + (x**alpha / h_y) u_{j-1},   T = -1/2 D_xx + diag(x**alpha) / h_y,

from u_{-1} = 0 at the inflow edge y = 0.  T is factored once (LAPACK
dpttrf), so a solve costs O(nx*ny) with no fill.  dpttrf and dpttrs are
scipy's compiled LAPACK wrappers, loaded at module load straight from
scipy/linalg/_flapack, which skips the scipy.linalg package init and all
it imports; only where that file is missing or will not load do they
come from scipy.linalg.lapack (_pttr_routines).  The adjoint A^T is
block upper-bidiagonal and runs the same march backward from j = ny-1.
Row j of a march depends on the right-hand-side rows up to j only, so
a march skips its leading zero rows (_march, which finds the first
nonzero row by one any() pass over the rows, made only when the first
row is zero), a forward or adjoint solve given the last row its caller
reads stops after that row, and a forward solve starts at the first row
that differs from the last forward solve and keeps the solved rows
before it (DirichletSolver.solve).  An adjoint solve and a one-shot
solve (solve_dirichlet) keep nothing and march their own copy of the
rows in place.
A field's node values are the march's own layout, node (x_i, y_j) at
j*nx + i (grid.GridFunction), so y-row j is a contiguous run of nx
values; the solvers take and return flat node values and march
(ny, nx) views of them, which the adjoint walks in reverse.  No solve
converts layouts.  The scheme never uses u = 0 at y = 1: that edge is
the outflow boundary, and no row of the matrix refers to it.  (Centered
differencing in y would make the march a leapfrog scheme, whose
computational mode does not shrink under refinement, and would impose
u = 0 at the outflow edge.)

A grid (nx, ny, alpha) fixes every coefficient of A, so the solvers
and the residual contract take the Grid.  A u is computed from the
5-point stencil (_apply).  SparseOperator is only the CSR reference the
stencil and the march are checked against: its matrix is assembled, and
scipy.sparse imported, only when something reads it; no solve does.

dx and dy are computed once per field and kept with it (GridFunction._once):
the weak forms difference a solved state once for all its test functions.

bilinear_form states the weak form once, with every pairing weighted by
exp(-theta*y) (none at theta = 0); the one weak-form residual, against
phi or against d_y phi, and the coercivity form of analysis evaluate it.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .grid import FINITE_POSITIVE, Grid, GridFunction, weighted_inner


def _pttr_routines(suffixes=importlib.machinery.EXTENSION_SUFFIXES):
    """LAPACK's dpttrf and dpttrs from scipy's compiled scipy/linalg/_flapack<suffix>,
    loaded by its file location, or from scipy.linalg.lapack when no such file loads.

    Both are the same Fortran routines, but importing scipy.linalg.lapack
    runs the scipy.linalg package init, which imports numpy.f2py,
    numpy.testing and about half of a degenash process's modules.
    find_spec("scipy") imports nothing.  The loaded extension is the
    complete scipy.linalg._flapack module; no scipy.linalg package is
    put into sys.modules, and a later import of scipy.linalg reuses it.
    """
    scipy = importlib.util.find_spec("scipy")
    paths = [os.path.join(d, "linalg", "_flapack" + suffix)
             for d in (scipy.submodule_search_locations if scipy else ()) for suffix in suffixes]
    try:
        path = next((p for p in paths if os.path.isfile(p)), None)
        if path is None:
            raise ImportError(f"no compiled LAPACK wrappers among {paths}")
        spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
        flapack = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(flapack)
    except (ImportError, OSError):
        from scipy.linalg import lapack as flapack
    return flapack.dpttrf, flapack.dpttrs


dpttrf, dpttrs = _pttr_routines()

# The residual contract (_check_residual): ||A u - f|| <= RESIDUAL_TOL * max(1, ||f||).
RESIDUAL_TOL = 1e-10


class SolverError(RuntimeError):
    """Linear solve failed its residual contract; carries the residual reached."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


def _apply(grid: Grid, values: np.ndarray) -> np.ndarray:
    """A u for flat node values u, in a fresh array: the coefficients
    SparseOperator(grid).matrix stores, summed in its row order (south,
    west, centre, east from 0.0), so A u is matrix @ u bit for bit."""
    nx = grid.nx
    # each coefficient is the value the assembled matrix stores: a
    # sparse matrix divided by a scalar h is multiplied by 1/h, and
    # kron multiplies x**alpha into the y-difference entries
    x_step = 1 / (2.0 * grid.hx * grid.hx)
    y_step = 1 / grid.hy
    c = grid.x**grid.alpha
    u = values.reshape(grid.n)
    out = np.empty(grid.n)
    term = np.empty(grid.n)
    u_rows, out_rows, rows = (a.reshape(grid.ny, nx) for a in (u, out, term))
    # the matrix's row order, south, west, centre, east, each term a
    # flat pass added to out; the matrix product sums from 0.0, which
    # the last pass adds (it turns a -0.0 sum into +0.0, and leaves
    # every other sum as it is)
    out_rows[0] = 0.0
    np.multiply(c * (-1.0 * y_step), u_rows[:-1], out=out_rows[1:])
    # node k's west term is term[k-1]; a row's first node has none,
    # and takes the previous row's last entry, -0.0: x + -0.0 is x
    np.multiply(-1.0 * x_step, u, out=term)
    rows[:, -1] = -0.0
    out[1:] += term[:-1]
    np.multiply(2.0 * x_step + c * y_step, u_rows, out=rows)
    out += term
    # node k's east term is term[k]; a row's last node has none, and
    # takes -0.0
    np.multiply(-1.0 * x_step, u[1:], out=term[:-1])
    rows[:, -1] = -0.0
    out += term
    out += 0.0
    return out.reshape(values.shape)


@dataclass(frozen=True)
class SparseOperator:
    """A = -1/2 d_xx + x**alpha d_y over the interior nodes of grid as a
    CSR matrix (flat index j*nx + i), built on first read and cached.  No
    solve reads it: it is the reference _apply and the march are checked
    against."""

    grid: Grid

    @functools.cached_property
    def matrix(self) -> scipy.sparse.csr_matrix:
        import scipy.sparse as sp  # here, not at the top: no solve reads the matrix

        nx, ny, hx, hy = self.grid.nx, self.grid.ny, self.grid.hx, self.grid.hy
        # -1/2 d_xx: tridiag(-1, 2, -1) / (2 hx^2)
        dxx = sp.diags(
            [np.full(nx - 1, -1.0), np.full(nx, 2.0), np.full(nx - 1, -1.0)],
            offsets=[-1, 0, 1],
        ) / (2.0 * hx * hx)
        dy = sp.diags([np.full(ny - 1, -1.0), np.full(ny, 1.0)], offsets=[-1, 0]) / hy
        coeff = sp.diags(self.grid.x**self.grid.alpha)
        matrix = sp.kron(sp.identity(ny), dxx, format="csr") + sp.kron(dy, coeff, format="csr")
        return matrix.tocsr()


@dataclass(frozen=True)
class SolveReport:
    """Outcome of solve_dirichlet.  iterations is always 0: the one march
    solve is checked, never refined.  The field stays because report.json
    and perfbench read it, until run telemetry takes its place."""

    residual_norm: float
    iterations: int
    wall_time: float


def assemble(grid: Grid) -> SparseOperator:
    """The CSR reference of A = -1/2 d_xx + x**alpha d_y on grid.

    Dirichlet values are zero, so eliminated neighbors need no
    right-hand-side correction.  Builds no matrix: op.matrix is
    assembled on first read.
    """
    return SparseOperator(grid=grid)


def _factor(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The factored y-march: the coupling x**alpha / h_y and T's dpttrf factors."""
    c = grid.x**grid.alpha / grid.hy
    d, e, info = dpttrf(1.0 / grid.hx**2 + c, np.full(grid.nx - 1, -0.5 / grid.hx**2))
    if info != 0:
        raise np.linalg.LinAlgError(f"dpttrf failed with info {info}")
    return c, d, e


def _march(factors: tuple, rows: np.ndarray, before: np.ndarray | None = None) -> None:
    """Solve march-order rows (k, nx), each contiguous, in place over _factor's factors.

    Each row holds its right-hand side and is overwritten by its
    solution.  before is the solved row just below rows[0] in march
    order.  When it is None or zero, nothing couples in: the leading zero
    rows solve to +0.0 and are not marched (dpttrs would keep a -0.0),
    and the first nonzero row couples nothing.  The first row is tested
    on its own, and only when it is zero does one any(axis=1) pass over
    the others find the first nonzero row, so a march that starts on a
    nonzero row scans no further.  Keeps nothing.  dpttrs is looked up
    in this module on every call, so a patch of operators.dpttrs counts
    the rows marched.
    """
    c, d, e = factors
    if before is not None and not before.any():
        before = None
    if before is None and not rows[0].any():
        nonzero = rows[1:].any(axis=1)
        first = 1 + int(nonzero.argmax()) if nonzero.any() else len(rows)
        rows[:first] = 0.0
        rows = rows[first:]
    coupling = np.empty(len(c))
    for row in rows:
        if before is not None:
            np.multiply(c, before, coupling)
            np.add(row, coupling, row)
        dpttrs(d, e, row, 1)
        before = row


class DirichletSolver:
    """The factored operator of a grid, for repeated forward and adjoint solves.

    The operator is factored as the implicit-Euler march in y (one
    tridiagonal Cholesky factorization, O(nx*ny) per solve, no fill).  A
    solve takes one right-hand side as node values, a flat array of
    length n in a field's order (GridFunction.values), marches its y-rows
    as an (ny, nx) view and returns its solution as a new flat array in
    the same order; a right-hand side of any other shape raises
    ValueError.  Forward
    and adjoint solves share the factors.  Forward solves keep the last
    right-hand side and solution, and march from the first row whose
    right-hand side differs (!=) from the kept one or that the kept
    solution does not hold, whichever is earlier.  The march reads the
    new right-hand side's rows, and the kept solution's rows before its
    start are copied, so a repeated or partly repeated solve returns the
    same bits as a fresh one.  The kept right-hand side is overwritten
    from its first differing row on only: the rows before it are equal
    already, up to the sign of a zero, which != does not see.  The result
    is one fresh array of the solved rows and a zeroed tail.  The store
    starts holding no row; every forward solve mutates it: not
    reentrant.  An adjoint solve keeps nothing.
    No residual check: solve_dirichlet carries the contract, and the game
    checks its final state (game.nash_solve).
    """

    def __init__(self, grid: Grid):
        self._shape = (grid.ny, grid.nx)
        self._factors = _factor(grid)
        # (rhs, solution, count of leading y-rows the solution holds) of
        # the last forward solve, as C-contiguous y-rows
        self._last = (np.zeros(self._shape), np.zeros(self._shape), 0)

    def solve(self, rhs: np.ndarray, last_row: int | None = None) -> np.ndarray:
        """A^-1 rhs, marched up from y = 0.  Given last_row, the caller reads
        only y-rows j <= last_row: the march goes no further and returns
        zeros above it."""
        rhs = self._rows(rhs, last_row)
        ny, nx = self._shape
        stop = ny if last_row is None else last_row + 1
        kept, solution, held = self._last
        # the first entry that differs, and so its row; the kept rows
        # before it are already equal
        differs = (rhs != kept).reshape(-1)
        first = int(differs.argmax())
        changed = first // nx if differs[first] else ny
        kept[changed:] = rhs[changed:]
        start = min(changed, held)
        if start < stop:
            solution[start:stop] = rhs[start:stop]
            _march(self._factors, solution[start:stop], solution[start - 1] if start > 0 else None)
        self._last = (kept, solution, max(start, stop))
        out = np.empty((ny, nx))
        out[:stop] = solution[:stop]
        out[stop:] = 0.0
        return out.reshape(-1)

    def solve_adjoint(self, rhs: np.ndarray, last_row: int | None = None) -> np.ndarray:
        """A^-T rhs, marched down from y = 1.  Given last_row, the caller
        reads only y-rows j >= last_row: the march stops there and returns
        zeros below it."""
        rhs = self._rows(rhs, last_row)
        stop = self._shape[0] - (last_row or 0)
        out = np.zeros(self._shape)
        out[::-1][:stop] = rhs[::-1][:stop]
        _march(self._factors, out[::-1][:stop])
        return out.reshape(-1)

    def _rows(self, rhs: np.ndarray, last_row: int | None) -> np.ndarray:
        """The (ny, nx) y-row view of flat node values rhs, checked with last_row."""
        rhs = np.asarray(rhs, dtype=float)
        ny, nx = self._shape
        if rhs.shape != (ny * nx,):
            raise ValueError(
                f"right-hand side has shape {rhs.shape}, operator takes node values of shape (nx*ny,) = ({nx * ny},)"
            )
        if last_row is not None and not (
            isinstance(last_row, (int, np.integer)) and not isinstance(last_row, bool) and 0 <= last_row < ny
        ):
            raise ValueError(f"last_row must be an integer y-row index in [0, {ny}), got {last_row!r}")
        return rhs.reshape(ny, nx)


def euclidean_norm(values: np.ndarray) -> float:
    """||values||_2 by numpy's pairwise sum, not BLAS, so the last bit does
    not depend on the BLAS thread count."""
    return math.sqrt(float(np.sum(values * values)))


def _check_residual(grid: Grid, u: np.ndarray, f: np.ndarray, tol: float = RESIDUAL_TOL) -> tuple[float, bool]:
    """The residual contract: ||A u - f|| and whether it is finite and
    <= tol * max(1, ||f||), for flat node values u and f on grid.

    A u comes from the stencil (_apply), so no check builds a matrix.  A
    residual that overflows (say, from an ||f|| that overflows) is inf or
    NaN, and meets no contract.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scale = max(1.0, euclidean_norm(f))
        # euclidean_norm(A u - f), subtracted and squared in A u's own array
        r = _apply(grid, u)
        r -= f
        r *= r
        residual = math.sqrt(float(np.sum(r)))
    return residual, math.isfinite(residual) and residual <= tol * scale


def solve_dirichlet(grid: Grid, f: GridFunction, tol: float = RESIDUAL_TOL) -> tuple[GridFunction, SolveReport]:
    """Solve A u = f on grid once, with a residual contract.

    Factors A as DirichletSolver does, copies f's values once and solves
    their y-rows in place (_march), without the store that forward solves
    share; the bits are those of DirichletSolver(grid).solve(f.values).
    grid must be f's own grid (ValueError
    otherwise): f carries it, but perfbench's solve hook reads f as the
    second positional argument.
    Raises SolverError carrying the achieved residual if u does not meet
    the contract of _check_residual at tol.  There is no refinement: the
    march's residual is the stencil's round-off floor, and a refinement
    round does not lower it.
    """
    if f.grid != grid:
        raise ValueError("right-hand side lives on a different grid")
    FINITE_POSITIVE.check("tol", tol)
    start = time.perf_counter()
    u = f.values.copy()
    _march(_factor(grid), u.reshape(grid.ny, grid.nx))
    residual, met = _check_residual(grid, u, f.values, tol)
    if not met:
        raise SolverError("solve did not meet the residual tolerance", residual)
    report = SolveReport(residual_norm=residual, iterations=0, wall_time=time.perf_counter() - start)
    return GridFunction(grid, u), report


# ---------------------------------------------------------------------------
# Discrete derivatives.
#
# Centered differences at interior nodes, one-sided differences at
# boundary-adjacent nodes using interior values only.  The one-sided rule
# deliberately ignores the implicit zero boundary: nodal samples of
# functions that do not vanish on the boundary (norm studies) must not
# pick up O(1/h) jump artifacts there.
# ---------------------------------------------------------------------------


def _diff_along(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Differences of a 2-D array along axis 0 or 1, in a C-contiguous array.

    The centered differences are one flat pass over the C-order values,
    shifted by a row (axis 0) or by one entry (axis 1), written into out
    and divided there: the same operations as (a - b) / h, with no
    temporaries.  Along axis 1 the pass also writes the first and last
    column of every row, from entries of the neighbouring rows; the
    one-sided differences then overwrite both edges.
    """
    if values.shape[axis] < 2:
        raise ValueError("need at least 2 nodes along the differenced axis")
    shift = values.shape[1] if axis == 0 else 1
    flat = values.reshape(-1)
    out = np.empty(values.shape)
    inner = out.reshape(-1)[shift:-shift]
    # an overflow in an edge entry of the pass is overwritten below, and
    # one elsewhere is an inf that GridFunction rejects: the pass warns of
    # neither
    with np.errstate(over="ignore"):
        np.subtract(flat[2 * shift :], flat[: -2 * shift], out=inner)
    inner /= 2.0 * h
    v, edges = (values, out) if axis == 0 else (values.T, out.T)
    for edge, ahead, behind in ((edges[0], v[1], v[0]), (edges[-1], v[-1], v[-2])):
        np.subtract(ahead, behind, out=edge)
        edge /= h
    return out


def dx(u: GridFunction) -> GridFunction:
    """Differences of u along x, computed once per field."""
    return u._once("dx", lambda: GridFunction(u.grid, _diff_along(u.values2d(), u.grid.hx, axis=1).reshape(u.grid.n)))


def dy(u: GridFunction) -> GridFunction:
    """Differences of u along y, computed once per field."""
    return u._once("dy", lambda: GridFunction(u.grid, _diff_along(u.values2d(), u.grid.hy, axis=0).reshape(u.grid.n)))


def bilinear_form(u: GridFunction, psi: GridFunction, theta: float = 0.0) -> float:
    """Quadrature value of the bilinear form of A against psi,
        (x**alpha u_y, psi) + 1/2 (u_x, psi_x),
    with every pairing weighted by exp(-theta*y)."""
    alpha = u.grid.alpha
    return weighted_inner(dy(u), psi, alpha, theta) + 0.5 * weighted_inner(dx(u), dx(psi), 0.0, theta)


def weak_form_residual(u: GridFunction, f: GridFunction, psi: GridFunction, theta: float = 0.0) -> float:
    """Residual of the weak formulation against the test expression psi.

    Returns bilinear_form(u, psi, theta) - (f, psi)_theta, every pairing
    weighted by exp(-theta*y).  It is zero (up to consistency error) when
    u weakly solves A u = f and psi vanishes on the x = 0, 1 boundaries:
    with psi = phi and theta = 0 this is the plain weak form, and with
    psi = d_y phi it is the exponentially weighted equivalent form.
    """
    return bilinear_form(u, psi, theta) - weighted_inner(f, psi, 0.0, theta)
