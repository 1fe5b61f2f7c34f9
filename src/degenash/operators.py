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
dpttrf), so a solve costs O(nx*ny) with no fill.  The adjoint A^T is
block upper-bidiagonal and runs the same march backward from j = ny-1.
Row j of a march depends on the right-hand-side rows up to j only, so
each march starts at the first row that differs from the last solve in
its direction and copies the rows before it (a first solve starts at its
first nonzero row), and a forward or adjoint solve given the last row
its caller reads stops after that row.  The scheme never uses u = 0 at
y = 1: that edge is the outflow boundary, and no row of the matrix
refers to it.  (Centered differencing in y would make the march a
leapfrog scheme, whose computational mode does not shrink under
refinement, and would impose u = 0 at the outflow edge.)

A u is computed from the 5-point stencil.  The CSR matrix of A is
assembled only when something reads SparseOperator.matrix; no solve does.

bilinear_form states the weak form once; both weak-form residuals and
the coercivity form of analysis evaluate it, weighted by theta_weight's
exp(-theta*y) where the form is stabilized.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpttrf, dpttrs

from .grid import Grid, GridFunction, weighted_inner

# The residual contract of solve_dirichlet: ||A u - f|| <= RESIDUAL_TOL * max(1, ||f||).
RESIDUAL_TOL = 1e-10


class SolverError(RuntimeError):
    """Linear solve failed its residual contract; carries the residual reached."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class SparseOperator:
    """A = -1/2 d_xx + x**alpha d_y over the interior nodes of grid.

    apply computes A u from the 5-point stencil.  matrix is the same
    operator as a CSR matrix (flat index i*ny + j), built on first read
    and cached; no solve needs it: it is the reference the stencil and
    the march are checked against.  apply takes the matrix's own
    coefficients and sums them in its row order (west, south, centre,
    east from 0.0), so A u equals matrix @ u.values bit for bit.
    """

    grid: Grid

    def apply(self, u: GridFunction) -> GridFunction:
        if u.grid != self.grid:
            raise ValueError("GridFunction lives on a different grid than the operator")
        return GridFunction(self.grid, self._apply(u.values))

    def _apply(self, values: np.ndarray) -> np.ndarray:
        """A u for a flat array of nx*ny node values."""
        g = self.grid
        # each coefficient is the value the assembled matrix stores: a
        # sparse matrix divided by a scalar h is multiplied by 1/h, and
        # kron multiplies x**alpha into the y-difference entries
        x_step = 1 / (2.0 * g.hx * g.hx)
        y_step = 1 / g.hy
        c = (g.x**g.alpha)[:, None]
        # (coefficient, neighbour's slice of u, receiving slice of A u) in
        # the matrix's row order: west, south, centre, east
        terms = [
            (-1.0 * x_step, np.s_[:-1], np.s_[1:]),
            (c * (-1.0 * y_step), np.s_[:, :-1], np.s_[:, 1:]),
            (2.0 * x_step + c * y_step, np.s_[:], np.s_[:]),
            (-1.0 * x_step, np.s_[1:], np.s_[:-1]),
        ]
        u = values.reshape(g.nx, g.ny)
        out = np.zeros_like(u)
        term = np.empty_like(u)
        for coeff, neighbour, row in terms:
            np.multiply(coeff, u[neighbour], out=term[row])
            out[row] += term[row]
        return out.reshape(values.shape)

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        nx, ny, hx, hy = self.grid.nx, self.grid.ny, self.grid.hx, self.grid.hy
        # -1/2 d_xx: tridiag(-1, 2, -1) / (2 hx^2)
        dxx = sp.diags(
            [np.full(nx - 1, -1.0), np.full(nx, 2.0), np.full(nx - 1, -1.0)],
            offsets=[-1, 0, 1],
        ) / (2.0 * hx * hx)
        dy = sp.diags([np.full(ny - 1, -1.0), np.full(ny, 1.0)], offsets=[-1, 0]) / hy
        coeff = sp.diags(self.grid.x**self.grid.alpha)
        matrix = sp.kron(dxx, sp.identity(ny), format="csr") + sp.kron(coeff, dy, format="csr")
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
    """The operator A = -1/2 d_xx + x**alpha d_y on grid.

    Dirichlet values are zero, so eliminated neighbors need no
    right-hand-side correction.  Builds no matrix: apply works from the
    stencil, and op.matrix is assembled on first read.
    """
    return SparseOperator(grid=grid)


class _YMarch:
    """The operator factored as the implicit-Euler march in y.

    solve(rhs, trans, last_row) takes one right-hand side of length nx*ny
    or nx*ny by k columns, plus a bound on the rows the caller reads.

    Keeps the last right-hand side and its solution per direction and
    column count, and marches from the first row whose right-hand side
    differs (!=) from the kept one or that the kept solution does not
    hold, whichever is earlier; the rows before it are copied.  The store
    starts as the zero right-hand side with the zero solution, so a first
    solve marches from its first nonzero row.
    """

    def __init__(self, grid: Grid):
        self._shape = (grid.nx, grid.ny)
        c = grid.x**grid.alpha / grid.hy
        e = np.full(grid.nx - 1, -0.5 / grid.hx**2)
        self._d, self._e, info = dpttrf(1.0 / grid.hx**2 + c, e)
        if info != 0:
            raise np.linalg.LinAlgError(f"dpttrf failed with info {info}")
        self._c = c[:, None]
        # (trans, k) -> (rhs as (nx, ny, k), solution rows in march order
        # as (ny, k, nx), count of leading march-order rows it holds)
        self._last: dict[tuple[str, int], tuple] = {}

    def solve(self, rhs: np.ndarray, trans: str = "N", last_row: int | None = None) -> np.ndarray:
        """A^-1 rhs (trans "N") or A^-T rhs (trans "T").

        A marches up from y = 0, A^T down from y = 1.  last_row is the last
        y-row in march order that the caller reads (it reads j <= last_row
        of A^-1 rhs, j >= last_row of A^-T rhs): the march stops after it,
        and the rows it would reach later are returned as zero.
        """
        nx, ny = self._shape
        if rhs.ndim not in (1, 2) or rhs.shape[0] != nx * ny:
            raise ValueError(f"right-hand side has shape {rhs.shape}, operator has {nx * ny} unknowns")
        if last_row is not None and not 0 <= last_row < ny:
            raise ValueError(f"last_row must be a y-row index in [0, {ny}), got {last_row}")
        new = rhs.reshape(nx, ny, -1)
        k = new.shape[2]
        order = np.s_[:] if trans == "N" else np.s_[::-1]
        key = (trans, k)
        if key not in self._last:
            self._last[key] = (np.zeros((nx, ny, k)), np.zeros((ny, k, nx)), ny)
        kept, solution, held = self._last[key]
        differs = (new != kept).any(axis=(0, 2))[order]
        start = min(int(differs.argmax()) if differs.any() else ny, held)
        stop = ny if last_row is None else (last_row + 1 if trans == "N" else ny - last_row)
        np.copyto(kept, new)
        # solution[j] is march-order row j as a contiguous (k, nx) block,
        # so rows[j] is the same memory as an (nx, k) Fortran-ordered block
        # that dpttrs (4th argument overwrite_b) overwrites in place
        rows = solution.transpose(0, 2, 1)
        if start < stop:
            solution[start:stop] = new.transpose(1, 2, 0)[order][start:stop]
            march = rows[start:stop]
            coupling = np.empty(rows.shape[1:])
            # a zero row before the start couples nothing
            if start > 0 and rows[start - 1].any():
                np.multiply(self._c, rows[start - 1], coupling)
                np.add(march[0], coupling, march[0])
            dpttrs(self._d, self._e, march[0], 1)
            for prev, row in zip(march, march[1:]):
                np.multiply(self._c, prev, coupling)
                np.add(row, coupling, row)
                dpttrs(self._d, self._e, row, 1)
        self._last[key] = (kept, solution, max(start, stop))
        out = np.zeros((nx, ny, k))
        out.transpose(1, 2, 0)[order][:stop] = solution[:stop]
        return out.reshape(rhs.shape)


class DirichletSolver:
    """Factored operator for repeated forward and adjoint solves.

    The operator is factored as the implicit-Euler march in y (one
    tridiagonal Cholesky factorization, O(nx*ny) per solve, no fill).
    Forward and transpose (adjoint) solves share the factorization and
    take a right-hand side of length nx*ny or nx*ny by k columns.  No
    residual check: solve_dirichlet carries the contract.

    The march keeps one right-hand side and its solution per
    direction and column count, the last it solved.  It compares the next
    right-hand side with the kept one exactly (!=), copies the solution
    rows before the first row that differs, and marches from there, so a
    repeated or partly repeated solve returns the same bits as a fresh
    one.  The store is mutated by every solve: not reentrant.
    """

    def __init__(self, op: SparseOperator):
        self.op = op
        self._march = _YMarch(op.grid)

    def solve(self, rhs: np.ndarray, last_row: int | None = None) -> np.ndarray:
        """A^-1 rhs.  Given last_row, the caller reads only y-rows j <=
        last_row: the march goes no further and returns zeros above it."""
        return self._march.solve(np.asarray(rhs, dtype=float), last_row=last_row)

    def solve_adjoint(self, rhs: np.ndarray, last_row: int | None = None) -> np.ndarray:
        """A^-T rhs.  Given last_row, the caller reads only y-rows j >=
        last_row: the march, which goes down from y = 1, stops there and
        returns zeros below it."""
        return self._march.solve(np.asarray(rhs, dtype=float), trans="T", last_row=last_row)


def euclidean_norm(values: np.ndarray) -> float:
    """||values||_2 by numpy's pairwise sum, not BLAS, so the last bit does
    not depend on the BLAS thread count."""
    return math.sqrt(float(np.sum(values * values)))


def solve_dirichlet(
    op: SparseOperator, f: GridFunction, tol: float = RESIDUAL_TOL
) -> tuple[GridFunction, SolveReport]:
    """Solve A u = f once, with a residual contract.

    Factors op as the y-march DirichletSolver uses, solves once and checks
    ||A u - f|| <= tol * max(1, ||f||), with A u from the stencil
    (op.apply), so no solve builds op.matrix.  Raises SolverError
    carrying the achieved residual if the contract is not met.  There is
    no refinement: the march's residual is the stencil's round-off floor,
    and a refinement round does not lower it.
    """
    if f.grid != op.grid:
        raise ValueError("right-hand side lives on a different grid")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    start = time.perf_counter()
    rhs = f.values
    scale = max(1.0, euclidean_norm(rhs))
    u = _YMarch(op.grid).solve(rhs)
    residual = euclidean_norm(op._apply(u) - rhs)
    if residual > tol * scale:
        raise SolverError("solve did not meet the residual tolerance", residual)
    report = SolveReport(residual_norm=residual, iterations=0, wall_time=time.perf_counter() - start)
    return GridFunction(op.grid, u), report


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
    """Differences of a 2-D array along axis 0 or 1."""
    v = values if axis == 0 else values.T
    out = np.empty_like(v)
    if v.shape[0] < 2:
        raise ValueError("need at least 2 nodes along the differenced axis")
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (v[1] - v[0]) / h
    out[-1] = (v[-1] - v[-2]) / h
    return out if axis == 0 else out.T


def dx(u: GridFunction) -> GridFunction:
    return GridFunction(u.grid, _diff_along(u.values2d(), u.grid.hx, axis=0).reshape(u.grid.n))


def dy(u: GridFunction) -> GridFunction:
    return GridFunction(u.grid, _diff_along(u.values2d(), u.grid.hy, axis=1).reshape(u.grid.n))


def theta_weight(theta: float):
    """The stabilizing y-weight y -> exp(-theta*y); theta must be finite and >= 0."""
    if not (math.isfinite(theta) and theta >= 0):
        raise ValueError(f"theta must be finite and nonnegative, got {theta}")
    return lambda y: np.exp(-theta * y)


def bilinear_form(u: GridFunction, psi: GridFunction, y_weight=None) -> float:
    """Quadrature value of the bilinear form of A against psi,
        (x**alpha u_y, psi) + 1/2 (u_x, psi_x),
    with every pairing weighted by y_weight(y) when one is given."""
    alpha = u.grid.alpha
    return weighted_inner(dy(u), psi, alpha, y_weight=y_weight) + 0.5 * weighted_inner(
        dx(u), dx(psi), 0.0, y_weight=y_weight
    )


def weak_form_residual(u: GridFunction, f: GridFunction, phi: GridFunction) -> float:
    """Residual of the weak formulation against the test function phi.

    Returns bilinear_form(u, phi) - (f, phi), zero (up to consistency
    error) when u weakly solves A u = f and phi vanishes on the x = 0, 1
    boundaries.
    """
    return bilinear_form(u, phi) - weighted_inner(f, phi, 0.0)


def theta_weak_form_residual(u: GridFunction, f: GridFunction, phi: GridFunction, theta: float) -> float:
    """Residual of the exponentially weighted equivalent weak form.

    The test expression is d_y phi and every pairing carries the factor
    exp(-theta*y):
        bilinear_form(u, phi_y)_theta - (f, phi_y)_theta.
    At theta = 0 this is exactly the unweighted d_y-test form.
    """
    yw = theta_weight(theta)
    dphi = dy(phi)
    return bilinear_form(u, dphi, yw) - weighted_inner(f, dphi, 0.0, y_weight=yw)
