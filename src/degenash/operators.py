"""Discrete degenerate operator, Dirichlet solver, and weak-form residuals.

The canonical sign convention is

    A u = -1/2 u_xx + x**alpha u_y = f,

which is the operator the weak form actually characterizes (integrating
the x-term by parts gives the +1/2 (u_x, phi_x) pairing).  The advection
coefficient x**alpha is nonnegative, so the upwind variant differences
backward in y and the resulting matrix is an M-matrix.

Under the upwind scheme x**alpha u_y acts as the time derivative of a
degenerate Kolmogorov-type parabolic equation, and A u = f is an
implicit-Euler march in y.  Every y-row j solves the same symmetric
positive definite tridiagonal system

    T u_j = f_j + (x**alpha / h_y) u_{j-1},   T = -1/2 D_xx + diag(x**alpha) / h_y,

from u_{-1} = 0 at the inflow edge y = 0.  T is factored once (LAPACK
dpttrf), so a solve costs O(nx*ny) with no fill.  The adjoint A^T is
block upper-bidiagonal and runs the same march backward from j = ny-1.
Each march starts at its first nonzero right-hand-side row; the rows
before it are zero.  The upwind scheme never uses u = 0 at y = 1: that
edge is the outflow boundary, and no row of the matrix refers to it.  The
centered scheme couples both y-neighbours and is solved by a SuperLU
factorization.

A u is computed from the 5-point stencil, for both schemes.  The CSR
matrix of A is assembled only when something reads SparseOperator.matrix:
the centered SuperLU factorization does, and no upwind solve does.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpttrf, dpttrs

from .grid import Grid, GridFunction, weighted_inner


class Scheme(str, Enum):
    UPWIND_Y = "upwind"
    CENTERED_Y = "centered"


class SolverError(RuntimeError):
    """Linear solve failed; carries the best residual reached."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class SparseOperator:
    """A = -1/2 d_xx + x**alpha d_y over the interior nodes of grid.

    apply computes A u from the 5-point stencil.  matrix is the same
    operator as a CSR matrix (flat index i*ny + j), built on first read
    and cached; only the centered SuperLU factorization needs it.  apply
    takes the matrix's own coefficients and sums them in its row order
    (west, south, centre, north, east from 0.0), so A u equals
    matrix @ u.values bit for bit.
    """

    grid: Grid
    scheme: Scheme

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
        c = (g.x**g.alpha)[:, None]
        # (coefficient, neighbour's slice of u, receiving slice of A u) in
        # the matrix's row order: west, south, centre, north, east
        if self.scheme is Scheme.UPWIND_Y:
            y_step = 1 / g.hy
            centre = [(2.0 * x_step + c * y_step, np.s_[:], np.s_[:])]
        else:
            y_step = 1 / (2.0 * g.hy)
            centre = [(2.0 * x_step, np.s_[:], np.s_[:]), (c * y_step, np.s_[:, 1:], np.s_[:, :-1])]
        terms = [
            (-1.0 * x_step, np.s_[:-1], np.s_[1:]),
            (c * (-1.0 * y_step), np.s_[:, :-1], np.s_[:, 1:]),
            *centre,
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
        if self.scheme is Scheme.UPWIND_Y:
            dy = sp.diags([np.full(ny - 1, -1.0), np.full(ny, 1.0)], offsets=[-1, 0]) / hy
        else:
            dy = sp.diags([np.full(ny - 1, -1.0), np.full(ny - 1, 1.0)], offsets=[-1, 1]) / (2.0 * hy)
        coeff = sp.diags(self.grid.x**self.grid.alpha)
        matrix = sp.kron(dxx, sp.identity(ny), format="csr") + sp.kron(coeff, dy, format="csr")
        return matrix.tocsr()


@dataclass(frozen=True)
class SolveReport:
    """Outcome of solve_dirichlet; iterations counts refinement rounds."""

    residual_norm: float
    iterations: int
    wall_time: float


def assemble(grid: Grid, scheme: Scheme = Scheme.UPWIND_Y) -> SparseOperator:
    """The operator A = -1/2 d_xx + x**alpha d_y on grid under scheme.

    Dirichlet values are zero, so eliminated neighbors need no
    right-hand-side correction.  Builds no matrix: apply works from the
    stencil, and op.matrix is assembled on first read.
    """
    return SparseOperator(grid=grid, scheme=Scheme(scheme))


class _YMarch:
    """The upwind operator factored as the implicit-Euler march in y.

    Offers the solve(rhs, trans) call of a SuperLU factorization, for one
    right-hand side of length nx*ny or for nx*ny by k columns.
    """

    def __init__(self, grid: Grid):
        self._shape = (grid.nx, grid.ny)
        c = grid.x**grid.alpha / grid.hy
        e = np.full(grid.nx - 1, -0.5 / grid.hx**2)
        self._d, self._e, info = dpttrf(1.0 / grid.hx**2 + c, e)
        if info != 0:
            raise np.linalg.LinAlgError(f"dpttrf failed with info {info}")
        self._c = c[:, None]

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        nx, ny = self._shape
        if rhs.ndim not in (1, 2) or rhs.shape[0] != nx * ny:
            raise ValueError(f"right-hand side has shape {rhs.shape}, operator has {nx * ny} unknowns")
        # blocks[j] is y-row j as a contiguous (k, nx) block, so rows[j] is
        # the same memory as an (nx, k) Fortran-ordered block that dpttrs
        # overwrites in place
        blocks = np.ascontiguousarray(rhs.reshape(nx, ny, -1).transpose(1, 2, 0))
        rows = blocks.transpose(0, 2, 1)
        live = np.flatnonzero(blocks.reshape(ny, -1).any(axis=1))
        if live.size:
            # A marches up from y = 0, A^T down from y = 1, each from its
            # first nonzero row: the rows before it solve to zero
            march = rows[live[0]:] if trans == "N" else rows[live[-1]::-1]
            coupling = np.empty(rows.shape[1:])
            dpttrs(self._d, self._e, march[0], overwrite_b=True)
            for prev, row in zip(march, march[1:]):
                np.multiply(self._c, prev, coupling)
                np.add(row, coupling, row)
                dpttrs(self._d, self._e, row, overwrite_b=True)
        return blocks.transpose(2, 0, 1).reshape(rhs.shape)


def _factor(op: SparseOperator):
    """Factor op once: the y-march for upwind, SuperLU for centered."""
    if op.scheme is Scheme.UPWIND_Y:
        return _YMarch(op.grid)
    return spla.splu(op.matrix.tocsc())


class DirichletSolver:
    """Factored operator for repeated forward and adjoint solves.

    An upwind operator is factored as the implicit-Euler march in y (one
    tridiagonal Cholesky factorization, O(nx*ny) per solve, no fill); a
    centered operator by SuperLU.  Forward and transpose (adjoint) solves
    share the factorization and take a right-hand side of length nx*ny or
    nx*ny by k columns.  No residual check: solve_dirichlet carries the
    contract.  Not reentrant across threads.
    """

    def __init__(self, op: SparseOperator):
        self.op = op
        self._lu = _factor(op)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(rhs, dtype=float))

    def solve_adjoint(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(rhs, dtype=float), trans="T")


def solve_dirichlet(
    op: SparseOperator, f: GridFunction, tol: float = 1e-10
) -> tuple[GridFunction, SolveReport]:
    """Solve A u = f once, with a residual contract.

    Factors op as DirichletSolver does (y-march for upwind, SuperLU for
    centered) and runs up to three rounds of iterative refinement while
    the residual exceeds tol * max(1, ||f||).  Residuals come from the
    stencil (op.apply), so an upwind solve never builds op.matrix.
    Raises SolverError carrying the achieved residual if refinement does
    not meet the contract.
    """
    if f.grid != op.grid:
        raise ValueError("right-hand side lives on a different grid")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    start = time.perf_counter()
    rhs = f.values
    scale = max(1.0, float(np.linalg.norm(rhs)))
    lu = _factor(op)
    u = lu.solve(rhs)
    residual = float(np.linalg.norm(op._apply(u) - rhs))
    refinements = 0
    while residual > tol * scale and refinements < 3:
        u = u + lu.solve(rhs - op._apply(u))
        residual = float(np.linalg.norm(op._apply(u) - rhs))
        refinements += 1
    if residual > tol * scale:
        raise SolverError("solve did not meet the residual tolerance", residual)
    report = SolveReport(
        residual_norm=residual, iterations=refinements, wall_time=time.perf_counter() - start
    )
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


def dxdy(u: GridFunction) -> GridFunction:
    return dx(dy(u))


def weak_form_residual(u: GridFunction, f: GridFunction, phi: GridFunction) -> float:
    """Residual of the weak formulation against the test function phi.

    Returns the quadrature value of
        (x**alpha u_y, phi) + 1/2 (u_x, phi_x) - (f, phi),
    zero (up to consistency error) when u weakly solves A u = f and phi
    vanishes on the x = 0, 1 boundaries.
    """
    alpha = u.grid.alpha
    return (
        weighted_inner(dy(u), phi, alpha)
        + 0.5 * weighted_inner(dx(u), dx(phi), 0.0)
        - weighted_inner(f, phi, 0.0)
    )


def theta_weak_form_residual(u: GridFunction, f: GridFunction, phi: GridFunction, theta: float) -> float:
    """Residual of the exponentially weighted equivalent weak form.

    The test expression is d_y phi and every pairing carries the factor
    exp(-theta*y):
        (x**alpha u_y, phi_y)_theta + 1/2 (u_x, (phi_y)_x)_theta - (f, phi_y)_theta.
    At theta = 0 this is exactly the unweighted d_y-test form.
    """
    if not (math.isfinite(theta) and theta >= 0):
        raise ValueError(f"theta must be finite and nonnegative, got {theta}")
    alpha = u.grid.alpha
    yw = lambda y: np.exp(-theta * y)
    dphi = dy(phi)
    return (
        weighted_inner(dy(u), dphi, alpha, y_weight=yw)
        + 0.5 * weighted_inner(dx(u), dx(dphi), 0.0, y_weight=yw)
        - weighted_inner(f, dphi, 0.0, y_weight=yw)
    )
