"""Uniform tensor grid on the unit square with degenerate x-weights.

The domain is (0,1) x (0,1) with homogeneous Dirichlet data.  Only interior
nodes carry unknowns; boundary values are implicitly zero everywhere.  The
x-direction carries the degeneracy weight x**alpha with alpha in (0,1], and
all quadrature is midpoint-in-cell so the weight is never evaluated at x=0.

The x-part hx*hy * xc**exponent of the quadrature weights is computed once
per (grid, exponent) and handed out as a read-only array; a self-pairing
weighted_inner(u, u, ...) interpolates u once.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np


class DegenerateWeightWarning(UserWarning):
    """Quadrature of a non-integrable weight with mass next to x=0."""


@dataclass(frozen=True)
class Grid:
    """Interior nodes of a uniform tensor grid on the unit square.

    nx, ny count interior nodes per direction; spacings are
    hx = 1/(nx+1), hy = 1/(ny+1), so node coordinates are
    x_i = i*hx (i=1..nx) and y_j = j*hy (j=1..ny), all strictly
    inside (0,1).
    """

    nx: int
    ny: int
    hx: float
    hy: float
    alpha: float

    @property
    def n(self) -> int:
        return self.nx * self.ny

    @property
    def x(self) -> np.ndarray:
        """Interior node x-coordinates, shape (nx,)."""
        return np.arange(1, self.nx + 1) * self.hx

    @property
    def y(self) -> np.ndarray:
        """Interior node y-coordinates, shape (ny,)."""
        return np.arange(1, self.ny + 1) * self.hy

    @property
    def xc(self) -> np.ndarray:
        """Cell-center x-coordinates of the (nx+1) cell columns."""
        return (np.arange(self.nx + 1) + 0.5) * self.hx

    @property
    def yc(self) -> np.ndarray:
        """Cell-center y-coordinates of the (ny+1) cell rows."""
        return (np.arange(self.ny + 1) + 0.5) * self.hy

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) arrays of shape (nx, ny) at the interior nodes."""
        return np.meshgrid(self.x, self.y, indexing="ij")


def build_grid(nx: int, ny: int, alpha: float) -> Grid:
    """Build the interior grid, rejecting out-of-theory parameters.

    alpha must lie in (0,1]; the well-posedness theory and the compact
    embedding both fail outside that range.
    """
    if not (isinstance(nx, (int, np.integer)) and isinstance(ny, (int, np.integer))):
        raise TypeError("nx and ny must be integers")
    if nx < 2 or ny < 2:
        raise ValueError(f"need nx >= 2 and ny >= 2, got nx={nx}, ny={ny}")
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    return Grid(nx=int(nx), ny=int(ny), hx=1.0 / (nx + 1), hy=1.0 / (ny + 1), alpha=float(alpha))


@dataclass
class GridFunction:
    """Nodal scalar field on the interior nodes of a Grid.

    values is a flat float array of length nx*ny in C order of the
    (nx, ny) node lattice, i.e. entry i*ny + j holds the value at
    (x_i, y_j).  Boundary values are implicitly zero.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.values.size != self.grid.n:
            raise ValueError(
                f"values has length {self.values.size}, grid has {self.grid.n} interior nodes"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("GridFunction values must be finite (no NaN/Inf)")

    @classmethod
    def zeros(cls, grid: Grid) -> "GridFunction":
        return cls(grid, np.zeros(grid.n))

    @classmethod
    def from_callable(cls, grid: Grid, fn) -> "GridFunction":
        """Sample fn(X, Y) at the interior nodes (fn must broadcast)."""
        X, Y = grid.meshgrid()
        return cls(grid, np.asarray(fn(X, Y), dtype=float).reshape(grid.n))

    def values2d(self) -> np.ndarray:
        """View of the values as an (nx, ny) array indexed [i, j]."""
        return self.values.reshape(self.grid.nx, self.grid.ny)

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy())

    def _check_same_grid(self, other: "GridFunction") -> None:
        if self.grid != other.grid:
            raise ValueError("GridFunctions live on different grids")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "GridFunction":
        return GridFunction(self.grid, self.values * float(c))

    __rmul__ = __mul__


@dataclass(frozen=True)
class RegionMask:
    """Boolean indicator over interior nodes (characteristic function)."""

    grid: Grid
    indicator: np.ndarray = field(compare=False)

    def __post_init__(self):
        ind = np.asarray(self.indicator, dtype=bool).ravel()
        if ind.size != self.grid.n:
            raise ValueError("indicator length does not match grid")
        object.__setattr__(self, "indicator", ind)

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """Read-only ascending flat indices of the region's nodes."""
        nodes = np.flatnonzero(self.indicator)
        nodes.flags.writeable = False
        return nodes

    @property
    def count(self) -> int:
        return int(self.nodes.size)

    @functools.cached_property
    def top_row(self) -> int:
        """Index j of the highest y-row holding a node of the region."""
        if self.nodes.size == 0:
            raise ValueError("region contains no interior nodes")
        return int((self.nodes % self.grid.ny).max())

    def apply(self, u: GridFunction) -> GridFunction:
        """Multiply u by the characteristic function of the region."""
        if u.grid != self.grid:
            raise ValueError("mask and GridFunction live on different grids")
        return GridFunction(self.grid, np.where(self.indicator, u.values, 0.0))


def rect_mask(grid: Grid, x0: float, x1: float, y0: float, y1: float) -> RegionMask:
    """Mask of interior nodes inside the open rectangle (x0,x1) x (y0,y1)."""
    if not (0.0 <= x0 < x1 <= 1.0 and 0.0 <= y0 < y1 <= 1.0):
        raise ValueError(
            f"rectangle ({x0},{x1}) x ({y0},{y1}) must satisfy 0 <= x0 < x1 <= 1, 0 <= y0 < y1 <= 1"
        )
    X, Y = grid.meshgrid()
    ind = (X > x0) & (X < x1) & (Y > y0) & (Y < y1)
    return RegionMask(grid, ind.reshape(grid.n))


def cell_averages(u: GridFunction) -> np.ndarray:
    """Bilinear interpolant of u at all cell centers, shape (nx+1, ny+1).

    Equals the mean of the four cell-corner nodal values, with the
    implicit zero boundary supplying the outer corners.
    """
    g = u.grid
    padded = np.zeros((g.nx + 2, g.ny + 2))
    padded[1:-1, 1:-1] = u.values2d()
    # same left-to-right sum as 0.25 * (a + b + c + d), in one output array
    out = padded[:-1, :-1] + padded[1:, :-1]
    out += padded[:-1, 1:]
    out += padded[1:, 1:]
    out *= 0.25
    return out


@functools.lru_cache(maxsize=32)
def _x_weights(grid: Grid, exponent: float) -> np.ndarray:
    """Read-only hx*hy * xc**exponent broadcast to shape (nx+1, ny+1)."""
    w = grid.hx * grid.hy * np.power(grid.xc, exponent)[:, None]
    w.flags.writeable = False
    return np.broadcast_to(w, (grid.nx + 1, grid.ny + 1))


def cell_weights(grid: Grid, exponent: float, y_weight=None) -> np.ndarray:
    """Quadrature weights hx*hy * xc**exponent (* y_weight(yc)), shape (nx+1, ny+1).

    Without y_weight the result is a read-only view shared by every caller
    with the same grid and exponent; with y_weight it is a fresh array.
    """
    w = _x_weights(grid, exponent)
    if y_weight is not None:
        return w * np.asarray(y_weight(grid.yc))[None, :]
    return w


def weighted_inner(u: GridFunction, v: GridFunction, exponent: float, y_weight=None) -> float:
    """Quadrature value of the weighted pairing of u and v.

    Computes the integral over the unit square of
    x**exponent * u * v (* y_weight(y) when given) by the midpoint rule
    on the (nx+1) x (ny+1) cells, using cell-center values of the weight
    and of the bilinear interpolants of the nodal data.  The weight is
    only ever evaluated at cell centers, so any exponent > -1 integrates
    the singular column correctly; with exponent <= -1 the value is still
    defined but the underlying integral may diverge, and a
    DegenerateWeightWarning is emitted whenever the integrand carries
    mass in the first cell column.
    """
    u._check_same_grid(v)
    g = u.grid
    ub = cell_averages(u)
    vb = ub if v is u else cell_averages(v)
    if exponent <= -1.0 and np.any(ub[0, :] * vb[0, :] != 0.0):
        warnings.warn(
            f"x**({exponent}) is not integrable at x=0 and the integrand is "
            "nonzero in the first cell column; the quadrature value does not "
            "converge under refinement",
            DegenerateWeightWarning,
            stacklevel=2,
        )
    w = cell_weights(g, exponent, y_weight)
    # (ub * vb) first: elementwise products commute exactly, so the
    # pairing is symmetric to the last bit
    return float(np.sum(w * (ub * vb)))
