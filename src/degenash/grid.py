"""Uniform tensor grid on the unit square with degenerate x-weights.

The domain is (0,1) x (0,1) with homogeneous Dirichlet data.  Only interior
nodes carry unknowns; boundary values are implicitly zero everywhere.  The
x-direction carries the degeneracy weight x**alpha with alpha in (0,1], and
all quadrature is midpoint-in-cell so the weight is never evaluated at x=0.

A GridFunction is a read-only value, whose operators.dx, dy,
norms.norms_of and self-pairings are computed once and kept with it
(GridFunction._once).  Its construction checks finiteness in one
ndarray pass, and two fields on one Grid object skip the by-value grid
comparison, since fields are built by the thousand per study run.

Node values are flat in one order, j*nx + i for node (x_i, y_j): the
y-rows the Dirichlet march solves one after another, each contiguous.
values2d() views them as (ny, nx), row j holding y-row j, and every
module reads and writes that one layout.

The quadrature weights hx*hy * xc**exponent * exp(-theta*yc) are computed
once per (grid, exponent, theta) and handed out as one read-only array; at
theta = 0, no y-weight, it is a broadcast view of one row, so no full-grid
array is kept for it.  A self-pairing weighted_inner(u, u, ...) is
computed once per field, exponent > -1 and theta, and kept with the field
as a float, under one key (_keep_self_pairing).  One cell pass serves
more than one of them: a y-weighted self-pairing also keeps the
unweighted one at its exponent, and the L^q power sums (_power_sums)
keep the unweighted L^2 one, each from the squared averages already
formed.  Cell averages are one fresh (ny+1, nx+1) array (_cell_sums),
formed in a flat row layout that only _cell_sums knows, by contiguous
passes that keep the bits of the plain four-corner formula; quadrature
forms its weighted product in that array.  Cell averages are not kept.

Each input rule is a Rule, stated once in the module that owns the input
and checked by both the library and the config; shared ones are here.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np


class DegenerateWeightWarning(UserWarning):
    """Quadrature of a non-integrable weight with mass next to x=0."""


@dataclass(frozen=True)
class Rule:
    """A condition an input must meet, and the words that state it."""

    text: str
    holds: Callable[[object], bool]

    @classmethod
    def one_of(cls, choices) -> "Rule":
        choices = tuple(choices)  # tuple membership also accepts unhashable values
        return cls(f"must be one of {choices}", lambda v: v in choices)

    def check(self, name: str, value):
        """value, or ValueError naming the input when the rule fails."""
        if not self.holds(value):
            raise ValueError(f"{name} {self.text}, got {value!r}")
        return value


def _number(text: str, holds: Callable[[object], bool]) -> Rule:
    """A Rule on a number: a boolean fails it, never reads as 1 or 0."""
    return Rule(text, lambda v: not isinstance(v, (bool, np.bool_)) and holds(v))


FINITE = _number("must be finite", math.isfinite)
FINITE_POSITIVE = _number("must be finite and positive", lambda v: math.isfinite(v) and v > 0)
FINITE_NONNEGATIVE = _number("must be finite and nonnegative", lambda v: math.isfinite(v) and v >= 0)
NODES = _number("must be at least 2 interior nodes", lambda n: n >= 2)
# the well-posedness theory and the compact embedding both fail outside (0, 1]
ALPHA = _number("must lie in (0, 1]", lambda a: 0.0 < a <= 1.0)
RECT = Rule(
    "must be [x0, x1, y0, y1] with 0 <= x0 < x1 <= 1 and 0 <= y0 < y1 <= 1",
    # each corner FINITE, so a boolean fails it
    lambda r: len(r) == 4 and all(map(FINITE.holds, r)) and 0.0 <= r[0] < r[1] <= 1.0 and 0.0 <= r[2] < r[3] <= 1.0,
)
# numpy seeds its generators only with integers >= 0 (or sequences of them)
SEED = _number("must be a nonnegative integer", lambda s: isinstance(s, (int, np.integer)) and s >= 0)


@dataclass(frozen=True)
class Grid:
    """Interior nodes of a uniform tensor grid on the unit square.

    nx, ny count interior nodes per direction; spacings are
    hx = 1/(nx+1), hy = 1/(ny+1), so node coordinates are
    x_i = i*hx (i=1..nx) and y_j = j*hy (j=1..ny), all strictly
    inside (0,1).  Compares and hashes by value: it keys the per-grid
    caches.  nx and ny must be integers that meet NODES and alpha must
    meet ALPHA; they are kept as int and float.
    """

    nx: int
    ny: int
    alpha: float

    def __post_init__(self):
        if not (isinstance(self.nx, (int, np.integer)) and isinstance(self.ny, (int, np.integer))):
            raise TypeError("nx and ny must be integers")
        object.__setattr__(self, "nx", int(NODES.check("nx", self.nx)))
        object.__setattr__(self, "ny", int(NODES.check("ny", self.ny)))
        object.__setattr__(self, "alpha", float(ALPHA.check("alpha", self.alpha)))

    @property
    def n(self) -> int:
        return self.nx * self.ny

    @property
    def hx(self) -> float:
        return 1.0 / (self.nx + 1)

    @property
    def hy(self) -> float:
        return 1.0 / (self.ny + 1)

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

    def rect_axes(self, x0: float, x1: float, y0: float, y1: float) -> tuple[np.ndarray, np.ndarray]:
        """Which node x-coordinates lie in (x0, x1), shape (nx,), and which
        y-coordinates in (y0, y1), shape (ny,): the two factors of
        rect_mask's indicator."""
        return (self.x > x0) & (self.x < x1), (self.y > y0) & (self.y < y1)


def build_grid(nx: int, ny: int, alpha: float) -> Grid:
    """Build the interior grid: nx and ny by NODES, alpha by ALPHA (Grid checks them)."""
    return Grid(nx, ny, alpha)


def _node_array(grid: Grid, given, dtype: type, name: str) -> np.ndarray:
    """given as a flat read-only dtype array, one entry per interior node;
    name names it in the errors.

    One asarray and one ravel, so no copy unless the dtype or the layout
    asks for one.  A length other than grid.n raises ValueError, and so,
    for a float array, does a value that is not finite; both checks run
    before any flag is set, so a rejected array stays the caller's.  When
    the result views the given array, that array and the one that owns
    its memory (.base) become read-only too, so no write through them
    moves a value that something kept with the holder was computed from.
    Another writable view of that memory, made before the holder, can
    still write it: only a copy per holder would close that.
    """
    given = np.asarray(given, dtype=dtype)
    flat = given.ravel()
    if flat.size != grid.n:
        raise ValueError(f"{name} has length {flat.size}, grid has {grid.n} interior nodes")
    if dtype is float and not np.isfinite(flat).all():
        raise ValueError(f"{name} must be finite (no NaN/Inf)")
    flat.flags.writeable = False
    if flat.base is not None:  # flat views the given array and the one that owns its memory
        given.flags.writeable = flat.base.flags.writeable = False
    return flat


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Nodal scalar field on the interior nodes of a Grid: a read-only value.

    values is a flat float array of length nx*ny in C order of the
    (ny, nx) node lattice, i.e. entry j*nx + i holds the value at
    (x_i, y_j).  Boundary values are implicitly zero.  values is finite
    and read-only by the node-array rule (_node_array).  Derivatives,
    norms and self-pairings are computed once and kept (_once).  Compares
    and hashes by identity.  As a value it needs no copy, and it keeps
    only the arithmetic the library uses: a difference and a scale by a
    factor.
    """

    grid: Grid
    values: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _node_array(self.grid, self.values, float, "GridFunction values"))

    def _once(self, key, compute: Callable[[], object]):
        """compute() on the first call with key; the same object on every later one."""
        memo = self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    @classmethod
    def zeros(cls, grid: Grid) -> "GridFunction":
        return cls(grid, np.zeros(grid.n))

    @classmethod
    def from_callable(cls, grid: Grid, fn) -> "GridFunction":
        """Sample fn at the interior nodes on the open grid.

        fn receives x of shape (1, nx) and y of shape (ny, 1), never full
        (ny, nx) coordinate arrays, and its result must broadcast to
        (ny, nx): a function of x alone is evaluated nx times, not
        nx*ny.  Elementwise numpy arithmetic on the open grid gives the
        same bits as on full coordinate arrays.  A result that does not
        broadcast raises ValueError.
        """
        shape = (grid.ny, grid.nx)
        values = np.asarray(fn(grid.x[None, :], grid.y[:, None]), dtype=float)
        if values.shape != shape:
            try:
                values = np.broadcast_to(values, shape)
            except ValueError:
                raise ValueError(f"fn returned shape {values.shape}, which does not broadcast to {shape}") from None
        return cls(grid, values.reshape(grid.n))

    def values2d(self) -> np.ndarray:
        """View of the values as an (ny, nx) array indexed [j, i]: row j is y-row j."""
        return self.values.reshape(self.grid.ny, self.grid.nx)

    def _check_same_grid(self, other: "GridFunction") -> None:
        # most pairs share one Grid object; only distinct ones compare by value
        if self.grid is not other.grid and self.grid != other.grid:
            raise ValueError("GridFunctions live on different grids")

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, factor: float) -> "GridFunction":
        """The field scaled by a FINITE factor."""
        return GridFunction(self.grid, self.values * float(FINITE.check("factor", factor)))

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class RegionMask:
    """Boolean indicator over interior nodes (characteristic function),
    read-only by the node-array rule (_node_array), so the cached nodes
    and rows keep agreeing with it.  Compares and hashes by identity."""

    grid: Grid
    indicator: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indicator", _node_array(self.grid, self.indicator, bool, "RegionMask indicator"))

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """Read-only ascending flat indices of the region's nodes."""
        nodes = np.flatnonzero(self.indicator)
        nodes.flags.writeable = False
        return nodes

    @functools.cached_property
    def _rows(self) -> tuple[int, int]:
        """Indices j of the lowest and the highest y-row holding a node of the region."""
        if self.nodes.size == 0:
            raise ValueError("region contains no interior nodes")
        return int(self.nodes[0] // self.grid.nx), int(self.nodes[-1] // self.grid.nx)

    @property
    def bottom_row(self) -> int:
        return self._rows[0]

    @property
    def top_row(self) -> int:
        return self._rows[1]

    def apply(self, u: GridFunction) -> GridFunction:
        """Multiply u by the characteristic function of the region."""
        if u.grid != self.grid:
            raise ValueError("mask and GridFunction live on different grids")
        return GridFunction(self.grid, np.where(self.indicator, u.values, 0.0))


def rect_mask(grid: Grid, x0: float, x1: float, y0: float, y1: float) -> RegionMask:
    """Mask of interior nodes inside the open rectangle (x0,x1) x (y0,y1)."""
    RECT.check("rectangle", [x0, x1, y0, y1])
    inside_x, inside_y = grid.rect_axes(x0, x1, y0, y1)
    return RegionMask(grid, (inside_y[:, None] & inside_x[None, :]).reshape(grid.n))


def _cell_sums(u: GridFunction) -> np.ndarray:
    """Cell averages of u as a fresh C-contiguous (ny+1, nx+1) array.

    They are formed in a flat row layout: cell (j, i) at flat index
    j*(nx+2) + i, rows of width nx+2 whose last entry is spare.  The nodal
    values are copied once into a zero buffer in the same layout, padded
    by the implicit zero boundary and one trailing zero, so the four
    corners of every cell are the buffer shifted by 0, 1, nx+2 and nx+3
    entries: the corner, its x-neighbour, its y-neighbour and the
    diagonal.  The sum ((a + b) + c) + d and the scale by 0.25 are
    contiguous 1-D passes with the order of 0.25 * (a + b + c + d), so
    every average keeps its bits.  One copy, made once the buffer is
    freed, drops the spare column.  The caller owns the result and may
    work in place on it.
    """
    g = u.grid
    width = g.nx + 2
    size = (g.ny + 1) * width
    buf = np.zeros(size + width + 1)
    buf[width:size].reshape(g.ny, width)[:, 1:-1] = u.values2d()
    flat = buf[:size] + buf[1 : size + 1]
    flat += buf[width : width + size]
    flat += buf[width + 1 :]
    flat *= 0.25
    del buf  # so that the copy below adds no third cell array to the peak
    return flat.reshape(g.ny + 1, width)[:, :-1].copy()


def _quadrature(w: np.ndarray, cells: np.ndarray) -> np.float64:
    """np.sum(w * cells), with the product formed in cells.

    cells is a C-contiguous (ny+1, nx+1) array the caller owns
    (_cell_sums), so numpy's pairwise sum sees the same array as in
    np.sum(w * cells); ndarray.sum is that sum without np.sum's dispatch.
    """
    return np.multiply(w, cells, out=cells).sum()


@functools.lru_cache(maxsize=32)
def _weights(grid: Grid, exponent: float, theta: float) -> np.ndarray:
    """cell_weights of checked arguments, computed once per key."""
    w = grid.hx * grid.hy * np.power(grid.xc, exponent)
    if theta != 0:
        w = w * np.exp(-theta * grid.yc)[:, None]
    w.flags.writeable = False
    return np.broadcast_to(w, (grid.ny + 1, grid.nx + 1))


@functools.lru_cache(maxsize=32)
def _x_power(grid: Grid, exponent: float) -> np.ndarray:
    """The read-only node row grid.x**exponent, shape (nx,), computed once
    per (grid, exponent): the lumped control weights of the game."""
    row = grid.x**exponent
    row.flags.writeable = False
    return row


def cell_weights(grid: Grid, exponent: float, theta: float = 0.0) -> np.ndarray:
    """Quadrature weights hx*hy * xc**exponent * exp(-theta*yc), shape (ny+1, nx+1).

    The result is a read-only array shared by every caller with the same
    grid, exponent and theta, computed once; at theta = 0 it is a view of
    one row of nx+1 weights.  An exponent that is not FINITE, or a theta
    that is not FINITE_NONNEGATIVE, raises ValueError on every call.
    """
    FINITE.check("exponent", exponent)
    return _weights(grid, exponent, FINITE_NONNEGATIVE.check("theta", theta))


def _keep_self_pairing(u: GridFunction, exponent: float, theta: float, compute: Callable[[], float]) -> float:
    """The self-pairing weighted_inner(u, u, exponent, theta), exponent > -1,
    kept with u under the one key every self-pairing shares: compute() on
    the first call, the kept float on every later one."""
    return u._once(("weighted_inner", exponent, theta), compute)


def weighted_inner(u: GridFunction, v: GridFunction, exponent: float, theta: float = 0.0) -> float:
    """Quadrature value of the weighted pairing of u and v.

    Computes the integral over the unit square of
    x**exponent * exp(-theta*y) * u * v by the midpoint rule
    on the (ny+1) x (nx+1) cells, using cell-center values of the weight
    and of the bilinear interpolants of the nodal data.  The weight is
    only ever evaluated at cell centers, so any exponent > -1 integrates
    the singular column correctly; with exponent <= -1 the value is still
    defined but the underlying integral may diverge, and a
    DegenerateWeightWarning is emitted whenever the integrand carries
    mass in the first cell column.  An exponent that is not FINITE, or a
    theta that is not FINITE_NONNEGATIVE, raises ValueError (cell_weights)
    on every call.  A self-pairing (v is u) with exponent > -1 is computed
    once per (exponent, theta) and kept with u (GridFunction._once); one
    with exponent <= -1 is computed, and warns, on every call.  A kept
    self-pairing with theta != 0 also keeps the unweighted (exponent, 0)
    one, if it is not kept yet, summed from the same squared averages in
    a second array: one more weighted sum, no second cell pass.  ub * vb
    and then the weighted product are formed in ub's own cell array.
    """
    u._check_same_grid(v)
    w = cell_weights(u.grid, exponent, theta)
    kept = v is u and exponent > -1.0

    def pairing() -> float:
        # elementwise products commute exactly, so forming ub * vb in ub's
        # array keeps the pairing symmetric to the last bit
        prod = _cell_sums(u)
        prod *= prod if v is u else _cell_sums(v)
        if exponent <= -1.0 and np.any(prod[:, 0] != 0.0):
            warnings.warn(
                f"x**({exponent}) is not integrable at x=0 and the integrand is "
                "nonzero in the first cell column; the quadrature value does not "
                "converge under refinement",
                DegenerateWeightWarning,
                stacklevel=3,
            )
        if kept and theta != 0:
            # a fresh product array sums in the order _quadrature's in-place one does
            _keep_self_pairing(u, exponent, 0.0, lambda: float(np.multiply(cell_weights(u.grid, exponent), prod).sum()))
        return float(_quadrature(w, prod))

    return _keep_self_pairing(u, exponent, theta, pairing) if kept else pairing()


def _power_sums(u: GridFunction) -> dict[float, float]:
    """The midpoint sums of |ub|**q for q = 2, 3 and 4, unweighted, keyed
    by q, all from one cell pass: the sums of the L^q norms, q in
    norms.Q_VALUES, that norms.lq_norm keeps.

    The q = 2 sum is the self-pairing weighted_inner(u, u, 0.0), kept with
    u if it is not kept yet, and read from there, so it has that
    pairing's bits: |ub| * |ub| is ub * ub.  The squares ub * ub are one
    array beside the averages; q = 3 is |ub| * (ub * ub), formed in the
    averages' array, the bits of (|ub| * |ub|) * |ub| since IEEE products
    commute, and q = 4 squares the squares in that array after its sum.
    The q = 3 and q = 4 products carry at most about (q - 1) units of
    round-off where pow rounds once (Higham 2002, sec. 3.1).  No cell
    array outlives the call.
    """
    w = cell_weights(u.grid, 0.0)
    cells = _cell_sums(u)
    squares = cells * cells
    np.abs(cells, out=cells)
    cells *= squares
    cube = _quadrature(w, cells)
    np.multiply(squares, squares, out=cells)
    fourth = _quadrature(w, cells)
    square = _keep_self_pairing(u, 0.0, 0.0, lambda: float(_quadrature(w, squares)))
    return {2.0: square, 3.0: cube, 4.0: fourth}
