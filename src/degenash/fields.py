"""Nodal field constructors shared by the studies, the game, and the tests.

Named fields, and the one manufactured pair the convergence study
solves for (u* = sin(pi x) sin(pi y) and its forcing), are sampled on the
open grid.  Bump test functions are
built from 1-D factors: each windowed Gaussian is an outer product of an
x-array and a y-array, and a bump is their sum, formed as one
contraction over the Gaussians, within 1e-14 * max|bump| of the 2-D
formula.

A bump family is one record of arrays (BumpFamily), drawn in one call
(bump_family).  bumps(grid, family) shapes it in array passes: the 1-D
factors of BUMP_CHUNK bumps at a time in one set of array operations
(bump_factors), then each bump as one contraction (bump_from_factors),
yielded with one bump alive at a time.  Every draw and every bump keeps
the bits of drawing and forming it alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .grid import FINITE, SEED, Grid, GridFunction, Rule


# named_field's kinds, each a function of the node coordinates and alpha,
# sampled on the open grid (GridFunction.from_callable).  Each returns a
# fresh array, which named_field scales in place.
_FIELDS = {
    "zero": lambda X, Y, alpha: 0.0 * X,
    "one": lambda X, Y, alpha: np.ones_like(X),
    "sinsin": lambda X, Y, alpha: np.sin(np.pi * X) * np.sin(np.pi * Y),
    "poly": lambda X, Y, alpha: X * (1 - X) * Y * (1 - Y),
    "xalpha_siny": lambda X, Y, alpha: X**alpha * np.sin(np.pi * Y),
    "right_half": lambda X, Y, alpha: (X > 0.5).astype(float),
}
FIELD_KINDS = tuple(_FIELDS)
FIELD_KIND = Rule.one_of(FIELD_KINDS)


def named_field(grid: Grid, kind: str, amplitude: float = 1.0) -> GridFunction:
    """Field registry used by config files.

    Kinds: zero, one, sinsin (sin(pi x) sin(pi y)), poly
    (x(1-x)y(1-y)), xalpha_siny (x**alpha sin(pi y)), right_half
    (indicator of x > 1/2).
    """
    field, scale = _FIELDS[FIELD_KIND.check("kind", kind)], float(FINITE.check("amplitude", amplitude))

    def scaled(X, Y):
        # the bits of the scaled unit field, in one GridFunction
        values = field(X, Y, grid.alpha)
        values *= scale
        return values

    return GridFunction.from_callable(grid, scaled)


def manufactured_pair(grid: Grid) -> tuple[GridFunction, GridFunction]:
    """The convergence study's exact solution u* = sin(pi x) sin(pi y) and
    its forcing f* = -1/2 u*_xx + x**alpha u*_y."""
    alpha = grid.alpha

    def forcing(X, Y):
        return (np.pi**2 / 2) * np.sin(np.pi * X) * np.sin(np.pi * Y) + X**alpha * np.pi * np.sin(np.pi * X) * np.cos(np.pi * Y)

    return named_field(grid, "sinsin"), GridFunction.from_callable(grid, forcing)


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


# The bump window is 0 within CUTOFF_LO of the boundary and 1 beyond CUTOFF_HI.
CUTOFF_LO, CUTOFF_HI = 0.05, 0.15
# Gaussians per bump function.
N_BUMPS = 4


def _window(t: np.ndarray) -> np.ndarray:
    """1-D factor of the bump window: 1 well inside (0, 1), identically 0
    within CUTOFF_LO of either end."""

    def ramp(t):
        return _smoothstep((t - CUTOFF_LO) / (CUTOFF_HI - CUTOFF_LO))

    return ramp(t) * ramp(1 - t)


@dataclass(frozen=True, eq=False)
class BumpFamily:
    """The parameters of n bump functions, one record of arrays: row k of
    centers (n, N_BUMPS, 2), widths (n, N_BUMPS) and amps (n, N_BUMPS)
    holds bump k's Gaussians.  The arrays are read-only.  A slice of rows
    is the family of those bumps; a single bump is a family of one."""

    centers: np.ndarray
    widths: np.ndarray
    amps: np.ndarray

    def __len__(self) -> int:
        return len(self.widths)

    def __getitem__(self, rows: slice) -> BumpFamily:
        return BumpFamily(self.centers[rows], self.widths[rows], self.amps[rows])


# A bump's parameters in the order it draws them: 2 N_BUMPS center
# coordinates (x, y per Gaussian), N_BUMPS widths and N_BUMPS amplitudes,
# each uniform on its range; per column, the low end and high - low.
_DRAW_RANGES = ((0.25, 0.75), (0.05, 0.2), (-1.0, 1.0))
_DRAW_COUNTS = (2 * N_BUMPS, N_BUMPS, N_BUMPS)
_DRAW_LOW = np.repeat([low for low, _ in _DRAW_RANGES], _DRAW_COUNTS)
_DRAW_SPAN = np.repeat([high - low for low, high in _DRAW_RANGES], _DRAW_COUNTS)


def bump_family(n: int, seed: int) -> BumpFamily:
    """n bumps drawn once, so the same smooth functions can be re-sampled
    on several grids (refinement studies); seed by SEED.

    One rng.random((n, 4 N_BUMPS)) draw, row k for bump k in the column
    order of _DRAW_RANGES, each column scaled as low + (high - low) * U,
    which is what Generator.uniform computes per draw: the family has the
    bits of drawing each bump's centers, widths and amps in turn with
    uniform, from the same stream."""
    rng = np.random.default_rng(SEED.check("seed", seed))
    values = _DRAW_LOW + _DRAW_SPAN * rng.random((n, len(_DRAW_LOW)))
    values.flags.writeable = False
    return BumpFamily(
        values[:, : 2 * N_BUMPS].reshape(n, N_BUMPS, 2), values[:, 2 * N_BUMPS : 3 * N_BUMPS], values[:, 3 * N_BUMPS :]
    )


@functools.lru_cache(maxsize=8)
def _bump_frame(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (x, y, w_x, w_y) of grid: the 1-D node coordinates and
    the window's 1-D factors w_x = _window(x), w_y = _window(y)."""
    x, y = grid.x, grid.y
    frame = (x, y, _window(x), _window(y))
    for a in frame:
        a.flags.writeable = False
    return frame


# Bumps whose 1-D factors one bump_factors call forms.  A chunk's factors
# and their temporaries stay about as small as one bump, so the studies'
# peak memory is that of one bump at a time; chunks of 16 raised it by
# about 0.1 MB, a whole family of 200 by 1 MB.
BUMP_CHUNK = 8


def bump_factors(grid: Grid, family: BumpFamily) -> tuple[np.ndarray, np.ndarray]:
    """The 1-D factors of every bump of family on grid, u of shape
    (n, N_BUMPS, nx) and v of shape (n, N_BUMPS, ny), in one set of array
    operations.

    Each windowed Gaussian a * exp(-((x-cx)**2 + (y-cy)**2) / (2 s s))
    * w_x(x) * w_y(y) is separable: it is the outer product v (x) u, rows
    in y, of u = w_x * exp(-(x-cx)**2 / (2 s s)) and
    v = w_y * a * exp(-(y-cy)**2 / (2 s s)), so nx + ny exps per
    Gaussian, not nx * ny.  The elementwise expressions of one bump are
    broadcast over the family, so each bump's factors have the bits they
    have in a family of one.  The 1-D frame is computed once per grid."""
    x, y, w_x, w_y = _bump_frame(grid)
    centers, widths, amps = family.centers, family.widths, family.amps
    q = -(2 * widths * widths)[..., None]  # -(d / q) and d / -q round alike
    u = np.exp((x - centers[..., :1]) ** 2 / q)
    u *= w_x
    v = w_y * amps[..., None]
    v *= np.exp((y - centers[..., 1:]) ** 2 / q)
    return u, v


def bump_from_factors(grid: Grid, u: np.ndarray, v: np.ndarray) -> GridFunction:
    """One bump from its factors u (N_BUMPS, nx) and v (N_BUMPS, ny), a
    bump of bump_factors: the sum of its Gaussians' outer products, formed
    as one einsum contraction over the Gaussians into the result array.
    It calls no BLAS routine and adds the Gaussians in their order; the
    result lies within 1e-14 * max|bump| of the 2-D formula."""
    return GridFunction(grid, np.einsum("ki,kj->ij", v, u))


def bumps(grid: Grid, family: BumpFamily) -> Iterator[GridFunction]:
    """Each bump of family on grid, in order: a superposition of Gaussian
    bumps windowed to vanish identically near the boundary (so that all
    trace terms drop out exactly).

    A generator that holds no bump: one is alive at a time, in the
    caller's hands.  It forms the factors BUMP_CHUNK bumps at a time
    (bump_factors) and each bump from its factors (bump_from_factors), so
    a traced run finds the work under those two; the span of this
    generator covers only its creation.  The chunked factor pass serves
    the coercivity check and the embedding study, which sample hundreds
    of bumps per run, and goes with the sampled bump family."""
    for start in range(0, len(family), BUMP_CHUNK):
        u, v = bump_factors(grid, family[start : start + BUMP_CHUNK])
        for u_k, v_k in zip(u, v):
            yield bump_from_factors(grid, u_k, v_k)
