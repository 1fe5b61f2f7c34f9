"""Nodal field constructors shared by the studies, the game, and the tests.

Named fields, and the one manufactured pair the convergence study
solves for (u* = sin(pi x) sin(pi y) and its forcing), are sampled on the
open grid.  Bump test functions are
built from 1-D factors: each windowed Gaussian is an outer product of an
x-array and a y-array, and a bump is their sum, formed as one
contraction over the Gaussians, within 1e-14 * max|bump| of the 2-D
formula.
"""

from __future__ import annotations

import functools

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


def bump_parameter_sets(n: int, seed: int) -> list[dict]:
    """Draw bump parameters once so the same smooth functions can be
    re-sampled on several grids (refinement studies); seed by SEED."""
    rng = np.random.default_rng(SEED.check("seed", seed))
    return [
        {
            "centers": rng.uniform(0.25, 0.75, size=(N_BUMPS, 2)),
            "widths": rng.uniform(0.05, 0.2, size=N_BUMPS),
            "amps": rng.uniform(-1.0, 1.0, size=N_BUMPS),
        }
        for _ in range(n)
    ]


@functools.lru_cache(maxsize=8)
def _bump_frame(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (x, y, w_x, w_y) of grid: the 1-D node coordinates and
    the window's 1-D factors w_x = _window(x), w_y = _window(y)."""
    x, y = grid.x, grid.y
    frame = (x, y, _window(x), _window(y))
    for a in frame:
        a.flags.writeable = False
    return frame


def bump_from_parameters(grid: Grid, params: dict) -> GridFunction:
    """Superposition of Gaussian bumps windowed to vanish identically near
    the boundary (so that all trace terms drop out exactly).

    Each windowed Gaussian a * exp(-((x-cx)**2 + (y-cy)**2) / (2 s s))
    * w_x(x) * w_y(y) is separable, so it is the outer product v (x) u,
    rows in y, of u = w_x * exp(-(x-cx)**2 / (2 s s)) and
    v = w_y * a * exp(-(y-cy)**2 / (2 s s)): nx + ny exps per Gaussian,
    not nx * ny.  The bump is the sum of these outer products, formed as
    one einsum contraction over the Gaussians into the result array; it
    calls no BLAS routine and adds the Gaussians in their order.  The
    result lies within 1e-14 * max|bump| of the 2-D formula.  The 1-D
    frame is computed once per grid."""
    x, y, w_x, w_y = _bump_frame(grid)
    centers, widths, amps = (np.asarray(params[key]) for key in ("centers", "widths", "amps"))
    # row k of u and v holds the factors of Gaussian k
    q = -(2 * widths * widths)[:, None]  # -(d / q) and d / -q round alike
    u = np.exp((x - centers[:, :1]) ** 2 / q)
    u *= w_x
    v = w_y * amps[:, None]
    v *= np.exp((y - centers[:, 1:]) ** 2 / q)
    return GridFunction(grid, np.einsum("ki,kj->ij", v, u))
