"""Nodal field constructors shared by the studies, the game, and the tests."""

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
# manufactured_pair's forcings f* = -1/2 u*_xx + x**alpha u*_y, by kind.
_FORCINGS = {
    "sinsin": lambda X, Y, alpha: (np.pi**2 / 2) * np.sin(np.pi * X) * np.sin(np.pi * Y) + X**alpha * np.pi * np.sin(np.pi * X) * np.cos(np.pi * Y),
    "poly": lambda X, Y, alpha: Y * (1 - Y) + X**alpha * X * (1 - X) * (1 - 2 * Y),
}
FIELD_KINDS = tuple(_FIELDS)
MANUFACTURED_KINDS = tuple(_FORCINGS)
FIELD_KIND = Rule.one_of(FIELD_KINDS)
MANUFACTURED_KIND = Rule.one_of(MANUFACTURED_KINDS)


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


def manufactured_pair(grid: Grid, kind: str = "sinsin") -> tuple[GridFunction, GridFunction]:
    """Exact solution u* and forcing f* = -1/2 u*_xx + x**alpha u*_y.

    'sinsin': u* = sin(pi x) sin(pi y);
    'poly':   u* = x(1-x) y(1-y), whose diffusion part is exact under
              centered differencing.
    """
    forcing = functools.partial(_FORCINGS[MANUFACTURED_KIND.check("kind", kind)], alpha=grid.alpha)
    return named_field(grid, kind), GridFunction.from_callable(grid, forcing)


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


# The bump window is 0 within CUTOFF_LO of the boundary and 1 beyond CUTOFF_HI.
CUTOFF_LO, CUTOFF_HI = 0.05, 0.15
# Gaussians per bump function.
N_BUMPS = 4


def boundary_cutoff(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Smooth window equal to 1 well inside the square and identically 0
    within distance CUTOFF_LO of the boundary."""

    def ramp(t):
        return _smoothstep((t - CUTOFF_LO) / (CUTOFF_HI - CUTOFF_LO))

    return ramp(X) * ramp(1 - X) * ramp(Y) * ramp(1 - Y)


def bump_parameter_sets(n: int, seed: int) -> list[dict]:
    """Draw bump parameters once so the same smooth functions can be
    re-sampled on several grids (refinement studies); seed by SEED."""
    rng = np.random.default_rng(SEED.check("seed", seed))
    out = []
    for _ in range(n):
        out.append(
            dict(
                centers=rng.uniform(0.25, 0.75, size=(N_BUMPS, 2)),
                widths=rng.uniform(0.05, 0.2, size=N_BUMPS),
                amps=rng.uniform(-1.0, 1.0, size=N_BUMPS),
            )
        )
    return out


@functools.lru_cache(maxsize=8)
def _bump_frame(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (x, y, window) of grid: the open grid, x of shape (nx, 1)
    and y of shape (1, ny), and boundary_cutoff(x, y) of shape (nx, ny)."""
    x, y = grid.x[:, None], grid.y[None, :]
    frame = (x, y, boundary_cutoff(x, y))
    for a in frame:
        a.flags.writeable = False
    return frame


def bump_from_parameters(grid: Grid, params: dict) -> GridFunction:
    """Superposition of Gaussian bumps windowed to vanish identically near
    the boundary (so that all trace terms drop out exactly).

    The open grid and the window are computed once per grid."""
    x, y, window = _bump_frame(grid)
    out = np.zeros(window.shape)
    # each Gaussian a * exp(-(dx**2 + dy**2) / (2 s s)) is formed in one
    # term buffer, in the order of the formula
    term = np.empty(window.shape)
    for (cx, cy), s, a in zip(params["centers"], params["widths"], params["amps"]):
        np.copyto(term, (x - cx) ** 2)
        term += (y - cy) ** 2
        term /= -(2 * s * s)  # -(d / q) and d / -q round alike
        np.exp(term, out=term)
        term *= a
        out += term
    out *= window
    return GridFunction(grid, out)
