"""Weighted norms, sampled Muckenhoupt A_2 constants, and embedding ratios.

The data norm is the half-exponent form (integral of x**-alpha f^2)^(1/2),
the one the energy estimate controls.  Discrete derivatives reuse the
operator module's difference conventions so that norm ratios compare like
with like.  The A_2 constant of a weight w = x**e is the supremum over
balls of (avg of w) * (avg of 1/w).  Its ball averages integrate both
x-powers exactly in y (the chord length of the ball inside the square is
closed-form) and by midpoint quadrature in x, which keeps the x=0
singularity off the evaluation points; each ball's chord is computed once
and shared by both powers of every weight of a panel (muckenhoupt_panel).
Quadrature weights come from grid.cell_weights, which caches them per
(grid, exponent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, _cell_sums, _quadrature, cell_weights, weighted_inner
from .operators import dx, dy

DIAM = math.sqrt(2.0)
# Muckenhoupt sampling: midpoint nodes per ball, the log-uniform radius
# range, and the product above which a weight counts as diverged (well
# below the quadrature saturation scale ~N_QUAD**2).
N_QUAD = 2048
R_MIN, R_MAX = 1e-3, DIAM
OVERFLOW = 1e4


@dataclass(frozen=True)
class NormReport:
    """Constituent seminorms of the weighted solution space.

    w11**2 = l2**2 + dx_l2**2 + weighted_dy_l2**2 by construction, and
    v_norm**2 = w11**2 + mixed_l2**2 when the mixed derivative is included.
    """

    l2: float
    dx_l2: float
    weighted_dy_l2: float
    w11: float
    mixed_l2: float | None = None
    v_norm: float | None = None


@dataclass(frozen=True)
class ApEstimate:
    """A weight's sampled A_2 constant (the largest ball product), its
    smallest ball product, the number of balls, and the divergence flag."""

    constant: float
    samples: int
    diverged: bool
    least: float

    def __post_init__(self):
        if not self.diverged and self.constant < 0:
            raise ValueError("A_2 constant cannot be negative")


def norms_of(u: GridFunction, include_mixed: bool = False) -> NormReport:
    """All seminorms of u with the shared derivative/quadrature conventions."""
    alpha = u.grid.alpha
    dxu, dyu = dx(u), dy(u)
    l2 = math.sqrt(max(weighted_inner(u, u, 0.0), 0.0))
    dx_l2 = math.sqrt(max(weighted_inner(dxu, dxu, 0.0), 0.0))
    wdy = math.sqrt(max(weighted_inner(dyu, dyu, alpha), 0.0))
    w11 = math.sqrt(l2**2 + dx_l2**2 + wdy**2)
    mixed = v_norm = None
    if include_mixed:
        m = dx(dyu)
        mixed = math.sqrt(max(weighted_inner(m, m, 0.0), 0.0))
        v_norm = math.sqrt(w11**2 + mixed**2)
    return NormReport(l2=l2, dx_l2=dx_l2, weighted_dy_l2=wdy, w11=w11, mixed_l2=mixed, v_norm=v_norm)


def l2_weighted_norm(f: GridFunction) -> float:
    """Data-space norm (integral of x**-alpha f^2)^(1/2) of f.

    A DegenerateWeightWarning fires when alpha >= 1 and f carries mass
    next to x=0.
    """
    return math.sqrt(max(weighted_inner(f, f, -f.grid.alpha), 0.0))


def lq_norm(u: GridFunction, q: float) -> float:
    """Unweighted L^q norm by the shared midpoint-in-cell quadrature."""
    if not (1.0 <= q < math.inf):
        raise ValueError(f"q must lie in [1, inf), got {q}")
    # |ub|**q in the averages' own buffer; `**` keeps numpy's q = 2 fast path
    cells = _cell_sums(u)
    np.abs(cells, out=cells)
    cells **= q
    return float(_quadrature(cell_weights(u.grid, 0.0), cells, u.grid) ** (1.0 / q))


def embedding_ratio(u: GridFunction, q: float) -> float:
    """||u||_{L^q} / ||u||_{W11}; the embedding constants live in [2,4]."""
    if not (2.0 <= q <= 4.0):
        raise ValueError(f"embedding ratio requires q in [2, 4], got {q}")
    w11 = norms_of(u).w11
    if w11 == 0.0:
        raise ValueError("embedding ratio undefined for u = 0")
    return lq_norm(u, q) / w11


# ---------------------------------------------------------------------------
# Ball-average machinery for the Muckenhoupt conditions.
# ---------------------------------------------------------------------------


def _ball_integral(cx: float, cy: float, r: float, exponents: tuple[float, ...]) -> tuple[list[float], float]:
    """([integral of x**e over B((cx,cy),r) cap Omega for e in exponents],
    area of that set).

    The y-extent of the intersection at abscissa x is a closed-form chord,
    so only the x-integration is numerical (midpoint rule, never at x=0).
    The chord is computed once for all exponents.
    """
    x_lo, x_hi = max(0.0, cx - r), min(1.0, cx + r)
    if x_hi <= x_lo:
        return [0.0] * len(exponents), 0.0
    step = (x_hi - x_lo) / N_QUAD
    x = x_lo + (np.arange(N_QUAD) + 0.5) * step
    half = np.sqrt(np.maximum(r * r - (x - cx) ** 2, 0.0))
    chord = np.maximum(np.minimum(cy + half, 1.0) - np.maximum(cy - half, 0.0), 0.0)
    area = float(np.sum(chord) * step)
    values = [float(np.sum(np.power(x, e) * chord) * step) for e in exponents]
    return values, area


def _sample_balls(n_balls: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    cx = rng.uniform(0.0, 1.0, n_balls)
    cy = rng.uniform(0.0, 1.0, n_balls)
    # Log-uniform radii probe the degeneracy scale and the domain scale alike.
    r = np.exp(rng.uniform(math.log(R_MIN), math.log(R_MAX), n_balls))
    return cx, cy, r


def muckenhoupt_panel(weight_exponents: tuple[float, ...], n_balls: int, seed: int) -> list[ApEstimate]:
    """Sampled A_2 constant of each weight w = x**e, e in weight_exponents.

    Draws n_balls balls with centers uniform in the square and radii
    log-uniform in [R_MIN, R_MAX], evaluates the A_2 product
    (avg of w) * (avg of 1/w) over each B cap Omega, and returns the
    sample supremum per weight.  All weights share one draw of the balls,
    and each ball's chord is computed once for every weight.  Divergence
    is data, not an error: a weight's flag is set when any of its
    products exceeds OVERFLOW or is nonfinite.  least is the smallest
    product, at least 1 by Cauchy-Schwarz for the positive quadrature
    weights of _ball_integral.  A ball that meets the square in zero area
    has no averages: it records the product 0.0 and is left out of least
    (inf if no ball is left).  None is drawn here, since every radius is
    at least R_MIN and every centre lies in the square.
    """
    if n_balls < 1:
        raise ValueError("need at least one ball")
    cxs, cys, rs = _sample_balls(n_balls, seed)
    # the integrals of w and 1/w of each weight, in that order
    exponents = tuple(x for e in weight_exponents for x in (e, -e))
    products = np.empty((len(weight_exponents), n_balls))
    measured = np.empty(n_balls, dtype=bool)
    for k in range(n_balls):
        integrals, area = _ball_integral(cxs[k], cys[k], rs[k], exponents)
        measured[k] = area > 0.0
        for w, (w_int, inv_int) in enumerate(zip(integrals[::2], integrals[1::2])):
            products[w, k] = (w_int / area) * (inv_int / area) if area > 0.0 else 0.0
    estimates = []
    for row in products:
        finite = np.isfinite(row)
        diverged = bool(np.any(~finite) or np.any(row[finite] > OVERFLOW))
        constant = float(np.max(row)) if np.all(finite) else math.inf
        least = float(np.min(row, where=measured, initial=math.inf))
        estimates.append(ApEstimate(constant=constant, samples=n_balls, diverged=diverged, least=least))
    return estimates
