"""Weighted norms, sampled Muckenhoupt A_2 constants, and embedding ratios.

The data norm is the half-exponent form (integral of x**-alpha f^2)^(1/2),
the one the energy estimate controls.  Discrete derivatives reuse the
operator module's difference conventions so that norm ratios compare like
with like.  The A_2 constant of a weight w = x**e is the supremum over
balls of (avg of w) * (avg of 1/w).  Its ball averages integrate both
x-powers exactly in y (the chord length of the ball inside the square is
closed-form) and by midpoint quadrature in x, which keeps the x=0
singularity off the evaluation points; each ball's chord is computed once
and shared by both powers of every weight of a panel (muckenhoupt_panel),
which integrates its balls in batches of BALL_BATCH (_ball_integrals).
Quadrature weights come from grid.cell_weights, which caches them per
(grid, exponent).  norms_of is computed once per field and include_mixed
and kept with the field (GridFunction._once), so embedding_ratio norms a
field once for every q.  lq_norm forms the cell averages again for each q:
keeping them would keep a cell array alive per field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import AT_LEAST_ONE, SEED, GridFunction, Rule, _cell_sums, _number, _quadrature, cell_weights, weighted_inner
from .operators import dx, dy

DIAM = math.sqrt(2.0)
# Muckenhoupt sampling: midpoint nodes per ball, the log-uniform radius
# range, and the product above which a weight counts as diverged (well
# below the quadrature saturation scale ~N_QUAD**2).
N_QUAD = 2048
# balls integrated per array pass of muckenhoupt_panel; each pass holds a
# few (BALL_BATCH, N_QUAD) arrays, 128 KiB apiece
BALL_BATCH = 8
R_MIN, R_MAX = 1e-3, DIAM
OVERFLOW = 1e4
EMBEDDING_Q = Rule("must lie in [2, 4]", lambda q: 2.0 <= q <= 4.0)
LQ_Q = _number("must lie in [1, inf)", lambda q: 1.0 <= q < math.inf)


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
    divergence flag and its smallest ball product.  Every product is a
    product of two nonnegative averages, so neither number is negative."""

    constant: float
    diverged: bool
    least: float


def norms_of(u: GridFunction, include_mixed: bool = False) -> NormReport:
    """All seminorms of u by the shared conventions, computed once per field and include_mixed."""
    return u._once(("norms_of", bool(include_mixed)), lambda: _norms(u, include_mixed))


def _norms(u: GridFunction, include_mixed: bool) -> NormReport:
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
    """Unweighted L^q norm by the shared midpoint-in-cell quadrature; q by LQ_Q."""
    LQ_Q.check("q", q)
    # |ub|**q in the averages' own buffer; `**` keeps numpy's q = 2 fast path
    cells = _cell_sums(u)
    np.abs(cells, out=cells)
    cells **= q
    return float(_quadrature(cell_weights(u.grid, 0.0), cells, u.grid) ** (1.0 / q))


def embedding_ratio(u: GridFunction, q: float) -> float:
    """||u||_{L^q} / ||u||_{W11}, for q that meets EMBEDDING_Q."""
    EMBEDDING_Q.check("q", q)
    w11 = norms_of(u).w11
    if w11 == 0.0:
        raise ValueError("embedding ratio undefined for u = 0")
    return lq_norm(u, q) / w11


# ---------------------------------------------------------------------------
# Ball-average machinery for the Muckenhoupt conditions.
# ---------------------------------------------------------------------------

# midpoint offsets of the N_QUAD x-nodes, in units of a ball's x-step
_MIDPOINTS = np.arange(N_QUAD) + 0.5
_MIDPOINTS.flags.writeable = False


def _ball_integrals(cx: np.ndarray, cy: np.ndarray, r: np.ndarray, exponents: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(integrals, areas) of the balls B((cx, cy), r) cap Omega given as
    columns of shape (k, 1): integrals[i, b] is the integral of
    x**exponents[i] over ball b, of shape (len(exponents), k), and
    areas[b] its area, of shape (k,).

    The y-extent of the intersection at abscissa x is a closed-form chord,
    so only the x-integration is numerical (midpoint rule, never at x=0).
    Each ball's chord is computed once for all exponents, on a (k, N_QUAD)
    array whose row sums are the per-ball sums bit for bit.  A ball that
    misses the square integrates over the empty interval [1, 1], so its
    step, area and integrals are 0.0.
    """
    x_lo = np.maximum(cx - r, 0.0)
    x_hi = np.minimum(cx + r, 1.0)
    miss = x_hi <= x_lo
    x_lo = np.where(miss, 1.0, x_lo)
    x_hi = np.where(miss, 1.0, x_hi)
    step = (x_hi - x_lo) / N_QUAD
    x = x_lo + _MIDPOINTS * step
    # chord = max(min(cy + half, 1) - max(cy - half, 0), 0), in two buffers
    half = x - cx
    np.square(half, out=half)
    np.subtract(r * r, half, out=half)
    np.maximum(half, 0.0, out=half)
    np.sqrt(half, out=half)
    chord = np.add(cy, half)
    np.minimum(chord, 1.0, out=chord)
    np.subtract(cy, half, out=half)
    np.maximum(half, 0.0, out=half)
    chord -= half
    np.maximum(chord, 0.0, out=chord)
    step = step[:, 0]
    areas = np.sum(chord, axis=1) * step
    integrals = np.empty((len(exponents), len(step)))
    for row, e in zip(integrals, exponents):
        np.power(x, e, out=half)
        half *= chord
        np.sum(half, axis=1, out=row)
        row *= step
    return integrals, areas


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
    and each ball's chord is computed once for every weight; the balls are
    integrated BALL_BATCH at a time (_ball_integrals).  Divergence
    is data, not an error: a weight's flag is set when any of its
    products exceeds OVERFLOW or is nonfinite.  least is the smallest
    product, at least 1 by Cauchy-Schwarz for the positive quadrature
    weights of _ball_integrals.  A ball that meets the square in zero area
    has no averages: it records the product 0.0 and is left out of least
    (inf if no ball is left).  None is drawn here, since every radius is
    at least R_MIN and every centre lies in the square.
    """
    AT_LEAST_ONE.check("n_balls", n_balls)
    SEED.check("seed", seed)
    cxs, cys, rs = (a[:, None] for a in _sample_balls(n_balls, seed))
    # the integrals of w and 1/w of each weight, in that order
    exponents = tuple(x for e in weight_exponents for x in (e, -e))
    integrals = np.empty((len(exponents), n_balls))
    areas = np.empty(n_balls)
    for start in range(0, n_balls, BALL_BATCH):
        batch = slice(start, min(start + BALL_BATCH, n_balls))
        integrals[:, batch], areas[batch] = _ball_integrals(cxs[batch], cys[batch], rs[batch], exponents)
    measured = areas > 0.0
    w_avg = np.divide(integrals[0::2], areas, out=np.zeros((len(weight_exponents), n_balls)), where=measured)
    inv_avg = np.divide(integrals[1::2], areas, out=np.zeros_like(w_avg), where=measured)
    products = w_avg * inv_avg
    finite = np.isfinite(products)
    diverged = np.any(~finite | (products > OVERFLOW), axis=1)
    constants = np.where(np.all(finite, axis=1), np.max(products, axis=1), math.inf)
    least = np.min(products, axis=1, where=measured, initial=math.inf)
    return [
        ApEstimate(constant=float(c), diverged=bool(d), least=float(m))
        for c, d, m in zip(constants, diverged, least)
    ]
