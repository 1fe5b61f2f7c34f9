"""Weighted norms, Muckenhoupt A_2 constants on a lattice, and embedding ratios.

The data norm is the half-exponent form (integral of x**-alpha f^2)^(1/2),
the one the energy estimate controls.  Discrete derivatives reuse the
operator module's difference conventions so that norm ratios compare like
with like.  The A_2 constant of a weight w = x**e is the supremum over
balls of (avg of w) * (avg of 1/w).  Its ball integrals substitute
x = cx - r cos(phi), under which a ball's y-chord times dx is smooth
between the angles where the ball leaves the square in y, and integrate
by Gauss rules on those pieces, graded toward the ball's left end
(_ball_integrals).  A ball that reaches x = 0 takes the Gauss-Jacobi rule
of x**e's singularity there, so x**e, e > -1, is integrated to about
1e-12 relative there too, and e <= -1 gives +inf; a ball tangent to
x = 0 takes that of its (phi - phi_a)**(2e + 2), and e <= -3/2 gives
+inf.  The rules are built by Golub-Welsch from numpy's symmetric
eigensolver, once per (nodes, exponent) (_gauss_jacobi), so this module
imports nothing from scipy; a panel reads a fixed lattice of balls
(_lattice) and computes each ball's chord once for every weight
(muckenhoupt_panel).  Quadrature weights come from grid.cell_weights,
which caches them per (grid, exponent).
norms_of is computed once per field and include_mixed and kept with the
field (GridFunction._once), so embedding_ratio norms a field once for
every q.  lq_norm(u, 2) reads the L^2 self-pairing kept with the field
(grid.weighted_inner); lq_norm forms the cell averages again for each q
other than 2: keeping them would keep a cell array alive per field.  A
whole q takes |ub|**q from products in those buffers (_whole_power), not
from pow: each carries at most about (q - 1) units of round-off, so the
norm stays within about one unit of the pow formula, and every shipped
table keeps its digest.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import FINITE, GridFunction, Rule, _cell_sums, _number, _quadrature, cell_weights, weighted_inner
from .operators import dx, dy

# The Muckenhoupt product above which a weight counts as diverged.  A ball
# that reaches x = 0 integrates x**e to +inf for e <= -1; OVERFLOW also
# flags the finite products such a weight reads on balls just short of
# x = 0 (x**-3: 6e5 at a gap of 1e-4 r).  A_2 weights x**e stay below it
# for |e| <= 0.9999 (half-disks: 5.4e3).
OVERFLOW = 1e4
# Gauss nodes per element of a ball's angle range, and the ratio of the
# geometric grading toward its left end, with its number of levels
GAUSS_NODES = 16
GRADING = 0.25
GRADING_LEVELS = 32
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
    """A weight's A_2 constant on the lattice (the largest ball product), its
    divergence flag and its smallest ball product.  Every product is a
    product of two nonnegative averages, so neither number is negative.
    least is at least 1 by Cauchy-Schwarz: exactly on a ball whose w and
    1/w share one rule, and up to the quadrature error (well below
    analysis.UNIT_TOL) on a ball that reaches x = 0, whose first element
    takes a rule of its own per exponent."""

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
    """Unweighted L^q norm by the shared midpoint-in-cell quadrature; q by LQ_Q.

    q = 2 takes the square root of the self-pairing weighted_inner(u, u, 0.0),
    kept with u, with the bits of the general formula: |ub|**2.0 is
    numpy's ub * ub, and np.float64 ** 0.5 and float ** 0.5 are one pow.
    A whole q forms |ub|**q from products (_whole_power): q = 3 is
    |ub| * (ub * ub) and q = 4 is (ub * ub) * (ub * ub).  Each carries a
    relative error of at most about (q - 1) units of round-off where pow
    rounds once (Higham 2002, sec. 3.1), so the norm, a q-th root, stays
    within about one unit of the ** formula; q = 1 keeps its bits.  Any
    other q takes |ub|**q by one pow per cell.  The weighted product is
    formed in the array that holds |ub|**q.
    """
    LQ_Q.check("q", q)
    if q == 2:
        return weighted_inner(u, u, 0.0) ** 0.5
    cells = _cell_sums(u)
    if q == int(q):
        power = _whole_power(cells, int(q))
    else:
        # |ub|**q in the averages' own buffer
        power = np.abs(cells, out=cells)
        power **= q
    return float(_quadrature(cell_weights(u.grid, 0.0), power) ** (1.0 / q))


def _whole_power(cells: np.ndarray, n: int) -> np.ndarray:
    """|cells| ** n for a whole n >= 1 by left-to-right binary powering.

    A power of two squares cells in place; any other n writes its powers
    into one fresh array of the same size, which it returns, and
    multiplies them by cells, which an odd n first makes |cells|.  An even
    n needs no abs: ub * ub is already non-negative, and a negative
    product rounds as its magnitude does.
    """
    if n % 2:
        np.abs(cells, out=cells)
    if n & (n - 1) == 0:
        while n > 1:
            cells *= cells
            n >>= 1
        return cells
    # cells**2 covers the leading one and the next bit; each later bit squares
    power = np.multiply(cells, cells)
    for i, bit in enumerate(bin(n)[3:]):
        if i:
            power *= power
        if bit == "1":
            power *= cells
    return power


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


@functools.lru_cache(maxsize=32)
def _gauss_jacobi(n: int, e: float) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss rule of the weight u**e on (0, 1), e > -1: read-only
    nodes, ascending, and weights.  e = 0 gives Gauss-Legendre.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of
    the shifted Jacobi recurrence (alpha = 0, beta = e), and the weights
    the squared first components of its unit eigenvectors times the
    weight's mass 1 / (e + 1) (Golub & Welsch, Math. Comp. 23, 1969).
    """
    k = np.arange(1.0, n)
    s = 2.0 * k + e
    diag = np.empty(n)
    diag[0] = (e + 1.0) / (e + 2.0)
    diag[1:] = 0.5 + e * e / (2.0 * s * (s + 2.0))
    # off[j] couples p_j and p_{j+1}
    off = k * (k + e) / (s * np.sqrt(s * s - 1.0))
    # dense: numpy has no tridiagonal eigensolver, and at n = 16 the dense one costs as little
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    weights = vectors[0] ** 2 / (e + 1.0)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _chord_dx(cy, r, cos_a, sin_a, x_a, half):
    """(x, chord * dx/dphi) at phi = phi_a + 2 * half, where x = cx - r cos(phi)
    and x_a, cos_a, sin_a are x, cos and sin at phi_a.

    x = x_a + 2 r sin(half) sin(phi_a + half) and dx/dphi = r sin(phi),
    both by the angle-sum formulas from sin(half) and cos(half), so x keeps
    its relative precision next to x = 0.
    """
    sh, ch = np.sin(half), np.cos(half)
    x = x_a + 2.0 * r * sh * (sin_a * ch + cos_a * sh)
    h = r * (sin_a * (1.0 - 2.0 * sh * sh) + cos_a * (2.0 * sh * ch))
    chord = np.minimum(cy + h, 1.0)
    chord -= np.maximum(cy - h, 0.0)
    np.maximum(chord, 0.0, out=chord)
    chord *= h
    return x, chord


def _ball_integrals(cx: np.ndarray, cy: np.ndarray, r: np.ndarray, exponents: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(integrals, areas) of the balls B((cx, cy), r) cap Omega given as
    arrays of shape (k,): integrals[i, b] is the integral of x**exponents[i]
    over ball b, of shape (len(exponents), k), and areas[b] its area, of
    shape (k,), the e = 0 integral bit for bit.

    With x = cx - r cos(phi), phi in [0, pi], the ball's chord in y at x
    times dx is chord * r sin(phi) dphi, smooth in phi between the y-clip
    angles r sin(phi) = |cy| and r sin(phi) = |1 - cy|, where the chord
    meets y = 0 or y = 1 (a ball centred outside the square in y enters
    it at one of them).  So each ball's range [phi_a, phi_b] (x clipped
    to [0, 1]) is cut at those angles, and graded by GRADING toward phi_a
    from a first element no longer than the distance from phi_a to the
    nearest other singularity of x**e (and, for a ball that reaches or
    touches x = 0, to its first clip angle).  Every
    element takes the GAUSS_NODES-point Gauss-Legendre rule, except the
    first element of a ball whose x-range starts at x = 0
    (_head_integrals).  On a ball that reaches x = 0, x**e is
    (phi - phi_a)**e times a smooth factor there, and e <= -1 gives +inf
    when the chord at x = 0 is positive.  On a ball tangent to x = 0
    (cx == r) whose tangent point lies in the closed square, x and
    chord * dx/dphi both vanish like (phi - phi_a)**2, so the integrand is
    (phi - phi_a)**(2e + 2) times a smooth factor, and e <= -3/2 gives
    +inf.  A ball that misses the square has phi_a = phi_b and no
    elements, so its area and integrals are 0.0.  Each element and each
    ball is summed in its own order, so a ball's bits do not depend on the
    other balls passed with it.
    """
    k = len(cx)
    rho = cx / r
    reach = np.abs(rho) < 1.0
    tangent = (cx == r) & (cy >= 0.0) & (cy <= 1.0)
    # phi_a is the angle of the left end x_a = max(cx - r, 0), and phi_b of
    # the right end min(cx + r, 1)
    cos_a = np.clip(rho, -1.0, 1.0)
    sin_a = np.sqrt(np.maximum((1.0 - rho) * (1.0 + rho), 0.0))
    phi_a = np.arccos(cos_a)
    x_a = np.maximum(cx - r, 0.0)
    phi_b = np.arccos(np.clip((cx - 1.0) / r, -1.0, 1.0))
    # the y-clip angles; those outside (phi_a, phi_b) move to phi_b
    clips = []
    for level in (np.abs(cy), np.abs(1.0 - cy)):
        angle = np.arccos(np.minimum(level / r, 1.0))
        clips += [np.where(level < r, 0.5 * np.pi - angle, phi_b), np.where(level < r, 0.5 * np.pi + angle, phi_b)]
    clips = np.stack(clips, axis=1)
    clips = np.where(clips <= phi_a[:, None], phi_b[:, None], np.minimum(clips, phi_b[:, None]))
    # the first element is no longer than the distance to the next
    # singularity: x vanishes at phi = +- i arccosh(rho) for a ball short of
    # x = 0; for a ball past it, x / (phi - phi_a) vanishes at -phi_a, and
    # the first clip angle ends the Jacobi element, as it does on a tangent
    # ball, whose x / (phi - phi_a)**2 vanishes only at +- 2 pi
    far = np.maximum(rho, 1.0)
    first_clip = np.min(clips, axis=1) - phi_a
    first = np.where(reach, np.minimum(2.0 * phi_a, first_clip), np.log(far + np.sqrt((far - 1.0) * (far + 1.0))))
    first = np.where(tangent, first_clip, first)
    graded = phi_a[:, None] + first[:, None] * GRADING ** -np.arange(GRADING_LEVELS)
    ends = np.sort(np.concatenate([phi_a[:, None], np.minimum(graded, phi_b[:, None]), clips, phi_b[:, None]], axis=1), axis=1)
    lengths = np.diff(ends, axis=1)
    kept = lengths > 0.0
    ball = np.nonzero(kept)[0]
    offset = ends[:, :-1][kept][:, None] - phi_a[ball, None]
    length = lengths[kept][:, None]
    nodes, weights = _gauss_jacobi(GAUSS_NODES, 0.0)
    geometry = (cy[ball, None], r[ball, None], cos_a[ball, None], sin_a[ball, None], x_a[ball, None])
    x, chord_dx = _chord_dx(*geometry, 0.5 * (offset + length * nodes))
    chord_dx *= length * weights
    log_x = np.log(x)
    areas = np.bincount(ball, weights=np.sum(chord_dx, axis=1), minlength=k)
    # the first element of each ball whose x-range starts at x = 0, with x
    # of order p in phi - phi_a there: p = 1 on a ball that reaches x = 0,
    # diverging where its chord at x = 0 is positive, and p = 2 on a
    # tangent ball whose tangent point lies in the closed square
    counts = np.bincount(ball, minlength=k)
    starts = np.cumsum(counts) - counts
    h0 = r * sin_a
    open_at_zero = reach & (np.minimum(cy + h0, 1.0) - np.maximum(cy - h0, 0.0) > 0.0)
    heads = [
        (p, starts[starting], starts[diverging], tuple(a[starting, None] for a in (cy, r, cos_a, sin_a, x_a)))
        for p, starting, diverging in ((1, reach, open_at_zero), (2, tangent, tangent))
    ]
    integrals = np.empty((len(exponents), k))
    for row, e in zip(integrals, exponents):
        values = np.exp(e * log_x)
        values *= chord_dx
        sums = np.sum(values, axis=1)
        for p, head, diverging, geometry in heads:
            if p * e + 2 * (p - 1) <= -1.0:
                sums[diverging] = math.inf
            elif e != 0.0 and len(head):
                sums[head] = _head_integrals(geometry, length[head], e, p)
        row[:] = np.bincount(ball, weights=sums, minlength=k)
    return integrals, areas


def _head_integrals(geometry, length, e, p):
    """The integrals of x**e * chord * dx/dphi over the first elements
    [phi_a, phi_a + length] of balls given by geometry (_chord_dx's), on
    which x is (phi - phi_a)**p times a smooth factor and, for p = 2,
    chord * dx/dphi is (phi - phi_a)**2 times one: the Gauss-Jacobi rule
    of the weight (phi - phi_a)**(p e + 2p - 2).
    """
    power = p * e + 2 * (p - 1)
    nodes, weights = _gauss_jacobi(GAUSS_NODES, float(power))
    t = length * nodes
    x, values = _chord_dx(*geometry, 0.5 * t)
    values *= np.exp(e * np.log(x / t**p)) / t ** (2 * p - 2)
    values *= weights * length ** (power + 1.0)
    return np.sum(values, axis=1)


def _lattice() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The balls muckenhoupt_panel reads, as arrays (cx, cy, r): 93 balls,
    every centre in the closed unit square.  At r = 0.1, centres
    (rho r, sigma r) for rho = cx / r on 9 points of [0, 2] (0 on x = 0, 1
    tangent to it) and sigma = cy / r on 5 points of [0, 1.2] (clipped by
    y = 0 below 1); at r = 0.3, 0.7 and sqrt(2), a 4 x 4 grid of centres on
    the square, clipped by x = 1 and y = 1 too."""
    rho, sigma = np.repeat(np.linspace(0.0, 2.0, 9), 5), np.tile(np.linspace(0.0, 1.2, 5), 9)
    side = np.linspace(0.0, 1.0, 4)
    cx, cy = np.tile(np.repeat(side, 4), 3), np.tile(side, 12)
    r = np.repeat((0.1, 0.3, 0.7, math.sqrt(2.0)), (45, 16, 16, 16))
    return np.concatenate([0.1 * rho, cx]), np.concatenate([0.1 * sigma, cy]), r


def muckenhoupt_panel(weight_exponents: tuple[float, ...]) -> list[ApEstimate]:
    """The A_2 constant of each weight w = x**e, e in weight_exponents: the
    largest product (avg of w) * (avg of 1/w) over B cap Omega, B in the
    lattice (_lattice), each ball's chord computed once for every weight.

    The lattice's half-disks on x = 0 read the half-disk closed form, and
    no ball centred in the closed square reads more (for e = 1/2 and 0.9,
    by 1e-13 at most on a dense scan).  A ball centred outside it can read
    more (x**(1/2) on B((0, 1.2), 1): 1.361130, against 1.358122), so every
    centre stays in the square.  Divergence is data, not an error: a
    weight's flag is set when any of its products exceeds OVERFLOW or is
    nonfinite, and x**e, e <= -1, is +inf on every ball that reaches
    x = 0.  least is the smallest product, at least 1 by Cauchy-Schwarz up
    to the quadrature error (ApEstimate).  A ball that meets the square in
    zero area, of which the lattice holds none, records the product 0.0
    and is left out of least (inf if no ball is left).  An exponent that
    is not FINITE raises ValueError.
    """
    for e in weight_exponents:
        FINITE.check("weight exponent", e)
    cxs, cys, rs = _lattice()
    # the integrals of w and 1/w of each weight, in that order
    exponents = tuple(x for e in weight_exponents for x in (e, -e))
    integrals, areas = _ball_integrals(cxs, cys, rs, exponents)
    measured = areas > 0.0
    w_avg = np.divide(integrals[0::2], areas, out=np.zeros((len(weight_exponents), len(areas))), where=measured)
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
