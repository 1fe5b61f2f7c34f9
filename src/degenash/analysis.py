"""Verification campaigns: energy estimate, coercivity, strict inclusion,
scheme convergence, embedding ratios, and a Muckenhoupt lattice panel.
The caps a pass-or-fail verdict is judged by are module constants, echoed in
its thresholds, as is the inclusion study's reference norm w11_exact(alpha);
so are the stabilizing weight exp(-THETA*y), the embedding exponents
Q_VALUES (stated in norms, which accepts only them), the sample counts
and stream seeds COERCIVITY_SAMPLES, EMBEDDING_SAMPLES, COERCIVITY_SEED
and EMBEDDING_SEED, and the sinsin manufactured solution of the
convergence study.  Each study checks its
inputs by the Rules the config reads (grid.Rule).

The coercivity check and the embedding study draw their bumps as one
family (fields.bump_family) and iterate fields.bumps over it, which forms
the bumps' factors in chunks and yields one bump alive at a time; each
study keeps only a few scalars per bump."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .fields import bump_family, bumps, manufactured_pair, named_field
from .grid import ALPHA, DegenerateWeightWarning, GridFunction, Rule, build_grid, weighted_inner
from .norms import GAUSS_NODES, Q_VALUES, _gauss_jacobi, _lattice, embedding_ratio, l2_weighted_norm, muckenhoupt_panel, norms_of
from .operators import _check_residual, bilinear_form, dx, dy, solve_dirichlet

# The Muckenhoupt panel asks the constant weight for an A_2 constant of 1,
# and every ball product of a weight that did not diverge to be at least 1
# (Cauchy-Schwarz), to this tolerance.  The constant weight reads exactly
# 1.0; Cauchy-Schwarz holds up to the quadrature error of the ball
# integrals, below 1e-12 relative, on balls that reach x = 0.  x**(1/2)
# must read its half-disk closed form to CLOSED_FORM_TOL, relatively.
UNIT_TOL = 1e-9
CLOSED_FORM_TOL = 1e-10
# Growth caps of the energy ratio and the embedding constant under
# refinement; the coercivity check inflates its Poincare constant by SAFETY.
RATIO_CAP = 1.2
GROWTH_CAP = 1.1
SAFETY = 1.5
# The last observed order of a convergence study's L2 error and of verify's
# largest weak-form residual must reach this: the upwind scheme is first order in y.
ORDER_THRESHOLD = 0.9
# The stabilizing weight exp(-THETA*y) of the equivalent weak form and of
# the coercivity lemma; verify and the coercivity check both read it.
THETA = 1.0
# The random bumps the coercivity check and the embedding study sample, and
# their streams' seeds, the shipped configs' former seeds: no table moved.
COERCIVITY_SAMPLES = 200
EMBEDDING_SAMPLES = 100
COERCIVITY_SEED = 3
EMBEDDING_SEED = 5


def _levels(least: int) -> Rule:
    """A study's levels, each at least 2: at least `least` of them, and
    strictly increasing, so that no verdict compares a level with itself."""
    return Rule(
        f"must be a strictly increasing list of levels, each at least 2, at least {least} of them",
        lambda levels: len(levels) >= least and all(lv >= 2 for lv in levels)
        and all(b > a for a, b in zip(levels, levels[1:])),
    )


# The levels rule of each study that has levels: two observed orders need
# three levels, and every other verdict compares the finest with the coarsest.
LEVELS = {
    "convergence": _levels(3), "energy": _levels(2), "inclusion": _levels(2), "embedding": _levels(2),
}


class Verdict(str, Enum):
    PASS = "pass"
    FAIL = "fail"


@dataclass
class StudyResult:
    """Per-level metric series plus a thresholded verdict.

    metrics series are aligned with levels; per-sample series (one row
    per test function, ball, or weight) go in `samples`.  observed_orders
    has one entry per consecutive level pair.
    """

    levels: list[int]
    verdict: Verdict
    metrics: dict[str, list[float]] = field(default_factory=dict)
    observed_orders: list[float] = field(default_factory=list)
    thresholds: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)

    def __post_init__(self):
        for name, series in self.metrics.items():
            if len(series) != len(self.levels):
                raise ValueError(f"metric {name!r} has {len(series)} entries for {len(self.levels)} levels")
        lengths = {name: len(series) for name, series in self.samples.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"sample series must have equal lengths, got {lengths}")


# The energy study's five forcing terms: each has a finite weighted data
# norm for alpha in (0, 1] and is positive inside the square.
_ENERGY_FAMILY = (
    lambda g: named_field(g, "xalpha_siny"),
    lambda g: named_field(g, "right_half"),
    lambda g: named_field(g, "poly"),
    lambda g: named_field(g, "sinsin"),
    lambda g: GridFunction.from_callable(g, lambda X, Y: X**g.alpha * Y * (1 - Y)),
)


def energy_estimate_study(levels: Sequence[int], alpha: float) -> StudyResult:
    """Ratio ||u_h||_W11 / ||f||_{L2,half-exponent} per forcing term and level.

    Passes when every forcing term's ratio at the finest level stays within
    RATIO_CAP times its coarsest-level value (the a priori estimate
    asserts a constant exists, not its value), every ratio is finite and
    positive, and every u_h it got back meets the solve's residual contract
    (operators._check_residual) and is nonnegative: the upwind operator is
    an M-matrix and every forcing term is nonnegative, so the march gives
    u_h >= 0 exactly in floating point.
    """
    levels = LEVELS["energy"].check("levels", list(levels))
    ratios: list[list[float]] = [[] for _ in _ENERGY_FAMILY]
    solved = True
    for level in levels:
        grid = build_grid(level, level, alpha)
        for m, gen in enumerate(_ENERGY_FAMILY):
            f = gen(grid)
            u, _ = solve_dirichlet(grid, f)
            solved = solved and _check_residual(grid, u.values, f.values)[1] and np.min(u.values) >= 0.0
            # each term is zero or O(x) at x = 0, so its x**-alpha norm is finite also at alpha = 1
            with warnings.catch_warnings(action="ignore", category=DegenerateWeightWarning):
                data = l2_weighted_norm(f)
            ratios[m].append(norms_of(u).w11 / data)
    metrics = {f"ratio_{m}": series for m, series in enumerate(ratios)}
    positive = all(0.0 < r < math.inf for series in ratios for r in series)
    bounded = all(series[-1] <= RATIO_CAP * series[0] for series in ratios)
    return StudyResult(
        levels=levels,
        metrics=metrics,
        verdict=Verdict.PASS if (solved and positive and bounded) else Verdict.FAIL,
        thresholds={"ratio_cap": RATIO_CAP},
    )


def stabilized_form_value(v: GridFunction, theta: float) -> float:
    """a(v,v) = bilinear_form(v, v_y) weighted by exp(-theta*y): the
    integral of [x**alpha v_y^2 + 1/2 v_x (v_x)_y] exp(-theta*y)."""
    return bilinear_form(v, dy(v), theta)


def coercivity_delta(theta: float, mu: float) -> float:
    """min{e**-theta, theta e**-theta / 8, theta e**-theta / (8 mu)}; NaN
    when mu is NaN."""
    return float(np.min([math.exp(-theta), theta * math.exp(-theta) / 8.0, theta * math.exp(-theta) / (8.0 * mu)]))


def coercivity_check(nx: int = 64, ny: int = 64, alpha: float = 0.5) -> StudyResult:
    """Check a(v,v) >= delta_h ||v||_W11^2 over COERCIVITY_SAMPLES random
    smooth bumps, a weighted by exp(-THETA*y).

    The Poincare constant is estimated as the sample maximum of
    ||v||^2/||v_x||^2, inflated by SAFETY so the resulting delta_h is
    not circularly tuned to the same family.  Bumps vanish identically
    near the boundary, so the trace terms the constant derivation relies
    on drop out exactly.  One pass holds one bump at a time and keeps
    three scalars of it; delta_h and the scale-invariant margins
    a(v,v)/||v||_W11^2 - delta_h follow the pass.
    """
    grid = build_grid(nx, ny, alpha)
    mu_samples, form_values, w11_sqs = [], [], []
    for v in bumps(grid, bump_family(COERCIVITY_SAMPLES, COERCIVITY_SEED)):
        dxv = dx(v)
        l2_sq = weighted_inner(v, v, 0.0)
        dx_sq = weighted_inner(dxv, dxv, 0.0)
        mu_samples.append(l2_sq / dx_sq)
        form_values.append(stabilized_form_value(v, THETA))
        w11_sqs.append(norms_of(v).w11 ** 2)
    # np.max and np.min keep a NaN, where Python's max and min drop one
    # that is not first
    mu_h = SAFETY * float(np.max(mu_samples))
    delta_h = coercivity_delta(THETA, mu_h)
    margins = [a / w - delta_h for a, w in zip(form_values, w11_sqs)]
    # a NaN margin certifies nothing, so it counts as a violation
    violations = sum(1 for m in margins if not m >= 0.0)
    return StudyResult(
        levels=[nx],
        metrics={
            "mu_h": [mu_h],
            "delta_h": [delta_h],
            "min_margin": [float(np.min(margins))],
            "mean_margin": [float(np.mean(margins))],
            "violations": [float(violations)],
        },
        verdict=Verdict.PASS if violations == 0 else Verdict.FAIL,
        thresholds={"safety": SAFETY, "theta": THETA},
        samples={"margin": margins, "mu_sample": mu_samples},
    )


def w11_exact(alpha: float) -> float:
    """The weighted W11 norm of u = (x^2+y)^(1/4) on the unit square:
    W11^2 = int_0^1 S dx + 1/(8 alpha) - (1/8) int_0^1 x^alpha (1+x^2)^(-1/2) dx,
    S(x) = (2/3)((1+x^2)^(3/2) - x^3) + x/2 - x^2 / (2 sqrt(1+x^2)), with the
    y-integrals and the x^(alpha-1)/8 term in closed form.  S is integrated on
    the GAUSS_NODES-point Gauss-Legendre rule, the last term on the Gauss-Jacobi
    rule of the weight x^alpha (norms._gauss_jacobi)."""
    ALPHA.check("alpha", alpha)
    x, w = _gauss_jacobi(GAUSS_NODES, 0.0)
    r = np.sqrt(1.0 + x * x)
    smooth = (2.0 / 3.0) * (r**3 - x**3) + x / 2.0 - x * x / (2.0 * r)
    xa, wa = _gauss_jacobi(GAUSS_NODES, float(alpha))
    return math.sqrt(float(w @ smooth) + 1.0 / (8.0 * alpha) - float(wa @ (1.0 / np.sqrt(1.0 + xa * xa))) / 8.0)


def strict_inclusion_demo(levels: Sequence[int], alpha: float = 0.5) -> StudyResult:
    """Refinement trends for u = (x^2+y)^(1/4), whose weighted norm is
    w11_exact(alpha) at every alpha in (0, 1] while its unweighted d_y
    seminorm diverges: u is in the weighted space but not in H^1.  The
    study passes when every level's w11 lies strictly below w11_exact(alpha),
    the gap to it shrinks at every step, and every step raises the d_y norm."""
    levels = LEVELS["inclusion"].check("levels", list(levels))
    exact = w11_exact(alpha)
    w11s, dy_norms = [], []
    for level in levels:
        grid = build_grid(level, level, alpha)
        u = GridFunction.from_callable(grid, lambda X, Y: (X**2 + Y) ** 0.25)
        w11s.append(norms_of(u).w11)
        dyu = dy(u)
        dy_norms.append(math.sqrt(weighted_inner(dyu, dyu, 0.0)))
    gaps = [exact - w for w in w11s]
    below = all(g > 0.0 for g in gaps)
    closing = all(b < a for a, b in zip(gaps, gaps[1:]))
    increasing = all(b > a for a, b in zip(dy_norms, dy_norms[1:]))
    return StudyResult(
        levels=levels,
        metrics={"w11": w11s, "dy_l2": dy_norms},
        verdict=Verdict.PASS if (below and closing and increasing) else Verdict.FAIL,
        thresholds={"w11_exact": exact},
    )


def observed_orders(levels: Sequence[int], errs: Sequence[float]) -> list[float]:
    """The order of errs between consecutive levels, by the mesh widths
    1/(n+1): NaN where an error is not finite, and +inf or -inf where one
    vanishes or first appears under refinement, so NaN and -inf pass no threshold.
    Levels that are not strictly increasing, each at least 2, or levels
    and errs of unequal lengths raise ValueError."""
    levels = _levels(2).check("levels", list(levels))
    if len(levels) != len(errs):
        raise ValueError(f"observed_orders needs one error per level, got {len(levels)} levels and {len(errs)} errors")
    out = []
    for (na, ea), (nb, eb) in zip(zip(levels, errs), zip(levels[1:], errs[1:])):
        if not (math.isfinite(ea) and math.isfinite(eb)):
            out.append(math.nan)
        elif ea == 0.0 or eb == 0.0:
            out.append(math.inf if eb == 0.0 else -math.inf)
        else:
            out.append(math.log(ea / eb) / math.log((nb + 1) / (na + 1)))
    return out


def convergence_study(levels: Sequence[int], alpha: float = 0.5) -> StudyResult:
    """Errors of the sinsin manufactured solution and observed orders per
    level; passes when the last observed L2 order reaches ORDER_THRESHOLD."""
    levels = LEVELS["convergence"].check("levels", list(levels))
    max_errs, l2_errs = [], []
    for level in levels:
        grid = build_grid(level, level, alpha)
        u_exact, f = manufactured_pair(grid)
        u_h, _ = solve_dirichlet(grid, f)
        err = u_h.values - u_exact.values
        # an error that overflows is inf or NaN, whose order is NaN below
        with np.errstate(over="ignore", invalid="ignore"):
            max_errs.append(float(np.max(np.abs(err))))
            l2_errs.append(float(math.sqrt(grid.hx * grid.hy * np.sum(err**2))))

    l2_orders = observed_orders(levels, l2_errs)
    max_orders = observed_orders(levels, max_errs)
    return StudyResult(
        levels=levels,
        metrics={"max_err": max_errs, "l2_err": l2_errs},
        observed_orders=l2_orders,
        verdict=Verdict.PASS if l2_orders[-1] >= ORDER_THRESHOLD else Verdict.FAIL,
        thresholds={"order_threshold": ORDER_THRESHOLD},
        samples={"order_l2": l2_orders, "order_max": max_orders},
    )


def embedding_study(levels: Sequence[int], alpha: float = 0.5) -> StudyResult:
    """Max L^q/W11 ratio over a fixed family of EMBEDDING_SAMPLES random
    bumps, per level and q in Q_VALUES, in the series max_ratio_q{q:g}.

    The same smooth functions are re-sampled on every grid, one bump at a
    time; the sampled embedding constant must not grow past GROWTH_CAP
    under refinement.
    """
    levels = LEVELS["embedding"].check("levels", list(levels))
    names = [f"max_ratio_q{q:g}" for q in Q_VALUES]
    family = bump_family(EMBEDDING_SAMPLES, EMBEDDING_SEED)
    series: dict[str, list[float]] = {name: [] for name in names}
    for level in levels:
        grid = build_grid(level, level, alpha)
        ratios: dict[str, list[float]] = {name: [] for name in names}
        for u in bumps(grid, family):
            for name, q in zip(names, Q_VALUES):
                ratios[name].append(embedding_ratio(u, q))
        for name, values in ratios.items():
            # np.max keeps a NaN ratio, where Python's max would drop it
            series[name].append(float(np.max(values)))
    ok = all(s[-1] <= GROWTH_CAP * s[0] for s in series.values())
    return StudyResult(
        levels=levels,
        metrics=series,
        verdict=Verdict.PASS if ok else Verdict.FAIL,
        thresholds={"growth_cap": GROWTH_CAP},
    )


def muckenhoupt_study() -> StudyResult:
    """Three-weight A_2 (p = 2) panel on the lattice of balls: constant
    weight, admissible degeneracy, and a non-integrable weight that must
    flag divergence.  x**(1/2) must read its half-disk closed form
    B(3/4, 3/2) B(1/4, 3/2) / (pi/2)**2 = 64 / (15 pi), and each weight
    that did not diverge a product avg(w) * avg(1/w) of 1 or above on
    every ball (Cauchy-Schwarz), to UNIT_TOL."""
    weights = (0.0, 0.5, -3.0)
    estimates = muckenhoupt_panel(weights)
    unit, half, _ = estimates
    closed_form = 64.0 / (15.0 * math.pi)
    n_balls = len(_lattice()[0])
    ok = (
        abs(unit.constant - 1.0) <= UNIT_TOL
        and abs(half.constant - closed_form) <= CLOSED_FORM_TOL * closed_form
        and [est.diverged for est in estimates] == [False, False, True]
        and all(est.diverged or est.least >= 1.0 - UNIT_TOL for est in estimates)
    )
    return StudyResult(
        levels=[n_balls],
        metrics={"closed_form": [closed_form], "n_balls": [float(n_balls)]},
        verdict=Verdict.PASS if ok else Verdict.FAIL,
        thresholds={"closed_form_tol": CLOSED_FORM_TOL, "unit_tol": UNIT_TOL, "p": 2.0},
        samples={
            "weight_exponent": list(weights),
            "constant": [est.constant for est in estimates],
            "diverged": [float(est.diverged) for est in estimates],
        },
    )
