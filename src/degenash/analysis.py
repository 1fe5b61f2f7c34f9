"""Verification campaigns: energy estimate, coercivity, strict inclusion,
scheme convergence, embedding ratios, and Muckenhoupt sampling.  The caps
a verdict is judged by are module constants, echoed in its thresholds."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .fields import bump_from_parameters, bump_parameter_sets, manufactured_pair, named_field
from .grid import GridFunction, build_grid, weighted_inner
from .norms import embedding_ratio, l2_weighted_norm, muckenhoupt_panel, norms_of
from .operators import RESIDUAL_TOL, assemble, bilinear_form, dx, dy, euclidean_norm, solve_dirichlet, theta_weight

# The Muckenhoupt panel asks the constant weight for an A_2 constant of 1
# to this tolerance.
UNIT_TOL = 1e-9
# Growth caps of the energy ratio and the embedding constant under
# refinement; the coercivity check inflates its Poincare constant by SAFETY.
RATIO_CAP = 1.2
GROWTH_CAP = 1.1
SAFETY = 1.5
# The last observed L2 order a convergence study must reach: the upwind
# scheme is first order in y.
ORDER_THRESHOLD = 0.9


class Verdict(str, Enum):
    PASS = "pass"
    FAIL = "fail"
    INCONCLUSIVE = "inconclusive"


@dataclass
class StudyResult:
    """Per-level metric series plus a thresholded verdict.

    metrics series are aligned with levels; per-sample series (one row
    per test function, ball, or weight) go in `samples`.  observed_orders
    has one entry per consecutive level pair.
    """

    levels: list[int]
    metrics: dict[str, list[float]] = field(default_factory=dict)
    observed_orders: list[float] = field(default_factory=list)
    verdict: Verdict = Verdict.INCONCLUSIVE
    thresholds: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)

    def __post_init__(self):
        for name, series in self.metrics.items():
            if len(series) != len(self.levels):
                raise ValueError(f"metric {name!r} has {len(series)} entries for {len(self.levels)} levels")


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
    positive, and every u_h meets ||A u_h - f|| <= RESIDUAL_TOL * max(1, ||f||),
    the solve's contract, recomputed here from the stencil.
    """
    if len(levels) < 2:
        raise ValueError(f"levels must hold at least 2 levels to compare, got {list(levels)}")
    ratios: list[list[float]] = [[] for _ in _ENERGY_FAMILY]
    solved = True
    for level in levels:
        grid = build_grid(level, level, alpha)
        op = assemble(grid)
        for m, gen in enumerate(_ENERGY_FAMILY):
            f = gen(grid)
            u, _ = solve_dirichlet(op, f)
            residual = euclidean_norm(op.apply(u).values - f.values)
            solved = solved and residual <= RESIDUAL_TOL * max(1.0, euclidean_norm(f.values))
            ratios[m].append(norms_of(u).w11 / l2_weighted_norm(f))
    metrics = {f"ratio_{m}": series for m, series in enumerate(ratios)}
    positive = all(0.0 < r < math.inf for series in ratios for r in series)
    bounded = all(series[-1] <= RATIO_CAP * series[0] for series in ratios)
    return StudyResult(
        levels=list(levels),
        metrics=metrics,
        verdict=Verdict.PASS if (solved and positive and bounded) else Verdict.FAIL,
        thresholds={"ratio_cap": RATIO_CAP},
    )


def stabilized_form_value(v: GridFunction, theta: float) -> float:
    """a(v,v) = bilinear_form(v, v_y) weighted by exp(-theta*y): the
    integral of [x**alpha v_y^2 + 1/2 v_x (v_x)_y] exp(-theta*y)."""
    return bilinear_form(v, dy(v), theta_weight(theta))


def coercivity_delta(theta: float, mu: float) -> float:
    """min{e**-theta, theta e**-theta / 8, theta e**-theta / (8 mu)}."""
    return min(math.exp(-theta), theta * math.exp(-theta) / 8.0, theta * math.exp(-theta) / (8.0 * mu))


def coercivity_margin(v: GridFunction, theta: float, mu: float) -> float:
    """Scale-invariant margin a(v,v)/||v||_W11^2 - delta(theta, mu)."""
    w11_sq = norms_of(v).w11 ** 2
    if w11_sq == 0.0:
        return 0.0
    return stabilized_form_value(v, theta) / w11_sq - coercivity_delta(theta, mu)


def coercivity_check(
    theta: float,
    n_samples: int,
    seed: int,
    nx: int = 64,
    ny: int = 64,
    alpha: float = 0.5,
) -> StudyResult:
    """Check a(v,v) >= delta_h ||v||_W11^2 over random smooth bumps.

    The Poincare constant is estimated as the sample maximum of
    ||v||^2/||v_x||^2, inflated by SAFETY so the resulting delta_h is
    not circularly tuned to the same family.  Bumps vanish identically
    near the boundary, so the trace terms the constant derivation relies
    on drop out exactly.
    """
    if not (math.isfinite(theta) and theta > 0):
        raise ValueError(f"theta must be finite and positive, got {theta}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    grid = build_grid(nx, ny, alpha)
    params = bump_parameter_sets(n_samples, seed)
    vs = [bump_from_parameters(grid, p) for p in params]
    mu_samples = []
    for v in vs:
        dxv = dx(v)
        l2_sq = weighted_inner(v, v, 0.0)
        dx_sq = weighted_inner(dxv, dxv, 0.0)
        mu_samples.append(l2_sq / dx_sq)
    mu_h = SAFETY * max(mu_samples)
    delta_h = coercivity_delta(theta, mu_h)
    margins = [coercivity_margin(v, theta, mu_h) for v in vs]
    # a NaN margin certifies nothing, so it counts as a violation
    violations = sum(1 for m in margins if not m >= 0.0)
    return StudyResult(
        levels=[nx],
        metrics={
            "mu_h": [mu_h],
            "delta_h": [delta_h],
            "min_margin": [min(margins)],
            "mean_margin": [float(np.mean(margins))],
            "violations": [float(violations)],
        },
        verdict=Verdict.PASS if violations == 0 else Verdict.FAIL,
        thresholds={"safety": SAFETY, "theta": theta},
        samples={"margin": margins, "mu_sample": mu_samples},
    )


def strict_inclusion_demo(
    levels: Sequence[int],
    alpha: float = 0.5,
    plateau_tol: float = 0.05,
    plateau_from: int = 32,
) -> StudyResult:
    """Refinement trends for u = (x^2+y)^(1/4).

    With alpha = 1/2 the weighted norm stabilizes while the unweighted
    d_y seminorm keeps growing (the function lies in the weighted space
    but not in H^1).  For any other alpha the study is report-only.
    """
    levels = list(levels)
    if not levels:
        raise ValueError("levels must hold at least one level")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    w11s, dy_norms = [], []
    for level in levels:
        grid = build_grid(level, level, alpha)
        u = GridFunction.from_callable(grid, lambda X, Y: (X**2 + Y) ** 0.25)
        w11s.append(norms_of(u).w11)
        dyu = dy(u)
        dy_norms.append(math.sqrt(weighted_inner(dyu, dyu, 0.0)))
    result = StudyResult(
        levels=levels,
        metrics={"w11": w11s, "dy_l2": dy_norms},
        thresholds={"plateau_tol": plateau_tol, "plateau_from": plateau_from},
    )
    if len(levels) < 2 or alpha != 0.5:
        return result
    # Plateau means each refinement step from plateau_from onward moves the
    # weighted norm by at most plateau_tol; the corner singularity of the
    # integrands limits absolute convergence to O(h^(1/2)), so a total-spread
    # test would measure the quadrature rate rather than membership.
    steps = [
        abs(wb - wa) / wa
        for (la, wa), (lb, wb) in zip(zip(levels, w11s), zip(levels[1:], w11s[1:]))
        if la >= plateau_from
    ]
    if not steps:
        return result
    plateau_ok = all(s <= plateau_tol for s in steps)
    increasing = all(b > a for a, b in zip(dy_norms, dy_norms[1:]))
    result.verdict = Verdict.PASS if (plateau_ok and increasing) else Verdict.FAIL
    return result


def convergence_study(levels: Sequence[int], manufactured: str = "sinsin", alpha: float = 0.5) -> StudyResult:
    """Manufactured-solution errors and observed orders per level.

    Passes when the last observed L2 order reaches ORDER_THRESHOLD."""
    levels = list(levels)
    if len(levels) < 3:
        raise ValueError("need at least 3 levels for a convergence study")
    max_errs, l2_errs = [], []
    for level in levels:
        grid = build_grid(level, level, alpha)
        u_exact, f = manufactured_pair(grid, manufactured)
        u_h, _ = solve_dirichlet(assemble(grid), f)
        err = u_h.values - u_exact.values
        max_errs.append(float(np.max(np.abs(err))))
        l2_errs.append(float(math.sqrt(grid.hx * grid.hy * np.sum(err**2))))

    def orders(errs: list[float]) -> list[float]:
        out = []
        for (na, ea), (nb, eb) in zip(zip(levels, errs), zip(levels[1:], errs[1:])):
            ratio_h = (nb + 1) / (na + 1)
            out.append(math.log(ea / eb) / math.log(ratio_h) if ea > 0 and eb > 0 else math.inf)
        return out

    l2_orders = orders(l2_errs)
    max_orders = orders(max_errs)
    verdict = Verdict.PASS if l2_orders[-1] >= ORDER_THRESHOLD else Verdict.FAIL
    return StudyResult(
        levels=levels,
        metrics={"max_err": max_errs, "l2_err": l2_errs},
        observed_orders=l2_orders,
        verdict=verdict,
        thresholds={"order_threshold": ORDER_THRESHOLD},
        samples={"order_l2": l2_orders, "order_max": max_orders},
    )


def embedding_metric(q: float) -> str:
    """The name of q's series in an embedding study: q prints by %g, so
    two q that print alike would share one series."""
    return f"max_ratio_q{q:g}"


def embedding_study(
    levels: Sequence[int] = (64, 128),
    q_values: Sequence[float] = (2.0, 3.0, 4.0),
    n_samples: int = 100,
    seed: int = 0,
    alpha: float = 0.5,
) -> StudyResult:
    """Max L^q/W11 ratio over a fixed random bump family, per level.

    The same smooth functions are re-sampled on every grid; the sampled
    embedding constant must not grow past GROWTH_CAP under refinement.
    """
    if len(levels) < 2:
        raise ValueError(f"levels must hold at least 2 levels to compare, got {list(levels)}")
    if not q_values:
        raise ValueError("q_values must hold at least one q")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    names = [embedding_metric(q) for q in q_values]
    if len(set(names)) != len(names):
        raise ValueError(f"q_values must give distinct metric names, got {list(q_values)} as {names}")
    params = bump_parameter_sets(n_samples, seed)
    series: dict[str, list[float]] = {name: [] for name in names}
    for level in levels:
        grid = build_grid(level, level, alpha)
        us = [bump_from_parameters(grid, p) for p in params]
        for name, q in zip(names, q_values):
            series[name].append(max(embedding_ratio(u, q) for u in us))
    ok = all(s[-1] <= GROWTH_CAP * s[0] for s in series.values())
    return StudyResult(
        levels=list(levels),
        metrics=series,
        verdict=Verdict.PASS if ok else Verdict.FAIL,
        thresholds={"growth_cap": GROWTH_CAP},
    )


def muckenhoupt_study(n_balls: int = 500, seed: int = 0) -> StudyResult:
    """Three-weight A_2 (p = 2) panel: constant weight, admissible
    degeneracy, and a non-integrable weight that must flag divergence."""
    est_unit, est_half, est_bad = muckenhoupt_panel((0.0, 0.5, -3.0), n_balls, seed)
    ok = (
        abs(est_unit.constant - 1.0) <= UNIT_TOL
        and not est_unit.diverged
        and not est_half.diverged
        and math.isfinite(est_half.constant)
        and est_bad.diverged
    )
    return StudyResult(
        levels=[n_balls],
        metrics={"n_balls": [float(n_balls)]},
        verdict=Verdict.PASS if ok else Verdict.FAIL,
        thresholds={"unit_tol": UNIT_TOL, "p": 2.0},
        samples={
            "weight_exponent": [0.0, 0.5, -3.0],
            "constant": [est_unit.constant, est_half.constant, est_bad.constant],
            "diverged": [float(est_unit.diverged), float(est_half.diverged), float(est_bad.diverged)],
        },
    )
