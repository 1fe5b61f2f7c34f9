"""Constructive Stackelberg-Nash solver for the two-follower control game.

The state equation is A y = chi_omega g + chi_omega1 f1 + chi_omega2 f2
with the upwind-in-y operator, the only scheme the game solves with, and
each follower minimizes

    J_i = || y - yd_i ||^2_{L2(G_i)} + || f_i ||^2_{L2(omega_i; x^-alpha)}

over the admissible ball ||f_i||_{L2(x^-alpha)} <= M_i.

All control-space inner products here are the lumped nodal forms
hx*hy * sum x^-alpha u v (and hx*hy * sum over G of u v for tracking).
With this diagonal metric the discrete adjoint gradient

    grad J_i = chi_omega_i (x^alpha p + 2 f_i),   A^T p = 2 chi_G_i (y - yd_i)

is the exact Riesz representative of the cost derivative, so the
finite-difference oracle and the projection geometry are consistent to
round-off.  The existence proof is nonconstructive; best responses are
computed by projected gradient descent and the Nash pair by Gauss-Seidel
sweeps, with a-posteriori sampling certification replacing the fixed-point
argument.  Certification deviations are drawn on the follower's control
region only; every other node is zero.

The shipped game is defined once, in configs/benchmark_game.yaml; the CLI
builds its GameConfig through cli.parse_config and cli.build_game_config.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np

from .grid import Grid, GridFunction, RegionMask
from .operators import DirichletSolver, Scheme, assemble

_FEAS_SLACK = 8 * np.finfo(float).eps


class BestResponseError(RuntimeError):
    """Inner solver hit its iteration cap; carries the last iterate."""

    def __init__(self, message: str, iterate: GridFunction, residual: float):
        super().__init__(f"{message} (projected-gradient residual {residual:.3e})")
        self.iterate = iterate
        self.residual = residual


@dataclass(frozen=True)
class Rule:
    """A condition a setting must meet, and the words that state it."""

    text: str
    holds: Callable[[object], bool]


FINITE_NONNEGATIVE = Rule("must be finite and nonnegative", lambda v: math.isfinite(v) and v >= 0)
FINITE_POSITIVE = Rule("must be finite and positive", lambda v: math.isfinite(v) and v > 0)
AT_LEAST_ONE = Rule("must be at least 1", lambda v: v >= 1)


def _setting(default, rule: Rule):
    """A scalar GameConfig field: its default and its rule, stated once.
    __post_init__ checks the rule; the CLI's game table reads both."""
    return field(default=default, metadata={"rule": rule})


@dataclass
class GameConfig:
    grid: Grid
    omega: RegionMask
    omega1: RegionMask
    omega2: RegionMask
    g1_obs: RegionMask
    g2_obs: RegionMask
    g: GridFunction
    yd1: GridFunction
    yd2: GridFunction
    m1: float = _setting(1.0, FINITE_NONNEGATIVE)  # admissible-ball radii
    m2: float = _setting(1.0, FINITE_NONNEGATIVE)
    br_tol: float = _setting(1e-8, FINITE_POSITIVE)
    br_max_iters: int = _setting(200, AT_LEAST_ONE)
    inner_tol: float = _setting(1e-9, FINITE_POSITIVE)
    inner_max_iters: int = _setting(500, AT_LEAST_ONE)
    deviation_samples: int = _setting(200, AT_LEAST_ONE)
    seed: int = 0
    _solver: DirichletSolver | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for f in fields(self):
            rule = f.metadata.get("rule")
            value = getattr(self, f.name)
            if rule is not None and not rule.holds(value):
                raise ValueError(f"{f.name} {rule.text}, got {value}")
        # certify seeds numpy with [seed, i], which takes only integers >= 0
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        for name, mask in (("omega", self.omega), ("omega1", self.omega1),
                           ("omega2", self.omega2), ("g1_obs", self.g1_obs),
                           ("g2_obs", self.g2_obs)):
            if mask.count == 0:
                raise ValueError(f"region {name} contains no interior nodes")
        if np.array_equal(self.yd1.values, self.yd2.values):
            warnings.warn("follower targets coincide; the game degenerates", UserWarning)

    def solver(self) -> DirichletSolver:
        if self._solver is None:
            self._solver = DirichletSolver(assemble(self.grid, Scheme.UPWIND_Y))
        return self._solver

    def follower(self, i: int) -> tuple[RegionMask, RegionMask, GridFunction, float]:
        """(control region, observation region, target, radius) of follower i."""
        if i == 1:
            return self.omega1, self.g1_obs, self.yd1, self.m1
        if i == 2:
            return self.omega2, self.g2_obs, self.yd2, self.m2
        raise ValueError(f"follower index must be 1 or 2, got {i}")


@dataclass
class NashResult:
    f1_star: GridFunction
    f2_star: GridFunction
    state: GridFunction
    j1: float
    j2: float
    br_iterations: int
    br_residuals: list[float]
    converged: bool
    certified: bool
    certification_margin: float


@functools.lru_cache(maxsize=16)
def _nodal_x_power(grid: Grid, exponent: float) -> np.ndarray:
    """Read-only flat array of x**exponent at every interior node."""
    w = np.repeat(grid.x**exponent, grid.ny)
    w.flags.writeable = False
    return w


def control_inner(u: GridFunction, v: GridFunction, alpha: float) -> float:
    """Lumped weighted inner product hx*hy * sum x^-alpha u v."""
    u._check_same_grid(v)
    g = u.grid
    return float(g.hx * g.hy * np.sum(_nodal_x_power(g, -alpha) * u.values * v.values))


def control_norm(f: GridFunction, alpha: float) -> float:
    return math.sqrt(max(control_inner(f, f, alpha), 0.0))


def _tracking_sq(y: GridFunction, yd: GridFunction, region: RegionMask) -> float:
    g = y.grid
    diff = np.where(region.indicator, y.values - yd.values, 0.0)
    return float(g.hx * g.hy * np.sum(diff**2))


def state_solve(cfg: GameConfig, g: GridFunction, f1: GridFunction, f2: GridFunction) -> GridFunction:
    """State y(g, f1, f2) with masked sources."""
    if not (g.grid == f1.grid == f2.grid == cfg.grid):
        raise ValueError("mask and GridFunction live on different grids")
    rhs = (
        np.where(cfg.omega.indicator, g.values, 0.0)
        + np.where(cfg.omega1.indicator, f1.values, 0.0)
        + np.where(cfg.omega2.indicator, f2.values, 0.0)
    )
    return GridFunction(cfg.grid, cfg.solver().solve(rhs))


def cost(cfg: GameConfig, i: int, f1: GridFunction, f2: GridFunction) -> float:
    """J_i: tracking over the observation region plus the weighted penalty."""
    region_ctrl, region_obs, yd, _ = cfg.follower(i)
    y = state_solve(cfg, cfg.g, f1, f2)
    f_own = f1 if i == 1 else f2
    grid = cfg.grid
    penalty = grid.hx * grid.hy * float(
        np.sum(
            np.where(region_ctrl.indicator, f_own.values, 0.0) ** 2
            * _nodal_x_power(grid, -grid.alpha)
        )
    )
    return _tracking_sq(y, yd, region_obs) + penalty


def gradient(cfg: GameConfig, i: int, f1: GridFunction, f2: GridFunction) -> GridFunction:
    """Riesz representative of dJ_i/df_i in the lumped L2(omega_i; x^-alpha)
    inner product: solve A^T p = 2 chi_G_i (y - yd_i), return
    chi_omega_i (x^alpha p + 2 f_i)."""
    region_ctrl, region_obs, yd, _ = cfg.follower(i)
    y = state_solve(cfg, cfg.g, f1, f2)
    source = np.where(region_obs.indicator, 2.0 * (y.values - yd.values), 0.0)
    p = cfg.solver().solve_adjoint(source)
    f_own = f1 if i == 1 else f2
    xa = _nodal_x_power(cfg.grid, cfg.grid.alpha)
    vals = np.where(region_ctrl.indicator, xa * p + 2.0 * f_own.values, 0.0)
    return GridFunction(cfg.grid, vals)


def project_ball(f: GridFunction, m: float, mask: RegionMask, alpha: float) -> GridFunction:
    """Projection onto {support in mask, ||.||_{L2(x^-alpha)} <= m}.

    Masking first, then radial rescaling; norms within round-off of m are
    treated as feasible so the projection is exactly idempotent.
    """
    if m < 0:
        raise ValueError("ball radius must be nonnegative")
    fm = mask.apply(f)
    if m == 0.0:
        return GridFunction(f.grid, np.zeros(f.grid.n))
    n = control_norm(fm, alpha)
    if n <= m * (1.0 + _FEAS_SLACK):
        return fm
    return fm * (m / n)


def best_response(
    cfg: GameConfig, i: int, f_other: GridFunction, trace: list[float] | None = None
) -> GridFunction:
    """Minimize J_i over the follower's admissible ball, holding the other
    follower fixed, by projected gradient descent with backtracking.

    Terminates when the unit-step projected-gradient residual drops below
    inner_tol; raises BestResponseError on cap exhaustion.  When given,
    `trace` collects the cost value at every accepted iterate.
    """
    region_ctrl, _, _, m = cfg.follower(i)
    alpha = cfg.grid.alpha
    zero = GridFunction.zeros(cfg.grid)
    if m == 0.0:
        return zero

    def pack(f_own):
        return (f_own, f_other) if i == 1 else (f_other, f_own)

    f = zero
    j = cost(cfg, i, *pack(f))
    if trace is not None:
        trace.append(j)
    step = 0.5
    residual = math.inf
    for _ in range(cfg.inner_max_iters):
        grad = gradient(cfg, i, *pack(f))
        trial_unit = project_ball(f - grad, m, region_ctrl, alpha)
        residual = control_norm(f - trial_unit, alpha)
        if residual <= cfg.inner_tol:
            return f
        while True:
            f_new = project_ball(f - step * grad, m, region_ctrl, alpha)
            j_new = cost(cfg, i, *pack(f_new))
            move_sq = control_inner(f_new - f, f_new - f, alpha)
            if j_new <= j - 1e-4 / step * move_sq or move_sq == 0.0:
                break
            step *= 0.5
            if step < 1e-14:
                break
        if j_new <= j:
            f, j = f_new, j_new
            if trace is not None:
                trace.append(j)
        step = min(step * 1.25, 8.0)
    raise BestResponseError(
        f"best response for follower {i} did not converge within {cfg.inner_max_iters} iterations",
        f,
        residual,
    )


def nash_solve(cfg: GameConfig) -> NashResult:
    """Gauss-Seidel best-response iteration (f1 then f2) plus certification.

    Non-convergence within br_max_iters is a reported outcome, never an
    assertion: the result carries converged=False and the residual series.
    So is a best response that hits inner_max_iters: the sweeps stop, the
    last completed sweep's controls are kept and certified, and the inner
    projected-gradient residual is appended to br_residuals.
    """
    zero = GridFunction.zeros(cfg.grid)
    f1, f2 = zero, zero
    residuals: list[float] = []
    converged = False
    sweeps = 0
    alpha = cfg.grid.alpha
    for sweeps in range(1, cfg.br_max_iters + 1):
        try:
            f1_new = best_response(cfg, 1, f2)
            f2_new = best_response(cfg, 2, f1_new)
        except BestResponseError as err:
            residuals.append(err.residual)
            break
        res = math.sqrt(
            control_norm(f1_new - f1, alpha) ** 2 + control_norm(f2_new - f2, alpha) ** 2
        )
        residuals.append(res)
        f1, f2 = f1_new, f2_new
        if res <= cfg.br_tol:
            converged = True
            break
    for f, m in ((f1, cfg.m1), (f2, cfg.m2)):
        if control_norm(f, alpha) > m + 1e-12:
            raise AssertionError("best-response iterate left the admissible ball")
    certified, margin = certify(cfg, f1, f2)
    state = state_solve(cfg, cfg.g, f1, f2)
    return NashResult(
        f1_star=f1,
        f2_star=f2,
        state=state,
        j1=cost(cfg, 1, f1, f2),
        j2=cost(cfg, 2, f1, f2),
        br_iterations=sweeps,
        br_residuals=residuals,
        converged=converged,
        certified=certified,
        certification_margin=margin,
    )


def _feasible_deviations(
    cfg: GameConfig, i: int, rng: np.random.Generator
) -> list[GridFunction]:
    """Zero control, boundary-sphere points, and interior points with
    uniform directions and radii up to M_i.  Directions are standard
    normal on the control region's nodes and zero elsewhere."""
    region_ctrl, _, _, m = cfg.follower(i)
    alpha = cfg.grid.alpha
    out = [GridFunction.zeros(cfg.grid)]
    if m == 0.0:
        return out
    n = cfg.deviation_samples
    count = region_ctrl.count
    for k in range(n):
        vals = np.zeros(cfg.grid.n)
        vals[region_ctrl.indicator] = rng.standard_normal(count)
        d = GridFunction(cfg.grid, vals)
        nd = control_norm(d, alpha)
        if nd == 0.0:
            continue
        radius = m if k < n // 2 else m * rng.uniform(0.0, 1.0)
        out.append(d * (radius / nd))
    return out


def certify(cfg: GameConfig, f1_star: GridFunction, f2_star: GridFunction) -> tuple[bool, float]:
    """Sampled a-posteriori check of the two Nash inequalities.

    Each follower's cost at the candidate must not exceed the cost of any
    sampled feasible unilateral deviation by more than 1e-8 * (1 + J_i*),
    where J_i* is its cost at the candidate.  The deviations are
    supported on the follower's control region and drawn there only,
    from the seeded stream (cfg.seed, i).  Returns (all-pass flag,
    minimum margin J_i(deviation) - J_i(candidate)).
    """
    ok = True
    min_margin = math.inf
    for i in (1, 2):
        rng = np.random.default_rng([cfg.seed, i])
        j_star = cost(cfg, i, f1_star, f2_star)
        tol = 1e-8 * (1.0 + j_star)
        for v in _feasible_deviations(cfg, i, rng):
            pair = (v, f2_star) if i == 1 else (f1_star, v)
            margin = cost(cfg, i, *pair) - j_star
            min_margin = min(min_margin, margin)
            if margin < -tol:
                ok = False
    if not math.isfinite(min_margin):
        min_margin = 0.0
    return ok, min_margin

