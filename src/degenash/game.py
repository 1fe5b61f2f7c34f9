"""Constructive Stackelberg-Nash solver for the two-follower control game.

The state equation is A y = chi_omega g + chi_omega1 f1 + chi_omega2 f2
with the upwind-in-y operator, and each follower minimizes

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
argument.  The iteration tolerances and caps and the number of sampled
deviations are module constants.

One rule states the admissible set: a control is zero off omega_i and
its norm is at most M_i up to round-off (_within_ball), which
project_ball meets exactly.  certify is the one check of it; a candidate
outside the set, like one with a non-finite cost, comes back
uncertified, never as an exception.  certify draws its deviations on the
follower's control region only, every other node zero, and streams
them: each is drawn when it is costed, so one is alive at a time.

cost and gradient read the state on the observation region G_i only, so
their forward solve stops after the top y-row of G_i (RegionMask.top_row)
and the state is zero above it; state_solve returns the full state.
gradient reads the adjoint state on omega_i only, so its backward march
stops at the lowest y-row of omega_i (RegionMask.bottom_row).
Successive solves differ only in the rows a control reaches, and the
game's one solver re-marches only those (operators.DirichletSolver).

A GameConfig is frozen, so it is checked once, when it is built, and
its solver and source hold for its life; a different game is a new one
(dataclasses.replace re-runs every check).  Inside the game the
arithmetic runs on each region's node indices (RegionMask.nodes).  Each
GameConfig masks the leader's source g once (GameConfig.source); a state
solve copies it and adds f1 and f2 on their own nodes.  The tracking
term, the penalty and the norms certify takes scatter their per-node
products into a fresh full-grid array of zeros and sum it whole: the
very array np.where(region, ..., 0.0) would build, so every pairwise sum
keeps its last bit, and a sum that raises leaves nothing behind.  Only
the solver's march store is shared by every call on the game: not
reentrant.  cost builds no GridFunction and certify one per deviation;
each GridFunction keeps its finiteness scan.

The shipped game is defined once, in configs/benchmark_game.yaml; the CLI
builds its GameConfig through cli.parse_config and cli.build_game_config.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, fields

import numpy as np

from .grid import Grid, GridFunction, RegionMask
from .operators import DirichletSolver, assemble

_FEAS_SLACK = 8 * np.finfo(float).eps
# Stopping tolerances and caps of the sweeps and of each best response, and
# the deviations certify samples per follower besides the zero control.
BR_TOL = 1e-8
BR_MAX_ITERS = 200
INNER_TOL = 1e-9
INNER_MAX_ITERS = 500
DEVIATION_SAMPLES = 200


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


@dataclass(frozen=True)
class GameConfig:
    """One game: its grid, regions, fields, ball radii and certify seed.

    Frozen, so its checks run once, when it is built.  Besides its fields
    it holds only the cached solver and leader source; the solver's march
    store is the one state that calls on the game share."""

    grid: Grid
    omega: RegionMask
    omega1: RegionMask
    omega2: RegionMask
    g1_obs: RegionMask
    g2_obs: RegionMask
    g: GridFunction
    yd1: GridFunction
    yd2: GridFunction
    # admissible-ball radii; __post_init__ checks the rule, the CLI's game
    # table reads default and rule
    m1: float = field(default=1.0, metadata={"rule": FINITE_NONNEGATIVE})
    m2: float = field(default=1.0, metadata={"rule": FINITE_NONNEGATIVE})
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            rule = f.metadata.get("rule")
            value = getattr(self, f.name)
            if rule is not None and not rule.holds(value):
                raise ValueError(f"{f.name} {rule.text}, got {value}")
        # certify seeds numpy with [seed, i], which takes only integers >= 0
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        for name in ("omega", "omega1", "omega2", "g1_obs", "g2_obs", "g", "yd1", "yd2"):
            other = getattr(self, name).grid
            if other != self.grid:
                raise ValueError(f"{name} lives on {other}, not on the game's grid {self.grid}")
        for name in ("omega", "omega1", "omega2", "g1_obs", "g2_obs"):
            if getattr(self, name).count == 0:
                raise ValueError(f"region {name} contains no interior nodes")
        if np.array_equal(self.yd1.values, self.yd2.values):
            warnings.warn("follower targets coincide; the game degenerates", UserWarning)

    @functools.cached_property
    def solver(self) -> DirichletSolver:
        """The game's one solver, factored on first use."""
        return DirichletSolver(assemble(self.grid))

    @functools.cached_property
    def source(self) -> np.ndarray:
        """The leader's term of every state's right-hand side: read-only
        chi_omega g + 0.0.  The + 0.0 turns -0.0 into +0.0, as adding the
        zeros of the masked f1 and f2 terms did, so a state's right-hand
        side keeps the bits of the full-grid three-term sum; only where
        omega, omega1 and omega2 overlap and g, f1 and f2 are all -0.0 is
        the zero's sign now +."""
        source = np.where(self.omega.indicator, self.g.values, 0.0) + 0.0
        source.flags.writeable = False
        return source

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


def _region_sum(region: RegionMask, products: np.ndarray) -> float:
    """np.sum of the full-grid array that holds products on the region's
    nodes and zero elsewhere: the array np.where(region.indicator, ..., 0.0)
    builds, so the same pairwise sum to the last bit."""
    full = np.zeros(region.grid.n)
    full[region.nodes] = products
    return float(np.sum(full))


def _region_norm(region: RegionMask, values: np.ndarray) -> float:
    """control_norm of the control that is values on the region's nodes and
    zero elsewhere, bit for bit."""
    g = region.grid
    w = _nodal_x_power(g, -g.alpha)[region.nodes]
    return math.sqrt(max(g.hx * g.hy * _region_sum(region, w * values * values), 0.0))


def _within_ball(norm: float, m: float) -> bool:
    """Whether a control norm is admissible for radius m: norms within
    round-off of m count as feasible, so a projection is exactly idempotent."""
    return norm <= m * (1.0 + _FEAS_SLACK)


def state_solve(cfg: GameConfig, f1: GridFunction, f2: GridFunction) -> GridFunction:
    """State y(cfg.g, f1, f2) with masked sources."""
    return GridFunction(cfg.grid, _state(cfg, f1, f2))


def _state(cfg: GameConfig, f1: GridFunction, f2: GridFunction, last_row: int | None = None) -> np.ndarray:
    """Values of the state, or, given last_row, its y-rows up to last_row
    and zeros above."""
    if not (f1.grid == f2.grid == cfg.grid):
        raise ValueError("mask and GridFunction live on different grids")
    rhs = cfg.source.copy()
    for region, f in ((cfg.omega1, f1), (cfg.omega2, f2)):
        rhs[region.nodes] += f.values[region.nodes]
    return cfg.solver.solve(rhs, last_row=last_row)


def cost(cfg: GameConfig, i: int, f1: GridFunction, f2: GridFunction) -> float:
    """J_i: tracking over the observation region plus the weighted penalty."""
    region_ctrl, region_obs, yd, _ = cfg.follower(i)
    y = _state(cfg, f1, f2, region_obs.top_row)
    obs, ctrl = region_obs.nodes, region_ctrl.nodes
    f_own = f1 if i == 1 else f2
    grid = cfg.grid
    tracking = grid.hx * grid.hy * _region_sum(region_obs, (y[obs] - yd.values[obs]) ** 2)
    penalty = grid.hx * grid.hy * _region_sum(
        region_ctrl, f_own.values[ctrl] ** 2 * _nodal_x_power(grid, -grid.alpha)[ctrl]
    )
    return tracking + penalty


def gradient(cfg: GameConfig, i: int, f1: GridFunction, f2: GridFunction) -> GridFunction:
    """Riesz representative of dJ_i/df_i in the lumped L2(omega_i; x^-alpha)
    inner product: solve A^T p = 2 chi_G_i (y - yd_i), return
    chi_omega_i (x^alpha p + 2 f_i)."""
    region_ctrl, region_obs, yd, _ = cfg.follower(i)
    y = _state(cfg, f1, f2, region_obs.top_row)
    obs, ctrl = region_obs.nodes, region_ctrl.nodes
    source = np.zeros(cfg.grid.n)
    source[obs] = 2.0 * (y[obs] - yd.values[obs])
    p = cfg.solver.solve_adjoint(source, last_row=region_ctrl.bottom_row)
    f_own = f1 if i == 1 else f2
    vals = np.zeros(cfg.grid.n)
    vals[ctrl] = _nodal_x_power(cfg.grid, cfg.grid.alpha)[ctrl] * p[ctrl] + 2.0 * f_own.values[ctrl]
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
    if _within_ball(n, m):
        return fm
    return fm * (m / n)


def best_response(
    cfg: GameConfig, i: int, f_other: GridFunction, trace: list[float] | None = None
) -> GridFunction:
    """Minimize J_i over the follower's admissible ball, holding the other
    follower fixed, by projected gradient descent with backtracking.

    Terminates when the unit-step projected-gradient residual drops below
    INNER_TOL; raises BestResponseError on cap exhaustion.  When given,
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
    for _ in range(INNER_MAX_ITERS):
        grad = gradient(cfg, i, *pack(f))
        trial_unit = project_ball(f - grad, m, region_ctrl, alpha)
        residual = control_norm(f - trial_unit, alpha)
        if residual <= INNER_TOL:
            return f
        while True:
            f_new = project_ball(f - step * grad, m, region_ctrl, alpha)
            j_new = cost(cfg, i, *pack(f_new))
            move = f_new - f
            move_sq = control_inner(move, move, alpha)
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
        f"best response for follower {i} did not converge within {INNER_MAX_ITERS} iterations",
        f,
        residual,
    )


def nash_solve(cfg: GameConfig) -> NashResult:
    """Gauss-Seidel best-response iteration (f1 then f2) plus certification.

    Non-convergence within BR_MAX_ITERS is a reported outcome, never an
    assertion: the result carries converged=False and the residual series.
    So is a best response that hits INNER_MAX_ITERS: the sweeps stop, the
    last completed sweep's controls are kept and certified, and the inner
    projected-gradient residual is appended to br_residuals.  A control
    outside its admissible set comes back as certified=False.
    """
    zero = GridFunction.zeros(cfg.grid)
    f1, f2 = zero, zero
    residuals: list[float] = []
    converged = False
    sweeps = 0
    alpha = cfg.grid.alpha
    for sweeps in range(1, BR_MAX_ITERS + 1):
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
        if res <= BR_TOL:
            converged = True
            break
    certified, margin = certify(cfg, f1, f2)
    state = state_solve(cfg, f1, f2)
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
) -> Iterator[GridFunction]:
    """Yield the zero control, boundary-sphere points, and interior points
    with uniform directions and radii up to M_i.  Directions are standard
    normal on the control region's nodes and zero elsewhere.  Each is
    drawn when the caller asks for it, so the caller holds one at a time."""
    region_ctrl, _, _, m = cfg.follower(i)
    yield GridFunction.zeros(cfg.grid)
    if m == 0.0:
        return
    n = DEVIATION_SAMPLES
    nodes = region_ctrl.nodes
    for k in range(n):
        direction = rng.standard_normal(nodes.size)
        nd = _region_norm(region_ctrl, direction)
        if nd == 0.0:
            continue
        radius = m if k < n // 2 else m * rng.uniform(0.0, 1.0)
        vals = np.zeros(cfg.grid.n)
        vals[nodes] = direction * (radius / nd)
        yield GridFunction(cfg.grid, vals)


def _admissible(cfg: GameConfig, i: int, f: GridFunction) -> bool:
    """Whether f lies in follower i's admissible set: support in omega_i
    and norm within the ball, by project_ball's rule."""
    region_ctrl, _, _, m = cfg.follower(i)
    on_region = f.values[region_ctrl.nodes]
    if np.count_nonzero(on_region) != np.count_nonzero(f.values):
        return False
    return _within_ball(_region_norm(region_ctrl, on_region), m)


def certify(cfg: GameConfig, f1_star: GridFunction, f2_star: GridFunction) -> tuple[bool, float]:
    """Sampled a-posteriori check of the two Nash inequalities.

    Each follower's control must be admissible (support in omega_i, norm
    at most M_i by project_ball's rule), and its cost at the candidate
    must not exceed the cost of any sampled feasible unilateral deviation
    by more than 1e-8 * (1 + J_i*), where J_i* is its cost at the
    candidate.  A non-finite J_i* and a nan margin certify nothing and
    count as violations; a margin of +inf is a deviation that costs more
    than the candidate and passes.  The deviations are supported on the
    follower's control region and drawn there only, one at a time, from
    the seeded stream (cfg.seed, i).  Returns (all-pass flag, minimum margin
    J_i(deviation) - J_i(candidate)).  The minimum is -inf when some
    margin is; otherwise it is nan when some margin is nan or none is
    below inf, so a candidate with a non-finite cost never reports a
    finite margin.
    """
    ok = True
    min_margin = math.inf
    undefined = False
    for i, f_own in ((1, f1_star), (2, f2_star)):
        rng = np.random.default_rng([cfg.seed, i])
        j_star = cost(cfg, i, f1_star, f2_star)
        if not (_admissible(cfg, i, f_own) and math.isfinite(j_star)):
            ok = False
        tol = 1e-8 * (1.0 + j_star)
        for v in _feasible_deviations(cfg, i, rng):
            pair = (v, f2_star) if i == 1 else (f1_star, v)
            margin = cost(cfg, i, *pair) - j_star
            min_margin = min(min_margin, margin)
            undefined = undefined or math.isnan(margin)
            if not margin >= -tol:
                ok = False
    # min skips nan margins; one of them, or no margin below inf, leaves
    # the minimum undefined unless some margin is -inf
    if min_margin != -math.inf and (undefined or min_margin == math.inf):
        min_margin = math.nan
    return ok, min_margin

