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
argument.  Best responses return (control, residual), converged or not.
The iteration tolerances, caps, deviation count and seed are module constants.

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
Successive state solves differ only in the rows a control reaches, and
the game's one solver re-marches only those (operators.DirichletSolver).

A GameConfig is frozen, so it is checked once, when it is built, and
its solver and source hold for its life; a different game is a new one
(dataclasses.replace re-runs every check).  Inside the game the
arithmetic runs on each region's node indices (RegionMask.nodes), and
right-hand sides and states are flat node values, the layout the solver
marches.  Each GameConfig masks the leader's source g once
(GameConfig.source), and keeps one record per follower
(GameConfig.follower): its regions and radius, the target yd_i gathered
on G_i, and x^-alpha and x^alpha gathered on omega_i.  A state solve copies
the source and adds f1 and f2 on their own nodes; cost and gradient
gather and scatter through the same indices.  The solver checks no
residual; nash_solve holds its final state to the residual contract
(operators._check_residual) and reports a miss as converged=False.
The tracking term, the penalty and the norms of certify's directions
sum their products over their region's nodes only, in arrays the call
gathered, so a sum that raises leaves nothing behind; each is within
1e-14 relative of the full-grid np.where sum.  Only the solver's forward
march store is shared by every call on the game: not reentrant.  cost builds no GridFunction and
certify one per deviation; each GridFunction keeps its finiteness scan.

The shipped game is defined once, in configs/benchmark_game.yaml; the CLI
builds its GameConfig through cli.parse_config and cli.build_game_config.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .grid import FINITE_NONNEGATIVE, Grid, GridFunction, RegionMask, _x_power
from .operators import DirichletSolver, _check_residual

_FEAS_SLACK = 8 * np.finfo(float).eps
# Stopping tolerances and caps of the sweeps and of each best response, and
# the deviations certify samples per follower besides the zero control.
BR_TOL = 1e-8
BR_MAX_ITERS = 200
INNER_TOL = 1e-9
INNER_MAX_ITERS = 500
DEVIATION_SAMPLES = 200
# certify draws follower i's deviations from default_rng([DEVIATION_SEED, i]);
# 2024 was the shipped game's seed, so every recorded margin keeps its bits
DEVIATION_SEED = 2024


class Follower(NamedTuple):
    """Follower i of a game: control region omega_i, observation region
    G_i and radius M_i, with the read-only arrays the game gathers on
    them once: the target yd_i on G_i's nodes, and x^-alpha (penalty and
    deviation norms) and x^alpha (gradient) on omega_i's, the
    powers of the grid's x-row picked by each node's column."""

    ctrl: RegionMask
    obs: RegionMask
    m: float
    yd_obs: np.ndarray
    x_inv: np.ndarray
    x_pow: np.ndarray


# GameConfig's regions: the leader's, the followers' controls and their observations
REGIONS = ("omega", "omega1", "omega2", "g1_obs", "g2_obs")


@dataclass(frozen=True, eq=False)
class GameConfig:
    """One game: its grid, regions, fields and ball radii.

    Frozen, so its checks run once, when it is built.  Besides its fields
    it holds only the cached solver, leader source and follower records,
    which die with it; the solver's forward march store is the one state
    that calls on the game share.  Compares and hashes by identity."""

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

    def __post_init__(self):
        for f in fields(self):
            if "rule" in f.metadata:
                f.metadata["rule"].check(f.name, getattr(self, f.name))
        for name in (*REGIONS, "g", "yd1", "yd2"):
            other = getattr(self, name).grid
            if other != self.grid:
                raise ValueError(f"{name} lives on {other}, not on the game's grid {self.grid}")
        for name in REGIONS:
            if getattr(self, name).nodes.size == 0:
                raise ValueError(f"region {name} contains no interior nodes")
        if np.array_equal(self.yd1.values, self.yd2.values):
            warnings.warn("follower targets coincide; the game degenerates", UserWarning)

    @functools.cached_property
    def solver(self) -> DirichletSolver:
        """The game's one solver, factored on first use."""
        return DirichletSolver(self.grid)

    @functools.cached_property
    def source(self) -> np.ndarray:
        """The leader's term of every state's right-hand side, as read-only
        node values: chi_omega g + 0.0.  The + 0.0 turns -0.0 into +0.0,
        so a state's right-hand side keeps the bits of the full-grid
        three-term sum."""
        source = np.where(self.omega.indicator, self.g.values, 0.0) + 0.0
        source.flags.writeable = False
        return source

    @functools.cached_property
    def _followers(self) -> dict[int, Follower]:
        followers, alpha = {}, self.grid.alpha
        for i, (ctrl, obs, yd, m) in enumerate(
            ((self.omega1, self.g1_obs, self.yd1, self.m1), (self.omega2, self.g2_obs, self.yd2, self.m2)), 1
        ):
            column = ctrl.nodes % self.grid.nx
            gathered = [yd.values[obs.nodes]] + [_x_power(self.grid, e)[column] for e in (-alpha, alpha)]
            for a in gathered:
                a.flags.writeable = False
            followers[i] = Follower(ctrl, obs, m, *gathered)
        return followers

    def follower(self, i: int) -> Follower:
        """The record of follower i, built once per game."""
        if i not in (1, 2):
            raise ValueError(f"follower index must be 1 or 2, got {i}")
        return self._followers[i]


@dataclass(eq=False)
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


def control_inner(u: GridFunction, v: GridFunction, alpha: float) -> float:
    """Lumped weighted inner product hx*hy * sum x^-alpha u v.

    The row x^-alpha is kept once per (grid, alpha) (grid._x_power), and
    (x^-alpha * u) * v is formed in one array and summed: the order and
    the bits of np.sum(x**-alpha * u * v)."""
    u._check_same_grid(v)
    g = u.grid
    prod = _x_power(g, -alpha) * u.values2d()
    prod *= v.values2d()
    return float(g.hx * g.hy * prod.sum())


def control_norm(f: GridFunction, alpha: float) -> float:
    return math.sqrt(control_inner(f, f, alpha))


def _within_ball(norm: float, m: float) -> bool:
    """Whether a control norm is admissible for radius m: norms within
    round-off of m count as feasible, so a projection is exactly idempotent."""
    return norm <= m * (1.0 + _FEAS_SLACK)


def state_solve(cfg: GameConfig, f1: GridFunction, f2: GridFunction) -> GridFunction:
    """State y(cfg.g, f1, f2) with masked sources."""
    return GridFunction(cfg.grid, _state(cfg, f1, f2))


def _rhs(cfg: GameConfig, f1: GridFunction, f2: GridFunction) -> np.ndarray:
    """The state's right-hand side chi_omega g + chi_omega1 f1 + chi_omega2 f2
    as fresh node values."""
    rhs = cfg.source.copy()
    for name, region, f in (("f1", cfg.omega1, f1), ("f2", cfg.omega2, f2)):
        if f.grid is not cfg.grid and f.grid != cfg.grid:
            raise ValueError(f"{name} lives on {f.grid}, not on the game's grid {cfg.grid}")
        rhs[region.nodes] += f.values[region.nodes]
    return rhs


def _state(cfg: GameConfig, f1: GridFunction, f2: GridFunction, last_row: int | None = None) -> np.ndarray:
    """The state's node values, or, given last_row, its y-rows up to
    last_row and zeros above."""
    return cfg.solver.solve(_rhs(cfg, f1, f2), last_row=last_row)


def cost(cfg: GameConfig, i: int, f1: GridFunction, f2: GridFunction) -> float:
    """J_i: tracking hx*hy * sum_{G_i} (y - yd_i)^2 plus penalty
    hx*hy * sum_{omega_i} x^-alpha f_i^2, formed in place on region nodes."""
    player = cfg.follower(i)
    y = _state(cfg, f1, f2, player.obs.top_row)
    grid = cfg.grid
    misfit = y[player.obs.nodes]
    misfit -= player.yd_obs
    misfit *= misfit
    penalty = (f1 if i == 1 else f2).values[player.ctrl.nodes]
    penalty *= penalty
    penalty *= player.x_inv
    return float(grid.hx * grid.hy * misfit.sum() + grid.hx * grid.hy * penalty.sum())


def gradient(cfg: GameConfig, i: int, f1: GridFunction, f2: GridFunction) -> GridFunction:
    """Riesz representative of dJ_i/df_i in the lumped L2(omega_i; x^-alpha)
    inner product: solve A^T p = 2 chi_G_i (y - yd_i), return
    chi_omega_i (x^alpha p + 2 f_i)."""
    player = cfg.follower(i)
    ctrl, obs = player.ctrl, player.obs
    y = _state(cfg, f1, f2, obs.top_row)
    source = np.zeros(cfg.grid.n)
    source[obs.nodes] = 2.0 * (y[obs.nodes] - player.yd_obs)
    p = cfg.solver.solve_adjoint(source, last_row=ctrl.bottom_row)
    f_own = f1 if i == 1 else f2
    vals = np.zeros(cfg.grid.n)
    vals[ctrl.nodes] = player.x_pow * p[ctrl.nodes] + 2.0 * f_own.values[ctrl.nodes]
    return GridFunction(cfg.grid, vals)


def project_ball(f: GridFunction, m: float, mask: RegionMask, alpha: float) -> GridFunction:
    """Projection onto {support in mask, ||.||_{L2(x^-alpha)} <= m}.

    Masking first, then radial rescaling; norms within round-off of m are
    treated as feasible so the projection is exactly idempotent.  m, as
    GameConfig's m1 and m2, by FINITE_NONNEGATIVE.
    """
    FINITE_NONNEGATIVE.check("m", m)
    fm = mask.apply(f)
    if m == 0.0:
        return GridFunction(f.grid, np.zeros(f.grid.n))
    n = control_norm(fm, alpha)
    if _within_ball(n, m):
        return fm
    return fm * (m / n)


def best_response(cfg: GameConfig, i: int, f_other: GridFunction) -> tuple[GridFunction, float]:
    """Minimize J_i over the follower's admissible ball, holding the other
    follower fixed, by projected gradient descent with backtracking.

    Returns (control, residual) from every exit: the last iterate and the
    unit-step projected-gradient residual measured last, at most INNER_TOL
    exactly when the descent converged (above it, or NaN, when
    INNER_MAX_ITERS ran out).
    """
    player = cfg.follower(i)
    alpha = cfg.grid.alpha

    def pack(f_own):
        return (f_own, f_other) if i == 1 else (f_other, f_own)

    f = GridFunction.zeros(cfg.grid)
    j = cost(cfg, i, *pack(f))
    step = 0.5
    residual = math.inf
    for _ in range(INNER_MAX_ITERS):
        grad = gradient(cfg, i, *pack(f))
        trial_unit = project_ball(f - grad, player.m, player.ctrl, alpha)
        residual = control_norm(f - trial_unit, alpha)
        if residual <= INNER_TOL:
            return f, residual
        while True:
            f_new = project_ball(f - step * grad, player.m, player.ctrl, alpha)
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
        step = min(step * 1.25, 8.0)
    return f, residual


def nash_solve(cfg: GameConfig) -> NashResult:
    """Gauss-Seidel best-response iteration (f1 then f2) plus certification.

    Non-convergence within BR_MAX_ITERS is a reported outcome, never an
    assertion: the result carries converged=False and the residual series.
    So is a best response whose residual is above INNER_TOL, or NaN: the
    sweeps stop, the last completed sweep's controls are kept and
    certified, and that residual is appended to br_residuals.  Follower
    2's best response runs only once follower 1's has converged.  converged
    also requires a finite J1 and J2, and a final state that meets the
    solve's residual contract (operators._check_residual); a miss is
    reported, not raised.  A control outside its admissible set comes back
    as certified=False.
    """
    zero = GridFunction.zeros(cfg.grid)
    f1, f2 = zero, zero
    residuals: list[float] = []
    converged = False
    sweeps = 0
    alpha = cfg.grid.alpha
    for sweeps in range(1, BR_MAX_ITERS + 1):
        f1_new, inner = best_response(cfg, 1, f2)
        if inner <= INNER_TOL:
            f2_new, inner = best_response(cfg, 2, f1_new)
        if not inner <= INNER_TOL:  # a NaN residual is not converged either
            residuals.append(inner)
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
    solved = _check_residual(cfg.grid, state.values, _rhs(cfg, f1, f2))[1]
    j1, j2 = cost(cfg, 1, f1, f2), cost(cfg, 2, f1, f2)
    return NashResult(
        f1_star=f1,
        f2_star=f2,
        state=state,
        j1=j1,
        j2=j2,
        br_iterations=sweeps,
        br_residuals=residuals,
        # sweeps that settle on a non-finite cost, or on a state that misses
        # the residual contract, have found no equilibrium
        converged=converged and solved and math.isfinite(j1) and math.isfinite(j2),
        certified=certified,
        certification_margin=margin,
    )


def _feasible_deviations(cfg: GameConfig, i: int) -> Iterator[GridFunction]:
    """Yield the zero control, the whole feasible set when M_i = 0, and
    otherwise DEVIATION_SAMPLES more points drawn from the stream
    (DEVIATION_SEED, i): boundary-sphere points and interior points with
    uniform directions and radii up to M_i.  Directions are standard
    normal on the control region's nodes, which GameConfig requires to be
    nonempty, zero elsewhere, and normed on those nodes.  Each is drawn
    when asked for, so the caller holds one at a time."""
    player, rng = cfg.follower(i), np.random.default_rng([DEVIATION_SEED, i])
    yield GridFunction.zeros(cfg.grid)
    m = player.m
    n = DEVIATION_SAMPLES if m > 0.0 else 0
    nodes = player.ctrl.nodes
    for k in range(n):
        direction = rng.standard_normal(nodes.size)
        squares = player.x_inv * direction
        squares *= direction
        nd = math.sqrt(cfg.grid.hx * cfg.grid.hy * squares.sum())
        radius = m if k < n // 2 else m * rng.uniform(0.0, 1.0)
        vals = np.zeros(cfg.grid.n)
        vals[nodes] = direction * (radius / nd)
        yield GridFunction(cfg.grid, vals)


def _admissible(cfg: GameConfig, i: int, f: GridFunction) -> bool:
    """Whether f lies in follower i's admissible set: support in omega_i
    and control_norm within the ball, project_ball's own rule, so a
    projected control stays admissible to the last bit."""
    player = cfg.follower(i)
    if np.count_nonzero(f.values[player.ctrl.nodes]) != np.count_nonzero(f.values):
        return False
    return _within_ball(control_norm(f, cfg.grid.alpha), player.m)


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
    the fixed stream (DEVIATION_SEED, i).  Returns (all-pass flag, minimum margin
    J_i(deviation) - J_i(candidate)).  The minimum is -inf when some
    margin is; otherwise it is nan when some margin is nan or none is
    below inf, so a candidate with a non-finite cost never reports a
    finite margin.
    """
    ok = True
    min_margin = math.inf
    undefined = False
    for i, f_own in ((1, f1_star), (2, f2_star)):
        j_star = cost(cfg, i, f1_star, f2_star)
        if not (_admissible(cfg, i, f_own) and math.isfinite(j_star)):
            ok = False
        tol = 1e-8 * (1.0 + j_star)
        for v in _feasible_deviations(cfg, i):
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

