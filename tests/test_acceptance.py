"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured quantities once its assertions hold.  Tolerances are
pinned here, not configurable."""

import dataclasses
import math
import time

import numpy as np
import pytest

import degenash.analysis as analysis
from conftest import shipped_game
from degenash.analysis import (
    Verdict,
    coercivity_check,
    convergence_study,
    embedding_study,
    energy_estimate_study,
    strict_inclusion_demo,
    w11_exact,
)
from degenash.cli import parse_config, run
from degenash.game import (
    BR_TOL,
    best_response,
    certify,
    control_inner,
    control_norm,
    cost,
    gradient,
    nash_solve,
    project_ball,
    state_solve,
)
from degenash.fields import named_field
from degenash.grid import GridFunction, build_grid
from degenash.norms import muckenhoupt_panel
from degenash.operators import solve_dirichlet

LEVELS = [16, 32, 64, 128]


@pytest.fixture(scope="module")
def bench_cfg():
    return shipped_game()


@pytest.fixture(scope="module")
def bench_nash(bench_cfg):
    start = time.perf_counter()
    result = nash_solve(bench_cfg)
    return result, time.perf_counter() - start


def test_criterion_1_manufactured_convergence():
    start = time.perf_counter()
    orders = {}
    for alpha in (0.5, 1.0):
        r = convergence_study(LEVELS, alpha=alpha)
        order = r.observed_orders[-1]
        orders[("manufactured", alpha)] = order
        assert order >= 0.9, f"alpha={alpha}: L2 order {order:.3f} < 0.9"
        max_order = r.samples["order_max"][-1]
        assert max_order >= 0.9, f"alpha={alpha}: max-norm order {max_order:.3f}"
    # Self-convergence on forcing that does not vanish at the outflow edge
    # y = 1, where no manufactured solution is known: node i of level n is
    # node 2i+1 of level 2n+1, and the differences there must shrink at
    # order 0.9.  Only the last pair is judged; the first is pre-asymptotic.
    for kind in ("sinsin", "right_half"):
        for alpha in (0.5, 1.0):
            solutions = []
            for n in (31, 63, 127, 255):
                grid = build_grid(n, n, alpha)
                solutions.append(solve_dirichlet(grid, named_field(grid, kind))[0].values2d())
            diffs = [np.max(np.abs(c - f[1::2, 1::2])) for c, f in zip(solutions, solutions[1:])]
            order = math.log2(diffs[-2] / diffs[-1])
            orders[(kind, alpha)] = order
            assert order >= 0.9, f"{kind} alpha={alpha}: self-convergence order {order:.3f} < 0.9"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    pretty = ", ".join(f"{k}/a={a}: {o:.2f}" for (k, a), o in orders.items())
    print(f"\nACCEPTANCE 1 (manufactured and self-convergence): PASS [{pretty}; {elapsed:.1f}s]")


def test_criterion_2_energy_estimate():
    r = energy_estimate_study(LEVELS, alpha=0.5)
    growths = []
    for name, series in sorted(r.metrics.items()):
        growth = series[-1] / series[0]
        growths.append(growth)
        assert growth <= 1.2, f"{name}: ratio grew {growth:.3f}x from nx=16 to nx=128"
    assert r.verdict is Verdict.PASS
    print(f"\nACCEPTANCE 2 (energy estimate): PASS [worst growth {max(growths):.3f}x <= 1.2x]")


def test_criterion_3_coercivity():
    r = coercivity_check(nx=64, ny=64, alpha=0.5)
    violations = int(r.metrics["violations"][0])
    assert violations == 0, f"{violations} coercivity violations"
    assert min(r.samples["margin"]) >= 0.0
    print(
        "\nACCEPTANCE 3 (coercivity): PASS "
        f"[{analysis.COERCIVITY_SAMPLES} samples, min margin {r.metrics['min_margin'][0]:.4f}, delta_h {r.metrics['delta_h'][0]:.4f}]"
    )


def test_criterion_4_strict_inclusion():
    levels = [16, 32, 64, 128, 256]
    r = strict_inclusion_demo(levels, alpha=0.5)
    w11, dy = r.metrics["w11"], r.metrics["dy_l2"]
    assert all(b > a for a, b in zip(dy, dy[1:])), f"dy series not strictly increasing: {dy}"
    exact = w11_exact(0.5)
    gaps = [exact - w for w in w11]
    assert all(g > 0.0 for g in gaps), f"w11 {w11} not below w11_exact(0.5) = {exact}"
    assert all(b < a for a, b in zip(gaps, gaps[1:])), f"gaps to w11_exact(0.5) do not shrink: {gaps}"
    assert r.verdict is Verdict.PASS
    print(
        "\nACCEPTANCE 4 (strict inclusion): PASS "
        f"[gap to w11_exact(0.5) {gaps[0]:.3f}->{gaps[-1]:.3f}, dy {dy[0]:.3f}->{dy[-1]:.3f}]"
    )


def test_criterion_5_embedding():
    r = embedding_study(levels=(64, 128), alpha=0.5)
    worst = 0.0
    for name, series in r.metrics.items():
        growth = series[1] / series[0]
        worst = max(worst, growth)
        assert growth <= 1.1, f"{name}: grew {growth:.3f}x under refinement"
    print(f"\nACCEPTANCE 5 (embedding ratios): PASS [worst growth {worst:.4f}x <= 1.1x]")


def test_criterion_6_muckenhoupt():
    unit, half, bad = muckenhoupt_panel((0.0, 0.5, -3.0))
    assert abs(unit.constant - 1.0) <= 1e-9 and not unit.diverged
    assert math.isfinite(half.constant) and not half.diverged
    assert bad.diverged
    print(
        "\nACCEPTANCE 6 (Muckenhoupt): PASS "
        f"[unit {unit.constant:.12f}, x^0.5 constant {half.constant:.3f}, x^-3 diverged]"
    )


def test_criterion_7_gradient_oracle(bench_cfg):
    cfg = bench_cfg
    rng = np.random.default_rng(99)
    f1 = project_ball(GridFunction(cfg.grid, rng.standard_normal(cfg.grid.n) * 0.3), cfg.m1, cfg.omega1, cfg.grid.alpha)
    f2 = project_ball(GridFunction(cfg.grid, rng.standard_normal(cfg.grid.n) * 0.3), cfg.m2, cfg.omega2, cfg.grid.alpha)
    eps = 1e-6
    worst = 0.0
    for i, mask in ((1, cfg.omega1), (2, cfg.omega2)):
        grad = gradient(cfg, i, f1, f2)
        for _ in range(20):
            d = mask.apply(GridFunction(cfg.grid, rng.standard_normal(cfg.grid.n)))
            d = d * (1.0 / control_norm(d, cfg.grid.alpha))
            if i == 1:
                jp, jm = (cost(cfg, 1, f1 - s * d, f2) for s in (-eps, eps))
            else:
                jp, jm = (cost(cfg, 2, f1, f2 - s * d) for s in (-eps, eps))
            fd = (jp - jm) / (2 * eps)
            an = control_inner(grad, d, cfg.grid.alpha)
            rel = abs(fd - an) / max(abs(fd), 1e-30)
            worst = max(worst, rel)
            assert rel < 1e-5, f"follower {i}: FD mismatch {rel:.2e}"
    print(f"\nACCEPTANCE 7 (gradient oracle): PASS [worst relative error {worst:.2e} < 1e-5]")


def test_criterion_8_nash_pipeline(bench_cfg, bench_nash):
    cfg = bench_cfg
    res, elapsed = bench_nash
    assert res.converged and res.br_iterations <= 200
    assert res.br_residuals[-1] <= 1e-8
    assert res.certified
    jmax = max(res.j1, res.j2)
    assert res.certification_margin >= -1e-8 * (1.0 + jmax)
    alpha = cfg.grid.alpha
    assert control_norm(res.f1_star, alpha) <= cfg.m1 + 1e-12
    assert control_norm(res.f2_star, alpha) <= cfg.m2 + 1e-12
    b1, _ = best_response(cfg, 1, res.f2_star)
    b2, _ = best_response(cfg, 2, res.f1_star)
    fp1 = control_norm(b1 - res.f1_star, alpha)
    fp2 = control_norm(b2 - res.f2_star, alpha)
    assert fp1 <= 10 * BR_TOL and fp2 <= 10 * BR_TOL
    assert elapsed < 120.0
    print(
        "\nACCEPTANCE 8 (Nash pipeline): PASS "
        f"[{res.br_iterations} sweeps, margin {res.certification_margin:.2e}, "
        f"fixed-point {max(fp1, fp2):.2e}, {elapsed:.1f}s]"
    )


def test_criterion_9_trivial_game_invariants():
    singleton = shipped_game(n=32, m1=0.0, m2=0.0)
    res = nash_solve(singleton)
    assert np.all(res.f1_star.values == 0.0) and np.all(res.f2_star.values == 0.0)
    assert res.certified and res.certification_margin == 0.0

    cfg = shipped_game(n=32)
    z = GridFunction.zeros(cfg.grid)
    no_leader = dataclasses.replace(cfg, g=z)
    assert np.all(state_solve(no_leader, z, z).values == 0.0)

    rng = np.random.default_rng(23)
    g = GridFunction(cfg.grid, rng.standard_normal(cfg.grid.n))
    f1 = GridFunction(cfg.grid, rng.standard_normal(cfg.grid.n))
    f2 = GridFunction(cfg.grid, rng.standard_normal(cfg.grid.n))
    leader = dataclasses.replace(cfg, g=g)
    y_all = state_solve(leader, f1, f2)
    y_sum = state_solve(leader, z, z).values + state_solve(no_leader, f1, z).values + state_solve(no_leader, z, f2).values
    err = np.linalg.norm(y_all.values - y_sum)
    assert err <= 1e-10 * (np.linalg.norm(y_all.values) + 1.0)
    print(f"\nACCEPTANCE 9 (trivial-game invariants): PASS [superposition error {err:.2e}]")


def test_criterion_10_determinism(tmp_path, monkeypatch):
    # a run's tables depend on its config alone: no run reads a seed
    monkeypatch.setattr(analysis, "COERCIVITY_SAMPLES", 50)
    configs = {
        "muckenhoupt": "command: study\nstudy: {kind: muckenhoupt}\n",
        "coercivity": (
            "command: study\ngrid: {nx: 32, ny: 32, alpha: 0.5}\n"
            "study: {kind: coercivity}\n"
        ),
        "game": (
            "command: game\ngrid: {nx: 24, ny: 24, alpha: 0.5}\n"
            "game:\n"
            "  omega:  [0.1, 0.3, 0.1, 0.9]\n"
            "  omega1: [0.4, 0.6, 0.1, 0.45]\n"
            "  omega2: [0.4, 0.6, 0.55, 0.9]\n"
            "  g1_obs: [0.7, 0.9, 0.1, 0.45]\n"
            "  g2_obs: [0.7, 0.9, 0.55, 0.9]\n"
            "  g: {kind: sinsin}\n"
            "  yd1: {kind: sinsin, amplitude: 0.1}\n"
            "  yd2: {kind: sinsin, amplitude: -0.1}\n"
            "  m1: 1.0\n  m2: 1.0\n"
        ),
    }
    for name, text in configs.items():
        tables = {}
        for tag in ("a", "b"):
            cfg = parse_config(text)
            cfg.output_dir = str(tmp_path / name / tag)
            run(cfg)
            out = tmp_path / name / tag
            tables[tag] = {
                p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.suffix == ".tsv"
            }
        assert tables["a"] == tables["b"], f"{name}: reruns differ"
        assert tables["a"], f"{name}: no tables written"
    print("\nACCEPTANCE 10 (determinism): PASS [muckenhoupt, coercivity, game tables byte-identical for a given config]")
