import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

import degenash.norms as norms_mod
from conftest import half_disk_closed_form, half_disk_constant, peak_bytes, random_field
from degenash.grid import DegenerateWeightWarning, GridFunction, build_grid, cell_weights
from degenash.norms import (
    embedding_ratio,
    l2_weighted_norm,
    lq_norm,
    muckenhoupt_panel,
    norms_of,
)
from test_verdict_sensitivity import MUTANTS


def sinsin_w11_errors_per_h(alpha=0.5):
    """|norms_of(u).w11 - exact| / exact / h for u = sin(pi x) sin(pi y)
    at 32, 64 and 128, against ||u||_W11^2 = 1/4 + pi^2/4
    + (pi^2/2) * int_0^1 x^alpha sin^2(pi x) dx."""
    integral = quad(lambda x: x**alpha * math.sin(math.pi * x) ** 2, 0.0, 1.0)[0]
    exact = math.sqrt(0.25 + math.pi**2 / 4 + math.pi**2 / 2 * integral)
    ratios = []
    for n in (32, 64, 128):
        g = build_grid(n, n, alpha)
        u = GridFunction.from_callable(g, lambda X, Y: np.sin(np.pi * X) * np.sin(np.pi * Y))
        ratios.append(abs(norms_of(u).w11 - exact) / exact / g.hx)
    return ratios


class TestNormsOf:
    def test_zero_field(self, small_grid):
        r = norms_of(GridFunction.zeros(small_grid), include_mixed=True)
        assert r.l2 == r.dx_l2 == r.weighted_dy_l2 == r.w11 == 0.0
        assert r.mixed_l2 == 0.0 and r.v_norm == 0.0

    def test_poly_l2_converges_to_one_thirtieth(self):
        # product structure: ||x(1-x)y(1-y)||_L2 = (1/30 * 1/30)^(1/2)
        errs = []
        for n in (16, 32, 64):
            g = build_grid(n, n, 0.5)
            u = GridFunction.from_callable(g, lambda X, Y: X * (1 - X) * Y * (1 - Y))
            errs.append(abs(norms_of(u).l2 - 1.0 / 30.0))
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-4

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_report_identities(self, seed):
        g = build_grid(9, 8, 0.5)
        u = random_field(g, seed)
        r = norms_of(u, include_mixed=True)
        assert r.w11**2 == pytest.approx(r.l2**2 + r.dx_l2**2 + r.weighted_dy_l2**2, rel=1e-12)
        assert r.v_norm**2 == pytest.approx(r.w11**2 + r.mixed_l2**2, rel=1e-12)

    def test_w11_within_2h_of_the_closed_form(self):
        # the closed form is 2.104700614776034 at alpha = 1/2; the ratios
        # are 1.58, 1.49 and 1.45
        assert max(sinsin_w11_errors_per_h()) <= 2.0

    @pytest.mark.parametrize("mutant", ["norm-dx-doubled", "norm-dy-unweighted"])
    def test_wrong_norm_misses_the_closed_form(self, monkeypatch, mutant):
        MUTANTS[mutant](monkeypatch)
        assert max(sinsin_w11_errors_per_h()) > 2.0

    def test_counterexample_field_stable(self):
        # (x^2+y)^(1/4) has finite weighted norm at alpha = 1/2
        vals = []
        for n in (64, 128):
            g = build_grid(n, n, 0.5)
            u = GridFunction.from_callable(g, lambda X, Y: (X**2 + Y) ** 0.25)
            vals.append(norms_of(u).w11)
        assert all(math.isfinite(v) for v in vals)
        assert abs(vals[1] - vals[0]) / vals[0] < 0.05

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), c=st.floats(0.1, 7.0))
    def test_w11_homogeneous_and_triangle(self, seed, c):
        g = build_grid(8, 8, 0.5)
        u = random_field(g, seed)
        v = random_field(g, seed + 1)
        wu, wv = norms_of(u).w11, norms_of(v).w11
        assert norms_of(c * u).w11 == pytest.approx(c * wu, rel=1e-10)
        assert norms_of(GridFunction(g, u.values + v.values)).w11 <= wu + wv + 1e-10 * (wu + wv)


class TestWeightedDataNorm:
    def test_zero(self, small_grid):
        z = GridFunction.zeros(small_grid)
        assert l2_weighted_norm(z) == 0.0

    def test_x_alpha_half_exponent(self):
        # integral of x^-a (x^a)^2 = 1/(1+a)
        for alpha in (0.5, 1.0):
            errs = []
            for n in (16, 32, 64):
                g = build_grid(n, n, alpha)
                f = GridFunction.from_callable(g, lambda X, Y: X**alpha)
                import warnings as _w

                with _w.catch_warnings():
                    _w.simplefilter("ignore", DegenerateWeightWarning)
                    val = l2_weighted_norm(f)
                errs.append(abs(val - math.sqrt(1.0 / (1.0 + alpha))))
            assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_constant_half_exponent_sqrt_two(self):
        g = build_grid(96, 96, 0.5)
        f = GridFunction(g, np.ones(g.n))
        assert l2_weighted_norm(f) == pytest.approx(math.sqrt(2.0), abs=0.08)

    def test_alpha_one_half_exponent_warns(self):
        g = build_grid(8, 8, 1.0)
        f = GridFunction(g, np.ones(g.n))
        with pytest.warns(DegenerateWeightWarning):
            l2_weighted_norm(f)


class TestLqNorm:
    def test_zero_and_constant(self, small_grid):
        assert lq_norm(GridFunction.zeros(small_grid), 3.0) == 0.0
        one = GridFunction(small_grid, np.ones(small_grid.n))
        for q in (2.0, 3.0, 4.0):
            assert lq_norm(one, q) == pytest.approx(1.0, abs=4 * small_grid.hx)

    def test_x_fourth_power(self):
        errs = []
        for n in (16, 32, 64):
            g = build_grid(n, n, 0.5)
            u = GridFunction.from_callable(g, lambda X, Y: X)
            errs.append(abs(lq_norm(u, 4.0) - (1.0 / 5.0) ** 0.25))
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_q_below_one_rejected(self, small_grid):
        with pytest.raises(ValueError):
            lq_norm(GridFunction.zeros(small_grid), 0.5)

    # Hoelder: the quadrature is a measure of mass mu, so
    # ||u||_p <= mu**(1/p - 1/q) ||u||_q for p < q, one round-off apart
    @pytest.mark.parametrize("nx,ny", [(12, 12), (9, 7), (5, 16), (2, 2), (2, 9), (9, 2)])
    def test_grows_with_q(self, nx, ny):
        g = build_grid(nx, ny, 0.5)
        u = random_field(g, nx * ny)
        mu = float(np.sum(np.broadcast_to(cell_weights(g, 0.0), (g.ny + 1, g.nx + 1))))
        qs = sorted(norms_mod.Q_VALUES)
        for p, q in zip(qs, qs[1:]):
            assert lq_norm(u, p) <= mu ** (1.0 / p - 1.0 / q) * lq_norm(u, q) * (1.0 + 1e-14)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), c=st.floats(0.1, 5.0), q=st.sampled_from([2.0, 3.0, 4.0]))
    def test_homogeneous_and_triangle(self, seed, c, q):
        g = build_grid(8, 8, 0.5)
        u = random_field(g, seed)
        v = random_field(g, seed + 1)
        assert lq_norm(c * u, q) == pytest.approx(c * lq_norm(u, q), rel=1e-10)
        assert lq_norm(GridFunction(g, u.values + v.values), q) <= (1.0 + 1e-10) * (lq_norm(u, q) + lq_norm(v, q))


class TestEmbeddingRatio:
    def test_l2_ratio_below_one(self, small_grid):
        u = GridFunction.from_callable(small_grid, lambda X, Y: X * (1 - X) * Y * (1 - Y))
        assert embedding_ratio(u, 2.0) <= 1.0

    def test_out_of_range_q(self, small_grid):
        u = GridFunction.from_callable(small_grid, lambda X, Y: X)
        with pytest.raises(ValueError):
            embedding_ratio(u, 5.0)
        with pytest.raises(ValueError):
            embedding_ratio(u, 1.5)

    def test_zero_field_rejected(self, small_grid):
        with pytest.raises(ValueError):
            embedding_ratio(GridFunction.zeros(small_grid), 2.0)


# the integrals the reference tests check, and the balls beyond the
# shipped draw: clipped at y = 0, at y = 1, at both and at x = 1, covering
# the square, missing it on either side, through the corner (0, 0), and
# with the left edge 1e-3 r, 1e-6 r and 1e-9 r short of or past x = 0
REFERENCE_EXPONENTS = (0.5, -0.5, 0.9, -0.9, 3.0, -3.0, 0.0)
EDGE_BALLS = [
    (0.5, 0.05, 0.2), (0.5, 0.97, 0.1), (0.45, 0.5, 0.52), (0.95, 0.5, 0.2),
    (0.5, 0.5, 1.0), (5.0, 0.5, 0.1), (-5.0, 0.5, 0.1), (0.3, 0.4, 0.5),
    *[(0.1 * (1.0 + sign * gap), 0.5, 0.1) for gap in (1e-3, 1e-6, 1e-9) for sign in (1.0, -1.0)],
    # centred outside the square in y: the chord is kinked where the ball enters it
    (0.5, -0.05, 0.2), (0.5, 1.05, 0.2), (0.3, -0.1, 0.4), (0.05, 1.02, 0.1),
]


def _quad_ball_integral(cx, cy, r, e):
    """The integral of x**e over B((cx, cy), r) cap Omega by adaptive quad
    in x, split at the x-edges, at the y-clip points and at multiples of
    |cx - r|, the left edge's distance from x = 0.  A ball that reaches
    x = 0 is integrated in u = x**(1 + e), which takes the singularity
    away, and diverges for e <= -1."""
    lo, hi = max(cx - r, 0.0), min(cx + r, 1.0)
    if hi <= lo:
        return 0.0

    def chord(x):
        # r**2 - (x - cx)**2, factored to keep its digits next to the edges
        h = math.sqrt(max((x - (cx - r)) * ((cx + r) - x), 0.0))
        return max(min(cy + h, 1.0) - max(cy - h, 0.0), 0.0)

    points = {lo, hi}
    for level in (cy, 1.0 - cy):
        if level < r:
            half = math.sqrt(r * r - level * level)
            points |= {p for p in (cx - half, cx + half) if lo < p < hi}
    points |= {p for m in (2.0, 11.0, 101.0, 1e3, 1e4, 1e6) if lo < (p := abs(cx - r) * m) < hi}
    points = sorted(points)
    if lo > 0.0:
        f, p = (lambda x: x**e * chord(x)), 1.0
    elif e <= -1.0:
        assert chord(0.0) > 0.0
        return math.inf
    else:
        p = 1.0 + e
        f, points = (lambda u: chord(u ** (1.0 / p)) / p), [x**p for x in points]
    return sum(quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0] for a, b in zip(points, points[1:]))


# balls tangent to x = 0 (cx == r): one inside the square, one centred on
# y = 0, and ones clipped at y = 1 and at y = 0
TANGENT_BALLS = [(0.1, 0.5, 0.1), (0.2, 0.0, 0.2), (0.4, 0.9, 0.4), (0.3, 0.1, 0.3)]
# the clipped balls' integrals of x**e by mpmath 1.3.0 at 30 digits in
# x = 2 r sin(phi / 2)**2, split at the clip angles
TANGENT_MPMATH = {
    ((0.4, 0.9, 0.4), -1.2): 3.8581922648851518586,
    ((0.4, 0.9, 0.4), -0.9): 1.4260799069742189324,
    ((0.4, 0.9, 0.4), 0.9): 0.1428580761820723114,
    ((0.4, 0.9, 0.4), -0.5): 0.6442170027033169303,
    ((0.4, 0.9, 0.4), 0.5): 0.19995266751112956212,
    ((0.3, 0.1, 0.3), -1.2): 3.224258759821815934,
    ((0.3, 0.1, 0.3), -0.9): 1.1143507335234092095,
    ((0.3, 0.1, 0.3), 0.9): 0.066803373547500689471,
    ((0.3, 0.1, 0.3), -0.5): 0.45102252685087312392,
    ((0.3, 0.1, 0.3), 0.5): 0.10487231027336327468,
}


def tangent_reference(ball, e):
    """The integral of x**e over a tangent ball: TANGENT_MPMATH's for a
    clipped ball, else 2 (2r)**(e + 2) B(e + 3/2, 3/2) over the whole ball,
    finite exactly for e > -3/2, and half that over the ball centred on
    y = 0.  The closed form agrees with mpmath at 30 digits to 1e-15."""
    if (ball, e) in TANGENT_MPMATH:
        return TANGENT_MPMATH[ball, e]
    _, cy, r = ball
    whole = 2.0 * (2.0 * r) ** (e + 2.0) * math.gamma(e + 1.5) * math.gamma(1.5) / math.gamma(e + 3.0)
    return 0.5 * whole if cy == 0.0 else whole


def _draw(n_balls, seed):
    """A seeded draw of generic balls: centres uniform in the square, radii
    log-uniform in [1e-3, sqrt(2)], for the checks that need balls beyond
    the lattice."""
    rng = np.random.default_rng(seed)
    cx, cy = rng.uniform(0.0, 1.0, n_balls), rng.uniform(0.0, 1.0, n_balls)
    return cx, cy, np.exp(rng.uniform(math.log(1e-3), math.log(math.sqrt(2.0)), n_balls))


def _one_ball_at_a_time(weight_exponents, balls):
    """muckenhoupt_panel's estimates on balls from _ball_integrals of each ball alone."""
    exponents = tuple(x for e in weight_exponents for x in (e, -e))
    products = np.empty((len(weight_exponents), len(balls[0])))
    for k, ball in enumerate(zip(*balls)):
        integrals, (area,) = norms_mod._ball_integrals(*(np.array([v]) for v in ball), exponents)
        for w, (w_int, inv_int) in enumerate(zip(integrals[::2, 0], integrals[1::2, 0])):
            products[w, k] = (w_int / area) * (inv_int / area)
    estimates = []
    for row in products:
        finite = np.isfinite(row)
        diverged = bool(np.any(~finite) or np.any(row[finite] > norms_mod.OVERFLOW))
        constant = float(np.max(row)) if np.all(finite) else math.inf
        least = float(np.min(row))
        estimates.append(norms_mod.ApEstimate(constant=constant, diverged=diverged, least=least))
    return estimates


def _products(balls, e):
    """avg(x**e) * avg(x**-e) on each of balls."""
    integrals, areas = norms_mod._ball_integrals(*balls, (e, -e))
    return (integrals[0] / areas) * (integrals[1] / areas)


class TestMuckenhoupt:
    def test_unit_weight_constant_one(self):
        # the area is the e = 0 integral bit for bit, so every product is 1.0
        (est,) = muckenhoupt_panel((0.0,))
        assert est.constant == est.least == 1.0
        assert not est.diverged

    def test_admissible_degenerate_weight(self):
        (est,) = muckenhoupt_panel((0.5,))
        assert math.isfinite(est.constant) and not est.diverged
        assert est.constant >= 1.0  # Cauchy-Schwarz on nonconstant weight

    def test_non_integrable_weight_flags_divergence(self):
        (est,) = muckenhoupt_panel((-3.0,))
        assert est.diverged

    @pytest.mark.parametrize("exponents", [(math.nan,), (math.inf,), (0.5, -math.inf)])
    def test_exponent_that_is_not_finite_rejected(self, exponents):
        # NaN failed deep in the Gauss-Jacobi rule and inf warned; a boolean
        # (read as 1 or 0) is test_rules' case
        with pytest.raises(ValueError, match="weight exponent must be finite"):
            muckenhoupt_panel(exponents)

    @pytest.mark.parametrize("exponents, seed", [((0.0, 0.5, -3.0), 0), ((0.5,), 4), ((-0.0, 1.5, 0.5), 11)])
    def test_panel_equals_one_weight_at_a_time(self, monkeypatch, exponents, seed):
        monkeypatch.setattr(norms_mod, "_lattice", lambda: _draw(60, seed))
        panel = muckenhoupt_panel(exponents)
        assert panel == [muckenhoupt_panel((e,))[0] for e in exponents]

    @pytest.mark.parametrize("exponent", [0.0, 0.5, 1.0, -0.5])
    def test_every_ball_product_at_least_one(self, exponent):
        # Cauchy-Schwarz: avg(w) * avg(1/w) >= 1, exactly for a ball whose
        # w and 1/w share one rule, and up to the quadrature error otherwise
        (est,) = muckenhoupt_panel((exponent,))
        assert 1.0 - 1e-12 <= est.least <= est.constant

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    @pytest.mark.parametrize("n_balls", [1, 7, 8, 9, 17, 500])
    def test_batched_panel_equals_per_ball_reference(self, monkeypatch, n_balls, seed):
        # a ball's integrals keep their bits alone and in one call on the
        # whole draw, and the panel on the draw reads them
        exponents = (0.0, 0.5, -3.0)
        balls = _draw(n_balls, seed)
        integrals, areas = norms_mod._ball_integrals(*balls, (0.5, -0.5, -3.0, 3.0))
        for k, ball in enumerate(zip(*balls)):
            alone, area = norms_mod._ball_integrals(*(np.array([v]) for v in ball), (0.5, -0.5, -3.0, 3.0))
            assert (integrals[:, k].tobytes(), areas[k].tobytes()) == (alone[:, 0].tobytes(), area.tobytes())
        monkeypatch.setattr(norms_mod, "_lattice", lambda: balls)
        assert muckenhoupt_panel(exponents) == _one_ball_at_a_time(exponents, balls)

    def test_ball_integrals_equal_per_ball_reference(self):
        # the lattice less its balls tangent to x = 0 (TANGENT_BALLS' tests
        # cover those), a seeded draw and EDGE_BALLS, each integral within
        # 1e-9 of adaptive quad; the area is the e = 0 integral bit for bit
        lattice = norms_mod._lattice()
        lattice = tuple(a[lattice[0] != lattice[2]] for a in lattice)
        cx, cy, r = (np.concatenate(a) for a in zip(lattice, _draw(500, 7), zip(*EDGE_BALLS)))
        integrals, areas = norms_mod._ball_integrals(cx, cy, r, REFERENCE_EXPONENTS)
        assert integrals.shape == (len(REFERENCE_EXPONENTS), len(cx)) and areas.shape == (len(cx),)
        assert areas.tobytes() == integrals[-1].tobytes()
        for k, ball in enumerate(zip(cx, cy, r)):
            for e, value in zip(REFERENCE_EXPONENTS, integrals[:, k]):
                reference = _quad_ball_integral(*ball, e)
                assert value == pytest.approx(reference, rel=1e-9, abs=0.0), (ball, e)
        missed = np.flatnonzero(np.abs(cx) == 5.0)
        assert not areas[missed].any() and not integrals[:, missed].any()

    @pytest.mark.parametrize("e", [0.5, 0.9])
    @pytest.mark.parametrize("r", [1e-3, 0.01, 0.1, 0.3])
    def test_half_disk_constant_is_the_closed_form(self, monkeypatch, r, e):
        # ROADMAP item 13's anchor: the closed form holds for every r < 1/2
        assert half_disk_constant(monkeypatch, r, e) == pytest.approx(half_disk_closed_form(e), rel=1e-10)

    def test_non_integrable_weight_diverges_exactly_on_a_ball_at_x_zero(self, monkeypatch):
        # x**-1 and x**-3 integrate to +inf over a ball whose x-range holds
        # x = 0; x**-0.999 is integrable and meets its closed form
        assert half_disk_constant(monkeypatch, 0.1, -1.0) == half_disk_constant(monkeypatch, 0.1, -3.0) == math.inf
        assert half_disk_constant(monkeypatch, 0.1, -0.999) == pytest.approx(half_disk_closed_form(-0.999), rel=1e-10)

    @pytest.mark.parametrize("e", [-1.2, 0.9, -0.9, 0.5, -0.5])
    @pytest.mark.parametrize("ball", TANGENT_BALLS)
    def test_tangent_ball_integral_meets_the_reference(self, ball, e):
        # x and chord * dx/dphi both vanish like phi**2 at the tangent point
        (value,), _ = norms_mod._ball_integrals(*(np.array([v]) for v in ball), (e,))
        assert value[0] == pytest.approx(tangent_reference(ball, e), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("e", [-1.6, -1.5, -3.0])
    @pytest.mark.parametrize("ball", TANGENT_BALLS)
    def test_tangent_ball_diverges_for_e_at_most_minus_three_halves(self, ball, e):
        (value,), _ = norms_mod._ball_integrals(*(np.array([v]) for v in ball), (e,))
        assert value[0] == math.inf

    def test_panel_loads_no_scipy_special_integrate_or_sparse(self):
        # the Gauss rules come from numpy's eigh, and the study's closed
        # form from math.gamma
        code = (
            "import sys, degenash, degenash.cli\n"
            "assert degenash.analysis.muckenhoupt_study().verdict == 'pass'\n"
            "loaded = [m for m in ('scipy.special', 'scipy.integrate', 'scipy.sparse') if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        )
        src = str(Path(norms_mod.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_gauss_jacobi_rule_integrates_monomials(self):
        # the n-point rule of u**e on (0, 1) is exact to degree 2n - 1
        n = norms_mod.GAUSS_NODES
        for e in (0.0, 0.5, -0.5, -0.9, 3.0, 50.0):
            nodes, weights = norms_mod._gauss_jacobi(n, e)
            assert np.all(np.diff(nodes) > 0.0) and 0.0 < nodes[0] and nodes[-1] < 1.0
            for m in range(2 * n):
                assert np.sum(weights * nodes**m) == pytest.approx(1.0 / (e + m + 1.0), rel=1e-12)

    @pytest.mark.parametrize(
        "e", [0.0, 0.5, -0.5, 0.1, 0.25, 0.75, 0.9, 0.999, 1.0, 1.5, 2.0, 3.0, 8.0, 50.0, -0.25, -0.9],
    )
    def test_gauss_jacobi_rule_matches_the_tridiagonal_eigensolver(self, e):
        # the dense eigh of the Jacobi matrix against scipy's tridiagonal
        # eigensolver on the same recurrence, which built the rules before
        n = norms_mod.GAUSS_NODES
        k = np.arange(1.0, n)
        s = 2.0 * k + e
        diag = np.concatenate([[(e + 1.0) / (e + 2.0)], 0.5 + e * e / (2.0 * s * (s + 2.0))])
        ref_nodes, vectors = eigh_tridiagonal(diag, k * (k + e) / (s * np.sqrt(s * s - 1.0)))
        nodes, weights = norms_mod._gauss_jacobi(n, e)
        np.testing.assert_allclose(nodes, ref_nodes, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(weights, vectors[0] ** 2 / (e + 1.0), rtol=1e-12, atol=0.0)

    def test_gauss_jacobi_rule_is_read_only_and_built_once(self):
        rule = norms_mod._gauss_jacobi(norms_mod.GAUSS_NODES, 0.5)
        assert not any(a.flags.writeable for a in rule)
        assert all(a is b for a, b in zip(rule, norms_mod._gauss_jacobi(norms_mod.GAUSS_NODES, 0.5)))

    def test_traced_peak_is_bounded(self):
        # one call of _ball_integrals on the whole lattice, about 2 elements
        # a ball of GAUSS_NODES nodes each
        assert peak_bytes(lambda: muckenhoupt_panel((0.0, 0.5, -3.0))) < 400_000

    def test_lattice_is_at_most_128_balls_centred_in_the_closed_square(self):
        cx, cy, r = norms_mod._lattice()
        assert 0 < len(cx) <= 128 and cx.shape == cy.shape == r.shape
        assert np.all((0.0 <= cx) & (cx <= 1.0) & (0.0 <= cy) & (cy <= 1.0) & (r > 0.0))

    def test_every_lattice_ball_has_positive_area(self):
        # muckenhoupt_panel divides every ball's integrals by its area as it is
        _, areas = norms_mod._ball_integrals(*norms_mod._lattice(), ())
        assert len(areas) == 93 and np.all(areas > 0.0)

    @pytest.mark.parametrize("e", [0.5, 0.9])
    def test_lattice_constant_is_the_closed_form(self, e):
        (est,) = muckenhoupt_panel((e,))
        assert est.constant == pytest.approx(half_disk_closed_form(e), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("e", [0.5, 0.9])
    def test_no_ball_centred_in_the_square_exceeds_the_closed_form(self, e):
        # 21 x 21 centres on the closed square at 20 radii log-spaced in
        # [1e-3, sqrt(2)]: the lattice's maximum is the supremum
        side, radii = np.linspace(0.0, 1.0, 21), np.geomspace(1e-3, math.sqrt(2.0), 20)
        balls = tuple(a.ravel() for a in np.meshgrid(side, side, radii, indexing="ij"))
        assert np.max(_products(balls, e)) <= half_disk_closed_form(e) * (1.0 + 1e-12)

    def test_ball_centred_outside_the_square_exceeds_the_closed_form(self):
        # why the lattice keeps its centres in the closed square
        (product,) = _products((np.array([0.0]), np.array([1.2]), np.array([1.0])), 0.5)
        assert round(product, 6) == 1.361130 > half_disk_closed_form(0.5)

    # p = 2 names the class muckenhoupt_panel reads; it is kept in the case id
    @pytest.mark.parametrize("exponent, p, constant", [(0.5, 2.0, 1.3581221810508404)])
    def test_golden_constant(self, exponent, p, constant):
        # recorded when the panel first read the lattice
        assert muckenhoupt_panel((exponent,))[0].constant == constant
