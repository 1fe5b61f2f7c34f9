import math
import warnings

import numpy as np
import pytest
from scipy import integrate

import degenash.analysis as analysis
from conftest import peak_bytes
from degenash.analysis import (
    _ENERGY_FAMILY,
    StudyResult,
    Verdict,
    coercivity_check,
    coercivity_delta,
    convergence_study,
    embedding_study,
    energy_estimate_study,
    muckenhoupt_study,
    observed_orders,
    stabilized_form_value,
    strict_inclusion_demo,
    w11_exact,
)
from degenash.fields import bump_from_parameters, bump_parameter_sets, named_field
from degenash.grid import FINITE_POSITIVE, DegenerateWeightWarning, GridFunction, build_grid
from degenash.norms import EMBEDDING_Q, embedding_ratio, l2_weighted_norm, norms_of
from degenash.operators import solve_dirichlet


class TestConvergenceStudy:
    def test_needs_three_levels(self):
        with pytest.raises(ValueError):
            convergence_study([16, 32])

    def test_upwind_first_order(self):
        r = convergence_study([8, 16, 32], alpha=0.5)
        assert r.observed_orders[-1] >= 0.8
        assert r.verdict is Verdict.FAIL or r.verdict is Verdict.PASS

    def test_polynomial_manufactured_upwind_order_one(self):
        # diffusion part exact under centered x-differencing, so the error
        # is pure y-scheme: first order for upwind
        r = convergence_study([8, 16, 32], manufactured="poly", alpha=0.5)
        assert all(e > 0 for e in r.metrics["l2_err"])
        assert 0.8 <= r.observed_orders[-1] <= 1.2

    def test_errors_decrease(self):
        r = convergence_study([8, 16, 32], alpha=1.0)
        errs = r.metrics["l2_err"]
        assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("levels, errs", [([8, 16, 32], [0.1, 0.05]), ([8, 16], [0.1, 0.05, 0.025])])
def test_observed_orders_needs_one_error_per_level(levels, errs):
    # zip would read one order from either and drop the rest
    with pytest.raises(ValueError, match=f"got {len(levels)} levels and {len(errs)} errors$"):
        observed_orders(levels, errs)


@pytest.mark.parametrize(
    "study, levels",
    [
        (convergence_study, [16, 16, 32]),
        (convergence_study, [64, 32, 16]),
        (energy_estimate_study, [32, 32]),
        (embedding_study, [32, 32]),
    ],
    ids=["convergence-repeated", "convergence-falling", "energy", "embedding"],
)
def test_levels_must_strictly_increase(study, levels):
    with pytest.raises(ValueError, match="levels must be a strictly increasing list"):
        study(levels, alpha=0.5)


class TestEnergyStudy:
    def test_scaling_invariance(self):
        # ratio_0 is the study's ratio for x**alpha sin(pi y); 3.7 times
        # that forcing gives the same ratio
        levels = [8, 16]
        r = energy_estimate_study(levels, alpha=0.5)
        for level, ratio in zip(levels, r.metrics["ratio_0"]):
            g = build_grid(level, level, 0.5)
            f = named_field(g, "xalpha_siny", 3.7)
            u, _ = solve_dirichlet(g, f)
            assert abs(norms_of(u).w11 / l2_weighted_norm(f) - ratio) <= 1e-10 * ratio

    def test_no_levels_rejected(self):
        with pytest.raises(ValueError, match="levels"):
            energy_estimate_study([], alpha=0.5)

    def test_one_level_rejected(self):
        # one level compares its ratio with itself and could only pass
        with pytest.raises(ValueError, match="levels"):
            energy_estimate_study([16], alpha=0.5)

    def test_data_norms_at_alpha_one(self):
        # each forcing term is zero or O(x) at x = 0, so its x**-1 data norm
        # is finite and its changes per level shrink by 1/2 to 1/4; the
        # constant field's norm grows without bound, its changes do not
        # shrink, and it still warns
        grids = [build_grid(n, n, 1.0) for n in (16, 32, 64, 128, 256)]
        for gen in [*_ENERGY_FAMILY, lambda g: named_field(g, "one")]:
            with warnings.catch_warnings(action="ignore", category=DegenerateWeightWarning):
                steps = np.abs(np.diff([l2_weighted_norm(gen(g)) for g in grids]))
            shrink = steps[1:] / steps[:-1]
            assert all(shrink <= 0.55) if gen in _ENERGY_FAMILY else all(shrink >= 0.85)
        with pytest.warns(DegenerateWeightWarning):
            l2_weighted_norm(named_field(grids[0], "one"))

    def test_no_warning_at_alpha_one(self):
        # pytest makes every warning an error, so a false DegenerateWeightWarning fails this
        assert energy_estimate_study([16, 32], alpha=1.0).verdict is Verdict.PASS

    def test_default_family_bounded_small(self):
        r = energy_estimate_study([16, 32, 64], alpha=0.5)
        assert len(r.metrics) == 5
        assert all(math.isfinite(v) for series in r.metrics.values() for v in series)
        assert r.verdict is Verdict.PASS


class TestCoercivity:
    @pytest.mark.parametrize("theta", [-1.0, math.nan, math.inf])
    def test_form_value_rejects_bad_theta(self, small_grid, theta):
        v = GridFunction.from_callable(small_grid, lambda X, Y: X * (1 - X) * Y * (1 - Y))
        with pytest.raises(ValueError, match="theta"):
            stabilized_form_value(v, theta)

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError, match="n_samples"):
            coercivity_check(0, seed=1, nx=12, ny=12)

    def test_nan_margin_counts_as_violation(self, monkeypatch):
        import degenash.analysis as analysis

        # a NaN form value gives a NaN margin
        monkeypatch.setattr(analysis, "stabilized_form_value", lambda v, theta: math.nan)
        r = coercivity_check(4, seed=2, nx=12, ny=12)
        assert r.metrics["violations"] == [4.0]
        assert r.verdict is Verdict.FAIL

    def test_nan_at_a_later_position_is_kept(self, monkeypatch):
        # Python's min and max drop a NaN that is not first
        import degenash.analysis as analysis

        form_values = iter([1.0, math.nan, 2.0])
        monkeypatch.setattr(analysis, "stabilized_form_value", lambda v, theta: next(form_values))
        r = coercivity_check(3, seed=2, nx=12, ny=12)
        margins = r.samples["margin"]
        assert math.isfinite(margins[0]) and math.isnan(margins[1]) and math.isfinite(margins[2])
        assert math.isnan(r.metrics["min_margin"][0])
        assert r.verdict is Verdict.FAIL

    def test_nan_poincare_sample_is_kept_and_fails(self, monkeypatch):
        # the second sample's ||v||^2 is NaN, so its ratio is NaN
        import degenash.analysis as analysis

        calls = []
        inner = analysis.weighted_inner

        def nan_third(*args, **kwargs):
            calls.append(1)
            return math.nan if len(calls) == 3 else inner(*args, **kwargs)

        monkeypatch.setattr(analysis, "weighted_inner", nan_third)
        r = coercivity_check(3, seed=2, nx=12, ny=12)
        assert math.isnan(r.samples["mu_sample"][1]) and math.isfinite(r.samples["mu_sample"][0])
        assert math.isnan(r.metrics["mu_h"][0]) and math.isnan(r.metrics["delta_h"][0])
        assert r.verdict is Verdict.FAIL

    def test_delta_keeps_a_nan_mu(self):
        assert math.isnan(coercivity_delta(1.0, math.nan))
        assert coercivity_delta(1.0, 0.1) == min(math.exp(-1.0), math.exp(-1.0) / 8.0, math.exp(-1.0) / 0.8)

    def test_theta_is_finite_and_positive(self):
        # the lemma's delta is theta e**-theta / 8 at most: zero at theta = 0
        assert FINITE_POSITIVE.holds(analysis.THETA)

    @pytest.mark.parametrize("theta", [0.5, 2.0])
    def test_check_reads_theta(self, monkeypatch, theta):
        # the lemma holds at any theta > 0; the check weighs its form and
        # its delta_h by the constant and echoes it
        thetas = []

        def form_value(v, t):
            thetas.append(t)
            return stabilized_form_value(v, t)

        monkeypatch.setattr(analysis, "THETA", theta)
        monkeypatch.setattr(analysis, "stabilized_form_value", form_value)
        r = coercivity_check(6, seed=2, nx=16, ny=16)
        assert set(thetas) == {theta} and r.thresholds["theta"] == theta
        assert r.metrics["delta_h"] == [coercivity_delta(theta, r.metrics["mu_h"][0])]
        assert r.verdict is Verdict.PASS

    def test_golden_min_margin(self):
        r = coercivity_check(20, seed=2, nx=24, ny=24)
        assert r.metrics["min_margin"] == [0.18998597104966217]

    def test_small_run_no_violations(self):
        r = coercivity_check(20, seed=2, nx=24, ny=24)
        assert r.metrics["violations"] == [0.0]
        assert r.verdict is Verdict.PASS
        assert min(r.samples["margin"]) >= 0.0

    def test_margin_scale_invariant(self, monkeypatch):
        # the check's two bumps are v and 6 v, judged by one delta_h
        import degenash.analysis as analysis

        g = build_grid(24, 24, 0.5)
        v = GridFunction.from_callable(g, lambda X, Y: X * (1 - X) * Y * (1 - Y))
        bumps = iter([v, 6.0 * v])
        monkeypatch.setattr(analysis, "bump_from_parameters", lambda grid, p: next(bumps))
        m1, m2 = coercivity_check(2, seed=2, nx=24, ny=24).samples["margin"]
        assert m2 == pytest.approx(m1, rel=1e-10)

    def test_zero_field_fails_in_the_poincare_sample(self, monkeypatch):
        # a field of zero W11 norm has ||v||^2 = ||v_x||^2 = 0.0, so its
        # Poincare sample raises before any margin divides by that norm
        import degenash.analysis as analysis

        monkeypatch.setattr(analysis, "bump_from_parameters", lambda grid, p: GridFunction.zeros(grid))
        with pytest.raises(ZeroDivisionError):
            coercivity_check(3, seed=2, nx=10, ny=10)

    def test_deterministic(self):
        a = coercivity_check(10, seed=7, nx=16, ny=16)
        b = coercivity_check(10, seed=7, nx=16, ny=16)
        assert a.metrics == b.metrics and a.samples == b.samples

    def test_polynomial_form_value_against_quadrature_oracle(self):
        # independent adaptive-quadrature evaluation of
        # a(v,v) = integral of [x^a v_y^2 + 1/2 v_x (v_x)_y] e^(-y)
        # for v = x(1-x)y(1-y), alpha = 1/2, theta = 1
        theta, alpha = 1.0, 0.5

        def integrand(y, x):
            vy = x * (1 - x) * (1 - 2 * y)
            vx = (1 - 2 * x) * y * (1 - y)
            vxy = (1 - 2 * x) * (1 - 2 * y)
            return (x**alpha * vy**2 + 0.5 * vx * vxy) * math.exp(-theta * y)

        exact, _ = integrate.dblquad(integrand, 0, 1, 0, 1, epsabs=1e-12)
        errs = []
        for n in (24, 48, 96):
            g = build_grid(n, n, alpha)
            v = GridFunction.from_callable(g, lambda X, Y: X * (1 - X) * Y * (1 - Y))
            errs.append(abs(stabilized_form_value(v, theta) - exact) / exact)
        # first-order consistency toward the adaptive-quadrature value
        assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.4)
        assert errs[1] / errs[2] == pytest.approx(2.0, abs=0.4)
        assert errs[-1] < 0.06
        # the coercivity inequality holds for this closed-form sample
        from degenash.norms import norms_of
        from degenash.grid import weighted_inner
        from degenash.operators import dx

        g = build_grid(48, 48, alpha)
        v = GridFunction.from_callable(g, lambda X, Y: X * (1 - X) * Y * (1 - Y))
        dxv = dx(v)
        mu = 1.5 * weighted_inner(v, v, 0.0) / weighted_inner(dxv, dxv, 0.0)
        assert stabilized_form_value(v, theta) >= coercivity_delta(theta, mu) * norms_of(v).w11 ** 2


class TestStrictInclusion:
    def test_requires_increasing_levels(self):
        with pytest.raises(ValueError):
            strict_inclusion_demo([32, 16])

    def test_single_level_rejected(self):
        # one level has no refinement step to check
        with pytest.raises(ValueError, match="levels"):
            strict_inclusion_demo([64])

    def test_no_levels_rejected(self):
        with pytest.raises(ValueError, match="levels"):
            strict_inclusion_demo([])

    def test_trend_small_levels(self):
        r = strict_inclusion_demo([16, 32, 64])
        assert r.verdict is Verdict.PASS
        dy = r.metrics["dy_l2"]
        assert dy[0] < dy[1] < dy[2]

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.75, 1.0])
    def test_w11_exact_is_the_1d_integral(self, alpha):
        # W11^2 of (x^2+y)^(1/4), with the y-integrals done in closed form,
        # by a plain quad of the unsplit integrand
        def integrand(x):
            return (2 / 3) * ((1 + x**2) ** 1.5 - x**3) + 2 * (x**2 / 4 + x**alpha / 16) * (
                1 / x - (1 + x**2) ** -0.5
            )

        w11_sq, _ = integrate.quad(integrand, 0, 1)
        assert w11_exact(alpha) == pytest.approx(math.sqrt(w11_sq), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0, 0.0, -0.5, 1.5, math.nan, math.inf, True])
    def test_alpha_outside_the_rule_rejected_before_any_level(self, monkeypatch, alpha):
        import degenash.analysis as analysis

        with pytest.raises(ValueError, match="alpha"):
            w11_exact(alpha)
        monkeypatch.setattr(analysis, "build_grid", lambda *args: pytest.fail("built a level"))
        with pytest.raises(ValueError, match="alpha"):
            strict_inclusion_demo([16, 32], alpha=alpha)


class TestEmbeddingStudy:
    def test_small_family(self):
        r = embedding_study(levels=(24, 48), n_samples=20, seed=5)
        assert r.verdict is Verdict.PASS
        for series in r.metrics.values():
            assert series[-1] <= 1.1 * series[0]

    @pytest.mark.parametrize("name, value", [("levels", ()), ("n_samples", 0), ("levels", (16,))])
    def test_nothing_to_check_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            embedding_study(**{"levels": (8, 16), "n_samples": 4, name: value})

    def test_q_values_meet_the_embedding_rule_with_distinct_series(self):
        # q prints by %g in its series name, so two q that print alike would share one
        assert all(map(EMBEDDING_Q.holds, analysis.Q_VALUES))
        assert len({f"{q:g}" for q in analysis.Q_VALUES}) == len(analysis.Q_VALUES) > 0

    @pytest.mark.parametrize(
        "q_values, names", [((2.5,), ["max_ratio_q2.5"]), ((4.0, 2.0), ["max_ratio_q4", "max_ratio_q2"])],
    )
    def test_series_follow_q_values(self, monkeypatch, q_values, names):
        monkeypatch.setattr(analysis, "Q_VALUES", q_values)
        r = embedding_study(levels=(8, 16), n_samples=3, seed=1)
        assert list(r.metrics) == names
        grid = build_grid(16, 16, 0.5)
        bumps = [bump_from_parameters(grid, p) for p in bump_parameter_sets(3, 1)]
        for name, q in zip(names, q_values):
            assert r.metrics[name][1] == max(embedding_ratio(u, q) for u in bumps)

    def test_nan_ratio_at_a_later_position_is_kept(self, monkeypatch):
        ratio = analysis.embedding_ratio
        qs = []

        def nan_second_at_q2(u, q):
            qs.append(q)
            return math.nan if q == 2.0 and qs.count(2.0) == 2 else ratio(u, q)

        monkeypatch.setattr(analysis, "embedding_ratio", nan_second_at_q2)
        r = embedding_study(levels=(8, 16), n_samples=3, seed=1)
        assert math.isnan(r.metrics["max_ratio_q2"][0]) and math.isfinite(r.metrics["max_ratio_q2"][1])
        assert all(math.isfinite(v) for name in ("max_ratio_q3", "max_ratio_q4") for v in r.metrics[name])
        assert r.verdict is Verdict.FAIL

    def test_ratios_positive(self):
        r = embedding_study(levels=(16, 32), n_samples=5, seed=1)
        assert all(v > 0 for s in r.metrics.values() for v in s)


class TestMuckenhouptStudy:
    def test_panel(self):
        r = muckenhoupt_study()
        assert r.verdict is Verdict.PASS
        assert r.samples["diverged"] == [0.0, 0.0, 1.0]


class TestStudyResult:
    def test_sample_series_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match=r"'a': 2, 'b': 3"):
            StudyResult(levels=[8], verdict=Verdict.PASS, samples={"a": [1.0, 2.0], "b": [1.0, 2.0, 3.0]})


class TestOneSampleAtATime:
    """A sampled study holds one bump at a time: from 25 to 100 samples
    its traced peak grows by less than one bump at the finest level (the
    parameter sets and the per-sample scalars still grow)."""

    def test_embedding_study(self):
        peaks = [
            peak_bytes(lambda: embedding_study(levels=(8, 128), n_samples=n, seed=1))
            for n in (25, 100)
        ]
        assert peaks[1] - peaks[0] < 8 * 128 * 128

    def test_coercivity_check(self):
        peaks = [peak_bytes(lambda: coercivity_check(n, seed=1, nx=128, ny=128)) for n in (25, 100)]
        assert peaks[1] - peaks[0] < 8 * 128 * 128
