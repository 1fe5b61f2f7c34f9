import math

import pytest
from scipy import integrate

from degenash.analysis import (
    Verdict,
    coercivity_check,
    coercivity_delta,
    coercivity_margin,
    convergence_study,
    embedding_study,
    energy_estimate_study,
    muckenhoupt_study,
    stabilized_form_value,
    strict_inclusion_demo,
)
from degenash.fields import named_field
from degenash.grid import GridFunction, build_grid
from degenash.norms import l2_weighted_norm, norms_of
from degenash.operators import assemble, solve_dirichlet


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


class TestEnergyStudy:
    def test_scaling_invariance(self):
        # ratio_0 is the study's ratio for x**alpha sin(pi y); 3.7 times
        # that forcing gives the same ratio
        levels = [8, 16]
        r = energy_estimate_study(levels, alpha=0.5)
        for level, ratio in zip(levels, r.metrics["ratio_0"]):
            g = build_grid(level, level, 0.5)
            f = named_field(g, "xalpha_siny", 3.7)
            u, _ = solve_dirichlet(assemble(g), f)
            assert abs(norms_of(u).w11 / l2_weighted_norm(f) - ratio) <= 1e-10 * ratio

    def test_no_levels_rejected(self):
        with pytest.raises(ValueError, match="levels"):
            energy_estimate_study([], alpha=0.5)

    def test_one_level_rejected(self):
        # one level compares its ratio with itself and could only pass
        with pytest.raises(ValueError, match="levels"):
            energy_estimate_study([16], alpha=0.5)

    def test_default_family_bounded_small(self):
        r = energy_estimate_study([16, 32, 64], alpha=0.5)
        assert len(r.metrics) == 5
        assert all(math.isfinite(v) for series in r.metrics.values() for v in series)
        assert r.verdict is Verdict.PASS


class TestCoercivity:
    def test_requires_positive_theta(self):
        with pytest.raises(ValueError):
            coercivity_check(0.0, 5, seed=1)

    @pytest.mark.parametrize("theta", [-1.0, math.nan])
    def test_form_value_rejects_bad_theta(self, small_grid, theta):
        v = GridFunction.from_callable(small_grid, lambda X, Y: X * (1 - X) * Y * (1 - Y))
        with pytest.raises(ValueError, match="theta"):
            stabilized_form_value(v, theta)

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError, match="n_samples"):
            coercivity_check(1.0, 0, seed=1, nx=12, ny=12)

    @pytest.mark.parametrize("theta", [math.nan, math.inf])
    def test_nonfinite_theta_rejected(self, theta):
        with pytest.raises(ValueError, match="finite"):
            coercivity_check(theta, 5, seed=1, nx=12, ny=12)

    def test_nan_margin_counts_as_violation(self, monkeypatch):
        import degenash.analysis as analysis

        monkeypatch.setattr(analysis, "coercivity_margin", lambda v, theta, mu: math.nan)
        r = coercivity_check(1.0, 4, seed=2, nx=12, ny=12)
        assert r.metrics["violations"] == [4.0]
        assert r.verdict is Verdict.FAIL

    def test_golden_min_margin(self):
        r = coercivity_check(1.0, 20, seed=2, nx=24, ny=24)
        assert r.metrics["min_margin"] == [0.18998597104966225]

    def test_small_run_no_violations(self):
        r = coercivity_check(1.0, 20, seed=2, nx=24, ny=24)
        assert r.metrics["violations"] == [0.0]
        assert r.verdict is Verdict.PASS
        assert min(r.samples["margin"]) >= 0.0

    def test_margin_scale_invariant(self):
        g = build_grid(24, 24, 0.5)
        v = GridFunction.from_callable(g, lambda X, Y: X * (1 - X) * Y * (1 - Y))
        m1 = coercivity_margin(v, 1.0, 0.1)
        m2 = coercivity_margin(6.0 * v, 1.0, 0.1)
        assert m2 == pytest.approx(m1, rel=1e-10)

    def test_zero_field_margin_zero(self):
        g = build_grid(10, 10, 0.5)
        assert coercivity_margin(GridFunction.zeros(g), 1.0, 0.1) == 0.0

    def test_deterministic(self):
        a = coercivity_check(1.0, 10, seed=7, nx=16, ny=16)
        b = coercivity_check(1.0, 10, seed=7, nx=16, ny=16)
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

    def test_single_level_inconclusive(self):
        r = strict_inclusion_demo([64])
        assert r.verdict is Verdict.INCONCLUSIVE

    def test_no_levels_rejected(self):
        with pytest.raises(ValueError, match="levels"):
            strict_inclusion_demo([])

    def test_alpha_one_report_only(self):
        r = strict_inclusion_demo([16, 32, 64], alpha=1.0)
        assert r.verdict is Verdict.INCONCLUSIVE
        assert len(r.metrics["w11"]) == 3

    def test_trend_small_levels(self):
        r = strict_inclusion_demo([16, 32, 64])
        assert r.verdict is Verdict.PASS
        dy = r.metrics["dy_l2"]
        assert dy[0] < dy[1] < dy[2]


class TestEmbeddingStudy:
    def test_small_family(self):
        r = embedding_study(levels=(24, 48), n_samples=20, seed=5)
        assert r.verdict is Verdict.PASS
        for series in r.metrics.values():
            assert series[-1] <= 1.1 * series[0]

    @pytest.mark.parametrize("name, value", [("levels", ()), ("q_values", ()), ("n_samples", 0), ("levels", (16,))])
    def test_nothing_to_check_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            embedding_study(**{"levels": (8, 16), "n_samples": 4, name: value})

    @pytest.mark.parametrize("q_values", [(2, 2), (2, 2.0000001)])
    def test_q_values_sharing_a_metric_rejected_before_any_work(self, monkeypatch, q_values):
        # both give the series max_ratio_q2
        import degenash.analysis as analysis

        monkeypatch.setattr(analysis, "bump_parameter_sets", lambda *args: pytest.fail("sampled bumps"))
        with pytest.raises(ValueError, match="q_values"):
            embedding_study(levels=(8, 16), q_values=q_values, n_samples=4)

    def test_ratios_positive(self):
        r = embedding_study(levels=(16, 32), n_samples=5, seed=1)
        assert all(v > 0 for s in r.metrics.values() for v in s)


class TestMuckenhouptStudy:
    def test_panel(self):
        r = muckenhoupt_study(n_balls=200, seed=7)
        assert r.verdict is Verdict.PASS
        assert r.samples["diverged"] == [0.0, 0.0, 1.0]
