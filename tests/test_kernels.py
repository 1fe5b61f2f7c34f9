"""The flat in-place kernels against the plain formulas they replaced, bit
for bit, and their peak allocation.

Each reference below is the formula the kernel computed before it worked
in place on flat buffers, written out with numpy's plain operators; the
kernels must reproduce it to the last bit, -0.0 included.  The one
exception is lq_norm at a whole q other than 1 and 2: its reference is
the product it forms (ref_power), and a second test holds it near the
pow formula.
"""

import collections
import math
import re

import numpy as np
import pytest

import degenash.grid as grid
import degenash.norms as norms
import degenash.operators as operators
from conftest import peak_bytes, random_field
from degenash.fields import _FIELDS, FIELD_KINDS, bump_from_parameters, bump_parameter_sets, named_field
from degenash.analysis import coercivity_check
from degenash.grid import DegenerateWeightWarning, GridFunction, _cell_sums, _quadrature, build_grid, cell_weights, weighted_inner
from degenash.norms import lq_norm, norms_of
from degenash.operators import _apply, assemble, dx, dy, solve_dirichlet
from test_golden_tables import _run
from test_grid import SHAPES

KERNEL_SHAPES = SHAPES + [(2, 2), (2, 9), (9, 2)]


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def signed_zero_field(g, seed):
    """Random values with an exact +0.0 row, a -0.0 column and scattered
    -0.0 entries."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((g.nx, g.ny))
    v[rng.random((g.nx, g.ny)) < 0.2] = -0.0
    v[rng.integers(g.nx), :] = 0.0
    v[:, rng.integers(g.ny)] = -0.0
    return GridFunction(g, v)


def ref_averages(u):
    g = u.grid
    padded = np.zeros((g.nx + 2, g.ny + 2))
    padded[1:-1, 1:-1] = u.values2d()
    return 0.25 * (padded[:-1, :-1] + padded[1:, :-1] + padded[:-1, 1:] + padded[1:, 1:])


def ref_weights(g, exponent, y_weight=None):
    w = np.broadcast_to(g.hx * g.hy * np.power(g.xc, exponent)[:, None], (g.nx + 1, g.ny + 1))
    return w if y_weight is None else w * np.asarray(y_weight(g.yc))[None, :]


def ref_inner(u, v, exponent, y_weight=None):
    return float(np.sum(ref_weights(u.grid, exponent, y_weight) * (ref_averages(u) * ref_averages(v))))


def ref_dy(u):
    v, h = u.values2d(), u.grid.hy
    out = np.empty_like(v)
    out[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / (2.0 * h)
    out[:, 0] = (v[:, 1] - v[:, 0]) / h
    out[:, -1] = (v[:, -1] - v[:, -2]) / h
    return out.reshape(u.grid.n)


def ref_power(a, q):
    """|a|**q as lq_norm forms it: the products below for a whole q, one
    pow per entry for any other q."""
    products = {
        3.0: lambda: (a * a) * np.abs(a),
        4.0: lambda: (a * a) * (a * a),
        5.0: lambda: ((a * a) * (a * a)) * np.abs(a),
        6.0: lambda: ((a * a) * a) * ((a * a) * a),
    }
    return products[q]() if q in products else np.abs(a) ** q


def ref_apply(g, values):
    """The 5-point stencil summed from 0.0 in the matrix's row order."""
    x_step, y_step = 1 / (2.0 * g.hx * g.hx), 1 / g.hy
    c = (g.x**g.alpha)[:, None]
    u = values.reshape(g.nx, g.ny)
    out = np.zeros_like(u)
    out[1:] += -1.0 * x_step * u[:-1]
    out[:, 1:] += c * (-1.0 * y_step) * u[:, :-1]
    out += (2.0 * x_step + c * y_step) * u
    out[:-1] += -1.0 * x_step * u[1:]
    return out.reshape(g.n)


class TestBitForBit:
    @pytest.mark.parametrize("nx,ny", KERNEL_SHAPES)
    @pytest.mark.parametrize("exponent", [-0.5, 0.0, 0.5])
    def test_weighted_inner(self, nx, ny, exponent):
        g = build_grid(nx, ny, 0.5)
        u, v = signed_zero_field(g, nx), signed_zero_field(g, ny + 100)
        yw = lambda y: np.exp(-1.5 * y)
        assert _bits(_cell_sums(u)) == _bits(ref_averages(u))
        assert weighted_inner(u, u, exponent) == ref_inner(u, u, exponent)
        assert weighted_inner(u, v, exponent) == ref_inner(u, v, exponent)
        assert weighted_inner(u, v, exponent, theta=1.5) == ref_inner(u, v, exponent, yw)
        assert weighted_inner(u, u, exponent, theta=1.5) == ref_inner(u, u, exponent, yw)

    @pytest.mark.parametrize("nx,ny", KERNEL_SHAPES)
    @pytest.mark.parametrize("q", [1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0])
    def test_lq_norm(self, nx, ny, q):
        g = build_grid(nx, ny, 0.5)
        u = signed_zero_field(g, nx * ny)
        ref = float(np.sum(ref_weights(g, 0.0) * ref_power(ref_averages(u), q)) ** (1.0 / q))
        assert lq_norm(u, q) == ref

    @pytest.mark.parametrize("nx,ny", KERNEL_SHAPES)
    @pytest.mark.parametrize("q", [3.0, 4.0, 5.0])
    def test_lq_norm_whole_q_stays_near_the_pow_formula(self, nx, ny, q):
        g = build_grid(nx, ny, 0.5)
        u = signed_zero_field(g, nx * ny)
        pow_ref = float(np.sum(ref_weights(g, 0.0) * np.abs(ref_averages(u)) ** q) ** (1.0 / q))
        assert lq_norm(u, q) == pytest.approx(pow_ref, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("nx,ny", KERNEL_SHAPES)
    def test_dy(self, nx, ny):
        g = build_grid(nx, ny, 0.5)
        u = signed_zero_field(g, nx + 7 * ny)
        assert _bits(dy(u).values) == _bits(ref_dy(u))

    @pytest.mark.parametrize("nx,ny", KERNEL_SHAPES)
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_apply(self, nx, ny, alpha):
        g = build_grid(nx, ny, alpha)
        for u in (signed_zero_field(g, nx * ny + 1), GridFunction(g, np.full(g.n, -0.0)), GridFunction.zeros(g)):
            got = _apply(g, u.values)
            assert _bits(got) == _bits(ref_apply(g, u.values))
            assert _bits(got) == _bits(assemble(g).matrix @ u.values)

    @pytest.mark.parametrize("nx,ny", KERNEL_SHAPES)
    def test_solve_dirichlet_residual(self, nx, ny):
        g = build_grid(nx, ny, 0.5)
        f = signed_zero_field(g, 3 * nx + ny)
        u, report = solve_dirichlet(g, f)
        r = ref_apply(g, u.values) - f.values
        assert report.residual_norm == math.sqrt(float(np.sum(r * r)))

    @pytest.mark.parametrize("kind", FIELD_KINDS)
    @pytest.mark.parametrize("amplitude", [-0.7, 0.0, -0.0])
    def test_named_field_builds_one_gridfunction(self, kind, amplitude, monkeypatch):
        g = build_grid(9, 7, 0.5)
        unit = GridFunction.from_callable(g, lambda X, Y: _FIELDS[kind](X, Y, g.alpha))
        built = []
        post_init = GridFunction.__post_init__
        monkeypatch.setattr(GridFunction, "__post_init__", lambda self: built.append(1) or post_init(self))
        got = named_field(g, kind, amplitude)
        assert len(built) == 1
        assert _bits(got.values) == _bits(unit.values * float(amplitude))


class TestComputedOnce:
    # a field's derivatives and norms are computed on the first call and
    # handed back after: the kept result is the one a fresh field computes
    @pytest.mark.parametrize("nx,ny", KERNEL_SHAPES)
    @pytest.mark.parametrize("make", [random_field, signed_zero_field])
    def test_kept_results_keep_their_bits(self, nx, ny, make):
        g = build_grid(nx, ny, 0.5)
        u = make(g, nx * ny)
        for _ in range(2):
            fresh = GridFunction(g, u.values.copy())
            for diff in (dx, dy):
                assert _bits(diff(u).values) == _bits(diff(fresh).values)
            assert _bits(dx(dy(u)).values) == _bits(dx(dy(fresh)).values)
            for mixed in (False, True):
                assert repr(norms_of(u, mixed)) == repr(norms_of(fresh, mixed))

    # a self-pairing with exponent > -1 is kept as the float it returned
    @pytest.mark.parametrize("exponent", [0.0, 0.5, -0.5])
    @pytest.mark.parametrize("theta", [0.0, 1.5])
    def test_self_pairing_is_kept(self, exponent, theta, monkeypatch):
        g = build_grid(9, 7, 0.5)
        u = signed_zero_field(g, 3)
        first = weighted_inner(u, u, exponent, theta)
        runs = []
        monkeypatch.setattr(grid, "_cell_sums", lambda f: runs.append(f) or _cell_sums(f))
        assert weighted_inner(u, u, exponent, theta) is first
        assert runs == []
        fresh = GridFunction(g, u.values.copy())
        assert repr(weighted_inner(fresh, fresh, exponent, theta)) == repr(first)
        assert runs == [fresh]

    # the input rules hold on every call: True would find 1.0's kept pairing
    def test_kept_pairing_still_checks_its_exponent(self):
        u = signed_zero_field(build_grid(9, 7, 0.5), 5)
        weighted_inner(u, u, 1.0)
        with pytest.raises(ValueError, match="exponent"):
            weighted_inner(u, u, True)

    # a non-integrable weight is paired, and warns, on every call
    def test_non_integrable_self_pairing_warns_every_call(self):
        g = build_grid(9, 7, 0.5)
        u = GridFunction(g, np.ones(g.n))
        for _ in range(2):
            with pytest.warns(DegenerateWeightWarning) as record:
                weighted_inner(u, u, -1.0)
            assert [w.filename for w in record] == [__file__]

    def test_l2_norm_reads_the_kept_pairing(self, monkeypatch):
        g = build_grid(9, 7, 0.5)
        u = signed_zero_field(g, 4)
        norms_of(u)
        runs = []
        counted = lambda f: runs.append(f) or _cell_sums(f)
        monkeypatch.setattr(grid, "_cell_sums", counted)
        monkeypatch.setattr(norms, "_cell_sums", counted)
        assert lq_norm(u, 2.0) == float(np.sum(ref_weights(g, 0.0) * np.abs(ref_averages(u)) ** 2.0) ** 0.5)
        assert runs == []

    def test_coercivity_check_repeats_itself(self):
        runs = [coercivity_check(4, seed=2, nx=12, ny=12) for _ in range(2)]
        assert repr(runs[0]) == repr(runs[1])


# Runs of the difference kernel and of the cell averages per shipped
# config.  Computing each field's derivatives, norms and self-pairings
# once keeps them this low: recomputed on every call, coercivity,
# embedding, inclusion and verify (then with ten test functions) made 1400,
# 1200, 15 and 140 difference runs, and coercivity and embedding 1800 and
# 2400 cell-average runs; with
# the norms kept but not the self-pairings, coercivity made 1600 and
# embedding 1200 cell-average runs.
KERNEL_RUNS = {
    "study_coercivity": (600, 1200),
    "study_convergence": (0, 0),
    "study_embedding": (400, 1000),
    "study_energy": (40, 80),
    "study_inclusion": (10, 20),
    "study_muckenhoupt": (0, 0),
    "verify_weak_form": (58, 216),
}


@pytest.mark.parametrize("name", KERNEL_RUNS)
def test_kernel_runs_per_shipped_config(name, tmp_path, monkeypatch):
    runs = collections.Counter()

    def counted(kernel, fn):
        def run(*args, **kwargs):
            runs[kernel] += 1
            return fn(*args, **kwargs)

        return run

    monkeypatch.setattr(operators, "_diff_along", counted("diff", operators._diff_along))
    cell_sums = counted("cells", grid._cell_sums)
    monkeypatch.setattr(grid, "_cell_sums", cell_sums)
    monkeypatch.setattr(norms, "_cell_sums", cell_sums)
    _run(tmp_path, name)
    assert (runs["diff"], runs["cells"]) == KERNEL_RUNS[name]


class TestRejectsNonFiniteWeights:
    @pytest.mark.parametrize("exponent", [math.inf, -math.inf, math.nan])
    def test_exponent(self, exponent):
        g = build_grid(8, 8, 0.5)
        one = GridFunction(g, np.ones(g.n))
        with pytest.raises(ValueError, match="exponent"):
            weighted_inner(one, one, exponent)
        with pytest.raises(ValueError, match="exponent"):
            cell_weights(g, exponent)

    # the y-weight exp(-theta*y) takes theta by FINITE_NONNEGATIVE
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
    def test_y_weight(self, bad):
        g = build_grid(8, 8, 0.5)
        one = GridFunction(g, np.ones(g.n))
        text = re.escape("theta must be finite and nonnegative, got")
        with pytest.raises(ValueError, match=text):
            weighted_inner(one, one, 0.5, bad)
        with pytest.raises(ValueError, match=text):
            cell_weights(g, 0.5, bad)


class TestThetaZero:
    # theta = 0 (either sign) is no y-weight: the shared weights, and the
    # unweighted pairing's bits
    @pytest.mark.parametrize("exponent", [0.0, 0.5])
    def test_is_the_unweighted_pairing(self, exponent):
        g = build_grid(9, 7, 0.5)
        u, v = signed_zero_field(g, 1), signed_zero_field(g, 2)
        for theta in (0.0, -0.0):
            for a, b in ((u, u), (u, v)):
                assert repr(weighted_inner(a, b, exponent, theta)) == repr(weighted_inner(a, b, exponent))
            assert cell_weights(g, exponent, theta) is cell_weights(g, exponent)


# Peak traced allocation at 128^2 of the kernels before they worked in
# place, in arrays of (nx+1)(ny+1) cells or of nx*ny nodes (8 bytes each),
# rounded down to two decimals so that the old kernels fail the bound.
PARENT_PEAKS_IN_CELLS = {
    "cell_averages": 3.00,
    "quadrature": 1.98,
    "self_pairing": 3.00,
    "pairing": 4.49,
    "y_weighted": 5.00,
    "lq_norm_q3": 3.00,
    "lq_norm_q4": 2.99,
    "norms_of": 4.98,
}
PARENT_PEAKS_IN_NODES = {
    "dy": 2.51,
    "apply": 3.53,
    "solve_dirichlet": 5.53,
    # the factor-form bump's own peak (2.2045), rounded up; the 2-D form reads 2.52
    "bump": 2.21,
    "named_field": 2.13,
}


@pytest.fixture(scope="module")
def at_128():
    g = build_grid(128, 128, 0.5)
    rng = np.random.default_rng(0)
    u, v = (GridFunction(g, rng.standard_normal(g.n)) for _ in range(2))
    return g, u, v


class TestPeakAllocation:
    @pytest.mark.parametrize("name", PARENT_PEAKS_IN_CELLS)
    def test_quadrature_kernels(self, name, at_128):
        g, u, v = at_128
        cells = _cell_sums(u)
        fn = {
            "cell_averages": lambda: _cell_sums(u),
            # the weighted product alone, in a cell array made beforehand
            "quadrature": lambda: _quadrature(cell_weights(g, 0.5), cells),
            # a fresh field, so that the second call computes: u's own memo
            # would hand back its first result
            "self_pairing": lambda: (lambda w: weighted_inner(w, w, 0.5))(GridFunction(g, u.values)),
            "pairing": lambda: weighted_inner(u, v, 0.5),
            "y_weighted": lambda: weighted_inner(u, v, 0.5, theta=1.0),
            "lq_norm_q3": lambda: lq_norm(u, 3.0),
            "lq_norm_q4": lambda: lq_norm(u, 4.0),
            "norms_of": lambda: norms_of(GridFunction(g, u.values)),
        }[name]
        assert peak_bytes(fn) / (8 * (g.nx + 1) * (g.ny + 1)) < PARENT_PEAKS_IN_CELLS[name]

    @pytest.mark.parametrize("name", PARENT_PEAKS_IN_NODES)
    def test_nodal_kernels(self, name, at_128):
        g, u, _ = at_128
        f = named_field(g, "sinsin")
        params = bump_parameter_sets(1, seed=3)[0]
        fn = {
            "dy": lambda: dy(GridFunction(g, u.values)),
            "apply": lambda: _apply(g, u.values),
            "solve_dirichlet": lambda: solve_dirichlet(g, f),
            "bump": lambda: bump_from_parameters(g, params),
            "named_field": lambda: named_field(g, "sinsin", -0.7),
        }[name]
        assert peak_bytes(fn) / (8 * g.n) < PARENT_PEAKS_IN_NODES[name]


# the flat row layout stays inside _cell_sums: callers get the cells alone
def test_cell_sums_return_one_contiguous_cell_array():
    g = build_grid(5, 4, 0.5)
    cells = _cell_sums(signed_zero_field(g, 1))
    assert cells.shape == (g.nx + 1, g.ny + 1)
    assert cells.flags.c_contiguous and cells.flags.owndata
