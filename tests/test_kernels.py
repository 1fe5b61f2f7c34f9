"""The flat in-place kernels against the plain formulas they replaced, bit
for bit, and their peak allocation.

Each reference below is the formula the kernel computed before it worked
in place on flat buffers, written out with numpy's plain operators; the
kernels must reproduce it to the last bit, -0.0 included.  The one
exception is lq_norm at q = 3 and q = 4: its reference is the product it
forms (ref_power), and a second test holds it, at every q, near the pow
formula.
"""

import itertools
import math
import re
import weakref

import numpy as np
import pytest

import degenash.analysis as analysis
import degenash.fields as fields
import degenash.grid as grid
import degenash.norms as norms
from conftest import load_script, peak_bytes, random_field
from degenash.fields import _FIELDS, BUMP_CHUNK, FIELD_KINDS, _window, bump_family, bumps, named_field
from degenash.analysis import coercivity_check
from degenash.grid import DegenerateWeightWarning, GridFunction, _cell_sums, _quadrature, build_grid, cell_weights, weighted_inner
from degenash.norms import lq_norm, norms_of
from degenash.operators import _apply, assemble, dx, dy, solve_dirichlet
from test_golden_tables import _run
from test_grid import SHAPES, bump_formula, full_grid

KERNEL_SHAPES = SHAPES + [(2, 2), (2, 9), (9, 2)]


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def signed_zero_field(g, seed):
    """Random values with an exact +0.0 y-row, a -0.0 x-column and
    scattered -0.0 entries."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((g.ny, g.nx))
    v[rng.random((g.ny, g.nx)) < 0.2] = -0.0
    v[rng.integers(g.ny), :] = 0.0
    v[:, rng.integers(g.nx)] = -0.0
    return GridFunction(g, v)


def count_cell_passes(monkeypatch):
    """The fields grid._cell_sums averages from now on, in call order."""
    runs = []
    monkeypatch.setattr(grid, "_cell_sums", lambda f: runs.append(f) or _cell_sums(f))
    return runs


def ref_averages(u):
    g = u.grid
    padded = np.zeros((g.ny + 2, g.nx + 2))
    padded[1:-1, 1:-1] = u.values2d()
    # corner, x-neighbour, y-neighbour, diagonal
    return 0.25 * (padded[:-1, :-1] + padded[:-1, 1:] + padded[1:, :-1] + padded[1:, 1:])


def ref_weights(g, exponent, y_weight=None):
    w = np.broadcast_to(g.hx * g.hy * np.power(g.xc, exponent)[None, :], (g.ny + 1, g.nx + 1))
    return w if y_weight is None else w * np.asarray(y_weight(g.yc))[:, None]


def ref_inner(u, v, exponent, y_weight=None):
    return float(np.sum(ref_weights(u.grid, exponent, y_weight) * (ref_averages(u) * ref_averages(v))))


def ref_dy(u):
    v, h = u.values2d(), u.grid.hy
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (v[1] - v[0]) / h
    out[-1] = (v[-1] - v[-2]) / h
    return out.reshape(u.grid.n)


def ref_power(a, q):
    """|a|**q as lq_norm forms it for q in Q_VALUES: |a|**2.0 is numpy's
    a * a, and q = 3 and 4 are the products below."""
    products = {
        2.0: lambda: a * a,
        3.0: lambda: (a * a) * np.abs(a),
        4.0: lambda: (a * a) * (a * a),
    }
    return products[q]()


def ref_bump(g, family, k):
    """Bump k of family as the sum of its Gaussians' outer products
    v_g (x) u_g, added one by one in the order of the Gaussians, from the
    same 1-D factors as fields.bump_factors."""
    x, y = g.x, g.y
    out = np.zeros((g.ny, g.nx))
    for (cx, cy), s, a in zip(family.centers[k], family.widths[k], family.amps[k]):
        q = -(2 * s * s)
        u = np.exp((x - cx) ** 2 / q) * _window(x)
        v = _window(y) * a * np.exp((y - cy) ** 2 / q)
        out += np.outer(v, u)
    return out


def ref_apply(g, values):
    """The 5-point stencil summed from 0.0 in the matrix's row order."""
    x_step, y_step = 1 / (2.0 * g.hx * g.hx), 1 / g.hy
    c = g.x**g.alpha
    u = values.reshape(g.ny, g.nx)
    out = np.zeros_like(u)
    out[1:] += c * (-1.0 * y_step) * u[:-1]  # south
    out[:, 1:] += -1.0 * x_step * u[:, :-1]  # west
    out += (2.0 * x_step + c * y_step) * u
    out[:, :-1] += -1.0 * x_step * u[:, 1:]  # east
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

    # the three norms come from one pass, whichever q is asked first
    @pytest.mark.parametrize("nx,ny", KERNEL_SHAPES)
    @pytest.mark.parametrize("order", list(itertools.permutations(norms.Q_VALUES)))
    def test_lq_norm(self, nx, ny, order):
        g = build_grid(nx, ny, 0.5)
        u = signed_zero_field(g, nx * ny)
        for q in order:
            assert lq_norm(u, q) == float(np.sum(ref_weights(g, 0.0) * ref_power(ref_averages(u), q)) ** (1.0 / q))
        assert weighted_inner(u, u, 0.0) == ref_inner(u, u, 0.0)

    @pytest.mark.parametrize("nx,ny", KERNEL_SHAPES)
    @pytest.mark.parametrize("q", norms.Q_VALUES)
    def test_lq_norm_whole_q_stays_near_the_pow_formula(self, nx, ny, q):
        g = build_grid(nx, ny, 0.5)
        u = signed_zero_field(g, nx * ny)
        pow_ref = float(np.sum(ref_weights(g, 0.0) * np.abs(ref_averages(u)) ** q) ** (1.0 / q))
        assert lq_norm(u, q) == pytest.approx(pow_ref, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("nx,ny", KERNEL_SHAPES)
    @pytest.mark.parametrize("q", norms.Q_VALUES)
    def test_embedding_ratio(self, nx, ny, q):
        g = build_grid(nx, ny, 0.5)
        u = signed_zero_field(g, nx + ny)
        ref = float(np.sum(ref_weights(g, 0.0) * ref_power(ref_averages(u), q)) ** (1.0 / q))
        assert norms.embedding_ratio(u, q) == ref / norms_of(u).w11

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

    @pytest.mark.parametrize("nx,ny", KERNEL_SHAPES)
    def test_bump_contraction(self, nx, ny):
        # one contraction over the Gaussians, equal to adding their outer
        # products one by one (np.array_equal: a zero may change sign)
        g = build_grid(nx, ny, 0.5)
        family = bump_family(5, seed=nx + 7 * ny)
        for k, bump in enumerate(bumps(g, family)):
            assert np.array_equal(bump.values2d(), ref_bump(g, family, k))

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


def uniform_stream(n, seed):
    """(centers, widths, amps) of n bumps drawn one bump at a time, each
    in turn by Generator.uniform: the stream a family must keep, bit for
    bit."""
    rng = np.random.default_rng(seed)
    return [
        (rng.uniform(0.25, 0.75, size=(4, 2)), rng.uniform(0.05, 0.2, size=4), rng.uniform(-1.0, 1.0, size=4))
        for _ in range(n)
    ]


class TestBumpFamily:
    # one draw and chunked factor passes, against each bump drawn and
    # formed alone

    @pytest.mark.parametrize("seed", [0, 3, 5, 123456])
    @pytest.mark.parametrize("n", [1, 7, 17, 200])
    def test_draws_are_the_per_bump_uniform_stream(self, n, seed):
        family = bump_family(n, seed)
        assert len(family) == n
        for k, (centers, widths, amps) in enumerate(uniform_stream(n, seed)):
            assert _bits(family.centers[k]) == _bits(centers)
            assert _bits(family.widths[k]) == _bits(widths)
            assert _bits(family.amps[k]) == _bits(amps)

    def test_draws_are_read_only(self):
        family = bump_family(3, seed=0)
        for a in (family.centers, family.widths, family.amps, family[1:2].widths):
            with pytest.raises(ValueError):
                a[0] = 0.5

    # sizes that end inside a chunk: one bump, one chunk and some, and one
    # short of three chunks
    @pytest.mark.parametrize("n", [1, BUMP_CHUNK + 3, 3 * BUMP_CHUNK - 1])
    @pytest.mark.parametrize("nx,ny", [(37, 23), (64, 64), (128, 128)])
    def test_every_bump_matches_the_references(self, nx, ny, n):
        # the factor form of test_grid.bump_formula bit for bit, and the
        # outer products added one by one (np.array_equal: a zero may change sign)
        g = build_grid(nx, ny, 0.5)
        family = bump_family(n, seed=nx + n)
        formed = 0
        for k, bump in enumerate(bumps(g, family)):
            assert _bits(bump.values) == _bits(full_grid(g, bump_formula(family, k)))
            assert np.array_equal(bump.values2d(), ref_bump(g, family, k))
            formed += 1
        assert formed == n

    @pytest.mark.parametrize("nx,ny", [(37, 23), (64, 64)])
    def test_a_bump_is_the_same_in_any_chunk(self, nx, ny):
        # a single bump is a family of one
        g = build_grid(nx, ny, 0.5)
        family = bump_family(2 * BUMP_CHUNK + 1, seed=7)
        for k, bump in enumerate(bumps(g, family)):
            (alone,) = bumps(g, family[k : k + 1])
            assert _bits(alone.values) == _bits(bump.values)

    def test_the_generator_holds_no_bump(self):
        # one bump alive at a time: once the caller drops it, it is gone
        g = build_grid(16, 16, 0.5)
        sampled = bumps(g, bump_family(3, seed=1))
        bump = next(sampled)
        kept = weakref.ref(bump)
        del bump
        assert kept() is None
        assert len(list(sampled)) == 2

    @pytest.mark.parametrize("n", [1, BUMP_CHUNK, BUMP_CHUNK + 3])
    def test_the_work_is_in_two_public_calls_per_chunk_and_bump(self, monkeypatch, n):
        # the generator reaches its factor pass and its contraction through
        # the module's names, so a wrapper installed there (as perfbench's
        # tracer installs one) sees every chunk and every bump
        chunks, formed = [], []
        factors, from_factors = fields.bump_factors, fields.bump_from_factors
        monkeypatch.setattr(fields, "bump_factors", lambda g, family: chunks.append(len(family)) or factors(g, family))
        monkeypatch.setattr(fields, "bump_from_factors", lambda g, u, v: formed.append(1) or from_factors(g, u, v))
        assert len(list(bumps(build_grid(9, 7, 0.5), bump_family(n, seed=2)))) == n
        assert chunks == [min(BUMP_CHUNK, n - start) for start in range(0, n, BUMP_CHUNK)]
        assert len(formed) == n


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

    # lq_norm after norms_of: q = 2 is the kept pairing, which the one pass
    # for the three q leaves in place
    def test_l2_norm_reads_the_kept_pairing(self, monkeypatch):
        g = build_grid(9, 7, 0.5)
        u = signed_zero_field(g, 4)
        norms_of(u)
        pairing = weighted_inner(u, u, 0.0)
        runs = count_cell_passes(monkeypatch)
        assert lq_norm(u, 2.0) == float(np.sum(ref_weights(g, 0.0) * np.abs(ref_averages(u)) ** 2.0) ** 0.5)
        assert weighted_inner(u, u, 0.0) is pairing
        assert runs == [u]

    # the first lq_norm call, for any q, forms u's averages once for the
    # three q and for the L^2 self-pairing
    @pytest.mark.parametrize("first", norms.Q_VALUES)
    def test_one_cell_pass_serves_every_q_and_the_l2_pairing(self, first, monkeypatch):
        g = build_grid(9, 7, 0.5)
        u, fresh = (signed_zero_field(g, 6) for _ in range(2))
        runs = count_cell_passes(monkeypatch)
        lq_norm(u, first)
        assert runs == [u]
        assert [repr(lq_norm(u, q)) for q in norms.Q_VALUES] == [repr(lq_norm(fresh, q)) for q in norms.Q_VALUES]
        assert repr(weighted_inner(u, u, 0.0)) == repr(weighted_inner(fresh, fresh, 0.0))
        assert runs == [u, fresh]

    # a y-weighted self-pairing also keeps the unweighted one, from the same
    # squared averages: no second pass, and a fresh field's bits
    @pytest.mark.parametrize("exponent", [0.0, 0.5, -0.5])
    def test_y_weighted_self_pairing_keeps_the_unweighted_one(self, exponent, monkeypatch):
        g = build_grid(9, 7, 0.5)
        u = signed_zero_field(g, 7)
        fresh = GridFunction(g, u.values.copy())
        runs = count_cell_passes(monkeypatch)
        assert weighted_inner(u, u, exponent, 1.5) == ref_inner(u, u, exponent, lambda y: np.exp(-1.5 * y))
        assert runs == [u]
        assert repr(weighted_inner(u, u, exponent)) == repr(weighted_inner(fresh, fresh, exponent))
        assert runs == [u, fresh]

    def test_coercivity_check_repeats_itself(self, monkeypatch):
        monkeypatch.setattr(analysis, "COERCIVITY_SAMPLES", 4)
        runs = [coercivity_check(nx=12, ny=12) for _ in range(2)]
        assert repr(runs[0]) == repr(runs[1])


# Runs of the difference kernel and of the cell averages per shipped
# config.  Computing each field's derivatives, norms and self-pairings
# once keeps them this low: recomputed on every call, coercivity,
# embedding, inclusion and verify (then with ten test functions) made 1400,
# 1200, 15 and 140 difference runs, and coercivity and embedding 1800 and
# 2400 cell-average runs; with
# the norms kept but not the self-pairings, coercivity made 1600 and
# embedding 1200 cell-average runs; with the self-pairings kept but each
# formed alone, coercivity made 1200 (v_y's y-weighted and unweighted
# self-pairings one pass each) and embedding 1000 (lq_norm formed u's
# averages again for q = 3 and q = 4).
KERNEL_RUNS = {
    "study_coercivity": (600, 1000),
    "study_convergence": (0, 0),
    "study_embedding": (400, 600),
    "study_energy": (40, 80),
    "study_inclusion": (10, 20),
    "study_muckenhoupt": (0, 0),
    "verify_weak_form": (58, 216),
}


@pytest.mark.parametrize("name", KERNEL_RUNS)
def test_kernel_runs_per_shipped_config(name, tmp_path):
    # the counter scripts/bench_levels.py records in a levels file
    with load_script("bench_levels").counting() as counts:
        _run(tmp_path, name)
    assert (counts["difference_runs"], counts["cell_average_runs"]) == KERNEL_RUNS[name]


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
            "lq_norm_q3": lambda: lq_norm(GridFunction(g, u.values), 3.0),
            "lq_norm_q4": lambda: lq_norm(GridFunction(g, u.values), 4.0),
            "norms_of": lambda: norms_of(GridFunction(g, u.values)),
        }[name]
        assert peak_bytes(fn) / (8 * (g.nx + 1) * (g.ny + 1)) < PARENT_PEAKS_IN_CELLS[name]

    @pytest.mark.parametrize("name", PARENT_PEAKS_IN_NODES)
    def test_nodal_kernels(self, name, at_128):
        g, u, _ = at_128
        f = named_field(g, "sinsin")
        family = bump_family(1, seed=3)
        fn = {
            "dy": lambda: dy(GridFunction(g, u.values)),
            "apply": lambda: _apply(g, u.values),
            "solve_dirichlet": lambda: solve_dirichlet(g, f),
            "bump": lambda: next(bumps(g, family)),
            "named_field": lambda: named_field(g, "sinsin", -0.7),
        }[name]
        assert peak_bytes(fn) / (8 * g.n) < PARENT_PEAKS_IN_NODES[name]


# the flat row layout stays inside _cell_sums: callers get the cells alone
def test_cell_sums_return_one_contiguous_cell_array():
    g = build_grid(5, 4, 0.5)
    cells = _cell_sums(signed_zero_field(g, 1))
    assert cells.shape == (g.ny + 1, g.nx + 1)
    assert cells.flags.c_contiguous and cells.flags.owndata
