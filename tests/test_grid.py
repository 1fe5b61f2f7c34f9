import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import degenash
from conftest import random_field
from degenash.analysis import _ENERGY_FAMILY
from degenash.fields import (
    CUTOFF_HI,
    CUTOFF_LO,
    FIELD_KINDS,
    _bump_frame,
    bump_family,
    bumps,
    manufactured_pair,
    named_field,
)
from degenash.grid import (
    DegenerateWeightWarning,
    Grid,
    GridFunction,
    RegionMask,
    _cell_sums,
    build_grid,
    cell_weights,
    rect_mask,
    weighted_inner,
)
from degenash.norms import norms_of
from degenash.operators import dx, dy

SHAPES = [(12, 12), (9, 7), (5, 16)]


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def window_factor(t):
    """The bump window's 1-D factor: a quintic smoothstep ramp from 0 at
    CUTOFF_LO to 1 at CUTOFF_HI, times its mirror image."""

    def ramp(t):
        t = np.clip((t - CUTOFF_LO) / (CUTOFF_HI - CUTOFF_LO), 0.0, 1.0)
        return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))

    return ramp(t) * ramp(1 - t)


def bump_formula(family, k):
    """Bump k of family in factor form, a formula in (X, Y),
    which may be the open grid or full coordinate arrays: the sum over its
    Gaussians of u(X) v(Y), u = w(X) exp(-(X-cx)**2 / (2 s s)) and
    v = w(Y) a exp(-(Y-cy)**2 / (2 s s)), with w the window's 1-D factor."""

    def fn(X, Y):
        out = np.zeros(np.broadcast_shapes(X.shape, Y.shape))
        for (cx, cy), s, a in zip(family.centers[k], family.widths[k], family.amps[k]):
            u = window_factor(X) * np.exp(-((X - cx) ** 2) / (2 * s * s))
            v = window_factor(Y) * a * np.exp(-((Y - cy) ** 2) / (2 * s * s))
            out += u * v
        return out

    return fn


def bump_formula_2d(family, k):
    """Bump k of family as a 2-D formula: each Gaussian
    a exp(-((X-cx)**2 + (Y-cy)**2) / (2 s s)), summed, times the window."""

    def fn(X, Y):
        out = np.zeros(np.broadcast_shapes(X.shape, Y.shape))
        for (cx, cy), s, a in zip(family.centers[k], family.widths[k], family.amps[k]):
            out += a * np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2 * s * s))
        return out * (window_factor(X) * window_factor(Y))

    return fn


class TestBuildGrid:
    def test_3x3(self):
        g = build_grid(3, 3, 0.5)
        assert g.hx == g.hy == 0.25
        assert g.n == 9
        assert np.allclose(g.x, [0.25, 0.5, 0.75])

    def test_nodes_strictly_inside(self):
        g = build_grid(17, 5, 1.0)
        assert g.x.min() > 0 and g.x.max() < 1
        assert g.y.min() > 0 and g.y.max() < 1

    def test_spacing_identity(self):
        g = build_grid(127, 127, 1.0)
        assert g.hx == pytest.approx(1 / 128, rel=1e-15)
        assert abs(g.hx * (g.nx + 1) - 1.0) < 1e-14
        assert abs(g.hy * (g.ny + 1) - 1.0) < 1e-14

    @pytest.mark.parametrize("alpha", [1.5, 0.0, -0.3, 2.0])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            build_grid(3, 3, alpha)

    @pytest.mark.parametrize("nx,ny", [(1, 3), (3, 1), (0, 0)])
    def test_too_few_nodes(self, nx, ny):
        with pytest.raises(ValueError):
            build_grid(nx, ny, 0.5)


class TestGridFunction:
    def test_length_mismatch(self, small_grid):
        with pytest.raises(ValueError):
            GridFunction(small_grid, np.zeros(small_grid.n + 1))

    def test_nonfinite_rejected(self, small_grid):
        vals = np.zeros(small_grid.n)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            GridFunction(small_grid, vals)

    def test_from_callable_layout(self):
        g = build_grid(3, 4, 0.5)
        u = GridFunction.from_callable(g, lambda X, Y: X + 10 * Y)
        # flat index j*nx + i
        assert u.values[0] == pytest.approx(g.x[0] + 10 * g.y[0])
        assert u.values[1] == pytest.approx(g.x[1] + 10 * g.y[0])
        assert u.values[g.nx] == pytest.approx(g.x[0] + 10 * g.y[1])

    @pytest.mark.parametrize("nx,ny", [(3, 4), (4, 3)])
    def test_values2d_row_j_is_y_row_j(self, nx, ny):
        # entry [j, i] of values2d is node (x_i, y_j), a view of values
        g = build_grid(nx, ny, 0.5)
        u = GridFunction.from_callable(g, lambda x, y: x + 10 * y)
        rows = u.values2d()
        assert rows.shape == (ny, nx) and np.shares_memory(rows, u.values)
        assert all(rows[j, i] == g.x[i] + 10 * g.y[j] for i in range(nx) for j in range(ny))

    def test_from_callable_rejects_a_result_that_does_not_broadcast(self):
        g = build_grid(3, 4, 0.5)
        with pytest.raises(ValueError, match=r"shape \(12,\), which does not broadcast to \(4, 3\)"):
            GridFunction.from_callable(g, lambda x, y: np.zeros(g.n))
        with pytest.raises(ValueError, match="does not broadcast"):
            GridFunction.from_callable(g, lambda x, y: np.zeros((4, 3, 2)))

    def test_from_callable_broadcasts_a_function_of_one_coordinate(self):
        # fn sees the open grid, and its broadcast result equals the
        # evaluation on full coordinate arrays bit for bit
        g = build_grid(3, 4, 0.5)
        X, Y = np.meshgrid(g.x, g.y)  # (ny, nx)
        for fn in (lambda x, y: x**0.7 - 0.3, lambda x, y: np.sin(3.0 * y), lambda x, y: 2.0):
            shapes = []
            u = GridFunction.from_callable(g, lambda x, y: shapes.append((x.shape, y.shape)) or fn(x, y))
            assert shapes == [((1, 3), (4, 1))]
            assert _bits(u.values) == _bits(np.broadcast_to(fn(X, Y), (4, 3)).ravel())


class TestEquality:
    # Grid keys the lru caches, so it compares by value; the array holders
    # compare by identity, as no field-wise == of an array is a bool
    def test_grid_compares_and_hashes_by_value(self):
        a, b = build_grid(4, 5, 0.5), build_grid(4, 5, 0.5)
        assert a == b and hash(a) == hash(b)
        assert a != build_grid(4, 5, 0.25)

    def test_grid_function_compares_by_identity(self, small_grid):
        u = GridFunction.zeros(small_grid)
        assert u == u
        same_values = GridFunction(small_grid, u.values.copy())
        assert u != same_values  # used to raise ValueError (array truth value)
        assert len({u, u, same_values}) == 2

    def test_region_masks_on_one_grid_are_not_all_equal(self, small_grid):
        left = rect_mask(small_grid, 0.0, 0.5, 0.0, 1.0)
        right = rect_mask(small_grid, 0.5, 1.0, 0.0, 1.0)
        assert left == left and hash(left) == hash(left)
        # indicator was left out of == and hash, so these compared equal
        assert left != right and left != rect_mask(small_grid, 0.0, 0.5, 0.0, 1.0)
        assert len({left, right}) == 2


@pytest.mark.parametrize("holder,dtype", [(GridFunction, float), (RegionMask, bool)])
def test_a_rejected_array_stays_writable(small_grid, holder, dtype):
    # one node-array rule builds both holders: a wrong length names both
    # lengths, a field rejects a NaN, and a rejected array and the array
    # that owns its memory stay the caller's to write
    g = small_grid
    owner = np.zeros(g.n + 4, dtype=dtype)
    short, given = owner[2:-3], owner[2:-2]
    with pytest.raises(ValueError, match=rf"has length {g.n - 1}, grid has {g.n} interior nodes"):
        holder(g, short)
    if dtype is float:
        given[5] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            holder(g, given)
    for array in (short, given, owner):
        array[0] = 1  # raises ValueError when read-only


class TestValueSemantics:
    """A GridFunction is a read-only value whose derivatives and norms are
    computed once and kept with it."""

    def test_values_are_read_only(self, small_grid):
        u = random_field(small_grid, 1)
        with pytest.raises(ValueError, match="read-only"):
            u.values[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            u.values2d()[0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            u.values = np.zeros(small_grid.n)

    @pytest.mark.parametrize("layout", ["flat", "2d", "view", "owner"])
    def test_the_array_it_views_is_read_only(self, small_grid, layout):
        # owner: a write to the array that owns a viewed memory once moved
        # the values, but not the norms kept from them
        g = small_grid
        owner = np.ones(g.n + 3)
        given = {
            "flat": np.ones(g.n),
            "2d": np.ones((g.ny, g.nx)),
            "view": owner[2:-1],
            "owner": owner[2:-1],
        }[layout]
        u = GridFunction(g, given)
        with pytest.raises(ValueError, match="read-only"):
            if layout == "owner":
                owner[2] = 2.0
            else:
                given[(0,) * given.ndim] = 2.0
        assert u.values[0] == 1.0

    def test_a_copied_array_stays_the_callers(self, small_grid):
        g = small_grid
        given = np.ones((g.nx, g.ny)).T  # not C-contiguous: values is a copy
        u = GridFunction(g, given)
        given[0, 0] = 2.0
        assert u.values[0] == 1.0

    def test_derivatives_and_norms_are_computed_once(self, small_grid):
        u = random_field(small_grid, 2)
        assert dx(u) is dx(u) and dy(u) is dy(u)
        assert norms_of(u) is norms_of(u)
        assert norms_of(u, include_mixed=True) is norms_of(u, True)
        assert norms_of(u, True) is not norms_of(u)

    def test_copy_starts_with_an_empty_memo(self, small_grid):
        u = random_field(small_grid, 3)
        dx(u), norms_of(u)
        v = GridFunction(u.grid, u.values.copy())
        assert v._memo == {}
        assert dx(v) is not dx(u)


# Open-grid sampling against the same formula on full coordinate arrays
OPEN_GRID_SHAPES = [(12, 12), (13, 7), (64, 64), (127, 129)]


def full_grid(grid, fn):
    """fn sampled on full (ny, nx) coordinate arrays, flat: the reference
    that open-grid sampling must match bit for bit."""
    X, Y = np.meshgrid(grid.x, grid.y)
    return np.asarray(fn(X, Y), dtype=float).reshape(grid.n)


class TestOpenGrid:
    @pytest.mark.parametrize("nx,ny", OPEN_GRID_SHAPES)
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
    def test_fields_match_full_grid(self, nx, ny, alpha, monkeypatch):
        g = build_grid(nx, ny, alpha)

        def sampled():
            out = [named_field(g, kind, -0.7) for kind in FIELD_KINDS]
            out += manufactured_pair(g)
            out += [gen(g) for gen in _ENERGY_FAMILY]
            out.append(GridFunction.from_callable(g, lambda X, Y: (X**2 + Y) ** 0.25))
            return [_bits(u.values) for u in out]

        open_grid = sampled()
        monkeypatch.setattr(GridFunction, "from_callable", classmethod(lambda cls, g, fn: cls(g, full_grid(g, fn))))
        assert sampled() == open_grid

    @pytest.mark.parametrize("nx,ny", OPEN_GRID_SHAPES)
    def test_rect_mask_matches_full_grid(self, nx, ny):
        g = build_grid(nx, ny, 0.5)
        for x0, x1, y0, y1 in [(0.0, 1.0, 0.0, 1.0), (0.4, 0.6, 0.1, 0.45), (0.2, 0.8, 0.5, 0.5 + 1e-9)]:
            expected = full_grid(g, lambda X, Y: (X > x0) & (X < x1) & (Y > y0) & (Y < y1)).astype(bool)
            assert np.array_equal(rect_mask(g, x0, x1, y0, y1).indicator, expected)

    @pytest.mark.parametrize("nx,ny", OPEN_GRID_SHAPES)
    def test_bump_matches_full_grid(self, nx, ny):
        g = build_grid(nx, ny, 0.5)
        family = bump_family(3, seed=nx + ny)
        for k, bump in enumerate(bumps(g, family)):
            assert _bits(bump.values) == _bits(full_grid(g, bump_formula(family, k)))

    @pytest.mark.parametrize("nx,ny", OPEN_GRID_SHAPES)
    def test_bump_is_near_the_2d_formula(self, nx, ny):
        # a dropped window or a wrong Gaussian misses by O(1)
        g = build_grid(nx, ny, 0.5)
        family = bump_family(20, seed=nx * ny)
        for k, bump in enumerate(bumps(g, family)):
            expected = full_grid(g, bump_formula_2d(family, k))
            error = np.abs(bump.values - expected).max()
            assert error <= 1e-14 * np.abs(expected).max()

    def test_bump_frame_holds_the_open_grid(self):
        # the 1-D frame: node coordinates and the window's 1-D factors
        g = build_grid(13, 7, 0.5)
        x, y, w_x, w_y = _bump_frame(g)
        assert (x.shape, y.shape, w_x.shape, w_y.shape) == ((13,), (7,), (13,), (7,))
        assert _bits(x) == _bits(g.x) and _bits(y) == _bits(g.y)
        assert _bits(w_x) == _bits(window_factor(g.x)) and _bits(w_y) == _bits(window_factor(g.y))

    def test_no_full_coordinate_arrays_in_the_package(self):
        # every field and mask samples the open grid; none evaluates its
        # coordinates at every node
        assert not hasattr(Grid, "meshgrid")
        for path in sorted(Path(degenash.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                name = getattr(node, "attr", None) or getattr(node, "id", None)
                assert name != "meshgrid", f"{path.name} line {node.lineno} reaches a meshgrid"


class TestRectMask:
    def test_full_square_all_true(self, small_grid):
        m = rect_mask(small_grid, 0, 1, 0, 1)
        assert m.indicator.all()

    def test_inverted_rejected(self, small_grid):
        with pytest.raises(ValueError):
            rect_mask(small_grid, 0.5, 0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            rect_mask(small_grid, 0.6, 0.4, 0.0, 1.0)

    def test_open_rectangle_enumeration(self):
        # 3x3 grid: nodes at x,y in {0.25, 0.5, 0.75}; (0,0.5)x(0,1) keeps
        # exactly the x=0.25 column (x=0.5 lies on the open boundary).
        g = build_grid(3, 3, 0.5)
        m = rect_mask(g, 0.0, 0.5, 0.0, 1.0)
        assert m.nodes.size == 3
        expected = {0, 3, 6}  # i=0 column, flat index j*nx + i
        assert set(np.flatnonzero(m.indicator)) == expected

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_idempotent_and_commutes_with_scaling(self, seed):
        g = build_grid(9, 7, 0.5)
        u = random_field(g, seed)
        m = rect_mask(g, 0.2, 0.8, 0.1, 0.6)
        once = m.apply(u)
        assert np.array_equal(m.apply(once).values, once.values)
        assert np.array_equal(m.apply(3.5 * u).values, (3.5 * once).values)

    def test_top_and_bottom_rows(self):
        # 3x5 grid: y-rows j = 0..4 at y = (j + 1) / 6; (0, 1) x (0.3, 0.7)
        # keeps rows 1 (y = 1/3) to 3 (y = 2/3)
        g = build_grid(3, 5, 0.5)
        m = rect_mask(g, 0.0, 1.0, 0.3, 0.7)
        assert (m.bottom_row, m.top_row) == (1, 3)
        empty = RegionMask(g, np.zeros(g.n, dtype=bool))
        for row in ("bottom_row", "top_row"):
            with pytest.raises(ValueError, match="no interior nodes"):
                getattr(empty, row)

    @pytest.mark.parametrize("nx,ny", [(6, 5), (5, 6)])
    def test_rows_of_a_non_square_mask(self, nx, ny):
        # node j*nx + i lies on y-row j, so a transposed index finds other rows
        g = build_grid(nx, ny, 0.5)
        m = rect_mask(g, 0.2, 0.9, 0.1, 0.6)
        rows = np.flatnonzero((g.y > 0.1) & (g.y < 0.6))
        assert (m.bottom_row, m.top_row) == (rows[0], rows[-1])
        assert set(m.nodes // nx) == set(rows)

    def test_direct_indicator_escape_hatch(self, small_grid):
        ind = np.zeros(small_grid.n, dtype=bool)
        ind[::3] = True
        m = RegionMask(small_grid, ind)
        assert m.nodes.size == ind.sum()

    @pytest.mark.parametrize("layout", ["flat", "2d", "view", "owner"])
    def test_indicator_and_the_array_it_views_are_read_only(self, small_grid, layout):
        # a write to the caller's array, or to the array that owns its
        # memory, once moved the indicator, but not the nodes cached from it
        g = small_grid
        owner = np.zeros(g.n + 3, dtype=bool)
        given = {
            "flat": np.zeros(g.n, dtype=bool),
            "2d": np.zeros((g.ny, g.nx), dtype=bool),
            "view": owner[2:-1],
            "owner": owner[2:-1],
        }[layout]
        given.reshape(-1)[7] = True
        m = RegionMask(g, given)
        assert m.nodes.tolist() == [7]
        if layout == "owner":
            with pytest.raises(ValueError, match="read-only"):
                owner[2] = True
        for array in (given.reshape(-1), m.indicator, rect_mask(g, 0.0, 0.5, 0.0, 1.0).indicator):
            with pytest.raises(ValueError, match="read-only"):
                array[20] = True
        assert np.flatnonzero(m.indicator).tolist() == [7]

    def test_a_copied_indicator_leaves_the_callers_array(self, small_grid):
        given = np.zeros(small_grid.n, dtype=int)  # not bool: the indicator is a copy
        m = RegionMask(small_grid, given)
        given[20] = 1
        assert m.nodes.size == 0


class TestWeightedInner:
    def test_constant_unweighted(self):
        # the boundary cell ring sees the interpolation ramp to zero, so
        # the value approaches 1 from below at rate ~3h
        for n in (16, 64):
            g = build_grid(n, n, 0.5)
            one = GridFunction(g, np.ones(g.n))
            value = weighted_inner(one, one, 0.0)
            assert 1.0 - 4.0 * g.hx <= value < 1.0

    @pytest.mark.parametrize(
        "fn,exponent,exact",
        [
            (lambda X, Y: np.ones_like(X), -0.5, 2.0),  # integral of x^-1/2
            (lambda X, Y: X, 0.0, 1.0 / 3.0),  # integral of x^2
            (lambda X, Y: np.ones_like(X), 0.0, 1.0),
        ],
    )
    def test_refinement_monotone(self, fn, exponent, exact):
        errs = []
        for n in (8, 16, 32, 64):
            g = build_grid(n, n, 0.5)
            u = GridFunction.from_callable(g, fn)
            errs.append(abs(weighted_inner(u, u, exponent) - exact))
        assert all(b < a for a, b in zip(errs, errs[1:]))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), exponent=st.sampled_from([-0.5, -0.25, 0.0, 0.25, 0.5]))
    def test_symmetric_bilinear_nonnegative(self, seed, exponent):
        g = build_grid(8, 6, 0.5)
        u = random_field(g, seed)
        v = random_field(g, seed + 1)
        w = random_field(g, seed + 2)
        assert weighted_inner(u, v, exponent) == weighted_inner(v, u, exponent)
        lhs = weighted_inner(2.0 * u - 3.0 * w, v, exponent)
        rhs = 2.0 * weighted_inner(u, v, exponent) - 3.0 * weighted_inner(w, v, exponent)
        scale = abs(lhs) + abs(rhs) + 1.0
        assert abs(lhs - rhs) <= 1e-12 * scale
        assert weighted_inner(u, u, exponent) >= 0.0

    def test_grid_mismatch(self):
        u = GridFunction.zeros(build_grid(4, 4, 0.5))
        v = GridFunction.zeros(build_grid(5, 4, 0.5))
        with pytest.raises(ValueError):
            weighted_inner(u, v, 0.0)

    def test_divergent_exponent_warns_with_first_column_mass(self, small_grid):
        one = GridFunction(small_grid, np.ones(small_grid.n))
        with pytest.warns(DegenerateWeightWarning):
            weighted_inner(one, one, -1.0)

    def test_no_warning_when_supported_away_from_axis(self, small_grid):
        u = rect_mask(small_grid, 0.5, 1.0, 0.0, 1.0).apply(
            GridFunction(small_grid, np.ones(small_grid.n))
        )
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error", DegenerateWeightWarning)
            weighted_inner(u, u, -1.0)


class TestQuadratureCaches:
    """The cached and in-place quadrature paths reproduce the plain
    formulas bit for bit."""

    @pytest.mark.parametrize("nx,ny", SHAPES)
    def test_cell_averages_match_four_corner_sum(self, nx, ny):
        g = build_grid(nx, ny, 0.5)
        u = random_field(g, nx * ny)
        padded = np.zeros((ny + 2, nx + 2))
        padded[1:-1, 1:-1] = u.values2d()
        # corner, x-neighbour, y-neighbour, diagonal
        ref = 0.25 * (padded[:-1, :-1] + padded[:-1, 1:] + padded[1:, :-1] + padded[1:, 1:])
        assert _bits(_cell_sums(u)) == _bits(ref)

    @pytest.mark.parametrize("nx,ny", SHAPES)
    @pytest.mark.parametrize("exponent", [-1.0, -0.5, 0.0, 0.5])
    def test_cell_weights_match_formula(self, nx, ny, exponent):
        g = build_grid(nx, ny, 0.5)
        row = g.hx * g.hy * np.power(g.xc, exponent)[None, :]
        assert _bits(cell_weights(g, exponent)) == _bits(np.broadcast_to(row, (ny + 1, nx + 1)))
        yw = lambda y: np.exp(-2.0 * y)
        assert _bits(cell_weights(g, exponent, theta=2.0)) == _bits(row * yw(g.yc)[:, None])

    @pytest.mark.parametrize("nx,ny", SHAPES)
    @pytest.mark.parametrize("exponent", [-0.5, 0.0, 0.5])
    def test_self_pairing_equals_pairing_with_copy(self, nx, ny, exponent):
        g = build_grid(nx, ny, 0.5)
        u = random_field(g, 3)
        copy = GridFunction(g, u.values.copy())
        assert weighted_inner(u, u, exponent) == weighted_inner(u, copy, exponent)
        assert weighted_inner(u, u, exponent, theta=1.0) == weighted_inner(u, copy, exponent, theta=1.0)

    def test_self_pairing_still_warns_on_divergent_weight(self, small_grid):
        one = GridFunction(small_grid, np.ones(small_grid.n))
        with pytest.warns(DegenerateWeightWarning):
            weighted_inner(one, one, -1.5)

    @pytest.mark.parametrize("nx,ny", SHAPES)
    def test_bump_matches_sampled_formula(self, nx, ny):
        g = build_grid(nx, ny, 0.5)
        family = bump_family(3, seed=nx)
        for k, bump in enumerate(bumps(g, family)):
            fn = bump_formula(family, k)
            assert _bits(bump.values) == _bits(GridFunction.from_callable(g, fn).values)

    def test_cached_arrays_are_read_only(self, small_grid):
        w = cell_weights(small_grid, 0.5)
        with pytest.raises(ValueError):
            w[0, 0] = 1.0
        for a in _bump_frame(small_grid):
            with pytest.raises(ValueError):
                a[0] = 1.0
        # the y-weighted weights are cached as well, and as read-only
        w = cell_weights(small_grid, 0.5, theta=1.0)
        assert w is cell_weights(small_grid, 0.5, theta=1.0)
        with pytest.raises(ValueError):
            w[0, 0] = 1.0
