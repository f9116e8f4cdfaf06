import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rarelab.domain import (
    MAX_CELLS,
    SLAB_CELLS,
    DomainSpec,
    Field,
    array_norms,
    derivative,
    gradient,
    laplacian,
    lp_norm,
    magnitude,
    make_grid,
    read_snapshot,
    second_derivative,
    slabs,
    tail_mass,
    write_json,
    write_snapshot,
    write_table,
)


def field_from(spec, fn, t=0.0):
    grid = make_grid(spec)
    mesh = np.meshgrid(grid.x1, *grid.torus, indexing="ij")
    return Field(spec, fn(*mesh), t)


class TestGrid:
    def test_cell_centers_small_case(self):
        spec = DomainSpec(n=2, L=1.0, n1=4, n_torus=(4,))
        grid = make_grid(spec)
        assert np.allclose(grid.x1, [-0.75, -0.25, 0.25, 0.75])
        assert np.allclose(grid.torus[0], [0.0, 0.25, 0.5, 0.75])

    def test_spacing(self):
        spec = DomainSpec(n=2, L=2.0, n1=8, n_torus=(4,))
        assert spec.dx1 == pytest.approx(0.5)

    def test_point_count_3d(self):
        spec = DomainSpec(n=3, L=1.0, n1=4, n_torus=(4, 4))
        assert spec.num_points == 64

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=2, L=-1.0, n1=8, n_torus=(8,)),
            dict(n=2, L=0.0, n1=8, n_torus=(8,)),
            dict(n=2, L=np.inf, n1=8, n_torus=(8,)),
            dict(n=2, L=np.nan, n1=8, n_torus=(8,)),
            dict(n=2, L=1.0, n1=3, n_torus=(8,)),
            dict(n=2, L=1.0, n1=8, n_torus=(3,)),
            dict(n=4, L=1.0, n1=8, n_torus=(8, 8, 8)),
            dict(n=2, L=1.0, n1=8, n_torus=()),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DomainSpec(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(n=1, L=40.0, n1=100_000_000_000),
        dict(n=3, L=2.0, n1=10_000_000_000, n_torus=(8, 8)),
        dict(n=2, L=1.0, n1=MAX_CELLS // 4 + 1, n_torus=(4,)),
    ], ids=["profile-line", "decompose-grid", "one-row-past"])
    def test_a_grid_past_the_cell_cap_is_rejected(self, kwargs):
        # checked on the spec, before any array of that size exists
        shape = (kwargs["n1"], *kwargs.get("n_torus", ()))
        with pytest.raises(ValueError) as exc:
            DomainSpec(**kwargs)
        assert str(exc.value) == f"the grid {shape} holds more than {MAX_CELLS} cells"

    def test_a_grid_at_the_cell_cap_is_a_spec(self):
        assert DomainSpec(n=2, L=1.0, n1=MAX_CELLS // 4, n_torus=(4,)).num_points == MAX_CELLS


class TestNorms:
    def test_constant_field(self):
        spec = DomainSpec(n=2, L=5.0, n1=16, n_torus=(8,))
        f = Field(spec, np.full(spec.shape, -2.0))
        for p in (1.0, 2.0, 3.0, 7.0):
            assert lp_norm(f, p) == pytest.approx(2.0 * 10.0 ** (1.0 / p), rel=1e-13)
        assert lp_norm(f, np.inf) == pytest.approx(2.0)

    @pytest.mark.parametrize("L", [1.0, 4.0, 9.0])
    def test_transverse_sine(self, L):
        # int_0^1 sin^2(2 pi y) dy = 1/2, line length 2L -> norm sqrt(L)
        spec = DomainSpec(n=2, L=L, n1=10, n_torus=(16,))
        f = field_from(spec, lambda x, y: np.sin(2 * np.pi * y))
        assert lp_norm(f, 2.0) == pytest.approx(np.sqrt(L), rel=1e-12)

    def test_sup_norm_is_peak(self):
        spec = DomainSpec(n=2, L=1.0, n1=8, n_torus=(4,))
        vals = np.zeros(spec.shape)
        vals[3, 2] = 3.0
        assert lp_norm(Field(spec, vals), np.inf) == 3.0

    def test_p_below_one_rejected(self):
        spec = DomainSpec(n=2, L=1.0, n1=8, n_torus=(4,))
        with pytest.raises(ValueError):
            lp_norm(Field(spec, np.ones(spec.shape)), 0.5)

    @pytest.mark.parametrize("p", [float("nan"), -np.inf])
    def test_nan_and_minus_infinity_rejected(self, p):
        # -inf is not the sup norm, and nan is no exponent at all
        spec = DomainSpec(n=2, L=1.0, n1=8, n_torus=(4,))
        f = Field(spec, np.ones(spec.shape))
        for _ in range(2):
            with pytest.raises(ValueError, match="p must be >= 1 or inf"):
                lp_norm(f, p)

    def test_holder_consistency_on_corpus(self):
        # measure-normalized norms are ordered in p on every field
        rng = np.random.default_rng(3)
        spec = DomainSpec(n=2, L=3.0, n1=24, n_torus=(8,))
        for _ in range(20):
            f = Field(spec, rng.standard_normal(spec.shape))
            vol = 2.0 * spec.L
            ps = [1.0, 2.0, 4.0, 8.0]
            vals = [lp_norm(f, p) / vol ** (1.0 / p) for p in ps]
            for lo, hi in zip(vals[:-1], vals[1:]):
                assert lo <= hi * (1 + 1e-12)

    def test_endpoint_interpolation_bound(self):
        # |f|_p <= |f|_inf^((p-1)/p) |f|_1^(1/p), smooth field
        spec = DomainSpec(n=2, L=2.0, n1=64, n_torus=(32,))
        f = field_from(spec, lambda x, y: np.exp(-(x**2)) * (1 + 0.3 * np.cos(2 * np.pi * y)))
        for p in (2.0, 3.0, 5.0):
            lhs = lp_norm(f, p)
            rhs = lp_norm(f, np.inf) ** ((p - 1) / p) * lp_norm(f, 1.0) ** (1 / p)
            assert lhs <= rhs + 1e-10


class TestDerivatives:
    def test_constant_has_zero_gradient(self):
        spec = DomainSpec(n=3, L=1.0, n1=8, n_torus=(4, 4))
        f = Field(spec, np.full(spec.shape, 1.5))
        for g in gradient(f):
            assert np.max(np.abs(g)) == 0.0

    def test_linear_profile_exact_interior(self):
        spec = DomainSpec(n=2, L=1.0, n1=16, n_torus=(4,))
        f = field_from(spec, lambda x, y: x)
        g1 = gradient(f)[0]
        assert np.allclose(g1, 1.0, atol=1e-12)

    def test_transverse_sine_derivative(self):
        spec = DomainSpec(n=2, L=1.0, n1=8, n_torus=(64,))
        f = field_from(spec, lambda x, y: np.sin(2 * np.pi * y))
        grid = make_grid(spec)
        expected = 2 * np.pi * np.cos(2 * np.pi * grid.torus[0])
        got = gradient(f)[1][0]
        assert np.max(np.abs(got - expected)) < 2 * np.pi * (2 * np.pi / 64) ** 2

    def test_gradient_second_order_convergence(self):
        errs = []
        for m in (32, 64, 128):
            spec = DomainSpec(n=2, L=2.0, n1=m, n_torus=(m,))
            f = field_from(spec, lambda x, y: np.sin(np.pi * x / 2) * np.cos(2 * np.pi * y))
            grid = make_grid(spec)
            X, Y = np.meshgrid(grid.x1, grid.torus[0], indexing="ij")
            exact = (np.pi / 2) * np.cos(np.pi * X / 2) * np.cos(2 * np.pi * Y)
            errs.append(np.max(np.abs(gradient(f)[0] - exact)))
        order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert 1.9 <= order[0] <= 2.1 and 1.9 <= order[1] <= 2.1

    def test_gradient_lists_the_partials(self):
        spec = DomainSpec(n=3, L=2.0, n1=12, n_torus=(6, 5))
        f = Field(spec, np.random.default_rng(4).standard_normal(spec.shape))
        grads = gradient(f)
        assert len(grads) == 3
        for axis, g in enumerate(grads):
            assert type(g) is np.ndarray and g.shape == spec.shape
            assert np.array_equal(g, derivative(f, axis))

    def test_periodic_derivative_wraps(self):
        spec = DomainSpec(n=2, L=1.0, n1=4, n_torus=(5,))
        v = np.tile(np.arange(5.0), (4, 1))
        d = derivative(Field(spec, v), 1)[0]
        h = 1.0 / 5
        assert np.allclose(d, [(1 - 4) / (2 * h), 1 / h, 1 / h, 1 / h, (0 - 3) / (2 * h)])

    def test_magnitude_is_the_euclidean_length(self):
        # magnitude overwrites what it is handed, so it gets copies
        a = np.array([[3.0, -1.0], [0.0, 2.0]])
        b = np.array([[4.0, 1.0], [0.0, -2.0]])
        assert np.array_equal(magnitude([a.copy()]), np.abs(a))
        assert np.allclose(magnitude([a.copy(), b.copy()]), np.hypot(a, b), rtol=1e-15)
        assert np.allclose(magnitude(iter([a.copy(), b.copy(), a.copy()])),
                           np.sqrt(2 * a**2 + b**2), rtol=1e-15)
        # a component handed twice is read again after its first square,
        # so magnitude writes none of them
        assert np.allclose(magnitude(iter([a, b, a])), np.sqrt(2 * a**2 + b**2), rtol=1e-15)
        assert np.array_equal(a, [[3.0, -1.0], [0.0, 2.0]])
        assert np.array_equal(b, [[4.0, 1.0], [0.0, -2.0]])

    def test_second_derivative_and_laplacian(self):
        spec = DomainSpec(n=2, L=3.0, n1=256, n_torus=(64,))
        f = field_from(spec, lambda x, y: np.exp(-(x**2)) * np.cos(2 * np.pi * y))
        grid = make_grid(spec)
        X, Y = np.meshgrid(grid.x1, grid.torus[0], indexing="ij")
        exact = (4 * X**2 - 2 - (2 * np.pi) ** 2) * np.exp(-(X**2)) * np.cos(2 * np.pi * Y)
        got = laplacian(f)
        assert np.max(np.abs(got - exact)) < 5e-2
        d2 = second_derivative(f, 0)
        exact_d2 = (4 * X**2 - 2) * np.exp(-(X**2)) * np.cos(2 * np.pi * Y)
        assert np.max(np.abs(d2 - exact_d2)) < 5e-3


class TestFieldBasics:
    def test_shape_and_finite_enforced(self):
        spec = DomainSpec(n=2, L=1.0, n1=8, n_torus=(8,))
        with pytest.raises(ValueError):
            Field(spec, np.ones((8, 4)))
        bad = np.ones(spec.shape)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            Field(spec, bad)

    def test_values_immutable(self):
        spec = DomainSpec(n=2, L=1.0, n1=8, n_torus=(8,))
        f = Field(spec, np.ones(spec.shape))
        with pytest.raises(ValueError):
            f.values[0, 0] = 2.0

    def test_an_owned_c_array_is_kept_and_frozen(self):
        spec = DomainSpec(n=2, L=1.0, n1=8, n_torus=(8,))
        arr = np.arange(64.0).reshape(spec.shape).copy()
        f = Field(spec, arr)
        assert f.values is arr
        with pytest.raises(ValueError):
            arr[0, 0] = -1.0
        assert f.values[0, 0] == 0.0
        assert f.with_values(arr).values is arr

    @pytest.mark.parametrize("make", [
        lambda a: a[:],
        lambda a: a[:, ::-1],
        lambda a: np.asfortranarray(a),
        lambda a: a.astype(np.int64),
        lambda a: a.tolist(),
    ], ids=["contiguous-view", "strided-view", "fortran", "int", "list"])
    def test_any_other_input_is_copied(self, make):
        spec = DomainSpec(n=2, L=1.0, n1=8, n_torus=(8,))
        given_values = make(np.arange(64.0).reshape(spec.shape).copy())
        f = Field(spec, given_values)
        assert np.array_equal(f.values, np.asarray(given_values, dtype=float))
        assert f.values.flags.c_contiguous and not f.values.flags.writeable
        if isinstance(given_values, np.ndarray):
            assert not np.shares_memory(f.values, given_values)
            given_values[0, 0] = 99
            assert f.values[0, 0] != 99

    def test_a_rejected_array_stays_writable(self):
        spec = DomainSpec(n=2, L=1.0, n1=8, n_torus=(8,))
        bad = np.ones(spec.shape)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Field(spec, bad)
        wrong = np.ones((8, 4))
        with pytest.raises(ValueError, match="shape"):
            Field(spec, wrong)
        bad[0, 0] = 1.0
        wrong[0, 0] = 2.0

    def test_tail_mass(self):
        spec = DomainSpec(n=2, L=1.0, n1=20, n_torus=(4,))
        vals = np.zeros(spec.shape)
        vals[10, :] = 1.0
        assert tail_mass(Field(spec, vals)) == 0.0
        vals2 = np.zeros(spec.shape)
        vals2[0, :] = 1.0
        assert tail_mass(Field(spec, vals2)) == pytest.approx(1.0)
        assert tail_mass(Field(spec, np.zeros(spec.shape))) == 0.0

    @pytest.mark.parametrize("off", [0, 2, 4, 6])
    def test_a_window_keeps_the_lines_outer_decade(self, off):
        # a window of a 100-cell line, whose outer decade is 5 cells a side:
        # the window's tail mass is the line's with 0 beyond the window
        line = DomainSpec(n=2, L=10.0, n1=100, n_torus=(4,))
        window = DomainSpec(n=2, L=10.0 - 0.2 * off, n1=100 - 2 * off, n_torus=(4,))
        vals = np.random.default_rng(3).uniform(0.5, 1.0, window.shape)
        whole = np.zeros(line.shape)
        whole[off:line.n1 - off] = vals
        got = tail_mass(Field(window, vals), line.n1)
        assert got == pytest.approx(tail_mass(Field(line, whole)), rel=1e-14)
        assert (got == 0.0) == (off >= 5)
        if off == 0:
            assert got == tail_mass(Field(window, vals))

    def test_a_window_inside_the_inner_decades_is_not_read(self):
        # the 100-cell line's outer decade, 5 cells a side, lies wholly
        # beyond a 90-cell window: the tail mass is 0 before any value is read
        class Unread:
            spec = DomainSpec(n=2, L=9.0, n1=90, n_torus=(4,))

            @property
            def values(self):
                raise AssertionError("the window's values were read")

        assert tail_mass(Unread(), 100) == 0.0


class TestSnapshotIO:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(5)
        spec = DomainSpec(n=3, L=2.0, n1=8, n_torus=(4, 6))
        f = Field(spec, rng.standard_normal(spec.shape), t=3.25)
        path = tmp_path / "f.field"
        write_snapshot(f, path)
        g = read_snapshot(path)
        assert g.spec == spec
        assert g.t == 3.25
        assert np.array_equal(g.values, f.values)

    def test_one_d_field_roundtrip(self, tmp_path):
        spec = DomainSpec(n=1, L=4.0, n1=32)
        f = Field(spec, np.linspace(-1, 1, 32), t=0.5)
        path = tmp_path / "p.field"
        write_snapshot(f, path)
        g = read_snapshot(path)
        assert g.spec.n == 1 and np.array_equal(g.values, f.values)

    def test_cylinder_bytes_match_hand_packed_layout(self, tmp_path):
        spec = DomainSpec(n=3, L=2.5, n1=4, n_torus=(5, 6))
        values = np.arange(120.0).reshape(spec.shape) / 7.0
        path = tmp_path / "f.field"
        write_snapshot(Field(spec, values, t=1.25), path)
        ref = (struct.pack("<q", 3) + struct.pack("<d", 2.5) + struct.pack("<q", 4)
               + struct.pack("<q", 5) + struct.pack("<q", 6) + struct.pack("<d", 1.25)
               + values.astype("<f8").tobytes())
        assert path.read_bytes() == ref

    def test_table_rows_at_full_precision(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ("i", "x"), [(0, 0.1), (1, np.float64(1 / 3)), (2, np.nan)])
        assert path.read_text() == (
            "i,x\n0,0.10000000000000001\n1,0.33333333333333331\n2,nan\n")


def strict_json(text: str):
    """json.loads that rejects the Infinity, -Infinity and NaN tokens."""
    def reject(token):
        raise ValueError(f"not strict JSON: {token}")
    return json.loads(text, parse_constant=reject)


class TestWriteJson:
    def test_non_finite_floats_are_spelled_out(self, tmp_path):
        inf, nan = float("inf"), float("nan")
        path = tmp_path / "out.json"
        write_json({"inf": inf, "-inf": -inf, "nan": nan,
                    "np": [np.float64(inf), np.float64(-inf), np.float64(nan)],
                    "finite": (np.float64(0.1), np.int64(3), 2, 0.5, "x", None),
                    1.0: {np.inf: True}}, path)
        assert strict_json(path.read_text()) == {
            "inf": "inf", "-inf": "-inf", "nan": "nan", "np": ["inf", "-inf", "nan"],
            "finite": [0.1, 3, 2, 0.5, "x", None], "1.0": {"inf": True}}

    def test_finite_floats_keep_their_repr(self, tmp_path):
        path = tmp_path / "out.json"
        values = [0.1, 1e-300, np.float64(2.0) / 3.0, -0.0]
        write_json(values, path)
        assert path.read_text() == json.dumps([float(v) for v in values], indent=2)


def _rolled_derivative(v, h, axis):
    if axis == 0:
        return np.gradient(v, h, axis=0, edge_order=2)
    return (np.roll(v, -1, axis=axis) - np.roll(v, 1, axis=axis)) / (2.0 * h)


def _rolled_second_derivative(v, h, axis):
    if axis == 0:
        d2 = np.empty_like(v)
        d2[1:-1] = v[:-2] - 2.0 * v[1:-1] + v[2:]
        d2[0] = 2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]
        d2[-1] = 2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]
        return d2 / h**2
    return (np.roll(v, -1, axis=axis) - 2.0 * v + np.roll(v, 1, axis=axis)) / h**2


@st.composite
def grid_fields(draw):
    """A Field on a random 1-, 2- or 3-d grid, with values spread over
    many magnitudes and some exact (signed) zeros."""
    n = draw(st.integers(1, 3))
    n1 = draw(st.integers(4, 9))
    n_torus = draw(st.lists(st.integers(4, 7), min_size=n - 1, max_size=n - 1))
    spec = DomainSpec(n=n, L=draw(st.floats(0.1, 50.0)), n1=n1, n_torus=n_torus)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    v = rng.standard_normal(spec.shape) * 10.0 ** rng.integers(-8, 8, size=spec.shape)
    v[rng.random(spec.shape) < 0.1] = 0.0
    v[rng.random(spec.shape) < 0.1] = -0.0
    return Field(spec, v)


class TestOperatorsMatchReferenceFormulas:
    """The slice stencils, the in-place magnitude and the abs-free norms
    are bitwise the formulas they replaced: rolled copies for the torus
    stencils, np.gradient on the line, a sum of squares, and |f| norms."""

    @settings(max_examples=60, deadline=None)
    @given(grid_fields())
    def test_derivatives_are_bitwise_the_rolled_formulas(self, f):
        for axis in range(f.spec.n):
            h = f.spec.spacing(axis)
            for got, want in ((derivative(f, axis), _rolled_derivative(f.values, h, axis)),
                              (second_derivative(f, axis),
                               _rolled_second_derivative(f.values, h, axis))):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    @settings(max_examples=60, deadline=None)
    @given(grid_fields(), st.data())
    def test_a_row_window_is_bitwise_the_slice(self, f, data):
        start = data.draw(st.integers(0, f.spec.n1 - 1))
        stop = data.draw(st.integers(start + 1, f.spec.n1))
        for axis in range(f.spec.n):
            got = derivative(f, axis, (start, stop))
            want = derivative(f, axis)[start:stop]
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        for got, want in zip(gradient(f, (start, stop)), gradient(f), strict=True):
            assert np.array_equal(got, want[start:stop])
            assert np.array_equal(np.signbit(got), np.signbit(want[start:stop]))

    @settings(max_examples=60, deadline=None)
    @given(grid_fields())
    def test_magnitude_is_bitwise_the_square_root_of_the_sum(self, f):
        # magnitude squares in the buffers it is handed and returns the first
        cs = [*gradient(f), f.values]
        handed = [c.copy() for c in cs]
        got = magnitude(iter(handed))
        assert got is handed[0]
        assert np.array_equal(got, np.sqrt(sum(c * c for c in cs)))
        assert np.array_equal(magnitude([cs[0].copy()]), np.sqrt(sum(c * c for c in cs[:1])))

    @settings(max_examples=60, deadline=None)
    @given(grid_fields())
    def test_magnitude_leaves_a_read_only_component_untouched(self, f):
        kept = f.values.copy()
        for cs in ([f.values, *gradient(f)], [*gradient(f), f.values], [f.values]):
            want = np.sqrt(sum(c * c for c in [x.copy() for x in cs]))
            got = magnitude(cs)
            assert got is not f.values
            assert np.array_equal(got, want)
            assert np.array_equal(f.values, kept)
            assert np.array_equal(np.signbit(f.values), np.signbit(kept))

    @settings(max_examples=30, deadline=None)
    @given(grid_fields())
    def test_magnitude_leaves_aliased_components_untouched(self, f):
        g = gradient(f)
        kept = [c.copy() for c in g]
        flat = g[0].ravel()
        for cs in ([g[0], g[0]], [*g, g[0]], [g[0], g[0][...]], [flat[1:], flat[:-1]]):
            want = np.sqrt(sum(c * c for c in [x.copy() for x in cs]))
            assert np.array_equal(magnitude(iter(cs)), want)
            for c, k in zip(g, kept):
                assert np.array_equal(c, k) and np.array_equal(np.signbit(c), np.signbit(k))

    @settings(max_examples=60, deadline=None)
    @given(grid_fields())
    def test_norms_are_bitwise_the_abs_formulas(self, f):
        a, vol = np.abs(f.values), f.spec.cell_volume
        assert lp_norm(f, 1.0) == (float(np.sum(a)) * vol) ** 1.0
        assert lp_norm(f, 2.0) == (float(np.sum(a * a)) * vol) ** 0.5
        assert lp_norm(f, 3.5) == (float(np.sum(a ** 3.5)) * vol) ** (1.0 / 3.5)
        assert lp_norm(f, np.inf) == float(np.max(a))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sup_norm_of_signed_zeros_is_positive_zero(self, n):
        spec = DomainSpec(n=n, L=1.0, n1=6, n_torus=(4,) * (n - 1))
        for fill in (-0.0, 0.0):
            got = lp_norm(Field(spec, np.full(spec.shape, fill)), np.inf)
            assert got == 0.0 and not np.signbit(got)
        mixed = np.zeros(spec.shape)
        mixed.flat[::2] = -0.0
        got = lp_norm(Field(spec, mixed), np.inf)
        assert got == 0.0 and not np.signbit(got)


class TestSlabs:
    @pytest.mark.parametrize("shape", [(7,), (40000,), (37, 48, 48), (16, 8, 8), (5, 200, 200)])
    def test_windows_cover_the_line_in_order(self, shape):
        spec = DomainSpec(n=len(shape), L=1.0, n1=shape[0], n_torus=shape[1:])
        windows = slabs(spec)
        assert [w[0] for w in windows] == [0, *(w[1] for w in windows[:-1])]
        assert windows[-1][1] == spec.n1
        per_row = spec.num_points // spec.n1
        assert all(stop - start == 1 or (stop - start) * per_row <= SLAB_CELLS
                   for start, stop in windows)
        assert all(b - a == windows[0][1] for a, b in windows[:-1])


class TestArrayNorms:
    """`array_norms` runs the norm formulas on a bare array: handed one it
    may overwrite, it gives lp_norm's norms bitwise, and a finite p whose
    plain sum leaves the float range is rescaled by max|v|, with no
    warning."""

    @settings(max_examples=60, deadline=None)
    @given(grid_fields(), st.lists(st.sampled_from([1.0, 2.0, 4.0, 3.5, np.inf]),
                                   min_size=1, max_size=5))
    def test_a_given_up_array_measures_like_lp_norm(self, f, ps):
        want = [lp_norm(Field(f.spec, f.values.copy()), p).hex() for p in ps]
        kept = f.values.copy()
        read = array_norms(f.values, ps, f.spec.cell_volume)
        assert [x.hex() for x in read] == want
        assert np.array_equal(f.values, kept)
        assert np.array_equal(np.signbit(f.values), np.signbit(kept))
        given_up = array_norms(f.values.copy(), ps, f.spec.cell_volume, overwrite=True)
        assert [x.hex() for x in given_up] == want

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e300, 1e200, 1e160, 1e-170, 1e-200, 1e-300])
    @pytest.mark.parametrize("overwrite", [False, True])
    def test_a_sum_past_the_float_range_is_rescaled(self, scale, overwrite):
        # the plain sums at p = 2, 3.5 and 4 overflow, or underflow to 0, at
        # these scales; the reference scales by a power of two, which is exact
        spec = DomainSpec(n=2, L=1.5, n1=12, n_torus=(8,))
        rng = np.random.default_rng(3)
        v = scale * rng.uniform(0.5, 2.0, spec.shape) * rng.choice([-1.0, 1.0], spec.shape)
        k = -round(np.log2(scale))
        ps = (1.0, 2.0, 4.0, 3.5, np.inf)
        want = [2.0**-k * lp_norm(Field(spec, v * 2.0**k), p) for p in ps]
        got = array_norms(v, ps, spec.cell_volume, overwrite)
        for p, g, w in zip(ps, got, want):
            assert 0.0 < g < np.inf and abs(g - w) <= 1e-13 * w, (p, g, w)

    def test_a_rescaled_norm_needs_its_plain_sum_to_fail(self):
        # 1e150**2 and 1e-150**2 are in range, so these norms are the plain ones
        spec = DomainSpec(n=1, L=2.0, n1=4)
        for v in (np.full(4, 1e150), np.full(4, 1e-150)):
            plain = float(np.sum(v * v)) ** 0.5
            assert array_norms(v.copy(), (2.0,), spec.cell_volume, True)[0] == plain

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, np.inf])
    def test_an_all_zero_array_has_norm_positive_zero(self, p):
        v = np.zeros(12)
        v[::3] = -0.0
        for overwrite in (False, True):
            got = array_norms(v.copy(), (p,), 0.5, overwrite)[0]
            assert got == 0.0 and not np.signbit(got)

    def test_p_below_one_is_rejected_before_any_work(self):
        v = np.ones(4)
        with pytest.raises(ValueError, match="p must be >= 1"):
            array_norms(v, (2.0, 0.5), 1.0, overwrite=True)
        assert np.array_equal(v, np.ones(4))


class TestKeptNorms:
    """A Field keeps each norm `lp_norm` takes of it; a kept norm is the
    norm a fresh Field with the same values would give, bitwise."""

    @settings(max_examples=60, deadline=None)
    @given(grid_fields(), st.lists(st.sampled_from([1.0, 2.0, 4.0, np.inf]), max_size=8))
    def test_kept_norms_are_the_fresh_ones_in_any_order(self, f, ps):
        for p in ps:
            fresh = Field(f.spec, f.values.copy(), f.t)
            assert lp_norm(f, p).hex() == lp_norm(fresh, p).hex()

    def test_a_norm_is_computed_once_per_field_and_p(self, monkeypatch):
        import rarelab.domain

        calls = []
        real = rarelab.domain._lp_norm
        monkeypatch.setattr(rarelab.domain, "_lp_norm",
                            lambda f, p: calls.append(p) or real(f, p))
        spec = DomainSpec(n=2, L=1.0, n1=8, n_torus=(4,))
        f = Field(spec, np.arange(32.0).reshape(spec.shape))
        for p in (2.0, 1, 2, np.inf, 1.0, float("inf"), np.float64(2.0)):
            lp_norm(f, p)
        assert calls == [2.0, 1, np.inf]

    def test_a_new_field_starts_with_no_kept_norm(self):
        spec = DomainSpec(n=2, L=1.0, n1=8, n_torus=(4,))
        f = Field(spec, np.ones(spec.shape))
        assert lp_norm(f, 2.0) == np.sqrt(2.0)
        doubled = f.with_values(2.0 * np.ones(spec.shape))
        assert lp_norm(doubled, 2.0) == 2.0 * np.sqrt(2.0)
        later = dataclasses.replace(f, t=1.0)
        assert later._norms == {} and "_norms" not in repr(later)
