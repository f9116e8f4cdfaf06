from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rarelab.decomp import (
    check_membership,
    decompose,
    dump_components,
    level_sum,
    norm_bound_ratio,
    reconstruct,
)
from rarelab.domain import DomainSpec, Field, gradient, lp_norm, magnitude, make_grid
from rarelab.ineqlab import gn_ratio


def meshes(spec):
    grid = make_grid(spec)
    return np.meshgrid(grid.x1, *grid.torus, indexing="ij")


def random_trig_field(spec, rng, n_modes=5):
    mesh = meshes(spec)
    vals = np.zeros(spec.shape)
    for _ in range(n_modes):
        term = np.full(spec.shape, rng.standard_normal())
        term = term * np.cos(rng.integers(0, 3) * np.pi * mesh[0] / spec.L
                             + rng.uniform(0, 2 * np.pi))
        for ax in range(1, spec.n):
            k = int(rng.integers(0, 4))
            term = term * np.cos(2 * np.pi * k * mesh[ax] + rng.uniform(0, 2 * np.pi))
        vals += term
    return Field(spec, vals)


SPEC2 = DomainSpec(n=2, L=2.0, n1=12, n_torus=(8,))
SPEC3 = DomainSpec(n=3, L=2.0, n1=8, n_torus=(8, 6))


def grad_magnitude(f):
    return magnitude(gradient(f))


def norm(f, m, p):
    """L^p norm of f (m = 0) or of its gradient magnitude (m = 1)."""
    return lp_norm(f.with_values(grad_magnitude(f)) if m == 1 else f, p)


def tile(spec, subset, arr):
    """An array over (x1, *subset directions) repeated over the full grid."""
    shape = [spec.n1] + [1] * (spec.n - 1)
    for pos, direction in enumerate(subset):
        shape[direction - 1] = arr.shape[1 + pos]
    return np.broadcast_to(arr.reshape(shape), spec.shape)


def tiled_ratio(u, d, m, p):
    """norm_bound_ratio with every part tiled onto the full grid."""
    return sum(norm(Field(u.spec, d.broadcast(s)), m, p) for s in d.parts) / norm(u, m, p)


class TestWorkedExamples:
    def test_line_function_passes_through(self):
        mesh = meshes(SPEC2)
        f = Field(SPEC2, np.cosh(mesh[0] / 2))
        d = decompose(f)
        assert np.allclose(d.parts[()].values, np.cosh(make_grid(SPEC2).x1 / 2), atol=1e-14)
        assert np.max(np.abs(d.parts[(2,)].values)) < 1e-14

    def test_single_transverse_mode(self):
        mesh = meshes(SPEC2)
        f = Field(SPEC2, np.sin(2 * np.pi * mesh[1]))
        d = decompose(f)
        assert np.max(np.abs(d.parts[()].values)) < 1e-15
        assert np.allclose(d.broadcast((2,)), f.values, atol=1e-14)

    def test_three_dimensional_hand_example(self):
        # 1 + sin(2 pi x2) sin(2 pi x3) + cos(2 pi x2): the constant is the
        # 1-d part, the cosine lives on {2}, nothing on {3}, the product
        # on {2, 3}; derived by applying the level averages by hand
        mesh = meshes(SPEC3)
        f = Field(SPEC3, 1.0 + np.sin(2 * np.pi * mesh[1]) * np.sin(2 * np.pi * mesh[2])
                  + np.cos(2 * np.pi * mesh[1]))
        d = decompose(f)
        assert np.allclose(d.parts[()].values, 1.0, atol=1e-14)
        assert np.max(np.abs(d.broadcast((2,)) - np.cos(2 * np.pi * mesh[1]))) < 1e-13
        assert np.max(np.abs(d.broadcast((3,)))) < 1e-13
        expect = np.sin(2 * np.pi * mesh[1]) * np.sin(2 * np.pi * mesh[2])
        assert np.max(np.abs(d.broadcast((2, 3)) - expect)) < 1e-13


class TestReconstruction:
    @pytest.mark.parametrize("spec", [SPEC2, SPEC3], ids=["n2", "n3"])
    def test_roundtrip_on_random_fields(self, spec):
        rng = np.random.default_rng(42)
        for _ in range(25):
            f = Field(spec, rng.standard_normal(spec.shape))
            rec = reconstruct(decompose(f))
            scale = np.max(np.abs(f.values))
            assert np.max(np.abs(rec.values - f.values)) <= 1e-13 * scale

    def test_trivial_decomposition_reconstructs(self):
        f = Field(SPEC2, np.zeros(SPEC2.shape))
        d = decompose(f)
        assert np.max(np.abs(reconstruct(d).values)) == 0.0

    def test_idempotence_on_admissible_components(self):
        # build components satisfying the zero-slice-average condition,
        # reconstruct, decompose again: the pieces come back unchanged
        rng = np.random.default_rng(9)
        spec = SPEC3
        u0 = rng.standard_normal(spec.n1)
        comps = {}
        for subset, shape in (((2,), (spec.n1, 8)), ((3,), (spec.n1, 6)),
                              ((2, 3), (spec.n1, 8, 6))):
            c = rng.standard_normal(shape)
            for pos in range(1, c.ndim):
                c = c - c.mean(axis=pos, keepdims=True)
            comps[subset] = c
        d0 = decompose(Field(spec, np.zeros(spec.shape)))
        parts = {s: Field(d0.parts[s].spec, arr) for s, arr in {(): u0, **comps}.items()}
        u = (u0[:, None, None] + comps[(2,)][:, :, None] + comps[(3,)][:, None, :]
             + comps[(2, 3)])
        d = type(d0)(field=Field(spec, u), parts=parts)
        again = decompose(reconstruct(d))
        assert np.max(np.abs(again.parts[()].values - u0)) < 1e-13
        for subset in comps:
            assert np.max(np.abs(again.parts[subset].values - comps[subset])) < 1e-13


class TestDecomposeProperties:
    """Reconstruction is exact and every component has zero slice
    averages, on random 2-d and 3-d grids with odd and even torus sizes."""

    @settings(max_examples=40, deadline=None)
    @given(
        n1=st.integers(4, 8),
        n_torus=st.lists(st.integers(4, 7), min_size=1, max_size=2),
        scale=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**16),
    )
    def test_reconstruct_inverts_decompose(self, n1, n_torus, scale, seed):
        spec = DomainSpec(n=1 + len(n_torus), L=2.0, n1=n1, n_torus=n_torus)
        f = Field(spec, scale * np.random.default_rng(seed).standard_normal(spec.shape))
        d = decompose(f)
        tol = 1e-12 * float(np.max(np.abs(f.values)))
        assert np.max(np.abs(reconstruct(d).values - f.values)) <= tol
        assert check_membership(d)["max_slice_average"] <= tol


def tiled_decompose(u):
    """Parts of u by the full-grid recipe: each lower level is tiled onto
    a full-grid copy of the 1-d part and added there in place."""
    spec = u.spec
    dirs = tuple(range(2, spec.n + 1))
    u0 = u.values.mean(axis=tuple(range(1, spec.n))) if spec.n > 1 else u.values
    parts = {(): u0}
    lower = tile(spec, (), u0).copy()
    for k in range(1, spec.n):
        remainder = u.values - lower
        level = list(combinations(dirs, k))
        for s in level:
            drop = tuple(d - 1 for d in dirs if d not in s)
            parts[s] = remainder.mean(axis=drop) if drop else remainder
        if k < spec.n - 1:
            for s in level:
                lower += tile(spec, s, parts[s])
    return parts


class TestTiledReference:
    @settings(max_examples=40, deadline=None)
    @given(
        n1=st.integers(4, 8),
        n_torus=st.lists(st.integers(4, 7), min_size=1, max_size=2),
        seed=st.integers(0, 2**16),
    )
    def test_decompose_is_bitwise_the_tiled_recipe(self, n1, n_torus, seed):
        spec = DomainSpec(n=1 + len(n_torus), L=2.0, n1=n1, n_torus=n_torus)
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(spec.shape) * 10.0 ** rng.integers(-4, 4, size=spec.shape)
        want = tiled_decompose(Field(spec, v))
        got = decompose(Field(spec, v)).parts
        assert list(got) == list(want)
        for s, part in got.items():
            assert np.array_equal(part.values, want[s])
            assert np.array_equal(np.signbit(part.values), np.signbit(want[s]))

    @settings(max_examples=40, deadline=None)
    @given(
        n1=st.integers(4, 8),
        n_torus=st.lists(st.integers(4, 7), min_size=1, max_size=2),
        seed=st.integers(0, 2**16),
    )
    def test_sums_of_parts_are_bitwise_the_tiled_sums(self, n1, n_torus, seed):
        spec = DomainSpec(n=1 + len(n_torus), L=2.0, n1=n1, n_torus=n_torus)
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(spec.shape) * 10.0 ** rng.integers(-4, 4, size=spec.shape)
        v[rng.random(spec.shape) < 0.2] = -0.0
        v[rng.integers(0, n1)] = -0.0  # a row whose 1-d part is -0.0
        d = decompose(Field(spec, v))

        def tiled_sum(subsets):
            acc = np.zeros(spec.shape)
            for s in subsets:
                acc += tile(spec, s, d.parts[s].values)
            return acc

        pairs = [(reconstruct(d).values, tiled_sum(d.parts))]
        pairs += [(level_sum(d, k), tiled_sum([s for s in d.parts if len(s) == k]))
                  for k in range(spec.n)]
        for got, want in pairs:
            assert got.shape == spec.shape
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


class TestPart:
    def test_each_part_is_its_stored_array_on_its_own_cylinder(self):
        d = decompose(random_trig_field(SPEC3, np.random.default_rng(3)))
        for subset, f in d.parts.items():
            assert (f.spec.n, f.spec.L, f.spec.n1) == (1 + len(subset), SPEC3.L, SPEC3.n1)
            assert f.spec.n_torus == tuple(SPEC3.n_torus[k - 2] for k in subset)
            assert np.array_equal(tile(SPEC3, subset, f.values), d.broadcast(subset))
        assert d.parts[(3,)].spec.n_torus == (6,)

    @pytest.mark.parametrize("spec", [SPEC2, SPEC3], ids=["n2", "n3"])
    def test_parts_are_read_only_and_shared_without_side_effects(self, spec):
        d = decompose(random_trig_field(spec, np.random.default_rng(6)))
        stored = [part.values for part in d.parts.values()]
        before = [a.copy() for a in stored]
        for subset, arr, old in zip(d.parts, stored, before):
            assert np.shares_memory(d.broadcast(subset), arr)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0
            assert d.parts[subset].values is arr and np.array_equal(arr, old)

    def test_one_d_part_is_on_the_line(self):
        d = decompose(random_trig_field(SPEC3, np.random.default_rng(4)))
        assert d.parts[()].spec == DomainSpec(n=1, L=SPEC3.L, n1=SPEC3.n1)

    @pytest.mark.parametrize("spec, top", [(SPEC2, (2,)), (SPEC3, (2, 3))], ids=["n2", "n3"])
    def test_top_part_is_on_the_full_grid(self, spec, top):
        d = decompose(random_trig_field(spec, np.random.default_rng(5)))
        assert d.parts[top].spec == d.spec

    @settings(max_examples=30, deadline=None)
    @given(
        n1=st.integers(4, 24),
        n_torus=st.lists(st.integers(4, 8), min_size=1, max_size=2),
        seed=st.integers(0, 2**16),
    )
    def test_own_cylinder_measures_like_the_tiled_part(self, n1, n_torus, seed):
        spec = DomainSpec(n=1 + len(n_torus), L=2.0, n1=n1, n_torus=n_torus)
        d = decompose(Field(spec, np.random.default_rng(seed).standard_normal(spec.shape)))
        for subset, own in d.parts.items():
            tiled = Field(spec, d.broadcast(subset))
            assert np.array_equal(tile(spec, subset, grad_magnitude(own)),
                                  grad_magnitude(tiled))
            for m in (0, 1):
                for p in (1.0, 2.0, 4.0, np.inf):
                    a, b = norm(own, m, p), norm(tiled, m, p)
                    if np.isinf(p):
                        assert a == b
                    else:
                        assert abs(a - b) <= 1e-14 * b


class TestMembership:
    def test_construction_enforces_zero_slice_averages(self):
        rng = np.random.default_rng(7)
        f = Field(SPEC3, rng.standard_normal(SPEC3.shape))
        rep = check_membership(decompose(f))
        assert rep["max_slice_average"] <= 1e-12 * np.max(np.abs(f.values))

    def test_violator_flagged_with_direction(self):
        d = decompose(Field(SPEC2, np.zeros(SPEC2.shape)))
        bad = dict(d.parts)
        mesh_t = np.arange(8) / 8
        bad[(2,)] = Field(SPEC2, np.broadcast_to(1.0 + np.sin(2 * np.pi * mesh_t), (SPEC2.n1, 8)))
        d_bad = type(d)(field=bad[(2,)], parts=bad)  # the 1-d part is 0
        rep = check_membership(d_bad)
        assert rep["per_component"][(2,)][2] == pytest.approx(1.0)

    def test_one_d_part_vacuously_passes(self):
        mesh = meshes(SPEC2)
        d = decompose(Field(SPEC2, mesh[0]))
        rep = check_membership(d)
        assert rep["max_slice_average"] <= 1e-14


class TestNormBound:
    def test_line_function_ratio_one(self):
        mesh = meshes(SPEC2)
        f = Field(SPEC2, 1.0 + 0.5 * np.tanh(mesh[0]))
        d = decompose(f)
        assert norm_bound_ratio(f, d, 0, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_pure_mode_ratio_one(self):
        mesh = meshes(SPEC2)
        f = Field(SPEC2, np.sin(2 * np.pi * mesh[1]))
        d = decompose(f)
        assert norm_bound_ratio(f, d, 0, 2.0) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("spec", [SPEC2, SPEC3], ids=["n2", "n3"])
    def test_corpus_respects_combinatorial_bound(self, spec):
        rng = np.random.default_rng(12)
        bound = 3.0 ** (spec.n - 1)  # the proof is in norm_bound_ratio
        for _ in range(20):
            f = random_trig_field(spec, rng)
            d = decompose(f)
            for m in (0, 1):
                for p in (1.0, 2.0, np.inf):
                    ratio = norm_bound_ratio(f, d, m, p)
                    if np.isnan(ratio):
                        continue
                    assert ratio <= bound

    @pytest.mark.parametrize("spec", [SPEC2, SPEC3], ids=["n2", "n3"])
    def test_corpus_ratios_match_the_tiled_parts(self, spec):
        # measuring parts on their own cylinders only reorders the sums
        rng = np.random.default_rng(12)
        mesh = meshes(spec)
        fields = [Field(spec, 1.0 + 0.5 * np.tanh(mesh[0])),
                  Field(spec, np.sin(2 * np.pi * mesh[1])),
                  *(random_trig_field(spec, rng) for _ in range(20))]
        for f in fields:
            d = decompose(f)
            for m in (0, 1):
                for p in (1.0, 2.0, np.inf):
                    got, want = norm_bound_ratio(f, d, m, p), tiled_ratio(f, d, m, p)
                    assert got == want if np.isinf(p) else abs(got - want) <= 1e-14 * want

    def test_per_level_contraction(self):
        # averaging contracts; the first level subtraction at worst doubles
        rng = np.random.default_rng(13)
        for _ in range(10):
            f = random_trig_field(SPEC3, rng)
            d = decompose(f)
            for p in (1.0, 2.0, np.inf):
                un = lp_norm(f, p)
                assert lp_norm(Field(SPEC3, level_sum(d, 0), 0.0), p) <= un * (1 + 1e-12)
                for subset in ((2,), (3,)):
                    comp = Field(SPEC3, d.broadcast(subset), 0.0)
                    assert lp_norm(comp, p) <= 2.0 * un * (1 + 1e-12)

    def test_constant_gradient_flagged(self):
        f = Field(SPEC2, np.ones(SPEC2.shape))
        d = decompose(f)
        assert np.isnan(norm_bound_ratio(f, d, 1, 2.0))

    def test_bad_order_rejected(self):
        f = Field(SPEC2, np.ones(SPEC2.shape))
        with pytest.raises(ValueError):
            norm_bound_ratio(f, decompose(f), 2, 2.0)

    def test_decomposition_of_another_grid_rejected(self):
        rng = np.random.default_rng(14)
        f = random_trig_field(DomainSpec(n=3, L=2.0, n1=16, n_torus=(8, 8)), rng)
        g = random_trig_field(DomainSpec(n=3, L=2.0, n1=32, n_torus=(4, 6)), rng)
        with pytest.raises(ValueError, match="n1=32.*differs from field grid.*n1=16"):
            norm_bound_ratio(f, decompose(g), 1, 2.0)

    @pytest.mark.parametrize("m", [0, 1])
    def test_split_of_another_field_on_the_grid_rejected(self, m):
        # the split keeps the magnitudes of the field it splits, so a
        # split of v would measure v's gradient in place of u's
        rng = np.random.default_rng(15)
        f, g = (random_trig_field(SPEC3, rng) for _ in range(2))
        for p in (1.0, 2.0, np.inf):
            with pytest.raises(ValueError, match="splits another field"):
                norm_bound_ratio(f, decompose(g), m, p)


class TestKeptMagnitudes:
    def test_each_magnitude_is_built_once_per_split(self, monkeypatch):
        import rarelab.decomp

        calls = []
        real = rarelab.decomp.gradient

        def counted(f):
            calls.append(f)
            return real(f)

        monkeypatch.setattr(rarelab.decomp, "gradient", counted)
        f = random_trig_field(SPEC3, np.random.default_rng(16))
        d = decompose(f)
        for p in (1.0, 2.0, np.inf):
            norm_bound_ratio(f, d, 1, p)
        gn_ratio(f, 0, 1, 2.0, 1.0, 2.0, d=d)
        assert len(calls) == 1 + len(d.parts)

    def test_kept_magnitudes_are_the_fresh_ones(self):
        f = random_trig_field(SPEC3, np.random.default_rng(17))
        d = decompose(f)
        for subset, g in ((None, f), *d.parts.items()):
            kept = d.grad_magnitude(subset)
            assert kept is d.grad_magnitude(subset)
            assert kept.spec == g.spec
            assert np.array_equal(kept.values, grad_magnitude(g))


    def test_gn_ratio_at_first_order_reads_the_kept_magnitudes(self, monkeypatch):
        import rarelab.decomp
        import rarelab.ineqlab

        f = random_trig_field(SPEC3, np.random.default_rng(18))
        want = gn_ratio(f, 1, 2, 2.0, 2.0, 2.0)
        d = decompose(f)
        for p in (1.0, 2.0, np.inf):
            norm_bound_ratio(f, d, 1, p)
        differentiated = []
        for module in (rarelab.decomp, rarelab.ineqlab):
            real = module.gradient
            monkeypatch.setattr(module, "gradient",
                                lambda g, real=real: differentiated.append(g) or real(g))
        got = gn_ratio(f, 1, 2, 2.0, 2.0, 2.0, d=d)
        single = [d.parts[()], d.parts[(2, 3)]]
        assert differentiated  # the second-order right side is built fresh
        assert not any(g is part for g in differentiated for part in single)
        assert got == want


class TestLinearity:
    def test_power_of_two_scaling_bitwise(self):
        rng = np.random.default_rng(21)
        f = Field(SPEC3, rng.standard_normal(SPEC3.shape))
        d1 = decompose(f)
        d2 = decompose(Field(SPEC3, 4.0 * f.values))
        for subset in d1.parts:
            assert np.array_equal(d2.parts[subset].values, 4.0 * d1.parts[subset].values)

    def test_general_linear_combination(self):
        rng = np.random.default_rng(22)
        f = Field(SPEC2, rng.standard_normal(SPEC2.shape))
        g = Field(SPEC2, rng.standard_normal(SPEC2.shape))
        a, b = 1.7, -0.3
        du = decompose(Field(SPEC2, a * f.values + b * g.values))
        df, dg = decompose(f), decompose(g)
        for subset in du.parts:
            combo = a * df.parts[subset].values + b * dg.parts[subset].values
            assert np.max(np.abs(du.parts[subset].values - combo)) < 2e-13


class TestDump:
    def test_component_files_and_manifest(self, tmp_path):
        rng = np.random.default_rng(30)
        f = random_trig_field(SPEC3, rng)
        manifest = dump_components(decompose(f), tmp_path)
        assert (tmp_path / "decomposition.json").exists()
        names = {tuple(c["subset"]): c["file"] for c in manifest["components"]}
        assert () in names and (2, 3) in names
        for c in manifest["components"]:
            assert (tmp_path / c["file"]).exists()
