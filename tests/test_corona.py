"""Stopping-time machinery: CZ cubes, level bands, principal forests, audits."""

import math

import rhomix.corona
import rhomix.grid
import rhomix.maximal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhomix import (
    Cube,
    Domain,
    GridFunction,
    RhoSpec,
    build_forests,
    classify,
    claim_audits,
    cz_on_cube,
    dyadic_sum_pyramid,
    integrate,
    level_decomposition,
    m_dyadic,
    make_function,
    make_weight,
    mixed_verify_dyadic,
    mixed_verify_global,
    principal_select,
    shen_rho,
)

from conftest import (
    brute_cz,
    brute_m_dyadic,
    oscillator,
    pyramid_average,
    random_pow2_cube,
)


def _keys(cubes):
    return [(q.anchor, q.side_cells) for q in cubes]


def test_cz_matches_recursive_oracle():
    rng = np.random.default_rng(71)
    cases = [(1, 4, False), (2, 4, False), (1, 4, True), (2, 4, True),
             (3, 3, False), (3, 3, True)]
    for dim, level, sub in cases:
        dom = Domain(dim, 8.0, level)
        for _ in range(25):
            R = random_pow2_cube(dom, rng) if sub else Cube(dom, (0,) * dim, dom.n)
            g = GridFunction(dom, rng.uniform(0, 1, dom.shape) ** 2)
            lam = float(np.mean(g.values[R.slices()]) * rng.uniform(1.0, 4.0))
            assert _keys(cz_on_cube(g, R, lam)) == _keys(brute_cz(g, R, lam))


def test_cz_selected_averages_sit_in_the_window():
    rng = np.random.default_rng(72)
    for dim in (1, 2):
        dom = Domain(dim, 8.0, 4)
        R = Cube(dom, (0,) * dim, dom.n)
        for _ in range(25):
            g = GridFunction(dom, rng.uniform(0, 1, dom.shape) ** 3)
            lam = float(np.mean(g.values) * rng.uniform(1.0, 3.0))
            for Q in cz_on_cube(g, R, lam):
                avg = pyramid_average(g, R, Q)
                assert lam < avg <= (2 ** dim) * lam


def test_cz_union_is_the_level_set():
    rng = np.random.default_rng(73)
    for dim in (1, 2):
        dom = Domain(dim, 8.0, 4)
        R = Cube(dom, (0,) * dim, dom.n)
        for _ in range(25):
            g = GridFunction(dom, rng.uniform(0, 1, dom.shape) ** 2)
            lam = float(np.mean(g.values) * rng.uniform(1.0, 4.0))
            cubes = cz_on_cube(g, R, lam)
            union = np.zeros(dom.shape, dtype=bool)
            for Q in cubes:
                assert not union[Q.slices()].any()  # disjoint
                union[Q.slices()] = True
            level = m_dyadic(g, R).values > lam
            assert np.array_equal(union, level)


def test_cz_rejects_bad_inputs():
    dom = Domain(1, 8.0, 3)
    R = Cube(dom, (0,), 8)
    with pytest.raises(ValueError):
        cz_on_cube(GridFunction(dom, -np.ones(8)), R, 1.0)
    g = GridFunction.constant(dom, 2.0)
    with pytest.raises(ValueError):
        cz_on_cube(g, R, 1.0)  # root average above the level


def test_cz_empty_when_level_clears_peak():
    dom = Domain(1, 8.0, 3)
    g = GridFunction(dom, np.arange(8.0))
    R = Cube(dom, (0,), 8)
    assert cz_on_cube(g, R, 8.0) == []


def test_level_decomposition_k0_and_unions():
    rng = np.random.default_rng(74)
    dom = Domain(1, 8.0, 6)
    R = Cube(dom, (0,), dom.n)
    g = GridFunction(dom, rng.uniform(0, 1, dom.shape) ** 4)
    dec = level_decomposition(g, R)
    a = dec.a
    assert a == 4.0
    avg = pyramid_average(g, R, R)
    assert a ** (dec.k0 - 1) < avg <= a ** dec.k0
    mdy = m_dyadic(g, R).values
    for k, cubes in dec.levels.items():
        assert k >= dec.k0
        union = np.zeros(dom.shape, dtype=bool)
        for Q in cubes:
            union[Q.slices()] = True
        assert np.array_equal(union, mdy > a ** k)
    # levels run contiguously upward from k0 while nonempty
    ks = sorted(dec.levels)
    assert ks == list(range(dec.k0, dec.k0 + len(ks)))


# numpy's sum of these 16 cells reads 64.0, the pairwise pyramid's
# 64.00000000000001: a k0 taken from numpy's sum (k0 = 1) asked cz_on_cube
# for the level 4.0 under a root average of 4.000000000000001
_SPLIT_G = [
    1.0962051995796587, 2.9307102724314826, 0.2680513804011883,
    0.03368899148319582, 0.27259549586379966, 0.0035928967147324563,
    0.03527875103220066, 0.2158343462263085, 0.04907622313871331,
    0.08926310750269081, 2.716484920324744, 0.007772534409223698,
    0.4518513163276536, 0.004872394758051335, 0.004118523717647171,
    55.82060364608871,
]

# numpy's average of these 16 cells reads 3.9999999999999996, the
# pyramid's 4.000000000000001: a band -1 gate on numpy's average sent the
# cube to cz_on_cube at the level 4.0 it exceeds
_SPLIT_V = [
    9.660024463820278, 5.484659972390814, 2.0091274115615345,
    5.541274606517724, 2.051132306623152, 4.478123267201143,
    2.5549676074776615, 2.3023424430354726, 1.0072499253694893,
    0.6924355700566825, 9.286178270968357, 8.579545747346762,
    3.868008619807312, 1.8660003617033152, 1.9463884023591966,
    2.672541023761109,
]


def test_level_decomposition_k0_reads_the_pyramid():
    dom = Domain(1, 8.0, 4)
    R = Cube(dom, (0,), dom.n)
    g = GridFunction(dom, np.array(_SPLIT_G))
    dec = level_decomposition(g, R)
    top = float(dyadic_sum_pyramid(g.values)[-1][0]) / R.cell_count
    assert dec.a ** (dec.k0 - 1) < top <= dec.a ** dec.k0
    assert dec.k0 == 2 and sorted(dec.levels) == [2]


def test_classify_band_gate_reads_the_pyramid():
    dom = Domain(1, 8.0, 5)
    R = Cube(dom, (0,), dom.n)
    dec = level_decomposition(GridFunction(dom, np.repeat([6.0, 0.0], 16)), R)
    Q = Cube(dom, (0,), 16)
    assert dec.a == 4.0 and dec.levels == {1: [Q]}
    v = GridFunction(dom, np.concatenate([_SPLIT_V, np.ones(16)]))
    cl = classify(dec, v)
    assert cl.bands == {(0, 1): [Q]} and cl.minus1 == {}


@pytest.mark.parametrize("vals", [[5, -5, 0, 0, 0, 0, 0, 0], [5, -6, 0, 0, 0, 0, 0, 0]])
def test_level_decomposition_rejects_negative_g(vals):
    # [5, -5, ...] used to come back empty (root average 0) and
    # [5, -6, ...] to fail in math.log of a negative root average
    dom = Domain(1, 8.0, 3)
    g = GridFunction(dom, np.array(vals, dtype=float))
    with pytest.raises(ValueError, match="needs g >= 0"):
        level_decomposition(g, Cube(dom, (0,), 8))


def test_level_decomposition_builds_one_pyramid(monkeypatch):
    # the tree of g over R gives mdy, k0 and every level; m_dyadic and
    # cz_on_cube would each build one more pyramid
    builds = []
    real = rhomix.grid.dyadic_sum_pyramid

    def counted(values):
        builds.append(np.shape(values))
        return real(values)

    for mod in (rhomix.grid, rhomix.maximal, rhomix.corona):
        if hasattr(mod, "dyadic_sum_pyramid"):
            monkeypatch.setattr(mod, "dyadic_sum_pyramid", counted)
    f, v, g, R = _spiky_instance()
    dec = level_decomposition(g, R)
    assert len(dec.levels) >= 2
    assert builds == [g.domain.shape]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    dim=st.integers(min_value=1, max_value=3),
)
def test_level_decomposition_matches_oracles_property(seed, dim):
    rng = np.random.default_rng(seed)
    dom = Domain(dim, 8.0, {1: 6, 2: 4, 3: 3}[dim])
    R = random_pow2_cube(dom, rng)
    zeros = rng.uniform(size=dom.shape) < 0.3
    g = GridFunction(dom, np.where(zeros, 0.0, rng.uniform(0, 1, dom.shape) ** 3))
    dec = level_decomposition(g, R)
    assert np.allclose(dec.mdy.values, brute_m_dyadic(g, R), rtol=1e-12, atol=0)
    for k, cubes in dec.levels.items():
        assert _keys(cubes) == _keys(brute_cz(g, R, dec.a ** k))
    if not dec.empty:
        # the first level past the last one is empty
        top = dec.k0 + len(dec.levels)
        assert sorted(dec.levels) == list(range(dec.k0, top))
        assert brute_cz(g, R, dec.a ** top) == []


def test_level_decomposition_zero_function():
    dom = Domain(1, 8.0, 4)
    R = Cube(dom, (0,), dom.n)
    dec = level_decomposition(GridFunction.constant(dom, 0.0), R)
    assert dec.empty and dec.levels == {}


def test_level_base_must_beat_dyadic_doubling():
    dom = Domain(2, 8.0, 4)
    R = Cube(dom, (0, 0), dom.n)
    g = GridFunction.constant(dom, 0.5)
    # 2^dim = 4 exactly is not allowed; nan used to fail converting k0 to an
    # integer, and inf built no levels, leaving a nan tail bound downstream
    for a in (4.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"exceed 2\^dim"):
            level_decomposition(g, R, a=a)


def _spiky_instance(seed=212):
    """Frozen instance whose bands and low band both populate."""
    rng = np.random.default_rng(seed)
    dom = Domain(1, 8.0, 6)
    f = make_function(dom, {"kind": "spike", "count": 2}, rng)
    base = np.full(dom.shape, 0.02)
    spots = rng.integers(0, dom.n, 4)
    base[spots] = rng.uniform(3, 9, 4)
    v = GridFunction(dom, base)
    g = GridFunction(dom, np.abs(f.values) * v.values)
    R = Cube(dom, (0,), dom.n)
    return f, v, g, R


def test_classify_partitions_every_level_cube():
    f, v, g, R = _spiky_instance()
    dec = level_decomposition(g, R)
    cl = classify(dec, v)
    a = cl.a
    for k, cubes in dec.levels.items():
        for Q in cubes:
            key = (Q.anchor, Q.side_cells)
            avg_v = pyramid_average(v, R, Q)
            in_minus1 = any(
                (P.anchor, P.side_cells) == key for P in cl.minus1.get(k, [])
            )
            banded = [
                ell
                for (ell, kk), lst in cl.bands.items()
                if kk == k and any((P.anchor, P.side_cells) == key for P in lst)
            ]
            if avg_v < a ** k:
                assert in_minus1 and not banded
            else:
                assert not in_minus1 and len(banded) == 1
                ell = banded[0]
                assert a ** (k + ell) <= avg_v < a ** (k + ell + 1)


def test_classify_band_masks_and_e_sets():
    f, v, g, R = _spiky_instance()
    dec = level_decomposition(g, R)
    cl = classify(dec, v)
    a = cl.a
    mdy = dec.mdy.values
    for k, mask in cl.band_masks.items():
        vals = v.values[mask]
        assert np.all(vals > a ** k) and np.all(vals <= a ** (k + 1))
        assert np.array_equal(cl.e_masks[k], mask & (mdy > v.values))
    # cell bands partition the root cube
    total = np.zeros(v.domain.shape, dtype=int)
    for mask in cl.band_masks.values():
        total += mask.astype(int)
    assert np.all(total[R.slices()] == 1)


def test_classify_secondary_cubes_obey_their_stopping_rule():
    f, v, g, R = _spiky_instance()
    dec = level_decomposition(g, R)
    cl = classify(dec, v)
    a = cl.a
    assert cl.gamma, "band family should populate on this frozen seed"
    assert cl.gamma_minus1, "low-band family should populate on this frozen seed"
    dim = v.domain.dim
    for k, pairs in cl.secondary.items():
        for W, Q in pairs:
            assert Q.contains_cube(W)
            avg_w = pyramid_average(v, R, W)
            assert a ** k < avg_w <= (2 ** dim) * a ** k
    # the kept pairs are exactly those meeting the cell band
    for k, pairs in cl.gamma_minus1.items():
        bmask = cl.band_masks[k]
        for W, Q in pairs:
            assert bmask[W.slices()].any()


def test_classify_requires_positive_v():
    dom = Domain(1, 8.0, 4)
    R = Cube(dom, (0,), dom.n)
    rng = np.random.default_rng(1)
    g = GridFunction(dom, rng.uniform(0.0, 0.1, dom.shape))
    dec = level_decomposition(g, R)
    with pytest.raises(ValueError):
        classify(dec, GridFunction.constant(dom, 0.0))


def test_principal_forest_doubling_rule():
    f, v, g, R = _spiky_instance()
    dec = level_decomposition(g, R)
    cl = classify(dec, v)
    rng = np.random.default_rng(75)
    u = GridFunction(v.domain, np.exp(rng.normal(0, 0.5, v.domain.shape)))
    forests = build_forests(cl, u)
    assert forests, "expected at least one forest"
    assert -1 in forests
    for ell, forest in forests.items():
        avg_u = {
            Q: float(u.values[Q.slices()].sum()) / Q.cell_count
            for Q, _k in forest.nodes
        }
        for node, prin in forest.assignment.items():
            assert prin.contains_cube(node)
            if node not in forest.generations and ell >= 0:
                # a non-principal node never fired the doubling rule
                assert avg_u[node] <= 2.0 * avg_u[prin] * (1 + 1e-12)
        # principal roots are their own assignment
        for Q, gen in forest.generations.items():
            if gen == 0:
                assert forest.assignment[Q] == Q


def test_principal_select_delta_validation():
    f, v, g, R = _spiky_instance()
    dec = level_decomposition(g, R)
    cl = classify(dec, v)
    u = GridFunction.constant(v.domain, 1.0)
    with pytest.raises(ValueError):
        principal_select(cl, u, -1, delta=1e9)


def test_claim_bound_holds_on_tuned_instances():
    rng = np.random.default_rng(76)
    dom = Domain(1, 8.0, 6)
    R = Cube(dom, (0,), dom.n)
    checked = 0
    for _ in range(10):
        f = make_function(dom, {"kind": "spike", "count": 3}, rng)
        v = make_weight(dom, {"kind": "power", "alpha": 2.0}, rng)
        u = make_weight(dom, {"kind": "smooth_random", "amp": 0.5}, rng)
        g = GridFunction(dom, np.abs(f.values) * v.values)
        dec = level_decomposition(g, R)
        if dec.empty or not dec.levels:
            continue
        cl = classify(dec, v)
        forests = build_forests(cl, u)
        if not any(l >= 0 for l in forests):
            continue
        rep = claim_audits(forests, cl, u)
        assert sum(rep.h1_violations.values()) == 0
        assert rep.h1_max_ratio <= 1.0 + 1e-9
        assert rep.bound_constant == pytest.approx(2.0 * rep.u_char)
        checked += 1
    assert checked >= 3


def test_claim_audit_minus1_measurements():
    f, v, g, R = _spiky_instance()
    rng = np.random.default_rng(78)
    u = GridFunction(v.domain, np.exp(rng.normal(0, 0.4, v.domain.shape)))
    dec = level_decomposition(g, R)
    cl = classify(dec, v)
    forests = build_forests(cl, u)
    rep = claim_audits(forests, cl, u)
    assert rep.h2_sup_ratio is not None and rep.h2_sup_ratio >= 0.0
    assert rep.double_sum_max is not None and math.isfinite(rep.double_sum_max)
    assert rep.principal_counts[-1] >= 1


def test_mixed_dyadic_chain_and_tail():
    rng = np.random.default_rng(77)
    dom = Domain(1, 8.0, 7)
    R = Cube(dom, (0,), dom.n)
    done = 0
    for _ in range(12):
        f = make_function(dom, {"kind": "spike", "count": 3}, rng)
        v = make_weight(dom, {"kind": "power", "alpha": 2.0}, rng)
        u = make_weight(dom, {"kind": "two_banded", "c": 3.0}, rng)
        rep = mixed_verify_dyadic(f, u, v, R)
        if rep.empty:
            continue
        assert rep.uv_levelset == pytest.approx(
            rep.sum_upper + rep.tail_sum, rel=1e-12, abs=1e-300
        )
        assert rep.upper_le_terms
        assert rep.tail_ok
        assert rep.ratio == pytest.approx(rep.uv_levelset / rep.integral)
        done += 1
    assert done >= 6


def test_mixed_dyadic_ledger_rows():
    f, v, g, R = _spiky_instance()
    rng = np.random.default_rng(78)
    u = GridFunction(v.domain, np.exp(rng.normal(0, 0.4, v.domain.shape)))
    rep = mixed_verify_dyadic(f, u, v, R)
    assert not rep.empty
    kinds = {row["kind"] for row in rep.level_rows}
    assert kinds == {"gamma", "gamma_minus1"}
    for row in rep.level_rows:
        assert row["cubes"] >= 1
        assert row["u_mass"] >= 0.0
        assert (row["ell"] == -1) == (row["kind"] == "gamma_minus1")
    assert rep.term_II > 0.0
    assert rep.integral == pytest.approx(
        integrate(GridFunction(v.domain, np.abs(f.values) * u.values * v.values), R),
        rel=1e-12,
    )


def test_mixed_global_constants_finite_and_grid_below_exact():
    rng = np.random.default_rng(79)
    dom = Domain(1, 8.0, 6)
    f = make_function(dom, {"kind": "spike", "count": 3}, rng)
    u = make_weight(dom, {"kind": "smooth_random", "amp": 0.4}, rng)
    v = make_weight(dom, {"kind": "power", "alpha": 1.5}, rng)
    rep = mixed_verify_global(f, u, v, RhoSpec.classical())
    assert math.isfinite(rep.constant_exact) and rep.constant_exact > 0
    assert rep.constant_grid <= rep.constant_exact * (1 + 1e-9)
    assert rep.sigma == 0.0  # classical collapses the exponent recipe
    assert rep.N0 == 1 and rep.N1 == 0.0
    assert math.isfinite(rep.loc_constant) and math.isfinite(rep.glob_constant)


def test_mixed_global_sigma_recipe_nonclassical():
    rng = np.random.default_rng(80)
    dom = Domain(1, 8.0, 5)
    f = make_function(dom, {"kind": "spike", "count": 2}, rng)
    u = make_weight(dom, {"kind": "constant", "value": 1.0}, rng)
    v = make_weight(dom, {"kind": "constant", "value": 1.0}, rng)
    rho = RhoSpec.analytic(lambda pts: 1.0 / (1.0 + np.linalg.norm(pts, axis=1)))
    rep = mixed_verify_global(f, u, v, rho, theta=1.0)
    assert rep.sigma == pytest.approx((rep.N1 + rep.theta + 1.0) * (rep.N0 + 1.0))
    assert math.isfinite(rep.constant_exact)
    assert rep.covering_cubes >= 1


def test_mixed_global_with_the_oscillator_shen_rho():
    # V = |x - c|^2 in dim 3: the Shen radius decays like 1/|x - c|, so
    # rho (1 + |x - c|) stays two-sided bounded.  On this grid no center is
    # capped and the product spans [0.912, 2.538], largest near the faces,
    # where the ball leaves the box and meets no potential
    dom = Domain(3, 2.0, 3)
    rho = RhoSpec.shen(oscillator(dom))
    centers = dom.cell_centers()
    res = [shen_rho(rho.potential, x) for x in centers]
    assert not any(r.capped for r in res)
    scaled = np.array([r.value for r in res]) * (
        1.0 + np.linalg.norm(centers - dom.side / 2.0, axis=1)
    )
    assert 0.9 <= scaled.min() and scaled.max() <= 2.6
    rng = np.random.default_rng(83)
    f = make_function(dom, {"kind": "spike", "count": 3}, rng)
    u = make_weight(dom, {"kind": "smooth_random", "amp": 0.4}, rng)
    v = make_weight(dom, {"kind": "smooth_random", "amp": 0.4}, rng)
    rep = mixed_verify_global(f, u, v, rho)
    assert math.isfinite(rep.constant_exact) and rep.constant_exact > 0
    assert rep.constant_grid <= rep.constant_exact * (1 + 1e-9)
    assert math.isfinite(rep.loc_constant) and math.isfinite(rep.glob_constant)
    assert rep.sigma == pytest.approx((rep.N1 + rep.theta + 1.0) * (rep.N0 + 1.0))
    assert rep.covering_cubes >= 1


def test_mixed_global_zero_function_regression():
    # f = 0 used to raise "Geometric sequence cannot include zero" while
    # building the default t grid
    rng = np.random.default_rng(82)
    dom = Domain(1, 8.0, 5)
    u = make_weight(dom, {"kind": "smooth_random", "amp": 0.4}, rng)
    v = make_weight(dom, {"kind": "power", "alpha": 1.5}, rng)
    rep = mixed_verify_global(GridFunction.constant(dom, 0.0), u, v, RhoSpec.classical())
    assert rep.t_grid == (1.0,)
    assert rep.integral == 0.0
    assert rep.constant_grid == math.inf


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_cz_union_and_window_property(seed):
    rng = np.random.default_rng(seed)
    dom = Domain(1, 8.0, 5)
    R = Cube(dom, (0,), dom.n)
    g = GridFunction(dom, rng.uniform(0, 1, dom.shape) ** 2)
    lam = float(np.mean(g.values)) * 1.5
    cubes = cz_on_cube(g, R, lam)
    union = np.zeros(dom.shape, dtype=bool)
    for Q in cubes:
        avg = pyramid_average(g, R, Q)
        assert lam < avg <= 2 * lam
        union[Q.slices()] = True
    assert np.array_equal(union, m_dyadic(g, R).values > lam)
