"""Stopping-time machinery: CZ cubes, level bands, principal forests, audits."""

import math

import rhomix.corona
import rhomix.critical
import rhomix.experiments
import rhomix.grid
import rhomix.maximal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhomix import (
    Cube,
    Domain,
    DomainMismatchError,
    GridFunction,
    InvalidWeightError,
    RhoSpec,
    SumOverflowError,
    build_forests,
    classify,
    claim_audits,
    cz_on_cube,
    default_config,
    dyadic_sum_pyramid,
    generate_suite,
    integrate,
    level_decomposition,
    m_dyadic,
    make_function,
    make_weight,
    mixed_verify_dyadic,
    mixed_verify_global,
    principal_select,
    rho_from_json,
    run_experiment,
    shen_rho,
    tree_a1,
)
from rhomix.corona import PrincipalForest, _row_cubes

from conftest import (
    brute_cz,
    brute_m_dyadic,
    cell_chain_double_sum,
    cube_by_cube_classify,
    cube_forest,
    cube_lists,
    node_by_node_forest,
    oscillator,
    pyramid_average,
    random_pow2_cube,
    slice_sum,
    slice_sum_terms,
    split_domains,
    walk_forest,
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
    for k, rows in dec.levels.items():
        assert k >= dec.k0
        union = np.zeros(dom.shape, dtype=bool)
        for Q in _row_cubes(R, rows):
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
    assert dec.a == 4.0 and list(dec.levels) == [1]
    assert dec.levels[1].tolist() == [[4, 0]] and _row_cubes(R, dec.levels[1]) == [Q]
    v = GridFunction(dom, np.concatenate([_SPLIT_V, np.ones(16)]))
    cl = classify(dec, v)
    assert cube_lists(cl).bands == {(0, 1): [Q]} and cl.minus1 == {}


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
    # cz_on_cube would each build one more pyramid.  A whole corona run
    # then builds one pyramid of v (classify), one of u 1_{E_k} per band k
    # with Gamma cubes and one of u (term II) in mixed_verify_dyadic, one of
    # u for all the forests and one of u for the double sum: a count of
    # bands, where a pyramid per band -1 cube (cz_on_cube's) grew with the
    # cubes and one per forest with the forests
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

    g, u, v, R = _low_band_instance(1, 2, False)
    builds.clear()
    rep = mixed_verify_dyadic(GridFunction(g.domain, g.values / v.values), u, v, R)
    forests = build_forests(rep.classified, u)
    claim_audits(forests, rep.classified, u)
    bands = len({k for _ell, k in rep.classified.gamma})
    assert -1 in forests and sum(map(len, rep.classified.minus1.values())) == 9
    assert builds == [g.domain.shape] * (5 + bands)


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
    for k, rows in dec.levels.items():
        assert _keys(_row_cubes(R, rows)) == _keys(brute_cz(g, R, dec.a ** k))
    if not dec.empty:
        # the first level past the last one is empty
        top = dec.k0 + len(dec.levels)
        assert sorted(dec.levels) == list(range(dec.k0, top))
        assert brute_cz(g, R, dec.a ** top) == []


def test_level_decomposition_refuses_a_peak_past_the_powers_of_a():
    # a peak of g past a's largest finite power (4^511 at the default a = 4)
    # raised a bare OverflowError from Python's pow, here and in
    # mixed_verify_dyadic; a peak on that power still decomposes
    dom = Domain(1, 8.0, 3)
    R = Cube.box(dom)
    one = GridFunction.constant(dom, 1.0)
    g = GridFunction(dom, np.array([1.5e308] + [1.0] * 7))
    msg = r"peak of g \(1\.5e\+308\) passes the largest finite power of a = 4\.0"
    with pytest.raises(ValueError, match=msg):
        level_decomposition(g, R)
    with pytest.raises(ValueError, match=msg):
        mixed_verify_dyadic(g, one, one, R)
    top = level_decomposition(GridFunction(dom, np.array([4.0**511] + [1.0] * 7)), R)
    assert max(top.levels) == 510


def test_corona_refuses_an_overflowed_block_sum():
    # two finite cells whose sum overflows warned, then m_dyadic and
    # level_decomposition failed on "grid function values must be finite"
    # and cz_on_cube on "avg over the root (inf) exceeds the level"
    dom = Domain(1, 8.0, 3)
    R = Cube.box(dom)
    g = GridFunction(dom, np.array([1e308, 1e308] + [1.0] * 6))
    for run in (lambda: m_dyadic(g, R), lambda: level_decomposition(g, R),
                lambda: cz_on_cube(g, R, 1e300)):
        with pytest.raises(SumOverflowError, match="block sum of finite values overflows"):
            run()


def test_stopping_time_root_on_another_domain_is_a_domain_mismatch():
    g = GridFunction(Domain(1, 8.0, 4), np.ones(16))
    R = Cube(Domain(1, 4.0, 4), (0,), 16)
    with pytest.raises(DomainMismatchError, match="root cube"):
        level_decomposition(g, R)
    with pytest.raises(DomainMismatchError, match="root cube"):
        cz_on_cube(g, R, 2.0)


@pytest.mark.parametrize("dim, side", [(1, 3), (1, 12), (2, 6)])
def test_stopping_time_root_needs_a_power_of_two_side(dim, side):
    # the pyramid's "needs a cubical power-of-two array" named no cube
    dom = Domain(dim, 8.0, 4)
    R = Cube(dom, (0,) * dim, side)
    g = GridFunction.constant(dom, 0.5)
    with pytest.raises(ValueError, match=f"power-of-two side, got {side} cells"):
        level_decomposition(g, R)
    with pytest.raises(ValueError, match=f"power-of-two side, got {side} cells"):
        cz_on_cube(g, R, 1.0)


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
    lists = cube_lists(cl)
    for k, cubes in lists.levels.items():
        for Q in cubes:
            key = (Q.anchor, Q.side_cells)
            avg_v = pyramid_average(v, R, Q)
            in_minus1 = any(
                (P.anchor, P.side_cells) == key for P in lists.minus1.get(k, [])
            )
            banded = [
                ell
                for (ell, kk), lst in lists.bands.items()
                if kk == k and any((P.anchor, P.side_cells) == key for P in lst)
            ]
            if avg_v < a ** k:
                assert in_minus1 and not banded
            else:
                assert not in_minus1 and len(banded) == 1
                ell = banded[0]
                assert a ** (k + ell) <= avg_v < a ** (k + ell + 1)


def test_band_index_reads_the_powers_of_a_from_pythons_pow():
    """x = a**k exactly (Python's pow, the C library's) lands in cell band
    k - 1 (a^(k-1) < x <= a^k) and in _floor_band's band k, the powers
    level_decomposition compares against.  Numpy's vectorised power rounds
    a^k to the neighbouring float on some (a, k) when a is not a power of
    two (5% of this grid on an x86 host, 2.09^-43 among them), and a cell
    sitting on a^k then landed in the wrong band; on a CPU where the two
    agree every pair is still checked."""
    ks = np.arange(-60, 61)
    for a in np.round(np.arange(2.01, 40.0, 0.08), 2).tolist():
        x = np.array([a ** int(k) for k in ks])
        assert np.array_equal(rhomix.corona._band_index(x, a), ks - 1), a
        assert [rhomix.corona._floor_band(float(t), a) for t in x] == ks.tolist(), a
    x = np.array([2.09 ** -43])
    assert rhomix.corona._band_index(x, 2.09).tolist() == [-44]


def test_classify_bands_a_v_average_past_the_powers_of_a():
    # a v average past a's largest finite power (4^511) raised a bare
    # OverflowError from Python's pow while _floor_band banded it
    dom = Domain(1, 8.0, 3)
    R = Cube.box(dom)
    f = GridFunction(dom, np.array([1e-300] + [1.0] * 7))
    v = GridFunction(dom, np.array([1.5e308] + [1.0] * 7))
    rep = mixed_verify_dyadic(f, GridFunction.constant(dom, 1.0), v, R)
    assert cube_lists(rep.classified).bands == {(498, 13): [Cube(dom, (0,), 2)]}
    assert rep.upper_le_terms and rep.tail_ok
    assert rhomix.corona._floor_band(1.5e308, 4.0) == 511


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
    lists = cube_lists(cl)
    for k, pairs in lists.secondary.items():
        for W, Q in pairs:
            assert Q.contains_cube(W)
            avg_w = pyramid_average(v, R, W)
            assert a ** k < avg_w <= (2 ** dim) * a ** k
    # the kept pairs are exactly those meeting the cell band
    for k, pairs in lists.gamma_minus1.items():
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
        forest = cube_forest(forest, R)
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


def _low_band_instance(seed, dim, sub):
    """(g, u, v, R): g = |f| v spikes on a few cells of R, over a v that
    stays under 1 but for scattered high cells, so the stopping cubes
    around the spikes often average v below their level.  Draws repeat
    from the seed's rng until band -1 populates (classify yields
    gamma_minus1 cubes), so every seed gives an instance; dim 3 under a
    half-side root takes the most draws, at most 256 on seeds 0-599.  sub
    roots the build at a half-side cube of the box."""
    rng = np.random.default_rng(seed)
    dom = Domain(dim, 8.0, {1: 6, 2: 4, 3: 3}[dim])
    R = Cube.box(dom)
    if sub:
        half = dom.n // 2
        R = Cube(dom, tuple(int(c) * half for c in rng.integers(0, 2, dim)), half)
    for _ in range(1000):
        v = 10 ** rng.uniform(-2, 0, dom.shape)
        flat = v.reshape(-1)
        spots = rng.integers(0, flat.size, int(rng.integers(2, 3 * dom.n)))
        flat[spots] = 10 ** rng.uniform(0, 3, spots.size)
        g = np.zeros(dom.shape)
        cells = rng.integers(0, R.side_cells, (int(rng.integers(1, 6)), dim)) + R.anchor
        g[tuple(cells.T)] = 10 ** rng.uniform(1, 5, len(cells))
        u = np.exp(rng.normal(0, 0.7, dom.shape))
        g, u, v = GridFunction(dom, g), GridFunction(dom, u), GridFunction(dom, v)
        dec = level_decomposition(g, R)
        if not dec.empty and classify(dec, v).gamma_minus1:
            return g, u, v, R
    raise AssertionError(f"band -1 stayed empty on 1000 draws of seed {seed}")


def _check_walk_oracles(g, u, v, R):
    """Every forest equals the ancestor-walk oracle's, and the -1 double sum
    the per-cell chain oracle's, float for float; returns the forests."""
    cl = classify(level_decomposition(g, R), v)
    forests = build_forests(cl, u)
    assert -1 in forests
    for ell, forest in forests.items():
        nodes, generations, assignment, h = walk_forest(cl, u, ell, forest.delta)
        forest = cube_forest(forest, R)
        assert forest.nodes == nodes
        assert list(forest.generations.items()) == list(generations.items())
        assert list(forest.assignment.items()) == list(assignment.items())
        assert forest.h.values.tobytes() == h.tobytes()
    rep = claim_audits(forests, cl, u)
    assert rep.double_sum_max == cell_chain_double_sum(forests[-1], cl, u)
    return forests


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    dim=st.integers(min_value=1, max_value=2),
    sub=st.booleans(),
)
def test_forests_and_double_sum_match_the_walk_oracles_property(seed, dim, sub):
    _check_walk_oracles(*_low_band_instance(seed, dim, sub))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    dim=st.integers(min_value=1, max_value=3),
    sub=st.booleans(),
)
def test_band_minus1_pieces_are_cz_on_cube_property(seed, dim, sub):
    """classify reads each band -1 cube's pieces off the slice of v's tree
    under it: the cubes cz_on_cube(v, Q, a^k) returns, in its order (term
    II sums them in pair order)."""
    g, u, v, R = _low_band_instance(seed, dim, sub)
    cl = classify(level_decomposition(g, R), v)
    secondary, gamma = {}, {}
    lists = cube_lists(cl)
    for k, cubes in lists.minus1.items():
        for Q in cubes:
            for W in cz_on_cube(v, Q, cl.a**k):
                secondary.setdefault(k, []).append((W, Q))
                if k in cl.band_masks and cl.band_masks[k][W.slices()].any():
                    gamma.setdefault(k, []).append((W, Q))
    assert lists.secondary == secondary
    assert lists.gamma_minus1 == gamma


def _instance_sets():
    """(f, u, v, R) of the standard corona-run suites (dims 1-3, seed 7),
    the spiky instance and band -1 instances (dims 1-3, box and half-side
    roots)."""
    for dim, level in ((1, 6), (2, 4), (3, 3)):
        bundle = rhomix.experiments._suite(default_config("corona-run", dim, level, seed=7))
        R = Cube.box(bundle.domain)
        for pair in bundle.pairs:
            for f in bundle.fs[:4]:
                yield f, pair.u, pair.v, R
    f, v, _g, R = _spiky_instance()
    yield f, GridFunction(v.domain, np.exp(np.random.default_rng(78).normal(0, 0.4, 64))), v, R
    for seed in range(4):
        for dim in (1, 2, 3):
            g, u, v, R = _low_band_instance(seed, dim, seed % 2 == 1)
            yield GridFunction(g.domain, g.values / v.values), u, v, R


def test_pyramid_reads_of_u_stay_within_1e13_of_the_slice_sums():
    """Terms I and II, h1, h2 and the double sum read u off pyramids over R;
    numpy's slice sums group the terms otherwise, so the floats may move in
    the last bits, never further, and no forest changes shape."""
    low = 0
    for f, u, v, R in _instance_sets():
        rep = mixed_verify_dyadic(f, u, v, R)
        if rep.empty:
            continue
        cl = rep.classified
        term_I, term_II = slice_sum_terms(cl, u)
        assert rep.term_I == pytest.approx(term_I, rel=1e-13, abs=0)
        assert rep.term_II == pytest.approx(term_II, rel=1e-13, abs=0)
        forests = build_forests(cl, u)
        for ell, forest in forests.items():
            nodes, generations, assignment, h = walk_forest(cl, u, ell, forest.delta, slice_sum)
            cubes = cube_forest(forest, R)
            assert (cubes.nodes, cubes.generations, cubes.assignment) == (
                nodes, generations, assignment)
            assert np.allclose(forest.h.values, h, rtol=1e-13, atol=0)
        if -1 in forests:
            low += 1
            assert claim_audits(forests, cl, u).double_sum_max == pytest.approx(
                cell_chain_double_sum(forests[-1], cl, u, slice_sum), rel=1e-13, abs=0)
    assert low >= 12


def test_forests_and_double_sum_match_the_walk_oracles_dim3():
    g, u, v, R = _low_band_instance(15, 3, False)
    _check_walk_oracles(g, u, v, R)


def test_low_band_piece_nested_in_a_piece_matches_the_oracles():
    """At level 1 the stopping cube [0, 8) averages v at 3.9575 < 4 and
    yields the piece [0, 4) (v average 7.905, meeting the band (4, 16] at
    cell 2); at level 2 the stopping cube [0, 2) yields the piece [1, 2)
    (v = 24, in the band (16, 64]).  So the -1 forest nests one piece in
    another, and u's peak on cell 1 makes the inner piece principal."""
    dom = Domain(1, 8.0, 4)
    v = np.full(16, 0.01)
    v[1], v[2] = 24.0, 7.6
    g = np.zeros(16)
    g[0] = 48.0
    u = np.ones(16)
    u[1] = 50.0
    R = Cube.box(dom)
    forests = _check_walk_oracles(
        GridFunction(dom, g), GridFunction(dom, u), GridFunction(dom, v), R
    )
    low = cube_forest(forests[-1], R)
    outer, inner = Cube(dom, (0,), 4), Cube(dom, (1,), 1)
    assert low.nodes == ((outer, 1), (inner, 2))
    assert low.generations == {outer: 0, inner: 1}


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


def test_corona_run_measures_each_u_once(monkeypatch):
    """corona-run measures [u] = tree_a1(u, R) once per distinct u (the
    factor pair reuses the first pair's u) and hands it to
    mixed_verify_dyadic and claim_audits, which give the reports they give
    when they measure it themselves."""
    config = default_config("corona-run", dim=1, level=5, seed=7)
    calls = []
    monkeypatch.setattr(
        rhomix.experiments, "tree_a1", lambda u, R: calls.append(u) or tree_a1(u, R)
    )
    run_experiment(config)
    pairs = rhomix.experiments._suite(config).pairs
    assert len(calls) == len({id(p.u) for p in pairs}) < len(pairs)

    f, v, g, R = _spiky_instance()
    rng = np.random.default_rng(79)
    u = GridFunction(v.domain, np.exp(rng.normal(0, 0.4, v.domain.shape)))
    rep = mixed_verify_dyadic(f, u, v, R)
    assert mixed_verify_dyadic(f, u, v, R, u_char=tree_a1(u, R)) == rep
    forests = build_forests(rep.classified, u)
    assert claim_audits(forests, rep.classified, u, tree_a1(u, R)) == claim_audits(
        forests, rep.classified, u
    )


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
    assert math.isfinite(rep.loc_constant) and math.isfinite(rep.glob_constant)


def _recipe_sigma(rho, dom, theta):
    """The sigma recipe off the audits' reports kept on rho."""
    adm = rhomix.critical.audit_admissibility(rho, dom, pair_sample_size=2000)
    cover = rhomix.critical.critical_covering(rho, dom)
    return (max(cover.N1, 0.0) + theta + 1.0) * (adm.N0 + 1.0), adm, cover


def test_mixed_global_sigma_recipe_nonclassical(monkeypatch):
    rng = np.random.default_rng(80)
    dom = Domain(1, 8.0, 5)
    f = make_function(dom, {"kind": "spike", "count": 2}, rng)
    u = make_weight(dom, {"kind": "constant", "value": 1.0}, rng)
    v = make_weight(dom, {"kind": "constant", "value": 1.0}, rng)
    rho = RhoSpec.analytic(lambda pts: 1.0 / (1.0 + np.linalg.norm(pts, axis=1)))
    used = []

    def spy(audit):
        def call(*args, **kwargs):
            used.append(audit(*args, **kwargs))
            return used[-1]
        return call

    for name in ("audit_admissibility", "critical_covering"):
        monkeypatch.setattr(rhomix.corona, name, spy(getattr(rhomix.critical, name)))
    rep = mixed_verify_global(f, u, v, rho, theta=1.0)
    sigma, adm, cover = _recipe_sigma(rho, dom, rep.theta)
    assert len(used) == 2 and used[0] is adm and used[1] is cover
    assert rep.sigma == sigma
    assert math.isfinite(rep.constant_exact)


@pytest.mark.parametrize("dim,level", [(1, 6), (2, 4)])
def test_pinned_mixed_global_runs_no_audit(monkeypatch, dim, level):
    def refuse(*args, **kwargs):
        raise AssertionError("a pinned sigma needs no audit")

    monkeypatch.setattr(rhomix.corona, "audit_admissibility", refuse)
    monkeypatch.setattr(rhomix.corona, "critical_covering", refuse)
    rng = np.random.default_rng(84)
    dom = Domain(dim, 8.0, level)
    f = make_function(dom, {"kind": "spike", "count": 3}, rng)
    u = make_weight(dom, {"kind": "smooth_random", "amp": 0.4}, rng)
    v = make_weight(dom, {"kind": "smooth_random", "amp": 0.4}, rng)
    rho = rho_from_json({"kind": "analytic", "name": "inv_one_plus_dist"})
    rep = mixed_verify_global(f, u, v, rho, sigma=3.0)
    assert rep.sigma == 3.0
    assert math.isfinite(rep.constant_exact) and rep.constant_exact > 0
    # the sweep's penalties still refuse a bad rho without the audits
    bad = RhoSpec.analytic(lambda pts: -np.ones(pts.shape[0]))
    with pytest.raises(ValueError, match="non-positive"):
        mixed_verify_global(f, u, v, bad, sigma=3.0, theta=1.0)


def test_mixed_m_covers_no_refined_level(monkeypatch):
    # the refinement call pins sigma, so only the suite's own level is covered
    levels = []
    covering = rhomix.critical.critical_covering
    monkeypatch.setattr(
        rhomix.corona, "critical_covering",
        lambda rho, dom: levels.append(dom.level) or covering(rho, dom),
    )
    config = default_config("mixed-M", 1, 6)
    config["suite"]["rho"] = {"kind": "analytic", "name": "inv_one_plus_dist"}
    run_experiment(config)
    assert levels and set(levels) == {6}


@pytest.mark.parametrize("weight", ["u", "v"])
@pytest.mark.parametrize("cell", [0.0, -1.0])
def test_mixed_global_refuses_non_weights(weight, cell):
    rng = np.random.default_rng(85)
    dom = Domain(1, 8.0, 5)
    f = make_function(dom, {"kind": "spike", "count": 2}, rng)
    w = {name: make_weight(dom, {"kind": "smooth_random", "amp": 0.4}, rng)
         for name in ("u", "v")}
    bad = w[weight].values.copy()
    bad[3] = cell
    w[weight] = GridFunction(dom, bad)
    with pytest.raises(InvalidWeightError):
        mixed_verify_global(f, w["u"], w["v"], RhoSpec.classical())


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
    assert rep.sigma == _recipe_sigma(rho, dom, rep.theta)[0]


def test_mixed_verify_dyadic_refuses_mixed_domains():
    f, u, v = split_domains()
    R = Cube(f.domain, (0,), f.domain.n)
    with pytest.raises(DomainMismatchError):
        mixed_verify_dyadic(f, u, v, R)
    with pytest.raises(DomainMismatchError):
        mixed_verify_dyadic(
            f, GridFunction(v.domain, u.values), GridFunction(f.domain, v.values), R
        )


@settings(max_examples=10, deadline=None)
@given(
    dim_level=st.sampled_from([(1, 5), (1, 6), (2, 3), (2, 4)]),
    rho_json=st.sampled_from(
        [{"kind": "classical"}, {"kind": "analytic", "name": "inv_one_plus_dist"}]
    ),
    seed=st.integers(1, 5),
)
def test_refinement_never_lowers_the_pinned_mixed_constant(dim_level, rho_json, seed):
    """With sigma and theta pinned, the constant on the refined grid is at
    least the coarse one, up to rounding: the finer family holds every
    coarse cube with the same center, radius and average, and the uv
    measure of a cell's children sums to the cell's.  So mixed-M's
    refinement drift only ever measures a rise."""
    dim, level = dim_level
    spec = default_config("mixed-M", dim, level, seed)["suite"]
    spec.update(pair_count=3, f_count=3, rho=rho_json)
    bundle = generate_suite(spec, seed)
    refine = rhomix.experiments._refine
    for pair in bundle.pairs[:3]:
        for f in bundle.fs:
            coarse = mixed_verify_global(f, pair.u, pair.v, bundle.rho, theta=1.0)
            fine = mixed_verify_global(
                refine(f), refine(pair.u), refine(pair.v), bundle.rho,
                sigma=coarse.sigma, theta=coarse.theta,
            )
            assert fine.constant_exact >= coarse.constant_exact * (1 - 1e-12)


def test_mixed_verify_global_refuses_mixed_domains():
    f, u, v = split_domains()
    with pytest.raises(DomainMismatchError):
        mixed_verify_global(f, u, v, RhoSpec.constant(0.5))
    with pytest.raises(DomainMismatchError):
        mixed_verify_global(f, GridFunction(v.domain, u.values), u, RhoSpec.classical())


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


# ---------------------------------------------------------------------------
# classify and the forests against the cube-by-cube and node-by-node oracles


def _same_classified(got, want):
    """Every dict of a ClassifiedLevels, as cube_lists gives it, equal to
    the oracle's, key order included, and their cell-band and E masks equal
    cell for cell."""
    got = cube_lists(got)
    for name in ("bands", "minus1", "secondary", "gamma", "gamma_minus1"):
        assert list(getattr(got, name).items()) == list(getattr(want, name).items()), name
    for name in ("band_masks", "e_masks"):
        g, w = getattr(got, name), getattr(want, name)
        assert list(g) == list(w)
        assert all(np.array_equal(g[k], w[k]) for k in g), name


def _same_forest(got, want, R):
    """A forest, as cube_forest gives it, equal to the oracle's (or to
    another forest's), node order and dict orders included; the primaries
    are compared as a mapping, the forest holding them in node order and the
    oracle in pair order."""
    got = cube_forest(got, R)
    if isinstance(want, PrincipalForest):
        want = cube_forest(want, R)
    assert got.ell == want.ell and got.delta == want.delta
    assert got.nodes == want.nodes
    assert list(got.generations.items()) == list(want.generations.items())
    assert list(got.assignment.items()) == list(want.assignment.items())
    assert got.primary_parent == want.primary_parent
    assert got.h.values.tobytes() == want.h.values.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    dim=st.integers(min_value=1, max_value=3),
    sub=st.booleans(),
)
def test_classify_and_forests_are_the_per_cube_oracles_property(seed, dim, sub):
    """classify's level-at-once banding and gating gives the cube-by-cube
    classify's dicts, and every forest, band -1 included, is the
    node-by-node walk's, float for float, in dims 1-3."""
    g, u, v, R = _low_band_instance(seed, dim, sub)
    decomp = level_decomposition(g, R)
    cl = classify(decomp, v)
    _same_classified(cl, cube_by_cube_classify(decomp, v))
    forests = build_forests(cl, u)
    assert -1 in forests
    for ell, forest in forests.items():
        _same_forest(forest, node_by_node_forest(cl, u, ell), R)


def test_classify_and_forests_on_the_instance_sets_are_the_per_cube_oracles():
    """The standard corona-run suites in dims 1-3, the spiky instance and
    band -1 instances: the same dicts and forests as the oracles."""
    for f, u, v, R in _instance_sets():
        g = GridFunction(f.domain, np.abs(f.values) * v.values)
        decomp = level_decomposition(g, R)
        if decomp.empty:
            continue
        cl = classify(decomp, v)
        _same_classified(cl, cube_by_cube_classify(decomp, v))
        for ell, forest in build_forests(cl, u).items():
            _same_forest(forest, node_by_node_forest(cl, u, ell), R)
            _same_forest(principal_select(cl, u, ell), forest, R)


def test_forests_read_one_u_pyramid_however_many_forests(monkeypatch):
    """build_forests reads every forest off one sum pyramid of u over R,
    so a corona call's u pyramids do not grow with its forests."""
    builds = []
    real = rhomix.corona.dyadic_sum_pyramid
    monkeypatch.setattr(
        rhomix.corona, "dyadic_sum_pyramid", lambda values: builds.append(1) or real(values)
    )
    counted = 0
    for f, u, v, R in _instance_sets():
        g = GridFunction(f.domain, np.abs(f.values) * v.values)
        decomp = level_decomposition(g, R)
        if decomp.empty:
            continue
        cl = classify(decomp, v)
        builds.clear()
        forests = build_forests(cl, u)
        assert len(builds) == (1 if forests else 0)
        counted += len(forests) >= 2
    assert counted >= 5


def test_the_verifier_builds_no_cube(monkeypatch):
    """mixed_verify_dyadic, build_forests and claim_audits keep every cube
    as a (j, idx) row: on the d2 L5 corona-run suite, where no band -1
    forest forms (its ainf_epsilon names weight witnesses, which are
    Cubes), none of them builds a Cube once [u] is given.  Band -1 cubes
    still come up, so classify's pieces run too."""
    bundle = rhomix.experiments._suite(default_config("corona-run", 2, 5, seed=7))
    R = Cube.box(bundle.domain)
    chars = [tree_a1(pair.u, R) for pair in bundle.pairs]

    def refuse(cube):
        raise AssertionError(f"the verifier built {cube}")

    monkeypatch.setattr(Cube, "__post_init__", refuse)
    lows = forests_seen = 0
    for pair, u_char in zip(bundle.pairs, chars):
        for f in bundle.fs[:4]:
            rep = mixed_verify_dyadic(f, pair.u, pair.v, R, u_char=u_char)
            if rep.empty:
                continue
            forests = build_forests(rep.classified, pair.u)
            claim_audits(forests, rep.classified, pair.u, u_char)
            assert -1 not in forests
            lows += bool(rep.classified.minus1)
            forests_seen += len(forests)
    assert lows >= 2 and forests_seen >= 20
