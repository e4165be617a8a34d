"""Grid layer: domains, cubes, prefix sums, dyadic pyramids, file round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhomix import (
    ALL_CELL_ALIGNED,
    DYADIC_GRID_OF,
    DYADIC_SIDES,
    BoxSums,
    Cube,
    Domain,
    DomainMismatchError,
    GridFunction,
    InvalidWeightError,
    average,
    dyadic_average_tree,
    dyadic_averages,
    dyadic_sum_pyramid,
    enumerate_cubes,
    integrate,
    load_grid_function,
    require_weight,
    save_grid_function,
)

from conftest import brute_average, cubes_of


def test_domain_geometry():
    dom = Domain(2, 8.0, 3)
    assert dom.n == 8
    assert dom.shape == (8, 8)
    assert dom.cell_width == 1.0
    assert dom.cell_volume == 1.0
    centers = dom.cell_centers()
    assert centers.shape == (64, 2)
    # row-major: first row scans the last axis
    assert np.allclose(centers[0], [0.5, 0.5])
    assert np.allclose(centers[1], [0.5, 1.5])
    ax = dom.axis_centers()
    assert np.allclose(ax, np.arange(8) + 0.5)


def test_domain_refine_doubles_cells():
    dom = Domain(1, 4.0, 2)
    fine = dom.refine()
    assert fine.level == 3 and fine.n == 8
    assert fine.side == dom.side
    assert fine.cell_width == dom.cell_width / 2


def test_cube_geometry_and_mask():
    dom = Domain(2, 8.0, 3)
    Q = Cube(dom, (2, 4), 2)
    assert Q.cell_count == 4
    assert Q.volume == 4.0
    assert Q.side_length == 2.0
    # radius is half the diagonal of the box
    assert Q.radius == pytest.approx(math.sqrt(2) * 2.0 / 2)
    assert np.allclose(Q.center(), [3.0, 5.0])
    m = Q.mask()
    assert m.sum() == 4
    assert m[2, 4] and m[3, 5] and not m[1, 4]
    assert Q.contains_cell((3, 5)) and not Q.contains_cell((4, 4))


def test_cube_children_partition_parent():
    dom = Domain(2, 8.0, 3)
    Q = Cube(dom, (0, 4), 4)
    kids = Q.children()
    assert len(kids) == 4
    assert all(k.side_cells == 2 for k in kids)
    union = np.zeros(dom.shape, dtype=int)
    for k in kids:
        assert Q.contains_cube(k)
        union += k.mask().astype(int)
    assert np.array_equal(union, Q.mask().astype(int))


def test_odd_side_cube_cannot_bisect():
    dom = Domain(1, 2.0, 1)
    with pytest.raises(ValueError):
        Cube(dom, (0,), 1).children()


def test_box_sums_match_direct_slicing():
    rng = np.random.default_rng(5)
    for dim in (1, 2):
        dom = Domain(dim, 4.0, 3)
        vals = rng.normal(size=dom.shape)
        bs = BoxSums(vals)
        for s in (1, 2, 3, 8):
            lows = np.arange(dom.n - s + 1)
            mesh = np.meshgrid(*([lows] * dim), indexing="ij")
            anchors = np.stack([m.ravel() for m in mesh], axis=-1)
            got = bs.box_sum(anchors, s)
            for a, total in zip(anchors, got):
                Q = Cube(dom, tuple(int(x) for x in a), s)
                assert total == pytest.approx(vals[Q.slices()].sum(), rel=1e-13, abs=1e-13)


def test_box_sums_batch_axis_and_lattice_contract():
    """A leading batch axis gives each row's sums exactly as if alone;
    anchors that are not a lexicographic lattice are rejected."""
    rng = np.random.default_rng(6)
    for dim, s in ((1, 3), (2, 2), (3, 1)):
        dom = Domain(dim, 4.0, 2)
        fam = enumerate_cubes(dom, DYADIC_SIDES)
        stack = rng.normal(size=(3,) + dom.shape)
        anchors = fam.anchors(2) if dim > 1 else np.arange(dom.n - s + 1)[:, None]
        got = BoxSums(stack, dim).box_sum(anchors, s)
        assert got.shape == (3, len(anchors))
        for row, sums in zip(stack, got):
            assert np.array_equal(sums, BoxSums(row).box_sum(anchors, s))
    bs = BoxSums(rng.normal(size=(4, 4)))
    for bad in ([[0, 0], [1, 1]], [[1, 0], [0, 0]], [[0, 0], [0, 1], [0, 3]]):
        with pytest.raises(ValueError, match="lattice"):
            bs.box_sum(np.array(bad), 1)


def test_family_counts():
    dom = Domain(1, 8.0, 3)
    n = dom.n
    fam = enumerate_cubes(dom, ALL_CELL_ALIGNED)
    assert fam.count() == n * (n + 1) // 2
    dy = enumerate_cubes(dom, DYADIC_SIDES)
    assert dy.side_cells_list() == [1, 2, 4, 8]
    # disjoint stride tiles per side
    assert dy.count() == sum(n // s for s in (1, 2, 4, 8))
    R = Cube(dom, (0,), n)
    tree = enumerate_cubes(dom, DYADIC_GRID_OF, R)
    assert tree.count() == 1 + 2 + 4 + 8


def test_dyadic_tree_anchors_are_aligned():
    dom = Domain(2, 8.0, 3)
    R = Cube(dom, (0, 0), 8)
    tree = enumerate_cubes(dom, DYADIC_GRID_OF, R)
    for s in tree.side_cells_list():
        for a in tree.anchors(s):
            assert all(int(x) % s == 0 for x in a)


def test_dyadic_tree_of_subcube():
    dom = Domain(1, 8.0, 3)
    R = Cube(dom, (4,), 4)
    tree = enumerate_cubes(dom, DYADIC_GRID_OF, R)
    assert tree.side_cells_list() == [1, 2, 4]
    assert [tuple(a) for a in tree.anchors(4)] == [(4,)]
    assert [tuple(a) for a in tree.anchors(2)] == [(4,), (6,)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_family_primitives_match_cube_loop(data):
    """cell_max, cube_extreme and cube_cells agree exactly with a plain loop
    over the family's cubes, for every policy, dim, level and root."""
    policy = data.draw(st.sampled_from([ALL_CELL_ALIGNED, DYADIC_SIDES, DYADIC_GRID_OF]))
    dim = 1 if policy == ALL_CELL_ALIGNED else data.draw(st.integers(1, 3))
    level = data.draw(st.integers(1, 3 if dim == 3 else 4))
    dom = Domain(dim, 4.0, level)
    root = None
    if policy == DYADIC_GRID_OF or (policy == ALL_CELL_ALIGNED and data.draw(st.booleans())):
        if policy == DYADIC_GRID_OF:
            side = 1 << data.draw(st.integers(0, level))
        else:
            side = data.draw(st.integers(1, dom.n))
        anchor = tuple(data.draw(st.integers(0, dom.n - side)) for _ in range(dim))
        root = Cube(dom, anchor, side)
    fam = enumerate_cubes(dom, policy, root)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vals = rng.normal(size=dom.shape)

    by_side: dict[int, list[Cube]] = {}
    for Q in fam:
        by_side.setdefault(Q.side_cells, []).append(Q)
    assert sorted(by_side) == fam.side_cells_list()
    # cell_max takes the sides in sweep order, largest first
    order = [s for s, _anchors, _avgs in fam.sweep(vals)]
    assert order == fam.side_cells_list()[::-1]
    got = np.full(dom.shape, -np.inf)
    want = np.full(dom.shape, -np.inf)
    # a batch of two along a leading axis: each row as if alone
    stack = rng.normal(size=(2,) + dom.shape)
    got_stack = np.full(stack.shape, -np.inf)
    alone = np.full(stack.shape, -np.inf)
    for s in order:
        cubes = by_side[s]
        scores = rng.normal(size=len(cubes))
        fam.cell_max(scores, s, got)
        for Q, score in zip(cubes, scores):
            sl = Q.slices()
            want[sl] = np.maximum(want[sl], score)
        pair = np.stack([scores, -scores])
        fam.cell_max(pair, s, got_stack)
        for row, row_scores in zip(alone, pair):
            fam.cell_max(row_scores, s, row)
        for kind, op in (("min", np.min), ("max", np.max)):
            ext = fam.cube_extreme(vals, s, kind)
            assert np.array_equal(ext, [op(vals[Q.slices()]) for Q in cubes])
            ext = fam.cube_extreme(stack, s, kind)
            assert np.array_equal(ext, [fam.cube_extreme(row, s, kind) for row in stack])
        rows = fam.cube_cells(vals, s)
        assert rows.shape == (len(cubes), s**dim)
        for row, Q in zip(rows, cubes):
            assert np.array_equal(row, vals[Q.slices()].ravel())
    assert np.array_equal(got, want)
    assert np.array_equal(got_stack, alone)


def test_pyramid_levels_conserve_mass():
    rng = np.random.default_rng(7)
    for dim in (1, 2):
        dom = Domain(dim, 4.0, 3)
        vals = rng.uniform(0, 1, dom.shape)
        levels = dyadic_sum_pyramid(vals)
        assert len(levels) == dom.level + 1
        assert levels[0] is vals or np.array_equal(levels[0], vals)
        for j, lv in enumerate(levels):
            assert lv.shape == tuple(dom.n >> j for _ in range(dim))
            assert lv.sum() == pytest.approx(vals.sum(), rel=1e-12)


def test_pyramid_matches_recursive_halving():
    # independent oracle: pair sums folded one axis at a time, which must
    # reproduce the pyramid's floats exactly (same additions, same order)
    rng = np.random.default_rng(9)
    vals = rng.normal(size=(8, 8))

    def halve(v):
        w = v[0::2, :] + v[1::2, :]
        return w[:, 0::2] + w[:, 1::2]

    levels = dyadic_sum_pyramid(vals)
    cur = vals
    for j in range(1, 4):
        cur = halve(cur)
        assert np.array_equal(levels[j], cur)


def test_dyadic_averages_are_the_tree_averages():
    """The average half of the tree stands alone: the same floats, each
    level's pyramid sums over its block size."""
    rng = np.random.default_rng(10)
    for shape in ((16,), (8, 8), (4, 4, 4)):
        vals = rng.uniform(0, 1, shape)
        avgs = dyadic_averages(vals)
        tree = dyadic_average_tree(vals)
        assert len(avgs) == len(tree)
        for j, (avg, (tree_avg, _above)) in enumerate(zip(avgs, tree)):
            assert np.array_equal(avg, tree_avg)
            block = float((1 << j) ** len(shape))
            assert np.array_equal(avg, dyadic_sum_pyramid(vals)[j] / block)


def test_integrate_and_average():
    dom = Domain(1, 8.0, 3)
    f = GridFunction(dom, np.arange(8, dtype=float))
    assert integrate(f) == pytest.approx(np.arange(8).sum() * dom.cell_volume)
    Q = Cube(dom, (2,), 4)
    assert average(f, Q) == pytest.approx(np.mean([2, 3, 4, 5]))
    assert integrate(f, Q) == pytest.approx(np.sum([2, 3, 4, 5]) * 1.0)


def test_grid_function_constructors():
    dom = Domain(1, 4.0, 2)
    c = GridFunction.constant(dom, 2.5)
    assert np.all(c.values == 2.5)
    Q = Cube(dom, (1,), 2)
    ind = GridFunction.indicator(dom, Q)
    assert np.array_equal(ind.values, [0.0, 1.0, 1.0, 0.0])
    g = GridFunction.from_callable(dom, lambda x: x[:, 0] ** 2)
    assert np.allclose(g.values, dom.axis_centers() ** 2)
    p = GridFunction(dom, np.array([1.0, 4.0, 9.0, 16.0])).power(0.5)
    assert np.allclose(p.values, [1, 2, 3, 4])
    a = GridFunction(dom, np.array([-1.0, 2.0, -3.0, 0.0])).abs()
    assert np.allclose(a.values, [1, 2, 3, 0])


def test_domain_mismatch_rejected():
    a = GridFunction(Domain(1, 4.0, 2), np.zeros(4))
    with pytest.raises(DomainMismatchError):
        average(a, Cube(Domain(1, 8.0, 2), (0,), 2))


def test_require_weight():
    dom = Domain(1, 4.0, 2)
    require_weight(GridFunction(dom, np.full(4, 0.5)))
    with pytest.raises(InvalidWeightError):
        require_weight(GridFunction(dom, np.array([1.0, 0.0, 1.0, 1.0])))
    with pytest.raises(InvalidWeightError):
        require_weight(GridFunction(dom, np.array([1.0, -2.0, 1.0, 1.0])))


def test_save_load_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(3)
    for dim in (1, 2):
        dom = Domain(dim, 8.0, 3)
        f = GridFunction(dom, rng.normal(size=dom.shape) * 1e-7)
        base = tmp_path / f"f{dim}"
        save_grid_function(f, base)
        # %.17g prints float64 exactly, so the round trip is bit-identical
        g = load_grid_function(base.with_suffix(".json"))
        assert g.domain == dom
        assert np.array_equal(g.values, f.values)
        h = load_grid_function(base)  # suffix optional
        assert np.array_equal(h.values, f.values)


@settings(max_examples=40, deadline=None)
@given(
    level=st.integers(min_value=1, max_value=4),
    side_pick=st.integers(min_value=0, max_value=10_000),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_box_sum_child_additivity(level, side_pick, seed):
    """Parent box sum equals the sum of its dyadic children, exactly-ish."""
    rng = np.random.default_rng(seed)
    dom = Domain(1, 2.0 ** level, level)
    vals = rng.uniform(0, 1, dom.shape)
    bs = BoxSums(vals)
    sides = [s for s in (2, 4, 8, 16) if s <= dom.n]
    s = sides[side_pick % len(sides)]
    anchor = (side_pick % (dom.n - s + 1),)
    Q = Cube(dom, anchor, s)
    total = bs.box_sum(np.array([anchor]), s)[0]
    kids = Q.children()
    parts = sum(bs.box_sum(np.array([k.anchor]), k.side_cells)[0] for k in kids)
    assert total == pytest.approx(parts, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_average_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    dom = Domain(2, 4.0, 2)
    f = GridFunction(dom, rng.normal(size=dom.shape))
    for Q in cubes_of(dom, enumerate_cubes(dom, DYADIC_SIDES)):
        assert average(f, Q) == pytest.approx(brute_average(f, Q), rel=1e-12, abs=1e-12)
