"""Grid layer: domains, cubes, prefix sums, dyadic pyramids, file round trips."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
import rhomix.grid
from hypothesis import given, settings
from hypothesis import strategies as st

from rhomix import (
    ALL_CELL_ALIGNED,
    DYADIC_GRID_OF,
    BoxSums,
    Cube,
    CubeFamily,
    Domain,
    DomainMismatchError,
    GridFunction,
    InvalidWeightError,
    RhoSpec,
    SumOverflowError,
    THETA_LADDER,
    ap_ladder,
    characteristics,
    dyadic_average_tree,
    dyadic_averages,
    dyadic_sum_pyramid,
    integrate,
    load_grid_function,
    m_rho_sigma_stack,
    require_weight,
    save_grid_function,
)

from rhomix.extrapolation import T_LADDER
from rhomix.maximal import _cell_floor

from conftest import (
    BLOCK_BUDGETS,
    FAMILY_DRAWS,
    block_budget,
    per_input_sweep,
    per_side_cell_max,
)


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
        fam = CubeFamily(dom, DYADIC_GRID_OF)
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


def test_family_counts(monkeypatch):
    """count() is m(m+1)/2 intervals over a root of m cells and the sum of
    (span/s)^dim over a tree's sides, the number of anchors the family
    enumerates, and it reads no anchors: it runs with anchors() raising."""
    dom = Domain(1, 8.0, 3)
    n = dom.n
    fam = CubeFamily(dom, ALL_CELL_ALIGNED)
    assert fam.count() == n * (n + 1) // 2
    dy = CubeFamily(dom, DYADIC_GRID_OF)
    assert dy.side_cells_list() == [1, 2, 4, 8]
    # disjoint stride tiles per side
    assert dy.count() == sum(n // s for s in (1, 2, 4, 8))
    R = Cube(dom, (0,), n)
    tree = CubeFamily(dom, DYADIC_GRID_OF, R)
    assert tree.count() == 1 + 2 + 4 + 8
    families = [fam, dy, CubeFamily(dom, ALL_CELL_ALIGNED, Cube(dom, (3,), 5))]
    assert families[2].count() == 5 * 6 // 2
    for dim, level in ((2, 3), (3, 2)):
        cube_dom = Domain(dim, 8.0, level)
        families.append(CubeFamily(cube_dom, DYADIC_GRID_OF))
        families.append(CubeFamily(cube_dom, DYADIC_GRID_OF, Cube(cube_dom, (2,) * dim, 2)))
    assert families[-1].count() == 8 + 1
    anchors = CubeFamily.anchors

    def no_anchors(self, side_cells):
        raise AssertionError("count() read anchors")

    for family in families:
        monkeypatch.setattr(CubeFamily, "anchors", no_anchors)
        count = family.count()
        monkeypatch.setattr(CubeFamily, "anchors", anchors)
        assert count == sum(len(family.anchors(s)) for s in family.side_cells_list())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sweep_matches_box_sum_oracle(data):
    """Every sweep block holds, bit for bit, the box_sum averages of the
    root's region at the cubes' anchors: the tile read of a bisection tree
    and the interval views of ALL_CELL_ALIGNED, for any root and any batch
    axes in front of the grid."""
    policy, rooted = data.draw(st.sampled_from(FAMILY_DRAWS))
    dim = 1 if policy == ALL_CELL_ALIGNED else data.draw(st.integers(1, 3))
    level = data.draw(st.integers(1, 3 if dim == 3 else 5))
    dom = Domain(dim, 4.0, level)
    root = None
    if rooted or (rooted is None and data.draw(st.booleans())):
        if policy == DYADIC_GRID_OF:
            side = 1 << data.draw(st.integers(0, level))
        else:
            side = data.draw(st.integers(1, dom.n))
        anchor = tuple(data.draw(st.integers(0, dom.n - side)) for _ in range(dim))
        root = Cube(dom, anchor, side)
    fam = CubeFamily(dom, policy, root)
    batch = data.draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vals = rng.normal(size=batch + dom.shape)
    region = vals[(Ellipsis,) + fam.root.slices()]
    oracle = BoxSums(region, dim)
    lo = np.asarray(fam.root.anchor)
    seen = 0
    for sides, (avg,) in fam.sweep(vals):
        anchors = fam.anchors(int(sides[0]))
        assert avg.shape == batch + (len(sides), len(anchors))
        for j, s in enumerate(sides.tolist()):
            count = len(fam.anchors(s))
            assert np.array_equal(anchors[:count], fam.anchors(s))
            want = oracle.box_sum(fam.anchors(s) - lo, s) / s**dim
            assert np.array_equal(avg[..., j, :count], want)
            # one cube's corners by hand, in the same order from a zero total
            a = rng.integers(count)
            total = np.zeros(batch)
            for corner in itertools.product((0, 1), repeat=dim):
                idx = tuple(x + c * s for x, c in zip(fam.anchors(s)[a] - lo, corner))
                sign = 1.0 if (dim - sum(corner)) % 2 == 0 else -1.0
                total = total + sign * oracle.table[(Ellipsis,) + idx]
            assert np.array_equal(avg[..., j, a], total / s**dim)
            seen += count
    assert seen == fam.count()


@pytest.mark.parametrize(
    "shape, dim",
    [((16,), 1), ((3, 16), 1), ((8, 8), 2), ((2, 8, 8), 2), ((4, 4, 4), 3), ((2, 4, 4, 4), 3)],
)
def test_prefix_table_is_the_padded_cumsum_table(shape, dim):
    """BoxSums writes its cumsums into a zeroed table; the floats, signbits
    included, are those of np.pad around the cumsums of each grid axis."""
    rng = np.random.default_rng(11)
    vals = rng.normal(size=shape)
    vals[..., 0] = -0.0  # a leading run of -0.0 keeps its sign in the cumsums
    lead = len(shape) - dim
    p = vals
    for ax in range(lead, len(shape)):
        p = np.cumsum(p, axis=ax)
    want = np.pad(p, [(0, 0)] * lead + [(1, 0)] * dim)
    got = BoxSums(vals, dim).table
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.signbit(want).any()


def test_tree_anchor_memo_contract():
    """Bisection-tree anchors are the meshgrid of root.anchor + k s in
    lexicographic order, and anchor(s, i) is tuple(anchors(s)[i]) for
    every side and index: both policies, box-rooted and rooted families,
    dims 1-3."""
    families = []
    for dim, level in ((1, 4), (2, 3), (3, 2)):
        dom = Domain(dim, 8.0, level)
        families.append(CubeFamily(dom, DYADIC_GRID_OF))
        root = Cube(dom, (dom.n // 4,) + (0,) * (dim - 1), dom.n // 2)
        families.append(CubeFamily(dom, DYADIC_GRID_OF, root))
        if dim == 1:
            families.append(CubeFamily(dom, ALL_CELL_ALIGNED))
            families.append(CubeFamily(dom, ALL_CELL_ALIGNED, Cube(dom, (5,), 7)))
    dom = Domain(2, 8.0, 4)
    families.append(CubeFamily(dom, DYADIC_GRID_OF, Cube(dom, (4, 8), 8)))
    for fam in families:
        R = fam.root
        for s in fam.side_cells_list():
            anchors = fam.anchors(s)
            if fam.policy == DYADIC_GRID_OF:
                axes = [a + s * np.arange(R.side_cells // s) for a in R.anchor]
                mesh = np.meshgrid(*axes, indexing="ij")
                assert np.array_equal(anchors, np.stack([m.ravel() for m in mesh], axis=-1))
            got = [fam.anchor(s, i) for i in range(len(anchors))]
            assert got == [tuple(a) for a in anchors.tolist()]
            assert all(type(x) is int for a in got for x in a)


def test_unrooted_family_is_the_box_rooted_family():
    """A family given no root is rooted at the whole box: it equals and
    hashes as the box-rooted family, so a rho keeps one penalty table for
    both; the dyadic policy is the one bisection-tree policy."""
    rho = RhoSpec.constant(0.5)
    cases = [(Domain(1, 4.0, 3), ALL_CELL_ALIGNED)]
    cases += [(Domain(dim, 4.0, 2), DYADIC_GRID_OF) for dim in (1, 2, 3)]
    for dom, policy in cases:
        bare, rooted = CubeFamily(dom, policy), CubeFamily(dom, policy, Cube.box(dom))
        assert bare.root == rooted.root == Cube(dom, (0,) * dom.dim, dom.n)
        assert bare == rooted and hash(bare) == hash(rooted)
        assert rho.penalty_table(bare) is rho.penalty_table(rooted)
    dom = Domain(1, 4.0, 3)
    with pytest.raises(ValueError, match="unknown cube family policy"):
        CubeFamily(dom, "dyadic_sides")
    with pytest.raises(ValueError, match="power of 2"):
        CubeFamily(dom, DYADIC_GRID_OF, Cube(dom, (0,), 3))
    with pytest.raises(DomainMismatchError):
        CubeFamily(dom, DYADIC_GRID_OF, Cube.box(Domain(1, 8.0, 3)))


def test_dyadic_tree_anchors_are_aligned():
    dom = Domain(2, 8.0, 3)
    R = Cube(dom, (0, 0), 8)
    tree = CubeFamily(dom, DYADIC_GRID_OF, R)
    for s in tree.side_cells_list():
        for a in tree.anchors(s):
            assert all(int(x) % s == 0 for x in a)


def test_dyadic_tree_of_subcube():
    dom = Domain(1, 8.0, 3)
    R = Cube(dom, (4,), 4)
    tree = CubeFamily(dom, DYADIC_GRID_OF, R)
    assert tree.side_cells_list() == [1, 2, 4]
    assert [tuple(a) for a in tree.anchors(4)] == [(4,)]
    assert [tuple(a) for a in tree.anchors(2)] == [(4,), (6,)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_family_primitives_match_cube_loop(data):
    """cell_max, cube_extreme and cube_cells agree exactly with a plain loop
    over the family's cubes, for every policy, dim, level and root, with
    sweep blocks of one side and of several."""
    policy, rooted = data.draw(st.sampled_from(FAMILY_DRAWS))
    dim = 1 if policy == ALL_CELL_ALIGNED else data.draw(st.integers(1, 3))
    fam = _drawn_family(data, policy, rooted, dim, data.draw(st.integers(1, 3 if dim == 3 else 4)))
    dom = fam.domain
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vals = rng.normal(size=dom.shape)
    budget = data.draw(st.sampled_from(BLOCK_BUDGETS))

    by_side: dict[int, list[Cube]] = {}
    for Q in fam:
        by_side.setdefault(Q.side_cells, []).append(Q)
    assert sorted(by_side) == fam.side_cells_list()
    with block_budget(budget):
        blocks = [(sides, fam.anchors(int(sides[0]))) for sides, _avgs in fam.sweep(vals)]
    # cell_max takes the sides in sweep order, largest first: blocks come
    # largest first, each block's sides ascending
    order = [int(s) for sides, _anchors in blocks for s in sides[::-1]]
    assert order == fam.side_cells_list()[::-1]
    got = np.full(dom.shape, -np.inf)
    want = np.full(dom.shape, -np.inf)
    # a batch of two along a leading axis: each row as if alone
    stack = rng.normal(size=(2,) + dom.shape)
    got_stack = np.full(stack.shape, -np.inf)
    alone = np.full(stack.shape, -np.inf)
    for sides, anchors in blocks:
        pad = fam.padding(sides, len(anchors))
        # padded entries score +inf: cell_max must never read them; it may
        # overwrite its scores, so it gets copies of those read again below
        scores = np.where(pad, np.inf, rng.normal(size=pad.shape))
        fam.cell_max(scores.copy(), sides, got)
        for s, row_scores, row_pad in zip(sides.tolist(), scores, pad):
            cubes = by_side[s]
            assert len(cubes) == np.count_nonzero(~row_pad)
            row_anchors = anchors[: len(cubes)].tolist()
            assert [Q.anchor for Q in cubes] == [tuple(a) for a in row_anchors]
            for Q, score in zip(cubes, row_scores):
                sl = Q.slices()
                want[sl] = np.maximum(want[sl], score)
        pair = np.stack([scores, np.where(pad, np.inf, -scores)])
        fam.cell_max(pair.copy(), sides, got_stack)
        for row, row_scores in zip(alone, pair):
            fam.cell_max(row_scores, sides, row)
        for kind, op in (("min", np.min), ("max", np.max)):
            ext = fam.cube_extreme(vals, sides, kind)
            assert ext.shape == pad.shape and np.all(np.isfinite(ext))
            for s, ext_row in zip(sides.tolist(), ext):
                cubes = by_side[s]
                want_ext = [op(vals[Q.slices()]) for Q in cubes]
                assert np.array_equal(ext_row[: len(cubes)], want_ext)
            ext = fam.cube_extreme(stack, sides, kind)
            assert np.array_equal(ext, [fam.cube_extreme(row, sides, kind) for row in stack])
        for s in sides.tolist():
            cubes = by_side[s]
            rows = fam.cube_cells(vals, s)
            assert rows.shape == (len(cubes), s**dim)
            for row, Q in zip(rows, cubes):
                assert np.array_equal(row, vals[Q.slices()].ravel())
    assert np.array_equal(got, want)
    assert np.array_equal(got_stack, alone)


def _drawn_family(data, policy, rooted, dim, level):
    """A family on Domain(dim, 4.0, level), rooted at a drawn cube when
    rooted is True (or, for rooted None, when a drawn bool says so)."""
    dom = Domain(dim, 4.0, level)
    root = None
    if rooted or (rooted is None and data.draw(st.booleans())):
        if policy == DYADIC_GRID_OF:
            side = 1 << data.draw(st.integers(0, level))
        else:
            side = data.draw(st.integers(1, dom.n))
        anchor = tuple(data.draw(st.integers(0, dom.n - side)) for _ in range(dim))
        root = Cube(dom, anchor, side)
    return CubeFamily(dom, policy, root)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_interval_spreads_match_the_per_side_oracle(data):
    """Both interval spread kernels, and cell_max's choice between them,
    give the per-side loop's floats bit for bit: on stacks of 1, 3 and 17
    functions, rooted families and every block budget, with garbage (inf,
    NaN, huge) in the padding, and through m_rho_sigma_stack's images."""
    level = data.draw(st.integers(1, 6))
    fam = _drawn_family(data, ALL_CELL_ALIGNED, None, 1, level)
    batch = data.draw(st.sampled_from([1, 3, 17]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    stack = np.exp(rng.normal(size=(batch,) + fam.domain.shape))
    outs = {name: _cell_floor(fam, batch) for name in ("chosen", "block", "sides", "oracle")}
    with block_budget(data.draw(st.sampled_from(BLOCK_BUDGETS))):
        for sides, (avg,) in fam.sweep(stack):
            pad = fam.padding(sides, avg.shape[-1])
            garbage = rng.choice([np.inf, np.nan, 1e300, -1e300], size=avg.shape)
            scores = np.where(pad, garbage, avg)
            fam.cell_max(scores.copy(), sides, outs["chosen"])
            region = (Ellipsis,) + fam.root.slices()
            rhomix.grid._spread_block(outs["block"][region], scores.copy(), pad)
            rhomix.grid._spread_sides(outs["sides"][region], scores.copy(), sides)
            per_side_cell_max(fam, scores.copy(), sides, outs["oracle"])
        images = m_rho_sigma_stack(stack, RhoSpec.classical(), 0.0, 1.0, fam)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(CubeFamily, "cell_max", per_side_cell_max)
            oracle_images = m_rho_sigma_stack(stack, RhoSpec.classical(), 0.0, 1.0, fam)
    for name in ("chosen", "block", "sides"):
        assert outs[name].tobytes() == outs["oracle"].tobytes(), name
    assert images.tobytes() == oracle_images.tobytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stacked_sweep_matches_the_per_input_oracle(data):
    """One table for every input of a sweep gives the floats of one table
    per input, bit for bit, in dims 1-3, on rooted families, with a batch
    axis or none, under every block budget."""
    policy, rooted = data.draw(st.sampled_from(FAMILY_DRAWS))
    dim = 1 if policy == ALL_CELL_ALIGNED else data.draw(st.integers(1, 3))
    fam = _drawn_family(data, policy, rooted, dim, data.draw(st.integers(1, 3 if dim == 3 else 5)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    lead = data.draw(st.sampled_from([(), (2,)]))
    inputs = [
        np.exp(rng.normal(0, 3, size=lead + fam.domain.shape))
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    with block_budget(data.draw(st.sampled_from(BLOCK_BUDGETS))):
        got = list(fam.sweep(*inputs))
        want = list(per_input_sweep(fam, *inputs))
    assert len(got) == len(want)
    for (sides, avgs), (w_sides, w_avgs) in zip(got, want):
        assert np.array_equal(sides, w_sides)
        assert [a.tobytes() for a in avgs] == [a.tobytes() for a in w_avgs]


def test_sweep_temporaries_stay_bounded():
    """Once the rho's penalty table is built, a level-8 dim-1 ap_ladder over
    THETA_LADDER and an m_rho_sigma_stack over a (4, 256) stack each peak
    under 1.5 MB of traced allocations: BLOCK_ELEMENTS bounds every block
    temporary (256 KB each), where one block per half of the sides would
    hold 1 MB per temporary for the stack."""
    dom = Domain(1, 8.0, 8)
    rho = RhoSpec.analytic(lambda pts: 1.0 / (1.0 + np.abs(pts[:, 0])))
    fam = CubeFamily(dom, ALL_CELL_ALIGNED)
    rng = np.random.default_rng(8)
    w = GridFunction(dom, np.exp(rng.normal(0, 1, dom.shape)))
    stack = rng.normal(size=(4,) + dom.shape)
    calls = {
        "ap_ladder": lambda: ap_ladder(w, 1.0, THETA_LADDER, rho, fam),
        "m_rho_sigma_stack": lambda: m_rho_sigma_stack(stack, rho, 1.5, 1.0, fam),
    }
    for name, call in calls.items():
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20, (name, peak)


def test_sweep_blocks_count_every_input(monkeypatch):
    """A d1 L8 characteristics call over T_LADDER sweeps w and five powers
    of it; each block holds inputs x sides x widest row averages, and that
    stays within BLOCK_ELEMENTS (the budget once counted the batch alone,
    so six inputs held six times the budget)."""
    dom = Domain(1, 8.0, 8)
    fam = CubeFamily(dom, ALL_CELL_ALIGNED)
    w = GridFunction(dom, np.exp(np.random.default_rng(9).normal(0, 1, dom.shape)))
    blocks = []
    sweep = CubeFamily.sweep

    def recorded(self, *values):
        for sides, avgs in sweep(self, *values):
            blocks.append((len(avgs), len(sides), avgs[0].shape[-1]))
            yield sides, avgs

    monkeypatch.setattr(CubeFamily, "sweep", recorded)
    characteristics(w, [("ap", t, 0.0) for t in T_LADDER], RhoSpec.classical(), fam)
    assert {n for n, _, _ in blocks} == {6}
    for n, sides, width in blocks:
        assert n * sides * width <= rhomix.grid.BLOCK_ELEMENTS


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


def _overflowing(shape, cells, big):
    """Ones but for big on the given flat cells."""
    vals = np.ones(shape)
    vals.reshape(-1)[cells] = big
    return vals


@pytest.mark.parametrize("vals", [
    _overflowing(8, [0, 1], 1e308),
    _overflowing(8, [0, 1, 2, 3], [1e308, 1e308, -1e308, -1e308]),  # then inf - inf
    _overflowing((4, 4), [0, 4], 1e308),
    _overflowing((2, 2, 2), [3, 7], -1e308),
])
def test_pyramid_refuses_an_overflowed_block_sum(vals):
    # a block sum past the float range used to warn and come back inf (and
    # inf - inf as nan one level up); warnings are errors here, so a stray
    # one fails
    with pytest.raises(SumOverflowError, match="block sum of finite values overflows"):
        dyadic_sum_pyramid(vals)


def test_pyramid_of_a_non_finite_input_is_not_an_overflow():
    vals = np.array([np.inf, 1.0, 2.0, 3.0])
    assert dyadic_sum_pyramid(vals)[-1][0] == np.inf


def test_pyramid_slices_are_the_pyramids_of_their_blocks():
    """Pairwise child sums are local: the slice of the pyramid under a
    dyadic block is that block's own pyramid, float for float (corona reads
    band -1 pieces off the slice of v's tree)."""
    rng = np.random.default_rng(11)
    for shape in ((32,), (16, 16), (8, 8, 8)):
        vals = rng.lognormal(size=shape)
        levels = dyadic_sum_pyramid(vals)
        for top in range(len(levels)):
            at = [int(i) for i in rng.integers(0, shape[0] >> top, len(shape))]
            block = tuple(slice(i << top, (i + 1) << top) for i in at)
            own = dyadic_sum_pyramid(vals[block])
            for j in range(top + 1):
                sub = tuple(slice(i << (top - j), (i + 1) << (top - j)) for i in at)
                assert np.array_equal(levels[j][sub], own[j])


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


def test_integrate():
    dom = Domain(1, 8.0, 3)
    f = GridFunction(dom, np.arange(8, dtype=float))
    assert integrate(f) == pytest.approx(np.arange(8).sum() * dom.cell_volume)
    Q = Cube(dom, (2,), 4)
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
        integrate(a, Cube(Domain(1, 8.0, 2), (0,), 2))


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

