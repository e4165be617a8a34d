"""Maximal operators: sup sweeps, dyadic variants, splits, shifted grids."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhomix import (
    ALL_CELL_ALIGNED,
    DYADIC_GRID_OF,
    Cube,
    CubeFamily,
    Domain,
    DomainMismatchError,
    GridFunction,
    GridShiftSet,
    RhoSpec,
    default_family,
    integrate,
    loc_glob_split,
    loc_glob_split_stack,
    m_dyadic,
    m_localized,
    m_rho_sigma,
    m_rho_sigma_stack,
    rho_values,
    shifted_grid_domination_audit,
)

from conftest import (
    BLOCK_BUDGETS,
    FAMILY_DRAWS,
    block_budget,
    brute_m_dyadic,
    random_pow2_cube,
)

CL = RhoSpec.classical()


def brute_m_dim1(f, rho, sigma, q=1.0, domain=None):
    """All cell-aligned intervals, direct per-cell sup with numpy means.
    f is a GridFunction, or a (B, n) stack of cell values on domain."""
    if isinstance(f, GridFunction):
        domain, f = f.domain, f.values
    vals = np.abs(f) ** q
    n = domain.n
    h = domain.cell_width
    out = np.zeros(vals.shape)
    for lo in range(n):
        for hi in range(lo + 1, n + 1):
            avg = np.mean(vals[..., lo:hi], axis=-1, keepdims=True)
            if sigma > 0 and not rho.is_classical:
                center = np.array([(lo + hi) / 2.0 * h])
                r = (hi - lo) * h / 2.0
                fac = 1.0 + r / rho_values(rho, center[None, :])[0]
                avg *= fac ** (-sigma * q)
            out[..., lo:hi] = np.maximum(out[..., lo:hi], avg)
    return out ** (1.0 / q)


def test_matches_brute_force_dim1():
    rng = np.random.default_rng(41)
    dom = Domain(1, 8.0, 5)
    f = GridFunction(dom, rng.normal(0, 1, dom.shape))
    got = m_rho_sigma(f, CL).values
    want = brute_m_dim1(f, CL, 0.0)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_matches_brute_force_dim1_with_sigma():
    rng = np.random.default_rng(42)
    dom = Domain(1, 8.0, 5)
    rho = RhoSpec.constant(1.5)
    f = GridFunction(dom, rng.normal(0, 1, dom.shape))
    for sigma in (0.5, 2.0):
        got = m_rho_sigma(f, rho, sigma).values
        want = brute_m_dim1(f, rho, sigma)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12), sigma


def test_power_mean_variant_matches_brute_force():
    rng = np.random.default_rng(43)
    dom = Domain(1, 8.0, 4)
    f = GridFunction(dom, rng.normal(0, 1, dom.shape))
    got = m_rho_sigma(f, CL, 0.0, 2.0).values
    want = brute_m_dim1(f, CL, 0.0, q=2.0)
    assert np.allclose(got, want, rtol=1e-12)
    stack = np.stack([f.values, -3.0 * f.values[::-1]])
    got = m_rho_sigma_stack(stack, CL, 0.0, 2.0, default_family(dom))
    want = brute_m_dim1(stack, CL, 0.0, q=2.0, domain=dom)
    assert np.allclose(got, want, rtol=1e-12)


def _tree(Q):
    """Q and every cube of its bisection tree, by explicit recursion."""
    yield Q
    if Q.side_cells > 1:
        for kid in Q.children():
            yield from _tree(kid)


def _dyadic_tiles(dom):
    """Every dyadic-side tile of the box, by explicit nested loops."""
    s = 1
    while s <= dom.n:
        for anchor in itertools.product(range(0, dom.n, s), repeat=dom.dim):
            yield Cube(dom, anchor, s)
        s *= 2


def brute_m_cubes(f, cubes, rho, sigma):
    """Per-cube sup with plain numpy means; zero where no cube reaches.
    f is a GridFunction or a (B, *grid) stack of cell values."""
    vals = np.abs(getattr(f, "values", f))
    out = np.zeros(vals.shape)
    for Q in cubes:
        sl = (Ellipsis,) + Q.slices()
        grid_axes = tuple(range(-Q.domain.dim, 0))
        avg = vals[sl].mean(axis=grid_axes, keepdims=True)
        if sigma > 0 and not rho.is_classical:
            center = Q.center()[None, :]
            avg *= (1.0 + Q.radius / rho_values(rho, center)[0]) ** (-sigma)
        out[sl] = np.maximum(out[sl], avg)
    return out


def test_dim2_matches_brute_force_tiles():
    """Dyadic-side tiles in dims 2 and 3, and bisection trees of sub-box
    roots in dims 1-3, against explicit cube loops."""
    rng = np.random.default_rng(44)
    rho = RhoSpec.constant(1.5)
    cases = [
        (Domain(2, 4.0, 3), None),
        (Domain(3, 4.0, 2), None),
        (Domain(1, 4.0, 4), (4,)),
        (Domain(2, 4.0, 3), (4, 0)),
        (Domain(3, 4.0, 3), (2, 4, 0)),
    ]
    for dom, anchor in cases:
        f = GridFunction(dom, rng.normal(0, 1, dom.shape))
        if anchor is None:
            fam, cubes = default_family(dom), list(_dyadic_tiles(dom))
        else:
            R = Cube(dom, anchor, dom.n // 2)
            fam, cubes = CubeFamily(dom, DYADIC_GRID_OF, R), list(_tree(R))
        for rr, sigma in ((CL, 0.0), (rho, 1.0)):
            got = m_rho_sigma(f, rr, sigma, 1.0, fam).values
            want = brute_m_cubes(f, cubes, rr, sigma)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-15), (dom, anchor, sigma)
            if anchor is not None:
                assert np.all(got[~R.mask()] == 0.0)


def test_dim3_domain_regression():
    # m_rho_sigma on Domain(3, 8.0, 3) used to raise a reshape error
    dom = Domain(3, 8.0, 3)
    m = m_rho_sigma(GridFunction.constant(dom, 1.0), CL)
    assert np.array_equal(m.values, np.ones(dom.shape))


def test_dominates_absolute_value_at_sigma_zero():
    rng = np.random.default_rng(45)
    dom = Domain(1, 8.0, 6)
    f = GridFunction(dom, rng.normal(0, 1, dom.shape))
    m = m_rho_sigma(f, CL).values
    assert np.all(m >= np.abs(f.values) - 1e-14)


def test_monotone_decreasing_in_sigma():
    rng = np.random.default_rng(46)
    dom = Domain(1, 8.0, 6)
    rho = RhoSpec.constant(0.75)
    f = GridFunction(dom, rng.normal(0, 1, dom.shape))
    prev = None
    for sigma in (0.0, 0.5, 1.0, 2.0):
        cur = m_rho_sigma(f, rho, sigma).values
        if prev is not None:
            assert np.all(cur <= prev + 1e-14)
        prev = cur


def test_sigma_inert_for_classical():
    rng = np.random.default_rng(47)
    dom = Domain(1, 8.0, 5)
    f = GridFunction(dom, rng.normal(0, 1, dom.shape))
    a = m_rho_sigma(f, CL, 0.0).values
    b = m_rho_sigma(f, CL, 3.0).values
    assert np.array_equal(a, b)


def test_parameter_validation():
    dom = Domain(1, 4.0, 3)
    f = GridFunction.constant(dom, 1.0)
    with pytest.raises(ValueError):
        m_rho_sigma(f, CL, -1.0)
    with pytest.raises(ValueError):
        m_rho_sigma(f, CL, 0.0, 0.5)
    # NaN used to pass `sigma < 0 or q < 1` and q = inf gave all ones;
    # loc_glob_split took any sigma, although its M is m_rho_sigma's
    for sigma, q in ((math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (math.inf, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            m_rho_sigma(f, CL, sigma, q)
    for sigma in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            loc_glob_split(f, CL, sigma)


def test_dyadic_matches_recursive_oracle():
    rng = np.random.default_rng(48)
    sub_rng = np.random.default_rng(148)
    for dim in (1, 2, 3):
        dom = Domain(dim, 8.0, 3)
        f = GridFunction(dom, rng.normal(0, 1, dom.shape))
        roots = [Cube(dom, (0,) * dim, dom.n)]
        roots += [random_pow2_cube(dom, sub_rng) for _ in range(6)]
        for R in roots:
            got = m_dyadic(f, R).values
            want = brute_m_dyadic(f, R)
            assert np.allclose(got, want, rtol=1e-12)


def test_dyadic_on_subcube_zero_outside():
    rng = np.random.default_rng(49)
    dom = Domain(1, 8.0, 4)
    f = GridFunction(dom, rng.normal(0, 1, dom.shape))
    R = Cube(dom, (8,), 4)
    got = m_dyadic(f, R).values
    assert np.all(got[:8] == 0) and np.all(got[12:] == 0)
    assert np.allclose(got, brute_m_dyadic(f, R), rtol=1e-12)


def test_dyadic_weak_one_one_constant_one():
    rng = np.random.default_rng(50)
    dom = Domain(1, 8.0, 8)
    R = Cube(dom, (0,), dom.n)
    for _ in range(20):
        f = GridFunction(dom, rng.normal(0, 1, dom.shape))
        m = m_dyadic(f, R).values
        total = integrate(f.abs())
        for t in np.linspace(1e-3, m.max() * 1.2, 32):
            measure = float((m > t).sum()) * dom.cell_volume
            assert t * measure <= total * (1 + 1e-12)


@pytest.mark.parametrize("maximal", [m_dyadic, m_localized])
def test_root_cube_on_another_domain_is_a_domain_mismatch(maximal):
    # same cell count, other box: a bare ValueError before
    f = GridFunction(Domain(1, 8.0, 4), np.ones(16))
    R = Cube(Domain(1, 4.0, 4), (0,), 16)
    with pytest.raises(DomainMismatchError, match="root cube"):
        maximal(f, R)


def test_localized_between_dyadic_and_global():
    rng = np.random.default_rng(51)
    dom = Domain(1, 8.0, 5)
    f = GridFunction(dom, rng.normal(0, 1, dom.shape))
    R = Cube(dom, (8,), 16)
    dy = m_dyadic(f, R).values
    loc = m_localized(f, R).values
    glob = m_rho_sigma(f, CL).values
    inside = R.mask()
    assert np.all(loc[inside] >= dy[inside] - 1e-14)
    assert np.all(loc[inside] <= glob[inside] + 1e-14)
    assert np.all(loc[~inside] == 0)


def test_localized_full_box_equals_global_dim1():
    rng = np.random.default_rng(52)
    dom = Domain(1, 8.0, 5)
    f = GridFunction(dom, rng.normal(0, 1, dom.shape))
    R = Cube(dom, (0,), dom.n)
    assert np.allclose(m_localized(f, R).values, m_rho_sigma(f, CL).values, rtol=1e-12)


def test_localized_dims_2_3_match_brute_force():
    """Dims 2 and 3: the dyadic-side tiles inside R plus R's bisection tree
    (R alone when its side is odd), against explicit cube loops.  Integer
    values keep every cube sum exact, so any summation order gives the same
    floats and the comparison is exact."""
    rng = np.random.default_rng(54)
    cases = [
        (Domain(2, 4.0, 4), (3, 5), 7),    # odd side, anchor off every tile
        (Domain(2, 4.0, 4), (1, 6), 8),    # dyadic side, anchor off the tiles
        (Domain(2, 4.0, 4), (4, 8), 8),
        (Domain(2, 4.0, 3), (0, 0), 8),
        (Domain(3, 4.0, 3), (1, 2, 3), 5),
        (Domain(3, 4.0, 3), (0, 4, 0), 4),
        (Domain(3, 4.0, 3), (3, 1, 2), 4),
    ]
    for dom, anchor, side in cases:
        f = GridFunction(dom, rng.integers(-9, 10, dom.shape).astype(float))
        R = Cube(dom, anchor, side)
        tiles = [Q for Q in _dyadic_tiles(dom) if R.contains_cube(Q)]
        tree = list(_tree(R)) if side & (side - 1) == 0 else [R]
        want = brute_m_cubes(f, tiles + tree, CL, 0.0)
        assert np.array_equal(m_localized(f, R).values, want), (dom, anchor, side)


def test_loc_glob_sandwich():
    rng = np.random.default_rng(53)
    dom = Domain(1, 8.0, 6)
    rho = RhoSpec.constant(1.0)
    f = GridFunction(dom, rng.normal(0, 1, dom.shape))
    for sigma in (0.5, 1.0, 3.0):
        rep = loc_glob_split(f, rho, sigma)
        assert rep.max_upper_violation <= 1e-12
        assert rep.max_lower_violation <= 1e-12
        assert rep.subcritical_cubes > 0 and rep.supercritical_cubes > 0
        m = m_rho_sigma(f, rho, sigma).values
        assert np.all(m <= rep.loc.values + rep.glob.values + 1e-12)
        assert np.all(
            m >= (2.0 ** -sigma) * np.maximum(rep.loc.values, rep.glob.values) - 1e-12
        )


def test_loc_glob_m_equals_m_rho_sigma():
    """The split's own M is m_rho_sigma bit for bit, on every family."""
    rng = np.random.default_rng(55)
    d1, d2, d3 = Domain(1, 8.0, 5), Domain(2, 8.0, 3), Domain(3, 8.0, 2)
    families = [
        default_family(d1),
        default_family(d2),
        default_family(d3),
        CubeFamily(d1, DYADIC_GRID_OF, Cube(d1, (8,), 16)),
        CubeFamily(d2, DYADIC_GRID_OF, Cube(d2, (1, 3), 4)),
    ]
    rhos = (CL, RhoSpec.constant(0.75), RhoSpec.analytic(lambda x: 1.0 + x[:, 0]))
    for fam in families:
        f = GridFunction(fam.domain, rng.normal(0, 1, fam.domain.shape))
        for rho in rhos:
            for sigma in (0.0, 1.5):
                rep = loc_glob_split(f, rho, sigma, fam)
                m = m_rho_sigma(f, rho, sigma, q=1.0, cubes=fam)
                assert np.array_equal(rep.m.values, m.values), (fam, rho, sigma)
                assert rep.max_upper_violation <= 1e-12
                assert rep.max_lower_violation <= 1e-12


_STACK_RHOS = (CL, RhoSpec.constant(0.75), RhoSpec.analytic(lambda x: 1.0 + x[:, 0]))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stacked_sweeps_equal_single_calls(data):
    """m_rho_sigma_stack and loc_glob_split_stack on a stack of B functions
    equal B single calls bit for bit, and the brute-force oracle fed the
    same stack: every policy in dims 1-3, rooted ALL_CELL_ALIGNED and
    sub-box DYADIC_GRID_OF roots among them, q in {1, 2} and sigma >= 0,
    with sweep blocks of one side and of several (the stack and the single
    calls split the sides differently, since the budget counts the batch)."""
    policy, rooted = data.draw(st.sampled_from(FAMILY_DRAWS))
    dim = 1 if policy == ALL_CELL_ALIGNED else data.draw(st.integers(1, 3))
    level = data.draw(st.integers(1, {1: 5, 2: 3, 3: 2}[dim]))
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
    rho = data.draw(st.sampled_from(_STACK_RHOS))
    sigma = data.draw(st.sampled_from([0.0, 0.5, 1.5]))
    q = data.draw(st.sampled_from([1.0, 2.0]))
    B = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    stack = rng.normal(size=(B,) + dom.shape)
    budget = data.draw(st.sampled_from(BLOCK_BUDGETS))

    with block_budget(budget):
        got = m_rho_sigma_stack(stack, rho, sigma, q, fam)
        reports = loc_glob_split_stack(stack, rho, sigma, fam)
        assert got.shape == stack.shape and len(reports) == B
        for b in range(B):
            f = GridFunction(dom, stack[b])
            assert np.array_equal(got[b], m_rho_sigma(f, rho, sigma, q, fam).values)
            one, rep = loc_glob_split(f, rho, sigma, fam), reports[b]
            for piece in ("loc", "glob", "m"):
                assert np.array_equal(getattr(rep, piece).values, getattr(one, piece).values)
            assert (
                rep.max_upper_violation, rep.max_lower_violation,
                rep.subcritical_cubes, rep.supercritical_cubes,
            ) == (
                one.max_upper_violation, one.max_lower_violation,
                one.subcritical_cubes, one.supercritical_cubes,
            )
    want = brute_m_cubes(np.abs(stack) ** q, list(fam), rho, sigma) ** (1.0 / q)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-15)


def test_stacks_of_the_wrong_shape_are_rejected():
    dom = Domain(2, 4.0, 2)
    fam = default_family(dom)
    for bad in (np.ones(dom.shape), np.ones((2, 4, 2)), np.ones((1, 2, 4, 4))):
        with pytest.raises(ValueError, match="stack"):
            m_rho_sigma_stack(bad, CL, 0.0, 1.0, fam)
        with pytest.raises(ValueError, match="stack"):
            loc_glob_split_stack(bad, CL, 0.0, fam)


def test_empty_stacks_are_rejected_naming_the_shape():
    """A (0, *grid) stack is refused with a ValueError naming its shape
    (the interval sweep used to die on a bare ZeroDivisionError)."""
    for dom in (Domain(1, 8.0, 4), Domain(2, 4.0, 2)):
        empty = np.ones((0,) + dom.shape)
        shape = re.escape(str(empty.shape))
        for fam in (default_family(dom), CubeFamily(dom, DYADIC_GRID_OF)):
            with pytest.raises(ValueError, match=shape):
                m_rho_sigma_stack(empty, CL, 0.0, 1.0, fam)
            with pytest.raises(ValueError, match=shape):
                loc_glob_split_stack(empty, CL, 0.0, fam)


def test_overflowing_powers_of_f_are_rejected_up_front():
    """|f|^q that overflows on a cell is refused with a ValueError naming
    it, before any prefix sum turns it into inf - inf: m_rho_sigma used to
    fail late ("grid function values must be finite") and the stack calls
    handed back NaN cells."""
    dom = Domain(1, 8.0, 4)
    f = np.zeros(dom.shape)
    f[5] = 1e200
    with pytest.raises(ValueError, match=r"\|f\|\^q \(q = 2.0\) is not finite"):
        m_rho_sigma(GridFunction(dom, f), CL, 0.0, 2.0)
    fam = default_family(dom)
    stack = np.stack([np.ones(dom.shape), f])
    with pytest.raises(ValueError, match="overflowed"):
        m_rho_sigma_stack(stack, CL, 0.0, 2.0, fam)
    stack[1, 5] = np.inf
    with pytest.raises(ValueError, match="overflowed"):
        loc_glob_split_stack(stack, CL, 0.0, fam)
    # the same f is fine where its powers stay finite
    assert m_rho_sigma(GridFunction(dom, f), CL, 0.0, 1.0).values.max() == 1e200


def test_running_sum_overflow_of_f_is_refused_without_warnings():
    """|f| finite on every cell but with a running sum past the float range
    is refused by the sweep, with no warning: a level-4 constant 1e308 used
    to fail late with "grid function values must be finite"."""
    dom = Domain(1, 8.0, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="running sum of sweep input 0 over the root overflows"):
            m_rho_sigma(GridFunction.constant(dom, 1e308), CL)


def test_shift_set_parents_contain_their_cube():
    dom = Domain(1, 8.0, 5)
    shifts = GridShiftSet(dom)
    Q = Cube(dom, (11,), 3)
    for gid in shifts.grid_ids():
        found = shifts.locate_parent(gid, Q)
        assert found is not None
        anchor, s = found
        assert s >= Q.side_cells
        for ax in range(dom.dim):
            assert anchor[ax] <= Q.anchor[ax]
            assert Q.anchor[ax] + Q.side_cells <= anchor[ax] + s


def test_shifted_grid_domination_no_violations():
    rng = np.random.default_rng(54)
    for dim, level in ((1, 6), (2, 4)):
        dom = Domain(dim, 8.0, level)
        shifts = GridShiftSet(dom)
        for _ in range(10):
            f = GridFunction(dom, rng.normal(0, 1, dom.shape))
            side = int(rng.integers(1, dom.n // 2 + 1))
            anchor = tuple(int(a) for a in rng.integers(0, dom.n - side + 1, dim))
            rep = shifted_grid_domination_audit(f, Cube(dom, anchor, side), shifts)
            assert rep.located_all
            assert rep.violations == 0
            assert rep.lam_best_side_ratio >= 1.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_maximal_is_sublinear(seed):
    """M(f + g) <= M f + M g cellwise, and M(cf) = |c| M f."""
    rng = np.random.default_rng(seed)
    dom = Domain(1, 4.0, 4)
    f = GridFunction(dom, rng.normal(0, 1, dom.shape))
    g = GridFunction(dom, rng.normal(0, 1, dom.shape))
    mf = m_rho_sigma(f, CL).values
    mg = m_rho_sigma(g, CL).values
    mfg = m_rho_sigma(GridFunction(dom, f.values + g.values), CL).values
    assert np.all(mfg <= mf + mg + 1e-12)
    mcf = m_rho_sigma(GridFunction(dom, -2.5 * f.values), CL).values
    assert np.allclose(mcf, 2.5 * mf, rtol=1e-12)
