"""Cube penalties: every power of a growth factor or of rho/r comes from the
rho's PenaltyTable, by libm's pow (the function Python's float pow calls).
A table raises each exponent of a family once while it holds the powers,
holds at most grid.PENALTY_BYTES, least recently used evicted first, and
raises a fold too large to hold block by block.  Every path gives the same floats
as one pow of each cube's own factor."""

import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rhomix.critical
from rhomix import (
    ALL_CELL_ALIGNED,
    DYADIC_GRID_OF,
    Cube,
    CubeFamily,
    Domain,
    GridFunction,
    RhoSpec,
    ainf_epsilon_form,
    ap_characteristic,
    ap_ladder,
    default_family,
    eval_rho,
    loc_glob_split,
    m_rho_sigma,
)
from rhomix.critical import _libm_pow
from rhomix.experiments import default_config, run_experiment
from rhomix.suite import ANALYTIC_RHO

from conftest import (
    BLOCK_BUDGETS, FAMILY_DRAWS, PENALTY_BUDGETS, block_budget, cubes_of, oscillator,
    penalty_budget, row_by_row_fold,
)
from test_grid import _drawn_family
from test_maximal import brute_m_cubes
from test_weights import ainf_epsilon_form_ref, brute_ap

INV_DIST = lambda pts: 1.0 / (1.0 + np.linalg.norm(pts, axis=1))


def _cube_penalty(rv, r, exponent, ratio=False):
    """A cube's (1 + r/rho)^exponent, or with ratio (rho/r)^exponent capped
    at 1, from its rho rv and radius r, by one Python float pow (libm's
    pow) of its own factor."""
    if ratio:
        return 1.0 if r <= rv else (rv / r) ** exponent
    return (1.0 + r / rv) ** exponent


def _per_cube_reference(f, w, rho, fam, sigma, theta):
    """M[sigma] f, its loc and glob pieces, and the A_1 characteristic of w
    with its witness, cube by cube: one Python float pow per cube, the
    averages and minima read from the same sweep as the operators.  The
    witness is the first maximum in (side, anchor) order, whatever order
    the sweep visits the sides in."""
    dom = fam.domain
    m, loc, glob = (np.zeros(dom.shape) for _ in range(3))
    best, witness, best_key = -math.inf, None, None
    sweeps = zip(fam.sweep(np.abs(f.values)), fam.sweep(w.values))
    for (sides, (avgs,)), (_, (w_avgs,)) in sweeps:
        scores = w_avgs / fam.cube_extreme(w.values, sides, "min")
        for s, avg, score in zip(sides.tolist(), avgs, scores):
            for i, anchor in enumerate(fam.anchors(s).tolist()):
                cube = Cube(dom, tuple(anchor), s)
                rv, r = eval_rho(rho, cube.center()), cube.radius
                sl = cube.slices()
                m[sl] = np.maximum(m[sl], avg[i] * _cube_penalty(rv, r, -sigma))
                if r <= rv:
                    loc[sl] = np.maximum(loc[sl], avg[i])
                else:
                    glob[sl] = np.maximum(glob[sl], avg[i] * _cube_penalty(rv, r, sigma, True))
                ratio = score[i] / _cube_penalty(rv, r, theta)
                key = (-ratio, s, cube.anchor)
                if witness is None or key < best_key:
                    best, witness, best_key = ratio, cube, key
    return m, loc, glob, best, witness


def _math_pow_or_overflow(bases, exponent):
    """math.pow per element, or None when any element overflows (math.pow
    raises OverflowError there)."""
    try:
        return [math.pow(b, exponent) for b in bases]
    except OverflowError:
        return None


@settings(max_examples=200, deadline=None)
@given(
    bases=st.lists(
        st.floats(min_value=1e-300, max_value=1e300), min_size=1, max_size=64
    ),
    exponent=st.floats(min_value=-64.0, max_value=64.0),
)
def test_libm_pow_is_math_pow_bit_for_bit(bases, exponent):
    """_libm_pow(b, e) is math.pow(b, e) per element, bit for bit, over
    positive finite bases and finite exponents, negative and fractional
    ones included; when any element overflows it raises OverflowError, as
    math.pow does."""
    want = _math_pow_or_overflow(bases, exponent)
    if want is None:
        with pytest.raises(OverflowError):
            _libm_pow(np.array(bases), exponent)
        return
    got = _libm_pow(np.array(bases), exponent)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))


def test_libm_pow_overflow_of_a_finite_base_raises():
    """A penalty power that overflows from a finite factor raises, as
    Python's float pow does, rather than turning into inf: at theta = 1e4
    the large cubes' factors under an analytic rho overflow."""
    with pytest.raises(OverflowError):
        _libm_pow(np.array([2.0, 1e200]), 2.0)
    dom = Domain(1, 8.0, 6)
    ones = GridFunction.constant(dom, 1.0)
    with pytest.raises(OverflowError):
        ap_characteristic(ones, 1.0, 1e4, RhoSpec.analytic(INV_DIST), default_family(dom))


@pytest.mark.parametrize("exponent", [2.0, 0.37, 0.0, -0.5, -3.0])
def test_libm_pow_of_an_inf_base_is_math_pow(exponent):
    got = _libm_pow(np.array([math.inf, 3.0]), exponent)
    assert got.tolist() == [math.pow(math.inf, exponent), math.pow(3.0, exponent)]


@pytest.mark.parametrize("exponent", [0.37, -1.0])
def test_every_site_raises_penalties_by_libm_pow(exponent):
    """m_rho_sigma, loc_glob_split (M and glob), ap_characteristic and
    ainf_epsilon_form equal, exactly, a reference that raises each cube's
    factor by Python's float pow.  numpy's SIMD power differs from it in the
    last bit on some hosts (on AVX-512, at 1,674 of these 32,896 factors at
    0.37), which would move the bytes of a report with the host.  Every root
    family adds sups with their own witnesses.  The operators run with sweep
    blocks of one side and of several."""
    dom = Domain(1, 8.0, 8)
    rho = RhoSpec.analytic(INV_DIST)
    rng = np.random.default_rng(61)
    sigma, theta = abs(exponent), exponent
    roots = [None] + [Cube(dom, (a,), 16) for a in range(0, dom.n - 15, 8)]
    for root in roots:
        fam = CubeFamily(dom, ALL_CELL_ALIGNED, root)
        f = GridFunction(dom, rng.normal(0, 1, dom.shape))
        w = GridFunction(dom, np.exp(rng.normal(0, 1, dom.shape)))
        m, loc, glob, best, witness = _per_cube_reference(f, w, rho, fam, sigma, theta)
        for budget in BLOCK_BUDGETS:
            with block_budget(budget):
                assert np.array_equal(m_rho_sigma(f, rho, sigma, cubes=fam).values, m)
                split = loc_glob_split(f, rho, sigma, fam)
                assert np.array_equal(split.m.values, m)
                assert np.array_equal(split.loc.values, loc)
                assert np.array_equal(split.glob.values, glob)
                char = ap_characteristic(w, 1.0, theta, rho, fam)
                assert (char.value, char.witness) == (best, witness)
        if root is not None:
            want = ainf_epsilon_form_ref(w, theta, rho, cubes_of(dom, fam))
            assert ainf_epsilon_form(w, theta, rho, fam) == want


@settings(max_examples=60, deadline=None)
@given(
    level=st.integers(1, 9),
    rooted=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    rho_name=st.sampled_from(["inv_one_plus_dist", "sqrt_one_plus_dist", "constant"]),
    exponents=st.lists(
        st.sampled_from([0.5, 1.0, 2.0, 4.0, -1.0, -0.37, 1.25, 3.3]),
        min_size=1, max_size=3, unique=True,
    ),
    ratio=st.booleans(),
    budget=st.sampled_from(PENALTY_BUDGETS),
)
def test_fold_matches_the_row_by_row_oracle(
    level, rooted, seed, rho_name, exponents, ratio, budget
):
    """Each exponent's fold, built a chunk of rows at a time from rho,
    holds the floats of the fold built row by row: every span and root, exponents of either sign, both
    ratio kinds, several exponents on one table, which evicts folds past
    its budget."""
    dom = Domain(1, 8.0, level)
    root = None
    if rooted:
        rng = np.random.default_rng(seed)
        side = int(rng.integers(1, dom.n + 1))
        root = Cube(dom, (int(rng.integers(0, dom.n - side + 1)),), side)
    fam = CubeFamily(dom, ALL_CELL_ALIGNED, root)
    if rho_name == "constant":
        rho = RhoSpec.constant(0.3)
    else:
        rho = RhoSpec.analytic(ANALYTIC_RHO[rho_name], name=rho_name)
    table = rho.penalty_table(fam)
    with penalty_budget(budget):
        for exponent in exponents:
            lower, upper = table._fold(exponent, ratio)
            want_lower, want_upper = row_by_row_fold(table, exponent, ratio)
            assert lower.tobytes() == want_lower.tobytes()
            assert upper.tobytes() == want_upper.tobytes()
            # the folds and the rho array they read fit the budget, or one is held alone
            assert table._held_bytes <= budget or len(table._held) == 1


def test_theta_ladder_matches_the_per_cube_reference():
    """Every theta of one ap_ladder sweep is, value and witness, exactly the
    per-cube reference's sup at that theta alone, with sweep blocks of one
    side and of several, and with penalty budgets that hold the folds or
    hold none, each block's powers then raised as the block asks."""
    dom = Domain(1, 8.0, 6)
    rho = RhoSpec.analytic(INV_DIST)
    rng = np.random.default_rng(63)
    f = GridFunction(dom, rng.normal(0, 1, dom.shape))
    w = GridFunction(dom, np.exp(rng.normal(0, 1, dom.shape)))
    thetas = (0.0, 0.37, 1.0, 2.0, 4.0, 0.37)
    for root in (None, Cube(dom, (8,), 32)):
        fam = CubeFamily(dom, ALL_CELL_ALIGNED, root)
        ladders = []
        for budget in BLOCK_BUDGETS:
            for held in PENALTY_BUDGETS:
                with block_budget(budget), penalty_budget(held):
                    ladders.append(ap_ladder(w, 1.0, thetas, rho, fam))
        for t, theta in enumerate(thetas):
            *_, best, witness = _per_cube_reference(f, w, rho, fam, 0.0, theta)
            for ladder in ladders:
                c = ladder[t]
                assert (c.value, c.witness, c.theta) == (best, witness, theta)


def test_shen_rho_through_the_operators_is_computed_once(monkeypatch):
    """The paper's own rho: Shen's critical radius of the harmonic
    oscillator drives M[sigma] and the A_p characteristic like any other,
    and its penalty table is built once per family."""
    dom = Domain(3, 2.0, 3)
    rho = RhoSpec.shen(oscillator(dom))
    fam = default_family(dom)
    rng = np.random.default_rng(62)
    f = GridFunction(dom, rng.normal(0, 1, dom.shape))
    w = GridFunction(dom, np.exp(rng.normal(0, 0.5, dom.shape)))
    got = m_rho_sigma(f, rho, 1.5, cubes=fam).values
    want = brute_m_cubes(f, cubes_of(dom, fam), rho, 1.5)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-15)
    char = ap_characteristic(w, 2.0, 1.0, rho, fam).value
    assert char == pytest.approx(brute_ap(w, 2.0, fam, dom, 1.0, rho), rel=1e-10)

    calls = []
    counted = rhomix.critical.rho_values
    monkeypatch.setattr(
        rhomix.critical, "rho_values", lambda *a: calls.append(a) or counted(*a)
    )
    assert np.array_equal(m_rho_sigma(f, rho, 1.5, cubes=fam).values, got)
    assert ap_characteristic(w, 2.0, 1.0, rho, fam).value == char
    assert calls == []


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_block_power_is_the_per_cube_power(data):
    """After any sequence of exponents and ratio kinds, each under a drawn
    budget, so that folds and sides are held, evicted between steps, or
    raised block by block, every block of
    power(sides, exponent, ratio) holds each cube's own power, bit for bit,
    on both policies."""
    policy, rooted = data.draw(st.sampled_from(FAMILY_DRAWS))
    dim = 1 if policy == ALL_CELL_ALIGNED else data.draw(st.integers(1, 2))
    fam = _drawn_family(data, policy, rooted, dim, data.draw(st.integers(1, 5 if dim == 1 else 3)))
    rho = RhoSpec.analytic(ANALYTIC_RHO["inv_one_plus_dist"], name="inv_one_plus_dist")
    table = rho.penalty_table(fam)
    steps = data.draw(st.lists(
        st.tuples(
            st.sampled_from([0.5, 1.0, 2.0, -1.0, -0.37, 3.3]),
            st.booleans(),
            st.sampled_from(PENALTY_BUDGETS),
        ),
        min_size=1, max_size=10,
    ))
    blocks = [sides for sides, _ in fam.sweep(np.zeros(fam.domain.shape))]
    cubes = {}  # side -> (rho at the center, radius) per cube, in anchor order
    for s in np.concatenate(blocks).tolist():
        each = (Cube(fam.domain, tuple(a), s) for a in fam.anchors(s).tolist())
        cubes[s] = [(eval_rho(rho, c.center()), c.radius) for c in each]
    largest = 0  # a hit evicts nothing, so the held bytes answer to earlier budgets
    for exponent, ratio, budget in steps:
        largest = max(largest, budget)
        with penalty_budget(budget):
            for sides in blocks:
                got = table.power(sides, exponent, ratio)
                for j, s in enumerate(sides.tolist()):
                    want = [_cube_penalty(rv, r, exponent, ratio) for rv, r in cubes[s]]
                    assert got[j, : len(want)].tolist() == want
            newest = max((v[0].nbytes for v in table._held.values()), default=0)
            assert table._held_bytes <= max(largest, newest)


def test_block_powers_never_overflow_on_padding():
    """Raised block by block, a block's padded entries take base 1: under
    rho(x) = e^-x at exponent 90 every cube's power is finite (the largest
    factor is about 1100), while the padded entries pair large radii with
    rho near the right end, bases up to about 4400, whose 90th power
    passes the float range."""
    dom = Domain(1, 8.0, 3)
    rho = RhoSpec.analytic(lambda pts: np.exp(-pts[:, 0]))
    fam = default_family(dom)
    table = rho.penalty_table(fam)
    with penalty_budget(0):
        for sides, _ in fam.sweep(np.zeros(dom.shape)):
            got = table.power(sides, 90.0)
            for j, s in enumerate(sides.tolist()):
                each = (Cube(dom, (a,), s) for a in range(dom.n - s + 1))
                want = [_cube_penalty(eval_rho(rho, c.center()), c.radius, 90.0) for c in each]
                assert got[j, : len(want)].tolist() == want


def test_folds_are_evicted_least_recently_used_first():
    """With room for the rho array and two folds and not three, a table
    keeps the two exponents used last, the one just built among them, and
    the rho array each fold build reads."""
    rho = RhoSpec.analytic(INV_DIST)  # the table holds its rho weakly
    table = rho.penalty_table(default_family(Domain(1, 8.0, 5)))
    fold_bytes, rho_bytes = 8 * 16 * 33, 8 * (3 * 32 - 1)
    with penalty_budget(2 * fold_bytes + rho_bytes):
        for exponent in (0.5, 2.0, 0.5, 4.0):
            table._fold(exponent, False)
    assert list(table._held) == [(0.5, False), "half", (4.0, False)]
    assert table._held_bytes == 2 * fold_bytes + rho_bytes


def test_exponent_one_is_the_bases_themselves():
    """_libm_pow serves exponent 1 with no pow, so the exponent-1 powers
    are the tables' bases: libm's pow(b, 1) (np.float_power) is b bit for
    bit on every base of the tables here, on bases that are powers of two
    (a constant rho of 0.5 over cells of width 1 gives 1 + r/rho = 1 + s
    and rho/r = 1/s) and on every power of two."""
    dom = Domain(1, 8.0, 3)
    bases = []
    for rho in (RhoSpec.constant(0.5), RhoSpec.analytic(INV_DIST)):
        for policy in (ALL_CELL_ALIGNED, DYADIC_GRID_OF):
            table = rho.penalty_table(CubeFamily(dom, policy))
            for ratio in (False, True):
                for sides, _ in table.family.sweep(np.zeros(dom.shape)):
                    bases.append(np.ravel(table.power(sides, 1.0, ratio)))
    bases = np.concatenate(bases + [np.ldexp(1.0, np.arange(-1074, 1024))])
    assert {2.0, 4.0, 8.0, 0.5, 0.25}.issubset(bases.tolist())
    assert np.float_power(bases, 1.0).tobytes() == bases.tobytes()
    assert _libm_pow(bases, 1.0).tobytes() == bases.tobytes()


def test_penalty_memo_after_mixed_m_is_bounded(monkeypatch):
    """With grid.PENALTY_BYTES cut to 40 MiB, what the penalty tables of a
    d1 L10 mixed-M run under the analytic rho hold, as tracemalloc counts
    it, is within that budget: the level-10 table evicts folds (the
    default budget holds twelve, 48 MiB) and the level-11 table holds no
    fold (each too large to hold), only its rho array.  The report is byte
    for byte the one the default budget gives."""
    tables = []
    kept = RhoSpec.penalty_table
    monkeypatch.setattr(
        RhoSpec, "penalty_table", lambda rho, fam: tables.append(kept(rho, fam)) or tables[-1]
    )
    cfg = default_config("mixed-M", 1, 10, 7)
    cfg["suite"]["rho"] = {"kind": "analytic", "name": "inv_one_plus_dist"}
    want = run_experiment(cfg).canonical_json()
    budget = 40 << 20
    tables.clear()
    with penalty_budget(budget):
        # enough frames to see critical.py under numpy's helpers (np.pad)
        tracemalloc.start(3)
        try:
            got = run_experiment(cfg).canonical_json()
            gc.collect()
            held = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, rhomix.critical.__file__, all_frames=True)]
            ).statistics("filename")
        finally:
            tracemalloc.stop()
    assert got == want
    distinct = {id(t): t for t in tables}.values()
    folds = {t.family.domain.level: [key for key in t._held if key != "half"] for t in distinct}
    assert [level for level, keys in folds.items() if keys] == [10]
    traced = sum(stat.size for stat in held)
    assert sum(t._held_bytes for t in distinct) <= traced <= budget
