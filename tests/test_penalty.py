"""Cube penalties: every power of a growth factor or of rho/r comes from the
rho's PenaltyTable, by libm's pow (the function Python's float pow calls),
once per (family, side, exponent)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rhomix.critical
from rhomix import (
    ALL_CELL_ALIGNED,
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
from rhomix.suite import ANALYTIC_RHO

from conftest import BLOCK_BUDGETS, block_budget, cubes_of, oscillator, row_by_row_fold
from test_maximal import brute_m_cubes
from test_weights import ainf_epsilon_form_ref, brute_ap

INV_DIST = lambda pts: 1.0 / (1.0 + np.linalg.norm(pts, axis=1))


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
    for (sides, anchors, (avgs,)), (_, _, (w_avgs,)) in sweeps:
        scores = w_avgs / fam.cube_extreme(w.values, sides, "min")
        for s, avg, score in zip(sides.tolist(), avgs, scores):
            for i, anchor in enumerate(fam.anchors(s).tolist()):
                cube = Cube(dom, tuple(anchor), s)
                rv, r = eval_rho(rho, cube.center()), cube.radius
                fac = 1.0 + r / rv
                sl = cube.slices()
                m[sl] = np.maximum(m[sl], avg[i] * fac ** -sigma)
                if r <= rv:
                    loc[sl] = np.maximum(loc[sl], avg[i])
                else:
                    glob[sl] = np.maximum(glob[sl], avg[i] * (rv / r) ** sigma)
                ratio = score[i] / fac**theta
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
)
def test_fold_matches_the_row_by_row_oracle(level, rooted, seed, rho_name, exponents, ratio):
    """Each exponent's fold, built a chunk of rows at a time, holds the
    floats of the fold built row by row: every span and root, exponents of
    either sign, both ratio kinds, several exponents on one table."""
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
    for exponent in exponents:
        lower, upper = table._fold(exponent, ratio)
        want_lower, want_upper = row_by_row_fold(table, exponent, ratio)
        assert lower.tobytes() == want_lower.tobytes()
        assert upper.tobytes() == want_upper.tobytes()


def test_theta_ladder_matches_the_per_cube_reference():
    """Every theta of one ap_ladder sweep is, value and witness, exactly the
    per-cube reference's sup at that theta alone, with sweep blocks of one
    side and of several."""
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
            with block_budget(budget):
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
