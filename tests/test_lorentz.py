"""Rearrangements and Lorentz norms over weighted measures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhomix import (
    ALL_CELL_ALIGNED,
    Cube,
    Domain,
    GridFunction,
    RhoSpec,
    WeightedMeasure,
    distribution,
    enumerate_cubes,
    integrate,
    interpolation_audit,
    lorentz_norm,
    m_rho_sigma,
    make_function,
    rearrangement,
    weak_norm,
)


def _f312():
    # unit cells [3, 1, 2, 0]: the trailing zero pads the grid to a power of 2
    dom = Domain(1, 4.0, 2)
    return GridFunction(dom, np.array([3.0, 1.0, 2.0, 0.0])), WeightedMeasure.lebesgue(dom)


def test_distribution_step_values():
    f, mu = _f312()
    assert distribution(f, mu, 1.5) == 2.0
    assert distribution(f, mu, 0.0) == 3.0   # strict inequality, zero excluded
    assert distribution(f, mu, 3.0) == 0.0
    assert distribution(f, mu, 99.0) == 0.0


def test_distribution_matches_brute_filter():
    rng = np.random.default_rng(61)
    dom = Domain(1, 8.0, 6)
    f = GridFunction(dom, rng.normal(0, 2, dom.shape))
    mu = WeightedMeasure(GridFunction(dom, rng.uniform(0.5, 2.0, dom.shape)))
    for s in rng.uniform(0, 5, 100):
        direct = float(mu.density.values[np.abs(f.values) > s].sum()) * dom.cell_volume
        assert distribution(f, mu, float(s)) == pytest.approx(direct, rel=1e-13, abs=1e-13)


def test_rearrangement_step_table():
    f, mu = _f312()
    table = rearrangement(f, mu)
    assert np.array_equal(table.values, [3.0, 2.0, 1.0])
    assert np.array_equal(table.masses, [1.0, 2.0, 3.0])
    ts = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 10.0])
    assert np.array_equal(table.f_star(ts), [3, 3, 2, 2, 1, 1, 0, 0])


def test_rearrangement_merges_ties():
    dom = Domain(1, 4.0, 2)
    f = GridFunction(dom, np.array([2.0, 2.0, 1.0, 2.0]))
    table = rearrangement(f, WeightedMeasure.lebesgue(dom))
    assert np.array_equal(table.values, [2.0, 1.0])
    assert np.array_equal(table.masses, [3.0, 4.0])


def test_indicator_rearranges_to_interval():
    dom = Domain(1, 8.0, 4)
    Q = Cube(dom, (3,), 6)
    c = 2.5
    f = GridFunction(dom, c * GridFunction.indicator(dom, Q).values)
    mu = WeightedMeasure.lebesgue(dom)
    table = rearrangement(f, mu)
    m = Q.volume
    assert np.array_equal(table.values, [c])
    assert np.array_equal(table.masses, [m])
    assert table.f_star(np.array([m * 0.99]))[()] == pytest.approx(c)
    assert table.f_star(np.array([m * 1.01]))[()] == 0.0


def test_five_rearrangement_properties_hold_exactly():
    rng = np.random.default_rng(62)
    dom = Domain(1, 8.0, 5)
    for _ in range(100):
        f = GridFunction(dom, rng.normal(0, 1, dom.shape))
        g = GridFunction(dom, rng.normal(0, 1, dom.shape))
        mu = WeightedMeasure(GridFunction(dom, rng.uniform(0.25, 4.0, dom.shape)))
        tf, tg = rearrangement(f, mu), rearrangement(g, mu)
        t = float(rng.uniform(0, mu.total()))
        s = float(rng.uniform(0, np.abs(f.values).max()))
        # (a) lambda_f(f*(t)) <= t
        assert distribution(f, mu, float(tf.f_star(t))) <= t + 1e-12
        # (b) f*(t) > s iff t < lambda_f(s), away from the step edge
        lam = distribution(f, mu, s)
        if abs(t - lam) > 1e-12:
            assert (float(tf.f_star(t)) > s) == (t < lam)
        # (c) subadditivity
        fg = rearrangement(GridFunction(dom, f.values + g.values), mu)
        t1, t2 = 0.6 * t, 0.4 * t
        assert float(fg.f_star(t1 + t2)) <= float(tf.f_star(t1)) + float(tg.f_star(t2)) + 1e-12
        # (d) monotone nonincreasing
        grid = np.linspace(0, mu.total(), 17)
        vals = tf.f_star(grid)
        assert np.all(np.diff(vals) <= 1e-15)
        # (e) f*(0) = ess sup |f|
        assert float(tf.f_star(0.0)) == pytest.approx(np.abs(f.values).max(), rel=1e-15)


def test_generalized_inverse():
    rng = np.random.default_rng(63)
    dom = Domain(1, 8.0, 5)
    f = GridFunction(dom, rng.normal(0, 1, dom.shape))
    mu = WeightedMeasure(GridFunction(dom, rng.uniform(0.5, 2.0, dom.shape)))
    table = rearrangement(f, mu)
    for s in rng.uniform(0, np.abs(f.values).max() * 1.2, 50):
        lam = distribution(f, mu, float(s))
        assert float(table.f_star(lam)) <= s + 1e-12


def test_indicator_norm_closed_form():
    dom = Domain(1, 8.0, 5)
    Q = Cube(dom, (5,), 13)
    f = GridFunction.indicator(dom, Q)
    rng = np.random.default_rng(64)
    mu = WeightedMeasure(GridFunction(dom, rng.uniform(0.5, 3.0, dom.shape)))
    m = mu.mass(f.values > 0)
    for p, q in ((1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (3.0, 0.5), (1.5, 7.0)):
        got = lorentz_norm(f, mu, p, q)
        want = (p / q) ** (1.0 / q) * m ** (1.0 / p)
        assert got == pytest.approx(want, rel=1e-10), (p, q)
    assert lorentz_norm(f, mu, 2.0, math.inf) == pytest.approx(m ** 0.5, rel=1e-12)


def test_norm_homogeneity():
    rng = np.random.default_rng(65)
    dom = Domain(1, 8.0, 5)
    f = GridFunction(dom, rng.normal(0, 1, dom.shape))
    mu = WeightedMeasure(GridFunction(dom, rng.uniform(0.5, 2.0, dom.shape)))
    for p, q in ((2.0, 1.0), (3.0, 3.0), (2.0, math.inf)):
        a = lorentz_norm(GridFunction(dom, -4.0 * f.values), mu, p, q)
        b = 4.0 * lorentz_norm(f, mu, p, q)
        assert a == pytest.approx(b, rel=1e-12)


def test_p_equals_q_is_lebesgue_norm():
    # layer cake: integral of (f*)^p dt = integral of |f|^p dmu, exactly
    rng = np.random.default_rng(66)
    dom = Domain(1, 8.0, 5)
    f = GridFunction(dom, rng.normal(0, 1, dom.shape))
    w = GridFunction(dom, rng.uniform(0.5, 2.0, dom.shape))
    mu = WeightedMeasure(w)
    for p in (1.0, 2.0, 3.5):
        got = lorentz_norm(f, mu, p, p)
        want = (float((np.abs(f.values) ** p * w.values).sum()) * dom.cell_volume) ** (1 / p)
        assert got == pytest.approx(want, rel=1e-12), p


def test_weak_norm_is_exact_sup():
    rng = np.random.default_rng(67)
    dom = Domain(1, 8.0, 6)
    f = GridFunction(dom, rng.normal(0, 3, dom.shape))
    mu = WeightedMeasure(GridFunction(dom, rng.uniform(0.5, 2.0, dom.shape)))
    w = weak_norm(f, mu)
    # any grid sup is a lower bound; the step-table sup must dominate it
    ts = np.linspace(1e-6, np.abs(f.values).max() * 1.001, 4001)
    grid = max(t * distribution(f, mu, t) for t in ts)
    assert w >= grid - 1e-12
    assert w == pytest.approx(lorentz_norm(f, mu, 1.0, math.inf), rel=1e-12)


def test_weak_norm_general_p():
    dom = Domain(1, 8.0, 4)
    f = GridFunction.indicator(dom, Cube(dom, (2,), 5))
    mu = WeightedMeasure.lebesgue(dom)
    m = mu.mass(f.values > 0)
    assert weak_norm(f, mu, 2.0) == pytest.approx(m ** 0.5, rel=1e-12)


def test_norm_parameter_validation():
    f, mu = _f312()
    with pytest.raises(ValueError):
        lorentz_norm(f, mu, math.inf, 2.0)
    with pytest.raises(ValueError):
        lorentz_norm(f, mu, 0.0, 1.0)
    with pytest.raises(ValueError):
        lorentz_norm(f, mu, 2.0, 0.0)


def test_interpolation_identity_operator():
    rng = np.random.default_rng(68)
    dom = Domain(1, 8.0, 5)
    mu = WeightedMeasure(GridFunction(dom, rng.uniform(0.5, 2.0, dom.shape)))
    fs = [GridFunction(dom, rng.normal(0, 1, dom.shape)) for _ in range(20)]
    rep = interpolation_audit(lambda g: g, 1.0, 2.0, mu, fs, C0=1.0, C1=1.0)
    assert rep.violations == 0
    assert rep.bound_constant > 1.0


@pytest.mark.slow
def test_interpolation_negative_control_fires():
    rng = np.random.default_rng(69)
    dom = Domain(1, 8.0, 6)
    mu = WeightedMeasure(GridFunction(dom, rng.uniform(0.5, 2.0, dom.shape)))
    fam = enumerate_cubes(dom, ALL_CELL_ALIGNED)
    T = lambda g: m_rho_sigma(g, RhoSpec.classical(), 0.0, 1.0, fam)
    fs = [GridFunction(dom, rng.normal(0, 1, dom.shape)) for _ in range(30)]
    honest = interpolation_audit(T, 1.0, 2.0, mu, fs)
    assert honest.violations == 0
    assert honest.hypothesis_violations == 0
    # measured constants are attained maxima
    assert honest.hyp_max_ratio == pytest.approx(1.0)
    rigged = interpolation_audit(T, 1.0, 2.0, mu, fs, C0=honest.C0 / 100.0, C1=0.0)
    assert rigged.violations >= 1
    assert rigged.total_violations > rigged.violations


def test_interpolation_halved_constant_fails_hypothesis_audit():
    # understating C0 by 2x keeps the conclusion (it has slack for M) but
    # the attained weak-type ratio in the pool now exceeds the stated C0
    rng = np.random.default_rng(70)
    dom = Domain(1, 8.0, 6)
    mu = WeightedMeasure(GridFunction(dom, rng.uniform(0.5, 2.0, dom.shape)))
    fam = enumerate_cubes(dom, ALL_CELL_ALIGNED)
    T = lambda g: m_rho_sigma(g, RhoSpec.classical(), 0.0, 1.0, fam)
    fs = [make_function(dom, {"kind": "spike", "count": 2}, rng) for _ in range(10)]
    honest = interpolation_audit(T, 1.0, 2.0, mu, fs)
    assert honest.total_violations == 0
    halved = interpolation_audit(T, 1.0, 2.0, mu, fs, C0=honest.C0 / 2.0, C1=honest.C1)
    assert halved.hypothesis_violations >= 1
    assert halved.hyp_max_ratio >= 2.0 - 1e-9


def test_interpolation_rejects_bad_exponents():
    f, mu = _f312()
    with pytest.raises(ValueError):
        interpolation_audit(lambda g: g, 2.0, 2.0, mu, [f])
    with pytest.raises(ValueError):
        interpolation_audit(lambda g: g, 3.0, 2.0, mu, [f])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_subadditivity_property(seed):
    rng = np.random.default_rng(seed)
    dom = Domain(1, 4.0, 4)
    f = GridFunction(dom, rng.normal(0, 1, dom.shape))
    g = GridFunction(dom, rng.normal(0, 1, dom.shape))
    mu = WeightedMeasure(GridFunction(dom, rng.uniform(0.25, 4.0, dom.shape)))
    t1 = float(rng.uniform(0, mu.total() / 2))
    t2 = float(rng.uniform(0, mu.total() / 2))
    lhs = float(rearrangement(GridFunction(dom, f.values + g.values), mu).f_star(t1 + t2))
    rhs = float(rearrangement(f, mu).f_star(t1)) + float(rearrangement(g, mu).f_star(t2))
    assert lhs <= rhs + 1e-12
