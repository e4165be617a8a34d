"""Rearrangements and Lorentz norms over weighted measures."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rhomix.experiments
import rhomix.grid
import rhomix.lorentz
from rhomix import (
    ALL_CELL_ALIGNED,
    Cube,
    CubeFamily,
    Domain,
    DomainMismatchError,
    GridFunction,
    RearrangementTable,
    RhoSpec,
    SCZOKernel,
    WeightedMeasure,
    default_config,
    distribution,
    integrate,
    interpolation_audit,
    lorentz_norm,
    m_rho_sigma_stack,
    make_function,
    make_weight,
    mixed_for_T,
    mixed_verify_global,
    rearrangement,
    run_experiment,
    t_grid_sup,
    weak_norm,
)
from rhomix.maximal import default_family

from conftest import BLOCK_BUDGETS, block_budget, row_by_row_audit, row_level_table


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


def test_measure_mass_rejects_a_foreign_mask():
    dom = Domain(2, 4.0, 2)
    mu = WeightedMeasure(GridFunction(dom, np.arange(1.0, 17.0)))
    cells = np.zeros(dom.shape, dtype=bool)
    cells[1, 2:] = True
    assert mu.mass(cells) == (7.0 + 8.0) * dom.cell_volume
    with pytest.raises(DomainMismatchError):
        mu.mass(np.ones(8, dtype=bool))


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


@pytest.mark.parametrize("p, q", [(math.nan, 1.0), (2.0, math.nan), (math.nan, math.nan)])
def test_nan_exponents_are_rejected_regression(p, q):
    # "p <= 0 or q <= 0" is false for NaN, and the norm came out NaN
    f, mu = _f312()
    with pytest.raises(ValueError, match="positive"):
        lorentz_norm(f, mu, p, q)
    with pytest.raises(ValueError, match="positive"):
        rearrangement(f, mu).lorentz_norm(p, q)
    if math.isnan(p):
        with pytest.raises(ValueError, match="positive"):
            weak_norm(f, mu, p)


def test_interpolation_identity_operator():
    rng = np.random.default_rng(68)
    dom = Domain(1, 8.0, 5)
    mu = WeightedMeasure(GridFunction(dom, rng.uniform(0.5, 2.0, dom.shape)))
    fs = [GridFunction(dom, rng.normal(0, 1, dom.shape)) for _ in range(20)]
    rep = interpolation_audit(lambda g: g, 1.0, 2.0, mu, fs, C0=1.0, C1=1.0)
    assert rep.violations == 0
    assert rep.bound_constant > 1.0


def test_interpolation_negative_control_fires():
    rng = np.random.default_rng(69)
    dom = Domain(1, 8.0, 6)
    mu = WeightedMeasure(GridFunction(dom, rng.uniform(0.5, 2.0, dom.shape)))
    fam = CubeFamily(dom, ALL_CELL_ALIGNED)
    T = lambda stack: m_rho_sigma_stack(stack, RhoSpec.classical(), 0.0, 1.0, fam)
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
    fam = CubeFamily(dom, ALL_CELL_ALIGNED)
    T = lambda stack: m_rho_sigma_stack(stack, RhoSpec.classical(), 0.0, 1.0, fam)
    fs = [make_function(dom, {"kind": "spike", "count": 2}, rng) for _ in range(10)]
    honest = interpolation_audit(T, 1.0, 2.0, mu, fs)
    assert honest.total_violations == 0
    halved = interpolation_audit(T, 1.0, 2.0, mu, fs, C0=honest.C0 / 2.0, C1=honest.C1)
    assert halved.hypothesis_violations >= 1
    assert halved.hyp_max_ratio >= 2.0 - 1e-9


def test_interpolation_rejects_a_T_that_does_not_map_the_stack():
    """T gets the whole pool as one (B, *grid) stack and must return a stack
    of the same shape; one image, a transposed stack or a dropped member
    is a clear error, not a silent misalignment."""
    f, mu = _f312()
    for T in (lambda s: s[0], lambda s: s.T, lambda s: s[1:]):
        with pytest.raises(ValueError, match="same shape"):
            interpolation_audit(T, 1.0, 2.0, mu, [f, 2.0 * f])


def test_interpolation_rejects_a_T_with_non_finite_images():
    """An image that is inf or NaN on some cell would make every norm of
    the audit meaningless, so the audit refuses it."""
    f, mu = _f312()

    def blows_up(stack, bad):
        out = np.array(stack, dtype=float)
        out[-1].flat[0] = bad
        return out

    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="non-finite"):
            interpolation_audit(lambda s: blows_up(s, bad), 1.0, 2.0, mu, [f, 2.0 * f])


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


def test_table_distribution_below_zero_is_total_mass_regression():
    # every cell has |f| > s < 0, the zero cell included: lambda(s) = mu(Omega)
    f, mu = _f312()
    table = rearrangement(f, mu)
    assert float(table.distribution(-1.0)) == 4.0
    assert distribution(f, mu, -1.0) == 4.0
    assert np.array_equal(table.distribution([-1.0, 0.0, 1.5, 3.0]), [4.0, 3.0, 2.0, 0.0])


def test_tied_cells_add_up_in_memory_order():
    # in each tie group the first cell in memory order has density 1 and
    # the rest 2^-53; 1 + 2^-53 rounds back to 1, so memory order gives the
    # masses 1, 2, 3 exactly, and any order that adds two small cells of the
    # top group before its big one lands above 1
    dom = Domain(2, 32.0, 5)
    vals = np.random.default_rng(0).choice([-3.0, -2.0, 1.0, 2.0, 3.0], dom.shape)
    absf = np.abs(vals).ravel()
    dens = np.full(absf.shape, 2.0**-53)
    for v in (1.0, 2.0, 3.0):
        dens[np.argmax(absf == v)] = 1.0
    mu = WeightedMeasure(GridFunction(dom, dens))
    table = rearrangement(GridFunction(dom, vals), mu)
    assert np.array_equal(table.values, [3.0, 2.0, 1.0])
    assert np.array_equal(table.masses, [1.0, 2.0, 3.0])


def test_zero_mass_cells_make_no_step_regression():
    # the value 1 sits on one cell of density 0; the masked sums of the
    # nested sets {|f| >= 2} (7 cells, summed in a row) and {|f| >= 1}
    # (8 cells, summed pairwise) disagreed in the last bit, which made a
    # step of zero mass
    dom = Domain(1, 8.0, 3)
    f = GridFunction(dom, np.array([2.0] * 7 + [1.0]))
    mu = WeightedMeasure(GridFunction(dom, np.array([1.0] + [2.0**-53] * 6 + [0.0])))
    table = rearrangement(f, mu)
    assert np.array_equal(table.values, [2.0])
    assert np.array_equal(table.masses, [1.0])


def _masked_rearrangement(f, mu):
    """The per-value masked sums that the level-set table replaced."""
    absf = np.abs(f.values)
    dens = mu.density.values
    vol = mu.domain.cell_volume
    vals = -np.unique(-absf[absf > 0])
    masses = np.array([float(dens[absf >= v].sum()) * vol for v in vals])
    keep = np.diff(np.concatenate([[0.0], masses])) > 0
    return vals[keep], masses[keep]


def _masked_t_grid_sup(T, mu, t_grid):
    """The per-t masked loop that the level-set table replaced."""
    sup = 0.0
    for t in t_grid:
        sup = max(sup, t * mu.mass(T.values > t))
    return sup


def _exact_mass(mu, cells):
    """mu(cells) in exact arithmetic, and how many terms it sums."""
    terms = mu.density.values[cells]
    exact = sum((Fraction(float(d)) for d in terms), Fraction(0))
    return exact * Fraction(mu.domain.cell_volume), terms.size


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    shape=st.sampled_from([(1, 4), (1, 6), (2, 2), (2, 3), (3, 2)]),
    distinct=st.integers(min_value=1, max_value=12),
    zero_share=st.sampled_from([0.0, 0.3, 1.0]),
    void_share=st.sampled_from([0.0, 0.3]),
)
def test_level_table_matches_masked_oracle(seed, shape, distinct, zero_share, void_share):
    """The sorted cumulative-mass table against the masked sums it replaced.

    Values and step counts are equal; every mass is within (n - 1) 2^-53
    relative of the exact sum over its n masked cells; distribution() and
    the table agree with zero tolerance; the t-grid sup never exceeds the
    weak norm and matches the per-t masked loop.
    """
    rng = np.random.default_rng(seed)
    dim, level = shape
    dom = Domain(dim, 8.0, level)
    # few distinct values make ties; zero_share 1.0 is the all-zero f
    pool = rng.normal(0, 2, distinct)
    vals = rng.choice(pool, dom.shape)
    vals[rng.random(dom.shape) < zero_share] = 0.0
    f = GridFunction(dom, vals)
    dens = rng.uniform(0.25, 4.0, dom.shape)
    dens[rng.random(dom.shape) < void_share] = 0.0
    mu = WeightedMeasure(GridFunction(dom, dens))
    absf = np.abs(f.values)

    table = rearrangement(f, mu)
    assert isinstance(table, RearrangementTable)
    # the oracle can keep a step whose cells all have density 0, when the
    # masked sums of two nested sets disagree in the last bit; the running
    # sum cannot, since adding 0 leaves it unchanged
    want_vals, want_masses = _masked_rearrangement(f, mu)
    real = np.array([bool(np.any(dens[absf == v] > 0)) for v in want_vals], dtype=bool)
    assert np.array_equal(table.values, want_vals[real])
    assert table.masses.size == want_masses[real].size
    assert np.all(np.diff(table.masses) > 0)
    for v, m in zip(table.values, table.masses):
        exact, n = _exact_mass(mu, absf >= v)
        assert abs(Fraction(float(m)) - exact) <= (n - 1) * Fraction(2) ** -53 * exact
    exact, n = _exact_mass(mu, np.ones(dom.shape, dtype=bool))
    assert abs(Fraction(table.domain_mass) - exact) <= (n - 1) * Fraction(2) ** -53 * exact

    probes = np.concatenate([
        rng.uniform(-1.0, absf.max() + 1.0, 20), table.values, [-1.0, 0.0],
    ])
    for s in probes:
        assert distribution(f, mu, float(s)) == float(table.distribution(float(s)))
    assert np.array_equal(
        table.distribution(probes), [distribution(f, mu, float(s)) for s in probes]
    )

    for T in (GridFunction(dom, absf), f):
        sup, grid = t_grid_sup(T, mu)
        if T is not f:
            assert sup <= weak_norm(T, mu)
        want = _masked_t_grid_sup(T, mu, grid)
        assert abs(sup - want) <= (absf.size - 1) * 2.0**-53 * want
        ts = rng.uniform(-1.0, absf.max() + 1.0, 9)
        want = _masked_t_grid_sup(T, mu, ts)
        sup, grid = t_grid_sup(T, mu, ts)
        assert grid == tuple(float(t) for t in ts)
        assert abs(sup - want) <= (absf.size - 1) * 2.0**-53 * want


def _tied(data):
    """Float arrays the level tables meet: all distinct or few distinct
    values (ties), no, some, most or all cells zero, zeros of either sign,
    down to one cell."""
    n = data.draw(st.integers(1, 300))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    distinct = data.draw(st.sampled_from([None, 1, 2, 5]))
    if distinct is None:
        a = rng.exponential(1.0, n)
    else:
        a = rng.choice(rng.exponential(1.0, distinct), n)
    a[rng.random(n) < data.draw(st.sampled_from([0.0, 0.3, 0.8, 1.0]))] = 0.0
    a[(a == 0) & (rng.random(n) < data.draw(st.sampled_from([0.0, 0.5, 1.0])))] = -0.0
    return a


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_descending_order_is_the_stable_argsort(data):
    """The default sort with a stable re-sort on ties gives exactly the
    stable argsort's order, and the values in that order."""
    a = _tied(data)
    order, keys = rhomix.lorentz._descending(a)
    want = np.argsort(-a, kind="stable")
    assert np.array_equal(order, want)
    assert np.array_equal(keys.view(np.int64), a[want].view(np.int64))


def test_descending_order_of_distinct_values_takes_one_sort(monkeypatch):
    """Distinct positive values and any number of zeros sort once; a tie
    between positive values sorts again, stably."""
    calls = []
    argsort = np.argsort

    def counting(a, *args, **kwargs):
        calls.append(kwargs.get("kind"))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(rhomix.lorentz.np, "argsort", counting)
    rhomix.lorentz._descending(np.array([3.0, 0.0, 1.0, -0.0, 2.0, 0.0]))
    assert calls == [None]
    calls.clear()
    rhomix.lorentz._descending(np.array([3.0, 1.0, 3.0, 0.0]))
    assert calls == [None, "stable"]


@pytest.fixture
def counted_tables(monkeypatch):
    """Record the level array of every table lorentz builds."""
    levels = []
    build = rhomix.lorentz._level_table

    def counting(domain, level, mu):
        levels.append(level.tobytes())
        return build(domain, level, mu)

    monkeypatch.setattr(rhomix.lorentz, "_level_table", counting)
    return levels


def test_lorentz_experiment_builds_three_tables_per_instance(counted_tables):
    """|f|, |g| and |f + g| against one mu: f's distribution reads the
    table f* came from."""
    config = default_config("lorentz", 1, 5, seed=3)
    config["instances"] = 7
    assert run_experiment(config).ok
    assert len(counted_tables) == 3 * 7


def test_mixed_checks_build_the_table_of_T_once(counted_tables):
    """The exact weak norm and the t-grid sup of T read one table: T, loc
    and glob in mixed_verify_global, T and M in mixed_for_T."""
    rng = np.random.default_rng(79)
    dom = Domain(1, 8.0, 6)
    f = make_function(dom, {"kind": "spike", "count": 3}, rng)
    u = make_weight(dom, {"kind": "smooth_random", "amp": 0.4}, rng)
    v = make_weight(dom, {"kind": "power", "alpha": 1.5}, rng)
    # a rho with sub- and supercritical cubes, so loc and glob differ from T
    rho = RhoSpec.analytic(lambda pts: 1.0 / (1.0 + np.abs(pts[:, 0])))
    mixed_verify_global(f, u, v, rho, sigma=1.0, theta=1.0)
    assert len(counted_tables) == len(set(counted_tables)) == 3
    counted_tables.clear()
    mixed_for_T(f.abs(), u, v, SCZOKernel("odd_inverse"))
    assert len(counted_tables) == len(set(counted_tables)) == 2


# ---------------------------------------------------------------------------
# stacked level tables and the chunked audit against the row-by-row oracles


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def _stack_and_measure(data):
    """A (B, N) stack of level rows over a small grid, each row tied or
    distinct, with zeros of either sign, and a density with mu-null cells."""
    dim, level = data.draw(st.sampled_from([(1, 3), (1, 5), (2, 2), (2, 3), (3, 2)]))
    dom = Domain(dim, 8.0, level)
    n = math.prod(dom.shape)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(data.draw(st.integers(1, 9))):
        distinct = data.draw(st.sampled_from([None, 1, 2, 5]))
        row = rng.exponential(1.0, n) if distinct is None else rng.choice(rng.exponential(1.0, distinct), n)
        row[rng.random(n) < data.draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
        row[(row == 0) & (rng.random(n) < 0.5)] = -0.0
        rows.append(row)
    dens = rng.uniform(0.25, 4.0, n)
    dens[rng.random(n) < data.draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    return np.array(rows), WeightedMeasure(GridFunction(dom, dens.reshape(dom.shape)))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_stacked_level_tables_are_the_row_tables(data):
    """Every row of a stacked table, and its weak and Lorentz norms, are the
    floats of that row's own table, ties, zeros of either sign and mu-null
    cells included."""
    stack, mu = _stack_and_measure(data)
    p = data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.7]))
    q = data.draw(st.sampled_from([0.7, 1.0, 2.0]))
    tables = rhomix.lorentz._level_tables(stack, mu)
    want = [row_level_table(row, mu) for row in stack]
    for r, table in enumerate(want):
        got = tables.row(r)
        assert _bits(got.values) == _bits(table.values)
        assert _bits(got.masses) == _bits(table.masses)
        assert _bits(got.domain_mass) == _bits(table.domain_mass)
        assert _bits(got.peak) == _bits(table.peak)
    assert _bits(tables.weak_norms(p)) == _bits([t.weak_norm(p) for t in want])
    rows = range(len(stack))
    assert _bits(tables.lorentz_norms(p, q, rows)) == _bits([t.lorentz_norm(p, q) for t in want])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_descending_order_of_a_stack_is_each_rows_stable_argsort(data):
    """The stacked sort re-sorts stably only the rows with a positive tie,
    and every row's order is its stable argsort's, signed zeros and all."""
    stack, _mu = _stack_and_measure(data)
    order, keys = rhomix.lorentz._descending(stack)
    want = np.argsort(-stack, axis=1, kind="stable")
    assert np.array_equal(order, want)
    assert keys.tobytes() == np.take_along_axis(stack, want, axis=1).tobytes()


def _maximal(fam):
    return lambda stack: m_rho_sigma_stack(stack, RhoSpec.classical(), 0.0, 1.0, fam)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    shape=st.sampled_from([(1, 4), (1, 5), (2, 2), (2, 3)]),
    budget=st.sampled_from(BLOCK_BUDGETS),
)
def test_interpolation_audit_is_the_row_by_row_audit(seed, shape, budget):
    """One chunk of rows at a time (down to one row per chunk), the audit
    reports the row-by-row oracle's floats, measured constants and
    understated ones alike."""
    rng = np.random.default_rng(seed)
    dom = Domain(shape[0], 8.0, shape[1])
    dens = rng.uniform(0.5, 2.0, dom.shape)
    dens[rng.random(dom.shape) < 0.2] = 0.0
    mu = WeightedMeasure(GridFunction(dom, dens))
    fs = [make_function(dom, {"kind": kind}, rng) for kind in ("random", "spike", "indicator")]
    T = _maximal(default_family(dom))
    with block_budget(budget):
        for C0, C1 in ((None, None), (0.5, 0.5)):
            got = interpolation_audit(T, 1.0, 2.0, mu, fs, C0=C0, C1=C1)
            assert got == row_by_row_audit(T, 1.0, 2.0, mu, fs, C0=C0, C1=C1)


def test_interpolation_audit_builds_no_table_per_row(monkeypatch):
    """The audit reads the pool's norms off stacked tables, two builds (pool
    rows and images) per chunk of rows: the only one-row tables are the
    suite's own, one per f for the steps its splits are cut at."""
    rng = np.random.default_rng(83)
    dom = Domain(1, 8.0, 5)
    mu = WeightedMeasure(GridFunction(dom, rng.uniform(0.5, 2.0, dom.shape)))
    fs = [make_function(dom, {"kind": "random"}, rng) for _ in range(3)]
    one, stacked = [], []
    build, build_stack = rhomix.lorentz._level_table, rhomix.lorentz._level_tables
    monkeypatch.setattr(rhomix.lorentz, "_level_table", lambda *a: one.append(1) or build(*a))
    monkeypatch.setattr(
        rhomix.lorentz, "_level_tables", lambda level, mu: stacked.append(len(level)) or build_stack(level, mu)
    )
    with block_budget(4 * 32):  # four rows of 32 cells per chunk
        interpolation_audit(lambda s: np.abs(s), 1.0, 2.0, mu, fs)
    assert len(one) == len(fs)
    pool_builds = stacked[len(fs):]
    members = sum(pool_builds) // 2
    assert members > 20 * len(fs)
    assert len(pool_builds) == 2 * -(-members // 4)
    assert all(rows <= 4 for rows in pool_builds)


def test_interpolation_counts_a_zero_norm_member_with_a_nonzero_image():
    """T(s) = s + 1 maps the all-zero top split to 1, so ||Tg|| > 0 = C ||g||
    breaks both hypotheses for every C; a ratio over a norm of 0 used to
    read 0 and pass even at C0 = C1 = 1e9.  An f of norm 0 with a nonzero
    image breaks the conclusion the same way."""
    dom = Domain(1, 8.0, 4)
    mu = WeightedMeasure.lebesgue(dom)
    f = GridFunction(dom, np.arange(16.0) - 5.0)
    T = lambda s: s + 1.0
    for C in (None, 1e9):
        rep = interpolation_audit(T, 1.0, 2.0, mu, [f], C0=C, C1=C)
        # the top step's high split is the one zero member: two failures
        assert rep.hypothesis_violations == 2
        assert rep.hyp_max_ratio == math.inf
    zero = GridFunction.constant(dom, 0.0)
    rep = interpolation_audit(T, 1.0, 2.0, mu, [zero], C0=1e9, C1=1e9)
    assert rep.violations == 1 and rep.max_ratio == math.inf
    assert rep.hypothesis_violations == 2


def test_interpolation_measures_the_constants_over_members_of_positive_norm():
    """C0 and C1 are the maxima over the members of positive norm; a
    zero-norm member adds nothing to them."""
    dom = Domain(1, 8.0, 4)
    mu = WeightedMeasure.lebesgue(dom)
    f = GridFunction(dom, np.arange(16.0) - 5.0)
    rep = interpolation_audit(lambda s: 2.0 * s + 1.0, 1.0, 2.0, mu, [f])
    assert math.isfinite(rep.C0) and math.isfinite(rep.C1) and rep.C1 > 0


def test_interpolation_audit_peak_memory_is_one_chunk_of_tables():
    """At d1 L9 the pool and its images take 2 x 8 B per member cell; the
    audit holds at most a few chunk-sized tables beyond them at any time
    (traced), never tables of the whole pool."""
    bundle = rhomix.experiments._suite(default_config("interpolation", 1, 9, seed=7))
    mu = WeightedMeasure(bundle.pairs[0].u)
    fs = list(bundle.fs)
    cells = math.prod(mu.domain.shape)
    members = sum(1 + 2 * rearrangement(f, mu).values.size for f in fs)
    stacks = 2 * members * cells * 8
    chunk = rhomix.grid.BLOCK_ELEMENTS * 8
    tracemalloc.start()
    try:
        interpolation_audit(lambda s: np.abs(s), 1.0, 2.0, mu, fs)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert members * cells > 40 * rhomix.grid.BLOCK_ELEMENTS  # a pool of many chunks
    assert peak - stacks <= 16 * chunk
