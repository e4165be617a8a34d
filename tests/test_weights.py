"""Weight classes: A_p / RH_s characteristics, epsilon forms, factor weights."""

import math
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
    EpsilonForm,
    GridFunction,
    InvalidWeightError,
    RhoSpec,
    SumOverflowError,
    ainf_epsilon,
    ainf_epsilon_form,
    ap_characteristic,
    ap_ladder,
    characteristics,
    default_family,
    factor_build,
    growth_factor,
    make_weight,
    rh_characteristic,
    weighted_measure,
)

import rhomix.weights
from conftest import BLOCK_BUDGETS, FAMILY_DRAWS, block_budget, counted_fits, cubes_of

CL = RhoSpec.classical()


def _fam(dom):
    return CubeFamily(dom, ALL_CELL_ALIGNED if dom.dim == 1 else DYADIC_GRID_OF)


def brute_ap(w, p, fam, dom, theta=0.0, rho=CL):
    """Direct per-cube characteristic with plain numpy means, each cube's
    ratio divided by its growth factor to the theta.  theta may be a tuple,
    a ladder, and then the result is the list of per-theta sups."""
    thetas = theta if isinstance(theta, tuple) else (theta,)
    best = [0.0] * len(thetas)
    for Q in cubes_of(dom, fam):
        cell = w.values[Q.slices()]
        if p == 1:
            ratio = cell.mean() / cell.min()
        elif p == math.inf:
            ratio = cell.mean() * math.exp(np.mean(np.log(1.0 / cell)))
        else:
            pp = p / (p - 1.0)
            ratio = cell.mean() ** (1 / p) * np.mean(cell ** (1 - pp)) ** (1 / pp)
        fac = float(growth_factor(rho, Q.center()[None, :], Q.radius)[0])
        best = [max(b, ratio / fac**t) for b, t in zip(best, thetas)]
    return best if isinstance(theta, tuple) else best[0]


def test_constant_weight_has_unit_characteristic():
    dom = Domain(1, 8.0, 5)
    w = GridFunction.constant(dom, 3.7)
    fam = _fam(dom)
    for p in (1.0, 1.5, 2.0, 4.0, math.inf):
        c = ap_characteristic(w, p, 0.0, CL, fam)
        assert c.value == pytest.approx(1.0, rel=1e-12)
    for s in (2.0, 4.0):
        c = rh_characteristic(w, s, 0.0, CL, fam)
        assert c.value == pytest.approx(1.0, rel=1e-12)


def test_ap_matches_brute_force_oracle():
    rng = np.random.default_rng(31)
    dom = Domain(1, 4.0, 4)
    fam = _fam(dom)
    w = GridFunction(dom, np.exp(rng.normal(0, 0.8, dom.shape)))
    for p in (1.0, 2.0, 3.0, math.inf):
        got = ap_characteristic(w, p, 0.0, CL, fam).value
        want = brute_ap(w, p, fam, dom)
        assert got == pytest.approx(want, rel=1e-10), p


# families past dim-1 intervals: the box's bisection tree in dims 2 and 3, and
# bisection trees of sub-box roots (not at the origin) in dims 1-3
def _more_families():
    d1, d2, d3 = Domain(1, 4.0, 4), Domain(2, 4.0, 3), Domain(3, 4.0, 3)
    return [
        _fam(d2),
        _fam(Domain(3, 4.0, 2)),
        CubeFamily(d1, DYADIC_GRID_OF, Cube(d1, (4,), 8)),
        CubeFamily(d2, DYADIC_GRID_OF, Cube(d2, (4, 0), 4)),
        CubeFamily(d3, DYADIC_GRID_OF, Cube(d3, (2, 4, 0), 4)),
    ]


def test_ap_dim2_matches_brute_force_oracle():
    rng = np.random.default_rng(32)
    for fam in _more_families():
        dom = fam.domain
        w = GridFunction(dom, np.exp(rng.normal(0, 0.5, dom.shape)))
        for p in (1.0, 2.0, math.inf):
            got = ap_characteristic(w, p, 0.0, CL, fam)
            assert got.value == pytest.approx(brute_ap(w, p, fam, dom), rel=1e-10), (fam, p)
            assert got.witness in set(cubes_of(dom, fam))


def test_ap_one_on_dyadic_trees_regression():
    # the p = 1 sweep used to reject every DYADIC_GRID_OF family in dim 2
    # and to fail in dim 1 when the root is smaller than the box
    d = Domain(1, 8.0, 4)
    w = GridFunction.constant(d, 3.0)
    fam = CubeFamily(d, DYADIC_GRID_OF, Cube(d, (0,), 8))
    assert ap_characteristic(w, 1.0, 0.0, RhoSpec.classical(), fam).value == 1.0
    d2 = Domain(2, 8.0, 3)
    w2 = GridFunction.constant(d2, 3.0)
    for R in (Cube(d2, (0, 0), 8), Cube(d2, (4, 2), 4)):
        fam2 = CubeFamily(d2, DYADIC_GRID_OF, R)
        assert ap_characteristic(w2, 1.0, 0.0, CL, fam2).value == 1.0


def test_two_valued_weight_closed_form():
    # the interval straddling the jump half-and-half maximizes the p=2 ratio;
    # in the (1/p, 1/p') normalization that is sqrt(avg(w) avg(1/w)),
    # which for a half-c half-1 interval equals (c+1) / (2 sqrt(c))
    dom = Domain(1, 8.0, 5)
    c = 9.0
    vals = np.where(np.arange(dom.n) < dom.n // 2, c, 1.0)
    w = GridFunction(dom, vals)
    got = ap_characteristic(w, 2.0, 0.0, CL, _fam(dom)).value
    assert got == pytest.approx((c + 1.0) / (2.0 * math.sqrt(c)), rel=1e-12)


def test_tied_cubes_give_the_first_cube_as_witness():
    """With w = 1 at theta = 0 every cube's A_1 and RH_inf ratio is exactly
    1, so the witness is the first cube in (side, anchor) order: side 1 at
    the family's first anchor, although the sweep visits it last."""
    dom1, dom2 = Domain(1, 8.0, 4), Domain(2, 8.0, 3)
    families = [
        CubeFamily(dom1, ALL_CELL_ALIGNED),
        CubeFamily(dom1, ALL_CELL_ALIGNED, Cube(dom1, (5,), 7)),
        CubeFamily(dom2, DYADIC_GRID_OF),
    ]
    for fam in families:
        w = GridFunction.constant(fam.domain, 1.0)
        first = Cube(fam.domain, tuple(int(a) for a in fam.anchors(1)[0]), 1)
        chars = [
            ap_characteristic(w, 1.0, 0.0, CL, fam),
            rh_characteristic(w, math.inf, 0.0, CL, fam),
            *ap_ladder(w, 1.0, (0.0, 0.0), CL, fam),
        ]
        for c in chars:
            assert (c.value, c.witness) == (1.0, first)


def test_ties_across_sweep_blocks_keep_the_first_cube():
    """w = 1 at theta = 0 ties every cube at ratio 1 for each p kind and
    RH_inf, and small block budgets spread the tied cubes over many sweep
    blocks, from one side to several each.  The block holding the first
    cube in (side, anchor) order is swept last, and it keeps the witness
    only because a later block's tie takes over (>=, not >)."""
    dom = Domain(1, 8.0, 4)
    families = [
        CubeFamily(dom, ALL_CELL_ALIGNED),
        CubeFamily(dom, ALL_CELL_ALIGNED, Cube(dom, (3,), 11)),
    ]
    for budget in BLOCK_BUDGETS:
        for fam in families:
            with block_budget(budget):
                assert len(list(fam.sweep(np.ones(dom.shape)))) > 1
                w = GridFunction.constant(dom, 1.0)
                first = Cube(dom, tuple(int(a) for a in fam.anchors(1)[0]), 1)
                chars = [
                    *(ap_characteristic(w, p, 0.0, CL, fam) for p in (1, 2, math.inf)),
                    rh_characteristic(w, math.inf, 0.0, CL, fam),
                    *ap_ladder(w, 1.0, (0.0, 0.0), RhoSpec.constant(0.5), fam),
                ]
            for c in chars:
                assert (c.value, c.witness) == (1.0, first)


def test_overflowed_powers_give_inf_and_the_first_cube():
    """w^(1-p') and w^s that overflow on a cell make the characteristic inf,
    with the first cube in (side, anchor) order whose ratio is inf as the
    witness: that cell alone.  The prefix table used to turn every later
    average into inf - inf = NaN, argmax stopped at the NaN and the whole
    side was skipped, so p = 1.01 below read inf with witness anchor 0,
    side 13."""
    dom = Domain(1, 8.0, 4)
    vals = np.ones(dom.shape)
    vals[3], vals[12] = 1e-5, 50.0
    w = GridFunction(dom, vals)
    fam = CubeFamily(dom, ALL_CELL_ALIGNED)
    cell3 = Cube(dom, (3,), 1)
    c = ap_characteristic(w, 1.01, 0.0, CL, fam)
    assert (c.value, c.witness) == (math.inf, cell3)
    for c in ap_ladder(w, 1.01, (0.0, 1.0, 4.0), RhoSpec.constant(0.5), fam):
        assert (c.value, c.witness) == (math.inf, cell3)
    big = vals.copy()
    big[9] = 1e40
    c = rh_characteristic(GridFunction(dom, big), 8.0, 0.0, CL, fam)
    assert (c.value, c.witness) == (math.inf, Cube(dom, (9,), 1))
    # a root that leaves the overflowing cell out sees finite powers only
    rooted = CubeFamily(dom, ALL_CELL_ALIGNED, Cube(dom, (4,), 8))
    c = ap_characteristic(w, 1.01, 0.0, CL, rooted)
    assert math.isfinite(c.value)
    assert c.value == pytest.approx(brute_ap(w, 1.01, rooted, dom), rel=1e-10)
    dom2 = Domain(2, 8.0, 3)
    vals2 = np.ones(dom2.shape)
    vals2[2, 5] = 1e-5
    c = ap_characteristic(GridFunction(dom2, vals2), 1.01, 0.0, CL, _fam(dom2))
    assert (c.value, c.witness) == (math.inf, Cube(dom2, (2, 5), 1))


def test_witness_attains_the_characteristic():
    rng = np.random.default_rng(33)
    dom = Domain(1, 4.0, 4)
    fam = _fam(dom)
    w = GridFunction(dom, np.exp(rng.normal(0, 1.0, dom.shape)))
    c = ap_characteristic(w, 2.0, 0.0, CL, fam)
    Q = c.witness
    cell = w.values[Q.slices()]
    attained = cell.mean() ** 0.5 * np.mean(1.0 / cell) ** 0.5
    assert attained == pytest.approx(c.value, rel=1e-10)


def test_characteristic_nonincreasing_in_theta():
    rng = np.random.default_rng(34)
    dom = Domain(1, 8.0, 5)
    fam = _fam(dom)
    w = GridFunction(dom, np.exp(rng.normal(0, 1.0, dom.shape)))
    rho = RhoSpec.constant(0.5)
    vals = [ap_characteristic(w, 2.0, t, rho, fam).value for t in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


_THETAS = (0.0, 0.37, 0.5, 1.0, 2.0, 4.0)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_theta_ladder_equals_single_thetas(data):
    """One sweep of ap_ladder gives, per theta and in order, the value and
    witness of the single-theta call exactly, and the brute-force oracle's
    per-theta sups, for every p kind and family, with sweep blocks of one
    side and of several."""
    families = [_fam(Domain(1, 4.0, 4))] + _more_families()
    fam = data.draw(st.sampled_from(families))
    dom = fam.domain
    p = data.draw(st.sampled_from([1.0, 2.0, 3.0, math.inf]))
    thetas = tuple(data.draw(st.lists(st.sampled_from(_THETAS), min_size=1, max_size=5)))
    rho = data.draw(st.sampled_from([RhoSpec.constant(0.5), CL]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    w = GridFunction(dom, np.exp(rng.normal(0, 0.8, dom.shape)))
    with block_budget(data.draw(st.sampled_from(BLOCK_BUDGETS))):
        ladder = ap_ladder(w, p, thetas, rho, fam)
    assert [c.theta for c in ladder] == list(thetas)
    for theta, c in zip(thetas, ladder):
        one = ap_characteristic(w, p, theta, rho, fam)
        assert (c.value, c.witness) == (one.value, one.witness)
    want = brute_ap(w, p, fam, dom, thetas, rho)
    assert [c.value for c in ladder] == pytest.approx(want, rel=1e-10)


_RUNGS = (
    [("ap", p, t) for p in (1.0, 1.25, 2.0, 8.0, math.inf) for t in rhomix.weights.THETA_LADDER]
    + [("rh", s, t) for s in (2.0, 8.0, math.inf) for t in rhomix.weights.THETA_LADDER]
)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_characteristics_equal_one_rung_calls(data):
    """One sweep of characteristics gives, per rung and in order, the value
    and witness of the one-rung call bit for bit, for any mix of A_p and RH
    rungs, on both families, rooted and not, with sweep blocks of one side
    and of several.  A weight scaled by 1e39 overflows w^8 (w^s at s = 8)
    on most cells: only the s = 8 rungs read inf, witnessed by the first
    such cell of the root in anchor order.  (The scale is uniform: one huge
    cell among ones would cancel the other powers' prefix sums.)"""
    dom1 = Domain(1, 4.0, 4)
    families = [
        _fam(dom1),
        CubeFamily(dom1, ALL_CELL_ALIGNED, Cube(dom1, (3,), 11)),
        CubeFamily(dom1, DYADIC_GRID_OF),
    ] + _more_families()
    fam = data.draw(st.sampled_from(families))
    dom = fam.domain
    rungs = data.draw(st.lists(st.sampled_from(_RUNGS), min_size=1, max_size=8))
    rho = data.draw(st.sampled_from([RhoSpec.constant(0.5), CL]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scale = data.draw(st.sampled_from([1.0, 1e39]))
    w = GridFunction(dom, scale * np.exp(rng.normal(0, 0.8, dom.shape)))
    with block_budget(data.draw(st.sampled_from(BLOCK_BUDGETS))):
        got = characteristics(w, rungs, rho, fam)
    assert [(c.p, c.theta) for c in got] == [(x, t) for _, x, t in rungs]
    with np.errstate(over="ignore"):
        bad = np.argwhere(~np.isfinite(w.values[fam.root.slices()] ** 8.0))
    first = None
    if len(bad):
        first = Cube(dom, tuple(int(a + c) for a, c in zip(fam.root.anchor, bad[0])), 1)
    for (kind, x, theta), c in zip(rungs, got):
        one_rung = ap_characteristic if kind == "ap" else rh_characteristic
        one = one_rung(w, x, theta, rho, fam)
        assert (c.value, c.witness) == (one.value, one.witness), (kind, x, theta)
        if (kind, x) == ("rh", 8.0) and first is not None:
            assert (c.value, c.witness) == (math.inf, first)
        else:
            assert math.isfinite(c.value)


def test_classical_ladder_shares_one_argmax_per_exponent(monkeypatch):
    """Under the classical rho every theta's penalty is 1: a ladder of
    every (kind, exponent) at every theta of THETA_LADDER gives, rung by
    rung, the value and witness of the one-rung call, and takes no more
    argmax calls than the same (kind, exponent)s at one theta, on both
    families and with sweep blocks of one side and of several."""
    rng = np.random.default_rng(64)
    dom1, dom2 = Domain(1, 4.0, 5), Domain(2, 4.0, 3)
    calls = [0]
    argmax = np.argmax

    def counting(*args, **kwargs):
        calls[0] += 1
        return argmax(*args, **kwargs)

    for fam in (_fam(dom1), CubeFamily(dom2, DYADIC_GRID_OF)):
        w = GridFunction(fam.domain, np.exp(rng.normal(0, 0.8, fam.domain.shape)))
        for budget in BLOCK_BUDGETS:
            with block_budget(budget), monkeypatch.context() as patch:
                patch.setattr(np, "argmax", counting)
                calls[0] = 0
                got = characteristics(w, _RUNGS, CL, fam)
                ladder_calls = calls[0]
                calls[0] = 0
                characteristics(w, [r for r in _RUNGS if r[2] == 0.0], CL, fam)
            assert ladder_calls == calls[0]
            for (kind, x, theta), c in zip(_RUNGS, got):
                one_rung = ap_characteristic if kind == "ap" else rh_characteristic
                one = one_rung(w, x, theta, CL, fam)
                assert (c.value, c.witness, c.theta) == (one.value, one.witness, theta)


def test_an_overflowed_power_leaves_the_other_rungs_alone():
    """w^8 overflows on one cell: the s = 8 rungs read inf at that cell,
    the rungs that read other powers of the same call keep the values of
    their one-rung calls, and a power whose running sum overflows is still
    refused for the whole call."""
    dom = Domain(1, 8.0, 4)
    vals = np.full(dom.shape, 1e38)
    vals[9] = 1e40
    w = GridFunction(dom, vals)
    fam = CubeFamily(dom, ALL_CELL_ALIGNED)
    rho = RhoSpec.constant(0.5)
    rungs = [("rh", 8.0, 0.0), ("ap", 2.0, 1.0), ("rh", 2.0, 0.0), ("rh", 8.0, 2.0),
             ("ap", 1.0, 0.0), ("rh", math.inf, 0.0)]
    got = characteristics(w, rungs, rho, fam)
    for (kind, x, theta), c in zip(rungs, got):
        if (kind, x) == ("rh", 8.0):
            assert (c.value, c.witness) == (math.inf, Cube(dom, (9,), 1))
        else:
            one_rung = ap_characteristic if kind == "ap" else rh_characteristic
            one = one_rung(w, x, theta, rho, fam)
            assert math.isfinite(c.value)
            assert (c.value, c.witness) == (one.value, one.witness)
    low = np.ones(dom.shape)
    low[2:8] = 10**-3.075  # w^(1-p') at p = 1.01 sums past the float range
    with pytest.raises(SumOverflowError):
        characteristics(GridFunction(dom, low), [("rh", 2.0, 0.0), ("ap", 1.01, 0.0)], rho, fam)


def test_averages_that_cancel_are_refused():
    """On ones with one cell of 1e40, the prefix sums past the spike lose
    the ones, so every interval there averages w and w^2 to 0 and its RH_2
    ratio reads 0/0.  argmax stopped at that NaN and the sup came back
    -inf with no witness; the sweep's cancellation is refused instead."""
    dom = Domain(1, 8.0, 4)
    vals = np.ones(dom.shape)
    vals[3] = 1e40
    fam = CubeFamily(dom, ALL_CELL_ALIGNED)
    with pytest.raises(SumOverflowError, match="cancel to 0/0"):
        rh_characteristic(GridFunction(dom, vals), 2.0, 0.0, RhoSpec.classical(), fam)


def test_rungs_are_validated():
    dom = Domain(1, 4.0, 3)
    w = GridFunction.constant(dom, 1.0)
    fam = _fam(dom)
    for rung, match in [
        (("ap", 0.5, 0.0), "p must be in"),
        (("rh", 1.0, 0.0), "s must be > 1"),
        (("rh", math.nan, 0.0), "s must be > 1"),
        (("bogus", 2.0, 0.0), "rung kind"),
        (("ap", 2.0, math.nan), "theta must be finite"),
    ]:
        with pytest.raises(ValueError, match=match):
            characteristics(w, [("ap", 2.0, 0.0), rung], CL, fam)
    assert characteristics(w, [], CL, fam) == ()


def test_theta_inert_for_classical_rho():
    rng = np.random.default_rng(35)
    dom = Domain(1, 8.0, 4)
    fam = _fam(dom)
    w = GridFunction(dom, np.exp(rng.normal(0, 1.0, dom.shape)))
    a = ap_characteristic(w, 2.0, 0.0, CL, fam).value
    b = ap_characteristic(w, 2.0, 4.0, CL, fam).value
    assert a == b


def test_characteristic_cross_exponent_bounds():
    # per-cube: avg(1/w) <= 1/min(w) gives the root-normalized A_2 value
    # <= sqrt(A_1 value); Jensen gives the exp-log A_inf value <= A_2^2
    rng = np.random.default_rng(36)
    dom = Domain(1, 8.0, 5)
    fam = _fam(dom)
    w = GridFunction(dom, np.exp(rng.normal(0, 1.0, dom.shape)))
    c1 = ap_characteristic(w, 1.0, 0.0, CL, fam).value
    c2 = ap_characteristic(w, 2.0, 0.0, CL, fam).value
    cinf = ap_characteristic(w, math.inf, 0.0, CL, fam).value
    assert 1.0 <= c2 <= math.sqrt(c1) * (1 + 1e-12)
    assert cinf <= c2 ** 2 * (1 + 1e-12)


def test_rh_matches_brute_force():
    rng = np.random.default_rng(37)
    for fam in [_fam(Domain(1, 4.0, 4))] + _more_families():
        dom = fam.domain
        w = GridFunction(dom, np.exp(rng.normal(0, 0.7, dom.shape)))
        for s in (2.0, 4.0):
            got = rh_characteristic(w, s, 0.0, CL, fam).value
            want = max(
                np.mean(w.values[Q.slices()] ** s) ** (1 / s) / np.mean(w.values[Q.slices()])
                for Q in cubes_of(dom, fam)
            )
            assert got == pytest.approx(want, rel=1e-10), (fam, s)
        ginf = rh_characteristic(w, math.inf, 0.0, CL, fam).value
        winf = max(
            w.values[Q.slices()].max() / np.mean(w.values[Q.slices()])
            for Q in cubes_of(dom, fam)
        )
        assert ginf == pytest.approx(winf, rel=1e-12), fam


def test_parameter_validation():
    dom = Domain(1, 4.0, 3)
    w = GridFunction.constant(dom, 1.0)
    fam = _fam(dom)
    with pytest.raises(ValueError):
        ap_characteristic(w, 0.5, 0.0, CL, fam)
    with pytest.raises(ValueError):
        rh_characteristic(w, 1.0, 0.0, CL, fam)
    with pytest.raises(InvalidWeightError):
        ap_characteristic(GridFunction(dom, np.array([1.0, 0.0, 1, 1, 1, 1, 1, 1])), 2.0, 0.0, CL, fam)
    # at theta = NaN the characteristics read -inf with no witness and the
    # epsilon form C = NaN; a negative theta stays allowed
    rho = RhoSpec.constant(0.5)
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="theta must be finite"):
            ap_ladder(w, 2.0, (0.0, theta), rho, fam)
        with pytest.raises(ValueError, match="theta must be finite"):
            rh_characteristic(w, 2.0, theta, rho, fam)
        with pytest.raises(ValueError, match="theta must be finite"):
            ainf_epsilon_form(w, theta, rho, fam)
    assert math.isfinite(ap_characteristic(w, 2.0, -1.0, rho, fam).value)


def test_epsilon_form_certifies_its_samples():
    rng = np.random.default_rng(38)
    dom = Domain(1, 8.0, 5)
    fam = _fam(dom)
    w = GridFunction(dom, np.exp(rng.normal(0, 0.6, dom.shape)))
    form = ainf_epsilon_form(w, 0.0, CL, fam)
    assert form.eps > 0
    assert form.C <= 8.0 + 1e-12
    assert form.residual <= 1e-9
    # spot-check the inequality on random sub-packs the fit never sampled
    for _ in range(200):
        Q = list(cubes_of(dom, fam))[rng.integers(0, fam.count())]
        cell = w.values[Q.slices()].ravel()
        k = rng.integers(1, cell.size + 1)
        idx = rng.choice(cell.size, size=k, replace=False)
        lhs = cell[idx].sum() / cell.sum()
        rhs = form.C * (k / cell.size) ** form.eps
        assert lhs <= rhs * (1 + 1e-9)


def _pack_samples_ref(w_cells):
    """Top-k and bottom-k pack samples of one cube, one sort per cube."""
    flat = np.sort(w_cells.ravel())
    m = flat.size
    total = flat.sum()
    ks = set()
    k = 1
    while k < m:
        ks.add(k)
        ks.add(m - k)
        k *= 2
    ks.add(m)
    karr = np.array(sorted(ks))
    csum = np.concatenate([[0.0], np.cumsum(flat)])
    bottom = csum[karr]
    top = total - csum[m - karr]
    x = np.concatenate([karr, karr]) / m
    y = np.concatenate([bottom, top]) / total
    return x, y


def ainf_epsilon_form_ref(w, theta, rho, cubes, eps_grid=None, C_cap=8.0):
    """Per-cube reference: every sample of every cube, one growth factor
    per cube, the fit on the full sample."""
    if eps_grid is None:
        eps_grid = np.linspace(1.0, 0.05, 39)
    xs, ys = [], []
    for cube in cubes:
        if cube.cell_count == 1:
            continue
        x, y = _pack_samples_ref(w.values[cube.slices()])
        fac = float(growth_factor(rho, cube.center()[None, :], cube.radius)[0])
        xs.append(x)
        ys.append(y / fac**theta)
    if not xs:
        return EpsilonForm(1.0, 1.0, 0.0, 0)
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    chosen = None
    for eps in eps_grid:
        C = float(np.max(y / x**eps))
        if C <= C_cap:
            chosen = (max(C, 1.0), float(eps))
            break
    if chosen is None:
        eps = float(eps_grid[-1])
        chosen = (max(float(np.max(y / x**eps)), 1.0), eps)
    C, eps = chosen
    residual = max(0.0, float(np.max(y - C * x**eps)))
    return EpsilonForm(C, eps, residual, int(x.size))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_epsilon_form_matches_per_cube_reference(data):
    """The per-side envelope fit equals the per-cube fit bit for bit,
    ainf_epsilon equals its eps, and an RH_infty bound that clears the cap
    comes with eps = 1, for every policy, dim, level, root, rho kind and
    theta, negative ones included."""
    policy, rooted = data.draw(st.sampled_from(FAMILY_DRAWS))
    dim = 1 if policy == ALL_CELL_ALIGNED else data.draw(st.integers(1, 3))
    level = data.draw(st.integers(1, 2 if dim == 3 else 4))
    dom = Domain(dim, data.draw(st.sampled_from([1.0, 8.0])), level)
    root = None
    if rooted or (rooted is None and data.draw(st.booleans())):
        if policy == DYADIC_GRID_OF:
            side = 1 << data.draw(st.integers(0, level))
        else:
            side = data.draw(st.integers(1, dom.n))
        anchor = tuple(data.draw(st.integers(0, dom.n - side)) for _ in range(dim))
        root = Cube(dom, anchor, side)
    fam = CubeFamily(dom, policy, root)
    rho = data.draw(st.sampled_from([
        CL,
        RhoSpec.constant(0.3),
        RhoSpec.analytic(lambda pts: 1.0 / (1.0 + np.linalg.norm(pts, axis=1))),
    ]))
    theta = data.draw(st.sampled_from([0.0, 0.5, 2.0, 0.37, -0.5, -3.0]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    w = GridFunction(dom, np.exp(rng.normal(0, data.draw(st.sampled_from([0.3, 1.5])), dom.shape)))
    form = ainf_epsilon_form(w, theta, rho, fam)
    assert form == ainf_epsilon_form_ref(w, theta, rho, fam)
    assert ainf_epsilon(w, theta, rho, fam) == form.eps
    # the bound is sound on every family, dim-3 bisection trees included,
    # where ainf_epsilon does not consult it
    if rhomix.weights._rh_bound_clears(w, theta, rho, fam):
        assert form.eps == 1.0


def _spike(dom, a):
    """1 on every cell but the first, a there."""
    vals = np.ones(dom.shape)
    vals.flat[0] = a
    return GridFunction(dom, vals)


def _clears(w, fam):
    return rhomix.weights._rh_bound_clears(w, 0.0, CL, fam)


def test_ainf_epsilon_runs_the_fit_exactly_when_the_bound_misses_the_cap():
    """A one-spike weight on the 16 cells' intervals has RH_infty bound
    16 a / (a + 15), 8 at a = 15, and the fit's top-1 sample of the box
    reads the same ratio: the floats a just under, at and just over the
    shortcut's edge _C_CAP / (1 + margin) give the fit's eps either way,
    the fit running only over the edge.  A taller spike gives eps < 1.  The
    dim-1 bisection tree takes the bound too; a dim-3 tree runs the fit
    even where the bound clears."""
    dom = Domain(1, 8.0, 4)
    fam = CubeFamily(dom, ALL_CELL_ALIGNED)
    # bisect the float bit patterns for adjacent a_at < a_over with the
    # shortcut clearing at a_at and missing at a_over
    def bits(a):
        return int(np.float64(a).view(np.int64))

    def value(b):
        return float(np.int64(b).view(np.float64))

    lo, hi = bits(1.0), bits(16.0)
    assert _clears(_spike(dom, 1.0), fam) and not _clears(_spike(dom, 16.0), fam)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _clears(_spike(dom, value(mid)), fam):
            lo = mid
        else:
            hi = mid
    a_at, a_over = value(lo), value(hi)
    assert 14.99 < a_at < a_over < 15.0
    for a, fits in ((a_at * (1 - 1e-9), 0), (a_at, 0), (a_over, 1), (1e4, 1)):
        w = _spike(dom, a)
        with counted_fits() as calls:
            eps = ainf_epsilon(w, 0.0, CL, fam)
        assert calls[0] == fits, a
        assert eps == ainf_epsilon_form(w, 0.0, CL, fam).eps, a
    assert eps < 1.0
    tree = CubeFamily(dom, DYADIC_GRID_OF)
    assert _clears(_spike(dom, a_at), tree)
    with counted_fits() as calls:
        assert ainf_epsilon(_spike(dom, a_at), 0.0, CL, tree) == 1.0
    assert calls[0] == 0
    cube = Domain(3, 8.0, 2)
    tree3 = CubeFamily(cube, DYADIC_GRID_OF)
    assert _clears(_spike(cube, 2.0), tree3)
    with counted_fits() as calls:
        assert ainf_epsilon(_spike(cube, 2.0), 0.0, CL, tree3) == 1.0
    assert calls[0] == 1
    # sum w / min w past 2^-20 / (N u) leaves no margin: the fit runs
    # although the bound (2, from the pair of cells holding the dip) clears
    dip = _spike(dom, 1e-10)
    assert rh_characteristic(dip, math.inf, 0.0, CL, fam).value < 2.0 + 1e-9
    assert rhomix.weights._fit_margin(dip, fam) == math.inf
    with counted_fits() as calls:
        assert ainf_epsilon(dip, 0.0, CL, fam) == 1.0
    assert calls[0] == 1


def test_ainf_epsilon_on_a_dim2_tree_takes_the_bound_or_the_fit():
    """On a dim-2 bisection tree ainf_epsilon reads eps = 1 off the RH_infty
    bound where it clears, with no fit, and runs the fit where it misses;
    either way it equals the fit's eps."""
    dom = Domain(2, 8.0, 4)
    tree = CubeFamily(dom, DYADIC_GRID_OF)
    for a, fits in ((2.0, 0), (1e4, 1)):
        w = _spike(dom, a)
        assert _clears(w, tree) == (fits == 0)
        with counted_fits() as calls:
            eps = ainf_epsilon(w, 0.0, CL, tree)
        assert calls[0] == fits, a
        assert eps == ainf_epsilon_form(w, 0.0, CL, tree).eps, a
    assert eps < 1.0
    rho = RhoSpec.analytic(lambda pts: 1.0 / (1.0 + np.linalg.norm(pts, axis=1)))
    w = GridFunction(dom, np.exp(np.random.default_rng(5).normal(0, 0.3, dom.shape)))
    assert rhomix.weights._rh_bound_clears(w, 1.0, rho, tree)
    with counted_fits() as calls:
        assert ainf_epsilon(w, 1.0, rho, tree) == 1.0
    assert calls[0] == 0
    assert ainf_epsilon_form(w, 1.0, rho, tree).eps == 1.0


def test_running_sum_overflow_is_refused_without_warnings():
    """w^(1-p') finite on every cell but with a running sum past the float
    range used to turn every later cube average into inf - inf = NaN:
    ap_characteristic at p = 1.01 read inf with witness anchor 0, side 9,
    and numpy warned twice.  The sweep now refuses the sum up front."""
    dom = Domain(1, 4.0, 4)
    vals = np.ones(dom.shape)
    vals[2:8] = 10**-3.075
    w = GridFunction(dom, vals)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="running sum of sweep input 1 over the root overflows"):
            ap_characteristic(w, 1.01, 0.0, CL, CubeFamily(dom, ALL_CELL_ALIGNED))


def test_factor_build_formula_and_validation():
    dom = Domain(1, 4.0, 3)
    u = GridFunction(dom, np.full(dom.shape, 2.0))
    v = GridFunction(dom, np.full(dom.shape, 4.0))
    w = factor_build(u, v, 2.0)
    assert np.allclose(w.values, 2.0 * 4.0 ** (1 - 2.0))
    with pytest.raises(ValueError):
        factor_build(u, v, 1.0)
    with pytest.raises(ValueError):
        factor_build(u, v, math.inf)


def test_weighted_measure_helper():
    dom = Domain(1, 4.0, 3)
    w = GridFunction(dom, np.arange(1.0, 9.0))
    cells = np.zeros(dom.shape, dtype=bool)
    cells[2:5] = True
    assert weighted_measure(w, cells) == pytest.approx((3 + 4 + 5) * dom.cell_volume)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1), p=st.sampled_from([1.0, 2.0, 4.0]))
def test_characteristic_scale_invariance(seed, p):
    """[c w]_{A_p} = [w]_{A_p}: the ratio is homogeneous of degree zero."""
    rng = np.random.default_rng(seed)
    dom = Domain(1, 4.0, 4)
    fam = _fam(dom)
    w = GridFunction(dom, np.exp(rng.normal(0, 0.8, dom.shape)))
    a = ap_characteristic(w, p, 0.0, CL, fam).value
    b = ap_characteristic(GridFunction(dom, 7.5 * w.values), p, 0.0, CL, fam).value
    assert a == pytest.approx(b, rel=1e-10)


def test_characteristics_names_each_witness_once(monkeypatch):
    """A rung's sup improves on many sweep blocks; each improvement keeps
    its pick as ints, and the witness Cube is named once per rung when
    characteristics returns: one CubeFamily.anchor call per rung."""
    calls = []
    anchor = CubeFamily.anchor
    monkeypatch.setattr(
        CubeFamily, "anchor", lambda fam, s, i: calls.append(s) or anchor(fam, s, i)
    )
    rng = np.random.default_rng(86)
    rungs = tuple(("ap", p, t) for p in (1.0, 2.0, math.inf) for t in (0.0, 1.0))
    rungs += (("rh", 2.0, 0.5),)
    for dim, level in ((1, 8), (2, 5)):
        dom = Domain(dim, 8.0, level)
        w = make_weight(dom, {"kind": "smooth_random", "amp": 0.9}, rng)
        for fam in (CubeFamily(dom, DYADIC_GRID_OF), default_family(dom)):
            calls.clear()
            out = characteristics(w, rungs, RhoSpec.constant(0.3), fam)
            assert len(calls) == len(rungs)
            assert all(isinstance(c.witness, Cube) for c in out)
