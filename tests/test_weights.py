"""Weight classes: A_p / RH_s characteristics, epsilon forms, factor weights."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhomix import (
    ALL_CELL_ALIGNED,
    DYADIC_GRID_OF,
    DYADIC_SIDES,
    Cube,
    Domain,
    EpsilonForm,
    GridFunction,
    InvalidWeightError,
    RhoSpec,
    ainf_epsilon_form,
    ap_characteristic,
    ap_ladder,
    enumerate_cubes,
    factor_build,
    growth_factor,
    rh_characteristic,
    weighted_measure,
)

from conftest import cubes_of

CL = RhoSpec.classical()


def _fam(dom):
    return enumerate_cubes(dom, ALL_CELL_ALIGNED if dom.dim == 1 else DYADIC_SIDES)


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


# families past dim-1 intervals: dyadic-side tiles in dims 2 and 3, and
# bisection trees of sub-box roots (not at the origin) in dims 1-3
def _more_families():
    d1, d2, d3 = Domain(1, 4.0, 4), Domain(2, 4.0, 3), Domain(3, 4.0, 3)
    return [
        _fam(d2),
        _fam(Domain(3, 4.0, 2)),
        enumerate_cubes(d1, DYADIC_GRID_OF, Cube(d1, (4,), 8)),
        enumerate_cubes(d2, DYADIC_GRID_OF, Cube(d2, (4, 0), 4)),
        enumerate_cubes(d3, DYADIC_GRID_OF, Cube(d3, (2, 4, 0), 4)),
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
    fam = enumerate_cubes(d, DYADIC_GRID_OF, Cube(d, (0,), 8))
    assert ap_characteristic(w, 1.0, 0.0, RhoSpec.classical(), fam).value == 1.0
    d2 = Domain(2, 8.0, 3)
    w2 = GridFunction.constant(d2, 3.0)
    for R in (Cube(d2, (0, 0), 8), Cube(d2, (4, 2), 4)):
        fam2 = enumerate_cubes(d2, DYADIC_GRID_OF, R)
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
        enumerate_cubes(dom1, ALL_CELL_ALIGNED),
        enumerate_cubes(dom1, ALL_CELL_ALIGNED, Cube(dom1, (5,), 7)),
        enumerate_cubes(dom2, DYADIC_SIDES),
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
    per-theta sups, for every p kind and family."""
    families = [_fam(Domain(1, 4.0, 4))] + _more_families()
    fam = data.draw(st.sampled_from(families))
    dom = fam.domain
    p = data.draw(st.sampled_from([1.0, 2.0, 3.0, math.inf]))
    thetas = tuple(data.draw(st.lists(st.sampled_from(_THETAS), min_size=1, max_size=5)))
    rho = data.draw(st.sampled_from([RhoSpec.constant(0.5), CL]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    w = GridFunction(dom, np.exp(rng.normal(0, 0.8, dom.shape)))
    ladder = ap_ladder(w, p, thetas, rho, fam)
    assert [c.theta for c in ladder] == list(thetas)
    for theta, c in zip(thetas, ladder):
        one = ap_characteristic(w, p, theta, rho, fam)
        assert (c.value, c.witness) == (one.value, one.witness)
    want = brute_ap(w, p, fam, dom, thetas, rho)
    assert [c.value for c in ladder] == pytest.approx(want, rel=1e-10)


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
    """The per-side envelope fit equals the per-cube fit bit for bit, for
    every policy, dim, level, root, rho kind and theta."""
    policy = data.draw(st.sampled_from([ALL_CELL_ALIGNED, DYADIC_SIDES, DYADIC_GRID_OF]))
    dim = 1 if policy == ALL_CELL_ALIGNED else data.draw(st.integers(1, 3))
    level = data.draw(st.integers(1, 2 if dim == 3 else 4))
    dom = Domain(dim, data.draw(st.sampled_from([1.0, 8.0])), level)
    root = None
    if policy == DYADIC_GRID_OF or (policy == ALL_CELL_ALIGNED and data.draw(st.booleans())):
        if policy == DYADIC_GRID_OF:
            side = 1 << data.draw(st.integers(0, level))
        else:
            side = data.draw(st.integers(1, dom.n))
        anchor = tuple(data.draw(st.integers(0, dom.n - side)) for _ in range(dim))
        root = Cube(dom, anchor, side)
    fam = enumerate_cubes(dom, policy, root)
    rho = data.draw(st.sampled_from([
        CL,
        RhoSpec.constant(0.3),
        RhoSpec.analytic(lambda pts: 1.0 / (1.0 + np.linalg.norm(pts, axis=1))),
    ]))
    theta = data.draw(st.sampled_from([0.0, 0.5, 2.0, 0.37]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    w = GridFunction(dom, np.exp(rng.normal(0, data.draw(st.sampled_from([0.3, 1.5])), dom.shape)))
    assert ainf_epsilon_form(w, theta, rho, fam) == ainf_epsilon_form_ref(w, theta, rho, fam)


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
