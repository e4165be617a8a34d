"""Critical radius functions: variation audits, Shen radii, coverings."""

import dataclasses
import math

import numpy as np
import pytest

from rhomix import (
    ALL_CELL_ALIGNED,
    Domain,
    GridFunction,
    RhoSpec,
    audit_admissibility,
    critical_covering,
    enumerate_cubes,
    eval_rho,
    growth_factor,
    rho_values,
    shen_rho,
)

from conftest import oscillator

INV_DIST = lambda pts: 1.0 / (1.0 + np.linalg.norm(pts, axis=1))


def test_spec_validation():
    with pytest.raises(ValueError):
        RhoSpec.constant(0.0)
    with pytest.raises(ValueError):
        RhoSpec.constant(-1.0)
    with pytest.raises(ValueError):
        RhoSpec.constant(math.inf)
    with pytest.raises(ValueError):
        RhoSpec("analytic", fn="not callable")
    with pytest.raises(ValueError):
        RhoSpec("warped")
    dom2 = Domain(2, 4.0, 2)
    with pytest.raises(ValueError):
        RhoSpec.shen(GridFunction.constant(dom2, 1.0))
    dom3 = Domain(3, 4.0, 2)
    with pytest.raises(ValueError):
        RhoSpec.shen(GridFunction(dom3, np.full(dom3.shape, -1.0)))


def test_eval_rho_kinds():
    assert eval_rho(RhoSpec.classical(), np.array([1.0])) == math.inf
    assert eval_rho(RhoSpec.constant(2.5), np.array([7.0])) == 2.5
    spec = RhoSpec.analytic(INV_DIST)
    assert eval_rho(spec, np.array([3.0, 4.0])) == pytest.approx(1.0 / 6.0)


def test_rho_values_vectorization_agrees_pointwise():
    spec = RhoSpec.analytic(INV_DIST)
    pts = np.array([[0.5, 0.5], [1.0, 2.0], [3.0, 0.25]])
    vec = rho_values(spec, pts)
    one = np.array([eval_rho(spec, p) for p in pts])
    assert np.allclose(vec, one, rtol=1e-14)


def test_analytic_rho_must_stay_positive():
    bad = RhoSpec.analytic(lambda pts: pts[:, 0] - 10.0)
    with pytest.raises(ValueError):
        rho_values(bad, np.array([[1.0]]))


def test_growth_factor_classical_is_one():
    centers = np.array([[1.0], [5.0]])
    fac = growth_factor(RhoSpec.classical(), centers, 3.0)
    assert np.array_equal(fac, [1.0, 1.0])
    fac2 = growth_factor(RhoSpec.constant(2.0), centers, 3.0)
    assert np.allclose(fac2, 1.0 + 3.0 / 2.0)


def test_admissibility_constant_rho():
    rep = audit_admissibility(RhoSpec.constant(1.0), Domain(1, 8.0, 6), 2000, seed=1)
    assert rep.C0 == 1.0
    assert rep.max_violation == 0.0


def test_admissibility_reported_pair_certifies_fresh_samples():
    """Independent re-check: the reported (C0, N0) must make both slow-variation
    inequalities hold on pairs the audit never saw."""
    spec = RhoSpec.analytic(INV_DIST)
    dom = Domain(2, 8.0, 5)
    rep = audit_admissibility(spec, dom, 3000, seed=11)
    assert rep.max_violation == 0.0
    rng = np.random.default_rng(999)
    xs = rng.uniform(0, dom.side, size=(500, 2))
    ys = rng.uniform(0, dom.side, size=(500, 2))
    rx = rho_values(spec, xs)
    ry = rho_values(spec, ys)
    dist = np.linalg.norm(xs - ys, axis=1)
    base = 1.0 + dist / rx
    lo = rx * base ** (-float(rep.N0)) / rep.C0
    hi = rep.C0 * rx * base ** (rep.N0 / (rep.N0 + 1.0))
    # continuity slack: fresh points are off-lattice so allow 5% headroom
    assert np.all(ry >= lo / 1.05)
    assert np.all(ry <= hi * 1.05)


def test_implied_C0_ladder_is_nonincreasing():
    spec = RhoSpec.analytic(INV_DIST)
    rep = audit_admissibility(spec, Domain(2, 8.0, 5), 2000, seed=5)
    ladder = sorted(rep.implied_C0_by_N0)
    vals = [rep.implied_C0_by_N0[k] for k in ladder]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(v >= 1.0 for v in vals)


def test_shen_constant_potential_closed_form():
    # V = 3/(4 pi) makes r^{-1} * V * vol(B(x,r)) = r^2, so rho = 1;
    # 4V rescales the root to 1/2
    dom = Domain(3, 8.0, 6)
    V0 = 3.0 / (4.0 * math.pi)
    x = np.array([4.0625, 4.0625, 4.0625])
    r1 = shen_rho(GridFunction.constant(dom, V0), x)
    assert not r1.capped
    assert r1.value == pytest.approx(1.0, rel=0.02)
    r2 = shen_rho(GridFunction.constant(dom, 4 * V0), x)
    assert r2.value == pytest.approx(0.5, rel=0.02)


def test_shen_zero_potential_caps_at_diagonal():
    dom = Domain(3, 4.0, 3)
    res = shen_rho(GridFunction.constant(dom, 0.0), np.array([2.0, 2.0, 2.0]))
    assert res.capped
    assert res.value == pytest.approx(math.sqrt(3) * 4.0)


def test_shen_monotone_in_potential():
    dom = Domain(3, 8.0, 4)
    rng = np.random.default_rng(2)
    base = rng.uniform(0.05, 0.2, dom.shape)
    x = np.array([4.25, 4.25, 4.25])
    small = shen_rho(GridFunction(dom, base), x).value
    large = shen_rho(GridFunction(dom, 3.0 * base), x).value
    assert large < small


def test_covering_covers_every_cell():
    spec = RhoSpec.analytic(INV_DIST)
    dom = Domain(2, 8.0, 4)
    cover = critical_covering(spec, dom)
    pts = dom.cell_centers()
    half = cover.radii / math.sqrt(dom.dim)
    hit = np.zeros(pts.shape[0], dtype=bool)
    for c, h in zip(cover.centers, half):
        hit |= np.max(np.abs(pts - c), axis=1) <= h * (1 + 1e-9)
    assert hit.all()
    assert cover.cube_count == len(cover.centers)


def test_covering_overlap_growth():
    spec = RhoSpec.analytic(INV_DIST)
    dom = Domain(1, 8.0, 7)
    cover = critical_covering(spec, dom, sigmas=(1.0, 2.0, 4.0))
    counts = [cover.overlap[s] for s in (1.0, 2.0, 4.0)]
    assert counts[0] >= 1
    assert counts[0] <= counts[1] <= counts[2]
    assert cover.N1 > 0
    assert math.isfinite(cover.fit_residual)


def test_covering_overlap_matches_per_sigma_recount():
    """N(sigma) recounted with one plain loop over the cover per sigma."""
    spec = RhoSpec.analytic(INV_DIST)
    for dom in (Domain(1, 8.0, 6), Domain(2, 8.0, 4), Domain(3, 4.0, 2)):
        sigmas = (1.0, 1.5, 2.0, 4.0)
        cover = critical_covering(spec, dom, sigmas=sigmas)
        pts = dom.cell_centers()
        for s in sigmas:
            counts = np.zeros(pts.shape[0], dtype=np.int64)
            for x, r in zip(cover.centers, cover.radii):
                reach = (s * r / math.sqrt(dom.dim)) * (1.0 + 1e-12)
                counts += np.max(np.abs(pts - x), axis=1) <= reach
            assert cover.overlap[s] == counts.max(), (dom, s)


def test_covering_rejects_classical():
    with pytest.raises(ValueError):
        critical_covering(RhoSpec.classical(), Domain(1, 4.0, 3))


def test_shen_lower_bracket_climbs_to_a_passing_radius_regression():
    # the coverage ramp gives a point's own cell half its mass as r -> 0, so
    # the predicate failed at cell_width/16 on 32 of these 512 centers
    # (|x - c| in [1.39, 1.52]) and they read 0.0156, capped, while their
    # neighbours read 0.44-0.75; a larger radius passes at every center
    dom = Domain(3, 2.0, 3)
    V = oscillator(dom)
    res = [shen_rho(V, x) for x in dom.cell_centers()]
    assert not any(r.capped for r in res)
    vals = np.array([r.value for r in res])
    assert 0.43 < vals.min() and vals.max() < 1.02
    # here the true rho is below one cell at every center: all stay capped
    # at the floor
    dom = Domain(3, 8.0, 3)
    V = oscillator(dom)
    res = [shen_rho(V, x) for x in dom.cell_centers()]
    assert all(r.capped and r.value == dom.cell_width / 16.0 for r in res)


def test_audits_are_kept_on_the_rho():
    spec = RhoSpec.analytic(INV_DIST)
    dom = Domain(2, 8.0, 4)
    adm = audit_admissibility(spec, dom, 500, seed=3)
    assert audit_admissibility(spec, dom, pair_sample_size=500, seed=3) is adm
    assert audit_admissibility(spec, dom, 500, seed=4) is not adm
    cover = critical_covering(spec, dom)
    assert critical_covering(spec, dom, [1.0, 2.0, 4.0]) is cover
    assert critical_covering(spec, dom, (1.0, 2.0)) is not cover
    # a fresh rho recomputes the same report
    fresh = RhoSpec.analytic(INV_DIST)
    assert audit_admissibility(fresh, dom, 500, seed=3) == adm
    again = critical_covering(fresh, dom)
    assert np.array_equal(again.centers, cover.centers) and again.overlap == cover.overlap
    # the shared report's arrays cannot be modified in place
    with pytest.raises(ValueError):
        cover.radii[0] = 1.0


def test_kept_tables_stay_outside_equality_hash_and_repr():
    a, b = RhoSpec.constant(2.0), RhoSpec.constant(2.0)
    fam = enumerate_cubes(Domain(1, 8.0, 3), ALL_CELL_ALIGNED)
    table = a.penalty_table(fam)
    assert a.penalty_table(enumerate_cubes(Domain(1, 8.0, 3), ALL_CELL_ALIGNED)) is table
    assert b.penalty_table(fam) is not table
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert dataclasses.replace(a).penalty_table(fam) is not table
