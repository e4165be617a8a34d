"""Cube penalties: every power of a growth factor or of rho/r comes from the
rho's PenaltyTable, by Python's float pow (libm), once per (family, side,
exponent)."""

import math

import numpy as np
import pytest

import rhomix.critical
from rhomix import (
    ALL_CELL_ALIGNED,
    Cube,
    Domain,
    GridFunction,
    RhoSpec,
    ainf_epsilon_form,
    ap_characteristic,
    ap_ladder,
    default_family,
    enumerate_cubes,
    eval_rho,
    loc_glob_split,
    m_rho_sigma,
)

from conftest import cubes_of, oscillator
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
    for (s, anchors, (avg,)), (_, _, (w_avg,)) in sweeps:
        score = w_avg / fam.cube_extreme(w.values, s, "min")
        for i, anchor in enumerate(anchors.tolist()):
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


@pytest.mark.parametrize("exponent", [0.37, -1.0])
def test_every_site_raises_penalties_by_libm_pow(exponent):
    """m_rho_sigma, loc_glob_split (M and glob), ap_characteristic and
    ainf_epsilon_form equal, exactly, a reference that raises each cube's
    factor by Python's float pow.  numpy's SIMD power differs from it in the
    last bit on some hosts (on AVX-512, at 1,674 of these 32,896 factors at
    0.37), which would move the bytes of a report with the host.  Every root
    family adds sups with their own witnesses."""
    dom = Domain(1, 8.0, 8)
    rho = RhoSpec.analytic(INV_DIST)
    rng = np.random.default_rng(61)
    sigma, theta = abs(exponent), exponent
    roots = [None] + [Cube(dom, (a,), 16) for a in range(0, dom.n - 15, 8)]
    for root in roots:
        fam = enumerate_cubes(dom, ALL_CELL_ALIGNED, root)
        f = GridFunction(dom, rng.normal(0, 1, dom.shape))
        w = GridFunction(dom, np.exp(rng.normal(0, 1, dom.shape)))
        m, loc, glob, best, witness = _per_cube_reference(f, w, rho, fam, sigma, theta)
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


def test_theta_ladder_matches_the_per_cube_reference():
    """Every theta of one ap_ladder sweep is, value and witness, exactly the
    per-cube reference's sup at that theta alone."""
    dom = Domain(1, 8.0, 6)
    rho = RhoSpec.analytic(INV_DIST)
    rng = np.random.default_rng(63)
    f = GridFunction(dom, rng.normal(0, 1, dom.shape))
    w = GridFunction(dom, np.exp(rng.normal(0, 1, dom.shape)))
    thetas = (0.0, 0.37, 1.0, 2.0, 4.0, 0.37)
    for root in (None, Cube(dom, (8,), 32)):
        fam = enumerate_cubes(dom, ALL_CELL_ALIGNED, root)
        ladder = ap_ladder(w, 1.0, thetas, rho, fam)
        for theta, c in zip(thetas, ladder):
            *_, best, witness = _per_cube_reference(f, w, rho, fam, 0.0, theta)
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
