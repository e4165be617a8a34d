"""Acceptance gate: one test per shipped guarantee.

Each test prints a single line

    ACCEPTANCE nn PASS|FAIL  <measured detail>

before asserting, so `pytest -s tests/test_acceptance.py` doubles as the
release checklist.  Sizes sit at the desk scale the guarantees are stated
for: dim-1 grids at n = 1024 to 2048 cells, dim-2 at 64 per axis, the
dim-3 potential example at 64^3.
"""

import math
import time

import numpy as np
import pytest

from rhomix import (
    Cube,
    Domain,
    GridFunction,
    RhoSpec,
    SCZOKernel,
    WeightedMeasure,
    build_forests,
    claim_audits,
    classify,
    coifman_check,
    critical_covering,
    cz_on_cube,
    default_family,
    distribution,
    dyadic_sum_pyramid,
    estimate_K0,
    generate_suite,
    integrate,
    interpolation_audit,
    level_decomposition,
    lorentz_norm,
    m_dyadic,
    m_rho_sigma,
    m_rho_sigma_stack,
    make_function,
    make_weight,
    mixed_for_T,
    mixed_verify_global,
    rdf_audit,
    rearrangement,
    rho_from_json,
    sczo_apply,
    shen_rho,
    shifted_grid_domination_audit,
)


def _line(num: int, ok: bool, detail: str) -> None:
    print("ACCEPTANCE %02d %s  %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %02d failed: %s" % (num, detail)


def _random_pow2_cube(dom: Domain, rng, min_side: int = 2) -> Cube:
    max_k = int(math.log2(dom.n))
    k = int(rng.integers(int(math.log2(min_side)), max_k + 1))
    s = 1 << k
    anchor = tuple(int(rng.integers(0, dom.n - s + 1)) for _ in range(dom.dim))
    return Cube(dom, anchor, s)


def _nonneg_function(dom: Domain, rng) -> GridFunction:
    kind = ["random", "spike", "indicator", "oscillatory"][int(rng.integers(0, 4))]
    spec = {"kind": kind}
    if kind == "spike":
        spec["count"] = int(rng.integers(1, 5))
    return make_function(dom, spec, rng).abs()


def _brute_cz(g: GridFunction, R: Cube, lam: float) -> list:
    """Independent stopping time: explicit recursion with plain means."""
    out = []

    def visit(Q):
        if float(np.mean(g.values[Q.slices()])) > lam:
            out.append(Q)
            return
        if Q.side_cells > 1:
            for kid in Q.children():
                visit(kid)

    for kid in R.children() if R.side_cells > 1 else []:
        visit(kid)
    return sorted(out, key=lambda c: (c.side_cells, c.anchor))


def test_01_stopping_time_exactness():
    rng = np.random.default_rng(101)
    t0 = time.time()
    checked = 0
    oracle_checked = 0
    cases = [(Domain(1, 8.0, 10), 700, 100), (Domain(2, 8.0, 6), 300, 50)]
    for dom, count, oracle_count in cases:
        dim = dom.dim
        for i in range(count):
            g = _nonneg_function(dom, rng)
            R = _random_pow2_cube(dom, rng)
            block = g.values[R.slices()]
            root_avg = float(block.sum()) / R.cell_count
            lam = root_avg * float(rng.uniform(1.0, 4.0))
            if lam == 0.0:
                lam = 1e-9
            cubes = cz_on_cube(g, R, lam)
            # selected averages in (lam, 2^dim lam], read off the same
            # dyadic sum pyramid the decomposition used: tolerance 0
            levels = dyadic_sum_pyramid(block)
            for Q in cubes:
                j = int(math.log2(Q.side_cells))
                idx = tuple(
                    (Q.anchor[ax] - R.anchor[ax]) // Q.side_cells
                    for ax in range(dim)
                )
                avg = float(levels[j][idx]) / Q.cell_count
                assert avg > lam
                assert avg <= (2**dim) * lam
            # disjoint union equal to the maximal-function level set
            union = np.zeros(dom.shape, dtype=bool)
            for Q in cubes:
                assert not union[Q.slices()].any()
                union[Q.slices()] = True
            assert np.array_equal(union, m_dyadic(g, R).values > lam)
            if i < oracle_count:
                want = _brute_cz(g, R, lam)
                assert [(q.anchor, q.side_cells) for q in cubes] == [
                    (q.anchor, q.side_cells) for q in want
                ]
                oracle_checked += 1
            checked += 1
    _line(
        1,
        checked == 1000,
        "stopping time exact on %d instances (%d against the recursive "
        "oracle), zero violations, %.1fs" % (checked, oracle_checked, time.time() - t0),
    )


def test_02_dyadic_weak_type_constant_one():
    rng = np.random.default_rng(102)
    t0 = time.time()
    dom = Domain(1, 8.0, 10)
    R = Cube(dom, (0,), dom.n)
    violations = 0
    worst = 0.0
    for _ in range(500):
        f = _nonneg_function(dom, rng)
        M = m_dyadic(f, R).values
        total = float(f.values.sum()) * dom.cell_volume
        top = float(M.max())
        if top == 0.0:
            continue
        sorted_m = np.sort(M.ravel())
        for t in np.geomspace(top / 1024.0, top, 64):
            mass = float((sorted_m.size - np.searchsorted(sorted_m, t, side="right")))
            lhs = t * mass * dom.cell_volume
            worst = max(worst, lhs / total)
            if lhs > total * (1 + 1e-12):
                violations += 1
    _line(
        2,
        violations == 0,
        "sup_t t|{M_dyadic f > t}| <= int|f| on 500 functions x 64 levels, "
        "%d violations, worst ratio %.4f, %.1fs" % (violations, worst, time.time() - t0),
    )


def test_03_three_grid_domination():
    rng = np.random.default_rng(103)
    t0 = time.time()
    checked = 0
    violations = 0
    for dom, count in [(Domain(1, 8.0, 10), 50), (Domain(2, 8.0, 6), 50)]:
        for _ in range(count):
            f = make_function(
                dom,
                {"kind": ["random", "spike", "oscillatory"][int(rng.integers(0, 3))]},
                rng,
            )
            Q = _random_pow2_cube(dom, rng, min_side=2)
            rep = shifted_grid_domination_audit(f, Q)
            assert rep.located_all
            violations += rep.violations
            checked += 1
    _line(
        3,
        checked == 100 and violations == 0,
        "M_Q f <= 3^dim sum of shifted dyadic maximals, cellwise on 100 "
        "(f, Q) in dims 1 and 2, %d violations, %.1fs" % (violations, time.time() - t0),
    )


def test_04_principal_forest_pointwise_bound():
    t0 = time.time()
    spec = {
        "domain": {"dim": 1, "side": 8.0, "level": 10},
        "rho": {"kind": "classical"},
        "weights": [
            {"kind": "constant"},
            {"kind": "power", "alpha": 0.5},
            {"kind": "two_banded", "c": 4.0},
            {"kind": "rho_adapted", "beta": 1.0},
            {"kind": "smooth_random", "amp": 0.5},
        ],
        "f": [
            {"kind": "spike", "count": 3},
            {"kind": "indicator"},
            {"kind": "random"},
            {"kind": "oscillatory"},
        ],
        "pair_count": 19,  # the generated factor pair brings this to 20
        "f_count": 10,
        "p": 2.0,
        "theta": 1.0,
        "seed": 104,
    }
    bundle = generate_suite(spec)
    assert len(bundle.pairs) == 20 and len(bundle.fs) == 10
    dom = bundle.domain
    R = Cube(dom, (0,), dom.n)
    instances = 0
    populated = 0
    violations = 0
    worst = 0.0
    for pair in bundle.pairs:
        for f in bundle.fs:
            g = GridFunction(dom, np.abs(f.values) * pair.v.values)
            decomp = level_decomposition(g, R)
            if decomp.empty:
                continue
            cl = classify(decomp, pair.v)
            forests = build_forests(cl, pair.u)
            rep = claim_audits(forests, cl, pair.u)
            instances += 1
            if rep.principal_counts:
                populated += 1
            violations += sum(rep.h1_violations.values())
            worst = max(worst, rep.h1_max_ratio)
    _line(
        4,
        instances >= 150 and populated >= 150 and violations == 0,
        "h1 <= 2^(1+theta) [u] u cellwise over %d corona instances "
        "(%d populated), %d violations, max ratio %.4f, %.1fs"
        % (instances, populated, violations, worst, time.time() - t0),
    )


def _refine_gf(g: GridFunction, dom2: Domain) -> GridFunction:
    vals = g.values
    for ax in range(vals.ndim):
        vals = np.repeat(vals, 2, axis=ax)
    return GridFunction(dom2, vals)


def _mixed_constant(f, u, v, rho, sigma, fam) -> float:
    """sup_t t uv({M(fv)/v > t}) / int |f| u v, the sup taken exactly."""
    fv = GridFunction(f.domain, np.abs(f.values) * v.values)
    M = m_rho_sigma(fv, rho, sigma, 1.0, fam)
    ratio = GridFunction(f.domain, M.values / v.values)
    mu = WeightedMeasure(GridFunction(f.domain, u.values * v.values))
    denom = float((np.abs(f.values) * u.values * v.values).sum()) * f.domain.cell_volume
    if denom == 0.0:
        return 0.0
    return lorentz_norm(ratio, mu, 1.0, math.inf) / denom


@pytest.mark.slow
def test_05_mixed_constant_stable_under_refinement():
    t0 = time.time()
    from rhomix import standard_suite_spec

    worst_drift = 0.0
    instances = 0
    for rho_json, sigma in [
        ({"kind": "classical"}, 0.0),
        ({"kind": "analytic", "name": "inv_one_plus_dist"}, 2.0),
    ]:
        spec = standard_suite_spec(level=10)
        spec["rho"] = rho_json
        spec["seed"] = 105
        bundle = generate_suite(spec)
        dom = bundle.domain
        dom2 = dom.refine()
        fam, fam2 = default_family(dom), default_family(dom2)
        rho = rho_from_json(rho_json)
        for pair in bundle.pairs:
            for f in bundle.fs[:4]:
                c1 = _mixed_constant(f, pair.u, pair.v, rho, sigma, fam)
                c2 = _mixed_constant(
                    _refine_gf(f, dom2),
                    _refine_gf(pair.u, dom2),
                    _refine_gf(pair.v, dom2),
                    rho,
                    sigma,
                    fam2,
                )
                assert math.isfinite(c1) and c1 > 0.0
                assert math.isfinite(c2) and c2 > 0.0
                worst_drift = max(worst_drift, abs(c2 - c1) / c1)
                instances += 1
    _line(
        5,
        worst_drift <= 0.25,
        "mixed constant finite on %d instances, worst refinement drift "
        "%.2f%% (limit 25%%), %.1fs" % (instances, 100 * worst_drift, time.time() - t0),
    )


def _direct_weak_sup(M: GridFunction, weight: np.ndarray) -> float:
    """sup_t t * mu{M > t} computed from scratch by a tail scan."""
    order = np.argsort(M.values.ravel())
    mv = M.values.ravel()[order]
    wv = weight.ravel()[order] * M.domain.cell_volume
    tail = np.cumsum(wv[::-1])[::-1]  # mass of {M >= mv[i]}
    return float(np.max(mv * tail))


def test_06_unweighted_and_single_weight_reductions():
    t0 = time.time()
    from rhomix import standard_suite_spec

    spec = standard_suite_spec(level=10)
    spec["seed"] = 106
    bundle = generate_suite(spec)
    dom = bundle.domain
    fam = default_family(dom)
    rho = RhoSpec.classical()
    ones = GridFunction.constant(dom, 1.0)
    worst = 0.0
    checked = 0
    for f in bundle.fs[:4]:
        rep = mixed_verify_global(f, ones, ones, rho)
        M = m_rho_sigma(f.abs(), rho, 0.0, 1.0, fam)
        direct = _direct_weak_sup(M, np.ones(dom.shape)) / integrate(f.abs())
        worst = max(worst, abs(rep.constant_exact - direct) / direct)
        checked += 1
    for pair in bundle.pairs[:3]:
        for f in bundle.fs[:3]:
            rep = mixed_verify_global(f, pair.u, ones, rho)
            M = m_rho_sigma(f.abs(), rho, 0.0, 1.0, fam)
            denom = float((np.abs(f.values) * pair.u.values).sum()) * dom.cell_volume
            direct = _direct_weak_sup(M, pair.u.values) / denom
            worst = max(worst, abs(rep.constant_exact - direct) / direct)
            checked += 1
    _line(
        6,
        worst <= 0.01,
        "u=v=1 and v=1 reductions match independent endpoint measurements "
        "on %d instances, worst gap %.2e (limit 1%%), %.1fs"
        % (checked, worst, time.time() - t0),
    )


def test_07_constant_potential_critical_radius():
    t0 = time.time()
    dom = Domain(3, 8.0, 6)  # 64 cells per axis
    rng = np.random.default_rng(107)
    pts = [np.array([4.0, 4.0, 4.0]), np.array([2.5, 3.5, 4.5]), np.array([5.5, 2.5, 6.0])]
    pts += [rng.uniform(1.5, 6.5, 3) for _ in range(17)]
    V1 = GridFunction.constant(dom, 3.0 / (4.0 * math.pi))
    V4 = GridFunction.constant(dom, 4.0 * 3.0 / (4.0 * math.pi))
    worst1 = 0.0
    worst_half = 0.0
    for x in pts:
        r1 = shen_rho(V1, x)
        r4 = shen_rho(V4, x)
        assert not r1.capped and not r4.capped
        worst1 = max(worst1, abs(r1.value - 1.0))
        worst_half = max(worst_half, abs(r4.value - 0.5 * r1.value) / (0.5 * r1.value))
    _line(
        7,
        worst1 <= 0.02 and worst_half <= 0.02,
        "V = 3/(4 pi) on 64^3 gives rho = 1 (worst |rho-1| = %.4f) and "
        "4V halves it (worst rel gap %.4f) at %d interior points, %.1fs"
        % (worst1, worst_half, len(pts), time.time() - t0),
    )


def _star(table, t: float) -> float:
    i = int(np.searchsorted(table.masses, t, side="right"))
    return float(table.values[i]) if i < table.values.size else 0.0


def _quantized(dom: Domain, rng, kind: int) -> GridFunction:
    n = dom.shape
    if kind == 0:
        vals = rng.integers(0, 16, n) / 8.0
    elif kind == 1:
        vals = np.zeros(n)
        sites = rng.integers(0, dom.n, int(rng.integers(1, 5)))
        vals[sites] = rng.integers(1, 32, sites.size) / 8.0
    else:
        vals = np.zeros(n)
        a = int(rng.integers(0, dom.n - 2))
        b = int(rng.integers(a + 1, dom.n))
        vals[a:b] = float(rng.integers(1, 16)) / 8.0
    return GridFunction(dom, vals)


def test_08_rearrangement_and_indicator_closed_forms():
    t0 = time.time()
    rng = np.random.default_rng(108)
    dom = Domain(1, 8.0, 10)

    # indicator closed form ||X_E||_{p,q} = (p/q)^(1/q) m^(1/p)
    worst_cf = 0.0
    for _ in range(50):
        mu = WeightedMeasure(
            GridFunction(dom, rng.integers(1, 32, dom.shape) / 16.0)
        )
        E = _random_pow2_cube(dom, rng)
        f = GridFunction.indicator(dom, E)
        m = mu.mass(E.mask())
        for p, q in [(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (3.0, 1.5), (1.5, 4.0), (4.0, 0.5)]:
            got = lorentz_norm(f, mu, p, q)
            want = (p / q) ** (1.0 / q) * m ** (1.0 / p)
            worst_cf = max(worst_cf, abs(got - want) / want)
    assert worst_cf <= 1e-10

    # five rearrangement properties, exact (dyadic-rational data makes
    # every sum, scaling, and mass below FP-exact)
    scales = [2.0, 0.5, -1.5]
    checked = 0
    for i in range(1000):
        mu = WeightedMeasure(
            GridFunction(dom, rng.integers(1, 32, dom.shape) / 16.0)
        )
        f = _quantized(dom, rng, i % 3)
        g = _quantized(dom, rng, (i + 1) % 3)
        tf = rearrangement(f, mu)
        tg = rearrangement(g, mu)
        if tf.values.size == 0:
            continue
        # 1: canonical decreasing step form
        assert np.all(np.diff(tf.values) < 0)
        assert np.all(np.diff(tf.masses) > 0)
        # 2: equimeasurability mu{|f| > s} = leb{f* > s}, exactly
        for s in [0.0] + list(tf.values):
            gt = int(np.searchsorted(-tf.values, -s, side="left"))  # values > s
            leb = float(tf.masses[gt - 1]) if gt >= 1 else 0.0
            assert distribution(f, mu, s) == leb
        # 3: subadditive splits (f+g)*(t1+t2) <= f*(t1) + g*(t2)
        th = rearrangement(f + g, mu)
        total = max(tf.total_mass, tg.total_mass)
        for frac1, frac2 in [(0.25, 0.25), (0.5, 0.125), (0.0, 0.5)]:
            t1, t2 = frac1 * total, frac2 * total
            assert _star(th, t1 + t2) <= _star(tf, t1) + _star(tg, t2)
        # 4: scaling (c f)* = |c| f*
        c = scales[i % 3]
        tc = rearrangement(f * c, mu)
        assert np.array_equal(tc.values, abs(c) * tf.values)
        assert np.array_equal(tc.masses, tf.masses)
        # 5: domination |f| <= h implies f* <= h*
        h = GridFunction(dom, np.abs(f.values) + np.abs(g.values))
        tb = rearrangement(h, mu)
        for t in [0.0] + list(tf.masses):
            assert _star(tf, t) <= _star(tb, t)
        checked += 1
    _line(
        8,
        checked >= 990,
        "indicator norm closed form to %.1e and five rearrangement "
        "properties exact on %d seeded instances, %.1fs"
        % (worst_cf, checked, time.time() - t0),
    )


def test_09_interpolation_with_measured_constants():
    t0 = time.time()
    rng = np.random.default_rng(109)
    dom = Domain(1, 8.0, 10)
    fam = default_family(dom)
    mu = WeightedMeasure(make_weight(dom, {"kind": "smooth_random", "amp": 0.4}, rng))
    cache = {}

    def T(stack):
        # the honest and halved audits build the same pool: one set of images
        key = stack.tobytes()
        if key not in cache:
            cache[key] = m_rho_sigma_stack(stack, RhoSpec.classical(), 0.0, 1.0, fam)
        return cache[key]

    fs = [make_function(dom, {"kind": "indicator"}, rng) for _ in range(120)]
    fs += [make_function(dom, {"kind": "spike", "count": 2}, rng) for _ in range(80)]
    honest = interpolation_audit(T, 1.0, 2.0, mu, fs)
    halved = interpolation_audit(T, 1.0, 2.0, mu, fs, C0=honest.C0 / 2.0, C1=honest.C1)
    ok = (
        honest.checked == 200
        and honest.violations == 0
        and honest.hypothesis_violations == 0
        and halved.total_violations >= 1
    )
    _line(
        9,
        ok,
        "measured C0=%.3f C1=%.3f: 200 f clean (max ratio %.3f); halved C0 "
        "reports %d violations, %.1fs"
        % (honest.C0, honest.C1, honest.max_ratio, halved.total_violations, time.time() - t0),
    )


@pytest.mark.slow
def test_10_majorant_algorithm_certificates():
    t0 = time.time()
    from rhomix import standard_suite_spec

    spec = standard_suite_spec(level=10)
    spec["seed"] = 110
    bundle = generate_suite(spec)
    rho = RhoSpec.classical()
    audits = 0
    for pair in (bundle.pairs[1], bundle.pairs[4]):
        state = estimate_K0(pair.u, pair.v, rho, 0.0, None, list(bundle.fs))
        for f in bundle.fs[:3]:
            rep = rdf_audit(f.abs(), pair.u, rho, 0.0, state.K0, 12)
            assert rep.minorant_exact
            assert rep.sandwich_violations == 0
            assert rep.char_ok and rep.char_value <= 2.0 * state.K0 * 1.1
            audits += 1
    _line(
        10,
        audits == 6,
        "majorant iteration at depth 12: h <= Rh exact, S(Rh) <= 2 K0 Rh + "
        "tail cellwise, weight class within 2 K0 x 1.1, %d audits, %.1fs"
        % (audits, time.time() - t0),
    )


def test_11_singular_quadrature_log_value():
    t0 = time.time()
    dom = Domain(1, 8.0, 10)  # n = 1024
    h = dom.cell_width
    f = GridFunction(dom, (np.arange(dom.n) < int(round(1.0 / h))).astype(float))
    kern = SCZOKernel(profile="odd_inverse", N=0, delta=1.0, rho=RhoSpec.classical())
    Tf = sczo_apply(f, kern)
    i2 = int(round(2.0 / h))
    x2 = (i2 + 0.5) * h
    got = float(Tf.values[i2])
    rel = abs(got - math.log(2.0)) / math.log(2.0)

    rng = np.random.default_rng(111)
    g = make_function(dom, {"kind": "random"}, rng)
    a, b = 1.75, -0.5
    combo = sczo_apply(GridFunction(dom, a * f.values + b * g.values), kern)
    split = a * Tf.values + b * sczo_apply(g, kern).values
    scale = float(np.max(np.abs(split)))
    lin_gap = float(np.max(np.abs(combo.values - split)))
    _line(
        11,
        rel <= 0.02 and lin_gap <= 1e-12 * scale,
        "odd kernel on X_[0,1) at x=%.4f: %.6f vs ln 2 = %.6f (rel %.4f); "
        "linearity gap %.2e of scale, %.1fs"
        % (x2, got, math.log(2.0), rel, lin_gap / scale, time.time() - t0),
    )


def test_12_singular_to_maximal_comparison():
    t0 = time.time()
    from rhomix import standard_suite_spec

    spec = standard_suite_spec(level=10)
    spec["seed"] = 112
    bundle = generate_suite(spec)
    dom = bundle.domain
    kern = SCZOKernel(profile="odd_inverse", N=0, delta=1.0, rho=RhoSpec.classical())
    worst = 0.0
    checked = 0
    for pair in bundle.pairs:
        w = GridFunction(dom, pair.u.values * pair.v.values)
        C = coifman_check(kern, w, 1.0, 1.0, list(bundle.fs[:4])).ratio_max
        for f in bundle.fs[:4]:
            rep = mixed_for_T(f, pair.u, pair.v, kern)
            ratio = rep.weak_T / (2.0 * C * rep.weak_M)
            worst = max(worst, ratio)
            checked += 1
    _line(
        12,
        worst <= 1.0,
        "mixed singular constant <= 2 C mixed maximal constant on %d "
        "instances, worst ratio %.3f, %.1fs" % (checked, worst, time.time() - t0),
    )


def test_13_covering_overlap_growth_fit():
    t0 = time.time()
    spec = rho_from_json({"kind": "analytic", "name": "inv_one_plus_dist"})
    details = []
    ok = True
    for dom in (Domain(1, 8.0, 10), Domain(2, 8.0, 6)):
        rep = critical_covering(spec, dom, sigmas=(1.0, 2.0, 4.0))
        ok = ok and rep.fit_residual <= 0.10 and math.isfinite(rep.N1)
        details.append("dim %d: residual %.2f%% N1=%.2f (%d cubes)"
                       % (dom.dim, 100 * rep.fit_residual, rep.N1, rep.cube_count))
    _line(13, ok, "overlap growth fit at sigma in {1,2,4}: " + "; ".join(details)
          + ", %.1fs" % (time.time() - t0))
