"""Auxiliary operator, majorant iteration, and singular kernel checks."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rhomix import (
    Cube,
    Domain,
    GridFunction,
    K0TooSmallError,
    RhoSpec,
    SCZOKernel,
    ap_characteristic,
    audit_kernel_conditions,
    coifman_check,
    default_family,
    estimate_K0,
    ladder_exponent,
    make_function,
    make_weight,
    mixed_for_T,
    run_experiment,
    rdf_audit,
    rdf_iterate,
    s_operator,
    sczo_apply,
)
from rhomix.experiments import default_config
from rhomix.extrapolation import _sczo_dense
from rhomix.suite import generate_suite

ROOT = Path(__file__).resolve().parents[1]


def _setup(level=8, seed=31):
    rng = np.random.default_rng(seed)
    dom = Domain(1, 8.0, level)
    u = make_weight(dom, {"kind": "smooth_random", "amp": 0.3}, rng)
    v = make_weight(dom, {"kind": "two_banded", "c": 2.0}, rng)
    suite = [
        make_function(dom, {"kind": "spike", "count": 3}, rng).abs(),
        make_function(dom, {"kind": "indicator"}, rng),
        make_function(dom, {"kind": "random"}, rng),
    ]
    return dom, u, v, suite


def test_s_operator_sup_bound_classical():
    dom, u, _v, suite = _setup()
    fam = default_family(dom)
    rho = RhoSpec.classical()
    char = ap_characteristic(u, 1.0, 0.0, rho, fam).value
    for f in suite:
        sf = s_operator(f, u, rho, 0.0, fam)
        bound = char * float(np.max(np.abs(f.values)))
        assert float(sf.values.max()) <= bound * (1 + 1e-12)


def test_s_operator_sup_bound_with_growth_penalty():
    rng = np.random.default_rng(32)
    dom = Domain(1, 8.0, 6)
    u = make_weight(dom, {"kind": "smooth_random", "amp": 0.4}, rng)
    f = make_function(dom, {"kind": "random"}, rng)
    rho = RhoSpec.analytic(lambda pts: 1.0 / (1.0 + np.linalg.norm(pts, axis=1)))
    fam = default_family(dom)
    sigma = 1.0
    # any growth exponent theta <= sigma certifies sup(Sf) <= [u]_theta sup|f|
    char = ap_characteristic(u, 1.0, sigma, rho, fam).value
    sf = s_operator(f, u, rho, sigma, fam)
    assert float(sf.values.max()) <= char * float(np.abs(f.values).max()) * (1 + 1e-12)


def test_s_operator_requires_positive_weight():
    dom = Domain(1, 8.0, 4)
    f = GridFunction.constant(dom, 1.0)
    bad = GridFunction.constant(dom, 0.0)
    with pytest.raises(ValueError):
        s_operator(f, bad, RhoSpec.classical(), 0.0)


def test_ladder_exponent_classical_is_zero():
    dom, u, _v, _suite = _setup()
    assert ladder_exponent(u, RhoSpec.classical(), default_family(dom)) == 0.0


def test_estimate_k0_field_relations():
    dom, u, v, suite = _setup()
    state = estimate_K0(u, v, RhoSpec.classical(), 0.0, None, suite)
    assert state.p0 == pytest.approx(1.0 + 2.0 * (state.t - 1.0) / state.eps)
    assert state.q == pytest.approx(2.0 * state.p0)
    assert state.K0 == pytest.approx(1.5 * state.measured_sup)
    assert state.measured_sup > 0
    assert state.tail_bound >= 0.0
    assert state.suite_size == len(suite)


def test_estimate_k0_rejects_low_q_and_bad_suites():
    dom, u, v, suite = _setup()
    state = estimate_K0(u, v, RhoSpec.classical(), 0.0, None, suite)
    with pytest.raises(ValueError):
        estimate_K0(u, v, RhoSpec.classical(), 0.0, 0.9 * 2.0 * state.p0, suite)
    with pytest.raises(ValueError):
        estimate_K0(u, v, RhoSpec.classical(), 0.0, None, [])
    null = [GridFunction.constant(dom, 0.0)]
    with pytest.raises(ValueError):
        estimate_K0(u, v, RhoSpec.classical(), 0.0, None, null)


def test_rdf_iterate_majorizes_seed_exactly():
    dom, u, v, suite = _setup()
    rho = RhoSpec.classical()
    state = estimate_K0(u, v, rho, 0.0, None, suite)
    h = suite[0].abs()
    rh = rdf_iterate(h, u, rho, 0.0, state.K0, 8)
    assert np.all(h.values <= rh.values)  # k = 0 term, zero tolerance
    assert np.all(np.isfinite(rh.values))


def test_rdf_iterate_flags_small_k0():
    dom, u, _v, suite = _setup()
    h = suite[0].abs()
    with pytest.raises(K0TooSmallError) as info:
        rdf_iterate(h, u, RhoSpec.classical(), 0.0, 0.05, 8)
    assert info.value.growth > 1.0


def test_rdf_iterate_validation():
    dom, u, _v, suite = _setup(level=4)
    h = GridFunction.constant(dom, 1.0)
    with pytest.raises(ValueError):
        rdf_iterate(GridFunction.constant(dom, -1.0), u, RhoSpec.classical(), 0.0, 2.0, 4)
    with pytest.raises(ValueError):
        rdf_iterate(h, u, RhoSpec.classical(), 0.0, 0.0, 4)
    with pytest.raises(ValueError):
        rdf_iterate(h, u, RhoSpec.classical(), 0.0, 2.0, 0)


def test_rdf_audit_three_properties():
    dom, u, v, suite = _setup()
    rho = RhoSpec.classical()
    state = estimate_K0(u, v, rho, 0.0, None, suite)
    rep = rdf_audit(suite[0].abs(), u, rho, 0.0, state.K0, 12)
    assert rep.minorant_exact
    assert rep.sandwich_violations == 0
    assert rep.char_ok
    assert rep.char_value <= 2.0 * state.K0 * 1.1
    assert rep.tail_bound >= 0.0
    # the audited majorant rides along, outside equality and repr
    rh = rdf_iterate(suite[0].abs(), u, rho, 0.0, state.K0, 12)
    assert np.array_equal(rep.majorant.values, rh.values)
    assert rep == dataclasses.replace(rep, majorant=None)
    assert "majorant" not in repr(rep)


def test_rdf_audit_tail_bound_is_the_last_term():
    """tail_bound = 2 max(S^depth h) / (2 K0)^depth, recomputed with a
    plain loop of S, bit for bit."""
    dom, u, v, suite = _setup(level=6)
    rho = RhoSpec.analytic(lambda pts: 1.0 / (1.0 + np.linalg.norm(pts, axis=1)))
    h = suite[0].abs()
    fam = default_family(dom)
    K0, depth = 3.0, 5
    term = h
    for _ in range(depth):
        term = s_operator(term, u, rho, 1.0, fam)
    rep = rdf_audit(h, u, rho, 1.0, K0, depth)
    assert rep.tail_bound == 2.0 * float(term.values.max()) / (2.0 * K0) ** depth


# ---------------------------------------------------------------------------
# synthetic singular kernels


def test_kernel_antisymmetry_and_zero_diagonal():
    k = SCZOKernel("odd_inverse")
    x = np.array([[0.5], [1.25], [3.0]])
    y = np.array([[2.0], [1.25], [0.25]])
    assert np.allclose(k.evaluate(x, y), -k.evaluate(y, x))
    assert k.evaluate(x, x).tolist() == [0.0, 0.0, 0.0]
    k2 = SCZOKernel("riesz_x")
    x2 = np.array([[0.5, 1.0], [2.0, 3.0]])
    y2 = np.array([[1.5, 0.0], [2.0, 1.0]])
    assert np.allclose(k2.evaluate(x2, y2), -k2.evaluate(y2, x2))


def test_kernel_validation():
    with pytest.raises(ValueError):
        SCZOKernel("nope")
    with pytest.raises(ValueError):
        SCZOKernel("odd_inverse", N=-1.0)
    analytic = RhoSpec.analytic(lambda pts: 1.0 / (1.0 + np.abs(pts[:, 0])))
    with pytest.raises(ValueError, match="decay exponent"):
        SCZOKernel("odd_inverse", N=float("nan"), rho=analytic)
    with pytest.raises(ValueError):
        SCZOKernel("odd_inverse", delta=0.0)
    with pytest.raises(ValueError):
        SCZOKernel("odd_inverse", delta=1.5)
    dom2 = Domain(2, 4.0, 3)
    with pytest.raises(ValueError):
        sczo_apply(GridFunction.constant(dom2, 1.0), SCZOKernel("odd_inverse"))


def test_kernel_decay_damps_amplitude():
    rho = RhoSpec.analytic(lambda pts: 1.0 / (1.0 + np.linalg.norm(pts, axis=1)))
    plain = SCZOKernel("odd_inverse")
    damped = SCZOKernel("odd_inverse", N=2.0, rho=rho)
    x = np.array([[0.5], [1.5], [2.5]])
    y = np.array([[3.0], [0.25], [0.75]])
    assert np.all(np.abs(damped.evaluate(x, y)) <= np.abs(plain.evaluate(x, y)))


def test_log_quadrature_of_interval_indicator():
    # T(indicator of [0,1))(x) = log((x)/(x-1)) for x > 1
    dom = Domain(1, 8.0, 10)
    h = dom.cell_width
    cells = int(round(1.0 / h))
    f = GridFunction(dom, np.concatenate([np.ones(cells), np.zeros(dom.n - cells)]))
    tf = sczo_apply(f, SCZOKernel("odd_inverse"))
    i2 = int(round(2.0 / h))
    x2 = (i2 + 0.5) * h
    want = math.log(x2 / (x2 - 1.0))
    assert tf.values[i2] == pytest.approx(want, rel=0.02)


def test_sczo_apply_is_linear():
    rng = np.random.default_rng(33)
    dom = Domain(1, 8.0, 8)
    k = SCZOKernel("odd_inverse")
    f = GridFunction(dom, rng.normal(0, 1, dom.shape))
    g = GridFunction(dom, rng.normal(0, 1, dom.shape))
    a, b = 2.5, -1.25
    combo = sczo_apply(GridFunction(dom, a * f.values + b * g.values), k)
    split = a * sczo_apply(f, k).values + b * sczo_apply(g, k).values
    scale = max(1.0, float(np.max(np.abs(split))))
    assert np.max(np.abs(combo.values - split)) <= 1e-12 * scale


def test_riesz_kernel_applies_in_dim_two():
    dom = Domain(2, 4.0, 4)
    f = GridFunction.indicator(dom, Cube(dom, (4, 4), 4))
    tf = sczo_apply(f, SCZOKernel("riesz_x"))
    assert np.all(np.isfinite(tf.values))
    assert float(np.max(np.abs(tf.values))) > 0


# The FFT path sums the dense quadrature's kernel samples in another order,
# so the two agree to a tolerance fixed from float64 and the grid sizes, not
# bit for bit: 1e-13 relative to max |Tf| (measured: below 2e-15 here).
FFT_REL_TOL = 1e-13


def _assert_fft_matches_dense(f, kernel):
    fast = sczo_apply(f, kernel).values
    dense = _sczo_dense(f, kernel).values
    scale = float(np.max(np.abs(dense)))
    assert scale > 0
    assert float(np.max(np.abs(fast - dense))) <= FFT_REL_TOL * scale


@pytest.mark.parametrize(
    "profile, dim, side, level",
    [
        ("odd_inverse", 1, 8.0, 1),
        ("odd_inverse", 1, 8.0, 6),
        ("odd_inverse", 1, 8.0, 10),
        ("odd_inverse", 1, 3.0, 7),
        ("riesz_x", 2, 4.0, 1),
        ("riesz_x", 2, 4.0, 3),
        ("riesz_x", 2, 8.0, 5),
        ("riesz_x", 2, 3.0, 4),
    ],
)
def test_fft_path_matches_dense_quadrature(profile, dim, side, level):
    rng = np.random.default_rng(37)
    dom = Domain(dim, side, level)
    kernel = SCZOKernel(profile)
    assert kernel.translation_invariant
    for spec in ({"kind": "random"}, {"kind": "indicator"}, {"kind": "spike", "count": 3}):
        _assert_fft_matches_dense(make_function(dom, spec, rng), kernel)


def test_fft_path_matches_dense_on_the_log_quadrature_input():
    # the inputs of acceptance test 11: X_[0,1) and a random g on n = 1024
    dom = Domain(1, 8.0, 10)
    kernel = SCZOKernel(profile="odd_inverse", N=0, delta=1.0, rho=RhoSpec.classical())
    f = GridFunction(dom, (np.arange(dom.n) < int(round(1.0 / dom.cell_width))).astype(float))
    g = make_function(dom, {"kind": "random"}, np.random.default_rng(111))
    for h in (f, g, GridFunction(dom, 1.75 * f.values - 0.5 * g.values)):
        _assert_fft_matches_dense(h, kernel)


def test_damped_kernel_keeps_the_dense_quadrature():
    rho = RhoSpec.analytic(lambda pts: 1.0 / (1.0 + np.linalg.norm(pts, axis=1)))
    rng = np.random.default_rng(38)
    for profile, dom in (("odd_inverse", Domain(1, 8.0, 7)), ("riesz_x", Domain(2, 4.0, 4))):
        kernel = SCZOKernel(profile, N=2.0, rho=rho)
        assert not kernel.translation_invariant
        f = make_function(dom, {"kind": "random"}, rng)
        assert np.array_equal(sczo_apply(f, kernel).values, _sczo_dense(f, kernel).values)
    # N = 0 or a classical rho leaves the kernel a convolution
    assert SCZOKernel("odd_inverse", N=0.0, rho=rho).translation_invariant
    assert SCZOKernel("odd_inverse", N=2.0).translation_invariant


def test_import_does_not_load_scipy():
    # rhomix runs on numpy alone; importing scipy took most of the time of
    # `import rhomix`
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, rhomix\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_mixed_t_in_dim_two_at_level_seven():
    # 16,384 cells: the dense quadrature would build 268M kernel pairs per
    # application; the FFT path makes this a fraction of a second
    cfg = default_config("mixed-T", dim=2, level=7, seed=7)
    rep = run_experiment(cfg)
    assert rep.passes and rep.ok, rep.passes
    bundle = generate_suite(cfg["suite"], cfg["seed"])
    assert len(rep.tables) == 3 * len(bundle.pairs)
    for row in rep.tables:
        pair = bundle.pairs[row["pair"]]
        f = bundle.fs[row["f"]].values
        integral = float(np.sum(np.abs(f) * pair.u.values * pair.v.values))
        integral *= bundle.domain.cell_volume
        # the grid sup never exceeds the exact weak quasinorm
        assert row["constant"] * integral <= row["weak_T"] * (1 + 1e-9)


def test_kernel_condition_constants():
    dom = Domain(1, 8.0, 6)
    rep = audit_kernel_conditions(SCZOKernel("odd_inverse"), dom, sample_size=1500)
    assert rep.C_size == pytest.approx(1.0, rel=1e-9)  # |K| |x-y| = 1 identically
    assert 0.0 < rep.C_smooth <= 2.0 * (1 + 1e-9)
    assert rep.pairs > 0 and rep.triples > 0
    assert rep.worst_size is not None and rep.worst_smooth is not None


def test_coifman_check_ratios():
    rng = np.random.default_rng(34)
    dom = Domain(1, 8.0, 7)
    w = make_weight(dom, {"kind": "smooth_random", "amp": 0.3}, rng)
    suite = [
        make_function(dom, {"kind": "spike", "count": 3}, rng).abs(),
        make_function(dom, {"kind": "indicator"}, rng),
    ]
    rep = coifman_check(SCZOKernel("odd_inverse"), w, 1.0, 1.0, suite)
    assert rep.ratio_max == max(rep.ratios)
    assert all(math.isfinite(r) and r >= 0 for r in rep.ratios)
    assert math.isfinite(rep.w_ainf)


def test_coifman_check_validation():
    rng = np.random.default_rng(35)
    dom = Domain(1, 8.0, 5)
    w = make_weight(dom, {"kind": "smooth_random", "amp": 0.3}, rng)
    f = [make_function(dom, {"kind": "random"}, rng)]
    k = SCZOKernel("odd_inverse")
    with pytest.raises(ValueError):
        coifman_check(k, w, 0.0, 1.0, f)
    with pytest.raises(ValueError):
        coifman_check(k, w, math.inf, 1.0, f)
    with pytest.raises(ValueError):
        coifman_check(k, w, 2.0, 0.0, f)
    with pytest.raises(ValueError):
        coifman_check(k, GridFunction.constant(dom, 0.0), 2.0, 1.0, f)


def test_mixed_for_t_comparison_fields():
    rng = np.random.default_rng(36)
    dom = Domain(1, 8.0, 8)
    f = make_function(dom, {"kind": "spike", "count": 3}, rng).abs()
    u = make_weight(dom, {"kind": "smooth_random", "amp": 0.3}, rng)
    v = make_weight(dom, {"kind": "smooth_random", "amp": 0.3}, rng)
    rep = mixed_for_T(f, u, v, SCZOKernel("odd_inverse"))
    assert rep.weak_M > 0 and rep.weak_T > 0
    assert rep.comparison_C == pytest.approx(rep.weak_T / rep.weak_M)
    # the grid sup never exceeds the exact weak quasinorm
    assert rep.constant * rep.integral <= rep.weak_T * (1 + 1e-9)
    assert rep.sigma == 0.0  # classical kernel picks the flat exponent
