"""Extrapolation machinery and singular kernels.

The weighted sup operator S, the iterated majorant with its three audited
properties, odd singular kernels with measured size/smoothness constants,
the quadrature sanity check against log 2, the Coifman-style comparison
with the maximal majorant, and the mixed constant for T.
"""

import numpy as np

from rhomix import (
    Domain,
    GridFunction,
    RhoSpec,
    SCZOKernel,
    audit_kernel_conditions,
    coifman_check,
    estimate_K0,
    make_function,
    make_weight,
    mixed_for_T,
    rdf_audit,
    rdf_iterate,
    s_operator,
    sczo_apply,
)


def majorant():
    dom = Domain(1, 8.0, 8)
    rng = np.random.default_rng(21)
    u = make_weight(dom, {"kind": "smooth_random", "amp": 0.5}, rng)
    v = make_weight(dom, {"kind": "power", "alpha": 0.5}, rng)
    rho = RhoSpec.classical()
    fs = [make_function(dom, {"kind": k}, rng).abs()
          for k in ("random", "spike", "indicator")]

    state = estimate_K0(u, v, rho, 0.0, fs)
    print("K0 =", round(state.K0, 4), " backing exponents p0 =",
          round(state.p0, 3), "q =", round(state.q, 3))

    h = fs[0]
    Rh = rdf_iterate(h, u, rho, 0.0, state.K0, depth=10)
    print("majorant sup:", round(float(Rh.values.max()), 4),
          "vs h sup:", round(float(h.values.max()), 4))

    rep = rdf_audit(h, u, rho, 0.0, state.K0, depth=10)
    print("h <= Rh exact:", rep.minorant_exact,
          " S(Rh) <= 2 K0 Rh violations:", rep.sandwich_violations,
          " tail bound =", "%.2e" % rep.tail_bound)
    print("[(Rh) u] =", round(rep.char_value, 4),
          "<= 2 K0 * slack =", round(rep.char_bound, 4), "->", rep.char_ok)

    s1 = s_operator(h, u, rho, 0.0)
    print("sup after one S step:", round(float(s1.values.max()), 4),
          "(contracts by [u] at most)")


def kernels():
    dom = Domain(1, 16.0, 10)
    h = dom.cell_width
    kern = SCZOKernel(profile="odd_inverse")

    cond = audit_kernel_conditions(kern, dom)
    print("kernel size constant:", round(cond.C_size, 4),
          " smoothness constant:", round(cond.C_smooth, 4),
          "at delta =", kern.delta)

    # T(1_[0,1]) at x = 2 is log(2/(2-1)) = log 2 for this kernel
    f = GridFunction(dom, (dom.cell_centers()[:, 0] < 1.0).astype(float))
    Tf = sczo_apply(f, kern)
    i2 = int(round(2.0 / h))
    x2 = (i2 + 0.5) * h
    val = float(Tf.values[i2])
    exact = float(np.log(x2 / (x2 - 1.0)))
    print("quadrature vs closed form at x ~ 2:", round(val, 6),
          "vs", round(exact, 6),
          " rel err", "%.1e" % abs(val / exact - 1.0))


def mixed_constant_for_T():
    dom = Domain(1, 8.0, 9)
    rng = np.random.default_rng(22)
    u = make_weight(dom, {"kind": "constant"}, rng)
    v = make_weight(dom, {"kind": "power", "alpha": 0.3}, rng)
    f = make_function(dom, {"kind": "spike", "count": 2}, rng).abs()
    kern = SCZOKernel(profile="odd_inverse")

    co = coifman_check(kern, u * v, 1.0, 1.0, [f])
    rep = mixed_for_T(f, u, v, kern)
    print("Coifman ratio int|Tf| uv / int M f uv:", round(co.ratio_max, 4))
    print("mixed constant for T:", round(rep.constant, 4),
          " weak_T / weak_M =", round(rep.comparison_C, 4))


if __name__ == "__main__":
    majorant()
    kernels()
    mixed_constant_for_T()
