"""Weight classes with a scale-adapted growth allowance.

Measures A_p characteristics over the family of every interval of the
box (a CubeFamily with no root is rooted at the whole box), shows how
the theta allowance tames growth for a rho-adapted weight, and runs the
reverse Holder and epsilon-form audits that feed the extrapolation
machinery.
"""

import numpy as np

from rhomix import (
    CubeFamily,
    Domain,
    RhoSpec,
    ainf_epsilon_form,
    ap_characteristic,
    factor_build,
    make_weight,
    rh_characteristic,
    rho_from_json,
    ALL_CELL_ALIGNED,
)


def characteristics():
    dom = Domain(1, 8.0, 8)
    fam = CubeFamily(dom, ALL_CELL_ALIGNED)
    rng = np.random.default_rng(1)
    rho = rho_from_json({"kind": "analytic", "name": "inv_one_plus_dist"})

    w = make_weight(dom, {"kind": "power", "alpha": 0.5}, rng)
    for theta in (0.0, 1.0, 2.0):
        rep = ap_characteristic(w, 2.0, theta, rho, fam)
        print("A_2 characteristic of |x|^0.5 at theta =", theta,
              "->", round(rep.value, 4))

    # a weight built to track the scale function: growth is absorbed
    # by the allowance, so the characteristic drops as theta rises
    v = make_weight(dom, {"kind": "rho_adapted", "beta": 2.0}, rng)
    flat = ap_characteristic(v, 2.0, 0.0, rho, fam).value
    eased = ap_characteristic(v, 2.0, 2.0, rho, fam).value
    print("rho-adapted weight: theta 0 gives", round(flat, 2),
          "theta 2 gives", round(eased, 2))


def reverse_holder_and_epsilon():
    dom = Domain(1, 8.0, 8)
    fam = CubeFamily(dom, ALL_CELL_ALIGNED)
    rng = np.random.default_rng(2)
    rho = RhoSpec.classical()
    w = make_weight(dom, {"kind": "smooth_random", "amp": 0.5}, rng)
    rh = rh_characteristic(w, 2.0, 0.0, rho, fam)
    print("RH_2 characteristic of a smooth random weight:", round(rh.value, 4))
    eps = ainf_epsilon_form(w, 0.0, rho, fam)
    print("fitted epsilon-form exponent:", round(eps.eps, 4))


def factored_pairs():
    dom = Domain(1, 8.0, 8)
    rng = np.random.default_rng(3)
    u = make_weight(dom, {"kind": "constant"}, rng)
    v = make_weight(dom, {"kind": "power", "alpha": 1.0}, rng)
    w = factor_build(u, v, 2.0)  # u * v^(1-p)
    print("factored weight w = u v^(1-p): min", round(float(w.values.min()), 4),
          "max", round(float(w.values.max()), 4))


if __name__ == "__main__":
    characteristics()
    reverse_holder_and_epsilon()
    factored_pairs()
