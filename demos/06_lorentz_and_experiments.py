"""Lorentz scale and the experiment runner.

Rearrangements against a weighted measure, closed-form Lorentz norms, the
Marcinkiewicz-style interpolation audit with witnesses, and the config
driven experiment runner that writes canonical JSON + CSV artifacts.
"""

import tempfile

import numpy as np

from rhomix import (
    Domain,
    GridFunction,
    WeightedMeasure,
    default_config,
    default_family,
    interpolation_audit,
    lorentz_norm,
    make_function,
    make_weight,
    m_rho_sigma_stack,
    RhoSpec,
    rearrangement,
    run_experiment,
    weak_norm,
    write_report,
)


def rearrangements():
    dom = Domain(1, 8.0, 8)
    rng = np.random.default_rng(31)
    mu = WeightedMeasure(make_weight(dom, {"kind": "smooth_random", "amp": 0.4}, rng))
    f = make_function(dom, {"kind": "indicator"}, rng).abs()

    table = rearrangement(f, mu)
    print("rearrangement steps:", table.values.size,
          " total mass:", round(table.total_mass, 4))
    print("f*(t) at t = mass/2:", table.f_star(table.total_mass / 2))

    # indicator of a set E: ||1_E||_{p,q} = (p/q)^(1/q) mu(E)^(1/p)
    mass = mu.mass(f.values > 0)
    p, q = 2.0, 1.0
    closed = (p / q) ** (1 / q) * mass ** (1 / p)
    print("indicator norm, computed vs closed form:",
          round(lorentz_norm(f, mu, p, q), 6), "vs", round(closed, 6))
    print("weak L1 quasinorm:", round(weak_norm(f, mu, 1.0), 6))


def interpolation():
    dom = Domain(1, 8.0, 7)
    rng = np.random.default_rng(32)
    mu = WeightedMeasure(make_weight(dom, {"kind": "smooth_random", "amp": 0.4}, rng))
    fs = [make_function(dom, {"kind": "indicator"}, rng).abs() for _ in range(8)]

    fam = default_family(dom)

    # T maps the whole pool, one (B, n) stack, to its images in one sweep
    def T(stack):
        return m_rho_sigma_stack(stack, RhoSpec.classical(), 0.0, 1.0, fam)

    honest = interpolation_audit(T, 1.0, 2.0, mu, fs)
    print("measured constants: weak C0 =", round(honest.C0, 4),
          " sup C1 =", round(honest.C1, 4))
    print("honest audit: conclusion violations =", honest.violations,
          " hypothesis violations =", honest.hypothesis_violations)

    rigged = interpolation_audit(T, 1.0, 2.0, mu, fs, C0=honest.C0 / 2)
    print("halving C0 is caught:", rigged.total_violations, "violations,",
          "worst claimed-vs-measured ratio", round(rigged.hyp_max_ratio, 3))


def runner():
    for kind in ("lorentz", "weights-char"):
        cfg = default_config(kind, dim=1, level=7, seed=9)
        rep = run_experiment(cfg)
        print("experiment:", rep.experiment, " passes:", rep.passes,
              " wall clock: %.2fs" % rep.wall_clock_s)
        with tempfile.TemporaryDirectory() as out:
            files = write_report(rep, out)
            print("  artifacts:", [f.split("/")[-1] for f in files])


if __name__ == "__main__":
    rearrangements()
    interpolation()
    runner()
