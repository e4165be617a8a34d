"""Grids, dyadic cubes, and critical radius functions.

Walks the foundation layer: a power-of-two box, its cube families and
sum pyramid, then the three ways to get a scale function rho: a closed
form, a constant, and Shen's radius built from a potential.
"""

import numpy as np

from rhomix import (
    Cube,
    CubeFamily,
    Domain,
    GridFunction,
    audit_admissibility,
    critical_covering,
    dyadic_sum_pyramid,
    rho_from_json,
    shen_rho,
    DYADIC_GRID_OF,
)


def grids():
    dom = Domain(1, 8.0, 5)  # [0, 8) split into 32 cells
    print("domain:", dom.dim, "dim,", dom.n, "cells of width", dom.cell_width)
    fam = CubeFamily(dom, DYADIC_GRID_OF)  # no root given: the whole box
    print("bisection tree of the box holds", fam.count(), "cubes; root side",
          fam.root.side_cells, "cells")
    sub = CubeFamily(dom, DYADIC_GRID_OF, Cube(dom, (8,), 16))
    print("bisection tree of the 16-cell cube at cell 8 holds", sub.count(), "cubes")

    vals = np.arange(32.0)
    levels = dyadic_sum_pyramid(vals)
    # levels[j][i] = sum of the i-th block of width 2^j
    print("pyramid top (total sum):", levels[-1][0], "== ", vals.sum())


def analytic_rho():
    spec = rho_from_json({"kind": "analytic", "name": "inv_one_plus_dist"})
    dom = Domain(1, 8.0, 7)
    rep = audit_admissibility(spec, dom, pair_sample_size=2000, seed=0)
    print("rho(x) = 1/(1+|x|): fitted (C0, N0) =",
          (round(rep.C0, 3), round(rep.N0, 3)),
          "max two-sided violation:", rep.max_violation)
    cov = critical_covering(spec, dom)
    print("greedy cover needs", cov.cube_count, "critical cubes;",
          "overlap N(sigma):", cov.overlap, "fit N1 =", round(cov.N1, 2))


def shen_radius():
    # constant potential V = 3/(4 pi) in dim 3 makes rho exactly 1
    dom = Domain(3, 8.0, 5)
    V = GridFunction.constant(dom, 3.0 / (4.0 * np.pi))
    r = shen_rho(V, np.array([4.0, 4.0, 4.0]))
    print("Shen rho at the center for V = 3/(4 pi):", round(r.value, 4))
    r4 = shen_rho(V * 4.0, np.array([4.0, 4.0, 4.0]))
    print("four times the potential halves the radius:", round(r4.value, 4))


if __name__ == "__main__":
    grids()
    analytic_rho()
    shen_radius()
