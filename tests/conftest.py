"""Shared helpers for the test suite."""

import numpy as np
import pytest

from rhomix import Cube, GridFunction, dyadic_sum_pyramid


def cubes_of(domain, fam):
    """Materialize a family as a list of Cubes on a known domain."""
    out = []
    for s in fam.side_cells_list():
        for anchor in fam.anchors(s):
            out.append(Cube(domain, tuple(int(a) for a in anchor), s))
    return out


def brute_average(f: GridFunction, cube: Cube) -> float:
    """Independent cube average: plain numpy mean over the cube's cells."""
    return float(np.mean(f.values[cube.slices()]))


def pyramid_average(g: GridFunction, R: Cube, Q: Cube) -> float:
    """avg(g, Q) for Q in the bisection tree of R, read off the pairwise
    child-sum pyramid of g over R: the float every stopping rule compares."""
    j = Q.side_cells.bit_length() - 1
    idx = tuple((q - r) // Q.side_cells for q, r in zip(Q.anchor, R.anchor))
    return float(dyadic_sum_pyramid(g.values[R.slices()])[j][idx]) / Q.cell_count


def random_pow2_cube(domain, rng) -> Cube:
    """A dyadic sub-box of the grid: power-of-two side, aligned anchor."""
    side = 1 << int(rng.integers(0, domain.level + 1))
    anchor = tuple(
        int(rng.integers(0, domain.n // side)) * side for _ in range(domain.dim)
    )
    return Cube(domain, anchor, side)


def brute_m_dyadic(f, R):
    """Independent oracle: walk the explicit bisection tree with plain means."""
    out = np.zeros(f.domain.shape)
    vals = np.abs(f.values)

    def visit(Q):
        avg = float(np.mean(vals[Q.slices()]))
        sl = Q.slices()
        out[sl] = np.maximum(out[sl], avg)
        if Q.side_cells > 1:
            for k in Q.children():
                visit(k)

    visit(R)
    return out


def brute_cz(g, R, lam):
    """Independent stopping time: explicit recursion with plain means."""
    out = []

    def visit(Q):
        avg = float(np.mean(g.values[Q.slices()]))
        if avg > lam:
            out.append(Q)
            return
        if Q.side_cells > 1:
            for kid in Q.children():
                visit(kid)

    # root average <= lam by precondition, so only descend
    for kid in R.children() if R.side_cells > 1 else []:
        visit(kid)
    return sorted(out, key=lambda c: (c.side_cells, c.anchor))


def oscillator(domain):
    """V = |x - c|^2 with c the box center, as a GridFunction."""
    d2 = np.sum((domain.cell_centers() - domain.side / 2.0) ** 2, axis=1)
    return GridFunction(domain, d2.reshape(domain.shape))


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)
