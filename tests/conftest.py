"""Shared helpers for the test suite."""

import contextlib

import numpy as np
import pytest

import rhomix.extrapolation
import rhomix.grid
import rhomix.weights
from rhomix import (
    ALL_CELL_ALIGNED, DYADIC_GRID_OF, Cube, Domain, GridFunction, dyadic_sum_pyramid,
)

#: (policy, rooted) as the family property tests draw them: dim-1 intervals
#: (rooted or not is drawn after), the box's bisection tree, and the tree of
#: a drawn power-of-two root
FAMILY_DRAWS = [(ALL_CELL_ALIGNED, None), (DYADIC_GRID_OF, False), (DYADIC_GRID_OF, True)]

#: sweep block budgets the property tests draw: on level <= 5 grids, 1
#: gives one side per block, 12 and 40 mix one-side and several-side
#: blocks, and the default takes every side of a half in one block
BLOCK_BUDGETS = [1, 12, 40, rhomix.grid.BLOCK_ELEMENTS]


@contextlib.contextmanager
def block_budget(budget: int):
    """Sweep with rhomix.grid.BLOCK_ELEMENTS set to budget."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rhomix.grid, "BLOCK_ELEMENTS", budget)
        yield


@contextlib.contextmanager
def counted_fits():
    """Count the ainf_epsilon_form calls made through rhomix.weights (the
    ones ainf_epsilon makes); yields a one-element list holding the count."""
    calls = [0]
    fit = rhomix.weights.ainf_epsilon_form

    def counting(*args, **kwargs):
        calls[0] += 1
        return fit(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rhomix.weights, "ainf_epsilon_form", counting)
        yield calls


@contextlib.contextmanager
def counted_sweeps():
    """Record the inputs of every CubeFamily.sweep call; yields the list of
    their input tuples, one per call."""
    calls = []
    sweep = rhomix.grid.CubeFamily.sweep

    def counting(self, *values):
        calls.append(values)
        return sweep(self, *values)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rhomix.grid.CubeFamily, "sweep", counting)
        yield calls


@contextlib.contextmanager
def counted_s_stacks():
    """Count the calls of extrapolation._s_stack, the one S kernel that
    s_operator and estimate_K0 both run; yields a one-element list holding
    the count."""
    calls = [0]
    s_stack = rhomix.extrapolation._s_stack

    def counting(*args):
        calls[0] += 1
        return s_stack(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rhomix.extrapolation, "_s_stack", counting)
        yield calls


def split_domains():
    """(f, u, v): f and u on one box, v on another box with the same cell
    count, so only the domains tell them apart."""
    near, far = Domain(1, 8.0, 5), Domain(1, 4.0, 5)
    f = GridFunction(near, np.linspace(0.0, 1.0, 32))
    u = GridFunction(near, np.linspace(1.0, 2.0, 32))
    v = GridFunction(far, np.linspace(2.0, 1.0, 32))
    return f, u, v


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
