"""Shared helpers for the test suite."""

import numpy as np
import pytest

from rhomix import Cube, GridFunction


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


def oscillator(domain):
    """V = |x - c|^2 with c the box center, as a GridFunction."""
    d2 = np.sum((domain.cell_centers() - domain.side / 2.0) ** 2, axis=1)
    return GridFunction(domain, d2.reshape(domain.shape))


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)
