"""Scale-adapted Muckenhoupt and reverse-Holder characteristics.

A weight w is a strictly positive grid function.  All classes here are the
rho-adapted ones: the defining ratio of each cube Q = Q(x, r) is discounted
by the growth factor (1 + r/rho(x))^theta, so membership is monotone in
theta and theta = 0 (or a CLASSICAL rho) recovers the classical classes.

Characteristics are exact suprema over the requested cube family, in any
dim the family supports (every interval in dim 1; dyadic-side tiles or a
bisection tree in dims 1-3).  CubeFamily.sweep reads every cube average
from a prefix-sum table in O(1) and CubeFamily.cube_extreme supplies the
cube minima and maxima, so a full dim-1 sweep over all n(n+1)/2 intervals
costs O(n^2).  Neither the averages nor the minima depend on theta, so
ap_ladder reads a whole ladder of growth exponents off one sweep, each
value and witness bit-identical to its single-theta ap_characteristic.
The A_infty epsilon form runs per side on CubeFamily too.  Every
growth-factor power is read from the rho's PenaltyTable for the family
(critical.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .critical import RhoSpec
from .grid import (
    Cube,
    CubeFamily,
    GridFunction,
    require_weight,
)

__all__ = [
    "EpsilonForm",
    "WeightCharacteristic",
    "ainf_epsilon_form",
    "ap_characteristic",
    "ap_ladder",
    "factor_build",
    "rh_characteristic",
]

#: growth exponent ladder used by the audits
THETA_LADDER = (0.0, 0.5, 1.0, 2.0, 4.0)

#: reverse-Holder exponents the weights-char experiment measures
RH_LADDER = (2.0, 4.0, 8.0)

# the epsilon-form fit: eps walks the grid downward until C <= _C_CAP
_EPS_GRID = np.linspace(1.0, 0.05, 39)
_C_CAP = 8.0


@dataclass(frozen=True)
class WeightCharacteristic:
    value: float
    witness: Cube
    p: float
    theta: float
    policy: str


def _sup(
    cubes: CubeFamily, rho: RhoSpec, thetas: tuple, values: tuple, score
) -> list[tuple[float, Cube]]:
    """Per theta, the sup over the family of score(avgs, side) / factor^theta
    and its witness, all from one sweep.

    score receives the cube averages of each array in values for one side
    and returns the raw ratio per cube.
    """
    table = rho.penalty_table(cubes)
    best = [-math.inf] * len(thetas)
    witness: list[Cube | None] = [None] * len(thetas)
    for s, anchors, avgs in cubes.sweep(*values):
        raw = score(avgs, s)
        for t, theta in enumerate(thetas):
            ratio = raw / table.power(s, theta)
            i = int(np.argmax(ratio))
            # sides come largest first: >= lets a tie on a smaller side take
            # over, so the witness is the first cube in (side, anchor) order
            # that attains the sup
            if ratio[i] >= best[t]:
                best[t] = float(ratio[i])
                witness[t] = Cube(cubes.domain, tuple(int(a) for a in anchors[i]), s)
    return list(zip(best, witness))


def ap_characteristic(
    w: GridFunction,
    p: float,
    theta: float,
    rho: RhoSpec,
    cubes: CubeFamily,
) -> WeightCharacteristic:
    """Muckenhoupt characteristic over the family.

    p in (1, inf): sup_Q avg(w)^(1/p) avg(w^(1-p'))^(1/p') / factor^theta.
    p = 1:         sup_Q avg(w) / (factor^theta * min_Q w).
    p = inf:       sup_Q avg(w) * exp(avg(log(1/w))) / factor^theta
                   (the geometric-mean form; means of logs, never products).
    The one-theta call of ap_ladder.
    """
    return ap_ladder(w, p, (theta,), rho, cubes)[0]


def ap_ladder(
    w: GridFunction,
    p: float,
    thetas: tuple[float, ...],
    rho: RhoSpec,
    cubes: CubeFamily,
) -> tuple[WeightCharacteristic, ...]:
    """ap_characteristic at every growth exponent of thetas, in order, from
    one sweep of the family."""
    require_weight(w)
    if not (p == math.inf or p >= 1):
        raise ValueError(f"p must be in [1, inf], got {p}")
    vals = w.values

    if p == math.inf:
        def score(avgs, _s):
            return avgs[0] * np.exp(-avgs[1])

        sups = _sup(cubes, rho, thetas, (vals, np.log(vals)), score)
    elif p == 1:
        def score(avgs, s):
            return avgs[0] / cubes.cube_extreme(vals, s, "min")

        sups = _sup(cubes, rho, thetas, (vals,), score)
    else:
        pprime = p / (p - 1.0)

        def score(avgs, _s):
            return avgs[0] ** (1.0 / p) * avgs[1] ** (1.0 / pprime)

        sups = _sup(cubes, rho, thetas, (vals, vals ** (1.0 - pprime)), score)
    return tuple(
        WeightCharacteristic(value, witness, p, theta, cubes.policy)
        for theta, (value, witness) in zip(thetas, sups)
    )


def rh_characteristic(
    w: GridFunction,
    s: float,
    theta: float,
    rho: RhoSpec,
    cubes: CubeFamily,
) -> WeightCharacteristic:
    """Reverse-Holder characteristic sup_Q avg(w^s)^(1/s) / (factor^theta avg w);
    s = inf uses max_Q w in the numerator."""
    require_weight(w)
    if not (s == math.inf or s > 1):
        raise ValueError(f"s must be > 1 or inf, got {s}")
    vals = w.values

    if s == math.inf:
        def score(avgs, side):
            return cubes.cube_extreme(vals, side, "max") / avgs[0]

        [(value, witness)] = _sup(cubes, rho, (theta,), (vals,), score)
    else:
        def score(avgs, _side):
            return avgs[1] ** (1.0 / s) / avgs[0]

        [(value, witness)] = _sup(cubes, rho, (theta,), (vals, vals**s), score)
    return WeightCharacteristic(value, witness, s, theta, cubes.policy)


# ---------------------------------------------------------------------------
# A_infty epsilon form

@dataclass(frozen=True)
class EpsilonForm:
    C: float
    eps: float
    residual: float
    sample_count: int


def ainf_epsilon_form(
    w: GridFunction,
    theta: float,
    rho: RhoSpec,
    cubes: CubeFamily,
) -> EpsilonForm:
    """Fit (C, eps) with w(E)/w(Q) <= C factor^theta (|E|/|Q|)^eps on samples.

    Samples are the top-k and bottom-k cell packs of every cube (the top
    packs dominate every subset of the same size), built per side from
    CubeFamily.cube_cells.  The cubes of a side share the fractions x, and
    C = max y / x^eps and the residual are monotone in y at fixed x, so the
    fit runs on each side's upper envelope of y with the same floats;
    sample_count counts every sample.  The fit walks 39 even steps of eps
    from 1 down to 0.05 and takes the largest eps whose implied C is at most
    8 (Pareto point: max eps, then min C), else the last eps with its C;
    zero sample violations hold by construction and residual reports the
    recomputed max violation.
    """
    require_weight(w)
    table = rho.penalty_table(cubes)
    xs: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    count = 0
    for s in cubes.side_cells_list():
        m = s**w.domain.dim
        if m == 1:
            continue
        rows = np.sort(cubes.cube_cells(w.values, s), axis=1)
        total = rows.sum(axis=1)  # pairwise per row, not csum[:, -1]
        csum = np.pad(np.cumsum(rows, axis=1), ((0, 0), (1, 0)))
        k = 1 << np.arange((m - 1).bit_length())
        karr = np.unique(np.concatenate([k, m - k, [m]]))
        bottom = csum[:, karr]
        top = total[:, None] - csum[:, m - karr]
        y = np.concatenate([bottom, top], axis=1) / total[:, None]
        y = y / np.reshape(table.power(s, theta), (-1, 1))
        xs.append(np.concatenate([karr, karr]) / m)
        ys.append(y.max(axis=0))
        count += y.size
    if not xs:
        return EpsilonForm(1.0, 1.0, 0.0, 0)
    x = np.concatenate(xs)
    y = np.concatenate(ys)

    chosen = None
    for eps in _EPS_GRID:
        C = float(np.max(y / x**eps))
        if C <= _C_CAP:
            chosen = (max(C, 1.0), float(eps))
            break
    if chosen is None:
        eps = float(_EPS_GRID[-1])
        chosen = (max(float(np.max(y / x**eps)), 1.0), eps)
    C, eps = chosen
    residual = max(0.0, float(np.max(y - C * x**eps)))
    return EpsilonForm(C, eps, residual, count)


def factor_build(u: GridFunction, v: GridFunction, p: float) -> GridFunction:
    """Cellwise product weight u * v^(1-p)."""
    require_weight(u)
    require_weight(v)
    if not (p > 1 and math.isfinite(p)):
        raise ValueError(f"factor_build needs p in (1, inf), got {p}")
    return GridFunction(u.domain, u.values * v.values ** (1.0 - p))
