"""Scale-adapted Muckenhoupt and reverse-Holder characteristics.

A weight w is a strictly positive grid function.  All classes here are the
rho-adapted ones: the defining ratio of each cube Q = Q(x, r) is discounted
by the growth factor (1 + r/rho(x))^theta, so membership is monotone in
theta and theta = 0 (or a CLASSICAL rho) recovers the classical classes.

Characteristics are exact suprema over the requested cube family, in any
dim the family supports (every interval in dim 1; the bisection tree of
the box or of a smaller root in dims 1-3).  One engine, characteristics,
serves them all: a rung is (kind, exponent, theta), A_p at p or RH at s,
and one call reads any mix of rungs off one sweep of the family.
CubeFamily.sweep reads every cube average from a prefix-sum table in O(1)
and CubeFamily.cube_extreme supplies the cube minima and maxima, so a full
dim-1 sweep over all n(n+1)/2 intervals costs O(n^2).  The sweep averages
w and each power of w the rungs need once (log w, w^(1-p') per p, w^s per
s), and hands over blocks of sides (on intervals, as many as fit
grid.BLOCK_ELEMENTS counted over every input, so a block's averages stay
under 256 KB together).
Per block, each distinct (kind, exponent) computes its raw ratio once into
new memory, and each theta takes one penalty divide and one argmax;
blocks come largest sides first and each is flat in (side, anchor) order,
and a tie in a later block takes the witness, so the witness is the first
cube in (side, anchor) order that attains the sup, however the sides are
blocked.  So every value and witness is bit-identical to its one-rung
call; ap_characteristic, ap_ladder and rh_characteristic are such calls.
A power of w that overflows on a cell (w^(1-p') or w^s) stays out of the
sweep and makes the sups of the rungs that read it inf, witnessed by that
cell; the other rungs keep their values.  A power whose running sum over
the root overflows is refused by the sweep (SumOverflowError), and so is
a weight whose range cancels a cube's averages to 0/0.  The
A_infty epsilon form runs per side on CubeFamily too; in dims 1 and 2
ainf_epsilon reads its exponent off one RH_infty sweep and runs the fit
only when that bound cannot decide it.
Every growth-factor power is read from the rho's PenaltyTable for the
family (critical.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .critical import RhoSpec
from .grid import (
    ALL_CELL_ALIGNED,
    Cube,
    CubeFamily,
    GridFunction,
    SumOverflowError,
    require_weight,
)

__all__ = [
    "EpsilonForm",
    "WeightCharacteristic",
    "ainf_epsilon",
    "ainf_epsilon_form",
    "ap_characteristic",
    "ap_ladder",
    "characteristics",
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


def _require_theta(theta: float) -> None:
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")


def _require_rung(kind: str, x: float, theta: float) -> None:
    if kind == "ap":
        if not (x == math.inf or x >= 1):
            raise ValueError(f"p must be in [1, inf], got {x}")
    elif kind == "rh":
        if not (x == math.inf or x > 1):
            raise ValueError(f"s must be > 1 or inf, got {x}")
    else:
        raise ValueError(f"rung kind must be 'ap' or 'rh', got {kind!r}")
    _require_theta(theta)


def _power(vals: np.ndarray, kind: str, x: float):
    """The power of w that rungs (kind, x) average besides w, or None."""
    if kind == "ap" and x == math.inf:
        return np.log(vals)
    with np.errstate(over="ignore"):
        if kind == "ap" and x != 1:
            return vals ** (1.0 - x / (x - 1.0))
        if kind == "rh" and x != math.inf:
            return vals**x
    return None


def _first_unbounded(cubes: CubeFamily, power: np.ndarray):
    """The first cell of the root, in anchor order, where power is not
    finite (it overflowed), as a side-1 pick (1, its index among the
    family's side-1 anchors, 1); else None."""
    bad = ~np.isfinite(power[cubes.root.slices()])
    return (1, int(np.argmax(bad)), 1) if bad.any() else None


def _raw(kind, x, avg, avg_power, cubes: CubeFamily, vals, sides) -> np.ndarray:
    """Per cube of a sweep block, the ratio of rungs (kind, x) before the
    growth factor, in new memory; avg and avg_power are the block's
    averages of w and of its power, and stay as they are."""
    if kind == "ap":
        if x == math.inf:  # means of logs, never products
            return avg * np.exp(-avg_power)
        if x == 1:
            low = cubes.cube_extreme(vals, sides, "min")
            return np.divide(avg, low, out=low)
        raw = np.power(avg, 1.0 / x)
        return np.multiply(raw, np.power(avg_power, 1.0 / (x / (x - 1.0))), out=raw)
    if x == math.inf:
        high = cubes.cube_extreme(vals, sides, "max")
        return np.divide(high, avg, out=high)
    raw = np.power(avg_power, 1.0 / x)
    return np.divide(raw, avg, out=raw)


def characteristics(
    w: GridFunction,
    rungs,
    rho: RhoSpec,
    cubes: CubeFamily,
) -> tuple[WeightCharacteristic, ...]:
    """Per rung (kind, exponent, theta), in order, the sup over the family
    of the rung's ratio / factor^theta and its witness, all from one sweep
    (see the module docstring).

    kind "ap" is ap_characteristic at p = exponent in [1, inf]; kind "rh"
    is rh_characteristic at s = exponent in (1, inf].  A power of w that is
    not finite on some cell of the root makes the rungs that read it inf,
    witnessed by the first such cell: its single-cell cube comes first in
    (side, anchor) order among the cubes whose ratio is inf.
    """
    require_weight(w)
    thetas: dict = {}  # (kind, exponent) -> its distinct thetas, in order
    for kind, x, theta in rungs:
        _require_rung(kind, x, theta)
        thetas.setdefault((kind, x), {})[theta] = None
    vals = w.values
    inputs = [vals]
    slots = {}  # (kind, exponent) -> the index of its power's averages
    sups = {}  # (kind, exponent, theta) -> (value, pick (first side, anchor index, side))
    for key in thetas:
        power = _power(vals, *key)
        unbounded = None if power is None else _first_unbounded(cubes, power)
        if unbounded is not None:
            sups.update({key + (t,): (math.inf, unbounded) for t in thetas[key]})
        elif power is None:
            slots[key] = 0
        else:
            slots[key] = len(inputs)
            inputs.append(power)
    sups.update({key + (t,): (-math.inf, None) for key in slots for t in thetas[key]})
    table = rho.penalty_table(cubes)
    for sides, avgs in cubes.sweep(*inputs) if slots else ():
        # a one-side block has no padding
        pad = cubes.padding(sides, avgs[0].shape[-1]) if len(sides) > 1 else None
        ratios = None  # one buffer per block for every rung's penalized ratios
        for key, slot in slots.items():
            with np.errstate(invalid="ignore"):
                raw = _raw(*key, avgs[0], avgs[slot], cubes, vals, sides)
            if pad is not None:
                np.copyto(raw, -np.inf, where=pad)
            unpenalized = None  # raw's argmax, shared by every theta whose penalty is 1
            for theta in thetas[key]:
                penalty = table.power(sides, theta)
                # argmax picks the first NaN, so its pick shows any NaN
                if np.isscalar(penalty):  # 1.0: raw / 1.0 is raw
                    ratio = raw
                    if unpenalized is None:
                        unpenalized = int(np.argmax(raw))
                    i = unpenalized
                else:
                    if ratios is None:
                        ratios = np.empty_like(raw)
                    ratio = np.divide(raw, penalty, out=ratios)
                    i = int(np.argmax(ratio))
                if math.isnan(ratio.flat[i]):
                    raise SumOverflowError(
                        f"the cube averages of the {key[0]} rung at {key[1]} "
                        "cancel to 0/0: the weight's range passes what prefix "
                        "sums over the root resolve"
                    )
                # blocks come largest sides first and each is flat in (side,
                # anchor) order: >= lets a tie in a later block take over, so
                # the witness is the first cube in (side, anchor) order that
                # attains the sup
                if ratio.flat[i] >= sups[key + (theta,)][0]:
                    j, a = divmod(i, ratio.shape[-1])
                    sups[key + (theta,)] = (float(ratio.flat[i]), (int(sides[0]), a, int(sides[j])))
    # a rung's witness Cube is named once, off its last pick
    picks = [(*sups[kind, x, theta], x, theta) for kind, x, theta in rungs]
    return tuple(
        WeightCharacteristic(v, at and Cube(cubes.domain, cubes.anchor(*at[:2]), at[2]), x, t)
        for v, at, x, t in picks
    )


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
    The one-rung call of characteristics.
    """
    return characteristics(w, (("ap", p, theta),), rho, cubes)[0]


def ap_ladder(
    w: GridFunction,
    p: float,
    thetas: tuple[float, ...],
    rho: RhoSpec,
    cubes: CubeFamily,
) -> tuple[WeightCharacteristic, ...]:
    """ap_characteristic at every growth exponent of thetas, in order, from
    one sweep of the family."""
    return characteristics(w, tuple(("ap", p, t) for t in thetas), rho, cubes)


def rh_characteristic(
    w: GridFunction,
    s: float,
    theta: float,
    rho: RhoSpec,
    cubes: CubeFamily,
) -> WeightCharacteristic:
    """Reverse-Holder characteristic sup_Q avg(w^s)^(1/s) / (factor^theta avg w);
    s = inf uses max_Q w in the numerator.  The one-rung call of
    characteristics."""
    return characteristics(w, (("rh", s, theta),), rho, cubes)[0]


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
    _require_theta(theta)
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
        y = y / np.reshape(table.power([s], theta), (-1, 1))
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


def _nus(vals: np.ndarray) -> float:
    """N u S of one sweep input over the root (vals): N its cell count,
    S = sum / min and u = 2^-53; inf or NaN when the sum overflows or the
    min is 0."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return float(vals.size * 2.0**-53 * (vals.sum() / vals.min()))


def _fit_margin(w: GridFunction, cubes: CubeFamily) -> float:
    """Relative rounding slack between the RH_infty sweep and the fit at
    eps = 1 (see ainf_epsilon): 64 N u S, with N the root's cell count,
    S = sum w / min w over the root and u = 2^-53; inf when N u S > 2^-20,
    where ainf_epsilon's first-order count stops being safe."""
    nus = _nus(w.values[cubes.root.slices()])
    return 64.0 * nus if nus <= 2.0**-20 else math.inf


def _ap_range_clears(
    w: GridFunction, p: float, theta: float, cubes: CubeFamily, cap: float
) -> bool:
    """True when w's range over the root alone puts every cube's A_p ratio
    at (p, theta), as ap_characteristic computes it, below cap, so its
    value is below cap too; False sends the caller to the sweep.

    For 1 <= p < inf and theta >= 0 every penalty is >= 1 and each cube's
    exact ratio is at most (max w / min w)^(1/p) <= M/m over the root.
    The sweep's floats: each cube average of an input x is high by a
    factor of at most 1 + (8 gamma_N + 33 u) S_x (see ainf_epsilon; x is
    w and, for p > 1, w^(1-p'), whose cells numpy's power rounds), the
    two power means take exponents that sum to 1 and so carry the larger
    of those factors, and the powers, the product and the penalty divide
    add a few ulps.  The exponents 1/p, 1/p' and 1 - p' are rounded, so
    the means' product is (M/m)^(1/p) off by a factor of up to
    exp(4 u |ln m|).  With S the larger S_x, all this stays within
    128 N u S + 8 u |ln m| whenever N u S <= 2^-20.  The inputs must be
    finite with finite sums over the root (else N u S is not finite), as
    the sweep needs them; otherwise, or outside 1 <= p < inf and
    0 <= theta < inf (where the sweep may also refuse the rung), the
    answer is False."""
    if not (1 <= p < math.inf and 0 <= theta < math.inf):
        return False
    vals = w.values[cubes.root.slices()]
    power = _power(vals, "ap", p)
    nus = [_nus(x) for x in (vals, power) if x is not None]
    if not all(n <= 2.0**-20 for n in nus):
        return False
    lo = float(vals.min())
    margin = 128.0 * max(nus) + 8.0 * 2.0**-53 * abs(math.log(lo))
    return float(vals.max()) / lo * (1.0 + margin) < cap


def _rh_bound_clears(
    w: GridFunction,
    theta: float,
    rho: RhoSpec,
    cubes: CubeFamily,
    bound: float | None = None,
) -> bool:
    """True when w's RH_infty bound, with its rounding margin, is within
    the fit's cap, so the fit keeps eps = 1 (see ainf_epsilon).  Sound on
    every family.  bound is rh_characteristic(w, inf, theta, rho,
    cubes).value when the caller's sweep scored it; otherwise it is swept
    here, and only when the margin is finite."""
    margin = _fit_margin(w, cubes)
    if not math.isfinite(margin):
        return False
    if bound is None:
        bound = rh_characteristic(w, math.inf, theta, rho, cubes).value
    return bound * (1.0 + margin) <= _C_CAP


def ainf_epsilon(
    w: GridFunction,
    theta: float,
    rho: RhoSpec,
    cubes: CubeFamily,
) -> float:
    """The eps of ainf_epsilon_form(w, theta, rho, cubes), exactly.  In
    dims 1 and 2 the pack fit runs only when one RH_infty sweep cannot
    decide eps; in dim 3 the fit runs directly.

    The fit tries eps = 1 first and keeps it when every sample has
    y / x <= _C_CAP.  A sample of cube Q with m cells is a top-k or
    bottom-k pack: x = k/m, y = pack sum / (w(Q) factor_Q^theta).  A top-k
    pack averages at most max_Q w and a bottom-k pack at most avg_Q w, so
    y / x <= (max_Q w / avg_Q w) / factor_Q^theta, the cube's RH_infty
    ratio (Cruz-Uribe and Neugebauer: RH_infty gives A_infty with
    w(E)/w(Q) <= [w]_RH_infty |E|/|Q|), and both read the same PenaltyTable
    floats.  So V = rh_characteristic(w, inf, theta, rho, cubes).value
    bounds the fit's C at eps = 1 up to rounding, and V (1 + margin) <=
    _C_CAP gives eps = 1.  Otherwise the fit runs.

    The margin, with N the root's cell count, S = sum w / min w over the
    root (S >= N), u = 2^-53 and gamma_N = N u / (1 - N u):
      * sweep: a cube sum is a 2^dim-corner combination of BoxSums prefix
        entries, each within gamma_N sum w of exact (dim <= 3 cumsums of
        at most N cells); with the <= 2^dim roundings of the combination
        it is off by at most (8 gamma_N + 32 u) sum w, against a true sum
        of at least min w, so the average is high by a factor of at most
        1 + (8 gamma_N + 33 u) S; V's division and penalty add 2 u;
      * fit: the pack total T (a positive sum) is within gamma_N T of
        exact and each cumsum entry within gamma_N T too, so the
        cancellation in a top pack total - csum[m - k] is off by at most
        2 gamma_N T against a true pack of at least k T / m >= T / N:
        relative error 2 N gamma_N (a bottom pack, a plain positive sum,
        is within gamma_N); dividing by the rounded T adds
        gamma_N, and the subtraction, the divisions by T, the penalty and
        x, x's own rounding and x**1.0 add at most 8 u.
    Each term is at most its coefficient times N u S (u S <= N u S,
    N^2 u <= N u S), 54 N u S in all to first order; for N u S <= 2^-20
    the second-order terms fit in the remaining 10 N u S, so margin =
    64 N u S, and the fit runs whenever N u S is larger.  A weight the
    fit would refuse is refused the same way.

    On ALL_CELL_ALIGNED the fit sorts every interval's cells, about
    n^3/6 in dim 1, against the sweep's O(n^2) (61.6 against 1.1 ms at
    level 8, one core of a 2-core x86 host).  On a bisection tree the fit
    sorts each cell once per level, and the sweep, which reads each side's
    tile sums straight off the prefix table, costs about half to two
    thirds of it in dims 1 and 2 (dim 2: 0.30-0.33 against 0.45-0.48 ms at
    level 5, 1.3-1.7 against 2.6-3.4 ms at level 7), so where the bound
    clears the sweep saves the rest of the fit; it cleared on each dim-2
    level-6 rdf report of seeds 1-10 (analytic rho, one weight pair).  In dim 3 the sweep costs about as much as the fit
    (0.58-0.74 against 0.56-0.77 ms at level 4; lognormal weights, same
    host), so there the bound could save only part of one fit and the fit
    runs directly.
    """
    return _ainf_epsilon(w, theta, rho, cubes, None)


def _ainf_epsilon(
    w: GridFunction,
    theta: float,
    rho: RhoSpec,
    cubes: CubeFamily,
    rh_inf: float | None,
) -> float:
    """ainf_epsilon, its bound test reading rh_inf, w's RH_infty
    characteristic at theta over cubes, when the caller's sweep of w scored
    that rung (None: the test sweeps it)."""
    require_weight(w)
    _require_theta(theta)
    if cubes.domain.dim <= 2 and _rh_bound_clears(w, theta, rho, cubes, rh_inf):
        return 1.0
    return ainf_epsilon_form(w, theta, rho, cubes).eps


def factor_build(u: GridFunction, v: GridFunction, p: float) -> GridFunction:
    """Cellwise product weight u * v^(1-p)."""
    require_weight(u)
    require_weight(v)
    if not (p > 1 and math.isfinite(p)):
        raise ValueError(f"factor_build needs p in (1, inf), got {p}")
    return GridFunction(u.domain, u.values * v.values ** (1.0 - p))
