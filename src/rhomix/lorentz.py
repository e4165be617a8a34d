"""Distribution functions, decreasing rearrangements, and Lorentz norms.

Everything here is exact for grid step functions: a rearrangement is a
finite table of (value, cumulative mass) steps, and the L^{p,q} integrals
reduce to closed forms per step.  The weighted measure mu is any
nonnegative density on the grid (typically a weight or a product u*v).

Every level-set mass comes from one table per (f, mu): the cells sorted
by decreasing |f| with ties in memory order, one running sum of the
density in that order, read at the last cell of each tie group and scaled
by the cell volume.  The order is the stable sort's, reached at the
default sort's speed: distinct keys have one descending order, so numpy's
default sort runs first, and the stable sort runs again only when two
positive values tie; the zero cells, always tied, follow in memory order.
The running sum of n nonnegative terms is within (n - 1) 2^-53 relative of
the exact mass and never decreases.  f*, lambda_f, the norms and the
t-grid sups are methods of the same table, so the generalized-inverse
identities hold exactly by construction, and a caller that needs several
of them for one (f, mu) builds the table once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grid import Domain, DomainMismatchError, GridFunction, weighted_measure

__all__ = [
    "RearrangementTable",
    "InterpolationReport",
    "WeightedMeasure",
    "distribution",
    "interpolation_audit",
    "lorentz_norm",
    "rearrangement",
    "t_grid_sup",
    "weak_norm",
]


@dataclass(frozen=True)
class WeightedMeasure:
    """Measure with a nonnegative cell density."""

    density: GridFunction

    def __post_init__(self) -> None:
        if np.any(self.density.values < 0):
            raise ValueError("measure density must be nonnegative")

    @property
    def domain(self) -> Domain:
        return self.density.domain

    @classmethod
    def lebesgue(cls, domain: Domain) -> "WeightedMeasure":
        return cls(GridFunction.constant(domain, 1.0))

    def mass(self, mask: np.ndarray) -> float:
        return weighted_measure(self.density, mask)

    def total(self) -> float:
        return float(self.density.values.sum()) * self.domain.cell_volume


def distribution(f: GridFunction, mu: WeightedMeasure, s: float) -> float:
    """mu({|f| > s}), read from the level-set table of f."""
    return float(_level_table(f.domain, np.abs(f.values), mu).distribution(s))


@dataclass(frozen=True)
class RearrangementTable:
    """Step representation of f*: f*(t) = values[i] on [masses[i-1], masses[i]).

    values are the distinct positive |f| values in decreasing order and
    masses the cumulative mu-masses; beyond the last mass f* is zero.
    domain_mass is mu(Omega), the distribution function at every s < 0,
    and peak the largest |f| over every cell, mu-null ones included.
    """

    values: np.ndarray
    masses: np.ndarray
    domain_mass: float
    peak: float

    @property
    def total_mass(self) -> float:
        return float(self.masses[-1]) if self.masses.size else 0.0

    def f_star(self, t) -> np.ndarray:
        """Evaluate f*(t); vectorized, right-continuous steps."""
        t = np.asarray(t, dtype=float)
        if self.values.size == 0:
            return np.zeros_like(t)
        idx = np.searchsorted(self.masses, t, side="right")
        padded = np.concatenate([self.values, [0.0]])
        return padded[idx]

    def distribution(self, s) -> np.ndarray:
        """lambda(s) = mu({|f| > s}) recovered from the table."""
        s = np.asarray(s, dtype=float)
        # number of steps with value > s, mapped to the cumulative mass
        desc = self.values[::-1]
        count = self.values.size - np.searchsorted(desc, s, side="right")
        padded = np.concatenate([[0.0], self.masses])
        return np.where(s < 0, self.domain_mass, padded[count])

    def lorentz_norm(self, p: float, q: float) -> float:
        """||f||_{L^{p,q}(mu)} in closed form per rearrangement step.

        q < infty:  (sum_i v_i^q (p/q)(m_i^{q/p} - m_{i-1}^{q/p}))^{1/q};
        q = infty:  max_i v_i m_i^{1/p}  (sup attained at right endpoints);
        p = q = infty reduces to ||f||_infty.  p = infty with finite q is
        rejected: t^{q/p}/t is not integrable there.  NaN p or q is
        rejected too.
        """
        if not (p > 0 and q > 0):
            raise ValueError("p and q must be positive")
        if p == math.inf and q != math.inf:
            raise ValueError("p = inf requires q = inf")
        if self.values.size == 0:
            return 0.0
        v = self.values
        m = self.masses
        if q == math.inf:
            if p == math.inf:
                return float(v[0])
            return float(np.max(v * m ** (1.0 / p)))
        prev = np.concatenate([[0.0], m[:-1]])
        pieces = v**q * (p / q) * (m ** (q / p) - prev ** (q / p))
        return float(np.sum(pieces) ** (1.0 / q))

    def weak_norm(self, p: float = 1.0) -> float:
        """||f||_{L^{p,inf}(mu)} = sup_t t^(1/p) f*(t), exact."""
        return self.lorentz_norm(p, math.inf)

    def t_grid_sup(
        self, t_grid: np.ndarray | None = None
    ) -> tuple[float, tuple[float, ...]]:
        """sup over t in t_grid of t mu({|f| > t}), and the grid it ran on;
        the default grid is 64 geometric steps up to peak, or t = 1 when
        peak is 0."""
        if t_grid is None:
            lo = max(self.peak * 1e-6, 1e-300)
            t_grid = np.geomspace(lo, self.peak, 64) if self.peak > 0 else [1.0]
        t = np.asarray(t_grid, dtype=float)
        sup = float(np.max(t * self.distribution(t), initial=0.0))
        return sup, tuple(float(x) for x in t)


def rearrangement(f: GridFunction, mu: WeightedMeasure) -> RearrangementTable:
    """Exact decreasing rearrangement of a grid step function."""
    return _level_table(f.domain, np.abs(f.values), mu)


def _level_table(
    domain: Domain, level: np.ndarray, mu: WeightedMeasure
) -> RearrangementTable:
    """Level-set table of a nonnegative cell array against mu."""
    if domain != mu.domain:
        raise DomainMismatchError("function and measure on different domains")
    # the default sort, redone stably only on a tie: the stable order, so
    # tied cells add up in memory order
    order, a = _descending(level.ravel())
    cum = np.cumsum(mu.density.values.ravel()[order])
    vol = mu.domain.cell_volume
    pos = np.count_nonzero(a > 0)
    peak = float(a[0])
    a = a[:pos]
    last = np.ones(pos, dtype=bool)
    last[:-1] = a[1:] != a[:-1]
    masses = cum[:pos][last] * vol
    # cells of mu-mass zero cannot create steps
    keep = np.diff(masses, prepend=0.0) > 0
    return RearrangementTable(
        a[last][keep], masses[keep], float(cum[-1]) * vol, peak
    )


def _descending(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable argsort of -a for a flat, finite, nonnegative a, and a
    in that order.

    Distinct keys have one descending order, which numpy's default sort
    finds several times faster than the stable merge sort; only tied keys
    can leave memory order.  So the default sort runs first, and the
    stable sort again only when two positive keys tie.  The zero cells
    (0.0 and -0.0 alike) always tie and sort after every positive cell;
    the stable order lists them in memory order, and so they are put back
    in it directly.
    """
    order = np.argsort(-a)
    keys = a[order]
    pos = np.count_nonzero(keys > 0)
    top = keys[:pos]
    if np.any(top[1:] == top[:-1]):
        order = np.argsort(-a, kind="stable")
    elif pos < a.size:
        order[pos:] = np.flatnonzero(a == 0)
    # the zeros' signs in the final order
    keys[pos:] = a[order[pos:]]
    return order, keys


def lorentz_norm(
    f: GridFunction, mu: WeightedMeasure, p: float, q: float
) -> float:
    """||f||_{L^{p,q}(mu)}; see RearrangementTable.lorentz_norm."""
    return rearrangement(f, mu).lorentz_norm(p, q)


def weak_norm(f: GridFunction, mu: WeightedMeasure, p: float = 1.0) -> float:
    """||f||_{L^{p,inf}(mu)} = sup_t t^(1/p) f*(t), exact."""
    return rearrangement(f, mu).weak_norm(p)


def t_grid_sup(
    T: GridFunction, mu: WeightedMeasure, t_grid: np.ndarray | None = None
) -> tuple[float, tuple[float, ...]]:
    """sup over t in t_grid of t mu({T > t}), and the grid it ran on; the
    default grid is 64 geometric steps up to max T, or t = 1 when T <= 0.

    The masses come from the level-set table of max(T, 0): {T > t} is
    {max(T, 0) > t} for t > 0, and a t <= 0 adds at most 0 to the sup.
    For T >= 0 that table is rearrangement(T, mu), so a caller holding it
    reads the same sup off its t_grid_sup.
    """
    table = _level_table(T.domain, np.maximum(T.values, 0.0), mu)
    return table.t_grid_sup(t_grid)


# ---------------------------------------------------------------------------
# Lorentz-space interpolation audit

@dataclass(frozen=True)
class InterpolationReport:
    p0: float
    p: float
    C0: float
    C1: float
    bound_constant: float        # 2^(1/p) (C0 (1/p0 - 1/p)^-1 + C1)
    violations: int              # conclusion failures over the suite
    hypothesis_violations: int   # weak/sup hypothesis failures over the pool
    max_ratio: float             # max ||Tf||_{p,1} / (bound * ||f||_{p,1})
    hyp_max_ratio: float         # max measured ratio / stated constant
    checked: int

    @property
    def total_violations(self) -> int:
        return self.violations + self.hypothesis_violations


def _truncations(f: GridFunction, table: RearrangementTable) -> np.ndarray:
    """The distinct splits f = f_t + f^t at the steps of f's table, as a
    (2K, *grid) stack: f_t then f^t for each of the K steps."""
    steps = table.values
    vals = f.values
    below = np.abs(vals) <= steps.reshape((-1,) + (1,) * vals.ndim)
    low = np.where(below, vals, 0.0)
    high = vals - low
    return np.stack([low, high], axis=1).reshape((-1,) + vals.shape)


def interpolation_audit(
    T: Callable[[np.ndarray], np.ndarray],
    p0: float,
    p: float,
    mu: WeightedMeasure,
    f_suite: Sequence[GridFunction],
    C0: float | None = None,
    C1: float | None = None,
) -> InterpolationReport:
    """Audit the interpolation statement: both hypotheses and conclusion.

    Hypotheses, over the suite closed under the truncation splits the
    proof uses:

        ||Tg||_{p0,inf} <= C0 ||g||_{p0,1}     and     ||Tg||_inf <= C1 ||g||_inf,

    conclusion, over the suite itself:

        ||Tf||_{p,1} <= 2^(1/p) (C0 (1/p0 - 1/p)^-1 + C1) ||f||_{p,1}.

    T maps a stack to a stack: it is called once, on the whole pool (each
    f followed by its splits) as one (B, *grid) array of cell values, and
    must return the B images as an array of the same shape; any other
    shape, or an image that is not finite, is rejected.  A sweep-based T
    such as m_rho_sigma_stack then costs one sweep per audit.  The pool
    stays one stack: each row's level table, and its image's, is built
    once and dropped with the row.

    When C0/C1 are not supplied they are measured as the maxima of the
    hypothesis ratios over the pool, which makes every check a theorem.
    Passing smaller constants (a negative control) must be reported: the
    measured maxima are attained, so an understated constant fails the
    hypothesis audit even when the conclusion retains slack.
    """
    if not (0 < p0 < p < math.inf):
        raise ValueError("need 0 < p0 < p < inf")
    domain = mu.domain
    # f's norms come off the table its splits are cut from: ||f||_{p0,1}
    # for the weak hypothesis, ||f||_{p,1} for the conclusion
    blocks, f_norms = [], {}
    offset = 0
    for f in f_suite:
        table = rearrangement(f, mu)
        f_norms[offset] = (table.lorentz_norm(p0, 1.0), table.lorentz_norm(p, 1.0))
        blocks.append(np.concatenate([f.values[None], _truncations(f, table)]))
        offset += len(blocks[-1])
    pool = np.concatenate(blocks) if blocks else np.zeros((0,) + domain.shape)
    del blocks  # copied into pool; freed before T runs
    # one T evaluation for the whole pool, shared by every check below
    images = np.asarray(T(pool), dtype=np.float64)
    if images.shape != pool.shape:
        raise ValueError(
            f"T must map the (B, *grid) pool of shape {pool.shape} to a stack "
            f"of the same shape, got shape {images.shape}"
        )
    if not np.all(np.isfinite(images)):
        raise ValueError("T returned non-finite values on the pool")
    # one level table per pool row and per image, none kept past its row
    weak_ratios = []
    f_images = []  # (||Tf||_{p,1}, ||f||_{p,1}) per f, in suite order
    for i, (g, Tg) in enumerate(zip(pool, images)):
        image_table = _level_table(domain, np.abs(Tg), mu)
        if i in f_norms:
            g_norm, f_norm = f_norms[i]
            f_images.append((image_table.lorentz_norm(p, 1.0), f_norm))
        else:
            g_norm = _level_table(domain, np.abs(g), mu).lorentz_norm(p0, 1.0)
        weak_ratios.append(_safe_ratio(image_table.weak_norm(p0), g_norm))
    grid_axes = tuple(range(1, pool.ndim))
    sup_ratios = [
        _safe_ratio(float(num), float(den))
        for num, den in zip(np.abs(images).max(grid_axes), np.abs(pool).max(grid_axes))
    ]
    if C0 is None:
        C0 = max(weak_ratios, default=0.0)
    if C1 is None:
        C1 = max(sup_ratios, default=0.0)
    hypothesis_violations = sum(1 for r in weak_ratios if r > C0 * (1 + 1e-12))
    hypothesis_violations += sum(1 for r in sup_ratios if r > C1 * (1 + 1e-12))
    hyp_max_ratio = max(
        _safe_ratio(max(weak_ratios, default=0.0), C0),
        _safe_ratio(max(sup_ratios, default=0.0), C1),
    )
    bound = 2.0 ** (1.0 / p) * (C0 / (1.0 / p0 - 1.0 / p) + C1)
    violations = 0
    max_ratio = 0.0
    for lhs, f_norm in f_images:
        rhs = bound * f_norm
        if rhs == 0.0:
            continue
        ratio = lhs / rhs
        max_ratio = max(max_ratio, ratio)
        if lhs > rhs * (1 + 1e-12):
            violations += 1
    return InterpolationReport(
        p0=p0,
        p=p,
        C0=float(C0),
        C1=float(C1),
        bound_constant=float(bound),
        violations=violations,
        hypothesis_violations=hypothesis_violations,
        max_ratio=float(max_ratio),
        hyp_max_ratio=float(hyp_max_ratio),
        checked=len(f_suite),
    )


def _safe_ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0
