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

The tables of a (B, N) stack of rows come from one builder: the default
sort along the rows, the stable re-sort only of the rows with a positive
tie, one running sum along the rows, each row's steps compacted into flat
arrays.  A row's sort, running sum and steps are its own table's floats,
and a single table is the one-row stack.  interpolation_audit builds the
stacked tables of its pool and of the images one chunk of rows at a time
and reads their norms there: the weak norms as row maxima (max is exact),
the L^{p,1} norms as one pairwise sum per row over the row's own steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import grid
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
        return float(np.sum(_pieces(v, m, prev, p, q)) ** (1.0 / q))

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
    """Level-set table of a nonnegative cell array against mu: the one-row
    stack of _level_tables."""
    if domain != mu.domain:
        raise DomainMismatchError("function and measure on different domains")
    return _level_tables(level.reshape(1, -1), mu).row(0)


@dataclass(frozen=True)
class _LevelTables:
    """The level-set tables of the rows of a (B, N) stack, their steps
    compacted into flat arrays: row r's values and masses are
    values[bounds[r]:bounds[r + 1]] and masses[same], its domain mass and
    peak domain_mass[r] and peak[r]."""

    values: np.ndarray
    masses: np.ndarray
    bounds: np.ndarray
    domain_mass: np.ndarray
    peak: np.ndarray

    def row(self, r: int) -> RearrangementTable:
        at = slice(self.bounds[r], self.bounds[r + 1])
        return RearrangementTable(
            self.values[at], self.masses[at],
            float(self.domain_mass[r]), float(self.peak[r]),
        )

    def weak_norms(self, p: float) -> np.ndarray:
        """Every row's ||.||_{L^{p,inf}}, finite p: the row maxima of
        RearrangementTable.lorentz_norm's v m^(1/p), max being exact."""
        out = np.zeros(self.bounds.size - 1)
        full = np.diff(self.bounds) > 0
        if full.any():
            out[full] = np.maximum.reduceat(
                self.values * self.masses ** (1.0 / p), self.bounds[:-1][full]
            )
        return out

    def lorentz_norms(self, p: float, q: float, rows) -> list[float]:
        """||.||_{L^{p,q}} of the given rows, finite p and q: each row's sum
        over its own steps, the 1-D pairwise sum np.sum takes in
        RearrangementTable.lorentz_norm over the same pieces, so the same
        floats."""
        prev = np.empty_like(self.masses)
        prev[1:] = self.masses[:-1]
        prev[self.bounds[:-1][np.diff(self.bounds) > 0]] = 0.0
        pieces = _pieces(self.values, self.masses, prev, p, q)
        bounds = self.bounds.tolist()
        return [
            float(np.add.reduce(pieces[bounds[r] : bounds[r + 1]]) ** (1.0 / q))
            for r in rows
        ]


def _pieces(v, m, prev, p: float, q: float) -> np.ndarray:
    """The L^{p,q} integral of each step: v^q (p/q)(m^{q/p} - prev^{q/p})."""
    return v**q * (p / q) * (m ** (q / p) - prev ** (q / p))


def _level_tables(level: np.ndarray, mu: WeightedMeasure) -> _LevelTables:
    """Level-set tables of the rows of a (B, N) nonnegative stack against
    mu: per row, one running sum of the density in the row's descending
    order, read at the last cell of each positive tie group and scaled by
    the cell volume; a step whose mass does not grow (mu-null cells) is
    dropped."""
    order, keys = _descending(level)
    cum = mu.density.values.ravel()[order]
    del order
    np.cumsum(cum, axis=1, out=cum)
    vol = mu.domain.cell_volume
    # the last cell of each positive tie group: its key beats the next one
    last = np.empty(keys.shape, dtype=bool)
    np.greater(keys[:, :-1], keys[:, 1:], out=last[:, :-1])
    np.greater(keys[:, -1], 0.0, out=last[:, -1])
    # the steps row after row; a step is kept when its mass beats the one
    # before it in its row (0.0 before a row's first)
    steps = last.sum(axis=1)
    starts = np.concatenate(([0], np.cumsum(steps)))
    masses = cum[last] * vol
    keep = np.empty(masses.size, dtype=bool)
    np.greater(masses[1:], masses[:-1], out=keep[1:])
    first = starts[:-1][steps > 0]
    keep[first] = masses[first] > 0
    return _LevelTables(
        keys[last][keep], masses[keep], np.searchsorted(np.flatnonzero(keep), starts),
        cum[:, -1] * vol, keys[:, 0],
    )


def _descending(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable argsort of -a along the last axis, for a finite,
    nonnegative a of one row (N,) or a stack (B, N) of rows, and a in that
    order.

    Distinct keys have one descending order, which numpy's default sort
    finds several times faster than the stable merge sort; only tied keys
    can leave memory order.  So the default sort runs first, and the
    stable sort again only on the rows where two positive keys tie.  The
    zero cells (0.0 and -0.0 alike) always tie and sort after every
    positive cell; the stable order lists them in memory order, and so
    they are put back in it directly.
    """
    rows = a.reshape(-1, a.shape[-1])
    neg = -rows
    order = np.argsort(neg, axis=-1)
    flat = rows.ravel()
    # each row's cells as indices into the flat stack
    keys = flat[order + np.arange(0, rows.size, rows.shape[1])[:, None]]
    tied = keys[:, 1:] == keys[:, :-1]
    tied &= keys[:, 1:] > 0
    tied = tied.any(axis=-1)
    if tied.any():
        order[tied] = np.argsort(neg[tied], axis=-1, kind="stable")
    if not (keys[:, -1] > 0).all():  # the zeros sort last
        # the zero slots of each row, filled row by row with its zero cells
        # in memory order, signs and all
        zero = np.flatnonzero(rows == 0)
        slots = np.flatnonzero(keys == 0)
        order.reshape(-1)[slots] = zero % rows.shape[1]
        keys.reshape(-1)[slots] = flat[zero]
    return order.reshape(a.shape), keys.reshape(a.shape)


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


def _truncations(vals: np.ndarray, steps: np.ndarray, out: np.ndarray) -> None:
    """Write the distinct splits f = f_t + f^t at the K steps of f's table
    into out, a (2K, *grid) view: f_t then f^t for each step."""
    below = np.abs(vals) <= steps.reshape((-1,) + (1,) * vals.ndim)
    low, high = out[0::2], out[1::2]
    low[...] = 0.0
    np.copyto(low, vals, where=below)
    np.subtract(vals, low, out=high)


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
    such as m_rho_sigma_stack then costs one sweep per audit.  The level
    tables of the pool and of its images are built as stacks, one chunk of
    rows at a time with rows x cells <= grid.BLOCK_ELEMENTS, and dropped
    with the chunk; the sup norms are the tables' peaks.

    When C0/C1 are not supplied they are measured as the maxima of the
    hypothesis ratios over the pool members of positive norm, which makes
    every check a theorem.  Passing smaller constants (a negative control)
    must be reported: the measured maxima are attained, so an understated
    constant fails the hypothesis audit even when the conclusion retains
    slack.  A member of norm 0 with a nonzero image fails that hypothesis
    for every constant, and an f of norm 0 with a nonzero image fails the
    conclusion; each counts as a violation and makes its max ratio inf.
    """
    if not (0 < p0 < p < math.inf):
        raise ValueError("need 0 < p0 < p < inf")
    domain = mu.domain
    cells = math.prod(domain.shape)
    # f's steps cut its splits; the pool is filled in place, f then its
    # 2K splits per f
    steps = [rearrangement(f, mu).values for f in f_suite]
    f_rows = np.cumsum([0] + [1 + 2 * s.size for s in steps])
    pool = np.empty((int(f_rows[-1]),) + domain.shape)
    for f, s, at in zip(f_suite, steps, f_rows):
        pool[at] = f.values
        _truncations(f.values, s, pool[at + 1 : at + 1 + 2 * s.size])
    # one T evaluation for the whole pool, shared by every check below
    images = np.asarray(T(pool), dtype=np.float64)
    if images.shape != pool.shape:
        raise ValueError(
            f"T must map the (B, *grid) pool of shape {pool.shape} to a stack "
            f"of the same shape, got shape {images.shape}"
        )
    # per member: ||g||_{p0,1}, ||Tg||_{p0,inf}, ||g||_inf and ||Tg||_inf;
    # per f: (||Tf||_{p,1}, ||f||_{p,1})
    g_norm, weak, g_sup, image_sup = (np.empty(len(pool)) for _ in range(4))
    f_images = []
    chunk = max(1, grid.BLOCK_ELEMENTS // cells)
    for c0 in range(0, len(pool), chunk):
        at = slice(c0, c0 + chunk)
        fs = [int(i) - c0 for i in f_rows[:-1] if c0 <= i < c0 + chunk]
        g_norm[at], weak[at], g_sup[at], image_sup[at], pairs = _chunk_norms(
            pool[at], images[at], mu, p0, p, fs
        )
        f_images += pairs
    weak_ratios = _ratios(weak, g_norm)
    sup_ratios = _ratios(image_sup, g_sup)
    if C0 is None:
        C0 = float(np.max(weak_ratios, initial=0.0, where=g_norm > 0))
    if C1 is None:
        C1 = float(np.max(sup_ratios, initial=0.0, where=g_sup > 0))
    hypothesis_violations = int(np.count_nonzero(weak_ratios > C0 * (1 + 1e-12)))
    hypothesis_violations += int(np.count_nonzero(sup_ratios > C1 * (1 + 1e-12)))
    hyp_max_ratio = max(
        _safe_ratio(float(np.max(weak_ratios, initial=0.0)), C0),
        _safe_ratio(float(np.max(sup_ratios, initial=0.0)), C1),
    )
    bound = 2.0 ** (1.0 / p) * (C0 / (1.0 / p0 - 1.0 / p) + C1)
    violations = 0
    max_ratio = 0.0
    for lhs, f_norm in f_images:
        rhs = bound * f_norm
        if f_norm == 0.0 and lhs > 0.0:
            violations += 1
            max_ratio = math.inf
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


def _chunk_norms(rows, images, mu: WeightedMeasure, p0: float, p: float, fs):
    """One chunk of the pool's rows and their images, read off one stacked
    table of each (gone on return): per row ||g||_{p0,1}, ||Tg||_{p0,inf},
    ||g||_inf and ||Tg||_inf (the tables' peaks), and (||Tf||_{p,1},
    ||f||_{p,1}) for each f row of fs."""
    level = np.abs(images).reshape(len(images), -1)
    if not np.isfinite(level).all():
        raise ValueError("T returned non-finite values on the pool")
    image_tables = _level_tables(level, mu)
    del level
    g_tables = _level_tables(np.abs(rows).reshape(len(rows), -1), mu)
    return (
        g_tables.lorentz_norms(p0, 1.0, range(len(rows))),
        image_tables.weak_norms(p0),
        g_tables.peak,
        image_tables.peak,
        list(zip(image_tables.lorentz_norms(p, 1.0, fs), g_tables.lorentz_norms(p, 1.0, fs))),
    )


def _ratios(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den per member: 0 where num is 0 too, inf where only den is."""
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den > 0)
    out[(den == 0) & (num > 0)] = math.inf
    return out


def _safe_ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0
