"""Critical radius functions and their admissibility / covering audits.

A critical radius function rho assigns a positive scale rho(x) to every
point; operators downstream suppress cubes that are large relative to that
scale through the factor (1 + r/rho)^exponent.  Admissible rho vary slowly:

    C0^-1 rho(x) (1 + |x-y|/rho(x))^-N0
        <= rho(y) <= C0 rho(x) (1 + |x-y|/rho(x))^(N0/(N0+1)).

Four variants are supported: CONSTANT, CLASSICAL (the factor is suppressed,
recovering the unweighted-by-scale theory), ANALYTIC (a vectorized closure),
and SHEN (derived from a nonnegative potential V on a dim-3 grid via
rho(x) = sup { r > 0 : r^(2-d) * integral of V over B(x, r) <= 1 }).

Each rho keeps one PenaltyTable per cube family, the one place cube
penalties are raised to a power (by the C library's pow through
np.float_power; the table holds its rho arrays and powers within
grid.PENALTY_BYTES), and its admissibility and covering reports.
"""

from __future__ import annotations

import functools
import inspect
import math
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import grid
from .grid import DYADIC_GRID_OF, Domain, GridFunction

__all__ = [
    "AdmissibilityReport",
    "CoveringReport",
    "RhoSpec",
    "ShenResult",
    "audit_admissibility",
    "critical_covering",
    "eval_rho",
    "growth_factor",
    "rho_values",
    "shen_rho",
]

CONSTANT = "constant"
CLASSICAL = "classical"
ANALYTIC = "analytic"
SHEN = "shen"

#: admissibility exponent ladder the audit searches over
N0_LADDER = (1, 2, 4, 8, 16)


@dataclass(frozen=True)
class RhoSpec:
    """One critical radius function.

    kind: "constant" | "classical" | "analytic" | "shen".
    CLASSICAL means the growth factor is identically 1; eval_rho returns the
    sentinel math.inf, which consumers must never divide by (they multiply
    by factor 1 instead, see PenaltyTable.power).
    """

    kind: str
    c: float | None = None
    fn: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)
    name: str | None = None
    potential: GridFunction | None = field(default=None, repr=False)
    # penalty tables by family and audits by arguments, outside eq/hash/repr
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind == CONSTANT:
            if self.c is None or not (self.c > 0 and math.isfinite(self.c)):
                raise ValueError("CONSTANT rho needs a positive finite c")
        elif self.kind == ANALYTIC:
            if not callable(self.fn):
                raise ValueError("ANALYTIC rho needs a closure")
        elif self.kind == SHEN:
            if self.potential is None or self.potential.domain.dim != 3:
                raise ValueError("SHEN rho needs a potential on a dim-3 domain")
            if np.any(self.potential.values < 0):
                raise ValueError("SHEN potential must be nonnegative")
        elif self.kind != CLASSICAL:
            raise ValueError(f"unknown rho kind {self.kind!r}")

    @property
    def is_classical(self) -> bool:
        return self.kind == CLASSICAL

    def _cached(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def penalty_table(self, family) -> "PenaltyTable":
        return self._cached(family, lambda: PenaltyTable(self, family))

    @classmethod
    def constant(cls, c: float) -> "RhoSpec":
        return cls(CONSTANT, c=c)

    @classmethod
    def classical(cls) -> "RhoSpec":
        return cls(CLASSICAL)

    @classmethod
    def analytic(cls, fn, name: str | None = None) -> "RhoSpec":
        return cls(ANALYTIC, fn=fn, name=name)

    @classmethod
    def shen(cls, potential: GridFunction) -> "RhoSpec":
        return cls(SHEN, potential=potential)


@dataclass(frozen=True)
class ShenResult:
    value: float
    capped: bool


def _ball_integral(V: GridFunction, x: np.ndarray, r: float) -> float:
    """Integral of V over B(x, r), cells weighted by approximate ball coverage.

    Boundary cells get a linear ramp in (r - dist)/cell_width, which removes
    most of the rasterization bias of a hard center-in-ball indicator and
    keeps the integral continuous and nondecreasing in r.
    """
    dom = V.domain
    ax = dom.axis_centers()
    d2 = (
        (ax[:, None, None] - x[0]) ** 2
        + (ax[None, :, None] - x[1]) ** 2
        + (ax[None, None, :] - x[2]) ** 2
    )
    cover = np.clip((r - np.sqrt(d2)) / dom.cell_width + 0.5, 0.0, 1.0)
    return float((V.values * cover).sum()) * dom.cell_volume


_SHEN_REL_TOL = 1e-4


def shen_rho(V: GridFunction, x: np.ndarray) -> ShenResult:
    """sup { r > 0 : r^(2-d) * integral_{B(x,r)} V <= 1 } by bisection,
    to a relative width of 1e-4.

    The map r -> r^(2-d) * integral is nondecreasing for nonnegative V at the
    scales resolved by the grid, so bisection on the predicate is sound.  If
    the predicate still holds at the box diagonal the radius is capped there.
    """
    dom = V.domain
    x = np.asarray(x, dtype=float)
    d = dom.dim

    def ok(r: float) -> bool:
        return r ** (2 - d) * _ball_integral(V, x, r) <= 1.0

    hi = math.sqrt(d) * dom.side
    if ok(hi):
        return ShenResult(hi, capped=True)
    floor = lo = dom.cell_width / 16.0
    # the coverage ramp gives x's own cell half its mass as r -> 0, so the
    # predicate can fail at the floor and hold at a larger radius: double
    # up to the first radius that passes, capped only when none does
    while not ok(lo):
        lo *= 2.0
        if lo >= hi:
            return ShenResult(floor, capped=True)
    while hi - lo > _SHEN_REL_TOL * lo:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return ShenResult(0.5 * (lo + hi), capped=False)


def rho_values(spec: RhoSpec, points: np.ndarray) -> np.ndarray:
    """Vectorized rho at an (m, dim) point array (inf for CLASSICAL)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if spec.is_classical:
        return np.full(pts.shape[0], math.inf)
    if spec.kind == CONSTANT:
        return np.full(pts.shape[0], float(spec.c))
    if spec.kind == ANALYTIC:
        vals = np.asarray(spec.fn(pts), dtype=float).reshape(pts.shape[0])
        if not np.all((vals > 0) & np.isfinite(vals)):
            raise ValueError("analytic rho returned non-positive values")
        return vals
    return np.array([shen_rho(spec.potential, p).value for p in pts])


def eval_rho(spec: RhoSpec, x: np.ndarray) -> float:
    """rho at one point, the one-point rho_values; math.inf for CLASSICAL."""
    return float(rho_values(spec, np.reshape(np.asarray(x, dtype=float), (1, -1)))[0])


def growth_factor(spec: RhoSpec, centers: np.ndarray, radius) -> np.ndarray:
    """(1 + r/rho(center)) per cube; identically 1 for CLASSICAL."""
    pts = np.atleast_2d(np.asarray(centers, dtype=float))
    if spec.is_classical:
        return np.ones(pts.shape[0])
    return 1.0 + np.asarray(radius, dtype=float) / rho_values(spec, pts)


def _libm_pow(base: np.ndarray, exponent: float, out=None) -> np.ndarray:
    """base ** exponent per element by the C library's pow, as Python's
    float pow computes it: np.float_power calls libm's pow per element,
    while numpy's SIMD power can differ from it in the last bit depending
    on the CPU.  As with Python's pow, a finite base whose power overflows
    raises OverflowError; an inf base gives what libm's pow gives.  The
    powers go to out when it is given.  A float exponent of 1 takes no
    pow: libm's pow(b, 1) is b, bit for bit."""
    base = np.asarray(base, dtype=np.float64)
    if isinstance(exponent, float) and exponent == 1.0:
        if out is None:
            return base
        np.copyto(out, base)
        return out
    with np.errstate(over="ignore", under="ignore"):
        out = np.float_power(base, exponent, out=out)
    over = np.isinf(out)
    if over.any() and np.isfinite(base[over]).any():
        raise OverflowError(f"a finite base raised to {exponent} overflows")
    return out


# the fold is built this many entries at a time, so each temporary stays
# within 64 KB at any level; timed at level 8, chunks of 256 KB took about
# half as long again, each temporary then a fresh mapping of pages
_FOLD_CHUNK = 1 << 13


def _penalty_base(rv: np.ndarray, r, ratio: bool) -> np.ndarray:
    """1 + r/rho, or with ratio rho/r capped at 1 (where r <= rho)."""
    return np.where(r <= rv, 1.0, rv / r) if ratio else 1.0 + r / rv


class PenaltyTable:
    """Cube penalties of one (rho, CubeFamily), served per sweep block:
    (k, W) arrays laid out as CubeFamily.sweep's avgs, whose padded
    entries carry no meaning.

    DYADIC_GRID_OF blocks are single sides, held per side.  On
    ALL_CELL_ALIGNED over a root of m cells, rho is kept at the 2m - 1
    half-cell points that are interval centers (2a + s half cells from the
    root's start), so a block's rho is one strided view.  Each exponent's
    powers fill one ((m + 1) // 2, m + 1) fold of the m(m + 1)/2
    intervals: row i holds side i + 1's intervals, then side m - i's (a
    copy of side i + 1's at the middle of an odd m).  A block of sides up
    to (m + 1) // 2 is rows of the fold read left to right, a block above
    it rows read right to left, each one strided view; sweep blocks never
    span the two.

    The rho arrays (the half-cell points, or one per tree side) and each
    exponent's powers are held, exponent 1 taking no pow (libm's pow(b, 1)
    is b).  The held arrays take at most grid.PENALTY_BYTES, the least
    recently used evicted first; a fold past an eighth of that is never
    held, each block's powers then raised as the block asks for them.
    """

    def __init__(self, rho: RhoSpec, family) -> None:
        # a weak reference: the rho owns the table
        self._rho, self.family = weakref.ref(rho), family
        # the held rho arrays and powers, least recently used first, and their bytes
        self._held, self._held_bytes = OrderedDict(), 0

    def _hold(self, key, build):
        """The held tuple under key, whose first array counts its bytes;
        a miss builds and holds it, then evicts the least recently used
        tuples past grid.PENALTY_BYTES, never the one just built."""
        held = self._held
        if key in held:
            held.move_to_end(key)
            return held[key]
        value = held[key] = build()
        self._held_bytes += value[0].nbytes
        while self._held_bytes > grid.PENALTY_BYTES and len(held) > 1:
            self._held_bytes -= held.popitem(last=False)[1][0].nbytes
        return value

    def _half_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """rho at the root's half-cell points t, at index t (t = 1..2m-1 are
        the interval centers; larger t, which padded block entries read,
        repeat rho at 2m - 1), and its (m + 1, m) view whose row i, entry a
        is rho at t = i + 2a."""
        def build():
            root = self.family.root
            span = root.side_cells
            t = np.arange(1, 2 * span)
            centers = (root.anchor[0] + t / 2.0) * self.family.domain.cell_width
            rv = rho_values(self._rho(), centers[:, None])
            rv = np.pad(rv, (1, span - 1), mode="edge")
            return rv, sliding_window_view(rv, 2 * span - 1)[:, ::2]

        return self._hold("half", build)

    def rho(self, sides) -> tuple[np.ndarray, np.ndarray]:
        """rho at the centers of a block's cubes, (k, W), and their radius,
        (k, 1)."""
        sides = np.asarray(sides)
        domain, s = self.family.domain, int(sides[0])
        h = domain.cell_width
        radius = math.sqrt(domain.dim) * sides[:, None] * h / 2.0
        if self.family.policy == DYADIC_GRID_OF:
            def build():
                return (rho_values(self._rho(), (self.family.anchors(s) + s / 2.0) * h),)

            return self._hold(s, build)[0][None, :], radius
        width = self.family.root.side_cells - s + 1
        return self._half_cells()[1][s : s + len(sides), :width], radius

    def power(self, sides, exponent: float, ratio: bool = False):
        """(1 + r/rho)^exponent per cube of a block of sides, or with ratio
        (rho/r)^exponent, 1 where r <= rho; 1.0 at exponent 0 or
        CLASSICAL."""
        if exponent == 0 or self._rho().is_classical:
            return 1.0
        sides = np.asarray(sides)
        exponent = float(exponent)
        s, k = int(sides[0]), len(sides)
        if self.family.policy == DYADIC_GRID_OF:
            def build():
                return (_libm_pow(_penalty_base(*self.rho(sides), ratio), exponent),)

            return self._hold((s, exponent, ratio), build)[0]
        span = self.family.root.side_cells
        fold_bytes = 8 * ((span + 1) // 2) * (span + 1)
        if (exponent, ratio) not in self._held and fold_bytes > grid.PENALTY_BYTES // 8:
            base = _penalty_base(*self.rho(sides), ratio)
            # padded entries get base 1, so only the block's cubes can overflow
            np.copyto(base, 1.0, where=self.family.padding(sides, base.shape[-1]))
            return _libm_pow(base, exponent)
        lower, upper = self._fold(exponent, ratio)
        width = span - s + 1
        if s <= (span + 1) // 2:
            return lower[s - 1 : s - 1 + k, :width]
        q = span + 1 - s
        return upper[q : q - k : -1, :width]

    def _fold(self, exponent: float, ratio: bool) -> tuple[np.ndarray, np.ndarray]:
        """One exponent's held powers on the fold, as two window views of
        it: lower[s - 1] starts side s's row for s <= (m + 1) // 2, and
        upper[m + 1 - s] for the sides above, whose row (m - (m + 1) // 2
        wide at most) runs on into the next fold row."""
        return self._hold((exponent, ratio), lambda: self._build_fold(exponent, ratio))[1:]

    def _build_fold(self, exponent: float, ratio: bool):
        """The flat fold and _fold's two views of it, built _FOLD_CHUNK
        entries at a time: fold row i, entry c is side i + 1 at anchor c,
        whose center is half-cell point 2c + i + 1, or from c = m - i on
        side m - i at anchor c - (m - i), whose center is 2c - (m - i);
        each chunk's penalty bases (_penalty_base) are raised to the
        exponent straight into the fold as they are made, so no fold-sized
        array but the fold itself is ever held."""
        span = self.family.root.side_cells
        half = (span + 1) // 2
        rv = self._half_cells()[0]
        h = self.family.domain.cell_width
        root_dim = math.sqrt(self.family.domain.dim)
        col2 = 2 * np.arange(span + 1)
        flat = np.empty(half * (span + 1))
        step = max(1, _FOLD_CHUNK // (span + 1))
        for top in range(0, half, step):
            row = np.arange(top, min(top + step, half))[:, None]
            upper = col2 >= 2 * (span - row)
            center = col2 + (row + 1)
            np.subtract(center, span + 1, out=center, where=upper)
            radius = np.where(
                upper, root_dim * (span - row) * h / 2.0, root_dim * (row + 1) * h / 2.0
            )
            base = _penalty_base(rv[center], radius, ratio)
            out = flat[top * (span + 1) : (top + len(row)) * (span + 1)]
            _libm_pow(base, exponent, out=out.reshape(base.shape))
        lower = sliding_window_view(flat, span)[:: span + 1]
        upper = sliding_window_view(flat, max(span - half, 1))[::span]
        return flat, lower, upper


def _kept_on_rho(fn):
    """Run an audit once per distinct arguments and keep its report on the
    rho (the first argument); callers must not modify the report."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def kept(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        spec, *rest = bound.arguments.values()
        key = (fn.__name__, *(tuple(v) if isinstance(v, list) else v for v in rest))
        return spec._cached(key, lambda: fn(*args, **kwargs))

    return kept


# ---------------------------------------------------------------------------
# admissibility audit

@dataclass(frozen=True)
class AdmissibilityReport:
    C0: float
    N0: int
    max_violation: float
    worst_pair: tuple[tuple[float, ...], tuple[float, ...]] | None
    implied_C0_by_N0: dict[int, float]


def _required_C0(rx: np.ndarray, ry: np.ndarray, base: np.ndarray, n0: int):
    """Per pair, the least C0 making both slow-variation bounds hold at
    exponent n0, with base = 1 + |x - y|/rho(x)."""
    lower = rx * _libm_pow(base, -float(n0)) / ry
    upper = ry / (rx * _libm_pow(base, n0 / (n0 + 1.0)))
    return np.maximum(lower, upper)


@_kept_on_rho
def audit_admissibility(
    spec: RhoSpec,
    domain: Domain,
    pair_sample_size: int = 10_000,
    seed: int = 0,
) -> AdmissibilityReport:
    """Smallest (C0, N0) on the ladder making both slow-variation bounds hold
    over a seeded sample of cell-center pairs.

    By construction the report has max_violation = 0 for the returned pair;
    CLASSICAL is admissible with C0 = 1 trivially.
    """
    if pair_sample_size < 1:
        raise ValueError(f"pair_sample_size must be at least 1, got {pair_sample_size}")
    if spec.is_classical:
        return AdmissibilityReport(1.0, N0_LADDER[0], 0.0, None, {})
    rng = np.random.default_rng(seed)
    n = domain.n
    xs = rng.integers(0, n, size=(pair_sample_size, domain.dim))
    ys = rng.integers(0, n, size=(pair_sample_size, domain.dim))
    h = domain.cell_width
    px = (xs + 0.5) * h
    py = (ys + 0.5) * h
    rx = rho_values(spec, px)
    ry = rho_values(spec, py)
    dist = np.linalg.norm(px - py, axis=1)
    base = 1.0 + dist / rx

    implied: dict[int, float] = {}
    witnesses: dict[int, int] = {}
    for n0 in N0_LADDER:
        req = _required_C0(rx, ry, base, n0)
        idx = int(np.argmax(req))
        implied[n0] = max(1.0, float(req[idx]))
        witnesses[n0] = idx
    best_n0 = min(implied, key=lambda k: (implied[k], k))
    wi = witnesses[best_n0]
    return AdmissibilityReport(
        C0=implied[best_n0],
        N0=best_n0,
        max_violation=0.0,
        worst_pair=(tuple(px[wi]), tuple(py[wi])),
        implied_C0_by_N0=implied,
    )


# ---------------------------------------------------------------------------
# critical covering

@dataclass(frozen=True)
class CoveringReport:
    centers: np.ndarray            # (m, dim) selected cube centers
    radii: np.ndarray              # (m,) rho at the centers
    overlap: dict[float, int]      # sigma -> max overlap count N(sigma)
    N1: float                      # fitted growth exponent of N(sigma)
    C_fit: float
    fit_residual: float
    capped: bool

    @property
    def cube_count(self) -> int:
        return int(self.centers.shape[0])


@_kept_on_rho
def critical_covering(
    spec: RhoSpec,
    domain: Domain,
    sigmas: tuple[float, ...] = (1.0, 2.0, 4.0),
) -> CoveringReport:
    """Greedy cover of the box by critical cubes Q(x_j, rho(x_j)).

    Scan cell centers in lexicographic order; each first uncovered center
    contributes the cube centered there with radius rho.  A center y counts
    as covered by Q(x, rho) when |y - x|_inf <= rho/sqrt(dim) (the cube of
    half-diagonal rho).  Overlap N(sigma) is the max over cell centers of
    the number of sigma-dilates containing it, dilates clipped to the box,
    and log N(sigma) ~ log C + N1 log sigma is fitted by least squares,
    which needs at least two distinct sigmas, each positive and finite.
    """
    if spec.is_classical:
        raise ValueError("critical covering needs a finite rho (not CLASSICAL)")
    if not all(0 < s < math.inf for s in sigmas) or len(set(sigmas)) < 2:
        raise ValueError(
            "critical covering needs at least two distinct sigmas, each "
            f"positive and finite, got {tuple(sigmas)}"
        )
    pts = domain.cell_centers()
    m = pts.shape[0]
    covered = np.zeros(m, dtype=bool)
    counts = np.zeros((len(sigmas), m), dtype=np.int64)
    diag_cap = math.sqrt(domain.dim) * domain.side
    centers: list[np.ndarray] = []
    radii: list[float] = []
    capped = False
    slack = 1.0 + 1e-12  # FP guard so boundary centers count as covered
    while not covered.all():
        i = int(np.argmax(~covered))
        x = pts[i]
        r = eval_rho(spec, x)
        if r > diag_cap:
            r = diag_cap
            capped = True
        dist = np.max(np.abs(pts - x), axis=1)
        covered |= dist <= (r / math.sqrt(domain.dim)) * slack
        covered[i] = True  # a sub-cell radius still covers its own cell
        for row, s in zip(counts, sigmas):
            row += dist <= (s * r / math.sqrt(domain.dim)) * slack
        centers.append(x)
        radii.append(r)
    cen = np.array(centers)
    rad = np.array(radii)
    for kept in (cen, rad):  # the report is shared by every caller
        kept.setflags(write=False)
    overlap = {float(s): int(row.max()) for row, s in zip(counts, sigmas)}

    logs = np.log(np.asarray(sigmas, dtype=float))
    logn = np.log(np.array([overlap[float(s)] for s in sigmas], dtype=float))
    n1, logc = np.polyfit(logs, logn, 1)
    fitted = np.exp(logc) * np.asarray(sigmas, dtype=float) ** n1
    measured = np.array([overlap[float(s)] for s in sigmas], dtype=float)
    residual = float(np.max(np.abs(fitted - measured) / measured))
    return CoveringReport(
        centers=cen,
        radii=rad,
        overlap=overlap,
        N1=float(n1),
        C_fit=float(np.exp(logc)),
        fit_residual=residual,
        capped=capped,
    )
