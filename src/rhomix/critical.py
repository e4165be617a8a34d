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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import Domain, GridFunction

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
    by factor 1 instead, see growth_factor).
    """

    kind: str
    c: float | None = None
    fn: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)
    name: str | None = None
    potential: GridFunction | None = field(default=None, repr=False)

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


def shen_rho(V: GridFunction, x: np.ndarray, rel_tol: float = 1e-4) -> ShenResult:
    """sup { r > 0 : r^(2-d) * integral_{B(x,r)} V <= 1 } by bisection.

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
    lo = dom.cell_width / 16.0
    if not ok(lo):
        return ShenResult(lo, capped=True)
    while hi - lo > rel_tol * lo:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return ShenResult(0.5 * (lo + hi), capped=False)


def eval_rho(spec: RhoSpec, x: np.ndarray) -> float:
    """rho at one point; math.inf sentinel for CLASSICAL."""
    if spec.is_classical:
        return math.inf
    if spec.kind == CONSTANT:
        return float(spec.c)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if spec.kind == ANALYTIC:
        val = float(np.asarray(spec.fn(x.reshape(1, -1))).ravel()[0])
        if not (val > 0 and math.isfinite(val)):
            raise ValueError(f"analytic rho returned a non-positive value {val}")
        return val
    return shen_rho(spec.potential, x).value


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


def growth_factor(spec: RhoSpec, centers: np.ndarray, radius) -> np.ndarray:
    """(1 + r/rho(center)) per cube; identically 1 for CLASSICAL."""
    pts = np.atleast_2d(np.asarray(centers, dtype=float))
    if spec.is_classical:
        return np.ones(pts.shape[0])
    return 1.0 + np.asarray(radius, dtype=float) / rho_values(spec, pts)


# ---------------------------------------------------------------------------
# admissibility audit

@dataclass(frozen=True)
class AdmissibilityReport:
    C0: float
    N0: int
    max_violation: float
    worst_pair: tuple[tuple[float, ...], tuple[float, ...]] | None
    implied_C0_by_N0: dict[int, float]


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
        lower = rx * base ** (-float(n0)) / ry
        upper = ry / (rx * base ** (n0 / (n0 + 1.0)))
        req = np.maximum(lower, upper)
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
    and log N(sigma) ~ log C + N1 log sigma is fitted by least squares.
    """
    if spec.is_classical:
        raise ValueError("critical covering needs a finite rho (not CLASSICAL)")
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
