"""Auxiliary operator, iteration algorithm, and singular-operator checks.

The auxiliary operator S f = M[sigma](f u) / u inherits sublinearity and
monotonicity from the maximal operator, and is bounded on sup norms by u's
A_1-type characteristic once sigma dominates u's growth exponent.  The
iteration R h = sum_k S^k h / (2 K0)^k then produces a majorant whose
product with u is again an A_1-type weight with characteristic close to
2 K0; every one of those properties is audited numerically here, alongside
synthetic singular kernels with the size/smoothness/decay structure the
comparison theorems ask for.

The iteration is built from one fixed maximal operator, so every operator
here sweeps the default cube family of its domain (maximal.default_family)
and none takes a family.

A singular kernel that depends on x - y alone (no decay, N = 0, or a
classical rho) is applied by one real FFT convolution, O(m log m) on m
cells; it matches the dense quadrature to 1e-13 relative to max |Tf|, not
bit for bit.  The damped kernel, N > 0 with a non-classical rho, is not a
convolution and keeps the blocked dense quadrature, which also serves the
tests as the oracle for the FFT path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .critical import RhoSpec, rho_values
from .grid import (
    Domain, GridFunction, SumOverflowError, integrate, require_same_domain, require_weight,
)
from .lorentz import WeightedMeasure, lorentz_norm, rearrangement, weak_norm
from .maximal import default_family, m_rho_sigma, m_rho_sigma_stack
from .weights import (
    THETA_LADDER, _ainf_epsilon, ap_characteristic, ap_ladder, characteristics,
)

__all__ = [
    "CoifmanReport",
    "K0TooSmallError",
    "KernelConditionReport",
    "MixedTReport",
    "RdFAuditReport",
    "RdFState",
    "SCZOKernel",
    "audit_kernel_conditions",
    "coifman_check",
    "estimate_K0",
    "ladder_exponent",
    "mixed_for_T",
    "rdf_audit",
    "rdf_iterate",
    "s_operator",
    "sczo_apply",
]


class K0TooSmallError(RuntimeError):
    """Partial sums of the iteration stopped decaying."""

    def __init__(self, growth: float):
        super().__init__(
            f"iteration terms grow by factor {growth:.3g}; raise K0"
        )
        self.growth = growth


# ---------------------------------------------------------------------------
# the auxiliary operator

def _first_stable(ladder: tuple[float, ...], chars) -> float:
    """First ladder value whose characteristic (chars, in ladder order) has
    stabilized: within 25% of the floor, the characteristic at the last,
    most forgiving value (which is returned when no earlier one qualifies)."""
    floor_val = chars[-1]
    return next(
        (x for x, c in zip(ladder, chars) if c <= 1.25 * floor_val), ladder[-1]
    )


def ladder_exponent(u: GridFunction, rho: RhoSpec) -> float:
    """Smallest growth exponent on the standard ladder at which u's
    A_1-type characteristic has stabilized (within 25% of the floor); the
    whole ladder comes from one sweep of the default family of u's
    domain."""
    if rho.is_classical:
        return 0.0
    chars = ap_ladder(u, 1.0, THETA_LADDER, rho, default_family(u.domain))
    return _first_stable(THETA_LADDER, [c.value for c in chars])


def s_operator(
    f: GridFunction,
    u: GridFunction,
    rho: RhoSpec,
    sigma: float,
) -> GridFunction:
    """Sf = M[sigma](f u) / u, cellwise, M[sigma] swept over the default
    cube family of u's domain.

    Sup norms contract by u's characteristic: with theta1 the stabilized
    ladder exponent of u and sigma >= theta1, every cube average of |f| u
    is at most sup|f| [u] factor^theta1 u(x), so the penalized sup obeys
    sup(Sf) <= [u] sup|f|.  Callers wanting the sigma check should compare
    against ladder_exponent first; the operator itself computes for any
    sigma >= 0.  f must live on u's domain.
    """
    require_same_domain(f, u)
    return GridFunction(f.domain, _s_stack(f.values[None], u, rho, sigma)[0])


def _s_stack(values, u, rho, sigma) -> np.ndarray:
    """S of each function of a (B, *grid) stack, from one sweep."""
    require_weight(u)
    fam = default_family(u.domain)
    return m_rho_sigma_stack(values * u.values, rho, sigma, 1.0, fam) / u.values


# ---------------------------------------------------------------------------
# the iteration

@dataclass(frozen=True)
class RdFState:
    """Operator-norm surrogate and the exponents behind it; the iteration's
    geometric-tail certificate is rdf_audit's (RdFAuditReport.tail_bound)."""

    K0: float
    p0: float
    q: float
    t: float                   # ladder exponent backing p0
    eps: float                 # flatness exponent backing p0
    measured_sup: float        # sup of Lorentz-norm ratios before the 1.5 factor
    suite_size: int


T_LADDER = (1.25, 1.5, 2.0, 4.0, 8.0)


def estimate_K0(
    u: GridFunction,
    v: GridFunction,
    rho: RhoSpec,
    sigma: float,
    f_suite: list[GridFunction],
) -> RdFState:
    """Measured Lorentz operator norm of S on L^(q,1)(uv), q = 2 p0, with
    safety 1.5; every sweep runs over the default cube family of the domain,
    which v and every f of the suite must share with u.

    p0 = 1 + 2(t - 1)/eps comes from v's measured ladder: t is the smallest
    dual exponent of T_LADDER whose characteristic has stabilized, eps v's
    A_infty flatness exponent at the ladder's theta, from
    weights.ainf_epsilon (in dims 1 and 2 its RH_infty bound, the pack fit
    only when that bound cannot decide it; in dim 3 the fit).  Every rung
    of the dual ladder and the RH_infty bound are read off one sweep of v,
    after ladder_exponent's.  S runs once, over the whole suite in one
    sweep.
    """
    if not f_suite:
        raise ValueError("empty suite")
    require_same_domain(u, v, *f_suite)
    fam = default_family(u.domain)
    theta = ladder_exponent(v, rho)
    # the dual ladder and ainf_epsilon's RH_infty bound off one sweep of v
    rungs = [("ap", tt, theta) for tt in T_LADDER] + [("rh", math.inf, theta)]
    *ladder, rh_inf = characteristics(v, rungs, rho, fam)
    t = _first_stable(T_LADDER, [c.value for c in ladder])
    eps = _ainf_epsilon(v, theta, rho, fam, rh_inf.value)
    p0 = 1.0 + 2.0 * (t - 1.0) / eps
    q = 2.0 * p0
    uv = WeightedMeasure(GridFunction(u.domain, u.values * v.values))
    live = [(f, d) for f in f_suite if (d := lorentz_norm(f, uv, q, 1.0)) != 0.0]
    if not live:
        raise ValueError("suite contains only null functions")
    images = _s_stack(np.stack([f.values for f, _ in live]), u, rho, sigma)
    measured = max(
        lorentz_norm(GridFunction(f.domain, sf), uv, q, 1.0) / denom
        for (f, denom), sf in zip(live, images)
    )
    if measured == 0.0:
        raise ValueError("suite contains only null functions")
    return RdFState(
        K0=float(1.5 * measured),
        p0=float(p0),
        q=float(q),
        t=float(t),
        eps=float(eps),
        measured_sup=float(measured),
        suite_size=len(f_suite),
    )


def _iterate(h, u, rho, sigma, K0, depth) -> tuple[GridFunction, GridFunction]:
    """(Rh, S^depth h), validated and growth-checked as rdf_iterate says."""
    if np.any(h.values < 0):
        raise ValueError("iteration needs h >= 0")
    if not (K0 > 0 and depth >= 1):
        raise ValueError("need K0 > 0 and depth >= 1")
    total = h.values.copy()
    term = h
    first_sup = float(h.values.max())
    scale = 1.0
    last_sup = first_sup
    for k in range(1, depth + 1):
        term = s_operator(term, u, rho, sigma)
        scale /= 2.0 * K0
        with np.errstate(over="ignore", invalid="ignore"):
            total += term.values * scale
        if not np.isfinite(total).all():
            raise SumOverflowError(
                f"the majorant sum leaves the float range at depth {k} of "
                f"{depth}: (2 K0)^-k or the running sum passes the largest "
                f"float, with K0 = {K0!r}"
            )
        last_sup = float(term.values.max()) * scale
    if first_sup > 0 and last_sup > first_sup:
        raise K0TooSmallError((last_sup / first_sup) ** (1.0 / depth))
    return GridFunction(h.domain, total), term


def rdf_iterate(
    h: GridFunction,
    u: GridFunction,
    rho: RhoSpec,
    sigma: float,
    K0: float,
    depth: int,
) -> GridFunction:
    """Truncated majorant sum_{k<=depth} S^k h / (2 K0)^k.

    The k = 0 term makes h <= Rh exact.  Raises K0TooSmallError when the
    scaled terms grow from first to last (the geometric certificate is
    then worthless).
    """
    return _iterate(h, u, rho, sigma, K0, depth)[0]


_CHAR_SLACK = 1.1


@dataclass(frozen=True)
class RdFAuditReport:
    minorant_exact: bool           # h <= Rh cellwise with zero tolerance
    sandwich_violations: int       # cells with S(Rh) > 2 K0 Rh + tail_bound
    tail_bound: float
    char_value: float              # [(Rh) u] at growth exponent sigma
    char_bound: float              # 2 K0 * slack
    char_ok: bool
    depth: int
    K0: float
    # the audited majorant Rh, kept for callers that save it, never serialized
    majorant: GridFunction | None = field(default=None, repr=False, compare=False)


def rdf_audit(
    h: GridFunction,
    u: GridFunction,
    rho: RhoSpec,
    sigma: float,
    K0: float,
    depth: int,
) -> RdFAuditReport:
    """The three properties of the majorant, measured.

    h <= Rh must be exact (term k = 0).  S(Rh) <= 2 K0 Rh holds up to the
    geometric tail dropped by truncation, certified by tail_bound.  The
    product (Rh) u has A_1-type characteristic at growth exponent sigma at
    most 2 K0 up to a slack of 1.1: every cube average of (Rh) u is a
    penalized average of a sum the operator itself dominates.  The report
    carries Rh itself as majorant.  S and the characteristic run over the
    default cube family of the domain.
    """
    rh, term = _iterate(h, u, rho, sigma, K0, depth)
    minorant = bool(np.all(h.values <= rh.values))
    tail_bound = 2.0 * float(term.values.max()) / (2.0 * K0) ** depth

    srh = s_operator(rh, u, rho, sigma)
    lhs = srh.values
    rhs = 2.0 * K0 * rh.values + tail_bound
    sandwich = int(np.sum(lhs > rhs * (1.0 + 1e-12)))

    rhu = GridFunction(h.domain, rh.values * u.values)
    char = ap_characteristic(rhu, 1.0, sigma, rho, default_family(h.domain)).value
    bound = 2.0 * K0 * _CHAR_SLACK
    return RdFAuditReport(
        minorant_exact=minorant,
        sandwich_violations=sandwich,
        tail_bound=float(tail_bound),
        char_value=float(char),
        char_bound=float(bound),
        char_ok=char <= bound,
        depth=depth,
        K0=float(K0),
        majorant=rh,
    )


# ---------------------------------------------------------------------------
# synthetic singular kernels

_PROFILES = {"odd_inverse": 1, "riesz_x": 2}


@dataclass(frozen=True)
class SCZOKernel:
    """Odd singular kernel with critical-radius decay.

    profile "odd_inverse" (dim 1): sign(x - y) / |x - y|.
    profile "riesz_x"   (dim 2): (x1 - y1) / |x - y|^3.
    The kernel value is the profile damped by (1 + |x - y|/rho(x))^(-N);
    the singular cell is excluded by the quadrature (odd cancellation).
    """

    profile: str
    N: float = 0.0
    delta: float = 1.0
    rho: RhoSpec = RhoSpec.classical()

    def __post_init__(self) -> None:
        if self.profile not in _PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}")
        if not (self.N >= 0):
            raise ValueError(f"decay exponent N must be >= 0, got {self.N}")
        if not (0 < self.delta <= 1):
            raise ValueError("smoothness exponent delta must lie in (0, 1]")

    @property
    def dim(self) -> int:
        return _PROFILES[self.profile]

    @property
    def translation_invariant(self) -> bool:
        """K(x, y) depends on x - y alone: the damping factor is identically
        1 when N = 0 or rho is classical."""
        return self.N == 0 or self.rho.is_classical

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """K at broadcast pairs of points; the diagonal comes out 0."""
        z = x - y
        dist = np.sqrt(np.sum(z * z, axis=-1))
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.profile == "odd_inverse":
                core = np.where(dist > 0, np.sign(z[..., 0]) / dist, 0.0)
            else:
                core = np.where(dist > 0, z[..., 0] / dist**3, 0.0)
        if not self.translation_invariant:
            xarr = np.asarray(x, dtype=float)
            lead = xarr.shape[:-1]
            rx = rho_values(self.rho, xarr.reshape(-1, xarr.shape[-1])).reshape(lead)
            core = core * (1.0 + dist / rx) ** (-self.N)
        return core


def sczo_apply(f: GridFunction, kernel: SCZOKernel) -> GridFunction:
    """Tf(x) = sum over cells y != x of K(x, y) f(y) h^dim.

    A translation-invariant kernel is sampled once on the offset lattice
    (-(n-1)..n-1)^dim h, where the diagonal offset reads 0, and applied as
    one real FFT convolution of circular length 2n per axis (any length
    >= 2n - 1 avoids wrap-around).  The result agrees with the dense
    quadrature to 1e-13 relative to max |Tf|; only the summation order
    differs.  A damped kernel takes the dense quadrature.
    """
    domain = f.domain
    if domain.dim != kernel.dim:
        raise ValueError(
            f"kernel profile is {kernel.dim}-dimensional, domain is {domain.dim}"
        )
    if not kernel.translation_invariant:
        return _sczo_dense(f, kernel)
    n, dim = domain.n, domain.dim
    axis = np.arange(1 - n, n) * domain.cell_width
    offsets = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1)
    kv = kernel.evaluate(offsets, np.zeros(dim))
    length, axes = (2 * n,) * dim, tuple(range(dim))
    spectrum = np.fft.rfftn(kv, length, axes) * np.fft.rfftn(f.values, length, axes)
    full = np.fft.irfftn(spectrum, length, axes)
    # entry i + (n - 1) of the linear convolution is sum_j K(i - j) f(j)
    out = full[(slice(n - 1, 2 * n - 1),) * dim] * domain.cell_volume
    return GridFunction(domain, out)


def _sczo_dense(f: GridFunction, kernel: SCZOKernel) -> GridFunction:
    """Blocked dense quadrature over every (x, y) pair of cells: the path
    of the damped kernel and the oracle for the FFT path."""
    domain = f.domain
    pts = domain.cell_centers()
    fv = f.values.ravel()
    m = pts.shape[0]
    out = np.empty(m)
    block = max(1, min(m, 8_000_000 // max(m, 1)))
    for start in range(0, m, block):
        stop = min(start + block, m)
        kv = kernel.evaluate(pts[start:stop, None, :], pts[None, :, :])
        out[start:stop] = kv @ fv
    out *= domain.cell_volume
    return GridFunction(domain, out.reshape(domain.shape))


@dataclass(frozen=True)
class KernelConditionReport:
    C_size: float
    N: float
    C_smooth: float
    delta: float
    worst_size: tuple[np.ndarray, np.ndarray] | None
    worst_smooth: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    pairs: int
    triples: int


def audit_kernel_conditions(
    kernel: SCZOKernel,
    domain: Domain,
    sample_size: int = 2000,
    seed: int = 0,
) -> KernelConditionReport:
    """Measured size and smoothness constants over random samples.

    Size: C = max |K(x,y)| |x-y|^dim (1 + |x-y|/rho(x))^N.
    Smoothness: C = max |K(x,y) - K(x,y0)| |x-y|^(dim+delta) / |y-y0|^delta
    over triples with |x - y| > 2 |y - y0|.
    """
    if sample_size < 1:
        raise ValueError(f"sample_size must be at least 1, got {sample_size}")
    if domain.dim != kernel.dim:
        raise ValueError(
            f"kernel profile is {kernel.dim}-dimensional, domain is {domain.dim}"
        )
    rng = np.random.default_rng(seed)
    dim = kernel.dim
    x = rng.uniform(0, domain.side, size=(sample_size, dim))
    y = rng.uniform(0, domain.side, size=(sample_size, dim))
    dist = np.linalg.norm(x - y, axis=-1)
    keep = dist > 0
    x, y, dist = x[keep], y[keep], dist[keep]
    kv = np.abs(kernel.evaluate(x, y))
    if kernel.translation_invariant:
        decay = np.ones_like(dist)
    else:
        decay = (1.0 + dist / rho_values(kernel.rho, x)) ** kernel.N
    size_scores = kv * dist**dim * decay
    i = int(np.argmax(size_scores))
    c_size = float(size_scores[i])
    worst_size = (x[i], y[i])

    y0 = y + rng.uniform(-0.2, 0.2, size=y.shape) * dist[:, None] / (2 * math.sqrt(dim))
    np.clip(y0, 0.0, domain.side, out=y0)
    sep = np.linalg.norm(y - y0, axis=-1)
    ok = (dist > 2 * sep) & (sep > 0)
    xs, ys, y0s, ds, ss = x[ok], y[ok], y0[ok], dist[ok], sep[ok]
    diff = np.abs(kernel.evaluate(xs, ys) - kernel.evaluate(xs, y0s))
    smooth_scores = diff * ds ** (dim + kernel.delta) / ss**kernel.delta
    if smooth_scores.size:
        j = int(np.argmax(smooth_scores))
        c_smooth = float(smooth_scores[j])
        worst_smooth = (xs[j], ys[j], y0s[j])
    else:
        c_smooth = 0.0
        worst_smooth = None
    return KernelConditionReport(
        C_size=c_size,
        N=kernel.N,
        C_smooth=c_smooth,
        delta=kernel.delta,
        worst_size=worst_size,
        worst_smooth=worst_smooth,
        pairs=int(dist.size),
        triples=int(smooth_scores.size),
    )


# ---------------------------------------------------------------------------
# comparison theorems, measured

@dataclass(frozen=True)
class CoifmanReport:
    ratio_max: float
    ratios: tuple[float, ...]
    p: float
    theta: float
    w_ainf: float


def coifman_check(
    kernel: SCZOKernel,
    w: GridFunction,
    p: float,
    theta: float,
    f_suite: list[GridFunction],
) -> CoifmanReport:
    """Measured constant in int |Tf|^p w <= C int (M[theta]f)^p w, over
    the default cube family of w's domain."""
    require_weight(w)
    if not (p > 0 and math.isfinite(p)):
        raise ValueError(f"p must be positive and finite, got {p}")
    if theta <= 0:
        raise ValueError("theta must be positive")
    fam = default_family(w.domain)
    ainf = ap_characteristic(w, math.inf, theta, kernel.rho, fam).value
    if not math.isfinite(ainf):
        raise ValueError("w has no finite flatness characteristic")
    ratios = []
    for f in f_suite:
        tf = sczo_apply(f, kernel)
        mf = m_rho_sigma(f, kernel.rho, theta, 1.0, fam)
        num = integrate(GridFunction(w.domain, np.abs(tf.values) ** p * w.values))
        den = integrate(GridFunction(w.domain, mf.values**p * w.values))
        ratios.append(num / den if den > 0 else 0.0)
    return CoifmanReport(
        ratio_max=float(max(ratios)) if ratios else 0.0,
        ratios=tuple(float(r) for r in ratios),
        p=p,
        theta=theta,
        w_ainf=float(ainf),
    )


@dataclass(frozen=True)
class MixedTReport:
    constant: float            # sup over the t grid for T
    weak_T: float              # exact L^(1,inf)(uv) quasinorm of T(fv)/v
    weak_M: float              # same for M[sigma](fv)/v
    comparison_C: float        # weak_T / weak_M
    sigma: float
    integral: float
    t_grid: tuple[float, ...]


def mixed_for_T(
    f: GridFunction,
    u: GridFunction,
    v: GridFunction,
    kernel: SCZOKernel,
    t_grid: np.ndarray | None = None,
    sigma: float | None = None,
) -> MixedTReport:
    """Mixed weak-type constant of the singular operator against (u, v),
    next to the intermediate comparison with the maximal majorant, over
    the default cube family of f's domain, which u and v must share."""
    require_same_domain(f, u, v)
    require_weight(u)
    require_weight(v)
    fam = default_family(f.domain)
    if sigma is None:
        sigma = ladder_exponent(u, kernel.rho)
    fv = GridFunction(f.domain, f.values * v.values)
    tf = sczo_apply(fv, kernel)
    T = GridFunction(f.domain, np.abs(tf.values) / v.values)
    M = GridFunction(
        f.domain, m_rho_sigma(fv, kernel.rho, sigma, 1.0, fam).values / v.values
    )
    uv = WeightedMeasure(GridFunction(f.domain, u.values * v.values))
    integral = integrate(
        GridFunction(f.domain, np.abs(f.values) * u.values * v.values)
    )
    # T >= 0, so its one table also gives the t-grid sup of t_grid_sup(T, uv)
    table_T = rearrangement(T, uv)
    weak_T = table_T.weak_norm()
    weak_M = weak_norm(M, uv)
    sup, t_grid = table_T.t_grid_sup(t_grid)
    return MixedTReport(
        constant=float(sup / integral) if integral > 0 else 0.0,
        weak_T=float(weak_T),
        weak_M=float(weak_M),
        comparison_C=float(weak_T / weak_M) if weak_M > 0 else 0.0,
        sigma=float(sigma),
        integral=float(integral),
        t_grid=t_grid,
    )
