"""Stopping-time decompositions and the mixed weak-type verifiers.

The dyadic verifier follows the corona structure: level sets of the dyadic
maximal function of g = |f| v are decomposed into stopping cubes, the cubes
are banded by the average of v (bands Lambda_{ell,k}, band -1 collecting
cubes where v averages below the level), band -1 cubes are re-decomposed
against v, and the surviving cubes (Gamma: those meeting the matching v
band) carry the level-set mass.  Principal cubes with a doubling stopping
rule turn the per-cube sums into majorants h1/h2 that the claim audits
compare against the weight u.

All set inclusions used by the verifier are exact at the cell level: every
cube mass and average it reads comes off one dyadic_sum_pyramid per function
over R, so the proof's comparisons see identical floats.  g's tree yields
M_dyadic and each level's stopping cubes; v's averages band the cubes, and
the slice of v's tree under a band -1 cube yields its pieces (the floats
cz_on_cube would compute); u's pyramid yields the node averages, the piece
and level-cube masses and term II; one pyramid of u 1_{E_k} per band k,
built band by band, yields term I.  _cube_sums reads a list of cubes
off a pyramid with one fancy index per side.

The cubes of R's bisection tree nest or are disjoint, so tree relations are
read off owner arrays (one cube index per cell of R): principal_select
paints its nodes largest first, and the double-sum audit keeps one owner
array per level and runs every cell's bracket chain at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .critical import RhoSpec, audit_admissibility, critical_covering
from .grid import (
    Cube,
    CubeFamily,
    DYADIC_GRID_OF,
    DomainMismatchError,
    GridFunction,
    _average_tree,
    dyadic_average_tree,
    dyadic_averages,
    dyadic_sum_pyramid,
    integrate,
    require_same_domain,
    weighted_measure,
)
from .extrapolation import ladder_exponent
from .lorentz import WeightedMeasure, rearrangement, weak_norm
from .maximal import default_family, loc_glob_split
from .weights import ainf_epsilon, ap_characteristic

__all__ = [
    "ClaimReport",
    "ClassifiedLevels",
    "LevelDecomposition",
    "MixedDyadicReport",
    "MixedGlobalReport",
    "PrincipalForest",
    "build_forests",
    "claim_audits",
    "classify",
    "cz_on_cube",
    "level_decomposition",
    "mixed_verify_dyadic",
    "mixed_verify_global",
    "principal_select",
    "tree_a1",
]


def _band_index(x: np.ndarray, a: float) -> np.ndarray:
    """Largest-k grid of bands a^k < x <= a^(k+1), elementwise exact.

    Uses log as a first guess, then repairs the edges by comparison so a
    value sitting exactly on a power of a lands in the lower band.  The
    powers of a come from Python's pow, the C library's, as _floor_band
    and level_decomposition take them: numpy's vectorised power can round
    a^k to the neighbouring float when a is not a power of two.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("band index needs positive values")
    a = float(a)
    k = np.ceil(np.log(x) / math.log(a)).astype(np.int64) - 1
    # the repairs below move k by at most 4 either way
    lo = int(k.min()) - 4
    powers = np.array([_pow_or_inf(a, j) for j in range(lo, int(k.max()) + 6)])
    for _ in range(4):
        too_high = powers[k - lo] >= x
        too_low = powers[k + 1 - lo] < x
        if not (too_high.any() or too_low.any()):
            break
        k = k - too_high.astype(np.int64) + too_low.astype(np.int64)
    return k


def _pow_or_inf(a: float, j: int) -> float:
    """a ** j by Python's pow, inf where it overflows."""
    try:
        return a**j
    except OverflowError:
        return math.inf


def _floor_band(x: float, a: float) -> int:
    """j with a^j <= x < a^(j+1) (left-closed bands for the v averages)."""
    j = math.floor(math.log(x) / math.log(a))
    while _pow_or_inf(a, j + 1) <= x:
        j += 1
    while a**j > x:
        j -= 1
    return j


def _root_tree(g: GridFunction, R: Cube):
    if np.any(g.values < 0):
        raise ValueError("stopping-time decomposition needs g >= 0")
    if R.domain != g.domain:
        raise DomainMismatchError("root cube on a different domain")
    if R.side_cells & (R.side_cells - 1):
        raise ValueError(f"root cube R needs a power-of-two side, got {R.side_cells} cells")
    return dyadic_average_tree(g.values[R.slices()])


def _stopping_cubes(tree, R: Cube, lam: float) -> list[Cube]:
    """Blocks of R's tree with above <= lam < avg, in (side, anchor) order."""
    out: list[Cube] = []
    for j, (avg, above) in enumerate(tree):
        stop = (above <= lam) & (avg > lam)
        if stop.any():  # most levels hold none; skip their index arithmetic
            hits = np.argwhere(stop) * (1 << j) + R.anchor
            out.extend(Cube(R.domain, tuple(c), 1 << j) for c in hits.tolist())
    return out


def _cube_sums(levels: list[np.ndarray], R: Cube, cubes: list[Cube]) -> np.ndarray:
    """Entries of a per-level pyramid over R (dyadic_sum_pyramid's sums or
    dyadic_averages') for cubes of R's bisection tree, in the cubes' order:
    one fancy index per side."""
    out = np.empty(len(cubes))
    for s in {Q.side_cells for Q in cubes}:
        at = [i for i, Q in enumerate(cubes) if Q.side_cells == s]
        rel = (np.array([cubes[i].anchor for i in at]) - R.anchor) // s
        out[at] = levels[s.bit_length() - 1][tuple(rel.T)]
    return out


def cz_on_cube(g: GridFunction, R: Cube, lam: float) -> list[Cube]:
    """Stopping-time decomposition of R against the level lam.

    Returns the maximal dyadic subcubes with avg(g, Q) > lam; by the
    bisection stopping rule every returned cube satisfies
    lam < avg(g, Q) <= 2^dim lam, the cubes are pairwise disjoint, and
    their union is exactly the level set {M_dyadic over R of g > lam}.
    Requires g >= 0 and avg(g, R) <= lam.
    """
    tree = _root_tree(g, R)
    top_avg = float(tree[-1][0].ravel()[0])
    if top_avg > lam:
        raise ValueError(
            f"avg over the root ({top_avg}) exceeds the level ({lam})"
        )
    return _stopping_cubes(tree, R, lam)


@dataclass(frozen=True)
class LevelDecomposition:
    g: GridFunction
    R: Cube
    a: float
    k0: int
    levels: dict[int, list[Cube]]       # k -> stopping cubes of {M > a^k}
    mdy: GridFunction                   # dyadic maximal of g over R
    empty: bool


def level_decomposition(g: GridFunction, R: Cube, a: float | None = None) -> LevelDecomposition:
    """Stopping cubes of every level set {M_dyadic g > a^k}, k >= k0.

    k0 is the unique integer with a^(k0-1) < avg(g, R) <= a^k0; levels run
    upward until the level set empties, all read off one dyadic_average_tree
    of g over R.  g identically zero on R yields an empty decomposition
    with a flag rather than an error; a negative g, a non-finite a or a peak
    of g past the largest finite power of a raises ValueError.
    """
    dim = g.domain.dim
    if a is None:
        a = float(2 ** (dim + 1))
    if not (math.isfinite(a) and a > 2**dim):
        raise ValueError(f"level base a must be finite and exceed 2^dim = {2 ** dim}")
    tree = _root_tree(g, R)
    mdy = np.zeros(g.domain.shape)
    mdy[R.slices()] = np.maximum(*tree[0])
    mdy = GridFunction(g.domain, mdy)
    block_avg = float(tree[-1][0].ravel()[0])
    if block_avg == 0.0:
        return LevelDecomposition(g, R, a, 0, {}, mdy, empty=True)
    peak = float(mdy.values[R.slices()].max())
    k0 = math.ceil(math.log(block_avg) / math.log(a))
    levels: dict[int, list[Cube]] = {}
    try:
        while a ** (k0 - 1) >= block_avg:
            k0 -= 1
        while a**k0 < block_avg:
            k0 += 1
        k = k0
        while a**k < peak:
            levels[k] = _stopping_cubes(tree, R, a**k)
            k += 1
    except OverflowError:  # Python's pow: a^k past the float range
        raise ValueError(
            f"the peak of g ({peak}) passes the largest finite power of a = {a}"
        ) from None
    return LevelDecomposition(g, R, a, k0, levels, mdy, empty=False)


@dataclass(frozen=True)
class ClassifiedLevels:
    decomp: LevelDecomposition
    v: GridFunction
    bands: dict[tuple[int, int], list[Cube]]            # (ell >= 0, k)
    minus1: dict[int, list[Cube]]                       # k -> low-average cubes
    secondary: dict[int, list[tuple[Cube, Cube]]]       # k -> (piece, primary)
    gamma: dict[tuple[int, int], list[Cube]]            # band-meeting cubes
    gamma_minus1: dict[int, list[tuple[Cube, Cube]]]
    band_masks: dict[int, np.ndarray]                   # a^k < v <= a^(k+1) on R
    e_masks: dict[int, np.ndarray]                      # E_k at t = 1

    @property
    def a(self) -> float:
        return self.decomp.a


def classify(decomp: LevelDecomposition, v: GridFunction) -> ClassifiedLevels:
    """Band every stopping cube by its v average and build the E_k sets.

    A cube at level k lands in band ell >= 0 when avg(v, Q) lies in
    [a^(k+ell), a^(k+ell+1)), or in band -1 when avg(v, Q) < a^k; band -1
    cubes are re-decomposed against v at level a^k.  The averages of v are
    read from its dyadic tree over R, the floats cz_on_cube checks, and each
    band -1 cube's pieces from that tree's slice under it.  Gamma keeps
    the cubes meeting the cell band {a^k < v <= a^(k+1)}, and E_k is that
    band intersected with {M_dyadic g > v} (the t = 1 normalization).
    """
    a = decomp.a
    R = decomp.R
    require_pos = v.values[R.slices()]
    if np.any(require_pos <= 0):
        raise ValueError("v must be strictly positive on R")

    bands: dict[tuple[int, int], list[Cube]] = {}
    minus1: dict[int, list[Cube]] = {}
    secondary: dict[int, list[tuple[Cube, Cube]]] = {}
    gamma: dict[tuple[int, int], list[Cube]] = {}
    gamma_minus1: dict[int, list[tuple[Cube, Cube]]] = {}

    # cell bands of v over R, then E_k
    kcell = _band_index(require_pos, a)
    band_masks: dict[int, np.ndarray] = {}
    e_masks: dict[int, np.ndarray] = {}
    exceed = decomp.mdy.values > v.values
    for k in range(int(kcell.min()), int(kcell.max()) + 1):
        if (local := kcell == k).any():
            band_masks[k] = np.zeros(v.domain.shape, dtype=bool)
            band_masks[k][R.slices()] = local
            e_masks[k] = band_masks[k] & exceed

    v_avgs = dyadic_averages(require_pos)
    for k, cubes in decomp.levels.items():
        bmask = band_masks.get(k)
        for Q, avg_v in zip(cubes, _cube_sums(v_avgs, R, cubes).tolist()):
            if avg_v < a**k:
                minus1.setdefault(k, []).append(Q)
                # cz_on_cube(v, Q, a^k) off the slice of v's tree under Q:
                # child sums are local, so these are the floats over Q
                rel = _relative_slices(Q, R)
                sub = [avg[tuple(slice(c.start >> j, c.stop >> j) for c in rel)]
                       for j, avg in enumerate(v_avgs[: Q.side_cells.bit_length()])]
                for W in _stopping_cubes(_average_tree(sub), Q, a**k):
                    secondary.setdefault(k, []).append((W, Q))
                    if bmask is not None and bmask[W.slices()].any():
                        gamma_minus1.setdefault(k, []).append((W, Q))
            else:
                ell = _floor_band(avg_v, a) - k
                bands.setdefault((ell, k), []).append(Q)
                if bmask is not None and bmask[Q.slices()].any():
                    gamma.setdefault((ell, k), []).append(Q)
    return ClassifiedLevels(
        decomp, v, bands, minus1, secondary, gamma, gamma_minus1,
        band_masks, e_masks,
    )


# ---------------------------------------------------------------------------
# principal cubes

@dataclass(frozen=True)
class PrincipalForest:
    ell: int                                  # band, -1 for the low branch
    nodes: tuple[tuple[Cube, int], ...]       # (cube, level k)
    generations: dict[Cube, int]              # principal cubes only
    assignment: dict[Cube, Cube]              # every node -> its principal
    h: GridFunction                           # majorant h1 (or h2 for ell=-1)
    delta: float | None = None
    primary_parent: dict[Cube, Cube] = field(default_factory=dict)

    @property
    def principal_count(self) -> int:
        return len(self.generations)


def _relative_slices(Q: Cube, R: Cube) -> tuple[slice, ...]:
    """Q's cells as slices of an array over R's cells."""
    return tuple(
        slice(q - r, q - r + Q.side_cells) for q, r in zip(Q.anchor, R.anchor)
    )


def principal_select(
    classified: ClassifiedLevels,
    u: GridFunction,
    ell: int,
    delta: float | None = None,
) -> PrincipalForest:
    """Principal cubes of one band by the doubling stopping rule.

    Band ell >= 0: walking down from the maximal cubes, a cube becomes
    principal when its u average more than doubles the average of its
    current principal ancestor.  Band -1 runs on the secondary cubes with
    the damped threshold a^((k - t) delta) (t the ancestor's level); delta
    defaults to half v's A_infty flatness exponent eps over the bisection
    tree of R (classical, theta = 0), and must stay below it.  eps comes
    from weights.ainf_epsilon, which in dims 1 and 2 reads it off one
    RH_infty sweep and runs the pack fit only when that bound cannot decide
    it; in dim 3 it runs the fit.

    The majorant h sums avg(u, Q) over principal cubes for ell >= 0; for
    ell = -1 it spreads u(W)/|primary| over each principal piece's primary.
    """
    decomp = classified.decomp
    R = decomp.R
    a = classified.a
    if ell >= 0:
        nodes = [
            (Q, k)
            for (l, k), cubes in sorted(classified.gamma.items())
            if l == ell
            for Q in cubes
        ]
        parent_of: dict[Cube, Cube] = {}
    else:
        eps = ainf_epsilon(
            _restrict_weight(classified.v, R),
            theta=0.0,
            rho=RhoSpec.classical(),
            cubes=CubeFamily(R.domain, DYADIC_GRID_OF, R),
        )
        if delta is None:
            delta = eps / 2.0
        if not (0 < delta < eps):
            raise ValueError(f"delta must lie in (0, eps = {eps}), got {delta}")
        low = sorted(classified.gamma_minus1.items())
        nodes = [(W, k) for k, pairs in low for W, _Q in pairs]
        parent_of = {W: Q for _k, pairs in low for W, Q in pairs}

    nodes.sort(key=lambda qk: (-qk[0].side_cells, qk[1], qk[0].anchor))
    level_of = dict(nodes)
    sum_u = dict(zip(level_of, _cube_sums(_u_sums(u, R), R, [*level_of]).tolist()))
    avg_u = {Q: sum_u[Q] / Q.cell_count for Q in sum_u}
    generations: dict[Cube, int] = {}
    assignment: dict[Cube, Cube] = {}
    # owner[cell] is the last node painted over the cell; nodes nest or are
    # disjoint and come largest first, so a node's anchor cell holds its
    # nearest strict ancestor among the nodes until it paints itself
    owner = np.full((R.side_cells,) * R.domain.dim, -1, dtype=np.int64)
    for i, (Q, k) in enumerate(nodes):
        rel = _relative_slices(Q, R)
        anc = int(owner[tuple(s.start for s in rel)])
        owner[rel] = i
        if anc < 0:
            generations[Q] = 0
            assignment[Q] = Q
            continue
        prin = assignment[nodes[anc][0]]
        if ell >= 0:
            fire = avg_u[Q] > 2.0 * avg_u[prin]
        else:
            t = level_of[prin]
            fire = avg_u[Q] > a ** ((k - t) * delta) * avg_u[prin]
        if fire:
            generations[Q] = generations[prin] + 1
            assignment[Q] = Q
        else:
            assignment[Q] = prin

    hvals = np.zeros(u.domain.shape)
    for Q in generations:  # h1 spreads avg(u, Q) over Q, h2 u(W) / |P| over W's P
        P = parent_of.get(Q, Q)
        hvals[P.slices()] += sum_u[Q] / P.cell_count
    return PrincipalForest(
        ell=ell,
        nodes=tuple(nodes),
        generations=generations,
        assignment=assignment,
        h=GridFunction(u.domain, hvals),
        delta=delta if ell < 0 else None,
        primary_parent=parent_of,
    )


def _u_sums(u: GridFunction, R: Cube) -> list[np.ndarray]:
    """u's dyadic_sum_pyramid over R, the one source of u's cube masses."""
    if R.domain != u.domain:
        raise DomainMismatchError("root cube on a different domain")
    return dyadic_sum_pyramid(u.values[R.slices()])


def _restrict_weight(w: GridFunction, R: Cube) -> GridFunction:
    """Weight equal to w on R and 1 elsewhere (keeps positivity global)."""
    vals = np.ones(w.domain.shape)
    vals[R.slices()] = w.values[R.slices()]
    return GridFunction(w.domain, vals)


def build_forests(
    classified: ClassifiedLevels,
    u: GridFunction,
    delta: float | None = None,
) -> dict[int, PrincipalForest]:
    """Principal forests for every nonempty band, including -1."""
    ells = sorted({l for (l, _k) in classified.gamma})
    out = {l: principal_select(classified, u, l) for l in ells}
    if classified.gamma_minus1:
        out[-1] = principal_select(classified, u, -1, delta=delta)
    return out


# ---------------------------------------------------------------------------
# claim audits

@dataclass(frozen=True)
class ClaimReport:
    u_char: float                    # measured A_1 characteristic over D(R)
    bound_constant: float            # 2 * u_char
    h1_violations: dict[int, int]
    h1_max_ratio: float              # max over bands of h1 / (bound * u)
    h2_sup_ratio: float | None       # measured sup h2 / u
    double_sum_max: float | None     # max bracket sum of the -1 recursion
    principal_counts: dict[int, int]


def tree_a1(u: GridFunction, R: Cube) -> float:
    """[u], the classical A_1 characteristic of u over the bisection tree
    of R, which claim_audits and mixed_verify_dyadic read."""
    fam = CubeFamily(R.domain, DYADIC_GRID_OF, R)
    return ap_characteristic(u, 1.0, 0.0, RhoSpec.classical(), fam).value


def claim_audits(
    forests: dict[int, PrincipalForest],
    classified: ClassifiedLevels,
    u: GridFunction,
    u_char: float | None = None,
) -> ClaimReport:
    """Check h1 <= 2 [u] u cellwise per band, [u] = tree_a1(u, R) (measured
    here unless given), and measure the h2 / u ratio and the bracketed
    double sum for the -1 branch."""
    R = classified.decomp.R
    if u_char is None:
        u_char = tree_a1(u, R)
    bound = 2.0 * u_char
    rslice = R.slices()
    uvals = u.values[rslice]
    h1_violations: dict[int, int] = {}
    h1_max = 0.0
    counts: dict[int, int] = {}
    h2_ratio = None
    for l, forest in forests.items():
        counts[l] = forest.principal_count
        hv = forest.h.values[rslice]
        if l < 0:
            with np.errstate(divide="ignore"):
                h2_ratio = float(np.max(hv / uvals))
            continue
        ratio = hv / (bound * uvals)
        h1_violations[l] = int(np.sum(ratio > 1.0 + 1e-12))
        h1_max = max(h1_max, float(ratio.max()))

    double_max = _double_sum_audit(forests.get(-1), classified, u)
    return ClaimReport(
        u_char=u_char,
        bound_constant=bound,
        h1_violations=h1_violations,
        h1_max_ratio=h1_max,
        h2_sup_ratio=h2_ratio,
        double_sum_max=double_max,
        principal_counts=counts,
    )


def _double_sum_audit(forest, classified: ClassifiedLevels, u: GridFunction):
    """Max over cells of the per-bracket principal-piece mass sum.

    Along each cell's chain of stopping cubes, brackets group consecutive
    levels until the u average doubles; within a bracket the sum of
    u(principal piece)/u(level cube) over pieces carved from that cell's
    cube is accumulated.  Bounded by a constant when the -1 machinery is
    healthy.  The chains run level by level over all of R's cells at once.
    """
    if forest is None:
        return None
    decomp = classified.decomp
    R = decomp.R
    u_sums = _u_sums(u, R)     # masses in cell units: only their ratios count
    level_of = dict(forest.nodes)
    piece_mass: dict[tuple[int, Cube], float] = {}
    for W, m in zip(forest.generations, _cube_sums(u_sums, R, [*forest.generations]).tolist()):
        key = (level_of[W], forest.primary_parent[W])
        piece_mass[key] = piece_mass.get(key, 0.0) + m
    opened = np.full(R.cell_count, -np.inf)     # every u average beats -inf
    bracket = np.zeros(R.cell_count)
    best = 0.0
    for k, cubes in sorted(decomp.levels.items()):
        owner = np.full((R.side_cells,) * R.domain.dim, -1, dtype=np.int64)
        for i, Q in enumerate(cubes):
            owner[_relative_slices(Q, R)] = i
        iu = _cube_sums(u_sums, R, cubes)
        avg = iu / np.array([Q.cell_count for Q in cubes])
        inner = np.array([piece_mass.get((k, Q), 0.0) for Q in cubes])
        share = np.divide(inner, iu, out=np.zeros_like(iu), where=iu > 0)
        cells = np.flatnonzero(owner >= 0)
        q = owner.ravel()[cells]
        fresh = avg[q] > 2.0 * opened[cells]
        closed = cells[fresh]
        best = max(best, float(bracket[closed].max(initial=0.0)))
        bracket[closed] = 0.0
        opened[closed] = avg[q[fresh]]
        bracket[cells] += share[q]
    return max(best, float(bracket.max()))


# ---------------------------------------------------------------------------
# the mixed verifiers

@dataclass(frozen=True)
class MixedDyadicReport:
    a: float
    k0: int
    integral: float                  # int_R |f| u v
    uv_levelset: float               # uv({M_dyadic(|f|v) > v} cap R)
    ratio: float
    sum_upper: float                 # sum over k >= k0 of uv(E_k)
    tail_sum: float                  # sum over k < k0
    tail_bound: float                # (a^2/(a-1)) [u]_{D(R)} * integral
    tail_ok: bool
    term_I: float
    term_II: float
    upper_le_terms: bool             # sum_upper <= I + II (exact chain)
    level_rows: tuple[dict, ...]     # per-level ledger for dumps
    empty: bool
    # the stopping-time build behind the ledger, None when empty; kept for
    # callers that audit the same cubes further, never serialized
    classified: ClassifiedLevels | None = field(
        default=None, repr=False, compare=False
    )


def mixed_verify_dyadic(
    f: GridFunction,
    u: GridFunction,
    v: GridFunction,
    R: Cube,
    a: float | None = None,
    u_char: float | None = None,
) -> MixedDyadicReport:
    """Full dyadic ledger of the mixed inequality at t = 1 with g = |f| v.

    Splits uv({M_dyadic g > v}) over the v bands E_k, bounds the upper
    levels by the Gamma sums I (bands ell >= 0) and II (band -1 pieces),
    and checks the sub-level tail against (a^2/(a-1)) [u] int |f| u v with
    [u] = tree_a1(u, R), measured here unless given.  f, u and v must
    share a domain.
    """
    require_same_domain(f, u, v)
    g = GridFunction(f.domain, np.abs(f.values) * v.values)
    decomp = level_decomposition(g, R, a)
    a = decomp.a
    uv = GridFunction(f.domain, u.values * v.values)
    integral = integrate(GridFunction(f.domain, np.abs(f.values) * uv.values), R)
    if decomp.empty:
        return MixedDyadicReport(
            a, 0, integral, 0.0, 0.0, 0.0, 0.0, 0.0, True, 0.0, 0.0, True,
            (), True,
        )
    classified = classify(decomp, v)
    h_d = f.domain.cell_volume
    uv_mass = {k: weighted_measure(uv, m) for k, m in classified.e_masks.items()}
    k0 = decomp.k0
    sum_upper = sum(m for k, m in uv_mass.items() if k >= k0)
    tail_sum = sum(m for k, m in uv_mass.items() if k < k0)
    total = sum(uv_mass.values())

    # u(E_k cap Q) off one pyramid of u 1_{E_k} over R per band k, built
    # band by band, so at most two are alive at once
    pieces: dict[tuple[int, int], float] = {}
    for k in sorted({k for _ell, k in classified.gamma}):
        eu_sums = dyadic_sum_pyramid(np.where(classified.e_masks[k], u.values, 0.0)[R.slices()])
        for (ell, kk), cubes in classified.gamma.items():
            if kk == k:
                pieces[ell, k] = sum((_cube_sums(eu_sums, R, cubes) * h_d).tolist())
    term_I = 0.0
    rows: list[dict] = []
    for (ell, k), piece in sorted(pieces.items()):
        term_I += a ** (k + 1) * piece
        rows.append({"kind": "gamma", "ell": ell, "k": k,
                     "cubes": len(classified.gamma[ell, k]), "u_mass": piece})
    term_II = 0.0
    u_sums = _u_sums(u, R) if classified.gamma_minus1 else []
    for k, pairs in sorted(classified.gamma_minus1.items()):
        piece = sum((_cube_sums(u_sums, R, [W for W, _ in pairs]) * h_d).tolist())
        term_II += a ** (k + 1) * piece
        rows.append({"kind": "gamma_minus1", "ell": -1, "k": k,
                     "cubes": len(pairs), "u_mass": piece})

    if u_char is None:
        u_char = tree_a1(u, R)
    tail_bound = a * a / (a - 1.0) * u_char * integral
    slack = 1e-9 * max(1.0, sum_upper)
    return MixedDyadicReport(
        a=a,
        k0=k0,
        integral=integral,
        uv_levelset=total,
        ratio=total / integral if integral > 0 else math.inf,
        sum_upper=sum_upper,
        tail_sum=tail_sum,
        tail_bound=tail_bound,
        tail_ok=tail_sum <= tail_bound * (1 + 1e-9),
        term_I=term_I,
        term_II=term_II,
        upper_le_terms=sum_upper <= term_I + term_II + slack,
        level_rows=tuple(rows),
        empty=False,
        classified=classified,
    )


@dataclass(frozen=True)
class MixedGlobalReport:
    sigma: float
    theta: float
    N0: int
    N1: float
    constant_exact: float            # sup_t t uv({M(fv)/v > t}) / int |f|uv
    constant_grid: float             # same sup restricted to the t grid
    loc_constant: float
    glob_constant: float
    integral: float
    t_grid: tuple[float, ...]
    covering_cubes: int


def mixed_verify_global(
    f: GridFunction,
    u: GridFunction,
    v: GridFunction,
    rho: RhoSpec,
    sigma: float | None = None,
    theta: float | None = None,
) -> MixedGlobalReport:
    """End-to-end mixed weak-type constant of M[sigma] against (u, v).

    When sigma is not pinned it follows the recipe sigma = (N1 + theta + 1)
    * (N0 + 1): N1 from the critical covering's overlap fit, N0 from the
    admissibility ladder (the decay rate of supercritical cubes scales like
    1/(N0 + 1)), theta from u's growth ladder.  The constant is the exact
    sup over t of t * uv({M(fv)/v > t}) / int |f| u v, reported next to its
    restriction to the default t grid of t_grid_sup and to the local/global
    split pieces, all over the default cube family of the domain, which f,
    u and v must share.
    """
    require_same_domain(f, u, v)
    if theta is None:
        theta = ladder_exponent(u, rho)
    if rho.is_classical:
        n0 = 1
        n1 = 0.0
        cover_count = 0
        if sigma is None:
            sigma = 0.0
    else:
        adm = audit_admissibility(rho, f.domain, pair_sample_size=2000)
        cover = critical_covering(rho, f.domain)
        n0 = adm.N0
        n1 = max(cover.N1, 0.0)
        cover_count = int(len(cover.centers))
        if sigma is None:
            sigma = (n1 + theta + 1.0) * (n0 + 1)

    fv = GridFunction(f.domain, f.values * v.values)
    split = loc_glob_split(fv, rho, sigma, default_family(f.domain))
    T = GridFunction(f.domain, split.m.values / v.values)
    uv = WeightedMeasure(GridFunction(f.domain, u.values * v.values))
    integral = integrate(
        GridFunction(f.domain, np.abs(f.values) * u.values * v.values)
    )
    # T >= 0, so its one table also gives the t-grid sup of t_grid_sup(T, uv)
    table = rearrangement(T, uv)
    exact = table.weak_norm() / integral if integral > 0 else math.inf

    grid_sup, t_grid = table.t_grid_sup()
    grid_const = grid_sup / integral if integral > 0 else math.inf

    with np.errstate(invalid="ignore"):
        loc_T = GridFunction(f.domain, split.loc.values / v.values)
        glob_T = GridFunction(f.domain, split.glob.values / v.values)
    loc_c = weak_norm(loc_T, uv) / integral if integral > 0 else math.inf
    glob_c = weak_norm(glob_T, uv) / integral if integral > 0 else math.inf
    return MixedGlobalReport(
        sigma=float(sigma),
        theta=float(theta),
        N0=n0,
        N1=float(n1),
        constant_exact=float(exact),
        constant_grid=float(grid_const),
        loc_constant=float(loc_c),
        glob_constant=float(glob_c),
        integral=float(integral),
        t_grid=t_grid,
        covering_cubes=cover_count,
    )

