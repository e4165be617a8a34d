"""Stopping-time decompositions and the mixed weak-type verifiers.

The dyadic verifier follows the corona structure: level sets of the dyadic
maximal function of g = |f| v are decomposed into stopping cubes, the cubes
are banded by the average of v (bands Lambda_{ell,k}, band -1 collecting
cubes where v averages below the level), band -1 cubes are re-decomposed
against v, and the surviving cubes (Gamma: those meeting the matching v
band) carry the level-set mass.  Principal cubes with a doubling stopping
rule turn the per-cube sums into majorants h1/h2 that the claim audits
compare against the weight u.

All set inclusions used by the verifier are exact at the cell level: one
dyadic_average_tree per function and root yields every average, M_dyadic and
each level's stopping cubes, so the proof's comparisons see identical floats;
classify reads v's averages alone, from dyadic_averages, the tree's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .critical import RhoSpec, audit_admissibility, critical_covering
from .grid import (
    Cube,
    DYADIC_GRID_OF,
    GridFunction,
    dyadic_average_tree,
    dyadic_averages,
    enumerate_cubes,
    integrate,
)
from .extrapolation import ladder_exponent
from .lorentz import WeightedMeasure, t_grid_sup, weak_norm
from .maximal import default_family, loc_glob_split
from .weights import ainf_epsilon_form, ap_characteristic

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
]


def _band_index(x: np.ndarray, a: float) -> np.ndarray:
    """Largest-k grid of bands a^k < x <= a^(k+1), elementwise exact.

    Uses log as a first guess, then repairs the edges by comparison so a
    value sitting exactly on a power of a lands in the lower band.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("band index needs positive values")
    k = np.ceil(np.log(x) / math.log(a)).astype(np.int64) - 1
    for _ in range(4):
        too_high = a ** (k.astype(float)) >= x
        too_low = a ** (k + 1.0) < x
        if not (too_high.any() or too_low.any()):
            break
        k = k - too_high.astype(np.int64) + too_low.astype(np.int64)
    return k


def _floor_band(x: float, a: float) -> int:
    """j with a^j <= x < a^(j+1) (left-closed bands for the v averages)."""
    j = math.floor(math.log(x) / math.log(a))
    while a ** (j + 1) <= x:
        j += 1
    while a**j > x:
        j -= 1
    return j


def _root_tree(g: GridFunction, R: Cube):
    if np.any(g.values < 0):
        raise ValueError("stopping-time decomposition needs g >= 0")
    if R.domain != g.domain:
        raise ValueError("root cube on a different domain")
    return dyadic_average_tree(g.values[R.slices()])


def _stopping_cubes(tree, R: Cube, lam: float) -> list[Cube]:
    """Blocks of R's tree with above <= lam < avg, in (side, anchor) order."""
    out: list[Cube] = []
    for j, (avg, above) in enumerate(tree):
        hits = np.argwhere((above <= lam) & (avg > lam)) * (1 << j) + R.anchor
        out.extend(Cube(R.domain, tuple(c), 1 << j) for c in hits.tolist())
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
    with a flag rather than an error; a negative g or a non-finite a raises.
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
    k0 = math.ceil(math.log(block_avg) / math.log(a))
    while a ** (k0 - 1) >= block_avg:
        k0 -= 1
    while a**k0 < block_avg:
        k0 += 1
    peak = float(mdy.values[R.slices()].max())
    levels: dict[int, list[Cube]] = {}
    k = k0
    while a**k < peak:
        levels[k] = _stopping_cubes(tree, R, a**k)
        k += 1
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
    read from its dyadic tree over R, the floats cz_on_cube checks.  Gamma keeps
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
    exceed = decomp.mdy.values[R.slices()] > require_pos
    for k in range(int(kcell.min()), int(kcell.max()) + 1):
        local = kcell == k
        if not local.any():
            continue
        full = np.zeros(v.domain.shape, dtype=bool)
        full[R.slices()] = local
        band_masks[k] = full
        efull = np.zeros(v.domain.shape, dtype=bool)
        efull[R.slices()] = local & exceed
        e_masks[k] = efull

    v_avgs = dyadic_averages(require_pos)
    for k, cubes in decomp.levels.items():
        for Q in cubes:
            s = Q.side_cells
            rel = tuple((q - r) // s for q, r in zip(Q.anchor, R.anchor))
            avg_v = float(v_avgs[s.bit_length() - 1][rel])
            if avg_v < a**k:
                minus1.setdefault(k, []).append(Q)
                pieces = cz_on_cube(v, Q, a**k)
                if pieces:
                    secondary.setdefault(k, []).extend((W, Q) for W in pieces)
            else:
                ell = _floor_band(avg_v, a) - k
                bands.setdefault((ell, k), []).append(Q)
        bmask = band_masks.get(k)
        if bmask is None:
            continue
        for ell, k2 in list(bands):
            if k2 != k:
                continue
            hits = [Q for Q in bands[(ell, k)] if bmask[Q.slices()].any()]
            if hits:
                gamma[(ell, k)] = hits
        for W, Q in secondary.get(k, []):
            if bmask[W.slices()].any():
                gamma_minus1.setdefault(k, []).append((W, Q))
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


def _ancestor_in(node_map, R: Cube, cube: Cube):
    """Nearest strict dyadic ancestor of cube (within R) present in node_map."""
    s = cube.side_cells
    anchor = cube.anchor
    while s < R.side_cells:
        s *= 2
        anchor = tuple(
            R.anchor[ax] + ((anchor[ax] - R.anchor[ax]) // s) * s
            for ax in range(len(anchor))
        )
        hit = node_map.get((anchor, s))
        if hit is not None:
            return hit
    return None


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
    defaults to half the epsilon fitted to v's flatness condition over the
    bisection tree of R, and must stay below that epsilon.

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
        eps = ainf_epsilon_form(
            _restrict_weight(classified.v, R),
            theta=0.0,
            rho=RhoSpec.classical(),
            cubes=enumerate_cubes(R.domain, DYADIC_GRID_OF, R),
        ).eps
        if delta is None:
            delta = eps / 2.0
        if not (0 < delta < eps):
            raise ValueError(f"delta must lie in (0, eps = {eps}), got {delta}")
        nodes = []
        parent_of = {}
        for k, pairs in sorted(classified.gamma_minus1.items()):
            for W, Q in pairs:
                nodes.append((W, k))
                parent_of[W] = Q

    nodes.sort(key=lambda qk: (-qk[0].side_cells, qk[1], qk[0].anchor))
    node_map = {(Q.anchor, Q.side_cells): (Q, k) for Q, k in nodes}
    avg_u = {
        Q: float(u.values[Q.slices()].sum()) / Q.cell_count for Q, _ in nodes
    }
    generations: dict[Cube, int] = {}
    assignment: dict[Cube, Cube] = {}
    level_of = dict(nodes)
    for Q, k in nodes:
        anc = _ancestor_in(node_map, R, Q)
        if anc is None:
            generations[Q] = 0
            assignment[Q] = Q
            continue
        prin = assignment[anc[0]]
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
    if ell >= 0:
        for Q in generations:
            hvals[Q.slices()] += avg_u[Q]
    else:
        for W in generations:
            P = parent_of[W]
            hvals[P.slices()] += integrate(u, W) / P.volume
    return PrincipalForest(
        ell=ell,
        nodes=tuple(nodes),
        generations=generations,
        assignment=assignment,
        h=GridFunction(u.domain, hvals),
        delta=delta if ell < 0 else None,
        primary_parent=parent_of,
    )


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


def claim_audits(
    forests: dict[int, PrincipalForest],
    classified: ClassifiedLevels,
    u: GridFunction,
) -> ClaimReport:
    """Check h1 <= 2 [u] u cellwise per band, [u] the classical A_1
    characteristic over the bisection tree of R, and measure the h2 / u
    ratio and the bracketed double sum for the -1 branch."""
    R = classified.decomp.R
    fam = enumerate_cubes(R.domain, DYADIC_GRID_OF, R)
    u_char = ap_characteristic(u, 1.0, 0.0, RhoSpec.classical(), fam).value
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
    healthy.
    """
    if forest is None:
        return None
    decomp = classified.decomp
    R = decomp.R
    dim = R.domain.dim
    shape = tuple(R.side_cells for _ in range(dim))
    owners: dict[int, np.ndarray] = {}
    cube_lists: dict[int, list[Cube]] = {}
    for k, cubes in decomp.levels.items():
        owner = np.full(shape, -1, dtype=np.int64)
        for i, Q in enumerate(cubes):
            rel = tuple(
                slice(Q.anchor[ax] - R.anchor[ax],
                      Q.anchor[ax] - R.anchor[ax] + Q.side_cells)
                for ax in range(dim)
            )
            owner[rel] = i
        owners[k] = owner
        cube_lists[k] = cubes
    iu = {}
    piece_mass: dict[tuple[int, Cube], float] = {}
    for W in forest.generations:
        P = forest.primary_parent[W]
        k = dict(forest.nodes)[W]
        piece_mass[(k, P)] = piece_mass.get((k, P), 0.0) + integrate(u, W)
    for k, cubes in cube_lists.items():
        for Q in cubes:
            iu[Q] = integrate(u, Q)
    ks = sorted(decomp.levels)
    best = 0.0
    for cell in np.ndindex(*shape):
        chain = [(k, cube_lists[k][owners[k][cell]]) for k in ks if owners[k][cell] >= 0]
        if not chain:
            continue
        cur_avg = None
        bracket = 0.0
        for k, Q in chain:
            aq = iu[Q] / Q.volume
            if cur_avg is None or aq > 2.0 * cur_avg:
                best = max(best, bracket)
                bracket = 0.0
                cur_avg = aq
            inner = piece_mass.get((k, Q), 0.0)
            if iu[Q] > 0:
                bracket += inner / iu[Q]
        best = max(best, bracket)
    return float(best)


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
) -> MixedDyadicReport:
    """Full dyadic ledger of the mixed inequality at t = 1 with g = |f| v.

    Splits uv({M_dyadic g > v}) over the v bands E_k, bounds the upper
    levels by the Gamma sums I (bands ell >= 0) and II (band -1 pieces),
    and checks the sub-level tail against (a^2/(a-1)) [u] int |f| u v with
    [u] the A_1 characteristic over the bisection tree of R.
    """
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
    uv_mass = {
        k: float(uv.values[m].sum()) * h_d for k, m in classified.e_masks.items()
    }
    k0 = decomp.k0
    sum_upper = sum(m for k, m in uv_mass.items() if k >= k0)
    tail_sum = sum(m for k, m in uv_mass.items() if k < k0)
    total = sum(uv_mass.values())

    term_I = 0.0
    rows: list[dict] = []
    for (ell, k), cubes in sorted(classified.gamma.items()):
        emask = classified.e_masks.get(k)
        piece = 0.0
        for Q in cubes:
            if emask is None:
                continue
            sub = emask[Q.slices()]
            piece += float(u.values[Q.slices()][sub].sum()) * h_d
        term_I += a ** (k + 1) * piece
        rows.append({"kind": "gamma", "ell": ell, "k": k, "cubes": len(cubes),
                     "u_mass": piece})
    term_II = 0.0
    for k, pairs in sorted(classified.gamma_minus1.items()):
        piece = sum(integrate(u, W) for W, _ in pairs)
        term_II += a ** (k + 1) * piece
        rows.append({"kind": "gamma_minus1", "ell": -1, "k": k,
                     "cubes": len(pairs), "u_mass": piece})

    fam = enumerate_cubes(R.domain, DYADIC_GRID_OF, R)
    u_char = ap_characteristic(u, 1.0, 0.0, RhoSpec.classical(), fam).value
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
    split pieces, all over the default cube family of the domain.
    """
    family = default_family(f.domain)
    if theta is None:
        theta = ladder_exponent(u, rho, family)
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
    split = loc_glob_split(fv, rho, sigma, family)
    T = GridFunction(f.domain, split.m.values / v.values)
    uv = WeightedMeasure(GridFunction(f.domain, u.values * v.values))
    integral = integrate(
        GridFunction(f.domain, np.abs(f.values) * u.values * v.values)
    )
    exact = weak_norm(T, uv) / integral if integral > 0 else math.inf

    grid_sup, t_grid = t_grid_sup(T, uv)
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

