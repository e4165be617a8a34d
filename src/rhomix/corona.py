"""Stopping-time decompositions and the mixed weak-type verifiers.

The dyadic verifier follows the corona structure: level sets of the dyadic
maximal function of g = |f| v are decomposed into stopping cubes, the cubes
are banded by the average of v (bands Lambda_{ell,k}, band -1 collecting
cubes where v averages below the level), band -1 cubes are re-decomposed
against v, and the surviving cubes (Gamma: those meeting the matching v
band) carry the level-set mass.  Principal cubes with a doubling stopping
rule turn the per-cube sums into majorants h1/h2 that the claim audits
compare against the weight u.

Every cube the verifier handles is in R's bisection tree and is held as a
row: a list of n cubes is one int64 array of shape (n, 1 + dim), column 0
the j of the side 2^j cells, the others the block index at level j of the
pyramid over R (anchor = R's anchor + idx 2^j).  A band -1 list of
(piece, primary) pairs is two such arrays of equal length.  Only
cz_on_cube and the CLI's forest dump turn rows into Cubes (_row_cubes).

All set inclusions used by the verifier are exact at the cell level: every
cube mass and average it reads comes off one dyadic_sum_pyramid per function
over R, so the proof's comparisons see identical floats.  g's tree yields
M_dyadic and each level's stopping cubes, one comparison per level over
the whole tree; v's sums give the cube averages that band the cubes, and
the slice of v's tree under a band -1 cube yields its pieces (the floats
cz_on_cube would compute); u's pyramid yields the node averages, the piece
and level-cube masses and term II; one pyramid of u 1_{E_k} per band k,
built band by band, yields term I.  _read gathers rows off a pyramid with
one fancy index over its levels laid end to end.

classify works on every level's stopping cubes at once: one gather of
their v averages, one comparison for band -1, one vectorised left-closed
band for the rest, and one gate per level against the level's cell band,
read off an integer count table of that band (exact counts by
inclusion-exclusion, a fixed number of calls however many cubes).

The cubes of R's bisection tree nest or are disjoint, so tree relations are
read off owner arrays (one cube index per cell of R): principal_select
walks its nodes one tree level (side) at a time, largest first, reading
each side's ancestors off the owner array at once before the side paints
itself, and the double-sum audit keeps one owner array per level and runs
every cell's bracket chain at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .critical import RhoSpec, _libm_pow, audit_admissibility, critical_covering
from .grid import (
    Cube,
    CubeFamily,
    DYADIC_GRID_OF,
    DomainMismatchError,
    GridFunction,
    _average_tree,
    dyadic_average_tree,
    dyadic_sum_pyramid,
    integrate,
    require_same_domain,
    require_weight,
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

    The k is read by comparison against a table of the powers of a, so a
    value sitting exactly on a power of a lands in the lower band.  The
    powers come from Python's pow, the C library's, as _floor_band and
    level_decomposition take them: numpy's vectorised power can round a^k
    to the neighbouring float when a is not a power of two.
    """
    return _power_band(x, a, "left")


def _floor_band(x: np.ndarray, a: float) -> np.ndarray:
    """j with a^j <= x < a^(j+1) elementwise (left-closed bands for the v
    averages), exact as _band_index is."""
    return _power_band(x, a, "right")


def _power_band(x, a: float, side: str) -> np.ndarray:
    """The band of each x > 0 among the powers of a: its searchsorted
    position (side as numpy's) in a table of the powers spanning x, less
    one, offset by the table's first exponent."""
    x = np.asarray(x, dtype=float)
    if (x <= 0).any():
        raise ValueError("band index needs positive values")
    if x.size == 0:
        return np.zeros(x.shape, dtype=np.int64)
    a = float(a)
    # the log guesses are within one band of the exact ones
    lo = math.floor(math.log(float(x.min())) / math.log(a)) - 2
    hi = math.floor(math.log(float(x.max())) / math.log(a)) + 3
    powers = [_pow_or_inf(a, k) for k in range(lo, hi + 1)]
    return np.searchsorted(powers, x, side=side) + (lo - 1)


def _pow_or_inf(a: float, j: int) -> float:
    """a ** j by Python's pow, inf where it overflows."""
    try:
        return a**j
    except OverflowError:
        return math.inf


def _root_tree(g: GridFunction, R: Cube):
    if np.any(g.values < 0):
        raise ValueError("stopping-time decomposition needs g >= 0")
    if R.domain != g.domain:
        raise DomainMismatchError("root cube on a different domain")
    if R.side_cells & (R.side_cells - 1):
        raise ValueError(f"root cube R needs a power-of-two side, got {R.side_cells} cells")
    return dyadic_average_tree(g.values[R.slices()])


def _stopping_cubes(tree, lams) -> list[np.ndarray]:
    """Per level lam of lams, the rows of the tree's blocks with above <=
    lam < avg, in (side, anchor) order: one comparison per lam over the
    whole tree, laid out level by level, each level in anchor order."""
    avg = np.concatenate([avg.ravel() for avg, _above in tree])
    above = np.concatenate([above.ravel() for _avg, above in tree])
    starts = np.cumsum([0] + [avg.size for avg, _above in tree])
    side, dim = len(tree[0][0]), tree[0][0].ndim
    out = []
    for lam in lams:
        at = np.flatnonzero((above <= lam) & (avg > lam))
        rows = np.empty((at.size, 1 + dim), dtype=np.int64)
        rows[:, 0] = j = np.searchsorted(starts, at, side="right") - 1
        at -= starts[j]
        width = side >> j
        for ax in range(dim, 0, -1):
            at, rows[:, ax] = np.divmod(at, width)
        out.append(rows)
    return out


def _row_cubes(R: Cube, rows: np.ndarray) -> list[Cube]:
    """The Cubes of rows (j, idx) of R's tree, in the rows' order."""
    anchors = ((rows[:, 1:] << rows[:, :1]) + R.anchor).tolist()
    return [Cube(R.domain, tuple(c), s) for c, s in zip(anchors, (1 << rows[:, 0]).tolist())]


def _read(levels: list[np.ndarray], rows: np.ndarray) -> np.ndarray:
    """levels[j][idx] for every row (j, idx): one gather from the levels
    laid end to end."""
    flat = np.concatenate([level.ravel() for level in levels])
    start = np.fromiter(itertools.accumulate((lv.size for lv in levels), initial=0), np.int64)
    width = len(levels[0]) >> rows[:, 0]
    at = rows[:, 1]
    for ax in range(2, rows.shape[1]):
        at = at * width + rows[:, ax]
    return flat[start[rows[:, 0]] + at]


def _blocks(a: np.ndarray, j: int, idx: np.ndarray):
    """A view of a cubical array a cut into 2^j-wide blocks, and the fancy
    index of the blocks at block indices idx: view[cells] has shape
    (len(idx), 2^j, ...)."""
    s = 1 << j
    view = a.reshape(sum(((m // s, s) for m in a.shape), ()))
    return view, sum(((c, slice(None)) for c in idx.T), ())


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
    return _row_cubes(R, _stopping_cubes(tree, [lam])[0])


@dataclass(frozen=True)
class LevelDecomposition:
    g: GridFunction
    R: Cube
    a: float
    k0: int
    levels: dict[int, np.ndarray]       # k -> rows of the stopping cubes of {M > a^k}
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
    try:
        while a ** (k0 - 1) >= block_avg:
            k0 -= 1
        while a**k0 < block_avg:
            k0 += 1
        k = k0
        while a**k < peak:
            k += 1
    except OverflowError:  # Python's pow: a^k past the float range
        raise ValueError(
            f"the peak of g ({peak}) passes the largest finite power of a = {a}"
        ) from None
    ks = range(k0, k)
    levels = dict(zip(ks, _stopping_cubes(tree, [a**k for k in ks])))
    return LevelDecomposition(g, R, a, k0, levels, mdy, empty=False)


@dataclass(frozen=True)
class ClassifiedLevels:
    decomp: LevelDecomposition
    v: GridFunction
    bands: dict[tuple[int, int], np.ndarray]            # (ell >= 0, k) -> rows
    minus1: dict[int, np.ndarray]                       # k -> low-average rows
    secondary: dict[int, tuple[np.ndarray, np.ndarray]]  # k -> (pieces, primaries)
    gamma: dict[tuple[int, int], np.ndarray]            # band-meeting rows
    gamma_minus1: dict[int, tuple[np.ndarray, np.ndarray]]
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
    if (require_pos <= 0).any():
        raise ValueError("v must be strictly positive on R")

    dim = R.domain.dim
    bands, minus1, secondary, gamma, gamma_minus1 = {}, {}, {}, {}, {}

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

    # every level's cubes at once: v averages, bands and gates
    ks = list(decomp.levels)
    sizes = [len(decomp.levels[k]) for k in ks]
    rows = np.concatenate([np.empty((0, 1 + dim), dtype=np.int64), *decomp.levels.values()])
    v_sums = dyadic_sum_pyramid(require_pos)
    # dyadic_averages' floats: each block sum over its cell count
    avg_v = _read(v_sums, rows) / (1 << rows[:, 0]) ** dim
    level = np.repeat(np.array(ks, dtype=np.int64), sizes)
    low = avg_v < np.repeat([a**k for k in ks], sizes)
    ell = _floor_band(avg_v, a) - level
    # a cube of level k meets the cell band k when it holds a cell counted
    # by that band's count table
    counts: dict[int, np.ndarray] = {}
    gate = np.zeros(len(rows), dtype=bool)
    end = 0
    for k, size in zip(ks, sizes):
        start, end = end, end + size
        if k in band_masks:
            counts[k] = _count_table(kcell == k)
            gate[start:end] = _meets(counts[k], rows[start:end])
    high = np.flatnonzero(~low)
    span = int(ell.max(initial=0)) + 1
    groups = list(_first_seen(level[high] * span + ell[high], high))
    gate = gate.tolist()
    for key, at in groups:
        bands[key % span, key // span] = rows[at]
    # Gamma's bands in the order their first gated cube comes
    for at, key in sorted(([i for i in at if gate[i]], key) for key, at in groups):
        if at:
            gamma[key % span, key // span] = rows[at]

    low = np.flatnonzero(low)
    for k, at in _first_seen(level[low], low):
        minus1[k] = rows[at]
    for k, lows in minus1.items():
        # cz_on_cube(v, Q, a^k) off the slice of v's tree under Q (child sums
        # are local: the floats over Q), each piece's index shifted by Q's
        pieces = []
        for jq, *q in lows.tolist():
            sub = [sums[tuple(slice(c << (jq - lev), (c + 1) << (jq - lev)) for c in q)]
                   / float((1 << lev) ** dim)
                   for lev, sums in enumerate(v_sums[: jq + 1])]
            w = _stopping_cubes(_average_tree(sub), [a**k])[0]
            w[:, 1:] += np.array(q) << (jq - w[:, :1])
            pieces.append(w)
        pairs = np.concatenate(pieces), np.repeat(lows, [len(w) for w in pieces], axis=0)
        if len(pairs[0]):
            secondary[k] = pairs
        if k in counts:
            met = _meets(counts[k], pairs[0])
            if met.any():
                gamma_minus1[k] = pairs[0][met], pairs[1][met]
    return ClassifiedLevels(
        decomp, v, bands, minus1, secondary, gamma, gamma_minus1,
        band_masks, e_masks,
    )


# ---------------------------------------------------------------------------
# principal cubes

@dataclass(frozen=True)
class PrincipalForest:
    ell: int                          # band, -1 for the low branch
    nodes: np.ndarray                 # rows, in (-side, k, anchor) order
    k: np.ndarray                     # each node's level
    assignment: np.ndarray            # each node's principal, as a node index
    generations: np.ndarray           # a principal node's generation, else -1
    h: GridFunction                   # majorant h1 (or h2 for ell=-1)
    delta: float | None = None
    primary_parent: np.ndarray | None = None  # band -1: each node's primary row

    @property
    def principal_count(self) -> int:
        return int(np.count_nonzero(self.generations >= 0))


def _count_table(mask: np.ndarray) -> np.ndarray:
    """Summed-area table of a boolean array over R: entry (i1, ..., id)
    counts the True cells of [0, i1) x ... x [0, id), in exact integers."""
    table = np.zeros(tuple(m + 1 for m in mask.shape), dtype=np.int64)
    inner = table[(slice(1, None),) * mask.ndim]
    np.cumsum(mask, axis=0, out=inner)
    for ax in range(1, mask.ndim):
        np.cumsum(inner, axis=ax, out=inner)
    return table


def _meets(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Whether each cube of R's tree (row (j, idx): side 2^j, block index
    idx) holds a cell that the count table counts: its count by
    inclusion-exclusion over the 2^dim corners is positive."""
    j, idx = rows[:, 0], rows[:, 1:]
    dim = idx.shape[1]
    corners = np.array(list(itertools.product((0, 1), repeat=dim)))
    sign = (-1) ** (dim - corners.sum(axis=1))
    strides = [math.prod(table.shape[ax + 1 :]) for ax in range(table.ndim)]
    return sign @ table.ravel()[((idx + corners[:, None]) << j[:, None]) @ strides] > 0


def _first_seen(keys: np.ndarray, at: np.ndarray):
    """(key, the entries of at under it in order) per distinct key, keys in
    order of first appearance, as setdefault appends would group them; at
    must increase."""
    srt = np.argsort(keys, kind="stable")
    keys = keys[srt]
    cut = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), keys.size]
    at = at[srt].tolist()
    groups = [(at[lo:hi], lo) for lo, hi in zip(cut[:-1], cut[1:]) if hi > lo]
    keys = keys.tolist()
    for group, lo in sorted(groups):
        yield keys[lo], group


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
    return _forest(classified, u, _u_sums(u, classified.decomp.R), ell, delta)


def _forest(classified, u, u_sums, ell, delta) -> PrincipalForest:
    """principal_select off u's sum pyramid over R.

    No cube is a node twice.  In a band ell >= 0 a cube's level is its
    v-average band minus ell.  A band -1 piece W of level k' averages v
    above a^k' >= a a^k > 2^dim a^k for every k < k', so W's parent
    averages v above a^k, while every cube between a level-k piece and its
    primary averages v at most a^k: W is a piece of no lower level.  The
    nodes, in (-side, k, anchor) order by one lexsort, go one tree level
    (side) at a time over an owner array of R's cells holding the last
    node painted over each cell.  The nodes of one side are disjoint cubes, so each one's
    nearest strict ancestor is the owner of its anchor cell, read for the
    whole side at once before the side paints itself.

    A sentinel node n owns the cells no node has painted; its average -inf
    makes every root fire.  A principal cube's h1 value is its principal
    ancestor's plus its own u average (a root's is its average, 0.0 plus
    it), the per-cell adds of h1 in their order, and each cell reads the
    value of the principal over its owner (the sentinel's is 0.0).
    """
    R = classified.decomp.R
    dim = R.domain.dim
    none = np.empty((0, 1 + dim), dtype=np.int64)
    if ell >= 0:
        parts = [(k, rows) for (l, k), rows in sorted(classified.gamma.items()) if l == ell]
        primary = None
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
        parts = [(k, W) for k, (W, _Q) in low]
        primary = np.concatenate([none, *(Q for _k, (_W, Q) in low)])
    rows = np.concatenate([none, *(r for _k, r in parts)])
    level = np.repeat(np.array([k for k, _r in parts], dtype=np.int64),
                      [len(r) for _k, r in parts])
    order = np.lexsort((*rows[:, :0:-1].T, level, -rows[:, 0]))
    rows, level = rows[order], np.append(level[order], 0)
    n = len(rows)
    j, idx = rows[:, 0], rows[:, 1:]
    sums = np.empty(n)
    avg = np.empty(n + 1)
    avg[n] = -np.inf
    node = np.arange(n + 1)
    assign = np.full(n + 1, n)
    fired = np.zeros(n, dtype=bool)
    # a root's generation and h1 value; a nested principal's come from its
    # principal ancestor's
    gen = np.zeros(n + 1, dtype=np.int64)
    h1 = np.empty(n + 1)
    h1[n] = 0.0
    owner = np.full((R.side_cells,) * dim, n)
    cut = [0, *(np.flatnonzero(j[1:] != j[:-1]) + 1).tolist(), n]
    for lo, hi in zip(cut[:-1], cut[1:]) if n else ():
        lev = int(j[lo])
        blocks = idx[lo:hi]
        sums[lo:hi] = u_sums[lev][tuple(blocks.T)]
        avg[lo:hi] = h1[lo:hi] = sums[lo:hi] / (1 << lev) ** dim
        prin = assign[owner[tuple((blocks << lev).T)]]
        if ell >= 0:
            fire = avg[lo:hi] > 2.0 * avg[prin]
        else:
            bar = _libm_pow(np.full(hi - lo, classified.a), (level[lo:hi] - level[prin]) * delta)
            fire = (avg[lo:hi] > bar * avg[prin]) | (prin == n)
        fired[lo:hi] = fire
        nested = fire & (prin < n)
        if nested.any():
            won, over = node[lo:hi][nested], prin[nested]
            gen[won] = gen[over] + 1
            h1[won] = h1[over] + avg[won]
        assign[lo:hi] = np.where(fire, node[lo:hi], prin)
        view, cells = _blocks(owner, lev, blocks)
        view[cells] = node[lo:hi].reshape((-1,) + (1,) * dim)

    hvals = np.zeros(u.domain.shape)
    if ell >= 0:
        hvals[R.slices()] = h1[assign[owner]]
    else:  # h2: u(W) / |P| over W's primary P, in the per-node order
        primary = primary[order]
        over_R = hvals[R.slices()]
        for i in np.flatnonzero(fired).tolist():
            jp, *p = primary[i].tolist()
            s = 1 << jp
            over_R[tuple(slice(c * s, (c + 1) * s) for c in p)] += sums[i] / s**dim
    return PrincipalForest(
        ell=ell,
        nodes=rows,
        k=level[:n],
        assignment=assign[:n],
        generations=np.where(fired, gen[:n], -1),
        h=GridFunction(u.domain, hvals),
        delta=delta if ell < 0 else None,
        primary_parent=primary,
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
    """Principal forests for every nonempty band, including -1, all read
    off one sum pyramid of u over R."""
    ells = sorted({l for (l, _k) in classified.gamma})
    if classified.gamma_minus1:
        ells.append(-1)
    u_sums = _u_sums(u, classified.decomp.R) if ells else []
    return {l: _forest(classified, u, u_sums, l, delta) for l in ells}


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
    dim = R.domain.dim
    u_sums = _u_sums(u, R)     # masses in cell units: only their ratios count
    won = forest.generations >= 0
    piece_k = forest.k[won]
    piece_mass = _read(u_sums, forest.nodes[won])
    primary = forest.primary_parent[won]
    opened = np.full(R.cell_count, -np.inf)     # every u average beats -inf
    bracket = np.zeros(R.cell_count)
    best = 0.0
    for k, rows in sorted(decomp.levels.items()):
        owner = np.full((R.side_cells,) * dim, -1, dtype=np.int64)   # disjoint cubes
        for lev in np.unique(rows[:, 0]).tolist():
            at = np.flatnonzero(rows[:, 0] == lev)
            view, cells = _blocks(owner, lev, rows[at, 1:])
            view[cells] = at.reshape((-1,) + (1,) * dim)
        iu = _read(u_sums, rows)
        avg = iu / (1 << rows[:, 0]) ** dim
        # each principal piece's mass to its primary (owning its own anchor)
        here = piece_k == k
        inner = np.bincount(
            owner[tuple((primary[here, 1:] << primary[here, :1]).T)],
            weights=piece_mass[here], minlength=len(rows),
        )
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
        # every Gamma cube of band k in one read, summed band by band
        keys = [key for key in classified.gamma if key[1] == k]
        rows = np.concatenate([classified.gamma[key] for key in keys])
        masses = (_read(eu_sums, rows) * h_d).tolist()
        end = 0
        for key in keys:
            start, end = end, end + len(classified.gamma[key])
            pieces[key] = sum(masses[start:end])
    term_I = 0.0
    rows: list[dict] = []
    for (ell, k), piece in sorted(pieces.items()):
        term_I += a ** (k + 1) * piece
        rows.append({"kind": "gamma", "ell": ell, "k": k,
                     "cubes": len(classified.gamma[ell, k]), "u_mass": piece})
    term_II = 0.0
    u_sums = _u_sums(u, R) if classified.gamma_minus1 else []
    for k, (pieces, _primaries) in sorted(classified.gamma_minus1.items()):
        piece = sum((_read(u_sums, pieces) * h_d).tolist())
        term_II += a ** (k + 1) * piece
        rows.append({"kind": "gamma_minus1", "ell": -1, "k": k,
                     "cubes": len(pieces), "u_mass": piece})

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
    constant_exact: float            # sup_t t uv({M(fv)/v > t}) / int |f|uv
    constant_grid: float             # same sup restricted to the t grid
    loc_constant: float
    glob_constant: float
    integral: float
    t_grid: tuple[float, ...]


def mixed_verify_global(
    f: GridFunction,
    u: GridFunction,
    v: GridFunction,
    rho: RhoSpec,
    sigma: float | None = None,
    theta: float | None = None,
) -> MixedGlobalReport:
    """End-to-end mixed weak-type constant of M[sigma] against (u, v).

    Only when sigma is not given does it follow a recipe: 0 under the
    classical rho, and otherwise sigma = (N1 + theta + 1) * (N0 + 1), N1
    (floored at 0) from the critical covering's overlap fit, N0 from the
    admissibility ladder (the decay rate of supercritical cubes scales like
    1/(N0 + 1)), theta from u's growth ladder; those audits' reports stay
    kept on the rho.  A given sigma runs neither audit.  The constant is
    the exact sup over t of t * uv({M(fv)/v > t}) / int |f| u v, reported
    next to its restriction to the default t grid of t_grid_sup and to the
    local/global split pieces, all over the default cube family of the
    domain, which f and the weights u and v must share.
    """
    require_same_domain(f, u, v)
    require_weight(u)
    require_weight(v)
    if theta is None:
        theta = ladder_exponent(u, rho)
    if sigma is None and rho.is_classical:
        sigma = 0.0
    elif sigma is None:
        n0 = audit_admissibility(rho, f.domain, pair_sample_size=2000).N0
        n1 = max(critical_covering(rho, f.domain).N1, 0.0)
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

    loc_T = GridFunction(f.domain, split.loc.values / v.values)
    glob_T = GridFunction(f.domain, split.glob.values / v.values)
    loc_c = weak_norm(loc_T, uv) / integral if integral > 0 else math.inf
    glob_c = weak_norm(glob_T, uv) / integral if integral > 0 else math.inf
    return MixedGlobalReport(
        sigma=float(sigma),
        theta=float(theta),
        constant_exact=float(exact),
        constant_grid=float(grid_const),
        loc_constant=float(loc_c),
        glob_constant=float(glob_c),
        integral=float(integral),
        t_grid=t_grid,
    )
