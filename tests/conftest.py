"""Shared helpers for the test suite."""

import contextlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import rhomix.extrapolation
import rhomix.grid
import rhomix.weights
from rhomix import (
    ALL_CELL_ALIGNED, DYADIC_GRID_OF, BoxSums, Cube, CubeFamily, Domain,
    GridFunction, InterpolationReport, RearrangementTable, RhoSpec, ainf_epsilon,
    cz_on_cube, dyadic_averages, dyadic_sum_pyramid,
)
from rhomix.corona import _row_cubes
from rhomix.critical import _libm_pow, _penalty_base

#: (policy, rooted) as the family property tests draw them: dim-1 intervals
#: (rooted or not is drawn after), the box's bisection tree, and the tree of
#: a drawn power-of-two root
FAMILY_DRAWS = [(ALL_CELL_ALIGNED, None), (DYADIC_GRID_OF, False), (DYADIC_GRID_OF, True)]

#: sweep block budgets the property tests draw: on level <= 5 grids, 1
#: gives one side per block, 12 and 40 mix one-side and several-side
#: blocks, and the default takes every side of a half in one block
BLOCK_BUDGETS = [1, 12, 40, rhomix.grid.BLOCK_ELEMENTS]


@contextlib.contextmanager
def block_budget(budget: int):
    """Sweep with rhomix.grid.BLOCK_ELEMENTS set to budget."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rhomix.grid, "BLOCK_ELEMENTS", budget)
        yield


#: penalty budgets the table tests draw: 0 holds only the array just
#: built (power then raises every fold block by block), 2^16 holds the
#: folds of roots up to 44 cells and evicts past 64 KB, and the default
#: holds every fold of these levels
PENALTY_BUDGETS = [0, 1 << 16, rhomix.grid.PENALTY_BYTES]


@contextlib.contextmanager
def penalty_budget(budget: int):
    """Hold penalty powers with rhomix.grid.PENALTY_BYTES set to budget."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rhomix.grid, "PENALTY_BYTES", budget)
        yield


@contextlib.contextmanager
def counted_fits():
    """Count the ainf_epsilon_form calls made through rhomix.weights (the
    ones ainf_epsilon makes); yields a one-element list holding the count."""
    calls = [0]
    fit = rhomix.weights.ainf_epsilon_form

    def counting(*args, **kwargs):
        calls[0] += 1
        return fit(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rhomix.weights, "ainf_epsilon_form", counting)
        yield calls


@contextlib.contextmanager
def counted_sweeps():
    """Record the inputs of every CubeFamily.sweep call; yields the list of
    their input tuples, one per call."""
    calls = []
    sweep = rhomix.grid.CubeFamily.sweep

    def counting(self, *values):
        calls.append(values)
        return sweep(self, *values)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rhomix.grid.CubeFamily, "sweep", counting)
        yield calls


@contextlib.contextmanager
def counted_s_stacks():
    """Count the calls of extrapolation._s_stack, the one S kernel that
    s_operator and estimate_K0 both run; yields a one-element list holding
    the count."""
    calls = [0]
    s_stack = rhomix.extrapolation._s_stack

    def counting(*args):
        calls[0] += 1
        return s_stack(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rhomix.extrapolation, "_s_stack", counting)
        yield calls


def per_side_cell_max(family, scores, sides, out):
    """Oracle for CubeFamily.cell_max on ALL_CELL_ALIGNED: the spread
    recurrence H_s[a] = max(score_s[a], H_{s+1}[a-1], H_{s+1}[a]) one side
    at a time, largest first, two in-place maxima per side."""
    view = out[(Ellipsis,) + family.root.slices()]
    span = view.shape[-1]
    for j in range(len(sides) - 1, -1, -1):
        m = span - int(sides[j]) + 1
        row = scores[..., j, :m]
        np.maximum(row[..., 1:], view[..., : m - 1], out=row[..., 1:])
        np.maximum(view[..., :m], row, out=view[..., :m])


def row_by_row_fold(table, exponent, ratio):
    """Oracle for PenaltyTable._fold: the bases and their powers built one
    fold row at a time from the index arithmetic, for each exponent anew.
    Returns the same (lower, upper) window views of the flat fold."""
    span = table.family.root.side_cells
    half = (span + 1) // 2
    rv = table._half_cells()[0]
    h = table.family.domain.cell_width
    col = np.arange(span + 1)
    flat = np.empty(half * (span + 1))
    for i in range(half):
        left = col < span - i
        side = np.where(left, i + 1, span - i)
        anchor = np.where(left, col, col - (span - i))
        radius = math.sqrt(table.family.domain.dim) * side * h / 2.0
        base = _penalty_base(rv[2 * anchor + side], radius, ratio)
        flat[i * (span + 1) : (i + 1) * (span + 1)] = _libm_pow(base, exponent)
    lower = sliding_window_view(flat, span)[:: span + 1]
    upper = sliding_window_view(flat, max(span - half, 1))[::span]
    return lower, upper


def per_input_sweep(family, *values):
    """Oracle for CubeFamily.sweep: one BoxSums table per input, every
    block read from each table in turn (no overflow check)."""
    dim = family.domain.dim
    region = (Ellipsis,) + family.root.slices()
    tables = [BoxSums(np.asarray(v, dtype=np.float64)[region], dim) for v in values]
    lead = np.shape(values[0])[: np.ndim(values[0]) - dim]
    span = family.root.side_cells
    for sides in family._blocks(len(values) * math.prod(lead)):
        s = int(sides[0])
        avgs = []
        for t in tables:
            if family.policy == ALL_CELL_ALIGNED:
                sums = t.interval_sums(s, len(sides))
                avgs.append(np.divide(sums, sides[:, None], out=sums))
            else:
                sums = t._corner_sums([(0, s, span // s)] * dim, s)
                np.divide(sums, s**dim, out=sums)
                avgs.append(sums.reshape(sums.shape[:-dim] + (1, -1)))
        yield sides, avgs


def split_domains():
    """(f, u, v): f and u on one box, v on another box with the same cell
    count, so only the domains tell them apart."""
    near, far = Domain(1, 8.0, 5), Domain(1, 4.0, 5)
    f = GridFunction(near, np.linspace(0.0, 1.0, 32))
    u = GridFunction(near, np.linspace(1.0, 2.0, 32))
    v = GridFunction(far, np.linspace(2.0, 1.0, 32))
    return f, u, v


def cubes_of(domain, fam):
    """Materialize a family as a list of Cubes on a known domain."""
    out = []
    for s in fam.side_cells_list():
        for anchor in fam.anchors(s):
            out.append(Cube(domain, tuple(int(a) for a in anchor), s))
    return out


def pyramid_sum(g: GridFunction, R: Cube, Q: Cube) -> float:
    """The cell sum of g over Q, for Q in the bisection tree of R, read off
    the pairwise child-sum pyramid of g over R."""
    j = Q.side_cells.bit_length() - 1
    idx = tuple((q - r) // Q.side_cells for q, r in zip(Q.anchor, R.anchor))
    return float(dyadic_sum_pyramid(g.values[R.slices()])[j][idx])


def pyramid_average(g: GridFunction, R: Cube, Q: Cube) -> float:
    """avg(g, Q) off pyramid_sum: the float every stopping rule compares."""
    return pyramid_sum(g, R, Q) / Q.cell_count


def slice_sum(g: GridFunction, R: Cube, Q: Cube) -> float:
    """The cell sum of g over Q by numpy's sum of Q's slice, which groups
    the terms otherwise than the pyramid."""
    return float(g.values[Q.slices()].sum())


def random_pow2_cube(domain, rng) -> Cube:
    """A dyadic sub-box of the grid: power-of-two side, aligned anchor."""
    side = 1 << int(rng.integers(0, domain.level + 1))
    anchor = tuple(
        int(rng.integers(0, domain.n // side)) * side for _ in range(domain.dim)
    )
    return Cube(domain, anchor, side)


def brute_m_dyadic(f, R):
    """Independent oracle: walk the explicit bisection tree with plain means."""
    out = np.zeros(f.domain.shape)
    vals = np.abs(f.values)

    def visit(Q):
        avg = float(np.mean(vals[Q.slices()]))
        sl = Q.slices()
        out[sl] = np.maximum(out[sl], avg)
        if Q.side_cells > 1:
            for k in Q.children():
                visit(k)

    visit(R)
    return out


def brute_cz(g, R, lam):
    """Independent stopping time: explicit recursion with plain means."""
    out = []

    def visit(Q):
        avg = float(np.mean(g.values[Q.slices()]))
        if avg > lam:
            out.append(Q)
            return
        if Q.side_cells > 1:
            for kid in Q.children():
                visit(kid)

    # root average <= lam by precondition, so only descend
    for kid in R.children() if R.side_cells > 1 else []:
        visit(kid)
    return sorted(out, key=lambda c: (c.side_cells, c.anchor))


def _ancestor_in(node_map, R, cube):
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


def cube_lists(classified):
    """classify's rows as the Cube lists the oracles build: every dict of
    ClassifiedLevels (and decomp.levels) in its order, a band -1 (pieces,
    primaries) row pair as a list of (piece, primary) Cube pairs."""
    R = classified.decomp.R

    def cubes(rows):
        return _row_cubes(R, rows)

    def pairs(two):
        return list(zip(cubes(two[0]), cubes(two[1])))

    return SimpleNamespace(
        levels={k: cubes(r) for k, r in classified.decomp.levels.items()},
        bands={key: cubes(r) for key, r in classified.bands.items()},
        minus1={k: cubes(r) for k, r in classified.minus1.items()},
        secondary={k: pairs(two) for k, two in classified.secondary.items()},
        gamma={key: cubes(r) for key, r in classified.gamma.items()},
        gamma_minus1={k: pairs(two) for k, two in classified.gamma_minus1.items()},
        band_masks=classified.band_masks,
        e_masks=classified.e_masks,
    )


def cube_forest(forest, R):
    """A PrincipalForest's rows as the Cube form the oracles build: nodes
    as (cube, k) in node order, and dicts keyed by cube in node order:
    principal -> generation, node -> its principal, band -1 piece -> its
    primary."""
    cubes = _row_cubes(R, forest.nodes)
    gens = forest.generations.tolist()
    primary = [] if forest.primary_parent is None else _row_cubes(R, forest.primary_parent)
    return SimpleNamespace(
        ell=forest.ell,
        delta=forest.delta,
        h=forest.h,
        nodes=tuple(zip(cubes, forest.k.tolist())),
        generations={Q: g for Q, g in zip(cubes, gens) if g >= 0},
        assignment={Q: cubes[p] for Q, p in zip(cubes, forest.assignment.tolist())},
        primary_parent=dict(zip(cubes, primary)),
    )


def walk_forest(classified, u, ell, delta, read=pyramid_sum):
    """Oracle for principal_select at a given delta: each node finds its
    nearest ancestor among the nodes by walking up R's bisection tree one
    dict lookup per side, and u's cube sums come one cube at a time from
    read(u, R, Q).  Returns (nodes, generations, assignment, h)."""
    R = classified.decomp.R
    a = classified.a
    classified = cube_lists(classified)
    if ell >= 0:
        nodes = [(Q, k) for (l, k), cubes in sorted(classified.gamma.items())
                 if l == ell for Q in cubes]
    else:
        nodes = [(W, k) for k, pairs in sorted(classified.gamma_minus1.items())
                 for W, _Q in pairs]
        parent_of = {W: Q for pairs in classified.gamma_minus1.values() for W, Q in pairs}
    nodes.sort(key=lambda qk: (-qk[0].side_cells, qk[1], qk[0].anchor))
    node_map = {(Q.anchor, Q.side_cells): (Q, k) for Q, k in nodes}
    sum_u = {Q: read(u, R, Q) for Q, _ in nodes}
    avg_u = {Q: sum_u[Q] / Q.cell_count for Q, _ in nodes}
    level_of = dict(nodes)
    generations, assignment = {}, {}
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
            fire = avg_u[Q] > a ** ((k - level_of[prin]) * delta) * avg_u[prin]
        if fire:
            generations[Q] = generations[prin] + 1
            assignment[Q] = Q
        else:
            assignment[Q] = prin
    h = np.zeros(u.domain.shape)
    for Q in generations:
        if ell >= 0:
            h[Q.slices()] += avg_u[Q]
        else:
            P = parent_of[Q]
            h[P.slices()] += sum_u[Q] / P.cell_count
    return tuple(nodes), generations, assignment, h


def cell_chain_double_sum(forest, classified, u, read=pyramid_sum):
    """Oracle for the -1 branch's double sum: each cell's chain of stopping
    cubes walked on its own, one level after the other, with u's cube sums
    from read(u, R, Q)."""
    R = classified.decomp.R
    levels = cube_lists(classified).levels
    forest = cube_forest(forest, R)
    shape = (R.side_cells,) * R.domain.dim
    owners = {}
    for k, cubes in levels.items():
        owner = np.full(shape, -1, dtype=np.int64)
        for i, Q in enumerate(cubes):
            owner[tuple(slice(q - r, q - r + Q.side_cells)
                        for q, r in zip(Q.anchor, R.anchor))] = i
        owners[k] = owner
    piece_mass = {}
    level_of = dict(forest.nodes)
    for W in forest.generations:
        key = (level_of[W], forest.primary_parent[W])
        piece_mass[key] = piece_mass.get(key, 0.0) + read(u, R, W)
    iu = {Q: read(u, R, Q) for cubes in levels.values() for Q in cubes}
    best = 0.0
    for cell in np.ndindex(*shape):
        chain = [(k, levels[k][owners[k][cell]])
                 for k in sorted(levels) if owners[k][cell] >= 0]
        cur_avg = None
        bracket = 0.0
        for k, Q in chain:
            aq = iu[Q] / Q.cell_count
            if cur_avg is None or aq > 2.0 * cur_avg:
                best = max(best, bracket)
                bracket = 0.0
                cur_avg = aq
            if iu[Q] > 0:
                bracket += piece_mass.get((k, Q), 0.0) / iu[Q]
        best = max(best, bracket)
    return best


def slice_sum_terms(classified, u):
    """Oracle for mixed_verify_dyadic's terms I and II read one cube at a
    time by numpy's slice sums: u(E_k cap Q) as a masked slice sum per Gamma
    cube, u(W) as a slice sum per band -1 piece.  Returns (I, II)."""
    a, h_d = classified.a, u.domain.cell_volume
    classified = cube_lists(classified)
    term_I = term_II = 0.0
    for (_ell, k), cubes in sorted(classified.gamma.items()):
        emask = classified.e_masks[k]
        piece = sum(float(u.values[Q.slices()][emask[Q.slices()]].sum()) * h_d for Q in cubes)
        term_I += a ** (k + 1) * piece
    for k, pairs in sorted(classified.gamma_minus1.items()):
        term_II += a ** (k + 1) * sum(float(u.values[W.slices()].sum()) * h_d for W, _ in pairs)
    return term_I, term_II


def row_level_table(level: np.ndarray, mu) -> RearrangementTable:
    """Oracle for the level-set tables: one row's table on its own, the
    default sort with a stable re-sort on a positive tie, one running sum
    of the density in that order, read at the last cell of each tie group
    and scaled by the cell volume, mu-null steps dropped."""
    a = level.ravel()
    order = np.argsort(-a)
    keys = a[order]
    pos = np.count_nonzero(keys > 0)
    top = keys[:pos]
    if np.any(top[1:] == top[:-1]):
        order = np.argsort(-a, kind="stable")
    elif pos < a.size:
        order[pos:] = np.flatnonzero(a == 0)
    keys[pos:] = a[order[pos:]]
    cum = np.cumsum(mu.density.values.ravel()[order])
    vol = mu.domain.cell_volume
    peak = float(keys[0])
    keys = keys[:pos]
    last = np.ones(pos, dtype=bool)
    last[:-1] = keys[1:] != keys[:-1]
    masses = cum[:pos][last] * vol
    keep = np.diff(masses, prepend=0.0) > 0
    return RearrangementTable(keys[last][keep], masses[keep], float(cum[-1]) * vol, peak)


def row_by_row_audit(T, p0, p, mu, f_suite, C0=None, C1=None) -> InterpolationReport:
    """Oracle for interpolation_audit: the pool built f by f, one T call,
    then one row_level_table per pool row and per image, each read on its
    own.  A member of norm 0 with a nonzero image has ratio inf: it fails
    its hypothesis for every constant and is left out of the measured
    constants; an f of norm 0 with a nonzero image fails the conclusion."""
    def ratio(num, den):
        return num / den if den > 0 else (math.inf if num > 0 else 0.0)

    def safe(num, den):
        return num / den if den > 0 else 0.0

    blocks, f_norms, offset = [], {}, 0
    for f in f_suite:
        table = row_level_table(np.abs(f.values), mu)
        f_norms[offset] = (table.lorentz_norm(p0, 1.0), table.lorentz_norm(p, 1.0))
        below = np.abs(f.values) <= table.values.reshape((-1,) + (1,) * f.values.ndim)
        low = np.where(below, f.values, 0.0)
        splits = np.stack([low, f.values - low], axis=1).reshape((-1,) + f.values.shape)
        blocks.append(np.concatenate([f.values[None], splits]))
        offset += len(blocks[-1])
    pool = np.concatenate(blocks) if blocks else np.zeros((0,) + mu.domain.shape)
    images = np.asarray(T(pool), dtype=np.float64)
    weak, sup, f_images = [], [], []
    for i, (g, Tg) in enumerate(zip(pool, images)):
        image_table = row_level_table(np.abs(Tg), mu)
        if i in f_norms:
            g_norm, f_norm = f_norms[i]
            f_images.append((image_table.lorentz_norm(p, 1.0), f_norm))
        else:
            g_norm = row_level_table(np.abs(g), mu).lorentz_norm(p0, 1.0)
        weak.append((ratio(image_table.weak_norm(p0), g_norm), g_norm))
        g_sup = float(np.abs(g).max())
        sup.append((ratio(float(np.abs(Tg).max()), g_sup), g_sup))
    if C0 is None:
        C0 = max((r for r, norm in weak if norm > 0), default=0.0)
    if C1 is None:
        C1 = max((r for r, norm in sup if norm > 0), default=0.0)
    hyp = sum(r > C0 * (1 + 1e-12) for r, _ in weak)
    hyp += sum(r > C1 * (1 + 1e-12) for r, _ in sup)
    hyp_max = max(safe(max((r for r, _ in weak), default=0.0), C0),
                  safe(max((r for r, _ in sup), default=0.0), C1))
    bound = 2.0 ** (1.0 / p) * (C0 / (1.0 / p0 - 1.0 / p) + C1)
    violations, max_ratio = 0, 0.0
    for lhs, f_norm in f_images:
        rhs = bound * f_norm
        if f_norm == 0.0 and lhs > 0.0:
            violations += 1
            max_ratio = math.inf
        if rhs == 0.0:
            continue
        max_ratio = max(max_ratio, lhs / rhs)
        violations += lhs > rhs * (1 + 1e-12)
    return InterpolationReport(
        p0, p, float(C0), float(C1), float(bound), violations, hyp,
        float(max_ratio), float(hyp_max), len(f_suite),
    )


def _scalar_floor_band(x: float, a: float) -> int:
    """j with a^j <= x < a^(j+1), by Python's pow one power at a time."""
    j = math.floor(math.log(x) / math.log(a))
    while _pow_or_inf(a, j + 1) <= x:
        j += 1
    while a**j > x:
        j -= 1
    return j


def _scalar_cell_band(x: float, a: float) -> int:
    """k with a^k < x <= a^(k+1), the right-closed band of one cell."""
    j = _scalar_floor_band(x, a)
    return j - 1 if _pow_or_inf(a, j) == x else j


def _pow_or_inf(a: float, j: int) -> float:
    try:
        return a**j
    except OverflowError:
        return math.inf


def cube_by_cube_classify(decomp, v):
    """Oracle for classify: every stopping cube banded and gated on its
    own, its v average off dyadic_averages over R, its band by Python's
    pow, its gate by one slice any() of its level's cell band, and a band
    -1 cube's pieces by cz_on_cube(v, Q, a^k).  Returns the fields of
    ClassifiedLevels as cube_lists gives them."""
    a, R = decomp.a, decomp.R
    vals = v.values[R.slices()]
    kcell = np.vectorize(lambda x: _scalar_cell_band(x, a))(vals)
    band_masks, e_masks = {}, {}
    exceed = decomp.mdy.values > v.values
    for k in range(int(kcell.min()), int(kcell.max()) + 1):
        if (local := kcell == k).any():
            band_masks[k] = np.zeros(v.domain.shape, dtype=bool)
            band_masks[k][R.slices()] = local
            e_masks[k] = band_masks[k] & exceed
    avgs = dyadic_averages(vals)
    bands, minus1, secondary, gamma, gamma_minus1 = {}, {}, {}, {}, {}
    for k, rows in decomp.levels.items():
        bmask = band_masks.get(k)
        for Q in _row_cubes(R, rows):
            rel = tuple((q - r) // Q.side_cells for q, r in zip(Q.anchor, R.anchor))
            avg_v = float(avgs[Q.side_cells.bit_length() - 1][rel])
            if avg_v < a**k:
                minus1.setdefault(k, []).append(Q)
                for W in cz_on_cube(v, Q, a**k):
                    secondary.setdefault(k, []).append((W, Q))
                    if bmask is not None and bmask[W.slices()].any():
                        gamma_minus1.setdefault(k, []).append((W, Q))
            else:
                ell = _scalar_floor_band(avg_v, a) - k
                bands.setdefault((ell, k), []).append(Q)
                if bmask is not None and bmask[Q.slices()].any():
                    gamma.setdefault((ell, k), []).append(Q)
    return SimpleNamespace(bands=bands, minus1=minus1, secondary=secondary, gamma=gamma,
                           gamma_minus1=gamma_minus1, band_masks=band_masks,
                           e_masks=e_masks)


def node_by_node_forest(classified, u, ell, delta=None):
    """Oracle for principal_select: the nodes walked one at a time, largest
    first, each one's nearest ancestor read off an owner array at its
    anchor cell before it paints itself, u's node sums off one pyramid over
    R, and h added principal by principal.  Returns the forest as
    cube_forest gives it."""
    R, a, v = classified.decomp.R, classified.a, classified.v
    classified = cube_lists(classified)
    if ell >= 0:
        nodes = [(Q, k) for (l, k), cubes in sorted(classified.gamma.items())
                 if l == ell for Q in cubes]
        parent_of = {}
    else:
        eps = ainf_epsilon(
            GridFunction(R.domain, np.where(R.mask(), v.values, 1.0)),
            0.0, RhoSpec.classical(), CubeFamily(R.domain, DYADIC_GRID_OF, R),
        )
        delta = eps / 2.0 if delta is None else delta
        low = sorted(classified.gamma_minus1.items())
        nodes = [(W, k) for k, pairs in low for W, _Q in pairs]
        parent_of = {W: Q for _k, pairs in low for W, Q in pairs}
    nodes.sort(key=lambda qk: (-qk[0].side_cells, qk[1], qk[0].anchor))
    sums = dyadic_sum_pyramid(u.values[R.slices()])
    level_of = dict(nodes)
    sum_u = {}
    for Q, _k in nodes:
        rel = tuple((q - r) // Q.side_cells for q, r in zip(Q.anchor, R.anchor))
        sum_u[Q] = float(sums[Q.side_cells.bit_length() - 1][rel])
    avg_u = {Q: sum_u[Q] / Q.cell_count for Q in sum_u}
    generations, assignment = {}, {}
    owner = np.full((R.side_cells,) * R.domain.dim, -1, dtype=np.int64)
    for i, (Q, k) in enumerate(nodes):
        rel = tuple(slice(q - r, q - r + Q.side_cells) for q, r in zip(Q.anchor, R.anchor))
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
            fire = avg_u[Q] > a ** ((k - level_of[prin]) * delta) * avg_u[prin]
        if fire:
            generations[Q] = generations[prin] + 1
            assignment[Q] = Q
        else:
            assignment[Q] = prin
    hvals = np.zeros(u.domain.shape)
    for Q in generations:
        P = parent_of.get(Q, Q)
        hvals[P.slices()] += sum_u[Q] / P.cell_count
    return SimpleNamespace(
        ell=ell, delta=delta if ell < 0 else None, h=GridFunction(u.domain, hvals),
        nodes=tuple(nodes), generations=generations, assignment=assignment,
        primary_parent=parent_of,
    )


def oscillator(domain):
    """V = |x - c|^2 with c the box center, as a GridFunction."""
    d2 = np.sum((domain.cell_centers() - domain.side / 2.0) ** 2, axis=1)
    return GridFunction(domain, d2.reshape(domain.shape))


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)
