"""Scale-suppressed maximal operators on the grid.

The central object is

    M[sigma] f(x) = sup over cubes Q = Q(x0, r0) containing x of
                    (1 + r0/rho(x0))^(-sigma) * avg_Q |f|,

with the sup running over a cube family: every cell-aligned interval in
dim 1 (exact within the discretization), dyadic-side tiles in dims 2 and 3
(the fixed dimensional gap to the full sup cancels in like-vs-like audits),
or the bisection tree of a root cube in any dim.  Cells that no cube of the
family covers read 0, the zero-extension convention.  Localized and dyadic
variants restrict the family to one root cube, and the local/global split
separates subcritical cubes (r <= rho) from the rest.

Sweeps cost O(n log n) to O(n^2) per function: CubeFamily.sweep gives
every cube average in O(1) from one prefix-sum table, and
CubeFamily.cell_max turns per-anchor values into per-cell suprema;
m_localized runs on them too.  m_rho_sigma_stack and loc_glob_split_stack
run one sweep for a whole (B, *grid) stack of functions, so the per-side
overhead is paid once per stack; m_rho_sigma and loc_glob_split are their
B = 1 calls, and every image is bit-identical whatever the stack around it.
m_dyadic reads one dyadic_average_tree of the root block.
Every cube penalty, the growth factor's power and glob's (rho/r)^sigma,
is read from the rho's PenaltyTable for the family (critical.py).
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
    DYADIC_SIDES,
    Domain,
    GridFunction,
    dyadic_average_tree,
    enumerate_cubes,
    require_stack,
)

__all__ = [
    "GridShiftSet",
    "LocGlobReport",
    "ShiftDominationReport",
    "default_family",
    "loc_glob_split",
    "loc_glob_split_stack",
    "m_dyadic",
    "m_localized",
    "m_rho_sigma",
    "m_rho_sigma_stack",
    "shifted_grid_domination_audit",
]


def default_family(domain: Domain) -> CubeFamily:
    policy = ALL_CELL_ALIGNED if domain.dim == 1 else DYADIC_SIDES
    return enumerate_cubes(domain, policy)


def _cell_floor(family: CubeFamily, count: int) -> np.ndarray:
    """Start of count cellwise sups: -inf where the family has cubes (the
    start cell_max's spread recurrence needs), 0 off them."""
    out = np.zeros((count,) + family.domain.shape)
    out[(Ellipsis,) + family.region()] = -np.inf
    return out


def m_rho_sigma(
    f: GridFunction,
    rho: RhoSpec,
    sigma: float = 0.0,
    q: float = 1.0,
    cubes: CubeFamily | None = None,
) -> GridFunction:
    """Scale-suppressed maximal function (power-mean variant for q > 1).

    With q > 1 this is (M[sigma](|f|^q))^(1/q).  Monotone decreasing in
    sigma cellwise; sigma = 0 over ALL_CELL_ALIGNED in dim 1 is the exact
    discrete uncentered maximal function.  Cells no cube of the family
    covers (off a root) read 0.  The B = 1 call of m_rho_sigma_stack.
    """
    family = cubes if cubes is not None else default_family(f.domain)
    out = m_rho_sigma_stack(f.values[None], rho, sigma, q, family)
    return GridFunction(f.domain, out[0])


def m_rho_sigma_stack(
    values: np.ndarray,
    rho: RhoSpec,
    sigma: float,
    q: float,
    cubes: CubeFamily,
) -> np.ndarray:
    """m_rho_sigma of each function of a (B, *grid) stack of cell values on
    the family's domain, from one sweep: the (B, *grid) stack of images."""
    if sigma < 0 or q < 1:
        raise ValueError("need sigma >= 0 and q >= 1")
    stack = require_stack(values, cubes.domain)
    table = rho.penalty_table(cubes)
    out = _cell_floor(cubes, len(stack))
    for s, _anchors, (avg,) in cubes.sweep(np.abs(stack) ** q):
        cubes.cell_max(avg * table.power(s, -sigma), s, out)
    return out ** (1.0 / q) if q != 1.0 else out


def m_dyadic(f: GridFunction, R: Cube) -> GridFunction:
    """Dyadic maximal function over the bisection tree of R (zero off R).

    Reads dyadic_average_tree, the floats corona's stopping times compare.
    """
    if R.domain != f.domain:
        raise ValueError("root cube on a different domain")
    if R.side_cells & (R.side_cells - 1):
        raise ValueError("dyadic root needs a power-of-two side")
    full = np.zeros(f.domain.shape)
    avg, above = dyadic_average_tree(np.abs(f.values[R.slices()]))[0]
    full[R.slices()] = np.maximum(avg, above)
    return GridFunction(f.domain, full)


def m_localized(f: GridFunction, R: Cube) -> GridFunction:
    """Maximal function over cubes contained in R (zero off R).

    Dim 1 scans every cell-aligned interval inside R.  Dims 2 and 3 take
    one DYADIC_SIDES sweep of |f|, in which tiles not inside R score -inf,
    together with the bisection tree of R (R's own average when an odd side
    leaves no tree), so the localized sup always dominates the dyadic one.
    """
    if R.domain != f.domain:
        raise ValueError("root cube on a different domain")
    domain = f.domain
    if domain.dim == 1:
        return m_rho_sigma(
            f, RhoSpec.classical(), cubes=enumerate_cubes(domain, ALL_CELL_ALIGNED, R)
        )

    if R.side_cells & (R.side_cells - 1) == 0:
        out = m_dyadic(f, R).values.copy()
    else:
        # no bisection tree for an odd-sided cube; R itself still competes
        out = np.zeros(domain.shape)
        out[R.slices()] = np.mean(np.abs(f.values[R.slices()]))
    lo = np.asarray(R.anchor)
    family = enumerate_cubes(domain, DYADIC_SIDES)
    for s, anchors, (avg,) in family.sweep(np.abs(f.values)):
        if s > R.side_cells:
            continue
        inside = np.all((anchors >= lo) & (anchors + s <= lo + R.side_cells), axis=1)
        family.cell_max(np.where(inside, avg, -np.inf), s, out)
    return GridFunction(domain, out)


# ---------------------------------------------------------------------------
# local / global split

@dataclass(frozen=True)
class LocGlobReport:
    loc: GridFunction
    glob: GridFunction
    m: GridFunction               # M[sigma] f over the same family
    sigma: float
    max_upper_violation: float   # M - (loc + glob), positive means broken
    max_lower_violation: float   # 2^-sigma max(loc, glob) - M
    subcritical_cubes: int
    supercritical_cubes: int


def loc_glob_split(
    f: GridFunction,
    rho: RhoSpec,
    sigma: float,
    cubes: CubeFamily | None = None,
) -> LocGlobReport:
    """Split the sup into subcritical cubes (r <= rho(center), no factor)
    and supercritical ones carrying (rho/r)^sigma; audits the sandwich

        M[sigma] f <= loc + glob,   M[sigma] f >= 2^-sigma max(loc, glob).

    One sweep yields loc, glob and M[sigma] f itself, bit-identical to
    m_rho_sigma(f, rho, sigma, 1.0, cubes).  Empty pieces are zero by the
    zero-extension convention.  The B = 1 call of loc_glob_split_stack.
    """
    family = cubes if cubes is not None else default_family(f.domain)
    return loc_glob_split_stack(f.values[None], rho, sigma, family)[0]


def loc_glob_split_stack(
    values: np.ndarray,
    rho: RhoSpec,
    sigma: float,
    cubes: CubeFamily,
) -> list[LocGlobReport]:
    """loc_glob_split of each function of a (B, *grid) stack of cell values
    on the family's domain, from one sweep: one report per function."""
    stack = require_stack(values, cubes.domain)
    table = rho.penalty_table(cubes)
    domain = cubes.domain
    m_vals, loc_vals, glob_vals = (_cell_floor(cubes, len(stack)) for _ in range(3))
    sub_count = sup_count = 0
    for s, _anchors, (avg,) in cubes.sweep(np.abs(stack)):
        cubes.cell_max(avg * table.power(s, -sigma), s, m_vals)
        rv, radius = table.side(s)
        sub = radius <= rv
        n_sub = int(np.count_nonzero(sub))
        sub_count += n_sub
        sup_count += len(sub) - n_sub
        cubes.cell_max(np.where(sub, avg, -np.inf), s, loc_vals)
        glob = np.where(sub, -np.inf, avg * table.power(s, sigma, ratio=True))
        cubes.cell_max(glob, s, glob_vals)
    np.maximum(loc_vals, 0.0, out=loc_vals)
    np.maximum(glob_vals, 0.0, out=glob_vals)
    grid_axes = tuple(range(1, stack.ndim))
    upper = np.max(m_vals - (loc_vals + glob_vals), axis=grid_axes)
    lower = np.max(
        2.0**-sigma * np.maximum(loc_vals, glob_vals) - m_vals, axis=grid_axes
    )
    return [
        LocGlobReport(
            loc=GridFunction(domain, loc_vals[b]),
            glob=GridFunction(domain, glob_vals[b]),
            m=GridFunction(domain, m_vals[b]),
            sigma=sigma,
            max_upper_violation=float(upper[b]),
            max_lower_violation=float(lower[b]),
            subcritical_cubes=sub_count,
            supercritical_cubes=sup_count,
        )
        for b in range(len(stack))
    ]


# ---------------------------------------------------------------------------
# shifted dyadic grids (the one-third trick)

_EXTRA_SCALES = 3


class GridShiftSet:
    """3^dim dyadic grids whose per-scale offsets walk the one-third shifts.

    Per axis, grid i in {0, 1, 2} uses offset o_i(k) at scale 2^k cells,
    chosen by the nested recursion o_i(k+1) in {o_i(k), o_i(k) + 2^k} that
    tracks the alternating ideal shift frac((-1)^k i/3) * 2^k.  At the top
    scale the offsets land near 0, n/3, 2n/3.  No point of the box stays on
    a grid-i boundary across all scales, so every cell-aligned cube has a
    containing cube in every grid at some finite scale; scales run three
    above the box's own.
    """

    def __init__(self, domain: Domain):
        self.domain = domain
        self.k_max = domain.level + _EXTRA_SCALES
        self.offsets = [self._axis_offsets(i) for i in range(3)]

    def _axis_offsets(self, i: int) -> list[int]:
        offs = [0]
        for k in range(self.k_max):
            target = ((i if k % 2 == 1 else (3 - i) % 3) / 3.0) * (1 << (k + 1))
            stay, move = offs[k], offs[k] + (1 << k)
            offs.append(stay if abs(stay - target) <= abs(move - target) else move)
        return offs

    def grid_ids(self) -> list[tuple[int, ...]]:
        return [ids for ids in np.ndindex(*(3,) * self.domain.dim)]

    def locate_parent(self, grid_id: tuple[int, ...], Q: Cube):
        """Minimal grid cube containing Q: (anchor vector, side) in cells,
        anchor possibly outside the box; None when no scale <= 2^k_max works."""
        q = Q.side_cells
        k_lo = max(0, (q - 1).bit_length())
        for k in range(k_lo, self.k_max + 1):
            s = 1 << k
            anchor = []
            ok = True
            for ax, i in enumerate(grid_id):
                off = self.offsets[i][k]
                a = Q.anchor[ax]
                b = off + ((a - off) // s) * s
                if a + q > b + s:
                    ok = False
                    break
                anchor.append(b)
            if ok:
                return tuple(anchor), s
        return None


def _dyadic_max_on_window(
    fq: np.ndarray, Q: Cube, anchor: tuple[int, ...], s: int
) -> np.ndarray:
    """M over the bisection tree of the (possibly box-escaping) window
    [anchor, anchor+s), input f restricted to Q and extended by zero,
    returned on the cells of Q."""
    dim = len(anchor)
    pad = np.zeros((s,) * dim)
    sl = tuple(
        slice(Q.anchor[ax] - anchor[ax], Q.anchor[ax] - anchor[ax] + Q.side_cells)
        for ax in range(dim)
    )
    pad[sl] = fq
    return np.maximum(*dyadic_average_tree(pad)[0])[sl]


@dataclass(frozen=True)
class ShiftDominationReport:
    violations: int
    max_violation: float          # max of lhs - 3^dim * sum, <= 0 when clean
    lam_best_side_ratio: float    # best-aligned grid: parent side / cube side
    lam_max_dilation: float       # concentric dilation covering every parent
    located_all: bool
    escaped_box: bool             # some parent had to leave the box


def shifted_grid_domination_audit(
    f: GridFunction, Q: Cube, shifts: GridShiftSet | None = None
) -> ShiftDominationReport:
    """Check M_Q f <= 3^dim * sum over grids of M_dyadic over the located
    parent of (f restricted to Q), cellwise on Q.

    Each of the 3^dim shifted grids contributes its minimal cube containing
    Q; parents may stick out of the box (zero extension, flagged).  The
    best-aligned side ratio tracks the classical bound of 6; the max
    dilation over all parents is reported as well.
    """
    domain = f.domain
    if shifts is None:
        shifts = GridShiftSet(domain)
    lhs = m_localized(f, Q).values[Q.slices()]
    fq = np.abs(f.values[Q.slices()])
    total = np.zeros_like(fq)
    located_all = True
    escaped = False
    best_ratio = math.inf
    max_dil = 0.0
    q = Q.side_cells
    for gid in shifts.grid_ids():
        found = shifts.locate_parent(gid, Q)
        if found is None:
            located_all = False
            continue
        anchor, s = found
        if any(b < 0 or b + s > domain.n for b in anchor):
            escaped = True
        total += _dyadic_max_on_window(fq, Q, anchor, s)
        best_ratio = min(best_ratio, s / q)
        ext = max(
            max(Q.anchor[ax] - anchor[ax], (anchor[ax] + s) - (Q.anchor[ax] + q))
            for ax in range(domain.dim)
        )
        max_dil = max(max_dil, (2.0 * ext + q) / q)
    rhs = 3.0**domain.dim * total
    diff = lhs - rhs
    tol = 1e-12 * max(1.0, float(np.max(np.abs(lhs))))
    return ShiftDominationReport(
        violations=int(np.sum(diff > tol)),
        max_violation=float(np.max(diff)),
        lam_best_side_ratio=float(best_ratio),
        lam_max_dilation=float(max_dil),
        located_all=located_all,
        escaped_box=escaped,
    )
