"""Uniform dyadic grids, cell-aligned cubes, and exact cell-sum integration.

Everything downstream works on piecewise-constant functions over a uniform
grid of 2^level cells per axis on the box [0, side)^dim.  Integrals are then
exact finite sums, so inequality audits are exact up to float roundoff and
never owe anything to quadrature error.  Functions are extended by zero
outside the box; cube suprema are restricted to cubes inside the box.

Conventions used throughout the package:
  * a cube is anchored at integer cell coordinates and spans side_cells
    cells per axis, so anchor + side_cells <= n on every axis;
  * the radius of a cube is half its diagonal, sqrt(dim) * side_length / 2;
  * cube enumeration order is lexicographic by side_cells then anchor,
    except that CubeFamily.sweep visits its blocks of sides largest first,
    the one order of every sweep (cell_max's spread recurrence runs down
    the sides); within a block the order is side, then anchor, ascending;
  * a stack is a (B, *grid) array of B functions on one domain.  The sweep
    engine (CubeFamily.sweep, cube_extreme, cell_max and BoxSums) takes any
    leading batch axes in front of the grid and treats every function of
    the batch exactly as if it were alone, so one sweep serves a stack with
    bit-identical floats.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "ALL_CELL_ALIGNED",
    "BoxSums",
    "Cube",
    "CubeFamily",
    "DYADIC_GRID_OF",
    "Domain",
    "DomainMismatchError",
    "GridFunction",
    "InvalidWeightError",
    "SumOverflowError",
    "dyadic_average_tree",
    "dyadic_averages",
    "dyadic_sum_pyramid",
    "integrate",
    "load_grid_function",
    "require_same_domain",
    "require_stack",
    "require_weight",
    "save_grid_function",
    "weighted_measure",
]


class DomainMismatchError(ValueError):
    """Two grid objects do not live on the same domain."""


class InvalidWeightError(ValueError):
    """A weight must be strictly positive and finite on every cell."""


class SumOverflowError(ValueError):
    """A sweep input is finite on every cell, but its running sum over the
    root overflows, so its cube averages would read inf - inf."""


@dataclass(frozen=True)
class Domain:
    """Box [0, side)^dim split into 2^level cells per axis."""

    dim: int
    side: float
    level: int

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not (self.side > 0 and math.isfinite(self.side)):
            raise ValueError(f"side must be positive and finite, got {self.side}")
        if not (isinstance(self.level, int) and self.level >= 1):
            raise ValueError(f"level must be an integer >= 1, got {self.level}")

    @property
    def n(self) -> int:
        """Cells per axis."""
        return 1 << self.level

    @property
    def cell_width(self) -> float:
        return self.side / self.n

    @property
    def cell_volume(self) -> float:
        return self.cell_width**self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    def axis_centers(self) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        return (np.arange(self.n) + 0.5) * self.cell_width

    def cell_centers(self) -> np.ndarray:
        """(n^dim, dim) array of all cell centers, row-major cell order."""
        axes = [self.axis_centers() for _ in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def refine(self) -> "Domain":
        return Domain(self.dim, self.side, self.level + 1)


@dataclass(frozen=True)
class Cube:
    """Cell-aligned cube: anchor in cells, side_cells cells per axis."""

    domain: Domain
    anchor: tuple[int, ...]
    side_cells: int

    def __post_init__(self) -> None:
        if len(self.anchor) != self.domain.dim:
            raise ValueError("anchor length must equal domain dim")
        if self.side_cells < 1:
            raise ValueError("side_cells must be >= 1")
        for a in self.anchor:
            if a < 0 or a + self.side_cells > self.domain.n:
                raise ValueError(
                    f"cube [{self.anchor}, +{self.side_cells}) leaves the box"
                )

    @classmethod
    def box(cls, domain: Domain) -> "Cube":
        """The whole box as one cube."""
        return cls(domain, (0,) * domain.dim, domain.n)

    @property
    def side_length(self) -> float:
        return self.side_cells * self.domain.cell_width

    @property
    def radius(self) -> float:
        """Half diagonal, sqrt(dim) * side_length / 2."""
        return math.sqrt(self.domain.dim) * self.side_length / 2.0

    @property
    def volume(self) -> float:
        return self.side_length**self.domain.dim

    @property
    def cell_count(self) -> int:
        return self.side_cells**self.domain.dim

    def center(self) -> np.ndarray:
        h = self.domain.cell_width
        return (np.asarray(self.anchor, dtype=float) + self.side_cells / 2.0) * h

    def slices(self) -> tuple[slice, ...]:
        return tuple(slice(a, a + self.side_cells) for a in self.anchor)

    def contains_cube(self, other: "Cube") -> bool:
        if self.domain != other.domain:
            raise DomainMismatchError("cubes on different domains")
        return all(
            sa <= oa and oa + other.side_cells <= sa + self.side_cells
            for sa, oa in zip(self.anchor, other.anchor)
        )

    def contains_cell(self, cell: Sequence[int]) -> bool:
        return all(a <= c < a + self.side_cells for a, c in zip(self.anchor, cell))

    def mask(self) -> np.ndarray:
        m = np.zeros(self.domain.shape, dtype=bool)
        m[self.slices()] = True
        return m

    def children(self) -> list["Cube"]:
        """The 2^dim halves; only for even side_cells."""
        if self.side_cells % 2 != 0:
            raise ValueError("cannot bisect a cube with odd side_cells")
        half = self.side_cells // 2
        kids = []
        for offsets in np.ndindex(*(2,) * self.domain.dim):
            anchor = tuple(a + o * half for a, o in zip(self.anchor, offsets))
            kids.append(Cube(self.domain, anchor, half))
        return kids


@dataclass(frozen=True)
class GridFunction:
    """Piecewise-constant function: one float64 value per cell."""

    domain: Domain
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64).reshape(self.domain.shape)
        if not np.all(np.isfinite(arr)):
            raise ValueError("grid function values must be finite")
        object.__setattr__(self, "values", arr)

    @classmethod
    def constant(cls, domain: Domain, value: float) -> "GridFunction":
        return cls(domain, np.full(domain.shape, float(value)))

    @classmethod
    def from_callable(
        cls, domain: Domain, fn: Callable[[np.ndarray], np.ndarray]
    ) -> "GridFunction":
        """Sample fn at cell centers; fn maps (m, dim) points to (m,) values."""
        vals = np.asarray(fn(domain.cell_centers()), dtype=np.float64)
        return cls(domain, vals.reshape(domain.shape))

    @classmethod
    def indicator(cls, domain: Domain, cube: Cube) -> "GridFunction":
        if cube.domain != domain:
            raise DomainMismatchError("indicator cube on a different domain")
        vals = np.zeros(domain.shape)
        vals[cube.slices()] = 1.0
        return cls(domain, vals)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check(other)
        return GridFunction(self.domain, self.values + other.values)

    def __mul__(self, other) -> "GridFunction":
        if isinstance(other, GridFunction):
            self._check(other)
            return GridFunction(self.domain, self.values * other.values)
        return GridFunction(self.domain, self.values * float(other))

    __rmul__ = __mul__

    def abs(self) -> "GridFunction":
        return GridFunction(self.domain, np.abs(self.values))

    def power(self, exponent: float) -> "GridFunction":
        return GridFunction(self.domain, self.values**exponent)

    def _check(self, other: "GridFunction") -> None:
        if self.domain != other.domain:
            raise DomainMismatchError("grid functions on different domains")


def integrate(f: GridFunction, cube: Cube | None = None) -> float:
    """Exact integral: cell volume times the sum of cell values."""
    if cube is None:
        return float(f.values.sum()) * f.domain.cell_volume
    if cube.domain != f.domain:
        raise DomainMismatchError("cube on a different domain")
    return float(f.values[cube.slices()].sum()) * f.domain.cell_volume


def weighted_measure(w: GridFunction, cells: np.ndarray) -> float:
    """w-measure of a cell set given as a boolean mask over the grid."""
    mask = np.asarray(cells, dtype=bool)
    if mask.shape != w.domain.shape:
        raise DomainMismatchError("cell mask shape does not match the grid")
    return float(w.values[mask].sum()) * w.domain.cell_volume


def require_same_domain(*functions: GridFunction) -> None:
    """DomainMismatchError unless every function lives on one domain
    (same-shaped grids on different boxes count as different)."""
    if any(g.domain != functions[0].domain for g in functions[1:]):
        raise DomainMismatchError("grid functions on different domains")


def require_weight(w: GridFunction) -> GridFunction:
    if not np.all(w.values > 0):
        raise InvalidWeightError("weight has non-positive cells")
    return w


# ---------------------------------------------------------------------------
# cube families

ALL_CELL_ALIGNED = "all_cell_aligned"
DYADIC_GRID_OF = "dyadic_grid_of"

#: most entries of one ALL_CELL_ALIGNED sweep block, counted as inputs x
#: batch x sides x widest row: a block's averages then take 256 KB at most
#: over all inputs, and a one-input level-8 interval sweep takes two blocks
BLOCK_ELEMENTS = 1 << 15

#: most bytes of rho arrays and penalty powers one critical.PenaltyTable
#: holds, least recently used evicted first: 15 folds of the level-12
#: interval family (4m(m + 1) bytes at m = 4096) fit with its rho arrays,
#: all a d1 L12 mixed-M raises, and a fold past an eighth of it (level 13
#: and up) is never held but raised block by block, so a sweep of up to
#: eight exponents never evicts its own folds
PENALTY_BYTES = 1 << 30


@dataclass(frozen=True)
class CubeFamily:
    """Deterministic enumeration of the cubes inside a root cube, grouped by
    side for vector sweeps.  The root defaults to the whole box, so a family
    built with no root equals (and hashes as) the box-rooted one.

    Policies:
      * ALL_CELL_ALIGNED (dim 1 only): every cell-aligned interval inside the
        root; m(m+1)/2 of them on m cells.
      * DYADIC_GRID_OF (dims 1-3): recursive bisection tree of the root, a
        power-of-two cube: side_cells in {1, 2, 4, ..., side}, anchors on the
        stride lattice of the same granularity (disjoint tiles per side).

    Every sweep goes through sweep(), cube_cells(), cube_extreme() and
    cell_max(); all but cube_cells take a batch of functions on leading
    axes, and the per-block work is then paid once for the whole batch.

    sweep() yields blocks of sides, largest sides first.  A block is a
    (sides, row) rectangle: row j holds the cubes of side sides[j] at the
    block's anchors (those of its smallest side, sides[0]), so the rows
    shrink by one cube per side and padding() marks the tail each leaves.
    On ALL_CELL_ALIGNED a block holds as many consecutive sides as fit
    BLOCK_ELEMENTS (inputs x batch x sides x widest row), and none spans
    the middle side (span + 1) // 2, where PenaltyTable's fold of the
    interval triangle turns.  Every input of a sweep shares one BoxSums
    table (the inputs stacked on a leading axis), so a block is one read of
    the table: two strided views on intervals.  A padded entry is the cube
    clipped to the root: its sum
    and extremes run over the cells the window keeps, so it is finite
    wherever the window's own cells are.  DYADIC_GRID_OF has one side per
    block (its sides have unequal anchor counts).  The sweep reads a side
    s's tile sums straight off the prefix table: per inclusion-exclusion
    corner c, one strided slice(c s, c s + span - s + 1, s) on each axis,
    the floats box_sum gives at the side's anchors.  cube_extreme() and
    cell_max() view the root as one (tile, cell-in-tile) pair of axes per
    dimension, so one reshape serves every dim.  cube_extreme() and
    cell_max() only take minima and maxima, so they round nothing.  On
    ALL_CELL_ALIGNED cube_extreme() reads a block's rows off doubled
    windows, one call per run of sides that share a window width, and
    cell_max() spreads a block whole or side by side, whichever its shape
    makes cheaper.

    count() is closed-form and reads no anchors.
    """

    domain: Domain
    policy: str
    root: Cube | None = None

    def __post_init__(self) -> None:
        if self.policy not in (ALL_CELL_ALIGNED, DYADIC_GRID_OF):
            raise ValueError(f"unknown cube family policy {self.policy!r}")
        if self.policy == ALL_CELL_ALIGNED and self.domain.dim != 1:
            raise ValueError("ALL_CELL_ALIGNED is only supported in dim 1")
        if self.root is None:
            object.__setattr__(self, "root", Cube.box(self.domain))
        elif self.root.domain != self.domain:
            raise DomainMismatchError("root cube on a different domain")
        side = self.root.side_cells
        if self.policy == DYADIC_GRID_OF and side & (side - 1):
            raise ValueError("DYADIC_GRID_OF root side_cells must be a power of 2")

    def side_cells_list(self) -> list[int]:
        span = self.root.side_cells
        if self.policy == ALL_CELL_ALIGNED:
            return list(range(1, span + 1))
        return [1 << k for k in range(span.bit_length())]

    def anchors(self, side_cells: int) -> np.ndarray:
        """(m, dim) int array of anchors for this side, lexicographic order:
        on DYADIC_GRID_OF the meshgrid of root.anchor + k side_cells per axis."""
        root = self.root
        if self.policy == ALL_CELL_ALIGNED:
            lo = root.anchor[0]
            return np.arange(lo, lo + root.side_cells - side_cells + 1)[:, None]
        per_axis = [np.arange(a, a + root.side_cells, side_cells) for a in root.anchor]
        mesh = np.meshgrid(*per_axis, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def anchor(self, side_cells: int, index: int) -> tuple[int, ...]:
        """tuple(anchors(side_cells)[index]) for an index in range, by index
        arithmetic alone."""
        root = self.root
        if self.policy == ALL_CELL_ALIGNED:
            return (root.anchor[0] + index,)
        offsets = np.unravel_index(index, (root.side_cells // side_cells,) * self.domain.dim)
        return tuple(a + side_cells * int(k) for a, k in zip(root.anchor, offsets))

    def count(self) -> int:
        """Number of cubes in the family, in closed form."""
        span = self.root.side_cells
        if self.policy == ALL_CELL_ALIGNED:
            return span * (span + 1) // 2
        return sum((span // s) ** self.domain.dim for s in self.side_cells_list())

    def __iter__(self) -> Iterator[Cube]:
        for s in self.side_cells_list():
            for anchor in self.anchors(s):
                yield Cube(self.domain, tuple(int(a) for a in anchor), s)

    def _blocks(self, batch: int) -> Iterator[np.ndarray]:
        """The ascending sides of each sweep block, largest sides first."""
        if self.policy == DYADIC_GRID_OF:
            for s in reversed(self.side_cells_list()):
                yield np.array([s])
            return
        span = self.root.side_cells
        half = (span + 1) // 2
        cap = BLOCK_ELEMENTS // batch
        top = span
        while top > 0:
            # the most sides k with k * (widest row) = k * (span - top + k) <= cap
            d = span - top
            k = (math.isqrt(d * d + 4 * cap) - d) // 2
            k = min(max(k, 1), top - (half if top > half else 0))
            yield np.arange(top - k + 1, top + 1)
            top -= k

    def padding(self, sides: np.ndarray, width: int) -> np.ndarray:
        """(sides, width) mask of a sweep block's padded entries: row j
        holds width - j cubes (a block's sides are consecutive), then
        padding.  A read-only view whose row j starts j entries into one
        run of width False then len(sides) - 1 True."""
        k = len(sides)
        run = np.zeros(width + k - 1, dtype=bool)
        run[width:] = True
        return _view(run, 0, (k, width), (1, 1))

    def sweep(self, *values: np.ndarray):
        """Per block of sides, largest sides first: (sides, avgs).

        Each input is (..., *grid): any leading axes are a batch of
        functions (one function is a bare grid array, or the batch of one).
        sides is the block's ascending (k,) int array.  avgs holds one (...,
        k, W) array per input: entry [..., j, a] is the average of the
        function over the cube of side sides[j] at anchor(sides[0], a), the
        a-th anchor of the block's smallest side, read from one BoxSums
        table of the root for every input (the inputs share one shape);
        entries that padding() marks are clipped cubes.  An input whose
        cells are finite but whose running sum over the root overflows is
        refused with SumOverflowError.
        """
        dim = self.domain.dim
        region = (Ellipsis,) + self.root.slices()
        arrays = [np.asarray(v, dtype=np.float64)[region] for v in values]
        # the inputs as one stack (a lone input's view, else a copy held
        # only while the table is built), so each block is one table read
        with np.errstate(over="ignore", invalid="ignore"):
            table = BoxSums(arrays[0][None] if len(arrays) == 1 else np.stack(arrays), dim)
        totals = table.table[(Ellipsis,) + (-1,) * dim]
        for i, total in enumerate(totals):
            if not np.isfinite(total).all():
                raise SumOverflowError(
                    f"the running sum of sweep input {i} over the root overflows, "
                    "so its cube averages would read inf - inf"
                )
        batch = math.prod(totals.shape)
        span = self.root.side_cells
        for sides in self._blocks(batch):
            s = int(sides[0])
            if self.policy == ALL_CELL_ALIGNED:
                sums = table.interval_sums(s, len(sides))
                np.divide(sums, sides[:, None], out=sums)
            else:
                # the side's tiles of the root: one lattice per axis
                sums = table._corner_sums([(0, s, span // s)] * dim, s)
                np.divide(sums, s**dim, out=sums)
                sums = sums.reshape(sums.shape[:-dim] + (1, -1))
            yield sides, list(sums)

    def _tiles(self, region: np.ndarray, s: int) -> np.ndarray:
        """View of a (..., *grid) region as (tile, cell-in-tile) axis pairs,
        one per dim, after the leading axes."""
        dim = self.domain.dim
        k = region.shape[-1] // s
        return region.reshape(region.shape[:-dim] + (k, s) * dim)

    def cube_cells(self, values: np.ndarray, s: int) -> np.ndarray:
        """(cubes, s**dim) array: row i holds the cell values of the i-th cube
        of side s (anchors order), each row in the cube's row-major order."""
        vals = np.asarray(values, dtype=np.float64)[self.root.slices()]
        if self.policy == ALL_CELL_ALIGNED:
            return sliding_window_view(vals, s)
        dim = self.domain.dim
        order = tuple(range(0, 2 * dim, 2)) + tuple(range(1, 2 * dim, 2))
        return self._tiles(vals, s).transpose(order).reshape(-1, s**dim)

    def cube_extreme(
        self, values: np.ndarray, sides: np.ndarray, kind: str
    ) -> np.ndarray:
        """Min or max (kind) over each cube of a sweep block of sides, of
        each function of a (..., *grid) batch: shape (..., k, W), laid out
        as sweep's avgs (a padded entry is the extreme of the clipped cube)."""
        vals = np.asarray(values, dtype=np.float64)[(Ellipsis,) + self.root.slices()]
        s = int(sides[0])
        if self.policy == DYADIC_GRID_OF:
            op = np.min if kind == "min" else np.max
            tiles = self._tiles(vals, s)
            lead = tiles.ndim - 2 * self.domain.dim
            inner = tuple(range(lead + 1, tiles.ndim, 2))
            return op(tiles, axis=inner).reshape(tiles.shape[:lead] + (1, -1))
        # ext[..., i] is the extreme of the w cells from i, clipped to the
        # root (cells past it are the operation's identity); a row of side
        # r in [w, 2w] reads ext at a and at a + r - w, whose windows cover
        # [a, a + r) between them, so each doubling of w serves a run of
        # rows in one call
        op = np.minimum if kind == "min" else np.maximum
        identity = np.inf if kind == "min" else -np.inf
        k = len(sides)
        m = vals.shape[-1] - s + 1
        pad = np.full(vals.shape[:-1] + (k - 1,), identity)
        ext, w = np.concatenate([vals, pad], axis=-1), 1
        out = np.empty(vals.shape[:-1] + (k, m))
        row = 0
        while row < k:
            r = s + row
            while 2 * w <= r:
                ext = op(ext[..., :-w], ext[..., w:])
                w *= 2
            count = min(k - row, 2 * w - r + 1)
            # far[..., i, a] = ext[..., a + r - w + i], one row per side
            step = ext.strides[-1]
            far = _view(
                ext, r - w, ext.shape[:-1] + (count, m), ext.strides[:-1] + (step, step)
            )
            op(ext[..., None, :m], far, out=out[..., row : row + count, :])
            row += count
        return out

    def cell_max(self, scores: np.ndarray, sides: np.ndarray, out: np.ndarray) -> None:
        """Spread each cube's score of a sweep block, laid out as sweep's
        avgs, onto the cells the cube covers, keeping the running max in
        out.  out is (..., *grid) and scores (..., k, W), with the same
        leading axes; padded entries are never read.  scores may be
        overwritten (callers pass a fresh array per block).

        ALL_CELL_ALIGNED carries state in out: it takes every side in sweep
        order (largest first) on an out that is -inf over the root
        (maximal._cell_floor gives that).  With H_s[a] the largest
        score of an interval of s or more cells containing [a, a+s),
        H_s[a] = max(score_s[a], H_{s+1}[a-1], H_{s+1}[a]) and H_1 is the
        cellwise sup; out[..., a] holds H_s[a] once side s is in.  A block
        runs by whichever of two kernels its shape makes cheaper (see
        _spread_whole_block); both take the max of the same scores, so
        out's floats do not depend on the choice.
        """
        view = out[(Ellipsis,) + self.root.slices()]
        if self.policy == ALL_CELL_ALIGNED:
            if _spread_whole_block(scores):
                _spread_block(view, scores, self.padding(sides, scores.shape[-1]))
            else:
                _spread_sides(view, scores, sides)
            return
        s = int(sides[0])
        tiles = self._tiles(view, s)
        lead = view.shape[: view.ndim - self.domain.dim]
        k = view.shape[-1] // s
        np.maximum(tiles, scores.reshape(lead + (k, 1) * self.domain.dim), out=tiles)


#: the whole-block spread kernel runs on blocks of at least this many
#: sides whose rows hold at most this many entries over the stack (B W).
#: The side loop pays about 4 us of calls per side, the block kernel a
#: fixed 20 us and a strided suffix max over the whole block.  Timed on
#: blocks of 1-16 functions, 4-181 sides and 11-512 anchors (one core of a
#: 2-core x86 host, numpy 2.4), the block kernel won on most shapes inside
#: these bounds and lost on most outside them; in the benchmark's passes
#: it took cell_max from 8.6 to 4.1 ms (extrap) and 14.9 to 8.6 ms (sweep)
_BLOCK_MIN_SIDES = 8
_BLOCK_MAX_ROW = 1024


def _spread_whole_block(scores: np.ndarray) -> bool:
    """True when _spread_block is the cheaper kernel for a block of scores
    (..., k, W): many sides, few entries per row over the stack."""
    k = scores.shape[-2]
    return (
        k >= _BLOCK_MIN_SIDES
        and scores.size // k <= _BLOCK_MAX_ROW
        and scores.flags.c_contiguous
    )


def _spread_sides(view: np.ndarray, scores: np.ndarray, sides: np.ndarray) -> None:
    """The spread recurrence one side at a time, largest first: two
    in-place maxima per side.  H_{s+1}[a-1] folds into the side's scores,
    whose memory no input of that maximum shares, then the scores fold
    into view."""
    span = view.shape[-1]
    for j in range(len(sides) - 1, -1, -1):
        m = span - int(sides[j]) + 1
        row = scores[..., j, :m]
        np.maximum(row[..., 1:], view[..., : m - 1], out=row[..., 1:])
        np.maximum(view[..., :m], row, out=view[..., :m])


def _spread_block(view: np.ndarray, scores: np.ndarray, pad: np.ndarray) -> None:
    """The spread recurrence over a whole block of k sides s0 .. s0+k-1 in
    a fixed number of calls.  Unrolled, H_s0[a] is the max of score_j[b]
    over the block's rows j and anchors a - j <= b <= a, and of the state
    H_{s0+k}[b] over a - k <= b <= a.  The largest side takes one step of
    the recurrence, so its row holds H_{s0+k-1} and carries the state;
    with the padding at -inf, a suffix max over the rows makes row d hold
    the best score of any side >= s0 + d, and H_s0[a] is the max of row d
    at a - d over d: one max along the anti-diagonals, read through a
    view whose row stride is one entry short of the block's (for a < d
    that view reads row d - 1's padding, except at a = 0, where H_s0 is
    row 0's first entry).  scores is C-contiguous (..., k, W)."""
    k, width = scores.shape[-2:]
    m = width - k + 1
    top = scores[..., k - 1, :m]
    np.maximum(top[..., 1:], view[..., : m - 1], out=top[..., 1:])
    np.maximum(top, view[..., :m], out=top)
    np.copyto(scores, -np.inf, where=pad)
    rows_up = scores[..., ::-1, :]
    np.maximum.accumulate(rows_up, axis=-2, out=rows_up)
    strides = scores.strides
    diagonals = _view(
        scores, 1, scores.shape[:-2] + (k, width - 1),
        strides[:-2] + (strides[-2] - strides[-1], strides[-1]),
    )
    np.max(diagonals, axis=-2, out=view[..., 1:width])
    view[..., 0] = scores[..., 0, 0]


def _view(arr: np.ndarray, start: int, shape: tuple, strides: tuple) -> np.ndarray:
    """Read-only view of the C-contiguous arr from its flat entry start,
    with shape and byte strides that stay inside arr: as_strided, without
    the microseconds of checks it spends per call."""
    view = np.ndarray(shape, arr.dtype, arr, start * arr.itemsize, strides)
    view.flags.writeable = False
    return view


# ---------------------------------------------------------------------------
# fast cube sums

class BoxSums:
    """O(1) sums over cell boxes after one cumulative-sum pass.

    values is (..., *grid) with dim grid axes (all axes when dim is None);
    leading axes are a batch of functions sharing the grid.  The padded
    prefix table P satisfies P[..., i1,...,id] = sum of values over cells
    [0,i1) x ... x [0,id): a zeroed table with one cumsum per grid axis
    written into its interior in place (the floats of np.pad around the
    cumsums).  A box sum is the usual 2^dim-corner inclusion-exclusion over
    a product lattice of anchors, one strided slice per corner, in one
    loop: box_sum derives the lattice from anchor rows, and the bisection
    tree sweep passes a side's tile lattice to it directly.  In dim 1 the
    table runs on past P[m] with m - 1 copies of it, and interval_sums
    reads it through one (m + 1, m) window view, row i starting at P[i].
    """

    def __init__(self, values: np.ndarray, dim: int | None = None):
        arr = np.asarray(values, dtype=np.float64)
        self.dim = arr.ndim if dim is None else dim
        lead = arr.ndim - self.dim
        if self.dim == 1:
            m = arr.shape[-1]
            run = np.empty(arr.shape[:-1] + (2 * m,))
            run[..., 0] = 0.0
            np.cumsum(arr, axis=-1, out=run[..., 1 : m + 1])
            run[..., m + 1 :] = run[..., m : m + 1]
            self.table = run[..., : m + 1]
            self._windows = sliding_window_view(run, m, axis=-1)
        else:
            # zero borders, the cumsums written into the interior in place
            self.table = np.zeros(arr.shape[:lead] + tuple(n + 1 for n in arr.shape[lead:]))
            inner = self.table[(Ellipsis,) + (slice(1, None),) * self.dim]
            np.cumsum(arr, axis=lead, out=inner)
            for ax in range(lead + 1, arr.ndim):
                np.cumsum(inner, axis=ax, out=inner)

    def interval_sums(self, first: int, count: int) -> np.ndarray:
        """Dim 1: sums over [a, a + first + j) for j < count and every anchor
        a = 0..m - first, shape (..., count, m - first + 1): the strided view
        hi = P[a + first + j] minus the view lo = P[a], the floats box_sum
        gives.  Windows past cell m - 1 read P[m], so they sum the cells
        they keep."""
        width = self.table.shape[-1] - first
        hi = self._windows[..., first : first + count, :width]
        return np.subtract(hi, self.table[..., None, :width])

    def box_sum(self, anchors: np.ndarray, side_cells: int) -> np.ndarray:
        """Sums over [anchor, anchor + side_cells) for each row of anchors,
        shape (..., rows) with the table's leading axes.

        The rows must form a product lattice in lexicographic order, each
        axis an increasing arithmetic progression, as CubeFamily.anchors
        gives them (a single anchor is the one-point lattice).  Every corner
        of the inclusion-exclusion is then one strided slice of the table.
        """
        a = np.atleast_2d(np.asarray(anchors, dtype=np.int64))
        first, last = a[0].tolist(), a[-1].tolist()
        lattice = [(0, 1, 1)] * self.dim  # per axis: first, step, count
        rows = 1
        for ax in reversed(range(self.dim)):
            step = int(a[rows, ax]) - first[ax] if rows < len(a) else 0
            count = (last[ax] - first[ax]) // step + 1 if step > 0 else 1
            step = max(step, 1)
            if first[ax] + (count - 1) * step != last[ax]:
                rows = -1
                break
            lattice[ax] = (first[ax], step, count)
            rows *= count
        if rows != len(a):
            raise ValueError("box_sum anchors must form a lexicographic lattice")
        total = self._corner_sums(lattice, side_cells)
        return total.reshape(total.shape[: total.ndim - self.dim] + (rows,))

    def _corner_sums(self, lattice, side_cells: int) -> np.ndarray:
        """Sums over the boxes of side side_cells anchored on a product
        lattice, given per axis as (first, step, count): shape (...,
        *counts).  Each of the 2^dim corners is one strided slice of the
        table, added to or subtracted from a zeros total in a fixed order."""
        lead = self.table.shape[: self.table.ndim - self.dim]
        total = np.zeros(lead + tuple(count for _, _, count in lattice))
        # per axis the slices of the low (0) and the high (1) corner
        ends = [
            (slice(lo, lo + step * (count - 1) + 1, step),
             slice(lo + side_cells, lo + side_cells + step * (count - 1) + 1, step))
            for lo, step, count in lattice
        ]
        corners = itertools.product((0, 1), repeat=self.dim)
        for corner, idx in zip(corners, itertools.product(*ends)):
            add = np.add if (self.dim - sum(corner)) % 2 == 0 else np.subtract
            add(total, self.table[(Ellipsis,) + idx], out=total)
        return total


def dyadic_sum_pyramid(values: np.ndarray) -> list[np.ndarray]:
    """Cell sums of every dyadic block, built by pairwise child sums.

    levels[j] has shape (m/2^j,)*dim and entry = sum over the corresponding
    2^j-wide block.  dyadic_average_tree reads every dyadic and stopping-time
    average from it, so the comparisons the proofs chain together see
    bit-identical floats.  Pairwise child sums are local: the slice of the
    pyramid under a block is that block's own pyramid.  Finite values whose
    sum over some block overflows are refused with SumOverflowError.
    """
    arr = np.asarray(values, dtype=np.float64)
    m = arr.shape[0]
    if any(s != m for s in arr.shape) or m & (m - 1):
        raise ValueError("pyramid needs a cubical power-of-two array")
    levels = [arr]
    with np.errstate(over="ignore", invalid="ignore"):
        while m > 1:
            nxt = levels[-1]
            for ax in range(arr.ndim):
                pick = (slice(None),) * ax
                nxt = nxt[pick + (slice(0, None, 2),)] + nxt[pick + (slice(1, None, 2),)]
            levels.append(nxt)
            m //= 2
    # an overflowed block sum is inf, and so are (or nan) its ancestors'
    if not np.isfinite(levels[-1]).all() and np.isfinite(arr).all():
        raise SumOverflowError(
            "a dyadic block sum of finite values overflows, so its average "
            "would read inf"
        )
    return levels


def dyadic_averages(values: np.ndarray) -> list[np.ndarray]:
    """Per level j, the 2^j-wide block averages off dyadic_sum_pyramid."""
    sums = dyadic_sum_pyramid(values)
    return [s / float((1 << j) ** s.ndim) for j, s in enumerate(sums)]


def dyadic_average_tree(values: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per level j: (avg_j, above_j), the dyadic_averages of level j and
    each block's largest strict-ancestor average (-inf at the root).
    M_dyadic is max(avg_0, above_0), and a block is a stopping cube at lam
    exactly when above <= lam < avg.
    """
    return _average_tree(dyadic_averages(values))


def _average_tree(avgs: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """dyadic_average_tree of a dyadic_averages list (or of its slice under
    one block): each block's largest strict-ancestor average, -inf at the top."""
    above = [np.full_like(avgs[-1], -np.inf)]
    for avg in avgs[:0:-1]:
        up = np.maximum(above[-1], avg)
        for ax in range(up.ndim):
            up = np.repeat(up, 2, axis=ax)
        above.append(up)
    return list(zip(avgs, above[::-1]))


def require_stack(values, domain: Domain) -> np.ndarray:
    """values as a (B, *grid) float stack of B >= 1 functions on domain;
    any other shape is rejected."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != domain.dim + 1 or arr.shape[1:] != domain.shape or len(arr) < 1:
        raise ValueError(
            f"expected a (B, {', '.join(map(str, domain.shape))}) stack of grid "
            f"values, got shape {arr.shape}"
        )
    return arr


# ---------------------------------------------------------------------------
# serialization: CSV values (one per line, row-major) + JSON header

def save_grid_function(f: GridFunction, basepath: str | Path) -> Path:
    """Write <base>.csv (one value per line, row-major) and <base>.json."""
    base = Path(basepath)
    csv_path = base.with_suffix(".csv")
    np.savetxt(csv_path, f.values.ravel(), fmt="%.17g")
    header = {
        "dim": f.domain.dim,
        "side": f.domain.side,
        "level": f.domain.level,
        "values_file": csv_path.name,
    }
    json_path = base.with_suffix(".json")
    json_path.write_text(json.dumps(header, sort_keys=True, indent=1))
    return json_path


def load_grid_function(path: str | Path) -> GridFunction:
    json_path = Path(path)
    if json_path.suffix != ".json":
        json_path = json_path.with_suffix(".json")
    header = json.loads(json_path.read_text())
    for key in ("dim", "side", "level"):
        if key not in header:
            raise ValueError(f"grid function header missing {key!r}")
    domain = Domain(int(header["dim"]), float(header["side"]), int(header["level"]))
    values_file = json_path.parent / header.get("values_file", json_path.stem + ".csv")
    vals = np.loadtxt(values_file)
    if vals.size != domain.n**domain.dim:
        raise ValueError(
            f"value count {vals.size} does not match header "
            f"(expected {domain.n ** domain.dim})"
        )
    return GridFunction(domain, vals.reshape(domain.shape))
