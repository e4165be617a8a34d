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
    except that CubeFamily.sweep visits the sides largest first, the one
    order of every sweep (cell_max's spread recurrence runs down the sides);
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
    "DYADIC_SIDES",
    "Domain",
    "DomainMismatchError",
    "GridFunction",
    "InvalidWeightError",
    "average",
    "dyadic_average_tree",
    "dyadic_averages",
    "dyadic_sum_pyramid",
    "enumerate_cubes",
    "integrate",
    "load_grid_function",
    "require_stack",
    "require_weight",
    "save_grid_function",
    "weighted_measure",
]


class DomainMismatchError(ValueError):
    """Two grid objects do not live on the same domain."""


class InvalidWeightError(ValueError):
    """A weight must be strictly positive and finite on every cell."""


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


def average(f: GridFunction, cube: Cube) -> float:
    if cube.domain != f.domain:
        raise DomainMismatchError("cube on a different domain")
    return float(f.values[cube.slices()].sum()) / cube.cell_count


def weighted_measure(w: GridFunction, cells: np.ndarray) -> float:
    """w-measure of a cell set given as a boolean mask over the grid."""
    mask = np.asarray(cells, dtype=bool)
    if mask.shape != w.domain.shape:
        raise DomainMismatchError("cell mask shape does not match the grid")
    return float(w.values[mask].sum()) * w.domain.cell_volume


def require_weight(w: GridFunction) -> GridFunction:
    if not np.all(w.values > 0):
        raise InvalidWeightError("weight has non-positive cells")
    return w


# ---------------------------------------------------------------------------
# cube families

ALL_CELL_ALIGNED = "all_cell_aligned"
DYADIC_SIDES = "dyadic_sides"
DYADIC_GRID_OF = "dyadic_grid_of"


@dataclass(frozen=True)
class CubeFamily:
    """Deterministic enumeration of cubes, grouped by side for vector sweeps.

    Policies:
      * ALL_CELL_ALIGNED (dim 1 only): every cell-aligned interval inside the
        root, or inside the box when no root is given; m(m+1)/2 of them on m
        cells.
      * DYADIC_SIDES (dims 1-3): side_cells in {1, 2, 4, ..., n}, anchors on
        the stride lattice of the same granularity (disjoint tiles per side).
      * DYADIC_GRID_OF (dims 1-3): recursive bisection tree of a root cube.

    Every sweep goes through sweep(), cube_cells(), cube_extreme() and
    cell_max(); all but cube_cells take a batch of functions on leading
    axes, and the per-side work is then paid once for the whole batch.
    sweep() yields the sides largest first.  On ALL_CELL_ALIGNED, min and
    max recurrences along the last axis give cube_extreme() and cell_max()
    with no rounding; the two dyadic policies view the covered region as
    one (tile, cell-in-tile) pair of axes per dimension, so one reshape
    serves every dim.  Every side's anchors form a regular lattice, which
    BoxSums reads by strided slices.
    """

    domain: Domain
    policy: str
    root: Cube | None = None

    def __post_init__(self) -> None:
        if self.policy not in (ALL_CELL_ALIGNED, DYADIC_SIDES, DYADIC_GRID_OF):
            raise ValueError(f"unknown cube family policy {self.policy!r}")
        if self.policy == ALL_CELL_ALIGNED and self.domain.dim != 1:
            raise ValueError("ALL_CELL_ALIGNED is only supported in dim 1")
        if self.root is not None and self.root.domain != self.domain:
            raise DomainMismatchError("root cube on a different domain")
        if self.policy == DYADIC_GRID_OF:
            if self.root is None:
                raise ValueError("DYADIC_GRID_OF needs a root cube")
            if self.root.side_cells & (self.root.side_cells - 1):
                raise ValueError("DYADIC_GRID_OF root side_cells must be a power of 2")
        elif self.policy == DYADIC_SIDES and self.root is not None:
            raise ValueError("DYADIC_SIDES tiles the whole box and takes no root")

    def _span(self) -> int:
        return self.root.side_cells if self.root is not None else self.domain.n

    def region(self) -> tuple[slice, ...]:
        """The cells the family's cubes cover: the root, else the whole box."""
        if self.root is not None:
            return self.root.slices()
        return (slice(None),) * self.domain.dim

    def side_cells_list(self) -> list[int]:
        span = self._span()
        if self.policy == ALL_CELL_ALIGNED:
            return list(range(1, span + 1))
        return [1 << k for k in range(span.bit_length())]

    def anchors(self, side_cells: int) -> np.ndarray:
        """(m, dim) int array of anchors for this side, lexicographic order."""
        lo = self.root.anchor if self.root is not None else (0,) * self.domain.dim
        span = self._span()
        if self.policy == ALL_CELL_ALIGNED:
            return np.arange(lo[0], lo[0] + span - side_cells + 1)[:, None]
        per_axis = [np.arange(a, a + span, side_cells) for a in lo]
        mesh = np.meshgrid(*per_axis, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def count(self) -> int:
        return sum(len(self.anchors(s)) for s in self.side_cells_list())

    def __iter__(self) -> Iterator[Cube]:
        for s in self.side_cells_list():
            for anchor in self.anchors(s):
                yield Cube(self.domain, tuple(int(a) for a in anchor), s)

    def sweep(self, *values: np.ndarray):
        """Per side, largest first: (side, anchors, avgs).

        Each input is (..., *grid): any leading axes are a batch of
        functions (one function is a bare grid array, or the batch of one).
        avgs holds one (..., cubes) array per input: the average of every
        function over every cube of the side, in anchors order, read from a
        BoxSums table of the covered region.
        """
        dim = self.domain.dim
        region = (Ellipsis,) + self.region()
        tables = [BoxSums(np.asarray(v, dtype=np.float64)[region], dim) for v in values]
        origin = None if self.root is None else np.asarray(self.root.anchor)
        for s in reversed(self.side_cells_list()):
            anchors = self.anchors(s)
            local = anchors if origin is None else anchors - origin
            cells = s**dim
            yield s, anchors, [t.box_sum(local, s) / cells for t in tables]

    def _tiles(self, region: np.ndarray, s: int) -> np.ndarray:
        """View of a (..., *grid) region as (tile, cell-in-tile) axis pairs,
        one per dim, after the leading axes."""
        dim = self.domain.dim
        k = region.shape[-1] // s
        return region.reshape(region.shape[:-dim] + (k, s) * dim)

    def cube_cells(self, values: np.ndarray, s: int) -> np.ndarray:
        """(cubes, s**dim) array: row i holds the cell values of the i-th cube
        of side s (anchors order), each row in the cube's row-major order."""
        vals = np.asarray(values, dtype=np.float64)[self.region()]
        if self.policy == ALL_CELL_ALIGNED:
            return sliding_window_view(vals, s)
        dim = self.domain.dim
        order = tuple(range(0, 2 * dim, 2)) + tuple(range(1, 2 * dim, 2))
        return self._tiles(vals, s).transpose(order).reshape(-1, s**dim)

    def cube_extreme(self, values: np.ndarray, s: int, kind: str) -> np.ndarray:
        """Min or max (kind) over each cube of side s, anchors order, of each
        function of a (..., *grid) batch: shape (..., cubes)."""
        vals = np.asarray(values, dtype=np.float64)[(Ellipsis,) + self.region()]
        if self.policy == ALL_CELL_ALIGNED:
            # extremes of w-cell windows, doubling w while 2w <= s; the
            # windows at a and a+s-w then cover [a, a+s) between them
            op = np.minimum if kind == "min" else np.maximum
            m = vals.shape[-1] - s + 1
            ext, w = vals, 1
            while 2 * w <= s:
                ext = op(ext[..., :-w], ext[..., w:])
                w *= 2
            return op(ext[..., :m], ext[..., s - w : s - w + m])
        op = np.min if kind == "min" else np.max
        tiles = self._tiles(vals, s)
        lead = tiles.ndim - 2 * self.domain.dim
        inner = tuple(range(lead + 1, tiles.ndim, 2))
        return op(tiles, axis=inner).reshape(tiles.shape[:lead] + (-1,))

    def cell_max(self, scores: np.ndarray, s: int, out: np.ndarray) -> None:
        """Spread each cube's score (anchors order) onto the cells the cube
        covers, keeping the running max in out.  out is (..., *grid) and
        scores (..., cubes), with the same leading axes.

        ALL_CELL_ALIGNED carries state in out: it takes every side in sweep
        order (largest first) on an out that is -inf over the family's
        region (maximal._cell_floor gives that).  With H_s[a] the largest
        score of an interval of s or more cells containing [a, a+s),
        H_s[a] = max(score_s[a], H_{s+1}[a-1], H_{s+1}[a]) and H_1 is the
        cellwise sup.  out[..., a] holds H_s[a] once side s is in, so each
        side costs two in-place maxima and no padding.
        """
        view = out[(Ellipsis,) + self.region()]
        if self.policy == ALL_CELL_ALIGNED:
            m = view.shape[-1] - s + 1
            np.maximum(view[..., 1:m], view[..., : m - 1], out=view[..., 1:m])
            np.maximum(view[..., :m], scores, out=view[..., :m])
            return
        tiles = self._tiles(view, s)
        lead = view.shape[: view.ndim - self.domain.dim]
        k = view.shape[-1] // s
        np.maximum(tiles, scores.reshape(lead + (k, 1) * self.domain.dim), out=tiles)


def enumerate_cubes(
    domain: Domain, policy: str, root: Cube | None = None
) -> CubeFamily:
    return CubeFamily(domain, policy, root)


# ---------------------------------------------------------------------------
# fast cube sums

class BoxSums:
    """O(1) sums over cell boxes after one cumulative-sum pass.

    values is (..., *grid) with dim grid axes (all axes when dim is None);
    leading axes are a batch of functions sharing the grid.  The padded
    prefix table P satisfies P[..., i1,...,id] = sum of values over cells
    [0,i1) x ... x [0,id), built by one cumsum per grid axis; a box sum is
    the usual 2^dim-corner inclusion-exclusion.
    """

    def __init__(self, values: np.ndarray, dim: int | None = None):
        arr = np.asarray(values, dtype=np.float64)
        self.dim = arr.ndim if dim is None else dim
        lead = arr.ndim - self.dim
        p = arr
        for ax in range(lead, arr.ndim):
            p = np.cumsum(p, axis=ax)
        self.table = np.pad(p, [(0, 0)] * lead + [(1, 0)] * self.dim)

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
        lead = self.table.shape[: self.table.ndim - self.dim]
        total = np.zeros(lead + tuple(count for _, _, count in lattice))
        for corner in itertools.product((0, 1), repeat=self.dim):
            idx = tuple(
                slice(lo + c * side_cells, lo + c * side_cells + step * (count - 1) + 1, step)
                for (lo, step, count), c in zip(lattice, corner)
            )
            add = np.add if (self.dim - sum(corner)) % 2 == 0 else np.subtract
            add(total, self.table[(Ellipsis,) + idx], out=total)
        return total.reshape(lead + (rows,))


def dyadic_sum_pyramid(values: np.ndarray) -> list[np.ndarray]:
    """Cell sums of every dyadic block, built by pairwise child sums.

    levels[j] has shape (m/2^j,)*dim and entry = sum over the corresponding
    2^j-wide block.  dyadic_average_tree reads every dyadic and stopping-time
    average from it, so the comparisons the proofs chain together see
    bit-identical floats.
    """
    arr = np.asarray(values, dtype=np.float64)
    m = arr.shape[0]
    if any(s != m for s in arr.shape) or m & (m - 1):
        raise ValueError("pyramid needs a cubical power-of-two array")
    levels = [arr]
    while m > 1:
        cur = levels[-1]
        nxt = cur
        for ax in range(arr.ndim):
            shape = list(nxt.shape)
            shape[ax] = shape[ax] // 2
            shape.insert(ax + 1, 2)
            nxt = nxt.reshape(shape).sum(axis=ax + 1)
        levels.append(nxt)
        m //= 2
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
    avgs = dyadic_averages(values)
    above = [np.full_like(avgs[-1], -np.inf)]
    for avg in avgs[:0:-1]:
        up = np.maximum(above[-1], avg)
        for ax in range(up.ndim):
            up = np.repeat(up, 2, axis=ax)
        above.append(up)
    return list(zip(avgs, above[::-1]))


def require_stack(values, domain: Domain) -> np.ndarray:
    """values as a (B, *grid) float stack of B functions on domain; any
    other shape is rejected."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != domain.dim + 1 or arr.shape[1:] != domain.shape:
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
