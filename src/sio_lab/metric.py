"""Finite metric spaces: point clouds with descriptor-driven distances.

Metrics are a closed enumeration (p-metrics, snowflakes of them, or an
explicit distance table) so that every experiment is serializable and
reproducible. Clouds are immutable; distances are pure functions of the
descriptor and the coordinates.

_block_bounds bounds every computed distance between a set of rows and a
block of _BLOCK consecutive columns, exactly, from the two boxes: with the
rows in [rlo, rhi] and the block in [clo, chi] in coordinate c, the
computed |fl(x_c - y_c)| is at least fl(rlo - chi) when rlo > chi (and
fl(clo - rhi) when clo > rhi) and at most max(fl(rhi - clo),
fl(chi - rlo)), because IEEE subtraction is sign-symmetric and
round-to-nearest is monotone in the exact result. For euclidean_p with p
in {1, 2, inf}, _norm uses only abs, multiplication, left-to-right
addition, sqrt and maximum, each correctly rounded and so nondecreasing in
nonnegative arguments: _norm of the per-coordinate box gaps and spans
bounds _norm of the differences (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., section 2.1). Any other p and snowflakes
go through np.power, which carries no such guarantee, and a table has no
coordinates: their bounds are (0, inf), so a caller that skips the pairs
a bound decides evaluates every block of them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateInputError, InputError, json_shape
from .sums import thread_map

EUCLIDEAN_P = "euclidean_p"
SNOWFLAKE = "snowflake"
CUSTOM_TABLE = "custom_table"


@dataclass(frozen=True)
class MetricDescriptor:
    """Which distance the cloud carries.

    family:
      - "euclidean_p": d_p metric with exponent p in [1, inf] (p=math.inf ok)
      - "snowflake":   (d_p)^alpha with 0 < alpha <= 1
      - "custom_table": explicit N x N distance matrix (escape hatch for
        arbitrary finite metric spaces)
    """

    family: str
    dimension: int
    p: float = 2.0
    alpha: float = 1.0

    def __post_init__(self):
        if self.family not in (EUCLIDEAN_P, SNOWFLAKE, CUSTOM_TABLE):
            raise InputError(f"unknown metric family {self.family!r}")
        if self.dimension < 1:
            raise InputError("dimension must be a positive integer")
        if self.family in (EUCLIDEAN_P, SNOWFLAKE):
            if not (self.p >= 1.0):
                raise InputError("p must satisfy p >= 1 (math.inf allowed)")
        if self.family == SNOWFLAKE and not (0.0 < self.alpha <= 1.0):
            raise InputError("snowflake exponent must lie in (0, 1]")


@dataclass(frozen=True)
class PointCloud:
    """Immutable finite metric space: coordinates plus a metric descriptor.

    Point ids are the row indices 0..N-1. `table` is only set for the
    custom_table family. `columns` is the coordinates' one contiguous
    (dimension, N) copy, made on first use, from which the distance and
    kernel blocks read each coordinate.
    """

    coords: np.ndarray
    metric: MetricDescriptor
    diameter: float
    table: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def n_points(self) -> int:
        return self.coords.shape[0]

    def check_id(self, i: int) -> None:
        if not (0 <= int(i) < self.n_points):
            raise InputError(f"unknown point id {i} (cloud has {self.n_points})")

    @cached_property
    def columns(self) -> np.ndarray:
        return np.ascontiguousarray(self.coords.T)

    def distances_from(self, i: int) -> np.ndarray:
        """Distance row d(i, .); bit-symmetric with distances_from(j)[i]."""
        self.check_id(i)
        return _distance_rows(self, np.asarray([i]))[0]


def _distance_rows(cloud: PointCloud, rows: np.ndarray,
                   cols: np.ndarray | None = None) -> np.ndarray:
    """d(x, y) for x in rows and y in cols (every point when cols is None)."""
    if cloud.metric.family == CUSTOM_TABLE:
        return cloud.table[rows] if cols is None \
            else cloud.table[np.ix_(rows, cols)]
    return _norm(cloud.metric, _differences(cloud, rows, cols))


def _differences(cloud: PointCloud, rows, cols=None,
                 swap: bool = False) -> list[np.ndarray]:
    """x_c - y_c for x in rows and y in cols (every point when cols is
    None), or y_c - x_c with swap: one fresh (rows, cols) array per
    coordinate c. Each is its own subtraction, not the other's negation,
    which would turn y_c - x_c = +0.0 into -0.0. The y coordinates are rows
    of cloud.columns, read as views for every point or a slice of columns,
    else gathered in one np.take (far faster than fancy indexing), so the
    subtraction reads unit strides."""
    every = cloud.columns
    x = np.take(every, rows, axis=1)
    if isinstance(cols, np.ndarray):
        y = np.take(every, cols, axis=1)
    else:
        y = every if cols is None else every[:, cols]
    return [y[c] - x[c, :, None] if swap else x[c, :, None] - y[c]
            for c in range(every.shape[0])]


def _norm(md: MetricDescriptor, diffs) -> np.ndarray:
    """The one distance formula: the metric's norm of per-coordinate
    difference arrays x_c - y_c.

    The arrays are the caller's to give up: each is squared (or made
    absolute, or raised to p) in place, and the result is written into
    the first of them, so a norm of (rows, cols) blocks allocates nothing
    of that size beyond what a snowflake's or a general p's final root
    takes. Every operation is the one the out-of-place form would apply
    to the same operands, each correctly rounded (or the same np.power
    loop), so the bits are those of a norm of fresh arrays. Coordinate
    terms are added left to right, which is bit-identical to a sum over a
    trailing axis of length at most 7.
    """
    p = md.p
    general = p not in (1.0, 2.0, math.inf)
    for dc in diffs:
        if p == 2.0:
            np.multiply(dc, dc, out=dc)
        else:
            np.abs(dc, out=dc)
            if general:
                np.power(dc, p, out=dc)  # the ufunc dc ** p calls
    d = diffs[0]
    for dc in diffs[1:]:
        (np.maximum if math.isinf(p) else np.add)(d, dc, out=d)
    if p == 2.0:
        np.sqrt(d, out=d)
    elif general:
        d = d ** (1.0 / p)
    if md.family == SNOWFLAKE:
        d = d ** md.alpha
    return d


_BLOCK = 64  # consecutive points per box of _boxes


def _boxes(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per coordinate, the least and the greatest value of each block of
    _BLOCK consecutive points (the last block may hold fewer)."""
    starts = np.arange(0, points.shape[0], _BLOCK)
    return (np.minimum.reduceat(points, starts),
            np.maximum.reduceat(points, starts))


def _block_bounds(cloud: PointCloud, rows: np.ndarray, boxes
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(lb, ub) per column block of `boxes`, the _boxes of some points of
    the cloud: every computed d(x, y), x in rows and y in the block, lies
    in [lb, ub]. The bounds are _norm of the per-coordinate gaps and spans
    of the boxes, exact for euclidean_p with p in {1, 2, inf} (module
    docstring); any other metric gets (0, inf) for every block."""
    lo, hi = boxes
    md = cloud.metric
    if md.family != EUCLIDEAN_P or md.p not in (1.0, 2.0, math.inf):
        return np.zeros(lo.shape[0]), np.full(lo.shape[0], np.inf)
    a = cloud.coords[rows]
    rlo, rhi = np.minimum.reduce(a), np.maximum.reduce(a)
    # the gaps, then the spans, of every block: one _norm of both
    gs = np.concatenate([np.maximum(np.maximum(rlo - hi, lo - rhi), 0.0),
                         np.maximum(rhi - lo, hi - rlo)])
    b = _norm(md, list(gs.T))
    return b[:lo.shape[0]], b[lo.shape[0]:]


_TILE_PAIRS = 1 << 16  # pair entries per row tile and thread


def tile_map(fn, rows, n_cols: int, workers: int = 1):
    """The one row-tile walker: fn(tile) on each tile of `rows`, stacked.

    Tiles hold max(1, workers * _TILE_PAIRS // n_cols) rows, so a tile of
    n_cols columns holds about workers * _TILE_PAIRS pairs: a serial walk
    keeps tiles of _TILE_PAIRS pairs, and on `workers` threads each tile is
    `workers` times taller, so the threads trade the interpreter lock fewer
    times per row. The `workers` threads each hold one tile's temporaries,
    workers * _TILE_PAIRS pairs, so in-flight memory is about workers^2 *
    _TILE_PAIRS pairs times the tile's array budget at any size, and
    sums.thread_map submits at most 2 * workers tiles ahead of the one it
    collects. On the pair sweep that budget is the shared kernel and
    distance rows plus the largest pass's temporaries, about 2 + 2.6
    (rows, cols) float64 arrays: the pairing trace's tile sets it, as
    pair_rows, the antisymmetry tile and the growth tile reuse their own
    buffers (3, 1 and 2 arrays; growth takes 4 when the weights differ,
    as it sorts each row's weights too). No caller's result
    depends on the split or on the tile height: a row's sums do not depend
    on the rows that share its tile, and the upper-triangle walks that read
    the columns from a tile's first row on take maxima that every height
    covers alike. A fn returning a tuple of arrays gives the tuple of their
    stacks.
    """
    rows = np.asarray(rows)
    step = max(1, workers * _TILE_PAIRS // max(1, n_cols))
    tiles = [rows[i:i + step] for i in range(0, rows.size, step)] or [rows]
    parts = thread_map(fn, tiles, workers)
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


class RowPass(NamedTuple):
    """One sum's share of a walk over row tiles, so that several sums can
    share each tile (kernels.sweep_pair_tiles).

    rows: the ascending point ids whose rows the sum reads.
    tile(k, d, tile_rows): a per-row block, first axis tile_rows, from the
      tile's kernel rows k (None for a sum of distances only) and distance
      rows d. tile_rows are ascending rows of `rows` only, so the blocks
      of the tiles, stacked in order, are the block of `rows`.
    reduce(block, *args): the sum's result from the block of `rows`.
    """

    rows: np.ndarray
    tile: Callable
    reduce: Callable


def make_cloud(coords, metric: MetricDescriptor, table=None) -> PointCloud:
    """Validated cloud: finite coordinates (and a finite table with a zero
    diagonal, bitwise symmetric, that satisfies the triangle inequality),
    no two points at distance 0 (duplicate atoms), and the diameter.

    d is bit-symmetric (p-metrics and snowflakes by construction, a table
    by the check above), so the pass walks the upper triangle: one row
    block of _BLOCK ids at a time, in order, in row tiles that read the
    columns y >= x0 of a tile starting at row x0. floor, the
    largest computed distance among the coordinate-extreme points, is at
    most the diameter, so a block pair is evaluated only if its
    _block_bounds allow a distance >= floor or a duplicate (lb == 0); the
    pairs skipped hold neither. The diameter is the full matrix's maximum,
    and the duplicate pair named is the full matrix's row-major first.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != metric.dimension:
        raise InputError(
            f"coords must be (N, {metric.dimension}), got {coords.shape}")
    if not np.all(np.isfinite(coords)):
        raise InputError("coordinates must be finite")
    if metric.family == CUSTOM_TABLE:
        table = np.asarray(table, dtype=np.float64)
        n = coords.shape[0]
        if table.shape != (n, n):
            raise InputError("custom table must be N x N")
        if not np.all(np.isfinite(table)):
            raise InputError("custom table entries must be finite")
        bad = np.argwhere((table != table.T) | np.diag(np.diag(table) != 0))
        if bad.size:
            i, j = bad[0].tolist()
            where = "on the diagonal" if i == j \
                else f"but d({j}, {i}) = {table[j, i]}"
            raise InputError(f"custom table is not a metric: d({i}, {j}) = "
                             f"{table[i, j]} {where}")
        _check_triangles(table)
    cloud = PointCloud(coords=coords, metric=metric, diameter=0.0, table=table)
    n = cloud.n_points
    every = np.arange(n)
    extremes = np.concatenate([coords.argmin(axis=0), coords.argmax(axis=0)]) \
        if n else every
    floor = _distance_rows(cloud, extremes, extremes).max(initial=0.0)
    lo, hi = _boxes(coords)

    def tile(rows, cols):
        d = _distance_rows(cloud, rows, cols)
        zero = (d == 0.0) & (cols[None, :] > rows[:, None])
        if zero.any():
            i, j = np.argwhere(zero)[0]
            raise DegenerateInputError(f"points {rows[i]} and {cols[j]} are "
                                       "at distance 0 (duplicate atoms)")
        return d.max(axis=1, initial=0.0)

    def row_block(x0):
        rows, b = every[x0:x0 + _BLOCK], x0 // _BLOCK
        lb, ub = _block_bounds(cloud, rows, (lo[b:], hi[b:]))
        cols = every[x0:][np.repeat((ub >= floor) | (lb == 0.0),
                                    _BLOCK)[:n - x0]]
        return tile_map(lambda t: tile(t, cols[cols >= t[0]]), rows,
                        cols.size).max()
    return replace(cloud, diameter=float(max(
        (row_block(x0) for x0 in range(0, n, _BLOCK)), default=0.0)))


def _check_triangles(table: np.ndarray) -> None:
    """Raise InputError naming the first triple (x, y, z), in row-major
    order, with d(x, z) > d(x, y) + d(y, z), and its excess.

    Exact: a + b < c iff fl(a + b) < c, or fl(a + b) == c and the TwoSum
    error term (a + b) - fl(a + b) is negative. The walk takes the pairs
    (x, y) in row tiles of tile_map: O(N^3) time in tile-bounded memory.
    The table is symmetric, so (x, y, z) and (z, y, x) are one inequality,
    and the first violation has z >= x: a tile whose first pair has x = x0
    reads only the columns z >= x0.
    """
    n = table.shape[0]
    if n == 0:
        return
    flat = table.ravel()

    def tile(xy):
        x0 = xy[0] // n
        a = flat[xy, None]                   # d(x, y)
        b = table[xy % n, x0:]               # d(y, z)
        c = table[xy // n, x0:]              # d(x, z)
        s = a + b
        viol = s < c
        tie = s == c
        if tie.any():
            bb = s - a
            err = (a - (s - bb)) + (b - bb)
            viol |= tie & (err < 0.0)
        return np.where(viol.any(axis=1), x0 + viol.argmax(axis=1), -1)
    first_z = tile_map(tile, np.arange(n * n), n)
    hits = np.flatnonzero(first_z >= 0)
    if hits.size:
        (x, y), z = divmod(int(hits[0]), n), int(first_z[hits[0]])
        a, b, c = (float(table[i, j]) for i, j in ((x, y), (y, z), (x, z)))
        excess = float(Fraction(c) - Fraction(a) - Fraction(b))
        raise InputError(f"custom table is not a metric: d({x}, {z}) = {c!r}"
                         f" > d({x}, {y}) + d({y}, {z}) = {a!r} + {b!r}, "
                         f"excess {excess!r}")


def rescale_to_unit_diameter(cloud: PointCloud) -> tuple[PointCloud, float]:
    """Scale so the diameter becomes 1; returns the divisor applied to d."""
    if cloud.n_points < 2 or cloud.diameter <= 0.0:
        raise DegenerateInputError("need at least two distinct points")
    scale = cloud.diameter
    md = cloud.metric
    coords, table = cloud.coords, cloud.table
    if md.family == CUSTOM_TABLE:
        table = table / scale
        _check_triangles(table)  # division rounds: check what is read
    elif md.family == SNOWFLAKE:
        # distances scale as (base distance)^alpha
        coords = coords / scale ** (1.0 / md.alpha)
    else:
        coords = coords / scale
    return PointCloud(coords=coords, metric=md, diameter=1.0,
                      table=table), scale


def cloud_to_json(cloud: PointCloud) -> dict:
    out = {
        "metric": {"family": cloud.metric.family,
                   "dimension": cloud.metric.dimension,
                   "p": "inf" if math.isinf(cloud.metric.p) else cloud.metric.p,
                   "alpha": cloud.metric.alpha},
        "points": [{"id": i, "coords": list(map(float, c))}
                   for i, c in enumerate(cloud.coords)],
    }
    if cloud.table is not None:
        out["distances"] = [list(map(float, row)) for row in cloud.table]
    return out


def cloud_from_json(obj: dict) -> PointCloud:
    with json_shape("cloud JSON"):
        m, pts = obj["metric"], sorted(obj["points"], key=lambda q: q["id"])
        p = m.get("p", 2.0)
        md = dict(family=m["family"], dimension=int(m["dimension"]),
                  p=math.inf if p in ("inf", "Infinity") else float(p),
                  alpha=float(m.get("alpha", 1.0)))
        ids = [q["id"] for q in pts]
        coords = np.asarray([q["coords"] for q in pts], dtype=np.float64)
        table = obj.get("distances")
        table = None if table is None else np.asarray(table, dtype=np.float64)
    if ids != list(range(len(ids))):
        raise InputError("point ids must be unique and contiguous from 0")
    return make_cloud(coords, MetricDescriptor(**md), table=table)


def load_cloud(path: str) -> PointCloud:
    with open(path) as fh:
        return cloud_from_json(json.load(fh))
