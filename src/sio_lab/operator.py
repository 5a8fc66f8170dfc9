"""Truncated singular integral operators and the proof-side estimates.

Everything here is a finite double sum over atom pairs: one tile walk and
one reduction tree. Every N^2 pass walks the rows it needs with
`metric.tile_map`, in tiles of max(1, workers * _TILE_PAIRS // N) rows of
N columns each, so memory stays bounded at any N and no N x N kernel or
distance array exists. `kernels.sweep_pair_tiles` is the
pair engine: it builds each tile's kernel rows and metric-distance rows
once, by `kernels.pair_rows` for either kernel family, for every sum that
reads the tile.

compute_pairing_trace evaluates each pair once per trace, and folds each
tile at a fixed cost whatever the balls and the eps grid (_trace_folds).
Every row is folded by blocks of metric._BLOCK columns, each an aligned
subtree of fold_rows' tree, and metric._block_bounds bounds every
distance of a block exactly, so the tile's blocks are classified once,
against every eps and every step, by their bounds over the tile's own
rows: a block beyond eps serves its unmasked fold and one within eps
+0.0; a block inside one step's band serves that step its unmasked fold
and one outside the grid +0.0; only the blocks that straddle an edge are
masked, and a straddled band keeps only its pairs inside the grid,
scattered into a zero row of the block's width per (band, row, block)
that holds one. The bands' families are one index set: the scale band,
each ball on the blocks its boundary cuts, per held (ball, row) pair,
and a shared |k| w band, built only where a ball holding the row holds
no column of the block, which serves every such ball. Every masked block
row is folded in one stacked fold_rows call, beside the blocks served
whole, and the block values of every column take the upper levels of
their rows' trees in one more fold, so each column has the bits of one
masked dense fold of its row.

The row sums are split into a per-tile function and a reduction, a
`metric.RowPass`: trace_pass, annuli_pass and boundary_pass (with
measure.growth_pass, kernels.antisymmetry_pass and
kernels.size_bound_pass). Each public function sweeps its own pass, and
each pass's tile function is handed only rows of its own;
suite.run_convergence_suite hands one sweep's tiles to all six, with the
same bits. cancellation_residual is a RowPass as well, swept on its own
over the rows of its ball intersection: each tile reads its rows'
intersection columns off the sweep's kernel and distance rows, and
evaluates k(y, x) there itself, so an antisymmetry defect shows.
cancellation_bound bounds the same residual from the antisymmetry check
alone, with no walk.

Determinism contract: each row is folded over the fixed perfect binary tree
of sums.fold_rows, and the row results over pairwise_sum, in ascending
(id, id) order, so results are bit-identical across runs, tile sizes and
worker counts. Truncation is strict (d > eps), so <T_delta f, g> -
<T_eps f, g> runs over the pairs with delta < d <= eps: the four-term
bound's boundary bands and its scale band are closed at eps to match, since
discrete measures put pairs exactly on eps. The cancellation residual's
band stays open (delta < d < eps).

Each step of a trace is one errors.Check, cauchy_bound_step_j: lhs is
|<T_eps f, g> - <T_delta f, g>|, the difference of the trace's own
pairings; rhs is the four-term bound itself, the number trace.csv prints;
and tol is 1e-12 times the step's scale, the band sum of |k| |f| |g| w w:
a fixed allowance for the round-off of lhs, not a derived error bound. A
failed step is reported, not raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import Check, InputError, json_shape
from .good_radii import GoodRadiusCertificate
from . import kernels, metric
from .kernels import KernelSpec, run_pass, sweep_pair_tiles
from .measure import DiscreteMeasure, StepMeasure
from .metric import PointCloud, RowPass
from .sums import fold_rows, pairwise_sum


@dataclass(frozen=True)
class Ball:
    """Closed ball; the center must be an atom id."""

    center: int
    radius: float

    def members(self, cloud: PointCloud) -> np.ndarray:
        cloud.check_id(self.center)
        return cloud.distances_from(self.center) <= self.radius


@dataclass(frozen=True)
class SimpleFunction:
    """Finite linear combination of closed-ball indicators."""

    terms: tuple[tuple[float, Ball], ...]

    def values(self, cloud: PointCloud) -> np.ndarray:
        out = np.zeros(cloud.n_points)
        for coeff, ball in self.terms:
            out += coeff * ball.members(cloud)
        return out


def simple_function_from_json(obj: dict) -> SimpleFunction:
    with json_shape("simple function JSON"):
        terms = tuple((float(t["coeff"]), Ball(center=int(t["center"]),
                                               radius=float(t["radius"])))
                      for t in obj["terms"])
    for i, (coeff, ball) in enumerate(terms):  # a radius < 0 holds no atom
        if not (math.isfinite(coeff) and math.isfinite(ball.radius)):
            raise InputError(f"simple function term {i} must be finite, got "
                             f"coeff={coeff!r}, radius={ball.radius!r}")
    return SimpleFunction(terms=terms)


class _Blocks(NamedTuple):
    """A tile's column blocks classified once against an eps grid by their
    metric._block_bounds (lb, ub). For an eps, a block with lb > eps is
    served whole, one with ub <= eps serves +0.0, and one in between
    straddles it. For a step (delta, eps], a block whose bounds lie inside
    the band serves it whole, and one whose bounds lie in different steps
    straddles a band edge."""

    beyond: np.ndarray    # (eps, blocks) bool: lb > eps
    whole: np.ndarray     # the blocks some eps serves whole: lb > eps_last
    es: np.ndarray        # the straddling (eps, block) pairs
    bs: np.ndarray
    in_band: np.ndarray   # the blocks inside one step's band
    band_step: np.ndarray  # the step of each of those
    straddle: np.ndarray  # the blocks that straddle a band edge


def _step(eps: np.ndarray, d) -> np.ndarray:
    """The step j of each distance d, eps_j+1 < d <= eps_j: -1 above eps_0
    and eps.size - 1 at or below eps_last."""
    return eps.size - 1 - eps[::-1].searchsorted(d)


def _classify(grid, bounds) -> _Blocks:
    eps = np.asarray(grid)
    lb, ub = bounds
    beyond = lb > eps[:, None]
    es, bs = (~beyond & (ub > eps[:, None])).nonzero()
    lo, hi = _step(eps, bounds)  # lo >= hi, as lb <= ub
    in_band = ((lo == hi) & (lo >= 0) & (lo < eps.size - 1)).nonzero()[0]
    return _Blocks(beyond, beyond[-1].nonzero()[0], es, bs, in_band,
                   lo[in_band], (lo > hi).nonzero()[0])


class _Bands(NamedTuple):
    """A tile's step bands for _trace_folds, with the families as one
    index set: family 0 is the scale band (every row and column, factor
    |f| w), family i > 0 the band of ball i - 1 of those with a boundary
    (its rows, the columns outside it, factor w); a shared band of |k| w
    rides last, on the (row, block) pairs where some ball holding the row
    holds no column of the block. Columns are padded to whole blocks and
    laid out (block, column in block)."""

    held: np.ndarray      # (balls, tile rows) bool: the rows in each ball
    member3: np.ndarray   # (balls, blocks, bw) bool: the columns inside it
    clear: np.ndarray     # (balls, blocks) bool: no column inside the ball
    cut: np.ndarray       # (balls, blocks) bool: columns inside and outside
    factor3: np.ndarray   # (2, blocks, bw): |f| w of the scale band, w


def _trace_folds(kt: np.ndarray, dt: np.ndarray, fw: np.ndarray, grid,
                 blocks: _Blocks, bands: _Bands | None = None
                 ) -> np.ndarray:
    """Per tile row, the fold of each strict truncation d(x, y) > eps of
    kt * fw, then, given bands, of each (family, step) band delta < d <=
    eps in that order: (rows, eps + families * steps), each column with
    the bits of one masked dense fold_rows of its row.

    Rows are folded by the blocks that `blocks` classifies (_classify),
    aligned subtrees of fold_rows' tree: a block served whole gives its
    unmasked fold, one served +0.0 is not read, and a straddled one is
    masked; a straddled band keeps its pairs inside the grid, one zero
    row per (family, step, row, block) that holds one (_keyed_band_rows).
    A ball's row of a block with no column inside the ball is the row of
    |k| w, folded once as the shared band for every such ball, and only
    on the (row, block) pairs that one of them reads; a block with no
    column outside the ball serves it +0.0; only the blocks its boundary
    cuts are masked per held (ball, row). |k| is taken once per whole
    band block, for the scale band, and the |k| w rows are gathered from
    it. Every block row goes into one stack, folded by one fold_rows
    call, and the block values take the upper levels of their rows' trees
    in one more. At most n_blocks straddling (eps, block) pairs stack, a
    tile's worth of entries; more, as on a cloud in random order or a
    metric without bounds, are folded a tile's worth at a time.
    """
    rows, n = kt.shape
    bw = min(metric._BLOCK, 1 << (n - 1).bit_length())  # block width
    n_blocks = -(-n // bw)
    width = n_blocks * bw  # a row's columns padded to whole blocks
    if width != n:  # zero columns up to whole blocks, as fold_rows pads
        kt = np.pad(kt, ((0, 0), (0, width - n)))
        dt = np.pad(dt, ((0, 0), (0, width - n)))
    if fw.size != width:
        fw = np.pad(fw, (0, width - fw.size))
    k3 = kt.reshape(rows, n_blocks, bw)
    d3 = dt.reshape(rows, n_blocks, bw)
    fw3 = fw.reshape(n_blocks, bw)
    eps = np.asarray(grid)
    n_eps = eps.size
    n_steps = 0 if bands is None else n_eps - 1
    n_balls = 0 if bands is None else bands.held.shape[0]
    n_out = n_eps + (1 + n_balls) * n_steps
    # vals' columns: with balls, the shared |k| w band rides last
    n_cols = n_out + (n_steps if n_balls else 0)

    def truncated(ids, es, out=None):
        """kt * fw on the blocks ids, (rows, blocks, bw), the last es.size
        of them masked to d > eps[es]: the (eps, block) pairs that
        straddle."""
        out = k3.take(ids, axis=1, out=out, mode="clip")
        np.multiply(out, fw3.take(ids, axis=0), out=out)
        if es.size:
            cut = ids.size - es.size
            np.copyto(out[:, cut:], 0.0, where=~(
                d3.take(ids[cut:], axis=1) > eps[es, None]))
        return out

    # the truncations' rows: the blocks that some eps serves whole, then
    # the straddling (eps, block) pairs; at most n_blocks pairs stack
    whole, es, bs = blocks.whole, blocks.es, blocks.bs
    n_trunc = min(es.size, n_blocks)
    tb = np.concatenate([whole, bs[:n_trunc]])
    n_kw = n_keyed = 0
    wb = blocks.in_band
    n_scale = rows * wb.size if n_steps else 0
    if n_balls:
        # (row, ball, block): the ball holds the row and no column of the
        # block, so it reads the shared band there
        reads = bands.held.T[:, :, None] & bands.clear
        shared = np.logical_or.reduce(reads, axis=1)
        # the |k| w rows of the whole band blocks: the shared band's where
        # read, then those of each held (ball, row, block) that the ball's
        # boundary cuts; their rows, blocks in wb and families
        sr, sj = shared[:, wb].nonzero()
        cf, cr, cj = (bands.held[:, :, None] & bands.cut[:, None, wb]
                      ).nonzero()
        wr, wj = np.concatenate([sr, cr]), np.concatenate([sj, cj])
        wf = np.concatenate([np.full(sr.size, n_balls + 1), cf + 1])
        n_kw = wr.size
    if n_steps and blocks.straddle.size:
        at, fill = _keyed_band_rows(k3, d3, eps, blocks.straddle, n_cols,
                                    bands, shared if n_balls else None)
        n_keyed = at.size

    # one stack of every block row, folded at once
    o1 = rows * tb.size
    o2 = o1 + n_scale
    o3 = o2 + n_kw
    stack = np.empty((o3 + n_keyed, bw))
    truncated(tb, es[:n_trunc], stack[:o1].reshape(rows, tb.size, bw))
    if n_scale:
        mag = stack[o1:o2].reshape(rows, wb.size, bw)
        k3.take(wb, axis=1, out=mag, mode="clip")
        np.abs(mag, out=mag)
        if n_kw:  # gathered from |k|, the cut ones masked to outside
            kw = stack[o2:o3]
            mag.reshape(-1, bw).take(wr * wb.size + wj, axis=0, out=kw,
                                     mode="clip")
            np.multiply(kw, bands.factor3[1].take(wb.take(wj), axis=0),
                        out=kw)
            np.copyto(kw[sr.size:], 0.0, where=bands.member3[cf, wb[cj]])
        np.multiply(mag, bands.factor3[0, wb], out=mag)
    if n_keyed:
        stack[o3:] = 0.0
        fill(stack[o3:])
        del fill
    folded = fold_rows(stack)
    del stack

    # the block values of every column, then the upper levels
    vals = np.zeros((rows, n_cols, n_blocks))  # (row, column, block)
    res = folded[:o1].reshape(rows, -1)
    full = np.zeros((rows, n_blocks))
    full[:, whole] = res[:, :whole.size]
    np.copyto(vals[:, :n_eps], full[:, None], where=blocks.beyond)
    vals[:, es[:n_trunc], bs[:n_trunc]] = res[:, whole.size:]
    if n_scale:
        vals[:, n_eps + blocks.band_step, wb] = folded[o1:o2].reshape(rows,
                                                                      -1)
    if n_kw:
        vals[wr, n_eps + wf * n_steps + blocks.band_step.take(wj),
             wb.take(wj)] = folded[o2:o3]
    if n_keyed:
        vals.ravel()[at] = folded[o3:]
    if n_balls:
        ball_vals = vals[:, n_eps + n_steps:n_out].reshape(
            rows, n_balls, n_steps, n_blocks)
        np.copyto(ball_vals, vals[:, None, n_out:], where=reads[:, :, None])
    for s in range(n_trunc, es.size, n_blocks):
        e, b = es[s:s + n_blocks], bs[s:s + n_blocks]
        vals[:, e, b] = fold_rows(truncated(b, e).reshape(-1, bw)).reshape(
            rows, -1)
    return fold_rows(vals.reshape(-1, n_blocks)).reshape(rows, -1)[:, :n_out]


def _keyed_band_rows(k3, d3, eps, sb, n_cols: int, bands: _Bands, shared):
    """The keyed rows of _trace_folds for the column blocks sb that
    straddle a band edge: one zero row of the block's width per (family,
    step, row, block) key that holds a pair inside the grid, with those
    pairs scattered in. The families are those of the vals columns: the
    scale band, each held ball whose boundary cuts the block, over its
    columns outside the ball, and the shared |k| w band on the (row,
    block) pairs where `shared` holds (None: no balls). A ball's pairs are
    picked from the in-grid pairs of its held rows and cut blocks alone,
    and |k| and the column factors are read at the in-grid pairs only.
    Each pair is keyed by the vals entry its row folds into, and one table
    over vals ranks the keys of every family, so the pairs need no sort.
    Returns (the vals index of each row, fill), fill(out) writing the rows
    into zeros."""
    rows, n_blocks, bw = k3.shape
    n_eps = eps.size
    n_steps = n_eps - 1
    shift = bw.bit_length() - 1
    ds = d3.take(sb, axis=1).ravel()
    at = ((ds > eps[-1]) & (ds <= eps[0])).nonzero()[0]  # (row, block, col)
    rb = at >> shift  # row * sb.size + block, ascending
    cin = at & (bw - 1)
    # per (row, block): its row, its block, its first padded column, its
    # first entry in k3 and its scale band's vals entry at step 0
    r, b = np.divmod(np.arange(rows * sb.size), sb.size)
    b = sb.take(b)
    first = b << shift
    col = first.take(rb) | cin  # the padded column of each pair
    mag = np.abs(k3.take((r * (n_blocks * bw) + first).take(rb) | cin))
    key = ((r * n_cols + n_eps) * n_blocks + b).take(rb)
    if n_steps > 1:  # each pair's step
        key += _step(eps, ds.take(at)) * n_blocks
    del ds, r, b, first
    factor = bands.factor3.reshape(2, -1)
    keys, parts = [key], [(cin, mag * factor[0].take(col))]  # (col, value)
    magw = None
    if shared is not None:
        family = n_steps * n_blocks  # the vals offset of one family
        sp = shared[:, sb].ravel().take(rb).nonzero()[0]
        # (ball, row, block) with the row held and the block cut
        ta, tr, tb = (bands.held[:, :, None] & bands.cut[:, None, sb]
                      ).nonzero()
        if sp.size or ta.size:
            magw = mag * factor[1].take(col)
        if ta.size:
            # the in-grid pairs of each triple's (row, block), a run as rb
            # ascends, kept outside the triple's ball
            runs = np.bincount(rb, minlength=rows * sb.size)
            seg = tr * sb.size + tb
            length = runs.take(seg)
            q = np.arange(length.sum()) + np.repeat(
                (np.cumsum(runs) - runs).take(seg) - np.cumsum(length)
                + length, length)
            ball = np.repeat(ta, length)
            keep = ~bands.member3.reshape(-1).take(
                ball * (n_blocks * bw) + col.take(q))
            q = q[keep]
            keys.append((ball[keep] + 1) * family + key.take(q))
            parts.append((cin.take(q), magw.take(q)))
        if sp.size:
            keys.append(key.take(sp) + (bands.held.shape[0] + 1) * family)
            parts.append((cin.take(sp), magw.take(sp)))
    if len(keys) > 1:
        key = np.concatenate(keys)
    del mag, magw, keys
    # each key's rank among the distinct keys, the vals entries read
    seen = np.zeros(rows * n_cols * n_blocks, dtype=bool)
    seen[key] = True
    distinct = seen.nonzero()[0]
    del seen
    rank = np.empty(rows * n_cols * n_blocks, dtype=np.int32)
    rank[distinct] = np.arange(distinct.size, dtype=np.int32)
    slot = rank.take(key)
    del rank, key

    def fill(out):
        start = 0
        for c, v in parts:
            out[slot[start:start + c.size], c] = v
            start += c.size
    return distinct, fill


def pairing(k: KernelSpec, m: DiscreteMeasure, f: SimpleFunction,
            g: SimpleFunction, eps: float, workers: int = 1) -> float:
    """<T_eps(f mu), g> against mu: the full truncated double sum.

    Equals sum over pairs with d(x,y) > eps of k(x,y) f(y) g(x) w(y) w(x),
    the one value of trace_pass over the grid [eps], so an eps that is not
    finite and positive raises InputError. `workers` splits the row tiles;
    the reduction tree is fixed, so the result is bit-identical for any
    worker count.
    """
    return run_pass(k, m.cloud, trace_pass(m, f, g, [eps]), workers).values[0]


def _check_grid(eps_grid) -> list[float]:
    """eps_grid as floats, or InputError naming its first bad entry (or
    the empty grid)."""
    grid = [float(e) for e in eps_grid]
    if not grid:
        raise InputError("eps grid must be finite, positive and strictly "
                         "decreasing, got an empty grid")
    for j, e in enumerate(grid):
        if not (math.isfinite(e) and e > 0.0) or (j and e >= grid[j - 1]):
            raise InputError("eps grid must be finite, positive and strictly "
                             f"decreasing, got entry {j} = {e!r}"
                             + (f" after {grid[j - 1]!r}" if j else ""))
    return grid


def boundary_term(k: KernelSpec, m: DiscreteMeasure, ball: Ball,
                  delta: float, eps: float) -> float:
    """Double sum of |k(x,y)| w(x) w(y), x in B, y outside B, delta<d<=eps."""
    if not 0.0 < delta < eps:
        raise InputError("need 0 < delta < eps")
    return run_pass(k, m.cloud, boundary_pass(m, ball, delta, eps))


def total_boundary_integral(k: KernelSpec, m: DiscreteMeasure,
                            ball: Ball, workers: int = 1) -> float:
    """All pairs x in B, y outside B of |k(x,y)| w(x) w(y) (Eq.-finiteness
    probe; always finite on discrete measures, interesting across levels).
    `workers` splits the row tiles, with the same bits for any count."""
    return run_pass(k, m.cloud, boundary_pass(m, ball, 0.0, math.inf),
                    workers)


def boundary_pass(m: DiscreteMeasure, ball: Ball, delta: float,
                  eps: float) -> RowPass:
    """The boundary term as a RowPass over the rows in the ball: per row,
    the band fold of |k| w outside the ball. A ball holding every atom has
    an empty boundary and reads no rows."""
    inside = ball.members(m.cloud)
    rows = np.nonzero(inside)[0]
    if rows.size == m.n_atoms:
        rows = rows[:0]
    w, outside = m.weights, ~inside

    def tile(kt, dt, _rows):
        return fold_rows(np.where(outside & (dt > delta) & (dt <= eps),
                                  np.abs(kt) * w, 0.0))
    return RowPass(rows, tile, lambda folds: pairwise_sum(folds * w[rows]))


def cancellation_residual(k: KernelSpec, m: DiscreteMeasure, b1: Ball,
                          b2: Ball, delta: float, eps: float,
                          workers: int = 1) -> tuple[float, float]:
    """Double sum of k(x,y) w(x) w(y) over (B1 cap B2)^2 in the open band.

    Canonical pair ordering: each unordered pair contributes
    t_upper + t_lower = k(x,y)w(x)w(y) + k(y,x)w(y)w(x), with k(x, y) and
    k(y, x) each evaluated on its own, so an antisymmetry defect shows.
    Returns (residual, sum of term magnitudes), each taken over the row
    tree of every double sum: each row of the r x r arrays in intersection
    order, zero outside the upper triangle y > x and the band, folded with
    fold_rows, and the row results with pairwise_sum.

    A RowPass over the intersection's rows on the pair engine: each tile
    reads k(x, y) and d(x, y) at the intersection's columns off the sweep's
    rows, and evaluates k(y, x) there in the same layout, by
    kernels.kernel_rows with swap, never by negating k(x, y). `workers`
    splits the row tiles, with the same bits for any count.
    """
    if not 0.0 < delta < eps:
        raise InputError("need 0 < delta < eps")
    rows = np.nonzero(b1.members(m.cloud) & b2.members(m.cloud))[0]
    w, wr = m.weights, m.weights[rows]

    def tile(kt, dt, t):
        d = dt[:, rows]
        keep = (d > delta) & (d < eps) & (rows > t[:, None])
        t_upper = np.where(keep, kt[:, rows] * np.outer(w[t], wr), 0.0)
        t_lower = np.where(keep, kernels.kernel_rows(
            k, m.cloud, t, rows, swap=True) * np.outer(wr, w[t]).T, 0.0)
        return np.stack([fold_rows(t_upper + t_lower),
                         fold_rows(np.abs(t_upper)),
                         fold_rows(np.abs(t_lower))], axis=1)

    def reduce(folds):
        residual, up, low = (pairwise_sum(f) for f in folds.T)
        return residual, up + low
    return run_pass(k, m.cloud, RowPass(rows, tile, reduce), workers)


def cancellation_bound(antisymmetry: float, m: DiscreteMeasure, b1: Ball,
                       b2: Ball) -> float:
    """A bound, from the kernel_antisymmetry lhs A = max |k(x,y) + k(y,x)|,
    on the exact real residual of the computed k over any band of
    (B1 cap B2)^2: the least float >= A W~^2 / (2 (1 - u)^3), u = 2^-53, or
    inf if none is finite; a zero, NaN or inf A is returned as it is.

    d is bit-symmetric, so the residual is sum_{x<y} (k(x,y) + k(y,x))
    w(x) w(y). Each k(x,y) + k(y,x) is rounded once, so it is at most
    A/(1 - u), and the pairs carry at most W^2/2 of the weight W, which
    math.fsum rounds correctly to W~ >= (1 - u) W (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 2.2).
    """
    if antisymmetry == 0.0 or not math.isfinite(antisymmetry):
        return antisymmetry
    both = b1.members(m.cloud) & b2.members(m.cloud)
    try:
        w = Fraction(math.fsum(m.weights[both]))
        bound = Fraction(antisymmetry) * w * w \
            / (2 * (1 - Fraction(1, 2 ** 53)) ** 3)
        out = float(bound)
    except OverflowError:
        return math.inf
    return out if out >= bound else math.nextafter(out, math.inf)


def pairing_difference_bound(k: KernelSpec, m: DiscreteMeasure,
                             f: SimpleFunction, g: SimpleFunction,
                             delta: float, eps: float) -> Check:
    """The Check |<T_eps f, g> - <T_delta f, g>| <= the four-term boundary
    bound sum_ij |a_i b_j| (boundary(B_i) + 2 boundary(S_j)) over the band
    delta < d <= eps: the one step of trace_pass over the grid [eps, delta],
    which needs finite 0 < delta < eps."""
    return run_pass(k, m.cloud, trace_pass(m, f, g, [eps, delta])).checks[0]


def trace_pass(m: DiscreteMeasure, f: SimpleFunction, g: SimpleFunction,
               eps_grid) -> RowPass:
    """compute_pairing_trace as a RowPass over every row: pairings along a
    decreasing eps grid, and the four-term bound Check of each consecutive
    pair, reduced to a PairingTrace.

    Per tile, per-row folds are taken of: the strict truncation at each eps;
    the scale band delta < d <= eps of each step, of |k| |f| w; and each
    ball's band delta < d <= eps of |k| w (rows in the ball, columns
    outside it). One _trace_folds call takes them all, from one
    classification of the tile's column blocks by their
    metric._block_bounds, in two fold_rows calls whatever the balls and
    the grid (a few more only when more (eps, block) pairs straddle than
    a row has blocks). The bounds are those over the tile's own rows, so
    no state is kept between tiles. The bands' families are one index
    set: the membership table of the balls with a boundary, and per
    (ball, block) whether the block holds no column inside the ball or is
    cut by its boundary, are built here once; each tile takes its held
    (ball, row) pairs from the table in one step, so no tile loops over
    balls or eps.
    Each band keeps the bits of one dense fold of its masked row, and row
    folds are reduced with pairwise_sum exactly as one pairing, one
    boundary term or one scale would reduce them alone.
    """
    grid = _check_grid(eps_grid)
    cloud, w = m.cloud, m.weights
    fvals, gvals = f.values(cloud), g.values(cloud)
    steps = list(zip(grid[1:], grid[:-1]))  # (delta, eps) per step
    balls = {(b.center, b.radius): b.members(cloud)
             for _, b in f.terms + g.terms} if steps else {}
    # a ball holding no atom, or every atom, has an empty boundary
    banded = [(key, inside) for key, inside in balls.items()
              if 0 < np.count_nonzero(inside) < m.n_atoms]

    n = m.n_atoms
    bw = min(metric._BLOCK, 1 << (n - 1).bit_length())  # block width
    n_blocks = -(-n // bw)
    pad = (0, n_blocks * bw - n)  # columns up to whole blocks
    fw = np.pad(fvals * w, pad)
    inside = np.array([members for _, members in banded],
                      dtype=bool).reshape(-1, n)  # the families' table
    member3 = np.pad(inside, ((0, 0), pad)).reshape(-1, n_blocks, bw)
    clear = ~member3.any(axis=2)  # (ball, block): no column inside
    # columns inside and outside: cut by the ball's boundary
    cut = ~clear & np.pad(~inside, ((0, 0), pad)).reshape(
        -1, n_blocks, bw).any(axis=2)
    factor3 = np.pad(np.stack([np.abs(fvals) * w, w]), ((0, 0), pad)
                     ).reshape(2, n_blocks, bw)
    boxes = metric._boxes(cloud.coords)
    eps = np.array(grid)

    def tile(kt, dt, rows):
        blocks = _classify(eps, metric._block_bounds(cloud, rows, boxes))
        bands = _Bands(inside.take(rows, axis=1), member3, clear, cut,
                       factor3) if steps else None
        return _trace_folds(kt, dt, fw, eps, blocks, bands)

    def reduce(res):
        n_eps, n_steps = len(grid), len(steps)
        values = [pairwise_sum(res[:, j] * gvals * w) for j in range(n_eps)]
        scales = [pairwise_sum(res[:, n_eps + j] * np.abs(gvals) * w)
                  for j in range(n_steps)]
        per_ball = {key: [0.0] * n_steps for key in balls}
        for b, (key, inside) in enumerate(banded):
            rows = np.nonzero(inside)[0]
            first = n_eps + n_steps * (b + 1)
            per_ball[key] = [pairwise_sum(res[rows, first + j] * w[rows])
                             for j in range(n_steps)]

        checks = []
        for j, (delta, eps) in enumerate(steps):
            terms = {key: v[j] for key, v in per_ball.items()}
            rhs = 0.0
            for a_i, b_i in f.terms:
                for b_j, s_j in g.terms:
                    rhs += abs(a_i * b_j) * (
                        terms[(b_i.center, b_i.radius)]
                        + 2.0 * terms[(s_j.center, s_j.radius)])
            checks.append(Check.le(
                f"cauchy_bound_step_{j}", abs(values[j] - values[j + 1]),
                rhs, tol=1e-12 * scales[j],
                witness={"step": j, "delta": delta, "eps": eps,
                         "scale": scales[j]}))
        return PairingTrace(eps_grid=tuple(grid), values=tuple(values),
                            checks=tuple(checks))
    return RowPass(np.arange(m.n_atoms), tile, reduce)


def annuli_log_bound_check(k: KernelSpec, m: DiscreteMeasure, ball: Ball,
                           s: float, c: float, c_mu: float
                           ) -> tuple[list[Check], list[int]]:
    """Per interior atom x, the Check annulus_x of the dyadic-annuli bound:
    lhs, the integral of |k| over B(x, 2) minus the ball, <= rhs,
    c * c_mu * 2^s * N(x), with N(x) = floor(log2(3 / gap)) + 1; witnessed
    by the atom, its gap and N(x).

    d(x, boundary) is taken as the inner gap radius - d(center, x), which
    lower-bounds the distance to the complement. Atoms exactly on the sphere
    are excluded from the interior and returned separately.
    """
    p = annuli_pass(m, ball)
    return p.reduce(sweep_pair_tiles(k, m.cloud, [p])[0], s, c, c_mu)


def annuli_pass(m: DiscreteMeasure, ball: Ball) -> RowPass:
    """annuli_log_bound_check as a RowPass over the ball's interior rows:
    per row, the fold of |k| w outside the ball within distance 2; reduced,
    given (s, c, c_mu), to (checks, on_sphere)."""
    dc = m.cloud.distances_from(ball.center)
    interior = np.nonzero(dc < ball.radius)[0]
    on_sphere = np.nonzero(dc == ball.radius)[0].tolist()
    if interior.size == 0:
        raise InputError("ball interior holds no atoms")
    outside = dc > ball.radius
    w = m.weights

    def tile(kt, dt, _rows):
        return fold_rows(np.where(outside & (dt < 2.0), np.abs(kt) * w, 0.0))

    def reduce(lhs_rows, s, c, c_mu):
        checks = []
        for x, lhs in zip(interior.tolist(), lhs_rows.tolist()):
            gap = float(ball.radius - dc[x])
            n_x = int(math.floor(math.log2(3.0 / gap))) + 1
            checks.append(Check.le(
                f"annulus_{x}", lhs, c * c_mu * 2.0 ** s * n_x,
                witness={"atom": x, "gap": gap, "n_annuli": n_x}))
        return checks, on_sphere
    return RowPass(interior, tile, reduce)


@dataclass(frozen=True)
class ShellReport:
    checks: tuple[Check, ...]  # shell_mass_n: exact mass <= lam^-n
    tail_sum: float  # sum_{n<=depth} lam^-n * 3 (n+1) log(lam)


def shell_mass_check(mu_z: StepMeasure, r, cert: GoodRadiusCertificate
                     ) -> ShellReport:
    """Exact shell masses of the radial pushforward mu_z around a radius r
    that cert certifies for mu_z.

    For each n <= depth, the Check shell_mass_n, witnessed by n:
    mu_z([r - lam^-3n, r + lam^-3n)) <= lam^-n, both Fractions. The
    certificate must be for r itself (I = [0,1], so the unpadded widths
    apply). Also reports the log-weighted tail sum of the shell bounds.
    """
    r = Fraction(r)
    if cert.t != r:
        raise InputError("certificate does not certify the given radius")
    lam = cert.lam
    checks = []
    for n in range(1, cert.depth + 1):
        w = Fraction(1, lam ** (3 * n))
        units = mu_z.mass_units(r - w, r + w, lo_closed=True,
                                hi_closed=False)
        checks.append(Check.le(f"shell_mass_{n}",
                               Fraction(units, mu_z.denominator),
                               Fraction(1, lam ** n), witness={"n": n}))
    tail = sum(lam ** (-n) * 3.0 * (n + 1) * math.log(lam)
               for n in range(1, cert.depth + 1))
    return ShellReport(checks=tuple(checks), tail_sum=tail)


def log_boundary_sum(m: DiscreteMeasure, ball: Ball, lam: int,
                     mu_z: StepMeasure) -> Check:
    """The Check log_boundary_sum: lhs, the integral of |log d(x, boundary)|
    over the ball interior (sum of w |log(gap)|), <= rhs, its
    shell-decomposed upper bound; witnessed by the core mass and the number
    of shells.

    The core B(z, r - lam^-3) contributes 3 log(lam) per unit mass, and the
    shell [r - lam^-3n, r - lam^-3(n+1)) contributes 3 (n+1) log(lam) per
    unit mass. Shells extend past the certificate depth until they are
    empty, so the bound covers every atom. mu_z is m's radial pushforward at
    the ball's center; its exact masses give the bound.
    """
    dc = m.cloud.distances_from(ball.center)
    interior = np.nonzero((dc < ball.radius) & (m.weights > 0))[0]
    if interior.size == 0:
        raise InputError("ball interior holds no atoms")
    gaps = ball.radius - dc[interior]
    value = pairwise_sum(m.weights[interior] * np.abs(np.log(gaps)))

    r = Fraction(ball.radius)
    loglam = math.log(lam)
    den = mu_z.denominator
    # int / int is correctly rounded: the float of the exact mass
    core_mass = mu_z.mass_units(0, r - Fraction(1, lam ** 3),
                                lo_closed=True, hi_closed=False) / den
    bound = core_mass * 3.0 * loglam
    n = 1
    while True:
        lo = r - Fraction(1, lam ** (3 * n))
        hi = r - Fraction(1, lam ** (3 * (n + 1)))
        shell_mass = mu_z.mass_units(lo, hi, lo_closed=True,
                                     hi_closed=False) / den
        bound += shell_mass * 3.0 * (n + 1) * loglam
        # remaining interior mass beyond this shell
        if mu_z.mass_units(hi, r, lo_closed=True, hi_closed=False) == 0:
            break
        n += 1
    return Check.le("log_boundary_sum", value, bound,
                    witness={"core_mass": core_mass, "n_shells": n})


@dataclass(frozen=True)
class PairingTrace:
    eps_grid: tuple[float, ...]
    values: tuple[float, ...]
    checks: tuple[Check, ...]  # cauchy_bound_step_j per consecutive pair

    @property
    def cauchy_diffs(self) -> tuple[float, ...]:
        """|value_j - value_{j+1}| per step."""
        return tuple(c.lhs for c in self.checks)

    @property
    def bound_values(self) -> tuple[float, ...]:
        """The four-term bound per step."""
        return tuple(c.rhs for c in self.checks)


def compute_pairing_trace(k: KernelSpec, m: DiscreteMeasure,
                          f: SimpleFunction, g: SimpleFunction, eps_grid,
                          workers: int = 1) -> PairingTrace:
    """Pairings along a decreasing eps grid with the four-term bound per
    consecutive pair (the proof's Cauchy estimate, testable exactly).

    One pass of the pair engine: each atom pair is evaluated once, and
    each step's lhs is the difference of the trace's own pairings.
    """
    return run_pass(k, m.cloud, trace_pass(m, f, g, eps_grid), workers)
