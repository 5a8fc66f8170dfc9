"""Truncated singular integral operators and the proof-side estimates.

Everything here is a finite double sum over atom pairs: one tile walk and
one reduction tree. Every N^2 pass walks the rows it needs with
`metric.tile_map`, in tiles of max(1, workers * _TILE_PAIRS // N) rows of
N columns each, so memory stays bounded at any N and no N x N kernel or
distance array exists. `kernels.sweep_pair_tiles` is the
pair engine: it builds each tile's kernel rows and metric-distance rows
once, by `kernels.pair_rows` for either kernel family, for every sum that
reads the tile.

compute_pairing_trace evaluates each pair once per trace. While it holds a
tile it folds every eps truncation over fold_rows' tree, by blocks of
metric._BLOCK columns, each an aligned subtree: metric._block_bounds
bounds every distance of a block exactly, so a block beyond eps serves
its one unmasked fold, a block within eps serves +0.0, and only the
blocks that straddle eps are masked and folded again. The step bands are
block-decided over the same bounds: a block inside one step's band serves
that step its unmasked fold, a block outside the grid serves +0.0, and
only the pairs inside the grid of the blocks that straddle a band edge go,
keyed by band, row and block, into one sums.fold_keys call. That fold
scatters those pairs into zero rows of the block's width, one per (band,
row, block) that holds a pair (8 * 64 bytes each), and folds them with
fold_rows in one step; the block values then take the upper levels, so
the bits are those of one masked dense fold per band.

The row sums are split into a per-tile function and a reduction, a
`metric.RowPass`: trace_pass, annuli_pass and boundary_pass (with
measure.growth_pass and kernels.size_bound_pass). Each public function
sweeps its own pass; suite.run_convergence_suite hands one sweep's tiles
to all five, with the same bits. cancellation_residual is no RowPass: it
reads only the upper triangle y > x of its ball intersection, in row tiles
of one block of metric._BLOCK rows each, split over `workers` threads,
and folds each row by blocks of metric._BLOCK columns as the truncations
do: a block whose bounds place every pair outside the open band serves
+0.0 unevaluated, as the masked walk would leave it. Its rows take the
same reduction tree as every other sum. It evaluates k(x, y) and k(y, x)
separately, so an antisymmetry defect shows; cancellation_path tells when
the antisymmetry check certifies the residual +0.0 without it.

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

import numpy as np

from .errors import Check, InputError, json_shape
from .good_radii import GoodRadiusCertificate
from . import kernels, metric
from .kernels import KernelSpec, run_pass, sweep_pair_tiles
from .measure import DiscreteMeasure, StepMeasure
from .metric import PointCloud, RowPass
from .sums import fold_keys, fold_rows, pairwise_sum, thread_map


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
        return SimpleFunction(terms=tuple(
            (float(t["coeff"]), Ball(center=int(t["center"]),
                                     radius=float(t["radius"])))
            for t in obj["terms"]))


def _truncated_folds(kt: np.ndarray, dt: np.ndarray, fw: np.ndarray,
                     grid, bounds) -> list[np.ndarray]:
    """(T_eps(f mu))(x) per tile row for each eps: strict d(x, y) > eps.

    bounds is the tile rows' metric._block_bounds (lb, ub) per block of
    metric._BLOCK columns. Each block (the whole row, if narrower) is an
    aligned subtree of fold_rows' tree. For an eps, a block with lb > eps
    serves its unmasked fold, taken once; one with ub <= eps serves +0.0,
    the fold of its masked zeros; only the blocks in between are masked
    and folded again, a tile's worth of (eps, block) pairs at a time, and
    the block values of every eps then take the upper levels of the same
    tree together. This block path is the only one: a metric without
    bounds ((0, inf) for every block) and a uniform cloud in random order,
    whose blocks straddle every eps, take it too, block by block.
    """
    rows, n = kt.shape
    w = min(metric._BLOCK, 1 << (n - 1).bit_length())
    n_blocks = -(-n // w)
    lb, ub = bounds
    terms = kt * fw[None, :]
    if n % w:  # zero columns up to whole blocks, as fold_rows pads
        terms, dt = (np.pad(a, ((0, 0), (0, n_blocks * w - n)))
                     for a in (terms, dt))
    t3, d3 = (a.reshape(rows, n_blocks, w) for a in (terms, dt))
    eps = np.asarray(grid)[:, None]
    full = fold_rows(terms.reshape(-1, w)).reshape(rows, 1, n_blocks)
    vals = np.where(lb > eps, full, 0.0)  # (row, eps, block)
    e, b = np.nonzero((lb <= eps) & (ub > eps))
    for s in range(0, e.size, n_blocks):
        es, bs = e[s:s + n_blocks], b[s:s + n_blocks]
        vals[:, es, bs] = fold_rows(np.where(
            d3[:, bs] > eps[es], t3[:, bs], 0.0).reshape(-1, w)
            ).reshape(rows, -1)
    return list(fold_rows(vals.reshape(-1, n_blocks)).reshape(rows, -1).T)


def _on_rows(inside: np.ndarray, fn):
    """A tile function applying fn(k, d, rows) to the tile rows x with
    inside[x], zeros elsewhere; a tile of such rows only is handed over
    whole. Rows are folded one by one, so the entries do not depend on
    which other rows share the tile."""
    def tile(kt, dt, rows):
        sel = inside[rows]
        if sel.all():
            return fn(kt, dt, rows)
        part = fn(kt[sel], dt[sel], rows[sel])
        out = np.zeros((rows.size, *part.shape[1:]))
        out[sel] = part
        return out
    return tile


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
    grid = [float(e) for e in eps_grid]
    if not all(math.isfinite(e) and e > 0.0 for e in grid) \
            or any(a <= b for a, b in zip(grid, grid[1:])):
        raise InputError("eps grid must be finite, positive and strictly "
                         f"decreasing, got {grid!r}")
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
    tile = _on_rows(inside, lambda kt, dt, _rows: fold_rows(np.where(
        outside[None, :] & (dt > delta) & (dt <= eps),
        np.abs(kt) * w[None, :], 0.0)))
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

    The rows are walked one block of metric._BLOCK rows at a time, on
    `workers` threads, in metric.tile_map tiles, so a tile's
    metric._block_bounds are those of rows of one block. A tile starting
    at row a0 folds each row by aligned blocks of metric._BLOCK columns,
    subtrees of its tree: a block that lies left of column a0 + 1, or
    whose bounds lie at or below delta or at or above eps, holds no pair
    of the open band above the diagonal, so it serves +0.0, the fold of
    its masked zeros, and is not evaluated; of the others only the columns
    b > a0 are evaluated, by kernels.pair_rows and, for k(y, x) in the
    same layout, kernels.kernel_rows with swap.
    """
    if not 0.0 < delta < eps:
        raise InputError("need 0 < delta < eps")
    both = b1.members(m.cloud) & b2.members(m.cloud)
    rows = np.nonzero(both)[0]
    r = rows.size
    if r < 2:
        return 0.0, 0.0
    wr = m.weights[rows]
    boxes = metric._boxes(m.cloud.coords[rows])
    w = min(metric._BLOCK, 1 << (r - 1).bit_length())
    n_blocks = -(-r // w)

    def tile(a):
        # per row a, the folds of the three arrays, from the live column
        # blocks right of a0 laid side by side
        a0, ids = a[0], rows[a]
        lb, ub = metric._block_bounds(m.cloud, ids, boxes)
        live = np.flatnonzero((ub > delta) & (lb < eps))
        live = live[live >= (a0 + 1) // w]
        b = (live[:, None] * w + np.arange(w)).ravel()
        at = np.flatnonzero((b > a0) & (b < r))
        b = b[at]
        entries = np.zeros((3, a.size, live.size * w))
        if b.size:
            km, d = kernels.pair_rows(k, m.cloud, ids, rows[b])
            keep = (d > delta) & (d < eps) & (b[None, :] > a[:, None])
            t_upper = np.where(keep, km * np.outer(wr[a], wr[b]), 0.0)
            km_yx = kernels.kernel_rows(k, m.cloud, ids, rows[b], swap=True)
            t_lower = np.where(keep, km_yx * np.outer(wr[b], wr[a]).T, 0.0)
            entries[:, :, at] = (t_upper + t_lower, np.abs(t_upper),
                                 np.abs(t_lower))
        vals = np.zeros((3, a.size, n_blocks))
        vals[:, :, live] = fold_rows(entries.reshape(-1, w)).reshape(
            3, a.size, live.size)
        return fold_rows(vals.reshape(-1, n_blocks)).reshape(3, -1).T

    def row_block(a0):
        return metric.tile_map(
            tile, np.arange(a0, min(a0 + metric._BLOCK, r)), r)
    folds = np.concatenate(thread_map(row_block, range(0, r, metric._BLOCK),
                                      workers))
    residual, up, low = (pairwise_sum(f) for f in folds.T)
    return residual, up + low


def cancellation_path(antisymmetry: Check | None, m: DiscreteMeasure) -> str:
    """"exact" if the kernel_antisymmetry Check `antisymmetry` of k on
    m.cloud certifies every cancellation_residual of k on m +0.0 with no
    walk: it read lhs == 0.0 and no weight of m exceeds 1. Else "computed".

    Then k(x, y) + k(y, x) == 0 for every pair, all finite (inf + -inf is
    NaN), and kernel_rows gives a pair the same bits in any block shape
    and either orientation, so a walk reads k(y, x) == -k(x, y); w(y) w(x)
    and w(x) w(y) round alike, and weights <= 1 overflow no product, so
    t_lower == -t_upper: every entry, and every fold, is +0.0.
    """
    if antisymmetry is not None and antisymmetry.lhs == 0.0 \
            and m.weights.max(initial=0.0) <= 1.0:
        return "exact"
    return "computed"


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
    outside it). The nested truncations are _truncated_folds' block folds,
    and the bands are block folds too, over the same metric._block_bounds:
    each row is folded by aligned blocks of metric._BLOCK columns. A block
    whose bounds lie inside one step's band serves, for that step, its
    unmasked fold (one dense fold of |k| |f| w, and one of |k| w per ball
    over the ball's rows, masked to its outside columns); a block outside
    the grid, or a step's band that the bounds miss, serves +0.0, the fold
    of its masked zeros. Only the blocks that straddle a band edge are
    read pair by pair: their pairs inside the grid are picked once, each
    gets its step, and one fold_keys call scatters them into a zero row
    per (band, step, row, block) that holds a pair, 8 * 64 bytes each, and
    folds those rows densely in one step. The block values of every band
    then take the upper levels of the tree together, so each band keeps
    the bits of one dense fold of its masked row. Row folds are then reduced
    with pairwise_sum exactly as one pairing, one boundary term or one
    scale would reduce them alone.
    """
    grid = _check_grid(eps_grid)
    cloud, w = m.cloud, m.weights
    fvals, gvals = f.values(cloud), g.values(cloud)
    fw, afw = fvals * w, np.abs(fvals) * w
    steps = list(zip(grid[1:], grid[:-1]))  # (delta, eps) per step
    balls = {(b.center, b.radius): b.members(cloud)
             for _, b in f.terms + g.terms} if steps else {}
    # a ball holding no atom, or every atom, has an empty boundary
    banded = [(key, inside) for key, inside in balls.items()
              if 0 < np.count_nonzero(inside) < m.n_atoms]

    n_steps, n_cols = len(steps), m.n_atoms
    n_bands = (1 + len(banded)) * n_steps  # (family, step) pairs
    bw = min(metric._BLOCK, 1 << (n_cols - 1).bit_length())  # block width
    n_blocks = -(-n_cols // bw)
    width = n_blocks * bw  # a row's columns padded to whole blocks
    ascending = np.asarray(grid[::-1])
    step_type = np.min_scalar_type(n_steps)  # numpy radix-sorts these
    # per family, its rows (None: every row), the column factor of its
    # terms and its columns (None: every column), padded to `width`
    w_pad, afw_pad = (np.pad(a, (0, width - n_cols)) for a in (w, afw))
    families = [(None, afw_pad, None)] + [
        (inside, w_pad, np.pad(~inside, (0, width - n_cols)))
        for _, inside in banded]

    def step_of(d):
        """j with eps_{j+1} < d <= eps_j; -1 above eps_0, n_steps at or
        below eps_last."""
        return n_steps - np.searchsorted(ascending, d)

    def block_columns(blocks):
        return (blocks[:, None] * bw + np.arange(bw)).ravel()

    def keyed_folds(kt, dt, rows, blocks):
        """fold_keys' (family, step, row, block) folds of the in-grid pairs
        of the given blocks: the pairs in row-major order, then stably by
        step, keyed by band, row and column."""
        cols = block_columns(blocks)
        cols = cols[cols < n_cols]
        if cols.size < n_cols:
            kt, dt = kt[:, cols], dt[:, cols]
        at = np.flatnonzero((dt > grid[-1]) & (dt <= grid[0]))
        step = step_of(dt.ravel()[at]).astype(step_type)
        order = np.argsort(step, kind="stable")
        at = at[order]
        a = np.abs(kt.ravel()[at])
        r, c = np.divmod(at, cols.size)
        if cols.size < n_cols:
            c = cols[c]
        key = (step[order].astype(np.int64) * rows.size + r) * width + c
        vals, keys = [], []
        for b, (inside, factor, outside) in enumerate(families):
            e = slice(None)
            if inside is not None:
                held = inside[rows]
                if not held.any():
                    continue
                e = np.flatnonzero(outside[c] if held.all()
                                   else held[r] & outside[c])
            vals.append(a[e] * factor[c[e]])
            keys.append(key[e] + b * n_steps * rows.size * width)
        return fold_keys(np.concatenate(vals), np.concatenate(keys),
                         n_bands * rows.size * n_blocks, bw)

    def band_folds(kt, dt, rows, bounds):
        """Per tile row, the fold of each (family, step) band."""
        lo, hi = (step_of(x) for x in bounds)  # lo >= hi, as lb <= ub
        straddle = np.flatnonzero(lo > hi)
        vals = (keyed_folds(kt, dt, rows, straddle) if straddle.size
                else np.zeros(n_bands * rows.size * n_blocks)
                ).reshape(-1, n_steps, rows.size, n_blocks)
        whole = np.flatnonzero((lo == hi) & (lo >= 0) & (lo < n_steps))
        if whole.size:
            cols = block_columns(whole)
            a = np.zeros((rows.size, cols.size))
            inner = cols < n_cols
            a[:, inner] = np.abs(kt[:, cols[inner]])
            j = lo[whole][:, None]
            for b, (inside, factor, outside) in enumerate(families):
                if inside is None:
                    held, t = np.arange(rows.size), a * factor[cols]
                else:
                    held = np.flatnonzero(inside[rows])
                    t = np.where(outside[cols], a[held] * factor[cols], 0.0)
                if held.size:
                    vals[b, j, held, whole[:, None]] = fold_rows(
                        t.reshape(-1, bw)).reshape(held.size, -1).T
        return fold_rows(vals.reshape(-1, n_blocks)).reshape(-1, rows.size).T

    boxes = metric._boxes(cloud.coords)

    def tile(kt, dt, rows):
        bounds = metric._block_bounds(cloud, rows, boxes)
        truncs = np.stack(_truncated_folds(kt, dt, fw, grid, bounds), axis=1)
        if not steps:
            return truncs
        return np.concatenate([truncs, band_folds(kt, dt, rows, bounds)],
                              axis=1)

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
    inner = dc < ball.radius
    interior = np.nonzero(inner)[0]
    on_sphere = np.nonzero(dc == ball.radius)[0].tolist()
    if interior.size == 0:
        raise InputError("ball interior holds no atoms")
    outside = dc > ball.radius
    w = m.weights
    tile = _on_rows(inner, lambda kt, dt, _rows: fold_rows(np.where(
        outside[None, :] & (dt < 2.0), np.abs(kt) * w[None, :], 0.0)))

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
