"""Truncated singular integral operators and the proof-side estimates.

Everything here is a finite double sum over atom pairs, evaluated by one
pair engine. `kernels.map_pair_tiles(k, cloud, rows, fn)` hands fn the
kernel rows and the metric-distance rows of each row tile, both built per
tile by `kernels.pair_rows` for either kernel family, so no N x N kernel or
distance array exists. Every sum walks the rows it needs with
`metric.tile_map`, in tiles of about _TILE_PAIRS pairs, max(1, _TILE_PAIRS
// N) rows of N columns each, so memory stays bounded at any N.

compute_pairing_trace evaluates each pair once per trace. While it holds a
tile it folds every eps truncation over fold_rows' tree, by blocks of
metric._BLOCK columns, each an aligned subtree: metric._block_bounds
bounds every distance of a block exactly, so a block beyond eps serves
its one unmasked fold, a block within eps serves +0.0, and only the
blocks that straddle eps are masked and folded again (an eps that every
block straddles is folded densely, and a dense mask that gains no pair
reuses the previous fold). Every step's scale band and ball bands go in
one sums.fold_keys call over the pairs inside the grid, keyed by band.
That fold walks fold_rows' tree over the band's pairs alone, adding a
lone child to +0.0 as the dense tree adds it to a masked zero, so the
bits are those of one masked dense fold per band.

The row sums are split into a per-tile function and a reduction, a
`metric.RowPass`: trace_pass, annuli_pass and boundary_pass (with
measure.growth_pass and kernels.size_bound_pass). Each public function
walks its own pass; suite.run_convergence_suite hands one walk's tiles to
all five with kernels.sweep_pair_tiles, with the same bits.
cancellation_residual is no RowPass: it walks only the upper triangle
y > x of its ball intersection, in raveled chunks split over `workers`
threads, and skips each block of metric._BLOCK rows against metric._BLOCK
columns (in intersection order) whose bounds place every pair outside
the open band: its entries stay +0.0, as the masked walk would leave
them. Given a kernel_antisymmetry Check that read exactly 0, it
evaluates k(x, y) alone and certifies the residual +0.0 from that check;
otherwise k(x, y) and k(y, x) are evaluated separately, so an
antisymmetry defect still shows.

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

from .errors import Check, InputError
from .good_radii import GoodRadiusCertificate
from . import kernels, metric
from .kernels import KernelSpec, map_pair_tiles, run_pass
from .measure import DiscreteMeasure, StepMeasure
from .metric import PointCloud, RowPass
from .sums import fold_keys, fold_raveled, fold_rows, pairwise_sum


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
    return SimpleFunction(terms=tuple(
        (float(t["coeff"]), Ball(center=int(t["center"]),
                                 radius=float(t["radius"])))
        for t in obj["terms"]))


def _truncated_folds(kt: np.ndarray, dt: np.ndarray, fw: np.ndarray,
                     grid, bounds=None) -> list[np.ndarray]:
    """(T_eps(f mu))(x) per tile row for each eps: strict d(x, y) > eps.

    bounds is the tile rows' metric._block_bounds (lb, ub) per block of
    metric._BLOCK columns; None bounds no block. Each block (the whole
    row, if narrower) is an aligned subtree of fold_rows' tree. For an
    eps, a block with lb > eps serves its unmasked fold, taken once; one
    with ub <= eps serves +0.0, the fold of its masked zeros; only the
    blocks in between are masked and folded again, a tile's worth of
    (eps, block) pairs at a time, and the block values of every eps then
    take the upper levels of the same tree together. An eps that leaves
    every block in between is folded densely. The grid decreases, so the
    masks nest: a dense mask with as many entries as an earlier one is
    that mask, and its fold is reused.
    """
    rows, n = kt.shape
    w = min(metric._BLOCK, 1 << (n - 1).bit_length())
    n_blocks = -(-n // w)
    lb, ub = bounds or (np.zeros(n_blocks), np.full(n_blocks, np.inf))
    terms = kt * fw[None, :]
    eps = np.asarray(grid)[:, None]
    mixed = (lb <= eps) & (ub > eps)  # (eps, block)
    dense = np.flatnonzero(mixed.all(axis=1))
    mixed[dense] = False
    out = [None] * len(grid)
    if dense.size < len(grid):
        if n % w:  # zero columns up to whole blocks, as fold_rows pads
            terms, dt = (np.pad(a, ((0, 0), (0, n_blocks * w - n)))
                         for a in (terms, dt))
        t3, d3 = (a.reshape(rows, n_blocks, w) for a in (terms, dt))
        full = fold_rows(terms.reshape(-1, w)).reshape(rows, 1, n_blocks)
        vals = np.where(lb > eps, full, 0.0)  # (row, eps, block)
        e, b = np.nonzero(mixed)
        for s in range(0, e.size, n_blocks):
            es, bs = e[s:s + n_blocks], b[s:s + n_blocks]
            vals[:, es, bs] = fold_rows(np.where(
                d3[:, bs] > eps[es], t3[:, bs], 0.0).reshape(-1, w)
                ).reshape(rows, -1)
        out = list(fold_rows(vals.reshape(-1, n_blocks)).reshape(rows, -1).T)
    count = -1
    for j in dense:
        mask = dt > grid[j]
        c = np.count_nonzero(mask)
        if c != count:
            count, fold = c, fold_rows(np.where(mask, terms, 0.0))
        out[j] = fold
    return out


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

    Equals sum over pairs with d(x,y) > eps of k(x,y) f(y) g(x) w(y) w(x).
    `workers` splits the row tiles; the reduction tree is fixed, so the
    result is bit-identical for any worker count.
    """
    if not eps > 0.0:
        raise InputError("eps must be positive")
    values, _ = run_pass(k, m.cloud, _pairing_pass(m, f, g, [eps]), workers)
    return values[0]


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
                          workers: int = 1,
                          antisymmetry: Check | None = None
                          ) -> tuple[float, float]:
    """Double sum of k(x,y) w(x) w(y) over (B1 cap B2)^2 in the open band.

    Canonical pair ordering: each unordered pair contributes
    t_upper + t_lower = k(x,y)w(x)w(y) + k(y,x)w(y)w(x), which cancels
    bit-exactly for antisymmetric kernels. Returns (residual, sum of term
    magnitudes). Only the upper triangle y > x is evaluated, in blocks of
    kernels.pair_rows; the rest of each raveled row is zero. A chunk's
    rows are taken one block of metric._BLOCK rows at a time, and a block
    of columns whose metric._block_bounds lie at or below delta, or at or
    above eps, is not evaluated: it holds no pair of the open band, so
    its entries are the +0.0 the mask would give. The raveled chunks are
    folded on `workers` threads, with the same bits for any count.

    Two paths give the same bits. `antisymmetry` is the kernel_antisymmetry
    Check of k on m.cloud, if the caller has one (cancellation_path).

    - exact: the Check read lhs == 0.0, so k(x, y) + k(y, x) == 0 exactly
      for every pair, and every value is finite (inf + -inf is NaN).
      kernel_rows gives a pair the same bits in any block shape, so the
      values here are those the check read: k(y, x) == -k(x, y). As
      w(y) w(x) and w(x) w(y) round alike, t_lower == -t_upper bit for
      bit, and no weight above 1 means no product overflows. So each
      entry of the residual array is x + (-x) = +0.0, the residual is
      +0.0, and |t_lower| == |t_upper|: only k(x, y) is evaluated, and
      only |t_upper| is folded, to `up`; the scale is up + up.
    - computed: k(x, y) and k(y, x) are evaluated each on its own and all
      three arrays are folded, so an antisymmetry defect still shows.
    """
    if not 0.0 < delta < eps:
        raise InputError("need 0 < delta < eps")
    both = b1.members(m.cloud) & b2.members(m.cloud)
    rows = np.nonzero(both)[0]
    r = rows.size
    if r < 2:
        return 0.0, 0.0
    wr = m.weights[rows]
    exact = cancellation_path(antisymmetry, m) == "exact"
    boxes = metric._boxes(m.cloud.coords[rows])

    def fill(out, a0, a1):
        # rows a0..a1-1, within one block of rows: only the columns b > a0
        # of the column blocks whose bounds meet the open band are evaluated
        ids, a = rows[a0:a1], np.arange(a0, a1)
        lb, ub = metric._block_bounds(m.cloud, ids, boxes)
        live = np.repeat((ub > delta) & (lb < eps), metric._BLOCK)[:r]
        b = np.flatnonzero(live[a0 + 1:]) + (a0 + 1)
        if b.size == 0:
            return
        cols = rows[b]
        km, d = kernels.pair_rows(k, m.cloud, ids, cols)
        keep = (d > delta) & (d < eps) & (b[None, :] > a[:, None])
        t_upper = np.where(keep, km * np.outer(wr[a], wr[b]), 0.0)
        if exact:
            out[0][:, b] = np.abs(t_upper)
            return
        km_t = kernels.kernel_rows(k, m.cloud, cols, ids).T  # k(y, x)
        t_lower = np.where(keep, km_t * np.outer(wr[b], wr[a]).T, 0.0)
        out[0][:, b] = t_upper + t_lower
        out[1][:, b] = np.abs(t_upper)
        out[2][:, b] = np.abs(t_lower)

    def block(a0, a1):
        # rows a0..a1-1 of the (B1 cap B2)^2 arrays, zero outside the upper
        # triangle and the band, filled one block of rows at a time
        out = np.zeros((1 if exact else 3, a1 - a0, r))
        cuts = [a0, *range(a0 - a0 % metric._BLOCK + metric._BLOCK, a1,
                           metric._BLOCK), a1]
        for g0, g1 in zip(cuts, cuts[1:]):
            fill(out[:, g0 - a0:g1 - a0], g0, g1)
        return out
    # chunks of the tile size, read when called, like tile_map's
    folds = fold_raveled(block, r, r, metric._TILE_PAIRS, workers)
    if exact:
        up = float(folds[0])
        return 0.0, up + up
    residual, up, low = folds
    return float(residual), float(up) + float(low)


def cancellation_path(antisymmetry: Check | None, m: DiscreteMeasure) -> str:
    """"exact" if cancellation_residual on m certifies its residual from
    the kernel_antisymmetry Check `antisymmetry`: it read exactly 0.0 and
    no weight of m exceeds 1; else "computed"."""
    if antisymmetry is not None and antisymmetry.lhs == 0.0 \
            and m.weights.max(initial=0.0) <= 1.0:
        return "exact"
    return "computed"


def pairing_difference_bound(k: KernelSpec, m: DiscreteMeasure,
                             f: SimpleFunction, g: SimpleFunction,
                             delta: float, eps: float) -> Check:
    """The Check |<T_eps f, g> - <T_delta f, g>| <= the four-term boundary
    bound sum_ij |a_i b_j| (boundary(B_i) + 2 boundary(S_j)) over the band
    delta < d <= eps, as one step of a trace."""
    if not 0.0 < delta < eps:
        raise InputError("need 0 < delta < eps")
    _, checks = run_pass(k, m.cloud, _pairing_pass(m, f, g, [eps, delta]))
    return checks[0]


def _pairing_pass(m: DiscreteMeasure, f: SimpleFunction, g: SimpleFunction,
                  grid: list[float]) -> RowPass:
    """Pairings along a decreasing grid, and the four-term bound Check of
    each consecutive pair, as a RowPass over every row; reduced to
    (values, checks).

    Per tile, per-row folds are taken of: the strict truncation at each eps;
    the scale band delta < d <= eps of each step; and each ball's band
    delta < d <= eps (rows in the ball, columns outside it). The nested
    truncations are dense folds. The bands of all steps are disjoint, so
    the pairs with eps_last < d <= eps_0 are picked once, each gets its
    step, and one fold_keys call folds every (band, step, row) over its
    own pairs: bit-identical to a dense fold of the masked row, since a
    lone child is added to +0.0 like a masked zero, at a cost that follows
    the pairs inside eps_0, not the grid length times the balls. Row folds
    are then reduced with pairwise_sum exactly as one pairing, one boundary
    term or one scale would reduce them alone.
    """
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
    pad = 1 << (n_cols - 1).bit_length()  # fold_keys' padded row width
    ascending = np.asarray(grid[::-1])
    step_type = np.min_scalar_type(n_steps)  # numpy radix-sorts these
    ball_sides = [(inside, ~inside) for _, inside in banded]

    def band_entries(kt, dt, rows):
        """The tile's band terms and their fold_keys keys, in key order: one
        row per (family, step, tile row), the scale band's |k| |f| w first,
        then each ball's |k| w over rows inside it and columns outside."""
        # the pairs inside eps_0 and outside eps_last, in row-major order,
        # then stably by step j: eps_{j+1} < d <= eps_j
        at = np.flatnonzero((dt > grid[-1]) & (dt <= grid[0]))
        step = (n_steps - np.searchsorted(ascending, dt.ravel()[at])
                ).astype(step_type)
        order = np.argsort(step, kind="stable")
        at = at[order]
        r, c = np.divmod(at, n_cols)
        key = (step[order].astype(np.int64) * rows.size + r) * pad + c
        a = np.abs(kt.ravel()[at])
        vals, keys = [a * afw[c]], [key]
        family = n_steps * rows.size * pad  # keys per family
        for b, (inside, outside) in enumerate(ball_sides, start=1):
            held = inside[rows]
            if not held.any():
                continue
            e = np.flatnonzero(outside[c] if held.all()
                               else held[r] & outside[c])
            vals.append(a[e] * w[c[e]])
            keys.append(key[e] + b * family)
        return np.concatenate(vals), np.concatenate(keys)

    boxes = metric._boxes(cloud.coords)

    def tile(kt, dt, rows):
        truncs = np.stack(_truncated_folds(
            kt, dt, fw, grid, metric._block_bounds(cloud, rows, boxes)),
            axis=1)
        if not steps:
            return truncs
        bands = fold_keys(*band_entries(kt, dt, rows),
                          (1 + len(banded)) * n_steps * rows.size, n_cols)
        return np.concatenate([truncs, bands.reshape(-1, rows.size).T], axis=1)

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
        return values, checks
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
    return p.reduce(map_pair_tiles(k, m.cloud, p.rows, p.tile), s, c, c_mu)


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


def trace_pass(m: DiscreteMeasure, f: SimpleFunction, g: SimpleFunction,
               eps_grid) -> RowPass:
    """compute_pairing_trace as a RowPass over every row."""
    grid = _check_grid(eps_grid)
    p = _pairing_pass(m, f, g, grid)

    def reduce(res):
        values, checks = p.reduce(res)
        return PairingTrace(eps_grid=tuple(grid), values=tuple(values),
                            checks=tuple(checks))
    return p._replace(reduce=reduce)
