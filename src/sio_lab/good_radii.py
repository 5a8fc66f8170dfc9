"""Constructive exponential-growth machinery: good radii for a StepMeasure.

Multiscale construction over an interval I = [a, b]: generation n partitions
I into lam^(2n) half-open cells of width |I| lam^(-2n) (the last cell is
closed). A cell is *heavy* when its measure is >= lam^(-n); every gridline
carries a *shell* of half-width |I| lam^(-3n). A point t is a good radius at
depth N when, for every n <= N, its cell is light and t clears both cell
endpoints by at least |I| lam^(-3n).

Certified radii consequently satisfy the non-concentration window bound
mass([t - |I| lam^(-3n), t + |I| lam^(-3n)]) < lam^(-n) for every n <= N:
the window sits inside J_n(t) by the clearance, and J_n(t) is light.

The good set is built cell by cell: inside each generation-N cell it is one
closed piece (the points clearing every ancestor's endpoints), dropped whole
when an ancestor is heavy. A heavy cell's padding is its neighbours' own
shells, so no piece is ever trimmed. The measure-free pieces are periodic
(generation-1 cell J holds cell 0's pieces translated), so they are built
from one period and cached per (lam, depth). A measure's good set is a view:
the cached pieces minus the index runs below its padded heavy cells. Counts,
totals, single intervals and every check of verify_good_set are answered
from the runs, so no per-measure array is as large as the set.

All comparisons are exact and run on Python ints: good-set endpoints live
on the integer grid of units u = |I| lam^(-3N), atoms are integer ticks over
their measure's scale, and masses are integer numerators over its
denominator, so a threshold test mass >= lam^(-n) is the integer comparison
units * lam^n >= denominator. A radius t = p/q sits at (t - a) / |I| = X / Q
(GoodSetParams._relative), so its generation-n cell is X lam^(2n) // Q, the
remainder measures its clearance from the cell's ends, and the cell's mass
is two tick bisections. Fraction appears only in what is returned
(witnesses, radii, interval ends). Certificates at deep generations (shell
widths ~ lam^(-12)) never depend on float round-off.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import groupby

import numpy as np

from .errors import (BudgetError, CertificationError, InputError,
                     SearchExhaustedError)
from .measure import TOTAL_MASS_SLACK, StepMeasure, _exact

HEAVY_CELL = "heavy_cell"
GRIDLINE_SHELL = "gridline_shell"


@dataclass(frozen=True)
class GoodSetParams:
    lam: int
    depth: int
    a: Fraction = Fraction(0)
    b: Fraction = Fraction(1)
    budget: int = 10 ** 6

    def __post_init__(self):
        # the integer predicate needs int powers of lam: no float, no bool
        if type(self.lam) is not int or self.lam < 3:
            raise InputError(f"lambda must be an integer > 2, got "
                             f"{self.lam!r}")
        if type(self.depth) is not int or self.depth < 1:
            raise InputError(f"depth must be a positive integer, got "
                             f"{self.depth!r}")
        object.__setattr__(self, "a", _exact(self.a, "interval end a"))
        object.__setattr__(self, "b", _exact(self.b, "interval end b"))
        if not self.a < self.b:
            raise InputError("interval must satisfy a < b")

    @cached_property
    def length(self) -> Fraction:
        return self.b - self.a

    @cached_property
    def _widths(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """(cell width, shell half-width) of generations 0..depth."""
        return tuple((self.length / self.lam ** (2 * n),
                      self.length / self.lam ** (3 * n))
                     for n in range(self.depth + 1))

    @property
    def lower_bound(self) -> Fraction:
        """Truncated guaranteed fraction: 1 - 3 sum_{n<=depth} lam^-n."""
        return 1 - 3 * sum(Fraction(1, self.lam ** n)
                           for n in range(1, self.depth + 1))

    @property
    def bound_is_vacuous(self) -> bool:
        """The asymptotic bound 1 - 3/(lam-1) is positive only for lam >= 5."""
        return 1 - Fraction(3, self.lam - 1) <= 0

    def cell_width(self, n: int) -> Fraction:
        """Width of a generation-n cell, n <= depth."""
        return self._widths[n][0]

    def shell_half_width(self, n: int) -> Fraction:
        """Half-width of a generation-n shell, n <= depth."""
        return self._widths[n][1]

    def n_cells(self, n: int) -> int:
        return self.lam ** (2 * n)

    def _relative(self, p: int, q: int) -> tuple[int, int]:
        """(p/q - a) / |I| as an unreduced pair (X, Q) of ints, Q > 0 when
        q > 0: the point's cell at generation n is X lam^(2n) // Q."""
        a, length = self.a, self.length
        return ((p * a.denominator - a.numerator * q) * length.denominator,
                q * a.denominator * length.numerator)

    def total_cells(self) -> int:
        return sum(self.lam ** (2 * n) for n in range(1, self.depth + 1))


@dataclass(frozen=True)
class GoodRadiusCertificate:
    t: Fraction
    lam: int
    depth: int
    # one (generation, cell index, exact cell mass, exact clearance) per level
    witnesses: tuple[tuple[int, int, Fraction, Fraction], ...]
    ok: bool = True


@dataclass(frozen=True)
class GoodRadiusRejection:
    t: Fraction
    generation: int
    reason: str  # HEAVY_CELL or GRIDLINE_SHELL
    ok: bool = False


@dataclass(frozen=True)
class RemovedFamily:
    """Heavy cells per generation; only descendants of survivors are listed
    (a cell inside an already-removed ancestor is covered by that ancestor).
    Gridline shells are implicit: periodic with spacing |I| lam^(-2n) and
    half-width |I| lam^(-3n)."""

    params: GoodSetParams
    heavy: tuple[tuple[tuple[int, Fraction], ...], ...]  # [gen-1][k] = (idx, mass)

    def heavy_at(self, n: int) -> tuple[tuple[int, Fraction], ...]:
        return self.heavy[n - 1]


def _check_total(v: StepMeasure) -> None:
    # float-derived probability weights may exceed 1 by ulps; allow that
    slack = TOTAL_MASS_SLACK
    if v.prefix[-1] * slack.denominator \
            > (slack.denominator + slack.numerator) * v.denominator:
        raise InputError("StepMeasure must be (sub-)probability: total <= 1")


def _heavy(v: StepMeasure, units: int, lam: int, n: int) -> bool:
    """Whether units / v.denominator >= lam^(-n)."""
    return units * lam ** n >= v.denominator


def _cell_masses(v: StepMeasure, params: GoodSetParams, n: int
                 ) -> dict[int, int]:
    """Exact mass per atom-bearing grid cell at generation n, in units of
    1/v.denominator, in ascending cell order; cells of zero mass are left
    out. Cells are half-open [lo, hi) except the last, which is closed, so
    an atom on a gridline belongs to the cell on its right. Ticks are
    sorted, so a cell's atoms are one run and its mass a difference of
    prefix sums."""
    ticks, prefix, scale = v.ticks, v.prefix, v.scale
    cells = params.n_cells(n)

    def cell(k: int) -> int:
        x, q = params._relative(ticks[k], scale)
        return min(x * cells // q, cells - 1)

    a, b = params.a, params.b
    i = v.below(a.numerator, a.denominator)
    out: dict[int, int] = {}
    for j, run in groupby(range(i, v.below(b.numerator, b.denominator,
                                           closed=True)), key=cell):
        k = i + sum(1 for _ in run)
        if prefix[k] > prefix[i]:
            out[j] = prefix[k] - prefix[i]
        i = k
    return out


def _buried(removed: list[set[int]], lam: int, n: int, j: int) -> bool:
    """Whether generation-n cell j lies inside a cell removed at some
    generation m < n; removed[m - 1] holds generation m's removed indices."""
    return any(j // lam ** (2 * (n - m)) in removed[m - 1]
               for m in range(1, n))


def _generation_masses(v: StepMeasure, params: GoodSetParams
                       ) -> list[dict[int, int]]:
    """_cell_masses of generations 1..depth."""
    return [_cell_masses(v, params, n) for n in range(1, params.depth + 1)]


def _family(v: StepMeasure, params: GoodSetParams,
            masses: list[dict[int, int]]) -> RemovedFamily:
    """The heavy cells of the generation masses, minus those inside a heavy
    ancestor."""
    lam = params.lam
    removed: list[set[int]] = []
    heavy: list[tuple[tuple[int, Fraction], ...]] = []
    for n, cells in enumerate(masses, 1):
        gen = [j for j, units in cells.items()
               if _heavy(v, units, lam, n)
               and not _buried(removed, lam, n, j)]
        removed.append(set(gen))
        heavy.append(tuple((j, Fraction(cells[j], v.denominator))
                           for j in gen))
    return RemovedFamily(params=params, heavy=tuple(heavy))


def build_removed_families(v: StepMeasure, params: GoodSetParams
                           ) -> RemovedFamily:
    """Heavy grid cells per generation, in exact integer arithmetic."""
    _check_total(v)
    return _family(v, params, _generation_masses(v, params))


def _good_radius(v: StepMeasure, params: GoodSetParams, p: int, q: int
                 ) -> tuple[list[tuple[int, int, int, int, int]],
                            tuple[int, str] | None]:
    """is_good_radius of t = p/q, q > 0, in ints: the witnesses
    (n, j, units, clearance numerator, clearance denominator) of the
    generations t passes, and its first failure (n, reason), None if none.

    With (t - a) / |I| = X / Q, t lies X lam^(2n) / Q cells into I: its
    cell j and remainder r are divmod(X lam^(2n), Q), so t clears the cell's
    ends by r / Q and (Q - r) / Q cell widths. The clearance is at least
    |I| lam^(-3n) = lam^(-n) cell widths iff min(r, Q - r) lam^n >= Q. The
    cell [lo, hi) (closed when last) has its ends over the denominator
    a_d |I|_d lam^(2n), and its mass is two tick counts.
    """
    x, qq = params._relative(p, q)
    if not 0 < x < qq:
        raise InputError("t must lie in the interior of I")
    a, length, lam = params.a, params.length, params.lam
    step = length.numerator * a.denominator
    prefix = v.prefix
    witnesses = []
    for n in range(1, params.depth + 1):
        cells = lam ** (2 * n)
        j, r = divmod(x * cells, qq)
        den = a.denominator * length.denominator * cells
        lo = a.numerator * length.denominator * cells + j * step
        units = prefix[v.below(lo + step, den, closed=j == cells - 1)] \
            - prefix[v.below(lo, den)]
        if _heavy(v, units, lam, n):
            return witnesses, (n, HEAVY_CELL)
        clear = min(r, qq - r)
        if clear * lam ** n < qq:
            return witnesses, (n, GRIDLINE_SHELL)
        witnesses.append((n, j, units, clear * length.numerator,
                          qq * length.denominator * cells))
    return witnesses, None


def is_good_radius(v: StepMeasure, t, params: GoodSetParams):
    """Certify t, or report the first failing generation.

    Checks, per generation n <= depth: the grid cell J_n(t) has exact mass
    < lam^(-n), and t sits at distance >= |I| lam^(-3n) from both cell
    endpoints. Implicit check: no family materialization needed. Each
    witness is (n, cell index, exact cell mass, exact clearance).
    """
    _check_total(v)
    t = _exact(t, "t")
    witnesses, failure = _good_radius(v, params, t.numerator, t.denominator)
    if failure is not None:
        n, reason = failure
        return GoodRadiusRejection(t=t, generation=n, reason=reason)
    return GoodRadiusCertificate(
        t=t, lam=params.lam, depth=params.depth,
        witnesses=tuple((n, j, Fraction(units, v.denominator),
                         Fraction(clr_num, clr_den))
                        for n, j, units, clr_num, clr_den in witnesses))


# ---------------------------------------------------------------------------
# materialization: the cached measure-free pieces minus the index runs a
# measure drops, in integer units


@dataclass(frozen=True)
class IntervalSet:
    """Disjoint sorted closed intervals on the integer grid of `unit`: the
    pieces of a base set minus the pieces whose base index lies in a
    dropped run [lo, hi).

    Fractional endpoints are offset + starts[k] * unit etc.; lengths and the
    total are exact rationals. The base arrays are shared, never copied:
    count, total, interval(k) and midpoint(k) are answered from the runs.
    """

    base_starts: np.ndarray  # int64, sorted
    base_ends: np.ndarray    # int64, base_ends[i] > base_starts[i]
    base_total_units: int
    drop_lo: np.ndarray      # int64; sorted, disjoint, non-touching runs
    drop_hi: np.ndarray
    unit: Fraction
    offset: Fraction

    @cached_property
    def _dropped_through(self) -> np.ndarray:
        """Run lengths summed, after a leading 0: entry r counts the pieces
        dropped before run r, the last entry all dropped pieces."""
        return np.concatenate([[0], np.cumsum(self.drop_hi - self.drop_lo)])

    def _dropped_below(self, idx):
        """How many dropped base indices lie below each base index in idx."""
        idx = np.asarray(idx, dtype=np.int64)
        if not self.drop_lo.size:
            return np.zeros_like(idx)
        r = np.searchsorted(self.drop_lo, idx, side="right") - 1
        rr = np.maximum(r, 0)  # the last run starting at or below idx
        inside = np.minimum(idx, self.drop_hi[rr]) - self.drop_lo[rr]
        return np.where(r >= 0, self._dropped_through[rr] + inside, 0)

    def _n_kept(self, i0, i1):
        """How many kept pieces have a base index in [i0, i1), i0 <= i1."""
        return (np.asarray(i1) - i0) \
            - (self._dropped_below(i1) - self._dropped_below(i0))

    def _base_index(self, k: int) -> int:
        """Base index of the k-th kept piece; negative k counts from the
        end."""
        n = self.n_intervals
        if not -n <= k < n:
            raise IndexError(f"interval {k} out of range for {n} intervals")
        k %= n
        kept_before_run = self.drop_lo - self._dropped_through[:-1]
        r = int(np.searchsorted(kept_before_run, k, side="right"))
        return k + int(self._dropped_through[r])

    @property
    def n_intervals(self) -> int:
        return int(self.base_starts.size - self._dropped_through[-1])

    @cached_property
    def total_units(self) -> int:
        # each run's own slice: no temporary larger than the dropped pieces
        return self.base_total_units - sum(
            int((self.base_ends[lo:hi] - self.base_starts[lo:hi]).sum())
            for lo, hi in zip(self.drop_lo.tolist(), self.drop_hi.tolist()))

    @property
    def total_length(self) -> Fraction:
        return self.total_units * self.unit

    def _kept(self, base: np.ndarray) -> np.ndarray:
        """base's entries outside every dropped run."""
        return np.concatenate([
            base[a:b] for a, b in zip([0, *self.drop_hi.tolist()],
                                      [*self.drop_lo.tolist(), base.size])])

    @property
    def starts(self) -> np.ndarray:
        """Every kept start, built on demand (an N-sized array)."""
        return self._kept(self.base_starts)

    @property
    def ends(self) -> np.ndarray:
        return self._kept(self.base_ends)

    def interval(self, k: int) -> tuple[Fraction, Fraction]:
        i = self._base_index(k)
        return (self.offset + int(self.base_starts[i]) * self.unit,
                self.offset + int(self.base_ends[i]) * self.unit)

    def intervals(self):
        for s, e in zip(self.starts.tolist(), self.ends.tolist()):
            yield self.offset + s * self.unit, self.offset + e * self.unit

    def _midpoint_ratio(self, i: int) -> tuple[int, int]:
        """Base piece i's midpoint as an unreduced pair (p, q) of ints."""
        o, u = self.offset, self.unit
        return (2 * o.numerator * u.denominator
                + (int(self.base_starts[i]) + int(self.base_ends[i]))
                * u.numerator * o.denominator,
                2 * o.denominator * u.denominator)

    def midpoint(self, k: int) -> Fraction:
        return Fraction(*self._midpoint_ratio(self._base_index(k)))

    def _half_units(self, p: int, q: int) -> tuple[int, int]:
        """(p/q - offset) / (unit/2) as an unreduced pair of ints, q > 0:
        on this scale base piece i's midpoint sits at s + e."""
        o, u = self.offset, self.unit
        return ((p * o.denominator - o.numerator * q) * 2 * u.denominator,
                q * o.denominator * u.numerator)

    def to_json(self) -> dict:
        ivals = []
        for lo, hi in self.intervals():
            ivals.append([lo.numerator, lo.denominator,
                          hi.numerator, hi.denominator])
        tl = self.total_length
        return {"intervals": ivals,
                "total_length": [tl.numerator, tl.denominator]}


@lru_cache(maxsize=8)
def _base_good(lam: int, depth: int) -> tuple[np.ndarray, np.ndarray, int]:
    """I minus all gridline shells (no measure involved), in units of
    |I| lam^(-3 depth) over [0, lam^(3 depth)], with its total length in
    units. Cached: it is the common core of every materialization at this
    (lam, depth).

    Inside depth-generation cell j the set is the single closed piece
    [max_n lo_n + h_n, min_n hi_n - h_n], where [lo_n, hi_n] is the
    generation-n cell holding j and h_n = lam^(3(depth - n)) its shell
    half-width; other gridlines' shells stay outside that cell. The piece
    is kept when it has positive length.

    The formula is periodic: generation-1 cell J is cell 0 translated by
    J T, T = lam^(3 depth - 2), and so are all of its descendants' cells
    and shells. So the pieces of cell 0 are built once and translated.
    """
    period = lam ** (3 * depth - 2)
    n_cells = lam ** (2 * depth - 2)  # depth cells in generation-1 cell 0
    s = np.zeros(n_cells, dtype=np.int64)
    e = np.full(n_cells, period, dtype=np.int64)
    for n in range(1, depth + 1):
        spacing = lam ** (3 * depth - 2 * n)
        half = lam ** (3 * (depth - n))
        lo = np.arange(lam ** (2 * n - 2), dtype=np.int64)[:, None] * spacing
        # row J of these views holds the depth cells inside generation-n
        # cell J
        sv = s.reshape(lam ** (2 * n - 2), -1)
        ev = e.reshape(lam ** (2 * n - 2), -1)
        np.maximum(sv, lo + half, out=sv)
        np.minimum(ev, lo + (spacing - half), out=ev)
    keep = e > s
    ps, pe = s[keep], e[keep]
    shift = np.arange(lam ** 2, dtype=np.int64)[:, None] * period
    gs, ge = (ps[None, :] + shift).ravel(), (pe[None, :] + shift).ravel()
    gs.setflags(write=False)
    ge.setflags(write=False)
    return gs, ge, lam ** 2 * int((pe - ps).sum())


def _heavy_padded_units(family: RemovedFamily
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Heavy cells fused with their flanking shells, in integer units,
    one interval per heavy cell (they may overlap)."""
    p = family.params
    lam, depth = p.lam, p.depth
    big = lam ** (3 * depth)
    ss, ee = [], []
    for n in range(1, depth + 1):
        spacing = lam ** (3 * depth - 2 * n)
        half = lam ** (3 * (depth - n))
        for j, _mass in family.heavy_at(n):
            ss.append(max(j * spacing - half, 0))
            ee.append(min((j + 1) * spacing + half, big))
    return np.asarray(ss, dtype=np.int64), np.asarray(ee, dtype=np.int64)


def _merged_runs(i0: np.ndarray, i1: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The union of the index runs [i0[r], i1[r]) as sorted, disjoint,
    non-touching runs; empty runs vanish."""
    runs: list[list[int]] = []
    for lo, hi in sorted(zip(i0.tolist(), i1.tolist())):
        if lo >= hi:
            continue
        if runs and lo <= runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], hi)
        else:
            runs.append([lo, hi])
    out = np.asarray(runs, dtype=np.int64).reshape(-1, 2)
    return out[:, 0].copy(), out[:, 1].copy()


def materialize_good_set(v: StepMeasure, params: GoodSetParams) -> IntervalSet:
    """I minus all padded heavy cells and all gridline shells up to depth.

    The measure-free pieces of `_base_good` minus every piece whose depth
    cell descends from a heavy cell: one index run per padded heavy cell,
    the pieces starting inside it. A heavy cell's padding is its
    neighbours' own shells, so removal drops whole pieces and trims none.
    Certifies the truncated lower bound
    Leb >= |I| (1 - 3 sum_{n<=depth} lam^-n) before returning.
    """
    _check_total(v)
    total_cells = params.total_cells()
    if total_cells > params.budget:
        n_ok = 0
        acc = 0
        for n in range(1, params.depth + 1):
            acc += params.lam ** (2 * n)
            if acc > params.budget:
                break
            n_ok = n
        raise BudgetError(
            f"lambda={params.lam}, depth={params.depth} needs {total_cells} "
            f"removable intervals > budget {params.budget}; maximum feasible "
            f"depth is {n_ok}", max_feasible=n_ok)
    family = build_removed_families(v, params)
    base_s, base_e, base_total = _base_good(params.lam, params.depth)
    hs, he = _heavy_padded_units(family)
    # a piece starts inside a padded heavy cell iff it lies in the cell
    drop_lo, drop_hi = _merged_runs(np.searchsorted(base_s, hs),
                                    np.searchsorted(base_s, he))
    unit = params.length / params.lam ** (3 * params.depth)
    out = IntervalSet(base_starts=base_s, base_ends=base_e,
                      base_total_units=base_total, drop_lo=drop_lo,
                      drop_hi=drop_hi, unit=unit, offset=params.a)
    floor_units = params.lam ** (3 * params.depth) \
        - 3 * sum(params.lam ** (3 * params.depth - n)
                  for n in range(1, params.depth + 1))
    if out.total_units < floor_units:
        raise CertificationError(
            f"good-set measure {out.total_length} fell below the guaranteed "
            f"bound {params.length * params.lower_bound}",
            witness={"total_units": out.total_units,
                     "floor_units": floor_units, "lam": params.lam,
                     "depth": params.depth})
    return out


def select_good_radius_near(v: StepMeasure, target, params: GoodSetParams
                            ) -> Fraction:
    """Nearest certified radius to `target` among depth-generation cell
    midpoints, scanning outward; ties break toward the smaller radius."""
    _check_total(v)
    target = _exact(target, "target")
    if not (params.a < target < params.b):
        raise InputError("target must lie in the interior of I")
    a, length = params.a, params.length
    n_cells = params.n_cells(params.depth)
    # cell j's midpoint a + (2j + 1) |I| / (2 n_cells), over one denominator
    den = 2 * a.denominator * length.denominator * n_cells
    base = 2 * a.numerator * length.denominator * n_cells
    step = length.numerator * a.denominator
    x, q = params._relative(target.numerator, target.denominator)
    j0 = x * n_cells // q
    for k in range(n_cells):
        # smaller first; equidistance then resolves toward the smaller radius
        for j in (j0 - k, j0 + k) if k else (j0,):
            mid = base + (2 * j + 1) * step
            if 0 <= j < n_cells and _good_radius(v, params, mid, den)[1] \
                    is None:
                return Fraction(mid, den)
    raise SearchExhaustedError(
        f"no certified cell midpoint in I at lambda={params.lam}, "
        f"depth={params.depth}")


# ---------------------------------------------------------------------------
# exact whole-set verification (used by tests and the acceptance suite)


_CLEARANCE_CHUNK = 1 << 16  # base pieces per step of the clearance pass


@lru_cache(maxsize=8)
def _base_clearance_verified(lam: int, depth: int) -> int:
    """Check that every midpoint of the measure-free good set clears every
    generation's gridline shells; returns the midpoint count.

    Walks the base in chunks of _CLEARANCE_CHUNK pieces, so no temporary is
    as large as the base. Runs once per (lam, depth); measure-specific
    verification reuses it because untouched intervals keep their
    midpoints.
    """
    s, e, _ = _base_good(lam, depth)
    failed = depth + 1  # the lowest generation violated so far
    for c0 in range(0, s.size, _CLEARANCE_CHUNK):
        mids2 = s[c0:c0 + _CLEARANCE_CHUNK] + e[c0:c0 + _CLEARANCE_CHUNK]
        for n in range(1, failed):  # units u/2
            cw2 = 2 * lam ** (3 * depth - 2 * n)
            half2 = 2 * lam ** (3 * (depth - n))
            off = mids2 % cw2
            if not bool(np.all((off >= half2) & (cw2 - off >= half2))):
                failed = n
                break
    if failed <= depth:
        raise CertificationError(
            f"base good set violates shell clearance at generation {failed}",
            witness={"generation": failed, "lam": lam, "depth": depth})
    return int(s.size)


def _violation_runs(v: StepMeasure, params: GoodSetParams, n: int
                    ) -> list[list[int]]:
    """concentration_violations in ticks: [lo, hi] stands for the closed
    interval [lo / scale - w, hi / scale + w], w = |I| lam^-3n.

    The window around t covers the run of atoms within [t - w, t + w], so t
    violates exactly when some run i..j spanning at most 2w with mass
    >= lam^-n fits, i.e. t in [pos_j - w, pos_i + w]. For each i only the
    shortest heavy run can fit (wider runs only shrink the t-interval), and
    prefix sums find it by bisection. Its end j never decreases with i, so
    the runs come sorted. Spans are tick differences against
    floor(2 w scale).
    """
    length, lam = params.length, params.lam
    span = 2 * length.numerator * v.scale \
        // (length.denominator * lam ** (3 * n))
    least = -(-v.denominator // lam ** n)  # the least heavy mass, in units
    ticks, prefix = v.ticks, v.prefix
    merged: list[list[int]] = []
    for i, tick in enumerate(ticks):
        j = bisect_left(prefix, prefix[i] + least, lo=i + 1) - 1
        if j == len(ticks) or ticks[j] - tick > span:
            continue
        if merged and ticks[j] - merged[-1][1] <= span:
            merged[-1][1] = tick  # ticks increase, so this is the max
        else:
            merged.append([ticks[j], tick])
    return merged


def concentration_violations(v: StepMeasure, params: GoodSetParams, n: int
                             ) -> list[tuple[Fraction, Fraction]]:
    """All t for which the closed window [t - |I| lam^-3n, t + |I| lam^-3n]
    carries mass >= lam^-n, as a merged list of closed intervals: exact
    sliding-window enumeration over atom runs (see _violation_runs)."""
    w = params.shell_half_width(n)
    return [(Fraction(lo, v.scale) - w, Fraction(hi, v.scale) + w)
            for lo, hi in _violation_runs(v, params, n)]


def _first_midpoint_at_least(bs: np.ndarray, be: np.ndarray,
                             m: np.ndarray) -> np.ndarray:
    """Per entry of m, the first base index whose midpoint s + e (units
    u/2) is >= m; bs.size when none is. The pieces are disjoint: those
    before the first piece k with 2e >= m have s + e < 2e < m, and those
    after it s + e > 2 e_k >= m. So the answer is k or k + 1."""
    k = np.searchsorted(be, (m + 1) // 2)  # (m + 1) // 2 = ceil(m / 2)
    kk = np.minimum(k, be.size - 1)
    return k + ((k < be.size) & (bs[kk] + be[kk] < m))


@dataclass(frozen=True)
class GoodSetVerification:
    n_midpoints: int
    n_scalar_checked: int
    midpoints_ok: bool
    non_concentration_ok: bool
    light_cells_ok: bool


def verify_good_set(v: StepMeasure, params: GoodSetParams, iset: IntervalSet,
                    rng: np.random.Generator | None = None,
                    n_samples: int = 32) -> GoodSetVerification:
    """Exact verification that every midpoint of `iset` is a good radius and
    satisfies the non-concentration consequence at every generation.

    The per-midpoint predicate factorizes, so the whole-set check is exact
    without iterating 'is_good_radius' over millions of points. Each check
    is a query on iset's base pieces and dropped runs, so none builds an
    array as large as the set:
      - shell clearance of all measure-free midpoints is verified once per
        (lam, depth); midpoints of the pieces bordering a padded heavy cell
        are checked individually, as is a random sample;
      - every base piece overlapping a padded heavy cell must be dropped;
      - every surviving atom-bearing cell must be light (exact integers);
      - the non-concentration windows are checked against the exact set of
        violating t (closed-window sliding-run enumeration).
    """
    _check_total(v)
    lam, depth = params.lam, params.depth
    _base_clearance_verified(lam, depth)
    # the family is derived from the measure here, not taken from the
    # materialization under test; (2) checks the same cell masses
    masses = _generation_masses(v, params)
    family = _family(v, params, masses)
    hs, he = _heavy_padded_units(family)
    bs, be = iset.base_starts, iset.base_ends

    # (1) every base piece overlapping a padded heavy cell (more than in an
    #     endpoint) lies in a dropped run
    meet = iset._n_kept(np.searchsorted(be, hs, side="right"),
                        np.searchsorted(bs, he, side="left"))
    midpoints_ok = not bool(np.any(meet > 0))

    # (2) every surviving atom-bearing cell is light, exactly
    light_cells_ok = True
    removed = [{j for j, _ in family.heavy_at(n)}
               for n in range(1, depth + 1)]
    for n, cells in enumerate(masses, 1):
        for j, units in cells.items():
            if j in removed[n - 1] or _buried(removed, lam, n, j):
                continue
            if _heavy(v, units, lam, n):
                light_cells_ok = False

    # (3) midpoints of kept pieces that end on a padded heavy cell's
    #     boundary (every piece is a measure-free one, whose clearance the
    #     cached base pass covers) plus a random sample go through the
    #     scalar certifier
    check_base: set[int] = set()
    hb = np.concatenate([hs, he])
    for ends_or_starts in (be, bs):
        i = np.searchsorted(ends_or_starts, hb, side="left")
        on = i < ends_or_starts.size
        i = i[on][ends_or_starts[i[on]] == hb[on]]
        check_base.update(i[iset._n_kept(i, i + 1) == 1].tolist())
    if rng is None:
        rng = np.random.default_rng(0)
    nn = iset.n_intervals
    if nn:
        check_base.update(
            iset._base_index(int(k))
            for k in rng.integers(0, nn, size=min(n_samples, nn)))
    n_scalar = len(check_base)
    for i in check_base:
        if _good_radius(v, params, *iset._midpoint_ratio(i))[1] is not None:
            midpoints_ok = False

    # (4) non-concentration: no midpoint may sit in a violating window.
    #     Midpoints in half units are s + e, increasing in the base index,
    #     so a window holds those from the first with s + e >= its low end
    #     in half units (rounded up) to the first above its high end
    #     (rounded down). The ends are clipped to the midpoints' range,
    #     where they still find the same pieces.
    non_concentration_ok = True
    bounds = []
    for n in range(1, depth + 1):
        # a window end tick / scale -+ w is (tick per_tick -+ w) / q
        per_tick = params.length.denominator * lam ** (3 * n)
        q, w = v.scale * per_tick, params.length.numerator * v.scale
        for lo, hi in _violation_runs(v, params, n):
            x_lo, d = iset._half_units(lo * per_tick - w, q)
            x_hi, _ = iset._half_units(hi * per_tick + w, q)
            m_lo, m_hi = -(-x_lo // d), x_hi // d
            if m_lo <= m_hi:
                bounds.append((m_lo, m_hi + 1))
    if bounds and bs.size:
        lowest, highest = int(bs[0] + be[0]), int(bs[-1] + be[-1]) + 1
        first = _first_midpoint_at_least(bs, be, np.asarray(
            [[min(max(m, lowest), highest) for m in b] for b in bounds],
            dtype=np.int64))
        non_concentration_ok = not bool(np.any(
            iset._n_kept(first[:, 0], first[:, 1]) > 0))
    return GoodSetVerification(n_midpoints=nn,
                               n_scalar_checked=n_scalar,
                               midpoints_ok=midpoints_ok,
                               non_concentration_ok=non_concentration_ok,
                               light_cells_ok=light_cells_ok)


def interval_set_to_file(iset: IntervalSet, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(iset.to_json(), fh)
