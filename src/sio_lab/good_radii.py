"""Constructive exponential-growth machinery: good radii for a StepMeasure.

Multiscale construction over the interval of radii I = [0, 1], where a
ball's radial pushforward lives once its cloud is scaled to unit diameter
(a measure on another interval is rescaled onto [0, 1] first): generation n
partitions I into lam^(2n) half-open cells of width lam^(-2n) (the last cell
is closed). A cell is *heavy* when its measure is >= lam^(-n); every
gridline carries a *shell* of half-width lam^(-3n). A point t is a good
radius at depth N when, for every n <= N, its cell is light and t clears
both cell endpoints by at least lam^(-3n).

Certified radii consequently satisfy the non-concentration window bound
mass([t - lam^(-3n), t + lam^(-3n)]) < lam^(-n) for every n <= N: the
window sits inside J_n(t) by the clearance, and J_n(t) is light.

The good set is built cell by cell: inside each generation-N cell it is one
closed piece (the points clearing every ancestor's endpoints), dropped whole
when an ancestor is heavy. A heavy cell's padding is its neighbours' own
shells, so no piece is ever trimmed. The measure-free pieces (the base) are
periodic: generation-1 cell J holds cell 0's pieces translated by J T units,
T = lam^(3N - 2). So the base is kept as that one period, R = lam^2 repeats
of it, and cached per (lam, depth). With m pieces per period, base piece i
is period piece i % m moved by (i // m) T, and a search of the base for x
is J m + (search of the period for x - J T), J = clip(x // T, 0, R - 1):
every period piece lies in [0, T). Shell clearance is checked on the one
period when it is built: a translate moves each doubled midpoint by 2 J T,
a multiple of every generation's doubled cell width. A measure's good set
is a view: the base minus the index runs below its padded heavy cells.
Counts, totals, single intervals and every check of verify_good_set are
answered from the period and the runs, so no array is as large as the set
unless its pieces are asked for.

All comparisons are exact and run on Python ints: good-set endpoints live
on the integer grid of units u = lam^(-3N), atoms are integer ticks over
their measure's scale, and masses are integer numerators over its
denominator, so a threshold test mass >= lam^(-n) is the integer comparison
units * lam^n >= denominator. A radius t = p/q has its generation-n cell
and remainder in divmod(p lam^(2n), q): the remainder measures its
clearance from the cell's ends, and the cell's mass is two tick
bisections. Fraction appears only in what is returned
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
    """lambda, depth and the materialization budget of good radii on
    I = [0, 1]."""

    lam: int
    depth: int
    budget: int = 10 ** 6
    length = Fraction(1)  # |I|; a class constant, not a field

    def __post_init__(self):
        # the integer predicate needs int powers of lam: no float, no bool
        if type(self.lam) is not int or self.lam < 3:
            raise InputError(f"lambda must be an integer > 2, got "
                             f"{self.lam!r}")
        if type(self.depth) is not int or self.depth < 1:
            raise InputError(f"depth must be a positive integer, got "
                             f"{self.depth!r}")

    @property
    def lower_bound(self) -> Fraction:
        """Truncated guaranteed fraction: 1 - 3 sum_{n<=depth} lam^-n."""
        return 1 - 3 * sum(Fraction(1, self.lam ** n)
                           for n in range(1, self.depth + 1))

    def shell_half_width(self, n: int) -> Fraction:
        """Half-width of a generation-n shell."""
        return Fraction(1, self.lam ** (3 * n))

    def n_cells(self, n: int) -> int:
        return self.lam ** (2 * n)

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
    Gridline shells are implicit: periodic with spacing lam^(-2n) and
    half-width lam^(-3n)."""

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
        return min(ticks[k] * cells // scale, cells - 1)

    i = v.below(0, 1)
    out: dict[int, int] = {}
    for j, run in groupby(range(i, v.below(1, 1, closed=True)), key=cell):
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

    t lies p lam^(2n) / q cells into I: its cell j and remainder r are
    divmod(p lam^(2n), q), so t clears the cell's ends by r / q and
    (q - r) / q cell widths. The clearance is at least lam^(-3n) = lam^(-n)
    cell widths iff min(r, q - r) lam^n >= q. The cell [j, j + 1) / lam^(2n)
    (closed when last) has its mass in two tick counts.
    """
    if not 0 < p < q:
        raise InputError("t must lie in the interior of I")
    lam, prefix = params.lam, v.prefix
    witnesses = []
    for n in range(1, params.depth + 1):
        cells = lam ** (2 * n)
        j, r = divmod(p * cells, q)
        units = prefix[v.below(j + 1, cells, closed=j == cells - 1)] \
            - prefix[v.below(j, cells)]
        if _heavy(v, units, lam, n):
            return witnesses, (n, HEAVY_CELL)
        clear = min(r, q - r)
        if clear * lam ** n < q:
            return witnesses, (n, GRIDLINE_SHELL)
        witnesses.append((n, j, units, clear, q * cells))
    return witnesses, None


def is_good_radius(v: StepMeasure, t, params: GoodSetParams):
    """Certify t, or report the first failing generation.

    Checks, per generation n <= depth: the grid cell J_n(t) has exact mass
    < lam^(-n), and t sits at distance >= lam^(-3n) from both cell
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


@dataclass(frozen=True, eq=False)
class PeriodicPieces:
    """`repeats` translates of one period's sorted, disjoint closed pieces,
    in integer units: piece i is period piece i % m moved by
    (i // m) * period, m the pieces per period.

    Every period piece satisfies 0 <= start < end < period, so translates
    never meet and the pieces stay sorted: a search for x is J m plus a
    search of the period for x - J period, J = clip(x // period, 0,
    repeats - 1). It stores nothing as large as all the pieces.
    """

    starts: np.ndarray  # int64, sorted
    ends: np.ndarray    # int64, ends[i] > starts[i]
    period: int
    repeats: int

    def __post_init__(self):
        s, e = self.starts, self.ends
        if not (s.ndim == 1 and s.shape == e.shape and self.repeats >= 1
                and bool(np.all((0 <= s) & (s < e) & (e < self.period)))
                and bool(np.all(e[:-1] <= s[1:]))):
            raise InputError("period pieces must be sorted and disjoint, "
                             "with 0 <= start < end < period")

    @property
    def size(self) -> int:
        return self.repeats * self.starts.size

    def at(self, ends_or_starts: np.ndarray, i):
        """The piece ends (or starts) at piece indices i."""
        j, r = np.divmod(np.asarray(i, dtype=np.int64), self.starts.size)
        return j * self.period + ends_or_starts[r]

    def search(self, ends_or_starts: np.ndarray, x, side: str = "left"):
        """np.searchsorted of all the piece ends (or starts) for each x:
        translates below x's own count whole, those above count none."""
        x = np.asarray(x, dtype=np.int64)
        j = np.clip(x // self.period, 0, self.repeats - 1)
        return j * self.starts.size + np.searchsorted(
            ends_or_starts, x - j * self.period, side=side)

    def piece(self, i: int) -> tuple[int, int]:
        """Piece i's (start, end) as ints."""
        j, r = divmod(i, self.starts.size)
        return (j * self.period + int(self.starts[r]),
                j * self.period + int(self.ends[r]))

    @cached_property
    def _lengths_through(self) -> np.ndarray:
        """The period's piece lengths summed, after a leading 0."""
        return np.concatenate([[0], np.cumsum(self.ends - self.starts)])

    def units_below(self, i):
        """The total length of the pieces with index below each i."""
        # an empty period has the one index 0
        j, r = np.divmod(np.asarray(i, dtype=np.int64),
                         max(self.starts.size, 1))
        through = self._lengths_through
        return j * through[-1] + through[r]


@dataclass(frozen=True, eq=False)
class IntervalSet:
    """Disjoint sorted closed intervals on the integer grid of `unit`: the
    periodic pieces of `base` minus those whose index lies in a dropped run
    [lo, hi).

    Fractional endpoints are start * unit etc.; lengths and the total are
    exact rationals. The base is shared, never copied: count, total,
    interval(k) and midpoint(k) are answered from its one period and the
    runs. == is identity, as for PeriodicPieces: fields are arrays.
    """

    base: PeriodicPieces
    drop_lo: np.ndarray  # int64; sorted, disjoint, non-touching runs
    drop_hi: np.ndarray
    unit: Fraction

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
        return self.base.size - int(self._dropped_through[-1])

    @cached_property
    def total_units(self) -> int:
        below = self.base.units_below
        return int(below(self.base.size)) \
            - int((below(self.drop_hi) - below(self.drop_lo)).sum())

    @property
    def total_length(self) -> Fraction:
        return self.total_units * self.unit

    def _kept(self, ends_or_starts: np.ndarray) -> np.ndarray:
        """The base's ends (or starts) outside every dropped run."""
        b = self.base
        every = (ends_or_starts[None, :] + b.period
                 * np.arange(b.repeats, dtype=np.int64)[:, None]).ravel()
        return np.concatenate([
            every[lo:hi] for lo, hi in zip([0, *self.drop_hi.tolist()],
                                           [*self.drop_lo.tolist(), b.size])])

    @property
    def starts(self) -> np.ndarray:
        """Every kept start, built on demand (an N-sized array)."""
        return self._kept(self.base.starts)

    @property
    def ends(self) -> np.ndarray:
        return self._kept(self.base.ends)

    def interval(self, k: int) -> tuple[Fraction, Fraction]:
        s, e = self.base.piece(self._base_index(k))
        return s * self.unit, e * self.unit

    def intervals(self):
        for s, e in zip(self.starts.tolist(), self.ends.tolist()):
            yield s * self.unit, e * self.unit

    def _midpoint_ratio(self, i: int) -> tuple[int, int]:
        """Base piece i's midpoint as an unreduced pair (p, q) of ints."""
        u = self.unit
        return sum(self.base.piece(i)) * u.numerator, 2 * u.denominator

    def midpoint(self, k: int) -> Fraction:
        return Fraction(*self._midpoint_ratio(self._base_index(k)))

    def to_json(self) -> dict:
        ivals = []
        for lo, hi in self.intervals():
            ivals.append([lo.numerator, lo.denominator,
                          hi.numerator, hi.denominator])
        tl = self.total_length
        return {"intervals": ivals,
                "total_length": [tl.numerator, tl.denominator]}


def _base_period(lam: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """The pieces of I minus all gridline shells (no measure involved)
    inside generation-1 cell 0, in units of lam^(-3 depth) over
    [0, T], T = lam^(3 depth - 2).

    Inside depth-generation cell j the set is the single closed piece
    [max_n lo_n + h_n, min_n hi_n - h_n], where [lo_n, hi_n] is the
    generation-n cell holding j and h_n = lam^(3(depth - n)) its shell
    half-width; other gridlines' shells stay outside that cell. The piece
    is kept when it has positive length.

    The formula is periodic: generation-1 cell J is cell 0 translated by
    J T, and so are all of its descendants' cells and shells.
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
    return s[keep], e[keep]


def _clearance_failure(pieces: PeriodicPieces, lam: int, depth: int) -> int:
    """The lowest generation whose gridline shells hold the midpoint of
    some piece (units lam^(-3 depth)); 0 when every midpoint clears
    every shell.

    A translate by J periods moves a doubled midpoint s + e by 2 J period.
    Where 2 period is a multiple of the doubled cell width, the offsets
    within the cells repeat, and the first period stands for all of them;
    elsewhere each translate is checked."""
    mids2, period = pieces.starts + pieces.ends, pieces.period  # units u/2
    for n in range(1, depth + 1):
        cw2 = 2 * lam ** (3 * depth - 2 * n)
        half2 = 2 * lam ** (3 * (depth - n))
        for j in range(1 if 2 * period % cw2 == 0 else pieces.repeats):
            off = (mids2 + 2 * j * period) % cw2
            if not bool(np.all((off >= half2) & (cw2 - off >= half2))):
                return n
    return 0


@lru_cache(maxsize=8)
def _base_good(lam: int, depth: int) -> PeriodicPieces:
    """_base_period translated lam^2 times by T = lam^(3 depth - 2) units,
    its shell clearance certified (2 T is a multiple of every generation's
    cell width, so the one period is checked). Cached: it is the common
    core of every materialization at this (lam, depth), and
    verify_good_set trusts its clearance."""
    s, e = _base_period(lam, depth)
    s.setflags(write=False)
    e.setflags(write=False)
    base = PeriodicPieces(s, e, period=lam ** (3 * depth - 2),
                          repeats=lam ** 2)
    failed = _clearance_failure(base, lam, depth)
    if failed:
        raise CertificationError(
            f"base good set violates shell clearance at generation {failed}",
            witness={"generation": failed, "lam": lam, "depth": depth})
    return base


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
    Leb >= 1 - 3 sum_{n<=depth} lam^-n before returning.
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
    hs, he = _heavy_padded_units(family)
    base = _base_good(params.lam, params.depth)
    # a piece starts inside a padded heavy cell iff it lies in the cell
    drop_lo, drop_hi = _merged_runs(base.search(base.starts, hs),
                                    base.search(base.starts, he))
    out = IntervalSet(base=base, drop_lo=drop_lo, drop_hi=drop_hi,
                      unit=params.shell_half_width(params.depth))
    floor_units = params.lam ** (3 * params.depth) \
        - 3 * sum(params.lam ** (3 * params.depth - n)
                  for n in range(1, params.depth + 1))
    if out.total_units < floor_units:
        raise CertificationError(
            f"good-set measure {out.total_length} fell below the guaranteed "
            f"bound {params.lower_bound}",
            witness={"total_units": out.total_units,
                     "floor_units": floor_units, "lam": params.lam,
                     "depth": params.depth})
    return out


def select_good_radius_near(v: StepMeasure, target, params: GoodSetParams
                            ) -> Fraction:
    """Nearest certified radius to `target` among depth-generation cell
    midpoints (2j + 1) / (2 lam^(2 depth)), scanning outward from the cell
    holding the target; ties break toward the smaller radius."""
    _check_total(v)
    target = _exact(target, "target")
    if not 0 < target < 1:
        raise InputError("target must lie in the interior of I")
    n_cells = params.n_cells(params.depth)
    j0 = target.numerator * n_cells // target.denominator
    for k in range(n_cells):
        # smaller first; equidistance then resolves toward the smaller radius
        for j in (j0 - k, j0 + k) if k else (j0,):
            if 0 <= j < n_cells and _good_radius(
                    v, params, 2 * j + 1, 2 * n_cells)[1] is None:
                return Fraction(2 * j + 1, 2 * n_cells)
    raise SearchExhaustedError(
        f"no certified cell midpoint in I at lambda={params.lam}, "
        f"depth={params.depth}")


# ---------------------------------------------------------------------------
# exact whole-set verification (used by tests and the acceptance suite)


def _violation_runs(v: StepMeasure, params: GoodSetParams, n: int
                    ) -> list[list[int]]:
    """concentration_violations in ticks: [lo, hi] stands for the closed
    interval [lo / scale - w, hi / scale + w], w = lam^-3n.

    The window around t covers the run of atoms within [t - w, t + w], so t
    violates exactly when some run i..j spanning at most 2w with mass
    >= lam^-n fits, i.e. t in [pos_j - w, pos_i + w]. For each i only the
    shortest heavy run can fit (wider runs only shrink the t-interval), and
    prefix sums find it by bisection. Its end j never decreases with i, so
    the runs come sorted. Spans are tick differences against
    floor(2 w scale).
    """
    lam = params.lam
    span = 2 * v.scale // lam ** (3 * n)
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
    """All t for which the closed window [t - lam^-3n, t + lam^-3n]
    carries mass >= lam^-n, as a merged list of closed intervals: exact
    sliding-window enumeration over atom runs (see _violation_runs)."""
    w = params.shell_half_width(n)
    return [(Fraction(lo, v.scale) - w, Fraction(hi, v.scale) + w)
            for lo, hi in _violation_runs(v, params, n)]


def _first_midpoint_at_least(iset: IntervalSet, m: np.ndarray) -> np.ndarray:
    """Per entry of m, the first base index whose midpoint s + e (units
    u/2) is >= m; the base size when none is. The pieces are disjoint:
    those before the first piece k with 2e >= m have s + e < 2e < m, and
    those after it s + e > 2 e_k >= m. So the answer is k or k + 1."""
    base = iset.base
    k = base.search(base.ends, (m + 1) // 2)  # (m + 1) // 2 = ceil(m / 2)
    kk = np.minimum(k, base.size - 1)
    return k + ((k < base.size)
                & (base.at(base.starts, kk) + base.at(base.ends, kk) < m))


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
    is a query on iset's period pieces and dropped runs, so none builds an
    array as large as the set. iset must lie on params' grid (unit
    lam^(-3 depth)):
      - shell clearance of every midpoint of iset's base: the cached base's
        was certified when it was built, any other base is checked here;
        midpoints of the pieces bordering a padded heavy cell are checked
        individually, as is a random sample;
      - every base piece overlapping a padded heavy cell must be dropped;
      - no kept piece may overlap a heavy cell of any generation, its mass
        read exactly from the measure;
      - the non-concentration windows are checked against the exact set of
        violating t (closed-window sliding-run enumeration).
    """
    _check_total(v)
    lam, depth = params.lam, params.depth
    unit = params.shell_half_width(depth)
    if iset.unit != unit:
        raise InputError(
            f"the set's grid ({iset.unit}) is not the params' ({unit})")
    base = iset.base
    # (0) every midpoint of iset's base clears every shell; the cached
    #     base's clearance was certified when it was built
    midpoints_ok = base is _base_good(lam, depth) \
        or not _clearance_failure(base, lam, depth)
    # the family is derived from the measure here, not taken from the
    # materialization under test; (2) reads the same cell masses
    masses = _generation_masses(v, params)
    family = _family(v, params, masses)
    hs, he = _heavy_padded_units(family)

    # (1) every base piece overlapping a padded heavy cell (more than in an
    #     endpoint) lies in a dropped run; (2) so does every piece
    #     overlapping a heavy cell of any generation, read from the exact
    #     masses alone, with no family: one query for both
    cs, ce = hs.tolist(), he.tolist()
    for n, cells in enumerate(masses, 1):
        spacing = lam ** (3 * depth - 2 * n)
        for j, units in cells.items():
            if _heavy(v, units, lam, n):
                cs.append(j * spacing)
                ce.append((j + 1) * spacing)
    meet = iset._n_kept(
        base.search(base.ends, np.asarray(cs, dtype=np.int64), side="right"),
        base.search(base.starts, np.asarray(ce, dtype=np.int64))) > 0
    midpoints_ok &= not bool(meet[:hs.size].any())
    light_cells_ok = not bool(meet[hs.size:].any())

    # (3) midpoints of kept pieces that end on a padded heavy cell's
    #     boundary (every piece is a base one, whose clearance (0) covers)
    #     plus a random sample go through the scalar certifier
    check_base: set[int] = set()
    hb = np.concatenate([hs, he])
    for ends_or_starts in (base.ends, base.starts):
        i = base.search(ends_or_starts, hb)
        on = i < base.size
        i = i[on][base.at(ends_or_starts, i[on]) == hb[on]]
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
    #     (rounded down). With unit 1 / big, a window [lo / scale - w,
    #     hi / scale + w] has its ends at 2 big lo / scale - w2 and
    #     2 big hi / scale + w2 half units, where w2 = 2 lam^(3 (depth - n))
    #     is w = lam^(-3n) in half units. The ends are clipped to the
    #     midpoints' range, where they still find the same pieces.
    non_concentration_ok = True
    bounds = []
    big = lam ** (3 * depth)
    for n in range(1, depth + 1):
        w2 = 2 * lam ** (3 * (depth - n))
        for lo, hi in _violation_runs(v, params, n):
            m_lo = -(-2 * big * lo // v.scale) - w2
            m_hi = 2 * big * hi // v.scale + w2
            if m_lo <= m_hi:
                bounds.append((m_lo, m_hi + 1))
    if bounds and base.size:
        lowest = sum(base.piece(0))
        highest = sum(base.piece(base.size - 1)) + 1
        first = _first_midpoint_at_least(iset, np.asarray(
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
