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
shells, so no piece is ever trimmed.

All comparisons are exact: endpoints live on the integer grid of units
u = |I| lam^(-3N) and measures are exact rationals, so certificates at deep
generations (shell widths ~ lam^(-12)) never depend on float round-off.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (BudgetError, CertificationError, InputError,
                     SearchExhaustedError)
from .measure import TOTAL_MASS_SLACK, StepMeasure, interval_mass

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
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.lam < 3:
            raise InputError("lambda must be an integer > 2")
        if self.depth < 1:
            raise InputError("depth must be a positive integer")
        if not self.a < self.b:
            raise InputError("interval must satisfy a < b")

    @property
    def length(self) -> Fraction:
        return self.b - self.a

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
        return self.length / self.lam ** (2 * n)

    def shell_half_width(self, n: int) -> Fraction:
        return self.length / self.lam ** (3 * n)

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
    Gridline shells are implicit: periodic with spacing |I| lam^(-2n) and
    half-width |I| lam^(-3n)."""

    params: GoodSetParams
    heavy: tuple[tuple[tuple[int, Fraction], ...], ...]  # [gen-1][k] = (idx, mass)

    def heavy_at(self, n: int) -> tuple[tuple[int, Fraction], ...]:
        return self.heavy[n - 1]


def _check_total(v: StepMeasure) -> None:
    # float-derived probability weights may exceed 1 by ulps; allow that
    if v.total > 1 + TOTAL_MASS_SLACK:
        raise InputError("StepMeasure must be (sub-)probability: total <= 1")


def _cell_index(params: GoodSetParams, n: int, pos: Fraction) -> int | None:
    """Grid cell of `pos` at generation n; None when pos is outside I.

    Cells are half-open [lo, hi) except the last, which is closed; a point
    exactly on a gridline belongs to the cell on its right.
    """
    if pos < params.a or pos > params.b:
        return None
    j = int((pos - params.a) * params.lam ** (2 * n) // params.length)
    return min(j, params.n_cells(n) - 1)


def _cell_masses(v: StepMeasure, params: GoodSetParams, n: int
                 ) -> dict[int, Fraction]:
    """Exact mass per atom-bearing grid cell at generation n."""
    out: dict[int, Fraction] = {}
    for pos, mass in zip(v.positions, v.masses):
        j = _cell_index(params, n, pos)
        if j is not None and mass > 0:
            out[j] = out.get(j, Fraction(0)) + mass
    return out


def _buried(removed: list[set[int]], lam: int, n: int, j: int) -> bool:
    """Whether generation-n cell j lies inside a cell removed at some
    generation m < n; removed[m - 1] holds generation m's removed indices."""
    return any(j // lam ** (2 * (n - m)) in removed[m - 1]
               for m in range(1, n))


def build_removed_families(v: StepMeasure, params: GoodSetParams
                           ) -> RemovedFamily:
    """Heavy grid cells per generation, in exact rational arithmetic."""
    _check_total(v)
    lam = params.lam
    removed: list[set[int]] = []
    heavy: list[tuple[tuple[int, Fraction], ...]] = []
    for n in range(1, params.depth + 1):
        thr = Fraction(1, lam ** n)
        # only descendants of surviving cells enter the family
        gen = tuple((j, mass)
                    for j, mass in sorted(_cell_masses(v, params, n).items())
                    if mass >= thr and not _buried(removed, lam, n, j))
        removed.append({j for j, _ in gen})
        heavy.append(gen)
    return RemovedFamily(params=params, heavy=tuple(heavy))


def cell_bounds(params: GoodSetParams, n: int, j: int
                ) -> tuple[Fraction, Fraction]:
    w = params.cell_width(n)
    return params.a + j * w, params.a + (j + 1) * w


def is_good_radius(v: StepMeasure, t, params: GoodSetParams):
    """Certify t, or report the first failing generation.

    Checks, per generation n <= depth: the grid cell J_n(t) has exact mass
    < lam^(-n), and t sits at distance >= |I| lam^(-3n) from both cell
    endpoints. Implicit check: no family materialization needed.
    """
    _check_total(v)
    t = Fraction(t)
    if not (params.a < t < params.b):
        raise InputError("t must lie in the interior of I")
    witnesses = []
    for n in range(1, params.depth + 1):
        j = _cell_index(params, n, t)
        lo, hi = cell_bounds(params, n, j)
        last = j == params.n_cells(n) - 1
        mass = interval_mass(v, lo, hi, lo_closed=True, hi_closed=last)
        if mass >= Fraction(1, params.lam ** n):
            return GoodRadiusRejection(t=t, generation=n, reason=HEAVY_CELL)
        clearance = min(t - lo, hi - t)
        if clearance < params.shell_half_width(n):
            return GoodRadiusRejection(t=t, generation=n,
                                       reason=GRIDLINE_SHELL)
        witnesses.append((n, j, mass, clearance))
    return GoodRadiusCertificate(t=t, lam=params.lam, depth=params.depth,
                                 witnesses=tuple(witnesses))


# ---------------------------------------------------------------------------
# materialization: one closed piece per depth-generation cell, in integer
# units


@dataclass(frozen=True)
class IntervalSet:
    """Disjoint sorted closed intervals on the integer grid of `unit`.

    Fractional endpoints are offset + starts[k] * unit etc.; lengths and the
    total are exact rationals.
    """

    starts: np.ndarray  # int64
    ends: np.ndarray    # int64, ends[k] > starts[k]
    unit: Fraction
    offset: Fraction

    @property
    def n_intervals(self) -> int:
        return int(self.starts.size)

    @property
    def total_units(self) -> int:
        return int((self.ends - self.starts).sum())

    @property
    def total_length(self) -> Fraction:
        return self.total_units * self.unit

    def interval(self, k: int) -> tuple[Fraction, Fraction]:
        return (self.offset + int(self.starts[k]) * self.unit,
                self.offset + int(self.ends[k]) * self.unit)

    def intervals(self):
        for k in range(self.n_intervals):
            yield self.interval(k)

    def midpoints_units2(self) -> np.ndarray:
        """Interval midpoints in units of unit/2 (always integers)."""
        return self.starts + self.ends

    def midpoint(self, k: int) -> Fraction:
        return self.offset + (int(self.starts[k]) + int(self.ends[k])) \
            * self.unit / 2

    def to_json(self) -> dict:
        ivals = []
        for lo, hi in self.intervals():
            ivals.append([lo.numerator, lo.denominator,
                          hi.numerator, hi.denominator])
        tl = self.total_length
        return {"intervals": ivals,
                "total_length": [tl.numerator, tl.denominator]}


@lru_cache(maxsize=8)
def _base_good(lam: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """I minus all gridline shells (no measure involved), in units of
    |I| lam^(-3 depth) over [0, lam^(3 depth)]. Cached: it is the common
    core of every materialization at this (lam, depth).

    Inside depth-generation cell j the set is the single closed piece
    [max_n lo_n + h_n, min_n hi_n - h_n], where [lo_n, hi_n] is the
    generation-n cell holding j and h_n = lam^(3(depth - n)) its shell
    half-width; other gridlines' shells stay outside that cell. The piece
    is kept when it has positive length.
    """
    n_cells = lam ** (2 * depth)
    s = np.zeros(n_cells, dtype=np.int64)
    e = np.full(n_cells, lam ** (3 * depth), dtype=np.int64)
    for n in range(1, depth + 1):
        spacing = lam ** (3 * depth - 2 * n)
        half = lam ** (3 * (depth - n))
        lo = np.arange(lam ** (2 * n), dtype=np.int64)[:, None] * spacing
        # row J of these views holds the depth cells inside generation-n
        # cell J
        sv = s.reshape(lam ** (2 * n), -1)
        ev = e.reshape(lam ** (2 * n), -1)
        np.maximum(sv, lo + half, out=sv)
        np.minimum(ev, lo + (spacing - half), out=ev)
    keep = e > s
    gs, ge = s[keep], e[keep]
    gs.setflags(write=False)
    ge.setflags(write=False)
    return gs, ge


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


def materialize_good_set(v: StepMeasure, params: GoodSetParams) -> IntervalSet:
    """I minus all padded heavy cells and all gridline shells up to depth.

    The measure-free pieces of `_base_good` minus every piece whose depth
    cell descends from a heavy cell. A heavy cell's padding is its
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
    base_s, base_e = _base_good(params.lam, params.depth)
    hs, he = _heavy_padded_units(family)
    keep = np.ones(base_s.size, dtype=bool)
    # a piece starts inside a padded heavy cell iff it lies in the cell
    for i0, i1 in zip(np.searchsorted(base_s, hs).tolist(),
                      np.searchsorted(base_s, he).tolist()):
        keep[i0:i1] = False
    s, e = base_s[keep], base_e[keep]
    unit = params.length / params.lam ** (3 * params.depth)
    out = IntervalSet(starts=s, ends=e, unit=unit, offset=params.a)
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
    target = Fraction(target)
    if not (params.a < target < params.b):
        raise InputError("target must lie in the interior of I")
    n_cells = params.n_cells(params.depth)
    w = params.cell_width(params.depth)

    def mid(j: int) -> Fraction:
        return params.a + (2 * j + 1) * w / 2

    j0 = _cell_index(params, params.depth, target)
    for k in range(n_cells):
        cands = []
        for j in (j0 - k, j0 + k) if k else (j0,):
            if 0 <= j < n_cells:
                cands.append(mid(j))
        # smaller first; equidistance then resolves toward the smaller radius
        for t in sorted(cands):
            if is_good_radius(v, t, params).ok:
                return t
    raise SearchExhaustedError(
        f"no certified cell midpoint in I at lambda={params.lam}, "
        f"depth={params.depth}")


# ---------------------------------------------------------------------------
# exact whole-set verification (used by tests and the acceptance suite)


@lru_cache(maxsize=8)
def _base_clearance_verified(lam: int, depth: int) -> int:
    """Vectorized check that every midpoint of the measure-free good set
    clears every generation's gridline shells; returns the midpoint count.

    Runs once per (lam, depth); measure-specific verification reuses it
    because untouched intervals keep their midpoints.
    """
    s, e = _base_good(lam, depth)
    mids2 = s + e  # units u/2
    for n in range(1, depth + 1):
        cw2 = 2 * lam ** (3 * depth - 2 * n)
        half2 = 2 * lam ** (3 * (depth - n))
        off = mids2 % cw2
        if not bool(np.all((off >= half2) & (cw2 - off >= half2))):
            raise CertificationError(
                f"base good set violates shell clearance at generation {n}",
                witness={"generation": n, "lam": lam, "depth": depth})
    return int(mids2.size)


def _frac_ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _frac_floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def concentration_violations(v: StepMeasure, params: GoodSetParams, n: int
                             ) -> list[tuple[Fraction, Fraction]]:
    """All t for which the closed window [t - |I| lam^-3n, t + |I| lam^-3n]
    carries mass >= lam^-n, as a merged list of closed intervals.

    Exact sliding-window enumeration over atom runs: the window around t
    covers the run of atoms within [t - w, t + w], so t violates exactly
    when some run (i..j) with span <= 2w and mass >= lam^-n fits, i.e.
    t in [pos_j - w, pos_i + w].
    """
    w = params.shell_half_width(n)
    thr = Fraction(1, params.lam ** n)
    pos = v.positions
    mass = v.masses
    out: list[tuple[Fraction, Fraction]] = []
    for i in range(len(pos)):
        acc = Fraction(0)
        for j in range(i, len(pos)):
            if pos[j] - pos[i] > 2 * w:
                break
            acc += mass[j]
            if acc >= thr:
                out.append((pos[j] - w, pos[i] + w))
                break  # wider runs only shrink the t-interval
    out.sort()
    merged: list[tuple[Fraction, Fraction]] = []
    for lo, hi in out:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


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
    without iterating 'is_good_radius' over millions of points:
      - shell clearance of all measure-free midpoints is verified once per
        (lam, depth) (vectorized); midpoints of the pieces bordering a
        padded heavy cell are checked individually, as is a random sample;
      - no interval may intersect a padded heavy cell (vectorized, exact);
      - every surviving atom-bearing cell must be light (exact rationals);
      - the non-concentration windows are checked against the exact set of
        violating t (closed-window sliding-run enumeration).
    """
    _check_total(v)
    lam, depth = params.lam, params.depth
    _base_clearance_verified(lam, depth)
    family = build_removed_families(v, params)
    hs, he = _heavy_padded_units(family)
    mids2 = iset.midpoints_units2()

    # (1) no surviving interval may intersect a padded heavy cell
    midpoints_ok = True
    for hl, hr in zip(hs.tolist(), he.tolist()):
        i0 = int(np.searchsorted(iset.ends, hl, side="right"))
        i1 = int(np.searchsorted(iset.starts, hr, side="left"))
        if i0 < i1:
            midpoints_ok = False

    # (2) every surviving atom-bearing cell is light, exactly
    light_cells_ok = True
    removed = [{j for j, _ in family.heavy_at(n)}
               for n in range(1, depth + 1)]
    for n in range(1, depth + 1):
        thr = Fraction(1, lam ** n)
        for j, mass in _cell_masses(v, params, n).items():
            if j in removed[n - 1] or _buried(removed, lam, n, j):
                continue
            if mass >= thr:
                light_cells_ok = False

    # (3) midpoints of pieces that end on a padded heavy cell's boundary
    #     (every piece is a measure-free one, whose clearance the cached
    #     base pass covers) plus a random sample go through the scalar
    #     certifier
    check_idx: set[int] = set()
    nn = iset.n_intervals
    for hb in np.concatenate([hs, he]).tolist():
        i = int(np.searchsorted(iset.ends, hb, side="left"))
        if i < nn and int(iset.ends[i]) == hb:
            check_idx.add(i)
        i = int(np.searchsorted(iset.starts, hb, side="left"))
        if i < nn and int(iset.starts[i]) == hb:
            check_idx.add(i)
    if rng is None:
        rng = np.random.default_rng(0)
    if iset.n_intervals:
        check_idx.update(
            int(i) for i in rng.integers(0, iset.n_intervals,
                                         size=min(n_samples, iset.n_intervals)))
    n_scalar = 0
    for k in sorted(check_idx):
        n_scalar += 1
        if not is_good_radius(v, iset.midpoint(k), params).ok:
            midpoints_ok = False

    # (4) non-concentration: no midpoint may sit in a violating window
    non_concentration_ok = True
    u2 = iset.unit / 2
    for n in range(1, depth + 1):
        for lo, hi in concentration_violations(v, params, n):
            m_lo = _frac_ceil((lo - iset.offset) / u2)
            m_hi = _frac_floor((hi - iset.offset) / u2)
            if m_lo > m_hi:
                continue
            i0 = int(np.searchsorted(mids2, m_lo, side="left"))
            i1 = int(np.searchsorted(mids2, m_hi, side="right"))
            if i0 < i1:
                non_concentration_ok = False
    return GoodSetVerification(n_midpoints=int(mids2.size),
                               n_scalar_checked=n_scalar,
                               midpoints_ok=midpoints_ok,
                               non_concentration_ok=non_concentration_ok,
                               light_cells_ok=light_cells_ok)


def interval_set_to_file(iset: IntervalSet, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(iset.to_json(), fh)
