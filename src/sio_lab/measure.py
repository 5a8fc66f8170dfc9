"""Discrete measures on point clouds and their radial pushforwards.

DiscreteMeasure lives in float64 on a cloud; StepMeasure is the exact atomic
measure on the line that all multiscale interval arithmetic runs on. A
StepMeasure holds its atoms as sorted integer ticks over one scale (atom k
sits at ticks[k] / scale) and their masses as integer numerators over one
common denominator, with prefix sums. How many atoms lie below a rational
p/q is one bisection of the ticks at ceil(p scale / q); an interval's mass
is two such counts and one integer subtraction, and a threshold test is an
integer comparison. Both scales are canonical, the LCM of the reduced
denominators, so equal measures compare equal: a pushforward of float
distances and weights needs no rounding (every float is dyadic, so each
scale is a power of two), and a measure built from rationals uses the LCMs
of their denominators. Fraction appears only at the API boundary
(positions, masses, total, the value interval_mass returns).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import DegenerateInputError, InputError, json_shape
from .metric import (PointCloud, RowPass, _distance_rows, cloud_from_json,
                     cloud_to_json, load_cloud, tile_map)
from .sums import pairwise_sum

# slack for float-derived totals: normalized weights can exceed 1 by ulps
TOTAL_MASS_SLACK = Fraction(1, 2 ** 40)


@dataclass(frozen=True)
class DiscreteMeasure:
    cloud: PointCloud
    weights: np.ndarray
    total_mass: float

    @property
    def n_atoms(self) -> int:
        return self.weights.size


def make_measure(cloud: PointCloud, weights) -> DiscreteMeasure:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (cloud.n_points,):
        raise InputError("weights must align with the cloud's points")
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise InputError("weights must be finite and nonnegative")
    with np.errstate(over="ignore"):
        total = pairwise_sum(w)
    if not math.isfinite(total):
        raise InputError(f"the weights' total mass overflows to {total!r}")
    return DiscreteMeasure(cloud=cloud, weights=w, total_mass=total)


def normalize(m: DiscreteMeasure) -> tuple[DiscreteMeasure, float]:
    """Scale to total mass 1; returns the divisor so callers can undo."""
    if m.total_mass <= 0.0:
        raise DegenerateInputError("cannot normalize the zero measure")
    scale = m.total_mass
    if scale == 1.0:
        return m, 1.0
    return make_measure(m.cloud, m.weights / scale), scale


def growth_constant(m: DiscreteMeasure, s: float, r_min: float,
                    workers: int = 1) -> tuple[float, tuple[int, float]]:
    """Smallest c with mu(B(x,r)) <= c r^s for all atoms x and all r >= r_min.

    Candidate radii are r_min and the pairwise distances >= r_min: ball mass
    is a right-continuous step function of r, so the ratio is maximized
    there. Ties break to the smallest point id, then the smallest radius.
    Row tiles are split over `workers` threads; the result does not depend
    on how.
    """
    p = growth_pass(m, s, r_min)
    return p.reduce(tile_map(
        lambda rows: p.tile(None, _distance_rows(m.cloud, rows), rows),
        p.rows, m.n_atoms, workers))


def growth_pass(m: DiscreteMeasure, s: float, r_min: float) -> RowPass:
    """growth_constant as a RowPass over every row: per row, the best ratio
    and its radius; reduced to the first row attaining the maximum."""
    if m.n_atoms == 0 or m.total_mass <= 0.0:
        raise DegenerateInputError("empty measure")
    for name, value in (("r_min", r_min), ("s", s)):
        if not (math.isfinite(value) and value > 0.0):
            raise InputError(f"{name} must be finite and positive, "
                             f"got {value!r}")
    w = m.weights
    r_min_s = (np.full(1, r_min) ** s)[0]  # the same array power as ds ** s
    # equal weights add up alike in any order, so one cumulative row serves
    # every sorted row, and the distances need no stable argsort
    equal_cum = np.cumsum(w) if np.all(w == w[0]) else None

    def tile(_k, d, rows):
        # per row: sorted distances, cumulative masses, and the best ratio
        if equal_cum is None:
            order = np.argsort(d, axis=1, kind="stable")
            ds = np.take_along_axis(d, order, axis=1)
            cum = np.cumsum(w[order], axis=1)
        else:
            ds = np.sort(d, axis=1)
            cum = np.broadcast_to(equal_cum, ds.shape)
        # candidates: the distances >= r_min. Within a run of equal
        # distances the last holds the ball's mass; an earlier one holds no
        # more, so it can only tie it, at the same radius. The rows are
        # sorted, so every distance <= r_min lies in the head of h columns,
        # h the least power of 2 (or the row length) with ds[:, h - 1] >
        # r_min on every row; only the head is compared with r_min.
        h = 1
        while h < ds.shape[1] and not np.all(ds[:, h - 1] > r_min):
            h *= 2
        head = ds[:, :h]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = cum / ds ** s
        ratios[:, :h][head < r_min] = -np.inf
        k = np.argmax(ratios, axis=1)
        at = np.arange(rows.size)
        best, radius = ratios[at, k], ds[at, k]
        # r_min itself unless some distance equals it; it precedes them all
        below = cum[at, np.count_nonzero(head <= r_min, axis=1) - 1] / r_min_s
        use_r_min = ~np.any(head == r_min, axis=1) & (below >= best)
        return np.stack([np.where(use_r_min, below, best),
                         np.where(use_r_min, r_min, radius)], axis=1)

    def reduce(per_row):
        x = int(np.argmax(per_row[:, 0]))
        return float(per_row[x, 0]), (x, float(per_row[x, 1]))
    return RowPass(np.arange(m.n_atoms), tile, reduce)


@dataclass(frozen=True)
class StepMeasure:
    """Purely atomic measure on the line with exact rational atoms: atom k
    sits at ticks[k] / scale (ticks sorted and distinct) with mass
    numerators[k] / denominator."""

    ticks: tuple[int, ...]
    scale: int
    numerators: tuple[int, ...]
    denominator: int

    @property
    def n_atoms(self) -> int:
        return len(self.ticks)

    @cached_property
    def prefix(self) -> tuple[int, ...]:
        """prefix[k] = sum(numerators[:k]), one entry longer than ticks."""
        return (0, *accumulate(self.numerators))

    @cached_property
    def positions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(t, self.scale) for t in self.ticks)

    @cached_property
    def masses(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(q, self.denominator) for q in self.numerators)

    @property
    def total(self) -> Fraction:
        return Fraction(self.prefix[-1], self.denominator)

    def below(self, p: int, q: int, closed: bool = False) -> int:
        """How many atoms lie below p/q (at or below it when closed), q > 0:
        one bisection of the ticks at the first tick that is not."""
        if closed:
            return bisect_right(self.ticks, p * self.scale // q)
        return bisect_left(self.ticks, -(-p * self.scale // q))

    def mass_units(self, lo, hi, lo_closed: bool = True,
                   hi_closed: bool = True) -> int:
        """Mass of the interval from lo to hi, with the given endpoint
        inclusion, in units of 1/denominator. lo and hi are compared
        exactly, never rounded."""
        lo = _exact(lo, "interval endpoint")
        hi = _exact(hi, "interval endpoint")
        if lo > hi:
            raise InputError("need lo <= hi")
        i = self.below(lo.numerator, lo.denominator, closed=not lo_closed)
        j = self.below(hi.numerator, hi.denominator, closed=hi_closed)
        return self.prefix[j] - self.prefix[i] if j > i else 0


def _exact(x, what: str) -> Fraction:
    """x as the rational it denotes; InputError unless x is a finite
    number (or a numeric string Fraction accepts)."""
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{what} must be a finite number, got {x!r}") \
            from None


def make_step_measure(pairs) -> StepMeasure:
    """Build from (position, mass) pairs; equal positions merge exactly.
    Positions go over the LCM of their denominators, masses over the LCM of
    theirs."""
    atoms = []
    for pos, mass in pairs:
        pos = _exact(pos, "atom position")
        mass = _exact(mass, "atom mass")
        if mass < 0:
            raise InputError("atom masses must be nonnegative")
        if pos < 0:
            raise InputError("atom positions must be nonnegative")
        atoms.append((pos, mass))
    scale = math.lcm(*(pos.denominator for pos, _ in atoms))
    den = math.lcm(*(mass.denominator for _, mass in atoms))
    acc: dict[int, int] = {}
    for pos, mass in atoms:
        t = pos.numerator * (scale // pos.denominator)
        acc[t] = acc.get(t, 0) + mass.numerator * (den // mass.denominator)
    ticks = tuple(sorted(acc))
    return StepMeasure(ticks=ticks, scale=scale,
                       numerators=tuple(acc[t] for t in ticks),
                       denominator=den)


def radial_pushforward(m: DiscreteMeasure, z: int) -> StepMeasure:
    """Distribution of d(z, .) under m, with exact merging of equal floats.

    Requires a (re)scaled cloud: diameter <= 1 up to float round-off, so the
    pushforward lives on [0, 1] (positions may exceed 1 by ulps).
    """
    if m.cloud.diameter > 1.0 + 1e-12:
        raise InputError(
            "cloud diameter exceeds 1; rescale_to_unit_diameter first")
    d = m.cloud.distances_from(z)
    vals, inverse = np.unique(d, return_inverse=True)
    # every float is exactly p / 2^k, so the distances are integer ticks
    # and the weights integer numerators over the largest 2^k of each
    spots = [x.as_integer_ratio() for x in vals.tolist()]
    scale = max(q for _, q in spots)
    ratios = [w.as_integer_ratio() for w in m.weights.tolist()]
    den = max(q for _, q in ratios)
    numerators = [0] * vals.size
    for k, (p, q) in zip(inverse.tolist(), ratios):
        numerators[k] += p * (den // q)
    return StepMeasure(ticks=tuple(p * (scale // q) for p, q in spots),
                       scale=scale, numerators=tuple(numerators),
                       denominator=den)


def interval_mass(v: StepMeasure, lo, hi, lo_closed: bool = True,
                  hi_closed: bool = True) -> Fraction:
    """Exact mass of the interval with the given endpoint inclusion."""
    return Fraction(v.mass_units(lo, hi, lo_closed, hi_closed),
                    v.denominator)


def measure_to_json(m: DiscreteMeasure) -> dict:
    return {"cloud": cloud_to_json(m.cloud),
            "weights": [float(w) for w in m.weights]}


def measure_from_json(obj: dict, base_dir: str = ".") -> DiscreteMeasure:
    with json_shape("measure JSON"):
        cloud, weights = obj["cloud"], np.asarray(obj["weights"], float)
    if isinstance(cloud, str):
        import os
        cloud = load_cloud(os.path.join(base_dir, cloud))
    else:
        cloud = cloud_from_json(cloud)
    return make_measure(cloud, weights)


def load_measure(path: str) -> DiscreteMeasure:
    import os
    with open(path) as fh:
        return measure_from_json(json.load(fh), base_dir=os.path.dirname(path))


def save_measure(m: DiscreteMeasure, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(measure_to_json(m), fh, sort_keys=True)
