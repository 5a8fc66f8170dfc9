"""The benchmark's workloads.

Each workload turns a seed into passes of items, runs one item through
sio_lab's public API, and extracts the item's certified quantities, which
the benchmark compares bit for bit against `reference.json`. Items are drawn
from a fixed pool so that every seed's items have a recorded reference.

A pass starts from cold caches (every functools cache in sio_lab is
cleared), because each `sio-lab` process and each criterion-1 run pays that
first-call cost.

Callers are looked up as module attributes (`cli.main`,
`good_radii.materialize_good_set`, ...) so that the tracer's wrappers,
installed on those attributes, see the calls.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from sio_lab import cli, good_radii, measure


def clear_caches() -> None:
    """Empty every functools cache in the sio_lab modules."""
    for name, mod in list(sys.modules.items()):
        if name == "sio_lab" or name.startswith("sio_lab."):
            for obj in vars(mod).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


@dataclass(frozen=True)
class Item:
    key: str        # identifies the item in reference.json; no commas
    payload: tuple


@dataclass(frozen=True)
class ConvergeWorkload:
    """`sio-lab converge` on the four-corner Cantor measure: Riesz kernel,
    lambda 5, depth 3, 5 balls. An item is one command with --seed s for s
    in range(pool); a pass runs the whole pool, in that order, whatever the
    benchmark's seed.

    The command's --seed sets the balls, and the balls set the work: at
    level 5 one command takes from 6.7 s to 11.1 s across --seed 0..11.
    A run fits only one pass, so a run drawing its own --seed values would
    measure its inputs more than the program. The order is fixed too: it
    moves the level-5 peak RSS by 8% (heap reuse between the commands).
    """

    name: str
    level: int
    threads: int
    eps_count: int = 12
    pool: int = 2

    @property
    def n_atoms(self) -> int:
        return 4 ** self.level

    def pool_items(self) -> list[Item]:
        return [Item(key=f"seed={s}", payload=(s,)) for s in range(self.pool)]

    def passes(self, seed: int) -> Iterator[list[Item]]:
        return itertools.repeat(self.pool_items())

    def run(self, item: Item, workdir: str):
        (s,) = item.payload
        argv = ["converge", "--family", "four_corner_cantor",
                "--level", str(self.level), "--kernel", "riesz",
                "--lambda", "5", "--depth", "3", "--balls", "5",
                "--eps-count", str(self.eps_count),
                "--threads", str(self.threads), "--seed", str(s),
                "--out-dir", workdir]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, item: Item, result, workdir: str
              ) -> tuple[dict, list[str]]:
        with open(os.path.join(workdir, "summary.json")) as fh:
            summary = json.load(fh)
        quantities = {
            "c_mu": summary["c_mu"],
            "c_certified": summary["c_certified"],
            "radii": [b["radius"] for b in summary["balls"]],
            "pairing": summary["trace"]["pairing"],
        }
        problems = []
        if result != 0:
            problems.append(f"converge exited {result}")
        if not summary["all_ok"]:
            problems.append("summary.json reports failed checks")
        return quantities, problems


def step_measure(index: int) -> measure.StepMeasure:
    """Pool measure `index`: criterion 1's random step measure (1 to 64
    atoms at multiples of 1e-6, total mass < 1) drawn from rng `index`."""
    rng = np.random.default_rng(index)
    n = int(rng.integers(1, 65))
    positions = [Fraction(int(rng.integers(0, 10 ** 6)), 10 ** 6)
                 for _ in range(n)]
    numerators = rng.integers(1, 10 ** 6, size=n)
    denom = int(numerators.sum()) + int(rng.integers(0, 10 ** 6))
    masses = [Fraction(int(q), denom) for q in numerators]
    return measure.make_step_measure(zip(positions, masses))


@dataclass(frozen=True)
class GoodSetWorkload:
    """Criterion 1's item: materialize the good set of a random step
    measure, verify it, and certify sample midpoints by direct queries.
    A pass takes `per_pass` pool measures at each lambda in `lams`."""

    name: str
    lams: tuple[int, ...]
    per_pass: int
    depth: int = 3
    pool: int = 128
    n_atoms = None  # no point cloud, so no kernel passes to count

    def pool_items(self) -> list[Item]:
        return [Item(key=f"lam={lam}/measure={i}",
                     payload=(lam, i, step_measure(i)))
                for lam in self.lams for i in range(self.pool)]

    def passes(self, seed: int) -> Iterator[list[Item]]:
        """Builds the whole measure pool now; each pass then draws
        `per_pass` distinct pool measures with the seeded rng."""
        measures = [step_measure(i) for i in range(self.pool)]
        rng = np.random.default_rng(seed)

        def draw():
            while True:
                picks = rng.choice(self.pool, size=self.per_pass,
                                   replace=False).tolist()
                yield [Item(key=f"lam={lam}/measure={i}",
                            payload=(lam, i, measures[i]))
                       for lam in self.lams for i in picks]
        return draw()

    def run(self, item: Item, workdir: str):
        lam, i, v = item.payload
        params = good_radii.GoodSetParams(lam=lam, depth=self.depth,
                                          budget=2 * 10 ** 7)
        iset = good_radii.materialize_good_set(v, params)
        rep = good_radii.verify_good_set(v, params, iset,
                                         rng=np.random.default_rng(i))
        spot_ok = True
        for k in range(0, iset.n_intervals, max(1, iset.n_intervals // 4)):
            t = iset.midpoint(k)
            spot_ok &= good_radii.is_good_radius(v, t, params).ok
            for n in range(1, self.depth + 1):
                w = params.shell_half_width(n)
                spot_ok &= measure.interval_mass(v, t - w, t + w) \
                    < Fraction(1, lam ** n)
        return (iset.total_length, iset.n_intervals,
                params.length * params.lower_bound, rep, spot_ok)

    def check(self, item: Item, result, workdir: str
              ) -> tuple[dict, list[str]]:
        total, n_intervals, floor, rep, spot_ok = result
        quantities = {"total_length": [total.numerator, total.denominator],
                      "n_intervals": n_intervals}
        problems = []
        if total < floor:
            problems.append("good set below its guaranteed length")
        if not (rep.midpoints_ok and rep.light_cells_ok
                and rep.non_concentration_ok):
            problems.append(f"verify_good_set failed: {rep}")
        if not spot_ok:
            problems.append("a sampled midpoint failed a direct query")
        return quantities, problems


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    ConvergeWorkload("converge_l5", level=5, threads=1),
    ConvergeWorkload("converge_l6", level=6, threads=2, eps_count=2, pool=1),
    GoodSetWorkload("good_set_bulk", lams=(16,), per_pass=4),
)}


def compare(workload_name: str, key: str, quantities: dict,
            reference: dict | None) -> list[str]:
    """Bit-for-bit comparison with the recorded reference (None skips it).
    Floats compare by repr, which round-trips every bit."""
    if reference is None:
        return []
    expected = reference.get(workload_name, {}).get(key)
    if expected is None:
        return [f"no reference for {workload_name} {key}"]
    if json.dumps(expected, sort_keys=True) \
            != json.dumps(quantities, sort_keys=True):
        return [f"{key}: {quantities} differs from reference {expected}"]
    return []
