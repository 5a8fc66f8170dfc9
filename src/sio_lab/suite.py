"""End-to-end convergence suites: generate a measure, certify growth and
kernel bounds, select good radii, and verify every estimate in the
truncation-difference argument on a decreasing eps grid.

Every certified inequality is one errors.Check, and a run collects them all
in a fixed order: growth constant, antisymmetry, size bound, the good radius
of each ball, each step's four-term bound, the cancellation bounds, the
annuli bound and the log-boundary sum. A failed check is recorded, not
raised, so a failing run still reports every check and is written out whole;
report_to_json derives the summary's verdict fields from the checks.

The balls are certified first, from O(N) pushforwards. Then one walk of the
row tiles (kernels.sweep_pair_tiles) feeds six RowPasses: the growth
constant, the antisymmetry check, the kernel size bound, the pairing trace,
ball 0's annuli and the boundedness trend's own level. Each is reduced as
its stand-alone function reduces it, so it keeps that function's bits. The
antisymmetry check reads k(x, y) off the sweep's rows and evaluates k(y, x)
itself, in the same row layout (kernels.kernel_rows with swap), never
reading it off k(x, y). The growth pass compares only the head of each
sorted distance row with r_min. The trend's lower levels sweep their
own clouds, on the run's threads, in the same metric.tile_map tiles.
generate validates each cloud in one serial pass over its upper triangle.
Every double sum takes one reduction tree: fold_rows per row, then
pairwise_sum over the rows.

No cancellation residual is walked: cancellation_j is the Check bound <=
0.0, where operator.cancellation_bound bounds the residual from the
antisymmetry check's lhs A alone. An antisymmetrized kernel has A == 0, so
each bound is 0.0 and holds; a raw base, or NaN values, fail it.

Outputs are byte-stable: data files carry no timestamps (run metadata goes to
a sidecar), floats are serialized via repr, and all reductions are
deterministic for any worker count. summary.json is strict JSON: a
non-finite float is written as its repr string.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import Check, InputError
from .generators import GeneratorSpec, generate
from .good_radii import GoodSetParams, is_good_radius, select_good_radius_near
from .kernels import (COORDINATE_RIESZ, KernelSpec, antisymmetry_pass,
                      size_bound_pass, sweep_pair_tiles)
from .measure import (DiscreteMeasure, StepMeasure, growth_pass, normalize,
                      radial_pushforward)
from .operator import (Ball, PairingTrace, SimpleFunction, _check_grid,
                       annuli_pass, boundary_pass, cancellation_bound,
                       log_boundary_sum, shell_mass_check,
                       total_boundary_integral, trace_pass)

TRACE_COLUMNS = ("epsilon", "pairing", "cauchy_diff", "four_term_bound")


@dataclass(frozen=True)
class SuiteConfig:
    generator: GeneratorSpec
    kernel: KernelSpec
    s: float = 1.0
    lam: int = 5
    depth: int = 3
    n_balls: int = 5
    eps_start: float = 0.5
    eps_ratio: float = 0.5
    eps_count: int = 12
    n_cancellation: int = 4
    levels_back: int = 2   # boundedness trend over levels m-levels_back..m
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        for name, low in (("n_balls", 1), ("n_cancellation", 0),
                          ("levels_back", 0), ("workers", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise InputError(f"{name} must be >= {low}, "
                                 f"got {getattr(self, name)}")
        if not (math.isfinite(self.s) and self.s > 0.0):
            raise InputError(f"s must be finite and positive, got {self.s!r}")
        self.eps_grid()

    def eps_grid(self) -> tuple[float, ...]:
        return geometric_grid(self.eps_start, self.eps_ratio, self.eps_count)


def geometric_grid(start: float, ratio: float, count: int
                   ) -> tuple[float, ...]:
    if not (math.isfinite(start) and start > 0.0) \
            or not 0.0 < ratio < 1.0 or count < 1:
        raise InputError("need finite start > 0, 0 < ratio < 1, count >= 1; "
                         f"got start={start!r}, ratio={ratio!r}, "
                         f"count={count!r}")
    return tuple(_check_grid(start * ratio ** j for j in range(count)))


def parse_eps_grid(text: str) -> tuple[float, ...]:
    """"geometric:start=0.5,ratio=0.5,count=20" or a comma list of floats;
    InputError if the text is neither."""
    try:
        if text.startswith("geometric:"):
            pairs = [part.split("=")
                     for part in text[len("geometric:"):].split(",")]
            kv = dict(pairs)  # ValueError unless every part is key=value
            if sorted(key for key, _ in pairs) != ["count", "ratio", "start"]:
                raise ValueError
            return geometric_grid(float(kv["start"]), float(kv["ratio"]),
                                  int(kv["count"]))
        return tuple(_check_grid(float(x) for x in text.split(",")))
    except InputError:
        raise
    except ValueError:
        raise InputError(f"malformed eps grid {text!r}: want "
                         "geometric:start=S,ratio=R,count=C or a comma "
                         "list of numbers") from None


@dataclass(frozen=True)
class BallRecord:
    center: int
    target: float
    radius: tuple[int, int]          # exact rational (num, den)
    cert_depth: int
    shells: tuple[Check, ...]        # shell_mass_n: exact mass vs lam^-n
    shell_tail_sum: float
    check: Check                     # good_radius_center_<center>


@dataclass(frozen=True)
class ConvergenceReport:
    config: SuiteConfig
    n_atoms: int
    r_min: float
    balls: tuple[BallRecord, ...]
    f_terms: tuple[tuple[float, int, float], ...]   # (coeff, center, radius)
    g_terms: tuple[tuple[float, int, float], ...]
    trace: PairingTrace
    boundedness: tuple[dict, ...]
    checks: tuple[Check, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def check(self, name: str) -> Check:
        return next(c for c in self.checks if c.name == name)


def certify_ball(m: DiscreteMeasure, center: int, target: float,
                 params: GoodSetParams
                 ) -> tuple[Ball, BallRecord, StepMeasure]:
    """Pushforward at the center, nearest certified radius, shell masses;
    returns the pushforward too, for the checks that reuse it. The record's
    check good_radius_center_<center> holds iff the radius is certified and
    every shell mass is within its bound."""
    mu_z = radial_pushforward(m, center)
    r = select_good_radius_near(mu_z, Fraction(target), params)
    cert = is_good_radius(mu_z, r, params)
    shells = shell_mass_check(mu_z, r, cert)
    rec = BallRecord(
        center=center, target=float(target),
        radius=(r.numerator, r.denominator), cert_depth=cert.depth,
        shells=shells.checks, shell_tail_sum=shells.tail_sum,
        check=Check(f"good_radius_center_{center}",
                    [r.numerator, r.denominator], None,
                    cert.ok and all(c.ok for c in shells.checks),
                    witness=cert))
    return Ball(center=center, radius=float(r)), rec, mu_z


def run_convergence_suite(config: SuiteConfig) -> ConvergenceReport:
    """Full pipeline: every check in the order of the module docstring. A
    bad config raises InputError before any work; a failed check never
    raises, it is reported with its witness and makes all_ok false."""
    grid = config.eps_grid()
    _cloud, m, r_min = generate(config.generator)
    m, _ = normalize(m)
    growth = growth_pass(m, config.s, r_min)
    antisymmetry = antisymmetry_pass(config.kernel, m.cloud)
    size_bound = size_bound_pass(m.cloud, config.s)

    params = GoodSetParams(lam=config.lam, depth=config.depth)
    rng = np.random.default_rng(config.seed)
    balls: list[Ball] = []
    records: list[BallRecord] = []
    centers = rng.integers(0, m.n_atoms, size=config.n_balls)
    targets = 0.2 + 0.6 * rng.random(config.n_balls)
    for z, target in zip(centers.tolist(), targets.tolist()):
        ball, rec, mu_z = certify_ball(m, int(z), float(target), params)
        if not balls:
            mu_0 = mu_z  # the log-boundary bound reads ball 0's pushforward
        balls.append(ball)
        records.append(rec)

    half = max(1, len(balls) // 2)
    f_coeffs = (rng.random(half) * 2.0 - 1.0).tolist()
    g_coeffs = (rng.random(len(balls) - half) * 2.0 - 1.0).tolist()
    f = SimpleFunction(terms=tuple((c, b) for c, b
                                   in zip(f_coeffs, balls[:half])))
    g = SimpleFunction(terms=tuple((c, b) for c, b
                                   in zip(g_coeffs, balls[half:])))

    pairings = trace_pass(m, f, g, grid)
    annuli = annuli_pass(m, balls[0])
    passes = [growth, antisymmetry, size_bound, pairings, annuli]
    gen = config.generator
    trend_top = None  # a uniform cloud has no refinement levels
    if gen.family != "uniform_random" and gen.level >= 1:
        trend_top = _trend_ball(params, records[0].target, m, gen.level)
        passes.append(boundary_pass(m, trend_top[0], 0.0, math.inf))
    growth_rows, anti_rows, size_rows, trace_rows, annuli_rows, *top_rows = \
        sweep_pair_tiles(config.kernel, m.cloud, passes,
                         workers=config.workers)

    c_mu, growth_witness = growth.reduce(growth_rows)
    checks = [Check("growth_constant_finite", c_mu, None,
                    bool(np.isfinite(c_mu) and c_mu > 0.0), growth_witness)]
    anti = antisymmetry.reduce(anti_rows)
    checks.append(anti)
    c_cert, kernel_witness = size_bound.reduce(size_rows)
    checks.append(Check("kernel_size_bound_finite", c_cert, None,
                        bool(np.isfinite(c_cert)), kernel_witness))
    checks += [rec.check for rec in records]

    trace = pairings.reduce(trace_rows)
    del trace_rows  # the widest block; freed before the trend's walks
    checks += trace.checks

    for j in range(config.n_cancellation):
        b1 = balls[j % len(balls)]
        b2 = balls[(j + 1) % len(balls)]
        lo = float(0.01 + 0.4 * rng.random())
        hi = float(lo + 0.05 + 0.5 * rng.random())
        bound = cancellation_bound(anti.lhs, m, b1, b2)
        checks.append(Check.le(
            f"cancellation_{j}", bound, 0.0,
            witness={"balls": [b1.center, b2.center], "delta": lo,
                     "eps": hi, "bound": bound}))

    ann_checks, _on_sphere = annuli.reduce(annuli_rows, config.s, c_cert, c_mu)
    # the first failing atom, else the one with the least slack
    worst = max(ann_checks, key=lambda c: (not c.ok, c.lhs - c.rhs))
    checks.append(replace(worst, name="annuli_log_bound"))
    checks.append(log_boundary_sum(m, balls[0], config.lam, mu_0))

    boundedness = []
    if trend_top is not None:
        boundedness = _boundedness_trend(config, params, records[0].target)
        boundedness.append({**trend_top[1],
                            "value": passes[-1].reduce(top_rows[0])})

    return ConvergenceReport(
        config=config, n_atoms=m.n_atoms, r_min=r_min, balls=tuple(records),
        f_terms=tuple((c, b.center, b.radius) for c, b in f.terms),
        g_terms=tuple((c, b.center, b.radius) for c, b in g.terms),
        trace=trace, boundedness=tuple(boundedness), checks=tuple(checks))


def _trend_ball(params: GoodSetParams, target: float, m: DiscreteMeasure,
                level: int) -> tuple[Ball, dict]:
    """The boundedness trend's ball on m, the measure at `level`: center
    atom 0 (a fixed corner, present at every level) at a radius recertified
    near target by certify_ball; and its trend row, still without the
    value."""
    ball, rec, _mu_z = certify_ball(m, 0, target, params)
    return ball, {"level": level, "radius": list(rec.radius),
                  "cert_depth": rec.cert_depth}


def _boundedness_trend(config: SuiteConfig, params: GoodSetParams,
                       target: float) -> list[dict]:
    """total_boundary_integral at a recertified radius on the levels below
    the run's own, from m - levels_back up, each generated afresh; the
    run's own level is read off the run's sweep."""
    gen = config.generator
    out = []
    for level in range(max(1, gen.level - config.levels_back), gen.level):
        _cloud, m_lev, _ = generate(replace(gen, level=level))
        m_lev, _ = normalize(m_lev)
        ball, row = _trend_ball(params, target, m_lev, level)
        out.append({**row, "value": total_boundary_integral(
            config.kernel, m_lev, ball, workers=config.workers)})
    return out


# ---------------------------------------------------------------------------
# emission: byte-stable CSV + JSON, run metadata in a sidecar


def trace_csv_lines(trace: PairingTrace) -> list[str]:
    lines = [",".join(TRACE_COLUMNS)]
    for j, (e, v) in enumerate(zip(trace.eps_grid, trace.values)):
        d = repr(trace.cauchy_diffs[j]) if j < len(trace.cauchy_diffs) else ""
        b = repr(trace.bound_values[j]) if j < len(trace.bound_values) else ""
        lines.append(f"{e!r},{v!r},{d},{b}")
    return lines


def _ball_json(b: BallRecord) -> dict:
    return {"center": b.center, "target": b.target, "radius": b.radius,
            "cert_depth": b.cert_depth, "shell_tail_sum": b.shell_tail_sum,
            "shells": [{"n": c.witness["n"],
                        "mass": [c.lhs.numerator, c.lhs.denominator],
                        "threshold": [c.rhs.numerator, c.rhs.denominator],
                        "ok": c.ok} for c in b.shells]}


def _strict_json(x):
    """x with every non-finite float, at any depth, replaced by its repr
    string ("nan", "inf", "-inf"), so it dumps as strict JSON."""
    if isinstance(x, float):
        return x if math.isfinite(x) else repr(float(x))
    if isinstance(x, dict):
        return {k: _strict_json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_strict_json(v) for v in x]
    return x


def report_to_json(report: ConvergenceReport) -> dict:
    """The summary: every verdict field is read off report.checks. It is
    strict JSON: a failed run's non-finite floats are written as their repr
    strings."""
    cfg = asdict(report.config)  # asdict converts the nested specs too
    del cfg["workers"]  # execution detail; results are worker-independent
    riesz = cfg["kernel"]["family"] == COORDINATE_RIESZ
    for key in ("base", "antisymmetrize") if riesz else ("i", "n"):
        del cfg["kernel"][key]  # echo only the fields the family reads
    growth = report.check("growth_constant_finite")
    size = report.check("kernel_size_bound_finite")
    annuli = report.check("annuli_log_bound")
    lb = report.check("log_boundary_sum")
    return _strict_json({
        "config": cfg,
        "n_atoms": report.n_atoms,
        "r_min": report.r_min,
        "c_mu": growth.lhs,
        "growth_witness": list(growth.witness),
        "c_certified": size.lhs,
        "kernel_witness": list(size.witness),
        "antisymmetry_ok": report.check("kernel_antisymmetry").ok,
        "balls": [_ball_json(b) for b in report.balls],
        "f_terms": [list(t) for t in report.f_terms],
        "g_terms": [list(t) for t in report.g_terms],
        "trace": {"epsilon": list(report.trace.eps_grid),
                  "pairing": list(report.trace.values),
                  "cauchy_diff": list(report.trace.cauchy_diffs),
                  "four_term_bound": list(report.trace.bound_values)},
        "cancellation": [{**c.witness, "ok": c.ok} for c in report.checks
                         if c.name.startswith("cancellation_")],
        "annuli_ok": annuli.ok,
        "annuli_worst": {"atom": annuli.witness["atom"], "lhs": annuli.lhs,
                         "rhs": annuli.rhs,
                         "n_annuli": annuli.witness["n_annuli"]},
        "log_boundary": {"value": lb.lhs, "bound": lb.rhs, **lb.witness,
                         "ok": lb.ok},
        "boundedness": list(report.boundedness),
        "checks": [{"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "ok": c.ok}
                   for c in report.checks],
        "all_ok": report.all_ok,
    })


def emit_report(report: ConvergenceReport, out_dir: str) -> list[str]:
    """Write trace CSV and summary JSON (byte-stable) plus a metadata
    sidecar (the only file with timestamps); returns the data-file paths."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "trace.csv")
    with open(csv_path, "w") as fh:
        fh.write("\n".join(trace_csv_lines(report.trace)) + "\n")
    json_path = os.path.join(out_dir, "summary.json")
    with open(json_path, "w") as fh:
        json.dump(report_to_json(report), fh, sort_keys=True, indent=1,
                  allow_nan=False)
        fh.write("\n")
    meta = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "python": sys.version, "platform": platform.platform(),
            "numpy": np.__version__}
    with open(os.path.join(out_dir, "run_meta.json"), "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return [csv_path, json_path]
