import json
import math
import os
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from oracles import dense_distances, dense_kernel
from sio_lab import kernels, measure, metric, operator, suite
from sio_lab.errors import InputError
from sio_lab.generators import GeneratorSpec, generate
from sio_lab.kernels import KernelSpec, check_antisymmetry, check_size_bound
from sio_lab.measure import growth_constant, normalize
from sio_lab.metric import MetricDescriptor
from sio_lab.operator import (Ball, SimpleFunction, annuli_log_bound_check,
                              compute_pairing_trace, total_boundary_integral)
from sio_lab.suite import (SuiteConfig, emit_report, geometric_grid,
                           parse_eps_grid, report_to_json,
                           run_convergence_suite, trace_csv_lines)

RIESZ = KernelSpec(family="coordinate_riesz", i=1, n=1)
GENERIC = KernelSpec(family="generic_antisymmetrized",
                     base="x[..., 0] * (x[..., 1] + 2.0 * y[..., 0]) / d ** 1.5")
RAW = replace(GENERIC, antisymmetrize=False)  # fails the antisymmetry check
E2 = MetricDescriptor(family="euclidean_p", dimension=2, p=2.0)
L1 = MetricDescriptor(family="euclidean_p", dimension=2, p=1.0)
SNOW = MetricDescriptor(family="snowflake", dimension=2, p=2.0, alpha=0.5)


def bits(values):
    return [float(v).hex() for v in values]


def small_config(**kw):
    defaults = dict(
        generator=GeneratorSpec(family="four_corner_cantor", level=3),
        kernel=RIESZ, s=1.0, lam=5, depth=2, n_balls=3,
        eps_start=0.5, eps_ratio=0.5, eps_count=6, n_cancellation=2,
        levels_back=1, seed=0, workers=1)
    defaults.update(kw)
    return SuiteConfig(**defaults)


def _ball_fields(report):
    return [(tuple(b["radius"]), b["cert_depth"],
             [(tuple(s["mass"]), tuple(s["threshold"])) for s in b["shells"]])
            for b in report_to_json(report)["balls"]]


SHELLS_0 = [((0, 1), (1, 5)), ((0, 1), (1, 25)), ((0, 1), (1, 125))]

# exact fields of the default converge run (lambda 5, depth 3, 5 balls):
# radii, shell masses, the trend's radii and the log-boundary core come from
# correctly rounded distances and exact rational arithmetic
PINNED = {
    (4, 0): dict(
        balls=[((6559, 31250), 3, SHELLS_0),
               ((21503, 31250), 3, [((11, 256), (1, 5)), *SHELLS_0[1:]]),
               ((4673, 6250), 3, [((3, 256), (1, 5)), *SHELLS_0[1:]]),
               ((17753, 31250), 3, [((21, 256), (1, 5)), *SHELLS_0[1:]]),
               ((19747, 31250), 3, [((1, 16), (1, 5)), ((1, 256), (1, 25)),
                                    SHELLS_0[2]])],
        boundedness=[((6559, 31250), 3)] * 3, core_mass=0.25, n_shells=1),
    (4, 1): dict(
        balls=[((24037, 31250), 3, [((5, 256), (1, 5)), *SHELLS_0[1:]]),
               ((12097, 31250), 3, [((3, 256), (1, 5)), *SHELLS_0[1:]]),
               ((14187, 31250), 3, SHELLS_0),
               ((21769, 31250), 3, SHELLS_0),
               ((14003, 31250), 3, SHELLS_0)],
        boundedness=[((24037, 31250), 3)] * 3, core_mass=0.90625,
        n_shells=1),
    (5, 0): dict(
        balls=[((6559, 31250), 3, SHELLS_0),
               ((21503, 31250), 3, [((21, 512), (1, 5)),
                                    ((1, 1024), (1, 25)), SHELLS_0[2]]),
               ((4673, 6250), 3, [((3, 256), (1, 5)), *SHELLS_0[1:]]),
               ((17753, 31250), 3, [((5, 64), (1, 5)), *SHELLS_0[1:]]),
               ((19747, 31250), 3, [((7, 128), (1, 5)), *SHELLS_0[1:]])],
        boundedness=[((6559, 31250), 3)] * 3, core_mass=0.25, n_shells=1),
}


@pytest.mark.parametrize("level, seed", sorted(PINNED))
def test_exact_fields_of_converge_are_pinned(level, seed):
    # the eps grid sets none of these fields, so a short one keeps it quick
    report = run_convergence_suite(SuiteConfig(
        generator=GeneratorSpec(family="four_corner_cantor", level=level),
        kernel=RIESZ, eps_count=2, seed=seed))
    want = PINNED[(level, seed)]
    assert _ball_fields(report) == want["balls"]
    assert [(tuple(b["radius"]), b["cert_depth"])
            for b in report.boundedness] == want["boundedness"]
    log_boundary = report.check("log_boundary_sum").witness
    assert log_boundary["core_mass"] == want["core_mass"]
    assert log_boundary["n_shells"] == want["n_shells"]


# trace.csv of the default level-4 converge (seed 0, 12-step grid) as
# float.hex: every step's scale and ball bands are folded. The column
# four_term_bound used to print fl(bound + 1e-12 * scale), kept as
# padded_four_term_bound; it now prints the bound itself
PINNED_TRACE = dict(
    pairing=["0x1.ac242389b482cp-7", "0x1.b84a1d9967210p-7",
             "0x1.339b4112ae76cp-6", "0x1.457b5d5f5eca0p-6",
             "0x1.66551938d904cp-6", "0x1.97a7e36066fa8p-6",
             *["0x1.a397c0de75990p-7"] * 6],
    cauchy_diff=["0x1.84bf41f653c80p-12", "0x1.5dd8c917eb990p-8",
                 "0x1.1e01c4cb05340p-10", "0x1.06cddecbd1d60p-9",
                 "0x1.8a96513c6fae0p-9", "0x1.8bb805e2585c0p-7",
                 *["0x0.0p+0"] * 5],
    four_term_bound=["0x1.b08e84a951960p-3", "0x1.48eb008f27c3ap-2",
                     "0x1.56bad29f453a0p-5", "0x1.7be480700d24fp-3",
                     "0x1.2e2b72ccd822ep-5", "0x1.95460ac62ede6p-5",
                     *["0x0.0p+0"] * 5],
    padded_four_term_bound=["0x1.b08e84a952396p-3", "0x1.48eb008f28c55p-2",
                            "0x1.56bad29f47ee3p-5", "0x1.7be480700f2f5p-3",
                            "0x1.2e2b72ccda69ep-5", "0x1.95460ac6389e5p-5",
                            *["0x0.0p+0"] * 5])


def assert_trace_is_pinned(trace, pins):
    assert len(trace.eps_grid) == 12
    assert bits(trace.values) == pins["pairing"]
    assert bits(trace.cauchy_diffs) == pins["cauchy_diff"]
    assert bits(trace.bound_values) == pins["four_term_bound"]
    # each new pin is its old one, unpadded: old == fl(new + 1e-12 * scale)
    assert bits(float.fromhex(b) + 1e-12 * c.witness["scale"]
                for b, c in zip(pins["four_term_bound"], trace.checks)) \
        == pins["padded_four_term_bound"]


def test_multi_step_trace_of_converge_is_pinned():
    trace = run_convergence_suite(SuiteConfig(
        generator=GeneratorSpec(family="four_corner_cantor", level=4),
        kernel=RIESZ, seed=0)).trace
    assert_trace_is_pinned(trace, PINNED_TRACE)


# the same run with the generic kernel of the CI step, recorded while its
# kernel was still built as one dense N x N matrix
PINNED_GENERIC_TRACE = dict(
    pairing=["0x1.3d25ae59d1a2cp-7", "0x1.40f78cfb51afcp-7",
             "0x1.bb9576787d9edp-7", "0x1.bfe3626a50d90p-7",
             "0x1.fd19de4ff50f7p-7", "0x1.04fb65c760300p-6",
             *["0x1.0420001765546p-6"] * 6],
    cauchy_diff=["0x1.e8ef50c006800p-14", "0x1.ea77a5f4afbc4p-9",
                 "0x1.137afc74ce8c0p-13", "0x1.e9b3df2d21b38p-10",
                 "0x1.9b9da7d96a120p-12", "0x1.b6cb5ff5b7400p-15",
                 *["0x0.0p+0"] * 5],
    four_term_bound=["0x1.70fc151b9168ap-5", "0x1.7cef5007c47cap-5",
                     "0x1.b099e0f29085ap-8", "0x1.752677c0f8b27p-7",
                     "0x1.dffdc3f3ed8dep-10", "0x1.8ca3c449dfb15p-10",
                     *["0x0.0p+0"] * 5],
    padded_four_term_bound=["0x1.70fc151b91e9fp-5", "0x1.7cef5007c55edp-5",
                            "0x1.b099e0f293054p-8", "0x1.752677c0faa63p-7",
                            "0x1.dffdc3f3f1364p-10", "0x1.8ca3c449e93c6p-10",
                            *["0x0.0p+0"] * 5])


def test_multi_step_generic_trace_of_converge_is_pinned():
    trace = run_convergence_suite(SuiteConfig(
        generator=GeneratorSpec(family="four_corner_cantor", level=4),
        kernel=GENERIC, seed=0)).trace
    assert_trace_is_pinned(trace, PINNED_GENERIC_TRACE)


@pytest.mark.parametrize("field, low", [("n_balls", 1), ("n_cancellation", 0),
                                        ("levels_back", 0), ("workers", 1)])
def test_config_rejects_sizes_below_their_minimum(field, low):
    with pytest.raises(InputError, match=field):
        small_config(**{field: low - 1})
    assert getattr(small_config(**{field: low}), field) == low


def test_parse_eps_grid():
    assert parse_eps_grid("geometric:start=0.5,ratio=0.5,count=3") \
        == (0.5, 0.25, 0.125)
    assert parse_eps_grid("0.4,0.2") == (0.4, 0.2)
    assert geometric_grid(1.0, 0.5, 2) == (1.0, 0.5)


@pytest.mark.parametrize("text", [
    "geometric:start=0.5", "geometric:start=0.5,ratio=0.5,count=2.5",
    "geometric:start=0.5,ratio=0.5,count=2,start=1",
    "geometric:start=0.5,ratio=0.5,count=2,extra=1", "geometric:",
    "0.5,abc", "", "0.2,0.4", "0.5,nan"])
def test_parse_eps_grid_rejects_a_malformed_grid(text):
    with pytest.raises(InputError):
        parse_eps_grid(text)


@pytest.mark.parametrize("start", [math.nan, math.inf, 0.0, -0.5])
def test_geometric_grid_needs_a_finite_positive_start(start):
    with pytest.raises(InputError, match="finite start > 0"):
        geometric_grid(start, 0.5, 3)


def test_a_geometric_grid_that_underflows_is_rejected_when_built():
    """0.5 ** 1075 is 0.0 in floats: the grid, and a config holding it,
    raise InputError naming the first bad entry, not every entry."""
    with pytest.raises(InputError, match="entry 1074 = 0.0 after 5e-324$"):
        geometric_grid(0.5, 0.5, 1100)
    with pytest.raises(InputError, match="^eps grid must be finite"):
        small_config(eps_count=1100)
    assert len(small_config(eps_count=1074).eps_grid()) == 1074


def test_config_rejects_a_non_finite_s_or_eps_start():
    for s in (math.nan, math.inf, 0.0):
        with pytest.raises(InputError, match="s must be finite"):
            small_config(s=s)
    with pytest.raises(InputError, match="finite start > 0"):
        small_config(eps_start=math.nan)


@pytest.mark.parametrize("kernel", [RIESZ, GENERIC, RAW])
@pytest.mark.parametrize("md", [E2, L1, SNOW], ids=["E2", "L1", "snowflake"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sweep_matches_the_stand_alone_functions(kernel, md, workers,
                                                 monkeypatch):
    # 7-row tiles: 64 atoms are 9 full tiles and one of a single row
    monkeypatch.setattr(metric, "_TILE_PAIRS", 7 * 64)
    gen = GeneratorSpec(family="four_corner_cantor", level=3, metric=md)
    config = small_config(generator=gen, kernel=kernel, s=1.5, eps_count=4,
                          workers=workers)
    report = run_convergence_suite(config)
    _cloud, m, r_min = generate(gen)
    m, _ = normalize(m)

    c_mu, witness = growth_constant(m, config.s, r_min)
    growth = report.check("growth_constant_finite")
    assert bits([growth.lhs, growth.witness[1]]) == bits([c_mu, witness[1]])
    assert growth.witness[0] == witness[0]
    anti = check_antisymmetry(kernel, m.cloud)
    swept = report.check("kernel_antisymmetry")
    assert bits([swept.lhs, swept.rhs, swept.witness["scale"]]) \
        == bits([anti.lhs, anti.rhs, anti.witness["scale"]])
    assert swept.witness["pair"] == anti.witness["pair"]
    assert swept.ok == anti.ok == (kernel is not RAW)
    c_cert, pair = check_size_bound(kernel, m.cloud, config.s)
    size = report.check("kernel_size_bound_finite")
    assert bits([size.lhs]) == bits([c_cert])
    assert size.witness == pair

    def simple(terms):
        return SimpleFunction(terms=tuple((c, Ball(z, r))
                                          for c, z, r in terms))
    trace = compute_pairing_trace(kernel, m, simple(report.f_terms),
                                  simple(report.g_terms), config.eps_grid())
    for field in ("eps_grid", "values", "cauchy_diffs", "bound_values"):
        assert bits(getattr(report.trace, field)) \
            == bits(getattr(trace, field))

    ball_0 = Ball(report.balls[0].center,
                  float(Fraction(*report.balls[0].radius)))
    assert ball_0.radius == report.f_terms[0][2]
    records, _ = annuli_log_bound_check(kernel, m, ball_0, config.s,
                                        max(c_cert, 1e-300), c_mu)
    worst = max(records, key=lambda r: r.lhs - r.rhs)
    annuli = report.check("annuli_log_bound")
    assert annuli.witness == worst.witness
    assert bits([annuli.lhs, annuli.rhs]) == bits([worst.lhs, worst.rhs])

    top = report.boundedness[-1]
    assert top["level"] == 3
    value = total_boundary_integral(
        kernel, m, Ball(0, float(Fraction(*top["radius"]))))
    assert bits([top["value"]]) == bits([value])


def test_a_failing_run_reports_its_first_failing_check():
    # a symmetric base fails the antisymmetry check and also the four-term
    # bound; antisymmetry comes first, and nothing is raised
    symmetric = KernelSpec(family="generic_antisymmetrized",
                           base="d ** -1.0", antisymmetrize=False)
    report = run_convergence_suite(small_config(kernel=symmetric))
    assert not report.all_ok
    failed = [c.name for c in report.checks if not c.ok]
    assert failed[0] == "kernel_antisymmetry"
    assert "cauchy_bound_step_2" in failed
    summary = report_to_json(report)
    assert summary["all_ok"] is False and summary["antisymmetry_ok"] is False


@pytest.mark.parametrize("kernel, path", [(RIESZ, "exact"),
                                          (GENERIC, "exact"),
                                          (RAW, "computed")])
def test_cancellation_witness_names_its_path(kernel, path, monkeypatch):
    """An antisymmetry check reading exactly 0 certifies each residual with
    no walk: the check is 0.0 <= 0.0 and its scale is null. A raw base is
    walked, with the bits of a stand-alone call. summary.json keeps the
    five witness keys it had before the path was recorded."""
    calls = []
    real = suite.cancellation_residual

    def counting(*args, **kw):
        calls.append(args[2:6])
        return real(*args, **kw)
    monkeypatch.setattr(suite, "cancellation_residual", counting)
    config = small_config(kernel=kernel, n_cancellation=4, seed=3)
    report = run_convergence_suite(config)
    assert (report.check("kernel_antisymmetry").lhs == 0.0) \
        == (path == "exact")
    _cloud, m, _ = generate(config.generator)
    m, _ = normalize(m)
    radius = {b.center: float(Fraction(*b.radius)) for b in report.balls}
    checks = [c for c in report.checks if c.name.startswith("cancellation_")]
    assert len(checks) == 4
    assert len(calls) == (0 if path == "exact" else 4)
    summary = report_to_json(report)
    for c, entry in zip(checks, summary["cancellation"]):
        w = c.witness
        assert w["path"] == path and c.ok == entry["ok"]
        b1, b2 = (Ball(z, radius[z]) for z in w["balls"])
        want = operator.cancellation_residual(kernel, m, b1, b2, w["delta"],
                                              w["eps"])
        assert want[1] > 0.0  # seed 3: every band holds pairs
        if path == "exact":
            assert bits(want[:1]) == bits([0.0])  # what the check certifies
            assert (w["residual"], w["scale"]) == (0.0, None)
            assert bits([c.lhs, c.rhs]) == bits([0.0, 0.0]) and c.ok
            assert entry["scale"] is None
        else:
            assert bits([w["residual"], w["scale"]]) == bits(want)
            assert bits([c.rhs]) == bits([1e-13 * want[1]])
    written = {c["name"]: c for c in summary["checks"]}
    assert [written[c.name]["rhs"] == 0.0 for c in checks] \
        == [path == "exact"] * 4
    assert [sorted(c) for c in summary["cancellation"]] \
        == [["balls", "delta", "eps", "ok", "residual", "scale"]] * 4


def test_a_kernel_one_ulp_off_is_walked_and_shows_its_residual(monkeypatch):
    """k(x, y) one ulp off -k(y, x) at one pair of cancellation_0's band:
    the antisymmetry check names the pair, the run takes the computed path,
    and the residual is that pair's nonzero term difference."""
    config = small_config(n_cancellation=4, seed=3)
    exact = run_convergence_suite(config)
    w = exact.check("cancellation_0").witness
    _cloud, m, _ = generate(config.generator)
    m, _ = normalize(m)
    radius = {b.center: float(Fraction(*b.radius)) for b in exact.balls}
    b1, b2 = (Ball(z, radius[z]) for z in w["balls"])
    rows = np.nonzero(b1.members(m.cloud) & b2.members(m.cloud))[0]
    d = dense_distances(m.cloud)[np.ix_(rows, rows)]
    km, wt = dense_kernel(RIESZ, m.cloud), m.weights
    band = rows[np.argwhere((d > w["delta"]) & (d < w["eps"])
                            & np.triu(np.ones(d.shape, bool), k=1))]
    x, y, want = next(
        (x, y, diff) for x, y in band.tolist()
        for diff in [np.nextafter(km[x, y], np.inf) * (wt[x] * wt[y])
                     - km[x, y] * (wt[x] * wt[y])] if diff != 0.0)
    real = kernels._kernel_block

    def one_ulp_off(k, cloud, rows, cols, swap=False):
        vals, norm = real(k, cloud, rows, cols, swap)
        cols = np.arange(cloud.n_points) if cols is None else np.asarray(cols)
        first, second = (y, x) if swap else (x, y)  # the block's (row, col)
        at = (np.asarray(rows)[:, None] == first) & (cols[None, :] == second)
        vals[at] = np.nextafter(vals[at], np.inf)
        return vals, norm
    monkeypatch.setattr(kernels, "_kernel_block", one_ulp_off)
    report = run_convergence_suite(config)
    anti = report.check("kernel_antisymmetry")
    assert anti.lhs > 0.0 and anti.witness["pair"] == (x, y)
    c = report.check("cancellation_0")
    assert c.witness["path"] == "computed"
    assert c.witness["balls"] == w["balls"]
    assert c.witness["residual"] == want != 0.0 and c.lhs == abs(want)
    assert c.witness["scale"] > 0.0


def test_a_rejected_radius_fails_its_check_without_raising(monkeypatch):
    real = suite.is_good_radius
    monkeypatch.setattr(suite, "is_good_radius", lambda v, t, params: replace(
        real(v, t, params), ok=False))
    report = run_convergence_suite(small_config())
    assert not report.all_ok
    radii = [c for c in report.checks
             if c.name.startswith("good_radius_center_")]
    assert len(radii) == 3 and not any(c.ok for c in radii)
    assert all(c.ok for c in report.checks if c not in radii)


def test_a_shell_over_its_bound_fails_its_ball(monkeypatch):
    real = suite.shell_mass_check

    def last_shell_fails(mu_z, r, cert):
        rep = real(mu_z, r, cert)
        return replace(rep, checks=(*rep.checks[:-1],
                                    replace(rep.checks[-1], ok=False)))
    monkeypatch.setattr(suite, "shell_mass_check", last_shell_fails)
    report = run_convergence_suite(small_config())
    assert [c.name for c in report.checks if not c.ok] \
        == [f"good_radius_center_{b.center}" for b in report.balls]
    shells = [s["ok"] for b in report_to_json(report)["balls"]
              for s in b["shells"]]
    assert shells == [True, False] * 3  # depth 2: two shells per ball


def test_each_full_kernel_row_is_requested_once(monkeypatch):
    rows_seen = []

    def counting(real):
        def rows_of(k, cloud, rows, cols=None, **swap):
            if cols is None and cloud.n_points == 256:
                rows_seen.extend(np.asarray(rows).tolist())
            return real(k, cloud, rows, cols, **swap)
        return rows_of
    # the engine's evaluator, and the kernel alone, each count a row
    for name in ("pair_rows", "kernel_rows"):
        monkeypatch.setattr(kernels, name, counting(getattr(kernels, name)))
    report = run_convergence_suite(small_config(
        generator=GeneratorSpec(family="four_corner_cantor", level=4),
        eps_count=3, levels_back=2))
    assert report.all_ok and len(report.boundedness) == 3
    # the trend's lower levels walk clouds of 64 and 16 atoms, not counted
    assert sorted(rows_seen) == list(range(256))


def test_suite_smoke_all_checks_pass():
    report = run_convergence_suite(small_config())
    assert report.all_ok
    assert report.n_atoms == 64
    assert report.check("kernel_size_bound_finite").lhs <= 1.0
    assert len(report.trace.values) == 6
    summary = report_to_json(report)
    assert len(summary["cancellation"]) == 2
    assert all(c["ok"] for c in summary["cancellation"])
    assert summary["antisymmetry_ok"] and summary["annuli_ok"]
    assert summary["log_boundary"]["ok"]
    assert all(s["ok"] for b in summary["balls"] for s in b["shells"])
    assert len(report.boundedness) == 2  # levels 2 and 3


def test_each_center_is_pushed_forward_once(monkeypatch):
    calls = []
    real = measure.radial_pushforward

    def counting(m, z):
        calls.append(z)
        return real(m, z)
    for mod in (suite, operator):
        if hasattr(mod, "radial_pushforward"):
            monkeypatch.setattr(mod, "radial_pushforward", counting)
    report = run_convergence_suite(small_config())
    # one per ball (shell masses and the log bound reuse it), one per
    # level of the boundedness trend
    assert len(calls) == len(report.balls) + len(report.boundedness) == 5
    assert calls[:3] == [b.center for b in report.balls]


def test_emit_report_files(tmp_path):
    report = run_convergence_suite(small_config())
    written = emit_report(report, str(tmp_path))
    csv_path, json_path = written
    lines = open(csv_path).read().splitlines()
    assert lines[0] == "epsilon,pairing,cauchy_diff,four_term_bound"
    assert len(lines) == 1 + 6
    assert lines[-1].endswith(",,")  # no consecutive pair after the last eps
    summary = json.load(open(json_path))
    assert summary["all_ok"] is True
    assert os.path.exists(os.path.join(str(tmp_path), "run_meta.json"))


def test_the_summary_holds_one_s_and_reads_constants_off_the_checks(
        tmp_path):
    """config.kernel holds no s of its own: the run's s is config.s. c_mu,
    c_certified and their witnesses are the two constant checks' lhs and
    witness."""
    report = run_convergence_suite(small_config(s=1.5))
    _, json_path = emit_report(report, str(tmp_path))
    summary = json.load(open(json_path))
    assert summary["config"]["s"] == 1.5
    assert summary["config"]["kernel"] == {
        "family": "coordinate_riesz", "i": 1, "n": 1, "base": "0.0",
        "antisymmetrize": True}
    growth = report.check("growth_constant_finite")
    size = report.check("kernel_size_bound_finite")
    assert (summary["c_mu"], summary["growth_witness"]) \
        == (growth.lhs, list(growth.witness))
    assert (summary["c_certified"], summary["kernel_witness"]) \
        == (size.lhs, list(size.witness))


def test_emit_byte_stable_across_runs(tmp_path):
    cfg = small_config()
    paths = []
    for run in ("a", "b"):
        report = run_convergence_suite(cfg)
        out = tmp_path / run
        emit_report(report, str(out))
        paths.append(out)
    for name in ("trace.csv", "summary.json"):
        assert (paths[0] / name).read_bytes() == (paths[1] / name).read_bytes()


def test_workers_do_not_change_outputs(tmp_path):
    rep1 = run_convergence_suite(small_config(workers=1))
    rep8 = run_convergence_suite(small_config(workers=8))
    emit_report(rep1, str(tmp_path / "w1"))
    emit_report(rep8, str(tmp_path / "w8"))
    for name in ("trace.csv", "summary.json"):
        assert (tmp_path / "w1" / name).read_bytes() \
            == (tmp_path / "w8" / name).read_bytes()


def test_tile_heights_and_workers_do_not_change_outputs(tmp_path,
                                                      monkeypatch):
    """Tiles of 3, 40 and 256 rows per thread (one tile of the level-4
    cloud at 1 thread, and tiles cut mid-block) at 1, 2 and 3 threads:
    the same bytes as the default walk."""
    def emitted(name, **kw):
        emit_report(run_convergence_suite(small_config(
            generator=GeneratorSpec(family="four_corner_cantor", level=4),
            eps_count=12, **kw)), str(tmp_path / name))
        return [(tmp_path / name / f).read_bytes()
                for f in ("trace.csv", "summary.json")]
    want = emitted("default")
    for rows in (3, 40, 256):
        monkeypatch.setattr(metric, "_TILE_PAIRS", rows * 256)
        for workers in (1, 2, 3):
            assert emitted(f"r{rows}w{workers}", workers=workers) == want


@pytest.mark.parametrize("kernel", [RIESZ, GENERIC], ids=["riesz", "generic"])
def test_run_generates_each_level_once_and_builds_no_matrix(kernel,
                                                            monkeypatch):
    levels, matrices = [], []
    real_generate, real_matrix = suite.generate, kernels.kernel_matrix

    def counting_generate(spec):
        levels.append(spec.level)
        return real_generate(spec)

    def counting_matrix(k, cloud):
        matrices.append(cloud.n_points)
        return real_matrix(k, cloud)
    monkeypatch.setattr(suite, "generate", counting_generate)
    monkeypatch.setattr(kernels, "kernel_matrix", counting_matrix)
    config = small_config(
        generator=GeneratorSpec(family="four_corner_cantor", level=4),
        kernel=kernel, depth=3, n_balls=5, eps_count=4, n_cancellation=4,
        levels_back=2)
    report = run_convergence_suite(config)
    assert report.all_ok
    assert sorted(levels) == [2, 3, 4]  # levels_back + 1 calls
    assert matrices == []
