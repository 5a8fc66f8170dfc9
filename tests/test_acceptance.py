"""Acceptance gate: one test per criterion, pinned tolerances.

Criteria (summary):
 1. good-set suite, 100 random step measures x lambda {5,8,16}, depth 3:
    exact measure bound, all midpoints certified, non-concentration; <= 60 s
 2. point mass at 1/2, lambda 5, depth 1: total length exactly 72/125,
    independent 1e6-point grid oracle agrees within 2e-6
 3. cancellation residuals on level 4, 20 ball pairs x 20 bands; <= 10 s
 4. four-term pairing-difference bound, 50 random simple-function pairs
 5. stabilization oracle vs brute-force double sum, 20 instances, 1e-13 rel
 6. exact shell-mass bounds for every certified radius in the m=4 suite
 7. annuli log bound on level 5 for every interior atom; log-boundary sum
    finite and below its shell bound; <= 60 s
 8. boundary-integral trend across levels 3..6: consecutive ratio <= 2
    (bad-radius contrast reported, not asserted)
 9. byte-identical m=4 suite outputs across runs and 1 vs 8 workers
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import dense_distances
from sio_lab.generators import GeneratorSpec, generate
from sio_lab.good_radii import (GoodSetParams, is_good_radius,
                                materialize_good_set,
                                select_good_radius_near, verify_good_set)
from sio_lab.kernels import KernelSpec, check_size_bound, kernel_matrix
from sio_lab.measure import (growth_constant, interval_mass, make_step_measure,
                             normalize, radial_pushforward)
from sio_lab.operator import (Ball, SimpleFunction, annuli_log_bound_check,
                              cancellation_residual, log_boundary_sum,
                              pairing, pairing_difference_bound,
                              total_boundary_integral)
from sio_lab.suite import SuiteConfig, emit_report, run_convergence_suite

RIESZ = KernelSpec(family="coordinate_riesz", i=1, n=1)


def _random_step_measure(rng: np.random.Generator):
    n = int(rng.integers(1, 65))
    positions = [Fraction(int(rng.integers(0, 10 ** 6)), 10 ** 6)
                 for _ in range(n)]
    numerators = rng.integers(1, 10 ** 6, size=n)
    denom = int(numerators.sum()) + int(rng.integers(0, 10 ** 6))
    masses = [Fraction(int(q), denom) for q in numerators]
    return make_step_measure(zip(positions, masses))


def _normalized_four_corner(level):
    _cloud, m, r_min = generate(GeneratorSpec(family="four_corner_cantor",
                                              level=level))
    m, _ = normalize(m)
    return m, r_min


def test_criterion_1_good_set_suite():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    measures = [_random_step_measure(rng) for _ in range(100)]
    for lam in (5, 8, 16):
        params = GoodSetParams(lam=lam, depth=3, budget=2 * 10 ** 7)
        for i, v in enumerate(measures):
            iset = materialize_good_set(v, params)
            # (a) exact rational comparison of the guaranteed truncated bound
            assert iset.total_length >= params.length * params.lower_bound
            # (b) every interval midpoint is a certified good radius and
            # (c) satisfies the non-concentration windows: the exact
            # factorized whole-set verification plus scalar spot checks
            rep = verify_good_set(v, params, iset,
                                  rng=np.random.default_rng(i))
            assert rep.midpoints_ok, (lam, i)
            assert rep.light_cells_ok, (lam, i)
            assert rep.non_concentration_ok, (lam, i)
            # (c) additionally by direct interval queries on a sample
            for k in range(0, iset.n_intervals,
                           max(1, iset.n_intervals // 4)):
                t = iset.midpoint(k)
                assert is_good_radius(v, t, params).ok
                for n in range(1, 4):
                    w = params.shell_half_width(n)
                    assert interval_mass(v, t - w, t + w) \
                        < Fraction(1, lam ** n)
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_2_hand_checked_value():
    v = make_step_measure([(Fraction(1, 2), Fraction(1))])
    params = GoodSetParams(lam=5, depth=1)
    iset = materialize_good_set(v, params)
    assert iset.total_length == Fraction(72, 125)

    # independent oracle: brute-force membership on a 1e6-point grid,
    # written directly from the construction (no IntervalSet involved)
    t = (np.arange(10 ** 6) + 0.5) / 10 ** 6
    frac = (t * 25.0) % 1.0
    clear_of_gridlines = (frac >= 0.2) & (frac <= 0.8)  # 1/125 of 1/25
    outside_heavy = (t <= 0.48 - 1.0 / 125.0) | (t >= 0.52 + 1.0 / 125.0)
    measured = np.count_nonzero(clear_of_gridlines & outside_heavy) / 10 ** 6
    assert abs(measured - 72.0 / 125.0) <= 2e-6


def test_criterion_3_cancellation():
    start = time.monotonic()
    m, _ = _normalized_four_corner(4)
    rng = np.random.default_rng(3)
    balls = [(Ball(int(rng.integers(0, 256)),
                   float(0.1 + 0.8 * rng.random())),
              Ball(int(rng.integers(0, 256)),
                   float(0.1 + 0.8 * rng.random()))) for _ in range(20)]
    bands = []
    while len(bands) < 20:
        lo, hi = sorted(rng.random(2) * 1.4)
        if lo > 0.0 and lo < hi:
            bands.append((float(lo), float(hi)))
    for b1, b2 in balls:
        for delta, eps in bands:
            resid, scale = cancellation_residual(RIESZ, m, b1, b2, delta, eps)
            assert abs(resid) <= 1e-13 * max(scale, 1e-300)
    elapsed = time.monotonic() - start
    assert elapsed <= 10.0, f"criterion 3 took {elapsed:.1f}s"


def test_criterion_4_four_term_bound():
    m, _ = _normalized_four_corner(4)
    rng = np.random.default_rng(4)
    for _ in range(50):
        def rand_fn():
            return SimpleFunction(terms=tuple(
                (float(rng.normal()),
                 Ball(int(rng.integers(0, 256)),
                      float(0.1 + 0.8 * rng.random())))
                for _ in range(int(rng.integers(1, 5)))))
        delta = float(0.01 + 0.3 * rng.random())
        eps = delta + float(0.05 + 0.8 * rng.random())
        rep = pairing_difference_bound(RIESZ, m, rand_fn(), rand_fn(),
                                       delta, eps)
        assert rep.lhs <= rep.rhs + 1e-12 * rep.witness["scale"]


def test_criterion_5_stabilization_oracle():
    m, _ = _normalized_four_corner(4)
    dmat = dense_distances(m.cloud)
    eps = float(dmat[dmat > 0].min()) / 2.0
    km = kernel_matrix(RIESZ, m.cloud)
    w = m.weights
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = SimpleFunction(terms=((float(rng.normal()),
                                   Ball(int(rng.integers(0, 256)),
                                        float(0.1 + 0.8 * rng.random()))),))
        g = SimpleFunction(terms=((float(rng.normal()),
                                   Ball(int(rng.integers(0, 256)),
                                        float(0.1 + 0.8 * rng.random()))),))
        fv = f.values(m.cloud)
        gv = g.values(m.cloud)
        oracle = float(((km * (fv * w)[None, :]).sum(axis=1) * gv * w).sum())
        got = pairing(RIESZ, m, f, g, eps)
        assert got == pytest.approx(oracle, rel=1e-13, abs=1e-15)


def test_criterion_6_shell_masses_in_m4_suite():
    cfg = SuiteConfig(
        generator=GeneratorSpec(family="four_corner_cantor", level=4),
        kernel=RIESZ, s=1.0, lam=5, depth=3, n_balls=5, seed=0)
    report = run_convergence_suite(cfg)
    assert report.balls  # at least one certified radius in play
    for rec in report.balls:
        for shell in rec.shells:  # exact masses and thresholds
            assert shell.ok and shell.lhs <= shell.rhs


def test_criterion_7_annuli_and_log_chain():
    start = time.monotonic()
    m, r_min = _normalized_four_corner(5)
    assert m.n_atoms == 1024
    c_mu, _ = growth_constant(m, 1.0, r_min)
    c_cert, _ = check_size_bound(RIESZ, m.cloud, 1.0)
    mu_z = radial_pushforward(m, 0)
    params = GoodSetParams(lam=5, depth=3)
    r = select_good_radius_near(mu_z, Fraction(2, 5), params)
    assert is_good_radius(mu_z, r, params).ok
    ball = Ball(0, float(r))
    records, _ = annuli_log_bound_check(RIESZ, m, ball, 1.0, c_cert, c_mu)
    assert records and all(rec.ok for rec in records)
    lb = log_boundary_sum(m, ball, lam=5, mu_z=mu_z)
    assert np.isfinite(lb.lhs) and lb.lhs <= lb.rhs
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, f"criterion 7 took {elapsed:.1f}s"


def test_criterion_8_boundedness_trend():
    params = GoodSetParams(lam=5, depth=3)
    target = Fraction(2, 5)
    values = []
    contrast = []
    for level in (3, 4, 5, 6):
        m, _ = _normalized_four_corner(level)
        mu_z = radial_pushforward(m, 0)
        r = select_good_radius_near(mu_z, target, params)
        assert is_good_radius(mu_z, r, params).ok
        values.append(total_boundary_integral(RIESZ, m, Ball(0, float(r))))
        # uncertified contrast radius: the heaviest pushforward distance
        bad, _ = max(((p, w) for p, w in zip(mu_z.positions, mu_z.masses)
                      if 0 < p < 1), key=lambda pw: pw[1])
        assert not is_good_radius(mu_z, bad, params).ok
        contrast.append(total_boundary_integral(RIESZ, m,
                                                Ball(0, float(bad))))
    for a, b in zip(values, values[1:]):
        ratio = b / a
        assert 0.5 <= ratio <= 2.0, values
    # the bad-radius values are reported for qualitative contrast only
    print("good-radius integrals:", values)
    print("bad-radius integrals: ", contrast)


def test_criterion_9_determinism(tmp_path):
    def run(workers, tag):
        cfg = SuiteConfig(
            generator=GeneratorSpec(family="four_corner_cantor", level=4),
            kernel=RIESZ, s=1.0, lam=5, depth=3, n_balls=5, seed=0,
            workers=workers)
        out = tmp_path / tag
        emit_report(run_convergence_suite(cfg), str(out))
        return out

    a = run(1, "run1")
    b = run(1, "run2")
    c = run(8, "run8")
    for name in ("trace.csv", "summary.json"):
        ref = (a / name).read_bytes()
        assert (b / name).read_bytes() == ref
        assert (c / name).read_bytes() == ref
    assert json.loads((a / "summary.json").read_text())["all_ok"] is True
