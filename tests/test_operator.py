import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_antisymmetry, dense_distances, dense_kernel
from sio_lab import kernels
from sio_lab import metric as metric_module
from sio_lab import operator as operator_module
from sio_lab.errors import InputError
from sio_lab.generators import GeneratorSpec, generate
from sio_lab.good_radii import GoodSetParams, is_good_radius, select_good_radius_near
from sio_lab.kernels import KernelSpec
from sio_lab.measure import (DiscreteMeasure, growth_constant,
                             make_measure, normalize, radial_pushforward)
from sio_lab.metric import MetricDescriptor, make_cloud
from sio_lab.operator import (Ball, SimpleFunction,
                              annuli_log_bound_check, boundary_term,
                              cancellation_bound, cancellation_residual,
                              compute_pairing_trace, log_boundary_sum,
                              pairing, pairing_difference_bound,
                              shell_mass_check, simple_function_from_json,
                              total_boundary_integral)
from sio_lab.sums import fold_rows, pairwise_sum

E2 = MetricDescriptor(family="euclidean_p", dimension=2, p=2.0)
L1 = MetricDescriptor(family="euclidean_p", dimension=2, p=1.0)
SNOW = MetricDescriptor(family="snowflake", dimension=2, p=2.0, alpha=0.5)
RIESZ = KernelSpec(family="coordinate_riesz", i=1, n=1)
GENERIC = KernelSpec(family="generic_antisymmetrized",
                     base="x[..., 0] * (x[..., 1] + 2.0 * y[..., 0]) / d ** 1.5")
# symmetric and positive: breaks the four-term bound on purpose
SYMMETRIC = KernelSpec(family="generic_antisymmetrized",
                       base="d ** -1.0", antisymmetrize=False)


def two_atom_measure():
    cloud = make_cloud([[0.0, 0.0], [1.0, 0.0]], E2)
    return make_measure(cloud, [0.5, 0.5])


def four_corner(level):
    _cloud, m, r_min = generate(GeneratorSpec(family="four_corner_cantor",
                                              level=level))
    m, _ = normalize(m)
    return m, r_min


def test_pairing_examples():
    m = two_atom_measure()
    one = SimpleFunction(terms=((1.0, Ball(center=0, radius=1.0)),))
    assert pairing(RIESZ, m, one, one, 0.5) == 0.0  # antisymmetry
    f = SimpleFunction(terms=((1.0, Ball(center=0, radius=0.5)),))
    g = SimpleFunction(terms=((1.0, Ball(center=1, radius=0.5)),))
    assert pairing(RIESZ, m, f, g, 0.5) == 0.25  # k(b,a) * 1/2 * 1/2
    assert pairing(RIESZ, m, f, g, 1.0) == 0.0   # strict truncation: d == eps
    assert pairing(RIESZ, m, f, g, 1.5) == 0.0   # eps beyond diameter


def test_boundary_term_examples():
    m = two_atom_measure()
    b = Ball(center=0, radius=0.5)
    assert boundary_term(RIESZ, m, b, 0.5, 1.5) == 0.25
    assert boundary_term(RIESZ, m, b, 1.1, 1.5) == 0.0
    whole = Ball(center=0, radius=1.0)
    assert boundary_term(RIESZ, m, whole, 0.5, 1.5) == 0.0
    with pytest.raises(InputError):
        boundary_term(RIESZ, m, b, 0.5, 0.5)


def test_boundary_term_monotone():
    m, _ = four_corner(3)
    b = Ball(center=0, radius=0.4)
    vals_eps = [boundary_term(RIESZ, m, b, 0.01, e)
                for e in (0.1, 0.3, 0.7, 1.5)]
    assert all(a <= x for a, x in zip(vals_eps, vals_eps[1:]))
    vals_delta = [boundary_term(RIESZ, m, b, d, 1.5)
                  for d in (0.01, 0.1, 0.3)]
    assert all(a >= x for a, x in zip(vals_delta, vals_delta[1:]))


def test_total_boundary_integral():
    m = two_atom_measure()
    assert total_boundary_integral(RIESZ, m, Ball(0, 0.5)) == 0.25
    assert total_boundary_integral(RIESZ, m, Ball(0, 1.0)) == 0.0


def test_cancellation_exact():
    m = two_atom_measure()
    whole = Ball(center=0, radius=1.0)
    resid, _ = cancellation_residual(RIESZ, m, whole, whole, 0.5, 1.5)
    assert resid == 0.0
    disjoint = Ball(center=1, radius=0.1)
    resid, scale = cancellation_residual(RIESZ, m, Ball(0, 0.1), disjoint,
                                         0.5, 1.5)
    assert resid == 0.0 and scale == 0.0


def test_cancellation_four_corner():
    m, _ = four_corner(4)
    rng = np.random.default_rng(0)
    for _ in range(5):
        b1 = Ball(int(rng.integers(0, 256)), float(0.2 + 0.6 * rng.random()))
        b2 = Ball(int(rng.integers(0, 256)), float(0.2 + 0.6 * rng.random()))
        lo = float(0.01 + 0.3 * rng.random())
        hi = lo + float(0.1 + 0.5 * rng.random())
        resid, scale = cancellation_residual(RIESZ, m, b1, b2, lo, hi)
        assert abs(resid) <= 1e-13 * max(scale, 1e-300)


def test_pairing_bilinear():
    m, _ = four_corner(3)
    b1, b2, b3 = Ball(0, 0.3), Ball(7, 0.5), Ball(20, 0.7)
    f1, f2, g = (SimpleFunction(terms=((1.0, b),)) for b in (b1, b2, b3))
    comb = SimpleFunction(terms=((2.0, b1), (-3.0, b2)))
    eps = 0.17
    lhs = pairing(RIESZ, m, comb, g, eps)
    rhs = 2.0 * pairing(RIESZ, m, f1, g, eps) \
        - 3.0 * pairing(RIESZ, m, f2, g, eps)
    assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-16)


def test_pairing_skew_symmetric():
    m, _ = four_corner(3)
    f = SimpleFunction(terms=((1.5, Ball(3, 0.4)), (-0.5, Ball(9, 0.6))))
    g = SimpleFunction(terms=((0.7, Ball(30, 0.5)),))
    for eps in (0.05, 0.2, 0.6):
        a = pairing(RIESZ, m, f, g, eps)
        b = pairing(RIESZ, m, g, f, eps)
        scale = max(abs(a), abs(b), 1e-300)
        assert abs(a + b) <= 1e-13 * scale


def test_stabilization_oracle():
    m, r_min = four_corner(3)
    rng = np.random.default_rng(4)
    dmat = dense_distances(m.cloud)
    min_pos = float(dmat[dmat > 0].min())
    eps = min_pos / 2.0
    km = dense_kernel(RIESZ, m.cloud)
    for _ in range(5):
        f = SimpleFunction(terms=((float(rng.normal()),
                                   Ball(int(rng.integers(0, 64)),
                                        float(0.2 + 0.6 * rng.random()))),))
        g = SimpleFunction(terms=((float(rng.normal()),
                                   Ball(int(rng.integers(0, 64)),
                                        float(0.2 + 0.6 * rng.random()))),))
        fv = f.values(m.cloud)
        gv = g.values(m.cloud)
        # independent brute-force double loop over all off-diagonal pairs
        oracle = 0.0
        for x in range(64):
            for y in range(64):
                if x != y:
                    oracle += km[x, y] * fv[y] * m.weights[y] \
                        * gv[x] * m.weights[x]
        got = pairing(RIESZ, m, f, g, eps)
        assert got == pytest.approx(oracle, rel=1e-13, abs=1e-15)


def test_pairing_difference_bound_trivial_cases():
    m = two_atom_measure()
    one = SimpleFunction(terms=((1.0, Ball(center=0, radius=1.0)),))
    rep = pairing_difference_bound(RIESZ, m, one, one, 0.5, 1.5)
    assert rep.lhs == 0.0 and rep.ok
    assert rep.rhs == 0.0  # complement of the full ball is empty


def test_pairing_difference_bound_random():
    m, _ = four_corner(4)
    rng = np.random.default_rng(9)
    for _ in range(5):
        terms_f = tuple((float(rng.normal()),
                         Ball(int(rng.integers(0, 256)),
                              float(0.2 + 0.6 * rng.random())))
                        for _ in range(int(rng.integers(1, 4))))
        terms_g = tuple((float(rng.normal()),
                         Ball(int(rng.integers(0, 256)),
                              float(0.2 + 0.6 * rng.random())))
                        for _ in range(int(rng.integers(1, 4))))
        delta = float(0.01 + 0.2 * rng.random())
        eps = delta + float(0.1 + 0.6 * rng.random())
        rep = pairing_difference_bound(RIESZ, m, SimpleFunction(terms_f),
                                       SimpleFunction(terms_g), delta, eps)
        assert rep.ok and rep.lhs <= rep.rhs + 1e-12 * rep.witness["scale"]


def test_annuli_log_bound_four_corner():
    m, r_min = four_corner(4)
    mu_z = radial_pushforward(m, 0)
    params = GoodSetParams(lam=5, depth=3)
    r = select_good_radius_near(mu_z, Fraction(2, 5), params)
    records, on_sphere = annuli_log_bound_check(RIESZ, m, Ball(0, float(r)),
                                                1.0, 1.0, 4.0)
    assert records and all(rec.ok for rec in records)
    assert on_sphere == []  # certified radii avoid atom distances


def test_shell_mass_check():
    m, _ = four_corner(4)
    mu_z = radial_pushforward(m, 0)
    params = GoodSetParams(lam=5, depth=3)
    r = select_good_radius_near(mu_z, Fraction(2, 5), params)
    cert = is_good_radius(mu_z, r, params)
    report = shell_mass_check(mu_z, r, cert)
    assert [c.name for c in report.checks] \
        == ["shell_mass_1", "shell_mass_2", "shell_mass_3"]
    for c in report.checks:
        assert c.ok and c.lhs <= c.rhs
    with pytest.raises(InputError):
        shell_mass_check(mu_z, Fraction(1, 7), cert)


@pytest.mark.parametrize("grid", [[0.5, math.nan], [math.nan], [math.inf, 0.5],
                                  [0.5, -math.inf], [0.5, 0.0], [0.25, 0.5],
                                  []])
def test_eps_grid_must_be_finite_positive_and_decreasing(grid):
    m = two_atom_measure()
    f = SimpleFunction(terms=((1.0, Ball(0, 1.0)),))
    with pytest.raises(InputError, match="eps grid must be finite"):
        compute_pairing_trace(RIESZ, m, f, f, grid)


@pytest.mark.parametrize("grid, bad", [
    ([math.nan], "entry 0 = nan"), ([math.inf, 0.5], "entry 0 = inf"),
    ([0.5, -math.inf], "entry 1 = -inf after 0.5"),
    ([0.25, 0.5], "entry 1 = 0.5 after 0.25"),
    ([0.5, 0.25, 0.25, 0.0], "entry 2 = 0.25 after 0.25"),
    ([], "an empty grid")],
    ids=["nan", "inf", "minus-inf", "increasing", "repeated", "empty"])
def test_a_bad_eps_grid_names_its_first_bad_entry(grid, bad):
    with pytest.raises(InputError) as exc:
        operator_module._check_grid(grid)
    assert str(exc.value) == ("eps grid must be finite, positive and "
                              f"strictly decreasing, got {bad}")


def test_pairing_rejects_a_nan_eps():
    m = two_atom_measure()
    f = SimpleFunction(terms=((1.0, Ball(0, 1.0)),))
    with pytest.raises(InputError):
        pairing(RIESZ, m, f, f, math.nan)


@pytest.mark.parametrize("eps", [math.inf, 0.0, -1.0])
def test_pairing_takes_the_trace_grid_check(eps):
    """pairing is trace_pass over the grid [eps]: an infinite eps, formerly
    a pairing of 0.0, is refused as any trace grid holding it is."""
    m = two_atom_measure()
    f = SimpleFunction(terms=((1.0, Ball(0, 1.0)),))
    with pytest.raises(InputError, match="eps grid must be finite"):
        pairing(RIESZ, m, f, f, eps)


@pytest.mark.parametrize("delta, eps", [(0.5, math.inf), (0.0, 0.5),
                                        (0.5, 0.5), (math.nan, 0.5)])
def test_pairing_difference_bound_takes_the_trace_grid_check(delta, eps):
    m = two_atom_measure()
    f = SimpleFunction(terms=((1.0, Ball(0, 1.0)),))
    with pytest.raises(InputError, match="eps grid must be finite"):
        pairing_difference_bound(RIESZ, m, f, f, delta, eps)


def test_log_boundary_sum_single_atom():
    cloud = make_cloud([[0.0, 0.0], [0.5, 0.0]], E2)
    m = make_measure(cloud, [0.5, 0.5])
    # interior atoms of B(0, r): the center (gap r) and the one at 0.5
    r = 0.5 + 1.0 / math.e
    report = log_boundary_sum(m, Ball(0, r), lam=5,
                              mu_z=radial_pushforward(m, 0))
    # second atom's gap is exactly 1/e: contributes w * 1
    assert report.lhs == pytest.approx(
        0.5 * abs(math.log(r)) + 0.5 * 1.0, rel=1e-12)
    assert report.ok


def test_log_boundary_bound_four_corner():
    m, _ = four_corner(4)
    mu_z = radial_pushforward(m, 0)
    params = GoodSetParams(lam=5, depth=3)
    r = select_good_radius_near(mu_z, Fraction(1, 2), params)
    report = log_boundary_sum(m, Ball(0, float(r)), lam=5, mu_z=mu_z)
    assert math.isfinite(report.lhs)
    assert report.lhs <= report.rhs


def test_compute_pairing_trace_bounds_hold():
    m, _ = four_corner(3)
    f = SimpleFunction(terms=((1.0, Ball(0, 0.4)),))
    g = SimpleFunction(terms=((1.0, Ball(63, 0.3)),))
    grid = tuple(0.5 * 0.5 ** j for j in range(6))
    trace = compute_pairing_trace(RIESZ, m, f, g, grid)
    assert len(trace.values) == 6
    for d, b in zip(trace.cauchy_diffs, trace.bound_values):
        assert d <= b


def test_simple_function_json_roundtrip():
    f = SimpleFunction(terms=((1.5, Ball(3, 0.25)), (-2.0, Ball(0, 0.75))))
    back = simple_function_from_json({"terms": [
        {"coeff": 1.5, "center": 3, "radius": 0.25},
        {"coeff": -2.0, "center": 0, "radius": 0.75}]})
    assert back == f


def test_pairing_difference_bound_violation_returns_its_witness():
    m = two_atom_measure()
    one = SimpleFunction(terms=((1.0, Ball(center=0, radius=1.0)),))
    check = pairing_difference_bound(SYMMETRIC, m, one, one, 0.5, 1.5)
    assert not check.ok and check.name == "cauchy_bound_step_0"
    assert (check.lhs, check.rhs) == (0.5, 0.0)
    assert check.witness == {"step": 0, "delta": 0.5, "eps": 1.5,
                             "scale": 0.5}
    trace = compute_pairing_trace(SYMMETRIC, m, one, one, (1.5, 0.5))
    assert trace.checks == (check,)


def test_a_trace_step_above_its_bound_plus_tol_fails():
    # the pair at distance 1 lies in step 0's band (0.5, 1.5]: lhs 0.5
    # against a bound of 0 and a tol of 1e-12 * 0.5; step 1's band is empty
    m = two_atom_measure()
    one = SimpleFunction(terms=((1.0, Ball(center=0, radius=1.0)),))
    trace = compute_pairing_trace(SYMMETRIC, m, one, one, (1.5, 0.5, 0.25))
    first, second = trace.checks
    assert first.lhs > first.rhs + 1e-12 * first.witness["scale"]
    assert not first.ok
    assert (second.lhs, second.rhs, second.witness["scale"]) \
        == (0.0, 0.0, 0.0) and second.ok
    assert trace.bound_values == (0.0, 0.0)  # the bound itself, unpadded


# ---------------------------------------------------------------------------
# the tiled pair engine against a dense oracle


def lattice_measure(metric, seed):
    """12 x 13 integer lattice: many pairs share each exact distance."""
    coords = np.array([(i, j) for i in range(12) for j in range(13)], float)
    cloud = make_cloud(coords, metric)
    return make_measure(cloud, np.random.default_rng(seed).random(156))


def dense_oracle(k, m, f, g, grid):
    """Pairings and (lhs, rhs, scale) per step, one eps and one band at a
    time, from the whole dense_kernel and dense_distances."""
    km, d, w = dense_kernel(k, m.cloud), dense_distances(m.cloud), m.weights
    fv, gv = f.values(m.cloud), g.values(m.cloud)
    values = [pairwise_sum(fold_rows(np.where(d > e, km * (fv * w)[None, :],
                                              0.0)) * gv * w) for e in grid]

    def boundary(ball, delta, eps):
        inside = ball.members(m.cloud)
        rows = np.nonzero(inside)[0]
        if rows.size in (0, m.n_atoms):
            return 0.0
        mask = ~inside[None, :] & (d[rows] > delta) & (d[rows] <= eps)
        terms = np.where(mask, np.abs(km[rows]) * w[None, :], 0.0)
        return pairwise_sum(fold_rows(terms) * w[rows])

    steps = []
    for j, (eps, delta) in enumerate(zip(grid, grid[1:])):
        rhs = 0.0
        for a_i, b_i in f.terms:
            for b_j, s_j in g.terms:
                rhs += abs(a_i * b_j) * (boundary(b_i, delta, eps)
                                         + 2.0 * boundary(s_j, delta, eps))
        terms = np.where((d > delta) & (d <= eps),
                         np.abs(km) * (np.abs(fv) * w)[None, :], 0.0)
        scale = pairwise_sum(fold_rows(terms) * np.abs(gv) * w)
        steps.append((abs(values[j] - values[j + 1]), rhs, scale))
    return values, steps, boundary


def bits(xs):
    return [float(x).hex() for x in xs]


@pytest.mark.parametrize("kernel,metric", [(RIESZ, E2), (RIESZ, L1),
                                           (RIESZ, SNOW), (GENERIC, E2)])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_engine_matches_dense_oracle(kernel, metric, workers, monkeypatch):
    # 7-row tiles: 156 atoms are 22 full tiles and one of 2 rows
    monkeypatch.setattr(metric_module, "_TILE_PAIRS", 7 * 156)
    m = lattice_measure(metric, seed=workers)
    dist = np.unique(dense_distances(m.cloud))
    n = dist.size
    rng = np.random.default_rng(7)

    def simple(n_terms):
        return SimpleFunction(terms=tuple(
            (float(rng.normal()), Ball(int(rng.integers(0, 156)),
                                       float(dist[rng.integers(2, n // 2)])))
            for _ in range(n_terms)))
    f, g = simple(2), simple(3)
    # every eps, delta and radius is an exact pair distance
    grid = [float(x) for x in dist[[2 * n // 3, n // 2, n // 4, 3, 1]]]
    values, steps, boundary = dense_oracle(kernel, m, f, g, grid)

    assert bits(pairing(kernel, m, f, g, e, workers=workers)
                for e in grid) == bits(values)
    trace = compute_pairing_trace(kernel, m, f, g, grid, workers=workers)
    assert bits(trace.values) == bits(values)
    assert bits(trace.cauchy_diffs) == bits(lhs for lhs, _, _ in steps)
    assert bits(trace.bound_values) == bits(rhs for _, rhs, _ in steps)
    assert bits(c.witness["scale"] for c in trace.checks) \
        == bits(scale for _, _, scale in steps)
    ball = f.terms[0][1]
    assert bits([boundary_term(kernel, m, ball, grid[2], grid[0])]) \
        == bits([boundary(ball, grid[2], grid[0])])
    assert bits([total_boundary_integral(kernel, m, ball)]) \
        == bits([boundary(ball, 0.0, math.inf)])

    # ten steps from the diameter down over ten exact pair distances and
    # one midpoint: the step from the midpoint down to dist[3] holds no pair
    grid = [float(x) for x in dist[[n - 1, 5 * n // 6, 2 * n // 3, n // 2,
                                    n // 3, n // 4, 4]]]
    grid += [float(dist[3] + dist[4]) / 2.0] + [float(x) for x in dist[3:0:-1]]
    values, steps, _ = dense_oracle(kernel, m, f, g, grid)
    trace = compute_pairing_trace(kernel, m, f, g, grid, workers=workers)
    assert bits(trace.values) == bits(values)
    assert bits(trace.cauchy_diffs) == bits(lhs for lhs, _, _ in steps)
    assert bits(trace.bound_values) == bits(rhs for _, rhs, _ in steps)
    assert bits(c.witness["scale"] for c in trace.checks) \
        == bits(scale for _, _, scale in steps)


def test_four_term_bands_are_closed_at_eps():
    """T_eps truncates strictly, so the pairing difference at (delta, eps)
    runs over delta < d <= eps: here over the two corner atoms at the L1
    diameter 23, which the boundary bands must count."""
    m = lattice_measure(L1, seed=0)
    f = SimpleFunction(terms=((1.0, Ball(0, 5.0)),))
    g = SimpleFunction(terms=((1.0, Ball(155, 5.0)),))
    trace = compute_pairing_trace(RIESZ, m, f, g, (23.0, 22.0))
    assert 0.0 < trace.cauchy_diffs[0] <= trace.bound_values[0]
    assert boundary_term(RIESZ, m, Ball(0, 5.0), 22.0, 23.0) > 0.0


@pytest.mark.parametrize("kernel", [RIESZ, GENERIC])
def test_trace_evaluates_each_pair_once(kernel, monkeypatch):
    monkeypatch.setattr(metric_module, "_TILE_PAIRS", 10 * 156)
    rows_seen, matrices = [], []
    real_matrix = kernels.kernel_matrix

    def counting(real):
        def rows_of(k, cloud, rows, cols=None, **swap):
            rows_seen.extend(np.asarray(rows).tolist())
            return real(k, cloud, rows, cols, **swap)
        return rows_of

    def counting_matrix(k, cloud):
        matrices.append(cloud.n_points)
        return real_matrix(k, cloud)
    # the engine's evaluator, and the kernel alone, each count a row
    for name in ("pair_rows", "kernel_rows"):
        monkeypatch.setattr(kernels, name, counting(getattr(kernels, name)))
    monkeypatch.setattr(kernels, "kernel_matrix", counting_matrix)
    m = lattice_measure(E2, seed=0)
    f = SimpleFunction(terms=((1.0, Ball(3, 4.0)), (-0.5, Ball(80, 6.0))))
    g = SimpleFunction(terms=((1.0, Ball(150, 5.0)),))
    compute_pairing_trace(kernel, m, f, g, (9.0, 4.5, 2.25, 1.125), workers=2)
    assert sorted(rows_seen) == list(range(156)) and not matrices


def test_trace_folds_a_fixed_number_of_times_per_tile(monkeypatch):
    """A trace tile makes the same number of fold_rows calls with 2 balls
    as with 10, and with 2 eps as with 12: its blocks are classified once,
    and every masked block row, of every ball and step, is folded in one
    stack before the one fold of the block values."""
    monkeypatch.setattr(metric_module, "_TILE_PAIRS", 32 * 1024)
    m = normalize(generate(GeneratorSpec(family="four_corner_cantor",
                                         level=5))[1])[0]
    dist = np.unique(m.cloud.distances_from(0))
    rng = np.random.default_rng(5)
    balls = [Ball(int(c), float(dist[rng.integers(dist.size // 5,
                                                   4 * dist.size // 5)]))
             for c in rng.integers(0, m.n_atoms, size=10)]
    folds, tiles = [0], [0]
    real_fold = operator_module.fold_rows

    def counting(a):
        folds[0] += 1
        return real_fold(a)
    monkeypatch.setattr(operator_module, "fold_rows", counting)
    per_tile = []
    for n_balls in (2, 10):
        f = SimpleFunction(terms=tuple((1.0, b) for b in balls[:n_balls:2]))
        g = SimpleFunction(terms=tuple((-0.5, b)
                                       for b in balls[1:n_balls:2]))
        for n_eps in (2, 12):
            p = operator_module.trace_pass(
                m, f, g, [0.5 * 0.7 ** j for j in range(n_eps)])

            def tile(kt, dt, rows, p=p):
                tiles[0] += 1
                return p.tile(kt, dt, rows)
            folds[0] = tiles[0] = 0
            kernels.run_pass(RIESZ, m.cloud, p._replace(tile=tile))
            per_tile.append(folds[0] / tiles[0])
    assert tiles[0] == 32 and len(set(per_tile)) == 1 and per_tile[0] <= 4


def test_trace_tiles_are_classified_by_their_own_rows(monkeypatch):
    """Each trace tile classifies its column blocks by one
    metric._block_bounds call over exactly its own rows, so the 16-row
    tiles that split a row block of metric._BLOCK ids share no state."""
    monkeypatch.setattr(metric_module, "_TILE_PAIRS", 16 * 1024)
    m = four_corner(5)[0]
    f = SimpleFunction(terms=((1.0, Ball(0, 0.3)),))
    g = SimpleFunction(terms=((-0.5, Ball(1023, 0.2)),))
    p = operator_module.trace_pass(m, f, g, [0.5, 0.25, 0.125])
    real_bounds = metric_module._block_bounds
    bounded, tiles = [], []

    def recording(cloud, rows, boxes):
        bounded.append(np.array(rows))
        return real_bounds(cloud, rows, boxes)
    monkeypatch.setattr(metric_module, "_block_bounds", recording)

    def tile(kt, dt, rows):
        before = len(bounded)
        out = p.tile(kt, dt, rows)
        tiles.append(len(bounded) == before + 1
                     and np.array_equal(bounded[-1], rows))
        return out
    kernels.run_pass(RIESZ, m.cloud, p._replace(tile=tile))
    assert len(tiles) == 64 and all(tiles) and len(bounded) == 64


@pytest.mark.parametrize("workers", [1, 2])
def test_the_sweep_hands_each_pass_only_its_own_rows(workers, monkeypatch):
    """Three passes share one sweep of 16-row tiles per thread: the trace
    over every row, the annuli of a ball over its interior, whose rows
    some tiles hold only in part, and the boundary of a ball holding every
    atom over no rows. Each tile call gets rows of its own pass alone, and
    each pass gets the bits of its own run_pass."""
    monkeypatch.setattr(metric_module, "_TILE_PAIRS", 16 * 1024)
    m = four_corner(5)[0]
    ball = Ball(300, 0.1)  # 84 interior rows, cut by tiles of 16 and 32
    f = SimpleFunction(terms=((1.0, ball),))
    g = SimpleFunction(terms=((-0.5, Ball(1023, 0.2)),))
    passes = [operator_module.trace_pass(m, f, g, [0.5, 0.25, 0.125]),
              operator_module.annuli_pass(m, ball),
              operator_module.boundary_pass(m, Ball(0, 2.0), 0.0, math.inf)]
    every, interior, none = (p.rows for p in passes)
    assert every.size == m.n_atoms and none.size == 0
    assert 0 < interior.size < m.n_atoms
    handed = [[] for _ in passes]

    def recording(p, calls):
        def tile(kt, dt, rows):
            calls.append(np.array(rows))
            assert kt.shape[0] == dt.shape[0] == rows.size
            return p.tile(kt, dt, rows)
        return p._replace(tile=tile)
    blocks = kernels.sweep_pair_tiles(
        RIESZ, m.cloud, [recording(p, c) for p, c in zip(passes, handed)],
        workers)
    for p, calls, block in zip(passes, handed, blocks):
        got = np.concatenate(calls)
        assert np.isin(got, p.rows).all()
        assert sorted(got.tolist()) == p.rows.tolist()
        assert block.shape[0] == p.rows.size
    # some tile holds interior rows and others: it is handed only its own
    assert any(0 < c.size < 16 * workers for c in handed[1])
    assert all(c.size == 0 for c in handed[2])

    trace, annuli, boundary = passes
    want, got = kernels.run_pass(RIESZ, m.cloud, trace), \
        trace.reduce(blocks[0])
    assert got == want and bits(got.values) == bits(want.values) \
        and bits(got.bound_values) == bits(want.bound_values)
    want, _ = annuli_log_bound_check(RIESZ, m, ball, 1.0, 1.0, 1.0)
    got, _ = annuli.reduce(blocks[1], 1.0, 1.0, 1.0)
    assert got == want and bits(c.lhs for c in got) \
        == bits(c.lhs for c in want)
    assert bits([kernels.run_pass(RIESZ, m.cloud, boundary),
                 boundary.reduce(blocks[2])]) == bits([0.0, 0.0])


# ---------------------------------------------------------------------------
# the tiled checks against their dense N x N formulas

NAN_BASE = KernelSpec(family="generic_antisymmetrized",
                      base="np.sqrt(5.0 - x[..., 0]) * (y[..., 1] + 1.0) / d",
                      antisymmetrize=False)  # NaN off the diagonal, x_1 > 5


def dense_checks(k, cloud, s):
    """check_antisymmetry's and check_size_bound's results from the whole
    dense_kernel and dense_distances."""
    km = dense_kernel(k, cloud)
    anti = dense_antisymmetry(km)
    prod = np.abs(km) * dense_distances(cloud) ** s
    np.fill_diagonal(prod, -1.0)
    a, b = np.unravel_index(int(prod.argmax()), prod.shape)
    return anti, (max(float(prod.max()), 0.0), (int(a), int(b)))


def dense_growth(m, s, r_min):
    best, witness = -1.0, (0, r_min)
    dmat = dense_distances(m.cloud)
    for x in range(m.n_atoms):
        d = dmat[x]
        order = np.argsort(d, kind="stable")
        ds, cum = d[order], np.cumsum(m.weights[order])
        cand = np.unique(ds[ds >= r_min])
        if cand.size == 0 or cand[0] > r_min:
            cand = np.concatenate([[r_min], cand])
        ratios = cum[np.searchsorted(ds, cand, side="right") - 1] / cand ** s
        k = int(np.argmax(ratios))
        if ratios[k] > best:
            best, witness = float(ratios[k]), (x, float(cand[k]))
    return best, witness


def dense_cancellation(k, m, b1, b2, delta, eps):
    rows = np.nonzero(b1.members(m.cloud) & b2.members(m.cloud))[0]
    km = dense_kernel(k, m.cloud)[np.ix_(rows, rows)]
    d = dense_distances(m.cloud)[np.ix_(rows, rows)]
    ww = np.outer(m.weights[rows], m.weights[rows])
    keep = (d > delta) & (d < eps) & np.triu(np.ones(d.shape, bool), k=1)
    t_upper = np.where(keep, km * ww, 0.0)
    t_lower = np.where(keep, km.T * ww.T, 0.0)
    # the row tree of every double sum: fold each row, then the rows
    return (pairwise_sum(fold_rows(t_upper + t_lower)),
            pairwise_sum(fold_rows(np.abs(t_upper)))
            + pairwise_sum(fold_rows(np.abs(t_lower))))


@pytest.mark.parametrize("kernel,metric", [(RIESZ, E2), (RIESZ, L1),
                                           (RIESZ, SNOW), (GENERIC, E2),
                                           (NAN_BASE, L1)])
@pytest.mark.parametrize("workers", [1, 2])
def test_tiled_checks_match_dense_oracle(kernel, metric, workers,
                                         monkeypatch):
    # 7-row tiles end mid-lattice, and mid-intersection for the residual
    monkeypatch.setattr(metric_module, "_TILE_PAIRS", 7 * 156)
    m = lattice_measure(metric, seed=5)
    dist = np.unique(dense_distances(m.cloud))
    for s in (1.0, 2.5):  # at s = 2.5 the r_min candidate wins some rows
        anti, size = dense_checks(kernel, m.cloud, s)
        rep = kernels.check_antisymmetry(kernel, m.cloud, workers)
        assert bits([rep.lhs, rep.rhs]) == bits([anti[0], 0.0])
        assert rep.witness["pair"] == anti[1]
        c, pair = kernels.check_size_bound(kernel, m.cloud, s, workers)
        assert bits([c]) == bits([size[0]]) and pair == size[1]
        # r_min below every distance, on one, and between two
        for r_min in (0.5 * dist[1], dist[3], 0.5 * (dist[5] + dist[6])):
            got, witness = growth_constant(m, s, float(r_min), workers)
            want, want_witness = dense_growth(m, s, float(r_min))
            assert bits([got, witness[1]]) == bits([want, want_witness[1]])
            assert witness[0] == want_witness[0]
    if kernel is NAN_BASE:
        assert math.isnan(anti[0]) and math.isnan(size[0])
    n = dist.size
    for center, radius, delta, eps in ((3, n // 3, 2, n // 2),
                                       (77, n // 2, 1, 2 * n // 3),
                                       (150, n - 1, 4, n - 1)):
        b1 = Ball(center, float(dist[radius]))
        b2 = Ball(80, float(dist[n // 2]))
        want = dense_cancellation(kernel, m, b1, b2, float(dist[delta]),
                                  float(dist[eps]))
        got = cancellation_residual(kernel, m, b1, b2, float(dist[delta]),
                                    float(dist[eps]), workers)
        assert bits(got) == bits(want)
        # the check bounds these residuals by 0.0 without a walk, and the
        # walk reads +0.0; NaN values bound nothing
        bound = cancellation_bound(rep.lhs, m, b1, b2)
        if kernel is NAN_BASE:
            assert math.isnan(bound)
        else:
            assert bits([bound, got[0]]) == bits([0.0, 0.0])


@pytest.mark.parametrize("metric", [E2, L1, SNOW])
@pytest.mark.parametrize("workers", [1, 2])
def test_growth_of_equal_weights_matches_dense_oracle(metric, workers,
                                                      monkeypatch):
    # equal weights take the sorted-distances path; 1/156 is not dyadic,
    # so the cumulative masses round
    monkeypatch.setattr(metric_module, "_TILE_PAIRS", 7 * 156)
    m = make_measure(lattice_measure(metric, seed=0).cloud,
                     np.full(156, 1.0 / 156))
    dist = np.unique(dense_distances(m.cloud))
    for s in (1.0, 2.5):
        for r_min in (0.5 * dist[1], dist[3], 0.5 * (dist[5] + dist[6])):
            got, witness = growth_constant(m, s, float(r_min), workers)
            want, want_witness = dense_growth(m, s, float(r_min))
            assert bits([got, witness[1]]) == bits([want, want_witness[1]])
            assert witness[0] == want_witness[0]


@pytest.mark.parametrize("workers", [1, 2])
def test_symmetric_checks_evaluate_only_the_upper_triangle(workers,
                                                           monkeypatch):
    # 7-row tiles of the whole cloud per thread, so 14-row tiles on 2
    # threads
    monkeypatch.setattr(metric_module, "_TILE_PAIRS", 7 * 156)
    pairs = {"pair_rows": [], "kernel_rows": []}

    def counting(name, real):
        def pairs_of(k, cloud, rows, cols=None, **swap):
            out = real(k, cloud, rows, cols, **swap)
            pairs[name].append(np.size(out[0] if isinstance(out, tuple)
                                       else out))
            return out
        return pairs_of
    # the engine's evaluator, and the kernel alone, each count their pairs
    for name in pairs:
        monkeypatch.setattr(kernels, name, counting(name,
                                                    getattr(kernels, name)))
    m, n = lattice_measure(E2, seed=5), 156
    anti = kernels.check_antisymmetry(RIESZ, m.cloud, workers)
    # the sweep evaluates each row k(x, .) once; the tile of rows
    # x0..x0+h-1 evaluates k(y, x) only for y >= x0
    h = 7 * workers
    assert sum(pairs["pair_rows"]) == n * n
    assert sum(pairs["kernel_rows"]) == sum(
        min(h, n - x0) * (n - x0) for x0 in range(0, n, h)) \
        == {1: 12709, 2: 13248}[workers]

    dist = np.unique(dense_distances(m.cloud))
    b1, b2 = Ball(3, float(dist[33])), Ball(80, float(dist[dist.size // 2]))
    r = np.count_nonzero(b1.members(m.cloud) & b2.members(m.cloud))
    assert r == 91

    def walk(kernel, delta, eps):
        for name in pairs:
            pairs[name].clear()
        got = cancellation_residual(kernel, m, b1, b2, delta, eps, workers)
        assert bits(got) == bits(dense_cancellation(kernel, m, b1, b2,
                                                    delta, eps))
        return got, sum(pairs["pair_rows"]), sum(pairs["kernel_rows"])
    # the residual sweeps the intersection's rows once, k(x, .) over every
    # column, and evaluates k(y, x) at the intersection's columns, whatever
    # the band
    for eps in (float(dist[40]), 4.0):
        delta = float(dist[2])
        got, upper, lower = walk(RIESZ, delta, eps)
        assert got[0] == 0.0
        assert (upper, lower) == (r * n, r * r) == (14196, 8281)
        # the check that lets the suite skip this walk
        assert anti.lhs == 0.0 \
            and cancellation_bound(anti.lhs, m, b1, b2) == 0.0
        # k(y, x) is evaluated, not derived: a symmetric kernel leaves a
        # residual
        got, upper, lower = walk(SYMMETRIC, delta, eps)
        assert got[0] > 0.0 and (upper, lower) == (14196, 8281)


def one_ulp_off(monkeypatch, x, y):
    """Every kernel block, from here on, holds k(x, y) one ulp up, in
    either orientation and any block shape; k(y, x) is left as it is."""
    real = kernels._kernel_block

    def block(k, cloud, rows, cols, swap=False):
        vals, norm = real(k, cloud, rows, cols, swap)
        cols = np.arange(cloud.n_points) if cols is None else np.asarray(cols)
        first, second = (y, x) if swap else (x, y)  # the block's (row, col)
        at = (np.asarray(rows)[:, None] == first) & (cols[None, :] == second)
        vals[at] = np.nextafter(vals[at], np.inf)
        return vals, norm
    monkeypatch.setattr(kernels, "_kernel_block", block)


@pytest.mark.parametrize("workers", [1, 2])
def test_one_ulp_off_takes_the_computed_path(workers, monkeypatch):
    """A kernel whose k(x, y) is one ulp off -k(y, x) at one pair fails the
    exact antisymmetry check, so its cancellation bound is computed from
    the check's residual, above 0.0, and covers the walked residual, which
    shows the defect."""
    monkeypatch.setattr(metric_module, "_TILE_PAIRS", 7 * 156)
    m = lattice_measure(E2, seed=5)
    dist = np.unique(dense_distances(m.cloud))
    b1, b2 = Ball(3, float(dist[33])), Ball(80, float(dist[dist.size // 2]))
    delta, eps = float(dist[2]), float(dist[40])
    anti = kernels.check_antisymmetry(RIESZ, m.cloud, workers)
    assert anti.lhs == 0.0 and cancellation_bound(anti.lhs, m, b1, b2) == 0.0
    # the first pair x < y of the intersection inside the band whose
    # nonzero term k(x, y) w(x) w(y) still differs when k(x, y) is one ulp
    # up: the residual is that difference, all other entries +0.0
    rows = np.nonzero(b1.members(m.cloud) & b2.members(m.cloud))[0]
    d = dense_distances(m.cloud)[np.ix_(rows, rows)]
    km, w = dense_kernel(RIESZ, m.cloud), m.weights
    terms = [(x, y, np.nextafter(km[x, y], np.inf) * (w[x] * w[y])
              - km[x, y] * (w[x] * w[y]))
             for x, y in rows[np.argwhere((d > delta) & (d < eps) & np.triu(
                 np.ones(d.shape, bool), k=1))] if km[x, y] != 0.0]
    x, y, want = next(t for t in terms if t[2] != 0.0)
    one_ulp_off(monkeypatch, x, y)
    assert kernels.kernel_rows(RIESZ, m.cloud, [x], [y])[0, 0] \
        != -kernels.kernel_rows(RIESZ, m.cloud, [y], [x])[0, 0]
    off = kernels.check_antisymmetry(RIESZ, m.cloud, workers)
    assert off.lhs > 0.0 and off.witness["pair"] == (x, y) and not off.ok
    bound = cancellation_bound(off.lhs, m, b1, b2)
    resid, _ = cancellation_residual(RIESZ, m, b1, b2, delta, eps, workers)
    assert resid == want != 0.0 and 0.0 < abs(resid) <= bound < math.inf


U = Fraction(1, 2 ** 53)


def exact_cancellation(k, m, b1, b2, delta, eps):
    """The real residual of the computed kernel values over the open band
    of (B1 cap B2)^2: each k(x, y), k(y, x) and weight lifted to a
    Fraction, summed over the pairs x < y with no rounding."""
    rows = np.nonzero(b1.members(m.cloud) & b2.members(m.cloud))[0]
    km, d = kernels.kernel_matrix(k, m.cloud), dense_distances(m.cloud)
    w = [Fraction(v) for v in m.weights]
    return sum(((Fraction(km[x, y]) + Fraction(km[y, x])) * w[x] * w[y]
                for i, x in enumerate(rows) for y in rows[i + 1:]
                if delta < d[x, y] < eps), Fraction(0))


ONE = KernelSpec(family="generic_antisymmetrized", base="1.0",
                 antisymmetrize=False)  # k = 1 off the diagonal


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("case", ["one", "raw", "one_ulp_off", "heavy"])
def test_cancellation_bound_holds_the_exact_residual(case, monkeypatch):
    """On 64 atoms, the exact residual of the computed values lies within
    cancellation_bound, which is the least float >= A W~^2 / (2 (1 - u)^3)
    for the check's A and the fsum W~ of the intersection's weights.

    With k = 1 (A = 2) the bound is tight to a factor 2 when every pair of
    >= 3 atoms of equal weight is in the band: the residual W^2 - sum w^2
    is >= 2/3 W^2, so a bound of A W~^2 / 4 fails. Weights of 1e160
    overflow every product w(x) w(y) of the float walk, which reads NaN,
    while the antisymmetric kernel's bound stays 0.0, as its residual is."""
    m, _ = four_corner(3)
    k, b1, b2, delta, eps = RIESZ, Ball(0, 0.6), Ball(63, 0.9), 0.01, 2.0
    if case == "one":
        k = ONE
    elif case == "raw":
        k = replace(GENERIC, antisymmetrize=False)
        delta, eps = 0.1, 0.5
    elif case == "one_ulp_off":  # at the first pair of the intersection
        rows = np.nonzero(b1.members(m.cloud) & b2.members(m.cloud))[0]
        km = kernels.kernel_matrix(k, m.cloud)
        one_ulp_off(monkeypatch, *next((x, y) for x, y in itertools.
                                       combinations(rows.tolist(), 2)
                                       if km[x, y] != 0.0))
    elif case == "heavy":
        m = make_measure(m.cloud, m.weights * 1e160)
    anti = kernels.check_antisymmetry(k, m.cloud)
    bound = cancellation_bound(anti.lhs, m, b1, b2)
    exact = exact_cancellation(k, m, b1, b2, delta, eps)
    assert abs(exact) <= bound
    walk = cancellation_residual(k, m, b1, b2, delta, eps)
    walked = walk[0]
    both = b1.members(m.cloud) & b2.members(m.cloud)
    if case == "heavy":
        assert anti.lhs == 0.0 and bound == 0.0 and exact == 0
        assert math.isnan(walked) and bits(walk) == bits(
            dense_cancellation(k, m, b1, b2, delta, eps))
        return
    assert anti.lhs > 0.0 and exact != 0 and abs(walked) <= bound
    w = Fraction(math.fsum(m.weights[both]))
    target = Fraction(anti.lhs) * w * w / (2 * (1 - U) ** 3)
    assert Fraction(bound) >= target > Fraction(np.nextafter(bound, 0.0))
    if case == "one":
        assert anti.lhs == 2.0 and np.count_nonzero(both) >= 3
        assert exact == w * w - sum(Fraction(v) ** 2
                                    for v in m.weights[both])
        assert abs(exact) > bound / 2  # a halved bound would not hold


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_cancellation_bound_of_zero_nan_inf_and_overflow():
    """A == 0 gives 0.0 whatever the weights; a NaN or inf A is returned as
    it is; a bound beyond the largest float, or weights whose sum
    overflows, give inf."""
    m = two_atom_measure()
    whole = Ball(0, 1.0)
    assert bits([cancellation_bound(a, m, whole, whole)
                 for a in (0.0, math.nan, math.inf)]) \
        == bits([0.0, math.nan, math.inf])
    # fsum overflows; make_measure rejects such a total, so built directly
    huge = DiscreteMeasure(m.cloud, np.array([1e308, 1e308]), math.inf)
    assert cancellation_bound(0.0, huge, whole, whole) == 0.0
    assert cancellation_bound(1.0, huge, whole, whole) == math.inf
    big = make_measure(m.cloud, [1e154, 1e154])  # W^2 = 4e308
    assert cancellation_bound(1.0, big, whole, whole) == math.inf
    # A = 1 and W = 1, then W = 1/2: (1 - u)^-3 = 1 + 3u + O(u^2) puts
    # the bound 1.5 ulps above 1/2 and 1/8, and it is rounded up to 2
    assert cancellation_bound(1.0, m, whole, whole) == 0.5 + 2.0 ** -52
    assert cancellation_bound(1.0, m, whole, Ball(1, 0.5)) \
        == 0.125 + 2.0 ** -54


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_truncated_folds_equal_one_masked_fold_per_eps(data):
    """Distances from a few values, so that several steps of the grid gain
    no pair, and terms with signed zeros, infinities and NaN: each column
    has the bits of its own masked fold. The bounds decide no block, as
    for a metric without them."""
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 9))
    dists = data.draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0]),
                               min_size=rows * cols, max_size=rows * cols))
    dt = np.asarray(dists).reshape(rows, cols)
    kt = np.asarray(data.draw(st.lists(
        st.sampled_from([1.5, -2.0, 0.0, -0.0, math.inf, math.nan, 3e-300]),
        min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
    fw = np.asarray(data.draw(st.lists(st.sampled_from([1.0, -0.5, 0.0]),
                                       min_size=cols, max_size=cols)))
    grid = sorted(data.draw(st.sets(st.sampled_from(
        [3.0, 1.5, 1.0, 0.75, 0.5, 0.3, 0.25, 0.1]), min_size=1)),
        reverse=True)
    blocks = operator_module._classify(
        grid, (np.zeros(1), np.full(1, math.inf)))
    got = operator_module._trace_folds(kt, dt, fw, grid, blocks).T
    terms = kt * fw[None, :]
    for col, eps in zip(got, grid):
        assert col.tobytes() == fold_rows(np.where(dt > eps, terms,
                                                   0.0)).tobytes()


# ---------------------------------------------------------------------------
# blocks of 64 columns decided by their distance bounds


def clustered_measure(n, metric, seed):
    """The first n lower-left corners of the level-5 four-corner cells,
    with random weights: consecutive ids are near, so many blocks are
    decided by their bounds. n = 300 ends in a partial block."""
    coords = generate(GeneratorSpec(family="four_corner_cantor",
                                    level=5))[0].coords[:n]
    cloud = make_cloud(coords, metric)
    return make_measure(cloud, np.random.default_rng(seed).random(n))


def bound_grid(m, rows, take):
    """A decreasing grid of pair distances of the tile and of the tile's
    box bounds lb and ub, every `take`-th of each."""
    boxes = metric_module._boxes(m.cloud.coords)
    lb, ub = metric_module._block_bounds(m.cloud, rows, boxes)
    d = np.unique(metric_module._distance_rows(m.cloud, rows))
    pool = np.unique(np.concatenate([d[1::take], lb, ub]))
    pool = pool[(pool > 0.0) & np.isfinite(pool)]
    return [float(e) for e in pool[::-1]], (lb, ub)


# a raw base with NaN (x_1 > 0.5) and +-inf (x_2 == y_2) off the diagonal
RAW = KernelSpec(family="generic_antisymmetrized",
                 base="(y[..., 0] - 0.3) * np.sqrt(0.5 - x[..., 0])"
                      " / (x[..., 1] - y[..., 1])", antisymmetrize=False)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("n", [300, 256, 156, 40])
@pytest.mark.parametrize("metric", [E2, L1, SNOW])
def test_truncated_folds_with_bounds_equal_masked_folds(n, metric):
    """eps on pair distances and on the bounds themselves: each column has
    the bits of the tile's own masked dense fold, signed zeros, infinities
    and NaN included, and blocks are decided wherever the metric has
    bounds (below 64 columns, the one block of the whole padded row); 256
    columns are whole blocks, read in place, and 300 are padded."""
    m = (clustered_measure(n, metric, seed=n) if n != 156
         else lattice_measure(metric, seed=1))
    fw = m.weights * np.random.default_rng(2).normal(size=n)
    fw[::9] = -0.0
    decided = False
    for k in (RIESZ, RAW):
        for x0 in range(0, n, 23):
            rows = np.arange(x0, min(x0 + 23, n))
            kt, dt = kernels.pair_rows(k, m.cloud, rows)
            grid, (lb, ub) = bound_grid(m, rows, take=7)
            got = operator_module._trace_folds(
                kt, dt, fw, grid, operator_module._classify(grid, (lb, ub))).T
            for col, eps in zip(got, grid):
                want = fold_rows(np.where(dt > eps, kt * fw[None, :], 0.0))
                assert bits(col) == bits(want)
            decided |= any(((lb > e) | (ub <= e)).any() for e in grid)
    assert decided == (metric is not SNOW)


P15 = MetricDescriptor(family="euclidean_p", dimension=2, p=1.5)


def uniform_measure(n, seed):
    """n random points of the unit square in random order: every block's
    box spans most of the square, so every block straddles a band edge."""
    rng = np.random.default_rng(seed)
    return make_measure(make_cloud(rng.random((n, 2)), E2), rng.random(n))


def table_measure():
    """The L1 distances of the 12 x 13 lattice as a custom table: exact
    integers, with (0, inf) block bounds."""
    lattice = lattice_measure(L1, seed=4)
    table = dense_distances(lattice.cloud)
    md = MetricDescriptor(family="custom_table", dimension=2)
    return make_measure(make_cloud(lattice.cloud.coords, md, table=table),
                        lattice.weights)


BAND_INPUTS = {
    "four_corner_300": lambda: clustered_measure(300, E2, seed=6),
    "four_corner_256": lambda: clustered_measure(256, E2, seed=11),
    "four_corner_40": lambda: clustered_measure(40, L1, seed=7),
    "uniform_200": lambda: uniform_measure(200, seed=8),
    "snowflake": lambda: lattice_measure(SNOW, seed=9),
    "p_1_5": lambda: lattice_measure(P15, seed=10),
    "table": table_measure,
}


def band_grid(m, rows, n_steps):
    """n_steps + 1 decreasing eps for the tile of `rows`. With finite box
    bounds, a block's ub and the largest pair distance below its lb, so
    that the block lies wholly inside that band; else a pair distance. The
    rest spread over the pair distances and bounds outside that band."""
    boxes = metric_module._boxes(m.cloud.coords)
    lb, ub = metric_module._block_bounds(m.cloud, rows, boxes)
    d = np.unique(metric_module._distance_rows(m.cloud, rows))[1:]
    pool = np.unique(np.concatenate([d, lb, ub]))
    pool = pool[(pool > 0.0) & np.isfinite(pool)]
    inner = np.flatnonzero((lb > d[0]) & np.isfinite(ub))
    if inner.size:
        b = inner[inner.size // 2]
        picks = [float(ub[b]), float(d[d < lb[b]][-1])]
        pool = pool[(pool <= picks[1]) | (pool > picks[0])]
    else:
        picks = [float(d[d.size // 3])]
    for i in np.linspace(0, pool.size - 1, 3 * n_steps).astype(int):
        if len(set(picks)) > n_steps:
            break
        picks.append(float(pool[i]))
    return sorted(set(picks), reverse=True)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("n_steps", [1, 2, 12])
@pytest.mark.parametrize("name", list(BAND_INPUTS))
def test_trace_band_folds_equal_masked_dense_folds(name, n_steps):
    """Each band column of the trace's tile, the scale band of |k| |f| w
    and each ball's band of |k| w over its rows and outside columns, has
    the bits of fold_rows(np.where(band_mask, v, 0.0)), signed zeros,
    infinities and NaN included; so do the rows of the tiles, whatever
    the blocks: wholly inside one band, outside the grid or straddling an
    edge, and inside a ball, outside it or cut by its boundary. Ten ball
    terms: one repeated, one holding every atom, one holding none."""
    m = BAND_INPUTS[name]()
    n = m.n_atoms
    dist = np.unique(dense_distances(m.cloud))
    f = SimpleFunction(terms=(
        (0.7, Ball(5, float(dist[dist.size // 3]))),
        (-1.2, Ball(n - 1, float(dist[4 * dist.size // 5]))),
        (0.3, Ball(n // 3, float(dist[dist.size // 7]))),
        (-0.8, Ball(2 * n // 3, float(dist[dist.size // 4]))),
        (0.5, Ball(7, -1.0))))  # holds no atom
    g = SimpleFunction(terms=(
        (1.1, Ball(n // 2, float(dist[dist.size // 5]))),
        (0.4, Ball(1, float(dist[-1]))),  # holds every atom
        (-0.9, Ball(5, float(dist[dist.size // 3]))),  # f's first again
        (-0.6, Ball(n // 4, float(dist[dist.size // 2]))),
        (0.2, Ball(3 * n // 4, float(dist[dist.size // 10])))))
    w = m.weights
    afw = np.abs(f.values(m.cloud)) * w
    # one band per distinct ball with a boundary, in the order of the terms
    balls = {(b.center, b.radius): b.members(m.cloud)
             for _, b in f.terms + g.terms}
    insides = [i for i in balls.values() if 0 < i.sum() < n]
    boxes = metric_module._boxes(m.cloud.coords)
    grid = band_grid(m, np.arange(min(n, 23)), n_steps)
    assert len(grid) == n_steps + 1
    p = operator_module.trace_pass(m, f, g, grid)
    seen = set()
    for k, x0 in itertools.product((RIESZ, RAW), range(0, n, 23)):
        rows = np.arange(x0, min(x0 + 23, n))
        kt, dt = kernels.pair_rows(k, m.cloud, rows)
        got = p.tile(kt, dt, rows)[:, len(grid):]
        want = []
        for inside, factor in [(None, afw)] + [(i, w) for i in insides]:
            for delta, eps in zip(grid[1:], grid):
                mask = (dt > delta) & (dt <= eps)
                if inside is not None:
                    mask &= inside[rows][:, None] & ~inside[None, :]
                want.append(fold_rows(np.where(
                    mask, np.abs(kt) * factor[None, :], 0.0)))
        assert got.shape == (rows.size, len(want))
        for col, want_col in zip(got.T, want):
            assert bits(col) == bits(want_col)
        lb, ub = metric_module._block_bounds(m.cloud, rows, boxes)
        for delta, eps in zip(grid[1:], grid):
            seen |= {"whole"} if ((lb > delta) & (ub <= eps)).any() else set()
            seen |= {"straddle"} if (((lb <= delta) & (ub > delta))
                                     | ((lb <= eps) & (ub > eps))).any() \
                else set()
        if ((lb > grid[0]) | (ub <= grid[-1])).any():
            seen.add("outside")
        for inside in insides:  # the column blocks a held row meets
            if inside[rows].any():
                seen |= set() if inside[rows].all() else {"rows cut"}
                for b in range(0, n, 64):
                    held = inside[b:b + 64]
                    seen.add("cut" if held.any() and not held.all()
                             else "in" if held.all() else "out")
    # below 64 atoms the one block holds the diagonal, so it straddles
    clustered = name in ("four_corner_300", "four_corner_256")
    assert seen - {"in", "out", "cut", "rows cut"} == (
        {"whole", "straddle", "outside"} if clustered else {"straddle"})
    assert {"cut", "rows cut"} <= seen \
        and (not clustered or {"in", "out"} <= seen)


@pytest.mark.parametrize("n", [300, 40, "table", "uniform_200"])
@pytest.mark.parametrize("workers", [1, 2])
def test_trace_and_cancellation_with_bounds_match_dense_oracle(n, workers):
    """The trace and the cancellation residual on a clustered cloud of n
    atoms, or on the BAND_INPUTS cloud named n (a custom table, with (0,
    inf) bounds, or points in random id order), with eps and delta on pair
    distances and on box bounds, against the dense oracles."""
    clustered = isinstance(n, int)
    m = clustered_measure(n, E2, seed=3) if clustered else BAND_INPUTS[n]()
    n = m.n_atoms
    rows = np.arange(min(n, 64))
    grid, (lb, ub) = bound_grid(m, rows, take=max(1, n // 6) if clustered
                                else 1)
    grid = grid[::max(1, len(grid) // 8)]
    dist = np.unique(dense_distances(m.cloud))
    f = SimpleFunction(terms=((0.7, Ball(5, float(dist[dist.size // 3]))),
                              (-1.2, Ball(n - 1, float(
                                  dist[-min(40, dist.size // 2)])))))
    g = SimpleFunction(terms=((1.1, Ball(n // 2, float(dist[-9]))),))
    values, steps, _ = dense_oracle(RIESZ, m, f, g, grid)
    trace = compute_pairing_trace(RIESZ, m, f, g, grid, workers=workers)
    assert bits(trace.values) == bits(values)
    assert bits(trace.cauchy_diffs) == bits(lhs for lhs, _, _ in steps)
    assert bits(trace.bound_values) == bits(rhs for _, rhs, _ in steps)

    whole = Ball(0, float(dist[-1]))
    for delta, eps in zip(grid[1:], grid):
        for b1, b2 in ((whole, whole), (f.terms[0][1], g.terms[0][1])):
            want = dense_cancellation(RIESZ, m, b1, b2, delta, eps)
            got = cancellation_residual(RIESZ, m, b1, b2, delta, eps,
                                        workers)
            assert bits(got) == bits(want)
