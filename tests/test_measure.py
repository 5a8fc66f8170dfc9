from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_distances, growth_full_rows
from sio_lab import metric
from sio_lab.errors import DegenerateInputError, InputError
from sio_lab.measure import (growth_constant, interval_mass, make_measure,
                             make_step_measure, measure_from_json,
                             measure_to_json, normalize, radial_pushforward)
from sio_lab.metric import MetricDescriptor, make_cloud
from sio_lab.operator import Ball
from sio_lab.sums import pairwise_sum

E1 = MetricDescriptor(family="euclidean_p", dimension=1, p=2.0)
E2 = MetricDescriptor(family="euclidean_p", dimension=2, p=2.0)


def ball_mass(m, z, r):
    """The mass of the closed ball B(z, r), from Ball.members."""
    return pairwise_sum(m.weights * Ball(z, r).members(m.cloud))


def quarter_grid():
    """Uniform 1/4 on {0, 1/3, 2/3, 1} in R^1."""
    cloud = make_cloud([[0.0], [1.0 / 3.0], [2.0 / 3.0], [1.0]], E1)
    return make_measure(cloud, [0.25, 0.25, 0.25, 0.25])


def test_normalize_identity():
    cloud = make_cloud([[0.0], [1.0]], E1)
    m, scale = normalize(make_measure(cloud, [0.5, 0.5]))
    assert scale == 1.0
    assert m.total_mass == 1.0


def test_normalize_divides():
    cloud = make_cloud([[0.0], [1.0]], E1)
    m, scale = normalize(make_measure(cloud, [2.0, 2.0]))
    assert scale == 4.0
    assert np.array_equal(m.weights, [0.5, 0.5])


def test_normalize_zero_raises():
    cloud = make_cloud([[0.0], [1.0]], E1)
    with pytest.raises(DegenerateInputError):
        normalize(make_measure(cloud, [0.0, 0.0]))


def test_ball_mass_half():
    cloud = make_cloud([[0.0, 0.0], [1.0, 0.0]], E2)
    m = make_measure(cloud, [0.5, 0.5])
    assert ball_mass(m, 0, 0.5) == 0.5
    assert ball_mass(m, 0, 1.0) == 1.0  # closed ball includes the far atom


def test_ball_mass_quarter_grid():
    m = quarter_grid()
    assert ball_mass(m, 1, 1.0 / 3.0) == 0.75


def test_growth_constant_two_atoms():
    cloud = make_cloud([[0.0], [1.0]], E1)
    m = make_measure(cloud, [0.5, 0.5])
    c, (atom, radius) = growth_constant(m, 1.0, 1.0)
    assert c == 1.0
    assert radius == 1.0


def test_growth_constant_ties_break_to_smaller_radius_then_atom():
    cloud = make_cloud([[0.0], [1.0]], E1)
    m = make_measure(cloud, [1.0, 1.0])
    # B(x, 0.5) and B(x, 1) both give ratio 2 at either atom
    assert growth_constant(m, 1.0, 0.5) == (2.0, (0, 0.5))
    # zero weights: B(0, 1) = B(0, 2) in mass; the smaller radius wins
    cloud = make_cloud([[0.0], [1.0], [2.0]], E1)
    m = make_measure(cloud, [1.0, 0.0, 0.0])
    assert growth_constant(m, 1.0, 1.0) == (1.0, (0, 1.0))


L1 = MetricDescriptor(family="euclidean_p", dimension=2, p=1.0)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("equal", [True, False], ids=["equal", "unequal"])
@pytest.mark.parametrize("md", [E2, L1], ids=["E2", "L1"])
def test_growth_reads_the_head_of_each_sorted_row(md, equal, workers,
                                                  monkeypatch):
    """The growth tile compares only each sorted row's head with r_min;
    (c, witness) keeps the bits of the tile that compared every column.
    On a 7 x 7 integer lattice an interior atom has 4 neighbours at
    exactly r_min = 1, in sorted columns 1-4, so the head must reach
    column 5: h = 8. Also: r_min between the distances 0 and 1, above
    several distances, and at the diameter, where the head is every
    column."""
    monkeypatch.setattr(metric, "_TILE_PAIRS", 5 * 49)  # 5 rows a thread
    coords = np.array([(i, j) for i in range(7) for j in range(7)], float)
    cloud = make_cloud(coords, md)
    weights = np.full(49, 1.0 / 49) if equal \
        else np.random.default_rng(1).random(49)
    m = make_measure(cloud, weights)
    d = dense_distances(cloud)
    assert (d == 1.0).sum(axis=1).max() == 4
    for r_min in (1.0, 0.5, 2.5, float(d.max())):
        for s in (1.0, 2.0):
            got = growth_constant(m, s, r_min, workers)
            want = growth_full_rows(m, s, r_min)
            assert [float(got[0]).hex(), float(got[1][1]).hex()] \
                == [float(want[0]).hex(), float(want[1][1]).hex()]
            assert got[1][0] == want[1][0]


def test_growth_constant_quarter_grid():
    c, witness = growth_constant(quarter_grid(), 1.0, 1.0 / 3.0)
    assert c == pytest.approx(2.25, rel=1e-15)
    assert witness == (1, pytest.approx(1.0 / 3.0))


def test_growth_constant_whole_space():
    m = quarter_grid()
    c, _ = growth_constant(m, 1.0, 1.0)
    assert c == 1.0  # probability mass over radius diam = 1


def test_radial_pushforward_two_atoms():
    cloud = make_cloud([[0.0], [1.0]], E1)
    m = make_measure(cloud, [0.5, 0.5])
    v = radial_pushforward(m, 0)
    assert v.positions == (Fraction(0), Fraction(1))
    assert v.masses == (Fraction(1, 2), Fraction(1, 2))


def test_radial_pushforward_quarter_grid_merges():
    v = radial_pushforward(quarter_grid(), 1)
    third = Fraction(1.0 / 3.0)
    two_thirds = Fraction(1.0 - 1.0 / 3.0)  # the float the metric computes
    assert v.positions == (Fraction(0), third, two_thirds)
    assert v.masses == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    assert v.total == 1


def test_radial_pushforward_masses_are_integers_over_a_power_of_two():
    cloud = make_cloud([[0.0], [0.5], [1.0]], E1)
    m = make_measure(cloud, [0.5, 0.375, 2.0 ** -60])
    v = radial_pushforward(m, 0)
    assert v.denominator == 2 ** 60
    assert v.numerators == (2 ** 59, 3 * 2 ** 57, 1)
    assert v.prefix == (0, 2 ** 59, 7 * 2 ** 57, 7 * 2 ** 57 + 1)
    assert v.masses == (Fraction(1, 2), Fraction(3, 8), Fraction(1, 2 ** 60))


def test_step_measure_masses_go_over_the_lcm():
    v = make_step_measure([(Fraction(1, 2), Fraction(1, 30)),
                           (0, Fraction(7, 10 ** 6)),
                           (Fraction(1, 2), Fraction(1, 30))])
    assert v.positions == (0, Fraction(1, 2))
    assert v.denominator == 3 * 10 ** 6
    assert v.numerators == (21, 2 * 10 ** 5)
    assert v.total == Fraction(7, 10 ** 6) + Fraction(1, 15)


def test_radial_pushforward_requires_unit_diameter():
    cloud = make_cloud([[0.0], [2.0]], E1)
    m = make_measure(cloud, [0.5, 0.5])
    with pytest.raises(InputError):
        radial_pushforward(m, 0)


@pytest.mark.parametrize("s, r_min, name", [
    (1.0, float("nan"), "r_min"), (1.0, float("inf"), "r_min"),
    (1.0, 0.0, "r_min"), (float("nan"), 0.1, "s"), (-1.0, 0.1, "s"),
    (float("inf"), 0.1, "s")])
def test_growth_constant_needs_a_finite_positive_s_and_r_min(s, r_min, name):
    # NaN passed the old r_min <= 0 check, and s was not checked at all
    with pytest.raises(InputError, match=f"{name} must be finite and "
                                         f"positive"):
        growth_constant(quarter_grid(), s, r_min)


def test_interval_mass_examples():
    v = make_step_measure([(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    assert interval_mass(v, 0, Fraction(1, 2)) == Fraction(1, 2)
    d = make_step_measure([(Fraction(1, 2), 1)])
    assert interval_mass(d, Fraction(48, 100), Fraction(52, 100),
                         hi_closed=False) == 1
    assert interval_mass(d, Fraction(482, 1000), Fraction(498, 1000)) == 0
    with pytest.raises(InputError):
        interval_mass(d, 1, 0)


@pytest.mark.parametrize("pair", [
    (0.5, float("nan")), (float("nan"), 0.5), (float("inf"), 0.5),
    (0.5, float("-inf")), ("abc", 0.5), (0.5, "abc"), (None, 0.5),
])
def test_step_measure_rejects_non_finite_or_non_numeric_atoms(pair):
    with pytest.raises(InputError):
        make_step_measure([pair])


def test_interval_mass_rejects_non_finite_endpoints():
    v = make_step_measure([(Fraction(1, 2), 1)])
    with pytest.raises(InputError):
        interval_mass(v, float("nan"), 1)
    with pytest.raises(InputError):
        interval_mass(v, 0, float("inf"))


def test_ball_mass_monotone_and_total():
    m = quarter_grid()
    radii = np.linspace(0.0, 1.0, 50)
    masses = [ball_mass(m, 2, float(r)) for r in radii]
    assert all(a <= b for a, b in zip(masses, masses[1:]))
    assert ball_mass(m, 2, m.cloud.diameter) == m.total_mass


def test_growth_bound_on_dense_grid():
    m = quarter_grid()
    s, r_min = 1.0, 1.0 / 3.0
    c, _ = growth_constant(m, s, r_min)
    for r in np.linspace(r_min, 1.2, 200):
        for x in range(m.n_atoms):
            assert ball_mass(m, x, float(r)) <= c * r ** s * (1 + 1e-12)


def test_measure_json_roundtrip():
    m = quarter_grid()
    back = measure_from_json(measure_to_json(m))
    assert np.array_equal(back.weights, m.weights)
    assert back.total_mass == m.total_mass


positions = st.lists(st.fractions(min_value=0, max_value=1,
                                  max_denominator=1000),
                     min_size=1, max_size=20)


@settings(max_examples=100, deadline=None)
@given(pos=positions,
       masses=st.lists(st.fractions(min_value=0, max_value=1,
                                    max_denominator=10 ** 6),
                       min_size=20, max_size=20),
       lo=st.fractions(min_value=0, max_value=1, max_denominator=1000),
       width=st.fractions(min_value=0, max_value=1, max_denominator=1000),
       closed=st.tuples(st.booleans(), st.booleans()))
def test_interval_mass_equals_the_sum_of_its_atoms(pos, masses, lo, width,
                                                   closed):
    v = make_step_measure(zip(pos, masses))
    hi = lo + width
    inside = {p for p in pos
              if (lo <= p if closed[0] else lo < p)
              and (p <= hi if closed[1] else p < hi)}
    expected = sum((m for p, m in zip(pos, masses) if p in inside),
                   Fraction(0))
    assert interval_mass(v, lo, hi, *closed) == expected


@settings(max_examples=100, deadline=None)
@given(pos=positions,
       cut=st.fractions(min_value=0, max_value=1, max_denominator=997))
def test_interval_mass_additive(pos, cut):
    v = make_step_measure([(p, Fraction(1, len(pos))) for p in pos])
    total = interval_mass(v, 0, 1)
    left = interval_mass(v, 0, cut)
    right = interval_mass(v, cut, 1, lo_closed=False)
    assert left + right == total
    assert total == v.total
