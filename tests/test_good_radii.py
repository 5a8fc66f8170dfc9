import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sio_lab import good_radii
from sio_lab.errors import BudgetError, CertificationError, InputError
from sio_lab.good_radii import (GoodSetParams, build_removed_families,
                                concentration_violations, is_good_radius,
                                materialize_good_set,
                                select_good_radius_near, verify_good_set)
from sio_lab.measure import interval_mass, make_step_measure

DELTA_HALF = make_step_measure([(Fraction(1, 2), Fraction(1))])
EMPTY = make_step_measure([])
P5 = GoodSetParams(lam=5, depth=1)


def test_params_validation():
    with pytest.raises(InputError):
        GoodSetParams(lam=2, depth=1)
    with pytest.raises(InputError):
        GoodSetParams(lam=5, depth=0)


@pytest.mark.parametrize("bad", [
    {"lam": 5.5}, {"lam": 5.0}, {"depth": 2.0}, {"depth": True}])
def test_params_reject_what_the_integer_predicate_cannot_take(bad):
    """lambda and depth must be ints (a float lambda would make the powers
    floats): each is an InputError."""
    with pytest.raises(InputError):
        GoodSetParams(**{"lam": 5, "depth": 2, **bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf, "abc", None])
def test_is_good_radius_rejects_a_non_number(bad):
    with pytest.raises(InputError, match="t must be a finite number"):
        is_good_radius(DELTA_HALF, bad, P5)


@pytest.mark.parametrize("bad", [math.nan, -math.inf, "abc", None])
def test_select_rejects_a_non_number_target(bad):
    with pytest.raises(InputError, match="target must be a finite number"):
        select_good_radius_near(DELTA_HALF, bad, P5)


def test_heavy_cell_for_point_mass():
    fam = build_removed_families(DELTA_HALF, P5)
    assert fam.heavy_at(1) == ((12, Fraction(1)),)  # [0.48, 0.52)


def test_no_heavy_cells_for_light_separated_atoms():
    params = GoodSetParams(lam=5, depth=2)
    # masses < 5^-2, gaps > 5^-4
    v = make_step_measure([(Fraction(1, 10), Fraction(1, 30)),
                           (Fraction(5, 10), Fraction(1, 30)),
                           (Fraction(9, 10), Fraction(1, 30))])
    fam = build_removed_families(v, params)
    assert fam.heavy_at(1) == ()
    assert fam.heavy_at(2) == ()


def test_heavy_cells_uniform_quarter():
    v = make_step_measure([(Fraction(1, 10), Fraction(1, 4)),
                           (Fraction(2, 10), Fraction(1, 4)),
                           (Fraction(3, 10), Fraction(1, 4)),
                           (Fraction(9, 10), Fraction(1, 4))])
    fam = build_removed_families(v, P5)
    assert tuple(j for j, _ in fam.heavy_at(1)) == (2, 5, 7, 22)


@settings(max_examples=60, deadline=None)
@given(atoms=st.lists(st.tuples(st.fractions(0, 3, max_denominator=500),
                                st.fractions(0, 1, max_denominator=97)),
                      max_size=12),
       lam=st.integers(3, 6), n=st.integers(1, 3))
def test_cell_masses_equal_the_fraction_oracle(atoms, lam, n):
    v = make_step_measure(atoms)
    params = GoodSetParams(lam=lam, depth=3)
    expected = {}
    for pos, mass in zip(v.positions, v.masses):
        if pos <= 1 and mass > 0:
            j = min(int(pos * lam ** (2 * n)), lam ** (2 * n) - 1)
            expected[j] = expected.get(j, 0) + mass
    got = good_radii._cell_masses(v, params, n)
    assert {j: Fraction(u, v.denominator) for j, u in got.items()} \
        == expected
    assert list(got) == sorted(got)


def test_verify_shares_its_cell_masses(monkeypatch):
    # materialize needs each generation's cell masses once, and verify
    # once more: its family and its light-cell check read the same masses
    calls = []
    real = good_radii._cell_masses

    def counting(v, params, n):
        calls.append(n)
        return real(v, params, n)
    monkeypatch.setattr(good_radii, "_cell_masses", counting)
    params = GoodSetParams(lam=5, depth=3)
    v = make_step_measure([(Fraction(1, 2), Fraction(1, 2)),
                           (Fraction(1, 7), Fraction(1, 3))])
    rep = verify_good_set(v, params, materialize_good_set(v, params))
    assert rep.midpoints_ok and rep.light_cells_ok
    assert sorted(calls) == [1, 1, 2, 2, 3, 3]


def test_is_good_radius_certificate_03():
    params = GoodSetParams(lam=5, depth=2)
    res = is_good_radius(DELTA_HALF, Fraction(3, 10), params)
    assert res.ok
    (n1, j1, m1, c1), (n2, j2, m2, c2) = res.witnesses
    assert (n1, j1, m1) == (1, 7, 0)
    assert c1 == Fraction(1, 50) and c1 >= Fraction(1, 125)
    assert (n2, m2) == (2, 0)
    assert j2 == 187  # 0.3 * 625 = 187.5
    assert c2 == Fraction(1, 1250) and c2 >= Fraction(1, 15625)


def test_is_good_radius_rejections():
    params = GoodSetParams(lam=5, depth=2)
    rej = is_good_radius(DELTA_HALF, Fraction(1, 2), params)
    assert not rej.ok and rej.generation == 1 and rej.reason == "heavy_cell"
    rej = is_good_radius(DELTA_HALF, Fraction(1, 25), params)
    assert not rej.ok and rej.reason == "gridline_shell"
    with pytest.raises(InputError):
        is_good_radius(DELTA_HALF, Fraction(2), params)


def test_materialize_point_mass_exact():
    iset = materialize_good_set(DELTA_HALF, P5)
    assert iset.total_length == Fraction(72, 125)
    assert iset.n_intervals == 24
    assert iset.total_length >= P5.lower_bound  # 0.576 >= 0.4


def test_materialize_empty_measure():
    iset = materialize_good_set(EMPTY, P5)
    assert iset.total_length == Fraction(3, 5)  # shells only


def test_materialize_budget_error():
    params = GoodSetParams(lam=16, depth=3, budget=10 ** 6)
    with pytest.raises(BudgetError) as exc:
        materialize_good_set(DELTA_HALF, params)
    assert exc.value.max_feasible == 2


def test_select_near_center_of_heavy_cell():
    t = select_good_radius_near(DELTA_HALF, Fraction(1, 2), P5)
    assert t == Fraction(23, 50)  # nearest certified cell midpoint, tie low
    assert is_good_radius(DELTA_HALF, t, P5).ok


def test_select_near_own_midpoint():
    t = select_good_radius_near(DELTA_HALF, Fraction(3, 10), P5)
    assert t == Fraction(3, 10)  # 0.3 is cell 7's midpoint (7.5/25)


def test_select_with_zero_mass():
    t = select_good_radius_near(EMPTY, Fraction(1, 3), P5)
    assert is_good_radius(EMPTY, t, P5).ok


def test_soundness_midpoints_and_near_endpoints():
    params = GoodSetParams(lam=5, depth=2)
    v = make_step_measure([(Fraction(1, 2), Fraction(1, 2)),
                           (Fraction(1, 7), Fraction(1, 4)),
                           (Fraction(6, 7), Fraction(1, 4))])
    iset = materialize_good_set(v, params)
    eps = iset.unit / 10 ** 6
    for k in range(iset.n_intervals):
        lo, hi = iset.interval(k)
        for t in (iset.midpoint(k), lo + eps, hi - eps):
            assert is_good_radius(v, t, params).ok, t


def test_completeness_rejected_midcells_outside():
    params = GoodSetParams(lam=5, depth=2)
    v = make_step_measure([(Fraction(1, 2), Fraction(1, 2)),
                           (Fraction(1, 7), Fraction(1, 2))])
    iset = materialize_good_set(v, params)
    ivals = list(iset.intervals())
    w = Fraction(1, params.n_cells(params.depth))  # the finest cell's width
    for j in range(params.n_cells(params.depth)):
        t = (2 * j + 1) * w / 2
        inside = any(lo <= t <= hi for lo, hi in ivals)
        assert is_good_radius(v, t, params).ok == inside


def _gridline_and_heavy_gen2(lam):
    """An atom of mass lam^-1 on generation 1's first interior gridline
    (so the cell on its right is heavy) and an atom of mass exactly lam^-2
    at 2/3, whose generation-2 cell is heavy inside a light ancestor."""
    return make_step_measure([(Fraction(1, lam ** 2), Fraction(1, lam)),
                              (Fraction(2, 3), Fraction(1, lam ** 2))])


@pytest.mark.parametrize("lam, depth", [(3, 1), (3, 2), (4, 1), (4, 2),
                                        (5, 1)])
def test_materialized_set_equals_the_predicate_on_every_half_unit(lam,
                                                                  depth):
    """Every point t = k u/2 in (0, 1) is a good radius exactly when it lies
    in a closed interval of the materialized set, interval endpoints and
    heavy-cell borders included."""
    params = GoodSetParams(lam=lam, depth=depth)
    for v in (EMPTY, DELTA_HALF, _gridline_and_heavy_gen2(lam)):
        iset = materialize_good_set(v, params)
        inside = set()
        for s, e in zip(iset.starts.tolist(), iset.ends.tolist()):
            inside.update(range(2 * s, 2 * e + 1))
        for k in range(1, 2 * lam ** (3 * depth)):
            t = k * iset.unit / 2
            assert is_good_radius(v, t, params).ok == (k in inside), (v, t)


def test_monotone_in_depth():
    v = make_step_measure([(Fraction(1, 3), Fraction(1, 2)),
                           (Fraction(2, 3), Fraction(1, 2))])
    sets = {d: materialize_good_set(v, GoodSetParams(lam=5, depth=d))
            for d in (1, 2, 3)}
    for d in (2, 3):
        deeper = list(sets[d].intervals())
        shallower = list(sets[d - 1].intervals())
        for lo, hi in deeper:
            assert any(slo <= lo and hi <= shi for slo, shi in shallower)


def test_non_concentration_consequence():
    params = GoodSetParams(lam=5, depth=2)
    v = make_step_measure([(Fraction(1, 2), Fraction(1, 2)),
                           (Fraction(3, 9), Fraction(1, 2))])
    iset = materialize_good_set(v, params)
    for k in range(0, iset.n_intervals, 7):
        t = iset.midpoint(k)
        for n in (1, 2):
            w = params.shell_half_width(n)
            assert interval_mass(v, t - w, t + w) < Fraction(1, 5 ** n)


def test_concentration_violations_exact():
    params = GoodSetParams(lam=5, depth=1)
    v = make_step_measure([(Fraction(1, 2), Fraction(1))])
    viols = concentration_violations(v, params, 1)
    # window half-width 1/125: t in [1/2 - 1/125, 1/2 + 1/125] is violating
    assert viols == [(Fraction(1, 2) - Fraction(1, 125),
                      Fraction(1, 2) + Fraction(1, 125))]


def test_verify_good_set_clean():
    params = GoodSetParams(lam=5, depth=2)
    v = make_step_measure([(Fraction(1, 2), Fraction(1, 2)),
                           (Fraction(2, 7), Fraction(1, 2))])
    iset = materialize_good_set(v, params)
    rep = verify_good_set(v, params, iset)
    assert rep.midpoints_ok and rep.non_concentration_ok and rep.light_cells_ok
    assert rep.n_midpoints == iset.n_intervals


frac01 = st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6)


@settings(max_examples=60, deadline=None)
@given(atoms=st.lists(st.tuples(frac01, frac01), min_size=0, max_size=12),
       lam=st.sampled_from([3, 5, 8]),
       depth=st.integers(min_value=1, max_value=3))
def test_measure_bound_property(atoms, lam, depth):
    total = sum(m for _, m in atoms)
    if total > 1:
        atoms = [(p, m / total) for p, m in atoms]
    v = make_step_measure(atoms)
    params = GoodSetParams(lam=lam, depth=depth)
    iset = materialize_good_set(v, params)
    # exact rational comparison of the guaranteed truncated bound
    assert iset.total_length >= params.length * params.lower_bound
    rep = verify_good_set(v, params, iset, n_samples=8)
    assert rep.midpoints_ok and rep.non_concentration_ok and rep.light_cells_ok


def test_materialize_below_bound_raises_with_witness(monkeypatch):
    # a base whose period holds only its first interval (of 16 at lam 5,
    # depth 2; at depth 1 a period holds one) falls below the floor
    base = good_radii._base_good(5, 2)
    s, e = base.starts, base.ends
    monkeypatch.setattr(good_radii, "_base_good", lambda lam, depth: (
        good_radii.PeriodicPieces(s[:1], e[:1], base.period, base.repeats)))
    with pytest.raises(CertificationError) as err:
        materialize_good_set(EMPTY, GoodSetParams(lam=5, depth=2))
    assert err.value.witness == {"total_units": 25 * int(e[0] - s[0]),
                                 "floor_units": 5 ** 6 - 3 * (5 ** 5 + 5 ** 4),
                                 "lam": 5, "depth": 2}


def test_base_clearance_violation_raises_with_witness(monkeypatch):
    # lam 3, depth 2: a period of 81 units whose one piece [25, 27] sits in
    # the generation-1 shell (27 units) around 0
    monkeypatch.setattr(good_radii, "_base_period", lambda lam, depth: (
        np.asarray([25], dtype=np.int64), np.asarray([27], dtype=np.int64)))
    good_radii._base_good.cache_clear()
    try:
        with pytest.raises(CertificationError) as err:
            good_radii._base_good(3, 2)
    finally:
        good_radii._base_good.cache_clear()
    assert err.value.witness == {"generation": 1, "lam": 3, "depth": 2}


def _per_cell_base(lam, depth):
    """The per-cell formula over every depth cell at once, without the
    generation-1 period: the oracle for _base_good."""
    n_cells = lam ** (2 * depth)
    s = np.zeros(n_cells, dtype=np.int64)
    e = np.full(n_cells, lam ** (3 * depth), dtype=np.int64)
    for n in range(1, depth + 1):
        spacing = lam ** (3 * depth - 2 * n)
        half = lam ** (3 * (depth - n))
        lo = np.arange(lam ** (2 * n), dtype=np.int64)[:, None] * spacing
        sv = s.reshape(lam ** (2 * n), -1)
        ev = e.reshape(lam ** (2 * n), -1)
        np.maximum(sv, lo + half, out=sv)
        np.minimum(ev, lo + (spacing - half), out=ev)
    keep = e > s
    return s[keep], e[keep]


def _expanded_base(lam, depth):
    """_base_good's period translated lam^2 times by T = lam^(3 depth - 2)
    units: the whole base."""
    shift = np.arange(lam ** 2, dtype=np.int64)[:, None] \
        * lam ** (3 * depth - 2)
    base = good_radii._base_good(lam, depth)
    return tuple((p[None, :] + shift).ravel() for p in (base.starts, base.ends))


@pytest.mark.parametrize("lam", [3, 4, 5, 8])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_base_good_equals_the_per_cell_oracle(lam, depth):
    s, e = _expanded_base(lam, depth)
    want_s, want_e = _per_cell_base(lam, depth)
    assert s.dtype == want_s.dtype and e.dtype == want_e.dtype
    assert s.tobytes() == want_s.tobytes()
    assert e.tobytes() == want_e.tobytes()
    whole = materialize_good_set(EMPTY, GoodSetParams(lam=lam, depth=depth))
    assert whole.starts.tobytes() == want_s.tobytes()
    assert whole.ends.tobytes() == want_e.tobytes()
    assert whole.n_intervals == want_s.size
    assert whole.total_units == int((want_e - want_s).sum())


def _explicit(v, params):
    """The good set's arrays by one boolean mask over the base: every piece
    starting inside a padded heavy cell is dropped."""
    s, e = _expanded_base(params.lam, params.depth)
    hs, he = good_radii._heavy_padded_units(build_removed_families(v, params))
    keep = np.ones(s.size, dtype=bool)
    for lo, hi in zip(hs.tolist(), he.tolist()):
        keep[np.searchsorted(s, lo):np.searchsorted(s, hi)] = False
    return s[keep], e[keep]


def _view_measures(lam):
    """Heavy generation-1 cells: 0 and last, 0 and 1, and the last two; a
    heavy generation-2 cell just left of a heavy generation-1 cell, so that
    padded cells of two generations overlap; and random measures with atoms
    on gridlines."""
    w1, w2 = Fraction(1, lam ** 2), Fraction(1, lam ** 4)
    for pair in ((0, 1), (0, w1), (1 - 2 * w1, 1)):
        yield make_step_measure([(Fraction(p), Fraction(1, 2)) for p in pair])
    yield make_step_measure([(2 * w1 - w2 / 2, Fraction(1, lam ** 2)),
                             (2 * w1 + w2, Fraction(1, lam))])
    rng = np.random.default_rng(lam)
    for _ in range(12):
        n = int(rng.integers(1, 9))
        pos = rng.integers(0, lam ** 4 + 1, size=n).tolist()
        mass = rng.integers(1, 100, size=n).tolist()
        total = sum(mass) + int(rng.integers(0, 100))
        yield make_step_measure([(Fraction(p, lam ** 4), Fraction(m, total))
                                 for p, m in zip(pos, mass)])


@pytest.mark.parametrize("lam, depth", [(3, 2), (3, 3), (4, 1), (5, 2)])
def test_view_queries_match_an_explicit_materialization(lam, depth):
    params = GoodSetParams(lam=lam, depth=depth)
    n_overlapping = 0
    for v in _view_measures(lam):
        iset = materialize_good_set(v, params)
        s, e = _explicit(v, params)
        hs, he = good_radii._heavy_padded_units(
            build_removed_families(v, params))
        # verify's scalar checks: the pieces ending or starting on a padded
        # heavy cell's boundary, here found on the explicit arrays
        bounds = set(np.concatenate([hs, he]).tolist())
        rep = verify_good_set(v, params, iset, n_samples=0)
        assert rep.n_scalar_checked == sum(
            a in bounds or b in bounds for a, b in zip(s.tolist(), e.tolist()))
        assert rep.midpoints_ok and rep.non_concentration_ok
        assert iset.starts.tobytes() == s.tobytes()
        assert iset.ends.tobytes() == e.tobytes()
        assert iset.n_intervals == s.size
        assert iset.total_units == int((e - s).sum())
        for k in list(range(s.size)) + [-1, -s.size]:
            assert iset.interval(k) == (s[k] * iset.unit, e[k] * iset.unit)
            assert iset.midpoint(k) == (s[k] + e[k]) * iset.unit / 2
        for k in (s.size, -s.size - 1):
            with pytest.raises(IndexError):
                iset.interval(k)
        order = np.argsort(hs)
        n_overlapping += bool(np.any(hs[order][1:] < he[order][:-1]))
    assert n_overlapping  # some padded heavy cells overlap


def test_verify_flags_a_view_keeping_a_piece_in_a_heavy_cell():
    """A view that keeps one piece from the middle of a dropped run fails
    check (1), and check (2): the piece lies inside the heavy cell, read
    from the measure's masses. No random sample is taken."""
    params = GoodSetParams(lam=5, depth=2)
    iset = materialize_good_set(DELTA_HALF, params)
    (lo,), (hi,) = iset.drop_lo.tolist(), iset.drop_hi.tolist()
    assert verify_good_set(DELTA_HALF, params, iset, n_samples=0).midpoints_ok
    mid = (lo + hi) // 2
    doctored = dataclasses.replace(iset, drop_lo=np.array([lo, mid + 1]),
                                   drop_hi=np.array([mid, hi]))
    assert doctored.n_intervals == iset.n_intervals + 1
    rep = verify_good_set(DELTA_HALF, params, doctored, n_samples=0)
    assert not rep.midpoints_ok
    assert not rep.light_cells_ok and rep.n_midpoints == iset.n_intervals + 1


def test_verify_reads_heavy_cells_from_the_masses_alone(monkeypatch):
    """Ten atoms of 1/10, one in each of ten generation-2 cells at lam 5,
    make those cells heavy (1/10 >= 1/25) under light generation-1 cells.
    A _buried that buries every generation-2 cell keeps a piece in each,
    and verification sharing that _buried finds no dropped run
    missing, no midpoint on a shell and no concentrated window: the
    light-cell check alone, reading the heavy cells off the exact masses,
    sees them."""
    v = make_step_measure([(Fraction(2 * k + 1, 20) + Fraction(1, 1250),
                            Fraction(1, 10)) for k in range(10)])
    params = GoodSetParams(lam=5, depth=2)
    honest = materialize_good_set(v, params)
    rep = verify_good_set(v, params, honest, n_samples=0)
    assert rep.midpoints_ok and rep.non_concentration_ok \
        and rep.light_cells_ok
    monkeypatch.setattr(good_radii, "_buried",
                        lambda removed, lam, n, j: n >= 2)
    iset = materialize_good_set(v, params)
    assert iset.n_intervals == honest.n_intervals + 10
    rep = verify_good_set(v, params, iset, n_samples=0)
    assert rep.midpoints_ok and rep.non_concentration_ok
    assert not rep.light_cells_ok


# lam 3, depth 2 in units of 1/729: generation-1 gridlines every 81 units
# with shells of 27, generation-2 gridlines every 9 with shells of 1; one
# period of 729 units, repeated once. [28, 35], [37, 44] and [46, 53] are
# clear; [703, 705] sits in the generation-1 shell around 729, [683, 684]
# in a generation-2 shell only and [25, 27] in the generation-1 shell
# around 0.
@pytest.mark.parametrize("starts, ends", [
    ([28, 37, 46, 703], [35, 44, 53, 705]),  # only the last piece fails
    ([25, 37, 46, 683], [27, 44, 53, 684]),  # the lower generation wins
])
def test_clearance_violation_in_the_last_partial_chunk(starts, ends):
    pieces = good_radii.PeriodicPieces(np.asarray(starts, dtype=np.int64),
                                       np.asarray(ends, dtype=np.int64),
                                       period=729, repeats=1)
    # the lowest violated generation, wherever its piece lies
    assert good_radii._clearance_failure(pieces, 3, 2) == 1


def test_clearance_checks_each_translate_when_the_period_is_off_grid():
    """lam 5, depth 1 (cells of 5 units, shells of 1): the piece [2, 3]
    clears, its translate by 7 units, [9, 10], sits in the shell around 10.
    A period of 5 units would move it onto a clear spot again."""
    for period, repeats, ok in ((7, 1, True), (7, 2, False), (5, 25, True)):
        iset = _one_period(P5, [2], [3], period=period, repeats=repeats)
        assert good_radii._clearance_failure(iset.base, 5, 1) == (not ok)
        assert verify_good_set(EMPTY, P5, iset, n_samples=0).midpoints_ok \
            == ok


def test_verify_checks_the_clearance_of_the_set_it_is_given():
    """The one piece [4, 6] of 1/125 has its midpoint 1/25 on a
    generation-1 gridline: no measure or sample is needed to reject it."""
    iset = _one_period(P5, [4], [6])
    assert not is_good_radius(EMPTY, iset.midpoint(0), P5).ok
    rep = verify_good_set(EMPTY, P5, iset, n_samples=0)
    assert not rep.midpoints_ok
    assert rep.n_scalar_checked == 0 and rep.light_cells_ok


def test_verify_reuses_the_cached_clearance_only_for_the_cached_period(
        monkeypatch):
    calls = []
    real = good_radii._clearance_failure

    def counting(pieces, lam, depth):
        calls.append((pieces.period, pieces.repeats, lam, depth))
        return real(pieces, lam, depth)
    monkeypatch.setattr(good_radii, "_clearance_failure", counting)
    params = GoodSetParams(lam=5, depth=2)
    good_radii._base_good.cache_clear()
    try:
        for v in (EMPTY, DELTA_HALF):
            iset = materialize_good_set(v, params)
            assert verify_good_set(v, params, iset).midpoints_ok
        assert calls == [(625, 25, 5, 2)]  # built once, then trusted
        copied = dataclasses.replace(iset, base=dataclasses.replace(
            iset.base, starts=iset.base.starts.copy()))
        assert verify_good_set(DELTA_HALF, params, copied).midpoints_ok
        assert calls == [(625, 25, 5, 2)] * 2
    finally:
        good_radii._base_good.cache_clear()


def test_verify_requires_the_params_grid():
    iset = materialize_good_set(EMPTY, P5)
    with pytest.raises(InputError, match="grid"):
        verify_good_set(EMPTY, P5, dataclasses.replace(iset,
                                                       unit=iset.unit / 2))
    with pytest.raises(InputError, match="grid"):
        verify_good_set(EMPTY, GoodSetParams(lam=5, depth=2), iset)


@pytest.mark.parametrize("starts, ends", [
    ([-1, 3], [2, 4]),  # a piece starting below 0
    ([1, 3], [2, 10]),  # a piece ending at the period
    ([1, 3], [1, 4]),   # an empty piece
    ([3, 1], [4, 2]),   # unsorted
    ([1, 3], [4, 5]),   # overlapping
])
def test_period_pieces_must_lie_inside_the_period(starts, ends):
    with pytest.raises(InputError, match="period"):
        _one_period(P5, starts, ends, period=10, repeats=3)


def test_an_empty_period_is_an_empty_set():
    iset = _one_period(P5, [], [], repeats=3)
    assert (iset.n_intervals, iset.total_units) == (0, 0)
    assert iset.to_json() == {"intervals": [], "total_length": [0, 1]}
    rep = verify_good_set(DELTA_HALF, P5, iset)
    assert rep.midpoints_ok and rep.non_concentration_ok
    assert rep.n_midpoints == rep.n_scalar_checked == 0


def _one_period(params, starts, ends, period=None, repeats=1, drop=(0, 0)):
    """A view on params' grid of `repeats` translates of the pieces, the
    base indices in [drop[0], drop[1]) dropped. The default period reaches
    one unit past I, so a piece may end on I's right end."""
    runs = ([drop[0]], [drop[1]]) if drop[1] > drop[0] else ([], [])
    return good_radii.IntervalSet(
        base=good_radii.PeriodicPieces(
            np.asarray(starts, dtype=np.int64),
            np.asarray(ends, dtype=np.int64),
            period=period or params.lam ** (3 * params.depth) + 1,
            repeats=repeats),
        drop_lo=np.asarray(runs[0], np.int64),
        drop_hi=np.asarray(runs[1], np.int64),
        unit=params.length / params.lam ** (3 * params.depth))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_periodic_lookups_equal_the_expanded_base(data):
    """Searches, gathers, lengths below, midpoint searches and kept totals
    from one period against the same queries on the expanded arrays. The period has at
    most half as many pieces as units, so J m and J T differ from J = 1."""
    period = data.draw(st.integers(2, 40))
    cuts = sorted(data.draw(st.sets(st.integers(0, period - 1), min_size=2,
                                    max_size=12)))
    ps = np.asarray(cuts[0:len(cuts) - 1:2], dtype=np.int64)
    pe = np.asarray(cuts[1::2], dtype=np.int64)
    repeats, m = data.draw(st.integers(1, 6)), ps.size
    shift = np.arange(repeats, dtype=np.int64)[:, None] * period
    full_s = (ps[None, :] + shift).ravel()
    full_e = (pe[None, :] + shift).ravel()
    n = full_s.size
    runs = data.draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)),
                              max_size=4))
    drop_lo, drop_hi = good_radii._merged_runs(
        np.asarray([a for a, _ in runs], np.int64),
        np.asarray([b for _, b in runs], np.int64))
    base = good_radii.PeriodicPieces(ps, pe, period=period, repeats=repeats)
    iset = good_radii.IntervalSet(
        base=base, drop_lo=drop_lo, drop_hi=drop_hi, unit=Fraction(1, 7))

    xs = np.asarray(sorted(
        {j * period + d for j in range(-1, repeats + 2) for d in (-1, 0, 1)}
        | set(full_s.tolist()) | set(full_e.tolist())
        | {-period - 3, repeats * period, repeats * period + 5}),
        dtype=np.int64)
    for pieces, full in ((ps, full_s), (pe, full_e)):
        for side in ("left", "right"):
            assert base.search(pieces, xs, side).tolist() \
                == np.searchsorted(full, xs, side).tolist(), (pieces, side)
        i = np.arange(n)
        assert base.at(pieces, i).tolist() == full.tolist()
        assert base.at(pieces, i % m).tolist() == pieces[i % m].tolist()
    assert [base.piece(i) for i in range(n)] \
        == list(zip(full_s.tolist(), full_e.tolist()))

    mids = full_s + full_e
    probes = np.unique(np.concatenate([mids - 1, mids, mids + 1]))
    assert good_radii._first_midpoint_at_least(iset, probes).tolist() \
        == np.searchsorted(mids, probes).tolist()

    keep = np.ones(n, dtype=bool)
    for lo, hi in zip(drop_lo.tolist(), drop_hi.tolist()):
        keep[lo:hi] = False
    lengths = np.concatenate([[0], np.cumsum(full_e - full_s)])
    assert base.units_below(np.arange(n + 1)).tolist() == lengths.tolist()
    assert iset.total_units == int((full_e - full_s)[keep].sum())
    assert iset.n_intervals == int(keep.sum())
    assert iset.starts.tolist() == full_s[keep].tolist()
    assert iset.ends.tolist() == full_e[keep].tolist()


def test_sets_with_two_dropped_runs_compare_without_raising():
    """Masses 1/2 at 1/5 and at 4/5 drop two runs at lam 5, depth 2. A set
    equals itself; two materializations are two sets, and comparing them
    is no elementwise comparison of their run arrays."""
    v = make_step_measure([(Fraction(1, 5), Fraction(1, 2)),
                           (Fraction(4, 5), Fraction(1, 2))])
    params = GoodSetParams(lam=5, depth=2)
    one, two = (materialize_good_set(v, params) for _ in range(2))
    assert one.drop_lo.tolist() == [75, 300]
    assert one == one
    assert not one == two
    assert one.base == two.base  # the one cached base


def test_merged_runs():
    lo, hi = good_radii._merged_runs(np.asarray([5, 0, 3, 9, 12, 13]),
                                     np.asarray([7, 4, 5, 9, 14, 14]))
    assert lo.tolist() == [0, 12] and hi.tolist() == [7, 14]


@pytest.mark.parametrize("start, end, clear", [(61, 62, False),
                                               (63, 64, False),
                                               (63, 65, True)])
def test_non_concentration_windows_are_closed(start, end, clear):
    """The point mass at 1/2 violates the window bound for t in
    [1/2 - 1/125, 1/2 + 1/125], midpoints 123 to 127 in units of 1/250; a
    one-piece view with its midpoint on either end fails check (4)."""
    iset = _one_period(P5, [start], [end])
    rep = verify_good_set(DELTA_HALF, P5, iset, n_samples=0)
    assert rep.non_concentration_ok == clear


@st.composite
def oracle_cases(draw):
    """A measure, parameters, and a radius t in I = [0, 1]: on a gridline,
    exactly on a shell edge, one unit inside the shell, in the last cell,
    or anywhere. Atoms sit on gridlines, on shell edges, on 1 (the last
    cell's closed end) or anywhere. Positions are >= 0, so a shell edge or
    inside point below gridline 0 is mirrored above it."""
    lam, depth = draw(st.integers(3, 5)), draw(st.integers(1, 2))
    params = GoodSetParams(lam=lam, depth=depth)
    unit = Fraction(1, lam ** (3 * depth + 2))

    def gridline(n):
        return Fraction(draw(st.integers(0, lam ** (2 * n))), lam ** (2 * n))

    def point(kind, n):
        h = params.shell_half_width(n)
        sign = draw(st.sampled_from([-1, 1]))
        return {"gridline": lambda: gridline(n),
                "edge": lambda: abs(gridline(n) + sign * h),
                "inside": lambda: abs(gridline(n) + sign * (h - unit)),
                "last": lambda: 1 - draw(st.integers(1, 4)) * unit,
                "end": lambda: Fraction(1),
                "free": lambda: draw(st.fractions(0, 1))}[kind]()

    kinds = ["gridline", "edge", "inside", "last", "free"]
    atoms = [(point(draw(st.sampled_from(kinds + ["end"])),
                    draw(st.integers(1, depth))),
              draw(st.fractions(0, 1, max_denominator=40)))
             for _ in range(draw(st.integers(0, 6)))]
    total = sum(m for _, m in atoms)
    if total > 1:
        atoms = [(p, m / total) for p, m in atoms]
    kind, n = draw(st.sampled_from(kinds)), draw(st.integers(1, depth))
    return make_step_measure(atoms), params, kind, n, point(kind, n)


@settings(max_examples=300, deadline=None)
@given(case=oracle_cases())
def test_integer_predicate_equals_the_fraction_oracle(case):
    """Whole results agree with the Fraction definitions: the rejecting
    generation and reason, or every witness; and every concentration
    window."""
    v, params, kind, n, t = case
    for m in range(1, params.depth + 1):
        assert concentration_violations(v, params, m) \
            == oracles.concentration_violations(v, params, m)
    if not 0 < t < 1:
        return
    res = is_good_radius(v, t, params)
    assert res == oracles.is_good_radius(v, t, params)
    shell_reject = (not res.ok and res.generation == n
                    and res.reason == good_radii.GRIDLINE_SHELL)
    if kind == "edge":  # clearance exactly the half-width: not in the shell
        assert not shell_reject
    if kind == "inside":
        assert not res.ok and res.generation <= n


def _check4_case(data):
    """Parameters and a measure whose atoms crowd [0, near u], on the grid
    of half units u/2 (where midpoints and window ends meet) or off it."""
    lam, depth = data.draw(st.integers(3, 4)), data.draw(st.integers(1, 2))
    params = GoodSetParams(lam=lam, depth=depth)
    big = lam ** (3 * depth)
    near = min(big - 1, 32)
    unit = Fraction(1, big)
    atoms = data.draw(st.lists(st.tuples(
        st.integers(1, 2 * near),
        st.sampled_from([0, 0, Fraction(1, 3), Fraction(-2, 5)]),
        st.fractions(0, 1, max_denominator=12)), max_size=8))
    total = sum(m for _, _, m in atoms)
    v = make_step_measure([((k + off) * unit / 2,
                            m / total if total > 1 else m)
                           for k, off, m in atoms])
    windows = [w for n in range(1, depth + 1)
               for w in oracles.concentration_violations(v, params, n)]
    return params, v, big, near, windows


def _assert_check4_matches_the_oracle(v, params, iset, windows):
    """verify_good_set's check (4) against every kept midpoint tested
    against every Fraction window."""
    clear = not any(lo <= iset.midpoint(k) <= hi for lo, hi in windows
                    for k in range(iset.n_intervals))
    rep = verify_good_set(v, params, iset, n_samples=0)
    assert rep.non_concentration_ok == clear


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_non_concentration_check_equals_the_midpoint_oracle(data):
    """Check (4) on views of random disjoint pieces, some dropped."""
    params, v, big, near, windows = _check4_case(data)
    cuts = sorted(set(data.draw(st.lists(st.integers(1, near),
                                         min_size=2, max_size=16))))
    starts, ends = cuts[0:len(cuts) - 1:2], cuts[1::2]
    d0 = data.draw(st.integers(0, len(starts)))
    iset = _one_period(params, starts, ends,
                       drop=(d0, data.draw(st.integers(d0, len(starts)))))
    _assert_check4_matches_the_oracle(v, params, iset, windows)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_non_concentration_check_is_exact_at_window_ends(data):
    """Check (4) on one piece whose midpoint is a window's first or last
    half unit inside it, or the half unit just outside."""
    params, v, big, near, windows = _check4_case(data)
    if not windows:
        return
    lo, hi = data.draw(st.sampled_from(windows))
    half = params.length / big / 2
    inside_lo = math.ceil(lo / half)
    inside_hi = math.floor(hi / half)
    m = data.draw(st.sampled_from([inside_lo - 1, inside_lo, inside_hi,
                                   inside_hi + 1]))
    s = (m - 1) // 2 if m % 2 else (m - 2) // 2  # e - s is 1 or 2
    if not 0 <= s < m - s <= big:
        return
    iset = _one_period(params, [s], [m - s])
    _assert_check4_matches_the_oracle(v, params, iset, windows)
