import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from oracles import dense_distances
from sio_lab.errors import DegenerateInputError, InputError
from sio_lab.metric import (MetricDescriptor, _pair_distances,
                            cloud_from_json, cloud_to_json, distance,
                            make_cloud, rescale_to_unit_diameter,
                            validate_metric)

E2 = MetricDescriptor(family="euclidean_p", dimension=2, p=2.0)


def test_distance_unit_segment():
    cloud = make_cloud([[0.0, 0.0], [1.0, 0.0]], E2)
    assert distance(cloud, 0, 1) == 1.0


def test_distance_max_norm():
    md = MetricDescriptor(family="euclidean_p", dimension=2, p=math.inf)
    cloud = make_cloud([[1.0, 2.0], [4.0, 3.0]], md)
    assert distance(cloud, 0, 1) == 3.0


def test_distance_snowflake_sqrt():
    md = MetricDescriptor(family="snowflake", dimension=2, p=2.0, alpha=0.5)
    cloud = make_cloud([[0.0, 0.0], [4.0, 0.0]], md)
    assert distance(cloud, 0, 1) == 2.0  # 4^0.5


def test_distance_bit_symmetric():
    rng = np.random.default_rng(1)
    cloud = make_cloud(rng.random((20, 2)), E2)
    for i in range(20):
        for j in range(20):
            assert distance(cloud, i, j) == distance(cloud, j, i)


def test_unknown_id_raises():
    cloud = make_cloud([[0.0, 0.0], [1.0, 0.0]], E2)
    with pytest.raises(InputError):
        distance(cloud, 0, 2)


def test_validate_euclidean_ok():
    rng = np.random.default_rng(0)
    assert validate_metric(make_cloud(rng.random((5, 2)), E2)).all_ok


def test_validate_snowflake_ok():
    md = MetricDescriptor(family="snowflake", dimension=2, p=2.0, alpha=0.5)
    rng = np.random.default_rng(0)
    assert validate_metric(make_cloud(rng.random((5, 2)), md)).all_ok


def test_validate_squared_euclidean_fails_triangle():
    # squared Euclidean on {0, 1, 2} in R^1: 4 > 1 + 1
    coords = [[0.0], [1.0], [2.0]]
    table = [[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]]
    md = MetricDescriptor(family="custom_table", dimension=1)
    report = validate_metric(make_cloud(coords, md, table=table))
    assert not report.triangle_ok
    assert report.worst_triple == (0, 1, 2)


def test_rescale_two_points():
    cloud = make_cloud([[0.0, 0.0], [2.0, 0.0]], E2)
    new, scale = rescale_to_unit_diameter(cloud)
    assert scale == 2.0
    assert distance(new, 0, 1) == 1.0
    assert new.diameter == 1.0


def test_rescale_identity_when_unit():
    cloud = make_cloud([[0.0, 0.0], [1.0, 0.0]], E2)
    new, scale = rescale_to_unit_diameter(cloud)
    assert scale == 1.0
    assert np.array_equal(new.coords, cloud.coords)


def test_rescale_four_corner_level1():
    # diameter is the diagonal (3/4) sqrt(2)
    pts = [[0.0, 0.0], [0.75, 0.0], [0.0, 0.75], [0.75, 0.75]]
    cloud = make_cloud(pts, E2)
    expected = 0.75 * math.sqrt(2.0)
    assert cloud.diameter == pytest.approx(expected, rel=1e-15)
    new, scale = rescale_to_unit_diameter(cloud)
    assert scale == cloud.diameter
    assert new.diameter == 1.0


def test_rescale_idempotent():
    rng = np.random.default_rng(3)
    cloud = make_cloud(rng.random((10, 2)) * 7.0, E2)
    once, _ = rescale_to_unit_diameter(cloud)
    twice, scale2 = rescale_to_unit_diameter(once)
    assert abs(scale2 - 1.0) <= 1e-14
    assert np.allclose(twice.coords, once.coords, rtol=1e-14, atol=0.0)


def test_rescale_single_point_degenerate():
    with pytest.raises(DegenerateInputError):
        rescale_to_unit_diameter(make_cloud([[0.0, 0.0]], E2))


def test_json_roundtrip():
    md = MetricDescriptor(family="euclidean_p", dimension=2, p=math.inf)
    cloud = make_cloud([[0.5, 1.5], [2.0, 0.0]], md)
    back = cloud_from_json(cloud_to_json(cloud))
    assert np.array_equal(back.coords, cloud.coords)
    assert math.isinf(back.metric.p)
    assert back.diameter == cloud.diameter


@settings(max_examples=60, deadline=None)
@given(coords=st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
                       min_size=3, max_size=12, unique=True),
       p=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
       alpha=st.sampled_from([0.3, 0.5, 1.0]))
def test_triangle_inequality_property(coords, p, alpha):
    md = MetricDescriptor(family="snowflake", dimension=2, p=p, alpha=alpha)
    try:
        cloud = make_cloud(coords, md)
    except DegenerateInputError:  # distinct points whose distance underflows
        reject()
    n = cloud.n_points
    dmat = dense_distances(cloud)
    slack = 1e-12 * max(1.0, float(dmat.max()))
    for y in range(n):
        assert np.all(dmat <= dmat[:, y, None] + dmat[None, y, :] + slack)


@pytest.mark.parametrize("dim", range(1, 8))
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_per_coordinate_norm_matches_summed_formula(dim, p):
    # the former formula: a reduction over a trailing coordinate axis
    rng = np.random.default_rng(dim)
    x = rng.random((40, dim)) * 10.0 ** rng.uniform(-4, 4, size=dim)
    gaps = np.abs(x[:, None, :] - x[None, :, :])
    if math.isinf(p):
        old = gaps.max(axis=-1)
    elif p == 2.0:
        old = np.sqrt((gaps * gaps).sum(axis=-1))
    elif p == 1.0:
        old = gaps.sum(axis=-1)
    else:
        old = (gaps ** p).sum(axis=-1) ** (1.0 / p)
    for md, want in ((MetricDescriptor("euclidean_p", dim, p=p), old),
                     (MetricDescriptor("snowflake", dim, p=p, alpha=0.5),
                      old ** 0.5)):
        cloud = make_cloud(x, md)
        assert np.array_equal(dense_distances(cloud), want)
        assert np.array_equal(_pair_distances(cloud, [3, 7], [11, 2]),
                              want[[3, 7], [11, 2]])


def test_diameter_pass_walks_row_tiles(monkeypatch):
    from sio_lab import metric
    monkeypatch.setattr(metric, "_TILE_PAIRS", 3 * 50)
    rng = np.random.default_rng(4)
    for md in (E2, MetricDescriptor("euclidean_p", 3, p=1.0)):
        cloud = make_cloud(rng.random((50, md.dimension)), md)
        assert cloud.diameter == dense_distances(cloud).max()
        with pytest.raises(DegenerateInputError):  # a duplicate in tile 12
            make_cloud(np.concatenate([cloud.coords, cloud.coords[7:8]]), md)


def test_make_cloud_rejects_duplicates_and_non_finite():
    # formerly accepted: check_size_bound then returned (nan, (0, 1))
    with pytest.raises(DegenerateInputError):
        make_cloud([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]], E2)
    with pytest.raises(DegenerateInputError):  # distance underflows to 0
        make_cloud([[0.0], [1e-200]], MetricDescriptor("euclidean_p", 1))
    with pytest.raises(InputError):
        make_cloud([[0.0, 0.0], [np.nan, 1.0]], E2)
    with pytest.raises(InputError):
        make_cloud([[0.0, 0.0], [np.inf, 1.0]], E2)
    md = MetricDescriptor(family="custom_table", dimension=1)
    with pytest.raises(DegenerateInputError):  # table says 1 and 2 coincide
        make_cloud([[0.0], [1.0], [2.0]], md,
                   table=[[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(InputError):
        make_cloud([[0.0], [1.0]], md, table=[[0.0, np.nan], [np.nan, 0.0]])
    # a nonzero diagonal entry or an asymmetric pair is named
    with pytest.raises(InputError, match=r"d\(0, 0\) = 3.0 on the diagonal"):
        make_cloud([[0.0], [1.0]], md, table=[[3.0, 1.0], [1.0, 0.0]])
    with pytest.raises(InputError,
                       match=r"d\(0, 1\) = 1.0 but d\(1, 0\) = 2.0"):
        make_cloud([[0.0], [1.0], [2.0]], md,
                   table=[[0.0, 1.0, 5.0], [2.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    # coordinates do not matter under a table metric
    assert make_cloud([[0.0], [0.0]], md,
                      table=[[0.0, 2.0], [2.0, 0.0]]).diameter == 2.0
