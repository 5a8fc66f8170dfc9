import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from oracles import dense_distances
from sio_lab import kernels
from sio_lab.errors import DegenerateInputError, InputError
from sio_lab.generators import _four_corner_coords
from sio_lab.metric import (MetricDescriptor, PointCloud, _block_bounds,
                            _boxes, _distance_rows, cloud_from_json,
                            cloud_to_json, make_cloud,
                            rescale_to_unit_diameter)

E2 = MetricDescriptor(family="euclidean_p", dimension=2, p=2.0)
L1 = MetricDescriptor(family="euclidean_p", dimension=2, p=1.0)
SNOW = MetricDescriptor(family="snowflake", dimension=2, p=2.0, alpha=0.5)
TABLE = MetricDescriptor(family="custom_table", dimension=1)


def test_distance_unit_segment():
    cloud = make_cloud([[0.0, 0.0], [1.0, 0.0]], E2)
    assert cloud.distances_from(0)[1] == 1.0


def test_distance_max_norm():
    md = MetricDescriptor(family="euclidean_p", dimension=2, p=math.inf)
    cloud = make_cloud([[1.0, 2.0], [4.0, 3.0]], md)
    assert cloud.distances_from(0)[1] == 3.0


def test_distance_snowflake_sqrt():
    md = MetricDescriptor(family="snowflake", dimension=2, p=2.0, alpha=0.5)
    cloud = make_cloud([[0.0, 0.0], [4.0, 0.0]], md)
    assert cloud.distances_from(0)[1] == 2.0  # 4^0.5


def test_distance_bit_symmetric():
    rng = np.random.default_rng(1)
    cloud = make_cloud(rng.random((20, 2)), E2)
    for i in range(20):
        for j in range(20):
            assert cloud.distances_from(i)[j] == cloud.distances_from(j)[i]


def test_unknown_id_raises():
    cloud = make_cloud([[0.0, 0.0], [1.0, 0.0]], E2)
    with pytest.raises(InputError):
        cloud.distances_from(2)


def table_of(md):
    """The distance table of five random points under md, as a table
    cloud, and the cloud it came from."""
    cloud = make_cloud(np.random.default_rng(0).random((5, 2)), md)
    return make_cloud(cloud.coords[:, :1], TABLE,
                      table=dense_distances(cloud)), cloud


def test_validate_euclidean_ok():
    table, cloud = table_of(E2)
    assert table.diameter == cloud.diameter
    assert rescale_to_unit_diameter(table)[0].diameter == 1.0


def test_validate_snowflake_ok():
    table, cloud = table_of(SNOW)
    assert table.diameter == cloud.diameter
    assert rescale_to_unit_diameter(table)[0].diameter == 1.0


def test_validate_squared_euclidean_fails_triangle():
    # squared Euclidean on {0, 1, 2} in R^1: 4 > 1 + 1
    with pytest.raises(InputError, match=re.escape(
            "d(0, 2) = 4.0 > d(0, 1) + d(1, 2) = 1.0 + 1.0, excess 2.0")):
        make_cloud([[0.0], [1.0], [2.0]], TABLE,
                   table=[[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]])


@pytest.mark.parametrize("table,message", [
    # symmetric, but 5 > 1 + 1
    ([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]],
     "d(0, 2) = 5.0 > d(0, 1) + d(1, 2) = 1.0 + 1.0, excess 3.0"),
    # a negative distance breaks the triple (0, 1, 0): 0 > -1 + -1
    ([[0.0, -1.0], [-1.0, 0.0]],
     "d(0, 0) = 0.0 > d(0, 1) + d(1, 0) = -1.0 + -1.0, excess 2.0"),
], ids=["roadmap", "negative"])
def test_make_cloud_rejects_a_table_breaking_the_triangle_inequality(
        table, message):
    with pytest.raises(InputError) as exc:
        make_cloud([[float(i)] for i in range(len(table))], TABLE,
                   table=table)
    assert str(exc.value) == f"custom table is not a metric: {message}"


def test_a_violation_below_half_an_ulp_is_caught_by_the_tie_rule():
    # 1 + 0.75 ulp(1) rounds up to 1 + ulp(1): fl(a + b) == c, a + b < c
    a, b, c = 1.0, 0.75 * 2.0 ** -52, 1.0 + 2.0 ** -52
    assert a + b == c
    with pytest.raises(InputError, match=re.escape(
            f"d(0, 2) = {c!r} > d(0, 1) + d(1, 2) = {a!r} + {b!r}, "
            f"excess {2.0 ** -54!r}")):
        make_cloud([[0.0], [1.0], [2.0]], TABLE,
                   table=[[0.0, a, c], [a, 0.0, b], [c, b, 0.0]])
    # an exact tie is no violation
    make_cloud([[0.0], [1.0], [2.0]], TABLE,
               table=[[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])


@pytest.mark.parametrize("tile_pairs", [1, 2])
def test_the_triple_named_is_the_first_in_row_major_order(tile_pairs,
                                                         monkeypatch):
    """Against every triple in Fraction arithmetic, on random symmetric
    tables of values whose sums tie or round (0.1 + 0.2 > 0.3 in floats),
    walked in tiles of 1 pair, or of 2 pairs that end mid-row."""
    from sio_lab import metric
    values = [0.1, 0.2, 0.3, 1 / 3, 2 / 3, 1.0, 0.5, 0.8]
    rng = np.random.default_rng(11)
    named = set()
    for _ in range(60):
        n = int(rng.integers(3, 7))
        monkeypatch.setattr(metric, "_TILE_PAIRS", tile_pairs * n)
        table = np.array(values)[rng.integers(0, len(values), (n, n))]
        table = np.triu(table, 1) + np.triu(table, 1).T
        exact = [[Fraction(v) for v in row] for row in table.tolist()]
        first = next(((x, y, z) for x in range(n) for y in range(n)
                      for z in range(n)
                      if exact[x][y] + exact[y][z] < exact[x][z]), None)
        try:
            metric._check_triangles(table)
            assert first is None
        except InputError as exc:
            x, y, z = first
            excess = exact[x][z] - exact[x][y] - exact[y][z]
            assert str(exc).startswith(
                f"custom table is not a metric: d({x}, {z}) = "
                f"{float(table[x, z])!r} > d({x}, {y}) + d({y}, {z})")
            assert str(exc).endswith(f"excess {float(excess)!r}")
            named.add((x, y, z))
    assert len(named) > 5


def test_rescaling_checks_the_divided_table():
    # 1 + 2 = 3 holds exactly, but fl(1/3) + fl(2/3) = 1 - 2^-54 < 1,
    # which rounds to 1 = fl(3/3): only the tie rule sees the violation
    cloud = make_cloud([[0.0], [1.0], [2.0]], TABLE,
                       table=[[0.0, 1.0, 3.0], [1.0, 0.0, 2.0],
                              [3.0, 2.0, 0.0]])
    with pytest.raises(InputError, match=re.escape(
            f"d(0, 2) = 1.0 > d(0, 1) + d(1, 2) = {1 / 3!r} + {2 / 3!r}, "
            f"excess {2.0 ** -54!r}")):
        rescale_to_unit_diameter(cloud)


def test_rescale_two_points():
    cloud = make_cloud([[0.0, 0.0], [2.0, 0.0]], E2)
    new, scale = rescale_to_unit_diameter(cloud)
    assert scale == 2.0
    assert new.distances_from(0)[1] == 1.0
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
        rows, cols = np.array([3, 7]), np.array([11, 2, 30])
        assert np.array_equal(_distance_rows(cloud, rows, cols),
                              want[np.ix_(rows, cols)])


def test_diameter_pass_walks_row_tiles(monkeypatch):
    from sio_lab import metric
    monkeypatch.setattr(metric, "_TILE_PAIRS", 3 * 50)
    rng = np.random.default_rng(4)
    for md in (E2, MetricDescriptor("euclidean_p", 3, p=1.0)):
        cloud = make_cloud(rng.random((50, md.dimension)), md)
        assert cloud.diameter == dense_distances(cloud).max()
        with pytest.raises(DegenerateInputError):  # a duplicate in tile 12
            make_cloud(np.concatenate([cloud.coords, cloud.coords[7:8]]), md)


def full_row_walk(coords, md):
    """The diameter and the duplicate-pair message of a walk of every full
    row: the dense matrix's maximum and its row-major first zero off the
    diagonal."""
    dmat = dense_distances(PointCloud(np.asarray(coords), md, 0.0))
    zeros = np.argwhere((dmat == 0.0) & ~np.eye(len(dmat), dtype=bool))
    if zeros.size:
        i, j = zeros[0]
        return f"points {i} and {j} are at distance 0 (duplicate atoms)"
    return float(dmat.max()).hex()


@pytest.mark.parametrize("md", [E2, L1, SNOW], ids=["E2", "L1", "snowflake"])
def test_diameter_pass_walks_the_upper_triangle(md, monkeypatch):
    from sio_lab import metric
    # the 12 x 13 integer lattice in 7-row tiles
    monkeypatch.setattr(metric, "_TILE_PAIRS", 7 * 156)
    pairs = []
    real_rows = metric._distance_rows

    def counting_rows(cloud, rows, cols=None):
        out = real_rows(cloud, rows, cols)
        pairs.append(out.size)
        return out
    monkeypatch.setattr(metric, "_distance_rows", counting_rows)
    lattice = np.array([(i, j) for i in range(12) for j in range(13)], float)
    # duplicates in one tile, across tiles, and two across tiles
    for copies in ({}, {5: 3}, {100: 3}, {150: 140, 60: 10}):
        coords = lattice.copy()
        for dst, src in copies.items():
            coords[dst] = coords[src]
        want = full_row_walk(coords, md)
        pairs.clear()
        try:
            got = float(make_cloud(coords, md).diameter).hex()
        except DegenerateInputError as exc:
            got = str(exc)
        assert got == want
        if not copies:
            # the floor reads the 4 x 4 pairs of the extreme points 0, 0,
            # 143 and 12. No block pair of the lattice is decided by its
            # bounds, so the 64-row block from b reads all 156 - b columns
            # y >= b, in tiles of 7 * 156 // (156 - b) rows, and the tile
            # of rows from x0 evaluates columns y >= x0
            assert sum(pairs) == 16 + sum(
                min(step, b + 64 - x0, 156 - x0) * (156 - x0)
                for b in range(0, 156, 64)
                for step in [7 * 156 // (156 - b)]
                for x0 in range(b, min(b + 64, 156), step)) == 13140
    assert want.startswith("points 10 and 60 ")


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


# ---------------------------------------------------------------------------
# exact distance bounds per block of 64 points


def bound_clouds(dim):
    """Coordinate sets in dimension dim: an integer lattice, whose
    consecutive blocks share box edges and whose box corners are points;
    signed random points; and signed points of magnitude 1e200, whose
    squared differences overflow."""
    rng = np.random.default_rng(dim)
    side = {1: 300, 2: 17, 3: 7}[dim]
    lattice = np.stack(np.meshgrid(*[np.arange(side)] * dim, indexing="ij"),
                       axis=-1).reshape(-1, dim).astype(float)
    signed = rng.normal(size=(200, dim)) * 10.0 ** rng.integers(-3, 4, 200)[
        :, None]
    return [lattice, signed, rng.normal(size=(150, dim)) * 1e200]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_block_bounds_contain_every_computed_distance(dim, p):
    """Every computed d(x, y) of a block, and pair_rows' d on a Euclidean
    cloud, lies in the block's [lb, ub]: rows in consecutive tiles and in
    random sets, columns in id order and in a random order."""
    md = MetricDescriptor("euclidean_p", dim, p=p)
    rng = np.random.default_rng(7)
    riesz = kernels.KernelSpec("coordinate_riesz")
    for coords in bound_clouds(dim):
        cloud = PointCloud(coords, md, 0.0)
        n = cloud.n_points
        row_sets = [np.arange(x0, min(x0 + 13, n)) for x0 in range(0, n, 37)]
        row_sets += [rng.choice(n, 5, replace=False) for _ in range(8)]
        for cols in (np.arange(n), rng.permutation(n)[:n - 7]):
            boxes = _boxes(coords[cols])
            for rows in row_sets:
                lb, ub = _block_bounds(cloud, rows, boxes)
                assert lb.size == ub.size == -(-cols.size // 64)
                for j in range(lb.size):
                    block = cols[64 * j:64 * j + 64]
                    blocks = [_distance_rows(cloud, rows, block)]
                    if p == 2.0:
                        blocks.append(kernels.pair_rows(
                            riesz, cloud, rows, block)[1])
                    for d in blocks:
                        assert lb[j] <= d.min() and d.max() <= ub[j]


def test_block_bounds_are_attained_on_lattices():
    """On an integer lattice the box corners that give ub are points, so ub
    is the block's largest computed distance; on the line, lb is the
    smallest too."""
    for dim in (1, 2):
        for p in (1.0, 2.0, math.inf):
            md = MetricDescriptor("euclidean_p", dim, p=p)
            cloud = PointCloud(bound_clouds(dim)[0], md, 0.0)
            rows = np.arange(64, 128)
            lb, ub = _block_bounds(cloud, rows, _boxes(cloud.coords))
            d = _distance_rows(cloud, rows)
            for j in range(lb.size):
                block = d[:, 64 * j:64 * j + 64]
                assert ub[j] == block.max()
                if dim == 1:
                    assert lb[j] == block.min()


@pytest.mark.parametrize("md", [
    MetricDescriptor("euclidean_p", 2, p=1.5),
    MetricDescriptor("euclidean_p", 2, p=3.0), SNOW,
    MetricDescriptor("snowflake", 2, p=1.0, alpha=1.0), TABLE])
def test_metrics_without_a_monotone_proof_bound_nothing(md):
    """np.power carries no monotone-rounding proof, and a table has no
    coordinates: every block gets (0, inf), and so is evaluated."""
    coords = np.random.default_rng(0).random((150, md.dimension))
    cloud = PointCloud(coords, md, 0.0)
    lb, ub = _block_bounds(cloud, np.arange(10), _boxes(coords))
    assert lb.tolist() == [0.0] * 3 and ub.tolist() == [math.inf] * 3


def clustered(n, md):
    """The first n lower-left corners of the level-5 four-corner cells, in
    generation order: consecutive ids are near, so many block pairs are
    decided by their bounds. dimension 1 keeps the first coordinate."""
    return _four_corner_coords(5)[:n, :md.dimension].copy()


@pytest.mark.parametrize("md", [E2, L1, MetricDescriptor(
    "euclidean_p", 2, p=math.inf), SNOW], ids=["E2", "L1", "Linf", "SNOW"])
@pytest.mark.parametrize("tile_rows", [1, 2])
def test_diameter_pass_skips_only_blocks_that_hold_neither(md, tile_rows,
                                                           monkeypatch):
    """make_cloud's diameter and the duplicate pair it names are the full
    matrix's, with a duplicate inside a block, across blocks, and across a
    block pair that the diameter floor alone would skip, in tiles of at
    least 1 or 2 rows of the live columns."""
    from sio_lab import metric
    monkeypatch.setattr(metric, "_TILE_PAIRS", tile_rows * 300)
    base = clustered(300, md)
    # duplicate 3 at 70: rows 0..63 against rows 64..127 hold no pair at
    # the floor, the largest distance among the extreme points, but the
    # boxes then overlap (lb == 0)
    coords = base.copy()
    coords[70] = coords[3]
    cloud = PointCloud(coords, md, 0.0)
    dense = dense_distances(cloud)
    ext = np.unique([coords.argmin(axis=0), coords.argmax(axis=0)])
    lb, ub = _block_bounds(cloud, np.arange(64), _boxes(coords))
    if md is not SNOW:
        assert ub[1] < dense[np.ix_(ext, ext)].max() == dense.max()
        assert lb[1] == 0.0
    for copies in ({}, {10: 20}, {200: 5}, {70: 3}, {299: 298, 150: 140}):
        coords = base.copy()
        for dst, src in copies.items():
            coords[dst] = coords[src]
        want = full_row_walk(coords, md)
        try:
            got = float(make_cloud(coords, md).diameter).hex()
        except DegenerateInputError as exc:
            got = str(exc)
        assert got == want
    assert want == "points 140 and 150 are at distance 0 (duplicate atoms)"
