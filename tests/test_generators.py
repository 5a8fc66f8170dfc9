import math

import numpy as np
import pytest

from oracles import dense_distances
from sio_lab import metric
from sio_lab.errors import BudgetError, InputError
from sio_lab.generators import GeneratorSpec, generate


def test_four_corner_level1():
    spec = GeneratorSpec(family="four_corner_cantor", level=1)
    cloud, m, r_min = generate(spec)
    scale = 0.75 * math.sqrt(2.0)
    expected = np.asarray([[0.0, 0.0], [0.75, 0.0],
                           [0.0, 0.75], [0.75, 0.75]]) / scale
    assert np.allclose(cloud.coords, expected, rtol=1e-15)
    assert np.array_equal(m.weights, np.full(4, 0.25))
    assert cloud.diameter == 1.0
    assert r_min == pytest.approx(0.25 / scale, rel=1e-15)


def test_cantor_1d_level1():
    spec = GeneratorSpec(family="cantor_1d", level=1, ratio=1.0 / 3.0)
    cloud, m, r_min = generate(spec)
    # atoms {0, 2/3} pre-rescale; diameter 2/3 -> {0, 1}
    assert np.allclose(cloud.coords.ravel(), [0.0, 1.0], atol=1e-15)
    assert np.array_equal(m.weights, [0.5, 0.5])


def test_four_corner_level3():
    cloud, m, _ = generate(GeneratorSpec(family="four_corner_cantor", level=3))
    assert cloud.n_points == 64
    assert m.total_mass == pytest.approx(1.0, rel=1e-15)
    assert cloud.diameter == 1.0


def test_corner_atom_zero_is_origin_every_level():
    for level in (1, 2, 3, 4):
        cloud, _, _ = generate(GeneratorSpec(family="four_corner_cantor",
                                             level=level))
        assert np.array_equal(cloud.coords[0], [0.0, 0.0])


def test_determinism_bit_exact():
    spec = GeneratorSpec(family="four_corner_cantor", level=4)
    c1, m1, r1 = generate(spec)
    c2, m2, r2 = generate(spec)
    assert np.array_equal(c1.coords, c2.coords)
    assert np.array_equal(m1.weights, m2.weights)
    assert r1 == r2
    u1, _, _ = generate(GeneratorSpec(family="uniform_random", count=32,
                                      seed=7))
    u2, _, _ = generate(GeneratorSpec(family="uniform_random", count=32,
                                      seed=7))
    assert np.array_equal(u1.coords, u2.coords)


def test_uniform_random_r_min():
    cloud, _, r_min = generate(GeneratorSpec(family="uniform_random",
                                             count=16, seed=1))
    dmat = dense_distances(cloud)
    assert r_min == float(dmat[dmat > 0].min())


def test_budget_and_ratio_validation():
    with pytest.raises(BudgetError):
        generate(GeneratorSpec(family="four_corner_cantor", level=9))
    with pytest.raises(InputError):
        GeneratorSpec(family="cantor_1d", ratio=0.5)
    with pytest.raises(InputError):
        GeneratorSpec(family="nonsense")


@pytest.mark.parametrize("tile_rows", [1, 2, 3])
def test_uniform_random_r_min_is_pinned(tile_rows, monkeypatch):
    # the CLI's --family uniform_random --count 300; the full-row walk's
    # bits, in tiles of 1, 2 or 3 rows of 300 columns
    monkeypatch.setattr(metric, "_TILE_PAIRS", tile_rows * 300)
    _cloud, _, r_min = generate(GeneratorSpec(family="uniform_random",
                                              count=300))
    assert r_min.hex() == "0x1.ea1e837a5f27fp-10"


@pytest.mark.parametrize("count", [1, 0, -3])
def test_uniform_random_needs_two_atoms(count):
    with pytest.raises(InputError, match=f"count must be >= 2, got {count}"):
        GeneratorSpec(family="uniform_random", count=count)
