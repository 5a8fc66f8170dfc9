"""Fractal and random test-measure generators.

four_corner_cantor: the self-similar set of four ratio-1/4 maps at the unit
square's corners, level m: 4^m atoms of weight 4^-m at the lower-left corners
of the generation-m cells. cantor_1d: two maps of ratio rho on [0, 1].
Outputs are deterministic for a fixed spec and come rescaled to unit
diameter; r_min is the construction cell size after rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, InputError
from .measure import DiscreteMeasure, make_measure
from .metric import (EUCLIDEAN_P, MetricDescriptor, PointCloud, _distance_rows,
                     make_cloud, rescale_to_unit_diameter, tile_map)

FOUR_CORNER = "four_corner_cantor"
CANTOR_1D = "cantor_1d"
UNIFORM_RANDOM = "uniform_random"

MAX_ATOMS = 4 ** 8


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    level: int = 1
    ratio: float = 0.25          # cantor_1d contraction, in (0, 1/2)
    count: int = 64              # uniform_random
    seed: int = 0
    metric: MetricDescriptor | None = None

    def __post_init__(self):
        if self.family not in (FOUR_CORNER, CANTOR_1D, UNIFORM_RANDOM):
            raise InputError(f"unknown generator family {self.family!r}")
        if self.family == CANTOR_1D and not 0.0 < self.ratio < 0.5:
            raise InputError("cantor_1d ratio must lie in (0, 1/2)")
        if self.family == UNIFORM_RANDOM and self.count < 2:
            raise InputError(f"uniform_random count must be >= 2, "
                             f"got {self.count}")


def _default_metric(family: str) -> MetricDescriptor:
    dim = 1 if family == CANTOR_1D else 2
    return MetricDescriptor(family=EUCLIDEAN_P, dimension=dim, p=2.0)


def generate(spec: GeneratorSpec
             ) -> tuple[PointCloud, DiscreteMeasure, float]:
    """Build (cloud, measure, r_min); the cloud has unit diameter.

    The N^2 passes walk the upper triangle serially. make_cloud's diameter
    pass evaluates only the blocks of 64 ids whose exact distance bounds
    allow the diameter or a duplicate pair, so a fractal cloud, whose
    consecutive ids are near, skips most of them; a uniform cloud's r_min
    walks every row tile."""
    metric = spec.metric or _default_metric(spec.family)
    if spec.family == FOUR_CORNER:
        if 4 ** spec.level > MAX_ATOMS:
            raise BudgetError(f"level {spec.level} exceeds {MAX_ATOMS} atoms")
        coords = _four_corner_coords(spec.level)
        weights = np.full(len(coords), 4.0 ** -spec.level)
        cell = 4.0 ** -spec.level
    elif spec.family == CANTOR_1D:
        if 2 ** spec.level > MAX_ATOMS:
            raise BudgetError(f"level {spec.level} exceeds {MAX_ATOMS} atoms")
        coords = _cantor_1d_coords(spec.level, spec.ratio)
        weights = np.full(len(coords), 2.0 ** -spec.level)
        cell = spec.ratio ** spec.level
    else:
        if spec.count > MAX_ATOMS:
            raise BudgetError(f"count {spec.count} exceeds {MAX_ATOMS} atoms")
        rng = np.random.default_rng(spec.seed)
        coords = rng.random((spec.count, metric.dimension))
        weights = np.full(spec.count, 1.0 / spec.count)
        cell = 0.0
    cloud = make_cloud(coords, metric)
    cloud, scale = rescale_to_unit_diameter(cloud)
    if spec.family == UNIFORM_RANDOM:
        # resolution floor: the smallest distance d(x, y), y > x
        every = np.arange(cloud.n_points)

        def tile(rows):
            cols = every[rows[0]:]
            return np.where(cols[None, :] > rows[:, None],
                            _distance_rows(cloud, rows, cols),
                            np.inf).min(axis=1)
        r_min = float(tile_map(tile, every, cloud.n_points).min())
    else:
        r_min = cell / scale if metric.family != "snowflake" \
            else (cell / scale ** (1.0 / metric.alpha)) ** metric.alpha
    return cloud, make_measure(cloud, weights), r_min


def _four_corner_coords(level: int) -> np.ndarray:
    corners = np.asarray([[0.0, 0.0], [0.75, 0.0], [0.0, 0.75], [0.75, 0.75]])
    pts = np.zeros((1, 2))
    for k in range(level):
        # lower-left corners of generation-(k+1) cells
        pts = (pts[:, None, :] + corners[None, :, :] * 4.0 ** -k).reshape(-1, 2)
    return pts


def _cantor_1d_coords(level: int, ratio: float) -> np.ndarray:
    pts = np.zeros((1, 1))
    for _ in range(level):
        pts = np.concatenate([pts * ratio, pts * ratio + (1.0 - ratio)])
    order = np.argsort(pts[:, 0], kind="stable")
    return pts[order]
