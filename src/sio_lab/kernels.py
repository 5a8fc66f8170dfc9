"""Antisymmetric kernels with certified size bounds.

Coordinate Riesz kernels always use the Euclidean norm in their formula; the
size bound |k| <= c d^{-s} is then certified against the cloud's own metric,
so the certified constant absorbs any metric mismatch. Antisymmetry is
bit-exact: numerators are antisymmetric and denominators symmetric under the
vectorized evaluation, and generic bases are antisymmetrized as
(b(x,y) - b(y,x))/2, whose two orientations negate exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DiagonalError, InputError
from .metric import PointCloud, _distance_rows

COORDINATE_RIESZ = "coordinate_riesz"
GENERIC_ANTISYMMETRIZED = "generic_antisymmetrized"


def _base_inv_dist(cloud: PointCloud, s: float) -> np.ndarray:
    d = _distance_rows(cloud, np.arange(cloud.n_points))
    with np.errstate(divide="ignore"):
        return d ** (-s)


def _base_coord_product(cloud: PointCloud, s: float) -> np.ndarray:
    # x_1 * (x_1 - y_1) / |x-y|^{s+1}: a deliberately non-antisymmetric base
    diff = cloud.coords[:, None, :] - cloud.coords[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    with np.errstate(divide="ignore", invalid="ignore"):
        return cloud.coords[:, None, 0] * diff[:, :, 0] / d ** (s + 1.0)


NAMED_BASES: dict[str, Callable] = {
    "zero": lambda cloud, s: np.zeros((cloud.n_points, cloud.n_points)),
    "inv_dist": _base_inv_dist,
    "coord_product": _base_coord_product,
}


@dataclass(frozen=True)
class KernelSpec:
    """family "coordinate_riesz": k(x,y) = (x_i - y_i)/|x - y|^{n+1} with the
    Euclidean norm (i is 1-based). family "generic_antisymmetrized":
    (b(x,y) - b(y,x))/2 for a named base b or an expression in x, y, d.
    `c` is the claimed size constant; check_size_bound certifies the actual one.
    """

    family: str
    s: float
    i: int = 1
    n: int = 1
    base: str = "zero"
    c: float | None = None
    # diagnostics only: evaluate the raw base b without antisymmetrizing,
    # so check_antisymmetry can exhibit a failing kernel
    antisymmetrize: bool = True

    def __post_init__(self):
        if self.family not in (COORDINATE_RIESZ, GENERIC_ANTISYMMETRIZED):
            raise InputError(f"unknown kernel family {self.family!r}")
        if self.s <= 0.0:
            raise InputError("kernel dimension s must be positive")
        if self.family == COORDINATE_RIESZ and self.i < 1:
            raise InputError("Riesz coordinate index is 1-based")


def _base_matrix(k: KernelSpec, cloud: PointCloud) -> np.ndarray:
    if k.base in NAMED_BASES:
        return NAMED_BASES[k.base](cloud, k.s)
    # expression in x, y (coordinate arrays), d (Euclidean distance), np
    x = cloud.coords[:, None, :]
    y = cloud.coords[None, :, :]
    diff = x - y
    d = np.sqrt((diff * diff).sum(axis=2))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = eval(k.base, {"__builtins__": {}},  # noqa: S307 - documented escape hatch
                   {"x": x, "y": y, "d": d, "np": np, "math": math})
    n = cloud.n_points
    return np.broadcast_to(np.asarray(out, dtype=np.float64), (n, n)).copy()


def _riesz_rows(k: KernelSpec, cloud: PointCloud, rows: np.ndarray
                ) -> np.ndarray:
    """The one Riesz formula: k(x, .) for each x in rows, zero diagonal."""
    diff = cloud.coords[rows, None, :] - cloud.coords[None, :, :]
    num = diff[:, :, k.i - 1]
    dist = np.sqrt((diff * diff).sum(axis=2))
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = num / dist ** (k.n + 1.0)
    vals[np.arange(rows.size), rows] = 0.0
    return vals


def kernel_matrix(k: KernelSpec, cloud: PointCloud) -> np.ndarray:
    """Full kernel matrix with zeros filled on the (undefined) diagonal.

    The returned matrix is bit-exactly antisymmetric: M[a, b] == -M[b, a].
    """
    if k.family == COORDINATE_RIESZ:
        return _riesz_rows(k, cloud, np.arange(cloud.n_points))
    b = _base_matrix(k, cloud)
    with np.errstate(invalid="ignore"):  # inf - inf on the diagonal
        vals = (b - b.T) / 2.0 if k.antisymmetrize else b
    np.fill_diagonal(vals, 0.0)
    return vals


def kernel_rows(k: KernelSpec, cloud: PointCloud, rows) -> np.ndarray:
    """k(x, .) for each x in rows, diagonal entries filled with 0."""
    rows = np.asarray(rows)
    if k.family == COORDINATE_RIESZ:
        return _riesz_rows(k, cloud, rows)
    return kernel_matrix(k, cloud)[rows]


def eval_kernel(k: KernelSpec, cloud: PointCloud, x: int, y: int) -> float:
    """Scalar k(x, y); the diagonal is undefined and raises."""
    cloud.check_id(x)
    cloud.check_id(y)
    if x == y:
        raise DiagonalError("kernel is undefined on the diagonal x == y")
    # canonical orientation keeps eval_kernel(x,y) == -eval_kernel(y,x) bitwise
    if x <= y:
        return float(kernel_rows(k, cloud, [x])[0, y])
    return -float(kernel_rows(k, cloud, [y])[0, x])


@dataclass(frozen=True)
class AntisymmetryReport:
    ok: bool
    worst_pair: tuple[int, int] | None
    worst_residual: float
    scale: float


def check_antisymmetry(k: KernelSpec, cloud: PointCloud) -> AntisymmetryReport:
    """Max |k(x,y) + k(y,x)| over distinct pairs vs 1e-13 * max |k|."""
    if cloud.n_points < 2:
        raise InputError("need at least two points")
    km = kernel_matrix(k, cloud)
    resid = np.abs(km + km.T)
    worst = float(resid.max())
    a, b = np.unravel_index(int(resid.argmax()), resid.shape)
    scale = float(np.abs(km).max())
    return AntisymmetryReport(ok=worst <= 1e-13 * max(scale, 1e-300),
                              worst_pair=(int(a), int(b)),
                              worst_residual=worst, scale=scale)


def check_size_bound(k: KernelSpec, cloud: PointCloud, s: float
                     ) -> tuple[float, tuple[int, int]]:
    """Certify |k(x,y)| <= c_certified * d(x,y)^{-s} in the cloud's metric.

    Returns the smallest such constant over the cloud's pairs and the pair
    attaining it (ties break to the lexicographically smallest pair).
    """
    if cloud.n_points < 2:
        raise InputError("need at least two points")
    km = np.abs(kernel_matrix(k, cloud))
    d = _distance_rows(cloud, np.arange(cloud.n_points))
    prod = km * d ** s
    np.fill_diagonal(prod, -1.0)
    c = float(prod.max())
    a, b = np.unravel_index(int(prod.argmax()), prod.shape)
    return max(c, 0.0), (int(a), int(b))
