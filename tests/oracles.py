"""Dense N x N oracles for the pair-block evaluator: every pair's distance
and kernel value built as one whole matrix, independently of the tiles."""

import numpy as np

from sio_lab import kernels


def dense_distances(cloud) -> np.ndarray:
    """d(x, y) for every pair, one distances_from row per point."""
    return np.stack([cloud.distances_from(i) for i in range(cloud.n_points)])


def dense_base(k, cloud) -> np.ndarray:
    """A generic kernel's base b(x, y) over every pair: a named base, or the
    expression evaluated by Python over the whole-matrix x, y and the
    Euclidean d."""
    n = cloud.n_points
    if k.base == "zero":
        return np.zeros((n, n))
    if k.base == "inv_dist":
        with np.errstate(divide="ignore"):
            return dense_distances(cloud) ** (-k.s)
    coords = cloud.coords
    gaps = [coords[:, None, c] - coords[None, :, c]
            for c in range(coords.shape[1])]
    d = np.sqrt(sum(g * g for g in gaps))
    with np.errstate(all="ignore"):
        if k.base == "coord_product":
            return coords[:, None, 0] * gaps[0] / d ** (k.s + 1.0)
        out = eval(k.base, {"__builtins__": {}},  # noqa: S307 - test oracle
                   {"x": coords[:, None, :], "y": coords[None, :, :],
                    "d": d, "np": np})
    return np.broadcast_to(np.asarray(out, dtype=np.float64), (n, n)).copy()


def dense_kernel(k, cloud) -> np.ndarray:
    """k over every pair, zero on the diagonal: the Riesz formula on every
    row at once, or a generic base's whole matrix b as (b - b.T) / 2."""
    if k.family == kernels.COORDINATE_RIESZ:
        return kernels._riesz_rows(k, cloud, np.arange(cloud.n_points))
    b = dense_base(k, cloud)
    with np.errstate(invalid="ignore"):  # inf - inf on the diagonal
        vals = (b - b.T) / 2.0 if k.antisymmetrize else b
    np.fill_diagonal(vals, 0.0)
    return vals
