"""Oracles built independently of the code they check.

Dense N x N oracles for the pair-block evaluator: every pair's distance and
kernel value built as one whole matrix, independently of the tiles, and the
antisymmetry check and the growth constant read off those whole matrices.
And the good-radius predicate and the concentration windows in Fraction
arithmetic, straight from their definitions and the atoms' Fraction
positions, for the integer-tick versions.
"""

from fractions import Fraction

import numpy as np

from sio_lab import kernels
from sio_lab.good_radii import (GRIDLINE_SHELL, HEAVY_CELL,
                                GoodRadiusCertificate, GoodRadiusRejection)


def dense_distances(cloud) -> np.ndarray:
    """d(x, y) for every pair, one distances_from row per point."""
    return np.stack([cloud.distances_from(i) for i in range(cloud.n_points)])


def dense_base(k, cloud) -> np.ndarray:
    """A generic kernel's base b(x, y) over every pair: the expression
    evaluated by Python over the whole-matrix x, y and the Euclidean d."""
    n = cloud.n_points
    coords = cloud.coords
    gaps = [coords[:, None, c] - coords[None, :, c]
            for c in range(coords.shape[1])]
    d = np.sqrt(sum(g * g for g in gaps))
    with np.errstate(all="ignore"):
        out = eval(k.base, {"__builtins__": {}},  # noqa: S307 - test oracle
                   {"x": coords[:, None, :], "y": coords[None, :, :],
                    "d": d, "np": np})
    return np.broadcast_to(np.asarray(out, dtype=np.float64), (n, n)).copy()


def dense_kernel(k, cloud) -> np.ndarray:
    """k over every pair, zero on the diagonal: the Riesz formula on every
    row at once, or a generic base's whole matrix b as (b - b.T) / 2."""
    if k.family == kernels.COORDINATE_RIESZ:
        return kernels._riesz_rows(k, cloud, np.arange(cloud.n_points))[0]
    b = dense_base(k, cloud)
    with np.errstate(invalid="ignore"):  # inf - inf on the diagonal
        vals = (b - b.T) / 2.0 if k.antisymmetrize else b
    np.fill_diagonal(vals, 0.0)
    return vals


def dense_antisymmetry(km) -> tuple[float, tuple[int, int], float]:
    """check_antisymmetry's (residual, pair, scale) from a whole kernel
    matrix km: the row-major first maximum (or first NaN) of |km + km.T|,
    and max |km|."""
    resid = np.abs(km + km.T)
    a, b = np.unravel_index(int(resid.argmax()), resid.shape)
    return float(resid.max()), (int(a), int(b)), float(np.abs(km).max())


def growth_full_rows(m, s, r_min) -> tuple[float, tuple[int, float]]:
    """growth_constant's (c, (x, r)) with every mask over the whole sorted
    row of dense_distances, as its tile read them before it compared only
    the head of each row with r_min."""
    d = dense_distances(m.cloud)
    order = np.argsort(d, axis=1, kind="stable")
    ds = np.take_along_axis(d, order, axis=1)
    cum = np.cumsum(m.weights[order], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(ds >= r_min, cum / ds ** s, -np.inf)
    k = np.argmax(ratios, axis=1)
    at = np.arange(m.n_atoms)
    best, radius = ratios[at, k], ds[at, k]
    below = cum[at, np.count_nonzero(ds <= r_min, axis=1) - 1] \
        / (np.full(1, r_min) ** s)[0]
    use_r_min = ~np.any(ds == r_min, axis=1) & (below >= best)
    c = np.where(use_r_min, below, best)
    x = int(np.argmax(c))
    return float(c[x]), (x, float(r_min if use_r_min[x] else radius[x]))


def is_good_radius(v, t, params):
    """The good-radius predicate in Fractions on I = [0, 1]: per generation
    n, t's cell [lo, hi) (closed when last) must carry mass < lam^-n, and t
    must clear both of its ends by at least lam^-3n."""
    t = Fraction(t)
    lam = params.lam
    assert 0 < t < 1
    witnesses = []
    for n in range(1, params.depth + 1):
        cells = lam ** (2 * n)
        width = Fraction(1, cells)
        j = min(int(t // width), cells - 1)
        lo, hi = j * width, (j + 1) * width
        last = j == cells - 1
        mass = sum((m for p, m in zip(v.positions, v.masses)
                    if lo <= p < hi or last and p == hi), Fraction(0))
        if mass >= Fraction(1, lam ** n):
            return GoodRadiusRejection(t=t, generation=n, reason=HEAVY_CELL)
        clearance = min(t - lo, hi - t)
        if clearance < Fraction(1, lam ** (3 * n)):
            return GoodRadiusRejection(t=t, generation=n,
                                       reason=GRIDLINE_SHELL)
        witnesses.append((n, j, mass, clearance))
    return GoodRadiusCertificate(t=t, lam=lam, depth=params.depth,
                                 witnesses=tuple(witnesses))


def concentration_violations(v, params, n):
    """Every t whose closed window [t - w, t + w], w = lam^-3n, carries
    mass >= lam^-n, as merged closed intervals: a run of atoms i..j
    spanning at most 2w with that mass puts [pos_j - w, pos_i + w] in the
    set."""
    w = Fraction(1, params.lam ** (3 * n))
    pos, masses = v.positions, v.masses
    out = []
    for i in range(len(pos)):
        for j in range(i, len(pos)):
            if pos[j] - pos[i] > 2 * w:
                break
            if sum(masses[i:j + 1]) >= Fraction(1, params.lam ** n):
                out.append((pos[j] - w, pos[i] + w))
                break
    merged = []
    for lo, hi in sorted(out):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged
