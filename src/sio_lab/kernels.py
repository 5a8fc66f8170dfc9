"""Antisymmetric kernels with certified size bounds.

Coordinate Riesz kernels always use the Euclidean norm in their formula; the
size bound |k| <= c d^{-s} is then certified against the cloud's own metric,
so the certified constant absorbs any metric mismatch. pair_rows is the
one pair-block evaluator: both families are evaluated on (rows, cols)
blocks, and no N x N array is built. It returns each block's kernel values
and its distances; on a Euclidean (p = 2) cloud the distances are the
kernel formula's own norm, so that block is built once. kernel_rows gives
the kernel values alone. A pair gets the same bits in any block shape.
Antisymmetry is bit-exact: numerators are antisymmetric and denominators
symmetric under the vectorized evaluation, and a generic base, pointwise in
the pair and evaluated on the block and on its swapped block, is
antisymmetrized as (b(x,y) - b(y,x))/2, whose two orientations negate
exactly.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import Check, DiagonalError, InputError
from .metric import (EUCLIDEAN_P, MetricDescriptor, PointCloud, RowPass,
                     _differences, _distance_rows, _norm, tile_map)

COORDINATE_RIESZ = "coordinate_riesz"
GENERIC_ANTISYMMETRIZED = "generic_antisymmetrized"

# the Euclidean norm of the kernel formulas (_norm reads only p and family)
_EUCLIDEAN = MetricDescriptor(family=EUCLIDEAN_P, dimension=1, p=2.0)


def _base_inv_dist(cloud: PointCloud, s: float, rows, cols) -> np.ndarray:
    d = _distance_rows(cloud, rows, cols)
    with np.errstate(divide="ignore"):
        return d ** (-s)


def _base_coord_product(cloud: PointCloud, s: float, rows, cols
                        ) -> np.ndarray:
    # x_1 * (x_1 - y_1) / |x-y|^{s+1}: a deliberately non-antisymmetric base
    diffs = _differences(cloud.coords, rows, cols)
    d = _norm(_EUCLIDEAN, diffs)
    with np.errstate(divide="ignore", invalid="ignore"):
        return cloud.coords[rows, None, 0] * diffs[0] / d ** (s + 1.0)


NAMED_BASES: dict[str, Callable] = {
    "zero": lambda cloud, s, rows, cols: np.zeros((rows.size, cols.size)),
    "inv_dist": _base_inv_dist,
    "coord_product": _base_coord_product,
}


_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv,
           ast.Pow: operator.pow}
# the numpy functions an expression may call: elementwise ufuncs only
_UFUNCS = frozenset({
    "abs", "absolute", "sign", "sqrt", "cbrt", "square", "exp", "expm1",
    "log", "log1p", "log2", "log10", "sin", "cos", "tan", "arcsin",
    "arccos", "arctan", "arctan2", "sinh", "cosh", "tanh", "hypot",
    "maximum", "minimum", "power"})


def _compile(node: ast.AST) -> Callable[[dict], object]:
    """fn(env) evaluating one node of a base expression over env's x, y, d.

    Admits int and float constants, the names x, y and d, + - * / ** and
    unary -, the coordinates x[..., i] and y[..., i] (_coordinate), and
    calls of the numpy ufuncs in _UFUNCS on exactly their inputs (one more
    argument would be an `out` array, written in place). An expression is
    thus pointwise: its value at (x, y) reads that pair alone, so a block
    of pairs gets the values the whole matrix would hold, and it writes to
    no array, d included. Anything else raises InputError, so an
    expression can compute but never reach attributes, builtins, I/O or
    another pair's values.
    """
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return lambda env, v=node.value: v
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        a = _compile(node.operand)
        return lambda env: -a(env)
    if isinstance(node, ast.Name) and node.id in ("x", "y", "d"):
        return lambda env, name=node.id: env[name]
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        op = _BINARY[type(node.op)]
        a, b = _compile(node.left), _compile(node.right)
        return lambda env: op(a(env), b(env))
    if isinstance(node, ast.Subscript):
        return _coordinate(node)
    if isinstance(node, ast.Call) and not node.keywords \
            and isinstance(node.func, ast.Attribute) \
            and isinstance(node.func.value, ast.Name) \
            and node.func.value.id == "np" and node.func.attr in _UFUNCS:
        fn = getattr(np, node.func.attr)
        if len(node.args) != fn.nin:  # a further argument would be `out`
            raise InputError(f"np.{node.func.attr} takes {fn.nin} "
                             f"argument(s), not {ast.unparse(node)!r}")
        args = [_compile(a) for a in node.args]
        return lambda env: fn(*(a(env) for a in args))
    raise InputError(f"kernel base expression may not contain "
                     f"{ast.unparse(node)!r}")


def _coordinate(node: ast.Subscript) -> Callable[[dict], object]:
    """fn(env) reading x[..., i] or y[..., i] for an int literal i; any
    other subscript raises InputError, and so does, when evaluated, an i
    outside the cloud's dimension."""
    try:
        dots, i = node.slice.elts
        i = ast.literal_eval(i)
    except (AttributeError, ValueError):
        dots = i = None
    if not (isinstance(node.value, ast.Name) and node.value.id in ("x", "y")
            and type(i) is int and isinstance(dots, ast.Constant)
            and dots.value is Ellipsis):
        raise InputError(f"kernel base expression may subscript only "
                         f"x[..., i] or y[..., i] with an int literal i, "
                         f"not {ast.unparse(node)!r}")
    name, text = node.value.id, ast.unparse(node)

    def read(env):
        dim = env[name].shape[-1]
        if not -dim <= i < dim:
            raise InputError(f"coordinate index {i} in {text!r} is out of "
                             f"range for dimension {dim}")
        return env[name][..., i]
    return read


@lru_cache(maxsize=32)
def _base_expression(text: str) -> Callable[[dict], object]:
    """A base expression in x, y, d as fn(env); InputError if it does not
    parse or steps outside _compile's whitelist."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise InputError(f"kernel base expression {text!r} does not "
                         f"parse: {exc.msg}") from None
    return _compile(tree.body)


@dataclass(frozen=True)
class KernelSpec:
    """family "coordinate_riesz": k(x,y) = (x_i - y_i)/|x - y|^{n+1} with the
    Euclidean norm (i is 1-based). family "generic_antisymmetrized":
    (b(x,y) - b(y,x))/2 for a named base b or an expression in x, y, d,
    checked here against _compile's whitelist.
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
        if not (math.isfinite(self.s) and self.s > 0.0):
            raise InputError(f"kernel dimension s must be finite and "
                             f"positive, got {self.s!r}")
        if self.family == COORDINATE_RIESZ and self.i < 1:
            raise InputError("Riesz coordinate index is 1-based")
        if self.base not in NAMED_BASES:
            _base_expression(self.base)


def _base_rows(k: KernelSpec, cloud: PointCloud, rows: np.ndarray,
               cols: np.ndarray, d: np.ndarray) -> np.ndarray:
    """b(x, y) for x in rows and y in cols at Euclidean distances d, maybe
    a read-only view."""
    if k.base in NAMED_BASES:
        return NAMED_BASES[k.base](cloud, k.s, rows, cols)
    env = {"x": cloud.coords[rows][:, None, :],
           "y": cloud.coords[cols][None, :, :], "d": d}
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _base_expression(k.base)(env)
    return np.broadcast_to(np.asarray(out, dtype=np.float64),
                           (rows.size, cols.size))


def _riesz_rows(k: KernelSpec, cloud: PointCloud, rows: np.ndarray,
                cols: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """The one Riesz formula: k(x, y) for x in rows and y in cols (every
    point when cols is None), zero where x == y, and the Euclidean norm
    |x - y| of its denominator."""
    diffs = _differences(cloud.coords, rows, cols)
    dist = _norm(_EUCLIDEAN, diffs)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = diffs[k.i - 1] / dist ** (k.n + 1.0)
    if cols is None:
        vals[np.arange(rows.size), rows] = 0.0
    else:
        vals[rows[:, None] == cols[None, :]] = 0.0
    return vals, dist


def _generic_rows(k: KernelSpec, cloud: PointCloud, rows: np.ndarray,
                  cols: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The one base construction: k(x, y) = (b(x, y) - b(y, x)) / 2, or b
    itself when not antisymmetrized, for x in rows and y in cols (every
    point when cols is None), zero where x == y, and the Euclidean norm d
    the base reads."""
    cols = np.arange(cloud.n_points) if cols is None else cols
    d = _norm(_EUCLIDEAN, _differences(cloud.coords, rows, cols))
    b = _base_rows(k, cloud, rows, cols, d)
    # d(y, x) is d(x, y) bit for bit, as (x - y)^2 == (y - x)^2
    with np.errstate(invalid="ignore"):  # inf - inf where x == y
        vals = ((b - _base_rows(k, cloud, cols, rows, d.T).T) / 2.0
                if k.antisymmetrize else b.copy())
    vals[rows[:, None] == cols[None, :]] = 0.0
    return vals, d


def _kernel_block(k: KernelSpec, cloud: PointCloud, rows, cols
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(k(x, y), |x - y|) from the kernel's family formula."""
    rows = np.asarray(rows)
    cols = None if cols is None else np.asarray(cols)
    block = _riesz_rows if k.family == COORDINATE_RIESZ else _generic_rows
    return block(k, cloud, rows, cols)


def kernel_matrix(k: KernelSpec, cloud: PointCloud) -> np.ndarray:
    """Full N x N kernel matrix, zero on the (undefined) diagonal."""
    return kernel_rows(k, cloud, np.arange(cloud.n_points))


def kernel_rows(k: KernelSpec, cloud: PointCloud, rows, cols=None
                ) -> np.ndarray:
    """k(x, y) for x in rows and y in cols (every point when cols is None),
    zero where x == y. A pair gets the same bits in any block shape."""
    return _kernel_block(k, cloud, rows, cols)[0]


def pair_rows(k: KernelSpec, cloud: PointCloud, rows, cols=None
              ) -> tuple[np.ndarray, np.ndarray]:
    """The one pair-block evaluator: (k(x, y), d(x, y)) for x in rows and y
    in cols (every point when cols is None), d in the cloud's metric.

    Both kernel families compute the Euclidean norm of the block. On an
    euclidean_p cloud with p = 2 that norm is _distance_rows' block bit
    for bit (_norm reads only the family and p), so it is returned as d;
    any other metric has its block built by _distance_rows.
    """
    vals, norm = _kernel_block(k, cloud, rows, cols)
    md = cloud.metric
    if md.family == EUCLIDEAN_P and md.p == 2.0:
        return vals, norm
    return vals, _distance_rows(cloud, rows, cols)


def map_pair_tiles(k: KernelSpec, cloud: PointCloud, rows, fn,
                   workers: int = 1):
    """The pair engine: fn(k, d, tile) on each row tile of `rows`, stacked
    in row order, where (k, d) is the tile's pair_rows: its kernel rows
    k(x, .) (zero where x == y) and distance rows d(x, .) in the cloud's
    metric."""
    return tile_map(lambda tile: fn(*pair_rows(k, cloud, tile), tile),
                    rows, cloud.n_points, workers)


def run_pass(k: KernelSpec, cloud: PointCloud, p: RowPass,
             workers: int = 1):
    """A RowPass's result from a walk of its own rows."""
    return p.reduce(map_pair_tiles(k, cloud, p.rows, p.tile, workers))


def sweep_pair_tiles(k: KernelSpec, cloud: PointCloud, passes,
                     workers: int = 1) -> list[np.ndarray]:
    """One walk of the row tiles for several RowPasses: each tile's kernel
    and distance rows are built once and handed to every pass's tile
    function in turn. Returns each pass's block over its own rows, for the
    caller to reduce; every row's entries are those of the pass's own walk,
    so each reduction gives the same bits as run_pass."""
    read = np.zeros(cloud.n_points, dtype=bool)
    for p in passes:
        read[p.rows] = True
    rows = np.flatnonzero(read)
    blocks = map_pair_tiles(k, cloud, rows, lambda kt, dt, tile: tuple(
        p.tile(kt, dt, tile) for p in passes), workers)
    return [b[np.searchsorted(rows, p.rows)] for p, b in zip(passes, blocks)]


def eval_kernel(k: KernelSpec, cloud: PointCloud, x: int, y: int) -> float:
    """Scalar k(x, y); the diagonal is undefined and raises."""
    cloud.check_id(x)
    cloud.check_id(y)
    if x == y:
        raise DiagonalError("kernel is undefined on the diagonal x == y")
    # canonical orientation keeps eval_kernel(x,y) == -eval_kernel(y,x) bitwise
    if x <= y:
        return float(kernel_rows(k, cloud, [x], [y])[0, 0])
    return -float(kernel_rows(k, cloud, [y], [x])[0, 0])


def _first_max(vals: np.ndarray, rows: np.ndarray, col0: int = 0
               ) -> np.ndarray:
    """[value, x, y] per row x at the row's first maximal entry, or its
    first NaN; y is col0 plus the column index."""
    j = np.argmax(vals, axis=1)
    return np.stack([vals[np.arange(rows.size), j], rows, col0 + j], axis=1)


def _pick_first_max(per_row: np.ndarray) -> tuple[float, tuple[int, int]]:
    """The whole pass's first maximum (or first NaN) from the stacked
    per-row _first_max rows: the first row holding it, so the same value
    and pair as a row-major argmax over the whole matrix."""
    t = int(np.argmax(per_row[:, 0]))
    return float(per_row[t, 0]), (int(per_row[t, 1]), int(per_row[t, 2]))


def check_antisymmetry(k: KernelSpec, cloud: PointCloud, workers: int = 1
                       ) -> Check:
    """The Check kernel_antisymmetry: max |k(x,y) + k(y,x)| over distinct
    pairs <= 1e-13 * max |k|, witnessed by the worst pair and the scale.

    Walks the upper triangle of the row tiles, split over `workers`
    threads: the residual is symmetric in the pair, so a tile starting at
    row x0 evaluates only the columns y >= x0 of its rows k(x, .), and
    _antisymmetry_rows evaluates the matching columns k(., x) on their own.
    A converge run takes the same per-tile code through antisymmetry_pass,
    reading k(x, .) off its sweep instead.
    """
    every = np.arange(cloud.n_points)
    p = antisymmetry_pass(k, cloud)
    return p.reduce(tile_map(lambda rows: _antisymmetry_rows(
        k, cloud, kernel_rows(k, cloud, rows, every[rows[0]:]), rows),
        every, cloud.n_points, workers))


def antisymmetry_pass(k: KernelSpec, cloud: PointCloud) -> RowPass:
    """check_antisymmetry as a RowPass over every row: a tile starting at
    row x0 reads k(x, y) for y >= x0 off the sweep's kernel rows."""
    if cloud.n_points < 2:
        raise InputError("need at least two points")

    def reduce(per_row):
        worst, pair = _pick_first_max(per_row)
        scale = float(per_row[:, 3].max())
        return Check.le("kernel_antisymmetry", worst,
                        1e-13 * max(scale, 1e-300),
                        witness={"pair": pair, "scale": scale})
    return RowPass(np.arange(cloud.n_points), lambda kt, dt, rows:
                   _antisymmetry_rows(k, cloud, kt[:, rows[0]:], rows),
                   reduce)


def _antisymmetry_rows(k: KernelSpec, cloud: PointCloud, kt: np.ndarray,
                       rows: np.ndarray) -> np.ndarray:
    """Per row x of a tile starting at row x0, from kt = k(x, y) for
    y >= x0: [residual, x, y, scale] at the first maximum of
    |k(x, y) + k(y, x)| over y >= x, and max |k| over both orientations.

    k(y, x) is evaluated here, as a block of kernel_rows, never derived
    from k(x, y). Entries y < x are masked, which keeps the row-major first
    maximum of the whole matrix; the diagonal stays, so an all-zero
    residual reports the pair (0, 0). The scale reads both orientations of
    every y >= x0, so the rows of all tiles cover every pair.
    """
    cols = np.arange(rows[0], cloud.n_points)
    kc = kernel_rows(k, cloud, cols, rows).T  # k(y, x) for x in rows
    resid = np.abs(kt + kc)
    resid[cols[None, :] < rows[:, None]] = -np.inf
    scale = np.maximum(np.abs(kt).max(axis=1), np.abs(kc).max(axis=1))
    return np.hstack([_first_max(resid, rows, rows[0]), scale[:, None]])


def check_size_bound(k: KernelSpec, cloud: PointCloud, s: float,
                     workers: int = 1) -> tuple[float, tuple[int, int]]:
    """Certify |k(x,y)| <= c_certified * d(x,y)^{-s} in the cloud's metric.

    Returns the smallest such constant over the cloud's pairs and the pair
    attaining it (ties break to the lexicographically smallest pair). Row
    tiles are split over `workers` threads.
    """
    return run_pass(k, cloud, size_bound_pass(cloud, s), workers)


def size_bound_pass(cloud: PointCloud, s: float) -> RowPass:
    """check_size_bound as a RowPass over every row: per row, the first
    maximum of |k| d^s off the diagonal and its column."""
    if cloud.n_points < 2:
        raise InputError("need at least two points")

    def tile(kt, dt, rows):
        prod = np.abs(kt) * dt ** s
        prod[np.arange(rows.size), rows] = -1.0
        return _first_max(prod, rows)

    def reduce(per_row):
        c, pair = _pick_first_max(per_row)
        return max(c, 0.0), pair
    return RowPass(np.arange(cloud.n_points), tile, reduce)
