"""Antisymmetric kernels with certified size bounds.

Coordinate Riesz kernels always use the Euclidean norm in their formula; the
size bound |k| <= c d^{-s} is then certified against the cloud's own metric,
so the certified constant absorbs any metric mismatch. pair_rows is the
one pair-block evaluator: both families are evaluated on (rows, cols)
blocks, and no N x N array is built. It returns each block's kernel values
and its distances; on a Euclidean (p = 2) cloud the distances are the
kernel formula's own norm, so that block is built once. kernel_rows gives
the kernel values alone, in either orientation: k(x, y), or with swap
k(y, x), for x in rows and y in cols, laid out (rows, cols) both ways. A
swapped block evaluates the formula at (y, x), from the differences
y_c - x_c or with the base's x and y exchanged, so it is the transposed
block bit for bit without a transpose, and is never derived from k(x, y).
A pair gets the same bits in any block shape and either orientation.
Antisymmetry is bit-exact, so check_antisymmetry asks for A = max |k(x,y) +
k(y,x)| <= 0.0. A Riesz numerator is an IEEE subtraction, fl(a - b) ==
-fl(b - a), over a denominator with the same bits both ways; a generic
kernel's (b(x,y) - b(y,x))/2 and (b(y,x) - b(x,y))/2 negate exactly. So an
antisymmetrized kernel with finite values reads 0, if each elementwise
function gives the same bits in any array layout; a platform where that
fails fails the check, as a raw base or a NaN or inf value does.

The Riesz block is evaluated in its own buffers: metric._norm squares the
difference arrays it is given in place and sums them into the first, the
denominator goes into a spent squared difference, and the quotient into
the numerator's array, so on a plane pair_rows holds its two outputs and
one scratch array. The antisymmetry tile adds k(x, y) into its swapped
block in place. Every such write applies the correctly rounded IEEE
operation (or the same np.power loop) to the same operands as the
out-of-place formula (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., 2.1), so a reused buffer changes no bit.

sweep_pair_tiles is the one pair engine: a single metric.tile_map walk that
hands each tile's pair_rows to any number of RowPasses, each only the rows
it reads. run_pass is its one-pass case, so the stand-alone checks
(check_antisymmetry, check_size_bound) walk the tiles a converge run
walks, and sio-lab check-kernel sweeps both checks in one walk, as
converge does. The check's A bounds every cancellation residual
(operator.cancellation_bound), so converge walks none.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import Check, InputError
from .metric import (EUCLIDEAN_P, MetricDescriptor, PointCloud, RowPass,
                     _differences, _distance_rows, _norm, tile_map)

COORDINATE_RIESZ = "coordinate_riesz"
GENERIC_ANTISYMMETRIZED = "generic_antisymmetrized"

# the Euclidean norm of the kernel formulas (_norm reads only p and family)
_EUCLIDEAN = MetricDescriptor(family=EUCLIDEAN_P, dimension=1, p=2.0)


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
    (b(x,y) - b(y,x))/2 for a base b, an expression in x, y, d checked here
    against _compile's whitelist; the default "0.0" is the zero kernel.
    check_size_bound certifies the kernel's size constant for a given s.
    """

    family: str
    i: int = 1
    n: int = 1
    base: str = "0.0"
    # diagnostics only: evaluate the raw base b without antisymmetrizing,
    # so check_antisymmetry can exhibit a failing kernel
    antisymmetrize: bool = True

    def __post_init__(self):
        if self.family not in (COORDINATE_RIESZ, GENERIC_ANTISYMMETRIZED):
            raise InputError(f"unknown kernel family {self.family!r}")
        if self.family == COORDINATE_RIESZ and self.i < 1:
            raise InputError("Riesz coordinate index is 1-based")
        if self.family == COORDINATE_RIESZ \
                and (type(self.n) is not int or self.n < 1):
            raise InputError(f"Riesz exponent n must be an int >= 1, "
                             f"got {self.n!r}")
        _base_expression(self.base)


def _base_rows(k: KernelSpec, cloud: PointCloud, rows: np.ndarray,
               cols, d: np.ndarray, swap: bool = False) -> np.ndarray:
    """b(x, y) for x in rows and y in cols (every point when cols is None)
    at Euclidean distances d, or b(y, x) with swap (the env's x and y
    exchanged), laid out (rows, cols); maybe a read-only view."""
    x = np.take(cloud.coords, rows, axis=0)[:, None, :]
    if isinstance(cols, np.ndarray):
        y = np.take(cloud.coords, cols, axis=0)[None, :, :]
    else:
        y = (cloud.coords if cols is None else cloud.coords[cols])[None]
    env = {"x": y, "y": x, "d": d} if swap else {"x": x, "y": y, "d": d}
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _base_expression(k.base)(env)
    return np.broadcast_to(np.asarray(out, dtype=np.float64), d.shape)


def _zero_where_equal(vals: np.ndarray, rows: np.ndarray, cols
                      ) -> np.ndarray:
    """vals, zero where x == y. For every point or a slice of columns from
    c0, the row x sits at column x - c0, zeroed by index when the block
    holds it; for an array of ids, such a column lies within the span of
    the row ids, so only the columns in that span are compared with
    rows."""
    if cols is None or isinstance(cols, slice):
        c0 = 0 if cols is None else cols.start
        at = np.flatnonzero((rows >= c0) & (rows < c0 + vals.shape[1]))
        vals[at, rows[at] - c0] = 0.0
    elif rows.size:
        near = np.flatnonzero((cols >= rows.min()) & (cols <= rows.max()))
        a, b = np.nonzero(rows[:, None] == cols[near])
        vals[a, near[b]] = 0.0
    return vals


def _riesz_rows(k: KernelSpec, cloud: PointCloud, rows: np.ndarray,
                cols=None, swap: bool = False
                ) -> tuple[np.ndarray, np.ndarray]:
    """The one Riesz formula: k(x, y) for x in rows and y in cols (every
    point when cols is None), or k(y, x) with swap, zero where x == y, and
    the Euclidean norm of its denominator, |x - y| == |y - x| bit for
    bit.

    The numerator x_i - y_i keeps its difference array and becomes k;
    _norm squares a copy of it with the other differences in place, into
    |x - y|; the denominator goes into a spent squared difference (a fresh
    array on the line). A plane's block thus takes its two outputs and one
    scratch array, and each further coordinate adds its difference. The
    denominator is dist * dist for n = 1, the square dist ** 2.0 takes,
    and else np.power, the ufunc dist ** (n + 1.0) calls.
    """
    dim = cloud.coords.shape[1]
    if k.i > dim:
        raise InputError(f"Riesz coordinate index {k.i} is out of range "
                         f"for dimension {dim}")
    diffs = _differences(cloud, rows, cols, swap)
    num = diffs[k.i - 1]
    diffs[k.i - 1] = num.copy()
    dist = _norm(_EUCLIDEAN, diffs)  # in diffs[0]'s buffer
    spare = diffs[-1] if len(diffs) > 1 else None
    with np.errstate(divide="ignore", invalid="ignore"):
        den = np.multiply(dist, dist, out=spare) if k.n == 1 \
            else np.power(dist, k.n + 1.0, out=spare)
        vals = np.divide(num, den, out=num)
    return _zero_where_equal(vals, rows, cols), dist


def _generic_rows(k: KernelSpec, cloud: PointCloud, rows: np.ndarray,
                  cols=None, swap: bool = False
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The one base construction: k(x, y) = (b(x, y) - b(y, x)) / 2, or b
    itself when not antisymmetrized, for x in rows and y in cols (every
    point when cols is None), or k(y, x) with swap, zero where x == y, and
    the Euclidean norm d the base reads."""
    # d(y, x) is d(x, y) bit for bit, as (x - y)^2 == (y - x)^2
    d = _norm(_EUCLIDEAN, _differences(cloud, rows, cols))
    b = _base_rows(k, cloud, rows, cols, d, swap)
    with np.errstate(invalid="ignore"):  # inf - inf where x == y
        vals = ((b - _base_rows(k, cloud, rows, cols, d, not swap)) / 2.0
                if k.antisymmetrize else b.copy())
    return _zero_where_equal(vals, rows, cols), d


def _kernel_block(k: KernelSpec, cloud: PointCloud, rows, cols,
                  swap: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(k(x, y), |x - y|) from the kernel's family formula, or (k(y, x),
    |x - y|) with swap, laid out (rows, cols) either way; cols is None
    (every point), a slice of ids with its start, or ids."""
    rows = np.asarray(rows)
    if not (cols is None or isinstance(cols, slice)):
        cols = np.asarray(cols)
    block = _riesz_rows if k.family == COORDINATE_RIESZ else _generic_rows
    return block(k, cloud, rows, cols, swap)


def kernel_matrix(k: KernelSpec, cloud: PointCloud) -> np.ndarray:
    """Full N x N kernel matrix, zero on the (undefined) diagonal."""
    return kernel_rows(k, cloud, np.arange(cloud.n_points))


def kernel_rows(k: KernelSpec, cloud: PointCloud, rows, cols=None,
                swap: bool = False) -> np.ndarray:
    """k(x, y) for x in rows and y in cols (every point when cols is None),
    zero where x == y. With swap, k(y, x) in the same (rows, cols) layout:
    kernel_rows(k, cloud, cols, rows).T bit for bit, evaluated from the
    formula at (y, x) itself. A pair gets the same bits in any block shape
    and either orientation."""
    return _kernel_block(k, cloud, rows, cols, swap)[0]


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


def run_pass(k: KernelSpec, cloud: PointCloud, p: RowPass,
             workers: int = 1):
    """A RowPass's result from a sweep of its own rows."""
    return p.reduce(sweep_pair_tiles(k, cloud, [p], workers)[0])


def sweep_pair_tiles(k: KernelSpec, cloud: PointCloud, passes,
                     workers: int = 1) -> list[np.ndarray]:
    """The pair engine: one metric.tile_map walk of the row tiles that any
    of several RowPasses reads. Each tile's pair_rows, its kernel rows
    k(x, .) (zero where x == y) and distance rows d(x, .) in the cloud's
    metric, are built once; each pass's tile function is handed the
    tile's rows of its own `rows` only (the whole tile when it reads them
    all). Returns each pass's block over its `rows`, for the caller to
    reduce; a row's entries do not depend on the other rows of its tile,
    so each reduction gives the same bits as run_pass."""
    member = np.zeros((len(passes), cloud.n_points), dtype=bool)
    for mine, p in zip(member, passes):
        mine[p.rows] = True

    def tile(t):
        kt, dt = pair_rows(k, cloud, t)
        return tuple(p.tile(kt, dt, t) if mine.all()
                     else p.tile(kt[mine], dt[mine], t[mine])
                     for p, mine in zip(passes, member[:, t]))
    return list(tile_map(tile, np.flatnonzero(member.any(axis=0)),
                         cloud.n_points, workers))


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
    """The Check kernel_antisymmetry: A = max |k(x,y) + k(y,x)| over
    distinct pairs <= 0.0, witnessed by the worst pair. antisymmetry_pass
    on a sweep of its own, split over `workers` threads."""
    return run_pass(k, cloud, antisymmetry_pass(k, cloud), workers)


def antisymmetry_pass(k: KernelSpec, cloud: PointCloud) -> RowPass:
    """check_antisymmetry as a RowPass over every row. Per row x of a tile
    x0..x0+R-1: [residual, x, y] at the first maximum of
    |k(x, y) + k(y, x)| over y >= x.

    The residual is symmetric in the pair, so the tile reads k(x, y) for
    y >= x0 off the sweep's kernel rows, and evaluates k(y, x) for those
    columns in the same (rows, cols) layout, kernel_rows with swap: from
    the formula at (y, x), never derived from k(x, y). The entries y < x,
    in the first R columns, are not masked: the residual block is
    bit-symmetric (k(x, y) + k(y, x) and k(y, x) + k(x, y) add the same
    two numbers), so such an entry repeats the pair (y, x) of the earlier
    row y of the same tile. A row whose first maximum (or first NaN) lies
    at y < x thus has an earlier row holding the same value, and the
    reduce takes the first row holding the maximum, in which no earlier
    column can hold it: the result is the row-major first maximum of the
    whole matrix. The diagonal stays, so a tile whose
    k(x, y) + k(y, x) are all zero reports (0.0, x, x) per row. The rows
    of all tiles cover every pair.

    The columns y >= x0 are taken in slices of at most ceil(N / 3), each
    a view of PointCloud.columns: k(y, x) for the slice, k(x, y) added
    into it in place, and a slice of all zeros skipped, so the tile holds
    one slice's block at a time. The slices' per-row first maxima,
    combined by the first slice holding each row's maximum (or a NaN),
    are the row's first maximum over y >= x0. A row left with only zeros
    by the skipped slices can hold the pass's maximum only if every entry
    is zero, and then every slice was skipped.
    """
    if cloud.n_points < 2:
        raise InputError("need at least two points")
    n = cloud.n_points
    width = -(-n // 3)

    def tile(kt, dt, rows):
        # every row is read, so the tile's rows are the run x0..x0+R-1
        parts = []
        for c0 in range(rows[0], n, width):
            c1 = min(c0 + width, n)
            resid = kernel_rows(k, cloud, rows, slice(c0, c1), swap=True)
            np.add(kt[:, c0:c1], resid, out=resid)
            if resid.any():
                np.abs(resid, out=resid)
                parts.append(_first_max(resid, rows, c0))
            del resid  # freed before the next slice is built
        if not parts:
            return np.stack([np.zeros(rows.size), rows, rows], axis=1)
        # per row, the first slice holding its maximum (or a NaN)
        per_slice = np.stack(parts)
        first = np.argmax(per_slice[:, :, 0], axis=0)
        return per_slice[first, np.arange(rows.size)]

    def reduce(per_row):
        worst, pair = _pick_first_max(per_row)
        return Check.le("kernel_antisymmetry", worst, 0.0,
                        witness={"pair": pair})
    return RowPass(np.arange(cloud.n_points), tile, reduce)


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
    maximum of |k| d^s off the diagonal and its column. s, the growth
    bound's exponent too, must be finite and positive."""
    if not (math.isfinite(s) and s > 0.0):
        raise InputError(f"s must be finite and positive, got {s!r}")
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
