"""Deterministic pairwise-tree float reduction.

Every double sum in the lab is taken over one reduction tree, so that
results are bit-identical across runs and across worker counts: each row
is folded over the perfect binary tree of its zero-padded width
(fold_rows), and the row results over the same kind of tree in row order
(pairwise_sum, fold_rows' one-row case). fold_keys folds rows given
only by their entries in one dense step: it scatters them into zero rows,
built only for the rows that hold an entry (8 bytes per padded column
each), and folds those with fold_rows once, so its rows are fold_rows'
by construction. The pairing trace hands it only the blocks of 64 columns
that straddle a band edge, folded to block width; the blocks that their
distance bounds decide are folded densely or are +0.0.
Parallel execution only ever hands out whole rows. thread_map is the
lab's one thread pool, and metric.tile_map hands it row tiles; it keeps
about 2 * workers tiles submitted ahead of the one it collects, so a walk
of many one-row tiles holds no future per tile.
"""

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from itertools import islice

import numpy as np


def fold_rows(a: np.ndarray) -> np.ndarray:
    """Sum each row of a 2-D array over the fixed perfect binary tree of the
    row zero-padded to a power-of-two width; row i of the result is
    bit-identical to pairwise_sum(a[i])."""
    rows, n = a.shape
    if n == 0:
        return np.zeros(rows)
    m = 1 << (n - 1).bit_length()
    if m != n:
        a = np.concatenate([a, np.zeros((rows, m - n))], axis=1)
    while a.shape[1] > 1:
        a = a[:, 0::2] + a[:, 1::2]
    return a[:, 0].copy()


def fold_keys(vals, keys, n_groups: int, width: int) -> np.ndarray:
    """fold_rows of n_groups zero rows of `width` columns holding only the
    given entries: entry i sits in row keys[i] // m at column keys[i] % m,
    where m is width padded to a power of two, and the keys are strictly
    increasing.

    Only the rows that hold an entry are built, as one zeroed (touched
    rows, m) array that the entries are scattered into and fold_rows folds
    once, so each row is bit-identical to fold_rows of its zero row by
    construction; the other rows are +0.0. Memory is 8 * m bytes per
    touched row, not per group.
    """
    m = 1 << (width - 1).bit_length()
    out = np.zeros(n_groups)
    row, col = np.divmod(np.asarray(keys), m)
    first = np.diff(row, prepend=-1) != 0  # sorted keys: rows come in runs
    block = np.zeros((np.count_nonzero(first), m))
    block[np.cumsum(first) - 1, col] = vals
    out[row[first]] = fold_rows(block)
    return out


def pairwise_sum(values) -> float:
    """Sum a 1-D float array over a fixed perfect binary tree: one row of
    fold_rows. The result is a deterministic function of the input values
    and their order."""
    a = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if a.size == 0:
        return 0.0
    return float(fold_rows(a[None, :])[0])


def thread_map(fn, items, workers: int = 1) -> list:
    """[fn(item) for item in items], on up to `workers` threads when there
    is more than one item; results come back in the order of items.

    At most 2 * workers items are submitted ahead of the one collected
    next, so a walk of many small tiles holds a window of futures and
    results, not one per item."""
    if workers > 1 and len(items) > 1:
        out = []
        with ThreadPoolExecutor(max_workers=workers) as pool:
            todo = iter(items)
            ahead = deque(pool.submit(fn, item)
                          for item in islice(todo, 2 * workers))
            while ahead:
                out.append(ahead.popleft().result())
                for item in islice(todo, 1):
                    ahead.append(pool.submit(fn, item))
        return out
    return [fn(item) for item in items]
