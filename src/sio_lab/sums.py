"""Deterministic pairwise-tree float reduction.

Every double sum in the lab is taken over one reduction tree, so that
results are bit-identical across runs and across worker counts: each row
is folded over the perfect binary tree of its zero-padded width
(fold_rows), and the row results over the same kind of tree in row order
(pairwise_sum, fold_rows' one-row case). fold_keys walks the same tree
over rows given only by their nonzero entries; it adds a lone child to
+0.0 as the dense tree adds it to a masked zero, so its rows are
bit-identical to fold_rows'. The pairing trace hands it only the blocks
of 64 columns that straddle a band edge, folded to block width; the
blocks that their distance bounds decide are folded densely or are +0.0.
Parallel execution only ever hands out whole rows. thread_map is the
lab's one thread pool, and metric.tile_map hands it row tiles; it keeps
about 2 * workers tiles submitted ahead of the one it collects, so a walk
of many one-row tiles holds no future per tile. No sum folds a raveled
matrix any more: the cancellation residual, the last to do so, moved to
the row tree, which changed the last bits of its scale once.
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
    given entries, without building the rows: entry i sits in row
    keys[i] // m at column keys[i] % m, where m is width padded to a power
    of two, and the keys are strictly increasing.

    The same perfect binary tree is walked bottom up over the present nodes
    alone, b levels at a time: the present nodes of each subtree of 2^b
    nodes are scattered into a zero row and folded with fold_rows, so a
    lone child is added to +0.0 exactly as the dense tree adds it to its
    zero sibling (-0.0 becomes +0.0, NaN stays NaN), and every row's result
    is bit-identical to fold_rows. Subtrees with no entry are never built,
    and b is the most levels for which the built rows are on average at
    least half full, so the cost follows the entries, not n_groups * width.
    """
    m = 1 << (width - 1).bit_length()
    height = m.bit_length() - 1
    out = np.zeros(n_groups)
    v, k = np.asarray(vals, dtype=np.float64), np.asarray(keys)
    if v.size == 0:
        return out
    # neighbours meet at the level of their keys' highest differing bit;
    # past `height` they lie in different rows. nodes[h] counts the present
    # nodes at height h, and at height `last` each row is down to one.
    meet = np.frexp((k[1:] ^ k[:-1]).astype(np.float64))[1]
    merges = np.bincount(meet, minlength=height + 1)[:height + 1]
    nodes = (v.size - np.cumsum(merges)).tolist()
    last = max((h for h in range(height + 1) if merges[h]), default=0)
    h = 0
    while h < last:
        lone = h
        while nodes[lone + 1] == nodes[h]:
            lone += 1
        if lone > h:
            # no two nodes meet up to level `lone`: each is a lone child
            # there, and one + 0.0 serves the whole run
            v, k, h = v + 0.0, k >> (lone - h), lone
        b = max(b for b in range(1, last - h + 1)
                if nodes[h + b] << b <= 2 * nodes[h])
        starts = np.flatnonzero(np.diff(k >> b, prepend=-1))
        up = k[starts] >> b
        # node k goes to column k % 2^b of its subtree's row of `block`
        slot = np.repeat((up - np.arange(up.size)) << b,
                         np.diff(starts, append=k.size))
        np.subtract(k, slot, out=slot)
        block = np.zeros(up.size << b)
        block[slot] = v
        v, k = fold_rows(block.reshape(up.size, 1 << b)), up
        h += b
    if last < height:
        v = v + 0.0  # each row is one lone node up the remaining levels
    out[k >> (height - last)] = v
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
