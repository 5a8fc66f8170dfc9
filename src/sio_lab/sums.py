"""Deterministic pairwise-tree float reduction.

Every double sum in the lab is taken over one tree, so that results are
bit-identical across runs and across worker counts: the perfect binary tree
over the zero-padded input of fold_rows (pairwise_sum is its one-row case).
fold_keys walks the same tree over rows given only by their nonzero
entries; it adds a lone child to +0.0 as the dense tree adds it to a masked
zero, so its rows are bit-identical to fold_rows'. Parallel execution only
ever hands out whole subtrees. thread_map is the lab's one thread pool;
metric.tile_map hands it row tiles, fold_raveled hands it subtrees.
"""

from concurrent.futures import ThreadPoolExecutor

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


def fold_raveled(block, n_rows: int, n_cols: int, chunk: int,
                 workers: int = 1) -> np.ndarray:
    """pairwise_sum of the row-major raveling of each of Q matrices of shape
    (n_rows, n_cols), without building them: block(a0, a1) returns rows
    a0..a1-1 of all Q as a (Q, a1 - a0, n_cols) array.

    The raveled length is walked in aligned power-of-two chunks of at most
    `chunk` entries; each chunk is a whole subtree of pairwise_sum's tree,
    so the Q results are bit-identical to pairwise_sum(matrix.ravel()) for
    any `workers`, the number of threads the chunks are folded on (block
    is then called from several threads at once). A row that a chunk
    boundary cuts is asked for by both chunks.
    """
    n = n_rows * n_cols
    m = 1 << (n - 1).bit_length()
    c = min(m, 1 << (max(1, chunk).bit_length() - 1))

    def fold_chunk(start):
        end = min(start + c, n)
        a0, a1 = start // n_cols, (end - 1) // n_cols + 1
        flat = block(a0, a1).reshape(-1, (a1 - a0) * n_cols)
        flat = flat[:, start - a0 * n_cols:end - a0 * n_cols]
        if end - start < c:
            flat = np.concatenate(
                [flat, np.zeros((flat.shape[0], c - (end - start)))], axis=1)
        return fold_rows(flat)
    partials = thread_map(fold_chunk, range(0, n, c), workers)
    return fold_rows(np.stack(partials, axis=1))


def thread_map(fn, items, workers: int = 1) -> list:
    """[fn(item) for item in items], on up to `workers` threads when there
    is more than one item; results come back in the order of items."""
    if workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]
