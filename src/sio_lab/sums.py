"""Deterministic pairwise-tree float reduction.

Every double sum in the lab funnels through fold_rows (pairwise_sum is its
one-row case) so that results are bit-identical across runs and across
worker counts: the reduction tree is a perfect binary tree over the
zero-padded input, and parallel execution only ever hands out whole
subtrees. thread_map is the lab's one thread pool; metric.tile_map hands it
row tiles, pairwise_sum and fold_raveled hand it subtrees.
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


def pairwise_sum(values, workers: int = 1) -> float:
    """Sum a 1-D float array over a fixed perfect binary tree.

    The result is a deterministic function of the input values and their
    order; `workers` affects wall time only, never the bits.
    """
    a = np.ascontiguousarray(values, dtype=np.float64).ravel()
    n = a.size
    if n == 0:
        return 0.0
    m = 1 << (n - 1).bit_length()
    if m != n:
        a = np.concatenate([a, np.zeros(m - n)])
    if workers > 1 and m >= 1 << 16:
        # power-of-two block count: each block is a whole subtree of the
        # serial reduction, so the parallel result is bit-identical to it
        nblocks = 1
        while nblocks * 2 <= workers and m // (nblocks * 2) >= 1 << 12:
            nblocks *= 2
        if nblocks > 1:
            blocks = a.reshape(nblocks, 1, m // nblocks)
            partials = np.concatenate(thread_map(fold_rows, blocks, workers))
            return float(fold_rows(partials[None, :])[0])
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
