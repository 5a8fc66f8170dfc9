"""Deterministic pairwise-tree float reduction.

Every double sum in the lab funnels through fold_rows (pairwise_sum is its
one-row case) so that results are bit-identical across runs and across worker counts: the reduction tree is a
perfect binary tree over the zero-padded input, and parallel execution only
ever hands out whole subtrees.
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
            with ThreadPoolExecutor(max_workers=workers) as pool:
                partials = np.concatenate(list(pool.map(fold_rows, blocks)))
            return float(fold_rows(partials[None, :])[0])
    return float(fold_rows(a[None, :])[0])
