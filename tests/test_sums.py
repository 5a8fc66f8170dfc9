
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sio_lab import sums
from sio_lab.sums import fold_keys, fold_rows, pairwise_sum, thread_map


def tree_sum(xs):
    """Reference: recursive halving over the zero-padded power-of-two width."""
    if len(xs) == 1:
        return xs[0]
    half = len(xs) // 2
    return tree_sum(xs[:half]) + tree_sum(xs[half:])


def test_empty_and_scalar():
    assert pairwise_sum(np.asarray([])) == 0.0
    assert pairwise_sum(np.asarray([3.5])) == 3.5


def test_matches_fsum_closely():
    rng = np.random.default_rng(0)
    x = rng.normal(size=10_001)
    import math
    assert abs(pairwise_sum(x) - math.fsum(x)) <= 1e-12 * np.abs(x).sum()


def test_parallel_bit_identical():
    rng = np.random.default_rng(1)
    for n in (1, 7, 1023, 1 << 16, (1 << 17) + 311):
        rows = rng.normal(size=(3, n))
        folds = fold_rows(rows)
        for x, fold in zip(rows, folds):
            serial = pairwise_sum(x)
            assert fold == serial
            if n <= 1023:
                padded = list(x) + [0.0] * ((1 << (n - 1).bit_length()) - n)
                assert serial == tree_sum(padded)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=0, max_size=200))
def test_permutation_of_padding_irrelevant(xs):
    x = np.asarray(xs)
    # appending explicit zeros must not change the tree result
    padded = np.concatenate([x, np.zeros(3)])
    assert pairwise_sum(padded) == pairwise_sum(x) or np.isnan(pairwise_sum(x))


SPECIAL = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 1.0, -1.0])


@settings(max_examples=300, deadline=None)
@given(width=st.one_of(st.integers(1, 300), st.sampled_from([1, 2, 4, 256])),
       n_groups=st.integers(1, 6), full=st.integers(-1, 5),
       all_negative_zero=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_fold_keys_is_fold_rows_of_the_zero_rows(width, n_groups, full,
                                                 all_negative_zero, seed):
    """Each row of the keyed fold is fold_rows of a zero row holding that
    row's entries: the same tree, with a lone child added to +0.0."""
    rng = np.random.default_rng(seed)
    # each column belongs to one row's band or to none, so rows may be
    # empty; a full row of -0.0 is the one row whose sum stays -0.0
    band = rng.integers(-1, n_groups, size=width)
    present = band[None, :] == np.arange(n_groups)[:, None]
    if 0 <= full < n_groups:
        present[full] = True
    if all_negative_zero:
        vals = np.full((n_groups, width), -0.0)
    else:
        vals = rng.normal(size=(n_groups, width)) * 10.0 ** rng.integers(
            -300, 300, size=(n_groups, width))
        special = rng.random((n_groups, width)) < 0.3
        vals[special] = rng.choice(SPECIAL, size=np.count_nonzero(special))
    rows, cols = np.nonzero(present)
    m = 1 << (width - 1).bit_length()
    with np.errstate(invalid="ignore", over="ignore"):
        got = fold_keys(vals[rows, cols], rows * m + cols, n_groups, width)
        want = fold_rows(np.where(present, vals, 0.0))
    assert [float(x).hex() for x in got] == [float(x).hex() for x in want]


def test_fold_keys_builds_only_the_touched_rows(monkeypatch):
    """A million groups with entries in three of them fold one (3, 64)
    array: the cost follows the touched rows, not n_groups * width."""
    shapes = []

    def recording(a):
        shapes.append(a.shape)
        return fold_rows(a)
    monkeypatch.setattr(sums, "fold_rows", recording)
    keys = np.array([5, 64 * 7 + 1, 64 * 7 + 63, 64 * 999_998])
    got = fold_keys(np.array([1.0, 2.0, 3.0, 4.0]), keys, 10 ** 6, 64)
    assert shapes == [(3, 64)]
    assert np.flatnonzero(got).tolist() == [0, 7, 999_998]
    assert got[[0, 7, 999_998]].tolist() == [1.0, 5.0, 4.0]


class Pulls:
    """range(n) as a sized iterable that counts the items taken from it."""

    def __init__(self, n):
        self.n, self.taken = n, 0

    def __len__(self):
        return self.n

    def __iter__(self):
        for i in range(self.n):
            self.taken += 1
            yield i


@pytest.mark.parametrize("workers", [2, 3, 8])
def test_thread_map_submits_a_bounded_window_in_order(workers):
    """While item i runs it is not yet collected, so at most 2 * workers
    items were taken past the i already collected; an unbounded map would
    take every item before the first one ends. More threads than cores,
    switching often, keep every result in its place."""
    items, over = Pulls(60), []
    lock = threading.Lock()

    def fn(i):
        if i % 7 == 0:
            time.sleep(0.01)  # let the pool run ahead if it could
        with lock:
            if items.taken > i + 2 * workers:
                over.append((i, items.taken))
        return i * i
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = thread_map(fn, items, workers)
    finally:
        sys.setswitchinterval(interval)
    assert got == [i * i for i in range(60)]
    assert over == []
