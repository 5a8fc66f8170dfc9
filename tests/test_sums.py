import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sio_lab.sums import fold_raveled, fold_rows, pairwise_sum


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
            for workers in (2, 4, 8):
                assert pairwise_sum(x, workers=workers) == serial


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=0, max_size=200))
def test_permutation_of_padding_irrelevant(xs):
    x = np.asarray(xs)
    # appending explicit zeros must not change the tree result
    padded = np.concatenate([x, np.zeros(3)])
    assert pairwise_sum(padded) == pairwise_sum(x) or np.isnan(pairwise_sum(x))


def test_fold_raveled_matches_pairwise_sum_of_the_raveling():
    rng = np.random.default_rng(3)
    # 13 x 17 in chunks of 64: chunk boundaries cut rows 3, 7 and 11, and
    # the last chunk holds 29 of its 64 entries
    for n_rows, n_cols in ((1, 1), (2, 3), (7, 5), (13, 17), (40, 40)):
        mats = rng.normal(size=(2, n_rows, n_cols)) \
            * 10.0 ** rng.integers(-8, 8, size=(2, n_rows, n_cols))
        # all -0.0: only zero padding turns the sum into +0.0
        mats = np.concatenate([mats, np.full((1, n_rows, n_cols), -0.0)])
        want = [pairwise_sum(m.ravel()).hex() for m in mats]
        for chunk, workers in itertools.product((1, 3, 4, 7, 64, 1 << 20),
                                                (1, 2, 3)):
            got = fold_raveled(lambda a0, a1: mats[:, a0:a1], n_rows, n_cols,
                               chunk, workers)
            assert [float(x).hex() for x in got] == want
