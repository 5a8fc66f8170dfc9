
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sio_lab.sums import fold_keys, fold_rows, pairwise_sum


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
