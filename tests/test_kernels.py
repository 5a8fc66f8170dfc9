import numpy as np
import pytest

from oracles import dense_antisymmetry, dense_kernel
from sio_lab.errors import InputError
from sio_lab import kernels, metric
from sio_lab.kernels import (_UFUNCS, KernelSpec, check_antisymmetry,
                             check_size_bound, kernel_matrix, kernel_rows,
                             pair_rows)
from sio_lab.metric import MetricDescriptor, make_cloud

E2 = MetricDescriptor(family="euclidean_p", dimension=2, p=2.0)
RIESZ = KernelSpec(family="coordinate_riesz", i=1, n=1)


def two_atoms():
    return make_cloud([[0.0, 0.0], [1.0, 0.0]], E2)


def test_riesz_values():
    cloud = two_atoms()
    assert kernel_rows(RIESZ, cloud, [0], [1])[0, 0] == -1.0
    assert kernel_rows(RIESZ, cloud, [1], [0])[0, 0] == 1.0
    k2 = KernelSpec(family="coordinate_riesz", i=2, n=1)
    assert kernel_rows(k2, cloud, [0], [1])[0, 0] == 0.0


@pytest.mark.parametrize("s", [float("nan"), float("inf"), 0.0, -1.0])
def test_the_size_bound_needs_a_finite_positive_s(s):
    """An s that no growth bound could share is refused; the size bound
    formerly returned nan, 0.0 or a finite constant for it."""
    with pytest.raises(InputError, match=f"s must be finite and positive, "
                                         f"got {s!r}"):
        kernels.size_bound_pass(two_atoms(), s)
    with pytest.raises(InputError, match="finite and positive"):
        check_size_bound(RIESZ, two_atoms(), s)


@pytest.mark.parametrize("n", [0, -2, True, 1.0, 2.5])
def test_a_riesz_exponent_is_an_int_of_at_least_one(n):
    """n = 0 and n = -2 would certify (x_i - y_i)/|x - y| and
    (x_i - y_i) |x - y|, which are no Riesz kernels."""
    with pytest.raises(InputError, match="Riesz exponent n must be an int"):
        KernelSpec(family="coordinate_riesz", n=n)


def test_eval_bit_antisymmetric():
    """k(x, y) == -k(y, x) bit for bit in either orientation of a block,
    and in one-pair blocks."""
    rng = np.random.default_rng(2)
    cloud = make_cloud(rng.random((15, 2)), E2)
    every = np.arange(15)
    for x0 in range(9):
        rows, cols = every[x0:x0 + 5], every[x0:]
        assert np.array_equal(kernel_rows(RIESZ, cloud, rows, cols),
                              -kernel_rows(RIESZ, cloud, cols, rows).T)
    for i in range(15):
        for j in range(15):
            if i != j:
                assert kernel_rows(RIESZ, cloud, [i], [j])[0, 0] \
                    == -kernel_rows(RIESZ, cloud, [j], [i])[0, 0]


def test_matrix_bit_antisymmetric():
    rng = np.random.default_rng(5)
    cloud = make_cloud(rng.random((40, 2)), E2)
    km = kernel_matrix(RIESZ, cloud)
    assert np.array_equal(km, -km.T)


def test_check_antisymmetry_riesz_exact():
    rng = np.random.default_rng(7)
    cloud = make_cloud(rng.random((30, 2)), E2)
    report = check_antisymmetry(RIESZ, cloud)
    assert report.ok
    assert report.lhs == 0.0


def test_riesz_index_beyond_the_dimension_is_an_input_error():
    # formerly an IndexError from the list of coordinate differences
    k3 = KernelSpec(family="coordinate_riesz", i=3, n=1)
    with pytest.raises(InputError, match="index 3 .* dimension 2"):
        check_antisymmetry(k3, two_atoms())


def test_check_antisymmetry_generic_ok():
    k = KernelSpec(family="generic_antisymmetrized", base="d ** -1.0")
    rng = np.random.default_rng(8)
    cloud = make_cloud(rng.random((20, 2)), E2)
    assert check_antisymmetry(k, cloud).ok


def test_symmetric_base_detected():
    # b = d^-s without antisymmetrization: residual 2 d^-s > 0, not ok
    k_raw = KernelSpec(family="generic_antisymmetrized",
                       base="d ** -1.0", antisymmetrize=False)
    cloud = two_atoms()
    report = check_antisymmetry(k_raw, cloud)
    assert not report.ok
    assert report.lhs == pytest.approx(2.0, rel=1e-15)
    # antisymmetrization repairs it to the zero kernel
    k = KernelSpec(family="generic_antisymmetrized", base="d ** -1.0")
    assert np.all(kernel_matrix(k, cloud) == 0.0)


def test_size_bound_two_atoms():
    c, witness = check_size_bound(RIESZ, two_atoms(), 1.0)
    assert c == 1.0
    assert witness == (0, 1)


def test_size_bound_riesz_at_most_one():
    rng = np.random.default_rng(11)
    cloud = make_cloud(rng.random((100, 2)), E2)
    c, _ = check_size_bound(RIESZ, cloud, 1.0)
    assert c <= 1.0  # |x1 - y1| <= |x - y| pointwise


def test_size_bound_zero_kernel():
    k = KernelSpec(family="generic_antisymmetrized", base="0.0")
    c, _ = check_size_bound(k, two_atoms(), 1.0)
    assert c == 0.0
    # the default base is the zero kernel
    k = KernelSpec(family="generic_antisymmetrized")
    assert check_size_bound(k, two_atoms(), 1.0)[0] == 0.0


def test_a_base_is_an_expression_not_a_name():
    with pytest.raises(InputError, match="may not contain 'zero'"):
        KernelSpec(family="generic_antisymmetrized", base="zero")


def test_size_bound_monotone_under_restriction():
    rng = np.random.default_rng(13)
    coords = rng.random((30, 2))
    full = make_cloud(coords, E2)
    sub = make_cloud(coords[:12], E2)
    c_full, _ = check_size_bound(RIESZ, full, 1.0)
    c_sub, _ = check_size_bound(RIESZ, sub, 1.0)
    assert c_sub <= c_full


def test_size_bound_certified_against_cloud_metric():
    # snowflake metric: same Riesz formula, constant certified in d^alpha
    md = MetricDescriptor(family="snowflake", dimension=2, p=2.0, alpha=0.5)
    cloud = make_cloud([[0.0, 0.0], [0.25, 0.0]], md)
    # |k| = 1/0.25 = 4; d = 0.5; c = 4 * 0.5 = 2 for s = 1
    c, _ = check_size_bound(RIESZ, cloud, 1.0)
    assert c == pytest.approx(2.0, rel=1e-15)


@pytest.mark.parametrize("base", [
    "np.savetxt('{path}', d) or d",
    "x.__class__",
    "__import__('os').getcwd()",
    "np.sqrt.__call__(d)",
    "np.sqrt(d, out=d)",
    "np.sqrt(d, d)",  # a further positional argument is `out`
    "np.add(x[..., 0], d, d)",
    "np.sqrt()",
    "np.sum(d)",
    "(lambda: d)()",
    "d if d else x",
    "d[x]",
    "d[1.5]",
    "True * d",
    "'d' * 2",
    "y @ x",
    # subscripts other than x[..., i] and y[..., i] with an int literal i
    "d[0] * x[..., 0]",
    "d[...]",
    "x[0, 0, 0]",
    "x[0]",
    "x[..., 0:1]",
    "y[..., 0:1][..., 0]",
    "x[..., 0][0]",
    "(x + y)[..., 0]",
    "x[..., y]",
    "x[..., 1.0]",
    "x[..., --1]",
    "x[..., 0, 0]",
])
def test_expression_outside_the_whitelist_is_rejected(base, tmp_path):
    path = tmp_path / "written.txt"
    with pytest.raises(InputError):
        KernelSpec(family="generic_antisymmetrized",
                   base=base.format(path=path))
    assert not path.exists()


@pytest.mark.parametrize("base", [
    "x[..., 0] * (x[..., 1] + 2.0 * y[..., 0]) / d ** 1.5",
    "np.sqrt(5.0 - x[..., 0]) * (y[..., 1] + 1.0) / d",
    "-np.arctan2(x[..., -1], y[..., 0]) / (d + 1) ** 2",
])
def test_whitelisted_expression_matches_python_evaluation(base):
    """The expression evaluator gives the bits Python's own evaluation of
    the same expression gives."""
    coords = np.random.default_rng(4).random((9, 2)) * 3.0
    cloud = make_cloud(coords, E2)
    k = KernelSpec(family="generic_antisymmetrized", base=base,
                   antisymmetrize=False)
    x, y = coords[:, None, :], coords[None, :, :]
    d = np.sqrt((x[..., 0] - y[..., 0]) ** 2 + (x[..., 1] - y[..., 1]) ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        want = eval(base, {"__builtins__": {}},  # noqa: S307 - test oracle
                    {"x": x, "y": y, "d": d, "np": np})
    np.fill_diagonal(want, 0.0)
    assert kernel_matrix(k, cloud).tobytes() == want.tobytes()


def test_out_of_range_coordinate_is_an_input_error():
    k = KernelSpec(family="generic_antisymmetrized",
                   base="x[..., 0] * y[..., -3]")
    with pytest.raises(InputError, match="index -3 .* dimension 2"):
        kernel_matrix(k, two_atoms())


# one value per ufunc of the whitelist: on a full (rows, cols) argument in
# its domain, on a per-row coordinate and on the Euclidean distance
_A = "(0.5 + 0.45 * (x[..., 0] - y[..., 1]))"
_B = "(0.5 + 0.45 * (y[..., 0] - x[..., 1]))"
_BINARY_UFUNCS = {"arctan2", "hypot", "maximum", "minimum", "power"}


def ufunc_bases(name):
    if name in _BINARY_UFUNCS:
        return [f"np.{name}({_A}, {_B}) / d",
                f"np.{name}(x[..., 1], y[..., 0]) * d"]
    return [f"np.{name}({_A}) / d", f"np.{name}(x[..., 1]) * y[..., 0]",
            f"np.{name}(d)"]


_FORMERLY_NAMED = ("coord_product", "inv_dist", "zero")


def formerly_named(name, s):
    """The expression that replaced the kernel's named base `name` at s."""
    return {"zero": "0.0", "inv_dist": f"d ** -{s}",
            "coord_product": f"x[..., 0] * (x[..., 0] - y[..., 0]) "
                             f"/ d ** {s + 1.0}"}[name]


def _named_base(name, cloud, s, rows, cols):
    """b(x, y) on a (rows, cols) block by the formulas the named bases
    used: zeros, d^-s in the cloud's metric, and x_1 (x_1 - y_1) /
    |x - y|^(s+1)."""
    if name == "zero":
        return np.zeros((rows.size, cols.size))
    if name == "inv_dist":
        with np.errstate(divide="ignore"):
            return metric._distance_rows(cloud, rows, cols) ** (-s)
    diffs = metric._differences(cloud.coords, rows, cols)
    d = metric._norm(E2, diffs)
    with np.errstate(divide="ignore", invalid="ignore"):
        return cloud.coords[rows, None, 0] * diffs[0] / d ** (s + 1.0)


@pytest.mark.parametrize("antisymmetrize", [True, False])
@pytest.mark.parametrize("name, s", [("inv_dist", 1.0), ("inv_dist", 1.5),
                                     ("coord_product", 1.5), ("zero", 1.5)])
def test_expressions_give_the_bits_of_the_named_bases(name, s,
                                                      antisymmetrize):
    """On an E2 cloud, each expression that replaced a named base gives
    that base's kernel bit for bit, (b(x,y) - b(y,x)) / 2 or b itself and
    zero where x == y, in kernel_rows blocks at offsets 0 through 8."""
    cloud = make_cloud(np.random.default_rng(3).random((37, 2)), E2)
    every = np.arange(cloud.n_points)
    k = KernelSpec(family="generic_antisymmetrized",
                   base=formerly_named(name, s),
                   antisymmetrize=antisymmetrize)

    def named(rows, cols):
        b = _named_base(name, cloud, s, rows, cols)
        with np.errstate(invalid="ignore"):
            vals = ((b - _named_base(name, cloud, s, cols, rows).T) / 2.0
                    if antisymmetrize else b.copy())
        vals[rows[:, None] == cols[None, :]] = 0.0
        return vals
    for x0 in range(9):
        rows, cols = every[x0:x0 + 5], every[x0:]
        for a, b in ((rows, every), (rows, cols), (cols, rows)):
            assert kernel_rows(k, cloud, a, b).tobytes() \
                == named(a, b).tobytes()


@pytest.mark.parametrize("antisymmetrize", [True, False])
@pytest.mark.parametrize("name", sorted(_UFUNCS) + sorted(_FORMERLY_NAMED))
def test_tiles_match_the_dense_construction(name, antisymmetrize):
    """Blocks of kernel_rows carry the bits of the whole matrix b
    antisymmetrized as (b - b.T) / 2, on row tiles and the column blocks
    check_antisymmetry reads, starting at every offset 0 through 8, and
    so do their swapped blocks k(y, x): values, signbits and NaNs."""
    cloud = make_cloud(np.random.default_rng(3).random((37, 2)), E2)
    every = np.arange(cloud.n_points)
    bases = ufunc_bases(name) if name in _UFUNCS \
        else [formerly_named(name, 1.5)]
    for base in bases:
        k = KernelSpec(family="generic_antisymmetrized", base=base,
                       antisymmetrize=antisymmetrize)
        want = dense_kernel(k, cloud)
        assert kernel_rows(k, cloud, every).tobytes() == want.tobytes()
        for x0 in range(9):
            rows, cols = every[x0:x0 + 5], every[x0:]
            assert kernel_rows(k, cloud, rows).tobytes() \
                == want[rows].tobytes()
            assert kernel_rows(k, cloud, rows, cols).tobytes() \
                == want[np.ix_(rows, cols)].tobytes()
            assert kernel_rows(k, cloud, cols, rows).tobytes() \
                == want[np.ix_(cols, rows)].tobytes()
            assert_swapped_blocks(k, cloud, want, rows, cols)


def assert_swapped_blocks(k, cloud, want, rows, cols):
    """kernel_rows with swap gives k(y, x) laid out (rows, cols): the
    whole matrix's transposed block, bit for bit, for every point, the
    column block y >= x0 and its transpose."""
    every = np.arange(cloud.n_points)
    for a, b in ((rows, None), (rows, cols), (cols, rows)):
        got = kernel_rows(k, cloud, a, b, swap=True)
        assert got.tobytes() == want[np.ix_(every if b is None else b,
                                            a)].T.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])  # n >= 2 goes through np.power
@pytest.mark.parametrize("i", [1, 2])
def test_riesz_tiles_match_the_whole_matrix(i, n):
    """A Riesz pair gets the same bits in any block shape: row tiles, the
    column blocks check_antisymmetry reads and their transposes, at every
    offset 0 through 8, the kernel block of pair_rows, and in the swapped
    orientation k(y, x)."""
    cloud = make_cloud(np.random.default_rng(4).random((37, 2)), E2)
    every = np.arange(cloud.n_points)
    k = KernelSpec(family="coordinate_riesz", i=i, n=n)
    want = kernel_rows(k, cloud, every)
    assert want.tobytes() == dense_kernel(k, cloud).tobytes()
    for x0 in range(9):
        rows, cols = every[x0:x0 + 5], every[x0:]
        assert kernel_rows(k, cloud, rows).tobytes() == want[rows].tobytes()
        for a, b in ((rows, cols), (cols, rows)):
            block = want[np.ix_(a, b)].tobytes()
            assert kernel_rows(k, cloud, a, b).tobytes() == block
            assert pair_rows(k, cloud, a, b)[0].tobytes() == block
        assert_swapped_blocks(k, cloud, want, rows, cols)


GENERIC = KernelSpec(family="generic_antisymmetrized",
                     base="x[..., 0] * (x[..., 1] + 2.0 * y[..., 0]) / d")


@pytest.mark.parametrize("k", [RIESZ, GENERIC])
@pytest.mark.parametrize("md, builds_d", [
    (E2, False),
    (MetricDescriptor(family="euclidean_p", dimension=2, p=1.0), True),
    (MetricDescriptor(family="euclidean_p", dimension=2, p=np.inf), True),
    (MetricDescriptor(family="snowflake", dimension=2, alpha=0.5), True),
    (MetricDescriptor(family="custom_table", dimension=2), True)])
def test_pair_rows_reads_d_off_the_kernel_norm_only_on_e2(k, md, builds_d,
                                                          monkeypatch):
    """pair_rows' d is _distance_rows' block bit for bit; it is built by
    _distance_rows on every metric but E2, whose d is the kernel's own
    Euclidean norm."""
    coords = np.random.default_rng(6).random((23, 2))
    table = np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(-1)) ** 0.5
    cloud = make_cloud(coords, md, table=table)
    calls = []
    real = kernels._distance_rows
    monkeypatch.setattr(kernels, "_distance_rows", lambda *a: calls.append(
        1) or real(*a))
    every = np.arange(cloud.n_points)
    for rows, cols in ((every[4:9], None), (every[4:9], every[2:]),
                       (every[2:], every[4:9])):
        calls.clear()
        vals, d = pair_rows(k, cloud, rows, cols)
        assert len(calls) == int(builds_d)
        assert d.tobytes() == metric._distance_rows(cloud, rows,
                                                    cols).tobytes()
        assert vals.tobytes() == kernel_rows(k, cloud, rows, cols).tobytes()


ZERO = KernelSpec(family="generic_antisymmetrized")
RAW = KernelSpec(family="generic_antisymmetrized", base=GENERIC.base,
                 antisymmetrize=False)
# b = -0.0 everywhere: every k(x, y) off the diagonal is -0.0
NEG_ZERO = KernelSpec(family="generic_antisymmetrized", base="-0.0",
                      antisymmetrize=False)
# |k| peaks at a large x_1 and a small y_1: below the diagonal when the
# ids follow x_1, where only k(y, x) of the tile of row x reads it
LOWER = KernelSpec(family="generic_antisymmetrized",
                   base="x[..., 0] / (0.01 + y[..., 0])", antisymmetrize=False)
# NaN wherever x_1 > 0.5
NAN_RAW = KernelSpec(family="generic_antisymmetrized",
                     base="np.sqrt(0.5 - x[..., 0]) * (y[..., 1] + 1.0) / d",
                     antisymmetrize=False)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("k, general", [
    (RIESZ, False), (KernelSpec(family="coordinate_riesz", i=2, n=2), False),
    (GENERIC, False), (ZERO, False), (NEG_ZERO, False), (RAW, True),
    (LOWER, True), (NAN_RAW, True), ("one_ulp_off", True)])
def test_antisymmetry_tiles_match_the_dense_check(k, general, workers,
                                                  monkeypatch):
    """Both branches of the antisymmetry tile give the whole matrix's
    check: the residual, the row-major first pair attaining it, and the
    scale max |k|, bit for bit. A tile whose k(x, y) + k(y, x) are all
    zero takes the shortcut, which evaluates no first maximum; the others
    take the general path. A zero kernel's scale is +0.0."""
    coords = np.random.default_rng(7).random((37, 2))
    cloud = make_cloud(coords[np.argsort(coords[:, 0])], E2)  # ids by x_1
    monkeypatch.setattr(metric, "_TILE_PAIRS", 5 * 37)  # 5 rows a thread
    ulp = k == "one_ulp_off"
    if ulp:
        # k(x, y) one ulp up at x = 3, y = 21, in the tile of row 3 only
        k, x, y = RIESZ, 3, 21
        real = kernels._kernel_block

        def one_ulp_off(k, cloud, rows, cols, swap=False):
            vals, norm = real(k, cloud, rows, cols, swap)
            cols = np.arange(cloud.n_points) if cols is None else cols
            first, second = (y, x) if swap else (x, y)  # (row, col)
            at = (rows[:, None] == first) & (cols[None, :] == second)
            vals[at] = np.nextafter(vals[at], np.inf)
            return vals, norm
        monkeypatch.setattr(kernels, "_kernel_block", one_ulp_off)
    km = dense_kernel(k, cloud)
    if ulp:
        km[x, y] = np.nextafter(km[x, y], np.inf)
    want = dense_antisymmetry(km)
    tiles = []
    real_first_max = kernels._first_max
    monkeypatch.setattr(kernels, "_first_max", lambda vals, rows, col0: (
        tiles.append(rows[0]), real_first_max(vals, rows, col0))[1])
    got = check_antisymmetry(k, cloud, workers)
    assert [float(v).hex() for v in (got.lhs, got.witness["scale"])] \
        == [float(v).hex() for v in (want[0], want[2])]
    assert got.witness["pair"] == want[1]
    if ulp:
        assert tiles == [0] and got.witness["pair"] == (3, 21)
    else:
        assert sorted(tiles) \
            == (list(range(0, 37, 5 * workers)) if general else [])
    if k in (ZERO, NEG_ZERO):
        assert got.witness["scale"] == 0.0 \
            and not np.signbit(got.witness["scale"])
        assert got.lhs == 0.0 and got.witness["pair"] == (0, 0)
