import numpy as np
import pytest

from oracles import dense_kernel
from sio_lab.errors import DiagonalError, InputError
from sio_lab import kernels, metric
from sio_lab.kernels import (_UFUNCS, NAMED_BASES, KernelSpec,
                             check_antisymmetry, check_size_bound,
                             eval_kernel, kernel_matrix, kernel_rows,
                             pair_rows)
from sio_lab.metric import MetricDescriptor, make_cloud

E2 = MetricDescriptor(family="euclidean_p", dimension=2, p=2.0)
RIESZ = KernelSpec(family="coordinate_riesz", s=1.0, i=1, n=1)


def two_atoms():
    return make_cloud([[0.0, 0.0], [1.0, 0.0]], E2)


def test_riesz_values():
    cloud = two_atoms()
    assert eval_kernel(RIESZ, cloud, 0, 1) == -1.0
    assert eval_kernel(RIESZ, cloud, 1, 0) == 1.0
    k2 = KernelSpec(family="coordinate_riesz", s=1.0, i=2, n=1)
    assert eval_kernel(k2, cloud, 0, 1) == 0.0


@pytest.mark.parametrize("s", [float("nan"), float("inf"), 0.0, -1.0])
def test_kernel_spec_needs_a_finite_positive_s(s):
    with pytest.raises(InputError, match="finite and positive"):
        KernelSpec(family="coordinate_riesz", s=s)


def test_diagonal_raises():
    with pytest.raises(DiagonalError):
        eval_kernel(RIESZ, two_atoms(), 0, 0)


def test_eval_bit_antisymmetric():
    rng = np.random.default_rng(2)
    cloud = make_cloud(rng.random((15, 2)), E2)
    for i in range(15):
        for j in range(15):
            if i != j:
                assert eval_kernel(RIESZ, cloud, i, j) \
                    == -eval_kernel(RIESZ, cloud, j, i)


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


def test_check_antisymmetry_generic_ok():
    k = KernelSpec(family="generic_antisymmetrized", s=1.0, base="inv_dist")
    rng = np.random.default_rng(8)
    cloud = make_cloud(rng.random((20, 2)), E2)
    assert check_antisymmetry(k, cloud).ok


def test_symmetric_base_detected():
    # b = d^-s without antisymmetrization: residual 2 d^-s > 0, not ok
    k_raw = KernelSpec(family="generic_antisymmetrized", s=1.0,
                       base="inv_dist", antisymmetrize=False)
    cloud = two_atoms()
    report = check_antisymmetry(k_raw, cloud)
    assert not report.ok
    assert report.lhs == pytest.approx(2.0, rel=1e-15)
    # antisymmetrization repairs it to the zero kernel
    k = KernelSpec(family="generic_antisymmetrized", s=1.0, base="inv_dist")
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
    k = KernelSpec(family="generic_antisymmetrized", s=1.0, base="zero")
    c, _ = check_size_bound(k, two_atoms(), 1.0)
    assert c == 0.0


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
        KernelSpec(family="generic_antisymmetrized", s=1.0,
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
    k = KernelSpec(family="generic_antisymmetrized", s=1.0, base=base,
                   antisymmetrize=False)
    x, y = coords[:, None, :], coords[None, :, :]
    d = np.sqrt((x[..., 0] - y[..., 0]) ** 2 + (x[..., 1] - y[..., 1]) ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        want = eval(base, {"__builtins__": {}},  # noqa: S307 - test oracle
                    {"x": x, "y": y, "d": d, "np": np})
    np.fill_diagonal(want, 0.0)
    assert kernel_matrix(k, cloud).tobytes() == want.tobytes()


def test_out_of_range_coordinate_is_an_input_error():
    k = KernelSpec(family="generic_antisymmetrized", s=1.0,
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


@pytest.mark.parametrize("antisymmetrize", [True, False])
@pytest.mark.parametrize("name", sorted(_UFUNCS) + sorted(NAMED_BASES))
def test_tiles_match_the_dense_construction(name, antisymmetrize):
    """Blocks of kernel_rows carry the bits of the whole matrix b
    antisymmetrized as (b - b.T) / 2, on row tiles and the column blocks
    check_antisymmetry reads, starting at every offset 0 through 8."""
    cloud = make_cloud(np.random.default_rng(3).random((37, 2)), E2)
    every = np.arange(cloud.n_points)
    bases = ufunc_bases(name) if name in _UFUNCS else [name]
    for base in bases:
        k = KernelSpec(family="generic_antisymmetrized", s=1.5, base=base,
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


@pytest.mark.parametrize("n", [1, 2, 3])  # n >= 2 goes through np.power
@pytest.mark.parametrize("i", [1, 2])
def test_riesz_tiles_match_the_whole_matrix(i, n):
    """A Riesz pair gets the same bits in any block shape: row tiles, the
    column blocks check_antisymmetry reads and their transposes, at every
    offset 0 through 8, and the kernel block of pair_rows."""
    cloud = make_cloud(np.random.default_rng(4).random((37, 2)), E2)
    every = np.arange(cloud.n_points)
    k = KernelSpec(family="coordinate_riesz", s=float(n), i=i, n=n)
    want = kernel_rows(k, cloud, every)
    assert want.tobytes() == dense_kernel(k, cloud).tobytes()
    for x0 in range(9):
        rows, cols = every[x0:x0 + 5], every[x0:]
        assert kernel_rows(k, cloud, rows).tobytes() == want[rows].tobytes()
        for a, b in ((rows, cols), (cols, rows)):
            block = want[np.ix_(a, b)].tobytes()
            assert kernel_rows(k, cloud, a, b).tobytes() == block
            assert pair_rows(k, cloud, a, b)[0].tobytes() == block


GENERIC = KernelSpec(family="generic_antisymmetrized", s=1.0,
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
