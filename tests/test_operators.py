import gzip
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.io
import scipy.sparse
from hypothesis import given, settings, strategies as st

import sinereg.operators
from sinereg import (
    DataFormatError,
    DenseOperator,
    DiagonalOperator,
    DimensionError,
    InnerProductSpace,
    MatrixFreeOperator,
    load_dense_operator,
    load_diagonal_operator,
    load_problem,
    load_vector,
    save_dense_operator,
)

from oracles import dense_matrix_of


def random_backends(rows, cols, seed, weighted=False):
    """One operator of each backend with the same underlying matrix."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, cols))
    if weighted:
        dom = InnerProductSpace(cols, weights=rng.uniform(0.2, 2.0, cols))
        ran = InnerProductSpace(rows, weights=rng.uniform(0.2, 2.0, rows))
    else:
        dom = InnerProductSpace(cols)
        ran = InnerProductSpace(rows)
    dense = DenseOperator(a, domain=dom, codomain=ran)
    free = MatrixFreeOperator(dom, ran, dense.apply, dense.apply_adjoint)
    return [dense, free]


class TestApply:
    def test_diagonal_action(self):
        op = DiagonalOperator(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(op.apply(np.ones(3)), np.array([1.0, 2.0, 3.0]))

    def test_zero_matrix(self):
        op = DenseOperator(np.zeros((4, 3)))
        assert np.array_equal(op.apply(np.array([1.0, -2.0, 5.0])), np.zeros(4))

    def test_dense_hand_product(self):
        op = DenseOperator(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(op.apply(np.array([1.0, 0.0])), np.array([1.0, 3.0]))

    def test_dimension_mismatch(self):
        op = DenseOperator(np.ones((3, 2)))
        with pytest.raises(DimensionError):
            op.apply(np.ones(3))
        with pytest.raises(DimensionError):
            op.apply_adjoint(np.ones(2))


class TestApplyColumns:
    """``apply_columns`` against one ``apply`` per column: the base class's
    loop gives its bits, a dense operator's matrix product its values to
    rounding."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_base_loop_is_bit_equal_to_column_applies(self, weighted):
        rng = np.random.default_rng(12)
        free = random_backends(15, 9, seed=4, weighted=weighted)[1]
        space = InnerProductSpace(9, rng.uniform(0.5, 2.0, 9) if weighted else None)
        for op in (free, DiagonalOperator(rng.standard_normal(9), space)):
            block = rng.standard_normal((9, 5))
            want = np.column_stack([op.apply(column) for column in block.T])
            assert np.array_equal(op.apply_columns(block), want)

    def test_base_loop_copies_a_reused_output_buffer(self):
        buf = np.empty(3)

        def forward(x):
            buf[:] = [x[0], x[1], x[0] + x[1]]
            return buf

        op = MatrixFreeOperator(InnerProductSpace(2), InnerProductSpace(3),
                                forward, lambda y: y[:2] + y[2])
        block = np.array([[1.0, 3.0], [2.0, 5.0]])
        assert np.array_equal(op.apply_columns(block),
                              np.array([[1.0, 3.0], [2.0, 5.0], [3.0, 8.0]]))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_dense_product_matches_column_applies(self, weighted):
        dense = random_backends(40, 25, seed=7, weighted=weighted)[0]
        block = np.random.default_rng(9).standard_normal((25, 6))
        want = np.column_stack([dense.apply(column) for column in block.T])
        bound = 1e-14 * np.linalg.norm(dense.matrix, 2) * np.linalg.norm(block, 2)
        assert np.max(np.abs(dense.apply_columns(block) - want)) <= bound

    @pytest.mark.parametrize("shape", [(), (8,), (7, 3), (8, 3, 1)])
    def test_block_of_the_wrong_shape_rejected(self, shape):
        for op in random_backends(12, 8, 21) + [DiagonalOperator(np.ones(8))]:
            with pytest.raises(DimensionError, match="block has shape"):
                op.apply_columns(np.ones(shape))


class TestApplyAdjointEach:
    """``_apply_adjoint_each`` against one ``apply_adjoint`` per vector: the
    base class's lazy pairs give its bits, a dense operator's one matrix
    product its values to rounding; each pair holds the vector its image
    was taken from, a dense operator's own copy."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_base_items_are_bit_equal_to_adjoint_applies(self, weighted):
        rng = np.random.default_rng(13)
        free = random_backends(15, 9, seed=4, weighted=weighted)[1]
        space = InnerProductSpace(9, rng.uniform(0.5, 2.0, 9) if weighted else None)
        for op in (free, DiagonalOperator(rng.standard_normal(9), space)):
            vectors = list(rng.standard_normal((5, op.range_dim)))
            got = list(op._apply_adjoint_each(iter(vectors), 5))
            assert len(got) == 5
            for (u, item), v in zip(got, vectors):
                assert u is v
                assert np.array_equal(item, op.apply_adjoint(v))

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("rows", [40, 25], ids=["tall", "square"])
    def test_dense_product_matches_adjoint_applies(self, rows, weighted):
        dense = random_backends(rows, 25, seed=7, weighted=weighted)[0]
        block = np.random.default_rng(9).standard_normal((6, rows))
        pairs = list(dense._apply_adjoint_each(iter(list(block)), 6))
        assert np.array_equal([v for v, _ in pairs], block)
        got = np.array([image for _, image in pairs])
        want = np.array([dense.apply_adjoint(v) for v in block])
        bound = 1e-14 * np.linalg.norm(dense.matrix, 2) * np.linalg.norm(block, 2)
        assert got.shape == (6, 25)
        assert np.max(np.abs(got - want)) <= bound

    def test_base_applies_only_the_items_taken(self):
        calls = []

        def adjoint(y):
            calls.append(y)
            return y[:2] + y[2]

        op = MatrixFreeOperator(InnerProductSpace(2), InnerProductSpace(3),
                                lambda x: np.array([x[0], x[1], x[0] + x[1]]),
                                adjoint)
        items = op._apply_adjoint_each([np.full(3, float(k)) for k in range(5)], 5)
        assert np.array_equal(next(items)[1], np.zeros(2))
        assert len(calls) == 1

    def test_dense_vector_of_the_wrong_length_rejected(self):
        dense = random_backends(12, 8, 21)[0]
        with pytest.raises(DimensionError, match=r"shape \(11,\), expected \(12,\)"):
            list(dense._apply_adjoint_each([np.ones(12), np.ones(11)], 2))

    def test_empty_sequence_yields_nothing(self):
        for op in random_backends(12, 8, 21) + [DiagonalOperator(np.ones(8))]:
            assert list(op._apply_adjoint_each([], 0)) == []


class TestAdjoint:
    def test_diagonal_self_adjoint(self):
        op = DiagonalOperator(np.array([2.0, -1.0, 0.5]),
                              InnerProductSpace(3, weights=np.array([0.1, 1.0, 3.0])))
        y = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(op.apply_adjoint(y), op.apply(y))

    def test_dense_transpose_hand_value(self):
        op = DenseOperator(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(op.apply_adjoint(np.array([1.0, 0.0])),
                              np.array([1.0, 2.0]))

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_adjoint_consistency_random_pairing(self, seed, weighted):
        for op in random_backends(50, 30, seed, weighted=weighted):
            rng = np.random.default_rng(seed + 999)
            nrm = op.norm_estimate()
            for _ in range(5):
                u = rng.standard_normal(op.domain_dim)
                v = rng.standard_normal(op.range_dim)
                lhs = op.codomain.inner(op.apply(u), v)
                rhs = op.domain.inner(u, op.apply_adjoint(v))
                bound = 1e-12 * op.domain.norm(u) * op.codomain.norm(v) * nrm
                assert abs(lhs - rhs) <= bound

    def test_weighted_dense_adjoint_bit_for_bit(self):
        """W_d^{-1} A^T W_r y; the unit case is pinned in
        TestUnitWeightCoherence."""
        dense = random_backends(40, 25, seed=7, weighted=True)[0]
        a, wr, wd = dense.matrix, dense.codomain.weights, dense.domain.weights
        y = np.random.default_rng(8).standard_normal(40)
        assert np.array_equal(dense.apply_adjoint(y), (a.T @ (wr * y)) / wd)

    def test_adjoint_consistency_diagonal_weighted(self):
        rng = np.random.default_rng(3)
        d = rng.standard_normal(20)
        space = InnerProductSpace(20, weights=rng.uniform(0.5, 1.5, 20))
        op = DiagonalOperator(d, space)
        u, v = rng.standard_normal(20), rng.standard_normal(20)
        lhs = space.inner(op.apply(u), v)
        rhs = space.inner(u, op.apply_adjoint(v))
        assert abs(lhs - rhs) <= 1e-12 * space.norm(u) * space.norm(v) * op.norm_estimate()


class TestNormEstimate:
    def test_diagonal_spectral_norm(self):
        op = DiagonalOperator(np.array([1.0, 2.0, 3.0]))
        assert op.norm_estimate() == pytest.approx(3.0, abs=1e-6)

    def test_identity(self):
        op = DiagonalOperator(np.ones(7))
        # exact up to the summation order of one dot product
        assert op.norm_estimate() == pytest.approx(1.0, rel=4 * np.finfo(float).eps)

    def test_zero_operator(self):
        op = DenseOperator(np.zeros((5, 5)))
        assert op.norm_estimate() == 0.0

    @pytest.mark.parametrize("rows, cols, weighted", [
        (40, 40, False), (60, 25, False), (25, 60, False), (40, 30, True),
    ], ids=["square", "tall", "wide", "weighted"])
    def test_matches_svd_oracle(self, rows, cols, weighted):
        """The estimate starts in the range space, so a wide operator's
        process ends after at most ``rows`` steps and a tall one's after
        ``cols``; either way the norm is found to 1e-10."""
        rng = np.random.default_rng(11)
        a = rng.standard_normal((rows, cols))
        w_r = rng.uniform(0.2, 5.0, rows) if weighted else np.ones(rows)
        w_d = rng.uniform(0.2, 5.0, cols) if weighted else np.ones(cols)
        op = DenseOperator(a, InnerProductSpace(cols, w_d), InnerProductSpace(rows, w_r))
        embedded = np.sqrt(w_r)[:, None] * a / np.sqrt(w_d)
        top = np.linalg.svd(embedded, compute_uv=False)[0]
        assert op.norm_estimate() == pytest.approx(top, rel=1e-10)

    @pytest.mark.parametrize("n", [2**12, 2**14])
    def test_matrix_free_circulant(self, n):
        """A periodic Gaussian blur applied by FFT, with the width of the
        blur-mf benchmark and, at 2^14, its size: its norm is the largest
        eigenvalue magnitude, the real FFT of the kernel, found to rounding
        in few steps."""
        width = 0.02
        lag = np.arange(n) / n
        kernel = np.exp(-np.minimum(lag, 1.0 - lag) ** 2 / (2.0 * width**2))
        eigenvalues = np.fft.rfft(kernel / kernel.sum()).real
        calls = []

        def blur(x):
            return np.fft.irfft(np.fft.rfft(x) * eigenvalues, n)

        def forward(x):
            calls.append(1)
            return blur(x)
        space = InnerProductSpace(n, np.full(n, 1.0 / n))
        op = MatrixFreeOperator(space, space, forward, blur)
        top = np.abs(eigenvalues).max()
        assert op.norm_estimate() == pytest.approx(top, rel=1e-12)
        assert len(calls) <= 25

    def test_stops_at_the_step_cap(self):
        """A spectrum packed evenly up to its top does not meet the Ritz
        residual test within ``NORM_ITERS`` = 50 steps: the estimate stops
        there, at 50 forward applies (30 under a cap of 30), short of the
        norm 1 by about 3.3e-4."""
        d = np.linspace(0.0, 1.0, 2000)
        calls = []

        def forward(x):
            calls.append(1)
            return d * x
        space = InnerProductSpace(2000)
        op = MatrixFreeOperator(space, space, forward, lambda y: d * y)
        estimate = op.norm_estimate()
        assert len(calls) == 50
        assert 3e-4 < 1.0 - estimate < 4e-4

    def test_cached_on_operator(self):
        op = DiagonalOperator(np.array([1.0, 5.0]))
        assert op.norm_estimate() == op.norm_estimate()


class TestNormBound:
    """The breakdown scale against the exact weighted norm: the Golub-Kahan
    estimate of a dense operator, and max |d| of a diagonal one, which is
    known at construction."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 12),
           st.booleans(), st.booleans(), st.sampled_from([1.0, 1e-8, 0.0]))
    def test_bounds_power_iteration_and_norm(self, seed, rows, cols, dense,
                                             weighted, scale):
        rng = np.random.default_rng(seed)
        dom = InnerProductSpace(cols, rng.uniform(0.2, 5.0, cols) if weighted else None)
        if dense:
            ran = InnerProductSpace(rows, rng.uniform(0.2, 5.0, rows) if weighted else None)
            a = scale * rng.standard_normal((rows, cols))
            op = DenseOperator(a, dom, ran)
        else:
            ran = dom
            a = np.diag(scale * rng.standard_normal(cols))
            op = DiagonalOperator(np.diag(a), dom)
        embedded = (np.sqrt(ran.weights)[:, None] * a) / np.sqrt(dom.weights)
        exact = np.linalg.norm(embedded, 2)
        if dense:
            # a Ritz value of T*T: below ||T||^2 by what is unconverged,
            # above it by rounding only
            assert exact * (1 - 1e-10) <= op.norm_estimate() <= exact * (1 + 1e-12)
        else:
            assert op.norm_estimate() == np.abs(np.diag(a)).max()

    def test_diagonal_bound_is_max_abs(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a Golub-Kahan step ran")

        monkeypatch.setattr(sinereg.operators, "_golub_kahan", forbidden)
        assert DiagonalOperator(np.array([0.5, -3.0, 2.0])).norm_estimate() == 3.0


class TestBackendsAgree:
    def test_matrix_free_matches_dense(self):
        for op_dense, op_free in [random_backends(12, 8, 21)]:
            x = np.random.default_rng(1).standard_normal(8)
            assert np.array_equal(op_dense.apply(x), op_free.apply(x))
            assert dense_matrix_of(op_free) == pytest.approx(op_dense.matrix)


class TestUnitWeightCoherence:
    def test_explicit_unit_weights_bitwise_equal_euclidean(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((9, 6))
        plain = DenseOperator(a)
        explicit = DenseOperator(
            a,
            domain=InnerProductSpace(6, weights=np.ones(6)),
            codomain=InnerProductSpace(9, weights=np.ones(9)),
        )
        x = rng.standard_normal(6)
        y = rng.standard_normal(9)
        assert np.array_equal(plain.apply(x), explicit.apply(x))
        assert np.array_equal(plain.apply_adjoint(y), explicit.apply_adjoint(y))
        assert np.array_equal(plain.apply_adjoint(y), a.T @ y)

    def test_whole_run_bitwise_equal(self):
        from sinereg import Problem, StoppingRule, run_sine

        rng = np.random.default_rng(18)
        a = rng.standard_normal((12, 8))
        y = rng.standard_normal(12)
        rule = StoppingRule(tau=1.1, delta=1e-3, max_iters=6)
        p_plain = Problem(operator=DenseOperator(a), y_delta=y, delta=1e-3)
        p_unit = Problem(
            operator=DenseOperator(
                a,
                domain=InnerProductSpace(8, weights=np.ones(8)),
                codomain=InnerProductSpace(12, weights=np.ones(12)),
            ),
            y_delta=y,
            delta=1e-3,
        )
        rep_plain = run_sine(p_plain, 1.0, rule)
        rep_unit = run_sine(p_unit, 1.0, rule)
        assert np.array_equal(rep_plain.iterate, rep_unit.iterate)
        assert rep_plain.residual_history == rep_unit.residual_history


class TestConstructionValidation:
    def test_dense_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            DenseOperator(np.array([[1.0, np.nan]]))

    def test_diagonal_rejects_matrix(self):
        with pytest.raises(DimensionError):
            DiagonalOperator(np.ones((2, 2)))

    @pytest.mark.parametrize("matrix", [np.ones(3), np.ones((2, 2, 2)), 1.0],
                             ids=["1-d", "3-d", "scalar"])
    def test_dense_rejects_what_is_not_a_matrix(self, matrix):
        with pytest.raises(DimensionError, match="matrix must be 2-d"):
            DenseOperator(matrix)

    def test_space_shape_mismatch(self):
        with pytest.raises(DimensionError):
            DenseOperator(np.ones((3, 2)), domain=InnerProductSpace(3))

    def test_diagonal_space_size_mismatch(self):
        with pytest.raises(DimensionError, match="length 3 does not match space dim 4"):
            DiagonalOperator(np.ones(3), space=InnerProductSpace(4))

    def test_complex_matrix_or_diagonal_rejected(self):
        a = np.eye(2) + 1j * np.eye(2)
        with pytest.raises(ValueError, match="matrix has complex entries"):
            DenseOperator(a)
        with pytest.raises(ValueError, match="diagonal has complex entries"):
            DiagonalOperator(np.diag(a))

    def test_complex_callable_output_rejected(self):
        """A forward x + 1j x was cut to x, with only a warning."""
        space = InnerProductSpace(3)
        op = MatrixFreeOperator(space, space, lambda x: x + 1j * x, lambda y: 1j * y)
        with pytest.raises(ValueError, match="forward output has complex entries"):
            op.apply(np.ones(3))
        with pytest.raises(ValueError, match="adjoint output has complex entries"):
            op.apply_adjoint(np.ones(3))


class TestLoaders:
    def test_mtx_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((7, 4))
        path = tmp_path / "op.mtx"
        save_dense_operator(a, path)
        op = load_dense_operator(path)
        assert np.array_equal(op.matrix, a)

    def test_csv_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((5, 5))
        path = tmp_path / "op.csv"
        save_dense_operator(a, path)
        op = load_dense_operator(path)
        assert np.array_equal(op.matrix, a)

    def test_diagonal_from_one_column_csv(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.5\n-2.0\n0.25\n")
        op = load_diagonal_operator(path)
        assert np.array_equal(op.diagonal, np.array([1.5, -2.0, 0.25]))
        assert op.domain_dim == op.range_dim == 3

    def test_diagonal_rejects_two_columns(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(DataFormatError, match=re.escape(str(path))):
            load_diagonal_operator(path)

    def test_rejects_nonfinite_entries(self, tmp_path):
        path = tmp_path / "op.csv"
        path.write_text("1.0,2.0\nnan,4.0\n")
        with pytest.raises(DataFormatError):
            load_dense_operator(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "op.csv"
        path.write_text("not,numbers\nat,all\n")
        with pytest.raises(DataFormatError):
            load_dense_operator(path)

    @pytest.mark.parametrize("suffix", [".mtx", ".mtx.gz"])
    @pytest.mark.parametrize("load, entries", [
        (load_vector, np.array([[1 + 2j], [3j]])),
        (load_diagonal_operator, np.array([[1 + 2j], [3j]])),
        (load_dense_operator, np.diag([1 + 2j, 3j])),
        (load_dense_operator, scipy.sparse.coo_matrix(np.diag([1 + 2j, 3j]))),
    ])
    def test_rejects_complex_matrix_market(self, tmp_path, suffix, load, entries):
        """Complex entries raise, naming the file, instead of being cut to
        their real parts (a silently singular operator here)."""
        path = tmp_path / f"c{suffix}"
        with (gzip.open if suffix == ".mtx.gz" else open)(path, "wb") as fh:
            scipy.io.mmwrite(fh, entries)
        with pytest.raises(DataFormatError, match=re.escape(str(path)) + ".*complex"):
            load(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_dense_operator(tmp_path / "nope.csv")


ARRAY_HEADER = "%%MatrixMarket matrix array real general\n"
EMPTY_FILES = {
    "zero-row.mtx": ARRAY_HEADER + "0 1\n",
    "zero-row.mtx.gz": ARRAY_HEADER + "0 1\n",
    "zero-column.mtx": ARRAY_HEADER + "3 0\n",
    "empty.csv": "",
}

# each loader on the empty file ``path``; ``one`` is a valid 1 x 1 file
CHECK_EMPTY = """
import sys
import sinereg as sr
path, one = sys.argv[1:]
for load in (sr.load_vector, sr.load_dense_operator, sr.load_diagonal_operator,
             lambda f: sr.load_problem(f, one, 0.0),
             lambda f: sr.load_problem(one, f, 0.0)):
    try:
        load(path)
    except sr.DataFormatError as exc:
        assert path in str(exc), exc
    else:
        raise AssertionError(f"a loader accepted the empty file {path}")
"""


def write_empty_file(tmp_path, name):
    path = tmp_path / name
    with (gzip.open if name.endswith(".gz") else open)(path, "wt") as fh:
        fh.write(EMPTY_FILES[name])
    return path


@pytest.mark.parametrize("name", EMPTY_FILES)
def test_file_with_no_entries_raises_naming_it(tmp_path, name):
    """A zero-row array file ended the interpreter inside scipy's mmread
    (SIGFPE), so each file is loaded in a fresh interpreter; an empty CSV
    was read as an empty vector."""
    path, one = write_empty_file(tmp_path, name), tmp_path / "one.csv"
    one.write_text("1.0\n")
    proc = subprocess.run(
        [sys.executable, "-c", CHECK_EMPTY, str(path), str(one)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the error is all a caller sees: no numpy warning comes with it
    assert "Warning" not in proc.stderr, proc.stderr


LOADERS = (load_vector, load_dense_operator, load_diagonal_operator,
           lambda f: load_problem(f, f, 0.0))
BLANK_CSVS = {"empty.csv": "", "blank.csv": "\n\n"}


@pytest.mark.filterwarnings("error")
def test_empty_csv_raises_with_warnings_as_errors(tmp_path):
    """numpy warns that an empty or blank CSV holds no data; that warning
    is ignored, so even as an error it leaves the size check's message."""
    for name, text in BLANK_CSVS.items():
        path = tmp_path / name
        path.write_text(text)
        for load in LOADERS:
            with pytest.raises(DataFormatError,
                               match=re.escape(f"{path}: file has no entries")):
                load(path)


@pytest.mark.parametrize("name", BLANK_CSVS)
def test_csv_without_entries_warns_nothing(tmp_path, name):
    path = tmp_path / name
    path.write_text(BLANK_CSVS[name])
    for load in LOADERS:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            with pytest.raises(DataFormatError, match="file has no entries"):
                load(path)
        assert caught == []
