import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from sinereg import (
    DenseOperator,
    DiagonalOperator,
    InnerProductSpace,
    LinearOperator,
    MatrixFreeOperator,
    NumericalError,
    StoppingRule,
    build_shift_solver,
    multiplication_problem,
    random_problem,
    run_sine,
)
from sinereg import operators

from oracles import shifted_apply


def make_ops(rows, cols, seed, weighted=False):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, cols))
    if weighted:
        dom = InnerProductSpace(cols, weights=rng.uniform(0.2, 2.0, cols))
        ran = InnerProductSpace(rows, weights=rng.uniform(0.2, 2.0, rows))
    else:
        dom, ran = InnerProductSpace(cols), InnerProductSpace(rows)
    dense = DenseOperator(a, domain=dom, codomain=ran)
    free = MatrixFreeOperator(dom, ran, dense.apply, dense.apply_adjoint)
    return dense, free


def test_diagonal_componentwise_division():
    op = DiagonalOperator(np.array([2.0]))
    solver = build_shift_solver(op, gamma=1.0)
    assert solver.strategy == "diagonal"
    assert solver.apply(np.array([5.0])) == pytest.approx([1.0])


def test_zero_vector_maps_to_zero():
    op = DiagonalOperator(np.array([1.0, 2.0, 3.0]))
    solver = build_shift_solver(op, gamma=0.5)
    assert np.array_equal(solver.apply(np.zeros(3)), np.zeros(3))


def test_large_gamma_neumann_limit():
    rng = np.random.default_rng(4)
    op = DenseOperator(rng.standard_normal((20, 15)) / 4.0)
    solver = build_shift_solver(op, gamma=1e12)
    v = rng.standard_normal(15)
    dev = np.linalg.norm(solver.apply(v) - v) / np.linalg.norm(v)
    assert dev <= 1e-10


def test_dense_residual_tolerance():
    dense, _ = make_ops(30, 20, 7)
    solver = build_shift_solver(dense, gamma=1.0)
    rng = np.random.default_rng(8)
    for _ in range(5):
        v = rng.standard_normal(20)
        res = np.linalg.norm(shifted_apply(solver, solver.apply(v)) - v)
        assert res <= 1e-12 * np.linalg.norm(v)


def test_matches_explicit_inverse():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((10, 10))
    op = DenseOperator(a)
    gamma = 0.7
    solver = build_shift_solver(op, gamma)
    explicit = np.linalg.inv(np.eye(10) + a.T @ a / gamma)
    v = rng.standard_normal(10)
    assert np.linalg.norm(solver.apply(v) - explicit @ v) <= 1e-12 * np.linalg.norm(v)


@pytest.mark.parametrize("weighted", [False, True])
def test_residual_invariant_all_backends(weighted):
    dense, free = make_ops(25, 18, 12, weighted=weighted)
    diag_space = InnerProductSpace(18, weights=np.random.default_rng(1).uniform(0.5, 1.5, 18)) if weighted else InnerProductSpace(18)
    diag = DiagonalOperator(np.random.default_rng(2).uniform(-1, 1, 18), diag_space)
    rng = np.random.default_rng(13)
    for op in (dense, free, diag):
        solver = build_shift_solver(op, gamma=0.3)
        for _ in range(3):
            v = rng.standard_normal(op.domain_dim)
            res = op.domain.norm(shifted_apply(solver, solver.apply(v)) - v)
            assert res <= 1e-12 * op.domain.norm(v)


def test_resolvent_is_positive_definite():
    dense, _ = make_ops(15, 12, 20)
    solver = build_shift_solver(dense, gamma=2.0)
    rng = np.random.default_rng(21)
    for _ in range(10):
        v = rng.standard_normal(12)
        assert dense.domain.inner(solver.apply(v), v) > 0


def test_matrix_free_uses_inner_cg():
    _, free = make_ops(20, 14, 22)
    assert free.shift_solve(1.0)[0] == "cg"
    solver = build_shift_solver(free, gamma=1.0)
    assert solver.strategy == "cg"
    rng = np.random.default_rng(23)
    v = rng.standard_normal(14)
    res = free.domain.norm(shifted_apply(solver, solver.apply(v)) - v)
    assert res <= 1e-12 * free.domain.norm(v)


def test_matrix_free_nonconvergence_reports_residual(monkeypatch):
    # one inner iteration per dimension is too few at this shift
    monkeypatch.setattr(operators, "CG_ITERS_PER_DIM", 1)
    _, free = make_ops(20, 14, 24)
    solver = build_shift_solver(free, 1e-4)
    v = np.random.default_rng(25).standard_normal(14)
    with pytest.raises(NumericalError, match="achieved residual"):
        solver.apply(v)


def test_gamma_validation():
    dense, free = make_ops(4, 3, 26)
    for op in (DiagonalOperator(np.ones(3)), dense, free):
        for gamma in (0.0, -1.0, np.nan, np.inf, True, np.True_):
            with pytest.raises(ValueError, match="gamma"):
                build_shift_solver(op, gamma=gamma)


def _check_diagonal_resolvent_formula(weights):
    n = 16
    space = InnerProductSpace(n, weights=weights)
    d = (np.arange(1, n + 1) - 0.5) / n
    op = DiagonalOperator(d, space)
    gamma = 1e-3
    solver = build_shift_solver(op, gamma)
    v = np.random.default_rng(3).standard_normal(n)
    assert np.array_equal(solver.apply(v), v / (1 + d * d / gamma))


def test_weighted_diagonal_resolvent_matches_formula():
    _check_diagonal_resolvent_formula(np.full(16, 1.0 / 16))


def test_unit_diagonal_resolvent_matches_formula():
    _check_diagonal_resolvent_formula(None)


@pytest.mark.parametrize("gamma", [1e-3, 0.7])
def test_dense_unit_resolvent_is_plain_cholesky_bit_for_bit(gamma):
    """The upper factor U of scipy's Cholesky, then U^T z = v and U x = z
    by two BLAS triangular solves."""
    dense, _ = make_ops(30, 20, seed=27)
    solver = build_shift_solver(dense, gamma)
    assert solver.strategy == "cholesky"
    a = dense.matrix
    u, lower = scipy.linalg.cho_factor(a.T @ a / gamma + np.eye(20))
    assert not lower
    v = np.random.default_rng(28).standard_normal(20)
    z = scipy.linalg.blas.dtrsv(u, v, trans=1)
    assert np.array_equal(solver.apply(v), scipy.linalg.blas.dtrsv(u, z, trans=0))


@pytest.mark.parametrize("gamma", [1e-3, 0.7, 10.0])
@pytest.mark.parametrize("shape,weighted", [((30, 20), False), ((12, 20), False),
                                            ((30, 20), True), ((12, 20), True)])
def test_dense_resolvent_matches_explicit_solve(shape, weighted, gamma):
    """Oracle: np.linalg.solve on the explicit M = W_d + A^T W_r A / gamma
    with right-hand side W_d v, for tall and wide, unit and weighted
    operators. Both solves are backward stable, so they agree to a few
    eps cond(M) relative (at most 0.49 over 20 seeds of each case)."""
    dense, _ = make_ops(*shape, seed=30, weighted=weighted)
    solver = build_shift_solver(dense, gamma)
    a = dense.matrix
    wd, wr = dense.domain.weights, dense.codomain.weights
    m = np.diag(wd) + a.T @ (wr[:, None] * a) / gamma
    tol = 4 * np.finfo(float).eps * np.linalg.cond(m)
    rng = np.random.default_rng(31)
    for _ in range(5):
        v = rng.standard_normal(shape[1])
        want = np.linalg.solve(m, wd * v)
        assert np.linalg.norm(solver.apply(v) - want) <= tol * np.linalg.norm(want)


def test_dense_solve_keeps_its_input_and_allocates_one_vector():
    """A solve allocates O(n), not the n x n copy that f2py makes of a
    factor it cannot pass to BLAS as it is, and leaves v unchanged."""
    n = 400
    dense, _ = make_ops(500, n, seed=32, weighted=True)
    solver = build_shift_solver(dense, 0.1)
    v = np.random.default_rng(33).standard_normal(n)
    kept = v.copy()
    solver.apply(v)  # warm up
    tracemalloc.start()
    try:
        solver.apply(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(v, kept)
    assert peak <= 4 * 8 * n  # the factor alone is 8 n^2 bytes


def test_dense_build_factors_in_place():
    """A unit-weight build holds the n x n shifted matrix once: LAPACK
    factors its Fortran-ordered transpose in place. A C-ordered M makes
    f2py copy it first, a peak of 2 n^2 doubles."""
    n = 400
    dense, _ = make_ops(600, n, seed=34)
    tracemalloc.start()
    try:
        build_shift_solver(dense, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * n**2


def test_weighted_dense_build_forms_no_weighted_copy():
    """Under unequal range weights A^T W_r A is summed over row blocks of
    sqrt(W_r) A, so a build holds the shifted matrix and one block. The
    weighted copy W_r A that it replaced peaked at 2.50 n^2 doubles on
    this 600 x 400 operator."""
    n = 400
    dense, _ = make_ops(600, n, seed=34, weighted=True)
    tracemalloc.start()
    try:
        build_shift_solver(dense, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * n**2


@pytest.mark.parametrize("kind", ["dense", "diagonal"])
def test_overflowing_shift_raises_numerical_error(kind):
    """At gamma = 5e-324, 1 + d^2/gamma and A^T A/gamma overflow: a typed
    error naming gamma, with no RuntimeWarning before it. gamma = 1e-300
    and 1e300 do not overflow, and run to their usual stops."""
    if kind == "dense":
        p = random_problem(30, 20, "algebraic", 1, seed=1, delta=1e-3)
        stops = {1e-300: ("breakdown", 1), 1e300: ("discrepancy", 12)}
    else:
        p = multiplication_problem(64, 1, 1e-3)
        stops = {1e-300: ("breakdown", 1), 1e300: ("discrepancy", 18)}
    rule = StoppingRule(1.01, 1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="gamma=4.94066e-324"):
            run_sine(p, 5e-324, rule)
        for gamma, stop in stops.items():
            report = run_sine(p, gamma, rule)
            assert (report.terminated_by, report.stopping_index) == stop


def test_inner_cg_stops_at_first_nan():
    """A NaN from the operator ends the inner solve at once instead of
    spinning through its 10 * dim iteration cap."""
    calls = []

    def forward(x):
        calls.append(1)
        return np.full_like(x, np.nan)
    space = InnerProductSpace(16)
    op = MatrixFreeOperator(space, space, forward, lambda y: y)
    solver = build_shift_solver(op, gamma=1.0)
    with pytest.raises(NumericalError, match="non-finite residual at inner iteration 1"):
        solver.apply(np.ones(16))
    assert len(calls) == 1


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("backend", ["diagonal", "cholesky", "cg"])
def test_shift_solve_rejects_non_finite_input(backend, weighted):
    """One check in the shift solver, ahead of every backend's solve."""
    dense, free = make_ops(6, 4, seed=5, weighted=weighted)
    diag = DiagonalOperator(np.arange(1.0, 5.0), dense.domain)
    op = {"diagonal": diag, "cholesky": dense, "cg": free}[backend]
    solver = build_shift_solver(op, gamma=1e-2)
    assert solver.strategy == backend
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(NumericalError, match="non-finite"):
            solver.apply(np.array([1.0, bad, 0.0, 0.0]))


class _Bare(LinearOperator):
    """A subclass that defines only the two applications."""

    def __init__(self, matrix):
        super().__init__(InnerProductSpace(matrix.shape[1]),
                         InnerProductSpace(matrix.shape[0]))
        self.matrix = matrix

    def apply(self, x):
        return self.matrix @ x

    def apply_adjoint(self, y):
        return self.matrix.T @ y


def test_bare_subclass_inherits_inner_cg():
    rng = np.random.default_rng(29)
    op = _Bare(rng.standard_normal((12, 9)))
    solver = build_shift_solver(op, gamma=0.4)
    assert solver.strategy == "cg"
    v = rng.standard_normal(9)
    res = np.linalg.norm(shifted_apply(solver, solver.apply(v)) - v)
    assert res <= operators.RESOLVENT_TOL * np.linalg.norm(v)
