import numpy as np
import pytest
import scipy.linalg

from sinereg import (
    DenseOperator,
    DiagonalOperator,
    InnerProductSpace,
    MatrixFreeOperator,
    NumericalError,
    build_shift_solver,
)
from sinereg import resolvent

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
    solver = build_shift_solver(free, gamma=1.0)
    assert solver.strategy == "cg"
    rng = np.random.default_rng(23)
    v = rng.standard_normal(14)
    res = free.domain.norm(shifted_apply(solver, solver.apply(v)) - v)
    assert res <= 1e-12 * free.domain.norm(v)


def test_matrix_free_nonconvergence_reports_residual(monkeypatch):
    # one inner iteration per dimension is too few at this shift
    monkeypatch.setattr(resolvent, "CG_ITERS_PER_DIM", 1)
    _, free = make_ops(20, 14, 24)
    solver = build_shift_solver(free, 1e-4)
    v = np.random.default_rng(25).standard_normal(14)
    with pytest.raises(NumericalError, match="achieved residual"):
        solver.apply(v)


def test_gamma_validation():
    dense, free = make_ops(4, 3, 26)
    for op in (DiagonalOperator(np.ones(3)), dense, free):
        for gamma in (0.0, -1.0, np.nan, np.inf):
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
    dense, _ = make_ops(30, 20, seed=27)
    solver = build_shift_solver(dense, gamma)
    assert solver.strategy == "cholesky"
    a = dense.matrix
    factor = scipy.linalg.cho_factor(a.T @ a / gamma + np.eye(20))
    v = np.random.default_rng(28).standard_normal(20)
    assert np.array_equal(solver.apply(v), scipy.linalg.cho_solve(factor, v))


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


def test_inner_cg_rejects_non_finite_right_hand_side():
    space = InnerProductSpace(4)
    op = MatrixFreeOperator(space, space, lambda x: x, lambda y: y)
    solver = build_shift_solver(op, gamma=1.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(NumericalError, match="inner iteration 0"):
            solver.apply(np.array([1.0, bad, 0.0, 0.0]))


@pytest.mark.parametrize("weighted", [False, True])
def test_cholesky_rejects_non_finite_right_hand_side(weighted):
    """The per-solve check that stands in for cho_solve's own scan."""
    dense, _ = make_ops(6, 4, seed=5, weighted=weighted)
    solver = build_shift_solver(dense, gamma=1e-2)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(NumericalError, match="non-finite"):
            solver.apply(np.array([1.0, bad, 0.0, 0.0]))
