import numpy as np
import pytest

from sinereg import (
    DiagonalOperator,
    DimensionError,
    NumericalError,
    Problem,
    StoppingRule,
    cgne_init,
    cgne_step,
    multiplication_problem,
    random_problem,
    run_cgne,
    run_sine,
    sine_init,
)

from oracles import polynomial_basis, weighted_lstsq_minimizer


def test_identity_converges_in_one_step():
    op = DiagonalOperator(np.ones(3))
    e1 = np.array([1.0, 0.0, 0.0])
    p = Problem(operator=op, y_delta=e1, delta=0.0)
    rule = StoppingRule(tau=1.001, delta=1e-14)
    report = run_cgne(p, rule)
    assert report.stopping_index == 1
    assert report.iterate == pytest.approx(e1, abs=1e-15)


def test_step_rejects_a_sine_state():
    """It raised an untyped TypeError from dividing None."""
    state = sine_init(multiplication_problem(64, 1, 1e-3), 1e-3)
    with pytest.raises(DimensionError, match="cgne_step expects a state from cgne_init"):
        cgne_step(state)
    assert state.iteration == 0


def test_step_after_exact_breakdown_raises():
    state = cgne_init(Problem(DiagonalOperator(np.ones(2)), np.zeros(2), 0.0))
    with pytest.raises(NumericalError, match="after exact breakdown at iteration 0"):
        cgne_step(state)
    assert state.iteration == 0


@pytest.mark.parametrize("rule", [None, 1.001, (1.001, 1e-3)])
def test_rule_must_be_a_stopping_rule(rule):
    with pytest.raises(DimensionError, match="run_cgne expects a StoppingRule"):
        run_cgne(multiplication_problem(64, 1, 1e-3), rule)


def test_benchmark_stopping_index():
    p = multiplication_problem(4096, 1, 1e-3)
    rule = StoppingRule(tau=1.001, delta=1e-3)
    report = run_cgne(p, rule)
    assert report.stopping_index == 19
    assert report.terminated_by == "discrepancy"


@pytest.mark.parametrize("seed", range(5))
def test_minimizes_over_polynomial_subspace(seed):
    p = random_problem(30, 20, rate=0.5, seed=seed, delta=1e-3)
    state = cgne_init(p)
    for m in range(1, 6):
        cgne_step(state)
        basis = polynomial_basis(p.operator, p.y_delta, m)
        oracle = weighted_lstsq_minimizer(p.operator, p.y_delta, basis)
        rel = np.linalg.norm(state.iterate - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-8


def test_m0_when_data_below_threshold():
    op = DiagonalOperator(np.ones(3))
    p = Problem(operator=op, y_delta=np.full(3, 1e-6), delta=0.0)
    rule = StoppingRule(tau=1.001, delta=1e-2)
    report = run_cgne(p, rule)
    assert report.stopping_index == 0
    assert np.array_equal(report.iterate, np.zeros(3))


def test_rank_deficient_breakdown():
    op = DiagonalOperator(np.array([1.0, 0.0]))
    p = Problem(operator=op, y_delta=np.array([1.0, 1.0]), delta=0.0)
    rule = StoppingRule(tau=1.001, delta=0.0)
    report = run_cgne(p, rule)
    assert report.terminated_by == "breakdown"
    assert report.iterate == pytest.approx(np.array([1.0, 0.0]), abs=1e-14)


@pytest.mark.parametrize("seed", range(5))
def test_residual_monotone_and_recomputable(seed):
    p = random_problem(40, 25, rate=0.8, seed=seed, delta=1e-4)
    state = cgne_init(p)
    r0 = state.residual_norms[0]
    for _ in range(12):
        cgne_step(state)
        drift = p.range_space.norm(state.residual - p.residual(state.iterate))
        assert drift <= 1e-10 * r0
    norms = np.array(state.residual_norms)
    assert np.all(norms[1:] <= norms[:-1] + 1e-14 * r0)


@pytest.mark.parametrize("seed", range(5))
def test_galerkin_orthogonality(seed):
    # residual orthogonal to the mapped directions it was minimized against
    p = random_problem(50, 40, rate=0.95, seed=seed, delta=1e-4)
    state = cgne_init(p)
    qs = [state.mapped_direction.copy()]
    for _ in range(10):
        cgne_step(state)
        qs.append(state.mapped_direction.copy())
    r0 = state.residual_norms[0]
    m = state.iteration
    for j in range(m):
        qn = p.range_space.norm(qs[j])
        assert abs(p.range_space.inner(state.residual, qs[j])) <= 1e-8 * r0 * qn


@pytest.mark.parametrize("seed", range(8))
def test_per_iteration_dominance_by_rational_subspace(seed):
    p = random_problem(35, 22, rate=0.8, seed=seed, delta=1e-3)
    rule = StoppingRule(tau=1.1, delta=p.delta, max_iters=12)
    rep_sine = run_sine(p, gamma=1.0, rule=rule)
    rep_cgne = run_cgne(p, rule)
    n = min(len(rep_sine.residual_history), len(rep_cgne.residual_history))
    r0 = rep_cgne.residual_history[0]
    for m in range(n):
        assert (
            rep_sine.residual_history[m]
            <= rep_cgne.residual_history[m] + 1e-10 * r0
        )
    assert rep_sine.stopping_index <= rep_cgne.stopping_index
