import tracemalloc

import numpy as np
import pytest

from sinereg import (
    DiagonalOperator,
    DimensionError,
    NumericalError,
    Problem,
    StoppingRule,
    build_shift_solver,
    cgne_init,
    cgne_step,
    detect_breakdown,
    multiplication_problem,
    random_problem,
    run_cgne,
    run_sine,
    sine_init,
    sine_step,
)

from oracles import rational_basis, weighted_lstsq_minimizer


def identity_problem(n, y):
    return Problem(operator=DiagonalOperator(np.ones(n)), y_delta=y, delta=0.0)


class SinglePrecisionDiagonal(DiagonalOperator):
    """A subclass whose applies return float32, with the float64 shift
    solve of its base."""

    def apply(self, x):
        return super().apply(x).astype(np.float32)


@pytest.mark.parametrize("run", [
    lambda p, rule: run_sine(p, 1e-3, rule, keep_history=True),
    lambda p, rule: run_cgne(p, rule)], ids=["sine", "cgne"])
def test_steps_keep_double_precision_for_a_single_precision_operator(run):
    """A step forms each update in an array of its own, in float64 like
    the state, even when the operator returns float32: an update written
    into the operator's float32 output would round the iterate."""
    base = multiplication_problem(64, 1, 1e-3)
    op = SinglePrecisionDiagonal(base.operator.diagonal, base.domain_space)
    report = run(Problem(op, base.y_delta, base.delta), StoppingRule(1.01, 1e-3))
    state = report.state
    assert report.stopping_index >= 2
    for v in (state.iterate, state.residual, state.direction):
        assert v.dtype == np.float64


class TestInit:
    def test_zero_data_breaks_down_immediately(self):
        p = identity_problem(3, np.zeros(3))
        state = sine_init(p, gamma=1.0)
        assert np.array_equal(state.residual, np.zeros(3))
        assert np.array_equal(state.direction, np.zeros(3))
        assert detect_breakdown(state)

    def test_identity_unit_data(self):
        e1 = np.array([1.0, 0.0, 0.0])
        state = sine_init(identity_problem(3, e1), gamma=1.0)
        assert np.array_equal(state.direction, e1)
        assert np.array_equal(state.mapped_direction, e1)
        assert state.iteration == 0

    def test_benchmark_initial_direction(self):
        # w_0 = T*(y + delta) = t (t^2 + delta) componentwise on the grid
        delta = 1e-3
        p = multiplication_problem(64, 1, delta)
        state = sine_init(p, gamma=1e-3)
        t = p.operator.diagonal
        assert np.array_equal(state.residual, p.y_delta)
        assert state.direction == pytest.approx(t * (t**2 + delta), rel=1e-15)

    def test_nonzero_start(self):
        p = identity_problem(2, np.array([2.0, 0.0]))
        state = sine_init(p, gamma=1.0, x0=np.array([1.0, 1.0]))
        assert np.array_equal(state.residual, np.array([1.0, -1.0]))

    def test_dimension_mismatch(self):
        p = identity_problem(2, np.array([1.0, 0.0]))
        with pytest.raises(DimensionError):
            sine_init(p, gamma=1.0, x0=np.ones(3))

    def test_gamma_validation(self):
        p = identity_problem(2, np.array([1.0, 0.0]))
        rule = StoppingRule(tau=1.001, delta=0.0)
        for gamma in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="gamma"):
                sine_init(p, gamma=gamma)
            with pytest.raises(ValueError, match="gamma"):
                run_sine(p, gamma, rule)


class TestStep:
    def test_identity_one_step_exact(self):
        e1 = np.array([1.0, 0.0, 0.0])
        p = identity_problem(3, e1)
        solver = build_shift_solver(p.operator, gamma=1.0)
        state = sine_init(p, gamma=1.0)
        sine_step(state, solver)
        assert state.alphas[-1] == pytest.approx(1.0, rel=1e-15)
        assert state.iterate == pytest.approx(e1, abs=1e-15)
        assert state.residual == pytest.approx(np.zeros(3), abs=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_minimizes_over_explicit_subspace(self, seed):
        p = random_problem(30, 20, rate=0.5, seed=seed, delta=1e-3)
        gamma = 1.0
        solver = build_shift_solver(p.operator, gamma)
        state = sine_init(p, gamma)
        for m in range(1, 6):
            sine_step(state, solver)
            basis = rational_basis(p.operator, solver, p.y_delta, m)
            oracle = weighted_lstsq_minimizer(p.operator, p.y_delta, basis)
            rel = np.linalg.norm(state.iterate - oracle) / np.linalg.norm(oracle)
            assert rel <= 1e-8

    def test_benchmark_second_iterate_closed_form(self):
        p = multiplication_problem(4096, 1, 1e-3)
        gamma = 1e-3
        solver = build_shift_solver(p.operator, gamma)
        state = sine_init(p, gamma)
        sine_step(state, solver)
        sine_step(state, solver)
        t = p.operator.diagonal
        closed_form = -(21.0 / 5000.0) * t**3 + (1507.0 / 1500.0) * t
        rel = p.domain_space.norm(state.iterate - closed_form)
        rel /= p.domain_space.norm(closed_form)
        assert rel <= 1e-3

    def test_step_after_exact_breakdown_raises(self):
        p = identity_problem(2, np.zeros(2))
        solver = build_shift_solver(p.operator, gamma=1.0)
        state = sine_init(p, gamma=1.0)
        with pytest.raises(NumericalError):
            sine_step(state, solver)

    def test_step_rejects_what_is_not_a_shift_solver(self):
        p = identity_problem(2, np.array([1.0, 0.0]))
        state = sine_init(p, gamma=1.0)
        with pytest.raises(DimensionError, match="expects a ShiftSolver"):
            sine_step(state, lambda v: v)
        assert state.iteration == 0

    def test_solver_shift_mismatch_raises(self):
        p = identity_problem(2, np.array([1.0, 0.0]))
        solver = build_shift_solver(p.operator, gamma=2.0)
        state = sine_init(p, gamma=1.0)
        with pytest.raises(DimensionError):
            sine_step(state, solver)


class TestBreakdown:
    def test_exact_zero_direction(self):
        p = identity_problem(2, np.zeros(2))
        state = sine_init(p, gamma=1.0)
        assert detect_breakdown(state)

    def test_rank_deficient_minimum_norm_solution(self):
        op = DiagonalOperator(np.array([1.0, 0.0]))
        p = Problem(operator=op, y_delta=np.array([1.0, 1.0]), delta=0.0)
        rule = StoppingRule(tau=1.001, delta=0.0)
        report = run_sine(p, gamma=1.0, rule=rule)
        assert report.terminated_by == "breakdown"
        assert report.breakdown_step == 1
        assert report.iterate == pytest.approx(np.array([1.0, 0.0]), abs=1e-14)
        # minimum-norm characterization
        normal_residual = op.apply_adjoint(p.residual(report.iterate))
        ref = op.domain.norm(op.apply_adjoint(p.y_delta))
        assert op.domain.norm(normal_residual) <= 1e-10 * ref
        assert abs(report.iterate[1]) <= 1e-10  # component along null(T)

    def test_healthy_problem_no_breakdown(self):
        p = random_problem(30, 20, rate=0.8, seed=1, delta=1e-3)
        solver = build_shift_solver(p.operator, 1.0)
        state = sine_init(p, 1.0)
        for _ in range(5):
            assert not detect_breakdown(state)
            sine_step(state, solver)


class TestRun:
    def test_m0_when_data_below_threshold(self):
        p = identity_problem(3, np.full(3, 1e-6))
        rule = StoppingRule(tau=1.001, delta=1e-2)
        report = run_sine(p, gamma=1.0, rule=rule)
        assert report.stopping_index == 0
        assert report.terminated_by == "discrepancy"
        assert np.array_equal(report.iterate, np.zeros(3))

    def test_benchmark_stopping_index(self):
        p = multiplication_problem(4096, 1, 1e-3)
        rule = StoppingRule(tau=1.001, delta=1e-3)
        report = run_sine(p, gamma=1e-3, rule=rule)
        assert report.stopping_index == 2
        assert report.terminated_by == "discrepancy"
        # first failure of the rule at the previous index
        assert report.residual_history[1] > rule.threshold
        assert report.residual_history[2] <= rule.threshold

    def test_iteration_cap_reported(self):
        p = multiplication_problem(256, 1, 1e-6)
        rule = StoppingRule(tau=1.001, delta=1e-6, max_iters=1)
        report = run_sine(p, gamma=1e-3, rule=rule)
        assert report.terminated_by == "iteration_cap"
        assert report.stopping_index == 1

    @pytest.mark.parametrize("rule", [None, 1.001, (1.001, 1e-3)])
    def test_rule_must_be_a_stopping_rule(self, rule):
        with pytest.raises(DimensionError, match="run_sine expects a StoppingRule"):
            run_sine(multiplication_problem(64, 1, 1e-3), 1e-3, rule)

    def test_error_history_present_with_truth(self):
        p = multiplication_problem(128, 1, 1e-3)
        rule = StoppingRule(tau=1.001, delta=1e-3)
        report = run_sine(p, gamma=1e-3, rule=rule)
        assert report.error_history is not None
        assert len(report.error_history) == len(report.residual_history)

    def test_unperturbed_error_decreases_toward_pseudoinverse(self):
        rng = np.random.default_rng(42)
        d = rng.uniform(0.3, 1.0, 25)
        truth = rng.standard_normal(25)
        op = DiagonalOperator(d)
        y = d * truth
        p = Problem(operator=op, y_delta=y, delta=0.0, truth=truth)
        rule = StoppingRule(tau=1.001, delta=1e-12, max_iters=40)
        report = run_sine(p, gamma=1.0, rule=rule)
        errors = np.array(report.error_history)
        assert errors[-1] <= 1e-6 * errors[0]
        assert np.all(np.diff(errors) <= 1e-12 * errors[0])


    def test_history_holds_the_runs_own_vectors(self):
        """A history run keeps the w, q and r each step made, without
        copies: 10 vectors of 2^18 at the peak with the problem built
        beforehand (13 while a step held T*q through the shift solve and
        the state kept its replaced iterate through the next apply; 17
        when the state, the history and the report each copied them)."""
        n = 2**18
        p = multiplication_problem(n, 1, 1e-3)
        tracemalloc.start()
        try:
            report = run_sine(p, 1e-3, StoppingRule(1.001, 1e-3), keep_history=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        state = report.state
        assert report.iterate is state.iterate
        assert state.residual_vectors[0] is p.y_delta
        assert state.residual_vectors[-1] is state.residual
        assert state.mapped_history[-1] is state.mapped_direction
        assert peak <= 10.5 * 8 * n


class TestInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_residual_recomputable_and_monotone(self, seed):
        p = random_problem(40, 25, rate=0.8, seed=seed, delta=1e-4)
        solver = build_shift_solver(p.operator, 1.0)
        state = sine_init(p, 1.0)
        r0 = state.residual_norms[0]
        for _ in range(10):
            sine_step(state, solver)
            recomputed = p.residual(state.iterate)
            drift = p.range_space.norm(state.residual - recomputed)
            assert drift <= 1e-10 * r0
        norms = np.array(state.residual_norms)
        assert np.all(norms[1:] <= norms[:-1] + 1e-14 * r0)

    @pytest.mark.parametrize("seed", range(5))
    def test_accepted_steps_have_nonzero_alpha(self, seed):
        p = random_problem(30, 20, rate=0.9, seed=seed, delta=1e-4)
        solver = build_shift_solver(p.operator, 1.0)
        state = sine_init(p, 1.0)
        for _ in range(10):
            if detect_breakdown(state):
                break
            sine_step(state, solver)
            assert state.alphas[-1] != 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_galerkin_orthogonality_and_conjugacy(self, seed):
        p = random_problem(50, 40, rate=0.95, seed=seed, delta=1e-4)
        solver = build_shift_solver(p.operator, 1.0)
        state = sine_init(p, 1.0, keep_history=True)
        for _ in range(15):
            if detect_breakdown(state):
                break
            sine_step(state, solver)
        rs = state.residual_vectors
        qs = state.mapped_history
        r0 = p.range_space.norm(rs[0])
        top = state.iteration
        for m in range(1, top + 1):
            for j in range(m):
                qn = p.range_space.norm(qs[j])
                assert abs(p.range_space.inner(rs[m], qs[j])) <= 1e-8 * r0 * qn
                qm = p.range_space.norm(qs[m])
                assert abs(p.range_space.inner(qs[m], qs[j])) <= 1e-8 * qm * qn

    def test_prior_information_shift_equivalence(self):
        p = random_problem(20, 12, rate=0.7, seed=3, delta=1e-3)
        x0 = np.random.default_rng(9).standard_normal(12) * 0.1
        rule = StoppingRule(tau=1.2, delta=p.delta, max_iters=8)
        shifted_data = p.y_delta - p.operator.apply(x0)
        p_shifted = Problem(operator=p.operator, y_delta=shifted_data, delta=p.delta)
        rep_direct = run_sine(p, 1.0, rule, x0=x0)
        rep_shifted = run_sine(p_shifted, 1.0, rule)
        assert rep_direct.iterate == pytest.approx(rep_shifted.iterate + x0, rel=1e-12, abs=1e-14)
        assert rep_direct.residual_history == pytest.approx(rep_shifted.residual_history)

    def test_history_off_by_default(self):
        p = multiplication_problem(32, 1, 1e-2)
        rule = StoppingRule(tau=1.001, delta=1e-2)
        report = run_sine(p, 1e-3, rule)
        assert report.state.direction_history is None
        report_h = run_sine(p, 1e-3, rule, keep_history=True)
        assert report_h.state.direction_history is not None


@pytest.mark.parametrize("method", ["sine", "cgne"])
def test_truthless_state_steps_without_an_iterate(method):
    """A state whose iterate is None forms none, and its steps move
    nothing else: the residuals, alpha and beta of each step are those of
    the same loop with an iterate, bit for bit."""
    base = random_problem(30, 20, rate=0.5, seed=3, delta=1e-3)
    p = Problem(base.operator, base.y_delta, base.delta)
    if method == "sine":
        solver = build_shift_solver(p.operator, 1.0)
        states = [sine_init(p, 1.0), sine_init(p, 1.0)]

        def step(state):
            sine_step(state, solver)
    else:
        states, step = [cgne_init(p), cgne_init(p)], cgne_step
    with_x, without = states
    without.iterate = None
    for _ in range(8):
        step(with_x)
        step(without)
        assert without.iterate is None
        assert without.residual.tobytes() == with_x.residual.tobytes()
    assert with_x.iterate is not None
    for field in ("residual_norms", "alphas", "betas"):
        assert repr(getattr(without, field)) == repr(getattr(with_x, field))
