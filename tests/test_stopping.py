import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sinereg import (
    DenseOperator,
    DiagonalOperator,
    InnerProductSpace,
    LinearOperator,
    MatrixFreeOperator,
    NumericalError,
    Problem,
    RunReport,
    StoppingRule,
    build_shift_solver,
    cgne_init,
    cgne_step,
    detect_breakdown,
    drive,
    multiplication_problem,
    random_problem,
    run_cgne,
    run_sine,
    sine_init,
    sine_step,
)
from sinereg.experiments import (
    RateCheckConfig,
    run_compare,
    run_diagnostics,
    run_ratecheck,
)

from oracles import eager_run


@given(st.floats(max_value=1.0) | st.sampled_from([math.inf, math.nan]),
       st.floats(min_value=0.0, max_value=1e6))
@example(tau=1.0, delta=1e-3)
@example(tau=0.5, delta=1e-3)
def test_tau_strictly_greater_than_one(tau, delta):
    with pytest.raises(ValueError, match="tau"):
        StoppingRule(tau=tau, delta=delta)
    StoppingRule(tau=1.0001, delta=delta)


@given(st.floats(max_value=-1e-300) | st.sampled_from([math.inf, math.nan]))
@example(delta=-1e-3)
@example(delta=True)  # a bool is no noise level of 1 or 0
@example(delta=False)
@example(delta=np.True_)
def test_delta_nonnegative(delta):
    with pytest.raises(ValueError, match="delta"):
        StoppingRule(tau=2.0, delta=delta)


def residual_state(residual):
    """A state at iteration 0 whose residual norm is ``residual`` and whose
    direction has not vanished, for :func:`drive`."""
    return SimpleNamespace(op=DiagonalOperator(np.ones(1)), iteration=0,
                           residual_norms=[residual], mapped_norm_sq=1.0,
                           initial_direction_norm=1.0)


def never_called(state):
    raise AssertionError("drive stepped a run that had stopped")


def test_zero_residual_always_met():
    rule = StoppingRule(tau=1.001, delta=0.0)
    assert drive(residual_state(0.0), never_called, rule, 5) == "discrepancy"


def test_threshold_boundary():
    rule = StoppingRule(tau=1.001, delta=1e-3)
    assert drive(residual_state(1.0005e-3), never_called, rule, 0) == "discrepancy"
    assert drive(residual_state(1.0011e-3), never_called, rule, 0) == "iteration_cap"


@given(st.floats(min_value=1e-12, max_value=1e6),
       st.floats(min_value=1.0 + 1e-9, max_value=100.0),
       st.floats(min_value=0.0, max_value=1e6))
def test_discrepancy_definition(residual, tau, delta):
    rule = StoppingRule(tau=tau, delta=delta)
    stopped = drive(residual_state(residual), never_called, rule, 0)
    assert (stopped == "discrepancy") == (residual <= tau * delta)


@pytest.mark.parametrize("solver", ["sine", "cgne"])
def test_run_stops_where_its_residual_equals_the_threshold(solver):
    """With tau = 2 and delta half a residual norm of the run, tau * delta
    is that norm exactly, and the run stops there by the discrepancy
    principle."""
    p = multiplication_problem(256, 1, 1e-3)

    def run(delta):
        rule = StoppingRule(2.0, delta)
        return run_sine(p, 1e-2, rule) if solver == "sine" else run_cgne(p, rule)

    history = run(0.0).residual_history
    for m in (1, 2):
        report = run(history[m] / 2)
        assert 2.0 * (history[m] / 2) == history[m]
        assert (report.stopping_index, report.terminated_by) == (m, "discrepancy")
        assert report.residual_history == history[:m + 1]


def test_cap_resolution():
    assert StoppingRule(tau=2.0, delta=0.1).resolve_cap(50) == 50
    assert StoppingRule(tau=2.0, delta=0.1).resolve_cap(10**6) == 10000
    assert StoppingRule(tau=2.0, delta=0.1, max_iters=7).resolve_cap(50) == 7


@pytest.mark.parametrize("cap", [2.5, 2.0, np.float64(3.0), "3", 0, -1, True])
def test_max_iters_must_be_a_positive_integer(cap):
    """A fractional cap was kept, so drive ran ceil(cap) steps."""
    with pytest.raises(ValueError, match="max_iters"):
        StoppingRule(tau=2.0, delta=0.1, max_iters=cap)
    for ok in (3, np.int64(3), np.int32(3)):
        assert StoppingRule(tau=2.0, delta=0.1, max_iters=ok).resolve_cap(50) == 3


@pytest.mark.parametrize("cap", [-3, 1.5, True, None, "2"])
def test_drive_cap_must_be_a_nonnegative_integer(cap):
    """-3 stopped at iteration 0 as "iteration_cap", 1.5 ran 2 steps, True
    ran 1, and None and "2" raised an untyped TypeError."""
    problem = multiplication_problem(64, 1, 1e-3)
    rule = StoppingRule(1.001, 0.0)
    state = cgne_init(problem)
    with pytest.raises(ValueError, match="cap must be an integer of at least 0"):
        drive(state, cgne_step, rule, cap)
    assert state.iteration == 0
    for ok in (0, 2, np.int64(2)):
        state = cgne_init(problem)
        assert drive(state, cgne_step, rule, ok) == "iteration_cap"
        assert state.iteration == ok


def test_run_report_json_round_trip():
    report = RunReport(
        solver="sine",
        stopping_index=2,
        iterate=np.array([0.25, -1.5]),
        residual_history=[1.0, 0.5, 0.001],
        terminated_by="discrepancy",
        error_history=[2.0, 1.0, 0.1],
        breakdown_step=None,
        elapsed_seconds=0.01,
        gamma=1e-3,
        alphas=[1.2, 0.8],
        betas=[0.1, 0.2],
    )
    assert json.loads(json.dumps(report.to_dict())) == report.to_dict()


@st.composite
def rank_deficient_problems(draw):
    """A diagonal or dense operator of rank below its domain dimension in
    unit or random weights. The data are near the range or generic, so
    runs end by discrepancy or at (or near) the breakdown threshold."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 10))
    rank = draw(st.integers(0, n - 1))
    weighted = draw(st.booleans())
    domain = InnerProductSpace(n, rng.uniform(0.5, 2.0, n) if weighted else None)
    if draw(st.booleans()):
        d = np.zeros(n)
        d[:rank] = rng.uniform(0.05, 1.0, rank) * rng.choice([-1.0, 1.0], rank)
        op = DiagonalOperator(rng.permutation(d), domain)
    else:
        m = n + draw(st.integers(0, 3))
        codomain = InnerProductSpace(m, rng.uniform(0.5, 2.0, m) if weighted else None)
        u, _ = np.linalg.qr(rng.standard_normal((m, m)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        s = np.logspace(0, -draw(st.integers(0, 4)), rank)
        op = DenseOperator((u[:, :rank] * s) @ v[:, :rank].T, domain, codomain)
    delta = draw(st.sampled_from([0.0, 1e-3]))
    noise = draw(st.sampled_from([1.0, 1e-4]))
    y = op.apply(rng.standard_normal(n)) + noise * rng.standard_normal(op.range_dim)
    return Problem(op, y, delta)


@settings(max_examples=150, deadline=None)
@given(rank_deficient_problems(), st.sampled_from([None, 1e-3, 1.0, 10.0]))
def test_lazy_breakdown_matches_eager_reference(problem, gamma):
    """drive's bound-first breakdown test stops where the eager test does,
    with a bit-identical iterate and residual history."""
    rule = StoppingRule(1.001, problem.delta)
    state, terminated = eager_run(problem, rule, gamma)
    if gamma is None:
        report = run_cgne(problem, rule)
    else:
        report = run_sine(problem, gamma, rule)
    assert report.terminated_by == terminated
    assert report.stopping_index == state.iteration
    assert report.iterate.tobytes() == state.iterate.tobytes()
    assert report.residual_history == state.residual_norms


def weighted_inner(space, u, v):
    """The general weighted formula, which uniform spaces no longer take."""
    return float(np.dot(space.weights * u, v))


@pytest.mark.parametrize("n", [1000, 4096])
@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4, 1e-5])
def test_uniform_inner_product_keeps_solver_outcomes(monkeypatch, n, delta):
    """c * dot(u, v) on the 1/n midpoint grid rounds differently from
    dot(w * u, v) (except where 1/n is a power of two, as for n = 4096),
    but no stop moves and iterates agree to 1e-12."""
    problem = multiplication_problem(n, 1, delta)
    rule = StoppingRule(1.001, delta)
    runs = [lambda: run_sine(problem, 1e-3, rule), lambda: run_cgne(problem, rule)]
    fast = [run() for run in runs]
    monkeypatch.setattr(InnerProductSpace, "inner", weighted_inner)
    for new, old in zip(fast, [run() for run in runs]):
        assert new.terminated_by == old.terminated_by
        assert new.stopping_index == old.stopping_index
        diff = np.linalg.norm(new.iterate - old.iterate)
        assert diff <= 1e-12 * np.linalg.norm(old.iterate)


def count_norm_estimates(monkeypatch):
    """Record the operator of every norm estimate run from now on; a call
    answered from the operator's cache runs none."""
    calls = []
    original = LinearOperator.norm_estimate

    def counted(op):
        if op._norm_estimate is None:
            calls.append(op)
        return original(op)
    monkeypatch.setattr(LinearOperator, "norm_estimate", counted)
    return calls


def test_full_rank_runs_skip_power_iteration(monkeypatch):
    """The benchmark's operator is diagonal, so its norm is known at
    construction: neither an entry point nor a hand-written loop over
    detect_breakdown runs the norm estimate."""
    calls = count_norm_estimates(monkeypatch)
    problem = multiplication_problem(4096, 1, 1e-3)
    rule = StoppingRule(1.001, 1e-3)
    assert run_sine(problem, 1e-3, rule).stopping_index == 2
    assert run_cgne(problem, rule).stopping_index == 19
    assert run_compare(problem, 1e-3, rule).stopping_index_sine == 2
    assert run_diagnostics(problem, 1e-3, rule).stopping_index == 2
    run_ratecheck(RateCheckConfig(delta_grid=(1e-2, 1e-3), mu=0.5, tau=1.001,
                                  gamma=1e-3, n=1024))
    solver = build_shift_solver(problem.operator, 1e-3)
    sine = sine_init(problem, 1e-3)
    while sine.iteration < 10 and not detect_breakdown(sine):
        sine_step(sine, solver)
    cgne = cgne_init(problem)
    while cgne.iteration < 25 and not detect_breakdown(cgne):
        cgne_step(cgne)
    assert (sine.iteration, cgne.iteration) == (10, 25)
    assert calls == []


def test_compare_evaluates_dense_bound_once(monkeypatch):
    """The estimate is cached on the immutable operator, so the three
    drives of one run_compare share one evaluation of it."""
    calls = count_norm_estimates(monkeypatch)
    problem = random_problem(60, 40, "algebraic", rate=1.0, seed=1, delta=1e-3)
    result = run_compare(problem, 1e-3, StoppingRule(1.001, 1e-3))
    assert result.terminated_by_sine == "discrepancy"
    assert calls == [problem.operator]


def test_power_iteration_runs_once_near_breakdown(monkeypatch):
    """A dense operator runs the estimate once, at its first breakdown
    test; a diagonal one with the same matrix runs none."""
    calls = count_norm_estimates(monkeypatch)
    dense = DenseOperator(np.diag([1.0, 0.5, 0.0, 0.0]))
    diagonal = DiagonalOperator([1.0, 0.5, 0.0, 0.0])
    for op in (dense, diagonal):
        report = run_sine(Problem(op, np.ones(4), 0.0), 1e-3, StoppingRule(1.001, 0.0))
        assert (report.terminated_by, report.stopping_index) == ("breakdown", 2)
    assert calls == [dense]


def test_matrix_free_keeps_eager_scale(monkeypatch):
    """The scale is computed at the first breakdown test, before the
    first step."""
    calls = count_norm_estimates(monkeypatch)
    diag = DiagonalOperator(np.linspace(1.0, 0.1, 8))
    free = MatrixFreeOperator(diag.domain, diag.codomain, diag.apply, diag.apply)
    run_cgne(Problem(free, np.ones(8), 1e-3), StoppingRule(1.001, 1e-3))
    assert calls == [free]


def nan_after(calls_ok, fn):
    """Wrap ``fn`` to return NaN from call ``calls_ok + 1`` on; counts calls."""
    count = [0]

    def wrapped(x):
        count[0] += 1
        out = fn(x)
        return out if count[0] <= calls_ok else np.full_like(out, np.nan)
    return wrapped, count


def test_nan_forward_fails_fast_in_cgne():
    """The fifth forward call gives the mapped direction of iterate 4."""
    diag = DiagonalOperator(np.linspace(1.0, 0.3, 8))
    forward, count = nan_after(4, diag.apply)
    op = MatrixFreeOperator(diag.domain, diag.codomain, forward, diag.apply)
    count[0] = -10**9  # disarmed: cache the breakdown scale's norm first
    op.norm_estimate()
    count[0] = 0
    with pytest.raises(NumericalError, match="iteration 4"):
        run_cgne(Problem(op, np.ones(8), 0.0), StoppingRule(1.001, 0.0))
    assert count[0] == 5


def nan_failure(side, calls_ok, run):
    """``run(op)`` on a matrix-free operator whose ``side`` callable
    returns NaN from call ``calls_ok + 1`` on; returns the error raised,
    the calls made, and the operator."""
    diag = DiagonalOperator(np.linspace(1.0, 0.3, 8))
    wrapped, count = nan_after(calls_ok, diag.apply)
    forward, adjoint = (wrapped, diag.apply) if side == "forward" else (diag.apply, wrapped)
    op = MatrixFreeOperator(diag.domain, diag.codomain, forward, adjoint)
    with pytest.raises(NumericalError) as err:
        run(op)
    return str(err.value), count[0], op


def run_sine_with_nan(side):
    """A matrix-free SINE run whose ``side`` callable returns NaN from its
    seventh call on; returns the error raised and the calls made."""
    message, calls, _ = nan_failure(side, 6, lambda op: run_sine(
        Problem(op, np.ones(8), 0.0), 1.0, StoppingRule(1.001, 0.0)))
    return message, calls


def test_nan_forward_fails_fast_in_sine():
    """The run is projected onto a Golub-Kahan bidiagonalization, whose
    step i makes forward call i - 1; the NaN stops it at that step, not at
    the cap on the projection."""
    message, calls = run_sine_with_nan("forward")
    assert message.endswith("Golub-Kahan step 8")
    assert calls == 7


def test_nan_adjoint_fails_fast_in_sine():
    """Step i of the bidiagonalization makes adjoint call i."""
    message, calls = run_sine_with_nan("adjoint")
    assert message.endswith("Golub-Kahan step 7")
    assert calls == 7


def test_nan_forward_fails_fast_in_norm_estimate():
    """A NaN is no norm: caching it would switch off breakdown detection.
    The estimate runs the Golub-Kahan process, whose step i makes forward
    call i - 1."""
    message, calls, op = nan_failure("forward", 2, LinearOperator.norm_estimate)
    assert message.endswith("Golub-Kahan step 4")
    assert calls == 3
    assert op._norm_estimate is None


def test_nan_adjoint_fails_fast_in_norm_estimate():
    """Step i of the process makes adjoint call i."""
    message, calls, op = nan_failure("adjoint", 2, LinearOperator.norm_estimate)
    assert message.endswith("Golub-Kahan step 3")
    assert calls == 3
    assert op._norm_estimate is None


def test_overflow_fails_fast_at_iteration_zero():
    problem = Problem(DiagonalOperator([1e200, 1.0]), np.ones(2), 0.0)
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="iteration 0"):
        run_cgne(problem, StoppingRule(1.001, 0.0))
