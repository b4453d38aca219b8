import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import sinereg.operators
from sinereg import (
    DenseOperator,
    DiagonalOperator,
    InnerProductSpace,
    MatrixFreeOperator,
    NumericalError,
    Problem,
    RunReport,
    StoppingRule,
    discrepancy_met,
    multiplication_problem,
    run_cgne,
    run_sine,
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
def test_delta_nonnegative(delta):
    with pytest.raises(ValueError, match="delta"):
        StoppingRule(tau=2.0, delta=delta)


def test_zero_residual_always_met():
    rule = StoppingRule(tau=1.001, delta=1e-3)
    assert discrepancy_met(0.0, rule)


def test_threshold_boundary():
    rule = StoppingRule(tau=1.001, delta=1e-3)
    assert discrepancy_met(1.0005e-3, rule)
    assert not discrepancy_met(1.0011e-3, rule)


@given(st.floats(min_value=1e-12, max_value=1e6),
       st.floats(min_value=1.0 + 1e-9, max_value=100.0),
       st.floats(min_value=0.0, max_value=1e6))
def test_discrepancy_definition(residual, tau, delta):
    rule = StoppingRule(tau=tau, delta=delta)
    assert discrepancy_met(residual, rule) == (residual <= tau * delta)


def test_negative_residual_rejected():
    rule = StoppingRule(tau=2.0, delta=1.0)
    with pytest.raises(ValueError):
        discrepancy_met(-1.0, rule)


def test_cap_resolution():
    assert StoppingRule(tau=2.0, delta=0.1).resolve_cap(50) == 50
    assert StoppingRule(tau=2.0, delta=0.1).resolve_cap(10**6) == 10000
    assert StoppingRule(tau=2.0, delta=0.1, max_iters=7).resolve_cap(50) == 7


@pytest.mark.parametrize("cap", [2.5, 2.0, np.float64(3.0), "3", 0, -1])
def test_max_iters_must_be_a_positive_integer(cap):
    """A fractional cap was kept, so drive ran ceil(cap) steps."""
    with pytest.raises(ValueError, match="max_iters"):
        StoppingRule(tau=2.0, delta=0.1, max_iters=cap)
    for ok in (3, np.int64(3), np.int32(3)):
        assert StoppingRule(tau=2.0, delta=0.1, max_iters=ok).resolve_cap(50) == 3


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
    """Record the operator of every power iteration run from now on."""
    calls = []
    original = sinereg.operators.norm_estimate

    def counted(op, *args, **kwargs):
        calls.append(op)
        return original(op, *args, **kwargs)
    monkeypatch.setattr(sinereg.operators, "norm_estimate", counted)
    return calls


def test_full_rank_runs_skip_power_iteration(monkeypatch):
    """On the full-rank benchmark no mapped direction nears the breakdown
    threshold, so no entry point pays for the norm estimate."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the power iteration ran")
    monkeypatch.setattr(sinereg.operators, "norm_estimate", forbidden)
    problem = multiplication_problem(4096, 1, 1e-3)
    rule = StoppingRule(1.001, 1e-3)
    assert run_sine(problem, 1e-3, rule).stopping_index == 2
    assert run_cgne(problem, rule).stopping_index == 19
    assert run_compare(problem, 1e-3, rule).stopping_index_sine == 2
    assert run_diagnostics(problem, 1e-3, rule).stopping_index == 2
    run_ratecheck(RateCheckConfig(delta_grid=(1e-2, 1e-3), mu=0.5, tau=1.001,
                                  gamma=1e-3, n=1024))


def test_power_iteration_runs_once_near_breakdown(monkeypatch):
    calls = count_norm_estimates(monkeypatch)
    problem = Problem(DiagonalOperator([1.0, 0.5, 0.0, 0.0]), np.ones(4), 0.0)
    report = run_sine(problem, 1e-3, StoppingRule(1.001, 0.0))
    assert (report.terminated_by, report.stopping_index) == ("breakdown", 2)
    assert calls == [problem.operator]


def test_matrix_free_keeps_eager_scale(monkeypatch):
    """Without a bound the scale is computed before the first step."""
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
    op.norm_estimate()  # cache the breakdown scale's norm first
    count[0] = 0
    with pytest.raises(NumericalError, match="iteration 4"):
        run_cgne(Problem(op, np.ones(8), 0.0), StoppingRule(1.001, 0.0))
    assert count[0] == 5


def test_nan_forward_fails_fast_in_sine():
    """The NaN reaches an inner CG solve first; it stops there, not after
    10 * dim inner iterations."""
    diag = DiagonalOperator(np.linspace(1.0, 0.3, 8))
    forward, count = nan_after(6, diag.apply)
    op = MatrixFreeOperator(diag.domain, diag.codomain, forward, diag.apply)
    op.norm_estimate()
    count[0] = 0
    with pytest.raises(NumericalError, match="inner iteration"):
        run_sine(Problem(op, np.ones(8), 0.0), 1.0, StoppingRule(1.001, 0.0))
    assert count[0] == 7


def test_overflow_fails_fast_at_iteration_zero():
    problem = Problem(DiagonalOperator([1e200, 1.0]), np.ones(2), 0.0)
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="iteration 0"):
        run_cgne(problem, StoppingRule(1.001, 0.0))
