"""SINE runs projected onto a Golub-Kahan bidiagonalization.

``run_sine`` (with or without history), ``run_compare`` and
``run_diagnostics`` take this path on an operator whose shift solve is the
inherited inner CG, as a bare ``MatrixFreeOperator``'s is. Each projected
run is checked against a run of the same operator with an exact shift
solve: an FFT resolvent, a Cholesky factor or a division.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sinereg.operators
import sinereg.sine
from sinereg import (
    DenseOperator,
    DiagonalOperator,
    InnerProductSpace,
    LinearOperator,
    MatrixFreeOperator,
    NumericalError,
    Problem,
    StoppingRule,
    add_noise,
    build_shift_solver,
    drive,
    multiplication_problem,
    random_problem,
    run_cgne,
    run_compare,
    run_diagnostics,
    run_sine,
    sine_init,
    sine_step,
)

from test_stopping import count_norm_estimates


def wrapped(problem, adjoint=None):
    """``problem`` with its operator behind a ``MatrixFreeOperator``."""
    op = problem.operator
    free = MatrixFreeOperator(op.domain, op.codomain, op.apply,
                              adjoint or op.apply_adjoint)
    return Problem(free, problem.y_delta, problem.delta, truth=problem.truth)


def relative_gap(x, reference):
    return np.linalg.norm(x - reference) / np.linalg.norm(reference)


class FFTBlur(MatrixFreeOperator):
    """Periodic Gaussian blur of width 0.02 on a midpoint grid weighted
    1/n, applied by FFT, with the exact shift solve of one transform pair."""

    def __init__(self, n):
        space = InnerProductSpace(n, np.full(n, 1.0 / n))
        lag = np.arange(n) / n
        dist = np.minimum(lag, 1.0 - lag)
        kernel = np.exp(-dist**2 / (2.0 * 0.02**2)) / (0.02 * np.sqrt(2.0 * np.pi) * n)
        self.eigenvalues = np.fft.rfft(kernel).real
        super().__init__(space, space, self.blur, self.blur)

    def blur(self, x):
        return np.fft.irfft(np.fft.rfft(x) * self.eigenvalues, self.domain_dim)

    def shift_solve(self, gamma):
        factors = 1.0 + self.eigenvalues**2 / gamma
        return "fft", lambda v: np.fft.irfft(np.fft.rfft(v) / factors, self.domain_dim)


def blur_problems(n, seed, delta=1e-3):
    """The same blur problem with the exact and with the inherited shift
    solve: a box plus a half sine of height 3, noise of norm ``delta``."""
    op = FFTBlur(n)
    t = (np.arange(n) + 0.5) / n
    truth = ((t >= 0.1) & (t <= 0.45)) + 3.0 * np.where(
        (t >= 0.65) & (t <= 0.95), np.sin(np.pi * (t - 0.65) / 0.3), 0.0)
    y = add_noise(op.blur(truth), delta, "random-direction", seed=seed, space=op.domain)
    exact = Problem(op, y, delta, truth=truth)
    return exact, wrapped(exact, op.blur)


@pytest.mark.parametrize("gamma", [1e-3, 1e-2, 1e-1])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_blur_matches_the_exact_resolvent(seed, gamma):
    exact, free = blur_problems(2**12, seed)
    rule = StoppingRule(1.01, exact.delta)
    want, got = run_sine(exact, gamma, rule), run_sine(free, gamma, rule)
    assert (got.terminated_by, got.stopping_index) == (want.terminated_by,
                                                      want.stopping_index)
    assert relative_gap(got.iterate, want.iterate) <= 1e-10
    assert got.residual_history == pytest.approx(want.residual_history, rel=1e-10)
    assert got.error_history == pytest.approx(want.error_history, rel=1e-10)


@pytest.mark.parametrize("decay, rate", [("algebraic", 1), ("geometric", 0.8)])
@pytest.mark.parametrize("seed", range(12))
def test_random_problem_matches_cholesky(seed, decay, rate):
    p = random_problem(80, 50, decay, rate, seed=seed, delta=1e-3)
    rule = StoppingRule(1.01, 1e-3)
    want, got = run_sine(p, 1e-3, rule), run_sine(wrapped(p), 1e-3, rule)
    assert (got.terminated_by, got.stopping_index) == (want.terminated_by,
                                                      want.stopping_index)
    assert relative_gap(got.iterate, want.iterate) <= 1e-10


def test_projected_run_makes_no_inner_solve(monkeypatch):
    def no_solve(self, gamma):
        raise AssertionError("inner CG called")

    monkeypatch.setattr(LinearOperator, "shift_solve", no_solve)
    p = wrapped(random_problem(80, 50, "algebraic", 1, seed=0, delta=1e-3))
    rule = StoppingRule(1.01, 1e-3)
    assert run_sine(p, 1e-3, rule).terminated_by == "discrepancy"
    assert run_sine(p, 1e-3, rule, keep_history=True).terminated_by == "discrepancy"
    assert run_compare(p, 1e-3, rule).dominance_all
    assert run_diagnostics(p, 1e-3, rule).terminated_by == "discrepancy"


def assert_same_diagnostics(got, want):
    assert (got.stopping_index, got.terminated_by, got.analyzed_steps,
            got.truncated_reason, got.interlacing) == (
        want.stopping_index, want.terminated_by, want.analyzed_steps,
        want.truncated_reason, want.interlacing)
    for mine, theirs in zip(got.ritz, want.ritz):
        assert mine == pytest.approx(theirs, rel=1e-10)


@pytest.mark.parametrize("decay, rate", [("algebraic", 1), ("geometric", 0.8)])
@pytest.mark.parametrize("seed", range(12))
def test_diagnostics_match_cholesky(seed, decay, rate):
    p = random_problem(80, 50, decay, rate, seed=seed, delta=1e-3)
    rule = StoppingRule(1.01, 1e-3)
    assert_same_diagnostics(run_diagnostics(wrapped(p), 1e-3, rule),
                            run_diagnostics(p, 1e-3, rule))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_blur_diagnostics_match_the_exact_resolvent(seed):
    exact, free = blur_problems(2**12, seed)
    rule = StoppingRule(1.01, exact.delta)
    assert_same_diagnostics(run_diagnostics(free, 1e-2, rule),
                            run_diagnostics(exact, 1e-2, rule))


@pytest.mark.parametrize("seed", [1, 2])
def test_history_is_formed_in_the_full_space(seed):
    """The vectors come from the regenerated basis: r_j by its recurrence
    from y, q_j = T w_j; the history changes no result of the run."""
    _, p = blur_problems(2**12, seed)
    rule = StoppingRule(1.01, p.delta)
    plain, report = run_sine(p, 1e-2, rule), run_sine(p, 1e-2, rule, keep_history=True)
    state = report.state
    assert report.stopping_index == plain.stopping_index
    assert np.array_equal(report.iterate, plain.iterate)
    assert report.residual_history == plain.residual_history
    assert report.error_history == plain.error_history
    assert (report.alphas, report.betas) == (plain.alphas, plain.betas)
    assert plain.state.direction_history is None
    m = report.stopping_index
    assert len(state.direction_history) == len(state.mapped_history) == m + 1
    assert len(state.residual_vectors) == m + 1
    assert np.array_equal(state.residual_vectors[0], p.y_delta)
    norms = [p.range_space.norm(r) for r in state.residual_vectors]
    assert norms == pytest.approx(report.residual_history, rel=1e-10)
    for w, q in zip(state.direction_history, state.mapped_history):
        assert np.array_equal(q, p.operator.apply(w))


def test_history_with_nonzero_start_equals_shifted_data():
    p = wrapped(random_problem(80, 50, "algebraic", 1, seed=4, delta=1e-3))
    x0 = np.random.default_rng(9).standard_normal(50) * 0.1
    shifted = Problem(p.operator, p.y_delta - p.operator.apply(x0), p.delta)
    rule = StoppingRule(1.01, p.delta)
    direct = run_sine(p, 1e-3, rule, x0=x0, keep_history=True).state
    via = run_sine(shifted, 1e-3, rule, keep_history=True).state
    assert direct.iteration == via.iteration
    for name in ("direction_history", "mapped_history", "residual_vectors"):
        for mine, theirs in zip(getattr(direct, name), getattr(via, name)):
            assert relative_gap(mine, theirs) <= 1e-12


def sine_loop(p, rule):
    """A hand-written SINE loop: ``drive`` over ``sine_step``."""
    solver = build_shift_solver(p.operator, 1e-3)
    drive(sine_init(p, 1e-3), lambda st: sine_step(st, solver), rule,
          p.operator.domain_dim)


@pytest.mark.parametrize("factor", [1.5, 1 + 1e-6])
@pytest.mark.parametrize("entry, adjoint_calls", [
    (lambda p, rule: run_sine(p, 1e-3, rule), 1),
    (lambda p, rule: run_diagnostics(p, 1e-3, rule), 1),
    (run_cgne, 2),
    (lambda p, rule: run_compare(p, 1e-3, rule), 1),
    (sine_loop, 2),
], ids=["run_sine", "run_diagnostics", "run_cgne", "run_compare", "sine_loop"])
def test_inconsistent_adjoint_fails_fast(entry, adjoint_calls, factor):
    """An adjoint of 1.5 A^T, or of (1 + 1e-6) A^T, which only a tolerance
    of 1e-8 relative catches, is caught by the forward apply of step 2,
    long before the cap on the projection. A projected SINE run makes one
    adjoint call before it; a run that needs the breakdown scale makes the
    start's T* r first, and its norm estimate, which runs the same
    process, then makes the call of step 1. ``run_compare`` takes that
    estimate before its baseline starts, for its shift check."""
    p = random_problem(80, 50, "algebraic", 1, seed=0, delta=1e-3)
    matrix, calls = p.operator.matrix, [0]

    def adjoint(y):
        calls[0] += 1
        return factor * (matrix.T @ y)

    with pytest.raises(NumericalError, match="inconsistent with the forward "
                       "map.* at Golub-Kahan step 2$"):
        entry(wrapped(p, adjoint), StoppingRule(1.01, 1e-3))
    assert calls[0] == adjoint_calls


def test_nonzero_start_equals_shifted_data():
    p = wrapped(random_problem(80, 50, "algebraic", 1, seed=4, delta=1e-3))
    x0 = np.random.default_rng(9).standard_normal(50) * 0.1
    shifted = Problem(p.operator, p.y_delta - p.operator.apply(x0), p.delta)
    rule = StoppingRule(1.01, p.delta)
    direct, via = run_sine(p, 1e-3, rule, x0=x0), run_sine(shifted, 1e-3, rule)
    assert direct.stopping_index == via.stopping_index
    assert relative_gap(direct.iterate, via.iterate + x0) <= 1e-12
    assert direct.residual_history == pytest.approx(via.residual_history, rel=1e-12)
    assert len(direct.error_history) == direct.stopping_index + 1
    assert via.error_history is None


def test_filled_run_keeps_the_errors_to_its_first_stop():
    """A projected run continued past its discrepancy stop on a problem
    with a truth maps back the iterates up to that stop only, so its error
    history is the one of the run that stops there (it indexed past its
    coefficients before)."""
    p = wrapped(random_problem(40, 30, "algebraic", 1.0, seed=1, delta=1e-3))
    rule = StoppingRule(1.001, 1e-3)
    got, terminated, m, _, end = sinereg.sine._sine(p, 1.0, rule, 20, fill=True)
    assert (terminated, m, end, got.iteration) == ("discrepancy", 14, "iteration_cap", 20)
    assert got.error_norms == run_sine(p, 1.0, rule).state.error_norms


def test_stop_at_zero_has_one_error():
    p = wrapped(random_problem(30, 15, "algebraic", 1, seed=0, delta=10.0))
    report = run_sine(p, 1e-3, StoppingRule(1.01, 10.0))
    assert (report.terminated_by, report.stopping_index) == ("discrepancy", 0)
    assert report.error_history == [p.error_norm(np.zeros(15))]


@pytest.mark.parametrize("seed", range(3))
def test_compare_matches_cholesky(seed):
    p = random_problem(80, 50, "algebraic", 1, seed=seed, delta=1e-3)
    rule = StoppingRule(1.01, 1e-3)
    want, got = run_compare(p, 1e-3, rule), run_compare(wrapped(p), 1e-3, rule)
    assert got.dominance_all
    assert (got.stopping_index_sine, got.stopping_index_cgne) == (
        want.stopping_index_sine, want.stopping_index_cgne)
    assert (got.terminated_by_sine, got.terminated_by_cgne) == (
        want.terminated_by_sine, want.terminated_by_cgne)
    assert relative_gap(got.iterate_sine, want.iterate_sine) <= 1e-10
    assert got.residuals_sine == pytest.approx(want.residuals_sine, rel=1e-8)


@pytest.mark.parametrize("diagonal, y, delta, stop", [
    (np.ones(4), [1.0, 0, 0, 0], 1e-13, ("discrepancy", 1)),  # beta_2 = 0
    (np.ones(3), [0.0, 0, 0], 0.0, ("discrepancy", 0)),  # beta_1 = 0
    ([1.0, 0.0], [0.0, 1.0], 0.0, ("breakdown", 0)),  # alpha_1 = 0
    ([1.0, 1.0, 0.5, 0.5], [1.0, 1, 1, 1], 0.0, ("breakdown", 2)),
])
def test_exhausted_process_matches_the_division(diagonal, y, delta, stop):
    """When the bidiagonalization ends, its projection is exact."""
    p = Problem(DiagonalOperator(diagonal), np.array(y), delta)
    rule = StoppingRule(1.001, delta)
    want, got = run_sine(p, 1.0, rule), run_sine(wrapped(p), 1.0, rule)
    assert (want.terminated_by, want.stopping_index) == stop
    assert (got.terminated_by, got.stopping_index) == stop
    assert got.iterate == pytest.approx(want.iterate, abs=1e-14)


def test_rank_deficient_breakdown_settles():
    """A breakdown of the space itself is found at the same step on every
    projection, so it is accepted; it does not grow k to the cap."""
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.standard_normal((12, 4)))
    v, _ = np.linalg.qr(rng.standard_normal((10, 4)))
    a = u @ (np.logspace(0, -3, 4)[:, None] * v.T)
    p = Problem(DenseOperator(a), rng.standard_normal(12), 0.0)
    rule = StoppingRule(1.001, 0.0)
    want, got = run_sine(p, 1.0, rule), run_sine(wrapped(p), 1.0, rule)
    assert got.terminated_by == want.terminated_by == "breakdown"
    assert abs(got.stopping_index - want.stopping_index) <= 1


def settled(stops, stops_before, gap=0.0, k=30):
    """``_settled`` at k steps after a checkpoint at k - 10, with iterates
    whose relative gap is ``gap``; the earlier one is the shorter."""
    z = np.zeros(k)
    z[:5] = [1.0, -2.0, 0.5, 3.0, -1.0]
    z_before = z[:k - 10] * (1.0 + gap)
    return sinereg.sine._settled(stops, z, stops_before, z_before, k)


FIRST = ("discrepancy", 5)


@pytest.mark.parametrize("stops, stops_before, want", [
    # a filled run that ends below k has ended for good, wherever the
    # checkpoint before it ended
    ((FIRST, ("iteration_cap", 29)), (FIRST, ("iteration_cap", 20)), True),
    ((FIRST, ("iteration_cap", 29)), (FIRST, ("iteration_cap", 29)), True),
    ((FIRST, FIRST), (FIRST, FIRST), True),
    # a run that used all k columns may go on with more
    ((FIRST, ("iteration_cap", 30)), (FIRST, ("iteration_cap", 20)), False),
    ((("iteration_cap", 30),) * 2, (("iteration_cap", 20),) * 2, False),
    # a breakdown of the space repeats; one of a short projection moves
    ((FIRST, ("breakdown", 14)), (FIRST, ("breakdown", 14)), True),
    ((("breakdown", 14),) * 2, (("breakdown", 14),) * 2, True),
    ((FIRST, ("breakdown", 14)), (FIRST, ("breakdown", 12)), False),
    ((FIRST, ("breakdown", 14)), (FIRST, ("iteration_cap", 20)), False),
    # differing first stops never settle
    ((("discrepancy", 6), ("iteration_cap", 29)),
     (FIRST, ("iteration_cap", 29)), False),
    ((("discrepancy", 5), ("discrepancy", 5)),
     (("breakdown", 5), ("breakdown", 5)), False),
], ids=["filled-end-below-k", "same-end-below-k", "discrepancy-end",
        "filled-end-at-k", "cap-at-k", "end-breakdown-repeats",
        "first-breakdown-repeats", "breakdown-moves", "breakdown-after-cap",
        "first-index-differs", "first-reason-differs"])
def test_settled_needs_equal_first_stops_that_are_final(stops, stops_before, want):
    assert bool(settled(stops, stops_before)) is want


@pytest.mark.parametrize("gap, want", [
    (0.0, True),
    (0.1 * sinereg.sine.GK_SETTLE_RTOL, True),
    (10 * sinereg.sine.GK_SETTLE_RTOL, False),
])
def test_settled_needs_iterates_within_the_tolerance(gap, want):
    stops = (FIRST, ("iteration_cap", 29))
    assert bool(settled(stops, (FIRST, ("iteration_cap", 20)), gap)) is want


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.booleans())
def test_bidiagonal_norm_is_exact(seed, k, last_alpha_zero):
    """The small operator's scale, set at construction, is its spectral
    norm, also when the process ended on alpha_k = 0."""
    rng = np.random.default_rng(seed)
    alphas, betas = rng.uniform(0.0, 2.0, k), rng.uniform(0.0, 2.0, k)
    if last_alpha_zero:
        alphas[-1] = 0.0
    b = np.zeros((k + 1, k))
    b[np.arange(k), np.arange(k)] = alphas
    b[np.arange(1, k + 1), np.arange(k)] = betas
    small = sinereg.sine._Bidiagonal(alphas, betas)
    assert small.norm_estimate() == pytest.approx(np.linalg.norm(b, 2), rel=1e-13)


@pytest.mark.parametrize("gamma", [1e-3, 1e-2, 1e-1])
def test_projected_runs_estimate_no_small_norm(monkeypatch, gamma):
    """The projection's bidiagonals know their norms, so the projected
    entry points run no estimate; run_compare's CGNE half runs the one
    of the full operator."""
    calls = count_norm_estimates(monkeypatch)
    _, free = blur_problems(2**12, 1)
    rule = StoppingRule(1.01, free.delta)
    run_sine(free, gamma, rule)
    run_sine(free, gamma, rule, keep_history=True)
    run_diagnostics(free, gamma, rule)
    assert calls == []
    run_compare(free, gamma, rule)
    assert calls == [free.operator]


def test_overridden_norm_replaces_the_estimate(monkeypatch):
    """A subclass that knows its norm returns it from norm_estimate; the
    breakdown test then runs no Golub-Kahan step, and CGNE stops where it
    does with the estimate."""
    class KnownNormBlur(FFTBlur):
        def norm_estimate(self):
            return float(np.abs(self.eigenvalues).max())

    _, free = blur_problems(2**12, 1)
    rule = StoppingRule(1.01, free.delta)
    want = run_cgne(free, rule)

    def forbidden(*args, **kwargs):
        raise AssertionError("a Golub-Kahan step ran")

    monkeypatch.setattr(sinereg.operators, "_golub_kahan", forbidden)
    known = Problem(KnownNormBlur(2**12), free.y_delta, free.delta, truth=free.truth)
    got = run_cgne(known, rule)
    assert (got.terminated_by, got.stopping_index) == (want.terminated_by,
                                                      want.stopping_index)
    assert np.array_equal(got.iterate, want.iterate)


def test_cap_on_the_projection_raises(monkeypatch):
    """This run settles at k = 30; a cap of one step per dimension allows
    two checkpoints, 10 and 20."""
    monkeypatch.setattr(sinereg.sine, "GK_STEPS_PER_DIM", 1)
    p = wrapped(random_problem(30, 15, "algebraic", 1, seed=0, delta=1e-3))
    with pytest.raises(NumericalError, match="not settled at k = 20 steps"):
        run_sine(p, 1e-3, StoppingRule(1.01, 1e-3))


def test_default_cap_on_the_projection(monkeypatch):
    """A run that never settles raises at the default cap of 10 steps per
    domain dimension: k = 50 here, where a cap of 9 raises at k = 40 and
    one of 4 or less at the floor of two checkpoints, k = 20."""
    monkeypatch.setattr(sinereg.sine, "_settled", lambda *args: False)
    p = wrapped(random_problem(8, 5, seed=2, delta=1e-3))
    with pytest.raises(NumericalError, match="not settled at k = 50 steps"):
        run_sine(p, 1e-2, StoppingRule(1.01, 1e-3))


@pytest.mark.parametrize("run", [run_sine, run_compare, run_diagnostics])
def test_an_overflowing_shift_is_named(run):
    """At gamma = 1e-310 the pivots 1 + (alpha^2 + beta^2)/gamma of the
    small bidiagonal overflow: a typed error naming gamma, as the dense and
    diagonal backends raise, where the run used to fail at its first step
    on a NaN norm. It comes at the Golub-Kahan step that makes the first
    pivot overflow, its one adjoint apply, where it came after the 10
    forward and 11 adjoint applies of the first checkpoint. run_compare
    raises at its own shift check, after the norm estimate alone. At
    gamma = 1e-300 the run still stops by breakdown at 1."""
    base = multiplication_problem(64, 1, 1e-3)
    calls = []

    def counted(name):
        return lambda v: calls.append(name) or base.operator.apply(v)

    def wrapped_counted():
        return MatrixFreeOperator(base.domain_space, base.range_space,
                                  counted("forward"), counted("adjoint"))

    p = Problem(wrapped_counted(), base.y_delta, base.delta, truth=base.truth)
    rule = StoppingRule(1.01, 1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="gamma=1e-310"):
            run(p, 1e-310, rule)
        counts = calls.count("forward"), calls.count("adjoint")
        if run is run_compare:
            calls.clear()
            wrapped_counted().norm_estimate()
            assert counts == (calls.count("forward"), calls.count("adjoint"))
        else:
            assert counts == (0, 1)
        result = run(p, 1e-300, rule)
    stop = (result.terminated_by_sine, result.stopping_index_sine) if (
        run is run_compare) else (result.terminated_by, result.stopping_index)
    assert stop == ("breakdown", 1)


def test_discrepancy_stop_is_checked_in_the_full_space(monkeypatch):
    """One forward apply recomputes the residual of a discrepancy stop;
    with a slack of -0.5 it must fall to half of tau * delta, which the
    projected run's iterate does not reach."""
    monkeypatch.setattr(sinereg.sine, "GK_RESIDUAL_RTOL", -0.5)
    p = wrapped(random_problem(80, 50, "algebraic", 1, seed=0, delta=1e-3))
    with pytest.raises(NumericalError, match="exceeds tau"):
        run_sine(p, 1e-3, StoppingRule(1.01, 1e-3))


@pytest.mark.parametrize("slack, raises", [(1e-7, True), (1e-10, False)])
def test_full_space_residual_tolerance_is_1e_9(monkeypatch, slack, raises):
    """A recomputed residual above tau * delta by 1e-7 relative fails the
    full-space check of a discrepancy stop, and one above it by 1e-10
    passes it."""
    rule = StoppingRule(1.01, 1e-3)
    monkeypatch.setattr(Problem, "residual_norm",
                        lambda self, x: rule.threshold * (1 + slack))
    p = wrapped(random_problem(80, 50, "algebraic", 1, seed=0, delta=1e-3))
    if raises:
        with pytest.raises(NumericalError, match=r"exceeds tau \* delta"):
            run_sine(p, 1e-3, rule)
    else:
        assert run_sine(p, 1e-3, rule).terminated_by == "discrepancy"


@pytest.mark.parametrize("seed", range(1, 11))
def test_long_projected_runs_pass_the_full_space_check(seed):
    """Wrapped 300 x 200 runs of about 55 steps stop by the discrepancy
    principle, pass the full-space residual check and stop within 2 steps
    of the Cholesky run. The small bidiagonal's row-by-row Cholesky solve
    keeps them there: a solve by the explicit inverse of I + B^T B / gamma
    passed every other test, yet raised "exceeds tau * delta" on this set."""
    p = random_problem(300, 200, "algebraic", 1.0, seed=seed, delta=1e-4)
    rule = StoppingRule(1.001, 1e-4)
    want, got = run_sine(p, 0.1, rule), run_sine(wrapped(p), 0.1, rule)
    assert got.terminated_by == want.terminated_by == "discrepancy"
    assert abs(got.stopping_index - want.stopping_index) <= 2


def reused_buffer_results(reuse):
    """The results of every entry point on the 256-point multiplication
    problem behind a ``MatrixFreeOperator`` whose one callable, forward and
    adjoint alike, returns ``x * d`` or, with ``reuse``, writes it into one
    preallocated buffer and returns that."""
    p = multiplication_problem(256, 1, 1e-3)
    d, buf, space = p.operator.diagonal, np.empty(256), p.domain_space

    def times_d(x):
        return np.multiply(x, d, out=buf) if reuse else x * d

    free = Problem(MatrixFreeOperator(space, space, times_d, times_d),
                   p.y_delta, p.delta, truth=p.truth)
    rule = StoppingRule(1.01, 1e-3)
    history = run_sine(free, 1e-2, rule, keep_history=True).state
    state, solver = sine_init(free, 1e-2), build_shift_solver(free.operator, 1e-2)
    for _ in range(3):
        sine_step(state, solver)
    cgne = run_cgne(free, rule)
    return dict(residual_vectors=history.residual_vectors,
                mapped_history=history.mapped_history,
                diagnostics=run_diagnostics(free, 1e-2, rule).to_dict(),
                loop_iterate=state.iterate,
                cgne_stop=(cgne.terminated_by, cgne.stopping_index),
                cgne_iterate=cgne.iterate)


def test_a_reused_output_buffer_changes_no_result():
    """Each callable output is copied as it enters, so a callable may
    return one buffer that it overwrites. When the buffer itself was
    returned, a 3-step loop landed 28 % away, CGNE ran to its cap of 256
    instead of stopping at 18, and the history held one array four
    times."""
    fresh, reused = reused_buffer_results(False), reused_buffer_results(True)
    assert fresh["cgne_stop"] == ("discrepancy", 18)
    for name in ("residual_vectors", "mapped_history"):
        assert len(reused[name]) == len(fresh[name])
        for got, want in zip(reused[name], fresh[name]):
            assert np.array_equal(got, want), name
    assert reused["diagnostics"] == fresh["diagnostics"]
    assert np.array_equal(reused["loop_iterate"], fresh["loop_iterate"])
    assert reused["cgne_stop"] == fresh["cgne_stop"]
    assert np.array_equal(reused["cgne_iterate"], fresh["cgne_iterate"])


def test_a_callable_that_writes_into_its_input_fails_loudly():
    """A callable's input is the library's own vector. Scaled in place, it
    breaks the adjoint check of a projected run; CGNE's first apply is to
    the problem's read-only data, which raises there."""
    p = multiplication_problem(256, 1, 1e-3)
    d, space = p.operator.diagonal, p.domain_space

    def in_place(x):
        x *= d
        return x

    free = Problem(MatrixFreeOperator(space, space, in_place, in_place),
                   p.y_delta, p.delta)
    rule = StoppingRule(1.01, 1e-3)
    with pytest.raises(NumericalError, match="inconsistent with the forward map"):
        run_sine(free, 1e-2, rule)
    with pytest.raises(ValueError, match="read-only"):
        run_cgne(free, rule)
