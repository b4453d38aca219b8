import json
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from sinereg import (
    DenseOperator,
    DiagonalOperator,
    DimensionError,
    InnerProductSpace,
    MatrixFreeOperator,
    NumericalError,
    Problem,
    RateCheckConfig,
    RateRecord,
    StoppingRule,
    add_noise,
    build_basis,
    multiplication_problem,
    orthogonality_audit,
    random_problem,
    run_cgne,
    run_compare,
    run_diagnostics,
    run_ratecheck,
    run_sine,
    sine_init,
)
import sinereg.experiments
from sinereg.experiments import fit_rate
from sinereg.sine import _sine

from oracles import ratecheck_per_level, sequential_compare

# the noise levels of the paper's rate check
RATE_GRID = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5)


def rank_four_problem(seed):
    """12x10 dense operator of rank 4, singular values logspace(0, -3),
    with random data and noise level 0."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((12, 4)))
    v, _ = np.linalg.qr(rng.standard_normal((10, 4)))
    a = u @ (np.logspace(0, -3, 4)[:, None] * v.T)
    return Problem(DenseOperator(a), rng.standard_normal(12), 0.0)


def weighted_geometric_problem(matrix_free):
    """30x20 operator with singular values 0.7^k on spaces weighted 1/n,
    noise 1e-4; SINE runs to its cap of 20. Its late directions keep
    1e-10 to 1e-8 of their norms against the ones before them, so whether
    one drops below the 1e-12 of a dependent direction is a matter of
    rounding: a fixture for a full analysis, not for a truncation."""
    base = random_problem(30, 20, rate=0.7, seed=13)
    dom = InnerProductSpace(20, np.full(20, 1 / 20))
    ran = InnerProductSpace(30, np.full(30, 1 / 30))
    op = DenseOperator(base.operator.matrix, domain=dom, codomain=ran)
    y = add_noise(op.apply(base.truth), 1e-4, "random-direction", seed=13,
                  space=ran)
    if matrix_free:
        op = MatrixFreeOperator(dom, ran, op.apply, op.apply_adjoint)
    return Problem(op, y, 1e-4, truth=base.truth)


def rank_one_solve_problem(matrix_free):
    """12x8 dense operator, or the same pair of maps matrix-free, whose
    shift solve is the rank-one map v -> c <e, v>. Every SINE direction
    then lies in span{c, w_0}: direction 2 is exactly dependent on
    directions 0 and 1, while its image T w_2 is no zero vector, so no
    breakdown is flagged."""
    rng = np.random.default_rng(5)
    a = rng.standard_normal((12, 8))
    c, e = rng.standard_normal(8), rng.standard_normal(8)

    class RankOne(MatrixFreeOperator if matrix_free else DenseOperator):
        def shift_solve(self, gamma):
            return "rank-one", lambda v: c * (e @ v)

    dense = DenseOperator(a)
    op = (RankOne(dense.domain, dense.codomain, dense.apply, dense.apply_adjoint)
          if matrix_free else RankOne(a))
    return Problem(op, rng.standard_normal(12), 0.0)


def records_from(deltas, errors, flagged=None):
    flagged = flagged or [False] * len(deltas)
    return [
        RateRecord(delta=d, stopping_index=1, error=e, flagged=f)
        for d, e, f in zip(deltas, errors, flagged)
    ]


class TestFitRate:
    def test_exactly_proportional(self):
        deltas = [1e-2, 1e-3, 1e-4, 1e-5]
        slope = fit_rate(records_from(deltas, [3.0 * d for d in deltas]))
        assert slope == pytest.approx(1.0, abs=1e-12)

    def test_constant_errors(self):
        slope = fit_rate(records_from([1e-2, 1e-3, 1e-4], [0.7, 0.7, 0.7]))
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_synthetic_three_quarters(self):
        deltas = [1e-1, 1e-2, 1e-3, 1e-4]
        slope = fit_rate(records_from(deltas, [d**0.75 for d in deltas]))
        assert slope == pytest.approx(0.75, abs=1e-12)

    def test_single_record_returns_none(self):
        assert fit_rate(records_from([1e-3], [0.1])) is None

    def test_flagged_and_nonpositive_excluded(self):
        deltas = [1e-1, 1e-2, 1e-3, 1e-4]
        errors = [d for d in deltas]
        errors[1] = 0.0  # unusable
        recs = records_from(deltas, errors, flagged=[False, False, True, False])
        slope = fit_rate(recs)  # only entries 0 and 3 usable
        assert slope == pytest.approx(1.0, abs=1e-12)


class TestCompare:
    def test_one_step_problem_both_stop_at_one(self):
        op = DiagonalOperator(np.ones(4))
        y = np.array([1.0, 0.0, 0.0, 0.0])
        p = Problem(operator=op, y_delta=y, delta=0.0)
        rule = StoppingRule(tau=1.001, delta=1e-13)
        result = run_compare(p, gamma=1.0, rule=rule)
        assert result.stopping_index_sine == 1
        assert result.stopping_index_cgne == 1
        assert result.dominance_all

    @pytest.mark.parametrize("scale, holds", [(1 + 1e-6, False), (1 + 1e-11, True)])
    def test_dominance_slack_is_1e_10_of_r0(self, monkeypatch, scale, holds):
        """A SINE residual at m = 0 above the baseline's by 1e-6 relative
        violates dominance, and one above it by 1e-11 does not."""
        def scaled(*args, **kwargs):
            out = _sine(*args, **kwargs)
            out[0].residual_norms[0] *= scale
            return out

        monkeypatch.setattr(sinereg.experiments, "_sine", scaled)
        p = Problem(DiagonalOperator(np.ones(4)), np.array([1.0, 0.0, 0.0, 0.0]), 0.0)
        result = run_compare(p, gamma=1.0, rule=StoppingRule(tau=1.001, delta=0.0))
        assert result.dominance[0] is holds

    def test_benchmark_indices(self):
        p = multiplication_problem(4096, 1, 1e-3)
        rule = StoppingRule(tau=1.001, delta=1e-3)
        result = run_compare(p, gamma=1e-3, rule=rule)
        assert result.stopping_index_sine == 2
        assert result.stopping_index_cgne == 19
        assert result.dominance_all
        assert len(result.residuals_sine) == len(result.residuals_cgne) == 20

    @pytest.mark.parametrize("seed", range(6))
    def test_random_batch_dominance(self, seed):
        p = random_problem(35, 22, rate=0.8, seed=seed, delta=1e-3)
        rule = StoppingRule(tau=1.1, delta=p.delta, max_iters=15)
        result = run_compare(p, gamma=1.0, rule=rule)
        assert result.dominance_all
        assert result.stopping_index_sine <= result.stopping_index_cgne

    def test_sine_iterate_is_at_its_stopping_index(self):
        p = multiplication_problem(512, 1, 1e-3)
        rule = StoppingRule(tau=1.001, delta=1e-3)
        result = run_compare(p, gamma=1e-3, rule=rule)
        resid = p.range_space.norm(p.y_delta - p.operator.apply(result.iterate_sine))
        assert resid == pytest.approx(
            result.residuals_sine[result.stopping_index_sine], rel=1e-10
        )

    def test_breakdown_at_table_end_labelled_as_run_sine(self):
        # both solvers break down at 2, the last row of the table
        op = DiagonalOperator(np.array([1.0, 0.5, 0.0, 0.0]))
        p = Problem(operator=op, y_delta=np.ones(4), delta=0.0)
        rule = StoppingRule(tau=1.001, delta=0.0)
        result = run_compare(p, gamma=1.0, rule=rule)
        report = run_sine(p, gamma=1.0, rule=rule)
        assert (report.terminated_by, report.stopping_index) == ("breakdown", 2)
        assert result.terminated_by_sine == "breakdown"
        assert result.stopping_index_sine == 2
        assert result.terminated_by_cgne == "breakdown"
        assert np.array_equal(result.iterate_sine, report.iterate)

    def test_m0_short_circuit(self):
        op = DiagonalOperator(np.ones(3))
        p = Problem(operator=op, y_delta=np.full(3, 1e-9), delta=0.0)
        rule = StoppingRule(tau=1.001, delta=1.0)
        result = run_compare(p, gamma=1.0, rule=rule)
        assert result.stopping_index_sine == 0
        assert result.stopping_index_cgne == 0

    def test_serializes_to_json(self):
        p = multiplication_problem(64, 1, 1e-2)
        rule = StoppingRule(tau=1.001, delta=1e-2)
        d = run_compare(p, gamma=1e-3, rule=rule).to_dict()
        assert json.loads(json.dumps(d)) == d


def dense_compare_problem(weighted, cls=DenseOperator):
    """A 200 x 120 dense problem of algebraic decay and noise 1e-3; when
    ``weighted``, on a domain weighted 1/120 and a range weighted from 0.5
    to 1.5. At gamma = 1e-2 and tau = 1.01 SINE stops at 18 (3 when
    weighted) and CGNE at 31 (30)."""
    base = random_problem(200, 120, "algebraic", 1.0, seed=4, delta=1e-3)
    dom, ran = base.domain_space, base.range_space
    if weighted:
        dom = InnerProductSpace(120, np.full(120, 1 / 120))
        ran = InnerProductSpace(200, np.linspace(0.5, 1.5, 200))
    return Problem(cls(base.operator.matrix, dom, ran), base.y_delta, 1e-3)


def same_compare(got, want):
    """Whether two compare results are equal bit for bit: their JSON forms
    (each float by its repr) and their SINE iterates' bytes."""
    return (json.dumps(got.to_dict()) == json.dumps(want.to_dict())
            and got.iterate_sine.tobytes() == want.iterate_sine.tobytes())


@pytest.fixture(params=[1, 2], ids=["one-cpu", "two-cpus"])
def cpus(request, monkeypatch):
    """The CPUs ``run_compare`` may take, as its gate ``_second_cpu`` reads
    them: two (with one BLAS thread) overlap its halves on a dense operator,
    one (or a threaded BLAS) keeps them in sequence, whatever machine runs
    the tests."""
    monkeypatch.setattr(sinereg.experiments, "_second_cpu", lambda: request.param > 1)
    return request.param


class ThreadRecording:
    """Records in ``threads`` the thread of each adjoint apply."""

    def apply_adjoint(self, y):
        self.threads.add(threading.get_ident())
        return super().apply_adjoint(y)


class ThreadRecordingDense(ThreadRecording, DenseOperator):
    pass


class ThreadRecordingDiagonal(ThreadRecording, DiagonalOperator):
    pass


class NanAdjointFrom(DenseOperator):
    """A dense operator whose adjoint returns NaN from the ``k``-th call
    that each thread makes after :meth:`arm`."""

    def arm(self, k):
        self.k, self.counts = k, threading.local()

    def apply_adjoint(self, y):
        out = super().apply_adjoint(y)
        if not hasattr(self, "counts"):
            return out
        self.counts.n = getattr(self.counts, "n", 0) + 1
        return out * np.nan if self.counts.n >= self.k else out


def failing_problem(weighted, k):
    """:func:`dense_compare_problem` on a :class:`NanAdjointFrom` armed at
    ``k``, after its norm estimate, so that counting starts at the runs."""
    problem = dense_compare_problem(weighted, NanAdjointFrom)
    problem.operator.norm_estimate()
    problem.operator.arm(k)
    return problem


class TestOverlappedCompare:
    """On a dense operator with two CPUs, run_compare runs its CGNE
    baseline in a second thread beside the SINE half. These pin it to
    :func:`sequential_compare`, which runs both halves in one thread."""

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("gamma, rule, stops", [
        (1e-2, StoppingRule(1.01, 1e-3), ("discrepancy", "discrepancy")),
        (1e-2, StoppingRule(1.01, 1e2), ("discrepancy", "discrepancy")),
        (0.1, StoppingRule(1.01, 1e-3, max_iters=2),
         ("table_exhausted", "iteration_cap")),
    ], ids=["sine-first", "cgne-at-0", "table-exhausted"])
    def test_matches_sequential_bit_for_bit(self, cpus, weighted, gamma, rule, stops):
        problem = dense_compare_problem(weighted)
        want = sequential_compare(problem, gamma, rule)
        got = run_compare(problem, gamma, rule)
        assert same_compare(got, want)
        assert (got.terminated_by_sine, got.terminated_by_cgne) == stops
        if rule.delta > 1:  # CGNE stops at 0, so SINE takes no step
            assert got.stopping_index_cgne == got.stopping_index_sine == 0
            assert len(got.residuals_sine) == 1
        elif rule.max_iters is None:
            assert got.stopping_index_sine < got.stopping_index_cgne

    def test_repeats_exactly(self, cpus):
        problem = dense_compare_problem(False)
        rule = StoppingRule(1.01, 1e-3)
        first = run_compare(problem, 1e-2, rule)
        for _ in range(19):
            assert same_compare(run_compare(problem, 1e-2, rule), first)

    def test_concurrent_callers_under_fast_switching(self, cpus):
        """Four callers at once, so eight threads on a dense operator, with
        the interpreter switching threads every microsecond: each result
        is still the sequential one, and every thread ends in time."""
        problems = [dense_compare_problem(weighted) for weighted in (False, True)]
        rule = StoppingRule(1.01, 1e-3)
        want = [sequential_compare(p, 1e-2, rule) for p in problems]
        got = {}

        def call(i):
            got[i] = run_compare(problems[i % 2], 1e-2, rule)

        callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert sorted(got) == [0, 1, 2, 3]
        assert all(same_compare(got[i], want[i % 2]) for i in got)

    @pytest.mark.parametrize("kind", ["dense", "diagonal", "matrix-free"])
    def test_halves_overlap_only_on_a_dense_operator(self, cpus, kind):
        """Diagonal and matrix-free runs, and every run on one CPU, make
        all their applies in the calling thread."""
        if kind == "dense":
            base = dense_compare_problem(False)
            op = ThreadRecordingDense(base.operator.matrix)
        else:
            base = multiplication_problem(256, 1, 1e-3)
            d, space = base.operator.diagonal, base.domain_space
            def adjoint(v):
                op.threads.add(threading.get_ident())
                return d * v

            op = (ThreadRecordingDiagonal(d, space) if kind == "diagonal" else
                  MatrixFreeOperator(space, space, lambda v: d * v, adjoint))
        op.threads = set()
        before = threading.active_count()
        run_compare(Problem(op, base.y_delta, 1e-3), 1e-2, StoppingRule(1.01, 1e-3))
        assert threading.active_count() == before
        overlapped = kind == "dense" and cpus > 1
        assert len(op.threads) == (2 if overlapped else 1)
        assert threading.get_ident() in op.threads

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_baseline_error_wins(self, cpus, weighted):
        """The adjoint's third call in each thread returns NaN: CGNE's at
        its step 2 and SINE's at its step 1. In sequence CGNE raised
        first; overlapped, SINE raises first and CGNE's error still wins."""
        rule = StoppingRule(1.01, 1e-3)
        with pytest.raises(NumericalError) as want:
            sequential_compare(failing_problem(weighted, 3), 1e-2, rule)
        assert "at iteration 2" in str(want.value)
        before = threading.active_count()
        with pytest.raises(NumericalError) as got:
            run_compare(failing_problem(weighted, 3), 1e-2, rule)
        assert threading.active_count() == before
        assert str(got.value) == str(want.value)
        if cpus > 1:
            assert isinstance(got.value.__context__, NumericalError)
            assert "at iteration 1" in str(got.value.__context__)

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_sine_error_propagates(self, monkeypatch, weighted):
        """NaN from the adjoint's call k = m + 2 in each thread, where the
        CGNE baseline stops at m (31, or 30 when weighted) after m + 1
        calls: at gamma = 0.1 the SINE half makes 2 m + 1, so only it
        fails, as it does on its own."""
        monkeypatch.setattr(sinereg.experiments, "_second_cpu", lambda: True)
        rule = StoppingRule(1.01, 1e-3)
        cap = run_cgne(dense_compare_problem(weighted), rule).stopping_index
        with pytest.raises(NumericalError) as want:
            _sine(failing_problem(weighted, cap + 2), 0.1, rule, cap, fill=True)
        before = threading.active_count()
        with pytest.raises(NumericalError) as got:
            run_compare(failing_problem(weighted, cap + 2), 0.1, rule)
        assert threading.active_count() == before
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("run", [run_compare, run_diagnostics])
@pytest.mark.parametrize("gamma, rule", [
    (-1.0, StoppingRule(1.001, 1e-3)), (0.0, StoppingRule(1.001, 1e-3)),
    (np.nan, StoppingRule(1.001, 1e-3)), (1e-3, (1.001, 1e-3)),
], ids=["negative", "zero", "nan", "not-a-rule"])
def test_shift_and_rule_checked_before_any_apply(run, gamma, rule):
    """run_compare ran the whole CGNE baseline before a bad shift raised,
    and both named run_cgne or run_sine in the error for a bad rule."""
    base = random_problem(20, 12, seed=1, delta=1e-3)
    calls = []

    def counted(apply):
        return lambda v: calls.append(apply) or apply(v)

    op = MatrixFreeOperator(base.domain_space, base.range_space,
                            counted(base.operator.apply),
                            counted(base.operator.apply_adjoint))
    problem = Problem(op, base.y_delta, base.delta)
    error = ValueError if isinstance(rule, StoppingRule) else DimensionError
    with pytest.raises(error, match=run.__name__):
        run(problem, gamma, rule)
    assert calls == []


class Counting:
    """Counts its forward and adjoint applies in ``calls``."""

    def apply(self, x):
        self.calls[0] += 1
        return super().apply(x)

    def apply_adjoint(self, y):
        self.calls[1] += 1
        return super().apply_adjoint(y)


class CountingDense(Counting, DenseOperator):
    pass


class CountingDiagonal(Counting, DiagonalOperator):
    pass


def counting_operator(kind):
    """A fresh counting operator of ``kind``, with ``calls`` at zero, and
    its data: the dense 80 x 50 random problem, or the 64-point
    multiplication problem as a diagonal or behind callables."""
    if kind == "dense":
        base = random_problem(80, 50, "algebraic", 1, seed=0, delta=1e-3)
        op = CountingDense(base.operator.matrix)
    else:
        base = multiplication_problem(64, 1, 1e-3)
        d, space = base.operator.diagonal, base.domain_space
        if kind == "diagonal":
            op = CountingDiagonal(d, space)
        else:
            def counted(i):
                def apply(v):
                    op.calls[i] += 1
                    return d * v
                return apply

            op = MatrixFreeOperator(space, space, counted(0), counted(1))
    op.calls = [0, 0]
    return op, base.y_delta


@pytest.mark.parametrize("kind", ["dense", "diagonal", "matrix-free"])
def test_compare_names_an_overflowing_shift_before_its_baseline(kind):
    """At gamma = 1e-310, 1 + ||T||^2 / gamma overflows. run_compare used
    to run its whole CGNE baseline before the SINE half raised: 25 forward
    and 26 adjoint applies on the dense problem, 38 and 19 on the diagonal
    one, 57 and 59 on the wrapped one. It now makes only the applies of
    the norm estimate, which the baseline's first breakdown test takes
    anyway: none for a diagonal, which knows its norm."""
    op, y = counting_operator(kind)
    with pytest.raises(NumericalError, match=r"run_compare: .*\(gamma=1e-310\)"):
        run_compare(Problem(op, y, 1e-3), 1e-310, StoppingRule(1.01, 1e-3))
    fresh, _ = counting_operator(kind)
    fresh.norm_estimate()
    assert op.calls == fresh.calls
    assert sum(op.calls) < {"dense": 51, "diagonal": 57, "matrix-free": 116}[kind]
    if kind == "diagonal":
        assert op.calls == [0, 0]


@pytest.mark.parametrize("kind", ["dense", "diagonal", "matrix-free"])
@pytest.mark.parametrize("start", [
    lambda p, x0: run_sine(p, 1e-3, StoppingRule(1.01, 1e-3), x0=x0),
    lambda p, x0: run_cgne(p, StoppingRule(1.01, 1e-3), x0=x0),
    lambda p, x0: sine_init(p, 1e-3, x0=x0),
], ids=["run_sine", "run_cgne", "sine_init"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_start_rejected_before_any_apply(kind, start, bad):
    """A NaN or inf in x0 raised NumericalError only after applies: "non-finite
    value at iteration 0" on the direct paths and "non-finite beta nan at
    Golub-Kahan step 1" on the projected one (matrix-free run_sine)."""
    op, y = counting_operator(kind)
    x0 = np.zeros(op.domain_dim)
    x0[1] = bad
    with pytest.raises(ValueError, match="starting iterate contains non-finite"):
        start(Problem(op, y, 1e-3), x0)
    assert op.calls == [0, 0]


@pytest.mark.parametrize("run", [run_compare, run_diagnostics])
def test_truthless_copy_leaves_the_problem_as_it_was(monkeypatch, run):
    """Both runs drop the truth on a shallow copy that shares the frozen
    data vector; the caller's problem keeps its own read-only truth."""
    p = multiplication_problem(64, 1, 1e-3)
    y, truth, before = p.y_delta, p.truth, p.truth.copy()
    seen = []

    def recorded(problem, *args, **kwargs):
        seen.append(problem)
        return sine(problem, *args, **kwargs)

    sine = sinereg.experiments._sine
    monkeypatch.setattr(sinereg.experiments, "_sine", recorded)
    run(p, 1e-3, StoppingRule(1.001, 1e-3))
    (copy,) = seen
    assert copy is not p and copy.truth is None
    assert copy.y_delta is p.y_delta and copy.operator is p.operator
    assert p.y_delta is y and p.truth is truth
    assert not truth.flags.writeable
    np.testing.assert_array_equal(truth, before)


@pytest.mark.parametrize("matrix_free", [False, True], ids=["diagonal", "projected"])
def test_diagnostics_checks_once_and_drives_its_own_run(monkeypatch, matrix_free):
    """run_diagnostics checked its shift and rule, then called run_sine,
    which checked both again and built a report only to be unpacked."""
    p = multiplication_problem(256, 1, 1e-3)
    if matrix_free:
        op = p.operator
        p = Problem(MatrixFreeOperator(op.domain, op.codomain, op.apply,
                                       op.apply_adjoint), p.y_delta, p.delta)
    rule = StoppingRule(1.001, 1e-3)
    want = run_sine(p, 1e-3, rule)
    checks = []

    def counted(check):
        return lambda *args: checks.append(args[0]) or check(*args)

    def refused(*args, **kwargs):
        raise AssertionError("run_diagnostics called run_sine")

    for module in (sinereg.experiments, sinereg.sine):
        monkeypatch.setattr(module, "_shift_and_rule", counted(module._shift_and_rule))
    monkeypatch.setattr(sinereg.experiments, "run_sine", refused)
    report = run_diagnostics(p, 1e-3, rule)
    assert checks == ["run_diagnostics"]
    assert (report.terminated_by, report.stopping_index) == (
        want.terminated_by, want.stopping_index)


def projected_diagnostics(p, gamma, rule):
    """run_diagnostics on ``p`` behind a ``MatrixFreeOperator``, so on a
    projected run; ``p`` itself, with its truth, is let go first."""
    op = p.operator
    p = Problem(MatrixFreeOperator(op.domain, op.codomain, op.apply, op.apply_adjoint),
                p.y_delta, p.delta)
    return run_diagnostics(p, gamma, rule)


@pytest.mark.parametrize("run, vectors", [
    (run_sine, 11), (lambda p, gamma, rule: run_cgne(p, rule), 10),
    (run_compare, 10), (run_diagnostics, 11), (projected_diagnostics, 12),
], ids=["sine", "cgne", "compare", "diagnostics", "projected-diagnostics"])
def test_peak_holds_only_the_vectors_in_use(run, vectors):
    """With the problem built inside the window, as the benchmark measures
    it, a run peaks at the vectors its recurrence reads: sine at 11
    vectors of 2^18 (12 while the space kept a copy of its uniform
    weights; 15 while a step held T*q through the shift solve and its
    state kept the replaced iterate and mapped direction through the next
    apply), cgne at 10 (11; 13), compare at 10 (11 while the baseline and
    the continued SINE run formed iterates that nothing read; 12 while
    the space kept its weights too; 15 while it copied the data vector to
    drop the truth; 20 while the baseline's report, with its state, and
    the continued run's error norms stayed alive) and diagnostics at 11
    (12 until its run formed no iterate and the audit held one adjoint
    image at a time, either alone left 12; 13 while the space kept its
    weights too; 14 while its run kept the truth and formed error norms;
    17 while the final iterate lived through the audit and the mapped and
    residual histories through the basis; 20 while the n x m basis stayed
    alive past the projected matrix). Projected, diagnostics peaks at 12
    (14 while its run kept every residual vector, where the audit now
    regenerates r_1, ..., r_m from r_0)."""
    n = 2**18
    tracemalloc.start()
    try:
        run(multiplication_problem(n, 1, 1e-3), 1e-3, StoppingRule(1.001, 1e-3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (vectors + 0.5) * 8 * n


def wrapped_compare_problem():
    """:func:`dense_compare_problem`'s operator behind a
    ``MatrixFreeOperator``, so that its SINE half is projected."""
    base = dense_compare_problem(False)
    op = base.operator
    free = MatrixFreeOperator(op.domain, op.codomain, op.apply, op.apply_adjoint)
    return Problem(free, base.y_delta, base.delta)


@pytest.mark.parametrize("kind", ["diagonal", "dense", "wrapped"])
def test_compare_halves_are_the_single_runs(cpus, kind):
    """The baseline forms no iterate and the SINE half none past its first
    stop, and neither moves: the CGNE column is run_cgne's residual
    history exactly, and ``iterate_sine`` run_sine's iterate bit for bit,
    in sequence and, on the dense problem with two CPUs, overlapped."""
    if kind == "diagonal":
        p, gamma, rule = (multiplication_problem(512, 1, 1e-3), 1e-3,
                          StoppingRule(1.001, 1e-3))
    else:
        p, gamma, rule = (dense_compare_problem(False) if kind == "dense"
                          else wrapped_compare_problem()), 1e-2, StoppingRule(1.01, 1e-3)
    result = run_compare(p, gamma, rule)
    assert result.stopping_index_sine < result.stopping_index_cgne
    assert repr(result.residuals_cgne) == repr(run_cgne(p, rule).residual_history)
    assert result.iterate_sine.tobytes() == run_sine(p, gamma, rule).iterate.tobytes()


class TestRateCheck:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            RateCheckConfig(delta_grid=(1e-3, 1e-2), mu=0.5)
        with pytest.raises(ValueError):
            RateCheckConfig(delta_grid=(1e-2, -1e-3), mu=0.5)
        with pytest.raises(ValueError):
            RateCheckConfig(delta_grid=(), mu=0.5)
        with pytest.raises(ValueError):
            RateCheckConfig(delta_grid=(1e-2,), mu=-1.0)
        # each of these failed only inside run_ratecheck
        with pytest.raises(ValueError, match="tau"):
            RateCheckConfig((1e-2,), 0.5, tau=0.5)
        with pytest.raises(ValueError, match="gamma"):
            RateCheckConfig((1e-2,), 0.5, gamma=np.nan)
        with pytest.raises(ValueError, match="max_iters"):
            RateCheckConfig((1e-2,), 0.5, max_iters=2.5)
        with pytest.raises(ValueError, match="n must be"):
            RateCheckConfig((1e-2,), 0.5, n=100.5)
        # a scalar grid raised an untyped TypeError, and a string was read
        # one character at a time
        for grid in (0.1, "1e-2", [[1e-2, 1e-3]]):
            with pytest.raises(ValueError, match="delta grid must be a sequence"):
                RateCheckConfig(delta_grid=grid, mu=0.5)
        for grid in ([1e-2, 1e-3], np.array([1e-2, 1e-3])):
            assert RateCheckConfig(grid, 0.5).delta_grid == (1e-2, 1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, True])
    def test_non_finite_mu_and_grid_rejected(self, bad):
        with pytest.raises(ValueError, match="mu must be finite"):
            RateCheckConfig(delta_grid=(1e-2,), mu=bad)
        with pytest.raises(ValueError, match="finite and positive"):
            RateCheckConfig(delta_grid=(bad, 1e-3), mu=0.5)

    def test_to_dict_lists_every_field(self):
        config = RateCheckConfig(delta_grid=(1e-2, 1e-3), mu=0.5, max_iters=7)
        assert config.to_dict() == {
            "delta_grid": [1e-2, 1e-3], "mu": 0.5, "tau": 1.001,
            "gamma": 1e-3, "n": 4096, "max_iters": 7,
        }

    def test_truth_exponent_mapping(self):
        assert RateCheckConfig(delta_grid=(1e-2,), mu=0.5).truth_exponent == 1.0
        assert RateCheckConfig(delta_grid=(1e-2,), mu=1.5).truth_exponent == 3.0

    def test_small_sweep(self):
        config = RateCheckConfig(
            delta_grid=(1e-2, 1e-3, 1e-4), mu=0.5, n=512
        )
        result = run_ratecheck(config)
        assert [r.delta for r in result.records] == [1e-2, 1e-3, 1e-4]
        assert all(not r.flagged for r in result.records)
        assert result.slope is not None and result.slope > 0
        assert json.loads(json.dumps(result.to_dict())) == result.to_dict()

    def test_single_delta_gives_no_slope(self):
        config = RateCheckConfig(delta_grid=(1e-3,), mu=0.5, n=128)
        result = run_ratecheck(config)
        assert result.slope is None
        assert result.flagged_fraction == 0.0

    @pytest.mark.parametrize("mu, n, max_iters", [
        (0.5, 4096, None), (1.5, 4096, None), (0.5, 512, None), (1.5, 512, None),
        (0.5, 512, 1),
    ])
    def test_sweep_matches_one_problem_per_level(self, mu, n, max_iters):
        """One operator and exact data serve the whole sweep; its records
        and slope are bit-identical to a problem built per level."""
        config = RateCheckConfig(RATE_GRID, mu, n=n, max_iters=max_iters)
        result = run_ratecheck(config)
        assert result.to_dict() == ratecheck_per_level(config).to_dict()
        assert all(r.flagged for r in result.records) == (max_iters == 1)

    def test_sweep_builds_one_problem_and_solves_without_truth(self, monkeypatch):
        built, truths = [], []
        build, solve = (sinereg.experiments.multiplication_problem,
                        sinereg.experiments.run_sine)

        def counted_build(*args):
            built.append(args)
            return build(*args)

        def recorded_solve(problem, *args, **kwargs):
            truths.append(problem.truth)
            return solve(problem, *args, **kwargs)

        monkeypatch.setattr(sinereg.experiments, "multiplication_problem", counted_build)
        monkeypatch.setattr(sinereg.experiments, "run_sine", recorded_solve)
        run_ratecheck(RateCheckConfig(RATE_GRID, 0.5, n=512))
        assert len(built) == 1
        assert len(truths) == len(RATE_GRID)
        assert all(t is None for t in truths)

    def test_capped_runs_flagged(self):
        config = RateCheckConfig(
            delta_grid=(1e-3, 1e-4), mu=0.5, n=256, max_iters=1
        )
        result = run_ratecheck(config)
        assert all(r.flagged for r in result.records)
        assert result.slope is None
        assert result.flagged_fraction == 1.0


class TestDiagnosticsDriver:
    def test_benchmark_run(self):
        p = multiplication_problem(1024, 1, 1e-3)
        rule = StoppingRule(tau=1.001, delta=1e-3)
        report = run_diagnostics(p, gamma=1e-3, rule=rule)
        assert report.stopping_index == 2
        assert len(report.ritz) == 2
        assert len(report.ritz[1]) == 2
        assert report.interlacing == [True]
        assert len(report.rprime) == 2
        assert report.rprime[1] > report.rprime[0]
        assert report.residual_identity_max is not None
        assert report.residual_identity_max <= 1e-8
        assert json.loads(json.dumps(report.to_dict())) == report.to_dict()

    def test_zero_step_run(self):
        op = DiagonalOperator(np.ones(3))
        p = Problem(operator=op, y_delta=np.full(3, 1e-9), delta=0.0)
        rule = StoppingRule(tau=1.001, delta=1.0)
        report = run_diagnostics(p, gamma=1.0, rule=rule)
        assert report.ritz == []
        assert report.interlacing == []
        assert report.rprime == []
        assert report.residual_identity_max is None
        assert report.stopping_index == 0

    def test_full_rank_run_analyzes_every_step(self):
        p = random_problem(40, 30, rate=0.9, seed=6, delta=1e-4)
        rule = StoppingRule(tau=1.05, delta=p.delta, max_iters=8)
        report = run_diagnostics(p, gamma=1.0, rule=rule)
        assert report.analyzed_steps == report.stopping_index == 8
        assert report.truncated_reason is None

    def test_rank_deficient_corpus_analyzes_a_prefix(self):
        """SINE runs past the rank of T on rounding noise; the spectra
        stop where the projected matrices stop being definite, at the
        rank, because a Ritz value of rounding size is no Ritz value."""
        rule = StoppingRule(tau=1.001, delta=0.0)
        truncated = 0
        for seed in range(60):
            for gamma in (0.044, 1.0):
                report = run_diagnostics(rank_four_problem(seed), gamma, rule)
                assert report.terminated_by == "breakdown"
                m = report.analyzed_steps
                assert m == 4 <= report.stopping_index
                assert (report.truncated_reason is None) == (
                    m == report.stopping_index)
                assert len(report.ritz) == len(report.rprime) == m
                assert len(report.interlacing) == m - 1
                truncated += report.truncated_reason is not None
        assert truncated > 100

    @pytest.mark.parametrize("matrix_free", [False, True])
    def test_dependent_direction_truncates(self, matrix_free):
        p = rank_one_solve_problem(matrix_free)
        rule = StoppingRule(1.001, p.delta, max_iters=5)
        report = run_diagnostics(p, 1.0, rule)
        assert report.stopping_index == 5
        assert report.terminated_by == "iteration_cap"
        assert report.analyzed_steps == 2
        assert report.truncated_reason.startswith(
            "direction 2 is numerically dependent")
        state = run_sine(p, 1.0, rule, keep_history=True).state
        with pytest.raises(NumericalError, match="direction 2"):
            build_basis(state.direction_history[:3], p.domain_space)
        assert len(report.ritz) == 2
        assert len(report.orthogonality.galerkin) == 5

    @pytest.mark.parametrize("matrix_free", [False, True])
    def test_weighted_geometric_run_analyzes_every_step(self, matrix_free):
        """The dense run, with its Cholesky solves, and the matrix-free
        one, projected onto a Golub-Kahan bidiagonalization, both keep
        all 20 directions independent."""
        p = weighted_geometric_problem(matrix_free)
        report = run_diagnostics(p, 1.0, StoppingRule(1.001, p.delta))
        assert report.stopping_index == report.analyzed_steps == 20
        assert report.terminated_by == "iteration_cap"
        assert report.truncated_reason is None
        assert len(report.ritz) == len(report.orthogonality.galerkin) == 20

    @pytest.mark.parametrize("matrix_free", [False, True])
    def test_report_does_not_depend_on_the_truth(self, matrix_free):
        """No field reads an error norm, so the problem and the problem
        without its truth give the same report."""
        p = weighted_geometric_problem(matrix_free)
        rule = StoppingRule(1.001, p.delta)
        truthless = Problem(p.operator, p.y_delta, p.delta)
        assert (run_diagnostics(p, 1.0, rule).to_dict()
                == run_diagnostics(truthless, 1.0, rule).to_dict())

    @pytest.mark.parametrize("kind", ["dense", "dense-weighted", "wrapped",
                                      "wrapped-weighted"])
    def test_audit_regenerates_the_kept_residuals_exactly(self, kind):
        """Off a diagonal operator the run keeps r_0 alone of its residual
        vectors; the audit regenerates the rest, and reports what the audit
        of the same truthless run with its whole history does, exactly."""
        p = {"dense": lambda: dense_compare_problem(False),
             "dense-weighted": lambda: weighted_geometric_problem(False),
             "wrapped": wrapped_compare_problem,
             "wrapped-weighted": lambda: weighted_geometric_problem(True)}[kind]()
        gamma, rule = 1e-2, StoppingRule(1.01, p.delta)
        truthless = Problem(p.operator, p.y_delta, p.delta)
        want = orthogonality_audit(run_sine(truthless, gamma, rule, keep_history=True).state)
        report = run_diagnostics(p, gamma, rule)
        assert len(want.galerkin) == report.stopping_index >= 3
        assert report.orthogonality == want
        assert json.dumps(report.orthogonality.to_dict()) == json.dumps(want.to_dict())
        state = _sine(truthless, gamma, rule, rule.resolve_cap(p.operator.domain_dim),
                      keep_history=True, residuals=False)[0]
        assert len(state.residual_vectors) == 1
        assert len(state.mapped_history) == report.stopping_index + 1

    def test_random_run_interlacing_all_true(self):
        p = random_problem(40, 30, rate=0.9, seed=6, delta=1e-4)
        rule = StoppingRule(tau=1.05, delta=p.delta, max_iters=8)
        report = run_diagnostics(p, gamma=1.0, rule=rule)
        assert all(report.interlacing)
        assert report.residual_identity_max is None  # dense operator
        # single Ritz value of the first spectrum within the norm bound
        bound = p.operator.norm_estimate() ** 2 * (1 + 1e-6)
        assert 0 < report.ritz[0][0] <= bound
