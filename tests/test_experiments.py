import json
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
    random_problem,
    run_compare,
    run_diagnostics,
    run_ratecheck,
    run_sine,
)
from sinereg.experiments import fit_rate


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


@pytest.mark.parametrize("run, vectors", [(run_compare, 15), (run_diagnostics, 17)],
                         ids=["compare", "diagnostics"])
def test_peak_holds_only_the_vectors_in_use(run, vectors):
    """With the problem built inside the window, as the benchmark measures
    it, compare peaks at 15 vectors of 2^18 (20 while the baseline's
    report, with its state, and the continued run's error norms stayed
    alive; 16 while the baseline computed error norms the table drops)
    and diagnostics at 17 (20 while the n x m basis stayed alive past the
    projected matrix)."""
    n = 2**18
    tracemalloc.start()
    try:
        run(multiplication_problem(n, 1, 1e-3), 1e-3, StoppingRule(1.001, 1e-3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (vectors + 0.5) * 8 * n


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

    def test_random_run_interlacing_all_true(self):
        p = random_problem(40, 30, rate=0.9, seed=6, delta=1e-4)
        rule = StoppingRule(tau=1.05, delta=p.delta, max_iters=8)
        report = run_diagnostics(p, gamma=1.0, rule=rule)
        assert all(report.interlacing)
        assert report.residual_identity_max is None  # dense operator
        # single Ritz value of the first spectrum within the norm bound
        bound = p.operator.norm_estimate() ** 2 * (1 + 1e-6)
        assert 0 < report.ritz[0][0] <= bound
