import numpy as np
import pytest

from sinereg import (
    DenseOperator,
    DiagonalOperator,
    DimensionError,
    InnerProductSpace,
    NumericalError,
    Problem,
    ResidualFunction,
    RitzSpectrum,
    StoppingRule,
    build_basis,
    build_shift_solver,
    check_interlacing,
    detect_breakdown,
    orthogonality_audit,
    projected_gram,
    random_problem,
    residual_function_eval,
    ritz_values,
    rprime_at_zero,
    run_sine,
    sine_init,
    sine_step,
)

from oracles import forward_difference_at_zero


def run_with_history(problem, gamma, steps):
    solver = build_shift_solver(problem.operator, gamma)
    state = sine_init(problem, gamma, keep_history=True)
    for _ in range(steps):
        if detect_breakdown(state):
            break
        sine_step(state, solver)
    return state


class TestBuildBasis:
    def test_single_vector_normalized(self):
        space = InnerProductSpace(4)
        v = np.array([3.0, 0.0, 4.0, 0.0])
        basis = build_basis([v], space)
        assert basis.vectors[:, 0] == pytest.approx(v / 5.0)

    def test_orthogonal_inputs_unchanged_up_to_scale(self):
        space = InnerProductSpace(3)
        ins = [np.array([2.0, 0.0, 0.0]), np.array([0.0, 0.0, -3.0])]
        basis = build_basis(ins, space)
        assert basis.vectors[:, 0] == pytest.approx([1.0, 0.0, 0.0])
        assert basis.vectors[:, 1] == pytest.approx([0.0, 0.0, -1.0])

    def test_gram_identity_after_reorthogonalization(self):
        p = random_problem(40, 25, rate=0.7, seed=0, delta=1e-3)
        state = run_with_history(p, 1.0, 6)
        basis = build_basis(state.direction_history[:6], p.domain_space)
        gram = basis.gram()
        assert np.max(np.abs(gram - np.eye(6))) <= 1e-12

    def test_weighted_space_orthonormality(self):
        n = 32
        space = InnerProductSpace(n, weights=np.full(n, 1.0 / n))
        rng = np.random.default_rng(5)
        basis = build_basis([rng.standard_normal(n) for _ in range(4)], space)
        assert np.max(np.abs(basis.gram() - np.eye(4))) <= 1e-12

    def test_rank_loss_raises(self):
        space = InnerProductSpace(3)
        v = np.array([1.0, 2.0, 0.0])
        with pytest.raises(NumericalError):
            build_basis([v, 2.0 * v], space)

    def test_empty_history_rejected(self):
        with pytest.raises(DimensionError):
            build_basis([], InnerProductSpace(2))


class TestProjectedGram:
    def test_single_vector_norm_squared(self):
        op = DenseOperator(np.array([[2.0, 0.0], [0.0, 0.5]]))
        basis = build_basis([np.array([1.0, 0.0])], op.domain)
        s = projected_gram(basis, op)
        assert s == pytest.approx(np.array([[4.0]]))

    def test_diagonal_operator_coordinate_basis(self):
        d = np.array([1.0, 2.0, 3.0])
        op = DiagonalOperator(d)
        basis = build_basis([e for e in np.eye(3)], op.domain)
        s = projected_gram(basis, op)
        assert s == pytest.approx(np.diag(d**2))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_entrywise_inner_products(self, weighted):
        """One gram product per row equals the loop of inner products it
        replaced, up to summation order."""
        rng = np.random.default_rng(6)
        dom = InnerProductSpace(12, rng.uniform(0.2, 2.0, 12) if weighted else None)
        ran = InnerProductSpace(15, rng.uniform(0.2, 2.0, 15) if weighted else None)
        op = DenseOperator(rng.standard_normal((15, 12)), domain=dom, codomain=ran)
        basis = build_basis(list(rng.standard_normal((5, 12))), dom)
        v = basis.vectors
        ref = np.array([[dom.inner(op.normal_apply(v[:, i]), v[:, j])
                         for j in range(5)] for i in range(5)])
        dev = np.abs(projected_gram(basis, op) - (ref + ref.T) / 2)
        assert np.max(dev) <= 1e-13 * op.norm_estimate() ** 2

    def test_eigenvalues_within_operator_norm(self):
        p = random_problem(30, 20, rate=0.8, seed=2, delta=1e-3)
        state = run_with_history(p, 1.0, 5)
        basis = build_basis(state.direction_history[:5], p.domain_space)
        s = projected_gram(basis, p.operator)
        vals = np.linalg.eigvalsh(s)
        bound = p.operator.norm_estimate() ** 2 * (1 + 1e-6)
        assert np.all(vals > 0)
        assert np.all(vals <= bound)


class TestRitzValues:
    def test_scalar(self):
        assert ritz_values(np.array([[4.0]])).values == pytest.approx([4.0])

    def test_diagonal(self):
        sp = ritz_values(np.diag([1.0, 2.0, 3.0]))
        assert sp.values == pytest.approx([1.0, 2.0, 3.0])

    def test_two_by_two_characteristic_polynomial(self):
        sp = ritz_values(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert sp.values == pytest.approx([1.0, 3.0])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            ritz_values(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            ritz_values(np.diag([1.0, -2.0]))

    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            RitzSpectrum(values=np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            RitzSpectrum(values=np.array([2.0, 1.0]))


class TestInterlacing:
    def test_interlaced_pair(self):
        assert check_interlacing(RitzSpectrum([2.0]), RitzSpectrum([1.0, 3.0]))

    def test_violating_pair(self):
        assert not check_interlacing(RitzSpectrum([2.0]), RitzSpectrum([3.0, 4.0]))

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            check_interlacing(RitzSpectrum([1.0]), RitzSpectrum([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("seed", range(5))
    def test_consecutive_spectra_from_run(self, seed):
        p = random_problem(50, 40, rate=0.95, seed=seed, delta=1e-4)
        steps = 8
        state = run_with_history(p, 1.0, steps)
        m = state.iteration
        basis = build_basis(state.direction_history[:m], p.domain_space)
        s = projected_gram(basis, p.operator)
        spectra = [ritz_values(s[:k, :k]) for k in range(1, m + 1)]
        for k in range(1, m):
            assert check_interlacing(spectra[k - 1], spectra[k])


class TestResidualFunction:
    def test_value_one_at_zero(self):
        rf = ResidualFunction(gamma=0.5, zeros=np.array([0.3, 1.7, 2.2]))
        assert residual_function_eval(rf, 0.0) == 1.0

    def test_vanishes_at_zeros(self):
        rf = ResidualFunction(gamma=2.0, zeros=np.array([0.5, 1.5]))
        for z in rf.zeros:
            assert residual_function_eval(rf, z) == 0.0

    def test_componentwise_residual_identity_diagonal(self):
        rng = np.random.default_rng(7)
        d = rng.uniform(0.1, 1.0, 60)
        truth = rng.standard_normal(60)
        noise = rng.standard_normal(60)
        y = d * truth + 1e-3 * noise / np.linalg.norm(noise)
        p = Problem(operator=DiagonalOperator(d), y_delta=y, delta=1e-3)
        gamma = 1.0
        state = run_with_history(p, gamma, 8)
        m_top = state.iteration
        basis = build_basis(state.direction_history[:m_top], p.domain_space)
        s = projected_gram(basis, p.operator)
        ynorm = p.range_space.norm(y)
        for m in range(1, m_top + 1):
            rf = ResidualFunction.from_spectrum(ritz_values(s[:m, :m]), gamma)
            predicted = residual_function_eval(rf, d**2) * y
            err = p.range_space.norm(state.residual_vectors[m] - predicted)
            assert err <= 1e-8 * ynorm

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -1.0])
    def test_bad_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="finite and positive"):
            ResidualFunction(gamma=gamma, zeros=np.array([1.0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            ResidualFunction(gamma=-1.0, zeros=np.array([1.0]))
        with pytest.raises(ValueError):
            ResidualFunction(gamma=1.0, zeros=np.array([0.0]))


class TestDerivativeAtZero:
    def test_single_zero(self):
        rf = ResidualFunction(gamma=5.0, zeros=np.array([2.0]))
        assert rprime_at_zero(rf) == pytest.approx(0.5, rel=1e-15)

    def test_two_zeros_hand_value(self):
        rf = ResidualFunction(gamma=1.0, zeros=np.array([1.0, 4.0]))
        assert rprime_at_zero(rf) == pytest.approx(2.25, rel=1e-15)

    def test_matches_finite_difference(self):
        rf = ResidualFunction(gamma=1.0, zeros=np.array([0.4, 0.9, 1.8]))
        fd = forward_difference_at_zero(lambda lam: residual_function_eval(rf, lam))
        assert rprime_at_zero(rf) == pytest.approx(fd, rel=1e-5)

    def test_monotone_in_m_and_lower_bounds(self):
        p = random_problem(40, 30, rate=0.9, seed=11, delta=1e-4)
        gamma = 1.0
        state = run_with_history(p, gamma, 8)
        m_top = state.iteration
        basis = build_basis(state.direction_history[:m_top], p.domain_space)
        s = projected_gram(basis, p.operator)
        norm_sq = p.operator.norm_estimate() ** 2 * (1 + 1e-6)
        previous = 0.0
        for m in range(1, m_top + 1):
            sp = ritz_values(s[:m, :m])
            value = rprime_at_zero(ResidualFunction.from_spectrum(sp, gamma))
            assert value > previous
            assert value >= 1.0 / sp.values[0] * (1 - 1e-12)
            assert value >= m / norm_sq * (1 - 1e-12)
            previous = value


class TestOrthogonalityAudit:
    def test_zero_step_run_is_empty(self):
        op = DiagonalOperator(np.ones(3))
        p = Problem(operator=op, y_delta=np.full(3, 1e-8), delta=0.0)
        rule = StoppingRule(tau=1.001, delta=1e-2)
        report = run_sine(p, 1.0, rule, keep_history=True)
        audit = orthogonality_audit(report.state)
        assert audit.galerkin == []
        assert audit.max_galerkin == 0.0
        assert audit.max_conjugacy == 0.0

    def test_requires_history(self):
        p = random_problem(10, 6, seed=0)
        rule = StoppingRule(tau=1.5, delta=1e-3, max_iters=3)
        report = run_sine(p, 1.0, rule)
        with pytest.raises(DimensionError):
            orthogonality_audit(report.state)

    def test_well_conditioned_run_small_violations(self):
        p = random_problem(50, 40, rate=0.95, seed=4, delta=1e-4)
        state = run_with_history(p, 1.0, 10)
        audit = orthogonality_audit(state)
        assert audit.max_galerkin <= 1e-8
        assert audit.max_galerkin_adjoint <= 1e-8
        assert audit.max_conjugacy <= 1e-8

    def test_ill_conditioned_returns_without_assertion(self):
        # Hilbert-type matrix: orthogonality degrades, audit still reports
        n = 12
        h = 1.0 / (np.arange(n)[:, None] + np.arange(n)[None, :] + 1.0)
        rng = np.random.default_rng(8)
        p = Problem(operator=DenseOperator(h), y_delta=h @ rng.standard_normal(n),
                    delta=0.0)
        state = run_with_history(p, 1e-3, 10)
        audit = orthogonality_audit(state)
        assert len(audit.galerkin) == state.iteration
        assert all(np.isfinite(audit.conjugacy))

    def test_report_serializes(self):
        p = random_problem(20, 12, rate=0.8, seed=5, delta=1e-3)
        state = run_with_history(p, 1.0, 4)
        d = orthogonality_audit(state).to_dict()
        assert set(d) >= {"galerkin", "conjugacy", "max_galerkin", "max_conjugacy"}
