import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from sinereg import (
    DenseOperator,
    DiagonalOperator,
    DimensionError,
    InnerProductSpace,
    MatrixFreeOperator,
    NumericalError,
    Problem,
    ResidualFunction,
    StoppingRule,
    build_basis,
    build_shift_solver,
    check_interlacing,
    detect_breakdown,
    multiplication_problem,
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
from sinereg.diagnostics import INTERLACING_SLACK, _orthonormal_prefix


from oracles import forward_difference_at_zero, mgs2_prefix, pairwise_audit


@st.composite
def spectrum_pairs(draw):
    """Sorted positive spectra u (size k) and l (size k + 1); some entries
    of u are moved to within a hair of an entry of l, on both sides of
    the interlacing slack."""
    k = draw(st.integers(1, 6))
    positive = st.floats(1e-6, 1e6)
    l = sorted(draw(st.lists(positive, min_size=k + 1, max_size=k + 1)))
    u = sorted(draw(st.lists(positive, min_size=k, max_size=k)))
    hair = st.sampled_from([0.0, 1e-11, -1e-11, 0.99e-10, -0.99e-10,
                            1.01e-10, -1.01e-10, 1e-9, -1e-9])
    for i in range(k):
        if draw(st.booleans()):
            u[i] = l[i + draw(st.integers(0, 1))] * (1.0 + draw(hair))
    return sorted(u), l


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
        assert basis[:, 0] == pytest.approx(v / 5.0)

    def test_orthogonal_inputs_unchanged_up_to_scale(self):
        space = InnerProductSpace(3)
        ins = [np.array([2.0, 0.0, 0.0]), np.array([0.0, 0.0, -3.0])]
        basis = build_basis(ins, space)
        assert basis[:, 0] == pytest.approx([1.0, 0.0, 0.0])
        assert basis[:, 1] == pytest.approx([0.0, 0.0, -1.0])

    def test_gram_identity_after_reorthogonalization(self):
        p = random_problem(40, 25, rate=0.7, seed=0, delta=1e-3)
        state = run_with_history(p, 1.0, 6)
        basis = build_basis(state.direction_history[:6], p.domain_space)
        gram = p.domain_space.gram(basis, basis)
        assert np.max(np.abs(gram - np.eye(6))) <= 1e-12

    def test_weighted_space_orthonormality(self):
        n = 32
        space = InnerProductSpace(n, weights=np.full(n, 1.0 / n))
        rng = np.random.default_rng(5)
        basis = build_basis([rng.standard_normal(n) for _ in range(4)], space)
        gram = space.gram(basis, basis)
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-12

    def test_rank_loss_raises(self):
        space = InnerProductSpace(3)
        v = np.array([1.0, 2.0, 0.0])
        with pytest.raises(NumericalError):
            build_basis([v, 2.0 * v], space)

    def test_empty_history_rejected(self):
        with pytest.raises(DimensionError):
            build_basis([], InnerProductSpace(2))

    def test_each_direction_copied_once(self):
        """Each direction is copied once, into the basis, so the peak is
        the basis plus one projection temporary, 16 + 8 MB (it was 40 MB
        with two copies, then 32 MB with a stacked copy)."""
        n = 10**6
        rng = np.random.default_rng(7)
        ws = [rng.standard_normal(n) for _ in range(2)]
        space = InnerProductSpace(n)
        tracemalloc.start()
        try:
            build_basis(ws, space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 33e6

    @staticmethod
    def weighted_history(n=4000, m=60, seed=9):
        """A weighted space with weights in [0.5, 2] and m directions of
        condition number about 1e8."""
        rng = np.random.default_rng(seed)
        space = InnerProductSpace(n, rng.uniform(0.5, 2.0, n))
        mix, _ = np.linalg.qr(rng.standard_normal((m, m)))
        graded = rng.standard_normal((n, m)) * np.logspace(0, -8, m)
        return space, list((graded @ mix).T)

    def test_weighted_orthonormality_at_rounding_level(self):
        space, ws = self.weighted_history()
        basis = build_basis(ws, space)
        assert basis.shape == (4000, 60)
        assert np.max(np.abs(space.gram(basis, basis) - np.eye(60))) <= 1e-14

    def test_peak_is_the_basis_and_two_vectors(self):
        """The basis is one preallocated array, and the weights fall on one
        vector, never on a block of earlier ones: no list of columns and no
        stacked copy (the peak was about twice the basis)."""
        space, ws = self.weighted_history()
        build_basis(ws, space)  # warm-up outside the traced call
        tracemalloc.start()
        try:
            basis = build_basis(ws, space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= basis.nbytes + 2 * 8 * space.dim

    @pytest.mark.parametrize("weighted", [False, True])
    def test_dependent_direction_named_as_by_modified_gram_schmidt(self, weighted):
        """A direction in the span of the first five ends the prefix at
        five columns, as the one-vector-at-a-time loop of the oracle ends
        it; the norm the message quotes is rounding noise, so only the
        direction it names is compared."""
        rng = np.random.default_rng(4)
        n = 200
        space = InnerProductSpace(n, rng.uniform(0.5, 2.0, n) if weighted else None)
        ws = list(rng.standard_normal((5, n)))
        ws += [rng.standard_normal(5) @ np.array(ws), rng.standard_normal(n)]
        basis, dependent = _orthonormal_prefix(ws, space)
        want_basis, want = mgs2_prefix(ws, space)
        assert basis.shape == want_basis.shape == (n, 5)
        assert np.max(np.abs(basis - want_basis)) <= 1e-12
        name = "direction 5 is numerically dependent on the previous ones"
        assert dependent.startswith(name) and want.startswith(name)
        with pytest.raises(NumericalError, match=name):
            build_basis(ws, space)

    def test_dependent_first_direction_leaves_no_prefix(self):
        space = InnerProductSpace(3)
        basis, dependent = _orthonormal_prefix([np.zeros(3), np.ones(3)], space)
        assert basis is None and dependent.startswith("direction 0 ")


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
        """The codomain products of T applied to the basis equal the
        domain-side products <T*T v_i, v_j> of ``normal_apply``, as
        adjointness says, up to rounding: an independent check."""
        rng = np.random.default_rng(6)
        dom = InnerProductSpace(12, rng.uniform(0.2, 2.0, 12) if weighted else None)
        ran = InnerProductSpace(15, rng.uniform(0.2, 2.0, 15) if weighted else None)
        op = DenseOperator(rng.standard_normal((15, 12)), domain=dom, codomain=ran)
        basis = build_basis(list(rng.standard_normal((5, 12))), dom)
        ref = np.array([[dom.inner(op.normal_apply(basis[:, i]), basis[:, j])
                         for j in range(5)] for i in range(5)])
        dev = np.abs(projected_gram(basis, op) - (ref + ref.T) / 2)
        assert np.max(dev) <= 1e-13 * op.norm_estimate() ** 2

    def test_basis_of_the_wrong_dimension_rejected(self):
        op = DenseOperator(np.ones((4, 3)))
        with pytest.raises(DimensionError, match=r"shape \(4, 2\), expected \(3, m\)"):
            projected_gram(np.eye(4)[:, :2], op)

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
        assert ritz_values(np.array([[4.0]])) == pytest.approx([4.0])

    def test_diagonal(self):
        vals = ritz_values(np.diag([1.0, 2.0, 3.0]))
        assert isinstance(vals, np.ndarray)
        assert vals == pytest.approx([1.0, 2.0, 3.0])

    def test_two_by_two_characteristic_polynomial(self):
        vals = ritz_values(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert vals == pytest.approx([1.0, 3.0])

    def test_matches_scipy_eigh(self):
        rng = np.random.default_rng(8)
        for size in range(1, 61):
            g = rng.standard_normal((size, size))
            s = g @ g.T + 1e-3 * np.eye(size)
            vals = ritz_values(s)
            ref = scipy.linalg.eigh(s, eigvals_only=True)
            assert np.max(np.abs(vals - ref)) <= 1e-12 * ref[-1]

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError, match="square"):
            ritz_values(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            ritz_values(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            ritz_values(np.diag([1.0, -2.0]))

    def test_rejects_rounding_noise_eigenvalue(self):
        """An eigenvalue below what eigvalsh resolves relative to the
        largest is rounding noise; one above it is a genuine eigenvalue,
        however small, as in the spectra of ill-posed problems."""
        with pytest.raises(ValueError, match="numerically singular"):
            ritz_values(np.diag([1e-20, 1.0]))
        with pytest.raises(ValueError, match="numerically singular"):
            ritz_values(np.diag([2 * np.finfo(float).eps, 1.0]))
        assert ritz_values(np.diag([1e-13, 1.0]))[0] == 1e-13
        assert ritz_values(np.diag([1e-14, 1.0]))[0] == 1e-14

    def test_spectrum_validation(self):
        """``check_interlacing`` takes spectra from a caller and checks
        them as they enter."""
        with pytest.raises(ValueError, match="ascending"):
            check_interlacing([1.0], [1.0, -1.0])
        with pytest.raises(ValueError, match="ascending"):
            check_interlacing([2.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="1-d"):
            check_interlacing(2.0, [1.0, 3.0])
        with pytest.raises(ValueError, match="1-d"):
            check_interlacing([[2.0]], [[1.0, 3.0]])
        # complex input was cut to its real part with only a ComplexWarning
        with pytest.raises(ValueError, match="spectrum has complex entries"):
            check_interlacing([1.5], [1.0, 2.0 + 1j])
        with pytest.raises(ValueError, match="matrix has complex entries"):
            ritz_values([[2.0, 1j], [-1j, 2.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="spectrum contains non-finite"):
            check_interlacing([1.5], [1.0, bad])
        with pytest.raises(ValueError, match="spectrum contains non-finite"):
            check_interlacing([bad], [1.0, 2.0])
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            ritz_values([[bad, 0.0], [0.0, 1.0]])


class TestInterlacing:
    def test_interlaced_pair(self):
        assert check_interlacing(np.array([2.0]), np.array([1.0, 3.0]))

    def test_violating_pair(self):
        assert not check_interlacing(np.array([2.0]), np.array([3.0, 4.0]))

    def test_slack_is_relative_1e_10(self):
        assert not check_interlacing(np.array([1.0]), np.array([1.0 + 1e-6, 2.0]))

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            check_interlacing(np.array([1.0]), np.array([1.0, 2.0, 3.0]))

    @settings(max_examples=500, deadline=None)
    @given(spectrum_pairs())
    def test_verdicts_match_the_pairwise_loop(self, pair):
        u, l = pair

        def lt(a, b):
            return a < b + INTERLACING_SLACK * max(abs(a), abs(b))

        loop = all(lt(l[i], u[i]) and lt(u[i], l[i + 1]) for i in range(len(u)))
        assert check_interlacing(np.array(u), np.array(l)) is loop

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
    @pytest.mark.parametrize("m", [1, 2, 3, 8, 33, 56])
    def test_running_product_matches_the_block_product(self, m):
        """The running product multiplies the factors in the order of the
        zeros, as ``np.prod`` does along a row of the n x m block it
        replaces, so the values are the same bits."""
        rng = np.random.default_rng(m)
        rf = ResidualFunction(gamma=1e-3, zeros=np.sort(rng.uniform(1e-4, 1.0, m)))
        lam = rng.uniform(0.0, 1.0, 4097) ** 2
        block = np.prod(1.0 - lam[:, None] / rf.zeros[None, :], axis=1)
        reference = block / (1.0 + lam / rf.gamma) ** (m - 1)
        assert np.array_equal(residual_function_eval(rf, lam), reference)
        assert residual_function_eval(rf, lam[7]) == reference[7]

    def test_evaluation_forms_no_block(self):
        """One evaluation at n = 2^20 points with m = 8 zeros peaks below
        4n doubles; the n x m block product took two n x m arrays."""
        n = 2**20
        lam = np.linspace(0.0, 1.0, n)
        rf = ResidualFunction(gamma=1e-3, zeros=np.linspace(0.1, 0.8, 8))
        tracemalloc.start()
        try:
            residual_function_eval(rf, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * n

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_zeros_rejected(self, bad):
        with pytest.raises(ValueError, match="zeros must be finite"):
            ResidualFunction(1.0, [bad])

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -1.0])
    def test_bad_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="finite and positive"):
            ResidualFunction(gamma=gamma, zeros=np.array([1.0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            ResidualFunction(gamma=-1.0, zeros=np.array([1.0]))
        with pytest.raises(ValueError):
            ResidualFunction(gamma=1.0, zeros=np.array([0.0]))
        # complex input was cut to its real part with only a ComplexWarning
        with pytest.raises(ValueError, match="zeros has complex entries"):
            ResidualFunction(1.0, [1.0 + 1j])
        with pytest.raises(ValueError, match="lam has complex entries"):
            residual_function_eval(ResidualFunction(1.0, [1.0]), 0.5 + 1j)
        # the m = 0 filter is identically 1, which the formula does not give
        with pytest.raises(ValueError, match="zeros must be nonempty"):
            ResidualFunction(1.0, [])
        # a 2-d array of zeros gave a wrong filter value without an error
        with pytest.raises(ValueError, match="1-d, got \\(1, 2\\)"):
            ResidualFunction(1.0, [[1.0, 2.0]])


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
            assert value >= 1.0 / sp[0] * (1 - 1e-12)
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

    @staticmethod
    def dense_problem(weighted, seed=6):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((30, 20)) / np.arange(1, 21)
        dom = InnerProductSpace(20, rng.uniform(0.2, 2.0, 20) if weighted else None)
        ran = InnerProductSpace(30, rng.uniform(0.2, 2.0, 30) if weighted else None)
        op = DenseOperator(a, domain=dom, codomain=ran)
        return Problem(operator=op, y_delta=a @ rng.standard_normal(20), delta=0.0)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_pairwise_reference_bit_for_bit_off_dense(self, weighted):
        """Diagonal and matrix-free operators take one adjoint apply per
        residual, as the reference does, so every entry is bit-equal."""
        dense = self.dense_problem(weighted).operator
        free = MatrixFreeOperator(dense.domain, dense.codomain, dense.apply,
                                  dense.apply_adjoint)
        d = np.random.default_rng(7).uniform(0.01, 1.0, 20)
        diagonal = DiagonalOperator(d, dense.domain)
        for op, y in ((free, dense.matrix @ np.ones(20)), (diagonal, d)):
            state = run_with_history(Problem(operator=op, y_delta=y, delta=0.0),
                                     1e-2, 8)
            audit = orthogonality_audit(state)
            assert state.iteration == 8
            assert (audit.galerkin, audit.galerkin_adjoint,
                    audit.conjugacy) == pairwise_audit(state)

    @pytest.mark.parametrize("steps", [0, 8])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_dense_matches_pairwise_reference(self, weighted, steps):
        """A dense operator takes the adjoint images from one matrix product,
        which rounds apart from the reference's applies by about 1e-17."""
        state = run_with_history(self.dense_problem(weighted), 1e-2, steps)
        audit = orthogonality_audit(state)
        want = pairwise_audit(state)
        assert state.iteration == steps
        for got, ref in zip((audit.galerkin, audit.galerkin_adjoint,
                             audit.conjugacy), want):
            assert len(got) == len(ref) == steps
            assert np.max(np.abs(np.subtract(got, ref)), initial=0.0) <= 1e-14

    def test_holds_one_adjoint_image_at_a_time(self):
        """The loop kept image m - 1 while the lazy map formed image m, so
        the audit of a 12-step diagonal history peaked at two images."""
        n = 2**18
        base = multiplication_problem(n, 1, 1e-3)
        p = Problem(base.operator, base.y_delta, base.delta)
        state = run_sine(p, 1e-2, StoppingRule(1.001, 1e-4), keep_history=True).state
        assert state.iteration == 12
        tracemalloc.start()
        try:
            orthogonality_audit(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * n

    def test_report_serializes(self):
        p = random_problem(20, 12, rate=0.8, seed=5, delta=1e-3)
        state = run_with_history(p, 1.0, 4)
        d = orthogonality_audit(state).to_dict()
        assert set(d) >= {"galerkin", "conjugacy", "max_galerkin", "max_conjugacy"}
