import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sinereg import (
    DataFormatError,
    DiagonalOperator,
    DimensionError,
    InnerProductSpace,
    Problem,
    StoppingRule,
    add_noise,
    load_problem,
    load_vector,
    multiplication_problem,
    random_problem,
    run_sine,
    save_dense_operator,
    save_vector,
)


class TestMultiplicationProblem:
    def test_exact_data_squares_grid(self):
        p = multiplication_problem(100, 1, 0.0)
        t = p.operator.diagonal
        assert np.array_equal(p.y_delta, t**2)
        assert p.delta == 0.0

    def test_perturbation_norm_is_exactly_delta(self):
        delta = 1e-3
        p = multiplication_problem(4096, 1, delta)
        clean = p.operator.diagonal ** 2
        assert p.range_space.norm(p.y_delta - clean) == pytest.approx(delta, rel=1e-14)

    def test_small_grid_hand_values(self):
        p = multiplication_problem(4, 1, 0.0)
        assert p.operator.diagonal == pytest.approx([1 / 8, 3 / 8, 5 / 8, 7 / 8])
        assert p.y_delta == pytest.approx(p.operator.diagonal ** 2)

    def test_truth_consistency_invariant(self):
        delta = 2.5e-4
        p = multiplication_problem(512, 3, delta)
        measured = p.range_space.norm(p.y_delta - p.operator.apply(p.truth))
        assert abs(measured - delta) <= 1e-12 * delta

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_quadrature_matches_continuum_norm(self, n, k):
        # || t^k || on (0,1) is 1/sqrt(2k+1); midpoint rule is second order
        p = multiplication_problem(n, 1, 0.0)
        t = p.operator.diagonal
        discrete = p.domain_space.norm(t**k)
        exact = 1.0 / np.sqrt(2 * k + 1)
        assert abs(discrete - exact) / exact <= 10.0 / n**2

    def test_grid_size_validation(self):
        with pytest.raises(DimensionError):
            multiplication_problem(1, 1, 0.0)


class TestRandomProblem:
    def test_single_column_solved_in_one_step(self):
        p = random_problem(10, 1, seed=0)
        rule = StoppingRule(tau=1.001, delta=1e-13)
        report = run_sine(p, gamma=1.0, rule=rule)
        assert report.stopping_index == 1

    def test_geometric_decay_matches_svd(self):
        p = random_problem(30, 20, decay="geometric", rate=0.1, seed=1)
        svals = np.linalg.svd(p.operator.matrix, compute_uv=False)
        assert svals == pytest.approx(0.1 ** np.arange(20), abs=1e-10)

    def test_algebraic_decay_matches_svd(self):
        p = random_problem(25, 15, decay="algebraic", rate=2.0, seed=2)
        svals = np.linalg.svd(p.operator.matrix, compute_uv=False)
        assert svals == pytest.approx((np.arange(15) + 1.0) ** -2.0, abs=1e-10)

    def test_same_seed_bit_identical(self):
        a = random_problem(20, 10, seed=7, delta=1e-3)
        b = random_problem(20, 10, seed=7, delta=1e-3)
        assert np.array_equal(a.operator.matrix, b.operator.matrix)
        assert np.array_equal(a.y_delta, b.y_delta)
        assert np.array_equal(a.truth, b.truth)

    def test_exact_data_consistent_with_truth(self):
        p = random_problem(20, 10, seed=3)
        assert p.y_delta == pytest.approx(p.operator.apply(p.truth), rel=1e-14)

    def test_exact_data_checks_the_noise_mode(self):
        """At delta = 0 no noise is drawn, but an unknown mode still raises:
        it was accepted, so a misspelt mode went unnoticed."""
        with pytest.raises(ValueError, match="unknown noise mode 'bogus'"):
            random_problem(20, 10, seed=3, delta=0.0, noise_mode="bogus")

    def test_size_validation(self):
        with pytest.raises(DimensionError):
            random_problem(5, 10)
        with pytest.raises(DimensionError):
            random_problem(5, 0)
        with pytest.raises(ValueError):
            random_problem(5, 3, decay="exotic")


class TestAddNoise:
    def test_zero_delta_unchanged(self):
        y = np.array([1.0, 2.0])
        assert np.array_equal(add_noise(y, 0.0, "constant"), y)

    def test_constant_mode_unit_weights_shift(self):
        n = 25
        y = np.zeros(n)
        noisy = add_noise(y, 0.5, "constant")
        assert noisy == pytest.approx(np.full(n, 0.5 / np.sqrt(n)), rel=1e-15)

    def test_random_mode_norm_calibration(self):
        # measure the noise vector itself (y = 0), free of the float
        # cancellation that y + g - y would introduce
        space = InnerProductSpace(40, weights=np.full(40, 1 / 40))
        noise = add_noise(np.zeros(40), 2e-3, "random-direction", seed=5,
                          space=space)
        assert space.norm(noise) == pytest.approx(2e-3, rel=1e-14)

    def test_calibration_against_nonzero_data(self):
        space = InnerProductSpace(40, weights=np.full(40, 1 / 40))
        y = np.ones(40)
        noisy = add_noise(y, 2e-3, "random-direction", seed=5, space=space)
        # representation of y + g limits the achievable agreement here
        assert space.norm(noisy - y) == pytest.approx(2e-3, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=1e-8, max_value=1e3),
        st.sampled_from(["constant", "random-direction"]),
        st.integers(min_value=0, max_value=1000),
    )
    def test_calibration_every_mode(self, delta, mode, seed):
        rng = np.random.default_rng(seed)
        n = 17
        space = InnerProductSpace(n, weights=rng.uniform(0.1, 2.0, n))
        noise = add_noise(np.zeros(n), delta, mode, seed=seed, space=space)
        assert space.norm(noise) == pytest.approx(delta, rel=1e-14)

    @pytest.mark.parametrize("delta", [0.1, 0.0])
    def test_unknown_mode(self, delta):
        with pytest.raises(ValueError, match="unknown noise mode 'speckle'"):
            add_noise(np.ones(2), delta, "speckle")


class TestLoadProblem:
    def test_identity_mtx_with_data(self, tmp_path):
        op_path = tmp_path / "op.mtx"
        save_dense_operator(np.eye(2), op_path)
        data_path = tmp_path / "y.csv"
        save_vector(np.array([1.0, 0.0]), data_path)
        p = load_problem(op_path, data_path, 1e-3)
        assert p.operator.domain_dim == 2
        assert np.array_equal(p.y_delta, np.array([1.0, 0.0]))
        assert p.delta == 1e-3

    def test_dimension_mismatch_names_both(self, tmp_path):
        op_path = tmp_path / "op.csv"
        save_dense_operator(np.eye(3), op_path)
        data_path = tmp_path / "y.csv"
        save_vector(np.array([1.0, 0.0]), data_path)
        with pytest.raises(DimensionError, match="length 2.*dimension 3"):
            load_problem(op_path, data_path, 0.0)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((6, 4))
        y = rng.standard_normal(6)
        save_dense_operator(a, tmp_path / "op.mtx")
        save_vector(y, tmp_path / "y.csv")
        p = load_problem(tmp_path / "op.mtx", tmp_path / "y.csv", 0.0)
        assert np.array_equal(p.operator.matrix, a)
        assert np.array_equal(p.y_delta, y)

    def test_diagonal_kind(self, tmp_path):
        save_vector(np.array([1.0, 2.0]), tmp_path / "d.csv")
        save_vector(np.array([1.0, 1.0]), tmp_path / "y.csv")
        p = load_problem(tmp_path / "d.csv", tmp_path / "y.csv", 0.0,
                         operator_kind="diagonal")
        assert np.array_equal(p.operator.diagonal, np.array([1.0, 2.0]))

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_problem(tmp_path / "a", tmp_path / "b", 0.0,
                         operator_kind="sparse")

    def test_vector_loader_validation(self, tmp_path):
        bad = tmp_path / "v.csv"
        bad.write_text("1.0\ninf\n")
        with pytest.raises(DataFormatError):
            load_vector(bad)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0, True])
def test_exponent_and_rate_must_be_finite_and_positive(bad):
    """Rejected up front, before an all-zero truth, a rank-1 operator or a
    misleading late error can arise."""
    with pytest.raises(ValueError, match="truth exponent must be finite and positive"):
        multiplication_problem(64, bad, 1e-3)
    with pytest.raises(ValueError, match="decay rate must be finite and positive"):
        random_problem(6, 4, "algebraic", rate=bad)


@pytest.mark.parametrize("bad", [0.5, 1.5, "a", -1, True])
def test_seed_must_be_a_nonnegative_integer(bad):
    """A float or a string raised numpy's untyped TypeError, -1 numpy's
    ValueError, and True was read as the seed 1."""
    with pytest.raises(ValueError, match="seed must be an integer of at least 0"):
        random_problem(5, 3, seed=bad)
    with pytest.raises(ValueError, match="seed must be an integer of at least 0"):
        add_noise(np.ones(3), 1e-3, "random-direction", seed=bad)


class TestProblemValidation:
    def test_data_dimension_checked(self):
        p = multiplication_problem(8, 1, 0.0)
        with pytest.raises(DimensionError):
            Problem(operator=p.operator, y_delta=np.ones(9), delta=0.0)

    def test_negative_delta_rejected(self):
        p = multiplication_problem(8, 1, 0.0)
        with pytest.raises(ValueError):
            Problem(operator=p.operator, y_delta=p.y_delta, delta=-1.0)

    @pytest.mark.parametrize("delta", [np.nan, np.inf, -1.0, True, False, np.True_,
                                       "1e-3"])
    def test_bad_delta_rejected_by_every_constructor(self, tmp_path, delta):
        """A string raised an untyped TypeError, or was read as a number by
        load_problem."""
        p = multiplication_problem(8, 1, 0.0)
        save_dense_operator(np.eye(2), tmp_path / "op.csv")
        save_vector(np.ones(2), tmp_path / "y.csv")
        for build in (
            lambda: load_problem(tmp_path / "op.csv", tmp_path / "y.csv", delta),
            lambda: Problem(operator=p.operator, y_delta=p.y_delta, delta=delta),
            lambda: multiplication_problem(8, 1, delta),
            lambda: random_problem(6, 4, delta=delta),
            lambda: add_noise(np.ones(3), delta, "constant"),
        ):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                build()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_truth_rejected(self, bad):
        """It ran to the discrepancy stop with an all-NaN error history."""
        p = multiplication_problem(8, 1, 0.0)
        truth = p.truth.copy()
        truth[3] = bad
        with pytest.raises(ValueError, match="truth vector contains non-finite"):
            Problem(operator=p.operator, y_delta=p.y_delta, delta=0.0, truth=truth)

    def test_complex_data_noise_input_and_start_rejected(self):
        """Each was cut to its real part with only a ComplexWarning."""
        p = multiplication_problem(8, 1, 0.0)
        z = p.y_delta + 1j * p.y_delta
        with pytest.raises(ValueError, match="data has complex entries"):
            Problem(operator=p.operator, y_delta=z, delta=0.0)
        for space in (p.range_space, None):
            with pytest.raises(ValueError, match="data has complex entries"):
                add_noise(z, 1e-3, "constant", space=space)
        with pytest.raises(ValueError, match="starting iterate has complex entries"):
            run_sine(p, 1e-3, StoppingRule(1.001, 0.0), x0=np.zeros(8, dtype=complex))
        with pytest.raises(ValueError, match="weights has complex entries"):
            InnerProductSpace(2, weights=np.array([1 + 2j, 3]))

    @pytest.mark.parametrize("build", [
        lambda: multiplication_problem(8, 1, 1e-3),
        lambda: random_problem(6, 4, seed=1, delta=1e-3),
        lambda: Problem(DiagonalOperator(np.arange(1.0, 5.0)), [1.0, 2, 3, 4], 0.0,
                        truth=np.ones(4, dtype=np.float32)),
    ], ids=["multiplication", "random", "direct"])
    def test_data_and_truth_are_read_only(self, build):
        """Runs share the problem's own copies, so an in-place write
        raises instead of changing them under every later run."""
        p = build()
        for name in ("y_delta", "truth"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(p, name)[0] = 0.0

    def test_fields_cannot_be_reassigned(self):
        """A reassigned field would skip the checks and the copy, so the
        problem is frozen; ``dataclasses.replace`` checks and copies."""
        p = multiplication_problem(64, 1, 1e-3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.truth = [0.0] * 64
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.y_delta = np.full(65, np.nan)
        q = dataclasses.replace(p, truth=[0.0] * 64)
        assert isinstance(q.truth, np.ndarray) and not q.truth.flags.writeable
        with pytest.raises(DimensionError, match="data has shape"):
            dataclasses.replace(p, y_delta=np.full(65, np.nan))

    def test_caller_arrays_stay_writable_and_unshared(self):
        """The problem freezes its own copies, not the caller's arrays, so
        a later write into those changes no problem."""
        y, truth = np.ones(4), np.ones(4)
        p = Problem(DiagonalOperator(np.ones(4)), y, 0.0, truth=truth)
        y[0] = truth[0] = 2.0
        assert np.array_equal(p.y_delta, np.ones(4))
        assert np.array_equal(p.truth, np.ones(4))
        assert y.flags.writeable and truth.flags.writeable

    def test_error_norm_requires_truth(self):
        p = multiplication_problem(8, 1, 0.0)
        q = Problem(operator=p.operator, y_delta=p.y_delta, delta=0.0)
        with pytest.raises(ValueError):
            q.error_norm(np.zeros(8))
