"""The output contract: every report's ``to_dict`` is plain JSON with a
fixed key set whose values equal the report's attributes, and vectors
survive a save/load round trip through each file format bit for bit."""

import gzip
import json
import re

import numpy as np
import pytest

from sinereg import (
    DimensionError,
    RateCheckConfig,
    StoppingRule,
    load_dense_operator,
    load_diagonal_operator,
    load_vector,
    multiplication_problem,
    orthogonality_audit,
    random_problem,
    run_cgne,
    run_compare,
    run_diagnostics,
    run_ratecheck,
    run_sine,
    save_dense_operator,
    save_vector,
)
from sinereg import problems

RUN_KEYS = {"solver", "stopping_index", "iterate", "residual_history",
            "error_history", "terminated_by", "breakdown_step",
            "elapsed_seconds", "gamma", "alphas", "betas"}
COMPARE_KEYS = {"residuals_sine", "residuals_cgne", "stopping_index_sine",
                "stopping_index_cgne", "terminated_by_sine",
                "terminated_by_cgne", "dominance", "dominance_all"}
CONFIG_KEYS = {"delta_grid", "mu", "tau", "gamma", "n", "max_iters"}
RECORD_KEYS = {"delta", "stopping_index", "error", "flagged"}
RATECHECK_KEYS = {"records", "slope", "config"}
DIAGNOSTICS_KEYS = {"ritz", "interlacing", "rprime", "orthogonality",
                    "residual_identity_max", "stopping_index", "terminated_by",
                    "analyzed_steps", "truncated_reason"}
ORTHOGONALITY_KEYS = {"galerkin", "galerkin_adjoint", "conjugacy",
                      "max_galerkin", "max_galerkin_adjoint", "max_conjugacy"}


def assert_plain(value):
    """Only JSON's own Python types, so no numpy scalar or array hides in
    a value (``np.float64`` is a subclass of ``float``)."""
    if type(value) is dict:
        for key, item in value.items():
            assert type(key) is str
            assert_plain(item)
    elif type(value) is list:
        for item in value:
            assert_plain(item)
    else:
        assert type(value) in (str, int, float, bool, type(None)), type(value)


def assert_equal_plain(plain, value):
    """``plain`` holds the numbers of ``value``, element by element."""
    if hasattr(value, "to_dict"):
        value = value.to_dict()
    if isinstance(value, (list, tuple, np.ndarray)):
        assert len(plain) == len(value)
        for p, v in zip(plain, value):
            assert_equal_plain(p, v)
    else:
        assert plain == value


def check(report, keys, derived=()):
    d = report.to_dict()
    assert json.loads(json.dumps(d)) == d
    assert set(d) == keys
    assert_plain(d)
    for key in keys - set(derived):
        assert_equal_plain(d[key], getattr(report, key))
    for key in derived:
        assert d[key] == getattr(report, key)
    return d


@pytest.fixture(scope="module")
def dense():
    return random_problem(20, 12, decay="algebraic", rate=1.5, seed=4, delta=1e-4)


def test_run_reports(dense):
    rule = StoppingRule(1.01, dense.delta)
    for report in (run_sine(dense, np.float64(1e-2), rule), run_cgne(dense, rule)):
        d = check(report, RUN_KEYS)
        assert d["error_history"] is not None


def test_compare_result(dense):
    result = run_compare(dense, 1e-2, StoppingRule(1.01, dense.delta))
    check(result, COMPARE_KEYS, derived=("dominance_all",))


def test_ratecheck_result_and_its_parts():
    config = RateCheckConfig(delta_grid=(1e-2, 1e-3), mu=np.float64(0.5),
                             n=np.int64(64))
    check(config, CONFIG_KEYS)
    result = run_ratecheck(config)
    d = check(result, RATECHECK_KEYS)
    assert d["config"] == config.to_dict()
    for record, plain in zip(result.records, d["records"]):
        assert check(record, RECORD_KEYS) == plain


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_diagnostics_and_orthogonality_reports(dense, kind):
    problem = (multiplication_problem(256, 1, 1e-3) if kind == "diagonal"
               else dense)
    rule = StoppingRule(1.01, problem.delta)
    report = run_diagnostics(problem, 1e-2, rule)
    d = check(report, DIAGNOSTICS_KEYS)
    assert (d["residual_identity_max"] is None) == (kind == "dense")
    assert d["analyzed_steps"] == d["stopping_index"]
    assert d["truncated_reason"] is None
    state = run_sine(problem, 1e-2, rule, keep_history=True).state
    audit = orthogonality_audit(state)
    assert check(audit, ORTHOGONALITY_KEYS, derived=(
        "max_galerkin", "max_galerkin_adjoint", "max_conjugacy",
    )) == d["orthogonality"]


def _is_matrix_market(path):
    """Whether the file starts with the Matrix Market banner; a .gz file
    must also be gzip, or reading it raises."""
    with (gzip.open if path.suffix == ".gz" else open)(path, "rb") as fh:
        return fh.read(14) == b"%%MatrixMarket"


SUFFIXES = [".csv", ".mtx", ".mtx.gz"]


@pytest.mark.parametrize("suffix", SUFFIXES)
def test_vector_round_trip_bit_exact(tmp_path, suffix):
    v = np.random.default_rng(9).standard_normal(7) * np.logspace(-300, 300, 7)
    path = tmp_path / f"v{suffix}"
    # a complex vector was written as its real part, a NaN as a file
    # that no loader reads
    with pytest.raises(ValueError, match="vector has complex entries"):
        save_vector(np.array([1 + 2j, 3j]), path)
    with pytest.raises(ValueError, match="vector contains non-finite entries"):
        save_vector(np.array([1.0, np.nan]), path)
    # a 2-d vector left an empty or partial file, a 0-d one an IndexError
    for bad in (np.ones((2, 2)), 1.0):
        with pytest.raises(DimensionError,
                           match=re.escape(f"must be 1-d, got shape {np.shape(bad)}")):
            save_vector(bad, path)
    # an empty vector was written, and no loader read it back
    with pytest.raises(ValueError, match="vector has no entries"):
        save_vector(np.array([]), path)
    assert list(tmp_path.iterdir()) == []
    save_vector(v, path)
    assert list(tmp_path.iterdir()) == [path]
    assert _is_matrix_market(path) == (suffix != ".csv")
    assert np.array_equal(load_vector(path), v)
    assert np.array_equal(problems.load_vector(path), v)
    assert np.array_equal(load_diagonal_operator(path).diagonal, v)


@pytest.mark.parametrize("suffix", SUFFIXES)
def test_dense_operator_round_trip_bit_exact(tmp_path, suffix):
    a = np.random.default_rng(10).standard_normal((5, 3)) * np.logspace(-300, 300, 3)
    path = tmp_path / f"a{suffix}"
    with pytest.raises(ValueError, match="matrix has complex entries"):
        save_dense_operator(a + 1j, path)
    with pytest.raises(ValueError, match="matrix contains non-finite entries"):
        save_dense_operator(np.full((2, 2), np.inf), path)
    for bad in (np.ones(3), np.ones((2, 2, 2)), 1.0):
        with pytest.raises(DimensionError,
                           match=re.escape(f"must be 2-d, got shape {np.shape(bad)}")):
            save_dense_operator(bad, path)
    for empty in (np.empty((0, 3)), np.empty((3, 0))):
        with pytest.raises(ValueError, match="matrix has no entries"):
            save_dense_operator(empty, path)
    assert list(tmp_path.iterdir()) == []
    save_dense_operator(a, path)
    assert list(tmp_path.iterdir()) == [path]
    assert _is_matrix_market(path) == (suffix != ".csv")
    assert np.array_equal(load_dense_operator(path).matrix, a)
