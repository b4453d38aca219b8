"""The output contract: every report's ``to_dict`` is plain JSON with a
fixed key set whose values equal the report's attributes, and vectors
survive a save/load round trip through each file format bit for bit."""

import json

import numpy as np
import pytest

from sinereg import (
    RateCheckConfig,
    StoppingRule,
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
                    "residual_identity_max", "stopping_index", "terminated_by"}
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
    state = run_sine(problem, 1e-2, rule, keep_history=True).state
    audit = orthogonality_audit(state)
    assert check(audit, ORTHOGONALITY_KEYS, derived=(
        "max_galerkin", "max_galerkin_adjoint", "max_conjugacy",
    )) == d["orthogonality"]


@pytest.mark.parametrize("suffix", [".csv", ".mtx"])
def test_vector_round_trip_bit_exact(tmp_path, suffix):
    v = np.random.default_rng(9).standard_normal(7) * np.logspace(-300, 300, 7)
    path = tmp_path / f"v{suffix}"
    save_vector(v, path)
    assert path.read_text().startswith("%%MatrixMarket") == (suffix == ".mtx")
    assert np.array_equal(load_vector(path), v)
    assert np.array_equal(problems.load_vector(path), v)
    assert np.array_equal(load_diagonal_operator(path).diagonal, v)
