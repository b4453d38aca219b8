import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from sinereg import RunReport, StoppingRule, discrepancy_met


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
    blob = json.dumps(report.to_dict())
    back = RunReport.from_dict(json.loads(blob))
    assert back.to_dict() == report.to_dict()
