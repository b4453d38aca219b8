"""Conjugate gradients on the normal equation (CGLS form).

Baseline solver: the m-th iterate minimizes the data residual over the
polynomial Krylov subspace K_m(T*T, T*y). The recurrence is the
least-squares form of conjugate gradients, which updates the residual of
the original system rather than of the normal equation and so avoids
squaring the condition number in the residual update. Stopping is the
same discrepancy rule used by the rational-subspace solver.
"""

import time

import numpy as np

from .exceptions import DimensionError
from .spaces import _SPLIT, _elementwise
from .stopping import KrylovState, RunReport, StoppingRule, drive

__all__ = ["cgne_init", "cgne_step", "run_cgne"]


def cgne_init(problem, x0=None):
    """Set up r = y - T x0, p = T* r, q = T p."""
    state = KrylovState.start(problem, x0=x0)
    state.normal_residual_sq = state.op.domain.inner(state.direction, state.direction)
    return state


def cgne_step(state):
    """One CGLS step under the step contract of :class:`KrylovState`;
    must not be called after breakdown. T* r is dropped once p is formed."""
    if state.normal_residual_sq is None:
        raise DimensionError("cgne_step expects a state from cgne_init")
    op = state.op
    alpha = state.normal_residual_sq / state._step_denominator()
    if len(state.residual) < _SPLIT:  # a longer pass may split in two
        r = np.multiply(state.mapped_direction, alpha, dtype=float)
        np.subtract(state.residual, r, out=r)
    else:
        r = _elementwise(np.subtract, state.residual, state.mapped_direction, alpha)
    s = op.apply_adjoint(r)
    ns = op.domain.inner(s, s)
    beta = ns / state.normal_residual_sq
    if len(s) < _SPLIT:
        p = np.multiply(state.direction, beta, dtype=float)
        np.add(s, p, out=p)
    else:
        p = _elementwise(np.add, s, state.direction, beta)
    del s
    state.normal_residual_sq = ns
    state.advance(r, p, alpha, beta)
    return state


def run_cgne(problem, rule, x0=None, *, _gate=None):
    """Iterate CGLS to the discrepancy principle, breakdown, or the cap.

    Shares :func:`drive` with the rational-subspace runner, so the tests
    run in the same order (stopping index 0 is possible) and the report
    has the identical shape. ``run_compare`` passes a :class:`_Gate` that
    the run leads, on a truthless problem; a led run reads its residuals
    only, so it forms no iterate.
    """
    if not isinstance(rule, StoppingRule):
        raise DimensionError("run_cgne expects a StoppingRule")
    start = time.perf_counter()
    state = cgne_init(problem, x0=x0)
    cap = rule.resolve_cap(problem.operator.domain_dim)
    step = cgne_step
    if _gate is not None:
        state.iterate, step = None, _gate.leading(cgne_step)
    terminated = drive(state, step, rule, cap)
    return RunReport.from_state(
        "cgne", state, terminated, time.perf_counter() - start
    )
