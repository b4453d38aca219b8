"""Conjugate-gradient-type iteration on the shift-and-invert Krylov subspace.

Each step minimizes the data residual over the nested subspaces spanned by
resolvent powers applied to the back-projected data,

    span{ T*y, (I + T*T/g)^{-1} T*y, ..., (I + T*T/g)^{-(m-1)} T*y },

via a short recurrence. Per step: with the current search direction ``w``
and its image ``q = T w``,

    alpha   = <r, q> / <q, q>          step size
    x      += alpha * w                iterate update
    r      -= alpha * q                residual update
    s       = T* q
    t       = (I + T*T/g)^{-1} T* r    resolvent-filtered gradient
    beta    = <t, s> / <q, q>          conjugation coefficient
    w       = t - beta * w             next direction

The iteration breaks down when ``q`` vanishes, at which point the iterate
is the minimum-norm least-squares solution. The residual recurrence is
kept exactly as above; a recomputed residual ``y - T x`` is available only
through the audit path (:meth:`Problem.residual`), never substituted.
"""

import time

from .exceptions import DimensionError, NumericalError
from .resolvent import ShiftSolver, _check_gamma, build_shift_solver
from .stopping import KrylovState, RunReport, StoppingRule, drive

__all__ = ["sine_init", "sine_step", "run_sine"]


def sine_init(problem, gamma, x0=None, keep_history=False):
    """Initialize the iteration at x0 (see :meth:`KrylovState.start`)
    for the shift ``gamma``."""
    _check_gamma(gamma)
    state = KrylovState.start(problem, x0=x0, keep_history=keep_history)
    state.gamma = float(gamma)
    return state


def sine_step(state, solver):
    """Advance the iteration by one step (see module docstring).

    Must not be called once breakdown has been detected; an exactly zero
    mapped direction raises :class:`NumericalError`.
    """
    if not isinstance(solver, ShiftSolver):
        raise DimensionError("sine_step expects a ShiftSolver")
    if solver.gamma != state.gamma:
        raise DimensionError(
            f"solver shift {solver.gamma} does not match state shift {state.gamma}"
        )
    if state.mapped_norm_sq == 0.0:
        raise NumericalError(
            f"cannot step after exact breakdown at iteration {state.iteration}"
        )
    op = state.op
    q = state.mapped_direction
    dj = state.mapped_norm_sq
    alpha = op.codomain.inner(state.residual, q) / dj
    x = state.iterate + alpha * state.direction
    r = state.residual - alpha * q
    s = op.apply_adjoint(q)
    t = solver.apply(op.apply_adjoint(r))
    beta = op.domain.inner(t, s) / dj
    state.advance(x, r, t - beta * state.direction, alpha, beta)
    return state


def run_sine(problem, gamma, rule, x0=None, keep_history=False):
    """Iterate to the discrepancy principle, breakdown, or the cap
    (see :func:`drive` for the order of the tests).

    Returns a :class:`RunReport`; an iteration-cap termination is
    reported, not raised.
    """
    if not isinstance(rule, StoppingRule):
        raise DimensionError("run_sine expects a StoppingRule")
    start = time.perf_counter()
    solver = build_shift_solver(problem.operator, gamma)
    state = sine_init(problem, gamma, x0=x0, keep_history=keep_history)
    cap = rule.resolve_cap(problem.operator.domain_dim)
    terminated = drive(state, lambda st: sine_step(st, solver), rule, cap)
    return RunReport.from_state(
        "sine", state, terminated, time.perf_counter() - start
    )
