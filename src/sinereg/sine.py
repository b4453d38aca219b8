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

import numpy as np

from .exceptions import DimensionError, NumericalError
from .spaces import _real
from .stopping import KrylovState, RunReport, StoppingRule, drive

__all__ = ["ShiftSolver", "build_shift_solver", "sine_init", "sine_step", "run_sine"]


class ShiftSolver:
    """Applies (I + T*T/gamma)^{-1} by the operator's own solve,
    ``op.shift_solve(gamma)``, whose name is ``strategy``: "diagonal",
    "cholesky" or the inherited inner "cg". Built through
    :func:`build_shift_solver`; immutable and shareable across threads."""

    def __init__(self, op, gamma):
        self.op = op
        self.gamma = _real(gamma, "gamma")
        self.strategy, self._solve = op.shift_solve(self.gamma)

    def apply(self, v):
        """Return (I + T*T/gamma)^{-1} v; a non-finite entry of v raises."""
        v = self.op.domain.check_vector(v, "input")
        if not np.isfinite(v).all():
            raise NumericalError("shift solve input has non-finite entries")
        return self._solve(v)


def build_shift_solver(op, gamma):
    """The :class:`ShiftSolver` of (I + T*T/gamma); factorizations run here."""
    return ShiftSolver(op, gamma)


def sine_init(problem, gamma, x0=None, keep_history=False):
    """Initialize the iteration at x0 (see :meth:`KrylovState.start`)
    for the shift ``gamma``."""
    gamma = _real(gamma, "gamma")
    state = KrylovState.start(problem, x0=x0, keep_history=keep_history)
    state.gamma = gamma
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
