"""Shared iteration machinery: the Krylov state both solvers step, the
discrepancy-principle stopping rule, the one breakdown test (used alike by
the driver loop and by hand-written loops), the one driver loop and the
gate that drives one run behind another, the run report, and the one
JSON converter and base class of every report."""

import math
import threading
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .exceptions import NumericalError
from .spaces import _SPLIT, _as_finite, _count, _elementwise, _real

__all__ = ["KrylovState", "StoppingRule", "detect_breakdown", "drive", "RunReport"]

DEFAULT_MAX_ITERS = 10000

# Relative threshold deciding that a mapped direction has vanished. Exact
# breakdown only happens in exact arithmetic; double-precision roundoff is
# ~1.1e-16, so 1e-14 leaves headroom for accumulation.
EPS_BREAKDOWN = 1e-14


@dataclass
class KrylovState:
    """Iteration state of a residual-minimizing Krylov recurrence;
    single-owner, mutated by a step function through :meth:`advance`.

    ``direction`` is the search direction w, ``mapped_direction`` its image
    q = T w and ``mapped_norm_sq`` the squared range norm of q; both are
    maintained so that breakdown can be tested without an extra operator
    application. ``gamma`` is the shift of a SINE state and
    ``normal_residual_sq`` the squared norm of T* r of a CGNE state; each
    is None for the other method. The step contract: each update goes
    into a new float64 array of the step's own (``np.multiply``, then
    ``np.add`` or ``np.subtract`` with ``out=``; ``spaces._elementwise``
    does the same in two halves over a long vector, bit for bit), and no
    step writes into a state, data, operator or shift-solve array, so a
    solve may return a buffer that it reuses. A ``keep_history`` state's
    three history lists thus hold the run's own w, q and r of every
    iterate, not copies; a private history (``_sine``'s
    ``residuals=False``) keeps r_0 alone. A step
    hands :meth:`advance` only r, w and its coefficients: ``advance`` forms
    the iterate x + alpha w itself, and lets go of the replaced vectors
    before it applies T to the new direction, so only a history keeps them
    past that apply. A state whose ``iterate`` is None steps without
    forming one; only a state without a truth may, as each step's error
    norm reads x.
    """

    op: object
    initial_direction_norm: float
    iteration: int = 0
    iterate: np.ndarray | None = None
    residual: np.ndarray | None = None
    direction: np.ndarray | None = None
    mapped_direction: np.ndarray | None = None
    mapped_norm_sq: float | None = None
    truth: np.ndarray | None = None
    gamma: float | None = None
    normal_residual_sq: float | None = None
    residual_norms: list[float] = field(default_factory=list)
    error_norms: list[float] | None = None
    alphas: list[float] = field(default_factory=list)
    betas: list[float] = field(default_factory=list)
    direction_history: list[np.ndarray] | None = None
    mapped_history: list[np.ndarray] | None = None
    residual_vectors: list[np.ndarray] | None = None
    _every_residual: bool = field(default=True, repr=False)

    @classmethod
    def start(cls, problem, x0=None, keep_history=False, gamma=None):
        """Iterate 0: r = y - T x0 (x0 defaults to zero), w = T* r, q = T w.

        A nonzero start folds prior information into the data residual,
        so the subspace is spanned from y - T x0, which
        :func:`_starting_iterate` checks first.
        """
        op = problem.operator
        if x0 is None:
            x = np.zeros(op.domain_dim)
            r = problem.y_delta
        else:
            x = _starting_iterate(op.domain, x0).copy()
            r = problem.y_delta - op.apply(x)
        w = op.apply_adjoint(r)
        state = cls(op=op, initial_direction_norm=op.domain.norm(w),
                    truth=problem.truth, gamma=gamma,
                    error_norms=None if problem.truth is None else [])
        if keep_history:
            state.direction_history, state.mapped_history = [], []
            state.residual_vectors = []
        state._record(x, r, w)
        return state

    def _step_denominator(self):
        """||q||^2; NumericalError after exact breakdown, where q is zero."""
        if self.mapped_norm_sq == 0.0:
            raise NumericalError(
                f"cannot step after exact breakdown at iteration {self.iteration}")
        return self.mapped_norm_sq

    def advance(self, r, w, alpha, beta):
        """Move to x + alpha w (if the state holds x), with residual r and
        direction w; alpha is the step size, beta the conjugation factor."""
        x = self.iterate
        if x is not None and len(x) < _SPLIT:  # a longer pass may split
            x = np.multiply(self.direction, alpha, dtype=float)
            np.add(self.iterate, x, out=x)
        elif x is not None:
            x = _elementwise(np.add, x, self.direction, alpha)
        self.iteration += 1
        self.alphas.append(alpha)
        self.betas.append(beta)
        self._record(x, r, w)

    def _record(self, x, r, w):
        op = self.op
        # the replaced vectors go before the apply; only a history keeps them
        self.iterate, self.residual, self.direction = x, r, w
        self.mapped_direction = None
        self.residual_norms.append(op.codomain.norm(r))
        if self.error_norms is not None:
            self.error_norms.append(op.domain.norm(x - self.truth if len(x) < _SPLIT
                                                   else _elementwise(np.subtract, x, self.truth)))
        self.mapped_direction = q = op.apply(w)
        self.mapped_norm_sq = op.codomain.inner(q, q)
        if self.direction_history is not None:
            self.direction_history.append(w)
            self.mapped_history.append(q)
            if self._every_residual:
                self.residual_vectors.append(r)


def _starting_iterate(space, x0):
    """``x0`` as a real vector of ``space`` with finite entries, else
    ValueError naming the starting iterate: the one check of x0, made
    before any apply by :meth:`KrylovState.start` and projected runs."""
    return _as_finite(space.check_vector(x0, "starting iterate"), "starting iterate")


@dataclass(frozen=True)
class StoppingRule:
    """Stop at the first iterate whose residual norm drops to tau * delta.

    Parameters
    ----------
    tau : float
        Multiplier, strictly greater than 1.
    delta : float
        Noise level, >= 0.
    max_iters : int, optional
        Hard iteration cap. ``None`` resolves to
        ``min(domain_dim, 10000)`` at run time.
    """

    tau: float
    delta: float
    max_iters: int | None = None

    def __post_init__(self):
        _real(self.tau, "tau", low=1)
        _real(self.delta, "delta", strict=False)
        if self.max_iters is not None:
            _count(self.max_iters, "max_iters")

    @property
    def threshold(self):
        return self.tau * self.delta

    def resolve_cap(self, domain_dim):
        if self.max_iters is not None:
            return self.max_iters
        return min(domain_dim, DEFAULT_MAX_ITERS)


def detect_breakdown(state):
    """True iff the current mapped direction q has (numerically) vanished:
    ||q|| <= EPS_BREAKDOWN * ||T||^2 * ||w_0||, with ||T|| the operator's
    cached :meth:`~LinearOperator.norm_estimate`. The first test on an
    operator whose norm is not known computes it by the Golub-Kahan
    process, which raises where the process does. An exactly zero q is
    always a breakdown, even when ||T|| is zero.
    """
    q_norm = math.sqrt(state.mapped_norm_sq)
    return q_norm <= EPS_BREAKDOWN * (
        state.op.norm_estimate() ** 2 * state.initial_direction_norm)


def drive(state, step, rule, cap):
    """Call ``step(state)`` until the run stops; return the reason.

    Before every step the tests run in one order: the discrepancy
    principle, residual norm <= ``rule.threshold`` (so a stopping index of
    0 is possible), then :func:`detect_breakdown`, then ``state.iteration >=
    cap``. The result is "discrepancy", "breakdown" or "iteration_cap". A
    residual norm or squared mapped-direction norm that is not finite
    raises :class:`NumericalError` naming the iteration; a ``cap`` that is
    not an integer of at least 0 raises :class:`ValueError`.
    """
    cap = _count(cap, "cap", low=0)
    while True:
        residual_norm = state.residual_norms[-1]
        if not (math.isfinite(residual_norm) and math.isfinite(state.mapped_norm_sq)):
            raise NumericalError(
                f"non-finite value at iteration {state.iteration}: residual "
                f"norm {residual_norm}, squared mapped-direction norm "
                f"{state.mapped_norm_sq}"
            )
        if residual_norm <= rule.threshold:
            return "discrepancy"
        if detect_breakdown(state):
            return "breakdown"
        if state.iteration >= cap:
            return "iteration_cap"
        step(state)


class _Gate:
    """Lets a run follow a leading one in another thread, as the SINE half
    of ``run_compare`` follows its CGNE baseline: it steps to m + 1 only
    once the leader has passed the tests of :func:`drive` at m, and once
    the leader has ended (by a stop or an error) to its last index. So it
    takes the steps it would with that index as its cap: :func:`drive`
    repeats its tests, which read only the state, on each re-entry."""

    def __init__(self):
        self._turn = threading.Condition()
        self._passed, self._ended = 0, False

    def leading(self, step):
        """``step``, publishing first that the state it advances passed."""
        def publishing(state):
            with self._turn:
                self._passed = state.iteration + 1
                self._turn.notify()
            step(state)
        return publishing

    def end(self):
        """Publish that the leader has ended, by a stop or an error."""
        with self._turn:
            self._ended = True
            self._turn.notify()

    def drive(self, state, step, rule):
        """:func:`drive` in turns, each to the index last published."""
        while True:
            with self._turn:
                cap, ended = self._passed, self._ended
            reason = drive(state, step, rule, cap)
            if reason != "iteration_cap" or ended:
                return reason
            with self._turn:
                self._turn.wait_for(lambda: self._ended or self._passed > cap)


def _plain(value):
    """``value`` in plain Python for ``json.dumps``: a dataclass becomes a
    dict of its fields (all but those marked ``repr=False``), an array, list
    or tuple a list, and a numpy scalar a Python number."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name))
                for f in fields(value) if f.repr}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


class _Record:
    """Base of every result: its JSON form is its fields, by :func:`_plain`."""

    def to_dict(self):
        """Plain-python dict, safe for ``json.dumps``."""
        return _plain(self)


@dataclass
class RunReport(_Record):
    """Outcome of a regularized solve.

    ``residual_history[m]`` is the residual norm of the m-th iterate, so
    ``residual_history[stopping_index]`` is the final one.
    ``terminated_by`` is "discrepancy", "breakdown", or "iteration_cap";
    ``breakdown_step`` holds the step at which the search direction
    vanished, when that happened.
    """

    solver: str
    stopping_index: int
    iterate: np.ndarray
    residual_history: list[float]
    terminated_by: str
    error_history: list[float] | None = None
    breakdown_step: int | None = None
    elapsed_seconds: float = 0.0
    gamma: float | None = None
    alphas: list[float] = field(default_factory=list)
    betas: list[float] = field(default_factory=list)
    # the run's final KrylovState, never serialized; a keep_history caller
    # reads its vector histories
    state: object | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_state(cls, solver, state, terminated_by, elapsed_seconds):
        """Report of a run that stopped at ``state`` for ``terminated_by``."""
        return cls(
            solver=solver,
            stopping_index=state.iteration,
            iterate=state.iterate,
            residual_history=list(state.residual_norms),
            error_history=None
            if state.error_norms is None
            else list(state.error_norms),
            terminated_by=terminated_by,
            breakdown_step=state.iteration if terminated_by == "breakdown" else None,
            elapsed_seconds=elapsed_seconds,
            gamma=state.gamma,
            alphas=list(state.alphas),
            betas=list(state.betas),
            state=state,
        )

    @property
    def final_residual(self):
        return self.residual_history[self.stopping_index]
