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

An operator whose shift solve is the inherited inner CG (a bare
``MatrixFreeOperator``, say) would rebuild the one Krylov space
K(T*T, T*r_0) in every solve. There :func:`run_sine`, ``run_compare`` and
``run_diagnostics`` run the same recurrence on a Golub-Kahan projection
T V_k = U_{k+1} B_k from u_1 = r_0/||r_0|| (the process, with its
checks, of :meth:`LinearOperator.norm_estimate`), with exact shift
solves on the small bidiagonal B_k; the residual history and coefficients
are the projected run's, and x = x_0 + V_k z. No basis is stored: a
second pass regenerates V_k to map back the first stop's iterate and,
with a truth, every iterate before it for the error history. That costs
about 4k applies (k = 60 on a 2^14-point FFT blur) against one inner CG
per step. A history adds m + 1 forward applies: the second pass forms
w_j = V_k zeta_j from the small run's zeta_j, then q_j = T w_j, and
r_{j+1} = r_j - alpha_j q_j from r_0 (r_0 alone for ``run_diagnostics``),
so it moves neither the stop, the iterate nor the histories. Only
hand-written :func:`sine_step` loops keep inner CG.
"""

import functools
import itertools
import math
import time

import numpy as np

from .exceptions import DimensionError, NumericalError
from .operators import LinearOperator, _golub_kahan
from .problems import Problem
from .spaces import InnerProductSpace, _all_finite, _elementwise, _real
from .stopping import (KrylovState, RunReport, StoppingRule, _Gate,
                       _starting_iterate, drive)

__all__ = ["ShiftSolver", "build_shift_solver", "sine_init", "sine_step", "run_sine"]

# Read by _run_projected and _settled, which say how.
GK_CHUNK = 10
GK_SETTLE_RTOL = 1e-10
GK_STEPS_PER_DIM = 10
GK_RESIDUAL_RTOL = 1e-9


class ShiftSolver:
    """Applies (I + T*T/gamma)^{-1} by the operator's own solve,
    ``op.shift_solve(gamma)``, whose name is ``strategy``: "diagonal",
    "cholesky" or the inherited inner "cg"; factorizations run when it is
    built. ``build_shift_solver`` is this class. Immutable and shareable
    across threads."""

    def __init__(self, op, gamma):
        self.op = op
        self.gamma = _real(gamma, "gamma")
        self.strategy, self._solve = op.shift_solve(self.gamma)

    def apply(self, v):
        """Return (I + T*T/gamma)^{-1} v; a non-finite entry of v raises."""
        v = self.op.domain.check_vector(v, "input")
        if not _all_finite(v):
            raise NumericalError("shift solve input has non-finite entries")
        return self._solve(v)


build_shift_solver = ShiftSolver


def sine_init(problem, gamma, x0=None, keep_history=False):
    """Initialize the iteration at x0 (see :meth:`KrylovState.start`)
    for the shift ``gamma``."""
    return KrylovState.start(problem, x0, keep_history, _real(gamma, "gamma"))


def sine_step(state, solver):
    """Advance the iteration by one step (see module docstring), under
    the step contract of :class:`KrylovState`. T* q is taken after the
    shift solve and dropped once beta is formed, and t once w is.

    Must not be called once breakdown has been detected; an exactly zero
    mapped direction raises :class:`NumericalError`.
    """
    if not isinstance(solver, ShiftSolver):
        raise DimensionError("sine_step expects a ShiftSolver")
    if solver.gamma != state.gamma:
        raise DimensionError(
            f"solver shift {solver.gamma} does not match state shift {state.gamma}"
        )
    op, dj = state.op, state._step_denominator()
    alpha = op.codomain.inner(state.residual, state.mapped_direction) / dj
    r = _elementwise(np.subtract, state.residual, state.mapped_direction, alpha)
    t = solver.apply(op.apply_adjoint(r))
    beta = op.domain.inner(t, op.apply_adjoint(state.mapped_direction)) / dj
    w = _elementwise(np.subtract, t, state.direction, beta)
    del t
    state.advance(r, w, alpha, beta)
    return state


def run_sine(problem, gamma, rule, x0=None, keep_history=False):
    """Iterate to the discrepancy principle, breakdown, or the cap
    (see :func:`drive` for the order of the tests). Every step makes one
    shift solve with the operator's own solver, except on an operator with
    the inherited inner CG, where the run is projected (see
    :mod:`sinereg.sine`).

    Returns a :class:`RunReport`; an iteration-cap termination is
    reported, not raised.
    """
    gamma = _shift_and_rule("run_sine", gamma, rule)
    start = time.perf_counter()
    cap = rule.resolve_cap(problem.operator.domain_dim)
    state, terminated, *_ = _sine(problem, gamma, rule, cap, x0, keep_history)
    return RunReport.from_state(
        "sine", state, terminated, time.perf_counter() - start
    )


def _shift_and_rule(name, gamma, rule):
    """``gamma`` as a float, once it and ``rule`` are checked where the
    entry point ``name`` takes them: before any operator is applied."""
    if not isinstance(rule, StoppingRule):
        raise DimensionError(f"{name} expects a StoppingRule")
    return _real(gamma, f"{name}: gamma")


def _sine(problem, gamma, rule, cap, x0=None, keep_history=False, fill=False,
          iterate=True, residuals=True):
    """The SINE run of :func:`run_sine`, ``run_compare``,
    ``run_diagnostics`` and each checkpoint of a projected run, at a
    ``gamma`` that :func:`_shift_and_rule` has checked, driven by ``rule``
    to ``cap``, and projected where the module docstring says. With
    ``fill``, a discrepancy stop of a truthless run continues at
    threshold 0 to ``cap`` and forms no iterate past the stop's; without
    ``iterate``, a direct truthless run forms none; without ``residuals``,
    a history keeps r_0 alone of its residuals. A direct run's ``cap``
    may be the :class:`_Gate` of ``run_compare``, which drives it.
    Returns the final state, the first stop's reason, index and iterate,
    and the reason the run ended."""
    op = problem.operator
    if type(op).shift_solve is LinearOperator.shift_solve:
        return _run_projected(problem, gamma, rule, cap, x0, keep_history, fill,
                              residuals)
    solver = build_shift_solver(op, gamma)
    state = KrylovState.start(problem, x0, keep_history, solver.gamma)
    if not iterate:
        state.iterate = None
    state._every_residual = residuals

    def step(st):
        sine_step(st, solver)

    run = (functools.partial(cap.drive, state, step) if isinstance(cap, _Gate)
           else functools.partial(drive, state, step, cap=cap))
    terminated = run(rule)
    m, x, end = state.iteration, state.iterate, terminated
    if fill and terminated == "discrepancy":
        state.iterate = None
        # a zero threshold stops only on an exactly zero residual
        end = run(StoppingRule(rule.tau, 0.0))
    return state, terminated, m, x, end


class _Bidiagonal(LinearOperator):
    """The (k+1) x k lower bidiagonal B of a Golub-Kahan run, ``alphas`` on
    its diagonal and ``betas`` below, between Euclidean spaces. The
    tridiagonal B^T B, formed once for the norm and the shift solve, has
    ``_diag``, alpha_i^2 + beta_i^2, on its diagonal and ``_off``,
    beta_i alpha_{i+1}, beside it. The norm, cached at construction, is
    the root of its top eigenvalue."""

    def __init__(self, alphas, betas):
        k = len(alphas)
        super().__init__(InnerProductSpace(k), InnerProductSpace(k + 1))
        self.alphas, self.betas = a, b = np.array(alphas), np.array(betas)
        self._diag, self._off = a * a + b * b, b[:-1] * a[1:]
        gram = np.diag(self._diag) + np.diag(self._off, -1)
        self._norm_estimate = float(np.sqrt(np.linalg.eigvalsh(gram)[-1]))

    def apply(self, z):
        out = np.append(self.alphas * z, 0.0)
        out[1:] += self.betas * z
        return out

    def apply_adjoint(self, r):
        return self.alphas * r[:-1] + self.betas * r[1:]

    def shift_solve(self, gamma):
        """Exact solve by the Cholesky factor of the tridiagonal
        I + B^T B / gamma, formed and applied row by row: the leading
        entries of a solution then barely depend on k, and projections of
        two sizes give the same iterate once both have settled. Explicit
        inverses (numpy has no banded solve) moved long runs' stops. The
        pivots are finite: :func:`_run_projected` checks each one as the
        Golub-Kahan steps form it."""
        k = len(self.alphas)
        pivots, offs = 1.0 + self._diag / gamma, self._off / gamma
        diag, low = [math.sqrt(pivots[0])], []
        for d, off in zip(pivots[1:].tolist(), offs.tolist()):
            low.append(off / diag[-1])
            diag.append(math.sqrt(d - low[-1] * low[-1]))

        def solve(v):
            t = v.tolist()
            for i in range(k):
                if i:
                    t[i] -= low[i - 1] * t[i - 1]
                t[i] /= diag[i]
            for i in reversed(range(k)):
                if i + 1 < k:
                    t[i] -= low[i] * t[i + 1]
                t[i] /= diag[i]
            return np.array(t)
        return "exact", solve


def _settled(stops, z, stops_before, z_before, k):
    """Whether a projected run on k Golub-Kahan steps agrees with the
    checkpoint before it. ``stops`` holds the (reason, index) of its first
    stop and of its end, and ``z`` is its first stop's iterate. The first
    stops must be equal and their iterates within ``GK_SETTLE_RTOL``. Each
    stop must be final: by discrepancy, by the cap below k, or by a
    breakdown at the same index as before. A breakdown of the space itself
    repeats; one of a projection that is too small moves with k."""
    def final(stop, before):
        reason, index = stop
        return (reason == "discrepancy" or (reason == "iteration_cap" and index < k)
                or (reason == "breakdown" and stop == before))

    if stops[0] != stops_before[0] or not all(map(final, stops, stops_before)):
        return False
    z_before = np.concatenate([z_before, np.zeros(len(z) - len(z_before))])
    return np.linalg.norm(z - z_before) <= GK_SETTLE_RTOL * np.linalg.norm(z)


def _run_projected(problem, gamma, rule, cap, x0, keep_history, fill, residuals):
    """:func:`_sine` on Golub-Kahan projections of ``problem`` (see the
    module docstring), grown by ``GK_CHUNK`` steps until a checkpoint is
    :func:`_settled`, or at once when the process has ended and the
    projection is exact. Returns what :func:`_sine` does, with a state of
    ``problem`` whose iterate is the first stop's. Raises
    :class:`NumericalError` at the first Golub-Kahan step that makes a
    pivot of the shifted bidiagonal overflow, past ``GK_STEPS_PER_DIM *
    domain_dim`` steps (or two checkpoints, if more), and when an iterate
    stopped by the discrepancy principle has a recomputed residual above
    tau * delta by more than ``GK_RESIDUAL_RTOL`` relative.
    """
    op = problem.operator
    b = problem.y_delta
    if x0 is not None:
        x0 = _starting_iterate(op.domain, x0)
        b = b - op.apply(x0)
    errors_wanted = problem.truth is not None
    # two checkpoints at least, as a settled run compares two
    limit = max(GK_STEPS_PER_DIM * op.domain_dim, 2 * GK_CHUNK)
    process, alphas, betas = _golub_kahan(op, b), [], []
    previous = None
    for k in range(GK_CHUNK, limit + 1, GK_CHUNK):
        for beta, alpha, _ in itertools.islice(process, k + 1 - len(alphas)):
            # pivot i of the small solve, 1 + (alpha_i^2 + beta_{i+1}^2) / gamma,
            # fails at the step of alpha_i or at the next, which completes it
            done = alphas[-1] * alphas[-1] + beta * beta if alphas else 0.0
            if not math.isfinite(1.0 + max(done, alpha * alpha) / gamma):
                raise NumericalError(
                    f"the shifted bidiagonal I + B^T B / gamma overflows at "
                    f"Golub-Kahan step {len(alphas) + 1} (gamma={gamma:g})")
            betas.append(beta)
            alphas.append(alpha)
        cols = min(k, len(alphas))
        data = np.zeros(cols + 1)
        data[0] = betas[0]
        small = Problem(_Bidiagonal(alphas[:cols], (betas + [0.0])[1:cols + 1]),
                        data, rule.delta)
        state, terminated, m, z, end = _sine(
            small, gamma, rule, min(cap, cols),
            keep_history=errors_wanted or keep_history, fill=fill)
        stops = ((terminated, m), (end, state.iteration))
        if alphas[-1] == 0.0 or (
                previous is not None and _settled(stops, z, *previous, cols)):
            break
        previous = stops, z
    else:
        raise NumericalError(
            f"the Golub-Kahan projection had not settled at k = {k} steps, "
            f"the cap of {GK_STEPS_PER_DIM} per domain dimension")
    process.close()  # frees its vectors before the second pass
    if errors_wanted:  # every iterate, by the recurrence's own updates
        zs = np.zeros((m + 1, cols))
        for j, (alpha, w) in enumerate(zip(state.alphas[:m], state.direction_history)):
            zs[j + 1] = zs[j] + alpha * w
    else:
        zs = z[None, :]
    zetas = state.direction_history if keep_history else []
    xs = np.zeros((len(zs), op.domain_dim))
    if x0 is not None:
        xs += x0
    ws = np.zeros((len(zetas), op.domain_dim))
    for i, (_, _, v) in zip(range(cols), _golub_kahan(op, b)):
        for xj, c in zip(xs, zs[:, i]):
            xj += c * v
        for wj, zeta in zip(ws, zetas):
            wj += zeta[i] * v
    x = xs[-1].copy()
    if terminated == "discrepancy":
        residual = problem.residual_norm(x)
        if not residual <= rule.threshold * (1.0 + GK_RESIDUAL_RTOL):
            raise NumericalError(
                f"the projected run stopped by the discrepancy principle at "
                f"iteration {m}, but its iterate's residual norm {residual:.6e} "
                f"exceeds tau * delta = {rule.threshold:.6e}")
    errors = [op.domain.norm(xj - problem.truth) for xj in xs] if errors_wanted else None
    del xs  # frees the iterates before the history's applies
    history = {}
    if keep_history:
        qs, rs = [op.apply(w) for w in ws], [b]
        for alpha, q in zip(state.alphas if residuals else (), qs):
            rs.append(rs[-1] - alpha * q)
        history = dict(direction_history=list(ws), mapped_history=qs,
                       residual_vectors=rs, _every_residual=residuals)
    return KrylovState(
        op=op, initial_direction_norm=state.initial_direction_norm,
        iteration=state.iteration, iterate=x, truth=problem.truth, gamma=gamma,
        residual_norms=state.residual_norms, error_norms=errors,
        alphas=state.alphas, betas=state.betas, **history), terminated, m, x, end
