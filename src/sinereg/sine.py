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

An operator whose shift solve is the inherited inner CG (a
``MatrixFreeOperator``, say) would rebuild the one Krylov space
K(T*T, T*r_0) in every solve. There :func:`run_sine`, with or without
history, and the SINE half of ``run_compare`` run the same recurrence on a
Golub-Kahan projection instead: T V_k = U_{k+1} B_k from u_1 = r_0/||r_0||,
with exact k x k shift solves on the small bidiagonal B_k, and
x = x_0 + V_k z. The process, with its non-finite and adjoint checks, is
the one :meth:`LinearOperator.norm_estimate` runs from a seeded start. No
basis is stored; a second pass regenerates V_k. That costs about 4k
applies in all (k = 60 on a 2^14-point FFT blur) against one inner CG per
step. A history adds m + 1 forward applies: the second pass forms each
direction w_j = V_k zeta_j from the small run's zeta_j, then q_j = T w_j,
and r_{j+1} = r_j - alpha_j q_j from r_0. So ``run_diagnostics`` runs no
inner CG either; only hand-written :func:`sine_step` loops keep it.
"""

import itertools
import math
import time

import numpy as np

from .exceptions import DimensionError, NumericalError
from .operators import LinearOperator, _golub_kahan
from .problems import Problem
from .spaces import InnerProductSpace, _real
from .stopping import KrylovState, RunReport, StoppingRule, drive

__all__ = ["ShiftSolver", "build_shift_solver", "sine_init", "sine_step", "run_sine"]

# The projected run grows the Golub-Kahan projection by GK_CHUNK steps at a
# time until two checkpoints agree, with iterates within GK_SETTLE_RTOL
# relative; past GK_STEPS_PER_DIM * domain_dim steps it raises. Its
# iterate's recomputed residual may exceed tau * delta by GK_RESIDUAL_RTOL
# relative at a discrepancy stop. The process itself, with its adjoint
# check (GK_ADJOINT_RTOL), is the one of LinearOperator.norm_estimate.
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
        if not np.isfinite(v).all():
            raise NumericalError("shift solve input has non-finite entries")
        return self._solve(v)


build_shift_solver = ShiftSolver


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

    On an operator with the inherited inner-CG shift solve, the run is
    projected onto a Golub-Kahan bidiagonalization (see the module
    docstring); its residual history and coefficients are the projected
    run's, and its iterate, error history and, with ``keep_history``, its
    direction, mapped-direction and residual vectors are formed in the
    full space. A history then changes neither the stop, nor the iterate,
    nor the histories. Otherwise every step makes one shift solve with the
    operator's own solver.

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


def _sine(problem, gamma, rule, cap, x0=None, keep_history=False, fill=False):
    """The SINE run of :func:`run_sine`, ``run_compare`` and each
    checkpoint of a projected run, at a ``gamma`` that
    :func:`_shift_and_rule` has checked, driven by ``rule`` to ``cap``;
    projected when the operator's shift solve is the inherited inner CG. With
    ``fill``, a discrepancy stop continues at threshold 0 to ``cap``.
    Returns the final state, the first stop's reason, index and iterate,
    and the reason the run ended."""
    op = problem.operator
    if type(op).shift_solve is LinearOperator.shift_solve:
        return _run_projected(problem, gamma, rule, cap, x0, keep_history, fill)
    solver = build_shift_solver(op, gamma)
    state = sine_init(problem, solver.gamma, x0=x0, keep_history=keep_history)

    def step(st):
        sine_step(st, solver)

    terminated = drive(state, step, rule, cap)
    m, x, end = state.iteration, state.iterate, terminated
    if fill and terminated == "discrepancy":
        # a zero threshold stops only on an exactly zero residual
        end = drive(state, step, StoppingRule(rule.tau, 0.0), cap)
    return state, terminated, m, x, end


class _Bidiagonal(LinearOperator):
    """The (k+1) x k lower bidiagonal B of a Golub-Kahan run, ``alphas`` on
    its diagonal and ``betas`` below, between Euclidean spaces. Its norm,
    cached at construction, is the root of the top eigenvalue of the
    tridiagonal B^T B, with alpha_i^2 + beta_i^2 on its diagonal and
    beta_i alpha_{i+1} beside it."""

    def __init__(self, alphas, betas):
        k = len(alphas)
        super().__init__(InnerProductSpace(k), InnerProductSpace(k + 1))
        self.alphas, self.betas = a, b = np.array(alphas), np.array(betas)
        gram = np.diag(a * a + b * b) + np.diag(b[:-1] * a[1:], -1)
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
        two sizes give the same iterate once both have settled."""
        a, b, k = self.alphas.tolist(), self.betas.tolist(), len(self.alphas)
        diag, low = [], []
        for i in range(k):
            d = 1.0 + (a[i] * a[i] + b[i] * b[i]) / gamma
            if i:
                d -= low[-1] * low[-1]
            diag.append(math.sqrt(d))
            if i + 1 < k:
                low.append(b[i] * a[i + 1] / gamma / diag[-1])

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


def _run_projected(problem, gamma, rule, cap, x0, keep_history, fill):
    """:func:`_sine` on Golub-Kahan projections of ``problem``, grown
    by ``GK_CHUNK`` steps until a checkpoint is :func:`_settled`, or at
    once when the process has ended and the projection is exact. A second
    pass regenerates V_k to map the first stop's iterate back and, when
    the problem has a truth, every iterate before it for the error
    history. With ``keep_history`` it also maps back every direction
    w_j = V_k zeta_j of the small run; then one forward apply each forms
    q_j = T w_j, and r_{j+1} = r_j - alpha_j q_j from r_0 = y - T x_0.

    Returns a state of ``problem`` that holds the projected residual norms
    and coefficients, the error norms, the vector histories and, as its
    iterate, the first stop's; then the first stop's reason, index and
    iterate, and the reason the projected run ended. Raises
    :class:`NumericalError` past ``GK_STEPS_PER_DIM * domain_dim`` steps
    (or two checkpoints, if more),
    and when an iterate stopped by the discrepancy principle has a
    recomputed residual above tau * delta by more than ``GK_RESIDUAL_RTOL``.
    """
    op = problem.operator
    b = problem.y_delta
    if x0 is not None:
        x0 = op.domain.check_vector(x0, "starting iterate")
        b = b - op.apply(x0)
    errors_wanted = problem.truth is not None
    # two checkpoints at least, as a settled run compares two
    limit = max(GK_STEPS_PER_DIM * op.domain_dim, 2 * GK_CHUNK)
    process, alphas, betas = _golub_kahan(op, b), [], []
    previous, k = None, 0
    while True:
        k += GK_CHUNK
        if k > limit:
            raise NumericalError(
                f"the Golub-Kahan projection had not settled at k = {k - GK_CHUNK} "
                f"steps, the cap of {GK_STEPS_PER_DIM} per domain dimension")
        for beta, alpha, _ in itertools.islice(process, k + 1 - len(alphas)):
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
        for alpha, q in zip(state.alphas, qs):
            rs.append(rs[-1] - alpha * q)
        history = dict(direction_history=list(ws), mapped_history=qs,
                       residual_vectors=rs)
    return KrylovState(
        op=op, initial_direction_norm=state.initial_direction_norm,
        iteration=state.iteration, iterate=x, truth=problem.truth, gamma=gamma,
        residual_norms=state.residual_norms, error_norms=errors,
        alphas=state.alphas, betas=state.betas, **history), terminated, m, x, end
