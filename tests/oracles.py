"""Independent oracles used by the tests.

These deliberately avoid the solver recurrences: subspace minimizers come
from explicitly built basis matrices and a dense least-squares solve,
derivatives from finite differences, spectra from full eigensolves. The
eager driver reuses the step functions but none of the logic of
``drive`` or ``detect_breakdown``.
"""

import numpy as np

from sinereg import build_shift_solver, cgne_init, cgne_step, sine_init, sine_step
from sinereg.stopping import EPS_BREAKDOWN


def weighted_lstsq_minimizer(op, y, basis_cols):
    """Minimize ||y - T x|| (weighted range norm) over span(basis_cols)
    by orthonormalizing the basis and solving a dense least-squares
    problem in the sqrt-weight embedding."""
    b = np.column_stack(basis_cols)
    q, _ = np.linalg.qr(b)
    u = np.column_stack([op.apply(q[:, k]) for k in range(q.shape[1])])
    sw = np.sqrt(op.codomain.weights)
    c, *_ = np.linalg.lstsq(sw[:, None] * u, sw * y, rcond=None)
    return q @ c


def shifted_apply(solver, v):
    """Forward map (I + T*T/gamma) v of a shift solver, for residual checks."""
    return v + solver.op.normal_apply(v) / solver.gamma


def rational_basis(op, solver, y, m):
    """Columns T*y, R T*y, ..., R^(m-1) T*y with R the resolvent."""
    cols = [op.apply_adjoint(y)]
    for _ in range(1, m):
        cols.append(solver.apply(cols[-1]))
    return cols


def polynomial_basis(op, y, m):
    """Columns T*y, (T*T) T*y, ..., (T*T)^(m-1) T*y."""
    cols = [op.apply_adjoint(y)]
    for _ in range(1, m):
        cols.append(op.normal_apply(cols[-1]))
    return cols


def dense_matrix_of(op):
    """Materialize an operator by applying it to coordinate vectors."""
    cols = []
    for k in range(op.domain_dim):
        e = np.zeros(op.domain_dim)
        e[k] = 1.0
        cols.append(op.apply(e))
    return np.column_stack(cols)


def forward_difference_at_zero(f, h=1e-7):
    """Estimate -f'(0) as (f(0) - f(h)) / h."""
    return (f(0.0) - f(h)) / h


def eager_run(problem, rule, gamma=None):
    """Run SINE (with ``gamma``) or CGNE (without) under the plain stopping
    loop: discrepancy (residual norm <= ``rule.threshold``), then
    breakdown, then the cap. Breakdown is the definition,
    ||q|| <= EPS_BREAKDOWN * ||T||^2 * ||w_0|| with the estimated ||T||,
    tested in full before every step. Returns the final state and the
    termination reason."""
    if gamma is None:
        state, step = cgne_init(problem), cgne_step
    else:
        solver = build_shift_solver(problem.operator, gamma)
        state = sine_init(problem, gamma)

        def step(st):
            sine_step(st, solver)
    cap = rule.resolve_cap(problem.operator.domain_dim)
    norm_sq = problem.operator.norm_estimate() ** 2
    while not state.residual_norms[-1] <= rule.threshold:
        threshold = EPS_BREAKDOWN * (norm_sq * state.initial_direction_norm)
        if np.sqrt(state.mapped_norm_sq) <= threshold:
            return state, "breakdown"
        if state.iteration >= cap:
            return state, "iteration_cap"
        step(state)
    return state, "discrepancy"


def mgs2_prefix(w_history, space):
    """Modified Gram-Schmidt with one full reorthogonalization pass, one
    earlier vector at a time, up to the first direction whose norm drops
    below 1e-12 times its input norm. Returns the n x k array of the
    orthonormal prefix (None when it is empty) and None, or the message
    naming the dependent direction."""
    vs = []
    for k, w in enumerate(w_history):
        v = np.array(w, dtype=float)
        before = space.norm(v)
        for _ in range(2):
            for u in vs:
                v -= space.inner(u, v) * u
        after = space.norm(v)
        if after <= 1e-12 * before or after == 0.0:
            return (np.column_stack(vs) if vs else None), (
                f"direction {k} is numerically dependent on the previous ones "
                f"(norm dropped from {before:.3e} to {after:.3e})")
        vs.append(v / after)
    return (np.column_stack(vs) if vs else None), None
