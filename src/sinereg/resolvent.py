"""Shift-and-invert resolvent solver for (I + T*T/gamma).

The map B = I + T*T/gamma is self-adjoint and positive definite in the
weighted domain space, so B^{-1} always exists. Dense and diagonal
backends get a direct factorization reused across all applications (the
shift gamma is fixed for a whole run); matrix-free backends fall back to
an inner conjugate-gradient solve.
"""

import math

import numpy as np
import scipy.linalg

from .exceptions import NumericalError
from .operators import DenseOperator, DiagonalOperator

__all__ = ["ShiftSolver", "build_shift_solver"]

# Relative residual tolerance of the inner CG solve, and its iteration
# cap per domain dimension.
RESOLVENT_TOL = 1e-13
CG_ITERS_PER_DIM = 10


def _check_gamma(gamma):
    """Reject a shift that is not a finite positive number."""
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be finite and positive, got {gamma}")


def _check_finite_residual(rz, k):
    """Stop an inner solve at its first non-finite squared residual."""
    if not math.isfinite(rz):
        raise NumericalError(
            "inner resolvent solve produced a non-finite residual at inner "
            f"iteration {k}"
        )


class ShiftSolver:
    """Applies (I + T*T/gamma)^{-1} for a fixed operator and shift.

    Construct through :func:`build_shift_solver`, which picks the strategy
    per backend. Instances are immutable and shareable across threads.

    Attributes
    ----------
    op : LinearOperator
    gamma : float
        Positive shift.
    strategy : str
        "diagonal", "cholesky", or "cg". The "cg" strategy reaches relative
        residual ``RESOLVENT_TOL`` within ``CG_ITERS_PER_DIM * domain_dim``
        inner iterations or raises.
    """

    def __init__(self, op, gamma, strategy, data=None):
        self.op = op
        self.gamma = float(gamma)
        self.strategy = strategy
        self._data = data

    def apply(self, v):
        """Return (I + T*T/gamma)^{-1} v."""
        v = self.op.domain.check_vector(v, "input")
        if self.strategy == "diagonal":
            return v / self._data
        if self.strategy == "cholesky":
            return scipy.linalg.cho_solve(self._data, self.op.domain.weights * v)
        return self._apply_cg(v)

    def _apply_cg(self, b):
        space = self.op.domain
        target = RESOLVENT_TOL * space.norm(b)
        x = np.zeros_like(b)
        r = b.copy()
        rz = space.inner(r, r)
        _check_finite_residual(rz, 0)
        if np.sqrt(rz) <= target:
            return x
        p = r.copy()
        max_iter = CG_ITERS_PER_DIM * space.dim
        for k in range(1, max_iter + 1):
            bp = p + self.op.normal_apply(p) / self.gamma
            alpha = rz / space.inner(p, bp)
            x = x + alpha * p
            r = r - alpha * bp
            rz_new = space.inner(r, r)
            _check_finite_residual(rz_new, k)
            if np.sqrt(rz_new) <= target:
                return x
            p = r + (rz_new / rz) * p
            rz = rz_new
        raise NumericalError(
            "inner resolvent solve did not reach relative tolerance "
            f"{RESOLVENT_TOL:g} within {max_iter} iterations "
            f"(achieved residual {np.sqrt(rz):.3e}, target {target:.3e})"
        )


def build_shift_solver(op, gamma):
    """Build a :class:`ShiftSolver` for (I + T*T/gamma).

    Dense backends factor M = W_d + A^T W_r A / gamma (symmetric positive
    definite in the Euclidean sense) once with Cholesky; the weighted map
    B = I + T*T/gamma satisfies B x = v iff M x = W_d v. Diagonal backends
    divide componentwise by 1 + d_i^2/gamma. Anything else is solved by
    inner CG (see :class:`ShiftSolver`).
    """
    _check_gamma(gamma)
    if isinstance(op, DiagonalOperator):
        factors = 1.0 + op.diagonal * op.diagonal / gamma
        return ShiftSolver(op, gamma, "diagonal", data=factors)
    if isinstance(op, DenseOperator):
        a = op.matrix
        wr = op.codomain.weights if not op.codomain.is_unit else None
        awa = a.T @ (wr[:, None] * a) if wr is not None else a.T @ a
        m = awa / gamma
        m[np.diag_indices_from(m)] += op.domain.weights
        try:
            factor = scipy.linalg.cho_factor(m)
        except scipy.linalg.LinAlgError as exc:
            raise NumericalError(
                "Cholesky factorization of the shifted normal matrix failed "
                f"(gamma={gamma:g}); the matrix is positive definite in exact "
                f"arithmetic, so this indicates severe rounding: {exc}"
            ) from exc
        return ShiftSolver(op, gamma, "cholesky", data=factor)
    return ShiftSolver(op, gamma, "cg")

