"""Shift-and-invert resolvent solver for (I + T*T/gamma).

The map B = I + T*T/gamma is self-adjoint and positive definite in the
weighted domain space, so B^{-1} always exists. Each operator backend owns
its direct solve through ``LinearOperator.shift_solve`` (the shift gamma
is fixed for a whole run, so a factorization is built once and reused);
a backend without one, such as a matrix-free operator, is solved by inner
conjugate gradients here.
"""

import math

import numpy as np

from .exceptions import NumericalError

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

    Construct through :func:`build_shift_solver`. The operator's own
    solve (``op.shift_solve``) is taken if it has one, else inner CG.
    Instances are immutable and shareable across threads.

    Attributes
    ----------
    op : LinearOperator
    gamma : float
        Positive shift.
    strategy : str
        The operator's solve name ("diagonal" or "cholesky"), or "cg". The
        "cg" strategy reaches relative residual ``RESOLVENT_TOL`` within
        ``CG_ITERS_PER_DIM * domain_dim`` inner iterations or raises.
    """

    def __init__(self, op, gamma):
        _check_gamma(gamma)
        self.op = op
        self.gamma = float(gamma)
        own = op.shift_solve(self.gamma)
        self.strategy, self._solve = own or ("cg", self._apply_cg)

    def apply(self, v):
        """Return (I + T*T/gamma)^{-1} v."""
        return self._solve(self.op.domain.check_vector(v, "input"))

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
    """The :class:`ShiftSolver` of (I + T*T/gamma); factorizations run here."""
    return ShiftSolver(op, gamma)
