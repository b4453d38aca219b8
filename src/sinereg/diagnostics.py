"""Spectral diagnostics over a retained run history.

These are pure functions over history snapshots, run as a separate pass
after a solve (never interleaved into the solver recurrences): an
orthonormal basis of the search subspace, the projected normal-equation
matrix and its eigenvalues (Ritz values), interlacing checks between
consecutive spectra, the rational residual function whose zeros are the
Ritz values, and an orthogonality audit of the recurrence identities.

Everything here runs on numpy alone: the Ritz values come from
``numpy.linalg.eigvalsh``, so a diagnostics pass never loads scipy.
"""

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionError, NumericalError
from .spaces import _as_finite, _as_real, _real
from .stopping import _Record

__all__ = [
    "build_basis",
    "projected_gram",
    "ritz_values",
    "check_interlacing",
    "ResidualFunction",
    "residual_function_eval",
    "rprime_at_zero",
    "orthogonality_audit",
    "OrthogonalityReport",
]

# A direction annihilated to below this fraction of its input norm means
# the inputs were numerically dependent although no breakdown was flagged.
_RANK_LOSS_RATIO = 1e-12

# Relative slack of each strict inequality in the interlacing check.
INTERLACING_SLACK = 1e-10


def _orthonormal_prefix(w_history, space):
    """Orthonormalize directions by classical Gram-Schmidt, twice, up to
    the first one that is numerically dependent on those before it.

    Returns the n x k array of the k orthonormal columns of the independent
    prefix (None when it is empty) and None, or a message naming the
    dependent direction. The columns are the rows of one array, each
    projected out of the rows before it in two passes.
    """
    rows = np.empty((len(w_history), space.dim))
    dependent = None
    for k, w in enumerate(w_history):
        v = rows[k]
        v[:] = space.check_vector(w, f"direction {k}")
        before = space.norm(v)
        for _ in range(2):  # the vector first: weights fall on it alone
            v -= rows[:k].T @ space.gram(v, rows[:k].T)
        after = space.norm(v)
        if after <= _RANK_LOSS_RATIO * before or after == 0.0:
            dependent = (
                f"direction {k} is numerically dependent on the previous ones "
                f"(norm dropped from {before:.3e} to {after:.3e})"
            )
            rows = rows[:k]
            break
        v /= after
    return (rows.T if len(rows) else None), dependent


def build_basis(w_history, space):
    """Orthonormalize direction vectors by classical Gram-Schmidt, twice;
    returns the n x m array whose columns are orthonormal in ``space``.

    Nothing is dropped: pre-breakdown directions are linearly independent,
    so a vector annihilated to numerical noise signals a tolerance
    mismatch and raises :class:`NumericalError`.
    """
    if len(w_history) == 0:
        raise DimensionError("cannot build a basis from an empty history")
    basis, dependent = _orthonormal_prefix(w_history, space)
    if dependent is not None:
        raise NumericalError(
            f"{dependent}; breakdown should have been flagged earlier"
        )
    return basis


def projected_gram(basis, op):
    """Projected normal-equation matrix S with S[i, j] = <T*T v_i, v_j>
    for the columns v_i of ``basis``: by adjointness, the products
    <T v_i, T v_j> in ``op.codomain`` of :meth:`~LinearOperator.apply_columns`,
    which raises :class:`DimensionError` for a basis not in ``op.domain``.

    Symmetrized as (S + S^T)/2; symmetric positive definite whenever the
    basis spans a subspace on which T is injective.
    """
    tv = op.apply_columns(basis)
    s = op.codomain.gram(tv, tv)
    return (s + s.T) / 2.0


def ritz_values(s_matrix):
    """Eigenvalues of a symmetric positive definite matrix, as an ascending array.

    Raises on non-finite or non-symmetric input, or on input whose smallest
    eigenvalue is at most m * eps times its largest: ``eigvalsh`` resolves
    an m x m spectrum only to about that absolute error, so such an
    eigenvalue is rounding noise and the matrix is numerically singular.
    """
    s = np.atleast_2d(_as_real(s_matrix, "matrix"))
    if s.shape[0] != s.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise ValueError("matrix has non-finite entries")
    scale = np.max(np.abs(s)) or 1.0
    if np.max(np.abs(s - s.T)) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    vals = np.linalg.eigvalsh(s)  # ascending
    if vals[0] <= s.shape[0] * np.finfo(float).eps * vals[-1]:
        raise ValueError(
            f"matrix is numerically singular or indefinite (smallest "
            f"eigenvalue {vals[0]:.3e}, largest {vals[-1]:.3e})"
        )
    return vals


def check_interlacing(prev, nxt):
    """Strict interlacing of consecutive spectra, with relative slack.

    With prev = (u_1 < ... < u_{m-1}) and nxt = (l_1 < ... < l_m), checks
    l_1 < u_1 < l_2 < u_2 < ... < u_{m-1} < l_m, accepting each inequality
    up to ``INTERLACING_SLACK`` relative to the magnitudes involved. A
    spectrum that is not a real, finite, ascending 1-d array raises ValueError.
    """
    u, l = (_as_finite(sp, "spectrum") for sp in (prev, nxt))
    if not all(sp.ndim == 1 and np.all(np.diff(sp) >= 0) for sp in (u, l)):
        raise ValueError(f"spectra must be 1-d and ascending, got {u} and {l}")
    if l.size != u.size + 1:
        raise DimensionError(
            f"expected spectra of sizes m-1 and m, got {u.size} and {l.size}"
        )

    def lt(a, b):
        return a < b + INTERLACING_SLACK * np.maximum(np.abs(a), np.abs(b))

    return bool(np.all(lt(l[:-1], u) & lt(u, l[1:])))


@dataclass
class ResidualFunction:
    """Rational function representing the residual filter of a run.

    value(lam) = prod_j (1 - lam/zeros_j) / (1 + lam/gamma)^(m-1), which is
    1 at lam = 0 by construction and vanishes at each zero. The zeros are
    the Ritz values of the m-th projected matrix.
    """

    gamma: float
    zeros: np.ndarray

    def __post_init__(self):
        self.zeros = np.atleast_1d(_as_real(self.zeros, "zeros"))
        self.gamma = _real(self.gamma, "gamma")
        if self.zeros.size == 0 or self.zeros.ndim != 1:
            raise ValueError(f"zeros must be nonempty and 1-d, got {self.zeros.shape}")
        if not np.all((self.zeros > 0) & (self.zeros < np.inf)):
            raise ValueError(
                f"zeros must be finite and strictly positive, got {self.zeros}"
            )

    @property
    def m(self):
        return self.zeros.size

    @classmethod
    def from_spectrum(cls, spectrum, gamma):
        """The filter at ``gamma`` whose zeros are a copy of ``spectrum``."""
        return cls(gamma=gamma, zeros=np.array(spectrum))


def residual_function_eval(rf, lam):
    """Evaluate the residual filter at lam (scalar or array, lam >= 0) as
    one running product over the zeros, which forms no n x m block."""
    lam = _as_real(lam, "lam")
    lam2 = np.atleast_1d(lam)
    out = 1.0 - lam2 / rf.zeros[0]
    for z in rf.zeros[1:]:
        out *= 1.0 - lam2 / z
    out /= (1.0 + lam2 / rf.gamma) ** (rf.m - 1)
    return float(out[0]) if lam.ndim == 0 else out


def rprime_at_zero(rf):
    """|d/dlam value(lam)| at lam = 0: sum_j 1/zeros_j + (m-1)/gamma."""
    return float(np.sum(1.0 / rf.zeros) + (rf.m - 1) / rf.gamma)


@dataclass
class OrthogonalityReport(_Record):
    """Normalized maxima of the recurrence orthogonality violations.

    ``galerkin`` holds max_j |<r_m, q_j>| / (||r_0|| ||q_j||) per m,
    ``galerkin_adjoint`` the same for |<T* r_m, w_j>| (the equivalent
    domain-side statement), and ``conjugacy`` max_j |<q_m, q_j>| /
    (||q_m|| ||q_j||) per m; each ``max_`` field is the largest entry of
    its list (0 for an empty one). Maxima are reported, never asserted.
    """

    galerkin: list[float]
    galerkin_adjoint: list[float]
    conjugacy: list[float]
    max_galerkin: float = field(init=False)
    max_galerkin_adjoint: float = field(init=False)
    max_conjugacy: float = field(init=False)

    def __post_init__(self):
        self.max_galerkin = max(self.galerkin, default=0.0)
        self.max_galerkin_adjoint = max(self.galerkin_adjoint, default=0.0)
        self.max_conjugacy = max(self.conjugacy, default=0.0)


def _regenerated(state):
    """r_1, ..., r_m of a history that keeps r_0 alone, one at a time, each
    formed from the one before by the step's own two ops, so bit for bit."""
    r = state.residual_vectors[0]
    for alpha, q in zip(state.alphas, state.mapped_history):
        t = np.multiply(q, alpha, dtype=float)
        r = np.subtract(r, t, out=t)
        yield r


def orthogonality_audit(state):
    """Audit the orthogonality identities over a retained run history.

    Requires a state run with ``keep_history=True``; of a history that
    keeps r_0 alone, as ``run_diagnostics``'s may, each later residual is
    regenerated, bit for bit, one at a time. Entry ``m-1`` of each report
    list covers iterate m; a zero-step history yields empty lists and zero
    maxima. The images T* r_m take one adjoint apply each, one pair held at
    a time, or one matrix product on a dense operator; the inner products
    are taken pair by pair. Violations are returned for inspection; severe
    loss of orthogonality on ill-conditioned problems is expected and not
    an error.
    """
    if state.residual_vectors is None or state.mapped_history is None:
        raise DimensionError(
            "orthogonality audit needs a run with history retention enabled"
        )
    op = state.op
    dom, ran = op.domain, op.codomain
    rs = state.residual_vectors
    qs = state.mapped_history
    ws = state.direction_history
    r0_norm = ran.norm(rs[0])
    q_norms = [ran.norm(q) for q in qs]
    galerkin, galerkin_adjoint, conjugacy = [], [], []
    later = rs[1:] if len(rs) == len(qs) else _regenerated(state)
    pairs = op._apply_adjoint_each(later, len(qs) - 1)
    for m in range(1, len(qs)):
        r, tr = next(pairs)  # the pair before it was freed below
        g = ga = c = 0.0
        for j in range(m):
            denom = r0_norm * q_norms[j]
            if denom > 0:
                g = max(g, abs(ran.inner(r, qs[j])) / denom)
                ga = max(ga, abs(dom.inner(tr, ws[j])) / denom)
            cd = q_norms[m] * q_norms[j]
            if cd > 0:
                c = max(c, abs(ran.inner(qs[m], qs[j])) / cd)
        del r, tr
        galerkin.append(g)
        galerkin_adjoint.append(ga)
        conjugacy.append(c)
    return OrthogonalityReport(
        galerkin=galerkin,
        galerkin_adjoint=galerkin_adjoint,
        conjugacy=conjugacy,
    )
