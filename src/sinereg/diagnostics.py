"""Spectral diagnostics over a retained run history.

These are pure functions over history snapshots, run as a separate pass
after a solve (never interleaved into the solver recurrences): an
orthonormal basis of the search subspace, the projected normal-equation
matrix and its eigenvalues (Ritz values), interlacing checks between
consecutive spectra, the rational residual function whose zeros are the
Ritz values, and an orthogonality audit of the recurrence identities.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .exceptions import DimensionError, NumericalError
from .resolvent import _check_gamma
from .stopping import _plain

__all__ = [
    "KrylovBasis",
    "build_basis",
    "projected_gram",
    "ritz_values",
    "RitzSpectrum",
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


@dataclass
class KrylovBasis:
    """Orthonormal basis (weighted inner product) of a search subspace.

    ``vectors`` has one orthonormal vector per column.
    """

    vectors: np.ndarray
    space: object

    @property
    def size(self):
        return self.vectors.shape[1]

    def gram(self):
        """Inner-product matrix of the basis (identity up to rounding)."""
        return self.space.gram(self.vectors, self.vectors)


def build_basis(w_history, space):
    """Orthonormalize direction vectors by modified Gram-Schmidt with one
    full reorthogonalization pass.

    Nothing is dropped: pre-breakdown directions are linearly independent,
    so a vector annihilated to numerical noise signals a tolerance
    mismatch and raises :class:`NumericalError`.
    """
    if len(w_history) == 0:
        raise DimensionError("cannot build a basis from an empty history")
    vs = []
    for k, w in enumerate(w_history):
        v = space.check_vector(w, f"direction {k}").astype(float).copy()
        before = space.norm(v)
        for _ in range(2):
            for u in vs:
                v -= space.inner(u, v) * u
        after = space.norm(v)
        if after <= _RANK_LOSS_RATIO * before or after == 0.0:
            raise NumericalError(
                f"direction {k} is numerically dependent on the previous ones "
                f"(norm dropped from {before:.3e} to {after:.3e}); breakdown "
                "should have been flagged earlier"
            )
        vs.append(v / after)
    return KrylovBasis(vectors=np.column_stack(vs), space=space)


def projected_gram(basis, op):
    """Projected normal-equation matrix S with S[i, j] = <T*T v_i, v_j>.

    Symmetrized as (S + S^T)/2; symmetric positive definite whenever the
    basis spans a subspace on which T is injective.
    """
    v = basis.vectors
    m = basis.size
    if op.domain_dim != v.shape[0]:
        raise DimensionError(
            f"basis lives in dimension {v.shape[0]}, operator domain is "
            f"{op.domain_dim}"
        )
    # one row at a time: an n x m block of T*T v_i would raise the peak
    rows = [basis.space.gram(op.normal_apply(v[:, i]), v) for i in range(m)]
    s = np.array(rows).reshape(m, m)
    return (s + s.T) / 2.0


@dataclass
class RitzSpectrum:
    """Sorted eigenvalues of a projected normal-equation matrix."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if np.any(self.values <= 0):
            raise ValueError(
                f"Ritz values must be strictly positive, got {self.values}"
            )
        if np.any(np.diff(self.values) < 0):
            raise ValueError("Ritz values must be sorted ascending")

    @property
    def m(self):
        return self.values.size


def ritz_values(s_matrix):
    """Eigenvalues of a symmetric positive definite matrix, ascending.

    Raises on non-symmetric or non-positive-definite input.
    """
    s = np.atleast_2d(np.asarray(s_matrix, dtype=float))
    if s.shape[0] != s.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {s.shape}")
    scale = np.max(np.abs(s)) or 1.0
    if np.max(np.abs(s - s.T)) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    vals = scipy.linalg.eigh(s, eigvals_only=True)
    if vals[0] <= 0:
        raise ValueError(
            f"matrix is not positive definite (smallest eigenvalue {vals[0]:.3e})"
        )
    return RitzSpectrum(values=np.sort(vals))


def check_interlacing(prev, nxt):
    """Strict interlacing of consecutive spectra, with relative slack.

    With prev = (u_1 < ... < u_{m-1}) and nxt = (l_1 < ... < l_m), checks
    l_1 < u_1 < l_2 < u_2 < ... < u_{m-1} < l_m, accepting each inequality
    up to ``INTERLACING_SLACK`` relative to the magnitudes involved.
    """
    u = prev.values
    l = nxt.values
    if l.size != u.size + 1:
        raise DimensionError(
            f"expected spectra of sizes m-1 and m, got {u.size} and {l.size}"
        )

    def lt(a, b):
        return a < b + INTERLACING_SLACK * max(abs(a), abs(b))

    for i in range(u.size):
        if not (lt(l[i], u[i]) and lt(u[i], l[i + 1])):
            return False
    return True


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
        self.zeros = np.atleast_1d(np.asarray(self.zeros, dtype=float))
        _check_gamma(self.gamma)
        if np.any(self.zeros <= 0):
            raise ValueError("zeros must be strictly positive")

    @property
    def m(self):
        return self.zeros.size

    @classmethod
    def from_spectrum(cls, spectrum, gamma):
        return cls(gamma=gamma, zeros=spectrum.values.copy())


def residual_function_eval(rf, lam):
    """Evaluate the residual filter at lam (scalar or array, lam >= 0)."""
    lam = np.asarray(lam, dtype=float)
    scalar = lam.ndim == 0
    lam2 = np.atleast_1d(lam)
    num = np.prod(1.0 - lam2[:, None] / rf.zeros[None, :], axis=1)
    den = (1.0 + lam2 / rf.gamma) ** (rf.m - 1)
    out = num / den
    return float(out[0]) if scalar else out


def rprime_at_zero(rf):
    """|d/dlam value(lam)| at lam = 0: sum_j 1/zeros_j + (m-1)/gamma."""
    return float(np.sum(1.0 / rf.zeros) + (rf.m - 1) / rf.gamma)


@dataclass
class OrthogonalityReport:
    """Normalized maxima of the recurrence orthogonality violations.

    ``galerkin`` holds max_j |<r_m, q_j>| / (||r_0|| ||q_j||) per m,
    ``galerkin_adjoint`` the same for |<T* r_m, w_j>| (the equivalent
    domain-side statement), and ``conjugacy`` max_j |<q_m, q_j>| /
    (||q_m|| ||q_j||) per m. Maxima are reported, never asserted.
    """

    galerkin: list[float]
    galerkin_adjoint: list[float]
    conjugacy: list[float]

    @property
    def max_galerkin(self):
        return max(self.galerkin, default=0.0)

    @property
    def max_galerkin_adjoint(self):
        return max(self.galerkin_adjoint, default=0.0)

    @property
    def max_conjugacy(self):
        return max(self.conjugacy, default=0.0)

    def to_dict(self):
        return {**_plain(self), "max_galerkin": self.max_galerkin,
                "max_galerkin_adjoint": self.max_galerkin_adjoint,
                "max_conjugacy": self.max_conjugacy}


def orthogonality_audit(state):
    """Audit the orthogonality identities over a retained run history.

    Requires a state run with ``keep_history=True``. Entry ``m-1`` of each
    report list covers iterate m; a zero-step history yields empty lists
    and zero maxima. Violations are returned for inspection; severe loss
    of orthogonality on ill-conditioned problems is expected and not an
    error.
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
    for m in range(1, len(rs)):
        tr = op.apply_adjoint(rs[m])
        g = ga = c = 0.0
        for j in range(m):
            denom = r0_norm * q_norms[j]
            if denom > 0:
                g = max(g, abs(ran.inner(rs[m], qs[j])) / denom)
                ga = max(ga, abs(dom.inner(tr, ws[j])) / denom)
            cd = q_norms[m] * q_norms[j]
            if cd > 0:
                c = max(c, abs(ran.inner(qs[m], qs[j])) / cd)
        galerkin.append(g)
        galerkin_adjoint.append(ga)
        conjugacy.append(c)
    return OrthogonalityReport(
        galerkin=galerkin,
        galerkin_adjoint=galerkin_adjoint,
        conjugacy=conjugacy,
    )
