"""Linear operators between weighted inner-product spaces.

Three backends cover the use cases of the solvers: a dense matrix, a
diagonal (multiplication) operator, and a matrix-free pair of callables.
Every backend provides ``apply`` (forward) and ``apply_adjoint``, where the
adjoint is taken with respect to the weighted inner products of the domain
and range spaces, so that <T u, v>_range = <u, T* v>_domain holds in exact
arithmetic. Each backend also owns its shift solve, ``shift_solve``:
division for a diagonal, one Cholesky factorization for a dense matrix.

Operators are immutable after construction and safe to share across
threads for read-only application.
"""

import gzip

import numpy as np
import scipy.io
import scipy.linalg

from .exceptions import DataFormatError, DimensionError, NumericalError
from .spaces import InnerProductSpace

__all__ = [
    "LinearOperator",
    "DenseOperator",
    "DiagonalOperator",
    "MatrixFreeOperator",
    "norm_estimate",
    "load_dense_operator",
    "load_diagonal_operator",
    "load_vector",
    "save_dense_operator",
    "save_vector",
]

# Power iteration of norm_estimate: at most NORM_ITERS steps, stopping when
# the Rayleigh quotient changes by less than NORM_RTOL relatively, from a
# start vector drawn from a fixed seed for reproducible estimates.
NORM_ITERS = 50
NORM_RTOL = 1e-6
_NORM_SEED = 20210828


class LinearOperator:
    """Base class: a linear map between two inner-product spaces.

    Besides ``apply``/``apply_adjoint`` a backend may supply
    :meth:`norm_bound`, a cheap upper bound U >= ||T||. The iteration
    driver tests breakdown against it first and runs the power iteration
    of :meth:`norm_estimate` only when a mapped direction nears the
    threshold that U implies, or when the backend has no bound.

    Parameters
    ----------
    domain : InnerProductSpace
        Space the operator maps from.
    codomain : InnerProductSpace
        Space the operator maps into.
    """

    def __init__(self, domain, codomain):
        self.domain = domain
        self.codomain = codomain
        self._norm_estimate = None

    @property
    def domain_dim(self):
        return self.domain.dim

    @property
    def range_dim(self):
        return self.codomain.dim

    def apply(self, x):
        """Forward application T x."""
        raise NotImplementedError

    def apply_adjoint(self, y):
        """Adjoint application T* y (weighted adjoint)."""
        raise NotImplementedError

    def normal_apply(self, x):
        """T* T x, the normal-equation operator."""
        return self.apply_adjoint(self.apply(x))

    def norm_bound(self):
        """Cheap upper bound on ||T||, or None when the backend has none."""
        return None

    def shift_solve(self, gamma):
        """``(name, solve)`` with ``solve(v) = (I + T*T/gamma)^{-1} v``, or
        None when the backend has none and the shift solver runs inner CG."""
        return None

    def norm_estimate(self):
        """Cached operator-norm estimate, see :func:`norm_estimate`."""
        if self._norm_estimate is None:
            self._norm_estimate = norm_estimate(self)
        return self._norm_estimate

    def __repr__(self):
        return (
            f"{type(self).__name__}({self.range_dim}x{self.domain_dim})"
        )


class DenseOperator(LinearOperator):
    """Operator backed by a dense (range_dim x domain_dim) matrix.

    Under weighted spaces the adjoint is W_domain^{-1} A^T W_range, which
    keeps <T u, v>_range = <u, T* v>_domain exact up to rounding.
    """

    def __init__(self, matrix, domain=None, codomain=None):
        a = np.array(matrix, dtype=float)  # own copy; frozen below
        if a.ndim != 2:
            raise DimensionError(f"matrix must be 2-d, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        rows, cols = a.shape
        domain = domain if domain is not None else InnerProductSpace(cols)
        codomain = codomain if codomain is not None else InnerProductSpace(rows)
        if domain.dim != cols or codomain.dim != rows:
            raise DimensionError(
                f"matrix shape {a.shape} inconsistent with spaces "
                f"({codomain.dim}, {domain.dim})"
            )
        super().__init__(domain, codomain)
        self.matrix = a
        self.matrix.setflags(write=False)

    def apply(self, x):
        x = self.domain.check_vector(x, "input")
        return self.matrix @ x

    def apply_adjoint(self, y):
        y = self.codomain.check_vector(y, "input")
        return self.codomain.gram(y, self.matrix) / self.domain.weights

    def norm_bound(self):
        """Weighted Frobenius norm ||W_r^{1/2} A W_d^{-1/2}||_F >= ||T||,
        summed row by row with no matrix-sized temporary."""
        a = self.matrix
        row_sq = np.einsum("ij,ij,j->i", a, a, 1.0 / self.domain.weights)
        return float(np.sqrt(row_sq @ self.codomain.weights))

    def shift_solve(self, gamma):
        """Cholesky of M = W_d + A^T W_r A / gamma, factored once: the
        weighted map B = I + T*T/gamma has B x = v iff M x = W_d v."""
        m = self.codomain.gram(self.matrix, self.matrix) / gamma
        m[np.diag_indices_from(m)] += self.domain.weights
        try:
            factor = scipy.linalg.cho_factor(m)
        except scipy.linalg.LinAlgError as exc:
            raise NumericalError(
                "Cholesky factorization of the shifted normal matrix failed "
                f"(gamma={gamma:g}); the matrix is positive definite in exact "
                f"arithmetic, so this indicates severe rounding: {exc}"
            ) from exc

        def solve(v):
            # cho_factor checked the factor once; rescanning it per solve
            # costs more than the solve, so only the new input is checked
            b = self.domain.weights * v
            if not np.isfinite(b).all():
                raise NumericalError("shift solve input has non-finite entries")
            return scipy.linalg.cho_solve(factor, b, check_finite=False)
        return "cholesky", solve


class DiagonalOperator(LinearOperator):
    """Square multiplication operator x -> d * x on a single space.

    Diagonal matrices commute with the (diagonal) weight matrix, so the
    weighted adjoint coincides with the forward map: the operator is
    self-adjoint in any weighted product on its space.
    """

    def __init__(self, diagonal, space=None):
        d = np.array(diagonal, dtype=float)  # own copy; frozen below
        if d.ndim != 1:
            raise DimensionError(f"diagonal must be 1-d, got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ValueError("diagonal entries must be finite")
        space = space if space is not None else InnerProductSpace(d.size)
        if space.dim != d.size:
            raise DimensionError(
                f"diagonal length {d.size} does not match space dim {space.dim}"
            )
        super().__init__(space, space)
        self.diagonal = d
        self.diagonal.setflags(write=False)

    def apply(self, x):
        x = self.domain.check_vector(x, "input")
        return self.diagonal * x

    def apply_adjoint(self, y):
        return self.apply(y)

    def norm_bound(self):
        """max |d_i|, the exact norm in any weighted product on the space."""
        d = self.diagonal
        return float(max(d.max(), -d.min()))

    def shift_solve(self, gamma):
        """Componentwise division by 1 + d_i^2/gamma."""
        factors = 1.0 + self.diagonal * self.diagonal / gamma
        return "diagonal", lambda v: v / factors


class MatrixFreeOperator(LinearOperator):
    """Operator defined by caller-supplied forward/adjoint callables.

    The caller is responsible for supplying an adjoint consistent with the
    weighted inner products of the given spaces; the adjoint-consistency
    test in the suite is the contract check.
    """

    def __init__(self, domain, codomain, forward, adjoint):
        super().__init__(domain, codomain)
        self._forward = forward
        self._adjoint = adjoint

    def apply(self, x):
        x = self.domain.check_vector(x, "input")
        y = np.asarray(self._forward(x), dtype=float)
        return self.codomain.check_vector(y, "forward output")

    def apply_adjoint(self, y):
        y = self.codomain.check_vector(y, "input")
        x = np.asarray(self._adjoint(y), dtype=float)
        return self.domain.check_vector(x, "adjoint output")


def norm_estimate(op):
    """Estimate the operator norm ||T|| by power iteration on T*T
    (``NORM_ITERS`` steps at most, ``NORM_RTOL`` relative change, fixed
    seed). A zero operator returns 0.
    """
    rng = np.random.default_rng(_NORM_SEED)
    v = rng.standard_normal(op.domain_dim)
    nv = op.domain.norm(v)
    if nv == 0:  # only possible for dim-0 edge cases, guarded anyway
        return 0.0
    v = v / nv
    lam = 0.0
    for k in range(NORM_ITERS):
        u = op.normal_apply(v)
        lam_new = op.domain.inner(u, v)
        nu = op.domain.norm(u)
        if nu == 0.0:
            return 0.0
        v = u / nu
        if k > 0 and abs(lam_new - lam) <= NORM_RTOL * abs(lam_new):
            lam = lam_new
            break
        lam = lam_new
    return float(np.sqrt(max(lam, 0.0)))


def _load_matrix(path):
    """The finite 2-d array in a Matrix Market (.mtx, .mtx.gz) or
    headerless CSV file; the one parser of every loader."""
    path = str(path)
    try:
        if path.endswith(".mtx") or path.endswith(".mtx.gz"):
            a = scipy.io.mmread(path)
            if hasattr(a, "toarray"):
                a = a.toarray()
        else:
            a = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except OSError:
        raise
    except Exception as exc:
        raise DataFormatError(f"{path}: cannot parse file: {exc}") from exc
    if np.iscomplexobj(a):
        raise DataFormatError(f"{path}: file has complex entries; data must be real")
    a = a.astype(float, copy=False)
    if not np.all(np.isfinite(a)):
        raise DataFormatError(f"{path}: file contains non-finite entries")
    return a


def load_vector(path):
    """Read a one-column .mtx or headerless CSV file into a float vector."""
    a = _load_matrix(path)
    if a.shape[1] != 1:
        raise DataFormatError(
            f"{path}: expected exactly one column, got shape {a.shape}"
        )
    return a[:, 0]


def load_dense_operator(path, domain=None, codomain=None):
    """Load a dense operator from a Matrix Market (.mtx) or CSV file."""
    a = _load_matrix(path)
    try:
        return DenseOperator(a, domain=domain, codomain=codomain)
    except (DimensionError, ValueError) as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def load_diagonal_operator(path, space=None):
    """Load a diagonal operator from a one-column file (see :func:`load_vector`)."""
    try:
        return DiagonalOperator(load_vector(path), space=space)
    except DimensionError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def save_dense_operator(matrix, path):
    """Write a dense matrix to .mtx, .mtx.gz or CSV with full float64 precision."""
    a = np.asarray(matrix, dtype=float)
    path = str(path)
    if path.endswith((".mtx", ".mtx.gz")):
        # a handle, because mmwrite appends ".mtx" to a path ending in ".gz"
        with (gzip.open if path.endswith(".gz") else open)(path, "wb") as fh:
            scipy.io.mmwrite(fh, a, precision=17)
    else:
        np.savetxt(path, a, delimiter=",", fmt="%.17e")


def save_vector(v, path):
    """Write a vector as one column, see :func:`save_dense_operator`."""
    save_dense_operator(np.asarray(v, dtype=float)[:, None], path)
