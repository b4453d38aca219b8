"""Linear operators between weighted inner-product spaces.

Three backends cover the use cases of the solvers: a dense matrix, a
diagonal (multiplication) operator, and a matrix-free pair of callables.
Every backend provides ``apply`` (forward) and ``apply_adjoint``, where the
adjoint is taken with respect to the weighted inner products of the domain
and range spaces, so that <T u, v>_range = <u, T* v>_domain holds in exact
arithmetic. Each operator owns its shift solve, ``shift_solve``: inner CG
by default, overridden by a diagonal's division and a dense Cholesky.
``run_sine`` (without history) and ``run_compare`` call no inner CG: on
an operator that inherits it, they project the run onto a Golub-Kahan
bidiagonalization instead (see :mod:`sinereg.sine`). Diagnostics,
``keep_history`` runs and hand-written ``sine_step`` loops keep it.
The dense and diagonal backends compute their norm bound (``norm_bound``)
once, at construction; a matrix-free operator has none. A complex matrix,
diagonal, input vector or callable output raises ``ValueError`` instead
of being cut to its real part.

Only numpy is imported with this module. ``scipy.linalg`` is loaded by the
first ``DenseOperator`` built, for its Cholesky solve, and ``scipy.io`` by
the first Matrix Market file read or written, so diagonal and matrix-free
runs never pay for scipy.

Operators are immutable after construction and safe to share across
threads for read-only application.
"""

import gzip
import math

import numpy as np

from .exceptions import DataFormatError, DimensionError, NumericalError
from .spaces import InnerProductSpace, _as_finite

__all__ = [
    "LinearOperator",
    "DenseOperator",
    "DiagonalOperator",
    "MatrixFreeOperator",
    "load_dense_operator",
    "load_diagonal_operator",
    "load_vector",
    "save_dense_operator",
    "save_vector",
]

# Lanczos estimate of LinearOperator.norm_estimate: at most NORM_ITERS
# steps, stopping when the Ritz residual of the largest Ritz value is at
# most NORM_RTOL times it, from a start vector drawn from a fixed seed for
# reproducible estimates.
NORM_ITERS = 50
NORM_RTOL = 1e-6
_NORM_SEED = 20210828

# Relative residual tolerance of the inner CG shift solve, and its
# iteration cap per domain dimension.
RESOLVENT_TOL = 1e-13
CG_ITERS_PER_DIM = 10


class LinearOperator:
    """Base class: a linear map between two inner-product spaces.

    A subclass defines ``apply``/``apply_adjoint`` and inherits an inner-CG
    :meth:`shift_solve`. It may supply :meth:`norm_bound`, a cheap upper
    bound U >= ||T||. The breakdown test checks against it first and runs
    the Lanczos estimate of :meth:`norm_estimate` only when a mapped
    direction nears the threshold that U implies, or when there is no bound.

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
        self._norm_bound = None  # set by a backend that has a bound
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
        """Upper bound on ||T||, computed at construction, or None when the
        backend has none."""
        return self._norm_bound

    def shift_solve(self, gamma):
        """``(name, solve)`` with ``solve(v) = (I + T*T/gamma)^{-1} v``; here
        "cg", inner CG in the domain's product to relative residual
        ``RESOLVENT_TOL`` within ``CG_ITERS_PER_DIM * domain_dim`` steps,
        raising :class:`NumericalError` at a non-finite residual or at the cap."""
        space = self.domain
        max_iter = CG_ITERS_PER_DIM * space.dim

        def solve(b):
            target = RESOLVENT_TOL * space.norm(b)
            x, r, p = np.zeros_like(b), b, b.copy()
            rz = space.inner(r, r)
            for k in range(max_iter + 1):
                if not math.isfinite(rz):
                    raise NumericalError(
                        "inner resolvent solve produced a non-finite residual "
                        f"at inner iteration {k}"
                    )
                if np.sqrt(rz) <= target:
                    return x
                if k == max_iter:
                    break
                if k:
                    p = r + (rz / rz_prev) * p
                bp = p + self.normal_apply(p) / gamma
                alpha = rz / space.inner(p, bp)
                x = x + alpha * p
                r = r - alpha * bp
                rz_prev, rz = rz, space.inner(r, r)
            raise NumericalError(
                "inner resolvent solve did not reach relative tolerance "
                f"{RESOLVENT_TOL:g} within {max_iter} iterations "
                f"(achieved residual {np.sqrt(rz):.3e}, target {target:.3e})"
            )
        return "cg", solve

    def norm_estimate(self):
        """Estimate ||T|| as the root of the largest Ritz value of Lanczos on
        T*T from a seeded start, kept once its Ritz residual is at most
        ``NORM_RTOL`` times it, or after ``NORM_ITERS`` steps; cached on the
        operator. No basis is kept; a Ritz value exceeds ||T||^2 by rounding
        at most (Paige, 1980). A zero operator gives 0; a non-finite step
        raises :class:`NumericalError`."""
        if self._norm_estimate is not None:
            return self._norm_estimate
        rng = np.random.default_rng(_NORM_SEED)
        v = rng.standard_normal(self.domain_dim)
        v, v_prev, beta = v / self.domain.norm(v), 0.0, 0.0
        alphas, betas = [], []
        for k in range(1, NORM_ITERS + 1):
            u = self.normal_apply(v) - beta * v_prev
            alpha = self.domain.inner(u, v)
            u -= alpha * v
            beta = self.domain.norm(u)
            if not (np.isfinite(alpha) and np.isfinite(beta)):
                raise NumericalError(f"non-finite value at norm-estimate step {k}: "
                                     f"alpha {alpha}, beta {beta}")
            alphas.append(alpha)
            tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            vals, vecs = np.linalg.eigh(tri)
            if beta == 0.0 or beta * abs(vecs[-1, -1]) <= NORM_RTOL * vals[-1]:
                break
            betas.append(beta)
            v, v_prev = u / beta, v
        self._norm_estimate = float(np.sqrt(max(vals[-1], 0.0)))
        return self._norm_estimate

    def __repr__(self):
        return (
            f"{type(self).__name__}({self.range_dim}x{self.domain_dim})"
        )


class DenseOperator(LinearOperator):
    """Operator backed by a dense (range_dim x domain_dim) matrix.

    Under weighted spaces the adjoint is W_domain^{-1} A^T W_range, which
    keeps <T u, v>_range = <u, T* v>_domain exact up to rounding. The norm
    bound is the weighted Frobenius norm ||W_r^{1/2} A W_d^{-1/2}||_F.
    """

    def __init__(self, matrix, domain=None, codomain=None):
        import scipy.linalg  # noqa: F401  here, so that no solve pays the import

        a = _as_finite(matrix, "matrix")
        if a.ndim != 2:
            raise DimensionError(f"matrix must be 2-d, got shape {a.shape}")
        # own C-ordered copy, frozen below, starting on a 4096-byte page:
        # one-thread BLAS products with a 2000 x 1000 matrix ran 8-15 %
        # slower, and less steadily, at the offsets the allocator picks
        buf = np.empty(a.size + 512)
        start = (-buf.ctypes.data % 4096) // 8
        copy = buf[start:start + a.size].reshape(a.shape)
        copy[...] = a
        a = copy
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
        # the bound summed row by row, with no matrix-sized temporary
        row_sq = np.einsum("ij,ij,j->i", a, a, 1.0 / domain.weights)
        self._norm_bound = float(np.sqrt(row_sq @ codomain.weights))

    def apply(self, x):
        x = self.domain.check_vector(x, "input")
        return self.matrix @ x

    def apply_adjoint(self, y):
        y = self.codomain.check_vector(y, "input")
        return self.codomain.gram(y, self.matrix) / self.domain.weights

    def shift_solve(self, gamma):
        """Cholesky of M = W_d + A^T W_r A / gamma, factored once: the
        weighted map B = I + T*T/gamma has B x = v iff M x = W_d v."""
        import scipy.linalg

        m = self.codomain.gram(self.matrix, self.matrix) / gamma
        m[np.diag_indices_from(m)] += self.domain.weights
        try:
            factor = scipy.linalg.cho_factor(m)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                "Cholesky factorization of the shifted normal matrix failed "
                f"(gamma={gamma:g}); the matrix is positive definite in exact "
                f"arithmetic, so this indicates severe rounding: {exc}"
            ) from exc

        def solve(v):
            # the factor was checked once; the shift solver checks each input
            return scipy.linalg.cho_solve(factor, self.domain.weights * v,
                                          check_finite=False)
        return "cholesky", solve


class DiagonalOperator(LinearOperator):
    """Square multiplication operator x -> d * x on a single space.

    Diagonal matrices commute with the (diagonal) weight matrix, so the
    weighted adjoint coincides with the forward map: the operator is
    self-adjoint in any weighted product on its space. Its norm bound is
    max |d_i|, the exact norm in any weighted product on the space.
    """

    def __init__(self, diagonal, space=None):
        d = _as_finite(diagonal, "diagonal", copy=True)  # own copy; frozen below
        if d.ndim != 1:
            raise DimensionError(f"diagonal must be 1-d, got shape {d.shape}")
        space = space if space is not None else InnerProductSpace(d.size)
        if space.dim != d.size:
            raise DimensionError(
                f"diagonal length {d.size} does not match space dim {space.dim}"
            )
        super().__init__(space, space)
        self.diagonal = d
        self.diagonal.setflags(write=False)
        self._norm_bound = float(max(d.max(), -d.min()))

    def apply(self, x):
        x = self.domain.check_vector(x, "input")
        return self.diagonal * x

    def apply_adjoint(self, y):
        return self.apply(y)

    def shift_solve(self, gamma):
        """Componentwise division by 1 + d_i^2/gamma."""
        factors = 1.0 + self.diagonal * self.diagonal / gamma
        return "diagonal", lambda v: v / factors


class MatrixFreeOperator(LinearOperator):
    """Operator defined by caller-supplied forward/adjoint callables.

    The caller is responsible for supplying an adjoint consistent with the
    weighted inner products of the given spaces; the adjoint-consistency
    test in the suite is the contract check. Its shift solve is the
    inherited inner CG, which ``run_sine`` and ``run_compare`` replace by
    a Golub-Kahan projection, and it has no norm bound.
    """

    def __init__(self, domain, codomain, forward, adjoint):
        super().__init__(domain, codomain)
        self._forward = forward
        self._adjoint = adjoint

    def apply(self, x):
        x = self.domain.check_vector(x, "input")
        return self.codomain.check_vector(self._forward(x), "forward output")

    def apply_adjoint(self, y):
        y = self.codomain.check_vector(y, "input")
        return self.domain.check_vector(self._adjoint(y), "adjoint output")


def _load_matrix(path):
    """The finite 2-d array in a Matrix Market (.mtx, .mtx.gz) or
    headerless CSV file; the one parser of every loader."""
    path = str(path)
    try:
        if path.endswith(".mtx") or path.endswith(".mtx.gz"):
            import scipy.io

            a = scipy.io.mmread(path)
            if hasattr(a, "toarray"):
                a = a.toarray()
        else:
            a = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except OSError:
        raise
    except Exception as exc:
        raise DataFormatError(f"{path}: cannot parse file: {exc}") from exc
    try:
        return _as_finite(a, "file")
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def load_vector(path):
    """Read a one-column .mtx or headerless CSV file into a float vector."""
    a = _load_matrix(path)
    if a.shape[1] != 1:
        raise DataFormatError(
            f"{path}: expected exactly one column, got shape {a.shape}"
        )
    return a[:, 0]


def load_dense_operator(path):
    """Load a dense operator from a Matrix Market (.mtx) or CSV file."""
    a = _load_matrix(path)
    try:
        return DenseOperator(a)
    except (DimensionError, ValueError) as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def load_diagonal_operator(path):
    """Load a diagonal operator from a one-column file (see :func:`load_vector`)."""
    try:
        return DiagonalOperator(load_vector(path))
    except DimensionError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def save_dense_operator(matrix, path):
    """Write a dense matrix to .mtx, .mtx.gz or CSV with full float64
    precision; a non-finite entry, which no loader accepts, raises."""
    a = _as_finite(matrix, "matrix")
    path = str(path)
    if path.endswith((".mtx", ".mtx.gz")):
        import scipy.io

        # a handle, because mmwrite appends ".mtx" to a path ending in ".gz"
        with (gzip.open if path.endswith(".gz") else open)(path, "wb") as fh:
            scipy.io.mmwrite(fh, a, precision=17)
    else:
        np.savetxt(path, a, delimiter=",", fmt="%.17e")


def save_vector(v, path):
    """Write a vector as one column, see :func:`save_dense_operator`."""
    save_dense_operator(_as_finite(v, "vector")[:, None], path)
