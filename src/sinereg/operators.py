"""Linear operators between weighted inner-product spaces.

Three backends cover the use cases of the solvers: a dense matrix, a
diagonal (multiplication) operator, and a matrix-free pair of callables.
Every backend provides ``apply`` (forward) and ``apply_adjoint``, where the
adjoint is taken with respect to the weighted inner products of the domain
and range spaces, so that <T u, v>_range = <u, T* v>_domain holds in exact
arithmetic. Each operator owns its shift solve, ``shift_solve``: inner CG
by default, overridden by a diagonal's division and a dense Cholesky. The
Golub-Kahan process of projected runs (see :mod:`sinereg.sine`) lives
here, since ``norm_estimate`` runs it too for the breakdown scale. A
complex matrix, diagonal, input vector or callable output raises
``ValueError``.

Only numpy is imported with this module. ``scipy.linalg`` is loaded by the
first ``DenseOperator`` built, for its Cholesky factor and its BLAS
triangular solves, and ``scipy.io`` by the first Matrix Market file read
or written, so diagonal and matrix-free runs never pay for scipy.

Operators are immutable after construction and safe to share across
threads for read-only application; a diagonal apply and shift solve over
a long vector may run half on the worker thread of ``spaces._elementwise``.
"""

import gzip
import itertools
import math
import warnings

import numpy as np

from .exceptions import DataFormatError, DimensionError, NumericalError
from .spaces import _SPLIT, InnerProductSpace, _as_finite, _elementwise

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

# Read by LinearOperator.norm_estimate and _golub_kahan, which say how; a
# consistent adjoint's gap stays below 1e-15 of the adjoint check's scale.
NORM_ITERS = 50
NORM_RTOL = 1e-6
_NORM_SEED = 20210828
GK_ADJOINT_RTOL = 1e-8

# Relative residual tolerance of the inner CG shift solve, and its
# iteration cap per domain dimension.
RESOLVENT_TOL = 1e-13
CG_ITERS_PER_DIM = 10


class LinearOperator:
    """Base class: a linear map between two inner-product spaces.

    A subclass defines ``apply``/``apply_adjoint`` and inherits an inner-CG
    :meth:`shift_solve` and the Golub-Kahan :meth:`norm_estimate`, the
    scale of the breakdown test, which the first test of a run computes
    and caches. A subclass that knows ||T|| overrides :meth:`norm_estimate`
    to return it; the diagonal backend presets the cache at construction.

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
        self._norm_estimate = None  # preset by a backend that knows ||T||

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

    def apply_columns(self, block):
        """T on each column of a ``domain_dim x m`` array, else
        :class:`DimensionError`: one :meth:`apply` per column, so a
        matrix-free callable is checked and copied once per column, or on
        a dense operator one matrix product (BLAS-3)."""
        if block.ndim != 2 or block.shape[0] != self.domain_dim:
            raise DimensionError(
                f"block has shape {block.shape}, expected ({self.domain_dim}, m)")
        return self._apply_block(block)

    def _apply_block(self, block):
        out = np.empty((block.shape[1], self.range_dim))
        for row, column in zip(out, block.T):
            row[:] = self.apply(column)
        return out.T

    def _apply_adjoint_each(self, vectors, count):
        """The pair (v, T* v) for each of ``count`` range vectors, in order,
        lazily: one :meth:`apply_adjoint` per pair taken, so no block is held."""
        return ((v, self.apply_adjoint(v)) for v in vectors)

    def shift_solve(self, gamma):
        """``(name, solve)`` with ``solve(v) = (I + T*T/gamma)^{-1} v``; here
        "cg", inner CG in the domain's product to relative residual
        ``RESOLVENT_TOL`` within ``CG_ITERS_PER_DIM * domain_dim`` steps,
        raising :class:`NumericalError` at a non-finite residual or at the cap."""
        space = self.domain
        max_iter = CG_ITERS_PER_DIM * space.dim

        def solve(b):
            target = RESOLVENT_TOL * space.norm(b)
            x, r, p = np.zeros_like(b), b, b
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
        """Estimate ||T|| by the largest singular value sigma of the
        bidiagonal B_k of :func:`_golub_kahan` from a seeded start in the
        range space, once the Ritz residual alpha_{k+1} beta_{k+1} |y_k| of
        sigma^2, with y its eigenvector of B_k^T B_k, is at most
        ``NORM_RTOL`` sigma^2, or at k = ``NORM_ITERS``; cached. sigma^2 is
        a Ritz value of T*T, so it tops ||T||^2 by rounding at most (Paige,
        1980). A zero operator gives 0."""
        if self._norm_estimate is not None:
            return self._norm_estimate
        alphas, betas, sigma_sq = [], [], 0.0
        rng = np.random.default_rng(_NORM_SEED)
        for beta, alpha, _ in _golub_kahan(self, rng.standard_normal(self.range_dim)):
            if alphas:  # beta completes B_k, k = len(alphas)
                betas.append(beta)
                b = (np.diag(alphas + [0.0]) + np.diag(betas, -1))[:, :-1]
                vals, vecs = np.linalg.eigh(b.T @ b)  # Lanczos's tridiagonal
                sigma_sq, residual = vals[-1], alpha * beta * abs(vecs[-1, -1])
                if residual <= NORM_RTOL * sigma_sq or len(alphas) == NORM_ITERS:
                    break
            alphas.append(alpha)
        self._norm_estimate = float(np.sqrt(max(sigma_sq, 0.0)))
        return self._norm_estimate

    def __repr__(self):
        return (
            f"{type(self).__name__}({self.range_dim}x{self.domain_dim})"
        )


def _golub_kahan(op, b):
    """Golub-Kahan bidiagonalization T V = U B from u_1 = b/||b|| in the
    weighted products, keeping no basis. Item i is (beta_i, alpha_i, v_i),
    made by one forward apply (none for i = 1) and one adjoint apply. A
    zero coefficient ends it: the Krylov space is exhausted, and the last
    item has alpha_i = 0 and v_i = 0. A non-finite coefficient raises
    :class:`NumericalError` naming the step, and so does an adjoint that is
    not the forward map's: with T* u_i from step i and T v_i from step
    i + 1, <T v_i, u_i> must equal <v_i, T* u_i> to ``GK_ADJOINT_RTOL``
    times the largest coefficient of T so far, checked at step i + 1."""
    dom, cod = op.domain, op.codomain

    def finite(value, name, i):
        if not np.isfinite(value):
            raise NumericalError(
                f"non-finite {name} {value} at Golub-Kahan step {i}")
        return value

    u, v, alpha, scale = b, np.zeros(dom.dim), 0.0, 0.0
    for i in itertools.count(1):
        if i > 1:
            tv = op.apply(v)
            product = finite(cod.inner(tv, u), "<T v, u>", i)
            if abs(product - adjoint_product) > GK_ADJOINT_RTOL * scale:
                raise NumericalError(
                    f"the adjoint is inconsistent with the forward map: "
                    f"<T v, u> = {product:.6e} but <v, T* u> = "
                    f"{adjoint_product:.6e} at Golub-Kahan step {i}")
            u = tv - alpha * u
        beta, alpha = finite(cod.norm(u), "beta", i), 0.0
        if beta != 0.0:
            u = u / beta
            tu = op.apply_adjoint(u)
            v = tu - beta * v
            alpha = finite(dom.norm(v), "alpha", i)
        if alpha == 0.0:
            yield beta, 0.0, np.zeros(dom.dim)
            return
        v = v / alpha
        adjoint_product = dom.inner(v, tu)
        # beta_1 = ||b|| is a norm of the data, not a coefficient of T
        scale = max(scale, alpha, beta if i > 1 else 0.0)
        del tu
        yield beta, alpha, v


class DenseOperator(LinearOperator):
    """Operator backed by a dense (range_dim x domain_dim) matrix.

    Under weighted spaces the adjoint is W_domain^{-1} A^T W_range, which
    keeps <T u, v>_range = <u, T* v>_domain exact up to rounding.
    """

    def __init__(self, matrix, domain=None, codomain=None):
        import scipy.linalg  # noqa: F401  here, so that no solve pays the import

        a = _as_finite(matrix, "matrix", ndim=2)
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

    def apply(self, x):
        x = self.domain.check_vector(x, "input")
        return self.matrix @ x

    def apply_adjoint(self, y):
        y = self.codomain.check_vector(y, "input")
        return self.codomain.gram(y, self.matrix) / self.domain.weights

    def _apply_block(self, block):
        return self.matrix @ block

    def _apply_adjoint_each(self, vectors, count):
        # one product (BLAS-3) over a block of copies; each pair holds its row
        block = np.empty((count, self.range_dim))
        for row, v in zip(block, vectors):
            row[:] = self.codomain.check_vector(v, "input")
        return zip(block, self.codomain.gram(block.T, self.matrix) / self.domain.weights)

    def shift_solve(self, gamma):
        """Cholesky M = U^T U of M = W_d + A^T W_r A / gamma, factored
        once and in place: M is symmetric, so its transpose is M in
        Fortran order, which LAPACK overwrites without the copy f2py makes
        of a C-ordered array. The weighted map B = I + T*T/gamma has
        B x = v iff M x = W_d v. Each solve is two BLAS-2 triangular solves
        (``dtrsv``), U^T z = W_d v and U x = z, on that Fortran-ordered
        factor, which f2py passes without a copy; one right-hand side
        through LAPACK ``potrs`` (``cho_solve``) took 2.5-3.5 times as long
        at n = 1000. Under unequal range weights, A^T W_r A / gamma is
        summed over row blocks of sqrt(W_r) A of at most n^2/8 doubles
        (2^14 for a small n) by BLAS ``syrk`` into the upper triangle of
        M's Fortran-ordered transpose, so no weighted copy of A is formed.
        A non-finite M (an overflow at a tiny gamma) raises
        :class:`NumericalError`."""
        import scipy.linalg

        a, w = self.matrix, self.codomain.weights
        if self.codomain._uniform is not None:
            with np.errstate(over="ignore"):
                m = self.codomain.gram(a, a) / gamma
        else:
            n = a.shape[1]
            step = max(1, max(n * n // 8, 2**14) // n)
            mt = np.zeros((n, n), order="F")
            for i in range(0, a.shape[0], step):
                block = np.sqrt(w[i:i + step])[:, None] * a[i:i + step]
                scipy.linalg.blas.dsyrk(1.0 / gamma, block.T, beta=1.0, c=mt,
                                        overwrite_c=1)
                del block  # before the next one is formed
            m = mt.T
        m[np.diag_indices_from(m)] += self.domain.weights
        if not np.isfinite(m).all():
            raise NumericalError(
                "the shifted normal matrix W_d + A^T W_r A / gamma has "
                f"non-finite entries (gamma={gamma:g})")
        try:
            u, _ = scipy.linalg.cho_factor(m.T, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                "Cholesky factorization of the shifted normal matrix failed "
                f"(gamma={gamma:g}); the matrix is positive definite in exact "
                f"arithmetic, so this indicates severe rounding: {exc}"
            ) from exc
        trsv = scipy.linalg.blas.dtrsv

        def solve(v):
            # the factor was checked once; the shift solver checks each
            # input. Both solves overwrite the fresh product W_d v.
            z = trsv(u, self.domain.weights * v, trans=1, overwrite_x=1)
            return trsv(u, z, overwrite_x=1)
        return "cholesky", solve


class DiagonalOperator(LinearOperator):
    """Square multiplication operator x -> d * x on a single space.

    Diagonal matrices commute with the (diagonal) weight matrix, so the
    weighted adjoint coincides with the forward map: the operator is
    self-adjoint in any weighted product on its space, and its norm is
    max |d_i| in any of them: :meth:`norm_estimate` returns that, cached
    at construction.
    """

    def __init__(self, diagonal, space=None):
        d = _as_finite(diagonal, "diagonal", copy=True, ndim=1)  # own frozen copy
        space = space if space is not None else InnerProductSpace(d.size)
        if space.dim != d.size:
            raise DimensionError(
                f"diagonal length {d.size} does not match space dim {space.dim}"
            )
        super().__init__(space, space)
        self.diagonal = d
        self._norm_estimate = float(max(d.max(), -d.min()))

    def apply(self, x):
        x = self.domain.check_vector(x, "input")
        if len(x) < _SPLIT:  # a longer pass may split in two
            return self.diagonal * x
        return _elementwise(np.multiply, self.diagonal, x)

    def apply_adjoint(self, y):
        return self.apply(y)

    def shift_solve(self, gamma):
        """Componentwise division by 1 + d_i^2/gamma. The largest factor
        is 1 + ||T||^2/gamma, rounded alike, so one scalar test tells
        whether a factor overflows (at a tiny gamma), which raises
        :class:`NumericalError`."""
        top = self.norm_estimate()
        if not math.isfinite(1.0 + top * top / gamma):
            raise NumericalError(
                f"the shift factors 1 + d_i^2 / gamma overflow (gamma={gamma:g})")
        factors = 1.0 + self.diagonal * self.diagonal / gamma
        if len(factors) < _SPLIT:
            return "diagonal", lambda v: v / factors
        return "diagonal", lambda v: _elementwise(np.divide, v, factors)


class MatrixFreeOperator(LinearOperator):
    """Operator defined by caller-supplied forward/adjoint callables.

    The adjoint must be consistent with the weighted inner products of the
    given spaces: the Golub-Kahan process, of a projected run (see
    :mod:`sinereg.sine`) or of :meth:`norm_estimate`, raises
    :class:`NumericalError` at the first step that breaks this by more
    than rounding.
    Each output is checked and copied once, so a callable may reuse one
    output buffer. Its input is the library's own vector: a write into it
    fails the adjoint check, or raises on the problem's read-only data.
    """

    def __init__(self, domain, codomain, forward, adjoint):
        super().__init__(domain, codomain)
        self._forward = forward
        self._adjoint = adjoint

    def apply(self, x):
        x = self.domain.check_vector(x, "input")
        return self.codomain.check_vector(self._forward(x), "forward output").copy()

    def apply_adjoint(self, y):
        y = self.codomain.check_vector(y, "input")
        return self.domain.check_vector(self._adjoint(y), "adjoint output").copy()


def _load_matrix(path):
    """The finite, non-empty 2-d array in a Matrix Market (.mtx, .mtx.gz)
    or headerless CSV file, else :class:`DataFormatError` naming it; the
    one parser of every loader."""
    path = str(path)
    try:
        if path.endswith(".mtx") or path.endswith(".mtx.gz"):
            import scipy.io

            # the header's shape first: a zero-row array file ends the
            # interpreter inside mmread, by an integer division by zero
            shape = scipy.io.mminfo(path)[:2]
            a = scipy.io.mmread(path) if min(shape) else np.empty(shape)
            if hasattr(a, "toarray"):
                a = a.toarray()
        else:
            with warnings.catch_warnings():  # the size check below reports it
                warnings.simplefilter("ignore", UserWarning)
                a = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except OSError:
        raise
    except Exception as exc:
        raise DataFormatError(f"{path}: cannot parse file: {exc}") from exc
    if a.size == 0:
        raise DataFormatError(f"{path}: file has no entries")
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
    return DenseOperator(_load_matrix(path))


def load_diagonal_operator(path):
    """Load a diagonal operator from a one-column file (see :func:`load_vector`)."""
    return DiagonalOperator(load_vector(path))


def _savable(a, what, ndim):
    """:func:`_as_finite` of ``a``, which must have an entry, as loaders do."""
    a = _as_finite(a, what, ndim=ndim)
    if not a.size:
        raise ValueError(f"{what} has no entries")
    return a


def save_dense_operator(matrix, path):
    """Write a dense matrix to .mtx, .mtx.gz or CSV with full float64
    precision. A non-finite entry or an empty array, which no loader
    accepts, or an array that is not 2-d raises before the file is opened."""
    a = _savable(matrix, "matrix", 2)
    path = str(path)
    if path.endswith((".mtx", ".mtx.gz")):
        import scipy.io

        # a handle, because mmwrite appends ".mtx" to a path ending in ".gz"
        with (gzip.open if path.endswith(".gz") else open)(path, "wb") as fh:
            scipy.io.mmwrite(fh, a, precision=17)
    else:
        np.savetxt(path, a, delimiter=",", fmt="%.17e")


def save_vector(v, path):
    """Write a 1-d vector as one column, see :func:`save_dense_operator`."""
    save_dense_operator(_savable(v, "vector", 1)[:, None], path)
