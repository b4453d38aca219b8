"""Weighted inner-product spaces.

A discretized function space is represented as R^dim equipped with the
inner product <u, v> = sum_i w_i u_i v_i for positive quadrature weights
w_i. Every weighted product, of vectors or of column blocks, is
:meth:`InnerProductSpace.gram`. When every weight equals one value c, as
on a midpoint grid with weights 1/n, it is c * (u^T v): one BLAS pass and
no weighted copy; other weights give (w * u)^T v. A unit space is the case
c = 1, so unweighted problems behave bit-for-bit like plain numpy.
"""

import numbers

import numpy as np

from .exceptions import DimensionError

__all__ = ["InnerProductSpace"]


class InnerProductSpace:
    """R^dim with the weighted inner product sum(w * u * v).

    Parameters
    ----------
    dim : int
        Dimension of the space.
    weights : array_like, optional
        Positive quadrature weights of length ``dim``. ``None`` means unit
        weights (Euclidean product).
    """

    def __init__(self, dim, weights=None):
        if not isinstance(dim, numbers.Integral) or dim < 1:
            raise DimensionError(f"space dimension must be a positive int, got {dim!r}")
        self.dim = int(dim)
        if weights is None:
            w = np.ones(self.dim)
        else:
            w = np.array(weights, dtype=float)  # own copy
            if w.shape != (self.dim,):
                raise DimensionError(
                    f"weights shape {w.shape} does not match dim {self.dim}"
                )
            if not np.all(np.isfinite(w)) or np.any(w <= 0):
                raise ValueError("weights must be finite and strictly positive")
        # the weight vector, ones if the space is unweighted; frozen
        self.weights = w
        self.weights.setflags(write=False)
        # the common weight when all weights are equal, else None
        self._uniform = float(w[0]) if w.min() == w.max() else None

    def check_vector(self, v, what="vector"):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise DimensionError(
                f"{what} has shape {v.shape}, expected ({self.dim},)"
            )
        return v

    def gram(self, u, v):
        """u^T W v for vectors or column blocks (rows index the space);
        the first operand carries the weights."""
        if self._uniform is not None:
            return self._uniform * np.dot(u.T, v)
        return np.dot(self.weights * u.T, v)

    def inner(self, u, v):
        return float(self.gram(u, v))

    def norm(self, u):
        return float(np.sqrt(self.inner(u, u)))

    def __repr__(self):
        kind = "weighted" if self._uniform is None else f"weight {self._uniform:g}"
        return f"InnerProductSpace(dim={self.dim}, {kind})"
