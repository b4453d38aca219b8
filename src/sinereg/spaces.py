"""Weighted inner-product spaces.

A discretized function space is represented as R^dim equipped with the
inner product <u, v> = sum_i w_i u_i v_i for positive quadrature weights
w_i. With unit weights this is the Euclidean product, computed on the
identical arithmetic path, so unweighted problems behave bit-for-bit like
plain numpy.
"""

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
        if dim < 1:
            raise DimensionError(f"space dimension must be positive, got {dim}")
        self.dim = int(dim)
        if weights is None:
            self._weights = None
        else:
            w = np.array(weights, dtype=float)  # own copy
            if w.shape != (self.dim,):
                raise DimensionError(
                    f"weights shape {w.shape} does not match dim {self.dim}"
                )
            if not np.all(np.isfinite(w)) or np.any(w <= 0):
                raise ValueError("weights must be finite and strictly positive")
            self._weights = w

    @property
    def weights(self):
        """Weight vector (ones if the space is unweighted)."""
        if self._weights is None:
            return np.ones(self.dim)
        return self._weights

    @property
    def is_unit(self):
        return self._weights is None

    def check_vector(self, v, what="vector"):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise DimensionError(
                f"{what} has shape {v.shape}, expected ({self.dim},)"
            )
        return v

    def inner(self, u, v):
        if self._weights is None:
            return float(np.dot(u, v))
        return float(np.dot(self._weights * u, v))

    def norm(self, u):
        return float(np.sqrt(self.inner(u, u)))

    def __repr__(self):
        kind = "unit" if self._weights is None else "weighted"
        return f"InnerProductSpace(dim={self.dim}, {kind})"
