"""Weighted inner-product spaces.

A discretized function space is represented as R^dim equipped with the
inner product <u, v> = sum_i w_i u_i v_i for positive quadrature weights
w_i. Every weighted product, of vectors or of column blocks, is
:meth:`InnerProductSpace.gram`. When every weight equals one value c, as
on a midpoint grid with weights 1/n, it is c * (u^T v): one BLAS pass and
no weighted copy; other weights give (w * u)^T v. A unit space is the case
c = 1, so unweighted problems behave bit-for-bit like plain numpy.
"""

import functools
import math
import numbers

import numpy as np

from .exceptions import DimensionError

__all__ = ["InnerProductSpace"]


def _as_real(a, what, copy=False):
    """``a`` as a float array, copied if it is not one, and as an own
    frozen copy if ``copy``; complex entries raise ValueError naming
    ``what``."""
    a = np.array(a) if copy else np.asarray(a)
    if a.dtype != np.float64:
        if a.dtype.kind == "c":
            raise ValueError(f"{what} has complex entries; data must be real")
        a = a.astype(float)
    if copy:
        a.setflags(write=False)
    return a


def _as_finite(a, what, copy=False, ndim=None):
    """:func:`_as_real` of ``a``, whose entries must all be finite; else
    ValueError naming ``what``. Given ``ndim``, another number of
    dimensions raises :class:`DimensionError` naming the shape."""
    a = _as_real(a, what, copy)
    if not np.isfinite(a).all():
        raise ValueError(f"{what} contains non-finite entries")
    if ndim is not None and a.ndim != ndim:
        raise DimensionError(f"{what} must be {ndim}-d, got shape {a.shape}")
    return a


def _is_bool(value):
    """Whether ``value`` is a Python or numpy bool, which is no number here
    although Python counts it as one."""
    return isinstance(value, (bool, np.bool_))


def _real(value, name, low=0, strict=True):
    """``value`` as a float if it is a finite number above ``low`` (at
    least ``low`` unless ``strict``); else ValueError naming ``name``. A
    bool is no number."""
    try:
        ok = not _is_bool(value) and math.isfinite(value) and (
            value > low if strict else value >= low)
    except TypeError:  # not a real number at all
        ok = False
    if not ok:
        if low == 0:
            need = "positive" if strict else "nonnegative"
        else:
            need = f"strictly greater than {low}" if strict else f"at least {low}"
        raise ValueError(f"{name} must be finite and {need}, got {value}")
    return float(value)


def _count(value, name, low=1, error=ValueError):
    """``value`` as an int if it is an integer of at least ``low``; else
    ``error`` naming ``name``. A bool or an integral float is no count."""
    if _is_bool(value) or not isinstance(value, numbers.Integral) or value < low:
        need = "a positive integer" if low == 1 else f"an integer of at least {low}"
        raise error(f"{name} must be {need}, got {value!r}")
    return int(value)


class InnerProductSpace:
    """R^dim with the weighted inner product sum(w * u * v).

    Parameters
    ----------
    dim : int
        Dimension of the space.
    weights : array_like, optional
        Positive quadrature weights of length ``dim``. ``None`` means unit
        weights (Euclidean product). A space keeps its own frozen copy,
        or, when they all equal one value, only that value.
    """

    def __init__(self, dim, weights=None):
        self.dim = _count(dim, "space dimension", error=DimensionError)
        self._uniform = 1.0  # the common weight when all are equal, else None
        if weights is not None:
            w = _as_finite(weights, "weights")
            if w.shape != (self.dim,):
                raise DimensionError(
                    f"weights shape {w.shape} does not match dim {self.dim}"
                )
            if np.any(w <= 0):
                raise ValueError("weights must be strictly positive")
            self._uniform = float(w[0]) if w.min() == w.max() else None
            if self._uniform is None:
                self.weights = _as_real(w, "weights", copy=True)

    @functools.cached_property
    def weights(self):
        """The frozen weight vector; a uniform space forms it when read."""
        w = np.full(self.dim, self._uniform)
        w.setflags(write=False)
        return w

    def check_vector(self, v, what="vector"):
        """``v`` as a real vector of the space, not copied if it is one."""
        v = _as_real(v, what)
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
