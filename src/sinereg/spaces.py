"""Weighted inner-product spaces.

A discretized function space is represented as R^dim equipped with the
inner product <u, v> = sum_i w_i u_i v_i for positive quadrature weights
w_i. Every weighted product, of vectors or of column blocks, is
:meth:`InnerProductSpace.gram`. When every weight equals one value c, as
on a midpoint grid with weights 1/n, it is c * (u^T v): one BLAS pass and
no weighted copy; other weights give (w * u)^T v. A unit space is the case
c = 1, so unweighted problems behave bit-for-bit like plain numpy.

Every elementwise pass that a run may split is one call of
:func:`_elementwise` or :func:`_all_finite` at any length, so only they
test it: a pass over ``_SPLIT`` entries or more runs half on a worker
thread when :func:`_second_cpu` holds, bit for bit as in one pass.
Every thread that sinereg starts is started by :func:`_beside`.
"""

import contextvars
import functools
import math
import numbers
import os
import sys

import numpy as np

from .exceptions import DimensionError

__all__ = ["InnerProductSpace"]

# The smallest power of two at which a split b - c * a measured faster, on 2
# shared vCPUs at one BLAS thread: 2**16 entries took 52-62 us in one pass
# and 64-73 us split, 2**17 took 146-160 against 112-131 (the hand-off to
# the worker costs about 40-50 us).
_SPLIT = 2**17


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


def _cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _second_cpu():
    """Whether a second thread may take a CPU of its own: the process may
    run on two or more, and the OpenBLAS bundled with numpy, and with scipy
    once it is imported, reports one thread wherever it is loaded, so no
    BLAS thread holds that CPU. Where no count can be read, no."""
    if _cpus() < 2:
        return False
    for package in ("numpy", "scipy"):  # never imports scipy
        if package in sys.modules:
            files = _openblas_files(package)
            if not files or any(_blas_threads(f) != 1 for f in files):
                return False
    return True


@functools.cache
def _openblas_files(package):
    """The OpenBLAS libraries that the wheel of the imported ``package``
    bundles, as ``bench/run.py`` finds them."""
    import glob

    module = os.path.realpath(sys.modules[package].__file__)
    libs = os.path.join(os.path.dirname(os.path.dirname(module)), f"{package}.libs")
    return tuple(glob.glob(os.path.join(libs, "lib*openblas*.so*")))


_thread_queries = {}  # library path -> its thread-count query, once found


def _blas_threads(path):
    """The thread count of the OpenBLAS at ``path``, asked through ctypes:
    1 if the process has not loaded it (it is not loaded here), None if it
    has no query."""
    query = _thread_queries.get(path)
    if query is None:
        import ctypes

        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            return 1
        names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")
        query = next((getattr(lib, n) for n in names if hasattr(lib, n)), None)
        if query is None:
            return None
        query.argtypes, query.restype = [], ctypes.c_int
        _thread_queries[path] = query
    return query()


_pool = None  # the worker: a one-thread executor, started by the first split


def _forget_worker():
    """A forked child has no worker thread; it starts its own."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):  # not on every platform
    os.register_at_fork(after_in_child=_forget_worker)


def _beside(here, there, own=False):
    """``here()`` in the caller and ``there()`` in a second thread, in the
    caller's ``contextvars`` context, where numpy keeps ``np.errstate``;
    both results once both have ended. ``there`` runs on the worker, which
    runs only pass halves, so no split waits on itself, or with ``own`` on
    a thread ended on return. ``there``'s error wins over ``here``'s, and
    an interrupt in ``here`` over both; an interrupted wait leaves nothing
    behind. Once shutdown has begun, ``there()`` then ``here()`` run here,
    as ``here`` may follow ``there`` through a ``_Gate``."""
    global _pool
    try:
        from concurrent.futures import ThreadPoolExecutor  # not at import time

        pool = ThreadPoolExecutor(1) if own else _pool
        if pool is None:  # a racing thread's extra executor ends when collected
            pool = _pool = ThreadPoolExecutor(1, thread_name_prefix="sinereg-pass")
        second = pool.submit(contextvars.copy_context().run, there)
    except RuntimeError:  # raised by the executor after shutdown has begun
        late = there()
        return here(), late
    try:
        first = here()
    except Exception:
        second.result()  # waits, and raises there's error first
        raise
    except BaseException:
        second.exception()  # waits; the interrupt wins
        raise
    finally:
        if own:
            pool.shutdown()
    return first, second.result()


def _halves(half, n):
    """``half(s)`` for the two halves s of range(n), by :func:`_beside`."""
    cut = n // 2
    return _beside(functools.partial(half, slice(0, cut)),
                   functools.partial(half, slice(cut, n)))


def _elementwise(op, b, a, c=None):
    """op(b, a), or op(b, c * a) as the step contract of ``KrylovState``
    forms it (np.multiply, then op in place), into one new float array; in
    two halves when ``a`` has at least ``_SPLIT`` entries and
    :func:`_second_cpu` holds. The step updates, the iterate update and
    error difference of ``KrylovState``, the diagonal apply and solve and
    the audit's residuals call this at every length."""
    if len(a) < _SPLIT or not _second_cpu():
        if c is None:
            return op(b, a)
        t = np.multiply(a, c, dtype=float)
        return op(b, t, out=t)
    out = np.empty(len(a))

    def half(s):
        t = out[s]
        if c is None:
            op(b[s], a[s], out=t)
        else:
            op(b[s], np.multiply(a[s], c, dtype=float, out=t), out=t)
    _halves(half, len(a))
    return out


def _all_finite(v):
    """Whether every entry of ``v`` is finite, in two halves as
    :func:`_elementwise` splits."""
    if len(v) < _SPLIT or not _second_cpu():
        return np.isfinite(v).all()
    return all(_halves(lambda s: np.isfinite(v[s]).all(), len(v)))


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
