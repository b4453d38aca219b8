"""Test-problem construction: the multiplication-operator benchmark,
seeded random dense problems with prescribed singular-value decay,
calibrated noise injection, and file-based problem loading."""

import copy
from dataclasses import dataclass

import numpy as np

from .exceptions import DataFormatError, DimensionError
from .operators import (
    DiagonalOperator,
    LinearOperator,
    DenseOperator,
    load_dense_operator,
    load_diagonal_operator,
    load_vector,
)
from .spaces import InnerProductSpace, _as_finite, _count, _real

__all__ = [
    "Problem",
    "multiplication_problem",
    "random_problem",
    "add_noise",
    "load_problem",
]


@dataclass(frozen=True)
class Problem:
    """A frozen inverse problem instance: operator, noisy data, noise level.

    ``truth`` is the exact solution when known. It and ``y_delta`` are the
    problem's own read-only copies, which every run shares.
    """

    operator: LinearOperator
    y_delta: np.ndarray
    delta: float
    truth: np.ndarray | None = None

    def __post_init__(self):
        # with _without_truth's, these are the only writes to a frozen field
        set_field = object.__setattr__
        set_field(self, "delta", _real(self.delta, "noise level", strict=False))
        y = self.operator.codomain.check_vector(self.y_delta, "data")
        set_field(self, "y_delta", _as_finite(y, "data vector", copy=True))
        if self.truth is not None:
            x = self.operator.domain.check_vector(self.truth, "truth")
            set_field(self, "truth", _as_finite(x, "truth vector", copy=True))

    def _without_truth(self):
        """This problem without its truth, sharing its frozen data vector."""
        problem = copy.copy(self)
        object.__setattr__(problem, "truth", None)
        return problem

    @property
    def domain_space(self):
        return self.operator.domain

    @property
    def range_space(self):
        return self.operator.codomain

    def residual(self, x):
        """y_delta - T x, recomputed from scratch (audit path)."""
        return self.y_delta - self.operator.apply(x)

    def residual_norm(self, x):
        return self.range_space.norm(self.residual(x))

    def error_norm(self, x):
        if self.truth is None:
            raise ValueError("problem has no ground truth")
        return self.domain_space.norm(x - self.truth)


def multiplication_problem(n, truth_exponent, delta):
    """Benchmark problem: multiplication by t on (0, 1), discretized.

    Midpoint grid t_i = (i - 1/2)/n with quadrature weights 1/n, so vector
    norms approximate L2(0,1) norms to second order and the operator is
    exactly diagonal. The truth is t^truth_exponent, the exact data is
    t^(truth_exponent+1), and the noisy data adds the constant delta, whose
    weighted norm is exactly delta.

    The truth lies in the source set with exponent mu = truth_exponent / 2
    and radius 1.
    """
    n = _count(n, "grid size", low=2, error=DimensionError)
    truth_exponent = _real(truth_exponent, "truth exponent")
    delta = _real(delta, "noise level", strict=False)
    t = (np.arange(1, n + 1) - 0.5) / n
    space = InnerProductSpace(n, weights=np.full(n, 1.0 / n))
    op = DiagonalOperator(t, space)
    truth = t**truth_exponent
    y_delta = t * truth + delta
    return Problem(operator=op, y_delta=y_delta, delta=delta, truth=truth)


def random_problem(rows, cols, decay="geometric", rate=0.5, seed=0, delta=0.0,
                   noise_mode="random-direction"):
    """Seeded dense problem with prescribed singular-value decay.

    ``decay`` is "geometric" (singular values rate**k, k = 0..cols-1) or
    "algebraic" ((k+1)**-rate). The operator is U diag(s) V^T with U, V
    drawn orthonormal from the seed; the truth is a random unit vector and
    the data is exact unless ``delta > 0``, in which case noise of exact
    weighted norm delta is added in the given mode. Identical seeds yield
    bit-identical problems.
    """
    cols = _count(cols, "cols", error=DimensionError)
    rows = _count(rows, "rows", low=cols, error=DimensionError)
    rate = _real(rate, "decay rate")
    delta = _real(delta, "noise level", strict=False)
    seed = _count(seed, "seed", low=0)
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    if decay == "geometric":
        s = rate ** np.arange(cols)
    elif decay == "algebraic":
        s = (np.arange(cols) + 1.0) ** -rate
    else:
        raise ValueError(f"unknown decay profile {decay!r}")
    a = u @ (s[:, None] * v.T)
    op = DenseOperator(a)
    truth = rng.standard_normal(cols)
    truth = truth / np.linalg.norm(truth)
    y_delta = add_noise(a @ truth, delta, noise_mode, seed=seed, space=op.codomain)
    return Problem(operator=op, y_delta=y_delta, delta=delta, truth=truth)


def add_noise(y, delta, mode, seed=0, space=None):
    """Perturb ``y`` by noise of exact weighted norm ``delta``.

    "constant" adds the same shift to every entry, calibrated so the
    weighted norm of the perturbation is delta; "random-direction" adds a
    seeded Gaussian vector rescaled to weighted norm delta. Another mode
    raises ValueError, also at delta = 0, where no noise is drawn.
    """
    delta = _real(delta, "noise level", strict=False)
    seed = _count(seed, "seed", low=0)
    if space is None:
        space = InnerProductSpace(np.size(y))
    y = space.check_vector(y, "data")
    if mode not in ("constant", "random-direction"):
        raise ValueError(f"unknown noise mode {mode!r}")
    if delta == 0:
        return y.copy()
    if mode == "constant":
        ones_norm = space.norm(np.ones(space.dim))
        return y + delta / ones_norm
    g = np.random.default_rng(seed).standard_normal(space.dim)
    return y + g * (delta / space.norm(g))


def load_problem(operator_path, data_path, delta, operator_kind="dense"):
    """Assemble a Problem of noise level ``delta`` from an operator file,
    read as ``operator_kind`` "dense" or "diagonal", and a data file.
    Dimensions and finiteness are validated with the offending file named
    in the error.
    """
    loaders = {"dense": load_dense_operator, "diagonal": load_diagonal_operator}
    if operator_kind not in loaders:
        raise DataFormatError(f"unknown operator_kind {operator_kind!r}")
    op = loaders[operator_kind](operator_path)
    y = load_vector(data_path)
    if y.size != op.range_dim:
        raise DimensionError(
            f"data vector {data_path} has length {y.size}, but operator "
            f"{operator_path} has range dimension {op.range_dim}"
        )
    return Problem(operator=op, y_delta=y, delta=delta)
