"""Test-problem construction: the multiplication-operator benchmark,
seeded random dense problems with prescribed singular-value decay,
calibrated noise injection, and file-based problem loading."""

import math
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
    save_vector,
)
from .spaces import InnerProductSpace

__all__ = [
    "Problem",
    "multiplication_problem",
    "random_problem",
    "add_noise",
    "load_problem",
    "load_vector",
    "save_vector",
]


def _check_delta(delta):
    """Reject a noise level that is not a finite nonnegative number."""
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"noise level must be finite and nonnegative, got {delta}")


@dataclass
class Problem:
    """An inverse problem instance: operator, noisy data, noise level.

    ``truth`` is the exact solution when known.
    """

    operator: LinearOperator
    y_delta: np.ndarray
    delta: float
    truth: np.ndarray | None = None

    def __post_init__(self):
        _check_delta(self.delta)
        # copies keep the instance immune to later mutation of caller arrays
        self.y_delta = self.operator.codomain.check_vector(
            self.y_delta, "data"
        ).copy()
        if not np.all(np.isfinite(self.y_delta)):
            raise ValueError("data vector contains non-finite entries")
        if self.truth is not None:
            self.truth = self.operator.domain.check_vector(self.truth, "truth").copy()

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
    if n < 2:
        raise DimensionError(f"grid size must be at least 2, got {n}")
    if not (math.isfinite(truth_exponent) and truth_exponent > 0):
        raise ValueError(
            f"truth exponent must be finite and positive, got {truth_exponent}"
        )
    t = (np.arange(1, n + 1) - 0.5) / n
    space = InnerProductSpace(n, weights=np.full(n, 1.0 / n))
    op = DiagonalOperator(t, space)
    truth = t**truth_exponent
    y_delta = t * truth + delta
    return Problem(operator=op, y_delta=y_delta, delta=float(delta), truth=truth)


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
    if cols < 1 or rows < cols:
        raise DimensionError(
            f"need rows >= cols >= 1, got rows={rows}, cols={cols}"
        )
    if not (math.isfinite(rate) and rate > 0):
        raise ValueError(f"decay rate must be finite and positive, got {rate}")
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    if decay == "geometric":
        s = float(rate) ** np.arange(cols)
    elif decay == "algebraic":
        s = (np.arange(cols) + 1.0) ** (-float(rate))
    else:
        raise ValueError(f"unknown decay profile {decay!r}")
    a = u @ (s[:, None] * v.T)
    op = DenseOperator(a)
    truth = rng.standard_normal(cols)
    truth = truth / np.linalg.norm(truth)
    y = a @ truth
    if delta > 0:
        y_delta = add_noise(y, delta, noise_mode, seed=seed, space=op.codomain)
    else:
        y_delta = y
    return Problem(operator=op, y_delta=y_delta, delta=float(delta), truth=truth)


def add_noise(y, delta, mode, seed=0, space=None):
    """Perturb ``y`` by noise of exact weighted norm ``delta``.

    "constant" adds the same shift to every entry, calibrated so the
    weighted norm of the perturbation is delta; "random-direction" adds a
    seeded Gaussian vector rescaled to weighted norm delta.
    """
    y = np.asarray(y, dtype=float)
    _check_delta(delta)
    if space is None:
        space = InnerProductSpace(y.size)
    y = space.check_vector(y, "data")
    if delta == 0:
        return y.copy()
    if mode == "constant":
        ones_norm = space.norm(np.ones(space.dim))
        return y + delta / ones_norm
    if mode == "random-direction":
        g = np.random.default_rng(seed).standard_normal(space.dim)
        return y + g * (delta / space.norm(g))
    raise ValueError(f"unknown noise mode {mode!r}")


def load_problem(operator_path, data_path, config):
    """Assemble a Problem from an operator file and a data file.

    ``config`` keys: "delta" (required, >= 0), "operator_kind" ("dense",
    the default, or "diagonal"). Dimensions and finiteness are validated
    with the offending file named in the error.
    """
    kind = config.get("operator_kind", "dense")
    if kind == "diagonal":
        op = load_diagonal_operator(operator_path)
    elif kind == "dense":
        op = load_dense_operator(operator_path)
    else:
        raise DataFormatError(f"unknown operator_kind {kind!r}")
    y = load_vector(data_path)
    if y.size != op.range_dim:
        raise DimensionError(
            f"data vector {data_path} has length {y.size}, but operator "
            f"{operator_path} has range dimension {op.range_dim}"
        )
    if config.get("delta") is None:
        raise DataFormatError("problem config is missing the required key 'delta'")
    delta = float(config["delta"])
    return Problem(operator=op, y_delta=y, delta=delta)
