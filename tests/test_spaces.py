import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sinereg import DimensionError, InnerProductSpace


def test_unit_weights_match_euclidean_bit_for_bit():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(37)
    v = rng.standard_normal(37)
    space = InnerProductSpace(37)
    explicit = InnerProductSpace(37, weights=np.ones(37))
    assert space.inner(u, v) == float(np.dot(u, v))
    assert explicit.inner(u, v) == float(np.dot(u, v))
    assert space.norm(u) == float(np.sqrt(np.dot(u, u)))


def test_weighted_inner_product_formula():
    w = np.array([0.5, 2.0, 1.5])
    space = InnerProductSpace(3, weights=w)
    u = np.array([1.0, -1.0, 2.0])
    v = np.array([3.0, 1.0, 0.5])
    assert space.inner(u, v) == pytest.approx(np.sum(w * u * v), rel=1e-15)


@pytest.mark.parametrize("c", [1.0 / 1000, 1.0 / 4096, 0.3, 7.0])
def test_uniform_weights_scale_one_dot(c):
    rng = np.random.default_rng(1)
    u = rng.standard_normal(50)
    v = rng.standard_normal(50)
    space = InnerProductSpace(50, weights=np.full(50, c))
    assert space.inner(u, v) == c * float(np.dot(u, v))
    assert space.norm(u) == float(np.sqrt(c * float(np.dot(u, u))))


def test_non_uniform_weights_keep_weighted_dot_bit_for_bit():
    rng = np.random.default_rng(2)
    near_uniform = np.r_[np.full(49, 0.5), np.nextafter(0.5, 1.0)]
    for w in (rng.uniform(0.1, 3.0, 50), near_uniform):
        space = InnerProductSpace(50, weights=w)
        u = rng.standard_normal(50)
        v = rng.standard_normal(50)
        assert space.inner(u, v) == float(np.dot(w * u, v))


def peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_uniform_inner_allocates_no_vector_temporary():
    n = 10**5
    u = np.random.default_rng(3).standard_normal(n)
    uniform = InnerProductSpace(n, weights=np.full(n, 1.0 / n))
    weighted = InnerProductSpace(n, weights=np.linspace(1.0, 2.0, n))
    uniform.inner(u, u)  # warm-up outside the traced call
    assert peak_bytes(weighted.inner, u, u) >= 8 * n  # numpy is traced
    assert peak_bytes(uniform.inner, u, u) < 8 * n // 10
    assert peak_bytes(uniform.norm, u) < 8 * n // 10


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**32 - 1))
def test_inner_product_symmetry_and_positivity(dim, seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 3.0, dim)
    space = InnerProductSpace(dim, weights=w)
    u = rng.standard_normal(dim)
    v = rng.standard_normal(dim)
    assert space.inner(u, v) == pytest.approx(space.inner(v, u), rel=1e-12, abs=1e-13)
    if np.any(u != 0):
        assert space.inner(u, u) > 0


def test_validation_errors():
    with pytest.raises(DimensionError):
        InnerProductSpace(0)
    with pytest.raises(DimensionError):
        InnerProductSpace(3, weights=np.ones(4))
    with pytest.raises(ValueError):
        InnerProductSpace(3, weights=np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        InnerProductSpace(2, weights=np.array([1.0, np.inf]))
    space = InnerProductSpace(3)
    with pytest.raises(DimensionError):
        space.check_vector(np.ones(4))
