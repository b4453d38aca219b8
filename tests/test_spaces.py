import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sinereg import DimensionError, InnerProductSpace, KrylovBasis


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


def test_uniform_basis_gram_allocates_no_weighted_copy():
    n, m = 10**5, 3
    v = np.random.default_rng(4).standard_normal((n, m))
    uniform = KrylovBasis(v, InnerProductSpace(n, weights=np.full(n, 1.0 / n)))
    weighted = KrylovBasis(v, InnerProductSpace(n, weights=np.linspace(1.0, 2.0, n)))
    uniform.gram()  # warm-up outside the traced call
    assert peak_bytes(weighted.gram) >= 8 * n * m  # the n x m weighted copy
    assert peak_bytes(uniform.gram) < 8 * n // 10


@pytest.mark.parametrize("weights", [None, np.full(30, 0.3), "random"])
def test_gram_of_column_blocks_equals_inner_entry_by_entry(weights):
    rng = np.random.default_rng(5)
    if isinstance(weights, str):
        weights = rng.uniform(0.1, 3.0, 30)
    space = InnerProductSpace(30, weights=weights)
    u = rng.standard_normal((30, 4))
    v = rng.standard_normal((30, 5))
    g = space.gram(u, v)
    assert g.shape == (4, 5)
    for i in range(4):
        assert space.gram(u[:, i], v[:, 0]) == space.inner(u[:, i], v[:, 0])
        for j in range(5):
            scale = space.norm(u[:, i]) * space.norm(v[:, j])
            assert abs(g[i, j] - space.inner(u[:, i], v[:, j])) <= 1e-14 * scale


@pytest.mark.parametrize("dim", [2.5, 2.0, np.float64(3.0), "3", None, 0, -2])
def test_dimension_must_be_a_positive_integer(dim):
    with pytest.raises(DimensionError, match="dimension"):
        InnerProductSpace(dim)
    for ok in (3, np.int64(3), np.int32(3)):
        assert type(InnerProductSpace(ok).dim) is int


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
