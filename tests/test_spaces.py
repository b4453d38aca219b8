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
