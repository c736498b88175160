import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubepu.halton import DEFAULT_BASES, HaltonConfig, _radical_inverse_many, generate


def test_radical_inverse_known_values():
    assert np.array_equal(_radical_inverse_many([1, 2, 3, 5], 2),
                          [0.5, 0.25, 0.75, 0.625])   # 3 = 11 -> .11, 5 = 101 -> .101
    assert np.array_equal(_radical_inverse_many([0], 7), [0.0])
    # 4 = 11 in base 3 -> .11
    assert np.array_equal(_radical_inverse_many([1, 4], 3), [1 / 3, 1 / 3 + 1 / 9])


@given(st.integers(0, 10 ** 9), st.integers(2, 97))
def test_radical_inverse_in_unit_interval(index, base):
    v = _radical_inverse_many([index], base)
    assert 0.0 <= v[0] < 1.0
    assert np.array_equal(v, _radical_inverse_many([index], base))


def test_generate_first_points():
    pts = generate(HaltonConfig(3))
    assert pts.shape == (3, 3)
    assert np.array_equal(pts[0], [0.5, 1 / 3, 0.2])
    assert np.array_equal(pts[1], [0.25, 2 / 3, 0.4])
    assert np.array_equal(pts[2], [0.75, 1 / 9, 0.6])


def test_generate_points_distinct_and_in_cube():
    pts = generate(HaltonConfig(4913))
    assert pts.shape == (4913, 3)
    assert (pts >= 0.0).all() and (pts < 1.0).all()
    assert np.unique(pts, axis=0).shape[0] == 4913


def test_generate_empty():
    assert generate(HaltonConfig(0)).shape == (0, 3)


def test_equidistribution_deciles():
    # 10k points spread almost exactly evenly: each decile within 10 of 1000
    # (measured deviation is 2; iid-uniform noise would be ~30)
    pts = generate(HaltonConfig(10000))
    for c in range(3):
        counts = np.histogram(pts[:, c], bins=10, range=(0.0, 1.0))[0]
        assert np.abs(counts - 1000).max() <= 10


def test_config_validation():
    with pytest.raises(ValueError):
        HaltonConfig(-1)
    with pytest.raises(ValueError):
        HaltonConfig(10, bases=(2, 4, 5))     # gcd(2, 4) > 1
    with pytest.raises(ValueError):
        HaltonConfig(10, bases=(1, 3, 5))
    with pytest.raises(ValueError):
        HaltonConfig(10, bases=(2, 3))
    # the sequence always starts at index 1
    with pytest.raises(TypeError):
        HaltonConfig(10, start_index=0)
    # a count that is not an integer is refused, not rounded (10.5 -> 11 points)
    for bad in (10.5, 10.0, "10", None, True):
        with pytest.raises(ValueError, match="count"):
            HaltonConfig(bad)
    assert generate(HaltonConfig(np.int64(10))).shape == (10, 3)
    assert HaltonConfig(10).bases == DEFAULT_BASES
