import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubepu.halton import (
    DEFAULT_BASES,
    HaltonConfig,
    _radical_inverse_many,
    generate,
    radical_inverse,
)


def test_radical_inverse_known_values():
    assert radical_inverse(1, 2) == 0.5
    assert radical_inverse(2, 2) == 0.25
    assert radical_inverse(3, 2) == 0.75      # 11 in base 2 -> .11
    assert radical_inverse(5, 2) == 0.625     # 101 -> .101
    assert radical_inverse(0, 7) == 0.0
    assert radical_inverse(1, 3) == 1 / 3
    assert radical_inverse(4, 3) == 1 / 3 + 1 / 9  # 11 in base 3 -> .11


@given(st.integers(0, 10 ** 9), st.integers(2, 97))
def test_radical_inverse_in_unit_interval(index, base):
    v = radical_inverse(index, base)
    assert 0.0 <= v < 1.0
    assert v == radical_inverse(index, base)


@given(st.integers(2, 13), st.integers(0, 50000), st.integers(1, 64))
@settings(max_examples=50)
def test_vectorized_matches_scalar_bitwise(base, start, count):
    idx = np.arange(start, start + count, dtype=np.int64)
    vec = _radical_inverse_many(idx, base)
    ref = np.array([radical_inverse(int(i), base) for i in idx])
    assert np.array_equal(vec, ref)


def test_generate_first_points():
    pts = generate(HaltonConfig(3))
    assert pts.shape == (3, 3)
    assert np.array_equal(pts[0], [0.5, 1 / 3, 0.2])
    assert np.array_equal(pts[1], [0.25, 2 / 3, 0.4])
    assert np.array_equal(pts[2], [0.75, 1 / 9, 0.6])


def test_generate_start_index_zero_includes_origin():
    pts = generate(HaltonConfig(2, start_index=0))
    assert np.array_equal(pts[0], [0.0, 0.0, 0.0])
    # shifting the start reindexes, it does not change the sequence
    assert np.array_equal(pts[1], generate(HaltonConfig(1, start_index=1))[0])


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
    with pytest.raises(ValueError):
        HaltonConfig(10, start_index=-2)
    # a count that is not an integer is refused, not rounded (10.5 -> 11 points)
    for bad in (10.5, 10.0, "10", None):
        with pytest.raises(ValueError, match="count"):
            HaltonConfig(bad)
    for bad in (1.5, 1.0):
        with pytest.raises(ValueError, match="start_index"):
            HaltonConfig(10, start_index=bad)
    assert generate(HaltonConfig(np.int64(10), start_index=np.int32(1))).shape == (10, 3)
    assert HaltonConfig(10).bases == DEFAULT_BASES
