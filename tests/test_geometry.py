import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cubepu.errors import OutOfDomainError
from cubepu.geometry import as_point_array, ensure_in_unit_cube, squared_distances

coord = st.floats(0.0, 1.0, allow_subnormal=False)
point = st.tuples(coord, coord, coord)


def _inside(p):
    try:
        ensure_in_unit_cube(as_point_array(p))
    except OutOfDomainError:
        return False
    return True


def test_contains():
    assert _inside((0.5, 0.5, 0.5))
    assert _inside((0.0, 0.0, 0.0))   # boundary is inside
    assert _inside((1.0, 1.0, 1.0))
    assert _inside((1.0, 0.5, 0.0))
    assert not _inside((1.0 + 1e-9, 0.5, 0.5))
    assert not _inside((-0.1, 0.5, 0.5))


@given(point)
def test_contains_closed_cube(p):
    assert _inside(p)


def test_as_point_array_shapes():
    assert as_point_array([(0, 0, 0), (1, 1, 1)]).shape == (2, 3)
    assert as_point_array((0.1, 0.2, 0.3)).shape == (1, 3)
    assert as_point_array([]).shape == (0, 3)
    with pytest.raises(ValueError):
        as_point_array([(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        as_point_array(np.zeros((2, 4)))


def test_ensure_in_unit_cube_accepts_boundary():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.5, 0.0, 1.0]])
    assert ensure_in_unit_cube(pts) is pts


def test_ensure_in_unit_cube_names_offender():
    pts = np.array([[0.5, 0.5, 0.5], [0.2, 0.2, 0.2], [0.5, 1.5, 0.5]])
    with pytest.raises(OutOfDomainError, match="point 2"):
        ensure_in_unit_cube(pts)
    with pytest.raises(OutOfDomainError, match="node 0"):
        ensure_in_unit_cube(np.array([[np.nan, 0.5, 0.5]]), "node")
    with pytest.raises(OutOfDomainError):
        ensure_in_unit_cube(np.array([[0.5, 0.5, np.inf]]))
    with pytest.raises(OutOfDomainError):
        ensure_in_unit_cube(np.array([[0.5, 0.5, -1e-12]]))


_coords = st.one_of(st.floats(0.0, 1.0, allow_subnormal=False),
                    st.floats(-1e3, 1e3, allow_subnormal=False),
                    st.sampled_from([0.0, 0.25, 1 / 3, 1.0]))


def _same(got, a, b):
    diff = a - b
    want = (diff * diff).sum(axis=-1)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6), st.integers(0, 9), st.data())
def test_squared_distances_bitwise_equal_to_sum(k, c, data):
    # the shapes the search uses (c x 3 and k x c x 3 against k x 1 x 3) and
    # the row-paired N x 3 form of the blend and the m_max trim
    sites = data.draw(arrays(np.float64, (c, 3), elements=_coords))
    blocks = data.draw(arrays(np.float64, (k, c, 3), elements=_coords))
    queries = data.draw(arrays(np.float64, (k, 1, 3), elements=_coords))
    assert _same(squared_distances(sites, queries), sites, queries)
    assert _same(squared_distances(blocks, queries), blocks, queries)
    a = data.draw(arrays(np.float64, (k * c, 3), elements=_coords))
    b = data.draw(arrays(np.float64, (k * c, 3), elements=_coords))
    assert _same(squared_distances(a, b), a, b)
    if k * c:
        assert _same(squared_distances(a, b[0]), a, b[0])


def test_squared_distances_large_batches():
    rng = np.random.default_rng(21)
    a, b = rng.random((100000, 3)), rng.random((100000, 3))
    assert _same(squared_distances(a, b), a, b)
    sites, queries = rng.random((70, 3)), rng.random((500, 1, 3))
    assert _same(squared_distances(sites, queries), sites, queries)
