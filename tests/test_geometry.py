import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubepu.errors import OutOfDomainError
from cubepu.geometry import as_point_array, ensure_in_unit_cube

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
