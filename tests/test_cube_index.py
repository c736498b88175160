import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubepu.cube_index import (
    BruteForceIndex,
    GridParams,
    _cells0,
    _halo,
    brute_force_index,
    build,
    grid_from_radius,
)
from cubepu.errors import (
    DegenerateGridWarning,
    OutOfDomainError,
    RadiusTooLargeError,
)
from cubepu.halton import HaltonConfig, generate


def brute_ids(points, center, radius):
    """Independent reference: scan every point."""
    diff = points - np.asarray(center, dtype=float)
    return np.flatnonzero((diff * diff).sum(axis=1) <= radius * radius)


def nonempty_cells(index):
    return int((np.diff(index.cell_offsets) > 0).sum())


# ---------------------------------------------------------------- grid sizing

def test_grid_from_radius_floor_rule():
    # sqrt(2)/8 = 0.1768 -> 1/r = 5.657: 5 cells of side 0.2 >= r; rounding up
    # to 6 would make the side 0.1667 < r and break the one-cell halo
    p = grid_from_radius(math.sqrt(2) / 8)
    assert p.q == 5 and p.q_ceil == 6
    assert p.cube_side == 0.2

    for d, q_floor, q_ceil in [(512, 5, 6), (4096, 11, 12), (32768, 22, 23)]:
        radius = math.sqrt(2) / np.cbrt(d)
        p = grid_from_radius(radius)
        assert (p.q, p.q_ceil) == (q_floor, q_ceil)
        assert p.cube_side >= radius


def test_grid_from_radius_exact_inverse():
    p = grid_from_radius(0.25)
    assert p.q == 4 and p.q_ceil == 4 and p.cube_side == 0.25
    p = grid_from_radius(0.2)
    assert p.q == 5 and p.q_ceil == 5


def test_grid_from_radius_degenerate_warns():
    with pytest.warns(DegenerateGridWarning):
        p = grid_from_radius(1.4143)
    assert p.q == 1 and p.cube_side == 1.0


def test_grid_from_radius_rejects_bad_radius():
    for r in (0.0, -0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            grid_from_radius(r)


@given(st.floats(1e-3, 1.0, allow_subnormal=False))
def test_grid_side_never_below_radius(radius):
    p = grid_from_radius(radius)
    assert p.cube_side >= radius
    assert p.q <= p.q_ceil <= p.q + 1


# ---------------------------------------------------------------- cell mapping

def test_cell_of():
    # 0-based cell coordinates along x, y, z
    p6 = GridParams(cube_side=1 / 6, q=6)
    pts = np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [1.0, 1.0, 1.0], [0.99, 0.0, 1.0]])
    cells = _cells0(p6, pts)
    assert cells.tolist() == [[0, 0, 0], [3, 3, 3], [5, 5, 5], [5, 0, 5]]  # far face clamps in


@given(st.integers(1, 23),
       st.tuples(*[st.floats(0.0, 1.0, allow_subnormal=False)] * 3))
def test_cell_of_in_range(q, p):
    c = _cells0(GridParams(cube_side=1.0 / q, q=q), np.array([p]))[0]
    assert all(0 <= v < q for v in c)


def test_neighbor_cell_range():
    p6 = GridParams(cube_side=1 / 6, q=6)
    first, last = _halo(p6, np.array([2, 2, 2]))     # interior: 27 cells
    assert first.tolist() == [1, 1, 1] and last.tolist() == [3, 3, 3]
    first, last = _halo(p6, np.array([0, 0, 0]))     # corner: 8 cells
    assert first.tolist() == [0, 0, 0] and last.tolist() == [1, 1, 1]
    first, last = _halo(p6, np.array([0, 2, 5]))     # edge-ish: 12 cells
    assert first.tolist() == [0, 1, 4] and last.tolist() == [1, 3, 5]


@given(st.integers(1, 23), st.tuples(*[st.integers(0, 22)] * 3))
def test_halo_never_exceeds_27_cells(q, cell):
    cell = np.minimum(np.array(cell), q - 1)
    first, last = _halo(GridParams(cube_side=1.0 / q, q=q), cell)
    spans = last - first + 1
    assert ((first >= 0) & (last < q)).all()
    assert all(1 <= s <= 3 for s in spans)
    assert spans.prod() <= 27


# ---------------------------------------------------------------- build

def test_build_octants():
    pts = np.array([[i, j, k] for k in (0.25, 0.75) for j in (0.25, 0.75)
                    for i in (0.25, 0.75)])
    idx = build(pts, GridParams(cube_side=0.5, q=2))
    counts = np.diff(idx.cell_offsets)
    assert counts.shape == (8,)
    assert (counts == 1).all()
    assert nonempty_cells(idx) == 8
    # permutation covers every id exactly once
    assert np.array_equal(np.sort(idx.permutation), np.arange(8))
    # this layout is already in (w, v, u) order, so the permutation is identity
    assert np.array_equal(idx.permutation, np.arange(8))


def test_build_empty():
    idx = build([], GridParams(cube_side=0.5, q=2))
    assert idx.cell_offsets[-1] == 0
    assert nonempty_cells(idx) == 0
    assert idx.query((0.5, 0.5, 0.5), 0.4).size == 0


def test_build_rejects_out_of_domain():
    with pytest.raises(OutOfDomainError):
        build([(0.5, 0.5, 1.5)], GridParams(cube_side=0.5, q=2))
    with pytest.raises(OutOfDomainError):
        build([(0.5, np.nan, 0.5)], GridParams(cube_side=0.5, q=2))


def test_build_deterministic_and_cell_consistent():
    pts = generate(HaltonConfig(500))
    params = grid_from_radius(0.21)
    a = build(pts, params)
    b = build(pts, params)
    assert np.array_equal(a.permutation, b.permutation)
    assert np.array_equal(a.cell_offsets, b.cell_offsets)
    # ids inside one cell keep ascending original order (stable sort)
    q = params.q
    for flat in range(q ** 3):
        run = a.permutation[a.cell_offsets[flat]: a.cell_offsets[flat + 1]]
        assert (np.diff(run) > 0).all() if run.size > 1 else True
        # every id in the run really maps to this cell
        for u, v, w in _cells0(params, pts[run]):
            assert (w * q + v) * q + u == flat


def test_nonempty_cells_halton_4913():
    # 4913 Halton points fill every cell at q = 6 (216 cells) and q = 5
    pts = generate(HaltonConfig(4913))
    assert nonempty_cells(build(pts, GridParams(cube_side=1 / 6, q=6))) == 216
    assert nonempty_cells(build(pts, GridParams(cube_side=0.2, q=5))) == 125


# ---------------------------------------------------------------- queries

def test_radius_query_zero_radius_hits_stored_point():
    pts = generate(HaltonConfig(200))
    idx = build(pts, grid_from_radius(0.3))
    ids = idx.query(pts[57], 0.0)
    assert np.array_equal(ids, [57])


def test_radius_query_validates_center_and_radius():
    idx = build(generate(HaltonConfig(50)), grid_from_radius(0.3))
    with pytest.raises(OutOfDomainError):
        idx.query((1.2, 0.5, 0.5), 0.1)
    with pytest.raises(ValueError):
        idx.query((0.5, 0.5, 0.5), -0.1)
    with pytest.raises(ValueError):
        idx.query((0.5, 0.5, 0.5), float("nan"))


def test_radius_query_too_large_raises():
    idx = build(generate(HaltonConfig(100)), GridParams(cube_side=1 / 3, q=3))
    # halo around a corner cell spans only 2 cells per axis: cannot reach
    with pytest.raises(RadiusTooLargeError):
        idx.query((0.05, 0.05, 0.05), 0.4)
    # but from the middle cell the clamped halo spans the whole grid, so a
    # radius beyond one cube side is still answered exactly
    ids = idx.query((0.5, 0.5, 0.5), 0.4)
    assert np.array_equal(ids, brute_ids(idx.points, (0.5, 0.5, 0.5), 0.4))


def test_radius_query_boundary_inclusive():
    # 0.75 - 0.5 and 0.25 are exact in binary: distance == radius, included
    pts = np.array([[0.5, 0.5, 0.5], [0.5, 0.5, 0.75], [0.5, 0.5, 0.8]])
    idx = build(pts, grid_from_radius(0.25))
    ids = idx.query((0.5, 0.5, 0.5), 0.25)
    assert np.array_equal(ids, [0, 1])


def test_brute_force_index_matches_and_validates():
    pts = generate(HaltonConfig(300))
    bf = brute_force_index(pts)
    assert isinstance(bf, BruteForceIndex)
    ids = bf.query((0.3, 0.4, 0.5), 0.25)
    assert np.array_equal(ids, brute_ids(pts, (0.3, 0.4, 0.5), 0.25))
    with pytest.raises(OutOfDomainError):
        bf.query((-0.1, 0.5, 0.5), 0.2)


def _point_sets(rng):
    yield "uniform", rng.random((800, 3))
    yield "halton", generate(HaltonConfig(700))
    blob = 0.5 + 0.08 * rng.standard_normal((600, 3))
    yield "clustered", np.clip(blob, 0.0, 1.0)
    snapped = rng.random((400, 3))
    mask = rng.random((400, 3)) < 0.4
    snapped[mask] = rng.choice([0.0, 1.0, 0.2, 0.4], size=int(mask.sum()))
    yield "boundary-heavy", snapped
    yield "tiny", rng.random((3, 3))


def test_query_matches_brute_force_everywhere():
    rng = np.random.default_rng(9157)
    total = 0
    for name, pts in _point_sets(rng):
        for radius in (0.05, 0.17, 0.2):
            params = grid_from_radius(radius)
            idx = build(pts, params)
            centers = np.vstack([
                rng.random((40, 3)),
                pts[rng.integers(0, len(pts), 10)],        # centers on stored points
                np.array([[0, 0, 0], [1, 1, 1], [1, 0, 1],  # boundary cells
                          [0.5, 1, 0], [1, 1, 0.5]], dtype=float),
            ])
            for c in centers:
                for r in (radius, radius / 2, 0.0, params.cube_side):
                    got = idx.query(c, r)
                    want = brute_ids(pts, c, r)
                    assert np.array_equal(got, want), (name, c, r)
                    assert (np.diff(got) > 0).all() if got.size > 1 else True
                    total += 1
    assert total >= 1000


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.05, 0.6, allow_subnormal=False))
def test_query_matches_brute_force_hypothesis(seed, radius):
    rng = np.random.default_rng(seed)
    pts = rng.random((rng.integers(1, 120), 3))
    idx = build(pts, grid_from_radius(radius))
    c = rng.random(3)
    r = radius * rng.random()
    assert np.array_equal(idx.query(c, r), brute_ids(pts, c, r))
