import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from cubepu.errors import OutOfDomainError, RadiusTooLargeError
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


def test_grid_from_radius_degenerate():
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


def test_grid_params_needs_an_integer_q():
    assert GridParams(q=np.int64(2)).cube_side == 0.5
    for q in (0, 2.5, "2", True):
        with pytest.raises(ValueError, match="integer >= 1"):
            GridParams(q=q)


# ---------------------------------------------------------------- cell mapping

def test_cell_of():
    # 0-based cell coordinates along x, y, z
    p6 = GridParams(q=6)
    pts = np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [1.0, 1.0, 1.0], [0.99, 0.0, 1.0]])
    cells = _cells0(p6, pts)
    assert cells.tolist() == [[0, 0, 0], [3, 3, 3], [5, 5, 5], [5, 0, 5]]  # far face clamps in


@given(st.integers(1, 23),
       st.tuples(*[st.floats(0.0, 1.0, allow_subnormal=False)] * 3))
def test_cell_of_in_range(q, p):
    c = _cells0(GridParams(q=q), np.array([p]))[0]
    assert all(0 <= v < q for v in c)


def test_neighbor_cell_range():
    p6 = GridParams(q=6)
    first, last = _halo(p6, np.array([2, 2, 2]))     # interior: 27 cells
    assert first.tolist() == [1, 1, 1] and last.tolist() == [3, 3, 3]
    first, last = _halo(p6, np.array([0, 0, 0]))     # corner: 8 cells
    assert first.tolist() == [0, 0, 0] and last.tolist() == [1, 1, 1]
    first, last = _halo(p6, np.array([0, 2, 5]))     # edge-ish: 12 cells
    assert first.tolist() == [0, 1, 4] and last.tolist() == [1, 3, 5]


@given(st.integers(1, 23), st.tuples(*[st.integers(0, 22)] * 3))
def test_halo_never_exceeds_27_cells(q, cell):
    cell = np.minimum(np.array(cell), q - 1)
    first, last = _halo(GridParams(q=q), cell)
    spans = last - first + 1
    assert ((first >= 0) & (last < q)).all()
    assert all(1 <= s <= 3 for s in spans)
    assert spans.prod() <= 27


# ---------------------------------------------------------------- build

def test_build_octants():
    pts = np.array([[i, j, k] for k in (0.25, 0.75) for j in (0.25, 0.75)
                    for i in (0.25, 0.75)])
    idx = build(pts, GridParams(q=2))
    counts = np.diff(idx.cell_offsets)
    assert counts.shape == (8,)
    assert (counts == 1).all()
    assert nonempty_cells(idx) == 8
    # permutation covers every id exactly once
    assert np.array_equal(np.sort(idx.permutation), np.arange(8))
    # this layout is already in (w, v, u) order, so the permutation is identity
    assert np.array_equal(idx.permutation, np.arange(8))


def test_build_empty():
    idx = build([], GridParams(q=2))
    assert idx.cell_offsets[-1] == 0
    assert nonempty_cells(idx) == 0
    assert idx.query((0.5, 0.5, 0.5), 0.4).size == 0


def test_build_rejects_out_of_domain():
    with pytest.raises(OutOfDomainError):
        build([(0.5, 0.5, 1.5)], GridParams(q=2))
    with pytest.raises(OutOfDomainError):
        build([(0.5, np.nan, 0.5)], GridParams(q=2))


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
    assert nonempty_cells(build(pts, GridParams(q=6))) == 216
    assert nonempty_cells(build(pts, GridParams(q=5))) == 125


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
    idx = build(generate(HaltonConfig(100)), GridParams(q=3))
    # halo around a corner cell spans only 2 cells per axis: cannot reach
    with pytest.raises(RadiusTooLargeError):
        idx.query((0.05, 0.05, 0.05), 0.4)
    # but from the middle cell the clamped halo spans the whole grid, so a
    # radius beyond one cube side is still answered exactly
    ids = idx.query((0.5, 0.5, 0.5), 0.4)
    assert np.array_equal(ids, brute_ids(idx.points, (0.5, 0.5, 0.5), 0.4))
    # the cube side is 1/q, so on 6 cells a radius above 1/6 raises from the
    # middle too, where the halo spans 3 of the 6 cells per axis
    idx6 = build(generate(HaltonConfig(2000)), GridParams(q=6))
    assert idx6.params.cube_side == 1 / 6
    with pytest.raises(RadiusTooLargeError):
        idx6.query((0.5, 0.5, 0.5), 0.45)


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


def test_query_takes_exactly_one_center():
    # two rows would drop the second one's hits, and query_many answers both
    pts = generate(HaltonConfig(200))
    two = [[0.1, 0.1, 0.1], [0.9, 0.9, 0.9]]
    for index in (build(pts, grid_from_radius(0.2)), brute_force_index(pts)):
        for rows in (two, np.zeros((0, 3))):
            with pytest.raises(ValueError, match="one center"):
                index.query(rows, 0.2)
        rows, ids = index.query_many(two, 0.2)
        assert np.bincount(rows).tolist() == [4, 5]
        for i, c in enumerate(two):
            assert np.array_equal(ids[rows == i], index.query(c, 0.2))


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


# ---------------------------------------------------------------- batched queries

_coord = st.one_of(st.sampled_from([0.0, 0.2, 0.25, 1 / 3, 0.5, 0.75, 1.0]),
                   st.floats(0.0, 1.0, allow_subnormal=False))
_point = st.tuples(_coord, _coord, _coord)


def _engines(pts, radius):
    """Both search engines over pts, the cube one sized for `radius`; a
    radius above 1 gives the one-cell grid."""
    return build(pts, grid_from_radius(radius)), brute_force_index(pts)


def _check_pairs(index, queries, radius):
    """query_many's pairs sorted by id and then row, each pair once, and
    every query row's ids equal to `query` and to a numpy scan."""
    rows, ids = index.query_many(queries, radius)
    k = len(queries)
    assert rows.dtype == ids.dtype == np.int64 and rows.shape == ids.shape
    assert ((rows >= 0) & (rows < k)).all()
    assert (np.diff(ids * k + rows) > 0).all()
    for i, c in enumerate(queries):
        row = ids[rows == i]  # ascending, as the pairs are sorted by id
        assert np.array_equal(row, index.query(c, radius))
        assert np.array_equal(row, brute_ids(index.points, c, radius))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 150),
       st.sampled_from([1.0, 0.3]),
       st.one_of(st.floats(0.03, 0.5), st.floats(1.0, 1.8)),
       st.sampled_from([0.0, 0.5, 1.0]),
       st.lists(_point, max_size=30))
def test_query_many_matches_query_and_scan(seed, n, spread, radius, frac, queries):
    # clustered sets (spread 0.3) leave most cells empty; rows include faces,
    # corners, cell boundaries, stored points and an empty batch
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 3)) * spread
    queries = np.array(queries, dtype=float).reshape(-1, 3)
    if n:
        queries = np.vstack([queries, pts[rng.integers(0, n, 3)]])
    for index in _engines(pts, radius):
        _check_pairs(index, queries, radius * frac)


def test_query_many_engines_agree_on_the_sphere():
    # queries exactly on the radius-r sphere about a stored point: offsets
    # along an axis and along the integer vectors (3, 4, 0), (2, 3, 6) and
    # (1, 4, 8) of lengths 5, 7 and 9, scaled by a power of two so that every
    # squared distance is exact and equals r^2
    pts = np.vstack([generate(HaltonConfig(400)), [[0.5, 0.5, 0.5]]])
    stored = len(pts) - 1
    s = 2.0 ** -6
    offsets = [((1, 0, 0), 1), ((0, -1, 0), 1), ((3, 4, 0), 5), ((-2, 3, 6), 7),
               ((1, -4, 8), 9), ((0, 0, -4), 4)]
    for vec, length in offsets:
        r = length * s
        queries = pts[stored] + s * np.array([vec, [-v for v in vec]], dtype=float)
        for index in _engines(pts, r):
            rows, ids = index.query_many(queries, r)
            assert np.count_nonzero(ids == stored) == 2, (vec, type(index))
            _check_pairs(index, queries, r)
    # a radius taken as the rounded distance to a stored point, so that the
    # tie is decided by the last bit of the squared distance
    rng = np.random.default_rng(17)
    queries = rng.random((40, 3))
    for q, p in zip(queries, pts[rng.integers(0, len(pts), 40)]):
        r = min(float(np.sqrt(((q - p) ** 2).sum())), 0.3)
        cube, scan = (e.query_many(q[None, :], r) for e in _engines(pts, r))
        assert np.array_equal(cube[0], scan[0]) and np.array_equal(cube[1], scan[1])


def test_query_many_edge_cases():
    pts = generate(HaltonConfig(300))
    corners = np.array([(x, y, z) for x in (0.0, 1.0)
                        for y in (0.0, 1.0) for z in (0.0, 1.0)])
    for radius in (0.2, 1.5):  # 5 cells a side, and the one-cell grid
        for index in _engines(pts, radius):
            rows, ids = index.query_many(np.zeros((0, 3)), radius)
            assert rows.size == ids.size == 0
            _check_pairs(index, np.vstack([corners, pts[:20]]), 0.0)
            _check_pairs(index, corners, radius)
    # queries in cells that hold no point, around a lone point
    for index in _engines(np.array([[0.05, 0.05, 0.05]]), 0.1):
        _check_pairs(index, np.array([[0.9, 0.9, 0.9], [0.1, 0.1, 0.1], [0.5, 0.5, 0.5]]), 0.1)


def _outcome(call):
    try:
        call()
    except (OutOfDomainError, RadiusTooLargeError) as exc:
        return type(exc)
    return None


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(*[st.one_of(_coord, st.sampled_from(
           [-0.1, 1.2, float("nan"), float("inf")]))] * 3), max_size=8),
       st.sampled_from([0.1, 1 / 3, 0.4, 0.9]))
@example([(0.5, 0.5, 0.5), (0.0, 0.0, 0.0)], 0.9)   # a corner row's halo misses
@example([(0.5, 0.5, 0.5), (0.4, 0.6, 0.5)], 0.9)   # middle cell: exact
@example([(0.0, 0.0, 0.0), (1.2, 0.5, 0.5)], 0.9)   # the domain check comes first
def test_query_many_raises_exactly_when_query_does(queries, radius):
    # a 3-cell grid: from the middle cell a radius beyond the cube side is
    # still exact, from any other cell it raises
    pts = generate(HaltonConfig(100))
    queries = np.array(queries, dtype=float).reshape(-1, 3)
    for index in (build(pts, GridParams(q=3)), brute_force_index(pts)):
        rows = [_outcome(lambda c=c: index.query(c, radius)) for c in queries]
        want = (OutOfDomainError if OutOfDomainError in rows
                else RadiusTooLargeError if RadiusTooLargeError in rows else None)
        assert _outcome(lambda: index.query_many(queries, radius)) is want
        if want is None:
            _check_pairs(index, queries, radius)


def test_query_many_validates_radius():
    for index in _engines(generate(HaltonConfig(50)), 0.3):
        for r in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                index.query_many(np.zeros((0, 3)), r)
