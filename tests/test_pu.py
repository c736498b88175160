import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubepu import cube_index, pu
from cubepu.bench import eval_grid, f1
from cubepu.errors import EmptySubdomainError, OutOfDomainError
from cubepu.halton import HaltonConfig, generate
from cubepu.pu import (
    PUConfig,
    blend_weights,
    evaluate,
    evaluate_batch,
    evaluate_report,
    fit,
    fit_geometry,
    make_centers,
    refit_kernel,
    subdomain_radius,
)
from cubepu.rbf import ILL_CONDITION_LIMIT, KernelSpec, local_values, solve_local


def _config(family="m4", shape=2.6, d=125, **kw):
    return PUConfig(kernel=KernelSpec(family, shape), subdomain_count=d, **kw)


def _blend1(model, p):
    """blend_weights at the single point p, as (ids, weights, covered)."""
    owner, ids, w, covered = blend_weights(model, np.reshape(p, (1, 3)))
    assert (owner == 0).all() and covered.shape == (1,)
    return ids, w, bool(covered[0])


def _blend_by_hand(model, p):
    """The blend at p written out point by point from one `query` call:
    (ids ascending, weights, covered), independent of blend_weights."""
    ids = model.center_index.query(p, model.radius)
    ids = ids[~model.empty[ids]]
    if ids.size == 0:
        d2 = ((model.centers - p) ** 2).sum(axis=1)
        d2[model.empty] = np.inf
        return np.array([np.argmin(d2)]), np.ones(1), False
    diff = model.centers[ids] - p
    dist = np.sqrt((diff * diff).sum(axis=1))
    on = dist < pu.COINCIDENT_TOL
    if on.any():
        return ids[on], np.ones(int(on.sum())), True
    return ids, 1.0 / dist, True


def _value_by_hand(model, p):
    num = den = 0.0
    for j, w in zip(*_blend_by_hand(model, p)[:2]):
        num += w * _local(model, j, p)
        den += w
    return num / den


def _ball(model, j):
    """Ball j's slice of the model's flat node_ids and coefficients."""
    return slice(model.offsets[j], model.offsets[j + 1])


def _local(model, j, p):
    """R_j, the solved local interpolant of subdomain j, at the single point p."""
    at = _ball(model, j)
    return local_values(model.config.kernel, model.points[model.node_ids[at]],
                        model.coefficients[at],
                        np.asarray(p, dtype=float).reshape(1, 3))[0]


@pytest.fixture(scope="module")
def nodes_1000():
    pts = generate(HaltonConfig(1000))
    return pts, np.cos(3.0 * pts[:, 0]) * np.exp(pts[:, 1]) + pts[:, 2]


@pytest.fixture(scope="module")
def model_1000(nodes_1000):
    pts, vals = nodes_1000
    return fit(pts, vals, _config())


# ---------------------------------------------------------------- radius

def test_subdomain_radius_values():
    assert subdomain_radius(512) == math.sqrt(2) / 8
    assert subdomain_radius(4096) == math.sqrt(2) / 16
    assert subdomain_radius(1) == math.sqrt(2)
    with pytest.raises(ValueError):
        subdomain_radius(0)


# ---------------------------------------------------------------- centers

def test_make_centers_halton_uses_distinct_bases():
    c = make_centers(_config(d=4))
    assert c.shape == (4, 3)
    assert np.array_equal(c[0], [1 / 7, 1 / 11, 1 / 13])


def test_make_centers_grid_lattice():
    c = make_centers(_config(d=8, centers="grid"))
    assert c.shape == (8, 3)
    assert np.array_equal(c[0], [0.25, 0.25, 0.25])
    assert np.array_equal(c[1], [0.75, 0.25, 0.25])
    assert np.array_equal(c[7], [0.75, 0.75, 0.75])
    # a count that is not a cube places the whole lattice of the next cube
    assert make_centers(_config(d=5, centers="grid")).shape == (8, 3)


@pytest.mark.parametrize("d,placed", [(500, 512), (614, 729)])
def test_grid_centers_cover_the_lattice(d, placed):
    pts = generate(HaltonConfig(4913))
    model = fit(pts, np.sin(pts.sum(axis=1)),
                _config(family="w4", shape=0.54, d=d, centers="grid"))
    m = round(placed ** (1 / 3))
    assert model.centers.shape == (placed, 3) and model.offsets.shape == (placed + 1,)
    assert model.radius == subdomain_radius(placed)
    assert model.radius == pytest.approx(math.sqrt(2) / m, rel=1e-15)
    assert evaluate_report(model, eval_grid(21)).uncovered == 0


def test_make_centers_explicit_passthrough():
    pts = np.array([[0.2, 0.2, 0.2], [0.8, 0.8, 0.8]])
    c = make_centers(_config(d=2, centers=pts))
    assert np.array_equal(c, pts)
    # the centers are coerced once, when the config is built, to a tuple of rows
    listed = _config(d=2, centers=pts.tolist())
    assert listed.centers == ((0.2, 0.2, 0.2), (0.8, 0.8, 0.8))
    assert np.array_equal(make_centers(listed), pts)


def test_config_with_centers_compares_and_hashes():
    c = generate(HaltonConfig(8))
    config = _config(d=8, centers=c)
    same = _config(d=8, centers=c.copy())
    assert config == same and hash(config) == hash(same)
    moved = c.copy()
    moved[3, 1] += 1e-12
    assert config != _config(d=8, centers=moved)
    assert config != _config(d=8) and len({config, same, _config(d=8)}) == 2


# ---------------------------------------------------------------- fit

def test_fit_single_node_single_subdomain():
    model = fit([(0.5, 0.5, 0.5)], [4.2], _config(d=1))
    assert model.offsets.tolist() == [0, 1]
    assert np.array_equal(model.node_ids, [0])
    # phi(0) = 3 for m4: single-site coefficient is f / phi(0)
    assert model.coefficients == pytest.approx([1.4])
    # with one subdomain the blend carries weight 1: evaluate == R_1 everywhere
    p = (0.9, 0.1, 0.4)
    assert evaluate(model, p) == _local(model, 0, p)


def test_fit_subdomain_population_4913():
    pts = generate(HaltonConfig(4913))
    vals = np.sin(pts.sum(axis=1))
    geo = fit_geometry(pts, vals, _config(d=512))
    sizes = np.diff(geo.offsets)
    assert sizes.shape == (512,) and geo.offsets[-1] == geo.node_ids.size
    assert sizes.min() >= 1
    # n * (4/3) pi r^3 = 113.7 expected nodes for an interior ball; boundary
    # clipping drags the global mean down
    assert 70 <= sizes.mean() <= 130
    r = geo.radius
    interior = np.array([((c >= r) & (c <= 1 - r)).all() for c in geo.centers])
    assert 95 <= sizes[interior].mean() <= 130
    for j in range(0, 512, 37):
        ids = geo.node_ids[_ball(geo, j)]
        assert (np.diff(ids) > 0).all()
        d2 = ((pts[ids] - geo.centers[j]) ** 2).sum(axis=1)
        assert (d2 <= r * r + 1e-15).all()


def test_fit_m_max_keeps_nearest(nodes_1000):
    pts, vals = nodes_1000
    geo = fit_geometry(pts, vals, _config(d=64, m_max=20))
    full = fit_geometry(pts, vals, _config(d=64))
    assert np.array_equal(np.diff(geo.offsets), np.minimum(np.diff(full.offsets), 20))
    for j in range(64):
        capped, ids = geo.node_ids[_ball(geo, j)], full.node_ids[_ball(full, j)]
        if ids.size <= 20:
            assert np.array_equal(capped, ids)
            continue
        # reference: sort all captured ids by (distance, id), keep 20
        d2 = ((pts[ids] - geo.centers[j]) ** 2).sum(axis=1)
        want = np.sort(ids[np.lexsort((ids, d2))[:20]])
        assert np.array_equal(capped, want)


def test_fit_rejects_bad_nodes():
    cfg = _config(d=1)
    with pytest.raises(ValueError, match="zero nodes"):
        fit(np.zeros((0, 3)), [], cfg)
    with pytest.raises(ValueError, match="distinct"):
        fit([(0.5, 0.5, 0.5), (0.5, 0.5, 0.5)], [1.0, 1.0], cfg)
    with pytest.raises(ValueError, match="finite"):
        fit([(0.5, 0.5, 0.5)], [np.nan], cfg)
    with pytest.raises(ValueError, match="values"):
        fit([(0.5, 0.5, 0.5)], [1.0, 2.0], cfg)
    with pytest.raises(OutOfDomainError):
        fit([(0.5, 0.5, 1.5)], [1.0], cfg)
    with pytest.raises(ValueError, match="search"):
        fit([(0.5, 0.5, 0.5)], [1.0], cfg, search="octree")
    # counts must be integers: numpy integers pass, 8.5 balls or 2.5 nodes do not
    assert _config(d=np.int64(8), m_max=np.int32(20)).m_max == 20
    # a bool is refused too: PUConfig(kernel, True) would fit one ball
    for kw in ({"d": 8.5}, {"d": 0}, {"d": True}, {"m_max": 2.5}, {"m_max": 0},
               {"m_max": True}):
        with pytest.raises(ValueError, match="integer >= 1"):
            _config(**kw)


def test_fit_empty_subdomain_raises():
    # only a fit whose balls are all empty fails: nodes in one corner,
    # centers in the opposite one, farther apart than the radius
    rng = np.random.default_rng(0)
    nodes = 0.9 + 0.1 * rng.random((50, 3))
    centers = 0.1 * rng.random((8, 3))
    for search in pu.SEARCH_MODES:
        with pytest.raises(EmptySubdomainError) as exc:
            fit(nodes, np.ones(50),
                _config(d=8, centers=centers), search=search)
        assert exc.value.subdomain_count == 8
        assert "all 8 subdomains" in str(exc.value)


@pytest.mark.parametrize("search", pu.SEARCH_MODES)
def test_fit_drops_empty_subdomains(search):
    # 4000 nodes with x < 0.5 leave 166 of 500 balls empty; the fit keeps
    # them unsolved and out of every blend
    rng = np.random.default_rng(0)
    nodes = rng.random((4000, 3))
    nodes[:, 0] *= 0.5
    model = fit(nodes, np.cos(nodes.sum(axis=1)), _config("w4", 0.54, d=500),
                search=search)
    assert model.empty.shape == (500,) and model.empty.sum() == 166
    assert np.array_equal(np.diff(model.offsets) == 0, model.empty)
    assert model.coefficients.shape == model.node_ids.shape
    assert np.array_equal(np.isnan(model.condition), model.empty)
    lattice = eval_grid(11)
    report = evaluate_report(model, lattice)
    assert np.isfinite(report.values).all()
    # points whose covering balls are all empty take the nearest nonempty
    # center and count as uncovered
    only_empty = [p for p in lattice
                  if model.empty[model.center_index.query(p, model.radius)].all()]
    assert report.uncovered == len(only_empty) > 0
    for p, got in zip(lattice, report.values):
        assert got == _value_by_hand(model, p)


def test_evaluate_ball_larger_than_a_flat_chunk(monkeypatch):
    # Gaussian-clustered nodes: 356 of 1000 balls are empty and the largest
    # holds 2062 nodes, more than twice the flat pass's chunk below
    rng = np.random.default_rng(0)
    nodes = np.clip(rng.normal(0.5, 0.12, (8000, 3)), 0.0, 1.0)
    model = fit(nodes, np.cos(nodes.sum(axis=1)), _config("w4", 0.54, d=1000))
    sizes = np.diff(model.offsets)
    biggest = int(np.argmax(sizes))
    assert sizes[biggest] > 2000 and model.empty.sum() > 300
    probe = np.vstack([model.centers[biggest], 0.5 + 0.05 * rng.standard_normal((6, 3)),
                       rng.random((6, 3))])
    assert all(biggest in _blend_by_hand(model, p)[0] for p in probe[:4])
    want = [_value_by_hand(model, p) for p in probe]
    for work, chunk in ((pu.FLAT_GROUP_WORK, pu.DISTANCE_CHUNK), (10**9, 1000), (0, 1000)):
        monkeypatch.setattr(pu, "FLAT_GROUP_WORK", work)
        monkeypatch.setattr(pu, "DISTANCE_CHUNK", chunk)
        assert np.array_equal(evaluate_batch(model, probe), want)
        assert np.array_equal([evaluate(model, p) for p in probe], want)


def test_fit_explicit_centers_validated():
    pts = generate(HaltonConfig(100))
    vals = np.ones(100)
    bad = np.array([[0.5, 0.5, 0.5], [1.2, 0.5, 0.5]])
    with pytest.raises(OutOfDomainError):
        fit(pts, vals, _config(d=2, centers=bad), search="no_cube")
    # the config itself rejects them, before any fit
    with pytest.raises(OutOfDomainError, match="subdomain center 1 "):
        PUConfig(KernelSpec("w4", 0.54), 2, centers=[[.5, .5, .5], [1.2, .5, .5]])
    # the row count must equal d, checked when the config is built
    with pytest.raises(ValueError, match="1 centers for 3 subdomains"):
        PUConfig(KernelSpec("w4", 0.54), 3, centers=[[0.5, 0.5, 0.5]])
    for source in ("explicit", "Halton", ""):
        with pytest.raises(ValueError, match="unknown center source"):
            PUConfig(KernelSpec("w4", 0.54), 1, centers=source)
    with pytest.raises(ValueError, match="3-vector"):
        PUConfig(KernelSpec("w4", 0.54), 1, centers=[0.5, 0.5])


def test_refit_kernel_reuses_geometry(nodes_1000):
    # 1000 Halton nodes with x < 0.5 leave some of the 125 balls empty
    pts, vals = nodes_1000
    half = pts[:, 0] < 0.5
    pts, vals = pts[half], vals[half]
    geo = fit_geometry(pts, vals, _config("w4", 0.54))
    assert geo.empty.any() and not geo.empty.all()
    assert geo.coefficients is None and geo.condition is None
    # unsolved balls raise whether the groups run flat (one point) or on
    # their own calls (the 41^3 lattice)
    with pytest.raises(RuntimeError):
        evaluate(geo, (0.25, 0.5, 0.5))
    with pytest.raises(RuntimeError):
        evaluate_report(geo, eval_grid(41))
    kernel = KernelSpec("w4", 0.7)
    solved = refit_kernel(geo, kernel)
    # the geometry is left unsolved and shared, not copied
    assert geo.coefficients is None and geo.condition is None
    assert geo.config.kernel.shape == 0.54 and solved.config.kernel == kernel
    assert solved.node_ids is geo.node_ids and solved.offsets is geo.offsets
    assert solved.coefficients.shape == solved.node_ids.shape
    assert solved.condition.shape == solved.empty.shape
    # each nonempty ball's slice and condition entry is a direct solve of that
    # ball, bit for bit; empty balls read NaN
    for j in range(solved.empty.size):
        if solved.empty[j]:
            assert np.isnan(solved.condition[j])
            continue
        at = _ball(solved, j)
        local = solve_local(pts[solved.node_ids[at]], vals[solved.node_ids[at]], kernel)
        assert np.array_equal(solved.coefficients[at], local.coefficients)
        assert solved.condition[j] == local.condition_estimate
    illcond = np.count_nonzero(solved.condition >= ILL_CONDITION_LIMIT)
    assert solved.illconditioned_solves == illcond
    # refit after changing nothing reproduces the direct fit exactly
    direct = fit(pts, vals, _config("w4", 0.7))
    assert np.array_equal(solved.coefficients, direct.coefficients)
    assert np.array_equal(solved.condition, direct.condition, equal_nan=True)


def test_flat_gaussian_balls_stay_near_the_field():
    # grid centers at 35937/4096 with g 2.7 give ball 309 (112 nodes) a
    # condition estimate near 5e20; one factor and one solve keep its local
    # interpolant within 2e-3 of f1 at this point, where a fixed-precision
    # refinement step with the same factor put it off by 1.9
    nodes = generate(HaltonConfig(35937))
    kernel = KernelSpec("g", 2.7)
    geo = fit_geometry(nodes, f1(nodes), _config("g", 2.7, d=4096, centers="grid"))
    p = np.array([[0.4, 0.275, 0.125]])
    _, ids = geo.center_index.query_many(p, geo.radius)
    assert 309 in ids and ids.size == 12
    for j in ids:
        sites = nodes[geo.node_ids[_ball(geo, j)]]
        local = solve_local(sites, f1(sites), kernel, subdomain_id=j)
        assert abs(local_values(kernel, sites, local.coefficients, p)[0] - f1(p[0])) < 1e-2


# ---------------------------------------------------------------- weights

def test_shepard_weights_basic(model_1000):
    # covering balls weigh 1/distance, ascending ids
    p = np.array([0.5, 0.5, 0.5])
    ids, w, covered = _blend1(model_1000, p)
    assert covered and ids.size > 0 and (np.diff(ids) > 0).all()
    dist = np.sqrt(((model_1000.centers[ids] - p) ** 2).sum(axis=1))
    assert np.array_equal(w, 1.0 / dist)
    assert (dist <= model_1000.radius).all()


def test_shepard_weights_equidistant_pair():
    pts = generate(HaltonConfig(100))
    centers = np.array([[0.25, 0.5, 0.5], [0.75, 0.5, 0.5]])
    model = fit(pts, np.ones(100),
                _config(d=2, centers=centers),
                search="no_cube")
    ids, w, covered = _blend1(model, (0.5, 0.5, 0.5))
    assert covered and np.array_equal(ids, [0, 1])
    assert np.array_equal(w / w.sum(), [0.5, 0.5])  # both distances are exactly 0.25


def test_shepard_weights_coincident_center():
    pts = generate(HaltonConfig(100))
    centers = np.array([[0.3, 0.3, 0.3], [0.6, 0.6, 0.6], [0.9, 0.9, 0.9]])
    model = fit(pts, np.ones(100),
                _config(d=3, centers=centers),
                search="no_cube")
    ids, w, covered = _blend1(model, (0.6, 0.6, 0.6))
    assert covered and np.array_equal(ids, [1]) and np.array_equal(w, [1.0])
    # two coincident centers split the weight; the other covering ball drops out
    centers2 = np.array([[0.4, 0.4, 0.4], [0.4, 0.4, 0.4], [0.8, 0.8, 0.8]])
    model2 = fit(pts, np.ones(100),
                 _config(d=3, centers=centers2),
                 search="no_cube")
    assert model2.center_index.query((0.4, 0.4, 0.4), model2.radius).size == 3
    ids2, w2, covered2 = _blend1(model2, (0.4, 0.4, 0.4))
    assert covered2 and np.array_equal(ids2, [0, 1])
    assert np.array_equal(w2 / w2.sum(), [0.5, 0.5])


_coord = st.one_of(st.sampled_from([0.0, 0.2, 0.5, 1.0]),
                   st.floats(0.0, 1.0, allow_subnormal=False))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(_coord, _coord, _coord), max_size=12))
def test_shepard_weights_sum_to_one(model_1000, pts):
    # a batch of points on faces, corners, centers' grid lines and anywhere
    pts = np.array(pts, dtype=float).reshape(-1, 3)
    owner, ids, w, covered = blend_weights(model_1000, pts)
    assert owner.shape == ids.shape == w.shape
    assert (np.diff(ids * len(pts) + owner) > 0).all()  # by ball, then row
    assert ((owner >= 0) & (owner < len(pts))).all() and covered.shape == (len(pts),)
    for i, p in enumerate(pts):
        row_ids, row_w = ids[owner == i], w[owner == i]
        want_ids, want_w, want_covered = _blend_by_hand(model_1000, p)
        assert np.array_equal(row_ids, want_ids) and np.array_equal(row_w, want_w)
        assert covered[i] == want_covered
        row_w = row_w / row_w.sum()
        assert abs(row_w.sum() - 1.0) <= 1e-12
        assert (row_w >= 0.0).all() and (row_w <= 1.0).all()
        if not covered[i]:
            assert row_w.size == 1


# ---------------------------------------------------------------- evaluate

def test_evaluate_reproduces_node_values(nodes_1000):
    pts, vals = nodes_1000
    tol = 1e-6 * (1.0 + np.abs(vals).max())
    for family, shape in (("m4", 2.6), ("w4", 0.54)):
        model = fit(pts, vals, _config(family, shape))
        got = evaluate_batch(model, pts)
        assert np.abs(got - vals).max() <= tol


def test_evaluate_constant_field(nodes_1000):
    # pure RBF reproduces constants only approximately; measured residual at
    # this size is ~8e-4 relative, so the tolerance sits at 1e-3
    pts, _ = nodes_1000
    kappa = 2.5
    model = fit(pts, np.full(1000, kappa), _config("m4", 1.0))
    vals = evaluate_batch(model, _grid11())
    assert model.illconditioned_solves == 0
    assert np.abs(vals - kappa).max() <= 1e-3 * abs(kappa)


def _grid11():
    g = np.linspace(0.0, 1.0, 11)
    xx, yy, zz = np.meshgrid(g, g, g, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])


def test_evaluate_batch_matches_scalar_bitwise(model_1000, nodes_1000, monkeypatch):
    # covered points, points on a center and one point outside every ball,
    # all in one batch
    rng = np.random.default_rng(31)
    outside = np.array([[0.62, 1.0, 1.0]])
    pts = np.vstack([rng.random((40, 3)), model_1000.centers, outside])
    report = evaluate_report(model_1000, pts)
    assert report.uncovered == 1
    assert not _blend1(model_1000, outside[0])[2]
    batch = report.values
    single = np.array([evaluate(model_1000, p) for p in pts])
    assert np.array_equal(batch, single)
    # reference: the blend written out point by point, ascending subdomain ids
    for p, got in zip(pts, batch):
        assert got == _value_by_hand(model_1000, p)
    # rows of a batch do not depend on what else shares the batch or its block
    assert np.array_equal(evaluate_batch(model_1000, pts[:13]), batch[:13])
    monkeypatch.setattr(pu, "BLEND_BLOCK", 7)
    blocked = evaluate_report(model_1000, pts)
    assert np.array_equal(blocked.values, batch) and blocked.uncovered == 1
    monkeypatch.undo()

    # neither group path nor the chunk sizes change a bit: every kernel under
    # both engines, with m_max-trimmed balls, and the x < 0.5 fit whose empty
    # balls leave lattice points uncovered
    nodes, values = nodes_1000
    rng = np.random.default_rng(0)
    half = rng.random((4000, 3))
    half[:, 0] *= 0.5
    fits = [(nodes, values, _config(family, shape, m_max=60))
            for family, shape in CANONICAL]
    fits.append((half, np.cos(half.sum(axis=1)), _config("w4", 0.54, d=500)))
    for search in pu.SEARCH_MODES:
        for nodes_f, values_f, config in fits:
            model = fit(nodes_f, values_f, config, search=search)
            probe = np.vstack([pts[:40], model.centers[::3], outside, eval_grid(6)])
            want = evaluate_report(model, probe)
            assert want.uncovered > 0
            for p, got in zip(probe, want.values):
                assert got == _value_by_hand(model, p)
            for work, chunk in ((0, 1), (1, 10**9), (10**9, 1), (10**9, 10**9)):
                monkeypatch.setattr(pu, "FLAT_GROUP_WORK", work)
                monkeypatch.setattr(pu, "DISTANCE_CHUNK", chunk)
                got = evaluate_report(model, probe)
                assert np.array_equal(got.values, want.values)
                assert got.uncovered == want.uncovered
                single = [evaluate(model, p) for p in probe[::4]]
                assert np.array_equal(single, want.values[::4])
            monkeypatch.undo()


def test_evaluate_search_mode_invariance(nodes_1000):
    pts, vals = nodes_1000
    cube = fit(pts, vals, _config(d=64))
    scan = fit(pts, vals, _config(d=64), search="no_cube")
    assert np.array_equal(cube.node_ids, scan.node_ids)
    assert np.array_equal(cube.offsets, scan.offsets)
    assert np.array_equal(cube.coefficients, scan.coefficients)
    probe = generate(HaltonConfig(200, bases=(17, 19, 23)))
    assert np.array_equal(evaluate_batch(cube, probe), evaluate_batch(scan, probe))


def _scaled(model, j, factor):
    """The model with ball j's coefficients multiplied by factor."""
    coefficients = model.coefficients.copy()
    coefficients[_ball(model, j)] *= factor
    return replace(model, coefficients=coefficients)


def test_evaluate_locality(model_1000):
    p = np.array([[0.1, 0.2, 0.1]])
    covering = set(_blend1(model_1000, p[0])[0].tolist())
    far_j = next(j for j in range(model_1000.empty.size) if j not in covering)
    before = evaluate_batch(model_1000, p)[0]
    # corrupt a subdomain the point does not touch: value must not move a bit
    assert evaluate_batch(_scaled(model_1000, far_j, 7.0), p)[0] == before
    # corrupting a covering subdomain must move it (sanity of the setup)
    near_j = next(iter(covering))
    assert evaluate_batch(_scaled(model_1000, near_j, 7.0), p)[0] != before


def test_evaluate_uncovered_fallback():
    rng = np.random.default_rng(5)
    nodes = rng.random((300, 3))
    vals = nodes.sum(axis=1)
    centers = 0.05 + 0.1 * rng.random((8, 3))   # all in one corner
    model = fit(nodes, vals, _config(d=8, centers=centers))
    far = np.array([[1.0, 1.0, 1.0]])
    report = evaluate_report(model, far)
    assert report.uncovered == 1
    d2 = ((model.centers - far[0]) ** 2).sum(axis=1)
    j = int(np.argmin(d2))
    ids, w, covered = _blend1(model, far[0])
    assert not covered and np.array_equal(ids, [j]) and np.array_equal(w, [1.0])
    assert report.values[0] == _local(model, j, far[0])
    # a covered point in the same batch is unaffected
    both = np.vstack([centers[0], far[0]])
    rep2 = evaluate_report(model, both)
    assert rep2.uncovered == 1
    assert rep2.values[1] == report.values[0]
    # the fallback pairs merge into the covered pairs' (ball, row) order
    mix = np.vstack([far, centers[:4], [[0.9, 0.1, 0.8]], centers[4:]])
    owner, ids, w, covered = blend_weights(model, mix)
    assert (np.diff(ids * len(mix) + owner) > 0).all()
    assert np.flatnonzero(~covered).tolist() == [0, 5]


def test_blend_weights_uncovered_tie_takes_lower_id():
    pts = generate(HaltonConfig(100))
    centers = np.array([[0.1, 0.1, 0.1], [0.1, 0.1, 0.1], [0.05, 0.05, 0.05]])
    model = fit(pts, np.ones(100),
                _config(d=3, centers=centers),
                search="no_cube")
    ids, w, covered = _blend1(model, (0.9, 0.9, 0.9))
    assert not covered and np.array_equal(ids, [0]) and np.array_equal(w, [1.0])


def test_evaluate_coincident_center_value():
    pts = generate(HaltonConfig(150))
    vals = pts[:, 0] ** 2
    centers = np.array([[0.3, 0.3, 0.3], [0.7, 0.7, 0.7]])
    model = fit(pts, vals, _config(d=2, centers=centers),
                search="no_cube")
    p = np.array([0.3, 0.3, 0.3])
    assert evaluate(model, p) == _local(model, 0, p)


def test_evaluate_validates_domain(model_1000):
    with pytest.raises(OutOfDomainError):
        evaluate(model_1000, (0.5, 0.5, 1.2))
    with pytest.raises(OutOfDomainError):
        evaluate_batch(model_1000, [(0.2, 0.2, 0.2), (np.nan, 0.5, 0.5)])


def test_evaluate_empty_batch(model_1000):
    report = evaluate_report(model_1000, np.zeros((0, 3)))
    assert report.values.shape == (0,)
    assert report.uncovered == 0


@pytest.mark.parametrize("search", pu.SEARCH_MODES)
def test_fit_builds_one_index_over_the_centers(nodes_1000, search, monkeypatch):
    # capture and evaluation share the index: a cube fit builds it once, a
    # scan fit never, and evaluation builds nothing
    built = []
    real = cube_index.build
    monkeypatch.setattr(cube_index, "build",
                        lambda points, params: built.append(points) or real(points, params))
    pts, vals = nodes_1000
    model = fit(pts, vals, _config(), search=search)
    evaluate_batch(model, generate(HaltonConfig(50)))
    assert len(built) == (search == "cube")
    assert np.array_equal(model.center_index.points, model.centers)
    assert not hasattr(model, "node_index")


def test_fit_deterministic(nodes_1000):
    pts, vals = nodes_1000
    a = fit(pts, vals, _config())
    b = fit(pts, vals, _config())
    assert np.array_equal(a.coefficients, b.coefficients)


# ---------------------------------------------------------------- batched search guard

CANONICAL = (("g", 2.7), ("m4", 2.6), ("w4", 0.54))


@pytest.fixture(scope="module")
def lattice_blends():
    """4913 nodes, 512 balls: the 41^3 lattice with every point's blend
    written out from its own scan of the centers, as (point, ball, weight)
    triples in point-major order, and a cache for the reference values of
    each kernel."""
    nodes = generate(HaltonConfig(4913))
    geo = fit_geometry(nodes, f1(nodes), _config(d=512), search="no_cube")
    lattice = eval_grid(41)
    rows = [_blend_by_hand(geo, p) for p in lattice]
    blends = (np.repeat(np.arange(len(rows)), [ids.size for ids, _, _ in rows]),
              np.concatenate([ids for ids, _, _ in rows]),
              np.concatenate([w for _, w, _ in rows]))
    uncovered = sum(not covered for _, _, covered in rows)
    return nodes, lattice, blends, uncovered, {}


def _reference_values(model, pts, blends):
    """Values from per-point blends: each ball's local interpolant at the
    points it serves (local_values is row-independent), then num and den
    summed one ball at a time in each point's ascending ball order."""
    owner, ids, w = blends
    local = np.empty(ids.size)
    by_ball = np.argsort(ids, kind="stable")
    for at in np.split(by_ball, np.flatnonzero(np.diff(ids[by_ball])) + 1):
        ball = _ball(model, ids[at[0]])
        local[at] = local_values(model.config.kernel, model.points[model.node_ids[ball]],
                                 model.coefficients[ball], pts[owner[at]])
    rank = np.arange(ids.size) - np.searchsorted(owner, owner)  # place in the point's run
    num = np.zeros(len(pts))
    den = np.zeros(len(pts))
    for t in range(rank.max() + 1):
        at = rank == t
        num[owner[at]] += w[at] * local[at]
        den[owner[at]] += w[at]
    return num / den


@pytest.mark.parametrize("search", pu.SEARCH_MODES)
def test_batched_search_matches_per_point_queries(search, lattice_blends):
    # 4913/512 at the canonical shapes: capture against a numpy scan of the
    # nodes for every ball, the 41^3 lattice against per-point blends, single
    # points against the batch
    nodes, lattice, blends, uncovered, reference = lattice_blends
    values = f1(nodes)
    geo = fit_geometry(nodes, values, _config(d=512), search=search)
    capped = fit_geometry(nodes, values, _config(d=512, m_max=60), search=search)
    for j, c in enumerate(geo.centers):
        diff = nodes - c
        d2 = (diff * diff).sum(axis=1)
        ids = np.flatnonzero(d2 <= geo.radius * geo.radius)
        assert np.array_equal(geo.node_ids[_ball(geo, j)], ids)
        assert np.array_equal(capped.node_ids[_ball(capped, j)],
                              np.sort(ids[np.lexsort((ids, d2[ids]))[:60]]))
    sample = np.arange(0, len(lattice), 331)
    for family, shape in CANONICAL:
        model = refit_kernel(geo, KernelSpec(family, shape))
        if family not in reference:
            reference[family] = _reference_values(model, lattice, blends)
        report = evaluate_report(model, lattice)
        assert report.uncovered == uncovered
        assert np.array_equal(report.values, reference[family])
        single = [evaluate(model, p) for p in lattice[sample]]
        assert np.array_equal(single, report.values[sample])
        # all groups on their own call, or all in the flat pass, chunk by
        # chunk: the same bits (every 13th lattice point, as one flat batch)
        for work, chunk in ((0, 10**9), (10**9, 1), (10**9, 10**9)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pu, "FLAT_GROUP_WORK", work)
                mp.setattr(pu, "DISTANCE_CHUNK", chunk)
                single = [evaluate(model, p) for p in lattice[sample]]
                assert np.array_equal(single, report.values[sample])
                if chunk > 1:
                    got = evaluate_report(model, lattice[::13])
                    assert np.array_equal(got.values, report.values[::13])
