import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubepu import pu
from cubepu.errors import (
    DegenerateGridWarning,
    EmptySubdomainError,
    OutOfDomainError,
)
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
from cubepu.rbf import KernelSpec, LocalCoefficients, local_values


def _config(family="m4", shape=2.6, d=125, **kw):
    return PUConfig(kernel=KernelSpec(family, shape), subdomain_count=d, **kw)


def _local(model, j, p):
    """R_j, the solved local interpolant of subdomain j, at the single point p."""
    sd = model.subdomains[j]
    return local_values(model.config.kernel, model.points[sd.node_ids],
                        sd.coefficients.coefficients,
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
    c = make_centers(_config(d=8, center_source="grid"))
    assert c.shape == (8, 3)
    assert np.array_equal(c[0], [0.25, 0.25, 0.25])
    assert np.array_equal(c[1], [0.75, 0.25, 0.25])
    assert np.array_equal(c[7], [0.75, 0.75, 0.75])
    # non-cube count truncates the lattice
    assert make_centers(_config(d=5, center_source="grid")).shape == (5, 3)


def test_make_centers_explicit_passthrough():
    pts = np.array([[0.2, 0.2, 0.2], [0.8, 0.8, 0.8]])
    c = make_centers(_config(d=2, center_source="explicit", centers=pts))
    assert np.array_equal(c, pts)
    with pytest.raises(ValueError):
        _config(d=2, center_source="explicit")  # centers missing


# ---------------------------------------------------------------- fit

def test_fit_single_node_single_subdomain():
    with pytest.warns(DegenerateGridWarning):
        model = fit([(0.5, 0.5, 0.5)], [4.2], _config(d=1))
    assert len(model.subdomains) == 1
    sd = model.subdomains[0]
    assert np.array_equal(sd.node_ids, [0])
    # phi(0) = 3 for m4: single-site coefficient is f / phi(0)
    assert sd.coefficients.coefficients == pytest.approx([1.4])
    # with one subdomain the blend carries weight 1: evaluate == R_1 everywhere
    p = (0.9, 0.1, 0.4)
    assert evaluate(model, p) == _local(model, 0, p)


def test_fit_subdomain_population_4913():
    pts = generate(HaltonConfig(4913))
    vals = np.sin(pts.sum(axis=1))
    geo = fit_geometry(pts, vals, _config(d=512))
    assert len(geo.subdomains) == 512
    sizes = np.array([sd.node_ids.size for sd in geo.subdomains])
    assert sizes.min() >= 1
    # n * (4/3) pi r^3 = 113.7 expected nodes for an interior ball; boundary
    # clipping drags the global mean down
    assert 70 <= sizes.mean() <= 130
    r = geo.radius
    interior = np.array([((c >= r) & (c <= 1 - r)).all() for c in geo.centers])
    assert 95 <= sizes[interior].mean() <= 130
    for sd in geo.subdomains[::37]:
        assert (np.diff(sd.node_ids) > 0).all()
        d2 = ((pts[sd.node_ids] - sd.center) ** 2).sum(axis=1)
        assert (d2 <= r * r + 1e-15).all()


def test_fit_m_max_keeps_nearest(nodes_1000):
    pts, vals = nodes_1000
    geo = fit_geometry(pts, vals, _config(d=64, m_max=20))
    full = fit_geometry(pts, vals, _config(d=64))
    for sd_cap, sd_full in zip(geo.subdomains, full.subdomains):
        assert sd_cap.node_ids.size <= 20
        if sd_full.node_ids.size <= 20:
            assert np.array_equal(sd_cap.node_ids, sd_full.node_ids)
            continue
        # reference: sort all captured ids by (distance, id), keep 20
        ids = sd_full.node_ids
        d2 = ((pts[ids] - sd_cap.center) ** 2).sum(axis=1)
        want = np.sort(ids[np.lexsort((ids, d2))[:20]])
        assert np.array_equal(sd_cap.node_ids, want)


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


def test_fit_empty_subdomain_raises():
    rng = np.random.default_rng(0)
    corner = rng.random((50, 3)) * 0.1  # all nodes in one corner
    vals = np.ones(50)
    with pytest.raises(EmptySubdomainError) as exc:
        fit(corner, vals, _config(d=512))
    assert 0 <= exc.value.subdomain_id < 512
    assert len(exc.value.center) == 3


def test_fit_explicit_centers_validated():
    pts = generate(HaltonConfig(100))
    vals = np.ones(100)
    bad = np.array([[0.5, 0.5, 0.5], [1.2, 0.5, 0.5]])
    with pytest.raises(OutOfDomainError):
        fit(pts, vals, _config(d=2, center_source="explicit", centers=bad),
            search="no_cube")
    with pytest.raises(ValueError, match="centers"):
        fit(pts, vals,
            _config(d=3, center_source="explicit",
                    centers=np.array([[0.5, 0.5, 0.5]])),
            search="no_cube")


def test_refit_kernel_reuses_geometry(nodes_1000):
    pts, vals = nodes_1000
    geo = fit_geometry(pts, vals, _config("w4", 0.54))
    assert geo.subdomains[0].coefficients is None
    with pytest.raises(RuntimeError):
        evaluate(geo, (0.5, 0.5, 0.5))
    solved = refit_kernel(geo, KernelSpec("w4", 0.7))
    assert geo.subdomains[0].coefficients is None  # original untouched
    assert solved.config.kernel.shape == 0.7
    for sd_g, sd_s in zip(geo.subdomains, solved.subdomains):
        assert sd_g.node_ids is sd_s.node_ids  # geometry shared, not copied
    # refit after changing nothing reproduces the direct fit exactly
    direct = fit(pts, vals, _config("w4", 0.7))
    for sd_a, sd_b in zip(solved.subdomains, direct.subdomains):
        assert np.array_equal(sd_a.coefficients.coefficients,
                              sd_b.coefficients.coefficients)


# ---------------------------------------------------------------- weights

def test_shepard_weights_basic(model_1000):
    # covering balls weigh 1/distance, ascending ids
    p = np.array([0.5, 0.5, 0.5])
    ids, w, covered = blend_weights(model_1000, p)
    assert covered and ids.size > 0 and (np.diff(ids) > 0).all()
    dist = np.sqrt(((model_1000.centers[ids] - p) ** 2).sum(axis=1))
    assert np.array_equal(w, 1.0 / dist)
    assert (dist <= model_1000.radius).all()


def test_shepard_weights_equidistant_pair():
    pts = generate(HaltonConfig(100))
    centers = np.array([[0.25, 0.5, 0.5], [0.75, 0.5, 0.5]])
    model = fit(pts, np.ones(100),
                _config(d=2, center_source="explicit", centers=centers),
                search="no_cube")
    ids, w, covered = blend_weights(model, (0.5, 0.5, 0.5))
    assert covered and np.array_equal(ids, [0, 1])
    assert np.array_equal(w / w.sum(), [0.5, 0.5])  # both distances are exactly 0.25


def test_shepard_weights_coincident_center():
    pts = generate(HaltonConfig(100))
    centers = np.array([[0.3, 0.3, 0.3], [0.6, 0.6, 0.6], [0.9, 0.9, 0.9]])
    model = fit(pts, np.ones(100),
                _config(d=3, center_source="explicit", centers=centers),
                search="no_cube")
    ids, w, covered = blend_weights(model, (0.6, 0.6, 0.6))
    assert covered and np.array_equal(ids, [1]) and np.array_equal(w, [1.0])
    # two coincident centers split the weight; the other covering ball drops out
    centers2 = np.array([[0.4, 0.4, 0.4], [0.4, 0.4, 0.4], [0.8, 0.8, 0.8]])
    model2 = fit(pts, np.ones(100),
                 _config(d=3, center_source="explicit", centers=centers2),
                 search="no_cube")
    assert model2.center_index.query((0.4, 0.4, 0.4), model2.radius).size == 3
    ids2, w2, covered2 = blend_weights(model2, (0.4, 0.4, 0.4))
    assert covered2 and np.array_equal(ids2, [0, 1])
    assert np.array_equal(w2 / w2.sum(), [0.5, 0.5])


@settings(max_examples=80, deadline=None)
@given(st.tuples(*[st.floats(0.0, 1.0, allow_subnormal=False)] * 3))
def test_shepard_weights_sum_to_one(model_1000, p):
    ids, w, covered = blend_weights(model_1000, p)
    assert ids.size == w.size >= 1
    w = w / w.sum()
    assert abs(w.sum() - 1.0) <= 1e-12
    assert (w >= 0.0).all() and (w <= 1.0).all()
    if not covered:
        assert w.size == 1


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


def test_evaluate_batch_matches_scalar_bitwise(model_1000, monkeypatch):
    # covered points, points on a center and one point outside every ball,
    # all in one batch
    rng = np.random.default_rng(31)
    outside = np.array([[0.62, 1.0, 1.0]])
    pts = np.vstack([rng.random((40, 3)), model_1000.centers, outside])
    report = evaluate_report(model_1000, pts)
    assert report.uncovered == 1
    assert not blend_weights(model_1000, outside[0])[2]
    batch = report.values
    single = np.array([evaluate(model_1000, p) for p in pts])
    assert np.array_equal(batch, single)
    # reference: the blend written out point by point, ascending subdomain ids
    for p, got in zip(pts, batch):
        num = den = 0.0
        for j, w in zip(*blend_weights(model_1000, p)[:2]):
            num += w * _local(model_1000, j, p)
            den += w
        assert got == num / den
    # rows of a batch do not depend on what else shares the batch or its block
    assert np.array_equal(evaluate_batch(model_1000, pts[:13]), batch[:13])
    monkeypatch.setattr(pu, "BLEND_BLOCK", 7)
    blocked = evaluate_report(model_1000, pts)
    assert np.array_equal(blocked.values, batch) and blocked.uncovered == 1


def test_evaluate_search_mode_invariance(nodes_1000):
    pts, vals = nodes_1000
    cube = fit(pts, vals, _config(d=64))
    scan = fit(pts, vals, _config(d=64), search="no_cube")
    for sd_c, sd_s in zip(cube.subdomains, scan.subdomains):
        assert np.array_equal(sd_c.node_ids, sd_s.node_ids)
        assert np.array_equal(sd_c.coefficients.coefficients,
                              sd_s.coefficients.coefficients)
    probe = generate(HaltonConfig(200, bases=(17, 19, 23)))
    assert np.array_equal(evaluate_batch(cube, probe), evaluate_batch(scan, probe))


def test_evaluate_locality(model_1000):
    p = np.array([[0.1, 0.2, 0.1]])
    covering = set(blend_weights(model_1000, p[0])[0].tolist())
    far_j = next(j for j in range(len(model_1000.subdomains)) if j not in covering)
    before = evaluate_batch(model_1000, p)[0]
    # corrupt a subdomain the point does not touch: value must not move a bit
    tampered = [
        replace(sd, coefficients=LocalCoefficients(
            sd.coefficients.coefficients * 7.0, sd.coefficients.condition_estimate))
        if j == far_j else sd
        for j, sd in enumerate(model_1000.subdomains)
    ]
    model_t = replace(model_1000, subdomains=tampered)
    assert evaluate_batch(model_t, p)[0] == before
    # corrupting a covering subdomain must move it (sanity of the setup)
    near_j = next(iter(covering))
    tampered2 = [
        replace(sd, coefficients=LocalCoefficients(
            sd.coefficients.coefficients * 7.0, sd.coefficients.condition_estimate))
        if j == near_j else sd
        for j, sd in enumerate(model_1000.subdomains)
    ]
    assert evaluate_batch(replace(model_1000, subdomains=tampered2), p)[0] != before


def test_evaluate_uncovered_fallback():
    rng = np.random.default_rng(5)
    nodes = rng.random((300, 3))
    vals = nodes.sum(axis=1)
    centers = 0.05 + 0.1 * rng.random((8, 3))   # all in one corner
    model = fit(nodes, vals, _config(d=8, center_source="explicit", centers=centers))
    far = np.array([[1.0, 1.0, 1.0]])
    report = evaluate_report(model, far)
    assert report.uncovered == 1
    d2 = ((model.centers - far[0]) ** 2).sum(axis=1)
    j = int(np.argmin(d2))
    ids, w, covered = blend_weights(model, far[0])
    assert not covered and np.array_equal(ids, [j]) and np.array_equal(w, [1.0])
    assert report.values[0] == _local(model, j, far[0])
    # a covered point in the same batch is unaffected
    both = np.vstack([centers[0], far[0]])
    rep2 = evaluate_report(model, both)
    assert rep2.uncovered == 1
    assert rep2.values[1] == report.values[0]


def test_blend_weights_uncovered_tie_takes_lower_id():
    pts = generate(HaltonConfig(100))
    centers = np.array([[0.1, 0.1, 0.1], [0.1, 0.1, 0.1], [0.05, 0.05, 0.05]])
    model = fit(pts, np.ones(100),
                _config(d=3, center_source="explicit", centers=centers),
                search="no_cube")
    ids, w, covered = blend_weights(model, (0.9, 0.9, 0.9))
    assert not covered and np.array_equal(ids, [0]) and np.array_equal(w, [1.0])


def test_evaluate_coincident_center_value():
    pts = generate(HaltonConfig(150))
    vals = pts[:, 0] ** 2
    centers = np.array([[0.3, 0.3, 0.3], [0.7, 0.7, 0.7]])
    model = fit(pts, vals, _config(d=2, center_source="explicit", centers=centers),
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


def test_fit_deterministic(nodes_1000):
    pts, vals = nodes_1000
    a = fit(pts, vals, _config())
    b = fit(pts, vals, _config())
    for sd_a, sd_b in zip(a.subdomains, b.subdomains):
        assert np.array_equal(sd_a.coefficients.coefficients,
                              sd_b.coefficients.coefficients)
