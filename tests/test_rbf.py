import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from cubepu.errors import SingularSystemError
from cubepu.rbf import (
    ILL_CONDITION_LIMIT,
    KernelSpec,
    assemble,
    kernel_value,
    local_values,
    solve_local,
)

shape_st = st.floats(0.1, 10.0, allow_subnormal=False)
family_st = st.sampled_from(("g", "m4", "w4"))


# ---------------------------------------------------------------- kernels

def test_kernel_values_at_zero():
    assert kernel_value(KernelSpec("g", 2.7), 0.0) == 1.0
    assert kernel_value(KernelSpec("m4", 2.6), 0.0) == 3.0
    assert kernel_value(KernelSpec("w4", 0.54), 0.0) == 3.0
    assert kernel_value(KernelSpec("m4", 9.0), 0.0) == 3.0


def test_kernel_gaussian_formula():
    # exp(-(a r)^2) at a r = 1
    assert kernel_value(KernelSpec("g", 2.0), 0.5) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert kernel_value(KernelSpec("g", 1.0), 2.0) == pytest.approx(math.exp(-4.0), rel=1e-15)


def test_kernel_matern_formula():
    # exp(-a r) ((a r)^2 + 3 a r + 3) at a r = 1
    assert kernel_value(KernelSpec("m4", 1.0), 1.0) == pytest.approx(7 * math.exp(-1.0), rel=1e-15)
    assert kernel_value(KernelSpec("m4", 2.0), 3.0) == pytest.approx(
        math.exp(-6.0) * (36 + 18 + 3), rel=1e-15
    )


def test_kernel_wendland_formula_and_support():
    # (1 - a r)^6 (35 (a r)^2 + 18 a r + 3) at a r = 1/2
    assert kernel_value(KernelSpec("w4", 1.0), 0.5) == pytest.approx(
        0.5 ** 6 * (35 / 4 + 9 + 3), rel=1e-15
    )
    # support edge and beyond: exactly zero from the truncation
    assert kernel_value(KernelSpec("w4", 2.0), 0.5) == 0.0
    assert kernel_value(KernelSpec("w4", 2.0), 0.7) == 0.0
    assert kernel_value(KernelSpec("w4", 0.54), 1 / 0.54) == pytest.approx(0.0, abs=1e-80)
    # just inside the support it is positive
    assert kernel_value(KernelSpec("w4", 2.0), 0.49) > 0.0


@pytest.mark.parametrize("shape", [0.1, 0.54, 1.0, 2.0, 7.3])
def test_kernel_wendland_matches_pow_form(shape):
    # w4 runs without pow; on a dense grid over [0, 1.2/a], the support edge
    # 1/a included, it stays within a few ulps of the textbook expression
    spec = KernelSpec("w4", shape)
    r = np.append(np.linspace(0.0, 1.2 / shape, 2401), 1.0 / shape)
    got = kernel_value(spec, r)
    want = []
    for ri in r:
        ar = shape * float(ri)
        want.append(math.pow(1 - ar, 6) * (35 * ar * ar + 18 * ar + 3) if ar < 1 else 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    assert got[0] == 3.0 and kernel_value(spec, 0.0) == 3.0
    outside = got[shape * r >= 1.0]
    assert outside.size >= 400 and (outside == 0.0).all() and not np.signbit(outside).any()
    for ri in (0.0, 0.5 / shape, 1.1 / shape):
        assert isinstance(kernel_value(spec, ri), float)


@pytest.mark.parametrize("shape", [0.54, 1.0, 2.6, 2.7, 9.0])
def test_kernel_gaussian_and_matern_unchanged(shape):
    # g and m4 are bit for bit the expressions they have always been
    r = np.random.default_rng(4).random((40, 30)) * 3.0
    ar = shape * r
    assert np.array_equal(kernel_value(KernelSpec("g", shape), r), np.exp(-(ar * ar)))
    assert np.array_equal(kernel_value(KernelSpec("m4", shape), r),
                          np.exp(-ar) * (ar * ar + 3.0 * ar + 3.0))


def test_kernel_vectorized_shape():
    r = np.array([[0.0, 0.5], [1.0, 2.0]])
    out = kernel_value(KernelSpec("m4", 1.0), r)
    assert out.shape == (2, 2)
    assert out[0, 0] == 3.0
    assert isinstance(kernel_value(KernelSpec("g", 1.0), 0.3), float)


@given(family_st, shape_st,
       st.floats(0.0, 3.0, allow_subnormal=False),
       st.floats(0.0, 3.0, allow_subnormal=False))
def test_kernel_monotone_and_bounded(family, shape, r1, r2):
    spec = KernelSpec(family, shape)
    lo, hi = sorted((r1, r2))
    v_lo, v_hi = kernel_value(spec, lo), kernel_value(spec, hi)
    assert 0.0 <= v_hi <= v_lo + 1e-12  # a couple of ulps of rounding slack
    assert v_lo <= kernel_value(spec, 0.0) + 1e-12


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("mq", 1.0)
    with pytest.raises(ValueError):
        KernelSpec("g", 0.0)
    with pytest.raises(ValueError):
        KernelSpec("w4", -0.5)
    for shape in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            KernelSpec("g", shape)


# ---------------------------------------------------------------- assembly

def _system(points, values, family="m4", shape=2.6):
    """(points, values, kernel) arguments of one local solve."""
    return (np.asarray(points, dtype=float), np.asarray(values, dtype=float),
            KernelSpec(family, shape))


def _assemble(system):
    points, _, kernel = system
    return assemble(points, kernel)


def _at(system, local, pts):
    """The solved local interpolant at each row of pts."""
    points, _, kernel = system
    return local_values(kernel, points, local.coefficients,
                        np.asarray(pts, dtype=float).reshape(-1, 3))


def test_assemble_single_site():
    phi = _assemble(_system([[0.5, 0.5, 0.5]], [1.0]))
    assert phi.shape == (1, 1) and phi[0, 0] == 3.0


def test_assemble_two_sites():
    sys2 = _system([[0, 0, 0], [1, 0, 0]], [0.0, 0.0], "g", 1.0)
    phi = _assemble(sys2)
    assert phi[0, 0] == phi[1, 1] == 1.0
    assert phi[0, 1] == phi[1, 0] == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_assemble_symmetric_with_constant_diagonal():
    rng = np.random.default_rng(42)
    pts = rng.random((40, 3))
    for family, shape in (("g", 2.7), ("m4", 2.6), ("w4", 0.54)):
        phi = _assemble(_system(pts, np.zeros(40), family, shape))
        assert np.array_equal(phi, phi.T)  # cdist distances are symmetric in kind
        assert (np.diag(phi) == kernel_value(KernelSpec(family, shape), 0.0)).all()


def test_assemble_wendland_sparsity():
    # sites further apart than the support radius 1/a give exact zeros
    pts = np.array([[0.0, 0.0, 0.0], [0.9, 0.0, 0.0], [0.05, 0.0, 0.0]])
    phi = _assemble(_system(pts, np.zeros(3), "w4", 2.0))  # support radius 0.5
    assert phi[0, 1] == 0.0 and phi[1, 0] == 0.0
    assert phi[0, 2] > 0.0


# ---------------------------------------------------------------- solving

def test_solve_single_site():
    sys1 = _system([[0.2, 0.3, 0.4]], [6.0])
    local = solve_local(*sys1)
    assert local.coefficients == pytest.approx([2.0])  # phi(0) = 3
    assert local.condition_estimate == pytest.approx(1.0)
    assert _at(sys1, local, (0.2, 0.3, 0.4))[0] == pytest.approx(6.0)


def test_solve_zero_values_gives_zero_coefficients():
    rng = np.random.default_rng(3)
    sys0 = _system(rng.random((25, 3)), np.zeros(25))
    local = solve_local(*sys0)
    assert np.all(local.coefficients == 0.0)


def test_solve_residual_small_smooth_values():
    # smooth data (what subdomain systems actually carry): residual two orders
    # under the 1e-8 bound whenever the system is not flagged ill-conditioned
    rng = np.random.default_rng(2024)
    checked = 0
    for trial in range(60):
        m = int(rng.integers(1, 81))
        pts = rng.random((m, 3)) * 0.35
        f = np.cos(4.0 * pts[:, 0]) * np.exp(pts[:, 1]) + pts[:, 2] ** 2
        family = ("g", "m4", "w4")[trial % 3]
        shape = {"g": 2.7, "m4": 2.6, "w4": 0.54}[family]
        sys_t = _system(pts, f, family, shape)
        local = solve_local(*sys_t)
        if local.condition_estimate >= ILL_CONDITION_LIMIT:
            continue
        resid = _assemble(sys_t) @ local.coefficients - f
        assert np.abs(resid).max() <= 1e-8 * (1.0 + np.abs(f).max())
        checked += 1
    assert checked >= 30


def test_solve_residual_noise_values_condition_aware():
    # arbitrary right-hand sides: the achievable residual scales with the
    # conditioning (rounding the exact solution already costs ~eps * cond),
    # so the bound must carry the estimate
    rng = np.random.default_rng(2025)
    eps = np.finfo(float).eps
    for trial in range(45):
        m = int(rng.integers(2, 81))
        pts = rng.random((m, 3)) * 0.35
        f = rng.standard_normal(m)
        family = ("g", "m4", "w4")[trial % 3]
        shape = {"g": 2.7, "m4": 2.6, "w4": 0.54}[family]
        sys_t = _system(pts, f, family, shape)
        local = solve_local(*sys_t)
        if not np.isfinite(local.condition_estimate):
            continue
        resid = _assemble(sys_t) @ local.coefficients - f
        bound = max(1e-8, 20.0 * eps * local.condition_estimate) * (1.0 + np.abs(f).max())
        assert np.abs(resid).max() <= bound


def test_solve_interpolates_at_sites():
    rng = np.random.default_rng(7)
    pts = rng.random((30, 3))
    f = np.sin(pts.sum(axis=1) * 3.0)
    sys_i = _system(pts, f, "w4", 0.8)
    local = solve_local(*sys_i)
    at_sites = _at(sys_i, local, pts)
    assert np.abs(at_sites - f).max() <= 1e-9


def test_solve_duplicate_sites_singular():
    pts = np.array([[0.1, 0.2, 0.3], [0.1, 0.2, 0.3], [0.5, 0.5, 0.5]])
    with pytest.raises(SingularSystemError) as exc:
        solve_local(*_system(pts, [1.0, 1.0, 2.0]), subdomain_id=17)
    assert exc.value.subdomain_id == 17
    assert exc.value.size == 3


def test_scale_consistency_power_of_two_exact():
    # scaling the data by 4 scales every solve intermediate exactly
    rng = np.random.default_rng(11)
    pts = rng.random((20, 3))
    f = rng.standard_normal(20)
    base = solve_local(*_system(pts, f))
    scaled = solve_local(*_system(pts, 4.0 * f))
    assert np.array_equal(scaled.coefficients, 4.0 * base.coefficients)
    p = np.array([[0.4, 0.4, 0.4]])
    sys_a, sys_b = _system(pts, f), _system(pts, 4.0 * f)
    assert _at(sys_b, scaled, p)[0] == 4.0 * _at(sys_a, base, p)[0]


def test_scale_consistency_general_factor():
    rng = np.random.default_rng(12)
    pts = rng.random((20, 3))
    f = rng.standard_normal(20)
    base = solve_local(*_system(pts, f, "w4", 0.6))
    scaled = solve_local(*_system(pts, 3.7 * f, "w4", 0.6))
    assert scaled.coefficients == pytest.approx(3.7 * base.coefficients, rel=1e-9)


def test_condition_estimate_grows_with_flatness():
    rng = np.random.default_rng(5)
    pts = rng.random((40, 3)) * 0.3
    sharp = solve_local(*_system(pts, np.ones(40), "g", 6.0)).condition_estimate
    flat = solve_local(*_system(pts, np.ones(40), "g", 1.0)).condition_estimate
    assert flat > sharp >= 1.0


def test_evaluate_local_single_site_formula():
    sys1 = _system([[0.5, 0.5, 0.5]], [6.0], "g", 2.0)
    local = solve_local(*sys1)
    # R(p) = f * phi(r) / phi(0); here phi(0) = 1
    r = math.sqrt(3 * 0.25 ** 2)
    assert _at(sys1, local, (0.25, 0.25, 0.25))[0] == pytest.approx(
        6.0 * math.exp(-(2.0 * r) ** 2), rel=1e-13
    )


def test_evaluate_local_batch_matches_scalar_bitwise():
    rng = np.random.default_rng(8)
    pts = rng.random((15, 3))
    sys_b = _system(pts, rng.standard_normal(15))
    local = solve_local(*sys_b)
    targets = rng.random((9, 3))
    batch = _at(sys_b, local, targets)
    singles = np.array([_at(sys_b, local, t)[0] for t in targets])
    assert np.array_equal(batch, singles)
    # weighting the kernel block in place keeps the row sums of the product
    k = kernel_value(sys_b[2], cdist(targets, pts))
    assert np.array_equal(batch, (k * local.coefficients).sum(axis=1))
