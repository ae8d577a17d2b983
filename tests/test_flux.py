"""Flux models: evaluation, gradient-slot Jacobians, structure checks."""

import warnings

import numpy as np
import pytest

from slabflow import (
    FluxModel,
    JacobianSingularError,
    SlabflowError,
    check_structure,
    parse_expr,
)
from slabflow.flux import _diag_jacobian_many, _dz_many, _offdiag_jacobian_many, evaluate_many

FLUX_VARS = ("t", "x", "y", "z", "xi1", "xi2")


def flux_at(flux, t, x, z, xi):
    """A(t, x, z, xi) at one point: ``evaluate_many`` on a batch of one."""
    return evaluate_many(flux, t, np.atleast_2d(x), np.array([z], dtype=float), np.atleast_2d(xi))[0]


def kernel_jacobian(flux, t, x, z, xi):
    """dA/dxi at many points, (n, dim, dim), from the solver's kernels."""
    dim = xi.shape[1]
    J = np.empty((len(xi), dim, dim))
    for a in range(dim):
        for b in range(dim):
            J[:, a, b] = (_diag_jacobian_many(flux, t, x, z, xi, a) if a == b
                          else _offdiag_jacobian_many(flux, t, x, z, xi, a, b))
    return J


def jacobian_at(flux, xi, z=0.0):
    """dA/dxi from the kernels at one point (t = 0, x = 0), (dim, dim)."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    return kernel_jacobian(flux, 0.0, np.zeros_like(xi), np.array([z]), xi)[0]


def central_jacobian(flux, t, x, z, xi):
    """dA/dxi at many points by central differences of ``evaluate_many``,
    with a per-point step of 1e-4 times the radial scale (|xi|^2 + eps_reg^2)^(1/2)."""
    step = 1e-4 * np.sqrt(np.sum(xi * xi, axis=1) + flux.eps_reg**2) + 1e-12
    J = np.empty((len(xi), xi.shape[1], xi.shape[1]))
    for b in range(xi.shape[1]):
        hi, lo = xi.copy(), xi.copy()
        hi[:, b] += step
        lo[:, b] -= step
        J[:, :, b] = (evaluate_many(flux, t, x, z, hi) - evaluate_many(flux, t, x, z, lo)) / (2 * step)[:, None]
    return J


def test_linear_flux_is_identity():
    flux = FluxModel.linear_diffusion(dim=2)
    xi = np.array([0.3, -0.7])
    out = flux_at(flux, 0.0, (0.0, 0.0), 0.0, xi)
    assert np.allclose(out, xi, atol=0, rtol=0)


def test_p4_flux_formula():
    # p = 4 without regularisation: |xi|^2 xi
    flux = FluxModel.p_laplacian(4.0, dim=2, eps_reg=0.0)
    xi = np.array([1.0, 2.0])
    out = flux_at(flux, 0.0, (0.0, 0.0), 0.0, xi)
    assert np.allclose(out, 5.0 * xi, rtol=1e-15)


def test_zero_gradient_maps_to_zero_for_all_builtins():
    for flux in (
        FluxModel.linear_diffusion(dim=1),
        FluxModel.p_laplacian(1.5, dim=1),
        FluxModel.p_laplacian(3.0, dim=2),
        FluxModel.z_modulated(2.0, dim=2),
    ):
        zero = np.zeros(flux.dim)
        out = flux_at(flux, 0.3, (0.1,) * flux.dim, 0.7, zero)
        assert np.all(out == 0.0)


def test_p_must_exceed_one():
    with pytest.raises(SlabflowError) as err:
        FluxModel.p_laplacian(1.0, dim=1)
    assert "p must exceed 1" in str(err.value)
    with pytest.raises(SlabflowError):
        FluxModel.p_laplacian(0.5, dim=1)


def test_rotation_equivariance_of_isotropic_flux():
    """A(R xi) = R A(xi) for rotation matrices R."""
    flux = FluxModel.p_laplacian(3.0, dim=2)
    rng = np.random.default_rng(5)
    for _ in range(20):
        theta = rng.uniform(0, 2 * np.pi)
        R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        xi = rng.normal(size=2)
        lhs = flux_at(flux, 0.0, (0.0, 0.0), 0.0, R @ xi)
        rhs = R @ flux_at(flux, 0.0, (0.0, 0.0), 0.0, xi)
        assert np.allclose(lhs, rhs, atol=1e-14)


def test_custom_flux_matches_expression():
    comp = parse_expr("(1 + t)*xi1", FLUX_VARS)
    flux = FluxModel.custom([comp], p=2.0, dim=1, growth_c=2.0, coercivity_alpha=1.0)
    out = flux_at(flux, 0.5, (0.2,), 0.0, np.array([2.0]))
    assert out[0] == pytest.approx(3.0)


def test_regularisation_error_is_second_order():
    """The smoothing parameter perturbs the flux by O(eps^2)."""
    xi = np.array([1.0])
    exact = flux_at(FluxModel.p_laplacian(3.0, dim=1, eps_reg=0.0), 0.0, (0.0,), 0.0, xi)
    errs = []
    for eps in (1e-2, 5e-3, 2.5e-3):
        smoothed = flux_at(FluxModel.p_laplacian(3.0, dim=1, eps_reg=eps), 0.0, (0.0,), 0.0, xi)
        errs.append(abs(float(smoothed[0] - exact[0])))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)


# --- Jacobians ---------------------------------------------------------------
# The solver's kernels, checked against exact values and against central
# differences of evaluate_many, the independent reference.


def test_jacobian_p4_reference_point():
    flux = FluxModel.p_laplacian(4.0, dim=2, eps_reg=0.0)
    J = jacobian_at(flux, (1.0, 0.0))
    assert np.allclose(J, [[3.0, 0.0], [0.0, 1.0]], atol=1e-14)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_jacobian_matches_finite_differences(p):
    flux = FluxModel.p_laplacian(p, dim=2)
    rng = np.random.default_rng(int(10 * p))
    for _ in range(10):
        xi = rng.normal(size=2)
        J = jacobian_at(flux, xi)
        step = 1e-6 * (1 + np.linalg.norm(xi))
        fd = np.zeros((2, 2))
        for k in range(2):
            dxi = np.zeros(2)
            dxi[k] = step
            hi = flux_at(flux, 0.0, (0.0, 0.0), 0.0, xi + dxi)
            lo = flux_at(flux, 0.0, (0.0, 0.0), 0.0, xi - dxi)
            fd[:, k] = (hi - lo) / (2 * step)
        assert np.allclose(J, fd, rtol=1e-5, atol=1e-7)


def test_jacobian_at_zero_gradient():
    # p = 2: identity; p > 2: zero matrix; p < 2 unregularised: singular
    J2 = jacobian_at(FluxModel.linear_diffusion(dim=2), (0.0, 0.0))
    assert np.allclose(J2, np.eye(2))
    J4 = jacobian_at(FluxModel.p_laplacian(4.0, dim=2, eps_reg=0.0), (0.0, 0.0))
    assert np.allclose(J4, 0.0)
    with pytest.raises(JacobianSingularError):
        jacobian_at(FluxModel.p_laplacian(1.5, dim=1, eps_reg=0.0), (0.0,))


def test_custom_jacobian_uses_finite_differences():
    comp = parse_expr("xi1^3", FLUX_VARS)
    flux = FluxModel.custom([comp], p=4.0, dim=1, growth_c=1.0, coercivity_alpha=1.0)
    J = jacobian_at(flux, (2.0,))
    assert J[0, 0] == pytest.approx(12.0, rel=1e-6)


def custom_z_flux(dim):
    """A custom p = 3 flux that reads z and couples the gradient slots."""
    norm = "(xi1^2 + xi2^2 + 1e-8)^0.5" if dim == 2 else "(xi1^2 + 1e-8)^0.5"
    comps = [parse_expr(f"(1 + 0.5*sin(z)^2)*{norm}*xi{i + 1}", FLUX_VARS) for i in range(dim)]
    return FluxModel.custom(comps, p=3.0, dim=dim)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize(
    "make_flux",
    [
        lambda dim: FluxModel.p_laplacian(3.0, dim=dim, eps_reg=0.0),
        FluxModel.linear_diffusion,
        lambda dim: FluxModel.z_modulated(1.5, dim=dim),
        custom_z_flux,
    ],
    ids=["p_laplacian", "linear_diffusion", "z_modulated", "custom"],
)
def test_solver_kernels_match_the_pointwise_jacobian(make_flux, dim):
    """The Newton stencil's d(A_a)/d(xi_a) and d(A_a)/d(xi_b) are the central
    differences of the flux in its gradient slots, and its dA/dz is the one
    in the solution slot."""
    flux = make_flux(dim)
    rng = np.random.default_rng(17)
    n = 40
    x = rng.uniform(-1.0, 1.0, (n, dim))
    z = rng.uniform(-2.0, 2.0, n)
    xi = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-4, 2, (n, 1))
    xi[0] = 0.0  # with eps_reg = 0 this takes the s = 0 limits
    eps = 1e-6
    fhi, flo = (evaluate_many(flux, 0.3, x, z + dz, xi) for dz in (eps, -eps))
    dz_ref = (fhi - flo) / (2 * eps)
    # atol: a custom kernel differences with the step FD_STEP near xi = 0, where
    # this custom flux varies on the scale 1e-4 (error up to 7.4e-9 on 1.5e-4)
    assert np.allclose(kernel_jacobian(flux, 0.3, x, z, xi), central_jacobian(flux, 0.3, x, z, xi),
                       rtol=1e-6, atol=1e-8)
    for a in range(dim):
        assert np.allclose(_dz_many(flux, 0.3, x, z, xi, a), dz_ref[:, a], rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize(
    "flux,z,xi",
    [
        (FluxModel.p_laplacian(2.0), 0.3, 1e160),
        (FluxModel.z_modulated(2.0), 0.3, 1e160),
        (FluxModel.p_laplacian(2.0, eps_reg=0.0), 0.0, 1e-160),
    ],
    ids=["p_laplacian_huge_xi", "z_modulated_huge_xi", "unregularised_tiny_xi"],
)
def test_p2_jacobian_is_exactly_the_modulation(flux, z, xi):
    """For p = 2 the gradient slot is linear, dA/dxi = m(z) I, at any xi:
    no overflow of |xi|^2 and no 0 * inf turns it into NaN."""
    m = 1.0 + 0.5 * np.sin(z) ** 2 if flux.kind == "z_modulated" else 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        diag = _diag_jacobian_many(flux, 0.0, np.zeros((1, 1)), np.array([z]), np.array([[xi]]), 0)
    assert diag.tolist() == [m]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize(
    "make_flux,constant",
    [
        (lambda dim: FluxModel.linear_diffusion(dim=dim), True),
        (lambda dim: FluxModel.p_laplacian(2.0, dim=dim), True),
        (lambda dim: FluxModel.p_laplacian(3.0, dim=dim), False),
        (lambda dim: FluxModel.z_modulated(2.0, dim=dim), False),
        (lambda dim: FluxModel.custom([parse_expr(f"xi{a + 1}", FLUX_VARS) for a in range(dim)],
                                      p=2.0, dim=dim), False),
    ],
    ids=["linear_diffusion", "p_laplacian_p2", "p_laplacian_p3", "z_modulated_p2", "custom_linear"],
)
def test_only_a_p2_builtin_without_z_modulation_has_a_constant_jacobian(make_flux, constant, dim):
    """The property is read off the flux law; where it holds, the solver's
    kernels give dA/dxi = I and dA/dz = 0 exactly at every point."""
    flux = make_flux(dim)
    assert flux.constant_jacobian is constant
    if constant:
        rng = np.random.default_rng(4)
        x, z, xi = rng.normal(size=(50, dim)), rng.normal(size=50) * 10, rng.normal(size=(50, dim)) * 1e3
        assert np.array_equal(kernel_jacobian(flux, 0.7, x, z, xi), np.broadcast_to(np.eye(dim), (50, dim, dim)))
        assert all(np.array_equal(_dz_many(flux, 0.7, x, z, xi, a), np.zeros(50)) for a in range(dim))


def test_jacobian_is_symmetric_for_gradient_fluxes():
    flux = FluxModel.p_laplacian(3.0, dim=2)
    rng = np.random.default_rng(9)
    for _ in range(10):
        xi = rng.normal(size=2)
        J = jacobian_at(flux, xi)
        assert np.allclose(J, J.T, atol=1e-12)


# --- structure checks ----------------------------------------------------------


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_p_laplacian_satisfies_structure(p):
    report = check_structure(FluxModel.p_laplacian(p, dim=1), samples=3000, seed=0)
    assert report.passed, report.summary_lines()


def test_z_modulated_satisfies_structure():
    report = check_structure(FluxModel.z_modulated(2.0, dim=2), samples=3000, seed=0)
    assert report.passed, report.summary_lines()


def test_adversarial_flux_fails_the_right_conditions():
    comp = parse_expr("-xi1", FLUX_VARS)
    flux = FluxModel.custom([comp], p=2.0, dim=1, growth_c=1.0, coercivity_alpha=1.0)
    report = check_structure(flux, samples=3000, seed=1)
    assert not report.passed
    assert not report.conditions["coercivity"].passed
    assert not report.conditions["monotonicity"].passed
    assert report.conditions["growth"].passed


def test_structure_check_is_seeded():
    flux = FluxModel.p_laplacian(3.0, dim=1)
    a = check_structure(flux, samples=500, seed=42)
    b = check_structure(flux, samples=500, seed=42)
    for name in a.conditions:
        assert a.conditions[name].margin == b.conditions[name].margin


def test_structure_report_lines_are_printable():
    report = check_structure(FluxModel.linear_diffusion(dim=1), samples=200, seed=0)
    lines = report.summary_lines()
    assert any("coercivity" in line for line in lines)
    assert all(("PASS" in line or "FAIL" in line) for line in lines if "margin" in line)


def test_undersized_growth_constant_is_caught():
    # |A| = 2|xi| declared with c = 1 must fail the growth condition
    comp = parse_expr("2*xi1", FLUX_VARS)
    flux = FluxModel.custom([comp], p=2.0, dim=1, growth_c=1.0, coercivity_alpha=1.0)
    report = check_structure(flux, samples=2000, seed=3)
    assert not report.conditions["growth"].passed
    assert report.conditions["monotonicity"].passed


def test_a_declared_time_modulus_covers_a_time_dependent_flux():
    """A = (1 + sin(t)/2) xi moves by at most |t - s|/2 |xi| in time: omega = r/2
    covers that, and without omega the continuity condition fails."""
    comp = [parse_expr("(1 + 0.5*sin(t))*xi1", FLUX_VARS)]
    for omega, passed in ((parse_expr("0.5*r", ("r",)), True), (None, False)):
        flux = FluxModel.custom(comp, p=2.0, growth_c=1.5, coercivity_alpha=0.5, time_modulus=omega)
        report = check_structure(flux, samples=3000, seed=0)
        assert report.conditions["continuity"].passed is passed
        assert all(c.passed for name, c in report.conditions.items() if name != "continuity")
