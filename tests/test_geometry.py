import numpy as np
import pytest

from prescurv import mesh as mesh_module
from prescurv.errors import AdmissibilityError, DomainViolation
from prescurv.geometry import (
    check_codazzi_flat,
    check_support_identities,
    compute_geometry,
    extrinsic_shape_operator,
)
from prescurv.mesh import ScalarField, build_mesh, field_from_function
from prescurv.problem import threshold
from prescurv.symm import QuotientOrder, quotient_ratio_batch
from prescurv.warp import WarpProfile

EUCLID = WarpProfile.euclidean((0.0, 10.0))
Q20 = QuotientOrder(2, 0)


def const_field(mesh, value):
    return ScalarField(mesh, np.full(mesh.shape, float(value)))


def shape_operator(geom):
    """The mixed form g^{-1} h per node, as stacked 2x2 blocks (mesh shape + (2, 2))."""
    def blocks(a11, a12, a22):
        return np.stack([np.stack([a11, a12], -1), np.stack([a12, a22], -1)], -2)

    return np.linalg.solve(blocks(geom.g11, geom.g12, geom.g22),
                           blocks(geom.h11, geom.h12, geom.h22))


def test_round_graph_euclidean():
    mesh = build_mesh(32, 64)
    rho = 1.4
    geom = compute_geometry(mesh, const_field(mesh, rho), EUCLID)
    assert np.abs(geom.kappa1 - 1 / rho).max() <= 1e-8
    assert np.abs(geom.kappa2 - 1 / rho).max() <= 1e-8
    assert np.abs(geom.H - 2 / rho).max() <= 1e-8
    assert np.abs(geom.mu1 - 1 / rho).max() <= 1e-8
    assert np.abs(geom.mu2 - 1 / rho).max() <= 1e-8
    assert np.abs(geom.tau - rho).max() <= 1e-12
    # mixed form is the identity over rho
    mixed = shape_operator(geom)
    assert np.abs(mixed - np.eye(2) / rho).max() <= 1e-8


@pytest.mark.parametrize("profile,c", [
    (EUCLID, 1.7),
    (WarpProfile.spherical((0.0, np.pi / 2)), 0.9),
    (WarpProfile.hyperbolic((0.0, 10.0)), 1.2),
    (WarpProfile.custom([0.0, 1.0, 0.0, 1.0 / 6.0], (0.0, 5.0)), 1.0),
])
def test_constant_graph_matches_threshold(profile, c):
    """At r = const the curvature quotient equals the constant-graph threshold."""
    mesh = build_mesh(24, 16)
    geom = compute_geometry(mesh, const_field(mesh, c), profile)
    lam, dlam = profile.eval_lambda(c)
    assert np.abs(geom.mu1 - dlam / lam).max() <= 1e-10
    ratio, ok = quotient_ratio_batch(geom.mu_stack(), Q20)
    assert ok.all()
    assert np.abs(ratio - threshold(lam, dlam)).max() <= 1e-10


@pytest.mark.parametrize("profile", [
    EUCLID,
    WarpProfile.spherical((0.0, np.pi / 2)),
    WarpProfile.hyperbolic((0.0, 10.0)),
    WarpProfile.custom([0.0, 1.0, 0.0, 1.0 / 6.0], (0.0, 5.0)),
], ids=["euclidean", "spherical", "hyperbolic", "custom"])
def test_algebraic_invariants_on_perturbed_graph(profile):
    mesh = build_mesh(48, 32)
    field = field_from_function(mesh, lambda t, p: 1 + 0.1 * np.sin(t) * np.cos(p))
    geom = compute_geometry(mesh, field, profile)
    assert np.abs(geom.tau * geom.v - geom.lam ** 2).max() <= 1e-12
    # H and K from the adjugate of g against the trace and determinant of g^{-1} h
    mixed = shape_operator(geom)
    assert np.all(np.abs(np.trace(mixed, axis1=-2, axis2=-1) - geom.H) <= 1e-12 * np.abs(geom.H))
    assert np.all(np.abs(np.linalg.det(mixed) - geom.K) <= 1e-12 * np.abs(geom.K))
    assert np.abs(geom.mu1 + geom.mu2 - geom.H).max() <= 1e-12
    # principal curvatures are the eigenvalues of g^{-1} h, formed independently
    eig = np.linalg.eigvals(mixed)
    assert np.abs(eig.imag).max() <= 1e-12
    eig = np.sort(eig.real, axis=-1)
    assert np.abs(eig[..., 1] - geom.kappa1).max() <= 1e-10
    assert np.abs(eig[..., 0] - geom.kappa2).max() <= 1e-10
    # g-weighted symmetry of the mixed form
    lhs = geom.g11 * mixed[..., 0, 1] + geom.g12 * mixed[..., 1, 1]
    rhs = geom.g12 * mixed[..., 0, 0] + geom.g22 * mixed[..., 1, 0]
    assert np.abs(lhs - rhs).max() <= 1e-10
    assert geom.v.min() >= geom.lam.min() - 1e-14
    assert np.all(geom.tau > 0) and np.all(geom.tau <= geom.lam + 1e-14)


@pytest.mark.parametrize("shape,expected", [
    ((16, 8), {"dtheta": 2, "dtheta2": 1, "dphi": 1, "dphi2": 1}),
    ((16, None), {"dtheta": 1, "dtheta2": 1, "dphi": 0, "dphi2": 0}),
])
def test_compute_geometry_applies_each_stencil_once(monkeypatch, shape, expected):
    """One geometry pass takes d_theta of r and of r_2, and every other stencil once."""
    calls = dict.fromkeys(expected, 0)
    for name in calls:
        def counted(*args, _name=name, _stencil=getattr(mesh_module, name), **kwargs):
            calls[_name] += 1
            return _stencil(*args, **kwargs)
        monkeypatch.setattr(mesh_module, name, counted)
    mesh = build_mesh(shape[0], shape[1], reduced=shape[1] is None)
    field = field_from_function(mesh, lambda t, p: 1 + 0.1 * np.cos(t) * (1 + np.sin(p)))
    compute_geometry(mesh, field, EUCLID)
    assert calls == expected


def test_orientation_convex_round_graphs():
    mesh = build_mesh(24, 16)
    for rho in (0.7, 1.3, 2.9):
        geom = compute_geometry(mesh, const_field(mesh, rho), EUCLID)
        assert geom.kappa1.min() > 0 and geom.kappa2.min() > 0


def test_domain_violation_propagates():
    mesh = build_mesh(16, 8)
    prof = WarpProfile.euclidean((0.5, 2.0))
    with pytest.raises(DomainViolation):
        compute_geometry(mesh, const_field(mesh, 2.5), prof)


def test_reduced_matches_full_mode():
    # pole-row roundoff amplification (1/sin^2 on azimuthal stencil noise)
    # grows with resolution; 32x64 is the nominal working size
    full = build_mesh(32, 64)
    red = build_mesh(32, reduced=True)
    fn = lambda t: 1 + 0.1 * np.cos(t)
    g_full = compute_geometry(
        full, ScalarField(full, np.broadcast_to(fn(full.theta)[:, None], full.shape).copy()), EUCLID)
    g_red = compute_geometry(red, ScalarField(red, fn(red.theta)), EUCLID)
    for name in ("v", "H", "kappa1", "kappa2", "mu1", "mu2", "tau"):
        a, b = getattr(g_full, name), getattr(g_red, name)
        assert np.abs(a[:, 0] - b).max() <= 1e-10


# -- extrinsic embedding oracle ------------------------------------------------

def test_oracle_round_sphere():
    mesh = build_mesh(192, 96)
    rho = 1.4
    k1, k2 = extrinsic_shape_operator(mesh, const_field(mesh, rho))
    assert np.abs(k1 - 1 / rho).max() <= 1e-8
    assert np.abs(k2 - 1 / rho).max() <= 1e-8


def test_oracle_cross_validates_geometry():
    mesh = build_mesh(64, 32)
    field = field_from_function(mesh, lambda t, p: 1 + 0.05 * np.cos(t))
    geom = compute_geometry(mesh, field, EUCLID)
    k1, k2 = extrinsic_shape_operator(mesh, field)
    assert np.abs(geom.kappa1 - k1).max() <= 1e-5
    assert np.abs(geom.kappa2 - k2).max() <= 1e-5


def test_oracle_translated_sphere_unit_curvature():
    """r(th) = eps cos th + sqrt(1 - eps^2 sin^2 th) is a shifted unit sphere."""
    eps = 0.12
    mesh = build_mesh(64, 128)
    field = field_from_function(
        mesh, lambda t, p: eps * np.cos(t) + np.sqrt(1 - eps ** 2 * np.sin(t) ** 2))
    geom = compute_geometry(mesh, field, EUCLID)
    assert np.abs(geom.kappa1 - 1.0).max() <= 1e-6
    assert np.abs(geom.kappa2 - 1.0).max() <= 1e-6
    k1, k2 = extrinsic_shape_operator(mesh, field)
    assert np.abs(k1 - 1.0).max() <= 1e-6
    assert np.abs(k2 - 1.0).max() <= 1e-6


def test_oracle_ellipsoid_closed_form():
    """Graph of x^2 + y^2 + z^2/4 = 1 against closed-form spheroid curvatures."""
    mesh = build_mesh(128, 128)
    field = field_from_function(
        mesh, lambda t, p: 1.0 / np.sqrt(np.sin(t) ** 2 + np.cos(t) ** 2 / 4))
    geom = compute_geometry(mesh, field, EUCLID)
    th = mesh.theta_grid()
    r = field.values
    w2 = (r * np.cos(th) / 2) ** 2 + 4 * (r * np.sin(th)) ** 2  # a=b=1, c=2
    k_meridian = 2.0 / w2 ** 1.5
    k_parallel = 2.0 / np.sqrt(w2)
    assert np.abs(geom.kappa1 - np.maximum(k_meridian, k_parallel)).max() <= 1e-4
    assert np.abs(geom.kappa2 - np.minimum(k_meridian, k_parallel)).max() <= 1e-4


def test_oracle_requires_full_mesh():
    red = build_mesh(32, reduced=True)
    with pytest.raises(ValueError):
        extrinsic_shape_operator(red, ScalarField(red, np.ones(32)))


def test_oracle_degenerate_embedding():
    mesh = build_mesh(16, 8)
    with pytest.raises((AdmissibilityError, ValueError)):
        extrinsic_shape_operator(mesh, ScalarField(mesh, np.full(mesh.shape, 0.0)))


# -- support-function identities and Codazzi ------------------------------------

def test_support_identities_constant_graph():
    red = build_mesh(64, reduced=True)
    geom = compute_geometry(red, ScalarField(red, np.full(64, 1.3)), EUCLID)
    assert check_support_identities(geom).worst <= 1e-10


def test_support_identities_refinement():
    worsts = {}
    for nt in (128, 256):
        red = build_mesh(nt, reduced=True)
        geom = compute_geometry(red, ScalarField(red, 1 + 0.1 * np.cos(red.theta)), EUCLID)
        worsts[nt] = check_support_identities(geom).worst
    assert worsts[256] <= 1e-4
    assert worsts[128] / worsts[256] >= 8.0


def test_support_identities_spherical_profile():
    prof = WarpProfile.spherical((0.0, np.pi / 2))
    worsts = {}
    for nt in (128, 256):
        red = build_mesh(nt, reduced=True)
        geom = compute_geometry(red, ScalarField(red, 0.8 + 0.05 * np.cos(red.theta)), prof)
        worsts[nt] = check_support_identities(geom).worst
    assert worsts[256] <= 1e-4
    assert worsts[128] / worsts[256] >= 8.0


def test_support_identities_preconditions():
    full = build_mesh(16, 8)
    geom = compute_geometry(full, const_field(full, 1.0), EUCLID)
    with pytest.raises(ValueError):
        check_support_identities(geom)
    red = build_mesh(32, reduced=True)
    custom = WarpProfile.custom([0.0, 1.0], (0.0, 10.0))
    geom = compute_geometry(red, ScalarField(red, np.ones(32)), custom)
    with pytest.raises(ValueError):
        check_support_identities(geom)


def test_codazzi_constant_graph():
    red = build_mesh(64, reduced=True)
    geom = compute_geometry(red, ScalarField(red, np.full(64, 1.3)), EUCLID)
    assert check_codazzi_flat(geom) <= 1e-12


def test_codazzi_refinement():
    worsts = {}
    for nt in (128, 256):
        red = build_mesh(nt, reduced=True)
        geom = compute_geometry(red, ScalarField(red, 1 + 0.1 * np.cos(red.theta)), EUCLID)
        worsts[nt] = check_codazzi_flat(geom)
    assert worsts[256] <= 1e-4
    assert worsts[128] / worsts[256] >= 8.0


def test_codazzi_preconditions():
    red = build_mesh(32, reduced=True)
    geom = compute_geometry(red, ScalarField(red, np.ones(32)),
                            WarpProfile.hyperbolic((0.0, 10.0)))
    with pytest.raises(ValueError):
        check_codazzi_flat(geom)
