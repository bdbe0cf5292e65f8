"""Geometry of the radial graph r(u) over S^2 inside dr^2 + lambda(r)^2 g'.

Pointwise, in one straight-line pass over the 2-jet of r (geometry_from_jet;
compute_geometry takes the jet of a field from frame_derivatives): induced metric
(det g = lambda^2 v^2), v times the second fundamental form,
H = sigma_1(mu) from the adjugate of g, K = det h / det g = sigma_2(mu) and
the radial normal component; no inverse metric.  Principal curvatures,
Newton-tensor eigenvalues mu_i = H - kappa_i, support function
tau = lambda^2/v and Lambda are computed on first read.  Independent
verification routines: a flat embedding oracle for the shape operator,
support-function identity residuals, and the Codazzi residual for flat
ambient space (all on axisymmetric graphs where intrinsic
differentiation is one-dimensional).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AdmissibilityError
from .mesh import ScalarField, SphereMesh, dphi, dphi2, dtheta, dtheta2, frame_derivatives
from .warp import WarpProfile


def _sym_pair_eigs(g11, g12, g22, h11, h12, h22):
    """Eigenvalues of g^{-1} h for SPD g and symmetric h, via g^{-1/2} h g^{-1/2}.

    The similarity transform keeps the problem symmetric, so the eigenvalues
    stay real in floating point.  Returns (larger, smaller).
    """
    det_g = g11 * g22 - g12 * g12
    s = np.sqrt(det_g)
    t = np.sqrt(g11 + g22 + 2.0 * s)
    st = s * t
    q11 = (g22 + s) / st
    q12 = -g12 / st
    q22 = (g11 + s) / st
    c11 = h11 * q11 + h12 * q12
    c12 = h11 * q12 + h12 * q22
    c21 = h12 * q11 + h22 * q12
    c22 = h12 * q12 + h22 * q22
    b11 = q11 * c11 + q12 * c21
    b22 = q12 * c12 + q22 * c22
    b12 = 0.5 * ((q11 * c12 + q12 * c22) + (q12 * c11 + q22 * c21))
    mean = 0.5 * (b11 + b22)
    root = np.hypot(0.5 * (b11 - b22), b12)
    return mean + root, mean - root


@dataclass(frozen=True)
class GraphGeometry:
    """Pointwise geometric state of the graph surface; arrays shaped like r.

    mesh holds the points as nodes (compute_geometry) or is None (geometry_from_jet).
    The cached properties are computed on first read; of them, the residual
    reads in_cone alone.
    """

    mesh: SphereMesh
    profile: WarpProfile
    r: np.ndarray  # r .. r22: the 2-jet it is formed from
    r1: np.ndarray
    r2: np.ndarray
    r11: np.ndarray
    r12: np.ndarray
    r22: np.ndarray
    lam: np.ndarray
    dlam: np.ndarray
    v: np.ndarray
    g11: np.ndarray
    g12: np.ndarray
    g22: np.ndarray
    h11: np.ndarray
    h12: np.ndarray
    h22: np.ndarray
    H: np.ndarray         # sigma_1(mu)
    K: np.ndarray         # sigma_2(mu) = det h / det g
    nu_r: np.ndarray      # <nu, d/dr> = lambda / v

    @cached_property
    def in_cone(self):
        """Per-node mask of mu in Gamma_2: sigma_1 = H > 0 and sigma_2 = K > 0.

        Geometry-only, so a geometry that serves several residuals (every
        t-step that starts at an unmoved state) forms it once.
        """
        return (self.H > 0.0) & (self.K > 0.0)

    @cached_property
    def _kappas(self):
        return _sym_pair_eigs(self.g11, self.g12, self.g22, self.h11, self.h12, self.h22)

    @cached_property
    def kappa1(self):  # larger principal curvature
        return self._kappas[0]

    @cached_property
    def kappa2(self):
        return self._kappas[1]

    @cached_property
    def mu1(self):  # H - kappa1 (smaller Newton eigenvalue)
        return self.H - self.kappa1

    @cached_property
    def mu2(self):
        return self.H - self.kappa2

    @cached_property
    def tau(self):  # support function lambda^2 / v
        return self.lam * self.lam / self.v

    @cached_property
    def capital_lambda(self):
        return self.profile.capital_lambda(self.r)

    def mu_stack(self):
        """Newton eigenvalues stacked on the last axis, ascending."""
        return np.stack([self.mu1, self.mu2], axis=-1)


def geometry_from_jet(profile: WarpProfile, r, r1, r2, r11, r12, r22,
                      mesh: SphereMesh = None) -> GraphGeometry:
    """The graph's metric, second fundamental form, H and K at points with 2-jet (r, r_1, ..., r_22).

    Straight-line and pointwise over the jet and (lambda, lambda'), each
    product once:
    g_11 = lambda^2 + r_1^2, g_12 = r_1 r_2, g_22 = lambda^2 + r_2^2,
    v^2 = lambda^2 + r_1^2 + r_2^2, det g = lambda^2 v^2;
    v h_11 = 2 lambda' r_1^2 + lambda^2 lambda' - lambda r_11,
    v h_12 = 2 lambda' r_1 r_2 - lambda r_12,
    v h_22 = 2 lambda' r_2^2 + lambda^2 lambda' - lambda r_22;
    H = tr(adj(g) v h) / (det g v) and K = det(v h) / (det g v^2), with no
    inverse metric.  The jet arrays share one shape, any shape.
    """
    lam, dlam = profile.eval_lambda(r)

    lam2 = lam * lam
    r1r1 = r1 * r1
    g12 = r1 * r2
    r2r2 = r2 * r2
    g11 = lam2 + r1r1
    g22 = lam2 + r2r2
    v2 = g11 + r2r2
    v = np.sqrt(v2)
    det_g = lam2 * v2

    dlam2 = 2.0 * dlam
    lam2_dlam = lam2 * dlam
    vh11 = dlam2 * r1r1 + lam2_dlam - lam * r11
    vh12 = dlam2 * g12 - lam * r12
    vh22 = dlam2 * r2r2 + lam2_dlam - lam * r22

    return GraphGeometry(
        mesh=mesh, profile=profile, r=r, r1=r1, r2=r2, r11=r11, r12=r12, r22=r22, lam=lam,
        dlam=dlam, v=v, g11=g11, g12=g12, g22=g22, h11=vh11 / v, h12=vh12 / v, h22=vh22 / v,
        H=(g22 * vh11 - 2.0 * g12 * vh12 + g11 * vh22) / (det_g * v),
        K=(vh11 * vh22 - vh12 * vh12) / (det_g * v2),
        nu_r=lam / v,
    )


def compute_geometry(mesh: SphereMesh, r_field: ScalarField, profile: WarpProfile) -> GraphGeometry:
    """The graph of r_field at the nodes of its mesh: geometry_from_jet of its frame_derivatives."""
    return geometry_from_jet(profile, r_field.values, *frame_derivatives(r_field), mesh=mesh)


def extrinsic_shape_operator(mesh: SphereMesh, r_field: ScalarField):
    """Shape-operator eigenvalues from a flat R^3 embedding (euclidean ambient only).

    Embeds X = r * (sin th cos ph, sin th sin ph, cos th), forms the first and
    second fundamental forms from finite-difference partials and the
    cross-product normal (oriented outward), and returns (kappa1, kappa2)
    with kappa1 >= kappa2.  Independent of the warped-graph formulas.
    """
    if mesh.reduced:
        raise ValueError("embedding oracle needs the full 2D mesh")
    th = mesh.theta_grid()
    ph = mesh.phi_grid()
    r = r_field.values
    direction = np.stack(
        [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)]
    )
    X = r * direction

    Xt = np.stack([dtheta(mesh, X[c]) for c in range(3)])
    Xp = np.stack([dphi(mesh, X[c]) for c in range(3)])
    Xtt = np.stack([dtheta2(mesh, X[c]) for c in range(3)])
    Xtp = np.stack([dtheta(mesh, dphi(mesh, X[c])) for c in range(3)])
    Xpp = np.stack([dphi2(mesh, X[c]) for c in range(3)])

    E = np.einsum("c...,c...->...", Xt, Xt)
    F = np.einsum("c...,c...->...", Xt, Xp)
    G = np.einsum("c...,c...->...", Xp, Xp)

    N = np.cross(Xt, Xp, axis=0)
    norm = np.sqrt(np.einsum("c...,c...->...", N, N))
    if not np.all(norm > 1e-14 * (1.0 + np.max(norm))):
        raise AdmissibilityError("degenerate embedding: near-zero normal")
    N = N / norm
    sign = np.sign(np.einsum("c...,c...->...", N, direction))
    N = N * sign

    L = -np.einsum("c...,c...->...", Xtt, N)
    M = -np.einsum("c...,c...->...", Xtp, N)
    P = -np.einsum("c...,c...->...", Xpp, N)
    return _sym_pair_eigs(E, F, G, L, M, P)


def _axisym_frame_curvatures(geom: GraphGeometry):
    """(meridian, parallel) normal curvatures from the diagonal frame components."""
    return geom.h11 / geom.g11, geom.h22 / geom.g22


def check_support_identities(geom: GraphGeometry) -> float:
    """Worst max-norm residual of the support-function identities on the surface.

    They relate the surface gradient of Lambda to lambda <e_r, E_1>, that of
    tau to (grad Lambda) h, and the meridian-meridian and parallel-parallel
    Hessian of Lambda to lambda' - tau kappa.  Axisymmetric (reduced) graphs
    only, over a builtin space-form profile: intrinsic covariant
    differentiation along the surface is then 1D in theta.
    """
    mesh = geom.mesh
    if not mesh.reduced:
        raise ValueError("support identities are checked in reduced (axisymmetric) mode")
    if geom.profile.kind == "custom":
        raise ValueError("support identities need a builtin space-form profile")

    lam, dlam, rt = geom.lam, geom.dlam, geom.r1
    v = geom.v                       # = sqrt(g_theta_theta)
    g_mm = geom.g11
    L = geom.capital_lambda
    tau = geom.tau
    kap_m, kap_p = _axisym_frame_curvatures(geom)
    cot = np.cos(mesh.theta) / np.sin(mesh.theta)

    dL = dtheta(mesh, L)
    dtau = dtheta(mesh, tau)
    ddL = dtheta2(mesh, L)

    r8 = np.abs((dL - lam * rt) / v)
    r9 = np.abs((dtau - dL * kap_m) / v)

    gamma_mm = (lam * dlam * rt + rt * geom.r11) / g_mm
    lhs_mm = (ddL - gamma_mm * dL) / g_mm
    r10a = np.abs(lhs_mm - (dlam - tau * kap_m))

    lhs_pp = dL * (dlam * rt + lam * cot) / (g_mm * lam)
    r10b = np.abs(lhs_pp - (dlam - tau * kap_p))

    return float(max(r8.max(), r9.max(), r10a.max(), r10b.max()))


def check_codazzi_flat(geom: GraphGeometry) -> float:
    """Max-norm Codazzi residual on an axisymmetric graph in flat ambient space.

    The only non-trivial component of the antisymmetrized covariant
    derivative of the second fundamental form reduces to the meridian
    relation d kappa_p/ds = (kappa_m - kappa_p) d(log R)/ds with
    R = sqrt(g_phiphi) the parallel-circle radius.  The residual is checked
    in the R-weighted form kappa_p' R - (kappa_m - kappa_p) R', which is the
    same identity without the pole-amplified cot(theta) factor.
    """
    mesh = geom.mesh
    if not mesh.reduced:
        raise ValueError("Codazzi check runs in reduced (axisymmetric) mode")
    if geom.profile.kind != "euclidean":
        raise ValueError("Codazzi check assumes the flat (euclidean) ambient")
    lam, dlam, rt = geom.lam, geom.dlam, geom.r1
    kap_m, kap_p = _axisym_frame_curvatures(geom)
    sin, cos = np.sin(mesh.theta), np.cos(mesh.theta)
    big_r = lam * sin
    d_big_r = dlam * rt * sin + lam * cos
    resid = dtheta(mesh, kap_p) * big_r - (kap_m - kap_p) * d_big_r
    return float(np.abs(resid).max())

