"""Property checks of `prescurv selftest`, each against an independent oracle.

A check is a function of no arguments that returns a Result: the worst value
it measured, its bound and whether it passed.  CHECKS lists them in the order
`prescurv selftest` prints them; tests/test_selftest.py runs each one by name.
A sampled check seeds its own generator with SEED, so its value does not
depend on which checks ran before it.  `prescurv verify-geometry` runs
embedding_oracle and identity_refinement on the config's graph, on selftest's
meshes and to its bounds (ORACLE_*, REFINEMENT_*).  Nothing here is on a solve path.
"""

from __future__ import annotations

import itertools
import math
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import geometry as G
from . import mesh as M
from . import symm as SY
from .errors import FParseError
from .problem import (HomotopyEndpoints, ProblemSpec, eval_f, manufacture_f, parse_f, phi_value,
                      threshold)
from .solver import jacobian_fd, jacobian_sparse
from .warp import WarpProfile

SEED = 20240811

# |jacobian_sparse - jacobian_fd| / max|J|: the same differences, rounded differently;
# the worst measured over jacobian_sparse_vs_dense and tests/test_solver.py's cases is 7.7e-11
JACOBIAN_ORACLE_TOL = 5e-10

EUCLID = WarpProfile("euclidean", (0.0, 10.0))
WARP_DOMAINS = {"euclidean": (0.1, 10.0), "spherical": (0.1, np.pi / 2), "hyperbolic": (0.1, 10.0)}
ORACLE_MESH = (128, 64)      # embedding_oracle's mesh, (n_theta, n_phi)
ORACLE_TOL = 1e-5            # its bound on the worst relative error
REFINEMENT_LINES = (128, 256)  # identity_refinement's reduced lines, by node count
REFINEMENT_TOL = 1e-4        # its bound on each residual on the finer line


class Result(NamedTuple):
    what: str  # what value measures
    value: float
    bound: float
    passed: bool

    def __str__(self):
        return f"{self.what} {self.value:.2g}, bound {self.bound:g}"


class Check(NamedTuple):
    name: str
    run: Callable[[], Result]


def _at_most(what, value, bound):
    return Result(what, float(value), bound, bool(value <= bound))


def sigma_bruteforce(mu, k):
    """sigma_k(mu) as the explicit sum over k-subsets: the oracle of symm.sigma."""
    return float(sum(math.prod(c) for c in itertools.combinations(mu, k)))


def admissible_orders(n, k_min=2):
    """Every quotient order (k, l) with k_min <= k <= n and l <= k - 2."""
    return [(k, l) for k in range(k_min, n + 1) for l in range(0, k - 1)]


def random_cone_point(rng, n, k, lo=-0.5):
    """A uniform draw from [lo, 3)^n, drawn again until it lies in Gamma_k."""
    while True:
        mu = rng.uniform(lo, 3.0, n)
        if SY.in_gamma_k(mu, k):
            return mu


def _cone_samples(rng, count, lo=-0.5):
    """count pairs (mu, order): n in [2, 6), an admissible order, mu in its cone."""
    for _ in range(count):
        n = int(rng.integers(2, 6))
        orders = admissible_orders(n)
        k, l = orders[int(rng.integers(len(orders)))]
        yield random_cone_point(rng, n, k, lo), SY.QuotientOrder(k, l)


def _closed_form_spec(f_text="1/r^2 * exp(1.25 - r)"):
    return ProblemSpec(EUCLID, parse_f(f_text), 0.5, 2.0, 1.25)


def warp_antiderivative(kind):
    prof = WarpProfile(kind, WARP_DOMAINS[kind])
    grid = np.linspace(prof.domain[0] + 0.05, prof.domain[1] - 0.05, 11)
    h = 1e-6
    fd = (prof.capital_lambda(grid + h) - prof.capital_lambda(grid - h)) / (2 * h)
    return _at_most("rel err", np.abs(fd / prof.eval_lambda(grid)[0] - 1).max(), 1e-8)


def sigma_vs_bruteforce():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for n in range(2, 9):
        for k in range(0, n + 1):
            for mu in rng.uniform(-2, 3, (4, n)):
                want = sigma_bruteforce(mu, k)
                worst = max(worst, abs(SY.sigma(mu, k) - want) / max(1.0, abs(want)))
    return _at_most("rel err", worst, 1e-12)


def sigma_deleted_entry_identity():
    """sigma_k(mu) = sigma_k(mu|i) + mu_i sigma_{k-1}(mu|i) for every n <= 6, k and i."""
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for n in range(2, 7):
        mu = rng.uniform(-1, 2, n)
        for k in range(1, n + 1):
            for i in range(n):
                head = SY.sigma_minor(mu, k, i) if k <= n - 1 else 0.0
                rhs = head + mu[i] * SY.sigma_minor(mu, k - 1, i)
                worst = max(worst, abs(SY.sigma(mu, k) - rhs))
    return _at_most("abs err", worst, 1e-12)


def sigma_euler_identity():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for n in range(2, 7):
        mu = rng.uniform(0.2, 2, n)
        for k in range(1, n + 1):
            euler = sum(mu[i] * SY.sigma_minor(mu, k - 1, i) for i in range(n))
            want = k * SY.sigma(mu, k)
            worst = max(worst, abs(euler - want) / max(1.0, abs(want)))
    return _at_most("rel err", worst, 1e-12)


def quotient_gradient_vs_fd():
    """The gradient against central FD on 100 cone points; a gradient entry <= 0 fails it."""
    worst = 0.0
    for mu, q in _cone_samples(np.random.default_rng(SEED), 100):
        grad = np.asarray(SY.quotient_gradient_diag(mu, q))
        if not np.all(grad > 0):
            worst = np.inf
        h = 1e-6 * (1 + float(np.abs(mu).max()))
        for i in range(mu.size):
            p, m = mu.copy(), mu.copy()
            p[i] += h
            m[i] -= h
            fd = (SY.quotient_value(p, q) - SY.quotient_value(m, q)) / (2 * h)
            worst = max(worst, abs(grad[i] - fd) / np.abs(grad).max())
    return _at_most("rel err", worst, 1e-6)


def quotient_cone_lower_bound():
    worst = min(sum(SY.quotient_gradient_diag(mu, q)) - SY.cone_lower_bound(mu.size, q)
                for mu, q in _cone_samples(np.random.default_rng(SEED), 100))
    return Result("min slack", worst, -1e-10, bool(worst >= -1e-10))


def quotient_concavity():
    rng = np.random.default_rng(SEED)
    worst = max(SY.concavity_probe(mu, q, trials=10, rng=rng)
                for mu, q in _cone_samples(rng, 100, lo=0.1))
    return _at_most("max second derivative", worst, 1e-6)


def quotient_offdiag_identity(draws=1000):
    """The identity at a random partner i on 50 triples; fewer in `draws` draws fail the check."""
    rng = np.random.default_rng(SEED)
    worst, count = 0.0, 0
    for _ in range(draws):
        if count == 50:
            break
        n = int(rng.integers(3, 7))
        orders = admissible_orders(n, k_min=3)
        k, l = orders[int(rng.integers(len(orders)))]
        eta = np.sort(rng.uniform(0.3, 3.0, n))
        i = int(rng.integers(1, n))
        if SY.in_gamma_k(eta, k) and eta[i] - eta[0] >= 0.05:
            worst = max(worst, SY.offdiag_identity_residual(eta, SY.QuotientOrder(k, l), i))
            count += 1
    passed = worst <= 1e-5 and count == 50
    return Result(f"resid on {count} triples", worst, 1e-5, bool(passed))


def mesh_hessian_eigenfunction():
    mesh = M.build_mesh(32, 64)
    cos = np.cos(mesh.theta_grid())
    _, _, h11, h12, h22 = M.frame_derivatives(M.ScalarField(mesh, cos))
    err = max(np.abs(h11 + cos).max(), np.abs(h22 + cos).max(), np.abs(h12).max())
    return _at_most("abs err", err, 1e-5)


def _constant_geometry(mesh, c, profile=EUCLID):
    return G.compute_geometry(mesh, M.ScalarField(mesh, np.full(mesh.shape, c)), profile)


def geometry_round_graph():
    rho = 1.4
    geom = _constant_geometry(M.build_mesh(128, 64), rho)
    err = max(np.abs(geom.kappa1 - 1 / rho).max(), np.abs(geom.mu1 - 1 / rho).max(),
              np.abs(geom.tau - rho).max())
    return _at_most("abs err", err, 1e-8)


def geometry_constant_graph_identity():
    """sigma_2 / sigma_0 at r = c equals the constant-graph threshold, 4 warps x 7 radii."""
    mesh = M.build_mesh(32, 64)
    worst = 0.0
    for profile, radii in ((EUCLID, (0.4, 3.0)),
                           (WarpProfile("spherical", (0.0, np.pi / 2)), (0.3, 1.4)),
                           (WarpProfile("hyperbolic", (0.0, 10.0)), (0.4, 3.0)),
                           (WarpProfile("custom", (0.0, 5.0), [0.0, 1.0, 0.0, 1.0 / 6.0]), (0.5, 2.5))):
        for c in np.linspace(*radii, 7):
            ratio, ok = SY.quotient_ratio_batch(_constant_geometry(mesh, c, profile).mu_stack(),
                                                SY.QuotientOrder(2, 0))
            err = np.abs(ratio - threshold(*profile.eval_lambda(c))).max() if ok.all() else np.inf
            worst = max(worst, float(err))
    return _at_most("abs err", worst, 1e-10)


def geometry_translated_sphere():
    """r = eps cos th + sqrt(1 - eps^2 sin^2 th) is a translated unit sphere: unit curvatures."""
    eps = 0.12
    mesh = M.build_mesh(64, 128)
    geom = G.compute_geometry(mesh, M.field_from_function(
        mesh, lambda t, p: eps * np.cos(t) + np.sqrt(1 - eps ** 2 * np.sin(t) ** 2)), EUCLID)
    err = max(np.abs(geom.kappa1 - 1).max(), np.abs(geom.kappa2 - 1).max())
    return _at_most("abs err", err, 1e-6)


def embedding_oracle(profile, field):
    """kappa1, kappa2, H and K of the kernel against the flat embedding oracle: worst rel err."""
    geom = G.compute_geometry(field.mesh, field, profile)
    k1, k2 = G.extrinsic_shape_operator(field.mesh, field)
    pairs = ((geom.kappa1, k1), (geom.kappa2, k2), (geom.H, k1 + k2), (geom.K, k1 * k2))
    rel = max((np.abs(got - want) / np.abs(want)).max() for got, want in pairs)
    return _at_most("rel err", rel, ORACLE_TOL)


def geometry_H_K_vs_embedding():
    mesh = M.build_mesh(*ORACLE_MESH)
    return embedding_oracle(EUCLID, M.field_from_function(
        mesh, lambda t, p: 1 + 0.1 * np.sin(t) * np.cos(p)))


def identity_refinement(profile, coarse, fine, min_ratio):
    """Support and (flat warp) Codazzi residuals: <= REFINEMENT_TOL on fine, fall by > min_ratio."""
    def residuals(field):
        geom = G.compute_geometry(field.mesh, field, profile)
        flat = (G.check_codazzi_flat(geom),) if profile.kind == "euclidean" else ()
        return np.array((G.check_support_identities(geom), *flat))

    before, after = residuals(coarse), residuals(fine)
    ratio = float((before / np.maximum(after, 1e-300)).min())
    return Result(f"refinement ratio {ratio:.1f}, residual", float(after.max()), REFINEMENT_TOL,
                  bool(after.max() <= REFINEMENT_TOL and ratio > min_ratio))


def _identity_refinement_on(profile, fn):
    lines = (M.build_mesh(n_theta, reduced=True) for n_theta in REFINEMENT_LINES)
    return identity_refinement(profile, *(M.field_from_function(m, fn) for m in lines), 8.0)


def fexpr_rejects_unknown():
    try:
        parse_f("foo(r)")
        accepted = 1
    except FParseError:
        accepted = 0
    return _at_most("unknown names accepted", accepted, 0)


def blend_affine_in_t():
    mesh = M.build_mesh(32, 64)
    geom = _constant_geometry(mesh, 1.1)
    spec = _closed_form_spec()
    endpoints = HomotopyEndpoints(spec, geom, spec.f_at_nodes(mesh))
    f0, fh, f1 = (endpoints.at(t) for t in (0.0, 0.5, 1.0))
    return _at_most("abs err", np.abs(fh - 0.5 * (f0 + f1)).max(), 1e-14)


def phi_barrier_shape():
    """phi > 0, phi >= 1 exactly on r <= rm, and phi strictly decreasing, on 101 radii."""
    spec = _closed_form_spec()
    grid = np.linspace(0.51, 1.99, 101)
    phis = phi_value(spec, grid)
    bad = (phis <= 0) | ((phis >= 1) != (grid <= spec.phi_rm))
    bad[1:] |= np.diff(phis) >= 0
    return _at_most("radii off shape", bad.sum(), 0)


def manufactured_r_independence():
    """lambda^(k-l) f of a manufactured f does not depend on r: its spread over 3 radii."""
    spec = _closed_form_spec()
    f = manufacture_f(spec, M.build_mesh(64, reduced=True), lambda t, p: 1 + 0.05 * np.cos(t))
    r = np.array([0.7, 1.0, 1.6])
    lam, dlam = EUCLID.eval_lambda(r)
    vals = eval_f(f, r, 0.8, 0.0, 0.9, lam, dlam) * lam ** 2
    return _at_most("rel spread", np.ptp(vals) / abs(vals[0]), 1e-12)


def jacobian_sparse_vs_dense():
    spec = _closed_form_spec("1/r^2 * exp(1.25 - r) * (1 + 0.03*sin(th)*cos(ph))")
    mesh = M.build_mesh(16, 8)
    r = M.field_from_function(mesh, lambda t, p: 1.25 + 0.04 * np.cos(t) + 0.02 * np.sin(t) * np.cos(p)
                              + 0.01 * np.sin(t) ** 2 * np.sin(2 * p))
    dense = jacobian_fd(spec, 0.7, r)
    rows, cols, _ = M.jet_operators(mesh)
    sparse = np.zeros_like(dense)
    sparse[rows, cols] = jacobian_sparse(spec, 0.7, G.compute_geometry(mesh, r, EUCLID))
    err = np.abs(sparse - dense).max() / np.abs(dense).max()
    return _at_most("rel err", err, JACOBIAN_ORACLE_TOL)


CHECKS = (
    *(Check(f"warp-antiderivative-{kind}", partial(warp_antiderivative, kind))
      for kind in WARP_DOMAINS),
    Check("sigma-vs-bruteforce", sigma_vs_bruteforce),
    Check("sigma-deleted-entry-identity", sigma_deleted_entry_identity),
    Check("sigma-euler-identity", sigma_euler_identity),
    Check("quotient-gradient-vs-fd", quotient_gradient_vs_fd),
    Check("quotient-cone-lower-bound", quotient_cone_lower_bound),
    Check("quotient-concavity", quotient_concavity),
    Check("quotient-offdiag-identity", quotient_offdiag_identity),
    Check("mesh-hessian-eigenfunction", mesh_hessian_eigenfunction),
    Check("geometry-round-graph", geometry_round_graph),
    Check("geometry-constant-graph-identity", geometry_constant_graph_identity),
    Check("geometry-translated-sphere", geometry_translated_sphere),
    Check("geometry-H-K-vs-embedding", geometry_H_K_vs_embedding),
    Check("geometry-identity-refinement-euclidean", partial(
        _identity_refinement_on, EUCLID, lambda t, p: 1 + 0.1 * np.cos(t))),
    Check("geometry-identity-refinement-spherical", partial(
        _identity_refinement_on, WarpProfile("spherical", (0.0, np.pi / 2)),
        lambda t, p: 0.8 + 0.05 * np.cos(t))),
    Check("fexpr-rejects-unknown", fexpr_rejects_unknown),
    Check("blend-affine-in-t", blend_affine_in_t),
    Check("phi-barrier-shape", phi_barrier_shape),
    Check("manufactured-r-independence", manufactured_r_independence),
    Check("jacobian-sparse-vs-dense", jacobian_sparse_vs_dense),
)
