import dataclasses

import numpy as np
import pytest

from prescurv import geometry, problem, solver
from prescurv.cli import main
from prescurv.errors import (
    AdmissibilityError,
    AssumptionFailure,
    ConeViolation,
    ContinuationBreakdown,
    DomainViolation,
    FEvalError,
    Inadmissible,
    NewtonFailure,
    NonFiniteField,
    ProfileViolation,
)
from prescurv.geometry import compute_geometry
from prescurv.mesh import (
    ScalarField,
    build_mesh,
    field_from_flat,
    field_from_function,
    jet_operators,
)
from prescurv.problem import (
    HomotopyEndpoints,
    ProblemSpec,
    check_assumptions,
    eval_f,
    manufacture_f,
    parse_f,
    phi_value,
    threshold,
)
from prescurv.selftest import JACOBIAN_ORACLE_TOL
from prescurv.solver import (
    T_STEP_MIN,
    SolverOptions,
    continuation_solve,
    jacobian_fd,
    jacobian_sparse,
    newton_solve,
    node_endpoints,
    residual,
    total_jacobians,
    total_newton_iterations,
)
from prescurv.symm import QuotientOrder, quotient_ratio_batch
from prescurv.warp import WarpProfile
from closed_form import EUCLID, closed_form_spec, round_exponential
from dense import dense

Q20 = QuotientOrder(2, 0)


def const_field(mesh, value):
    return field_from_flat(mesh, np.full(mesh.n_nodes, float(value)))


def field_residual(spec, t, r_field):
    """The residual of r_field, formed on its homotopy endpoints."""
    return residual(t, node_endpoints(spec, r_field))


# -- residual ------------------------------------------------------------------

def test_residual_zero_at_round_start():
    spec = closed_form_spec()
    mesh = build_mesh(32, 16)
    res = field_residual(spec, 0.0, const_field(mesh, spec.phi_rm))
    assert np.abs(res.values).max() <= 1e-12


def test_residual_zero_at_closed_form_root():
    spec = closed_form_spec()
    mesh = build_mesh(32, 16)
    res = field_residual(spec, 1.0, const_field(mesh, 1.25))
    assert np.abs(res.values).max() <= 1e-12


def count_eval_lambda(monkeypatch):
    """A list that gains one entry per WarpProfile.eval_lambda call."""
    calls = []
    original = WarpProfile.eval_lambda
    monkeypatch.setattr(WarpProfile, "eval_lambda",
                        lambda self, r: calls.append(1) or original(self, r))
    return calls


def every_kind_of_f(mesh):
    """An expression of r, one of lambda and a manufactured prescription, on the euclidean warp."""
    return (parse_f("1/r^2 * exp(1.25 - r)"), round_exponential(1.25, 1.0),
            manufacture_f(closed_form_spec(), mesh,
                          lambda th, ph: 1 + 0.05 * np.sin(th) * np.cos(ph)))


def test_residual_evaluates_lambda_once_beside_f(monkeypatch):
    """compute_geometry evaluates lambda; the t = 0 endpoint and every kind of
    f read the geometry's, so no residual evaluates it again."""
    mesh = build_mesh(16, 8)
    fs = every_kind_of_f(mesh)
    calls = count_eval_lambda(monkeypatch)
    for f in fs:
        for t in (0.0, 0.5):
            calls.clear()
            field_residual(closed_form_spec(f=f), t, const_field(mesh, 1.2))
            assert len(calls) == 1


def test_check_assumptions_evaluates_lambda_once_per_radius_grid(monkeypatch):
    """Two barrier grids and three monotonicity grids: each evaluates lambda
    once and hands it to f and to the threshold."""
    fs = every_kind_of_f(build_mesh(16, 8))
    calls = count_eval_lambda(monkeypatch)
    for f in fs:
        calls.clear()
        check_assumptions(closed_form_spec(f=f))
        assert len(calls) == 5


def test_round_exponential_follows_the_problem_warp():
    """The expression's (dlam/lam)^2 is the problem's warp's threshold: r = rm solves
    t = 1 in the hyperbolic warp, where K of the round graph is coth^2 rm."""
    spec = closed_form_spec(profile=WarpProfile("hyperbolic", (0.0, 10.0)),
                            f=round_exponential(1.25, 1.0))
    mesh = build_mesh(16, 8)
    res = field_residual(spec, 1.0, const_field(mesh, 1.25))
    assert np.abs(res.values).max() <= 1e-12


def test_residual_cone_violation_names_node():
    spec = closed_form_spec()
    mesh = build_mesh(32, reduced=True)
    bad = ScalarField(mesh, 1 + 0.3 * np.cos(2 * mesh.theta))
    with pytest.raises(ConeViolation) as err:
        field_residual(spec, 0.0, bad)
    assert err.value.node is not None


def test_residual_domain_violation():
    spec = closed_form_spec(profile=WarpProfile("euclidean", (0.5, 2.5)),
                            r1=0.8, r2=2.0, phi_rm=1.25)
    mesh = build_mesh(16, 8)
    with pytest.raises(DomainViolation):
        field_residual(spec, 0.0, const_field(mesh, 3.0))


# -- finite-difference Jacobian ---------------------------------------------------

def test_jacobian_zeroth_order_sign_and_invertibility():
    """At t = 0 the blend's radial slope is negative, so its residual
    contribution is positive; the Jacobian at the round start is invertible."""
    spec = closed_form_spec()
    h = 1e-6
    rm = spec.phi_rm

    def f0(r):
        return float(phi_value(spec, r)) * threshold(*EUCLID.eval_lambda(r))

    slope = (f0(rm + h) - f0(rm - h)) / (2 * h)
    assert -slope > 0.1  # strictly positive zeroth-order contribution

    mesh = build_mesh(16, 8)
    jac = jacobian_fd(spec, 0.0, const_field(mesh, rm))
    rhs = np.ones(mesh.n_nodes)
    x = np.linalg.solve(jac, rhs)
    assert np.all(np.isfinite(x))
    assert np.abs(jac @ x - rhs).max() <= 1e-8


def test_jacobian_columns_respect_grid_rotation():
    """On a round start, columns of nodes related by an azimuthal rotation
    are the same rotation of each other."""
    spec = closed_form_spec()
    mesh = build_mesh(16, 8)
    jac = jacobian_fd(spec, 0.0, const_field(mesh, spec.phi_rm))
    n_phi = mesh.n_phi
    shift = 3
    col_a = jac[:, 0 * n_phi + 0].reshape(mesh.shape)       # node (0, 0)
    col_b = jac[:, 0 * n_phi + shift].reshape(mesh.shape)   # node (0, shift)
    assert np.abs(np.roll(col_a, shift, axis=1) - col_b).max() <= 1e-10


def test_newton_step_robust_to_fd_step_halving(monkeypatch):
    spec = closed_form_spec()
    mesh = build_mesh(24, reduced=True)
    r0 = ScalarField(mesh, 1.25 + 0.05 * np.cos(mesh.theta))
    res = field_residual(spec, 0.5, r0).flat()
    steps = {}
    for scale in (1e-6, 5e-7):
        monkeypatch.setattr(solver, "FD_SCALE", scale)
        jac = jacobian_fd(spec, 0.5, r0)
        steps[scale] = np.linalg.solve(jac, -res)
    rel = np.linalg.norm(steps[1e-6] - steps[5e-7]) / np.linalg.norm(steps[1e-6])
    assert rel <= 1e-4


# -- sparse Jacobian against the dense oracle ----------------------------------------

ANGULAR_F = "1/r^2 * exp(1.25 - r) * (1 + 0.03*sin(th)*cos(ph) - 0.02*sin(th)*sin(ph))"
HYPERBOLIC = WarpProfile("hyperbolic", (0.0, 10.0))
CUSTOM = WarpProfile("custom", (0.0, 5.0), (0.0, 1.0, 0.0, 1.0 / 6.0))


def bumpy_field(mesh):
    """A non-round admissible graph near r = 1.25, not symmetric in theta or phi."""
    return field_from_function(mesh, lambda th, ph: 1.25 + 0.04 * np.cos(th)
                               + 0.02 * np.sin(th) * np.cos(ph)
                               + 0.01 * np.sin(th) ** 2 * np.sin(2 * ph))


def manufactured_target(th, ph):
    return 1.2 + 0.03 * np.cos(th) + 0.02 * np.sin(th) ** 2 * np.cos(2 * ph)


ORACLE_CASES = {
    "euclidean-full": (EUCLID, ANGULAR_F, (16, 8)),
    "custom-reduced": (CUSTOM, "1/r^2 * exp(1.25 - r) * (1 + 0.03*cos(th))", (16, None)),
    "hyperbolic-full": (HYPERBOLIC, ANGULAR_F, (16, 8)),
}

# f manufactured from a callable target on the 3x finer mesh, or from its node values
MANUFACTURED_CASES = {
    "manufactured-hyperbolic-full": (HYPERBOLIC, "callable", (16, 8)),
    "manufactured-custom-reduced": (CUSTOM, "nodes", (16, None)),
}


def oracle_case(case):
    if case in MANUFACTURED_CASES:
        profile, kind, (n_theta, n_phi) = MANUFACTURED_CASES[case]
        mesh = build_mesh(n_theta, n_phi, reduced=n_phi is None)
        target = (manufactured_target if kind == "callable"
                  else field_from_function(mesh, manufactured_target))
        base = closed_form_spec(profile=profile, f=parse_f("1"))
        return closed_form_spec(profile=profile, f=manufacture_f(base, mesh, target)), mesh
    profile, f_text, (n_theta, n_phi) = ORACLE_CASES[case]
    spec = closed_form_spec(profile=profile, f=parse_f(f_text))
    return spec, build_mesh(n_theta, n_phi, reduced=n_phi is None)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES) + sorted(MANUFACTURED_CASES))
def test_sparse_jacobian_matches_dense_oracle(case):
    """jacobian_sparse differences F on each row's jet, jacobian_fd the residual
    of each perturbed field: the same differences, rounded differently."""
    spec, mesh = oracle_case(case)
    r = bumpy_field(mesh)
    oracle = jacobian_fd(spec, 0.7, r)
    sparse = jacobian_sparse(spec, 0.7, compute_geometry(mesh, r, spec.profile))
    assert sparse.shape == jet_operators(mesh)[0].shape
    err = np.abs(dense(mesh, sparse) - oracle).max()
    assert err <= JACOBIAN_ORACLE_TOL * np.abs(oracle).max()


@pytest.mark.parametrize("case", sorted(ORACLE_CASES) + ["euclidean-cone-exit"])
def test_gauss_curvature_matches_eigenvalue_oracle(case):
    """K and the test H > 0, K > 0 agree with sigma_2 and the Gamma_2 mask of the
    Newton eigenvalues, on admissible graphs and on one that leaves the cone."""
    if case in ORACLE_CASES:
        profile, _, (n_theta, n_phi) = ORACLE_CASES[case]
        mesh = build_mesh(n_theta, n_phi, reduced=n_phi is None)
        r = bumpy_field(mesh)
    else:
        profile, mesh = EUCLID, build_mesh(16, 8)
        r = field_from_function(mesh, lambda th, ph: 1 + 0.3 * np.cos(2 * th))
    geom = compute_geometry(mesh, r, profile)
    ratio, ok = quotient_ratio_batch(geom.mu_stack(), Q20)
    assert np.abs(geom.K - ratio).max() <= 1e-12 * np.abs(ratio).max()
    np.testing.assert_array_equal((geom.H > 0) & (geom.K > 0), ok)
    np.testing.assert_array_equal(geom.in_cone, ok)
    assert ok.all() == (case in ORACLE_CASES)


def test_residual_forms_no_eigenvalues_or_capital_lambda(monkeypatch):
    """The residual reads H and K only: with the principal-curvature solve and
    Lambda made to raise, residuals and a 16x8 Newton solve still succeed."""
    def refuse(*args, **kwargs):
        raise AssertionError("the residual path must not compute this")

    monkeypatch.setattr(geometry, "_sym_pair_eigs", refuse)
    monkeypatch.setattr(WarpProfile, "capital_lambda", refuse)
    spec = closed_form_spec(f=parse_f(ANGULAR_F))
    mesh = build_mesh(16, 8)
    field_residual(spec, 0.5, const_field(mesh, 1.25))
    _, stats = newton_solve(spec, 0.5, node_endpoints(spec, const_field(mesh, 1.25)))
    assert stats.iterations > 0 and stats.residual_norm <= SolverOptions().newton_tol


@pytest.mark.parametrize("shape", [(16, 8), (16, 4), (20, 10), (16, None)])
def test_stencil_footprint_covers_dense_jacobian(shape):
    """The shared pattern of the jet operators holds every nonzero of jacobian_fd."""
    mesh = build_mesh(shape[0], shape[1], reduced=shape[1] is None)
    spec = closed_form_spec(f=parse_f(ANGULAR_F))
    oracle = jacobian_fd(spec, 0.7, bumpy_field(mesh))
    stored = dense(mesh, np.ones(jet_operators(mesh)[0].size))
    assert not np.any(oracle[stored == 0])


class ClosedFormRoundF:
    """The round exponential in closed form, threshold(lam, dlam) exp(alpha (rm - r)), as an f
    kind of its own: it reads no angle, so binding and gathering keep it as it is."""

    def __init__(self, rm, alpha):
        self.rm, self.alpha = rm, alpha

    def evaluate(self, r, th, ph, nur, lam=None, dlam=None):
        return threshold(lam, dlam) * np.exp(self.alpha * (self.rm - np.asarray(r, dtype=float)))

    def bind(self, th, ph):
        return self

    def take(self, rows):
        return self


def solve_record(spec, mesh):
    """A solve's final radii, and each state's t, Newton and Jacobian counts and residual norm."""
    final, history = continuation_solve(spec, mesh)
    return final.r_field.values, [(s.t, s.newton_iters, s.jacobians, s.residual_norm)
                                  for s in history]


@pytest.mark.parametrize("profile", [EUCLID, WarpProfile("hyperbolic", (0.0, 10.0)), CUSTOM],
                         ids=["euclidean", "hyperbolic", "custom"])
def test_round_exponential_expression_is_the_closed_form_bit_for_bit(profile):
    """(dlam/lam)^2 * exp(alpha*(rm - r)) reads the caller's lambda, lambda' as the closed
    form does: the same f values, assumption margins, Jacobian entries and solve, bit for bit."""
    r, mesh = np.linspace(0.5, 3.0, 41), build_mesh(16, 8)
    lam, dlam = profile.eval_lambda(r)
    geom = compute_geometry(mesh, bumpy_field(mesh), profile)
    for rm, alpha in ((1.25, -0.3), (1.3, 1.0), (1.2, 2.0)):
        expr, closed = round_exponential(rm, alpha), ClosedFormRoundF(rm, alpha)
        assert np.array_equal(eval_f(expr, r, 0.3, 0.2, 0.9, lam, dlam),
                              eval_f(closed, r, 0.3, 0.2, 0.9, lam, dlam))
        specs = [closed_form_spec(profile=profile, f=f) for f in (expr, closed)]
        assert check_assumptions(specs[0]) == check_assumptions(specs[1])
        jacs = [jacobian_sparse(spec, 0.5, geom) for spec in specs]
        assert np.array_equal(jacs[0], jacs[1])
    # rm off phi.rm = 1.25, so Newton iterates; alpha = 2 meets every assumption on each warp
    (r_expr, states_expr), (r_closed, states_closed) = (
        solve_record(spec, build_mesh(32, reduced=True)) for spec in specs)
    assert np.array_equal(r_expr, r_closed) and states_expr == states_closed
    assert sum(newton for _, newton, _, _ in states_expr) > 0


class UnboundF:
    """f as evaluated before binding: unbound, on every call, at the angles of the
    points it is bound to.  It keeps those angles (gathered by take, as a bound
    f is), so a test can also tell which points a residual or a Jacobian block reads."""

    def __init__(self, f, th=None, ph=None):
        self.f, self.th, self.ph = f, th, ph

    def evaluate(self, r, th, ph, nur, lam=None, dlam=None):
        return self.f.evaluate(r, self.th, self.ph, nur, lam, dlam)

    def bind(self, th, ph):
        return UnboundF(self.f, np.asarray(th), np.asarray(ph))

    def take(self, rows):
        return UnboundF(self.f, self.th.ravel()[rows], self.ph.ravel()[rows])


def force_cone_exit(monkeypatch, mesh, node, moved):
    """Make the pointwise kernel raise ConeViolation at any point of `node`
    whose r satisfies moved(r); the residual and jacobian_sparse both meet it.
    The spec's f must be an UnboundF."""
    th, ph = mesh.theta_grid().ravel()[node], mesh.phi_grid().ravel()[node]
    real = solver._pointwise_residual

    def kernel(t_, ends):
        if np.any((ends.f_at.th == th) & (ends.f_at.ph == ph) & moved(ends.geom.r)):
            raise ConeViolation("forced cone exit", node=node)
        return real(t_, ends)

    monkeypatch.setattr(solver, "_pointwise_residual", kernel)


@pytest.mark.parametrize("moved", [np.greater, np.not_equal], ids=["plus-side", "both-sides"])
def test_inadmissible_perturbation_fails_the_build(monkeypatch, moved):
    """Column 37's perturbed 2-jet leaves the cone at +h only, or on both
    sides: jacobian_sparse raises AdmissibilityError naming t after at most
    one kernel pass per block, with no column redone."""
    spec = closed_form_spec(f=UnboundF(parse_f(ANGULAR_F)))
    mesh = build_mesh(16, 8)
    r = bumpy_field(mesh)
    column = 37
    r_j = r.flat()[column]
    geom = compute_geometry(mesh, r, spec.profile)
    force_cone_exit(monkeypatch, mesh, column, lambda rs: moved(rs, r_j))
    residual(0.7, node_endpoints(spec, r))  # the unperturbed state is admissible
    passes = []

    def counting(*args, real=solver._pointwise_residual):
        passes.append(1)
        return real(*args)

    monkeypatch.setattr(solver, "_pointwise_residual", counting)
    with pytest.raises(AdmissibilityError, match=r"Jacobian at t=0\.7: .*\(ConeViolation\)"):
        jacobian_sparse(spec, 0.7, geom)
    blocks = -(-2 * jet_operators(mesh)[0].size // solver.FD_CHUNK_NODES)
    assert 1 <= len(passes) <= blocks


@pytest.mark.parametrize("shape", [(16, 8), (16, None)])
def test_jacobian_of_a_bound_f_is_the_unbound_build_bit_for_bit(shape):
    """jacobian_sparse gathers f's node-bound angular values by row; its entries
    equal, bit for bit, a build that evaluates f unbound on the gathered
    points, for every kind of f."""
    mesh = build_mesh(shape[0], shape[1], reduced=shape[1] is None)
    geom = compute_geometry(mesh, bumpy_field(mesh), EUCLID)
    for f in (parse_f(ANGULAR_F),) + every_kind_of_f(mesh):
        bound = jacobian_sparse(closed_form_spec(f=f), 0.7, geom)
        unbound = jacobian_sparse(closed_form_spec(f=UnboundF(f)), 0.7, geom)
        assert np.array_equal(bound, unbound)


def test_angle_only_work_runs_once_per_node_set(monkeypatch):
    """In a 16x8 solve, f's angular factor runs once on the assumption check's
    samples and once on the mesh nodes, not once per residual or Jacobian block."""
    shapes = []

    def counted_sin(x):
        shapes.append(np.shape(x))
        return np.sin(x)

    monkeypatch.setitem(problem.FUNCS, "csin", counted_sin)
    spec = closed_form_spec(f=parse_f("1/r^2 * exp(1.25 - r) * (1 + 0.03*csin(th)*cos(ph))"))
    final, history = continuation_solve(spec, build_mesh(16, 8))
    assert final.t == 1.0 and total_jacobians(history) > 0
    assert shapes == [(1, problem.ASSUMPTION_SAMPLES ** 2, 1), (16, 8)]


def test_jacobian_build_forms_no_whole_field_residual_or_geometry(monkeypatch):
    """jacobian_sparse differences the pointwise kernel on each entry's row:
    no residual or geometry of a whole field is formed during a build."""
    spec = closed_form_spec(f=parse_f(ANGULAR_F))
    mesh = build_mesh(16, 8)
    geom = compute_geometry(mesh, bumpy_field(mesh), spec.profile)
    calls = []
    for name in ("residual", "compute_geometry"):
        def counting(*args, real=getattr(solver, name), name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(solver, name, counting)
    jacobian_sparse(spec, 0.7, geom)
    assert calls == []


def test_jet_operators_are_built_with_the_first_jacobian_only(monkeypatch):
    """A solve that starts at its root (the round closed-form case) builds no
    Jacobian and no jet operators; the first Jacobian builds them for its mesh
    shape, and later ones reuse them."""
    from prescurv import mesh as mesh_module

    spec = closed_form_spec()
    mesh = build_mesh(24, 12)
    built = _count_builds(monkeypatch)
    misses = mesh_module.jet_operators.cache_info().misses
    final, _ = continuation_solve(spec, mesh)
    assert final.t == 1.0 and built == []
    assert mesh_module.jet_operators.cache_info().misses == misses
    for _ in range(2):
        jacobian_sparse(spec, 0.5, compute_geometry(mesh, bumpy_field(mesh), spec.profile))
    assert mesh_module.jet_operators.cache_info().misses == misses + 1


def test_newton_forms_each_iterates_jet_once_through_compute_geometry(monkeypatch):
    """A 16x8 Newton solve that builds J calls frame_derivatives only inside
    compute_geometry, once per iterate (no field twice), and never inside
    jacobian_sparse, which reads the jet of the geometry Newton holds."""
    from prescurv import mesh as mesh_module

    spec = closed_form_spec(f=parse_f(ANGULAR_F))
    mesh = build_mesh(16, 8)
    jet_operators(mesh)  # built once per mesh shape, from unit fields
    fields, geometries, building = [], [], []
    real_fd, real_geometry, real_jacobian = (mesh_module.frame_derivatives,
                                              solver.compute_geometry, solver.jacobian_sparse)

    def frame_derivatives(field):
        assert not building, "frame_derivatives called inside jacobian_sparse"
        fields.append(field.values.tobytes())
        return real_fd(field)

    def compute_geometry_(*args):
        geometries.append(args)
        return real_geometry(*args)

    def jacobian(*args):
        building.append(True)
        try:
            return real_jacobian(*args)
        finally:
            building.pop()

    for module in (mesh_module, geometry, solver):
        monkeypatch.setattr(module, "frame_derivatives", frame_derivatives, raising=False)
    monkeypatch.setattr(solver, "compute_geometry", compute_geometry_)
    monkeypatch.setattr(solver, "jacobian_sparse", jacobian)
    _, stats = newton_solve(spec, 0.5, node_endpoints(spec, bumpy_field(mesh)))
    assert stats.jacobians >= 1 and stats.residual_norm <= SolverOptions().newton_tol
    assert len(fields) == len(set(fields)) == len(geometries)


@pytest.mark.parametrize("shape", [(16, 8), (18, 8), (64, 32), (16, None), (64, None)],
                         ids=["16x8", "18x8-padded", "64x32", "reduced-16", "reduced-64"])
def test_block_factor_solves_the_dense_jacobian(shape):
    """BlockLU of jacobian_sparse at a bumpy field solves J x = b to rounding, as
    np.linalg.solve on the dense J does, with no pivoting across blocks, for a
    random b and for Newton's -res.  The residual is bounded backward-stably, by
    1e-12 (|J| |x| + |b|) in the max norm: at 64x32 (cond_inf J = 2.6e5) dense
    LU itself leaves 1.3e-11 |b| on -res.  The blocks hold whole rings (18x8's
    last one padded) and reach their neighbours only."""
    spec = closed_form_spec(f=parse_f(ANGULAR_F))
    mesh = build_mesh(shape[0], shape[1], reduced=shape[1] is None)
    r = bumpy_field(mesh)
    entries = jacobian_sparse(spec, 0.7, compute_geometry(mesh, r, spec.profile))
    jac = dense(mesh, entries)
    blocks, m, _ = solver._block_map(mesh)
    width = max(mesh.n_phi, 1)
    assert m % width == 0 and m >= min(solver.BLOCK_MIN, mesh.n_nodes) and m >= 2 * width
    assert (blocks * m > mesh.n_nodes) == (shape == (18, 8))
    rows, cols = np.nonzero(jac)
    assert np.abs(rows // m - cols // m).max() == (1 if blocks > 1 else 0)
    lu, norm = solver.BlockLU(mesh, entries), np.abs(jac).sum(axis=1).max()
    for b in (np.random.default_rng(7).standard_normal(mesh.n_nodes),
              -field_residual(spec, 0.7, r).flat()):
        x = lu.solve(b)
        bound = 1e-12 * (norm * np.abs(x).max() + np.abs(b).max())
        assert np.abs(jac @ x - b).max() <= bound
        assert np.abs(x - np.linalg.solve(jac, b)).max() <= 1e-12 * np.abs(x).max()
    with pytest.raises(np.linalg.LinAlgError):
        solver.BlockLU(mesh, np.zeros_like(entries))


def singular_jacobian(spec, t, geom):
    return np.zeros(jet_operators(geom.mesh)[0].size)


def test_singular_jacobian_is_a_newton_failure(monkeypatch):
    monkeypatch.setattr(solver, "jacobian_sparse", singular_jacobian)
    spec = closed_form_spec()
    mesh = build_mesh(16, reduced=True)
    with pytest.raises(NewtonFailure, match="factorization"):
        newton_solve(spec, 0.0, node_endpoints(spec, const_field(mesh, spec.phi_rm + 0.1)))


def test_non_finite_fresh_step_is_a_newton_failure(monkeypatch):
    """A factor whose solve returns NaN makes the fresh Newton step non-finite:
    NewtonFailure names that step."""
    class NanFactor:
        def solve(self, rhs):
            return np.full_like(rhs, np.nan)

    monkeypatch.setattr(solver, "BlockLU", lambda mesh, entries: NanFactor())
    spec = closed_form_spec()
    mesh = build_mesh(16, reduced=True)
    with pytest.raises(NewtonFailure, match=r"^non-finite Newton step at t=0$"):
        newton_solve(spec, 0.0, node_endpoints(spec, const_field(mesh, spec.phi_rm + 0.1)))


REDUCED_CASE = ("warp.kind = euclidean\nwarp.domain = 0,10\nmesh.n_theta = 16\n"
                "mesh.reduced = true\nproblem.r1 = 0.5\nproblem.r2 = 2\nphi.rm = 1.25\n"
                "f.expr = 1/r^2 * exp(1.25 - r) * (1 + 0.03*cos(th))\n")


def test_cli_singular_jacobian_breaks_down_without_traceback(monkeypatch, tmp_path, capsys):
    """Every t-step fails to factor, so the continuation halves dt to
    underflow and the CLI exits 4 (continuation breakdown)."""
    monkeypatch.setattr(solver, "jacobian_sparse", singular_jacobian)
    cfg = tmp_path / "case.cfg"
    cfg.write_text(REDUCED_CASE)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "solve"]) == 4
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert "breakdown" in out.out


def test_line_search_backtracks_when_trial_f_is_not_positive():
    """f = (1 + 2.5 (r - 1.25)) / r^2 is positive only for r > 0.85.  From the
    constant start 1.7 the full Newton step lands near r = 0.74, where f <= 0;
    the line search must halve the step, not abort."""
    spec = closed_form_spec(f=parse_f("(1 + 2.5*(r - 1.25)) / r^2"))
    mesh = build_mesh(16, reduced=True)
    start = const_field(mesh, 1.7)
    res = field_residual(spec, 1.0, start).flat()
    full_step = start.flat() + np.linalg.solve(jacobian_fd(spec, 1.0, start), -res)
    with pytest.raises(FEvalError):
        field_residual(spec, 1.0, field_from_flat(mesh, full_step))
    sol, stats = newton_solve(spec, 1.0, node_endpoints(spec, start))
    assert stats.halvings >= 1
    assert np.abs(sol.values - 1.25).max() <= 1e-8


def infinite_curvature_at(monkeypatch, call):
    """Make K = +inf at node 0 in the call-th full-field residual (Jacobian
    kernel blocks not counted), so that residual's value there is not finite;
    returns the list of the t so hit."""
    real = solver._pointwise_residual
    calls, hits = [], []

    def kernel(t, ends):
        geom = ends.geom
        if geom.mesh is not None:
            calls.append(t)
            if len(calls) == call:
                hits.append(t)
                K = geom.K.copy()
                K.flat[0] = np.inf  # inside the cone, so only the residual's value is bad
                ends = HomotopyEndpoints(ends.spec, dataclasses.replace(geom, K=K), ends.f_at)
        return real(t, ends)

    monkeypatch.setattr(solver, "_pointwise_residual", kernel)
    return hits


def test_non_finite_residual_is_inadmissible():
    spec = closed_form_spec()
    mesh = build_mesh(16, 8)
    geom = compute_geometry(mesh, const_field(mesh, 1.2), spec.profile)
    K = geom.K.copy()
    K.flat[0] = np.inf
    with pytest.raises(NonFiniteField) as err:
        residual(0.5, HomotopyEndpoints(spec, dataclasses.replace(geom, K=K),
                                        spec.f_at_nodes(mesh)))
    assert isinstance(err.value, Inadmissible)


def test_the_admissibility_errors_share_one_base():
    """The solver steps back from each of the six by catching Inadmissible; the
    guard's AdmissibilityError stays apart from the cone and domain errors."""
    six = (DomainViolation, ProfileViolation, NonFiniteField, ConeViolation, FEvalError,
           AdmissibilityError)
    assert all(issubclass(e, Inadmissible) for e in six) and issubclass(NonFiniteField, ValueError)
    assert not any(issubclass(e, AdmissibilityError) for e in six[:-1])
    assert not any(issubclass(e, Inadmissible) for e in (NewtonFailure, ContinuationBreakdown,
                                                         AssumptionFailure))


def test_line_search_backtracks_from_a_non_finite_trial_residual(monkeypatch):
    """The first line-search trial's residual is infinite at one node: Newton
    halves the step and converges, as from any inadmissible trial."""
    spec = closed_form_spec(f=parse_f(ANGULAR_F))
    mesh = build_mesh(16, 8)
    start = bumpy_field(mesh)
    clean_sol, clean = newton_solve(spec, 0.5, node_endpoints(spec, start))
    hits = infinite_curvature_at(monkeypatch, 2)  # call 1: the start
    sol, stats = newton_solve(spec, 0.5, node_endpoints(spec, start))
    assert hits == [0.5]
    assert clean.halvings == 0 and stats.halvings >= 1
    assert stats.residual_norm <= SolverOptions().newton_tol
    assert np.abs(sol.values - clean_sol.values).max() <= 1e-8


# -- Newton ----------------------------------------------------------------------

def test_newton_t0_converges_to_round_solution():
    spec = closed_form_spec()
    mesh = build_mesh(32, reduced=True)
    sol, stats = newton_solve(spec, 0.0, node_endpoints(spec, const_field(mesh, spec.phi_rm + 0.1)))
    assert np.abs(sol.values - spec.phi_rm).max() <= 1e-8
    assert stats.residual_norm <= 1e-10


def test_newton_closed_form_from_far_start():
    spec = closed_form_spec()
    mesh = build_mesh(24, 8)
    sol, stats = newton_solve(spec, 1.0, node_endpoints(spec, const_field(mesh, 1.0)))
    assert np.abs(sol.values - 1.25).max() <= 1e-6


def test_newton_rejects_bad_initial_data():
    """A start outside the radius domain raises while it is formed; one formed
    beyond the guarded annulus is refused by Newton."""
    mesh = build_mesh(16, 8)
    # inside the guard band but outside the radius domain
    spec = closed_form_spec(profile=WarpProfile("euclidean", (0.5, 2.05)),
                            r1=0.8, r2=2.0, phi_rm=1.25)
    with pytest.raises(DomainViolation):
        newton_solve(spec, 0.0, node_endpoints(spec, const_field(mesh, 2.055)))
    spec2 = closed_form_spec()
    with pytest.raises(AdmissibilityError):
        newton_solve(spec2, 0.0, node_endpoints(spec2, const_field(mesh, 2.3)))  # beyond the guard


def count_geometries(monkeypatch):
    """Record the field of every compute_geometry call Newton makes."""
    formed = []
    real = solver.compute_geometry

    def counting(mesh, r_field, profile):
        formed.append(r_field)
        return real(mesh, r_field, profile)

    monkeypatch.setattr(solver, "compute_geometry", counting)
    return formed


@pytest.mark.parametrize("t", [0.0, 0.5])
def test_newton_starts_from_a_matching_geometry(monkeypatch, t):
    """Newton starts from the endpoints it is handed and forms no geometry
    for them: at t = 0 the round start takes no step, so Newton forms no
    geometry and returns stats.ends is start; at t = 0.5 every geometry it
    forms is a step's, the last the solution's."""
    spec = closed_form_spec(f=parse_f(ANGULAR_F))
    mesh = build_mesh(16, 8)
    start = node_endpoints(spec, const_field(mesh, spec.phi_rm))
    formed = count_geometries(monkeypatch)
    sol, stats = newton_solve(spec, t, start)
    assert not any(np.array_equal(f.values, start.geom.r) for f in formed)
    assert (stats.ends is start) == (stats.iterations == 0) == (t == 0.0)
    if t == 0.0:
        assert formed == [] and np.array_equal(sol.values, start.geom.r)
    else:
        assert stats.ends.geom.r is formed[-1].values


def test_newton_from_a_start_outside_the_cone_raises():
    """A start outside Gamma_2 raises ConeViolation: its residual's cone check runs."""
    spec = closed_form_spec()
    mesh = build_mesh(16, 8)
    start = node_endpoints(spec, field_from_function(mesh, lambda th, ph: 1 + 0.3 * np.cos(2 * th)))
    assert not np.all(start.geom.in_cone)
    with pytest.raises(ConeViolation):
        newton_solve(spec, 0.5, start)


class _StaleFactor:
    """Stands in for a factor in hand whose chord step is `step`."""

    def __init__(self, step):
        self.step = step

    def solve(self, rhs):
        return self.step.copy()


def _count_builds(monkeypatch):
    """Record the iterate of every fresh Jacobian build."""
    built = []
    real = solver.jacobian_sparse

    def counting(spec, t, geom):
        built.append(geom.r.ravel().copy())
        return real(spec, t, geom)

    monkeypatch.setattr(solver, "jacobian_sparse", counting)
    return built


@pytest.mark.parametrize("miss", ["contraction", "cone", "guard", "non-finite"])
def test_stale_chord_step_is_discarded_and_the_jacobian_rebuilt(monkeypatch, miss):
    """A chord step on the factor in hand that cuts max|res| by less than
    CHORD_CONTRACTION, leaves the cone or the guard, or is not finite, is
    dropped: J is built at the unmoved iterate, and the solve converges to an
    admissible state inside the guard."""
    spec = closed_form_spec(f=parse_f(ANGULAR_F))
    mesh = build_mesh(16, 8)
    start = bumpy_field(mesh)
    r0 = start.flat()
    res = field_residual(spec, 0.5, start).flat()
    newton_step = np.linalg.solve(jacobian_fd(spec, 0.5, start), -res)
    cone_exit = field_from_function(mesh, lambda th, ph: 1 + 0.3 * np.cos(2 * th)).flat()
    step = {"contraction": 0.5 * newton_step,     # max|res| only halves
            "cone": cone_exit - r0,                # lands on a graph outside Gamma_2
            "guard": np.full(r0.size, 1.0),        # r near 2.25, beyond r2 + guard
            "non-finite": np.full(r0.size, np.nan)}[miss]
    if miss == "cone":
        with pytest.raises(ConeViolation):
            field_residual(spec, 0.5, field_from_flat(mesh, r0 + step))
    built = _count_builds(monkeypatch)
    sol, stats = newton_solve(spec, 0.5, node_endpoints(spec, start), lu=_StaleFactor(step))
    assert np.array_equal(built[0], r0)  # the stale trial was not accepted
    assert stats.jacobians == len(built) >= 1
    assert not isinstance(stats.lu, _StaleFactor)
    assert stats.residual_norm <= SolverOptions().newton_tol
    assert compute_geometry(mesh, sol, EUCLID).in_cone.all()
    solver._check_guard(spec, sol.flat())  # raises outside the guarded annulus


def test_chord_step_on_a_good_factor_builds_no_jacobian(monkeypatch):
    """A factor of J at a nearby state contracts the residual, so Newton
    converges on it alone and hands it back."""
    spec = closed_form_spec(f=parse_f(ANGULAR_F))
    mesh = build_mesh(16, 8)
    near, stats0 = newton_solve(spec, 0.5, node_endpoints(spec, const_field(mesh, 1.25)))
    assert stats0.jacobians >= 1 and stats0.lu is not None
    built = _count_builds(monkeypatch)
    sol, stats = newton_solve(spec, 0.6, node_endpoints(spec, near), lu=stats0.lu)
    assert built == [] and stats.jacobians == 0 and stats.iterations >= 1
    assert stats.lu is stats0.lu
    assert stats.residual_norm <= SolverOptions().newton_tol


# -- continuation ------------------------------------------------------------------

def test_continuation_closed_form():
    spec = closed_form_spec()
    mesh = build_mesh(64, 32)
    final, history = continuation_solve(spec, mesh)
    assert final.t == 1.0
    assert np.abs(final.r_field.values - 1.25).max() <= 1e-6
    assert total_newton_iterations(history) <= 20
    # re-evaluated residual equals the reported norm (no hidden state)
    res = field_residual(spec, final.t, final.r_field)
    assert abs(np.abs(res.values).max() - final.residual_norm) <= 1e-12


def test_continuation_states_admissible_and_barriered():
    spec = closed_form_spec()
    mesh = build_mesh(32, reduced=True)
    final, history = continuation_solve(spec, mesh)
    for st in history:
        geom = compute_geometry(mesh, st.r_field, EUCLID)
        _, ok = quotient_ratio_batch(geom.mu_stack(), Q20)
        assert ok.all()
        assert spec.r1 < st.r_field.values.min() <= st.r_field.values.max() < spec.r2


def test_continuation_t0_unique_from_perturbed_starts():
    spec = closed_form_spec()
    mesh = build_mesh(64, reduced=True)
    rng = np.random.default_rng(7)
    spread = 0.0
    for i in range(5):
        scale = float(rng.uniform(0.5, 1.0))
        init = ScalarField(mesh, spec.phi_rm + 0.08 * scale * np.cos(mesh.theta * (1 + i % 3)))
        sol, _ = newton_solve(spec, 0.0, node_endpoints(spec, init))
        spread = max(spread, float(np.abs(sol.values - spec.phi_rm).max()))
    assert spread <= 1e-8


def test_full_2d_continuation_reuses_one_factorization(monkeypatch):
    """A non-axisymmetric 16x8 solve takes chord steps on the last LU across
    t-steps: at most 2 fresh Jacobians over the whole path, as its states count."""
    spec = closed_form_spec(f=parse_f(ANGULAR_F))
    mesh = build_mesh(16, 8)
    built = _count_builds(monkeypatch)
    final, history = continuation_solve(spec, mesh)
    assert final.t == 1.0
    assert 1 <= len(built) <= 2
    assert solver.total_jacobians(history) == len(built)
    assert total_newton_iterations(history) >= len(history) - 1


def test_continuation_starts_each_step_from_the_secant_prediction(monkeypatch):
    """The first t-step starts at the accepted t = 0 state and Newton reuses
    its endpoints; the second at the secant through the two accepted states,
    sol + (t_try - t) * slope, bit for bit; every later one at the quadratic
    through the last three accepted states (here in Lagrange form)."""
    spec = closed_form_spec(f=parse_f(ANGULAR_F))
    mesh = build_mesh(16, 8)
    starts, given, accepted = {}, {}, {}
    real = solver.newton_solve

    def spying(spec_, t, start, opts, lu=None):
        starts[t], given[t] = start.geom.r.ravel().copy(), start
        return real(spec_, t, start, opts, lu)

    monkeypatch.setattr(solver, "newton_solve", spying)
    _, history = continuation_solve(
        spec, mesh, on_accept=lambda st, geom: accepted.setdefault(st.t, geom))
    sols = {st.t: st.r_field.flat() for st in history}
    ts = [st.t for st in history]
    assert len(ts) == 11
    assert np.array_equal(starts[ts[1]], sols[ts[0]])
    assert given[ts[1]].geom is accepted[ts[0]] is not None
    slope = (sols[ts[1]] - sols[ts[0]]) / (ts[1] - ts[0])
    assert np.array_equal(starts[ts[2]], sols[ts[1]] + (ts[2] - ts[1]) * slope)
    for t0, t1, t2, t_try in zip(ts, ts[1:], ts[2:], ts[3:]):
        quadratic = sum(sols[a] * (t_try - b) * (t_try - c) / ((a - b) * (a - c))
                        for a, b, c in ((t0, t1, t2), (t1, t2, t0), (t2, t0, t1)))
        np.testing.assert_allclose(starts[t_try], quadratic, rtol=0, atol=1e-14)
        assert not np.allclose(starts[t_try], sols[t2] + (t_try - t2) * (sols[t2] - sols[t1])
                               / (t2 - t1), rtol=0, atol=1e-12)


def test_a_path_that_stood_still_predicts_from_its_latest_t(monkeypatch):
    """While Newton reuses its start and takes no step (forced here up to
    t = 0.2) each guess is the last state; once the path moves at t = 0.3,
    the secant and then the parabola take their nodes from t = 0.2, not 0."""
    spec = closed_form_spec(f=parse_f(ANGULAR_F))
    mesh = build_mesh(16, 8)
    starts = {}
    real = solver.newton_solve

    def still_up_to_02(spec_, t, start, opts, lu=None):
        starts[t] = start.geom.r.ravel().copy()
        if 0.0 < t < 0.25:
            return (ScalarField(start.geom.mesh, start.geom.r),
                    solver.NewtonStats(0, 0.0, lu=lu, ends=start))
        return real(spec_, t, start, opts, lu)

    monkeypatch.setattr(solver, "newton_solve", still_up_to_02)
    _, history = continuation_solve(spec, mesh)
    t0, t1, t2, t3, t4, t5 = (st.t for st in history[:6])
    sols = {st.t: st.r_field.flat() for st in history}
    assert [round(t, 12) for t in (t0, t1, t2, t3)] == [0.0, 0.1, 0.2, 0.3]
    for t in (t1, t2, t3):
        assert np.array_equal(starts[t], sols[t0])
    slope = (sols[t3] - sols[t2]) / (t3 - t2)
    assert np.array_equal(starts[t4], sols[t3] + (t4 - t3) * slope)
    quadratic = sum(sols[a] * (t5 - b) * (t5 - c) / ((a - b) * (a - c))
                    for a, b, c in ((t2, t3, t4), (t3, t4, t2), (t4, t2, t3)))
    np.testing.assert_allclose(starts[t5], quadratic, rtol=0, atol=1e-14)


def test_continuation_takes_at_most_two_newton_iterations_once_three_states_are_accepted():
    """From the fourth accepted state on, each t-step starts at the quadratic
    through the last three, close enough for one or two Newton iterations
    (a secant start takes three on this path: 31 iterations in all)."""
    spec = closed_form_spec(f=parse_f(ANGULAR_F))
    final, history = continuation_solve(spec, build_mesh(16, 8))
    assert final.t == 1.0 and len(history) == 11
    assert max(st.newton_iters for st in history[3:]) <= 2


@pytest.mark.parametrize("error", [FEvalError, ProfileViolation, NonFiniteField])
def test_inadmissible_prediction_halves_the_t_step(monkeypatch, error):
    """A predicted guess whose residual raises FEvalError, ProfileViolation
    or NonFiniteField fails its t-step like any Newton failure: dt halves,
    the factor is dropped, and the path still reaches t = 1 with no raw
    error."""
    spec = closed_form_spec(f=parse_f(ANGULAR_F))
    mesh = build_mesh(16, 8)
    real = solver.residual
    raised = []

    def refuse_first_guess_at_03(t, ends):
        if abs(t - 0.3) < 1e-12 and not raised:
            raised.append(t)
            raise error("forced: predicted guess is inadmissible")
        return real(t, ends)

    monkeypatch.setattr(solver, "residual", refuse_first_guess_at_03)
    built = _count_builds(monkeypatch)
    final, history = continuation_solve(spec, mesh)
    ts = [round(st.t, 12) for st in history]
    assert raised and final.t == 1.0
    assert ts[:4] == [0.0, 0.1, 0.2, 0.25]
    assert len(built) == 2  # one build before the failed step, one after it


def count_f_through_the_residual(monkeypatch, spec):
    """A list that gains the t of each evaluation of spec.f made inside solver.residual."""
    inside, evaluated = [], []
    real_residual, real_evaluate = solver.residual, type(spec.f).evaluate

    def residual_(t, ends):
        inside.append(t)
        try:
            return real_residual(t, ends)
        finally:
            inside.pop()

    def evaluate(self, *args):
        if inside:
            evaluated.append(inside[-1])
        return real_evaluate(self, *args)

    monkeypatch.setattr(solver, "residual", residual_)
    monkeypatch.setattr(type(spec.f), "evaluate", evaluate)
    return evaluated


def test_round_continuation_evaluates_f_once(monkeypatch):
    """Every t-step of a round solve starts at the unmoved round state, and
    Newton starts from that state's homotopy endpoints: f is evaluated once,
    on the first t > 0 step, and never at t = 0."""
    spec = closed_form_spec()
    mesh = build_mesh(32, 16)
    evaluated = count_f_through_the_residual(monkeypatch, spec)
    seen = []
    _, history = continuation_solve(spec, mesh, on_accept=lambda st, geom: seen.append(len(evaluated)))
    assert [round(st.t, 12) for st in history] == [round(0.1 * i, 12) for i in range(11)]
    assert evaluated == [pytest.approx(0.1)]
    assert seen == [0] + [1] * 10


def test_a_retried_t_step_forms_no_new_f(monkeypatch):
    """A t-step that fails after its start residual (here a forced
    NewtonFailure at t = 0.1) is retried at t = 0.05 from the same accepted
    state: the retry reuses that state's f, so f is evaluated once in all."""
    spec = closed_form_spec()
    mesh = build_mesh(32, 16)
    evaluated = count_f_through_the_residual(monkeypatch, spec)
    counting_residual, failed = solver.residual, []

    def fail_once_at_01(t, ends):
        res = counting_residual(t, ends)
        if abs(t - 0.1) < 1e-12 and not failed:
            failed.append(t)
            raise NewtonFailure("forced: the t-step fails after its start residual")
        return res

    monkeypatch.setattr(solver, "residual", fail_once_at_01)
    final, history = continuation_solve(spec, mesh)
    assert failed and final.t == 1.0
    assert [round(st.t, 12) for st in history[:2]] == [0.0, 0.05]
    assert evaluated == [pytest.approx(0.1)]


def test_non_finite_secant_guess_halves_the_t_step(monkeypatch):
    """A secant guess that is not finite is inadmissible: the t-step halves.
    Here the accepted state at t = 0.1 sits at 1e308 on one node, so the
    secant slope is infinite, every guess overflows, Newton never runs past
    t = 0.1, and dt halves to underflow: a breakdown, not a raw error."""
    spec = closed_form_spec(f=parse_f(ANGULAR_F))
    mesh = build_mesh(16, 8)
    real = solver.newton_solve
    tried = []

    def huge_first_step(spec_, t, start, opts, lu=None):
        tried.append(t)
        sol, stats = real(spec_, t, start, opts, lu)
        if len(tried) == 2:  # the state accepted at t = 0.1
            values = sol.values.copy()
            values.flat[0] = 1e308
            sol = ScalarField(sol.mesh, values)
        return sol, stats

    monkeypatch.setattr(solver, "newton_solve", huge_first_step)
    with np.errstate(over="ignore"), pytest.raises(ContinuationBreakdown) as err:
        continuation_solve(spec, mesh)
    assert err.value.last_good.t == pytest.approx(0.1)
    assert tried == [0.0, pytest.approx(0.1)]


def test_cli_non_finite_residual_at_a_trial_solves_without_traceback(monkeypatch, tmp_path, capsys):
    """The third residual of a CLI solve (the first trial of the t = 0.1 step)
    is infinite at one node; the solve goes on and exits 0."""
    hits = infinite_curvature_at(monkeypatch, 3)
    cfg = tmp_path / "case.cfg"
    cfg.write_text(REDUCED_CASE)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "solve"]) == 0
    out = capsys.readouterr()
    assert hits == [pytest.approx(0.1)] and "Traceback" not in out.out + out.err


def test_failed_jacobian_builds_break_down_naming_the_error(monkeypatch):
    """Every Jacobian build at t > 0 meets an inadmissible perturbed jet: each
    t-step fails, dt halves to underflow from the round state at t = 0, and
    the breakdown's message names the error that rejected the last t-step."""
    spec = closed_form_spec(f=parse_f(ANGULAR_F))
    mesh = build_mesh(16, 8)
    real = solver._pointwise_residual

    def kernel(t, ends):
        if t > 0 and ends.geom.mesh is None:  # a Jacobian block, not a node field
            raise ConeViolation("forced cone exit")
        return real(t, ends)

    monkeypatch.setattr(solver, "_pointwise_residual", kernel)
    with pytest.raises(ContinuationBreakdown) as err:
        continuation_solve(spec, mesh)
    assert err.value.last_good.t == 0.0
    assert "AdmissibilityError: Jacobian at t=" in str(err.value)


def test_continuation_refuses_failed_assumptions():
    spec = closed_form_spec(f=parse_f("3/r^2"))
    mesh = build_mesh(32, reduced=True)
    with pytest.raises(AssumptionFailure) as err:
        continuation_solve(spec, mesh)
    assert "outer_barrier" in str(err.value)


def test_continuation_breakdown_when_forced_past_bad_outer_barrier():
    spec = closed_form_spec(f=parse_f("3/r^2"))
    mesh = build_mesh(32, reduced=True)
    with pytest.raises(ContinuationBreakdown) as err:
        continuation_solve(spec, mesh, force=True)
    exc = err.value
    assert exc.last_good is not None and exc.failed_interval is not None
    assert exc.last_good.t < 1.0
    # the breakdown happens where the constant-graph family exits the annulus
    assert 0.15 <= exc.failed_interval[0] <= 0.3


def test_manufactured_residual_at_target_is_truncation():
    """With continuum-accurate manufacturing the discrete residual at the
    target measures pure truncation: small at 128x64 and shrinking under
    colatitude refinement."""
    target = lambda th, ph: 1 + 0.05 * np.cos(th)
    base = closed_form_spec(phi_rm=1.0)
    norms = {}
    for nt in (64, 128):
        mesh = build_mesh(nt, nt // 2)
        spec = closed_form_spec(f=manufacture_f(base, mesh, target), phi_rm=1.0)
        tf = ScalarField(mesh, np.broadcast_to(
            target(mesh.theta, None)[:, None], mesh.shape).copy())
        norms[nt] = float(np.abs(field_residual(spec, 1.0, tf).values).max())
    assert norms[128] <= 1e-5
    assert norms[64] / norms[128] >= 8.0


def test_manufactured_convergence_hyperbolic():
    """Manufactured-target study in the hyperbolic warp (well-posed there).

    In the euclidean warp the same construction leaves the surface scale
    undetermined; see test_manufactured_euclidean_degeneracy_is_reported.
    """
    profile = WarpProfile("hyperbolic", (0.0, 10.0))
    target = lambda th, ph: 1 + 0.05 * np.cos(th)
    errs = []
    for nt in (64, 128, 256):
        mesh = build_mesh(nt, reduced=True)
        base = ProblemSpec(profile, parse_f("1"), 0.5, 2.0, 1.0)
        spec = ProblemSpec(profile, manufacture_f(base, mesh, target), 0.5, 2.0, 1.0)
        final, _ = continuation_solve(spec, mesh, SolverOptions(newton_tol=1e-11))
        errs.append(float(np.abs(final.r_field.values - target(mesh.theta, None)).max()))
    assert errs[0] / errs[1] >= 8.0
    assert errs[1] / errs[2] >= 8.0
    assert errs[2] <= 1e-5


def test_manufactured_convergence_full_2d():
    """A target that is not axisymmetric, on full meshes: the solve error
    against it falls by >= 12 from 16x8 to 32x16 (the through-pole azimuthal
    stencils included), and every assumption check passes."""
    profile = WarpProfile("hyperbolic", (0.0, 10.0))
    target = lambda th, ph: (1 + 0.025 * (3 * np.cos(th) ** 2 - 1)
                             + 0.04 * np.sin(th) ** 2 * np.cos(2 * ph))
    base = ProblemSpec(profile, parse_f("1"), 0.5, 2.0, 1.0)
    errs = []
    for nt in (16, 32):
        mesh = build_mesh(nt, nt // 2)
        spec = ProblemSpec(profile, manufacture_f(base, mesh, target), 0.5, 2.0, 1.0)
        assert all(r.passed for r in check_assumptions(spec).results)
        final, _ = continuation_solve(spec, mesh, SolverOptions())
        exact = target(mesh.theta_grid(), mesh.phi_grid())
        errs.append(float(np.abs(final.r_field.values - exact).max()))
    assert errs[0] / errs[1] >= 12.0


def test_manufactured_hyperbolic_satisfies_strict_barriers():
    profile = WarpProfile("hyperbolic", (0.0, 10.0))
    mesh = build_mesh(64, reduced=True)
    base = ProblemSpec(profile, parse_f("1"), 0.5, 2.0, 1.0)
    spec = ProblemSpec(profile, manufacture_f(
        base, mesh, lambda th, ph: 1 + 0.05 * np.cos(th)), 0.5, 2.0, 1.0)
    rep = check_assumptions(spec)
    assert rep.inner_barrier.passed and rep.outer_barrier.passed
    assert rep.radial_monotonicity.passed and rep.radial_monotonicity.boundary_case


def test_manufactured_euclidean_degeneracy_is_reported():
    """Euclidean warp + radius-independent lambda^2 f: the t = 1 equation is
    invariant under dilations of the graph, so the solution is determined
    only up to scale.  The solver must refuse (breakdown) rather than return
    an arbitrary member of the solution ray."""
    target = lambda th, ph: 1 + 0.05 * np.cos(th)
    mesh = build_mesh(64, reduced=True)
    base = closed_form_spec(phi_rm=1.0)
    spec = closed_form_spec(f=manufacture_f(base, mesh, target), phi_rm=1.0)
    with pytest.raises(ContinuationBreakdown):
        continuation_solve(spec, mesh, SolverOptions(newton_tol=1e-11), force=True)


def test_continuation_spherical_warp_round_case():
    """Third builtin warp end to end: threshold cot^2(r) with an exponential
    factor has the round root r = rm and satisfies all assumptions."""
    profile = WarpProfile("spherical", (0.0, np.pi / 2))
    f = round_exponential(0.75, 1.0)
    spec = ProblemSpec(profile, f, r1=0.3, r2=1.2, phi_rm=0.75)
    rep = check_assumptions(spec)
    assert all(r.passed for r in rep.results)
    mesh = build_mesh(32, reduced=True)
    final, history = continuation_solve(spec, mesh)
    assert final.t == 1.0
    assert np.abs(final.r_field.values - 0.75).max() <= 1e-8


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(newton_tol=-1.0)
    for bad in (np.inf, np.nan):  # an infinite t-step would survive halving forever
        for name in ("newton_tol", "t_step_init"):
            with pytest.raises(ValueError, match=name):
                SolverOptions(**{name: bad})
    with pytest.raises(ValueError, match="^t_step_init must be at least T_STEP_MIN = 0.001$"):
        SolverOptions(t_step_init=1e-4)
    assert SolverOptions(t_step_init=T_STEP_MIN).t_step_init == T_STEP_MIN
    assert [f.name for f in dataclasses.fields(SolverOptions)] == ["newton_tol", "t_step_init"]
