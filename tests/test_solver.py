import numpy as np
import pytest
from scipy.sparse import csc_array

from prescurv import geometry, solver
from prescurv.cli import main
from prescurv.errors import (
    AdmissibilityError,
    AssumptionFailure,
    ConeViolation,
    ContinuationBreakdown,
    DomainViolation,
    FEvalError,
    NewtonFailure,
)
from prescurv.geometry import compute_geometry
from prescurv.mesh import (
    ScalarField,
    build_mesh,
    field_from_flat,
    field_from_function,
    stencil_footprint,
)
from prescurv.problem import (
    ProblemSpec,
    RoundExponentialF,
    manufacture_f,
    parse_f,
    phi_value,
    threshold,
)
from prescurv.solver import (
    SolverOptions,
    continuation_solve,
    jacobian_coloured,
    jacobian_fd,
    newton_solve,
    residual,
    total_newton_iterations,
)
from prescurv.symm import QuotientOrder, quotient_ratio_batch
from prescurv.warp import WarpProfile

EUCLID = WarpProfile.euclidean((0.0, 10.0))
Q20 = QuotientOrder(2, 0)


def closed_form_spec(**kw):
    args = dict(profile=EUCLID, f=parse_f("1/r^2 * exp(1.25 - r)"),
                r1=0.5, r2=2.0, phi_rm=1.25, phi_c=1.0)
    args.update(kw)
    return ProblemSpec(**args)


def const_field(mesh, value):
    return field_from_flat(mesh, np.full(mesh.n_nodes, float(value)))


# -- residual ------------------------------------------------------------------

def test_residual_zero_at_round_start():
    spec = closed_form_spec()
    mesh = build_mesh(32, 16)
    res = residual(spec, mesh, 0.0, const_field(mesh, spec.phi_rm))
    assert np.abs(res.values).max() <= 1e-12


def test_residual_zero_at_closed_form_root():
    spec = closed_form_spec()
    mesh = build_mesh(32, 16)
    res = residual(spec, mesh, 1.0, const_field(mesh, 1.25))
    assert np.abs(res.values).max() <= 1e-12


def test_residual_evaluates_lambda_once_beside_f(monkeypatch):
    """compute_geometry evaluates lambda and the t = 0 endpoint reuses it; only
    an f that reads lambda itself evaluates it again, and only for t > 0."""
    calls = []
    original = WarpProfile.eval_lambda
    monkeypatch.setattr(WarpProfile, "eval_lambda",
                        lambda self, r: calls.append(1) or original(self, r))
    mesh = build_mesh(16, 8)
    round_exp = RoundExponentialF(rm=1.25, alpha=1.0, profile=EUCLID)
    for spec, want in ((closed_form_spec(), {0.0: 1, 0.5: 1}),
                       (closed_form_spec(f=round_exp), {0.0: 1, 0.5: 2})):
        for t, count in want.items():
            calls.clear()
            residual(spec, mesh, t, const_field(mesh, 1.2))
            assert len(calls) == count


def test_residual_cone_violation_names_node():
    spec = closed_form_spec()
    mesh = build_mesh(32, reduced=True)
    bad = ScalarField(mesh, 1 + 0.3 * np.cos(2 * mesh.theta))
    with pytest.raises(ConeViolation) as err:
        residual(spec, mesh, 0.0, bad)
    assert err.value.node is not None


def test_residual_domain_violation():
    spec = closed_form_spec(profile=WarpProfile.euclidean((0.5, 2.5)),
                            r1=0.8, r2=2.0, phi_rm=1.25)
    mesh = build_mesh(16, 8)
    with pytest.raises(DomainViolation):
        residual(spec, mesh, 0.0, const_field(mesh, 3.0))


# -- finite-difference Jacobian ---------------------------------------------------

def test_jacobian_zeroth_order_sign_and_invertibility():
    """At t = 0 the blend's radial slope is negative, so its residual
    contribution is positive; the Jacobian at the round start is invertible."""
    spec = closed_form_spec()
    h = 1e-6
    rm = spec.phi_rm

    def f0(r):
        return float(phi_value(spec, r)) * threshold(EUCLID, r)

    slope = (f0(rm + h) - f0(rm - h)) / (2 * h)
    assert -slope > 0.1  # strictly positive zeroth-order contribution

    mesh = build_mesh(16, 8)
    jac = jacobian_fd(spec, mesh, 0.0, const_field(mesh, rm))
    rhs = np.ones(mesh.n_nodes)
    x = np.linalg.solve(jac, rhs)
    assert np.all(np.isfinite(x))
    assert np.abs(jac @ x - rhs).max() <= 1e-8


def test_jacobian_columns_respect_grid_rotation():
    """On a round start, columns of nodes related by an azimuthal rotation
    are the same rotation of each other."""
    spec = closed_form_spec()
    mesh = build_mesh(16, 8)
    jac = jacobian_fd(spec, mesh, 0.0, const_field(mesh, spec.phi_rm))
    n_phi = mesh.n_phi
    shift = 3
    col_a = jac[:, 0 * n_phi + 0].reshape(mesh.shape)       # node (0, 0)
    col_b = jac[:, 0 * n_phi + shift].reshape(mesh.shape)   # node (0, shift)
    assert np.abs(np.roll(col_a, shift, axis=1) - col_b).max() <= 1e-10


def test_newton_step_robust_to_fd_step_halving(monkeypatch):
    spec = closed_form_spec()
    mesh = build_mesh(24, reduced=True)
    r0 = ScalarField(mesh, 1.25 + 0.05 * np.cos(mesh.theta))
    from prescurv.solver import _residual_vec

    res = _residual_vec(spec, mesh, 0.5, r0.flat())
    steps = {}
    for scale in (1e-6, 5e-7):
        monkeypatch.setattr(solver, "FD_SCALE", scale)
        jac = jacobian_fd(spec, mesh, 0.5, r0)
        steps[scale] = np.linalg.solve(jac, -res)
    rel = np.linalg.norm(steps[1e-6] - steps[5e-7]) / np.linalg.norm(steps[1e-6])
    assert rel <= 1e-4


# -- coloured sparse Jacobian against the dense oracle ------------------------------

ANGULAR_F = "1/r^2 * exp(1.25 - r) * (1 + 0.03*sin(th)*cos(ph) - 0.02*sin(th)*sin(ph))"


def bumpy_field(mesh):
    """A non-round admissible graph near r = 1.25, not symmetric in theta or phi."""
    return field_from_function(mesh, lambda th, ph: 1.25 + 0.04 * np.cos(th)
                               + 0.02 * np.sin(th) * np.cos(ph)
                               + 0.01 * np.sin(th) ** 2 * np.sin(2 * ph))


ORACLE_CASES = {
    "euclidean-full": (EUCLID, ANGULAR_F, (16, 8)),
    "custom-reduced": (WarpProfile.custom((0.0, 1.0, 0.0, 1.0 / 6.0), (0.0, 5.0)),
                       "1/r^2 * exp(1.25 - r) * (1 + 0.03*cos(th))", (16, None)),
    "hyperbolic-full": (WarpProfile.hyperbolic((0.0, 10.0)), ANGULAR_F, (16, 8)),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_coloured_jacobian_matches_dense_oracle(case):
    profile, f_text, (n_theta, n_phi) = ORACLE_CASES[case]
    spec = closed_form_spec(profile=profile, f=parse_f(f_text))
    mesh = build_mesh(n_theta, n_phi, reduced=n_phi is None)
    r = bumpy_field(mesh)
    dense = jacobian_fd(spec, mesh, 0.7, r)
    coloured = jacobian_coloured(spec, mesh, 0.7, r)
    assert coloured.shape == dense.shape
    assert np.abs(coloured.toarray() - dense).max() <= 1e-12 * np.abs(dense).max()


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
    residual(spec, mesh, 0.5, const_field(mesh, 1.25))
    _, stats = newton_solve(spec, mesh, 0.5, const_field(mesh, 1.25))
    assert stats.iterations > 0 and stats.residual_norm <= SolverOptions().newton_tol


@pytest.mark.parametrize("shape", [(16, 8), (16, 4), (20, 10), (16, None)])
def test_stencil_footprint_covers_dense_jacobian(shape):
    mesh = build_mesh(shape[0], shape[1], reduced=shape[1] is None)
    spec = closed_form_spec(f=parse_f(ANGULAR_F))
    dense = jacobian_fd(spec, mesh, 0.7, bumpy_field(mesh))
    rows, cols = stencil_footprint(mesh)
    outside = np.ones(dense.shape, dtype=bool)
    outside[rows, cols] = False
    assert not np.any(dense[outside])


def test_coloured_group_falls_back_to_single_columns(monkeypatch):
    """A colour-group perturbation that leaves the cone is redone column by
    column: central where the column alone stays admissible, one-sided where
    it does not (column 0 at +h below), exactly as the dense oracle does."""
    spec = closed_form_spec(f=parse_f(ANGULAR_F))
    mesh = build_mesh(16, 8)
    r = bumpy_field(mesh)
    unpatched = jacobian_fd(spec, mesh, 0.7, r)
    base = r.flat().copy()
    real = solver._residual_vec

    def cone_exit_near_node_0(spec_, mesh_, t_, rvec):
        moved = np.flatnonzero(rvec != base)
        if 0 in moved and (moved.size > 1 or rvec[0] > base[0]):
            raise ConeViolation("forced cone exit", node=0)
        return real(spec_, mesh_, t_, rvec)

    monkeypatch.setattr(solver, "_residual_vec", cone_exit_near_node_0)
    dense = jacobian_fd(spec, mesh, 0.7, r)
    coloured = jacobian_coloured(spec, mesh, 0.7, r).toarray()
    assert np.array_equal(coloured, dense)
    assert not np.array_equal(dense[:, 0], unpatched[:, 0])  # column 0 went one-sided
    np.testing.assert_array_equal(dense[:, 1:], unpatched[:, 1:])


def singular_jacobian(spec, mesh, t, r_field):
    return csc_array((mesh.n_nodes, mesh.n_nodes))


def test_singular_jacobian_is_a_newton_failure(monkeypatch):
    monkeypatch.setattr(solver, "jacobian_coloured", singular_jacobian)
    spec = closed_form_spec()
    mesh = build_mesh(16, reduced=True)
    with pytest.raises(NewtonFailure, match="factorization"):
        newton_solve(spec, mesh, 0.0, const_field(mesh, spec.phi_rm + 0.1))


def test_cli_singular_jacobian_breaks_down_without_traceback(monkeypatch, tmp_path, capsys):
    """Every t-step fails to factor, so the continuation halves dt to
    underflow and the CLI exits 4 (continuation breakdown)."""
    monkeypatch.setattr(solver, "jacobian_coloured", singular_jacobian)
    cfg = tmp_path / "case.cfg"
    cfg.write_text("warp.kind = euclidean\nwarp.domain = 0,10\nmesh.n_theta = 16\n"
                   "mesh.reduced = true\nproblem.r1 = 0.5\nproblem.r2 = 2\nphi.rm = 1.25\n"
                   "f.expr = 1/r^2 * exp(1.25 - r) * (1 + 0.03*cos(th))\n")
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
    res = residual(spec, mesh, 1.0, start).flat()
    full_step = start.flat() + np.linalg.solve(jacobian_fd(spec, mesh, 1.0, start), -res)
    with pytest.raises(FEvalError):
        residual(spec, mesh, 1.0, field_from_flat(mesh, full_step))
    sol, stats = newton_solve(spec, mesh, 1.0, start)
    assert stats.halvings >= 1
    assert np.abs(sol.values - 1.25).max() <= 1e-8


# -- Newton ----------------------------------------------------------------------

def test_newton_t0_converges_to_round_solution():
    spec = closed_form_spec()
    mesh = build_mesh(32, reduced=True)
    sol, stats = newton_solve(spec, mesh, 0.0, const_field(mesh, spec.phi_rm + 0.1))
    assert np.abs(sol.values - spec.phi_rm).max() <= 1e-8
    assert stats.residual_norm <= 1e-10


def test_newton_closed_form_from_far_start():
    spec = closed_form_spec()
    mesh = build_mesh(24, 8)
    sol, stats = newton_solve(spec, mesh, 1.0, const_field(mesh, 1.0))
    assert np.abs(sol.values - 1.25).max() <= 1e-6


def test_newton_rejects_bad_initial_data():
    mesh = build_mesh(16, 8)
    # inside the guard band but outside the radius domain
    spec = closed_form_spec(profile=WarpProfile.euclidean((0.5, 2.05)),
                            r1=0.8, r2=2.0, phi_rm=1.25)
    with pytest.raises(DomainViolation):
        newton_solve(spec, mesh, 0.0, const_field(mesh, 2.055))
    spec2 = closed_form_spec()
    with pytest.raises(AdmissibilityError):
        newton_solve(spec2, mesh, 0.0, const_field(mesh, 2.3))  # beyond the guard


# -- continuation ------------------------------------------------------------------

def test_continuation_closed_form():
    spec = closed_form_spec()
    mesh = build_mesh(64, 32)
    final, history = continuation_solve(spec, mesh)
    assert final.t == 1.0
    assert np.abs(final.r_field.values - 1.25).max() <= 1e-6
    assert total_newton_iterations(history) <= 20
    # re-evaluated residual equals the reported norm (no hidden state)
    res = residual(spec, mesh, final.t, final.r_field)
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
        sol, _ = newton_solve(spec, mesh, 0.0, init)
        spread = max(spread, float(np.abs(sol.values - spec.phi_rm).max()))
    assert spread <= 1e-8


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
        norms[nt] = float(np.abs(residual(spec, mesh, 1.0, tf).values).max())
    assert norms[128] <= 1e-5
    assert norms[64] / norms[128] >= 8.0


def test_manufactured_convergence_hyperbolic():
    """Manufactured-target study in the hyperbolic warp (well-posed there).

    In the euclidean warp the same construction leaves the surface scale
    undetermined; see test_manufactured_euclidean_degeneracy_is_reported.
    """
    profile = WarpProfile.hyperbolic((0.0, 10.0))
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


def test_manufactured_hyperbolic_satisfies_strict_barriers():
    profile = WarpProfile.hyperbolic((0.0, 10.0))
    mesh = build_mesh(64, reduced=True)
    base = ProblemSpec(profile, parse_f("1"), 0.5, 2.0, 1.0)
    spec = ProblemSpec(profile, manufacture_f(
        base, mesh, lambda th, ph: 1 + 0.05 * np.cos(th)), 0.5, 2.0, 1.0)
    from prescurv.problem import check_assumptions

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
    from prescurv.problem import RoundExponentialF, check_assumptions

    profile = WarpProfile.spherical((0.0, np.pi / 2))
    f = RoundExponentialF(rm=0.75, alpha=1.0, profile=profile)
    spec = ProblemSpec(profile, f, r1=0.3, r2=1.2, phi_rm=0.75)
    rep = check_assumptions(spec)
    assert rep.all_passed
    mesh = build_mesh(32, reduced=True)
    final, history = continuation_solve(spec, mesh)
    assert final.t == 1.0
    assert np.abs(final.r_field.values - 0.75).max() <= 1e-8


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(newton_tol=-1.0)
    for bad in (np.inf, np.nan):  # an infinite t-step would survive halving forever
        for name in ("newton_tol", "t_step_init", "t_step_min"):
            with pytest.raises(ValueError, match=name):
                SolverOptions(**{name: bad})
    with pytest.raises(ValueError):
        SolverOptions(t_step_init=1e-4, t_step_min=1e-3)
