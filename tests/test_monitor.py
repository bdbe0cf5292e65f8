import numpy as np
import pytest

from prescurv.geometry import compute_geometry
from prescurv.mesh import ScalarField, build_mesh
from prescurv.monitor import monitor, monitor_state, refinement_stability
from prescurv.problem import ProblemSpec, manufacture_f, parse_f
from prescurv.solver import SolverOptions
from prescurv.warp import WarpProfile

EUCLID = WarpProfile.euclidean((0.0, 10.0))


def closed_form_spec(**kw):
    args = dict(profile=EUCLID, f=parse_f("1/r^2 * exp(1.25 - r)"),
                r1=0.5, r2=2.0, phi_rm=1.25, phi_c=1.0)
    args.update(kw)
    return ProblemSpec(**args)


def test_monitor_round_graph_values():
    spec = closed_form_spec()
    mesh = build_mesh(32, reduced=True)
    rho = 1.25
    geom = compute_geometry(mesh, ScalarField(mesh, np.full(32, rho)), EUCLID)
    rec = monitor(geom, spec, t=1.0)
    assert rec.tau_min == pytest.approx(rho, abs=1e-12)
    assert rec.grad_max <= 1e-12
    assert rec.kappa_max == pytest.approx(1 / rho, abs=1e-10)
    assert rec.mu_min == pytest.approx(1 / rho, abs=1e-10)
    assert rec.barrier_ok


def test_monitor_perturbed_kappa_range():
    spec = closed_form_spec()
    mesh = build_mesh(128, reduced=True)
    geom = compute_geometry(mesh, ScalarField(mesh, 1 + 0.05 * np.cos(mesh.theta)), EUCLID)
    rec = monitor(geom, spec, t=1.0)
    assert 0.9 <= rec.kappa_max <= 1.2
    assert np.isfinite(rec.p_test_max) and np.isfinite(rec.phi_test_max)
    assert rec.mu_min > 0
    assert rec.tau_min > 0 and 0.5 * rec.tau_min < rec.tau_min  # a < min tau by construction


def test_monitor_a_override_validation():
    spec = closed_form_spec()
    mesh = build_mesh(32, reduced=True)
    geom = compute_geometry(mesh, ScalarField(mesh, np.full(32, 1.25)), EUCLID)
    with pytest.raises(ValueError):
        monitor(geom, spec, 1.0, a_value=2.0)  # a >= min tau
    with pytest.raises(ValueError):
        monitor(geom, spec, 1.0, gamma_arg="lambda")


def test_monitor_gamma_argument_choices():
    spec = closed_form_spec()
    mesh = build_mesh(32, reduced=True)
    geom = compute_geometry(mesh, ScalarField(mesh, np.full(32, 1.25)), EUCLID)
    via_integral = monitor(geom, spec, 1.0, gamma_arg="capital_lambda")
    via_radius = monitor(geom, spec, 1.0, gamma_arg="r")
    # gamma(s) = alpha/s with s = r^2/2 vs s = r differ on a round graph
    assert via_integral.phi_test_max != via_radius.phi_test_max
    want = -np.log(1.25) + 1.0 / (1.25 ** 2 / 2)
    assert via_integral.phi_test_max == pytest.approx(want, rel=1e-12)


def test_monitor_barrier_flags():
    spec = closed_form_spec(r1=1.0, r2=1.2, phi_rm=1.1)
    mesh = build_mesh(32, reduced=True)
    geom = compute_geometry(mesh, ScalarField(mesh, np.full(32, 1.25)), EUCLID)
    rec = monitor(geom, spec, 0.0)
    assert rec.barrier_high_violated and not rec.barrier_low_violated
    assert not rec.barrier_ok


def test_p_test_argmax_agreement():
    spec = closed_form_spec()
    mesh = build_mesh(128, reduced=True)
    # round graph: all nodes tie, both argmaxes resolve to the first node
    geom = compute_geometry(mesh, ScalarField(mesh, np.full(128, 1.25)), EUCLID)
    rec = monitor(geom, spec, 1.0, big_a=0.0, a_value=0.0)
    assert rec.p_test_argmax == int(np.argmax(geom.kappa1)) == 0
    # generic graph: with A = 0 and a -> 0, P = ln(kappa_max/tau), so the
    # maximizer agrees with that of kappa_max/tau (log-monotonicity)
    geom = compute_geometry(mesh, ScalarField(mesh, 1 + 0.1 * np.cos(3 * mesh.theta)), EUCLID)
    rec = monitor(geom, spec, 1.0, big_a=0.0, a_value=0.0)
    assert rec.p_test_argmax == int(np.argmax(geom.kappa1 / geom.tau))


def test_refinement_stability_round_case():
    def make_spec(mesh):
        return closed_form_spec()

    table = refinement_stability(make_spec, (32, 64))
    for name in ("tau_min", "grad_max", "kappa_max"):
        a = getattr(table.rows[0], name)
        b = getattr(table.rows[1], name)
        assert abs(a - b) <= 1e-8
    assert not table.unstable
    assert table.rows[0].kappa_max == pytest.approx(1 / 1.25, abs=1e-8)


def test_refinement_stability_manufactured_hyperbolic():
    profile = WarpProfile.hyperbolic((0.0, 10.0))

    def make_spec(mesh):
        base = ProblemSpec(profile, parse_f("1"), 0.5, 2.0, 1.0)
        f = manufacture_f(base, mesh, lambda th, ph: 1 + 0.05 * np.cos(th))
        return ProblemSpec(profile, f, 0.5, 2.0, 1.0)

    table = refinement_stability(make_spec, (64, 128), opts=SolverOptions(newton_tol=1e-11))
    a, b = table.rows
    assert abs(b.kappa_max - a.kappa_max) / b.kappa_max <= 0.01
    assert not table.unstable


def test_refinement_stability_flags_growth():
    """A prescription whose root shrinks with resolution drives kappa_max up."""
    def make_spec(mesh):
        rm = 1.25 if mesh.n_theta <= 32 else 0.7
        f = parse_f(f"1/r^2 * exp({rm} - r)")
        return closed_form_spec(f=f, phi_rm=rm)

    table = refinement_stability(make_spec, (32, 64))
    assert table.unstable
    assert table.stability_ratio > 0.4


def test_monitor_state_recomputes_from_field():
    from prescurv.solver import continuation_solve

    spec = closed_form_spec()
    mesh = build_mesh(32, reduced=True)
    final, history = continuation_solve(spec, mesh)
    rec = monitor_state(final, spec, mesh)
    assert rec.t == 1.0
    assert rec.r_min == pytest.approx(1.25, abs=1e-8)
    assert rec.barrier_ok
