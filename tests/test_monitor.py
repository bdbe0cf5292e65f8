import dataclasses
import gc
import weakref

import numpy as np
import pytest

from prescurv.geometry import compute_geometry
from prescurv.mesh import ScalarField, build_mesh
from prescurv.monitor import monitor, monitor_state
from prescurv.problem import parse_f
from closed_form import EUCLID, closed_form_spec


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


def test_monitor_p_test_is_finite_at_the_default_a():
    """The default a = 0.5 min tau keeps tau - a > 0, so P is finite."""
    spec = closed_form_spec()
    mesh = build_mesh(32, reduced=True)
    geom = compute_geometry(mesh, ScalarField(mesh, np.full(32, 1.25)), EUCLID)
    assert np.isfinite(monitor(geom, spec, 1.0).p_test_max)


def test_monitor_phi_test_divides_by_capital_lambda():
    """Phi = -ln tau + alpha / Lambda(r), Lambda = r^2 / 2 in the euclidean warp."""
    spec = closed_form_spec()
    mesh = build_mesh(32, reduced=True)
    geom = compute_geometry(mesh, ScalarField(mesh, np.full(32, 1.25)), EUCLID)
    want = -np.log(1.25) + 1.0 / (1.25 ** 2 / 2)
    assert monitor(geom, spec, 1.0).phi_test_max == pytest.approx(want, rel=1e-12)


def test_monitor_barrier_flags():
    spec = closed_form_spec(r1=1.0, r2=1.2, phi_rm=1.1)
    mesh = build_mesh(32, reduced=True)
    geom = compute_geometry(mesh, ScalarField(mesh, np.full(32, 1.25)), EUCLID)
    rec = monitor(geom, spec, 0.0)
    assert rec.barrier_high_violated and not rec.barrier_low_violated
    assert not rec.barrier_ok


def test_p_test_max_is_log_kappa_over_tau_minus_a():
    """The curvature test function is P = ln(kappa_max / (tau - a)) + Lambda(r),
    a = 0.5 min tau."""
    spec = closed_form_spec()
    mesh = build_mesh(128, reduced=True)
    for r in (np.full(128, 1.25), 1 + 0.1 * np.cos(3 * mesh.theta)):
        geom = compute_geometry(mesh, ScalarField(mesh, r), EUCLID)
        rec = monitor(geom, spec, 1.0)
        want = float(np.max(np.log(geom.kappa1 / (geom.tau - 0.5 * geom.tau.min()))
                            + geom.capital_lambda))
        assert rec.p_test_max == pytest.approx(want, rel=1e-12)


def test_monitor_state_reads_the_accepted_geometry():
    """monitor_state on the geometry continuation_solve hands to on_accept is
    the monitor of that state's recomputed geometry, field for field."""
    from prescurv.solver import continuation_solve

    spec = closed_form_spec(f=parse_f("1/r^2 * exp(1.25 - r) * (1 + 0.05*cos(th))"))
    mesh = build_mesh(32, reduced=True)
    accepted = []
    final, history = continuation_solve(spec, mesh,
                                        on_accept=lambda st, geom: accepted.append((st, geom)))
    assert [st for st, _ in accepted] == history and history[-1] is final
    for st, geom in accepted:
        assert geom.mesh is mesh and np.array_equal(geom.r, st.r_field.values)
        oracle = compute_geometry(mesh, st.r_field, spec.profile)
        assert monitor_state(st, spec, geom) == monitor(oracle, spec, st.t)
    assert final.t == 1.0 and monitor_state(final, spec, accepted[-1][1]).barrier_ok


def test_monitor_flags_and_t_are_per_call():
    """One geometry monitored under two annuli, one holding it and one that
    it crosses, gets each call's own barrier flags, and two calls at
    different t give records that differ in t alone."""
    inside = closed_form_spec()
    across = closed_form_spec(r1=1.0, r2=1.2, phi_rm=1.1)
    mesh = build_mesh(32, reduced=True)
    geom = compute_geometry(mesh, ScalarField(mesh, np.full(32, 1.25)), EUCLID)
    first = monitor(geom, inside, 1.0)
    crossed = monitor(geom, across, 1.0)
    again = monitor(geom, inside, 1.0)
    assert first.barrier_ok and again == first
    assert crossed.barrier_high_violated and not crossed.barrier_low_violated
    assert crossed == dataclasses.replace(first, barrier_high_violated=True)
    half = monitor(geom, inside, 0.5)
    assert half != first and half == dataclasses.replace(first, t=0.5)


def test_monitor_reductions_go_with_their_geometry():
    """A monitored geometry is freed once its last reference goes, and a
    geometry formed after it (one that may reuse its address) gets its own
    reductions: each record equals the monitor of a geometry formed afresh
    from the same field, and its r_min, r_max, kappa_max and mu_min are that
    geometry's."""
    spec = closed_form_spec()
    mesh = build_mesh(32, reduced=True)
    geom = compute_geometry(mesh, ScalarField(mesh, np.full(32, 1.25)), EUCLID)
    monitor(geom, spec, 1.0)
    ref = weakref.ref(geom)
    del geom
    gc.collect()
    assert ref() is None
    for k in range(40):
        field = ScalarField(mesh, 1.0 + 0.01 * k + 0.05 * np.cos(mesh.theta))
        rec = monitor(compute_geometry(mesh, field, EUCLID), spec, 1.0)
        fresh = compute_geometry(mesh, field, EUCLID)
        assert rec == monitor(fresh, spec, 1.0)
        assert (rec.r_min, rec.r_max) == (float(field.values.min()), float(field.values.max()))
        assert (rec.kappa_max, rec.mu_min) == (float(fresh.kappa1.max()), float(fresh.mu1.min()))
