"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Criteria 1, 2, 3 and 8 run checks of prescurv.selftest,
the ones `prescurv selftest` prints and tests/test_selftest.py runs by name.
"""

import dataclasses
import time

import numpy as np
import pytest

from prescurv.cli import main as cli_main
from prescurv.errors import ContinuationBreakdown
from prescurv.mesh import ScalarField, build_mesh
from prescurv.problem import ProblemSpec, check_assumptions, manufacture_f, parse_f
from prescurv.selftest import CHECKS
from prescurv.solver import (
    SolverOptions,
    continuation_solve,
    newton_solve,
    node_endpoints,
    total_newton_iterations,
)
from prescurv.warp import WarpProfile
from closed_form import closed_form_spec


def report(line):
    print(f"\n{line}")


def test_criterion_1_symmetric_function_suite():
    """The sigma and quotient checks of prescurv.selftest: sigma vs brute force
    (rel 1e-12, n <= 8), the deleted-entry and Euler identities, gradient vs
    FD <= 1e-6 and cone lower bound within 1e-10 on 100 cone points each,
    off-diagonal identity <= 1e-5 on 50 triples, concavity <= 1e-6 on 100
    cone points; all in under 10 s."""
    t0 = time.perf_counter()
    results = {c.name: c.run() for c in CHECKS if c.name.startswith(("sigma-", "quotient-"))}
    elapsed = time.perf_counter() - t0
    report("criterion 1: " + "; ".join(f"{name} {res}" for name, res in results.items())
           + f" in {elapsed:.1f}s")
    assert [name for name, res in results.items() if not res.passed] == []
    assert elapsed < 10.0


def run_check(name):
    return next(c for c in CHECKS if c.name == name).run()


def test_criterion_2_geometry_oracle():
    """kappa1, kappa2, H and K vs the flat-embedding oracle at 128x64 within
    1e-5 relative on r = 1 + 0.1 sin(th) cos(ph); kappa1, mu1 and tau of the
    round graph at 128x64 exact to 1e-8 (prescurv.selftest's
    geometry-H-K-vs-embedding and geometry-round-graph); under 30 s."""
    t0 = time.perf_counter()
    oracle, round_graph = run_check("geometry-H-K-vs-embedding"), run_check("geometry-round-graph")
    elapsed = time.perf_counter() - t0
    report(f"criterion 2: oracle {oracle}; round graph {round_graph} in {elapsed:.1f}s")
    assert oracle.passed and round_graph.passed
    assert elapsed < 30.0


def test_criterion_3_constant_graph_identity():
    """sigma_k/sigma_l at r = c equals the constant-graph threshold to 1e-10
    for 4 profiles x 7 radii (prescurv.selftest's geometry-constant-graph-identity)."""
    res = run_check("geometry-constant-graph-identity")
    report(f"criterion 3: constant-graph identity {res}")
    assert res.passed


def test_criterion_4_closed_form_solve():
    """Continuation on 64x32 reaches t = 1 with max|r - 1.25| <= 1e-6 in at
    most 20 Newton iterations and under 60 s."""
    t0 = time.perf_counter()
    spec = closed_form_spec()
    mesh = build_mesh(64, 32)
    final, history = continuation_solve(spec, mesh)
    elapsed = time.perf_counter() - t0
    err = float(np.abs(final.r_field.values - 1.25).max())
    iters = total_newton_iterations(history)
    report(f"criterion 4: t={final.t} err {err:.2e} newton iters {iters} in {elapsed:.1f}s")
    assert final.t == 1.0
    assert err <= 1e-6
    assert iters <= 20
    assert elapsed < 60.0


def test_criterion_5_manufactured_convergence_euclidean():
    """Manufactured target 1 + 0.05 cos(th) in the euclidean warp at
    64/128/256 reduced nodes: error vs the target drops by >= 8 per doubling
    and is <= 1e-5 at 256.

    The prescription is f = Q* (r*/r)^(k-l+1): Q* and lambda(r*) come from
    manufacture_f, with the exponent raised by one.  The target r* still
    solves the continuum equation exactly, and lambda^(k-l) f = Q* r*^3 / r
    is strictly decreasing in r, so the monotonicity assumption holds
    strictly and fixes the scale of the t = 1 solution.  With the
    exponent k-l itself, lambda^(k-l) f is r-independent and the euclidean
    t = 1 equation is invariant under dilations r -> c r; that degenerate
    case is covered by
    test_solver.test_manufactured_euclidean_degeneracy_is_reported.
    """
    target = lambda th, ph: 1 + 0.05 * np.cos(th)
    errs = []
    for nt in (64, 128, 256):
        mesh = build_mesh(nt, reduced=True)
        base = closed_form_spec(phi_rm=1.0)
        mf = manufacture_f(base, mesh, target)
        spec = closed_form_spec(
            f=dataclasses.replace(mf, exponent=mf.exponent + 1), phi_rm=1.0)
        rep = check_assumptions(spec)
        assert all(r.passed for r in rep.results), rep
        assert not any(r.boundary_case for r in rep.results), rep
        try:
            final, _ = continuation_solve(
                spec, mesh, SolverOptions(newton_tol=1e-11))
        except ContinuationBreakdown as exc:
            report(f"criterion 5: FAIL at {nt} nodes: {exc}")
            pytest.fail(
                f"euclidean manufactured solve broke down at {nt} nodes "
                f"(t-interval {exc.failed_interval})")
        errs.append(float(np.abs(final.r_field.values - target(mesh.theta, None)).max()))
    report(f"criterion 5: errors {errs}")
    assert errs[0] / errs[1] >= 8.0 and errs[1] / errs[2] >= 8.0
    assert errs[2] <= 1e-5


def test_criterion_6_barrier_invariant():
    """Every accepted continuation state of assumption-passing runs stays
    strictly inside the annulus; zero violations."""
    runs = []
    spec = closed_form_spec()
    runs.append((spec, build_mesh(64, 32), SolverOptions()))
    for alpha in (0.5, 2.0):
        f = parse_f(f"1/r^2 * exp({alpha}*(1.25 - r))")
        runs.append((closed_form_spec(f=f), build_mesh(32, reduced=True), SolverOptions()))
    hyp = WarpProfile("hyperbolic", (0.0, 10.0))
    mesh_h = build_mesh(64, reduced=True)
    base = ProblemSpec(hyp, parse_f("1"), 0.5, 2.0, 1.0)
    spec_h = ProblemSpec(hyp, manufacture_f(
        base, mesh_h, lambda th, ph: 1 + 0.05 * np.cos(th)), 0.5, 2.0, 1.0)
    runs.append((spec_h, mesh_h, SolverOptions(newton_tol=1e-11)))

    violations = 0
    states = 0
    for spec_i, mesh_i, opts in runs:
        rep = check_assumptions(spec_i)
        assert not rep.hard_failures
        final, history = continuation_solve(spec_i, mesh_i, opts)
        for st in history:
            states += 1
            vals = st.r_field.values
            if not (spec_i.r1 < vals.min() <= vals.max() < spec_i.r2):
                violations += 1
    report(f"criterion 6: {states} accepted states, {violations} barrier violations")
    assert states > 0 and violations == 0


def test_criterion_7_t0_uniqueness():
    """Newton at t = 0 lands on the round solution from 5 perturbed starts
    with spread <= 1e-8."""
    spec = closed_form_spec()
    mesh = build_mesh(64, reduced=True)
    rng = np.random.default_rng(7)
    spread = 0.0
    for i in range(5):
        amp = 0.08 * float(rng.uniform(0.5, 1.0))
        init = ScalarField(mesh, spec.phi_rm + amp * np.cos(mesh.theta * (1 + i % 3)))
        sol, _ = newton_solve(spec, 0.0, node_endpoints(spec, init))
        spread = max(spread, float(np.abs(sol.values - spec.phi_rm).max()))
    report(f"criterion 7: spread over perturbed starts {spread:.2e}")
    assert spread <= 1e-8


def test_criterion_8_identity_checks():
    """Support-function and flat-Codazzi residuals of r = 1 + 0.1 cos(th)
    <= 1e-4 at 256 reduced nodes, each falling by > 8 from 128
    (prescurv.selftest's geometry-identity-refinement-euclidean)."""
    res = run_check("geometry-identity-refinement-euclidean")
    report(f"criterion 8: {res}")
    assert res.passed


def test_criterion_9_negative_configs(tmp_path, capsys):
    """Configs violating a barrier exit with assumption-failure status and a
    margins table; converged status is never emitted without --force."""
    cases = {
        "inner": "f.expr = 0.5/r^2",
        "outer": "f.expr = 3/r^2",
    }
    for name, f_line in cases.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"""
warp.kind = euclidean
warp.domain = 0,10
mesh.n_theta = 32
mesh.reduced = true
problem.r1 = 0.5
problem.r2 = 2
{f_line}
""")
        out = str(tmp_path / name)
        code = cli_main(["--config", str(cfg), "--out", out, "solve"])
        stdout = capsys.readouterr().out
        assert code == 3
        assert "margin" in stdout and "barrier" in stdout
        assert "converged" not in stdout
        text = open(f"{out}/report.txt").read()
        assert "status = assumption-fail" in text

        forced = cli_main(["--config", str(cfg), "--out", out + "_f", "--force", "solve"])
        stdout = capsys.readouterr().out
        assert "converged" not in stdout
        assert forced in (1, 4)
        text = open(f"{out}_f/report.txt").read()
        assert "status = converged" not in text
    report("criterion 9: negative configs exit 3 with margins; forced runs never converge")
