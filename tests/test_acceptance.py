"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from prescurv.cli import main as cli_main
from prescurv.errors import ContinuationBreakdown, DegeneratePair
from prescurv.geometry import (
    check_codazzi_flat,
    check_support_identities,
    compute_geometry,
    extrinsic_shape_operator,
)
from prescurv.mesh import ScalarField, build_mesh, field_from_function
from prescurv.problem import (
    ProblemSpec,
    check_assumptions,
    manufacture_f,
    parse_f,
    threshold,
)
from prescurv.solver import (
    SolverOptions,
    continuation_solve,
    newton_solve,
    total_newton_iterations,
)
from prescurv.symm import (
    QuotientOrder,
    concavity_probe,
    cone_lower_bound,
    in_gamma_k,
    offdiag_identity_residual,
    quotient_gradient_diag,
    quotient_ratio_batch,
    quotient_value,
    sigma,
)
from prescurv.warp import WarpProfile

EUCLID = WarpProfile.euclidean((0.0, 10.0))
Q20 = QuotientOrder(2, 0)


def closed_form_spec(**kw):
    args = dict(profile=EUCLID, f=parse_f("1/r^2 * exp(1.25 - r)"),
                r1=0.5, r2=2.0, phi_rm=1.25, phi_c=1.0)
    args.update(kw)
    return ProblemSpec(**args)


def report(line):
    print(f"\n{line}")


def test_criterion_1_symmetric_function_suite():
    """sigma vs brute force (exact to 1e-12, n <= 8); gradient vs FD <= 1e-6;
    cone lower bound within 1e-10; off-diagonal identity <= 1e-5 on 50
    triples; concavity <= 1e-6 on 100 samples; all in under 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)

    def brute(mu, k):
        if k == 0:
            return 1.0
        return float(sum(math.prod(c) for c in itertools.combinations(mu, k)))

    worst_sigma = 0.0
    for n in range(2, 9):
        for k in range(0, n + 1):
            for _ in range(3):
                mu = rng.uniform(-2.0, 3.0, n)
                want = brute(mu, k)
                worst_sigma = max(worst_sigma, abs(sigma(mu, k) - want) / max(1.0, abs(want)))

    def orders(n, k_min=2):
        return [(k, l) for k in range(k_min, n + 1) for l in range(0, k - 1)]

    worst_grad, worst_bound = 0.0, np.inf
    count = 0
    while count < 100:
        n = int(rng.integers(2, 6))
        k, l = orders(n)[int(rng.integers(len(orders(n))))]
        mu = rng.uniform(-0.5, 3.0, n)
        if not in_gamma_k(mu, k):
            continue
        count += 1
        q = QuotientOrder(k, l)
        grad = np.asarray(quotient_gradient_diag(mu, q))
        h = 1e-6 * (1.0 + float(np.abs(mu).max()))
        for i in range(n):
            p, m = mu.copy(), mu.copy()
            p[i] += h
            m[i] -= h
            fd = (quotient_value(p, q) - quotient_value(m, q)) / (2 * h)
            worst_grad = max(worst_grad, abs(grad[i] - fd) / np.abs(grad).max())
        worst_bound = min(worst_bound, float(grad.sum()) - cone_lower_bound(n, q))

    worst_off = 0.0
    count = 0
    while count < 50:
        n = int(rng.integers(3, 7))
        avail = orders(n, k_min=3)
        if not avail:
            continue
        k, l = avail[int(rng.integers(len(avail)))]
        eta = np.sort(rng.uniform(0.3, 3.0, n))
        if not in_gamma_k(eta, k):
            continue
        i = int(rng.integers(1, n))
        if eta[i] - eta[0] < 0.05:
            continue
        count += 1
        try:
            worst_off = max(worst_off, offdiag_identity_residual(eta, QuotientOrder(k, l), i))
        except DegeneratePair:
            count -= 1

    worst_conc = -np.inf
    count = 0
    while count < 100:
        n = int(rng.integers(2, 6))
        k, l = orders(n)[int(rng.integers(len(orders(n))))]
        mu = rng.uniform(0.1, 3.0, n)
        if not in_gamma_k(mu, k):
            continue
        count += 1
        worst_conc = max(worst_conc, concavity_probe(mu, QuotientOrder(k, l), trials=10, rng=rng))

    elapsed = time.perf_counter() - t0
    report(f"criterion 1: sigma {worst_sigma:.1e} grad {worst_grad:.1e} "
           f"bound-slack {worst_bound:.1e} offdiag {worst_off:.1e} "
           f"concavity {worst_conc:.1e} in {elapsed:.1f}s")
    assert worst_sigma <= 1e-12
    assert worst_grad <= 1e-6
    assert worst_bound >= -1e-10
    assert worst_off <= 1e-5
    assert worst_conc <= 1e-6
    assert elapsed < 10.0


def test_criterion_2_geometry_oracle():
    """Mixed curvature form vs flat-embedding oracle at 128x64 within 1e-5
    relative on r = 1 + 0.1 sin(th) cos(ph); round graph exact to 1e-8;
    under 30 s."""
    t0 = time.perf_counter()
    mesh = build_mesh(128, 64)
    field = field_from_function(mesh, lambda t, p: 1 + 0.1 * np.sin(t) * np.cos(p))
    geom = compute_geometry(mesh, field, EUCLID)
    k1, k2 = extrinsic_shape_operator(mesh, field)
    rel = max(float((np.abs(geom.kappa1 - k1) / np.abs(k1)).max()),
              float((np.abs(geom.kappa2 - k2) / np.abs(k2)).max()))

    rho = 1.4
    round_geom = compute_geometry(mesh, ScalarField(mesh, np.full(mesh.shape, rho)), EUCLID)
    round_err = max(float(np.abs(round_geom.kappa1 - 1 / rho).max()),
                    float(np.abs(round_geom.mu1 - 1 / rho).max()),
                    float(np.abs(round_geom.tau - rho).max()))
    elapsed = time.perf_counter() - t0
    report(f"criterion 2: oracle rel err {rel:.2e}, round graph err {round_err:.2e} "
           f"in {elapsed:.1f}s")
    assert rel <= 1e-5
    assert round_err <= 1e-8
    assert elapsed < 30.0


def test_criterion_3_constant_graph_identity():
    """sigma_k/sigma_l at r = c equals the constant-graph threshold to 1e-10
    for every profile and a grid of radii."""
    mesh = build_mesh(24, 16)
    worst = 0.0
    cases = [
        (EUCLID, np.linspace(0.4, 3.0, 7)),
        (WarpProfile.spherical((0.0, np.pi / 2)), np.linspace(0.3, 1.4, 7)),
        (WarpProfile.hyperbolic((0.0, 10.0)), np.linspace(0.4, 3.0, 7)),
        (WarpProfile.custom([0.0, 1.0, 0.0, 1.0 / 6.0], (0.0, 5.0)), np.linspace(0.5, 2.5, 7)),
    ]
    for profile, grid in cases:
        for c in grid:
            geom = compute_geometry(mesh, ScalarField(mesh, np.full(mesh.shape, c)), profile)
            ratio, ok = quotient_ratio_batch(geom.mu_stack(), Q20)
            assert ok.all()
            worst = max(worst, float(np.abs(ratio - threshold(*profile.eval_lambda(c))).max()))
    report(f"criterion 3: constant-graph identity worst residual {worst:.2e}")
    assert worst <= 1e-10


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
        assert rep.all_passed, rep
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
    hyp = WarpProfile.hyperbolic((0.0, 10.0))
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
        sol, _ = newton_solve(spec, mesh, 0.0, init)
        spread = max(spread, float(np.abs(sol.values - spec.phi_rm).max()))
    report(f"criterion 7: spread over perturbed starts {spread:.2e}")
    assert spread <= 1e-8


def test_criterion_8_identity_checks():
    """Support-function and flat-Codazzi residuals <= 1e-4 at 256 reduced
    nodes, decreasing by >= 8 from 128."""
    worsts = {}
    for nt in (128, 256):
        mesh = build_mesh(nt, reduced=True)
        geom = compute_geometry(mesh, ScalarField(mesh, 1 + 0.1 * np.cos(mesh.theta)), EUCLID)
        worsts[nt] = max(check_support_identities(geom).worst, check_codazzi_flat(geom))
    ratio = worsts[128] / worsts[256]
    report(f"criterion 8: residual {worsts[256]:.2e} at 256 nodes, ratio {ratio:.1f}")
    assert worsts[256] <= 1e-4
    assert ratio >= 8.0


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
