"""Command-line front end.

Subcommands: solve, check-assumptions, verify-geometry, selftest, sweep.
Exit codes: 0 success/converged, 1 any other typed error, 2 config error
(nothing written), 3 assumption failure (without --force), 4 continuation
breakdown.  A solve past its config always writes report.txt, and that
report's RunReport.exit_code() is its exit code (a sweep's: the largest).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from . import geometry as G
from . import mesh as M
from . import symm as SY
from .config import (
    build_monitor_params,
    build_problem,
    build_profile,
    check_key,
    parse_config,
    _get,
    _get_float,
    _get_count,
    _get_int,
    _keyed,
)
from .errors import (
    ConfigError,
    ContinuationBreakdown,
    DegeneratePair,
    FParseError,
    PrescurvError,
)
from .monitor import monitor_state
from .problem import (
    ProblemSpec,
    blend_f_t,
    check_assumptions,
    eval_f,
    manufacture_f,
    parse_f,
    phi_value,
    threshold,
)
from .report import (
    RunReport,
    margins_table,
    write_field_csv,
    write_geometry_csv,
    write_monitor_csv,
    write_report,
)
from .solver import continuation_solve, total_newton_iterations
from .symm import QuotientOrder
from .warp import WarpProfile, validate_profile


def _load_config(args):
    if not args.config:
        raise ConfigError("--config PATH is required for this subcommand")
    if not os.path.exists(args.config):
        raise ConfigError(f"config file not found: {args.config}")
    return parse_config(args.config)


def _run_solve(cfg, out_dir, force):
    """Shared solve pipeline; returns a RunReport (files already written).

    A ConfigError propagates before anything is written.  Past that, every
    outcome ends in report.txt: any PrescurvError of the assumption check or
    of the continuation, other than a breakdown, is status "error".
    """
    t0 = time.perf_counter()
    spec, mesh, opts = build_problem(cfg)
    params = build_monitor_params(cfg)
    samples = _get_count(cfg, "check.samples")
    os.makedirs(out_dir, exist_ok=True)
    report = RunReport(status="error", config=dict(cfg))
    final, history = None, []

    phase, t_phase = "assumptions", time.perf_counter()
    try:
        report.assumptions = check_assumptions(spec, samples=samples)
        report.timings[phase] = time.perf_counter() - t_phase
        if report.assumptions.hard_failures and not force:
            report.status = "assumption-fail"
            report.message = "failed: " + ", ".join(report.assumptions.hard_failures)
            write_report(os.path.join(out_dir, "report.txt"), report)
            return report
        # the check above, at check.samples, is the gate: the solver's own must not overrule it
        phase, t_phase = "solve", time.perf_counter()
        final, history = continuation_solve(spec, mesh, opts, force=True)
        report.status = "converged"
    except ContinuationBreakdown as exc:
        history = exc.history or []
        final = exc.last_good
        report.status = "breakdown"
        report.message = str(exc)
    except PrescurvError as exc:
        report.message = str(exc)
    report.timings[phase] = time.perf_counter() - t_phase

    t_mon = time.perf_counter()
    report.states = list(history)
    report.monitors = [
        monitor_state(st, spec, mesh, params.alpha, params.big_a, params.gamma_arg)
        for st in history
    ]
    report.timings["monitor"] = time.perf_counter() - t_mon

    if final is not None:
        sol_path = os.path.join(out_dir, "solution.csv")
        geo_path = os.path.join(out_dir, "geometry.csv")
        write_field_csv(sol_path, final.r_field)
        write_geometry_csv(geo_path, G.compute_geometry(mesh, final.r_field, spec.profile))
        report.files["solution_csv"] = sol_path
        report.files["geometry_csv"] = geo_path
    mon_path = os.path.join(out_dir, "monitor.csv")
    write_monitor_csv(mon_path, report.monitors)
    report.files["monitor_csv"] = mon_path
    report.timings["total"] = time.perf_counter() - t0
    write_report(os.path.join(out_dir, "report.txt"), report)
    return report


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    report = _run_solve(cfg, args.out, args.force)
    if report.assumptions is not None:
        print(margins_table(report.assumptions))
    if report.status == "converged":
        iters = total_newton_iterations(report.states)
        print(f"converged: t=1 newton_iters={iters} "
              f"residual={report.states[-1].residual_norm:.3e} -> {args.out}")
    else:
        print(f"{report.status}: {report.message}")
    return report.exit_code()


def cmd_check_assumptions(args) -> int:
    cfg = _load_config(args)
    spec, _, _ = build_problem(cfg)
    rep = check_assumptions(spec, samples=_get_count(cfg, "check.samples"))
    print(margins_table(rep))
    return 0 if not rep.hard_failures else 3


def cmd_verify_geometry(args) -> int:
    cfg = _load_config(args)
    profile = build_profile(cfg)
    r_expr = parse_f(_get(cfg, "verify.r_expr"))
    tol_oracle = _get_float(cfg, "verify.tol_oracle")
    tol_ident = _get_float(cfg, "verify.tol_identities")
    n_theta = _get_int(cfg, "verify.n_theta")
    n_phi = _get_int(cfg, "verify.n_phi")
    ok = True

    def shape_of(th, ph):
        return np.asarray(r_expr.evaluate(np.asarray(th), th, ph, 1.0), dtype=float)

    if profile.kind == "euclidean":
        with _keyed("verify"):
            mesh = M.build_mesh(n_theta, n_phi)
        r_field = M.ScalarField(mesh, np.broadcast_to(
            shape_of(mesh.theta_grid(), mesh.phi_grid()), mesh.shape).copy())
        geom = G.compute_geometry(mesh, r_field, profile)
        k1o, k2o = G.extrinsic_shape_operator(mesh, r_field)
        rel = max(
            float((np.abs(geom.kappa1 - k1o) / np.abs(k1o)).max()),
            float((np.abs(geom.kappa2 - k2o) / np.abs(k2o)).max()),
        )
        good = rel <= tol_oracle
        ok &= good
        print(f"{'ok' if good else 'FAIL'} embedding-oracle max rel err {rel:.3e} (tol {tol_oracle:g})")
    else:
        print("-- embedding oracle skipped (needs the euclidean ambient)")

    prev = None
    for nt in (n_theta, 2 * n_theta):
        with _keyed("verify"):
            mesh = M.build_mesh(nt, reduced=True)
        r_field = M.ScalarField(mesh, shape_of(mesh.theta, np.zeros_like(mesh.theta)))
        geom = G.compute_geometry(mesh, r_field, profile)
        res = G.check_support_identities(geom)
        cz = G.check_codazzi_flat(geom) if profile.kind == "euclidean" else None
        worst = max(res.worst, cz if cz is not None else 0.0)
        if prev is not None:
            ratio = prev / max(worst, 1e-300)
            decreasing = ratio > 2.0
            good = worst <= tol_ident and decreasing
            ok &= good
            print(f"{'ok' if good else 'FAIL'} identity residuals {worst:.3e} at {nt} nodes "
                  f"(tol {tol_ident:g}, refinement ratio {ratio:.1f})")
        prev = worst
    return 0 if ok else 1


def _selftest_checks():
    """Curated property suite; yields (name, pass, detail)."""
    import itertools

    rng = np.random.default_rng(20240811)

    # warp profiles
    for kind, dom in (("euclidean", (0.1, 10.0)), ("spherical", (0.1, np.pi / 2)),
                      ("hyperbolic", (0.1, 10.0))):
        prof = WarpProfile(kind, dom)
        rep = validate_profile(prof)
        yield f"warp-validate-{kind}", rep.ok, ""
        grid = np.linspace(dom[0] + 0.05, dom[1] - 0.05, 7)
        h = 1e-6
        fd = (prof.capital_lambda(grid + h) - prof.capital_lambda(grid - h)) / (2 * h)
        lam = prof.eval_lambda(grid)[0]
        err = float(np.abs(fd / lam - 1).max())
        yield f"warp-antiderivative-{kind}", err <= 1e-8, f"rel {err:.1e}"

    # elementary symmetric functions vs brute force
    def brute(mu, k):
        if k == 0:
            return 1.0
        return float(sum(math.prod(c) for c in itertools.combinations(mu, k)))

    worst = 0.0
    for n in range(2, 7):
        for k in range(0, n + 1):
            mu = rng.uniform(-2, 3, n)
            worst = max(worst, abs(SY.sigma(mu, k) - brute(mu, k)) / max(1.0, abs(brute(mu, k))))
    yield "sigma-vs-bruteforce", worst <= 1e-12, f"rel {worst:.1e}"

    worst = 0.0
    for n in range(2, 7):
        mu = rng.uniform(-1, 2, n)
        for k in range(1, n + 1):
            for i in range(n):
                lhs = SY.sigma(mu, k)
                head = SY.sigma_minor(mu, k, i) if k <= n - 1 else 0.0
                rhs = head + mu[i] * SY.sigma_minor(mu, k - 1, i)
                worst = max(worst, abs(lhs - rhs))
    yield "sigma-deleted-entry-identity", worst <= 1e-12, f"abs {worst:.1e}"

    worst = 0.0
    for n in range(2, 7):
        mu = rng.uniform(0.2, 2, n)
        for k in range(1, n + 1):
            euler = sum(mu[i] * SY.sigma_minor(mu, k - 1, i) for i in range(n))
            worst = max(worst, abs(euler - k * SY.sigma(mu, k)) / max(1.0, k * abs(SY.sigma(mu, k))))
    yield "sigma-euler-identity", worst <= 1e-12, f"rel {worst:.1e}"

    # quotient operator: gradient, cone bound, concavity, off-diagonal identity
    worst_g, worst_b, worst_c, worst_o = 0.0, np.inf, -np.inf, 0.0
    count = 0
    while count < 25:
        n = int(rng.integers(2, 6))
        pairs = [(k, l) for k in range(2, n + 1) for l in range(0, k - 1)]
        k, l = pairs[int(rng.integers(len(pairs)))]
        mu = rng.uniform(0.1, 3, n)
        if not SY.in_gamma_k(mu, k):
            continue
        count += 1
        q = QuotientOrder(k, l)
        grad = np.array(SY.quotient_gradient_diag(mu, q))
        h = 1e-6 * (1 + float(np.abs(mu).max()))
        for i in range(n):
            p, m = mu.copy(), mu.copy()
            p[i] += h
            m[i] -= h
            fd = (SY.quotient_value(p, q) - SY.quotient_value(m, q)) / (2 * h)
            worst_g = max(worst_g, abs(grad[i] - fd) / abs(grad).max())
        worst_b = min(worst_b, float(grad.sum()) - SY.cone_lower_bound(n, q))
        worst_c = max(worst_c, SY.concavity_probe(mu, q, trials=8, rng=rng))
        if k >= 3:
            eta = np.sort(rng.uniform(0.3, 3, n))
            if SY.in_gamma_k(eta, k) and eta[-1] - eta[0] > 0.1:
                try:
                    worst_o = max(worst_o, SY.offdiag_identity_residual(eta, q, n - 1))
                except DegeneratePair:
                    pass
    yield "quotient-gradient-vs-fd", worst_g <= 1e-6, f"rel {worst_g:.1e}"
    yield "quotient-cone-lower-bound", worst_b >= -1e-10, f"slack {worst_b:.1e}"
    yield "quotient-concavity", worst_c <= 1e-6, f"second deriv {worst_c:.1e}"
    yield "quotient-offdiag-identity", worst_o <= 1e-5, f"resid {worst_o:.1e}"

    # mesh quadrature and derivative oracles
    mesh = M.build_mesh(32, 64)
    yield "mesh-area", abs(float(mesh.weights.sum()) - 4 * np.pi) <= 1e-3, ""
    th, ph = mesh.theta_grid(), mesh.phi_grid()
    f = M.ScalarField(mesh, np.cos(th))
    _, _, h11, h12, h22 = M.frame_derivatives(f)
    err = max(float(np.abs(h11 + np.cos(th)).max()),
              float(np.abs(h22 + np.cos(th)).max()),
              float(np.abs(h12).max()))
    yield "mesh-hessian-eigenfunction", err <= 1e-5, f"abs {err:.1e}"

    # geometry: round graph and constant-graph identity across profiles
    prof = WarpProfile.euclidean((0.0, 10.0))
    rho = 1.4
    geom = G.compute_geometry(mesh, M.ScalarField(mesh, np.full(mesh.shape, rho)), prof)
    err = max(float(np.abs(geom.kappa1 - 1 / rho).max()), float(np.abs(geom.tau - rho).max()))
    yield "geometry-round-graph", err <= 1e-8, f"abs {err:.1e}"
    q2 = QuotientOrder(2, 0)
    worst = 0.0
    for prof_c, c in ((WarpProfile.euclidean((0.0, 10.0)), 1.7),
                      (WarpProfile.spherical((0.0, np.pi / 2)), 0.9),
                      (WarpProfile.hyperbolic((0.0, 10.0)), 1.2)):
        geom = G.compute_geometry(mesh, M.ScalarField(mesh, np.full(mesh.shape, c)), prof_c)
        ratio, ok_mask = SY.quotient_ratio_batch(geom.mu_stack(), q2)
        target = threshold(prof_c, c)
        worst = max(worst, float(np.abs(ratio - target).max()))
        if not ok_mask.all():
            worst = np.inf
    yield "geometry-constant-graph-identity", worst <= 1e-10, f"abs {worst:.1e}"

    # translated unit sphere has unit curvatures
    eps = 0.12
    m4 = M.build_mesh(64, 128)
    f4 = M.field_from_function(
        m4, lambda t, p: eps * np.cos(t) + np.sqrt(1 - eps ** 2 * np.sin(t) ** 2))
    g4 = G.compute_geometry(m4, f4, prof)
    err = max(float(np.abs(g4.kappa1 - 1).max()), float(np.abs(g4.kappa2 - 1).max()))
    yield "geometry-translated-sphere", err <= 1e-6, f"abs {err:.1e}"

    # prescribed-function machinery
    try:
        parse_f("foo(r)")
        yield "fexpr-rejects-unknown", False, ""
    except FParseError:
        yield "fexpr-rejects-unknown", True, ""
    spec = ProblemSpec(prof, parse_f("1/r^2 * exp(1.25 - r)"), 0.5, 2.0, 1.25)
    geom = G.compute_geometry(mesh, M.ScalarField(mesh, np.full(mesh.shape, 1.1)), prof)
    vals = [blend_f_t(spec, t, geom) for t in (0.0, 0.5, 1.0)]
    err = float(np.abs(vals[1] - 0.5 * (vals[0] + vals[2])).max())
    yield "blend-affine-in-t", err <= 1e-14, ""
    grid = np.linspace(0.51, 1.99, 41)
    phis = phi_value(spec, grid)
    ok_phi = bool(np.all(phis > 0) and np.all((phis >= 1) == (grid <= spec.phi_rm))
                  and np.all(np.diff(phis) < 0))
    yield "phi-barrier-shape", ok_phi, ""
    mr = M.build_mesh(64, reduced=True)
    fman = manufacture_f(spec, mr, lambda t, p: 1 + 0.05 * np.cos(t))
    lam_f = np.array([float(eval_f(fman, r, 0.8, 0.0, 0.9)) *
                      float(prof.eval_lambda(r)[0] ** 2) for r in (0.7, 1.0, 1.6)])
    err = float(np.abs(lam_f / lam_f[0] - 1).max())
    yield "manufactured-r-independence", err <= 1e-12, f"rel {err:.1e}"
    return


def cmd_selftest(_args) -> int:
    failures = 0
    for name, passed, detail in _selftest_checks():
        tag = "ok  " if passed else "FAIL"
        suffix = f"  [{detail}]" if detail else ""
        print(f"{tag} {name}{suffix}")
        failures += 0 if passed else 1
    print(f"selftest: {failures} failure(s)")
    return 0 if failures == 0 else 1


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    if not args.key or args.values is None:
        raise ConfigError("sweep needs --key and --values")
    check_key(args.key)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep got an empty --values list")
    worst = 0
    for val in values:
        sub = dict(cfg)
        sub[args.key] = val
        safe = f"{args.key.replace('.', '_')}_{val.replace('.', 'p')}"
        out_dir = os.path.join(args.out, safe)
        report = _run_solve(sub, out_dir, args.force)
        print(f"{args.key}={val}: {report.status}")
        worst = max(worst, report.exit_code())
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="prescurv",
        description="Prescribed Weingarten-curvature solver on radial graphs "
                    "over the sphere in warped products.",
    )
    parser.add_argument("--config", help="path to a key=value config file")
    parser.add_argument("--out", default="prescurv_out", help="output directory")
    parser.add_argument("--force", action="store_true",
                        help="proceed past assumption failures")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", help="run assumption check, continuation, and monitors")
    sub.add_parser("check-assumptions", help="print the assumption margins table")
    sub.add_parser("verify-geometry", help="run the geometry identity checks")
    sub.add_parser("selftest", help="run the property self-test suite")
    sweep_p = sub.add_parser("sweep", help="batched solves over one config key")
    sweep_p.add_argument("--key", help="config key to sweep")
    sweep_p.add_argument("--values", help="comma-separated values")
    args = parser.parse_args(argv)

    handlers = {
        "solve": cmd_solve,
        "check-assumptions": cmd_check_assumptions,
        "verify-geometry": cmd_verify_geometry,
        "selftest": cmd_selftest,
        "sweep": cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        key = f" (key: {exc.key})" if exc.key else ""
        print(f"config error: {exc}{key}", file=sys.stderr)
        return 2
    except PrescurvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
