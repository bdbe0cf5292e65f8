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
import re
import sys
import time

import numpy as np

from . import geometry as G
from . import mesh as M
from . import symm as SY
from .config import (
    CHECK_SAMPLES_MAX,
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
    DomainViolation,
    FParseError,
    PrescurvError,
    ProfileViolation,
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
from .solver import (continuation_solve, jacobian_fd, jacobian_sparse, total_jacobians,
                     total_newton_iterations)
from .symm import QuotientOrder
from .warp import WarpProfile, validate_profile


def _load_config(args):
    if not args.config:
        raise ConfigError("--config PATH is required for this subcommand")
    if not os.path.isfile(args.config):
        raise ConfigError(f"config file not found: {args.config}")
    return parse_config(args.config)


def _check_out_dir(path):
    """Raise ConfigError unless the deepest existing one of path and its parents is a directory."""
    head = os.path.abspath(path)
    while not os.path.exists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise ConfigError(f"output path {path}: {head} is not a directory")


def _solve_inputs(cfg):
    """Every config read of a solve: (spec, mesh, opts, monitor params, check.samples).

    A bad value raises its ConfigError here, before anything is written.
    """
    spec, mesh, opts = build_problem(cfg)
    return (spec, mesh, opts, build_monitor_params(cfg),
            _get_count(cfg, "check.samples", CHECK_SAMPLES_MAX))


def _run_solve(cfg, inputs, out_dir, force):
    """Shared solve pipeline on cfg's _solve_inputs; returns a RunReport (files already written).

    Every outcome ends in report.txt: any PrescurvError of the assumption
    check or of the continuation, other than a breakdown, is status "error".
    Each monitor row is formed as its state is accepted, on Newton's geometry
    of it; only the latest geometry is kept, for geometry.csv.
    """
    t0 = time.perf_counter()
    spec, mesh, opts, params, samples = inputs
    _check_out_dir(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    report = RunReport(status="error", config=dict(cfg))
    final_geom = None

    def on_accept(state, geom):
        nonlocal final_geom
        t_mon = time.perf_counter()
        report.states.append(state)
        report.monitors.append(
            monitor_state(state, spec, geom, params.alpha, params.big_a, params.gamma_arg))
        final_geom = geom
        report.timings["monitor"] += time.perf_counter() - t_mon

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
        report.timings["monitor"] = 0.0  # the share of solve_s spent in on_accept
        continuation_solve(spec, mesh, opts, force=True, on_accept=on_accept)
        report.status = "converged"
    except ContinuationBreakdown as exc:  # its last good state is the last one accepted
        report.status = "breakdown"
        report.message = str(exc)
    except PrescurvError as exc:
        report.message = str(exc)
    report.timings[phase] = time.perf_counter() - t_phase

    if report.states:
        sol_path = os.path.join(out_dir, "solution.csv")
        geo_path = os.path.join(out_dir, "geometry.csv")
        write_field_csv(sol_path, report.states[-1].r_field)
        write_geometry_csv(geo_path, final_geom)
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
    report = _run_solve(cfg, _solve_inputs(cfg), args.out, args.force)
    if report.assumptions is not None:
        print(margins_table(report.assumptions))
    if report.status == "converged":
        iters = total_newton_iterations(report.states)
        print(f"converged: t=1 newton_iters={iters} jacobians={total_jacobians(report.states)} "
              f"residual={report.states[-1].residual_norm:.3e} -> {args.out}")
    else:
        print(f"{report.status}: {report.message}")
    return report.exit_code()


def cmd_check_assumptions(args) -> int:
    cfg = _load_config(args)
    spec, _, _ = build_problem(cfg)
    rep = check_assumptions(spec, samples=_get_count(cfg, "check.samples", CHECK_SAMPLES_MAX))
    print(margins_table(rep))
    return 0 if not rep.hard_failures else 3


def cmd_verify_geometry(args) -> int:
    cfg = _load_config(args)
    profile = build_profile(cfg)
    if profile.kind == "custom":
        raise ConfigError("verify-geometry checks hold on a builtin space-form warp only, "
                          "not on a custom one", key="warp.kind")
    try:
        r_expr = parse_f(_get(cfg, "verify.r_expr"))
    except FParseError as exc:
        raise ConfigError(f"verify.r_expr: {exc}", key="verify.r_expr")
    if reads := sorted(r_expr.variables() - {"th", "ph"}):
        raise ConfigError(f"verify.r_expr is a graph r(th, ph) and may not read {', '.join(reads)}",
                          key="verify.r_expr")
    tol_oracle = _get_float(cfg, "verify.tol_oracle")
    tol_ident = _get_float(cfg, "verify.tol_identities")
    n_theta = _get_int(cfg, "verify.n_theta")
    n_phi = _get_int(cfg, "verify.n_phi")
    with _keyed("verify"):
        full = M.build_mesh(n_theta, n_phi) if profile.kind == "euclidean" else None
        lines = [M.build_mesh(nt, reduced=True) for nt in (n_theta, 2 * n_theta)]

    def field_on(mesh):
        th, ph = mesh.theta_grid(), mesh.phi_grid()
        values = np.asarray(r_expr.evaluate(np.asarray(th), th, ph, 1.0), dtype=float)
        try:
            field = M.ScalarField(mesh, np.broadcast_to(values, mesh.shape).copy())
            profile.eval_lambda(field.values)  # inside the warp domain, lambda, lambda' > 0
        except (ValueError, DomainViolation, ProfileViolation) as exc:
            raise ConfigError(f"verify.r_expr: {exc}", key="verify.r_expr")
        return field

    # every input is read and every field formed before the first check runs
    r_full = field_on(full) if full is not None else None
    r_lines = [field_on(mesh) for mesh in lines]
    ok = True

    if full is not None:
        geom = G.compute_geometry(full, r_full, profile)
        k1o, k2o = G.extrinsic_shape_operator(full, r_full)
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
    for mesh, r_field in zip(lines, r_lines):
        geom = G.compute_geometry(mesh, r_field, profile)
        res = G.check_support_identities(geom)
        cz = G.check_codazzi_flat(geom) if profile.kind == "euclidean" else None
        worst = max(res.worst, cz if cz is not None else 0.0)
        if prev is not None:
            ratio = prev / max(worst, 1e-300)
            decreasing = ratio > 2.0
            good = worst <= tol_ident and decreasing
            ok &= good
            print(f"{'ok' if good else 'FAIL'} identity residuals {worst:.3e} at "
                  f"{mesh.n_theta} nodes (tol {tol_ident:g}, refinement ratio {ratio:.1f})")
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

    # H and K of the kernel against the flat embedding oracle's kappa1 + kappa2, kappa1 kappa2
    m128 = M.build_mesh(128, 64)
    f128 = M.field_from_function(m128, lambda t, p: 1 + 0.1 * np.sin(t) * np.cos(p))
    g128 = G.compute_geometry(m128, f128, prof)
    k1o, k2o = G.extrinsic_shape_operator(m128, f128)
    err = max(float((np.abs(g128.H - (k1o + k2o)) / np.abs(k1o + k2o)).max()),
              float((np.abs(g128.K - k1o * k2o) / np.abs(k1o * k2o)).max()))
    yield "geometry-H-K-vs-embedding", err <= 1e-5, f"rel {err:.1e}"

    # prescribed-function machinery
    try:
        parse_f("foo(r)")
        yield "fexpr-rejects-unknown", False, ""
    except FParseError:
        yield "fexpr-rejects-unknown", True, ""
    spec = ProblemSpec(prof, parse_f("1/r^2 * exp(1.25 - r)"), 0.5, 2.0, 1.25)
    geom = G.compute_geometry(mesh, M.ScalarField(mesh, np.full(mesh.shape, 1.1)), prof)
    vals = [blend_f_t(spec, t, geom, th, ph) for t in (0.0, 0.5, 1.0)]
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

    # the sparse Jacobian against its dense oracle: the same differences, rounded differently
    spec = ProblemSpec(prof, parse_f("1/r^2 * exp(1.25 - r) * (1 + 0.03*sin(th)*cos(ph))"),
                       0.5, 2.0, 1.25)
    m16 = M.build_mesh(16, 8)
    r16 = M.field_from_function(m16, lambda t, p: 1.25 + 0.04 * np.cos(t)
                                + 0.02 * np.sin(t) * np.cos(p) + 0.01 * np.sin(t) ** 2 * np.sin(2 * p))
    dense = jacobian_fd(spec, m16, 0.7, r16)
    sparse = jacobian_sparse(spec, 0.7, G.compute_geometry(m16, r16, prof))
    err = float(np.abs(sparse - dense).max() / np.abs(dense).max())
    yield "jacobian-sparse-vs-dense", err <= 5e-10, f"rel {err:.1e}"
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
    # one directory per value directly under --out: '.' in the value is 'p', and
    # any other character outside [A-Za-z0-9_-] (a '/' included) is '_'
    names = [re.sub(r"[^A-Za-z0-9_-]", "_", f"{args.key}_{val.replace('.', 'p')}")
             for val in values]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"sweep values {values[names.index(name)]!r} and {values[i]!r} "
                              f"share the output directory {name!r}")
    subs = [{**cfg, args.key: val} for val in values]
    inputs = [_solve_inputs(sub) for sub in subs]  # every config error before the first solve
    _check_out_dir(args.out)
    worst = 0
    for val, name, sub, inp in zip(values, names, subs, inputs):
        report = _run_solve(sub, inp, os.path.join(args.out, name), args.force)
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
