"""Command-line front end.

Subcommands: solve, check-assumptions, verify-geometry, selftest, sweep.
Exit codes: 0 success/converged, 1 any other typed error, 2 config error
(nothing written), 3 assumption failure (without --force), 4 continuation
breakdown.  A solve past its config writes report.txt, and that report's
RunReport.exit_code() is its exit code (a sweep's: the largest).  Running out
of memory or an output that cannot be written is status "error"; if report.txt
itself cannot be written, the run prints "error: cannot write ..." and exits 1.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from functools import cache, partial

import numpy as np

from .config import build_problem, build_verify, check_key, parse_config
from .errors import ConfigError, ContinuationBreakdown, OutputError, PrescurvError
from .monitor import monitor_state
from .problem import check_assumptions
from .report import (
    RunReport,
    margins_table,
    write_field_csv,
    write_geometry_csv,
    write_monitor_csv,
    write_report,
)
from .solver import continuation_solve, total_jacobians, total_newton_iterations


def _load_config(args):
    if not args.config:
        raise ConfigError("--config PATH is required for this subcommand")
    if not os.path.isfile(args.config):
        raise ConfigError(f"config file not found: {args.config}")
    return parse_config(args.config)


def _check_out_dir(path):
    """Raise ConfigError unless path is set and its deepest existing prefix is a directory."""
    if not path:
        raise ConfigError("output path is empty")
    head = os.path.abspath(path)
    while not os.path.exists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise ConfigError(f"output path {path}: {head} is not a directory")


def _cannot_write(path, exc: OSError) -> str:
    return f"cannot write {path}: {exc.strerror or exc}"


def _write_report(out_dir, report):
    """Write out_dir/report.txt; an OSError raises OutputError naming the path."""
    path = os.path.join(out_dir, "report.txt")
    try:
        write_report(path, report)
    except OSError as exc:
        raise OutputError(_cannot_write(path, exc)) from exc


def _run_solve(cfg, problem, out_dir, force):
    """Shared solve pipeline on cfg's build_problem (spec, mesh, opts), formed
    before anything is written; returns a RunReport (files already written).

    Every outcome ends in report.txt: any PrescurvError of the assumption
    check or of the continuation, other than a breakdown, is status "error",
    and so are a MemoryError and a CSV that cannot be written (the others
    still are).  An unwritable output directory or report.txt raises OutputError.
    The check here and continuation_solve's own are one check on the same
    samples, so they pass or fail together and `force` means the same to both.
    Each monitor row is formed as its state is accepted, on Newton's geometry
    of it (a geometry that serves several states forms its reductions once);
    only the latest geometry is kept, for geometry.csv.
    """
    t0 = time.perf_counter()
    spec, mesh, opts = problem
    _check_out_dir(out_dir)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise OutputError(_cannot_write(out_dir, exc)) from exc
    report = RunReport(status="error", config=dict(cfg))
    final_geom = None

    def on_accept(state, geom):
        nonlocal final_geom
        t_mon = time.perf_counter()
        report.states.append(state)
        report.monitors.append(monitor_state(state, spec, geom))
        final_geom = geom
        report.timings["monitor"] += time.perf_counter() - t_mon

    phase, t_phase = "assumptions", time.perf_counter()
    try:
        report.assumptions = check_assumptions(spec)
        report.timings[phase] = time.perf_counter() - t_phase
        if report.assumptions.hard_failures and not force:
            report.status = "assumption-fail"
            report.message = "failed: " + ", ".join(report.assumptions.hard_failures)
            _write_report(out_dir, report)
            return report
        phase, t_phase = "solve", time.perf_counter()
        report.timings["monitor"] = 0.0  # the share of solve_s spent in on_accept
        continuation_solve(spec, mesh, opts, force=force, on_accept=on_accept)
        report.status = "converged"
    except ContinuationBreakdown as exc:  # its last good state is the last one accepted
        report.status = "breakdown"
        report.message = str(exc)
    except PrescurvError as exc:
        report.message = str(exc)
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        report.message = f"out of memory: {exc}" if str(exc) else "out of memory"
    report.timings[phase] = time.perf_counter() - t_phase

    outputs = []
    if report.states:
        outputs += [("solution", write_field_csv, report.states[-1].r_field),
                    ("geometry", write_geometry_csv, final_geom)]
    outputs.append(("monitor", write_monitor_csv, report.monitors))
    t_write = time.perf_counter()
    for name, writer, data in outputs:
        path = os.path.join(out_dir, f"{name}.csv")
        try:
            writer(path, data)
        except OSError as exc:
            report.status = "error"
            report.message = "; ".join(filter(None, [report.message, _cannot_write(path, exc)]))
            continue
        report.files[f"{name}_csv"] = path
    report.timings["write"] = time.perf_counter() - t_write
    report.timings["total"] = time.perf_counter() - t0
    _write_report(out_dir, report)
    return report


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    report = _run_solve(cfg, build_problem(cfg), args.out, args.force)
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
    rep = check_assumptions(spec)
    print(margins_table(rep))
    return 0 if not rep.hard_failures else 3


def _run_checks(checks, label) -> int:
    """Run each check and print its line; one that raises fails, its traceback goes to
    stderr, and the rest still run."""
    failures = 0
    for check in checks:
        try:
            result = check.run()
            passed, detail = result.passed, str(result)
        except Exception as exc:
            import traceback  # loaded here only: a passing run does not import it
            traceback.print_exc()
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        print(f"{'ok  ' if passed else 'FAIL'} {check.name}  [{detail}]")
        failures += 0 if passed else 1
    print(f"{label}: {failures} failure(s)")
    return 0 if failures == 0 else 1


def cmd_verify_geometry(args) -> int:
    profile, full, lines = build_verify(_load_config(args))
    from .selftest import Check, embedding_oracle, identity_refinement  # loaded here only

    checks = []
    if full is None:
        print("-- embedding oracle skipped (needs the euclidean ambient)")
    else:
        checks.append(Check("embedding-oracle", partial(embedding_oracle, profile, full)))
    if lines is None:
        print("-- identity refinement skipped (needs an axisymmetric verify.r_expr)")
    else:
        checks.append(Check("identity-refinement",
                            partial(identity_refinement, profile, *lines, 2.0)))
    return _run_checks(checks, "verify-geometry")


def cmd_selftest(_args) -> int:
    from .selftest import CHECKS  # loaded here only: importing the CLI does not compile the checks
    return _run_checks(CHECKS, "selftest")


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    if not args.key or args.values is None:
        raise ConfigError("sweep needs --key and --values")
    check_key(args.key)
    if args.key in ("warp.domain", "warp.coeffs"):
        raise ConfigError(f"sweep cannot vary {args.key}: its value is a comma list, "
                          "and --values splits on commas", key=args.key)
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
    problems = [build_problem(sub) for sub in subs]  # every config error before the first solve
    _check_out_dir(args.out)
    for name in names:
        _check_out_dir(os.path.join(args.out, name))
    worst = 0
    for val, name, sub, problem in zip(values, names, subs, problems):
        try:
            report = _run_solve(sub, problem, os.path.join(args.out, name), args.force)
        except OutputError as exc:  # this value wrote no report; the next ones still run
            print(f"{args.key}={val}: error")
            print(f"error: {exc}", file=sys.stderr)
            worst = max(worst, 1)
            continue
        print(f"{args.key}={val}: {report.status}")
        worst = max(worst, report.exit_code())
    return worst


@cache
def _keep_freed_heap() -> None:
    """Free one untouched 16 MB block, once per process.  glibc then serves blocks up to
    16 MB from its heap and trims it only past 32 MB free (mallopt(3)), so a Jacobian build
    (tracemalloc peak 4.3 MB at 64x32) or node_endpoints (1.7 MB at 128x64) reuses heap
    pages instead of mapping its temporaries and faulting them in afresh; other C
    libraries just free the block."""
    np.empty(1 << 21)


@cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process."""
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
    return parser


def main(argv=None) -> int:
    _keep_freed_heap()
    args = _parser().parse_args(argv)
    # looked up per call, so a rebound cmd_* is the one that runs
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
