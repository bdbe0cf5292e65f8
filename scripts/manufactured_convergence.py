#!/usr/bin/env python3
"""Manufactured-solution convergence study on reduced meshes.

Builds f from the target graph r* = 1 + 0.05 cos(theta) so that r* solves
the equation exactly at the continuum level, then measures the solver error
against r* under mesh doubling.

The study runs in the hyperbolic warp, where the construction is well posed.
In the euclidean warp the same construction makes lambda^(k-l) * f exactly
radius-independent while lambda^(k-l) * sigma_k/sigma_l is invariant under
dilations r -> c r, so the t = 1 problem determines the surface only up to
scale; the solver correctly reports a continuation breakdown there instead
of returning an arbitrary member of the solution ray (run with --euclidean
to see that behavior).
"""

import argparse
import time

import numpy as np

from prescurv import (
    ProblemSpec,
    SolverOptions,
    WarpProfile,
    build_mesh,
    continuation_solve,
    manufacture_f,
    parse_f,
)
from prescurv.errors import ContinuationBreakdown
from prescurv.solver import total_newton_iterations


def target(th, ph):
    return 1.0 + 0.05 * np.cos(th)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--euclidean", action="store_true",
                    help="run in the euclidean warp (scale-degenerate; breaks down)")
    ap.add_argument("--resolutions", default="64,128,256")
    args = ap.parse_args()

    profile = (WarpProfile.euclidean((0.0, 10.0)) if args.euclidean
               else WarpProfile.hyperbolic((0.0, 10.0)))
    base = ProblemSpec(profile, parse_f("1"), r1=0.5, r2=2.0, phi_rm=1.0)
    opts = SolverOptions(newton_tol=1e-11)

    errs = []
    for nt in (int(x) for x in args.resolutions.split(",")):
        mesh = build_mesh(nt, reduced=True)
        f = manufacture_f(base, mesh, target)
        spec = ProblemSpec(profile, f, r1=0.5, r2=2.0, phi_rm=1.0)
        t0 = time.perf_counter()
        try:
            final, history = continuation_solve(spec, mesh, opts, force=True)
        except ContinuationBreakdown as exc:
            print(f"n={nt:4d}  breakdown in t-interval {exc.failed_interval}")
            continue
        err = float(np.abs(final.r_field.values - target(mesh.theta, None)).max())
        line = f"n={nt:4d}  max|r - r*| = {err:.3e}  iters = {total_newton_iterations(history):3d}  wall = {time.perf_counter() - t0:5.1f}s"
        if errs:
            line += f"  ratio = {errs[-1] / err:5.1f}"
        errs.append(err)
        print(line)


if __name__ == "__main__":
    main()
