#!/usr/bin/env python3
"""Manufactured-solution convergence study, on reduced and on full meshes.

Builds f from a target graph r* so that r* solves the equation exactly at
the continuum level, then measures the solver error against r* under mesh
doubling: r* = 1 + 0.05 cos(theta) on reduced meshes (--resolutions), then
the target r* = 1 + 0.05 P2(cos theta) + 0.04 sin^2(theta) cos(2 phi), which
is not axisymmetric, on full meshes from 16x8 to 64x32.

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

from prescurv.errors import ContinuationBreakdown
from prescurv.mesh import build_mesh
from prescurv.problem import ProblemSpec, manufacture_f, parse_f
from prescurv.solver import (SolverOptions, continuation_solve, total_jacobians,
                             total_newton_iterations)
from prescurv.warp import WarpProfile


def target(th, ph):
    return 1.0 + 0.05 * np.cos(th)


def target_2d(th, ph):
    return 1.0 + 0.025 * (3.0 * np.cos(th) ** 2 - 1.0) + 0.04 * np.sin(th) ** 2 * np.cos(2.0 * ph)


def study(profile, base, opts, target, meshes):
    """Print one table row per mesh: the error against target and its ratio to the last."""
    errs = []
    for mesh in meshes:
        f = manufacture_f(base, mesh, target)
        spec = ProblemSpec(profile, f, r1=0.5, r2=2.0, phi_rm=1.0)
        label = f"{mesh.n_theta}" + ("" if mesh.reduced else f"x{mesh.n_phi}")
        t0 = time.perf_counter()
        try:
            final, history = continuation_solve(spec, mesh, opts, force=True)
        except ContinuationBreakdown as exc:
            print(f"n={label:>6}  breakdown in t-interval {exc.failed_interval}")
            continue
        exact = target(mesh.theta_grid(), mesh.phi_grid())
        err = float(np.abs(final.r_field.values - exact).max())
        line = (f"n={label:>6}  max|r - r*| = {err:.3e}  iters = {total_newton_iterations(history):3d}"
                f"  jacobians = {total_jacobians(history):3d}  wall = {time.perf_counter() - t0:5.1f}s")
        if errs:
            line += f"  ratio = {errs[-1] / err:5.1f}"
        errs.append(err)
        print(line)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--euclidean", action="store_true",
                    help="run in the euclidean warp (scale-degenerate; breaks down)")
    ap.add_argument("--resolutions", default="64,128,256")
    args = ap.parse_args(argv)

    profile = (WarpProfile("euclidean", (0.0, 10.0)) if args.euclidean
               else WarpProfile("hyperbolic", (0.0, 10.0)))
    base = ProblemSpec(profile, parse_f("1"), r1=0.5, r2=2.0, phi_rm=1.0)
    opts = SolverOptions(newton_tol=1e-11)

    print("reduced meshes, r* = 1 + 0.05 cos(theta)")
    study(profile, base, opts, target,
          [build_mesh(int(x), reduced=True) for x in args.resolutions.split(",")])
    print("full meshes, r* = 1 + 0.05 P2(cos theta) + 0.04 sin^2(theta) cos(2 phi)")
    study(profile, base, SolverOptions(), target_2d, [build_mesh(nt, nt // 2) for nt in (16, 32, 64)])


if __name__ == "__main__":
    main()
