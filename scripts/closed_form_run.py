#!/usr/bin/env python3
"""Run the closed-form round case end to end and print the continuation trace.

The prescription f = threshold(r) exp(1.25 - r) is solved exactly by the
round graph r = 1.25, so the final error measures the whole pipeline.
"""

import time

import numpy as np

from prescurv import (
    ProblemSpec,
    WarpProfile,
    build_mesh,
    continuation_solve,
    monitor,
    parse_f,
)
from prescurv.solver import total_jacobians, total_newton_iterations


def main():
    profile = WarpProfile.euclidean((0.0, 10.0))
    spec = ProblemSpec(
        profile=profile,
        f=parse_f("1/r^2 * exp(1.25 - r)"),
        r1=0.5,
        r2=2.0,
        phi_rm=1.25,
    )
    mesh = build_mesh(64, 32)

    def on_accept(st, geom):
        rec = monitor(geom, spec, st.t)
        print(f"{st.t:8.4f} {st.newton_iters:5d} {st.jacobians:4d} {st.residual_norm:12.3e} "
              f"{rec.r_min:10.6f} {rec.r_max:10.6f} {rec.kappa_max:10.6f}")

    print(f"{'t':>8s} {'iters':>5s} {'jacs':>4s} {'residual':>12s} {'r_min':>10s} {'r_max':>10s} {'kappa_max':>10s}")
    t0 = time.perf_counter()
    final, history = continuation_solve(spec, mesh, on_accept=on_accept)
    wall = time.perf_counter() - t0
    err = float(np.abs(final.r_field.values - 1.25).max())
    print(f"\nfinal max|r - 1.25| = {err:.3e}  "
          f"newton iterations = {total_newton_iterations(history)}  "
          f"jacobians = {total_jacobians(history)}  wall = {wall:.2f}s")


if __name__ == "__main__":
    main()
