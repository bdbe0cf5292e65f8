"""Seeded inputs for the benchmark workloads.

Each workload turns a seed into one prescurv config (plus, for the
manufactured workload, a node-defined target CSV) and a `Case` record that
carries what the output checks need to know.  The program under test only
ever receives the written files; node colatitudes are computed here from the
documented staggered-mesh formula theta_j = (j + 1/2) pi / n_theta, not read
from the package.

Why these three: sphere2d loads the Jacobian and residual kernel,
custom_manufactured the custom-warp antiderivative, and round_io the geometry
kernel on a large mesh plus the monitor and report layers, with no Jacobian.
Two cases are left out.  The 64x32 headline case takes about 181 s per solve,
too slow to repeat in every run; sphere2d is its stand-in at a quarter of the
resolution in each direction.  (24x12 takes 9-14 s a solve on a 2-core Xeon
VM, so three solves and set-up did not fit a 30-s run.)  The
euclidean manufactured case is singular at t = 1 (the equation is invariant
under dilation), so whether it breaks down or converges to some dilation of
the target flips with tiny numerical changes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

R1, R2 = 0.5, 2.0
PHI_RM = 1.25


@dataclass(frozen=True)
class Case:
    """One generated input: the config path and the facts its checks use."""

    workload: str
    seed: int
    config: str
    n_nodes: int
    params: dict = field(default_factory=dict)
    target: tuple = ()          # node radii the solution must reproduce, if known


def _problem(phi_rm):
    return ["problem.k = 2", "problem.l = 0", f"problem.r1 = {R1!r}", f"problem.r2 = {R2!r}",
            f"phi.rm = {phi_rm!r}"]


def _sphere2d(seed, warmup, work_dir):
    # A first harmonic a sin th cos ph + b sin th sin ph of seeded direction and
    # amplitude 0.02-0.035: every seed takes the same continuation path (10
    # t-steps of 2 Newton iterations), so the cost does not depend on the seed.
    # Amplitudes near 0.05 already need 3 iterations per step.
    rng = np.random.default_rng(seed)
    amp, angle = rng.uniform(0.02, 0.035), rng.uniform(0.0, 2.0 * math.pi)
    a, b = round(float(amp * math.cos(angle)), 4), round(float(amp * math.sin(angle)), 4)
    n_theta, n_phi = (16, 4) if warmup else (16, 8)
    lines = [
        f"# sphere2d seed={seed}: non-axisymmetric prescription, euclidean warp",
        "warp.kind = euclidean",
        "warp.domain = 0,10",
        f"mesh.n_theta = {n_theta}",
        f"mesh.n_phi = {n_phi}",
        *_problem(PHI_RM),
        f"f.expr = 1/r^2 * exp({PHI_RM!r} - r) * (1 + {a!r}*sin(th)*cos(ph) + {b!r}*sin(th)*sin(ph))",
    ]
    return lines, n_theta * n_phi, {"a": a, "b": b}, ()


def _custom_manufactured(seed, warmup, work_dir):
    # lambda = r + r^3/6 is not a space form, so every geometry evaluation runs
    # the custom-warp antiderivative; the target is exact, node-defined data.
    # On this range every seed needs 2 t-steps of 3 Newton iterations; a = 0.03
    # with b = 0.025 already needs 4 in the first step.
    rng = np.random.default_rng(seed)
    a = round(float(rng.uniform(0.02, 0.03)), 4)
    b = round(float(rng.uniform(0.005, 0.02)), 4)
    if warmup:  # a round target needs no Newton iterations: a cheap warm-up
        a, b = 0.0, 0.0
    n_theta = 16
    theta = (np.arange(n_theta) + 0.5) * math.pi / n_theta
    target = PHI_RM + a * np.cos(theta) + b * np.cos(2.0 * theta)
    target_csv = os.path.join(work_dir, "target.csv")
    with open(target_csv, "w") as fh:
        fh.write("theta,phi,value\n")
        fh.writelines(f"{th!r},0.0,{r!r}\n" for th, r in zip(theta.tolist(), target.tolist()))
    lines = [
        f"# custom_manufactured seed={seed}: target r* = {PHI_RM!r} + {a!r} cos th + {b!r} cos 2th",
        "warp.kind = custom",
        "warp.coeffs = 0,1,0,0.16666666666666666",
        "warp.domain = 0,5",
        f"mesh.n_theta = {n_theta}",
        "mesh.reduced = true",
        *_problem(PHI_RM),
        f"f.manufactured = {target_csv}",
        "solver.t_step_init = 0.5",
    ]
    return lines, n_theta, {"a": a, "b": b}, tuple(target.tolist())


def _round_io(seed, warmup, work_dir):
    # f = threshold(r) exp(rm - r) with phi.rm = rm: r = rm solves every t, so
    # the solve is all set-up, geometry, monitors and output, with no Newton
    # iteration.  rm is a multiple of 1/256: the stencils of a constant field
    # then cancel exactly and the discrete residual at r = rm is ~1e-16.  For
    # a rounded decimal rm such as 1.4317 roundoff at the pole rows leaves a
    # residual of 1.5e-10 > solver.newton_tol, Newton builds a Jacobian on
    # 8192 nodes, and the solve exits 1 ("both one-sided perturbations
    # inadmissible"); that defect is recorded in tests/test_bench_workloads.py.
    rng = np.random.default_rng(seed)
    rm = 1.0 + int(rng.integers(13, 116)) / 256
    n_theta, n_phi = (32, 16) if warmup else (128, 64)
    lines = [
        f"# round_io seed={seed}: closed-form round solution r = {rm!r}",
        "warp.kind = euclidean",
        "warp.domain = 0,10",
        f"mesh.n_theta = {n_theta}",
        f"mesh.n_phi = {n_phi}",
        *_problem(rm),
        f"f.expr = 1/r^2 * exp({rm!r} - r)",
    ]
    n = n_theta * n_phi
    return lines, n, {"rm": rm}, (rm,) * n


_BUILDERS = {
    "sphere2d": _sphere2d,
    "custom_manufactured": _custom_manufactured,
    "round_io": _round_io,
}
WORKLOADS = tuple(_BUILDERS)


def make_case(workload: str, seed: int, work_dir: str, warmup: bool = False) -> Case:
    """Write the input files of one workload/seed under `work_dir`.

    `warmup` gives a cheaper input of the same workload that runs the same
    code paths; it is solved once and discarded before timing starts.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    os.makedirs(work_dir, exist_ok=True)
    lines, n_nodes, params, target = _BUILDERS[workload](seed, warmup, work_dir)
    config = os.path.join(work_dir, "case.cfg")
    with open(config, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return Case(workload, seed, config, n_nodes, params, target)
