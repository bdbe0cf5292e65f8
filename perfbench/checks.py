"""Output checks for one `prescurv solve`.

Each check returns a list of failure messages (empty when the solve passed):

- the exit code is 0;
- round_io: every node of solution.csv equals rm to 1e-12;
- custom_manufactured: every node equals the manufactured target to 1e-9;
- sphere2d: the t = 1 residual of solution.csv, recomputed on the oracle path
  (geometry.compute_geometry, symm.quotient_ratio_batch, problem.eval_f) and
  not through solver.residual, is at most 1e-9;
- every monitor.csv row stays inside the open annulus (r1, r2).

`Tally` applies the checks to every solve of a run and also requires each
solve's CSV files to be byte-identical to those of the run's first solve.
An error the package raises while a solution is checked (a solution outside
the domain, say) fails that solve.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from prescurv.config import build_problem, parse_config
from prescurv.errors import PrescurvError
from prescurv.geometry import compute_geometry
from prescurv.mesh import ScalarField
from prescurv.problem import eval_f
from prescurv.symm import quotient_ratio_batch

from workloads import R1, R2, Case

CSV_OUTPUTS = ("solution.csv", "geometry.csv", "monitor.csv")
ROUND_TOL = 1e-12
TARGET_TOL = 1e-9
RESIDUAL_TOL = 1e-9


def _solution(out_dir):
    return np.loadtxt(os.path.join(out_dir, "solution.csv"), delimiter=",",
                      skiprows=1, ndmin=2)[:, 2]


def oracle_residual(config: str, r_nodes: np.ndarray) -> float:
    """max |sigma_k/sigma_l(mu) - f| at t = 1, from the geometry oracle path."""
    spec, mesh, _ = build_problem(parse_config(config))
    geom = compute_geometry(mesh, ScalarField(mesh, r_nodes.reshape(mesh.shape)), spec.profile)
    ratio, ok = quotient_ratio_batch(geom.mu_stack(), spec.q)
    if not np.all(ok):
        return float("inf")
    f = eval_f(spec.f, geom.r, mesh.theta_grid(), mesh.phi_grid(), geom.nu_r)
    return float(np.abs(ratio - f).max())


def check_solve(case: Case, out_dir: str, exit_code: int) -> list[str]:
    """Failure messages for one solve's outputs in `out_dir`."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    fails = []
    r = _solution(out_dir)
    if r.size != case.n_nodes:
        return [f"solution.csv has {r.size} nodes, expected {case.n_nodes}"]
    if case.workload == "sphere2d":
        res = oracle_residual(case.config, r)
        if not res <= RESIDUAL_TOL:
            fails.append(f"t=1 oracle residual {res:.3e} > {RESIDUAL_TOL:g}")
    else:
        tol = ROUND_TOL if case.workload == "round_io" else TARGET_TOL
        err = float(np.abs(r - np.asarray(case.target)).max())
        if not err <= tol:
            fails.append(f"max |r - r*| = {err:.3e} > {tol:g}")
    mon = np.loadtxt(os.path.join(out_dir, "monitor.csv"), delimiter=",", skiprows=1, ndmin=2)
    if mon.shape[0] == 0:
        fails.append("monitor.csv has no rows")
    elif not (mon[:, 1].min() > R1 and mon[:, 2].max() < R2):
        fails.append(f"monitor.csv leaves ({R1:g}, {R2:g}): "
                     f"r in [{mon[:, 1].min():.6g}, {mon[:, 2].max():.6g}]")
    return fails


def csv_digest(out_dir: str) -> str:
    """sha256 over the CSV outputs, in a fixed order."""
    h = hashlib.sha256()
    for name in CSV_OUTPUTS:
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def csv_bytes(out_dir: str) -> int:
    """Bytes of the CSV outputs (report.txt is left out: it carries wall times)."""
    return sum(os.path.getsize(os.path.join(out_dir, name)) for name in CSV_OUTPUTS)


class Tally:
    """Attempted and failed solves of one case, with the checks applied."""

    def __init__(self, case):
        self.case = case
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.digest = None
        self.bytes = None   # CSV bytes of one solve: every passing solve writes the same files

    def record(self, out_dir, exit_code, error):
        self.attempted += 1
        if error is not None:
            fails = [error]
        else:
            try:
                fails = check_solve(self.case, out_dir, exit_code)
                if not fails:
                    digest = csv_digest(out_dir)
                    if self.digest is None:
                        self.digest, self.bytes = digest, csv_bytes(out_dir)
                    elif digest != self.digest:
                        fails.append("CSV outputs differ from the first solve of this seed")
            except (OSError, ValueError) as exc:
                fails = [f"unreadable output: {exc}"]
            except PrescurvError as exc:
                fails = [f"check raised {type(exc).__name__}: {exc}"]
        if fails:
            self.failed += 1
            self.messages.append(f"{out_dir}: {'; '.join(fails)}")
