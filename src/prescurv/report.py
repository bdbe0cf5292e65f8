"""Run report and CSV writers.

One structured-text report per run (flat key=value lines plus fixed-order
rows) and CSV files for fields, geometry, and monitor records.  Float
formatting uses shortest round-trip repr, so identical runs produce
bit-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .geometry import GraphGeometry
from .mesh import ScalarField
from .problem import AssumptionReport


def fmt(x) -> str:
    return repr(float(x))


def write_field_csv(path: str, field_obj: ScalarField):
    mesh = field_obj.mesh
    th = mesh.theta_grid().ravel()
    ph = mesh.phi_grid().ravel()
    vals = field_obj.values.ravel()
    with open(path, "w") as fh:
        fh.write("theta,phi,value\n")
        for a, b, c in zip(th, ph, vals):
            fh.write(f"{fmt(a)},{fmt(b)},{fmt(c)}\n")


def write_geometry_csv(path: str, geom: GraphGeometry):
    cols = ("r", "v", "H", "kappa1", "kappa2", "mu1", "mu2", "tau")
    th = geom.mesh.theta_grid().ravel()
    ph = geom.mesh.phi_grid().ravel()
    arrays = [getattr(geom, c).ravel() for c in cols]
    with open(path, "w") as fh:
        fh.write("theta,phi," + ",".join(cols) + "\n")
        for i in range(th.size):
            row = [fmt(th[i]), fmt(ph[i])] + [fmt(a[i]) for a in arrays]
            fh.write(",".join(row) + "\n")


def write_monitor_csv(path: str, records):
    with open(path, "w") as fh:
        fh.write("t,r_min,r_max,tau_min,grad_max,kappa_max\n")
        for rec in records:
            fh.write(",".join(fmt(x) for x in
                              (rec.t, rec.r_min, rec.r_max, rec.tau_min,
                               rec.grad_max, rec.kappa_max)) + "\n")


@dataclass
class RunReport:
    status: str
    config: dict
    assumptions: Optional[AssumptionReport] = None
    states: list = field(default_factory=list)          # ContinuationState
    monitors: list = field(default_factory=list)        # MonitorRecord
    files: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    message: str = ""

    def exit_code(self) -> int:
        return {"converged": 0, "breakdown": 4, "assumption-fail": 3, "error": 1}[self.status]


def _assumption_lines(report: AssumptionReport):
    lines = ["[assumptions]"]
    for res in report.results:
        p = res.name
        lines.append(f"{p}.passed = {str(res.passed).lower()}")
        lines.append(f"{p}.boundary_case = {str(res.boundary_case).lower()}")
        lines.append(f"{p}.margin = {fmt(res.margin)}")
        r, th, ph, nur = res.worst_point
        lines.append(f"{p}.worst_point = {fmt(r)},{fmt(th)},{fmt(ph)},{fmt(nur)}")
    return lines


def margins_table(report: AssumptionReport) -> str:
    """Human-facing margins table, one row per assumption."""
    rows = [f"{'assumption':22s} {'pass':5s} {'boundary':8s} {'margin':>14s} {'worst r':>10s}"]
    for res in report.results:
        rows.append(
            f"{res.name:22s} {str(res.passed).lower():5s} "
            f"{str(res.boundary_case).lower():8s} {res.margin:14.6e} {res.worst_point[0]:10.4g}"
        )
    return "\n".join(rows)


def write_report(path: str, report: RunReport):
    lines = [f"status = {report.status}"]
    if report.message:
        lines.append(f"message = {report.message}")
    lines.append("[config]")
    for key in sorted(report.config):
        lines.append(f"{key} = {report.config[key]}")
    if report.assumptions is not None:
        lines.extend(_assumption_lines(report.assumptions))
    if report.states:
        lines.append("[continuation]")
        lines.append("columns = t newton_iters residual_norm r_min r_max tau_min "
                     "grad_max kappa_max mu_min phi_test_max p_test_max barrier_ok")
        for st, rec in zip(report.states, report.monitors):
            row = [fmt(st.t), str(st.newton_iters), fmt(st.residual_norm)]
            row += [fmt(x) for x in (rec.r_min, rec.r_max, rec.tau_min, rec.grad_max,
                                     rec.kappa_max, rec.mu_min, rec.phi_test_max,
                                     rec.p_test_max)]
            row.append(str(rec.barrier_ok).lower())
            lines.append("row = " + " ".join(row))
    if report.files:
        lines.append("[files]")
        for key in sorted(report.files):
            lines.append(f"{key} = {report.files[key]}")
    if report.timings:
        lines.append("[timings]")
        for key in sorted(report.timings):
            lines.append(f"{key}_s = {report.timings[key]:.3f}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
