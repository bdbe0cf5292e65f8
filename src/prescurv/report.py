"""Run report and CSV writers.

One structured-text report per run (flat key=value lines plus fixed-order
rows) and CSV files for fields, geometry, and monitor records, all three
written by one row writer.  A report's status (converged, assumption-fail,
breakdown or error) alone sets the run's exit code.  Float formatting uses
shortest round-trip repr, so identical runs produce bit-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import GraphGeometry
from .mesh import ScalarField
from .problem import AssumptionReport


def fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: str, columns: dict):
    """Write a header of the column names, then one row per entry of the columns."""
    rows = np.column_stack(list(columns.values())).tolist()
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def write_field_csv(path: str, field_obj: ScalarField):
    mesh = field_obj.mesh
    _write_csv(path, {"theta": mesh.theta_grid().ravel(), "phi": mesh.phi_grid().ravel(),
                      "value": field_obj.values.ravel()})


def write_geometry_csv(path: str, geom: GraphGeometry):
    cols = ("r", "v", "H", "kappa1", "kappa2", "mu1", "mu2", "tau")
    _write_csv(path, {"theta": geom.mesh.theta_grid().ravel(),
                      "phi": geom.mesh.phi_grid().ravel(),
                      **{c: getattr(geom, c).ravel() for c in cols}})


def write_monitor_csv(path: str, records):
    cols = ("t", "r_min", "r_max", "tau_min", "grad_max", "kappa_max")
    _write_csv(path, {c: [getattr(rec, c) for rec in records] for c in cols})


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
