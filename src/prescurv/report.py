"""Run report and CSV writers.

One structured-text report per run (flat key=value lines plus fixed-order
rows) and three CSV files.  The node CSVs (solution and geometry, one row
per mesh node) are streamed a bounded block of whole rings at a time, and
each distinct azimuth and each ring's colatitude is formatted once.  When
every value column is constant on every ring (a round or axisymmetric
field, or any field on a reduced mesh, whose rings are single nodes; the
test compares bit patterns), each column is formatted once per ring, and a
ring's rows, which differ only in phi, are one join of the azimuths between
the ring's row head (theta) and row tail (its values).  Otherwise the
block's value columns are formatted a block at a time and its rows joined
cell by cell.  The monitor CSV is one block of its few rows.  A report's
status (converged, assumption-fail, breakdown or error) alone sets the
run's exit code.  Float formatting uses shortest round-trip repr, so
identical runs produce bit-identical files.
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


CSV_CHUNK_ROWS = 1024     # rows formatted and written at a time


def _cells(column):
    """A column's cells as shortest round-trip reprs of Python floats."""
    return map(repr, np.asarray(column, dtype=float).ravel().tolist())


def _rows(columns) -> str:
    """The text of the rows whose cells are the given columns, side by side."""
    return "\n".join(map(",".join, zip(*columns))) + "\n"


def _write_csv(path: str, header, blocks):
    """Write the header line, then each block of row text, one write per block."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            fh.write(block)


def _ring_constant(column) -> bool:
    """Whether each ring (row) of column, n_theta x per_ring, holds one bit pattern.

    Bit patterns, not float ==, so a ring holding 0.0 and -0.0 keeps each
    zero's text.
    """
    bits = column.view(np.int64)
    return bool((bits == bits[:, :1]).all())


def _write_node_csv(path: str, mesh, names, columns):
    """theta, phi, then the named node columns; node (i, j) is row i * n_phi + j.

    Each distinct azimuth and each ring's theta is formatted once.  The rows
    go out a block of whole rings (about CSV_CHUNK_ROWS rows, at least one
    ring) per write.  If every value column is ring-constant, each is
    formatted once per ring, and ring i's text is head + (tail + head).join(phi)
    + tail, with head its theta cell and a comma, tail a comma, its value
    cells and a newline.  Otherwise theta is repeated per node of its ring,
    the value columns are formatted a block at a time, and the block's rows
    are joined cell by cell.
    """
    per_ring = 1 if mesh.reduced else mesh.n_phi
    rings = (mesh.n_theta, per_ring)
    phi = list(_cells(np.reshape(mesh.phi_grid(), rings)[0]))
    theta = list(_cells(mesh.theta))
    columns = [np.reshape(np.asarray(c, dtype=float), rings) for c in columns]
    by_ring = all(map(_ring_constant, columns))
    if by_ring:
        columns = [list(_cells(c[:, 0])) for c in columns]
    step = max(1, CSV_CHUNK_ROWS // per_ring)

    def ring_text(i):
        head = theta[i] + ","
        tail = "," + ",".join([c[i] for c in columns]) + "\n"
        return head + (tail + head).join(phi) + tail

    def blocks():
        for a in range(0, mesh.n_theta, step):
            b = min(a + step, mesh.n_theta)
            if by_ring:
                yield "".join(map(ring_text, range(a, b)))
            else:
                nodes_theta = [s for s in theta[a:b] for _ in range(per_ring)]
                yield _rows([nodes_theta, phi * (b - a), *(_cells(c[a:b]) for c in columns)])

    _write_csv(path, ("theta", "phi", *names), blocks())


def write_field_csv(path: str, field_obj: ScalarField):
    _write_node_csv(path, field_obj.mesh, ("value",), [field_obj.values])


def write_geometry_csv(path: str, geom: GraphGeometry):
    cols = ("r", "v", "H", "kappa1", "kappa2", "mu1", "mu2", "tau")
    _write_node_csv(path, geom.mesh, cols, [getattr(geom, c) for c in cols])


def write_monitor_csv(path: str, records):
    cols = ("t", "r_min", "r_max", "tau_min", "grad_max", "kappa_max")
    block = [_cells([getattr(rec, c) for rec in records]) for c in cols]
    _write_csv(path, cols, [_rows(block)] if records else [])


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
        lines.append("columns = t newton_iters jacobians residual_norm r_min r_max tau_min "
                     "grad_max kappa_max mu_min phi_test_max p_test_max barrier_ok")
        for st, rec in zip(report.states, report.monitors):
            row = [fmt(st.t), str(st.newton_iters), str(st.jacobians), fmt(st.residual_norm)]
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
