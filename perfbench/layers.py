"""Per-layer metrics of traced solves, named after the prescurv modules.

Every value is per solve: counts and busy times are summed over the traced
solves of a run and divided by their number.  Busy time of a layer is the
wall time of its outermost spans; self time is busy time minus the part
covered by child spans.  Layers that do not run on every workload (the
Jacobian, the linear solve and manufacture_f) are given as a share of the
traced solve time, so that no reported time is a structural zero.
"""

from __future__ import annotations

import statistics

from tracing import SpanArrays

# span names of the layers whose busy time is reported
REPORT_WRITERS = ("report.write_field_csv", "report.write_geometry_csv",
                  "report.write_monitor_csv", "report.write_report")
STENCILS = ("mesh.grad_frame", "mesh.hess_frame")


def layer_metrics(sp: SpanArrays, results: dict, n_nodes: int,
                  traced_s: list, untraced_s: list, bytes_written: int) -> dict:
    """All per-layer metrics of one traced run, as name -> (value, unit).

    `bytes_written` is the size of one solve's CSV outputs, which every
    passing solve of a run writes identically.
    """
    n = len(traced_s)
    roots = sp.mask(["cli.main"]) & (sp.parent < 0)
    solve_busy = float(sp.duration[roots].sum())
    self_time = sp.self_time()
    out = {}

    def add(name, value, unit):
        out[name] = (float(value), unit)

    def counted(layer, names):
        mask = sp.mask(names)
        calls, busy = sp.busy(names)
        add(f"{layer}.calls", mask.sum() / n, "count")
        return mask, calls, busy

    def timed(layer, names):
        mask, calls, busy = counted(layer, names)
        add(f"{layer}.busy_s", busy / n, "s")
        return mask, calls, busy

    def shared(layer, names):
        mask, calls, busy = counted(layer, names)
        add(f"{layer}.share", 100.0 * busy / solve_busy, "%")
        return mask, calls, busy

    jac, jac_calls, _ = shared("solver.jacobian_fd", ["solver.jacobian_fd"])
    res, res_calls, res_busy = timed("solver.residual", ["solver.residual"])
    nested = int((res & sp.under(jac)).sum())
    add("solver.jacobian_fd.residuals_per_build", nested / jac_calls if jac_calls else 0.0, "count")
    add("solver.residual.us_per_call", 1e6 * res_busy / res_calls, "us")
    add("solver.residual.rejected", (res & sp.raised).sum() / n, "count")

    geo, geo_calls, geo_busy = timed("geometry.compute_geometry", ["geometry.compute_geometry"])
    add("geometry.compute_geometry.self_s", self_time[geo].sum() / n, "s")
    add("geometry.compute_geometry.ns_per_node", 1e9 * geo_busy / geo_calls / n_nodes, "ns")
    timed("mesh.stencil", STENCILS)
    timed("symm.quotient_ratio_batch", ["symm.quotient_ratio_batch"])
    timed("warp.capital_lambda", ["warp.capital_lambda"])
    timed("warp.eval_lambda", ["warp.eval_lambda"])
    shared("solver.linsolve", ["solver.linsolve"])

    newton, _, _ = timed("solver.newton_solve", ["solver.newton_solve"])
    newton_ok = [results[i] for i in newton.nonzero()[0].tolist() if i in results]
    add("solver.newton_solve.failed", (newton & sp.raised).sum() / n, "count")
    add("solver.newton_solve.iterations", sum(r[0] for r in newton_ok) / n, "count")
    add("solver.newton_solve.halvings", sum(r[1] for r in newton_ok) / n, "count")
    add("solver.newton_solve.self_s", self_time[newton].sum() / n, "s")

    cont = sp.mask(["solver.continuation_solve"])
    accepted = sum(results[i] for i in cont.nonzero()[0].tolist() if i in results)
    rejected = int((newton & sp.raised & sp.under(cont)).sum())
    add("solver.continuation.t_steps_accepted", accepted / n, "count")
    add("solver.continuation.t_steps_rejected", rejected / n, "count")
    add("solver.continuation.accept_ratio", accepted / max(accepted + rejected, 1), "ratio")
    add("solver.continuation.busy_s", sp.busy(["solver.continuation_solve"])[1] / n, "s")

    timed("problem.check_assumptions", ["problem.check_assumptions"])
    timed("problem.blend_f_t", ["problem.blend_f_t"])
    shared("problem.manufacture_f", ["problem.manufacture_f"])
    timed("monitor.monitor_state", ["monitor.monitor_state"])
    add("report.write_s", sp.busy(REPORT_WRITERS)[1] / n, "s")
    add("report.bytes_written", bytes_written, "bytes")
    add("config.build_problem.busy_s", sp.busy(["config.build_problem"])[1] / n, "s")
    add("cli.self_s", self_time[sp.mask(["cli."])].sum() / n, "s")
    add("trace.overhead_s", statistics.median(traced_s) - statistics.median(untraced_s), "s")
    return out
