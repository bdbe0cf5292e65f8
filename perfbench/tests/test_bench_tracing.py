"""Span-tree arithmetic and wrapper installation of the benchmark tracer."""

import contextlib
import io
import sys

import numpy as np
import pytest

import prescurv
from layers import layer_metrics
from prescurv import cli
from prescurv.warp import WarpProfile
from tracing import SpanArrays, Tracer, load

ROUND = """
warp.kind = euclidean
warp.domain = 0,10
mesh.n_theta = 16
mesh.n_phi = 4
problem.r1 = 0.5
problem.r2 = 2
phi.rm = 1.25
f.expr = 1/r^2 * exp(1.25 - r)
"""


def synthetic():
    # a [0, 10] -> b [1, 4] -> d [2, 3]
    #           -> c [3, 6]            (overlaps b on [3, 4])
    #           -> e [8, 12]           (runs past its parent's end)
    # f [20, 21], a second root with the same name as b
    names = ["a", "b", "c", "d", "e"]
    name_id = [0, 1, 2, 3, 4, 1]
    parent = [-1, 0, 0, 1, 0, -1]
    start = [0.0, 1.0, 3.0, 2.0, 8.0, 20.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0, 21.0]
    order = np.argsort(start, kind="stable")
    remap = {int(old): new for new, old in enumerate(order)}
    return SpanArrays(
        names, [name_id[i] for i in order],
        [remap[parent[i]] if parent[i] >= 0 else -1 for i in order],
        [start[i] for i in order], [end[i] for i in order], [False] * 6)


def by_start(sp, values):
    return dict(zip(sp.start.tolist(), np.asarray(values).tolist()))


def test_self_time_subtracts_union_of_children():
    sp = synthetic()
    self_t = by_start(sp, sp.self_time())
    # a: children cover [1, 6] and [8, 10] -> 10 - 7
    assert self_t[0.0] == pytest.approx(3.0)
    assert self_t[1.0] == pytest.approx(2.0)    # b minus d
    assert self_t[3.0] == pytest.approx(3.0)    # c, no children
    assert self_t[2.0] == pytest.approx(1.0)
    assert self_t[20.0] == pytest.approx(1.0)


def test_busy_counts_outermost_spans_only():
    sp = synthetic()
    assert sp.busy(["b"]) == (2, pytest.approx(4.0))
    assert sp.busy(["a", "b", "d"]) == (2, pytest.approx(11.0))
    assert sp.busy(["b", "d"]) == (2, pytest.approx(4.0))
    under_b = by_start(sp, sp.under(sp.mask(["b"])))
    assert under_b == {0.0: False, 1.0: False, 2.0: True, 3.0: False, 8.0: False, 20.0: False}


def test_parent_must_precede_child():
    with pytest.raises(ValueError):
        SpanArrays(["x"], [0, 0], [1, -1], [0.0, 1.0], [2.0, 3.0], [False, False])


def test_wrapper_records_nesting_and_exceptions():
    tr = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    inner_t = tr.wrap("m.inner", inner)
    outer_t = tr.wrap("m.outer", lambda x: inner_t(x) + inner_t(1), on_result=lambda v: v * 10)
    assert outer_t(2) == 3
    with pytest.raises(ValueError):
        outer_t(-1)
    sp = tr.arrays()
    assert [sp.names[i] for i in sp.name_id] == ["m.outer", "m.inner", "m.inner",
                                                 "m.outer", "m.inner"]
    assert sp.parent.tolist() == [-1, 0, 0, -1, 3]
    assert sp.raised.tolist() == [False, False, False, True, True]
    assert tr.results == {0: 30}
    assert np.all(sp.end >= sp.start)


def _bindings():
    mods = [m for n, m in sys.modules.items()
            if m is not None and (n == "prescurv" or n.startswith("prescurv."))]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    out.update({("WarpProfile", k): v for k, v in vars(WarpProfile).items()})
    return out


def test_traced_solve_then_originals_restored(tmp_path):
    cfg = tmp_path / "round.cfg"
    cfg.write_text(ROUND)
    before = _bindings()
    tr = Tracer()
    tr.install(prescurv)
    assert tr.installed
    assert cli.check_assumptions is not before[("prescurv.cli", "check_assumptions")]
    assert prescurv.solver.compute_geometry is prescurv.geometry.compute_geometry
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "solve"])
    finally:
        tr.remove()
    assert code == 0
    assert not tr.installed
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(hasattr(v, "__traced_original__") for v in after.values())

    sp = tr.arrays()
    root = sp.mask(["cli.main"])
    assert root.sum() == 1 and sp.parent[root][0] == -1
    m = layer_metrics(sp, tr.results, 64, [1.0], [1.0], 100)
    assert m["problem.check_assumptions.calls"][0] == 2
    assert m["solver.jacobian_fd.calls"][0] == 0
    assert m["solver.newton_solve.iterations"][0] == 0
    assert m["solver.continuation.t_steps_accepted"][0] == 10
    assert m["monitor.monitor_state.calls"][0] == 11
    assert sp.busy(["report.fmt"]) == (0, 0.0)

    tr.save(str(tmp_path / "spans.npz"))
    back = load(str(tmp_path / "spans.npz"))
    assert back.names == sp.names and np.array_equal(back.start, sp.start)


def test_install_twice_is_refused():
    tr = Tracer()
    tr.install(prescurv)
    try:
        with pytest.raises(RuntimeError):
            tr.install(prescurv)
    finally:
        tr.remove()
