"""The CSV writers against the row-by-row format they replaced, byte for byte
(files whose every value column is constant on every ring, written a ring's
join at a time, and files in which only some are, written cell by cell,
included), and a solve's geometries: each formed once, by Newton, and read by
the monitors and geometry.csv."""

import contextlib
import io
import os
import sys
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from prescurv import cli, geometry, monitor, report
from prescurv.config import build_problem, parse_config
from prescurv.errors import ContinuationBreakdown
from prescurv.mesh import ScalarField, build_mesh
from prescurv.warp import WarpProfile

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
GEOMETRY_COLS = ("r", "v", "H", "kappa1", "kappa2", "mu1", "mu2", "tau")
MONITOR_COLS = ("t", "r_min", "r_max", "tau_min", "grad_max", "kappa_max")
# shortest repr: signed zero, exponent forms, the smallest subnormal, inexact sums
STRESS = (-0.0, 1e-05, 1e16, 5e-324, 0.1 + 0.2, 1 / 3, 0.0, -1.5, 1.25, 2.0 ** -1074 * 3)


def rowwise_csv(columns: dict) -> bytes:
    """The row writer the streaming writers replaced: one repr per cell, row by row."""
    rows = np.column_stack(list(columns.values())).tolist()
    lines = [",".join(columns) + "\n"] + [",".join(map(repr, row)) + "\n" for row in rows]
    return "".join(lines).encode()


def node_columns(mesh, names, arrays):
    return {"theta": mesh.theta_grid().ravel(), "phi": mesh.phi_grid().ravel(),
            **{n: np.ravel(a) for n, a in zip(names, arrays)}}


def stress_values(mesh, shift=0):
    """Node values cycling through STRESS, offset so each column differs."""
    return np.resize(np.roll(STRESS, shift), mesh.n_nodes).reshape(mesh.shape)


def ring_values(mesh, shift=0):
    """Node values constant on each ring, ring i holding STRESS[i + shift] (cyclic)."""
    rings = np.resize(np.roll(STRESS, -shift), mesh.n_theta)
    return np.repeat(rings[:, None], 1 if mesh.reduced else mesh.n_phi, axis=1).reshape(mesh.shape)


def signed_zero_ring(mesh, shift=0):
    """Ring-constant values, except that ring 3 holds 0.0 and -0.0: equal as
    floats, so a float == test would call the column ring-constant."""
    vals = ring_values(mesh, shift).reshape(mesh.n_theta, -1)  # one column when reduced
    vals[3] = 0.0
    vals[3, ::2] = -0.0
    return vals.reshape(mesh.shape)


def one_ring_varying(mesh, shift=0):
    """Ring-constant values, except that ring 5 holds two different subnormals."""
    vals = ring_values(mesh, shift).reshape(mesh.n_theta, -1)
    vals[5] = 5e-324
    vals[5, -1] = 2.0 ** -1074 * 3
    return vals.reshape(mesh.shape)


# node values; a file whose value columns are all ring-constant (any file on a
# reduced mesh, whose rings are single nodes) is written a ring at a time
FIELDS = {
    "stress": stress_values,
    "random": lambda mesh, shift=0: np.random.default_rng(3 + shift).standard_normal(mesh.shape),
    "round": lambda mesh, shift=0: np.full(mesh.shape, 1.25),
    "axisymmetric": ring_values,
    "smooth-axisymmetric": lambda mesh, shift=0: np.broadcast_to(
        1.1 + 0.05 * np.cos(mesh.theta_grid()) ** 2, mesh.shape),
    "signed-zero-ring": signed_zero_ring,
    "one-ring-varying": one_ring_varying,
}
# each geometry stand-in's columns cycle through these FIELDS
GEOMETRY_STAND_INS = {
    "stress": ("stress",),
    "partly-ring-constant": ("axisymmetric", "stress", "signed-zero-ring", "one-ring-varying"),
    "ring-constant": ("axisymmetric", "round", "smooth-axisymmetric"),
    "ring-constant-but-one": ("axisymmetric",) * (len(GEOMETRY_COLS) - 1) + ("one-ring-varying",),
}


def geometry_stand_in(mesh, kinds):
    """The geometry writer reads only mesh and the named columns: column k is
    FIELDS[kinds[k % len(kinds)]] with shift k."""
    return SimpleNamespace(mesh=mesh, **{c: FIELDS[kinds[k % len(kinds)]](mesh, k)
                                         for k, c in enumerate(GEOMETRY_COLS)})


MESHES = {"full-24x12": (24, 12, False), "reduced-20": (20, None, True)}


@pytest.fixture(params=[1, 7, 60, report.CSV_CHUNK_ROWS],
                ids=["chunk-1", "chunk-7", "chunk-60", "chunk-default"])
def chunk_rows(request, monkeypatch):
    """Chunks of one row, of 7 rows (less than a 12-node ring; 20 reduced rings
    leave a partial last chunk), of five 12-node rings (24 rings leave a partial
    last chunk), and the module default (one chunk)."""
    monkeypatch.setattr(report, "CSV_CHUNK_ROWS", request.param)
    return request.param


@pytest.mark.parametrize("mesh_key", list(MESHES))
@pytest.mark.parametrize("values", list(FIELDS))
def test_field_csv_matches_rowwise_bytes(tmp_path, chunk_rows, mesh_key, values):
    n_theta, n_phi, reduced = MESHES[mesh_key]
    mesh = build_mesh(n_theta, n_phi, reduced=reduced)
    vals = FIELDS[values](mesh)
    path = tmp_path / "solution.csv"
    report.write_field_csv(str(path), ScalarField(mesh, vals))
    assert path.read_bytes() == rowwise_csv(node_columns(mesh, ("value",), [vals]))


@pytest.mark.parametrize("mesh_key", list(MESHES))
def test_geometry_csv_matches_rowwise_bytes(tmp_path, chunk_rows, mesh_key):
    n_theta, n_phi, reduced = MESHES[mesh_key]
    mesh = build_mesh(n_theta, n_phi, reduced=reduced)
    path = tmp_path / "geometry.csv"
    for kinds in GEOMETRY_STAND_INS.values():
        stand_in = geometry_stand_in(mesh, kinds)
        report.write_geometry_csv(str(path), stand_in)
        arrays = [getattr(stand_in, c) for c in GEOMETRY_COLS]
        assert path.read_bytes() == rowwise_csv(node_columns(mesh, GEOMETRY_COLS, arrays))

    theta, phi = mesh.theta_grid(), mesh.phi_grid()
    r = 1.1 + 0.05 * np.cos(theta) ** 2 + 0.02 * np.sin(theta) ** 2 * np.cos(2 * phi)
    geom = geometry.compute_geometry(mesh, ScalarField(mesh, r), WarpProfile("euclidean", (0.0, 10.0)))
    report.write_geometry_csv(str(path), geom)
    arrays = [getattr(geom, c) for c in GEOMETRY_COLS]
    assert path.read_bytes() == rowwise_csv(node_columns(mesh, GEOMETRY_COLS, arrays))


def test_ring_constant_columns_are_formatted_once_per_ring(tmp_path, monkeypatch):
    """On a round 24x12 solution and its geometry, every value column is constant
    on each ring, and each is formatted n_theta cells, not n_theta * n_phi."""
    mesh = build_mesh(24, 12)
    r = ScalarField(mesh, np.full(mesh.shape, 1.1))
    geom = geometry.compute_geometry(mesh, r, WarpProfile("euclidean", (0.0, 10.0)))
    formatted = []
    real_cells = report._cells

    def counting(column):
        formatted.append(np.size(column))
        return real_cells(column)

    monkeypatch.setattr(report, "_cells", counting)
    report.write_field_csv(str(tmp_path / "solution.csv"), r)
    # the azimuths, the colatitudes, then the one value column
    assert sorted(formatted) == sorted([mesh.n_phi, mesh.n_theta, mesh.n_theta])
    formatted.clear()
    report.write_geometry_csv(str(tmp_path / "geometry.csv"), geom)
    assert sorted(formatted) == sorted([mesh.n_phi] + [mesh.n_theta] * (1 + len(GEOMETRY_COLS)))
    monkeypatch.undo()
    arrays = [getattr(geom, c) for c in GEOMETRY_COLS]
    assert (tmp_path / "geometry.csv").read_bytes() == rowwise_csv(
        node_columns(mesh, GEOMETRY_COLS, arrays))


def ring_constant(values, mesh):
    """Each ring of values holds one bit pattern."""
    bits = np.asarray(values, dtype=float).reshape(mesh.n_theta, -1).view(np.int64)
    return bool((bits == bits[:, :1]).all())


@pytest.mark.parametrize("radius", ["round", "axisymmetric"])
def test_ring_constant_128x64_node_csvs_match_rowwise_bytes(tmp_path, radius):
    """A round 128x64 solution and an axisymmetric, non-round one: every value
    column of both node CSVs is constant on each ring (the ring values differ
    when not round), and both files hold the row-by-row bytes."""
    mesh = build_mesh(128, 64)
    theta = mesh.theta_grid()
    r = np.full(mesh.shape, 1.25) if radius == "round" else np.broadcast_to(
        1.1 + 0.05 * np.cos(theta) ** 2 + 0.01 * np.cos(theta), mesh.shape).copy()
    field_obj = ScalarField(mesh, r)
    geom = geometry.compute_geometry(mesh, field_obj, WarpProfile("euclidean", (0.0, 10.0)))
    arrays = [getattr(geom, c) for c in GEOMETRY_COLS]
    assert all(ring_constant(a, mesh) for a in [r] + arrays)
    assert (radius == "round") == all(np.unique(a).size == 1 for a in [r] + arrays)
    report.write_field_csv(str(tmp_path / "solution.csv"), field_obj)
    report.write_geometry_csv(str(tmp_path / "geometry.csv"), geom)
    assert (tmp_path / "solution.csv").read_bytes() == rowwise_csv(
        node_columns(mesh, ("value",), [r]))
    assert (tmp_path / "geometry.csv").read_bytes() == rowwise_csv(
        node_columns(mesh, GEOMETRY_COLS, arrays))


@pytest.mark.parametrize("mesh_key", list(MESHES))
@pytest.mark.parametrize("kinds", list(GEOMETRY_STAND_INS))
def test_node_writer_writes_at_most_a_block_of_rows(monkeypatch, chunk_rows, mesh_key, kinds):
    """Each write of the node writer after the header carries whole rows, at most
    max(CSV_CHUNK_ROWS, n_phi) of them, whether every column is ring-constant or not."""
    n_theta, n_phi, reduced = MESHES[mesh_key]
    mesh = build_mesh(n_theta, n_phi, reduced=reduced)
    stand_in = geometry_stand_in(mesh, GEOMETRY_STAND_INS[kinds])
    writes = []
    recording_file = contextlib.nullcontext(SimpleNamespace(write=writes.append))
    monkeypatch.setattr(report, "open", lambda path, mode: recording_file, raising=False)
    report.write_geometry_csv("geometry.csv", stand_in)
    header, *blocks = writes
    assert header == ",".join(("theta", "phi") + GEOMETRY_COLS) + "\n"
    assert all(block.endswith("\n") for block in blocks)
    rows = [block.count("\n") for block in blocks]
    assert sum(rows) == mesh.n_nodes
    assert max(rows) <= max(chunk_rows, 1 if reduced else n_phi)
    arrays = [getattr(stand_in, c) for c in GEOMETRY_COLS]
    assert "".join(writes).encode() == rowwise_csv(node_columns(mesh, GEOMETRY_COLS, arrays))


@pytest.mark.parametrize("n_records", [0, 1, 11])
def test_monitor_csv_matches_rowwise_bytes(tmp_path, n_records):
    records = [SimpleNamespace(**{c: STRESS[(i + k) % len(STRESS)]
                                  for k, c in enumerate(MONITOR_COLS)})
               for i in range(n_records)]
    path = tmp_path / "monitor.csv"
    report.write_monitor_csv(str(path), records)
    expected = rowwise_csv({c: [getattr(rec, c) for rec in records] for c in MONITOR_COLS})
    assert path.read_bytes() == expected
    if not records:
        assert expected == (",".join(MONITOR_COLS) + "\n").encode()


def solve_counting_geometries(monkeypatch, argv):
    """Run `prescurv solve`; return (exit code, final state, accepted states,
    node fields of the compute_geometry calls made after the continuation
    returned or broke down, of those made outside continuation_solve, and of all).

    The accepted states are the continuation's history, or None on a breakdown.
    """
    seen = {"final": None, "history": None, "in_solve": False, "after": [], "outside": [],
            "all": []}
    real_solve, real_geometry = cli.continuation_solve, geometry.compute_geometry

    def solve(*args, **kwargs):
        seen["in_solve"] = True
        try:
            final, history = real_solve(*args, **kwargs)
        except ContinuationBreakdown as exc:
            seen["final"] = exc.last_good
            raise
        finally:
            seen["in_solve"] = False
        seen["final"], seen["history"] = final, history
        return final, history

    def counted(mesh, r_field, profile):
        seen["all"].append(r_field)
        if seen["final"] is not None:
            seen["after"].append(r_field)
        if not seen["in_solve"]:
            seen["outside"].append(r_field)
        return real_geometry(mesh, r_field, profile)

    monkeypatch.setattr(cli, "continuation_solve", solve)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "prescurv" and \
                getattr(module, "compute_geometry", None) is real_geometry:
            monkeypatch.setattr(module, "compute_geometry", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, seen["final"], seen["history"], seen["after"], seen["outside"], seen["all"]


def node_csvs_match(out, mesh, state, geom):
    """solution.csv and geometry.csv of out hold state and geom, byte for byte."""
    arrays = [getattr(geom, c) for c in GEOMETRY_COLS]
    return ((out / "geometry.csv").read_bytes()
            == rowwise_csv(node_columns(mesh, GEOMETRY_COLS, arrays))
            and (out / "solution.csv").read_bytes()
            == rowwise_csv(node_columns(mesh, ("value",), [state.r_field.values])))


def monitor_row(spec, state, mesh):
    """The monitor.csv row of state, from its geometry recomputed from its field."""
    rec = monitor.monitor(geometry.compute_geometry(mesh, state.r_field, spec.profile),
                          spec, state.t)
    return ",".join(repr(float(getattr(rec, c))) for c in MONITOR_COLS)


def test_converged_solve_forms_the_final_geometry_once(tmp_path, monkeypatch):
    """The continuation forms every geometry of a solve: none is formed outside
    continuation_solve, none after it returns, and geometry.csv is the final
    state's."""
    cfg = os.path.join(CONFIGS, "perturbed_axisym.cfg")
    out = tmp_path / "out"
    code, final, _, after, outside, _ = solve_counting_geometries(
        monkeypatch, ["--config", cfg, "--out", str(out), "solve"])
    assert code == 0 and final.t == 1.0
    assert after == [] and outside == []
    monkeypatch.undo()
    spec, mesh, _ = build_problem(parse_config(cfg))
    geom = geometry.compute_geometry(mesh, final.r_field, spec.profile)
    assert node_csvs_match(out, mesh, final, geom)


def test_breakdown_geometry_is_the_last_good_state(tmp_path, monkeypatch):
    cfg = os.path.join(CONFIGS, "violates_outer.cfg")
    out = tmp_path / "out"
    code, last_good, _, after, outside, _ = solve_counting_geometries(
        monkeypatch, ["--config", cfg, "--out", str(out), "--force", "solve"])
    assert code == 4
    assert after == [] and outside == []
    monkeypatch.undo()
    spec, mesh, _ = build_problem(parse_config(cfg))
    geom = geometry.compute_geometry(mesh, last_good.r_field, spec.profile)
    assert node_csvs_match(out, mesh, last_good, geom)
    assert (out / "monitor.csv").read_text().splitlines()[-1] == monitor_row(spec, last_good, mesh)


def test_every_monitor_row_equals_its_recomputed_oracle(tmp_path, monkeypatch):
    """On a 16x8 non-axisymmetric solve that takes both chord and fresh Newton
    steps, each monitor.csv row is the monitor of its state's geometry formed
    again from the state's field."""
    text = open(os.path.join(CONFIGS, "closed_form.cfg")).read()
    text = text.replace("mesh.n_theta = 64", "mesh.n_theta = 16").replace(
        "mesh.n_phi = 32", "mesh.n_phi = 8").replace(
        "f.expr = 1/r^2 * exp(1.25 - r)",
        "f.expr = 1/r^2 * exp(1.25 - r) * (1 + 0.03*sin(th)*cos(ph) - 0.02*sin(th)*sin(ph))")
    cfg = tmp_path / "angular.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    code, final, history, _, _, _ = solve_counting_geometries(
        monkeypatch, ["--config", str(cfg), "--out", str(out), "solve"])
    assert code == 0 and final is history[-1]
    iterations = sum(st.newton_iters for st in history)
    jacobians = sum(st.jacobians for st in history)
    assert iterations > jacobians >= 1  # chord steps and fresh ones
    monkeypatch.undo()
    spec, mesh, _ = build_problem(parse_config(str(cfg)))
    assert (mesh.n_theta, mesh.n_phi) == (16, 8)
    rows = (out / "monitor.csv").read_text().splitlines()[1:]
    assert rows == [monitor_row(spec, st, mesh) for st in history]


class CountingReductions(weakref.WeakKeyDictionary):
    """monitor's per-geometry cache, counting the reductions it stores."""

    def __init__(self):
        super().__init__()
        self.formed = 0

    def __setitem__(self, geom, reductions):
        self.formed += 1
        super().__setitem__(geom, reductions)


@pytest.mark.parametrize("name,round_path", [
    ("closed_form.cfg", True), ("builtin_round.cfg", True), ("hyperbolic_round.cfg", True),
    ("perturbed_axisym.cfg", False)])
def test_report_rows_hold_the_oracle_reductions(tmp_path, monkeypatch, name, round_path):
    """mu_min, max Phi and max P reach no CSV: report.txt's [continuation] rows
    carry them.  Each row's monitored values are the monitor of its state's
    geometry formed afresh, and the reductions are formed once per distinct
    geometry: once for a round path's 11 rows, once per accepted state on a
    path that moves."""
    cfg = os.path.join(CONFIGS, name)
    out = tmp_path / "out"
    cache = CountingReductions()
    monkeypatch.setattr(monitor, "_REDUCTIONS", cache)
    code, final, history, _, _, formed = solve_counting_geometries(
        monkeypatch, ["--config", cfg, "--out", str(out), "solve"])
    assert code == 0 and final.t == 1.0 and len(history) == 11
    if round_path:
        assert len(formed) == 1 and cache.formed == 1
    else:
        assert cache.formed == len(history)
    monkeypatch.undo()
    spec, mesh, _ = build_problem(parse_config(cfg))
    lines = (out / "report.txt").read_text().splitlines()
    columns = next(ln for ln in lines if ln.startswith("columns = ")).split()[2:]
    rows = [ln.split()[2:] for ln in lines if ln.startswith("row = ")]
    tail = columns.index("mu_min")
    assert columns[tail:] == ["mu_min", "phi_test_max", "p_test_max", "barrier_ok"]
    want = []
    for st in history:
        rec = monitor.monitor(geometry.compute_geometry(mesh, st.r_field, spec.profile),
                              spec, st.t)
        want.append([report.fmt(rec.mu_min), report.fmt(rec.phi_test_max),
                     report.fmt(rec.p_test_max), str(rec.barrier_ok).lower()])
    assert [row[tail:] for row in rows] == want


@pytest.mark.parametrize("name", ["closed_form.cfg", "builtin_round.cfg", "hyperbolic_round.cfg"])
def test_round_solve_forms_one_geometry(tmp_path, monkeypatch, name):
    """On a round config the path does not move: every t-step starts at the
    accepted state and reuses its geometry, so the solve forms one, and the
    CSVs still hold what a geometry formed afresh from each state gives."""
    cfg = os.path.join(CONFIGS, name)
    out = tmp_path / "out"
    code, final, history, _, _, formed = solve_counting_geometries(
        monkeypatch, ["--config", cfg, "--out", str(out), "solve"])
    assert code == 0 and final.t == 1.0 and len(history) == 11
    assert len(formed) == 1
    monkeypatch.undo()
    spec, mesh, _ = build_problem(parse_config(cfg))
    geom = geometry.compute_geometry(mesh, final.r_field, spec.profile)
    assert node_csvs_match(out, mesh, final, geom)
    rows = (out / "monitor.csv").read_text().splitlines()[1:]
    assert rows == [monitor_row(spec, st, mesh) for st in history]
