import os
import subprocess
import sys

import numpy as np
import pytest

import prescurv
from prescurv import solver
from prescurv.cli import main
from prescurv.config import build_problem, parse_config
from prescurv.errors import NewtonFailure
from prescurv.geometry import compute_geometry
from prescurv.mesh import ScalarField

CLOSED_FORM = """
warp.kind = euclidean
warp.domain = 0,10
mesh.n_theta = 32
mesh.n_phi = 16
problem.k = 2
problem.l = 0
problem.r1 = 0.5
problem.r2 = 2
phi.rm = 1.25
phi.c = 1.0
f.expr = 1/r^2 * exp(1.25 - r)
"""

VIOLATES_INNER = """
warp.kind = euclidean
warp.domain = 0,10
mesh.n_theta = 32
mesh.reduced = true
problem.r1 = 0.5
problem.r2 = 2
f.expr = 0.5/r^2
"""

VIOLATES_OUTER = """
warp.kind = euclidean
warp.domain = 0,10
mesh.n_theta = 32
mesh.reduced = true
problem.r1 = 0.5
problem.r2 = 2
f.expr = 3/r^2
"""


def write_cfg(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_solution(out_dir):
    data = np.loadtxt(os.path.join(out_dir, "solution.csv"), delimiter=",", skiprows=1)
    return data[:, 2]


def test_solve_closed_form(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CLOSED_FORM)
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "solve"]) == 0
    assert np.abs(read_solution(out) - 1.25).max() <= 1e-6
    report = open(os.path.join(out, "report.txt")).read()
    assert report.startswith("status = converged")
    assert "inner_barrier.passed = true" in report
    assert "f.expr = 1/r^2 * exp(1.25 - r)" in report  # config echo
    assert os.path.exists(os.path.join(out, "geometry.csv"))
    assert os.path.exists(os.path.join(out, "monitor.csv"))
    head = open(os.path.join(out, "monitor.csv")).readline().strip()
    assert head == "t,r_min,r_max,tau_min,grad_max,kappa_max"


def test_report_config_echo_reproduces_status(tmp_path):
    """The [config] section of a report is itself a valid config that
    reproduces the run."""
    cfg = write_cfg(tmp_path, CLOSED_FORM)
    out1 = str(tmp_path / "one")
    assert main(["--config", cfg, "--out", out1, "solve"]) == 0
    lines = open(os.path.join(out1, "report.txt")).read().splitlines()
    start = lines.index("[config]") + 1
    end = next(i for i in range(start, len(lines)) if lines[i].startswith("["))
    echoed = write_cfg(tmp_path, "\n".join(lines[start:end]), "echo.cfg")
    out2 = str(tmp_path / "two")
    assert main(["--config", echoed, "--out", out2, "solve"]) == 0
    assert open(os.path.join(out2, "report.txt")).read().startswith("status = converged")


def test_solve_outputs_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, CLOSED_FORM)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["--config", cfg, "--out", out1, "solve"]) == 0
    assert main(["--config", cfg, "--out", out2, "solve"]) == 0
    for name in ("solution.csv", "geometry.csv", "monitor.csv"):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b


def test_solve_rejects_reversed_annulus(tmp_path, capsys):
    bad = CLOSED_FORM.replace("problem.r1 = 0.5", "problem.r1 = 2.5")
    cfg = write_cfg(tmp_path, bad)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "solve"]) == 2
    err = capsys.readouterr().err
    assert "problem.r1" in err


def test_solve_rejects_bad_numbers(tmp_path, capsys):
    bad = CLOSED_FORM.replace("mesh.n_theta = 32", "mesh.n_theta = many")
    cfg = write_cfg(tmp_path, bad)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "solve"]) == 2
    assert "mesh.n_theta" in capsys.readouterr().err


def manufactured_cfg(tmp_path, value, n_phi=None, phi_column=lambda ph: ph):
    """A 32-node config, reduced or 32 x n_phi, with a target CSV.

    The CSV holds the string `value` at every node, or `value(theta)`; its
    azimuth column is phi_column of the mesh azimuths.
    """
    from prescurv.mesh import build_mesh

    mesh = build_mesh(32, n_phi, reduced=n_phi is None)
    th, ph = mesh.theta_grid().ravel(), phi_column(mesh.phi_grid().ravel())
    vals = [value] * th.size if isinstance(value, str) else value(th).tolist()
    csv_path = tmp_path / "target.csv"
    csv_path.write_text("theta,phi,value\n" + "".join(
        f"{t!r},{p!r},{v}\n" for t, p, v in zip(th.tolist(), ph.tolist(), vals)))
    mesh_line = "mesh.reduced = true" if n_phi is None else f"mesh.n_phi = {n_phi}"
    return VIOLATES_INNER.replace("f.expr = 0.5/r^2", f"f.manufactured = {csv_path}").replace(
        "mesh.reduced = true", mesh_line)


@pytest.mark.parametrize("make_cfg,key", [
    (lambda tmp: CLOSED_FORM.replace("problem.k = 2", "problem.k = 3"), "problem.k"),
    (lambda tmp: CLOSED_FORM.replace("phi.rm = 1.25", "phi.rm = 2.5"), "phi.rm"),
    (lambda tmp: CLOSED_FORM.replace("phi.c = 1.0", "phi.c = -1.0"), "phi.c"),
    (lambda tmp: CLOSED_FORM.replace("warp.domain = 0,10", "warp.domain = 0,1.5"), "warp.domain"),
    (lambda tmp: manufactured_cfg(tmp, "abc"), "f.manufactured"),
    (lambda tmp: manufactured_cfg(tmp, "nan"), "f.manufactured"),
    (lambda tmp: manufactured_cfg(tmp, "3.0"), "f.manufactured"),
    (lambda tmp: manufactured_cfg(tmp, lambda th: 1 + 0.3 * np.cos(2 * th)), "f.manufactured"),
    (lambda tmp: manufactured_cfg(tmp, "1.0", n_phi=8, phi_column=np.degrees), "f.manufactured"),
    (lambda tmp: CLOSED_FORM.replace("problem.l = 0", "problem.l = 1"), "problem.l"),
    (lambda tmp: CLOSED_FORM + "solver.t_step_init = inf\n", "solver.t_step_init"),
    (lambda tmp: CLOSED_FORM + "solver.t_step_init = nan\n", "solver.t_step_init"),
    (lambda tmp: CLOSED_FORM + "solver.newton_tol = nan\n", "solver.newton_tol"),
    (lambda tmp: CLOSED_FORM + "solver.max_newton = 0\n", "solver.max_newton"),
    (lambda tmp: CLOSED_FORM.replace("mesh.n_phi = 16", "mesh.n_phi = 5"), "mesh.n_phi"),
    (lambda tmp: CLOSED_FORM.replace("warp.kind = euclidean",
                                     "warp.kind = custom\nwarp.coeffs = 0,x"), "warp.coeffs"),
    (lambda tmp: CLOSED_FORM.replace("warp.kind = euclidean",
                                     "warp.kind = custom\nwarp.coeffs = nan,1"), "warp.coeffs"),
    (lambda tmp: CLOSED_FORM.replace("warp.domain = 0,10", "warp.domain = 3,1"), "warp.domain"),
    (lambda tmp: CLOSED_FORM + "check.samples = 0\n", "check.samples"),
    (lambda tmp: CLOSED_FORM + "check.samples = -3\n", "check.samples"),
    (lambda tmp: CLOSED_FORM + "check.samples = 33\n", "check.samples"),
    (lambda tmp: CLOSED_FORM + "check.samples = 100000\n", "check.samples"),
    (lambda tmp: CLOSED_FORM.replace("phi.c = 1.0", "phi.c = inf"), "phi.c"),
    (lambda tmp: CLOSED_FORM.replace("f.expr = 1/r^2 * exp(1.25 - r)", "f.builtin = "
                                     "round_exponential\nf.rm = nan\nf.alpha = 1"), "f.rm"),
    (lambda tmp: CLOSED_FORM + "solver.newton_tl = 1e-9\n", "solver.newton_tl"),
    (lambda tmp: CLOSED_FORM + "solver.jacobian_fd_scale = 1e-8\n", "solver.jacobian_fd_scale"),
], ids=["k-above-dimension", "phi-rm-outside-annulus", "phi-c-negative",
        "annulus-outside-domain", "target-not-numeric", "target-nan", "target-outside-annulus",
        "target-leaves-cone", "target-phi-column-wrong", "l-above-k-minus-2",
        "t-step-inf",
        "t-step-nan", "newton-tol-nan", "max-newton-zero", "n-phi-odd", "coeffs-not-numeric",
        "coeffs-nan", "domain-reversed", "samples-zero", "samples-negative", "samples-above-bound",
        "samples-huge", "phi-c-inf",
        "builtin-rm-nan", "unknown-key-typo", "unknown-key-fd-scale"])
def test_solve_config_errors_exit_2(tmp_path, capsys, make_cfg, key):
    cfg = write_cfg(tmp_path, make_cfg(tmp_path))
    out = str(tmp_path / "o")
    assert main(["--config", cfg, "--out", out, "solve"]) == 2
    captured = capsys.readouterr()
    assert f"(key: {key})" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == "" and not os.path.exists(out)  # rejected before anything is written


@pytest.mark.parametrize("command,line,key", [
    (["check-assumptions"], "check.samples = 0", "check.samples"),
    (["check-assumptions"], "check.samples = -3", "check.samples"),
    (["check-assumptions"], "check.samples = 33", "check.samples"),
    (["check-assumptions"], "check.samples = 100000", "check.samples"),
    (["verify-geometry"], "verify.n_theta = 4", "verify.n_theta"),
    (["verify-geometry"], "warp.kind = custom\nwarp.coeffs = 0,1", "warp.kind"),
    (["verify-geometry"], "verify.r_expr = 1 + log(th - 1)", "verify.r_expr"),
    (["verify-geometry"], "verify.r_expr = 1 + foo(th)", "verify.r_expr"),
    (["verify-geometry"], "verify.r_expr = 2 + r", "verify.r_expr"),
    (["verify-geometry"], "verify.r_expr = 20", "verify.r_expr"),
    (["verify-geometry"], "verify.r_expr = 0", "verify.r_expr"),
    (["sweep", "--key", "solver.newton_tl", "--values", "1e-9,1e-11"], "", "solver.newton_tl"),
    (["sweep", "--key", "phi.c", "--values", "1,-1"], "", "phi.c"),
    (["sweep", "--key", "check.samples", "--values", "12,100000"], "", "check.samples"),
], ids=["check-samples-zero", "check-samples-negative", "check-samples-above-bound",
        "check-samples-huge", "verify-n-theta-small",
        "verify-custom-warp", "verify-r-expr-non-finite", "verify-r-expr-unparsed",
        "verify-r-expr-reads-r", "verify-r-expr-outside-domain", "verify-r-expr-lambda-zero",
        "sweep-key-typo", "sweep-later-value-invalid", "sweep-check-samples-huge"])
def test_subcommand_config_errors_exit_2(tmp_path, capsys, command, line, key):
    cfg = write_cfg(tmp_path, CLOSED_FORM + line + "\n")
    out = str(tmp_path / "o")
    assert main(["--config", cfg, "--out", out] + command) == 2
    captured = capsys.readouterr()
    assert f"(key: {key})" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""  # rejected before any check or solve reports
    assert not os.path.exists(out)  # rejected before any solve


def test_solve_missing_config():
    assert main(["--config", "/nonexistent/x.cfg", "solve"]) == 2


@pytest.mark.parametrize("bad", ["config-is-directory", "config-not-utf8", "out-is-file",
                                 "out-under-file", "out-is-empty"])
def test_bad_paths_exit_2(tmp_path, capsys, monkeypatch, bad):
    """A config path that is a directory or not UTF-8 text, and an --out that
    is empty, a regular file or lies under one, are config errors: exit 2 with
    one 'config error:' line, nothing written, from solve and from sweep."""
    cfg = write_cfg(tmp_path, CLOSED_FORM)
    out = tmp_path / "o"
    if bad == "config-is-directory":
        cfg = str(tmp_path / "cfg_dir")
        os.mkdir(cfg)
    elif bad == "config-not-utf8":
        (tmp_path / "case.cfg").write_bytes(b"# caf\xe9\n" + CLOSED_FORM.encode())
    elif bad == "out-is-empty":
        monkeypatch.chdir(tmp_path)  # a write to the current directory shows in the walk
        out = ""
    else:
        (tmp_path / "taken").write_text("not a directory\n")
        out = tmp_path / "taken" / ("sub" if bad == "out-under-file" else "")
    before = sorted(os.walk(tmp_path))
    for command in (["solve"], ["sweep", "--key", "phi.c", "--values", "1,2"]):
        assert main(["--config", cfg, "--out", str(out)] + command) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("config error:")
    assert sorted(os.walk(tmp_path)) == before


@pytest.mark.parametrize("cfg_text,which", [(VIOLATES_INNER, "inner_barrier"),
                                            (VIOLATES_OUTER, "outer_barrier")])
def test_solve_assumption_failures_exit_3(tmp_path, capsys, cfg_text, which):
    cfg = write_cfg(tmp_path, cfg_text)
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "solve"]) == 3
    stdout = capsys.readouterr().out
    assert "assumption" in stdout and which in stdout  # margins table printed
    assert "converged" not in stdout
    report = open(os.path.join(out, "report.txt")).read()
    assert "status = assumption-fail" in report


def test_solve_runs_once_its_own_assumption_check_passes(tmp_path, capsys):
    """check.samples sets the gate: the solver's 12-sample check (which finds
    f below the threshold at some r <= r1 here) must not refuse the run."""
    cfg = write_cfg(tmp_path, CLOSED_FORM.replace("mesh.n_theta = 32", "mesh.n_theta = 16")
                    .replace("mesh.n_phi = 16", "mesh.n_phi = 4")
                    .replace("exp(1.25 - r)", "exp(1.25 - r) * (1 + 0.6*cos(ph))")
                    + "check.samples = 1\n")
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "solve"]) == 0
    assert "inner_barrier" in capsys.readouterr().out  # margins table printed
    assert open(os.path.join(out, "report.txt")).read().startswith("status = converged")


def raise_newton_failure(*args, **kwargs):
    raise NewtonFailure("injected Newton failure")


@pytest.mark.parametrize("expr,newton_fails,message,table", [
    ("r - 1", False, "prescribed function produced a non-positive value", False),
    ("1/r^2 * exp(1.25 - r)", True, "injected Newton failure", True),
], ids=["check-raises", "newton-raises"])
def test_solve_typed_failure_writes_error_report(tmp_path, capsys, monkeypatch,
                                                 expr, newton_fails, message, table):
    """A typed failure of the assumption check or of the continuation exits 1
    and still writes report.txt (status = error) and a header-only monitor.csv."""
    if newton_fails:
        monkeypatch.setattr(solver, "newton_solve", raise_newton_failure)
    cfg = write_cfg(tmp_path, VIOLATES_INNER.replace("mesh.n_theta = 32", "mesh.n_theta = 16")
                    .replace("f.expr = 0.5/r^2", f"f.expr = {expr}"))
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "solve"]) == 1
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.out
    assert ("inner_barrier" in captured.out) == table  # margins table only if the check ran
    assert "Traceback" not in captured.err
    report = open(os.path.join(out, "report.txt")).read()
    assert report.startswith(f"status = error\nmessage = {message}\n")
    assert open(os.path.join(out, "monitor.csv")).read() == \
        "t,r_min,r_max,tau_min,grad_max,kappa_max\n"
    assert not os.path.exists(os.path.join(out, "solution.csv"))


def test_sweep_solves_past_a_failed_value(tmp_path, capsys):
    cfg = write_cfg(tmp_path, VIOLATES_INNER.replace("mesh.n_theta = 32", "mesh.n_theta = 16"))
    out = str(tmp_path / "sweep")
    assert main(["--config", cfg, "--out", out, "sweep",
                 "--key", "f.expr", "--values", "r - 1,1/r^2 * exp(1.25 - r)"]) == 1
    stdout = capsys.readouterr().out
    assert "f.expr=r - 1: error" in stdout
    assert "f.expr=1/r^2 * exp(1.25 - r): converged" in stdout
    # one directory per value, directly under --out, whatever the value's characters
    runs = sorted(os.listdir(out))
    assert runs == ["f_expr_1_r_2___exp_1p25_-_r_", "f_expr_r_-_1"]
    assert all(os.path.exists(os.path.join(out, run, "report.txt")) for run in runs)


def test_sweep_values_sharing_a_directory_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, VIOLATES_INNER.replace("mesh.n_theta = 32", "mesh.n_theta = 16"))
    out = str(tmp_path / "sweep")
    assert main(["--config", cfg, "--out", out, "sweep", "--key", "f.expr",
                 "--values", "1/r^2 * exp(1.25 - r),1*r^2 * exp(1.25 - r)"]) == 2
    assert "share the output directory" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_solve_forced_past_outer_violation_breaks_down(tmp_path, capsys):
    cfg = write_cfg(tmp_path, VIOLATES_OUTER)
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "--force", "solve"]) == 4
    report = open(os.path.join(out, "report.txt")).read()
    assert "status = breakdown" in report
    assert "converged" not in capsys.readouterr().out


def test_monitor_parameter_keys(tmp_path):
    """monitor.alpha and monitor.A reach the monitor test functions in the report rows."""
    cfg = write_cfg(tmp_path, CLOSED_FORM)
    tuned = write_cfg(tmp_path, CLOSED_FORM + "monitor.alpha = 3.5\nmonitor.A = 0.25\n",
                      "tuned.cfg")
    out1, out2 = str(tmp_path / "d"), str(tmp_path / "e")
    assert main(["--config", cfg, "--out", out1, "solve"]) == 0
    assert main(["--config", tuned, "--out", out2, "solve"]) == 0

    def last_row(out):
        lines = open(os.path.join(out, "report.txt")).read().splitlines()
        cols = next(l for l in lines if l.startswith("columns = ")).split()[2:]
        return dict(zip(cols, [l for l in lines if l.startswith("row = ")][-1].split()[2:]))

    a, b = last_row(out1), last_row(out2)
    assert a["phi_test_max"] != b["phi_test_max"] and a["p_test_max"] != b["p_test_max"]
    assert a["kappa_max"] == b["kappa_max"]           # geometry itself unchanged


def test_check_assumptions_command(tmp_path, capsys):
    good = write_cfg(tmp_path, CLOSED_FORM, "good.cfg")
    assert main(["--config", good, "check-assumptions"]) == 0
    bad = write_cfg(tmp_path, VIOLATES_OUTER, "bad.cfg")
    assert main(["--config", bad, "check-assumptions"]) == 3
    out = capsys.readouterr().out
    assert "margin" in out


def test_verify_geometry_command(tmp_path):
    cfg = write_cfg(tmp_path, """
warp.kind = euclidean
warp.domain = 0,10
verify.r_expr = 1 + 0.1*cos(th)
verify.n_theta = 64
verify.n_phi = 32
""")
    assert main(["--config", cfg, "verify-geometry"]) == 0


def test_verify_geometry_fail_path(tmp_path):
    cfg = write_cfg(tmp_path, """
warp.kind = euclidean
warp.domain = 0,10
verify.r_expr = 1 + 0.1*cos(th)
verify.n_theta = 64
verify.n_phi = 32
verify.tol_oracle = 1e-12
""")
    assert main(["--config", cfg, "verify-geometry"]) == 1


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


@pytest.mark.parametrize("command,name,code", [
    ("check-assumptions", "builtin_round", 0),
    ("check-assumptions", "closed_form", 0),
    ("check-assumptions", "hyperbolic_round", 0),
    ("check-assumptions", "perturbed_axisym", 0),
    ("check-assumptions", "violates_outer", 3),
    ("verify-geometry", "verify_geometry", 0),
    ("solve", "builtin_round", 0),
    ("solve", "closed_form", 0),
    ("solve", "hyperbolic_round", 0),
    ("solve", "perturbed_axisym", 0),
    ("solve", "violates_outer", 3),
])
def test_example_configs_run(tmp_path, command, name, code):
    cfg = os.path.join(CONFIGS, f"{name}.cfg")
    out = str(tmp_path / "o")
    assert main(["--config", cfg, "--out", out, command]) == code
    if command != "solve" or code != 0:
        return
    # geometry.csv is the geometry of solution.csv, column for column
    spec, mesh, _ = build_problem(parse_config(cfg))
    sol = np.loadtxt(os.path.join(out, "solution.csv"), delimiter=",", skiprows=1)
    geom = compute_geometry(mesh, ScalarField(mesh, sol[:, 2].reshape(mesh.shape)), spec.profile)
    cols = ("r", "v", "H", "kappa1", "kappa2", "mu1", "mu2", "tau")
    expected = np.column_stack([sol[:, 0], sol[:, 1]] + [getattr(geom, c).ravel() for c in cols])
    geo_path = os.path.join(out, "geometry.csv")
    assert open(geo_path).readline() == "theta,phi," + ",".join(cols) + "\n"
    assert np.array_equal(np.loadtxt(geo_path, delimiter=",", skiprows=1), expected)


def test_building_a_problem_does_not_import_scipy_optimize():
    """The package never loads scipy.optimize: the CLI's imports and
    build_problem leave it unloaded."""
    cfg = os.path.join(CONFIGS, "closed_form.cfg")
    code = ("import sys\n"
            "import prescurv.cli\n"
            "from prescurv.config import build_problem, parse_config\n"
            f"build_problem(parse_config({cfg!r}))\n"
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize imported'\n")
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr


def run_python(args):
    """Run the interpreter on args in a fresh process that imports this prescurv."""
    src = os.path.dirname(os.path.dirname(prescurv.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_selftest_command(capsys):
    assert main(["selftest"]) == 0
    assert "ok   jacobian-sparse-vs-dense" in capsys.readouterr().out


def test_python_m_prescurv_runs_the_cli():
    """`python -m prescurv selftest` from a source tree runs the CLI's selftest."""
    proc = run_python(["-m", "prescurv", "selftest"])
    assert proc.returncode == 0, proc.stderr
    assert "ok   jacobian-sparse-vs-dense" in proc.stdout


def test_sweep_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
warp.kind = euclidean
warp.domain = 0,10
mesh.n_theta = 32
mesh.n_phi = 16
problem.r1 = 0.5
problem.r2 = 2
phi.rm = 1.25
f.builtin = round_exponential
f.rm = 1.25
f.alpha = 1
""")
    out = str(tmp_path / "sweep")
    assert main(["--config", cfg, "--out", out, "sweep",
                 "--key", "f.alpha", "--values", "0.5,1,2"]) == 0
    reports = sorted(os.listdir(out))
    assert len(reports) == 3
    for sub in reports:
        text = open(os.path.join(out, sub, "report.txt")).read()
        assert "status = converged" in text


@pytest.mark.parametrize("mesh_lines,target", [
    ("mesh.n_theta = 64\nmesh.reduced = true", lambda th, ph: 1 + 0.05 * np.cos(th)),
    ("mesh.n_theta = 16\nmesh.n_phi = 8", lambda th, ph: (
        1 + 0.025 * (3 * np.cos(th) ** 2 - 1) + 0.04 * np.sin(th) ** 2 * np.cos(2 * ph))),
], ids=["reduced", "full-not-axisymmetric"])
def test_manufactured_csv_roundtrip(tmp_path, mesh_lines, target):
    """Write a target-field CSV, solve with f.manufactured in the hyperbolic warp."""
    from prescurv.config import build_mesh_from
    from prescurv.mesh import field_from_function
    from prescurv.report import write_field_csv

    target = field_from_function(build_mesh_from(parse_config(mesh_lines)), target)
    csv_path = str(tmp_path / "target.csv")
    write_field_csv(csv_path, target)

    cfg = write_cfg(tmp_path, f"""
warp.kind = hyperbolic
warp.domain = 0,10
{mesh_lines}
problem.r1 = 0.5
problem.r2 = 2
phi.rm = 1.0
f.manufactured = {csv_path}
solver.newton_tol = 1e-11
""")
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "solve"]) == 0
    # node targets make the target an exact discrete root
    assert np.abs(read_solution(out) - target.flat()).max() <= 1e-8


def test_manufactured_csv_shape_mismatch(tmp_path, capsys):
    from prescurv.mesh import ScalarField, build_mesh
    from prescurv.report import write_field_csv

    mesh = build_mesh(32, reduced=True)
    write_field_csv(str(tmp_path / "t.csv"), ScalarField(mesh, np.full(32, 1.0)))
    cfg = write_cfg(tmp_path, f"""
warp.kind = euclidean
warp.domain = 0,10
mesh.n_theta = 64
mesh.reduced = true
problem.r1 = 0.5
problem.r2 = 2
f.manufactured = {tmp_path}/t.csv
""")
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "solve"]) == 2
    assert "f.manufactured" in capsys.readouterr().err
