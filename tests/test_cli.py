import json
import os
import platform
import re
import subprocess
import sys

import numpy as np
import pytest

import prescurv
from prescurv import cli, geometry, report, solver
from prescurv.cli import main
from prescurv.config import build_problem, parse_config
from prescurv.errors import AdmissibilityError, ConfigError, NewtonFailure
from prescurv.geometry import compute_geometry
from prescurv.mesh import ScalarField
from prescurv.selftest import CHECKS
from test_report import GEOMETRY_COLS, node_columns, rowwise_csv

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


def set_keys(text, lines):
    """The config text, each `key = value` line of lines in place of its key's line or appended."""
    for line in filter(None, lines.splitlines()):
        old = re.search(rf"^{re.escape(line.partition(' = ')[0])} = .*$", text, re.M)
        text = text[:old.start()] + line + text[old.end():] if old else text + line + "\n"
    return text


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


def target_csv_cfg(tmp_path, text):
    """A reduced 32-node config whose target CSV is text."""
    csv_path = tmp_path / "target.csv"
    csv_path.write_text(text)
    return VIOLATES_INNER.replace("f.expr = 0.5/r^2", f"f.manufactured = {csv_path}")


def two_column_target_cfg(tmp_path):
    """A target CSV that lacks the value column."""
    return target_csv_cfg(tmp_path, "theta,phi\n" + "0.1,0.0\n" * 32)


def target_cfg_without_rows(tmp_path):
    """A target CSV with its header and no rows."""
    return target_csv_cfg(tmp_path, "theta,phi,value\n")


def test_target_csv_without_rows_is_one_line_on_stderr(tmp_path):
    """No numpy warning reaches stderr: the one line names the row count."""
    cfg = write_cfg(tmp_path, target_cfg_without_rows(tmp_path))
    proc = run_python(["-m", "prescurv", "--config", cfg, "--out", str(tmp_path / "o"), "solve"])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("config error: target CSV has 0 rows, mesh has 32 nodes "
                           "(key: f.manufactured)\n")
    assert not os.path.exists(tmp_path / "o")


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
    (lambda tmp: CLOSED_FORM + "phi.c = 1.0\n", "phi.c"),
    (lambda tmp: CLOSED_FORM + "phi.c = -1.0\n", "phi.c"),
    (lambda tmp: CLOSED_FORM + "phi.c = inf\n", "phi.c"),
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
    (lambda tmp: CLOSED_FORM + "solver.max_newton = 30\n", "solver.max_newton"),
    (lambda tmp: CLOSED_FORM + "solver.max_newton = 99999999999999999999\n", "solver.max_newton"),
    (lambda tmp: CLOSED_FORM + "solver.t_step_min = 1e-3\n", "solver.t_step_min"),
    (lambda tmp: CLOSED_FORM + "solver.t_step_init = 1e-4\n", "solver.t_step_init"),
    (lambda tmp: CLOSED_FORM.replace("mesh.n_theta = 32", "mesh.n_theta = 99999999999999999999"),
     "mesh.n_theta"),
    (lambda tmp: CLOSED_FORM.replace("mesh.n_phi = 16", "mesh.n_phi = 9223372036854775808"),
     "mesh.n_phi"),
    (lambda tmp: CLOSED_FORM.replace("mesh.n_phi = 16", "mesh.n_phi = 5"), "mesh.n_phi"),
    (lambda tmp: CLOSED_FORM.replace("warp.kind = euclidean",
                                     "warp.kind = custom\nwarp.coeffs = 0,x"), "warp.coeffs"),
    (lambda tmp: CLOSED_FORM.replace("warp.kind = euclidean",
                                     "warp.kind = custom\nwarp.coeffs = nan,1"), "warp.coeffs"),
    (lambda tmp: CLOSED_FORM.replace("warp.domain = 0,10", "warp.domain = 3,1"), "warp.domain"),
    (lambda tmp: CLOSED_FORM.replace("problem.r2 = 2", "problem.r2 = 0.5"), "problem.r1"),
    (lambda tmp: CLOSED_FORM + "f.rm = nan\n", "f.rm"),
    (lambda tmp: CLOSED_FORM + "solver.newton_tl = 1e-9\n", "solver.newton_tl"),
    (lambda tmp: CLOSED_FORM + "solver.jacobian_fd_scale = 1e-8\n", "solver.jacobian_fd_scale"),
    (lambda tmp: CLOSED_FORM + "monitor.gamma_arg = r\n", "monitor.gamma_arg"),
    (lambda tmp: CLOSED_FORM + "check.samples = 12\n", "check.samples"),
    (lambda tmp: CLOSED_FORM + "monitor.alpha = 1.0\n", "monitor.alpha"),
    (lambda tmp: CLOSED_FORM + "monitor.A = 1.0\n", "monitor.A"),
    (lambda tmp: CLOSED_FORM + "mesh.n_theta = 16\n", "mesh.n_theta"),
    (lambda tmp: CLOSED_FORM + "solver.newton_tol =\n", "solver.newton_tol"),
    (lambda tmp: CLOSED_FORM.replace("problem.r1 = 0.5\n", ""), "problem.r1"),
    (lambda tmp: CLOSED_FORM.replace("problem.r1 = 0.5", "problem.r1 = abc"), "problem.r1"),
    (lambda tmp: CLOSED_FORM + "mesh.reduced = maybe\n", "mesh.reduced"),
    (lambda tmp: CLOSED_FORM.replace("warp.domain = 0,10", "warp.domain = 0;10"), "warp.domain"),
    (two_column_target_cfg, "f.manufactured"),
    (lambda tmp: CLOSED_FORM + "f.manufactured = target.csv\n", "f.expr"),
    (lambda tmp: CLOSED_FORM.replace("f.expr = 1/r^2 * exp(1.25 - r)\n", ""), "f.expr"),
    (lambda tmp: CLOSED_FORM.replace("f.expr = 1/r^2 * exp(1.25 - r)",
                                     "f.builtin = round_gaussian"), "f.builtin"),
    (lambda tmp: CLOSED_FORM.replace("f.expr = 1/r^2 * exp(1.25 - r)",
                                     "f.expr = 1e400*0 + 1/r^2"), "f.expr"),
], ids=["k-above-dimension", "phi-rm-outside-annulus", "unknown-key-phi-c",
        "phi-c-negative", "phi-c-inf",
        "annulus-outside-domain", "target-not-numeric", "target-nan", "target-outside-annulus",
        "target-leaves-cone", "target-phi-column-wrong", "l-above-k-minus-2",
        "t-step-inf",
        "t-step-nan", "newton-tol-nan", "unknown-key-max-newton", "unknown-key-max-newton-huge",
        "unknown-key-t-step-min", "t-step-below-its-floor", "n-theta-past-numpy",
        "n-phi-past-int64", "n-phi-odd", "coeffs-not-numeric",
        "coeffs-nan", "domain-reversed", "r1-equals-r2",
        "builtin-rm-nan", "unknown-key-typo", "unknown-key-fd-scale", "unknown-key-gamma-arg",
        "unknown-key-check-samples", "unknown-key-monitor-alpha", "unknown-key-monitor-A",
        "key-set-twice", "empty-value", "missing-required-key", "r1-not-numeric",
        "reduced-not-boolean", "domain-malformed", "target-two-columns", "f-expr-and-manufactured",
        "no-f", "unknown-builtin", "f-expr-number-overflows"])
def test_solve_config_errors_exit_2(tmp_path, capsys, make_cfg, key):
    cfg = write_cfg(tmp_path, make_cfg(tmp_path))
    out = str(tmp_path / "o")
    assert main(["--config", cfg, "--out", out, "solve"]) == 2
    captured = capsys.readouterr()
    assert f"(key: {key})" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == "" and not os.path.exists(out)  # rejected before anything is written


def test_a_key_set_twice_names_both_lines():
    with pytest.raises(ConfigError, match=r"^line 3: mesh\.n_theta is already set on line 1$"):
        parse_config("mesh.n_theta = 64\nmesh.n_phi = 32\nmesh.n_theta = 16\n")


@pytest.mark.parametrize("command,line,key", [
    (["check-assumptions"], "check.samples = 12", "check.samples"),
    (["check-assumptions"], "phi.c = 1.0", "phi.c"),
    (["verify-geometry"], "verify.n_theta = 4", "verify.n_theta"),
    (["verify-geometry"], "verify.n_phi = 64", "verify.n_phi"),
    (["verify-geometry"], "verify.tol_oracle = 1e-5", "verify.tol_oracle"),
    (["verify-geometry"], "verify.tol_identities = 1e-4", "verify.tol_identities"),
    (["verify-geometry"], "warp.kind = custom\nwarp.coeffs = 0,1", "warp.kind"),
    (["verify-geometry"], "verify.r_expr = 1 + log(th - 1)", "verify.r_expr"),
    (["verify-geometry"], "verify.r_expr = 1 + foo(th)", "verify.r_expr"),
    (["verify-geometry"], "verify.r_expr = 2 + r", "verify.r_expr"),
    (["verify-geometry"], "verify.r_expr = 20", "verify.r_expr"),
    (["verify-geometry"], "verify.r_expr = 0", "verify.r_expr"),
    (["verify-geometry"], "verify.r_expr = " + "(" * 300 + "1" + ")" * 300, "verify.r_expr"),
    (["verify-geometry"], "verify.r_expr = 1 + 1/1e400", "verify.r_expr"),
    (["check-assumptions"], "f.expr = 1e400", "f.expr"),
    (["sweep", "--key", "solver.newton_tl", "--values", "1e-9,1e-11"], "", "solver.newton_tl"),
    (["sweep", "--key", "phi.rm", "--values", "1.25,2.5"], "", "phi.rm"),
    (["sweep", "--key", "phi.c", "--values", "1,2"], "", "phi.c"),
], ids=["unknown-key-check-samples", "check-unknown-key-phi-c", "unknown-key-verify-n-theta",
        "unknown-key-verify-n-phi", "unknown-key-verify-tol-oracle",
        "unknown-key-verify-tol-identities", "verify-custom-warp", "verify-r-expr-non-finite",
        "verify-r-expr-unparsed",
        "verify-r-expr-reads-r", "verify-r-expr-outside-domain", "verify-r-expr-lambda-zero",
        "verify-r-expr-too-deep", "verify-r-expr-number-overflows", "check-f-expr-number-overflows",
        "sweep-key-typo", "sweep-later-value-invalid", "sweep-unknown-key-phi-c"])
def test_subcommand_config_errors_exit_2(tmp_path, capsys, command, line, key):
    """Each case sets its keys once, so it exits 2 at its own check: the custom
    warp at verify-geometry's refusal, not at a warp.kind set twice."""
    cfg = write_cfg(tmp_path, set_keys(CLOSED_FORM, line))
    out = str(tmp_path / "o")
    assert main(["--config", cfg, "--out", out] + command) == 2
    captured = capsys.readouterr()
    assert f"(key: {key})" in captured.err and "already set" not in captured.err
    if line.startswith("warp.kind = custom"):
        assert ("verify-geometry checks hold on a builtin space-form warp only, "
                "not on a custom one (key: warp.kind)") in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""  # rejected before any check or solve reports
    assert not os.path.exists(out)  # rejected before any solve


@pytest.mark.parametrize("key,values", [("warp.domain", "0,10"), ("warp.coeffs", "0,1,0,0.5")])
def test_sweep_refuses_a_comma_list_key(tmp_path, capsys, key, values):
    """--values splits on commas, so a key whose value is itself a comma list
    cannot be swept: exit 2 naming why, nothing written."""
    cfg = write_cfg(tmp_path, CLOSED_FORM)
    out = str(tmp_path / "o")
    assert main(["--config", cfg, "--out", out, "sweep", "--key", key, "--values", values]) == 2
    captured = capsys.readouterr()
    assert (f"sweep cannot vary {key}: its value is a comma list, and --values splits on "
            f"commas (key: {key})") in captured.err
    assert captured.out == "" and not os.path.exists(out)


def test_a_warp_domain_below_zero_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, set_keys(CLOSED_FORM, "warp.domain = -1,10"))
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "solve"]) == 2
    assert "domain must lie in r >= 0 (key: warp.domain)" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("f.builtin", "round_exponential"), ("f.rm", "1.25"),
                                       ("f.alpha", "1")])
@pytest.mark.parametrize("command", ["solve", "check-assumptions", "sweep"])
def test_removed_round_exponential_keys_exit_2(tmp_path, capsys, command, key, value):
    """The round exponential is the expression (dlam/lam)^2 * exp(alpha*(rm - r)): its old keys
    are unknown in a config and as a sweep's key, and nothing is written."""
    text, args = CLOSED_FORM + f"{key} = {value}\n", [command]
    if command == "sweep":
        text, args = CLOSED_FORM, ["sweep", "--key", key, "--values", f"{value},2"]
    out = str(tmp_path / "o")
    assert main(["--config", write_cfg(tmp_path, text), "--out", out] + args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: unknown config key {key!r} (key: {key})\n"
    assert captured.out == "" and not os.path.exists(out)


@pytest.mark.parametrize("args", [
    ["--config", "{cfg}", "--out", "{out}", "solve"],
    ["--out", "{out}", "solve"],
    ["--config", "{cfg}", "--out", "{out}", "sweep", "--key", "solver.t_step_init"],
    ["--config", "{cfg}", "--out", "{out}", "sweep", "--key", "solver.t_step_init",
     "--values", ","],
], ids=["line-without-equals", "solve-without-config", "sweep-without-values",
        "sweep-values-empty"])
def test_keyless_config_errors_exit_2(tmp_path, capsys, args):
    """A config error that names no key: exit 2, one 'config error:' line, nothing written."""
    cfg = write_cfg(tmp_path, CLOSED_FORM + "mesh.reduced\n" if "solve" in args else CLOSED_FORM)
    out = str(tmp_path / "o")
    assert main([arg.format(cfg=cfg, out=out) for arg in args]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and "(key:" not in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == "" and not os.path.exists(out)


REDUCED_16 = VIOLATES_OUTER.replace("mesh.n_theta = 32", "mesh.n_theta = 16").replace(
    "f.expr = 3/r^2", "f.expr = {expr}")
ROUND_F = "1/r^2 * exp(1.25 - r)"


@pytest.mark.parametrize("expr", ["(" * 300 + ROUND_F + ")" * 300, "-" * 984 + ROUND_F],
                         ids=["parentheses-300", "unary-minus-984"])
@pytest.mark.parametrize("command", [["solve"], ["check-assumptions"], [
    "sweep", "--key", "solver.t_step_init", "--values", "0.1,0.2"]],
                         ids=["solve", "check-assumptions", "sweep"])
def test_deeply_nested_f_expr_is_a_config_error(tmp_path, capsys, expr, command):
    """Nesting past MAX_DEPTH is a parse error where the bound is passed: exit 2
    naming f.expr, not a RecursionError from the parser or from evaluating f."""
    cfg = write_cfg(tmp_path, REDUCED_16.format(expr=expr))
    out = str(tmp_path / "o")
    assert main(["--config", cfg, "--out", out] + command) == 2
    captured = capsys.readouterr()
    assert captured.err == ("config error: f.expr: nested deeper than 100 levels "
                            "(at position 100) (key: f.expr)\n")
    assert captured.out == "" and not os.path.exists(out)


@pytest.mark.parametrize("expr", ["-" * 48 + "(" * 51 + ROUND_F + ")" * 51,
                                  ROUND_F + " * " + "exp(0 + 0*1^" * 100 + "r" + ")" * 100],
                         ids=["unary-minus-and-parentheses", "calls-in-chains"])
def test_f_expr_nested_at_the_bound_solves(tmp_path, expr):
    """MAX_DEPTH levels, exp( among them, solve to the bytes of the same f written flat."""
    for name, text in (("flat", ROUND_F), ("deep", expr)):
        cfg = write_cfg(tmp_path, REDUCED_16.format(expr=text), f"{name}.cfg")
        assert main(["--config", cfg, "--out", str(tmp_path / name), "solve"]) == 0
    for csv in ("solution.csv", "geometry.csv", "monitor.csv"):
        assert (tmp_path / "flat" / csv).read_bytes() == (tmp_path / "deep" / csv).read_bytes()


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
    for command in (["solve"], ["sweep", "--key", "solver.t_step_init", "--values", "0.1,0.2"]):
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
    """The CLI's gate is the solver's own check: a prescription it rejects (f
    below the threshold at some r <= r1 here) exits 3 with the margins table,
    and --force, which both honour, runs it to convergence."""
    cfg = write_cfg(tmp_path, CLOSED_FORM.replace("mesh.n_theta = 32", "mesh.n_theta = 16")
                    .replace("mesh.n_phi = 16", "mesh.n_phi = 4")
                    .replace("exp(1.25 - r)", "exp(1.25 - r) * (1 + 0.6*cos(ph))"))
    report_txt = os.path.join(tmp_path, "out", "report.txt")
    for flags, code, status in (([], 3, "assumption-fail"), (["--force"], 0, "converged")):
        assert main(["--config", cfg, "--out", str(tmp_path / "out")] + flags + ["solve"]) == code
        assert "inner_barrier" in capsys.readouterr().out  # margins table printed
        assert open(report_txt).read().startswith(f"status = {status}")


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


def test_solve_out_of_memory_writes_error_report(tmp_path, capsys, monkeypatch):
    """Memory running out in a solve (a mesh too large for the machine) ends
    like a typed error: report.txt with status = error, exit 1, no traceback."""
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)")

    monkeypatch.setattr(cli, "continuation_solve", out_of_memory)
    out = tmp_path / "out"
    assert main(["--config", write_cfg(tmp_path, CLOSED_FORM), "--out", str(out), "solve"]) == 1
    message = "out of memory: Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == f"error: {message}"
    assert captured.err == ""
    assert (out / "report.txt").read_text().startswith(f"status = error\nmessage = {message}\n")
    assert (out / "monitor.csv").read_text() == "t,r_min,r_max,tau_min,grad_max,kappa_max\n"


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


@pytest.mark.parametrize("blocked", ["solution.csv", "report.txt", "out-dir"])
def test_unwritable_output_is_a_typed_error(tmp_path, blocked):
    """A directory where solution.csv or report.txt goes, or an --out whose
    name is too long to create, exits 1 with 'cannot write <path>: <reason>',
    never a traceback.  A CSV that cannot be written makes report.txt's
    status error, and the other files are still written."""
    cfg = write_cfg(tmp_path, CLOSED_FORM)
    out = tmp_path / ("o" * 300 if blocked == "out-dir" else "out")
    if blocked != "out-dir":
        (out / blocked).mkdir(parents=True)
    proc = run_python(["-m", "prescurv", "--config", cfg, "--out", str(out), "solve"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    path = out if blocked == "out-dir" else out / blocked
    reason = "File name too long" if blocked == "out-dir" else "Is a directory"
    message = f"cannot write {path}: {reason}"
    if blocked == "solution.csv":
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[-1] == f"error: {message}"
        text = (out / "report.txt").read_text()
        assert text.startswith(f"status = error\nmessage = {message}\n")
        assert "solution_csv =" not in text and "geometry_csv =" in text
        assert (out / "geometry.csv").is_file() and (out / "monitor.csv").is_file()
    else:
        assert proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"
    if blocked == "report.txt":
        assert all((out / name).is_file()
                   for name in ("solution.csv", "geometry.csv", "monitor.csv"))


def test_sweep_goes_on_past_a_value_it_cannot_write(tmp_path):
    cfg = write_cfg(tmp_path, CLOSED_FORM)
    out = tmp_path / "sweep"
    first, second = out / "solver_t_step_init_0p1", out / "solver_t_step_init_0p2"
    (first / "report.txt").mkdir(parents=True)
    proc = run_python(["-m", "prescurv", "--config", cfg, "--out", str(out),
                       "sweep", "--key", "solver.t_step_init", "--values", "0.1,0.2"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: cannot write {first / 'report.txt'}: Is a directory\n"
    assert proc.stdout.splitlines() == ["solver.t_step_init=0.1: error",
                                        "solver.t_step_init=0.2: converged"]
    assert (second / "report.txt").read_text().startswith("status = converged")


def test_sweep_value_directory_taken_by_a_file_exits_2(tmp_path, capsys):
    """A regular file where a later value's run directory goes is a config
    error of the sweep, found before the first solve: nothing is written."""
    cfg = write_cfg(tmp_path, CLOSED_FORM)
    out = tmp_path / "sweep"
    out.mkdir()
    (out / "solver_t_step_init_0p2").write_text("not a directory\n")
    assert main(["--config", cfg, "--out", str(out), "sweep",
                 "--key", "solver.t_step_init", "--values", "0.1,0.2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: output path {out / 'solver_t_step_init_0p2'}:")
    assert sorted(os.listdir(out)) == ["solver_t_step_init_0p2"]


def test_report_times_the_csv_writes(tmp_path):
    """[timings] holds write_s, the wall time of writing the three CSVs."""
    cfg = write_cfg(tmp_path, CLOSED_FORM)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "solve"]) == 0
    lines = (out / "report.txt").read_text().splitlines()
    timings = lines[lines.index("[timings]") + 1:]
    assert [line.split(" = ")[0] for line in timings] == [
        "assumptions_s", "monitor_s", "solve_s", "total_s", "write_s"]
    assert float(timings[-1].split(" = ")[1]) >= 0.0


def test_round_solve_csvs_match_rowwise_bytes(tmp_path, monkeypatch):
    """A round full-mesh solve, its node CSVs written in blocks of three rings
    and a partial last block: solution.csv holds the final field and
    geometry.csv that field's geometry, byte for byte as the row writer."""
    monkeypatch.setattr(report, "CSV_CHUNK_ROWS", 48)
    finals = []

    def solve(*args, **kwargs):
        final, history = real_solve(*args, **kwargs)
        finals.append(final.r_field)
        return final, history

    real_solve = cli.continuation_solve
    monkeypatch.setattr(cli, "continuation_solve", solve)
    cfg = write_cfg(tmp_path, CLOSED_FORM)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "solve"]) == 0
    spec, mesh, _ = build_problem(parse_config(cfg))
    [final] = finals
    assert (mesh.n_theta, mesh.n_phi) == (32, 16)
    assert np.unique(final.values).size == 1  # round: every column is ring-constant
    geom = compute_geometry(mesh, final, spec.profile)
    assert (out / "solution.csv").read_bytes() == rowwise_csv(
        node_columns(mesh, ("value",), [final.values]))
    assert (out / "geometry.csv").read_bytes() == rowwise_csv(
        node_columns(mesh, GEOMETRY_COLS, [getattr(geom, c) for c in GEOMETRY_COLS]))


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


def test_main_builds_its_parser_once_and_looks_up_its_handlers_per_call(tmp_path, monkeypatch):
    """A cmd_* rebound after a first main call is the one the second call runs,
    and the process has built the parser once."""
    cfg = write_cfg(tmp_path, CLOSED_FORM)
    assert main(["--config", cfg, "check-assumptions"]) == 0
    monkeypatch.setattr(cli, "cmd_check_assumptions", lambda args: 7)
    assert main(["--config", cfg, "check-assumptions"]) == 7
    assert cli._parser.cache_info().misses == 1


BUILD_FAULTS = """
import resource, sys
import numpy as np
from prescurv.cli import main
from prescurv.config import build_problem, parse_config
from prescurv.geometry import compute_geometry
from prescurv.mesh import ScalarField
from prescurv.solver import jacobian_sparse
main(["--config", sys.argv[1], "check-assumptions"])
spec, mesh, _ = build_problem(parse_config(sys.argv[1]))
geom = compute_geometry(mesh, ScalarField(mesh, np.full(mesh.shape, 1.25)), spec.profile)
jacobian_sparse(spec, 0.5, geom)
for _ in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    jacobian_sparse(spec, 0.5, geom)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_after_a_main_call_repeated_builds_fault_in_no_fresh_pages():
    """Once main has run in a process, 64x32 Jacobian builds at the round state
    reuse the heap pages of the first: without that, glibc unmaps each freed
    temporary and every build faults some 400-1200 pages in again.  The median
    of five builds is read, because the heap may grow once more (about 100
    pages) at any one of them."""
    proc = run_python(["-c", BUILD_FAULTS, os.path.join(CONFIGS, "headline.cfg")])
    assert proc.returncode == 0, proc.stderr
    faults = [int(line) for line in proc.stdout.splitlines()[-5:]]
    assert sorted(faults)[2] < 50, faults


def test_check_assumptions_command(tmp_path, capsys):
    good = write_cfg(tmp_path, CLOSED_FORM, "good.cfg")
    assert main(["--config", good, "check-assumptions"]) == 0
    bad = write_cfg(tmp_path, VIOLATES_OUTER, "bad.cfg")
    assert main(["--config", bad, "check-assumptions"]) == 3
    out = capsys.readouterr().out
    assert "margin" in out


VERIFY = """
warp.kind = {kind}
warp.domain = 0,10
verify.r_expr = {r_expr}
"""


def run_verify(tmp_path, kind="euclidean", r_expr="1 + 0.1*cos(th)"):
    cfg = write_cfg(tmp_path, VERIFY.format(kind=kind, r_expr=r_expr))
    return main(["--config", cfg, "verify-geometry"])


def test_verify_geometry_command(tmp_path, capsys):
    assert run_verify(tmp_path) == 0
    out = capsys.readouterr().out
    assert_every_check_ok(out, ["embedding-oracle", "identity-refinement"], "verify-geometry")
    oracle, refinement = out.splitlines()[:2]  # selftest's fixed bounds
    assert oracle.endswith(", bound 1e-05]") and refinement.endswith(", bound 0.0001]")


def test_verify_geometry_skips_the_embedding_oracle_off_the_flat_warp(tmp_path, capsys):
    assert run_verify(tmp_path, "hyperbolic") == 0
    skip, _, rest = capsys.readouterr().out.partition("\n")
    assert skip == "-- embedding oracle skipped (needs the euclidean ambient)"
    assert_every_check_ok(rest, ["identity-refinement"], "verify-geometry")


SKIP_REFINEMENT = "-- identity refinement skipped (needs an axisymmetric verify.r_expr)"


def test_verify_geometry_fail_path(tmp_path, capsys):
    """A graph with 8 azimuthal waves misses the oracle's fixed bound on its
    fixed 128x64 mesh; it reads ph, so the refinement check is skipped."""
    assert run_verify(tmp_path, r_expr="1 + 0.1*sin(th)^2*cos(8*ph)") == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == SKIP_REFINEMENT
    assert lines[1].startswith("FAIL embedding-oracle  [rel err ")
    assert lines[1].endswith(", bound 1e-05]")
    assert lines[2:] == ["verify-geometry: 1 failure(s)"]


def test_verify_geometry_skips_the_refinement_on_a_graph_that_reads_ph(tmp_path, capsys):
    """The support and Codazzi identities hold on axisymmetric graphs only, and
    their reduced lines sample ph = 0: a graph reading ph runs the oracle alone."""
    assert run_verify(tmp_path, r_expr="1 + 0.3*sin(th)*cos(ph)") == 0
    out = capsys.readouterr().out
    skip, _, rest = out.partition("\n")
    assert skip == SKIP_REFINEMENT
    assert_every_check_ok(rest, ["embedding-oracle"], "verify-geometry")


def test_verify_geometry_refuses_a_graph_that_reads_ph_off_the_flat_warp(tmp_path, capsys):
    """Off the euclidean warp no check applies to a graph that reads ph: a config error."""
    assert run_verify(tmp_path, "hyperbolic", r_expr="1 + 0.1*sin(th)*cos(ph)") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: verify.r_expr reads ph: off the euclidean warp no check "
                            "applies to a graph that is not axisymmetric (key: verify.r_expr)\n")


def test_verify_geometry_runs_past_a_check_that_raises(tmp_path, capsys, monkeypatch):
    def raises(*args):
        raise AdmissibilityError("degenerate embedding")

    monkeypatch.setattr(geometry, "extrinsic_shape_operator", raises)
    assert run_verify(tmp_path) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "FAIL embedding-oracle  [AdmissibilityError: degenerate embedding]"
    assert lines[1].startswith("ok   identity-refinement  [refinement ratio ")
    assert lines[2:] == ["verify-geometry: 1 failure(s)"]


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


@pytest.mark.parametrize("expr,kind", [
    ("1/(th - th)", "non-finite"),
    ("log(th - 4)", "non-finite"),
    ("1/r^2*exp(1.25-r)*(1+0.03*sin(th)*cos(ph))^400000", "non-finite"),
    ("1/r^2*exp(1.25-r)*abs(sin(3*ph))", "non-positive"),
], ids=["zero-division", "log-of-negative", "overflow", "zero"])
def test_headline_with_a_failing_angular_factor_exits_1_naming_it(tmp_path, capsys, expr, kind):
    """An f whose angle-only part is not finite or not positive somewhere fails
    the 16x8 headline solve with exit 1 and the one line eval_f raises."""
    kept = [line for line in open(os.path.join(CONFIGS, "headline.cfg")).read().splitlines()
            if not line.startswith(("mesh.", "f.expr"))]
    text = "\n".join(kept + ["mesh.n_theta = 16", "mesh.n_phi = 8", f"f.expr = {expr}", ""])
    assert main(["--config", write_cfg(tmp_path, text), "--out", str(tmp_path / "o"), "solve"]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"error: prescribed function produced a {kind} value\n"
    assert captured.err == ""


@pytest.mark.parametrize("command,name,code", [
    ("check-assumptions", "builtin_round", 0),
    ("check-assumptions", "closed_form", 0),
    ("check-assumptions", "custom_warp", 0),
    ("check-assumptions", "headline96", 0),
    ("check-assumptions", "hyperbolic_round", 0),
    ("check-assumptions", "nu_weighted", 0),
    ("check-assumptions", "perturbed_axisym", 0),
    ("check-assumptions", "round128", 0),
    ("check-assumptions", "violates_outer", 3),
    ("verify-geometry", "verify_geometry", 0),
    ("solve", "builtin_round", 0),
    ("solve", "closed_form", 0),
    ("solve", "custom_warp", 0),
    ("solve", "headline", 0),
    ("solve", "hyperbolic_round", 0),
    ("solve", "nu_weighted", 0),
    ("solve", "perturbed_axisym", 0),
    ("solve", "round128", 0),
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


@pytest.mark.parametrize("factor,code", [
    ("nur^(-1)", 0), ("nur^(-4)", 0), ("nur^(-16)", 0), ("(1 + 2*nur^64)", 3),
], ids=["q1", "q4", "q16", "outer-broken-at-radial-normal"])
def test_barriers_read_f_at_the_radial_normal_only(tmp_path, factor, code):
    """The barriers are read at <nu, d_r> = 1: the 32x16 headline times
    nur^(-q) equals the headline there, and passes the check and solves
    without --force; an f that is 3 times the headline near <nu, d_r> = 1
    alone breaks the outer barrier there and exits 3 both ways."""
    headline = open(os.path.join(CONFIGS, "nu_weighted.cfg")).read()
    cfg = write_cfg(tmp_path, set_keys(headline, f"f.expr = 1/r^2*exp(1.25-r)*"
                                                 f"(1+0.03*sin(th)*cos(ph))*{factor}"))
    assert main(["--config", cfg, "check-assumptions"]) == code
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "solve"]) == code
    report = open(os.path.join(tmp_path, "o", "report.txt")).read()
    assert f"outer_barrier.passed = {str(code == 0).lower()}" in report
    for barrier in ("inner_barrier", "outer_barrier"):
        assert re.search(rf"^{barrier}\.worst_point = .*,1\.0$", report, re.M), barrier


def config_paths():
    return sorted(os.path.abspath(os.path.join(CONFIGS, name))
                  for name in os.listdir(CONFIGS) if name.endswith(".cfg"))


# In a fresh process, run cli.main on each argument list and print one line
# per run: its exit code, whether it printed jacobians=0, and which of
# numpy.polynomial, scipy, scipy.optimize and scipy.sparse.linalg are loaded;
# then check that every prescurv module kept its set of module-level names
# (selftest, which the CLI imports on first use, is imported first).
RUN_MAIN = """
import contextlib, io, json, sys
import prescurv.cli, prescurv.selftest
def names():
    return {m: sorted(vars(mod)) for m, mod in sys.modules.items()
            if m == 'prescurv' or m.startswith('prescurv.')}
before = names()
for args in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = prescurv.cli.main(args)
    watched = ('numpy.polynomial', 'scipy', 'scipy.optimize', 'scipy.sparse.linalg')
    print(json.dumps([code, 'jacobians=0' in out.getvalue(),
                      [m for m in watched if m in sys.modules]]))
assert names() == before, 'module-level names changed'
"""


def test_runs_that_build_no_jacobian_do_not_import_scipy(tmp_path):
    """No kind of run loads scipy or numpy.polynomial, even where scipy can be
    imported, and none rebinds a prescurv module-level name; each keeps its
    exit code.  The runs: solves that build a Jacobian (full, reduced, custom
    warp), round solves that build none, a refused solve, check-assumptions
    on every config (which imports the package and builds the config's
    problem), verify-geometry, selftest and a sweep."""
    cfgs = {os.path.basename(p)[:-4]: p for p in config_paths()}
    runs, expected = [], []
    for name in ("headline", "perturbed_axisym", "custom_warp"):
        runs.append(["--config", cfgs[name], "--out", str(tmp_path / name), "solve"])
        expected.append([0, False, []])
    for name in ("closed_form", "builtin_round", "hyperbolic_round"):
        runs.append(["--config", cfgs[name], "--out", str(tmp_path / name), "solve"])
        expected.append([0, True, []])
    runs.append(["--config", cfgs["violates_outer"], "--out", str(tmp_path / "v"), "solve"])
    expected.append([3, False, []])
    for name, path in cfgs.items():
        runs.append(["--config", path, "check-assumptions"])
        expected.append([{"violates_outer": 3, "verify_geometry": 2}.get(name, 0), False, []])
    runs.append(["--config", cfgs["verify_geometry"], "verify-geometry"])
    expected.append([0, False, []])
    runs.append(["selftest"])
    expected.append([0, False, []])
    runs.append(["--config", cfgs["custom_warp"], "--out", str(tmp_path / "sweep"), "sweep",
                 "--key", "phi.rm", "--values", "1.2,1.3"])
    expected.append([0, False, []])
    proc = run_python(["-c", RUN_MAIN, json.dumps(runs)])
    assert proc.returncode == 0, proc.stderr
    got = [json.loads(line) for line in proc.stdout.splitlines()]
    assert list(zip(runs, got)) == list(zip(runs, expected))


def test_a_jacobian_build_imports_scipy_and_rebinds_no_module_name(tmp_path):
    """The positive control of RUN_MAIN's columns: with BlockLU replaced by
    scipy's splu (the factor Newton used before it), a solve that builds a
    Jacobian loads scipy.sparse.linalg, and numpy.polynomial with it, but not
    scipy.optimize, and every prescurv module keeps its set of module-level
    names."""
    code = ("from prescurv import solver\n"
            "from prescurv.mesh import jet_operators\n"
            "def splu_factor(mesh, entries):\n"
            "    from scipy.sparse import csc_array\n"
            "    from scipy.sparse.linalg import splu\n"
            "    rows, cols, _ = jet_operators(mesh)\n"
            "    return splu(csc_array((entries, (rows, cols)), shape=(mesh.n_nodes,) * 2))\n"
            "solver.BlockLU = splu_factor\n"
            + RUN_MAIN)
    cfg = os.path.abspath(os.path.join(CONFIGS, "perturbed_axisym.cfg"))
    runs = [["--config", cfg, "--out", str(tmp_path / "o"), "solve"]]
    proc = run_python(["-c", code, json.dumps(runs)])
    assert proc.returncode == 0, proc.stderr
    loaded = ["numpy.polynomial", "scipy", "scipy.sparse.linalg"]
    assert json.loads(proc.stdout) == [0, False, loaded]


def run_python(args):
    """Run the interpreter on args in a fresh process that imports this prescurv."""
    src = os.path.dirname(os.path.dirname(prescurv.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def assert_every_check_ok(stdout, names=tuple(c.name for c in CHECKS), label="selftest"):
    """stdout has each named check ok, in order, then `<label>: 0 failure(s)`."""
    lines = stdout.splitlines()
    assert [line.split()[:2] for line in lines[:-1]] == [["ok", name] for name in names]
    assert lines[-1] == f"{label}: 0 failure(s)"


def test_selftest_command(capsys):
    assert main(["selftest"]) == 0
    assert_every_check_ok(capsys.readouterr().out)


def test_python_m_prescurv_runs_the_cli():
    """`python -m prescurv selftest` from a source tree runs the CLI's selftest."""
    proc = run_python(["-m", "prescurv", "selftest"])
    assert proc.returncode == 0, proc.stderr
    assert_every_check_ok(proc.stdout)


def test_sweep_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
warp.kind = euclidean
warp.domain = 0,10
mesh.n_theta = 32
mesh.n_phi = 16
problem.r1 = 0.5
problem.r2 = 2
phi.rm = 1.25
f.expr = (dlam/lam)^2 * exp(1.25 - r)
""")
    out = str(tmp_path / "sweep")
    alphas = [f"(dlam/lam)^2 * exp({alpha}*(1.25 - r))" for alpha in ("0.5", "1", "2")]
    assert main(["--config", cfg, "--out", out, "sweep",
                 "--key", "f.expr", "--values", ",".join(alphas)]) == 0
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
