"""The example scripts import only names the package still provides, the
closed-form run prints its continuation trace and an exact final radius, and
the manufactured study's error falls by at least 12 per mesh doubling."""

import contextlib
import importlib.util
import io
import os

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # main() runs only under __main__
    return module


@pytest.mark.parametrize("name", ["closed_form_run", "manufactured_convergence", "compare_outputs"])
def test_script_imports(name):
    assert callable(load_script(name).main)


def test_closed_form_run_main_reports_the_exact_round_solution():
    """One trace row per accepted t-step, t = 0 to 1, then max|r - 1.25| = 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        load_script("closed_form_run").main()
    lines = buf.getvalue().strip().splitlines()
    rows = [line.split() for line in lines[1:] if line.strip()][:-1]
    assert [float(row[0]) for row in rows] == [round(0.1 * i, 4) for i in range(11)]
    assert lines[-1].startswith("final max|r - 1.25| = 0.000e+00 ")


def test_manufactured_convergence_main_converges_on_every_mesh():
    """Reduced 64 and 128, then full 16x8, 32x16 and 64x32: every row solves,
    and the error falls by at least 12 per doubling (16.0, 48.6 and 60.7
    measured)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        load_script("manufactured_convergence").main(["--resolutions", "64,128"])
    rows = [line for line in buf.getvalue().splitlines() if line.startswith("n=")]
    assert [row.split()[1] for row in rows] == ["64", "128", "16x8", "32x16", "64x32"]
    assert not any("breakdown" in row for row in rows)
    ratios = [float(row.split("ratio =")[1]) for row in rows if "ratio =" in row]
    assert len(ratios) == 3 and min(ratios) >= 12.0


ROUND_16X8 = """\
warp.kind = euclidean
warp.domain = 0,10
mesh.n_theta = 16
mesh.n_phi = 8
problem.r1 = 0.5
problem.r2 = 2
phi.rm = 1.25
f.expr = 1/r^2 * exp(1.25 - r)
"""


def test_compare_outputs_passes_equal_runs_and_fails_one_changed_byte(tmp_path):
    """Two solves of one config into two trees compare identical, though their
    report.txt timings and paths differ; one changed digit in solution.csv
    fails the comparison, which names the file and the value difference."""
    from prescurv.cli import main

    script = load_script("compare_outputs")
    cfg = tmp_path / "round.cfg"
    cfg.write_text(ROUND_16X8)
    for side in ("a", "b"):
        out = tmp_path / side / "round"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["--config", str(cfg), "--out", str(out), "solve"])
        (out / "exit_code").write_text(f"{code}\n")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert script.compare(str(tmp_path / "a"), str(tmp_path / "b"))
    lines = buf.getvalue().splitlines()
    assert lines == [f"round/{name}: identical" for name in script.FILES]

    solution = tmp_path / "b" / "round" / "solution.csv"
    text = solution.read_text()
    assert text.endswith(",1.25\n")
    solution.write_text(text[:-2] + "6\n")  # the last node reads 1.26
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert not script.compare(str(tmp_path / "a"), str(tmp_path / "b"))
    assert "round/solution.csv: max |diff| = 1.000e-02" in buf.getvalue().splitlines()
    assert "round/geometry.csv: identical" in buf.getvalue().splitlines()
