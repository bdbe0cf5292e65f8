"""The example scripts import only names the package still provides, the
manufactured study's error falls by at least 12 per mesh doubling, and the
output comparison tells equal runs from runs that differ."""

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


@pytest.mark.parametrize("name", ["manufactured_convergence", "compare_outputs"])
def test_script_imports(name):
    assert callable(load_script(name).main)


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


def solve_into_two_trees(script, tmp_path):
    """Solve ROUND_16X8 into tmp_path/a/round and tmp_path/b/round, recorded as the script does."""
    from prescurv.cli import main

    cfg = tmp_path / "round.cfg"
    cfg.write_text(ROUND_16X8)
    for side in ("a", "b"):
        out = tmp_path / side / "round"
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = main(["--config", str(cfg), "--out", str(out), "solve"])
        assert str(out) in printed.getvalue()
        script.record(str(out), code, printed.getvalue())


def test_compare_outputs_passes_equal_runs_and_fails_one_changed_byte(tmp_path):
    """Two solves of one config into two trees compare identical, though their
    report.txt timings and paths, and the paths they print, differ; one changed
    digit in solution.csv fails the comparison, which names the file and the
    value difference, and so do a changed count and a changed word in what a
    run printed, with the first differing line of output.txt from each tree."""
    script = load_script("compare_outputs")
    solve_into_two_trees(script, tmp_path)
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
    assert "round/output.txt: identical" in buf.getvalue().splitlines()

    output = tmp_path / "b" / "round" / "output.txt"
    printed = output.read_text()
    assert printed.endswith(" newton_iters=0 jacobians=0 residual=0.000e+00 -> <out>\n")
    output.write_text(printed.replace("newton_iters=0 jacobians=0", "newton_iters=3 jacobians=1"))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert not script.compare(str(tmp_path / "a"), str(tmp_path / "b"))
    lines = buf.getvalue().splitlines()
    at = lines.index("round/output.txt: max |diff| = 3.000e+00")
    assert lines[at + 1:at + 3] == [
        "  a: converged: t=1 newton_iters=0 jacobians=0 residual=0.000e+00 -> <out>",
        "  b: converged: t=1 newton_iters=3 jacobians=1 residual=0.000e+00 -> <out>"]

    output.write_text(printed.replace("converged:", "breakdown:"))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert not script.compare(str(tmp_path / "a"), str(tmp_path / "b"))
    lines = buf.getvalue().splitlines()
    at = next(i for i, line in enumerate(lines)
              if line.startswith("round/output.txt: differs at line "))
    assert [line[:16] for line in lines[at + 1:at + 3]] == ["  a: converged: ", "  b: breakdown: "]


def test_compare_outputs_prints_the_first_differing_line_of_report_txt(tmp_path):
    """A changed count in report.txt prints the largest difference and the
    first differing line of report.txt from each tree, [timings] left out."""
    script = load_script("compare_outputs")
    solve_into_two_trees(script, tmp_path)
    report = tmp_path / "b" / "round" / "report.txt"
    text = report.read_text()
    assert "\nrow = 0.1 0 0 " in text
    report.write_text(text.replace("\nrow = 0.1 0 0 ", "\nrow = 0.1 2 0 "))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert not script.compare(str(tmp_path / "a"), str(tmp_path / "b"))
    lines = buf.getvalue().splitlines()
    at = lines.index("round/report.txt: max |diff| = 2.000e+00")
    assert [line[:17] for line in lines[at + 1:at + 3]] == ["  a: row = 0.1 0 ",
                                                             "  b: row = 0.1 2 "]
    assert "round/output.txt: identical" in lines


def test_compare_outputs_runs_each_tree_on_its_own_configs(tmp_path):
    """A config rewritten in one tree runs there as written: the comparison of
    two trees whose round.cfg differs in its mesh fails, and report.txt's
    first differing line is that key."""
    script = load_script("compare_outputs")
    src = os.path.join(os.path.dirname(SCRIPTS), "src")
    for side, n_phi in (("a", "8"), ("b", "4")):
        tree = tmp_path / side
        (tree / "configs").mkdir(parents=True)
        (tree / "src").symlink_to(src, target_is_directory=True)
        (tree / "configs" / "round.cfg").write_text(
            ROUND_16X8.replace("mesh.n_phi = 8", f"mesh.n_phi = {n_phi}"))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = script.main([str(tmp_path / "a"), str(tmp_path / "b"),
                            "--work", str(tmp_path / "work")])
    lines = buf.getvalue().splitlines()
    assert code == 1 and lines[-1] == "outputs differ"
    assert "round/solution.csv: differs in length: 129 vs 65 lines" in lines
    at = lines.index("round/report.txt: max |diff| = 4.000e+00")
    assert lines[at + 1:at + 3] == ["  a: mesh.n_phi = 8", "  b: mesh.n_phi = 4"]
