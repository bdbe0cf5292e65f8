"""The closed-loop runner: output bookkeeping across untraced and traced solves."""

import os

from checks import Tally, csv_bytes
from layers import layer_metrics
from run import Runner
from tracing import Tracer
from workloads import make_case


def test_bytes_written_is_one_solves_csvs(tmp_path):
    case = make_case("round_io", 3, str(tmp_path / "input"))
    runner = Runner(case, str(tmp_path / "out"))
    untraced = runner.loop(0.0, 2)
    tracer = Tracer()
    traced = runner.loop(0.0, 1, tracer)
    assert (len(untraced), len(traced)) == (2, 1)
    assert (runner.tally.attempted, runner.tally.failed) == (3, 0)
    one_solve = csv_bytes(str(tmp_path / "out" / "solve-000000"))
    assert runner.tally.bytes == one_solve
    metrics = layer_metrics(tracer.arrays(), tracer.results, case.n_nodes, traced, untraced,
                            runner.tally.bytes)
    assert metrics["report.bytes_written"] == (one_solve, "bytes")


def test_error_raised_by_a_check_fails_the_solve(tmp_path):
    case = make_case("sphere2d", 1, str(tmp_path / "input"))
    out = tmp_path / "out"
    os.makedirs(out)
    # a radius outside warp.domain: the oracle path raises DomainViolation
    (out / "solution.csv").write_text(
        "theta,phi,value\n" + "0.1,0.0,20.0\n" * case.n_nodes)
    tally = Tally(case)
    tally.record(str(out), 0, None)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "DomainViolation" in tally.messages[0]
