"""The seeded input generator yields admissible, reproducible inputs."""

import contextlib
import io
import math

import numpy as np
import pytest

from prescurv.cli import main
from prescurv.config import build_problem, parse_config
from workloads import R1, R2, WORKLOADS, make_case

SEEDS = range(0, 40, 3)


def _check_assumptions(config):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        return main(["--config", config, "check-assumptions"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("warmup", [False, True])
def test_generated_inputs_are_admissible(tmp_path, workload, warmup):
    for seed in SEEDS:
        case = make_case(workload, seed, str(tmp_path / f"{seed}"), warmup=warmup)
        assert _check_assumptions(case.config) == 0, (workload, seed)
        spec, mesh, _ = build_problem(parse_config(case.config))
        assert mesh.n_nodes == case.n_nodes
        if case.target:
            assert R1 < min(case.target) and max(case.target) < R2


def test_seed_ranges(tmp_path):
    for seed in SEEDS:
        amp = math.hypot(*make_case("sphere2d", seed, str(tmp_path / "s")).params.values())
        assert 0.019 <= amp <= 0.036
        p = make_case("custom_manufactured", seed, str(tmp_path / "c")).params
        assert 0.02 <= p["a"] <= 0.03 and 0.005 <= p["b"] <= 0.02
        rm = make_case("round_io", seed, str(tmp_path / "r")).params["rm"]
        assert 1.05 <= rm <= 1.45 and (rm * 256).is_integer()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_files(tmp_path, workload):
    a = make_case(workload, 7, str(tmp_path / "a"))
    b = make_case(workload, 7, str(tmp_path / "b"))
    c = make_case(workload, 8, str(tmp_path / "c"))
    text = lambda case: open(case.config).read().replace(str(tmp_path / "a"), "").replace(
        str(tmp_path / "b"), "").replace(str(tmp_path / "c"), "")
    assert text(a) == text(b) and a.params == b.params and a.target == b.target
    assert a.params != c.params


def test_custom_target_matches_mesh_nodes(tmp_path):
    case = make_case("custom_manufactured", 5, str(tmp_path))
    data = np.loadtxt(tmp_path / "target.csv", delimiter=",", skiprows=1)
    spec, mesh, _ = build_problem(parse_config(case.config))
    assert np.array_equal(data[:, 0], mesh.theta)
    assert np.array_equal(data[:, 2], np.asarray(case.target))


def test_unknown_workload(tmp_path):
    with pytest.raises(ValueError):
        make_case("nope", 1, str(tmp_path))


@pytest.mark.xfail(strict=True, reason="known defect: roundoff at the pole rows of a 128x64 mesh "
                   "puts the exact round solution's residual above newton_tol, and the dense FD "
                   "Jacobian cannot recover; round_io therefore draws rm on a 1/256 grid")
def test_round_case_with_decimal_radius_solves(tmp_path):
    case = make_case("round_io", 0, str(tmp_path))
    text = open(case.config).read().replace(repr(case.params["rm"]), "1.4317")
    cfg = tmp_path / "decimal.cfg"
    cfg.write_text(text)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "solve"])
    assert code == 0
