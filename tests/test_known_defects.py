"""Known defects, each a strict xfail: the change that mends one turns its case
into a pass, and the marker goes with it (see ROADMAP.md)."""

import os

import numpy as np
import pytest

from prescurv.cli import main
from prescurv.geometry import compute_geometry
from prescurv.mesh import build_mesh, field_from_flat
from prescurv.problem import check_assumptions, parse_f, threshold
from prescurv.solver import jacobian_sparse
from prescurv.warp import WarpProfile
from closed_form import EUCLID, closed_form_spec, round_exponential
from test_report import CONFIGS

RM, ALPHA, T = 1.25, -0.3, 0.5


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP items 2 and 14: the pole-row FD step misses the closed-form "
                          "eigenvalue of J (3.1e-8 at 16x8 up to 9.5e-3 at 64x32)")
@pytest.mark.parametrize("shape", [(16, 8), (32, 16), (64, 32)], ids=["16x8", "32x16", "64x32"])
@pytest.mark.parametrize("profile", [EUCLID, WarpProfile("hyperbolic", (0.0, 10.0))],
                         ids=["euclidean", "hyperbolic"])
def test_jacobian_meets_the_round_eigenvalue(profile, shape):
    """The round exponential f = (dlam/lam)^2 exp(alpha (rm - r)) with phi.rm = rm has
    the root r = rm for every t, and there the constant vector is an
    eigenvector of J: J 1 = zeta(rm)^2 (t alpha + (1 - t) c), to rounding,
    with c = 1 the rate of the barrier weight phi = exp(rm - r)."""
    spec = closed_form_spec(profile=profile, f=round_exponential(RM, ALPHA), phi_rm=RM)
    mesh = build_mesh(*shape)
    geom = compute_geometry(mesh, field_from_flat(mesh, np.full(mesh.n_nodes, RM)), profile)
    jac = jacobian_sparse(spec, T, geom)
    eigenvalue = threshold(*profile.eval_lambda(RM)) * (T * ALPHA + (1.0 - T) * 1.0)
    norm_inf = float(abs(jac).sum(axis=1).max())
    miss = float(np.abs(jac @ np.ones(mesh.n_nodes) - eigenvalue).max())
    assert miss <= 4.0 * np.finfo(float).eps * norm_inf


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 15: 12 samples per axis pass a hypothesis that is "
                          "false between the samples")
@pytest.mark.parametrize("expr,check", [
    ("1/r^2*exp(1.25-r)*(1-0.9*exp(-4000*(th-0.2618)^2))", "inner_barrier"),
    ("1/r^2*exp(1.25-r)*(1+0.5*exp(-400*(r-1.3)^2-400*(th-1.0)^2))", "radial_monotonicity"),
], ids=["theta-dip-inner-barrier", "r-bump-monotonicity"])
def test_assumption_check_fails_a_false_hypothesis(expr, check):
    """On the headline's annulus, a dense scan refutes each: the inner margin
    reaches -0.788 at r = 0.5, th = 0.2618, and d/dr (lambda^2 f) reaches
    +7.17 near r = 1.26, th = 1.0."""
    result = getattr(check_assumptions(closed_form_spec(f=parse_f(expr))), check)
    assert not result.passed


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP items 2 and 3: the pole-row FD step makes the first Jacobian "
                          "build at 96x48 perturb a 2-jet out of the cone (exit 4), and the "
                          "roundoff floor then stalls Newton")
def test_headline_solves_at_96x48(tmp_path):
    """The 64x32 headline on the 96x48 mesh converges; today it exits 4 at
    t=0.0015625 with an AdmissibilityError (ConeViolation)."""
    cfg = os.path.join(CONFIGS, "headline96.cfg")
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "solve"]) == 0
