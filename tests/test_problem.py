import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prescurv import problem
from prescurv.errors import AdmissibilityError, FEvalError, FParseError
from prescurv.geometry import compute_geometry
from prescurv.mesh import ScalarField, build_mesh, field_from_function
from prescurv.problem import (
    ManufacturedF,
    ProblemSpec,
    RoundExponentialF,
    blend_f_t,
    check_assumptions,
    eval_f,
    manufacture_f,
    parse_f,
    phi_value,
    threshold,
)
from prescurv.warp import WarpProfile
from test_solver import every_kind_of_f

EUCLID = WarpProfile.euclidean((0.0, 10.0))

# frozen closed-form margins for f = (1/r^2) exp(1.25 - r), r1 = 0.5, r2 = 2
INNER_MARGIN = 1.1170000166126747   # e^0.75 - 1, relative margin at r = r1
OUTER_MARGIN = 0.5276334472589853   # 1 - e^-0.75, relative margin at r = r2
MONO_MARGIN = -0.4723665527410147   # d/dr of r^2 f at its largest (r = r2)


def closed_form_spec(**kw):
    args = dict(profile=EUCLID, f=parse_f("1/r^2 * exp(1.25 - r)"),
                r1=0.5, r2=2.0, phi_rm=1.25, phi_c=1.0)
    args.update(kw)
    return ProblemSpec(**args)


# -- expression parsing --------------------------------------------------------

def test_parse_and_eval_basic():
    f = parse_f("1/r^2 * exp(1.25 - r)")
    assert float(eval_f(f, 1.25, 0.0, 0.0, 1.0)) == pytest.approx(0.64, rel=1e-15)
    f = parse_f("1/r^2 * (1 + 0.05*sin(th)*cos(ph))")
    got = float(eval_f(f, 2.0, np.pi / 2, 0.0, 1.0))
    assert got == pytest.approx(0.25 * 1.05, rel=1e-14)


def test_parse_grammar_shapes():
    assert float(parse_f("2^3").evaluate(1, 0, 0, 1)) == 8.0
    assert float(parse_f("-2^2").evaluate(1, 0, 0, 1)) == 4.0  # (-2)^2 per the grammar
    assert float(parse_f("2*3+4").evaluate(1, 0, 0, 1)) == 10.0
    assert float(parse_f("2+3*4").evaluate(1, 0, 0, 1)) == 14.0
    assert float(parse_f("nur").evaluate(1, 0, 0, 0.25)) == 0.25
    assert float(parse_f("sqrt(abs(0-4))").evaluate(1, 0, 0, 1)) == 2.0


def test_parse_errors_carry_positions():
    with pytest.raises(FParseError) as err:
        parse_f("foo(r)")
    assert "foo" in str(err.value) and err.value.position == 0
    with pytest.raises(FParseError):
        parse_f("r(1)")          # variable used as a function
    with pytest.raises(FParseError):
        parse_f("1 +")
    with pytest.raises(FParseError):
        parse_f("2^3^2")         # single optional exponent in the grammar
    with pytest.raises(FParseError):
        parse_f("(1 + r")
    with pytest.raises(FParseError):
        parse_f("x + 1")


def test_eval_rejects_nonpositive_and_nonfinite():
    with pytest.raises(FEvalError):
        eval_f(parse_f("r - 10"), 1.0, 0.0, 0.0, 1.0)
    with pytest.raises(FEvalError):
        eval_f(parse_f("log(r - 2)"), 1.0, 0.0, 0.0, 1.0)
    # constant sub-expressions follow numpy: overflow, 1/0 and a complex power are non-finite
    for text in ("10^400", "1/0", "1/r^2 * (1 + (0-1)^0.5)"):
        with pytest.raises(FEvalError):
            eval_f(parse_f(text), 1.0, 0.0, 0.0, 1.0)


def random_expression(rng, depth=0):
    """Random tree in the expression grammar plus an equivalent Python lambda."""
    leaves = [
        (lambda: (f"{rng.uniform(0.1, 3):.6g}", None)),
        (lambda: ("r", "r")),
        (lambda: ("th", "th")),
        (lambda: ("nur", "nur")),
    ]
    if depth >= 3 or rng.random() < 0.3:
        text, var = leaves[int(rng.integers(len(leaves)))]()
        return text, (text if var is None else var)
    roll = rng.random()
    if roll < 0.5:
        op = "+-*".__getitem__(int(rng.integers(3)))
        a, ea = random_expression(rng, depth + 1)
        b, eb = random_expression(rng, depth + 1)
        return f"({a} {op} {b})", f"({ea} {op} {eb})"
    if roll < 0.7:
        fn = ("sin", "cos", "exp", "sqrt", "abs")[int(rng.integers(5))]
        a, ea = random_expression(rng, depth + 1)
        inner = ea if fn != "sqrt" else f"abs({ea})"
        return (f"{fn}({a if fn != 'sqrt' else 'abs(' + a + ')'})",
                f"math.{fn}({inner})" if fn != "abs" else f"abs({inner})")
    a, ea = random_expression(rng, depth + 1)
    return f"({a})^2", f"({ea})**2"


def test_parser_against_python_eval_oracle():
    """Random grammar trees evaluate identically to a Python expression oracle."""
    rng = np.random.default_rng(99)
    env = {"math": math, "r": 1.3, "th": 0.7, "nur": 0.6}
    for _ in range(200):
        text, pyexpr = random_expression(rng)
        want = eval(pyexpr, env)  # noqa: S307 - test oracle over generated input
        got = float(parse_f(text).evaluate(1.3, 0.7, 0.0, 0.6))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


# -- builtin and threshold -------------------------------------------------------

def test_threshold_euclidean_is_inverse_square():
    for r in (0.5, 1.25, 3.0):
        assert threshold(*EUCLID.eval_lambda(r)) == pytest.approx(1.0 / r ** 2, rel=1e-14)


def test_round_exponential_matches_threshold_at_rm():
    f = RoundExponentialF(rm=1.25, alpha=1.0)
    got = float(eval_f(f, 1.25, 0.3, 0.2, 0.9, *EUCLID.eval_lambda(1.25)))
    assert got == pytest.approx(0.64, rel=1e-14)
    got = float(eval_f(f, 0.8, 0.0, 0.0, 1.0, *EUCLID.eval_lambda(0.8)))
    want = threshold(*EUCLID.eval_lambda(0.8)) * math.exp(1.25 - 0.8)
    assert got == pytest.approx(want, rel=1e-14)


def test_constant_expression():
    assert float(eval_f(parse_f("2"), 0.1, 1.0, 2.0, 0.5)) == 2.0


# -- homotopy blend and barrier weight -------------------------------------------

def graph_geometry(fn):
    mesh = build_mesh(16, 4)
    return compute_geometry(mesh, field_from_function(mesh, fn), EUCLID)


def blend(spec, t, geom):
    """blend_f_t at the nodes of geom's mesh."""
    return blend_f_t(spec, t, geom, geom.mesh.theta_grid(), geom.mesh.phi_grid())


def test_blend_endpoints():
    spec = closed_form_spec()
    geom = graph_geometry(lambda th, ph: 1.1 + 0.1 * np.cos(th) * np.sin(ph))
    mesh = geom.mesh
    f0 = phi_value(spec, geom.r) * threshold(*EUCLID.eval_lambda(geom.r))
    assert np.array_equal(blend(spec, 0.0, geom), f0)
    f1 = eval_f(spec.f, geom.r, mesh.theta_grid(), mesh.phi_grid(), geom.nu_r)
    assert np.array_equal(blend(spec, 1.0, geom), f1)
    at_rm = graph_geometry(lambda th, ph: np.full(th.shape, spec.phi_rm))
    np.testing.assert_allclose(blend(spec, 0.0, at_rm),
                               threshold(*EUCLID.eval_lambda(spec.phi_rm)), rtol=1e-15)  # phi(rm) = 1


@settings(max_examples=60)
@given(t=st.floats(min_value=0.0, max_value=1.0),
       r=st.floats(min_value=0.6, max_value=1.9))
def test_blend_affine_in_t(t, r):
    spec = closed_form_spec()
    geom = graph_geometry(lambda th, ph: r + 0.05 * np.cos(th) * np.cos(ph))
    f0, f1, ft = (blend(spec, s, geom) for s in (0.0, 1.0, t))
    np.testing.assert_allclose(ft, (1 - t) * f0 + t * f1, rtol=1e-13, atol=1e-13)


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        closed_form_spec(r1=2.5)
    with pytest.raises(ValueError):
        closed_form_spec(phi_rm=0.3)
    with pytest.raises(ValueError):
        closed_form_spec(phi_c=-1.0)
    with pytest.raises(ValueError):
        closed_form_spec(r2=12.0)  # outside the profile domain
    spec = closed_form_spec(phi_rm=None)
    assert spec.phi_rm == pytest.approx(1.25)


# -- manufactured prescriptions ---------------------------------------------------

def test_manufacture_constant_target():
    """Constant target: f = threshold(c) (lambda(c)/lambda(r))^(k-l), euclid c=1 -> 1/r^2."""
    mesh = build_mesh(64, reduced=True)
    spec = closed_form_spec()
    f = manufacture_f(spec, mesh, lambda th, ph: np.full_like(th, 1.0))
    for r in (0.7, 1.0, 1.6):
        got = float(eval_f(f, r, 0.8, 0.0, 0.9, *EUCLID.eval_lambda(r)))
        assert got == pytest.approx(1.0 / r ** 2, rel=1e-9)


def test_manufacture_rejects_bad_targets():
    mesh = build_mesh(64, reduced=True)
    spec = closed_form_spec()
    with pytest.raises(AdmissibilityError):
        manufacture_f(spec, mesh, lambda th, ph: np.full_like(th, 3.0))  # outside annulus
    with pytest.raises(AdmissibilityError):
        manufacture_f(spec, mesh, lambda th, ph: 1 + 0.3 * np.cos(2 * th))  # leaves the cone
    full = build_mesh(16, 8)  # a target of any shape manufactures on a full mesh
    f = manufacture_f(spec, full, lambda th, ph: 1 + 0.05 * np.sin(th) * np.cos(ph))
    assert f.q.shape == full.shape


def test_manufacture_from_node_values():
    mesh = build_mesh(64, reduced=True)
    spec = closed_form_spec()
    target = ScalarField(mesh, 1 + 0.05 * np.cos(mesh.theta))
    f = manufacture_f(spec, mesh, target)
    assert isinstance(f, ManufacturedF)
    # a node target keeps lambda(r*) at the nodes of its own mesh
    lam_star = EUCLID.eval_lambda(target.values)[0]
    assert np.abs(f.lam - lam_star).max() <= 1e-14


def test_manufactured_reads_the_node_of_each_cell():
    """Off the nodes, f takes the values of the node whose cell holds (th, ph);
    azimuth cells are centred on their nodes and wrap around at 2 pi."""
    mesh = build_mesh(16, 8)
    f = manufacture_f(closed_form_spec(), mesh,
                      lambda th, ph: 1 + 0.05 * np.sin(th) * np.cos(ph))
    th, ph = mesh.theta_grid(), mesh.phi_grid()
    lam, dlam = EUCLID.eval_lambda(1.0)
    at_nodes = eval_f(f, 1.0, th, ph, 0.9, lam, dlam)
    for dth, dph in ((0.4, -0.4), (-0.4, 0.4)):
        moved = eval_f(f, 1.0, th + dth * mesh.dtheta, (ph + dph * mesh.dphi) % (2 * np.pi), 0.9,
                       lam, dlam)
        assert np.array_equal(moved, at_nodes)


# -- assumption checking -----------------------------------------------------------

def test_check_assumptions_closed_form_margins():
    rep = check_assumptions(closed_form_spec())
    inner, outer, mono = rep.results
    assert inner.passed and inner.margin == pytest.approx(INNER_MARGIN, rel=1e-9)
    assert inner.worst_point[0] == pytest.approx(0.5)
    assert outer.passed and outer.margin == pytest.approx(OUTER_MARGIN, rel=1e-9)
    assert outer.worst_point[0] == pytest.approx(2.0)
    assert mono.passed and mono.margin == pytest.approx(MONO_MARGIN, rel=1e-3)
    assert all(r.passed for r in rep.results) and not rep.hard_failures


def test_check_assumptions_threshold_equality_fails():
    spec = closed_form_spec(f=parse_f("1/r^2"))
    rep = check_assumptions(spec)
    assert not rep.inner_barrier.passed       # strict inequality violated
    assert not rep.outer_barrier.passed
    assert rep.radial_monotonicity.passed and rep.radial_monotonicity.boundary_case


def test_check_assumptions_outer_violation():
    spec = closed_form_spec(f=parse_f("3/r^2"))
    rep = check_assumptions(spec)
    assert rep.inner_barrier.passed
    assert not rep.outer_barrier.passed
    assert rep.outer_barrier.margin == pytest.approx(-2.0, rel=1e-12)
    assert rep.hard_failures == ("outer_barrier",)


def test_check_assumptions_overflow_fails_without_a_warning():
    """f = 1e308 overflows the outer margin and lambda^2 f: those margins are
    -inf and nan and fail, and numpy warns nothing (warnings are errors here)."""
    rep = check_assumptions(closed_form_spec(f=parse_f("1e308")))
    assert rep.inner_barrier.passed
    assert rep.outer_barrier.margin == -np.inf and not rep.outer_barrier.passed
    assert np.isnan(rep.radial_monotonicity.margin) and not rep.radial_monotonicity.passed
    assert rep.hard_failures == ("outer_barrier", "radial_monotonicity")


def _bits(report):
    """Each result's fields, its floats as IEEE bit patterns, so nan margins compare too."""
    return [(r.name, r.passed, r.boundary_case,
             [struct.pack("<d", x) for x in (r.margin, *r.worst_point)]) for r in report.results]


COMPACT_CASES = list(every_kind_of_f(build_mesh(16, 8))) + [
    parse_f("2"), parse_f("1 + nur^2"), parse_f("2 + sin(th)"), parse_f("1e308")]


@pytest.mark.parametrize("f", COMPACT_CASES,
                         ids=["expression", "builtin", "manufactured", "constant", "nur-only",
                              "th-only", "overflow"])
def test_check_assumptions_on_compact_f_matches_the_full_sample_tensor(monkeypatch, f):
    """eval_f returns f in its own broadcast shape, and check_assumptions
    reduces on it: the report equals, margins and worst points bit for bit,
    a check whose f is first spread over the full (r, angle, nur) sample
    tensor."""
    spec = closed_form_spec(f=f)
    compact = check_assumptions(spec)
    real = problem.eval_f

    def full_eval_f(f_, r, th, ph, nur, lam=None, dlam=None):
        shape = np.broadcast(r, th, ph, nur).shape
        return np.broadcast_to(real(f_, r, th, ph, nur, lam, dlam), shape).astype(float)

    monkeypatch.setattr(problem, "eval_f", full_eval_f)
    full = check_assumptions(spec)
    assert _bits(compact) == _bits(full)
    if not any(np.isnan(r.margin) for r in full.results):
        assert compact == full


def test_eval_f_keeps_the_shape_of_the_value():
    """A constant f comes back 0-d and an f of r alone in r's shape; both still
    checked, so a non-positive constant raises."""
    r = np.linspace(1.0, 2.0, 5)[:, None, None]
    th, ph, nur = np.zeros((1, 3, 1)), np.zeros((1, 3, 1)), np.ones((1, 1, 4))
    assert eval_f(parse_f("2"), r, th, ph, nur).shape == ()
    assert eval_f(parse_f("1/r^2"), r, th, ph, nur).shape == r.shape
    assert eval_f(parse_f("1/r^2 + sin(th)^2"), r, th, ph, nur).shape == (5, 3, 1)
    with pytest.raises(FEvalError):
        eval_f(parse_f("0 * r"), r, th, ph, nur)


def test_check_assumptions_manufactured_monotonicity_boundary():
    mesh = build_mesh(64, reduced=True)
    base = closed_form_spec()
    f = manufacture_f(base, mesh, lambda th, ph: 1 + 0.05 * np.cos(th))
    rep = check_assumptions(closed_form_spec(f=f, phi_rm=1.0))
    assert rep.radial_monotonicity.passed
    assert rep.radial_monotonicity.boundary_case
    # exact-equality construction cannot satisfy both strict barriers in the
    # euclidean warp: lambda^2 f is r-independent while the threshold is too
    assert not rep.inner_barrier.passed
    assert not rep.outer_barrier.passed
