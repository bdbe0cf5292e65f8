import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prescurv import problem
from prescurv.errors import AdmissibilityError, FEvalError, FParseError
from prescurv.geometry import compute_geometry
from prescurv.mesh import ScalarField, build_mesh, field_from_function, jet_operators
from prescurv.problem import (
    HomotopyEndpoints,
    ManufacturedF,
    check_assumptions,
    eval_f,
    manufacture_f,
    parse_f,
    phi_value,
    threshold,
)
from prescurv.solver import ContinuationState
from prescurv.warp import WarpProfile
from closed_form import EUCLID, closed_form_spec, round_exponential
from test_solver import every_kind_of_f


# frozen closed-form margins for f = (1/r^2) exp(1.25 - r), r1 = 0.5, r2 = 2
INNER_MARGIN = 1.1170000166126747   # e^0.75 - 1, relative margin at r = r1
OUTER_MARGIN = 0.5276334472589853   # 1 - e^-0.75, relative margin at r = r2
MONO_MARGIN = -0.4723665527410147   # d/dr of r^2 f at its largest (r = r2)


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


SPHERE2D_F = "1/r^2 * exp(1.25 - r) * (1 + 0.0263*sin(th)*cos(ph) + -0.0085*sin(th)*sin(ph))"


def test_compiled_f_runs_the_numpy_operations_written_out():
    """A compiled f is bit-equal to its numpy operations on np.float64 constants, in
    grammar order: unary minus binds tighter than ^, and * / and + - run left to right."""
    c = np.float64
    r = np.linspace(0.5, 2.0, 7)[:, None, None]
    th, ph = np.linspace(0.1, 3.0, 5)[:, None], np.linspace(0.0, 6.0, 4)
    cases = [
        (SPHERE2D_F, c(1) / r ** c(2) * np.exp(c(1.25) - r)
         * (c(1) + c(0.0263) * np.sin(th) * np.cos(ph) + -c(0.0085) * np.sin(th) * np.sin(ph))),
        ("-2^2", (-c(2)) ** c(2)),
        ("2^-1", c(2) ** -c(1)),
        ("1/r^2", c(1) / r ** c(2)),
    ]
    for text, want in cases:
        got = parse_f(text).evaluate(r, th, ph, 0.5)
        assert got.shape == want.shape and np.array_equal(got, want), text


@pytest.mark.parametrize("text,message,position", [
    ("foo(r)", "unknown function 'foo'", 0),
    ("r(1)", "unknown function 'r'", 0),  # a variable used as a function
    ("x + 1", "unknown identifier 'x'", 0),
    ("sin r", "function 'sin' takes its argument in parentheses", 0),
    ("r $ 1", "unexpected character '$'", 2),
    ("1.2.3", "bad number '1.2.3'", 0),
    ("(1 + r", "expected ')', found end of expression", 6),
    ("2 3", "unexpected trailing '3'", 2),
    ("2^3^2", "unexpected trailing '^'", 3),  # ^ takes one exponent
    ("1 +", "unexpected end of expression", 3),
    ("exp(", "unexpected end of expression", 4),
    ("*2", "unexpected token '*'", 0),
    ("(" * 101 + "r" + ")" * 101, "nested deeper than 100 levels", 100),
    ("-" * 984 + "r", "nested deeper than 100 levels", 100),
    ("1 + sqrt(" * 101 + "r" + ")" * 101, "nested deeper than 100 levels", 904),
    ("1e400", "bad number '1e400'", 0),
    ("1e400*0 + 1/r^2", "bad number '1e400'", 0),
    ("1/r^2 + " + "9" * 400, "bad number '" + "9" * 400 + "'", 8),
    ("r * .", "bad number '.'", 4),
    ("1e", "unexpected trailing 'e'", 1),  # no digit after e: the number ends before it
    ("1e+", "unexpected trailing 'e'", 1),
    ("r\t+\n", "unexpected end of expression", 4),
    ("λ + 1", "unknown identifier 'λ'", 0),
], ids=["unknown-function", "variable-called", "unknown-identifier", "function-without-call",
        "unexpected-character", "bad-number", "expected-close", "trailing-number",
        "trailing-exponent", "end-after-operator", "end-after-call", "unexpected-token",
        "deep-parentheses", "deep-unary-minus", "deep-calls", "number-overflows",
        "overflowing-number-times-zero", "integer-overflows", "lone-dot", "exponent-without-digits",
        "signed-exponent-without-digits", "tab-and-newline-are-space", "non-ascii-name"])
def test_parse_errors_carry_positions(text, message, position):
    with pytest.raises(FParseError) as err:
        parse_f(text)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def test_value_types_holding_arrays_compare_by_identity():
    """Specs of one manufactured f, geometries and continuation states hold arrays:
    == is identity, never numpy's ambiguous truth value."""
    mesh, spec = build_mesh(16, 8), closed_form_spec()
    a, b = (dataclasses.replace(spec, f=manufacture_f(spec, mesh, lambda t, p: 1.25 + 0.0 * t))
            for _ in range(2))
    assert (a == b) is False and a == a
    r = ScalarField(mesh, np.full(mesh.shape, 1.25))
    assert (compute_geometry(mesh, r, EUCLID) == compute_geometry(mesh, r, EUCLID)) is False
    assert (ContinuationState(0.0, r, 0, 0.0, 0) == ContinuationState(0.0, r, 0, 0.0, 0)) is False


@pytest.mark.parametrize("text,tokens", [
    ("r\t+\n2\u00a0", [("ident", "r", 0), ("+", "+", 2), ("num", "2", 4)]),
    ("1e", [("num", "1", 0), ("ident", "e", 1)]),
    ("1e+", [("num", "1", 0), ("ident", "e", 1), ("+", "+", 2)]),
    ("1.e5", [("num", "1.e5", 0)]),
    (".5", [("num", ".5", 0)]),
    ("5.", [("num", "5.", 0)]),
    ("1E-3", [("num", "1E-3", 0)]),
    ("1e-400", [("num", "1e-400", 0)]),  # underflows to 0.0: finite, so a number
    ("2x1 _a_2 \u03bb2", [("num", "2", 0), ("ident", "x1", 1), ("ident", "_a_2", 4),
                           ("ident", "\u03bb2", 9)]),
], ids=["tab-newline-no-break-space", "exponent-without-digits", "signed-exponent-without-digits",
        "dot-then-exponent", "leading-dot", "trailing-dot", "capital-signed-exponent",
        "underflow", "names"])
def test_tokens_and_their_positions(text, tokens):
    """Whitespace is any Unicode space; a number takes its exponent only where a
    digit follows it; a name starts with a letter or _ and goes on with digits."""
    assert problem._tokenize(text) == tokens + [("end", None, len(text))]


@pytest.mark.parametrize("text,want", [
    ("r\t*\n2\u00a0", 3.0), ("1.e1*r", 15.0), (".5 + 5.", 5.5), ("1E-3*r", 1.5e-3),
])
def test_whitespace_and_number_forms_evaluate(text, want):
    assert float(eval_f(parse_f(text), 1.5, 0.0, 0.0, 1.0)) == want


def test_nesting_at_the_bound_and_long_chains_evaluate():
    """MAX_DEPTH levels of each kind still parse and evaluate; a chain of terms
    opens no level, and 5000 of them evaluate."""
    assert problem.MAX_DEPTH == 100
    for text, want in [("(" * 100 + "r" + ")" * 100, 1.5), ("-" * 100 + "r", 1.5),
                       ("exp(0 + 0*1^" * 100 + "r" + ")" * 100, 1.0),
                       ("+".join(["r"] * 5000), 7500.0)]:
        assert float(eval_f(parse_f(text), 1.5, 0.0, 0.0, 1.0)) == want


@pytest.mark.parametrize("text,names", [
    ("2", set()), ("1/r^2", {"r"}), ("exp(-(r - r))", {"r"}), ("1 + 0.1*cos(th)", {"th"}),
    (SPHERE2D_F, {"r", "th", "ph"}), ("sqrt(nur) + th*ph^r", {"r", "th", "ph", "nur"}),
    ("(dlam/lam)^2 * exp(1.25 - r)", {"r", "lam", "dlam"}),
])
def test_variables_are_the_names_read(text, names):
    assert parse_f(text).variables == names


def test_eval_rejects_nonpositive_and_nonfinite():
    with pytest.raises(FEvalError):
        eval_f(parse_f("r - 10"), 1.0, 0.0, 0.0, 1.0)
    with pytest.raises(FEvalError):
        eval_f(parse_f("log(r - 2)"), 1.0, 0.0, 0.0, 1.0)
    # constant sub-expressions follow numpy: overflow, 1/0 and a complex power are non-finite
    for text in ("10^400", "1/0", "1/r^2 * (1 + (0-1)^0.5)"):
        with pytest.raises(FEvalError):
            eval_f(parse_f(text), 1.0, 0.0, 0.0, 1.0)


def lambda_reading_f(kind):
    if kind == "manufactured":
        mesh = build_mesh(16, reduced=True)
        return ManufacturedF(mesh, np.ones(mesh.shape), np.ones(mesh.shape), 2)
    return parse_f(kind)


@pytest.mark.parametrize("lam", [None, 1.0], ids=["no-lambda", "no-dlambda"])
@pytest.mark.parametrize("kind", ["2*lam", "dlam/lam", "manufactured"])
def test_an_f_that_reads_lambda_given_none_is_an_feval_error(kind, lam):
    """An expression naming lam or dlam, and a manufactured f, given None for
    lambda or lambda' raise FEvalError naming both; given both, they evaluate."""
    f = lambda_reading_f(kind)
    with pytest.raises(FEvalError, match=r"lambda and lambda' \(lam, dlam\)"):
        eval_f(f, 1.0, 0.5, 0.0, 1.0, lam, None if lam else 1.0)
    assert np.all(eval_f(f, 1.0, 0.5, 0.0, 1.0, 1.0, 1.0) > 0)


def test_an_f_that_reads_no_lambda_needs_none():
    assert float(eval_f(parse_f("1/r^2 * (1 + 0.1*cos(th))"), 1.0, 0.0, 0.0, 1.0)) == 1.1


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


BOUND_TEXTS = (
    SPHERE2D_F,                                             # one angular factor after r's
    "sin(th)*cos(ph)*exp(-r) + ph*nur - -th + r^cos(th)",  # angular operands of mixed chains
    "2 + sin(th)^2*cos(ph)",                                # angular as a whole
    "1/r^2 * exp(1.25 - r) + nur",                          # no angle read
    "3",
)


def bound_point_sets(name):
    """(mesh, rows): the nodes of a mesh, or (rows not None) the rows jacobian_sparse
    gathers from them, each stored entry's row twice."""
    if name == "reduced-nodes":
        return build_mesh(16, reduced=True), None
    mesh = build_mesh(16, 8)
    return mesh, (np.tile(jet_operators(mesh)[0], 2) if name == "gathered-rows" else None)


@pytest.mark.parametrize("points", ["full-nodes", "reduced-nodes", "gathered-rows"])
def test_a_bound_f_is_the_unbound_f(points):
    """Every kind of f bound to a point set (and gathered by row, as the
    Jacobian does) gives the unbound f's values at those points, bit for bit
    and in the same compact shape; so do random expression trees."""
    mesh, rows = bound_point_sets(points)
    rng = np.random.default_rng(5)
    th, ph = mesh.theta_grid(), mesh.phi_grid()
    r, nur = 1.2 + 0.1 * rng.standard_normal(mesh.shape), rng.uniform(0.5, 1.0, mesh.shape)
    kinds = [parse_f(text) for text in BOUND_TEXTS] + [
        parse_f(random_expression(rng)[0].replace("nur", "ph")) for _ in range(100)] + [
        round_exponential(1.25, 1.0),
        manufacture_f(closed_form_spec(), mesh, lambda t, p: 1.25 + 0.05 * np.sin(t) * np.cos(p))]
    at = (lambda a: a) if rows is None else (lambda a: a.ravel()[rows])
    lam, dlam = EUCLID.eval_lambda(at(r))
    for f in kinds:
        bound = f.bind(th, ph) if rows is None else f.bind(th, ph).take(rows)
        want = f.evaluate(at(r), at(th), at(ph), at(nur), lam, dlam)
        got = bound.evaluate(at(r), None, None, at(nur), lam, dlam)
        assert np.shape(got) == np.shape(want) and np.array_equal(got, want, equal_nan=True), f


def test_a_bound_f_keeps_the_compact_shape_on_the_assumption_samples():
    """Bound to the assumption check's (1, angles, 1) samples, an f spreads only
    along the variables it reads, as unbound."""
    r, nur = np.linspace(0.5, 2.0, 3)[:, None, None], np.linspace(0.5, 1.0, 4)[None, None, :]
    th, ph = np.linspace(0.1, 3.0, 6)[None, :, None], np.linspace(0.0, 6.0, 6)[None, :, None]
    for text, shape in (("3", ()), ("1/r^2", (3, 1, 1)), ("2 + sin(th)", (1, 6, 1)),
                        (SPHERE2D_F, (3, 6, 1)), ("2 + cos(ph)*nur", (1, 6, 4))):
        f = parse_f(text)
        want = eval_f(f, r, th, ph, nur)
        got = eval_f(f.bind(th, ph), r, th, ph, nur)
        assert got.shape == want.shape == shape and np.array_equal(got, want), text


# -- round exponential and threshold -------------------------------------------

def test_threshold_euclidean_is_inverse_square():
    for r in (0.5, 1.25, 3.0):
        assert threshold(*EUCLID.eval_lambda(r)) == pytest.approx(1.0 / r ** 2, rel=1e-14)


def test_round_exponential_matches_threshold_at_rm():
    f = round_exponential(1.25, 1.0)
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
    """The homotopy value f^t at the nodes of geom's mesh."""
    return HomotopyEndpoints(spec, geom, spec.f_at_nodes(geom.mesh)).at(t)


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
        closed_form_spec(r2=12.0)  # outside the profile domain
    with pytest.raises(TypeError):  # phi's rate is the constant 1, not a field
        closed_form_spec(phi_c=1.0)
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


@pytest.mark.parametrize("domain,r1,expr,which,edge", [
    ((0.0, 10.0), 0.005, "exp(0.006 - r)/r^2", "inner_barrier", 0.005),
    ((0.0, 2.001), 0.5, "exp(1.9995 - r)/r^2", "outer_barrier", 2.0),
], ids=["r1-near-domain-start", "r2-near-domain-end"])
def test_barriers_sample_outside_the_annulus_near_the_domain_ends(domain, r1, expr, which, edge):
    """An annulus edge closer to its end of the warp domain than 1e-3 of the
    domain: the barrier samples that edge, not the annulus inside it, where
    f crosses zeta^2 (at r = 0.006 and r = 1.9995)."""
    spec = closed_form_spec(profile=WarpProfile("euclidean", domain), f=parse_f(expr),
                            r1=r1, r2=2.0, phi_rm=1.0)
    rep = check_assumptions(spec)
    assert not rep.hard_failures
    barrier = getattr(rep, which)
    assert barrier.passed and barrier.margin > 0 and barrier.worst_point[0] == edge


@pytest.mark.parametrize("factor", ["", " * nur^(-16)"], ids=["plain", "nur-weighted"])
def test_monotonicity_noise_floor_is_each_samples_own(factor):
    """d/dr (lambda^2 f) reaches +1199.5 at nur = 1 on both; nur^(-16) makes
    lambda^2 f some 1e17 times larger at nur = 1/12, which must not lift the
    noise floor at nur = 1."""
    f = parse_f(f"exp(1.25 - r)/r^2{factor} + 100*r")
    mono = check_assumptions(closed_form_spec(f=f)).radial_monotonicity
    assert mono.margin == pytest.approx(1199.5, abs=0.1)
    assert not mono.passed and not mono.boundary_case


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
    parse_f("2"), parse_f("1 + nur^2"), parse_f("2 + sin(th)"), parse_f("1e308"),
    parse_f("1/r^2*exp(1.25-r)*(1+0.03*sin(th)*cos(ph))*(1 + 2*nur^64)")]


@pytest.mark.parametrize("f", COMPACT_CASES,
                         ids=["expression", "round-exponential", "manufactured", "constant",
                              "nur-only", "th-only", "overflow", "barrier-reads-nur"])
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
