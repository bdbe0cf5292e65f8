"""Problem definition: the prescribed function f, the homotopy family, and checks.

On a surface (n = 2) the only admissible quotient order is (k, l) = (2, 0), so
the equation is K = sigma_2(mu) = f and the order is the constant
ProblemSpec.q, not a parameter.  The prescribed function is either an
arithmetic expression over (r, th, ph, nur, lam, dlam), compiled by its parser
into one function of the variables' values, or a manufactured evaluator
reverse-engineered from a target graph so the target solves the equation
exactly at the continuum level.  Each reads lambda, lambda' of the warp at r
(lam, dlam) from its caller: evaluate(r, th, ph, nur, lam, dlam), so the
threshold zeta^2 is the expression (dlam/lam)^2.  bind(th, ph) forms once what
the points' angles fix (an expression's angle-only subexpressions, a manufactured
f's node lookup), and take gathers it by row.  A ProblemSpec keeps f bound to the
nodes of each mesh shape (f_at_nodes); check_assumptions binds per call.
The homotopy endpoint at t = 0 is phi(r) times the constant-graph threshold
zeta^2, phi(r) = exp(rm - r).
"""

from __future__ import annotations

import dataclasses
import operator
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, ClassVar, Optional, Union

import numpy as np

from .errors import AdmissibilityError, FEvalError, FParseError
from .geometry import compute_geometry
from .mesh import SphereMesh, build_mesh, field_from_function
from .symm import QuotientOrder
from .warp import WarpProfile

VARS = ("r", "th", "ph", "nur", "lam", "dlam")
ANGLES = frozenset(("th", "ph"))
FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
         "sqrt": np.sqrt, "abs": np.abs}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
           "^": operator.pow}
MAX_DEPTH = 100  # nesting levels: each '(', call and unary minus opens one; far above any real f


# -- expression parsing ------------------------------------------------------

# whitespace, then a number (exponent only before a digit), a name, an operator or any other char
_TOKEN = re.compile(r"""\s*(?:
    (?P<num>[\d.]+(?:[eE][+-]?\d+)?)
  | (?P<ident>[^\W\d]\w*)
  | (?P<op>[-+*/^()])
  | (?P<other>\S))""", re.VERBOSE)


def _tokenize(text: str):
    """(kind, text, position) of each token, kind "num", "ident" or the operator itself,
    then ("end", None, len(text)); a number must read as a finite float."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, tok, pos = m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)
        if kind == "other":
            raise FParseError(f"unexpected character {tok!r}", pos)
        try:
            if kind == "num" and not np.isfinite(float(tok)):
                raise ValueError  # past the float range
        except ValueError:
            raise FParseError(f"bad number {tok!r}", pos)
        tokens.append((tok if kind == "op" else kind, tok, pos))
    tokens.append(("end", None, len(text)))
    return tokens


def _fold(first, rest):
    """first, then each (operator, operand) of rest applied left to right: one function."""
    if not rest:
        return first

    def fn(env):
        value = first(env)
        for op, operand in rest:
            value = op(value, operand(env))
        return value
    return fn


class _Parser:
    """Recursive descent that compiles while it parses: each rule returns (a function
    {name: array} -> array running its numpy operations in the order written, the
    names it reads), and `names` collects the variables read.  A chain a + b - c is
    one function, so only nesting, which MAX_DEPTH bounds, deepens the stack."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.names = set()
        self.angular = []

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            found = "end of expression" if tok[0] == "end" else repr(tok[1])
            raise FParseError(f"expected {kind!r}, found {found}", tok[2])
        self.pos += 1
        return tok

    def parse(self):
        fn = self.lift(self.expr())
        tok = self.peek()
        if tok[0] != "end":
            raise FParseError(f"unexpected trailing {tok[1]!r}", tok[2])
        return fn

    def lift(self, part):
        """part's function, or if it reads th or ph alone, a read of its `angular` slot."""
        fn, reads = part
        if not (reads and reads <= ANGLES):
            return fn
        self.angular.append(fn)
        return operator.itemgetter(len(self.angular) - 1)

    def chain(self, first, rest):
        """first, then each (operator, operand) of rest, left to right; unless all of it
        reads th or ph alone, each operand that does (first included) is lifted."""
        reads = first[1].union(*(operand[1] for _, operand in rest))
        if reads <= ANGLES:
            return _fold(first[0], [(op, operand[0]) for op, operand in rest]), reads
        return _fold(self.lift(first), [(op, self.lift(part)) for op, part in rest]), reads

    def expr(self):
        first, rest = self.term(), []
        while self.peek()[0] in ("+", "-"):
            rest.append((_BINARY[self.take()[0]], self.term()))
        return self.chain(first, rest)

    def term(self):
        first, rest = self.factor(), []
        while self.peek()[0] in ("*", "/"):
            rest.append((_BINARY[self.take()[0]], self.factor()))
        return self.chain(first, rest)

    def factor(self):
        base = self.base()
        if self.peek()[0] != "^":
            return base
        return self.chain(base, [(_BINARY[self.take()[0]], self.base())])

    def base(self):
        kind, val, pos = self.take()
        if kind == "num":
            const = np.float64(float(val))
            return (lambda env: const), frozenset()
        if kind == "ident" and self.peek()[0] != "(":
            if val in FUNCS:
                raise FParseError(f"function {val!r} takes its argument in parentheses", pos)
            if val not in VARS:
                raise FParseError(f"unknown identifier {val!r}", pos)
            self.names.add(val)
            return operator.itemgetter(val), frozenset((val,))
        if kind == "ident" and val not in FUNCS:
            raise FParseError(f"unknown function {val!r}", pos)
        if kind not in ("-", "(", "ident"):
            raise FParseError("unexpected end of expression" if kind == "end"
                              else f"unexpected token {val!r}", pos)
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise FParseError(f"nested deeper than {MAX_DEPTH} levels", pos)
        if kind == "-":
            arg, reads = self.base()
            part = (lambda env: -arg(env)), reads
        elif kind == "(":
            part = self.expr()
            self.take(")")
        else:
            self.take("(")
            (arg, reads), func = self.expr(), FUNCS[val]
            self.take(")")
            part = (lambda env: func(arg(env))), reads
        self.depth -= 1
        return part


class _Bound:
    """bind and take of an f kind that holds what points fix, _fixed_at(th, ph), in `fixed`."""

    def bind(self, th, ph):
        """This f at the points (th, ph): its per-point values there, formed now and kept."""
        return dataclasses.replace(self, fixed=self._fixed_at(th, ph))

    def take(self, rows):
        """This f, bound to a field's points, at the points of the flat indices rows."""
        return dataclasses.replace(self, fixed=tuple(v.ravel()[rows] for v in self.fixed))


@dataclass(frozen=True)
class ExpressionF(_Bound):
    """Prescribed function compiled from an arithmetic expression, reading the names in
    `variables`: fn maps r, nur, lam, dlam and, under i, the value of each lifted
    subexpression of th and ph alone, `angular[i]`, to f; bound, `fixed` holds those.
    Equal when texts are."""

    text: str
    fn: Callable = field(compare=False, repr=False)
    variables: frozenset = field(compare=False)
    angular: tuple = field(default=(), compare=False, repr=False)
    fixed: Optional[tuple] = field(default=None, compare=False, repr=False)  # bound: angular

    def evaluate(self, r, th, ph, nur, lam=None, dlam=None):  # bound: reads no th, ph
        fixed = self._fixed_at(th, ph) if self.fixed is None else self.fixed
        with np.errstate(all="ignore"):
            return self.fn(dict(enumerate(fixed), r=np.asarray(r, dtype=float),
                                nur=np.asarray(nur, dtype=float), lam=lam, dlam=dlam))

    def _fixed_at(self, th, ph):
        angles = {"th": np.asarray(th, dtype=float), "ph": np.asarray(ph, dtype=float)}
        with np.errstate(all="ignore"):
            return tuple(g(angles) for g in self.angular)


def parse_f(text: str) -> ExpressionF:
    """Compile a prescribed-function expression over (r, th, ph, nur, lam, dlam), once.

    lam and dlam are lambda(r) and lambda'(r) of the problem's warp, so (dlam/lam)^2
    is the threshold zeta^2.

    Unary minus binds tighter than ^: -r^2 is (-r)^2 and exp(-r^2) is
    e^(+r^2); write -(r^2) for -r^2.  ^ takes one exponent: 2^3^2 is a parse
    error.  An expression nested deeper than MAX_DEPTH levels is a parse
    error too.  tests/test_problem.py pins these rules.  One rule lifts what reads th and
    ph alone: each such operand of a chain a + b - c (a * b / c, a ^ b) that reads more, and
    a whole expression of angles, is compiled apart; bind forms it once per point set.
    """
    parser = _Parser(text)
    return ExpressionF(text, parser.parse(), frozenset(parser.names), tuple(parser.angular))


# -- threshold and manufactured prescribed functions -------------------------

def threshold(lam, dlam):
    """Constant-graph value K = zeta^2 of the round graph, zeta = lambda'/lambda = dlam/lam."""
    return (dlam / lam) ** 2


@dataclass(frozen=True, eq=False)
class ManufacturedF(_Bound):
    """f(r, u) = Q*(u) (lambda(r*(u)) / lambda(r))^p for a target graph r*; equal only to itself.

    Q* is the Gauss curvature K of the target graph.  manufacture_f sets
    p = k - l = 2: lambda^2 f is then independent of r, so the radial
    monotonicity assumption holds with equality (the boundary case), and the
    target graph solves the equation exactly at the continuum level.  In the
    euclidean warp that equality case makes the t = 1 equation invariant
    under dilations r -> c r, so it fixes r* only up to scale.  Any p > 2
    keeps r* an exact solution (f = Q* at r = r*) and makes lambda^2 f
    strictly decreasing in r.  Q* and lambda(r*) are node arrays on the
    solve mesh `mesh`; a point (th, ph) reads the node whose cell holds it.
    lambda(r) is the caller's lam.  check_assumptions samples the nodes of `mesh`.
    """

    mesh: SphereMesh
    q: np.ndarray           # K of the target graph at the nodes of mesh
    lam: np.ndarray         # lambda(r*) at the nodes of mesh
    exponent: int           # p: 2 is the boundary case, larger is strictly monotone
    fixed: Optional[tuple] = field(default=None, compare=False, repr=False)  # bound: Q*, lambda(r*)

    def evaluate(self, r, th, ph, nur, lam, dlam):  # reads no th, ph once bound
        q, lam_target = self._fixed_at(th, ph) if self.fixed is None else self.fixed
        return q * (lam_target / lam) ** self.exponent

    def _fixed_at(self, th, ph):
        m = self.mesh
        # colatitude cell j is [j, j + 1) dtheta; azimuth cell j is centred on phi_j
        node = (np.asarray(th, dtype=float) * (m.n_theta / np.pi)).astype(np.intp)
        if not m.reduced:
            col = np.rint(np.asarray(ph, dtype=float) * (m.n_phi / (2.0 * np.pi))).astype(np.intp)
            node = node * m.n_phi + col % m.n_phi
        return self.q.take(node, mode="clip"), self.lam.take(node, mode="clip")


FExpr = Union[ExpressionF, ManufacturedF]


def eval_f(f: FExpr, r, th, ph, nur, lam=None, dlam=None):
    """f at (r, th, ph, nur); must come out finite and positive.

    The value has f.evaluate's own shape, which broadcasts against the
    arguments: an f that ignores a variable is not spread along that
    variable's axes (a constant f is 0-d), and the checks run on that shape.
    (lam, dlam) are lambda, lambda' at r, read by a manufactured f and an expression naming
    them: given None for either, such an f raises FEvalError.
    """
    if (lam is None or dlam is None) and not (
            isinstance(f, ExpressionF) and f.variables.isdisjoint(("lam", "dlam"))):
        raise FEvalError("prescribed function reads lambda and lambda' (lam, dlam), not given")
    out = np.array(f.evaluate(r, th, ph, nur, lam, dlam), dtype=float)
    if not np.isfinite(out).all():
        raise FEvalError("prescribed function produced a non-finite value")
    if (out <= 0.0).any():
        raise FEvalError("prescribed function produced a non-positive value")
    return out


# -- problem container -------------------------------------------------------

@dataclass(frozen=True)
class ProblemSpec:
    """Prescribed-curvature problem on an annulus of a warped product."""

    q: ClassVar[QuotientOrder] = QuotientOrder(2, 0)  # the only order at n = 2
    profile: WarpProfile
    f: FExpr
    r1: float
    r2: float
    phi_rm: Optional[float] = None
    _at_nodes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.r1 < self.r2:
            raise ValueError(f"r1 = {self.r1} must be < r2 = {self.r2}")
        r_lo, r_hi = self.profile.domain
        if not (r_lo <= self.r1 and self.r2 <= r_hi):
            raise ValueError(f"annulus [{self.r1}, {self.r2}] outside profile domain")
        if self.phi_rm is None:
            object.__setattr__(self, "phi_rm", 0.5 * (self.r1 + self.r2))
        if not (self.r1 < self.phi_rm < self.r2):
            raise ValueError(f"phi_rm={self.phi_rm} outside ({self.r1}, {self.r2})")

    def f_at_nodes(self, mesh: SphereMesh):
        """f bound to the nodes of mesh: formed once per mesh shape, and kept with the spec."""
        if mesh not in self._at_nodes:
            self._at_nodes[mesh] = self.f.bind(mesh.theta_grid(), mesh.phi_grid())
        return self._at_nodes[mesh]


def phi_value(spec: ProblemSpec, r):
    """Decreasing barrier weight exp(rm - r), exp(c (rm - r)) at c = 1; equals 1 at rm."""
    return np.exp(spec.phi_rm - np.asarray(r, dtype=float))


class HomotopyEndpoints:
    """The homotopy's endpoints at the points of a GraphGeometry geom, f_at spec.f bound to them.

    f0 = phi(r) threshold(r), formed here, and f, formed on first read, both from the
    geometry's lambda and lambda' (no second lambda evaluation): one object serves
    every t on its geometry, and at(t) reads no f at t = 0.
    """

    def __init__(self, spec: ProblemSpec, geom, f_at):
        self.spec, self.geom, self.f_at = spec, geom, f_at
        self.f0 = phi_value(spec, geom.r) * threshold(geom.lam, geom.dlam)

    @cached_property
    def f(self):
        g = self.geom
        return eval_f(self.f_at, g.r, None, None, g.nu_r, g.lam, g.dlam)  # bound: reads no angles

    def at(self, t: float):
        """The homotopy value f^t = t f + (1 - t) f0: affine in t."""
        if t == 0.0:
            return self.f0
        return t * self.f + (1.0 - t) * self.f0


# odd, so every solve colatitude is a colatitude of the finer mesh; a finer
# mesh loses accuracy to roundoff in the 1/sin^2 azimuthal terms at its pole rows
MANUFACTURE_REFINE = 3


def manufacture_f(spec: ProblemSpec, mesh: SphereMesh, target) -> ManufacturedF:
    """Build the prescribed function solved by a target graph.

    `target` is a callable (th, ph) -> r or a ScalarField on `mesh`, of any
    shape; it must take values in (r1, r2), and its graph must be admissible
    (H > 0 and K > 0 at every node).  A callable target is sampled on a mesh
    MANUFACTURE_REFINE times finer in each direction, whose nodes include
    those of `mesh`: Q* = K there carries the truncation error of the finer
    mesh, so the discrete residual at the target measures the truncation
    error of the solve mesh.  A node target (e.g. loaded from CSV) defines
    the graph at the nodes of `mesh` only and takes K on `mesh` itself, so
    it is an exact discrete root.
    """
    m = 1
    if callable(target):
        m = MANUFACTURE_REFINE
        target = field_from_function(build_mesh(m * mesh.n_theta, m * mesh.n_phi, mesh.reduced), target)
    if np.any(target.values <= spec.r1) or np.any(target.values >= spec.r2):
        raise AdmissibilityError("target radii leave the open annulus (r1, r2)")
    geom = compute_geometry(target.mesh, target, spec.profile)
    ok = geom.in_cone
    if not np.all(ok):
        bad = int(np.argmin(ok.ravel()))
        raise AdmissibilityError(f"target graph leaves the admissibility cone at node {bad}")

    # the solve nodes: the middle row of each cell of m colatitudes, every m-th azimuth
    nodes = (slice((m - 1) // 2, None, m), slice(None, None, m))[:len(mesh.shape)]
    # sigma_2/sigma_0 of mu is K at the only order (k, l) = (2, 0)
    return ManufacturedF(mesh=mesh, q=np.ascontiguousarray(geom.K[nodes]),
                         lam=np.ascontiguousarray(geom.lam[nodes]), exponent=2)


# -- assumption checking -----------------------------------------------------

STRICT_TOL = 1e-12
FD_STEP_R = 1e-5
# points per axis of each sampled variable: the solve's gate and `check-assumptions` alike
ASSUMPTION_SAMPLES = 12


@dataclass(frozen=True)
class AssumptionResult:
    name: str
    passed: bool
    margin: float              # relative for the barriers, absolute for monotonicity
    worst_point: tuple         # (r, th, ph, nur)
    boundary_case: bool = False


@dataclass(frozen=True)
class AssumptionReport:
    inner_barrier: AssumptionResult       # f > threshold for r <= r1
    outer_barrier: AssumptionResult       # f < threshold for r >= r2
    radial_monotonicity: AssumptionResult  # d/dr (lambda^2 f) <= 0 inside

    @property
    def results(self):
        return (self.inner_barrier, self.outer_barrier, self.radial_monotonicity)

    @property
    def hard_failures(self):
        """Names of assumptions that failed beyond a boundary (equality) case."""
        return tuple(r.name for r in self.results if not (r.passed or r.boundary_case))


def _angular_samples(spec: ProblemSpec, samples: int):
    if isinstance(spec.f, ManufacturedF):
        m = spec.f.mesh
        return m.theta_grid().ravel(), m.phi_grid().ravel()
    th = (np.arange(samples) + 0.5) * np.pi / samples
    ph = np.arange(samples) * 2.0 * np.pi / samples
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    return TH.ravel(), PH.ravel()


def _worst(values, r_grid, th, ph, nur, minimize=True):
    """(extreme value, (r, th, ph, nur) where attained) over the sample tensor.

    values may be compact: an axis of length 1 stands for every sample on it
    and reads its first, which is where argmin/argmax over the full tensor
    lands too (the first extreme in C order).
    """
    flat = np.argmin(values) if minimize else np.argmax(values)
    ir, ia, inu = np.unravel_index(flat, values.shape)
    val = float(values[ir, ia, inu])
    return val, (float(r_grid[ir]), float(th[ia]), float(ph[ia]), float(nur[inu]))


def check_assumptions(spec: ProblemSpec) -> AssumptionReport:
    """Sampled check of the barrier inequalities and radial monotonicity.

    Barrier margins are relative to the constant-graph threshold zeta^2: the
    worst sampled (f - threshold) / threshold for r <= r1, and the worst
    (threshold - f) / threshold for r >= r2, both at <nu, d_r> = 1 only: the
    C^0 estimate reads them where r is extremal on the graph, so grad r = 0,
    v = lambda and <nu, d_r> = lambda / v = 1.  The monotonicity margin is the
    worst (largest) sampled radial derivative of lambda^2 f, which must be
    <= 0; it enters the degree argument at every normal, so it is sampled
    at ASSUMPTION_SAMPLES values of <nu, d_r> in (0, 1].  Margins are
    reported as found; an equality case within finite-difference noise is
    flagged boundary_case.  f is evaluated and reduced on its own broadcast
    shape (eval_f): an f of r alone is one value per sampled radius, not
    ASSUMPTION_SAMPLES^3.  Each barrier samples up to one annulus width
    beyond its edge, stopping 1e-3 of the warp domain short of the domain's
    end, and never on the annulus side of r1 or r2.
    """
    samples = ASSUMPTION_SAMPLES
    th, ph = _angular_samples(spec, samples)
    TH, PH = th[None, :, None], ph[None, :, None]
    f_at = spec.f.bind(TH, PH)  # once for every radius grid
    nur = np.linspace(1.0 / samples, 1.0, samples)
    r_lo, r_hi = spec.profile.domain
    width = spec.r2 - spec.r1
    pad = 1e-3 * (r_hi - r_lo)

    radial = np.ones(1)  # <nu, d_r> at an extremum of r, where the barriers are read

    def f_on(r_grid, nu):
        """(f, lambda, lambda') on the sample tensor, each in its own compact shape
        (f spreads only along the variables it reads): lambda once per radius grid."""
        R = r_grid[:, None, None]
        lam, dlam = spec.profile.eval_lambda(R)
        return eval_f(f_at, R, TH, PH, nu[None, None, :], lam, dlam), lam, dlam

    def barrier(name, r_grid, inner_side):
        """f > threshold on the inner side, f < threshold on the outer side."""
        f_val, lam, dlam = f_on(r_grid, radial)
        thr = threshold(lam, dlam)
        gap = f_val - thr if inner_side else thr - f_val
        m, at = _worst(gap / thr, r_grid, th, ph, radial, minimize=True)
        return AssumptionResult(name, m > STRICT_TOL, m, at, boundary_case=abs(m) <= STRICT_TOL)

    # radial monotonicity: d/dr (lambda^2 f) <= 0 on (r1, r2)
    h = FD_STEP_R
    r_mid = np.linspace(spec.r1 + 2 * h, spec.r2 - 2 * h, samples)

    def g_on(r_grid):
        vals, lam, _ = f_on(r_grid, nur)
        return vals * lam ** 2

    # an f near the float range overflows a margin or lambda^2 f: that margin is
    # then inf or nan and fails its test, with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        inner_end = min(max(r_lo + pad, spec.r1 - width), spec.r1)
        outer_end = max(min(r_hi - pad, spec.r2 + width), spec.r2)
        inner = barrier("inner_barrier", np.linspace(inner_end, spec.r1, samples), True)
        outer = barrier("outer_barrier", np.linspace(spec.r2, outer_end, samples), False)
        deriv = (g_on(r_mid + h) - g_on(r_mid - h)) / (2.0 * h)
        m15, at15 = _worst(deriv, r_mid, th, ph, nur, minimize=False)
        # equality cases sit inside each sample's FD noise floor eps * |g| / h
        floor = np.maximum(STRICT_TOL, 10.0 * np.finfo(float).eps * np.abs(g_on(r_mid)) / h)
    passed = bool(np.all(deriv <= floor))
    mono = AssumptionResult("radial_monotonicity", passed, m15, at15,
                            boundary_case=passed and bool(np.any(deriv >= -floor)))
    return AssumptionReport(inner, outer, mono)
