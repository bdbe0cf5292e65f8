"""Problem definition: the prescribed function f, the homotopy family, and checks.

On a surface (n = 2) the only admissible quotient order is (k, l) = (2, 0), so
the equation is K = sigma_2(mu) = f and the order is the constant
ProblemSpec.q, not a parameter.  The prescribed function is either a parsed
arithmetic expression over (r, th, ph, nur), the builtin round-exponential
profile threshold times exp(alpha (rm - r)), or a manufactured evaluator
reverse-engineered from a target graph so the target solves the equation
exactly at the continuum level.  Each reads lambda, lambda' at r from its
caller: evaluate(r, th, ph, nur, lam, dlam).  The homotopy endpoint at t = 0
is phi(r) times the constant-graph threshold zeta^2, phi(r) = exp(c (rm - r)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Optional, Union

import numpy as np

from .errors import AdmissibilityError, FEvalError, FParseError
from .geometry import compute_geometry
from .mesh import SphereMesh, build_mesh, field_from_function
from .symm import QuotientOrder
from .warp import WarpProfile

VARS = ("r", "th", "ph", "nur")
FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
         "sqrt": np.sqrt, "abs": np.abs}


# -- expression parsing ------------------------------------------------------

def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                val = float(text[i:j])
            except ValueError:
                raise FParseError(f"bad number {text[i:j]!r}", i)
            tokens.append(("num", val, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise FParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise FParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self):
        tree = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise FParseError(f"unexpected trailing {tok[1]!r}", tok[2])
        return tree

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            rhs = self.factor()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def factor(self):
        node = self.base()
        if self.peek()[0] == "^":
            self.take()
            node = ("pow", node, self.base())
        return node

    def base(self):
        kind, val, pos = self.peek()
        if kind == "-":
            self.take()
            return ("neg", self.base())
        if kind == "num":
            self.take()
            return ("num", val)
        if kind == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        if kind == "ident":
            self.take()
            if self.peek()[0] == "(":
                if val not in FUNCS:
                    raise FParseError(f"unknown function {val!r}", pos)
                self.take("(")
                arg = self.expr()
                self.take(")")
                return ("call", val, arg)
            if val not in VARS:
                raise FParseError(f"unknown identifier {val!r}", pos)
            return ("var", val)
        raise FParseError(f"unexpected token {val!r}", pos)


def _eval_tree(node, env):
    op = node[0]
    if op == "num":
        return np.float64(node[1])
    if op == "var":
        return env[node[1]]
    if op == "neg":
        return -_eval_tree(node[1], env)
    if op == "call":
        return FUNCS[node[1]](_eval_tree(node[2], env))
    a = _eval_tree(node[1], env)
    b = _eval_tree(node[2], env)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    return a ** b  # pow


@dataclass(frozen=True)
class ExpressionF:
    """Prescribed function from a parsed arithmetic expression."""

    text: str
    tree: tuple

    def evaluate(self, r, th, ph, nur, lam=None, dlam=None):  # reads no lam, dlam
        env = {"r": np.asarray(r, dtype=float), "th": np.asarray(th, dtype=float),
               "ph": np.asarray(ph, dtype=float), "nur": np.asarray(nur, dtype=float)}
        with np.errstate(all="ignore"):
            return _eval_tree(self.tree, env)

    def variables(self) -> set:
        """The names in VARS that the expression reads."""
        def walk(node):
            if node[0] == "var":
                return {node[1]}
            return set().union(*(walk(c) for c in node[1:] if isinstance(c, tuple)))
        return walk(self.tree)


def parse_f(text: str) -> ExpressionF:
    """Parse a prescribed-function expression over (r, th, ph, nur).

    Unary minus binds tighter than ^: -r^2 is (-r)^2 and exp(-r^2) is
    e^(+r^2); write -(r^2) for -r^2.  ^ takes one exponent: 2^3^2 is a parse
    error.  tests/test_problem.py pins both rules.
    """
    return ExpressionF(text=text, tree=_Parser(text).parse())


# -- builtin and manufactured prescribed functions ---------------------------

def threshold(lam, dlam):
    """Constant-graph value K = zeta^2 of the round graph, zeta = lambda'/lambda = dlam/lam."""
    return (dlam / lam) ** 2


@dataclass(frozen=True)
class RoundExponentialF:
    """f = threshold(lam, dlam) * exp(alpha (rm - r)) on the caller's warp; solved exactly by r = rm."""

    rm: float
    alpha: float

    def evaluate(self, r, th, ph, nur, lam, dlam):
        return threshold(lam, dlam) * np.exp(self.alpha * (self.rm - np.asarray(r, dtype=float)))


@dataclass(frozen=True)
class ManufacturedF:
    """f(r, u) = Q*(u) (lambda(r*(u)) / lambda(r))^p for a target graph r*.

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

    def evaluate(self, r, th, ph, nur, lam, dlam):
        m = self.mesh
        # colatitude cell j is [j, j + 1) dtheta; azimuth cell j is centred on phi_j
        node = (np.asarray(th, dtype=float) * (m.n_theta / np.pi)).astype(np.intp)
        if not m.reduced:
            col = np.rint(np.asarray(ph, dtype=float) * (m.n_phi / (2.0 * np.pi))).astype(np.intp)
            node = node * m.n_phi + col % m.n_phi
        return self.q.take(node, mode="clip") * (self.lam.take(node, mode="clip") / lam) ** self.exponent


FExpr = Union[ExpressionF, RoundExponentialF, ManufacturedF]


def eval_f(f: FExpr, r, th, ph, nur, lam=None, dlam=None):
    """f at (r, th, ph, nur); must come out finite and positive.

    The value has f.evaluate's own shape, which broadcasts against the
    arguments: an f that ignores a variable is not spread along that
    variable's axes (a constant f is 0-d), and the checks run on that shape.
    (lam, dlam) are lambda, lambda' at r: only a builtin or manufactured f reads them.
    """
    out = np.array(f.evaluate(r, th, ph, nur, lam, dlam), dtype=float)
    if not np.all(np.isfinite(out)):
        raise FEvalError("prescribed function produced a non-finite value")
    if np.any(out <= 0.0):
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
    phi_c: float = 1.0

    def __post_init__(self):
        if not self.r1 < self.r2:
            raise ValueError(f"need r1 < r2, got {self.r1} >= {self.r2}")
        r_lo, r_hi = self.profile.domain
        if not (r_lo <= self.r1 and self.r2 <= r_hi):
            raise ValueError(f"annulus [{self.r1}, {self.r2}] outside profile domain")
        if self.phi_rm is None:
            object.__setattr__(self, "phi_rm", 0.5 * (self.r1 + self.r2))
        if not (self.r1 < self.phi_rm < self.r2):
            raise ValueError(f"phi_rm={self.phi_rm} outside ({self.r1}, {self.r2})")
        if not self.phi_c > 0:
            raise ValueError("phi_c must be positive")


def phi_value(spec: ProblemSpec, r):
    """Decreasing barrier weight exp(c (rm - r)); equals 1 at rm."""
    return np.exp(spec.phi_c * (spec.phi_rm - np.asarray(r, dtype=float)))


class HomotopyEndpoints:
    """The homotopy's endpoints at the points of a GraphGeometry geom, (th, ph) the points' angles.

    f0 = phi(r) threshold(r) and f, each formed on first read from the
    geometry's lambda and lambda' (no second lambda evaluation) and kept, so
    one object serves every t on its geometry.  at(t) reads no f at t = 0.
    """

    def __init__(self, spec: ProblemSpec, geom, th, ph):
        self.spec, self.geom, self.th, self.ph = spec, geom, th, ph

    @cached_property
    def f0(self):
        return phi_value(self.spec, self.geom.r) * threshold(self.geom.lam, self.geom.dlam)

    @cached_property
    def f(self):
        g = self.geom
        return eval_f(self.spec.f, g.r, self.th, self.ph, g.nu_r, g.lam, g.dlam)

    def at(self, t: float):
        """The homotopy value f^t = t f + (1 - t) f0: affine in t."""
        if t == 0.0:
            return self.f0
        return t * self.f + (1.0 - t) * self.f0


def blend_f_t(spec: ProblemSpec, t: float, geom, th, ph):
    """Homotopy value t f + (1 - t) phi(r) threshold(r) at the points of a GraphGeometry; affine in t.

    (th, ph) are the points' angles.  One evaluation of HomotopyEndpoints;
    a caller that reads several t on one geometry keeps that object instead.
    """
    return HomotopyEndpoints(spec, geom, th, ph).at(t)


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


def check_assumptions(spec: ProblemSpec, samples: int = 12) -> AssumptionReport:
    """Sampled check of the barrier inequalities and radial monotonicity.

    Barrier margins are relative to the constant-graph threshold zeta^2: the
    worst sampled (f - threshold) / threshold for r <= r1, and the worst
    (threshold - f) / threshold for r >= r2.  The monotonicity margin is the
    worst (largest) sampled radial derivative of lambda^2 f, which must be
    <= 0.  Margins are reported as found; an equality case within
    finite-difference noise is flagged boundary_case.  f is evaluated and
    reduced on its own broadcast shape (eval_f): an f of r alone is one
    value per sampled radius, not samples^3.
    """
    th, ph = _angular_samples(spec, samples)
    nur = np.linspace(1.0 / samples, 1.0, samples)
    r_lo, r_hi = spec.profile.domain
    width = spec.r2 - spec.r1
    pad = 1e-3 * (r_hi - r_lo)

    def f_on(r_grid):
        """(f, lambda, lambda') on the sample tensor, each in its own compact shape
        (f spreads only along the variables it reads): lambda once per radius grid."""
        R = r_grid[:, None, None]
        lam, dlam = spec.profile.eval_lambda(R)
        return eval_f(spec.f, R, th[None, :, None], ph[None, :, None], nur[None, None, :],
                      lam, dlam), lam, dlam

    def barrier(name, r_grid, inner_side):
        """f > threshold on the inner side, f < threshold on the outer side."""
        f_val, lam, dlam = f_on(r_grid)
        thr = threshold(lam, dlam)
        gap = f_val - thr if inner_side else thr - f_val
        m, at = _worst(gap / thr, r_grid, th, ph, nur, minimize=True)
        return AssumptionResult(name, m > STRICT_TOL, m, at, boundary_case=abs(m) <= STRICT_TOL)

    # radial monotonicity: d/dr (lambda^2 f) <= 0 on (r1, r2)
    h = FD_STEP_R
    r_mid = np.linspace(spec.r1 + 2 * h, spec.r2 - 2 * h, samples)

    def g_on(r_grid):
        vals, lam, _ = f_on(r_grid)
        return vals * lam ** 2

    # an f near the float range overflows a margin or lambda^2 f: that margin is
    # then inf or nan and fails its test, with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        inner = barrier("inner_barrier",
                        np.linspace(max(r_lo + pad, spec.r1 - width), spec.r1, samples), True)
        outer = barrier("outer_barrier",
                        np.linspace(spec.r2, min(r_hi - pad, spec.r2 + width), samples), False)
        deriv = (g_on(r_mid + h) - g_on(r_mid - h)) / (2.0 * h)
        m15, at15 = _worst(deriv, r_mid, th, ph, nur, minimize=False)
        # equality cases sit inside the FD noise floor eps * |g| / h
        noise = 10.0 * np.finfo(float).eps * float(np.max(np.abs(g_on(r_mid)))) / h
    mono = AssumptionResult(
        "radial_monotonicity",
        m15 <= max(STRICT_TOL, noise),
        m15,
        at15,
        boundary_case=abs(m15) <= max(STRICT_TOL, noise),
    )
    return AssumptionReport(inner, outer, mono)
