"""Problem definition: the prescribed function f, the homotopy family, and checks.

On a surface (n = 2) the only admissible quotient order is (k, l) = (2, 0), so
the equation is K = sigma_2(mu) = f and the order is the constant
ProblemSpec.q, not a parameter.  The prescribed function is either a parsed
arithmetic expression over (r, th, ph, nur), the builtin round-exponential
profile threshold times exp(alpha (rm - r)), or a manufactured evaluator
reverse-engineered from a target graph so the target solves the equation
exactly at the continuum level.  The homotopy endpoint at t = 0 is phi(r)
times the constant-graph threshold zeta(r)^2, with phi(r) = exp(c (rm - r)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Union

import numpy as np

from .errors import AdmissibilityError, FEvalError, FParseError
from .geometry import compute_geometry
from .mesh import ScalarField, SphereMesh, build_mesh
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

    def evaluate(self, r, th, ph, nur):
        env = {"r": np.asarray(r, dtype=float), "th": np.asarray(th, dtype=float),
               "ph": np.asarray(ph, dtype=float), "nur": np.asarray(nur, dtype=float)}
        with np.errstate(all="ignore"):
            out = _eval_tree(self.tree, env)
        return np.broadcast_to(out, np.broadcast(*env.values()).shape).astype(float)


def parse_f(text: str) -> ExpressionF:
    """Parse a prescribed-function expression over (r, th, ph, nur)."""
    return ExpressionF(text=text, tree=_Parser(text).parse())


# -- builtin and manufactured prescribed functions ---------------------------

def threshold(profile: WarpProfile, r):
    """Constant-graph value K = zeta(r)^2 of the round graph at radius r."""
    return profile.zeta(r) ** 2


@dataclass(frozen=True)
class RoundExponentialF:
    """f = threshold(r) * exp(alpha (rm - r)); solved exactly by r = rm."""

    rm: float
    alpha: float
    profile: WarpProfile

    def evaluate(self, r, th, ph, nur):
        r = np.asarray(r, dtype=float)
        val = threshold(self.profile, r) * np.exp(self.alpha * (self.rm - r))
        shape = np.broadcast(r, np.asarray(th), np.asarray(ph), np.asarray(nur)).shape
        return np.broadcast_to(val, shape).astype(float)


@dataclass(frozen=True)
class ManufacturedF:
    """f(r, u) = Q*(u) (lambda(r*(u)) / lambda(r))^p for an axisymmetric target r*.

    Q* is the Gauss curvature K of the target graph.  manufacture_f sets
    p = k - l = 2: lambda^2 f is then independent of r, so the radial
    monotonicity assumption holds with equality (the boundary case), and the
    target graph solves the equation exactly at the continuum level.  In the
    euclidean warp that equality case makes the t = 1 equation invariant
    under dilations r -> c r, so it fixes r* only up to scale.  Any p > 2
    keeps r* an exact solution (f = Q* at r = r*) and makes lambda^2 f
    strictly decreasing in r.  Q* and lambda(r*) are functions of
    colatitude; callable targets get continuum-accurate values (fine
    auxiliary mesh plus spline), node targets are interpolated as-is.
    `mesh` is the solve mesh, whose nodes check_assumptions samples.
    """

    mesh: SphereMesh
    q_fn: object            # callable th -> K of the target graph
    lam_fn: object          # callable th -> lambda(r*)
    exponent: int           # p: 2 is the boundary case, larger is strictly monotone
    profile: WarpProfile

    def evaluate(self, r, th, ph, nur):
        th = np.asarray(th, dtype=float)
        qs = self.q_fn(th)
        ls = self.lam_fn(th)
        lam, _ = self.profile.eval_lambda(np.asarray(r, dtype=float))
        val = qs * (ls / lam) ** self.exponent
        shape = np.broadcast(np.asarray(r), th, np.asarray(ph), np.asarray(nur)).shape
        return np.broadcast_to(val, shape).astype(float)


FExpr = Union[ExpressionF, RoundExponentialF, ManufacturedF]


def eval_f(f: FExpr, r, th, ph, nur):
    """Evaluate the prescribed function; must come out finite and positive."""
    out = np.asarray(f.evaluate(r, th, ph, nur), dtype=float)
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


def blend_f_t(spec: ProblemSpec, t: float, geom):
    """Homotopy value t f + (1 - t) phi(r) threshold(r) on a GraphGeometry; affine in t.

    threshold(r) = zeta^2 takes zeta = lambda'/lambda from the geometry: no
    second lambda evaluation.
    """
    f0 = phi_value(spec, geom.r) * (geom.dlam / geom.lam) ** 2
    if t == 0.0:
        return f0
    f = eval_f(spec.f, geom.r, geom.mesh.theta_grid(), geom.mesh.phi_grid(), geom.nu_r)
    return t * f + (1.0 - t) * f0


# near the optimum of the second-derivative FD error eps/h^2 + C h^4: finer
# auxiliary meshes are *less* accurate (roundoff floor ~1e-11 here)
MANUFACTURE_FINE_N = 512


def _even_extended_spline(theta, values, ghosts: int = 4):
    """Cubic spline through (theta, values) with even mirror padding at both poles.

    The padding keeps the spline 4th-order accurate up to the first and last
    staggered nodes instead of degrading to the not-a-knot boundary error.
    """
    from scipy.interpolate import CubicSpline

    pre_t = -theta[ghosts - 1::-1]
    pre_v = values[ghosts - 1::-1]
    post_t = 2.0 * np.pi - theta[:-ghosts - 1:-1]
    post_v = values[:-ghosts - 1:-1]
    return CubicSpline(np.concatenate([pre_t, theta, post_t]),
                       np.concatenate([pre_v, values, post_v]))


def manufacture_f(spec: ProblemSpec, mesh: SphereMesh, target) -> ManufacturedF:
    """Build the prescribed function solved by an axisymmetric target graph.

    `target` is a callable (th, ph) -> r or a ScalarField on `mesh`; either
    way it must be axisymmetric, take values in (r1, r2), and its graph must
    be admissible (Newton eigenvalues inside the cone at every node).

    Callable targets are evaluated on a fine auxiliary colatitude mesh and
    splined, so Q* carries continuum-level accuracy and the discrete residual
    at the target measures pure truncation error of the solve mesh.  Node
    targets (e.g. loaded from CSV) only define the graph at mesh nodes, so
    their Q* is the solve-resolution value interpolated linearly.
    """
    if callable(target):
        probe = np.asarray(target(np.full(4, 1.0), np.linspace(0.0, 2 * np.pi, 4)))
        if np.ptp(probe) > 1e-12 * max(1.0, np.abs(probe).max()):
            raise AdmissibilityError("manufactured targets must be axisymmetric")
        fine = build_mesh(MANUFACTURE_FINE_N, reduced=True)
        t_field = ScalarField(fine, np.asarray(target(fine.theta, np.zeros_like(fine.theta)), dtype=float))
        eval_mesh = fine
    else:
        vals = target.values
        if not mesh.reduced and np.ptp(vals, axis=1).max() > 1e-12 * max(1.0, np.abs(vals).max()):
            raise AdmissibilityError("manufactured targets must be axisymmetric")
        t_field = target if mesh.reduced else ScalarField(
            build_mesh(mesh.n_theta, reduced=True), vals[:, 0]
        )
        eval_mesh = t_field.mesh

    if np.any(t_field.values <= spec.r1) or np.any(t_field.values >= spec.r2):
        raise AdmissibilityError("target radii leave the open annulus (r1, r2)")
    geom = compute_geometry(eval_mesh, t_field, spec.profile)
    ok = geom.in_cone
    if not np.all(ok):
        bad = int(np.argmin(ok.ravel()))
        raise AdmissibilityError(f"target graph leaves the admissibility cone at node {bad}")

    # sigma_2/sigma_0 of mu is K at the only order (k, l) = (2, 0)
    if callable(target):
        q_fn = _even_extended_spline(eval_mesh.theta, geom.K)
        lam_fn = _even_extended_spline(eval_mesh.theta, geom.lam)
    else:
        nodes, qv, lv = eval_mesh.theta, geom.K, geom.lam
        q_fn = lambda th: np.interp(th, nodes, qv)
        lam_fn = lambda th: np.interp(th, nodes, lv)

    return ManufacturedF(mesh=mesh, q_fn=q_fn, lam_fn=lam_fn, exponent=2, profile=spec.profile)


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
    def all_passed(self) -> bool:
        return (self.inner_barrier.passed and self.outer_barrier.passed
                and self.radial_monotonicity.passed)

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
    """(extreme value, (r, th, ph, nur) where attained) over the sample tensor."""
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
    finite-difference noise is flagged boundary_case.
    """
    th, ph = _angular_samples(spec, samples)
    nur = np.linspace(1.0 / samples, 1.0, samples)
    r_lo, r_hi = spec.profile.domain
    width = spec.r2 - spec.r1
    pad = 1e-3 * (r_hi - r_lo)

    def f_on(r_grid):
        R = r_grid[:, None, None]
        TH = th[None, :, None]
        PH = ph[None, :, None]
        NU = nur[None, None, :]
        return eval_f(spec.f, R, TH, PH, NU), R

    def barrier(name, r_grid, inner_side):
        """f > threshold on the inner side, f < threshold on the outer side."""
        f_val, R = f_on(r_grid)
        thr = threshold(spec.profile, R)
        gap = f_val - thr if inner_side else thr - f_val
        m, at = _worst(gap / thr, r_grid, th, ph, nur, minimize=True)
        return AssumptionResult(name, m > STRICT_TOL, m, at, boundary_case=abs(m) <= STRICT_TOL)

    inner = barrier("inner_barrier",
                    np.linspace(max(r_lo + pad, spec.r1 - width), spec.r1, samples), True)
    outer = barrier("outer_barrier",
                    np.linspace(spec.r2, min(r_hi - pad, spec.r2 + width), samples), False)

    # radial monotonicity: d/dr (lambda^2 f) <= 0 on (r1, r2)
    h = FD_STEP_R
    r_mid = np.linspace(spec.r1 + 2 * h, spec.r2 - 2 * h, samples)

    def g_on(r_grid):
        vals, R = f_on(r_grid)
        lam, _ = spec.profile.eval_lambda(R)
        return vals * lam ** 2

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
