"""Fuzz `prescurv solve` over small valid configs: exit 0, 1, 3 or 4, never a traceback.

Configs use a reduced 16 or a 16x4 mesh, all four warp kinds and an f.expr
drawn from a small grammar over every variable, lambda and lambda' among them,
whose constants and functions can produce inf, nan, zero and negative values
(each constant parenthesized, so it is a valid operand of ^).  The examples
are derandomized, so the suite stays deterministic; raise max_examples and
drop derandomize to explore.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from prescurv.cli import main

WARPS = {
    "euclidean": ("0,10", (0.3, 0.9), (1.3, 2.5)),
    "spherical": ("0,1.5707963267948966", (0.3, 0.8), (1.0, 1.5)),
    "hyperbolic": ("0,10", (0.3, 0.9), (1.3, 2.5)),
    "custom": ("0,5", (0.3, 0.9), (1.3, 2.5)),
}

CONSTANTS = st.sampled_from(["0", "1", "2", "0.5", "1e-300", "1e308", "(10^400)"])
LEAVES = st.one_of(CONSTANTS, st.sampled_from(["r", "th", "ph", "nur", "lam", "dlam"]))


def _extend(children):
    unary = st.tuples(st.sampled_from(["sin", "cos", "exp", "log", "sqrt", "abs", "-"]),
                      children).map(lambda p: f"{p[0]}({p[1]})")
    binary = st.tuples(children, st.sampled_from(["+", "-", "*", "/", "^"]), children)
    return st.one_of(unary, binary.map(lambda p: f"({p[0]} {p[1]} {p[2]})"))


EXPRESSIONS = st.recursive(LEAVES, _extend, max_leaves=6)
# a perturbation of a solvable prescription, or a bare expression
F_EXPR = st.one_of(
    st.tuples(st.sampled_from(["0", "0.01", "0.05", "1"]), EXPRESSIONS).map(
        lambda p: f"1/r^2 * exp(1.25 - r) * (1 + {p[0]} * {p[1]})"),
    EXPRESSIONS,
)


@st.composite
def solve_configs(draw):
    kind = draw(st.sampled_from(sorted(WARPS)))
    domain, r1_range, r2_range = WARPS[kind]
    r1 = draw(st.floats(*r1_range))
    r2 = draw(st.floats(*r2_range))
    lines = [f"warp.kind = {kind}", f"warp.domain = {domain}",
             f"problem.r1 = {r1!r}", f"problem.r2 = {r2!r}",
             f"f.expr = {draw(F_EXPR)}", "mesh.n_theta = 16"]
    if kind == "custom":
        coeffs = draw(st.sampled_from(["0,1,0,0.16666666666666666", "0.1,1,-0.2", "0,1,-1"]))
        lines.append(f"warp.coeffs = {coeffs}")
    lines.append(draw(st.sampled_from(["mesh.reduced = true", "mesh.n_phi = 4"])))
    return "\n".join(lines) + "\n", draw(st.booleans())


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=solve_configs())
def test_solve_exits_0_to_4_without_traceback(case):
    text, force = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "case.cfg")
        with open(cfg, "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            argv = ["--config", cfg, "--out", os.path.join(tmp, "out")]
            code = main(argv + (["--force"] if force else []) + ["solve"])
    assert code in (0, 1, 3, 4)  # every config is valid: a 2 would test nothing past the config
    assert "Traceback" not in out.getvalue() + err.getvalue()
