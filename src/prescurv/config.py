"""Flat key=value configuration ingestion.

One `key = value` pair per line, `#` comments, dotted section keys
(warp.*, mesh.*, problem.*, phi.*, f.*, solver.*, monitor.*, verify.*).
Builders turn the raw mapping into WarpProfile / SphereMesh / ProblemSpec /
SolverOptions, raising ConfigError with the offending key on bad input.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, FParseError
from .mesh import ScalarField, SphereMesh, build_mesh
from .problem import ProblemSpec, manufacture_f, parse_f
from .solver import SolverOptions
from .symm import QuotientOrder
from .warp import WarpProfile

DEFAULTS = {
    "mesh.n_theta": "64",
    "mesh.n_phi": "32",
    "mesh.reduced": "false",
    "problem.k": "2",
    "problem.l": "0",
    "phi.c": "1.0",
    "solver.newton_tol": "1e-10",
    "solver.max_newton": "30",
    "solver.t_step_init": "0.1",
    "solver.t_step_min": "1e-3",
    "monitor.alpha": "1.0",
    "monitor.A": "1.0",
    "monitor.gamma_arg": "capital_lambda",
    "verify.r_expr": "1 + 0.1*cos(th)",
    "verify.n_theta": "128",
    "verify.n_phi": "64",
    "verify.tol_oracle": "1e-5",
    "verify.tol_identities": "1e-4",
    "check.samples": "12",
}


def parse_config(source: str) -> dict:
    """Parse config text, or a path to a config file, into a key->string map."""
    if "\n" not in source and os.path.exists(source):
        with open(source) as fh:
            text = fh.read()
    else:
        text = source
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value", key=key or None)
        out[key] = value
    return out


def _get(cfg, key, default=None):
    if key in cfg:
        return cfg[key]
    if default is not None:
        return default
    if key in DEFAULTS:
        return DEFAULTS[key]
    raise ConfigError(f"missing required config key {key!r}", key=key)


def _get_float(cfg, key, default=None):
    raw = _get(cfg, key, default)
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r} is not a number: {raw!r}", key=key)


def _get_int(cfg, key, default=None):
    raw = _get(cfg, key, default)
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r} is not an integer: {raw!r}", key=key)


def _get_bool(cfg, key, default=None):
    raw = _get(cfg, key, default).lower()
    if raw in ("true", "yes", "1"):
        return True
    if raw in ("false", "no", "0"):
        return False
    raise ConfigError(f"config key {key!r} is not a boolean: {raw!r}", key=key)


def build_profile(cfg) -> WarpProfile:
    kind = _get(cfg, "warp.kind")
    domain_raw = _get(cfg, "warp.domain")
    try:
        r_lo, r_hi = (float(x) for x in domain_raw.split(","))
    except ValueError:
        raise ConfigError(f"warp.domain must be 'r_lo,r_hi', got {domain_raw!r}", key="warp.domain")
    try:
        if kind == "custom":
            coeffs_raw = _get(cfg, "warp.coeffs")
            coeffs = [float(x) for x in coeffs_raw.split(",")]
            return WarpProfile.custom(coeffs, (r_lo, r_hi))
        return WarpProfile(kind, (r_lo, r_hi))
    except ValueError as exc:
        raise ConfigError(str(exc), key="warp.kind")


def build_mesh_from(cfg) -> SphereMesh:
    reduced = _get_bool(cfg, "mesh.reduced")
    n_theta = _get_int(cfg, "mesh.n_theta")
    try:
        if reduced:
            return build_mesh(n_theta, reduced=True)
        return build_mesh(n_theta, _get_int(cfg, "mesh.n_phi"))
    except ValueError as exc:
        raise ConfigError(str(exc), key="mesh.n_theta")


def _load_target_csv(path: str, mesh: SphereMesh) -> ScalarField:
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read target CSV {path!r}: {exc}", key="f.manufactured")
    if data.shape[1] < 3:
        raise ConfigError("target CSV needs columns theta,phi,value", key="f.manufactured")
    if data.shape[0] != mesh.n_nodes:
        raise ConfigError(
            f"target CSV has {data.shape[0]} rows, mesh has {mesh.n_nodes} nodes",
            key="f.manufactured",
        )
    theta = data[:, 0].reshape(mesh.shape)
    if not np.allclose(theta, mesh.theta_grid(), atol=1e-9):
        raise ConfigError("target CSV colatitudes do not match the mesh", key="f.manufactured")
    try:
        return ScalarField(mesh, data[:, 2].reshape(mesh.shape))
    except ValueError as exc:
        raise ConfigError(f"target CSV values: {exc}", key="f.manufactured")


# ProblemSpec's ValueError messages start with the quantity they reject
_SPEC_KEYS = (("quotient order", "problem.k"), ("annulus", "warp.domain"),
              ("phi_rm", "phi.rm"), ("phi_c", "phi.c"))


def build_problem(cfg, mesh: SphereMesh = None):
    """(ProblemSpec, mesh, SolverOptions) from a parsed config map."""
    profile = build_profile(cfg)
    if mesh is None:
        mesh = build_mesh_from(cfg)
    k = _get_int(cfg, "problem.k")
    l = _get_int(cfg, "problem.l")
    try:
        q = QuotientOrder(k, l)
    except ValueError as exc:
        raise ConfigError(str(exc), key="problem.k")
    r1 = _get_float(cfg, "problem.r1")
    r2 = _get_float(cfg, "problem.r2")
    if not r1 < r2:
        raise ConfigError(f"problem.r1 = {r1} must be < problem.r2 = {r2}", key="problem.r1")
    phi_rm = _get_float(cfg, "phi.rm", default=str(0.5 * (r1 + r2)))
    phi_c = _get_float(cfg, "phi.c")

    try:
        base = ProblemSpec(q, profile, parse_f("1"), r1, r2, phi_rm, phi_c)
    except ValueError as exc:
        key = next((key for head, key in _SPEC_KEYS if str(exc).startswith(head)), None)
        raise ConfigError(str(exc), key=key)

    sources = [key for key in ("f.expr", "f.builtin", "f.manufactured") if key in cfg]
    if len(sources) != 1:
        raise ConfigError(
            f"exactly one of f.expr / f.builtin / f.manufactured required, got {sources}",
            key="f.expr",
        )
    src = sources[0]
    if src == "f.expr":
        try:
            f = parse_f(cfg["f.expr"])
        except FParseError as exc:
            raise ConfigError(f"f.expr: {exc}", key="f.expr")
    elif src == "f.builtin":
        if cfg["f.builtin"] != "round_exponential":
            raise ConfigError(f"unknown builtin {cfg['f.builtin']!r}", key="f.builtin")
        from .problem import RoundExponentialF

        f = RoundExponentialF(rm=_get_float(cfg, "f.rm"), alpha=_get_float(cfg, "f.alpha"),
                              profile=profile, q=q)
    else:
        target = _load_target_csv(cfg["f.manufactured"], mesh)
        f = manufacture_f(base, mesh, target)

    spec = replace(base, f=f)
    try:
        opts = SolverOptions(
            newton_tol=_get_float(cfg, "solver.newton_tol"),
            max_newton=_get_int(cfg, "solver.max_newton"),
            t_step_init=_get_float(cfg, "solver.t_step_init"),
            t_step_min=_get_float(cfg, "solver.t_step_min"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), key="solver.newton_tol")
    return spec, mesh, opts


@dataclass(frozen=True)
class MonitorParams:
    alpha: float
    big_a: float
    gamma_arg: str


def build_monitor_params(cfg, alpha_override=None, big_a_override=None) -> MonitorParams:
    gamma_arg = _get(cfg, "monitor.gamma_arg")
    if gamma_arg not in ("capital_lambda", "r"):
        raise ConfigError(f"monitor.gamma_arg must be capital_lambda or r, got {gamma_arg!r}",
                          key="monitor.gamma_arg")
    alpha = alpha_override if alpha_override is not None else _get_float(cfg, "monitor.alpha")
    big_a = big_a_override if big_a_override is not None else _get_float(cfg, "monitor.A")
    return MonitorParams(alpha=alpha, big_a=big_a, gamma_arg=gamma_arg)
