"""Flat key=value configuration ingestion.

One `key = value` pair per line, `#` comments, dotted section keys
(warp.*, mesh.*, problem.*, phi.*, f.*, solver.*, verify.*).
Builders turn the raw mapping into WarpProfile / SphereMesh / ProblemSpec /
SolverOptions and the inputs of each subcommand, raising ConfigError with the
offending key on bad input.  A key outside KNOWN_KEYS is a ConfigError too: a
typo must not run the defaults.  So is a key set on two lines: neither value
may silently win.  No other module reads a config key, and a value no run
changes is a constant of the module that reads it, not a key.
"""

from __future__ import annotations

import contextlib
import os
import warnings
from dataclasses import replace

import numpy as np

from .errors import AdmissibilityError, ConfigError, DomainViolation, FParseError, ProfileViolation
from .mesh import ScalarField, SphereMesh, build_mesh, field_from_function
from .problem import ProblemSpec, manufacture_f, parse_f
from .solver import SolverOptions
from .warp import WarpProfile

DEFAULTS = {
    "mesh.n_theta": "64",
    "mesh.n_phi": "32",
    "mesh.reduced": "false",
    "problem.k": "2",
    "problem.l": "0",
    "solver.newton_tol": "1e-10",
    "solver.t_step_init": "0.1",
    "verify.r_expr": "1 + 0.1*cos(th)",
}

# every key a builder or subcommand reads: the defaulted ones plus those read
# without a default (required, or required by the choice of another key)
KNOWN_KEYS = frozenset(DEFAULTS) | {
    "warp.kind", "warp.domain", "warp.coeffs", "problem.r1", "problem.r2", "phi.rm",
    "f.expr", "f.manufactured",
}


def check_key(key: str):
    """Raise ConfigError unless `key` is one of KNOWN_KEYS."""
    if key not in KNOWN_KEYS:
        raise ConfigError(f"unknown config key {key!r}", key=key)


def parse_config(source: str) -> dict:
    """Parse config text, or a path to a config file, into a key->string map, each key once."""
    if "\n" not in source and os.path.isfile(source):
        try:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file is not UTF-8 text: {source} (byte {exc.start})")
    else:
        text = source
    out, set_on = {}, {}
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
        check_key(key)
        if key in set_on:
            raise ConfigError(f"line {lineno}: {key} is already set on line {set_on[key]}", key=key)
        out[key], set_on[key] = value, lineno
    return out


def _get(cfg, key):
    if key in cfg:
        return cfg[key]
    if key in DEFAULTS:
        return DEFAULTS[key]
    raise ConfigError(f"missing required config key {key!r}", key=key)


def _get_float(cfg, key):
    raw = _get(cfg, key)
    try:
        if np.isfinite(value := float(raw)):
            return value
    except ValueError:
        pass
    raise ConfigError(f"config key {key!r} is not a finite number: {raw!r}", key=key)


def _get_int(cfg, key):
    raw = _get(cfg, key)
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r} is not an integer: {raw!r}", key=key)


def _get_bool(cfg, key):
    raw = _get(cfg, key).lower()
    if raw in ("true", "yes", "1"):
        return True
    if raw in ("false", "no", "0"):
        return False
    raise ConfigError(f"config key {key!r} is not a boolean: {raw!r}", key=key)


@contextlib.contextmanager
def _keyed(section):
    """Turn a ValueError into a ConfigError on section.<first word of its message>.

    build_mesh, WarpProfile and SolverOptions start each ValueError message
    with the parameter it rejects, which is also the key's name in `section`.
    """
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc), key=f"{section}.{str(exc).split()[0]}")


def build_profile(cfg) -> WarpProfile:
    kind = _get(cfg, "warp.kind")
    domain_raw = _get(cfg, "warp.domain")
    try:
        r_lo, r_hi = (float(x) for x in domain_raw.split(","))
    except ValueError:
        raise ConfigError(f"warp.domain must be 'r_lo,r_hi', got {domain_raw!r}", key="warp.domain")
    try:
        coeffs = tuple(map(float, _get(cfg, "warp.coeffs").split(","))) if kind == "custom" else ()
    except ValueError:
        raise ConfigError("warp.coeffs must be comma-separated numbers", key="warp.coeffs")
    with _keyed("warp"):
        return WarpProfile(kind, (r_lo, r_hi), coeffs)


def build_mesh_from(cfg) -> SphereMesh:
    reduced = _get_bool(cfg, "mesh.reduced")
    n_theta = _get_int(cfg, "mesh.n_theta")
    n_phi = None if reduced else _get_int(cfg, "mesh.n_phi")
    with _keyed("mesh"):
        return build_mesh(n_theta, n_phi, reduced)


def _load_target_csv(path: str, mesh: SphereMesh) -> ScalarField:
    try:
        with warnings.catch_warnings():  # a file with no rows: the row count below names it
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read target CSV {path!r}: {exc}", key="f.manufactured")
    if data.shape[0] != mesh.n_nodes:
        raise ConfigError(
            f"target CSV has {data.shape[0]} rows, mesh has {mesh.n_nodes} nodes",
            key="f.manufactured",
        )
    if data.shape[1] < 3:
        raise ConfigError("target CSV needs columns theta,phi,value", key="f.manufactured")
    for col, name, grid in ((0, "colatitudes", mesh.theta_grid()), (1, "azimuths", mesh.phi_grid())):
        if not np.allclose(data[:, col].reshape(mesh.shape), grid, atol=1e-9):
            raise ConfigError(f"target CSV {name} do not match the mesh", key="f.manufactured")
    try:
        return ScalarField(mesh, data[:, 2].reshape(mesh.shape))
    except ValueError as exc:
        raise ConfigError(f"target CSV values: {exc}", key="f.manufactured")


# ProblemSpec's ValueError messages start with the quantity they reject
_SPEC_KEYS = (("r1", "problem.r1"), ("annulus", "warp.domain"), ("phi_rm", "phi.rm"))


def build_problem(cfg):
    """(ProblemSpec, mesh, SolverOptions) from a parsed config map."""
    profile = build_profile(cfg)
    mesh = build_mesh_from(cfg)
    # a surface admits only the order (k, l) = (2, 0); a config may still state it
    for key, want in zip(("problem.k", "problem.l"), (ProblemSpec.q.k, ProblemSpec.q.l)):
        if (got := _get_int(cfg, key)) != want:
            raise ConfigError(f"{key} = {got}: n = 2 admits only (k, l) = (2, 0)", key=key)
    r1 = _get_float(cfg, "problem.r1")
    r2 = _get_float(cfg, "problem.r2")
    phi_rm = _get_float(cfg, "phi.rm") if "phi.rm" in cfg else None  # None: ProblemSpec takes the midpoint

    try:
        base = ProblemSpec(profile, parse_f("1"), r1, r2, phi_rm)
    except ValueError as exc:
        key = next((key for head, key in _SPEC_KEYS if str(exc).startswith(head)), None)
        raise ConfigError(str(exc), key=key)

    sources = [key for key in ("f.expr", "f.manufactured") if key in cfg]
    if len(sources) != 1:
        raise ConfigError(f"exactly one of f.expr / f.manufactured required, got {sources}",
                          key="f.expr")
    if sources == ["f.expr"]:
        try:
            f = parse_f(cfg["f.expr"])
        except FParseError as exc:
            raise ConfigError(f"f.expr: {exc}", key="f.expr")
    else:
        target = _load_target_csv(cfg["f.manufactured"], mesh)
        try:
            f = manufacture_f(base, mesh, target)
        except AdmissibilityError as exc:
            raise ConfigError(f"target CSV: {exc}", key="f.manufactured")

    spec = replace(base, f=f)
    with _keyed("solver"):
        opts = SolverOptions(newton_tol=_get_float(cfg, "solver.newton_tol"),
                             t_step_init=_get_float(cfg, "solver.t_step_init"))
    return spec, mesh, opts


def build_verify(cfg):
    """verify-geometry's (profile, full, lines): the graph verify.r_expr on selftest's meshes.

    full is r on the ORACLE_MESH mesh (None off the euclidean ambient), lines is r
    on the reduced lines of REFINEMENT_LINES nodes (None for a graph that reads ph:
    their identities hold on axisymmetric graphs only).  A graph no check applies to
    is a ConfigError, and every field is formed here, so a bad input raises its
    ConfigError before any check runs.
    """
    from .selftest import ORACLE_MESH, REFINEMENT_LINES  # loaded here only, as in cli
    profile = build_profile(cfg)
    if profile.kind == "custom":
        raise ConfigError("verify-geometry checks hold on a builtin space-form warp only, "
                          "not on a custom one", key="warp.kind")
    try:
        r_expr = parse_f(_get(cfg, "verify.r_expr"))
    except FParseError as exc:
        raise ConfigError(f"verify.r_expr: {exc}", key="verify.r_expr")
    if reads := sorted(r_expr.variables - {"th", "ph"}):
        raise ConfigError(f"verify.r_expr is a graph r(th, ph) and may not read {', '.join(reads)}",
                          key="verify.r_expr")
    axisymmetric = "ph" not in r_expr.variables
    if not axisymmetric and profile.kind != "euclidean":
        raise ConfigError("verify.r_expr reads ph: off the euclidean warp no check applies to a "
                          "graph that is not axisymmetric", key="verify.r_expr")

    def field_on(mesh):
        try:
            field = field_from_function(mesh, lambda th, ph: np.broadcast_to(
                r_expr.evaluate(th, th, ph, 1.0), mesh.shape).copy())
            profile.eval_lambda(field.values)  # inside the warp domain, lambda, lambda' > 0
        except (ValueError, DomainViolation, ProfileViolation) as exc:
            raise ConfigError(f"verify.r_expr: {exc}", key="verify.r_expr")
        return field

    full = field_on(build_mesh(*ORACLE_MESH)) if profile.kind == "euclidean" else None
    if not axisymmetric:
        return profile, full, None
    return profile, full, [field_on(build_mesh(n, reduced=True)) for n in REFINEMENT_LINES]
