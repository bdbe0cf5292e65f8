"""Structured discretization of the round 2-sphere.

Colatitude nodes are staggered off the poles (theta_j = (j+1/2) pi/n_theta);
azimuth is periodic.  Colatitude derivatives are 4th-order centered stencils
that continue through the pole to the antipodal column, with a sign flip for
fields that are odd under that continuation (frame vector components).
Azimuthal derivatives use 6th-order centered stencils: they cost nothing
extra under periodicity and keep the 1/sin(theta)-amplified terms at the
pole rows from dominating the overall (colatitude-limited) 4th-order error.
The reduced mode keeps only the colatitude line for axisymmetric fields.
A mesh equals, and hashes as, any mesh of its shape (n_theta, n_phi), so each
per-shape table is a cache keyed on the mesh: the ghost map of both
continuations, the constants sin, sin^2, cot and the stencil scales, and
jet_operators.  frame_derivatives, the one definition of the 2-jet, gives the
orthonormal-frame gradient and covariant Hessian of a field, gathering the
field once per axis; jet_operators gives the same maps as the coordinates
of one shared sparse pattern and six rows of weights, column by column from
frame_derivatives, for the Jacobian.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import NonFiniteField


@dataclass(frozen=True)
class SphereMesh:
    n_theta: int
    n_phi: int                                  # 0 in reduced mode
    theta: np.ndarray = field(compare=False)    # (n_theta,)
    phi: np.ndarray = field(compare=False)      # (n_phi,) or empty
    dtheta: float = field(compare=False)
    dphi: float = field(compare=False)          # 0.0 in reduced mode

    @property
    def reduced(self):
        """Axisymmetric mode: the colatitude line only."""
        return self.n_phi == 0

    @property
    def shape(self):
        return (self.n_theta,) if self.reduced else (self.n_theta, self.n_phi)

    @property
    def n_nodes(self):
        return self.n_theta if self.reduced else self.n_theta * self.n_phi

    def theta_grid(self):
        """theta broadcast to field shape."""
        if self.reduced:
            return self.theta
        return np.broadcast_to(self.theta[:, None], self.shape)

    def phi_grid(self):
        if self.reduced:
            return np.zeros(self.n_theta)
        return np.broadcast_to(self.phi[None, :], self.shape)


def _nodes(name: str, n: int, offset, spacing: float) -> np.ndarray:
    """(i + offset) * spacing for i < n; a ValueError naming `name` if numpy cannot form them."""
    try:
        nodes = (np.arange(n) + offset) * spacing
        if nodes.size == n:  # past the int64 range, np.arange comes back empty
            return nodes
    except (ValueError, MemoryError):  # past numpy's size limit, or past memory
        pass
    raise ValueError(f"{name} = {n} is too large: numpy cannot form its nodes")


def build_mesh(n_theta: int, n_phi: int = None, reduced: bool = False) -> SphereMesh:
    """A staggered colatitude/azimuth mesh; a ValueError starts with the count it rejects."""
    if n_theta < 16:
        raise ValueError("n_theta must be >= 16")
    dtheta = np.pi / n_theta
    theta = _nodes("n_theta", n_theta, 0.5, dtheta)
    if reduced:
        return SphereMesh(n_theta, 0, theta, np.empty(0), dtheta, 0.0)
    if n_phi is None or n_phi < 4 or n_phi % 2 != 0:
        raise ValueError("n_phi must be an even integer >= 4")
    dphi = 2.0 * np.pi / n_phi
    phi = _nodes("n_phi", n_phi, 0, dphi)
    return SphereMesh(n_theta, n_phi, theta, phi, dtheta, dphi)


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Nodal values of a field on a mesh; equal only to itself."""

    mesh: SphereMesh
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.mesh.shape:
            raise ValueError(f"field shape {v.shape} != mesh shape {self.mesh.shape}")
        if not np.isfinite(v).all():
            raise NonFiniteField("field has non-finite values")
        object.__setattr__(self, "values", v)

    def flat(self):
        return self.values.ravel()


def field_from_function(mesh: SphereMesh, fn) -> ScalarField:
    """Sample fn(theta, phi) on the mesh nodes."""
    return ScalarField(mesh, np.asarray(fn(mesh.theta_grid(), mesh.phi_grid()), dtype=float))


def field_from_flat(mesh: SphereMesh, vec) -> ScalarField:
    return ScalarField(mesh, np.asarray(vec, dtype=float).reshape(mesh.shape))


# -- stencil machinery -------------------------------------------------------

# name -> (numerator weights on offsets -m..m, denominator, derivative order):
# the stencil is sum_k w_k v[i + k - m] / (denominator * spacing^order)
_WEIGHTS = {
    "dtheta": ((1.0, -8.0, 0.0, 8.0, -1.0), 12.0, 1),
    "dtheta2": ((-1.0, 16.0, -30.0, 16.0, -1.0), 12.0, 2),
    "dphi": ((-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0), 60.0, 1),
    "dphi2": ((2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0), 180.0, 2),
}
# name -> (term index, weight) of each nonzero weight; dphi2 has 4 mirror-folded terms
_TAPS = {name: tuple((k, w) for k, w in enumerate(weights[:4 if name == "dphi2" else None]) if w)
         for name, (weights, _, _) in _WEIGHTS.items()}


@functools.cache
def _ghost_map(mesh: SphereMesh):
    """Read-only (src, sign, cols): the source node of each cell of the extended mesh.

    src: rows -2 .. n_theta+1 of the mesh columns (one column when reduced);
    a row past a pole continues to the antipodal column (full mesh) or
    mirrors back (reduced), and sign is -1 there.  cols: the mesh rows with
    3 periodic columns a side (None when reduced).
    """
    n_theta, n_phi = mesh.n_theta, mesh.n_phi
    rows = np.arange(-2, n_theta + 2)
    across = (rows < 0) | (rows >= n_theta)
    src = np.where(rows < 0, -1 - rows, np.where(across, 2 * n_theta - 1 - rows, rows))[:, None]
    sign, cols = np.where(across, -1.0, 1.0)[:, None], None
    if n_phi:
        ext = src * n_phi + (np.arange(-3, n_phi + 3) + (n_phi // 2) * across[:, None]) % n_phi
        src, cols = ext[:, 3:-3], ext[2:-2]
        cols.flags.writeable = False
    src.flags.writeable = sign.flags.writeable = False
    return src, sign, cols


@functools.cache
def _shape_constants(mesh: SphereMesh):
    """Read-only (sin, sin^2, cot, scales) of a mesh shape: the colatitudes' trig (a column
    when full, to broadcast over a field) and each stencil's denominator * spacing^order."""
    column = (-1,) if mesh.reduced else (-1, 1)
    sin = np.sin(mesh.theta).reshape(column)
    cot = (np.cos(mesh.theta) / np.sin(mesh.theta)).reshape(column)
    sin2 = sin ** 2
    sin.flags.writeable = sin2.flags.writeable = cot.flags.writeable = False
    scales = {name: denominator * (mesh.dtheta if name.startswith("dtheta") else mesh.dphi) ** order
              for name, (_, denominator, order) in _WEIGHTS.items()}
    return sin, sin2, cot, MappingProxyType(scales)


def _apply(name: str, mesh: SphereMesh, terms) -> np.ndarray:
    """The stencil `name` on its shifted terms: nonzero weights only, summed left to right in place."""
    (k, w), *rest = _TAPS[name]
    total = w * terms[k]
    for k, w in rest:
        total += w * terms[k]
    total /= _shape_constants(mesh)[3][name]
    return total


def _theta_rows(mesh: SphereMesh, vals: np.ndarray, parity: int) -> list:
    """vals shifted by colatitude offsets -2 .. 2, one gather; parity -1 negates past a pole."""
    src, sign, _ = _ghost_map(mesh)
    e = vals.ravel()[src]
    e = e if parity == 1 else sign * e
    return [e[k:k + mesh.n_theta] for k in range(5)]


def _phi_columns(mesh: SphereMesh, vals: np.ndarray) -> list:
    """vals shifted by azimuth offsets -3 .. 3, each shaped like the mesh, one gather."""
    e = vals.ravel()[_ghost_map(mesh)[2]]
    return [e[:, k:k + mesh.n_phi] for k in range(7)]


def _fold_mirrors(e: list) -> list:
    """The 7 azimuth shifts folded onto dphi2's 4 terms: mirror offsets are added first."""
    return [e[k] + e[6 - k] for k in range(3)] + [e[3]]


def dtheta(mesh: SphereMesh, vals: np.ndarray, parity: int = 1) -> np.ndarray:
    """4th-order d/dtheta with through-pole closure."""
    return _apply("dtheta", mesh, _theta_rows(mesh, vals, parity)).reshape(vals.shape)


def dtheta2(mesh: SphereMesh, vals: np.ndarray, parity: int = 1) -> np.ndarray:
    """4th-order d^2/dtheta^2 with through-pole closure."""
    return _apply("dtheta2", mesh, _theta_rows(mesh, vals, parity)).reshape(vals.shape)


def dphi(mesh: SphereMesh, vals: np.ndarray) -> np.ndarray:
    """6th-order periodic d/dphi (zero in reduced mode)."""
    if mesh.reduced:
        return np.zeros_like(vals)
    return _apply("dphi", mesh, _phi_columns(mesh, vals))


def dphi2(mesh: SphereMesh, vals: np.ndarray) -> np.ndarray:
    """6th-order periodic d^2/dphi^2 (zero in reduced mode); mirror offsets are added first."""
    if mesh.reduced:
        return np.zeros_like(vals)
    return _apply("dphi2", mesh, _fold_mirrors(_phi_columns(mesh, vals)))


@functools.cache
def jet_operators(mesh: SphereMesh) -> tuple:
    """Read-only (rows, cols, weights) of the maps from r to its 2-jet, cached per mesh shape.

    The maps (I, D_1, D_2, D_11, D_12, D_22) share one pattern, the union of
    their nonzeros, as coordinates with each (row, col) once, column by column;
    weights, shape (6, nnz), holds their values there.  Column j of D_a is
    component a of frame_derivatives of the unit field at node j, so D_a r is
    frame_derivatives(r)'s component a up to rounding.
    """
    # Column j is the jet of the unit field at node j.  The six maps commute
    # with azimuthal rotation (the ghost map shifts every column by the same
    # offsets and the same through-pole shift n_phi/2; 1/sin and cot depend on
    # theta only), so one unit field per ring, turned, gives the ring's columns.
    n_theta, width = mesh.n_theta, max(mesh.n_phi, 1)
    rows, cols, weights = [], [], []
    for i in range(n_theta):
        unit = np.zeros(mesh.shape)
        unit.flat[i * width] = 1.0
        jet = np.stack((unit,) + frame_derivatives(ScalarField(mesh, unit))).reshape(6, n_theta, width)
        a, b = np.nonzero(jet.any(axis=0))  # the union of the six maps' entries
        rows.append((a * width + (b + np.arange(width)[:, None]) % width).ravel())  # by azimuth
        cols.append(np.repeat(np.arange(i * width, (i + 1) * width), a.size))
        weights.append(np.tile(jet[:, a, b], width))
    rows, cols, weights = np.concatenate(rows), np.concatenate(cols), np.hstack(weights)
    rows.flags.writeable = cols.flags.writeable = weights.flags.writeable = False
    return rows, cols, weights


# -- frame derivatives -------------------------------------------------------

def frame_derivatives(field: ScalarField):
    """Orthonormal-frame gradient and covariant Hessian components of a field.

    Returns plain arrays (r_1, r_2, r_11, r_12, r_22) in the frame
    (d_theta, (1/sin) d_phi), shaped like the field's values.  d_theta r and
    r_2 = (1/sin) d_phi r are computed once each and reused: r_12 is d_theta
    of r_2 (odd through the pole), which equals
    (1/sin) d_theta d_phi - (cos/sin^2) d_phi and stays 4th-order accurate at
    the pole rows, and r_22 = (1/sin^2) d_phi^2 + cot d_theta, bit for bit;
    one gather per axis serves both of its stencils.
    """
    mesh, v = field.mesh, field.values
    sin, sin2, cot, _ = _shape_constants(mesh)
    rows = _theta_rows(mesh, v, 1)
    r1 = _apply("dtheta", mesh, rows).reshape(v.shape)
    r11 = _apply("dtheta2", mesh, rows).reshape(v.shape)
    if mesh.reduced:
        zero = np.zeros_like(v)
        return r1, zero, r11, zero, cot * r1
    cols = _phi_columns(mesh, v)
    r2 = _apply("dphi", mesh, cols) / sin
    r12 = _apply("dtheta", mesh, _theta_rows(mesh, r2, -1))
    r22 = _apply("dphi2", mesh, _fold_mirrors(cols)) / sin2 + cot * r1
    return r1, r2, r11, r12, r22
