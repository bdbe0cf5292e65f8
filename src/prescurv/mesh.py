"""Structured discretization of the round 2-sphere.

Colatitude nodes are staggered off the poles (theta_j = (j+1/2) pi/n_theta);
azimuth is periodic.  Colatitude derivatives are 4th-order centered stencils
that continue through the pole to the antipodal column, with a sign flip for
fields that are odd under that continuation (frame vector components).
Azimuthal derivatives use 6th-order centered stencils: they cost nothing
extra under periodicity and keep the 1/sin(theta)-amplified terms at the
pole rows from dominating the overall (colatitude-limited) 4th-order error.
The reduced mode keeps only the colatitude line for axisymmetric fields.
One cached ghost map per mesh shape holds both continuations; the stencils
and the Jacobian footprint read it.  frame_derivatives gives the
orthonormal-frame gradient and covariant Hessian of a field in one pass
that applies each stencil it needs once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass(frozen=True)
class SphereMesh:
    n_theta: int
    n_phi: int          # 0 in reduced mode
    reduced: bool
    theta: np.ndarray   # (n_theta,)
    phi: np.ndarray     # (n_phi,) or empty
    dtheta: float
    dphi: float         # 0.0 in reduced mode
    weights: np.ndarray  # quadrature weights per node, sums to 4*pi

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


def build_mesh(n_theta: int, n_phi: int = None, reduced: bool = False) -> SphereMesh:
    """Build a staggered colatitude/azimuth mesh.

    The colatitude quadrature weight is the exact cell integral of sin(theta)
    (= sin(theta_j) * 2 sin(dtheta/2), i.e. sin(theta) dtheta up to O(dtheta^2)),
    so the total weight is 4*pi to roundoff.
    """
    if n_theta < 16:
        raise ValueError("n_theta must be >= 16")
    dtheta = np.pi / n_theta
    theta = (np.arange(n_theta) + 0.5) * dtheta
    w_theta = 2.0 * np.sin(theta) * np.sin(0.5 * dtheta)
    if reduced:
        weights = w_theta * 2.0 * np.pi
        return SphereMesh(n_theta, 0, True, theta, np.empty(0), dtheta, 0.0, weights)
    if n_phi is None or n_phi < 4 or n_phi % 2 != 0:
        raise ValueError("n_phi must be an even integer >= 4")
    dphi = 2.0 * np.pi / n_phi
    phi = np.arange(n_phi) * dphi
    weights = np.broadcast_to((w_theta * dphi)[:, None], (n_theta, n_phi)).copy()
    return SphereMesh(n_theta, n_phi, False, theta, phi, dtheta, dphi, weights)


@dataclass(frozen=True)
class ScalarField:
    mesh: SphereMesh
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.mesh.shape:
            raise ValueError(f"field shape {v.shape} != mesh shape {self.mesh.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field has non-finite values")
        object.__setattr__(self, "values", v)

    def flat(self):
        return self.values.ravel()


def field_from_function(mesh: SphereMesh, fn) -> ScalarField:
    """Sample fn(theta, phi) on the mesh nodes."""
    return ScalarField(mesh, np.asarray(fn(mesh.theta_grid(), mesh.phi_grid()), dtype=float))


def field_from_flat(mesh: SphereMesh, vec) -> ScalarField:
    return ScalarField(mesh, np.asarray(vec, dtype=float).reshape(mesh.shape))


# -- stencil machinery -------------------------------------------------------

@functools.cache
def _ghost_map(n_theta: int, n_phi: int):
    """Read-only (src, sign): source node and odd-parity sign of each extended cell.

    The field gains 2 rows past each pole and, on a full mesh (n_phi > 0), 3
    periodic columns a side.  A row past a pole continues to the antipodal
    column (full mesh) or mirrors back (reduced mesh), where sign is -1.
    """
    rows = np.arange(-2, n_theta + 2)
    across = (rows < 0) | (rows >= n_theta)
    src = np.where(rows < 0, -1 - rows, np.where(across, 2 * n_theta - 1 - rows, rows))
    sign = np.where(across, -1.0, 1.0)
    if n_phi:
        cols = (np.arange(-3, n_phi + 3) + (n_phi // 2) * across[:, None]) % n_phi
        src, sign = src[:, None] * n_phi + cols, sign[:, None]
    src.flags.writeable = sign.flags.writeable = False
    return src, sign


def _pole_rows(mesh: SphereMesh, vals: np.ndarray, parity: int) -> np.ndarray:
    """vals on rows -2 .. n_theta+1; parity -1 flips the sign past a pole."""
    src, sign = _ghost_map(mesh.n_theta, mesh.n_phi)
    e = vals.ravel()[src if mesh.reduced else src[:, 3:-3]]
    return e if parity == 1 else sign * e


def dtheta(mesh: SphereMesh, vals: np.ndarray, parity: int = 1) -> np.ndarray:
    """4th-order d/dtheta with through-pole closure."""
    e = _pole_rows(mesh, vals, parity)
    return (e[:-4] - 8.0 * e[1:-3] + 8.0 * e[3:-1] - e[4:]) / (12.0 * mesh.dtheta)


def dtheta2(mesh: SphereMesh, vals: np.ndarray, parity: int = 1) -> np.ndarray:
    """4th-order d^2/dtheta^2 with through-pole closure."""
    e = _pole_rows(mesh, vals, parity)
    return (-e[:-4] + 16.0 * e[1:-3] - 30.0 * e[2:-2] + 16.0 * e[3:-1] - e[4:]) / (
        12.0 * mesh.dtheta ** 2
    )


def dphi(mesh: SphereMesh, vals: np.ndarray) -> np.ndarray:
    """6th-order periodic d/dphi (zero in reduced mode)."""
    if mesh.reduced:
        return np.zeros_like(vals)
    e = vals.ravel()[_ghost_map(mesh.n_theta, mesh.n_phi)[0][2:-2]]  # columns -3 .. n_phi+2
    return (
        -e[:, :-6] + 9.0 * e[:, 1:-5] - 45.0 * e[:, 2:-4]
        + 45.0 * e[:, 4:-2] - 9.0 * e[:, 5:-1] + e[:, 6:]
    ) / (60.0 * mesh.dphi)


def dphi2(mesh: SphereMesh, vals: np.ndarray) -> np.ndarray:
    if mesh.reduced:
        return np.zeros_like(vals)
    e = vals.ravel()[_ghost_map(mesh.n_theta, mesh.n_phi)[0][2:-2]]
    return (
        2.0 * (e[:, :-6] + e[:, 6:])
        - 27.0 * (e[:, 1:-5] + e[:, 5:-1])
        + 270.0 * (e[:, 2:-4] + e[:, 4:-2])
        - 490.0 * e[:, 3:-3]
    ) / (180.0 * mesh.dphi ** 2)


def stencil_footprint(mesh: SphereMesh):
    """Node pairs (rows, cols), flat indices, where node `cols` enters the stencils at `rows`.

    A node reads the 5 colatitude rows i-2..i+2 and, in full mode, the 7
    azimuth columns j-3..j+3 (the colatitude stencil of the azimuthal
    derivative in r_12 spans the whole 5 x 7 block): a sliding window over
    the ghost map of the stencils.  Pairs are unique and sorted by column,
    then row.
    """
    window = (5,) if mesh.reduced else (5, 7)
    source = sliding_window_view(_ghost_map(mesh.n_theta, mesh.n_phi)[0], window)
    target = np.arange(mesh.n_nodes).reshape(mesh.shape + (1,) * len(window))
    pairs = np.unique(source * mesh.n_nodes + target)
    return pairs % mesh.n_nodes, pairs // mesh.n_nodes


# -- frame derivatives -------------------------------------------------------

def frame_derivatives(field: ScalarField):
    """Orthonormal-frame gradient and covariant Hessian components of a field.

    Returns plain arrays (r_1, r_2, r_11, r_12, r_22) in the frame
    (d_theta, (1/sin) d_phi).  d_theta r and the frame component
    r_2 = (1/sin) d_phi r are computed once each and reused: r_12 is d_theta
    of r_2 (odd through the pole), which equals
    (1/sin) d_theta d_phi - (cos/sin^2) d_phi and stays 4th-order accurate at
    the pole rows, and r_22 = (1/sin^2) d_phi^2 + cot d_theta.
    """
    mesh, v = field.mesh, field.values
    r1 = dtheta(mesh, v)
    r11 = dtheta2(mesh, v)
    cot = np.cos(mesh.theta) / np.sin(mesh.theta)
    if mesh.reduced:
        zero = np.zeros_like(v)
        return r1, zero, r11, zero, cot * r1
    sin = np.sin(mesh.theta)[:, None]
    r2 = dphi(mesh, v) / sin
    r12 = dtheta(mesh, r2, parity=-1)
    r22 = dphi2(mesh, v) / sin ** 2 + cot[:, None] * r1
    return r1, r2, r11, r12, r22


def integrate(field: ScalarField) -> float:
    """Quadrature-weighted sum over the sphere."""
    return float(np.sum(field.values * field.mesh.weights))
