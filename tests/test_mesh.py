import numpy as np
import pytest

from prescurv.mesh import (
    ScalarField,
    build_mesh,
    dphi,
    dphi2,
    dtheta,
    dtheta2,
    field_from_function,
    frame_derivatives,
    integrate,
    stencil_footprint,
)


def test_node_counts():
    assert build_mesh(32, 64).n_nodes == 2048
    assert build_mesh(64, reduced=True).n_nodes == 64


def test_resolution_bounds():
    with pytest.raises(ValueError):
        build_mesh(8, 64)
    with pytest.raises(ValueError):
        build_mesh(32, 3)
    with pytest.raises(ValueError):
        build_mesh(32, 5)  # odd azimuth breaks the through-pole closure


def test_total_quadrature_weight():
    mesh = build_mesh(32, 64)
    assert abs(float(mesh.weights.sum()) - 4 * np.pi) <= 1e-3


def test_field_validation():
    mesh = build_mesh(16, 4)
    with pytest.raises(ValueError):
        ScalarField(mesh, np.ones((16, 8)))
    bad = np.ones((16, 4))
    bad[3, 1] = np.nan
    with pytest.raises(ValueError):
        ScalarField(mesh, bad)


def test_gradient_oracles():
    mesh = build_mesh(64, 128)
    th, ph = mesh.theta_grid(), mesh.phi_grid()
    r1, r2 = frame_derivatives(ScalarField(mesh, np.full(mesh.shape, 2.3)))[:2]
    assert np.abs(r1).max() <= 1e-12
    assert np.abs(r2).max() <= 1e-12  # azimuthal roundoff over sin(theta)
    r1, r2 = frame_derivatives(ScalarField(mesh, np.cos(th)))[:2]
    assert np.abs(r1 + np.sin(th)).max() <= 1e-6
    assert np.abs(r2).max() <= 1e-12
    r1, r2 = frame_derivatives(ScalarField(mesh, np.sin(th) * np.cos(ph)))[:2]
    assert np.abs(r2 + np.sin(ph)).max() <= 1e-6


def test_hessian_oracles():
    mesh = build_mesh(64, 128)
    th, ph = mesh.theta_grid(), mesh.phi_grid()
    h11, h12, h22 = frame_derivatives(ScalarField(mesh, np.full(mesh.shape, -1.7)))[2:]
    for h in (h11, h12, h22):
        assert np.abs(h).max() <= 1e-11  # roundoff under the 1/sin factors
    # cos(theta) satisfies hess = -cos(theta) * (round metric)
    h11, h12, h22 = frame_derivatives(ScalarField(mesh, np.cos(th)))[2:]
    assert np.abs(h11 + np.cos(th)).max() <= 1e-6
    assert np.abs(h22 + np.cos(th)).max() <= 1e-6
    assert np.abs(h12).max() <= 1e-10
    # degree-1 spherical harmonic: trace of the Hessian is -2 times the field
    f = np.sin(th) * np.cos(ph)
    h11, h12, h22 = frame_derivatives(ScalarField(mesh, f))[2:]
    assert np.abs(h11 + h22 + 2 * f).max() <= 1e-5


def continued(mesh, i, j):
    """(source row, source column, crossed a pole) of extended node (i, j).

    Columns are periodic; a row past a pole continues to the antipodal
    column (full mesh) or mirrors back (reduced mesh)."""
    n, m = mesh.n_theta, mesh.n_phi
    if 0 <= i < n:
        return i, j % m if m else 0, False
    row = -1 - i if i < 0 else 2 * n - 1 - i
    return row, (j + m // 2) % m if m else 0, True


@pytest.mark.parametrize("shape", [(16, 4), (20, 10), (16, None)])
def test_stencils_and_footprint_follow_the_continuation_rule(shape):
    """Bit-exact against loops over the documented rule, on a non-smooth field."""
    mesh = build_mesh(shape[0], shape[1], reduced=shape[1] is None)
    vals = np.random.default_rng(7).standard_normal(mesh.shape)
    grid = vals.reshape(mesh.n_theta, -1)
    width = grid.shape[1]

    def at(i, j, parity=1):
        row, col, crossed = continued(mesh, i, j)
        return (parity if crossed else 1) * grid[row, col]

    def expect(formula):
        return np.array([[formula(i, j) for j in range(width)]
                         for i in range(mesh.n_theta)]).reshape(mesh.shape)

    ht, hp = mesh.dtheta, mesh.dphi
    for parity in (1, -1):
        e = lambda i, j: at(i, j, parity)
        d1 = expect(lambda i, j: (e(i - 2, j) - 8.0 * e(i - 1, j) + 8.0 * e(i + 1, j)
                                  - e(i + 2, j)) / (12.0 * ht))
        d2 = expect(lambda i, j: (-e(i - 2, j) + 16.0 * e(i - 1, j) - 30.0 * e(i, j)
                                  + 16.0 * e(i + 1, j) - e(i + 2, j)) / (12.0 * ht ** 2))
        assert np.array_equal(dtheta(mesh, vals, parity), d1)
        assert np.array_equal(dtheta2(mesh, vals, parity), d2)
    if mesh.reduced:
        assert not dphi(mesh, vals).any() and not dphi2(mesh, vals).any()
    else:
        p1 = expect(lambda i, j: (-at(i, j - 3) + 9.0 * at(i, j - 2) - 45.0 * at(i, j - 1)
                                  + 45.0 * at(i, j + 1) - 9.0 * at(i, j + 2) + at(i, j + 3))
                    / (60.0 * hp))
        p2 = expect(lambda i, j: (2.0 * (at(i, j - 3) + at(i, j + 3))
                                  - 27.0 * (at(i, j - 2) + at(i, j + 2))
                                  + 270.0 * (at(i, j - 1) + at(i, j + 1))
                                  - 490.0 * at(i, j)) / (180.0 * hp ** 2))
        assert np.array_equal(dphi(mesh, vals), p1)
        assert np.array_equal(dphi2(mesh, vals), p2)

    reach = range(-3, 4) if width > 1 else [0]
    pairs = set()
    for i in range(mesh.n_theta):
        for j in range(width):
            for di in range(-2, 3):
                for dj in reach:
                    row, col, _ = continued(mesh, i + di, j + dj)
                    pairs.add((i * width + j, row * width + col))
    want = np.array(sorted(pairs, key=lambda p: (p[1], p[0]))).T
    rows, cols = stencil_footprint(mesh)
    assert np.array_equal(rows, want[0]) and np.array_equal(cols, want[1])


def smooth_test_errors(n_theta):
    mesh = build_mesh(n_theta, 2 * n_theta)
    th, ph = mesh.theta_grid(), mesh.phi_grid()
    field = ScalarField(mesh, np.sin(th) * np.cos(ph) + 0.3 * np.cos(th) ** 2)
    r1, r2, h11, h12, h22 = frame_derivatives(field)
    a1 = np.cos(th) * np.cos(ph) - 0.6 * np.cos(th) * np.sin(th)
    a2 = -np.sin(ph)
    a11 = -np.sin(th) * np.cos(ph) + 0.6 * (np.sin(th) ** 2 - np.cos(th) ** 2)
    a22 = -np.sin(th) * np.cos(ph) - 0.6 * np.cos(th) ** 2
    return np.array([
        np.abs(r1 - a1).max(),
        np.abs(r2 - a2).max(),
        np.abs(h11 - a11).max(),
        np.abs(h22 - a22).max(),
    ])


def test_convergence_factor_under_doubling():
    """Max-norm derivative errors drop by >= 8 per doubling (nominal 16)."""
    e16, e32, e64 = smooth_test_errors(16), smooth_test_errors(32), smooth_test_errors(64)
    assert np.all(e16 / e32 >= 8.0)
    assert np.all(e32 / e64 >= 8.0)


def test_mixed_hessian_symmetry():
    """d_theta-then-d_phi agrees with d_phi-then-d_theta at truncation level."""
    def sym_gap(n_theta):
        mesh = build_mesh(n_theta, 2 * n_theta)
        th, ph = mesh.theta_grid(), mesh.phi_grid()
        vals = np.sin(th) * np.cos(th) * np.cos(ph)
        h12 = frame_derivatives(ScalarField(mesh, vals))[3]
        sin = np.sin(mesh.theta)[:, None]
        cot = (np.cos(mesh.theta) / np.sin(mesh.theta))[:, None]
        other = dphi(mesh, dtheta(mesh, vals)) / sin - cot / sin * dphi(mesh, vals)
        return np.abs(h12 - other).max()

    g32, g64 = sym_gap(32), sym_gap(64)
    assert g32 <= 2e-3
    assert g64 <= 3e-4
    assert g32 / g64 >= 6.0


def test_reduced_matches_full_on_axisymmetric_fields():
    full = build_mesh(48, 96)
    red = build_mesh(48, reduced=True)
    fn = lambda th: 1 + 0.1 * np.cos(th) + 0.05 * np.cos(th) ** 3
    f_full = ScalarField(full, np.broadcast_to(fn(full.theta)[:, None], full.shape).copy())
    f_red = ScalarField(red, fn(red.theta))
    for a, b in zip(frame_derivatives(f_full), frame_derivatives(f_red)):
        assert np.abs(a[:, 0] - b).max() <= 1e-10


def test_integrate_examples():
    mesh = build_mesh(32, 64)
    assert integrate(ScalarField(mesh, np.ones(mesh.shape))) == pytest.approx(4 * np.pi, abs=1e-3)
    assert abs(integrate(field_from_function(mesh, lambda t, p: np.cos(t)))) <= 1e-10
    fine = build_mesh(128, 16)
    got = integrate(field_from_function(fine, lambda t, p: np.cos(t) ** 2))
    assert got == pytest.approx(4 * np.pi / 3, abs=1e-3)


def test_reduced_integrate_covers_full_sphere():
    red = build_mesh(64, reduced=True)
    assert integrate(ScalarField(red, np.ones(64))) == pytest.approx(4 * np.pi, abs=1e-3)
