import numpy as np
import pytest

from prescurv.mesh import (
    ScalarField,
    build_mesh,
    dphi,
    dphi2,
    dtheta,
    dtheta2,
    frame_derivatives,
    jet_operators,
)
from dense import dense


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
    # counts numpy cannot form nodes for: the ValueError starts with the count, for config's key
    too_large = {(10 ** 20,): "n_theta = 100000000000000000000",  # past numpy's size limit
                 (2 ** 63, None, True): "n_theta = 9223372036854775808",  # past int64: empty arange
                 (16, 10 ** 20): "n_phi = 100000000000000000000",
                 (16, 2 ** 63): "n_phi = 9223372036854775808"}
    for args, count in too_large.items():
        with pytest.raises(ValueError, match=f"^{count} is too large: numpy cannot form its nodes$"):
            build_mesh(*args)


def test_memory_running_out_while_forming_nodes_names_the_count(monkeypatch):
    def arange(n):
        raise MemoryError(f"Unable to allocate an array with shape ({n},)")

    monkeypatch.setattr(np, "arange", arange)  # what a count too large for memory raises
    with pytest.raises(ValueError, match="^n_theta = 1000000000000 is too large"):
        build_mesh(10 ** 12, reduced=True)


def test_meshes_of_one_shape_are_equal_and_share_their_tables():
    a, b = build_mesh(16, 8), build_mesh(16, 8)
    assert a is not b and a == b and hash(a) == hash(b)
    assert jet_operators(b) is jet_operators(a)  # one cached tuple per shape
    assert build_mesh(16, reduced=True) != build_mesh(16, 8)
    assert build_mesh(16, reduced=True) == build_mesh(16, reduced=True)
    assert build_mesh(16, 8) != build_mesh(32, 8)


def test_fields_compare_by_identity():
    mesh = build_mesh(16, 8)
    a, b = ScalarField(mesh, np.ones(mesh.shape)), ScalarField(mesh, np.ones(mesh.shape))
    assert (a == b) is False and a == a and a != b


def test_field_validation():
    mesh = build_mesh(16, 4)
    with pytest.raises(ValueError):
        ScalarField(mesh, np.ones((16, 8)))
    for shape in ((16, 4, 3), (3, 16, 4)):  # one field, no stacks
        with pytest.raises(ValueError):
            ScalarField(mesh, np.ones(shape))
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


@pytest.mark.parametrize("shape", [(16, 4), (20, 10), (16, None), (16, 8)])
def test_stencils_and_footprint_follow_the_continuation_rule(shape):
    """Bit-exact against loops over the documented rule, on a non-smooth field.

    The jet operators store the footprint of the rule, 5 colatitude by 7
    azimuth offsets, less the pairs whose weights cancel exactly: at
    n_phi = 4 the azimuth offsets alias, and 216 pairs are left out."""
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
    rows, cols, _ = jet_operators(mesh)  # the pattern the six jet operators share
    stored = set(zip(rows.tolist(), cols.tolist()))
    assert len(stored) == rows.size and stored <= pairs
    assert len(pairs - stored) == (216 if shape == (16, 4) else 0)


@pytest.mark.parametrize("shape", [(16, 8), (16, 4), (20, 10), (16, None)])
def test_jet_operators_match_frame_derivatives(shape):
    """(I, D_1, D_2, D_11, D_12, D_22) r is (r, frame_derivatives(r)) to rounding,
    D_a being weights[a] on the shared pattern; the arrays are cached and read-only."""
    mesh = build_mesh(shape[0], shape[1], reduced=shape[1] is None)
    vals = 1.0 + 0.1 * np.random.default_rng(11).standard_normal(mesh.shape)
    ops = rows, _, weights = jet_operators(mesh)
    want = (vals,) + frame_derivatives(ScalarField(mesh, vals))
    assert weights.shape == (6, rows.size)
    for row, component in zip(weights, want):
        err = np.abs(dense(mesh, row) @ vals.ravel() - component.ravel()).max()
        assert err <= 1e-13 * max(np.abs(component).max(), 1.0)
    assert jet_operators(build_mesh(shape[0], shape[1], reduced=shape[1] is None)) is ops
    assert not any(a.flags.writeable for a in ops)


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


@pytest.mark.parametrize("shape", [(16, 8), (16, 4), (20, 10), (16, None)])
def test_frame_derivatives_is_its_documented_composition_bit_for_bit(shape):
    """frame_derivatives is d_theta r, (d_phi r)/sin, d_theta^2 r,
    d_theta((d_phi r)/sin) odd through the pole, and (d_phi^2 r)/sin^2 +
    cot d_theta r, each stencil and each product as written, on a field with
    no smoothness to hide a changed operation order."""
    mesh = build_mesh(shape[0], shape[1], reduced=shape[1] is None)
    vals = 1.0 + 0.1 * np.random.default_rng(23).standard_normal(mesh.shape)
    got = frame_derivatives(ScalarField(mesh, vals))
    cot = np.cos(mesh.theta) / np.sin(mesh.theta)
    if mesh.reduced:
        zero = np.zeros(mesh.shape)
        want = (dtheta(mesh, vals), zero, dtheta2(mesh, vals), zero, cot * dtheta(mesh, vals))
    else:
        sin = np.sin(mesh.theta)[:, None]
        r2 = dphi(mesh, vals) / sin
        want = (dtheta(mesh, vals), r2, dtheta2(mesh, vals), dtheta(mesh, r2, parity=-1),
                dphi2(mesh, vals) / sin ** 2 + cot[:, None] * dtheta(mesh, vals))
    for a, b in zip(got, want):
        assert a.shape == mesh.shape and np.array_equal(a, b)
