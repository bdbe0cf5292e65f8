import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prescurv import symm
from prescurv.errors import ConeViolation, DegeneratePair
from prescurv.selftest import SEED, admissible_orders, random_cone_point, sigma_bruteforce
from prescurv.symm import (
    QuotientOrder,
    concavity_probe,
    elementary_batch,
    in_gamma_k,
    offdiag_identity_residual,
    quotient_gradient_diag,
    quotient_ratio_batch,
    quotient_value,
    sigma,
    sigma_minor,
)

# -- sigma values ------------------------------------------------------------

def test_sigma_examples():
    assert sigma((1.0, 1.0), 2) == 1.0
    assert sigma((1.0, 2.0, 3.0), 2) == pytest.approx(11.0, rel=1e-15)
    assert sigma((4.0, -2.0, 7.0), 0) == 1.0


@settings(max_examples=80)
@given(mu=st.lists(st.floats(min_value=-3, max_value=3), min_size=2, max_size=6),
       k=st.integers(min_value=0, max_value=6))
def test_sigma_matches_bruteforce_hypothesis(mu, k):
    if k > len(mu):
        return
    assert sigma(mu, k) == pytest.approx(sigma_bruteforce(mu, k), rel=1e-12, abs=1e-12)


def test_sigma_rejects_out_of_range():
    with pytest.raises(ValueError):
        sigma((1.0, 2.0), 3)
    with pytest.raises(ValueError):
        sigma((1.0, 2.0), -1)


@pytest.mark.parametrize("call,message", [
    (lambda: sigma([1.0], 1), "at least 2 eigenvalues"),
    (lambda: sigma_minor((1.0, 2.0), 0, 5), "entry index 5 out of range for n=2"),
    (lambda: in_gamma_k((1.0, 2.0), 3), "cone order 3 out of range for n=2"),
    (lambda: offdiag_identity_residual((1.0, 2.0, 3.0), QuotientOrder(3, 0), 0),
     "partner index 0 out of range"),
], ids=["sigma-one-eigenvalue", "sigma-minor-entry", "in-gamma-k-order", "offdiag-partner-0"])
def test_argument_checks_name_what_they_reject(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_sigma_minor_examples():
    assert sigma_minor((1.0, 2.0, 3.0), 1, 1) == pytest.approx(4.0)
    assert sigma_minor((1.0, 2.0, 3.0), 2, 0) == pytest.approx(6.0)
    assert sigma_minor((5.0, 7.0), 0, 0) == 1.0
    assert sigma_minor((5.0, 7.0), -1, 1) == 0.0


def test_euler_identity_fd():
    """sum_i mu_i d(sigma_k)/d(mu_i) = k sigma_k, derivatives by central FD."""
    rng = np.random.default_rng(SEED)
    for n in range(2, 6):
        mu = rng.uniform(0.3, 2.0, n)
        h = 1e-6 * (1.0 + np.abs(mu).max())
        for k in range(1, n + 1):
            total = 0.0
            for i in range(n):
                p, m = mu.copy(), mu.copy()
                p[i] += h
                m[i] -= h
                total += mu[i] * (sigma(p, k) - sigma(m, k)) / (2 * h)
            assert total == pytest.approx(k * sigma(mu, k), rel=1e-7)


# -- cone membership and quotient operator -----------------------------------

def test_in_gamma_examples():
    assert in_gamma_k((1.0, 1.0, 1.0), 3)
    assert not in_gamma_k((1.0, -3.0), 1)
    assert in_gamma_k((-0.1, 1.0, 1.0), 2)  # sigma1 = 1.9 > 0, sigma2 = 0.8 > 0


def test_quotient_value_examples():
    assert quotient_value((1.0, 1.0), QuotientOrder(2, 0)) == pytest.approx(1.0)
    assert quotient_value((2.0, 2.0, 2.0), QuotientOrder(2, 0)) == pytest.approx(
        3.4641016151377544, rel=1e-14)  # (C_3^2)^(1/2) * (n-1)c with c = 1
    assert quotient_value((1.0, 2.0, 3.0), QuotientOrder(3, 1)) == pytest.approx(1.0)


def test_quotient_cone_violation():
    with pytest.raises(ConeViolation):
        quotient_value((1.0, -3.0, 1.0), QuotientOrder(2, 0))


def test_quotient_order_validation():
    with pytest.raises(ValueError):
        QuotientOrder(2, 1)
    with pytest.raises(ValueError):
        QuotientOrder(1, 0)


def test_gradient_examples():
    g = quotient_gradient_diag((1.0, 1.0, 1.0), QuotientOrder(2, 0))
    assert np.allclose(g, 0.5773502691896257, rtol=1e-12)  # 1/sqrt(3)
    g = quotient_gradient_diag((1.0, 1.0), QuotientOrder(2, 0))
    assert np.allclose(g, 0.5, rtol=1e-12)


def test_gradient_ordering_for_ascending_entries():
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        n = int(rng.integers(3, 6))
        k, l = admissible_orders(n)[int(rng.integers(len(admissible_orders(n))))]
        mu = np.sort(random_cone_point(rng, n, k, lo=0.1))
        g = quotient_gradient_diag(mu, QuotientOrder(k, l))
        assert all(g[i] >= g[i + 1] - 1e-14 for i in range(n - 1))


@settings(max_examples=60)
@given(mu=st.lists(st.floats(min_value=0.05, max_value=4), min_size=2, max_size=6))
def test_cone_inclusions(mu):
    """Gamma_k membership implies membership in every lower cone."""
    n = len(mu)
    for k in range(n, 1, -1):
        if in_gamma_k(mu, k):
            assert all(in_gamma_k(mu, j) for j in range(1, k))


@settings(max_examples=60)
@given(mu=st.lists(st.floats(min_value=-2, max_value=3), min_size=2, max_size=5),
       c=st.floats(min_value=0.1, max_value=5))
def test_sigma_homogeneity_degree_k(mu, c):
    for k in range(0, len(mu) + 1):
        scaled = sigma([c * x for x in mu], k)
        assert scaled == pytest.approx(c ** k * sigma(mu, k), rel=1e-10, abs=1e-10)


def test_quotient_homogeneity():
    q = QuotientOrder(2, 0)
    mu = (0.5, 1.0, 2.5)
    for c in (0.3, 2.0, 7.5):
        scaled = tuple(c * x for x in mu)
        assert quotient_value(scaled, q) == pytest.approx(c * quotient_value(mu, q), rel=1e-14)


def test_f_coeffs_ordering_and_floor():
    """Ascending eta: F^ii = sum_j G^jj - G^ii ascending, and F^22 >= sum F / (n(n-1))
    (i >= 2 rows)."""
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        n = int(rng.integers(3, 6))
        k, l = admissible_orders(n)[int(rng.integers(len(admissible_orders(n))))]
        mu = np.sort(random_cone_point(rng, n, k, lo=0.05))
        g = np.array(quotient_gradient_diag(mu, QuotientOrder(k, l)))
        f = g.sum() - g
        assert all(f[i] <= f[i + 1] + 1e-14 for i in range(n - 1))
        floor = sum(f) / (n * (n - 1))
        assert all(f[i] >= floor - 1e-12 for i in range(1, n))


# -- second-derivative probes --------------------------------------------------

def test_offdiag_identity_examples():
    assert offdiag_identity_residual((1.0, 2.0, 3.0), QuotientOrder(3, 0), 2) <= 1e-5
    assert offdiag_identity_residual((1.0, 4.0, 9.0), QuotientOrder(3, 1), 1) <= 1e-5


def test_offdiag_identity_degenerate_pair():
    with pytest.raises(DegeneratePair):
        offdiag_identity_residual((2.0, 2.0 + 1e-12, 3.0), QuotientOrder(3, 0), 1)


def test_offdiag_identity_requires_k3():
    with pytest.raises(ValueError):
        offdiag_identity_residual((1.0, 2.0, 3.0), QuotientOrder(2, 0), 1)


def test_concavity_linear_along_rays():
    """G is 1-homogeneous, hence exactly linear along the ray through mu."""
    q = QuotientOrder(2, 0)
    mu = np.array([1.0, 1.0, 1.0])
    h = 1e-4
    g0 = quotient_value(mu, q)
    second = (quotient_value(mu * (1 + h), q) - 2 * g0 + quotient_value(mu * (1 - h), q)) / h ** 2
    assert abs(second) <= 1e-6


def test_concavity_random_directions():
    assert concavity_probe((1.0, 2.0, 3.0), QuotientOrder(2, 0), trials=100,
                           rng=np.random.default_rng(1)) <= 1e-6
    assert concavity_probe((1.0, 2.0, 3.0), QuotientOrder(3, 1), trials=100,
                           rng=np.random.default_rng(2)) <= 1e-6


def test_concavity_probe_halves_its_step_at_the_cone_edge(monkeypatch):
    """At sigma_2 = 1e-6 the first stencil leaves Gamma_2 and the probe halves
    its step until both points lie inside; at sigma_2 = 1e-300 forty halvings
    cannot get inside, and it raises ConeViolation."""
    outside = []
    real = symm.in_gamma_k

    def counted(mu, k):
        inside = real(mu, k)
        outside.append(not inside)
        return inside

    monkeypatch.setattr(symm, "in_gamma_k", counted)
    q = QuotientOrder(2, 0)
    second = concavity_probe((1.0, 1e-6), q, trials=8, rng=np.random.default_rng(3))
    assert any(outside) and np.isfinite(second) and second <= 0.0
    with pytest.raises(ConeViolation, match="cannot stay inside"):
        concavity_probe((1.0, 1e-300), q, trials=8, rng=np.random.default_rng(3))


# -- vectorized helpers --------------------------------------------------------

def test_elementary_batch_matches_scalar():
    mu = np.random.default_rng(SEED).uniform(-1.0, 2.0, (40, 3))
    e = elementary_batch(mu, 3)
    for j in range(40):
        for k in range(4):
            assert e[k, j] == pytest.approx(sigma(mu[j], k), rel=1e-13, abs=1e-13)


def test_quotient_ratio_batch_cone_mask():
    mu = np.array([[1.0, 2.0], [1.0, -3.0], [0.5, 0.5]])
    ratio, ok = quotient_ratio_batch(mu, QuotientOrder(2, 0))
    assert ok.tolist() == [True, False, True]
    assert ratio[0] == pytest.approx(2.0)
    assert ratio[2] == pytest.approx(0.25)
