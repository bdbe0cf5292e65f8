import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prescurv.errors import ConeViolation, DegeneratePair
from prescurv.symm import (
    QuotientOrder,
    concavity_probe,
    cone_lower_bound,
    elementary_batch,
    f_coeffs,
    in_gamma_k,
    offdiag_identity_residual,
    quotient_gradient_diag,
    quotient_ratio_batch,
    quotient_value,
    sigma,
    sigma_minor,
)

RNG = np.random.default_rng(20240811)


def sigma_bruteforce(mu, k):
    """Independent oracle: explicit sum over k-subsets."""
    if k == 0:
        return 1.0
    return float(sum(math.prod(c) for c in itertools.combinations(mu, k)))


def admissible_orders(n, k_min=2):
    return [(k, l) for k in range(k_min, n + 1) for l in range(0, k - 1)]


def random_cone_point(rng, n, k, lo=-0.5, hi=3.0):
    while True:
        mu = rng.uniform(lo, hi, n)
        if in_gamma_k(mu, k):
            return mu


# -- sigma values ------------------------------------------------------------

def test_sigma_examples():
    assert sigma((1.0, 1.0), 2) == 1.0
    assert sigma((1.0, 2.0, 3.0), 2) == pytest.approx(11.0, rel=1e-15)
    assert sigma((4.0, -2.0, 7.0), 0) == 1.0


def test_sigma_matches_bruteforce_all_orders():
    worst = 0.0
    for n in range(2, 9):
        for k in range(0, n + 1):
            for _ in range(4):
                mu = RNG.uniform(-2.0, 3.0, n)
                got = sigma(mu, k)
                want = sigma_bruteforce(mu, k)
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst <= 1e-12


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


def test_sigma_minor_examples():
    assert sigma_minor((1.0, 2.0, 3.0), 1, 1) == pytest.approx(4.0)
    assert sigma_minor((1.0, 2.0, 3.0), 2, 0) == pytest.approx(6.0)
    assert sigma_minor((5.0, 7.0), 0, 0) == 1.0
    assert sigma_minor((5.0, 7.0), -1, 1) == 0.0


def test_deleted_entry_identity_exhaustive():
    """sigma_k(mu) = sigma_k(mu|i) + mu_i sigma_{k-1}(mu|i) for all i, k, n <= 6."""
    for n in range(2, 7):
        mu = RNG.uniform(-1.0, 2.0, n)
        for k in range(1, n + 1):
            for i in range(n):
                head = sigma_minor(mu, k, i) if k <= n - 1 else 0.0
                rhs = head + mu[i] * sigma_minor(mu, k - 1, i)
                assert sigma(mu, k) == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_euler_identity_fd():
    """sum_i mu_i d(sigma_k)/d(mu_i) = k sigma_k, derivatives by central FD."""
    for n in range(2, 6):
        mu = RNG.uniform(0.3, 2.0, n)
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


def test_gradient_matches_fd_on_cone_samples():
    worst = 0.0
    for _ in range(100):
        n = int(RNG.integers(2, 6))
        k, l = admissible_orders(n)[int(RNG.integers(len(admissible_orders(n))))]
        mu = random_cone_point(RNG, n, k)
        q = QuotientOrder(k, l)
        grad = np.asarray(quotient_gradient_diag(mu, q))
        assert np.all(grad > 0.0)
        h = 1e-6 * (1.0 + np.abs(mu).max())
        for i in range(n):
            p, m = mu.copy(), mu.copy()
            p[i] += h
            m[i] -= h
            fd = (quotient_value(p, q) - quotient_value(m, q)) / (2 * h)
            worst = max(worst, abs(grad[i] - fd) / np.abs(grad).max())
    assert worst <= 1e-6


def test_gradient_sum_lower_bound():
    worst = np.inf
    for _ in range(100):
        n = int(RNG.integers(2, 6))
        k, l = admissible_orders(n)[int(RNG.integers(len(admissible_orders(n))))]
        mu = random_cone_point(RNG, n, k)
        total = sum(quotient_gradient_diag(mu, QuotientOrder(k, l)))
        worst = min(worst, total - cone_lower_bound(n, QuotientOrder(k, l)))
    assert worst >= -1e-10


def test_gradient_ordering_for_ascending_entries():
    for _ in range(20):
        n = int(RNG.integers(3, 6))
        k, l = admissible_orders(n)[int(RNG.integers(len(admissible_orders(n))))]
        mu = np.sort(random_cone_point(RNG, n, k, lo=0.1))
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


def test_f_coeffs():
    assert f_coeffs([1.0, 1.0, 1.0]) == [2.0, 2.0, 2.0]
    assert f_coeffs([3.0, 2.0, 1.0]) == [3.0, 4.0, 5.0]


def test_f_coeffs_ordering_and_floor():
    """Ascending eta: F ascending, and F^22 >= sum F / (n(n-1)) (i >= 2 rows)."""
    for _ in range(50):
        n = int(RNG.integers(3, 6))
        k, l = admissible_orders(n)[int(RNG.integers(len(admissible_orders(n))))]
        mu = np.sort(random_cone_point(RNG, n, k, lo=0.05))
        f = f_coeffs(quotient_gradient_diag(mu, QuotientOrder(k, l)))
        assert all(f[i] <= f[i + 1] + 1e-14 for i in range(n - 1))
        floor = sum(f) / (n * (n - 1))
        assert all(f[i] >= floor - 1e-12 for i in range(1, n))


# -- second-derivative probes --------------------------------------------------

def test_offdiag_identity_examples():
    assert offdiag_identity_residual((1.0, 2.0, 3.0), QuotientOrder(3, 0), 2) <= 1e-5
    assert offdiag_identity_residual((1.0, 4.0, 9.0), QuotientOrder(3, 1), 1) <= 1e-5


def test_offdiag_identity_random_sample():
    worst = 0.0
    count = 0
    while count < 50:
        n = int(RNG.integers(3, 7))
        orders = admissible_orders(n, k_min=3)
        if not orders:
            continue
        k, l = orders[int(RNG.integers(len(orders)))]
        eta = np.sort(RNG.uniform(0.3, 3.0, n))
        if not in_gamma_k(eta, k) or eta[-1] - eta[0] < 0.1:
            continue
        i = int(RNG.integers(1, n))
        if eta[i] - eta[0] < 0.05:
            continue
        count += 1
        worst = max(worst, offdiag_identity_residual(eta, QuotientOrder(k, l), i))
    assert worst <= 1e-5


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


def test_concavity_random_cone_points():
    worst = -np.inf
    for _ in range(100):
        n = int(RNG.integers(2, 6))
        k, l = admissible_orders(n)[int(RNG.integers(len(admissible_orders(n))))]
        mu = random_cone_point(RNG, n, k, lo=0.1)
        worst = max(worst, concavity_probe(mu, QuotientOrder(k, l), trials=10, rng=RNG))
    assert worst <= 1e-6


# -- vectorized helpers --------------------------------------------------------

def test_elementary_batch_matches_scalar():
    mu = RNG.uniform(-1.0, 2.0, (40, 3))
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
