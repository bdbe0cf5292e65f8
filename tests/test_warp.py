import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prescurv.errors import DomainViolation, ProfileViolation
from prescurv.problem import threshold
from prescurv.warp import WarpProfile

COTH_1 = 1.3130352854993313  # cosh(1)/sinh(1), high-precision oracle


def antideriv_custom(coeffs, r):
    """Exact antiderivative of a polynomial from 0 to r (test oracle)."""
    return sum(c * r ** (i + 1) / (i + 1) for i, c in enumerate(coeffs))


def test_eval_lambda_euclidean():
    prof = WarpProfile("euclidean", (0.0, 10.0))
    lam, dlam = prof.eval_lambda(1.25)
    assert (lam, dlam) == (1.25, 1.0)


def test_eval_lambda_spherical():
    prof = WarpProfile("spherical", (0.0, np.pi / 2))
    lam, dlam = prof.eval_lambda(np.pi / 4)
    s = math.sqrt(2) / 2
    assert lam == pytest.approx(s, abs=1e-15)
    assert dlam == pytest.approx(s, abs=1e-15)


def test_eval_lambda_custom_polynomial():
    prof = WarpProfile("custom", (0.0, 5.0), [0.0, 1.0, 0.0, 1.0 / 6.0])
    lam, dlam = prof.eval_lambda(1.0)
    assert lam == pytest.approx(7.0 / 6.0, abs=1e-15)
    assert dlam == pytest.approx(1.5, abs=1e-15)


def test_threshold_values():
    """threshold(lambda, lambda') is zeta^2, zeta = lambda'/lambda."""
    for prof, r, zeta, tol in ((WarpProfile("euclidean", (0.0, 10.0)), 2.0, 0.5, 1e-15),
                               (WarpProfile("spherical", (0.0, np.pi / 2)), np.pi / 4, 1.0, 1e-14),
                               (WarpProfile("hyperbolic", (0.0, 10.0)), 1.0, COTH_1, 1e-14)):
        assert threshold(*prof.eval_lambda(r)) == pytest.approx(zeta ** 2, abs=tol)


def test_custom_coefficients_are_numpys_bit_for_bit():
    """_poly's lambda' and antiderivative coefficients, formed in closed form,
    are numpy.polynomial's polyder and polyint, signed zeros included (the
    zero polynomial aside: its antiderivative there has one coefficient)."""
    from numpy.polynomial import polynomial as P

    rng = np.random.default_rng(7)
    for _ in range(2000):
        n = rng.integers(1, 9)
        random = rng.standard_normal(n) * 10.0 ** rng.integers(-5, 6, n)
        c = np.where(rng.random(n) < 0.5, rng.choice([0.0, -0.0, 1.0, -2.5, 1 / 6, 3e300], n), random)
        if c.size == 1 and c[0] == 0.0:
            continue
        poly, der, anti = WarpProfile("custom", (0.0, 1.0), c)._poly
        for ours, numpys in ((poly, c), (der, P.polyder(c)), (anti, P.polyint(c))):
            assert [x.hex() for x in ours] == [float(x).hex() for x in numpys], c


# kind -> (lambda, lambda', antiderivative of lambda from 0) written out
SPACE_FORMS = {
    "euclidean": lambda r: (r, np.ones_like(r), 0.5 * r * r),
    "spherical": lambda r: (np.sin(r), np.cos(r), 1.0 - np.cos(r)),
    "hyperbolic": lambda r: (np.sinh(r), np.cosh(r), np.cosh(r) - 1.0),
}


def _bits(*arrays):
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


@pytest.mark.parametrize("kind,domain", [("euclidean", (0.1, 10.0)), ("spherical", (0.1, np.pi / 2)),
                                         ("hyperbolic", (0.1, 10.0))])
def test_space_forms_are_their_closed_forms_bit_for_bit(kind, domain):
    prof = WarpProfile(kind, domain)
    r = np.linspace(*domain, 33)  # both domain ends included
    assert _bits(*prof.eval_lambda(r), prof.capital_lambda(r)) == _bits(*SPACE_FORMS[kind](r))


@pytest.mark.parametrize("coeffs", [[0.0, 1.0, 0.0, 1.0 / 6.0], [0.5, 1.0, -0.25, 0.125], [2.0, 0.5]])
def test_custom_kind_is_numpys_polyval_bit_for_bit(coeffs):
    """lambda, lambda' and Lambda are polyval on the coefficients, their polyder and their polyint."""
    from numpy.polynomial import polynomial as P

    prof = WarpProfile("custom", np.array([0.1, 5.0]), np.array(coeffs))
    assert prof.coeffs == tuple(coeffs) and prof.domain == (0.1, 5.0)
    r = np.linspace(0.1, 5.0, 33)
    want = P.polyval(r, coeffs), P.polyval(r, P.polyder(coeffs)), P.polyval(r, P.polyint(coeffs))
    assert _bits(*prof.eval_lambda(r), prof.capital_lambda(r)) == _bits(*want)


def test_capital_lambda_closed_forms():
    assert WarpProfile("euclidean", (0.0, 10.0)).capital_lambda(2.0) == pytest.approx(2.0)
    assert WarpProfile("spherical", (0.0, np.pi / 2)).capital_lambda(np.pi / 2) == pytest.approx(1.0)
    assert WarpProfile("hyperbolic", (0.0, 10.0)).capital_lambda(1.0) == pytest.approx(math.cosh(1) - 1)


def test_capital_lambda_custom_vs_antiderivative():
    coeffs = [0.0, 1.0, 0.0, 1.0 / 6.0]
    prof = WarpProfile("custom", (0.0, 5.0), coeffs)
    assert prof.capital_lambda(1.0) == pytest.approx(13.0 / 24.0, rel=1e-12)
    for r in (0.3, 1.7, 4.2):
        exact = antideriv_custom(coeffs, r)
        assert prof.capital_lambda(r) == pytest.approx(exact, rel=1e-12)


@settings(max_examples=60)
@given(r=st.floats(min_value=0.2, max_value=9.8),
       kind=st.sampled_from(["euclidean", "hyperbolic"]))
def test_threshold_times_lambda_squared_is_dlambda_squared(r, kind):
    prof = WarpProfile(kind, (0.1, 10.0))
    lam, dlam = prof.eval_lambda(r)
    assert threshold(lam, dlam) * lam ** 2 == pytest.approx(dlam ** 2, rel=1e-15, abs=1e-300)


def test_domain_violation():
    prof = WarpProfile("euclidean", (0.5, 2.0))
    with pytest.raises(DomainViolation):
        prof.eval_lambda(2.5)
    with pytest.raises(DomainViolation):
        prof.capital_lambda(0.2)


def test_profile_violation_on_eval():
    prof = WarpProfile("custom", (0.0, 2.0), [1.0, -1.0])  # lambda' = -1
    with pytest.raises(ProfileViolation):
        prof.eval_lambda(0.5)
    with pytest.raises(ProfileViolation):
        WarpProfile("spherical", (0.1, 3.0)).eval_lambda(2.0)  # lambda' = cos(2) < 0


def test_bad_construction():
    with pytest.raises(ValueError):
        WarpProfile("fancy", (0.0, 1.0))
    with pytest.raises(ValueError):
        WarpProfile("euclidean", (2.0, 1.0))
    with pytest.raises(ValueError):
        WarpProfile("custom", (0.0, 1.0), [])
