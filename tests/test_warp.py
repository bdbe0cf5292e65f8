import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prescurv.errors import DomainViolation, ProfileViolation
from prescurv.problem import threshold
from prescurv.warp import WarpProfile, validate_profile

COTH_1 = 1.3130352854993313  # cosh(1)/sinh(1), high-precision oracle


def antideriv_custom(coeffs, r):
    """Exact antiderivative of a polynomial from 0 to r (test oracle)."""
    return sum(c * r ** (i + 1) / (i + 1) for i, c in enumerate(coeffs))


def test_eval_lambda_euclidean():
    prof = WarpProfile.euclidean((0.0, 10.0))
    lam, dlam = prof.eval_lambda(1.25)
    assert (lam, dlam) == (1.25, 1.0)


def test_eval_lambda_spherical():
    prof = WarpProfile.spherical((0.0, np.pi / 2))
    lam, dlam = prof.eval_lambda(np.pi / 4)
    s = math.sqrt(2) / 2
    assert lam == pytest.approx(s, abs=1e-15)
    assert dlam == pytest.approx(s, abs=1e-15)


def test_eval_lambda_custom_polynomial():
    prof = WarpProfile.custom([0.0, 1.0, 0.0, 1.0 / 6.0], (0.0, 5.0))
    lam, dlam = prof.eval_lambda(1.0)
    assert lam == pytest.approx(7.0 / 6.0, abs=1e-15)
    assert dlam == pytest.approx(1.5, abs=1e-15)


def test_threshold_values():
    """threshold(lambda, lambda') is zeta^2, zeta = lambda'/lambda."""
    for prof, r, zeta, tol in ((WarpProfile.euclidean((0.0, 10.0)), 2.0, 0.5, 1e-15),
                               (WarpProfile.spherical((0.0, np.pi / 2)), np.pi / 4, 1.0, 1e-14),
                               (WarpProfile.hyperbolic((0.0, 10.0)), 1.0, COTH_1, 1e-14)):
        assert threshold(*prof.eval_lambda(r)) == pytest.approx(zeta ** 2, abs=tol)


def test_capital_lambda_closed_forms():
    assert WarpProfile.euclidean((0.0, 10.0)).capital_lambda(2.0) == pytest.approx(2.0)
    assert WarpProfile.spherical((0.0, np.pi / 2)).capital_lambda(np.pi / 2) == pytest.approx(1.0)
    assert WarpProfile.hyperbolic((0.0, 10.0)).capital_lambda(1.0) == pytest.approx(math.cosh(1) - 1)


def test_capital_lambda_custom_vs_antiderivative():
    coeffs = [0.0, 1.0, 0.0, 1.0 / 6.0]
    prof = WarpProfile.custom(coeffs, (0.0, 5.0))
    assert prof.capital_lambda(1.0) == pytest.approx(13.0 / 24.0, rel=1e-12)
    for r in (0.3, 1.7, 4.2):
        exact = antideriv_custom(coeffs, r)
        assert prof.capital_lambda(r) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("prof", [
    WarpProfile.euclidean((0.1, 10.0)),
    WarpProfile.spherical((0.1, np.pi / 2)),
    WarpProfile.hyperbolic((0.1, 10.0)),
])
def test_capital_lambda_derivative_is_lambda(prof):
    r_lo, r_hi = prof.domain
    grid = np.linspace(r_lo + 0.05, r_hi - 0.05, 11)
    h = 1e-6
    fd = (prof.capital_lambda(grid + h) - prof.capital_lambda(grid - h)) / (2 * h)
    lam, _ = prof.eval_lambda(grid)
    assert np.abs(fd / lam - 1).max() <= 1e-8


@settings(max_examples=60)
@given(r=st.floats(min_value=0.2, max_value=9.8),
       kind=st.sampled_from(["euclidean", "hyperbolic"]))
def test_threshold_times_lambda_squared_is_dlambda_squared(r, kind):
    prof = WarpProfile(kind, (0.1, 10.0))
    lam, dlam = prof.eval_lambda(r)
    assert threshold(lam, dlam) * lam ** 2 == pytest.approx(dlam ** 2, rel=1e-15, abs=1e-300)


def test_validate_builtins_pass():
    for prof in (WarpProfile.euclidean((0.1, 10.0)),
                 WarpProfile.spherical((0.1, np.pi / 2)),
                 WarpProfile.hyperbolic((0.1, 10.0))):
        assert validate_profile(prof).ok


def test_validate_spherical_beyond_cap_fails():
    rep = validate_profile(WarpProfile("spherical", (0.1, 3.0)))
    assert not rep.ok
    assert rep.quantity == "lambda_prime"
    assert rep.first_violation_r >= np.pi / 2 - 1e-2


def test_validate_decreasing_custom_fails():
    rep = validate_profile(WarpProfile.custom([1.0, -1.0], (0.0, 2.0)))
    assert not rep.ok
    assert rep.quantity == "lambda_prime"


def test_domain_violation():
    prof = WarpProfile.euclidean((0.5, 2.0))
    with pytest.raises(DomainViolation):
        prof.eval_lambda(2.5)
    with pytest.raises(DomainViolation):
        prof.capital_lambda(0.2)


def test_profile_violation_on_eval():
    prof = WarpProfile.custom([1.0, -1.0], (0.0, 2.0))  # lambda' = -1
    with pytest.raises(ProfileViolation):
        prof.eval_lambda(0.5)
    with pytest.raises(ProfileViolation):
        WarpProfile("spherical", (0.1, 3.0)).eval_lambda(2.0)  # lambda' = cos(2) < 0


def test_bad_construction():
    with pytest.raises(ValueError):
        WarpProfile("fancy", (0.0, 1.0))
    with pytest.raises(ValueError):
        WarpProfile.euclidean((2.0, 1.0))
    with pytest.raises(ValueError):
        WarpProfile.custom([], (0.0, 1.0))
