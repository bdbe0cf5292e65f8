"""Warping function of the ambient metric dr^2 + lambda(r)^2 g' and derived scalars.

Builtin kinds cover the three space forms (lambda = r, sin r, sinh r); custom
profiles are polynomials in r so that derivatives, the antiderivative and
validation stay closed form.  All evaluators are vectorized over numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import DomainViolation, ProfileViolation

KINDS = ("euclidean", "spherical", "hyperbolic", "custom")


@dataclass(frozen=True)
class WarpProfile:
    """Warping function lambda on an interval, with kind-specific closed forms.

    `domain` is the admissible radius interval; evaluation uses the closed
    interval so that endpoint radii (e.g. pi/2 for the spherical cap) remain
    queryable.  Validity of lambda > 0 and lambda' > 0 is *reported* by
    `validate_profile`, not enforced at construction, so invalid profiles can
    be represented and diagnosed.
    """

    kind: str
    domain: tuple[float, float]
    custom_coeffs: tuple[float, ...] = ()  # ascending powers: c0 + c1 r + ...
    space_form_curvature: Optional[float] = field(default=None)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown warp kind {self.kind!r}")
        r_lo, r_hi = self.domain
        if not (np.isfinite(r_lo) and np.isfinite(r_hi) and r_lo < r_hi):
            raise ValueError(f"bad domain {self.domain}")
        if r_lo < 0:
            raise ValueError("domain must lie in r >= 0")
        if self.kind == "custom" and len(self.custom_coeffs) == 0:
            raise ValueError("custom profile needs polynomial coefficients")
        if self.kind != "custom" and self.space_form_curvature is None:
            object.__setattr__(
                self,
                "space_form_curvature",
                {"euclidean": 0.0, "spherical": 1.0, "hyperbolic": -1.0}[self.kind],
            )

    # -- constructors -------------------------------------------------------

    @classmethod
    def euclidean(cls, domain=(0.0, 10.0)):
        return cls("euclidean", tuple(map(float, domain)))

    @classmethod
    def spherical(cls, domain=(0.0, np.pi / 2)):
        return cls("spherical", tuple(map(float, domain)))

    @classmethod
    def hyperbolic(cls, domain=(0.0, 10.0)):
        return cls("hyperbolic", tuple(map(float, domain)))

    @classmethod
    def custom(cls, coeffs: Sequence[float], domain):
        return cls("custom", tuple(map(float, domain)), tuple(map(float, coeffs)))

    # -- evaluation ---------------------------------------------------------

    def _check_domain(self, r):
        r = np.asarray(r, dtype=float)
        r_lo, r_hi = self.domain
        if np.any(r < r_lo) or np.any(r > r_hi):
            bad = r[(r < r_lo) | (r > r_hi)]
            raise DomainViolation(
                f"radius {np.atleast_1d(bad)[0]:.6g} outside domain [{r_lo:g}, {r_hi:g}]"
            )
        return r

    @cached_property
    def _poly(self):
        """(p, p', p'', antiderivative of p vanishing at 0) of a custom profile."""
        p = np.polynomial.Polynomial(np.asarray(self.custom_coeffs))
        return p, p.deriv(1), p.deriv(2), p.integ()

    def _raw(self, r):
        """(lambda, lambda', lambda'') without domain or positivity checks."""
        r = np.asarray(r, dtype=float)
        if self.kind == "euclidean":
            return r, np.ones_like(r), np.zeros_like(r)
        if self.kind == "spherical":
            return np.sin(r), np.cos(r), -np.sin(r)
        if self.kind == "hyperbolic":
            return np.sinh(r), np.cosh(r), np.sinh(r)
        p, dp, ddp, _ = self._poly
        return p(r), dp(r), ddp(r)

    def eval_lambda(self, r):
        """Return (lambda, lambda', lambda'') at r, enforcing positivity."""
        r = self._check_domain(r)
        lam, dlam, ddlam = self._raw(r)
        if np.any(lam <= 0):
            raise ProfileViolation(f"lambda <= 0 inside domain ({self.kind})")
        if np.any(dlam <= 0):
            raise ProfileViolation(f"lambda' <= 0 inside domain ({self.kind})")
        return lam, dlam, ddlam

    def zeta(self, r):
        """lambda'(r) / lambda(r)."""
        lam, dlam, _ = self.eval_lambda(r)
        return dlam / lam

    def capital_lambda(self, r):
        """Antiderivative of lambda from 0 to r, in closed form for every kind."""
        r = self._check_domain(r)
        if self.kind == "euclidean":
            return 0.5 * r * r
        if self.kind == "spherical":
            return 1.0 - np.cos(r)
        if self.kind == "hyperbolic":
            return np.cosh(r) - 1.0
        return self._poly[3](r)


@dataclass(frozen=True)
class ProfileReport:
    """Outcome of sampling lambda, lambda' over the domain."""

    ok: bool
    first_violation_r: Optional[float] = None
    quantity: Optional[str] = None
    value: Optional[float] = None


def validate_profile(profile: WarpProfile, samples: int = 2048) -> ProfileReport:
    """Sample lambda and lambda' on a dense grid; report the first sign violation."""
    r_lo, r_hi = profile.domain
    pad = 1e-9 * (r_hi - r_lo)
    grid = np.linspace(r_lo + pad, r_hi - pad, samples)
    lam, dlam, _ = profile._raw(grid)
    bad_lam = lam <= 0
    bad_dlam = dlam <= 0
    if not bad_lam.any() and not bad_dlam.any():
        return ProfileReport(ok=True)
    idx_lam = np.argmax(bad_lam) if bad_lam.any() else samples
    idx_dlam = np.argmax(bad_dlam) if bad_dlam.any() else samples
    if idx_lam <= idx_dlam:
        i = int(idx_lam)
        return ProfileReport(False, float(grid[i]), "lambda", float(lam[i]))
    i = int(idx_dlam)
    return ProfileReport(False, float(grid[i]), "lambda_prime", float(dlam[i]))
