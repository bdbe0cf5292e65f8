"""Warping function of the ambient metric dr^2 + lambda(r)^2 g' and derived scalars.

Builtin kinds cover the three space forms (lambda = r, sin r, sinh r); custom
profiles are polynomials in r, held as ascending coefficient tuples, so that
lambda' and the antiderivative stay closed form; each is evaluated by an
inline Horner loop in numpy's polyval order, so its values are polyval's.  `eval_lambda` returns
(lambda, lambda'), all the geometry and the problem layer read: the threshold
zeta^2 = (lambda'/lambda)^2 is problem.threshold of those values.
All evaluators are vectorized over numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainViolation, ProfileViolation

KINDS = ("euclidean", "spherical", "hyperbolic", "custom")


@dataclass(frozen=True)
class WarpProfile:
    """Warping function lambda on an interval, with kind-specific closed forms.

    `domain` is the admissible radius interval; evaluation uses the closed
    interval so that endpoint radii (e.g. pi/2 for the spherical cap) remain
    queryable.  lambda > 0 and lambda' > 0 are not enforced at construction
    but where lambda is evaluated: `eval_lambda` raises ProfileViolation at
    radii where either fails.
    """

    kind: str
    domain: tuple[float, float]
    custom_coeffs: tuple[float, ...] = ()  # ascending powers: c0 + c1 r + ...

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        r_lo, r_hi = self.domain
        if not (np.isfinite(r_lo) and np.isfinite(r_hi) and r_lo < r_hi):
            raise ValueError(f"domain must be finite with r_lo < r_hi, got {self.domain}")
        if r_lo < 0:
            raise ValueError("domain must lie in r >= 0")
        if self.kind == "custom" and not (self.custom_coeffs
                                          and np.isfinite(self.custom_coeffs).all()):
            raise ValueError("coeffs of a custom profile must be finite and not empty")

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
        if (r < r_lo).any() or (r > r_hi).any():
            bad = r[(r < r_lo) | (r > r_hi)]
            raise DomainViolation(
                f"radius {np.atleast_1d(bad)[0]:.6g} outside domain [{r_lo:g}, {r_hi:g}]"
            )
        return r

    @cached_property
    def _poly(self):
        """Ascending coefficients of (p, p', antiderivative of p vanishing at 0), custom only."""
        c = self.custom_coeffs
        dc = tuple(j * c[j] for j in range(1, len(c))) or (0.0 * c[0],)
        return c, dc, (0.0,) + tuple(cj / (j + 1) for j, cj in enumerate(c))

    def _raw(self, r):
        """(lambda, lambda') without domain or positivity checks."""
        r = np.asarray(r, dtype=float)
        if self.kind == "euclidean":
            return r, np.ones_like(r)
        if self.kind == "spherical":
            return np.sin(r), np.cos(r)
        if self.kind == "hyperbolic":
            return np.sinh(r), np.cosh(r)
        c, dc, _ = self._poly
        return _horner(c, r), _horner(dc, r)

    def eval_lambda(self, r):
        """Return (lambda, lambda') at r, enforcing positivity."""
        r = self._check_domain(r)
        lam, dlam = self._raw(r)
        if (lam <= 0).any():
            raise ProfileViolation(f"lambda <= 0 inside domain ({self.kind})")
        if (dlam <= 0).any():
            raise ProfileViolation(f"lambda' <= 0 inside domain ({self.kind})")
        return lam, dlam

    def capital_lambda(self, r):
        """Antiderivative of lambda from 0 to r, in closed form for every kind."""
        r = self._check_domain(r)
        if self.kind == "euclidean":
            return 0.5 * r * r
        if self.kind == "spherical":
            return 1.0 - np.cos(r)
        if self.kind == "hyperbolic":
            return np.cosh(r) - 1.0
        return _horner(self._poly[2], r)


def _horner(c, x):
    """numpy's polyval(x, c), its operations in its order, without its per-call array set-up."""
    v = c[-1] + x * 0
    for ci in c[-2::-1]:
        v = ci + v * x
    return v
