"""Warping function of the ambient metric dr^2 + lambda(r)^2 g' and derived scalars.

A kind is one row of FORMS: lambda, lambda' and the antiderivative of lambda
from 0, in closed form.  The builtin rows are the three space forms
(lambda = r, sin r, sinh r); the custom row is a polynomial in r, held as
ascending coefficient tuples, evaluated by an inline Horner loop in numpy's
polyval order, so that its values are polyval's.  `eval_lambda` returns
(lambda, lambda'), all the geometry and the problem layer read: the threshold
zeta^2 = (lambda'/lambda)^2 is problem.threshold of those values.
All evaluators are vectorized over numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import DomainViolation, ProfileViolation


def _horner(c, x):
    """numpy's polyval(x, c), its operations in its order, without its per-call array set-up."""
    v = c[-1] + x * 0
    for ci in c[-2::-1]:
        v = ci + v * x
    return v


# kind -> (lambda, lambda', antiderivative of lambda from 0), each a function of
# (c, r) where c is that function's ascending coefficients, read by the custom row only
FORMS = {
    "euclidean": (lambda c, r: r, lambda c, r: np.ones_like(r), lambda c, r: 0.5 * r * r),
    "spherical": (lambda c, r: np.sin(r), lambda c, r: np.cos(r), lambda c, r: 1.0 - np.cos(r)),
    "hyperbolic": (lambda c, r: np.sinh(r), lambda c, r: np.cosh(r), lambda c, r: np.cosh(r) - 1.0),
    "custom": (_horner, _horner, _horner),
}
KINDS = tuple(FORMS)


@dataclass(frozen=True)
class WarpProfile:
    """Warping function lambda on an interval, with kind-specific closed forms.

    `domain` is the admissible radius interval; evaluation uses the closed
    interval so that endpoint radii (e.g. pi/2 for the spherical cap) remain
    queryable.  Domain and coeffs may be any sequences of numbers: they are
    stored as float tuples.  lambda > 0 and lambda' > 0 are not enforced at
    construction but where lambda is evaluated: `eval_lambda` raises
    ProfileViolation at radii where either fails.
    """

    kind: str
    domain: tuple[float, float]
    coeffs: tuple[float, ...] = ()  # custom only, ascending powers: c0 + c1 r + ...

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(map(float, self.domain)))
        object.__setattr__(self, "coeffs", tuple(map(float, self.coeffs)))
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        r_lo, r_hi = self.domain
        if not (np.isfinite(r_lo) and np.isfinite(r_hi) and r_lo < r_hi):
            raise ValueError(f"domain must be finite with r_lo < r_hi, got {self.domain}")
        if r_lo < 0:
            raise ValueError("domain must lie in r >= 0")
        if self.kind == "custom" and not (self.coeffs and np.isfinite(self.coeffs).all()):
            raise ValueError("coeffs of a custom profile must be finite and not empty")

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
        """Ascending coefficients of (p, p', antiderivative of p vanishing at 0) for p = coeffs."""
        c = self.coeffs
        dc = tuple(j * c[j] for j in range(1, len(c))) or tuple(0.0 * x for x in c[:1])
        return c, dc, (0.0,) + tuple(cj / (j + 1) for j, cj in enumerate(c))

    @cached_property
    def _forms(self):
        """The kind's row of FORMS, each function a function of r alone."""
        return tuple(map(partial, FORMS[self.kind], self._poly))

    def eval_lambda(self, r):
        """Return (lambda, lambda') at r, enforcing positivity."""
        r = self._check_domain(r)
        lam_of, dlam_of, _ = self._forms
        lam, dlam = lam_of(r), dlam_of(r)
        if (lam <= 0).any():
            raise ProfileViolation(f"lambda <= 0 inside domain ({self.kind})")
        if (dlam <= 0).any():
            raise ProfileViolation(f"lambda' <= 0 inside domain ({self.kind})")
        return lam, dlam

    def capital_lambda(self, r):
        """Antiderivative of lambda from 0 to r, in closed form for every kind."""
        return self._forms[2](self._check_domain(r))
