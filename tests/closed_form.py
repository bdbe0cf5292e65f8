"""The closed-form prescription the tests share: f = (1/r^2) exp(1.25 - r) on
the annulus (0.5, 2) of the euclidean warp over (0, 10), solved by r = 1.25;
and the round exponential that carries it to any warp."""

from prescurv.problem import ProblemSpec, parse_f
from prescurv.warp import WarpProfile

EUCLID = WarpProfile("euclidean", (0.0, 10.0))


def closed_form_spec(**kw):
    args = dict(profile=EUCLID, f=parse_f("1/r^2 * exp(1.25 - r)"),
                r1=0.5, r2=2.0, phi_rm=1.25)
    args.update(kw)
    return ProblemSpec(**args)


def round_exponential(rm, alpha):
    """f = zeta^2 exp(alpha (rm - r)) with zeta^2 = (dlam/lam)^2 of the problem's warp:
    r = rm solves K = f."""
    return parse_f(f"(dlam/lam)^2 * exp({alpha!r}*({rm!r} - r))")
