"""Diagnostics tracked along the continuation path.

Per accepted state: the annulus barrier, the support-function minimum and
gradient maximum, the largest principal curvature, the smallest Newton
eigenvalue, and two auxiliary test functions whose maxima drive the gradient
and curvature estimates:

    Phi = -ln tau + 1 / Lambda(r)
    P   = ln kappa_max - ln(tau - a) + Lambda(r),   a = 0.5 * min tau

with Lambda the accumulated warp integral (the antiderivative of lambda):
the paper's alpha / Lambda and A * Lambda at alpha = A = 1.

Only the monitored quantities are evaluated; the estimates' constants are
not reproduced.  All but t and the barrier flags depend on the geometry
alone, so they are formed once per geometry: the rows of a path that stands
still, whose t-steps share one geometry, cost one.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .geometry import GraphGeometry
from .problem import ProblemSpec

@dataclass(frozen=True)
class MonitorRecord:
    t: float
    r_min: float
    r_max: float
    tau_min: float
    grad_max: float
    kappa_max: float
    mu_min: float
    phi_test_max: float
    p_test_max: float
    barrier_low_violated: bool
    barrier_high_violated: bool

    @property
    def barrier_ok(self) -> bool:
        return not (self.barrier_low_violated or self.barrier_high_violated)


_REDUCTIONS = weakref.WeakKeyDictionary()  # geometry -> its reductions, gone with it


def _reductions(geom: GraphGeometry) -> dict:
    """The geometry-only fields of a MonitorRecord, formed once per geometry."""
    red = _REDUCTIONS.get(geom)
    if red is None:
        tau, tau_min = geom.tau, float(geom.tau.min())
        phi_test = -np.log(tau) + 1.0 / geom.capital_lambda
        p_test = np.log(geom.kappa1) - np.log(tau - 0.5 * tau_min) + geom.capital_lambda
        red = _REDUCTIONS[geom] = dict(
            r_min=float(geom.r.min()), r_max=float(geom.r.max()), tau_min=tau_min,
            grad_max=float(np.sqrt(geom.r1 ** 2 + geom.r2 ** 2).max()),
            kappa_max=float(geom.kappa1.max()), mu_min=float(geom.mu1.min()),
            phi_test_max=float(phi_test.max()), p_test_max=float(p_test.max()))
    return red


def monitor(geom: GraphGeometry, spec: ProblemSpec, t: float) -> MonitorRecord:
    """Evaluate all monitored quantities on one geometry snapshot: its
    reductions are formed on its first monitor, and t and spec's barrier
    flags on every call."""
    red = _reductions(geom)
    return MonitorRecord(
        t=t,
        **red,
        barrier_low_violated=bool(red["r_min"] <= spec.r1),
        barrier_high_violated=bool(red["r_max"] >= spec.r2),
    )


def monitor_state(state, spec: ProblemSpec, geom: GraphGeometry) -> MonitorRecord:
    """Monitor a continuation state on geom, the node geometry of state.r_field
    that continuation_solve hands to on_accept with the state."""
    return monitor(geom, spec, state.t)
