"""Diagnostics tracked along the continuation path.

Per accepted state: the annulus barrier, the support-function minimum and
gradient maximum, the largest principal curvature, the smallest Newton
eigenvalue, and two auxiliary test functions whose maxima drive the gradient
and curvature estimates:

    Phi = -ln tau + alpha / Lambda(r)
    P   = ln kappa_max - ln(tau - a) + A * Lambda(r),   a = 0.5 * min tau

with Lambda the accumulated warp integral (the antiderivative of lambda).

Only the monitored quantities are evaluated; the estimates' constants are
not reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import GraphGeometry
from .mesh import build_mesh
from .problem import ProblemSpec
from .solver import SolverOptions, continuation_solve

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


def monitor(geom: GraphGeometry, spec: ProblemSpec, t: float,
            alpha: float = 1.0, big_a: float = 1.0) -> MonitorRecord:
    """Evaluate all monitored quantities on one geometry snapshot."""
    r = geom.r
    tau = geom.tau
    grad = np.sqrt(geom.r1 ** 2 + geom.r2 ** 2)
    tau_min = float(tau.min())
    phi_test = -np.log(tau) + alpha / geom.capital_lambda
    p_test = np.log(geom.kappa1) - np.log(tau - 0.5 * tau_min) + big_a * geom.capital_lambda
    return MonitorRecord(
        t=t,
        r_min=float(r.min()),
        r_max=float(r.max()),
        tau_min=tau_min,
        grad_max=float(grad.max()),
        kappa_max=float(geom.kappa1.max()),
        mu_min=float(geom.mu1.min()),
        phi_test_max=float(phi_test.max()),
        p_test_max=float(p_test.max()),
        barrier_low_violated=bool(r.min() <= spec.r1),
        barrier_high_violated=bool(r.max() >= spec.r2),
    )


def monitor_state(state, spec: ProblemSpec, geom: GraphGeometry, alpha=1.0,
                  big_a=1.0) -> MonitorRecord:
    """Monitor a continuation state on geom, the node geometry of state.r_field
    that continuation_solve hands to on_accept with the state."""
    return monitor(geom, spec, state.t, alpha=alpha, big_a=big_a)


@dataclass(frozen=True)
class RefinementRow:
    resolution: int
    tau_min: float
    grad_max: float
    kappa_max: float


@dataclass(frozen=True)
class RefinementTable:
    rows: tuple
    stability_ratio: float      # worst relative change between the finest pair
    unstable: bool              # kappa_max grew strongly under refinement

    INSTABILITY_GROWTH = 0.5


def refinement_stability(make_spec: Callable[[object], ProblemSpec],
                         resolutions: Sequence[int],
                         opts: SolverOptions = SolverOptions(),
                         force: bool = False) -> RefinementTable:
    """Solve to t = 1 at each resolution and tabulate the monitored bounds.

    Each resolution is a reduced (axisymmetric) mesh of that many nodes.
    make_spec(mesh) builds the problem for a given mesh (manufactured
    prescriptions are mesh-bound, so the problem is rebuilt per resolution).
    Flags instability when kappa_max keeps growing between the finest pair.
    """
    rows = []
    for res in resolutions:
        mesh = build_mesh(res, reduced=True)
        spec = make_spec(mesh)
        last = {}
        state, _ = continuation_solve(spec, mesh, opts, force=force,
                                      on_accept=lambda st, geom: last.update(geom=geom))
        rec = monitor_state(state, spec, last["geom"])
        rows.append(RefinementRow(res, rec.tau_min, rec.grad_max, rec.kappa_max))
    a, b = rows[-2], rows[-1]
    changes = []
    for name in ("tau_min", "grad_max", "kappa_max"):
        x, y = getattr(a, name), getattr(b, name)
        scale = max(abs(x), abs(y), 1e-30)
        changes.append(abs(y - x) / scale)
    growth = (b.kappa_max - a.kappa_max) / max(abs(a.kappa_max), 1e-30)
    return RefinementTable(
        rows=tuple(rows),
        stability_ratio=float(max(changes)),
        unstable=bool(growth > RefinementTable.INSTABILITY_GROWTH),
    )
