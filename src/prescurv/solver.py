"""Chord-accelerated damped Newton and homotopy continuation for the nodal curvature equation.

The residual at each node is sigma_k/sigma_l of the Newton-tensor eigenvalues
minus the homotopy value f^t: at n = 2 that is K - f^t, formed with no
eigenvalues by a pointwise kernel over the node's 2-jet.  A node state
enters Newton, the residual and the dense oracle in one form: its
HomotopyEndpoints (node_endpoints), the node geometry (2-jet included) with
f^0 and f at its nodes (f^0 formed with them, f on first read and never at
t = 0, by f bound to the nodes).  Newton starts from the endpoints it is
handed and forms each later iterate's once, for residual and for
jacobian_sparse; continuation hands an accepted state's geometry to
on_accept, and its endpoints to the next t-step's Newton as its start while
the path stands still, else those of the predicted field.  Newton's sparse
central-difference Jacobian differences that kernel entry by entry (column
j's step moves row i's jet by node j's stencil weights there); a perturbed
jet that is inadmissible fails the build, as it fails the dense oracle
jacobian_fd, which serves the tests and selftest only.  Newton factors J with sparse LU
and keeps the factor: while a factor is in hand, each iteration first tries
the full chord step on it, kept only if it stays admissible, stays inside
the guarded annulus and cuts max|res| by CHORD_CONTRACTION.
When the chord step misses, the Jacobian is rebuilt and refactored at the
current iterate, and a backtracking line search accepts a step only if the
iterate stays admissible, stays inside the guarded annulus, and decreases
the residual.
Continuation marches t from the round solution at t = 0 to t = 1, hands the
last factor from one t-step to the next, starts each t-step from the
parabola through the last three accepted states (fewer since the path last
stood still), and halves the step on failure and doubles it after
consecutive easy solves.
scipy.sparse is known to this module only: jacobian_sparse imports it to
form J and newton_solve to factor J, so a run that builds no Jacobian (a
round solve, for one) never loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import (AdmissibilityError, AssumptionFailure, ConeViolation, ContinuationBreakdown,
                     Inadmissible, NewtonFailure)
from .geometry import GraphGeometry, compute_geometry, geometry_from_jet
from .mesh import ScalarField, SphereMesh, field_from_flat, jet_operators
from .problem import HomotopyEndpoints, ProblemSpec, check_assumptions

if TYPE_CHECKING:
    from scipy.sparse import csc_array

GUARD_FRACTION = 0.05  # hard annulus guard widens (r1, r2) by this fraction of the width
DAMPING = 0.5          # line-search backtracking factor
FD_SCALE = 1e-6        # FD Jacobian step h_j = FD_SCALE * (1 + |r_j|)
FD_CHUNK_NODES = 8192  # kernel values per block of jacobian_sparse
MAX_HALVINGS = 20      # line-search backtracking steps before NewtonFailure
CHORD_CONTRACTION = 0.1  # a step on a reused LU must cut max|res| by this factor
MAX_NEWTON = 30        # Newton iterations per solve before NewtonFailure
T_STEP_MIN = 1e-3      # a t-step halved below this ends the continuation in a breakdown
PREDICTOR_ORDER = 2    # a t-step's guess: the polynomial through this many + 1 last accepted states


@dataclass(frozen=True)
class SolverOptions:
    """Newton's stop test and the continuation's first (and largest) t-step."""

    newton_tol: float = 1e-10      # residual max-norm
    t_step_init: float = 0.1

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive")
        if self.t_step_init < T_STEP_MIN:
            raise ValueError(f"t_step_init must be at least T_STEP_MIN = {T_STEP_MIN:g}")


@dataclass(frozen=True)
class NewtonStats:
    iterations: int
    residual_norm: float
    halvings: int = 0
    jacobians: int = 0   # fresh Jacobian builds
    lu: object = field(default=None, compare=False, repr=False)  # factor in hand at return
    # the homotopy endpoints the solution's residual was formed from, or the caller's start
    ends: object = field(default=None, compare=False, repr=False)


@dataclass(frozen=True, eq=False)
class ContinuationState:
    t: float
    r_field: ScalarField
    newton_iters: int
    residual_norm: float
    jacobians: int


def _pointwise_residual(t: float, ends: HomotopyEndpoints) -> np.ndarray:
    """F: K - f^t at each point of ends.geom, f^t from the endpoints ends.

    K = sigma_2(mu) is sigma_k/sigma_l(mu) at the one order ProblemSpec
    admits, (2, 0), and mu is in Gamma_2 where H = sigma_1(mu) > 0 and K > 0;
    raises ConeViolation naming the first point (flat index) outside it.
    """
    geom = ends.geom
    ok = geom.in_cone
    if not ok.all():
        point = int(np.argmin(ok.ravel()))
        raise ConeViolation(f"Newton eigenvalues left the cone at node {point}", node=point)
    return geom.K - ends.at(t)


def node_endpoints(spec: ProblemSpec, r_field: ScalarField) -> HomotopyEndpoints:
    """The homotopy endpoints of r_field: its node geometry, with f bound to its nodes."""
    geom = compute_geometry(r_field.mesh, r_field, spec.profile)
    return HomotopyEndpoints(spec, geom, spec.f_at_nodes(r_field.mesh))


def residual(t: float, ends: HomotopyEndpoints) -> ScalarField:
    """Nodal residual K - f^t on ends.geom, f^t from the endpoints ends; raises on cone exit.

    ends keeps f once read: a caller that holds the endpoints of a node
    geometry evaluates f once for every t on it.
    """
    return ScalarField(ends.geom.mesh, _pointwise_residual(t, ends))


def _fd_steps(rvec) -> np.ndarray:
    """Per-column FD step h_j = FD_SCALE * (1 + |r_j|)."""
    return FD_SCALE * (1.0 + np.abs(rvec))


def jacobian_fd(spec: ProblemSpec, t: float, r_field: ScalarField) -> np.ndarray:
    """Dense central-difference Jacobian of the nodal residual: the test oracle.

    Column j is (R(r + h_j e_j) - R(r - h_j e_j)) / 2h_j, the residuals of
    the endpoints of the perturbed fields; an inadmissible perturbation
    raises.  newton_solve uses jacobian_sparse, which agrees with it to
    rounding.
    """
    mesh, rvec = r_field.mesh, r_field.flat()

    def res(vec):
        return residual(t, node_endpoints(spec, field_from_flat(mesh, vec))).flat()

    return np.column_stack([(res(rvec + step) - res(rvec - step)) / (2.0 * step[j])
                            for j, step in enumerate(np.diag(_fd_steps(rvec)))])


def jacobian_sparse(spec: ProblemSpec, t: float, geom: GraphGeometry) -> csc_array:
    """Sparse finite-difference Jacobian, each stored entry differenced on its own row.

    Column j's step h_j (jacobian_fd's) moves row i's 2-jet
    q_i = (r, r_1, r_2, r_11, r_12, r_22), read off the node geometry geom, by
    h_j d_ij, d_ij the weights of node j in row i's stencils (jet_operators'
    weights on the mesh's shared pattern), so
    J_ij = (F_i(q_i + h_j d_ij) - F_i(q_i - h_j d_ij)) / 2h_j with F the
    pointwise kernel of residual: jacobian_fd's entry up to rounding.  The
    stored entries go through F in blocks of FD_CHUNK_NODES kernel values,
    and J, which shares that read-only pattern, is the one sparse matrix
    the build forms.  f is the node-bound f (f_at_nodes) gathered by row.
    A perturbed jet that raises Inadmissible fails the build with
    AdmissibilityError, as it fails jacobian_fd.  No residual of a whole
    field is evaluated.
    """
    from scipy.sparse import csc_array

    mesh, n = geom.mesh, geom.mesh.n_nodes
    indices, indptr, weights = jet_operators(mesh)
    jet = np.stack([geom.r, geom.r1, geom.r2, geom.r11, geom.r12, geom.r22]).reshape(6, n)
    h = np.repeat(_fd_steps(jet[0]), np.diff(indptr))
    f_nodes = spec.f_at_nodes(mesh)
    data = np.empty(indices.size)
    for lo in range(0, indices.size, FD_CHUNK_NODES // 2):
        stored = slice(lo, lo + FD_CHUNK_NODES // 2)
        rows, step = np.tile(indices[stored], 2), h[stored] * weights[:, stored]
        try:
            shifted = geometry_from_jet(spec.profile, *(jet[:, rows] + np.hstack([step, -step])))
            vals = _pointwise_residual(
                t, HomotopyEndpoints(spec, shifted, f_nodes.take(rows))).reshape(2, -1)
        except Inadmissible as exc:
            raise AdmissibilityError(f"Jacobian at t={t:g}: a perturbed 2-jet is inadmissible "
                                     f"({type(exc).__name__})") from exc
        data[stored] = (vals[0] - vals[1]) / (2.0 * h[stored])
    return csc_array((data, indices, indptr), shape=(n, n))


def _check_guard(spec, rvec):
    """Raise unless every value of rvec lies inside the guarded annulus (NaN does not)."""
    guard = GUARD_FRACTION * (spec.r2 - spec.r1)
    lo, hi = spec.r1 - guard, spec.r2 + guard
    if not (lo < rvec.min() and rvec.max() < hi):
        raise AdmissibilityError(f"iterate left the guarded annulus ({lo:.6g}, {hi:.6g})")


def _trial(spec, mesh, t, rvec):
    """(flat residual, endpoints) of the flat field rvec; None outside the guard or inadmissible."""
    try:
        _check_guard(spec, rvec)
        ends = node_endpoints(spec, field_from_flat(mesh, rvec))
        return residual(t, ends).flat(), ends
    except Inadmissible:
        return None


def newton_solve(spec: ProblemSpec, t: float, start: HomotopyEndpoints,
                 opts: SolverOptions = SolverOptions(), lu=None):
    """Chord-accelerated damped Newton for the nodal equation at fixed t.

    start is the homotopy endpoints (node_endpoints) of the initial iterate,
    checked for the guard and, by its residual at t, for the cone.  Returns
    (solution field, NewtonStats); stats.lu is the factor in hand at return,
    for the next call, and stats.ends the endpoints the solution's residual
    was formed from (start itself if no step is taken).  While a factor
    `lu` (of an earlier Jacobian, possibly at another t) is in hand, an
    iteration first tries the full chord step lu.solve(-res), and keeps it
    only if the trial is inside the guarded annulus, admissible, and cuts
    max|res| by CHORD_CONTRACTION.  Otherwise the trial and the factor are
    dropped: the sparse Jacobian (jacobian_sparse) is built at the current
    iterate and factored by splu, and its Newton step is damped by a
    backtracking line search that halves the step until admissibility and
    residual decrease both hold.  A singular factorization, a non-finite
    fresh step or MAX_NEWTON iterations without convergence raise
    NewtonFailure.  Every accepted iterate is admissible and inside the
    guarded annulus.
    """
    mesh, rvec = start.geom.mesh, start.geom.r.ravel()
    _check_guard(spec, rvec)
    res, ends = residual(t, start).flat(), start  # raises if the start is inadmissible
    norm = float(np.abs(res).max())
    it = halvings_total = jacobians = 0
    while not norm <= opts.newton_tol:
        if it >= MAX_NEWTON:
            raise NewtonFailure(f"no convergence in {MAX_NEWTON} iterations at t={t:g} "
                                f"(|res|={norm:.3e})")
        it += 1
        if lu is not None:
            trial = rvec + lu.solve(-res)
            got = _trial(spec, mesh, t, trial)
            if (got is not None
                    and (trial_norm := float(np.abs(got[0]).max())) <= CHORD_CONTRACTION * norm):
                rvec, (res, ends), norm = trial, got, trial_norm
                continue
        from scipy.sparse.linalg import splu

        jac = jacobian_sparse(spec, t, ends.geom)
        jacobians += 1
        try:
            lu = splu(jac)
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise NewtonFailure(f"Jacobian factorization failed at t={t:g}: {exc}") from exc
        step = lu.solve(-res)
        if not np.isfinite(step).all():
            raise NewtonFailure(f"non-finite Newton step at t={t:g}")
        scale = 1.0
        for k in range(MAX_HALVINGS + 1):
            trial = rvec + scale * step
            got = _trial(spec, mesh, t, trial)
            if got is not None and (trial_norm := float(np.abs(got[0]).max())) < norm:
                rvec, (res, ends), norm = trial, got, trial_norm
                halvings_total += k
                break
            scale *= DAMPING
        else:
            raise NewtonFailure(f"line search failed after {MAX_HALVINGS} halvings at t={t:g}")
    return field_from_flat(mesh, rvec), NewtonStats(it, norm, halvings_total, jacobians, lu, ends)


def continuation_solve(spec: ProblemSpec, mesh: SphereMesh,
                       opts: SolverOptions = SolverOptions(),
                       force: bool = False, on_accept=None):
    """March the homotopy from the round solution at t = 0 to t = 1.

    Refuses to run when the assumption check fails beyond boundary cases,
    unless `force` is set.  Each t-step hands Newton the factor of the last
    fresh Jacobian and, as its start, the last accepted state's homotopy
    endpoints (stats.ends) while the path stands still (Newton took no step
    from its start), a retry included, so f is evaluated once for all those
    t-steps; else the endpoints of p(t_try), formed once p(t_try) is finite
    and inside the guard, p the polynomial (Newton's divided-difference
    form) through the last PREDICTOR_ORDER + 1 states accepted since the
    path last stood still.  A failed t-step drops the factor and halves dt,
    and so does a prediction that is inadmissible or outside the guard.  As
    each state is accepted, t = 0 included, on_accept(state, geom) is called
    with the node geometry of its residual, stats.ends.geom: one object for
    as long as the state does not move.  Raises ContinuationBreakdown
    (carrying the last good state and the failed t-interval, its message
    the error that rejected the last t-step) when dt falls below
    T_STEP_MIN.  Returns (final state, history of accepted states).
    """
    report = check_assumptions(spec)
    if report.hard_failures and not force:
        raise AssumptionFailure(f"assumption check failed: {', '.join(report.hard_failures)}")

    round_start = field_from_flat(mesh, np.full(mesh.n_nodes, spec.phi_rm))
    sol, stats = newton_solve(spec, 0.0, node_endpoints(spec, round_start), opts)
    state = ContinuationState(0.0, sol, stats.iterations, stats.residual_norm, stats.jacobians)
    history = [state]
    if on_accept is not None:
        on_accept(state, stats.ends.geom)
    lu, ends = stats.lu, stats.ends
    # divided differences [r_k], [r_k, r_k-1], [r_k, r_k-1, r_k-2] of the states accepted
    # since the path last stood still, and the nodes t_k, t_k-1 they are read at
    diffs, nodes = [sol.flat()], [0.0]

    dt = opts.t_step_init
    t = 0.0
    easy_streak = 0
    while t < 1.0:
        t_try = 1.0 if t + dt >= 1.0 - 1e-12 else t + dt
        try:
            start = ends
            if len(diffs) > 1:
                p = diffs[-1]
                for d, t_node in reversed(list(zip(diffs[:-1], nodes))):
                    p = d + (t_try - t_node) * p
                guess = field_from_flat(mesh, p)  # NonFiniteField if p is not finite
                _check_guard(spec, p)
                start = node_endpoints(spec, guess)
            sol_try, stats = newton_solve(spec, t_try, start, opts, lu)
        except (Inadmissible, NewtonFailure) as exc:
            lu = None
            dt *= 0.5
            if dt < T_STEP_MIN:
                raise ContinuationBreakdown(
                    f"t-step underflow below {T_STEP_MIN:g} in [{t:g}, {t_try:g}]: "
                    f"{type(exc).__name__}: {exc}",
                    last_good=state,
                    failed_interval=(t, t_try),
                ) from exc
            continue
        if stats.ends is ends:  # Newton reused its start and took no step: the path stood still
            diffs, nodes = diffs[:1], [t_try]
        else:
            diffs = [sol_try.flat()] + diffs[:PREDICTOR_ORDER]
            for i, t_node in enumerate(nodes):
                diffs[i + 1] = (diffs[i] - diffs[i + 1]) / (t_try - t_node)
            nodes = [t_try] + nodes[:PREDICTOR_ORDER - 1]
        t, sol, lu, ends = t_try, sol_try, stats.lu, stats.ends
        state = ContinuationState(t, sol, stats.iterations, stats.residual_norm, stats.jacobians)
        history.append(state)
        if on_accept is not None:
            on_accept(state, stats.ends.geom)
        if stats.iterations <= 4:
            easy_streak += 1
        else:
            easy_streak = 0
        if easy_streak >= 2:
            dt = min(2.0 * dt, opts.t_step_init)
            easy_streak = 0
    return state, history


def total_newton_iterations(history) -> int:
    return sum(s.newton_iters for s in history)


def total_jacobians(history) -> int:
    return sum(s.jacobians for s in history)
