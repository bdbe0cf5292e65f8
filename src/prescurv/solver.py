"""Chord-accelerated damped Newton and homotopy continuation for the nodal curvature equation.

The residual at each node is sigma_k/sigma_l of the Newton-tensor eigenvalues
minus the homotopy value f^t: at n = 2 that is K - f^t, formed with no
eigenvalues by a pointwise kernel over the node's 2-jet.  Newton forms each
distinct field's node geometry, 2-jet included, once, for residual and for
jacobian_sparse, together with the homotopy endpoints f^0 and f at its
nodes (HomotopyEndpoints: each formed on first read, f never at t = 0);
continuation hands an accepted state's geometry to on_accept, and the
geometry with its endpoints to the next t-step's Newton, which starts from
them when its guess is that state (the first t-step, or a path that does
not move), so no caller forms either again.  Newton's sparse
central-difference Jacobian differences that kernel entry by entry (column j's step moves row i's jet by
node j's stencil weights there); a perturbed jet that is inadmissible fails
the build, as it fails the dense oracle jacobian_fd,
which serves the tests and selftest only.  Newton factors J with sparse LU
and keeps the factor: while a factor is in hand, each iteration first tries
the full chord step on it, kept only if it stays admissible, stays inside
the guarded annulus and cuts max|res| by CHORD_CONTRACTION.
When the chord step misses, the Jacobian is rebuilt and refactored at the
current iterate, and a backtracking line search accepts a step only if the
iterate stays admissible, stays inside the guarded annulus, and decreases
the residual.
Continuation marches t from the round solution at t = 0 to t = 1, hands the
last factor from one t-step to the next, starts each t-step from a secant
prediction through the last two accepted states, and halves the step on
failure and doubles it after consecutive easy solves.
scipy.sparse is known to this module only: jacobian_sparse imports it to
form J and newton_solve to factor J, so a run that builds no Jacobian (a
round solve, for one) never loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    AdmissibilityError,
    AssumptionFailure,
    ConeViolation,
    ContinuationBreakdown,
    DomainViolation,
    FEvalError,
    NewtonFailure,
    NonFiniteField,
    ProfileViolation,
)
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

# A trial point raising one of these is inadmissible: the line search steps
# back from it, a chord step is dropped, jacobian_sparse raises
# AdmissibilityError, and a predicted t-step guess halves dt.  A residual or
# a secant guess that is not finite raises NonFiniteField.
INADMISSIBLE = (ConeViolation, DomainViolation, ProfileViolation, FEvalError, NonFiniteField)


@dataclass(frozen=True)
class SolverOptions:
    newton_tol: float = 1e-10      # residual max-norm
    max_newton: int = 30
    t_step_init: float = 0.1
    t_step_min: float = 1e-3

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive")
        if self.t_step_min > self.t_step_init:
            raise ValueError("t_step_min must not exceed t_step_init")


@dataclass(frozen=True)
class NewtonStats:
    iterations: int
    residual_norm: float
    halvings: int = 0
    jacobians: int = 0   # fresh Jacobian builds
    lu: object = field(default=None, compare=False, repr=False)  # factor in hand at return
    # the solution's node geometry with its homotopy endpoints, or the caller's
    ends: object = field(default=None, compare=False, repr=False)

    @property
    def geom(self):
        """The node geometry the solution's residual was formed from."""
        return self.ends.geom


@dataclass(frozen=True)
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
    if not np.all(ok):
        point = int(np.argmin(ok.ravel()))
        raise ConeViolation(f"Newton eigenvalues left the cone at node {point}", node=point)
    return geom.K - ends.at(t)


def _node_endpoints(spec: ProblemSpec, geom) -> HomotopyEndpoints:
    """The homotopy endpoints at the nodes of geom; geom itself if it is such endpoints."""
    if isinstance(geom, HomotopyEndpoints):
        return geom
    mesh = geom.mesh
    return HomotopyEndpoints(spec, geom, mesh.theta_grid(), mesh.phi_grid())


def residual(spec: ProblemSpec, t: float, geom) -> ScalarField:
    """Nodal residual K - f^t on geom; raises on cone exit.

    geom is a node geometry (compute_geometry's), or the HomotopyEndpoints at
    its nodes, whose f^0 and f it reads and keeps: so a caller that holds
    those endpoints evaluates f once for every t on that geometry.
    """
    ends = _node_endpoints(spec, geom)
    return ScalarField(ends.geom.mesh, _pointwise_residual(t, ends))


def _residual_vec(spec, mesh, t, rvec):
    """(flat residual, node endpoints) of the flat field rvec; raises on cone or domain exit."""
    ends = _node_endpoints(spec, compute_geometry(mesh, field_from_flat(mesh, rvec), spec.profile))
    return residual(spec, t, ends).flat(), ends


def _fd_steps(rvec) -> np.ndarray:
    """Per-column FD step h_j = FD_SCALE * (1 + |r_j|)."""
    return FD_SCALE * (1.0 + np.abs(rvec))


def jacobian_fd(spec: ProblemSpec, mesh: SphereMesh, t: float,
                r_field: ScalarField) -> np.ndarray:
    """Dense central-difference Jacobian of the nodal residual: the test oracle.

    Column j is (R(r + h_j e_j) - R(r - h_j e_j)) / 2h_j, two residuals of
    the perturbed field; an inadmissible perturbation raises.  newton_solve
    uses jacobian_sparse, which agrees with it to rounding.
    """
    rvec = r_field.flat()
    return np.column_stack([(_residual_vec(spec, mesh, t, rvec + step)[0]
                             - _residual_vec(spec, mesh, t, rvec - step)[0]) / (2.0 * step[j])
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
    the build forms.
    A perturbed jet that raises one of INADMISSIBLE fails the build with
    AdmissibilityError, as it fails jacobian_fd.  No residual of a whole
    field is evaluated.
    """
    from scipy.sparse import csc_array

    mesh, n = geom.mesh, geom.mesh.n_nodes
    indices, indptr, weights = jet_operators(mesh)
    jet = np.stack([geom.r, geom.r1, geom.r2, geom.r11, geom.r12, geom.r22]).reshape(6, n)
    h = np.repeat(_fd_steps(jet[0]), np.diff(indptr))
    th, ph = mesh.theta_grid().ravel(), mesh.phi_grid().ravel()
    data = np.empty(indices.size)
    for lo in range(0, indices.size, FD_CHUNK_NODES // 2):
        stored = slice(lo, lo + FD_CHUNK_NODES // 2)
        rows, step = np.tile(indices[stored], 2), h[stored] * weights[:, stored]
        try:
            shifted = geometry_from_jet(spec.profile, *(jet[:, rows] + np.hstack([step, -step])))
            vals = _pointwise_residual(
                t, HomotopyEndpoints(spec, shifted, th[rows], ph[rows])).reshape(2, -1)
        except INADMISSIBLE as exc:
            raise AdmissibilityError(f"Jacobian at t={t:g}: a perturbed 2-jet is inadmissible "
                                     f"({type(exc).__name__})") from exc
        data[stored] = (vals[0] - vals[1]) / (2.0 * h[stored])
    return csc_array((data, indices, indptr), shape=(n, n))


def _guard_bounds(spec: ProblemSpec):
    guard = GUARD_FRACTION * (spec.r2 - spec.r1)
    return spec.r1 - guard, spec.r2 + guard


def _check_guard(spec, rvec):
    """Raise unless every value of rvec lies inside the guarded annulus (NaN does not)."""
    lo, hi = _guard_bounds(spec)
    if not (lo < rvec.min() and rvec.max() < hi):
        raise AdmissibilityError(
            f"iterate left the guarded annulus ({lo:.6g}, {hi:.6g})"
        )


def _trial_residual(spec, mesh, t, trial):
    """(residual, node endpoints) at trial, or None where trial leaves the guard or is inadmissible."""
    try:
        _check_guard(spec, trial)
        return _residual_vec(spec, mesh, t, trial)
    except INADMISSIBLE + (AdmissibilityError,):
        return None


def newton_solve(spec: ProblemSpec, mesh: SphereMesh, t: float, r_init: ScalarField,
                 opts: SolverOptions = SolverOptions(), lu=None, geom=None):
    """Chord-accelerated damped Newton for the nodal equation at fixed t.

    Returns (solution field, NewtonStats); stats.lu is the factor in hand at
    return, for the next call, stats.geom the geometry the solution's
    residual was formed from, and stats.ends that geometry with its homotopy
    endpoints (HomotopyEndpoints).  A node geometry `geom` on this mesh whose
    r equals r_init node for node, or a stats.ends of this spec holding one,
    is the start's: neither that geometry nor an endpoint it holds is formed
    again (stats.geom is then geom's if no step is taken); any other geom is
    ignored.  Either way the start residual at t, cone check included, is
    evaluated.  While a factor `lu` (of an earlier Jacobian, possibly at
    another t) is in hand, an iteration first tries the full chord step
    lu.solve(-res), and keeps it only if the trial is inside the guarded
    annulus, admissible, and cuts max|res| by CHORD_CONTRACTION.
    Otherwise the trial and the factor are dropped: the sparse Jacobian
    (jacobian_sparse) is built at the current iterate and
    factored by splu, and its Newton step is damped by a backtracking line
    search that halves the step until admissibility and residual decrease
    both hold.  A singular factorization or a non-finite fresh step raises
    NewtonFailure.  Every accepted iterate is admissible and inside the
    guarded annulus.
    """
    rvec = r_init.flat().copy()
    _check_guard(spec, rvec)
    ends = None if geom is None else _node_endpoints(spec, geom)
    if (ends is not None and ends.spec is spec and ends.geom.mesh is mesh
            and np.array_equal(ends.geom.r.ravel(), rvec)):
        res = residual(spec, t, ends).flat()
    else:
        res, ends = _residual_vec(spec, mesh, t, rvec)  # either raises if r_init inadmissible
    norm = float(np.abs(res).max())
    it = halvings_total = jacobians = 0
    while not norm <= opts.newton_tol:
        if it == opts.max_newton:
            raise NewtonFailure(f"no convergence in {opts.max_newton} iterations at t={t:g} "
                                f"(|res|={norm:.3e})")
        it += 1
        if lu is not None:
            trial = rvec + lu.solve(-res)
            got = _trial_residual(spec, mesh, t, trial)
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
        if not np.all(np.isfinite(step)):
            raise NewtonFailure(f"non-finite Newton step at t={t:g}")
        scale = 1.0
        for k in range(MAX_HALVINGS + 1):
            trial = rvec + scale * step
            got = _trial_residual(spec, mesh, t, trial)
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
    unless `force` is set.  Each t-step starts Newton from the secant
    prediction through the last two accepted states (from the last state on
    the first step), and hands it the factor of the last fresh Jacobian and
    the last accepted state's geometry with its homotopy endpoints
    (stats.ends), which Newton reuses, on a retry too, when the prediction is
    that state: then f is evaluated once for all those t-steps.  The
    endpoints stay with the continuation and are freed with it.  A failed
    t-step drops the factor and halves dt, and so does a prediction that is
    inadmissible (not finite included) or outside the guard.  As each state
    is accepted, t = 0 included, on_accept(state, geom) is called with the
    node geometry of its residual (without the endpoints): one object for as
    long as the state does not move.  Raises
    ContinuationBreakdown (carrying the last good state and the failed
    t-interval, its message the error that rejected the last t-step) when
    the t-step underflows.  Returns (final state, history of accepted
    states).
    """
    report = check_assumptions(spec)
    if report.hard_failures and not force:
        raise AssumptionFailure(f"assumption check failed: {', '.join(report.hard_failures)}")

    r_init = field_from_flat(mesh, np.full(mesh.n_nodes, spec.phi_rm))
    sol, stats = newton_solve(spec, mesh, 0.0, r_init, opts)
    state = ContinuationState(0.0, sol, stats.iterations, stats.residual_norm, stats.jacobians)
    history = [state]
    if on_accept is not None:
        on_accept(state, stats.geom)
    lu, ends, slope = stats.lu, stats.ends, np.zeros(mesh.n_nodes)

    dt = opts.t_step_init
    t = 0.0
    easy_streak = 0
    while t < 1.0:
        t_try = 1.0 if t + dt >= 1.0 - 1e-12 else t + dt
        try:
            guess = field_from_flat(mesh, sol.flat() + (t_try - t) * slope)
            sol_try, stats = newton_solve(spec, mesh, t_try, guess, opts, lu, ends)
        except INADMISSIBLE + (NewtonFailure, AdmissibilityError) as exc:
            lu = None
            dt *= 0.5
            if dt < opts.t_step_min:
                raise ContinuationBreakdown(
                    f"t-step underflow below {opts.t_step_min:g} in [{t:g}, {t_try:g}]: "
                    f"{type(exc).__name__}: {exc}",
                    last_good=state,
                    failed_interval=(t, t_try),
                ) from exc
            continue
        slope = (sol_try.flat() - sol.flat()) / (t_try - t)
        t, sol, lu, ends = t_try, sol_try, stats.lu, stats.ends
        state = ContinuationState(t, sol, stats.iterations, stats.residual_norm, stats.jacobians)
        history.append(state)
        if on_accept is not None:
            on_accept(state, stats.geom)
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
