"""Chord-accelerated damped Newton and homotopy continuation for the nodal curvature equation.

The residual at each node is sigma_k/sigma_l of the Newton-tensor eigenvalues
minus the homotopy value f^t: at n = 2 that is K - f^t, formed with no
eigenvalues.  Newton builds a sparse central-difference Jacobian by column
colouring over the stencil footprint (a first-fit greedy colouring, built
once per mesh shape), factors it with sparse LU, and keeps the factor: while
a factor is in hand, each iteration first tries the full chord step on it,
kept only if it stays admissible, stays inside the guarded annulus and cuts
max|res| by CHORD_CONTRACTION.  When the chord step misses, the Jacobian is
rebuilt and refactored at the current iterate, and a backtracking line
search accepts a step only if the iterate stays admissible, stays inside the
guarded annulus, and decreases the residual.
The residual takes a stack of fields, so the Jacobian evaluates all its
colour-group perturbations in a few stacked passes of at most
FD_CHUNK_NODES node values; a pass that meets an inadmissible perturbation
is redone group by group, one-sided where a perturbation leaves the
admissible set.  The dense per-column Jacobian, jacobian_fd, is kept as the
test oracle and differences one field at a time.
Continuation marches t from the round solution at t = 0 to t = 1, hands the
last factor from one t-step to the next, starts each t-step from a secant
prediction through the last two accepted states, and halves the step on
failure and doubles it after consecutive easy solves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csc_array
from scipy.sparse.linalg import splu

from .errors import (
    AdmissibilityError,
    AssumptionFailure,
    ConeViolation,
    ContinuationBreakdown,
    DomainViolation,
    FEvalError,
    NewtonFailure,
    ProfileViolation,
)
from .geometry import compute_geometry
from .mesh import ScalarField, SphereMesh, build_mesh, field_from_flat, stencil_footprint
from .problem import ProblemSpec, blend_f_t, check_assumptions

GUARD_FRACTION = 0.05  # hard annulus guard widens (r1, r2) by this fraction of the width
DAMPING = 0.5          # line-search backtracking factor
FD_SCALE = 1e-6        # FD Jacobian step h_j = FD_SCALE * (1 + |r_j|)
FD_CHUNK_NODES = 8192  # node values per stacked residual pass of jacobian_coloured
MAX_HALVINGS = 20      # line-search backtracking steps before NewtonFailure
CHORD_CONTRACTION = 0.1  # a step on a reused LU must cut max|res| by this factor

# A trial point raising one of these is inadmissible: the line search steps
# back from it, a chord step is dropped, the FD Jacobian differences
# one-sided away from it, and a predicted t-step guess halves dt.
INADMISSIBLE = (ConeViolation, DomainViolation, ProfileViolation, FEvalError)


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


@dataclass(frozen=True)
class ContinuationState:
    t: float
    r_field: ScalarField
    newton_iters: int
    residual_norm: float
    jacobians: int


def residual(spec: ProblemSpec, mesh: SphereMesh, t: float, r_field: ScalarField) -> ScalarField:
    """Nodal residual K - f^t; raises on cone or domain exit.

    K = sigma_2(mu) is sigma_k/sigma_l(mu) at the one order ProblemSpec
    admits, (2, 0), and mu is in Gamma_2 where H = sigma_1(mu) > 0 and K > 0.
    A stacked r_field (mesh shape last) gives the stacked residual in one
    pass, and raises if any member does.
    """
    geom = compute_geometry(mesh, r_field, spec.profile)
    ok = geom.in_cone
    if not np.all(ok):
        node = int(np.argmin(ok.ravel())) % mesh.n_nodes
        raise ConeViolation(f"Newton eigenvalues left the cone at node {node}", node=node)
    return ScalarField(mesh, geom.K - blend_f_t(spec, t, geom))


def _residual_vec(spec, mesh, t, rvec):
    return residual(spec, mesh, t, field_from_flat(mesh, rvec)).flat()


def _fd_steps(rvec) -> np.ndarray:
    """Per-column FD step h_j = FD_SCALE * (1 + |r_j|)."""
    return FD_SCALE * (1.0 + np.abs(rvec))


def _shifted_residual(spec, mesh, t, rvec, cols, h):
    """Residual with rvec[cols] moved by h, or None where that point is inadmissible."""
    trial = rvec.copy()
    trial[cols] += h
    try:
        return _residual_vec(spec, mesh, t, trial)
    except INADMISSIBLE:
        return None


def _fd_column(spec, mesh, t, rvec, j, h, base):
    """Column j of the FD Jacobian, differenced on its own.

    Central; one-sided (against `base()`, the unperturbed residual) when one
    perturbation leaves the admissible set; AdmissibilityError when both do.
    """
    plus = _shifted_residual(spec, mesh, t, rvec, j, h)
    minus = _shifted_residual(spec, mesh, t, rvec, j, -h)
    if plus is not None and minus is not None:
        return (plus - minus) / (2.0 * h)
    if plus is not None:
        return (plus - base()) / h
    if minus is not None:
        return (base() - minus) / h
    raise AdmissibilityError(f"Jacobian column {j}: both one-sided perturbations inadmissible")


def _base_residual(spec, mesh, t, rvec):
    """The unperturbed residual, evaluated on first use only."""
    return functools.cache(lambda: _residual_vec(spec, mesh, t, rvec))


def jacobian_fd(spec: ProblemSpec, mesh: SphereMesh, t: float,
                r_field: ScalarField) -> np.ndarray:
    """Dense finite-difference Jacobian of the nodal residual: the test oracle.

    Differences every column on its own with _fd_column (two residual
    evaluations per node, one-sided where a perturbation is inadmissible);
    newton_solve uses jacobian_coloured, which agrees with it entry for entry.
    """
    rvec = r_field.flat()
    h = _fd_steps(rvec)
    base = _base_residual(spec, mesh, t, rvec)
    return np.column_stack([_fd_column(spec, mesh, t, rvec, j, h[j], base)
                            for j in range(rvec.size)])


@dataclass(frozen=True)
class _Sparsity:
    """CSC sparsity pattern of the Jacobian and its column colouring."""

    indptr: np.ndarray
    indices: np.ndarray        # row of each stored entry
    entry_col: np.ndarray      # column of each stored entry
    colour: np.ndarray         # colour group of each column
    groups: list               # column indices of each colour group


def _first_fit_colouring(conflict, order) -> np.ndarray:
    """Greedy colouring: each column in `order` takes the smallest colour that
    no column sharing a row with it (a stored entry of `conflict`) holds yet."""
    colour = np.full(conflict.shape[0], -1)
    for j in order:
        taken = set(colour[conflict.indices[conflict.indptr[j]:conflict.indptr[j + 1]]].tolist())
        colour[j] = next(c for c in range(len(taken) + 1) if c not in taken)
    return colour


@functools.cache
def _sparsity(n_theta: int, n_phi: int) -> _Sparsity:
    """The _Sparsity of a mesh shape (n_phi = 0: reduced), built on first use."""
    mesh = build_mesh(n_theta, n_phi, reduced=not n_phi)
    n = mesh.n_nodes
    rows, cols = stencil_footprint(mesh)
    pattern = csc_array((np.ones(rows.size), (rows, cols)), shape=(n, n))
    conflict = (pattern.T @ pattern).tocsc()
    # first fit depends on the column order: keep the better of the natural
    # order and one fixed shuffle
    orders = (np.arange(n), np.random.RandomState(0).permutation(n))
    colour = min((_first_fit_colouring(conflict, order) for order in orders), key=np.max)
    return _Sparsity(pattern.indptr, pattern.indices,
                     np.repeat(np.arange(n), np.diff(pattern.indptr)), colour,
                     [np.flatnonzero(colour == c) for c in range(colour.max() + 1)])


def jacobian_coloured(spec: ProblemSpec, mesh: SphereMesh, t: float,
                      r_field: ScalarField) -> csc_array:
    """Sparse finite-difference Jacobian by Curtis-Powell-Reid column colouring.

    Columns of one colour touch disjoint rows of the stencil footprint, so
    one central difference per colour group, with the per-column steps of
    jacobian_fd, yields all their entries; the residual is local, so each
    entry equals jacobian_fd's.  The 2G perturbed fields of the G groups
    (every group's +h member, then every -h member) go through the residual
    as stacks of at most FD_CHUNK_NODES node values, one pass per stack.  A
    pass that raises one of INADMISSIBLE is redone member by member, and a
    group with an inadmissible member is differenced column by column,
    exactly as jacobian_fd does.  The pattern and colouring are built on
    first use per mesh shape.
    """
    sp = _sparsity(mesh.n_theta, mesh.n_phi)
    rvec = r_field.flat()
    n, n_groups = rvec.size, len(sp.groups)
    h = _fd_steps(rvec)
    res = np.zeros((2 * n_groups, n))
    admissible = np.ones(2 * n_groups, dtype=bool)
    per_pass = max(1, FD_CHUNK_NODES // n)
    for lo in range(0, 2 * n_groups, per_pass):
        members = np.arange(lo, min(lo + per_pass, 2 * n_groups))
        group, sign = members % n_groups, np.where(members < n_groups, 1.0, -1.0)
        trials = rvec + np.where(sp.colour == group[:, None], sign[:, None] * h, 0.0)
        try:
            stack = ScalarField(mesh, trials.reshape(members.shape + mesh.shape))
            res[members] = residual(spec, mesh, t, stack).values.reshape(members.size, n)
        except INADMISSIBLE:
            for q, g, s in zip(members, group, sign):
                cols = sp.groups[g]
                row = _shifted_residual(spec, mesh, t, rvec, cols, s * h[cols])
                admissible[q] = row is not None
                if admissible[q]:
                    res[q] = row
    entry_colour = sp.colour[sp.entry_col]
    data = ((res[entry_colour, sp.indices] - res[entry_colour + n_groups, sp.indices])
            / (2.0 * h[sp.entry_col]))
    base = _base_residual(spec, mesh, t, rvec)
    for g in np.flatnonzero(~(admissible[:n_groups] & admissible[n_groups:])):
        for j in sp.groups[g]:
            stored = slice(sp.indptr[j], sp.indptr[j + 1])
            data[stored] = _fd_column(spec, mesh, t, rvec, j, h[j], base)[sp.indices[stored]]
    return csc_array((data, sp.indices, sp.indptr), shape=(n, n))


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
    """Residual at trial, or None where trial leaves the guard or is inadmissible."""
    try:
        _check_guard(spec, trial)
        return _residual_vec(spec, mesh, t, trial)
    except INADMISSIBLE + (AdmissibilityError,):
        return None


def newton_solve(spec: ProblemSpec, mesh: SphereMesh, t: float, r_init: ScalarField,
                 opts: SolverOptions = SolverOptions(), lu=None):
    """Chord-accelerated damped Newton for the nodal equation at fixed t.

    Returns (solution field, NewtonStats); stats.lu is the factor in hand at
    return, for the next call.  While a factor `lu` (of an earlier Jacobian,
    possibly at another t) is in hand, an iteration first tries the full
    chord step lu.solve(-res), and keeps it only if the trial is inside the
    guarded annulus, admissible, and cuts max|res| by CHORD_CONTRACTION.
    Otherwise the trial and the factor are dropped: the coloured sparse
    Jacobian (jacobian_coloured) is built at the current iterate and
    factored by splu, and its Newton step is damped by a backtracking line
    search that halves the step until admissibility and residual decrease
    both hold.  A singular factorization or a non-finite fresh step raises
    NewtonFailure.  Every accepted iterate is admissible and inside the
    guarded annulus.
    """
    rvec = r_init.flat().copy()
    _check_guard(spec, rvec)
    res = _residual_vec(spec, mesh, t, rvec)  # raises if r_init inadmissible
    norm = float(np.abs(res).max())
    halvings_total = jacobians = 0
    for it in range(opts.max_newton):
        if norm <= opts.newton_tol:
            return field_from_flat(mesh, rvec), NewtonStats(it, norm, halvings_total, jacobians, lu)
        if lu is not None:
            trial = rvec + lu.solve(-res)
            trial_res = _trial_residual(spec, mesh, t, trial)
            if (trial_res is not None
                    and (trial_norm := float(np.abs(trial_res).max())) <= CHORD_CONTRACTION * norm):
                rvec, res, norm = trial, trial_res, trial_norm
                continue
        jac = jacobian_coloured(spec, mesh, t, field_from_flat(mesh, rvec))
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
            trial_res = _trial_residual(spec, mesh, t, trial)
            if trial_res is not None and (trial_norm := float(np.abs(trial_res).max())) < norm:
                rvec, res, norm = trial, trial_res, trial_norm
                halvings_total += k
                break
            scale *= DAMPING
        else:
            raise NewtonFailure(
                f"line search failed after {MAX_HALVINGS} halvings at t={t:g}"
            )
    if norm <= opts.newton_tol:
        return field_from_flat(mesh, rvec), NewtonStats(opts.max_newton, norm, halvings_total,
                                                        jacobians, lu)
    raise NewtonFailure(f"no convergence in {opts.max_newton} iterations at t={t:g} (|res|={norm:.3e})")


def continuation_solve(spec: ProblemSpec, mesh: SphereMesh,
                       opts: SolverOptions = SolverOptions(),
                       force: bool = False):
    """March the homotopy from the round solution at t = 0 to t = 1.

    Refuses to run when the assumption check fails beyond boundary cases,
    unless `force` is set.  Each t-step starts Newton from the secant
    prediction through the last two accepted states (from the last state on
    the first step) and hands it the factor of the last fresh Jacobian; a
    failed t-step drops the factor and halves dt, and so does a prediction
    that is inadmissible or outside the guard.  Raises ContinuationBreakdown
    (carrying the last good state and the failed t-interval) when the
    t-step underflows.  Returns (final state, history of accepted states).
    """
    report = check_assumptions(spec)
    if report.hard_failures and not force:
        raise AssumptionFailure(
            f"assumption check failed: {', '.join(report.hard_failures)}", report=report
        )

    r_init = field_from_flat(mesh, np.full(mesh.n_nodes, spec.phi_rm))
    sol, stats = newton_solve(spec, mesh, 0.0, r_init, opts)
    state = ContinuationState(0.0, sol, stats.iterations, stats.residual_norm, stats.jacobians)
    history = [state]
    lu, slope = stats.lu, np.zeros(mesh.n_nodes)

    dt = opts.t_step_init
    t = 0.0
    easy_streak = 0
    while t < 1.0:
        t_try = 1.0 if t + dt >= 1.0 - 1e-12 else t + dt
        guess = field_from_flat(mesh, sol.flat() + (t_try - t) * slope)
        try:
            sol_try, stats = newton_solve(spec, mesh, t_try, guess, opts, lu)
        except INADMISSIBLE + (NewtonFailure, AdmissibilityError):
            lu = None
            dt *= 0.5
            if dt < opts.t_step_min:
                raise ContinuationBreakdown(
                    f"t-step underflow below {opts.t_step_min:g} in [{t:g}, {t_try:g}]",
                    last_good=state,
                    failed_interval=(t, t_try),
                    history=history,
                )
            continue
        slope = (sol_try.flat() - sol.flat()) / (t_try - t)
        t, sol, lu = t_try, sol_try, stats.lu
        state = ContinuationState(t, sol, stats.iterations, stats.residual_norm, stats.jacobians)
        history.append(state)
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
