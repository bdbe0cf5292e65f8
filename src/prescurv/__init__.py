"""Prescribed Weingarten-curvature solver on radial graphs over the sphere.

Solves sigma_k/sigma_l of the Newton-tensor eigenvalues equal to a prescribed
positive function, for star-shaped closed surfaces r(u) over S^2 inside a
warped product dr^2 + lambda(r)^2 g', by damped-Newton homotopy continuation
from the unique round solution.
"""

from .warp import WarpProfile, validate_profile
from .symm import (
    QuotientOrder,
    sigma,
    sigma_minor,
    in_gamma_k,
    quotient_value,
    quotient_gradient_diag,
    f_coeffs,
    cone_lower_bound,
    offdiag_identity_residual,
    concavity_probe,
)
from .mesh import (
    SphereMesh,
    ScalarField,
    build_mesh,
    field_from_function,
    field_from_flat,
    frame_derivatives,
    integrate,
)
from .geometry import (
    GraphGeometry,
    compute_geometry,
    extrinsic_shape_operator,
    check_support_identities,
    check_codazzi_flat,
)
from .problem import (
    ProblemSpec,
    parse_f,
    eval_f,
    blend_f_t,
    phi_value,
    threshold,
    manufacture_f,
    check_assumptions,
)
from .solver import (
    SolverOptions,
    ContinuationState,
    residual,
    jacobian_fd,
    newton_solve,
    continuation_solve,
)
from .monitor import MonitorRecord, monitor, refinement_stability

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
