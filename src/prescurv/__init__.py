"""Prescribed Weingarten-curvature solver on radial graphs over the sphere.

Solves sigma_k/sigma_l of the Newton-tensor eigenvalues equal to a prescribed
positive function, for star-shaped closed surfaces r(u) over S^2 inside a
warped product dr^2 + lambda(r)^2 g', by damped-Newton homotopy continuation
from the unique round solution.

Names are imported from their modules (prescurv.warp, prescurv.solver, ...):
the package itself defines nothing but __version__.
"""

__version__ = "0.1.0"
