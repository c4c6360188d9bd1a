"""Piecewise-linear bounding boxes for polynomial finite element bases.

The package precomputes, for each basis function of a 1D reference basis,
a pair of piecewise-linear functions on a small set of control nodes that
enclose it everywhere on [-1, 1]. Those tables then give guaranteed lower
and upper bounds for arbitrary polynomials (1D and tensor-product 2D/3D)
at the cost of a few small matrix products. Two applications are included:
validity certification of high-order curved quad meshes (positivity of the
Jacobian determinant) and a bounds-preserving squeeze limiter inside a
small DG transport solver.

The top level carries the quick-start names; everything else is imported
from its module (basis, boxopt, bounder, meshcheck, limiter).
"""

from .basis import make_basis
from .boxopt import standard_table
from .bounder import PolyCoeffs, bound_tensor, bernstein_bounds

__version__ = "0.1.0"

__all__ = ["PolyCoeffs", "make_basis", "standard_table", "bound_tensor", "bernstein_bounds"]
