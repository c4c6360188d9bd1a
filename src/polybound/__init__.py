"""Piecewise-linear bounding boxes for polynomial finite element bases.

The package precomputes, for each basis function of a 1D reference basis,
a pair of piecewise-linear functions on a small set of control nodes that
enclose it everywhere on [-1, 1]. Those tables then give guaranteed lower
and upper bounds for arbitrary polynomials (1D and tensor-product 2D/3D)
at the cost of a few small matrix products. Two applications are included:
validity certification of high-order curved quad meshes (positivity of the
Jacobian determinant) and a bounds-preserving squeeze limiter inside a
small DG transport solver.
"""

from .basis import (
    BasisSpec,
    make_basis,
    make_node_set,
    eval_basis,
    basis_matrix,
    basis_deriv_matrix,
    change_basis,
    gauss_legendre_rule,
    gauss_lobatto_rule,
)
from .boxopt import (
    BoundingTable,
    optimize_values,
    offset_correction,
    optimize_nodes,
    verify_table,
    save_table,
    load_table,
    reference_table,
    standard_table,
)
from .bounder import (
    PolyCoeffs,
    NodeBounds,
    BoundSummary,
    project_p1,
    bound_nodes,
    bound_tensor,
    bernstein_bounds,
    brute_force_extrema,
    sampled_extrema,
    subdivide,
    bound_adaptive,
    read_coeffs,
    write_coeffs,
)
from .meshcheck import (
    CurvedMesh,
    ElementReport,
    ValidityReport,
    detj_coeffs,
    classify_element,
    check_mesh,
    read_mesh,
    write_mesh,
)
from .limiter import (
    DGState,
    element_mean,
    squeeze_alpha,
    apply_limiter,
    dg_step,
    step_interpolation_table,
)

__version__ = "0.1.0"

__all__ = [
    "BasisSpec",
    "make_basis",
    "make_node_set",
    "eval_basis",
    "basis_matrix",
    "basis_deriv_matrix",
    "change_basis",
    "gauss_legendre_rule",
    "gauss_lobatto_rule",
    "BoundingTable",
    "optimize_values",
    "offset_correction",
    "optimize_nodes",
    "verify_table",
    "save_table",
    "load_table",
    "reference_table",
    "standard_table",
    "PolyCoeffs",
    "NodeBounds",
    "BoundSummary",
    "project_p1",
    "bound_nodes",
    "bound_tensor",
    "bernstein_bounds",
    "brute_force_extrema",
    "sampled_extrema",
    "subdivide",
    "bound_adaptive",
    "read_coeffs",
    "write_coeffs",
    "CurvedMesh",
    "ElementReport",
    "ValidityReport",
    "detj_coeffs",
    "classify_element",
    "check_mesh",
    "read_mesh",
    "write_mesh",
    "DGState",
    "element_mean",
    "squeeze_alpha",
    "apply_limiter",
    "dg_step",
    "step_interpolation_table",
]
