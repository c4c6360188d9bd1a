"""Validity certification for high-order quadrilateral meshes.

An element is valid when the Jacobian determinant of its reference-to-
physical map is positive everywhere. det J is itself polynomial, so the
node-bound machinery applies: positive lower bounds at all control nodes
certify validity, a negative upper bound anywhere certifies inversion,
and the undecided strip in between gets subdivided until the tolerance
or level budget runs out. check_mesh refines a block of elements at a
time through bounder.refine, one batched bound per generation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import (FormatError, _floats, _read_text, _transform_matrix, _write_text,
                    basis_deriv_matrix, basis_matrix, gauss_lobatto_nodes, make_basis)
from .bounder import (PolyCoeffs, _as_ladder, _bernstein_stack, _corners, _one_table,
                      _require_finite, _restrict, bound_nodes, refine)
from .boxopt import standard_table

__all__ = [
    "CurvedMesh",
    "ElementReport",
    "ValidityReport",
    "detj_coeffs",
    "detj_tables",
    "classify_element",
    "check_mesh",
    "read_mesh",
    "write_mesh",
    "uniform_mesh",
    "perturb_mesh",
    "mirror_element",
    "refinement_ladder",
]

_MAX_GEOMETRIC_ORDER = 8


@dataclass(frozen=True, eq=False)
class CurvedMesh:
    """2D quad mesh of geometric order p.

    elements is one read-only (E, (p+1)^2, 2) array: the node coordinates
    of each element in lexicographic reference order, xi varying fastest.
    A sequence of ((p+1)^2, 2) arrays is accepted too. Validity is
    element-local, so no connectivity is stored.
    """

    p: int
    elements: np.ndarray

    def __post_init__(self):
        if not 1 <= self.p <= _MAX_GEOMETRIC_ORDER:
            raise ValueError(f"geometric order must be 1..{_MAX_GEOMETRIC_ORDER}")
        want = (self.p + 1) ** 2
        nodes = np.array(self.elements, dtype=float)
        if nodes.shape == (0,):
            nodes = nodes.reshape(0, want, 2)
        if nodes.ndim != 3 or nodes.shape[1:] != (want, 2):
            raise ValueError(f"expected elements of shape ({want}, 2), got {nodes.shape}")
        finite = np.isfinite(nodes).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"element {np.argmin(finite)}: non-finite coordinates")
        nodes.flags.writeable = False
        object.__setattr__(self, "elements", nodes)

    @property
    def n_elements(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class ElementReport:
    index: int
    status: str  # valid | invalid | indeterminate
    min_detj_interval: tuple
    levels_used: int

    @property
    def policy_invalid(self) -> bool:
        """Indeterminate elements are counted invalid by policy."""
        return self.status == "indeterminate"


@dataclass(frozen=True)
class ValidityReport:
    elements: tuple

    @property
    def all_valid(self) -> bool:
        return all(e.status == "valid" for e in self.elements)

    def counts(self) -> dict:
        out = {"valid": 0, "invalid": 0, "indeterminate": 0}
        for e in self.elements:
            out[e.status] += 1
        return out


def _element_nodes(element):
    """One element's (n, 2) node array and its geometric order p, n = (p+1)^2."""
    nodes = np.asarray(element, dtype=float)
    n = len(nodes) if nodes.ndim else 0
    p = math.isqrt(n) - 1
    if nodes.shape != (n, 2) or (p + 1) ** 2 != n or not 1 <= p <= _MAX_GEOMETRIC_ORDER:
        raise ValueError(f"an element needs (p+1)^2 nodes of 2 coordinates with geometric "
                         f"order p in 1..{_MAX_GEOMETRIC_ORDER}, got {n} nodes in an array "
                         f"of shape {nodes.shape}")
    return nodes, p


def _detj_ops(p: int):
    """det J target basis plus geometry values and derivatives at its nodes."""
    geom = make_basis("lobatto-nodal", p)
    target = make_basis("lobatto-nodal", 2 * p - 1)
    return target, basis_matrix(geom, target.nodes), basis_deriv_matrix(geom, target.nodes)


def _detj_stack(nodes, V, D) -> np.ndarray:
    """det J nodal coefficients, (E, (p+1)^2, 2) -> (E, 2p, 2p), from _detj_ops(p)'s V, D."""
    n = V.shape[1]  # p + 1
    X = nodes[..., 0].reshape(-1, n, n)  # axes (element, eta, xi)
    Y = nodes[..., 1].reshape(-1, n, n)
    x_xi = V @ X @ D.T
    x_eta = D @ X @ V.T
    y_xi = V @ Y @ D.T
    y_eta = D @ Y @ V.T
    return x_xi * y_eta - x_eta * y_xi


def detj_coeffs(element, p: int) -> PolyCoeffs:
    """Jacobian determinant of one element as a nodal polynomial.

    The product of two order-p derivative fields has per-dimension order
    2p-1 at most, so interpolating det J at the (2p)^2 Gauss-Lobatto
    nodes of that target space is representation-exact.
    """
    nodes = CurvedMesh(p, [element]).elements
    target, V, D = _detj_ops(p)
    return PolyCoeffs(2, target, _detj_stack(nodes, V, D)[0])


def detj_tables(p: int, m: int | None = None) -> list:
    """The checkmesh ladder for det J of geometric order p: lobatto-nodal tables
    of order q = 2p - 1 with M = q + 1 .. m (default q + 3) nodes, the shipped
    optimized table where there is one and Gauss-Lobatto nodes otherwise."""
    q = 2 * p - 1  # order of det J for a degree-p quad
    M = m if m is not None else q + 3
    if M <= q:
        raise ValueError(f"m={M} is below the {q + 1} nodes of det J of order {q}")
    out = []
    for mm in range(q + 1, M + 1):
        try:
            out.append(standard_table("lobatto-nodal", q, mm, kind="optimized"))
        except FileNotFoundError:
            out.append(standard_table("lobatto-nodal", q, mm, kind="gauss-lobatto"))
    return out


def _classify(det, ladder, tol: float, max_levels: int, start: int) -> list:
    """classify_element for a stack of det J polynomials of shape (E, N, N).

    ladder, tol and max_levels come checked from check_mesh. One refine()
    call serves the whole stack; split keeps each element's bookkeeping in
    arrays indexed by owner. Reports are indexed from start.
    """
    E = len(det)
    certified_lo, up_min = np.full((2, E), np.inf)
    invalid, exhausted = np.zeros((2, E), dtype=bool)
    levels = np.zeros(E, dtype=int)

    def split(level, owner, lower, upper, room):
        _require_finite(lower, upper, lambda i: (
            f"element {start + owner[i]}: det J bounds not finite at refinement level {level}"))
        gen_lo, gen_up = np.full((2, E), np.inf)
        np.minimum.at(gen_lo, owner, lower.min(axis=(1, 2)))
        np.minimum.at(gen_up, owner, upper.min(axis=(1, 2)))
        np.minimum(up_min, gen_up, out=up_min)
        # a negative upper bound anywhere proves inversion and ends the element
        inverted = gen_up < 0
        np.minimum(certified_lo, gen_lo, out=certified_lo, where=inverted)
        invalid[inverted] = True
        levels[owner] = level
        live = ~inverted[owner][:, None, None]
        corner_lo = _corners(lower, np.minimum, 2)
        corner_gap = _corners(upper - lower, np.maximum, 2)
        # straddling spans wider than tol refine; every other span settles,
        # and every span does when refine has no room for the pick
        pick = live & (corner_lo <= 0) & (corner_gap > tol)
        settled = live & ~pick if np.count_nonzero(pick) <= room else live
        np.minimum.at(certified_lo, owner, np.where(settled, corner_lo, np.inf).min(axis=(1, 2)))
        np.logical_or.at(exhausted, owner, (settled & (corner_lo <= 0)).any(axis=(1, 2)))
        return pick

    refine(det, ladder, 2, split, max_levels)
    status = np.where(invalid, "invalid", np.where(exhausted, "indeterminate", "valid")).tolist()
    return [ElementReport(k, s, (lo, up), lv)
            for k, s, lo, up, lv in zip(range(start, start + E), status, certified_lo.tolist(),
                                        up_min.tolist(), levels.tolist())]


def classify_element(element, tables, tol: float, max_levels: int = 10) -> ElementReport:
    """Decide valid / invalid / indeterminate for one element.

    Per generation: any control node with upper bound < 0 proves
    inversion; spans whose corner lower bounds are all positive are
    certified; the remaining straddling spans are re-interpolated and
    re-bounded, until they fall below tol (indeterminate by policy) or
    the level budget is spent. Every generation subdivides; generation
    k is bounded with ladder[min(k, top)], so the finer tables of the
    supplied ladder serve the deeper generations. The report's index is 0.
    """
    nodes, p = _element_nodes(element)
    return check_mesh(CurvedMesh(p, [nodes]), tables, tol, max_levels).elements[0]


# elements per _classify call: larger blocks raise peak memory, smaller ones pay more call overhead
_BLOCK_ELEMENTS = 256


def check_mesh(mesh: CurvedMesh, tables, tol: float,
               max_levels: int = 10) -> ValidityReport:
    """Classify every element independently, a block of elements at a time."""
    if not tol > 0:  # NaN fails too
        raise ValueError(f"tol must be positive, got {tol}")
    if max_levels < 0:
        raise ValueError(f"max_levels must be >= 0, got {max_levels}")
    target, V, D = _detj_ops(mesh.p)
    ladder = _as_ladder(tables, target)
    reports = []
    for start in range(0, mesh.n_elements, _BLOCK_ELEMENTS):
        det = _detj_stack(mesh.elements[start:start + _BLOCK_ELEMENTS], V, D)
        reports += _classify(det, ladder, tol, max_levels, start)
    return ValidityReport(tuple(reports))


def refinement_ladder(coeffs: PolyCoeffs, table, levels: int):
    """Global lower bounds per uniform-quadrant refinement level.

    Returns one dict per level with the node-bound lower, the Bernstein
    lower, and whether each method has already proven a negative value.
    Used to compare tightness of the two bounding approaches.
    """
    table = _one_table(table, coeffs.basis)
    d = coeffs.dim
    basis = coeffs.basis
    halves = np.stack([_transform_matrix(basis, basis, a, b) for a, b in ((-1.0, 0.0), (0.0, 1.0))])
    U = coeffs.u[None]
    rows = []
    for lv in range(levels + 1):
        if lv:
            # every cell splits into 2^d children, one per half along each axis
            cell, *half = np.indices((len(U),) + (2,) * d).reshape(d + 1, -1)
            U = _restrict(U[cell], [halves[h] for h in half])
        lower, upper = bound_nodes(U, table, d)
        _require_finite(lower, upper, lambda i: (
            f"polynomial: node bounds not finite at refinement level {lv}"))
        bern = _bernstein_stack(U, coeffs.basis, d).reshape(len(U), -1)
        rows.append({
            "level": lv,
            "table_lower": float(lower.min()),
            "bernstein_lower": float(bern.min()),
            "table_proves_negative": bool(upper.min() < 0),
            "bernstein_proves_negative": bool(bern.max(axis=1).min() < 0),
        })
    return rows


def uniform_mesh(nx: int, ny: int, p: int) -> CurvedMesh:
    """nx-by-ny quad mesh of the unit square with Gauss-Lobatto node placement."""
    if nx < 1 or ny < 1:
        raise ValueError("need at least one element per direction")
    s = 0.5 * (gauss_lobatto_nodes(p + 1) + 1.0)
    cx = 1.0 / nx * (np.arange(nx)[:, None] + s)
    cy = 1.0 / ny * (np.arange(ny)[:, None] + s)
    # axes (element row, element column, eta, xi); elements run x fastest
    X = np.broadcast_to(cx[None, :, None, :], (ny, nx, p + 1, p + 1))
    Y = np.broadcast_to(cy[:, None, :, None], X.shape)
    return CurvedMesh(p, np.stack([X, Y], axis=-1).reshape(nx * ny, -1, 2))


def perturb_mesh(mesh: CurvedMesh, amplitude: float, seed: int = 0) -> CurvedMesh:
    """Randomly displace non-corner nodes by up to amplitude*h per axis.

    h is the element's smaller extent. Corners stay put so the element
    footprint is preserved; interior and edge nodes move, which is what
    bends the geometry.
    """
    rng = np.random.default_rng(seed)
    p, nodes = mesh.p, mesh.elements
    h = np.ptp(nodes, axis=1).min(axis=1)[:, None, None]
    d = rng.uniform(-amplitude * h, amplitude * h, size=nodes.shape)
    d[:, [0, p, (p + 1) * p, (p + 1) ** 2 - 1]] = 0.0
    return CurvedMesh(p, nodes + d)


def mirror_element(element) -> np.ndarray:
    """Reverse the xi direction; det J changes sign everywhere."""
    nodes, p = _element_nodes(element)
    return nodes.reshape(p + 1, p + 1, 2)[:, ::-1, :].reshape(-1, 2)


def write_mesh(mesh: CurvedMesh, path) -> None:
    _write_text(path, "polybound-mesh v1", f"dim=2 p={mesh.p} elements={mesh.n_elements}",
                (("", element.ravel().tolist()) for element in mesh.elements))


def _mesh_count(meta) -> int:
    """Element count of a mesh header, after checking the header."""
    if meta["dim"] != 2:
        raise ValueError("only dim=2 meshes are supported")
    if not 1 <= meta["p"] <= _MAX_GEOMETRIC_ORDER:
        raise ValueError(f"geometric order must be 1..{_MAX_GEOMETRIC_ORDER}")
    if meta["elements"] < 0:
        raise ValueError(f"negative element count {meta['elements']}")
    return meta["elements"]


def read_mesh(path) -> CurvedMesh:
    meta, records = _read_text(path, "polybound-mesh v1", _mesh_count,
                               dim=int, p=int, elements=int)
    want = 2 * (meta["p"] + 1) ** 2
    values = np.reshape(_element_values(records, want, path), (-1, want // 2, 2))
    try:
        return CurvedMesh(meta["p"], values)
    except ValueError as err:
        raise FormatError(f"{path}: {err}") from None


def _element_values(records, want: int, path):
    """The want coordinates of each element record, one row per element.

    One loadtxt call parses a well-formed file. When it refuses the text
    or returns another shape (a blank or ragged record), the records are
    parsed one by one, so a fault names its element, and tokens only
    float() reads (1_0, non-ASCII digits) parse as they always have.
    """
    values = None
    if records and records[0].strip():  # else loadtxt may find no data, and warns
        try:
            values = np.loadtxt(records, ndmin=2, comments=None)
        except ValueError:
            pass
    if values is None or values.shape != (len(records), want):
        values = [_floats(line, want, f"{path}: element {k}")
                  for k, line in enumerate(records)]
    return values
