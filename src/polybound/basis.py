"""Reference-interval basis families, control-node sets, and basis changes.

Everything lives on [-1, 1]. Four families are supported:

* ``lobatto-nodal``    Lagrange basis on Gauss-Lobatto-Legendre points
* ``legendre-nodal``   Lagrange basis on Gauss-Legendre points
* ``bernstein``        Bernstein polynomials mapped from [0, 1]
* ``legendre-modal``   Legendre polynomials P_0 .. P_p

Nodal evaluation uses the barycentric Lagrange form; every family also has
a Chebyshev representation used for derivatives and root finding.
Arrays index the basis functions from 0; only the ``L i:``/``U i:`` rows
of table files number them from 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np
from numpy.polynomial import chebyshev as _cheb

FAMILIES = ("lobatto-nodal", "legendre-nodal", "bernstein", "legendre-modal")

# slop allowed when checking x is inside the reference interval
_EDGE_TOL = 1e-12


@dataclass(frozen=True)
class BasisSpec:
    """A 1D polynomial basis of order p with N = p + 1 functions.

    Nodal families carry their interpolation nodes; modal families store
    ``nodes=None``.
    """

    family: str
    p: int
    nodes: Optional[tuple] = None

    @property
    def N(self) -> int:
        return self.p + 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown basis family {self.family!r}")
        if self.p < 1:
            raise ValueError(f"order must be >= 1, got {self.p}")


@dataclass(frozen=True)
class NodeSet:
    """M control-node positions in [-1, 1], symmetric, endpoints included.

    Any sequence of positions is accepted and kept as a tuple of floats.
    """

    positions: tuple

    @property
    def M(self) -> int:
        return len(self.positions)

    def __post_init__(self):
        object.__setattr__(self, "positions", tuple(float(v) for v in self.positions))
        eta = np.asarray(self.positions, dtype=float)
        if eta.size < 2:
            raise ValueError("need at least 2 control nodes")
        if np.any(np.diff(eta) <= 0):
            raise ValueError("control nodes must be strictly increasing")
        if eta[0] != -1.0 or eta[-1] != 1.0:
            raise ValueError("control nodes must start at -1 and end at +1")
        if np.max(np.abs(eta + eta[::-1])) > 1e-13:
            raise ValueError("control nodes must be symmetric about 0")

    def array(self) -> np.ndarray:
        return np.asarray(self.positions, dtype=float)


def _newton_legendre_roots(n: int) -> np.ndarray:
    """Roots of P_n by Newton iteration from Chebyshev initial guesses."""
    k = np.arange(1, n + 1)
    x = -np.cos(np.pi * (k - 0.25) / (n + 0.5))
    for _ in range(100):
        pn, dpn = _legendre_and_deriv(n, x)
        dx = pn / dpn
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    # symmetrize so mirrored entries are exactly opposite
    x = 0.5 * (x - x[::-1])
    return x


def _legendre_and_deriv(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x), from the last two columns of _legendre_matrix.

    Valid for |x| < 1 (the derivative uses the interior identity); callers
    only evaluate at strictly interior points.
    """
    x = np.asarray(x, dtype=float)
    V = _legendre_matrix(n, x)
    p_prev, p = V[:, -2], V[:, -1]
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def gauss_legendre_nodes(n: int) -> np.ndarray:
    """The n Gauss-Legendre points (roots of P_n), ascending."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return np.zeros(1)
    return _newton_legendre_roots(n)


@lru_cache(maxsize=64)
def gauss_legendre_rule(n: int):
    """Gauss-Legendre quadrature rule on [-1, 1]; exact through order 2n - 1.

    Cached per n, so the nodes and weights come back read-only.
    """
    x = gauss_legendre_nodes(n)
    if n == 1:
        w = np.array([2.0])
    else:
        _, dp = _legendre_and_deriv(n, x)
        w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_lobatto_nodes(n: int) -> np.ndarray:
    """The n Gauss-Lobatto-Legendre points, including both endpoints."""
    if n < 2:
        raise ValueError("need n >= 2")
    if n == 2:
        return np.array([-1.0, 1.0])
    m = n - 1  # interior nodes are roots of P_m'
    k = np.arange(1, m)
    x = -np.cos(np.pi * k / m)
    for _ in range(100):
        pm, dpm = _legendre_and_deriv(m, x)
        # P'' from the Legendre ODE: (1 - x^2) P'' = 2 x P' - m(m+1) P
        d2pm = (2.0 * x * dpm - m * (m + 1) * pm) / (1.0 - x * x)
        dx = dpm / d2pm
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    x = 0.5 * (x - x[::-1])
    return np.concatenate(([-1.0], x, [1.0]))


def _chebyshev_lobatto(m: int) -> np.ndarray:
    j = np.arange(m)
    x = -np.cos(np.pi * j / (m - 1))
    x = 0.5 * (x - x[::-1])
    x[0], x[-1] = -1.0, 1.0
    return x


def make_node_set(kind: str, M: int) -> NodeSet:
    """The M control nodes of a computed kind: equispaced, gauss-lobatto,
    chebyshev or gauss-legendre+endpoints. Other positions, such as
    optimized ones, go to NodeSet directly."""
    if M < 2:
        raise ValueError("need M >= 2 control nodes")
    if kind == "equispaced":
        eta = np.linspace(-1.0, 1.0, M)
    elif kind == "gauss-lobatto":
        eta = gauss_lobatto_nodes(M)
    elif kind == "chebyshev":
        eta = _chebyshev_lobatto(M)
    elif kind == "gauss-legendre+endpoints":
        if M < 3:
            eta = np.array([-1.0, 1.0])
        else:
            eta = np.concatenate(([-1.0], gauss_legendre_nodes(M - 2), [1.0]))
    else:
        raise ValueError(f"unknown node kind {kind!r}")
    return NodeSet(eta)


@lru_cache(maxsize=64)
def make_basis(family: str, p: int) -> BasisSpec:
    """Construct a BasisSpec, computing interpolation nodes for nodal families."""
    spec = BasisSpec(family, p)  # checks family and order before any nodes
    if family == "lobatto-nodal":
        return BasisSpec(family, p, tuple(gauss_lobatto_nodes(p + 1)))
    if family == "legendre-nodal":
        return BasisSpec(family, p, tuple(gauss_legendre_nodes(p + 1)))
    return spec


def _check_range(x: np.ndarray):
    if np.any(np.abs(x) > 1.0 + _EDGE_TOL):
        bad = np.max(np.abs(x))
        raise ValueError(f"evaluation point outside [-1, 1]: |x| = {bad}")


@lru_cache(maxsize=None)
def _bary_weights(nodes: tuple) -> np.ndarray:
    x = np.asarray(nodes, dtype=float)
    w = np.ones_like(x)
    for i in range(x.size):
        w[i] = 1.0 / np.prod(x[i] - np.delete(x, i))
    w.setflags(write=False)
    return w


def _lagrange_matrix(nodes: tuple, x: np.ndarray) -> np.ndarray:
    """Barycentric evaluation of all cardinal functions: (len(x), N)."""
    xn = np.asarray(nodes, dtype=float)
    w = _bary_weights(nodes)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    diff = x[:, None] - xn[None, :]
    exact = np.abs(diff) <= 1e-15
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        terms = w[None, :] / diff
        denom = terms.sum(axis=1)
        out = terms / denom[:, None]
    hit = exact.any(axis=1)
    if np.any(hit):
        out[hit] = 0.0
        rows, cols = np.nonzero(exact)
        out[rows, cols] = 1.0
    return out


def _bernstein_matrix(p: int, x: np.ndarray) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = 0.5 * (x + 1.0)  # map to [0, 1]
    out = np.empty((x.size, p + 1))
    for i in range(p + 1):
        out[:, i] = math.comb(p, i) * t**i * (1.0 - t) ** (p - i)
    return out


def _legendre_matrix(p: int, x: np.ndarray) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((x.size, p + 1))
    out[:, 0] = 1.0
    if p >= 1:
        out[:, 1] = x
    for k in range(1, p):
        out[:, k + 1] = ((2 * k + 1) * x * out[:, k] - k * out[:, k - 1]) / (k + 1)
    return out


def basis_matrix(spec: BasisSpec, x) -> np.ndarray:
    """Evaluate all N basis functions at the points x; shape (len(x), N)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _check_range(x)
    if spec.family in ("lobatto-nodal", "legendre-nodal"):
        return _lagrange_matrix(spec.nodes, x)
    if spec.family == "bernstein":
        return _bernstein_matrix(spec.p, x)
    return _legendre_matrix(spec.p, x)


def cheb_coeffs(spec: BasisSpec) -> np.ndarray:
    """Chebyshev coefficients of every basis function; shape (p+1, N).

    Column i holds the T_0..T_p coefficients of phi_{i+1}. Computed by
    interpolation at p+1 Chebyshev-Gauss points; exact up to conditioning,
    which is benign for the supported orders.
    """
    n = spec.N
    k = np.arange(n)
    pts = -np.cos(np.pi * (2 * k + 1) / (2 * n))
    V = _cheb.chebvander(pts, spec.p)
    Phi = basis_matrix(spec, pts)
    C = np.linalg.solve(V, Phi)
    C[np.abs(C) < 1e-300] = 0.0
    return C


def basis_deriv_matrix(spec: BasisSpec, x) -> np.ndarray:
    """Evaluate all N first derivatives at the points x; shape (len(x), N)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _check_range(x)
    dC = _cheb.chebder(cheb_coeffs(spec), axis=0)
    return _cheb.chebval(x, dC).T


def _transform_matrix(source: BasisSpec, target: BasisSpec, a: float = -1.0,
                      b: float = 1.0) -> np.ndarray:
    """Matrix T with c_target = T @ c_source, the source polynomial taken on
    [a, b] and remapped to [-1, 1]: a basis change by default, a restriction
    to a subinterval when target is source.

    T matches values at N points, the target's nodes where the family has
    them (so a nodal target is plain evaluation) and Chebyshev points
    otherwise.
    """
    n = target.N
    if target.nodes is not None:
        t = np.asarray(target.nodes)
    else:
        t = -np.cos(np.pi * (2 * np.arange(n) + 1) / (2 * n))
    A = basis_matrix(target, t)
    B = basis_matrix(source, 0.5 * (a + b) + 0.5 * (b - a) * t)
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > 1e13:
        raise np.linalg.LinAlgError(
            f"basis change to {target.family} p={target.p} is numerically singular"
        )
    return np.linalg.solve(A, B)


def change_basis(coeffs, target: BasisSpec):
    """Re-express tensor-product coefficients in another basis of equal order.

    Each dimension is transformed independently; the represented polynomial
    is unchanged up to round-off.
    """
    from .bounder import PolyCoeffs  # deferred to avoid an import cycle

    if coeffs.basis.p != target.p:
        raise ValueError(
            f"order mismatch: source p={coeffs.basis.p}, target p={target.p}"
        )
    T = _transform_matrix(coeffs.basis, target)
    u = coeffs.u
    for axis in range(coeffs.dim):
        u = np.moveaxis(np.tensordot(T, u, axes=(1, axis)), 0, axis)
    return PolyCoeffs(coeffs.dim, target, u)


def linear_coeffs(basis: BasisSpec, a0: float, a1: float) -> np.ndarray:
    """Coefficients of the linear polynomial a0 + a1*x in the given basis."""
    if basis.family in ("lobatto-nodal", "legendre-nodal"):
        xn = np.asarray(basis.nodes)
        return a0 + a1 * xn
    if basis.family == "legendre-modal":
        out = np.zeros(basis.N)
        out[0] = a0
        out[1] = a1
        return out
    # Bernstein: a linear function's control values sit on the Greville points
    g = -1.0 + 2.0 * np.arange(basis.N) / basis.p
    return a0 + a1 * g


def hat_matrix(eta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Piecewise-linear cardinal ("hat") functions on nodes eta; (len(x), M)."""
    eta = np.asarray(eta, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    M = eta.size
    idx = np.searchsorted(eta[1:-1], x, side="right")  # span, 0..M-2
    t = (x - eta[idx]) / (eta[idx + 1] - eta[idx])
    A = np.zeros(x.size * M)
    flat = np.arange(0, x.size * M, M) + idx  # row-major (row, idx)
    A[flat] = 1.0 - t
    A[flat + 1] = t
    return A.reshape(x.size, M)


def mirror_pairs(basis: BasisSpec) -> bool:
    """True when (phi_i, phi_{N+1-i}) are reflections of each other.

    Holds for the nodal families (symmetric node sets) and Bernstein.
    Legendre modes have definite parity instead.
    """
    return basis.family != "legendre-modal"


class FormatError(ValueError):
    """Malformed coefficient, mesh or table file; the message names the
    file and the offending record."""


def _read_text(path, magic: str, count, **types):
    """Read a polybound text file: magic line, key=value metadata, records.

    Each keyword names a required metadata key and the type it converts
    to. count(meta) checks the converted metadata and returns how many
    record lines follow; exactly that many must be there, and only blank
    lines may come after them. Every fault raises FormatError naming the
    file. Returns (meta, records).
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != magic:
        raise FormatError(f"{path}: missing {magic!r} header")
    if len(lines) < 2:
        raise FormatError(f"{path}: truncated, missing metadata line")
    meta = {}
    for tok in lines[1].split():
        key, eq, value = tok.partition("=")
        if not eq:
            raise FormatError(f"{path}: bad metadata token {tok!r}")
        meta[key] = value
    try:
        for key, kind in types.items():
            if key not in meta:
                raise ValueError(f"metadata missing {key!r}")
            meta[key] = kind(meta[key])
        n = count(meta)
        if n < 0:
            raise ValueError(f"negative record count {n}")
    except ValueError as err:
        raise FormatError(f"{path}: {err}") from None
    records = lines[2:2 + n]
    if len(records) < n:
        raise FormatError(f"{path}: expected {n} record lines, found {len(records)}")
    for k, line in enumerate(lines[2 + n:], start=3 + n):
        if line.strip():
            raise FormatError(f"{path}: line {k}: unexpected content after the last record")
    return meta, records


def _write_text(path, magic: str, meta: str, records) -> None:
    """Write the layout _read_text reads: the magic line, the metadata
    line, then one line per (prefix, values) record, the prefix followed
    by the values in %.17g, which reads back bit for bit."""
    lines = [magic, meta]
    lines += (prefix + " ".join(f"{v:.17g}" for v in values) for prefix, values in records)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _floats(text: str, count: int, record: str) -> np.ndarray:
    """The count floats of one record; faults raise FormatError naming the record."""
    parts = text.split()
    if len(parts) != count:
        raise FormatError(f"{record}: expected {count} values, got {len(parts)}")
    try:
        return np.array([float(v) for v in parts])
    except ValueError as err:
        raise FormatError(f"{record}: {err}") from None
