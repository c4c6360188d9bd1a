"""Guaranteed bounds for polynomials from precomputed bounding tables.

The 1D combination splits a polynomial into its linear L2 projection plus
a fluctuation, prices each fluctuation coefficient against the table's
lower or upper box row depending on its sign, and reads off bounds at the
control nodes. Tensor products in 2D/3D run the same combination axis by
axis, carrying interval coefficients after the first sweep. A Bernstein
baseline, a batched sampling-plus-Newton oracle, subdivision, and one
refinement driver, refine(), which bounds each generation of cells in one
bound_nodes call for bound_adaptive and the mesh checker, round out the
toolbox.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .basis import (
    BasisSpec,
    FormatError,
    NodeSet,
    _floats,
    _read_text,
    _transform_matrix,
    _write_text,
    basis_matrix,
    cheb_coeffs,
    gauss_legendre_rule,
    linear_coeffs,
    make_basis,
    FAMILIES,
)

__all__ = [
    "PolyCoeffs",
    "NodeBounds",
    "BoundSummary",
    "NonFiniteBoundsError",
    "bound_nodes",
    "bound_tensor",
    "bernstein_bounds",
    "brute_force_extrema",
    "sampled_extrema",
    "subdivide",
    "refine",
    "bound_adaptive",
    "read_coeffs",
    "write_coeffs",
    "eval_on_grid",
]


@dataclass(frozen=True)
class PolyCoeffs:
    """Tensor-product polynomial on [-1,1]^dim.

    The coefficient array has shape (N,)*dim with the x axis last, so the
    flat lexicographic order (x fastest) is the C-order ravel.
    """

    dim: int
    basis: BasisSpec
    u: np.ndarray

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2, or 3")
        N = self.basis.N
        arr = np.asarray(self.u, dtype=float)
        if arr.size != N**self.dim:
            raise ValueError(
                f"need {N}^{self.dim} coefficients, got {arr.size}"
            )
        arr = arr.reshape((N,) * self.dim).copy()
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "u", arr)


@dataclass(frozen=True)
class NodeBounds:
    """Lower/upper bound values on the tensor grid of control nodes.

    The arrays are kept, not copied, and marked read-only in place.
    """

    eta: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        up = np.asarray(self.upper, dtype=float)
        if lo.shape != up.shape:
            raise ValueError("lower/upper shape mismatch")
        if np.any(lo > up):
            raise ValueError("lower exceeds upper")
        for name, arr in (("eta", np.asarray(self.eta)), ("lower", lo), ("upper", up)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.lower.ndim

    def global_min(self) -> float:
        return float(self.lower.min())

    def global_max(self) -> float:
        return float(self.upper.max())


@dataclass(frozen=True)
class BoundSummary:
    global_min: float
    global_max: float
    levels_used: int
    converged: bool = True
    level_history: tuple = field(default_factory=tuple)


class NonFiniteBoundsError(ArithmeticError):
    """Node bounds overflowed to inf or NaN, so they certify nothing.

    The message names the polynomial or element and the refinement stage.
    """


def _require_finite(lower, upper, message) -> None:
    """Raise NonFiniteBoundsError(message(i)) for the first cell i of the
    (cells, ...) node-bound stacks with a bound that is not finite."""
    finite = (np.isfinite(lower) & np.isfinite(upper)).all(axis=tuple(range(1, lower.ndim)))
    if not finite.all():
        raise NonFiniteBoundsError(message(int(np.argmin(finite))))


def _p1_ops(basis: BasisSpec):
    """Projection operators: coefficient rows times w0, w1 and P
    give a0, a1 and the fluctuation, P = I - w0 e0^T - w1 e1^T. Quadrature
    with p+2 points is exact for the degree 2p+1 integrands involved."""
    xg, wg = gauss_legendre_rule(basis.p + 2)
    Phi = basis_matrix(basis, xg)
    w0 = Phi.T @ (0.5 * wg)
    w1 = Phi.T @ (1.5 * wg * xg)
    e0 = linear_coeffs(basis, 1.0, 0.0)
    e1 = linear_coeffs(basis, 0.0, 1.0)
    P = np.eye(basis.N) - np.outer(w0, e0) - np.outer(w1, e1)
    return w0, w1, P


PROVENANCE_VALUES = (
    "optimized-here",
    "loaded-from-file",
    "reference",
)


class _Scratch(threading.local):
    """Grow-only temporaries of the bounding kernel, one set per thread.

    The owner is a BoundingTable, so every bound with a table reuses the
    same memory, and threads that share a table never share an array.
    bound_nodes reads _buffers, the dict _take draws on, once per call:
    each read of a thread-local looks up the thread.
    """

    def __init__(self):
        self._buffers = {}


def _take(buffers: dict, key, shape) -> np.ndarray:
    """A view of buffers[key], valid until the next take of that key. The buffer
    grows to the largest size asked for, in powers of two, so refine's many
    sizes rarely regrow it and malloc sees few chunk sizes."""
    n = math.prod(shape)
    buf = buffers.get(key)
    if buf is None or buf.size < n:
        buf = buffers[key] = np.empty(1 << max(n - 1, 0).bit_length())
    return buf[:n].reshape(shape)


@dataclass(frozen=True, eq=False)
class BoundingTable:
    """Lower/upper control values bounding every basis function.

    Row i of ``q_lower``/``q_upper`` holds the M control values of the
    piecewise-linear bounds of phi_{i+1} on ``nodes``. The table owns the
    bounding kernel's state, which lives and dies with it: the scratch
    (see _Scratch) and the read-only operands of _sweep and refine, built
    on first use. Copies and pickles go through the constructor, so they
    get read-only arrays and none of that state.
    """

    basis: BasisSpec
    nodes: NodeSet
    q_lower: np.ndarray
    q_upper: np.ndarray
    epsilon: float
    provenance: str
    _scratch: _Scratch = field(default_factory=_Scratch, init=False, repr=False, compare=False)

    def __post_init__(self):
        ql = np.asarray(self.q_lower, dtype=float)
        qu = np.asarray(self.q_upper, dtype=float)
        if ql.shape != (self.basis.N, self.nodes.M) or qu.shape != ql.shape:
            raise ValueError(
                f"table shape {ql.shape} does not match N={self.basis.N}, M={self.nodes.M}"
            )
        if not (np.isfinite(ql).all() and np.isfinite(qu).all() and np.isfinite(self.epsilon)):
            raise ValueError("table values and epsilon must be finite")
        if self.provenance not in PROVENANCE_VALUES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        ql.setflags(write=False)
        qu.setflags(write=False)
        object.__setattr__(self, "q_lower", ql)
        object.__setattr__(self, "q_upper", qu)

    def __reduce__(self):
        return type(self), (self.basis, self.nodes, self.q_lower, self.q_upper,
                            self.epsilon, self.provenance)

    def eta(self) -> np.ndarray:
        return self.nodes.array()

    @cached_property
    def _sweep_ops(self):
        """Read-only operands of _sweep.

        W = [P | L + P q_lower] takes a coefficient row to its fluctuation
        and to the linear part at the nodes, L = w0 1^T + w1 eta^T, plus the
        fluctuation priced at q_lower. Then |q_lower|, q_upper - q_lower and
        |q_upper| - |q_lower|.
        """
        w0, w1, P = _p1_ops(self.basis)
        ql, qu = self.q_lower, self.q_upper
        L = w0[:, None] + np.outer(w1, self.eta())
        ops = np.hstack([P, L + P @ ql]), np.abs(ql), qu - ql, np.abs(qu) - np.abs(ql)
        for a in ops:
            a.setflags(write=False)
        return ops

    @cached_property
    def _spans(self) -> np.ndarray:
        """Read-only (M-1, N, N) stack of the restrictions to the spans
        between adjacent control nodes."""
        eta = self.eta()
        spans = np.stack([
            _transform_matrix(self.basis, self.basis, float(lo), float(hi))
            for lo, hi in zip(eta[:-1], eta[1:])
        ])
        spans.setflags(write=False)
        return spans


def _sweep(mid, rad, table: BoundingTable, scratch: dict, out=None):
    """Node bounds of (B, N) coefficient rows mid +- rad; rad=None for exact rows.

    With f the fluctuation of mid, r the radius and [ql, qu] a box entry,
    the interval product (Moore, Kearfott & Cloud 2009, sec. 2.3) is

        min w*q = f*ql - r*|ql| + min(0, f*(qu - ql) - r*(|qu| - |ql|))
        max w*q = f*ql + r*|ql| + max(0, f*(qu - ql) + r*(|qu| - |ql|))

    over w in [f - r, f + r]: for fixed q the least w*q is f*q - r*|q|,
    concave in q, so it is least at an endpoint. With r = 0 this is the
    sign split of an exact row.

    Rows are read best as (B, N) views of (N, B) memory: the GEMM reads
    them in place and every elementwise pass runs along the B rows. A
    radius always comes in that way, from _bound_interval_rows. The
    results are (B, M) views of (M, B) arrays, out's two when given.

    Every other array is a row block of the scratch array "sweep": the
    GEMM output [F; base], lower and upper unless out holds them, then
    the sign split of an exact sweep or the spread and the third loop
    buffer of an interval one. One take per sweep keeps small calls
    cheap. mid and rad must come from other keys: a later sweep's rows
    are this block's results, which _bound_interval_rows copies out
    before the block is taken again.
    """
    W, abs_ql, dq, dabs = table._sweep_ops
    (N, M), B = dq.shape, len(mid)
    kept = 2 * M if out is None else 0
    block = _take(scratch, "sweep", (N + M + kept + (N if rad is None else 2 * M), B))
    G, rest = block[:N + M], block[N + M + kept:]
    lower, upper = (block[N + M:N + 2 * M], block[N + 2 * M:N + 3 * M]) if out is None else out
    np.matmul(W.T, mid.T, out=G)
    F, base = G[:N], G[N:]
    if rad is None:
        np.matmul(dq.T, np.minimum(F, 0.0, out=rest), out=lower)
        np.matmul(dq.T, np.maximum(F, 0.0, out=rest), out=upper)
        lower += base
        upper += base
    else:
        rad = rad.T
        spread, c = rest[:M], rest[M:]
        np.matmul(abs_ql.T, rad, out=spread)
        np.subtract(base, spread, out=lower)
        np.add(base, spread, out=upper)
        # base and spread are spent and serve as two of the three loop buffers
        a, b = base, spread
        for i in range(N):
            np.multiply(dq[i, :, None], F[i], out=a)
            np.multiply(dabs[i, :, None], rad[i], out=b)
            lower += np.minimum(np.subtract(a, b, out=c), 0.0, out=c)
            upper += np.maximum(np.add(a, b, out=a), 0.0, out=a)
    return lower.T, upper.T


def _bound_rows(basis: BasisSpec, rows: np.ndarray, table: BoundingTable, scratch: dict, out=None):
    """Node bounds for stacked exact-coefficient rows: (B,N) -> (B,M)."""
    return _sweep(rows, None, table, scratch, out)


def _bound_interval_rows(lo_rows, hi_rows, table: BoundingTable, scratch: dict, out=None):
    """Node bounds when each coefficient is only known to an interval.

    The midpoint carries the projection; the radius re-enters per
    coefficient through the interval product in _sweep. Both are written
    to (N, B) scratch memory, whatever the layout of the rows.
    """
    mid, rad = _take(scratch, "interval", (2,) + lo_rows.shape[::-1])
    np.add(lo_rows.T, hi_rows.T, out=mid)
    np.subtract(hi_rows.T, lo_rows.T, out=rad)
    mid *= 0.5
    rad *= 0.5
    return _sweep(mid.T, rad.T, table, scratch, out)


# bytes of kernel temporaries per block of cells, about an L2 cache
_BLOCK_BYTES = 2 << 20


def _bound_block(U, table: BoundingTable, dim: int, scratch: dict, out):
    """The sweeps of bound_nodes over one block, a (..., N)^dim stack: node-major
    (M, B) lower and upper, B = M^(dim-1) times the cells, in out when given."""
    N = table.basis.N
    X = _take(scratch, "x", (N,) + U.shape[:-1])
    np.copyto(X, U.transpose(-1, *range(U.ndim - 1)))
    lower, upper = _bound_rows(table.basis, X.reshape(N, -1).T, table, scratch,
                               out if dim == 1 else None)
    for d in range(1, dim):
        # the (M, B) memory of a sweep, read N values at a time, holds the
        # next sweep's rows
        lower, upper = _bound_interval_rows(
            lower.T.reshape(-1, N), upper.T.reshape(-1, N), table, scratch,
            out if d == dim - 1 else None)
    return lower.T, upper.T


def bound_nodes(U, table: BoundingTable, dim: int):
    """Node bounds of a stack of dim-D polynomials in the table's basis.

    U has shape (..., N)^dim with the x axis last; returns (lower, upper),
    each of shape (..., M)^dim. The first sweep bounds every 1D slice
    along x exactly; later sweeps carry interval coefficients, O(N^d M +
    N M^d) multiply-adds per polynomial. Each sweep is one batched call
    over a block of cells; balanced blocks keep the temporaries, from the
    table's scratch, within _BLOCK_BYTES.

    A block is copied once, to memory ordered (x, cells..., z, y). Each
    sweep reads its rows in place and puts its node axis in front, so the
    next sweep's axis is last and the memory ends node-major, (M,)^dim +
    (cells...). The results are views of one new array in that layout,
    which belongs to the caller: a reduction over the nodes of each cell
    runs along the long cells axis.
    """
    N, M = table.basis.N, table.nodes.M
    U = np.asarray(U, dtype=float)
    if dim < 1 or U.shape[U.ndim - dim:] != (N,) * dim:
        raise ValueError(f"need coefficients of shape (..., {N})^{dim}, got {U.shape}")
    lead = U.shape[:U.ndim - dim]
    out = np.empty((2,) + (M,) * dim + lead)
    cells = math.prod(lead)
    blocks = -(-cells // max(1, _BLOCK_BYTES // (8 * (2 * N + 5 * M) * max(N, M) ** (dim - 1))))
    scratch = table._scratch._buffers
    if blocks <= 1:  # the last sweep writes straight to out
        _bound_block(U, table, dim, scratch, out.reshape(2, M, -1))
    else:
        U, flat = U.reshape((cells,) + (N,) * dim), out.reshape(2, -1, cells)
        for k in range(blocks):
            cut = slice(cells * k // blocks, cells * (k + 1) // blocks)
            lower, upper = _bound_block(U[cut], table, dim, scratch, None)
            flat[0, :, cut], flat[1, :, cut] = lower.reshape(M**dim, -1), upper.reshape(M**dim, -1)
    order = tuple(range(dim, dim + len(lead))) + tuple(range(dim))
    return out[0].transpose(order), out[1].transpose(order)


def bound_tensor(coeffs: PolyCoeffs, table: BoundingTable) -> NodeBounds:
    """Guaranteed bounds of a 1D/2D/3D polynomial on the node tensor grid."""
    table = _one_table(table, coeffs.basis)
    lower, upper = bound_nodes(coeffs.u, table, coeffs.dim)
    _require_finite(lower[None], upper[None], lambda i: (
        f"polynomial: node bounds not finite with the M={table.nodes.M} table"))
    return NodeBounds(table.eta(), lower, upper)


# perfbench/layers.py traces these three names and its smoke test requires
# every traced name to exist; nothing in the package calls them
def _p1_batch(basis: BasisSpec, rows: np.ndarray):
    w0, w1, P = _p1_ops(basis)
    return rows @ w0, rows @ w1, rows @ P


def bound_1d(coeffs: PolyCoeffs, table: BoundingTable) -> NodeBounds:
    return bound_tensor(coeffs, table)


def _batch_bounds_2d(basis: BasisSpec, U: np.ndarray, table: BoundingTable):
    return bound_nodes(U, table, 2)


def _bernstein_stack(U: np.ndarray, basis: BasisSpec, dim: int) -> np.ndarray:
    """Bernstein coefficients of a (cells,) + (N,)*dim stack of polynomials.

    Each cell's extreme Bernstein coefficients enclose its range.
    """
    if basis.p >= 10:
        warnings.warn(
            "Bernstein conversion is badly conditioned for p >= 10; "
            "bounds may carry noticeable rounding slack",
            RuntimeWarning,
            stacklevel=3,
        )
    T = _transform_matrix(basis, make_basis("bernstein", basis.p))
    return _restrict(U, [T] * dim)


def bernstein_bounds(coeffs: PolyCoeffs):
    """Extreme Bernstein coefficients; they enclose the polynomial range."""
    B = _bernstein_stack(coeffs.u[None], coeffs.basis, coeffs.dim)
    return float(B.min()), float(B.max())


def _grid_values(U, basis: BasisSpec, axes) -> np.ndarray:
    """Values of a (cells,) + (N,)*dim stack on the tensor grid of axes,
    one 1D array per polynomial axis in array order (x last)."""
    T = cheb_coeffs(basis)
    return _restrict(U, [_cheb.chebvander(np.asarray(a, dtype=float), basis.p) @ T for a in axes])


def eval_on_grid(coeffs: PolyCoeffs, axes) -> np.ndarray:
    """Evaluate on a tensor grid; axes are per-dimension 1D arrays (x first)."""
    if len(axes) != coeffs.dim:
        raise ValueError("one axis array per dimension")
    return _grid_values(coeffs.u[None], coeffs.basis, axes[::-1])[0]


def _cheb_ops(basis: BasisSpec) -> np.ndarray:
    """(3, N, N): basis coefficients to the Chebyshev coefficients of the
    polynomial and of its first and second derivatives (p >= 2)."""
    T = cheb_coeffs(basis)
    return np.stack([np.pad(_cheb.chebder(T, m, axis=0), ((0, m), (0, 0))) for m in range(3)])


def _derivatives(U, ops: np.ndarray, x) -> np.ndarray:
    """All derivatives of order <= 2 per axis of each cell of U at its point.

    U has shape (n,) + (N,)*dim, ops is _cheb_ops of its basis and x has
    shape (n, dim) in array-axis order; the result is (n,) + (3,)*dim, each
    axis holding the derivative order along it, flattened to (n, 3**dim).
    """
    return _restrict(U, [np.einsum("nk,okj->noj", _cheb.chebvander(x[:, a], U.shape[1] - 1), ops)
                         for a in range(x.shape[1])]).reshape(len(U), -1)


_NEWTON_STEPS = 20


def _newton(U, basis: BasisSpec, x) -> np.ndarray:
    """Newton toward a stationary point of each cell of U from its point x,
    all candidates at once, for at most _NEWTON_STEPS steps; returns the
    values at the end points.

    Points are clipped to the cell. A candidate freezes when its step is
    below 1e-14, when it leaves the finite numbers or when its Hessian is
    singular (the LU pivot test np.linalg.solve itself applies).
    """
    dim = x.shape[1]
    # flat positions of the gradient and Hessian in _derivatives' result
    e, shape = np.eye(dim, dtype=int), (3,) * dim
    g_at = np.ravel_multi_index(tuple(e), shape)
    h_at = np.ravel_multi_index(tuple(e[:, :, None] + e[:, None]), shape)
    ops = _cheb_ops(basis)
    x = x.copy()
    active = np.arange(len(x))
    for _ in range(_NEWTON_STEPS):
        if not len(active):
            break
        D = _derivatives(U[active], ops, x[active])
        H = D[:, h_at]
        singular = np.linalg.slogdet(H)[0] == 0
        H[singular] = np.eye(dim)
        xa = x[active]
        new = np.clip(xa - np.linalg.solve(H, D[:, g_at, None])[..., 0], -1.0, 1.0)
        ok = ~singular & np.isfinite(new).all(axis=1)
        x[active[ok]] = new[ok]
        active = active[ok & (np.abs(new - xa).max(axis=1) >= 1e-14)]
    return _derivatives(U, ops, x)[:, 0]


# grid values one cell may ask for: 2048^2 in 2D, 161^3 in 3D
_CELL_GRID_VALUES = 1 << 22


def _check_grid(samples_per_dim: int, dim: int) -> None:
    if samples_per_dim < 2:
        raise ValueError("need at least 2 samples per dimension")
    if samples_per_dim**dim > _CELL_GRID_VALUES:
        raise ValueError(f"samples_per_dim={samples_per_dim} in dim {dim} asks for more "
                         f"than {_CELL_GRID_VALUES} grid values per cell")


def sampled_extrema(U, basis: BasisSpec, dim: int, samples_per_dim: int):
    """Per-cell (min, max) of a (cells,) + (N,)*dim stack by sampling plus Newton.

    Each cell is evaluated on samples_per_dim equispaced points per axis;
    its 3 lowest and 3 highest grid points then start one Newton polish
    run over the candidates of all cells together, and a polished value
    is kept where it improves on the grid. Always an under-approximation:
    min >= the true minimum and max <= the true maximum, per cell.
    """
    _check_grid(samples_per_dim, dim)
    U = np.asarray(U, dtype=float)
    axis = np.linspace(-1.0, 1.0, samples_per_dim)
    G = samples_per_dim**dim
    k = min(3, G)
    block = max(1, (1 << 20) // G)  # cells per block: ~8 MB of grid values
    lo, hi = np.empty(len(U)), np.empty(len(U))
    for s in range(0, len(U), block):
        cut = slice(s, s + block)
        B = U[cut]
        vals = _grid_values(B, basis, [axis] * dim).reshape(len(B), G)
        lo[cut], hi[cut] = vals.min(axis=1), vals.max(axis=1)
        if basis.p < 2:
            continue  # multilinear: extremes sit at the corner samples already
        part = np.argpartition(vals, (k - 1, G - k), axis=1)
        idx = np.concatenate([part[:, :k], part[:, G - k:]], axis=1)
        x = axis[np.stack(np.unravel_index(idx.ravel(), (samples_per_dim,) * dim), axis=1)]
        f = _newton(np.repeat(B, 2 * k, axis=0), basis, x).reshape(len(B), 2 * k)
        lo[cut] = np.minimum(lo[cut], f[:, :k].min(axis=1))
        hi[cut] = np.maximum(hi[cut], f[:, k:].max(axis=1))
    return lo, hi


def brute_force_extrema(coeffs: PolyCoeffs, samples_per_dim: int):
    """Approximate range of one polynomial: sampled_extrema of a one-cell stack.

    Always an under-approximation: the returned minimum is >= the true
    minimum and the maximum <=. Good enough as a reference oracle.
    """
    lo, hi = sampled_extrema(coeffs.u[None], coeffs.basis, coeffs.dim, samples_per_dim)
    return float(lo[0]), float(hi[0])


def _restrict(U, mats):
    """Apply one matrix per polynomial axis to a stack of cells.

    U has shape (cells,) + (N,)*dim; mats[k] acts along array axis 1 + k
    and has shape (A, N), shared by every cell, or (cells, A, N), one per
    cell. Restriction to subcells takes N x N matrices; evaluation at A
    points takes A x N ones. A per-cell matrix contracts its own axis in one
    einsum, "cxyz,cay->cxaz" for the middle of three, with no axis moved;
    optimize=True would route it through BLAS and change bits.
    """
    idx = "xyzuvw"[:U.ndim - 1]
    for axis, R in enumerate(mats, start=1):
        if R.ndim == 2:
            U = np.moveaxis(np.tensordot(U, R, axes=([axis], [1])), -1, axis)
        else:
            out = idx[:axis - 1] + "a" + idx[axis:]
            U = np.einsum(f"c{idx},ca{idx[axis - 1]}->c{out}", U, R)
    return U


def subdivide(coeffs: PolyCoeffs, subcell) -> PolyCoeffs:
    """Restrict to an axis-aligned subcell, remapped to the reference cell.

    subcell is one (a, b) pair per dimension, x first; a single pair is
    accepted in 1D. The restriction is linear, one N x N matrix per axis interval.
    """
    d = coeffs.dim
    cell = np.asarray(subcell, dtype=float)
    if cell.ndim == 1:
        cell = cell[None, :]
    if cell.shape != (d, 2):
        raise ValueError(f"subcell must be {d} (a, b) pairs")
    a, b = cell[:, 0], cell[:, 1]
    if np.any(b <= a):
        raise ValueError("empty subcell")
    if np.any(a < -1.0 - 1e-12) or np.any(b > 1.0 + 1e-12):
        raise ValueError("subcell must lie inside [-1, 1] per axis")
    # x is the last array axis
    basis = coeffs.basis
    mats = [_transform_matrix(basis, basis, float(a[k]), float(b[k]))[None]
            for k in reversed(range(d))]
    return PolyCoeffs(d, basis, _restrict(coeffs.u[None], mats)[0])


def _as_ladder(tables, basis: BasisSpec) -> list[BoundingTable]:
    """Tables sorted by M, each checked once against the polynomials' basis."""
    ladder = [tables] if isinstance(tables, BoundingTable) else list(tables)
    if not ladder:
        raise ValueError("need at least one table")
    if any(not isinstance(t, BoundingTable) for t in ladder):
        raise TypeError("tables must be BoundingTable instances")
    for t in ladder:
        if t.basis != basis:
            raise ValueError(
                f"table basis {t.basis.family} p={t.basis.p} does not "
                f"match polynomial basis {basis.family} p={basis.p}"
            )
    return sorted(ladder, key=lambda t: t.nodes.M)


def _one_table(table, basis: BasisSpec) -> BoundingTable:
    """The table of a function that bounds with one, checked as _as_ladder
    checks a ladder; a ladder of more than one table is refused."""
    ladder = _as_ladder(table, basis)
    if len(ladder) > 1:
        raise ValueError(f"expected one table, got a ladder of {len(ladder)}")
    return ladder[0]


def _corners(a, reduce, dim: int):
    """Reduce node values over the 2^dim corners of every span between them.

    a has shape (cells,) + (M,)*dim; the result (cells,) + (M-1,)*dim.
    """
    for axis in range(1, dim + 1):
        head = (slice(None),) * axis
        a = reduce(a[head + (slice(None, -1),)], a[head + (slice(1, None),)])
    return a


# bytes one generation may store: its coefficients and node bounds
_GENERATION_BYTES = 1 << 30


def refine(U, ladder, dim: int, split, max_levels: int) -> int:
    """Bound a stack of cells generation by generation, refining where asked.

    Generation `level` bounds the whole (cells,) + (N,)*dim stack with
    ladder[min(level, top)] in one bound_nodes call. split(level, owner,
    lower, upper, room) is the caller's decision: owner[i] is the input
    cell that cell i descends from. A returned (cells,) mask carries the
    picked cells whole into the next generation, to be bounded with the
    next table; a (cells,) + (M-1,)*dim mask picks the spans between
    control nodes that make it. room is how many cells the next
    generation may hold: 0 at generation max_levels, else as many as fit
    _GENERATION_BYTES, N^dim coefficients and 2 M^dim node bounds each.
    refine stops when split picks nothing or more than room, so a split
    whose pick exceeds room settles every cell. Returns the last level
    bounded. lower and upper belong to split.
    """
    if max_levels < 0:
        raise ValueError(f"max_levels must be >= 0, got {max_levels}")
    owner = np.arange(len(U))
    level = 0
    while True:
        table = ladder[min(level, len(ladder) - 1)]
        lower, upper = bound_nodes(U, table, dim)
        M = ladder[min(level + 1, len(ladder) - 1)].nodes.M
        cell_bytes = 8 * (U.shape[-1] ** dim + 2 * M**dim)
        room = 0 if level >= max_levels else _GENERATION_BYTES // cell_bytes
        mask = split(level, owner, lower, upper, room)
        if not 0 < np.count_nonzero(mask) <= room:
            return level
        if mask.ndim == 1:
            U, owner = U[mask], owner[mask]
        else:
            spans = table._spans
            cell, *picked = np.nonzero(mask)
            U = _restrict(U[cell], [spans[i] for i in picked])
            owner = owner[cell]
        level += 1


def bound_adaptive(coeffs: PolyCoeffs, tables, tol: float,
                   max_levels: int = 10) -> BoundSummary:
    """Refine until every control node has gap <= tol, or until refine's
    level or memory budget ends it.

    One refine() call: the whole polynomial first climbs the table ladder;
    at its top, the spans between adjacent control nodes that still fail
    are subdivided. Global bounds envelope every node that meets tol and,
    in the generation where refine stops, every leaf cell, so they stay
    sound even when unconverged.
    """
    if not tol > 0:  # NaN fails too
        raise ValueError(f"tol must be positive, got {tol}")
    ladder = _as_ladder(tables, coeffs.basis)
    d = coeffs.dim
    history = []
    gmin, gmax = np.inf, -np.inf

    def split(level, owner, lower, upper, room):
        nonlocal gmin, gmax
        with np.errstate(invalid="ignore"):  # inf - inf is reported below
            gap = upper - lower
        worst = float(gap.max())
        # the kernel keeps lower <= upper, so a bound that is not finite
        # makes its gap inf or NaN, and so the worst gap
        if not math.isfinite(worst):
            _require_finite(lower, upper, lambda i: (
                f"polynomial: node bounds not finite at refinement level {level}"))
        history.append({"level": level, "cells": len(gap), "worst_gap": worst})
        if room and level < len(ladder) - 1 and worst > tol:
            return np.ones(1, dtype=bool)
        pick = _corners(gap > tol, np.logical_or, d)
        # no gathers; a plain reduction where every node counts (all meet
        # tol, or the pick exceeds room and refine stops), which on small
        # generations costs less than a where=True one
        if worst <= tol or np.count_nonzero(pick) > room:
            gmin, gmax = min(gmin, float(lower.min())), max(gmax, float(upper.max()))
        else:
            keep = gap <= tol
            gmin = min(gmin, float(np.min(lower, where=keep, initial=np.inf)))
            gmax = max(gmax, float(np.max(upper, where=keep, initial=-np.inf)))
        return pick

    level = refine(coeffs.u[None], ladder, d, split, max_levels)
    return BoundSummary(gmin, gmax, level, history[-1]["worst_gap"] <= tol, tuple(history))


def write_coeffs(coeffs: PolyCoeffs, path) -> None:
    _write_text(path, "polybound-coeffs v1",
                f"dim={coeffs.dim} family={coeffs.basis.family} p={coeffs.basis.p}",
                [("", coeffs.u.ravel())])


def read_coeffs(path) -> PolyCoeffs:
    meta, (line,) = _read_text(path, "polybound-coeffs v1", lambda meta: 1,
                               dim=int, family=str, p=int)
    d, family, p = meta["dim"], meta["family"], meta["p"]
    if family not in FAMILIES:
        raise FormatError(f"{path}: unknown family {family!r}")
    if d not in (1, 2, 3):
        raise FormatError(f"{path}: dim must be 1, 2, or 3")
    u = _floats(line, (p + 1) ** d, f"{path}: coefficient line")
    try:
        return PolyCoeffs(d, make_basis(family, p), u)
    except ValueError as err:
        raise FormatError(f"{path}: {err}") from None
