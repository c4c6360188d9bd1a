"""Optimal piecewise-linear bounding boxes for basis functions.

For a basis function phi and control nodes eta, the upper box is the
piecewise-linear function U on eta minimizing the sampled L2 distance to
phi subject to U >= phi; the lower box is the mirrored problem. The
discrete solves run on ``_N_SAMPLES`` equispaced samples (endpoints
included), then a scalar per-row offset makes the bound hold
continuously, plus a safety margin ``_EPSILON``.

Each discrete subproblem is a convex QP with linear inequality
constraints. It is solved exactly by the least-squares-with-inequalities
reduction: QR factor the hat-function matrix, reduce to a least-distance
problem, and solve that through NNLS. Deterministic, no tuning knobs.
The QR factorization and the NNLS's least-squares solves call scipy's
LAPACK directly (_qr, _lstsq): the routines np.linalg.qr and
np.linalg.lstsq call, with the same arguments and workspace, so their
bits match numpy's wherever the two libraries' LAPACK code agrees (the
tests check it), without numpy's per-call wrapping on the tens of
thousands of tiny solves of a node search.
Within one node search, each NNLS starts from the support it ended with
at the previous objective evaluation, since nearby nodes make the boxes
touch phi at nearly the same samples; a one-shot fit starts empty.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .basis import (
    BasisSpec,
    FormatError,
    NodeSet,
    _floats,
    _read_text,
    _write_text,
    basis_matrix,
    cheb_coeffs,
    gauss_legendre_rule,
    hat_matrix,
    make_basis,
    make_node_set,
    mirror_pairs,
)
from .bounder import BoundingTable

_ROOT_TOL = 1e-12  # window slack when assigning roots to a subinterval
_N_SAMPLES = 1000  # equispaced samples of the discrete one-sided fits
_SAMPLE_POINTS = np.linspace(-1.0, 1.0, _N_SAMPLES)  # their grid, read-only
_SAMPLE_POINTS.setflags(write=False)
_EPSILON = 1e-6  # safety margin added after the continuous offset
_NNLS_EPS = 10.0 * np.finfo(float).eps  # NNLS multiplier tolerance, relative


@dataclass(frozen=True)
class BoxQuality:
    """Quality of a table: gap norm sum and worst continuous margin.

    ``max_violation`` is the smallest value of min(U - phi, phi - L) over
    the element and all basis functions; negative means the bounding
    property is broken by that amount.
    """

    eps2: float
    max_violation: float


class BoxOptimizationError(RuntimeError):
    """A table failed verification, a box solve failed, or a margin eigen
    solve failed."""


def _nnls(E: np.ndarray, f: np.ndarray, passive: np.ndarray) -> np.ndarray:
    """Lawson-Hanson active-set NNLS:  min ||E u - f||  s.t.  u >= 0.

    ``passive`` is the start support (a boolean mask over the columns of
    E) and is updated in place to the support of the returned u. The
    start is first pruned to a set whose least-squares solution is
    positive, which is the invariant the outer loop needs; that loop's
    multiplier test over every column then decides optimality, so the
    result is the NNLS optimum from any start, and an all-False mask is
    the textbook cold start. The support subproblems are tiny here (E has
    at most a couple dozen rows) and are solved by SVD least squares
    (_lstsq), tens of thousands per node search. ``f`` is the last unit
    vector, the right-hand side of _upper_qp's dual, so E.T @ f, which
    scales the multiplier tolerance, is E's last row.
    """
    m, n = E.shape
    max_outer = 3 * (m + n)
    u = np.zeros(n)
    tol = _NNLS_EPS * max(1.0, float(np.abs(E[-1]).max()))  # |E.T @ f|
    while passive.any():
        cols = passive.nonzero()[0]
        z = _lstsq(E[:, cols], f)
        if z.min() > 0.0:
            u[cols] = z
            break
        passive[cols[z <= 0.0]] = False
    for _ in range(max_outer):
        w = E.T @ (f - E @ u)
        w[passive] = -np.inf
        j = int(w.argmax())
        if w[j] <= tol:
            return u
        passive[j] = True
        for _ in range(max_outer):
            cols = passive.nonzero()[0]
            if cols.size == 0:
                break  # every column dropped, so u = 0: pick again from w
            z = _lstsq(E[:, cols], f)
            if z.min() > 0.0:
                u[:] = 0.0
                u[cols] = z
                break
            # back off along the segment to keep u nonnegative
            uc = u[cols]
            neg = z <= 0.0
            alpha = float((uc[neg] / (uc[neg] - z[neg])).min())
            uc += alpha * (z - uc)
            u[cols] = uc
            drop = cols[uc <= 1e-14 * max(1.0, uc.max())]
            u[drop] = 0.0
            passive[drop] = False
            if drop.size == 0:
                # numerical stall; drop the most negative direction instead
                k = cols[int(z.argmin())]
                u[k] = 0.0
                passive[k] = False
    raise BoxOptimizationError("NNLS iteration budget exhausted")


@lru_cache(maxsize=None)
def _lapack():
    """scipy's LAPACK wrappers, imported on first use: only the box solves
    need scipy, so bounding with a loaded table never imports it."""
    from scipy.linalg import lapack
    return lapack


def _checked(info: int, routine: str) -> None:
    if info:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed with info={info}")


@lru_cache(maxsize=None)
def _gelsd_work(m: int, n: int):
    """(cond, lwork, liwork) of dgelsd for an m x n system with one
    right-hand side: numpy's default cutoff and workspace query."""
    cond = np.finfo(float).eps * max(m, n)
    work, iwork, info = _lapack().dgelsd_lwork(m, n, 1, cond)
    _checked(info, "dgelsd workspace query")
    return cond, int(work), int(iwork)


def _lstsq(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.lstsq(A, b, rcond=None)[0] for a vector b, bit for bit.

    The same LAPACK dgelsd call with the same cutoff and workspace, without
    numpy's per-call wrapping. ``A`` may be overwritten.
    """
    m, n = A.shape
    cond, lwork, liwork = _gelsd_work(m, n)
    if n > m:
        b = np.concatenate([b, np.zeros(n - m)])  # dgelsd returns x in b
    x, _, _, info = _lapack().dgelsd(A, b[:, None], lwork, liwork, cond, overwrite_a=1)
    _checked(info, "dgelsd")
    return x[:n, 0]


@lru_cache(maxsize=None)
def _qr_work(m: int, n: int):
    """(dgeqrf lwork, dorgqr lwork) as np.linalg.qr sizes them."""
    lapack = _lapack()
    work, info = lapack.dgeqrf_lwork(m, n)
    _checked(info, "dgeqrf workspace query")
    _, gq_work, info = lapack.dorgqr(np.zeros((m, n)), np.zeros(min(m, n)), lwork=-1)
    _checked(info, "dorgqr workspace query")
    return max(1, n, int(work)), max(1, n, int(gq_work[0]))


def _qr(A: np.ndarray):
    """np.linalg.qr(A) for A with at least as many rows as columns, bit for
    bit and in its layouts: C-ordered Q (m, n) and upper-triangular R (n, n).

    The same LAPACK dgeqrf and dorgqr calls with the same workspace,
    without numpy's per-call wrapping.
    """
    m, n = A.shape
    geqrf_lwork, orgqr_lwork = _qr_work(m, n)
    lapack = _lapack()
    factor, tau, _, info = lapack.dgeqrf(A, lwork=geqrf_lwork)
    _checked(info, "dgeqrf")
    R = np.triu(factor[:n])
    Q, _, info = lapack.dorgqr(factor, tau, lwork=orgqr_lwork, overwrite_a=1)
    _checked(info, "dorgqr")
    return np.ascontiguousarray(Q), R


def _solve_r(R: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """R x = rhs for the C-ordered upper-triangular R of _qr.

    The LAPACK call scipy's solve_triangular makes for such an R (its
    transpose is column-major lower triangular), without that wrapper's
    per-call argument checks.
    """
    x, info = _lapack().dtrtrs(R.T, rhs, lower=1, trans=1)
    if info:
        raise np.linalg.LinAlgError(f"singular R: zero on diagonal {info - 1}")
    return x


def _upper_qp(Q: np.ndarray, R: np.ndarray, b: np.ndarray, active: np.ndarray,
              E: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Exact solution of  min ||A q - b||  s.t.  A q >= b,  A = Q R.

    Least-distance reduction: with y = R q - Q^T b the objective becomes
    ||y||, constrained by Q y >= (I - Q Q^T) b; that least-distance
    problem is solved through its NNLS dual  min ||E u - f||,  u >= 0,
    with E = [Q^T; ((I - Q Q^T) b)^T] and f = e_{M+1}. The caller fills
    E[:M] = Q^T and f once per Q; this rewrites only E's last row. E is
    column-major, the layout np.vstack of Q^T and one row gives: it fixes
    the summation order of the NNLS's matrix-vector products, and so the
    last bits of every table. ``active`` marks the samples where the box
    touched b in a nearby solve; the NNLS starts from it and leaves in it
    the samples where this box touches b. Finite termination, no tuning,
    deterministic.
    """
    M = Q.shape[1]
    Qtb = Q.T @ b
    np.subtract(b, Q @ Qtb, out=E[M])
    u = _nnls(E, f, active)
    s = E @ u - f
    if abs(s[M]) < 1e-13:
        raise BoxOptimizationError("incompatible constraint set in box subproblem")
    y = -s[:M] / s[M]
    return _solve_r(R, y + Qtb)


def _colleague_eigvals(c: np.ndarray) -> np.ndarray:
    """Eigenvalues of chebroots' rotated colleague matrix for every row of
    c (P, L >= 3), whose last entry must be nonzero: one eigvals call."""
    n = c.shape[1] - 1
    mat = np.zeros((len(c), n, n))
    i = np.arange(n - 1)
    mat[:, i, i + 1] = mat[:, i + 1, i] = np.r_[np.sqrt(.5), np.full(n - 2, .5)]
    scl = np.array([1.] + [np.sqrt(.5)] * (n - 1))
    mat[:, :, -1] -= (c[:, :-1] / c[:, -1:]) * (scl / scl[-1]) * .5
    return np.linalg.eigvals(mat[:, ::-1, ::-1])


def _continuous_min_gaps(basis: BasisSpec, eta: np.ndarray, q_lower: np.ndarray,
                         q_upper: np.ndarray):
    """Per-row continuous min gaps (lower, upper) of both sides.

    Rows may be a leading subset of the basis functions (the unique half
    during symmetric optimization); row k always belongs to phi_{k+1}.
    The lower side is the upper search on the negated problem, since
    phi - L = (-L) - (-phi) and negation is exact.

    Every (side, row, span) is one problem: the gap U - phi is a
    polynomial on the span, so its minimum lies at a span end or at a
    real root of its derivative, found as an eigenvalue of the
    colleague matrix (as chebroots does) and polished by a Newton step.
    All problems are solved at once; those whose derivative trims to the
    same length share one eigvals call. If that call fails, the check
    raises BoxOptimizationError naming one of its rows (``row U 1``).
    """
    n, S = len(q_upper), eta.size - 1
    C = cheb_coeffs(basis)[:, :n].T
    D = _cheb.chebder(C, axis=1)
    phi, dphi = np.concatenate([C, -C]), np.concatenate([D, -D])
    q = np.concatenate([q_upper, -q_lower])
    neg_d2 = -_cheb.chebder(dphi, axis=1)
    owner = np.arange(2 * n * S) // S  # row of phi/dphi/q each problem belongs to
    a, b = np.tile(eta[:-1], 2 * n)[:, None], np.tile(eta[1:], 2 * n)[:, None]
    slope = (np.diff(q, axis=1) / np.diff(eta)).reshape(-1, 1)
    # derivative of the gap in Chebyshev form, small terms zeroed, then trimmed
    dg = -dphi[owner]
    dg[:, :1] += slope
    dg[np.abs(dg) < 1e-14 * np.fmax(1.0, np.abs(dg).max(axis=1, keepdims=True))] = 0.0
    length = ((dg != 0) * np.arange(1, dg.shape[1] + 1)).max(axis=1)

    # masked root slots sit on the left end until their gaps are dropped
    roots = np.repeat(a, dg.shape[1] - 1, axis=1)
    keep = np.zeros(roots.shape, dtype=bool)
    for L in sorted(set(length.tolist()) - {0, 1}):  # np.unique would import numpy.ma
        k = np.flatnonzero(length == L)
        c, ak, bk = dg[k, :L], a[k], b[k]
        if L == 2:
            r = -c[:, :1] / c[:, 1:]
        else:
            try:
                r = _colleague_eigvals(c)
            except np.linalg.LinAlgError as err:
                s = owner[k[0]]
                raise BoxOptimizationError(f"margin eigen solve failed ({err}) in row "
                                           f"{'UL'[s // n]} {s % n + 1}") from None
        ok = (np.abs(r.imag) < 1e-10) & (r.real > ak - _ROOT_TOL) & (r.real < bk + _ROOT_TOL)
        r = np.where(ok, r.real, ak)
        # one Newton polish on the gap derivative
        dgv = _cheb.chebval(r.T, c.T, tensor=False).T
        d2v = _cheb.chebval(r.T, neg_d2[owner[k]].T, tensor=False).T
        good = np.abs(d2v) > 1e-14
        r = np.where(good, r - dgv / np.where(good, d2v, 1.0), r)
        roots[k, :L - 1] = np.clip(r, ak, bk)
        keep[k, :L - 1] = ok

    xs = np.concatenate([a, b, roots], axis=1)
    phi_xs = _cheb.chebval(xs.T, phi[owner].T, tensor=False).T
    gap = q[:, :-1].reshape(-1, 1) + slope * (xs - a) - phi_xs
    gap[:, 2:][~keep] = np.inf
    # a span whose gaps include a NaN (an overflowing row) fails its margin
    span = gap.min(axis=1)
    span[np.isnan(span)] = -np.inf
    best = span.reshape(2 * n, S).min(axis=1)
    return best[n:], best[:n]


def offset_correction(basis: BasisSpec, nodes: NodeSet, q_lower: np.ndarray,
                      q_upper: np.ndarray):
    """Shift candidate rows so the bounds hold continuously with margin _EPSILON.

    Upper rows move up by max(0, -min_x(U - phi)) + _EPSILON; lower rows
    move down symmetrically. Returns (q_lower, q_upper).
    """
    eta = nodes.array()
    q_lower = np.array(q_lower, dtype=float)
    q_upper = np.array(q_upper, dtype=float)
    lo, up = _continuous_min_gaps(basis, eta, q_lower, q_upper)
    q_upper += (np.maximum(0.0, -up) + _EPSILON)[:, None]
    q_lower -= (np.maximum(0.0, -lo) + _EPSILON)[:, None]
    return q_lower, q_upper


def _solved_rows(basis: BasisSpec) -> int:
    """Rows 0.._solved_rows - 1 are optimized; _mirror derives the rest."""
    return (basis.N + 1) // 2 if mirror_pairs(basis) else basis.N


def _mirror(basis: BasisSpec, q_lo: np.ndarray, q_up: np.ndarray) -> None:
    """Fill in place the rows that symmetry fixes.

    Mirror-pair families: row i >= (N+1)//2 is row N-1-i reversed.
    Legendre modes: an odd mode's lower row is its upper row negated
    and reversed.
    """
    N = basis.N
    if mirror_pairs(basis):
        half = (N + 1) // 2
        for q in (q_lo, q_up):
            q[half:] = q[: N - half][::-1, ::-1]
    else:
        q_lo[1::2] = -q_up[1::2, ::-1]


@lru_cache(maxsize=16)
def _sample_matrix(basis: BasisSpec) -> np.ndarray:
    """Read-only basis values at the _SAMPLE_POINTS of the fits."""
    Phi = basis_matrix(basis, _SAMPLE_POINTS)
    Phi.setflags(write=False)
    return Phi


def _active_sets(basis: BasisSpec) -> np.ndarray:
    """Empty start supports for every box subproblem of _raw_boxes:
    [0, i] for row i's upper fit, [1, i] for its lower fit."""
    return np.zeros((2, _solved_rows(basis), _N_SAMPLES), dtype=bool)


def _empty_hats(eta: np.ndarray) -> np.ndarray:
    """The control nodes whose hats hold no fit sample strictly between the
    neighbouring nodes (the end nodes hold -1 and 1): their columns of the
    fit's hat matrix are zero, so its QR factor R is singular."""
    # ndarray methods: the node search runs this on every evaluation
    held = (_SAMPLE_POINTS.searchsorted(eta[2:])
            - _SAMPLE_POINTS.searchsorted(eta[:-2], side="right"))
    return (held == 0).nonzero()[0] + 1


def _raw_boxes(basis: BasisSpec, eta: np.ndarray, active: np.ndarray):
    """Pre-offset box rows from the sampled one-sided fits.

    Returns (q_lower, q_upper) with full symmetry applied: only the rows
    _mirror cannot fill are solved, and a row whose function is its own
    mirror image (the middle nodal row, an even Legendre mode) is
    symmetrised.

    ``active`` (from _active_sets) holds each subproblem's start support
    and is updated in place, so a caller solving at nearby nodes can
    pass it back in.

    Every subproblem shares one column-major dual matrix E and right-hand
    side f (see _upper_qp); only E's last row changes between them.
    """
    N, M = basis.N, eta.size
    Q, R = _qr(hat_matrix(eta, _SAMPLE_POINTS))
    Phi = _sample_matrix(basis)
    E = np.empty((M + 1, _N_SAMPLES), order="F")
    E[:M] = Q.T
    f = np.zeros(M + 1)
    f[M] = 1.0

    pairs = mirror_pairs(basis)
    q_up = np.empty((N, M))
    q_lo = np.empty((N, M))
    for i in range(_solved_rows(basis)):
        q_up[i] = _upper_qp(Q, R, Phi[:, i], active[0, i], E, f)
        if pairs or i % 2 == 0:  # an odd mode's lower row comes from _mirror
            q_lo[i] = -_upper_qp(Q, R, -Phi[:, i], active[1, i], E, f)
        if (2 * i == N - 1) if pairs else (i % 2 == 0):  # its own mirror image
            q_up[i] = 0.5 * (q_up[i] + q_up[i][::-1])
            q_lo[i] = 0.5 * (q_lo[i] + q_lo[i][::-1])
    _mirror(basis, q_lo, q_up)
    return q_lo, q_up


def optimize_values(basis: BasisSpec, nodes: NodeSet) -> BoundingTable:
    """Optimal bounding table for a fixed control-node set.

    Discrete least-squares fits with one-sided constraints on _N_SAMPLES
    equispaced points, then the continuous offset correction. A node set
    whose hats the samples miss is refused, naming the first such node.
    """
    if _N_SAMPLES < 2 * nodes.M:
        raise ValueError(f"M={nodes.M} needs more than {_N_SAMPLES} samples")
    eta = nodes.array()
    for k in _empty_hats(eta)[:1]:
        raise ValueError(f"the hat function of control node {k} (eta = {eta[k]:.17g}) "
                         f"holds none of the {_N_SAMPLES} fit samples")
    q_lo, q_up = _raw_boxes(basis, eta, _active_sets(basis))
    # offset the solved rows, then mirror so symmetry stays exact
    n = _solved_rows(basis)
    q_lo[:n], q_up[:n] = offset_correction(basis, nodes, q_lo[:n], q_up[:n])
    _mirror(basis, q_lo, q_up)
    return BoundingTable(basis, nodes, q_lo, q_up, _EPSILON, "optimized-here")


def _row_gap_norms(basis: BasisSpec, eta: np.ndarray, q_lower: np.ndarray,
                   q_upper: np.ndarray):
    """Per-row L2 norms of phi - L and of U - phi, as (lower, upper).

    Gauss points per subinterval make the quadrature exact for these
    piecewise-polynomial gaps.
    """
    xg, wg = gauss_legendre_rule(basis.N)
    a = eta[:-1, None]
    half = 0.5 * (eta[1:, None] - a)
    pts = (a + half * (xg + 1.0)).ravel()
    wts = (half * wg).ravel()
    Phi = basis_matrix(basis, pts)
    H = hat_matrix(eta, pts)
    return np.sqrt(wts @ (Phi - H @ q_lower.T)**2), np.sqrt(wts @ (H @ q_upper.T - Phi)**2)


def _gap_norms(basis: BasisSpec, eta: np.ndarray, q_lower: np.ndarray,
               q_upper: np.ndarray) -> float:
    """Sum over rows of the L2 norms of U - phi and phi - L."""
    lo, up = _row_gap_norms(basis, eta, q_lower, q_upper)
    return float((up + lo).sum())


def verify_table(table: BoundingTable) -> BoxQuality:
    """Quality check: exact gap L2 norms and the worst continuous margin."""
    eta = table.eta()
    eps2 = _gap_norms(table.basis, eta, table.q_lower, table.q_upper)
    lo, up = _continuous_min_gaps(table.basis, eta, table.q_lower, table.q_upper)
    return BoxQuality(eps2=eps2, max_violation=float(min(lo.min(), up.min())))


def _nodes_from_z(z_free: np.ndarray, M: int) -> np.ndarray:
    """Map free auxiliary variables to a symmetric node set via gap softmax."""
    # M // 2 free log-gaps; the other (M - 1) // 2 mirror them
    z = np.concatenate([z_free, z_free[: (M - 1) // 2][::-1]])
    g = np.exp(z - z.max())
    eta = -1.0 + 2.0 * np.concatenate([[0.0], np.cumsum(g)]) / g.sum()
    eta = 0.5 * (eta - eta[::-1])
    eta[0], eta[-1] = -1.0, 1.0
    if M % 2 == 1:
        eta[M // 2] = 0.0
    return eta


def _z_from_nodes(eta: np.ndarray) -> np.ndarray:
    return np.log(np.diff(eta)[: eta.size // 2])


def _raw_objective(basis: BasisSpec, eta: np.ndarray, active: np.ndarray) -> float:
    """Sum of continuous gap norms of the pre-offset boxes.

    Smooth in the node positions, unlike the post-offset quality: the
    offset magnitude carries a sawtooth ripple from where the envelope
    kinks fall relative to the fixed sample grid. ``active`` carries the
    box subproblems' supports from one evaluation to the next (see
    _raw_boxes).
    """
    return _gap_norms(basis, eta, *_raw_boxes(basis, eta, active))


def optimize_nodes(basis: BasisSpec, M: int, restarts: int = 20, seed: int = 0,
                   maxiter: int = 60, warm_starts=()):
    """Search for the control-node positions minimizing the gap norm sum.

    Outer search over the log-gap parametrization (symmetry built in,
    left half free), multi-start quasi-Newton on the pre-offset gap
    norms, with deterministic seeds (equispaced and the standard fixed
    node kinds) plus perturbed restarts. Every converged restart and
    every seed then gets the full offset-corrected table, and the final
    pick is by the post-offset gap norm sum (eps2); the equispaced table,
    fitted before any search, opens that pool, so an M the fit refuses is
    refused at once and the result is never worse than it. A node set
    the search revisits is not solved again: it keeps its first value.
    Returns the winning BoundingTable (its nodes carry the positions).
    """
    if M < 2:
        raise ValueError("need M >= 2")
    if restarts < 0:
        raise ValueError("restarts must be >= 0")
    rng = np.random.default_rng(seed)  # rejects a bad seed even when unused
    from scipy.optimize import minimize

    def build(eta_arr):
        return optimize_values(basis, NodeSet(eta_arr))

    nf = M // 2  # free log-gaps
    # the equispaced seed opens the pool; its fit refuses an M too large
    eta = _nodes_from_z(np.zeros(nf), M)
    best_table = build(eta)
    if M <= 3:  # symmetry pins these node sets completely
        return best_table
    best_eps2 = _gap_norms(basis, best_table.eta(), best_table.q_lower, best_table.q_upper)
    seen = {tuple(np.round(eta, 10))}

    best_raw = {"value": np.inf, "z": None}
    # consecutive evaluations differ by a quasi-Newton step or a
    # finite-difference probe: each one's supports start the next one's
    active = _active_sets(basis)
    # line searches and probes revisit node sets: solve each one once
    solved = {}

    def unusable(eta):
        # nodes closer than 1e-6, or a hat function the fit cannot sample
        return np.min(np.diff(eta)) < 1e-6 or _empty_hats(eta).size > 0

    def objective(z_free):
        eta = _nodes_from_z(np.asarray(z_free, dtype=float), M)
        if unusable(eta):
            return 1e6 - np.min(np.diff(eta))
        key = eta.tobytes()
        if key not in solved:
            solved[key] = _raw_objective(basis, eta, active)
        value = solved[key]
        if value < best_raw["value"]:
            best_raw.update(value=value, z=np.array(z_free, dtype=float))
        return value

    seeds = [np.zeros(nf)]
    for eta0 in (
        make_node_set("gauss-lobatto", M).array(),
        make_node_set("gauss-legendre+endpoints", M).array(),
        -np.cos(np.pi * np.arange(M) / (M - 1)),
    ):
        seeds.append(_z_from_nodes(eta0))
    for eta0 in warm_starts:
        eta0 = np.asarray(eta0, dtype=float)
        if eta0.size != M:
            raise ValueError("warm start node sets must have length M")
        seeds.append(_z_from_nodes(eta0))

    candidates = list(seeds)
    for k in range(restarts):
        if k < len(seeds):
            z0 = seeds[k]
        else:
            base = best_raw["z"] if best_raw["z"] is not None else np.zeros(nf)
            z0 = base + rng.normal(0.0, 0.5, nf)
        res = minimize(objective, z0, method="BFGS",
                       options={"maxiter": maxiter, "gtol": 1e-7})
        candidates.append(np.asarray(res.x, dtype=float))
    if best_raw["z"] is not None:
        candidates.append(best_raw["z"])

    for z in candidates:
        eta = _nodes_from_z(z, M)
        key = tuple(np.round(eta, 10))
        if key in seen or unusable(eta):
            continue
        seen.add(key)
        table = build(eta)
        # verify_table's eps2 alone: the pick needs no continuous margins
        eps2 = _gap_norms(basis, table.eta(), table.q_lower, table.q_upper)
        if eps2 < best_eps2:
            best_eps2, best_table = eps2, table
    return best_table


def save_table(table: BoundingTable, path) -> None:
    """Write a table in the line-oriented text format, full precision."""
    rows = [(f"{side} {i + 1}: ", row)
            for side, q in (("L", table.q_lower), ("U", table.q_upper)) for i, row in enumerate(q)]
    _write_text(path, "polybound-table v1",
                f"family={table.basis.family} p={table.basis.p} M={table.nodes.M} "
                f"epsilon={table.epsilon:.17g} provenance={table.provenance}",
                [("nodes: ", table.eta()), *rows])


def _read_table_text(path):
    """(meta, records) of a table file, header and record count checked."""
    return _read_text(path, "polybound-table v1", lambda meta: 1 + 2 * (meta["p"] + 1),
                      family=str, p=int, M=int, epsilon=float, provenance=str)


def load_table(path) -> BoundingTable:
    """Read and verify a table file.

    A table whose continuous margin is below -1e-12 or whose gap norm is
    not finite raises BoxOptimizationError naming the file and the row.
    Provenance is kept for reference tables and otherwise becomes
    loaded-from-file.
    """
    meta, records = _read_table_text(path)
    p, M = meta["p"], meta["M"]
    if not records[0].startswith("nodes:"):
        raise FormatError(f"{path}: expected 'nodes:' record on line 3")
    eta = _floats(records[0][len("nodes:"):], M, f"{path}: nodes")
    N = p + 1
    rows = []
    for k, rec in enumerate(records[1:]):
        rec = rec.strip()
        tag = f"{'LU'[k // N]} {k % N + 1}:"
        if not rec.startswith(tag):
            raise FormatError(f"{path}: expected record {tag!r}, got {rec[:20]!r}")
        rows.append(_floats(rec[len(tag):], M, f"{path}: {tag}"))
    q_lower, q_upper = np.reshape(rows, (2, N, M))

    provenance = "reference" if meta["provenance"] == "reference" else "loaded-from-file"
    try:
        table = BoundingTable(make_basis(meta["family"], p),
                              NodeSet(eta),
                              q_lower, q_upper, meta["epsilon"], provenance)
    except ValueError as err:
        raise FormatError(f"{path}: {err}") from None
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing row is refused below
        try:
            quality = verify_table(table)
        except BoxOptimizationError as err:  # a margin eigen solve failed
            raise BoxOptimizationError(f"{path}: {err}") from None
        fault = None
        if quality.max_violation < -1e-12:
            fault = f"violates its bounding property (margin {quality.max_violation:.3e})"
            lo, up = _continuous_min_gaps(table.basis, eta, q_lower, q_upper)
            worst = np.argmin(np.concatenate([lo, up]))
        elif not np.isfinite(quality.eps2):
            fault = f"gap norm is not finite (eps2 {quality.eps2})"
            worst = np.argmax(np.concatenate(_row_gap_norms(table.basis, eta, q_lower, q_upper)))
    if fault:
        raise BoxOptimizationError(f"{path}: table {fault} in row {'LU'[worst // N]} "
                                   f"{worst % N + 1}")
    if np.any(table.q_lower > table.q_upper):
        raise FormatError(f"{path}: lower values exceed upper values")
    return table


def _data_dir() -> Path:
    return Path(__file__).resolve().parent / "data"


def reference_table_paths():
    """The shipped tables whose header records provenance=reference, by name."""
    return [path for path in sorted((_data_dir() / "tables").glob("*.txt"))
            if _read_table_text(path)[0]["provenance"] == "reference"]


def table_file_name(family: str, p: int, M: int) -> str:
    """The file name of a (family, p, M) table, as standard_table looks it up."""
    return f"{family}-p{p}-M{M}.txt"


def standard_table(family: str = "lobatto-nodal", p: int = 3, M: Optional[int] = None,
                   kind: str = "optimized") -> BoundingTable:
    """Fetch a table by (family, p, node kind, M).

    Optimized tables come from POLYBOUND_TABLE_DIR when set, else from the
    tables shipped with the package. Fixed node kinds are computed on the
    fly (cheap). Nothing is kept between calls: each one loads or builds
    a new table, so hold the table you bound with; its scratch and
    operands go with it.
    """
    if M is None:
        M = p + 1
    if M < 2:  # before any file lookup: no table has fewer nodes
        raise ValueError(f"need M >= 2 control nodes, got M={M}")
    if kind != "optimized":
        return optimize_values(make_basis(family, p), make_node_set(kind, M))
    name = table_file_name(family, p, M)
    table_dir = os.environ.get("POLYBOUND_TABLE_DIR")
    candidates = [Path(table_dir) / name] if table_dir else []
    candidates.append(_data_dir() / "tables" / name)
    for cand in candidates:
        if cand.exists():
            return load_table(cand)
    raise FileNotFoundError(
        f"no precomputed optimized table {name}; run the table generator "
        "or point POLYBOUND_TABLE_DIR at a directory containing it"
    )
