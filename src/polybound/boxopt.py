"""Optimal piecewise-linear bounding boxes for basis functions.

For a basis function phi and control nodes eta, the upper box is the
piecewise-linear function U on eta minimizing the sampled L2 distance to
phi subject to U >= phi; the lower box is the mirrored problem. The
discrete solves run on n equispaced samples (endpoints included), then a
scalar per-row offset makes the bound hold continuously, plus a safety
margin epsilon.

Each discrete subproblem is a convex QP with linear inequality
constraints. It is solved exactly by the least-squares-with-inequalities
reduction: QR factor the hat-function matrix, reduce to a least-distance
problem, and solve that through NNLS. Deterministic, no tuning knobs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from scipy.linalg import solve_triangular
from scipy.optimize import minimize

from .basis import (
    BasisSpec,
    NodeSet,
    basis_matrix,
    cheb_coeffs,
    gauss_legendre_rule,
    gauss_lobatto_nodes,
    gauss_legendre_nodes,
    hat_matrix,
    make_basis,
    make_node_set,
    mirror_pairs,
)

PROVENANCE_VALUES = (
    "optimized-here",
    "optimized-here-padded",
    "loaded-from-file",
    "reference",
)

_ROOT_TOL = 1e-12  # window slack when assigning roots to a subinterval


@dataclass(frozen=True, eq=False)
class BoundingTable:
    """Lower/upper control values bounding every basis function.

    Row i of ``q_lower``/``q_upper`` holds the M control values of the
    piecewise-linear bounds of phi_{i+1} on ``nodes``.
    """

    basis: BasisSpec
    nodes: NodeSet
    q_lower: np.ndarray
    q_upper: np.ndarray
    epsilon: float = 1e-6
    provenance: str = "optimized-here"

    def __post_init__(self):
        ql = np.asarray(self.q_lower, dtype=float)
        qu = np.asarray(self.q_upper, dtype=float)
        if ql.shape != (self.basis.N, self.nodes.M) or qu.shape != ql.shape:
            raise ValueError(
                f"table shape {ql.shape} does not match N={self.basis.N}, M={self.nodes.M}"
            )
        if self.provenance not in PROVENANCE_VALUES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        ql.setflags(write=False)
        qu.setflags(write=False)
        object.__setattr__(self, "q_lower", ql)
        object.__setattr__(self, "q_upper", qu)

    def eta(self) -> np.ndarray:
        return self.nodes.array()


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
    """Raised when a discrete subproblem fails; carries the best-found table."""

    def __init__(self, message, table=None, quality=None):
        super().__init__(message)
        self.table = table
        self.quality = quality


def _nnls(E: np.ndarray, f: np.ndarray, max_outer: int = 0) -> np.ndarray:
    """Lawson-Hanson active-set NNLS:  min ||E u - f||  s.t.  u >= 0.

    The passive-set least-squares subproblems are tiny here (E has at most
    a couple dozen rows), so each one is solved fresh by SVD least squares;
    exactness of the support solve is what the downstream reduction needs.
    """
    m, n = E.shape
    if max_outer <= 0:
        max_outer = 3 * (m + n)
    u = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    w = E.T @ f
    tol = 10.0 * np.finfo(float).eps * max(1.0, float(np.abs(w).max()))
    for _ in range(max_outer):
        w = E.T @ (f - E @ u)
        w_free = np.where(passive, -np.inf, w)
        j = int(np.argmax(w_free))
        if w_free[j] <= tol:
            return u
        passive[j] = True
        for _ in range(max_outer):
            cols = np.flatnonzero(passive)
            z, *_ = np.linalg.lstsq(E[:, cols], f, rcond=None)
            if z.min() > 0.0:
                u[:] = 0.0
                u[cols] = z
                break
            # back off along the segment to keep u nonnegative
            neg = z <= 0.0
            ratios = u[cols][neg] / (u[cols][neg] - z[neg])
            alpha = float(ratios.min())
            u[cols] += alpha * (z - u[cols])
            drop = cols[u[cols] <= 1e-14 * max(1.0, u[cols].max())]
            u[drop] = 0.0
            passive[drop] = False
            if drop.size == 0:
                # numerical stall; drop the most negative direction instead
                k = cols[int(np.argmin(z))]
                u[k] = 0.0
                passive[k] = False
    raise RuntimeError("NNLS iteration budget exhausted")


def _upper_qp(Q: np.ndarray, R: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact solution of  min ||A q - b||  s.t.  A q >= b,  A = Q R.

    Least-distance reduction: with y = R q - Q^T b the objective becomes
    ||y||, constrained by Q y >= (I - Q Q^T) b; that least-distance
    problem is solved through its NNLS dual. Finite termination, no
    tuning, deterministic.
    """
    M = Q.shape[1]
    Qtb = Q.T @ b
    resid = b - Q @ Qtb
    E = np.vstack([Q.T, resid[None, :]])
    f = np.zeros(M + 1)
    f[M] = 1.0
    u = _nnls(E, f)
    s = E @ u - f
    if abs(s[M]) < 1e-13:
        raise RuntimeError("incompatible constraint set in box subproblem")
    y = -s[:M] / s[M]
    return solve_triangular(R, y + Qtb)


def _chebval_col(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    return _cheb.chebval(x, c)


def _row_min_gap(dphi: np.ndarray, phi_c: np.ndarray, eta: np.ndarray,
                 row: np.ndarray, side: str) -> float:
    """Continuous minimum of the gap between a PL row and phi.

    side "upper": min over x of U(x) - phi(x); side "lower": min of
    phi(x) - L(x). Per subinterval the gap is a polynomial; its interior
    critical points come from the colleague-matrix roots of the derivative,
    polished by a Newton step.
    """
    d2phi = _cheb.chebder(dphi) if dphi.size > 1 else np.zeros(1)
    best = np.inf
    for j in range(eta.size - 1):
        a, b = eta[j], eta[j + 1]
        slope = (row[j + 1] - row[j]) / (b - a)
        crit = [a, b]
        # derivative of the gap in Chebyshev form
        dg = -dphi.copy() if side == "upper" else dphi.copy()
        dg[0] += slope if side == "upper" else -slope
        dgt = np.trim_zeros(np.where(np.abs(dg) < 1e-14 * max(1.0, np.abs(dg).max()), 0.0, dg), "b")
        if dgt.size > 1:
            roots = _cheb.chebroots(dgt)
            roots = roots[np.abs(roots.imag) < 1e-10].real
            roots = roots[(roots > a - _ROOT_TOL) & (roots < b + _ROOT_TOL)]
            if roots.size:
                # one Newton polish on the gap derivative
                d2g = -d2phi if side == "upper" else d2phi
                dgv = _chebval_col(dgt, roots)
                d2v = _chebval_col(d2g, roots) if d2g.size else np.zeros_like(roots)
                ok = np.abs(d2v) > 1e-14
                roots = np.where(ok, roots - dgv / np.where(ok, d2v, 1.0), roots)
                crit.extend(np.clip(roots, a, b))
        xs = np.asarray(crit)
        lin = row[j] + slope * (xs - a)
        ph = _chebval_col(phi_c, xs)
        gap = lin - ph if side == "upper" else ph - lin
        best = min(best, float(gap.min()))
    return best


def _row_min_gap_sampled(phi_c: np.ndarray, dphi: np.ndarray, eta: np.ndarray,
                         row: np.ndarray, side: str, n: int) -> float:
    """Sampling fallback with a Lipschitz safety deduction."""
    xs = np.linspace(-1.0, 1.0, n)
    lin = np.interp(xs, eta, row)
    ph = _chebval_col(phi_c, xs)
    gap = lin - ph if side == "upper" else ph - lin
    slope_max = np.max(np.abs(np.diff(row) / np.diff(eta)))
    lip = float(np.abs(dphi).sum()) + slope_max
    h = xs[1] - xs[0]
    return float(gap.min()) - 0.5 * lip * h


def _continuous_min_gaps(basis: BasisSpec, eta: np.ndarray, q_lower: np.ndarray,
                         q_upper: np.ndarray, n_fallback: int = 10000):
    """Per-row continuous min gaps for both sides, plus a pad flag.

    Rows may be a leading subset of the basis functions (the unique half
    during symmetric optimization); row k always belongs to phi_{k+1}.
    """
    C = cheb_coeffs(basis)
    n_rows = q_upper.shape[0]
    lo = np.empty(n_rows)
    up = np.empty(n_rows)
    padded = False
    for i in range(n_rows):
        phi_c = C[:, i]
        dphi = _cheb.chebder(phi_c) if phi_c.size > 1 else np.zeros(1)
        try:
            up[i] = _row_min_gap(dphi, phi_c, eta, q_upper[i], "upper")
            lo[i] = _row_min_gap(dphi, phi_c, eta, q_lower[i], "lower")
        except np.linalg.LinAlgError:
            up[i] = _row_min_gap_sampled(phi_c, dphi, eta, q_upper[i], "upper", n_fallback)
            lo[i] = _row_min_gap_sampled(phi_c, dphi, eta, q_lower[i], "lower", n_fallback)
            padded = True
    return lo, up, padded


def offset_correction(basis: BasisSpec, nodes: NodeSet, q_lower: np.ndarray,
                      q_upper: np.ndarray, epsilon: float = 1e-6):
    """Shift candidate rows so the bounds hold continuously with margin epsilon.

    Upper rows move up by max(0, -min_x(U - phi)) + epsilon; lower rows
    move down symmetrically. Returns (q_lower, q_upper, padded) where
    ``padded`` reports whether the sampling fallback was used for any row.
    """
    eta = nodes.array()
    q_lower = np.array(q_lower, dtype=float)
    q_upper = np.array(q_upper, dtype=float)
    lo, up, padded = _continuous_min_gaps(basis, eta, q_lower, q_upper)
    dq_up = np.maximum(0.0, -up)
    dq_lo = np.maximum(0.0, -lo)
    q_upper += (dq_up + epsilon)[:, None]
    q_lower -= (dq_lo + epsilon)[:, None]
    return q_lower, q_upper, padded


def _raw_boxes(basis: BasisSpec, eta: np.ndarray, n_samples: int):
    """Pre-offset box rows from the sampled one-sided fits.

    Returns (q_lower, q_upper, failures) with full symmetry applied.
    Symmetric basis pairs share one solve through reflection; Legendre
    modes use their parity instead. Failed rows fall back to the plain
    least-squares fit and are listed in failures.
    """
    N, M = basis.N, eta.size
    x = np.linspace(-1.0, 1.0, n_samples)
    A = hat_matrix(eta, x)
    Q, R = np.linalg.qr(A)
    Phi = basis_matrix(basis, x)

    q_up = np.empty((N, M))
    q_lo = np.empty((N, M))
    failures = []

    def solve_upper(col):
        try:
            return _upper_qp(Q, R, col), True
        except RuntimeError:
            # least-squares candidate; the offset step will make it feasible
            qtb = Q.T @ col
            return solve_triangular(R, qtb), False

    if mirror_pairs(basis):
        half = (N + 1) // 2
        for i in range(half):
            q_up[i], ok_u = solve_upper(Phi[:, i])
            neg, ok_l = solve_upper(-Phi[:, i])
            q_lo[i] = -neg
            if not (ok_u and ok_l):
                failures.append(i)
        for i in range(half, N):
            q_up[i] = q_up[N - 1 - i][::-1]
            q_lo[i] = q_lo[N - 1 - i][::-1]
        if N % 2 == 1:
            mid = N // 2
            q_up[mid] = 0.5 * (q_up[mid] + q_up[mid][::-1])
            q_lo[mid] = 0.5 * (q_lo[mid] + q_lo[mid][::-1])
    else:
        for i in range(N):
            q_up[i], ok_u = solve_upper(Phi[:, i])
            odd_parity = i % 2 == 1
            if odd_parity:
                q_lo[i] = -q_up[i][::-1]
                ok_l = True
            else:
                neg, ok_l = solve_upper(-Phi[:, i])
                q_lo[i] = -neg
                q_up[i] = 0.5 * (q_up[i] + q_up[i][::-1])
                q_lo[i] = 0.5 * (q_lo[i] + q_lo[i][::-1])
            if not (ok_u and ok_l):
                failures.append(i)
    return q_lo, q_up, failures


def optimize_values(basis: BasisSpec, nodes: NodeSet, n_samples: int = 1000,
                    epsilon: float = 1e-6) -> BoundingTable:
    """Optimal bounding table for a fixed control-node set.

    Discrete least-squares fits with one-sided constraints on n_samples
    equispaced points, then the continuous offset correction.
    """
    if n_samples < 2 * nodes.M:
        raise ValueError("n_samples must be well above M")
    N = basis.N
    eta = nodes.array()
    q_lo, q_up, failures = _raw_boxes(basis, eta, n_samples)

    if mirror_pairs(basis):
        # offset the unique half, then mirror so symmetry stays exact
        half = (N + 1) // 2
        lo_h, up_h, padded = offset_correction(
            basis, nodes, q_lo[:half], q_up[:half], epsilon
        )
        q_lo[:half], q_up[:half] = lo_h, up_h
        for i in range(half, N):
            q_up[i] = q_up[N - 1 - i][::-1]
            q_lo[i] = q_lo[N - 1 - i][::-1]
    else:
        q_lo, q_up, padded = offset_correction(basis, nodes, q_lo, q_up, epsilon)
        for i in range(N):
            if i % 2 == 1:
                q_lo[i] = -q_up[i][::-1]

    provenance = "optimized-here-padded" if padded else "optimized-here"
    table = BoundingTable(basis, nodes, q_lo, q_up, epsilon, provenance)
    if failures:
        quality = verify_table(table)
        raise BoxOptimizationError(
            f"discrete subproblem failed for basis functions {failures}",
            table=table,
            quality=quality,
        )
    return table


def _gap_quadrature(basis: BasisSpec, eta: np.ndarray):
    """Per-subinterval Gauss points/weights on [-1,1], exact for the gap norms."""
    xg, wg = gauss_legendre_rule(basis.N)
    pts = []
    wts = []
    for j in range(eta.size - 1):
        a, b = eta[j], eta[j + 1]
        half = 0.5 * (b - a)
        pts.append(a + half * (xg + 1.0))
        wts.append(half * wg)
    return np.concatenate(pts), np.concatenate(wts)


def verify_table(table: BoundingTable) -> BoxQuality:
    """Quality check: exact gap L2 norms and the worst continuous margin."""
    eta = table.eta()
    pts, wts = _gap_quadrature(table.basis, eta)
    Phi = basis_matrix(table.basis, pts)
    H = hat_matrix(eta, pts)
    upper = H @ table.q_upper.T
    lower = H @ table.q_lower.T
    gap_u = upper - Phi
    gap_l = Phi - lower
    norms = np.sqrt(np.maximum(0.0, wts @ gap_u**2)) + np.sqrt(
        np.maximum(0.0, wts @ gap_l**2)
    )
    eps2 = float(norms.sum())
    lo, up, _ = _continuous_min_gaps(table.basis, eta, table.q_lower, table.q_upper)
    return BoxQuality(eps2=eps2, max_violation=float(min(lo.min(), up.min())))


def _nodes_from_z(z_free: np.ndarray, M: int) -> np.ndarray:
    """Map free auxiliary variables to a symmetric node set via gap softmax."""
    ng = M - 1
    nf = (ng + 1) // 2
    z = np.concatenate([z_free, z_free[: ng - nf][::-1]])
    g = np.exp(z - z.max())
    eta = -1.0 + 2.0 * np.concatenate([[0.0], np.cumsum(g)]) / g.sum()
    eta = 0.5 * (eta - eta[::-1])
    eta[0], eta[-1] = -1.0, 1.0
    if M % 2 == 1:
        eta[M // 2] = 0.0
    return eta


def _z_from_nodes(eta: np.ndarray) -> np.ndarray:
    ng = eta.size - 1
    nf = (ng + 1) // 2
    gaps = np.diff(eta)
    return np.log(gaps[:nf])


def _raw_objective(basis: BasisSpec, eta: np.ndarray, n_samples: int) -> float:
    """Sum of continuous gap norms of the pre-offset boxes.

    Smooth in the node positions, unlike the post-offset quality: the
    offset magnitude carries a sawtooth ripple from where the envelope
    kinks fall relative to the fixed sample grid.
    """
    q_lo, q_up, failures = _raw_boxes(basis, eta, n_samples)
    if failures:
        return 1e6
    pts, wts = _gap_quadrature(basis, eta)
    Phi = basis_matrix(basis, pts)
    H = hat_matrix(eta, pts)
    upper_gap = H @ q_up.T - Phi
    lower_gap = Phi - H @ q_lo.T
    norms = np.sqrt(wts @ upper_gap**2) + np.sqrt(wts @ lower_gap**2)
    return float(norms.sum())


def optimize_nodes(basis: BasisSpec, M: int, n_samples: int = 1000,
                   epsilon: float = 1e-6, restarts: int = 20,
                   perturbation: float = 0.5, seed: int = 0,
                   maxiter: int = 60, warm_starts=()):
    """Search for the control-node positions minimizing the gap norm sum.

    Outer search over the log-gap parametrization (symmetry built in,
    left half free), multi-start quasi-Newton on the pre-offset gap
    norms, with deterministic seeds (equispaced and the standard fixed
    node kinds) plus perturbed restarts. Every converged restart and
    every seed then gets the full offset-corrected table, and the final
    pick is by the verified post-offset quality; the equispaced seed is
    always in that pool, so the result is never worse than it.
    Returns the winning BoundingTable (its nodes carry the positions).
    """
    if M < 2:
        raise ValueError("need M >= 2")
    if restarts < 0:
        raise ValueError("restarts must be >= 0")
    rng = np.random.default_rng(seed)  # rejects a bad seed even when unused

    def build(eta_arr):
        ns = make_node_set("optimized", M, positions=eta_arr)
        table = optimize_values(basis, ns, n_samples, epsilon)
        return ns, table

    if M <= 3:
        # symmetry pins these node sets completely
        eta = np.array([-1.0, 1.0]) if M == 2 else np.array([-1.0, 0.0, 1.0])
        return build(eta)[1]

    best_raw = {"value": np.inf, "z": None}

    def objective(z_free):
        eta = _nodes_from_z(np.asarray(z_free, dtype=float), M)
        if np.min(np.diff(eta)) < 1e-6:
            return 1e6 - np.min(np.diff(eta))
        value = _raw_objective(basis, eta, n_samples)
        if value < best_raw["value"]:
            best_raw.update(value=value, z=np.array(z_free, dtype=float))
        return value

    ng = M - 1
    nf = (ng + 1) // 2
    seeds = [np.zeros(nf)]
    for eta0 in (
        gauss_lobatto_nodes(M),
        np.sort(np.concatenate(([-1.0], gauss_legendre_nodes(M - 2), [1.0]))),
        -np.cos(np.pi * np.arange(M) / (M - 1)),
    ):
        seeds.append(_z_from_nodes(np.asarray(eta0)))
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
            z0 = base + rng.normal(0.0, perturbation, nf)
        res = minimize(objective, z0, method="BFGS",
                       options={"maxiter": maxiter, "gtol": 1e-7})
        candidates.append(np.asarray(res.x, dtype=float))
    if best_raw["z"] is not None:
        candidates.append(best_raw["z"])

    best = {"eps2": np.inf, "table": None, "nodes": None}
    seen = set()
    for z in candidates:
        key = tuple(np.round(_nodes_from_z(z, M), 10))
        if key in seen:
            continue
        seen.add(key)
        eta = _nodes_from_z(z, M)
        if np.min(np.diff(eta)) < 1e-6:
            continue
        try:
            ns, table = build(eta)
        except BoxOptimizationError as err:
            if err.table is None:
                continue
            table, ns = err.table, err.table.nodes
        q = verify_table(table)
        if q.eps2 < best["eps2"]:
            best.update(eps2=q.eps2, table=table, nodes=ns)

    if best["table"] is None:
        raise BoxOptimizationError("node search found no feasible table")
    return best["table"]


class TableFormatError(ValueError):
    """Malformed table file; the message names the offending record."""


def save_table(table: BoundingTable, path) -> None:
    """Write a table in the line-oriented text format, full precision."""
    lines = [
        "polybound-table v1",
        f"family={table.basis.family} p={table.basis.p} M={table.nodes.M} "
        f"epsilon={table.epsilon:.17g} provenance={table.provenance}",
        "nodes: " + " ".join(f"{v:.17g}" for v in table.eta()),
    ]
    for i in range(table.basis.N):
        lines.append(f"L {i + 1}: " + " ".join(f"{v:.17g}" for v in table.q_lower[i]))
    for i in range(table.basis.N):
        lines.append(f"U {i + 1}: " + " ".join(f"{v:.17g}" for v in table.q_upper[i]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_floats(text: str, count: int, record: str) -> np.ndarray:
    parts = text.split()
    if len(parts) != count:
        raise TableFormatError(f"{record}: expected {count} values, got {len(parts)}")
    try:
        return np.array([float(v) for v in parts])
    except ValueError as err:
        raise TableFormatError(f"{record}: {err}") from None


def load_table(path, force: bool = False) -> BoundingTable:
    """Read and verify a table file.

    Tables whose continuous margin is below -1e-12 are refused unless
    ``force`` is set. Provenance is kept for reference tables and
    otherwise becomes loaded-from-file.
    """
    raw = Path(path).read_text(encoding="utf-8").splitlines()
    if not raw or raw[0].strip() != "polybound-table v1":
        raise TableFormatError(f"{path}: missing 'polybound-table v1' header")
    if len(raw) < 3:
        raise TableFormatError(f"{path}: truncated header")
    meta = {}
    for tok in raw[1].split():
        if "=" not in tok:
            raise TableFormatError(f"{path}: bad metadata token {tok!r}")
        k, v = tok.split("=", 1)
        meta[k] = v
    try:
        family = meta["family"]
        p = int(meta["p"])
        M = int(meta["M"])
        epsilon = float(meta["epsilon"])
        provenance = meta["provenance"]
    except (KeyError, ValueError) as err:
        raise TableFormatError(f"{path}: metadata line: {err}") from None
    if not raw[2].startswith("nodes:"):
        raise TableFormatError(f"{path}: expected 'nodes:' record on line 3")
    eta = _parse_floats(raw[2][len("nodes:"):], M, f"{path}: nodes")
    basis = make_basis(family, p)
    N = basis.N
    if len(raw) < 3 + 2 * N:
        raise TableFormatError(f"{path}: expected {2 * N} value records, file truncated")
    q_lower = np.empty((N, M))
    q_upper = np.empty((N, M))
    for i in range(N):
        rec = raw[3 + i].strip()
        tag = f"L {i + 1}:"
        if not rec.startswith(tag):
            raise TableFormatError(f"{path}: expected record {tag!r}, got {rec[:20]!r}")
        q_lower[i] = _parse_floats(rec[len(tag):], M, f"{path}: {tag}")
    for i in range(N):
        rec = raw[3 + N + i].strip()
        tag = f"U {i + 1}:"
        if not rec.startswith(tag):
            raise TableFormatError(f"{path}: expected record {tag!r}, got {rec[:20]!r}")
        q_upper[i] = _parse_floats(rec[len(tag):], M, f"{path}: {tag}")

    nodes = make_node_set("explicit", M, positions=eta)
    if provenance != "reference":
        provenance = "loaded-from-file"
    table = BoundingTable(basis, nodes, q_lower, q_upper, epsilon, provenance)
    quality = verify_table(table)
    if quality.max_violation < -1e-12 and not force:
        raise BoxOptimizationError(
            f"{path}: table violates its bounding property "
            f"(margin {quality.max_violation:.3e}); pass force=True to accept",
            table=table,
            quality=quality,
        )
    if np.any(table.q_lower > table.q_upper) and not force:
        raise TableFormatError(f"{path}: lower values exceed upper values")
    return table


def _data_dir() -> Path:
    return Path(__file__).resolve().parent / "data"


def reference_table(p: int, M: int) -> BoundingTable:
    """A shipped reference table (lobatto-nodal family)."""
    path = _data_dir() / "reference" / f"lobatto-nodal-p{p}-M{M}.txt"
    if not path.exists():
        raise FileNotFoundError(f"no reference table for p={p}, M={M}")
    return load_table(path)


def reference_table_paths():
    return sorted((_data_dir() / "reference").glob("*.txt"))


def standard_table(family: str = "lobatto-nodal", p: int = 3, M: Optional[int] = None,
                   kind: str = "optimized") -> BoundingTable:
    """Fetch a table by (family, p, node kind, M).

    Optimized tables come from POLYBOUND_TABLE_DIR when set, else from the
    tables shipped with the package. Fixed node kinds are computed on the
    fly (cheap). Both are cached for the process, optimized ones per
    table directory.
    """
    if M is None:
        M = p + 1
    table_dir = os.environ.get("POLYBOUND_TABLE_DIR") if kind == "optimized" else None
    return _cached_table(family, p, M, kind, table_dir)


@lru_cache(maxsize=256)
def _cached_table(family: str, p: int, M: int, kind: str,
                  table_dir: Optional[str]) -> BoundingTable:
    if kind == "optimized":
        name = f"{family}-p{p}-M{M}.txt"
        candidates = [Path(table_dir) / name] if table_dir else []
        candidates.append(_data_dir() / "tables" / name)
        for cand in candidates:
            if cand.exists():
                return load_table(cand)
        raise FileNotFoundError(
            f"no precomputed optimized table {name}; run the table generator "
            "or point POLYBOUND_TABLE_DIR at a directory containing it"
        )
    return optimize_values(make_basis(family, p), make_node_set(kind, M))
