"""Bounds-preserving DG transport on periodic quads.

Nodal discontinuous Galerkin for u_t + div(c u) = 0 on [0, 1]^2 with a
divergence-free rotating velocity field, SSP-RK3 in time, and a squeeze
limiter driven by piecewise-linear node bounds.  The limiter blends each
element toward its mean just far enough that the certified node bounds
fit inside the global interval, so the pointwise solution never leaves
it at any stage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .basis import (
    BasisSpec,
    basis_deriv_matrix,
    basis_matrix,
    gauss_legendre_rule,
    make_basis,
)
from .bounder import (
    BoundingTable,
    NonFiniteBoundsError,
    PolyCoeffs,
    _one_table,
    bernstein_bounds,
    bound_nodes,
    bound_tensor,
    brute_force_extrema,
    sampled_extrema,
)
from .boxopt import standard_table

__all__ = [
    "DGState",
    "squeeze_alpha",
    "apply_limiter",
    "limiter_decisions",
    "dg_step",
    "cfl_dt",
    "advance",
    "rotation_velocity",
    "rotating_shapes",
    "transport_state",
    "sample_extrema",
    "total_mass",
    "l2_error",
    "step_interpolation_table",
]

# a mean up to this fraction of b - a outside [a, b] is accepted and clipped
_MEAN_TOL = 1e-12


# ---------------------------------------------------------------------------
# state


@dataclass(frozen=True)
class DGState:
    """DG solution snapshot on an Ne x Ne periodic grid of [0,1]^2.

    U has shape (Ne, Ne, N, N): element row (y), element column (x),
    node row (y), node column (x).  Coefficients are nodal values on the
    tensor GLL grid of each element.
    """

    p: int
    U: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float)
        N = self.p + 1
        if U.ndim != 4 or U.shape[0] != U.shape[1] or U.shape[2:] != (N, N):
            raise ValueError(
                f"U must have shape (Ne, Ne, {N}, {N}), got {U.shape}"
            )
        U = U.copy()
        U.setflags(write=False)
        object.__setattr__(self, "U", U)

    @property
    def basis(self) -> BasisSpec:
        return make_basis("lobatto-nodal", self.p)

    @property
    def elements(self) -> int:
        return self.U.shape[0]

    @property
    def h(self) -> float:
        return 1.0 / self.elements


# ---------------------------------------------------------------------------
# velocity field and initial data


def rotation_velocity(x, y):
    """Solid-body rotation about (1/2, 1/2), one revolution per unit time."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return -2.0 * np.pi * (y - 0.5), 2.0 * np.pi * (x - 0.5)


_SPEED_MAX = np.hypot(*rotation_velocity(0.0, 0.0))  # at a corner of the unit square


def rotating_shapes(x, y):
    """Classic three-body profile: notched disc, cosine hump, cone.

    Values lie in [0, 1]; the supports are disjoint discs of radius 0.15
    centred at (0.5, 0.75), (0.25, 0.5) and (0.5, 0.25).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    u = np.zeros(np.broadcast(x, y).shape)

    r2 = (x - 0.5) ** 2 + (y - 0.75) ** 2
    notch = (np.abs(x - 0.5) <= 0.025) & (y >= 0.6) & (y <= 0.85)
    u = np.where((r2 <= 0.15**2) & ~notch, 1.0, u)

    r = np.sqrt((x - 0.25) ** 2 + (y - 0.5) ** 2)
    u = np.where(r <= 0.15, 0.25 * (1.0 + np.cos(np.pi * np.minimum(r, 0.15) / 0.15)), u)

    r = np.sqrt((x - 0.5) ** 2 + (y - 0.25) ** 2)
    u = np.where(r <= 0.15, 1.0 - r / 0.15, u)
    return u


def transport_state(elements: int, p: int, profile=rotating_shapes) -> DGState:
    """Interpolate a profile onto the DG grid.

    Nodal interpolation at the tensor GLL points; with positive GLL
    weights the element means of the interpolant stay inside the range
    of the profile, so a single limiter pass afterwards is admissible.
    """
    ops = _operators(elements, p)
    xg = ops["xnodes"]  # (Ne, N) physical node coordinates per column
    X = xg[None, :, None, :]
    Y = xg[:, None, :, None]
    U = profile(X + 0.0 * Y, Y + 0.0 * X)
    return DGState(p=p, U=np.broadcast_to(U, (elements, elements, p + 1, p + 1)).copy())


# ---------------------------------------------------------------------------
# operators


@lru_cache(maxsize=16)
def _operators(elements: int, p: int):
    """Read-only operators of the Ne x Ne grid at order p.

    The residual is sum-factorised. Let V and V' hold the basis values
    and derivatives at the Gauss points, Minv the inverse 1D mass matrix
    and S = V^T diag(wq) V'. Because cx depends only on the element row
    and cy only on the column, the volume term of element (ey, ex) is

        A[ey] U B + C U D[ex],  A = (2/h) Minv V^T diag(wq cx_ey) V,  B = S Minv,
                                C = (2/h) Minv S^T,  D = V^T diag(wq cy_ex) V Minv.

    Kx and Ky hold the two terms as Kronecker products acting on the
    row-major flattened U, one (N^2, N^2) block per element row or
    column, so each term is one batched GEMM of Ne members; four N x N
    products per element would each be a batch of Ne^2 tiny GEMMs. The
    upwind flux through a face is [u on this side, u on the far side]
    times the upwind face masses times Minv, per row (Fx) or column (Fy).
    The rows of Eb lift it onto the element after the face and the one
    before it, a rank-one update each.
    """
    if elements < 1:
        raise ValueError(f"need at least one element per direction, got elements={elements}")
    basis = make_basis("lobatto-nodal", p)
    N = p + 1
    h = 1.0 / elements
    xq, wq = gauss_legendre_rule(p + 2)
    V = basis_matrix(basis, xq)  # (nq, N)
    Minv = np.linalg.inv(V.T @ (wq[:, None] * V))
    S = V.T @ (wq[:, None] * basis_deriv_matrix(basis, xq))

    # physical coordinates: columns of quadrature points and of GLL nodes
    cols = np.arange(elements)
    xquad = (cols[:, None] + (xq[None, :] + 1.0) / 2.0) * h  # (Ne, nq)
    xnodes = (cols[:, None] + (np.asarray(basis.nodes)[None, :] + 1.0) / 2.0) * h

    # velocity at the quadrature points of a row (cx) or column (cy)
    cx, cy = rotation_velocity(xquad, xquad)

    def mass(c):  # (Ne, nq) weights -> (Ne, N, N) V^T diag(wq c) V
        return np.einsum("qi,eq,qj->eij", V, wq * c, V)

    def kron(left, right):  # vec(left U right) = vec(U) @ kron(...), row-major
        return np.einsum("...ik,...lj->...klij", left, right).reshape(-1, N * N, N * N)

    def face(c):
        return np.concatenate([mass(np.maximum(c, 0.0)), mass(np.minimum(c, 0.0))], axis=1) @ Minv

    s = 2.0 / h
    g = wq @ V  # integrals of the basis functions over [-1, 1]
    ops = {
        "basis": basis,
        "N": N,
        "wq": wq,
        "V": V,
        "xquad": xquad,
        "xnodes": xnodes,
        "mean": np.kron(g, g) / 4.0,
        "Kx": kron(s * Minv @ mass(cx), S @ Minv),
        "Ky": kron(s * Minv @ S.T, mass(cy) @ Minv),
        "Fx": face(cx),
        "Fy": face(cy),
        "Eb": s * np.array([[1.0], [-1.0]]) * Minv[[0, N - 1]],
    }
    for v in ops.values():
        if isinstance(v, np.ndarray):
            v.setflags(write=False)
    return ops


def _rhs(U: np.ndarray, ops) -> np.ndarray:
    """Semi-discrete RHS of u_t = -div(c u) in weak form (see _operators).

    The upwind flux through every right (x) and top (y) face is computed
    once and lifted onto both of its elements, so the two sides cancel
    exactly. Each face's two traces are copied into one (Ne, Ne, 2N)
    buffer: the element's last node column, then its periodic
    neighbour's first, taken from U[:, 1:] with the wrap column U[:, 0]
    copied last. The lift operands [flux of the face before, flux of
    this face] fill one (2, Ne, Ne, N) buffer the same way. The y pass
    runs on views with both element axes and both node axes swapped.
    """
    Ne, N = U.shape[0], ops["N"]
    rows = U.reshape(Ne, Ne, N * N)  # swapaxes(0, 1) makes element columns
    R = np.empty(U.shape)  # each term's product, before it is added to out
    out = rows @ ops["Kx"]
    out += np.matmul(rows.swapaxes(0, 1), ops["Ky"], out=R.reshape(rows.shape)).swapaxes(0, 1)
    out = out.reshape(U.shape)
    trace, f, Q = np.empty((Ne, Ne, 2 * N)), np.empty((Ne, Ne, N)), np.empty((2, Ne, Ne, N))
    for F, y in ((ops["Fx"], False), (ops["Fy"], True)):
        V, T, q = (U.swapaxes(0, 1).swapaxes(2, 3), trace.swapaxes(0, 1),
                   Q.swapaxes(1, 2)) if y else (U, trace, Q)
        T[..., :N] = V[..., N - 1]
        T[:, :-1, N:] = V[:, 1:, :, 0]
        T[:, -1, N:] = V[:, 0, :, 0]
        np.matmul(T, F, out=f)
        q[1] = f
        q[0, :, 1:] = f[:, :-1]
        q[0, :, 0] = f[:, -1]
        np.matmul(Q.reshape(2, -1).T, ops["Eb"], out=R.reshape(-1, N))
        out += R.swapaxes(-1, -2) if y else R
    return out


# ---------------------------------------------------------------------------
# means and the squeeze limiter


def _mean_batch(U: np.ndarray, ops) -> np.ndarray:
    return U.reshape(U.shape[:2] + (-1,)) @ ops["mean"]


def squeeze_alpha(mean, u_min, u_max, a: float, b: float):
    """Blend factor toward the mean that brings [u_min, u_max] inside [a, b].

    Scalar or array inputs; alpha = 1 when the bounds already fit.  The
    mean must lie in [a, b] (it is preserved by the blend, so a mean
    outside the target interval cannot be repaired).
    """
    mean = np.asarray(mean, dtype=float)
    u_min = np.asarray(u_min, dtype=float)
    u_max = np.asarray(u_max, dtype=float)
    # a NaN mean fails both comparisons, so it counts as outside
    slack = _MEAN_TOL * (b - a)
    if not ((mean >= a - slack) & (mean <= b + slack)).all():
        outside = np.maximum(a - mean, mean - b)
        worst = np.unravel_index(np.argmax(outside), outside.shape)
        label = f"element {tuple(int(i) for i in worst)}" if worst else "element"
        raise ValueError(f"{label} mean {float(mean[worst])} lies outside [{a}, {b}]")
    # the ndarray methods, not np.clip and np.all: same ufuncs, less
    # per-call dispatch on the three calls of every RK step
    m = mean.clip(a, b)

    # a ratio counts only where a bound crosses: there u_min < a <= m (or
    # u_max > b >= m), so its denominator is never zero. Dividing
    # everywhere and picking with where is cheaper than a masked divide.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r_lo = np.where(u_min < a, (a - m) / (u_min - m), 1.0)
        r_hi = np.where(u_max > b, (b - m) / (u_max - m), 1.0)
    alpha = np.minimum(r_lo, r_hi, out=r_lo).clip(0.0, 1.0)
    if alpha.ndim == 0:
        return float(alpha)
    return alpha


def _limit_arrays(U: np.ndarray, table: BoundingTable, bounds, ops):
    table = _one_table(table, ops["basis"])
    a, b = bounds
    means = _mean_batch(U, ops)
    lower, upper = bound_nodes(U, table, 2)
    u_min, u_max = lower.min(axis=(-2, -1)), upper.max(axis=(-2, -1))
    del lower, upper  # freed before the blend allocates
    # min/max propagate NaN, and the sweeps keep lower <= upper node by
    # node, so any bound at +-inf or NaN shows in u_min or u_max
    finite = np.isfinite(means) & np.isfinite(u_min) & np.isfinite(u_max)
    if not finite.all():
        ey, ex = np.argwhere(~finite)[0]
        raise NonFiniteBoundsError(
            f"element ({ey}, {ex}): mean or node bounds not finite with the "
            f"M={table.nodes.M} table")
    alpha = squeeze_alpha(means, u_min, u_max, a, b)
    Unew = alpha[..., None, None] * U + (1.0 - alpha[..., None, None]) * means[..., None, None]
    return Unew, means, u_min, u_max, alpha


def apply_limiter(state: DGState, table: BoundingTable, bounds=(0.0, 1.0)) -> DGState:
    """Squeeze every element's node-bound range into the global interval."""
    ops = _operators(state.elements, state.p)
    Unew, _, _, _, _ = _limit_arrays(state.U, table, bounds, ops)
    return replace(state, U=Unew)


def limiter_decisions(state: DGState, table: BoundingTable, bounds=(0.0, 1.0)):
    """Per-element limiter diagnostics: the (Ne, Ne) arrays
    (mean, u_min, u_max, alpha) of one limiter pass over state."""
    ops = _operators(state.elements, state.p)
    return _limit_arrays(state.U, table, bounds, ops)[1:]


# ---------------------------------------------------------------------------
# time stepping


def cfl_dt(state: DGState) -> float:
    """Largest admissible step: 0.2/(2p+1) * h / max |c|."""
    return 0.2 / (2 * state.p + 1) * state.h / _SPEED_MAX


def dg_step(state: DGState, dt: float, table: BoundingTable | None = None,
            bounds=(0.0, 1.0)) -> DGState:
    """One SSP-RK3 step; the limiter runs after every stage when a table
    is supplied, so intermediate stages respect the bounds too. A limiter
    error names the RK stage and the time at the start of the step."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"need a finite, positive time step, got dt={dt}")
    if dt > cfl_dt(state) * (1.0 + 1e-12):
        raise ValueError(
            f"dt={dt} exceeds the CFL limit {cfl_dt(state)} for p={state.p}, "
            f"{state.elements}x{state.elements} elements"
        )
    ops = _operators(state.elements, state.p)

    def stage(k, U, w=None, base=None):
        # U + dt L(U), or base() + w (U + dt L(U)), formed in the residual's
        # own buffer; IEEE + and * commute, so each rounds as the SSP-RK3
        # stage U0 + dt L(U0), 0.75 U0 + 0.25 (U1 + dt L(U1)) or
        # U0 / 3 + 2/3 (U2 + dt L(U2)) does
        t = _rhs(U, ops)
        t *= dt
        t += U
        if w is not None:
            t *= w
            t += base()  # made after _rhs returns, never beside its temporaries
        if table is None:
            return t
        try:
            return _limit_arrays(t, table, bounds, ops)[0]
        except (ValueError, NonFiniteBoundsError) as exc:
            raise type(exc)(f"RK stage {k} of 3 at t={state.t}: {exc}") from exc

    U0 = state.U
    U1 = stage(1, U0)
    U2 = stage(2, U1, 0.25, lambda: 0.75 * U0)
    U3 = stage(3, U2, 2.0 / 3.0, lambda: U0 / 3.0)
    return replace(state, U=U3, t=state.t + dt)


def advance(state: DGState, tfinal: float, table: BoundingTable | None = None,
            bounds=(0.0, 1.0)) -> DGState:
    """March to state.t + tfinal with uniform steps at the CFL limit."""
    if not (np.isfinite(tfinal) and tfinal >= 0):
        raise ValueError(f"need a finite, non-negative end time, got tfinal={tfinal}")
    if tfinal == 0:
        return state
    n = max(1, int(np.ceil(tfinal / cfl_dt(state) - 1e-12)))
    dt = tfinal / n
    for _ in range(n):
        state = dg_step(state, dt, table, bounds)
    return state


# ---------------------------------------------------------------------------
# diagnostics


def total_mass(state: DGState) -> float:
    """Integral of u over the domain."""
    ops = _operators(state.elements, state.p)
    return float(_mean_batch(state.U, ops).sum()) * state.h**2


def sample_extrema(state: DGState, samples_per_dim: int = 32):
    """Min and max of the DG solution by the sampled_extrema oracle over
    every element, samples_per_dim grid points per axis before polishing."""
    N = state.p + 1
    lo, hi = sampled_extrema(state.U.reshape(-1, N, N), state.basis, 2, samples_per_dim)
    return float(lo.min()), float(hi.max())


def l2_error(state: DGState, exact) -> float:
    """L2 distance to a callable exact(x, y), by per-element quadrature."""
    ops = _operators(state.elements, state.p)
    V, wq = ops["V"], ops["wq"]
    xquad = ops["xquad"]  # (Ne, nq)
    uq = np.einsum("ai,bj,EFij->EFab", V, V, state.U, optimize=True)
    X = xquad[None, :, None, :]
    Y = xquad[:, None, :, None]
    diff = uq - exact(X + 0.0 * Y, Y + 0.0 * X)
    wab = wq[:, None] * wq[None, :]
    return float(np.sqrt(np.sum(wab * diff**2) * state.h**2 / 4.0))


# ---------------------------------------------------------------------------
# one-dimensional bound comparison for the step profile


def step_interpolation_table(orders=range(3, 8)):
    """Bound quality on GLL interpolants of the unit step, per order.

    Returns a dict with rows 'exact', 'bernstein', 'present' (each a list
    of (lower, upper) pairs) and 'reduction_pct' comparing the excess of
    the optimized bounds against the Bernstein excess.
    """
    rows = {"orders": list(orders), "exact": [], "bernstein": [],
            "present": [], "reduction_pct": []}
    for p in rows["orders"]:
        basis = make_basis("lobatto-nodal", p)
        nodes = np.asarray(basis.nodes)
        vals = np.where(nodes < 0.0, -0.5, 0.5)
        vals[np.abs(nodes) < 1e-14] = 0.0
        coeffs = PolyCoeffs(1, basis, vals)
        # first, so an order with no shipped table is refused before any work
        table = standard_table(basis.family, p, p + 1, kind="optimized")

        lo_e, hi_e = brute_force_extrema(coeffs, 10_000)
        lo_b, hi_b = bernstein_bounds(coeffs)
        nb_p = bound_tensor(coeffs, table)
        lo_p, hi_p = nb_p.global_min(), nb_p.global_max()

        rows["exact"].append((lo_e, hi_e))
        rows["bernstein"].append((lo_b, hi_b))
        rows["present"].append((lo_p, hi_p))
        excess_b = (hi_b - hi_e) + (lo_e - lo_b)
        excess_p = (hi_p - hi_e) + (lo_e - lo_p)
        rows["reduction_pct"].append(100.0 * (excess_p / excess_b - 1.0))
    return rows
