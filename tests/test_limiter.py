import pickle
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybound.basis import basis_deriv_matrix, basis_matrix, gauss_legendre_rule, make_basis
from polybound.boxopt import standard_table
from polybound.bounder import NonFiniteBoundsError
from polybound.limiter import (
    DGState,
    advance,
    apply_limiter,
    cfl_dt,
    dg_step,
    l2_error,
    limiter_decisions,
    rotating_shapes,
    rotation_velocity,
    sample_extrema,
    squeeze_alpha,
    step_interpolation_table,
    total_mass,
    transport_state,
)
from polybound.limiter import _limit_arrays, _mean_batch, _operators, _rhs


def table_for(p):
    return standard_table("lobatto-nodal", p, p + 2)


# -- squeeze_alpha ----------------------------------------------------------


def test_alpha_one_when_bounds_fit():
    assert squeeze_alpha(0.5, 0.1, 0.9, 0.0, 1.0) == 1.0


def test_alpha_half_upper_violation():
    # mean 0.5, upper bound reaches 1.5, target top 1: squeeze to half
    assert squeeze_alpha(0.5, 0.4, 1.5, 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_alpha_lower_ratio_one_at_exact_touch():
    # u_min equal to a gives lower ratio exactly 1; the upper term governs
    a = squeeze_alpha(0.5, 0.0, 2.0, 0.0, 1.0)
    assert a == pytest.approx((1.0 - 0.5) / (2.0 - 0.5), abs=1e-15)


def test_alpha_flat_element_guarded():
    assert squeeze_alpha(0.3, 0.3, 0.3, 0.0, 1.0) == 1.0


def test_alpha_mean_outside_raises():
    with pytest.raises(ValueError, match=r"element mean 1\.5 lies outside"):
        squeeze_alpha(1.5, 0.0, 2.0, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"mean -0\.2 lies"):
        squeeze_alpha(-0.2, -0.5, 0.5, 0.0, 1.0)
    # the worst of several offending means is named by its element index
    mean = np.array([[0.5, 1.0 + 1e-3], [-0.4, 0.2]])
    with pytest.raises(ValueError, match=r"element \(1, 0\) mean -0\.4 lies outside"):
        squeeze_alpha(mean, mean - 0.1, mean + 0.1, 0.0, 1.0)
    # a NaN mean lies in no interval
    with pytest.raises(ValueError, match=r"element \(0, 1\) mean nan lies outside"):
        squeeze_alpha(np.array([[0.5, np.nan]]), 0.0, 1.0, 0.0, 1.0)


def test_alpha_zero_at_mean_on_boundary():
    # mean sits exactly on a with violation below: only the flat blend works
    assert squeeze_alpha(0.0, -0.4, 0.5, 0.0, 1.0) == 0.0


@given(
    mean=st.floats(0.0, 1.0),
    d_lo=st.floats(0.0, 10.0),
    d_hi=st.floats(0.0, 10.0),
)
@settings(max_examples=200, deadline=None)
def test_alpha_always_unit_interval(mean, d_lo, d_hi):
    a = squeeze_alpha(mean, mean - d_lo, mean + d_hi, 0.0, 1.0)
    assert 0.0 <= a <= 1.0


@given(
    mean=st.floats(0.2, 0.8),
    d_lo=st.floats(0.0, 5.0),
    d_hi=st.floats(0.0, 5.0),
    widen=st.floats(0.0, 3.0),
)
@settings(max_examples=200, deadline=None)
def test_alpha_monotone_in_interval(mean, d_lo, d_hi, widen):
    tight = squeeze_alpha(mean, mean - d_lo, mean + d_hi, 0.0, 1.0)
    loose = squeeze_alpha(mean, mean - d_lo, mean + d_hi, -widen, 1.0 + widen)
    assert loose >= tight - 1e-15


def test_alpha_array_input():
    mean = np.array([0.5, 0.5, 0.2])
    u_min = np.array([0.4, -1.0, 0.2])
    u_max = np.array([1.5, 0.6, 0.2])
    out = squeeze_alpha(mean, u_min, u_max, 0.0, 1.0)
    np.testing.assert_allclose(out, [0.5, 1.0 / 3.0, 1.0], atol=1e-14)


def test_alpha_is_bit_identical_under_power_of_two_scaling():
    # scaling by 2^k is exact, so the squeeze must not see the units: the
    # mean 0.5, range [-0.1, 0.9] in [0, 1] case squeezes at every scale
    rng = np.random.default_rng(12)
    mean = rng.uniform(0.0, 1.0, 200)
    u_min, u_max = mean - rng.uniform(0.0, 1.0, 200), mean + rng.uniform(0.0, 1.0, 200)
    mean[0], u_min[0], u_max[0] = 0.5, -0.1, 0.9
    ref = squeeze_alpha(mean, u_min, u_max, 0.0, 1.0)
    assert ref[0] == pytest.approx(5.0 / 6.0, rel=1e-15) and (ref < 1.0).sum() > 100
    for k in range(-60, 61):
        s = 2.0**k
        alpha = squeeze_alpha(s * mean, s * u_min, s * u_max, 0.0, s)
        assert np.array_equal(alpha, ref), k


def _squeeze_alpha_reference(mean, u_min, u_max, a, b):
    """squeeze_alpha's ratios as np.where over np.clip, without its
    mean check: the formula the faster path must reproduce bit for bit."""
    mean, u_min, u_max = (np.asarray(v, dtype=float) for v in (mean, u_min, u_max))
    m = np.clip(mean, a, b)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r_lo = np.where(u_min < a, (a - m) / (u_min - m), 1.0)
        r_hi = np.where(u_max > b, (b - m) / (u_max - m), 1.0)
    alpha = np.clip(np.minimum(r_lo, r_hi), 0.0, 1.0)
    return float(alpha) if alpha.ndim == 0 else alpha


def _same_bits(x, y):
    # array_equal would let -0.0 stand for 0.0
    return type(x) is type(y) and np.asarray(x).tobytes() == np.asarray(y).tobytes()


def test_alpha_matches_the_where_formula_bit_for_bit():
    # a rotation state's limiter inputs, as the rotation run squeezes them
    mean, u_min, u_max, _ = limiter_decisions(transport_state(32, 3),
                                              standard_table("lobatto-nodal", 3, 4))
    assert (u_min < 0.0).sum() > 100 and (u_max > 1.0).sum() > 10
    for a, b in ((0.0, 1.0), (-0.25, 1.5), (0.1, 0.9)):
        m = np.clip(mean, a, b)  # every mean inside [a, b]
        args = (m, u_min, u_max, a, b)
        assert _same_bits(squeeze_alpha(*args), _squeeze_alpha_reference(*args))
    # bounds exactly at a or b, means at a or b (also -0.0 on a = 0), scalars
    edges = [(0.5, 0.0, 1.0), (0.0, 0.0, 0.5), (1.0, 0.5, 1.0), (0.0, -0.5, 0.5),
             (1.0, 0.5, 1.5), (0.0, -0.5, 1.5), (1.0, -0.5, 1.5), (-0.0, -0.5, 0.5),
             (-0.0, -0.0, 0.0), (0.5, -0.0, 1.0), (0.5, 0.5, 0.5), (0.25, -1.0, 2.0)]
    for args in edges:
        assert _same_bits(squeeze_alpha(*args, 0.0, 1.0),
                          _squeeze_alpha_reference(*args, 0.0, 1.0)), args
    mean, u_min, u_max = np.array(edges).T
    for shape in ((12,), (3, 4), (2, 3, 2)):
        args = (mean.reshape(shape), u_min.reshape(shape), u_max.reshape(shape), 0.0, 1.0)
        assert _same_bits(squeeze_alpha(*args), _squeeze_alpha_reference(*args))


def test_mean_slack_scales_with_the_bounds():
    # a mean may lie up to 1e-12 (b - a) outside [a, b]; scaling by 2^k is
    # exact, so acceptance and alphas must not see the units
    a, b = 1.0, 3.0
    slack = 1e-12 * (b - a)
    mean = np.array([a - 0.5 * slack, b + 0.9 * slack, 2.0, 2.5])
    u_min, u_max = mean - np.array([0.5, 0.0, 1.5, 0.1]), mean + np.array([0.0, 0.5, 1.5, 0.1])
    ref = squeeze_alpha(mean, u_min, u_max, a, b)
    assert ref[0] == ref[1] == 0.0 and 0.0 < ref[2] < 1.0 and ref[3] == 1.0
    for k in range(-60, 61):
        s = 2.0**k
        assert np.array_equal(squeeze_alpha(s * mean, s * u_min, s * u_max, s * a, s * b), ref), k
        for m in (a - 2 * slack, b + 1.5 * slack):
            with pytest.raises(ValueError, match="lies outside"):
                squeeze_alpha(s * m, s * (m - 1), s * (m + 1), s * a, s * b)


# -- element means ----------------------------------------------------------


def _element_mean(u):
    """The limiter's mean of one element, from a one-element DG state."""
    state = DGState(p=len(u) - 1, U=np.reshape(u, (1, 1) + np.shape(u)))
    return float(_mean_batch(state.U, _operators(1, state.p))[0, 0])


def test_element_mean_constant_and_linear():
    nodes = np.asarray(make_basis("lobatto-nodal", 3).nodes)
    assert _element_mean(np.full((4, 4), 0.7)) == pytest.approx(0.7, abs=1e-14)
    for lin in (np.tile(nodes, (4, 1)), np.tile(nodes[:, None], (1, 4))):
        assert _element_mean(lin) == pytest.approx(0.0, abs=1e-14)


def test_element_mean_monte_carlo():
    rng = np.random.default_rng(11)
    b = make_basis("lobatto-nodal", 3)
    u = rng.normal(size=(4, 4))
    n = 1_000_000
    x, y = rng.uniform(-1.0, 1.0, size=(2, n))
    vals = np.einsum("ni,ij,nj->n", basis_matrix(b, y), u, basis_matrix(b, x))
    mc = vals.mean()
    sigma = vals.std() / np.sqrt(n)
    assert abs(_element_mean(u) - mc) < 3 * sigma


# -- DG residual ------------------------------------------------------------


def _quadrature_rhs(U, p):
    """The weak-form residual written out at the Gauss points.

    Volume: V^T (w c_x u) D' + D'^T (w c_y u) V on the tensor quadrature
    grid. Faces: upwind flux at the face quadrature points, weighted by
    the trace basis, once per face. Then (2/h) Minv R Minv.
    """
    Ne, N = U.shape[0], p + 1
    h = 1.0 / Ne
    basis = make_basis("lobatto-nodal", p)
    xq, wq = gauss_legendre_rule(p + 2)
    V, D = basis_matrix(basis, xq), basis_deriv_matrix(basis, xq)
    Minv = np.linalg.inv(V.T @ (wq[:, None] * V))
    xquad = (np.arange(Ne)[:, None] + (xq + 1.0) / 2.0) * h
    cx, cy = -2.0 * np.pi * (xquad - 0.5), 2.0 * np.pi * (xquad - 0.5)
    wab = np.outer(wq, wq)
    uq = np.einsum("ai,bj,yxij->yxab", V, V, U)
    R = (np.einsum("ai,yxab,bj->yxij", V, wab * cx[:, None, :, None] * uq, D)
         + np.einsum("ai,yxab,bj->yxij", D, wab * cy[None, :, None, :] * uq, V))
    trace = lambda u: u @ V.T  # face values at the quadrature points
    FR = (np.maximum(cx, 0)[:, None] * trace(U[..., N - 1])
          + np.minimum(cx, 0)[:, None] * trace(np.roll(U[..., 0], -1, axis=1)))
    FT = (np.maximum(cy, 0)[None] * trace(U[..., N - 1, :])
          + np.minimum(cy, 0)[None] * trace(np.roll(U[..., 0, :], -1, axis=0)))
    wV = wq[:, None] * V
    R[..., :, N - 1] -= FR @ wV
    R[..., :, 0] += np.roll(FR, 1, axis=1) @ wV
    R[..., N - 1, :] -= FT @ wV
    R[..., 0, :] += np.roll(FT, 1, axis=0) @ wV
    return 2.0 / h * Minv @ R @ Minv


@pytest.mark.parametrize("Ne", [3, 4])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_factored_rhs_matches_quadrature_form(Ne, p):
    rng = np.random.default_rng(10 * Ne + p)
    U = rng.uniform(-1.0, 1.0, size=(Ne, Ne, p + 1, p + 1))
    ops = _operators(Ne, p)
    got, ref = _rhs(U, ops), _quadrature_rhs(U, p)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    # a constant state is steady: the velocity field is divergence-free
    assert np.abs(_rhs(np.full_like(U, 0.3), ops)).max() <= 1e-13 * np.abs(ref).max()
    # the face fluxes cancel pairwise and the volume term has zero mean
    xq, wq = gauss_legendre_rule(p + 2)
    g = wq @ basis_matrix(make_basis("lobatto-nodal", p), xq)
    mass = np.einsum("i,yxij,j->", g, got, g)
    assert abs(mass) <= 1e-14 * np.einsum("i,yxij,j->", g, np.abs(got), g)


# -- apply_limiter ----------------------------------------------------------


def test_limiter_noop_is_bitwise():
    # smooth low-amplitude data violates nothing, alpha is exactly 1
    state = transport_state(4, 3, profile=lambda x, y: 0.5 + 0.1 * np.sin(2 * np.pi * x))
    out = apply_limiter(state, table_for(3))
    assert np.array_equal(out.U, state.U)


def test_limiter_zero_alpha_flattens():
    # odd element data with mean exactly on the lower bound
    p = 2
    b = make_basis("lobatto-nodal", p)
    nodes = np.asarray(b.nodes)
    U = np.zeros((1, 1, p + 1, p + 1))
    U[0, 0] = nodes[None, :] + 0.0 * nodes[:, None]  # u = x, mean 0
    state = DGState(p=p, U=U)
    out = apply_limiter(state, table_for(p), bounds=(0.0, 1.0))
    np.testing.assert_allclose(out.U, 0.0, atol=1e-15)


def test_limiter_preserves_means_and_mass():
    state = transport_state(8, 3)
    out = apply_limiter(state, table_for(3))
    ops = _operators(8, 3)
    np.testing.assert_allclose(
        _mean_batch(out.U, ops), _mean_batch(state.U, ops), atol=1e-13, rtol=0
    )
    assert total_mass(out) == pytest.approx(total_mass(state), rel=1e-13)
    assert not np.array_equal(out.U, state.U)  # the notch does get limited


def test_limiter_certifies_bounds():
    from polybound.bounder import bound_nodes

    state = transport_state(8, 3)
    table = table_for(3)
    out = apply_limiter(state, table)
    lower, upper = bound_nodes(out.U, table, 2)
    assert lower.min() >= -1e-12
    assert upper.max() <= 1.0 + 1e-12
    # and the certificate is honest: dense sampling stays inside too
    smin, smax = sample_extrema(out, 23)
    assert smin >= -1e-12 and smax <= 1.0 + 1e-12


def test_limiter_idempotent():
    # re-bounding the blend can undershoot a by roundoff, so the second
    # pass may still nudge by ~1 ulp of the coefficient scale; no more
    state = transport_state(6, 3)
    table = table_for(3)
    once = apply_limiter(state, table)
    twice = apply_limiter(once, table)
    np.testing.assert_allclose(twice.U, once.U, atol=1e-13, rtol=0)
    alpha = limiter_decisions(once, table)[3]
    assert alpha.min() >= 1.0 - 1e-12


def test_step_data_single_pass():
    def step(x, y):
        return np.where(x > 0.55, 0.5, -0.5) + 0.0 * y

    state = transport_state(8, 3, profile=step)
    raw_min, raw_max = sample_extrema(state, 32)
    assert raw_max > 0.5 + 1e-3 and raw_min < -0.5 - 1e-3  # interpolant overshoots
    out = apply_limiter(state, table_for(3), bounds=(-0.5, 0.5))
    smin, smax = sample_extrema(out, 32)
    assert smin >= -0.5 - 1e-12
    assert smax <= 0.5 + 1e-12


def test_limiter_decisions_fields():
    state = transport_state(6, 3)
    mean, u_min, u_max, alpha = limiter_decisions(state, table_for(3))
    for a in (mean, u_min, u_max, alpha):
        assert a.shape == (6, 6)
    assert np.all((alpha >= 0.0) & (alpha <= 1.0))
    assert (alpha < 1.0).any()
    assert np.all((u_min <= mean) & (mean <= u_max))


# -- time stepping ----------------------------------------------------------

def test_steps_in_two_threads_match_sequential_steps():
    # both threads step with one table: they share its operands, each with its own scratch
    table = table_for(3)
    state = apply_limiter(transport_state(32, 3), table)
    dt = cfl_dt(state)

    def run(out, k):
        s = state
        for _ in range(5):
            s = dg_step(s, dt, table)
            out[k].append(s.U)

    expected = {0: []}
    run(expected, 0)
    got = {0: [], 1: []}
    threads = [threading.Thread(target=run, args=(got, k)) for k in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, in the middle of a sweep too
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k in (0, 1):
        assert len(got[k]) == 5
        assert all(np.array_equal(a, b) for a, b in zip(got[k], expected[0]))


def _rhs_reference(U, ops):
    """The residual with its traces joined by np.concatenate and np.roll,
    its lift operands by np.stack and the y lift added into a transposed
    view: the form the buffered _rhs must reproduce bit for bit."""
    Ne, N = U.shape[0], ops["N"]
    rows = U.reshape(Ne, Ne, N * N)
    out = rows @ ops["Kx"]
    out += (rows.swapaxes(0, 1) @ ops["Ky"]).swapaxes(0, 1)
    out = out.reshape(U.shape)
    fx = np.concatenate([U[..., N - 1], np.roll(U[..., 0], -1, axis=1)], axis=-1) @ ops["Fx"]
    fy = np.concatenate([U[..., N - 1, :], np.roll(U[..., 0, :], -1, axis=0)], axis=-1)
    fy = (fy.swapaxes(0, 1) @ ops["Fy"]).swapaxes(0, 1)
    for f, axis, lift in ((fx, 1, out), (fy, 0, out.swapaxes(-1, -2))):
        Q = np.stack([np.roll(f, 1, axis=axis), f]).reshape(2, -1)
        lift += (Q.T @ ops["Eb"]).reshape(U.shape)
    return out


def _dg_step_reference(U0, dt, ops, table=None):
    """SSP-RK3 written out with a fresh array per operation."""
    def limit(U):
        return U if table is None else _limit_arrays(U, table, (0.0, 1.0), ops)[0]

    U1 = limit(U0 + dt * _rhs_reference(U0, ops))
    U2 = limit(0.75 * U0 + 0.25 * (U1 + dt * _rhs_reference(U1, ops)))
    return limit(U0 / 3.0 + 2.0 / 3.0 * (U2 + dt * _rhs_reference(U2, ops)))


def test_rhs_and_dg_step_keep_their_bits():
    rng = np.random.default_rng(27)
    for Ne in (1, 2, 3, 32):
        for p in (1, 2, 3, 4, 6):
            U = rng.standard_normal((Ne, Ne, p + 1, p + 1))
            ops = _operators(Ne, p)
            assert _rhs(U, ops).tobytes() == _rhs_reference(U, ops).tobytes(), (Ne, p)
            dt = cfl_dt(DGState(p=p, U=U))
            assert dg_step(DGState(p=p, U=U), dt).U.tobytes() \
                == _dg_step_reference(U, dt, ops).tobytes(), (Ne, p)
    # the rotation benchmark's state, limited after every stage
    table = standard_table("lobatto-nodal", 3, 4)
    state = apply_limiter(transport_state(32, 3), table)
    dt, ops, U = cfl_dt(state), _operators(32, 3), state.U
    for _ in range(100):
        state = dg_step(state, dt, table)
        U = _dg_step_reference(U, dt, ops, table)
    assert state.U.tobytes() == U.tobytes()


def test_warm_dg_step_allocation_budget():
    # the rotation benchmark's step; 900 KiB is the traced peak of a warm
    # step that formed every RK stage from fresh temporaries
    table = standard_table("lobatto-nodal", 3, 4)
    state = apply_limiter(transport_state(32, 3), table)
    dt = cfl_dt(state)
    dg_step(state, dt, table)
    tracemalloc.start()
    try:
        dg_step(state, dt, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 900 * 1024


def test_warm_limiter_pass_allocation_budget():
    # the rotation benchmark's state and table; a warm scratch leaves only
    # the (Ne, Ne) diagnostics and the blended state to allocate
    table = standard_table("lobatto-nodal", 3, 4)
    state = apply_limiter(transport_state(32, 3), table)
    ops = _operators(32, 3)
    _limit_arrays(state.U, table, (0.0, 1.0), ops)
    tracemalloc.start()
    try:
        _limit_arrays(state.U, table, (0.0, 1.0), ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024


def test_velocity_field():
    cx, cy = rotation_velocity(0.5, 0.5)
    assert cx == 0.0 and cy == 0.0
    cx, cy = rotation_velocity(1.0, 0.5)  # radius 1/2, one rev per unit time
    assert cx == pytest.approx(0.0) and cy == pytest.approx(np.pi)


def test_cfl_guard():
    state = transport_state(4, 2)
    with pytest.raises(ValueError):
        dg_step(state, 1.01 * cfl_dt(state))


@pytest.mark.parametrize("dt", [float("nan"), -0.01, 0.0, float("-inf")])
def test_dg_step_refuses_a_step_that_is_not_finite_and_positive(dt):
    with pytest.raises(ValueError, match=f"dt={dt}"):
        dg_step(transport_state(4, 2), dt)


def test_dg_step_names_stage_and_time_when_mean_leaves_bounds():
    state = DGState(p=2, U=np.full((4, 4, 3, 3), 1.2), t=0.25)
    message = r"^RK stage 1 of 3 at t=0\.25: element \(\d, \d\) mean 1\.\d+ lies outside"
    with pytest.raises(ValueError, match=message):
        dg_step(state, cfl_dt(state), table_for(2))


def _nan_state():
    U = transport_state(4, 3).U.copy()
    U[1, 2, 1, 1] = np.nan
    return DGState(p=3, U=U, t=0.5)


def test_limiter_refuses_non_finite_element():
    with pytest.raises(NonFiniteBoundsError, match=r"^element \(1, 2\): mean or node bounds"):
        apply_limiter(_nan_state(), table_for(3))


def test_dg_step_names_stage_when_bounds_not_finite():
    state = _nan_state()
    message = r"^RK stage 1 of 3 at t=0\.5: element \(1, 2\): mean or node bounds not finite"
    with pytest.raises(NonFiniteBoundsError, match=message):
        dg_step(state, cfl_dt(state), table_for(3))


def test_constant_preserved_100_steps():
    state = transport_state(4, 2, profile=lambda x, y: 0.7 + 0.0 * x * y)
    dt = cfl_dt(state)
    table = table_for(2)
    for _ in range(100):
        state = dg_step(state, dt, table)
    np.testing.assert_allclose(state.U, 0.7, atol=1e-13, rtol=0)


def test_mass_conserved_with_limiter():
    state = transport_state(8, 3)
    state = apply_limiter(state, table_for(3))
    m0 = total_mass(state)
    out = advance(state, 20 * cfl_dt(state), table_for(3))
    assert abs(total_mass(out) - m0) <= 1e-12 * abs(m0)


def test_bounds_hold_every_step():
    state = apply_limiter(transport_state(8, 3), table_for(3))
    # the steps advance(state, 15 * cfl_dt(state), ...) takes
    dt = 15 * cfl_dt(state) / 15
    for _ in range(15):
        state = dg_step(state, dt, table_for(3))
        smin, smax = sample_extrema(state, 15)
        assert smin >= -1e-12
        assert smax <= 1.0 + 1e-12


def test_unlimited_run_violates_bounds():
    # sanity check that the limiter is doing the work in the test above
    state = apply_limiter(transport_state(8, 3), table_for(3))
    out = advance(state, 15 * cfl_dt(state), table=None)
    smin, smax = sample_extrema(out, 15)
    assert smin < -1e-12 or smax > 1.0 + 1e-12


def test_advance_zero_time_is_a_no_op_and_negative_time_raises():
    state = transport_state(2, 2)
    assert advance(state, 0.0) is state
    with pytest.raises(ValueError, match=r"non-negative end time, got tfinal=-0\.001"):
        advance(state, -1e-3)


def test_smooth_self_convergence():
    def hump(x, y):
        r = np.sqrt((x - 0.25) ** 2 + (y - 0.5) ** 2)
        return np.where(r <= 0.15, 0.25 * (1.0 + np.cos(np.pi * np.minimum(r, 0.15) / 0.15)), 0.0)

    tfinal = 0.1

    def exact(x, y):
        th = -2.0 * np.pi * tfinal
        xr = 0.5 + np.cos(th) * (x - 0.5) - np.sin(th) * (y - 0.5)
        yr = 0.5 + np.sin(th) * (x - 0.5) + np.cos(th) * (y - 0.5)
        return hump(xr, yr)

    errs = []
    for ne in (4, 8, 16):
        out = advance(transport_state(ne, 3, profile=hump), tfinal)
        errs.append(l2_error(out, exact))
    assert errs[1] < errs[0] / 2
    assert errs[2] < errs[1] / 2


def test_l2_error_exact_for_polynomial_data():
    state = transport_state(4, 3, profile=lambda x, y: x + 0.0 * y)
    assert l2_error(state, lambda x, y: x + 0.0 * y) < 1e-13


def test_time_advances():
    state = transport_state(4, 2)
    out = advance(state, 3 * cfl_dt(state))
    assert out.t == pytest.approx(3 * cfl_dt(state))


def test_dgstate_validation():
    with pytest.raises(ValueError):
        DGState(p=2, U=np.zeros((2, 2, 4, 4)))  # wrong N for p=2
    state = transport_state(4, 2)
    assert state.h == 0.25
    twin = pickle.loads(pickle.dumps(state))
    assert (twin.p, twin.t) == (state.p, state.t) and np.array_equal(twin.U, state.U)


# -- step interpolation table ----------------------------------------------


def test_step_table_rows():
    rows = step_interpolation_table(orders=range(3, 6))
    assert rows["orders"] == [3, 4, 5]
    for k in range(3):
        ex_lo, ex_hi = rows["exact"][k]
        b_lo, b_hi = rows["bernstein"][k]
        p_lo, p_hi = rows["present"][k]
        assert b_lo <= p_lo <= ex_lo < 0 < ex_hi <= p_hi <= b_hi
        assert max(-p_lo, p_hi) < max(-b_lo, b_hi)
        assert rows["reduction_pct"][k] < -60.0
    assert rows["reduction_pct"][2] < -95.0  # odd orders overshoot hardest
    assert rows["exact"][0][1] == pytest.approx(0.6286, abs=5e-5)
