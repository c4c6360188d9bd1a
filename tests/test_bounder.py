import copy
import gc
import math
import pickle
import weakref
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import chebyshev as cheb

from polybound import bounder, limiter, meshcheck
from polybound.basis import (FAMILIES, FormatError, _bary_weights, _transform_matrix, basis_matrix,
                             change_basis, cheb_coeffs, gauss_legendre_nodes, gauss_legendre_rule,
                             gauss_lobatto_nodes, linear_coeffs, make_basis, make_node_set)
from polybound.boxopt import _data_dir, load_table, optimize_values, standard_table
from polybound.bounder import (
    PolyCoeffs,
    bernstein_bounds,
    bound_adaptive,
    bound_nodes,
    bound_tensor,
    brute_force_extrema,
    eval_on_grid,
    read_coeffs,
    sampled_extrema,
    subdivide,
    write_coeffs,
)

B3 = make_basis("lobatto-nodal", 3)


@pytest.fixture(scope="module")
def t34():
    return standard_table("lobatto-nodal", 3, 4)


@pytest.fixture(scope="module")
def t35():
    return standard_table("lobatto-nodal", 3, 5)


def _rand_coeffs(dim, seed, p=3, family="lobatto-nodal"):
    rng = np.random.default_rng(seed)
    basis = make_basis(family, p)
    return PolyCoeffs(dim, basis, rng.standard_normal((p + 1,) * dim))


def test_project_p1_orthogonality():
    # the fluctuation operator P that _sweep_ops builds W from
    _, _, P = bounder._p1_ops(B3)
    xg, wg = gauss_legendre_rule(6)
    for seed in range(30):
        fluct = PolyCoeffs(1, B3, _rand_coeffs(1, seed).u @ P)
        vals = eval_on_grid(fluct, [xg])
        assert abs(wg @ vals) < 1e-12
        assert abs(wg @ (xg * vals)) < 1e-12


def test_project_p1_exact_on_linears():
    w0, w1, P = bounder._p1_ops(B3)
    u = np.asarray(B3.nodes) * 2.0 - 0.5
    assert abs(u @ w0 + 0.5) < 1e-13 and abs(u @ w1 - 2.0) < 1e-13
    assert np.abs(u @ P).max() < 1e-13


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_bound_1d_sound_and_shift_scale_invariant(seed):
    table = standard_table("lobatto-nodal", 3, 4)
    c = _rand_coeffs(1, seed)
    nb = bound_tensor(c, table)
    x = np.linspace(-1, 1, 2000)
    vals = eval_on_grid(c, [x])
    assert nb.global_min() <= vals.min() + 1e-12
    assert nb.global_max() >= vals.max() - 1e-12

    # bounds commute with affine changes of the polynomial values
    alpha, beta = 1.7, -2.3
    nb2 = bound_tensor(PolyCoeffs(1, c.basis, alpha * c.u + beta), table)
    np.testing.assert_allclose(nb2.lower, alpha * nb.lower + beta, atol=1e-10)
    np.testing.assert_allclose(nb2.upper, alpha * nb.upper + beta, atol=1e-10)
    np.testing.assert_allclose(nb2.upper - nb2.lower, alpha * (nb.upper - nb.lower), atol=1e-10)


def test_negative_scale_swaps_roles(t34):
    c = _rand_coeffs(1, 7)
    nb = bound_tensor(c, t34)
    nb2 = bound_tensor(PolyCoeffs(1, c.basis, -c.u), t34)
    np.testing.assert_allclose(nb2.lower, -nb.upper, atol=1e-12)
    np.testing.assert_allclose(nb2.upper, -nb.lower, atol=1e-12)


def test_linear_polynomials_get_tight_bounds(t34):
    # a purely linear polynomial has zero fluctuation: gap stays at the
    # epsilon floor, at most 2 N epsilon
    u = 0.75 - 0.4 * np.asarray(B3.nodes)
    nb = bound_tensor(PolyCoeffs(1, B3, u), t34)
    assert (nb.upper - nb.lower).max() <= 2 * B3.N * t34.epsilon + 1e-12


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_bound_tensor_2d_sound(seed):
    table = standard_table("lobatto-nodal", 3, 5)
    c = _rand_coeffs(2, seed)
    nb = bound_tensor(c, table)
    x = np.linspace(-1, 1, 120)
    vals = eval_on_grid(c, [x, x])
    assert nb.global_min() <= vals.min() + 1e-12
    assert nb.global_max() >= vals.max() - 1e-12


def test_bound_tensor_3d_sound_and_cost(t34, monkeypatch):
    N, M = 4, 4
    budget = N**3 * M + N * M**3
    ops = []

    def counted(kernel):
        def run(basis, rows, *rest):
            ops.append(rows.shape[0] * N * M)
            return kernel(basis, rows, *rest)
        return run

    monkeypatch.setattr(bounder, "_bound_rows", counted(bounder._bound_rows))
    monkeypatch.setattr(bounder, "_bound_interval_rows",
                        counted(bounder._bound_interval_rows))
    for seed in range(4):
        c = _rand_coeffs(3, seed)
        ops.clear()
        nb = bound_tensor(c, t34)
        x = np.linspace(-1, 1, 40)
        vals = eval_on_grid(c, [x, x, x])
        assert nb.global_min() <= vals.min() + 1e-12
        assert nb.global_max() >= vals.max() - 1e-12
        assert len(ops) == 3 and sum(ops) <= 3 * budget


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_bound_nodes_stack_matches_single_polynomials(dim, t35):
    rng = np.random.default_rng(40 + dim)
    U = 3.0 * rng.standard_normal((2, 5) + (4,) * dim)
    lower, upper = bound_nodes(U, t35, dim)
    assert lower.shape == upper.shape == (2, 5) + (5,) * dim
    scale = np.abs(U).max()
    for idx in np.ndindex(2, 5):
        nb = bound_tensor(PolyCoeffs(dim, B3, U[idx]), t35)
        np.testing.assert_allclose(lower[idx], nb.lower, rtol=0, atol=1e-14 * scale)
        np.testing.assert_allclose(upper[idx], nb.upper, rtol=0, atol=1e-14 * scale)


def _assert_matches_single_polynomials(U, lower, upper, table, dim, name):
    lead = U.shape[:U.ndim - dim]
    assert lower.shape == upper.shape == lead + (table.nodes.M,) * dim, name
    scale = np.abs(U).max(initial=1.0)
    for idx in np.ndindex(*lead):
        nb = bound_tensor(PolyCoeffs(dim, table.basis, U[idx]), table)
        np.testing.assert_allclose(lower[idx], nb.lower, rtol=0, atol=1e-14 * scale, err_msg=name)
        np.testing.assert_allclose(upper[idx], nb.upper, rtol=0, atol=1e-14 * scale, err_msg=name)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_bound_nodes_layout_contract(dim, t35):
    rng = np.random.default_rng(70 + dim)
    U = 3.0 * rng.standard_normal((3, 4) + (4,) * dim)
    stacks = {
        "reversed": U[:, ::-1],
        "fortran": np.asfortranarray(U),
        "strided": U[::2, :, ..., ::-1],
        "single": U[1, 2],
        "empty": np.zeros((0,) + (4,) * dim),
        "empty lead": np.zeros((2, 0) + (4,) * dim),
    }
    for name, V in stacks.items():
        lower, upper = bound_nodes(V, t35, dim)
        _assert_matches_single_polynomials(V, lower, upper, t35, dim, name)


def test_reused_scratch_matches_fresh_scratch(t35):
    # one warm table over dims 1-3 and over stacks that grow, then shrink,
    # against a copy whose scratch starts empty
    rng = np.random.default_rng(90)
    for dim, cells in [(2, 3), (2, 60), (1, 500), (3, 40), (3, 2), (2, 0), (1, 7), (2, 60)]:
        U = 3.0 * rng.standard_normal((cells,) + (4,) * dim)
        lower, upper = bound_nodes(U, t35, dim)
        fresh = bound_nodes(U, copy.deepcopy(t35), dim)
        assert np.array_equal(lower, fresh[0]) and np.array_equal(upper, fresh[1]), (dim, cells)


def _blocks_of(table, dim, cells, monkeypatch):
    """Shrink _BLOCK_BYTES to `cells` cells a block of table in dim-D and
    return the list that the cell count of each block bounded goes to."""
    N, M = table.basis.N, table.nodes.M
    cell_bytes = 8 * (2 * N + 5 * M) * max(N, M) ** (dim - 1)
    monkeypatch.setattr(bounder, "_BLOCK_BYTES", cells * cell_bytes)
    sizes, block = [], bounder._bound_block

    def counted(U, *rest):
        sizes.append(len(U))
        return block(U, *rest)

    monkeypatch.setattr(bounder, "_bound_block", counted)
    return sizes


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_blocked_stacks_match_one_block(dim, t35, monkeypatch):
    rng = np.random.default_rng(80 + dim)
    stacks = {
        "cells": 3.0 * rng.standard_normal((37,) + (4,) * dim),
        "lead": 3.0 * rng.standard_normal((2, 3, 4) + (4,) * dim),
        "strided lead": 3.0 * rng.standard_normal((6, 5) + (4,) * dim)[::2, ::-1],
        "empty": np.zeros((0,) + (4,) * dim),
    }
    whole = {name: bound_nodes(U, t35, dim) for name, U in stacks.items()}
    sizes = _blocks_of(t35, dim, 5, monkeypatch)
    for name, U in stacks.items():
        sizes.clear()
        lower, upper = bound_nodes(U, t35, dim)
        assert np.array_equal(lower, whole[name][0]) and np.array_equal(upper, whole[name][1]), name
        assert sum(sizes) == math.prod(U.shape[:U.ndim - dim]), name
        assert max(sizes) <= 5 and max(sizes) - min(sizes) <= 1, name


def test_blocks_split_a_stack_evenly(t35, monkeypatch):
    # 21 cells at 10 a block: 7 + 7 + 7, not a 1-cell tail after 10 + 10
    U = 3.0 * np.random.default_rng(84).standard_normal((21, 4))
    whole = bound_nodes(U, t35, 1)
    sizes = _blocks_of(t35, 1, 10, monkeypatch)
    lower, upper = bound_nodes(U, t35, 1)
    assert sizes == [7, 7, 7]
    assert np.array_equal(lower, whole[0]) and np.array_equal(upper, whole[1])


def test_bound_nodes_results_outlive_later_calls(t35):
    rng = np.random.default_rng(91)
    U = rng.standard_normal((5, 4, 4))
    lower, upper = bound_nodes(U, t35, 2)
    kept = lower.copy(), upper.copy()
    bound_nodes(-2.0 * U, t35, 2)
    bound_nodes(rng.standard_normal((50, 4, 4, 4)), t35, 3)
    assert np.array_equal(lower, kept[0]) and np.array_equal(upper, kept[1])


def test_bound_tensor_arrays_are_read_only_and_outlive_later_calls(t35):
    nb = bound_tensor(_rand_coeffs(2, 92), t35)
    kept = [a.copy() for a in (nb.eta, nb.lower, nb.upper)]
    bound_tensor(_rand_coeffs(2, 93), t35)
    for a, b in zip((nb.eta, nb.lower, nb.upper), kept):
        assert not a.flags.writeable and np.array_equal(a, b)
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_one_table_functions_refuse_a_ladder(t34, t35):
    c = _rand_coeffs(2, 94)
    with pytest.raises(ValueError, match="expected one table, got a ladder of 2"):
        bound_tensor(c, [t34, t35])
    with pytest.raises(ValueError, match="expected one table, got a ladder of 2"):
        meshcheck.refinement_ladder(c, [t34, t35], 2)
    # a one-table list is still one table
    assert np.array_equal(bound_tensor(c, [t35]).lower, bound_tensor(c, t35).lower)


def _generations(U, ladder, dim, tol):
    """Copies of (owner, lower, upper) of every generation refine bounds:
    the ladder is climbed whole, then the spans wider than tol split."""
    seen = []

    def split(level, owner, lower, upper, room):
        seen.append((owner.copy(), lower.copy(), upper.copy()))
        if level < len(ladder) - 1:
            return np.ones(len(owner), dtype=bool)
        return bounder._corners(upper - lower > tol, np.logical_or, dim)

    bounder.refine(U, ladder, dim, split, 4)
    return seen


def test_warm_and_fresh_table_scratch_give_equal_refinements():
    # the adaptive benchmark's ladders; the warm tables' buffers were last
    # sized and filled by the other kinds, the fresh copies start empty
    ladders = {p: [standard_table("lobatto-nodal", p, M) for M in range(p + 1, p + 4)]
               for p in (2, 3, 5)}
    for seed in (501, 502):
        rng = np.random.default_rng(seed)
        for dim, p, cells in [(3, 3, 6), (1, 5, 40), (2, 5, 9), (3, 2, 20), (2, 3, 30)]:
            U = rng.uniform(-1.0, 1.0, (cells,) + (p + 1,) * dim)
            warm = _generations(U, ladders[p], dim, 0.05)
            fresh = _generations(U, copy.deepcopy(ladders[p]), dim, 0.05)
            assert len(warm) == len(fresh) > len(ladders[p]), (seed, dim, p)
            for a, b in zip(warm, fresh):
                assert all(np.array_equal(x, y) for x, y in zip(a, b)), (seed, dim, p)


def test_table_copies_and_pickles_with_a_fresh_scratch(t35):
    # a twin is rebuilt by the constructor: read-only arrays, no kernel state
    U = np.random.default_rng(94).standard_normal((40, 4, 4))
    bound_adaptive(PolyCoeffs(2, B3, np.arange(16.0).reshape(4, 4) % 5), t35, 1e-3)
    before = bound_nodes(U, t35, 2)
    assert t35._scratch._buffers
    for twin in (copy.deepcopy(t35), pickle.loads(pickle.dumps(t35))):
        assert np.array_equal(twin.q_lower, t35.q_lower) and np.array_equal(twin.eta(), t35.eta())
        assert twin._scratch is not t35._scratch and not twin._scratch._buffers
        assert not {"_sweep_ops", "_spans"} & vars(twin).keys()
        for q in (twin.q_lower, twin.q_upper):
            with pytest.raises(ValueError):
                q[0, 0] += 1.0
        lower, upper = bound_nodes(U, twin, 2)
        assert np.array_equal(lower, before[0]) and np.array_equal(upper, before[1])


def test_bounded_table_copy_is_collected():
    # no cache outside the table keeps it, its scratch or its operands alive
    twin = copy.deepcopy(standard_table("lobatto-nodal", 3, 4))
    bound_nodes(np.random.default_rng(97).standard_normal((60000, 4, 4)), twin, 2)
    bound_adaptive(PolyCoeffs(2, B3, np.arange(16.0).reshape(4, 4) % 5), twin, 1e-3)
    assert twin._scratch._buffers
    ref = weakref.ref(twin)
    del twin
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("kind", ["optimized", "gauss-lobatto"])
def test_fetched_table_is_collected(kind):
    # standard_table keeps nothing: the caller's table goes when it drops it
    table = standard_table("lobatto-nodal", 3, 5, kind=kind)
    bound_nodes(np.random.default_rng(98).standard_normal((60000, 4, 4)), table, 2)
    assert table._scratch._buffers and "_sweep_ops" in vars(table)
    ref = weakref.ref(table)
    del table
    gc.collect()
    assert ref() is None


def test_table_scratch_stays_within_two_blocks(t35):
    # the stacks alone take 8 MB and 3 MB; the temporaries stay per block
    table = copy.deepcopy(t35)
    rng = np.random.default_rng(95)
    bound_nodes(rng.standard_normal((65536, 4, 4)), table, 2)
    bound_nodes(rng.standard_normal((6000, 4, 4, 4)), table, 3)
    kept = table._scratch._buffers
    assert {"x", "interval", "sweep"} <= kept.keys()
    assert all(buf.nbytes <= 2 * bounder._BLOCK_BYTES for buf in kept.values())


def test_refine_leaves_every_generation_s_bounds_to_split(t35):
    # one cell fewer per generation, so every generation fits the last one's memory
    U = np.random.default_rng(96).standard_normal((7, 4, 4))
    kept, copies = [], []

    def split(level, owner, lower, upper, room):
        kept.append((lower, upper))
        copies.append((lower.copy(), upper.copy()))
        return np.arange(len(owner)) > 0

    assert bounder.refine(U, [t35], 2, split, 3) == 3
    for (lower, upper), (lo, up) in zip(kept, copies):
        assert np.array_equal(lower, lo) and np.array_equal(upper, up)


_C2 = PolyCoeffs(2, B3, np.ones((4, 4)))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda t: bounder.BoundingTable(t.basis, t.nodes, t.q_lower[:, 1:], t.q_upper,
                                                 t.epsilon, t.provenance),
                 r"table shape \(4, 4\) does not match N=4, M=5", id="table-shape"),
    pytest.param(lambda t: bounder.BoundingTable(t.basis, t.nodes, t.q_lower, t.q_upper,
                                                 t.epsilon, "guessed"),
                 "unknown provenance 'guessed'", id="table-provenance"),
    pytest.param(lambda t: bounder.NodeBounds(t.eta(), np.zeros(5), np.zeros(4)),
                 "lower/upper shape mismatch", id="node-bounds-shape"),
    pytest.param(lambda t: bounder.NodeBounds(t.eta(), np.ones(5), np.zeros(5)),
                 "lower exceeds upper", id="node-bounds-order"),
    pytest.param(lambda t: bound_nodes(np.zeros((3, 5)), t, 1),
                 r"need coefficients of shape \(\.\.\., 4\)\^1, got \(3, 5\)",
                 id="bound-nodes-shape"),
    pytest.param(lambda t: limiter.apply_limiter(limiter.transport_state(2, 2), t),
                 "table basis lobatto-nodal p=3 does not match polynomial basis lobatto-nodal p=2",
                 id="limiter-basis"),
    pytest.param(lambda t: subdivide(_C2, [(-1.0, 0.0)]), r"subcell must be 2 \(a, b\) pairs",
                 id="subdivide-pairs"),
    pytest.param(lambda t: subdivide(_C2, [(-1.0, 0.0), (0.5, 0.5)]), "empty subcell",
                 id="subdivide-empty"),
    pytest.param(lambda t: subdivide(_C2, [(-1.0, 0.0), (0.5, 1.5)]),
                 r"inside \[-1, 1\] per axis", id="subdivide-outside"),
    pytest.param(lambda t: sampled_extrema(np.ones((1, 4)), B3, 1, 1),
                 "at least 2 samples per dimension", id="sampled-extrema"),
    pytest.param(lambda t: sampled_extrema(np.ones((1, 4, 4, 4)), B3, 3, 2000),
                 "samples_per_dim=2000 in dim 3", id="sampled-extrema-grid"),
    pytest.param(lambda t: eval_on_grid(_C2, [np.zeros(3)]), "one axis array per dimension",
                 id="eval-on-grid"),
    pytest.param(lambda t: meshcheck.uniform_mesh(0, 1, 2), "at least one element per direction",
                 id="uniform-mesh"),
    pytest.param(lambda t: change_basis(_C2, make_basis("bernstein", 2)),
                 "source p=3, target p=2", id="change-basis"),
    pytest.param(lambda t: gauss_legendre_nodes(0), "need n >= 1", id="gauss-legendre"),
    pytest.param(lambda t: gauss_lobatto_nodes(1), "need n >= 2", id="gauss-lobatto"),
])
def test_refusals_name_the_fault(call, message, t35):
    with pytest.raises(ValueError, match=message):
        call(t35)


def test_cached_operators_are_read_only(t35):
    U = np.random.default_rng(92).standard_normal((5, 4, 4))
    before = bound_nodes(U, t35, 2)
    for op in (*t35._sweep_ops, _bary_weights(tuple(t35.basis.nodes)), t35._spans):
        with pytest.raises(ValueError):
            op[0] += 1.0
    after = bound_nodes(U, t35, 2)
    assert np.array_equal(before[0], after[0]) and np.array_equal(before[1], after[1])


@lru_cache(maxsize=None)
def _gll_table(family, p, M):
    return optimize_values(make_basis(family, p), make_node_set("gauss-lobatto", M))


def _four_corner_rows(table, lo_rows, hi_rows):
    """Reference interval sweep: midpoint projection, then per coefficient
    the extremes of the four products {lo, hi} x {q_lower, q_upper}.

    Also returns the rounding scale per node: the magnitudes the sums for
    a0 + a1*eta and for the priced coefficients run over.
    """
    basis = table.basis
    mid, rad = 0.5 * (lo_rows + hi_rows), 0.5 * (hi_rows - lo_rows)
    xg, wg = gauss_legendre_rule(basis.p + 2)
    Phi = basis_matrix(basis, xg)
    vals = mid @ Phi.T
    a0, a1 = vals @ (0.5 * wg), vals @ (1.5 * wg * xg)
    mag = np.abs(mid) @ np.abs(Phi.T)
    q = np.maximum(np.abs(table.q_lower), np.abs(table.q_upper))
    scale = (mag @ (0.5 * wg))[:, None] + np.outer(mag @ np.abs(1.5 * wg * xg), np.abs(table.eta()))
    scale += np.maximum(np.abs(lo_rows), np.abs(hi_rows)) @ q
    fluct = (mid - np.outer(a0, linear_coeffs(basis, 1.0, 0.0))
             - np.outer(a1, linear_coeffs(basis, 0.0, 1.0)))
    wl, wh = (fluct - rad)[..., None], (fluct + rad)[..., None]
    ql, qu = table.q_lower, table.q_upper
    corners = np.stack([wl * ql, wl * qu, wh * ql, wh * qu])
    lin = a0[:, None] + np.outer(a1, table.eta())
    return lin + corners.min(axis=0).sum(axis=1), lin + corners.max(axis=0).sum(axis=1), scale


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(FAMILIES), p=st.integers(1, 7), extra=st.sampled_from([0, 2]),
       rows=st.integers(1, 40), exponent=st.integers(-40, 40), seed=st.integers(0, 2**32 - 1))
def test_interval_sweep_matches_four_corner_reference(family, p, extra, rows, exponent, seed):
    table = _gll_table(family, p, p + 1 + extra)
    rng = np.random.default_rng(seed)
    shape = (rows, p + 1)
    f = 2.0**exponent * rng.standard_normal(shape) * (rng.uniform(size=shape) > 0.2)
    r = 2.0**exponent * rng.exponential(size=shape) * (rng.uniform(size=shape) > 0.3)
    lo, hi = f - r, f + r
    ref_lo, ref_hi, scale = _four_corner_rows(table, lo, hi)
    tol = 8 * np.finfo(float).eps * scale
    lower, upper = bounder._bound_interval_rows(lo, hi, table, {})
    assert np.all(np.abs(lower - ref_lo) <= tol) and np.all(np.abs(upper - ref_hi) <= tol)
    # a zero-width interval is an exact row
    exact = bounder._bound_rows(table.basis, f, table, {})
    point = bounder._bound_interval_rows(f, f, table, {})
    ref_lo, ref_hi, scale = _four_corner_rows(table, f, f)
    tol = 8 * np.finfo(float).eps * scale
    for got in (exact, point):
        assert np.all(np.abs(got[0] - ref_lo) <= tol) and np.all(np.abs(got[1] - ref_hi) <= tol)
    assert np.all(np.abs(point[0] - exact[0]) <= tol) and np.all(np.abs(point[1] - exact[1]) <= tol)


def test_bound_tensor_separable_product(t35):
    # u(x, y) = x * y: node bounds must straddle the four corner values
    nodes = np.asarray(B3.nodes)
    U = np.outer(nodes, nodes)
    nb = bound_tensor(PolyCoeffs(2, B3, U), t35)
    assert nb.global_min() <= -1.0 + 1e-9
    assert nb.global_max() >= 1.0 - 1e-9
    # and not be wildly loose for so tame a polynomial
    assert nb.global_max() < 1.6


def test_bernstein_bounds_enclose_and_match_coeff_extremes():
    rng = np.random.default_rng(0)
    for dim in (1, 2):
        c = PolyCoeffs(dim, B3, rng.standard_normal((4,) * dim))
        lo, up = bernstein_bounds(c)
        x = np.linspace(-1, 1, 200 if dim == 1 else 60)
        vals = eval_on_grid(c, [x] * dim)
        assert lo <= vals.min() + 1e-12
        assert up >= vals.max() - 1e-12


def test_bernstein_stack_matches_per_cell_conversion():
    from polybound.basis import change_basis

    rng = np.random.default_rng(1)
    bern = make_basis("bernstein", 3)
    for dim in (1, 2, 3):
        U = rng.standard_normal((5,) + (4,) * dim)
        stacked = bounder._bernstein_stack(U, B3, dim)
        for u, got in zip(U, stacked):
            want = change_basis(PolyCoeffs(dim, B3, u), bern).u
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_bernstein_high_order_warns():
    b10 = make_basis("lobatto-nodal", 10)
    c = PolyCoeffs(1, b10, np.random.default_rng(0).standard_normal(11))
    with pytest.warns(RuntimeWarning):
        bernstein_bounds(c)


def test_brute_force_underapproximates(t34):
    for seed in range(10):
        c = _rand_coeffs(1, seed)
        lo, up = brute_force_extrema(c, 10_000)
        dense = eval_on_grid(c, [np.linspace(-1, 1, 100_001)])
        assert lo >= dense.min() - 1e-9
        assert up <= dense.max() + 1e-9
        # polish should leave essentially no slack on smooth 1D data
        assert abs(lo - dense.min()) < 1e-7
        assert abs(up - dense.max()) < 1e-7


@pytest.mark.parametrize("family", FAMILIES)
def test_sampled_extrema_matches_derivative_roots_1d(family):
    # the true extrema of a 1D polynomial sit at the endpoints or at the
    # real roots of its derivative in [-1, 1]
    rng = np.random.default_rng(17)
    for p in range(2, 10):
        basis = make_basis(family, p)
        for scale in (2.0**-20, 1.0, 2.0**20):
            U = scale * rng.standard_normal((8, p + 1))
            lo, hi = sampled_extrema(U, basis, 1, 2000)
            for c, got_lo, got_hi in zip(U, lo, hi):
                series = cheb_coeffs(basis) @ c
                roots = cheb.chebroots(cheb.chebder(series))
                x = np.concatenate([[-1.0, 1.0], roots.real[
                    (np.abs(roots.imag) < 1e-12) & (np.abs(roots.real) <= 1.0)]])
                vals = cheb.chebval(x, series)
                mag = np.abs(c).sum()
                u = np.finfo(float).eps
                # inside the true range up to rounding, and within 1e-12 of it
                assert vals.min() - 8 * u * mag <= got_lo <= vals.min() + 1e-12 * mag
                assert vals.max() - 1e-12 * mag <= got_hi <= vals.max() + 8 * u * mag


@pytest.mark.parametrize("dim, samples", [(1, 500), (2, 40), (3, 12)])
def test_sampled_extrema_stack_matches_one_cell_calls(dim, samples):
    rng = np.random.default_rng(dim)
    for family in FAMILIES:
        basis = make_basis(family, 4)
        U = rng.standard_normal((7,) + (5,) * dim)
        lo, hi = sampled_extrema(U, basis, dim, samples)
        tol = 4 * np.finfo(float).eps * np.abs(U).reshape(7, -1).sum(axis=1)
        for k in range(7):
            lo1, hi1 = brute_force_extrema(PolyCoeffs(dim, basis, U[k]), samples)
            assert abs(lo[k] - lo1) <= tol[k] and abs(hi[k] - hi1) <= tol[k]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sampled_extrema_of_multilinear_cells_are_their_corners(dim):
    # p = 1 skips Newton: a multilinear cell's extremes are nodal values
    U = np.random.default_rng(40 + dim).standard_normal((9,) + (2,) * dim)
    lo, hi = sampled_extrema(U, make_basis("lobatto-nodal", 1), dim, 7)
    corners = U.reshape(9, -1)
    assert np.allclose(lo, corners.min(axis=1), rtol=0, atol=1e-14)
    assert np.allclose(hi, corners.max(axis=1), rtol=0, atol=1e-14)


def test_subdivide_is_restriction():
    rng = np.random.default_rng(5)
    cell = [(-1.0, 0.0), (0.5, 1.0), (-0.3, 0.9)]
    t = np.linspace(-1, 1, 13)
    axes = [a + (b - a) * (t + 1) / 2 for a, b in cell]
    for family in FAMILIES:
        basis = make_basis(family, 3)
        for dim in (1, 2, 3):
            c = PolyCoeffs(dim, basis, rng.standard_normal((4,) * dim))
            sub = subdivide(c, cell[:dim])
            np.testing.assert_allclose(
                eval_on_grid(sub, [t] * dim),
                eval_on_grid(c, axes[:dim]),
                atol=1e-12,
            )


def _restriction_reference(basis, a, b):
    """The span restriction as bounder built it before basis._transform_matrix
    took it over: values matched at the basis nodes, or at Chebyshev points."""
    N = basis.N
    t = np.asarray(basis.nodes) if basis.nodes is not None else -np.cos(
        np.pi * (2 * np.arange(N) + 1) / (2 * N))
    mapped = 0.5 * (a + b) + 0.5 * (b - a) * t
    return np.linalg.solve(basis_matrix(basis, t), basis_matrix(basis, mapped))


def test_coefficient_maps_keep_their_bits():
    # every shipped table's span restrictions, restrictions in each family,
    # and the Bernstein transforms as _transform_matrix built them before
    paths = sorted((_data_dir() / "tables").glob("*.txt"))
    assert len(paths) == 35
    for path in paths:
        table = load_table(path)
        eta = table.eta()
        want = [_restriction_reference(table.basis, lo, hi) for lo, hi in zip(eta[:-1], eta[1:])]
        assert np.array_equal(table._spans, np.stack(want)), path.name
    for family in FAMILIES:
        for p in range(1, 8):
            basis = make_basis(family, p)
            for a, b in [(-1.0, 0.0), (0.0, 1.0), (-0.3, 0.9), (-1.0, 1.0)]:
                assert np.array_equal(_transform_matrix(basis, basis, a, b),
                                      _restriction_reference(basis, a, b)), (family, p, a, b)
            pts = -np.cos(np.pi * (2 * np.arange(p + 1) + 1) / (2 * (p + 1)))
            bern = make_basis("bernstein", p)
            want = np.linalg.solve(basis_matrix(bern, pts), basis_matrix(basis, pts))
            assert np.array_equal(_transform_matrix(basis, bern), want), (family, p)


def _restrict_reference(U, mats):
    """_restrict as it was: a per-cell matrix contracted the last axis, with
    its own axis moved there and back."""
    for axis, R in enumerate(mats, start=1):
        if R.ndim == 2:
            U = np.moveaxis(np.tensordot(U, R, axes=([axis], [1])), -1, axis)
        else:
            U = np.moveaxis(np.einsum("c...b,cab->c...a", np.moveaxis(U, axis, -1), R), -1, axis)
    return U


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("rows", ["N", "3", "shared"])
def test_restrict_keeps_its_bits(dim, rows):
    # per-cell (cells, A, N) matrices with A = N (subcells) or A = 3 (the
    # derivatives of _derivatives), and shared (A, N) ones
    rng = np.random.default_rng([dim, len(rows)])
    for _ in range(20):
        N, cells = int(rng.integers(2, 9)), int(rng.integers(1, 200))
        U = rng.standard_normal((cells,) + (N,) * dim) * 10.0 ** rng.integers(-8, 9)
        A = {"N": N, "3": 3, "shared": int(rng.integers(1, 12))}[rows]
        shape = (A, N) if rows == "shared" else (cells, A, N)
        mats = [rng.standard_normal(shape) for _ in range(dim)]
        out = bounder._restrict(U, mats)
        assert out.shape == (cells,) + (A,) * dim
        assert np.array_equal(out, _restrict_reference(U, mats))


def test_subdivide_full_cell_is_identity():
    c = _rand_coeffs(1, 3)
    sub = subdivide(c, [(-1.0, 1.0)])
    np.testing.assert_allclose(sub.u, c.u, atol=1e-12)


def test_subdivide_accepts_a_single_1d_pair():
    c = _rand_coeffs(1, 3)
    assert np.array_equal(subdivide(c, (-0.5, 0.25)).u, subdivide(c, [(-0.5, 0.25)]).u)


def test_refine_carries_picked_cells_up_the_ladder(t34, t35):
    # (cells,) masks carry picked cells whole; past the top the last table repeats
    ladder = [t34, t35, standard_table("lobatto-nodal", 3, 6)]
    rng = np.random.default_rng(17)
    U = rng.standard_normal((5, 4, 4))
    # the last mask is returned at max_levels, where refine stops anyway
    masks = [np.array([True, False, True, True, False]), np.array([False, True, True]),
             np.array([True, True]), np.array([True, True])]
    seen = []

    def split(level, owner, lower, upper, room):
        assert (room == 0) == (level == 3)
        seen.append((owner.copy(), lower.copy(), upper.copy()))
        return masks[level]

    assert bounder.refine(U, ladder, 2, split, max_levels=3) == 3
    picked = np.arange(5)
    for k, (owner, lower, upper) in enumerate(seen):
        assert np.array_equal(owner, picked), k
        ref = bound_nodes(U[picked], ladder[min(k, 2)], 2)
        assert np.array_equal(lower, ref[0]) and np.array_equal(upper, ref[1]), k
        picked = picked[masks[k]]
    assert [len(o) for o, _, _ in seen] == [5, 3, 2, 2]


def test_refine_stops_a_split_that_ignores_room(t35, monkeypatch):
    # the splits always pick, so refine alone ends them: at max_levels, and
    # before a generation past the memory budget
    U = np.random.default_rng(98).standard_normal((1, 4, 4))
    seen = []

    def cells(level, owner, lower, upper, room):
        seen.append((len(owner), room))
        return np.ones(len(owner), dtype=bool)

    def spans(level, owner, lower, upper, room):
        seen.append((len(owner), room))
        return np.ones((len(owner), 4, 4), dtype=bool)

    assert bounder.refine(U, [t35], 2, cells, 3) == 3
    assert [n for n, _ in seen] == [1, 1, 1, 1] and seen[-1][1] == 0
    seen.clear()
    # cells of 16 coefficients and 2 x 25 node bounds: room for 1,985 of
    # them, so the 4,096 spans picked at level 2 end refinement there
    monkeypatch.setattr(bounder, "_GENERATION_BYTES", 1 << 20)
    assert bounder.refine(U, [t35], 2, spans, 50) == 2
    assert seen == [(1, 1985), (16, 1985), (256, 1985)]


def _counted_splits(monkeypatch, module):
    """Patch module.refine to record, per refine call, each split call's
    (level, room, cells picked)."""
    calls = []
    real = module.refine

    def refine(U, ladder, dim, split, max_levels):
        calls.append([])

        def counted(level, owner, lower, upper, room):
            mask = split(level, owner, lower, upper, room)
            calls[-1].append((level, room, int(np.count_nonzero(mask))))
            return mask

        return real(U, ladder, dim, counted, max_levels)

    monkeypatch.setattr(module, "refine", refine)
    return calls


def test_refine_calls_split_once_per_generation(monkeypatch):
    # a 1 MiB budget stops both callers on a pick past room: the 3D
    # polynomial at level 3, the det J that grazes zero along xi = 0 at 2
    monkeypatch.setattr(bounder, "_GENERATION_BYTES", 1 << 20)
    adaptive = _counted_splits(monkeypatch, bounder)
    ladder = [standard_table("lobatto-nodal", 2, m) for m in (3, 4, 5)]
    s = bound_adaptive(_rand_coeffs(3, 0, p=2), ladder, tol=1e-9)
    assert s.levels_used == 3
    mesh = _counted_splits(monkeypatch, meshcheck)
    nodes = gauss_lobatto_nodes(4)
    element = np.stack(np.meshgrid(nodes**3, nodes), axis=-1).reshape(-1, 2)
    report = meshcheck.check_mesh(meshcheck.CurvedMesh(3, [element]), meshcheck.detj_tables(3),
                                  tol=1e-4)
    assert report.elements[0].levels_used == 2
    for calls in (adaptive, mesh):
        (generations,) = calls
        assert [lv for lv, _, _ in generations] == list(range(len(generations)))
        assert all(0 < picked <= room for _, room, picked in generations[:-1])
        assert generations[-1][2] > generations[-1][1] > 0


def test_bound_adaptive_tightens_to_oracle(t34, t35):
    c = _rand_coeffs(2, 11)
    lo_ref, up_ref = brute_force_extrema(c, 200)
    widths = []
    for levels in (0, 2, 4):
        s = bound_adaptive(c, t34, tol=1e-12, max_levels=levels)
        assert s.global_min <= lo_ref + 1e-12
        assert s.global_max >= up_ref - 1e-12
        widths.append((lo_ref - s.global_min) + (s.global_max - up_ref))
    assert widths[2] < widths[0]
    assert widths[2] < 0.1 * max(widths[0], 1e-30) or widths[2] < 1e-6


def test_bound_adaptive_increase_m_strategy(t34, t35):
    c = _rand_coeffs(2, 13)
    s0 = bound_adaptive(c, [t34, t35], tol=1e-12, max_levels=1)
    s1 = bound_adaptive(c, t34, tol=1e-12, max_levels=0)
    assert s0.global_min >= s1.global_min - 1e-12
    assert s0.global_max <= s1.global_max + 1e-12


def test_bound_adaptive_budget_ends_on_the_ladder(t34, t35):
    # the level budget runs out before the top table: the bounds are the
    # whole polynomial's with the table reached, not an empty envelope
    ladder = [t34, t35, standard_table("lobatto-nodal", 3, 6)]
    c = _rand_coeffs(2, 19)
    s = bound_adaptive(c, ladder, tol=1e-12, max_levels=1)
    nb = bound_tensor(c, t35)
    assert s.levels_used == 1 and s.converged is False
    assert (s.global_min, s.global_max) == (nb.global_min(), nb.global_max())
    assert [h["cells"] for h in s.level_history] == [1, 1]


def test_bound_adaptive_stops_before_a_generation_past_the_memory_budget(monkeypatch):
    # the 4,096 cells of level 4 would store ~9 MB of coefficients and node
    # bounds against a 1 MiB budget, so refinement ends at level 3,
    # unconverged, with what max_levels=3 gives
    ladder = [standard_table("lobatto-nodal", 2, m) for m in (3, 4, 5)]
    c = _rand_coeffs(3, 0, p=2)
    capped = bound_adaptive(c, ladder, tol=1e-9, max_levels=3)
    monkeypatch.setattr(bounder, "_GENERATION_BYTES", 1 << 20)
    s = bound_adaptive(c, ladder, tol=1e-9)
    assert (s.converged, s.levels_used) == (False, 3)
    assert [(h["level"], h["cells"]) for h in s.level_history] == [(0, 1), (1, 1), (2, 1), (3, 64)]
    assert s == capped
    lo, hi = brute_force_extrema(c, 40)
    assert s.global_min <= lo and s.global_max >= hi


def _refine_reference(U, ladder, dim, split, max_levels):
    """refine as it was: split(level, owner, lower, upper, last), called a
    second time with last true on a generation whose pick is past the
    memory budget."""
    owner = np.arange(len(U))
    level = 0
    while True:
        table = ladder[min(level, len(ladder) - 1)]
        lower, upper = bounder.bound_nodes(U, table, dim)
        last = level >= max_levels
        mask = split(level, owner, lower, upper, last)
        children = 0 if last else np.count_nonzero(mask)
        if not children:
            return level
        M = ladder[min(level + 1, len(ladder) - 1)].nodes.M
        if children * 8 * (U.shape[-1] ** dim + 2 * M**dim) > bounder._GENERATION_BYTES:
            split(level, owner, lower, upper, True)
            return level
        if mask.ndim == 1:
            U, owner = U[mask], owner[mask]
        else:
            spans = table._spans
            cell, *picked = np.nonzero(mask)
            U = bounder._restrict(U[cell], [spans[i] for i in picked])
            owner = owner[cell]
        level += 1


def _adaptive_reference(coeffs, tables, tol, max_levels=10, seen=None):
    """bound_adaptive with its split and refine as they were: a full
    finiteness check, boolean gathers of the kept node bounds, and a second
    split call that settles an over-budget generation. seen collects which
    ways each split ended."""
    ladder = bounder._as_ladder(tables, coeffs.basis)
    d = coeffs.dim
    history = []
    gmin, gmax = np.inf, -np.inf
    seen = set() if seen is None else seen

    def split(level, owner, lower, upper, last):
        nonlocal gmin, gmax
        bounder._require_finite(lower, upper, lambda i: (
            f"polynomial: node bounds not finite at refinement level {level}"))
        gap = upper - lower
        if history[level:]:
            seen.add("budget")  # refine settles an over-budget generation
        history[level:] = [{"level": level, "cells": len(gap), "worst_gap": float(gap.max())}]
        if not last and level < len(ladder) - 1 and history[-1]["worst_gap"] > tol:
            return np.ones(1, dtype=bool)
        keep = (gap <= tol) | last
        seen.add("last" if last else "partial" if 0 < keep.sum() < keep.size else "all or none")
        if keep.any():
            gmin = min(gmin, float(lower[keep].min()))
            gmax = max(gmax, float(upper[keep].max()))
        return bounder._corners(gap > tol, np.logical_or, d)

    level = _refine_reference(coeffs.u[None], ladder, d, split, max_levels)
    return bounder.BoundSummary(gmin, gmax, level, history[-1]["worst_gap"] <= tol,
                                tuple(history))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_bound_adaptive_matches_the_gathering_split(dim, monkeypatch):
    # tolerances relative to the coefficient range; the small budget stops
    # refinement early, and 1D p=2 node gaps all fail or meet tol together
    seen = set()
    for p in (2, 3, 4, 5):
        ladder = [standard_table("lobatto-nodal", p, m) for m in range(p + 1, p + 4)]
        for budget in (1 << 22, 1 << 10):
            monkeypatch.setattr(bounder, "_GENERATION_BYTES", budget)
            for seed, rel_tol, max_levels in [(0, 0.3, 4), (1, 0.05, 4), (2, 0.05, 3),
                                              (3, 1e-3, 2), (4, 1e-3, 10), (5, 1e-2, 10)]:
                c = _rand_coeffs(dim, seed, p=p)
                tol = rel_tol * float(np.ptp(c.u))
                s = bound_adaptive(c, ladder, tol, max_levels)
                ref = _adaptive_reference(c, ladder, tol, max_levels, seen)
                assert s == ref, (p, budget, seed)
                assert (s.global_min.hex(), s.global_max.hex()) == (
                    ref.global_min.hex(), ref.global_max.hex())
    assert {"partial", "last", "budget"} <= seen


def test_bound_adaptive_accepts_finite_bounds_whose_gap_overflows(t34, monkeypatch):
    # +-1e308 are finite bounds, so the full check passes them, as before;
    # only their gap overflows to inf
    def huge(U, table, dim):
        shape = (len(U),) + (table.nodes.M,) * dim
        return np.full(shape, -1e308), np.full(shape, 1e308)

    monkeypatch.setattr(bounder, "bound_nodes", huge)
    c = _rand_coeffs(2, 7)
    for max_levels in (0, 1):
        with np.errstate(over="ignore"):
            s = bound_adaptive(c, t34, 1e-3, max_levels)
            ref = _adaptive_reference(c, t34, 1e-3, max_levels)
        assert s == ref
        assert (s.global_min, s.global_max, s.converged) == (-1e308, 1e308, False)
        assert s.level_history[-1]["worst_gap"] == np.inf


@pytest.mark.parametrize("max_levels", [-1, -5])
def test_negative_level_budget_raises(max_levels, t34):
    with pytest.raises(ValueError, match=f"max_levels must be >= 0, got {max_levels}"):
        bound_adaptive(_rand_coeffs(2, 3), t34, tol=1e-3, max_levels=max_levels)
    with pytest.raises(ValueError, match="max_levels"):
        bounder.refine(np.zeros((0, 4)), [t34], 1, None, max_levels)


def test_bound_adaptive_converges_on_tame_input(t34):
    u = np.outer(np.ones(4), np.asarray(B3.nodes)) * 0.1 + 0.5
    c = PolyCoeffs(2, B3, u)
    s = bound_adaptive(c, t34, tol=1e-3, max_levels=3)
    assert s.converged


def test_coeffs_io_round_trip(tmp_path):
    for dim in (1, 2, 3):
        c = _rand_coeffs(dim, 21 + dim)
        path = tmp_path / f"c{dim}.txt"
        write_coeffs(c, path)
        back = read_coeffs(path)
        assert back.dim == dim and back.basis == c.basis
        np.testing.assert_allclose(back.u, c.u, atol=1e-15, rtol=0)


def test_coeffs_format_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("wrong header\n")
    with pytest.raises(FormatError):
        read_coeffs(p)
    p.write_text("polybound-coeffs v1\ndim=2 family=lobatto-nodal p=3\n1.0 2.0\n")
    with pytest.raises(FormatError):
        read_coeffs(p)


def test_polycoeffs_shape_guard():
    with pytest.raises(ValueError):
        PolyCoeffs(2, B3, np.zeros((4, 5)))
    with pytest.raises(ValueError):
        PolyCoeffs(4, B3, np.zeros((4,) * 4))


def test_table_mismatch_rejected(t34):
    c = _rand_coeffs(1, 0, p=4)
    with pytest.raises(ValueError):
        bound_tensor(c, t34)
