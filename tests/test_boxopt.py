import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings, strategies as st
from numpy.polynomial import chebyshev as cheb

import polybound
from polybound.basis import (FAMILIES, FormatError, NodeSet, basis_matrix, cheb_coeffs, hat_matrix,
                             make_basis, make_node_set, mirror_pairs)
from polybound.boxopt import (
    _N_SAMPLES,
    _ROOT_TOL,
    _SAMPLE_POINTS,
    BoxOptimizationError,
    _active_sets,
    _continuous_min_gaps,
    _data_dir,
    _lstsq,
    _nnls,
    _nodes_from_z,
    _qr,
    _raw_boxes,
    _raw_objective,
    _upper_qp,
    load_table,
    offset_correction,
    optimize_nodes,
    optimize_values,
    reference_table_paths,
    save_table,
    standard_table,
    verify_table,
)


def _pl_eval(eta, q, x):
    """Piecewise-linear interpolant through (eta, q) at points x."""
    return np.interp(x, eta, q)


@pytest.fixture(scope="module")
def p3_table():
    return optimize_values(make_basis("lobatto-nodal", 3), make_node_set("equispaced", 5))


def test_table_encloses_basis_densely(p3_table):
    t = p3_table
    x = np.linspace(-1, 1, 4003)
    Phi = basis_matrix(t.basis, x)
    eta = t.eta()
    for i in range(t.basis.N):
        lo = _pl_eval(eta, t.q_lower[i], x)
        up = _pl_eval(eta, t.q_upper[i], x)
        assert (lo <= Phi[:, i] + 1e-12).all()
        assert (up >= Phi[:, i] - 1e-12).all()


def test_offsets_keep_continuous_margin(p3_table):
    rep = verify_table(p3_table)
    assert rep.max_violation >= -1e-12
    # the deliberate epsilon shift shows up as a strictly positive margin
    assert rep.max_violation > 0


def test_mirror_symmetry_of_rows(p3_table):
    t = p3_table
    assert mirror_pairs(t.basis)
    N = t.basis.N
    for i in range(N):
        j = N - 1 - i
        np.testing.assert_allclose(t.q_lower[i], t.q_lower[j][::-1], atol=1e-9)
        np.testing.assert_allclose(t.q_upper[i], t.q_upper[j][::-1], atol=1e-9)


def test_upper_qp_against_slsqp():
    # the in-module active-set solve must match a generic SQP solver on
    # the raw (pre-offset) discrete problem
    from scipy.optimize import minimize

    basis = make_basis("lobatto-nodal", 2)
    eta = make_node_set("equispaced", 4).array()
    n = _N_SAMPLES
    x = np.linspace(-1, 1, n)
    A = np.zeros((n, 4))
    for j in range(4):
        e = np.zeros(4)
        e[j] = 1.0
        A[:, j] = _pl_eval(eta, e, x)
    q_lo_raw, q_up_raw = _raw_boxes(basis, eta, _active_sets(basis))
    for i in range(basis.N):
        phi = basis_matrix(basis, x)[:, i]
        res = minimize(
            lambda q: np.sum((A @ q - phi) ** 2),
            x0=np.maximum(np.interp(eta, x, phi), 0) + 0.5,
            jac=lambda q: 2 * A.T @ (A @ q - phi),
            constraints=[{"type": "ineq", "fun": lambda q: A @ q - phi,
                          "jac": lambda q: A}],
            method="SLSQP",
            options={"maxiter": 300, "ftol": 1e-14},
        )
        assert res.success
        obj_mine = np.sum((A @ q_up_raw[i] - phi) ** 2)
        obj_slsqp = np.sum((A @ res.x - phi) ** 2)
        assert (A @ q_up_raw[i] - phi).min() >= -1e-10
        assert obj_mine <= obj_slsqp + 1e-7


def test_published_p2_values_reproduced():
    ref = standard_table("lobatto-nodal", 2, 3)
    basis = ref.basis
    recomputed = optimize_values(basis, NodeSet(ref.eta()))
    assert np.max(np.abs(recomputed.q_lower - ref.q_lower)) < 2e-3
    assert np.max(np.abs(recomputed.q_upper - ref.q_upper)) < 2e-3


def test_all_reference_fixtures_verify():
    paths = reference_table_paths()
    assert len(paths) == 15
    for path in paths:
        rep = verify_table(load_table(path))
        assert rep.max_violation >= -1e-12, path.name


def test_standard_table_keeps_reference_provenance_and_refuses_missing_tables():
    assert standard_table("lobatto-nodal", 3, 4).provenance == "reference"
    for p, M in [(3, 7), (1, 2)]:
        assert standard_table("lobatto-nodal", p, M).provenance == "loaded-from-file"
    for p, M in [(1, 5), (9, 9)]:
        with pytest.raises(FileNotFoundError):
            standard_table("lobatto-nodal", p, M)


def test_optimized_beats_equispaced():
    basis = make_basis("lobatto-nodal", 3)
    opt = optimize_nodes(basis, 4, restarts=2, maxiter=25)
    eq = optimize_values(basis, make_node_set("equispaced", 4))
    assert verify_table(opt).eps2 <= verify_table(eq).eps2 + 1e-12


def test_optimize_nodes_deterministic():
    basis = make_basis("lobatto-nodal", 2)
    t1 = optimize_nodes(basis, 4, restarts=2, maxiter=20, seed=3)
    t2 = optimize_nodes(basis, 4, restarts=2, maxiter=20, seed=3)
    np.testing.assert_array_equal(t1.eta(), t2.eta())
    np.testing.assert_array_equal(t1.q_lower, t2.q_lower)


def test_optimize_nodes_takes_warm_starts():
    basis = make_basis("lobatto-nodal", 3)
    with pytest.raises(ValueError, match="length M"):
        optimize_nodes(basis, 5, restarts=0, warm_starts=[np.linspace(-1.0, 1.0, 4)])
    # with no restarts the pick is among the seeds, so the warm start must be in it
    eta = standard_table("lobatto-nodal", 3, 5).eta()
    table = optimize_nodes(basis, 5, restarts=0, warm_starts=[eta])
    assert verify_table(table).eps2 <= verify_table(optimize_values(basis, NodeSet(eta))).eps2 + 1e-12


def test_node_search_passes_over_a_node_set_the_fit_cannot_sample(monkeypatch):
    # no fit sample lies strictly between -5e-4 and 5e-4, where node 2's hat is nonzero
    basis = make_basis("lobatto-nodal", 3)
    hollow = [-1.0, -5e-4, 0.0, 5e-4, 1.0]
    with pytest.raises(ValueError, match=r"control node 2 \(eta = 0\) holds none of the 1000"):
        optimize_values(basis, NodeSet(hollow))
    # the pick leaves it out, so the seeds' pick stands
    seeds_only = optimize_nodes(basis, 5, restarts=0)
    table = optimize_nodes(basis, 5, restarts=0, warm_starts=[hollow])
    assert _hex(table.eta(), table.q_lower, table.q_upper) == _hex(
        seeds_only.eta(), seeds_only.q_lower, seeds_only.q_upper)
    # the fifth restart starts at it, which the objective scores like nodes 1e-6 apart
    table = optimize_nodes(basis, 5, restarts=5, maxiter=2, warm_starts=[hollow])
    assert verify_table(table).max_violation > 0
    # a node set too large for the samples is still refused by name, before any search
    def no_search(*args, **kwargs):
        raise AssertionError("the node search ran before the refusal")

    monkeypatch.setattr(scipy.optimize, "minimize", no_search)
    for restarts in (0, 8):
        with pytest.raises(ValueError, match="M=600 needs more than 1000 samples"):
            optimize_nodes(basis, 600, restarts=restarts)


def test_shipped_table_regenerates_byte_identically(tmp_path):
    # the shipped p1-M4 table was written by optimize_nodes with these
    # settings; rerunning them must reproduce the file exactly
    table = optimize_nodes(make_basis("lobatto-nodal", 1), 4, restarts=8, maxiter=60)
    save_table(table, tmp_path / "t.txt")
    shipped = _data_dir() / "tables" / "lobatto-nodal-p1-M4.txt"
    assert (tmp_path / "t.txt").read_bytes() == shipped.read_bytes()


# float.hex of _raw_boxes' (q_lower, q_upper) at p=3 on equispaced M=5,
# recorded before the box solves lost their per-call overhead
_GOLDEN_RAW_BOXES = {
    "lobatto-nodal": """
        0x1.b46da26372484p-1 -0x1.ea86c031f8224p-5 -0x1.47d7a255c9f41p-3 0x1.0093197ee4a55p-6
        -0x1.1d708ca7ea5d6p-53 0x1.bf933272b6d12p-54 0x1.fc964dcbf9406p-1 0x1.4016667721d54p-1
        -0x1.46331f99bb540p-3 -0x1.b77e189ccc02ap-3 -0x1.b77e189ccc02ap-3 -0x1.46331f99bb540p-3
        0x1.4016667721d54p-1 0x1.fc964dcbf9406p-1 0x1.bf933272b6d12p-54 -0x1.1d708ca7ea5d6p-53
        0x1.0093197ee4a55p-6 -0x1.47d7a255c9f41p-3 -0x1.ea86c031f8224p-5 0x1.b46da26372484p-1
        0x1.0000000000001p+0 0x1.7d7095fb74019p-5 -0x1.006d35cb49c46p-3 0x1.55345d6a7ed77p-5
        0x1.2df8d4882cc79p-4 0x1.20605f85554a9p-2 0x1.2eff28b43550bp+0 0x1.51ac47e1f62a2p-1
        -0x1.c71dbd2cc48cep-5 -0x1.2c76791c8ae90p-53 -0x1.2c76791c8ae90p-53 -0x1.c71dbd2cc48cep-5
        0x1.51ac47e1f62a2p-1 0x1.2eff28b43550bp+0 0x1.20605f85554a9p-2 0x1.2df8d4882cc79p-4
        0x1.55345d6a7ed77p-5 -0x1.006d35cb49c46p-3 0x1.7d7095fb74019p-5 0x1.0000000000001p+0
    """,
    "legendre-nodal": """
        0x1.50c821dbdcb53p+0 0x1.3f8b50ef7eab3p-6 -0x1.18a45491b0c98p-3 0x1.717a69136b6e8p-5
        -0x1.d29ad687bb04cp-4 -0x1.a0946eb3057f4p-1 0x1.f114c682d2517p-1 0x1.2f5ed2da86bf5p-1
        -0x1.80c74efdf9d42p-2 0x1.9d1ce9ee36012p-6 0x1.9d1ce9ee36012p-6 -0x1.80c74efdf9d42p-2
        0x1.2f5ed2da86bf5p-1 0x1.f114c682d2517p-1 -0x1.a0946eb3057f4p-1 -0x1.d29ad687bb04cp-4
        0x1.717a69136b6e8p-5 -0x1.18a45491b0c98p-3 0x1.3f8b50ef7eab3p-6 0x1.50c821dbdcb53p+0
        0x1.86db962ac2966p+0 0x1.5aaaa564450e7p-3 -0x1.7b3bbf7677b46p-4 0x1.754495a36a9ecp-4
        0x1.00e33e3765780p-8 -0x1.6c0c1d68a8ddfp-2 0x1.4651d9d2ea2c8p+0 0x1.46336a67d2575p-1
        -0x1.7b5c5b6fdab4ap-3 0x1.9a613a5cef609p-2 0x1.9a613a5cef609p-2 -0x1.7b5c5b6fdab4ap-3
        0x1.46336a67d2575p-1 0x1.4651d9d2ea2c8p+0 -0x1.6c0c1d68a8ddfp-2 0x1.00e33e3765780p-8
        0x1.754495a36a9ecp-4 -0x1.7b3bbf7677b46p-4 0x1.5aaaa564450e7p-3 0x1.86db962ac2966p+0
    """,
    "bernstein": """
        0x1.e84e8eb7110bfp-1 0x1.8b41425a56889p-2 0x1.a194d5b1c7a55p-4 0x1.a2f63926e99e5p-9
        -0x1.93160f3aada64p-11 -0x1.4fae65d6091cdp-53 0x1.b03127f38a7fdp-2 0x1.8020c35696213p-2
        0x1.0004f1fcd35ffp-3 -0x1.6a5dcbd69c248p-5 -0x1.6a5dcbd69c248p-5 0x1.0004f1fcd35ffp-3
        0x1.8020c35696213p-2 0x1.b03127f38a7fdp-2 -0x1.4fae65d6091cdp-53 -0x1.93160f3aada64p-11
        0x1.a2f63926e99e5p-9 0x1.a194d5b1c7a55p-4 0x1.8b41425a56889p-2 0x1.e84e8eb7110bfp-1
        0x1.0000000000000p+0 0x1.afdf3e8ce27bbp-2 0x1.ff5c31662669cp-4 0x1.fdf45e7287c75p-7
        -0x1.24f382e23aa33p-56 0x1.6abe8e22a8a69p-4 0x1.f196e803bf513p-2 0x1.958d7d80230c2p-2
        0x1.1ff4f7b015405p-3 -0x1.e0bd8e941174dp-58 -0x1.e0bd8e941174dp-58 0x1.1ff4f7b015405p-3
        0x1.958d7d80230c2p-2 0x1.f196e803bf513p-2 0x1.6abe8e22a8a69p-4 -0x1.24f382e23aa33p-56
        0x1.fdf45e7287c75p-7 0x1.ff5c31662669cp-4 0x1.afdf3e8ce27bbp-2 0x1.0000000000000p+0
    """,
    "legendre-modal": """
        0x1.ffffffffffffep-1 0x1.0000000000001p+0 0x1.ffffffffffffdp-1 0x1.0000000000001p+0
        0x1.ffffffffffffep-1 -0x1.ffffffffffffap-1 -0x1.0000000000002p-1 0x1.496808ac3b37fp-55
        0x1.0000000000003p-1 0x1.ffffffffffffbp-1 0x1.d018d5bd940b8p-1 -0x1.c0630ae8c2bfcp-3
        -0x1.2fe72aa999466p-1 -0x1.c0630ae8c2bfcp-3 0x1.d018d5bd940b8p-1 -0x1.000000000000cp+0
        0x1.c0a6160c1264dp-2 -0x1.0dfbf2bc369c8p-7 -0x1.696e23bf0edc2p-1 0x1.1fe83b5a390c1p-1
        0x1.ffffffffffffep-1 0x1.0000000000001p+0 0x1.ffffffffffffdp-1 0x1.0000000000001p+0
        0x1.ffffffffffffep-1 -0x1.ffffffffffffbp-1 -0x1.0000000000003p-1 -0x1.496808ac3b37fp-55
        0x1.0000000000002p-1 0x1.ffffffffffffap-1 0x1.0000000000000p+0 -0x1.00c4692a44524p-3
        -0x1.00624dcc7d17cp-1 -0x1.00c4692a44524p-3 0x1.0000000000000p+0 -0x1.1fe83b5a390c1p-1
        0x1.696e23bf0edc2p-1 0x1.0dfbf2bc369c8p-7 -0x1.c0a6160c1264dp-2 0x1.000000000000cp+0
    """,
}
# float.hex of optimize_nodes(lobatto-nodal p=2, M=4, restarts=2, maxiter=20,
# seed=3): nodes, then q_lower, then q_upper
_GOLDEN_NODE_SEARCH = """
    -0x1.0000000000000p+0 -0x1.5555555555555p-2 0x1.5555555555555p-2 0x1.0000000000000p+0
    0x1.e38e17559efecp-1 0x1.5554cf1d98324p-3 -0x1.5555db8d123dcp-3 -0x1.c71e8aa610fd2p-5
    -0x1.0c6f7a0b885a2p-20 0x1.c71c50392d304p-1 0x1.c71c50392d304p-1 -0x1.0c6f7a0b885a2p-20
    -0x1.c71e8aa610fd2p-5 -0x1.5555db8d123dcp-3 0x1.5554cf1d98324p-3 0x1.e38e17559efecp-1
    0x1.000010c6f7a0fp+0 0x1.c71cf7fed977ap-3 -0x1.c71b6557a2662p-4 0x1.0c6f7a0b91417p-20
    0x1.c71d7e36967ccp-4 0x1.000010c6f7a0bp+0 0x1.000010c6f7a0bp+0 0x1.c71d7e36967ccp-4
    0x1.0c6f7a0b91417p-20 -0x1.c71b6557a2662p-4 0x1.c71cf7fed977ap-3 0x1.000010c6f7a0fp+0
"""
# float.hex of optimize_nodes(lobatto-nodal p=3, M=5, restarts=2, maxiter=20,
# seed=0), one of the table generator's tasks: nodes, q_lower, q_upper
_GOLDEN_NODE_SEARCH_P3 = """
    -0x1.0000000000000p+0 -0x1.1f1222996b3eap-1 0x0.0p+0 0x1.1f1222996b3eap-1
    0x1.0000000000000p+0 0x1.d39e5cc9639edp-1 -0x1.8a7002589c905p-8 -0x1.84318e04a9134p-3
    0x1.013d176a4ad3bp-5 -0x1.75238bece71e3p-13 -0x1.6aa990e3dc51cp-10 0x1.ee79175887936p-1
    0x1.3f53fbc7ecbf1p-1 -0x1.99b37bbb0b6d6p-3 -0x1.5a697608a1a29p-3 -0x1.5a697608a1a29p-3
    -0x1.99b37bbb0b6d6p-3 0x1.3f53fbc7ecbf1p-1 0x1.ee79175887936p-1 -0x1.6aa990e3dc51cp-10
    -0x1.75238bece71e3p-13 0x1.013d176a4ad3bp-5 -0x1.84318e04a9134p-3 -0x1.8a7002589c905p-8
    0x1.d39e5cc9639edp-1 0x1.00314cc9f650fp+0 0x1.c8f1ca9b3e286p-4 -0x1.fdb3bfca0835bp-4
    0x1.b333ee51295a8p-5 0x1.02dd0170be3eap-4 0x1.60d6d7ff6d46ep-3 0x1.2c80e716b7d7cp+0
    0x1.692880537be4cp-1 -0x1.bd591114a02b4p-4 0x1.8bc253f19d5f5p-11 0x1.8bc253f19d5f5p-11
    -0x1.bd591114a02b4p-4 0x1.692880537be4cp-1 0x1.2c80e716b7d7cp+0 0x1.60d6d7ff6d46ep-3
    0x1.02dd0170be3eap-4 0x1.b333ee51295a8p-5 -0x1.fdb3bfca0835bp-4 0x1.c8f1ca9b3e286p-4
    0x1.00314cc9f650fp+0
"""
# float.hex of _raw_objective at nodes (-1, -s, 0, s, 1), s = 0.4256, warm-started
# from the equispaced supports above
_GOLDEN_MOVED_OBJECTIVE = {
    "lobatto-nodal": "0x1.0ac1bbf7564a2p+0",
    "legendre-nodal": "0x1.a922801812817p+0",
    "bernstein": "0x1.40a88b4cf5679p-2",
    "legendre-modal": "0x1.9554e3690d115p-1",
}


def _hex(*arrays):
    return [float(v).hex() for a in arrays for v in np.ravel(a)]


@pytest.mark.parametrize("family", FAMILIES)
def test_box_solves_keep_their_bits(family):
    # the box solves' arithmetic is pinned to the bit, so the tables that
    # optimize_nodes writes stay byte-identical (same machine dependence
    # as test_shipped_table_regenerates_byte_identically)
    basis = make_basis(family, 3)
    eta = make_node_set("equispaced", 5).array()
    active = _active_sets(basis)
    for _ in ("cold", "warm"):
        q_lo, q_up = _raw_boxes(basis, eta, active)
        assert _hex(q_lo, q_up) == _GOLDEN_RAW_BOXES[family].split()
    moved = _nodes_from_z(np.array([0.2, -0.1]), 5)
    assert _raw_objective(basis, moved, active).hex() == _GOLDEN_MOVED_OBJECTIVE[family]


def test_node_search_solves_each_node_set_once(monkeypatch):
    # BFGS's line searches and finite-difference probes come back to node
    # sets it has evaluated; those must not be solved again
    from polybound import boxopt
    seen = []

    def counting(basis, eta, active):
        seen.append(eta.tobytes())
        return _raw_objective(basis, eta, active)

    monkeypatch.setattr(boxopt, "_raw_objective", counting)
    optimize_nodes(make_basis("lobatto-nodal", 2), 4, restarts=8, seed=0)
    assert seen and len(set(seen)) == len(seen)


def test_node_search_keeps_its_bits():
    table = optimize_nodes(make_basis("lobatto-nodal", 2), 4, restarts=2, maxiter=20, seed=3)
    assert _hex(table.eta(), table.q_lower, table.q_upper) == _GOLDEN_NODE_SEARCH.split()


def test_tablegen_node_search_keeps_its_bits():
    # a p=3 search reaches supports and node sets the p=2 pin above does not
    table = optimize_nodes(make_basis("lobatto-nodal", 3), 5, restarts=2, maxiter=20, seed=0)
    assert _hex(table.eta(), table.q_lower, table.q_upper) == _GOLDEN_NODE_SEARCH_P3.split()


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(FAMILIES), p=st.integers(1, 7), extra=st.sampled_from([0, 2]),
       seed=st.integers(0, 2**32 - 1))
# a row the nodes almost fit exactly: the start keeps one coefficient of
# 7e-15, the inner loop drops it with the entering column, and the outer
# loop must carry on from the empty support
@example(family="legendre-modal", p=6, extra=2, seed=2000)
def test_raw_boxes_warm_start_matches_cold(family, p, extra, seed):
    M = p + 1 + extra
    assume(M >= 4)
    basis = make_basis(family, p)
    rng = np.random.default_rng(seed)
    eta1, eta2 = (_nodes_from_z(rng.normal(0.0, 0.5, M // 2), M) for _ in range(2))
    active = _active_sets(basis)
    _raw_boxes(basis, eta1, active)
    warm_lo, warm_up = _raw_boxes(basis, eta2, active)
    cold_lo, cold_up = _raw_boxes(basis, eta2, _active_sets(basis))
    for warm, cold in ((warm_lo, cold_lo), (warm_up, cold_up)):
        assert (np.abs(warm - cold) <= 1e-12 * np.maximum(1.0, np.abs(cold))).all()
    x = np.linspace(-1.0, 1.0, _N_SAMPLES)
    A, Phi = hat_matrix(eta2, x), basis_matrix(basis, x)
    assert (A @ warm_up.T >= Phi - 1e-12).all()
    assert (A @ warm_lo.T <= Phi + 1e-12).all()


@pytest.mark.parametrize("family", FAMILIES)
def test_nnls_reaches_cold_optimum_from_any_start(family):
    # the NNLS duals of the box subproblems at fixed nodes, as _upper_qp
    # builds them; every start must end at the cold optimum, with KKT
    basis = make_basis(family, 3)
    x = np.linspace(-1.0, 1.0, _N_SAMPLES)
    Q, _ = np.linalg.qr(hat_matrix(make_node_set("equispaced", 5).array(), x))
    Phi = basis_matrix(basis, x)
    rng = np.random.default_rng(7)
    for b in np.concatenate([Phi, -Phi], axis=1).T:
        resid = b - Q @ (Q.T @ b)
        if np.abs(resid).max() < 1e-12:
            continue  # b is piecewise linear on the nodes: the box is b itself
        E = np.vstack([Q.T, resid[None, :]])
        f = np.zeros(E.shape[0])
        f[-1] = 1.0
        support = np.zeros(_N_SAMPLES, dtype=bool)
        cold = _nnls(E, f, support)
        assert support.any()
        starts = (np.ones(_N_SAMPLES, dtype=bool), rng.uniform(size=_N_SAMPLES) < 0.3,
                  support.copy())
        for start in starts:
            u = _nnls(E, f, start)
            np.testing.assert_array_equal(start, u > 0.0)
            assert u.min() >= 0.0
            np.testing.assert_allclose(E @ u - f, E @ cold - f, rtol=0.0, atol=1e-12)
            w = E.T @ (f - E @ u)
            assert w.max() <= 1e-12 and np.abs(w[start]).max() <= 1e-12


def _same_array(x, y):
    return (x.shape == y.shape and x.flags.c_contiguous == y.flags.c_contiguous
            and x.flags.f_contiguous == y.flags.f_contiguous and x.tobytes() == y.tobytes())


def test_lstsq_matches_numpy_bit_for_bit():
    # NNLS supports as _upper_qp makes them: m = M + 1 rows of [Q^T; resid],
    # 1..m+2 sample columns, so also more columns than rows
    rng = np.random.default_rng(5)
    x = _SAMPLE_POINTS
    Phi = basis_matrix(make_basis("lobatto-nodal", 7), x)
    for M in range(2, 22):
        eta = _nodes_from_z(rng.normal(0.0, 0.3, M // 2), M)
        Q = np.linalg.qr(hat_matrix(eta, x))[0]
        b = Phi[:, M % 8]
        E = np.vstack([Q.T, (b - Q @ (Q.T @ b))[None, :]])
        e_last = np.zeros(M + 1)
        e_last[-1] = 1.0
        for k in range(1, M + 4):
            A = E[:, np.sort(rng.choice(_N_SAMPLES, k, replace=False))]
            repeated = A.copy()
            repeated[:, -1] = A[:, 0]  # rank deficient (k = 1: A itself)
            # a singular value between the cutoffs eps min(m, k) and
            # eps max(m, k) relative to the largest: numpy's choice decides
            U, sv, Vt = np.linalg.svd(A, full_matrices=False)
            sv[-1] = sv[0] * np.finfo(float).eps * np.sqrt((M + 1) * k)
            for a in (A, repeated, (U * sv) @ Vt):
                for f in (e_last, rng.normal(size=M + 1)):
                    want = np.linalg.lstsq(a, f, rcond=None)[0]
                    assert _same_array(_lstsq(a.copy(), f), want), (M, k)


def test_qr_matches_numpy_bit_for_bit_and_in_layout():
    x = _SAMPLE_POINTS
    for M in [*range(2, 22), 160]:  # past 128 columns LAPACK's QR runs blocked
        H = hat_matrix(make_node_set("equispaced", M).array(), x)
        Q, R = _qr(H)
        want_Q, want_R = np.linalg.qr(H)
        assert _same_array(Q, want_Q) and _same_array(R, want_R), M


def test_upper_qp_refuses_an_incompatible_constraint_set():
    # A = [1, -1]^T, b = [1, 1]: q >= 1 and -q >= 1 cannot both hold, which
    # no hat matrix allows, since its columns sum to 1
    Q, R = _qr(np.array([[1.0], [-1.0]]))
    E = np.empty((2, 2), order="F")
    E[:1] = Q.T
    with pytest.raises(BoxOptimizationError, match="incompatible constraint set"):
        _upper_qp(Q, R, np.ones(2), np.zeros(2, dtype=bool), E, np.array([0.0, 1.0]))


def test_lapack_failures_raise(monkeypatch):
    from types import SimpleNamespace
    from polybound import boxopt
    # a NaN stops dgelsd (info != 0), as it stops np.linalg.lstsq
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.lstsq(np.full((4, 2), np.nan), np.ones(4), rcond=None)
    with pytest.raises(np.linalg.LinAlgError, match="dgelsd failed"):
        _lstsq(np.full((4, 2), np.nan), np.ones(4))
    H = hat_matrix(make_node_set("equispaced", 5).array(), _SAMPLE_POINTS)
    _qr(H)  # caches the workspace sizes
    lapack = boxopt._lapack()
    for routine in ("dgeqrf", "dorgqr"):
        def failing(*args, _routine=routine, **kwargs):
            return (*getattr(lapack, _routine)(*args, **kwargs)[:-1], -1)
        fake = SimpleNamespace(**{"dgeqrf": lapack.dgeqrf, "dorgqr": lapack.dorgqr, routine: failing})
        monkeypatch.setattr(boxopt, "_lapack", lambda fake=fake: fake)
        with pytest.raises(np.linalg.LinAlgError, match=f"{routine} failed with info=-1"):
            _qr(H)


def test_trivial_p1_box_is_tight():
    basis = make_basis("lobatto-nodal", 1)
    t = optimize_values(basis, make_node_set("equispaced", 2))
    # hat functions are already piecewise linear: boxes hug them to epsilon
    np.testing.assert_allclose(t.q_upper - t.q_lower, t.epsilon * 2, atol=5e-6)


def test_save_load_round_trip(tmp_path, p3_table):
    path = tmp_path / "t.txt"
    save_table(p3_table, path)
    back = load_table(path)
    np.testing.assert_array_equal(back.q_lower, p3_table.q_lower)
    np.testing.assert_array_equal(back.q_upper, p3_table.q_upper)
    np.testing.assert_array_equal(back.eta(), p3_table.eta())
    assert back.basis == p3_table.basis
    assert back.provenance == "loaded-from-file"
    # serialization is a fixed point after one round trip
    save_table(back, tmp_path / "t2.txt")
    save_table(load_table(tmp_path / "t2.txt"), tmp_path / "t3.txt")
    assert (tmp_path / "t2.txt").read_text() == (tmp_path / "t3.txt").read_text()


def test_load_reads_an_old_padded_provenance_as_loaded_from_file(tmp_path):
    shipped = load_table(_data_dir() / "tables" / "lobatto-nodal-p1-M4.txt")  # optimized-here
    path = tmp_path / "t.txt"
    save_table(shipped, path)
    text = path.read_text()
    path.write_text(text.replace("provenance=loaded-from-file", "provenance=optimized-here-padded"))
    assert "provenance=optimized-here-padded" in path.read_text()
    back = load_table(path)
    assert back.provenance == "loaded-from-file"
    np.testing.assert_array_equal(back.q_upper, shipped.q_upper)


def test_load_rejects_tampered_table(tmp_path, p3_table):
    path = tmp_path / "bad.txt"
    save_table(p3_table, path)
    lines = path.read_text().splitlines()
    for k, line in enumerate(lines):
        if line.startswith("U 1:"):
            parts = line.split()
            parts[2] = str(float(parts[2]) - 0.8)  # push bound below the basis
            lines[k] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(BoxOptimizationError) as err:
        load_table(path)
    # the message alone names the file, the margin and the row
    found = re.fullmatch(r"(.*): table violates its bounding property "
                         r"\(margin (\S+)\) in row U 1", str(err.value))
    assert found and found[1] == str(path)
    assert float(found[2]) < -1e-6


@pytest.mark.parametrize("name, row, shift", [
    ("lobatto-nodal-p3-M5.txt", "U 3", -1e-3),
    ("lobatto-nodal-p3-M5.txt", "L 1", 1e-3),
    ("lobatto-nodal-p2-M3.txt", "U 2", -1e-3),
    ("lobatto-nodal-p6-M7.txt", "U 7", -1e-3),
])
def test_load_names_the_row_that_fails_verification(name, row, shift, tmp_path):
    lines = (_data_dir() / "tables" / name).read_text().splitlines()
    k = next(k for k, line in enumerate(lines) if line.startswith(row + ":"))
    values = [float(v) + shift for v in lines[k].split(":")[1].split()]
    lines[k] = f"{row}: " + " ".join(repr(v) for v in values)
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(BoxOptimizationError, match=f"in row {row}$"):
        load_table(path)


def test_load_refuses_a_row_whose_gap_norm_overflows(tmp_path):
    lines = (_data_dir() / "tables" / "lobatto-nodal-p2-M3.txt").read_text().splitlines()
    lines = ["U 1: 1e200 1e200 1e200" if line.startswith("U 1:") else line for line in lines]
    path = tmp_path / "t.txt"
    path.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BoxOptimizationError,
                           match=r"t\.txt: table gap norm is not finite \(eps2 inf\) in row U 1$"):
            load_table(path)


def test_load_rejects_malformed_header(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not-a-table v9\n")
    with pytest.raises(FormatError):
        load_table(path)


def test_standard_table_env_override(tmp_path, p3_table, monkeypatch):
    name = f"{p3_table.basis.family}-p3-M5.txt"
    save_table(p3_table, tmp_path / name)
    monkeypatch.delenv("POLYBOUND_TABLE_DIR", raising=False)
    shipped = standard_table("lobatto-nodal", 3, 5)
    # setting the directory after a first lookup still takes effect
    monkeypatch.setenv("POLYBOUND_TABLE_DIR", str(tmp_path))
    got = standard_table("lobatto-nodal", 3, 5)
    np.testing.assert_array_equal(got.q_lower, p3_table.q_lower)
    assert not np.array_equal(got.q_lower, shipped.q_lower)
    monkeypatch.delenv("POLYBOUND_TABLE_DIR")
    np.testing.assert_array_equal(standard_table("lobatto-nodal", 3, 5).q_lower, shipped.q_lower)


def test_optimize_values_rejects_bad_nodes():
    basis = make_basis("lobatto-nodal", 3)
    with pytest.raises(ValueError):
        NodeSet([-1.0, -0.5, 1.0])
    with pytest.raises(ValueError):
        make_node_set("equispaced", 1)


def test_offset_correction_raises_all_rows_feasible():
    basis = make_basis("lobatto-nodal", 2)
    nodes = make_node_set("equispaced", 4)
    raw = optimize_values(basis, nodes)
    # degrade the upper rows, then ask for correction
    q_up = raw.q_upper - 0.05
    q_lo = raw.q_lower + 0.05
    fixed_lo, fixed_up = offset_correction(basis, nodes, q_lo, q_up)
    x = np.linspace(-1, 1, 1500)
    Phi = basis_matrix(basis, x)
    eta = nodes.array()
    for i in range(basis.N):
        assert (_pl_eval(eta, fixed_up[i], x) >= Phi[:, i] - 1e-12).all()
        assert (_pl_eval(eta, fixed_lo[i], x) <= Phi[:, i] + 1e-12).all()


def _failing_eigvals(a):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def test_failed_margin_eigen_solve_raises_naming_a_row(monkeypatch):
    t = load_table(_data_dir() / "tables" / "lobatto-nodal-p3-M5.txt")
    monkeypatch.setattr(np.linalg, "eigvals", _failing_eigvals)
    with pytest.raises(BoxOptimizationError, match=r"^margin eigen solve failed "
                       r"\(Eigenvalues did not converge\) in row U 1$"):
        _continuous_min_gaps(t.basis, t.eta(), t.q_lower, t.q_upper)


def test_load_table_names_the_file_when_a_margin_eigen_solve_fails(monkeypatch):
    path = _data_dir() / "tables" / "lobatto-nodal-p3-M5.txt"
    monkeypatch.setattr(np.linalg, "eigvals", _failing_eigvals)
    with pytest.raises(BoxOptimizationError) as err:
        load_table(path)
    assert str(err.value).startswith(f"{path}: margin eigen solve failed")
    assert str(err.value).endswith("in row U 1")


def _row_min_gap(dphi, phi_c, eta, row):
    """Continuous minimum of U(x) - phi(x) for a PL row U, one span and one
    chebroots call at a time: the reference for the batched
    _continuous_min_gaps, which must reproduce it bit for bit."""
    d2phi = cheb.chebder(dphi) if dphi.size > 1 else np.zeros(1)
    best = np.inf
    for j in range(eta.size - 1):
        a, b = eta[j], eta[j + 1]
        slope = (row[j + 1] - row[j]) / (b - a)
        crit = [a, b]
        dg = -dphi.copy()
        dg[0] += slope
        dgt = np.trim_zeros(np.where(np.abs(dg) < 1e-14 * max(1.0, np.abs(dg).max()), 0.0, dg), "b")
        if dgt.size > 1:
            roots = cheb.chebroots(dgt)
            roots = roots[np.abs(roots.imag) < 1e-10].real
            roots = roots[(roots > a - _ROOT_TOL) & (roots < b + _ROOT_TOL)]
            if roots.size:
                dgv = cheb.chebval(roots, dgt)
                d2v = cheb.chebval(roots, -d2phi)
                ok = np.abs(d2v) > 1e-14
                roots = np.where(ok, roots - dgv / np.where(ok, d2v, 1.0), roots)
                crit.extend(np.clip(roots, a, b))
        xs = np.asarray(crit)
        gap = row[j] + slope * (xs - a) - cheb.chebval(xs, phi_c)
        span = float(gap.min())
        best = min(best, -np.inf if np.isnan(span) else span)  # NaN fails the span
    return best


def _assert_min_gaps_match_reference(basis, eta, q_lower, q_upper):
    C = cheb_coeffs(basis)
    ref_lo, ref_up = np.empty((2, len(q_upper)))
    for i in range(len(q_upper)):
        phi_c = C[:, i]
        dphi = cheb.chebder(phi_c)
        ref_up[i] = _row_min_gap(dphi, phi_c, eta, q_upper[i])
        ref_lo[i] = _row_min_gap(-dphi, -phi_c, eta, -q_lower[i])
    lo, up = _continuous_min_gaps(basis, eta, q_lower, q_upper)
    np.testing.assert_array_equal(lo, ref_lo)
    np.testing.assert_array_equal(up, ref_up)


@pytest.mark.parametrize("path", sorted((_data_dir() / "tables").glob("*.txt")),
                         ids=lambda path: path.stem)
def test_min_gaps_match_the_per_span_loop_on_shipped_tables(path):
    t = load_table(path)
    _assert_min_gaps_match_reference(t.basis, t.eta(), t.q_lower, t.q_upper)


@settings(max_examples=80, deadline=None)
@given(family=st.sampled_from(FAMILIES), p=st.integers(1, 7), extra=st.integers(0, 6),
       noise=st.sampled_from([0.0, 1e-3, 0.1]), seed=st.integers(0, 2**32 - 1))
# one pass whose problems trim to different lengths: the gap derivatives of
# the modes run from all-zero (the constant and linear modes, interpolated
# exactly) through length 2 (closed-form root) to lengths 3 and 4 (two
# eigen solves)
@example(family="legendre-modal", p=4, extra=2, noise=0.0, seed=0)
def test_min_gaps_match_the_per_span_loop(family, p, extra, noise, seed):
    M = p + 1 + extra
    basis = make_basis(family, p)
    rng = np.random.default_rng(seed)
    eta = _nodes_from_z(rng.normal(0.0, 0.5, M // 2), M)
    q = basis_matrix(basis, eta).T
    q_lower = q - noise * rng.uniform(size=q.shape)
    q_upper = q + noise * rng.uniform(size=q.shape)
    _assert_min_gaps_match_reference(basis, eta, q_lower, q_upper)


def test_table_load_imports_neither_numpy_ma_nor_scipy():
    # both cost tens of milliseconds in a fresh process, paid by every
    # program that only loads a table
    code = """
import sys
import polybound
polybound.standard_table("lobatto-nodal", 3, 4)
print(sorted(m for m in ("numpy.ma", "scipy") if m in sys.modules))
"""
    src = str(Path(polybound.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert out.stdout.splitlines()[-1] == "[]"
