import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polybound.basis import (FAMILIES, basis_matrix, hat_matrix, make_basis, make_node_set,
                             mirror_pairs)
from polybound.boxopt import (
    _N_SAMPLES,
    BoxOptimizationError,
    TableFormatError,
    _active_sets,
    _data_dir,
    _nnls,
    _nodes_from_z,
    _raw_boxes,
    load_table,
    offset_correction,
    optimize_nodes,
    optimize_values,
    reference_table,
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
    n = 240
    x = np.linspace(-1, 1, n)
    A = np.zeros((n, 4))
    for j in range(4):
        e = np.zeros(4)
        e[j] = 1.0
        A[:, j] = _pl_eval(eta, e, x)
    q_lo_raw, q_up_raw, failures = _raw_boxes(basis, eta, n, _active_sets(basis, n))
    assert not failures
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
    ref = reference_table(2, 3)
    basis = ref.basis
    recomputed = optimize_values(
        basis, make_node_set("optimized", 3, positions=ref.eta())
    )
    assert np.max(np.abs(recomputed.q_lower - ref.q_lower)) < 2e-3
    assert np.max(np.abs(recomputed.q_upper - ref.q_upper)) < 2e-3


def test_all_reference_fixtures_verify():
    paths = reference_table_paths()
    assert len(paths) == 15
    for path in paths:
        rep = verify_table(load_table(path))
        assert rep.max_violation >= -1e-12, path.name


def test_reference_table_refuses_shipped_optimized_and_missing_tables():
    assert reference_table(3, 4).provenance == "reference"
    for p, M in [(3, 7), (1, 2), (9, 9)]:
        with pytest.raises(FileNotFoundError):
            reference_table(p, M)


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


def test_shipped_table_regenerates_byte_identically(tmp_path):
    # the shipped p1-M4 table was written by optimize_nodes with these
    # settings; rerunning them must reproduce the file exactly
    table = optimize_nodes(make_basis("lobatto-nodal", 1), 4, restarts=8, maxiter=60)
    save_table(table, tmp_path / "t.txt")
    shipped = _data_dir() / "tables" / "lobatto-nodal-p1-M4.txt"
    assert (tmp_path / "t.txt").read_bytes() == shipped.read_bytes()


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
    active = _active_sets(basis, _N_SAMPLES)
    _raw_boxes(basis, eta1, _N_SAMPLES, active)
    warm_lo, warm_up, warm_failures = _raw_boxes(basis, eta2, _N_SAMPLES, active)
    cold_lo, cold_up, cold_failures = _raw_boxes(basis, eta2, _N_SAMPLES,
                                                 _active_sets(basis, _N_SAMPLES))
    assert warm_failures == cold_failures
    for warm, cold in ((warm_lo, cold_lo), (warm_up, cold_up)):
        assert (np.abs(warm - cold) <= 1e-12 * np.maximum(1.0, np.abs(cold))).all()
    if not cold_failures:
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
    with pytest.raises(BoxOptimizationError):
        load_table(path)
    # force=True lets diagnostic tooling look at a broken file
    t = load_table(path, force=True)
    assert verify_table(t).max_violation < -1e-6


def test_load_rejects_malformed_header(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not-a-table v9\n")
    with pytest.raises(TableFormatError):
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
    assert standard_table("lobatto-nodal", 3, 5) is shipped


def test_optimize_values_rejects_bad_nodes():
    basis = make_basis("lobatto-nodal", 3)
    with pytest.raises(ValueError):
        make_node_set("optimized", 3, positions=[-1.0, -0.5, 1.0])
    with pytest.raises(ValueError):
        make_node_set("equispaced", 1)


def test_offset_correction_raises_all_rows_feasible():
    basis = make_basis("lobatto-nodal", 2)
    nodes = make_node_set("equispaced", 4)
    raw = optimize_values(basis, nodes)
    # degrade the upper rows, then ask for correction
    q_up = raw.q_upper - 0.05
    q_lo = raw.q_lower + 0.05
    fixed_lo, fixed_up, padded = offset_correction(basis, nodes, q_lo, q_up)
    assert not padded
    x = np.linspace(-1, 1, 1500)
    Phi = basis_matrix(basis, x)
    eta = nodes.array()
    for i in range(basis.N):
        assert (_pl_eval(eta, fixed_up[i], x) >= Phi[:, i] - 1e-12).all()
        assert (_pl_eval(eta, fixed_lo[i], x) <= Phi[:, i] + 1e-12).all()


def test_sampled_fallback_encloses_and_is_conservative(monkeypatch):
    from polybound import boxopt

    def no_roots(c):
        raise np.linalg.LinAlgError("root finder unavailable")

    basis = make_basis("lobatto-nodal", 3)
    monkeypatch.setattr(boxopt._cheb, "chebroots", no_roots)
    t = optimize_values(basis, make_node_set("equispaced", 5))
    assert t.provenance == "optimized-here-padded"
    x = np.linspace(-1, 1, 4003)
    Phi = basis_matrix(basis, x)
    eta = t.eta()
    for i in range(basis.N):
        assert (_pl_eval(eta, t.q_lower[i], x) <= Phi[:, i] + 1e-12).all()
        assert (_pl_eval(eta, t.q_upper[i], x) >= Phi[:, i] - 1e-12).all()
    lo_sampled, up_sampled, padded = boxopt._continuous_min_gaps(basis, eta, t.q_lower, t.q_upper)
    assert padded
    monkeypatch.undo()
    lo, up, padded = boxopt._continuous_min_gaps(basis, eta, t.q_lower, t.q_upper)
    assert not padded
    # the Lipschitz deduction keeps both sides' sampled margins below the
    # exact ones, and costs under 1e-3 on the 10,000-point grid
    assert (lo_sampled <= lo).all() and (up_sampled <= up).all()
    assert (lo - lo_sampled < 1e-3).all() and (up - up_sampled < 1e-3).all()
