"""End-to-end acceptance gate, one test per shipped guarantee.

These run the package the way a downstream user would: shipped tables,
public entry points, brute-force oracles, wall-clock budgets. They are
slower than the unit tests (the transport runs dominate); keep them in
one file so a plain `pytest tests/test_acceptance.py` is the gate.
"""

import time

import numpy as np
import pytest

from polybound.basis import (NodeSet, change_basis, gauss_legendre_rule, basis_matrix, make_basis,
                             make_node_set)
from polybound.boxopt import (
    load_table,
    optimize_values,
    reference_table_paths,
    standard_table,
    verify_table,
)
from polybound.bounder import (
    PolyCoeffs,
    _p1_ops,
    bernstein_bounds,
    bound_nodes,
    brute_force_extrema,
    sampled_extrema,
)
from polybound.limiter import (
    _mean_batch,
    _operators,
    advance,
    apply_limiter,
    sample_extrema,
    squeeze_alpha,
    step_interpolation_table,
    total_mass,
    transport_state,
)
from polybound.meshcheck import (
    CurvedMesh,
    check_mesh,
    classify_element,
    detj_coeffs,
    detj_tables,
    mirror_element,
    perturb_mesh,
    read_mesh,
    refinement_ladder,
    uniform_mesh,
)


def test_1_soundness_suite():
    """Random polynomials never escape their certified global bounds."""
    t0 = time.perf_counter()
    n_polys = 1000
    for N in range(3, 9):
        p = N - 1
        basis = make_basis("lobatto-nodal", p)
        tables = [standard_table("lobatto-nodal", p, M) for M in (N, N + 1, N + 2)]
        for d in (1, 2):
            rng = np.random.default_rng(1000 * N + d)
            shape = (n_polys, N) if d == 1 else (n_polys, N, N)
            coeffs = rng.normal(size=shape)

            per_dim = 10_000 if d == 1 else 100  # 1e4 samples total
            oracle = np.stack(sampled_extrema(coeffs, basis, d, per_dim), axis=1)

            node_axes = tuple(range(1, d + 1))
            for table in tables:
                lower, upper = bound_nodes(coeffs, table, d)
                gmin = lower.min(axis=node_axes)
                gmax = upper.max(axis=node_axes)
                low_ok = oracle[:, 0] >= gmin - 1e-12
                high_ok = oracle[:, 1] <= gmax + 1e-12
                bad = np.count_nonzero(~(low_ok & high_ok))
                assert bad == 0, (
                    f"N={N} M={table.nodes.M} d={d}: {bad} escapes, worst "
                    f"low {float((oracle[:, 0] - gmin).min()):.2e} "
                    f"high {float((gmax - oracle[:, 1]).min()):.2e}"
                )
    assert time.perf_counter() - t0 < 120.0


def test_2_reference_table_reproduction():
    """The optimizer reproduces the shipped low-order reference values,
    and every shipped fixture passes verification."""
    paths = reference_table_paths()
    assert len(paths) >= 9
    checked = 0
    for path in paths:
        ref = load_table(path)
        assert verify_table(ref).max_violation >= -1e-12, path.name
        if ref.basis.p > 4:
            continue
        mine = optimize_values(ref.basis, NodeSet(ref.eta()))
        dq_lo = np.abs(mine.q_lower - ref.q_lower).max()
        dq_up = np.abs(mine.q_upper - ref.q_upper).max()
        assert max(dq_lo, dq_up) < 2e-3, (path.name, dq_lo, dq_up)
        checked += 1
    assert checked >= 9


def test_3_step_function_table():
    """Step-interpolant extrema: exact and Bernstein rows to 4 decimals,
    optimized row to 5e-3, strictly inside Bernstein at every order."""
    t0 = time.perf_counter()
    exact_pub = [0.6286, 0.5342, 0.6368, 0.5340, 0.6389]
    bern_pub = [1.1967, 0.7116, 3.0758, 1.1040, 8.8450]
    present_pub = [0.6530, 0.5867, 0.6780, 0.6236, 0.7080]
    rows = step_interpolation_table(orders=range(3, 8))
    for k in range(5):
        lo_e, hi_e = rows["exact"][k]
        lo_b, hi_b = rows["bernstein"][k]
        lo_p, hi_p = rows["present"][k]
        assert abs(hi_e - exact_pub[k]) <= 5e-5
        assert abs(-lo_e - exact_pub[k]) <= 5e-5
        assert abs(hi_b - bern_pub[k]) <= 5e-5
        assert abs(-lo_b - bern_pub[k]) <= 5e-5
        assert abs(hi_p - present_pub[k]) <= 5e-3
        assert abs(-lo_p - present_pub[k]) <= 5e-3
        assert max(-lo_p, hi_p) < max(-lo_b, hi_b)
    assert time.perf_counter() - t0 < 10.0


def test_4_node_set_convergence():
    """Mean box gap decays like M^-2 for every node family, and the
    optimized nodes are at least as tight as each fixed family."""
    basis = make_basis("lobatto-nodal", 3)
    Ms = np.arange(4, 21)
    eps = {}
    eps["optimized"] = [
        verify_table(standard_table("lobatto-nodal", 3, int(M))).eps2 for M in Ms
    ]
    for kind in ("equispaced", "gauss-lobatto", "chebyshev"):
        eps[kind] = [
            verify_table(optimize_values(basis, make_node_set(kind, int(M)))).eps2
            for M in Ms
        ]
    for kind, vals in eps.items():
        slope = np.polyfit(np.log(Ms), np.log(vals), 1)[0]
        assert -2.5 <= slope <= -1.5, (kind, slope)
    for k, M in enumerate(Ms):
        for kind in ("equispaced", "gauss-lobatto", "chebyshev"):
            assert eps["optimized"][k] <= eps[kind][k] + 1e-9, (kind, int(M))


def test_5_mesh_validity():
    """Near-degenerate fixture is caught within budget and beats the
    Bernstein ladder; random meshes never get certified wrongly."""
    from polybound.boxopt import _data_dir

    mesh = read_mesh(_data_dir() / "meshes" / "near-degenerate-p2.txt")
    coeffs = detj_coeffs(mesh.elements[0], 2)
    oracle_min, _ = brute_force_extrema(coeffs, 400)
    assert -2.2e-4 <= oracle_min <= -1.8e-4

    tables = detj_tables(2)
    report = classify_element(mesh.elements[0], tables, tol=1e-4, max_levels=8)
    assert report.status == "invalid"
    assert report.levels_used <= 6
    lo, hi = report.min_detj_interval
    assert lo - 1e-12 <= oracle_min <= hi + 1e-12

    for row in refinement_ladder(coeffs, tables[-1], levels=6):
        assert row["table_lower"] >= row["bernstein_lower"] - 1e-12, row

    meshes = []
    for seed in range(10):
        meshes.append(perturb_mesh(uniform_mesh(2, 2, 2), 0.12, seed=seed))
    for seed in range(10, 15):
        meshes.append(perturb_mesh(uniform_mesh(2, 2, 2), 0.30, seed=seed))
    for seed in range(5):
        base = perturb_mesh(uniform_mesh(2, 2, 2), 0.08, seed=100 + seed)
        els = [e.copy() for e in base.elements]
        els[seed % 4] = mirror_element(els[seed % 4])
        meshes.append(CurvedMesh(2, els))
    assert len(meshes) == 20

    misclassified = 0
    statuses = set()
    for mesh in meshes:
        report = check_mesh(mesh, tables, tol=1e-4)
        for er in report.elements:
            c = detj_coeffs(mesh.elements[er.index], mesh.p)
            lo, _ = brute_force_extrema(c, 100)  # 1e4 samples
            statuses.add(er.status)
            if er.status == "valid" and lo <= 0:
                misclassified += 1
            if er.status == "invalid" and lo >= 0:
                misclassified += 1
    assert misclassified == 0
    assert {"valid", "invalid"} <= statuses  # both outcomes exercised


def test_6_solid_body_rotation():
    """One revolution of the three-shape profile stays inside [0,1] at
    every snapshot, conserves mass, and sharpens with resolution."""
    results = {}
    for ne in (16, 32):
        t0 = time.perf_counter()
        p = 3
        table = standard_table("lobatto-nodal", p, p + 1)
        state = apply_limiter(transport_state(ne, p), table)
        m0 = total_mass(state)
        snapshots = [state]
        for _ in range(4):
            state = advance(state, 0.25, table)
            snapshots.append(state)
        wall = time.perf_counter() - t0

        for k, snap in enumerate(snapshots):
            smin, smax = sample_extrema(snap, 32)
            assert smin >= -1e-12, (ne, k, smin)
            assert smax <= 1.0 + 1e-12, (ne, k, smax)
        drift = abs(total_mass(state) - m0) / abs(m0)
        assert drift <= 1e-10, (ne, drift)
        results[ne] = {
            "max": sample_extrema(state, 32)[1],
            "wall": wall,
        }
    assert results[32]["max"] > results[16]["max"]
    assert results[32]["wall"] < 300.0


def test_7_property_suite():
    """Pinned numerical invariants across the library."""
    rng = np.random.default_rng(7)

    # shift/scale invariance of the bound gap
    table = standard_table("lobatto-nodal", 4, 6)
    for _ in range(50):
        c = rng.normal(size=5)
        alpha, beta = 10.0 ** rng.uniform(-3, 3), rng.normal() * 10
        lo1, up1 = bound_nodes(c, table, 1)
        lo2, up2 = bound_nodes(alpha * c + beta, table, 1)
        scale = max(1.0, alpha * float(np.abs(up1 - lo1).max()))
        assert np.abs((up2 - lo2) - alpha * (up1 - lo1)).max() <= 1e-10 * scale
        assert np.abs(lo2 - (alpha * lo1 + beta)).max() <= 1e-10 * scale

    # P1 projection residual, through the operator the sweep uses, is
    # orthogonal to {1, x}
    xg, wg = gauss_legendre_rule(7)
    for fam in ("lobatto-nodal", "legendre-modal", "bernstein"):
        b = make_basis(fam, 5)
        V = basis_matrix(b, xg)
        P = _p1_ops(b)[2]
        for _ in range(20):
            vals = V @ (rng.normal(size=6) @ P)
            assert abs(wg @ vals) < 1e-12
            assert abs(wg @ (xg * vals)) < 1e-12

    # change of basis round trips
    for fam in ("legendre-modal", "bernstein", "legendre-nodal"):
        for p in (2, 4, 6):
            src = make_basis("lobatto-nodal", p)
            c = PolyCoeffs(1, src, rng.normal(size=p + 1))
            back = change_basis(change_basis(c, make_basis(fam, p)), src)
            assert np.abs(back.u - c.u).max() < 1e-10

    # limiting preserves element means
    state = transport_state(8, 3)
    out = apply_limiter(state, standard_table("lobatto-nodal", 3, 4))
    ops = _operators(8, 3)
    assert np.abs(_mean_batch(out.U, ops) - _mean_batch(state.U, ops)).max() <= 1e-13

    # squeeze factor stays in [0,1] over 1e5 randomized inputs
    n = 100_000
    mean = rng.uniform(0.0, 1.0, size=n)
    u_min = mean - np.abs(rng.normal(size=n)) * 10.0 ** rng.uniform(-16, 2, size=n)
    u_max = mean + np.abs(rng.normal(size=n)) * 10.0 ** rng.uniform(-16, 2, size=n)
    alpha = squeeze_alpha(mean, u_min, u_max, 0.0, 1.0)
    assert alpha.shape == (n,)
    assert np.all((alpha >= 0.0) & (alpha <= 1.0))
