import copy
import math

import numpy as np
import pytest

from polybound import bounder, meshcheck
from polybound.basis import FormatError, gauss_lobatto_nodes
from polybound.boxopt import standard_table
from polybound.bounder import bound_adaptive, brute_force_extrema, eval_on_grid
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
    write_mesh,
)


@pytest.fixture(scope="module")
def tables_p2():
    return detj_tables(2)


def test_unit_square_detj_constant():
    mesh = uniform_mesh(1, 1, 2)
    c = detj_coeffs(mesh.elements[0], 2)
    x = np.linspace(-1, 1, 9)
    np.testing.assert_allclose(eval_on_grid(c, [x, x]), 0.25, atol=1e-13)


def test_detj_matches_finite_differences():
    mesh = perturb_mesh(uniform_mesh(2, 2, 3), 0.1, seed=4)
    el = mesh.elements[1]
    c = detj_coeffs(el, 3)
    # direct FD of the geometry mapping at an interior point
    t = np.asarray(np.array([0.21, -0.37]))

    def geom(xi, eta):
        from polybound.basis import basis_matrix, make_basis

        b = make_basis("lobatto-nodal", 3)
        wx = basis_matrix(b, np.array([xi]))[0]
        wy = basis_matrix(b, np.array([eta]))[0]
        X = el[:, 0].reshape(4, 4)
        Y = el[:, 1].reshape(4, 4)
        return wy @ X @ wx, wy @ Y @ wx

    h = 1e-6
    x_xi = (np.array(geom(t[0] + h, t[1])) - np.array(geom(t[0] - h, t[1]))) / (2 * h)
    x_eta = (np.array(geom(t[0], t[1] + h)) - np.array(geom(t[0], t[1] - h))) / (2 * h)
    det_fd = x_xi[0] * x_eta[1] - x_eta[0] * x_xi[1]
    got = eval_on_grid(c, [np.array([t[0]]), np.array([t[1]])])[0, 0]
    assert abs(got - det_fd) < 1e-8


def test_mirrored_element_flips_sign():
    mesh = uniform_mesh(1, 1, 2)
    c0 = detj_coeffs(mesh.elements[0], 2)
    c1 = detj_coeffs(mirror_element(mesh.elements[0]), 2)
    x = np.linspace(-1, 1, 7)
    np.testing.assert_allclose(
        eval_on_grid(c1, [x, x]), -eval_on_grid(c0, [-x, x]), atol=1e-13
    )


@pytest.mark.parametrize("n", [0, 1, 15, 17, 100])
def test_element_node_count_must_be_a_square(n, tables_p2):
    nodes = np.zeros((n, 2))
    with pytest.raises(ValueError, match=f"got {n} nodes"):
        mirror_element(nodes)
    with pytest.raises(ValueError, match=f"got {n} nodes"):
        classify_element(nodes, tables_p2, tol=1e-4)


def test_valid_mesh_all_valid(tables_p2):
    mesh = perturb_mesh(uniform_mesh(3, 3, 2), 0.08, seed=0)
    report = check_mesh(mesh, tables_p2, tol=1e-4)
    assert report.all_valid
    assert report.counts() == {"valid": 9, "invalid": 0, "indeterminate": 0}


def test_flipped_element_invalid(tables_p2):
    mesh = uniform_mesh(2, 2, 2)
    els = [e.copy() for e in mesh.elements]
    els[3] = mirror_element(els[3])
    report = check_mesh(CurvedMesh(2, els), tables_p2, tol=1e-4)
    statuses = [er.status for er in report.elements]
    assert statuses.count("invalid") == 1
    assert report.elements[3].status == "invalid"
    assert not report.all_valid


def test_check_mesh_blocks_match_single_elements(tables_p2):
    # side^2 elements fill more than one block, so they cross a block
    # boundary; mirrored elements add inversions, and elements of a 9x9
    # mesh's size refine past level 1 at this tol
    side = math.isqrt(meshcheck._BLOCK_ELEMENTS) + 1
    assert side * side > meshcheck._BLOCK_ELEMENTS
    mesh = perturb_mesh(uniform_mesh(side, side, 2), 0.15, seed=1)
    els = [mirror_element(e) if k % 7 == 3 else e for k, e in enumerate(mesh.elements)]
    mesh = CurvedMesh(2, np.multiply(els, side / 9))
    report = check_mesh(mesh, tables_p2, tol=1e-4)
    assert [er.index for er in report.elements] == list(range(side * side))
    assert all(report.counts().values())
    assert max(er.levels_used for er in report.elements) >= 2
    for er in report.elements:
        one = classify_element(mesh.elements[er.index], tables_p2, tol=1e-4)
        assert one.index == 0
        assert (er.status, er.levels_used, er.policy_invalid) == (
            one.status, one.levels_used, one.policy_invalid)
        np.testing.assert_allclose(er.min_detj_interval, one.min_detj_interval,
                                   rtol=1e-12)


def test_check_mesh_with_warm_and_fresh_table_scratch_agrees(tables_p2):
    # the warm tables' buffers last held a larger mesh's generations
    mesh = CurvedMesh(2, [mirror_element(e) if k % 7 == 3 else e for k, e in
                          enumerate(perturb_mesh(uniform_mesh(9, 9, 2), 0.15, seed=1).elements)])
    check_mesh(perturb_mesh(uniform_mesh(12, 12, 2), 0.2, seed=3), tables_p2, tol=1e-4)
    warm = check_mesh(mesh, tables_p2, tol=1e-4)
    fresh = check_mesh(mesh, copy.deepcopy(tables_p2), tol=1e-4)
    assert warm == fresh
    assert max(er.levels_used for er in warm.elements) >= 2 and warm.counts()["invalid"]


def test_check_mesh_stops_before_a_generation_past_the_memory_budget(monkeypatch):
    # det J = 3 xi^2 grazes zero along xi = 0, so the straddling spans
    # multiply: 2, 30 and 240 cells, then 1,680 storing ~2.2 MB against a
    # 1 MiB budget; both elements end at level 2 as max_levels=2 ends them
    s = gauss_lobatto_nodes(4)
    element = np.stack(np.meshgrid(s**3, s), axis=-1).reshape(-1, 2)
    mesh, tables = CurvedMesh(3, [element, 2.0 * element]), detj_tables(3)
    full = check_mesh(mesh, tables, tol=1e-4)
    capped = check_mesh(mesh, tables, tol=1e-4, max_levels=2)
    monkeypatch.setattr(bounder, "_GENERATION_BYTES", 1 << 20)
    report = check_mesh(mesh, tables, tol=1e-4)
    assert max(er.levels_used for er in full.elements) > 2
    assert report == capped
    assert [(er.status, er.levels_used) for er in report.elements] == [("indeterminate", 2)] * 2


def test_empty_mesh_gives_empty_report(tables_p2):
    report = check_mesh(CurvedMesh(2, ()), tables_p2, tol=1e-4)
    assert report.elements == () and report.all_valid


@pytest.mark.parametrize("elements", [0, 1])
def test_negative_level_budget_raises_whatever_the_mesh_size(tables_p2, elements):
    mesh = CurvedMesh(2, uniform_mesh(1, 1, 2).elements[:elements])
    with pytest.raises(ValueError, match="max_levels must be >= 0, got -1"):
        check_mesh(mesh, tables_p2, tol=1e-4, max_levels=-1)


@pytest.mark.parametrize("elements", [0, 1])
def test_bad_tol_and_tables_raise_whatever_the_mesh_size(tables_p2, elements):
    mesh = CurvedMesh(2, uniform_mesh(1, 1, 2).elements[:elements])
    with pytest.raises(ValueError, match="tol must be positive"):
        check_mesh(mesh, tables_p2, tol=-1.0)
    with pytest.raises(TypeError, match="BoundingTable"):
        check_mesh(mesh, ["not a table"], tol=1e-4)
    with pytest.raises(ValueError, match="at least one table"):
        check_mesh(mesh, [], tol=1e-4)
    with pytest.raises(ValueError, match="does not match"):
        check_mesh(mesh, detj_tables(3), tol=1e-4)


def test_short_ladder_names_the_argument():
    # a library caller passed m, not the CLI's --m
    with pytest.raises(ValueError) as err:
        detj_tables(2, 2)
    assert str(err.value) == "m=2 is below the 4 nodes of det J of order 3"


def test_ladder_falls_back_to_gauss_lobatto_nodes():
    # no optimized table of order 9 ships: p = 5 computes its whole ladder
    tables = detj_tables(5)
    for M, table in zip((10, 11, 12), tables, strict=True):
        assert table.provenance == "optimized-here"
        assert np.array_equal(table.eta(), gauss_lobatto_nodes(M))
    assert check_mesh(uniform_mesh(2, 2, 5), tables, tol=1e-4).counts()["valid"] == 4


def test_ladder_tables_must_match_the_basis(tables_p2):
    # another family with the same N is rejected even where the ladder
    # would never reach it: the element and the polynomial settle at once
    wrong = standard_table("legendre-nodal", 3, 6, kind="gauss-lobatto")
    ladder = [tables_p2[0], wrong]
    mesh = uniform_mesh(1, 1, 2)
    with pytest.raises(ValueError, match="does not match"):
        check_mesh(mesh, ladder, tol=1e-4)
    with pytest.raises(ValueError, match="does not match"):
        classify_element(mesh.elements[0], ladder, tol=1e-4)
    with pytest.raises(ValueError, match="does not match"):
        bound_adaptive(detj_coeffs(mesh.elements[0], 2), ladder, tol=1.0)


def test_intervals_are_sound(tables_p2):
    for seed in range(6):
        mesh = perturb_mesh(uniform_mesh(2, 2, 2), 0.12, seed=seed)
        report = check_mesh(mesh, tables_p2, tol=1e-4)
        for er in report.elements:
            c = detj_coeffs(mesh.elements[er.index], 2)
            lo, _ = brute_force_extrema(c, 160)
            ilo, ihi = er.min_detj_interval
            assert ilo - 1e-10 <= lo <= ihi + 1e-10


def test_shipped_near_degenerate_fixture(tables_p2):
    from polybound.boxopt import _data_dir

    path = _data_dir() / "meshes" / "near-degenerate-p2.txt"
    mesh = read_mesh(path)
    assert mesh.p == 2 and len(mesh.elements) == 1
    c = detj_coeffs(mesh.elements[0], 2)
    lo, _ = brute_force_extrema(c, 400)
    assert -2.2e-4 <= lo <= -1.8e-4
    report = classify_element(mesh.elements[0], tables_p2, tol=1e-4,
                              max_levels=8)
    assert report.status == "invalid"
    assert report.levels_used <= 6
    ilo, ihi = report.min_detj_interval
    assert ilo - 1e-10 <= lo <= ihi + 1e-10


def test_refinement_ladder_beats_bernstein(tables_p2):
    from polybound.boxopt import _data_dir

    mesh = read_mesh(_data_dir() / "meshes" / "near-degenerate-p2.txt")
    c = detj_coeffs(mesh.elements[0], 2)
    rows = refinement_ladder(c, tables_p2[-1], levels=4)
    assert len(rows) == 5
    for row in rows:
        assert row["table_lower"] >= row["bernstein_lower"] - 1e-12
    # deeper refinement must eventually prove the negative minimum
    assert rows[-1]["table_proves_negative"]


@pytest.mark.parametrize("scale, corner, level", [(1e308, 1.0, 0), (7.5e307, -1.0, 1)])
def test_refinement_ladder_names_the_level_of_non_finite_bounds(scale, corner, level):
    # nodal values of one sign but one corner; at 7.5e307 the bounds overflow
    # only once the halves are restricted
    table = standard_table("lobatto-nodal", 2, 3)
    values = np.full((3, 3), scale)
    values[2, 2] *= corner
    c = bounder.PolyCoeffs(2, table.basis, values)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(bounder.NonFiniteBoundsError,
                           match=f"node bounds not finite at refinement level {level}"):
            refinement_ladder(c, table, 3)


def test_indeterminate_on_exhausted_refinement(tables_p2):
    # a grazing element at zero tolerance and no levels cannot be settled
    mesh = read_mesh_graze()
    report = classify_element(mesh.elements[0], tables_p2[:1], tol=1e-12,
                              max_levels=0)
    assert report.status in ("indeterminate", "invalid")
    if report.status == "indeterminate":
        assert report.policy_invalid


def read_mesh_graze():
    from polybound.boxopt import _data_dir

    return read_mesh(_data_dir() / "meshes" / "near-degenerate-p2.txt")


def test_mesh_io_round_trip(tmp_path):
    mesh = perturb_mesh(uniform_mesh(2, 3, 3), 0.05, seed=9)
    path = tmp_path / "m.txt"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert back.p == mesh.p
    assert len(back.elements) == len(mesh.elements)
    for a, b in zip(back.elements, mesh.elements):
        np.testing.assert_allclose(a, b, atol=1e-15, rtol=0)


def test_mesh_format_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("nope\n")
    with pytest.raises(FormatError):
        read_mesh(p)
    p.write_text("polybound-mesh v1\ndim=2 p=2 elements=1\n1.0 2.0\n")
    with pytest.raises(FormatError) as ei:
        read_mesh(p)
    assert "element 0" in str(ei.value)
    p.write_text("polybound-mesh v1\ndim=2 p=2 elements=-3\n")
    with pytest.raises(FormatError, match="negative element count"):
        read_mesh(p)


def test_mesh_constructor_guards():
    with pytest.raises(ValueError):
        CurvedMesh(2, [np.zeros((5, 2))])  # wrong node count for p=2
    with pytest.raises(ValueError):
        CurvedMesh(0, [])


def test_mesh_is_one_read_only_array():
    mesh = uniform_mesh(3, 2, 2)
    assert mesh.elements.shape == (6, 9, 2) and not mesh.elements.flags.writeable
    assert len(mesh.elements) == mesh.n_elements == 6
    rebuilt = CurvedMesh(2, [e for e in mesh.elements])
    np.testing.assert_array_equal(rebuilt.elements, mesh.elements)
    assert CurvedMesh(2, ()).elements.shape == (0, 9, 2)
    bad = mesh.elements.copy()
    bad[4, 3, 1] = np.nan
    with pytest.raises(ValueError, match="element 4: non-finite"):
        CurvedMesh(2, bad)
