import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import polybound
from polybound import bounder
from polybound.basis import basis_matrix, make_basis, make_node_set
from polybound.boxopt import (_data_dir, load_table, optimize_values, save_table, standard_table,
                              table_file_name)
from polybound.bounder import PolyCoeffs, write_coeffs
from polybound.cli import _mesh_oracle_violations, _symmetry_ok, main
from polybound.meshcheck import (CurvedMesh, ValidityReport, check_mesh, detj_tables, mirror_element,
                                 perturb_mesh, uniform_mesh, write_mesh)

FIXTURE_MESH = _data_dir() / "meshes" / "near-degenerate-p2.txt"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--version"])
    assert ei.value.code == 0


def test_missing_subcommand_exits_one():
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 1


def test_unknown_flag_exits_one():
    with pytest.raises(SystemExit) as ei:
        main(["bound", "--not-a-flag"])
    assert ei.value.code == 1


# -- boxgen -----------------------------------------------------------------


def test_boxgen_deterministic(tmp_path, capsys):
    argv = ["boxgen", "--family", "lobatto", "--p", "2", "--m", "3",
            "--nodes", "optimized", "--restarts", "2", "--seed", "0"]
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    assert main(argv + ["-o", str(out1)]) == 0
    assert main(argv + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = capsys.readouterr().out
    assert "eps2" in text
    table = load_table(out1)
    assert table.basis == make_basis("lobatto-nodal", 2)


def test_boxgen_refuses_the_table_it_wrote_when_it_fails_verification(tmp_path, monkeypatch,
                                                                     capsys):
    def lowered(basis, nodes):  # U 2 lowered below its basis function
        table = optimize_values(basis, nodes)
        q_upper = table.q_upper.copy()
        q_upper[1] -= 0.1
        return dataclasses.replace(table, q_upper=q_upper)

    monkeypatch.setattr(polybound.cli, "optimize_values", lowered)
    out = tmp_path / "bad.txt"
    assert main(["boxgen", "--p", "2", "--m", "4", "--nodes", "gll", "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"wrote {out}" in captured.out and "max_violation = -" in captured.out
    assert "violates its bounding property" in captured.err and "in row U 2" in captured.err


def test_boxgen_fixed_nodes_alias(tmp_path):
    out = tmp_path / "gll.txt"
    rc = main(["boxgen", "--family", "legendre", "--p", "3", "--m", "5",
               "--nodes", "gll", "-o", str(out)])
    assert rc == 0
    from polybound.basis import gauss_lobatto_nodes

    table = load_table(out)
    assert table.nodes.M == 5
    np.testing.assert_allclose(table.eta(), gauss_lobatto_nodes(5), atol=1e-12)


def test_boxgen_default_m_is_p_plus_one(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["boxgen", "--p", "2", "--nodes", "cheb"])
    assert rc == 0
    assert (tmp_path / "lobatto-nodal-p2-M3.txt").exists()


def test_boxgen_writes_by_default_the_file_standard_table_finds(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("POLYBOUND_TABLE_DIR", str(tmp_path))
    assert main(["boxgen", "--family", "bernstein", "--p", "2", "--nodes", "gll"]) == 0
    written = load_table(tmp_path / table_file_name("bernstein", 2, 3))
    found = standard_table("bernstein", 2, 3)  # no bernstein table ships
    assert found.eta().tobytes() == written.eta().tobytes()
    assert found.q_upper.tobytes() == written.q_upper.tobytes()


def test_boxgen_rejects_bad_family(capsys):
    assert main(["boxgen", "--family", "fourier", "--p", "2"]) == 1
    assert "unknown basis family" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["lobatto", "legendre", "bernstein", "modal"])
def test_boxgen_names_a_bad_order(family, tmp_path, capsys):
    argv = ["boxgen", "--family", family, "--p", "0", "-o", str(tmp_path / "t.txt")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: order must be >= 1, got 0\n"


@pytest.mark.parametrize("flags", [["--p", "0"], ["--m", "1"], ["--seed", "-1"],
                                   ["--p", "2", "--m", "3", "--seed", "-1"],
                                   ["--p", "2", "--m", "3", "--restarts", "-5"]])
def test_boxgen_rejects_out_of_range_arguments(flags, tmp_path, capsys):
    assert main(["boxgen", "-o", str(tmp_path / "t.txt")] + flags) == 1
    assert "error" in capsys.readouterr().err


def test_boxgen_exits_two_when_a_box_solve_fails(tmp_path, monkeypatch, capsys):
    def degenerate(E, f, passive):  # an NNLS answer whose residual ends in 0
        j = int(np.argmax(E[-1]))
        u = np.zeros(E.shape[1])
        u[j] = 1.0 / E[-1, j]
        return u

    monkeypatch.setattr(polybound.boxopt, "_nnls", degenerate)
    out = tmp_path / "t.txt"
    assert main(["boxgen", "--p", "2", "--m", "4", "--nodes", "gll", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: incompatible constraint set in box subproblem\n"
    assert not out.exists()


def test_boxgen_names_a_node_whose_hat_function_no_fit_sample_reaches(tmp_path, capsys):
    # 120 Gauss-Lobatto nodes: no fit sample lies strictly between -1 and eta[2]
    out = tmp_path / "t.txt"
    assert main(["boxgen", "--p", "2", "--m", "120", "--nodes", "gll", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the hat function of control node 1 (eta = -0.9994859")
    assert "holds none of the 1000 fit samples" in err and not out.exists()


# -- bound ------------------------------------------------------------------


def test_bound_step_column(capsys):
    assert main(["bound", "--step", "--order", "5"]) == 0
    out = capsys.readouterr().out
    assert "0.6368" in out
    assert "3.0758" in out
    assert "0.6780" in out
    assert "-98.3%" in out


def test_bound_coeffs_file_with_oracle(tmp_path, capsys):
    rng = np.random.default_rng(5)
    basis = make_basis("lobatto-nodal", 3)
    path = tmp_path / "c.txt"
    write_coeffs(PolyCoeffs(1, basis, rng.normal(size=4)), path)
    assert main(["bound", str(path), "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "global bounds" in out
    assert "oracle" in out
    assert "bernstein" in out


def test_bound_2d_subdivide(tmp_path, capsys):
    rng = np.random.default_rng(6)
    basis = make_basis("lobatto-nodal", 3)
    path = tmp_path / "c2.txt"
    write_coeffs(PolyCoeffs(2, basis, rng.normal(size=(4, 4))), path)
    assert main(["bound", str(path), "--subdivide", "2", "--tol", "1e-3"]) == 0
    out = capsys.readouterr().out
    assert "global bounds" in out


def test_bound_3d_subdivide_past_the_memory_budget(tmp_path, capsys, monkeypatch):
    # a third level would store 262,144 cells, ~580 MB, past a 64 MiB budget;
    # refinement ends one level early
    monkeypatch.setattr(bounder, "_GENERATION_BYTES", 64 << 20)
    path = tmp_path / "c3.txt"
    u = np.random.default_rng(0).standard_normal((3, 3, 3))
    write_coeffs(PolyCoeffs(3, make_basis("lobatto-nodal", 2), u), path)
    assert main(["bound", str(path), "--m", "5", "--subdivide", "3", "--tol", "1e-12"]) == 0
    out = capsys.readouterr().out
    assert "adaptive bounds after 2 level(s), converged=False" in out


def _coeffs_and_mesh(tmp_path):
    coeffs, mesh = tmp_path / "c.txt", tmp_path / "m.txt"
    write_coeffs(PolyCoeffs(2, make_basis("lobatto-nodal", 3), np.ones((4, 4))), coeffs)
    write_mesh(uniform_mesh(2, 2, 2), mesh)
    return {"COEFFS": str(coeffs), "MESH": str(mesh)}


@pytest.mark.parametrize("argv, named", [
    (["bound", "COEFFS", "--m", "0"], "need M >= 2 control nodes, got M=0"),
    (["checkmesh", "MESH", "--m", "0"], "--m 0"),
    (["bound", "COEFFS", "--subdivide", "-3"], "max_levels must be >= 0, got -3"),
    (["checkmesh", "MESH", "--max-levels", "-1"], "max_levels must be >= 0, got -1"),
    (["limit-demo", "--elements", "0"], "elements=0"),
    (["limit-demo", "--elements", "-2"], "elements=-2"),
    (["bound", "COEFFS", "--subdivide", "3", "--tol", "nan"], "tol must be positive, got nan"),
    (["checkmesh", "MESH", "--tol", "nan"], "tol must be positive, got nan"),
    (["limit-demo", "--elements", "2", "--tfinal", "inf"], "tfinal=inf"),
    (["limit-demo", "--elements", "2", "--tfinal", "nan"], "tfinal=nan"),
    (["limit-demo", "--elements", "2", "--tfinal", "-1"], "tfinal=-1.0"),
], ids=["bound-m0", "checkmesh-m0", "bound-negative-subdivide", "checkmesh-negative-levels",
        "limit-demo-no-elements", "limit-demo-negative-elements", "bound-nan-tol",
        "checkmesh-nan-tol", "limit-demo-infinite-tfinal", "limit-demo-nan-tfinal",
        "limit-demo-negative-tfinal"])
def test_bad_numeric_arguments_exit_one_naming_the_value(argv, named, tmp_path, capsys):
    files = _coeffs_and_mesh(tmp_path)
    assert main([files.get(a, a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err and "Traceback" not in err


def test_checkmesh_short_ladder_names_the_option(tmp_path, capsys):
    files = _coeffs_and_mesh(tmp_path)
    assert main(["checkmesh", files["MESH"], "--m", "2"]) == 1
    assert capsys.readouterr().err == "error: --m 2: m=2 is below the 4 nodes of det J of order 3\n"


def test_bound_missing_file():
    assert main(["bound", "/nonexistent/coeffs.txt"]) == 1


def test_bound_no_file_no_step():
    assert main(["bound"]) == 1


def _bound_with_edited_table(tmp_path, monkeypatch, edit):
    """Run `bound` with the shipped p=3, M=4 table's `L 2` values passed through edit."""
    name = "lobatto-nodal-p3-M4.txt"
    lines = (_data_dir() / "tables" / name).read_text().splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("L 2:"))
    lines[k] = "L 2: " + " ".join(edit(lines[k][len("L 2:"):].split()))
    (tmp_path / name).write_text("\n".join(lines) + "\n")
    monkeypatch.setenv("POLYBOUND_TABLE_DIR", str(tmp_path))
    path = tmp_path / "c.txt"
    write_coeffs(PolyCoeffs(1, make_basis("lobatto-nodal", 3), np.ones(4)), path)
    return main(["bound", str(path)])


def test_bound_refuses_lines_after_last_record(tmp_path, capsys):
    path = tmp_path / "c.txt"
    write_coeffs(PolyCoeffs(1, make_basis("lobatto-nodal", 3), np.ones(4)), path)
    path.write_text(path.read_text() + "1 2 3 4\n\n")
    assert main(["bound", str(path)]) == 1
    assert "line 4: unexpected content after the last record" in capsys.readouterr().err


def test_bound_with_table_failing_verification(tmp_path, monkeypatch, capsys):
    raise_values = lambda values: [repr(float(v) + 0.5) for v in values]
    assert _bound_with_edited_table(tmp_path, monkeypatch, raise_values) == 2
    assert "violates its bounding property" in capsys.readouterr().err


def test_bound_with_non_finite_table(tmp_path, monkeypatch, capsys):
    first_nan = lambda values: ["nan"] + values[1:]
    assert _bound_with_edited_table(tmp_path, monkeypatch, first_nan) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "finite" in err


def test_bound_with_table_whose_gap_norm_overflows(tmp_path, monkeypatch, capsys):
    # L 2 lies 1e200 below phi_2: its margin holds, but its squared gap overflows
    far_below = lambda values: ["-1e200"] * len(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _bound_with_edited_table(tmp_path, monkeypatch, far_below) == 2
    assert "gap norm is not finite (eps2 inf) in row L 2" in capsys.readouterr().err


def test_bound_with_overflowing_table_row(tmp_path, monkeypatch, capsys):
    # U 1 lies 1e308 below phi_1 at x = -1, but its slope overflows, so its
    # gap there is inf * 0: a NaN gap fails the margin, and load_table refuses
    lines = (_data_dir() / "tables" / "lobatto-nodal-p1-M2.txt").read_text().splitlines()
    lines[3], lines[5] = "L 1: -1.7e308 -1e308", "U 1: -1e308 1e308"
    (tmp_path / "lobatto-nodal-p1-M2.txt").write_text("\n".join(lines) + "\n")
    monkeypatch.setenv("POLYBOUND_TABLE_DIR", str(tmp_path))
    path = tmp_path / "c.txt"
    write_coeffs(PolyCoeffs(1, make_basis("lobatto-nodal", 1), np.ones(2)), path)
    assert main(["bound", str(path)]) == 2
    assert "violates its bounding property (margin -inf)" in capsys.readouterr().err


def test_bound_with_table_whose_lower_values_exceed_its_upper_ones(tmp_path, monkeypatch, capsys):
    # each envelope is phi at the nodes, 5e-13 to the wrong side: the margin
    # passes verification's -1e-12, and the crossed rows are refused after it
    basis, nodes = make_basis("lobatto-nodal", 1), make_node_set("equispaced", 3)
    phi = basis_matrix(basis, nodes.array()).T
    table = dataclasses.replace(optimize_values(basis, nodes), q_lower=phi + 5e-13,
                                q_upper=phi - 5e-13)
    path = tmp_path / table_file_name("lobatto-nodal", 1, 3)
    save_table(table, path)
    monkeypatch.setenv("POLYBOUND_TABLE_DIR", str(tmp_path))
    coeffs = tmp_path / "c.txt"
    write_coeffs(PolyCoeffs(1, basis, np.ones(2)), coeffs)
    assert main(["bound", str(coeffs), "--m", "3"]) == 1
    assert capsys.readouterr().err == f"error: {path}: lower values exceed upper values\n"


@pytest.mark.parametrize("dim, p, big, extra, stage", [
    pytest.param(2, 2, 1e308, [], "with the M=3 table", id="2-2-1e+308"),
    pytest.param(1, 3, 1.7e308, [], "with the M=4 table", id="1-3-1.7e+308"),
    pytest.param(2, 2, 1e308, ["--subdivide", "2"], "at refinement level 0",
                 id="2-2-1e+308-subdivide"),
])
def test_bound_overflowing_coefficients_exit_two(dim, p, big, extra, stage, tmp_path, capsys):
    # finite coefficients whose node bounds overflow certify nothing
    u = np.linspace(-1.0, 1.0, (p + 1) ** dim)
    u[1] = big
    path = tmp_path / "c.txt"
    write_coeffs(PolyCoeffs(dim, make_basis("lobatto-nodal", p), u), path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["bound", str(path)] + extra) == 2
    assert not caught  # overflow is reported by the error line alone
    captured = capsys.readouterr()
    assert f"error: polynomial: node bounds not finite {stage}" in captured.err
    assert "global bounds" not in captured.out


# -- checkmesh --------------------------------------------------------------


def test_checkmesh_valid(tmp_path, capsys):
    mesh = perturb_mesh(uniform_mesh(2, 2, 2), 0.05, seed=1)
    path = tmp_path / "m.txt"
    write_mesh(mesh, path)
    assert main(["checkmesh", str(path)]) == 0
    out = capsys.readouterr().out
    assert "4 valid, 0 invalid" in out


def test_checkmesh_shipped_invalid_fixture(capsys):
    assert main(["checkmesh", str(FIXTURE_MESH), "--oracle"]) == 2
    out = capsys.readouterr().out
    assert "invalid" in out
    assert "0 interval-soundness violation(s)" in out


def test_checkmesh_oracle_ignores_samples_above_the_certified_upper_end(tmp_path, capsys):
    # at 12 samples per axis some sampled minima miss the true minimum and land
    # above the upper end, a node's upper bound; that is no bound failure
    path = tmp_path / "m.txt"
    write_mesh(perturb_mesh(uniform_mesh(20, 20, 3), 0.2, seed=3), path)
    main(["checkmesh", str(path), "--oracle", "--samples", "12"])
    assert "oracle: 0 interval-soundness violation(s)" in capsys.readouterr().out


def test_checkmesh_oracle_counts_a_lower_end_above_the_sampled_minimum():
    mesh = uniform_mesh(2, 2, 2)
    report = check_mesh(mesh, detj_tables(mesh.p), tol=1e-4)
    assert _mesh_oracle_violations(mesh, report, 12) == 0
    er = report.elements[1]
    lo, hi = er.min_detj_interval
    raised = dataclasses.replace(er, min_detj_interval=(lo + 1.0, hi + 1.0))
    elements = report.elements[:1] + (raised,) + report.elements[2:]
    assert _mesh_oracle_violations(mesh, ValidityReport(elements), 12) == 1


def test_checkmesh_flipped_element(tmp_path, capsys):
    mesh = uniform_mesh(2, 2, 2)
    els = [e.copy() for e in mesh.elements]
    els[0] = mirror_element(els[0])
    path = tmp_path / "flip.txt"
    write_mesh(CurvedMesh(2, els), path)
    assert main(["checkmesh", str(path)]) == 2
    assert "3 valid, 1 invalid" in capsys.readouterr().out


def test_checkmesh_overflowing_det_j_exits_two(tmp_path, capsys):
    mesh = uniform_mesh(2, 1, 2)
    nodes = mesh.elements.copy()
    nodes[1, 4, 0] = 1e308  # finite, but det J overflows
    path = tmp_path / "m.txt"
    write_mesh(CurvedMesh(2, nodes), path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["checkmesh", str(path)]) == 2
    assert not caught  # overflow is reported by the error line alone
    captured = capsys.readouterr()
    assert "error: element 1: det J bounds not finite at refinement level 0" in captured.err
    assert "valid" not in captured.out


def test_checkmesh_empty_mesh(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("polybound-mesh v1\ndim=2 p=2 elements=0\n")
    assert main(["checkmesh", str(path)]) == 0
    assert "0 valid, 0 invalid, 0 indeterminate of 0" in capsys.readouterr().out


def test_checkmesh_negative_element_count(tmp_path, capsys):
    path = tmp_path / "negative.txt"
    path.write_text("polybound-mesh v1\ndim=2 p=2 elements=-3\n")
    assert main(["checkmesh", str(path)]) == 1
    assert "negative element count" in capsys.readouterr().err


def test_checkmesh_refuses_lines_after_last_record(tmp_path, capsys):
    path = tmp_path / "m.txt"
    write_mesh(uniform_mesh(2, 1, 2), path)
    lines = path.read_text().splitlines()
    assert lines[1] == "dim=2 p=2 elements=2"
    lines[1] = "dim=2 p=2 elements=1"  # the second element line is left over
    path.write_text("\n".join(lines) + "\n")
    assert main(["checkmesh", str(path)]) == 1
    assert "line 4: unexpected content after the last record" in capsys.readouterr().err


def test_checkmesh_malformed_file(tmp_path, capsys):
    path = tmp_path / "junk.txt"
    path.write_text("not a mesh\n")
    assert main(["checkmesh", str(path)]) == 1
    assert "error" in capsys.readouterr().err


# -- limit-demo -------------------------------------------------------------


def test_limit_demo_short_run(capsys):
    rc = main(["limit-demo", "--elements", "4", "--order", "2",
               "--tfinal", "0.02", "--samples", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "limiter on" in out
    assert "mass drift" in out


def test_limit_demo_with_zero_initial_mass_reports_absolute_drift(capsys):
    # at p = 1 on 2x2 elements no GLL node lies inside a shape, so the mass is 0
    rc = main(["limit-demo", "--elements", "2", "--order", "1", "--tfinal", "0.01"])
    assert rc == 0
    assert "absolute mass drift: 0.000e+00" in capsys.readouterr().out


def test_limit_demo_report_file(tmp_path, capsys):
    report = tmp_path / "summary.txt"
    rc = main(["limit-demo", "--elements", "4", "--order", "2",
               "--tfinal", "0.02", "--samples", "8", "--report", str(report)])
    assert rc == 0
    text = report.read_text()
    assert "grid" in text and "sampled min" in text
    assert "4^2" in text.replace(" ", "")


def test_limit_demo_no_limiter(capsys):
    rc = main(["limit-demo", "--elements", "4", "--order", "2",
               "--tfinal", "0.02", "--samples", "8", "--no-limiter"])
    assert rc == 0
    assert "limiter off" in capsys.readouterr().out


# -- soundness alarms -------------------------------------------------------


def _shrunk(table):
    """The table with both envelopes collapsed onto their midline."""
    mid = 0.5 * (table.q_lower + table.q_upper)
    return dataclasses.replace(table, q_lower=mid, q_upper=mid)


def _coeffs_file(tmp_path, u):
    path = tmp_path / "c.txt"
    write_coeffs(PolyCoeffs(1, make_basis("lobatto-nodal", 3), np.array(u, dtype=float)), path)
    return str(path)


def _mesh_file(tmp_path):
    path = tmp_path / "m.txt"
    write_mesh(perturb_mesh(uniform_mesh(3, 3, 2), 0.15, seed=7), path)
    return str(path)


@pytest.mark.parametrize("argv, code, stream, alarm", [
    (lambda tmp: ["bound", _coeffs_file(tmp, [0, 1, 1, 0]), "--oracle"], 2, "err",
     "BOUND VIOLATION against oracle"),
    # the midline still covers this polynomial's extrema
    (lambda tmp: ["bound", _coeffs_file(tmp, [0.1, 1, -0.8, 0.3]), "--oracle"], 0, "err", None),
    (lambda tmp: ["checkmesh", _mesh_file(tmp), "--oracle"], 2, "out",
     "oracle: 2 interval-soundness violation(s)"),
    (lambda tmp: ["limit-demo", "--elements", "4", "--tfinal", "0.02"], 2, "err",
     "bounds violated despite limiter"),
], ids=["bound", "bound-covered", "checkmesh", "limit-demo"])
def test_soundness_alarms_catch_a_table_that_bounds_nothing(argv, code, stream, alarm, tmp_path,
                                                            monkeypatch, capsys):
    standard, ladder = polybound.cli.standard_table, polybound.cli.detj_tables
    monkeypatch.setattr(polybound.cli, "standard_table",
                        lambda *args, **kwargs: _shrunk(standard(*args, **kwargs)))
    monkeypatch.setattr(polybound.cli, "detj_tables",
                        lambda *args, **kwargs: [_shrunk(t) for t in ladder(*args, **kwargs)])
    assert main(argv(tmp_path)) == code
    text = getattr(capsys.readouterr(), stream)
    if alarm is None:
        assert "VIOLATION" not in text
    else:
        assert alarm in text


# -- tables -----------------------------------------------------------------


def test_tables_reproduction(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out
    assert "Control nodes eta" in out


def test_symmetry_check_rederives_the_mirrored_rows():
    ref = load_table(_data_dir() / "tables" / "lobatto-nodal-p3-M4.txt")
    modal = optimize_values(make_basis("legendre-modal", 3), make_node_set("gauss-lobatto", 5))
    assert _symmetry_ok(ref) and _symmetry_ok(modal)
    moved = ref.q_upper.copy()
    moved[3, 1] += 1e-5  # row 3 is row 0 reversed
    assert not _symmetry_ok(dataclasses.replace(ref, q_upper=moved))
    moved = modal.q_lower.copy()
    moved[1, 2] += 1e-5  # an odd mode's lower row is its upper row negated
    assert not _symmetry_ok(dataclasses.replace(modal, q_lower=moved))


# -- imports ----------------------------------------------------------------


def test_bounding_never_imports_scipy():
    # scipy serves only table generation; a fresh process that loads tables
    # and bounds with them must not pay for importing it
    code = f"""
import sys
import numpy as np
import polybound, polybound.cli, polybound.limiter, polybound.meshcheck
from polybound.bounder import PolyCoeffs, bound_adaptive
ladder = [polybound.standard_table("lobatto-nodal", 3, M) for M in (4, 5, 6)]
bound_adaptive(PolyCoeffs(2, ladder[0].basis, np.arange(16.0) % 5), ladder, 1e-3)
assert polybound.cli.main(["checkmesh", {str(FIXTURE_MESH)!r}]) == 2
assert polybound.cli.main(["limit-demo", "--elements", "4", "--order", "2",
                           "--tfinal", "0.02", "--samples", "8"]) == 0
print(sorted(m for m in ("scipy.linalg", "scipy.optimize") if m in sys.modules))
"""
    src = str(Path(polybound.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert out.stdout.splitlines()[-1] == "[]"
