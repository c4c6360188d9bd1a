"""The three text readers: shared header rules, counts before work, fuzzing.

Each fuzz case starts from a valid coefficient, mesh or table file,
mutates its lines and checks that the reader fails only with a
ValueError (FormatError among them) and that the CLI command
reading that file ends with exit 1 or 2 and an ``error:`` line.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from polybound import bounder, boxopt, meshcheck
from polybound.basis import FormatError, NodeSet, _floats, _read_text, make_basis
from polybound.boxopt import BoxOptimizationError, load_table, save_table
from polybound.bounder import BoundingTable, PolyCoeffs, read_coeffs, write_coeffs
from polybound.cli import main
from polybound.meshcheck import (CurvedMesh, perturb_mesh, read_mesh, uniform_mesh,
                                 write_mesh)

TABLE_NAME = "lobatto-nodal-p2-M3.txt"
TABLE_LINES = (boxopt._data_dir() / "tables" / TABLE_NAME).read_text().splitlines()


def _lines(write, obj, tmp_path):
    path = tmp_path / "valid.txt"
    write(obj, path)
    return path.read_text().splitlines()


@pytest.fixture(scope="module")
def coeffs_lines(tmp_path_factory):
    c = PolyCoeffs(2, make_basis("lobatto-nodal", 2), np.arange(9.0) / 9)
    return _lines(write_coeffs, c, tmp_path_factory.mktemp("coeffs"))


@pytest.fixture(scope="module")
def mesh_lines(tmp_path_factory):
    mesh = perturb_mesh(uniform_mesh(2, 1, 2), 0.05, seed=1)
    return _lines(write_mesh, mesh, tmp_path_factory.mktemp("mesh"))


def test_readers_allow_trailing_blank_lines(tmp_path, coeffs_lines, mesh_lines):
    for lines, reader in ((coeffs_lines, read_coeffs), (mesh_lines, read_mesh),
                          (TABLE_LINES, load_table)):
        path = tmp_path / "file.txt"
        path.write_text("\n".join(lines) + "\n\n  \n")
        reader(path)
        path.write_text("\n".join(lines + lines[-1:]) + "\n")
        with pytest.raises(ValueError, match=f"line {len(lines) + 1}: unexpected content"):
            reader(path)


def _tiny_table():
    basis = make_basis("lobatto-nodal", 1)
    return BoundingTable(basis, NodeSet([-1.0, 0.0, 1.0]), [[-0.1, 0.4, 1.0], [0.0, 0.5, 1.1]],
                         [[1.0, 0.6, 0.0], [0.1, 0.6, 1.0 + 2**-52]], 1e-6, "optimized-here")


@pytest.mark.parametrize("write, obj, text", [
    (write_coeffs, PolyCoeffs(1, make_basis("lobatto-nodal", 1), [0.1, -2.5]),
     "polybound-coeffs v1\n"
     "dim=1 family=lobatto-nodal p=1\n"
     "0.10000000000000001 -2.5\n"),
    (write_mesh, CurvedMesh(1, [[[0.0, 0.0], [1.0, 0.0], [1 / 3, 1.0], [1.0, 0.1 + 0.2]]]),
     "polybound-mesh v1\n"
     "dim=2 p=1 elements=1\n"
     "0 0 1 0 0.33333333333333331 1 1 0.30000000000000004\n"),
    (write_mesh, CurvedMesh(2, []),
     "polybound-mesh v1\n"
     "dim=2 p=2 elements=0\n"),
    (save_table, _tiny_table(),
     "polybound-table v1\n"
     "family=lobatto-nodal p=1 M=3 epsilon=9.9999999999999995e-07 provenance=optimized-here\n"
     "nodes: -1 0 1\n"
     "L 1: -0.10000000000000001 0.40000000000000002 1\n"
     "L 2: 0 0.5 1.1000000000000001\n"
     "U 1: 1 0.59999999999999998 0\n"
     "U 2: 0.10000000000000001 0.59999999999999998 1.0000000000000002\n"),
], ids=["coeffs", "mesh", "empty-mesh", "table"])
def test_writers_write_the_exact_text(write, obj, text, tmp_path):
    path = tmp_path / "out.txt"
    write(obj, path)
    assert path.read_bytes() == text.encode()


def test_readers_check_counts_before_building_the_basis(tmp_path, monkeypatch):
    def refuse(family, p):
        raise AssertionError(f"make_basis({family!r}, {p}) reached before the counts")

    monkeypatch.setattr(bounder, "make_basis", refuse)
    monkeypatch.setattr(boxopt, "make_basis", refuse)
    path = tmp_path / "c.txt"
    path.write_text("polybound-coeffs v1\ndim=1 family=lobatto-nodal p=8000\n1 2 3\n")
    with pytest.raises(FormatError, match="expected 8001 values, got 3"):
        read_coeffs(path)
    path.write_text("\n".join([TABLE_LINES[0], TABLE_LINES[1].replace("p=2", "p=8000")]
                              + TABLE_LINES[2:]) + "\n")
    with pytest.raises(FormatError, match="expected 16003 record lines, found 7"):
        load_table(path)
    short_row = [line.rsplit(" ", 1)[0] if line.startswith("U 3:") else line
                 for line in TABLE_LINES]
    path.write_text("\n".join(short_row) + "\n")
    with pytest.raises(FormatError, match="U 3:: expected 3 values, got 2"):
        load_table(path)


@pytest.mark.parametrize("argv, name, text, message", [
    (["bound", "FILE"], "c.txt", "polybound-coeffs v1\ndim=4 family=lobatto-nodal p=1\n1 2\n",
     "dim must be 1, 2, or 3"),
    (["bound", "FILE"], "c.txt", "polybound-coeffs v1\n", "truncated, missing metadata line"),
    (["checkmesh", "FILE"], "m.txt", "polybound-mesh v1\ndim=3 p=2 elements=0\n",
     "only dim=2 meshes are supported"),
    (["checkmesh", "FILE"], "m.txt", "polybound-mesh v1\ndim=2 p=9 elements=0\n",
     "geometric order must be 1..8"),
    # p=-2 asks for 1 + 2 (p + 1) = -1 records
    (["bound", "COEFFS"], "lobatto-nodal-p1-M2.txt",
     "polybound-table v1\nfamily=lobatto-nodal p=-2 M=2 epsilon=1e-06 provenance=reference\n",
     "negative record count -1"),
], ids=["coeffs-dim", "truncated", "mesh-dim", "mesh-order", "negative-count"])
def test_reader_refusals_exit_one_naming_the_file(argv, name, text, message, tmp_path,
                                                  monkeypatch, capsys):
    path, coeffs = tmp_path / name, tmp_path / "p1.txt"
    path.write_text(text)
    write_coeffs(PolyCoeffs(1, make_basis("lobatto-nodal", 1), [0.0, 1.0]), coeffs)
    monkeypatch.setenv("POLYBOUND_TABLE_DIR", str(tmp_path))
    files = {"FILE": str(path), "COEFFS": str(coeffs)}
    assert main([files.get(arg, arg) for arg in argv]) == 1
    assert f"error: {path}: {message}" in capsys.readouterr().err


# tokens float() reads, tokens it refuses, and record shapes one loadtxt
# call refuses; each replaces one record value or a whole record
FLOAT_TOKENS = ["nan", "-nan", "inf", "-inf", "1e999", "-0", "1e-320", "1_0", "\u0661\u0662"]
BAD_TOKENS = ["#", "1__0", "0x10"]


def _parse_or_message(parse):
    try:
        return np.asarray(parse(), dtype=float)
    except FormatError as err:
        return str(err)


@pytest.mark.parametrize("record", [
    *[[t] for t in FLOAT_TOKENS + BAD_TOKENS], FLOAT_TOKENS, ["ragged"], ["blank"],
    ["blank-first"], ["extra"],
], ids=lambda r: "+".join(r))
@pytest.mark.filterwarnings("error")
def test_bulk_mesh_parse_matches_record_by_record(record, mesh_lines, tmp_path):
    lines = list(mesh_lines)
    values = lines[3].split()
    if record == ["ragged"]:
        lines[3] = " ".join(values[:-1])
    elif record == ["blank"]:
        lines[3] = "   "
    elif record == ["blank-first"]:
        lines[2] = lines[3] = ""
    elif record == ["extra"]:
        lines[2] += " 1.5"
        lines[3] += " 1.5"
    else:
        values[1:1 + len(record)] = record
        lines[3] = " ".join(values)
    path = tmp_path / "m.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _, records = _read_text(path, "polybound-mesh v1", meshcheck._mesh_count,
                            dim=int, p=int, elements=int)
    want = len(mesh_lines[2].split())
    bulk = _parse_or_message(lambda: meshcheck._element_values(records, want, path))
    one_by_one = _parse_or_message(lambda: [
        _floats(line, want, f"{path}: element {k}")
        for k, line in enumerate(records)])
    if isinstance(one_by_one, str):
        assert bulk == one_by_one and f"{path}: element " in bulk
    else:
        assert bulk.shape == one_by_one.shape and bulk.tobytes() == one_by_one.tobytes()


def test_well_formed_mesh_parses_in_one_pass(mesh_lines, tmp_path, monkeypatch):
    path = tmp_path / "m.txt"
    path.write_text("\n".join(mesh_lines) + "\n")
    ref = read_mesh(path).elements

    def refuse(*args):
        raise AssertionError("record-by-record parse on a well-formed file")

    monkeypatch.setattr(meshcheck, "_floats", refuse)
    assert read_mesh(path).elements.tobytes() == ref.tobytes()


@pytest.mark.parametrize("token", ["nan", "inf", "1e999"])
def test_non_finite_values_are_format_errors_naming_the_file(token, coeffs_lines, mesh_lines,
                                                            tmp_path, capsys):
    cases = [(coeffs_lines, read_coeffs, FormatError, "bound", "coefficients must be finite"),
             (mesh_lines, read_mesh, FormatError, "checkmesh",
              "element 0: non-finite coordinates")]
    for lines, reader, error, command, message in cases:
        values = lines[2].split()
        values[1] = token
        path = tmp_path / f"{command}.txt"
        path.write_text("\n".join(lines[:2] + [" ".join(values)] + lines[3:]) + "\n")
        with pytest.raises(error, match=re.escape(f"{path}: {message}")):
            reader(path)
        assert main([command, str(path)]) == 1
        assert f"error: {path}: {message}" in capsys.readouterr().err


# -- fuzzing -----------------------------------------------------------------

# garbage, non-finite and negative values, large orders and counts
TOKENS = st.sampled_from(["", "x", "nan", "inf", "-inf", "-3", "-1", "0", "1", "2.5", "1e308",
                          "1e999", "9", "8000", "1000000", "L 1:", "="]) | st.text(max_size=4)


@st.composite
def mutated(draw, lines):
    """Drop, duplicate or truncate lines, or replace a token (a metadata value keeps its key)."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["drop", "duplicate", "truncate", "token"]))
        if action == "drop":
            del lines[i]
        elif action == "duplicate":
            lines.insert(i, lines[i])
        elif action == "truncate":
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
        else:
            tokens = lines[i].split(" ")
            j = draw(st.integers(0, len(tokens) - 1))
            key, eq, _ = tokens[j].partition("=")
            tokens[j] = key + eq + draw(TOKENS) if eq else draw(TOKENS)
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _fuzz_case(reader, failures, path, argv, capsys):
    """The reader raises only failures; the CLI then ends with 1 or 2 and error:."""
    try:
        reader(path)
        refused = False
    except failures:
        refused = True
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc in (0, 1, 2)
    if refused or rc == 1:
        assert rc in (1, 2) and "error:" in err, err


@FUZZ
@given(data=st.data())
def test_fuzz_coeffs_reader(data, coeffs_lines, tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text(data.draw(mutated(coeffs_lines)))
    _fuzz_case(read_coeffs, ValueError, path, ["bound", str(path)], capsys)


@FUZZ
@given(data=st.data())
def test_fuzz_mesh_reader(data, mesh_lines, tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text(data.draw(mutated(mesh_lines)))
    _fuzz_case(read_mesh, ValueError, path, ["checkmesh", str(path)], capsys)


@FUZZ
@given(data=st.data())
def test_fuzz_table_reader(data, coeffs_lines, tmp_path, capsys, monkeypatch):
    coeffs = tmp_path / "c.txt"
    coeffs.write_text("\n".join(coeffs_lines) + "\n")
    path = tmp_path / TABLE_NAME
    path.write_text(data.draw(mutated(TABLE_LINES)))
    monkeypatch.setenv("POLYBOUND_TABLE_DIR", str(tmp_path))
    _fuzz_case(load_table, (ValueError, BoxOptimizationError), path,
               ["bound", str(coeffs)], capsys)
