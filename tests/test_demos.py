"""The demos and the mesh fixture script run to the end, and the
scripts' imports resolve.

Each demo runs in its own interpreter, as its docstring says to run it.
gen_invalid_mesh.py runs into a temporary directory. gen_tables.py and
cache_traffic.py are only loaded, never run: the first regenerates the
shipped tables for minutes.
"""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *argv):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / script), *argv],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))


@pytest.mark.parametrize("argv", [["bounding_boxes.py"], ["mesh_validity.py"],
                                  ["transport_limiter.py", "--elements", "4"],
                                  # no GLL node lies inside a shape, so the initial mass is 0
                                  pytest.param(["transport_limiter.py", "--elements", "2",
                                                "--order", "1"], id="transport_limiter.py-zero-mass")],
                         ids=lambda argv: argv[0])
def test_demo_runs_to_the_end(argv):
    run = _run(Path("demos") / argv[0], *argv[1:])
    assert run.returncode == 0 and "Traceback" not in run.stderr, run.stderr


@pytest.mark.parametrize("script", ["gen_invalid_mesh.py", "gen_tables.py",
                                    "cache_traffic.py", "box_solve_margins.py"])
def test_script_loads_without_running(script):
    namespace = runpy.run_path(str(ROOT / "scripts" / script), run_name="not_main")
    assert callable(namespace["main"])


def test_fixture_script_writes_a_mesh_that_classifies_like_the_shipped_one(tmp_path):
    from polybound.boxopt import _data_dir
    from polybound.meshcheck import classify_element, detj_tables, read_mesh

    run = _run("scripts/gen_invalid_mesh.py", "--out", str(tmp_path))
    assert run.returncode == 0, run.stderr
    tables = detj_tables(2)
    reports = [classify_element(read_mesh(path).elements[0], tables, tol=1e-4, max_levels=8)
               for path in (tmp_path / "near-degenerate-p2.txt",
                            _data_dir() / "meshes" / "near-degenerate-p2.txt")]
    assert reports[0].status == reports[1].status == "invalid"
    assert reports[0].levels_used == reports[1].levels_used
