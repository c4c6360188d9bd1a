"""The demos run to the end, and the scripts' imports resolve.

Each demo runs in its own interpreter, as its docstring says to run it.
The scripts are only loaded, never run: gen_invalid_mesh.py rewrites the
shipped mesh fixture and gen_tables.py regenerates the shipped tables.
"""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [["bounding_boxes.py"], ["mesh_validity.py"],
                                  ["transport_limiter.py", "--elements", "4"]],
                         ids=lambda argv: argv[0])
def test_demo_runs_to_the_end(argv):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / argv[0]), *argv[1:]],
                         capture_output=True, text=True, timeout=300,
                         env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0 and "Traceback" not in run.stderr, run.stderr


@pytest.mark.parametrize("script", ["gen_invalid_mesh.py", "gen_tables.py"])
def test_script_loads_without_running(script):
    namespace = runpy.run_path(str(ROOT / "scripts" / script), run_name="not_main")
    assert callable(namespace["main"])
