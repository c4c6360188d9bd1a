"""Tests of the benchmark itself, at tiny sizes.

Each workload runs untraced and traced and must report exactly the
metrics BENCHMARK.json declares; a deliberately shrunk bound, installed
through a wrapper, must make each workload's check fail.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from polybound import boxopt  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name, seed, tmp_path):
    if name == "rotation":
        return workloads.Rotation(seed, elements=4, steps=3, samples=32)
    if name == "meshcheck":
        return workloads.MeshCheck(seed, tmp_path, cells=3, meshes=1, checked=6, samples=40)
    if name == "adaptive":
        return workloads.Adaptive(seed, per_kind=2, checked=2,
                                  kinds=((1, 3), (2, 2), (3, 2)))
    return workloads.TableGen(seed, tasks=((2, 4),), restarts=1)


NAMES = [w["name"] for w in SPEC["workloads"]]


def test_spec_names_every_workload():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_smoke_untraced_and_traced(name, tmp_path):
    w = tiny(name, 3, tmp_path)
    w.setup()
    tally, metrics, record = harness.measure(w, 0.01, setup_s=1.0)
    assert tally.failed == 0 and tally.attempted >= 1
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert [u for _, u in metrics.values()] == [m["unit"] for m in SPEC["end_to_end"]]
    # quality_loss may be 0 at tiny sizes: a 3x3 mesh leaves nothing undecided
    assert all(v > 0 for k, (v, _) in metrics.items() if k != "quality_loss")
    assert w.throughput[0] in record and w.quality_name in record

    runs = []
    for _ in range(2):
        tally, metrics, absent = harness.measure_traced(tiny(name, 3, tmp_path), 0.01)
        assert tally.failed == 0 and absent == []
        assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
        assert [u for _, u in metrics.values()] == [m["unit"] for m in SPEC["per_layer"]]
        runs.append(metrics)
    # counts are fixed by the seed, times are not
    for key, (value, unit) in runs[0].items():
        if unit not in ("ms", "%"):
            assert runs[1][key][0] == value, key


def shrunk(table):
    """The table with both envelopes collapsed onto their midline."""
    mid = 0.5 * (table.q_lower + table.q_upper)
    return dataclasses.replace(table, q_lower=mid, q_upper=mid)


@pytest.mark.parametrize("name", NAMES)
def test_shrunk_bound_fails_the_check(name, tmp_path):
    w = tiny(name, 3, tmp_path)
    function = "optimize_nodes" if name == "tablegen" else "standard_table"

    def make(original):
        return lambda *args, **kwargs: shrunk(original(*args, **kwargs))

    with layers.patched("boxopt", function, make):
        w.setup()
        tally, _, _ = harness.measure(w, 0.01, setup_s=1.0)
    assert tally.failed > 0 and not tally.raised  # caught by a check, not a crash


def test_absent_boundary_is_reported_not_fatal(tmp_path):
    gone = layers.Boundary("bounder", "no_such_kernel", "bounder.gone")
    tracer = layers.Tracer(layers.BOUNDARIES + (gone,))
    assert tracer.absent == ["polybound.bounder.no_such_kernel"]
    w = tiny("rotation", 1, tmp_path)
    stats = layers.Stats()
    with tracer.record(stats):
        w.setup()
    assert stats.total["bounder.interval_rows"] > 0


def test_wrappers_are_removed_after_recording():
    before = boxopt.load_table
    with layers.Tracer().record(layers.Stats()):
        assert boxopt.load_table is not before
    assert boxopt.load_table is before


def test_lagrange_matrix_interpolates():
    nodes = np.array([-1.0, -0.3, 0.4, 1.0])
    assert np.allclose(workloads.lagrange_matrix(nodes, nodes), np.eye(4))
    x = np.linspace(-1, 1, 7)
    assert np.allclose(workloads.lagrange_matrix(nodes, x) @ nodes**3, x**3)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rotation", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
