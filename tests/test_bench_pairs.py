import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summarize_counts_wins_by_direction_and_gives_quartiles():
    parent = [{"items_per_s": v, "op_ms_p50": 10.0} for v in (1.0, 2.0, 3.0, 4.0, 5.0)]
    change = [{"items_per_s": v, "op_ms_p50": w}
              for v, w in ((2.0, 9.0), (2.0, 11.0), (4.0, 10.0), (3.0, 9.0), (9.0, 9.0))]
    sides, wins = bench_pairs.summarize({"parent": parent, "change": change},
                                        {"items_per_s": "higher", "op_ms_p50": "lower"})
    assert wins["items_per_s"] == {"better": "higher", "change": 3, "parent": 1, "ties": 1}
    assert wins["op_ms_p50"] == {"better": "lower", "change": 3, "parent": 1, "ties": 1}
    assert sides["parent"]["median"] == {"items_per_s": 3.0, "op_ms_p50": 10.0}
    assert sides["parent"]["quartiles"]["items_per_s"] == [2.0, 4.0]
    assert sides["change"]["median"]["items_per_s"] == 3.0
    assert sides["change"]["quartiles"]["items_per_s"] == [2.0, 4.0]
    assert sides["change"]["quartiles"]["op_ms_p50"] == [9.0, 10.0]



_STUB_RUN = """
import json
pages = bytes(range(256)) * (1 << 16)  # writes 16 MiB, at least 4,096 fresh pages
print(json.dumps({"machine": {"cpu": "stub"}}))
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"items_per_s": {"value": 2.5}, "op_ms_p50": {"value": 4.0}}}))
"""


def test_run_once_counts_the_run_s_minor_page_faults(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(_STUB_RUN, encoding="utf-8")
    machine, metrics, attempted, failed, faults = bench_pairs.run_once(tmp_path, "rotation", 1)
    assert machine == {"cpu": "stub"} and (attempted, failed) == (3, 0)
    assert metrics == {"items_per_s": 2.5, "op_ms_p50": 4.0}
    assert faults >= 4096
