import importlib.util
import json
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



def test_verdict_reads_the_bound_relative_to_the_parent_median():
    parent = [100.0, 101.0, 99.0, 100.0, 102.0]
    # 30% lower throughput is past a 25% bound; 10% lower is inside it
    assert bench_pairs.verdict(parent, [70.0] * 5, "higher", 0.25) == "worse"
    assert bench_pairs.verdict(parent, [90.0] * 5, "higher", 0.25) == "ok"
    # a lower-is-better metric turns the direction round
    assert bench_pairs.verdict(parent, [130.0] * 5, "lower", 0.25) == "worse"
    assert bench_pairs.verdict(parent, [70.0] * 5, "lower", 0.25) == "ok"
    # bit-equal runs are ok, whatever the bound
    assert bench_pairs.verdict([0.0] * 5, [0.0] * 5, "lower", 0.2) == "ok"


def test_verdict_is_unresolved_when_the_parent_spreads_past_the_bound():
    parent = [60.0, 80.0, 100.0, 120.0, 140.0]  # IQR 40 of a median 100
    assert bench_pairs.verdict(parent, [95.0, 100.0, 105.0, 90.0, 110.0], "higher", 0.25) \
        == "unresolved"
    # unless every change run beats every parent run
    assert bench_pairs.verdict(parent, [150.0, 160.0, 170.0, 155.0, 165.0], "higher", 0.25) == "ok"



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


_STUB_METRICS = """
import json
print(json.dumps({"machine": {"cpu": "stub"}}))
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"items_per_s": {"value": 2.5}, "op_ms_p50": {"value": 4.0}}}))
"""


def test_main_writes_a_verdict_per_workload_and_metric(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(_STUB_METRICS, encoding="utf-8")
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--base", str(tmp_path), "--head", str(tmp_path),
                             "--out", str(out), "--workloads", "rotation"]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["verdicts"] == {"rotation": {"items_per_s": "ok", "op_ms_p50": "ok"}}
