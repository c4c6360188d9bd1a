"""Compare two checkouts on the benchmark with alternated runs.

Runs `python3 perfbench/run.py --workload W --seed S --trace 0` in a base
checkout and in a head checkout, taking turns, for PAIRS pairs per
workload, and writes one JSON record: the machine, and for each workload
and side the five end-to-end metrics of every run, their medians and
quartiles, and each run's minor page faults; and per workload and metric
the pairs each side won, with the better direction read from
BENCHMARK.json. A run's faults are the RUSAGE_CHILDREN delta over it, so
they count its setup probes too; malloc churn shows there. The run
length is perfbench's own. Each run of a pair uses the same seed; pairs
use seeds seed0, seed0 + 1, ...

    python3 scripts/bench_pairs.py --base ../parent --out BENCH_9.json --seed0 11

The head defaults to this checkout. Runs go one at a time, so the two
sides see the same host, and the base runs first in even pairs and
second in odd ones. A run whose checks fail is recorded and the pairs
go on; the script then exits 1.

A gain is claimed on a metric when the change wins at least 9 of 10
pairs and its median beats the parent's by more than the parent's
interquartile range; both halves of that rule can be read off the record.
Under "verdicts", each workload's metrics are also judged against the
relative bounds of BENCHMARK.json (see verdict).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("rotation", "meshcheck", "adaptive", "tablegen")
PAIRS = 10  # the fewest alternated pairs a gain is judged on


def run_once(checkout: Path, workload: str, seed: int):
    """(machine record, {metric: value}, attempted, failed, minor faults) of
    one untraced run in checkout. A run whose checks failed (exit 1,
    "correct": false) is returned like any other; any other exit is an
    error."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    lines = out.stdout.strip().splitlines()
    try:
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, ValueError):
        record, result = None, {}
    if result.get("correct") is not (out.returncode == 0):
        sys.stderr.write(out.stdout + out.stderr)
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited with {out.returncode}")
    return (record["machine"], {k: v["value"] for k, v in result["metrics"].items()},
            result["attempted"], result["failed"], faults)


def summarize(runs, better):
    """Medians, quartiles and pair wins of one workload's runs.

    ``runs`` maps "parent" and "change" to their runs' {metric: value}
    in pair order; ``better`` maps each metric to "higher" or "lower".
    Quartiles are the inclusive (linear) ones, as [q1, q3]. A pair goes
    to the side whose value is better; a tie counts for neither.
    Returns ({side: {"median": ..., "quartiles": ...}}, {metric: wins}).
    """
    metrics = list(runs["parent"][0])
    sides = {side: {"median": {m: statistics.median(r[m] for r in rs) for m in metrics},
                    "quartiles": {m: statistics.quantiles([r[m] for r in rs], n=4,
                                                          method="inclusive")[::2]
                                  for m in metrics}}
             for side, rs in runs.items()}
    wins = {}
    for m in metrics:
        sign = 1.0 if better[m] == "higher" else -1.0
        gains = [sign * (c[m] - p[m]) for p, c in zip(runs["parent"], runs["change"])]
        wins[m] = {"better": better[m], "change": sum(g > 0 for g in gains),
                   "parent": sum(g < 0 for g in gains), "ties": sum(g == 0 for g in gains)}
    return sides, wins


def verdict(parent, change, better: str, bound: float) -> str:
    """Judge one metric's runs against its relative bound.

    "worse" when the change's median is worse than the parent's by more
    than bound, relative to the parent's median; "unresolved" when the
    parent's interquartile range exceeds bound relative to its median and
    not every change run beats every parent run; "ok" otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    base, head = statistics.median(parent), statistics.median(change)
    loss = sign * (base - head)
    if loss > bound * abs(base):
        return "worse"
    q1, q3 = statistics.quantiles(parent, n=4, method="inclusive")[::2]
    dominates = min(sign * c for c in change) > max(sign * p for p in parent)
    if q3 - q1 > bound * abs(base) and not dominates:
        return "unresolved"
    return "ok"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--head", type=Path, default=ROOT, help="checkout of the change")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = ap.parse_args(argv)

    sides = {"parent": args.base.resolve(), "change": args.head.resolve()}
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in config["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    machine, report, verdicts, failures = None, {}, {}, 0
    for workload in args.workloads:
        runs = {side: [] for side in sides}
        for k in range(PAIRS):
            order = list(sides) if k % 2 == 0 else list(sides)[::-1]
            for side in order:
                machine, metrics, attempted, failed, faults = run_once(
                    sides[side], workload, args.seed0 + k)
                runs[side].append((metrics, attempted, failed, faults))
                failures += failed > 0
                print(f"{workload} pair {k} {side}: "
                      + " ".join(f"{m}={v:.6g}" for m, v in metrics.items())
                      + f" failed={failed}/{attempted} minor_faults={faults}", flush=True)
        stats, wins = summarize({side: [m for m, *_ in rs] for side, rs in runs.items()},
                                better)
        report[workload] = {
            side: {
                "runs": [m for m, *_ in rs],
                **stats[side],
                "attempted": [a for _, a, _, _ in rs],
                "failed": [f for _, _, f, _ in rs],
                "minor_faults": [n for *_, n in rs],
            }
            for side, rs in runs.items()
        }
        report[workload]["wins"] = wins
        verdicts[workload] = {
            m: verdict([r[m] for r, *_ in runs["parent"]], [r[m] for r, *_ in runs["change"]],
                       better[m], bounds[m])
            for m in wins
        }
    args.out.write_text(json.dumps({
        "command": "python3 perfbench/run.py --workload W --seed S --trace 0",
        "pairs": PAIRS,
        "seeds": list(range(args.seed0, args.seed0 + PAIRS)),
        "machine": machine,
        "workloads": report,
        "verdicts": verdicts,
    }, indent=1) + "\n", encoding="utf-8")
    if failures:
        print(f"{failures} run(s) failed their checks", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
