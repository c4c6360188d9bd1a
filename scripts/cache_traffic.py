"""Print the hits and misses of polybound's process-wide caches in one
benchmark pass of each workload, as a Markdown table.

The caches are the functools.lru_cache wrappers that polybound's modules
define. For each workload of perfbench/workloads.py, with seed 1, every
cache is cleared, the workload's setup() runs, and then one pass of its
ops(); a cell holds the hits/misses of that pass alone, and an empty cell
is a cache the pass does not touch. A pass takes a few seconds.

    python3 scripts/cache_traffic.py
"""

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from polybound import basis, bounder, boxopt, cli, limiter, meshcheck  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def caches() -> dict:
    """{"module.name": wrapper} of every lru_cache a polybound module defines."""
    return {f"{module.__name__.rpartition('.')[2]}.{name}": obj
            for module in (basis, bounder, boxopt, meshcheck, limiter, cli)
            for name, obj in vars(module).items()
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__}


def traffic(workload, found: dict) -> dict:
    """{cache: (hits, misses)} of one pass of workload, after a cleared set-up."""
    for cache in found.values():
        cache.cache_clear()
    workload.setup()
    before = {key: cache.cache_info() for key, cache in found.items()}
    for op in workload.ops():
        op()
    return {key: (cache.cache_info().hits - before[key].hits,
                  cache.cache_info().misses - before[key].misses)
            for key, cache in found.items()}


def main():
    found = caches()
    columns = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(SEED, workdir) if cls is workloads.MeshCheck else cls(SEED)
            columns[name] = traffic(workload, found)
    print("| cache | " + " | ".join(columns) + " |")
    print("|---|" + "---|" * len(columns))
    for key in found:
        cells = [f"{hits:,}/{misses:,}" if hits or misses else ""
                 for hits, misses in (column[key] for column in columns.values())]
        print(f"| `{key}` | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
