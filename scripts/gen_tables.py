"""Generate the shipped standard bounding tables under data/tables/.

The published reference tables (p2..p6, M in {N, N+1, N+2}, header
provenance=reference) ship in the same directory and are not
regenerated; every other configuration is optimized here. The order
puts the acceptance-critical tables first so a truncated run still
leaves a usable set. Rerunning is deterministic.

    python3 scripts/gen_tables.py [--out DIR]

Tables already in DIR (default: the package's table directory) are
kept. Into an empty DIR it writes all 20 optimized tables, taking the
p=3 ladder's M=6 warm start from the package's reference table.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from polybound.basis import make_basis  # noqa: E402
from polybound.boxopt import (  # noqa: E402
    load_table,
    optimize_nodes,
    save_table,
    verify_table,
)

TABLES = ROOT / "src" / "polybound" / "data" / "tables"
FAMILY = "lobatto-nodal"


def generate(out, p, M, restarts, maxiter, warm=()):
    dst = out / f"{FAMILY}-p{p}-M{M}.txt"
    if dst.exists():
        t = load_table(dst)
        print(f"kept {dst.name}: eps2 {verify_table(t).eps2:.6f}", flush=True)
        return t.eta()
    basis = make_basis(FAMILY, p)
    t0 = time.time()
    table = optimize_nodes(basis, M, restarts=restarts, maxiter=maxiter,
                           warm_starts=warm)
    save_table(table, dst)
    q = verify_table(load_table(dst))
    print(f"wrote {dst.name}: eps2 {q.eps2:.6f} margin {q.max_violation:+.2e} "
          f"({time.time()-t0:.0f}s)", flush=True)
    return table.eta()


def insert_node(eta):
    """Warm start for M+1: split the widest gap in the left half, mirrored."""
    eta = np.asarray(eta, dtype=float)
    gaps = np.diff(eta)
    half = gaps[: gaps.size // 2 + 1]
    j = int(np.argmax(half))
    new = np.sort(np.concatenate([eta, [0.5 * (eta[j] + eta[j + 1])]]))
    sym = 0.5 * (new - new[::-1])
    sym[0], sym[-1] = -1.0, 1.0
    return sym


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=TABLES,
                    help="directory to write the tables to (default: the package's)")
    out = ap.parse_args().out
    out.mkdir(parents=True, exist_ok=True)

    # small orders not covered by the published set
    for M in (2, 3, 4):
        generate(out, 1, M, restarts=8, maxiter=60)

    # the M=N table for the highest supported interpolation order
    generate(out, 7, 8, restarts=36, maxiter=80)

    # M ladder for p=3 (convergence study); warm start from the previous M
    name = f"{FAMILY}-p3-M6.txt"
    prev = load_table(out / name if (out / name).exists() else TABLES / name).eta()
    for M in range(7, 21):
        prev = generate(out, 3, M, restarts=6, maxiter=50, warm=(insert_node(prev),))

    for M in (9, 10):
        generate(out, 7, M, restarts=12, maxiter=60)

    print("all tables done", flush=True)


if __name__ == "__main__":
    main()
