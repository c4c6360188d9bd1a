"""Construct the near-degenerate quadratic quad shipped in data/meshes.

One P2 element on [0,1]^2 with its top-edge midpoint pulled down far
enough that det J dips to about -2e-4 near the top edge: invalid, but
only just, so proving it takes subdivision. The node is also shifted
sideways so the det-J minimizer lands at a generic point: a symmetric
pull parks the minimum exactly on the x = 1/2 subdivision line, where
quadrant corners sample it exactly and make the Bernstein comparison
degenerate. The pull depth is bisected against the sampling oracle
until the oracle minimum lands in [-2.2e-4, -1.8e-4]; classification
and the per-level Bernstein comparison are checked before freezing.

    python3 scripts/gen_invalid_mesh.py [--out DIR]

It writes DIR/near-degenerate-p2.txt, by default into the package's mesh
directory. The batched extremum oracle moved the bisected pull by one
ulp, so the shipped file's pulled y coordinate reads ...749 where a run
now writes ...738; the element classifies the same either way.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from polybound.basis import gauss_lobatto_nodes  # noqa: E402
from polybound.bounder import brute_force_extrema  # noqa: E402
from polybound.meshcheck import (  # noqa: E402
    CurvedMesh,
    classify_element,
    detj_coeffs,
    detj_tables,
    refinement_ladder,
    write_mesh,
)

OUT = Path(__file__).resolve().parent.parent / "src" / "polybound" / "data" / "meshes"
P = 2
SIDEWAYS = 0.137  # breaks the symmetry; see module docstring


def element_with_pull(s: float) -> np.ndarray:
    """Unit-square P2 element, top-edge midpoint pulled down by s."""
    t = (gauss_lobatto_nodes(P + 1) + 1.0) / 2.0
    X, Y = np.meshgrid(t, t)  # rows = eta
    X = X.copy()
    Y = Y.copy()
    X[2, 1] += SIDEWAYS
    Y[2, 1] -= s
    return np.column_stack([X.ravel(), Y.ravel()])


def oracle_min(s: float) -> float:
    coeffs = detj_coeffs(element_with_pull(s), P)
    lo, _ = brute_force_extrema(coeffs, 400)
    return lo


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=OUT,
                    help="directory to write the mesh to (default: the package's)")
    out = ap.parse_args(argv).out

    # det J is affine in the single moved coordinate along any fixed
    # direction, but its minimum is not; plain bisection on the oracle
    lo_s, hi_s = 0.0, 1.0
    assert oracle_min(lo_s) > 0 and oracle_min(hi_s) < -1e-3
    target = -2.0e-4
    for _ in range(60):
        mid = 0.5 * (lo_s + hi_s)
        v = oracle_min(mid)
        if v > target:
            lo_s = mid
        else:
            hi_s = mid
    s = hi_s
    vmin = oracle_min(s)
    print(f"pull = {s:.12f}, oracle min detJ = {vmin:.6e}")
    if not (-2.2e-4 <= vmin <= -1.8e-4):
        print("oracle minimum missed the target window", file=sys.stderr)
        return 1

    tables = detj_tables(P)
    report = classify_element(element_with_pull(s), tables, tol=1e-4,
                              max_levels=8)
    print(f"classification: {report.status} after {report.levels_used} levels, "
          f"interval {report.min_detj_interval}")
    if report.status != "invalid" or report.levels_used > 6:
        print("fixture does not classify as desired", file=sys.stderr)
        return 1

    coeffs = detj_coeffs(element_with_pull(s), P)
    rows = refinement_ladder(coeffs, tables[-1], levels=6)
    t_neg = b_neg = None
    for row in rows:
        print(f"level {row['level']}: table {row['table_lower']:+.6e} "
              f"bernstein {row['bernstein_lower']:+.6e}")
        if row["table_lower"] < row["bernstein_lower"] - 1e-12:
            print("table lower fell behind the Bernstein lower", file=sys.stderr)
            return 1
        if t_neg is None and row["table_proves_negative"]:
            t_neg = row["level"]
        if b_neg is None and row["bernstein_proves_negative"]:
            b_neg = row["level"]
    print(f"negativity proven: table at level {t_neg}, bernstein at {b_neg}")
    if t_neg is None or (b_neg is not None and t_neg > b_neg):
        print("table should prove negativity no later than Bernstein",
              file=sys.stderr)
        return 1

    out.mkdir(parents=True, exist_ok=True)
    mesh = CurvedMesh(P, [element_with_pull(s)])
    path = out / "near-degenerate-p2.txt"
    write_mesh(mesh, path)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
