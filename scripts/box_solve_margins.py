"""Print how far the table generator's box solves stay from infeasibility.

boxopt._upper_qp solves each one-sided fit through the NNLS dual of a
least-distance problem and refuses the fit when the last entry of the
NNLS residual, s[M] = E[M]·u - 1, is below 1e-13 in magnitude: Lawson
and Hanson's test for an incompatible constraint set. The fits'
constraints are always compatible (the hat functions sum to 1, so a
constant row lies above any function), so every |s[M]| should sit far
above that threshold.

The continuous margin check (boxopt._continuous_min_gaps) has one
outcome too: a batched colleague-matrix eigen solve that raises ends
it with BoxOptimizationError. The script counts those solves as well.

It wraps boxopt._nnls, which _upper_qp looks up at call time, and
records |s[M]| for every solve; it wraps boxopt._colleague_eigvals,
which _continuous_min_gaps looks up at call time, and counts its
calls. It runs

  - tablegen's three node searches (lobatto-nodal p, M = 2, 4; 3, 4;
    3, 5 with restarts=8 and seed 0, as perfbench runs them),
  - the fixed-node fits of the four families at p = 1..7, with
    M = p + 1, p + 2 and p + 4 nodes of each fixed node kind, and
  - load_table on every shipped table.

It prints, per group, the box solve count, the smallest |s[M]| and
the batched eigen-solve count. A box solve under the threshold or a
failed eigen solve ends the run with boxopt's error. About 5 s on a
2-core Xeon.

    python3 scripts/box_solve_margins.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from polybound import boxopt  # noqa: E402
from polybound.basis import FAMILIES, make_basis, make_node_set  # noqa: E402

THRESHOLD = 1e-13  # _upper_qp's infeasibility test
TABLEGEN = ((2, 4), (3, 4), (3, 5))
KINDS = ("equispaced", "gauss-lobatto", "gauss-legendre+endpoints", "chebyshev")


def jobs():
    """(group, job) pairs: tablegen's node searches, the fixed-node fits,
    then the shipped table loads."""
    for p, M in TABLEGEN:
        basis = make_basis("lobatto-nodal", p)
        yield "tablegen lobatto-nodal", lambda basis=basis, M=M: boxopt.optimize_nodes(
            basis, M, restarts=8, seed=0)
    for family in FAMILIES:
        for p in range(1, 8):
            basis = make_basis(family, p)
            for M in (p + 1, p + 2, p + 4):
                for kind in KINDS:
                    yield f"fixed-node {family}", lambda basis=basis, M=M, kind=kind: (
                        boxopt.optimize_values(basis, make_node_set(kind, M)))
    for path in sorted((boxopt._data_dir() / "tables").glob("*.txt")):
        yield "shipped table loads", lambda path=path: boxopt.load_table(path)


def main():
    nnls, eigvals = boxopt._nnls, boxopt._colleague_eigvals
    margins, eigen_solves = {}, {}

    def recording(E, f, passive):
        u = nnls(E, f, passive)
        margins[group].append(abs((E @ u - f)[-1]))
        return u

    def counting(c):
        eigen_solves[group] += 1
        return eigvals(c)

    boxopt._nnls, boxopt._colleague_eigvals = recording, counting
    try:
        for group, job in jobs():
            margins.setdefault(group, [])
            eigen_solves.setdefault(group, 0)
            job()
    finally:
        boxopt._nnls, boxopt._colleague_eigvals = nnls, eigvals
    print(f"{'group':<28} {'solves':>9} {'min |s[M]|':>11} {'eigen solves':>13}")
    for group, values in margins.items():
        smallest = f"{min(values):.3e}" if values else "-"
        print(f"{group:<28} {len(values):>9,} {smallest:>11} {eigen_solves[group]:>13,}")
    total = sum(len(values) for values in margins.values())
    smallest = min(min(values) for values in margins.values() if values)
    print(f"all {total:,} solves: smallest |s[M]| {smallest:.3e}, "
          f"{smallest / THRESHOLD:.1e} times the {THRESHOLD:g} threshold")
    print(f"all {sum(eigen_solves.values()):,} batched margin eigen solves returned")


if __name__ == "__main__":
    main()
