"""Print how far the table generator's box solves stay from infeasibility.

boxopt._upper_qp solves each one-sided fit through the NNLS dual of a
least-distance problem and refuses the fit when the last entry of the
NNLS residual, s[M] = E[M]·u - 1, is below 1e-13 in magnitude: Lawson
and Hanson's test for an incompatible constraint set. The fits'
constraints are always compatible (the hat functions sum to 1, so a
constant row lies above any function), so every |s[M]| should sit far
above that threshold.

The script wraps boxopt._nnls, which _upper_qp looks up at call time,
records |s[M]| for every solve, and runs

  - tablegen's three node searches (lobatto-nodal p, M = 2, 4; 3, 4;
    3, 5 with restarts=8 and seed 0, as perfbench runs them), and
  - the fixed-node fits of the four families at p = 1..7, with
    M = p + 1, p + 2 and p + 4 nodes of each fixed node kind.

It prints the solve count and the smallest |s[M]| of each group. A
solve under the threshold ends the run with _upper_qp's error. About
5 s on a 2-core Xeon.

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
    """(group, job) pairs: tablegen's node searches, then the fixed-node fits."""
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


def main():
    nnls, margins = boxopt._nnls, {}

    def recording(E, f, passive):
        u = nnls(E, f, passive)
        margins[group].append(abs((E @ u - f)[-1]))
        return u

    boxopt._nnls = recording
    try:
        for group, job in jobs():
            margins.setdefault(group, [])
            job()
    finally:
        boxopt._nnls = nnls
    print(f"{'group':<28} {'solves':>9} {'min |s[M]|':>11}")
    for group, values in margins.items():
        print(f"{group:<28} {len(values):>9,} {min(values):>11.3e}")
    total = sum(len(values) for values in margins.values())
    smallest = min(min(values) for values in margins.values())
    print(f"all {total:,} solves: smallest |s[M]| {smallest:.3e}, "
          f"{smallest / THRESHOLD:.1e} times the {THRESHOLD:g} threshold")


if __name__ == "__main__":
    main()
