"""Walk through the bounding machinery on a single polynomial.

Builds the order-3 nodal basis, loads the shipped optimized table, and
bounds a deliberately wiggly polynomial three ways: the piecewise-linear
box bounds, the Bernstein convex-hull bounds, and a dense sampling
oracle. Ends with the step-function comparison across orders.

Run:  python demos/bounding_boxes.py
"""

import numpy as np

from polybound.basis import make_basis
from polybound.boxopt import standard_table, verify_table
from polybound.bounder import (
    PolyCoeffs,
    bernstein_bounds,
    bound_tensor,
    brute_force_extrema,
)
from polybound.limiter import step_interpolation_table


def main():
    p = 3
    basis = make_basis("lobatto-nodal", p)
    table = standard_table("lobatto-nodal", p, p + 2)
    quality = verify_table(table)
    print(f"optimized table, order {p}, {table.nodes.M} control nodes")
    print(f"  mean box gap eps2 = {quality.eps2:.5f}, "
          f"worst envelope margin = {quality.max_violation:+.2e}")
    print(f"  control nodes: {np.array2string(table.eta(), precision=4)}")
    print()

    # nodal values with an interior spike; the interpolant overshoots it
    coeffs = PolyCoeffs(1, basis, np.array([0.1, 1.0, -0.8, 0.3]))
    nb = bound_tensor(coeffs, table)
    lo_b, hi_b = bernstein_bounds(coeffs)
    lo_o, hi_o = brute_force_extrema(coeffs, 100_000)

    print("bounds of the sample polynomial on [-1, 1]:")
    print(f"  {'method':<18} {'lower':>10} {'upper':>10} {'width':>10}")
    rows = [
        ("sampling oracle", lo_o, hi_o),
        ("optimized boxes", nb.global_min(), nb.global_max()),
        ("bernstein hull", lo_b, hi_b),
    ]
    for name, lo, hi in rows:
        print(f"  {name:<18} {lo:10.5f} {hi:10.5f} {hi - lo:10.5f}")
    print()

    print("per-node envelope of the same polynomial:")
    print(f"  {'eta':>8} {'lower':>10} {'upper':>10}")
    for e, lo, hi in zip(nb.eta, nb.lower, nb.upper):
        print(f"  {e:8.4f} {lo:10.5f} {hi:10.5f}")
    print()

    print("step-function interpolants, certified extrema per order")
    print("(the classic hard case: Bernstein blows up, boxes stay close)")
    rows = step_interpolation_table(orders=range(3, 8))
    print(f"  {'order':>5} {'exact':>9} {'boxes':>9} {'bernstein':>10} "
          f"{'excess cut':>10}")
    for k, order in enumerate(rows["orders"]):
        hi_e = rows["exact"][k][1]
        hi_p = rows["present"][k][1]
        hi_b = rows["bernstein"][k][1]
        print(f"  {order:>5} {hi_e:9.4f} {hi_p:9.4f} {hi_b:10.4f} "
              f"{rows['reduction_pct'][k]:9.1f}%")


if __name__ == "__main__":
    main()
