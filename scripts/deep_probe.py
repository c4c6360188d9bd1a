"""Time one deep adaptive refinement and print it as one line.

The probe bounds the 3D p=2 polynomial default_rng(3).standard_normal((3, 3, 3))
with bound_adaptive, ladder M = 3, 4, 5 and tol 1e-6; the memory budget stops it
at level 5. The line holds the wall time, the levels, the cells per level, the
process's peak RSS and the global bounds as float.hex. Run each probe in a fresh
process, so the peak RSS is its own:

    python3 scripts/deep_probe.py
"""

import resource
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from polybound.basis import make_basis  # noqa: E402
from polybound.bounder import PolyCoeffs, bound_adaptive  # noqa: E402
from polybound.boxopt import standard_table  # noqa: E402

ladder = [standard_table("lobatto-nodal", 2, m) for m in (3, 4, 5)]
basis = make_basis("lobatto-nodal", 2)
coeffs = PolyCoeffs(3, basis, np.random.default_rng(3).standard_normal((3, 3, 3)))
start = time.perf_counter()
s = bound_adaptive(coeffs, ladder, 1e-6)
wall = time.perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux
print(f"wall {wall:.2f} s  levels {s.levels_used}  cells {[h['cells'] for h in s.level_history]}  "
      f"maxrss {rss:.0f} MiB  bounds {s.global_min.hex()} {s.global_max.hex()}")
