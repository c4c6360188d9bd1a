"""Command-line front end.

Subcommands: boxgen (optimize and save a bounding table), bound (bound a
polynomial from a coefficients file), checkmesh (validity report for a
curved quad mesh), limit-demo (bounds-preserving transport run), tables
(reproduce the shipped reference tables and diff against them).

Exit codes: 0 success, 1 usage or I/O failure, 2 validity or
verification failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .basis import NodeSet, make_basis, make_node_set
from .boxopt import (
    BoxOptimizationError,
    _mirror,
    optimize_nodes,
    reference_table_paths,
    optimize_values,
    save_table,
    load_table,
    standard_table,
    table_file_name,
    verify_table,
)
from .bounder import (
    NonFiniteBoundsError,
    _check_grid,
    bernstein_bounds,
    bound_adaptive,
    bound_tensor,
    brute_force_extrema,
    read_coeffs,
    sampled_extrema,
)
from .meshcheck import _detj_ops, _detj_stack, check_mesh, detj_tables, read_mesh
from . import limiter as _lim

_FAMILY_ALIASES = {
    "lobatto": "lobatto-nodal",
    "legendre": "legendre-nodal",
    "modal": "legendre-modal",
}

_KIND_ALIASES = {
    "gll": "gauss-lobatto",
    "gl+endpoints": "gauss-legendre+endpoints",
    "cheb": "chebyshev",
}

# --nodes values: each node kind and its alias
_NODE_CHOICES = ("optimized", "equispaced", "gll", "gauss-lobatto", "gl+endpoints",
                 "gauss-legendre+endpoints", "cheb", "chebyshev")


def _family(name: str) -> str:
    return _FAMILY_ALIASES.get(name, name)


def _node_kind(name: str) -> str:
    return _KIND_ALIASES.get(name, name)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the documented contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt_row(vals, width=12, prec=7):
    return " ".join(f"{v:{width}.{prec}f}" for v in vals)


# ---------------------------------------------------------------------------
# boxgen


def cmd_boxgen(args) -> int:
    family = _family(args.family)
    node_kind = _node_kind(args.nodes)
    basis = make_basis(family, args.p)
    if node_kind == "optimized":
        table = optimize_nodes(basis, args.m, restarts=args.restarts, seed=args.seed)
    else:
        table = optimize_values(basis, make_node_set(node_kind, args.m))
    report = verify_table(table)
    out = Path(args.output or table_file_name(family, args.p, args.m))
    save_table(table, out)
    print(f"wrote {out}")
    print(f"eps2 = {report.eps2:.7f}")
    print(f"max_violation = {report.max_violation:.3e}")
    load_table(out)  # refuses a table that fails verification, which exits 2
    return 0


# ---------------------------------------------------------------------------
# bound


def _step_triple(order: int) -> int:
    rows = _lim.step_interpolation_table([order])
    (lo_e, hi_e) = rows["exact"][0]
    (lo_b, hi_b) = rows["bernstein"][0]
    (lo_p, hi_p) = rows["present"][0]
    print(f"step interpolant, order {order}")
    print(f"{'':12} {'lower':>12} {'upper':>12}")
    print(f"{'exact':12} {lo_e:12.4f} {hi_e:12.4f}")
    print(f"{'bernstein':12} {lo_b:12.4f} {hi_b:12.4f}")
    print(f"{'present':12} {lo_p:12.4f} {hi_p:12.4f}")
    print(f"excess reduction vs bernstein: {rows['reduction_pct'][0]:.1f}%")
    return 0


def cmd_bound(args) -> int:
    if args.step:
        return _step_triple(args.order)
    if not args.coeffs:
        print("a coefficients file is required unless --step is given",
              file=sys.stderr)
        return 1
    coeffs = read_coeffs(args.coeffs)
    if args.oracle:
        _check_grid(args.samples, coeffs.dim)
    p = coeffs.basis.p
    M = args.m if args.m is not None else p + 1
    table = standard_table(coeffs.basis.family, p, M, kind=_node_kind(args.nodes))

    if args.subdivide:
        summary = bound_adaptive(coeffs, table, tol=args.tol,
                                 max_levels=args.subdivide)
        print(f"adaptive bounds after {summary.levels_used} level(s), "
              f"converged={summary.converged}")
        gmin, gmax = summary.global_min, summary.global_max
    else:
        nb = bound_tensor(coeffs, table)
        if nb.dim == 1:
            print(f"{'eta':>12} {'lower':>14} {'upper':>14}")
            for e, lo, up in zip(nb.eta, nb.lower, nb.upper):
                print(f"{e:12.7f} {lo:14.7f} {up:14.7f}")
        else:
            print(f"node grid {nb.lower.shape}, showing global envelope only")
        gmin, gmax = nb.global_min(), nb.global_max()
    print(f"global bounds: [{gmin:.10f}, {gmax:.10f}]")
    if args.oracle:
        lo, hi = brute_force_extrema(coeffs, args.samples)
        blo, bhi = bernstein_bounds(coeffs)
        print(f"{'oracle':12} {lo:14.7f} {hi:14.7f}")
        print(f"{'bernstein':12} {blo:14.7f} {bhi:14.7f}")
        if gmin > lo + 1e-12 or gmax < hi - 1e-12:
            print("BOUND VIOLATION against oracle", file=sys.stderr)
            return 2
    return 0


# ---------------------------------------------------------------------------
# checkmesh


def cmd_checkmesh(args) -> int:
    mesh = read_mesh(args.mesh)
    try:
        tables = detj_tables(mesh.p, args.m)
    except ValueError as err:
        raise ValueError(f"--m {args.m}: {err}") from None
    report = check_mesh(mesh, tables, tol=args.tol, max_levels=args.max_levels)
    counts = report.counts()
    for er in report.elements:
        lo, hi = er.min_detj_interval
        line = (f"element {er.index}: {er.status}  detJ in "
                f"[{lo:.6e}, {hi:.6e}]  levels={er.levels_used}")
        if er.policy_invalid:
            line += "  (treated as invalid: refinement exhausted)"
        print(line)
    print(f"summary: {counts.get('valid', 0)} valid, "
          f"{counts.get('invalid', 0)} invalid, "
          f"{counts.get('indeterminate', 0)} indeterminate "
          f"of {len(report.elements)}")
    if args.oracle:
        bad = _mesh_oracle_violations(mesh, report, args.samples)
        print(f"oracle: {bad} interval-soundness violation(s)")
        if bad:
            return 2
    return 0 if report.all_valid else 2


def _mesh_oracle_violations(mesh, report, samples: int) -> int:
    """Elements whose sampled min det J lies below their certified lower end.

    The upper end is a node's upper bound, so a sample above it means the
    sampling missed the minimum, not that the bound failed.
    """
    ilo = np.array([er.min_detj_interval[0] for er in report.elements])
    target, V, D = _detj_ops(mesh.p)
    lo, _ = sampled_extrema(_detj_stack(mesh.elements, V, D), target, 2, samples)
    return int(np.count_nonzero(lo < ilo - 1e-10))


# ---------------------------------------------------------------------------
# limit-demo


def cmd_limit_demo(args) -> int:
    p = args.order
    table = None
    if not args.no_limiter:
        table = standard_table("lobatto-nodal", p, p + 1, kind="optimized")
    state = _lim.transport_state(args.elements, p)
    if table is not None:
        state = _lim.apply_limiter(state, table)
    m0 = _lim.total_mass(state)
    state = _lim.advance(state, args.tfinal, table)
    smin, smax = _lim.sample_extrema(state, args.samples)
    # relative to the initial mass, or absolute when that is 0
    scale, kind = (abs(m0), "relative") if m0 else (1.0, "absolute")
    drift = abs(_lim.total_mass(state) - m0) / scale
    mode = "off" if args.no_limiter else "on"
    print(f"rotating-shapes transport: {args.elements}x{args.elements} "
          f"elements, order {p}, t = {state.t:.4f}, limiter {mode}")
    print(f"sampled range: [{smin:.8e}, {smax:.8f}]")
    print(f"{kind} mass drift: {drift:.3e}")
    if args.report:
        lines = [
            f"rotating-shapes transport, order {p}, limiter {mode}, "
            f"t = {state.t:.6f}",
            f"{'grid':>8} {'sampled min':>16} {'sampled max':>16} "
            f"{'mass drift':>12}",
            f"{args.elements:>6}^2 {smin:16.8e} {smax:16.8f} {drift:12.3e}",
        ]
        Path(args.report).write_text("\n".join(lines) + "\n")
        print(f"wrote {args.report}")
    if table is not None and (smin < -1e-12 or smax > 1 + 1e-12):
        print("bounds violated despite limiter", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# tables


def cmd_tables(args) -> int:
    paths = reference_table_paths()
    if not paths:
        print("no reference tables shipped", file=sys.stderr)
        return 1
    worst = 0.0
    all_sym = True
    for path in paths:
        ref = load_table(path)
        basis = ref.basis
        eta = ref.eta()
        recomputed = optimize_values(basis, NodeSet(eta))
        diff = max(
            np.max(np.abs(recomputed.q_lower - ref.q_lower)),
            np.max(np.abs(recomputed.q_upper - ref.q_upper)),
        )
        worst = max(worst, diff)
        sym = _symmetry_ok(ref)
        all_sym = all_sym and sym
        print(f"{basis.family} p={basis.p} M={len(eta)}")
        print(f"  Control nodes eta = [{', '.join(f'{e:g}' for e in eta)}]")
        for i, row in enumerate(ref.q_lower):
            print(f"  L {i}: {_fmt_row(row)}")
        for i, row in enumerate(ref.q_upper):
            print(f"  U {i}: {_fmt_row(row)}")
        print(f"  max |recomputed - shipped| = {diff:.2e}   "
              f"symmetry {'PASS' if sym else 'FAIL'}")
    print(f"overall max per-entry diff: {worst:.2e}")
    print(f"symmetry: {'PASS' if all_sym else 'FAIL'}")
    return 0 if all_sym else 2


def _symmetry_ok(table, tol=5e-7) -> bool:
    """The rows match what boxopt._mirror derives from the solved rows."""
    q_lo, q_up = table.q_lower.copy(), table.q_upper.copy()
    _mirror(table.basis, q_lo, q_up)
    return (np.allclose(q_lo, table.q_lower, atol=tol)
            and np.allclose(q_up, table.q_upper, atol=tol))


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> _Parser:
    ap = _Parser(prog="polybound",
                 description="guaranteed polynomial bounds from precomputed "
                             "piecewise-linear boxes")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    bg = sub.add_parser("boxgen", help="optimize and save a bounding table")
    bg.add_argument("--family", default="lobatto")
    bg.add_argument("--p", type=int, default=3)
    bg.add_argument("--m", type=int, default=None)
    bg.add_argument("--nodes", default="optimized", choices=_NODE_CHOICES)
    bg.add_argument("--seed", type=int, default=0)
    bg.add_argument("--restarts", type=int, default=8)
    bg.add_argument("-o", "--output", default=None)
    bg.set_defaults(fn=cmd_boxgen)

    bd = sub.add_parser("bound", help="bound a polynomial from a coefficients file")
    bd.add_argument("coeffs", nargs="?", default=None)
    bd.add_argument("--m", type=int, default=None)
    bd.add_argument("--nodes", default="optimized", choices=_NODE_CHOICES)
    bd.add_argument("--oracle", action="store_true")
    bd.add_argument("--samples", type=int, default=2000)
    bd.add_argument("--subdivide", type=int, default=0,
                    help="adaptive refinement with this many levels")
    bd.add_argument("--tol", type=float, default=1e-4)
    bd.add_argument("--step", action="store_true",
                    help="built-in step-interpolant fixture instead of a file")
    bd.add_argument("--order", type=int, default=5,
                    help="interpolation order for --step")
    bd.set_defaults(fn=cmd_bound)

    cm = sub.add_parser("checkmesh", help="validity report for a curved quad mesh")
    cm.add_argument("mesh")
    cm.add_argument("--tol", type=float, default=1e-4)
    cm.add_argument("--max-levels", type=int, default=10)
    cm.add_argument("--m", type=int, default=None)
    cm.add_argument("--oracle", action="store_true")
    cm.add_argument("--samples", type=int, default=80)
    cm.set_defaults(fn=cmd_checkmesh)

    ld = sub.add_parser("limit-demo", help="bounds-preserving transport demo")
    ld.add_argument("--elements", type=int, default=8)
    ld.add_argument("--order", type=int, default=3)
    ld.add_argument("--tfinal", type=float, default=0.25)
    ld.add_argument("--no-limiter", action="store_true")
    ld.add_argument("--report", default=None, metavar="PATH",
                    help="also write a text summary to PATH")
    ld.add_argument("--samples", type=int, default=20,
                    help="oracle grid points per axis of every element")
    ld.set_defaults(fn=cmd_limit_demo)

    tb = sub.add_parser("tables", help="print shipped reference tables and "
                                       "diff a recomputation against them")
    tb.set_defaults(fn=cmd_tables)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "boxgen" and args.m is None:
            args.m = args.p + 1
        # refused before any bounding or time stepping
        if getattr(args, "oracle", True) and getattr(args, "samples", 2) < 2:
            raise ValueError("need at least 2 samples per dimension")
        # overflow reaches the user as NonFiniteBoundsError, not as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BoxOptimizationError, NonFiniteBoundsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
