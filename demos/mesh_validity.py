"""Certify curved-quad meshes by bounding the Jacobian determinant.

Three stages: a perturbed mesh whose every element is provably valid, a
mesh with one inverted element, and the shipped near-degenerate element
whose invalidity (min det J about -2e-4) only shows up after refining
between control nodes. The last part prints the refinement ladder next
to the Bernstein baseline.

Run:  python demos/mesh_validity.py
"""

import numpy as np

from polybound.bounder import brute_force_extrema
from polybound.boxopt import _data_dir
from polybound.meshcheck import (
    CurvedMesh,
    check_mesh,
    detj_coeffs,
    detj_tables,
    mirror_element,
    perturb_mesh,
    read_mesh,
    refinement_ladder,
    uniform_mesh,
)


def show(report, label):
    counts = report.counts()
    print(f"{label}: {counts['valid']} valid, {counts['invalid']} invalid, "
          f"{counts['indeterminate']} indeterminate")
    for er in report.elements:
        lo, hi = er.min_detj_interval
        print(f"  element {er.index}: {er.status:<13} "
              f"min detJ in [{lo:+.3e}, {hi:+.3e}]  levels={er.levels_used}")


def main():
    tables = detj_tables(2)

    mesh = perturb_mesh(uniform_mesh(3, 3, 2), 0.15, seed=7)
    show(check_mesh(mesh, tables, tol=1e-4), "randomly perturbed 3x3 mesh")
    print()

    els = [e.copy() for e in uniform_mesh(2, 2, 2).elements]
    els[2] = mirror_element(els[2])
    show(check_mesh(CurvedMesh(2, els), tables, tol=1e-4),
         "same grid with element 2 flipped")
    print()

    mesh = read_mesh(_data_dir() / "meshes" / "near-degenerate-p2.txt")
    coeffs = detj_coeffs(mesh.elements[0], 2)
    lo, hi = brute_force_extrema(coeffs, 400)
    print(f"near-degenerate element: sampled det J range [{lo:+.3e}, {hi:+.3e}]")
    show(check_mesh(mesh, tables, tol=1e-4), "adaptive classification")
    print()

    print("global lower bound per quadrant-refinement level:")
    print(f"  {'level':>5} {'box bound':>13} {'bernstein':>13}  "
          "(negative proven?)")
    for row in refinement_ladder(coeffs, tables[-1], levels=6):
        t_flag = "yes" if row["table_proves_negative"] else "no"
        b_flag = "yes" if row["bernstein_proves_negative"] else "no"
        print(f"  {row['level']:>5} {row['table_lower']:13.6e} "
              f"{row['bernstein_lower']:13.6e}  boxes: {t_flag:<4} "
              f"bernstein: {b_flag}")
    print()
    print("the box bound proves the inversion several levels before the "
          "bernstein hull does")


if __name__ == "__main__":
    main()
