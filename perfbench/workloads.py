"""The four benchmark workloads.

Each workload makes all of its inputs from one seed in setup(), yields
one pass of operations from ops(), and checks the results of a pass in
check() against a reference computed outside the timed region.  A pass
is a fixed piece of work, so its counts and its quality figure repeat
exactly for a given seed; the harness repeats passes to fill the run.
The operations call polybound only through module attributes looked up
at call time, which is what lets the tracer's wrappers see them.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np

from polybound import basis, bounder, boxopt, limiter, meshcheck

FAMILY = "lobatto-nodal"


def lagrange_matrix(nodes, x) -> np.ndarray:
    """Values of the Lagrange polynomials on nodes at points x, (len(x), N)."""
    nodes = np.asarray(nodes, dtype=float)
    x = np.asarray(x, dtype=float)
    out = np.ones((x.size, nodes.size))
    for j, xj in enumerate(nodes):
        for k, xk in enumerate(nodes):
            if k != j:
                out[:, j] *= (x - xk) / (xj - xk)
    return out


class Rotation:
    """Bounds-preserving DG solid-body rotation, limiter after every stage.

    The seed rotates the initial three-body profile by a random angle.
    A pass is a fixed number of dg_step calls from the same initial
    state; one operation is one step, counted as elements^2 items.
    """

    name = "rotation"
    throughput = ("elem_steps_per_s", "1/s", 1.0)
    quality_name = "l2_error"
    order = 3

    def __init__(self, seed: int, elements: int = 32, steps: int = 100,
                 samples: int = 64):
        self.elements, self.steps = elements, steps
        rng = np.random.default_rng(seed)
        self.theta = 2.0 * np.pi * rng.uniform()
        # reference points for the range check, (Ne, Ne, samples) per axis
        self.points = rng.uniform(-1.0, 1.0, size=(2, elements, elements, samples))

    def exact(self, t: float):
        """The initial profile carried round by angle 2*pi*t."""
        c, s = np.cos(self.theta + 2.0 * np.pi * t), np.sin(self.theta + 2.0 * np.pi * t)

        def profile(x, y):
            dx, dy = x - 0.5, y - 0.5
            return limiter.rotating_shapes(0.5 + c * dx + s * dy, 0.5 - s * dx + c * dy)

        return profile

    def setup(self):
        self.table = boxopt.standard_table(FAMILY, self.order, self.order + 1)
        state = limiter.transport_state(self.elements, self.order, profile=self.exact(0.0))
        self.state0 = limiter.apply_limiter(state, self.table)
        self.dt = limiter.cfl_dt(self.state0)
        nodes = np.asarray(self.state0.basis.nodes)
        self.quad_x, w = np.polynomial.legendre.leggauss(self.order + 2)
        self.quad_w = np.outer(w, w) / 4.0
        self.quad_v = lagrange_matrix(nodes, self.quad_x)
        self.sample_v = [
            lagrange_matrix(nodes, p.ravel()).reshape(p.shape + (nodes.size,))
            for p in self.points
        ]
        self.mass0 = self._mass(self.state0.U)
        self.state = self.state0

    def _quad_values(self, U):
        return np.einsum("ai,bj,EFij->EFab", self.quad_v, self.quad_v, U)

    def _mass(self, U) -> float:
        return float(np.sum(self.quad_w * self._quad_values(U))) / self.elements**2

    def _step(self):
        self.state = limiter.dg_step(self.state, self.dt, self.table)

    def ops(self):
        self.state = self.state0
        for _ in range(self.steps):
            yield self._step

    def items(self, result) -> int:
        return self.elements**2

    def check(self, results) -> int:
        """Whole pass fails if a sample leaves [0, 1] or mass drifts."""
        px, py = self.sample_v
        vals = np.einsum("EFsi,EFsj,EFij->EFs", py, px, self.state.U)
        drift = abs(self._mass(self.state.U) - self.mass0) / abs(self.mass0)
        ok = vals.min() >= -1e-12 and vals.max() <= 1.0 + 1e-12 and drift <= 1e-10
        return 0 if ok else len(results)

    def quality(self, results) -> float:
        """L2 distance to the exactly rotated profile, by Gauss quadrature."""
        h = 1.0 / self.elements
        xq = (np.arange(self.elements)[:, None] + (self.quad_x[None, :] + 1.0) / 2.0) * h
        X = np.broadcast_to(xq[None, :, None, :], (self.elements,) * 2 + (xq.shape[1],) * 2)
        Y = np.broadcast_to(xq[:, None, :, None], X.shape)
        diff = self._quad_values(self.state.U) - self.exact(self.state.t)(X, Y)
        return float(np.sqrt(np.sum(self.quad_w * diff**2) * h * h))


def mesh_nodes(cells: int, order: int, amplitude: float, rng) -> np.ndarray:
    """Perturbed cells x cells quad mesh of the unit square, (E, (p+1)^2, 2).

    Gauss-Lobatto node placement, xi fastest within an element; every
    non-corner node moves by up to amplitude*h per axis.
    """
    t = basis.gauss_lobatto_nodes(order + 1)
    n1, h = order + 1, 1.0 / cells
    c = (np.arange(cells)[:, None] + 0.5 * (t[None, :] + 1.0)) * h
    X = np.broadcast_to(c[None, :, None, :], (cells, cells, n1, n1))
    Y = np.broadcast_to(c[:, None, :, None], X.shape)
    nodes = np.stack([X, Y], axis=-1).reshape(cells * cells, n1 * n1, 2)
    shift = rng.uniform(-amplitude * h, amplitude * h, size=nodes.shape)
    shift[:, [0, order, n1 * order, n1 * n1 - 1]] = 0.0
    return nodes + shift


def write_mesh_file(path: Path, nodes: np.ndarray, order: int) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"polybound-mesh v1\ndim=2 p={order} elements={len(nodes)}\n")
        np.savetxt(f, nodes.reshape(len(nodes), -1), fmt="%.17g")


class MeshCheck:
    """read_mesh then check_mesh on perturbed curved quad meshes.

    The seed draws a new perturbation per mesh.  A pass checks every
    mesh once; one operation is one mesh, counted as its elements.  The
    det-J table ladder is the one the checkmesh command uses.
    """

    name = "meshcheck"
    throughput = ("elements_per_s", "1/s", 1.0)
    quality_name = "undecided_frac"
    order = 3
    amplitude = 0.07
    tol = 1e-4

    def __init__(self, seed: int, workdir, cells: int = 40, meshes: int = 4,
                 checked: int = 16, samples: int = 80):
        self.seed, self.workdir = seed, Path(workdir)
        self.cells, self.meshes = cells, meshes
        self.checked, self.samples = checked, samples
        self.subsets = {}  # mesh index -> element indices checked by oracle
        self.oracle = {}  # (mesh, element) -> sampled det J minimum

    def setup(self):
        q = 2 * self.order - 1  # order of det J
        self.tables = [boxopt.standard_table(FAMILY, q, m) for m in range(q + 1, q + 4)]
        rng = np.random.default_rng(self.seed)
        self.nodes, self.paths = [], []
        for k in range(self.meshes):
            nodes = mesh_nodes(self.cells, self.order, self.amplitude, rng)
            path = self.workdir / f"mesh-{k}.txt"
            write_mesh_file(path, nodes, self.order)
            self.nodes.append(nodes)
            self.paths.append(path)

    def _check_file(self, path):
        mesh = meshcheck.read_mesh(path)
        return meshcheck.check_mesh(mesh, self.tables, tol=self.tol)

    def ops(self):
        for path in self.paths:
            yield functools.partial(self._check_file, path)

    def items(self, report) -> int:
        return len(report.elements)

    def _subset(self, k, report):
        """Seeded sample of each verdict, chosen once per mesh."""
        if k not in self.subsets:
            rng = np.random.default_rng([self.seed, k])
            picked = []
            for status in ("valid", "indeterminate", "invalid"):
                idx = [e.index for e in report.elements if e.status == status]
                n = min(len(idx), -(-self.checked // 3))
                if n:
                    picked.extend(int(i) for i in rng.choice(idx, size=n, replace=False))
            self.subsets[k] = picked
        return self.subsets[k]

    def _oracle_min(self, k, i) -> float:
        if (k, i) not in self.oracle:
            det = meshcheck.detj_coeffs(self.nodes[k][i], self.order)
            self.oracle[k, i] = bounder.brute_force_extrema(det, self.samples)[0]
        return self.oracle[k, i]

    def check(self, results) -> int:
        """Failed meshes: wrong element count, or an oracle minimum outside
        the certified min det J interval, or a valid element sampling <= 0."""
        failed = 0
        for k, report in enumerate(results):
            ok = len(report.elements) == len(self.nodes[k])
            for i in self._subset(k, report) if ok else ():
                er = report.elements[i]
                lo, hi = er.min_detj_interval
                sampled = self._oracle_min(k, i)
                ok &= lo - 1e-10 <= sampled <= hi + 1e-10
                ok &= er.status != "valid" or sampled > 0.0
            failed += not ok
        return failed

    def quality(self, results) -> float:
        """Share of elements left indeterminate by refinement."""
        total = sum(len(r.elements) for r in results)
        undecided = sum(r.counts()["indeterminate"] for r in results)
        return undecided / total if total else 0.0


ADAPTIVE_KINDS = tuple(
    [(1, p) for p in range(2, 8)] + [(2, p) for p in range(2, 6)] + [(3, p) for p in (2, 3)]
)


class Adaptive:
    """bound_adaptive (hybrid strategy) on a seeded stream of polynomials.

    Each (dim, order) kind gets the same number of random polynomials per
    pass, the kinds taking turns; the tolerance is rel_tol times each
    polynomial's coefficient range and the ladder is the shipped tables
    M = N..N+2.  The first `checked` polynomials of each kind are checked
    against the sampling oracle.
    """

    name = "adaptive"
    throughput = ("polys_per_s", "1/s", 1.0)
    quality_name = "bound_excess"
    oracle_samples = {1: 2000, 2: 150, 3: 40}
    rel_tol = 0.05

    def __init__(self, seed: int, per_kind: int = 40, checked: int = 20,
                 kinds=ADAPTIVE_KINDS):
        self.seed, self.per_kind, self.checked = seed, per_kind, checked
        self.kinds = kinds
        self.oracle = {}  # poly index -> sampled (min, max)

    def setup(self):
        orders = sorted({p for _, p in self.kinds})
        self.ladders = {
            p: [boxopt.standard_table(FAMILY, p, m) for m in range(p + 1, p + 4)]
            for p in orders
        }
        rng = np.random.default_rng(self.seed)
        bases = {p: basis.make_basis(FAMILY, p) for p in orders}
        # kinds take turns, so any prefix of a pass has the same mix
        self.polys = []
        for j in range(self.per_kind):
            for dim, p in self.kinds:
                u = rng.uniform(-1.0, 1.0, size=(p + 1,) * dim)
                tol = self.rel_tol * float(u.max() - u.min())
                self.polys.append((bounder.PolyCoeffs(dim, bases[p], u), tol, j < self.checked))

    def _bound(self, i):
        coeffs, tol, _ = self.polys[i]
        return bounder.bound_adaptive(coeffs, self.ladders[coeffs.basis.p], tol)

    def ops(self):
        for i in range(len(self.polys)):
            yield functools.partial(self._bound, i)

    def items(self, result) -> int:
        return 1

    def _oracle(self, i):
        if i not in self.oracle:
            coeffs = self.polys[i][0]
            self.oracle[i] = bounder.brute_force_extrema(
                coeffs, self.oracle_samples[coeffs.dim]
            )
        return self.oracle[i]

    def _checked(self, results):
        return [i for i in range(len(results)) if self.polys[i][2]]

    def check(self, results) -> int:
        """Failed polynomials: certified range misses the sampled range."""
        failed = 0
        for i in self._checked(results):
            lo, hi = self._oracle(i)
            s = results[i]
            failed += not (s.global_min <= lo + 1e-12 and s.global_max >= hi - 1e-12)
        return failed

    def quality(self, results) -> float:
        """Mean certified width over sampled width, minus 1."""
        ratios = []
        for i in self._checked(results):
            lo, hi = self._oracle(i)
            ratios.append((results[i].global_max - results[i].global_min) / (hi - lo))
        return float(np.mean(ratios)) - 1.0 if ratios else 0.0


class TableGen:
    """optimize_nodes as `polybound boxgen` runs it, for a few (p, M).

    The node search runs with boxgen's default seed 0: its seed moves the
    work of a search by up to a third, which would hide any change of the
    optimizer itself.  The run seed shuffles the order of the tasks.  A
    pass builds every table once; one operation is one table.
    """

    name = "tablegen"
    throughput = ("tables_per_min", "1/min", 60.0)
    quality_name = "table_eps2"

    def __init__(self, seed: int, tasks=((2, 4), (3, 4), (3, 5)), restarts: int = 8):
        order = np.random.default_rng(seed).permutation(len(tasks))
        self.tasks = [tuple(tasks[i]) for i in order]
        self.restarts = restarts
        self.verified = {}  # task index -> BoxQuality of its table

    def setup(self):
        self.bases = {p: basis.make_basis(FAMILY, p) for p, _ in self.tasks}

    def _optimize(self, p, m):
        return boxopt.optimize_nodes(self.bases[p], m, restarts=self.restarts, seed=0)

    def ops(self):
        for p, m in self.tasks:
            yield functools.partial(self._optimize, p, m)

    def items(self, table) -> int:
        return 1

    def check(self, results) -> int:
        """Failed tables: wrong shape, or an envelope that does not enclose."""
        failed = 0
        for k, table in enumerate(results):
            p, m = self.tasks[k]
            quality = boxopt.verify_table(table)
            self.verified[k] = quality
            ok = table.basis.p == p and table.nodes.M == m
            failed += not (ok and quality.max_violation >= -1e-12)
        return failed

    def quality(self, results) -> float:
        """Mean gap-norm sum eps2 of the tables."""
        return float(np.mean([self.verified[k].eps2 for k in range(len(results))])) if results else 0.0


WORKLOADS = {w.name: w for w in (Rotation, MeshCheck, Adaptive, TableGen)}
