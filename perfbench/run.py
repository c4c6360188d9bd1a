"""polybound benchmark: run one workload for one seed and report it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rotation --seed 1 --seconds 20 --trace 0

Workloads: rotation, meshcheck, adaptive, tablegen (see workloads.py).
With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
reports the per-layer metrics and the tracing overhead.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it is the full record of the run,
with the machine it ran on.  The exit code is 0 only when every check
passed.  polybound is imported from src/ of the same checkout.
"""

from time import perf_counter

START = perf_counter()

import os  # noqa: E402

# one process, one thread: pin every BLAS/OpenMP pool before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("rotation", "meshcheck", "adaptive", "tablegen")
SETUP_PROBES = 3  # fresh processes timed for setup_s


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up the workload in this fresh process and print the time
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def load_package():
    """Import polybound from this checkout's src/, and from nowhere else."""
    if not (SRC / "polybound" / "__init__.py").is_file():
        sys.exit(f"perfbench: no polybound sources at {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import polybound

    if Path(polybound.__file__).resolve().parent != SRC / "polybound":
        sys.exit(f"perfbench: imported polybound from {polybound.__file__}, not {SRC}")


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def probe_setup(args) -> float:
    """Wall-clock set-up time of the workload in a fresh interpreter.

    It is not scaled to the reference host speed: in a process that has
    just started, the reference kernel did not track the host (scaled,
    twelve probes varied twice as much as unscaled).
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise RuntimeError(f"set-up probe exited with {out.returncode}")
    return float(out.stdout.split()[-1])


def as_json(metrics: dict) -> dict:
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    load_package()
    import harness
    import workloads

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cls = workloads.WORKLOADS[args.workload]
        workload = cls(args.seed, workdir) if cls is workloads.MeshCheck else cls(args.seed)
        if args.setup_probe:
            workload.setup()
            print(repr(perf_counter() - START))
            return 0
        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "seconds": args.seconds, "machine": machine()}
        if args.trace:
            tally, metrics, absent = harness.measure_traced(workload, args.seconds)
            record = metrics
            info["absent_boundaries"] = absent
        else:
            samples = [probe_setup(args) for _ in range(SETUP_PROBES)]
            info["setup_samples_s"] = samples
            workload.setup()
            tally, metrics, record = harness.measure(
                workload, args.seconds, statistics.median(samples)
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still holds its own directory there
    for name, (value, unit) in record.items():
        print(f"{name:30s} {value:14.6g} {unit}")
    print(json.dumps({**info, "record": as_json(record)}))
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": as_json(metrics)}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
