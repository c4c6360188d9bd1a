"""Timed loop, checks and result records for one workload.

A run repeats the workload's pass until its operations have been busy
for the requested seconds; the first pass always completes, and its
results give the quality figure.  Every pass is checked outside the
timed region.  The traced run alternates untraced and traced passes, so
its per-layer figures come with the tracing overhead measured on the
same inputs in the same process.

The untraced run reports operation times at a fixed reference host
speed (see HostSpeed), and the wall-clock figures beside them.
"""

from __future__ import annotations

import resource
import signal
import sys
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from layers import Stats, Tracer, layer_metrics


@dataclass
class Tally:
    """What the operations of a run did."""

    spans: list = field(default_factory=list)  # (start, end) of each operation
    items: int = 0
    attempted: int = 0
    failed: int = 0
    quality: float = 0.0
    passes: int = 0
    raised: bool = False
    busy: float = 0.0


def run_pass(workload, tally: Tally, stop=None, trace=None) -> float:
    """Run one pass, check it, and return its busy time.

    stop() is asked after each operation whether the run has measured
    long enough.  trace, when given, is a (tracer, stats) pair that
    records the operations; the checks stay outside the recording.  An
    operation that raises ends the pass and the run, and counts as failed.
    """
    results, busy = [], 0.0
    with trace[0].record(trace[1]) if trace else nullcontext():
        for op in workload.ops():
            fn = trace[0].operation(op) if trace else op
            t0 = perf_counter()
            try:
                result = fn()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                tally.raised = True
                tally.attempted += 1
                tally.failed += 1
                break
            t1 = perf_counter()
            busy += t1 - t0
            tally.busy += t1 - t0
            tally.spans.append((t0, t1))
            tally.items += workload.items(result)
            results.append(result)
            if stop is not None and tally.passes > 0 and stop():
                break
    tally.attempted += len(results)
    tally.failed += workload.check(results)
    if tally.passes == 0:
        tally.quality = workload.quality(results)
    tally.passes += 1
    return busy


_KERNEL_INPUT = np.linspace(-1.0, 1.0, 16)


def _reference_kernel():
    x = _KERNEL_INPUT
    for _ in range(100):
        x = np.maximum(0.5 * x, -x) + 1.0


class HostSpeed:
    """The host's speed through a run, sampled with a fixed kernel.

    On a shared host the same code runs up to a third slower for seconds
    at a time.  A timer signal runs a small fixed kernel every INTERVAL
    seconds; of the kernels tried, this loop of tiny numpy updates tracked
    the slowdown of every workload best.  The kernel runs twice and only the second, warm run
    is timed, so what the workload left in the caches does not count.  An
    operation's time, less the kernel runs inside it, is scaled by
    REFERENCE over the mean kernel time in a window around it, raised to
    ELASTICITY: seconds at the speed where the kernel takes REFERENCE
    seconds.  The workloads slow down less than the kernel does; over
    25-35 runs each, their log time rose 0.79-0.92 times as fast as the
    kernel's.  The sampling costs about 1% of the run.
    """

    INTERVAL = 0.05
    REFERENCE = 2.0e-4
    ELASTICITY = 0.8
    WINDOW = 0.5  # half-width, s, of the window around short operations

    def __init__(self):
        self.samples = []  # (start, time of the timed kernel run, time of both runs)

    def _sample(self, signum, frame):
        t0 = perf_counter()
        _reference_kernel()
        t1 = perf_counter()
        _reference_kernel()
        t2 = perf_counter()
        self.samples.append((t0, t2 - t1, t2 - t0))

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def durations(self, spans):
        """Wall and reference-speed times of operations given as (start, end).

        Both leave out the kernel runs that fell inside an operation.
        """
        spans = np.asarray(spans, dtype=float).reshape(-1, 2)
        start, end = spans[:, 0], spans[:, 1]
        if not self.samples:
            return end - start, end - start
        t, c, spent = np.asarray(self.samples).T
        total = np.concatenate([[0.0], np.cumsum(c)])
        spent = np.concatenate([[0.0], np.cumsum(spent)])
        wall = end - start - (spent[np.searchsorted(t, end)] - spent[np.searchsorted(t, start)])
        mid = 0.5 * (start + end)
        half = np.maximum(self.WINDOW, 0.5 * (end - start))
        lo, hi = np.searchsorted(t, mid - half), np.searchsorted(t, mid + half)
        nearest = c[np.clip(np.searchsorted(t, mid), 0, c.size - 1)]
        count = hi - lo
        kernel = np.where(count > 0, (total[hi] - total[lo]) / np.maximum(count, 1), nearest)
        return wall, wall * (self.REFERENCE / kernel) ** self.ELASTICITY


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float, setup_s: float):
    """Untraced run; returns (tally, result-line metrics, full record)."""
    tally = Tally()
    with HostSpeed().sampling() as speed:
        while tally.busy < seconds and not tally.raised:
            run_pass(workload, tally, stop=lambda: tally.busy >= seconds)
    wall, ref = speed.durations(tally.spans)
    ms, wall_ms = 1e3 * ref, 1e3 * wall
    rate = tally.items / ref.sum() if ref.size else 0.0
    p50 = float(np.median(ms)) if ms.size else 0.0
    quality = float(tally.quality)
    metrics = {
        "items_per_s": (rate, "1/s"),
        "op_ms_p50": (p50, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
        "quality_loss": (quality, "1"),
    }
    name, unit, scale = workload.throughput
    record = {
        name: (rate * scale, unit),
        "op_ms_p50": (p50, "ms"),
        "op_count": (float(ms.size), "count"),
    }
    if ms.size >= 100:  # ten samples beyond the 90th percentile
        record["op_ms_p90"] = (float(np.percentile(ms, 90)), "ms")
    record.update({
        "setup_s": metrics["setup_s"],
        "peak_rss_mb": metrics["peak_rss_mb"],
        "failed_frac": (tally.failed / max(1, tally.attempted), "ratio"),
        workload.quality_name: (quality, "1"),
        f"{name}_wall": (tally.items / wall.sum() * scale if wall.size else 0.0, unit),
        "op_ms_p50_wall": (float(np.median(wall_ms)) if wall.size else 0.0, "ms"),
        "host_speed": (float(ref.sum() / wall.sum()) if wall.size else 1.0, "ratio"),
    })
    return tally, metrics, record


def measure_traced(workload, seconds: float):
    """Traced run; returns (tally, per-layer metrics, absent boundaries).

    Set-up runs traced.  Passes then alternate untraced and traced,
    starting untraced so caches are warm, until both kinds have run and
    the operations have been busy for the requested seconds.  Layer times
    are wall-clock and include the host-speed sampling (about 1%); the
    overhead compares reference-speed pass times.
    """
    tracer = Tracer()
    setup_stats = Stats()
    with tracer.record(setup_stats):
        workload.setup()
    tally = Tally()
    bounds, pass_stats = [0], []
    with HostSpeed().sampling() as speed:
        while (tally.passes < 2 or tally.busy < seconds) and not tally.raised:
            trace = None
            if tally.passes % 2:
                pass_stats.append(Stats())
                trace = (tracer, pass_stats[-1])
            run_pass(workload, tally, trace=trace)
            bounds.append(len(tally.spans))
    _, ref = speed.durations(tally.spans)
    times = [ref[a:b].sum() for a, b in zip(bounds, bounds[1:])]
    plain, traced = times[0::2], times[1::2]
    if not traced:
        traced = plain = [1.0]  # run ended early on an exception
    overhead = 100.0 * (np.mean(traced) / np.mean(plain) - 1.0)
    metrics = layer_metrics(setup_stats, pass_stats, len(tracer.absent), overhead)
    return tally, metrics, tracer.absent
