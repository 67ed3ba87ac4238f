"""Measurement loop shared by ``run.py`` and the self-test.

``measure`` sets a workload up ``SETUP_REPEATS`` times, then repeats its
operation until the time budget would be exceeded (at least once) and
checks every output.  Untraced, it yields the end-to-end metrics.  Traced,
it alternates an untraced operation with a traced pass (set-up plus
operation under ``layers.instrument``) and yields the per-layer metrics;
the difference between the two medians of operation wall time is the
tracing overhead.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from layers import PER_LAYER, Tracer, combine_passes, instrument, pass_metrics

SETUP_REPEATS = 3
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
REPORT_UNITS = {**E2E_UNITS, "fail_frac": "ratio", "rel_l2_err": "1",
                "misfit2_slope_err": "1", "param_slope_err": "1"}


@dataclass
class Tally:
    """Operation counts, quality values and the first output fingerprint."""

    attempted: int = 0
    failed: int = 0
    quality: dict = field(default_factory=dict)
    fingerprint: object = None

    def add(self, outcome) -> None:
        failed = outcome.failed
        if outcome.fingerprint is not None:
            if self.fingerprint is None:
                self.fingerprint = outcome.fingerprint
            elif outcome.fingerprint != self.fingerprint:
                failed = outcome.attempted  # a repeat changed the outputs
        self.attempted += outcome.attempted
        self.failed += failed
        for key, value in outcome.quality.items():
            self.quality.setdefault(key, value)


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    report: dict
    ops: int
    tracers: list


def _run(workload, inputs):
    """One operation: its wall seconds and its output (None if it raised)."""
    t0 = time.perf_counter()
    try:
        output = workload.run(inputs)
    except Exception:
        traceback.print_exc()
        output = None
    return time.perf_counter() - t0, output


def _checked(workload, inputs, output):
    if output is not None:
        try:
            return workload.check(inputs, output)
        except Exception:
            traceback.print_exc()
    return workload.failure()


def _loop(seconds, unit):
    """Call ``unit`` until the next call would end after ``seconds``."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        unit()
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return len(durations)


def measure(workload, seconds: float, trace: bool, import_s: float) -> Result:
    """Run one workload for about ``seconds`` and collect its metrics."""
    tally = Tally()
    walls, traced_walls, tracers = [], [], []
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.setup()
        setups.append(time.perf_counter() - t0)

    def untraced():
        wall, output = _run(workload, inputs)
        walls.append(wall)
        tally.add(_checked(workload, inputs, output))

    def traced_pair():
        untraced()
        tracer = Tracer()
        with instrument(tracer):
            traced_inputs = workload.setup()
            wall, output = _run(workload, traced_inputs)
        tracers.append(tracer)
        traced_walls.append(wall)
        tally.add(_checked(workload, traced_inputs, output))

    ops = _loop(seconds, traced_pair if trace else untraced)
    unsteady = []
    if trace:
        metrics, unsteady = combine_passes([pass_metrics(t) for t in tracers])
        metrics["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(walls)
        )
        metrics = {k: {"value": metrics[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
        for name in unsteady:
            print(f"count {name} differed between traced passes", file=sys.stderr)
    report = {
        "wall_s": statistics.median(walls),
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": tally.failed / tally.attempted,
        **tally.quality,
    }
    if not trace:
        metrics = {k: {"value": report[k], "unit": u} for k, u in E2E_UNITS.items()}
    return Result(
        correct=tally.failed == 0 and not unsteady,
        attempted=tally.attempted,
        failed=tally.failed,
        metrics=metrics,
        report=report,
        ops=ops,
        tracers=tracers,
    )
