"""Timing, the pass loop, set-up probes and the end-to-end metrics.

Every time the benchmark reports is scaled to a reference CPU speed. The
hosts this runs on are shared: the speed of plain interpreted Python
drifts by 20-40 % over tens of seconds as other tenants come and go, which
is larger than any regression bound worth having. So a short calibration
loop of fixed work runs before and after each op, and each op's measured
seconds are multiplied by ``CAL_REF_S / c``, where c is the median of the
calibration times taken from one op length before the op starts to one op
length after it ends: the two loops that bracket a short op, and the
loops of the neighbouring ops for a long one. A value therefore reads as
seconds on a host where the loop takes ``CAL_REF_S``. The trace file keeps
each span's raw times and its op's scale.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CAL_ITERS = 30_000
#: Seconds one calibration loop takes at the reference speed. This sets
#: the unit of every reported time; it never changes between commits.
CAL_REF_S = 0.0025

SETUP_SPAWNS = 15


def calibrate() -> float:
    """Seconds taken by a fixed loop of interpreted integer arithmetic."""
    start = time.perf_counter()
    total = 0
    for i in range(CAL_ITERS):
        total += i * i
    return time.perf_counter() - start


class Clock:
    """Times one call at a time, with a calibration loop after each call."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._calibrate()

    def _calibrate(self) -> None:
        start = time.perf_counter()
        seconds = calibrate()
        self.samples.append((start + seconds / 2, seconds))

    def time(self, fn):
        """(result or raised exception, start, end) of one call."""
        start = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # an op that raises is counted as failed
            out = exc
        end = time.perf_counter()
        self._calibrate()
        return out, start, end

    def scale(self, start: float, end: float) -> float:
        """Factor from seconds measured in [start, end] to reference seconds."""
        reach = max(end - start, CAL_REF_S)
        near = [c for t, c in self.samples if start - reach <= t <= end + reach]
        return CAL_REF_S / statistics.median(near)


def run_passes(ops, run_op, seconds: float, clock: Clock, keep, tracer=None,
               min_passes: int = 1):
    """Run the whole op list repeatedly, one op at a time, for `seconds`.

    At least `min_passes` passes run; another starts only if it is expected
    to end within the time. `keep(out)` reduces each output to what is
    stored. Returns one list of (kept, raw seconds, scale) per pass. With
    a tracer, each op is bracketed as one traced op of source "ops".
    """
    passes = []
    start = time.perf_counter()
    while True:
        gc.collect()
        began = time.perf_counter()
        records = []
        for op in ops:
            if tracer is not None:
                tracer.begin_op(str(op["key"]), "ops")
            out, t0, t1 = clock.time(lambda op=op: run_op(op))
            if tracer is not None:
                tracer.end_op(t0, t1)
            records.append((out if isinstance(out, Exception) else keep(out), t0, t1))
        passes.append(records)
        now = time.perf_counter()
        if len(passes) >= min_passes and now - start + (now - began) > seconds:
            return [[(kept, t1 - t0, clock.scale(t0, t1)) for kept, t0, t1 in records]
                    for records in passes]


def pass_walls(passes) -> list[float]:
    """Scaled wall time of each pass: the sum of its ops' scaled times."""
    return [sum(raw * scale for _, raw, scale in records) for records in passes]


def latencies(passes) -> list[float]:
    return [raw * scale for records in passes for _, raw, scale in records]


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99), interpolated between closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def child_env() -> dict:
    """Environment for a child interpreter that imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("IMMACULATE_FORMAT", None)
    return env


def setup_seconds(clock: Clock) -> list[float]:
    """Scaled spawn-to-ready times of fresh interpreters.

    Each child imports the package and prints one line; the time runs from
    the spawn until that line arrives. The op inputs are built by the
    parent, so the benchmark's own input generation stays out of it.
    """
    cmd = [sys.executable, "-c", "import immaculate; print('ready', flush=True)"]

    def spawn():
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                              cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {line!r}")
            return ready

    spans = []
    for _ in range(SETUP_SPAWNS):
        ready, start, _ = clock.time(spawn)
        if isinstance(ready, Exception):
            raise ready
        spans.append((start, ready))
    return [(ready - start) * clock.scale(start, ready) for start, ready in spans]
