"""Closed-loop timing of operations under a per-operation deadline, and the
statistics the benchmark reports."""

from __future__ import annotations

import math
import signal
import statistics
import time
import traceback
from collections import Counter
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from workloads import Op, Outcome


class DeadlineExceeded(BaseException):
    """Raised inside an operation when its deadline expires.

    A BaseException, so that no `except Exception` in the program under
    test can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def call_with_deadline(fn: Callable[[], Outcome], seconds: float) -> Outcome:
    """Run fn in this thread; SIGALRM interrupts it after `seconds`."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)


# The host's speed drifts by up to 2x over seconds (other tenants share its
# cores).  So a fixed pure-Python probe loop is timed at the start and end
# of every operation and, on SIGPROF, after every PROBE_INTERVAL_S of CPU
# time inside it; the operation's time, less the probes', is rescaled to
# the speed at which the probe takes REFERENCE_PROBE_S (its fast-state time
# on a 2-CPU, Python 3.11 host).
PROBE_STEPS = 2000
PROBE_INTERVAL_S = 0.02
REFERENCE_PROBE_S = 220e-6


class Stopwatch:
    """Times a block at the reference speed (see above)."""

    def _probe(self, *_signal) -> None:
        t0 = time.perf_counter()
        acc: dict = {}
        for i in range(PROBE_STEPS):
            k = (i * 31) % 97
            acc[k] = acc.get(k, 0) + (i * i) % 7
        self.probes.append(time.perf_counter() - t0)

    def __enter__(self) -> "Stopwatch":
        self.probes: List[float] = []
        self._probe()
        self._previous = signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self.wall = end - self._start
        self.seconds = self.wall - sum(self.probes[1:])
        self._probe()
        self.scaled = (self.seconds * REFERENCE_PROBE_S
                       / statistics.mean(self.probes))


class Sample(NamedTuple):
    label: str
    seconds: float               # wall time of the operation
    scaled: float                # its time at the reference speed
    outcome: Outcome


def run_op(op: Op, pkg: dict, deadline: float) -> Sample:
    """An expired deadline is wall-clock time, probes included, so it is
    not rescaled."""
    expired = False
    with Stopwatch() as watch:
        try:
            outcome = call_with_deadline(lambda: op.run(pkg), deadline)
        except DeadlineExceeded:
            outcome = Outcome(0, f"deadline of {deadline:g} s expired")
            expired = True
        except Exception as err:  # a refusal or crash fails this op only
            where = traceback.extract_tb(err.__traceback__)[-1]
            outcome = Outcome(0, f"{type(err).__name__}: {err} "
                                 f"(at {where.name}:{where.lineno})")
    if expired:
        return Sample(op.label, watch.wall, watch.wall, outcome)
    return Sample(op.label, watch.seconds, watch.scaled, outcome)


def run_pass(ops: Sequence[Op], pkg: dict, deadline: float) -> List[Sample]:
    """One closed-loop pass: each op starts when the previous one ends."""
    return [run_op(op, pkg, deadline) for op in ops]


# ---------------------------------------------------------------------------
# statistics


def latency_ms(s: Sample, deadline: float) -> float:
    """A failed op counts as missing the deadline: at least the deadline."""
    ms = s.scaled * 1000.0
    return ms if s.outcome.error is None else max(ms, deadline * 1000.0)


def tail_percentile(n: int) -> Optional[int]:
    """The highest whole percentile p in 50..99 with at least ten samples
    beyond its nearest-rank position, or None when n < 20."""
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return None


def percentile(values: Sequence[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p * len(ordered) / 100)) - 1]


def summarize(samples: Sequence[Sample], deadline: float
              ) -> Tuple[dict, List[str]]:
    """End-to-end metrics (bar setup time and memory) and the lines that
    state sample counts, the tail percentile and every failed op."""
    lat = [latency_ms(s, deadline) for s in samples]
    spent = sum(s.scaled for s in samples)
    raw = sum(s.seconds for s in samples)
    n = len(samples)
    failed = [s for s in samples if s.outcome.error is not None]
    p = tail_percentile(n) or 100
    metrics = {
        "checks_per_s": sum(s.outcome.checks for s in samples) / spent,
        "op_ms_p50": statistics.median(lat),
        "op_ms_tail": percentile(lat, p),
        "ok_frac": (n - len(failed)) / n,
    }
    notes = [f"samples: {n} ops in {spent:.3f} s at the reference speed "
             f"({raw:.3f} s wall); op_ms_tail is p{p}"
             + ("" if tail_percentile(n) else
                " (the maximum: fewer than 20 samples)"),
             f"failed: {len(failed)} of {n}"]
    repeats = Counter((s.label, s.outcome.error, s.outcome.wrong)
                      for s in failed)
    notes += [f"FAILED {label}: {error}"
              + (" [wrong output]" if wrong else "")
              + (f" (x{count})" if count > 1 else "")
              for (label, error, wrong), count in repeats.items()]
    return metrics, notes
