"""Where the time of a benchmark workload goes, by statistical sampling.

    python3 tools/profile_sample.py --workload points --seconds 10
    python3 tools/profile_sample.py --workload sweep --seconds 30

Runs the verify cells of one workload of bench/workloads.py (`sweep` or
`points`, at seed 0, the seed of the recorded digests): one pass
unsampled, so that caches and lazy set-up are warm, then whole passes
until --seconds of wall time are spent, under a SIGPROF timer set to fire
every millisecond of this process's CPU time (the kernel may fire it more
coarsely, at its tick; the output states the CPU time per sample).  Each
sample charges its innermost Python function with self time, and each
distinct function on its stack with inclusive time; time in C code (dict
and str methods, int arithmetic) counts as self time of the Python
function that called it.  The shares are printed per function and per
module.

A deterministic profiler such as cProfile pays a fixed cost on every Python
call, so it overstates call-heavy code, such as a report writer that calls
a small function per leaf, against code that spends its time inside a few
calls; sampling pays per sample, wherever the time went.  Standard library
only; single-threaded; Unix only (setitimer).
"""

from __future__ import annotations

import argparse
import collections
import importlib
import signal
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INTERVAL = 0.001  # seconds of process CPU time between samples
TOP = 25  # functions listed per table
LAYERS = ("fields", "series", "multipoly", "linalg", "surface", "residues",
          "symbols", "cohomology", "measures", "cli")


def _module(frame) -> str:
    return frame.f_globals.get("__name__", "?")


def _name(frame) -> str:
    code = frame.f_code
    return f"{_module(frame)}.{getattr(code, 'co_qualname', code.co_name)}"


class Sampler:
    """Self and inclusive sample counts per function, and self counts per
    module, from SIGPROF."""

    def __init__(self):
        self.samples = 0
        self.modules: collections.Counter = collections.Counter()
        self.self_counts: collections.Counter = collections.Counter()
        self.inclusive: collections.Counter = collections.Counter()

    def _on_signal(self, _signum, frame) -> None:
        if frame is None:
            return
        self.samples += 1
        self.modules[_module(frame)] += 1
        self.self_counts[_name(frame)] += 1
        seen = set()
        while frame is not None:
            seen.add(_name(frame))
            frame = frame.f_back
        self.inclusive.update(seen)

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


def _table(title: str, counts: collections.Counter, total: int) -> str:
    lines = [f"{title}:"]
    for name, n in counts.most_common(TOP):
        lines.append(f"  {100 * n / total:6.1f} %  {n:7d}  {name}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep",
                                                              "points"))
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="wall time of the sampled passes; whole "
                             "passes run, at least one")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    workloads = importlib.import_module("workloads")
    pkg = {layer: importlib.import_module(f"adeles2d.{layer}")
           for layer in LAYERS}
    with tempfile.TemporaryDirectory() as tmp:
        report = str(Path(tmp) / "report.json")
        ops = (workloads.sweep_ops(0, report, None)
               if args.workload == "sweep"
               else workloads.points_ops(report, None))

        def one_pass() -> None:
            for op in ops:
                outcome = op.run(pkg)
                if outcome.error is not None:
                    raise SystemExit(f"{op.label}: {outcome.error}")

        one_pass()
        passes = 0
        started, cpu = time.perf_counter(), time.process_time()
        with Sampler() as sampler:
            while not passes or time.perf_counter() - started < args.seconds:
                one_pass()
                passes += 1
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu
    total = sampler.samples
    print(f"workload {args.workload}: {passes} warm passes of {len(ops)} "
          f"cells in {wall:.2f} s, {cpu:.2f} s of CPU time; samples: "
          f"{total}, one per {cpu / max(total, 1) * 1e3:.2f} ms")
    if not total:
        raise SystemExit("no samples taken")
    print(_table("self, by module", sampler.modules, total))
    print(_table("self, by function", sampler.self_counts, total))
    print(_table("inclusive, by function", sampler.inclusive, total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
