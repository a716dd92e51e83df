"""adeles2d benchmark: closed loop, one client, one single-threaded process.

    python3 bench/run.py --workload sweep|points|queries --seed N
                         --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
With --trace 0 it runs round(S / pass time) whole passes over the
workload's operations, at least one, and reports the end-to-end metrics.  With --trace 1 it
runs one untraced pass and one traced pass, reports the per-layer metrics
of the traced pass and their overhead, and writes the spans to
bench/out/.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

import measure
import workloads
from tracing import LAYERS, Tracer, metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 5
# a traced pass runs slower; its deadlines stretch by this factor
TRACE_DEADLINE_SCALE = 2.0

END_TO_END_UNITS = {
    "checks_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Workload(NamedTuple):
    deadline: float                       # seconds per operation
    pass_s: float                         # one pass, at the reference speed
    qs: Tuple[int, ...]
    make_ops: Callable[[dict, int, str, dict], List[workloads.Op]]

    def passes(self, seconds: float) -> int:
        """Whole passes that take about `seconds`, and at least one.  The
        count depends on --seconds only, so that every run of a workload
        measures the same operations, whatever the host's speed."""
        return max(1, round(seconds / self.pass_s))


# pass_s is the time of one pass at the reference speed, measured when the
# workloads were defined (see NOTES.md)
WORKLOADS = {
    "sweep": Workload(
        2.0, 18.5, workloads.SWEEP_QS,
        lambda pkg, seed, report, digests:
            workloads.sweep_ops(seed, report, digests)),
    "points": Workload(
        6.0, 3.7, workloads.POINTS_QS,
        lambda pkg, seed, report, digests:
            workloads.points_ops(report, digests)),
    "queries": Workload(
        5.0, 19.0, workloads.QUERY_QS,
        lambda pkg, seed, report, digests:
            workloads.queries_ops(pkg, seed)),
}


def load_package() -> dict:
    """Import every module of the package afresh from ./src."""
    for name in [m for m in sys.modules
                 if m == "adeles2d" or m.startswith("adeles2d.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = {layer: importlib.import_module(f"adeles2d.{layer}")
           for layer in LAYERS}
    for mod in pkg.values():
        if not Path(mod.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"{mod.__name__} imported from outside "
                               f"{SRC}: {mod.__file__}")
    return pkg


def warm_up(pkg: dict, wl: Workload) -> None:
    """Build every surface of the workload and run its cheapest suite."""
    for surface in workloads.MODELS:
        for q in wl.qs:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = pkg["cli"].main(["verify", "--surface", surface,
                                      "--q", str(q), "--suites", "chi",
                                      "--allow-large-q"])
            if rc != 0:
                raise RuntimeError(f"warm-up chi on {surface} q={q} "
                                   f"exited {rc}")


def set_up(wl: Workload, seed: int, report: str, digests: dict
           ) -> Tuple[dict, List[workloads.Op], float]:
    """Import, construction, input generation and warm-up, repeated; the
    median, at the reference speed, is the set-up time.  Every repeat must
    draw the same inputs."""
    times, labels = [], None
    for _ in range(SETUP_REPEATS):
        with measure.Stopwatch() as watch:
            pkg = load_package()
            ops = wl.make_ops(pkg, seed, report, digests)
            warm_up(pkg, wl)
        times.append(watch.scaled)
        got = [op.label for op in ops]
        if labels is not None and got != labels:
            raise RuntimeError("input generation is not deterministic")
        labels = got
    return pkg, ops, statistics.median(times)


def result_line(samples: Sequence[measure.Sample], metrics: Dict[str, float],
                units: Dict[str, str]) -> str:
    return json.dumps({
        "correct": not any(s.outcome.wrong for s in samples),
        "attempted": len(samples),
        "failed": sum(1 for s in samples if s.outcome.error is not None),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    })


def run(args) -> int:
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    report = str(OUT / "report.json")
    with open(DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    pkg, ops, setup_s = set_up(wl, args.seed, report, digests)

    if not args.trace:
        samples = [s for _ in range(wl.passes(args.seconds))
                   for s in measure.run_pass(ops, pkg, wl.deadline)]
        metrics, notes = measure.summarize(samples, wl.deadline)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print("\n".join(notes))
        print(result_line(samples, metrics, END_TO_END_UNITS))
        return 0

    plain = measure.run_pass(ops, pkg, wl.deadline)
    tracer = Tracer(pkg)
    tracer.install()
    traced_ops = [op._replace(run=tracer.bind(i, op.run))
                  for i, op in enumerate(ops)]
    deadline = wl.deadline * TRACE_DEADLINE_SCALE
    traced = measure.run_pass(traced_ops, pkg, deadline)
    # overhead over the operations that passed both times, so that the
    # longer deadline of the traced pass does not count as overhead
    both = [(a.scaled, b.scaled) for a, b in zip(plain, traced)
            if a.outcome.error is None and b.outcome.error is None]
    plain_s = sum(a for a, _ in both)
    traced_s = sum(b for _, b in both)
    metrics = tracer.metrics()
    # layer times were taken in wall time; bring them to the reference
    # speed at the traced pass's mean rate
    rate = sum(s.scaled for s in traced) / sum(s.seconds for s in traced)
    units = metric_units()
    for name in metrics:
        if units[name] == "s":
            metrics[name] *= rate
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write_spans(str(spans))
    _, notes = measure.summarize(traced, deadline)
    print(f"{len(both)} ops passed untraced in {plain_s:.3f} s and traced in "
          f"{traced_s:.3f} s at the reference speed (overhead "
          f"x{traced_s / plain_s:.2f}); "
          f"{sum(tracer.calls.values())} spans, the first "
          f"{len(tracer.spans)} in {spans.relative_to(ROOT)}")
    print("\n".join(notes))
    print(result_line(plain + traced, metrics, units))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "adeles2d").is_dir():
        print(f"error: no package source at {SRC / 'adeles2d'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
