"""Record the report digests of every verify cell at the default seed.

    python3 bench/make_digests.py

Runs each cell of the sweep and points workloads once, under the sweep
deadline scaled up, and writes bench/digests.json: cell key -> SHA-256 of
its JSON report, or null for a cell that produced no report.  Rerun only
when a change is meant to alter reports, and say so with the change.
"""

from __future__ import annotations

import hashlib
import json
import sys

import measure
import run as bench
import workloads

DEFAULT_SEED = 0
DEADLINE = 10.0


def main() -> int:
    pkg = bench.load_package()
    bench.OUT.mkdir(exist_ok=True)
    report = str(bench.OUT / "report.json")
    cells = [(s, q, suite) for s in workloads.MODELS
             for q in workloads.SWEEP_QS for suite in workloads.SUITES]
    cells += [(s, q, "windows") for s in workloads.MODELS
              for q in workloads.POINTS_QS if q not in workloads.SWEEP_QS]
    digests = {}
    for surface, q, suite in cells:
        op = workloads.verify_cell(surface, q, suite, DEFAULT_SEED, report,
                                   None, extra=("--allow-large-q",))
        sample = measure.run_op(op, pkg, DEADLINE)
        key = workloads.digest_key(surface, q, suite, DEFAULT_SEED)
        if sample.outcome.error is None:
            with open(report, "rb") as fh:
                digests[key] = hashlib.sha256(fh.read()).hexdigest()
        else:
            digests[key] = None
        print(f"{key}: {digests[key] or sample.outcome.error}",
              file=sys.stderr)
    with open(bench.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
