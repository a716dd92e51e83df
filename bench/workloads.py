"""The three workloads: what one operation is, how it is checked, and how
the inputs are drawn from the seed.

An operation returns an `Outcome`.  It passes only when its output is
checked good; it fails on a deadline expiry, an exception (typed refusals
included), a failed check or a report-digest mismatch.  A failure is
`wrong` when the program produced an answer and the answer is bad, as
opposed to producing no answer at all.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

SUITES = ("reciprocity", "bezout", "serre", "chi", "commutator", "rr",
          "windows")
MODELS = ("P2", "P1xP1")
SWEEP_QS = (2, 3, 4, 5, 7, 8, 9)
POINTS_QS = (9, 11, 13)
QUERY_QS = (4, 5, 7, 9)
# ordered pairs of total degrees, each <= 3, with product <= 6
QUERY_DEGREES = tuple((a, b) for a in (1, 2, 3) for b in (1, 2, 3)
                      if a * b <= 6)
QUERIES_PER_STRATUM = 4
VERIFY_RANGE = "-2:2"
PRECISION = 8
VAR_NAMES = {"P2": ("X", "Y", "Z"), "P1xP1": ("X0", "X1", "Y0", "Y1")}
MAX_DRAWS = 10_000


class Outcome(NamedTuple):
    checks: int                  # passed checks (0 when the op failed)
    error: Optional[str] = None  # why the operation failed, None on a pass
    wrong: bool = False          # the program answered, and wrongly


class Op(NamedTuple):
    label: str                   # names the inputs in failure lines
    run: Callable[[dict], Outcome]


def digest_key(surface: str, q: int, suite: str, seed: int) -> str:
    return f"{surface}/q{q}/{suite}/seed{seed}"


# ---------------------------------------------------------------------------
# verify cells (sweep, points)


def verify_cell(surface: str, q: int, suite: str, seed: int, report: str,
                digests: Optional[Dict[str, Optional[str]]],
                extra: Sequence[str] = ()) -> Op:
    """One `adeles2d verify` run of one suite on one surface and q.

    The JSON report (timings off) is hashed; when `digests` has an entry
    for the cell the hash must match it.  A null entry marks a cell with
    no report on record (it never finished), so only its own checks count.
    """
    argv = ["verify", "--surface", surface, "--q", str(q), "--suites", suite,
            "--range", VERIFY_RANGE, "--precision", str(PRECISION),
            "--seed", str(seed), "--json", report, *extra]
    key = digest_key(surface, q, suite, seed)
    label = f"verify {surface} q={q} {suite} seed={seed}"
    if extra:
        label += " " + " ".join(extra)

    def run(pkg: dict) -> Outcome:
        with contextlib.suppress(FileNotFoundError):
            os.remove(report)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = pkg["cli"].main(argv)
        try:
            with open(report, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            why = err.getvalue().strip() or "no report written"
            return Outcome(0, f"exit {rc}, no report: {why}")
        want = digests and digests.get(key)
        got = hashlib.sha256(data).hexdigest()
        if want and got != want:
            return Outcome(0, f"report digest {got[:12]} != stored "
                              f"{want[:12]}", wrong=True)
        summary = json.loads(data)["summary"]
        if rc != 0 or summary["failed"]:
            return Outcome(0, f"exit {rc}, {summary['failed']} failed checks",
                           wrong=True)
        return Outcome(summary["passed"])

    return Op(label, run)


def sweep_ops(seed: int, report: str, digests) -> List[Op]:
    """All 7 suites x both surfaces x 7 values of q, in a fixed order,
    because earlier cells fill field caches that later ones use.

    Only the reciprocity suite at prime q takes the benchmark seed (it draws
    its forms from it).  At q = 4, 8, 9 reciprocity hangs for almost every
    seed; those cells run at seed 0, where all of them hang, so that every
    run counts the same failures."""
    def cell_seed(q: int, suite: str) -> int:
        prime = all(q % d for d in range(2, q))
        return seed if suite == "reciprocity" and prime else 0

    return [verify_cell(s, q, suite, cell_seed(q, suite), report, digests)
            for s in MODELS for q in SWEEP_QS for suite in SUITES]


def points_ops(report: str, digests) -> List[Op]:
    """The windows suite at q = 9, 11, 13 on both surfaces; no input here
    depends on the seed."""
    return [verify_cell(s, q, "windows", 0, report, digests,
                        extra=("--allow-large-q",))
            for s in MODELS for q in POINTS_QS]


# ---------------------------------------------------------------------------
# intersect queries


def _monomials(surface: str, cls) -> List[Tuple[int, ...]]:
    if surface == "P2":
        return [(i, j, cls - i - j) for i in range(cls, -1, -1)
                for j in range(cls - i, -1, -1)]
    a, b = cls
    return [(i, a - i, j, b - j) for i in range(a, -1, -1)
            for j in range(b, -1, -1)]


def curve_text(surface: str, cls, p: int, rng: random.Random) -> str:
    """A random nonzero form of the class with coefficients in 0..p-1."""
    names = VAR_NAMES[surface]
    while True:
        bits = []
        for e in _monomials(surface, cls):
            c = rng.randrange(p)
            if c:
                mono = "".join(n + (f"^{k}" if k > 1 else "")
                               for n, k in zip(names, e) if k)
                bits.append(("" if c == 1 else str(c)) + mono)
        if bits:
            return "+".join(bits)


def _random_class(surface: str, total: int, rng: random.Random):
    if surface == "P2":
        return total
    a = rng.randrange(total + 1)
    return (a, total - a)


def query_inputs(pkg: dict, seed: int) -> List[Tuple[str, int, str, str]]:
    """Seeded (surface, q, curve, curve) tuples, a fixed number for every
    surface x q x (total degree pair) stratum, in shuffled order.

    Each curve text is kept only when `curve_make` accepts it (it checks
    irreducibility), and the two curves of a pair differ.
    """
    surface_mod = pkg["surface"]
    rng = random.Random(seed)
    out = []
    for surface in MODELS:
        for q in QUERY_QS:
            S = surface_mod.surface_make(surface, q)
            for d1, d2 in QUERY_DEGREES:
                for _ in range(QUERIES_PER_STRATUM):
                    out.append((surface, q) + _draw_pair(
                        surface_mod, S, d1, d2, rng))
    rng.shuffle(out)
    return out


def _draw_pair(surface_mod, S, d1: int, d2: int,
               rng: random.Random) -> Tuple[str, str]:
    p = S.base.p
    for _ in range(MAX_DRAWS):
        texts = [curve_text(S.model, _random_class(S.model, d, rng), p, rng)
                 for d in (d1, d2)]
        try:
            a, b = (surface_mod.curve_make(S, t) for t in texts)
        except ValueError:
            continue
        if a != b:
            return texts[0], texts[1]
    raise RuntimeError(f"no valid curve pair of degrees {d1}, {d2} on {S!r}")


def query_op(surface: str, q: int, a: str, b: str) -> Op:
    """Parse both curves, then compare the symbol route, the resultant
    route and the class form of the intersection number."""
    label = f"intersect {surface} q={q} curves {a} , {b}"

    def run(pkg: dict) -> Outcome:
        sf, sy = pkg["surface"], pkg["symbols"]
        S = sf.surface_make(surface, q)
        A, B = sf.curve_make(S, a), sf.curve_make(S, b)
        C, H = sf.Divisor(S, {A: 1}), sf.Divisor(S, {B: 1})
        symbol = sy.intersection_number(C, H, PRECISION)
        resultant = sy.intersection_oracle(C, H)
        form = sy.class_intersection(S, sf.divisor_class(C),
                                     sf.divisor_class(H))
        if symbol == resultant == form:
            return Outcome(1)
        return Outcome(0, f"routes disagree: symbol {symbol}, resultant "
                          f"{resultant}, class form {form}", wrong=True)

    return Op(label, run)


def queries_ops(pkg: dict, seed: int) -> List[Op]:
    return [query_op(*item) for item in query_inputs(pkg, seed)]
