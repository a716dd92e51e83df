"""Per-layer timings of the adeles2d package, written to BENCH_<label>.json.

    python3 tools/bench_layers.py --label int-codes
    python3 tools/bench_layers.py --label parent --src /other/checkout/src
    python3 tools/bench_layers.py --label ci --repeat 1 --out /tmp/b.json
    python3 tools/bench_layers.py --label records --against /parent/src

Every case builds its inputs through text parsing (`parse_poly`,
`curve_make` and the cli parsers) and public calls whose signatures do not
depend on how a function is stored, so one script times any checkout of the
package whose expansions at a flag take a box (t_to, u_to) and divide by
`ratio_at_flag`, whatever its coefficients are made of.  A case's
figure is the best of --repeat rounds (7 by default), each timing every
case once, in seconds; the element, trace, 1 x 1, product, Riemann-Roch
space and dimension, derive_eq1 and smooth_flag cases time a batch and
report one operation.  The file also records the line count of each source
module.
Standard library only; single-threaded.

Two checkouts timed in separate processes differ by the drift of the host
between the processes as well as by their code.  --against SRC imports
SRC's package into the same process, each side under a name of its own
(load), times each case on both sides in turn (the side that goes first
alternates by round), and writes both figures and their ratio.  It also
keeps each round's paired ratio and writes, per case, `interval`: the
95 % order-statistic interval of the median paired ratio
(median_interval).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import math
import os
import platform
import random
import sys
import tempfile
import time
import types
from pathlib import Path
from typing import Callable, Dict, Tuple

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("fields", "series", "multipoly", "linalg", "surface", "residues",
           "symbols", "cohomology", "measures", "cli")
# (p, d) of the element-arithmetic fields: a prime field, two table fields
# and one field above the table limit
FIELDS = {"F5": (5, 1), "F49": (7, 2), "F729": (3, 6), "F7^6": (7, 6)}
# (p, d, e) of a trace from F_(p^d) down to F_(p^e)
TRACES = {"F7^6.F7": (7, 6, 1), "F81.F9": (3, 4, 2)}
# (p, d) of the product fields, one per kind of FieldDesc.axpy: mod p,
# tables and packed; products of n codes, timed in batches of n -> count
# so that one timing takes 1 ms or more on each side
PRODUCT_FIELDS = {"F7": (7, 1), "F9": (3, 2), "F7^6": (7, 6)}
PRODUCT_BATCH = {8: 200, 64: 10, 1024: 1}
BATCH = 400
FLEX4 = ("X^3+XZ^2+6Y^2Z", "0:1:0", "X^3/Z^3", 7, 4)  # tests/golden/flex4
# YZ meets the cubic to order 3 at the flex: Y^2/YZ, a unit over YZ, by
# ratio_at_flag through expand_at_flag on the box t < 64, u < 61
FLEX64 = ("X^3+XZ^2+6Y^2Z", "0:1:0", "Y^2/YZ", 7, (64, 61))
CONIC8 = ("YZ-X^2", "0:0:1", "X^2+Y^2/Z^2", 5, 8)
# Z^20 meets the cubic to order 60 at the flex: `expand --function
# X^20/Z^20 --precision 16` expands it on the box t < 16, u < 1036
FLEX20 = ("X^3+XZ^2+6Y^2Z", "0:1:0", "X^20/Z^20", 7, (16, 1036))
CUBIC_F9 = ("Y^2Z-X^3-XZ^2-Z^3", "0:1:1", "X/Z", 9, (8, 8))
# over F_5 these meet in two points of the first chart and one at infinity;
# the oracle also times them over F_9
CONIC_CUBIC = ("YZ-X^2", "Y^2Z-X^3-XZ^2")
# over F_5 the cubic crosses Z at (1:4:0) and at a point of degree 2
CUBIC_ON_Z = ("X^3+Y^3+Z^3+XYZ", "Z")
# the smooth cubic of the bezout suite at q = 9, and over F_7 a sextic that
# is a conic times a quartic, whose conic a search over the polynomials of
# each class up to half the degree meets after about 7,600 of them
BEZOUT_CUBIC_F9 = "Y^2Z-X^3+XZ^2"
SEXTIC_F7 = ("X^6+X^4YZ+3X^4Z^2+X^3YZ^2+X^2Y^3Z+2X^2Z^4+XY^2Z^3+3XYZ^4"
             "+Y^4Z^2+3Y^3Z^3+2YZ^5+6Z^6")

# a case: (setup, timed call taking what setup returned, operations per call)
Case = Tuple[Callable[[], object], Callable[[object], object], int]


def load(src: Path, package: str) -> dict:
    """The modules of the package under src, imported as `package`, a name
    of their own: the modules import each other relatively, so any name
    will do, and every side of a run is loaded the same way."""
    copy = types.ModuleType(package)
    copy.__path__ = [str(src / "adeles2d")]
    sys.modules[package] = copy
    m = {name: importlib.import_module(f"{package}.{name}")
         for name in MODULES}
    for mod in m.values():
        if not Path(mod.__file__).resolve().is_relative_to(src.resolve()):
            raise RuntimeError(f"{mod.__name__} imported from {mod.__file__}")
    return m


def surface(m: dict, model: str, q: int):
    return m["surface"].surface_make(model, q)


def dense_sextic(m: dict, S, rng: random.Random):
    """All 28 monomials of degree 6 in X, Y, Z with nonzero coefficients."""
    p = S.base.p
    text = "+".join(f"{rng.randrange(1, p)}X^{i}Y^{j}Z^{6 - i - j}"
                    for i in range(7) for j in range(7 - i))
    return m["surface"].parse_poly(S, text)


def flag(m: dict, spec) -> tuple:
    """A fresh surface, flag and function from command-line texts."""
    curve, point, function, q, _prec = spec
    S = surface(m, "P2", q)
    cli = m["cli"]
    C, pt = cli._parse_curve(S, curve), cli._parse_point(S, point)
    return m["surface"].flag_make(pt, C), cli._parse_function(S, function)


def batch(op: Callable[[object, object], object], pairs) -> Callable:
    def run(_arg):
        for a, b in pairs:
            op(a, b)
    return run


def field_cases(m: dict) -> Dict[str, Case]:
    out: Dict[str, Case] = {}
    for name, (p, d) in FIELDS.items():
        F = m["fields"].field_make(p, d)
        rng = random.Random(p * 10 + d)
        elems = [F.from_coeffs([rng.randrange(p) for _ in range(d)])
                 for _ in range(BATCH)]
        elems = [a for a in elems if a] or [F.one()]
        pairs = list(zip(elems, elems[1:] + elems[:1]))
        out[f"fields.mul.{name}"] = (lambda: None, batch(
            lambda a, b: a * b, pairs), len(pairs))
        out[f"fields.add.{name}"] = (lambda: None, batch(
            lambda a, b: a + b, pairs), len(pairs))
        out[f"fields.inverse.{name}"] = (lambda: None, batch(
            lambda a, _b: a.inverse(), pairs), len(pairs))
    # traces down from an extension: coerce_down solves a dense system of
    # sup.d rows and sub.d + 1 columns over F_p for each, the densest
    # matrix the package ranks
    for name, (p, d, e) in TRACES.items():
        F, sub = (m["fields"].field_make(p, k) for k in (d, e))
        rng = random.Random(p * 10 + d)
        elems = [F.from_coeffs([rng.randrange(p) for _ in range(d)])
                 for _ in range(BATCH // 4)]
        out[f"fields.rel_trace.{name}"] = (lambda: None, batch(
            m["fields"].rel_trace, [(a, sub) for a in elems]), len(elems))
    return out


def product_cases(m: dict) -> Dict[str, Case]:
    """The products over code lists, on dense random codes: pmul of two
    lists of n codes, pdivmod of 2n codes by n (n + 1 quotient codes, one
    axpy of n codes each), and ps_mac of two lists of n codes truncated to
    n codes."""
    fl, ps_mac = m["fields"], m["series"].ps_mac
    out: Dict[str, Case] = {}
    for name, (p, d) in PRODUCT_FIELDS.items():
        F = fl.field_make(p, d)
        for n, count in PRODUCT_BATCH.items():
            rng = random.Random(n + p * 10 + d)
            f, g = ([rng.randrange(F.q) for _ in range(n - 1)]
                    + [rng.randrange(1, F.q)] for _ in range(2))
            h = [rng.randrange(F.q) for _ in range(2 * n)]
            for op, call, x in (
                    ("fields.pmul", lambda a, b, F=F: fl.pmul(a, b, F), f),
                    ("fields.pdivmod", lambda a, b, F=F: fl.pdivmod(a, b, F),
                     h),
                    ("series.ps_mac", lambda a, b, F=F, n=n: ps_mac(
                        [0] * n, 0, a, b, F), f)):
                out[f"{op}.n{n}.{name}"] = (
                    lambda: None, batch(call, [(x, g)] * count), count)
    return out


def series_cases(m: dict) -> Dict[str, Case]:
    LS2 = m["series"].LaurentSeries2
    out: Dict[str, Case] = {}
    F = m["fields"].field_make(5, 1)
    a = LS2.monomial(F, F.from_int(2), 1, 2)
    b = LS2.monomial(F, F.from_int(3), 0, 1, 8, 8)
    out["series.mul.1x1"] = (lambda: None, batch(
        lambda x, y: x * y, [(a, b)] * BATCH), BATCH)
    for name, (p, d) in (("F5", (5, 1)), ("F729", (3, 6))):
        F = m["fields"].field_make(p, d)
        rng = random.Random(12)

        def box(F=F, rng=rng):
            terms = {(t, u): F.from_coeffs([rng.randrange(p)
                                            for _ in range(d)])
                     for t in range(12) for u in range(12)}
            return LS2(F, terms, 12, 12)

        x, y = box(), box()
        out[f"series.mul.12x12.{name}"] = (lambda: None,
                                           lambda _a, x=x, y=y: x * y, 1)
    # two expansions at the conic's flag of CONIC8 on a box of the sizes a
    # sweep cell multiplies on, t < 4 and u < 14, four terms each
    fl, _f = flag(m, CONIC8)
    S, cli, sf = fl.curve.surface, m["cli"], m["surface"]
    x, y = (sf.expand_at_flag(cli._parse_function(S, text), fl, 4, 14)
            for text in ("X^2+Y^2/Z^2", "Y^2+XZ/XZ"))
    out["series.LaurentSeries2.mul.sweep.conic.F5"] = (lambda: None, batch(
        lambda a, b: a * b, [(x, y)] * BATCH), BATCH)
    # the solved coordinate B at FLEX20's flex squared on its box, t < 16
    # and u < 1036, as `expand --function X^20/Z^20 --precision 16` does
    fl, _f = flag(m, FLEX20)
    B = sf.flag_coordinate_series(fl, *FLEX20[4])
    out["series.LaurentSeries2.mul.flex20.BB"] = (lambda: None,
                                                  lambda _a: B * B, 1)
    return out


def poly_cases(m: dict) -> Dict[str, Case]:
    out: Dict[str, Case] = {}
    S = surface(m, "P2", 5)
    parse = m["surface"].parse_poly
    x, y = parse(S, "2X"), parse(S, "3Y")
    out["multipoly.mul.1x1"] = (lambda: None, batch(
        lambda f, g: f * g, [(x, y)] * BATCH), BATCH)
    for q in (5, 49):
        Sq = surface(m, "P2", q)
        rng = random.Random(q)
        f, g = dense_sextic(m, Sq, rng), dense_sextic(m, Sq, rng)
        out[f"multipoly.mul.sextics.F{q}"] = (lambda: None,
                                              lambda _a, f=f, g=g: f * g, 1)
    rng = random.Random(5)
    f, g = dense_sextic(m, S, rng), dense_sextic(m, S, rng)
    fg = f * g
    out["multipoly.exact_div.sextics.F5"] = (lambda: None,
                                             lambda _a: fg.exact_div(g), 1)
    chart = S.charts[0]
    cf = S.dehomogenize(parse(S, "X^4+2X^2YZ+Y^3Z+3Z^4+XY^3"), chart)
    cg = S.dehomogenize(parse(S, "Y^3+4X^2Z+XYZ+2Z^3+X^3"), chart)
    out["multipoly.resultant_elim.F5"] = (lambda: None, lambda _a: m[
        "multipoly"].resultant_elim(cf, cg, elim=1, keep=0), 1)
    # F_5's codes are the integers mod 5; a row maps each column to its
    # nonzero code
    rng = random.Random(1521)
    rows = [{j: c for j in range(21) if (c := rng.randrange(5))}
            for _ in range(15)]
    out["linalg.mat_rref.15x21.F5"] = (lambda: None, lambda _a: m[
        "linalg"].mat_rref(rows, S.base), 1)
    out["linalg.mat_rank.15x21.F5"] = (lambda: None, lambda _a: m[
        "linalg"].mat_rank(rows, S.base), 1)
    return out


def rank_cases(m: dict) -> Dict[str, Case]:
    """Ranks of the matrices `verify --suites windows` takes on P2 over
    F_13, each built by the checkout's own code, so in its own row form:
    the section rows of the 125 divisors of the -2..2 box on X, Y and Z
    (one figure per divisor), and the gram of the -L..L window."""
    sf = m["surface"]
    S = surface(m, "P2", 13)
    lines = [sf.curve_make(S, name) for name in ("X", "Y", "Z")]
    box = [m["cohomology"]._section_rows(
        sf.Divisor(S, dict(zip(lines, rep))))[0]
        for rep in itertools.product(range(-2, 3), repeat=3)]
    L = sf.Divisor(S, {C: 1 for C in lines})
    gram = m["measures"].window_build(-L, L, u_size=2).gram
    rank = m["linalg"].mat_rank

    def ranks(_arg):
        for rows in box:
            rank(rows, S.base)

    return {"linalg.mat_rank.section_rows.P2.q13": (lambda: None, ranks,
                                                    len(box)),
            "linalg.mat_rank.window_gram.P2.q13": (
                lambda: None, lambda _a: rank(gram, S.base), 1)}


def geometry_cases(m: dict) -> Dict[str, Case]:
    out: Dict[str, Case] = {}
    sf = m["surface"]
    for name, spec in (("flex4", FLEX4), ("conic8", CONIC8)):
        out[f"surface.expand_at_flag.{name}"] = (
            lambda spec=spec: flag(m, spec),
            lambda fl_f, prec=spec[4]: sf.expand_at_flag(fl_f[1], fl_f[0],
                                                         prec, prec), 1)
    out["surface.canonical_local_form.flex64"] = (
        lambda: flag(m, FLEX64),
        lambda fl_f: sf.expand_at_flag(fl_f[1], fl_f[0], *FLEX64[4]), 1)

    def off_lines(q):
        """X on a fresh P2 over F_q with Z and every line Y + aZ over F_p,
        which hold all its rational points: its flag is at degree 2."""
        S = surface(m, "P2", q)
        lines = ["Z"] + [f"Y+{a}Z" if a else "Y" for a in range(S.base.p)]
        return (sf.curve_make(S, "X"),
                [sf.curve_make(S, text) for text in lines])

    for q in (3, 13):
        out[f"surface.smooth_flag.deg2.P2.q{q}"] = (
            lambda q=q: off_lines(q),
            lambda xa: sf.smooth_flag(xa[0], 2, xa[1]), 1)

    def conic_cubic(q=5):
        """The pair on a fresh P2 over F_q, so no support is in its memo."""
        S = surface(m, "P2", q)
        return [sf.curve_make(S, text) for text in CONIC_CUBIC]

    def oracle_inputs(q=5):
        """The pair as divisors, with only their support in the memo."""
        C, H = conic_cubic(q)
        sf.intersection_support(C, H)
        return sf.Divisor(C.surface, {C: 1}), sf.Divisor(C.surface, {H: 1})

    out["surface.intersection_support.cubic.P2.F5"] = (
        conic_cubic, lambda ch: sf.intersection_support(*ch), 1)

    def made(q, text):
        """curve_make on a fresh P2 over F_q, rejections included."""
        def run(S):
            try:
                sf.curve_make(S, text)
            except ValueError:
                pass
        return lambda: surface(m, "P2", q), run, 1

    out["surface.curve_make.cubic.P2.F9"] = made(9, BEZOUT_CUBIC_F9)
    out["surface.curve_make.sextic.P2.F7"] = made(7, SEXTIC_F7)

    def cubic_over_f9():
        """The least monic irreducible cubic x^3 + a x + b over F_9."""
        F, fl = m["fields"].field_make(3, 2), m["fields"]
        return next(f for a in range(9) for b in range(1, 9)
                    if fl._is_irreducible(f := [b, a, 0, 1], F)), F

    out["surface.one_root.cubic.F9"] = (
        cubic_over_f9, lambda irr_k: sf._one_root(*irr_k), 1)

    def symbol_inputs():
        """X/Z and Y/Z as factors at the conic's flag."""
        fl, _f = flag(m, ("YZ-X^2", "0:0:1", "X/Z", 5, 8))
        X, Y, Z = (sf.parse_poly(fl.curve.surface, v) for v in "XYZ")
        return [(X, 1), (Z, -1)], [(Y, 1), (Z, -1)], fl

    out["symbols.symbol_at_flag.conic"] = (
        symbol_inputs, lambda fgl: m["symbols"].symbol_at_flag(*fgl), 1)
    for q in (5, 9):
        out[f"symbols.intersection_oracle.cubic.P2.F{q}"] = (
            lambda q=q: oracle_inputs(q),
            lambda ch: m["symbols"].intersection_oracle(*ch), 1)

    def residue_inputs():
        """X^2Y / cubic times the fixed form, and the cubic's flag at its
        rational crossing with Z, on a fresh P2 over F_5."""
        S = surface(m, "P2", 5)
        C, Z = (sf.curve_make(S, text) for text in CUBIC_ON_Z)
        w = m["residues"].form_make(S, "X^2Y", [(C, 1)])
        return w, sf.flag_make(sf.intersection_support(C, Z)[0], C)

    out["residues.local_residue.cubic_on_Z.P2.F5"] = (
        residue_inputs, lambda wf: m["residues"].local_residue(*wf), 1)

    def valuation_inputs():
        """The fixed form's polynomial at that flag, nothing cached on it."""
        fl = residue_inputs()[1]
        return sf.form_polynomial(fl), fl

    out["surface.poly_valuation_at_flag.cubic_on_Z.P2.F5"] = (
        valuation_inputs, lambda pf: sf.poly_valuation_at_flag(*pf), 1)

    def both_laws(wf):
        m["residues"].check_reciprocity_around_points(wf[0])
        m["residues"].check_reciprocity_along_curves(wf[0])

    out["residues.reciprocity_laws.P2.F5"] = (residue_inputs, both_laws, 1)
    out["cli.parser_build"] = (lambda: None,
                               lambda _a: m["cli"]._parser.__wrapped__(), 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        with contextlib.redirect_stdout(io.StringIO()):
            m["cli"].main(["verify", "--surface", "P1xP1", "--q", "9",
                           "--suites", "serre", "--json", path])
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    # the writer `_emit` uses
    write = m["cli"]._report_text
    out["cli.report_encoding.serre.P1xP1.q9"] = (
        lambda: None, lambda _a: write(doc), 1)
    return out


def record_cases(m: dict) -> Dict[str, Case]:
    """The check records of one verify cell written as report text: what
    `_emit` writes under "checks"."""
    cli = m["cli"]
    out: Dict[str, Case] = {}
    for suite, model, q in (("serre", "P1xP1", 9), ("windows", "P2", 13)):
        args = cli._parser().parse_args(
            ["verify", "--surface", model, "--q", str(q), "--allow-large-q",
             "--suites", suite])
        S = cli._make_surface(args)
        classes, _range = cli._parse_range(args.range, S)
        checks = list(cli._SUITE_FNS[suite](S, classes, args))
        out[f"cli.report_records.{suite}.{model}.q{q}"] = (
            lambda: None,
            lambda _a, checks=checks: cli._records_text(
                checks, [0] * len(checks)), 1)
    return out


def cohomology_cases(m: dict) -> Dict[str, Case]:
    # the 125 divisors of `verify --suites windows` on P2: multiplicities
    # -2..2 on X, Y and Z; one figure per divisor.  Each round starts on a
    # fresh surface, as each verify command does, so nothing the first
    # round leaves in S.memo is timed as free.
    sf, co = m["surface"], m["cohomology"]

    def box():
        S = surface(m, "P2", 9)
        lines = [sf.curve_make(S, name) for name in ("X", "Y", "Z")]
        return [sf.Divisor(S, dict(zip(lines, rep)))
                for rep in itertools.product(range(-2, 3), repeat=3)]

    def run(fn):
        def timed(divisors):
            for D in divisors:
                fn(D)
        return timed

    n = len(box())
    return {"cohomology.rr_space.windows.P2.q9": (box, run(co.rr_space), n),
            "cohomology.rr_dimension.windows.P2.q9": (
                box, run(co.rr_dimension), n)}


def measure_cases(m: dict) -> Dict[str, Case]:
    # the class pairs of `verify --suites serre --range -2:2` on P1xP1,
    # timed with whatever a first pass leaves in S.memo: the h-vectors and
    # the canonical divisor, and in a checkout that keeps them there, the
    # class representatives and their reflections
    derive = m["measures"].derive_eq1
    classes = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    pairs = [(C, H) for C in classes for H in classes]

    def run(S):
        for C, H in pairs:
            derive(S, C, H)

    def warmed():
        S = surface(m, "P1xP1", 3)
        run(S)
        return S

    # the commutator checks of `verify --suites commutator --range -2:2` on
    # P1xP1 over F_5, one figure for the 25, each round on a fresh surface
    # with the class representatives built, so that no support, germ or
    # flag is kept from an earlier round
    commutator = m["measures"].central_commutator

    def representatives():
        S = surface(m, "P1xP1", 5)
        wdiv = m["surface"].canonical_divisor(S)
        return wdiv, [m["measures"].class_representative(S, c)
                      for c in classes]

    def commutators(reps):
        wdiv, divisors = reps
        for C in divisors:
            commutator(C, wdiv)

    # the symbol route of the bezout checks of `verify --suites bezout` on
    # P1xP1 over F_5, one figure for the 10 fixture pairs, each round on a
    # fresh surface with only the curves made
    def fixture_pairs():
        S = surface(m, "P1xP1", 5)
        curves = [m["surface"].curve_make(S, text)
                  for text in m["cli"].FIXTURES["P1xP1"].bezout]
        return [(m["surface"].Divisor(S, {C: 1}),
                 m["surface"].Divisor(S, {H: 1}))
                for C, H in itertools.combinations(curves, 2)]

    def intersections(pairs):
        for C, H in pairs:
            m["symbols"].intersection_number(C, H)

    return {"measures.derive_eq1.P1xP1.q3": (warmed, run, len(pairs)),
            "symbols.central_commutator.P1xP1.q5": (representatives,
                                                    commutators, 1),
            "symbols.intersection_number.bezout.P1xP1.q5": (
                fixture_pairs, intersections, 1)}


def flag_cases(m: dict) -> Dict[str, Case]:
    """The flag work of `verify --suites windows` on P2 over F_13, each
    round on a fresh surface, so no flag or expansion is cached: both
    windows of the suite (0..X at u-size 1 and -L..L at 2, one figure for
    the two), and the flags of -L..L, one per line, each off the other
    lines (one figure per flag); the coordinate series of a flag on a
    cubic whose solved coordinate has degree 2, on the box (8, 8), and on
    the box (1, 48), which is its branch alone; and two polynomials
    expanded at a flag whose coordinate series is already lifted on the
    box: Z^20 at the flex of FLEX20, and a dense sextic at that cubic's
    flag on the box (8, 8)."""
    sf, ms = m["surface"], m["measures"]

    def lines():
        S = surface(m, "P2", 13)
        return [sf.curve_make(S, name) for name in ("X", "Y", "Z")]

    def windows(ls):
        S = ls[0].surface
        L = sf.Divisor(S, {C: 1 for C in ls})
        ms.window_build(sf.Divisor(S, {}), sf.Divisor(S, {ls[0]: 1}),
                        u_size=1)
        ms.window_build(-L, L, u_size=2)

    def flags(ls):
        for D in ls:
            sf.smooth_flag(D, 2, [E for E in ls if E != D])

    def cubic_flag():
        return flag(m, CUBIC_F9)[0]

    def lifted(spec, poly):
        """A fresh flag, its coordinate series lifted on the spec's box,
        and the polynomial poly(S) to expand there."""
        def setup():
            fl = flag(m, spec)[0]
            sf.flag_coordinate_series(fl, *spec[4])
            return poly(fl.curve.surface), fl
        return (setup, lambda pf: sf.expand_poly_at_flag(*pf, *spec[4]), 1)

    return {
        "measures.window_build.P2.q13": (lines, windows, 1),
        "surface.smooth_flag.lines.P2.q13": (lines, flags, 3),
        "surface.flag_coordinate_series.cubic.P2.F9": (
            cubic_flag, lambda fl: sf.flag_coordinate_series(fl, 8, 8), 1),
        "surface.branch.cubic.P2.F9": (
            cubic_flag, lambda fl: sf.flag_coordinate_series(fl, 1, 48), 1),
        "surface.expand_poly_at_flag.flex20": lifted(
            FLEX20, lambda S: sf.parse_poly(S, "Z^20")),
        "surface.expand_poly_at_flag.sextic.cubic.P2.F9": lifted(
            CUBIC_F9, lambda S: dense_sextic(m, S, random.Random(9)))}


CASES = (field_cases, series_cases, poly_cases, rank_cases, geometry_cases,
         record_cases, cohomology_cases, measure_cases, flag_cases,
         product_cases)
# every timing a run writes, one or more per layer
KEYS = tuple(f"fields.{op}.{name}" for name in FIELDS
             for op in ("mul", "add", "inverse")) + tuple(
    f"fields.rel_trace.{name}" for name in TRACES) + (
    "series.mul.1x1", "series.mul.12x12.F5", "series.mul.12x12.F729",
    "series.LaurentSeries2.mul.sweep.conic.F5",
    "series.LaurentSeries2.mul.flex20.BB",
    "multipoly.mul.1x1", "multipoly.mul.sextics.F5",
    "multipoly.mul.sextics.F49", "multipoly.exact_div.sextics.F5",
    "multipoly.resultant_elim.F5", "linalg.mat_rref.15x21.F5",
    "linalg.mat_rank.15x21.F5", "linalg.mat_rank.section_rows.P2.q13",
    "linalg.mat_rank.window_gram.P2.q13",
    "surface.expand_at_flag.flex4", "surface.expand_at_flag.conic8",
    "surface.canonical_local_form.flex64",
    "surface.smooth_flag.deg2.P2.q3", "surface.smooth_flag.deg2.P2.q13",
    "surface.intersection_support.cubic.P2.F5",
    "surface.curve_make.cubic.P2.F9", "surface.curve_make.sextic.P2.F7",
    "surface.one_root.cubic.F9", "symbols.symbol_at_flag.conic", "symbols.intersection_oracle.cubic.P2.F5",
    "symbols.intersection_oracle.cubic.P2.F9",
    "residues.local_residue.cubic_on_Z.P2.F5",
    "surface.poly_valuation_at_flag.cubic_on_Z.P2.F5",
    "residues.reciprocity_laws.P2.F5", "cli.parser_build",
    "cli.report_encoding.serre.P1xP1.q9",
    "cli.report_records.serre.P1xP1.q9", "cli.report_records.windows.P2.q13",
    "cohomology.rr_space.windows.P2.q9",
    "cohomology.rr_dimension.windows.P2.q9", "measures.derive_eq1.P1xP1.q3",
    "symbols.central_commutator.P1xP1.q5",
    "symbols.intersection_number.bezout.P1xP1.q5",
    "measures.window_build.P2.q13", "surface.smooth_flag.lines.P2.q13",
    "surface.flag_coordinate_series.cubic.P2.F9",
    "surface.branch.cubic.P2.F9", "surface.expand_poly_at_flag.flex20",
    "surface.expand_poly_at_flag.sextic.cubic.P2.F9") + tuple(
    f"{op}.n{n}.{name}" for name in PRODUCT_FIELDS for n in PRODUCT_BATCH
    for op in ("fields.pmul", "fields.pdivmod", "series.ps_mac"))


def time_once(case) -> float:
    setup, fn, per = case
    arg = setup()
    t0 = time.perf_counter()
    fn(arg)
    return (time.perf_counter() - t0) / per


def median_interval(xs) -> list:
    """[lo, hi], the j-th least and j-th greatest of xs, for the largest j
    whose interval holds the median with chance 1 - 2 P(B < j) >= 0.95, B
    binomial (len(xs), 1/2); [min, max] when not even j = 1 reaches it."""
    xs, n, j = sorted(xs), len(xs), 1
    while 2 * j < n and 1 - 2 * sum(
            math.comb(n, i) for i in range(j + 1)) / 2 ** n >= 0.95:
        j += 1
    return [xs[j - 1], xs[n - j]]


def line_counts(src: Path) -> Dict[str, int]:
    counts = {}
    for path in sorted((src / "adeles2d").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            counts[path.name] = sum(1 for _ in fh)
    counts["total"] = sum(counts.values())
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src directory of the checkout to time")
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--out", type=Path, default=None,
                        help="default: BENCH_<label>.json in the repo root")
    parser.add_argument("--against", type=Path, default=None, metavar="SRC",
                        help="the src directory of a second checkout, timed "
                             "case by case in this process")
    args = parser.parse_args(argv)
    sides = [load(args.src, "adeles2d_src")]
    if args.against:
        sides.append(load(args.against, "adeles2d_against"))
    cases = [{key: case for make in CASES for key, case in make(m).items()}
             for m in sides]
    for side in cases:
        if tuple(side) != KEYS:
            raise RuntimeError(
                f"cases and KEYS differ: {sorted(set(side) ^ set(KEYS))}")
    # one round times every case once, so that a slow spell of a shared
    # host spoils one sample of each case, not every sample of a few; the
    # two sides of a case run back to back, the first side alternating
    timings = [{key: float("inf") for key in KEYS} for _ in sides]
    paired: Dict[str, list] = {key: [] for key in KEYS}
    for r in range(args.repeat):
        order = range(len(sides)) if r % 2 == 0 else range(len(sides))[::-1]
        for key in KEYS:
            once = [0.0] * len(sides)
            for i in order:
                once[i] = time_once(cases[i][key])
                timings[i][key] = min(timings[i][key], once[i])
            if args.against:
                paired[key].append(once[0] / once[1])
    interval = ({key: median_interval(paired[key]) for key in KEYS}
                if args.against else {})
    for key in KEYS:
        best = "".join(f" {t[key] * 1e6:12.2f} us" for t in timings)
        ratio = (f" {timings[0][key] / timings[1][key]:7.3f}x"
                 f" [{interval[key][0]:.3f}, {interval[key][1]:.3f}]"
                 if args.against else "")
        print(f"{key:50s}{best}{ratio}")
    doc = {"label": args.label, "unit": "s", "best_of": args.repeat,
           "python": platform.python_version(), "machine": platform.machine(),
           "cpus": os.cpu_count(), "timings": timings[0],
           "lines": line_counts(args.src)}
    if args.against:
        doc["against"] = {"timings": timings[1],
                          "lines": line_counts(args.against)}
        doc["ratio"] = {key: timings[0][key] / timings[1][key]
                        for key in KEYS}
        doc["interval"] = interval
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
