"""Batch command line: single local computations and verification suites.

Subcommands expand, residue, symbol and intersect run one computation at a
flag or a curve pair; cohomology tabulates h-vectors over a class range;
verify runs the named check suites and reports every comparison.  All
commands accept --json to write a machine-readable report with stable key
order; runs are deterministic for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
import time
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from .cohomology import cech_h_vector, class_range, h_vector, rr_dimension
from .fields import BudgetExceeded
from .measures import (
    Check,
    _cls_json,
    canonical_divisor,
    central_commutator,
    class_representative,
    derive_eq1,
    derive_eq2,
    rr_assemble,
    window_annihilator_check,
    window_build,
)
from .residues import (
    check_reciprocity_along_curves,
    check_reciprocity_around_points,
    form_make,
    local_residue,
    reciprocity_corpus,
)
from .series import PrecisionError
from .surface import (
    SURFACES,
    Divisor,
    RationalFunction,
    class_intersection,
    curve_make,
    divisor_class,
    expand_at_flag,
    expand_poly_at_flag,
    flag_make,
    ord_on_curve,
    parse_poly,
    point_from_coords,
    ratio_at_flag,
    surface_make,
)
from .symbols import intersection_number, intersection_oracle, symbol_at_flag

SUITES = ("reciprocity", "bezout", "serre", "chi", "commutator", "rr",
          "windows")
SOFT_Q_LIMIT = 9
# the default --precision: the box t < 8, u < 8 that `expand` prints
START_PREC = 8

# smooth plane cubic fixtures per characteristic
CUBIC_BY_P = {2: "X^3+Y^2Z+YZ^2", 3: "Y^2Z-X^3+XZ^2"}
CUBIC_DEFAULT = "Y^2Z-X^3-XZ^2"


class Fixtures(NamedTuple):
    """The curves the verify suites use on one surface: the bezout suite's
    ("cubic" is the smooth cubic of the characteristic), the lines of the
    windows suite's sections checks, its rank checks' windows ("LOW..HIGH",
    u-size), each end 0, omega, L (the lines' sum), a line or minus one of
    these, and its window annihilator checks' multiplicities on the last."""

    bezout: Tuple[str, ...]
    lines: Tuple[str, ...]
    windows: Tuple[Tuple[str, int], ...]
    reps: Tuple[Tuple[int, ...], ...]


FIXTURES = {
    "P2": Fixtures(("X", "Y", "X+Y+Z", "YZ-X^2", "XY-Z^2", "cubic"),
                   ("X", "Y", "Z"), (("0..X", 1), ("-L..L", 2)),
                   tuple(itertools.product((-1, 0, 1), repeat=3))),
    "P1xP1": Fixtures(("X1", "X0", "Y1", "X0Y1-X1Y0", "X0Y0-X1Y1"),
                      ("X1", "Y1"), (("omega..0", 1),),
                      tuple(itertools.product((-2, -1, 0), repeat=2))),
}


class ConfigError(ValueError):
    """Invalid run configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# argument plumbing


# flags whose values may start with "-" (ranges, polynomials); they are
# rewritten to --flag=value so the parser does not read them as options
_VALUE_FLAGS = {"--range", "--curves", "--curve", "--den", "--num",
                "--function", "--f", "--g", "--point", "--suites"}


def _join_values(argv: Sequence[str]) -> List[str]:
    out: List[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    top = argparse.ArgumentParser(
        prog="adeles2d",
        description="Exact verification of residue reciprocity, symbol "
                    "intersection theory, and Riemann-Roch on P2 and P1xP1 "
                    "over small finite fields.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, with_seed=False):
        p.add_argument("--surface", choices=tuple(SURFACES), default="P2")
        p.add_argument("--q", type=int, default=3,
                       help="base field size (prime power, soft limit "
                            f"{SOFT_Q_LIMIT})")
        p.add_argument("--precision", type=int, default=START_PREC,
                       help="the series window of expand; recorded in "
                            "every report")
        p.add_argument("--json", metavar="PATH", default=None,
                       help="write the JSON report here")
        p.add_argument("--allow-large-q", action="store_true",
                       help="lift the soft limit on q")
        p.add_argument("--timings", action="store_true",
                       help="record in each check's micros the time since "
                            "the previous check or the command start "
                            "(breaks byte-identical reports)")
        if with_seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("expand", help="expand a rational function at a flag")
    common(p)
    p.add_argument("--curve", required=True, metavar="[NAME:]POLY")
    p.add_argument("--point", required=True, metavar="A:B:C",
                   help="projective coordinates over the base field")
    p.add_argument("--function", required=True, metavar="NUM[/DEN]")

    p = sub.add_parser("residue",
                       help="residue of (f * omega) at a flag")
    common(p)
    p.add_argument("--curve", required=True, metavar="[NAME:]POLY")
    p.add_argument("--point", required=True, metavar="A:B:C")
    p.add_argument("--num", required=True, metavar="POLY",
                   help="numerator of the form's coefficient")
    p.add_argument("--den", default="", metavar="POLY[:MULT],...",
                   help="denominator curves with multiplicities")

    p = sub.add_parser("symbol",
                       help="integer tame symbol of two functions at a flag")
    common(p)
    p.add_argument("--curve", required=True, metavar="[NAME:]POLY")
    p.add_argument("--point", required=True, metavar="A:B:C")
    p.add_argument("--f", required=True, metavar="NUM[/DEN]")
    p.add_argument("--g", required=True, metavar="NUM[/DEN]")

    p = sub.add_parser("intersect",
                       help="intersection number of two curves, both routes")
    common(p)
    p.add_argument("--curves", required=True,
                   metavar="[NAME:]POLY,[NAME:]POLY")

    p = sub.add_parser("cohomology",
                       help="h-vectors over a class range, two routes")
    common(p)
    p.add_argument("--range", default="-2:2", metavar="LO:HI")

    p = sub.add_parser("verify", help="run verification suites")
    common(p, with_seed=True)
    p.add_argument("--range", default="-2:2", metavar="LO:HI",
                   help="class range; LO:HI or LO:HI,LO:HI on P1xP1")
    p.add_argument("--suites", default=",".join(SUITES),
                   help=f"comma list from {{{','.join(SUITES)}}}; empty "
                        "string runs nothing")
    p.add_argument("--inject-failure", action="store_true",
                   help="mutate the first check's oracle value (negative "
                        "path for the report pipeline)")
    return top


def _make_surface(args):
    if args.q > SOFT_Q_LIMIT and not args.allow_large_q:
        raise ConfigError(
            f"q={args.q} exceeds the soft limit {SOFT_Q_LIMIT}; pass "
            "--allow-large-q to override")
    try:
        return surface_make(args.surface, args.q)
    except (ValueError, ArithmeticError) as err:
        raise ConfigError(f"bad surface/q: {err}") from err


def _parse_range(text: str, S) -> Tuple[list, object]:
    """Class list plus the JSON form of the range."""
    def interval(part: str) -> Tuple[int, int]:
        try:
            lo_s, hi_s = part.split(":")
            lo, hi = int(lo_s), int(hi_s)
        except ValueError as err:
            raise ConfigError(f"bad range {part!r}: want LO:HI") from err
        if lo > hi:
            raise ConfigError(f"empty range {part!r}")
        return lo, hi

    parts = text.split(",")
    if len(parts) == 1:
        lo, hi = interval(parts[0])
        return class_range(S, lo, hi), [lo, hi]
    if len(parts) == len(S.groups):
        bounds = [interval(part) for part in parts]
        classes = list(itertools.product(
            *(range(lo, hi + 1) for lo, hi in bounds)))
        return classes, [list(b) for b in bounds]
    raise ConfigError(f"bad range {text!r} for surface {S.model}")


def _parse_curve(S, text: str):
    name, sep, poly = text.partition(":")
    if not sep:
        name, poly = None, text
    try:
        return curve_make(S, poly.strip(), name=name)
    except (ValueError, KeyError) as err:
        raise ConfigError(f"bad curve {text!r}: {err}") from err


def _parse_function(S, text: str) -> RationalFunction:
    num_s, _sep, den_s = text.partition("/")
    try:
        num = parse_poly(S, num_s.strip())
        den = parse_poly(S, den_s.strip()) if den_s else parse_poly(S, "1")
        return RationalFunction(S, [(num, 1), (den, -1)])
    except (ValueError, KeyError) as err:
        raise ConfigError(f"bad function {text!r}: {err}") from err


def _parse_point(S, text: str):
    words = text.replace(",", ":").split(":")
    try:
        coords = [S.base.from_int(int(w)) for w in words]
        return point_from_coords(S, coords)
    except ValueError as err:
        raise ConfigError(f"bad point {text!r}: {err}") from err


def _parse_flag(S, args):
    curve = _parse_curve(S, args.curve)
    pt = _parse_point(S, args.point)
    if not curve.poly.evaluate(list(pt.coords)).is_zero():
        raise ConfigError(f"point {args.point} does not lie on the curve")
    try:
        return flag_make(pt, curve)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _parse_den(S, text: str) -> List[Tuple[object, int]]:
    out = []
    for item in filter(None, (w.strip() for w in text.split(","))):
        head, sep, tail = item.rpartition(":")
        if sep and tail.lstrip("-").isdigit():
            poly, mult = head, int(tail)
        else:
            poly, mult = item, 1
        out.append((_parse_curve(S, poly), mult))
    return out


# ---------------------------------------------------------------------------
# report assembly


def _config(args, **more) -> Dict:
    """A report's config: the command, surface and q, then `more`, then the
    precision."""
    return {"command": args.command, "surface": args.surface, "q": args.q,
            **more, "precision": args.precision}


_escape = json.encoder.encode_basestring_ascii


def _report_text(obj, newline: str = "\n") -> str:
    """The text the stdlib json encoder writes for obj at an indent of two
    spaces, written in one pass: each container is joined once, strings go
    through json's own escaper and tuples are lists.  Anything but str
    keys, str, int, bool, None, lists, tuples and dicts raises TypeError;
    reports hold no floats.  `newline` is a newline followed by the
    current indentation; only the recursion passes it."""
    kind = type(obj)
    if kind is str:
        return _escape(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is bool or obj is None:
        return "null" if obj is None else "true" if obj else "false"
    inner = newline + "  "
    if kind is dict:
        # the escaper raises TypeError on a key that is not a str
        items = [f"{_escape(k)}: {_report_text(v, inner)}"
                 for k, v in obj.items()]
        opening, closing = "{", "}"
    elif kind is list or kind is tuple:
        items = [_report_text(v, inner) for v in obj]
        opening, closing = "[", "]"
    else:
        raise TypeError(f"a report cannot hold {kind.__name__}")
    if not items:
        return opening + closing
    return f"{opening}{inner}{(',' + inner).join(items)}{newline}{closing}"


# the depths in a report: its top keys sit at an indent of two spaces, a
# check record's keys at six and the keys of its inputs at eight
_TOP_DEPTH = "\n  "
_KEY_DEPTH = "\n      "
_INPUT_DEPTH = "\n        "
_INT_ONLY = frozenset((int,))
_INT = -1  # the kind of an int leaf; n >= 0 is a tuple of n ints


def _fill(v, newline: str, args: list) -> Optional[int]:
    """Append what fills v's slot in a record template to args, and return
    v's kind: _INT for an int, n for a tuple of n ints (each filled
    alone), None for anything else (filled with its report text at the
    indentation of newline).  The type test comes first: (True, False) and
    (1.0, 0) equal (1, 0), yet write otherwise or raise."""
    kind = type(v)
    if kind is int:
        args.append(v)
        return _INT
    if kind is tuple and _INT_ONLY.issuperset(map(type, v)):
        args.extend(v)
        return len(v)
    args.append(_report_text(v, newline))
    return None


def _slot(kind: Optional[int], newline: str) -> str:
    """The template text of a slot of that kind at the indentation of
    newline."""
    if kind is None:
        return "%s"
    if kind == _INT:
        return "%d"
    if not kind:
        return "[]"
    inner = newline + "  "
    return f"[{inner}{(',' + inner).join(['%d'] * kind)}{newline}]"


def _template(name: str, passed, inputs: Optional[tuple],
              lhs: Optional[int], rhs: Optional[int]) -> str:
    """The %-template of one record shape: the escaped name, input keys and
    verdict are written in, with each % doubled, and every leaf is a slot.
    inputs is None when they are not a dict, and else their (key, kind)
    pairs.  The escaper raises TypeError on a name or key that is not a
    str."""
    def text(s: str) -> str:
        return _escape(s).replace("%", "%%")

    if inputs is None:
        body = "%s"
    elif not inputs:
        body = "{}"
    else:
        items = [f"{text(k)}: {_slot(kind, _INPUT_DEPTH)}"
                 for k, kind in inputs]
        body = f"{{{_INPUT_DEPTH}{(',' + _INPUT_DEPTH).join(items)}" \
               f"{_KEY_DEPTH}}}"
    return (f'{{{_KEY_DEPTH}"name": {text(name)},{_KEY_DEPTH}"inputs": '
            f'{body},{_KEY_DEPTH}"lhs": {_slot(lhs, _KEY_DEPTH)},'
            f'{_KEY_DEPTH}"rhs": {_slot(rhs, _KEY_DEPTH)},{_KEY_DEPTH}'
            f'"pass": {"true" if passed else "false"},{_KEY_DEPTH}'
            '"micros": %d\n    }')


def _records_text(checks: Sequence[Check], micros: Sequence[int]) -> str:
    """The text `_report_text` writes for a report's list of check records,
    at its depth under the "checks" key: each record holds its check's
    name, inputs, lhs, rhs and verdict, and the matching entry of micros.
    A record's shape is its name, verdict, input keys and the kinds of its
    input values, lhs and rhs (see `_fill`).  Each shape's template is
    built once per call, and the records' templates, joined, are filled in
    one % operation."""
    templates: Dict[tuple, str] = {}
    parts = []
    args: list = []
    for c, us in zip(checks, micros):
        inputs = c.inputs
        if type(inputs) is dict:
            shape = []
            for k, v in inputs.items():
                shape.append((k, _fill(v, _INPUT_DEPTH, args)))
            shape = tuple(shape)
        else:
            shape = None
            args.append(_report_text(inputs, _KEY_DEPTH))
        key = (c.name, c.passed, shape, _fill(c.lhs, _KEY_DEPTH, args),
               _fill(c.rhs, _KEY_DEPTH, args))
        args.append(us)
        template = templates.get(key)
        if template is None:
            template = templates[key] = _template(*key)
        parts.append(template)
    if not parts:
        return "[]"
    return ("[\n    " + ",\n    ".join(parts) + "\n  ]") % tuple(args)


def _document_text(config: Dict, checks: Sequence[Check],
                   micros: Sequence[int], summary: Dict) -> str:
    """The text `_report_text` writes for a report: config, the records of
    checks with their micros, and summary."""
    return (f'{{{_TOP_DEPTH}"config": {_report_text(config, _TOP_DEPTH)},'
            f'{_TOP_DEPTH}"checks": {_records_text(checks, micros)},'
            f'{_TOP_DEPTH}"summary": {_report_text(summary, _TOP_DEPTH)}'
            '\n}')


def _collect(checks: Iterable[Check], args) -> List[Check]:
    """The checks as a list; under --timings the clock is read as each one
    arrives."""
    if not args.timings:
        return list(checks)
    out = []
    for check in checks:
        out.append(check)
        args.stamps.append(time.perf_counter())
    return out


def _emit(config: Dict, checks: List[Check], args) -> int:
    """Print the summary and write the report; with --timings each check's
    micros is the time since the previous check or the command start."""
    passed = sum(1 for c in checks if c.passed)
    failed = len(checks) - passed
    if args.json:
        micros = [0] * len(checks)
        if args.timings:
            micros = [int((b - a) * 1_000_000)
                      for a, b in zip(args.stamps, args.stamps[1:])]
        text = _document_text(config, checks, micros,
                              {"passed": passed, "failed": failed})
        try:
            # truncating a file in place makes the file system flush it
            # first, which a new file at the same path does not; a
            # symlink is written through
            if os.path.isfile(args.json) and not os.path.islink(args.json):
                os.remove(args.json)
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as err:
            raise ConfigError(f"cannot write report: {err}") from err
    if failed:
        first = next(c for c in checks if not c.passed)
        sign = "!=" if first.lhs != first.rhs else "=="
        why = f"; {first.witness}" if first.witness else ""
        print(f"FAIL {first.name} {json.dumps(first.inputs)}: "
              f"{first.lhs!r} {sign} {first.rhs!r}{why}")
    print(f"summary: {passed} passed, {failed} failed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# single computations


def _cmd_expand(args) -> int:
    """Print num/den on the box t < P, u < P (P = --precision) and check
    it by multiplying back: the series times den's expansion, taken far
    enough past the series' least exponents to hold that box, must be
    num's expansion on it."""
    S = _make_surface(args)
    fl = _parse_flag(S, args)
    f = _parse_function(S, args.function)
    P = args.precision
    series = expand_at_flag(f, fl, P, P)
    print(repr(series))
    inputs = {"curve": args.curve, "point": args.point,
              "function": args.function}
    t_low = min(series.cols, default=0)
    u_low = min((v for v, _codes in series.cols.values()), default=0)
    back = series.mul(expand_poly_at_flag(f.den, fl, P - t_low, P - u_low),
                      P, P)
    num = expand_poly_at_flag(f.num, fl, P, P)
    return _emit(_config(args), _collect([Check(
        "expand", inputs, repr(num), repr(back))], args), args)


def _cmd_residue(args) -> int:
    S = _make_surface(args)
    fl = _parse_flag(S, args)
    try:
        num = parse_poly(S, args.num)
        w = form_make(S, num, _parse_den(S, args.den))
    except (ValueError, KeyError) as err:
        raise ConfigError(f"bad form: {err}") from err
    res = local_residue(w, fl)
    print(repr(res))
    inputs = {"curve": args.curve, "point": args.point, "num": args.num,
              "den": args.den}
    out = repr(res)
    return _emit(_config(args), _collect(
        [Check("residue", inputs, out, out)], args), args)


def _cmd_symbol(args) -> int:
    """Print the symbol of f and g at the flag and check it by the power
    product: with a and b the orders of f and g along the flag's curve,
    h = f^b g^-a has t-order 0, and the u-order of its t^0 column, read
    on the box t < 1, u < symbol + 1, is the symbol (None if the column
    is empty there)."""
    S = _make_surface(args)
    fl = _parse_flag(S, args)
    f = _parse_function(S, args.f)
    g = _parse_function(S, args.g)
    value = symbol_at_flag(f.factors, g.factors, fl)
    print(value)
    a, b = ord_on_curve(f, fl.curve), ord_on_curve(g, fl.curve)
    h = ratio_at_flag([(P, b * e) for P, e in f.factors]
                      + [(P, -a * e) for P, e in g.factors], fl, 1,
                      max(1, value + 1))
    rhs = h.cols[0][0] if 0 in h.cols else None
    inputs = {"curve": args.curve, "point": args.point, "f": args.f,
              "g": args.g}
    return _emit(_config(args), _collect(
        [Check("symbol", inputs, value, rhs)], args), args)


def _cmd_intersect(args) -> int:
    S = _make_surface(args)
    texts = args.curves.split(",")
    if len(texts) != 2:
        raise ConfigError("--curves wants exactly two comma-separated curves")
    A, B = (_parse_curve(S, t) for t in texts)
    C = Divisor(S, {A: 1})
    H = Divisor(S, {B: 1})
    try:
        got = intersection_number(C, H)
        want = intersection_oracle(C, H)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    print(got)
    checks = _collect([Check("intersect", {"curves": args.curves}, got,
                             want)], args)
    return _emit(_config(args), checks, args)


def _cmd_cohomology(args) -> int:
    S = _make_surface(args)
    classes, range_json = _parse_range(args.range, S)
    checks = []
    for c in classes:
        closed = h_vector(S, c)
        indep = cech_h_vector(S, c)
        print(f"class {_cls_json(c)}: h0={closed.h0} h1={closed.h1} "
              f"h2={closed.h2} chi={closed.chi}")
        checks += _collect([Check(
            "h-vector", {"class": _cls_json(c)},
            [closed.h0, closed.h1, closed.h2],
            [indep.h0, indep.h1, indep.h2])], args)
    return _emit(_config(args, range=range_json), checks, args)


# ---------------------------------------------------------------------------
# verification suites: each yields its checks as it builds them, so that
# under --timings the run reads the clock as each one arrives (_collect)


def _suite_reciprocity(S, classes, args) -> Iterator[Check]:
    for idx, w in enumerate(reciprocity_corpus(S, 9, args.seed)):
        around = check_reciprocity_around_points(w)
        yield Check("reciprocity-around-points", {"form": idx},
                    sum(1 for _x, s in around if s.is_zero()), len(around))
        along = check_reciprocity_along_curves(w)
        yield Check("reciprocity-along-curves", {"form": idx},
                    sum(1 for _d, s in along if s.is_zero()), len(along))


def _suite_bezout(S, classes, args) -> Iterator[Check]:
    cubic = CUBIC_BY_P.get(S.base.p, CUBIC_DEFAULT)
    names = [cubic if n == "cubic" else n for n in FIXTURES[S.model].bezout]
    divisors = [Divisor(S, {curve_make(S, t): 1}) for t in names]
    for (a, C), (b, H) in itertools.combinations(zip(names, divisors), 2):
        got = intersection_number(C, H)
        want = intersection_oracle(C, H)
        # the class form is a third witness: the two routes share the
        # support, so a support that loses points fools both alike
        third = class_intersection(S, divisor_class(C), divisor_class(H))
        yield Check("bezout", {"C": a, "H": b}, got, want,
                    got == want == third, witness=f"class form {third}")


def _suite_serre(S, classes, args) -> Iterator[Check]:
    for cC in classes:
        for cH in classes:
            yield derive_eq1(S, cC, cH)
    for c in classes:
        if min(c) < 0:
            continue
        dim = rr_dimension(class_representative(S, c))
        yield Check("sections-dimension", {"C": _cls_json(c)}, dim,
                    h_vector(S, c).h0)


def _suite_chi(S, classes, args) -> Iterator[Check]:
    return (derive_eq2(S, c) for c in classes)


def _suite_commutator(S, classes, args) -> Iterator[Check]:
    wdiv = canonical_divisor(S)
    return (central_commutator(class_representative(S, c), wdiv)
            for c in classes)


def _suite_rr(S, classes, args) -> Iterator[Check]:
    wdiv = canonical_divisor(S)
    return (rr_assemble(class_representative(S, c), wdiv) for c in classes)


def _window_end(S, text: str, lines) -> Divisor:
    """The divisor that a window end of Fixtures names."""
    if text.startswith("-"):
        return -_window_end(S, text[1:], lines)
    if text == "omega":
        return canonical_divisor(S)
    ends = {"0": {}, "L": dict.fromkeys(lines, 1)}
    return Divisor(S, ends[text] if text in ends else {S.lines[text]: 1})


def _suite_windows(S, classes, args) -> Iterator[Check]:
    fix = FIXTURES[S.model]
    lines = [S.lines[n] for n in fix.lines]
    for name, u in fix.windows:
        w = window_build(*(_window_end(S, end, lines)
                           for end in name.split("..")), u_size=u)
        yield Check("window-rank", {"window": name, "u": u}, w.rank,
                    w.dimension)
    wcurves = [fl.curve for fl in w.flags]
    for rep in fix.reps:
        C = Divisor(S, dict(zip(wcurves, rep)))
        ok = window_annihilator_check(w, C)
        yield Check("window-annihilator", {"C": rep}, ok, True)

    dims: Dict[Tuple[int, ...], int] = {}
    h0s: Dict[Tuple[int, ...], int] = {}
    for rep in itertools.product(range(-2, 3), repeat=len(lines)):
        D = Divisor(S, dict(zip(lines, rep)))
        dims[rep] = rr_dimension(D)
        h0s[rep] = h_vector(S, divisor_class(D)).h0
        yield Check("sections-dimension", {"D": rep}, dims[rep], h0s[rep])
    for rep in dims:
        for k in range(len(lines)):
            low = list(rep)
            low[k] -= 1
            key = tuple(low)
            if key not in dims:
                continue
            yield Check("sections-quotient", {"C": rep, "H": key},
                        dims[rep] - dims[key], h0s[rep] - h0s[key])


_SUITE_FNS = {
    "reciprocity": _suite_reciprocity,
    "bezout": _suite_bezout,
    "serre": _suite_serre,
    "chi": _suite_chi,
    "commutator": _suite_commutator,
    "rr": _suite_rr,
    "windows": _suite_windows,
}


def _cmd_verify(args) -> int:
    S = _make_surface(args)
    classes, range_json = _parse_range(args.range, S)
    wanted = [w.strip() for w in args.suites.split(",") if w.strip()]
    bad = [w for w in wanted if w not in SUITES]
    if bad:
        raise ConfigError(f"unknown suites {bad}; choose from {SUITES}")
    suites = [s for s in SUITES if s in wanted]
    checks: List[Check] = []
    for name in suites:
        got = _collect(_SUITE_FNS[name](S, classes, args), args)
        ok = sum(1 for c in got if c.passed)
        print(f"suite {name}: {ok}/{len(got)} checks passed")
        checks.extend(got)
    # the surface and its curves reference each other, so the flags, their
    # expansion caches and the memo would otherwise wait for a full
    # collection; no cache outlives the run
    S.flags.clear()
    S.memo.clear()
    if args.inject_failure and checks:
        first = checks[0]
        first.inputs = dict(first.inputs, injected=True)
        first.rhs = (first.rhs + 1 if isinstance(first.rhs, int)
                     else f"mutated({first.rhs})")
        first.passed = first.lhs == first.rhs
    config = dict(_config(args, range=range_json, seed=args.seed),
                  suites=suites, timings=bool(args.timings),
                  inject_failure=bool(args.inject_failure))
    return _emit(config, checks, args)


# ---------------------------------------------------------------------------


_COMMANDS = {
    "expand": _cmd_expand,
    "residue": _cmd_residue,
    "symbol": _cmd_symbol,
    "intersect": _cmd_intersect,
    "cohomology": _cmd_cohomology,
    "verify": _cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(_join_values(list(argv)))
    # the clock is read only under --timings: here, and as each check
    # arrives (_collect)
    args.stamps = [time.perf_counter()] if args.timings else None
    try:
        if args.precision < 1:
            raise ConfigError(f"--precision must be at least 1, got "
                              f"{args.precision}")
        return _COMMANDS[args.command](args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except PrecisionError as err:
        print(f"precision failure: {err}", file=sys.stderr)
        return 1
    except BudgetExceeded as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
