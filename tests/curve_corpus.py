"""A seeded corpus of curves with the outcome of the reference search.

    PYTHONPATH=src python tests/curve_corpus.py   # rebuild the table

The corpus covers P2 of degree 2 to 6 and P1xP1 of classes up to (3, 3), at
q in {2, 3, 4, 5, 7, 8, 9}: random polynomials of a class, and products of
random factors, some repeated.  A draw is kept only when the reference
search (tests/reference_curves.py) decides it within BUDGET exact
divisions, about a second.  The table (curve_corpus.txt) holds one curve a
line: the surface, q, the terms as exponent digits and coefficient code,
and the outcome, `-` for an irreducible curve or the search's message;
tests/test_curve_corpus.py compares `curve_make` with it.
"""

import random
from pathlib import Path

from adeles2d.multipoly import MPoly
from adeles2d.surface import class_monomials, curve_make, surface_make
from reference_curves import OverBudget, search_outcome

TABLE = Path(__file__).with_name("curve_corpus.txt")
SEED = 37
QS = (2, 3, 4, 5, 7, 8, 9)
PER_CELL = 160  # draws per (surface, q); the budget filter keeps most
BUDGET = 20000
CLASSES = {
    "P2": [(d,) for d in range(2, 7)],
    "P1xP1": [(a, b) for a in range(4) for b in range(4) if a + b >= 2],
}


def _random_poly(S, cls, rng):
    """A nonzero polynomial of class cls, each monomial present with
    probability one half."""
    while True:
        terms = {e: rng.randrange(1, S.base.q)
                 for e in class_monomials(S, cls) if rng.random() < 0.5}
        if terms:
            return MPoly(S.base, S.nvars, terms)


def _split(cls, rng):
    """A random class of positive degree strictly inside cls."""
    while True:
        part = tuple(rng.randrange(d + 1) for d in cls)
        if 0 < sum(part) < sum(cls):
            return part


def draw(S, rng):
    """One curve: a random polynomial of a class, or a product of two or
    three random factors, one of them repeated now and then."""
    cls = rng.choice(CLASSES[S.model])
    if rng.random() < 0.4:
        return _random_poly(S, cls, rng)
    part = _split(cls, rng)
    rest = tuple(a - b for a, b in zip(cls, part))
    factors = [_random_poly(S, part, rng)]
    if rng.random() < 0.3 and all(2 * b <= a for a, b in zip(cls, part)):
        factors.append(factors[0])
        rest = tuple(a - b for a, b in zip(rest, part))
    if sum(rest) > 0:
        if sum(rest) > 1 and rng.random() < 0.5:
            inner = _split(rest, rng)
            factors += [_random_poly(S, inner, rng), _random_poly(
                S, tuple(a - b for a, b in zip(rest, inner)), rng)]
        else:
            factors.append(_random_poly(S, rest, rng))
    out = factors[0]
    for g in factors[1:]:
        out = out * g
    return out


def corpus(budget=BUDGET):
    """(model, q, polynomial, outcome) for every kept draw, in order."""
    rng = random.Random(SEED)
    for model in CLASSES:
        for q in QS:
            S = surface_make(model, q)
            for _ in range(PER_CELL):
                f = draw(S, rng)
                try:
                    outcome = search_outcome(S, f, budget)
                except OverBudget:
                    continue
                yield model, q, f, outcome


def line(model, q, f, outcome):
    terms = " ".join("".join(map(str, e)) + f":{c}"
                     for e, c in sorted(f.terms.items()))
    return f"{model} {q} {terms} | {outcome or '-'}"


def read_table(path=TABLE):
    """(model, q, polynomial, outcome or None) per line of the table."""
    surfaces = {}
    with open(path, encoding="utf-8") as fh:
        for text in fh:
            head, outcome = text.rstrip("\n").split(" | ", 1)
            model, q, *terms = head.split()
            S = surfaces.get((model, q))
            if S is None:
                S = surfaces[(model, q)] = surface_make(model, int(q))
            f = MPoly(S.base, S.nvars, {
                tuple(map(int, e)): int(c)
                for e, c in (t.split(":") for t in terms)})
            yield S, f, None if outcome == "-" else outcome


def outcome_of(S, f):
    """None if curve_make accepts f, else its message."""
    try:
        curve_make(S, f)
    except ValueError as err:
        return str(err)
    return None


def main():
    rows = [line(*row) for row in corpus()]
    TABLE.write_text("\n".join(rows) + "\n", encoding="utf-8")
    print(f"{len(rows)} curves written to {TABLE}")


if __name__ == "__main__":
    main()
