"""curve_make against the reference search on the committed corpus
(tests/curve_corpus.txt, made by tests/curve_corpus.py)."""

from curve_corpus import CLASSES, QS, outcome_of, read_table
from reference_curves import OverBudget, search_outcome

ROWS = list(read_table())
LIVE_EVERY = 10  # every 10th curve is searched again here
LIVE_BUDGET = 2000


def test_the_corpus_covers_both_surfaces_every_q_and_class():
    assert len(ROWS) >= 2000
    cells = {(S.model, S.base.q) for S, _f, _w in ROWS}
    assert cells == {(m, q) for m in CLASSES for q in QS}
    classes = {(S.model, S.poly_class(f)) for S, f, _w in ROWS}
    assert classes == {(m, c) for m, cs in CLASSES.items() for c in cs}
    for cell in cells:
        outcomes = [w for S, _f, w in ROWS if (S.model, S.base.q) == cell]
        assert None in outcomes and any(outcomes), cell
    # repeated factors: the factor named is the cofactor itself
    assert any(w and w.split(" * ")[0][len("reducible curve: factors "):]
               == w.split(" * ")[1] for _S, _f, w in ROWS)


def test_curve_make_accepts_and_rejects_as_the_search_does():
    bad = [(S, f, got, want) for S, f, want in ROWS
           if (got := outcome_of(S, f)) != want]
    assert not bad, (len(bad), bad[:3])


def test_the_table_holds_what_the_search_says():
    checked = 0
    for S, f, want in ROWS[::LIVE_EVERY]:
        try:
            got = search_outcome(S, f, LIVE_BUDGET)
        except OverBudget:
            continue
        assert got == want, (S, f)
        checked += 1
    assert checked >= 120, checked
