"""Acceptance gate: the nine verification criteria, all exact.

Each test covers one criterion end to end, asserts every comparison with
tolerance zero, enforces the expected runtime envelope, and prints a
single pass line (visible with -v/-s) on success.
"""

import contextlib
import io
import json
import os
import tempfile
import time

from adeles2d.cli import _records_text, main as cli_main
from adeles2d.cohomology import cech_h_vector, class_range, h_vector, rr_space
from adeles2d.measures import (
    canonical_divisor,
    central_commutator,
    class_representative,
    derive_eq1,
    derive_eq2,
    divisor_zero,
    rr_assemble,
    window_annihilator_check,
    window_build,
)
from adeles2d.residues import (
    check_reciprocity_along_curves,
    check_reciprocity_around_points,
    reciprocity_corpus,
)
from adeles2d.surface import Divisor, curve_make, divisor_class, surface_make
from adeles2d.symbols import (
    IdeleRule,
    class_intersection,
    commutator_pairing,
    intersection_flags,
    intersection_number,
    intersection_oracle,
)

CUBIC_BY_P = {2: "X^3+Y^2Z+YZ^2", 3: "Y^2Z-X^3+XZ^2", 5: "Y^2Z-X^3-XZ^2"}


def _finish(n: int, label: str, started: float, limit: float):
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {n} took {elapsed:.1f}s >= {limit}s"
    print(f"criterion {n} ({label}): PASS in {elapsed:.2f}s")


def test_criterion_1_residue_reciprocity():
    started = time.perf_counter()
    for model in ("P2", "P1xP1"):
        forms = 0
        for q in (2, 3, 5):
            S = surface_make(model, q)
            for w in reciprocity_corpus(S, 9, seed=q):
                forms += 1
                around = check_reciprocity_around_points(w)
                for x, total in around:
                    assert total.is_zero(), (model, q, w, x, total)
                along = check_reciprocity_along_curves(w)
                for D, total in along:
                    assert total.is_zero(), (model, q, w, D, total)
        assert forms >= 25, (model, forms)
    _finish(1, "residue reciprocity", started, 30.0)


def test_criterion_2_bezout_via_symbols():
    started = time.perf_counter()
    for q in (2, 3, 5):
        S = surface_make("P2", q)
        names = ["X", "Y", "X+Y+Z", "YZ-X^2", "XY-Z^2", CUBIC_BY_P[q]]
        curves = [curve_make(S, t) for t in names]
        # the Y / YZ-X^2 pair is the line-conic tangency (double contact
        # at (0:0:1))
        for i in range(len(curves)):
            for j in range(i + 1, len(curves)):
                C = Divisor(S, {curves[i]: 1})
                H = Divisor(S, {curves[j]: 1})
                got = intersection_number(C, H)
                want = intersection_oracle(C, H)
                assert got == want, (q, names[i], names[j], got, want)
                pairing = commutator_pairing(
                    IdeleRule("at_points", C), IdeleRule("along_curves", H),
                    intersection_flags(C, H))
                assert pairing.exponent == -want, (q, names[i], names[j])
    _finish(2, "Bezout via symbols", started, 30.0)


def test_criterion_3_serre_difference_identity():
    started = time.perf_counter()
    for model, q, lo, hi in (("P2", 3, -6, 6), ("P1xP1", 2, -4, 4)):
        S = surface_make(model, q)
        classes = class_range(S, lo, hi)
        for cC in classes:
            for cH in classes:
                got = derive_eq1(S, cC, cH)
                assert got.passed and got.lhs == got.rhs, (model, got)
        for c in classes:
            if min(c) < 0:
                continue
            dim = len(rr_space(class_representative(S, c)))
            assert dim == h_vector(S, c).h0, (model, c, dim)
    _finish(3, "Serre difference identity", started, 10.0)


def test_criterion_4_chi_symmetry():
    started = time.perf_counter()
    for model, q, lo, hi in (("P2", 3, -6, 6), ("P1xP1", 2, -4, 4)):
        S = surface_make(model, q)
        for c in class_range(S, lo, hi):
            got = derive_eq2(S, c)
            assert got.passed and got.lhs == got.rhs, (model, got)
    _finish(4, "chi symmetry", started, 5.0)


def test_criterion_5_commutator_consistency():
    started = time.perf_counter()
    for model, q, lo, hi in (("P2", 3, -3, 3), ("P1xP1", 2, -2, 2)):
        S = surface_make(model, q)
        wdiv = canonical_divisor(S)
        wcls = divisor_class(wdiv)
        chi0 = h_vector(S, S.class_zero()).chi
        for c in class_range(S, lo, hi):
            got = central_commutator(class_representative(S, c), wdiv)
            assert got.passed, (model, got)
            chiC = h_vector(S, c).chi
            reflected = S.class_add(wcls, S.class_scale(-1, c))
            pairing = class_intersection(S, c, reflected)
            assert got.lhs == 2 * (chiC - chi0), (model, got)
            assert got.rhs == -pairing, (model, got)
    _finish(5, "commutator consistency", started, 60.0)


def test_criterion_6_riemann_roch():
    started = time.perf_counter()
    for model, q, lo, hi in (("P2", 3, -3, 3), ("P1xP1", 2, -2, 2)):
        S = surface_make(model, q)
        wdiv = canonical_divisor(S)
        for c in class_range(S, lo, hi):
            Cdiv = class_representative(S, c)
            report = rr_assemble(Cdiv, wdiv)
            assert report.passed, (model, c, _records_text([report], [0]))
            if min(c) >= 0:
                assert len(rr_space(Cdiv)) == h_vector(S, c).h0, (model, c)
    S = surface_make("P2", 3)
    spot = rr_assemble(class_representative(S, (1,)), canonical_divisor(S))
    assert (spot.lhs, spot.rhs) == (3, 3), spot
    Q = surface_make("P1xP1", 2)
    spot = rr_assemble(class_representative(Q, (1, 0)), canonical_divisor(Q))
    assert (spot.lhs, spot.rhs) == (2, 2), spot
    _finish(6, "Riemann-Roch", started, 60.0)


def test_criterion_7_window_suite():
    started = time.perf_counter()
    S = surface_make("P2", 3)
    lines = [curve_make(S, n) for n in ("X", "Y", "Z")]
    w1 = window_build(divisor_zero(S), Divisor(S, {lines[0]: 1}), u_size=1)
    assert w1.rank == w1.dimension == 1, w1
    L = Divisor(S, {D: 1 for D in lines})
    w = window_build(-L, L, u_size=2)
    assert w.rank == w.dimension == 12, w
    wcurves = [fl.curve for fl in w.flags]
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            for c in (-1, 0, 1):
                C = Divisor(S, dict(zip(wcurves, (a, b, c))))
                assert window_annihilator_check(w, C), (a, b, c)
    Q = surface_make("P1xP1", 2)
    wq = window_build(canonical_divisor(Q), divisor_zero(Q), u_size=1)
    assert wq.rank == wq.dimension == 4, wq
    qcurves = [fl.curve for fl in wq.flags]
    for a in (-2, -1, 0):
        for b in (-2, -1, 0):
            C = Divisor(Q, dict(zip(qcurves, (a, b))))
            assert window_annihilator_check(wq, C), (a, b)
    # section-space dimension identity on coordinate-line divisors
    for surf, names in ((S, ("X", "Y", "Z")), (Q, ("X1", "Y1"))):
        family = [curve_make(surf, n) for n in names]
        reps = [()]
        for _ in family:
            reps = [r + (m,) for r in reps for m in range(-2, 3)]
        dims = {}
        for rep in reps:
            D = Divisor(surf, dict(zip(family, rep)))
            dims[rep] = len(rr_space(D))
            assert dims[rep] == h_vector(
                surf, divisor_class(D)).h0, (surf.model, rep)
        for rep in reps:
            for k in range(len(family)):
                low = list(rep)
                low[k] -= 1
                key = tuple(low)
                if key not in dims:
                    continue
                hC = h_vector(surf, divisor_class(
                    Divisor(surf, dict(zip(family, rep))))).h0
                hH = h_vector(surf, divisor_class(
                    Divisor(surf, dict(zip(family, key))))).h0
                assert dims[rep] - dims[key] == hC - hH, (surf.model, rep, key)
    _finish(7, "window suite", started, 60.0)


def test_criterion_8_oracle_independence():
    started = time.perf_counter()
    for model, q, lo, hi in (("P2", 3, -6, 6), ("P1xP1", 2, -4, 4)):
        S = surface_make(model, q)
        for c in class_range(S, lo, hi):
            closed = h_vector(S, c)
            indep = cech_h_vector(S, c)
            assert (closed.h0, closed.h1, closed.h2) == \
                (indep.h0, indep.h1, indep.h2), (model, c)
    _finish(8, "oracle independence", started, 5.0)


def test_criterion_9_deterministic_reports():
    started = time.perf_counter()
    argv = ["verify", "--surface", "P2", "--q", "3", "--range", "-2:2",
            "--seed", "17"]
    blobs = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("a.json", "b.json"):
            path = os.path.join(tmp, name)
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                code = cli_main(argv + ["--json", path])
            assert code == 0, sink.getvalue()
            blobs.append(open(path, "rb").read())
    assert blobs[0] == blobs[1], "reports differ between identical runs"
    doc = json.loads(blobs[0])
    assert doc["summary"]["failed"] == 0
    assert doc["summary"]["passed"] == len(doc["checks"]) > 0
    _finish(9, "deterministic reports", started, 60.0)
