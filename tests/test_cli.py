"""Command-line interface: exit codes, reports, determinism, goldens."""

import contextlib
import inspect
import io
import json
import os
import re
import tempfile
import textwrap
import time
from pathlib import Path

import pytest

from adeles2d import cli, cohomology, measures, surface, symbols
from adeles2d.cli import main
from adeles2d.series import LaurentSeries2


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_intersect_prints_the_bezout_number():
    code, out, _err = run(["intersect", "--surface", "P2", "--q", "3",
                           "--curves", "line:Y,conic:YZ-X^2"])
    assert code == 0
    assert out.splitlines()[0] == "2", out


def test_intersect_higher_degree_pair():
    code, out, _err = run(["intersect", "--surface", "P2", "--q", "5",
                           "--curves", "YZ-X^2,XY-Z^2"])
    assert code == 0
    assert out.splitlines()[0] == "4", out


def test_bezout_fails_by_verdict_when_the_support_loses_points(monkeypatch):
    # both routes start from the shared support, so only the class form
    # sees the points it lost
    real = surface._support
    monkeypatch.setattr(surface, "_support", lambda C, H: real(C, H)[:1])
    code, out, _err = run(["verify", "--surface", "P2", "--q", "5",
                           "--suites", "bezout", "--range", "0:0"])
    assert code == 1, out
    assert "FAIL bezout" in out, out
    assert "suite bezout: 15/15" not in out, out


def test_a_failure_by_verdict_names_the_value_that_disagreed(monkeypatch):
    # both routes lose the same points and agree; the FAIL line must show
    # the class form that refused them
    real = surface._support
    monkeypatch.setattr(surface, "_support", lambda C, H: real(C, H)[:1])
    code, out, _err = run(["verify", "--surface", "P2", "--q", "5",
                           "--suites", "bezout", "--range", "0:0"])
    assert code == 1, out
    assert ('FAIL bezout {"C": "X", "H": "YZ-X^2"}: 1 == 1; class form 2'
            in out.splitlines()), out
    # the chi-symmetry verdict also weighs the pairing and its transform
    real_pairing = measures.char_pairing
    calls = []

    def skewed(dL, dA):
        calls.append(dL)
        return real_pairing(dL, dA) + len(calls) % 2

    monkeypatch.setattr(measures, "char_pairing", skewed)
    code, out, _err = run(["verify", "--surface", "P2", "--q", "5",
                           "--suites", "chi", "--range", "0:0"])
    assert code == 1, out
    assert ('FAIL chi-symmetry {"S": 0}: 1 == 1; pairing q^1 vs transformed '
            'q^0' in out.splitlines()), out


def _reflect_as_identity(monkeypatch):
    monkeypatch.setattr(measures, "_reflect", lambda wdiv, D: D)


def _adapted_value_inverted(monkeypatch):
    real = measures._adapted_value
    monkeypatch.setattr(measures, "_adapted_value",
                        lambda chain, i, j: -real(chain, i, j))


# both routes of serre and chi pair through the adapted value, so an
# inverted one turns both sides and duality keeps them equal; the
# commutator's measure route meets it alone
@pytest.mark.parametrize("mutate, suites, failing", [
    (_reflect_as_identity, "serre,chi", "serre-difference"),
    (_adapted_value_inverted, "serre,chi,commutator", "commutator"),
])
@pytest.mark.parametrize("model", ["P2", "P1xP1"])
def test_measure_mutants_fail_by_verdict(monkeypatch, mutate, suites,
                                         failing, model):
    mutate(monkeypatch)
    code, out, err = run(["verify", "--surface", model, "--q", "3",
                          "--range", "-1:1", "--suites", suites])
    assert code == 1, out
    assert err == "", err
    assert f"FAIL {failing} " in out, out


def test_verify_chi_suite_on_a_prime_power_field():
    code, out, _err = run(["verify", "--q", "4", "--range", "0:0",
                           "--suites", "chi"])
    assert code == 0, out
    assert "summary: 1 passed, 0 failed" in out


def test_verify_rr_suite_over_the_full_plane_range():
    code, out, _err = run(["verify", "--surface", "P2", "--q", "5",
                           "--range", "-6:6", "--suites", "rr"])
    assert code == 0, out
    assert "suite rr: 13/13 checks passed" in out


def test_no_cache_outlives_a_verify_run(monkeypatch):
    made, filled = [], set()

    def make_surface(args):
        made.append(cli.surface_make(args.surface, args.q))
        return made[-1]

    def watched(suite):
        def run_suite(S, classes, args):
            yield from suite(S, classes, args)
            filled.update(key[0] for key in S.memo)
            filled.update(["flag registry"] * bool(S.flags))
        return run_suite

    monkeypatch.setattr(cli, "_make_surface", make_surface)
    for name, suite in list(cli._SUITE_FNS.items()):
        monkeypatch.setitem(cli._SUITE_FNS, name, watched(suite))
    for model in ("P2", "P1xP1"):
        code, out, _err = run(["verify", "--surface", model, "--q", "3",
                               "--range", "0:1", "--suites",
                               ",".join(cli.SUITES)])
        assert code == 0, out
    # the suites filled the memo with every kind the Surface docstring
    # lists, and made flags, and each run emptied both
    documented = set(re.findall(r'\("([a-z ]+)"', surface.Surface.__doc__))
    assert filled == documented | {"flag registry"}, filled ^ documented
    assert {"germ", "intersection flags", "ord", "support"} <= documented
    assert len(made) == 2
    for S in made:
        assert S.memo == {} and S.flags == {}


def test_report_schema_is_stable_and_runs_are_byte_identical():
    with tempfile.TemporaryDirectory() as tmp:
        p1 = os.path.join(tmp, "r1.json")
        p2 = os.path.join(tmp, "r2.json")
        argv = ["verify", "--surface", "P2", "--q", "3", "--range", "-1:1",
                "--seed", "11", "--suites", "serre,chi,rr"]
        code1, _o, _e = run(argv + ["--json", p1])
        code2, _o, _e = run(argv + ["--json", p2])
        assert code1 == code2 == 0
        b1 = Path(p1).read_bytes()
        b2 = Path(p2).read_bytes()
        assert b1 == b2, "reports differ between identical runs"
        doc = json.loads(b1)
        assert list(doc) == ["config", "checks", "summary"]
        assert list(doc["summary"]) == ["passed", "failed"]
        for c in doc["checks"]:
            assert list(c) == ["name", "inputs", "lhs", "rhs", "pass",
                               "micros"]
            assert c["micros"] == 0
        assert doc["summary"]["failed"] == 0
        assert doc["summary"]["passed"] == len(doc["checks"])


def test_injected_oracle_failure_is_reported_and_exits_one():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fail.json")
        code, out, _err = run(["verify", "--q", "3", "--range", "0:1",
                               "--suites", "rr", "--inject-failure",
                               "--json", path])
        assert code == 1
        assert "FAIL riemann-roch" in out
        doc = json.loads(Path(path).read_bytes())
        first = doc["checks"][0]
        assert first["pass"] is False
        assert first["inputs"]["injected"] is True
        assert doc["summary"]["failed"] == 1


def test_empty_suite_produces_an_empty_report():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "empty.json")
        code, out, _err = run(["verify", "--q", "3", "--range", "0:0",
                               "--suites", "", "--json", path])
        assert code == 0
        doc = json.loads(Path(path).read_bytes())
        assert doc["checks"] == []
        assert doc["summary"] == {"passed": 0, "failed": 0}


def test_invalid_configurations_exit_two():
    bad = [
        ["verify", "--q", "6", "--range", "0:0"],
        ["verify", "--q", "11", "--range", "0:0"],
        ["verify", "--q", "3", "--range", "5:2"],
        ["verify", "--q", "3", "--range", "0:0", "--suites", "bogus"],
        ["verify", "--q", "3", "--range", "1:2,3:4"],
        ["intersect", "--q", "3", "--curves", "line:Y"],
        ["intersect", "--q", "3", "--curves", "Y,Y"],
        ["expand", "--q", "3", "--curve", "Z", "--point", "1:1:1",
         "--function", "X/Y"],
        ["expand", "--q", "3", "--curve", "Z", "--point", "0:1:0",
         "--function", "X^2/Y"],
        ["symbol", "--q", "3", "--curve", "W", "--point", "0:1:0",
         "--f", "X/Y", "--g", "X/Z"],
        ["expand", "--q", "3", "--curve", "Z", "--point", "0:1:0",
         "--function", "0"],
        ["symbol", "--q", "3", "--curve", "Y", "--point", "0:0:1",
         "--f", "0", "--g", "Y/Z"],
        ["symbol", "--q", "3", "--curve", "Y", "--point", "0:0:1",
         "--f", "X/Z", "--g", "0/Z"],
        ["expand", "--q", "3", "--curve", "Z", "--point", "0:1:0",
         "--function", "X/0"],
        ["symbol", "--q", "3", "--curve", "Y", "--point", "0:0:1",
         "--f", "X/0", "--g", "Y/Z"],
        ["symbol", "--q", "3", "--curve", "Y", "--point", "0:0:1",
         "--f", "Y/Z", "--g", "Y/Z", "--precision", "0"],
        ["residue", "--q", "3", "--curve", "Y", "--point", "0:0:1",
         "--num", "Z", "--den", "Y:1", "--precision", "-1"],
        ["verify", "--suites", "bezout", "--precision", "0"],
        ["expand", "--q", "3", "--curve", "Z", "--point", "0:1:0:2",
         "--function", "X^2/YZ"],
        ["expand", "--surface", "P1xP1", "--q", "3", "--curve", "X1",
         "--point", "1:0:1:0:1", "--function", "Y0/Y1"],
        ["expand", "--q", "3", "--curve", "Z", "--point", "0:1",
         "--function", "X^2/YZ"],
    ]
    for argv in bad:
        code, _out, err = run(argv)
        assert code == 2, (argv, err)
        assert err.startswith("error:"), (argv, err)
    assert "expected 3 coordinates, got 2" in err, err


def test_precision_sizes_only_the_series_of_expand():
    # every other window is sized from exact orders: a large --precision
    # costs no time there and changes no check, only the echoed config
    start = time.perf_counter()
    code, out, _err = run(["residue", "--q", "3", "--curve", "Z",
                           "--point", "1:1:0", "--num", "Y^2",
                           "--den", "X^2+XZ+2Y^2", "--precision", "1024"])
    assert code == 0 and out.splitlines()[0] == "1", out
    assert time.perf_counter() - start < 10
    docs = []
    with tempfile.TemporaryDirectory() as tmp:
        for precision in ("8", "512"):
            path = os.path.join(tmp, f"p{precision}.json")
            code, out, _err = run(["verify", "--q", "3", "--range", "0:1",
                                   "--suites", "reciprocity,bezout,rr",
                                   "--precision", precision, "--json", path])
            assert code == 0, out
            docs.append(json.loads(Path(path).read_bytes()))
    assert docs[0]["checks"] == docs[1]["checks"]
    assert docs[0]["summary"] == docs[1]["summary"]
    assert [d["config"]["precision"] for d in docs] == [8, 512]


def test_soft_q_limit_is_overridable():
    code, _out, _err = run(["verify", "--q", "11", "--allow-large-q",
                            "--range", "0:0", "--suites", "chi"])
    assert code == 0


def test_expand_prints_the_local_series():
    code, out, _err = run(["expand", "--surface", "P2", "--q", "3",
                           "--curve", "Z", "--point", "0:1:0",
                           "--function", "X^2/YZ", "--precision", "4"])
    assert code == 0
    assert out.splitlines()[0].startswith("t^-1*u^2: 1"), out


def test_a_recurrence_mutant_fails_expand_by_verdict(monkeypatch):
    # the column recurrence of surface.ratio_at_flag without its i = j
    # term: the series it prints, times the denominator, is no longer the
    # numerator on the printed box
    source = inspect.getsource(surface.ratio_at_flag)
    mutant = source.replace("if i > j:", "if i >= j:")
    assert mutant != source
    scope = {}
    exec(mutant, vars(surface).copy(), scope)
    monkeypatch.setattr(surface, "ratio_at_flag", scope["ratio_at_flag"])
    code, out, err = run(["expand", "--q", "7", "--curve", "X^3+XZ^2+6Y^2Z",
                          "--point", "0:1:0", "--function", "X^3/Z^3",
                          "--precision", "4"])
    assert code == 1, out
    assert err == "", err
    assert "FAIL expand " in out, out


def test_a_determinant_mutant_fails_symbol_by_verdict(monkeypatch):
    # the symbol's determinant with a w(g) added instead of subtracted: the
    # power product f^b g^-a, expanded at the flag, no longer agrees
    source = textwrap.dedent(inspect.getsource(symbols._symbol))
    mutant = source.replace("- (a and a *", "+ (a and a *")
    assert mutant != source
    scope = {}
    exec(mutant, vars(symbols).copy(), scope)
    monkeypatch.setattr(symbols, "_symbol", scope["_symbol"])
    code, out, err = run(GOLDEN_REPORTS["symbol_p2"])
    assert code == 1, out
    assert err == "", err
    assert "FAIL symbol " in out, out


def test_symbol_command_reads_the_unit_restriction():
    code, out, _err = run(["symbol", "--surface", "P2", "--q", "3",
                           "--curve", "Y", "--point", "0:0:1",
                           "--f", "X/Z", "--g", "Y/Z"])
    assert code == 0
    assert out.splitlines()[0] == "1", out


def test_residue_command_runs_on_a_polar_flag():
    code, out, _err = run(["residue", "--surface", "P2", "--q", "3",
                           "--curve", "Z", "--point", "1:1:0",
                           "--num", "XY", "--den", "Z:2"])
    assert code == 0, out
    assert out.splitlines(), "no residue printed"


def test_residue_command_at_a_crossing_off_the_coordinate_lines():
    # the conic meets Z at (1:1:0); the residues of Y^2/conic * omega on
    # the two curves there are 1 and 2, which sum to 0 in F_3
    for curve, value in (("Z", "1"), ("X^2+XZ+2Y^2", "2")):
        code, out, _err = run(["residue", "--surface", "P2", "--q", "3",
                               "--curve", curve, "--point", "1:1:0",
                               "--num", "Y^2", "--den", "X^2+XZ+2Y^2"])
        assert code == 0, out
        assert out.splitlines()[0] == value, out


def test_cohomology_tabulates_and_cross_checks():
    code, out, _err = run(["cohomology", "--surface", "P2", "--q", "2",
                           "--range", "-4:4"])
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("class ")]
    assert len(lines) == 9, out
    assert "summary: 9 passed, 0 failed" in out


def test_cohomology_accepts_a_range_pair_on_the_quadric():
    code, out, _err = run(["cohomology", "--surface", "P1xP1", "--q", "2",
                           "--range", "-1:1,-2:0"])
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("class ")]
    assert len(lines) == 9, out


def test_timings_flag_fills_microseconds():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "timed.json")
        code, _out, _err = run(["verify", "--q", "5", "--range", "-3:3",
                                "--suites", "rr", "--timings",
                                "--json", path])
        assert code == 0
        doc = json.loads(Path(path).read_bytes())
        assert doc["config"]["timings"] is True
        assert any(c["micros"] > 0 for c in doc["checks"])


def test_only_a_timed_run_reads_the_clock(monkeypatch):
    # checks are built without a clock: with perf_counter raising, every
    # suite and the one-check commands still run, and only --timings
    # reads it
    def no_clock():
        raise AssertionError("the clock was read")

    monkeypatch.setattr(time, "perf_counter", no_clock)
    verify = ["verify", "--surface", "P2", "--q", "3", "--range", "0:1",
              "--suites", ",".join(cli.SUITES)]
    code, out, _err = run(verify)
    assert code == 0 and "summary: 499 passed, 0 failed" in out, out
    code, out, _err = run(["intersect", "--q", "5", "--curves", "X,Y"])
    assert code == 0 and out.startswith("1\n"), out
    with pytest.raises(AssertionError, match="the clock was read"):
        run(verify + ["--timings"])


def test_a_degenerate_window_fails_its_rank_check(monkeypatch):
    # a fixed form whose local coefficient J is identically zero pairs
    # every monomial to zero and leaves the gram matrix at rank 0: the run
    # reports the window-rank checks as failed
    monkeypatch.setattr(
        measures, "canonical_local_form",
        lambda fl, t_to, u_to: LaurentSeries2.zero(fl.point.residue_field))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "windows.json")
        code, out, _err = run(["verify", "--q", "3", "--range", "0:0",
                               "--suites", "windows", "--json", path])
        doc = json.loads(Path(path).read_bytes())
    assert code == 1, out
    assert "FAIL window-rank" in out, out
    ranks = [c for c in doc["checks"] if c["name"] == "window-rank"]
    assert len(ranks) == 2
    for c in ranks:
        assert c["pass"] is False and c["lhs"] == 0 < c["rhs"], c


def test_a_section_row_builder_that_drops_a_row_fails_by_verdict(monkeypatch):
    # the windows suite counts sections by rank: with one spanning row
    # fewer, every divisor with sections reports one too few
    real = cohomology._section_rows

    def dropped(D):
        rows, monos = real(D)
        return rows[:-1], monos

    monkeypatch.setattr(cohomology, "_section_rows", dropped)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "windows.json")
        code, out, _err = run(["verify", "--surface", "P2", "--q", "3",
                               "--suites", "windows", "--json", path])
        doc = json.loads(Path(path).read_bytes())
    assert code == 1, out
    assert "FAIL sections-dimension" in out, out
    dims = [c for c in doc["checks"] if c["name"] == "sections-dimension"]
    assert len(dims) == 125
    failed = [c for c in dims if c["pass"] is False]
    assert failed and all(c["lhs"] == c["rhs"] - 1 for c in failed), failed
    assert all(c["rhs"] == 0 for c in dims if c["pass"]), dims


def test_quadric_verify_runs_every_suite():
    code, out, _err = run(["verify", "--surface", "P1xP1", "--q", "2",
                           "--range", "-1:1", "--seed", "5"])
    assert code == 0, out
    for name in ("reciprocity", "bezout", "serre", "chi", "commutator",
                 "rr", "windows"):
        assert f"suite {name}:" in out, name
    assert ", 0 failed" in out


def test_reciprocity_suite_ends_over_extension_fields():
    for surface in ("P2", "P1xP1"):
        for q in ("4", "9"):
            code, out, _err = run(["verify", "--surface", surface, "--q", q,
                                   "--range", "-2:2", "--suites",
                                   "reciprocity"])
            assert code == 0, (surface, q, out)
            assert ", 0 failed" in out, (surface, q, out)


# Reports that print class text or a deep flag expansion, recorded before
# classes became tuples and before the expansion box became rectangular, and
# the measure suites' reports, recorded before their identities returned
# check records: name -> command line; tests/golden/<name>.out holds the standard output and
# tests/golden/<name>.json the --json report.
GOLDEN_REPORTS = {
    "cohomology_p2": ["cohomology", "--surface", "P2", "--q", "2",
                      "--range", "-4:4"],
    "cohomology_p1xp1": ["cohomology", "--surface", "P1xP1", "--q", "2",
                         "--range", "-1:1,-2:0"],
    "intersect_p2": ["intersect", "--surface", "P2", "--q", "3",
                     "--curves", "line:Y,conic:YZ-X^2"],
    "intersect_p1xp1": ["intersect", "--surface", "P1xP1", "--q", "3",
                        "--curves", "X0Y1-X1Y0,X0Y0-X1Y1"],
    "flex4": ["expand", "--q", "7", "--curve", "X^3+XZ^2+6Y^2Z",
              "--point", "0:1:0", "--function", "X^3/Z^3",
              "--precision", "4"],
    # Z^20 meets the cubic to order 60 at the flex
    "flex20": ["expand", "--q", "7", "--curve", "X^3+XZ^2+6Y^2Z",
               "--point", "0:1:0", "--function", "X^20/Z^20",
               "--precision", "8"],
    # the same at precision 16, where the t-columns of the powers of the
    # solved coordinate run to u^1036
    "flex20_16": ["expand", "--q", "7", "--curve", "X^3+XZ^2+6Y^2Z",
                  "--point", "0:1:0", "--function", "X^20/Z^20",
                  "--precision", "16"],
    "verify_measures_p2": ["verify", "--surface", "P2", "--q", "3",
                           "--range", "-1:1",
                           "--suites", "serre,chi,commutator,rr"],
    "verify_measures_p1xp1": ["verify", "--surface", "P1xP1", "--q", "2",
                              "--range", "-1:0",
                              "--suites", "serre,chi,commutator,rr"],
    # both t-valuations are nonzero; g's denominator carries the curve
    "symbol_p2": ["symbol", "--surface", "P2", "--q", "5",
                  "--curve", "YZ-X^2", "--point", "0:0:1",
                  "--f", "XYZ-X^3/Z^3", "--g", "Y^3/YZ^2-X^2Z"],
    "symbol_p1xp1": ["symbol", "--surface", "P1xP1", "--q", "3",
                     "--curve", "X0", "--point", "0:1:0:1",
                     "--f", "X0^2Y0/X1^2Y1", "--g", "X0Y0^3/X1Y1^3"],
}
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_reports_match_their_golden_bytes(name):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        code, out, _err = run(GOLDEN_REPORTS[name] + ["--json", path])
        report = Path(path).read_bytes()
    assert code == 0
    with open(os.path.join(GOLDEN_DIR, name + ".out"), encoding="utf-8") as fh:
        assert out == fh.read()
    with open(os.path.join(GOLDEN_DIR, name + ".json"), "rb") as fh:
        assert report == fh.read()


# the report writer against the stdlib encoder it stands in for

@pytest.mark.parametrize("name", sorted(
    n for n in os.listdir(GOLDEN_DIR) if n.endswith(".json")))
def test_report_writer_equals_json_dumps_on_the_goldens(name):
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert cli._report_text(doc) == json.dumps(doc, indent=2)


def test_report_writer_equals_json_dumps_on_a_hostile_document():
    doc = {
        "text": "ünïcödé ∂ 𝔽   ",
        "quotes": "\"'\\\"/\\",
        "control": "".join(map(chr, range(32))) + "\x7f",
        "\n\t\"key\\": "",
        "empty": [{}, [], (), ""],
        "nested": {"a": [[[]], {"b": {"c": [1, [2, (3, {})]]}}]},
        "tuple": (1, ("x", None), [True, False]),
        "scalars": [True, False, None, 0, -1, -(10 ** 40), 10 ** 60],
    }
    assert cli._report_text(doc) == json.dumps(doc, indent=2)
    for top in ([], {}, (), "", 7, -7, True, None, [[]], [{}]):
        assert cli._report_text(top) == json.dumps(top, indent=2), top


@pytest.mark.parametrize("bad", [
    {"value": 0.5}, [1, {2, 3}], {1: "int key"}, {("a",): 1}, {None: 1},
])
def test_report_writer_refuses_what_a_report_cannot_hold(bad):
    with pytest.raises(TypeError):
        cli._report_text(bad)


# the check-record writer against the same encoder

def _records_doc(config, checks, micros):
    """The report `_emit` writes, as the dict json.dumps would take."""
    records = [{"name": c.name, "inputs": c.inputs, "lhs": c.lhs,
                "rhs": c.rhs, "pass": c.passed, "micros": us}
               for c, us in zip(checks, micros)]
    passed = sum(1 for c in checks if c.passed)
    return {"config": config, "checks": records,
            "summary": {"passed": passed, "failed": len(checks) - passed}}


def _document(config, checks, micros):
    doc = _records_doc(config, checks, micros)
    return cli._document_text(config, checks, micros, doc["summary"]), doc


def _int_lists_as_tuples(v):
    if type(v) is list and all(type(x) is int for x in v):
        return tuple(v)
    if type(v) is dict:
        return {k: _int_lists_as_tuples(x) for k, x in v.items()}
    return v


@pytest.mark.parametrize("name", sorted(
    n for n in os.listdir(GOLDEN_DIR) if n.endswith(".json")))
def test_records_writer_equals_json_dumps_on_the_goldens(name):
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
        doc = json.load(fh)
    micros = [r["micros"] for r in doc["checks"]]
    for shape in (lambda v: v, _int_lists_as_tuples):
        checks = [measures.Check(r["name"], shape(r["inputs"]),
                                 shape(r["lhs"]), shape(r["rhs"]), r["pass"])
                  for r in doc["checks"]]
        text, _ = _document(doc["config"], checks, micros)
        assert text == json.dumps(doc, indent=2)


def test_records_writer_equals_json_dumps_on_hostile_records():
    Check = measures.Check
    nasty = ("ünïcödé ∂ 𝔽 \"'\\/" + "".join(map(chr, range(32)))
             + "\x7f")
    checks = [
        Check(nasty, {nasty: nasty, "\n\t\"key\\": ""}, nasty, nasty + "!"),
        Check("nested", {"t": (1, (2, [3, {"a": ()}]), [True, None])},
              [[(1, 2)], {"k": [(), {}]}], {"d": {"e": (None, False)}}),
        Check("scalars", {"none": None, "big": 10 ** 60, "neg": -(10 ** 40)},
              None, True, passed=False),
        Check("empty", {}, (), [], passed=True),
        Check("list-in-tuple", {"x": (1, [2, 3]), "y": ([],)}, (0, [1]),
              ((1, 2), (3,))),
        # equal tuples and hash alike, but only the first is a tuple of ints
        Check("ints", {"C": (1, 0), "H": (1, 0)}, (1, 0), (1, 0)),
        Check("bools", {"C": (True, False), "H": (1, 0)}, (True, False),
              (1, 0)),
        Check("ints-again", {"C": (1, 0)}, (False, True), (0, 1)),
    ]
    micros = [0, 7, 10 ** 12, 0, 3, 0, 0, 1]
    text, doc = _document({"command": nasty, "k": (2, 3)}, checks, micros)
    assert text == json.dumps(doc, indent=2)
    text, doc = _document({}, [], [])
    assert text == json.dumps(doc, indent=2)
    assert cli._records_text([], []) == "[]"


def test_records_writer_never_shares_text_across_element_types():
    Check = measures.Check
    checks = [Check("a", {"k": (1, 0)}, (1, 0), (1, 0)),
              Check("b", {"k": (True, False)}, (True, False), (True, False))]
    records = json.loads(cli._records_text(checks, [0, 0]))
    assert records[1]["inputs"]["k"] == [True, False]
    assert records[1]["lhs"] == records[1]["rhs"] == [True, False]
    assert type(records[1]["lhs"][0]) is bool
    for bad in (Check("f", {"k": (1.0, 0)}, 0, 0),
                Check("f", {"k": (1, 0)}, (1.0, 0), 0),
                Check("a", {"k": (1.0, 0)}, (1, 0), (1, 0)),
                Check("a", {"k": (1, 0)}, (1.0, 0), (1, 0)),
                Check("a", {"k": (1, 0)}, (1, 0), 1.0),
                Check("f", {}, 0, (1, 0.5)),
                Check("a", {1: (1, 0)}, (1, 0), (1, 0)),
                Check(1, {"k": (1, 0)}, (1, 0), (1, 0))):
        # the first record's shape has a template, and (1.0, 0) equals
        # (1, 0); names and input keys must be str
        with pytest.raises(TypeError):
            cli._records_text([checks[0], bad], [0, 0])


def test_records_writer_keeps_shapes_that_differ_only_in_leaf_types_apart():
    # each record shares its name, verdict and keys with many others and
    # differs from them only in the types of its leaves, so a template
    # that one shape left behind would write the next wrongly
    Check = measures.Check
    leaves = [1, True, 0, False, None, -(10 ** 30), "1", "%d %s %%", "∂ü",
              (1, 0), (True, False), (1, False), (0, True), (), [], (1,),
              [1, 0], (1, (0,)), ((1, 0),), {"k": 1}, {}, [{"%": (1,)}]]
    checks = []
    for name in ("plain", "100% ünïcödé %s %d %%", "%(k)s"):
        for v in leaves:
            checks.append(Check(name, {"k": v, "%d ∂": v}, v, v, True))
            checks.append(Check(name, {"k": v, "%d ∂": "%s"}, (1, 0), v,
                                False))
            checks.append(Check(name, {"%d ∂": v, "k": v}, 1, 1, True))
        for inputs in ({}, [], (), (1, 0), (True, False), 7, True, "%s",
                       None, [("%", 1)], {"k": {}}):
            checks.append(Check(name, inputs, 0, True, True))
            checks.append(Check(name, inputs, True, 0, True))
    micros = [i * 37 % 11 for i in range(len(checks))]
    text, doc = _document({"command": "%s %%"}, checks, micros)
    assert text == json.dumps(doc, indent=2)
    # and in the opposite order, so that the other shape of each pair
    # builds its template first
    text, doc = _document({}, checks[::-1], micros)
    assert text == json.dumps(doc, indent=2)


@pytest.mark.parametrize("extra", [["--timings"], ["--inject-failure"],
                                   ["--timings", "--inject-failure"]])
def test_timed_and_injected_reports_equal_json_dumps(extra):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        code, _out, _err = run(["verify", "--surface", "P2", "--q", "3",
                                "--range", "-1:1", "--suites",
                                "bezout,windows,chi", "--json", path, *extra])
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    assert code == (1 if "--inject-failure" in extra else 0)
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2) + "\n"
    assert doc["checks"][0]["inputs"].get("injected") is (
        True if "--inject-failure" in extra else None)
    if "--timings" in extra:
        assert any(r["micros"] > 0 for r in doc["checks"])


def test_a_rewritten_report_has_the_same_bytes():
    # the report replaces a regular file at its path, and writes through a
    # symlink, which stays a link
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        link = os.path.join(tmp, "link.json")
        argv = ["verify", "--surface", "P2", "--q", "3", "--range", "-1:1",
                "--suites", "chi,bezout", "--json"]
        assert run(argv + [path])[0] == 0
        first = Path(path).read_bytes()
        assert run(argv + [path])[0] == 0
        assert Path(path).read_bytes() == first
        os.symlink(path, link)
        assert run(argv + [link])[0] == 0
        assert os.path.islink(link)
        assert Path(path).read_bytes() == first


def test_an_exhausted_budget_exits_1_with_the_reason(monkeypatch):
    monkeypatch.setattr(symbols, "FULTON_STEPS", 0)
    code, _out, err = run(["intersect", "--surface", "P2", "--q", "5",
                           "--curves", "YZ-X^2,Y"])
    assert code == 1
    assert err.startswith("budget exceeded: ") and "0 steps" in err, err
