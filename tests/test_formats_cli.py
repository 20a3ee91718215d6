"""File formats and the command-line surface."""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soclelab import cli, formats
from soclelab import groups as groups_module
from soclelab.algebra import CenterAlgebra
from soclelab.analysis import analyze_group
from soclelab.errors import ConsistencyError, UnsupportedInputError
from soclelab.families import DEFAULT_MAX_ORDER, parse_family
from soclelab.fplin import Subspace
from soclelab.formats import (build_group, format_cayley, load_group_file,
                              parse_group_text, write_cayley)
from soclelab.groups import FiniteGroup, groups_isomorphic, table_dtype


def test_cayley_round_trip(tmp_path):
    g = parse_family("sl2(3)")
    path = tmp_path / "g.cay"
    write_cayley(g, str(path))
    loaded, p_hint = load_group_file(str(path), max_order=2000)
    assert p_hint is None
    assert np.array_equal(loaded.table, g.table)


def test_cayley_header_prime_hint():
    g, p = parse_group_text("cayley 2 3\n0 1\n1 0\n")
    assert g.order == 2 and p == 3


def test_cayley_identity_relabeling():
    # identity in the last slot: parser must move it to index 0
    text = "cayley 3\n1 2 0\n2 0 1\n0 1 2\n"
    g, _ = parse_group_text(text)
    assert g.mul(0, 0) == 0
    assert groups_isomorphic(g, parse_family("cyclic(3)"))


def test_perm_format():
    g, _ = parse_group_text("perm 3\n(1 2 3)\n")
    assert g.order == 3
    g2, _ = parse_group_text("perm 4\n(1 2)\n(3 4)\n")
    assert g2.order == 4 and g2.center().size == 4
    g3, _ = parse_group_text("perm 3\n(1 2)\n(1 2 3)\n")
    assert g3.order == 6 and g3.center().size < 6


def test_perm_file_cap_is_checked_before_any_table(tmp_path):
    path = tmp_path / "s7.perm"
    path.write_text("perm 7\n(1 2)\n(1 2 3 4 5 6 7)\n")
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedInputError,
                           match="generated group exceeds the cap 5039"):
            load_group_file(str(path), max_order=5039)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5040 * 5040 * 2 // 20      # one uint16 table of sym(7): 50.8 MB
    assert load_group_file(str(path), max_order=5040)[0].order == 5040


def test_repeated_generators_give_the_same_table():
    once = parse_group_text("perm 5\n(1 2 3)\n(3 4 5)\n")[0]
    lines = ["(1 2 3)", "(3 4 5)"] * 500
    repeated = parse_group_text("perm 5\n" + "\n".join(lines) + "\n")[0]
    assert once.order == 60 and np.array_equal(repeated.table, once.table)


@pytest.mark.parametrize("text", ["perm 4\n", "perm 4\n\n  \n", "perm 4\n()\nid\n"])
def test_perm_file_without_generators_is_trivial(text):
    g, p = parse_group_text(text)
    assert g.order == 1 and g.table.tolist() == [[0]] and p is None


@pytest.mark.parametrize("text, fragment", [
    ("", "empty"),
    ("sudoku 3\n", "unknown format"),
    ("cayley 2\n0 1\n", "expected 2 table rows"),
    ("cayley 2\n0 1\n1 0 0\n", "expected 2 entries"),
    ("cayley 2\n0 1\n1 9\n", "out of range"),
    ("cayley 2\n0 1\n1 x\n", "not an integer"),
    ("cayley 2 6\n0 1\n1 0\n", "not prime"),
    ("perm 3\n(1 4)\n", ""),
])
def test_parse_errors_carry_position(text, fragment):
    with pytest.raises(UnsupportedInputError) as exc:
        parse_group_text(text)
    assert "line" in str(exc.value)
    assert fragment in str(exc.value)


def test_parse_error_points_at_bad_entry():
    with pytest.raises(UnsupportedInputError, match="line 3, column 2"):
        parse_group_text("cayley 2\n0 1\n1 z\n")


def test_build_group_dispatch(tmp_path):
    g, _ = build_group("q8")
    assert g.order == 8
    path = tmp_path / "c5.cay"
    write_cayley(parse_family("cyclic(5)"), str(path))
    g2, _ = build_group(str(path))
    assert g2.order == 5
    with pytest.raises(UnsupportedInputError):
        build_group("definitely_not_a_family(1)")


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_json(capsys):
    code, out = run_cli(capsys, "analyze", "sl2(3)", "--p", "2")
    assert code == 0
    r = json.loads(out)
    assert r["dims"] == {"center": 7, "radical": 6, "socle": 3}
    assert r["ideal"] == {"direct": True, "criterion": True}
    assert r["schema_version"] == 1
    # canonical serialization: keys sorted
    assert out == json.dumps(r, sort_keys=True, indent=2) + "\n"


def test_analyze_table(capsys):
    code, out = run_cli(capsys, "analyze", "sl2(3)", "--p", "2",
                        "--format", "table")
    assert code == 0
    assert "center=7 radical=6 socle=3" in out
    assert "consistency failures: none" in out
    code, out = run_cli(capsys, "analyze", "sym(4)", "--p", "2", "--format", "table")
    assert code == 0
    assert ("check    quotient_decomposition: inapplicable  "
            "(group does not have the reduced shape)") in out


def test_analyze_default_prime(capsys):
    # smallest prime dividing |G'| = |Q8| = 8
    code, out = run_cli(capsys, "analyze", "sl2(3)")
    assert json.loads(out)["p"] == 2
    # abelian: smallest prime dividing |G|
    code, out = run_cli(capsys, "analyze", "cyclic(15)")
    assert json.loads(out)["p"] == 3


def test_verify_forces_all_checks(capsys):
    code, out = run_cli(capsys, "verify", "agl(1,4)")
    assert code == 0
    r = json.loads(out)
    assert r["theorems"]["quotient_decomposition"]["status"] == "passed"


SECTION_STAGES = ["context", "ideal", "dims", "socle_blocks", "shape",
                  "radical_basis_match"]
CHECK_STAGES = ["quotient_decomposition", "ideal_characterization",
                "central_split", "annihilator_reduction", "reduction"]


def test_theorems_none_skips_stages(capsys):
    code, out = run_cli(capsys, "analyze", "sl2(3)", "--theorems", "none")
    r = json.loads(out)
    assert code == 0
    assert r["theorems"] == {}
    assert r["dims"]["socle"] == 3
    assert [name for name, _ in r["timing"]["stages"]] == SECTION_STAGES


def test_timing_lists_every_stage_in_order(capsys):
    """The set-up of the context, the sections, then each check that ran;
    the stages account for no more than the whole analysis took."""
    code, out = run_cli(capsys, "analyze", "SL2(3)", "--p", "2")
    assert code == 0
    timing = json.loads(out)["timing"]
    assert [name for name, _ in timing["stages"]] == SECTION_STAGES + CHECK_STAGES
    assert all(seconds >= 0 for _, seconds in timing["stages"])
    assert sum(seconds for _, seconds in timing["stages"]) <= timing["seconds"] + 1e-5
    code, out = run_cli(capsys, "analyze", "SL2(3)", "--p", "2", "--format", "table")
    time_line = [line for line in out.splitlines() if line.startswith("time ")]
    assert len(time_line) == 1
    slowest = time_line[0].split(", slowest ")[1].split()[0]
    assert slowest in SECTION_STAGES + CHECK_STAGES


def test_analyze_unsupported_exit_code(capsys):
    assert cli.run(["analyze", "nosuch(2)"]) == 3
    assert cli.run(["analyze", "cyclic(4)", "--p", "6"]) == 3
    # the same check and text as a Cayley header's prime hint
    assert "error: 6 is not prime" in capsys.readouterr().err
    assert cli.run(["analyze", "cyclic(5000)"]) == 3


@pytest.mark.parametrize("spec", ["central(SL2(3),cyclic(3))",       # centers of order 2, 3
                                  "central(abelian(2,2),abelian(2,2))"])  # non-cyclic
def test_central_product_refusals_exit_3(spec, capsys):
    assert cli.run(["analyze", spec]) == 3
    assert "cyclic centers of equal order" in capsys.readouterr().err


def test_consistency_failure_exit_code(capsys, monkeypatch):
    fake = {"consistency_failures": ["forced for the exit-code contract"],
            "schema_version": 1}
    monkeypatch.setattr(cli, "analyze_group", lambda *a, **k: fake)
    assert cli.run(["analyze", "cyclic(2)"]) == 2


def raise_consistency(message):
    def failing(*args):
        raise ConsistencyError(message)
    return failing


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_radical_consistency_failure_exits_2(fmt, capsys, monkeypatch):
    """The verdict and the dimensions both need the radical: the report
    lists its failure once, reads no radical or socle dimension, and the
    exit code is 2, in analyze and in scan."""
    monkeypatch.setattr(CenterAlgebra, "jacobson_radical", raise_consistency("radical broke"))
    code, out = run_cli(capsys, "analyze", "SL2(3)", "--p", "2", "--format", fmt)
    assert code == 2
    if fmt == "json":
        r = json.loads(out)
        assert r["consistency_failures"] == ["radical broke"]
        assert r["dims"] == {"center": 7, "radical": None, "socle": None}
        assert r["ideal"] == {"direct": None, "criterion": None}
        assert r["radical_basis_match"] is None  # SL2(3) at p = 2 is reduced
    else:
        assert "dims     center=7 radical=- socle=-" in out
        assert out.count("radical broke") == 1
    code, out = run_cli(capsys, "scan", "cyclic(2)", "SL2(3)", "--p", "2", "--format", fmt)
    assert code == 2
    if fmt == "json":
        r = json.loads(out)
        assert [row["consistency_failures"] for row in r["rows"]] == [["radical broke"]] * 2
        assert [row["socle_dim"] for row in r["rows"]] == [None, None]
        assert r["summary"]["consistency_failures"] == 2
    else:
        assert "consistency_failures=2" in out


def test_socle_split_failure_counts_on_the_reduced_ideal_shape(capsys, monkeypatch):
    """A socle that does not split along the Sylow cosets is a failure on
    the reduced shape with an ideal socle; elsewhere the blocks are null and
    nothing is listed."""
    monkeypatch.setattr(CenterAlgebra, "socle_coset_decomposition",
                        raise_consistency("blocks broke"))
    code, out = run_cli(capsys, "analyze", "SL2(3)", "--p", "2")
    assert code == 2
    r = json.loads(out)
    assert r["consistency_failures"] == ["blocks broke"]
    assert r["socle_blocks"] is None
    assert r["ideal"] == {"direct": True, "criterion": True}
    # not reduced, and reduced with a socle that is not an ideal
    for spec, reduced in (("cyclic(6)", False), ("twisted_affine(2,3,1)", True)):
        r = analyze_group(parse_family(spec), 2)
        assert r["shape"]["sylow_normal"] and r["shape"]["reduced"] is reduced
        assert r["consistency_failures"] == []
        assert r["socle_blocks"] is None


def test_radical_basis_mismatch_is_false_and_listed_once(capsys, monkeypatch):
    """Predicted radical vectors that span more than the radical."""
    monkeypatch.setattr(CenterAlgebra, "radical_span_from_classes",
                        lambda self: Subspace(self.p, self.k, np.eye(self.k, dtype=np.int64)))
    code, out = run_cli(capsys, "analyze", "SL2(3)", "--p", "2")
    assert code == 2
    r = json.loads(out)
    assert r["radical_basis_match"] is False
    assert r["consistency_failures"] == [
        "predicted radical basis does not span the nilradical"]
    assert r["dims"] == {"center": 7, "radical": 6, "socle": 3}


def test_normal_sylow_without_a_complement_exits_2(capsys, monkeypatch):
    """Schur-Zassenhaus: a normal Sylow subgroup has a complement, so a
    search that finds none is a consistency failure, before any report."""
    monkeypatch.setattr(FiniteGroup, "hall_complement", lambda self, p: None)
    assert cli.run(["analyze", "SL2(3)", "--p", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "consistency failure: no complement to the normal Sylow subgroup\n")


def test_consistency_failure_outside_the_report_exits_2(capsys, monkeypatch):
    """A failure the report cannot hold, in the Sylow ascent before any
    report exists: analyze writes it to stderr, and scan makes it the
    failure of that row and goes on."""
    monkeypatch.setattr(FiniteGroup, "sylow_subgroup",
                        raise_consistency("Sylow ascent found no extension"))
    assert cli.run(["analyze", "SL2(3)", "--p", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "consistency failure: Sylow ascent found no extension\n"
    code, out = run_cli(capsys, "scan", "cyclic(2)", "nosuch(1)", "SL2(3)", "--p", "2")
    assert code == 2
    rows = json.loads(out)["rows"]
    assert [row["status"] for row in rows] == ["ok", "error", "ok"]
    assert [row["consistency_failures"] for row in rows] == [
        ["Sylow ascent found no extension"], [], ["Sylow ascent found no extension"]]
    assert json.loads(out)["summary"]["consistency_failures"] == 2


def test_construct_stdout_and_file(capsys, tmp_path):
    code, out = run_cli(capsys, "construct", "cyclic(3)")
    assert code == 0
    assert out.startswith("cayley 3\n")
    path = tmp_path / "out.cay"
    code, msg = run_cli(capsys, "construct", "agl(1,4)", "--out", str(path))
    assert code == 0 and "order 12" in msg
    g, _ = load_group_file(str(path), max_order=100)
    assert g.order == 12


def test_round_trip_report_identical(capsys, tmp_path):
    path = tmp_path / "rt.cay"
    assert run_cli(capsys, "construct", "sl2(3)", "--out", str(path))[0] == 0
    _, out_file = run_cli(capsys, "analyze", str(path), "--p", "2")
    _, out_mem = run_cli(capsys, "analyze", "sl2(3)", "--p", "2")
    a, b = json.loads(out_file), json.loads(out_mem)
    for r in (a, b):
        del r["timing"]
        del r["group"]["descriptor"]  # input naming, not content
    assert a == b


def test_scan_explicit_specs(capsys):
    code, out = run_cli(capsys, "scan", "sl2(3)", "cyclic(6)", "--p", "2")
    assert code == 0
    r = json.loads(out)
    assert [row["source"] for row in r["rows"]] == ["sl2(3)", "cyclic(6)"]
    assert r["summary"]["ideal"] == 2
    assert r["summary"]["consistency_failures"] == 0


def test_scan_per_group_primes(capsys, tmp_path):
    code, out = run_cli(capsys, "scan", "sl2(3)")
    r = json.loads(out)
    assert [row["p"] for row in r["rows"]] == [2, 3]
    # order 6 has primes 2 and 3; a table file's prime hint leaves one row,
    # and --p overrides the hint
    path = tmp_path / "c6.cay"
    write_cayley(parse_family("cyclic(6)"), str(path))
    path.write_text(path.read_text().replace("cayley 6\n", "cayley 6 3\n", 1))
    code, out = run_cli(capsys, "scan", str(path))
    assert code == 0
    assert [row["p"] for row in json.loads(out)["rows"]] == [3]
    code, out = run_cli(capsys, "scan", str(path), "--p", "2")
    assert [row["p"] for row in json.loads(out)["rows"]] == [2]


def test_scan_row_error_continues(capsys, tmp_path):
    bad = tmp_path / "bad.cay"
    bad.write_text("cayley 2\n0 1\n")
    code, out = run_cli(capsys, "scan", str(bad), "cyclic(4)", "--p", "2")
    assert code == 0
    r = json.loads(out)
    assert r["rows"][0]["status"] == "error"
    assert "line" in r["rows"][0]["error"]
    assert r["rows"][1]["ideal"]["direct"] is True
    assert r["summary"]["errors"] == 1
    assert r["summary"]["inapplicable"] == 0

    # rows follow the sources, an error row in its source's place
    code, out = run_cli(capsys, "scan", "sym(3)", str(bad), "q8")
    assert code == 0
    r = json.loads(out)
    assert [(row["source"], row["p"], row["status"]) for row in r["rows"]] == [
        ("sym(3)", 2, "ok"), ("sym(3)", 3, "ok"), (str(bad), None, "error"),
        ("q8", 2, "ok")]

    # an analysis refused as input, at a p that is not prime
    code, out = run_cli(capsys, "scan", "cyclic(2)", "--p", "4")
    assert code == 0
    r = json.loads(out)
    assert [(row["status"], row["p"]) for row in r["rows"]] == [("error", 4)]
    assert "4 is not prime" in r["rows"][0]["error"]
    assert r["summary"]["errors"] == 1


def test_scan_directory(capsys, tmp_path):
    d = tmp_path / "grp"
    d.mkdir()
    write_cayley(parse_family("cyclic(4)"), str(d / "a.cay"))
    write_cayley(parse_family("q8"), str(d / "b.cay"))
    code, out = run_cli(capsys, "scan", str(d), "--p", "2")
    assert code == 0
    r = json.loads(out)
    assert len(r["rows"]) == 2
    assert all(row["status"] == "ok" for row in r["rows"])


NOT_UTF8 = b"cayley 2\n0 1\n1 0 \xff\n"  # 0xff at byte offset 17


def test_non_utf8_file_is_unsupported_input(capsys, tmp_path):
    bad = tmp_path / "bad.cay"
    bad.write_bytes(NOT_UTF8)
    assert cli.run(["analyze", str(bad)]) == 3
    assert "byte offset 17" in capsys.readouterr().err


def test_scan_gives_non_utf8_file_an_error_row(capsys, tmp_path):
    d = tmp_path / "grp"
    d.mkdir()
    write_cayley(parse_family("cyclic(4)"), str(d / "a.cay"))
    (d / "b.cay").write_bytes(NOT_UTF8)
    write_cayley(parse_family("q8"), str(d / "c.cay"))
    code, out = run_cli(capsys, "scan", str(d), "--p", "2")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["status"] for row in rows] == ["ok", "error", "ok"]
    assert "byte offset 17" in rows[1]["error"]


def test_sdp_with_non_utf8_action_file(capsys, tmp_path):
    write_cayley(parse_family("cyclic(3)"), str(tmp_path / "k.cay"))
    write_cayley(parse_family("cyclic(2)"), str(tmp_path / "h.cay"))
    action = tmp_path / "act.txt"
    spec = f"sdp({tmp_path / 'k.cay'},{tmp_path / 'h.cay'},{action})"
    action.write_text("action\n0 1 2\n0 2 1\n")
    assert run_cli(capsys, "analyze", spec)[0] == 0  # sym(3)
    action.write_bytes(b"action\n0 1 2\n0 2 \xe9\n")
    assert cli.run(["analyze", spec]) == 3
    assert "byte offset 17" in capsys.readouterr().err


def _sdp_spec(tmp_path, action_text: str) -> str:
    """sdp(...) of cyclic(3) by cyclic(2) through the given action file."""
    write_cayley(parse_family("cyclic(3)"), str(tmp_path / "k.cay"))
    write_cayley(parse_family("cyclic(2)"), str(tmp_path / "h.cay"))
    (tmp_path / "act.txt").write_text(action_text)
    return f"sdp({tmp_path / 'k.cay'},{tmp_path / 'h.cay'},{tmp_path / 'act.txt'})"


@pytest.mark.parametrize("last, where", [
    ("0 2 x", "line 5, column 3: entry is not an integer"),
    ("0 2 7", "line 5, column 3: entry out of range"),
    (f"0 2 {10 ** 30}", "line 5, column 3: entry out of range"),
    ("0 2", "line 5, column 1: expected 3 entries, found 2")])
def test_sdp_action_errors_carry_physical_position(capsys, tmp_path, last, where):
    # the blank lines 2 and 3 count
    assert cli.run(["analyze", _sdp_spec(tmp_path, f"action\n\n\n0 1 2\n{last}\n")]) == 3
    assert where in capsys.readouterr().err


def test_long_action_file_is_counted_not_stored(tmp_path):
    spec = _sdp_spec(tmp_path, "action\n0 1 2\n0 2 1\n" + "0 1 2\n" * 100_000)
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedInputError, match="expected 2 action rows, found 100002"):
            build_group(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # the file is 600 kB; its lines as a list take 7.8 MB


def test_trivial_group_passes_its_own_checks(capsys):
    code, out = run_cli(capsys, "analyze", "cyclic(1)")
    assert code == 0
    report = json.loads(out)
    assert report["consistency_failures"] == []
    assert report["theorems"]["central_split"]["status"] == "passed"
    code, out = run_cli(capsys, "scan", "cyclic(1)", "elementary(2,1)")
    assert code == 0
    assert json.loads(out)["summary"]["consistency_failures"] == 0


def test_scan_table_output(capsys):
    code, out = run_cli(capsys, "scan", "q8", "--p", "2", "--format", "table")
    assert code == 0
    assert "consistency_failures=0" in out
    code, out = run_cli(capsys, "scan", "nosuch(1)", "q8", "--format", "table")
    assert code == 0
    assert "\n    error: " in out
    assert "errors=1 inapplicable=0" in out


def test_prime_at_or_above_2_16_is_an_input_error(capsys, tmp_path):
    assert cli.run(["analyze", "cyclic(2)", "--p", "65537"]) == 3
    assert "65537 is not a prime below 2**16" in capsys.readouterr().err
    # the bound is tested before primality, so a huge prime fails at once
    assert cli.run(["analyze", "cyclic(2)", "--p", str(2**61 - 1)]) == 3

    big = tmp_path / "big.cay"
    big.write_text("cayley 2 65537\n0 1\n1 0\n")
    with pytest.raises(UnsupportedInputError, match="line 1, column 1"):
        load_group_file(str(big))
    code, out = run_cli(capsys, "scan", str(big), "cyclic(4)", "--p", "2")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(row["source"], row["status"]) for row in rows] == [
        (str(big), "error"), ("cyclic(4)", "ok")]
    assert "65537 is not a prime below 2**16" in rows[0]["error"]


def loop_reindex_identity_first(table):
    """Reference: the per-row identity search the parser used to run."""
    n = table.shape[0]
    ar = np.arange(n)
    ident = None
    for e in range(n):
        if np.array_equal(table[e], ar) and np.array_equal(table[:, e], ar):
            ident = e
            break
    if ident is None:
        raise UnsupportedInputError("table has no two-sided identity")
    if ident == 0:
        return table
    order = [ident] + [x for x in range(n) if x != ident]
    pos = np.empty(n, dtype=table.dtype)
    for new, old in enumerate(order):
        pos[old] = new
    return pos[table[np.ix_(order, order)]]


@pytest.mark.parametrize("spec", ["cyclic(1)", "cyclic(5)", "sym(3)", "q8", "sl2(3)"])
def test_identity_relabeling_matches_loop(spec, monkeypatch):
    t = np.asarray(parse_family(spec).table)
    n = t.shape[0]
    rng = np.random.default_rng(n)
    for ident in range(n):
        # a relabeling that sends the identity to ident
        perm = rng.permutation(n)
        j = int(np.flatnonzero(perm == ident)[0])
        perm[[0, j]] = perm[[j, 0]]
        relabeled = np.empty_like(t)
        relabeled[np.ix_(perm, perm)] = perm[t]
        # the reference first: the call relabels its argument in place
        want = loop_reindex_identity_first(relabeled.copy())
        with monkeypatch.context() as m:
            m.setattr(groups_module, "BLOCK_BYTES", 1)  # one row per block
            assert np.array_equal(formats._reindex_identity_first(relabeled.copy()), want)
        got = formats._reindex_identity_first(relabeled)
        assert got is relabeled
        assert got.dtype == want.dtype and np.array_equal(got, want)


# every row the identity map, no column; every column, no row; a row
# starting with 0 that is no identity; no row starting with 0
@pytest.mark.parametrize("table", [[[0, 1], [0, 1]], [[0, 0], [1, 1]],
                                   [[1, 0], [0, 0]], [[1, 1, 1]] * 3])
def test_no_two_sided_identity_is_rejected(table):
    t = np.array(table, dtype=np.int64)
    for reindex in (formats._reindex_identity_first, loop_reindex_identity_first):
        with pytest.raises(UnsupportedInputError, match="no two-sided identity"):
            reindex(t)


# tables with a two-sided identity, and the first one
IDENTITY_SEARCH_CASES = {
    "identity at 0": ([[0, 1, 2], [1, 2, 0], [2, 0, 1]], 0),
    "identity last": ([[1, 2, 0], [2, 0, 1], [0, 1, 2]], 2),
    # rows 0 and 2 start with 0; row 0 is no identity, row 2 is
    "several zero rows": ([[0, 0, 0], [1, 1, 1], [0, 1, 2]], 2),
}


@pytest.mark.parametrize("table, ident", IDENTITY_SEARCH_CASES.values(),
                         ids=IDENTITY_SEARCH_CASES.keys())
def test_identity_search_matches_loop(table, ident):
    t = np.array(table, dtype=np.int64)
    want = loop_reindex_identity_first(t.copy())
    got = formats._reindex_identity_first(t)
    assert got.dtype == t.dtype and np.array_equal(got, want)
    assert np.array_equal(got[0], np.arange(len(t)))
    assert np.array_equal(got[:, 0], np.arange(len(t)))
    assert got is t
    assert ident == 0 or not np.array_equal(want, table)


def test_cayley_tables_are_uint16_on_both_reader_paths(monkeypatch):
    t = np.asarray(parse_family("sym(4)").table, dtype=np.int64)
    perm = np.roll(np.arange(24), 5)  # the identity gets the label 19
    relabeled = np.empty_like(t)
    relabeled[np.ix_(perm, perm)] = perm[t]
    text = "cayley 24\n" + "\n".join(" ".join(map(str, row))
                                      for row in relabeled.tolist()) + "\n"
    want = loop_reindex_identity_first(relabeled)
    assert want.dtype == np.int64 and not np.array_equal(want, relabeled)
    read = []
    real = formats._plain_row
    for reader in (lambda ln, n: read.append(real(ln, n)) or read[-1],
                   lambda ln, n: None):
        monkeypatch.setattr(formats, "_plain_row", reader)
        g, _ = parse_group_text(text)
        assert g.table.dtype == np.uint16 and np.array_equal(g.table, want)
    # numpy read every row on the first pass
    assert len(read) == 24 and all(row is not None for row in read)


def _c11_text(old: str, new: str) -> str:
    """The cyclic(11) table with the first entry old of row 0 written as new."""
    head, row0, rest = format_cayley(parse_family("cyclic(11)")).split("\n", 2)
    parts = row0.split()
    parts[parts.index(old)] = new
    return "\n".join([head, " ".join(parts), rest])


C3 = "cayley 3\n{}\n1 2 0\n2 0 1\n"
# text, whether numpy's reader takes every row it is given, the error
# fragment (None: accepted)
CAYLEY_READER_CASES = {
    "plain": (C3.format("0 1 2"), True, None),
    "plus": (C3.format("0 +1 2"), False, None),
    "minus": (C3.format("0 -1 2"), False, "line 2, column 2: entry out of range"),
    "lone plus": (C3.format("+ 0 1 2"), False, "expected 3 entries, found 4"),
    "lone minus": (C3.format("- 0 1 2"), False, "expected 3 entries, found 4"),
    "decimal": (C3.format("0 2.5 2"), False, "line 2, column 2: entry is not an integer"),
    "exponent": (C3.format("0 1e3 2"), False, "line 2, column 2: entry is not an integer"),
    "hex": (C3.format("0 0x1 2"), False, "line 2, column 2: entry is not an integer"),
    "nul": (C3.format("0 1\x00 2"), False, "line 2, column 2: entry is not an integer"),
    "underscore": (_c11_text("10", "1_0"), False, None),
    "arabic-indic digit": (_c11_text("3", "٣"), False, None),
    "25 digits": (C3.format("0 1 " + "9" * 25), False,
                  "line 2, column 3: entry out of range"),
    "short and long row": ("cayley 3\n0 1 2\n1 2\n0 2 0 1\n", False,
                           "line 3, column 1: expected 3 entries, found 2"),
    "blank lines": ("cayley 3\n\n0 1 2\n   \n1 2 0\n\n2 0 1\n\n", True, None),
    "tabs": ("cayley 3\n0\t1\t2\n1\t2 0\n2 0\t1\n", True, None),
    "crlf": ("cayley 3\r\n0 1 2\r\n1 2 0\r\n2 0 1\r\n", True, None),
    "trailing spaces": ("cayley 3\n0 1 2  \n1 2 0 \n 2 0 1   \n", True, None),
    "leading zeros": (C3.format("00 01 002"), True, None),
}


def _parse_outcome(text):
    try:
        g, p = parse_group_text(text)
    except UnsupportedInputError as e:
        return str(e)
    return g.table.tolist(), p


@pytest.mark.parametrize("text, plain, fragment", CAYLEY_READER_CASES.values(),
                         ids=CAYLEY_READER_CASES.keys())
def test_cayley_reader_matches_checked_loop(text, plain, fragment, monkeypatch):
    read = []
    real = formats._plain_row
    monkeypatch.setattr(formats, "_plain_row",
                        lambda ln, n: read.append(real(ln, n)) or read[-1])
    got = _parse_outcome(text)
    assert all(row is not None for row in read) == plain
    if fragment is None:
        assert not isinstance(got, str)
    else:
        assert isinstance(got, str) and fragment in got
    # the per-entry loop alone gives the same table or the same message
    monkeypatch.setattr(formats, "_plain_row", lambda ln, n: None)
    assert _parse_outcome(text) == got


# -- the line reader against the whole-text reader it replaced -----------------

def _reference_read_text(path):
    """Reference: the file decoded whole, as before the line reader."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as ex:
        raise UnsupportedInputError(f"cannot read {path}: {ex}") from ex
    except UnicodeDecodeError as ex:
        raise UnsupportedInputError(
            f"{path} is not UTF-8 text: byte offset {ex.start}: {ex.reason}") from ex


def _is_int(s):
    try:
        int(s)
        return True
    except ValueError:
        return False


def _perm_table(perms: np.ndarray, name: str) -> FiniteGroup:
    """The group of the rows of perms, permutations of 0..k-1 closed under
    (a b)(x) = a(b(x)) and sorted lexicographically, so the identity comes
    first and the base-k codes of the rows increase (they fit in int64 for
    k <= 15). Row i of the table is perms[i][perms], located by its codes."""
    n, k = perms.shape
    weights = k ** np.arange(k - 1, -1, -1)
    codes = perms @ weights
    table = np.empty((n, n), dtype=table_dtype(n))
    for i, a in enumerate(perms):
        table[i] = np.searchsorted(codes, a[perms] @ weights)
    return FiniteGroup(table, name=name)


def _reference_parse_text(text, max_order=DEFAULT_MAX_ORDER):
    """Reference: the whole-text reader that preceded the line reader, with
    its numpy fast path left out (test_cayley_reader_matches_checked_loop
    pins that path to this per-entry loop), and with the tuple closure and
    per-row code lookup that preceded families.permutation_group.
    Returns (group, p hint)."""
    fail = formats._fail
    lines = text.splitlines()
    if not lines:
        fail(1, 1, "empty input")
    head = lines[0].split()
    if not head:
        fail(1, 1, "missing header")
    kind = head[0].lower()
    if kind == "perm":
        if len(head) != 2:
            fail(1, 1, "perm header is 'perm k'")
        try:
            k = int(head[1])
        except ValueError:
            fail(1, len("perm "), "point count is not an integer")
        if k < 1 or k > 12:
            fail(1, 1, "point count out of range 1..12")
        gens = [formats._parse_cycles(ln, k, i + 2)
                for i, ln in enumerate(lines[1:]) if ln.strip()]
        elems, frontier = {tuple(range(k))}, [tuple(range(k))]
        while frontier:
            new = []
            for a in frontier:
                for g in gens:
                    b = tuple(a[g[x]] for x in range(k))
                    if b not in elems:
                        if len(elems) >= max_order:
                            raise UnsupportedInputError(
                                f"generated group exceeds the cap {max_order}")
                        elems.add(b)
                        new.append(b)
            frontier = new
        return _perm_table(np.array(sorted(elems)), name="input"), None
    if kind != "cayley":
        fail(1, 1, f"unknown format {head[0]!r} (expected 'cayley' or 'perm')")
    if len(head) not in (2, 3):
        fail(1, 1, "cayley header is 'cayley n' or 'cayley n p'")
    try:
        n = int(head[1])
    except ValueError:
        fail(1, len("cayley "), "order is not an integer")
    p_hint = None
    if len(head) == 3:
        try:
            p_hint = int(head[2])
        except ValueError:
            fail(1, 1, "prime hint is not an integer")
        if p_hint >= 1 << 16:
            fail(1, 1, f"{p_hint} is not a prime below 2**16")
        if p_hint < 2 or any(p_hint % d == 0 for d in range(2, int(p_hint ** 0.5) + 1)):
            fail(1, 1, f"{p_hint} is not prime")
    if n < 1:
        fail(1, 1, "order must be positive")
    if n > max_order:
        fail(1, 1, f"order {n} exceeds the cap {max_order}")
    body = [(i + 2, ln) for i, ln in enumerate(lines[1:]) if ln.strip()]
    if len(body) != n:
        fail(len(lines), 1, f"expected {n} table rows, found {len(body)}")
    table = np.empty((n, n), dtype=np.int64)
    for i, (line_no, ln) in enumerate(body):
        parts = ln.split()
        if len(parts) != n:
            fail(line_no, 1, f"expected {n} entries, found {len(parts)}")
        try:
            row = [int(x) for x in parts]
        except ValueError:
            bad = next(i for i, x in enumerate(parts) if not _is_int(x))
            fail(line_no, bad + 1, "entry is not an integer")
        if any(x < 0 or x >= n for x in row):
            bad = next(i for i, x in enumerate(row) if x < 0 or x >= n)
            fail(line_no, bad + 1, "entry out of range")
        table[i] = row
    return FiniteGroup(loop_reindex_identity_first(table)), p_hint


def _outcome(read, *args):
    """(table, its dtype, p hint) of a successful read, else the message."""
    try:
        g, p = read(*args)
    except UnsupportedInputError as e:
        return str(e)
    return g.table.tolist(), g.table.dtype, p


LINE_SEPARATORS = [b"\n", b"\r", b"\r\n", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e",
                   "\x85".encode(), "\u2028".encode()]
READER_TOKENS = ([b"cayley", b"perm", b"0", b"1", b"2", b"3", b"5", b"12", b"+", b"-",
                  b" ", b"\t", b"(", b")"] + LINE_SEPARATORS)
NOT_UTF8_TOKENS = [b"\xff", b"\xe2"]
READER_HEADERS = [b"", b"cayley 3\n", b"cayley 2 3\n", b"perm 3\n"]
READER_BASES = [
    b"cayley 3\n1 2 0\n2 0 1\n0 1 2\n",
    b"cayley 2 3\n0 1\n1 0\n",
    format_cayley(parse_family("sym(3)")).encode(),
    b"perm 3\n(1 2 3)\n(1 2)\n",
    b"perm 4\n(1 2)(3 4)\n\n",
]


@st.composite
def reader_bytes(draw):
    """A valid table or generator file with a few edits, or a header and a
    token soup; one in four may hold bytes that are not UTF-8."""
    tokens = READER_TOKENS + (NOT_UTF8_TOKENS if draw(st.integers(0, 3)) == 0 else [])
    if draw(st.booleans()):
        return draw(st.sampled_from(READER_HEADERS)) + b"".join(
            draw(st.lists(st.sampled_from(tokens), max_size=40)))
    data = bytearray(draw(st.sampled_from(READER_BASES)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 2))
        data[i:i + cut] = b"".join(draw(st.lists(st.sampled_from(tokens), max_size=2)))
    return bytes(data)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(data=reader_bytes())
def test_line_reader_matches_whole_text_reader(data, tmp_path_factory):
    path = str(tmp_path_factory.getbasetemp() / "fuzz.cay")
    with open(path, "wb") as fh:
        fh.write(data)
    want = _outcome(lambda: _reference_parse_text(_reference_read_text(path)))
    assert _outcome(load_group_file, path) == want
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return
    assert _outcome(parse_group_text, text) == _outcome(_reference_parse_text, text)


def test_line_reader_splits_lines_as_splitlines(tmp_path):
    path = tmp_path / "lines.txt"
    data = b"a\rb\r\nc\x0bd\x0ce\x1cf\x1dg\x1eh" + "\x85i\u2028j \n\nk\r".encode()
    path.write_bytes(data)
    assert list(formats._file_lines(str(path))) == data.decode().splitlines()


def _relabeled_file(path, spec, seed):
    t = np.asarray(parse_family(spec).table, dtype=np.int64)
    n = t.shape[0]
    perm = np.random.default_rng(seed).permutation(n)
    relabeled = np.empty_like(t)
    relabeled[np.ix_(perm, perm)] = perm[t]
    assert relabeled[0, 0] != 0  # the identity is not at 0
    path.write_text(f"cayley {n}\n" + "\n".join(
        " ".join(map(str, row)) for row in relabeled.tolist()) + "\n")
    return loop_reindex_identity_first(relabeled)


def test_file_load_peaks_near_one_table(tmp_path):
    path = tmp_path / "agl32.cay"
    want = _relabeled_file(path, "agl(1,32)", 3)  # n = 992
    tracemalloc.start()
    try:
        g, _ = load_group_file(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(g.table, want)
    # the relabeling's blocks, with np.take's intp copy, stay within BLOCK_BYTES
    assert peak < 1.5 * g.table.nbytes


def test_file_over_the_cap_is_rejected_before_any_row(tmp_path, monkeypatch):
    path = tmp_path / "agl32.cay"
    _relabeled_file(path, "agl(1,32)", 3)
    monkeypatch.setattr(formats, "_read_row", None)  # a stored row would fail
    with pytest.raises(UnsupportedInputError,
                       match="line 1, column 1: order 992 exceeds the cap 991"):
        load_group_file(str(path), max_order=991)


def test_writer_is_byte_identical_to_the_whole_string_form(tmp_path):
    g = parse_family("agl(1,9)")
    want = "\n".join([f"cayley {g.order}"] + [" ".join(str(int(x)) for x in row)
                                              for row in g.table]) + "\n"
    assert format_cayley(g) == want
    write_cayley(g, str(tmp_path / "g.cay"))
    assert (tmp_path / "g.cay").read_bytes() == want.encode()


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _fresh_python(code: str, **env) -> str:
    """stdout of code run in a new interpreter that finds soclelab in src,
    with OPENBLAS_NUM_THREADS unset unless given in env."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = _SRC + os.pathsep + os.environ.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**base, **env}, timeout=60, check=True)
    return done.stdout


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_import_starts_openblas_without_workers():
    out = _fresh_python("import os, soclelab.cli\n"
                        "print(len(os.listdir('/proc/self/task')),"
                        " 'OPENBLAS_NUM_THREADS' in os.environ)")
    assert out.split() == ["1", "False"]


def test_caller_openblas_setting_is_kept():
    out = _fresh_python("import os, soclelab.cli\n"
                        "print(os.environ['OPENBLAS_NUM_THREADS'])",
                        OPENBLAS_NUM_THREADS="3")
    assert out.split() == ["3"]


def test_numpy_imported_before_soclelab():
    out = _fresh_python("import os, numpy, soclelab.cli\n"
                        "print(soclelab.cli.run(['analyze', 'cyclic(2)']),"
                        " 'OPENBLAS_NUM_THREADS' in os.environ)")
    assert out.split()[-2:] == ["0", "False"]


def test_cli_run_never_imports_numpy_ma(tmp_path):
    """np.unique without return_counts or return_index, intersect1d and
    setdiff1d import numpy.ma on first use, about 15 ms per process; and
    numpy.random, about 8 ms, is not needed either. The scan reaches both
    isomorphism searches: the affine-model comparison and the SL2(3) check."""
    path = tmp_path / "agl9.cay"
    _relabeled_file(path, "agl(1,9)", 1)
    code = ("import sys\n"
            "from soclelab.cli import run\n"
            "code = run(sys.argv[1:])\n"
            "sys.stderr.write(f'exit {code} numpy.ma {\"numpy.ma\" in sys.modules}'\n"
            "                 f' numpy.random {\"numpy.random\" in sys.modules}')\n")
    env = dict(os.environ, PYTHONPATH=_SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-c", code, "scan", "SL2(3)", "heisenberg_affine(3)",
         "twisted_affine(2,3,1)", "central(SL2(3),SL2(3))", "sym(4)", str(path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.stderr.endswith("exit 0 numpy.ma False numpy.random False"), done.stderr[-2000:]
    assert len(json.loads(done.stdout)["rows"]) == 12
