"""File formats and the command-line surface."""

import json
import os

import numpy as np
import pytest

from soclelab import cli, formats
from soclelab.errors import UnsupportedInputError
from soclelab.families import parse_family
from soclelab.formats import (build_group, format_cayley, load_group_file,
                              parse_group_text, write_cayley)
from soclelab.groups import groups_isomorphic


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


def test_theorems_none_skips_stages(capsys):
    code, out = run_cli(capsys, "analyze", "sl2(3)", "--theorems", "none")
    r = json.loads(out)
    assert code == 0
    assert r["theorems"] == {}
    assert r["dims"]["socle"] == 3


def test_analyze_unsupported_exit_code(capsys):
    assert cli.run(["analyze", "nosuch(2)"]) == 3
    assert cli.run(["analyze", "cyclic(4)", "--p", "6"]) == 3
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


def test_scan_per_group_primes(capsys):
    code, out = run_cli(capsys, "scan", "sl2(3)")
    r = json.loads(out)
    assert [row["p"] for row in r["rows"]] == [2, 3]


def test_scan_row_error_continues(capsys, tmp_path):
    bad = tmp_path / "bad.cay"
    bad.write_text("cayley 2\n0 1\n")
    code, out = run_cli(capsys, "scan", str(bad), "cyclic(4)", "--p", "2")
    assert code == 0
    r = json.loads(out)
    assert r["rows"][0]["status"] == "error"
    assert "line" in r["rows"][0]["error"]
    assert r["rows"][1]["ideal"]["direct"] is True
    assert r["summary"]["inapplicable"] == 1

    # rows follow the sources, an error row in its source's place
    code, out = run_cli(capsys, "scan", "sym(3)", str(bad), "q8")
    assert code == 0
    r = json.loads(out)
    assert [(row["source"], row["p"], row["status"]) for row in r["rows"]] == [
        ("sym(3)", 2, "ok"), ("sym(3)", 3, "ok"), (str(bad), None, "error"),
        ("q8", 2, "ok")]


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


def test_scan_table_output(capsys):
    code, out = run_cli(capsys, "scan", "q8", "--p", "2", "--format", "table")
    assert code == 0
    assert "consistency_failures=0" in out


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
def test_identity_relabeling_matches_loop(spec):
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
        got = formats._reindex_identity_first(relabeled)
        want = loop_reindex_identity_first(relabeled)
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
    got = formats._reindex_identity_first(t)
    assert got.dtype == t.dtype and np.array_equal(got, loop_reindex_identity_first(t))
    assert np.array_equal(got[0], np.arange(len(t)))
    assert np.array_equal(got[:, 0], np.arange(len(t)))
    assert (got is t) == (ident == 0)


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
    real = formats._plain_table
    for reader in (lambda body, n: read.append(real(body, n)) or read[-1],
                   lambda body, n: None):
        monkeypatch.setattr(formats, "_plain_table", reader)
        g, _ = parse_group_text(text)
        assert g.table.dtype == np.uint16 and np.array_equal(g.table, want)
    assert read[0] is not None and read[0].dtype == np.uint16


def _c11_text(old: str, new: str) -> str:
    """The cyclic(11) table with the first entry old of row 0 written as new."""
    head, row0, rest = format_cayley(parse_family("cyclic(11)")).split("\n", 2)
    parts = row0.split()
    parts[parts.index(old)] = new
    return "\n".join([head, " ".join(parts), rest])


C3 = "cayley 3\n{}\n1 2 0\n2 0 1\n"
# text, whether numpy's reader takes it, the error fragment (None: accepted)
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
    real = formats._plain_table
    monkeypatch.setattr(formats, "_plain_table",
                        lambda body, n: read.append(real(body, n)) or read[-1])
    got = _parse_outcome(text)
    assert (read[0] is not None) == plain
    if fragment is None:
        assert not isinstance(got, str)
    else:
        assert isinstance(got, str) and fragment in got
    # the per-line loop alone gives the same table or the same message
    monkeypatch.setattr(formats, "_plain_table", lambda body, n: None)
    assert _parse_outcome(text) == got
