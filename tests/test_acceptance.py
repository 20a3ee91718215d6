"""End-to-end acceptance: worked examples, the full catalog sweep, scans.

The sweep fixture analyzes every built-in catalog group at every prime
dividing its order once; the criteria below assert over those reports.
"""

import hashlib
import json
import time
import tracemalloc
from pathlib import Path

import pytest

from soclelab import cli, structure
from soclelab.algebra import CenterAlgebra
from soclelab.analysis import analyze_group
from soclelab.catalog import CATALOG_SPECS, catalog_groups
from soclelab.errors import ConsistencyError
from soclelab.families import parse_family
from soclelab.formats import write_cayley
from soclelab.groups import FiniteGroup, prime_factors


# alt(7) has 9 classes, so a copy of its table would dominate the peak; the
# 2-group's 77 classes take about one table of temporaries, and the former
# copy of its 512 table rows came on top of them (1.8 tables)
@pytest.mark.parametrize("spec, tables", [("alt(7)", 0.5),
                                          ("direct(dihedral(16),quaternion(16))", 1.5)])
def test_analysis_copies_no_table_rows(spec, tables):
    """The derived subgroup of alt(7) and the Sylow 2-subgroup of the other,
    an order-512 2-group, are the whole group; their coset minima are taken
    over blocks of rows, not over a copy of |H| = n table rows."""
    g = parse_family(spec, max_order=3000)
    assert g.table.nbytes > 1 << 18  # more than one block of rows
    tracemalloc.start()
    try:
        report = analyze_group(g, 2, theorems="none")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["consistency_failures"] == []
    assert peak < tables * g.table.nbytes


@pytest.fixture(scope="session")
def sweep():
    reports = {}
    for spec, group in catalog_groups():
        for p in prime_factors(group.order) or [2]:
            reports[(spec, p)] = analyze_group(group, p, descriptor=spec)
    return reports


# sha256 of cli._canonical_json(report without "timing") for every sweep
# row, keyed "spec|p": any change to a catalog report names its row
REPORT_DIGESTS = json.loads(
    (Path(__file__).parent / "catalog_report_digests.json").read_text())


def test_report_digests_cover_the_sweep(sweep):
    assert {f"{spec}|{p}" for spec, p in sweep} == set(REPORT_DIGESTS)


@pytest.mark.parametrize("row", list(REPORT_DIGESTS))
def test_catalog_report_matches_digest(row, sweep):
    spec, p = row.rsplit("|", 1)
    report = {k: v for k, v in sweep[(spec, int(p))].items() if k != "timing"}
    text = cli._canonical_json(report)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[row]
    # a check that needs a failed decomposition carries the decomposition's reason
    th = report["theorems"]
    assert "no quotient decomposition available" not in text
    if th.get("quotient_decomposition", {}).get("status") == "inapplicable":
        for name in ("ideal_characterization", "central_split", "annihilator_reduction"):
            assert th[name] == th["quotient_decomposition"], name


def test_catalog_breadth():
    assert len(CATALOG_SPECS) >= 30
    lowered = " ".join(CATALOG_SPECS).lower()
    for needle in ["abelian", "dihedral", "q8", "extraspecial(8",
                   "extraspecial(27", "agl(1,", "sl2(3)", "direct(",
                   "central(", "cyclic(3)"]:
        assert needle in lowered
    for _, group in catalog_groups():
        assert group.order <= 288


def test_worked_example_order24():
    t0 = time.perf_counter()
    r = analyze_group(parse_family("sl2(3)"), 2)
    elapsed = time.perf_counter() - t0
    assert r["ideal"] == {"direct": True, "criterion": True}
    assert r["dims"] == {"center": 7, "radical": 6, "socle": 3}
    assert [d for _, d in r["socle_blocks"]] == [1, 1, 1]
    ch = r["theorems"]["ideal_characterization"]
    assert ch["status"] == "passed"
    assert ch["affine_match"] is True
    assert ch["has_fixer"] is True
    assert ch["derived_camina"] is True
    assert ch["predicted"] is True and ch["direct"] is True
    assert r["consistency_failures"] == []
    assert elapsed < 1.0


def test_analysis_builds_one_algebra_and_one_direct_test(monkeypatch):
    builds, direct_runs = {}, {}
    init, direct = CenterAlgebra.__init__, CenterAlgebra.socle_is_ideal_direct

    def counting_init(self, group, p):
        builds[id(group)] = builds.get(id(group), 0) + 1
        init(self, group, p)

    def counting_direct(self):
        direct_runs[id(self.group)] = direct_runs.get(id(self.group), 0) + 1
        return direct(self)

    monkeypatch.setattr(CenterAlgebra, "__init__", counting_init)
    monkeypatch.setattr(CenterAlgebra, "socle_is_ideal_direct", counting_direct)
    g = parse_family("central(SL2(3),SL2(3))")
    r = analyze_group(g, 2)
    assert r["theorems"]["reduction"]["status"] == "passed"
    assert r["theorems"]["central_split"]["status"] == "passed"
    assert builds[id(g)] == 1
    assert direct_runs[id(g)] == 1


@pytest.mark.parametrize("spec, normal", [("sl2(3)", True), ("sym(4)", False)])
def test_analysis_tests_sylow_normality_once(spec, normal, monkeypatch):
    g = parse_family(spec)
    sylow = g.sylow_subgroup(2)
    calls = []
    is_normal = FiniteGroup.is_normal

    def counting(self, elems):
        if elems is sylow:
            calls.append(elems)
        return is_normal(self, elems)

    monkeypatch.setattr(FiniteGroup, "is_normal", counting)
    r = analyze_group(g, 2)
    assert r["shape"]["sylow_normal"] is normal
    assert r["theorems"]["reduction"]["status"] == ("passed" if normal else "inapplicable")
    assert len(calls) == 1


def test_analysis_builds_the_second_derived_quotient_algebra_once(monkeypatch):
    builds = {}
    init = CenterAlgebra.__init__

    def counting_init(self, group, p):
        builds[id(group)] = builds.get(id(group), 0) + 1
        init(self, group, p)

    monkeypatch.setattr(CenterAlgebra, "__init__", counting_init)
    g = parse_family("sl2(3)")
    r = analyze_group(g, 2)
    # both the surviving-class filter and the annihilator reduction use G/G''
    assert r["theorems"]["ideal_characterization"]["status"] == "passed"
    assert r["theorems"]["annihilator_reduction"]["status"] == "passed"
    assert builds[id(g.second_derived_quotient().group)] == 1


def test_analysis_decomposes_the_quotient_once_per_report(monkeypatch):
    calls = []
    real = structure.decompose_second_derived_quotient

    def counting(ctx):
        calls.append(ctx.group.name)
        return real(ctx)

    monkeypatch.setattr(structure, "decompose_second_derived_quotient", counting)
    th = analyze_group(parse_family("sl2(3)"), 2)["theorems"]
    assert th["quotient_decomposition"]["status"] == "passed"
    assert len(calls) == 1
    # a failed decomposition is not retried: every later check reports its reason
    th = analyze_group(parse_family("sym(4)"), 2)["theorems"]
    assert len(calls) == 2
    reason = "group does not have the reduced shape"
    for name in ("quotient_decomposition", "ideal_characterization", "central_split",
                 "annihilator_reduction"):
        assert th[name] == {"status": "inapplicable", "reason": reason}


def test_decomposition_consistency_failure_fails_every_check_that_needs_it(monkeypatch):
    def failing(ctx):
        raise ConsistencyError("factor product collides")

    monkeypatch.setattr(structure, "decompose_second_derived_quotient", failing)
    r = analyze_group(parse_family("sl2(3)"), 2)
    th = r["theorems"]
    for name in ("quotient_decomposition", "ideal_characterization", "central_split",
                 "annihilator_reduction"):
        assert th[name] == {"status": "failed", "reason": "factor product collides"}
    assert th["reduction"]["status"] == "passed"
    assert r["consistency_failures"] == ["factor product collides"]  # listed once


def test_affine_frobenius_family():
    t0 = time.perf_counter()
    for q, p in [(3, 3), (4, 2), (5, 5), (7, 7), (8, 2), (9, 3)]:
        r = analyze_group(parse_family(f"agl(1,{q})"), p)
        assert r["ideal"] == {"direct": True, "criterion": True}
        assert r["dims"]["socle"] == q - 1
        assert r["shape"]["frobenius_with_derived_kernel"] is True
        assert r["consistency_failures"] == []
    assert time.perf_counter() - t0 < 5.0


def test_verdicts_agree_on_whole_catalog(sweep):
    assert len({spec for spec, _ in sweep}) >= 30
    for (spec, p), r in sweep.items():
        assert r["ideal"]["direct"] is not None, (spec, p)
        assert r["ideal"]["direct"] == r["ideal"]["criterion"], (spec, p)


def test_predicted_radical_basis_on_standing_groups(sweep):
    reduced = [(k, r) for k, r in sweep.items() if r["shape"]["reduced"]]
    assert len(reduced) >= 8
    for key, r in reduced:
        assert r["radical_basis_match"] is True, key


@pytest.mark.parametrize("base", ["SL2(3)", "AGL(1,4)"])
@pytest.mark.parametrize("m", [3, 5, 7])
def test_verdict_invariant_under_coprime_cyclic_factor(base, m, sweep):
    v_base = sweep[(base, 2)]["ideal"]["direct"]
    v_prod = sweep[(f"direct({base},cyclic({m}))", 2)]["ideal"]["direct"]
    assert v_prod == v_base


def test_central_product_verdict_is_conjunction(sweep):
    def verdict(spec):
        return sweep[(spec, 2)]["ideal"]["direct"]

    cases = [("central(SL2(3),SL2(3))", "SL2(3)", "SL2(3)"),
             ("central(Q8,Q8)", "Q8", "Q8"),
             ("central(SL2(3),Q8)", "SL2(3)", "Q8")]
    for prod, a, b in cases:
        assert verdict(prod) == (verdict(a) and verdict(b)), prod


def test_decomposition_verified_on_every_ideal_standing_group(sweep):
    seen = 0
    for key, r in sweep.items():
        if not (r["shape"]["reduced"] and r["ideal"]["direct"]):
            continue
        seen += 1
        entry = r["theorems"]["quotient_decomposition"]
        assert entry["status"] == "passed", (key, entry)
        assert all(entry["checks"].values()), (key, entry["checks"])
        # factor sizes stay far under the exhaustive-check cap
        assert all(f <= 256 for f in entry["factor_sizes"])
        assert "support_pattern_matches_conjugacy" in entry["checks"]
    assert seen >= 8


def test_central_split_of_doubled_group(sweep):
    r = sweep[("central(SL2(3),SL2(3))", 2)]
    entry = r["theorems"]["central_split"]
    assert entry["status"] == "passed"
    assert entry["component_orders"] == [24, 24]
    assert r["consistency_failures"] == []


def test_characterization_iff_and_odd_prime_redundancy(sweep):
    applicable = 0
    odd_applicable = 0
    for key, r in sweep.items():
        entry = r["theorems"].get("ideal_characterization")
        if not entry or entry["status"] != "passed":
            continue
        applicable += 1
        assert entry["predicted"] == entry["direct"], key
        if key[1] != 2 and entry["affine_match"]:
            odd_applicable += 1
            # at odd p the centralizer condition follows from the other two
            assert entry["has_fixer"] is True, key
    # the hypotheses (reduced shape, center of G' equal to G'', minimal
    # derived image) are genuinely restrictive: two catalog entries qualify
    assert applicable >= 2
    assert odd_applicable >= 1


def test_annihilator_reduction_on_ideal_groups(sweep):
    seen = 0
    for key, r in sweep.items():
        entry = r["theorems"].get("annihilator_reduction")
        if not entry or entry["status"] != "passed":
            continue
        seen += 1
        assert entry["annihilator_in_derived_coset_span"], key
        assert entry["generator_sets_match"], key
    assert seen >= 8


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    return code, capsys.readouterr().out


def test_default_scan_has_zero_consistency_failures(capsys):
    code, out = run_cli(capsys, "scan")
    r = json.loads(out)
    assert r["summary"]["consistency_failures"] == 0
    assert code == 0
    assert r["summary"]["rows"] >= 60
    assert all(row["status"] == "ok" for row in r["rows"])


def test_witness_scan_records_both_outcomes(capsys):
    # the default catalog holds no group meeting the witness hypotheses:
    # that outcome is recorded as a zero count
    code, out = run_cli(capsys, "scan")
    assert json.loads(out)["summary"]["witnesses"] == 0

    # the synthetic family does meet them; the witness must verify fully
    code, out = run_cli(capsys, "scan", "twisted_affine(2,3,1)",
                        "twisted_affine(2,4,1)", "--p", "2",
                        "--max-order", "4000")
    assert code == 0
    r = json.loads(out)
    assert r["summary"]["witnesses"] == 1
    by_src = {row["source"]: row for row in r["rows"]}
    assert by_src["twisted_affine(2,3,1)"]["witness"] is None
    w = by_src["twisted_affine(2,4,1)"]["witness"]
    assert w is not None
    assert all(w["checks"].values())
    assert w["commutator_core_order"] < w["second_derived_order"]


def test_user_supplied_table_directory(capsys, tmp_path):
    # stand-ins at the externally interesting orders 112, 216 and 224
    d = tmp_path / "ext"
    d.mkdir()
    write_cayley(parse_family("dicyclic(28)"), str(d / "order112.cay"))
    write_cayley(parse_family("heisenberg_affine(3)"), str(d / "order216.cay"))
    write_cayley(parse_family("dicyclic(56)"), str(d / "order224.cay"))
    code, out = run_cli(capsys, "scan", str(d), "--p", "2")
    assert code == 0
    r = json.loads(out)
    assert [row["order"] for row in r["rows"]] == [112, 216, 224]
    for row in r["rows"]:
        assert row["status"] == "ok"
        assert row["ideal"]["direct"] in (True, False)
    assert r["summary"]["consistency_failures"] == 0


def test_scan_row_verdicts_match_library(sweep, capsys):
    code, out = run_cli(capsys, "scan", "SL2(3)", "AGL(1,9)")
    r = json.loads(out)
    for row in r["rows"]:
        key = (row["source"], row["p"])
        assert row["ideal"] == sweep[key]["ideal"]
        assert row["socle_dim"] == sweep[key]["dims"]["socle"]
