"""Structural checks: decomposition, characterization, splitting, reduction."""

import numpy as np
import pytest

from soclelab import structure
from soclelab.algebra import CenterAlgebra
from soclelab.analysis import analyze_group
from soclelab.errors import ConsistencyError, InapplicableError
from soclelab.families import parse_family
from soclelab.groups import FiniteGroup, direct_product, prime_factors
from soclelab.structure import (_matches_affine_model, build_nonideal_witness,
                                characterize_socle_ideal,
                                check_annihilator_reduction,
                                check_quotient_decomposition,
                                decompose_second_derived_quotient,
                                examine_sylow_split, reduce_to_core,
                                split_into_central_factors)


def setup_triplet(spec, p, max_order=2000):
    g = parse_family(spec, max_order=max_order)
    alg = CenterAlgebra(g, p)
    split = examine_sylow_split(g, p)
    return g, alg, split


class TestSylowSplit:
    def test_sl23_reduced(self):
        _, _, split = setup_triplet("sl2(3)", 2)
        assert split.reduced
        assert split.z_match
        assert split.sylow.size == 8
        assert split.complement.size == 3

    def test_agl8_reduced_but_no_z_match(self):
        _, _, split = setup_triplet("agl(1,8)", 2)
        assert split.reduced
        # abelian kernel: Z(G') is all of G', second derived is trivial
        assert not split.z_match

    def test_sym4_not_reduced(self):
        _, _, split = setup_triplet("sym(4)", 2)
        assert not split.reduced

    def test_nonabelian_complement_flagged(self):
        g, _, _ = direct_product(parse_family("sl2(3)"), parse_family("cyclic(5)"))
        split = examine_sylow_split(g, 5)
        assert not split.flags["complement_abelian"]
        assert not split.reduced


class TestQuotientDecomposition:
    def test_sl23(self):
        _, alg, split = setup_triplet("sl2(3)", 2)
        dec = decompose_second_derived_quotient(split, alg)
        assert dec.n == 1
        assert [f.size for f in dec.factors] == [4]
        assert dec.central_image.size == 1
        assert dec.multipliers[0] is not None
        assert dec.fixers[0] is not None
        checks = check_quotient_decomposition(split, dec)
        assert all(checks.values())

    def test_agl_has_no_nonabelian_part(self):
        _, alg, split = setup_triplet("agl(1,8)", 2)
        dec = decompose_second_derived_quotient(split, alg)
        assert dec.n == 0
        assert dec.central_image.size == 8
        assert all(check_quotient_decomposition(split, dec).values())

    def test_central_product_has_two_factors(self):
        _, alg, split = setup_triplet("central(sl2(3),sl2(3))", 2)
        dec = decompose_second_derived_quotient(split, alg)
        assert dec.n == 2
        assert [f.size for f in dec.factors] == [4, 4]
        assert all(m is not None for m in dec.multipliers)
        assert all(check_quotient_decomposition(split, dec).values())

    def test_heisenberg_affine(self):
        _, alg, split = setup_triplet("heisenberg_affine(3)", 3)
        dec = decompose_second_derived_quotient(split, alg)
        assert dec.n == 1
        assert dec.factors[0].size == 9
        assert all(check_quotient_decomposition(split, dec).values())

    def test_support_pattern_check_runs_and_names_itself(self):
        _, alg, split = setup_triplet("central(sl2(3),sl2(3))", 2)
        dec = decompose_second_derived_quotient(split, alg)
        nonzero = next(e for e, parts in dec.factor_components.items()
                       if any(parts))
        dec.factor_components[0] = dec.factor_components[nonzero]
        with pytest.raises(ConsistencyError,
                           match="support_pattern_matches_conjugacy"):
            check_quotient_decomposition(split, dec)

    def test_non_ideal_group_is_benignly_out_of_scope(self):
        _, alg, split = setup_triplet("q8q8_diag_c3", 2)
        with pytest.raises(InapplicableError, match="not an ideal"):
            decompose_second_derived_quotient(split, alg)

    def test_non_reduced_rejected(self):
        _, alg, split = setup_triplet("sym(4)", 2)
        with pytest.raises(InapplicableError):
            decompose_second_derived_quotient(split, alg)


class TestCharacterization:
    def test_sl23_all_three_conditions(self):
        _, alg, split = setup_triplet("sl2(3)", 2)
        ch = characterize_socle_ideal(split, alg)
        assert ch.affine_match and ch.has_fixer and ch.derived_camina
        assert ch.predicted is True and ch.direct is True
        assert ch.witness is None
        assert any("order 24" in note for note in ch.notes)

    def test_heisenberg_affine_all_three(self):
        _, alg, split = setup_triplet("heisenberg_affine(3)", 3)
        ch = characterize_socle_ideal(split, alg)
        assert ch.affine_match and ch.has_fixer and ch.derived_camina
        assert ch.predicted is True and ch.direct is True
        # odd p: the fixer condition is forced once the quotient is affine
        assert ch.has_fixer

    def test_abelian_kernel_out_of_scope(self):
        _, alg, split = setup_triplet("agl(1,8)", 2)
        with pytest.raises(InapplicableError):
            characterize_socle_ideal(split, alg)

    def test_missing_fixer_predicts_non_ideal(self):
        _, alg, split = setup_triplet("twisted_affine(2,3,1)", 2, max_order=500)
        ch = characterize_socle_ideal(split, alg)
        assert ch.affine_match
        assert not ch.has_fixer
        assert ch.predicted is False and ch.direct is False
        assert ch.witness is None  # witness construction needs a fixer

    def test_non_camina_kernel_gets_witness(self):
        _, alg, split = setup_triplet("twisted_affine(2,4,1)", 2, max_order=4000)
        ch = characterize_socle_ideal(split, alg)
        assert ch.affine_match and ch.has_fixer
        assert not ch.derived_camina
        assert ch.predicted is False and ch.direct is False
        assert ch.witness is not None
        assert all(ch.witness["checks"].values())


class TestWitness:
    def test_witness_vector_is_sound(self):
        g, alg, split = setup_triplet("twisted_affine(2,4,1)", 2, max_order=4000)
        dec = decompose_second_derived_quotient(split, alg)
        w = build_nonideal_witness(split, dec, alg)
        y = np.array(w["vector"])
        assert y.shape == (g.order,)
        yc = alg.restrict(y)
        for b in alg.jacobson_radical().basis:
            assert not alg.multiply(yc, b).any()
        assert alg.socle().contains_vector(yc)
        assert not alg.lies_in_derived_coset_span(yc)
        # proper containment: the commutator core misses part of G''
        assert w["commutator_core_order"] < w["second_derived_order"]

    def test_derived_subgroup_built_once_per_analysis(self, monkeypatch):
        """The characterization and the witness share one copy of G'."""
        g = parse_family("twisted_affine(2,4,1)", max_order=4000)
        der = set(map(int, g.derived_subgroup()))
        copies = []
        real = FiniteGroup.subgroup_as_group

        def counting(self, elems, name=None):
            if self is g and set(map(int, elems)) == der:
                copies.append(1)
            return real(self, elems, name)

        monkeypatch.setattr(FiniteGroup, "subgroup_as_group", counting)
        report = analyze_group(g, 2)
        assert report["theorems"]["ideal_characterization"]["witness"] is not None
        assert len(copies) == 1

    def test_witness_refuses_ideal_group(self):
        _, alg, split = setup_triplet("sl2(3)", 2)
        dec = decompose_second_derived_quotient(split, alg)
        with pytest.raises(InapplicableError):
            build_nonideal_witness(split, dec, alg)


class TestCentralSplit:
    def test_double_sl23(self):
        _, alg, split = setup_triplet("central(sl2(3),sl2(3))", 2)
        dec = decompose_second_derived_quotient(split, alg)
        cs = split_into_central_factors(split, dec, alg)
        assert cs.component_orders == [24, 24]
        assert all(cs.checks.values())

    def test_single_component_group(self):
        _, alg, split = setup_triplet("sl2(3)", 2)
        dec = decompose_second_derived_quotient(split, alg)
        cs = split_into_central_factors(split, dec, alg)
        assert cs.component_orders == [24]
        assert all(cs.checks.values())

    def test_component_invariants(self):
        g, alg, split = setup_triplet("central(sl2(3),sl2(3))", 2)
        dec = decompose_second_derived_quotient(split, alg)
        cs = split_into_central_factors(split, dec, alg)
        for elems in cs.component_elems:
            comp, emap = g.subgroup_as_group(np.array(elems))
            calg = CenterAlgebra(comp, 2)
            assert calg.socle_ideal_verdict() == (True, True)
            der = comp.derived_subgroup()
            assert der.size == comp.sylow_subgroup(2).size
            assert np.array_equal(comp.sub_center(der), comp.second_derived())

    def test_non_ideal_rejected(self):
        _, alg, split = setup_triplet("q8q8_diag_c3", 2)
        with pytest.raises(InapplicableError):
            dec = decompose_second_derived_quotient(split, alg)
            split_into_central_factors(split, dec, alg)


class TestAnnihilatorReduction:
    @pytest.mark.parametrize("spec, p", [("sl2(3)", 2), ("agl(1,8)", 2),
                                         ("agl(1,9)", 3),
                                         ("heisenberg_affine(3)", 3),
                                         ("central(sl2(3),sl2(3))", 2)])
    def test_passes_on_ideal_groups(self, spec, p):
        _, alg, split = setup_triplet(spec, p)
        dec = decompose_second_derived_quotient(split, alg)
        out = check_annihilator_reduction(split, dec, alg)
        assert out["annihilator_in_derived_coset_span"]
        assert out["generator_sets_match"]
        assert out["annihilator_dim"] >= 1


class TestReduceToCore:
    def test_identity_on_already_reduced(self):
        g = parse_family("sl2(3)")
        core, steps = reduce_to_core(CenterAlgebra(g, 2))
        assert core.order == 24
        applied = [s for s in steps if s.get("applied", True)
                   and s["step"] != "no_op"]
        assert applied == []

    def test_strips_coprime_direct_factor(self):
        g, _, _ = direct_product(parse_family("sl2(3)"), parse_family("cyclic(3)"))
        core, steps = reduce_to_core(CenterAlgebra(g, 2))
        assert core.order == 24
        assert any(s["step"] == "quotient_by_coprime_core" for s in steps)

    def test_splits_central_p_factor(self):
        g, _, _ = direct_product(parse_family("sl2(3)"), parse_family("cyclic(2)"))
        core, steps = reduce_to_core(CenterAlgebra(g, 2))
        assert core.order == 24
        assert any(s["step"] == "central_split" for s in steps)

    def test_abelian_group_reduces_to_sylow(self):
        g = parse_family("cyclic(12)")
        core, _ = reduce_to_core(CenterAlgebra(g, 2))
        assert core.order in (4, 12)  # coprime core strips the 3-part

    def test_nonabelian_complement_out_of_scope(self):
        g, _, _ = direct_product(parse_family("sl2(3)"), parse_family("cyclic(5)"))
        with pytest.raises(InapplicableError):
            reduce_to_core(CenterAlgebra(g, 5))

    def test_no_normal_sylow_out_of_scope(self):
        with pytest.raises(InapplicableError):
            reduce_to_core(CenterAlgebra(parse_family("sym(4)"), 2))


def test_verdicts_invariant_under_reduction_steps():
    # the two reduction moves never change the answer when they apply
    for spec, p in [("direct(sl2(3),cyclic(3))", 2),
                    ("direct(agl(1,4),cyclic(5))", 2),
                    ("direct(sl2(3),cyclic(2))", 2)]:
        g = parse_family(spec)
        core, _ = reduce_to_core(CenterAlgebra(g, p))
        v_full, _ = CenterAlgebra(g, p).socle_ideal_verdict()
        v_core, _ = CenterAlgebra(core, p).socle_ideal_verdict()
        assert v_full == v_core


def test_affine_model_comparison():
    """Order first, then isomorphism, then fingerprints above the search cap."""
    assert _matches_affine_model(parse_family("alt(4)"), [4]) == (True, "isomorphism")
    assert _matches_affine_model(parse_family("dihedral(6)"), [4]) == (False, "isomorphism")
    assert _matches_affine_model(parse_family("sym(4)"), [4]) == (False, "order")
    assert _matches_affine_model(parse_family("agl(1,4)"), []) == (False, "order")
    pair, _, _ = direct_product(parse_family("agl(1,3)"), parse_family("agl(1,4)"))
    assert _matches_affine_model(pair, [3, 4]) == (True, "isomorphism")
    assert _matches_affine_model(parse_family("cyclic(702)"), [27]) == (False, "fingerprint")


@pytest.mark.parametrize("spec", ["SL2(3)", "heisenberg_affine(3)"])
def test_affine_model_compared_once_per_quotient(spec, monkeypatch):
    """Each (G/G'', sizes) runs one isomorphism search, at every prime."""
    g = parse_family(spec)
    q = g.second_derived_quotient().group
    searches = []
    real = structure.groups_isomorphic

    def counting(a, b):
        if a is q:
            searches.append(b.order)
        return real(a, b)

    monkeypatch.setattr(structure, "groups_isomorphic", counting)
    for p in prime_factors(g.order):
        analyze_group(g, p)
    assert searches and len(searches) == len(set(searches))
