"""Structural checks: decomposition, characterization, splitting, reduction."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from soclelab import structure
from soclelab.algebra import CenterAlgebra
from soclelab.analysis import analyze_group
from soclelab.catalog import catalog_groups
from soclelab.errors import ConsistencyError, InapplicableError
from soclelab.families import cyclic_extension, extraspecial, parse_family
from soclelab.fplin import Subspace, kernel_basis, rref
from soclelab.groups import FiniteGroup, direct_product, prime_factors
from soclelab.structure import (_matches_affine_model, build_nonideal_witness,
                                characterize_socle_ideal,
                                check_annihilator_reduction,
                                check_quotient_decomposition,
                                decompose_second_derived_quotient,
                                examine_sylow_split, reduce_to_core,
                                split_into_central_factors)


def setup_context(spec, p, max_order=2000):
    return examine_sylow_split(parse_family(spec, max_order=max_order), p)


class TestSylowSplit:
    def test_sl23_reduced(self):
        ctx = setup_context("sl2(3)", 2)
        assert ctx.reduced
        assert ctx.z_match
        assert ctx.sylow.size == 8
        assert ctx.complement.size == 3

    def test_agl8_reduced_but_no_z_match(self):
        ctx = setup_context("agl(1,8)", 2)
        assert ctx.reduced
        # abelian kernel: Z(G') is all of G', second derived is trivial
        assert not ctx.z_match

    def test_sym4_not_reduced(self):
        ctx = setup_context("sym(4)", 2)
        assert not ctx.reduced

    def test_nonabelian_complement_flagged(self):
        g = direct_product(parse_family("sl2(3)"), parse_family("cyclic(5)"))
        ctx = examine_sylow_split(g, 5)
        assert not ctx.flags["complement_abelian"]
        assert not ctx.reduced


class TestQuotientDecomposition:
    def test_sl23(self):
        ctx = setup_context("sl2(3)", 2)
        dec = ctx.decomposition()
        assert dec.n == 1
        assert [f.size for f in dec.factors] == [4]
        assert dec.central_image.size == 1
        assert dec.multipliers[0] is not None
        assert dec.fixers[0] is not None
        checks = check_quotient_decomposition(ctx)
        assert all(checks.values())

    def test_agl_has_no_nonabelian_part(self):
        ctx = setup_context("agl(1,8)", 2)
        dec = ctx.decomposition()
        assert dec.n == 0
        assert dec.central_image.size == 8
        assert all(check_quotient_decomposition(ctx).values())

    def test_central_product_has_two_factors(self):
        ctx = setup_context("central(sl2(3),sl2(3))", 2)
        dec = ctx.decomposition()
        assert dec.n == 2
        assert [f.size for f in dec.factors] == [4, 4]
        assert all(m is not None for m in dec.multipliers)
        assert all(check_quotient_decomposition(ctx).values())

    def test_heisenberg_affine(self):
        ctx = setup_context("heisenberg_affine(3)", 3)
        dec = ctx.decomposition()
        assert dec.n == 1
        assert dec.factors[0].size == 9
        assert all(check_quotient_decomposition(ctx).values())

    def test_support_pattern_check_runs_and_names_itself(self):
        ctx = setup_context("central(sl2(3),sl2(3))", 2)
        dec = ctx.decomposition()
        # row 0 is the identity: give it the pattern of a nontrivial element
        comps = dec.factor_components
        comps[0] = comps[np.flatnonzero(comps.any(axis=1))[0]]
        with pytest.raises(ConsistencyError,
                           match="support_pattern_matches_conjugacy"):
            check_quotient_decomposition(ctx)

    def test_non_ideal_group_is_benignly_out_of_scope(self):
        ctx = setup_context("q8q8_diag_c3", 2)
        with pytest.raises(InapplicableError, match="not an ideal"):
            decompose_second_derived_quotient(ctx)

    def test_non_reduced_rejected(self):
        ctx = setup_context("sym(4)", 2)
        with pytest.raises(InapplicableError):
            decompose_second_derived_quotient(ctx)

    def test_failed_decomposition_is_memoized(self, monkeypatch):
        ctx = setup_context("q8q8_diag_c3", 2)
        calls = []
        real = structure.decompose_second_derived_quotient
        monkeypatch.setattr(structure, "decompose_second_derived_quotient",
                            lambda c: calls.append(c) or real(c))
        reason = ("minimal factors of the span are not independent (5 factors, "
                  "size product 1024, span 16) (and the socle is not an ideal)")
        with pytest.raises(InapplicableError) as first:
            ctx.decomposition()
        assert str(first.value) == reason
        for check in (check_quotient_decomposition, characterize_socle_ideal,
                      build_nonideal_witness, split_into_central_factors,
                      check_annihilator_reduction):
            with pytest.raises(InapplicableError) as later:
                check(ctx)
            assert str(later.value) == reason and later.value is not first.value
        assert len(calls) == 1


class TestCharacterization:
    def test_sl23_all_three_conditions(self):
        ctx = setup_context("sl2(3)", 2)
        ch = characterize_socle_ideal(ctx)
        assert ch["affine_match"] and ch["has_fixer"] and ch["derived_camina"]
        assert ch["predicted"] is True and ch["direct"] is True
        assert ch["witness"] is None
        assert any("order 24" in note for note in ch["notes"])

    def test_heisenberg_affine_all_three(self):
        ctx = setup_context("heisenberg_affine(3)", 3)
        ch = characterize_socle_ideal(ctx)
        assert ch["affine_match"] and ch["has_fixer"] and ch["derived_camina"]
        assert ch["predicted"] is True and ch["direct"] is True
        # odd p: the fixer condition is forced once the quotient is affine
        assert ch["has_fixer"]

    def test_abelian_kernel_out_of_scope(self):
        ctx = setup_context("agl(1,8)", 2)
        with pytest.raises(InapplicableError):
            characterize_socle_ideal(ctx)

    def test_missing_fixer_predicts_non_ideal(self):
        ctx = setup_context("twisted_affine(2,3,1)", 2, max_order=500)
        ch = characterize_socle_ideal(ctx)
        assert ch["affine_match"]
        assert not ch["has_fixer"]
        assert ch["predicted"] is False and ch["direct"] is False
        assert ch["witness"] is None  # witness construction needs a fixer

    def test_witness_note_names_both_missing_conditions(self, witness_group):
        """The kernel of the witness group (the elements 15a) and the element
        3 generate a subgroup of order 1280 whose quotient is not the affine
        model and that has no fixer: the note gives both reasons."""
        g = witness_group
        gens = np.r_[np.arange(0, g.order, 15), 3]
        sub, _ = g.subgroup_as_group(g.subgroup_closure(gens))
        assert sub.order == 1280
        ch = characterize_socle_ideal(examine_sylow_split(sub, 2))
        assert not ch["affine_match"] and not ch["has_fixer"]
        assert ch["predicted"] is False and ch["direct"] is False
        assert ch["witness"] is None
        assert ch["notes"] == [
            "witness construction inapplicable: quotient is not the affine "
            "model; no complement element centralizes G''"]

    def test_non_camina_kernel_gets_witness(self, witness_group):
        ctx = examine_sylow_split(witness_group, 2)
        ch = characterize_socle_ideal(ctx)
        assert ch["affine_match"] and ch["has_fixer"]
        assert not ch["derived_camina"]
        assert ch["predicted"] is False and ch["direct"] is False
        assert ch["witness"] is not None
        assert all(ch["witness"]["checks"].values())


class TestWitness:
    def test_witness_vector_is_sound(self, witness_group):
        ctx = examine_sylow_split(witness_group, 2)
        alg = ctx.alg
        w = build_nonideal_witness(ctx)
        y = np.array(w["vector"])
        assert y.shape == (ctx.group.order,)
        yc = alg.restrict(y)
        for b in alg.jacobson_radical().basis:
            assert not alg.multiply(yc, b).any()
        assert alg.socle().contains_vector(yc)
        assert not alg.lies_in_derived_coset_span(yc)
        assert w["nonzero_coefficients"] == np.count_nonzero(y)
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
        ctx = setup_context("sl2(3)", 2)
        with pytest.raises(InapplicableError):
            build_nonideal_witness(ctx)

    @pytest.mark.parametrize("spec", ["AGL(1,8)", "central(SL2(3),SL2(3))"])
    def test_witness_stops_at_the_characterization_hypothesis(self, spec):
        """The witness tests the hypotheses it shares with the
        characterization in the same gate, so it stops with the same
        reason; each call gets a fresh context."""
        with pytest.raises(InapplicableError) as characterization:
            characterize_socle_ideal(setup_context(spec, 2))
        with pytest.raises(InapplicableError) as witness:
            build_nonideal_witness(setup_context(spec, 2))
        assert str(witness.value) == str(characterization.value)


class TestElementaryCoords:
    @staticmethod
    def check_bijection(g, dom, p):
        basis, coord = structure._elementary_coords(g, dom, p)
        assert coord.dtype == np.int64 and coord.shape == (g.order, len(basis))
        rows = coord[dom]
        assert ((rows >= 0) & (rows < p)).all()
        assert len({tuple(r) for r in rows.tolist()}) == len(dom)
        for x, row in zip(dom.tolist(), rows.tolist()):
            prod = 0
            for b, e in zip(basis, row):
                prod = g.mul(prod, g.power(b, e))
            assert prod == x
        return basis

    def test_second_derived_of_the_witness_group(self, witness_group):
        second = witness_group.second_derived()
        assert second.size == 16
        assert len(self.check_bijection(witness_group, second, 2)) == 4

    def test_whole_elementary_group(self):
        g = parse_family("elementary(3,2)")
        assert len(self.check_bijection(g, np.arange(g.order), 3)) == 2

    def test_rejects_what_is_not_elementary_abelian(self):
        c4 = parse_family("cyclic(4)")
        with pytest.raises(ConsistencyError, match="not of exponent p"):
            structure._elementary_coords(c4, np.arange(4), 2)
        g = parse_family("elementary(3,2)")
        with pytest.raises(ConsistencyError, match="must contain the identity"):
            structure._elementary_coords(g, np.arange(1, 9), 3)
        with pytest.raises(ConsistencyError, match="not elementary abelian"):
            structure._elementary_coords(g, np.array([0, 1]), 3)


class TestCentralSplit:
    def test_double_sl23(self):
        ctx = setup_context("central(sl2(3),sl2(3))", 2)
        # every verification passed: a failed one raises
        cs = split_into_central_factors(ctx)
        assert cs["component_orders"] == [24, 24]

    def test_single_component_group(self):
        ctx = setup_context("sl2(3)", 2)
        cs = split_into_central_factors(ctx)
        assert cs["component_orders"] == [24]

    def test_component_invariants(self):
        ctx = setup_context("central(sl2(3),sl2(3))", 2)
        cs = split_into_central_factors(ctx)
        for seed, mult in zip(cs["seeds"], cs["multipliers"]):
            elems = ctx.group.subgroup_closure([seed, mult])
            comp, emap = ctx.group.subgroup_as_group(elems)
            calg = CenterAlgebra(comp, 2)
            assert calg.socle_ideal_verdict() == (True, True)
            der = comp.derived_subgroup()
            assert der.size == comp.sylow_subgroup(2).size
            assert np.array_equal(comp.sub_center(der), comp.second_derived())

    def test_non_ideal_rejected(self):
        ctx = setup_context("q8q8_diag_c3", 2)
        with pytest.raises(InapplicableError):
            split_into_central_factors(ctx)


class TestAnnihilatorReduction:
    @pytest.mark.parametrize("spec, p", [("sl2(3)", 2), ("agl(1,8)", 2),
                                         ("agl(1,9)", 3),
                                         ("heisenberg_affine(3)", 3),
                                         ("central(sl2(3),sl2(3))", 2)])
    def test_passes_on_ideal_groups(self, spec, p):
        ctx = setup_context(spec, p)
        out = check_annihilator_reduction(ctx)
        assert out["annihilator_in_derived_coset_span"]
        assert out["generator_sets_match"]
        assert out["annihilator_dim"] >= 1


class TestReduceToCore:
    def test_identity_on_already_reduced(self):
        g = parse_family("sl2(3)")
        core, steps = reduce_to_core(examine_sylow_split(g, 2))
        assert core.order == 24
        applied = [s for s in steps if s.get("applied", True)
                   and s["step"] != "no_op"]
        assert applied == []

    def test_strips_coprime_direct_factor(self):
        g = direct_product(parse_family("sl2(3)"), parse_family("cyclic(3)"))
        core, steps = reduce_to_core(examine_sylow_split(g, 2))
        assert core.order == 24
        assert any(s["step"] == "quotient_by_coprime_core" for s in steps)

    def test_splits_central_p_factor(self):
        g = direct_product(parse_family("sl2(3)"), parse_family("cyclic(2)"))
        core, steps = reduce_to_core(examine_sylow_split(g, 2))
        assert core.order == 24
        assert any(s["step"] == "central_split" for s in steps)

    def test_abelian_group_reduces_to_sylow(self):
        g = parse_family("cyclic(12)")
        core, _ = reduce_to_core(examine_sylow_split(g, 2))
        assert core.order in (4, 12)  # coprime core strips the 3-part

    def test_nonabelian_complement_out_of_scope(self):
        g = direct_product(parse_family("sl2(3)"), parse_family("cyclic(5)"))
        with pytest.raises(InapplicableError):
            reduce_to_core(examine_sylow_split(g, 5))

    def test_no_normal_sylow_out_of_scope(self):
        with pytest.raises(InapplicableError):
            reduce_to_core(examine_sylow_split(parse_family("sym(4)"), 2))

    def test_no_split_over_the_p_residual(self):
        """heisenberg(3) x| C_2, acting by (a, b, c) -> (-a, b, -c) on the
        labels 9a + 3b + c: at p = 3 the socle is not an ideal and the group
        is not the central product of the fixed points and the p-residual."""
        a, b, c = np.indices((3, 3, 3)).reshape(3, 27)
        g = cyclic_extension(extraspecial(27, "+"), (-a % 3) * 9 + b * 3 + (-c % 3),
                             2, "heisenberg(3):C2")
        r = analyze_group(g, 3)
        assert g.order == 54 and r["ideal"]["direct"] is False
        assert r["theorems"]["reduction"] == {
            "status": "passed", "core_order": 54,
            "steps": [{"step": "central_split", "applied": False,
                       "reason": "group does not split over the p-residual"}]}


def test_verdicts_invariant_under_reduction_steps():
    # the two reduction moves never change the answer when they apply
    for spec, p in [("direct(sl2(3),cyclic(3))", 2),
                    ("direct(agl(1,4),cyclic(5))", 2),
                    ("direct(sl2(3),cyclic(2))", 2)]:
        g = parse_family(spec)
        core, _ = reduce_to_core(examine_sylow_split(g, p))
        v_full, _ = CenterAlgebra(g, p).socle_ideal_verdict()
        v_core, _ = CenterAlgebra(core, p).socle_ideal_verdict()
        assert v_full == v_core


def test_affine_model_comparison():
    """Order first, then the exact isomorphism search at every order."""
    assert _matches_affine_model(parse_family("alt(4)"), (4,)) == (True, "isomorphism")
    assert _matches_affine_model(parse_family("dihedral(6)"), (4,)) == (False, "isomorphism")
    assert _matches_affine_model(parse_family("sym(4)"), (4,)) == (False, "order")
    assert _matches_affine_model(parse_family("agl(1,4)"), ()) == (False, "order")
    pair = direct_product(parse_family("agl(1,3)"), parse_family("agl(1,4)"))
    assert _matches_affine_model(pair, (3, 4)) == (True, "isomorphism")
    assert _matches_affine_model(parse_family("cyclic(702)"), (27,)) == (False, "isomorphism")


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


# -- the former projector and span enumeration, kept as references -----------

def rref_inverse(a, p):
    """Inverse mod p: the RREF of [a | 1] is [1 | a^-1]."""
    n = a.shape[0]
    r, piv = rref(np.hstack([a, np.eye(n, dtype=np.int64)]), p)
    assert piv[:n] == list(range(n)), "matrix is singular mod p"
    return r[:, n:]


def reference_averaging_projector(q, p, basis, coord, target, actors):
    """The former projector: the plain projector conjugated in from the basis
    (target basis, then the free axes), averaged as A_h P0 A_h^-1 with each
    A_h inverted by row reduction."""
    k, tb = len(basis), target.basis
    free = [c for c in range(k) if c not in set(target.pivots)]
    full = np.zeros((k, k), dtype=np.int64)
    full[: tb.shape[0]] = tb
    for i, c in enumerate(free):
        full[tb.shape[0] + i, c] = 1
    e = np.diag([1] * tb.shape[0] + [0] * len(free)).astype(np.int64)
    p0 = rref_inverse(full, p) @ e % p @ full % p
    acc = np.zeros((k, k), dtype=np.int64)
    for h in actors:
        a = np.array([coord[q.conj(h, bb)] for bb in basis], dtype=np.int64)
        acc = (acc + a @ p0 % p @ rref_inverse(a, p) % p) % p
    return acc * pow(len(actors), p - 2, p) % p


def reference_span(q, p, basis, proj):
    """The former factor span: every vector of the projector's kernel,
    mapped to its element as a product of basis powers."""
    space = Subspace(p, len(basis), kernel_basis(proj.T, p))
    elems = []
    for idx in range(p ** space.dim):
        coeffs = np.array([idx // p ** j % p for j in range(space.dim)],
                          dtype=np.int64)
        vec = coeffs @ space.basis % p
        out = 0
        for j, b in enumerate(basis):
            if vec[j]:
                out = q.mul(out, q.power(b, int(vec[j])))
        elems.append(out)
    return np.array(sorted(elems), dtype=np.int64)


PROJECTOR_EXTRA_SPECS = ("twisted_affine(2,3,1)", "twisted_affine(2,4,1)",
                         "twisted_affine(3,2,1)")


def test_projector_and_span_match_inverting_references(monkeypatch):
    """The inverse-free projector and the kernel-preimage span equal the
    former inverting projector and enumeration on every (group, p) of the
    catalog and three larger groups that reaches the projector."""
    events = []
    real_proj = structure._averaging_projector
    real_inside = structure._minimal_normal_inside

    def projector(*args):
        proj = real_proj(*args)
        events.append(("proj", args, proj))
        return proj

    def inside(q, elems):
        events.append(("span", np.asarray(elems)))
        return real_inside(q, elems)

    monkeypatch.setattr(structure, "_averaging_projector", projector)
    monkeypatch.setattr(structure, "_minimal_normal_inside", inside)
    groups = [g for _, g in catalog_groups()]
    groups += [parse_family(s, max_order=4000) for s in PROJECTOR_EXTRA_SPECS]
    pairs = 0
    for g in groups:
        for p in prime_factors(g.order):
            events.clear()
            try:
                examine_sylow_split(g, p).decomposition()
            except InapplicableError:
                pass
            if not events:
                continue
            (kind, (q, pp, basis, coord, target, actors), proj), span = events[:2]
            assert kind == "proj" and span[0] == "span"
            want = reference_averaging_projector(q, pp, basis, coord, target, actors)
            assert proj.dtype == np.int64 and np.array_equal(proj, want)
            assert np.array_equal(span[1], reference_span(q, pp, basis, want))
            pairs += 1
    assert pairs == 21


# -- the former per-element walks of the structure layer, kept as references --

def reference_conj_orbit(g, h, x):
    """The former orbit walk: conjugate by h until x comes back."""
    orbit, cur = {x}, g.mul(g.mul(h, x), g.inverse(h))
    while cur != x:
        orbit.add(cur)
        cur = g.mul(g.mul(h, cur), g.inverse(h))
    return orbit


def reference_fixes(q, hb, elems):
    """The former fixed-set test: hb commutes with every element of elems."""
    return all(q.mul(hb, x) == q.mul(x, hb) for x in np.asarray(elems).tolist())


def reference_multiplies(q, qm, h, factors, i):
    hb = int(qm.proj[h])
    nontriv = [int(t) for t in factors[i] if t]
    return (bool(nontriv) and reference_conj_orbit(q, hb, nontriv[0]) == set(nontriv)
            and all(reference_fixes(q, hb, other)
                    for j, other in enumerate(factors) if j != i))


def reference_multiplier_checks(ctx, dec):
    """The former checks: the stabilizer as a loop over H, and the action
    quotient as the walk to the first power of m inside the stabilizer."""
    names = ("multipliers_exist", "multipliers_act_as_promised",
             "complement_generated", "multiplier_spans_action_quotient")
    if any(m is None for m in dec.multipliers):
        return dict.fromkeys(names, False)
    g, q, qm, comp = ctx.group, dec.quotient, dec.qmap, ctx.complement

    def stabilizer(elems):
        return np.array([h for h in comp if reference_fixes(q, int(qm.proj[h]), elems)],
                        dtype=np.int64)

    def spans_action_quotient(m, stab):
        inside, k, cur = g.mask(stab), 1, m
        while not inside[cur]:
            cur, k = g.mul(cur, m), k + 1
        return k == len(comp) // stab.size

    gens = [int(m) for m in dec.multipliers] + stabilizer(dec.factor_span).tolist()
    return dict(zip(names, (
        True,
        all(reference_multiplies(q, qm, m, dec.factors, i)
            for i, m in enumerate(dec.multipliers)),
        np.array_equal(g.subgroup_closure(gens), comp),
        all(spans_action_quotient(int(m), stabilizer(f))
            for m, f in zip(dec.multipliers, dec.factors)))))


def reference_power_preimage(ctx, qm):
    """The former filter: the derived elements whose p-th power maps to 1."""
    g = ctx.group
    return np.array([x for x in ctx.derived if qm.proj[g.power(int(x), ctx.p)] == 0],
                    dtype=np.int64)


def reference_core_lists(ctx, g1, e1):
    """The former two lists of _commutator_core: [a, g1] for a in G', and
    [e1^m g1 e1^-m, g1] for the |H| exponents m."""
    g = ctx.group
    return ([g.commutator(int(a), g1) for a in ctx.derived],
            [g.commutator(g.conj(g.power(e1, m), g1), g1)
             for m in range(len(ctx.complement))])


def reference_witness_vector(ctx, g1, core):
    """The former vector: class values collected in a dict, one element of
    the coset g1 G'' at a time."""
    g, p = ctx.group, ctx.p
    second = g.second_derived()
    basis, coord = structure._elementary_coords(g, second, p)
    alpha = Subspace(p, len(basis), kernel_basis(coord[core], p)).basis[0]
    assigned = {}
    for cid, val in zip(g.class_index_of()[g.table[g1, second]].tolist(),
                        (coord[second] @ alpha % p).tolist()):
        if assigned.setdefault(cid, val) != val:
            raise ConsistencyError("coefficient is not constant on a class")
    support = [cid for cid, val in assigned.items() if val]
    values = ctx.alg.zero()
    values[support] = [assigned[cid] for cid in support]
    return basis, alpha, values[g.class_index_of()], support


WALK_EXTRA_SPECS = ("twisted_affine(2,3,1)", "twisted_affine(2,4,1)")


@pytest.fixture(scope="module")
def reduced_contexts():
    """The context of every reduced (group, p) row of the catalog, and of
    the two twisted affine groups at p = 2, on groups of this module's own."""
    rows = [(g, p) for _, g in catalog_groups() for p in prime_factors(g.order)]
    rows += [(parse_family(s, max_order=4000), 2) for s in WALK_EXTRA_SPECS]
    out = [ctx for g, p in rows if (ctx := examine_sylow_split(g, p)).reduced]
    assert len(out) == 20
    return out


def decompositions(contexts):
    """(ctx, decomposition) for each context whose decomposition succeeds."""
    for ctx in contexts:
        try:
            yield ctx, ctx.decomposition()
        except (ConsistencyError, InapplicableError):
            pass


def test_power_preimage_matches_filter(reduced_contexts):
    compared = 0
    for ctx in reduced_contexts:
        qm = ctx.group.second_derived_quotient()
        want = reference_power_preimage(ctx, qm)
        assert np.array_equal(structure._power_preimage(ctx, qm), want)
        compared += 1
    assert compared == 20


def test_orbits_and_multiplies_match_walks(reduced_contexts):
    """The orbit of every derived image element under every complement
    image, and the multiplier test of every complement element on every
    factor, against the former walks."""
    multiplies = set()
    for ctx, dec in decompositions(reduced_contexts):
        q, qm = dec.quotient, dec.qmap
        for hb in qm.proj[ctx.complement].tolist():
            for x in dec.derived_image.tolist():
                want = sorted(reference_conj_orbit(q, hb, x))
                assert structure._orbit(q, hb, x).tolist() == want
        for i in range(dec.n):
            for h in ctx.complement.tolist():
                want = reference_multiplies(q, qm, h, dec.factors, i)
                assert structure._multiplies(q, qm, h, dec.factors, i) == want
                multiplies.add(want)
    assert multiplies == {True, False}


def test_multiplier_checks_match_walks(reduced_contexts):
    """_multiplier_checks against the stabilizer loop and the power walk,
    on each decomposition and on copies with one multiplier replaced by
    each other complement element or by None."""
    seen = set()
    for ctx, dec in decompositions(reduced_contexts):
        variants = [dec]
        for i in range(dec.n):
            for h in [None] + ctx.complement[1:].tolist():
                mults = list(dec.multipliers)
                mults[i] = h
                variants.append(dataclasses.replace(dec, multipliers=mults))
        for d in variants:
            want = reference_multiplier_checks(ctx, d)
            assert structure._multiplier_checks(ctx, d) == want
            seen.update(want.items())
    assert {(name, ok) for name in ("multipliers_act_as_promised",
                                    "multiplier_spans_action_quotient")
            for ok in (True, False)} <= seen


def test_commutator_core_matches_lists(reduced_contexts):
    """For each factor's seed g1 and multiplier e1: the orbit of g1 under
    e1 against the walk, and the commutator core against the two former
    lists, on cores returned and on cores that fill G''."""
    outcomes = []
    for ctx, dec in decompositions(reduced_contexts):
        g = ctx.group
        for i in range(dec.n):
            if dec.fixers[i] is None or dec.multipliers[i] is None:
                continue
            _, g1 = structure._factor_seed(ctx, i)
            e1 = int(dec.multipliers[i])
            assert structure._orbit(g, e1, g1).tolist() == sorted(
                reference_conj_orbit(g, e1, g1))
            by_derived, by_powers = reference_core_lists(ctx, g1, e1)
            want = g.subgroup_closure(by_derived)
            assert np.array_equal(g.element_set(by_derived), want)
            assert np.array_equal(g.subgroup_closure(by_powers), want)
            try:
                core = structure._commutator_core(ctx, g1, e1)
            except InapplicableError:
                assert np.array_equal(want, g.second_derived())
                outcomes.append("fills")
                continue
            assert np.array_equal(core, want)
            outcomes.append("core")
    assert sorted(outcomes) == ["core", "fills", "fills", "fills", "fills"]


def test_witness_vector_matches_dict(witness_group):
    ctx = examine_sylow_split(witness_group, 2)
    dec = ctx.decomposition()
    _, g1 = structure._factor_seed(ctx, 0)
    core = structure._commutator_core(ctx, g1, int(dec.multipliers[0]))
    basis, alpha, vec, support = structure._witness_vector(ctx, g1, core)
    want = reference_witness_vector(ctx, g1, core)
    assert basis == want[0] and np.array_equal(alpha, want[1])
    assert vec.dtype == np.int64 and np.array_equal(vec, want[2])
    assert support.tolist() == sorted(want[3])


# -- the former product loops of the structure layer, kept as references --

def reference_product(g, sets):
    """Every product in itertools.product order (the last set fastest),
    keeping the first tuple of positions that gives each element."""
    first, count = {}, 0
    for combo in itertools.product(*(range(len(s)) for s in sets)):
        e = 0
        for s, i in zip(sets, combo):
            e = g.mul(e, int(s[i]))
        first.setdefault(e, list(combo))
        count += 1
    elems = sorted(first)
    return elems, [first[e] for e in elems], count == len(elems)


def test_product_matches_itertools():
    """_product on catalog subgroups, subsets that are not subgroups (and
    may miss the identity), overlapping products and no sets at all."""
    rng = np.random.default_rng(9173)
    seen = set()
    for _, g in catalog_groups():
        der, cen = g.derived_subgroup(), g.center()
        syl = [g.sylow_subgroup(p) for p in prime_factors(g.order)]
        subset = g.element_set(rng.integers(0, g.order, size=4))
        for sets in ([], [der], syl, [der, cen], [cen, cen], [subset, der],
                     [subset, subset, cen]):
            if math.prod(len(s) for s in sets) > 1500:
                continue
            elems, coords, direct = structure._product(g, sets)
            want_elems, want_coords, want_direct = reference_product(g, sets)
            assert elems.dtype == np.int64 and elems.tolist() == want_elems
            assert coords.dtype == np.int64
            assert coords.shape == (len(want_elems), len(sets))
            assert coords.tolist() == want_coords and direct == want_direct
            seen.add((len(sets), direct))
    assert {(0, True), (1, True), (2, True), (2, False), (3, False)} <= seen


def former_elementary_coords(g, elems, p):
    """The former walk of _elementary_coords: every element of the domain
    in turn, skipping those the basis so far already spans."""
    dom = np.sort(np.atleast_1d(np.asarray(elems, dtype=np.int64)))
    if dom[0] != 0:
        raise ConsistencyError("coordinate domain must contain the identity")
    inside = g.mask(dom)
    basis = []
    span, rows = np.array([0], dtype=np.int64), np.zeros((1, 0), dtype=np.int64)
    spanned = g.mask(span)
    for x in dom.tolist():
        if spanned[x]:
            continue
        if g.power(x, p) != 0:
            raise ConsistencyError("coordinate domain is not of exponent p")
        basis.append(x)
        span = g.table[np.ix_(span, [g.power(x, k) for k in range(p)])].ravel()
        rows = np.hstack([np.repeat(rows, p, axis=0),
                          np.tile(np.arange(p, dtype=np.int64), len(rows))[:, None]])
        spanned = g.mask(span)
        if not inside[span].all() or np.count_nonzero(spanned) != span.size:
            raise ConsistencyError("coordinate domain is not elementary abelian")
    if span.size != dom.size:
        raise ConsistencyError("coordinate domain is not elementary abelian")
    coord = np.full((g.order, len(basis)), -1, dtype=np.int64)
    coord[span] = rows
    return basis, coord


def test_elementary_coords_match_the_element_walk(reduced_contexts, witness_group):
    """On G', G'' and the image in G/G'' of the p-th power preimage (the
    domain _factor_span reads) of every reduced context, and on G'' of the
    witness group with and without its last element: the same basis and
    coordinates, or the same error."""
    def outcome(coords, g, dom, p):
        try:
            basis, coord = coords(g, dom, p)
        except ConsistencyError as err:
            return str(err)
        return basis, coord.tolist()

    second = witness_group.second_derived()
    cases = [(witness_group, second, 2), (witness_group, second[:-1], 2)]
    for ctx in reduced_contexts:
        qm = ctx.group.second_derived_quotient()
        cases += [(ctx.group, dom, ctx.p) for dom in (ctx.derived, ctx.group.second_derived())]
        try:
            dropped = structure._power_preimage(ctx, qm)
        except (ConsistencyError, InapplicableError):
            continue
        cases.append((qm.group, qm.group.element_set(qm.proj[dropped]), ctx.p))
    kinds = set()
    for g, dom, p in cases:
        want = outcome(former_elementary_coords, g, dom, p)
        assert outcome(structure._elementary_coords, g, dom, p) == want
        kinds.add(want if isinstance(want, str) else len(want[0]) > 0)
    assert kinds == {True, False, "coordinate domain is not of exponent p",
                     "coordinate domain is not elementary abelian"}


def former_components(q, factors):
    """The former components dict: element -> its component in each
    factor, one q.mul per (element, factor element) pair."""
    components = {0: ()}
    for f in factors:
        nxt = {q.mul(e, int(t)): parts + (int(t),)
               for e, parts in components.items() for t in f}
        if len(nxt) != len(components) * f.size:
            raise ConsistencyError("factor product collides")
        components = nxt
    return components


def former_support_pattern(q, components):
    """The former support-pattern check, over (class, pattern) sets."""
    qcls = q.class_index_of()
    pairs = {(int(qcls[e]), tuple(int(t) != 0 for t in parts))
             for e, parts in components.items()}
    return len(pairs) == len({c for c, _ in pairs}) == len({pat for _, pat in pairs})


def support_pattern_check(ctx):
    """The support-pattern check of check_quotient_decomposition, read from
    its result or from the names in its error."""
    try:
        return check_quotient_decomposition(ctx)["support_pattern_matches_conjugacy"]
    except ConsistencyError as err:
        return "support_pattern_matches_conjugacy" not in str(err)


def test_factor_components_match_the_dict(reduced_contexts, witness_group):
    """factor_components against the dict, row by row of the span, and the
    support-pattern check against the set count, on every decomposition
    and on two mutated copies of its components."""
    checked = set()
    contexts = reduced_contexts + [examine_sylow_split(witness_group, 2)]
    for ctx, dec in decompositions(contexts):
        q, comps = dec.quotient, dec.factor_components
        want = former_components(q, dec.factors)
        assert sorted(want) == dec.factor_span.tolist()
        assert comps.dtype == np.int64 and comps.shape == (dec.factor_span.size, dec.n)
        assert [[int(f[i]) for f, i in zip(dec.factors, row)] for row in comps.tolist()] == [
            list(want[e]) for e in dec.factor_span.tolist()]
        ok = support_pattern_check(ctx)
        assert ok == former_support_pattern(q, want)
        checked.add(ok)
        if not dec.n:
            continue
        # the identity takes the pattern of a nontrivial element; then an
        # element whose class holds two span elements takes the identity's,
        # which keeps the numbers of classes and of patterns
        cls = q.class_index_of()[dec.factor_span]
        shared = np.flatnonzero(np.bincount(cls)[cls] > 1)
        for dst, src in [(0, int(np.flatnonzero(comps.any(axis=1))[0])), (int(shared[0]), 0)]:
            saved, before = comps.copy(), dict(want)
            comps[dst] = comps[src]
            want[int(dec.factor_span[dst])] = want[int(dec.factor_span[src])]
            try:
                assert not support_pattern_check(ctx)
                assert not former_support_pattern(q, want)
            finally:
                comps[:] = saved
            want = before
        checked.add("mutated")
    assert checked == {True, "mutated"}
