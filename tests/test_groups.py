"""Group machinery against textbook facts and brute-force recomputation."""

import dataclasses
import hashlib
import json
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from soclelab import families as families_module
from soclelab import groups as groups_module
from soclelab.catalog import CATALOG_SPECS, catalog_groups
from soclelab.errors import ConsistencyError, UnsupportedInputError
from soclelab.families import parse_family
from soclelab.groups import (FiniteGroup, central_product, direct_product,
                             find_isomorphism, groups_isomorphic, int_p_part,
                             prime_factors, table_dtype)


def reference_closure(g, gens):
    """Breadth-first closure, one element and one generator at a time."""
    seen = np.zeros(g.order, dtype=bool)
    seen[0] = True
    gl = sorted({int(x) for x in gens} - {0})
    frontier = [0]
    while frontier:
        new = []
        for x in frontier:
            row = g.table[x]
            for s in gl:
                y = int(row[s])
                if not seen[y]:
                    seen[y] = True
                    new.append(y)
        frontier = new
    return np.flatnonzero(seen)


def reference_generators(g):
    gens, cl = [], np.array([0])
    while cl.size < g.order:
        mask = np.zeros(g.order, dtype=bool)
        mask[cl] = True
        gens.append(int(np.flatnonzero(~mask)[0]))
        cl = reference_closure(g, gens)
    return gens


def reference_normalizer(g, elems):
    elems = np.asarray(elems, dtype=np.int64)
    mask = np.zeros(g.order, dtype=bool)
    mask[elems] = True
    t, inv = g.table, g.inv
    keep = [x for x in range(g.order) if mask[t[t[x, elems], inv[x]]].all()]
    return np.array(keep, dtype=np.int64)


def assert_same_elems(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def cyclic_table(n):
    i = np.arange(n)
    return (i[:, None] + i[None, :]) % n


def test_int_p_part():
    assert int_p_part(48, 2) == 16
    assert int_p_part(48, 3) == 3
    assert int_p_part(48, 5) == 1


def test_prime_factors():
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(1) == []


def test_axioms_reject_nonassociative():
    t = cyclic_table(4)
    t[3, 3] = 1  # break associativity
    with pytest.raises(UnsupportedInputError):
        FiniteGroup(t)


def swap_intercalate(t, r, c):
    """Swap the entries of the 2x2 Latin subsquare of a cyclic table on rows
    r, r + n/2 and columns c, c + n/2; the result is still a Latin square
    with identity 0."""
    h = len(t) // 2
    t[[r, r + h], c], t[[r, r + h], c + h] = t[[r, r + h], c + h], t[[r, r + h], c]
    return t


def cubic_associative(t):
    return all(np.array_equal(t[t[a]], t[a][t]) for a in range(len(t)))


@pytest.mark.parametrize("n", [4, 6, 8, 12])
def test_light_check_matches_cubic_check(n):
    for r in range(1, n // 2):
        for c in range(1, n // 2):
            if r + c == n // 2:
                continue  # the swap would move identity entries
            t = swap_intercalate(cyclic_table(n), r, c)
            if cubic_associative(t):
                FiniteGroup(t)
            else:
                with pytest.raises(UnsupportedInputError, match="associativity"):
                    FiniteGroup(t)


def test_associativity_exact_above_order_512():
    # one swapped intercalate breaks associativity at few triples; a check
    # of 200k sampled triples accepts this loop of order 2000
    t = swap_intercalate(cyclic_table(2000), 1, 2)
    with pytest.raises(UnsupportedInputError, match="associativity"):
        FiniteGroup(t)


def test_cyclic_basics():
    g = FiniteGroup(cyclic_table(12))
    assert g.order == 12
    assert g.is_abelian()
    assert g.element_order(1) == 12
    assert g.element_order(4) == 3
    assert g.inverse(5) == 7
    assert len(g.conjugacy_classes()) == 12


class TestDihedral4:
    g = parse_family("dihedral(4)")

    def test_invariants(self):
        assert self.g.order == 8
        assert len(self.g.conjugacy_classes()) == 5
        assert self.g.center().size == 2
        assert self.g.derived_subgroup().size == 2

    def test_class_equation(self):
        sizes = sorted(c.size for c in self.g.conjugacy_classes())
        assert sizes == [1, 1, 2, 2, 2]


def test_quaternion_group():
    g = parse_family("q8")
    assert g.order == 8
    assert g.center().size == 2
    der = g.derived_subgroup()
    assert der.size == 2
    assert np.array_equal(der, g.center())
    # one involution only
    assert int((g.element_orders() == 2).sum()) == 1


def test_sym4_derived_series():
    g = parse_family("sym(4)")
    series = [s.size for s in g.derived_series()]
    assert series[:4] == [24, 12, 4, 1]
    assert len(g.conjugacy_classes()) == 5


def test_alt5_simple():
    g = parse_family("alt(5)")
    assert g.order == 60
    assert g.derived_subgroup().size == 60
    assert len(g.conjugacy_classes()) == 5


def test_commutator_and_conj_identities():
    g = parse_family("sym(4)")
    rng = np.random.default_rng(3)
    for _ in range(40):
        a, b, x = rng.integers(0, g.order, size=3)
        ab = g.mul(int(a), int(b))
        # [a,b] = a b a^-1 b^-1
        lhs = g.mul(g.mul(int(a), int(b)),
                    g.mul(g.inverse(int(a)), g.inverse(int(b))))
        assert g.commutator(int(a), int(b)) == lhs
        assert g.conj(int(a), g.conj(int(b), int(x))) == g.conj(ab, int(x))


def test_power_matches_iteration():
    g = parse_family("dicyclic(5)")
    for x in range(g.order):
        acc = 0
        for k in range(1, 2 * g.order):
            acc = g.mul(acc, x)
            assert g.power(x, k) == acc
        assert g.power(x, -1) == g.inverse(x)


def test_subgroup_closure_and_normality():
    g = parse_family("sym(4)")
    # closure of any single 3-cycle has order 3 and is not normal
    three = next(x for x in range(24) if g.element_order(x) == 3)
    sub3 = g.subgroup_closure([three])
    assert sub3.size == 3
    assert not g.is_normal(sub3)
    der2 = g.second_derived()
    assert der2.size == 4
    assert g.is_normal(der2)


def test_quotient_sym4_by_klein():
    g = parse_family("sym(4)")
    qm = g.quotient(g.second_derived())
    assert qm.group.order == 6
    assert not qm.group.is_abelian()
    # projection is a homomorphism
    rng = np.random.default_rng(5)
    for _ in range(30):
        a, b = map(int, rng.integers(0, 24, size=2))
        assert qm.proj[g.mul(a, b)] == qm.group.mul(int(qm.proj[a]),
                                                    int(qm.proj[b]))
    # section lifts back
    for h in range(6):
        assert int(qm.proj[int(qm.section[h])]) == h


def test_quotient_rejects_non_normal():
    g = parse_family("sym(4)")
    three = next(x for x in range(24) if g.element_order(x) == 3)
    with pytest.raises(UnsupportedInputError):
        g.quotient(g.subgroup_closure([three]))


def test_center_and_centralizer():
    g = parse_family("q8")
    z = g.center()
    for x in z:
        assert g.centralizer([int(x)]).size == g.order
    i = next(x for x in range(8) if g.element_order(x) == 4)
    assert g.centralizer([i]).size == 4


def test_sylow_and_hall_sl23():
    g = parse_family("sl2(3)")
    syl = g.sylow_subgroup(2)
    assert syl.size == 8
    assert g.is_normal(syl)
    comp = g.hall_complement(2, sylow=syl)
    assert comp is not None and comp.size == 3
    syl3 = g.sylow_subgroup(3)
    assert syl3.size == 3
    assert not g.is_normal(syl3)


def test_cores_and_residuals():
    g, _, _ = direct_product(parse_family("sl2(3)"), parse_family("cyclic(5)"))
    assert g.p_prime_core(2).size == 5
    assert g.p_core(2).size == 8
    # abelianization C3 x C5 has trivial 2-part, so no proper 2-group quotient
    assert g.p_residual(2).size == 120
    assert g.p_residual(5).size == 24


def test_subgroup_as_group_multiplication():
    g = parse_family("sl2(3)")
    q8, elems = g.subgroup_as_group(g.sylow_subgroup(2))
    assert q8.order == 8
    for a in range(8):
        for b in range(8):
            prod = g.mul(int(elems[a]), int(elems[b]))
            assert int(elems[q8.mul(a, b)]) == prod
    assert groups_isomorphic(q8, parse_family("q8"))


def test_direct_product_embeddings_commute():
    a = parse_family("q8")
    b = parse_family("cyclic(3)")
    g, ea, eb = direct_product(a, b)
    assert g.order == 24
    for x in ea:
        for y in eb:
            assert g.mul(int(x), int(y)) == g.mul(int(y), int(x))


def test_central_product_identifies_centers():
    q8 = parse_family("q8")
    g, ea, eb = central_product(q8, q8)
    assert g.order == 32  # 8 * 8 / 2
    assert g.center().size == 2


def test_isomorphism_search():
    c6a = parse_family("cyclic(6)")
    c6b, _, _ = direct_product(parse_family("cyclic(2)"), parse_family("cyclic(3)"))
    iso = find_isomorphism(c6a, c6b)
    assert iso is not None
    for a in range(6):
        for b in range(6):
            assert iso[c6a.mul(a, b)] == c6b.mul(int(iso[a]), int(iso[b]))
    assert groups_isomorphic(parse_family("dihedral(3)"), parse_family("sym(3)"))
    assert not groups_isomorphic(parse_family("q8"), parse_family("dihedral(4)"))


def test_camina_detection():
    # extraspecial groups are Camina; dihedral(4) is too, dihedral(6) is not
    assert parse_family("q8").is_camina()
    assert parse_family("extraspecial(27,+)").is_camina()
    assert parse_family("dihedral(4)").is_camina()
    assert not parse_family("dihedral(6)").is_camina()


def test_frobenius_detection():
    g = parse_family("agl(1,5)")
    assert g.is_frobenius_with_kernel(g.derived_subgroup())
    s3 = parse_family("sym(3)")
    assert s3.is_frobenius_with_kernel(s3.derived_subgroup())
    d4 = parse_family("dihedral(4)")
    assert not d4.is_frobenius_with_kernel(d4.derived_subgroup())
    # direct factors break the partition condition
    g2, _, _ = direct_product(parse_family("agl(1,5)"), parse_family("cyclic(3)"))
    assert not g2.is_frobenius_with_kernel(g2.derived_subgroup())


def reference_is_frobenius(g, kernel):
    """One full centralizer for every nonidentity element of the kernel."""
    k = np.unique(np.asarray(kernel, dtype=np.int64))
    if k.size <= 1 or k.size == g.order or not g.is_normal(k):
        return False
    kmask = g.mask(k)
    return all(kmask[g.centralizer(int(x))].all() for x in k if x)


def test_frobenius_check_matches_per_element_reference():
    groups = [g for _, g in catalog_groups()]
    groups.append(parse_family("twisted_affine(2,4,1)", max_order=4000))
    seen = Counter()
    for g in groups:
        der = g.derived_subgroup()
        want = reference_is_frobenius(g, der)
        assert g.is_frobenius_with_kernel(der) == want, g.name
        seen[want] += 1
    assert seen[True] and seen[False]


def test_fingerprint_separates_and_matches():
    assert parse_family("q8").fingerprint() != parse_family("dihedral(4)").fingerprint()
    a = parse_family("cyclic(6)")
    b, _, _ = direct_product(parse_family("cyclic(2)"), parse_family("cyclic(3)"))
    assert a.fingerprint() == b.fingerprint()


SMALL_CATALOG = [(spec, g) for spec, g in catalog_groups() if g.order <= 200]


def closure_generator_lists(g, rng):
    """Generator lists with the identity, duplicates, redundant elements,
    a whole subgroup, and nothing at all."""
    n = g.order
    lists = [[], [0], list(range(n)), [0, 0, 0]]
    for size in (1, 2, 3, 6):
        gens = [int(x) for x in rng.integers(0, n, size=size)]
        lists.append(gens)
        lists.append(gens + gens[::-1] + [0])
        sub = reference_closure(g, gens)
        lists.append([int(x) for x in sub])
        extra = [int(x) for x in rng.choice(sub, size=min(3, sub.size))]
        lists.append(gens + extra + [g.mul(gens[0], gens[-1])])
    lists.append(np.asarray(rng.integers(0, n, size=4)))
    return lists


@pytest.mark.parametrize("spec,g", SMALL_CATALOG, ids=[s for s, _ in SMALL_CATALOG])
def test_closure_matches_reference_bfs(spec, g):
    rng = np.random.default_rng(g.order * 7919 + len(spec))
    for gens in closure_generator_lists(g, rng):
        assert_same_elems(g.subgroup_closure(gens), reference_closure(g, gens))


def test_closure_residual_and_generators_at_order_448():
    g = parse_family("twisted_affine(2,3,1)")
    assert g.order == 448
    assert g.generators() == reference_generators(g)
    orders = g.element_orders()
    for p in (2, 7):
        seed = [x for x in range(g.order) if int(orders[x]) % p != 0]
        assert_same_elems(g.p_residual(p), reference_closure(g, seed))


def test_element_set_helpers_match_reference():
    """mask, is_subgroup and commute against element-by-element checks."""
    s4 = parse_family("sym(4)")
    t = s4.table
    cyclic = [s4.subgroup_closure([x]) for x in range(s4.order)]
    for x, sub in enumerate(cyclic):
        assert np.array_equal(np.flatnonzero(s4.mask(sub)), sub)
        assert s4.is_subgroup(sub)
        assert not s4.is_subgroup(sub[1:])
        # an element of order at least 3 without its inverse breaks closure
        outside = int(np.flatnonzero(~s4.mask(sub) & (s4.element_orders() > 2))[0])
        assert not s4.is_subgroup(np.union1d(sub, [outside]))
        for other in cyclic[:x + 1]:
            want = all(t[a, b] == t[b, a] for a in sub for b in other)
            assert s4.commute(sub, other) == s4.commute(other, sub) == want


def reference_sylow(g, p):
    """The former ascent: the full normalizer of s at each step, scanned in
    order for a p-element outside s whose p-th power lies in s."""
    pk = int_p_part(g.order, p)
    if pk == 1:
        return np.array([0], dtype=np.int64)
    orders = g.element_orders()
    best, best_ord = 0, 1
    for x in range(g.order):
        op = int_p_part(int(orders[x]), p)
        if op > best_ord:
            best, best_ord = x, op
    s = g.subgroup_closure([g.element_p_part(best, p)])
    while s.size < pk:
        mask = np.zeros(g.order, dtype=bool)
        mask[s] = True
        cand = next(y for y in map(int, reference_normalizer(g, s)) if not mask[y]
                    and int_p_part(int(orders[y]), p) == orders[y]
                    and mask[g.power(y, p)])
        s = g.subgroup_closure(list(s) + [cand])
    return s


SYLOW_EXTRA = ("twisted_affine(2,4,1)", "sym(5)", "sym(6)", "dihedral(300)", "agl(1,32)",
               "twisted_affine(3,2,1)", "cyclic(101)", "abelian(2,4,8)")
SYLOW_GROUPS = [(spec, g) for spec, g in catalog_groups()] + [
    (spec, parse_family(spec, max_order=4000)) for spec in SYLOW_EXTRA]


@pytest.mark.parametrize("spec,g", SYLOW_GROUPS, ids=[s for s, _ in SYLOW_GROUPS])
def test_sylow_matches_normalizer_ascent(spec, g):
    for p in prime_factors(g.order):
        assert_same_elems(g.sylow_subgroup(p), reference_sylow(g, p))
    assert_same_elems(g.sylow_subgroup(7 if g.order % 7 else 11),
                      np.array([0], dtype=np.int64))


def test_sylow_ascent_raises_without_extension():
    g = parse_family("sym(4)")
    # orders that leave no 2-element: the ascent cannot leave the identity
    g._memo["orders"] = np.where(np.arange(g.order) == 0, 1, 3)
    with pytest.raises(ConsistencyError, match="Sylow ascent found no extension"):
        g.sylow_subgroup(2)


# -- normal subgroups from classes, against the element-wise references ------

def reference_normal_closure(g, seed, conjugators=None):
    """Fixed point: close seed, add every conjugate, close again."""
    if conjugators is None:
        conjugators = reference_generators(g)
    gset = sorted({int(s) for s in seed} - {0})
    s = reference_closure(g, gset)
    t, inv = g.table, g.inv
    while True:
        mask = np.zeros(g.order, dtype=bool)
        mask[s] = True
        added = set()
        for x in conjugators:
            cs = t[t[x, s], inv[x]]
            added |= {int(y) for y in cs[~mask[cs]]}
        if not added:
            return s
        gset = sorted(set(gset) | added)
        s = reference_closure(g, gset)


def reference_sub_generators(g, elems):
    elems = np.asarray(elems)
    if elems.size == 1:
        return []
    inside = set(int(e) for e in elems)
    gens, cl = [], np.array([0])
    while cl.size < elems.size:
        g_next = min(inside - set(int(c) for c in cl))
        gens.append(g_next)
        cl = reference_closure(g, gens)
        if not set(int(c) for c in cl) <= inside:
            raise UnsupportedInputError("element set is not a subgroup")
    return gens


def reference_sub_derived(g, elems):
    """Normal closure, under the generators of H, of their commutators."""
    gens = reference_sub_generators(g, elems)
    comms = {g.commutator(a, b) for a in gens for b in gens}
    return reference_normal_closure(g, comms, conjugators=gens)


def reference_core(g, p, want_p_group):
    """Join the normal closures of class representatives that stay inside
    the element-order envelope, re-closing after each one."""
    orders = g.element_orders()

    def good(x):
        o = int(orders[x])
        return (o == int_p_part(o, p)) if want_p_group else (o % p != 0)

    acc = np.array([0], dtype=np.int64)
    gset = set()
    for c in g.conjugacy_classes():
        if c.rep in set(acc.tolist()) or not good(c.rep):
            continue
        nc = reference_normal_closure(g, [c.rep])
        if all(good(int(x)) for x in nc):
            gset |= {int(x) for x in nc}
            acc = reference_closure(g, sorted(gset))
    return acc


def reference_is_camina(g):
    der = reference_sub_derived(g, np.arange(g.order))
    classes, cls_of = g.conjugacy_classes(), g.class_index_of()
    for x in range(g.order):
        if x in set(der.tolist()):
            continue
        if not np.array_equal(classes[int(cls_of[x])].elems, np.sort(g.table[x, der])):
            return False
    return True


def normal_closure_seeds(g, rng):
    """Every class representative, seeded element sets and subgroups."""
    seeds = [[], [0], [c.rep for c in g.conjugacy_classes()]]
    seeds += [[c.rep] for c in g.conjugacy_classes()]
    for size in (1, 2, 3):
        seeds.append([int(x) for x in rng.integers(0, g.order, size=size)])
    seeds.append(g.sylow_subgroup(prime_factors(g.order)[0]) if g.order > 1 else [0])
    return seeds


@pytest.mark.parametrize("spec,g", SMALL_CATALOG, ids=[s for s, _ in SMALL_CATALOG])
def test_normal_subgroups_match_element_references(spec, g):
    """On G, G/G'', the derived series and the Sylow subgroups."""
    rng = np.random.default_rng(g.order * 104729 + len(spec))
    quotient = g.second_derived_quotient().group
    for grp in (g, quotient):
        for seed in normal_closure_seeds(grp, rng):
            assert_same_elems(grp.normal_closure(seed), reference_normal_closure(grp, seed))
        subgroups = grp.derived_series() + [grp.sylow_subgroup(p)
                                            for p in prime_factors(grp.order)]
        for h in subgroups:
            assert grp.sub_generators(h) == reference_sub_generators(grp, h)
            assert_same_elems(grp.sub_derived(h), reference_sub_derived(grp, h))
            hgrp, _ = grp.subgroup_as_group(h)
            assert hgrp.is_camina() == reference_is_camina(hgrp)
        assert grp.generators() == reference_generators(grp)
        assert_same_elems(grp.derived_subgroup(),
                          reference_sub_derived(grp, np.arange(grp.order)))
        for p in prime_factors(grp.order) or [2]:
            assert_same_elems(grp.p_core(p), reference_core(grp, p, True))
            assert_same_elems(grp.p_prime_core(p), reference_core(grp, p, False))
        assert grp.is_camina() == reference_is_camina(grp)


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(FiniteGroup, name)

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, name, counted)
    return calls


def test_core_is_memoized(monkeypatch):
    g = parse_family("direct(SL2(3),cyclic(5))")
    first = g.p_prime_core(2)
    calls = count_calls(monkeypatch, "normal_closure")
    assert_same_elems(g.p_prime_core(2), first)
    assert calls == []
    assert g.p_core(2).size == 8 and len(calls) > 0


def test_normal_closure_is_one_subgroup_closure(monkeypatch):
    g = parse_family("sym(4)")
    g.conjugacy_classes()
    calls = count_calls(monkeypatch, "subgroup_closure")
    for seed in ([1], [0], [], [5, 7], g.sylow_subgroup(3)):
        calls.clear()
        g.normal_closure(seed)
        assert len(calls) == 1


def test_sub_generators_rejects_a_non_subgroup():
    g = parse_family("sym(4)")
    three = g.sylow_subgroup(3)
    with pytest.raises(UnsupportedInputError, match="not a subgroup"):
        g.sub_generators(three[:2])
    with pytest.raises(UnsupportedInputError, match="not a subgroup"):
        g.sub_generators(np.union1d(three, g.sylow_subgroup(2)))
    assert g.sub_generators([0]) == []


def test_core_guard_rejects_an_unclosed_union(monkeypatch):
    g = FiniteGroup(cyclic_table(5))
    monkeypatch.setattr(FiniteGroup, "normal_closure",
                        lambda self, seed: np.array([0, 1], dtype=np.int64))
    with pytest.raises(ConsistencyError, match="not closed under the product"):
        g.p_prime_core(2)


# -- validation without the Latin-square sorts, against the sort-first order --

def reference_validate(t):
    """Both Latin-square sorts first, then two-sided inverses, then Light's
    test over the greedy generators. The first failing check's message, or
    None for a group."""
    t = np.asarray(t, dtype=np.int32)
    n = len(t)
    ar = np.arange(n, dtype=np.int32)
    if not np.array_equal(t[0], ar) or not np.array_equal(t[:, 0], ar):
        return "element 0 is not a two-sided identity"
    if not np.array_equal(np.sort(t, axis=1), np.broadcast_to(ar, t.shape)):
        return "a row is not a permutation"
    if not np.array_equal(np.sort(t, axis=0), np.broadcast_to(ar[:, None], t.shape)):
        return "a column is not a permutation"
    if not (t[np.argmin(t, axis=1), ar] == 0).all():
        return "left and right inverses differ"
    for s in reference_generators(SimpleNamespace(order=n, table=t)):
        if not np.array_equal(t[t[:, s]], t[:, t[s]]):
            return f"associativity fails at generator {s}"
    return None


def swap_intercalates(t, rng, count):
    """Swap the two diagonals of random 2x2 Latin subsquares off row 0 and
    column 0; the table stays a Latin square with identity 0."""
    n, done = len(t), 0
    for _ in range(50 * n):
        x, x2, y = (int(v) for v in rng.integers(1, n, size=3))
        hits = np.flatnonzero(t[x2] == t[x, y])
        if x == x2 or not hits.size:
            continue
        y2 = int(hits[0])
        if y2 in (0, y) or t[x, y2] != t[x2, y]:
            continue
        t[[x, x2], y], t[[x, x2], y2] = t[[x, x2], y2], t[[x, x2], y]
        done += 1
        if done == count:
            break
    return t


def corrupted_tables(table, rng, per_kind):
    """Seeded corruptions keeping row 0 and column 0: cell edits, swaps
    inside a row, inside a column, of two rows, and of intercalates."""
    n = len(table)
    inner = np.arange(1, n)
    for i in range(per_kind):
        t = table.copy()
        for _ in range(1 + i % 3):
            r, c = rng.integers(1, n, size=2)
            t[r, c] = rng.integers(0, n)
        yield t
        t = table.copy()
        r, (c1, c2) = rng.integers(1, n), rng.choice(inner, 2, replace=False)
        t[r, [c1, c2]] = t[r, [c2, c1]]
        yield t
        t = table.copy()
        c, (r1, r2) = rng.integers(1, n), rng.choice(inner, 2, replace=False)
        t[[r1, r2], c] = t[[r2, r1], c]
        yield t
        t = table.copy()
        r1, r2 = rng.choice(inner, 2, replace=False)
        t[[r1, r2], 1:] = t[[r2, r1], 1:]
        yield t
        yield swap_intercalates(table.copy(), rng, 1 + i % 3)


def test_validation_matches_sort_first_reference():
    rng = np.random.default_rng(2718)
    seen = Counter()
    for _, g in SMALL_CATALOG:
        if g.order < 4:
            continue
        for t in corrupted_tables(np.array(g.table), rng, per_kind=6):
            want = reference_validate(t)
            seen[want] += 1
            if want is None:
                FiniteGroup(t)
                continue
            with pytest.raises(UnsupportedInputError) as err:
                FiniteGroup(t)
            assert str(err.value) == want
    kinds = {k.split(" at ")[0] if k else k for k in seen}
    assert kinds == {None, "a row is not a permutation", "a column is not a permutation",
                     "left and right inverses differ", "associativity fails"}


ROW_ONLY = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 0], [3, 2, 1, 1]]
HAND_MADE = [
    # columns are permutations, rows 2 and 3 are not
    ("a row is not a permutation", ROW_ONLY),
    ("a column is not a permutation", np.transpose(ROW_ONLY)),
    # a loop: 2 * 3 = 0 but 3 * 2 = 1
    ("left and right inverses differ",
     [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0],
      [4, 2, 0, 1, 3]]),
    # a loop of exponent 2: (1 * 1) * 2 = 2 but 1 * (1 * 2) = 4
    ("associativity fails at generator 1",
     [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
      [4, 3, 1, 2, 0]]),
]


@pytest.mark.parametrize("message,table", HAND_MADE, ids=[m for m, _ in HAND_MADE])
def test_each_check_rejects_alone(message, table, monkeypatch):
    assert reference_validate(table) == message
    calls = count_calls(monkeypatch, "_check_latin")
    with pytest.raises(UnsupportedInputError) as err:
        FiniteGroup(table)
    assert str(err.value) == message
    assert len(calls) == 1


def test_accepted_tables_skip_the_latin_sorts(monkeypatch):
    calls = count_calls(monkeypatch, "_check_latin")
    built = [spec for spec, _ in catalog_groups()]
    assert built == list(CATALOG_SPECS)
    assert calls == []


# -- center and semidirect products against their full-table forms ----------

def reference_center(g):
    return np.flatnonzero((g.table == g.table.T).all(axis=1))


def reference_semidirect_table(spec):
    """One row at a time: (a1, h1)(a2, h2) = (a1 act[h1](a2), h1 h2)."""
    act = spec.validate()
    tk, th = spec.kernel.table, spec.acting.table
    nk, nh = len(tk), len(th)
    table = np.empty((nk * nh, nk * nh), dtype=np.uint16)
    for a1 in range(nk):
        for h1 in range(nh):
            row = np.repeat((tk[a1, act[h1]] * nh).astype(np.uint16), nh)
            table[a1 * nh + h1] = row + np.tile(th[h1], nk)
    return table


PRODUCT_SPECS = ("q8q8_diag_c3", "heisenberg_affine(3)", "twisted_affine(2,3,1)",
                 "twisted_affine(3,2,1)", "direct(SL2(3),SL2(3))",
                 "direct(AGL(1,4),cyclic(5))")


def test_center_and_products_match_full_table_forms(monkeypatch):
    made = []
    original = groups_module.semidirect_product

    def recorded(spec, name=None):
        out = original(spec, name=name)
        made.append((spec, out[0]))
        return out

    monkeypatch.setattr(groups_module, "semidirect_product", recorded)
    monkeypatch.setattr(families_module, "semidirect_product", recorded)
    built = [g for _, g in catalog_groups()] + [parse_family(s) for s in PRODUCT_SPECS]
    built += [families_module.agl1(q) for q in (2, 3, 4, 5, 7, 8, 9, 16)]
    for g in built:
        assert_same_elems(g.center(), reference_center(g))
        assert g.is_abelian() == bool((g.table == g.table.T).all())
    assert len(made) >= len(PRODUCT_SPECS)
    for spec, g in made:
        want = reference_semidirect_table(spec)
        assert g.table.dtype == want.dtype and np.array_equal(g.table, want)


# -- the semidirect action check against its former pair-by-pair loop -------

def reference_action_check(spec):
    """Per h the permutation check and then the automorphism check, then
    the homomorphism check pair by pair. The first message, or None."""
    nk, nh = spec.kernel.order, spec.acting.order
    act = np.asarray(spec.action, dtype=np.int64)
    if act.shape != (nh, nk):
        return "action table has wrong shape"
    if not np.array_equal(act[0], np.arange(nk)):
        return "identity must act trivially"
    tk = spec.kernel.table
    for h in range(nh):
        ph = act[h]
        if not np.array_equal(np.sort(ph), np.arange(nk)):
            return f"action of {h} is not a permutation"
        if not np.array_equal(ph[tk], tk[np.ix_(ph, ph)]):
            return f"action of {h} is not an automorphism"
    th = spec.acting.table
    for h1 in range(nh):
        for h2 in range(nh):
            if not np.array_equal(act[th[h1, h2]], act[h1][act[h2]]):
                return "action is not a homomorphism"
    return None


def corrupted_actions(act, rng, per_kind):
    """Seeded corruptions of a valid action: a repeated entry (not a
    permutation), two swapped non-identity images (a permutation, seldom an
    automorphism), two swapped rows (automorphisms, not a homomorphism), an
    edited identity row, mixtures of the first three, and several rows with
    swapped images, so that the smallest failing h must be found."""
    nh, nk = act.shape
    inner = np.arange(1, nk)

    def repeat(t):
        h, (x, y) = rng.integers(1, nh), rng.choice(nk, 2, replace=False)
        t[h, x] = t[h, y]

    def swap_images(t):
        h, (x, y) = rng.integers(1, nh), rng.choice(inner, 2, replace=False)
        t[h, [x, y]] = t[h, [y, x]]

    def swap_rows(t):
        h1, h2 = rng.choice(np.arange(1, nh), 2, replace=False)
        t[[h1, h2]] = t[[h2, h1]]

    kinds = (repeat, swap_images, swap_rows)
    for i in range(per_kind):
        for kind in kinds:
            t = act.copy()
            kind(t)
            yield t
        t = act.copy()
        t[0, rng.choice(inner, 2, replace=False)] = t[0, [2, 1]]
        yield t
        t = act.copy()
        for _ in range(2 + i % 3):
            kinds[rng.integers(0, 3)](t)
        yield t
        t = act.copy()
        for _ in range(2 + i % 3):
            swap_images(t)
        yield t


ACTION_SPECS = ("twisted_affine(2,3,1)", "heisenberg_affine(3)", "metacyclic(7,3,2)",
                "metacyclic(9,6,2)", "q8q8_diag_c3", "direct(AGL(1,4),cyclic(5))")


@pytest.mark.parametrize("block", [None, 1])
def test_action_check_matches_pair_loop(block, monkeypatch):
    """Also with one h per block (block 1), so that the offset of the
    failing h inside a later block is exercised."""
    if block is not None:
        monkeypatch.setattr(groups_module, "BLOCK_CELLS", block)
    made = []
    original = groups_module.semidirect_product

    def recorded(spec, name=None):
        made.append(spec)
        return original(spec, name=name)

    monkeypatch.setattr(groups_module, "semidirect_product", recorded)
    monkeypatch.setattr(families_module, "semidirect_product", recorded)
    for s in ACTION_SPECS:
        parse_family(s)
    specs = [spec for spec in made if spec.acting.order > 2 and spec.kernel.order > 2]
    assert len(specs) > len(ACTION_SPECS)
    rng = np.random.default_rng(1414)
    seen = Counter()
    for spec in specs:
        valid = np.array(spec.action)
        assert reference_action_check(spec) is None
        assert np.array_equal(spec.validate(), valid)
        for t in corrupted_actions(valid, rng, per_kind=4):
            bad = dataclasses.replace(spec, action=t)
            want = reference_action_check(bad)
            seen[want.split(" is not ")[-1] if want else want] += 1
            if want is None:
                assert np.array_equal(bad.validate(), t)
                continue
            with pytest.raises(UnsupportedInputError) as err:
                bad.validate()
            assert str(err.value) == want
    assert set(seen) >= {"identity must act trivially", "a permutation",
                         "an automorphism", "a homomorphism"}


# -- narrow tables: uint16 up to 2**16 elements, the values unchanged --------

# sha256 of each table as little-endian int64 bytes, recorded while tables
# were int32: every catalog group, the seven groups of the relabeled-table
# benchmark and the order-3840 witness group
TABLE_DIGESTS = json.loads((Path(__file__).parent / "table_digests.json").read_text())


def test_table_digests_cover_the_catalog():
    assert set(CATALOG_SPECS) < set(TABLE_DIGESTS)
    assert "twisted_affine(2,4,1)" in TABLE_DIGESTS


@pytest.mark.parametrize("spec", list(TABLE_DIGESTS))
def test_tables_are_uint16_with_the_int32_values(spec):
    g = parse_family(spec, max_order=4000)
    assert g.table.dtype == np.uint16 and g.inv.dtype == np.uint16
    wide = np.asarray(g.table, dtype="<i8")
    assert hashlib.sha256(wide.tobytes()).hexdigest() == TABLE_DIGESTS[spec]
    assert np.array_equal(g.inv, np.argmin(wide, axis=1))


def test_quotient_and_subgroup_tables_are_uint16_with_the_int64_values():
    g = parse_family("central(SL2(3),SL2(3))")
    t = np.asarray(g.table, dtype=np.int64)
    # the former int64 forms: searchsorted of coset minima, of the elements
    kernel = g.center()
    coset_min = t[:, kernel].min(axis=1)
    reps = np.unique(coset_min)
    q = g.quotient(kernel).group
    assert q.table.dtype == np.uint16
    assert np.array_equal(q.table, np.searchsorted(reps, coset_min)[t[np.ix_(reps, reps)]])
    elems = g.derived_subgroup()
    sub, _ = g.subgroup_as_group(elems)
    assert sub.table.dtype == np.uint16
    assert np.array_equal(sub.table, np.searchsorted(elems, t[np.ix_(elems, elems)]))


def test_table_dtype_is_uint16_up_to_two_to_the_sixteen():
    for n in (1, 3840, 1 << 16):
        assert table_dtype(n) == np.uint16
    for n in ((1 << 16) + 1, 1 << 20):
        assert table_dtype(n) == np.int32


@pytest.mark.parametrize("big", [65536, 65537, 65539])
def test_range_check_runs_before_narrowing(big):
    table = cyclic_table(4)
    table[1, (big - 1) % 4] = big  # (1 + j) mod 4 == big mod 2**16
    assert np.array_equal(table.astype(np.uint16), cyclic_table(4))
    for arg in (table, table.tolist()):
        with pytest.raises(UnsupportedInputError, match="out of range"):
            FiniteGroup(arg)
