"""Group machinery against textbook facts and brute-force recomputation."""

import hashlib
import json
import tracemalloc
from collections import Counter
from functools import reduce
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from soclelab import families as families_module
from soclelab import groups as groups_module
from soclelab.catalog import CATALOG_SPECS, catalog_groups
from soclelab.errors import ConsistencyError, InapplicableError, UnsupportedInputError
from soclelab.families import parse_family
from soclelab.groups import (FiniteGroup, _checked_action, central_product,
                             direct_product, find_isomorphism, groups_isomorphic,
                             int_p_part, memoized, prime_factors, table_dtype)


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
    assert g.center().size == g.order
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


def derived_series(g):
    """G, G', G'', ... down to the first term that repeats."""
    series = [np.arange(g.order)]
    while (nxt := g.sub_derived(series[-1])).size < series[-1].size:
        series.append(nxt)
    return series


def test_sym4_derived_series():
    g = parse_family("sym(4)")
    series = [s.size for s in derived_series(g)]
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


# -- element operations on arrays against their int forms --------------------

BROADCAST_GROUPS = list(catalog_groups()) + [("cyclic(1)", parse_family("cyclic(1)"))]


@pytest.mark.parametrize("spec,g", BROADCAST_GROUPS, ids=[s for s, _ in BROADCAST_GROUPS])
def test_element_operations_broadcast_as_ints(spec, g):
    """conj, commutator and power on arrays equal their int results element
    by element, as do centralizer, with and without within, and commute
    against the pairwise products; int inputs give ints, empty arrays give
    empty arrays."""
    n, rng = g.order, np.random.default_rng(g.order)
    every, some = np.arange(n), rng.choice(g.order, size=min(n, 6), replace=False)
    conj, comm = g.conj(some[:, None], every), g.commutator(some[:, None], every)
    assert conj.shape == comm.shape == (some.size, n)
    for row, a in enumerate(some.tolist()):
        assert conj[row].tolist() == [g.conj(a, x) for x in range(n)]
        assert comm[row].tolist() == [g.commutator(a, x) for x in range(n)]
    for k in {-1, 0, 1, 7, *(prime_factors(n) or [2])}:
        assert g.power(every, k).tolist() == [g.power(x, k) for x in range(n)]
        assert g.power(some[:, None], k).shape == (some.size, 1)
    for x in (n - 1, np.int64(n - 1), g.inv[n - 1]):
        assert type(g.conj(x, x)) is type(g.commutator(x, x)) is type(g.power(x, -1)) is int

    def commuting(x, elems):
        return all(g.mul(x, e) == g.mul(e, x) for e in elems)

    empty = np.array([], dtype=np.int64)
    assert g.conj(empty, empty).shape == g.commutator(empty, 0).shape == (0,)
    assert g.power(empty, -1).shape == g.power(empty, 0).shape == (0,)
    for elems in (some[:2].tolist(), g.generators(), []):
        for within in (None, rng.integers(0, n, size=n // 2 + 1), empty):
            cands = range(n) if within is None else sorted(set(within.tolist()))
            want = [x for x in cands if commuting(x, elems)]
            got = g.centralizer(elems, within=within)
            assert got.dtype == np.int64 and got.tolist() == want
    subsets = [empty, g.center()[:8], some[:3], g.derived_subgroup()[:5]]
    for a in subsets:
        for b in subsets:
            want = all(commuting(x, b.tolist()) for x in a.tolist())
            assert g.commute(a, b) == want


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
    assert qm.group.center().size < qm.group.order
    # projection is a homomorphism
    rng = np.random.default_rng(5)
    for _ in range(30):
        a, b = map(int, rng.integers(0, 24, size=2))
        assert qm.proj[g.mul(a, b)] == qm.group.mul(int(qm.proj[a]),
                                                    int(qm.proj[b]))


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
    comp = g.hall_complement(2)
    assert comp is not None and comp.size == 3
    syl3 = g.sylow_subgroup(3)
    assert syl3.size == 3
    assert not g.is_normal(syl3)


def reference_hall_complement(g, p, sylow):
    """Depth-first search over p'-subgroups, larger element orders first,
    backtracking when a branch cannot reach order |G| / |sylow|."""
    m = g.order // sylow.size
    orders = g.element_orders()
    pprime = [x for x in range(1, g.order) if int(orders[x]) % p != 0]
    pprime.sort(key=lambda x: (-int(orders[x]), x))
    seen = set()

    def extend(cur):
        if cur.size == m:
            return cur
        mask = np.zeros(g.order, dtype=bool)
        mask[cur] = True
        for y in pprime:
            if mask[y]:
                continue
            new = g.subgroup_closure(list(cur) + [y])
            if new.size % p == 0 or m % new.size or new.tobytes() in seen:
                continue
            seen.add(new.tobytes())
            got = extend(new)
            if got is not None:
                return got
        return None

    return extend(np.array([0], dtype=np.int64))


HALL_EXTRA_SPECS = ("twisted_affine(2,3,1)", "twisted_affine(3,2,1)",
                    "direct(AGL(1,16),cyclic(3))")


def test_hall_complement_matches_search_for_normal_sylow(witness_group):
    """With a normal Sylow subgroup the greedy pass is the search's first
    branch, on every such (group, p) of the catalog and four larger groups."""
    groups = [g for _, g in catalog_groups()]
    groups += [parse_family(s, max_order=4000) for s in HALL_EXTRA_SPECS]
    groups.append(witness_group)
    pairs = 0
    for g in groups:
        for p in prime_factors(g.order):
            syl = g.sylow_subgroup(p)
            if g.is_normal(syl):
                assert_same_elems(g.hall_complement(p),
                                  reference_hall_complement(g, p, syl))
                pairs += 1
    assert pairs == 53


def test_hall_complement_needs_a_normal_sylow():
    # sym(5) at p = 5: the search finds an S4, the greedy pass ends short
    g = parse_family("sym(5)")
    syl = g.sylow_subgroup(5)
    assert not g.is_normal(syl)
    assert reference_hall_complement(g, 5, syl).size == 24
    assert g.hall_complement(5) is None


def test_cores_and_residuals():
    g = direct_product(parse_family("sl2(3)"), parse_family("cyclic(5)"))
    assert g.p_prime_core(2).size == 5
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
    g = direct_product(a, b)
    ea, eb = np.arange(a.order), np.arange(b.order) * a.order  # x -> x, y -> y |a|
    assert g.order == 24
    for x in ea:
        for y in eb:
            assert g.mul(int(x), int(y)) == g.mul(int(y), int(x))


def test_central_product_identifies_centers():
    q8 = parse_family("q8")
    g = central_product(q8, q8)
    assert g.order == 32  # 8 * 8 / 2
    assert g.center().size == 2


def test_isomorphism_search():
    c6a = parse_family("cyclic(6)")
    c6b = direct_product(parse_family("cyclic(2)"), parse_family("cyclic(3)"))
    iso = find_isomorphism(c6a, c6b)
    assert iso is not None
    for a in range(6):
        for b in range(6):
            assert iso[c6a.mul(a, b)] == c6b.mul(int(iso[a]), int(iso[b]))
    assert groups_isomorphic(parse_family("dihedral(3)"), parse_family("sym(3)"))
    assert not groups_isomorphic(parse_family("q8"), parse_family("dihedral(4)"))


SMALL_CATALOG = [(spec, g) for spec, g in catalog_groups() if g.order <= 200]


# -- the former backtracking isomorphism search, kept as the reference --------

def reference_fingerprint(g):
    orders = g.element_orders()
    hist = tuple(sorted(((int(o), int(c)) for o, c in
                         zip(*np.unique(orders, return_counts=True)))))
    sizes = tuple(sorted(c.size for c in g.conjugacy_classes()))
    series = tuple(int(s.size) for s in derived_series(g))
    return (g.order, sizes, hist, series, int(g.center().size))


def hom_from_images(src, gens, dst, imgs):
    """Extend gens -> imgs to a homomorphism on <gens>, or None on conflict."""
    fmap = {0: 0}
    order = [0]
    qi = 0
    ts, td = src.table, dst.table
    while qi < len(order):
        u = order[qi]
        qi += 1
        fu = fmap[u]
        for g, fg in zip(gens, imgs):
            v = int(ts[u, g])
            fv = int(td[fu, fg])
            known = fmap.get(v)
            if known is None:
                fmap[v] = fv
                order.append(v)
            elif known != fv:
                return None
    return fmap


def element_invariants(g):
    """(order, class size, class size of the square) of each element."""
    cls_of = g.class_index_of()
    sizes = np.bincount(cls_of)[cls_of]
    sq = g.table[np.arange(g.order), np.arange(g.order)]
    return list(zip(g.element_orders().tolist(), sizes.tolist(), sizes[sq].tolist()))


def reference_find_isomorphism(a, b):
    """Recursive backtracking over the greedy generators, each partial map
    extended through a dict; it was used up to order 512."""
    if a.order != b.order:
        return None
    if a.order == 1:
        return {0: 0}
    if reference_fingerprint(a) != reference_fingerprint(b):
        return None
    gens = a.generators()
    inv_a = element_invariants(a)
    inv_b = element_invariants(b)
    buckets = {}
    for x in range(b.order):
        buckets.setdefault(inv_b[x], []).append(x)
    cand = [buckets.get(inv_a[g], []) for g in gens]
    if any(not c for c in cand):
        return None

    def assign(i, imgs):
        if i == len(gens):
            return None
        for y in cand[i]:
            trial = hom_from_images(a, gens[: i + 1], b, imgs + [y])
            if trial is None:
                continue
            if len(trial) == a.order:
                if len(set(trial.values())) == a.order:
                    return trial
                continue
            got = assign(i + 1, imgs + [y])
            if got is not None:
                return got
        return None

    return assign(0, [])


def relabeled_group(g, seed):
    """g on a seeded random relabeling of its elements that keeps 0 at 0."""
    rng = np.random.default_rng(seed)
    perm = np.concatenate([[0], 1 + rng.permutation(g.order - 1)])
    table = np.empty((g.order, g.order), dtype=np.int64)
    table[np.ix_(perm, perm)] = perm[g.table]
    return FiniteGroup(table, name=f"{g.name}_relabeled")


def assert_isomorphism(a, b, f):
    """f is an int64 bijection a -> b with f[x y] = f[x] f[y] on the whole table."""
    assert f is not None and f.dtype == np.int64
    assert np.array_equal(np.sort(f), np.arange(b.order))
    assert np.array_equal(f[a.table], b.table[f][:, f])


def direct_of(*specs):
    return reduce(direct_product, [parse_family(s) for s in specs])


EQUAL_ORDER_PAIRS = [(s, t) for (s, g), (t, h) in combinations(catalog_groups(), 2)
                     if g.order == h.order]


@pytest.mark.parametrize("spec_a,spec_b", EQUAL_ORDER_PAIRS,
                         ids=[f"{s}~{t}" for s, t in EQUAL_ORDER_PAIRS])
def test_isomorphism_verdict_matches_backtracking(spec_a, spec_b):
    a, b = parse_family(spec_a), parse_family(spec_b)
    f = find_isomorphism(a, b)
    assert (f is not None) == (reference_find_isomorphism(a, b) is not None)
    if f is not None:
        assert_isomorphism(a, b, f)


@pytest.mark.parametrize("spec,g", SMALL_CATALOG, ids=[s for s, _ in SMALL_CATALOG])
def test_isomorphism_to_a_relabeling(spec, g):
    h = relabeled_group(g, seed=g.order * 31 + len(spec))
    assert_isomorphism(g, h, find_isomorphism(g, h))


def test_isomorphism_of_witness_group(witness_group):
    h = relabeled_group(witness_group, seed=3840)
    assert_isomorphism(witness_group, h, find_isomorphism(witness_group, h))
    other = parse_family("twisted_affine(2,4,3)", max_order=4000)
    assert_isomorphism(witness_group, other, find_isomorphism(witness_group, other))


def test_isomorphism_of_relabeled_agl_1_27():
    g = parse_family("agl(1,27)")
    h = relabeled_group(g, seed=27)
    assert_isomorphism(g, h, find_isomorphism(g, h))
    assert not groups_isomorphic(parse_family("cyclic(702)"), h)


@pytest.mark.parametrize("rest", [("cyclic(3)", "cyclic(3)", "cyclic(7)"), ("cyclic(32)",),
                                  ("cyclic(2)",) * 5],
                         ids=["order1008", "order512-c32", "order512-c2^5"])
def test_equal_invariants_but_not_isomorphic(rest):
    """Q8 x C2 and M(4,4,3) = C4 x| C4 are not isomorphic, and neither are
    their products with the same group. At order 1008 every invariant the
    former above-512 comparison used agrees."""
    a = direct_of("quaternion(8)", "cyclic(2)", *rest)
    b = direct_of("metacyclic(4,4,3)", *rest)
    assert a.order == b.order
    if a.order > 512:
        assert reference_fingerprint(a) == reference_fingerprint(b)
    assert find_isomorphism(a, b) is None
    assert not groups_isomorphic(a, b)


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
    g2 = direct_product(parse_family("agl(1,5)"), parse_family("cyclic(3)"))
    assert not g2.is_frobenius_with_kernel(g2.derived_subgroup())


def reference_is_frobenius(g, kernel):
    """One full centralizer for every nonidentity element of the kernel."""
    k = np.unique(np.asarray(kernel, dtype=np.int64))
    if k.size <= 1 or k.size == g.order or not g.is_normal(k):
        return False
    kmask = g.mask(k)
    return all(kmask[g.centralizer(int(x))].all() for x in k if x)


def test_frobenius_check_matches_per_element_reference(witness_group):
    groups = [g for _, g in catalog_groups()]
    groups.append(witness_group)
    seen = Counter()
    for g in groups:
        der = g.derived_subgroup()
        want = reference_is_frobenius(g, der)
        assert g.is_frobenius_with_kernel(der) == want, g.name
        seen[want] += 1
    assert seen[True] and seen[False]


def reference_sub_center(g, elems):
    """Reference: Z(H) as the elements of H commuting with all of H."""
    return g.centralizer(elems, within=elems)


def test_sub_center_from_generators_matches_all_elements(witness_group):
    groups = [g for _, g in catalog_groups()]
    groups.append(witness_group)
    proper = 0
    for g in groups:
        subs = [g.derived_subgroup()] + [g.sylow_subgroup(p) for p in prime_factors(g.order)]
        for h in subs:
            got = g.sub_center(h)
            assert_same_elems(got, reference_sub_center(g, h))
            proper += 1 < got.size < h.size
    assert proper  # some subgroup with a center neither trivial nor all of it


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


# the products below have non-normal Sylow subgroups, and on several of
# them the ascent's choice of element differs from the reference's
SYLOW_EXTRA = ("twisted_affine(2,4,1)", "sym(5)", "sym(6)", "dihedral(300)", "agl(1,32)",
               "twisted_affine(3,2,1)", "cyclic(101)", "abelian(2,4,8)", "abelian(4,4)",
               "direct(sym(3),abelian(4,4))", "direct(abelian(4,4),sym(3))",
               "direct(dihedral(8),sym(3))", "direct(sym(4),cyclic(4))",
               "direct(cyclic(8),sym(4))", "direct(quaternion(16),sym(3))",
               "direct(alt(4),abelian(2,4))")
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
    g._memo[("element_orders",)] = np.where(np.arange(g.order) == 0, 1, 3)
    with pytest.raises(ConsistencyError, match="Sylow ascent found no extension"):
        g.sylow_subgroup(2)


# -- the ascents that re-closed element lists, kept as references -------------

def list_sylow(g, p):
    """The Sylow ascent that re-closed list(s) + [c] at each step, with a
    second membership mask beside s."""
    pk = int_p_part(g.order, p)
    if pk == 1:
        return np.array([0], dtype=np.int64)
    orders, t, inv = g.element_orders(), g.table, g.inv
    pp = np.ones(g.order, dtype=np.int64)
    while (m := orders % (pp * p) == 0).any():
        pp[m] *= p
    s = g.subgroup_closure([g.element_p_part(int(pp.argmax()), p)])
    mask = np.zeros(g.order, dtype=bool)
    while s.size < pk:
        mask[s] = True
        c = next(c for c in (~mask & (pp == orders)).nonzero()[0]
                 if mask[t[t[c, s], inv[c]]].all())
        s = g.subgroup_closure(list(s) + [c])
    return s


def list_hall(g, p):
    """The Hall pass that scanned y not in cur and re-closed list(cur) + [y]."""
    m = g.order // list_sylow(g, p).size
    orders = g.element_orders()
    pprime = [x for x in range(1, g.order) if int(orders[x]) % p != 0]
    pprime.sort(key=lambda x: (-int(orders[x]), x))
    cur = np.array([0], dtype=np.int64)
    for y in pprime:
        if cur.size == m:
            break
        if y not in cur:
            new = g.subgroup_closure(list(cur) + [y])
            if new.size % p:
                cur = new
    return cur if cur.size == m else None


def products_core(g, p):
    """The p'-core whose closure was checked on all |K|^2 products."""
    good = g.element_orders() % p != 0
    inside = g.mask([0])
    for x in (int(c[0]) for c in g.conjugacy_classes()):
        if not inside[x] and good[x]:
            nc = g.normal_closure([x])
            if good[nc].all():
                inside[nc] = True
    core = np.flatnonzero(inside)
    assert inside[g.table[np.ix_(core, core)]].all()
    return core


def ascent_pairs():
    for spec, g in catalog_groups():
        for p in prime_factors(g.order):
            yield pytest.param(g, p, id=f"{spec}-{p}")
    for p in (2, 3, 5):
        yield pytest.param("witness", p, id=f"witness-{p}")


@pytest.mark.parametrize("g,p", ascent_pairs())
def test_grown_ascents_match_the_list_ascents(g, p, witness_group):
    """sylow_subgroup, hall_complement and p_prime_core grow one mask with
    _grow; the sets and their greedy choices are those of the ascents that
    re-closed whole element lists."""
    g = witness_group if g == "witness" else g
    assert_same_elems(g.sylow_subgroup(p), list_sylow(g, p))
    got, want = g.hall_complement(p), list_hall(g, p)
    assert (got is None) == (want is None)
    if want is not None:
        assert_same_elems(got, want)
    assert_same_elems(g.p_prime_core(p), products_core(g, p))


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


def reference_core(g, p):
    """Join the normal closures of class representatives that hold only
    p'-elements, re-closing after each one."""
    orders = g.element_orders()

    def good(x):
        return int(orders[x]) % p != 0

    acc = np.array([0], dtype=np.int64)
    gset = set()
    for rep in (int(c[0]) for c in g.conjugacy_classes()):
        if rep in set(acc.tolist()) or not good(rep):
            continue
        nc = reference_normal_closure(g, [rep])
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
        if not np.array_equal(classes[int(cls_of[x])], np.sort(g.table[x, der])):
            return False
    return True


def normal_closure_seeds(g, rng):
    """Every class representative, seeded element sets and subgroups."""
    seeds = [[], [0], [int(c[0]) for c in g.conjugacy_classes()]]
    seeds += [[int(c[0])] for c in g.conjugacy_classes()]
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
        subgroups = derived_series(grp) + [grp.sylow_subgroup(p)
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
            assert_same_elems(grp.p_prime_core(p), reference_core(grp, p))
        assert grp.is_camina() == reference_is_camina(grp)


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(FiniteGroup, name)

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, name, counted)
    return calls


def test_memoized_runs_once_per_argument_tuple_and_keeps_its_error():
    calls = []

    class Holder:
        def __init__(self):
            self._memo = {}

        @memoized
        def fact(self, p, q=1):
            calls.append((p, q))
            if p == 0:
                raise InapplicableError(f"no fact at {p}")
            return [p, q]

    h = Holder()
    assert h.fact(2) is h.fact(2) and h.fact(2, 5) == [2, 5] and h.fact(3) == [3, 1]
    assert calls == [(2, 1), (2, 5), (3, 1)]
    raised = []
    for _ in range(3):
        with pytest.raises(InapplicableError, match="^no fact at 0$") as err:
            h.fact(0)
        assert type(err.value) is InapplicableError
        raised.append(err.value)
    assert calls[3:] == [(0, 1)]
    kept = h._memo[("fact", 0)]
    assert type(kept) is InapplicableError and kept.args == ("no fact at 0",)
    assert kept.__traceback__ is None
    assert len({id(e) for e in raised + [kept]}) == 4


def test_core_is_memoized(monkeypatch):
    g = parse_family("direct(SL2(3),cyclic(5))")
    first = g.p_prime_core(2)
    calls = count_calls(monkeypatch, "normal_closure")
    assert_same_elems(g.p_prime_core(2), first)
    assert calls == []
    assert g.p_prime_core(3).size == 40 and len(calls) > 0


def test_normal_closure_is_one_subgroup_closure(monkeypatch):
    g = parse_family("sym(4)")
    g.conjugacy_classes()
    calls = count_calls(monkeypatch, "subgroup_closure")
    for seed in ([1], [0], [], [5, 7], g.sylow_subgroup(3)):
        calls.clear()
        g.normal_closure(seed)
        assert len(calls) == 1


# -- the former greedy loops of the closure, kept as references --------------

def former_closure_kept(g, gens):
    """The former subgroup_closure loop: walk the sorted generators and
    grow by each one not yet in the closure."""
    seen, kept = g.mask([0]), []
    for x in g.element_set(gens).tolist():
        if not seen[x]:
            g._grow(seen, kept, x)
    return seen, kept


def former_sub_generators(g, elems):
    """The former sub_generators loop: grow by the smallest element not yet
    generated, and stop as soon as the closure leaves the set."""
    inside, have, gens = g.mask(elems), g.mask([0]), []
    while (rest := np.flatnonzero(inside & ~have)).size:
        g._grow(have, gens, int(rest[0]))
        if (have & ~inside).any():
            raise UnsupportedInputError("element set is not a subgroup")
    return gens


def test_closure_matches_the_former_loops():
    """sub_generators on the derived subgroup, center and Sylow subgroups of
    every catalog group, and the closure of seeded generator sets, against
    the former loops; a set that is not a subgroup fails in both."""
    rng = np.random.default_rng(2711)
    compared = rejected = 0
    for _, g in catalog_groups():
        subgroups = [g.derived_subgroup(), g.center()]
        subgroups += [g.sylow_subgroup(p) for p in prime_factors(g.order)]
        for h in subgroups:
            assert g.sub_generators(h) == former_sub_generators(g, h)
            compared += 1
        for size in (1, 3, 20):
            gens = rng.integers(0, g.order, size=size)
            seen, kept = g._closure(gens)
            want_seen, want_kept = former_closure_kept(g, gens)
            assert np.array_equal(seen, want_seen) and kept == want_kept
            assert np.array_equal(g.subgroup_closure(gens), np.flatnonzero(want_seen))
        odd = np.array([0, g.order - 1, g.order - 2])
        if not g.is_subgroup(odd):
            for run in (g.sub_generators, lambda e: former_sub_generators(g, e)):
                with pytest.raises(UnsupportedInputError, match="not a subgroup"):
                    run(odd)
            rejected += 1
    assert (compared, rejected) == (176, 44)


def test_sub_generators_rejects_a_non_subgroup():
    g = parse_family("sym(4)")
    three = g.sylow_subgroup(3)
    with pytest.raises(UnsupportedInputError, match="not a subgroup"):
        g.sub_generators(three[:2])
    with pytest.raises(UnsupportedInputError, match="not a subgroup"):
        g.sub_generators(np.union1d(three, g.sylow_subgroup(2)))
    assert g.sub_generators([0]) == []


@pytest.mark.parametrize("block", [None, 1])
def test_subgroup_check_rejects_what_is_not_a_subgroup(block, monkeypatch):
    """The subgroup test is is_subgroup: the set is a subgroup iff its
    closure adds nothing. At the minimum block budget every blockwise loop
    that quotient runs takes one row at a time."""
    if block:
        monkeypatch.setattr(groups_module, "BLOCK_BYTES", block)
    g = parse_family("sym(4)")
    three = g.sylow_subgroup(3)
    with pytest.raises(UnsupportedInputError, match="must contain the identity"):
        g.subgroup_as_group(three[1:])
    with pytest.raises(UnsupportedInputError, match="not closed under the product"):
        g.quotient(np.union1d(three, g.sylow_subgroup(2)))
    assert g.subgroup_as_group(g.sylow_subgroup(2))[0].order == 8


def test_closure_check_peaks_below_the_table():
    """quotient tests that its kernel is closed by growing the kernel's
    closure, which gathers a frontier's products with the few generators
    kept so far, and takes the coset minima a block of rows at a time:
    dividing dihedral(256) by itself peaks below the 0.52 MB table (one
    gather of all |K|^2 products and its bool lookup took 0.86 MB)."""
    g = parse_family("dihedral(256)")
    tracemalloc.start()
    try:
        qm = g.quotient(np.arange(g.order))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert qm.group.order == 1
    assert peak < g.table.nbytes


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
    """One row at a time: (a1, h1)(a2, h2) = (a1 act[h1](a2), h1 h2), for
    spec = (kernel, acting, action)."""
    act = _checked_action(*spec)
    tk, th = spec[0].table, spec[1].table
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


def identity_action_spec(a, b):
    """a x b as the semidirect product b x| a with the identity action."""
    act = np.broadcast_to(np.arange(b.order, dtype=np.int64), (a.order, b.order))
    return b, a, np.ascontiguousarray(act)


def test_center_and_products_match_full_table_forms(monkeypatch):
    """Direct products too, against the semidirect product with the
    identity action: the same table, byte for byte."""
    made = []
    original = groups_module.semidirect_product
    original_direct = groups_module.direct_product

    def recorded(kernel, acting, action, name=None):
        out = original(kernel, acting, action, name=name)
        made.append(((kernel, acting, action), out))
        return out

    def recorded_direct(a, b, name=None):
        out = original_direct(a, b, name=name)
        made.append((identity_action_spec(a, b), out))
        return out

    monkeypatch.setattr(groups_module, "semidirect_product", recorded)
    monkeypatch.setattr(families_module, "semidirect_product", recorded)
    monkeypatch.setattr(groups_module, "direct_product", recorded_direct)
    monkeypatch.setattr(families_module, "direct_product", recorded_direct)
    built = [g for _, g in catalog_groups()] + [parse_family(s) for s in PRODUCT_SPECS]
    built += [families_module.agl1(q) for q in (2, 3, 4, 5, 7, 8, 9, 16)]
    for g in built:
        assert_same_elems(g.center(), reference_center(g))
        assert (g.center().size == g.order) == bool((g.table == g.table.T).all())
    assert len(made) >= len(PRODUCT_SPECS)
    for spec, g in made:
        want = reference_semidirect_table(spec)
        assert g.table.dtype == want.dtype and np.array_equal(g.table, want)
    # the byte budget at its minimum: one acting element per block of the fill
    monkeypatch.setattr(groups_module, "BLOCK_BYTES", 1)
    for spec, g in made:
        assert np.array_equal(original(*spec).table, g.table)


def test_semidirect_build_peaks_near_its_table():
    """The product's table is filled a block of acting elements at a time:
    building the order-3840 witness holds no table-sized temporary beside
    its 29.5 MB table (one broadcast of all acting elements took 4.1 MB)."""
    tracemalloc.start()
    try:
        g = parse_family("twisted_affine(2,4,1)", max_order=4000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - g.table.nbytes < 1_000_000


# -- coset minima against the full-table copies they replaced ----------------

COSET_SPECS = ("sym(4)", "sl2(3)", "dihedral(300)", "agl(1,32)",
               "direct(dihedral(16),quaternion(16))", "central(SL2(3),SL2(3))")


@pytest.mark.parametrize("block", [None, 1])
def test_coset_minima_match_full_copies(block, monkeypatch):
    """coset_min and the quotient against the copies of |H| rows or columns
    of the table, also with the byte budget at its minimum (block 1), one
    row per block, on normal subgroups from the identity to the group."""
    if block is not None:
        monkeypatch.setattr(groups_module, "BLOCK_BYTES", block)
    for spec in COSET_SPECS:
        g = parse_family(spec)
        t = np.asarray(g.table, dtype=np.int64)
        normal = [np.array([0]), g.center(), g.derived_subgroup(), np.arange(g.order)]
        normal += [s for p in prime_factors(g.order)
                   if g.is_normal(s := g.sylow_subgroup(p))]
        for h in normal:
            got = g.coset_min(h)
            assert got.dtype == g.table.dtype
            assert np.array_equal(got, t[h, :].min(axis=0))
            assert np.array_equal(got, t[:, h].min(axis=1))
            q = g.quotient(h)
            reps = np.unique(got)
            assert np.array_equal(q.group.table,
                                  np.searchsorted(reps, got)[t[np.ix_(reps, reps)]])


# -- the semidirect action check against its former pair-by-pair loop -------

def reference_action_check(spec):
    """Per h the permutation check and then the automorphism check, then
    the homomorphism check pair by pair, for spec = (kernel, acting,
    action). The first message, or None."""
    kernel, acting, action = spec
    nk, nh = kernel.order, acting.order
    act = np.asarray(action, dtype=np.int64)
    if act.shape != (nh, nk):
        return "action table has wrong shape"
    if not np.array_equal(act[0], np.arange(nk)):
        return "identity must act trivially"
    tk = kernel.table
    for h in range(nh):
        ph = act[h]
        if not np.array_equal(np.sort(ph), np.arange(nk)):
            return f"action of {h} is not a permutation"
        if not np.array_equal(ph[tk], tk[np.ix_(ph, ph)]):
            return f"action of {h} is not an automorphism"
    th = acting.table
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
                "metacyclic(9,6,2)", "q8q8_diag_c3", "metacyclic(13,4,5)")


@pytest.mark.parametrize("block", [None, 1])
def test_action_check_matches_pair_loop(block, monkeypatch):
    """Also with the byte budget at its minimum (block 1), one h per block,
    so that the offset of the failing h inside a later block is exercised."""
    if block is not None:
        monkeypatch.setattr(groups_module, "BLOCK_BYTES", block)
    made = []
    original = groups_module.semidirect_product

    def recorded(kernel, acting, action, name=None):
        made.append((kernel, acting, action))
        return original(kernel, acting, action, name=name)

    monkeypatch.setattr(groups_module, "semidirect_product", recorded)
    monkeypatch.setattr(families_module, "semidirect_product", recorded)
    for s in ACTION_SPECS:
        parse_family(s)
    made.append(identity_action_spec(parse_family("AGL(1,4)"), parse_family("cyclic(5)")))
    specs = [spec for spec in made if spec[1].order > 2 and spec[0].order > 2]
    assert len(specs) > len(ACTION_SPECS)
    rng = np.random.default_rng(1414)
    seen = Counter()
    for spec in specs:
        valid = np.array(spec[2])
        assert reference_action_check(spec) is None
        assert np.array_equal(_checked_action(*spec), valid)
        for t in corrupted_actions(valid, rng, per_kind=4):
            bad = (*spec[:2], t)
            want = reference_action_check(bad)
            seen[want.split(" is not ")[-1] if want else want] += 1
            if want is None:
                assert np.array_equal(_checked_action(*bad), t)
                continue
            with pytest.raises(UnsupportedInputError) as err:
                _checked_action(*bad)
            assert str(err.value) == want
    assert set(seen) >= {"identity must act trivially", "a permutation",
                         "an automorphism", "a homomorphism"}


# -- narrow tables: uint16 up to 2**16 elements, the values unchanged --------

# sha256 of each table as little-endian int64 bytes, recorded while tables
# were int32: every catalog group, the seven groups of the relabeled-table
# benchmark and the order-3840 witness group; sym(7), alt(7),
# elementary(2,10) and abelian(2,3,4,5,6) were recorded from the per-row
# permutation tables and the coordinate-loop abelian tables
TABLE_DIGESTS = json.loads((Path(__file__).parent / "table_digests.json").read_text())


def test_table_digests_cover_the_catalog():
    assert set(CATALOG_SPECS) < set(TABLE_DIGESTS)
    assert "twisted_affine(2,4,1)" in TABLE_DIGESTS


@pytest.mark.parametrize("spec", list(TABLE_DIGESTS))
def test_tables_are_uint16_with_the_int32_values(spec):
    g = parse_family(spec, max_order=6000)
    assert g.table.dtype == np.uint16 and g.inv.dtype == np.uint16
    digest = hashlib.sha256()
    for lo in range(0, g.order, 256):  # sym(7) in int64 would take 203 MB at once
        wide = np.asarray(g.table[lo:lo + 256], dtype="<i8")
        digest.update(wide.tobytes())
        assert np.array_equal(g.inv[lo:lo + 256], np.argmin(wide, axis=1))
    assert digest.hexdigest() == TABLE_DIGESTS[spec]


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


def test_table_in_table_dtype_is_adopted_and_frozen():
    table = cyclic_table(12).astype(table_dtype(12))
    g = FiniteGroup(table)
    assert np.shares_memory(g.table, table)
    assert not table.flags.writeable
    # any other dtype or layout is copied, and the caller's array is untouched
    wide = cyclic_table(12)
    assert not np.shares_memory(FiniteGroup(wide).table, wide)
    assert wide.flags.writeable


@pytest.mark.parametrize("big", [65536, 65537, 65539])
def test_range_check_runs_before_narrowing(big):
    table = cyclic_table(4)
    table[1, (big - 1) % 4] = big  # (1 + j) mod 4 == big mod 2**16
    assert np.array_equal(table.astype(np.uint16), cyclic_table(4))
    for arg in (table, table.tolist()):
        with pytest.raises(UnsupportedInputError, match="out of range"):
            FiniteGroup(arg)
