"""Conjugacy classes as plain arrays, and the two ideal tests in class
coordinates, against the element-coordinate forms they replaced.

The four references below are those former implementations, kept as they
were apart from reading classes as arrays: the breadth-first class
computation, the direct ideal test that moves each socle vector in |G|
columns, the criterion that compares coefficients with their G'-coset
minima, and the Camina test that sorts a coset per class.
"""

import numpy as np
import pytest

from soclelab.algebra import CenterAlgebra
from soclelab.catalog import catalog_groups
from soclelab.fplin import Subspace
from soclelab.formats import parse_group_text
from soclelab.groups import prime_factors


def bfs_classes(g):
    """Reference: one breadth-first orbit per class under the generators'
    conjugations. Returns (classes, class index of each element)."""
    n = g.order
    perms = [g.table[g.table[x], g.inv[x]] for x in g.generators()]
    cls_of = np.full(n, -1, dtype=np.int64)
    raw: list[list[int]] = []
    for x in range(n):
        if cls_of[x] >= 0:
            continue
        idx = len(raw)
        orbit = [x]
        cls_of[x] = idx
        qi = 0
        while qi < len(orbit):
            u = orbit[qi]
            qi += 1
            for pm in perms:
                v = int(pm[u])
                if cls_of[v] < 0:
                    cls_of[v] = idx
                    orbit.append(v)
        raw.append(sorted(orbit))
    order_key = sorted(range(len(raw)), key=lambda i: (len(raw[i]), raw[i][0]))
    remap = np.empty(len(raw), dtype=np.int64)
    classes = []
    for new_i, old_i in enumerate(order_key):
        remap[old_i] = new_i
        classes.append(np.array(raw[old_i], dtype=np.int64))
    return classes, remap[cls_of]


def element_direct_test(alg, center_subspace):
    """Reference: each basis vector expanded to |G| columns and moved by
    each generator."""
    full = center_subspace.basis[:, alg.cls_of]
    t, inv = alg.group.table, alg.group.inv
    for g in alg.group.generators():
        moved = full[:, t[inv[g], :]]  # (g y)[u] = y[g^-1 u]
        coeffs = moved[:, alg.reps]
        if not np.array_equal(coeffs[:, alg.cls_of], moved):
            return False
        if not all(center_subspace.contains_vector(c) for c in coeffs):
            return False
    return True


def element_criterion(alg, center_vec):
    """Reference: the expanded coefficients equal those at their G'-coset
    minima."""
    a = alg.expand(center_vec)
    return bool(np.array_equal(a, a[alg.group.coset_min(alg.group.derived_subgroup())]))


def sorted_camina(g):
    """Reference: each class outside G' against the sorted coset of its
    first element."""
    der = g.derived_subgroup()
    mask = g.mask(der)
    for c in g.conjugacy_classes():
        if not mask[c[0]] and not np.array_equal(c, np.sort(g.table[c[0], der])):
            return False
    return True


def relabeled(g, seed):
    """g under a seeded random relabeling, written as a Cayley table and
    read back; the reader moves the identity to 0."""
    t = np.asarray(g.table, dtype=np.int64)
    perm = np.random.default_rng(seed).permutation(g.order)
    table = np.empty_like(t)
    table[np.ix_(perm, perm)] = perm[t]
    rows = "".join(" ".join(map(str, row)) + "\n" for row in table.tolist())
    return parse_group_text(f"cayley {g.order}\n" + rows)[0]


def assert_classes_match(g):
    want, want_of = bfs_classes(g)
    got = g.conjugacy_classes()
    assert len(got) == len(want)
    for c, w in zip(got, want):
        assert c.dtype == np.int64 and not c.flags.writeable
        assert np.array_equal(c, w)
    assert np.array_equal(g.class_index_of(), want_of)
    assert g.is_camina() == sorted_camina(g)


def assert_ideal_tests_match(g, p):
    """Socle, radical, whole center, zero space and seeded random subspaces;
    returns the algebra."""
    alg = CenterAlgebra(g, p)
    rng = np.random.default_rng(g.order * 17 + p)
    spaces = [alg.socle(), alg.jacobson_radical(),
              Subspace(p, alg.k, np.eye(alg.k, dtype=np.int64)), Subspace(p, alg.k)]
    spaces += [Subspace(p, alg.k, rng.integers(0, p, size=(r, alg.k))) for r in (1, 2)]
    for space in spaces:
        assert alg.is_ideal_in_group_algebra(space) == element_direct_test(alg, space)
        assert alg.lies_in_derived_coset_span(space.basis) == all(
            element_criterion(alg, b) for b in space.basis)
    for v in [b for s in spaces for b in s.basis] + list(rng.integers(-p, 2 * p, (3, alg.k))):
        assert alg.lies_in_derived_coset_span(v) == element_criterion(alg, v)
    assert alg.socle_ideal_verdict() == (element_direct_test(alg, alg.socle()),) * 2
    return alg


def primes(g):
    return prime_factors(g.order) or [2]


CATALOG = list(catalog_groups())


@pytest.mark.parametrize("spec,g", CATALOG, ids=[s for s, _ in CATALOG])
def test_catalog_matches_element_references(spec, g):
    assert_classes_match(g)
    for p in primes(g):
        assert_ideal_tests_match(g, p)


def test_witness_group_matches_element_references(witness_group):
    assert_classes_match(witness_group)
    for p in primes(witness_group):
        assert_ideal_tests_match(witness_group, p)


SMALL_CATALOG = [(spec, g) for spec, g in CATALOG if g.order <= 200]


@pytest.mark.parametrize("spec,g", SMALL_CATALOG, ids=[s for s, _ in SMALL_CATALOG])
def test_relabeling_keeps_classes_dims_and_verdicts(spec, g):
    h = relabeled(g, seed=g.order + len(spec))
    assert_classes_match(h)
    assert sorted(c.size for c in h.conjugacy_classes()) == \
        sorted(c.size for c in g.conjugacy_classes())
    for p in primes(g):
        alg, halg = CenterAlgebra(g, p), assert_ideal_tests_match(h, p)
        assert halg.dims() == alg.dims()
        assert halg.socle_ideal_verdict() == alg.socle_ideal_verdict()
