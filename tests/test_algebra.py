"""Center algebra against a dense model of the full group algebra.

Every oracle here works in element coordinates with its own convolution
product, so agreement with the class-coordinate fast path is meaningful.
"""

import itertools
import zlib

import numpy as np
import pytest

from soclelab import algebra, fplin
from soclelab import groups as groups_module
from soclelab.algebra import CenterAlgebra
from soclelab.catalog import catalog_groups
from soclelab.errors import ConsistencyError, UnsupportedInputError
from soclelab.families import parse_family
from soclelab.fplin import Subspace, kernel_basis
from soclelab.groups import direct_product, prime_factors


def fg_mul(g, u, v, p):
    """Convolution product in FG, element coordinates."""
    out = np.zeros(g.order, dtype=np.int64)
    np.add.at(out, g.table, np.outer(u, v))
    return out % p


def fg_mul_rows(g, u, v, p):
    """Row i is the convolution product u[i] v[i] in FG, element coordinates."""
    out = np.zeros(u.shape, dtype=np.int64)
    for a in range(g.order):
        out[:, g.table[a]] += u[:, a, None] * v  # u(a) v(b) lands on a b
    return out % p


def fg_pow_rows(g, u, e, p):
    """Row i is u[i]^e in FG, squaring from the lowest bit up."""
    out = np.zeros(u.shape, dtype=np.int64)
    out[:, 0] = 1
    base = u % p
    while e:
        if e & 1:
            out = fg_mul_rows(g, out, base, p)
        base = fg_mul_rows(g, base, base, p)
        e >>= 1
    return out


def left_mul_by_element(g, x, v, p):
    out = np.zeros(g.order, dtype=np.int64)
    out[g.table[x]] = v % p
    return out


def right_mul_by_element(g, x, v, p):
    out = np.zeros(g.order, dtype=np.int64)
    out[g.table[:, x]] = v % p
    return out


def brute_center(g, p):
    """Commutant of the generators, solved as a linear system."""
    n = g.order
    blocks = []
    for t in g.generators():
        lm = np.zeros((n, n), dtype=np.int64)
        rm = np.zeros((n, n), dtype=np.int64)
        for x in range(n):
            lm[g.mul(t, x), x] += 1
            rm[g.mul(x, t), x] += 1
        blocks.append((lm - rm) % p)
    return Subspace(p, n, kernel_basis(np.concatenate(blocks), p))


def module_closure(g, p, vectors):
    """Two-sided FG-submodule generated by the given element vectors."""
    s = Subspace(p, g.order, vectors)
    queue = [np.array(v) for v in s.basis]
    while queue:
        v = queue.pop()
        for x in range(g.order):
            for prod in (left_mul_by_element(g, x, v, p),
                         right_mul_by_element(g, x, v, p)):
                if not s.contains_vector(prod):
                    s = Subspace(p, g.order, np.vstack([s.basis, prod]))
                    queue.append(prod)
    return s


SMALL = [("cyclic(6)", 2), ("sym(3)", 3), ("dihedral(4)", 2), ("q8", 2),
         ("sl2(3)", 2), ("agl(1,4)", 2), ("cyclic(4)", 2),
         ("metacyclic(7,3,2)", 3), ("dicyclic(3)", 2), ("alt(4)", 2)]


@pytest.mark.parametrize("spec, p", SMALL)
def test_class_sums_span_the_commutant(spec, p):
    g = parse_family(spec)
    alg = CenterAlgebra(g, p)
    class_sums = [alg.expand(alg.class_sum_vec(i)) for i in range(alg.k)]
    assert Subspace(p, g.order, class_sums) == brute_center(g, p)


@pytest.mark.parametrize("spec, p", SMALL)
def test_multiply_matches_convolution(spec, p):
    g = parse_family(spec)
    alg = CenterAlgebra(g, p)
    rng = np.random.default_rng(zlib.crc32(f"{spec}|{p}".encode()))
    for _ in range(10):
        u = rng.integers(0, p, size=alg.k)
        v = rng.integers(0, p, size=alg.k)
        fast = alg.expand(alg.multiply(u, v))
        slow = fg_mul(g, alg.expand(u), alg.expand(v), p)
        assert np.array_equal(fast, slow)
        assert np.array_equal(alg.multiply(u, v), alg.multiply(v, u))
    assert np.array_equal(alg.multiply(alg.identity_vec(), u) % p, u % p)


@pytest.mark.parametrize("spec, p", SMALL)
def test_multiply_of_class_sums_matches_convolution(spec, p):
    """Sparse factors: multiply sums over the support of its first factor."""
    g = parse_family(spec)
    alg = CenterAlgebra(g, p)
    for i, j in itertools.product(range(alg.k), repeat=2):
        u, v = alg.class_sum_vec(i), alg.class_sum_vec(j)
        slow = fg_mul(g, alg.expand(u), alg.expand(v), p)
        assert np.array_equal(alg.expand(alg.multiply(u, v)), slow)
    zero = alg.multiply(alg.zero(), alg.identity_vec())
    assert zero.dtype == np.int64 and not zero.any()


def mult_matrix(alg, b):
    """Matrix of x -> b*x on the center: b times each class sum, as columns."""
    return alg.multiply(b, np.eye(alg.k, dtype=np.int64)).T


@pytest.mark.parametrize("spec, p", SMALL)
def test_mult_matrix_matches_convolution(spec, p):
    """Column c of the matrix of x -> b*x is b times the c-th class sum."""
    g = parse_family(spec)
    alg = CenterAlgebra(g, p)
    rng = np.random.default_rng(sum(map(ord, spec)) + p)
    dense = [rng.integers(-p, 2 * p, size=alg.k) for _ in range(3)]
    for b in [alg.class_sum_vec(i) for i in range(alg.k)] + dense:
        m = mult_matrix(alg, b)
        for c in range(alg.k):
            slow = fg_mul(g, alg.expand(b), alg.expand(alg.class_sum_vec(c)), p)
            assert np.array_equal(alg.expand(m[:, c]), slow)
    assert not mult_matrix(alg, alg.zero()).any()


@pytest.mark.parametrize("block", [None, 1])
@pytest.mark.parametrize("spec, p", SMALL)
def test_stacked_multiply_matches_rows(spec, p, block, monkeypatch):
    """multiply(u, V) is u * V[i] and multiply(U, V) is U[i] * V[i] row by
    row, also with the byte budget at its minimum (block 1), one support
    element or one (row, element) pair per gather, so that every chunk
    boundary is crossed."""
    if block is not None:
        monkeypatch.setattr(groups_module, "BLOCK_BYTES", block)
    g = parse_family(spec)
    alg = CenterAlgebra(g, p)
    rng = np.random.default_rng(sum(map(ord, spec)) * 7 + p)
    for d in (1, 3, alg.k + 2):
        u = rng.integers(-2 * p, 2 * p, size=alg.k)  # unreduced on purpose
        rows = rng.integers(-2 * p, 2 * p, size=(d, alg.k))
        lefts = rng.integers(-2 * p, 2 * p, size=(d, alg.k))
        lefts[0] = 0  # a row with no support
        got = alg.multiply(u, rows)
        paired = alg.multiply(lefts, rows)
        assert got.dtype == np.int64 and got.shape == (d, alg.k)
        assert paired.dtype == np.int64 and paired.shape == (d, alg.k)
        for i in range(d):
            assert np.array_equal(got[i], alg.multiply(u, rows[i]))
            assert np.array_equal(paired[i], alg.multiply(lefts[i], rows[i]))
            slow = fg_mul(g, alg.expand(u), alg.expand(rows[i]), p)
            assert np.array_equal(alg.expand(got[i]), slow)
    empty = alg.multiply(u, np.zeros((0, alg.k), dtype=np.int64))
    assert empty.dtype == np.int64 and empty.shape == (0, alg.k)
    zero = alg.multiply(alg.zero(), rows)
    assert zero.dtype == np.int64 and zero.shape == rows.shape and not zero.any()


@pytest.mark.parametrize("spec, p", [("cyclic(6)", 2), ("sym(3)", 3),
                                     ("dihedral(4)", 2), ("q8", 2),
                                     ("sl2(3)", 2), ("agl(1,4)", 2),
                                     ("cyclic(9)", 3)])
def test_radical_is_the_exact_set_of_nilpotents(spec, p):
    """Enumerate the whole center and classify nilpotency by brute power,
    all center elements at once in stacked group algebra products."""
    g = parse_family(spec)
    alg = CenterAlgebra(g, p)
    rad = alg.jacobson_radical()
    m = 1
    while p ** m < alg.k:
        m += 1
    every = np.array(list(itertools.product(range(p), repeat=alg.k)), dtype=np.int64)
    nilpotent = ~fg_pow_rows(g, every[:, alg.cls_of], p ** m, p).any(axis=1)
    count = 0
    for coords, nil in zip(every, nilpotent.tolist()):
        assert nil == rad.contains_vector(coords)
        count += nil
    assert count == p ** rad.dim


@pytest.mark.parametrize("spec, p", SMALL)
def test_socle_is_the_brute_annihilator(spec, p):
    g = parse_family(spec)
    alg = CenterAlgebra(g, p)
    rad_full = [alg.expand(b) for b in alg.jacobson_radical().basis]
    cols = [alg.expand(alg.class_sum_vec(i)) for i in range(alg.k)]
    if rad_full:
        rows = []
        for jb in rad_full:
            mat = np.stack([fg_mul(g, c, jb, p) for c in cols], axis=1)
            rows.append(mat)
        brute = Subspace(p, alg.k, kernel_basis(np.concatenate(rows), p))
    else:
        brute = Subspace(p, alg.k, np.eye(alg.k, dtype=np.int64))
    assert brute == alg.socle()
    for s in alg.socle().basis:
        sf = alg.expand(s)
        for jb in rad_full:
            assert not fg_mul(g, sf, jb, p).any()


IDEAL_SAMPLE = SMALL + [("sym(4)", 2), ("sym(4)", 3), ("dihedral(5)", 5),
                        ("agl(1,5)", 5), ("extraspecial(27,+)", 3),
                        ("sl2(3)", 3), ("alt(4)", 3), ("dihedral(6)", 3)]


@pytest.mark.parametrize("spec, p", IDEAL_SAMPLE)
def test_direct_ideal_test_matches_module_closure(spec, p):
    g = parse_family(spec)
    alg = CenterAlgebra(g, p)
    soc_full = [alg.expand(b) for b in alg.socle().basis]
    span = Subspace(p, g.order, soc_full)
    closed = module_closure(g, p, soc_full)
    assert (closed == span) == alg.socle_is_ideal_direct()


@pytest.mark.parametrize("spec, p", IDEAL_SAMPLE)
def test_criterion_matches_brute_augmentation_ideal(spec, p):
    """Membership in the span of all translates of the derived-subgroup sum."""
    g = parse_family(spec)
    alg = CenterAlgebra(g, p)
    der = g.derived_subgroup()
    dplus = np.zeros(g.order, dtype=np.int64)
    dplus[der] = 1
    translates = [right_mul_by_element(g, x, dplus, p) for x in range(g.order)]
    ideal_span = Subspace(p, g.order, translates)
    brute = all(ideal_span.contains_vector(alg.expand(b))
                for b in alg.socle().basis)
    assert brute == alg.socle_is_ideal_criterion()
    for b in alg.socle().basis:
        assert ideal_span.contains_vector(alg.expand(b)) == \
            alg.lies_in_derived_coset_span(b)


def test_verdicts_known_values():
    assert CenterAlgebra(parse_family("sl2(3)"), 2).dims() == \
        {"center": 7, "radical": 6, "socle": 3}
    assert CenterAlgebra(parse_family("cyclic(6)"), 2).dims() == \
        {"center": 6, "radical": 3, "socle": 3}
    assert CenterAlgebra(parse_family("agl(1,9)"), 3).dims() == \
        {"center": 9, "radical": 8, "socle": 8}


def test_semisimple_prime_gives_zero_radical():
    for spec, p in [("sym(3)", 5), ("q8", 3), ("sl2(3)", 5), ("cyclic(5)", 2)]:
        alg = CenterAlgebra(parse_family(spec), p)
        d = alg.dims()
        assert d["radical"] == 0
        assert d["socle"] == d["center"]


def test_abelian_socle_always_ideal():
    for spec in ["cyclic(12)", "abelian(2,4)", "elementary(3,2)"]:
        g = parse_family(spec)
        for p in (2, 3):
            assert CenterAlgebra(g, p).socle_ideal_verdict() == (True, True)


def test_surviving_pprime_classes_structure():
    # trivial second derived: every nontrivial class survives at any p
    g = parse_family("agl(1,4)")
    alg = CenterAlgebra(g, 2)
    assert alg.surviving_pprime_classes() == list(range(1, alg.k))
    # SL2(3): the central involution class dies, the four 3-part classes live
    g = parse_family("sl2(3)")
    alg = CenterAlgebra(g, 2)
    ids = alg.surviving_pprime_classes()
    assert len(ids) == 4
    sizes = {alg.classes[i].size for i in ids}
    assert sizes == {4}


def test_socle_coset_blocks_sum():
    g = parse_family("sl2(3)")
    alg = CenterAlgebra(g, 2)
    blocks = alg.socle_coset_decomposition(g.sylow_subgroup(2))
    assert [d for _, d in blocks] == [1, 1, 1]
    assert blocks[0][0] == 0
    g = parse_family("agl(1,8)")
    alg = CenterAlgebra(g, 2)
    blocks = alg.socle_coset_decomposition(g.sylow_subgroup(2))
    assert len(blocks) == 7 and all(d == 1 for _, d in blocks)


def element_socle_blocks(alg, sylow_elems):
    """Socle blocks per Sylow coset, intersected in element coordinates."""
    soc_full = Subspace(alg.p, alg.n, [alg.expand(b) for b in alg.socle().basis])
    cid = alg.group.table[np.asarray(sylow_elems, dtype=np.int64), :].min(axis=0)
    out = []
    total = 0
    for r in map(int, np.unique(cid)):
        cols = np.flatnonzero(cid == r)
        coord = np.zeros((cols.size, alg.n), dtype=np.int64)
        coord[np.arange(cols.size), cols] = 1
        block = soc_full.intersect(Subspace(alg.p, alg.n, coord))
        if block.dim:
            out.append((r, block.dim))
            total += block.dim
    if total != soc_full.dim:
        raise ConsistencyError("socle does not split along Sylow cosets")
    return out


NORMAL_SYLOW = [(spec, g, p) for spec, g in catalog_groups() if g.order <= 288
                for p in prime_factors(g.order) if g.is_normal(g.sylow_subgroup(p))]


@pytest.mark.parametrize("spec,g,p", NORMAL_SYLOW,
                         ids=[f"{s}-{p}" for s, _, p in NORMAL_SYLOW])
def test_socle_blocks_match_element_coordinates(spec, g, p):
    alg = CenterAlgebra(g, p)
    syl = g.sylow_subgroup(p)
    try:
        want = element_socle_blocks(alg, syl)
    except ConsistencyError:  # the socle need not split along a central Sylow factor
        with pytest.raises(ConsistencyError):
            alg.socle_coset_decomposition(syl)
        return
    assert alg.socle_coset_decomposition(syl) == want


def intersect_socle_blocks(alg, sylow_elems):
    """The former class-coordinate blocks: the socle intersected with the
    span of the classes lying wholly in each coset, one coset at a time."""
    soc = alg.socle()
    cid = alg.group.table[np.asarray(sylow_elems, dtype=np.int64), :].min(axis=0)
    lo = np.array([cid[c].min() for c in alg.classes])
    whole = lo == np.array([cid[c].max() for c in alg.classes])
    unit = np.eye(alg.k, dtype=np.int64)
    out = []
    total = 0
    for r in map(int, np.unique(lo[whole])):
        block = soc.intersect(Subspace(alg.p, alg.k, unit[whole & (lo == r)]))
        if block.dim:
            out.append((r, block.dim))
            total += block.dim
    if total != soc.dim:
        raise ConsistencyError("socle does not split along Sylow cosets")
    return out


WIDE_BLOCKS = [(spec, g, p) for spec, primes in (("dihedral(300)", (2, 3, 5)),
                                                 ("agl(1,32)", (2,)),
                                                 ("twisted_affine(2,3,1)", (2,)))
               for g in [parse_family(spec, max_order=4000)] for p in primes]
BLOCK_PAIRS = NORMAL_SYLOW + WIDE_BLOCKS


@pytest.mark.parametrize("spec,g,p", BLOCK_PAIRS,
                         ids=[f"{s}-{p}" for s, _, p in BLOCK_PAIRS])
def test_socle_blocks_match_intersections(spec, g, p):
    alg = CenterAlgebra(g, p)
    syl = g.sylow_subgroup(p)
    try:
        want = intersect_socle_blocks(alg, syl)
    except ConsistencyError as e:
        with pytest.raises(ConsistencyError, match=str(e)):
            alg.socle_coset_decomposition(syl)
        return
    assert alg.socle_coset_decomposition(syl) == want


def test_socle_blocks_reject_a_vector_across_two_cosets():
    """A socle row inside the coset classes but spread over two cosets."""
    g = parse_family("sl2(3)")
    alg = CenterAlgebra(g, 2)
    syl = g.sylow_subgroup(2)
    cid = g.table[syl, :].min(axis=0)
    inside = [c for c in range(alg.k) if np.unique(cid[alg.classes[c]]).size == 1]
    i, j = next((i, j) for i in inside for j in inside
                if cid[alg.classes[i][0]] < cid[alg.classes[j][0]])
    spread = alg.class_sum_vec(i) + alg.class_sum_vec(j)
    alg._memo[("socle",)] = Subspace(2, alg.k, spread)
    with pytest.raises(ConsistencyError, match="does not split"):
        intersect_socle_blocks(alg, syl)
    with pytest.raises(ConsistencyError, match="does not split"):
        alg.socle_coset_decomposition(syl)


def test_socle_blocks_take_one_rref(monkeypatch):
    g = parse_family("agl(1,8)")
    alg = CenterAlgebra(g, 2)
    syl = g.sylow_subgroup(2)
    alg.socle()
    calls = []
    real = fplin.rref

    def counting(a, p):
        calls.append(1)
        return real(a, p)

    monkeypatch.setattr(fplin, "rref", counting)
    monkeypatch.setattr(algebra, "rref", counting, raising=False)
    assert len(alg.socle_coset_decomposition(syl)) == 7
    assert len(calls) == 1


def test_push_through_quotient_is_projection():
    g = parse_family("sl2(3)")
    alg = CenterAlgebra(g, 2)
    qm = g.quotient(g.second_derived())
    qalg = CenterAlgebra(qm.group, 2)
    for i in range(alg.k):
        pushed = alg.push_through_quotient(alg.class_sum_vec(i), qm, qalg)
        # projecting element coordinates directly must give the same thing
        full = alg.expand(alg.class_sum_vec(i))
        direct = np.zeros(qm.group.order, dtype=np.int64)
        np.add.at(direct, qm.proj, full)
        assert np.array_equal(qalg.expand(pushed), direct % 2)


def test_identity_and_subset_sum():
    g = parse_family("dihedral(4)")
    alg = CenterAlgebra(g, 2)
    ident = alg.identity_vec()
    assert alg.expand(ident)[0] == 1 and alg.expand(ident).sum() == 1
    der = g.derived_subgroup()
    v = alg.subset_sum_vec(der)
    full = alg.expand(v)
    assert set(np.flatnonzero(full)) == set(int(x) for x in der)
    # one element of a class of size two, with and without the identity
    half = alg.classes[-1][:1]
    for elems in (half, np.concatenate([[0], half])):
        with pytest.raises(UnsupportedInputError, match="not a union of classes"):
            alg.subset_sum_vec(elems)


def loop_power(alg, u, e):
    """Reference: the former power loop, which starts from the identity and
    squares once past the top bit."""
    acc = alg.identity_vec()
    base = np.asarray(u, dtype=np.int64) % alg.p
    while e:
        if e & 1:
            acc = alg.multiply(acc, base)
        base = alg.multiply(base, base)
        e >>= 1
    return acc


@pytest.mark.parametrize("spec, p", SMALL + [("sym(4)", 3), ("dihedral(5)", 5)])
def test_power_matches_loop(spec, p):
    alg = CenterAlgebra(parse_family(spec), p)
    rng = np.random.default_rng(sum(map(ord, spec)) + p)
    for _ in range(4):
        u = rng.integers(-2 * p, 2 * p, size=alg.k)
        for e in range(41):
            got = alg.power(u, e)
            assert got.dtype == np.int64
            assert np.array_equal(got, loop_power(alg, u, e))
    with pytest.raises(ValueError, match="negative exponent"):
        alg.power(u, -1)


@pytest.mark.parametrize("block", [None, 1])
def test_power_map_matches_per_class_powers(block, monkeypatch):
    """Column j of the power map is the p-th power of class sum j taken on
    its own, also with the byte budget at its minimum (block 1): one class
    sum per stack and one (row, element) pair per gather."""
    if block is not None:
        monkeypatch.setattr(groups_module, "BLOCK_BYTES", block)
    for spec, p in SMALL + [("dihedral(300)", 5), ("agl(1,32)", 31)]:
        alg = CenterAlgebra(parse_family(spec), p)
        want = [loop_power(alg, alg.class_sum_vec(j), p) for j in range(alg.k)]
        got = alg.power_map_matrix()
        assert got.dtype == np.int64 and np.array_equal(got, np.array(want).T)


def test_power_two_is_one_multiply(monkeypatch):
    alg = CenterAlgebra(parse_family("sl2(3)"), 2)
    calls = []
    real = alg.multiply
    monkeypatch.setattr(alg, "multiply", lambda u, v: calls.append(1) or real(u, v))
    alg.power(alg.class_sum_vec(3), 2)
    assert len(calls) == 1


@pytest.mark.parametrize("spec, p", [("sl2(3)", 2), ("dihedral(5)", 5)])
def test_power_zero_of_a_stack_is_an_identity_stack(spec, p):
    """u^0 takes u's shape: a (d, k) stack gives d identity rows, also
    when the stack is powered in several blocks of block_rows(64 k) rows."""
    alg = CenterAlgebra(parse_family(spec), p)
    for d in (3, groups_module.block_rows(64 * alg.k) + 2):
        stack = np.arange(d * alg.k, dtype=np.int64).reshape(d, alg.k)
        want = np.tile(alg.identity_vec(), (d, 1))
        assert np.array_equal(alg.power(stack, 0), want)


def test_radical_of_the_trivial_group():
    """One class: no radical vectors, an empty span, a zero radical."""
    alg = CenterAlgebra(parse_family("cyclic(1)"), 2)
    assert alg.radical_span_from_classes() == Subspace(2, 1)
    assert alg.jacobson_radical() == Subspace(2, 1)


def test_nilpotence_check_catches_a_wrong_power_map(monkeypatch):
    # a zero power map makes the whole center look nilpotent; the check
    # through multiply must refuse it
    monkeypatch.setattr(CenterAlgebra, "power_map_matrix",
                        lambda self: np.zeros((self.k, self.k), dtype=np.int64))
    alg = CenterAlgebra(parse_family("sl2(3)"), 2)
    with pytest.raises(ConsistencyError, match="radical vector is not nilpotent"):
        alg.jacobson_radical()


def stacked_annihilator(alg, vectors):
    """Reference: one kernel of all multiplication matrices stacked."""
    vecs = [np.asarray(v, dtype=np.int64) % alg.p for v in vectors]
    vecs = [v for v in vecs if v.any()]
    if not vecs:
        return Subspace(alg.p, alg.k, np.eye(alg.k, dtype=np.int64))
    stacked = np.vstack([mult_matrix(alg, v) for v in vecs])
    return Subspace(alg.p, alg.k, kernel_basis(stacked, alg.p))


def dense_matrix_annihilator(alg, vectors):
    """Reference: the former annihilator, which multiplied a dense k x k
    matrix of x -> v*x, built from the group table, into the kernel basis."""
    g, p, k = alg.group, alg.p, alg.k
    basis = np.eye(k, dtype=np.int64)
    for v in vectors:
        if not basis.shape[0]:
            break
        vf = (np.asarray(v, dtype=np.int64) % p)[alg.cls_of]
        s = np.flatnonzero(vf)
        # entry (j, c) sums v(t) over t in the support with t^-1 rep_j in class c
        cells = alg.cls_of[g.table[g.inv[s][:, None], alg.reps]] + np.arange(k) * k
        m = np.bincount(cells.ravel(), weights=np.repeat(vf[s], k), minlength=k * k)
        prod = m.reshape(k, k).astype(np.int64) @ basis.T % p
        if prod.any():
            basis = kernel_basis(prod, p) @ basis % p
    return Subspace(p, k, basis)


CATALOG_PAIRS = [(spec, g, p) for spec, g in catalog_groups()
                 for p in prime_factors(g.order) or [2]]


@pytest.mark.parametrize("spec,g,p", CATALOG_PAIRS,
                         ids=[f"{s}-{p}" for s, _, p in CATALOG_PAIRS])
def test_annihilator_matches_stacked_kernel(spec, g, p):
    alg = CenterAlgebra(g, p)
    rad = list(alg.jacobson_radical().basis)
    assert alg.annihilator(rad) == stacked_annihilator(alg, rad)
    assert alg.socle() == stacked_annihilator(alg, rad)
    # unreduced input, a zero vector and the empty list
    vecs = [alg.zero()] + [alg.radical_vec(j) + alg.p for j in range(1, alg.k)]
    assert alg.annihilator(vecs) == stacked_annihilator(alg, vecs)
    assert alg.annihilator([]) == stacked_annihilator(alg, [])


WIDE_CENTERS = [(spec, g, p) for spec, primes in (("dihedral(300)", (2, 3, 5)),
                                                  ("agl(1,32)", (2, 31)))
                for g in [parse_family(spec)] for p in primes]
ANNIHILATOR_PAIRS = CATALOG_PAIRS + WIDE_CENTERS


@pytest.mark.parametrize("spec,g,p", ANNIHILATOR_PAIRS,
                         ids=[f"{s}-{p}" for s, _, p in ANNIHILATOR_PAIRS])
def test_annihilator_matches_dense_matrix_annihilator(spec, g, p):
    alg = CenterAlgebra(g, p)
    rad = list(alg.jacobson_radical().basis)
    assert alg.socle() == dense_matrix_annihilator(alg, rad)
    vecs = [alg.zero()] + [alg.radical_vec(j) - alg.p for j in range(1, alg.k)]
    assert alg.annihilator(vecs) == dense_matrix_annihilator(alg, vecs)
    # a unit kills nothing: the kernel empties and later vectors meet an empty stack
    killed = alg.annihilator([alg.identity_vec()] + vecs)
    assert killed.dim == 0 and killed == dense_matrix_annihilator(alg, [alg.identity_vec()])


def element_ideal_test(alg, center_subspace):
    """Reference: left and right moves by the generators, spans in |G| columns."""
    rows = [alg.expand(b) for b in center_subspace.basis]
    space = Subspace(alg.p, alg.n, rows if rows else None)
    t, inv = alg.group.table, alg.group.inv
    moves = []
    for g in alg.group.generators():
        moves.append(t[inv[g], :])   # left:  (g y)[u] = y[g^-1 u]
        moves.append(t[:, inv[g]])   # right: (y g)[u] = y[u g^-1]
    return all(space.contains_vector(y[mv]) for y in space.basis for mv in moves)


def sorted_coset_test(alg, center_vec):
    """Reference: sort by G'-coset id and compare each run of values."""
    a = alg.expand(center_vec)
    cid = alg.group.table[alg.group.derived_subgroup(), :].min(axis=0)
    order = np.argsort(cid, kind="stable")
    boundaries = np.flatnonzero(np.diff(cid[order])) + 1
    return all(not (chunk != chunk[0]).any()
               for chunk in np.split(a[order], boundaries) if chunk.size)


@pytest.mark.parametrize("spec,g,p", CATALOG_PAIRS,
                         ids=[f"{s}-{p}" for s, _, p in CATALOG_PAIRS])
def test_class_coordinate_ideal_tests_match_element_references(spec, g, p):
    """Socle, radical, whole center, zero space and seeded random subspaces."""
    alg = CenterAlgebra(g, p)
    rng = np.random.default_rng(g.order * 31 + p)
    spaces = [alg.socle(), alg.jacobson_radical(),
              Subspace(p, alg.k, np.eye(alg.k, dtype=np.int64)), Subspace(p, alg.k)]
    spaces += [Subspace(p, alg.k, rng.integers(0, p, size=(r, alg.k)))
               for r in (1, 2, max(1, alg.k // 2))]
    for space in spaces:
        assert alg.is_ideal_in_group_algebra(space) == element_ideal_test(alg, space)
    vecs = [b for s in spaces for b in s.basis]
    vecs += [alg.zero()] + list(rng.integers(-p, 2 * p, size=(3, alg.k)))
    for v in vecs:
        assert alg.lies_in_derived_coset_span(v) == sorted_coset_test(alg, v)
