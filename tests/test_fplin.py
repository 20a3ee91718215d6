"""Exact linear algebra mod p, checked against numpy brute force."""

import numpy as np
import pytest

from soclelab.fplin import Subspace, binary_power, is_prime, kernel_basis, rref


def test_is_prime_small():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59]
    assert not is_prime(1)
    assert not is_prime(0)


def test_rref_known_matrix():
    a = np.array([[1, 2, 0], [2, 4, 1], [0, 0, 1]])
    r, pivots = rref(a, 5)
    assert list(pivots) == [0, 2]
    # pivot columns carry the identity pattern
    assert r[0][0] == 1 and r[1][2] == 1
    assert r[1][0] == 0 and r[0][2] == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_kernel_is_annihilated(p):
    rng = np.random.default_rng(7 * p)
    for _ in range(20):
        a = rng.integers(0, p, size=(5, 8))
        k = kernel_basis(a, p)
        assert (a @ k.T % p == 0).all()
        r, piv = rref(a, p)
        assert len(piv) + k.shape[0] == 8


@pytest.mark.parametrize("p", [2, 3, 7])
def test_matrix_inverse(p):
    # the RREF of [m | 1] is [1 | m^-1] for an invertible m
    rng = np.random.default_rng(p)
    found = 0
    while found < 10:
        m = rng.integers(0, p, size=(4, 4))
        r, piv = rref(np.hstack([m, np.eye(4, dtype=np.int64)]), p)
        if piv[:4] != [0, 1, 2, 3]:
            continue
        found += 1
        inv = r[:, 4:]
        assert np.array_equal(m @ inv % p, np.eye(4, dtype=np.int64))
        assert np.array_equal(inv @ m % p, np.eye(4, dtype=np.int64))


def test_matpow_matches_repeated_product():
    p = 3
    m = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.int64)
    calls = []

    def mul(a, b):
        calls.append(1)
        return a @ b % p

    def power(e):
        return binary_power(m, e, mul, lambda: np.eye(3, dtype=np.int64))

    acc = np.eye(3, dtype=np.int64)
    for e in range(41):
        assert np.array_equal(power(e), acc)
        acc = acc @ m % p
    with pytest.raises(ValueError, match="negative exponent"):
        power(-1)
    calls.clear()
    power(8)
    assert len(calls) == 3


def test_subspace_membership_and_eq():
    p = 3
    s = Subspace(p, 4, [[1, 0, 2, 0], [0, 1, 1, 1]])
    assert s.dim == 2
    assert s.contains_vector([1, 1, 0, 1])        # sum of the generators
    assert s.contains_vector([2, 0, 1, 0])        # scalar multiple
    assert not s.contains_vector([0, 0, 0, 1])
    # same space from different generators
    t = Subspace(p, 4, [[2, 0, 1, 0], [1, 1, 0, 1]])
    assert s == t


@pytest.mark.parametrize("p", [2, 5])
def test_sum_intersect_dimension_formula(p):
    rng = np.random.default_rng(11 + p)
    for _ in range(15):
        a = Subspace(p, 6, rng.integers(0, p, size=(3, 6)))
        b = Subspace(p, 6, rng.integers(0, p, size=(3, 6)))
        su = Subspace(p, 6, np.vstack([a.basis, b.basis]))
        it = a.intersect(b)
        assert su.dim + it.dim == a.dim + b.dim
        for v in it.basis:
            assert a.contains_vector(v) and b.contains_vector(v)
        for v in np.vstack([a.basis, b.basis]):
            assert su.contains_vector(v)


def test_zero_and_full_subspace():
    z = Subspace(2, 3)
    assert z.dim == 0
    assert not z.contains_vector([1, 0, 0])
    f = Subspace(2, 3, np.eye(3, dtype=np.int64))
    assert f.dim == 3
    rows = np.array([[0, 0, 0], [1, 0, 1], [2, -2, 4]])
    assert f.contains_vector(rows) and not z.contains_vector(rows)
    assert z.contains_vector(rows[[0, 2]])  # even entries vanish mod 2


# -- the column loop and the re-reducing kernel, kept as references ----------

def reference_rref(a, p):
    """The former rref: walks every column, zero or not."""
    r = np.asarray(a, dtype=np.int64) % p
    nrow, ncol = r.shape
    pivots = []
    row = 0
    for col in range(ncol):
        if row == nrow:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            r[[row, piv]] = r[[piv, row]]
        r[row] = (r[row] * pow(int(r[row, col]), p - 2, p)) % p
        hit = np.nonzero(r[:, col])[0]
        hit = hit[hit != row]
        if hit.size:
            r[hit] = (r[hit] - np.outer(r[hit, col], r[row])) % p
        pivots.append(col)
        row += 1
    return r, pivots


def reference_kernel_basis(a, p):
    """The former kernel_basis: the free-column basis, row-reduced again."""
    a = np.asarray(a, dtype=np.int64) % p
    ncol = a.shape[1]
    r, pivots = reference_rref(a, p)
    free = [c for c in range(ncol) if c not in set(pivots)]
    if not free:
        return np.zeros((0, ncol), dtype=np.int64)
    basis = np.zeros((len(free), ncol), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-r[i, fc]) % p
    return reference_rref(basis, p)[0]


def seeded_matrices(p, rng):
    """Random, sparse, rank-deficient and zero-column matrices, the zero
    matrix, empty shapes, and entries outside 0..p-1."""
    mats = [np.zeros((3, 4), dtype=np.int64), np.zeros((0, 5), dtype=np.int64),
            np.zeros((4, 0), dtype=np.int64), np.zeros((0, 0), dtype=np.int64)]
    for _ in range(40):
        nrow, ncol = (int(x) for x in rng.integers(1, 9, size=2))
        a = rng.integers(0, p, size=(nrow, ncol))
        a[:, rng.random(ncol) < 0.4] = 0
        mats.append(a)
        mats.append(a * (rng.random((nrow, ncol)) < 0.3))
        rank = int(rng.integers(0, min(nrow, ncol) + 1))
        left = rng.integers(0, p, size=(nrow, rank))
        mats.append(left @ rng.integers(0, p, size=(rank, ncol)) % p)
        mats.append(a - 2 * p)
    return mats


PRIMES = [2, 3, 5, 31, 65521]


@pytest.mark.parametrize("p", PRIMES)
def test_rref_matches_column_loop(p):
    rng = np.random.default_rng(1000 + p)
    for a in seeded_matrices(p, rng):
        r, piv = rref(a, p)
        want, want_piv = reference_rref(a, p)
        assert r.dtype == np.int64 and r.shape == a.shape
        assert np.array_equal(r, want) and piv == want_piv


@pytest.mark.parametrize("p", PRIMES)
def test_kernel_basis_is_a_free_column_basis(p):
    rng = np.random.default_rng(2000 + p)
    for a in seeded_matrices(p, rng):
        ncol = a.shape[1]
        k = kernel_basis(a, p)
        rank = len(rref(a, p)[1])
        assert k.dtype == np.int64 and k.shape == (ncol - rank, ncol)
        assert (a @ k.T % p == 0).all()
        assert Subspace(p, ncol, k).dim == k.shape[0]  # independent rows
        want = reference_kernel_basis(a, p)
        assert np.array_equal(Subspace(p, ncol, k).basis, want)


# -- the elimination loop of the former Subspace.reduce, kept as a reference --

def reference_residual(s, v):
    """Residual of v after eliminating it against the RREF basis, one pivot
    at a time."""
    w = np.asarray(v, dtype=np.int64) % s.p
    for i, c in enumerate(s.pivots):
        if w[c]:
            w = (w - w[c] * s.basis[i]) % s.p
    return w


def membership_cases(p, rng):
    """Subspaces from the seeded matrices, the zero subspace and the full
    space, each with members, random vectors and entries outside 0..p-1."""
    spaces = [Subspace(p, a.shape[1], a) for a in seeded_matrices(p, rng)]
    spaces += [Subspace(p, 5), Subspace(p, 5, np.eye(5, dtype=np.int64))]
    for s in spaces:
        n = s.ambient
        members = rng.integers(-p, 2 * p, size=(4, s.dim)) @ s.basis
        vectors = np.vstack([members, rng.integers(-p, 2 * p, size=(4, n)),
                             np.zeros((1, n), dtype=np.int64)])
        yield s, vectors


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_contains_vector_matches_elimination(p):
    rng = np.random.default_rng(3000 + p)
    for s, vectors in membership_cases(p, rng):
        inside = [not reference_residual(s, v).any() for v in vectors]
        assert [s.contains_vector(v) for v in vectors] == inside
        # a stack holds iff every row does, an empty stack always
        assert s.contains_vector(vectors) is all(inside)
        assert s.contains_vector(vectors[np.array(inside, dtype=bool)]) is True
        assert s.contains_vector(vectors[:0]) is True


@pytest.mark.parametrize("bad", [[1, 0, 0], np.zeros((2, 5), dtype=np.int64),
                                 np.zeros((1, 2, 4), dtype=np.int64), 1])
def test_contains_vector_rejects_a_wrong_length(bad):
    for s in (Subspace(2, 4), Subspace(2, 4, [[1, 1, 0, 0]])):
        with pytest.raises(ValueError, match="vector of ambient length expected"):
            s.contains_vector(bad)


def test_intersect_with_zero_or_disjoint_span_is_zero():
    p = 5
    z = Subspace(p, 4)
    a = Subspace(p, 4, [[1, 2, 0, 0], [0, 0, 1, 3]])
    b = Subspace(p, 4, [[0, 1, 0, 0], [0, 0, 0, 1]])
    assert a.intersect(b).dim == 0  # a holds no nonzero vector of b
    for x, y in [(z, a), (a, z), (z, z), (a, b), (b, a)]:
        got = x.intersect(y)
        assert got == Subspace(p, 4) and got.basis.shape == (0, 4)
