"""Exact linear algebra mod p, checked against numpy brute force."""

import numpy as np
import pytest

from soclelab.fplin import FpMatrix, Subspace, is_prime, kernel_basis, rref


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
    rng = np.random.default_rng(p)
    found = 0
    while found < 10:
        m = FpMatrix(p, rng.integers(0, p, size=(4, 4)))
        if m.rank() < 4:
            continue
        found += 1
        assert m @ m.inverse() == FpMatrix.identity(p, 4)
        assert m.inverse() @ m == FpMatrix.identity(p, 4)


def test_matpow_matches_repeated_product(monkeypatch):
    p = 3
    m = FpMatrix(p, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    acc = FpMatrix.identity(p, 3)
    for e in range(41):
        assert m.matpow(e) == acc
        acc = acc @ m
    with pytest.raises(ValueError, match="negative exponent"):
        m.matpow(-1)
    calls = []
    real = FpMatrix.matmul
    monkeypatch.setattr(FpMatrix, "matmul",
                        lambda self, other: calls.append(1) or real(self, other))
    m.matpow(8)
    assert len(calls) == 3


def test_singular_inverse_raises():
    m = FpMatrix(5, [[1, 2], [2, 4]])
    with pytest.raises(Exception):
        m.inverse()


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
        su = a.sum(b)
        it = a.intersect(b)
        assert su.dim + it.dim == a.dim + b.dim
        for v in it.basis:
            assert a.contains_vector(v) and b.contains_vector(v)
        assert su.contains(a) and su.contains(b)


def test_annihilator_dims_and_orthogonality():
    p = 3
    s = Subspace(p, 5, [[1, 0, 0, 1, 0], [0, 1, 0, 0, 2]])
    ann = s.annihilator()
    assert ann.dim == 3
    for u in s.basis:
        for v in ann.basis:
            assert int(np.dot(u, v)) % p == 0


def test_zero_and_full_subspace():
    z = Subspace(2, 3)
    assert z.dim == 0
    assert not z.contains_vector([1, 0, 0])
    f = Subspace(2, 3, np.eye(3, dtype=np.int64))
    assert f.dim == 3
    assert f.contains(z)


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
