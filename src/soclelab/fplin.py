"""Exact dense linear algebra over the prime field F_p.

Matrices are numpy int64 arrays with entries reduced mod p. A subspace of
F_p^n is stored as its reduced row echelon basis, so two subspaces are equal
iff their stored arrays are equal.
"""

from __future__ import annotations

import numpy as np

_PRIME_CACHE: dict[int, bool] = {}
P_LIMIT = 1 << 16  # p stays below it, so int64 sums of residue products are exact


def is_prime(n: int) -> bool:
    n = int(n)
    if n not in _PRIME_CACHE:
        _PRIME_CACHE[n] = n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))
    return _PRIME_CACHE[n]


def check_prime(p) -> int:
    p = int(p)
    if p >= P_LIMIT or not is_prime(p):
        raise ValueError(f"p must be a prime below 2**16, got {p}")
    return p


def residues(p: int, data) -> np.ndarray:
    return np.asarray(data, dtype=np.int64) % p


def rref(a, p: int):
    """Reduced row echelon form mod p. Returns (matrix, pivot column list).
    Row operations keep a zero column zero, so only nonzero ones are walked."""
    r = residues(p, a)
    if r.ndim != 2:
        raise ValueError("2-D array expected")
    nrow = r.shape[0]
    pivots: list[int] = []
    row = 0
    for col in r.any(axis=0).nonzero()[0].tolist():
        if row == nrow:
            break
        nz = r[row:, col].nonzero()[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            r[[row, piv]] = r[[piv, row]]
        r[row] = (r[row] * pow(int(r[row, col]), p - 2, p)) % p
        hit = r[:, col].nonzero()[0]
        hit = hit[hit != row]
        if hit.size:
            r[hit] = (r[hit] - np.outer(r[hit, col], r[row])) % p
        pivots.append(col)
        row += 1
    return r, pivots


def binary_power(x, e: int, mul, one):
    """x^e for the product mul, squaring from the top bit down: e = 2 takes
    one product and e = 8 three. one() gives x^0."""
    if e < 0:
        raise ValueError(f"negative exponent {e}")
    if not e:
        return one()
    acc = x
    for bit in bin(int(e))[3:]:
        acc = mul(acc, acc)
        if bit == "1":
            acc = mul(acc, x)
    return acc


def kernel_basis(a, p: int) -> np.ndarray:
    """Basis of {x : a @ x = 0 (mod p)}: one row per free column f of the
    RREF of a, e_f minus the pivot entries of column f. It is not in RREF;
    Subspace of it is the canonical form."""
    r, pivots = rref(a, p)
    free = np.ones(r.shape[1], dtype=bool)
    free[pivots] = False
    free = free.nonzero()[0]
    basis = np.zeros((free.size, r.shape[1]), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = -r[:len(pivots), free].T % p
    return basis


class FpMatrix:
    """Immutable matrix over F_p."""

    __slots__ = ("p", "a")

    def __init__(self, p, data):
        self.p = check_prime(p)
        a = residues(self.p, data)
        if a.ndim != 2:
            raise ValueError("2-D array expected")
        a.flags.writeable = False
        self.a = a

    @classmethod
    def identity(cls, p, n):
        return cls(p, np.eye(n, dtype=np.int64))

    @classmethod
    def zeros(cls, p, r, c):
        return cls(p, np.zeros((r, c), dtype=np.int64))

    @property
    def shape(self):
        return self.a.shape

    def __eq__(self, other):
        return (
            isinstance(other, FpMatrix)
            and self.p == other.p
            and self.a.shape == other.a.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __hash__(self):
        return hash((self.p, self.a.shape, self.a.tobytes()))

    def add(self, other):
        return FpMatrix(self.p, (self.a + other.a) % self.p)

    def matmul(self, other):
        # int64 holds n * (p-1)^2 for every size used here
        return FpMatrix(self.p, (self.a @ other.a) % self.p)

    def __matmul__(self, other):
        return self.matmul(other)

    def matpow(self, e: int):
        if self.a.shape[0] != self.a.shape[1]:
            raise ValueError("square matrix expected")
        return binary_power(self, e, lambda x, y: x @ y,
                            lambda: FpMatrix.identity(self.p, self.a.shape[0]))

    def rank(self) -> int:
        return len(rref(self.a, self.p)[1])

    def kernel(self) -> "Subspace":
        return Subspace(self.p, self.a.shape[1], kernel_basis(self.a, self.p))

    def inverse(self) -> "FpMatrix":
        """Inverse mod p via row reduction of the augmented matrix."""
        n, m = self.a.shape
        if n != m:
            raise ValueError("square matrix expected")
        aug = np.concatenate([self.a, np.eye(n, dtype=np.int64)], axis=1)
        r, piv = rref(aug, self.p)
        if piv[:n] != list(range(n)):
            raise ValueError("matrix is singular mod p")
        return FpMatrix(self.p, r[:, n:])


class Subspace:
    """Subspace of F_p^ambient with a canonical RREF basis (no zero rows)."""

    __slots__ = ("p", "ambient", "basis", "pivots")

    def __init__(self, p, ambient: int, vectors=None):
        self.p = check_prime(p)
        self.ambient = int(ambient)
        if vectors is None or (hasattr(vectors, "__len__") and len(vectors) == 0):
            b = np.zeros((0, self.ambient), dtype=np.int64)
            piv: list[int] = []
        else:
            v = residues(self.p, vectors)
            if v.ndim == 1:
                v = v.reshape(1, -1)
            if v.shape[1] != self.ambient:
                raise ValueError("ambient dimension mismatch")
            b, piv = rref(v, self.p)
            b = b[: len(piv)]
        b = np.ascontiguousarray(b)
        b.flags.writeable = False
        self.basis = b
        self.pivots = tuple(piv)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def reduce(self, v) -> np.ndarray:
        """Residual of v after elimination against the basis."""
        w = residues(self.p, v)
        if w.shape != (self.ambient,):
            raise ValueError("vector of ambient length expected")
        w = w.copy()
        for i, c in enumerate(self.pivots):
            if w[c]:
                w = (w - w[c] * self.basis[i]) % self.p
        return w

    def contains_vector(self, v) -> bool:
        return not self.reduce(v).any()

    def contains(self, other: "Subspace") -> bool:
        if self.ambient != other.ambient or self.p != other.p:
            raise ValueError("incompatible subspaces")
        return all(self.contains_vector(row) for row in other.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.p == other.p
            and self.ambient == other.ambient
            and self.dim == other.dim
            and bool(np.array_equal(self.basis, other.basis))
        )

    def __hash__(self):
        return hash((self.p, self.ambient, self.basis.tobytes()))

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace(self.p, self.ambient, np.vstack([self.basis, other.basis]))

    def intersect(self, other: "Subspace") -> "Subspace":
        # kernel of the concatenation: coefficient rows (x, y) with
        # x @ A + y @ B = 0 give intersection vectors x @ A = -(y @ B)
        if self.dim == 0 or other.dim == 0:
            return Subspace(self.p, self.ambient)
        stacked = np.vstack([self.basis, other.basis])
        coeffs = kernel_basis(stacked.T, self.p)
        if coeffs.shape[0] == 0:
            return Subspace(self.p, self.ambient)
        vecs = (coeffs[:, : self.dim] @ self.basis) % self.p
        return Subspace(self.p, self.ambient, vecs)

    def annihilator(self) -> "Subspace":
        """Functionals (as coordinate vectors) vanishing on this subspace."""
        if self.dim == 0:
            return Subspace(self.p, self.ambient, np.eye(self.ambient, dtype=np.int64))
        return Subspace(self.p, self.ambient, kernel_basis(self.basis, self.p))

    def __repr__(self):
        return f"Subspace(p={self.p}, ambient={self.ambient}, dim={self.dim})"
