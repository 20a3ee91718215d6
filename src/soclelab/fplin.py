"""Exact dense linear algebra over the prime field F_p.

Matrices are numpy int64 arrays with entries reduced mod p. A subspace of
F_p^n is stored as its reduced row echelon basis, so two subspaces are equal
iff their stored arrays are equal.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import UnsupportedInputError

P_LIMIT = 1 << 16  # p stays below it, so int64 sums of residue products are exact


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def check_prime(p) -> int:
    """p as an int if it is a prime below P_LIMIT; the bound goes first."""
    p = int(p)
    if p >= P_LIMIT:
        raise UnsupportedInputError(f"{p} is not a prime below 2**16")
    if not is_prime(p):
        raise UnsupportedInputError(f"{p} is not prime")
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

    def contains_vector(self, v) -> bool:
        """v, or every row of a stack v, lies in the span: in RREF a row
        lies there iff its pivot entries times the basis rebuild it."""
        w = residues(self.p, v)
        if w.ndim not in (1, 2) or w.shape[-1] != self.ambient:
            raise ValueError("vector of ambient length expected")
        return bool(np.array_equal(w, w[..., list(self.pivots)] @ self.basis % self.p))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.p == other.p
            and self.ambient == other.ambient
            and self.dim == other.dim
            and bool(np.array_equal(self.basis, other.basis))
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        # kernel of the concatenation: coefficient rows (x, y) with
        # x @ A + y @ B = 0 give intersection vectors x @ A = -(y @ B)
        stacked = np.vstack([self.basis, other.basis])
        coeffs = kernel_basis(stacked.T, self.p)
        vecs = (coeffs[:, : self.dim] @ self.basis) % self.p
        return Subspace(self.p, self.ambient, vecs)

    def __repr__(self):
        return f"Subspace(p={self.p}, ambient={self.ambient}, dim={self.dim})"
