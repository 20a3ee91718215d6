"""Constructors for the built-in group families and the family-spec parser.

Every constructor returns a FiniteGroup on a full multiplication table with
the identity at index 0. Representative choices are deterministic: field
moduli are the lexicographically smallest irreducible polynomials, and
automorphisms are given by formula or by images of fixed generators.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import UnsupportedInputError
from .fplin import binary_power
from .groups import (FiniteGroup, WordTree, block_rows, central_product, direct_product,
                     prime_factors, semidirect_product, table_dtype)

DEFAULT_MAX_ORDER = 2000


# -- finite fields -----------------------------------------------------------


class GF:
    """F_{p^d} with elements coded 0..q-1: base-p digit i of a code is its
    coefficient of x^i. The modulus x^d + low is the first candidate, with
    low taken in code order, whose own product table has no zero divisor:
    F_p[x]/(m) is a field exactly when m is irreducible."""

    def __init__(self, p: int, d: int):
        if d < 1:
            raise UnsupportedInputError("field degree must be >= 1")
        self.p, self.d, self.q = p, d, p ** d
        q = self.q
        weights = p ** np.arange(d)
        digits = np.arange(q)[:, None] // weights % p          # [code, i]
        self.add = (digits[:, None] + digits) % p @ weights
        # conv[a, b, k] is the coefficient of x^k in the product of a and b
        conv = np.zeros((q, q, 2 * d - 1), dtype=np.int64)
        for i in range(d):
            conv[:, :, i:i + d] += digits[:, None, i, None] * digits
        rows = np.eye(2 * d - 1, d, dtype=np.int64)            # x^k mod m
        for low in digits:
            for k in range(d, 2 * d - 1):                      # x^d = -low
                rows[k] = (np.append(0, rows[k - 1, :-1]) - rows[k - 1, -1] * low) % p
            mul = conv @ rows % p @ weights
            if mul[1:, 1:].all():
                break
        else:
            raise UnsupportedInputError("no irreducible modulus found")
        self.modulus = [int(c) for c in low] + [1]
        self.mul, self.inv = mul, np.argmax(mul == 1, axis=1)

    def pow(self, x: int, e: int) -> int:
        if e < 0:
            x, e = int(self.inv[x]), -e
        return binary_power(int(x), e, lambda a, b: int(self.mul[a, b]), lambda: 1)

    def primitive_element(self) -> int:
        """The smallest code of multiplicative order q - 1."""
        for g in range(1, self.q):
            x, order = g, 1
            while x != 1:
                x, order = int(self.mul[x, g]), order + 1
            if order == self.q - 1:
                return g
        raise UnsupportedInputError("no primitive element found")


@lru_cache(maxsize=None)
def gf(p: int, d: int) -> GF:
    return GF(p, d)


# -- basic families ----------------------------------------------------------


def _named(g: FiniteGroup, name: str) -> FiniteGroup:
    g.name = name
    return g


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise UnsupportedInputError("cyclic order must be positive")
    # row i of the window view is (i + j) mod n
    wrapped = (np.arange(2 * n - 1) % n).astype(table_dtype(n))
    return FiniteGroup(np.lib.stride_tricks.sliding_window_view(wrapped, n),
                       name=f"cyclic({n})")


def abelian(invariants) -> FiniteGroup:
    """C_m1 x ... x C_mr, the first coordinate the most significant digit of
    an index: direct_product puts each new factor above the group so far."""
    invs = [int(x) for x in invariants]
    if not invs or any(x < 1 for x in invs):
        raise UnsupportedInputError("invalid invariant list")
    factors = [m for m in reversed(invs) if m > 1] or [1]
    g = cyclic(factors[0])
    for m in factors[1:]:
        g = direct_product(g, cyclic(m))
    return _named(g, "abelian(" + ",".join(map(str, invs)) + ")")


def elementary_abelian(p: int, d: int) -> FiniteGroup:
    if p < 2 or d < 1:  # before [p] * d, which a huge |d| overflows: 1^d and 2^-d pass the cap
        raise UnsupportedInputError("invalid invariant list")
    return _named(abelian([p] * d), f"elementary({p},{d})")


def dihedral(m: int) -> FiniteGroup:
    """Order 2m: rotations r^k and reflections, index k + m*s."""
    if m < 1:
        raise UnsupportedInputError("dihedral parameter must be >= 1")
    return _inverted_cyclic(m, 0, name=f"dihedral({m})")


def dicyclic(m: int) -> FiniteGroup:
    """Order 4m: <a,b | a^(2m)=1, b^2=a^m, b a b^-1 = a^-1>, index r + 2m*s."""
    if m < 1:
        raise UnsupportedInputError("dicyclic parameter must be >= 1")
    return _inverted_cyclic(2 * m, m, name=f"dicyclic({m})")


def _inverted_cyclic(k: int, shift: int, name: str) -> FiniteGroup:
    """<a, b | a^k = 1, b^2 = a^shift, b a b^-1 = a^-1>, a^r b^s at r + k s:
    a^r1 b^s1 a^r2 b^s2 = a^(r1 + (-1)^s1 r2 + shift s1 s2) b^(s1 xor s2).
    Written in the table dtype, where every sum below stays under 2k."""
    s1, s2, r2 = np.ix_(range(2), range(2), range(k))
    step = ((1 - 2 * s1) * r2 + shift * s1 * s2) % k         # [s1, s2, r2]
    table = np.empty((2 * k, 2 * k), dtype=table_dtype(2 * k))
    t = table.reshape(2, k, 2, k)                            # [s1, r1, s2, r2]
    np.add(np.arange(k, dtype=table.dtype)[:, None, None],
           step.astype(table.dtype)[:, None], out=t)
    np.remainder(t, k, out=t)
    np.add(t, (k * (s1 ^ s2)).astype(table.dtype)[:, None], out=t)
    return FiniteGroup(table, name=name)


def quaternion(n: int) -> FiniteGroup:
    if n < 8 or n & (n - 1):
        raise UnsupportedInputError("generalized quaternion order must be 2^k >= 8")
    return _named(dicyclic(n // 4), f"quaternion({n})")


def symmetric(n: int) -> FiniteGroup:
    """Generated by the transposition (0 1) and the n-cycle."""
    if n < 1:
        raise UnsupportedInputError("symmetric degree must be >= 1")
    ar = np.arange(n)
    gens = [ar[[1, 0, *ar[2:]]], np.roll(ar, -1)] if n > 1 else []
    return permutation_group(gens, n, f"sym({n})", math.factorial(n))


def alternating(n: int) -> FiniteGroup:
    """Generated by the 3-cycles (0 1 c), c = 2..n-1."""
    if n < 3:
        raise UnsupportedInputError("alternating degree must be >= 3")
    c = np.arange(2, n)
    gens = np.tile(np.arange(n), (n - 2, 1))
    gens[:, 0], gens[:, 1], gens[c - 2, c] = 1, c, 0
    return permutation_group(gens, n, f"alt({n})", math.factorial(n) // 2)


def permutation_group(gens, k: int, name: str, max_order: int) -> FiniteGroup:
    """The group generated by the permutations gens of 0..k-1 under
    (a b)(x) = a(b(x)), in lexicographic order: the identity first, then
    increasing base-k codes (in int64 for k <= 15). The closure is
    breadth-first, one generator at a time per level, and stops once it
    holds more than max_order elements, before any table exists. A new
    x = g a keeps its parent a, and row x of the table is row_g[row_a]: only
    the rows of the generators are code lookups (Dimino's method; G. Butler,
    Fundamental Algorithms for Permutation Groups, LNCS 559, 1991)."""
    ident, weights = np.arange(k), k ** np.arange(k - 1, -1, -1)
    gens = np.asarray(gens, dtype=np.intp).reshape(-1, k)
    gens = gens[np.unique(gens @ weights, return_index=True)[1]]
    perms, codes, parents = ident[None], ident[None] @ weights, np.zeros(1, dtype=np.intp)
    batches, lo = [], 0
    while lo < len(perms):
        frontier, base, lo = perms[lo:], lo, len(perms)
        for i, g in enumerate(gens):
            found, first = np.unique(g[frontier] @ weights, return_index=True)
            new = ~np.isin(found, codes, assume_unique=True)
            batches.append((i, len(perms), len(perms) + new.sum()))
            perms = np.concatenate([perms, g[frontier[first[new]]]])
            codes = np.concatenate([codes, found[new]])
            parents = np.concatenate([parents, base + first[new]])
            if len(perms) > max_order:
                raise UnsupportedInputError(f"generated group exceeds the cap {max_order}")
    n, order = len(perms), np.argsort(codes)
    pos, dtype = np.argsort(order), table_dtype(n)
    rows = [np.searchsorted(codes[order], g[perms[order]] @ weights).astype(dtype)
            for g in gens]
    table = np.empty((n, n), dtype=dtype)
    table[0] = np.arange(n)
    # by levels, in blocks of the parent rows, their intp copy and the result
    step = block_rows(n * (2 * dtype.itemsize + 8))
    for i, lo, hi in batches:
        for b in range(lo, hi, step):
            kids = slice(b, min(hi, b + step))
            table[pos[kids]] = rows[i][table[pos[parents[kids]]]]
    return FiniteGroup(table, name=name)


def sl2_3() -> FiniteGroup:
    """The 24 matrices [[a, b], [c, d]] of determinant 1 over F_3, the
    identity first and the rest in lexicographic order of (a, b, c, d)."""
    dt = table_dtype(24)
    a, b, c, d = entries = np.indices((3, 3, 3, 3), dtype=dt).reshape(4, 81)
    codes = np.flatnonzero((a * d + 2 * b * c) % 3 == 1)     # 27 a + 9 b + 3 c + d
    codes = np.concatenate([[28], codes[codes != 28]])
    index = np.zeros(81, dtype=dt)
    index[codes] = np.arange(24)
    mats = entries[:, codes].T.reshape(24, 2, 2)
    prods = (mats[:, None] @ mats % 3).reshape(24, 24, 4)
    return FiniteGroup(index[prods @ np.array([27, 9, 3, 1], dtype=dt)], name="SL2(3)")


def agl1(q: int) -> FiniteGroup:
    """Affine maps x -> ax + b over F_q, a != 0. Order q(q-1)."""
    p, d = _prime_power(q)
    field = gf(p, d)
    n = (q - 1) * q
    # (a1, b1)(a2, b2) = (a1 a2, a1 b2 + b1), element (a, b) at (a - 1) q + b
    units = np.arange(1, q)
    dtype = table_dtype(n)
    arow = field.mul[units]                                  # [a1, x] = a1 x
    a_part = ((arow[:, units] - 1) * q).astype(dtype)        # [a1, a2]
    b_part = field.add[arow[:, None, :], np.arange(q)[None, :, None]]  # [a1, b1, b2]
    table = np.empty((n, n), dtype=dtype)
    np.add(a_part[:, None, :, None], b_part.astype(dtype)[:, :, None, :],
           out=table.reshape(q - 1, q, q - 1, q))
    return FiniteGroup(table, name=f"AGL(1,{q})")


def extraspecial(order: int, kind: str) -> FiniteGroup:
    kind = kind.strip()
    kinds = {8: [("dihedral", "+", lambda: dihedral(4)),
                 ("quaternion", "-", lambda: dicyclic(2))],
             27: [("exp_p", "+", _heisenberg3),
                  ("exp_p2", "-", lambda: metacyclic(9, 3, 4))]}
    if order not in kinds:
        raise UnsupportedInputError("extraspecial families provided for orders 8 and 27")
    for word, sign, build in kinds[order]:
        if kind in (word, sign):
            return _named(build(), f"extraspecial({order},{kind})")
    raise UnsupportedInputError(f"unknown extraspecial type {kind!r}")


def _heisenberg3() -> FiniteGroup:
    # triples (a,b,c) at 9a + 3b + c, (a,b,c)(x,y,z) = (a+x, b+y, c+z+a*y) mod 3
    a, b, c = np.indices((3, 3, 3), dtype=table_dtype(27)).reshape(3, 27, 1)
    table = (a + a.T) % 3 * 9 + (b + b.T) % 3 * 3 + (c + c.T + a * b.T) % 3
    return FiniteGroup(table, name="heisenberg(3)")


def metacyclic(m: int, k: int, r: int) -> FiniteGroup:
    """C_m x| C_k where the generator of C_k maps a to a^r."""
    if m < 1 or k < 1:
        raise UnsupportedInputError("metacyclic orders m and k must be >= 1")
    if math.gcd(r, m) != 1 or pow(r, k, m) != 1:
        raise UnsupportedInputError("metacyclic action parameter invalid")
    return cyclic_extension(cyclic(m), np.arange(m) * (r % m) % m, k,
                            f"metacyclic({m},{k},{r})")


def cyclic_extension(kernel: FiniteGroup, theta, k: int, name: str) -> FiniteGroup:
    """kernel x| C_k, the generator of C_k acting by the automorphism theta,
    a permutation of the kernel's elements: row h of the action is theta^h.
    semidirect_product checks that theta is an automorphism with theta^k = 1."""
    action = np.empty((k, kernel.order), dtype=np.int64)
    action[0] = np.arange(kernel.order)
    for h in range(1, k):
        action[h] = theta[action[h - 1]]
    return semidirect_product(kernel, cyclic(k), action, name=name)


# -- specialized constructions ---------------------------------------------


def _heisenberg3_automorphism() -> np.ndarray:
    """theta(a, b, c) = (a + b, a, ab + a(a - 1)/2 - c) mod 3 on the triples
    of _heisenberg3, as a permutation of their indices a*9 + b*3 + c. It is
    an automorphism of order 8: on H/Z(H) = F_3^2 it is the matrix
    [[1, 1], [1, 0]], of order 8 with no eigenvalue 1, so it moves every
    non-central coset of the center."""
    a, b, c = np.indices((3, 3, 3)).reshape(3, 27)
    return (a + b) % 3 * 9 + a * 3 + (a * b + a * (a - 1) // 2 - c) % 3


def heisenberg_affine(p: int) -> FiniteGroup:
    """Heisenberg group of order p^3 extended by a cyclic group acting
    fixed-point-freely on the p^2 quotient. Provided for p = 3 (order 216):
    C_8 acts by the powers of _heisenberg3_automorphism."""
    if p != 3:
        raise UnsupportedInputError("heisenberg_affine provided for p = 3 only")
    return cyclic_extension(_heisenberg3(), _heisenberg3_automorphism(), 8,
                            f"heisenberg_affine({p})")


def twisted_affine(p: int, d: int, k: int) -> FiniteGroup:
    """Central-type extension of F_q by F_q twisted by the p^k Frobenius,
    extended by F_q^x acting as (a,b) -> (ua, u^(1+p^k) b). Order q^2 (q-1):
    the cyclic extension by (a, b) -> (g0 a, g0^(1+p^k) b), g0 primitive."""
    if p < 2:  # before p ** d: (-2)^odd gives a negative order, which passes the cap
        raise UnsupportedInputError("twisted_affine needs p >= 2")
    q = p ** d
    field = gf(p, d)
    pk = p ** (k % d) if d > 0 else 1
    frob = np.array([field.pow(x, pk) for x in range(q)], dtype=np.int64)
    n = q * q
    add, mul = field.add, field.mul
    # (a, b)(c, d) = (a + c, b + d + a c^(p^k)), element (a, b) at a q + b
    twist = mul[:, frob]                                     # [a, c]
    narrow = add.astype(table_dtype(n))
    table = np.empty((n, n), dtype=narrow.dtype)
    np.add(narrow[:, None, :, None] * q,
           narrow[add[None, :, None, :], twist[:, None, :, None]],
           out=table.reshape(q, q, q, q))
    kernel = FiniteGroup(table, name=f"twisted_kernel({p},{d},{k})")
    g0 = field.primitive_element()
    theta = (mul[g0][:, None] * q + mul[mul[g0, frob[g0]]]).ravel()
    return cyclic_extension(kernel, theta, q - 1, f"twisted_affine({p},{d},{k})")


def q8q8_diag_c3() -> FiniteGroup:
    """(Q8 x Q8) x| C_3, the automorphism rho: a -> b -> ab of Q8 = <a, b>
    applied to both factors."""
    q8, a, b = dicyclic(2), 1, 4
    words, rho = WordTree(q8, [a, b]), np.zeros(8, dtype=np.int64)
    for i in range(2):  # cyclic_extension checks that rho is an automorphism
        words.fill_and_check(q8, np.array([b, q8.mul(a, b)]), i, rho)
    # (x, y) at y 8 + x in direct_product
    return cyclic_extension(direct_product(q8, q8), (rho[:, None] * 8 + rho).ravel(), 3,
                            "q8q8_diag_c3")


def _prime_power(q: int) -> tuple[int, int]:
    primes = prime_factors(q)
    if not primes:
        raise UnsupportedInputError("parameter must be a prime power >= 2")
    if len(primes) > 1:
        raise UnsupportedInputError("parameter must be a prime power")
    p, d = primes[0], 1
    while p ** d < q:
        d += 1
    return p, d


# -- family-spec parsing ------------------------------------------------------


def _split_args(s: str) -> list[str]:
    out, depth, cur = [], 0, []
    for ch in s:
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise UnsupportedInputError("unbalanced parentheses in family spec")
        cur.append(ch)
    if depth:
        raise UnsupportedInputError("unbalanced parentheses in family spec")
    tail = "".join(cur).strip()
    if tail or not out:
        out.append(tail)
    return out


def parse_family(spec: str, max_order: int = DEFAULT_MAX_ORDER,
                 file_loader=None) -> FiniteGroup:
    """Build a group from a family-spec string such as "AGL(1,8)" or
    "central(SL2(3),SL2(3))". file_loader(path) supplies groups for sdp()."""
    s = spec.strip()
    if not s:
        raise UnsupportedInputError("empty family spec")
    if "(" not in s:
        name, args = s, []
    else:
        if not s.endswith(")"):
            raise UnsupportedInputError(f"malformed family spec {spec!r}")
        name, _, rest = s.partition("(")
        name = name.strip()
        args = _split_args(rest[:-1])
        if args == [""]:
            args = []

    def ints(k: int) -> list[int]:
        if len(args) != k:
            raise UnsupportedInputError(f"{name} expects {k} integer argument(s)")
        try:
            return [int(a) for a in args]
        except ValueError as ex:
            raise UnsupportedInputError(f"bad integer in family spec {spec!r}") from ex

    def sub(i: int) -> FiniteGroup:
        return parse_family(args[i], max_order=max_order, file_loader=file_loader)

    key = name.lower()
    if key in _INT_FAMILIES:
        arity, order, build = _INT_FAMILIES[key]
        a = ints(len(args) if arity is None else arity)
        _check_order(order(max(max_order, 10 ** 30), *a), max_order)
        return build(*a)
    if key == "extraspecial":
        if len(args) != 2:
            raise UnsupportedInputError("extraspecial expects (order, type)")
        try:
            order = int(args[0])
        except ValueError as ex:
            raise UnsupportedInputError("extraspecial order must be an integer") from ex
        _check_order(order, max_order)
        return extraspecial(order, args[1])
    if key in ("direct", "direct_product"):
        if len(args) < 2:
            raise UnsupportedInputError("direct product needs at least two factors")
        g = sub(0)
        for i in range(1, len(args)):
            b = sub(i)
            _check_order(g.order * b.order, max_order)
            g = direct_product(g, b)
        return _named(g, "direct(" + ",".join(a.strip() for a in args) + ")")
    if key in ("central", "central_product"):
        if len(args) != 2:
            raise UnsupportedInputError("central product takes two factors")
        a, b = sub(0), sub(1)
        _check_order(a.order * b.order, max_order)
        return _named(central_product(a, b), "central(" + ",".join(x.strip() for x in args) + ")")
    if key == "sdp":
        if file_loader is None:
            raise UnsupportedInputError("sdp(...) requires file inputs")
        if len(args) != 3:
            raise UnsupportedInputError("sdp expects (kernel_file, acting_file, action_file)")
        return file_loader(args[0], args[1], args[2])  # checks the cap itself
    raise UnsupportedInputError(f"unknown family {name!r}")


def _capped_pow(p: int, d: int, limit: int) -> int:
    """p ** d, or a number of its sign beyond +-limit when p ** d is: the
    exponent is cut to the bit length of limit, keeping its parity. A
    negative d gives a fraction (0 for p = 0), which the constructor refuses."""
    if d < 0:
        return p ** d if p else 0
    b = limit.bit_length()
    if d > b:
        d = b + (d - b) % 2
    return p ** d


def _capped_factorial(n: int, limit: int) -> int:
    """n! (1 for n < 0), or a number above limit when n! is: k! >= 2^(k-1)."""
    return math.factorial(min(max(n, 0), limit.bit_length() + 1))


def _refuse(message: str):
    raise UnsupportedInputError(message)


# Families of integer arguments: name -> (number of arguments, or None for
# any, the group order, constructor). parse_family checks the order against
# the cap before it calls the constructor, which refuses the arguments it
# does not provide. The order takes a limit, at least the cap and 10^30,
# past which it may be any larger number.
_INT_FAMILIES = {
    "q8": (0, lambda lim: 8, lambda: _named(dicyclic(2), "Q8")),
    "q8q8_diag_c3": (0, lambda lim: 192, q8q8_diag_c3),
    "sl2": (1, lambda lim, q: q * (q * q - 1),
            lambda q: sl2_3() if q == 3 else _refuse("only SL2(3) is provided")),
    "agl": (2, lambda lim, d, q: q * (q - 1), lambda d, q: agl1(q) if d == 1 else
            _refuse("only degree-1 affine groups are provided")),
    "cyclic": (1, lambda lim, n: n, cyclic),
    "abelian": (None, lambda lim, *invs: math.prod(invs), lambda *invs: abelian(invs)),
    "elementary": (2, lambda lim, p, d: _capped_pow(p, d, lim), elementary_abelian),
    "dihedral": (1, lambda lim, m: 2 * m, dihedral),
    "dicyclic": (1, lambda lim, m: 4 * m, dicyclic),
    "quaternion": (1, lambda lim, n: n, quaternion),
    "sym": (1, lambda lim, n: _capped_factorial(n, lim), symmetric),
    "alt": (1, lambda lim, n: _capped_factorial(n, 2 * lim) // 2, alternating),
    "metacyclic": (3, lambda lim, m, k, r: m * k, metacyclic),
    "heisenberg_affine": (1, lambda lim, p: p ** 3 * (p * p - 1), heisenberg_affine),
    "twisted_affine": (3, lambda lim, p, d, k: (q := _capped_pow(p, d, lim)) * q * (q - 1),
                       twisted_affine),
}
_INT_FAMILIES["elementary_abelian"] = _INT_FAMILIES["elementary"]


def _check_order(n: int, max_order: int):
    if n > max_order:
        # str() refuses integers of more than 4300 digits
        shown = n if n < 10 ** 30 else "above 10^30"
        raise UnsupportedInputError(
            f"group order {shown} exceeds the cap {max_order}")
