"""Constructors for the built-in group families and the family-spec parser.

Every constructor returns a FiniteGroup on a full multiplication table with
the identity at index 0. Representative choices are deterministic: field
moduli are the lexicographically smallest irreducible polynomials, searched
automorphisms take the first hit in index order.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import UnsupportedInputError
from .fplin import binary_power
from .groups import (FiniteGroup, SemidirectSpec, central_product,
                     direct_product, hom_from_images, semidirect_product,
                     table_dtype)

DEFAULT_MAX_ORDER = 2000


# -- finite fields -----------------------------------------------------------


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _poly_mod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i in range(dm + 1):
                a[shift + i] = (a[shift + i] - lead * m[i]) % p
        a.pop()
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a

def _is_irreducible(m, p):
    d = len(m) - 1
    if d == 1:
        return True
    # trial division by every monic polynomial of degree 1..d//2
    for e in range(1, d // 2 + 1):
        for t in range(p ** e):
            div = _int_to_poly(t, p, e) + [1]
            r = _poly_mod(m, div, p)
            if len(r) == 1 and r[0] == 0:
                return False
    return True


def _int_to_poly(t, p, d):
    """Base-p digits of t as d coefficients, constant term last in the int."""
    out = []
    for _ in range(d):
        out.append(t % p)
        t //= p
    return out  # out[i] is the coefficient of x^i


class GF:
    """F_{p^d} with elements coded 0..q-1 (base-p coefficient vectors)."""

    def __init__(self, p: int, d: int):
        if d < 1:
            raise UnsupportedInputError("field degree must be >= 1")
        self.p, self.d, self.q = p, d, p ** d
        self.modulus = self._find_modulus()
        q = self.q
        add = np.empty((q, q), dtype=np.int64)
        mul = np.empty((q, q), dtype=np.int64)
        polys = [_int_to_poly(t, p, d) for t in range(q)]
        for i in range(q):
            for j in range(q):
                add[i, j] = self._encode([(x + y) % p for x, y in zip(polys[i], polys[j])])
                mul[i, j] = self._encode(
                    _poly_mod(_poly_mul(polys[i], polys[j], p), self.modulus, p))
        self.add, self.mul = add, mul
        self.neg = np.argmin(add, axis=1)
        inv = np.zeros(q, dtype=np.int64)
        for x in range(1, q):
            inv[x] = int(np.flatnonzero(mul[x] == 1)[0])
        self.inv = inv

    def _find_modulus(self):
        p, d = self.p, self.d
        # smallest (c_{d-1},...,c_0) lexicographically, read high to low
        for t in range(p ** d):
            m = _int_to_poly(t, p, d) + [1]      # coefficient list, x^d monic
            if _is_irreducible(m, p):
                return m
        raise UnsupportedInputError("no irreducible modulus found")

    def _encode(self, coeffs) -> int:
        t = 0
        for i, c in enumerate(coeffs):
            t += (c % self.p) * (self.p ** i)
        return t

    def pow(self, x: int, e: int) -> int:
        if e < 0:
            x, e = int(self.inv[x]), -e
        return binary_power(int(x), e, lambda a, b: int(self.mul[a, b]), lambda: 1)

    def primitive_element(self) -> int:
        for g in range(2, self.q):
            seen = set()
            x = 1
            for _ in range(self.q - 1):
                x = int(self.mul[x, g])
                seen.add(x)
            if len(seen) == self.q - 1:
                return g
        if self.q == 2:
            return 1
        raise UnsupportedInputError("no primitive element found")


@lru_cache(maxsize=None)
def gf(p: int, d: int) -> GF:
    return GF(p, d)


# -- basic families ----------------------------------------------------------


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise UnsupportedInputError("cyclic order must be positive")
    # row i of the window view is (i + j) mod n
    wrapped = (np.arange(2 * n - 1) % n).astype(table_dtype(n))
    return FiniteGroup(np.lib.stride_tricks.sliding_window_view(wrapped, n),
                       name=f"cyclic({n})")


def abelian(invariants) -> FiniteGroup:
    invs = [int(x) for x in invariants]
    if not invs or any(x < 1 for x in invs):
        raise UnsupportedInputError("invalid invariant list")
    n = math.prod(invs)
    coords = np.array(list(itertools.product(*[range(m) for m in invs])), dtype=np.int64)
    weights = np.ones(len(invs), dtype=np.int64)
    for i in range(len(invs) - 2, -1, -1):
        weights[i] = weights[i + 1] * invs[i + 1]
    table = np.empty((n, n), dtype=table_dtype(n))
    for x in range(n):
        table[x] = (coords[x] + coords) % invs @ weights
    name = "abelian(" + ",".join(map(str, invs)) + ")"
    return FiniteGroup(table, name=name)


def elementary_abelian(p: int, d: int) -> FiniteGroup:
    g = abelian([p] * d)
    g.name = f"elementary({p},{d})"
    return g


def dihedral(m: int) -> FiniteGroup:
    """Order 2m: rotations r^k and reflections, index k + m*s."""
    if m < 1:
        raise UnsupportedInputError("dihedral parameter must be >= 1")
    n = 2 * m
    table = np.empty((n, n), dtype=table_dtype(n))
    for r1 in range(m):
        for s1 in range(2):
            i = r1 + m * s1
            for r2 in range(m):
                for s2 in range(2):
                    r = (r1 + (r2 if s1 == 0 else -r2)) % m
                    table[i, r2 + m * s2] = r + m * (s1 ^ s2)
    return FiniteGroup(table, name=f"dihedral({m})")


def dicyclic(m: int) -> FiniteGroup:
    """Order 4m: <a,b | a^(2m)=1, b^2=a^m, b a b^-1 = a^-1>, index r + 2m*s."""
    if m < 1:
        raise UnsupportedInputError("dicyclic parameter must be >= 1")
    mm = 2 * m
    n = 4 * m
    table = np.empty((n, n), dtype=table_dtype(n))
    for r1 in range(mm):
        for s1 in range(2):
            i = r1 + mm * s1
            for r2 in range(mm):
                for s2 in range(2):
                    if s1 == 0:
                        r, s = (r1 + r2) % mm, s2
                    else:
                        r, s = (r1 - r2) % mm, 1 ^ s2
                        if s2 == 1:
                            r = (r + m) % mm  # b^2 = a^m
                    table[i, r2 + mm * s2] = r + mm * s
    return FiniteGroup(table, name=f"dicyclic({m})")


def quaternion(n: int) -> FiniteGroup:
    if n < 8 or n & (n - 1):
        raise UnsupportedInputError("generalized quaternion order must be 2^k >= 8")
    g = dicyclic(n // 4)
    g.name = f"quaternion({n})"
    return g


def symmetric(n: int) -> FiniteGroup:
    if n < 1 or math.factorial(n) > DEFAULT_MAX_ORDER:
        raise UnsupportedInputError("symmetric degree out of range")
    perms = list(itertools.permutations(range(n)))
    return _perm_table(perms, name=f"sym({n})")


def alternating(n: int) -> FiniteGroup:
    if n < 3 or math.factorial(n) // 2 > DEFAULT_MAX_ORDER:
        raise UnsupportedInputError("alternating degree out of range")
    perms = [s for s in itertools.permutations(range(n)) if _perm_sign(s) == 1]
    return _perm_table(perms, name=f"alt({n})")


def _perm_sign(s) -> int:
    sign = 1
    seen = [False] * len(s)
    for i in range(len(s)):
        if seen[i]:
            continue
        ln, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = s[j]
            ln += 1
        if ln % 2 == 0:
            sign = -sign
    return sign


def _perm_table(perms, name: str) -> FiniteGroup:
    perms = sorted(perms)  # identity is lexicographically first
    index = {s: i for i, s in enumerate(perms)}
    n = len(perms)
    table = np.empty((n, n), dtype=table_dtype(n))
    for i, a in enumerate(perms):
        for j, b in enumerate(perms):
            table[i, j] = index[tuple(a[b[x]] for x in range(len(a)))]
    return FiniteGroup(table, name=name)


def sl2_3() -> FiniteGroup:
    mats = []
    for a, b, c, d in itertools.product(range(3), repeat=4):
        if (a * d - b * c) % 3 == 1:
            mats.append((a, b, c, d))
    ident = (1, 0, 0, 1)
    mats.sort()
    mats.remove(ident)
    mats.insert(0, ident)
    index = {m: i for i, m in enumerate(mats)}
    n = len(mats)
    table = np.empty((n, n), dtype=table_dtype(n))
    for i, (a, b, c, d) in enumerate(mats):
        for j, (e, f, g, h) in enumerate(mats):
            table[i, j] = index[((a * e + b * g) % 3, (a * f + b * h) % 3,
                                 (c * e + d * g) % 3, (c * f + d * h) % 3)]
    return FiniteGroup(table, name="SL2(3)")


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
    if order == 8:
        if kind in ("dihedral", "+"):
            g = dihedral(4)
        elif kind in ("quaternion", "-"):
            g = dicyclic(2)
        else:
            raise UnsupportedInputError(f"unknown extraspecial type {kind!r}")
        g.name = f"extraspecial(8,{kind})"
        return g
    if order == 27:
        if kind in ("exp_p", "+"):
            g = _heisenberg3()
        elif kind in ("exp_p2", "-"):
            g = metacyclic(9, 3, 4)
        else:
            raise UnsupportedInputError(f"unknown extraspecial type {kind!r}")
        g.name = f"extraspecial(27,{kind})"
        return g
    raise UnsupportedInputError("extraspecial families provided for orders 8 and 27")


def _heisenberg3() -> FiniteGroup:
    # triples (a,b,c), product (a,b,c)(x,y,z) = (a+x, b+y, c+z+a*y) mod 3
    def idx(a, b, c):
        return a * 9 + b * 3 + c

    table = np.empty((27, 27), dtype=table_dtype(27))
    for a, b, c in itertools.product(range(3), repeat=3):
        for x, y, z in itertools.product(range(3), repeat=3):
            table[idx(a, b, c), idx(x, y, z)] = idx((a + x) % 3, (b + y) % 3,
                                                    (c + z + a * y) % 3)
    return FiniteGroup(table, name="heisenberg(3)")


def metacyclic(m: int, k: int, r: int) -> FiniteGroup:
    """C_m x| C_k where the generator of C_k maps a to a^r."""
    if math.gcd(r, m) != 1 or pow(r, k, m) != 1:
        raise UnsupportedInputError("metacyclic action parameter invalid")
    action = np.empty((k, m), dtype=np.int64)
    for h in range(k):
        action[h] = (np.arange(m) * pow(r, h, m)) % m
    g, _, _ = semidirect_product(
        SemidirectSpec(kernel=cyclic(m), acting=cyclic(k), action=action),
        name=f"metacyclic({m},{k},{r})")
    return g


# -- searched / specialized constructions -----------------------------------


def _perm_order(perm: np.ndarray) -> int:
    n = perm.size
    seen = np.zeros(n, dtype=bool)
    out = 1
    for i in range(n):
        if seen[i]:
            continue
        ln, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = int(perm[j])
            ln += 1
        out = out * ln // math.gcd(out, ln)
    return out


def heisenberg_affine(p: int) -> FiniteGroup:
    """Heisenberg group of order p^3 extended by a cyclic group acting
    fixed-point-freely on the p^2 quotient. Provided for p = 3 (order 216)."""
    if p != 3:
        raise UnsupportedInputError("heisenberg_affine provided for p = 3 only")
    h = _heisenberg3()
    center = h.center()
    zmask = np.zeros(27, dtype=bool)
    zmask[center] = True
    # two noncentral generators (the greedy set wastes one on the center)
    x = next(i for i in range(1, 27) if not zmask[i])
    y = next(i for i in range(1, 27)
             if h.subgroup_closure([x, i]).size == 27)
    gens = [x, y]
    theta = None
    for u in range(1, 27):
        if zmask[u]:
            continue
        for v in range(1, 27):
            if zmask[v]:
                continue
            fmap = hom_from_images(h, gens, h, [u, v])
            if fmap is None or len(fmap) != 27:
                continue
            perm = np.array([fmap[x] for x in range(27)], dtype=np.int64)
            if len(set(map(int, perm))) != 27:
                continue
            if _perm_order(perm) != 8:
                continue
            # must act without fixed points on nonidentity cosets of the center
            fixed = [x for x in range(27) if not zmask[x]
                     and zmask[h.mul(int(perm[x]), h.inverse(x))]]
            if fixed:
                continue
            theta = perm
            break
        if theta is not None:
            break
    if theta is None:
        raise UnsupportedInputError("no order-8 automorphism found")
    action = np.empty((8, 27), dtype=np.int64)
    action[0] = np.arange(27)
    for i in range(1, 8):
        action[i] = theta[action[i - 1]]
    g, _, _ = semidirect_product(
        SemidirectSpec(kernel=h, acting=cyclic(8), action=action),
        name=f"heisenberg_affine({p})")
    return g


def twisted_affine(p: int, d: int, k: int) -> FiniteGroup:
    """Central-type extension of F_q by F_q twisted by the p^k Frobenius,
    extended by F_q^x acting as (a,b) -> (ua, u^(1+p^k) b). Order q^2 (q-1)."""
    q = p ** d
    if q * q * (q - 1) > 6000:
        raise UnsupportedInputError("twisted_affine parameters too large")
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
    # h acts by (a, b) -> (u a, u^(1+p^k) b) with u = g0^h
    u = np.array([field.pow(g0, h) for h in range(q - 1)], dtype=np.int64)
    ue = mul[u, frob[u]]
    action = (mul[u][:, :, None] * q + mul[ue][:, None, :]).reshape(q - 1, n)
    g, _, _ = semidirect_product(
        SemidirectSpec(kernel=kernel, acting=cyclic(q - 1), action=action),
        name=f"twisted_affine({p},{d},{k})")
    return g


def q8q8_diag_c3() -> FiniteGroup:
    """(Q8 x Q8) x| C_3, the order-3 automorphism applied to both factors."""
    q8 = dicyclic(2)
    a, b = 1, 4
    ab = q8.mul(a, b)
    fmap = hom_from_images(q8, [a, b], q8, [b, ab])
    if fmap is None or len(fmap) != 8:
        raise UnsupportedInputError("triality automorphism construction failed")
    rho = np.array([fmap[x] for x in range(8)], dtype=np.int64)
    if _perm_order(rho) != 3:
        raise UnsupportedInputError("automorphism does not have order 3")
    prod, e1, e2 = direct_product(q8, q8)
    # direct_product index: (x in factor 1, y in factor 2) at y*8 + x
    rho2 = np.empty(64, dtype=np.int64)
    for y in range(8):
        for x in range(8):
            rho2[y * 8 + x] = int(rho[y]) * 8 + int(rho[x])
    action = np.empty((3, 64), dtype=np.int64)
    action[0] = np.arange(64)
    action[1] = rho2
    action[2] = rho2[rho2]
    g, _, _ = semidirect_product(
        SemidirectSpec(kernel=prod, acting=cyclic(3), action=action),
        name="q8q8_diag_c3")
    return g


def _prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            d = 0
            while q % p == 0:
                q //= p
                d += 1
            if q != 1:
                raise UnsupportedInputError("parameter must be a prime power")
            return p, d
    raise UnsupportedInputError("parameter must be a prime power >= 2")


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
    if key == "q8" and not args:
        g = dicyclic(2)
        g.name = "Q8"
        return _capped(g, max_order)
    if key == "agl":
        a = ints(2)
        if a[0] != 1:
            raise UnsupportedInputError("only degree-1 affine groups are provided")
        _check_order(a[1] * (a[1] - 1), max_order)
        return agl1(a[1])
    if key == "sl2":
        if ints(1)[0] != 3:
            raise UnsupportedInputError("only SL2(3) is provided")
        return sl2_3()
    if key == "cyclic":
        return _capped(cyclic(ints(1)[0]), max_order)
    if key == "abelian":
        return _capped(abelian(ints(len(args))), max_order)
    if key == "elementary" or key == "elementary_abelian":
        a = ints(2)
        _check_order(a[0] ** a[1], max_order)
        return elementary_abelian(a[0], a[1])
    if key == "dihedral":
        return _capped(dihedral(ints(1)[0]), max_order)
    if key == "dicyclic":
        return _capped(dicyclic(ints(1)[0]), max_order)
    if key == "quaternion":
        return _capped(quaternion(ints(1)[0]), max_order)
    if key == "sym":
        return _capped(symmetric(ints(1)[0]), max_order)
    if key == "alt":
        return _capped(alternating(ints(1)[0]), max_order)
    if key == "extraspecial":
        if len(args) != 2:
            raise UnsupportedInputError("extraspecial expects (order, type)")
        try:
            order = int(args[0])
        except ValueError as ex:
            raise UnsupportedInputError("extraspecial order must be an integer") from ex
        return _capped(extraspecial(order, args[1]), max_order)
    if key == "metacyclic":
        a = ints(3)
        _check_order(a[0] * a[1], max_order)
        return metacyclic(*a)
    if key == "heisenberg_affine":
        return _capped(heisenberg_affine(ints(1)[0]), max_order)
    if key == "twisted_affine":
        a = ints(3)
        _check_order((a[0] ** a[1]) ** 2 * (a[0] ** a[1] - 1), max_order)
        return twisted_affine(*a)
    if key == "q8q8_diag_c3" and not args:
        return _capped(q8q8_diag_c3(), max_order)
    if key in ("direct", "direct_product"):
        if len(args) < 2:
            raise UnsupportedInputError("direct product needs at least two factors")
        g = sub(0)
        for i in range(1, len(args)):
            b = sub(i)
            _check_order(g.order * b.order, max_order)
            g, _, _ = direct_product(g, b)
        g.name = "direct(" + ",".join(a.strip() for a in args) + ")"
        return g
    if key in ("central", "central_product"):
        if len(args) != 2:
            raise UnsupportedInputError("central product takes two factors")
        a, b = sub(0), sub(1)
        _check_order(a.order * b.order, max_order)
        g, _, _ = central_product(a, b)
        g.name = "central(" + ",".join(x.strip() for x in args) + ")"
        return g
    if key == "sdp":
        if file_loader is None:
            raise UnsupportedInputError("sdp(...) requires file inputs")
        if len(args) != 3:
            raise UnsupportedInputError("sdp expects (kernel_file, acting_file, action_file)")
        return _capped(file_loader(args[0], args[1], args[2]), max_order)
    raise UnsupportedInputError(f"unknown family {name!r}")


def _check_order(n: int, max_order: int):
    if n > max_order:
        raise UnsupportedInputError(
            f"group order {n} exceeds the cap {max_order}")


def _capped(g: FiniteGroup, max_order: int) -> FiniteGroup:
    _check_order(g.order, max_order)
    return g
