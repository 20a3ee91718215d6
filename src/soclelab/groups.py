"""Finite groups as complete multiplication tables.

Elements are integers 0..n-1 and 0 is the identity. Everything is table
driven, so any construction (permutations, matrices, products, quotients)
is normalized to the same representation. Determinism rule used throughout:
ties are broken by smallest element index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, UnsupportedInputError
from .fplin import binary_power

ISO_ORDER_LIMIT = 512
# cells of the largest temporary one blockwise check or center product builds
BLOCK_CELLS = 1 << 18


def table_dtype(n: int) -> np.dtype:
    """dtype of the Cayley table and the inverse map of an order-n group:
    uint16 while every element index fits in it, int32 above (where the
    table already takes more than 8 GB). Arithmetic on entries that can
    leave [0, n) widens to int64 first."""
    return np.dtype(np.uint16) if n <= 1 << 16 else np.dtype(np.int32)


def int_p_part(n: int, p: int) -> int:
    k = 1
    while n % p == 0:
        n //= p
        k *= p
    return k


class FiniteGroup:
    def __init__(self, table, name: str | None = None, labels=None, check: bool = True):
        t = np.asarray(table)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise UnsupportedInputError("multiplication table must be square")
        n = t.shape[0]
        if n == 0:
            raise UnsupportedInputError("empty table")
        # checked before narrowing, so that no entry wraps into range
        if t.min() < 0 or t.max() >= n:
            raise UnsupportedInputError("table entries out of range")
        self.table = np.ascontiguousarray(t, dtype=table_dtype(n))
        self.order = n
        self.name = name or f"group_of_order_{n}"
        self.labels = list(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != n:
            raise UnsupportedInputError("label count mismatch")
        self._memo: dict = {}
        self.inv = self._build_inverses(check)
        if check:
            self._check_axioms()
        self.table.flags.writeable = False
        self.inv.flags.writeable = False

    # -- validation ----------------------------------------------------

    def _build_inverses(self, check: bool) -> np.ndarray:
        """inv[x] is the position of the first 0 in row x. With check, 0
        must be a two-sided identity and inv[x] a two-sided inverse of x."""
        t, ar = self.table, np.arange(self.order)
        if check and (not np.array_equal(t[0], ar) or not np.array_equal(t[:, 0], ar)):
            raise UnsupportedInputError("element 0 is not a two-sided identity")
        inv = np.argmin(t, axis=1).astype(t.dtype)
        if check and not ((t[ar, inv] == 0).all() and (t[inv, ar] == 0).all()):
            self._check_latin()
            raise UnsupportedInputError("left and right inverses differ")
        return inv

    def _check_latin(self):
        """Raise if a row or a column is not a permutation. Only a rejected
        table gets here, so that the first failing check names the error:
        an accepted table is a group and so a Latin square."""
        t, ar = self.table, np.arange(self.order)
        if not np.array_equal(np.sort(t, axis=1), np.broadcast_to(ar, t.shape)):
            raise UnsupportedInputError("a row is not a permutation")
        if not np.array_equal(np.sort(t, axis=0), np.broadcast_to(ar[:, None], t.shape)):
            raise UnsupportedInputError("a column is not a permutation")

    def _check_axioms(self):
        """Light's associativity test: (x s) y = x (s y) for all x, y and
        each generator s. The elements s passing it are closed under the
        product, and every element is a product of generators, so passing
        for the generators is passing for all (Clifford and Preston, The
        Algebraic Theory of Semigroups I, 1961, section 1.2). With the
        two-sided identity and inverses already checked, the table is then
        a group. The block buffers are allocated once and refilled, as
        fresh temporaries for every block fault in new pages."""
        t, n = self.table, self.order
        step = min(n, max(1, BLOCK_CELLS // n))
        lhs = np.empty((step, n), dtype=t.dtype)
        rhs = np.empty((step, n), dtype=t.dtype)
        same = np.empty((step, n), dtype=bool)
        for s in self.generators():
            s_right = t[s]
            for lo in range(0, n, step):
                rows = t[lo:lo + step]
                m = rows.shape[0]
                # entries are in range; mode="raise" would buffer out
                np.take(t, rows[:, s], axis=0, out=lhs[:m], mode="clip")
                np.take(rows, s_right, axis=1, out=rhs[:m], mode="clip")
                if not np.equal(lhs[:m], rhs[:m], out=same[:m]).all():
                    self._check_latin()
                    raise UnsupportedInputError(
                        f"associativity fails at generator {s}")

    # -- elementary operations ------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return int(self.table[self.table[g, x], self.inv[g]])

    def commutator(self, a: int, b: int) -> int:
        """a b a^-1 b^-1."""
        return int(self.table[self.table[a, b], self.table[self.inv[a], self.inv[b]]])

    def power(self, x: int, k: int) -> int:
        if k < 0:
            x, k = int(self.inv[x]), -k
        return binary_power(int(x), k, self.mul, lambda: 0)

    def element_orders(self) -> np.ndarray:
        if "orders" not in self._memo:
            n = self.order
            out = np.zeros(n, dtype=np.int64)
            out[0] = 1
            cur = np.arange(n)
            k = 1
            while (out == 0).any():
                k += 1
                cur = self.table[cur, np.arange(n)]
                hit = (cur == 0) & (out == 0)
                out[hit] = k
            out.flags.writeable = False
            self._memo["orders"] = out
        return self._memo["orders"]

    def element_order(self, x: int) -> int:
        return int(self.element_orders()[x])

    def exponent_factor(self, x: int, p: int) -> tuple[int, int]:
        """(p-part, p'-part) of the order of x."""
        o = self.element_order(x)
        pa = int_p_part(o, p)
        return pa, o // pa

    def element_p_part(self, x: int, p: int) -> int:
        pa, m = self.exponent_factor(x, p)
        if pa == 1:
            return 0
        return self.power(x, m * pow(m, -1, pa))

    # -- generation and closure ------------------------------------------

    def subgroup_closure(self, gens) -> np.ndarray:
        """Sorted elements of the subgroup generated by gens.

        Generators already in the closure add nothing and are skipped, as in
        Dimino's algorithm; each kept one grows the closure to a fixed point
        under right multiplication by all kept generators.
        """
        seen = np.zeros(self.order, dtype=bool)
        seen[0] = True
        kept: list[int] = []
        for g in sorted({int(x) for x in gens} - {0}):
            if not seen[g]:
                self._grow(seen, kept, g)
        return np.flatnonzero(seen)

    def _grow(self, seen: np.ndarray, kept: list[int], g: int) -> None:
        """Append g to kept and grow the closure marked in seen, in place,
        to a fixed point under right multiplication by all of kept."""
        t = self.table
        kept.append(g)
        frontier = seen.nonzero()[0]
        new = np.zeros_like(seen)
        while frontier.size:
            new[t[frontier[:, None], kept]] = True
            np.greater(new, seen, out=new)  # new and not seen
            seen |= new
            frontier = new.nonzero()[0]
            new[frontier] = False

    def generators(self) -> list[int]:
        if "gens" not in self._memo:
            self._memo["gens"] = self.sub_generators(np.arange(self.order))
        return list(self._memo["gens"])

    def sub_generators(self, elems) -> list[int]:
        """Greedy small generating set of a subgroup given by its elements:
        the smallest element not yet generated, until all are. Each one
        grows the closure of those before it."""
        inside = self.mask(elems)
        have = np.zeros(self.order, dtype=bool)
        have[0] = True
        gens: list[int] = []
        while (rest := np.flatnonzero(inside & ~have)).size:
            self._grow(have, gens, int(rest[0]))
            if (have & ~inside).any():
                raise UnsupportedInputError("element set is not a subgroup")
        return gens

    def normal_closure(self, seed) -> np.ndarray:
        """Smallest normal subgroup containing seed: the subgroup generated
        by the conjugacy classes seed meets, whose union is normal."""
        cls_of = self.class_index_of()
        meets = np.zeros(len(self.conjugacy_classes()), dtype=bool)
        meets[cls_of[np.asarray(list(seed), dtype=np.int64)]] = True
        return self.subgroup_closure(np.flatnonzero(meets[cls_of]))

    def _check_subgroup(self, elems: np.ndarray) -> None:
        """Raise unless the sorted distinct elements form a subgroup."""
        mask = self.mask(elems)
        if not mask[0]:
            raise UnsupportedInputError("subgroup must contain the identity")
        prods = self.table[np.ix_(elems, elems)]
        if not mask[prods].all():
            raise UnsupportedInputError("element set is not closed under the product")

    # -- element sets ----------------------------------------------------
    # A set of elements is a sorted array of distinct indices, so two sets
    # are equal iff their arrays are.

    def mask(self, elems) -> np.ndarray:
        """Membership vector of elems over all n elements."""
        mask = np.zeros(self.order, dtype=bool)
        mask[np.asarray(elems, dtype=np.int64)] = True
        return mask

    def is_subgroup(self, elems) -> bool:
        """elems is a subgroup: its closure adds no element to it."""
        return self.subgroup_closure(elems).size == np.unique(elems).size

    def commute(self, a, b) -> bool:
        """Every element of a commutes with every element of b."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        return bool((self.table[np.ix_(a, b)] == self.table[np.ix_(b, a)].T).all())

    # -- conjugacy -------------------------------------------------------

    def conjugation_perm(self, g: int) -> np.ndarray:
        return self.table[self.table[g], self.inv[g]]

    def conjugacy_classes(self) -> list["ConjClass"]:
        if "classes" not in self._memo:
            n = self.order
            perms = [self.conjugation_perm(g) for g in self.generators()]
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
                elems = np.array(raw[old_i], dtype=np.int64)
                elems.flags.writeable = False
                classes.append(ConjClass(rep=int(elems[0]), elems=elems))
            cls_of = remap[cls_of]
            cls_of.flags.writeable = False
            self._memo["classes"] = (classes, cls_of)
        return self._memo["classes"][0]

    def class_index_of(self) -> np.ndarray:
        self.conjugacy_classes()
        return self._memo["classes"][1]

    # -- distinguished subgroups -----------------------------------------

    def center(self) -> np.ndarray:
        """The centralizer of a generating set."""
        if "center" not in self._memo:
            self._memo["center"] = self.centralizer(self.generators())
        return self._memo["center"]

    def centralizer(self, elems, within=None) -> np.ndarray:
        elems = np.atleast_1d(np.asarray(elems, dtype=np.int64))
        a = self.table[:, elems]
        b = self.table[elems, :].T
        mask = (a == b).all(axis=1)
        out = np.flatnonzero(mask)
        if within is not None:
            out = out[self.mask(within)[out]]
        return out

    def derived_subgroup(self) -> np.ndarray:
        if "derived" not in self._memo:
            self._memo["derived"] = self.sub_derived(np.arange(self.order))
        return self._memo["derived"]

    def sub_derived(self, elems) -> np.ndarray:
        """[H, H], generated by the commutators [x, h] with x a generator of
        H and h in H. They generate a normal subgroup of H, because
        [x, ab] = [x, a] a[x, b]a^-1, and H modulo it is abelian."""
        h = np.asarray(elems, dtype=np.int64)
        x = np.asarray(self.sub_generators(h), dtype=np.int64)[:, None]
        t, inv = self.table, self.inv
        return self.subgroup_closure(t[t[x, h], t[inv[x], inv[h]]].ravel())

    def second_derived(self) -> np.ndarray:
        if "second_derived" not in self._memo:
            self._memo["second_derived"] = self.sub_derived(self.derived_subgroup())
        return self._memo["second_derived"]

    def second_derived_quotient(self) -> "QuotientMap":
        """The map onto G / G''."""
        if "second_derived_quotient" not in self._memo:
            self._memo["second_derived_quotient"] = self.quotient(self.second_derived())
        return self._memo["second_derived_quotient"]

    def derived_series(self) -> list[np.ndarray]:
        series = [np.arange(self.order, dtype=np.int64)]
        while True:
            nxt = self.sub_derived(series[-1])
            if nxt.size == series[-1].size:
                break
            series.append(nxt)
            if nxt.size == 1:
                break
        return series

    def sub_center(self, elems) -> np.ndarray:
        return self.centralizer(elems, within=elems)

    # -- Sylow and Hall ----------------------------------------------------

    def sylow_subgroup(self, p: int) -> np.ndarray:
        key = ("sylow", p)
        if key not in self._memo:
            pk = int_p_part(self.order, p)
            if pk == 1:
                self._memo[key] = np.array([0], dtype=np.int64)
                return self._memo[key]
            orders = self.element_orders()
            t, inv, n = self.table, self.inv, self.order
            pp = np.ones(n, dtype=np.int64)  # p-part of each element order
            while (m := orders % (pp * p) == 0).any():
                pp[m] *= p
            # seed with the p-part of the first element of maximal p-part order
            s = self.subgroup_closure([self.element_p_part(int(pp.argmax()), p)])
            # extend by the first p-element c outside s, c^p in s, normalizing s
            ar = np.arange(n)
            pth = binary_power(ar, p, lambda a, b: t[a, b], lambda: ar)
            mask = np.zeros(n, dtype=bool)
            while s.size < pk:
                mask[s] = True
                for c in (~mask & (pp == orders) & mask[pth]).nonzero()[0]:
                    if mask[t[t[c, s], inv[c]]].all():
                        break
                else:
                    raise ConsistencyError("Sylow ascent found no extension")
                s = self.subgroup_closure(list(s) + [c])
            self._memo[key] = s
        return self._memo[key]

    def hall_complement(self, p: int, sylow=None) -> np.ndarray | None:
        """Subgroup of order |G| / |Sylow_p|, or None if the search finds none.

        Exhaustive when the Sylow subgroup is normal (complement then exists).
        """
        key = ("hall", p)
        if key in self._memo:
            return self._memo[key]
        if sylow is None:
            sylow = self.sylow_subgroup(p)
        m = self.order // sylow.size
        if m == 1:
            self._memo[key] = np.array([0], dtype=np.int64)
            return self._memo[key]
        orders = self.element_orders()
        pprime = [x for x in range(1, self.order) if int(orders[x]) % p != 0]
        # try large-order elements first; cyclic complements are common
        pprime.sort(key=lambda x: (-int(orders[x]), x))
        seen: set[bytes] = set()

        def extend(cur: np.ndarray) -> np.ndarray | None:
            if cur.size == m:
                return cur
            mask = np.zeros(self.order, dtype=bool)
            mask[cur] = True
            for y in pprime:
                if mask[y]:
                    continue
                new = self.subgroup_closure(list(cur) + [y])
                if new.size % p == 0 or m % new.size:
                    continue
                sig = new.tobytes()
                if sig in seen:
                    continue
                seen.add(sig)
                got = extend(new)
                if got is not None:
                    return got
            return None

        out = extend(np.array([0], dtype=np.int64))
        self._memo[key] = out
        return out

    # -- cores and residuals ----------------------------------------------

    def _core(self, p: int, want_p_group: bool) -> np.ndarray:
        """Union of the classes whose normal closure stays inside the
        element-order envelope (p-elements, or p'-elements): a normal
        subgroup lies in the core iff its elements all lie in the envelope."""
        key = ("core", p, want_p_group)
        if key not in self._memo:
            orders = self.element_orders()
            if want_p_group:  # element orders divide |G|
                good = int_p_part(self.order, p) % orders == 0
            else:
                good = orders % p != 0
            inside = np.zeros(self.order, dtype=bool)
            inside[0] = True
            for c in self.conjugacy_classes():
                if not inside[c.rep] and good[c.rep]:
                    nc = self.normal_closure([c.rep])
                    if good[nc].all():
                        inside[nc] = True
            core = np.flatnonzero(inside)
            if not inside[self.table[np.ix_(core, core)]].all():
                raise ConsistencyError("core classes are not closed under the product")
            core.flags.writeable = False
            self._memo[key] = core
        return self._memo[key]

    def p_core(self, p: int) -> np.ndarray:
        """Largest normal p-subgroup."""
        return self._core(p, want_p_group=True)

    def p_prime_core(self, p: int) -> np.ndarray:
        """Largest normal subgroup of order coprime to p."""
        return self._core(p, want_p_group=False)

    def p_residual(self, p: int) -> np.ndarray:
        """Smallest normal subgroup with p-group quotient: closure of all p'-elements."""
        orders = self.element_orders()
        return self.subgroup_closure(np.flatnonzero(orders % p))

    # -- quotients ---------------------------------------------------------

    def is_normal(self, elems) -> bool:
        elems = np.asarray(elems)
        mask, t, inv = self.mask(elems), self.table, self.inv
        return all(mask[t[t[g, elems], inv[g]]].all() for g in self.generators())

    def quotient(self, kernel_elems) -> "QuotientMap":
        k = np.unique(np.asarray(kernel_elems, dtype=np.int64))
        self._check_subgroup(k)
        if not self.is_normal(k):
            raise UnsupportedInputError("quotient by a non-normal subgroup")
        coset_min = self.table[:, k].min(axis=1)
        reps = np.unique(coset_min)
        if reps.size * k.size != self.order:
            raise ConsistencyError("coset bookkeeping failed")
        proj = np.searchsorted(reps, coset_min).astype(np.int64)
        qtable = proj.astype(table_dtype(reps.size))[self.table[np.ix_(reps, reps)]]
        labels = None
        if self.labels is not None:
            labels = [self.labels[int(r)] + "*" for r in reps]
        q = FiniteGroup(qtable, name=f"{self.name}_mod_{k.size}", labels=labels)
        proj.flags.writeable = False
        reps.flags.writeable = False
        return QuotientMap(parent=self, kernel=k, group=q, proj=proj, section=reps)

    def subgroup_as_group(self, elems, name: str | None = None):
        """Reindexed copy of a subgroup. Returns (group, parent_elements)."""
        elems = np.unique(np.asarray(elems, dtype=np.int64))
        self._check_subgroup(elems)
        pos = np.zeros(self.order, dtype=table_dtype(elems.size))
        pos[elems] = np.arange(elems.size)
        sub_table = pos[self.table[np.ix_(elems, elems)]]
        labels = None
        if self.labels is not None:
            labels = [self.labels[int(e)] for e in elems]
        g = FiniteGroup(sub_table, name=name or f"{self.name}_sub{elems.size}",
                        labels=labels, check=False)
        return g, elems

    # -- predicates ----------------------------------------------------------

    def is_abelian(self) -> bool:
        return self.center().size == self.order

    def is_camina(self) -> bool:
        """[g] = g G' for every g outside G'. Both sides are the same for
        all of a class, so one representative per class decides."""
        der = self.derived_subgroup()
        mask = self.mask(der)
        for c in self.conjugacy_classes():
            if not mask[c.rep] and not np.array_equal(
                    c.elems, np.sort(self.table[c.rep, der])):
                return False
        return True

    def is_frobenius_with_kernel(self, kernel_elems) -> bool:
        """K is a proper nontrivial normal subgroup containing the
        centralizer of each of its nonidentity elements. K is a union of
        classes and C(g x g^-1) = g C(x) g^-1, so one element per class
        decides: the first element of K in it."""
        k = np.unique(np.asarray(kernel_elems, dtype=np.int64))
        if k.size <= 1 or k.size == self.order or not self.is_normal(k):
            return False
        kmask = self.mask(k)
        _, first = np.unique(self.class_index_of()[k], return_index=True)
        return all(kmask[self.centralizer(x)].all() for x in k[first] if x)

    def fingerprint(self) -> tuple:
        if "fingerprint" not in self._memo:
            orders = self.element_orders()
            hist = tuple(sorted(((int(o), int(c)) for o, c in
                                 zip(*np.unique(orders, return_counts=True)))))
            sizes = tuple(sorted(c.elems.size for c in self.conjugacy_classes()))
            series = tuple(int(s.size) for s in self.derived_series())
            self._memo["fingerprint"] = (
                self.order, sizes, hist, series, int(self.center().size))
        return self._memo["fingerprint"]

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


@dataclass(frozen=True, eq=False)
class ConjClass:
    rep: int
    elems: np.ndarray

    @property
    def size(self) -> int:
        return int(self.elems.size)


@dataclass(frozen=True, eq=False)
class QuotientMap:
    parent: FiniteGroup
    kernel: np.ndarray
    group: FiniteGroup
    proj: np.ndarray       # parent element -> quotient element
    section: np.ndarray    # quotient element -> smallest parent preimage

    def preimage_of_set(self, qelems) -> np.ndarray:
        return np.flatnonzero(self.group.mask(qelems)[self.proj])


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- homomorphisms and isomorphism search ---------------------------------


def hom_from_images(src: FiniteGroup, gens: list[int], dst: FiniteGroup,
                    imgs: list[int]) -> dict[int, int] | None:
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


def _element_invariants(g: FiniteGroup) -> list[tuple]:
    orders = g.element_orders()
    cls_of = g.class_index_of()
    classes = g.conjugacy_classes()
    sizes = np.array([classes[int(c)].size for c in cls_of])
    sq = g.table[np.arange(g.order), np.arange(g.order)]
    return [
        (int(orders[x]), int(sizes[x]), int(sizes[sq[x]]))
        for x in range(g.order)
    ]


def find_isomorphism(a: FiniteGroup, b: FiniteGroup) -> dict[int, int] | None:
    """Explicit isomorphism a -> b, or None. Exact only up to ISO_ORDER_LIMIT."""
    if a.order != b.order:
        return None
    if a.order == 1:
        return {0: 0}
    if a.fingerprint() != b.fingerprint():
        return None
    if a.order > ISO_ORDER_LIMIT:
        raise UnsupportedInputError("exact isomorphism search capped at order 512")
    gens = a.generators()
    inv_a = _element_invariants(a)
    inv_b = _element_invariants(b)
    buckets: dict[tuple, list[int]] = {}
    for x in range(b.order):
        buckets.setdefault(inv_b[x], []).append(x)
    cand = [buckets.get(inv_a[g], []) for g in gens]
    if any(not c for c in cand):
        return None

    def assign(i: int, imgs: list[int]) -> dict[int, int] | None:
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


def groups_isomorphic(a: FiniteGroup, b: FiniteGroup) -> bool:
    """Exact below the search cap, fingerprint comparison above."""
    if a.order != b.order:
        return False
    if a.order > ISO_ORDER_LIMIT:
        return a.fingerprint() == b.fingerprint()
    return find_isomorphism(a, b) is not None


# -- products ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SemidirectSpec:
    kernel: FiniteGroup
    acting: FiniteGroup
    action: np.ndarray  # shape (|acting|, |kernel|), action[h] a permutation

    def validate(self):
        """The checks run blockwise over h under BLOCK_CELLS cells; the
        error raised is that of the smallest failing h, its permutation check
        before its automorphism check, and then of the homomorphism check."""
        nk, nh = self.kernel.order, self.acting.order
        act = np.asarray(self.action, dtype=np.int64)
        if act.shape != (nh, nk):
            raise UnsupportedInputError("action table has wrong shape")
        if not np.array_equal(act[0], np.arange(nk)):
            raise UnsupportedInputError("identity must act trivially")
        tk, th = self.kernel.table, self.acting.table
        perm = (np.sort(act, axis=1) == np.arange(nk)).all(axis=1)
        n_perm = nh if perm.all() else int(np.argmin(perm))
        step = max(1, BLOCK_CELLS // (nk * nk))
        for lo in range(0, n_perm, step):
            ph = act[lo:min(lo + step, n_perm)]
            auto = (ph[:, tk] == tk[ph[:, :, None], ph[:, None, :]]).all(axis=(1, 2))
            if not auto.all():
                h = lo + int(np.argmin(auto))
                raise UnsupportedInputError(f"action of {h} is not an automorphism")
        if n_perm < nh:
            raise UnsupportedInputError(f"action of {n_perm} is not a permutation")
        step = max(1, BLOCK_CELLS // (nh * nk))
        for lo in range(0, nh, step):
            # act[h1 h2] == act[h1] o act[h2] for every h2 at once
            if not (act[th[lo:lo + step]] == act[lo:lo + step][:, act]).all():
                raise UnsupportedInputError("action is not a homomorphism")
        return act


def semidirect_product(spec: SemidirectSpec, name: str | None = None):
    """Semidirect product kernel x| acting. Returns (group, embed_kernel, embed_acting)."""
    act = spec.validate()
    kg, hg = spec.kernel, spec.acting
    nk, nh = kg.order, hg.order
    tk, th = kg.table, hg.table
    # (a1, h1)(a2, h2) = (a1 act[h1](a2), h1 h2), element (a, h) at a nh + h
    dtype = table_dtype(nk * nh)
    table = np.empty((nk * nh, nk * nh), dtype=dtype)
    np.add((tk[:, act].astype(dtype, copy=False) * nh)[:, :, :, None],
           th[None, :, None, :], out=table.reshape(nk, nh, nk, nh))
    labels = None
    if kg.labels is not None and hg.labels is not None:
        labels = [f"({kg.labels[a]},{hg.labels[h]})" for a in range(nk) for h in range(nh)]
    g = FiniteGroup(table, name=name or f"{kg.name}_by_{hg.name}", labels=labels)
    embed_k = np.arange(nk, dtype=np.int64) * nh
    embed_h = np.arange(nh, dtype=np.int64)
    return g, embed_k, embed_h


def direct_product(a: FiniteGroup, b: FiniteGroup, name: str | None = None):
    act = np.broadcast_to(np.arange(b.order, dtype=np.int64), (a.order, b.order))
    spec = SemidirectSpec(kernel=b, acting=a, action=np.ascontiguousarray(act))
    g, eb, ea = semidirect_product(spec, name=name or f"{a.name}_x_{b.name}")
    return g, ea, eb


def cyclic_generator(g: FiniteGroup, elems: np.ndarray) -> int | None:
    """Smallest element generating the given subgroup if it is cyclic."""
    orders = g.element_orders()
    for x in map(int, elems):
        if int(orders[x]) == elems.size:
            return x
    return None


def central_product(a: FiniteGroup, b: FiniteGroup, za=None, zb=None,
                    iso: dict[int, int] | None = None, name: str | None = None):
    """Quotient of a x b identifying central subgroups za ~ zb.

    Defaults: za = Z(a), zb = Z(b), identified along a generator when both are
    cyclic of equal order. Returns (group, embed_a, embed_b).
    """
    za = a.center() if za is None else np.unique(np.asarray(za, dtype=np.int64))
    zb = b.center() if zb is None else np.unique(np.asarray(zb, dtype=np.int64))
    if not a.mask(a.center())[za].all() or not b.mask(b.center())[zb].all():
        raise UnsupportedInputError("identified subgroups must be central")
    if za.size != zb.size:
        raise UnsupportedInputError("identified subgroups must be isomorphic")
    if iso is None:
        ga = cyclic_generator(a, za)
        gb = cyclic_generator(b, zb)
        if ga is None or gb is None:
            raise UnsupportedInputError(
                "default identification needs cyclic centers; pass iso=")
        iso = {}
        xa, xb = 0, 0
        for _ in range(za.size):
            iso[xa] = xb
            xa, xb = a.mul(xa, ga), b.mul(xb, gb)
    for x in map(int, za):
        for y in map(int, za):
            if iso[a.mul(x, y)] != b.mul(iso[x], iso[y]):
                raise UnsupportedInputError("identification is not a homomorphism")
    if len(set(iso.values())) != za.size or set(iso.values()) != {int(v) for v in zb}:
        raise UnsupportedInputError("identification is not a bijection onto zb")
    prod, ea, eb = direct_product(a, b)
    glued = [prod.mul(int(ea[z]), int(eb[b.inverse(iso[int(z)])])) for z in za]
    qm = prod.quotient(prod.subgroup_closure(glued))
    g = qm.group
    if name:
        g.name = name
    return g, qm.proj[ea], qm.proj[eb]
