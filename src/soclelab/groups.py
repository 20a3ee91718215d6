"""Finite groups as complete multiplication tables.

Elements are integers 0..n-1 and 0 is the identity. Everything is table
driven, so any construction (permutations, matrices, products, quotients)
is normalized to the same representation. Determinism rule used throughout:
ties are broken by smallest element index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce, wraps

import numpy as np

from .errors import ConsistencyError, SocleLabError, UnsupportedInputError
from .fplin import binary_power

# bytes the temporaries of one block of a blockwise loop may take
BLOCK_BYTES = 1 << 18


def block_rows(row_bytes: int) -> int:
    """Rows per block, at least one, when a row takes row_bytes."""
    return max(1, BLOCK_BYTES // max(1, row_bytes))


def table_dtype(n: int) -> np.dtype:
    """dtype of the Cayley table and the inverse map of an order-n group:
    uint16 while every element index fits in it, int32 above (where the
    table already takes more than 8 GB). Arithmetic on entries that can
    leave [0, n) widens to int64 first."""
    return np.dtype(np.uint16) if n <= 1 << 16 else np.dtype(np.int32)


def memoized(method):
    """Cache method(obj, *args) in obj._memo under (method name, *args). A
    SocleLabError it raises is cached too, as an unraised copy, and every
    later call raises a fresh copy of it: the raised error's traceback holds
    frames that hold obj."""
    name = method.__name__

    @wraps(method)
    def cached(obj, *args):
        memo, key = obj._memo, (name, *args)
        if key not in memo:
            try:
                memo[key] = method(obj, *args)
            except SocleLabError as e:
                memo[key] = type(e)(*e.args)
                raise
        hit = memo[key]
        if isinstance(hit, SocleLabError):
            raise type(hit)(*hit.args)
        return hit

    return cached


def _scalar(elems):
    """An int for a 0-d result, else the array."""
    return int(elems) if np.ndim(elems) == 0 else elems


def int_p_part(n: int, p: int) -> int:
    k = 1
    while n % p == 0:
        n //= p
        k *= p
    return k


class FiniteGroup:
    """A group on its full multiplication table, identity at index 0.

    The table is held in table_dtype(n) and is read-only. A table passed in
    that is already C-contiguous in that dtype is adopted without a copy and
    frozen, so the caller's array becomes read-only too; copying it would
    add one n x n table at the peak of the constructions that build one.
    Pass a copy to keep a writeable array.
    """

    def __init__(self, table, name: str | None = None):
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
        self._memo: dict = {}
        self.inv = self._build_inverses()
        self._check_axioms()
        self.table.flags.writeable = False
        self.inv.flags.writeable = False

    # -- validation ----------------------------------------------------

    def _build_inverses(self) -> np.ndarray:
        """inv[x] is the position of the first 0 in row x, checked to be a
        two-sided inverse of x, after 0 is checked to be a two-sided
        identity."""
        t, ar = self.table, np.arange(self.order)
        if not np.array_equal(t[0], ar) or not np.array_equal(t[:, 0], ar):
            raise UnsupportedInputError("element 0 is not a two-sided identity")
        inv = np.argmin(t, axis=1).astype(t.dtype)
        if not ((t[ar, inv] == 0).all() and (t[inv, ar] == 0).all()):
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
        a group. The three block buffers share BLOCK_BYTES and are allocated
        once and refilled, as fresh temporaries for every block fault in new
        pages."""
        t, n = self.table, self.order
        step = min(n, block_rows(n * (2 * t.itemsize + 1)))
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
    # conj, commutator and power broadcast over arrays of elements, as
    # numpy indexing does, and return an int when every element is one.

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def conj(self, g, x):
        """g x g^-1."""
        return _scalar(self.table[self.table[g, x], self.inv[g]])

    def commutator(self, a, b):
        """a b a^-1 b^-1."""
        t, inv = self.table, self.inv
        return _scalar(t[t[a, b], t[inv[a], inv[b]]])

    def power(self, x, k: int):
        """x^k, by squaring."""
        x = np.asarray(x)
        if k < 0:
            x, k = self.inv[x], -k
        return _scalar(binary_power(x, k, lambda a, b: self.table[a, b],
                                    lambda: np.zeros_like(x)))

    @memoized
    def element_orders(self) -> np.ndarray:
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
        return out

    def element_order(self, x: int) -> int:
        return int(self.element_orders()[x])

    def element_p_part(self, x: int, p: int) -> int:
        """x^e, where x has order pa m with pa a power of p and m prime to p,
        and e = 1 mod pa, e = 0 mod m; the identity when pa = 1."""
        o = self.element_order(x)
        pa = int_p_part(o, p)
        m = o // pa
        return self.power(x, m * pow(m, -1, pa))

    # -- generation and closure ------------------------------------------

    def subgroup_closure(self, gens) -> np.ndarray:
        """Sorted elements of the subgroup generated by gens."""
        return np.flatnonzero(self._closure(gens)[0])

    def _closure(self, gens) -> tuple[np.ndarray, list[int]]:
        """(mask, kept): while a generator lies outside the closure, keep the
        smallest such one and grow the closure by it to a fixed point under
        right multiplication by all kept ones. Generators already inside
        add nothing and are skipped, as in Dimino's algorithm."""
        want, seen = self.mask(gens), self.mask([0])
        kept: list[int] = []
        while (rest := np.flatnonzero(want & ~seen)).size:
            self._grow(seen, kept, int(rest[0]))
        return seen, kept

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
        """The memoized generating set of the whole group, as a fresh list."""
        return list(self._generators())

    @memoized
    def _generators(self) -> list[int]:
        return self.sub_generators(np.arange(self.order))

    def sub_generators(self, elems) -> list[int]:
        """Greedy small generating set of a subgroup given by its elements:
        the smallest element not yet generated, until all are."""
        seen, kept = self._closure(elems)
        if (seen & ~self.mask(elems)).any():
            raise UnsupportedInputError("element set is not a subgroup")
        return kept

    def normal_closure(self, seed) -> np.ndarray:
        """Smallest normal subgroup containing seed: the subgroup generated
        by the conjugacy classes seed meets, whose union is normal."""
        cls_of = self.class_index_of()
        meets = np.zeros(self.order, dtype=bool)  # by class index, below n
        meets[cls_of[np.asarray(list(seed), dtype=np.int64)]] = True
        return self.subgroup_closure(np.flatnonzero(meets[cls_of]))

    def _check_subgroup(self, elems: np.ndarray) -> None:
        """Raise unless the sorted distinct elements form a subgroup."""
        if 0 not in elems:
            raise UnsupportedInputError("subgroup must contain the identity")
        if not self.is_subgroup(elems):
            raise UnsupportedInputError("element set is not closed under the product")

    # -- element sets ----------------------------------------------------
    # A set of elements is a sorted array of distinct indices, so two sets
    # are equal iff their arrays are.

    def mask(self, elems) -> np.ndarray:
        """Membership vector of elems over all n elements."""
        mask = np.zeros(self.order, dtype=bool)
        mask[np.asarray(elems, dtype=np.int64)] = True
        return mask

    def element_set(self, elems) -> np.ndarray:
        """np.unique of elements, in int64, without importing numpy.ma."""
        return np.flatnonzero(self.mask(elems))

    def is_subgroup(self, elems) -> bool:
        """elems is a subgroup: its closure adds no element to it."""
        return self.subgroup_closure(elems).size == np.count_nonzero(self.mask(elems))

    def commute(self, a, b) -> bool:
        """Every element of a commutes with every element of b."""
        a = self.element_set(a)
        return self.centralizer(b, within=a).size == a.size

    # -- conjugacy -------------------------------------------------------

    def conjugacy_classes(self) -> list[np.ndarray]:
        """The classes as read-only sorted int64 arrays, by size and then
        by smallest element."""
        return self._class_layout()[0]

    def class_index_of(self) -> np.ndarray:
        """The index of each element's class in conjugacy_classes()."""
        return self._class_layout()[1]

    @memoized
    def _class_layout(self) -> tuple[list[np.ndarray], np.ndarray]:
        """(classes, class index of each element). Each element is labeled
        by the smallest element of its class: in each round, every label
        drops to the smallest label of its images under the generators'
        conjugations and their inverses, and then to its own label's label,
        until no label changes."""
        gens = np.asarray(self.generators(), dtype=np.int64)
        label = np.arange(self.order)
        perms = self.conj(np.concatenate([gens, self.inv[gens]])[:, None], label)
        while True:
            low = reduce(np.minimum, label[perms], label)
            low = low[low]
            if np.array_equal(low, label):
                break
            label = low
        roots = np.flatnonzero(label == np.arange(self.order))
        sizes = np.bincount(label)[roots]
        # the roots ascend, so a stable sort by size orders the classes
        rank = np.empty(self.order, dtype=np.int64)  # class index of each root
        rank[roots[np.argsort(sizes, kind="stable")]] = np.arange(roots.size)
        cls_of = rank[label]
        by_class = np.argsort(cls_of, kind="stable")
        by_class.flags.writeable = False
        cls_of.flags.writeable = False
        return np.split(by_class, np.cumsum(np.sort(sizes))[:-1]), cls_of

    # -- distinguished subgroups -----------------------------------------

    @memoized
    def center(self) -> np.ndarray:
        """The centralizer of a generating set."""
        return self.centralizer(self.generators())

    def centralizer(self, elems, within=None) -> np.ndarray:
        """The sorted elements of within (default: the group) that commute
        with every element of elems; only the rows of within are compared."""
        elems = np.atleast_1d(np.asarray(elems, dtype=np.int64))
        rows = np.arange(self.order) if within is None else self.element_set(within)
        t, col = self.table, rows[:, None]
        return rows[(t[col, elems] == t[elems, col]).all(axis=1)]

    @memoized
    def derived_subgroup(self) -> np.ndarray:
        return self.sub_derived(np.arange(self.order))

    def sub_derived(self, elems) -> np.ndarray:
        """[H, H], generated by the commutators [x, h] with x a generator of
        H and h in H. They generate a normal subgroup of H, because
        [x, ab] = [x, a] a[x, b]a^-1, and H modulo it is abelian."""
        h = np.asarray(elems, dtype=np.int64)
        x = np.asarray(self.sub_generators(h), dtype=np.int64)[:, None]
        return self.subgroup_closure(self.commutator(x, h).ravel())

    @memoized
    def second_derived(self) -> np.ndarray:
        return self.sub_derived(self.derived_subgroup())

    @memoized
    def second_derived_quotient(self) -> "QuotientMap":
        """The map onto G / G''."""
        return self.quotient(self.second_derived())

    def sub_center(self, elems) -> np.ndarray:
        """Z(H): the elements of H that commute with a generating set of H."""
        return self.centralizer(self.sub_generators(elems), within=elems)

    # -- Sylow and Hall ----------------------------------------------------

    @memoized
    def sylow_subgroup(self, p: int) -> np.ndarray:
        pk = int_p_part(self.order, p)
        orders = self.element_orders()
        pp = np.ones(self.order, dtype=np.int64)  # p-part of each element order
        while (m := orders % (pp * p) == 0).any():
            pp[m] *= p
        # seed with the p-part of the first element of maximal p-part order
        seen, kept = self.mask([0]), []
        self._grow(seen, kept, self.element_p_part(int(pp.argmax()), p))
        # extend by the first p-element c outside s normalizing s: then
        # s<c> is a p-group, as s is normal in it and c has p-power order
        while (s := np.flatnonzero(seen)).size < pk:
            for c in (~seen & (pp == orders)).nonzero()[0]:
                if seen[self.conj(c, s)].all():
                    break
            else:
                raise ConsistencyError("Sylow ascent found no extension")
            self._grow(seen, kept, int(c))
        return s

    @memoized
    def hall_complement(self, p: int) -> np.ndarray | None:
        """Subgroup of order |G| / |Sylow_p|, or None if the greedy pass
        below ends short of it.

        Precondition: the Sylow p-subgroup is normal. Then every p'-subgroup
        lies in a complement (Schur-Zassenhaus: complements exist and are
        conjugate), so one pass that keeps each p'-element whose closure with
        the kept ones stays a p'-group never gets stuck. Elements of larger
        order go first, since cyclic complements are common. For a Sylow
        subgroup that is not normal the pass may end short (sym(5), p = 5).
        """
        m = self.order // self.sylow_subgroup(p).size
        orders = self.element_orders()
        pprime = np.flatnonzero(orders % p)[1:]  # [1:] drops the identity
        seen, kept = self.mask([0]), []
        for y in pprime[np.argsort(-orders[pprime], kind="stable")].tolist():
            if np.count_nonzero(seen) == m:
                break
            if not seen[y]:
                trial, more = seen.copy(), list(kept)
                self._grow(trial, more, y)
                if np.count_nonzero(trial) % p:
                    seen, kept = trial, more
        return np.flatnonzero(seen) if np.count_nonzero(seen) == m else None

    # -- cores and residuals ----------------------------------------------

    @memoized
    def p_prime_core(self, p: int) -> np.ndarray:
        """Largest normal subgroup of order coprime to p: the union of the
        classes whose normal closure holds only p'-elements, since a normal
        subgroup lies in the core iff all its elements are p'-elements."""
        good = self.element_orders() % p != 0
        inside = self.mask([0])
        for x in (int(c[0]) for c in self.conjugacy_classes()):
            if not inside[x] and good[x]:
                nc = self.normal_closure([x])
                if good[nc].all():
                    inside[nc] = True
        core = np.flatnonzero(inside)
        if not self.is_subgroup(core):
            raise ConsistencyError("core classes are not closed under the product")
        core.flags.writeable = False
        return core

    def p_residual(self, p: int) -> np.ndarray:
        """Smallest normal subgroup with p-group quotient: closure of all p'-elements."""
        orders = self.element_orders()
        return self.subgroup_closure(np.flatnonzero(orders % p))

    # -- quotients ---------------------------------------------------------

    def coset_min(self, elems) -> np.ndarray:
        """Smallest element of each coset H x, H the subgroup of elems."""
        h, step = np.asarray(elems, dtype=np.int64), block_rows(self.table[0].nbytes)
        return reduce(np.minimum, (self.table[h[lo:lo + step]].min(axis=0)
                                   for lo in range(0, h.size, step)))

    def is_normal(self, elems) -> bool:
        """The generators' conjugates of elems lie in elems."""
        gens = np.asarray(self.generators(), dtype=np.int64)[:, None]
        return bool(self.mask(elems)[self.conj(gens, np.asarray(elems))].all())

    def quotient(self, kernel_elems) -> "QuotientMap":
        k = self.element_set(kernel_elems)
        self._check_subgroup(k)
        if not self.is_normal(k):
            raise UnsupportedInputError("quotient by a non-normal subgroup")
        coset_min = self.coset_min(k)  # K is normal: x K = K x
        reps = self.element_set(coset_min)
        if reps.size * k.size != self.order:
            raise ConsistencyError("coset bookkeeping failed")
        proj = np.searchsorted(reps, coset_min).astype(np.int64)
        qtable = proj.astype(table_dtype(reps.size))[self.table[np.ix_(reps, reps)]]
        q = FiniteGroup(qtable, name=f"{self.name}_mod_{k.size}")
        proj.flags.writeable = False
        return QuotientMap(kernel=k, group=q, proj=proj)

    def subgroup_as_group(self, elems, name: str | None = None):
        """Reindexed copy of a subgroup. Returns (group, parent_elements)."""
        elems = self.element_set(elems)
        self._check_subgroup(elems)
        pos = np.zeros(self.order, dtype=table_dtype(elems.size))
        pos[elems] = np.arange(elems.size)
        sub_table = pos[self.table[np.ix_(elems, elems)]]
        return FiniteGroup(sub_table, name=name or f"{self.name}_sub{elems.size}"), elems

    # -- predicates ----------------------------------------------------------

    def is_camina(self) -> bool:
        """[g] = g G' for every g outside G'. The class of g lies in g G',
        as h g h^-1 = g [g^-1, h], so the two are equal iff |[g]| = |G'|."""
        der, cls_of = self.derived_subgroup(), self.class_index_of()
        return bool((np.bincount(cls_of)[cls_of] == der.size)[~self.mask(der)].all())

    def is_frobenius_with_kernel(self, kernel_elems) -> bool:
        """K is a proper nontrivial normal subgroup containing the
        centralizer of each of its nonidentity elements. K is a union of
        classes and C(g x g^-1) = g C(x) g^-1, so one element per class
        decides: the first element of K in it."""
        k = self.element_set(kernel_elems)
        if k.size <= 1 or k.size == self.order or not self.is_normal(k):
            return False
        kmask = self.mask(k)
        _, first = np.unique(self.class_index_of()[k], return_index=True)
        return all(kmask[self.centralizer(x)].all() for x in k[first] if x)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


@dataclass(frozen=True, eq=False)
class QuotientMap:
    kernel: np.ndarray
    group: FiniteGroup
    proj: np.ndarray       # parent element -> quotient element

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


# -- isomorphism search -----------------------------------------------------


class WordTree:
    """Breadth-first words in gens over g, by generator prefix. prefixes[i]
    is (h, levels, h gens[:i+1]) for the elements h of H_i = <gens[:i+1]>;
    each level (kids, parents, via), kid = parent gens[via], extends H_(i-1)."""

    def __init__(self, g: FiniteGroup, gens: list[int]):
        t, gens = g.table, np.asarray(gens, dtype=np.int64)
        self.prefixes: list[tuple[np.ndarray, list, np.ndarray]] = []
        seen = g.mask([0])
        for i in range(1, gens.size + 1):
            levels, frontier = [], np.flatnonzero(seen)
            while frontier.size:
                kids, first = np.unique(t[np.ix_(frontier, gens[:i])], return_index=True)
                kids, first = kids[~seen[kids]], first[~seen[kids]]
                seen[kids] = True
                levels.append((kids, frontier[first // i], first % i))
                frontier = kids
            h = np.flatnonzero(seen)
            self.prefixes.append((h, levels, t[np.ix_(h, gens[:i])]))

    def fill_and_check(self, b: FiniteGroup, imgs: np.ndarray, i: int, f: np.ndarray) -> bool:
        """Extend the int64 image array f from H_(i-1) to H_i by f[kid] =
        f[parent] imgs[via]. Accept iff f[x gens[j]] = f[x] imgs[j] for all
        x in H_i and j <= i, so that f is a homomorphism on H_i (f[0] = 0),
        and only the identity maps to 0."""
        h, levels, prods = self.prefixes[i]
        for kids, parents, via in levels:
            f[kids] = b.table[f[parents], imgs[via]]
        hom = f[prods] == b.table[f[h][:, None], imgs[:i + 1]]
        return bool(hom.all()) and np.count_nonzero(f[h] == 0) == 1


def _few_generators(g: FiniteGroup) -> list[int]:
    """One generator if g is cyclic; else the first of 32 pairs (x, y) that
    generates g, x a class representative of largest element order and y on
    a fixed stride through the elements; else generators()."""
    n, orders = g.order, g.element_orders()
    top = [int(c[0]) for c in g.conjugacy_classes() if orders[c[0]] == orders.max()]
    if orders.max() == n:
        return top[:1]
    pairs = ((x, y) for x in top for y in range(1, n, max(1, n // 32)))
    for _, (x, y) in zip(range(32), pairs):
        if g.subgroup_closure([x, y]).size == n:
            return [x, y]
    return g.generators()


def _words(g: FiniteGroup, x, y) -> np.ndarray:
    """x y, x y^-1, x^2 y, x y^2 and [x, y] = x y x^-1 y^-1; y may be an array."""
    t, inv = g.table, g.inv
    return np.stack([t[x, y], t[x, inv[y]], t[t[x, x], y], t[x, t[y, y]], g.commutator(x, y)])


def find_isomorphism(a: FiniteGroup, b: FiniteGroup) -> np.ndarray | None:
    """An isomorphism a -> b as an int64 image array, or None, at any order
    (Cannon and Holt, J. Symbolic Comput. 35, 2003). Elements are coded by
    (order, class size, class size of the square), and the code histograms
    must agree. Images of _few_generators(a) are tried depth first: the first
    at one element per class of b with its code (inner automorphisms give the
    rest), a later one at each element whose code and _words with the earlier
    images match a's, every partial map passing WordTree.fill_and_check."""
    triples = []
    for g in (a, b):
        cls_of, ar = g.class_index_of(), np.arange(g.order)
        sizes = np.bincount(cls_of)[cls_of]
        triples.append(np.stack([g.element_orders(), sizes, sizes[g.table[ar, ar]]], axis=1))
    # reshaped, as numpy 2.0.0 returns this inverse as a column
    codes = np.unique(np.concatenate(triples), axis=0, return_inverse=True)[1].reshape(-1)
    ca, cb = codes[:a.order], codes[a.order:]
    if not np.array_equal(np.sort(ca), np.sort(cb)):  # also unequal orders
        return None
    gens = _few_generators(a)
    tree = WordTree(a, gens)
    imgs, f = np.zeros(len(gens), dtype=np.int64), np.zeros(a.order, dtype=np.int64)

    def candidates(i: int):
        fits = cb == ca[gens[i]]
        for j in range(i):
            want = ca[_words(a, gens[j], gens[i])][:, None]
            fits &= (cb[_words(b, imgs[j], np.arange(b.order))] == want).all(axis=0)
        return iter(np.flatnonzero(fits))

    stack = [iter([int(c[0]) for c in b.conjugacy_classes() if cb[c[0]] == ca[gens[0]]])]
    while stack:
        i = len(stack) - 1
        imgs[i] = next(stack[-1], -1)
        if imgs[i] < 0:
            stack.pop()
        elif tree.fill_and_check(b, imgs, i, f):
            if i + 1 == len(gens):
                return f
            stack.append(candidates(i + 1))
    return None


def groups_isomorphic(a: FiniteGroup, b: FiniteGroup) -> bool:
    return find_isomorphism(a, b) is not None


# -- products ---------------------------------------------------------------


def _checked_action(kernel: FiniteGroup, acting: FiniteGroup, action) -> np.ndarray:
    """The action as int64, after checking that row h is an automorphism of
    the kernel and h -> row h a homomorphism. The checks run over blocks of
    h within BLOCK_BYTES, one h at least; the error raised is that of the
    smallest failing h, its permutation check before its automorphism check,
    and then of the homomorphism check."""
    nk, nh = kernel.order, acting.order
    act = np.asarray(action, dtype=np.int64)
    if act.shape != (nh, nk):
        raise UnsupportedInputError("action table has wrong shape")
    if not np.array_equal(act[0], np.arange(nk)):
        raise UnsupportedInputError("identity must act trivially")
    tk, th = kernel.table, acting.table
    perm = (np.sort(act, axis=1) == np.arange(nk)).all(axis=1)
    n_perm = nh if perm.all() else int(np.argmin(perm))
    step = block_rows(nk * nk * (8 + tk.itemsize + 1))  # int64, table, bool
    for lo in range(0, n_perm, step):
        ph = act[lo:min(lo + step, n_perm)]
        auto = (ph[:, tk] == tk[ph[:, :, None], ph[:, None, :]]).all(axis=(1, 2))
        if not auto.all():
            h = lo + int(np.argmin(auto))
            raise UnsupportedInputError(f"action of {h} is not an automorphism")
    if n_perm < nh:
        raise UnsupportedInputError(f"action of {n_perm} is not a permutation")
    step = block_rows(nh * nk * 17)  # two int64 gathers and a bool
    for lo in range(0, nh, step):
        # act[h1 h2] == act[h1] o act[h2] for every h2 at once
        if not (act[th[lo:lo + step]] == act[lo:lo + step][:, act]).all():
            raise UnsupportedInputError("action is not a homomorphism")
    return act


def semidirect_product(kernel: FiniteGroup, acting: FiniteGroup, action,
                       name: str | None = None) -> FiniteGroup:
    """kernel x| acting, h acting on the kernel by the permutation action[h]
    of its elements, checked by _checked_action. The element (a, h) is at
    a |acting| + h."""
    act = _checked_action(kernel, acting, action)
    nk, nh = kernel.order, acting.order
    tk, th = kernel.table, acting.table
    # (a1, h1)(a2, h2) = (a1 act[h1](a2), h1 h2), element (a, h) at a nh + h
    dtype = table_dtype(nk * nh)
    table, step = np.empty((nk, nh, nk, nh), dtype), block_rows(nk * nk * dtype.itemsize)
    for lo in range(0, nh, step):
        np.add(np.multiply(tk[:, act[lo:lo + step]], nh, dtype=dtype)[..., None],
               th[lo:lo + step, None, :], out=table[:, lo:lo + step])
    return FiniteGroup(table.reshape(nk * nh, nk * nh),
                       name=name or f"{kernel.name}_by_{acting.name}")


def direct_product(a: FiniteGroup, b: FiniteGroup, name: str | None = None) -> FiniteGroup:
    """a x b, (x, y) at y |a| + x for x in a and y in b, so that (x1, y1)
    (x2, y2) is b[y1, y2] |a| + a[x1, x2]."""
    na, nb = a.order, b.order
    dtype = table_dtype(na * nb)
    table = np.empty((nb, na, nb, na), dtype)
    np.add(np.multiply(b.table, na, dtype=dtype)[:, None, :, None],
           a.table[None, :, None, :], out=table)
    return FiniteGroup(table.reshape(na * nb, na * nb), name=name or f"{a.name}_x_{b.name}")


def cyclic_generator(g: FiniteGroup, elems: np.ndarray) -> int | None:
    """Smallest element generating the given subgroup if it is cyclic."""
    orders = g.element_orders()
    for x in map(int, elems):
        if int(orders[x]) == elems.size:
            return x
    return None


def central_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Quotient of a x b identifying Z(a) with Z(b), both cyclic of equal
    order, along their smallest generators ga ~ gb: the glued subgroup is
    generated by (ga, gb^-1), at gb^-1 |a| + ga in direct_product."""
    za, zb = a.center(), b.center()
    ga, gb = cyclic_generator(a, za), cyclic_generator(b, zb)
    if za.size != zb.size or ga is None or gb is None:
        raise UnsupportedInputError(
            "central product needs cyclic centers of equal order")
    prod = direct_product(a, b)
    return prod.quotient(prod.subgroup_closure([int(b.inv[gb]) * a.order + ga])).group
