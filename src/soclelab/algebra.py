"""The center of F_pG in the class-sum basis.

Center elements are length-k coefficient vectors over the conjugacy classes
(class 0 is the identity class). Full group-algebra elements are length-n
coefficient vectors over group elements. The multiplication engine evaluates
central products only at class representatives, which keeps every operation
at O(n k) instead of O(n^2).
"""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError, UnsupportedInputError
from .fplin import Subspace, binary_power, check_prime, kernel_basis, rref
from .groups import FiniteGroup, QuotientMap, block_rows, memoized, table_dtype


class CenterAlgebra:
    def __init__(self, group: FiniteGroup, p: int):
        check_prime(p)
        self.group = group
        self.p = p
        self._memo: dict = {}
        self.classes = group.conjugacy_classes()
        self.k = len(self.classes)
        self.n = group.order
        self.cls_of = group.class_index_of()
        self.class_sizes = np.bincount(self.cls_of)
        # the elements grouped by class, and where each class starts there
        self._by_class = np.concatenate(self.classes)
        self._starts = np.cumsum(self.class_sizes) - self.class_sizes
        self.reps = self._by_class[self._starts]
        if self.reps[0] != 0:
            raise ConsistencyError("identity class is not first")
        # P[i, j] = class of g_i^-1 rep_j, with g_i the i-th element in class order
        self._prodcls = self.cls_of.astype(table_dtype(self.k))[
            group.table[group.inv[self._by_class][:, None], self.reps]]

    # -- vector plumbing ---------------------------------------------------

    def zero(self) -> np.ndarray:
        return np.zeros(self.k, dtype=np.int64)

    def identity_vec(self) -> np.ndarray:
        return self.class_sum_vec(0)

    def expand(self, v) -> np.ndarray:
        """Class-coefficient vector to element-coefficient vector."""
        v = np.asarray(v, dtype=np.int64) % self.p
        return v[self.cls_of]

    def restrict(self, a) -> np.ndarray:
        """Element-coefficient vector of a central element to class basis."""
        a = np.asarray(a, dtype=np.int64) % self.p
        out = a[self.reps]
        if not np.array_equal(out[self.cls_of], a):
            raise UnsupportedInputError("vector is not constant on classes")
        return out

    def class_sum_vec(self, class_index: int) -> np.ndarray:
        v = self.zero()
        v[class_index] = 1
        return v

    def subset_sum_vec(self, elems) -> np.ndarray:
        """Indicator sum of a normal (class-closed) set of distinct elements,
        in the class basis: 1 on each class it holds all members of."""
        count = np.bincount(self.cls_of[np.asarray(elems, dtype=np.int64)], minlength=self.k)
        if ((count != 0) & (count != self.class_sizes)).any():
            raise UnsupportedInputError("set is not a union of classes")
        return (count != 0).astype(np.int64)

    # -- multiplication ------------------------------------------------------

    def multiply(self, u, v) -> np.ndarray:
        """Product of central elements, class basis in and out. v is one
        vector (k,) or a stack of rows (d, k); one u gives u * v_i per row,
        a stack u (d, k) gives u_i * v_i. Entry j sums u(t) v[class of t^-1
        rep_j] over the support of u only, gathered in blocks of BLOCK_BYTES."""
        u = np.asarray(u, dtype=np.int64) % self.p
        v = np.asarray(v, dtype=np.int64) % self.p
        if u.ndim == 1:
            uf = np.repeat(u, self.class_sizes)
            s = np.flatnonzero(uf)
            step = block_rows(v.nbytes)  # a gathered copy of v per t
            out = np.zeros(v.shape, dtype=np.int64)
            for lo in range(0, s.size, step):
                c = s[lo:lo + step]
                out += np.einsum("c,...ck->...k", uf[c], v[..., self._prodcls[c]])
            return out % self.p
        # stacked u: blocks of (row, element) pairs; a pair gathers, sums, updates k int64
        f = np.flatnonzero(u)  # (row, class) pairs, sorted by row
        bounds = np.concatenate([[0], np.cumsum(self.class_sizes[f % self.k])])
        out, step = np.zeros(u.shape, dtype=np.int64), block_rows(24 * self.k)
        for lo in range(0, bounds[-1], step):
            e = np.arange(lo, min(lo + step, bounds[-1]))
            q = np.searchsorted(bounds, e, side="right") - 1
            i, c = np.divmod(f[q], self.k)
            terms = np.broadcast_to(v, u.shape)[
                i[:, None], self._prodcls[e - bounds[q] + self._starts[c]]]
            terms *= u[i, c, None]
            first = np.flatnonzero(np.diff(i, prepend=-1))
            out[i[first]] += np.add.reduceat(terms, first)
        return out % self.p

    def power(self, u, e: int) -> np.ndarray:
        """u^e, squaring from the top bit down: e = 2 takes one multiply. A
        stack of rows is powered block_rows(64 k) rows at a time, which
        bounds the index arrays of the stacked multiply. u^0 is the identity
        in u's shape."""
        u = np.asarray(u, dtype=np.int64)
        if u.ndim == 2 and len(u) > (step := block_rows(64 * self.k)):
            return np.concatenate([self.power(u[lo:lo + step], e)
                                   for lo in range(0, len(u), step)])
        return binary_power(u % self.p, e, self.multiply,
                            lambda: np.broadcast_to(self.identity_vec(), u.shape).copy())

    def annihilator(self, vectors) -> Subspace:
        """Subspace of the center killing every given central vector, one
        vector at a time in the coordinates of the kernel found so far."""
        basis = np.eye(self.k, dtype=np.int64)
        for v in vectors:
            prod = self.multiply(v, basis)  # row i is v * basis[i]
            if prod.any():  # else v already kills the kernel so far
                basis = kernel_basis(prod.T, self.p) @ basis % self.p
        return Subspace(self.p, self.k, basis)

    # -- radical and socle -----------------------------------------------------

    def power_map_matrix(self) -> np.ndarray:
        """Matrix of x -> x^p (F_p-linear since the center is commutative)."""
        return self.power(np.eye(self.k, dtype=np.int64), self.p).T

    @memoized
    def jacobson_radical(self) -> Subspace:
        """Nilradical of the center: kernel of enough iterates of x -> x^p."""
        k, p = self.k, self.p
        m = 0
        while p ** m < k:
            m += 1
        power = binary_power(self.power_map_matrix(), m, lambda a, b: a @ b % p,
                             lambda: np.eye(k, dtype=np.int64))
        rad = Subspace(p, k, kernel_basis(power, p))
        # x -> x^p is linear: the radical is nilpotent iff m rounds of it,
        # applied by multiply to a basis of each image, reach 0
        image = rad
        for _ in range(m):
            image = Subspace(p, k, self.power(image.basis, p))
        if image.dim:
            raise ConsistencyError("radical vector is not nilpotent")
        return rad

    def radical_vec(self, class_index: int) -> np.ndarray:
        """Class sum minus (class size) times the identity, an element of
        the augmentation ideal; the class sum itself when p divides the
        class size."""
        v = self.class_sum_vec(class_index)
        v[0] = (v[0] - int(self.class_sizes[class_index])) % self.p
        return v

    def radical_span_from_classes(self) -> Subspace:
        """Span of the predicted radical basis: the radical vector of each
        nontrivial class."""
        return Subspace(self.p, self.k, [self.radical_vec(j) for j in range(1, self.k)])

    @memoized
    def socle(self) -> Subspace:
        """Annihilator of the radical inside the center."""
        return self.annihilator(list(self.jacobson_radical().basis))

    # -- the ideal question -----------------------------------------------------

    def is_ideal_in_group_algebra(self, center_subspace: Subspace) -> bool:
        """Stability of the span under multiplication by the group generators.
        Stability under generators is stability under every group element
        (compose the moves) and hence under all of FG (span). A central y has
        g y = y g, so left moves suffice. (g y)[u] = y[g^-1 u]: g y has
        coefficient y[class of g^-1 rep_j] on class j, and is central iff each
        pair (class of u, class of g^-1 u) agrees with that, checked once per
        distinct pair."""
        basis, cls_of, k = center_subspace.basis, self.cls_of, self.k
        t, inv = self.group.table, self.group.inv
        for g in self.group.generators():
            moved_from = cls_of[t[inv[g]]]  # class of g^-1 u, for each u
            coeffs = basis[:, moved_from[self.reps]]
            pairs = np.sort(cls_of * k + moved_from)
            distinct = np.concatenate(([True], pairs[1:] != pairs[:-1]))
            target, source = np.divmod(pairs[distinct], k)
            if not np.array_equal(basis[:, source], coeffs[:, target]):
                return False
            if not center_subspace.contains_vector(coeffs):
                return False
        return True

    def lies_in_derived_coset_span(self, center_vecs) -> bool:
        """Membership in (G')+ FG of a central vector, or of every row of a
        stack: the coefficients are constant on G'-cosets. A class lies in
        one coset, as h x h^-1 = x [x^-1, h], so that holds iff every class
        coefficient equals the one of the class of its coset's smallest element."""
        a = np.asarray(center_vecs, dtype=np.int64) % self.p
        return bool(np.array_equal(a, a[..., self._coset_lead()]))

    @memoized
    def _coset_lead(self) -> np.ndarray:
        """The class of the smallest element of each class's G'-coset."""
        coset_min = self.group.coset_min(self.group.derived_subgroup())
        return self.cls_of[coset_min[self.reps]]

    def socle_is_ideal_direct(self) -> bool:
        return self.is_ideal_in_group_algebra(self.socle())

    def socle_is_ideal_criterion(self) -> bool:
        return self.lies_in_derived_coset_span(self.socle().basis)

    @memoized
    def socle_ideal_verdict(self) -> tuple[bool, bool]:
        """(direct test, containment criterion). Raises if they disagree."""
        direct = self.socle_is_ideal_direct()
        crit = self.socle_is_ideal_criterion()
        if direct != crit:
            raise ConsistencyError(
                f"ideal tests disagree on {self.group.name} at p={self.p}: "
                f"direct={direct} criterion={crit}")
        return direct, crit

    # -- projections and class filters -----------------------------------------

    def push_through_quotient(self, center_vec, qm: QuotientMap,
                              target: "CenterAlgebra") -> np.ndarray:
        """Image of a central element under FG -> F(G/N), class basis both ends."""
        a = self.expand(center_vec)
        out_full = np.zeros(target.n, dtype=np.int64)
        np.add.at(out_full, qm.proj, a)
        return target.restrict(out_full % self.p)

    @memoized
    def second_derived_quotient_algebra(self) -> "CenterAlgebra":
        """The center algebra of G / G'' at the same prime, built once."""
        return CenterAlgebra(self.group.second_derived_quotient().group, self.p)

    def surviving_pprime_classes(self) -> list[int]:
        """Nontrivial classes whose radical vector survives the map to
        F(G / G''), computed two independent ways (must agree).

        Route one: classes not inside G'' whose fiber ratio over the quotient
        class is coprime to p. Route two: nonzero image of the radical basis
        vector under the quotient push.
        """
        g = self.group
        qm = g.second_derived_quotient()
        target = self.second_derived_quotient_algebra()
        image_sizes = target.class_sizes[target.cls_of[qm.proj[self.reps]]]
        if (self.class_sizes % image_sizes).any():
            raise ConsistencyError("class does not map onto a quotient class evenly")
        coprime = (self.class_sizes // image_sizes) % self.p != 0
        route_a = np.flatnonzero(coprime & ~g.mask(qm.kernel)[self.reps]).tolist()
        route_b = [j for j in range(1, self.k)
                   if self.push_through_quotient(self.radical_vec(j), qm, target).any()]
        if route_a != route_b:
            raise ConsistencyError(
                f"surviving-class routes disagree on {g.name} at p={self.p}")
        return route_a

    # -- socle block structure ---------------------------------------------------

    def socle_coset_decomposition(self, sylow_elems) -> list[tuple[int, int]]:
        """Socle dimensions per coset of the given Sylow subgroup.

        Returns (coset representative, dimension) for cosets with nonzero
        block, sorted by representative. The blocks must sum to the socle.

        A central element is supported in a coset iff every class in its
        support lies wholly inside that coset. With the class columns
        grouped by coset, and the straddling classes last, the socle is the
        direct sum of its blocks iff every row of its RREF lies in one
        coset group, and a block's dimension is the number of its rows.
        """
        soc = self.socle()
        # widened: key below holds n, which wraps to 0 in uint16 at n = 2**16
        cid = self.group.coset_min(sylow_elems).astype(np.int64)
        by_class = cid[self._by_class]
        lo = np.minimum.reduceat(by_class, self._starts)
        whole = lo == np.maximum.reduceat(by_class, self._starts)
        key = np.where(whole, lo, self.n)  # n: no coset holds the class
        cols = np.argsort(key, kind="stable")
        rows, piv = rref(soc.basis[:, cols], self.p)
        keys = key[cols]
        own = keys[piv]  # coset group of each row's pivot
        if (own == self.n).any() or ((rows != 0) & (keys != own[:, None])).any():
            raise ConsistencyError("socle does not split along Sylow cosets")
        reps, dims = np.unique(own, return_counts=True)
        return [(int(r), int(d)) for r, d in zip(reps, dims)]

    def dims(self) -> dict:
        return {
            "center": self.k,
            "radical": self.jacobson_radical().dim,
            "socle": self.socle().dim,
        }
