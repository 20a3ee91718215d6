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
from .fplin import FpMatrix, Subspace, binary_power, check_prime, kernel_basis, rref
from .groups import BLOCK_CELLS, FiniteGroup, QuotientMap


class CenterAlgebra:
    def __init__(self, group: FiniteGroup, p: int):
        check_prime(p)
        self.group = group
        self.p = p
        self.classes = group.conjugacy_classes()
        self.k = len(self.classes)
        self.n = group.order
        self.reps = np.array([c.rep for c in self.classes], dtype=np.int64)
        self.cls_of = group.class_index_of()
        if self.classes[0].rep != 0:
            raise ConsistencyError("identity class is not first")
        # element order grouped by class, for summing over classes at once
        self._by_class = np.argsort(self.cls_of, kind="stable")
        # P[i, j] = class of g_i^-1 rep_j, with g_i the i-th element in class order
        self._prodcls = self.cls_of[
            group.table[group.inv[self._by_class][:, None], self.reps]]
        sizes = np.array([c.size for c in self.classes], dtype=np.int64)
        self.class_sizes = sizes
        self._starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])

    # -- vector plumbing ---------------------------------------------------

    def zero(self) -> np.ndarray:
        return np.zeros(self.k, dtype=np.int64)

    def identity_vec(self) -> np.ndarray:
        v = self.zero()
        v[0] = 1
        return v

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
        """Indicator sum of a normal (class-closed) subset, in the class basis."""
        a = np.zeros(self.n, dtype=np.int64)
        a[np.asarray(elems, dtype=np.int64)] = 1
        return self.restrict(a)

    # -- multiplication ------------------------------------------------------

    def multiply(self, u, v) -> np.ndarray:
        """Product of central elements, class basis in and out. v is one
        vector (k,) or a stack of rows (d, k); a stack gives u * v_i per row.
        Entry j sums u(t) v[class of t^-1 rep_j] over the support of u only."""
        uf = np.repeat(np.asarray(u, dtype=np.int64) % self.p, self.class_sizes)
        s = np.flatnonzero(uf)
        v = np.asarray(v, dtype=np.int64) % self.p
        step = max(1, BLOCK_CELLS // max(1, v.size))  # v.size cells per t
        if v.ndim == 1 and s.size <= step:
            return uf[s] @ v[self._prodcls[s]] % self.p
        out = np.zeros(v.shape, dtype=np.int64)
        for lo in range(0, s.size, step):
            c = s[lo:lo + step]
            out += np.einsum("c,...ck->...k", uf[c], v[..., self._prodcls[c]])
        return out % self.p

    def power(self, u, e: int) -> np.ndarray:
        """u^e, squaring from the top bit down: e = 2 takes one multiply."""
        return binary_power(np.asarray(u, dtype=np.int64) % self.p, e,
                            self.multiply, self.identity_vec)

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

    def power_map_matrix(self) -> FpMatrix:
        """Matrix of x -> x^p (F_p-linear since the center is commutative)."""
        cols = np.empty((self.k, self.k), dtype=np.int64)
        for j in range(self.k):
            cols[:, j] = self.power(self.class_sum_vec(j), self.p)
        return FpMatrix(self.p, cols)

    def jacobson_radical(self) -> Subspace:
        """Nilradical of the center: kernel of enough iterates of x -> x^p."""
        if "radical" in self.__dict__:
            return self.__dict__["radical"]
        m = 0
        while self.p ** m < self.k:
            m += 1
        rad = self.power_map_matrix().matpow(m).kernel()
        # x -> x^p is linear: the radical is nilpotent iff m rounds of it,
        # applied by multiply to a basis of each image, reach 0
        image = rad
        for _ in range(m):
            image = Subspace(self.p, self.k,
                             [self.power(b, self.p) for b in image.basis])
        if image.dim:
            raise ConsistencyError("radical vector is not nilpotent")
        self.__dict__["radical"] = rad
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
        if self.k == 1:
            return Subspace(self.p, self.k)
        return Subspace(self.p, self.k,
                        np.array([self.radical_vec(j) for j in range(1, self.k)]))

    def socle(self) -> Subspace:
        """Annihilator of the radical inside the center."""
        if "socle_space" not in self.__dict__:
            rad = self.jacobson_radical()
            self.__dict__["socle_space"] = self.annihilator(list(rad.basis))
        return self.__dict__["socle_space"]

    # -- the ideal question -----------------------------------------------------

    def is_ideal_in_group_algebra(self, center_subspace: Subspace) -> bool:
        """Stability of the span under multiplication by the group generators.
        Stability under generators is stability under every group element
        (compose the moves) and hence under all of FG (span). A central y has
        g y = y g, so left moves suffice, and g y lies in the span iff it is
        constant on classes with class coefficients in the span."""
        full = center_subspace.basis[:, self.cls_of]
        t, inv = self.group.table, self.group.inv
        for g in self.group.generators():
            moved = full[:, t[inv[g], :]]  # (g y)[u] = y[g^-1 u]
            coeffs = moved[:, self.reps]
            if not np.array_equal(coeffs[:, self.cls_of], moved):
                return False
            if not all(center_subspace.contains_vector(c) for c in coeffs):
                return False
        return True

    def derived_coset_ids(self) -> np.ndarray:
        """Smallest element of the G'-coset of each element."""
        if "coset_ids" not in self.__dict__:
            der = self.group.derived_subgroup()
            self.__dict__["coset_ids"] = self.group.table[der, :].min(axis=0)
        return self.__dict__["coset_ids"]

    def lies_in_derived_coset_span(self, center_vec) -> bool:
        """Membership in (G')+ FG: the coefficients are constant on G' cosets."""
        a = self.expand(center_vec)
        return bool(np.array_equal(a, a[self.derived_coset_ids()]))

    def socle_is_ideal_direct(self) -> bool:
        return self.is_ideal_in_group_algebra(self.socle())

    def socle_is_ideal_criterion(self) -> bool:
        return all(self.lies_in_derived_coset_span(b) for b in self.socle().basis)

    def socle_ideal_verdict(self) -> tuple[bool, bool]:
        """(direct test, containment criterion). Raises if they disagree."""
        if "verdict" not in self.__dict__:
            direct = self.socle_is_ideal_direct()
            crit = self.socle_is_ideal_criterion()
            if direct != crit:
                raise ConsistencyError(
                    f"ideal tests disagree on {self.group.name} at p={self.p}: "
                    f"direct={direct} criterion={crit}")
            self.__dict__["verdict"] = (direct, crit)
        return self.__dict__["verdict"]

    # -- projections and class filters -----------------------------------------

    def push_through_quotient(self, center_vec, qm: QuotientMap,
                              target: "CenterAlgebra") -> np.ndarray:
        """Image of a central element under FG -> F(G/N), class basis both ends."""
        a = self.expand(center_vec)
        out_full = np.zeros(target.n, dtype=np.int64)
        np.add.at(out_full, qm.proj, a)
        return target.restrict(out_full % self.p)

    def second_derived_quotient_algebra(self) -> "CenterAlgebra":
        """The center algebra of G / G'' at the same prime, built once."""
        if "quotient_algebra" not in self.__dict__:
            self.__dict__["quotient_algebra"] = CenterAlgebra(
                self.group.second_derived_quotient().group, self.p)
        return self.__dict__["quotient_algebra"]

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
        inside = g.mask(qm.kernel)
        route_a: list[int] = []
        for j in range(1, self.k):
            c = self.classes[j]
            if inside[c.rep]:
                continue
            qcls = target.classes[int(target.cls_of[qm.proj[c.rep]])]
            ratio = c.size // qcls.size
            if c.size % qcls.size:
                raise ConsistencyError("class does not map onto a quotient class evenly")
            if ratio % self.p != 0:
                route_a.append(j)
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
        cid = self.group.table[np.asarray(sylow_elems, dtype=np.int64), :].min(
            axis=0).astype(np.int64)
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
