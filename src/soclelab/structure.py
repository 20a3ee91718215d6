"""Structural analysis for groups with a normal Sylow subgroup equal to
their derived subgroup.

The shape every construction below targets: G has a normal Sylow p-subgroup
that coincides with the derived subgroup G', a complement H that is abelian
of order coprime to p, and no nontrivial normal subgroup of p'-order. For
such G the quotient Q = G/G'' decomposes into minimal normal factors moved
transitively by distinguished complement elements, G itself can split as a
central product of smaller groups of the same shape, and the question
whether soc(Z(F_pG)) is an ideal of F_pG reduces to three recognizable
conditions on G. Every construction is paired with a direct verification;
a verified claim that fails raises ConsistencyError, since that would mean
either a bug here or a wrong expectation, and both must stop the run.

Everything the checks share for one (G, p) lives in one AnalysisContext,
built by examine_sylow_split: the Sylow data and shape flags, the center
algebra, and the decomposition of G/G'', computed on first request. Each
check takes the context as its only argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import CenterAlgebra
from .errors import ConsistencyError, InapplicableError
from .families import agl1, sl2_3
from .fplin import FpMatrix, Subspace, kernel_basis
from .groups import (ISO_ORDER_LIMIT, FiniteGroup, QuotientMap, direct_product,
                     groups_isomorphic)


# ---------------------------------------------------------------------------
# shape detection and the per-(group, p) context


@dataclass
class AnalysisContext:
    """One (group, p): how close the group comes to the reduced shape
    described above, its center algebra alg, and the memoized outcome of
    the quotient decomposition.

    flags keys:
      derived_is_sylow          G' is a Sylow p-subgroup of G
      complement_abelian        a coprime complement to the Sylow subgroup
                                exists and is abelian (False when no
                                complement was found)
      pprime_core_trivial       the largest normal p'-subgroup is trivial
      derived_center_is_second_derived   Z(G') = G''
    """

    group: FiniteGroup
    p: int
    derived: np.ndarray
    sylow: np.ndarray
    sylow_normal: bool
    complement: np.ndarray | None
    flags: dict
    alg: CenterAlgebra
    # None before the first request, False after a failed one
    _dec: QuotientDecomposition | bool | None = field(
        default=None, init=False, repr=False)

    @property
    def reduced(self) -> bool:
        """True when the first three flags hold and a complement is known."""
        f = self.flags
        return bool(f["derived_is_sylow"] and f["complement_abelian"]
                    and f["pprime_core_trivial"]) and self.complement is not None

    @property
    def z_match(self) -> bool:
        return bool(self.flags["derived_center_is_second_derived"])

    @cached_property
    def derived_camina(self) -> bool:
        """G' as a group of its own is a Camina group; built once per context."""
        dergrp, _ = self.group.subgroup_as_group(self.derived)
        return dergrp.is_camina()

    def decomposition(self) -> QuotientDecomposition:
        """decompose_second_derived_quotient(self), run on the first request.
        When it fails, that request raises its error and every later one
        raises InapplicableError."""
        if self._dec is None:
            self._dec = False
            self._dec = decompose_second_derived_quotient(self)
        if self._dec is False:
            raise InapplicableError("no quotient decomposition available")
        return self._dec


def examine_sylow_split(g: FiniteGroup, p: int) -> AnalysisContext:
    der = g.derived_subgroup()
    syl = g.sylow_subgroup(p)
    sylow_normal = syl.size == g.order or g.is_normal(syl)

    complement = None
    if syl.size == g.order:
        complement = np.array([0], dtype=np.int64)
    elif sylow_normal:
        complement = g.hall_complement(p, sylow=syl)

    zd = g.sub_center(der)
    second = g.sub_derived(der)
    flags = {
        "derived_is_sylow": np.array_equal(der, syl),
        "complement_abelian": complement is not None and g.commute(complement, complement),
        "pprime_core_trivial": bool(g.p_prime_core(p).size == 1),
        "derived_center_is_second_derived": np.array_equal(zd, second),
    }
    return AnalysisContext(group=g, p=p, derived=der, sylow=syl,
                           sylow_normal=sylow_normal,
                           complement=complement, flags=flags,
                           alg=CenterAlgebra(g, p))


# ---------------------------------------------------------------------------
# elementary abelian coordinates


def _elementary_coords(g: FiniteGroup, elems, p: int):
    """Exponent coordinates for an elementary abelian p-subgroup.

    Returns (basis, coord) with coord a dict from element index to an int64
    exponent vector over the greedily chosen basis (smallest elements first).
    """
    eset = sorted(int(x) for x in np.atleast_1d(elems))
    if eset[0] != 0:
        raise ConsistencyError("coordinate domain must contain the identity")
    basis: list[int] = []
    span = {0}
    for x in eset:
        if x in span:
            continue
        if g.power(x, p) != 0:
            raise ConsistencyError("coordinate domain is not of exponent p")
        basis.append(x)
        powers = [g.power(x, k) for k in range(p)]
        span = {g.mul(s, w) for s in span for w in powers}
    coord = {0: np.zeros(len(basis), dtype=np.int64)}
    for j, b in enumerate(basis):
        current = dict(coord)
        for k in range(1, p):
            bk = g.power(b, k)
            for e, v in coord.items():
                w = v.copy()
                w[j] = k
                current[g.mul(e, bk)] = w
        coord = current
    if len(coord) != len(eset) or set(coord) != set(eset):
        raise ConsistencyError("coordinate domain is not elementary abelian")
    return basis, coord


def _elems_from_coords(g: FiniteGroup, basis: list[int], vec) -> int:
    out = 0
    for j, b in enumerate(basis):
        k = int(vec[j])
        if k:
            out = g.mul(out, g.power(b, k))
    return out


# ---------------------------------------------------------------------------
# minimal normal subgroups


def _minimal_normal_inside(q: FiniteGroup, elems) -> list[np.ndarray]:
    """Inclusion-minimal normal closures of single elements of a normal set,
    one per class the set meets (conjugates share their normal closure).

    When elems is (the element set of) a normal subgroup N, the result is
    exactly the list of minimal normal subgroups of q contained in N.
    """
    classes = q.conjugacy_classes()
    seen: dict[bytes, np.ndarray] = {}
    for ci in np.unique(q.class_index_of()[np.atleast_1d(elems)]):
        if ci:
            nc = q.normal_closure([classes[ci].rep])
            seen[nc.tobytes()] = nc
    closures = list(seen.values())
    out = [nc for nc in closures
           if not any(o.size < nc.size and q.mask(nc)[o].all() for o in closures)]
    out.sort(key=lambda a: (a.size, a.tolist()))
    return out


def is_minimal_normal(q: FiniteGroup, elems) -> bool:
    """A nontrivial normal N is minimal iff it is the only inclusion-minimal
    normal closure of its elements."""
    elems = np.unique(np.asarray(elems, dtype=np.int64))
    if elems.size <= 1 or not q.is_normal(elems):
        return False
    inside = _minimal_normal_inside(q, elems)
    return len(inside) == 1 and np.array_equal(inside[0], elems)


# ---------------------------------------------------------------------------
# decomposition of the second-derived quotient


@dataclass
class QuotientDecomposition:
    """Decomposition data for Q = G/G''.

    derived_image   image of G' in Q (call it Q' below; Q' is abelian)
    central_image   image of Z(G') in Q
    factor_span     product of the minimal factors, a complement of
                    central_image inside derived_image
    factors         minimal normal subgroups of Q whose product is
                    factor_span, sorted by (size, elements)
    multipliers     per factor: an element of the complement H (as an index
                    into G) whose image generates a cyclic group acting
                    transitively on the nonidentity part of that factor and
                    centralizing every other factor; None when no such
                    element exists
    multiplier_orders    per factor: |factor| - 1
    cofactors       per factor i: the subgroup of G that maps onto the
                    product of the other factors and the central image
    fixers          per factor: smallest nontrivial element of H that
                    centralizes the matching cofactor, None when the
                    centralizer is trivial
    """

    qmap: QuotientMap
    quotient: FiniteGroup
    derived_image: np.ndarray
    central_image: np.ndarray
    factor_span: np.ndarray
    factors: list[np.ndarray]
    multipliers: list[int | None]
    multiplier_orders: list[int]
    cofactors: list[np.ndarray]
    fixers: list[int | None]
    factor_components: dict = field(repr=False, default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.factors)


def _averaging_projector(q: FiniteGroup, p: int, basis: list[int],
                         coord: dict, target: Subspace,
                         actors: list[int]) -> FpMatrix:
    """Projector of the coordinate space onto target commuting with the
    conjugation action of the given (images of) complement elements.

    Vectors act as rows, v -> v @ P. Requires the number of actors to be
    invertible mod p and target to be stable under each actor.
    """
    k = len(basis)
    if k == 0:
        return FpMatrix.identity(p, 0)
    # plain projector onto target along the complementary coordinate axes
    tb = target.basis
    free = [c for c in range(k) if c not in set(target.pivots)]
    full = np.zeros((k, k), dtype=np.int64)
    full[: tb.shape[0]] = tb
    for i, c in enumerate(free):
        full[tb.shape[0] + i, c] = 1
    b = FpMatrix(p, full)
    binv = b.inverse()
    e = np.zeros((k, k), dtype=np.int64)
    for i in range(tb.shape[0]):
        e[i, i] = 1
    p0 = binv @ FpMatrix(p, e) @ b

    acc = FpMatrix.zeros(p, k, k)
    for h in actors:
        rows = np.array([coord[q.conj(h, bb)] for bb in basis], dtype=np.int64)
        a = FpMatrix(p, rows)
        acc = acc.add(a @ p0 @ a.inverse())
    scale = pow(len(actors), p - 2, p)
    proj = FpMatrix(p, (acc.a * scale) % p)
    if (proj @ proj) != proj:
        raise ConsistencyError("averaged map is not a projector")
    return proj


def decompose_second_derived_quotient(ctx: AnalysisContext) -> QuotientDecomposition:
    """Split the image of G' in Q = G/G'' as (minimal factors) x (central image).

    The factor span is produced as the kernel of an averaging projector onto
    the image of Z(G'), so it is stable under the complement action by
    construction and normal in Q because the derived image is abelian.

    Several intermediate facts (the p-th power set forming a subgroup, the
    derived subgroup splitting over its center, independence of the minimal
    factors) are only promised when soc(ZFG) is an ideal. A failure is
    therefore a ConsistencyError in that case and an InapplicableError
    otherwise. Checks reach it through ctx.decomposition(), which runs it
    once per context.
    """
    if not ctx.reduced:
        raise InapplicableError("group does not have the reduced shape")
    g, p = ctx.group, ctx.p
    comp = ctx.complement
    if math.gcd(len(comp), p) != 1:
        raise InapplicableError("complement order is divisible by p")

    def conditional_fail(msg: str):
        if ctx.alg.socle_ideal_verdict()[0]:
            raise ConsistencyError(msg)
        raise InapplicableError(msg + " (and the socle is not an ideal)")

    qm = g.second_derived_quotient()
    q = qm.group
    der_im = np.unique(qm.proj[ctx.derived])
    zc = g.sub_center(ctx.derived)
    central_im = np.unique(qm.proj[zc])
    if not q.commute(der_im, der_im):
        raise ConsistencyError("derived image in the quotient is not abelian")

    # the set of derived elements whose p-th powers fall into the kernel;
    # a subgroup only when the derived subgroup has class at most two
    dropped = np.array([x for x in ctx.derived
                        if qm.proj[g.power(int(x), p)] == 0], dtype=np.int64)
    if not g.is_subgroup(dropped) or not g.is_normal(dropped):
        conditional_fail("p-th power preimage set is not a normal subgroup")
    prod = np.unique(g.table[np.ix_(dropped, zc)])
    if not np.array_equal(prod, ctx.derived):
        conditional_fail(
            "derived subgroup is not covered by the p-th power set and the center")

    mbar = np.unique(qm.proj[dropped])
    basis, coord = _elementary_coords(q, mbar, p)
    k = len(basis)

    winters = np.intersect1d(np.unique(qm.proj[np.intersect1d(dropped, zc)]),
                             mbar)
    wrows = np.array([coord[int(x)] for x in winters], dtype=np.int64
                     ) if winters.size else np.zeros((0, k), dtype=np.int64)
    wspace = Subspace(p, k, wrows)

    actors = sorted({int(qm.proj[int(h)]) for h in comp})
    proj = _averaging_projector(q, p, basis, coord, wspace, actors)
    tspace = Subspace(p, k, kernel_basis(proj.a.T, p))
    if tspace.dim + wspace.dim != k or tspace.intersect(wspace).dim != 0:
        raise ConsistencyError("projector kernel does not complement the center image")

    tele = sorted(_elems_from_coords(q, basis, v)
                  for v in _all_combinations(p, tspace))
    tspan = np.array(tele, dtype=np.int64)
    if not q.is_subgroup(tspan) or not q.is_normal(tspan):
        raise ConsistencyError("factor span is not a normal subgroup")
    tmask = q.mask(tspan)
    for h in actors:
        if not tmask[q.table[q.table[h, tspan], q.inverse(h)]].all():
            raise ConsistencyError("factor span is not stable under the complement")
    # directness of span x central image inside the derived image
    cover = np.unique(q.table[np.ix_(tspan, central_im)])
    if (not np.array_equal(cover, der_im)
            or np.intersect1d(tspan, central_im).size != 1):
        conditional_fail("derived image does not split over the center image")

    factors = _minimal_normal_inside(q, tspan)
    sizes = 1
    for f in factors:
        sizes *= int(f.size)
    if sizes != int(tspan.size):
        conditional_fail(
            "minimal factors of the span are not independent "
            f"({len(factors)} factors, size product {sizes}, span {tspan.size})")
    # record per-element factor components while checking the product is direct
    prod_map: dict[int, tuple] = {0: ()}
    for f in factors:
        nxt: dict[int, tuple] = {}
        for e, parts in prod_map.items():
            for t in f:
                nxt[q.mul(e, int(t))] = parts + (int(t),)
        if len(nxt) != len(prod_map) * f.size:
            raise ConsistencyError("factor product collides")
        prod_map = nxt
    if set(prod_map) != set(int(x) for x in tspan):
        raise ConsistencyError("factor product does not cover the span")

    multipliers: list[int | None] = []
    fixers: list[int | None] = []
    cofactors: list[np.ndarray] = []
    for i, f in enumerate(factors):
        multipliers.append(_find_multiplier(q, qm, comp, factors, i))
        rest = np.array([0], dtype=np.int64)
        for j, other in enumerate(factors):
            if j != i:
                rest = np.unique(q.table[np.ix_(rest, other)])
        rest = np.unique(q.table[np.ix_(rest, central_im)])
        cof = qm.preimage_of_set(rest)
        cofactors.append(cof)
        cent = g.centralizer(cof, within=comp)
        cent = cent[cent != 0]
        fixers.append(int(cent.min()) if cent.size else None)

    return QuotientDecomposition(
        qmap=qm, quotient=q, derived_image=der_im,
        central_image=central_im, factor_span=tspan, factors=factors,
        multipliers=multipliers,
        multiplier_orders=[int(f.size) - 1 for f in factors],
        cofactors=cofactors, fixers=fixers, factor_components=prod_map)


def _all_combinations(p: int, space: Subspace):
    """Every vector of a subspace, as rows."""
    if space.dim == 0:
        yield np.zeros(space.ambient, dtype=np.int64)
        return
    coeffs = np.zeros(space.dim, dtype=np.int64)
    total = p ** space.dim
    for idx in range(total):
        rem = idx
        for j in range(space.dim):
            coeffs[j] = rem % p
            rem //= p
        yield (coeffs @ space.basis) % p


def _find_multiplier(q: FiniteGroup, qm: QuotientMap, comp,
                     factors: list[np.ndarray], i: int) -> int | None:
    """Smallest complement element whose image cycles factor i transitively
    and centralizes every other factor."""
    for h in sorted(int(x) for x in comp):
        if h == 0:
            continue
        hb = int(qm.proj[h])
        if (_acts_transitively(q, hb, factors[i])
                and all(_fixes_set(q, hb, other)
                        for j, other in enumerate(factors) if j != i)):
            return h
    return None


def _acts_transitively(q: FiniteGroup, hb: int, fac: np.ndarray) -> bool:
    """Does the cyclic group generated by hb cycle through fac minus 1?"""
    nontriv = [int(t) for t in fac if int(t) != 0]
    if not nontriv:
        return False
    orbit = {nontriv[0]}
    cur = nontriv[0]
    while True:
        cur = q.conj(hb, cur)
        if cur in orbit:
            break
        orbit.add(cur)
    return orbit == set(nontriv)


def _fixes_set(q: FiniteGroup, hb: int, elems: np.ndarray) -> bool:
    perm = q.conjugation_perm(hb)
    return bool((perm[elems] == elems).all())


def _verified(checks: dict, what: str) -> dict:
    """The named checks as booleans; any that failed raise one
    ConsistencyError naming them all, in order."""
    checks = {name: bool(ok) for name, ok in checks.items()}
    fails = [name for name, ok in checks.items() if not ok]
    if fails:
        raise ConsistencyError(f"{what} checks failed: " + ", ".join(fails))
    return checks


def check_quotient_decomposition(ctx: AnalysisContext) -> dict:
    """Verify every property the decomposition promises.

    Intended for groups where soc(ZFG) is an ideal, where all of these are
    guaranteed; any failure raises ConsistencyError. Returns the dict of
    individual check results (all True when it returns).
    """
    dec = ctx.decomposition()
    g, comp = ctx.group, ctx.complement
    q, qm = dec.quotient, dec.qmap
    qcls = q.class_index_of()
    checks: dict[str, bool] = {}

    cover = np.unique(q.table[np.ix_(dec.factor_span, dec.central_image)])
    checks["derived_image_splits"] = (
        np.intersect1d(dec.factor_span, dec.central_image).size == 1
        and np.array_equal(cover, dec.derived_image))
    checks["factors_minimal_normal"] = all(is_minimal_normal(q, f) for f in dec.factors)
    checks["factor_sizes_at_least_three"] = all(int(f.size) >= 3 for f in dec.factors)

    checks["multipliers_exist"] = all(m is not None for m in dec.multipliers)
    mult_ok = checks["multipliers_exist"]
    if mult_ok:
        for i, m in enumerate(dec.multipliers):
            mb = int(qm.proj[m])
            if not _acts_transitively(q, mb, dec.factors[i]):
                mult_ok = False
            for j, f in enumerate(dec.factors):
                if j != i and not _fixes_set(q, mb, f):
                    mult_ok = False
    checks["multipliers_act_as_promised"] = mult_ok

    # the multipliers plus the pointwise stabilizer of the span generate H,
    # and each multiplier generates the quotient of H by its factor stabilizer
    span_stab = np.array([h for h in comp
                          if _fixes_set(q, int(qm.proj[h]), dec.factor_span)],
                         dtype=np.int64)
    if checks["multipliers_exist"]:
        gens = [int(m) for m in dec.multipliers] + [int(h) for h in span_stab]
        checks["complement_generated"] = np.array_equal(g.subgroup_closure(gens), comp)
        cyc_ok = True
        for i, m in enumerate(dec.multipliers):
            stab = set(int(h) for h in comp
                       if _fixes_set(q, int(qm.proj[h]), dec.factors[i]))
            index = len(comp) // len(stab)
            k, cur = 1, int(m)
            while cur not in stab:
                cur = g.mul(cur, int(m))
                k += 1
            if k != index:
                cyc_ok = False
        checks["multiplier_spans_action_quotient"] = cyc_ok
    else:
        checks["complement_generated"] = False
        checks["multiplier_spans_action_quotient"] = False

    checks["cofactor_fixers_exist"] = all(h is not None for h in dec.fixers)
    shape_ok = checks["cofactor_fixers_exist"]
    if shape_ok:
        qclasses = q.conjugacy_classes()
        for i, h in enumerate(dec.fixers):
            hb = int(qm.proj[h])
            want = np.sort(q.table[dec.factors[i], hb])
            if not np.array_equal(want, qclasses[int(qcls[hb])].elems):
                shape_ok = False
    checks["fixer_class_is_factor_translate"] = shape_ok

    pat_of_cid: dict[int, tuple] = {}
    cid_of_pat: dict[tuple, int] = {}
    ok = True
    for e, parts in dec.factor_components.items():
        pat = tuple(int(t) != 0 for t in parts)
        cid = int(qcls[e])
        if pat_of_cid.setdefault(cid, pat) != pat:
            ok = False
        if cid_of_pat.setdefault(pat, cid) != cid:
            ok = False
    checks["support_pattern_matches_conjugacy"] = ok
    return _verified(checks, "quotient decomposition")


# ---------------------------------------------------------------------------
# the ideal characterization


@dataclass
class IdealCharacterization:
    """Three-condition test for soc(ZFG) being an ideal of FG.

    affine_match       Q = G/G'' is the one dimensional affine group of the
                       field with |Q'| elements
    affine_method      how affine_match was decided
    has_fixer          some nontrivial complement element centralizes G''
    derived_camina     G' is a Camina group
    predicted          conjunction of the three conditions
    direct             the computed ideal verdict
    witness            certificate of non-ideality when one could be built
    """

    affine_match: bool
    affine_method: str
    has_fixer: bool
    derived_camina: bool
    predicted: bool
    direct: bool
    criterion: bool
    witness: dict | None
    notes: list[str]


def _matches_affine_model(q: FiniteGroup, sizes: list[int]) -> tuple[bool, str]:
    """Is q the direct product of the affine groups AGL(1, s), s in sizes?
    Returns (match, method): decided by order when the orders differ, else
    by isomorphism, which compares fingerprints above ISO_ORDER_LIMIT.
    q is the memoized G/G'', so the answer is memoized on it."""
    key = ("affine", tuple(sizes))
    if key not in q._memo:
        if not sizes or q.order != math.prod(s * (s - 1) for s in sizes):
            q._memo[key] = False, "order"
        else:
            model = agl1(sizes[0])
            for s in sizes[1:]:
                model = direct_product(model, agl1(s))[0]
            method = "isomorphism" if q.order <= ISO_ORDER_LIMIT else "fingerprint"
            q._memo[key] = groups_isomorphic(q, model), method
    return q._memo[key]


def characterize_socle_ideal(ctx: AnalysisContext) -> IdealCharacterization:
    """Decide the ideal question from group structure and verify the answer
    against the direct computation. Disagreement raises ConsistencyError.

    Applies when the group has the reduced shape, Z(G') = G'', and the image
    of G' is a minimal normal subgroup of G/G''.
    """
    dec = ctx.decomposition()  # raises unless the shape is reduced
    g, p = ctx.group, ctx.p
    if not ctx.z_match:
        raise InapplicableError(
            "center of the derived subgroup is not the second derived subgroup")
    q = dec.quotient
    der_im = dec.derived_image
    if der_im.size <= 1:
        raise InapplicableError("derived subgroup is trivial")
    if not is_minimal_normal(q, der_im):
        raise InapplicableError(
            "derived image is not a minimal normal subgroup of the quotient")
    if dec.n != 1 or not np.array_equal(dec.factors[0], der_im):
        raise ConsistencyError(
            "decomposition does not consist of the derived image alone")

    notes: list[str] = []
    comp = ctx.complement
    qsize = int(der_im.size)

    structural = (dec.multipliers[0] is not None and len(comp) == qsize - 1)
    affine, method = _matches_affine_model(q, [qsize])
    if affine != structural:
        raise ConsistencyError(
            f"affine recognition routes disagree: model comparison {affine}, "
            f"transitive generator search {structural}")

    has_fixer = dec.fixers[0] is not None
    camina = ctx.derived_camina

    predicted = bool(affine and has_fixer and camina)
    direct, criterion = ctx.alg.socle_ideal_verdict()
    if predicted != direct:
        raise ConsistencyError(
            f"structural prediction {predicted} contradicts the computed "
            f"verdict {direct} on {g.name} at p={p}")

    if p % 2 == 1 and affine and not has_fixer:
        raise ConsistencyError(
            "odd characteristic with an affine quotient forces a nontrivial "
            "centralizer of the second derived subgroup")

    if direct:
        center = g.center()
        if center.size > 1:
            if g.order != 24 or not groups_isomorphic(g, sl2_3()):
                raise ConsistencyError(
                    "nontrivial center outside the one known exceptional group")
            notes.append("nontrivial center, exceptional order 24 group")

    witness = None
    if not direct:
        if affine and has_fixer:
            try:
                witness = build_nonideal_witness(ctx)
            except InapplicableError as e:
                notes.append(f"witness construction inapplicable: {e}")
        else:
            missing = []
            if not affine:
                missing.append("quotient is not the affine model")
            if not has_fixer:
                missing.append("no complement element centralizes G''")
            notes.append("witness construction inapplicable: " + "; ".join(missing))

    return IdealCharacterization(
        affine_match=affine, affine_method=method, has_fixer=has_fixer,
        derived_camina=camina, predicted=predicted, direct=direct,
        criterion=criterion, witness=witness, notes=notes)


def _factor_seed(ctx: AnalysisContext, i: int,
                 fixer: int | None = None) -> tuple[np.ndarray, int]:
    """Pull the conjugacy class of the i-th cofactor fixer back to a coset
    translate inside G', and pick the smallest seed outside G''.

    Returns (translate set U, seed). U contains the identity, lies in G',
    has the same size as the i-th factor, and equals {1} together with the
    multiplier conjugation orbit of the seed; failures of these facts raise
    ConsistencyError.
    """
    g, dec = ctx.group, ctx.decomposition()
    h = dec.fixers[i] if fixer is None else fixer
    if h is None:
        raise InapplicableError("no fixer for this factor")
    hinv = g.inverse(int(h))
    cls = g.conjugacy_classes()[int(g.class_index_of()[int(h)])]
    u_set = np.sort(np.array([g.mul(int(x), hinv) for x in cls.elems],
                             dtype=np.int64))
    if 0 not in u_set or not g.mask(ctx.derived)[u_set].all():
        raise ConsistencyError("fixer class is not a derived-subgroup translate")
    if int(u_set.size) != int(dec.factors[i].size):
        raise ConsistencyError("fixer class size does not match its factor")
    second = g.second_derived()
    outside = np.setdiff1d(u_set, second)
    if outside.size == 0:
        raise ConsistencyError("translate set collapses into G''")
    seed = int(outside[0])
    e = dec.multipliers[i]
    if e is not None:
        orbit = {seed}
        cur, ei = seed, int(e)
        for _ in range(int(u_set.size) - 2):
            cur = g.conj(ei, cur)
            orbit.add(cur)
        full = np.array([0] + sorted(orbit), dtype=np.int64)
        if not np.array_equal(full, u_set):
            raise ConsistencyError(
                "translate set is not one multiplier orbit plus the identity")
    return u_set, seed


def build_nonideal_witness(ctx: AnalysisContext) -> dict:
    """Construct a central element that annihilates the radical yet has
    support outside the G'-coset span: direct proof that soc(ZFG) is not
    an ideal of FG.

    Requires the reduced shape with Z(G') = G'', a single-factor
    decomposition whose quotient is the affine model, a fixer, a trivial
    group center, and a proper commutator core inside G''. Every claimed
    property of the witness is verified before returning.
    """
    dec = ctx.decomposition()  # raises unless the shape is reduced
    g, p, alg = ctx.group, ctx.p, ctx.alg
    if not ctx.z_match:
        raise InapplicableError("witness needs the reduced shape with Z(G')=G''")
    if dec.n != 1 or not np.array_equal(dec.factors[0], dec.derived_image):
        raise InapplicableError("witness needs a single-factor decomposition")
    e1 = dec.multipliers[0]
    if e1 is None:
        raise InapplicableError("witness needs a transitive complement element")
    qsize = int(dec.factors[0].size)
    if len(ctx.complement) != qsize - 1:
        raise InapplicableError("witness needs the full affine complement")
    if dec.fixers[0] is None:
        raise InapplicableError("witness needs a fixer of the second derived subgroup")
    if g.center().size > 1:
        raise InapplicableError("witness needs a trivial group center")

    second = g.second_derived()
    u_set, g1 = _factor_seed(ctx, 0)
    e1i = int(e1)

    core = np.array(sorted({g.commutator(int(a), g1) for a in ctx.derived}),
                    dtype=np.int64)
    if not g.is_subgroup(core) or not g.mask(second)[core].all():
        raise ConsistencyError("commutator core is not a subgroup of G''")
    alt = g.subgroup_closure([g.commutator(g.conj(g.power(e1i, m), g1), g1)
                              for m in range(qsize - 1)])
    if not np.array_equal(alt, core):
        raise ConsistencyError("commutator core has two inequivalent descriptions")

    cls_of = g.class_index_of()
    classes = g.conjugacy_classes()
    g1_class = classes[int(cls_of[g1])].elems
    coset = np.sort(np.array([g.mul(g1, int(u)) for u in second], dtype=np.int64))
    meet = np.intersect1d(g1_class, coset)
    shifted = np.sort(np.array([g.mul(int(c), g1) for c in core], dtype=np.int64))
    if not np.array_equal(meet, shifted):
        raise ConsistencyError(
            "class meets the G''-coset of the seed in more than the core translate")

    if (int(core.size) == int(second.size)) != ctx.derived_camina:
        raise ConsistencyError("commutator core fills G'' iff G' is Camina, violated")
    if int(core.size) == int(second.size):
        raise InapplicableError(
            "commutator core fills G'', no functional vanishes on it")

    basis, coord = _elementary_coords(g, second, p)
    r = len(basis)
    if int(core.size) == 1:
        func_rows = np.eye(r, dtype=np.int64)
    else:
        rows = np.array([coord[int(c)] for c in core], dtype=np.int64)
        func_rows = Subspace(p, r, kernel_basis(rows, p)).basis
    if func_rows.shape[0] == 0:
        raise ConsistencyError("no functional vanishes on a proper core")
    alpha = func_rows[0]

    # coefficient a_x: alpha of the G''-part when x is conjugate to g1*u
    avec = np.zeros(g.order, dtype=np.int64)
    assigned: dict[int, int] = {}
    for u in second:
        val = int(coord[int(u)] @ alpha % p)
        cid = int(cls_of[g.mul(g1, int(u))])
        if assigned.setdefault(cid, val) != val:
            raise ConsistencyError("coefficient is not constant on a class")
    support = []
    for cid, val in assigned.items():
        if val:
            avec[classes[cid].elems] = val
            support.append(cid)
    if not support:
        raise ConsistencyError("functional vanishes on every coset coefficient")

    yc = alg.restrict(avec)
    if alg.multiply(yc, alg.jacobson_radical().basis).any():
        raise ConsistencyError("witness fails to annihilate the radical")
    if not alg.socle().contains_vector(yc):
        raise ConsistencyError("witness lies outside the socle")
    if alg.lies_in_derived_coset_span(yc):
        raise ConsistencyError("witness coefficients are constant on G'-cosets")

    return {
        "seed": int(g1),
        "multiplier": int(e1),
        "fixer": int(dec.fixers[0]),
        "kernel_functional": {
            "generators": [int(b) for b in basis],
            "values": [int(v) for v in alpha],
        },
        "commutator_core_order": int(core.size),
        "second_derived_order": int(second.size),
        "support_classes": sorted(int(c) for c in support),
        "vector": [int(v) for v in avec],
        "checks": {
            "central": True,
            "annihilates_radical": True,
            "in_socle": True,
            "outside_derived_coset_span": True,
        },
    }


# ---------------------------------------------------------------------------
# central product splitting


@dataclass
class CentralFactorSplit:
    """Decomposition of G into pairwise commuting generating subgroups, one
    per minimal factor, each generated by one p-element and one multiplier.
    """

    seeds: list[int]
    multipliers: list[int]
    component_elems: list[np.ndarray]
    component_orders: list[int]
    checks: dict[str, bool]
    model_method: str


def split_into_central_factors(ctx: AnalysisContext) -> CentralFactorSplit:
    """Split G into a central product of one subgroup per factor, then
    verify every promised property of the pieces.

    Applies when the group has the reduced shape, Z(G') = G'', and the
    socle is an ideal; under those hypotheses a failed verification is a
    ConsistencyError.
    """
    dec = ctx.decomposition()  # raises unless the shape is reduced
    g, p = ctx.group, ctx.p
    if not ctx.z_match:
        raise InapplicableError(
            "central splitting needs the reduced shape with Z(G') = G''")
    direct, _ = ctx.alg.socle_ideal_verdict()
    if not direct:
        raise InapplicableError("central splitting needs the socle to be an ideal")
    if any(m is None for m in dec.multipliers) or any(h is None for h in dec.fixers):
        raise ConsistencyError(
            "multiplier or fixer missing although the socle is an ideal")

    q, qm = dec.quotient, dec.qmap
    comp = ctx.complement
    second = g.second_derived()

    u_sets, seeds, parts, part_groups = [], [], [], []
    for i in range(dec.n):
        u, s = _factor_seed(ctx, i)
        u_sets.append(u)
        seeds.append(s)
        elems = g.subgroup_closure([s, int(dec.multipliers[i])])
        grp, order_map = g.subgroup_as_group(elems, name=f"{g.name}.part{i}")
        parts.append(order_map)
        part_groups.append(grp)

    checks = {k: True for k in
              ("component_socle_ideal", "component_sylow_is_derived",
               "component_center_match", "component_derived_image_minimal",
               "component_second_derived")}
    for i, cg in enumerate(part_groups):
        part = examine_sylow_split(cg, p)
        if not all(part.alg.socle_ideal_verdict()):
            checks["component_socle_ideal"] = False
        if not part.flags["derived_is_sylow"]:
            checks["component_sylow_is_derived"] = False
        if not part.z_match:
            checks["component_center_match"] = False
        sec_local = cg.second_derived()
        sec_global = parts[i][sec_local]
        if not np.array_equal(sec_global, np.intersect1d(parts[i], second)):
            checks["component_second_derived"] = False
        qi = cg.quotient(sec_local)
        der_im_i = np.unique(qi.proj[cg.derived_subgroup()])
        if der_im_i.size <= 1 or not is_minimal_normal(qi.group, der_im_i):
            checks["component_derived_image_minimal"] = False

    cls_of = g.class_index_of()
    classes = g.conjugacy_classes()
    inv_ok, comm_ok, other_ok, choice_ok = True, True, True, True
    for i, s in enumerate(seeds):
        cid = int(cls_of[s])
        if int(cls_of[g.inverse(s)]) != cid:
            inv_ok = False
        ei = int(dec.multipliers[i])
        s_i = int(dec.factors[i].size) - 1
        for k in range(1, s_i):
            if int(cls_of[g.commutator(g.power(ei, k), s)]) != cid:
                comm_ok = False
        for j, ej in enumerate(dec.multipliers):
            if j != i and g.commutator(s, int(ej)) != 0:
                other_ok = False
        fixers_i = g.centralizer(dec.cofactors[i], within=comp)
        for h in fixers_i:
            if int(h) == 0:
                continue
            u_h, _ = _factor_seed(ctx, i, fixer=int(h))
            outside = np.setdiff1d(u_h, second)
            if not all(int(cls_of[int(x)]) == cid for x in outside):
                choice_ok = False
    checks["seed_conjugate_to_inverse"] = inv_ok
    checks["seed_conjugate_to_multiplier_commutators"] = comm_ok
    checks["seed_commutes_with_other_multipliers"] = other_ok
    checks["seed_class_independent_of_fixer_choice"] = choice_ok

    checks["components_commute_pairwise"] = all(
        g.commute(parts[i], parts[j]) for i in range(dec.n) for j in range(i + 1, dec.n))
    gen = g.subgroup_closure(sorted({int(x) for part in parts for x in part}))
    checks["components_generate"] = int(gen.size) == g.order

    cover = second
    for u in u_sets:
        cover = np.unique(g.table[np.ix_(cover, u)])
    checks["derived_covered_by_translates"] = np.array_equal(cover, ctx.derived)

    checks["multiplier_orders"] = all(g.element_order(int(e)) == int(f.size) - 1
                                      for e, f in zip(dec.multipliers, dec.factors))
    checks["multipliers_generate_complement"] = np.array_equal(
        g.subgroup_closure([int(e) for e in dec.multipliers]), comp)
    checks["multiplier_order_product"] = (
        math.prod(int(f.size) - 1 for f in dec.factors) == len(comp))
    inter_ok = True
    cyc = [g.subgroup_closure([int(e)]) for e in dec.multipliers]
    for i in range(dec.n):
        for j in range(i + 1, dec.n):
            if np.intersect1d(cyc[i], cyc[j]).size != 1:
                inter_ok = False
    checks["multiplier_subgroups_independent"] = inter_ok

    affine, method = _matches_affine_model(q, [int(f.size) for f in dec.factors])
    checks["quotient_is_affine_product"] = affine

    pres = [qm.preimage_of_set(f) for f in dec.factors]
    checks["factor_preimages_commute"] = all(
        g.commute(pres[i], pres[j]) for i in range(dec.n) for j in range(i + 1, dec.n))
    checks = _verified(checks, "central splitting")
    return CentralFactorSplit(
        seeds=[int(s) for s in seeds],
        multipliers=[int(e) for e in dec.multipliers],
        component_elems=parts,
        component_orders=[grp.order for grp in part_groups],
        checks=checks, model_method=method)


# ---------------------------------------------------------------------------
# annihilator reduction to the quotient


def check_annihilator_reduction(ctx: AnalysisContext) -> dict:
    """In the quotient Q = G/G'', the annihilator of the surviving
    coprime-class sums has coefficients constant on Q'-cosets, and the same
    annihilator is cut out by a small canonical generator set: the central
    classes inside the image of Z(G') (as class sum minus class size) plus
    one subset sum per factor.

    Applies when the group has the reduced shape and the socle is an ideal;
    a failure then raises ConsistencyError.
    """
    dec, alg = ctx.decomposition(), ctx.alg  # raises unless the shape is reduced
    direct, _ = alg.socle_ideal_verdict()
    if not direct:
        raise InapplicableError("annihilator reduction needs the socle to be an ideal")

    qm = dec.qmap
    qalg = alg.second_derived_quotient_algebra()

    image_ids = sorted({int(qalg.cls_of[int(qm.proj[int(alg.classes[ci].rep)])])
                        for ci in alg.surviving_pprime_classes()})

    ann = qalg.annihilator([qalg.radical_vec(ci) for ci in image_ids])

    in_span = all(qalg.lies_in_derived_coset_span(row) for row in ann.basis)

    central = set(int(x) for x in dec.central_image)
    mvecs = []
    for ci in range(1, qalg.k):
        if set(int(x) for x in qalg.classes[ci].elems) <= central:
            mvecs.append(qalg.radical_vec(ci))
    for f in dec.factors:
        mvecs.append(qalg.subset_sum_vec(f))
    match = qalg.annihilator(mvecs) == ann

    if not (in_span and match):
        bad = []
        if not in_span:
            bad.append("annihilator escapes the derived-coset span")
        if not match:
            bad.append("canonical generator set cuts out a different annihilator")
        raise ConsistencyError("; ".join(bad))
    return {
        "annihilator_in_derived_coset_span": True,
        "generator_sets_match": True,
        "annihilator_dim": ann.dim,
        "surviving_image_classes": image_ids,
    }


# ---------------------------------------------------------------------------
# reduction pipeline


def reduce_to_core(ctx: AnalysisContext) -> tuple[FiniteGroup, list[dict]]:
    """Strip the parts of ctx.group that provably do not affect whether the
    socle is an ideal: quotient by the coprime core, then drop a central
    p-group factor when the group splits as (complement fixed points)
    times (p-residual) as a central product.

    Each step computes the ideal verdict of the groups it builds and
    insists that it matches the verdict of ctx.alg.
    Returns the reduced group and a step log. Groups without a normal Sylow
    subgroup and an abelian complement are out of scope (InapplicableError):
    with a nonabelian complement the coprime-core quotient genuinely can
    flip the verdict, so nothing is claimed there.
    """
    g, p, syl, comp = ctx.group, ctx.p, ctx.sylow, ctx.complement
    log: list[dict] = []
    if not ctx.sylow_normal:
        raise InapplicableError("reduction needs a normal Sylow subgroup")
    if comp is None:
        raise InapplicableError("reduction needs a complement to the Sylow subgroup")
    if not ctx.flags["complement_abelian"]:
        # the coprime-core equivalence is only claimed for abelian complements
        raise InapplicableError("reduction needs an abelian complement")

    def verdict(gr: FiniteGroup) -> bool:
        d, _ = CenterAlgebra(gr, p).socle_ideal_verdict()
        return d

    v0 = ctx.alg.socle_ideal_verdict()[0]
    pp = g.p_prime_core(p)
    if pp.size > 1:
        qm = g.quotient(pp)
        v1 = verdict(qm.group)
        if v1 != v0:
            raise ConsistencyError(
                "ideal verdict changed under the coprime-core quotient, "
                "which is an equivalence for this shape")
        log.append({"step": "quotient_by_coprime_core",
                    "removed_order": int(pp.size),
                    "order_before": g.order, "order_after": qm.group.order,
                    "verdict_before": v0, "verdict_after": v1})
        g = qm.group
        syl = g.sylow_subgroup(p)
        comp = g.hall_complement(p, sylow=syl)
        if comp is None:
            raise ConsistencyError(
                "complement vanished after the coprime-core quotient")

    resid = g.p_residual(p)
    fixed = g.centralizer(comp, within=syl)
    if int(resid.size) in (1, g.order) or g.mask(resid)[fixed].all():
        log.append({"step": "central_split", "applied": False,
                    "reason": "p-residual already carries the whole question"})
        return g, log

    commute = g.commute(fixed, resid)
    gen = g.subgroup_closure(sorted({int(x) for x in fixed}
                                    | {int(x) for x in resid}))
    covers = int(gen.size) == g.order
    if commute and covers:
        fixed_grp, _ = g.subgroup_as_group(fixed, name=f"{g.name}.fixed")
        core, _ = g.subgroup_as_group(resid, name=f"{g.name}.core")
        vf, vc = verdict(fixed_grp), verdict(core)
        if (vf and vc) != v0:
            raise ConsistencyError(
                "component ideal verdicts do not combine to the full verdict "
                "across the central splitting")
        log.append({"step": "central_split", "applied": True,
                    "fixed_order": fixed_grp.order, "core_order": core.order,
                    "verdict_before": v0, "verdict_fixed": vf,
                    "verdict_core": vc})
        return core, log

    if v0:
        raise ConsistencyError(
            "socle is an ideal but the group is not the central product of "
            "the complement fixed points and the p-residual")
    log.append({"step": "central_split", "applied": False,
                "reason": "group does not split over the p-residual"})
    return g, log
