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
algebra and its ideal verdict, and the decomposition of G/G'', computed on
first request. Each check takes the context as its only argument and is
built from named steps that read it. A hypothesis two checks share is
tested in one function: the characterization and the witness both pass
_single_factor, and both read _affine_by_multiplier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import CenterAlgebra
from .errors import ConsistencyError, InapplicableError
from .families import agl1, sl2_3
from .fplin import Subspace, kernel_basis
from .groups import (FiniteGroup, QuotientMap, direct_product, groups_isomorphic,
                     memoized)


# ---------------------------------------------------------------------------
# shape detection and the per-(group, p) context


@dataclass
class AnalysisContext:
    """One (group, p): how close the group comes to the reduced shape
    described above, its center algebra alg, and the memoized outcome of
    the quotient decomposition.

    flags keys:
      derived_is_sylow          G' is a Sylow p-subgroup of G
      complement_abelian        the Sylow subgroup is normal and its
                                coprime complement is abelian
      pprime_core_trivial       the largest normal p'-subgroup is trivial
      derived_center_is_second_derived   Z(G') = G''
    """

    group: FiniteGroup
    p: int
    derived: np.ndarray
    derived_center: np.ndarray      # Z(G')
    sylow: np.ndarray
    sylow_normal: bool
    complement: np.ndarray | None   # None iff the Sylow subgroup is not normal
    flags: dict
    alg: CenterAlgebra
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def reduced(self) -> bool:
        """True when the first three flags hold."""
        f = self.flags
        return bool(f["derived_is_sylow"] and f["complement_abelian"]
                    and f["pprime_core_trivial"])

    @property
    def z_match(self) -> bool:
        return bool(self.flags["derived_center_is_second_derived"])

    @property
    def ideal(self) -> bool:
        """soc(Z(F_pG)) is an ideal: the direct verdict, which the center
        algebra computes once and checks against the criterion."""
        return self.alg.socle_ideal_verdict()[0]

    @memoized
    def derived_camina(self) -> bool:
        """G' as a group of its own is a Camina group."""
        dergrp, _ = self.group.subgroup_as_group(self.derived)
        return dergrp.is_camina()

    @memoized
    def decomposition(self) -> QuotientDecomposition:
        """decompose_second_derived_quotient(self), run on the first request.
        When it fails, every request raises its error."""
        return decompose_second_derived_quotient(self)


def examine_sylow_split(g: FiniteGroup, p: int) -> AnalysisContext:
    der = g.derived_subgroup()
    syl = g.sylow_subgroup(p)
    sylow_normal = g.is_normal(syl)
    complement = g.hall_complement(p) if sylow_normal else None
    if sylow_normal and complement is None:  # Schur-Zassenhaus: one exists
        raise ConsistencyError("no complement to the normal Sylow subgroup")
    zd = g.sub_center(der)
    second = g.second_derived()
    flags = {
        "derived_is_sylow": np.array_equal(der, syl),
        "complement_abelian": complement is not None and g.commute(complement, complement),
        "pprime_core_trivial": bool(g.p_prime_core(p).size == 1),
        "derived_center_is_second_derived": np.array_equal(zd, second),
    }
    return AnalysisContext(group=g, p=p, derived=der, derived_center=zd,
                           sylow=syl, sylow_normal=sylow_normal,
                           complement=complement, flags=flags,
                           alg=CenterAlgebra(g, p))


# ---------------------------------------------------------------------------
# elementary abelian coordinates and element-set helpers


def _elementary_coords(g: FiniteGroup, elems, p: int):
    """Exponent coordinates for an elementary abelian p-subgroup.

    Returns (basis, coord): the greedily chosen basis (smallest elements
    first) and an int64 array with one row per element of g, where coord[x]
    is the exponent vector of x over the basis for x in elems and -1 in
    every entry outside it.

    Precondition: elems is abelian. What is checked is that the products of
    basis powers meet every element of elems exactly once, which a
    nonabelian group of exponent p can pass as well (extraspecial(27,+)).
    """
    dom = g.element_set(elems)
    if dom[0] != 0:
        raise ConsistencyError("coordinate domain must contain the identity")
    inside, basis, cyclic = g.mask(dom), [], []
    # the span is the product of the cyclic groups [b^0, ..., b^(p-1)], so
    # a product's factor positions are its exponents over the basis
    span, rows = dom[:1], np.zeros((1, 0), dtype=np.int64)
    while (rest := dom[~g.mask(span)[dom]]).size:
        x = int(rest[0])
        if g.power(x, p) != 0:
            raise ConsistencyError("coordinate domain is not of exponent p")
        basis.append(x)
        cyclic.append([g.power(x, k) for k in range(p)])
        span, rows, direct = _product(g, cyclic)
        if not inside[span].all() or not direct:
            raise ConsistencyError("coordinate domain is not elementary abelian")
    coord = np.full((g.order, len(basis)), -1, dtype=np.int64)
    coord[span] = rows
    return basis, coord


def _product(g: FiniteGroup, sets) -> tuple[np.ndarray, np.ndarray, bool]:
    """The products s_1 s_2 ... s_m with s_i in sets[i], as (elems, coords,
    direct): elems their sorted element set, coords[r, i] the position in
    sets[i] of the i-th factor of the first product giving elems[r] (the
    last set varies fastest), direct that no product repeats."""
    elems, coords, direct = np.array([0], dtype=np.int64), np.zeros((1, 0), dtype=np.int64), True
    for s in map(np.asarray, sets):
        prod = g.table[elems[:, None], s].ravel()
        # an element's first tuple extends the first tuple of its prefix, so
        # the first products, kept in tuple order, are all the next set needs
        first = np.sort(np.unique(prod, return_index=True)[1])
        direct = direct and first.size == prod.size
        elems = prod[first].astype(np.int64)
        coords = np.column_stack([coords[first // s.size], first % s.size])
    order = np.argsort(elems)
    return elems[order], coords[order], direct


def _orbit(g: FiniteGroup, h: int, x: int) -> np.ndarray:
    """The orbit of x under conjugation by the powers of h, sorted."""
    return g.element_set(g.conj(g.subgroup_closure([h]), x))


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
    for ci in np.flatnonzero(np.bincount(q.class_index_of()[np.atleast_1d(elems)])):
        if ci:
            nc = q.normal_closure([classes[ci][0]])
            seen[nc.tobytes()] = nc
    closures = list(seen.values())
    out = [nc for nc in closures
           if not any(o.size < nc.size and q.mask(nc)[o].all() for o in closures)]
    out.sort(key=lambda a: (a.size, a.tolist()))
    return out


def is_minimal_normal(q: FiniteGroup, elems) -> bool:
    """A nontrivial normal N is minimal iff it is the only inclusion-minimal
    normal closure of its elements."""
    elems = q.element_set(elems)
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
    factor_components  row r: factor_span[r]'s component's position in each factor
    multipliers     per factor: an element of the complement H (as an index
                    into G) whose image generates a cyclic group acting
                    transitively on the nonidentity part of that factor and
                    centralizing every other factor; None when no such
                    element exists
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
    cofactors: list[np.ndarray]
    fixers: list[int | None]
    factor_components: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.factors)


def _averaging_projector(q: FiniteGroup, p: int, basis: list[int],
                         coord: np.ndarray, target: Subspace,
                         actors: list[int]) -> np.ndarray:
    """Projector of the coordinate space onto target commuting with the
    conjugation action of the given (images of) complement elements.

    Vectors act as rows, v -> v @ P. Requires the number of actors to be
    invertible mod p, the actors to be closed under inverses (they are the
    image of a subgroup, so A_h^-1 = A_{h^-1} and nothing is inverted), and
    target to be stable under each actor.
    """
    k = len(basis)
    # plain projector onto target along the non-pivot coordinate axes:
    # e_{pivots[i]} -> target.basis[i], every other axis -> 0
    p0 = np.zeros((k, k), dtype=np.int64)
    p0[list(target.pivots)] = target.basis
    mats = {h: coord[q.conj(h, basis)].reshape(k, k) for h in actors}
    acc = np.zeros((k, k), dtype=np.int64)
    for h in actors:
        acc += mats[h] @ p0 % p @ mats[q.inverse(h)] % p
    proj = acc * pow(len(actors), p - 2, p) % p
    if not np.array_equal(proj @ proj % p, proj):
        raise ConsistencyError("averaged map is not a projector")
    return proj


def _conditional_fail(ctx: AnalysisContext, msg: str):
    """A decomposition fact promised only when the socle is an ideal failed."""
    if ctx.ideal:
        raise ConsistencyError(msg)
    raise InapplicableError(msg + " (and the socle is not an ideal)")


def _splits(q: FiniteGroup, span, central_im, der_im) -> bool:
    """The derived image is the direct product of span and the central image."""
    elems, _, direct = _product(q, [span, central_im])
    return direct and np.array_equal(elems, der_im)


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
    qm = ctx.group.second_derived_quotient()
    q = qm.group
    der_im = q.element_set(qm.proj[ctx.derived])
    central_im = q.element_set(qm.proj[ctx.derived_center])
    if not q.commute(der_im, der_im):
        raise ConsistencyError("derived image in the quotient is not abelian")

    tspan = _factor_span(ctx, qm, _power_preimage(ctx, qm))
    if not _splits(q, tspan, central_im, der_im):
        _conditional_fail(ctx, "derived image does not split over the center image")
    factors = _minimal_normal_inside(q, tspan)
    sizes = math.prod(int(f.size) for f in factors)
    if sizes != int(tspan.size):
        _conditional_fail(
            ctx, "minimal factors of the span are not independent "
            f"({len(factors)} factors, size product {sizes}, span {tspan.size})")
    covered, components, direct = _product(q, factors)
    if not direct:
        raise ConsistencyError("factor product collides")
    if not np.array_equal(covered, tspan):
        raise ConsistencyError("factor product does not cover the span")
    cofactors = [qm.preimage_of_set(_product(q, [*factors[:i], *factors[i + 1:], central_im])[0])
                 for i in range(len(factors))]
    return QuotientDecomposition(
        qmap=qm, quotient=q, derived_image=der_im,
        central_image=central_im, factor_span=tspan, factors=factors,
        multipliers=[_find_multiplier(q, qm, ctx.complement, factors, i)
                     for i in range(len(factors))],
        cofactors=cofactors,
        fixers=[(_cofactor_fixers(ctx, cof) or [None])[0] for cof in cofactors],
        factor_components=components)


def _power_preimage(ctx: AnalysisContext, qm: QuotientMap) -> np.ndarray:
    """The derived elements whose p-th powers fall into the kernel; a
    subgroup only when the derived subgroup has class at most two. Checked
    to be normal and to cover G' together with Z(G')."""
    g, p = ctx.group, ctx.p
    dropped = ctx.derived[qm.proj[g.power(ctx.derived, p)] == 0]
    if not g.is_subgroup(dropped) or not g.is_normal(dropped):
        _conditional_fail(ctx, "p-th power preimage set is not a normal subgroup")
    if not np.array_equal(_product(g, [dropped, ctx.derived_center])[0], ctx.derived):
        _conditional_fail(
            ctx, "derived subgroup is not covered by the p-th power set and the center")
    return dropped


def _factor_span(ctx: AnalysisContext, qm: QuotientMap, dropped) -> np.ndarray:
    """The kernel of the averaging projector onto the image of Z(G') in the
    image of dropped, pulled back to elements; checked to be a normal
    subgroup of Q stable under the complement."""
    g, p, q = ctx.group, ctx.p, qm.group
    mbar = q.element_set(qm.proj[dropped])
    basis, coord = _elementary_coords(q, mbar, p)
    k = len(basis)
    winters = q.element_set(qm.proj[dropped[g.mask(ctx.derived_center)[dropped]]])
    wspace = Subspace(p, k, coord[winters])  # winters lies inside mbar

    actors = sorted({int(qm.proj[int(h)]) for h in ctx.complement})
    proj = _averaging_projector(q, p, basis, coord, wspace, actors)
    tspace = Subspace(p, k, kernel_basis(proj.T, p))
    if tspace.dim + wspace.dim != k or tspace.intersect(wspace).dim != 0:
        raise ConsistencyError("projector kernel does not complement the center image")

    # coord is a bijection from mbar onto F_p^k: the span is the kernel's preimage
    tspan = mbar[~(coord[mbar] @ proj % p).any(axis=1)]
    if not q.is_subgroup(tspan) or not q.is_normal(tspan):
        raise ConsistencyError("factor span is not a normal subgroup")
    if not q.mask(tspan)[q.conj(np.asarray(actors)[:, None], tspan)].all():
        raise ConsistencyError("factor span is not stable under the complement")
    return tspan


def _multiplies(q: FiniteGroup, qm: QuotientMap, h: int,
                factors: list[np.ndarray], i: int) -> bool:
    """The image of h cycles the nonidentity part of factor i and
    centralizes every other factor."""
    hb, nontriv = int(qm.proj[h]), factors[i][1:]  # a factor starts at 0
    return (nontriv.size > 0 and np.array_equal(_orbit(q, hb, nontriv[0]), nontriv)
            and all(q.commute(other, hb) for j, other in enumerate(factors) if j != i))


def _find_multiplier(q: FiniteGroup, qm: QuotientMap, comp,
                     factors: list[np.ndarray], i: int) -> int | None:
    """Smallest nontrivial complement element that multiplies factor i."""
    return next((h for h in comp[1:].tolist() if _multiplies(q, qm, h, factors, i)), None)


def _cofactor_fixers(ctx: AnalysisContext, cofactor: np.ndarray) -> list[int]:
    """The nontrivial complement elements centralizing the cofactor, ascending."""
    cent = ctx.group.centralizer(cofactor, within=ctx.complement)
    return cent[cent != 0].tolist()


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
    q, qm = dec.quotient, dec.qmap
    qcls, qclasses = q.class_index_of(), q.conjugacy_classes()
    checks = {
        "derived_image_splits": _splits(q, dec.factor_span, dec.central_image,
                                        dec.derived_image),
        "factors_minimal_normal": all(is_minimal_normal(q, f) for f in dec.factors),
        "factor_sizes_at_least_three": all(int(f.size) >= 3 for f in dec.factors),
        **_multiplier_checks(ctx, dec),
        "cofactor_fixers_exist": all(h is not None for h in dec.fixers),
    }
    checks["fixer_class_is_factor_translate"] = checks["cofactor_fixers_exist"] and all(
        np.array_equal(np.sort(q.table[f, hb]), qclasses[int(qcls[hb])])
        for f, hb in zip(dec.factors, (int(qm.proj[h]) for h in dec.fixers)))
    # the factors an element has a nontrivial component in (position 0 is
    # the identity) name its class, one to one
    cls = qcls[dec.factor_span].astype(np.int64)
    pattern = (dec.factor_components != 0) @ (1 << np.arange(dec.n))
    distinct = [np.unique(a, return_counts=True)[1].size
                for a in (cls << dec.n | pattern, cls, pattern)]
    checks["support_pattern_matches_conjugacy"] = len(set(distinct)) == 1
    return _verified(checks, "quotient decomposition")


def _multiplier_checks(ctx: AnalysisContext, dec: QuotientDecomposition) -> dict:
    """The multipliers act as promised; with the pointwise stabilizer of
    the span they generate H, and each multiplier generates the quotient of
    H by the stabilizer of its factor: with that stabilizer it generates H,
    which is abelian. All False when a multiplier is missing."""
    names = ("multipliers_exist", "multipliers_act_as_promised",
             "complement_generated", "multiplier_spans_action_quotient")
    if any(m is None for m in dec.multipliers):
        return dict.fromkeys(names, False)
    g, q, qm, comp = ctx.group, dec.quotient, dec.qmap, ctx.complement
    images = qm.proj[comp]

    def generates_with_stabilizer(ms, elems) -> bool:
        """ms and the complement elements whose image centralizes elems
        generate H."""
        stab = comp[q.mask(q.centralizer(elems, within=images))[images]]
        return np.array_equal(g.subgroup_closure(np.append(stab, ms)), comp)

    return dict(zip(names, (
        True,
        all(_multiplies(q, qm, m, dec.factors, i) for i, m in enumerate(dec.multipliers)),
        generates_with_stabilizer(dec.multipliers, dec.factor_span),
        all(generates_with_stabilizer(m, f) for m, f in zip(dec.multipliers, dec.factors)))))


# ---------------------------------------------------------------------------
# the ideal characterization


@memoized
def _matches_affine_model(q: FiniteGroup, sizes: tuple[int, ...]) -> tuple[bool, str]:
    """Is q the direct product of the affine groups AGL(1, s), s in sizes?
    Returns (match, method): decided by order when the orders differ or
    sizes is empty, else by the exact isomorphism search.
    q is the memoized G/G'', so the answer is memoized on it."""
    if q.order != math.prod(s * (s - 1) for s in sizes):
        return False, "order"
    if not sizes:  # the empty product, and q, are the trivial group
        return True, "order"
    model = agl1(sizes[0])
    for s in sizes[1:]:
        model = direct_product(model, agl1(s))
    return groups_isomorphic(q, model), "isomorphism"


@memoized
def _single_factor(ctx: AnalysisContext) -> QuotientDecomposition:
    """The hypotheses the characterization and the witness share: the
    reduced shape (through the decomposition), Z(G') = G'', and a nontrivial
    derived image that is a minimal normal subgroup of G/G'', and with it
    the only factor of the decomposition."""
    dec = ctx.decomposition()  # raises unless the shape is reduced
    if not ctx.z_match:
        raise InapplicableError(
            "center of the derived subgroup is not the second derived subgroup")
    der_im = dec.derived_image
    if der_im.size <= 1:
        raise InapplicableError("derived subgroup is trivial")
    if not is_minimal_normal(dec.quotient, der_im):
        raise InapplicableError(
            "derived image is not a minimal normal subgroup of the quotient")
    if dec.n != 1 or not np.array_equal(dec.factors[0], der_im):
        raise ConsistencyError(
            "decomposition does not consist of the derived image alone")
    return dec


def _affine_by_multiplier(ctx: AnalysisContext, dec: QuotientDecomposition) -> bool:
    """The generator-search recognition of the affine model on a single
    factor Q': a complement element cycles Q' minus 1, and |H| = |Q'| - 1."""
    return (dec.multipliers[0] is not None
            and len(ctx.complement) == int(dec.factors[0].size) - 1)


def characterize_socle_ideal(ctx: AnalysisContext) -> dict:
    """Decide the ideal question from group structure and verify the answer
    against the direct computation. Disagreement raises ConsistencyError.

    Applies when the group has the reduced shape, Z(G') = G'', and the image
    of G' is a minimal normal subgroup of G/G''. Returns the report entry:
      affine_match     Q = G/G'' is the one dimensional affine group of the
                       field with |Q'| elements
      affine_method    how affine_match was decided: "order" or "isomorphism"
      has_fixer        some nontrivial complement element centralizes G''
      derived_camina   G' is a Camina group
      predicted        conjunction of the three conditions
      direct           the computed ideal verdict
      witness          build_nonideal_witness without its vector, when one
                       was built
      notes            remarks, such as why no witness was built
    """
    dec = _single_factor(ctx)
    g, p = ctx.group, ctx.p
    structural = _affine_by_multiplier(ctx, dec)
    affine, method = _matches_affine_model(dec.quotient, (int(dec.derived_image.size),))
    if affine != structural:
        raise ConsistencyError(
            f"affine recognition routes disagree: model comparison {affine}, "
            f"transitive generator search {structural}")

    has_fixer = dec.fixers[0] is not None
    camina = ctx.derived_camina()
    predicted = bool(affine and has_fixer and camina)
    direct = ctx.ideal
    if predicted != direct:
        raise ConsistencyError(
            f"structural prediction {predicted} contradicts the computed "
            f"verdict {direct} on {g.name} at p={p}")
    if p % 2 == 1 and affine and not has_fixer:
        raise ConsistencyError(
            "odd characteristic with an affine quotient forces a nontrivial "
            "centralizer of the second derived subgroup")

    notes: list[str] = []
    witness = None
    if direct and g.center().size > 1:
        if g.order != 24 or not groups_isomorphic(g, sl2_3()):
            raise ConsistencyError(
                "nontrivial center outside the one known exceptional group")
        notes.append("nontrivial center, exceptional order 24 group")
    if not direct:
        try:
            witness = build_nonideal_witness(ctx)
            del witness["vector"]
        except InapplicableError as e:
            notes.append(f"witness construction inapplicable: {e}")

    return {"affine_match": affine, "affine_method": method,
            "has_fixer": has_fixer, "derived_camina": camina,
            "predicted": predicted, "direct": direct, "witness": witness,
            "notes": notes}


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
    cls = g.conjugacy_classes()[int(g.class_index_of()[int(h)])]
    u_set = np.sort(g.table[cls, g.inverse(int(h))].astype(np.int64))
    if 0 not in u_set or not g.mask(ctx.derived)[u_set].all():
        raise ConsistencyError("fixer class is not a derived-subgroup translate")
    if int(u_set.size) != int(dec.factors[i].size):
        raise ConsistencyError("fixer class size does not match its factor")
    outside = u_set[~g.mask(g.second_derived())[u_set]]
    if outside.size == 0:
        raise ConsistencyError("translate set collapses into G''")
    seed = int(outside[0])
    e = dec.multipliers[i]
    if e is not None:
        if not np.array_equal(np.append(0, _orbit(g, int(e), seed)), u_set):
            raise ConsistencyError(
                "translate set is not one multiplier orbit plus the identity")
    return u_set, seed


def build_nonideal_witness(ctx: AnalysisContext) -> dict:
    """Construct a central element that annihilates the radical yet has
    support outside the G'-coset span: direct proof that soc(ZFG) is not
    an ideal of FG.

    Requires the hypotheses of characterize_socle_ideal, with their
    messages; then an affine quotient and a fixer, both missing conditions
    named in one InapplicableError; then a trivial group center and a
    proper commutator core inside G''. Every claimed property of the
    witness is verified before returning.
    """
    dec = _single_factor(ctx)
    missing = []
    if not _affine_by_multiplier(ctx, dec):
        missing.append("quotient is not the affine model")
    if dec.fixers[0] is None:
        missing.append("no complement element centralizes G''")
    if missing:
        raise InapplicableError("; ".join(missing))
    g, p, alg = ctx.group, ctx.p, ctx.alg
    if g.center().size > 1:
        raise InapplicableError("witness needs a trivial group center")

    second = g.second_derived()
    _, g1 = _factor_seed(ctx, 0)
    e1 = int(dec.multipliers[0])
    core = _commutator_core(ctx, g1, e1)
    basis, alpha, avec, support = _witness_vector(ctx, g1, core)

    yc = alg.restrict(avec)
    if alg.multiply(yc, alg.jacobson_radical().basis).any():
        raise ConsistencyError("witness fails to annihilate the radical")
    if not alg.socle().contains_vector(yc):
        raise ConsistencyError("witness lies outside the socle")
    if alg.lies_in_derived_coset_span(yc):
        raise ConsistencyError("witness coefficients are constant on G'-cosets")

    return {
        "seed": int(g1),
        "multiplier": e1,
        "fixer": int(dec.fixers[0]),
        "kernel_functional": {
            "generators": [int(b) for b in basis],
            "values": [int(v) for v in alpha],
        },
        "commutator_core_order": int(core.size),
        "second_derived_order": int(second.size),
        "support_classes": support.tolist(),
        "nonzero_coefficients": int(np.count_nonzero(avec)),
        "vector": [int(v) for v in avec],
        "checks": {
            "central": True,
            "annihilates_radical": True,
            "in_socle": True,
            "outside_derived_coset_span": True,
        },
    }


def _commutator_core(ctx: AnalysisContext, g1: int, e1: int) -> np.ndarray:
    """[G', g1], checked to be a subgroup of G'' that the multiplier e1
    generates as well, and to be the shift of the class of g1 inside its
    G''-coset. It fills G'' iff G' is Camina, and then no functional
    vanishes on it (InapplicableError)."""
    g = ctx.group
    second = g.second_derived()
    core = g.element_set(g.commutator(ctx.derived, g1))
    if not g.is_subgroup(core) or not g.mask(second)[core].all():
        raise ConsistencyError("commutator core is not a subgroup of G''")
    # e1 cycles the |Q'| - 1 = |H| nontrivial elements of Q', so it generates
    # H, and the conjugates of g1 under H are its <e1>-orbit
    alt = g.subgroup_closure(g.commutator(_orbit(g, e1, g1), g1))
    if not np.array_equal(alt, core):
        raise ConsistencyError("commutator core has two inequivalent descriptions")

    g1_class = g.conjugacy_classes()[int(g.class_index_of()[g1])]
    meet = g1_class[g.mask(g.table[g1, second])[g1_class]]
    if not np.array_equal(meet, g.element_set(g.table[core, g1])):
        raise ConsistencyError(
            "class meets the G''-coset of the seed in more than the core translate")

    fills = int(core.size) == int(second.size)
    if fills != ctx.derived_camina():
        raise ConsistencyError("commutator core fills G'' iff G' is Camina, violated")
    if fills:
        raise InapplicableError(
            "commutator core fills G'', no functional vanishes on it")
    return core


def _witness_vector(ctx: AnalysisContext, g1: int, core: np.ndarray):
    """A functional alpha on G'' vanishing on the core, and the coefficient
    vector over G that puts alpha(u) on the class of g1 u for u in G'',
    checked to be constant on each class. Returns the coordinate basis of
    G'', alpha, the vector and the classes where it is nonzero."""
    g, p = ctx.group, ctx.p
    second = g.second_derived()
    basis, coord = _elementary_coords(g, second, p)
    func_rows = Subspace(p, len(basis), kernel_basis(coord[core], p)).basis
    if func_rows.shape[0] == 0:
        raise ConsistencyError("no functional vanishes on a proper core")
    alpha = func_rows[0]
    cids, vals = g.class_index_of()[g.table[g1, second]], coord[second] @ alpha % p
    values = ctx.alg.zero()
    values[cids] = vals
    if not np.array_equal(values[cids], vals):
        raise ConsistencyError("coefficient is not constant on a class")
    support = np.flatnonzero(values)
    if not support.size:
        raise ConsistencyError("functional vanishes on every coset coefficient")
    return basis, alpha, values[g.class_index_of()], support


# ---------------------------------------------------------------------------
# central product splitting


def split_into_central_factors(ctx: AnalysisContext) -> dict:
    """Split G into a central product of pairwise commuting subgroups, one
    per minimal factor, each generated by one p-element (its seed) and one
    multiplier; then verify every promised property of the pieces.

    Applies when the group has the reduced shape, Z(G') = G'', and the
    socle is an ideal; under those hypotheses a failed verification is a
    ConsistencyError. Returns the report entry: seeds, multipliers, the
    component orders and model_method, how the affine model was matched:
    "order" or "isomorphism".
    """
    dec = ctx.decomposition()  # raises unless the shape is reduced
    g = ctx.group
    if not ctx.z_match:
        raise InapplicableError(
            "central splitting needs the reduced shape with Z(G') = G''")
    if not ctx.ideal:
        raise InapplicableError("central splitting needs the socle to be an ideal")
    if any(m is None for m in dec.multipliers) or any(h is None for h in dec.fixers):
        raise ConsistencyError(
            "multiplier or fixer missing although the socle is an ideal")

    seeded = [_factor_seed(ctx, i) for i in range(dec.n)]
    seeds = [s for _, s in seeded]
    parts = [g.subgroup_closure([s, int(e)]) for s, e in zip(seeds, dec.multipliers)]
    part_groups = [g.subgroup_as_group(elems, name=f"{g.name}.part{i}")[0]
                   for i, elems in enumerate(parts)]

    affine, method = _matches_affine_model(dec.quotient,
                                           tuple(int(f.size) for f in dec.factors))
    pres = [dec.qmap.preimage_of_set(f) for f in dec.factors]
    _verified({
        **_component_checks(ctx, part_groups, parts),
        **_seed_checks(ctx, dec, seeds),
        "components_commute_pairwise": _pairwise(g.commute, parts),
        "components_generate": g.subgroup_closure(np.concatenate([[0], *parts])).size == g.order,
        "derived_covered_by_translates": np.array_equal(
            _product(g, [g.second_derived()] + [u for u, _ in seeded])[0], ctx.derived),
        **_split_multiplier_checks(ctx, dec),
        "quotient_is_affine_product": affine,
        "factor_preimages_commute": _pairwise(g.commute, pres),
    }, "central splitting")
    return {"seeds": [int(s) for s in seeds],
            "multipliers": [int(e) for e in dec.multipliers],
            "component_orders": [grp.order for grp in part_groups],
            "model_method": method}


def _pairwise(pred, items) -> bool:
    """pred(a, b) for every pair a before b of items."""
    return all(pred(a, b) for i, a in enumerate(items) for b in items[i + 1:])


def _component_checks(ctx: AnalysisContext, part_groups: list[FiniteGroup],
                      parts: list[np.ndarray]) -> dict:
    """Each component has the reduced shape's invariants and an ideal
    socle, and its G'' is the part of G'' inside it."""
    g, p = ctx.group, ctx.p
    subs = [examine_sylow_split(cg, p) for cg in part_groups]
    second = g.mask(g.second_derived())

    def derived_image_minimal(cg: FiniteGroup) -> bool:
        qi = cg.second_derived_quotient()
        der_im = qi.group.element_set(qi.proj[cg.derived_subgroup()])
        return der_im.size > 1 and is_minimal_normal(qi.group, der_im)

    return {
        "component_socle_ideal": all(all(s.alg.socle_ideal_verdict()) for s in subs),
        "component_sylow_is_derived": all(s.flags["derived_is_sylow"] for s in subs),
        "component_center_match": all(s.z_match for s in subs),
        "component_derived_image_minimal": all(map(derived_image_minimal, part_groups)),
        "component_second_derived": all(
            np.array_equal(emb[cg.second_derived()], emb[second[emb]])
            for cg, emb in zip(part_groups, parts)),
    }


def _seed_checks(ctx: AnalysisContext, dec: QuotientDecomposition,
                 seeds: list[int]) -> dict:
    """Each seed's class holds its inverse and its commutators with the
    powers of its multiplier, and is the same for every fixer choice; each
    seed commutes with the other multipliers."""
    g = ctx.group
    cls_of, second = g.class_index_of(), g.mask(g.second_derived())

    def seed_class_from(i: int, s: int, h: int) -> bool:
        """The translates outside G'' of fixer h's class lie in the class of s."""
        u_h, _ = _factor_seed(ctx, i, fixer=h)
        return bool((cls_of[u_h[~second[u_h]]] == cls_of[s]).all())

    mults = [int(e) for e in dec.multipliers]
    return {
        "seed_conjugate_to_inverse": all(
            cls_of[g.inverse(s)] == cls_of[s] for s in seeds),
        "seed_conjugate_to_multiplier_commutators": all(
            cls_of[g.commutator(g.power(e, k), s)] == cls_of[s]
            for s, e, f in zip(seeds, mults, dec.factors) for k in range(1, f.size - 1)),
        "seed_commutes_with_other_multipliers": all(
            g.commutator(s, e) == 0
            for i, s in enumerate(seeds) for j, e in enumerate(mults) if j != i),
        "seed_class_independent_of_fixer_choice": all(
            seed_class_from(i, s, h) for i, s in enumerate(seeds)
            for h in _cofactor_fixers(ctx, dec.cofactors[i])),
    }


def _split_multiplier_checks(ctx: AnalysisContext, dec: QuotientDecomposition) -> dict:
    """Multiplier i has order |factor i| - 1, and H is the direct product of
    the cyclic groups the multipliers generate."""
    g, comp = ctx.group, ctx.complement
    mults = [int(e) for e in dec.multipliers]
    cyc = [g.subgroup_closure([e]) for e in mults]
    return {
        "multiplier_orders": all(g.element_order(e) == int(f.size) - 1
                                 for e, f in zip(mults, dec.factors)),
        "multipliers_generate_complement": np.array_equal(g.subgroup_closure(mults), comp),
        "multiplier_order_product": (
            math.prod(int(f.size) - 1 for f in dec.factors) == len(comp)),
        "multiplier_subgroups_independent": _pairwise(
            lambda a, b: np.count_nonzero(g.mask(a)[b]) == 1, cyc),
    }


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
    if not ctx.ideal:
        raise InapplicableError("annihilator reduction needs the socle to be an ideal")

    qm = dec.qmap
    qalg = alg.second_derived_quotient_algebra()
    image_ids = sorted({int(qalg.cls_of[qm.proj[alg.reps[ci]]])
                        for ci in alg.surviving_pprime_classes()})
    ann = qalg.annihilator([qalg.radical_vec(ci) for ci in image_ids])

    central = dec.quotient.mask(dec.central_image)
    mvecs = [qalg.radical_vec(ci) for ci in range(1, qalg.k)
             if central[qalg.classes[ci]].all()]
    mvecs += [qalg.subset_sum_vec(f) for f in dec.factors]
    checks = _verified({
        "annihilator_in_derived_coset_span": qalg.lies_in_derived_coset_span(ann.basis),
        "generator_sets_match": qalg.annihilator(mvecs) == ann,
    }, "annihilator reduction")
    return {**checks, "annihilator_dim": ann.dim,
            "surviving_image_classes": image_ids}


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
    if not ctx.sylow_normal:
        raise InapplicableError("reduction needs a normal Sylow subgroup")
    if not ctx.flags["complement_abelian"]:
        # the coprime-core equivalence is only claimed for abelian complements
        raise InapplicableError("reduction needs an abelian complement")
    g, p, syl, comp = ctx.group, ctx.p, ctx.sylow, ctx.complement
    log: list[dict] = []
    v0 = ctx.ideal
    pp = g.p_prime_core(p)
    if pp.size > 1:
        qm = g.quotient(pp)
        v1 = _ideal_verdict(qm.group, p)
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
        comp = g.hall_complement(p)
        if comp is None:
            raise ConsistencyError(
                "complement vanished after the coprime-core quotient")
    return _split_off_fixed_points(g, p, syl, comp, v0, log)


def _ideal_verdict(gr: FiniteGroup, p: int) -> bool:
    return CenterAlgebra(gr, p).socle_ideal_verdict()[0]


def _split_off_fixed_points(g: FiniteGroup, p: int, syl, comp, v0: bool,
                            log: list[dict]) -> tuple[FiniteGroup, list[dict]]:
    """Drop the complement fixed points of the Sylow subgroup when g is
    their central product with the p-residual; the component verdicts must
    combine to the full verdict v0."""
    resid = g.p_residual(p)
    fixed = g.centralizer(comp, within=syl)
    if int(resid.size) in (1, g.order) or g.mask(resid)[fixed].all():
        log.append({"step": "central_split", "applied": False,
                    "reason": "p-residual already carries the whole question"})
        return g, log

    commute = g.commute(fixed, resid)
    gen = g.subgroup_closure(np.concatenate([fixed, resid]))
    if commute and gen.size == g.order:
        fixed_grp, _ = g.subgroup_as_group(fixed, name=f"{g.name}.fixed")
        core, _ = g.subgroup_as_group(resid, name=f"{g.name}.core")
        vf, vc = _ideal_verdict(fixed_grp, p), _ideal_verdict(core, p)
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
