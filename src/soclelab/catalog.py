"""Built-in scan catalog.

A fixed list of family descriptors spanning the shapes the analyses care
about: abelian controls, dihedral and dicyclic 2-groups, extraspecial
groups at both exponents, the one dimensional affine groups over small
fields, the classical order-24 exception, Frobenius metacyclics, central
and direct products, and two larger groups with second derived subgroup
in play. Orders stay at or below 288 so a full scan over every dividing
prime stays cheap.
"""

from .families import parse_family

CATALOG_SPECS: tuple[str, ...] = (
    "cyclic(2)",
    "cyclic(4)",
    "cyclic(6)",
    "cyclic(12)",
    "elementary(2,3)",
    "abelian(2,4)",
    "elementary(3,2)",
    "abelian(3,9)",
    "dihedral(3)",
    "dihedral(4)",
    "dihedral(5)",
    "dihedral(6)",
    "dicyclic(3)",
    "dicyclic(5)",
    "quaternion(16)",
    "Q8",
    "extraspecial(8,+)",
    "extraspecial(27,+)",
    "extraspecial(27,-)",
    "AGL(1,3)",
    "AGL(1,4)",
    "AGL(1,5)",
    "AGL(1,7)",
    "AGL(1,8)",
    "AGL(1,9)",
    "AGL(1,11)",
    "AGL(1,13)",
    "AGL(1,16)",
    "SL2(3)",
    "sym(4)",
    "alt(5)",
    "metacyclic(7,3,2)",
    "metacyclic(13,4,5)",
    "metacyclic(11,5,3)",
    "heisenberg_affine(3)",
    "q8q8_diag_c3",
    "central(SL2(3),SL2(3))",
    "central(Q8,Q8)",
    "central(SL2(3),Q8)",
    "direct(SL2(3),cyclic(3))",
    "direct(SL2(3),cyclic(5))",
    "direct(SL2(3),cyclic(7))",
    "direct(AGL(1,4),cyclic(3))",
    "direct(AGL(1,4),cyclic(5))",
    "direct(AGL(1,4),cyclic(7))",
)


def catalog_groups():
    """Yield (descriptor, group) for every catalog entry; their orders are
    at most 288."""
    for spec in CATALOG_SPECS:
        yield spec, parse_family(spec)
