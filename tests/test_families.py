"""Constructions: orders, invariants, and spec-string errors."""

import numpy as np
import pytest

from soclelab.errors import UnsupportedInputError
from soclelab.families import _prime_power, agl1, gf, parse_family
from soclelab.groups import (FiniteGroup, SemidirectSpec, groups_isomorphic,
                             semidirect_product)


@pytest.mark.parametrize("spec, order", [
    ("cyclic(7)", 7),
    ("abelian(2,2,3)", 12),
    ("elementary(3,2)", 9),
    ("dihedral(6)", 12),
    ("dicyclic(3)", 12),
    ("quaternion(16)", 16),
    ("q8", 8),
    ("sym(4)", 24),
    ("alt(4)", 12),
    ("sl2(3)", 24),
    ("agl(1,8)", 56),
    ("extraspecial(27,+)", 27),
    ("metacyclic(7,3,2)", 21),
    ("heisenberg_affine(3)", 216),
    ("q8q8_diag_c3", 192),
    ("direct(q8,cyclic(3))", 24),
    ("central(q8,q8)", 32),
])
def test_orders(spec, order):
    assert parse_family(spec).order == order


def test_spec_whitespace_and_case():
    assert parse_family(" SL2( 3 ) ").order == 24
    assert parse_family("AGL(1, 4)").order == 12


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_agl_is_frobenius_of_right_shape(q):
    g = parse_family(f"agl(1,{q})")
    assert g.order == q * (q - 1)
    der = g.derived_subgroup()
    assert der.size == q
    assert g.is_frobenius_with_kernel(der)
    # kernel is elementary abelian: every nontrivial element has order p
    orders = {g.element_order(int(x)) for x in der} - {1}
    assert len(orders) == 1


def test_sl23_structure():
    g = parse_family("sl2(3)")
    assert g.order == 24
    assert g.center().size == 2
    syl = g.sylow_subgroup(2)
    q8, _ = g.subgroup_as_group(syl)
    assert groups_isomorphic(q8, parse_family("q8"))
    assert np.array_equal(g.derived_subgroup(), syl)


@pytest.mark.parametrize("spec", ["extraspecial(8,+)", "extraspecial(8,-)",
                                  "extraspecial(27,+)", "extraspecial(27,-)"])
def test_extraspecial_invariants(spec):
    g = parse_family(spec)
    p = 2 if g.order == 8 else 3
    z = g.center()
    assert z.size == p
    assert np.array_equal(z, g.derived_subgroup())
    assert g.is_camina()


def test_extraspecial_plus_minus_differ():
    assert not groups_isomorphic(parse_family("extraspecial(8,+)"),
                                 parse_family("extraspecial(8,-)"))
    assert not groups_isomorphic(parse_family("extraspecial(27,+)"),
                                 parse_family("extraspecial(27,-)"))
    assert groups_isomorphic(parse_family("extraspecial(8,-)"),
                             parse_family("q8"))


def test_metacyclic_nonabelian():
    g = parse_family("metacyclic(13,4,5)")
    assert g.order == 52
    assert not g.is_abelian()
    assert g.derived_subgroup().size == 13


def test_heisenberg_affine_shape():
    # extraspecial 3^3 extended by a fixed-point-free order 8 action
    g = parse_family("heisenberg_affine(3)")
    assert g.order == 216
    der = g.derived_subgroup()
    assert der.size == 27
    assert np.array_equal(g.sylow_subgroup(3), der)


def test_twisted_affine_small():
    g = parse_family("twisted_affine(2,3,1)")
    assert g.order == 448  # 8^2 * 7
    assert g.derived_subgroup().size == 64
    assert g.center().size == 1


def test_q8q8_diag_c3():
    # (Q8 x Q8) x| C3 with the diagonal order-3 action
    g = parse_family("q8q8_diag_c3")
    assert g.order == 192
    assert g.derived_subgroup().size == 64
    assert g.second_derived().size == 4
    assert g.sub_center(g.derived_subgroup()).size == 4


def test_direct_product_nary():
    g = parse_family("direct(cyclic(2),cyclic(3),cyclic(5))")
    assert g.order == 30
    assert g.is_abelian()


def test_central_product_order():
    g = parse_family("central(sl2(3),sl2(3))")
    assert g.order == 288
    assert g.center().size == 2


@pytest.mark.parametrize("bad", [
    "cyclic()",
    "cyclic(0)",
    "cyclic(x)",
    "agl(2,4)",          # only degree 1
    "agl(1,6)",          # 6 is not a prime power
    "sl2(5)",            # only sl2(3)
    "extraspecial(16,+)",
    "nosuchfamily(3)",
    "dihedral(0)",
    "",
])
def test_bad_specs_rejected(bad):
    with pytest.raises(UnsupportedInputError):
        parse_family(bad)


def test_max_order_cap():
    with pytest.raises(UnsupportedInputError):
        parse_family("cyclic(100)", max_order=50)
    with pytest.raises(UnsupportedInputError):
        parse_family("twisted_affine(2,4,1)")  # order 3840 over default cap
    assert parse_family("twisted_affine(2,4,1)", max_order=4000).order == 3840


# -- broadcast constructions against their loop forms ------------------------

def reference_agl1_table(q):
    """AGL(1, q), one cell at a time: (a1, b1)(a2, b2) = (a1 a2, a1 b2 + b1)."""
    field = gf(*_prime_power(q))
    n = (q - 1) * q
    table = np.empty((n, n), dtype=np.int64)
    for a1 in range(1, q):
        for b1 in range(q):
            for a2 in range(1, q):
                for b2 in range(q):
                    table[(a1 - 1) * q + b1, (a2 - 1) * q + b2] = (
                        (int(field.mul[a1, a2]) - 1) * q
                        + int(field.add[field.mul[a1, b2], b1]))
    return table.astype(np.uint16)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_agl1_matches_loop_form(q):
    g = agl1(q)
    want = reference_agl1_table(q)
    assert g.table.dtype == want.dtype and np.array_equal(g.table, want)


def reference_twisted_affine(p, d, k):
    """The kernel table and the action built one row at a time."""
    q = p ** d
    field = gf(p, d)
    pk = p ** (k % d)
    frob = [field.pow(x, pk) for x in range(q)]
    add, mul = field.add, field.mul
    table = np.empty((q * q, q * q), dtype=np.int64)
    for a in range(q):
        for b in range(q):
            for c in range(q):
                tw = int(mul[a, frob[c]])
                table[a * q + b, c * q: c * q + q] = (int(add[a, c]) * q
                                                      + add[add[b, np.arange(q)], tw])
    kernel = FiniteGroup(table)
    g0 = field.primitive_element()
    action = np.empty((q - 1, q * q), dtype=np.int64)
    for h in range(q - 1):
        u = field.pow(g0, h)
        ue = field.pow(u, 1 + pk)
        for a in range(q):
            action[h, a * q: a * q + q] = int(mul[u, a]) * q + mul[ue]
    g, _, _ = semidirect_product(
        SemidirectSpec(kernel=kernel, acting=parse_family(f"cyclic({q - 1})"),
                       action=action))
    return g


@pytest.mark.parametrize("p,d,k", [(2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 3, 2)])
def test_twisted_affine_matches_loop_form(p, d, k):
    got = parse_family(f"twisted_affine({p},{d},{k})").table
    want = reference_twisted_affine(p, d, k).table
    assert got.dtype == want.dtype and np.array_equal(got, want)
