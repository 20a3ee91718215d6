"""Constructions: orders, invariants, and spec-string errors."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soclelab import cli, families
from soclelab.errors import UnsupportedInputError
from soclelab.families import (GF, _heisenberg3, _heisenberg3_automorphism,
                               _prime_power, agl1, dicyclic, dihedral, gf,
                               parse_family, sl2_3)
from soclelab.formats import build_group, parse_group_text
from soclelab.groups import FiniteGroup, groups_isomorphic, semidirect_product


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
    assert g.center().size < g.order
    assert g.derived_subgroup().size == 13


def test_heisenberg_affine_shape():
    # extraspecial 3^3 extended by a fixed-point-free order 8 action
    g = parse_family("heisenberg_affine(3)")
    assert g.order == 216
    der = g.derived_subgroup()
    assert der.size == 27
    assert np.array_equal(g.sylow_subgroup(3), der)


def test_heisenberg_automorphism_by_formula():
    """theta is an automorphism of order 8 that moves every non-central
    coset of the center: the two properties the former search checked."""
    h, theta = _heisenberg3(), _heisenberg3_automorphism()
    assert sorted(theta) == list(range(27))
    assert np.array_equal(theta[h.table], h.table[np.ix_(theta, theta)])
    power, order = theta, 1
    while not np.array_equal(power, np.arange(27)):
        power, order = theta[power], order + 1
    assert order == 8
    central = h.mask(h.center())
    assert all(not central[h.mul(int(theta[x]), h.inverse(x))]
               for x in range(27) if not central[x])


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
    assert g.center().size == g.order


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
    f"elementary(2,{-10 ** 30})",  # 2^d underflows to 0, and [2] * d overflowed
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


@pytest.mark.parametrize("spec,key", [("dihedral(3000)", "dihedral"),
                                      ("cyclic(1000000000)", "cyclic"),
                                      ("abelian(1000,1000)", "abelian"),
                                      ("agl(1,1024)", "agl"), ("sl2(13)", "sl2")])
def test_cap_is_checked_before_construction(spec, key, monkeypatch):
    arity, order, _ = families._INT_FAMILIES[key]

    def fail(*args):
        raise AssertionError(f"{key}{args} built before the cap check")

    monkeypatch.setitem(families._INT_FAMILIES, key, (arity, order, fail))
    with pytest.raises(UnsupportedInputError, match="exceeds the cap 2000"):
        parse_family(spec)


def test_symmetric_degree_follows_the_callers_cap():
    with pytest.raises(UnsupportedInputError, match="order 5040 exceeds the cap 4000"):
        parse_family("sym(7)", max_order=4000)
    assert parse_family("sym(7)", max_order=6000).order == 5040
    assert parse_family("alt(7)", max_order=4000).order == 2520


@pytest.mark.parametrize("spec", ["sym(2000)", "elementary(3,10000)",
                                  "twisted_affine(2,5000,1)"])
def test_huge_order_is_refused_without_printing_it(spec):
    # each order has more than 4300 digits, which str() refuses
    with pytest.raises(UnsupportedInputError, match=r"order above 10\^30 exceeds the cap 2000"):
        parse_family(spec)


@pytest.mark.parametrize("spec", ["sym(1000000)", "alt(1000000)",
                                  f"elementary(3,{10 ** 100})",
                                  f"twisted_affine(2,{10 ** 100},1)"])
def test_absurd_arguments_exit_3_at_once(spec, capsys):
    # the exact orders would take seconds (10^6!) or never finish (3^(10^100))
    start = time.perf_counter()
    assert cli.run(["analyze", spec]) == 3
    assert time.perf_counter() - start < 1.0
    assert "order above 10^30 exceeds the cap 2000" in capsys.readouterr().err


@pytest.mark.parametrize("spec, message", [
    (f"elementary(1,{10 ** 20})", "invalid invariant list"),
    (f"elementary(0,{10 ** 20})", "invalid invariant list"),
    (f"elementary(-2,{10 ** 20 + 1})", "invalid invariant list"),
    ("elementary(1,5)", "invalid invariant list"),
    (f"twisted_affine(-2,{10 ** 20 + 1},1)", "needs p >= 2"),
    ("twisted_affine(-2,3,1)", "needs p >= 2"),
    ("elementary(0,-1)", "invalid invariant list"),
    ("twisted_affine(0,-1,1)", "needs p >= 2")])
def test_base_below_2_is_refused_at_once(spec, message, capsys):
    # 1^d, 0^d and (-2)^odd all pass the cap; [p] * 10^20 overflows,
    # (-2)^(10^20 + 1) never finishes, and 0^-1 divides by zero
    start = time.perf_counter()
    assert cli.run(["analyze", spec]) == 3
    assert time.perf_counter() - start < 1.0
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("p, d, limit", [(2, 10, 2000), (3, 10 ** 100, 10 ** 30),
                                         (-2, 10 ** 9 + 1, 2000), (-2, 10 ** 9, 2000),
                                         (1, 10 ** 100, 2000), (-1, 10 ** 9 + 1, 2000),
                                         (0, 10 ** 9, 2000), (2, -1, 2000)])
def test_capped_power_keeps_sign_and_passes_the_limit(p, d, limit):
    got = families._capped_pow(p, d, limit)
    if abs(p) <= 1 or d <= 64:
        assert got == p ** d
    else:
        assert abs(got) > limit and (got < 0) == (p < 0 and d % 2 == 1)


GRID_VALUES = [-3, -1, 0, 1, 2, 3, 4, 5, 8, 9, 1000]
GRID_ARITIES = {name: [1, 2, 3] if arity is None else [arity]
                for name, (arity, _, _) in families._INT_FAMILIES.items()}
GRID_ARITIES["extraspecial"] = [2]  # a branch of its own: its type is a string


@pytest.mark.parametrize("name", list(GRID_ARITIES))
def test_every_argument_tuple_builds_or_is_refused(name):
    escapes = []
    for r in GRID_ARITIES[name]:
        for args in itertools.product(GRID_VALUES, repeat=r):
            spec = f"{name}({','.join(map(str, args))})"
            try:
                g = parse_family(spec, max_order=300)
            except UnsupportedInputError:
                continue
            except Exception as ex:  # every escape is collected, not only the first
                escapes.append(f"{spec}: {type(ex).__name__}: {ex}")
                continue
            if not (isinstance(g, FiniteGroup) and g.order <= 300):
                escapes.append(f"{spec}: built {g!r}")
    assert not escapes, escapes[:5]


# -- nested family specs, generated from the grammar -------------------------

# mostly small integers, some out of range, huge or not integers at all
FUZZ_ARG = st.one_of(*[st.integers(1, 9).map(str)] * 6, st.integers(-4, 0).map(str),
                     st.sampled_from([16, 27, 289, 2 ** 63, 10 ** 30, -10 ** 30, 10 ** 100,
                                      "", " ", "x", "1.5"]).map(str))


def fuzz_call(draw, name, arg, count):
    """name(args): count arguments drawn from arg four times in six, one
    more or one fewer otherwise; the name in upper case one time in four."""
    n = max(0, count + draw(st.sampled_from([0, 0, 0, 0, 1, -1])))
    name = draw(st.sampled_from([name] * 3 + [name.upper()]))
    return f"{name}({','.join(draw(arg) for _ in range(n))})"


@pytest.fixture(scope="module")
def sdp_paths(tmp_path_factory):
    """Files for sdp(...): C_3, C_2 and the inversion action, then a
    non-automorphism and a missing file."""
    d = tmp_path_factory.mktemp("sdp")
    texts = {"k.cay": "cayley 3\n0 1 2\n1 2 0\n2 0 1\n", "h.cay": "cayley 2\n0 1\n1 0\n",
             "act.txt": "action\n0 1 2\n0 2 1\n", "bad.txt": "action\n0 1 2\n1 2 0\n"}
    for name, text in texts.items():
        (d / name).write_text(text)
    return [str(d / name) for name in [*texts, "missing.cay"]]


@st.composite
def nested_specs(draw, paths):
    """Every integer family, extraspecial and sdp, nested in direct and
    central; in one spec of five, a "(" or ")" is added or a character cut."""

    @st.composite
    def leaf(draw):
        name = draw(st.sampled_from([*families._INT_FAMILIES, "extraspecial", "sdp"]))
        if name == "extraspecial":
            order = draw(st.sampled_from(["8", "27", "16", "x", ""]))
            kind = draw(st.sampled_from(["+", "-", "exp_p", "exp_p2", "quaternion", "", "8"]))
            return f"{name}({order},{kind})" if draw(st.integers(0, 5)) else f"{name}({kind})"
        if name == "sdp":
            if draw(st.integers(0, 2)):
                return f"sdp({','.join(paths[:3])})"
            return fuzz_call(draw, name, st.sampled_from(paths), 3)
        arity = families._INT_FAMILIES[name][0]
        if arity == 0 and draw(st.booleans()):
            return name
        return fuzz_call(draw, name, FUZZ_ARG, draw(st.integers(1, 3)) if arity is None else arity)

    @st.composite
    def product(draw, inner):
        name = draw(st.sampled_from(["direct", "central", "direct_product", "central_product"]))
        return fuzz_call(draw, name, inner, 2 + (name[0] == "d" and draw(st.booleans())))

    spec = draw(st.one_of(leaf(), st.recursive(leaf(), product, max_leaves=4)))
    at = draw(st.integers(0, len(spec)))
    cut, insert = draw(st.sampled_from([(0, "")] * 12 + [(0, "("), (0, ")"), (1, "")]))
    return spec[:at] + insert + spec[at + cut:]


@settings(derandomize=True, max_examples=180, deadline=None, database=None)
@given(data=st.data())
def test_nested_specs_build_or_are_refused(sdp_paths, data):
    """Every generated spec ends in a group within the cap or an
    UnsupportedInputError, and nothing else."""
    spec = data.draw(nested_specs(sdp_paths))
    try:
        g, _ = build_group(spec, max_order=300)
    except UnsupportedInputError:
        return
    assert isinstance(g, FiniteGroup) and g.order <= 300, spec


def test_capped_factorial_is_exact_up_to_the_limit():
    for n in range(-1, 40):
        exact = math.factorial(max(n, 0))
        got = families._capped_factorial(n, 10 ** 30)
        assert got == exact if exact <= 10 ** 30 else got > 10 ** 30


def test_twisted_affine_follows_the_callers_cap(monkeypatch):
    # twisted_affine(2,5,1) has order 32^2 * 31 = 31,744 and a 2 GB table:
    # it is never built here
    with pytest.raises(UnsupportedInputError, match="order 31744 exceeds the cap 31743"):
        parse_family("twisted_affine(2,5,1)", max_order=31743)
    arity, order, _ = families._INT_FAMILIES["twisted_affine"]
    built = []
    monkeypatch.setitem(families._INT_FAMILIES, "twisted_affine",
                        (arity, order, lambda *args: built.append(args) or "built"))
    assert parse_family("twisted_affine(2,5,1)", max_order=31744) == "built"
    assert built == [(2, 5, 1)]


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
    return semidirect_product(kernel, parse_family(f"cyclic({q - 1})"), action)


@pytest.mark.parametrize("p,d,k", [(2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 3, 2)])
def test_twisted_affine_matches_loop_form(p, d, k):
    got = parse_family(f"twisted_affine({p},{d},{k})").table
    want = reference_twisted_affine(p, d, k).table
    assert got.dtype == want.dtype and np.array_equal(got, want)


# -- the polynomial field and the loop-built tables, as references ----------

def reference_gf(p, d):
    """F_{p^d} one polynomial at a time: the modulus is the first monic
    degree-d polynomial, low coefficients in code order, that no monic
    polynomial of degree 1..d/2 divides; every cell multiplies and reduces
    two coefficient lists. Returns (modulus, add, mul, inv)."""
    def poly(t):
        return [t // p ** i % p for i in range(d)]

    def code(coeffs):
        return sum(c % p * p ** i for i, c in enumerate(coeffs))

    def mod(a, m):
        a = list(a)
        while len(a) >= len(m):
            lead, shift = a[-1], len(a) - len(m)
            for i, c in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * c) % p
            a.pop()
        return a

    def times(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return out

    def irreducible(m):
        return all(any(mod(m, [t // p ** i % p for i in range(e)] + [1]))
                   for e in range(1, d // 2 + 1) for t in range(p ** e))

    modulus = next(m for m in (poly(t) + [1] for t in range(p ** d)) if irreducible(m))
    q = p ** d
    add = np.array([[code([x + y for x, y in zip(poly(a), poly(b))]) for b in range(q)]
                    for a in range(q)])
    mul = np.array([[code(mod(times(poly(a), poly(b)), modulus)) for b in range(q)]
                    for a in range(q)])
    inv = np.array([0] + [next(b for b in range(q) if mul[a, b] == 1) for a in range(1, q)])
    return modulus, add, mul, inv


# every field the catalog, the relabeled benchmark specs and these tests
# build has q <= 32; the rest reach (2, 6), (3, 4) and (7, 2)
FIELDS = [(p, d) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
          for d in range(1, 7) if p ** d <= 81]


@pytest.mark.parametrize("p,d", FIELDS)
def test_field_matches_polynomial_arithmetic(p, d):
    field = GF(p, d)
    modulus, add, mul, inv = reference_gf(p, d)
    assert (field.p, field.d, field.q, field.modulus) == (p, d, p ** d, modulus)
    for got, want in ((field.add, add), (field.mul, mul), (field.inv, inv)):
        assert got.dtype == np.int64 and np.array_equal(got, want)


def test_field_needs_a_prime():
    with pytest.raises(UnsupportedInputError, match="no irreducible modulus"):
        GF(4, 1)


def reference_dihedral(m):
    n = 2 * m
    table = np.empty((n, n), dtype=np.int64)
    for r1, s1, r2, s2 in itertools.product(range(m), range(2), range(m), range(2)):
        table[r1 + m * s1, r2 + m * s2] = (r1 + (r2 if s1 == 0 else -r2)) % m + m * (s1 ^ s2)
    return table.astype(np.uint16)


def reference_dicyclic(m):
    mm, n = 2 * m, 4 * m
    table = np.empty((n, n), dtype=np.int64)
    for r1, s1, r2, s2 in itertools.product(range(mm), range(2), range(mm), range(2)):
        if s1 == 0:
            r, s = (r1 + r2) % mm, s2
        else:
            r, s = (r1 - r2 + m * s2) % mm, 1 ^ s2   # b^2 = a^m
        table[r1 + mm * s1, r2 + mm * s2] = r + mm * s
    return table.astype(np.uint16)


@pytest.mark.parametrize("m", range(1, 61))
def test_dihedral_and_dicyclic_match_loop_form(m):
    for build, reference in ((dihedral, reference_dihedral), (dicyclic, reference_dicyclic)):
        got, want = build(m).table, reference(m)
        assert got.dtype == want.dtype == np.uint16 and np.array_equal(got, want)


def reference_perm_sign(s):
    sign, seen = 1, [False] * len(s)
    for i in range(len(s)):
        length, j = 0, i
        while not seen[j]:
            seen[j], j, length = True, s[j], length + 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def reference_perm_table(perms):
    perms = sorted(perms)
    index = {s: i for i, s in enumerate(perms)}
    table = np.array([[index[tuple(a[x] for x in b)] for b in perms] for a in perms])
    return table.astype(np.uint16)


@pytest.mark.parametrize("n", range(1, 7))
def test_permutation_groups_match_loop_form(n):
    perms = list(itertools.permutations(range(n)))
    cases = [(f"sym({n})", perms)]
    if n >= 3:
        cases.append((f"alt({n})", [s for s in perms if reference_perm_sign(s) == 1]))
    for spec, elems in cases:
        got, want = parse_family(spec).table, reference_perm_table(elems)
        assert got.dtype == want.dtype == np.uint16 and np.array_equal(got, want)


def test_perm_file_matches_loop_form():
    gens = [(1, 2, 0, 4, 5, 3), (3, 4, 5, 0, 1, 2)]          # (1 2 3)(4 5 6), (1 4)(2 5)(3 6)
    elems, frontier = {tuple(range(6))}, [tuple(range(6))]
    while frontier:
        frontier = [b for b in {tuple(a[x] for x in g) for a in frontier for g in gens}
                    if b not in elems]
        elems.update(frontier)
    got = parse_group_text("perm 6\n(1 2 3)(4 5 6)\n(1 4)(2 5)(3 6)\n")[0].table
    want = reference_perm_table(elems)
    assert got.dtype == want.dtype == np.uint16 and np.array_equal(got, want)


def reference_sl2_3():
    mats = sorted(m for m in itertools.product(range(3), repeat=4)
                  if (m[0] * m[3] - m[1] * m[2]) % 3 == 1)
    mats.remove((1, 0, 0, 1))
    mats.insert(0, (1, 0, 0, 1))
    index = {m: i for i, m in enumerate(mats)}
    return np.array([[index[((a * e + b * g) % 3, (a * f + b * h) % 3,
                             (c * e + d * g) % 3, (c * f + d * h) % 3)]
                      for e, f, g, h in mats] for a, b, c, d in mats], dtype=np.uint16)


def reference_heisenberg3():
    triples = list(itertools.product(range(3), repeat=3))
    return np.array([[(a + x) % 3 * 9 + (b + y) % 3 * 3 + (c + z + a * y) % 3
                      for x, y, z in triples] for a, b, c in triples], dtype=np.uint16)


def test_sl2_3_and_heisenberg3_match_loop_form():
    for got, want in ((sl2_3().table, reference_sl2_3()),
                      (_heisenberg3().table, reference_heisenberg3())):
        assert got.dtype == want.dtype == np.uint16 and np.array_equal(got, want)
