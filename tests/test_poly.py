import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invforge.cli import main
from invforge.poly import ParseError, Poly, VarRegistry, kronecker_digits, parse


def make_ring():
    reg = VarRegistry(["x", "y", "z"])
    return reg, [Poly.variable(reg, n) for n in "xyz"]


# -- registry ---------------------------------------------------------------


def test_registry_basics():
    reg = VarRegistry(["a", "b"])
    assert len(reg) == 2
    assert "a" in reg and "c" not in reg
    assert reg.index("b") == 1
    assert reg.ensure("c") == 2
    assert reg.ensure("a") == 0
    assert list(reg) == ["a", "b", "c"]


def test_registry_rejects_bad_names():
    reg = VarRegistry()
    with pytest.raises(ValueError):
        reg.add("0bad")
    with pytest.raises(ValueError):
        reg.add("with space")
    reg.add("ok_1")
    with pytest.raises(ValueError):
        reg.add("ok_1")


# -- arithmetic -------------------------------------------------------------

coeffs = st.integers(-9, 9) | st.fractions(
    min_value=-5, max_value=5, max_denominator=7
)


@st.composite
def polys(draw, reg_vars=("x", "y", "z")):
    reg = VarRegistry(reg_vars)
    terms = draw(
        st.lists(
            st.tuples(
                st.tuples(*[st.integers(0, 4)] * len(reg_vars)),
                coeffs,
            ),
            max_size=6,
        )
    )
    total = Poly.zero(reg)
    for exps, c in terms:
        if c:
            total = total + Poly(reg, {tuple(exps): Fraction(c)})
    return total


@st.composite
def poly_triples(draw):
    reg = VarRegistry(["x", "y", "z"])

    def one():
        terms = draw(
            st.lists(
                st.tuples(st.tuples(*[st.integers(0, 3)] * 3), coeffs),
                max_size=5,
            )
        )
        total = Poly.zero(reg)
        for exps, c in terms:
            if c:
                total = total + Poly(reg, {tuple(exps): Fraction(c)})
        return total

    return one(), one(), one()


@settings(max_examples=60, deadline=None)
@given(poly_triples())
def test_ring_axioms(triple):
    a, b, c = triple
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Poly.zero(a.registry) == a
    assert a * Poly.const(a.registry, 1) == a
    assert a - a == Poly.zero(a.registry)


@settings(max_examples=40, deadline=None)
@given(polys())
def test_euler_identity_on_forced_homogeneous(p):
    # project onto the degree-3 part, then sum x_i dp/dx_i = 3p
    reg = p.registry
    cubic = Poly(
        reg, {e: c for e, c in p.exponent_terms().items() if sum(e) == 3}
    )
    total = Poly.zero(reg)
    for name in reg.names:
        total = total + Poly.variable(reg, name) * cubic.differentiate(name)
    assert total == cubic * 3


def test_pow_matches_repeated_multiplication():
    reg, (x, y, z) = make_ring()
    p = x + 2 * y - z
    q = Poly.const(reg, 1)
    for _ in range(5):
        q = q * p
    assert p**5 == q
    assert p**0 == Poly.const(reg, 1)


def test_negative_power_rejected_before_any_product(monkeypatch):
    reg, (x, y, z) = make_ring()

    def refuse(self, other):
        raise AssertionError("a product was taken")

    monkeypatch.setattr(Poly, "__mul__", refuse)
    with pytest.raises(ValueError, match="^negative power of a polynomial$"):
        (x + y) ** -1


def test_scalar_paths():
    reg, (x, y, _) = make_ring()
    assert x * 2 == x + x
    assert (x * Fraction(1, 2)) * 2 == x
    assert 1 - x == Poly.const(reg, 1) - x
    assert -(x - y) == y - x


# -- the coefficient invariant ---------------------------------------------


def keeps_invariant(p):
    """No stored 0, and each coefficient an int or a Fraction."""
    return all(c != 0 and type(c) in (int, Fraction) for c in p.terms.values())


def naive_product(a, b):
    out = {}
    for ea, ca in a.exponent_terms().items():
        for eb, cb in b.exponent_terms().items():
            key = tuple(u + v for u, v in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


scalars = coeffs | st.integers(-9, 9).map(lambda k: Fraction(k, 1))


@settings(max_examples=60, deadline=None)
@given(poly_triples(), scalars)
def test_operations_keep_coefficient_invariant(triple, k):
    a, b, c = triple
    reg = a.registry
    half_y = Poly.term(reg, Fraction(1, 2), {"y": 1})
    results = [
        parse(str(a), reg),
        a + b,
        a - b,
        a * b,
        a * k,
        k * a,
        a.differentiate("x"),
        a.differentiate("y", 3),
        a.substitute({"x": b, "z": c}),
        a.substitute({"x": half_y, "z": Poly.const(reg, 2)}),
    ]
    for i, r in enumerate(results):
        assert keeps_invariant(r), (i, r.terms)
    assert (a * b).exponent_terms() == naive_product(a, b)


def test_integral_coefficients_are_int():
    reg, (x, y, _) = make_ring()
    half = Fraction(1, 2)
    # ring operations may keep an integral Fraction; it equals and prints
    # like the int that the constructors store
    results = [
        (x * half + x * half, x),
        (x * half * 4, 2 * x),
        (x * Fraction(3, 1), 3 * x),
        ((x * half) * (y * 2), x * y),
        ((x**2 * half).differentiate("x"), x),
    ]
    for got, want in results:
        assert got == want
        assert str(got) == str(want)
    parsed = parse("4/2*x + 1/2*y + 1/2*y + 3", reg)
    assert all(type(c) is int for c in parsed.terms.values())
    assert Poly(reg, {(1, 0, 0): Fraction(6, 3)}).exponent_terms() == {(1, 0, 0): 2}


def test_public_constructor_validates():
    reg = VarRegistry(["x", "y"])
    with pytest.raises(ValueError):
        Poly(reg, {(1,): 1})
    assert Poly(reg, {(1, 0): 0, (0, 1): 2}).exponent_terms() == {(0, 1): 2}


def test_constructor_rejects_float_coefficient():
    reg = VarRegistry(["x0", "x1"])
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        Poly(reg, {(2, 0): 0.1})
    with pytest.raises(TypeError):
        Poly(reg, {(0, 0): 1.0})


def test_const_rejects_float_coefficient():
    reg = VarRegistry(["x0", "x1"])
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        Poly.const(reg, 0.5)
    assert Poly.const(reg, Fraction(4, 2)).terms == {0: 2}


def test_term_rejects_float_coefficient():
    reg = VarRegistry(["x0", "x1"])
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        Poly.term(reg, 1.5, {"x0": 1})
    assert Poly.term(reg, Fraction(1, 2), {"x0": 1}) == Poly.variable(reg, "x0") * Fraction(1, 2)


def _side(vector):
    # a weighted_sum side from vector(p) = (first, whole vector): its window,
    # and the part of the vector asked for
    def window(p):
        first, entries = vector(p)
        return first, first + len(entries)

    def entries(p, lo, hi):
        first, entries = vector(p)
        return entries[lo - first : hi - first]

    return window, entries


def test_weighted_sum_rejects_non_int_weight():
    reg, (x, y, z) = make_ring()
    a = 2 * x**2 * y + 3 * x * z - y
    b = x * y - z + 5
    # no names: one group on each side, weight 1, the product itself
    one = _side(lambda p: (0, [1]))
    assert Poly.weighted_sum(a, b, (), 0, (one, one)) == a * b

    # w(p, q) = (p0 + q0)(2 p0 - q0 - 1) as the dot product of two vectors
    # over indices 1..3, where both are given
    left = _side(lambda p: (1, [p[0], 2 * p[0] ** 2 - p[0], 1]))
    right = _side(lambda q: (0, [5, q[0], 1, -q[0] ** 2 - q[0]]))

    def weight(p, q):
        return (p[0] + q[0]) * (2 * p[0] - q[0] - 1)

    # grouped by the exponent of x, each term pair scaled by its group's
    # weight and divided by x: a term pair at a time, by hand
    want = Poly.zero(reg)
    for ka, ca in a.exponent_terms().items():
        for kb, cb in b.exponent_terms().items():
            w = weight(ka[:1], kb[:1])
            if w:
                exps = (ka[0] + kb[0] - 1, ka[1] + kb[1], ka[2] + kb[2])
                want = want + Poly(reg, {exps: w * ca * cb})
    # -y * (5 - z) has x-exponent 0 and must get weight 0; so has 3*x*z * x*y
    assert Poly.weighted_sum(a, b, ("x",), 1, (left, right)) == want
    for w in (0.1, Fraction(1, 2), Fraction(2)):
        with pytest.raises(TypeError):
            Poly.weighted_sum(x, y, (), 0, (_side(lambda p: (0, [w])), _side(lambda q: (0, [1]))))
    stranger = Poly.variable(VarRegistry(["x", "y", "z"]), "x")
    for a, b in ((stranger, y), (x, stranger)):
        with pytest.raises(ValueError, match="registry mismatch"):
            Poly.weighted_sum(a, b, (), 0, (one, one))


def kronecker_value(digits, width):
    return sum(c << width * n for n, c in enumerate(digits))


@pytest.mark.parametrize("width", [2, 8, 61])
def test_from_kronecker_round_trips_balanced_digits(width):
    # y and z of exponents 0..14 make 225 slots, past the 16-digit runs
    # the decoder peels one at a time; x is filled in to degree 28
    reg, _ = make_ring()
    edge = (1 << width - 1) - 1
    digits = ([edge, -edge, 0, 0, 0, 1, -1] + [0] * 20 + [-edge] * 3) * 8
    digits = digits[:224] + [edge]
    want = {}
    for n, c in enumerate(digits):
        if c:
            want[(28 - n % 15 - n // 15, n % 15, n // 15)] = Fraction(c, 7)
    box = (("y", "z"), 15)
    got = kronecker_digits(kronecker_value(digits, width), width, 225)
    assert got == digits
    got = Poly.from_slots(reg, [Fraction(c, 7) for c in got], box, ("x", 28))
    assert got == Poly(reg, want)
    assert got.bound == 28  # the fill degree, the most any exponent can be
    with pytest.raises(ValueError, match="224 coefficients for 225 slots"):
        Poly.from_slots(reg, digits[1:], box, ("x", 28))
    # one digit one past its bound, at either end, at the top or inside
    for n in (224, 100, 0):
        for past in (edge + 1, -edge - 1):
            value = kronecker_value(digits[:n] + [past] + digits[n + 1 :], width)
            with pytest.raises(ArithmeticError, match="overflowed"):
                kronecker_digits(value, width, 225)


def test_from_kronecker_refuses_a_digit_past_the_degree():
    reg, _ = make_ring()
    box = (("y", "z"), 3)
    # slot 7 is y*z^2, of degree 3 > 2
    value = kronecker_value([0] * 7 + [1, 0], 8)
    with pytest.raises(ArithmeticError, match="past degree 2"):
        Poly.from_slots(reg, kronecker_digits(value, 8, 9), box, ("x", 2))
    y, z = Poly.variable(reg, "y"), Poly.variable(reg, "z")
    value = kronecker_value([0] * 6 + [-3], 8)
    assert Poly.from_slots(reg, kronecker_digits(value, 8, 9), box, ("x", 2)) == -3 * z**2


def test_differentiate():
    reg, (x, y, _) = make_ring()
    p = x**3 * y + 2 * x
    assert p.differentiate("x") == 3 * x**2 * y + 2
    assert p.differentiate("x", 2) == 6 * x * y
    assert p.differentiate("z").is_zero()
    assert p.differentiate("x", 0) == p
    with pytest.raises(ValueError):
        p.differentiate("x", -1)


def test_partial_takes_mixed_derivatives_in_one_pass():
    reg, (x, y, z) = make_ring()
    p = x**3 * y**2 + 5 * x * y**3 * z + y**2
    want = p.differentiate("x").differentiate("y", 2)
    assert p.partial((("x", 1), ("y", 2))) == want == 6 * x**2 + 30 * y * z
    # a name given twice adds its counts; zero counts change nothing
    assert p.partial((("x", 1), ("z", 0), ("x", 2))) == 6 * y**2
    assert p.partial((("x", 0), ("y", 0))) == p
    # a term stops at its first exponent below its count
    assert p.partial((("z", 1), ("y", 4))).is_zero()
    # every name is resolved and every count checked, zero counts included
    with pytest.raises(ValueError, match="unknown variable 'w'"):
        p.partial((("x", 1), ("w", 0)))
    with pytest.raises(ValueError, match="negative differentiation count"):
        p.partial((("x", 0), ("y", -1)))


def test_degree_helpers():
    reg, (x, y, z) = make_ring()
    p = x**2 * y + z
    assert p.degree_in(["x"]) == 2
    assert p.degree_in(["x", "y"]) == 3
    assert p.is_homogeneous_in(["z"], 1) is False
    assert (x**2 + x * y).is_homogeneous_in(["x", "y"], 2)
    assert p.uses("z") and p.uses("y")


def test_degree_helpers_on_one_two_and_three_names():
    reg, (x, y, z) = make_ring()
    p = 3 * x**2 * y * z**4 + x * y**2 * z**4 - 2 * x**3 * z**4 + y**3
    for names, degree, homogeneous in (
        (["y"], 3, False),
        (["x", "y"], 3, True),
        (["x", "z", "y"], 7, False),
    ):
        assert p.degree_in(names) == degree
        assert p.is_homogeneous_in(names, degree) is homogeneous
        assert p.is_homogeneous_in(names, degree + 1) is False
    assert (p - y**3).is_homogeneous_in(["x", "y", "z"], 7)
    # the zero Poly has degree -1 and is homogeneous of every degree
    zero = Poly.zero(reg)
    for names in (["x"], ["x", "y"], ["x", "y", "z"]):
        assert zero.degree_in(names) == -1
        assert zero.is_homogeneous_in(names, 5) is True
    # a Poly built before its registry grew reads 0 in the new names
    reg.add("w")
    w = Poly.variable(reg, "w")
    assert p.degree_in(["w"]) == 0 and p.is_homogeneous_in(["w"], 0)
    assert p.degree_in(["x", "w"]) == 3
    assert p.is_homogeneous_in(["x", "y", "w"], 3)
    assert (p * w).degree_in(["x", "y", "w"]) == 4
    assert not (p + w).is_homogeneous_in(["x", "y", "w"], 3)
    assert not (x**2).uses("y")


def test_substitute():
    reg, (x, y, z) = make_ring()
    p = x**2 + y
    assert p.substitute({"x": y}) == y**2 + y
    assert p.substitute({"x": x + z, "y": Poly.const(reg, 0)}) == (x + z) ** 2
    q = x**2 * y
    assert q.substitute({"x": z}) == z**2 * y
    # y unbound, x -> -2z a one-term image, z -> x + 3 a longer one
    r = 5 * x**2 * y * z**2 - x * z + 7 * y**3
    want = (  # (x + 3)^2 = x^2 + 6x + 9, expanded by hand
        20 * y * z**2 * x**2 + 120 * y * z**2 * x + 180 * y * z**2
        + 2 * z * x + 6 * z
        + 7 * y**3
    )
    assert r.substitute({"x": -2 * z, "z": x + 3}) == want


def test_substitute_rejects_unknown_binding():
    reg, (x, y, _) = make_ring()
    with pytest.raises(ValueError, match="unknown variable 'nope'"):
        (x + y).substitute({"nope": y})
    with pytest.raises(ValueError, match="unknown variable 'nope'"):
        (x + y).substitute({"x": y + 1, "nope": y})


def test_substitute_rejects_bad_images():
    reg, (x, y, z) = make_ring()
    with pytest.raises(TypeError, match="^bindings must map names to Poly values$"):
        (x + y).substitute({"x": 3})
    other = VarRegistry(["x", "y", "z"])
    with pytest.raises(ValueError, match="^registry mismatch among replacement polynomials$"):
        (x * y).substitute({"x": z, "y": Poly.variable(other, "z")})


def test_substitute_into_fresh_registry():
    reg = VarRegistry(["x", "y"])
    x, y = Poly.variable(reg, "x"), Poly.variable(reg, "y")
    target = VarRegistry(["u", "x", "y"])
    u = Poly.variable(target, "u")
    moved = (x + y).substitute({"x": u, "y": Poly.variable(target, "y")})
    assert moved.registry is target
    assert moved == u + Poly.variable(target, "y")


def test_coefficient_of():
    reg, (x, y, z) = make_ring()
    p = 3 * x**2 * y + x**2 * z - y
    cof = p.coefficient_of({"x": 2})
    assert cof == 3 * y + z
    assert p.coefficient_of({"x": 2, "y": 1}) == Poly.const(reg, 3)
    assert p.coefficient_of({"x": 5}).is_zero()
    # an exponent past the field matches no term, though 2^32 in the x
    # field would carry into y's: y alone must not read as x^(2^32) y^0
    assert y.coefficient_of({"x": 2**32, "y": 0}).is_zero()


def test_constant_value():
    reg, (x, _, _) = make_ring()
    assert Poly.const(reg, Fraction(2, 3)).constant_value() == Fraction(2, 3)
    assert Poly.zero(reg).constant_value() == 0
    with pytest.raises(ValueError):
        x.constant_value()


def test_registry_growth_and_lift():
    reg = VarRegistry(["x"])
    x = Poly.variable(reg, "x")
    reg.ensure("y")
    y = Poly.variable(reg, "y")
    # x was created before y existed and needs no lift
    assert x + y == y + x
    # variables registered after x count as absent, not as errors
    assert x.degree_in(["y"]) == 0
    assert not x.uses("y")
    assert x.coefficient_of({"y": 1}).is_zero()
    # constants made by the operations are over x's registry
    assert x**2 == x * x
    assert (x + 1) - 1 == x
    assert (x * 0).is_zero()
    assert x.differentiate("y").is_zero()


def test_lift_after_growth_keeps_keys():
    reg = VarRegistry(["x", "y"])
    p = Poly.variable(reg, "x") ** 3 * 2 - Poly.variable(reg, "y")
    reg.ensure("z")
    after = Poly.variable(reg, "x") ** 3 * 2 - Poly.variable(reg, "y")
    # the new variable takes higher bits: the keys do not change
    assert after.terms == p.terms
    assert p == after
    assert p == Poly(reg, {(3, 0, 0): 2, (0, 1, 0): -1})
    assert p.exponent_terms() == {(3, 0, 0): 2, (0, 1, 0): -1}


def test_poly_made_before_growth_combines_without_lift():
    reg = VarRegistry(["x"])
    x = Poly.variable(reg, "x")
    reg.ensure("y")
    y = Poly.variable(reg, "y")
    assert x + y == Poly(reg, {(1, 0): 1, (0, 1): 1})
    assert x * y == Poly(reg, {(1, 1): 1})
    assert x == Poly(reg, {(1, 0): 1})
    assert str(x * y + x) == "x*y + x"


def test_lift_into_own_registry_is_identity():
    reg = VarRegistry(["x", "y"])
    p = Poly.variable(reg, "x") * 2 + Poly.variable(reg, "y")
    assert p.lift(p.registry) is p
    reg.ensure("z")
    assert p.lift(reg) is p


# -- packed exponent fields ---------------------------------------------------


def test_field_overflow_raises_instead_of_aliasing():
    reg = VarRegistry(["x0", "x1"])
    x0 = Poly.variable(reg, "x0")
    big = x0 ** (2**31)
    with pytest.raises(ValueError, match="packed field"):
        big * big
    with pytest.raises(ValueError, match="packed field"):
        big.substitute({"x0": x0 * x0})
    with pytest.raises(ValueError, match="packed field"):
        Poly(reg, {(2**32, 0): 1})
    with pytest.raises(ValueError, match="packed field"):
        Poly.term(reg, 1, {"x0": 2**32})
    # the largest exponent a field holds stays in its own variable
    top = Poly.term(reg, 1, {"x0": 2**32 - 1})
    assert top.exponent_terms() == {(2**32 - 1, 0): 1}
    assert not top.uses("x1")
    assert top.differentiate("x0").exponent_terms() == {(2**32 - 2, 0): 2**32 - 1}
    # moving fields by name adds no exponents: both 2^31 fields fit
    both = Poly.term(reg, 1, {"x0": 2**31, "x1": 2**31})
    moved = both.lift(VarRegistry(["x1", "x0"]))
    assert moved.exponent_terms() == {(2**31, 2**31): 1}


def test_negative_exponent_rejected():
    reg = VarRegistry(["x0", "x1"])
    with pytest.raises(ValueError, match="negative exponent"):
        Poly(reg, {(-1, 1): 1})
    with pytest.raises(ValueError, match="^negative exponent -1 for 'x1'$"):
        Poly.term(reg, 1, {"x0": 2, "x1": -1})


def test_parsed_term_crossing_the_field_exits_1(capsys):
    # 4096 factors of x0^(2^20): each exponent is under the parser's cap,
    # their sum 2^32 is not under the field's; the parser's cap on the sum
    # refuses the term first
    term = "*".join(["x0^1048576"] * 4096)
    code = main(["transvect", "--a", term, "--b", "x1", "--k", "0"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert "exceeds cap 1048576" in json.loads(err)["error"]


def test_mismatched_registries_raise():
    a = Poly.variable(VarRegistry(["x"]), "x")
    b = Poly.variable(VarRegistry(["x"]), "x")
    with pytest.raises(ValueError):
        a + b


def test_lift_by_name_across_registries():
    src = VarRegistry(["x", "y"])
    dst = VarRegistry(["y", "w", "x"])
    p = Poly.variable(src, "x") * 2 + Poly.variable(src, "y")
    q = p.lift(dst)
    assert q.registry is dst
    assert q == Poly.variable(dst, "x") * 2 + Poly.variable(dst, "y")


# -- formatting -------------------------------------------------------------


def test_str_golden():
    reg, (x, y, z) = make_ring()
    assert str(Poly.zero(reg)) == "0"
    assert str(x * y) == "x*y"
    assert str(x**2 - y) == "x^2 - y"
    assert str(-x + Fraction(1, 2) * y**3) == "1/2*y^3 - x"
    assert str(Poly.const(reg, Fraction(-1, 2))) == "-1/2"
    assert str(2 * x * z**2) == "2*x*z^2"


def test_str_graded_lex_order():
    reg, (x, y, _) = make_ring()
    # higher total degree first, then lexicographic by exponent vector
    assert str(x + y + x * y + 1) == "x*y + x + y + 1"


# -- parsing ----------------------------------------------------------------


def test_parse_golden():
    reg = VarRegistry(["x0", "x1"])
    p = parse("x0^2 - 2*x0*x1 + x1^2", reg)
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    assert p == (x0 - x1) ** 2
    assert parse("3/2", reg) == Poly.const(reg, Fraction(3, 2))
    assert parse("-x0", reg) == -x0
    assert parse("x0*x1 + x1*x0", reg) == 2 * x0 * x1


def test_parse_keeps_integer_literals_int():
    # an integer literal is read as an int, never through a Fraction; p/q is
    # a Fraction, stored as an int when it is integral
    reg = VarRegistry(["x0", "x1"])
    got = parse("3*x0^2 - 12*x0*x1 + 1/2*x1^2 + 4/2*x0 + 7", reg).exponent_terms()
    want = {(2, 0): 3, (1, 1): -12, (0, 2): Fraction(1, 2), (1, 0): 2, (0, 0): 7}
    assert got == want
    assert {e: type(c) for e, c in got.items()} == {e: type(c) for e, c in want.items()}
    assert type(parse("4/2", reg).terms[0]) is int
    assert type(parse("-" + "9" * 640, reg).terms[0]) is int


@pytest.mark.parametrize("coeffs", [[1], [0, 0, 5], [3, -1, 0, 2**70], [Fraction(1, 3), 0, 2]])
def test_from_dense_inverts_dense_coefficients(coeffs):
    # a binary form: a box over x1 and x0 filled in to the degree
    reg = VarRegistry(["s", "x0", "x1"])
    a = len(coeffs) - 1
    p = Poly.from_slots(reg, coeffs, (("x1",), a + 1), ("x0", a))
    want = Poly(reg, {(0, a - t, t): c for t, c in enumerate(coeffs) if c})
    assert p == want and p.bound <= a
    if all(type(c) is int for c in coeffs) and 2 * len(p.terms) >= a + 1:
        assert p.dense_coefficients(("x0", "x1")) == coeffs
    assert Poly.from_slots(reg, [], (("x1",), 0), ("x0", -1)).is_zero()


@settings(max_examples=40, deadline=None)
@given(polys(("x0", "x1", "c")))
def test_parse_round_trips_str(p):
    assert parse(str(p), p.registry) == p


PARSE_REJECTS = [
    ("", "empty input", 0),
    ("x0 +", "expected a coefficient or variable", 4),
    ("2 2", "expected '+' or '-', got '2'", 2),
    ("x0^", "expected integer exponent after '^'", 3),
    ("x0^y", "expected integer exponent after '^'", 3),
    ("x0^1/2", "expected integer exponent after '^'", 3),
    ("3x0", "missing '*' between coefficient and variable", 1),
    ("x0*3", "coefficient must lead a term", 3),
    ("x0**2", "dangling '*'", 3),
    ("(x0)", "unexpected character '('", 0),
    ("x0*", "dangling '*'", 3),
    ("x0 * * x1", "dangling '*'", 5),
    ("3/0", "zero denominator in coefficient", 0),
    ("y9", "unknown variable 'y9'", 0),
    ("x0^9999999", "exponent 9999999 exceeds cap 1048576", 3),
    # the cap bounds a variable's total in the term, reported at the factor
    # (its exponent, if written) that crosses it
    ("x0^1048576*x0^1048576", "exponent 2097152 exceeds cap 1048576", 14),
    ("x0*x0^1048576", "exponent 1048577 exceeds cap 1048576", 6),
    # a '*' after a coefficient needs a variable too
    ("3*", "dangling '*'", 2),
    ("3 *", "dangling '*'", 3),
    ("1/2*", "dangling '*'", 4),
    ("-3*", "dangling '*'", 3),
]


# ids are the input text alone
@pytest.mark.parametrize(
    "text, message, position", PARSE_REJECTS, ids=[t for t, _, _ in PARSE_REJECTS]
)
def test_parse_rejects(text, message, position):
    reg = VarRegistry(["x0", "x1"])
    with pytest.raises(ParseError) as err:
        parse(text, reg)
    assert str(err.value) == f"{message} at position {position}"
    assert err.value.position == position


PARSE_ALPHABET = [
    "x0", "x1", "c", "q", "0", "3", "1/2", "4/2", "3/0", "+", "-", "*", "^", " ", "(",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(PARSE_ALPHABET), max_size=10).map("".join))
def test_parse_accepts_or_raises_parse_error(text):
    # any string over the token alphabet parses and round-trips, or raises
    # ParseError; no other exception may escape
    reg = VarRegistry(["x0", "x1", "c"])
    try:
        p = parse(text, reg)
    except ParseError:
        return
    assert parse(str(p), reg) == p


@pytest.mark.parametrize(
    "text, position",
    [("x0^" + "9" * 5000, 3), ("9" * 5000 + "*x0", 0), ("1/" + "7" * 5000, 0)],
    ids=["exponent", "coefficient", "denominator"],
)
def test_parse_rejects_over_long_number(text, position):
    # checked before conversion, so the interpreter's int-string limit never
    # shows, and the message does not echo the digits
    reg = VarRegistry(["x0"])
    with pytest.raises(ParseError) as err:
        parse(text, reg)
    assert str(err.value) == f"number longer than 640 characters at position {position}"


def test_parse_error_carries_position():
    reg = VarRegistry(["x0"])
    try:
        parse("x0 + q", reg)
    except ParseError as err:
        assert err.position == 5
        assert "q" in str(err)
    else:
        pytest.fail("expected ParseError")
