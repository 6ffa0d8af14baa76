from fractions import Fraction
from math import comb, factorial, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invforge import poly, transvect
from invforge.poly import Poly, VarRegistry
from invforge.transvect import (
    X,
    BinaryForm,
    _omega_diagonal,
    _pi_p_bits,
    discriminant,
    generic_form,
    omega_apply,
    pi_p,
    polarize,
    transvectant,
)


def xy_ring():
    reg = VarRegistry(["x0", "x1"])
    return reg, Poly.variable(reg, "x0"), Poly.variable(reg, "x1")


def xy4_ring():
    reg = VarRegistry(["x0", "x1", "y0", "y1"])
    return reg, tuple(Poly.variable(reg, n) for n in ("x0", "x1", "y0", "y1"))


# -- BinaryForm -------------------------------------------------------------


def test_form_infers_degree():
    reg, x0, x1 = xy_ring()
    F = BinaryForm(x0**3 + x0 * x1**2)
    assert F.degree == 3
    assert not F.is_zero()


def test_form_rejects_inhomogeneous():
    reg, x0, x1 = xy_ring()
    with pytest.raises(ValueError):
        BinaryForm(x0**2 + x1)


def test_form_allows_symbolic_coefficients():
    reg = VarRegistry(["a", "x0", "x1"])
    a = Poly.variable(reg, "a")
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    F = BinaryForm(a * x0**2 + a**3 * x1**2)
    assert F.degree == 2  # degree counted in the pair only


def test_zero_form_needs_degree():
    reg, x0, x1 = xy_ring()
    with pytest.raises(ValueError):
        BinaryForm(Poly.zero(reg))
    Z = BinaryForm(Poly.zero(reg), 4)
    assert Z.degree == 4 and Z.is_zero()
    with pytest.raises(ValueError, match="^negative form degree -1$"):
        BinaryForm(Poly.zero(reg), -1)


# -- Omega ------------------------------------------------------------------


def test_omega_on_bracket_power():
    # Omega (xy)^k = k(k+1) (xy)^(k-1) where (xy) = x0 y1 - x1 y0
    reg, (x0, x1, y0, y1) = xy4_ring()
    xy = x0 * y1 - x1 * y0
    for k in range(1, 5):
        got = omega_apply(xy**k, 1)
        assert got == xy ** (k - 1) * (k * (k + 1))


def test_omega_needs_y_pair_in_registry():
    # Omega pairs x0, x1 with y0, y1; a registry without them is an error
    reg, x0, x1 = xy_ring()
    for k in (0, 1, 2):
        with pytest.raises(ValueError, match="unknown variable 'y"):
            omega_apply(x0**2 * x1, k)


# terms of a binary form: (integer coefficient, exponent of the symbolic s)
_FORM_TERMS = st.lists(
    st.tuples(st.integers(-6, 6), st.integers(0, 2)), min_size=1, max_size=6
)


def _form_from_terms(reg, terms, symbolic):
    d = len(terms) - 1
    return Poly(
        reg,
        {(d - t, t, 0, 0, m if symbolic else 0): c for t, (c, m) in enumerate(terms)},
    )


def _disjoint_product(A, B):
    # A(x) * B(y) term by term, built without Poly's multiply
    terms = {}
    for ea, ca in A.exponent_terms().items():
        for eb, cb in B.exponent_terms().items():
            key = tuple(u + v for u, v in zip(ea, eb))
            terms[key] = terms.get(key, 0) + ca * cb
    return Poly(A.registry, terms)


@settings(max_examples=150, deadline=None)
@given(_FORM_TERMS, _FORM_TERMS, st.booleans(), st.integers(0, 7))
def test_omega_diagonal_matches_omega_apply(aterms, bterms, symbolic, k):
    # the factored kernel against the 4-variable route: Omega^k on
    # A(x) B(y), then y := x
    reg = VarRegistry(["x0", "x1", "y0", "y1", "s"])
    x0, x1, y0, y1 = (Poly.variable(reg, n) for n in ("x0", "x1", "y0", "y1"))
    A = _form_from_terms(reg, aterms, symbolic)
    B = _form_from_terms(reg, bterms, symbolic)
    k = min(k, len(aterms), len(bterms))  # k <= min(a, b) + 1
    B_y = B.substitute({"x0": y0, "x1": y1})
    want = omega_apply(_disjoint_product(A, B_y), k).substitute({"y0": x0, "y1": x1})
    assert _omega_diagonal(A, B, k) == want


# integer coefficient lists of binary forms of degree 0-16: runs of zeros,
# small values of both signs, and values past 2^200
_COEFFS = st.lists(
    st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**210), 2**210)),
    min_size=1,
    max_size=17,
)
# a sparse form: x0^a and/or x1^a, far below the density threshold
_SPARSE = st.tuples(st.integers(3, 40), st.integers(-(2**210), 2**210), st.integers(-3, 3))


def _integer_form(reg, coeffs):
    a = len(coeffs) - 1
    return Poly(reg, {(a - s, s, 0, 0): c for s, c in enumerate(coeffs)})


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(_COEFFS, _SPARSE),
    _COEFFS,
    st.booleans(),
    st.sampled_from(["zero", "min", "min+1", "any"]),
    st.integers(0, 17),
)
def test_dense_route_matches_omega_apply(left, coeffs, swap, kind, k):
    # the Kronecker route against the 4-variable route, which it never
    # calls: Omega^k on A(x) B(y), then y := x
    reg = VarRegistry(["x0", "x1", "y0", "y1"])
    x0, x1, y0, y1 = (Poly.variable(reg, n) for n in ("x0", "x1", "y0", "y1"))
    if isinstance(left, tuple):
        a, c0, ca = left
        A = Poly(reg, {(a, 0, 0, 0): c0, (0, a, 0, 0): ca})
    else:
        A = _integer_form(reg, left)
    B = _integer_form(reg, coeffs)
    if swap:
        A, B = B, A
    a, b = (max(P.degree_in(("x0", "x1")), 0) for P in (A, B))
    k = {"zero": 0, "min": min(a, b), "min+1": min(a, b) + 1}.get(kind, min(k, a, b))
    B_y = B.substitute({"x0": y0, "x1": y1})
    want = omega_apply(_disjoint_product(A, B_y), k).substitute({"y0": x0, "y1": x1})
    calls = []
    kernel = transvect._omega_dense

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transvect, "_omega_dense", counting)
        assert _omega_diagonal(A, B, k) == want
    # dense: nonzero, with at least (d+1)/2 terms at degree d
    dense = all(P.terms and 2 * len(P.terms) >= d + 1 for P, d in ((A, a), (B, b)))
    assert len(calls) == dense


# a polynomial in s, x0, x1, t, homogeneous or not: exponent vectors to
# int or Fraction coefficients
_TERMS = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 7), st.integers(0, 7), st.integers(0, 2)),
    st.integers(-6, 6) | st.fractions(min_value=-4, max_value=4, max_denominator=5),
    max_size=7,
)


def _branch_formula(A, B, k):
    # sum_i (-1)^i C(k,i) [dx0^(k-i) dx1^i A] * [dx0^i dx1^(k-i) B], each
    # product expanded term by term over exponent tuples
    total = {}
    for i in range(k + 1):
        da = A.differentiate("x0", k - i).differentiate("x1", i)
        db = B.differentiate("x0", i).differentiate("x1", k - i)
        w = (-1) ** i * comb(k, i)
        for ea, ca in da.exponent_terms().items():
            for eb, cb in db.exponent_terms().items():
                key = tuple(u + v for u, v in zip(ea, eb))
                total[key] = total.get(key, 0) + w * ca * cb
    return Poly(A.registry, {key: c for key, c in total.items() if c})


@settings(max_examples=200, deadline=None)
@given(_TERMS, _TERMS, st.integers(0, 9))
def test_grouped_kernel_matches_branch_formula(aterms, bterms, k):
    # the one weight per pair of x-exponents against the k+1 branches
    # taken one at a time
    reg = VarRegistry(["s", "x0", "x1", "t"])
    A, B = Poly(reg, aterms), Poly(reg, bterms)
    want = _branch_formula(A, B, k)
    assert Poly.omega_table(A, B, X, k)(k) == want
    assert _omega_diagonal(A, B, k) == want


@settings(max_examples=100, deadline=None)
@given(_TERMS, _TERMS, st.lists(st.integers(0, 9), min_size=1, max_size=6))
def test_one_omega_table_answers_every_k(aterms, bterms, ks):
    # one table asked for several k, in any order and some twice: each
    # answer is the branch formula at its k, with the lowering x0^k x1^k
    reg = VarRegistry(["s", "x0", "x1", "t"])
    A, B = Poly(reg, aterms), Poly(reg, bterms)
    omega = Poly.omega_table(A, B, X, max(ks))
    for k in ks:
        assert omega(k) == _branch_formula(A, B, k)


def test_omega_table_multiplies_each_group_pair_once(monkeypatch):
    # x0^a sides whose windows never meet build nothing; the groups of a
    # symbolic pair are multiplied once, by the first k that weighs them
    reg = VarRegistry(["s", "x0", "x1"])
    s, x0, x1 = (Poly.variable(reg, n) for n in reg.names)
    A, B = (s * x0 + x1) ** 4, (x0 - s * x1) ** 3
    a, b = x0**5, s * x0**4
    products = []
    multiply_into = poly._multiply_into

    def counting(acc, left, right):
        products.append((left, right))
        return multiply_into(acc, left, right)

    monkeypatch.setattr(poly, "_multiply_into", counting)
    omega = Poly.omega_table(a, b, X, 4)
    assert all(omega(k).is_zero() for k in range(1, 5)) and products == []
    omega = Poly.omega_table(A, B, X, 3)
    for k in (3, 1, 2, 0, 3, 1):
        assert omega(k) == _branch_formula(A, B, k)
    pairs = {(id(left), id(right)) for left, right in products}
    assert len(pairs) == len(products) == 5 * 4  # every pair of x-exponent groups


def test_omega_weights_are_held_to_the_cap_by_their_bits(monkeypatch):
    # one weight of (x0^a, x1^a)_k is (a)_k^2, past 8,000,000 bits at k =
    # 200,000: refused before it is built; x0^a against x0^a builds none
    for name in ("comb", "perm", "factorial"):
        monkeypatch.setattr(poly, name, None)  # the weights
    monkeypatch.setattr(transvect, "perm", None)  # the norm
    reg, x0, x1 = xy_ring()
    a = 1048576
    with pytest.raises(ValueError, match="^a pair weight could take 8000002 bits, above"):
        transvectant(BinaryForm(x0**a), BinaryForm(x1**a), 200000)
    monkeypatch.undo()
    assert transvectant(BinaryForm(x0**a), BinaryForm(x0**a), 400000).is_zero()
    # (x0^40 + x1^40, x0^20 - x1^20)_2 takes 3 branches over 4 terms, and
    # a weight of up to (40)_2 (20)_2 < 2^(6 + 6 + 5 + 5)
    A, B = BinaryForm(x0**40 + x1**40), BinaryForm(x0**20 - x1**20)
    want = transvectant(A, B, 2)
    monkeypatch.setenv("INVFORGE_SIZE_CAP", "22")
    assert transvectant(A, B, 2) == want
    monkeypatch.setenv("INVFORGE_SIZE_CAP", "21")
    with pytest.raises(ValueError, match="^a pair weight could take 22 bits, above the cap of 21"):
        transvectant(A, B, 2)


def test_an_undercounted_weight_bound_raises_before_a_wrong_answer(monkeypatch):
    # with arith.falling_bits held 2 bits low on each side, the weight
    # (a)_k (b)_k that x0^a gives x1^b at order k passes the bound the
    # table sizes its digits by: a call raises ArithmeticError, and no
    # Poly is returned, on integer and symbolic forms alike
    reg = VarRegistry(["s", "x0", "x1"])
    s, x0, x1 = (Poly.variable(reg, n) for n in reg.names)
    cases = [
        (x0**7, x1**7, 1),
        (x0**1000 * x1, x1**1001, 5),
        (s * x0**15 + x1**15, x1**15 - s * x0**15, 1),
    ]
    falling_bits = poly.falling_bits
    monkeypatch.setattr(poly, "falling_bits", lambda n, k: max(falling_bits(n, k) - 2, 0))
    for A, B, k in cases:
        with pytest.raises(ArithmeticError, match="^weight -?[0-9]+ is past 2"):
            Poly.omega_table(A, B, X, k)(k)
        with pytest.raises(ArithmeticError):
            transvectant(BinaryForm(A), BinaryForm(B), k)
    monkeypatch.undo()
    for A, B, k in cases:
        assert Poly.omega_table(A, B, X, k)(k) == _branch_formula(A, B, k)


def test_each_term_pair_product_is_held_to_the_cap(monkeypatch):
    # A = x0 G + x1 H and B = x0 H + x1 G, with 28-term G and 21-term H:
    # (A, B)_0 is one product of 49 * 49 term pairs, and (A, B)_1 two
    # group products, G G of 784 and H H of 441; each product is held on
    # its own, so 784 answers though the two make 1,225
    reg = VarRegistry(["a", "b", "x0", "x1"])
    a, b, x0, x1 = (Poly.variable(reg, n) for n in reg.names)
    G, H = (a + b + 1) ** 6, (a - b + 2) ** 5
    A, B = BinaryForm(x0 * G + x1 * H), BinaryForm(x0 * H + x1 * G)
    for k, pairs, what in ((0, 2401, "the transvectant of order 0"), (1, 784, "a pair of coefficient groups")):
        want = transvectant(A, B, k)
        assert not want.is_zero()
        monkeypatch.setenv("INVFORGE_SIZE_CAP", str(pairs))
        assert transvectant(A, B, k) == want
        monkeypatch.setenv("INVFORGE_SIZE_CAP", str(pairs - 1))
        with pytest.raises(ValueError, match=f"^{what} would multiply {pairs} term pairs, above"):
            transvectant(A, B, k)
        monkeypatch.delenv("INVFORGE_SIZE_CAP")


def test_grouped_kernel_on_sparse_big_exponents():
    reg = VarRegistry(["s", "x0", "x1"])
    s, x0, x1 = (Poly.variable(reg, n) for n in reg.names)
    A = s * x0**1048576 + x1**1048576
    B = 2 * x0**3 - s * x0 * x1**2 + x1**3
    got = _omega_diagonal(A, B, 3)
    assert got == _branch_formula(A, B, 3)
    assert not got.is_zero() and got.degree_in(X) == 1048576 + 3 - 2 * 3
    # one of 20,001 branches survives, and the work follows it
    a, k = 1048576, 20000
    got = _omega_diagonal(x0**a, x1**a, k)
    assert got == Poly.term(reg, perm(a, k) ** 2, {"x0": a - k, "x1": a - k})


def test_pi_p_squared_bracket():
    # Omega^2 (x0 y1 - x1 y0)^2 restricted to the diagonal is the constant 12
    reg, (x0, x1, y0, y1) = xy4_ring()
    G = (x0 * y1 - x1 * y0) ** 2
    out = pi_p(G, 1)
    assert out.poly.constant_value() == 12
    assert out.degree == 0


def test_omega_apply_stops_each_branch_at_its_first_zero_derivative(monkeypatch):
    # x0^a y1^a has no x1 or y0, so only branch 0 runs: one Poly.partial
    # pass, taking one falling factorial in x0 and one in y1
    calls = []
    factorials = []
    partial = Poly.partial

    def counting(self, orders):
        calls.append(orders)
        return partial(self, orders)

    def counting_perm(n, k):
        factorials.append((n, k))
        return perm(n, k)

    monkeypatch.setattr(Poly, "partial", counting)
    monkeypatch.setattr(poly, "perm", counting_perm)
    reg, (x0, x1, y0, y1) = xy4_ring()
    for a, k in ((3, 3), (40, 20), (300, 300)):
        calls.clear()
        factorials.clear()
        got = omega_apply(x0**a * y1**a, k)
        assert len(calls) == 1
        assert factorials == [(a, k), (a, k)]
        assert got == Poly.term(reg, perm(a, k) ** 2, {"x0": a - k, "y1": a - k})


def test_omega_apply_runs_no_branch_that_no_term_survives(monkeypatch):
    # branch i needs x1^i and y1^(k-i): x0^6 y0^6 has neither at k = 6
    def refuse(self, orders):
        raise AssertionError("a derivative was taken")

    monkeypatch.setattr(Poly, "partial", refuse)
    reg, (x0, x1, y0, y1) = xy4_ring()
    assert omega_apply(x0**6 * y0**6, 6).is_zero()
    assert omega_apply(Poly.zero(reg), 6).is_zero()


def test_omega_apply_takes_binomials_of_surviving_branches_only(monkeypatch):
    # x0^a y1^a at k = 2p: only branch 0 has a surviving term, so C(k, i)
    # is computed once, not k + 1 times
    calls = []
    binomial = transvect.binomial

    def counting(n, k):
        calls.append((n, k))
        return binomial(n, k)

    monkeypatch.setattr(transvect, "binomial", counting)
    reg, (x0, x1, y0, y1) = xy4_ring()
    for a, p in ((4, 2), (50, 20), (600, 300)):
        calls.clear()
        out = pi_p(x0**a * y1**a, p)
        assert calls == [(2 * p, 0)]
        want = {"x0": a - 2 * p, "x1": a - 2 * p}
        assert out.poly == Poly.term(reg, perm(a, 2 * p) ** 2, want)


def test_pi_p_past_the_degree_is_zero_without_a_branch(monkeypatch):
    # 2p > n: every branch takes 2p derivatives in x0, x1 of a degree-n form
    monkeypatch.setattr(transvect, "omega_apply", None)
    reg, (x0, x1, y0, y1) = xy4_ring()
    out = pi_p(x0 * y1 - x1 * y0, 10**9)
    assert out.is_zero() and out.degree == 0


# bihomogeneous terms: (x0 exponent, y0 exponent, coefficient numerator,
# denominator, exponent of the symbolic s)
_BIHOMOGENEOUS = st.lists(
    st.tuples(
        st.integers(0, 6), st.integers(0, 6), st.integers(-40, 40), st.integers(1, 9),
        st.integers(0, 2),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 6), _BIHOMOGENEOUS, st.sampled_from(["int", "fraction", "symbolic"]),
       st.integers(0, 4))
def test_pi_p_matches_omega_apply_on_the_diagonal(n, terms, kind, p):
    # the folded branches against the four-variable route: Omega^{2p} G
    # branch by branch, then y := x
    reg = VarRegistry(["x0", "x1", "y0", "y1", "s"])
    x0, x1, y0, y1, s = (Poly.variable(reg, v) for v in reg.names)
    G = Poly.zero(reg)
    for a0, b0, num, den, m in terms:
        a0, b0 = a0 % (n + 1), b0 % (n + 1)
        c = Fraction(num, den) if kind == "fraction" else num
        G = G + c * s ** (m if kind == "symbolic" else 0) * x0**a0 * x1 ** (n - a0) * (
            y0**b0 * y1 ** (n - b0)
        )
    got = pi_p(G, p)
    if G.is_zero() or 2 * p > n:
        assert got.is_zero()
        return
    assert got.poly == omega_apply(G, 2 * p).substitute({"y0": x0, "y1": x1})
    assert got.degree == 2 * n - 4 * p


def test_pi_p_calls_no_table_transvectant_or_branch(monkeypatch):
    # the oracle behind g_direct stays independent of the transvectant
    # kernels it is compared with, and builds no branch Poly
    def refuse(*args, **kwargs):
        raise AssertionError("pi_p reached another route")

    monkeypatch.setattr(Poly, "omega_table", refuse)
    monkeypatch.setattr(Poly, "partial", refuse)
    monkeypatch.setattr(Poly, "substitute", refuse)
    monkeypatch.setattr(transvect, "transvectant", refuse)
    monkeypatch.setattr(transvect, "omega_apply", refuse)
    monkeypatch.setattr(transvect, "_omega_diagonal", refuse)
    reg, (x0, x1, y0, y1) = xy4_ring()
    assert pi_p((x0 * y1 - x1 * y0) ** 2, 1).poly.constant_value() == 12
    G = (x0 * y1 - x1 * y0) ** 2 * (Fraction(1, 3) * x0 * y0 + x1 * y1) ** 3
    assert pi_p(G, 2).degree == 2


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 6),
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(-40, 40), st.integers(1, 9)),
        min_size=1,
        max_size=5,
    ),
    st.integers(0, 3),
)
def test_pi_p_bits_bound_every_coefficient(n, terms, p):
    # every numerator and denominator of pi_p(G, p) fits the bound taken
    # before any branch, and a bound of 0 means the answer is zero
    reg, (x0, x1, y0, y1) = xy4_ring()
    G = Poly.zero(reg)
    for a0, b0, num, den in terms:
        a0, b0 = a0 % (n + 1), b0 % (n + 1)
        G = G + Fraction(num, den) * x0**a0 * x1 ** (n - a0) * y0**b0 * y1 ** (n - b0)
    bits = _pi_p_bits(G, p)
    coeffs = [Fraction(c) for c in pi_p(G, p).poly.terms.values()]
    assert all(max(c.numerator.bit_length(), c.denominator.bit_length()) <= bits for c in coeffs)
    assert bits or not coeffs


def test_pi_p_bits_of_a_lone_surviving_term():
    # x0^a y1^a: one coefficient, (a)_{2p}^2, which the bound overshoots by
    # under 6% at a = 3000; x0^a y0^a: no branch survives
    reg, (x0, x1, y0, y1) = xy4_ring()
    for a, p in ((4, 2), (50, 20), (3000, 1500)):
        exact = (perm(a, 2 * p) ** 2).bit_length()
        assert exact <= _pi_p_bits(x0**a * y1**a, p)
    assert _pi_p_bits(x0**a * y1**a, p) <= exact * 106 // 100
    assert _pi_p_bits(x0**6 * y0**6, 3) == 0
    assert _pi_p_bits(x0 * y1, 1) == 0  # 2p past the degree


def _limbs(value) -> int:
    # the 30-bit digits of an int, as the kernels count them
    return -(-abs(value).bit_length() // 30)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=12),
    st.lists(st.integers(-50, 50), min_size=1, max_size=12),
    st.integers(0, 12),
)
def test_omega_dense_packs_within_the_limbs_it_holds(A, B, k):
    # every int _omega_dense packs, over all of its branches, fits the one
    # count it held to the cap before packing; past min(a, b) it holds and
    # packs nothing
    packed, held = [], []
    pack, check = transvect.kronecker_pack, transvect.check_cap

    def packing(values, width):
        packed.append(pack(values, width))
        return packed[-1]

    def holding(work, what, cap=None):
        held.append(work)
        return check(work, what, cap)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transvect, "kronecker_pack", packing)
        mp.setattr(transvect, "check_cap", holding)
        out = transvect._omega_dense(A, B, k)
    if k > min(len(A), len(B)) - 1:
        assert (out, held, packed) == ([], [], [])
        return
    assert len(held) == 1
    assert all(x.bit_length() <= 30 * held[0] for x in packed)
    assert sum(map(_limbs, packed)) <= held[0]


@settings(max_examples=100, deadline=None)
@given(_TERMS, _TERMS, st.integers(0, 9))
def test_omega_table_counts_every_entry_and_weight_product(aterms, bterms, k):
    # a table asked for (A, B)_k holds at least the limbs of the weight
    # entries it builds, and then at least the limbs of the products
    # l_i r_i it sums, one per branch that two groups' windows share: 0
    # when no windows meet
    reg = VarRegistry(["s", "x0", "x1", "t"])
    A, B = Poly(reg, aterms), Poly(reg, bterms)
    combs, perms, held = [], [], {}

    def recording(f, into):
        def record(*args):
            into.append(f(*args))
            return into[-1]

        return record

    check = poly.check_cap

    def holding(work, what, cap=None):
        held[what.split(" ")[3]] = work  # "would" for the entries, "reach" for the sums
        return check(work, what, cap)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "check_cap", holding)
        mp.setattr(poly, "comb", recording(comb, combs))
        mp.setattr(poly, "perm", recording(perm, perms))
        got = Poly.omega_table(A, B, X, k)(k)
    assert got == _branch_formula(A, B, k)
    # a left entry is +-C(p0,k-i) C(p1,i), a right one k! (q0)_i (q1)_{k-i}
    built = [x * y for x, y in zip(combs[::2], combs[1::2])]
    built += [factorial(k) * x * y for x, y in zip(perms[::2], perms[1::2])]
    assert sum(map(_limbs, built)) <= held["would"]
    i0, i1 = (reg.index(x) for x in X)
    ps = {(e[i0], e[i1]) for e in A.exponent_terms()}
    qs = {(e[i0], e[i1]) for e in B.exponent_terms()}
    products = []
    for p0, p1 in ps:
        for q0, q1 in qs:
            for i in range(max(0, k - p0, k - q1), min(k, p1, q0) + 1):
                left = comb(p0, k - i) * comb(p1, i)
                products.append(left * factorial(k) * perm(q0, i) * perm(q1, k - i))
    assert len(products) <= held["reach"] and sum(map(_limbs, products)) <= held["reach"]
    assert held["reach"] or not products


def test_omega_entry_points_hold_branches_times_terms_to_the_cap(monkeypatch):
    reg, (x0, x1, y0, y1) = xy4_ring()
    # sparse, so no packed-bits check: see the dense route's test below
    A = BinaryForm(x0**5 + x1**5)
    B = BinaryForm(x0**2 + x1**2)
    # (A, B)_2: 3 branches over 2 + 2 terms
    monkeypatch.setenv("INVFORGE_SIZE_CAP", "12")
    assert str(transvectant(A, B, 2)) == "x0^3 + x1^3"
    monkeypatch.setenv("INVFORGE_SIZE_CAP", "11")
    with pytest.raises(ValueError, match="^the transvectant of order 2 would take 12 Omega"):
        transvectant(A, B, 2)
    # Omega^2 of G = x0^2 y1^2 - 2 x0 x1 y0 y1 + x1^2 y0^2: 3 branches over 3 terms
    G = (x0 * y1 - x1 * y0) ** 2
    monkeypatch.setenv("INVFORGE_SIZE_CAP", "9")
    assert pi_p(G, 1).poly.constant_value() == 12
    monkeypatch.setenv("INVFORGE_SIZE_CAP", "8")
    with pytest.raises(ValueError, match=r"^Omega\^2 would take 9 Omega branch terms, above"):
        pi_p(G, 1)


def test_transvectant_holds_the_dense_route_to_the_cap_by_packed_bits(monkeypatch):
    # A = 2^100 sum (s+1) x0^(6-s) x1^s with itself at k = 2: 3 branches over
    # 7 + 7 terms, and 3 branches of 5 + 5 digits of 220 bits, two past the
    # 218 of (6)_2^2 |A|_1 |A|_inf = 900 * 28 * 7 * 2^200, so 8 limbs of 30
    # bits a digit: 240 limbs
    reg, x0, x1 = xy_ring()
    A = BinaryForm(sum(((s + 1) * x0 ** (6 - s) * x1**s for s in range(7)), Poly.zero(reg)))
    want = (
        "8/45*x0^8 + 16/15*x0^7*x1 + 56/15*x0^6*x1^2 + 448/45*x0^5*x1^3 + 112/5*x0^4*x1^4"
        " + 112/5*x0^3*x1^5 + 728/45*x0^2*x1^6 + 128/15*x0*x1^7 + 8/3*x1^8"
    )
    assert str(transvectant(A, A, 2)) == want
    A = BinaryForm(A.poly * 2**100)
    reads = []
    dense_coefficients = Poly.dense_coefficients

    def counting(self, names):
        reads.append(names)
        return dense_coefficients(self, names)

    # the route is chosen once: one read of each operand
    monkeypatch.setattr(Poly, "dense_coefficients", counting)
    monkeypatch.setenv("INVFORGE_SIZE_CAP", "240")
    full = transvectant(A, A, 2)
    assert str(full.poly * Fraction(1, 2**200)) == want and len(reads) == 2
    monkeypatch.setenv("INVFORGE_SIZE_CAP", "239")
    refusal = "^the transvectant of order 2 would pack 240 limbs, above the cap of 239 "
    with pytest.raises(ValueError, match=refusal):
        transvectant(A, A, 2)
    with pytest.raises(ValueError, match=refusal):
        _omega_diagonal(A.poly, A.poly, 2)
    # a Fraction operand takes the grouped route, which packs no digits: its
    # weights are 12 bits, one limb each, and the table sums 75 weight
    # products, 5 on each side at each of the 3 branches
    monkeypatch.setenv("INVFORGE_SIZE_CAP", "75")
    half = transvectant(A, BinaryForm(A.poly * Fraction(1, 2)), 2)
    assert half.poly == full.poly * Fraction(1, 2)
    monkeypatch.setenv("INVFORGE_SIZE_CAP", "74")
    with pytest.raises(ValueError, match="^the pair sums reach 7[5-7] limbs of weight products"):
        transvectant(A, BinaryForm(A.poly * Fraction(1, 2)), 2)


def test_transvectant_of_windows_that_never_meet_builds_no_weight(monkeypatch):
    # x0^a against x0^b: the left side needs i <= 0 and the right side
    # i >= k, so the zero comes before any weight, k! or norm
    for name in ("comb", "perm", "factorial"):
        monkeypatch.setattr(poly, name, None)  # the weights
    monkeypatch.setattr(transvect, "perm", None)  # the norm
    reg, x0, x1 = xy_ring()
    a = 1048576
    out = transvectant(BinaryForm(x0**a), BinaryForm(x0**a), 400000)
    assert out.is_zero() and out.degree == 2 * a - 800000
    assert _omega_diagonal(x0**a * x1, x0**3, 2).is_zero()


def test_omega_apply_refuses_past_the_cap_before_any_derivative(monkeypatch):
    def refuse(self, orders):
        raise AssertionError("a derivative was taken")

    monkeypatch.setattr(Poly, "partial", refuse)
    reg, (x0, x1, y0, y1) = xy4_ring()
    G = x0**1048576 * y1**1048576 + x1**1048576 * y0**1048576
    # 1,000,001 branches over 2 terms
    with pytest.raises(ValueError, match=r"^Omega\^1000000 would take 2000002 Omega"):
        omega_apply(G, 1000000)
    monkeypatch.setenv("INVFORGE_SIZE_CAP", "5")
    with pytest.raises(ValueError, match=r"^Omega\^2 would take 6 Omega"):
        omega_apply(G, 2)


def test_omega_apply_rejects_negative_power():
    reg, (x0, x1, y0, y1) = xy4_ring()
    with pytest.raises(ValueError, match="^negative Omega power$"):
        omega_apply(x0 * y1, -1)


def test_pi_p_rejects_unbalanced():
    reg, (x0, x1, y0, y1) = xy4_ring()
    with pytest.raises(ValueError):
        pi_p(x0**2 * y0, 1)


def test_polarize_middle_is_symmetric():
    reg, (x0, x1, y0, y1) = xy4_ring()
    F = x0**3 * x1 + x1**4
    P = polarize(F, ["x0", "x1"], ["y0", "y1"], 2)
    swapped = P.substitute(
        {"x0": y0, "x1": y1, "y0": x0, "y1": x1}
    )
    assert P == swapped


def test_polarize_count_zero_is_identity():
    reg, (x0, x1, y0, y1) = xy4_ring()
    F = x0**2
    assert polarize(F, ["x0", "x1"], ["y0", "y1"], 0) == F


def test_polarize_rejects_bad_arguments():
    reg, (x0, x1, y0, y1) = xy4_ring()
    with pytest.raises(ValueError, match="^variable lists must have equal length$"):
        polarize(x0 * x1, X, ("y0",))
    with pytest.raises(ValueError, match="^negative polarization count$"):
        polarize(x0, X, ("y0", "y1"), -1)


def test_polarize_stops_once_zero(monkeypatch):
    # x0 -> y0 -> 0: a million passes take the derivatives of two
    calls = []
    differentiate = Poly.differentiate

    def counting(self, var, times=1):
        calls.append(var)
        return differentiate(self, var, times)

    monkeypatch.setattr(Poly, "differentiate", counting)
    reg, (x0, x1, y0, y1) = xy4_ring()
    assert polarize(x0, X, ("y0", "y1"), 10**6).is_zero()
    assert len(calls) == 4


# -- transvectants ----------------------------------------------------------


def test_transvectant_golden_jacobian():
    reg, x0, x1 = xy_ring()
    got = transvectant(BinaryForm(x0**2), BinaryForm(x1**2), 1)
    assert got.poly == x0 * x1
    assert got.degree == 2


def test_transvectant_golden_hessian_of_product():
    reg, x0, x1 = xy_ring()
    Q = BinaryForm(x0 * x1)
    got = transvectant(Q, Q, 2)
    assert got.poly.constant_value() == Fraction(-1, 2)


def test_transvectant_k0_is_product():
    reg, x0, x1 = xy_ring()
    A = BinaryForm(x0**2 + x1**2)
    B = BinaryForm(x0 * x1)
    assert transvectant(A, B, 0).poly == A.poly * B.poly


def test_transvectant_above_min_degree_is_zero():
    reg, x0, x1 = xy_ring()
    A = BinaryForm(x0**2)
    B = BinaryForm(x0**4)
    out = transvectant(A, B, 3)
    assert out.is_zero()
    assert out.degree == 0  # clamped, 2+4-6


def test_transvectant_of_a_zero_form_costs_nothing(monkeypatch):
    # no kernel call and no falling factorial of 2^20
    monkeypatch.setattr(transvect, "_omega_diagonal", None)
    monkeypatch.setattr(transvect, "perm", None)
    reg, x0, x1 = xy_ring()
    zero = BinaryForm(Poly.zero(reg), 1048576)
    F = BinaryForm(x0**1048576 + x1**1048576)
    for A, B in ((zero, F), (F, zero), (zero, zero)):
        out = transvectant(A, B, 524288)
        assert out.is_zero() and out.degree == 1048576


def test_transvectant_antisymmetry_symbolic():
    # (A,B)_k = (-1)^k (B,A)_k for generic forms up to degree 3
    reg = VarRegistry(["x0", "x1"])
    A = generic_form(reg, 3, prefix="a")
    B = generic_form(reg, 2, prefix="b")
    for k in range(3):
        left = transvectant(A, B, k)
        right = transvectant(B, A, k)
        sign = -1 if k % 2 else 1
        assert left.poly == right.poly * sign


def test_transvectant_self_odd_vanishes():
    reg = VarRegistry(["x0", "x1"])
    for d in (2, 3, 4):
        F = generic_form(reg, d)
        for k in range(1, d + 1, 2):
            assert transvectant(F, F, k).is_zero()


def _equal_forms():
    # a dense integer form, a Fraction form and a symbolic form, each as two
    # equal Polys built apart
    reg, x0, x1 = xy_ring()
    dense = [x0**5 + 3 * x0**4 * x1 - x0 * x1**4 + 2 * x1**5 for _ in range(2)]
    third = [Fraction(1, 3) * x0**3 - x0 * x1**2 + x1**3 for _ in range(2)]
    sreg = VarRegistry(["x0", "x1"])
    symbolic = [generic_form(sreg, 4).poly, generic_form(sreg, 4).poly]
    return [dense, third, symbolic]


def test_transvectant_of_equal_forms_at_odd_k_is_zero_at_once(monkeypatch):
    # (A, A)_k = (-1)^k (A, A)_k: no kernel runs at odd k, so no work is
    # held either
    def refuse(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(transvect, "_omega_diagonal", refuse)
    monkeypatch.setenv("INVFORGE_SIZE_CAP", "0")
    for A, A2 in _equal_forms():
        d = A.degree_in(X)
        for k in range(1, d + 1, 2):
            out = transvectant(BinaryForm(A), BinaryForm(A2), k)
            assert out.is_zero() and out.degree == 2 * d - 2 * k
    monkeypatch.undo()
    # at even k the kernel runs, and with equal but distinct forms it agrees
    for A, A2 in _equal_forms():
        assert transvectant(BinaryForm(A), BinaryForm(A2), 2) == transvectant(
            BinaryForm(A), BinaryForm(A), 2
        )


def test_omega_diagonal_of_equal_forms_is_zero_at_odd_k():
    # the kernel's own antisymmetry, which transvectant no longer asks at odd k
    for A, A2 in _equal_forms():
        d = A.degree_in(X)
        for k in range(1, d + 1, 2):
            assert _omega_diagonal(A, A2, k).is_zero(), (A, k)
        assert not _omega_diagonal(A, A2, 2).is_zero()


def test_transvectant_bilinear():
    reg, x0, x1 = xy_ring()
    A = BinaryForm(x0**2)
    B = BinaryForm(x1**2)
    C = BinaryForm(x0 * x1)
    left = transvectant(BinaryForm(A.poly + C.poly), B, 1)
    assert left.poly == transvectant(A, B, 1).poly + transvectant(C, B, 1).poly


def test_quintic_identity():
    # (F,(F,F)_2)_5 vanishes identically for every quintic
    reg = VarRegistry(["x0", "x1"])
    F = generic_form(reg, 5)
    H = transvectant(F, F, 2)
    assert H.degree == 6
    assert transvectant(F, H, 5).is_zero()


def test_discriminant_anchor():
    reg, x0, x1 = xy_ring()
    assert discriminant(BinaryForm(x0 * x1)).constant_value() == 1
    Q = BinaryForm(x0**2 + x1**2)
    assert discriminant(Q).constant_value() == -4
    with pytest.raises(ValueError):
        discriminant(BinaryForm(x0**3))


def test_generic_form_shape():
    reg = VarRegistry(["x0", "x1"])
    F = generic_form(reg, 2, prefix="g")
    assert F.degree == 2
    assert sorted(n for n in reg.names if n.startswith("g")) == ["g0", "g1", "g2"]
