from fractions import Fraction

import pytest

from invforge.arith import factorial
from invforge.closedform import (
    dixon_rhs,
    f32_term,
    j_closed,
    j_sum,
    n1_closed,
    n2,
    n3,
    transvectant_power_closed,
    w_closed,
    w_sum,
)
from invforge.poly import Poly, VarRegistry
from invforge.transvect import BinaryForm, transvectant


def test_w_sum_frozen():
    assert w_sum(2, 2, 2) == Fraction(-3, 4)
    assert w_sum(0, 0, 0) == 1
    assert w_sum(1, 1, 1) == 0


def test_w_sum_odd_vanishes():
    for p in range(7):
        for q in range(7):
            for k in range(1, p + q + 1, 2):
                assert w_sum(p, q, k) == 0, (p, q, k)


def test_w_closed_matches_sum_even():
    for p in range(7):
        for q in range(7):
            for m in range(min(p, q) + 1):
                assert w_sum(p, q, 2 * m) == w_closed(p, q, m), (p, q, m)


def test_w_closed_range_guard():
    with pytest.raises(ValueError):
        w_closed(2, 3, 3)
    with pytest.raises(ValueError):
        w_closed(2, 3, -1)


def test_w_against_transvectant_of_bracket_powers():
    # for Q = x0 x1:
    # (Q^p, Q^q)_k = (2p-k)!(2q-k)!k!(p!)^2(q!)^2/[(2p)!(2q)!]
    #                 * w_sum(p,q,k) * (x0 x1)^(p+q-k)
    reg = VarRegistry(["x0", "x1"])
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    Q = x0 * x1
    for p in range(5):
        for q in range(5):
            for k in range(min(2 * p, 2 * q) + 1):
                lhs = transvectant(
                    BinaryForm(Q**p, degree=2 * p),
                    BinaryForm(Q**q, degree=2 * q),
                    k,
                )
                scale = Fraction(
                    factorial(2 * p - k)
                    * factorial(2 * q - k)
                    * factorial(k)
                    * factorial(p) ** 2
                    * factorial(q) ** 2,
                    factorial(2 * p) * factorial(2 * q),
                )
                rhs = Q ** (p + q - k) * (scale * w_sum(p, q, k))
                assert lhs.poly == rhs, (p, q, k)


def test_n2_frozen():
    assert n2(4, 4, 1) == Fraction(1, 14)
    assert n2(0, 1, 0) == 1
    assert n2(1, 1, 1) == Fraction(1, 2)
    for p in range(5):
        for q in range(5):
            assert n2(p, q, 0) == 1


def test_n2_symmetry():
    for p in range(6):
        for q in range(6):
            for m in range(min(p, q) + 1):
                assert n2(p, q, m) == n2(q, p, m)


def test_n2_range_guard():
    with pytest.raises(ValueError):
        n2(2, 3, 3)


def test_power_closed_odd_k_zero():
    reg = VarRegistry(["x0", "x1"])
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    Q = BinaryForm(x0 * x1)
    out = transvectant_power_closed(2, 2, 3, Q)
    assert out.is_zero()
    assert out.degree == 2  # 2(p+q)-2k


def test_power_closed_degenerate_quadratic():
    # zero discriminant: both routes vanish for every m >= 1
    reg = VarRegistry(["x0", "x1"])
    x0 = Poly.variable(reg, "x0")
    Q = BinaryForm(x0**2)
    for p in range(1, 4):
        for q in range(1, 4):
            for k in range(2 * min(p, q) + 1):
                direct = transvectant(
                    BinaryForm(Q.poly**p, degree=2 * p),
                    BinaryForm(Q.poly**q, degree=2 * q),
                    k,
                )
                assert direct == transvectant_power_closed(p, q, k, Q)


def test_power_closed_rejects_nonquadratic():
    reg = VarRegistry(["x0", "x1"])
    x0 = Poly.variable(reg, "x0")
    with pytest.raises(ValueError):
        transvectant_power_closed(1, 1, 0, BinaryForm(x0**3))
    with pytest.raises(ValueError, match="^needs nonnegative p, q, k$"):
        transvectant_power_closed(1, 1, -2, BinaryForm(x0**2))


def test_f32_frozen():
    assert f32_term(-2, -2, -2, 1, 1) == -6
    assert f32_term(-1, -2, -2, 2, 2) == 0
    assert f32_term(0, 5, 7, 3, 2) == 1  # a=0 leaves only the i=0 term


def test_f32_rational_parameters():
    # the integer sum against term-by-term Fractions, with rational b..e
    for params in [(-2, Fraction(1, 2), Fraction(3, 2), Fraction(5, 2), Fraction(1, 3)),
                   (-4, Fraction(-7, 3), 5, Fraction(2, 5), Fraction(-1, 4)),
                   (-3, 2, Fraction(1, 6), 1, Fraction(9, 2))]:
        a, b, c, d, e = (Fraction(v) for v in params)
        total = term = Fraction(1)
        for i in range(-int(a)):
            term = term * (a + i) * (b + i) * (c + i) / ((d + i) * (e + i) * (i + 1))
            total += term
        assert f32_term(*params) == total, params


def test_f32_zero_denominator():
    msg = r"^zero denominator Pochhammer at index 2 for parameters \(-1, 1\)$"
    with pytest.raises(ValueError, match=msg):
        f32_term(-3, 1, 1, -1, 1)


def test_dixon_frozen():
    assert dixon_rhs(-2, -2, -2) == -6
    assert dixon_rhs(0, 0, 0) == 1
    assert dixon_rhs(-1, -1, -1) == 0  # odd a, cosine factor kills it


def test_dixon_rejects_positive_a():
    with pytest.raises(ValueError):
        dixon_rhs(1, -1, -1)


def test_dixon_rejects_a_gamma_argument_off_the_half_integers():
    # a = -1/3 reaches Gamma(1 - a) = Gamma(4/3)
    msg = "^Gamma argument 4/3 is neither integer nor half-integer$"
    with pytest.raises(ValueError, match=msg):
        dixon_rhs(Fraction(-1, 3), 0, 0)


def test_dixon_matches_f32_first_parameterization():
    for q in range(7):
        for p in range(q + 1):
            for k in range(p + 1):
                assert f32_term(-k, -p, -q, p - k + 1, q - k + 1) == dixon_rhs(
                    -k, -p, -q
                ), (p, q, k)


def test_dixon_matches_f32_second_parameterization():
    for q in range(7):
        for p in range(q + 1):
            for k in range(p + 1, 2 * p + 1):
                a, b, c = -2 * p + k, -p, -p - q + k
                assert f32_term(a, b, c, k - p + 1, q - p + 1) == dixon_rhs(a, b, c), (
                    p,
                    q,
                    k,
                )


def test_j_frozen():
    assert j_closed(0, 0) == 1
    assert j_sum(4, 2) == 17160
    for s in range(6):
        assert j_sum(s, 0) == factorial(s)


def test_j_sum_matches_closed():
    for s in range(13):
        for p in range(7):
            assert j_sum(s, p) == j_closed(s, p), (s, p)


def test_n3_unit_at_origin():
    for r in range(2, 6):
        for e in range(1, 4):
            assert n3(r, e, 0, 0) == 1


def test_n3_witness_nonzero():
    # the paper's witness for the n = 1 case: p = p' when 2p' <= re, else
    # p = p' - e, always inside the support, over r, e <= 12
    checked = 0
    for r in range(2, 13):
        for e in range(1, 13):
            for pp in range((r + 1) * e // 2 + 1):
                p = pp if 2 * pp <= r * e else pp - e
                assert n3(r, e, pp, p) != 0, (r, e, pp)
                checked += 1
    assert checked == 3546


def test_n3_outside_support_zero():
    # p' < p violates the first indicator
    assert n3(2, 2, 0, 1) == 0
    # e - p' + p < 0 violates the second
    assert n3(3, 1, 2, 0) == 0


def test_n3_frozen_value():
    # cross-checked against the operator route in the enumeration tests
    assert n3(2, 1, 1, 1) == 40


def test_n3_range_guards():
    with pytest.raises(ValueError):
        n3(1, 1, 0, 0)
    with pytest.raises(ValueError):
        n3(2, 0, 0, 0)
    with pytest.raises(ValueError):
        n3(2, 1, 0, 2)  # 2p > re
    with pytest.raises(ValueError):
        n3(2, 1, 4, 0)  # 2p' > (r+1)e
    # the Chu-Vandermonde factor of every n3
    with pytest.raises(ValueError, match="^j_closed needs nonnegative s, p$"):
        j_closed(-1, 0)
    with pytest.raises(ValueError, match="^j_closed needs nonnegative s, p$"):
        j_closed(0, -1)


def test_n1_closed_small():
    assert n1_closed(0, 0) == 1
    assert n1_closed(1, 0) == 1
    assert n1_closed(1, 1) == 2
