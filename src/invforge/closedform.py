"""Closed-form rational coefficients of the transvectant calculus.

Covers the alternating Wigner-type sum W and its product form, the
coefficient N2 governing transvectants of powers of a quadratic, terminating
3F2 series and the regularized Dixon right-hand side, the Chu-Vandermonde sum
J with its closed form, the generating-function coefficient N3, and the
closed form N1 of the weighted-multigraph sum.

All values are exact rationals.  Range guards run before any factorial is
taken, so a factorial of a negative integer is always a caller error here,
never a silent pole.  Each closed form (and the 3F2 sum) is built as one
integer numerator and one integer denominator, and one Fraction is made
at the end, so a value costs one gcd, not one per factor.
"""

from fractions import Fraction
from math import perm

from .arith import factorial
from .poly import Poly
from .transvect import BinaryForm, discriminant


def w_sum(p: int, q: int, k: int) -> Fraction:
    """Alternating sum over i in [max(0,k-p), min(k,p)] of
    (-1)^i / [i!(k-i)!(p-i)!(q-i)!(p-k+i)!(q-k+i)!].

    Terms whose factorial arguments go negative (possible only when p > q)
    contribute zero, matching the reciprocal-Gamma convention.
    """
    if p < 0 or q < 0 or k < 0:
        raise ValueError("w_sum needs nonnegative p, q, k")
    total = Fraction(0)
    for i in range(max(0, k - p), min(k, p) + 1):
        args = (i, k - i, p - i, q - i, p - k + i, q - k + i)
        if any(a < 0 for a in args):
            continue
        denom = 1
        for a in args:
            denom *= factorial(a)
        total += Fraction(-1 if i % 2 else 1, denom)
    return total


def w_closed(p: int, q: int, m: int) -> Fraction:
    """(-1)^m (p+q-m)! / [p! q! m! (p+q-2m)! (p-m)! (q-m)!], the closed form
    of w_sum(p, q, 2m)."""
    if not (0 <= m <= min(p, q)):
        raise ValueError(f"w_closed needs 0 <= m <= min(p, q), got {(p, q, m)}")
    num = factorial(p + q - m)
    den = (
        factorial(p)
        * factorial(q)
        * factorial(m)
        * factorial(p + q - 2 * m)
        * factorial(p - m)
        * factorial(q - m)
    )
    return Fraction((-1) ** m * num, den)


def n2(p: int, q: int, m: int) -> Fraction:
    """The coefficient in (Q^p, Q^q)_{2m} = Q^{p+q-2m} (-Delta)^m N2:

    p! q! (2m)! (p+q-m)! (2p-2m)! (2q-2m)!
    over (2p)! (2q)! m! (p+q-2m)! (p-m)! (q-m)!.
    """
    if not (0 <= m <= min(p, q)):
        raise ValueError(f"n2 needs 0 <= m <= min(p, q), got {(p, q, m)}")
    return Fraction(*_n2_parts(p, q, m))


def _n2_parts(p: int, q: int, m: int) -> tuple:
    """n2(p, q, m) as (numerator, denominator), two ints, in range."""
    num = (
        factorial(p)
        * factorial(q)
        * factorial(2 * m)
        * factorial(p + q - m)
        * factorial(2 * p - 2 * m)
        * factorial(2 * q - 2 * m)
    )
    den = (
        factorial(2 * p)
        * factorial(2 * q)
        * factorial(m)
        * factorial(p + q - 2 * m)
        * factorial(p - m)
        * factorial(q - m)
    )
    return num, den


def transvectant_power_closed(p: int, q: int, k: int, Q: BinaryForm) -> BinaryForm:
    """Closed form of (Q^p, Q^q)_k for a quadratic Q: the zero form for odd k
    (or k beyond 2*min(p,q)), else Q^{p+q-2m} (-Delta)^m n2(p,q,m), k = 2m."""
    if Q.degree != 2:
        raise ValueError(f"needs a quadratic, got degree {Q.degree}")
    if p < 0 or q < 0 or k < 0:
        raise ValueError("needs nonnegative p, q, k")
    degree = max(2 * (p + q) - 2 * k, 0)
    reg = Q.poly.registry
    if k % 2 == 1 or k > 2 * min(p, q):
        return BinaryForm(Poly.zero(reg), degree)
    m = k // 2
    value = Q.poly ** (p + q - 2 * m) * (-discriminant(Q)) ** m * n2(p, q, m)
    return BinaryForm(value, degree)


def f32_term(a, b, c, d, e) -> Fraction:
    """Terminating 3F2(a,b,c; d,e; 1) = sum_i (a)_i(b)_i(c)_i/[i!(d)_i(e)_i],
    for a a nonpositive integer (the sum stops at i = -a).

    Summed in integers: with each parameter n/m in lowest terms, term i+1
    is term i times u/v, u = prod_{a,b,c} (n + i m) * prod_{d,e} m and v =
    (i+1) prod_{d,e} (n + i m) * prod_{a,b,c} m.  The partial sum stays N/D
    and the term T/D over the product D of the v so far, so a step is N ->
    N v + T u, T -> T u, D -> D v, and one Fraction is made at the end.
    """
    params = [Fraction(v) for v in (a, b, c, d, e)]
    a = params[0]
    if a.denominator != 1 or a > 0:
        raise ValueError(f"upper parameter a must be a nonpositive integer, got {a}")
    upper = [(x.numerator, x.denominator) for x in params[:3]]
    lower = [(x.numerator, x.denominator) for x in params[3:]]
    upper_scale = lower[0][1] * lower[1][1]
    lower_scale = upper[0][1] * upper[1][1] * upper[2][1]
    total = term = common = 1
    for i in range(-a.numerator):
        u = upper_scale
        for n, m in upper:
            u *= n + i * m
        if u == 0:
            break
        v = (i + 1) * lower_scale
        for n, m in lower:
            v *= n + i * m
        if v == 0:
            raise ValueError(
                f"zero denominator Pochhammer at index {i + 1} for parameters "
                f"({params[3]}, {params[4]})"
            )
        term *= u
        total = total * v + term
        common *= v
    return Fraction(total, common)


def _gamma_exact(z2):
    """Gamma(z2/2) at a positive integer or positive half-integer z2/2,
    returned as (numerator, denominator, power of sqrt(pi) in {0, 1}) of
    ints."""
    if z2 <= 0:
        raise ValueError(f"nonpositive Gamma argument {Fraction(z2, 2)}")
    if z2 != int(z2):
        raise ValueError(f"Gamma argument {Fraction(z2, 2)} is neither integer nor half-integer")
    z2 = int(z2)
    if z2 % 2 == 0:
        return factorial(z2 // 2 - 1), 1, 0
    n = z2 // 2
    # Gamma(n + 1/2) = (2n)! / (4^n n!) * sqrt(pi)
    return factorial(2 * n), 4**n * factorial(n), 1


def dixon_rhs(a: int, b: int, c: int) -> Fraction:
    """Regularized Dixon right-hand side:

    cos(pi a / 2) * G(1-a) G(1+a/2-b-c) G(1+a-b) G(1+a-c)
                  / [G(1-a/2) G(1+a-b-c) G(1+a/2-b) G(1+a/2-c)]

    evaluated exactly at integer and half-integer Gamma points.  The sqrt(pi)
    factors must cancel whenever the cosine factor is nonzero.  Each Gamma
    is taken at twice its argument, an int, and the eight of them multiply
    into one numerator and one denominator: one Fraction at the end.
    """
    if a > 0:
        raise ValueError(f"dixon_rhs needs a <= 0, got {a}")
    # the Gamma arguments, doubled
    upper = (2 - 2 * a, 2 + a - 2 * b - 2 * c, 2 + 2 * a - 2 * b, 2 + 2 * a - 2 * c)
    lower = (2 - a, 2 + 2 * a - 2 * b - 2 * c, 2 + a - 2 * b, 2 + a - 2 * c)
    num = den = 1
    num_s = den_s = 0
    for z2 in upper:
        g, h, s = _gamma_exact(z2)
        num *= g
        den *= h
        num_s += s
    for z2 in lower:
        g, h, s = _gamma_exact(z2)
        num *= h
        den *= g
        den_s += s
    cos = (1, 0, -1, 0)[a % 4]
    if cos == 0:
        return Fraction(0)
    if num_s != den_s:
        raise ValueError("sqrt(pi) factors do not cancel")
    return Fraction(cos * num, den)


def j_sum(s: int, p: int) -> Fraction:
    """sum_beta (-1)^beta 2^(2p-2beta) (s+2p-beta)! / [(2p-2beta)! beta!],
    summed as integer numerators over (2p)! p!, with one Fraction at the
    end."""
    if s < 0 or p < 0:
        raise ValueError("j_sum needs nonnegative s, p")
    total = 0
    for beta in range(p + 1):
        # (2p)!/(2p-2beta)! and p!/beta! raise the term to the common denominator
        term = 2 ** (2 * p - 2 * beta) * factorial(s + 2 * p - beta)
        term *= perm(2 * p, 2 * beta) * perm(p, p - beta)
        total += -term if beta % 2 else term
    return Fraction(total, factorial(2 * p) * factorial(p))


def j_closed(s: int, p: int) -> Fraction:
    """(s+p)! (s+3/2)_p / [p! (1/2)_p], the Chu-Vandermonde value of j_sum."""
    if s < 0 or p < 0:
        raise ValueError("j_closed needs nonnegative s, p")
    return Fraction(*_j_parts(s, p))


def _j_parts(s: int, p: int) -> tuple:
    """j_closed(s, p) as (numerator, denominator), two ints: the halves of
    (s+3/2)_p / (1/2)_p cancel, leaving prod_i (2s+3+2i) / (2i+1)."""
    num = factorial(s + p)
    den = factorial(p)
    for i in range(p):
        num *= 2 * s + 3 + 2 * i
        den *= 2 * i + 1
    return num, den


def n3(r: int, e: int, pprime: int, p: int) -> Fraction:
    """Coefficient of the evaluated Omega power on the two-letter product:

    zero unless p'-p >= 0, e-p'+p >= 0, re-p'-p >= 0; otherwise
    (-1)^(p'-p) (2p)!(2p')!(re-2p)!e! /
      [(p'-p)!(e-p'+p)!(re-p'-p)!((r+1)e-2p')!] * j_closed(s, p)
    with s = (r+1)e - p' - p.
    """
    if r < 2 or e < 1:
        raise ValueError(f"n3 needs r >= 2 and e >= 1, got {(r, e)}")
    if not (0 <= 2 * pprime <= (r + 1) * e):
        raise ValueError(f"n3 needs 0 <= 2p' <= (r+1)e, got pprime={pprime}")
    if not (0 <= 2 * p <= r * e):
        raise ValueError(f"n3 needs 0 <= 2p <= re, got p={p}")
    if pprime - p < 0 or e - pprime + p < 0 or r * e - pprime - p < 0:
        return Fraction(0)
    s = (r + 1) * e - pprime - p
    num = (
        factorial(2 * p)
        * factorial(2 * pprime)
        * factorial(r * e - 2 * p)
        * factorial(e)
    )
    den = (
        factorial(pprime - p)
        * factorial(e - pprime + p)
        * factorial(r * e - pprime - p)
        * factorial((r + 1) * e - 2 * pprime)
    )
    sign = -1 if (pprime - p) % 2 else 1
    j_num, j_den = _j_parts(s, p)
    return Fraction(sign * num * j_num, den * j_den)


def n1_closed(e: int, p: int) -> Fraction:
    """(2e)!^2 / (2e-2p)!^2 * n2(e, e, p): the closed form of the
    weighted-multigraph sum."""
    if not (0 <= p <= e):
        raise ValueError(f"n1_closed needs 0 <= p <= e, got {(e, p)}")
    num, den = _n2_parts(e, e, p)
    return Fraction(factorial(2 * e) ** 2 * num, factorial(2 * e - 2 * p) ** 2 * den)
