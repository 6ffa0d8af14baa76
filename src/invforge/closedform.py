"""Closed-form rational coefficients of the transvectant calculus.

Covers the alternating Wigner-type sum W and its product form, the
coefficient N2 governing transvectants of powers of a quadratic, terminating
3F2 series and the regularized Dixon right-hand side, the Chu-Vandermonde sum
J with its closed form, the generating-function coefficient N3, and the
closed form N1 of the weighted-multigraph sum.

All values are exact rationals.  Range guards run before any factorial is
taken, so a factorial of a negative integer is always a caller error here,
never a silent pole.
"""

from fractions import Fraction

from .arith import factorial, pochhammer
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
    return Fraction(num, den)


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
    for a a nonpositive integer (the sum stops at i = -a)."""
    a, b, c, d, e = (Fraction(v) for v in (a, b, c, d, e))
    if a.denominator != 1 or a > 0:
        raise ValueError(f"upper parameter a must be a nonpositive integer, got {a}")
    depth = -int(a)
    total = term = Fraction(1)
    for i in range(depth):
        num = (a + i) * (b + i) * (c + i)
        if num == 0:
            break
        den = (d + i) * (e + i) * (i + 1)
        if den == 0:
            raise ValueError(
                f"zero denominator Pochhammer at index {i + 1} for parameters ({d}, {e})"
            )
        term = term * num / den
        total += term
    return total


def _gamma_exact(z: Fraction):
    """Gamma at a positive integer or positive half-integer, returned as
    (rational part, power of sqrt(pi) in {0, 1})."""
    if z <= 0:
        raise ValueError(f"nonpositive Gamma argument {z}")
    if z.denominator == 1:
        return Fraction(factorial(int(z) - 1)), 0
    if z.denominator == 2:
        n = int(z - Fraction(1, 2))
        # Gamma(n + 1/2) = (2n)! / (4^n n!) * sqrt(pi)
        return Fraction(factorial(2 * n), 4**n * factorial(n)), 1
    raise ValueError(f"Gamma argument {z} is neither integer nor half-integer")


def dixon_rhs(a: int, b: int, c: int) -> Fraction:
    """Regularized Dixon right-hand side:

    cos(pi a / 2) * G(1-a) G(1+a/2-b-c) G(1+a-b) G(1+a-c)
                  / [G(1-a/2) G(1+a-b-c) G(1+a/2-b) G(1+a/2-c)]

    evaluated exactly at integer and half-integer Gamma points.  The sqrt(pi)
    factors must cancel whenever the cosine factor is nonzero.
    """
    if a > 0:
        raise ValueError(f"dixon_rhs needs a <= 0, got {a}")
    ah = Fraction(a, 2)
    upper = (1 - Fraction(a), 1 + ah - b - c, 1 + Fraction(a) - b, 1 + Fraction(a) - c)
    lower = (1 - ah, 1 + Fraction(a) - b - c, 1 + ah - b, 1 + ah - c)
    num, num_s = Fraction(1), 0
    for z in upper:
        g, s = _gamma_exact(z)
        num *= g
        num_s += s
    den, den_s = Fraction(1), 0
    for z in lower:
        g, s = _gamma_exact(z)
        den *= g
        den_s += s
    cos = (1, 0, -1, 0)[a % 4]
    if cos == 0:
        return Fraction(0)
    if num_s != den_s:
        raise ValueError("sqrt(pi) factors do not cancel")
    return cos * num / den


def j_sum(s: int, p: int) -> Fraction:
    """sum_beta (-1)^beta 2^(2p-2beta) (s+2p-beta)! / [(2p-2beta)! beta!]."""
    if s < 0 or p < 0:
        raise ValueError("j_sum needs nonnegative s, p")
    total = 0
    for beta in range(p + 1):
        term = Fraction(
            2 ** (2 * p - 2 * beta) * factorial(s + 2 * p - beta),
            factorial(2 * p - 2 * beta) * factorial(beta),
        )
        total += -term if beta % 2 else term
    return Fraction(total)


def j_closed(s: int, p: int) -> Fraction:
    """(s+p)! (s+3/2)_p / [p! (1/2)_p], the Chu-Vandermonde value of j_sum."""
    if s < 0 or p < 0:
        raise ValueError("j_closed needs nonnegative s, p")
    return (
        factorial(s + p)
        * pochhammer(s + Fraction(3, 2), p)
        / (factorial(p) * pochhammer(Fraction(1, 2), p))
    )


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
    return Fraction(sign * num, den) * j_closed(s, p)


def n1_closed(e: int, p: int) -> Fraction:
    """(2e)!^2 / (2e-2p)!^2 * n2(e, e, p): the closed form of the
    weighted-multigraph sum."""
    if not (0 <= p <= e):
        raise ValueError(f"n1_closed needs 0 <= p <= e, got {(e, p)}")
    ratio = Fraction(factorial(2 * e) ** 2, factorial(2 * e - 2 * p) ** 2)
    return ratio * n2(e, e, p)
