"""Exact scalar arithmetic.

Everything downstream works over arbitrary-precision rationals
(`fractions.Fraction`, or `int` where integral); this module provides the
factorial-family helpers (factorial, binomial, Pochhammer symbol) used by
every closed-form coefficient, and the one work cap that bounds the matrix
build, the enumerations and the plethysm tables.
"""

import os
from fractions import Fraction
from math import comb as _comb, factorial as _factorial

SIZE_CAP_ENV = "INVFORGE_SIZE_CAP"
DEFAULT_SIZE_CAP = 2_000_000


def size_cap() -> int:
    """The work and size cap: INVFORGE_SIZE_CAP, read at each call, else
    2,000,000.  A value other than decimal digits raises ValueError."""
    raw = os.environ.get(SIZE_CAP_ENV, str(DEFAULT_SIZE_CAP))
    if not raw.strip().isdecimal():
        raise ValueError(f"{SIZE_CAP_ENV} must be a nonnegative integer, got {raw!r}")
    return int(raw)


def factorial(n: int) -> int:
    """n! for nonnegative integer n."""
    if n < 0:
        raise ValueError(f"factorial requires a nonnegative integer, got {n}")
    return _factorial(n)


def binomial(n: int, k: int) -> int:
    """C(n, k); zero when k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"binomial requires nonnegative n, got {n}")
    if k < 0 or k > n:
        return 0
    return _comb(n, k)


def pochhammer(a, i: int) -> Fraction:
    """Rising factorial a(a+1)...(a+i-1); empty product 1 for i = 0.

    The base a may be any rational, including half-integers.
    """
    if i < 0:
        raise ValueError(f"pochhammer requires nonnegative i, got {i}")
    a = Fraction(a)
    out = Fraction(1)
    for step in range(i):
        out *= a + step
    return out


def rat_str(x) -> str:
    """Serialize a rational as "p/q", omitting "/q" when q = 1."""
    return str(Fraction(x))
