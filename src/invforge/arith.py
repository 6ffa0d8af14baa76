"""Exact scalar arithmetic.

Everything downstream works over arbitrary-precision rationals
(`fractions.Fraction`, or `int` where integral); this module provides the
factorial-family helpers (factorial, binomial, Pochhammer symbol) used by
every closed-form coefficient, falling_bits, the bit bound on a falling
factorial that sizes the Omega weights, the one composition enumerator
behind the monomial labels of alphamap and the candidate rows of
enumeration's walks, and the one work cap: size_cap() reads it, and
check_cap() holds every work estimate to it and words every refusal.
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


def check_cap(work: int, what: str, cap: int = None) -> None:
    """Raise ValueError "<what>, above the cap of N (set INVFORGE_SIZE_CAP
    to raise it)" when the work estimate passes the cap N: size_cap(),
    or the cap a walk read once at its start and passes in."""
    if cap is None:
        cap = size_cap()
    if work > cap:
        raise ValueError(f"{what}, above the cap of {cap} (set {SIZE_CAP_ENV} to raise it)")


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


def falling_bits(n, k) -> int:
    """The sum of the bit lengths of the factors of the falling factorial
    (n)_k = n (n-1) ... (n-k+1), so (n)_k <= 2^sum; 0 when k <= 0 or n < 1.
    The factors of one bit length are counted together: no product and
    no loop over the k factors."""
    total = 0
    t = max(n - k, 0) + 1  # the factors t..n
    while t <= n:
        length = t.bit_length()
        last = min(n, (1 << length) - 1)
        total += length * (last - t + 1)
        t = last + 1
    return total


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


def _compositions(total: int, caps) -> list:
    """The tuples v with sum total and 0 <= v[j] <= caps[j], in
    lexicographic order, built from the last cell to the first.  A tuple
    grows as a chain of (v[j], rest) pairs, one pair per cell, and is
    written out once at the end, so the work is linear in the output even
    over many cells (the monomials of degree 0 in 10^5 variables)."""
    tails = {0: [()]}  # sum -> the chains over the cells so far, in order
    for cap in reversed(caps):
        grown = {}
        for v in range(cap + 1):  # v ascending keeps every list in order
            for s, chains in tails.items():
                if s + v <= total:
                    grown.setdefault(s + v, []).extend((v, chain) for chain in chains)
        tails = grown
    out = []
    for chain in tails.get(total, []):
        row = []
        while chain:
            v, chain = chain
            row.append(v)
        out.append(tuple(row))
    return out


def rat_str(x) -> str:
    """Serialize a rational as "p/q", omitting "/q" when q = 1."""
    return str(Fraction(x))
