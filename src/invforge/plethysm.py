"""Weight-multiplicity bookkeeping for binary plethysms.

The multiplicity of the weight-m irreducible inside S_r(S_d) of binary
forms is the classical difference count

    #{partitions of (rd-m)/2 in an r x d box} - #{same for (rd-m)/2 - 1},

which is all that is needed to decompose S_r(S_d), the symmetric square
S_2(S_re), and their difference: the degree-r slice of the ideal of the
power-of-a-quadratic variety.  Characters are plain dicts from highest
weight to multiplicity; negative entries are legal in intermediate
(virtual) characters but rejected where a genuine module is promised.
"""

from functools import lru_cache


def box_partitions(total: int, parts: int, largest: int) -> int:
    """Number of partitions of `total` into at most `parts` parts, each of
    size at most `largest`."""
    if total == 0:
        return 1
    if total < 0 or parts <= 0 or largest <= 0 or total > parts * largest:
        return 0
    return _gaussian_binomial(parts, largest)[total]


@lru_cache(maxsize=64)
def _gaussian_binomial(parts: int, largest: int) -> tuple:
    """Coefficients of the Gaussian binomial [parts+largest choose parts]_q,
    whose q^t coefficient counts the partitions of t in a parts x largest
    box.  Built as prod_{i<=k} (1 - q^(n-k+i)) / (1 - q^i) with n the sum
    and k the smaller of the two; each partial product is itself a Gaussian
    binomial, so every division is exact."""
    n = parts + largest
    k = min(parts, largest)
    coeffs = [1] + [0] * (k * (n - k + 1))  # room for the last product
    top = 0  # degree of the partial product
    for i in range(1, k + 1):
        rise = n - k + i
        top += rise
        for j in range(top, rise - 1, -1):  # times (1 - q^rise)
            coeffs[j] -= coeffs[j - rise]
        for j in range(i, top + 1):  # divided by (1 - q^i): exact, so
            coeffs[j] += coeffs[j - i]  # the top i coefficients become 0
        top -= i
    return tuple(coeffs[: top + 1])


def mult_binary(r: int, d: int, m: int) -> int:
    """Multiplicity of the weight-m irreducible in S_r(S_d)."""
    if (r * d - m) % 2:
        raise ValueError(f"weight parity violation: m={m} with rd={r * d}")
    if m < 0 or m > r * d:
        return 0
    t = (r * d - m) // 2
    return box_partitions(t, r, d) - box_partitions(t - 1, r, d)


def decompose_plethysm(r: int, d: int) -> dict:
    """Full weight decomposition of S_r(S_d), as {m: multiplicity > 0}."""
    if r < 0 or d < 0:
        raise ValueError(f"decompose_plethysm needs r, d >= 0, got {(r, d)}")
    out = {}
    for m in range(r * d, -1, -2):
        mult = mult_binary(r, d, m)
        if mult:
            out[m] = mult
    return out


def decompose_s2(re: int) -> dict:
    """Weight decomposition of S_2(S_re): one copy of 2re-4p for each
    0 <= p <= re/2."""
    if re < 0:
        raise ValueError(f"decompose_s2 needs re >= 0, got {re}")
    return {2 * re - 4 * p: 1 for p in range(re // 2 + 1)}


def char_dimension(char: dict) -> int:
    """Total dimension of a character: sum of multiplicity * (m+1)."""
    return sum(mult * (m + 1) for m, mult in char.items())


def ideal_character(r: int, d: int) -> dict:
    """Weights of the degree-r slice of the ideal cutting out the e-th
    powers of quadratics (d = 2e): S_r(S_d) minus S_2(S_re).

    The subtraction must leave nothing negative; a negative multiplicity
    means a bug, not a virtual character.
    """
    if d % 2:
        raise ValueError(f"ideal_character needs even d, got {d}")
    if r < 2:
        raise ValueError(f"ideal_character needs r >= 2, got {r}")
    e = d // 2
    big = decompose_plethysm(r, d)
    small = decompose_s2(r * e)
    out = dict(big)
    for m, mult in small.items():
        left = out.get(m, 0) - mult
        if left < 0:
            raise ValueError(
                f"negative multiplicity {left} at weight {m} for (r,d)={(r, d)}"
            )
        if left:
            out[m] = left
        else:
            out.pop(m, None)
    return out


def m0(n: int, e: int) -> int:
    """The regularity bound: ceiling of 2n + 1 - n/e."""
    if n < 1 or e < 1:
        raise ValueError(f"m0 needs n >= 1 and e >= 1, got {(n, e)}")
    return 2 * n + 1 - n // e


def m0_excluded(n: int, e: int) -> bool:
    """Whether (n, e) is the degenerate quadric case (n=1, e=1) that the
    regularity statement leaves out."""
    return n == 1 and e == 1
