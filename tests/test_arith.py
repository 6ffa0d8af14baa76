from fractions import Fraction

import pytest

from invforge.arith import (
    DEFAULT_SIZE_CAP,
    SIZE_CAP_ENV,
    binomial,
    factorial,
    pochhammer,
    rat_str,
    size_cap,
)


def test_factorial_small():
    assert [factorial(n) for n in range(6)] == [1, 1, 2, 6, 24, 120]


def test_factorial_negative_raises():
    with pytest.raises(ValueError):
        factorial(-1)


def test_binomial_values():
    assert binomial(4, 2) == 6
    assert binomial(0, 0) == 1
    assert binomial(10, 0) == 1
    assert binomial(10, 10) == 1


def test_binomial_out_of_range_is_zero():
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0


def test_binomial_negative_n_raises():
    with pytest.raises(ValueError):
        binomial(-2, 1)


def test_binomial_pascal_rule():
    for n in range(1, 12):
        for k in range(n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_pochhammer():
    assert pochhammer(3, 4) == 3 * 4 * 5 * 6
    assert pochhammer(Fraction(1, 2), 3) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)
    assert pochhammer(5, 0) == 1
    assert pochhammer(-2, 4) == 0  # hits zero at the third factor


def test_rat_str():
    assert rat_str(Fraction(1, 2)) == "1/2"
    assert rat_str(Fraction(-3, 4)) == "-3/4"
    assert rat_str(7) == "7"
    assert rat_str(Fraction(8, 4)) == "2"


def test_size_cap_reads_env_at_each_call(monkeypatch):
    monkeypatch.delenv(SIZE_CAP_ENV, raising=False)
    assert size_cap() == DEFAULT_SIZE_CAP == 2_000_000
    monkeypatch.setenv(SIZE_CAP_ENV, "17")
    assert size_cap() == 17
