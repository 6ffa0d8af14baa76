import re

from fractions import Fraction

import pytest

from invforge.arith import (
    DEFAULT_SIZE_CAP,
    SIZE_CAP_ENV,
    binomial,
    check_cap,
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
    with pytest.raises(ValueError, match="^pochhammer requires nonnegative i, got -1$"):
        pochhammer(3, -1)


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


@pytest.mark.parametrize("raw", ["abc", "-5", "", " ", "1.5", "2e6", "0x10"])
def test_size_cap_refuses_a_malformed_value(monkeypatch, raw):
    monkeypatch.setenv(SIZE_CAP_ENV, raw)
    want = f"{SIZE_CAP_ENV} must be a nonnegative integer, got {raw!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        size_cap()


def test_size_cap_accepts_zero_and_padding(monkeypatch):
    monkeypatch.setenv(SIZE_CAP_ENV, "0")
    assert size_cap() == 0
    monkeypatch.setenv(SIZE_CAP_ENV, " 17\n")
    assert size_cap() == 17


def test_check_cap_passes_at_the_cap_and_refuses_past_it(monkeypatch):
    monkeypatch.setenv(SIZE_CAP_ENV, "100")
    check_cap(100, "unused")
    want = f"x would take 101 steps, above the cap of 100 (set {SIZE_CAP_ENV} to raise it)"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        check_cap(101, "x would take 101 steps")
    # a cap read once by a walk is the one compared, whatever the knob says
    check_cap(7, "unused", 7)
    with pytest.raises(ValueError, match=r"above the cap of 7 \("):
        check_cap(8, "walk", 7)


def test_check_cap_refuses_a_malformed_cap_before_any_work(monkeypatch):
    monkeypatch.setenv(SIZE_CAP_ENV, "abc")
    with pytest.raises(ValueError, match=f"^{SIZE_CAP_ENV} must be a nonnegative integer"):
        check_cap(0, "no work")
