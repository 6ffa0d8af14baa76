import math

from fractions import Fraction

import pytest

from invforge.alphamap import alpha_rank
from invforge.arith import SIZE_CAP_ENV, binomial
from invforge.plethysm import (
    box_partitions,
    char_dimension,
    decompose_plethysm,
    decompose_s2,
    ideal_character,
    m0,
    m0_excluded,
    mult_binary,
)


def brute_box_partitions(total, parts, largest):
    if total == 0:
        return 1
    if parts == 0 or largest == 0:
        return 0
    count = 0
    for first in range(min(total, largest), 0, -1):
        count += brute_box_partitions(total - first, parts - 1, first)
    return count


def test_box_partitions_small():
    assert box_partitions(0, 0, 0) == 1
    assert box_partitions(3, 0, 5) == 0
    assert box_partitions(4, 2, 3) == 2  # 3+1 and 2+2
    assert box_partitions(4, 2, 2) == 1  # 2+2
    for total in range(7):
        for parts in range(4):
            for largest in range(5):
                assert box_partitions(total, parts, largest) == brute_box_partitions(
                    total, parts, largest
                ), (total, parts, largest)


def test_box_partitions_size_cap(monkeypatch):
    # a 37 x 53 box: 37 passes over 37 * 54 + 1 coefficients, 73,963 steps;
    # refused first, since a table once built is served from the cache
    monkeypatch.setenv(SIZE_CAP_ENV, "73962")
    with pytest.raises(ValueError, match=f"37 x 53 box takes 73963 steps.*{SIZE_CAP_ENV}"):
        box_partitions(5, 37, 53)
    monkeypatch.setenv(SIZE_CAP_ENV, "73963")
    assert box_partitions(5, 37, 53) == brute_box_partitions(5, 37, 53)


def test_mult_binary_values():
    assert mult_binary(2, 4, 8) == 1
    assert mult_binary(2, 4, 6) == 0
    assert mult_binary(2, 4, 4) == 1
    assert mult_binary(3, 8, 12) == 2
    assert mult_binary(3, 8, 22) == 0
    assert mult_binary(3, 8, 26) == 0
    assert mult_binary(3, 8, -2) == 0


def test_mult_binary_parity_guard():
    with pytest.raises(ValueError):
        mult_binary(3, 8, 13)
    with pytest.raises(ValueError):
        mult_binary(2, 3, 3)  # rd = 6 even, m odd


def test_decompose_trivial_r():
    for d in range(7):
        assert decompose_plethysm(1, d) == {d: 1}


def test_decompose_symmetric_square_of_quartics():
    assert decompose_plethysm(2, 4) == {8: 1, 4: 1, 0: 1}


def test_decompose_cubes_of_octavics():
    assert decompose_plethysm(3, 8) == {
        24: 1,
        20: 1,
        18: 1,
        16: 1,
        14: 1,
        12: 2,
        10: 1,
        8: 2,
        6: 1,
        4: 1,
        0: 1,
    }


def test_decompose_s2_agrees_with_r2():
    assert decompose_s2(12) == {24: 1, 20: 1, 16: 1, 12: 1, 8: 1, 4: 1, 0: 1}
    for re in range(11):
        assert decompose_s2(re) == decompose_plethysm(2, re)


def test_dimension_conservation():
    for r in range(1, 5):
        for d in range(11):
            char = decompose_plethysm(r, d)
            assert char_dimension(char) == binomial(d + r, r), (r, d)


def test_char_dimension():
    assert char_dimension({}) == 0
    assert char_dimension({6: 1}) == 7
    assert char_dimension({2: 3, 0: 1}) == 10


def test_ideal_character_values():
    assert ideal_character(3, 4) == {6: 1}
    assert ideal_character(3, 8) == {18: 1, 14: 1, 12: 1, 10: 1, 8: 1, 6: 1}
    for d in (4, 6, 8):
        assert ideal_character(2, d) == {}


def test_ideal_character_nonnegative():
    for r in (2, 3, 4):
        for d in (4, 6, 8):
            char = ideal_character(r, d)
            assert all(mult > 0 for mult in char.values()), (r, d)


def test_ideal_character_guards():
    with pytest.raises(ValueError):
        ideal_character(3, 5)
    with pytest.raises(ValueError):
        ideal_character(1, 4)


def test_ideal_matches_alpha_kernel_at_r3_d4():
    report = alpha_rank(1, 4, 3)
    kernel = report["cols"] - report["rank"]
    assert kernel == 7
    assert char_dimension(ideal_character(3, 4)) == kernel


def test_m0_matches_ceiling():
    for n in range(1, 9):
        for e in range(1, 9):
            want = math.ceil(2 * n + 1 - Fraction(n, e))
            assert m0(n, e) == want, (n, e)


def test_m0_values_and_exclusion():
    assert m0(1, 1) == 2
    assert m0(1, 2) == 3
    assert m0(2, 1) == 3
    assert m0(3, 2) == 6
    assert m0_excluded(1, 1)
    assert not m0_excluded(1, 2)
    assert not m0_excluded(2, 1)


def test_m0_guards():
    with pytest.raises(ValueError):
        m0(0, 1)
    with pytest.raises(ValueError):
        m0(1, 0)
