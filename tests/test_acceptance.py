"""One test per acceptance criterion; each prints its own pass/fail line.

The battery runs once per session, through `verify-all` (the `verify_all`
fixture); each test reads its criterion's entry.  The power-extraction
oracle behind criterion 7 is held to a Fraction reference at the end.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from invforge.acceptance import is_power_of_quadratic
from invforge.arith import binomial


def _check(verify_all, index):
    entry = verify_all[1]["results"][index - 1]
    assert entry["criterion"] == index
    passed, detail = entry["passed"], entry["detail"]
    print(f"criterion {index}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_1_quadratic_power_transvectants(verify_all):
    _check(verify_all, 1)


def test_criterion_2_multigraph_count_closed_form(verify_all):
    _check(verify_all, 2)


def test_criterion_3_hypergeometric_sums(verify_all):
    _check(verify_all, 3)


def test_criterion_4_diagonal_normal_form(verify_all):
    _check(verify_all, 4)


def test_criterion_5_alpha_matrix_ranks(verify_all):
    _check(verify_all, 5)


def test_criterion_6_magic_square_sums(verify_all):
    _check(verify_all, 6)


def test_criterion_7_covariant_membership(verify_all):
    _check(verify_all, 7)


def test_criterion_8_character_arithmetic(verify_all):
    _check(verify_all, 8)


def test_criterion_9_regularity_bound(verify_all):
    _check(verify_all, 9)


# -- the integer power oracle -----------------------------------------------


def reference_is_power_of_quadratic(coeffs) -> bool:
    """is_power_of_quadratic in Fractions: shear to a nonzero leading
    coefficient c0, read alpha and beta off the next two coefficients, and
    compare c0 (1 + alpha t + beta t^2)^e with the sheared list."""
    coeffs = [Fraction(c) for c in coeffs]
    d = len(coeffs) - 1
    e = d // 2
    if all(c == 0 for c in coeffs):
        return True
    for s in range(d + 1):
        if sum(c * Fraction(s) ** t for t, c in enumerate(coeffs)):
            break
    sheared = [
        sum(coeffs[t] * binomial(t, u) * Fraction(s) ** (t - u) for t in range(u, d + 1))
        for u in range(d + 1)
    ]
    c0 = sheared[0]
    alpha = sheared[1] / (c0 * e)
    beta = (sheared[2] / c0 - binomial(e, 2) * alpha**2) / e
    power = [Fraction(1)]
    for _ in range(e):
        nxt = [Fraction(0)] * (len(power) + 2)
        for t, c in enumerate(power):
            nxt[t] += c
            nxt[t + 1] += c * alpha
            nxt[t + 2] += c * beta
        power = nxt
    return all(c0 * pc == fc for pc, fc in zip(power, sheared))


def _power(q, e):
    out = [1]
    for _ in range(e):
        nxt = [0] * (len(out) + 2)
        for t, c in enumerate(out):
            for u, qc in enumerate(q):
                nxt[t + u] += c * qc
        out = nxt
    return out


_SMALL = st.integers(-6, 6)
_QUADRATICS = st.one_of(
    st.tuples(_SMALL, _SMALL, _SMALL),
    st.tuples(st.just(0), _SMALL, _SMALL),  # c0 = 0: the shear takes s > 0
    st.builds(lambda u, v: (u * u, 2 * u * v, v * v), _SMALL, _SMALL),  # (u x0 + v x1)^2
    st.just((0, 1, 0)),  # x0 x1
)


@settings(max_examples=300, deadline=None)
@given(
    q=_QUADRATICS,
    e=st.integers(1, 6),
    scale=st.sampled_from([1, -1, 2, -3, 7]),
    bump=st.one_of(st.none(), st.tuples(st.integers(0, 12), st.sampled_from([-1, 1]))),
)
def test_integer_power_oracle_matches_fraction_reference(q, e, scale, bump):
    coeffs = [scale * c for c in _power(q, e)]
    if bump is None:
        assert is_power_of_quadratic(coeffs)
    else:
        index, step = bump
        coeffs[index % len(coeffs)] += step
    want = reference_is_power_of_quadratic(coeffs)
    assert is_power_of_quadratic(coeffs) is want
    # rational coefficients: a common scale changes no answer
    assert is_power_of_quadratic([Fraction(c, 3) for c in coeffs]) is want
