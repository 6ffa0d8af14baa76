"""One test per acceptance criterion; each prints its own pass/fail line.

The battery runs once per session, through `verify-all` (the `verify_all`
fixture); each test reads its criterion's entry.  Negative controls then
break one route of each criterion, by the name acceptance imports, and
check that its comparison fails with the detail it names.  The
power-extraction oracle behind criterion 7 is held to a Fraction
reference at the end.
"""

import contextlib
import io
import json

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invforge import acceptance
from invforge.acceptance import is_power_of_quadratic
from invforge.arith import binomial
from invforge.cli import main
from invforge.transvect import BinaryForm


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


# -- negative controls ------------------------------------------------------


def _off_at(name, point, wrong):
    """(name, the function acceptance imports under name, answering
    wrong(answer) when its leading arguments are point)."""
    real = getattr(acceptance, name)

    def broken(*args, **kwargs):
        answer = real(*args, **kwargs)
        return wrong(answer) if args[: len(point)] == point else answer

    return name, broken


def _flip(form):
    return BinaryForm(-form.poly, form.degree)


def _plus_one(x):
    return x + 1


def _rank_by(step):
    return lambda report: dict(report, rank=report["rank"] + step)


# criterion, (name, replacement), the detail of its failure
BROKEN = [
    (1, _off_at("transvectant_power_closed", (1, 1, 2), _flip), "mismatch at (p,q,k)=(1, 1, 2)"),
    (2, _off_at("n1_closed", (3, 2), _plus_one), "mismatch at (e,p)=(3, 2): 5184 vs 5185"),
    (3, _off_at("dixon_rhs", (-1, -1, -2), _plus_one), "3F2 mismatch at (p,q,k)=(1, 2, 1)"),
    (3, _off_at("j_closed", (5, 3), _plus_one), "J mismatch at (s,p)=(5, 3)"),
    (
        4,
        _off_at("g_closed_form", (3, 2, 1, 2), _plus_one),
        "mismatch at (r,e,p,p')=(3, 2, 1, 2)",
    ),
    (4, _off_at("n3", (3, 1, 2, 1), lambda n: 0), "zero witness at (r,e,p')=(3, 1, 2)"),
    (
        5,
        _off_at("alpha_rank", (1, 6, 3), _rank_by(-1)),
        "(n,d,r)=(1,6,3) gave {'rows': 55, 'cols': 84, 'rank': 54}, want rank 55",
    ),
    (
        6,
        _off_at("tau_transvectant_check", (3, 2, 1), lambda ok: False),
        "identity failed at (r,e,p)=(3, 2, 1)",
    ),
    (7, ("membership", lambda F: (False, "U(1,1)")), "symbolic power of degree 4 rejected by U(1,1)"),
    (7, ("membership", lambda F: (True, None)), "non-power [5, -5, 0, -5, 5] accepted"),
    (8, _off_at("alpha_rank", (1, 4, 3), _rank_by(1)), "kernel 6 vs character {6: 1}"),
    (9, _off_at("m0", (2, 3), _plus_one), "m0(2,3) = 6, want 5"),
]


@pytest.mark.parametrize(
    "index, patch, detail", BROKEN, ids=[f"{index}-{patch[0]}" for index, patch, _ in BROKEN]
)
def test_broken_route_fails_its_criterion(monkeypatch, index, patch, detail):
    monkeypatch.setattr(acceptance, *patch)
    assert acceptance.CRITERIA[index - 1]() == (False, detail)


def test_broken_criterion_fails_verify_all(monkeypatch):
    monkeypatch.setattr(acceptance, *_off_at("m0", (2, 3), _plus_one))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify-all", "--level", "desk"])
    assert code == 1
    assert '"all_passed":false' in out.getvalue()
    results = json.loads(out.getvalue())["results"]
    assert [r["criterion"] for r in results if not r["passed"]] == [9]


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
