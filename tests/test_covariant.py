import random

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invforge.acceptance import is_power_of_quadratic
from invforge.covariant import (
    CovariantExpr,
    in_range,
    membership,
    mu,
    octavic_preset,
    phi,
    set_S,
    u_cov,
)
from invforge.poly import Poly, VarRegistry
from invforge.transvect import X, BinaryForm, generic_form, transvectant


def xreg(extra=()):
    return VarRegistry(list(extra) + ["x0", "x1"])


def form(poly, degree=None):
    return BinaryForm(poly, degree=degree)


def quartic(reg, c):
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    p = Poly.zero(reg)
    for t, coeff in enumerate(c):
        p = p + coeff * x0 ** (4 - t) * x1**t
    return form(p, degree=4)


# -- index window -------------------------------------------------------------


def test_in_range_window():
    assert in_range(4, 0, 1)
    assert in_range(4, 1, 3)
    assert not in_range(4, 1, 4 + 1)
    assert not in_range(4, 3, 0)  # 2i > d
    assert not in_range(4, 0, 5)
    assert in_range(8, 2, 0)
    assert in_range(8, 2, 8)  # 2d - 4i = 8
    assert not in_range(8, 2, 9)
    assert in_range(8, 3, 4)
    assert not in_range(8, 3, 5)  # 2d - 4i = 4


# -- the iterated transvectants ----------------------------------------------


def test_u_cov_examples():
    reg = xreg()
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    out = u_cov(4, 1, 1, form((x0 * x1) ** 2))
    assert out.is_zero()

    out = u_cov(4, 1, 1, form(x0**3 * x1))
    assert out.poly == Fraction(-1, 32) * x0**6
    assert out.degree == 6


def test_u_cov_inner_zero_matches_plain_transvectant():
    # i = 0 makes the inner step a plain square
    reg = xreg()
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    F = form(x0**3 * x1 + 2 * x1**4)
    for j in (1, 3):
        expected = transvectant(form(F.poly**2), F, j)
        assert u_cov(4, 0, j, F) == expected, j


def test_u_cov_degree_bookkeeping():
    reg = VarRegistry(["f0", "f1", "f2", "f3", "f4", "x0", "x1"])
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    F = Poly.zero(reg)
    for t in range(5):
        F = F + Poly.variable(reg, f"f{t}") * x0 ** (4 - t) * x1**t
    F = form(F, degree=4)
    for i in range(3):
        for j in range(13):
            out = u_cov(4, i, j, F)
            want = max(3 * 4 - 4 * i - 2 * j, 0)
            assert out.degree == want, (i, j)
            if in_range(4, i, j) and not out.is_zero():
                assert out.poly.is_homogeneous_in(["x0", "x1"], want)


def test_u_cov_outside_window_is_zero():
    reg = xreg()
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    F = form(x0**4 + x1**4)
    assert u_cov(4, 3, 0, F).is_zero()
    assert u_cov(4, 0, 9, F).is_zero()


def test_u_cov_input_guards():
    reg = xreg()
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    with pytest.raises(ValueError):
        u_cov(3, 0, 1, form(x0**3))
    with pytest.raises(ValueError):
        u_cov(4, 0, 1, form(x0**3))
    # odd degree is refused when the expression is built, before any form
    for d, indices in [(3, (0, 1)), (5, (0, 1))]:
        with pytest.raises(ValueError):
            CovariantExpr("U", d, indices)
    with pytest.raises(ValueError):
        CovariantExpr("U", 4, (0, 1, 2))
    with pytest.raises(ValueError):
        CovariantExpr("V", 4, (0, 1))


# -- the coefficients ---------------------------------------------------------


def test_mu_values():
    assert mu(2, 0, 0) == 1
    assert mu(1, 1, 0) == Fraction(-1, 2)
    assert mu(4, 1, 4) == Fraction(-1, 1155)
    assert mu(4, 0, 6) == Fraction(-3, 715)
    assert mu(4, 0, 8) == Fraction(7, 1287)
    assert mu(4, 1, 6) == Fraction(5, 12936)


def test_mu_guards():
    with pytest.raises(ValueError):
        mu(4, 0, 3)
    with pytest.raises(ValueError):
        mu(2, 3, 0)


# -- the pair combinations ----------------------------------------------------


def test_phi_identical_pair_vanishes():
    reg = xreg()
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    F = form(x0**4 + x0 * x1**3)
    assert phi(4, 0, 2, 0, 2, F).is_zero()


def test_phi_index_constraints():
    reg = xreg()
    x0 = Poly.variable(reg, "x0")
    x1 = Poly.variable(reg, "x1")
    F = form(x0**4 + x1**4)
    malformed = [
        (4, (0, 2, 1, 1)),  # odd order
        (4, (0, 2, 1, 2)),  # weights differ
        (4, (0, 2, 3, 0)),  # second pair out of range
        (4, (0, 6, 1, 4)),  # first pair out of range
        (5, (0, 2, 1, 0)),  # odd degree
    ]
    for d, indices in malformed:
        with pytest.raises(ValueError):
            phi(d, *indices, F)
        # refused at construction, so set members and direct callers share the check
        with pytest.raises(ValueError):
            CovariantExpr("Phi", d, indices)
    with pytest.raises(ValueError):
        CovariantExpr("Phi", 4, (0, 2, 1))


def test_phi_kills_power_of_quadratic():
    reg = xreg()
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    F = form((x0 * x1) ** 4)
    assert phi(8, 0, 6, 1, 4, F).is_zero()
    assert phi(8, 0, 8, 1, 6, F).is_zero()


def test_phi_separates_generic_octavic():
    reg = xreg()
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    F = form(x0**8 + x0**5 * x1**3)
    assert not phi(8, 0, 6, 1, 4, F).is_zero()


# -- expression objects and the finite set ------------------------------------


def test_expr_names_and_orders():
    u = CovariantExpr("U", 4, (1, 1))
    assert u.name() == "U(1,1)"
    assert u.order == 3 * 4 - 4 - 2
    p = CovariantExpr("Phi", 8, (0, 6, 1, 4))
    assert p.name() == "Phi(0,6,1,4)"
    assert p.order == 3 * 8 - 0 - 12


def test_expr_equality_and_hash():
    a = CovariantExpr("U", 4, (1, 1))
    b = CovariantExpr("U", 4, (1, 1))
    c = CovariantExpr("U", 4, (0, 1))
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2


def test_expr_evaluate_matches_functions():
    reg = xreg()
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    F = form(x0**4 + 3 * x0 * x1**3)
    assert CovariantExpr("U", 4, (1, 1)).evaluate(F) == u_cov(4, 1, 1, F)
    assert CovariantExpr("Phi", 4, (0, 2, 1, 0)).evaluate(F) == phi(4, 0, 2, 1, 0, F)


def test_cache_belongs_to_one_form():
    reg = xreg()
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    G = form(x0**4 + x1**4)
    F = form(x0**3 * x1 + 2 * x1**4)
    expr = CovariantExpr("U", 4, (1, 1))
    cache = {}
    expr.evaluate(G, cache)
    with pytest.raises(ValueError, match="another form"):
        expr.evaluate(F, cache)
    want = Fraction(-1, 32) * x0**6 - Fraction(5, 4) * x0**3 * x1**3 + x1**6
    assert expr.evaluate(F).poly == want
    # an equal form, built apart, may share the cache
    assert expr.evaluate(form(x0**4 + x1**4), cache) == expr.evaluate(G)


def test_shared_cache_matches_definition():
    # every member of S(8) through one cache equals its definition from
    # normalized U's, each evaluated on its own
    rng = random.Random(808)
    reg = xreg()
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    coeffs = [rng.randint(-4, 4) for _ in range(8)] + [Fraction(1, 3)]
    F = form(sum((c * x0 ** (8 - t) * x1**t for t, c in enumerate(coeffs)), Poly.zero(reg)))
    cache = {}
    nonzero = []
    for expr in set_S(8):
        got = expr.evaluate(F, cache)
        if expr.kind == "U":
            want = u_cov(8, *expr.indices, F).poly
        else:
            i, j, i2, j2 = expr.indices
            want = mu(4, i2, j2) * u_cov(8, i, j, F).poly - mu(4, i, j) * u_cov(8, i2, j2, F).poly
        assert got.poly == want, expr.name()
        assert got.degree == expr.order
        if expr.kind == "Phi" and not got.is_zero():
            nonzero.append(expr.name())
    assert len(nonzero) == 7  # the Phi's with 2i+j >= 6 on this form


def _counting_kernel(monkeypatch):
    import invforge.covariant as covariant

    calls = []
    kernel = covariant._omega_diagonal

    def counting(a, b, k):
        calls.append(k)
        return kernel(a, b, k)

    monkeypatch.setattr(covariant, "_omega_diagonal", counting)
    return calls


def test_symbolic_member_evaluates_each_transvectant_once(monkeypatch):
    # (L1 L2)^6 runs through all of S(12): 7 inner (F,F)_{2i} and one outer
    # transvectant per distinct U(i,j) in the set, 65
    calls = _counting_kernel(monkeypatch)
    reg = xreg(["a0", "a1", "b0", "b1"])
    a0, a1, b0, b1, x0, x1 = (Poly.variable(reg, n) for n in reg.names)
    F = form(((a0 * x0 + a1 * x1) * (b0 * x0 + b1 * x1)) ** 6)
    assert membership(F) == (True, None)
    assert len(calls) == 72


@pytest.mark.parametrize(
    "members, kernel_calls",
    [(list(reversed(set_S(8))), 36), (octavic_preset(), 11)],
    ids=["reversed S(8)", "octavic preset"],
)
def test_cache_computes_each_transvectant_once_in_any_order(monkeypatch, members, kernel_calls):
    # one kernel call per distinct (F,F)_{2i} and per distinct U(i,j)
    calls = _counting_kernel(monkeypatch)
    F = generic_form(xreg(), 8)
    cache = {}
    got = [expr.evaluate(F, cache) for expr in members]
    pairs = {p for e in members for p in zip(e.indices[::2], e.indices[1::2])}
    assert len(calls) == len(pairs) + len({i for i, _ in pairs}) == kernel_calls
    assert got == [expr.evaluate(F) for expr in members]


def test_integer_member_takes_the_dense_route(monkeypatch):
    # an integer power of a quadratic runs all of S(12) by Kronecker
    # substitution; a symbolic member never takes that route
    import invforge.covariant as covariant
    import invforge.transvect as transvect

    calls = []
    dense = transvect._omega_dense

    def counting(A, B, k, ff=None):
        calls.append(k)
        return dense(A, B, k, ff)

    # the memo calls the kernel through covariant, _omega_diagonal through transvect
    monkeypatch.setattr(covariant, "_omega_dense", counting)
    monkeypatch.setattr(transvect, "_omega_dense", counting)
    reg = xreg()
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    assert membership(form((x0**2 + 3 * x0 * x1 - 2 * x1**2) ** 6)) == (True, None)
    assert len(calls) == 72
    calls.clear()
    reg = xreg(["a0", "a1", "b0", "b1"])
    a0, a1, b0, b1, x0, x1 = (Poly.variable(reg, n) for n in reg.names)
    assert membership(form(((a0 * x0 + a1 * x1) * (b0 * x0 + b1 * x1)) ** 4)) == (True, None)
    assert calls == []


_NONZERO = st.integers(-4, 4).filter(bool)


@settings(max_examples=30, deadline=None)
@given(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)),
    st.integers(2, 8),
    st.one_of(st.none(), st.tuples(st.integers(0, 16), _NONZERO)),
    st.data(),
)
def test_packed_route_matches_the_fraction_route(q, e, perturb, data):
    # an integer q^e, or q^e with one coefficient moved, takes the packed
    # route; the same form times 1/2 has Fraction coefficients and takes
    # weighted_sum.  Vanishing does not see the scale, and U and Phi are
    # cubic in F, so on the halved form they are 1/8 of the dense results.
    reg = xreg()
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    F = (q[0] * x0**2 + q[1] * x0 * x1 + q[2] * x1**2) ** e
    d = 2 * e
    if perturb is not None:
        t, delta = perturb
        F = F + delta * x0 ** (d - t % (d + 1)) * x1 ** (t % (d + 1))
    assume(F.dense_coefficients(X) is not None)
    dense, halved = form(F, d), form(F * Fraction(1, 2), d)
    assert membership(dense) == membership(halved)
    i = data.draw(st.integers(0, e), label="i")
    j = data.draw(st.integers(0, min(d, 2 * d - 4 * i)), label="j")
    assert u_cov(d, i, j, halved).poly == u_cov(d, i, j, dense).poly * Fraction(1, 8)
    phis = [x for x in set_S(d) if x.kind == "Phi"]
    if phis:
        indices = data.draw(st.sampled_from(phis), label="Phi").indices
        assert phi(d, *indices, halved).poly == phi(d, *indices, dense).poly * Fraction(1, 8)


def test_set_s_quartic_canonical_list():
    names = [expr.name() for expr in set_S(4)]
    assert names == [
        "U(0,1)",
        "U(1,1)",
        "U(0,3)",
        "U(1,3)",
        "Phi(0,2,1,0)",
        "Phi(0,4,1,2)",
        "Phi(1,2,2,0)",
    ]


def test_set_s_octavic_census():
    exprs = set_S(8)
    us = [e for e in exprs if e.kind == "U"]
    phis = [e for e in exprs if e.kind == "Phi"]
    assert len(us) == 14
    assert len(phis) == 12
    # all U entries take an odd outer index, all Phi weights are even and
    # ascending within the list
    assert all(e.indices[1] % 2 for e in us)
    weights = [2 * e.indices[0] + e.indices[1] for e in phis]
    assert weights == sorted(weights)
    assert all(w % 2 == 0 for w in weights)


def test_set_s_guards():
    with pytest.raises(ValueError):
        set_S(5)
    with pytest.raises(ValueError):
        set_S(2)


def test_set_s_vanishes_on_symbolic_quadratic_power():
    # (L1 L2)^2 with symbolic line coefficients kills every member at d=4
    reg = VarRegistry(["a0", "a1", "b0", "b1", "x0", "x1"])
    a0, a1, b0, b1, x0, x1 = (
        Poly.variable(reg, n) for n in ("a0", "a1", "b0", "b1", "x0", "x1")
    )
    Q = (a0 * x0 + a1 * x1) * (b0 * x0 + b1 * x1)
    F = form(Q**2, degree=4)
    cache = {}
    for expr in set_S(4):
        assert expr.evaluate(F, cache).is_zero(), expr.name()


def test_octavic_preset_members():
    names = [e.name() for e in octavic_preset()]
    assert names == [
        "U(0,3)",
        "U(0,5)",
        "U(0,7)",
        "Phi(0,6,1,4)",
        "Phi(0,8,1,6)",
        "U(3,3)",
    ]
    reg = xreg()
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    F = form(x0**5 * x1**3)
    cache = {}
    for expr in octavic_preset():
        assert not expr.evaluate(F, cache).is_zero(), expr.name()


# -- the decision procedure ---------------------------------------------------


def test_membership_examples():
    reg = xreg()
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    assert membership(form((x0**2 + x1**2) ** 2)) == (True, None)
    assert membership(form(x0**4 + x1**4)) == (False, "U(1,1)")
    assert membership(form((x0 * x1) ** 4)) == (True, None)
    ok, witness = membership(form(x0**8 + x1**8))
    assert not ok and witness


def test_membership_trivial_cases():
    reg = xreg()
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    assert membership(form(x0 * x1)) == (True, None)
    assert membership(BinaryForm(Poly.zero(reg), degree=4)) == (True, None)


def test_membership_guards():
    reg = xreg()
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    with pytest.raises(ValueError):
        membership(form(x0**3))
    with pytest.raises(ValueError):
        membership(form(x0 + x1))


def test_membership_rejects_random_quartics():
    # random integer quartics are almost never powers of quadratics; check
    # the detector and the membership test agree on a seeded sample
    rng = random.Random(404)
    reg = xreg()
    found = 0
    while found < 5:
        coeffs = [rng.randint(-9, 9) for _ in range(5)]
        if is_power_of_quadratic(coeffs):
            continue
        found += 1
        ok, witness = membership(quartic(reg, coeffs))
        assert not ok, coeffs
        assert witness


def test_membership_accepts_scaled_quadratic_powers():
    rng = random.Random(405)
    reg = xreg()
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    for _ in range(5):
        a, b, c = (rng.randint(-5, 5) for _ in range(3))
        Q = a * x0**2 + b * x0 * x1 + c * x1**2
        if Q.is_zero():
            continue
        s = rng.choice([1, 2, -3, Fraction(1, 2)])
        assert membership(form(s * Q**2, degree=4)) == (True, None)


def test_u_cov_and_phi_hold_their_omega_work_to_the_cap(monkeypatch):
    reg = xreg()
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    F = form(x0**4 + x1**4)
    # U(1,1): 3 branches for (F,F)_2 and 2 for (., F)_1, over F's 2 terms
    monkeypatch.setenv("INVFORGE_SIZE_CAP", "10")
    u_cov(4, 1, 1, F)
    monkeypatch.setenv("INVFORGE_SIZE_CAP", "9")
    with pytest.raises(ValueError, match=r"^U\(1,1\) would take 10 Omega branch terms, above"):
        u_cov(4, 1, 1, F)
    # Phi(0,2,1,0): U(0,2) takes 1 + 3 branches and U(1,0) 3 + 1
    monkeypatch.setenv("INVFORGE_SIZE_CAP", "16")
    phi(4, 0, 2, 1, 0, F)
    monkeypatch.setenv("INVFORGE_SIZE_CAP", "15")
    with pytest.raises(ValueError, match=r"^Phi\(0,2,1,0\) would take 16 Omega branch terms"):
        phi(4, 0, 2, 1, 0, F)
    # a U outside the window is the zero form, and costs nothing
    monkeypatch.setenv("INVFORGE_SIZE_CAP", "0")
    assert u_cov(4, 3, 0, F).is_zero()


def test_evaluate_refuses_past_the_cap_before_any_transvectant(monkeypatch):
    import invforge.covariant as covariant

    monkeypatch.setattr(covariant, "_omega_diagonal", None)
    reg = xreg()
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    d = 1048576
    F = form(x0**d + x1**d)
    # 1 branch for (F,F)_0 and d+1 for the outer one, over 2 terms
    with pytest.raises(ValueError, match=r"^U\(0,1048576\) would take 2097156 Omega"):
        CovariantExpr("U", d, (0, d)).evaluate(F)


def test_zero_form_evaluates_to_zero_at_once(monkeypatch):
    # no kernel call and no falling factorial of 2^20 in the scale
    import invforge.covariant as covariant

    monkeypatch.setattr(covariant, "_omega_diagonal", None)
    monkeypatch.setattr(covariant, "perm", None)
    d = 1048576
    zero = BinaryForm(Poly.zero(xreg()), d)
    out = CovariantExpr("U", d, (0, d)).evaluate(zero)
    assert out.is_zero() and out.degree == d
    assert phi(8, 0, 2, 1, 0, BinaryForm(Poly.zero(xreg()), 8)).is_zero()


@pytest.mark.parametrize(
    "power, estimate, want",
    [
        (lambda x0, x1: x0**4 + x1**4, 80, (False, "U(1,1)")),
        (lambda x0, x1: (x0**2 + 3 * x0 * x1 - 2 * x1**2) ** 4, 1584, (True, None)),
    ],
    ids=["x0^4 + x1^4", "quadratic^4"],
)
def test_membership_answers_at_its_own_estimate(monkeypatch, power, estimate, want):
    # each member's own check takes a part of the whole set's estimate, so
    # none refuses what membership admitted
    reg = xreg()
    F = form(power(Poly.variable(reg, "x0"), Poly.variable(reg, "x1")))
    monkeypatch.setenv("INVFORGE_SIZE_CAP", str(estimate))
    assert membership(F) == want
    monkeypatch.setenv("INVFORGE_SIZE_CAP", str(estimate - 1))
    with pytest.raises(ValueError, match=f"^membership would take {estimate} Omega"):
        membership(F)
