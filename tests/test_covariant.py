import random

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invforge.acceptance import is_power_of_quadratic
from invforge.covariant import (
    _RULE_MAX_D,
    CovariantExpr,
    covariants,
    _rows,
    _rule,
    _Window,
    in_range,
    membership,
    mu,
    octavic_preset,
    phi,
    set_S,
    spans_ideal,
    u_cov,
)
from invforge.plethysm import ideal_character
from invforge.poly import Poly, VarRegistry
from invforge.transvect import X, BinaryForm, generic_form, transvectant


def xreg(extra=()):
    return VarRegistry(list(extra) + ["x0", "x1"])


def form(poly, degree=None):
    return BinaryForm(poly, degree=degree)


def index_window(F):
    # the window membership builds: every U(i,j) of the index window
    d = F.degree
    return _Window(F, {i: range(min(d, 2 * d - 4 * i) + 1) for i in range(d // 2 + 1)}, "{}")


def kept(d):
    # the members membership evaluates, in canonical order
    return [x for x, keep in zip(set_S(d), _rule(d)[0]) if keep]


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


def _octavic_members():
    # the six covariants of criterion 7's two proportionalities
    members = [CovariantExpr("Phi", 8, (0, 6, 1, 4)), CovariantExpr("Phi", 8, (0, 8, 1, 6))]
    return members + [CovariantExpr("U", 8, ij) for ij in ((0, 6), (1, 4), (0, 8), (1, 6))]


def test_covariants_match_each_member_alone():
    # symbolic, dense integer, Fraction and zero forms; a U outside the
    # index window among them
    rng = random.Random(88)
    reg = xreg()
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    dense = sum((rng.randint(-5, 5) * x0 ** (8 - t) * x1**t for t in range(9)), Poly.zero(reg))
    forms = [
        generic_form(xreg([f"f{i}" for i in range(9)]), 8),
        form(dense),
        form(dense * Fraction(1, 3) + x0**8),
        form((x0**2 - 3 * x0 * x1 + x1**2) ** 4),
        BinaryForm(Poly.zero(reg), 8),
    ]
    members = _octavic_members() + [CovariantExpr("U", 8, (4, 1)), CovariantExpr("U", 8, (1, 3))]
    for F in forms:
        got = covariants(F, members)
        assert [g.degree for g in got] == [max(x.order, 0) for x in members]
        assert got == [x.evaluate(F) for x in members]


def test_covariants_read_one_window(monkeypatch):
    # the octavic six read (F,F)_0 and (F,F)_2 once each, and one table per
    # i up to its last j, where six lone evaluations take eight of each
    F = generic_form(xreg([f"f{i}" for i in range(9)]), 8)
    calls = _counting_kernels(monkeypatch)
    covariants(F, _octavic_members())
    assert calls["inner"] == [0, 2]
    assert calls["tables"] == [8, 6]
    assert _each_pair_multiplied_once(calls["products"])


def test_covariants_hold_their_work_together(monkeypatch):
    reg = xreg()
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    F = form(x0**4 + x1**4)
    members = [CovariantExpr("U", 4, (1, 1)), CovariantExpr("U", 4, (1, 3))]
    # (F,F)_2 once, 3 branches, then 2 + 4 for the outer ones, over 2 terms
    monkeypatch.setenv("INVFORGE_SIZE_CAP", "18")
    covariants(F, members)
    monkeypatch.setenv("INVFORGE_SIZE_CAP", "17")
    with pytest.raises(ValueError, match=r"^U\(1,1\), U\(1,3\) would take 18 Omega branch"):
        covariants(F, members)
    with pytest.raises(ValueError, match="^form has degree 4, expected 6$"):
        covariants(F, [CovariantExpr("U", 6, (1, 1))])


def test_cache_belongs_to_one_form():
    # a window memoizes the U's of the form it was built for
    reg = xreg()
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    G = form(x0**4 + x1**4)
    F = form(x0**3 * x1 + 2 * x1**4)
    expr = CovariantExpr("U", 4, (1, 1))
    window = index_window(G)
    assert expr.evaluate(G, window) is False
    with pytest.raises(ValueError, match="another form"):
        expr.evaluate(F, window)
    want = Fraction(-1, 32) * x0**6 - Fraction(5, 4) * x0**3 * x1**3 + x1**6
    assert expr.evaluate(F).poly == want
    # an equal form, built apart, may share the window
    assert expr.evaluate(form(x0**4 + x1**4), window) is False
    assert CovariantExpr("U", 4, (0, 1)).evaluate(form(x0**4 + x1**4), window) is True


def test_shared_cache_matches_definition():
    # every member of S(8) equals its definition from normalized U's, each
    # evaluated on its own, and vanishes through one shared window when
    # that answer is zero
    rng = random.Random(808)
    reg = xreg()
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    coeffs = [rng.randint(-4, 4) for _ in range(8)] + [Fraction(1, 3)]
    F = form(sum((c * x0 ** (8 - t) * x1**t for t, c in enumerate(coeffs)), Poly.zero(reg)))
    window = index_window(F)
    nonzero = []
    for expr in set_S(8):
        got = expr.evaluate(F)
        if expr.kind == "U":
            want = u_cov(8, *expr.indices, F).poly
        else:
            i, j, i2, j2 = expr.indices
            want = mu(4, i2, j2) * u_cov(8, i, j, F).poly - mu(4, i, j) * u_cov(8, i2, j2, F).poly
        assert got.poly == want, expr.name()
        assert got.degree == expr.order
        assert expr.evaluate(F, window) is got.is_zero(), expr.name()
        if expr.kind == "Phi" and not got.is_zero():
            nonzero.append(expr.name())
    assert len(nonzero) == 7  # the Phi's with 2i+j >= 6 on this form


def _counting_kernels(monkeypatch):
    # the k of each (F,F)_{2i} computed, the top of each table a window
    # builds, the k asked of those tables, and the group pairs multiplied
    import invforge.covariant as covariant
    import invforge.poly as poly

    calls = {"inner": [], "tables": [], "outer": [], "products": []}
    diagonal, table, multiply_into = covariant._omega_diagonal, Poly.omega_table, poly._multiply_into
    inner = []  # the k of the (F,F)_{2i} being computed, whose table is its own

    def counting_diagonal(a, b, k):
        calls["inner"].append(k)
        inner.append(k)
        try:
            return diagonal(a, b, k)
        finally:
            inner.pop()

    def counting_table(a, b, names, top):
        omega = table(a, b, names, top)
        if inner:
            return omega
        calls["tables"].append(top)

        def counting_omega(k):
            calls["outer"].append(k)
            return omega(k)

        return counting_omega

    def counting_multiply(acc, left, right):
        calls["products"].append((left, right))
        return multiply_into(acc, left, right)

    monkeypatch.setattr(covariant, "_omega_diagonal", counting_diagonal)
    monkeypatch.setattr(Poly, "omega_table", staticmethod(counting_table))
    monkeypatch.setattr(poly, "_multiply_into", counting_multiply)
    return calls


def _each_pair_multiplied_once(products):
    # a table keeps its groups' term lists, so a pair of lists is a pair of
    # groups of one table
    return len({(id(left), id(right)) for left, right in products}) == len(products)


def test_symbolic_member_evaluates_each_transvectant_once(monkeypatch):
    # (L1 L2)^6 runs through the 16 kept members of S(12): 6 inner
    # (F,F)_{2i}, one table per i up to the last j its members read, and one
    # ask per distinct U(i,j) they read, 21; each table multiplies a pair of
    # groups once
    reg = xreg(["a0", "a1", "b0", "b1"])
    a0, a1, b0, b1, x0, x1 = (Poly.variable(reg, n) for n in reg.names)
    F = form(((a0 * x0 + a1 * x1) * (b0 * x0 + b1 * x1)) ** 6)
    calls = _counting_kernels(monkeypatch)
    assert membership(F) == (True, None)
    assert calls["inner"] == [0, 2, 4, 6, 8, 10]
    assert calls["tables"] == [12, 12, 10, 3, 7, 3]
    assert len(calls["outer"]) == 21
    assert _each_pair_multiplied_once(calls["products"])


def test_symbolic_member_of_degree_10_multiplies_each_product_once(monkeypatch):
    # the 11 kept members of S(10) on (L1 L2)^5 take 20 transvectants:
    # (F,F)_0 = F * F, 4 more one-shot inner tables and 5 shared ones make
    # 1,038 distinct products in all; all of S(10) made 1,072, and one
    # product per pair of groups and ask made 5,900
    import invforge.poly as poly

    reg = xreg(["a0", "a1", "b0", "b1"])
    a0, a1, b0, b1, x0, x1 = (Poly.variable(reg, n) for n in reg.names)
    F = form(((a0 * x0 + a1 * x1) * (b0 * x0 + b1 * x1)) ** 5)
    calls = []
    multiply_into = poly._multiply_into

    def counting(acc, left, right):
        calls.append(1)
        return multiply_into(acc, left, right)

    monkeypatch.setattr(poly, "_multiply_into", counting)
    assert membership(F) == (True, None)
    assert len(calls) <= 1200


@pytest.mark.parametrize(
    "members, kernel_calls",
    [(list(reversed(set_S(8))), 36), (octavic_preset(), 11)],
    ids=["reversed S(8)", "octavic preset"],
)
def test_cache_computes_each_transvectant_once_in_any_order(monkeypatch, members, kernel_calls):
    # through the whole index window: one kernel call per distinct
    # (F,F)_{2i}, one table per distinct i up to that i's top, asked once
    # per distinct U(i,j), and each group pair multiplied once
    F = generic_form(xreg(), 8)
    calls = _counting_kernels(monkeypatch)
    window = index_window(F)
    got = [expr.evaluate(F, window) for expr in members]
    pairs = {p for e in members for p in zip(e.indices[::2], e.indices[1::2])}
    inner = {i for i, _ in pairs}
    assert sorted(calls["inner"]) == sorted(2 * i for i in inner)
    assert sorted(calls["tables"]) == sorted(min(8, 16 - 4 * i) for i in inner)
    assert len(calls["outer"]) == len(pairs)
    assert len(calls["inner"]) + len(calls["outer"]) == kernel_calls
    assert _each_pair_multiplied_once(calls["products"])
    # alone, a member's tables stop at its own j's
    for expr, vanishes in zip(members, got):
        for kept in calls.values():
            kept.clear()
        assert expr.evaluate(F).is_zero() is vanishes, expr.name()
        assert calls["tables"] == list(expr.indices[1::2]), expr.name()


def test_zero_test_scales_nothing_and_builds_no_answer(monkeypatch):
    # through a window, evaluate says whether each member vanishes, as the
    # evaluated form does, from the raw combination: no scalar product and
    # no Poly of the answer, on symbolic, dense integer and Fraction forms
    reg = xreg(["a0", "a1", "b0", "b1"])
    a0, a1, b0, b1, x0, x1 = (Poly.variable(reg, n) for n in reg.names)
    forms = [  # (form, member)
        (form(((a0 * x0 + a1 * x1) * (b0 * x0 + b1 * x1)) ** 4), True),
        (form(((a0 * x0 + a1 * x1) * (b0 * x0 + b1 * x1)) ** 3 * (a0 * x0**2 + b1 * x1**2)), False),
        (form((x0**2 + 3 * x0 * x1 - 2 * x1**2) ** 4), True),
        (form(x0**8 - 2 * x0**5 * x1**3 + 7 * x1**8), False),
        (form((x0**2 * Fraction(1, 3) - x1**2) ** 4 + x0**4 * x1**4 * Fraction(1, 5)), False),
    ]
    for F, member in forms:
        want = [expr.evaluate(F).is_zero() for expr in set_S(8)]
        assert all(want) == member

        def refuse(*args):
            raise AssertionError("the answer was built")

        def product_only(self, other):
            # (F,F)_0 is the product F * F; no Poly is scaled
            assert isinstance(other, Poly), "the answer was scaled"
            return multiply(self, other)

        multiply = Poly.__mul__
        monkeypatch.setattr(Poly, "__mul__", product_only)
        monkeypatch.setattr(Poly, "__rmul__", product_only)
        monkeypatch.setattr(Poly, "from_slots", refuse)
        window = index_window(F)
        got = [expr.evaluate(F, window) for expr in set_S(8)]
        monkeypatch.undo()
        assert got == want


def test_integer_member_takes_the_dense_route(monkeypatch):
    # an integer power of a quadratic runs the kept members of S(12) by
    # Kronecker substitution, 6 inner and 21 outer transvectants; a symbolic
    # member never takes that route
    import invforge.covariant as covariant
    import invforge.transvect as transvect

    calls = []
    dense = transvect._omega_dense

    def counting(A, B, k, ff=None, cap=None):
        calls.append(k)
        return dense(A, B, k, ff, cap)

    # the window calls the kernel through covariant, _omega_diagonal through transvect
    monkeypatch.setattr(covariant, "_omega_dense", counting)
    monkeypatch.setattr(transvect, "_omega_dense", counting)
    reg = xreg()
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    assert membership(form((x0**2 + 3 * x0 * x1 - 2 * x1**2) ** 6)) == (True, None)
    assert len(calls) == 27
    calls.clear()
    reg = xreg(["a0", "a1", "b0", "b1"])
    a0, a1, b0, b1, x0, x1 = (Poly.variable(reg, n) for n in reg.names)
    assert membership(form(((a0 * x0 + a1 * x1) * (b0 * x0 + b1 * x1)) ** 4)) == (True, None)
    assert calls == []


def test_dense_membership_reads_the_cap_once(monkeypatch):
    # one window holds the whole set's work; no member checks its own
    import invforge.arith as arith

    reads = []
    size_cap = arith.size_cap

    def counting():
        reads.append(1)
        return size_cap()

    reg = xreg()
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    F = form((x0**2 + 3 * x0 * x1 - 2 * x1**2) ** 6)
    ideal_character(3, 12)  # the rule's partition table, built once per process
    monkeypatch.setattr(arith, "size_cap", counting)
    assert membership(F) == (True, None)
    assert len(reads) == 1


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
    st.integers(2, 10),
    st.one_of(st.none(), st.tuples(st.integers(0, 20), st.sampled_from([-1, 1]))),
)
def test_membership_agrees_with_the_power_oracle(q, e, moved):
    # an integer q^e, or q^e with one coefficient moved by one, against the
    # independent integer oracle, past the desk grid's d <= 8; the kept
    # members decide as all of S(d) does, and the witness is the first kept
    # member that does not vanish
    coeffs = [0] * (2 * e + 1)
    coeffs[0] = 1
    for _ in range(e):
        coeffs = [sum(q[s] * coeffs[t - s] for s in range(3) if 0 <= t - s) for t in range(2 * e + 1)]
    if moved is not None:
        coeffs[moved[0] % (2 * e + 1)] += moved[1]
    reg = xreg()
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    F = sum((c * x0 ** (2 * e - t) * x1**t for t, c in enumerate(coeffs)), Poly.zero(reg))
    F = form(F, 2 * e)
    member, witness = membership(F)
    assert member == is_power_of_quadratic(coeffs)
    members = set_S(2 * e)
    window = _Window(F, _rows(members), "{}")
    vanishes = {expr: expr.evaluate(F, window) for expr in members}
    assert all(vanishes.values()) == member
    assert witness == next((x.name() for x in kept(2 * e) if not vanishes[x]), None)


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
    # the Omega tables.  Vanishing does not see the scale, and U and Phi are
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
    window = index_window(F)
    for expr in set_S(4):
        assert expr.evaluate(F).is_zero(), expr.name()
        assert expr.evaluate(F, window) is True, expr.name()


@pytest.mark.parametrize("d", [6, 8, 10, 12])
def test_every_member_of_S_vanishes_on_a_symbolic_power(d):
    # membership reads only the kept members, so this is what holds all of
    # S(d) in I_3: each member vanishes on (L1 L2)^e, an identity in the
    # lines' coefficients (d = 4 is the test above)
    reg = xreg(["a0", "a1", "b0", "b1"])
    a0, a1, b0, b1, x0, x1 = (Poly.variable(reg, n) for n in reg.names)
    F = form(((a0 * x0 + a1 * x1) * (b0 * x0 + b1 * x1)) ** (d // 2), d)
    members = set_S(d)
    window = _Window(F, _rows(members), "{}")
    assert [x.name() for x in members if not x.evaluate(F, window)] == []


def test_rule_keeps_one_member_per_irreducible():
    # U(0,1), identically zero, then one member per irreducible of I_3:
    # 15 of the 57 in S(12)
    names = [x.name() for x in kept(12)]
    assert names == [
        "U(0,1)",
        *(f"U({i},1)" for i in range(1, 6)),
        "U(3,3)",
        "U(4,3)",
        "U(5,3)",
        "U(4,7)",
        *(f"Phi(0,{2 * k},1,{2 * k - 2})" for k in range(3, 7)),
        "Phi(1,10,2,8)",
        "Phi(1,12,2,10)",
    ]
    assert sum(ideal_character(3, 12).values()) == 15


@pytest.mark.parametrize("d", range(4, _RULE_MAX_D + 1, 2))
def test_kept_members_span_the_cubic_ideal(d):
    # the certificate membership's exactness rests on, at every degree the
    # rule is used: after U(0,1), the kept orders are I_3's weights with
    # their multiplicities, and their sources reach full rank
    chosen = kept(d)
    assert chosen[0].name() == "U(0,1)"
    assert Counter(x.order for x in chosen[1:]) == ideal_character(3, d)
    assert spans_ideal(chosen)
    assert _rule(d)[1] == _rows(chosen)


def test_membership_evaluates_all_of_S_past_the_rule(monkeypatch):
    # an integer power of a quadratic at d = 34 runs every member of S(34)
    # through the whole index window
    d = _RULE_MAX_D + 2
    evaluated = []
    evaluate = CovariantExpr.evaluate

    def counting(self, F, window=None):
        evaluated.append(self)
        return evaluate(self, F, window)

    monkeypatch.setattr(CovariantExpr, "evaluate", counting)
    reg = xreg()
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    assert membership(form((x0**2 + 3 * x0 * x1 - 2 * x1**2) ** (d // 2))) == (True, None)
    assert evaluated == set_S(d)
    assert _rule(d)[1] == {i: range(min(d, 2 * d - 4 * i) + 1) for i in range(d // 2 + 1)}


def test_certificate_accepts_spanning_sets_and_refuses_smaller_ones():
    # the octavic preset has one member per weight of I_3, as the kept set
    # does; the certificate takes both and all of S(8), and refuses the kept
    # set less any one member, or with a member of a weight of multiplicity
    # 2 (U(3,3), order 18 at d = 12) replaced by the other one (U(4,1))
    preset = octavic_preset()
    assert Counter(x.order for x in preset) == ideal_character(3, 8)
    chosen = kept(8)[1:]
    assert spans_ideal(preset) and spans_ideal(chosen) and spans_ideal(set_S(8))
    for k, dropped in enumerate(chosen):
        assert not spans_ideal(chosen[:k] + chosen[k + 1:]), dropped.name()
    chosen = kept(12)
    doubled = [CovariantExpr("U", 12, (4, 1)) if x.name() == "U(3,3)" else x for x in chosen]
    assert Counter(x.order for x in doubled) == Counter(x.order for x in chosen)
    assert spans_ideal(chosen) and not spans_ideal(doubled)


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
    window = index_window(F)
    for expr in octavic_preset():
        assert not expr.evaluate(F).is_zero(), expr.name()
        assert expr.evaluate(F, window) is False, expr.name()


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
    # the independent oracle guards its degree the same way
    with pytest.raises(ValueError, match="^need an even degree >= 2, got 3$"):
        is_power_of_quadratic([1, 0, 0, 1])


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
        # U(0,1) and U(1,1): (1 + 2) + (3 + 2) branches over 2 terms
        (lambda x0, x1: x0**4 + x1**4, 16, (False, "U(1,1)")),
        # the 7 kept members of S(8) read 9 U's: 56 branches over 9 terms
        (lambda x0, x1: (x0**2 + 3 * x0 * x1 - 2 * x1**2) ** 4, 504, (True, None)),
    ],
    ids=["x0^4 + x1^4", "quadratic^4"],
)
def test_membership_answers_at_its_own_estimate(monkeypatch, power, estimate, want):
    # one window holds the kept members' estimate and no member checks its
    # own, so membership answers at exactly that cap
    reg = xreg()
    F = form(power(Poly.variable(reg, "x0"), Poly.variable(reg, "x1")))
    # the rule's partition table, 9d + 12 steps, is built once per process;
    # at d = 4 it takes more than the window
    ideal_character(3, F.degree)
    monkeypatch.setenv("INVFORGE_SIZE_CAP", str(estimate))
    assert membership(F) == want
    monkeypatch.setenv("INVFORGE_SIZE_CAP", str(estimate - 1))
    with pytest.raises(ValueError, match=f"^membership would take {estimate} Omega"):
        membership(F)
