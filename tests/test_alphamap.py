import itertools
import random

from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from invforge.alphamap import (
    ExactMatrix,
    alpha_image,
    alpha_matrix,
    alpha_rank,
    monomial_exponents,
    s2_dim,
    sym_dim,
)
from invforge.arith import DEFAULT_SIZE_CAP, SIZE_CAP_ENV
from invforge.plethysm import m0
from invforge.poly import Poly, VarRegistry
from invforge.transvect import BinaryForm, pi_p, transvectant


# -- dimensions and bases -----------------------------------------------------


def test_dimension_helpers():
    assert sym_dim(1, 4) == 5
    assert sym_dim(2, 4) == 15
    assert s2_dim(5) == 15
    assert s2_dim(1) == 1


def test_monomial_exponents_order():
    assert monomial_exponents(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomial_exponents(3, 2) == [
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    ]
    for nvars, deg in [(2, 5), (3, 4), (4, 3)]:
        mons = monomial_exponents(nvars, deg)
        assert len(mons) == sym_dim(nvars - 1, deg)
        assert all(sum(m) == deg for m in mons)
        assert len(set(mons)) == len(mons)

    def recursive(nvars, degree):
        if nvars == 1:
            return [(degree,)]
        return [
            (first,) + rest
            for first in range(degree, -1, -1)
            for rest in recursive(nvars - 1, degree - first)
        ]

    for nvars in range(1, 5):
        for deg in range(7):
            assert monomial_exponents(nvars, deg) == recursive(nvars, deg)
    # no monomial has a negative degree, and many variables cost one step
    # each (the row of alpha-rank --n 19999 --d 0)
    assert monomial_exponents(1, -1) == []
    assert monomial_exponents(20_000, 0) == [(0,) * 20_000]


def test_exact_matrix_shape_validation():
    mat = ExactMatrix(["a", "b"], ["c"], [{0: 1}, {}])
    assert mat.shape == (2, 1) and mat.sparse == [{0: 1}, {}]
    with pytest.raises(ValueError, match="1 sparse rows for 2 row labels"):
        ExactMatrix(["a", "b"], ["c"], [{0: 1}])
    with pytest.raises(ValueError, match="must be a dict"):
        ExactMatrix(["a"], ["c"], [[1]])
    with pytest.raises(ValueError, match=r"in range\(2\)"):
        ExactMatrix(["a"], ["c", "d"], [{2: 1}])
    with pytest.raises(ValueError, match=r"in range\(2\)"):
        ExactMatrix(["a"], ["c", "d"], [{-1: 1}])
    with pytest.raises(ValueError, match="nonzero entries"):
        ExactMatrix(["a"], ["c", "d"], [{0: 1, 1: Fraction(0)}])


# -- exact rank ---------------------------------------------------------------


def dense_rank(rows, ncols=None):
    """ExactMatrix.rank of a dense list of rows, stored sparse."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    sparse = [{j: x for j, x in enumerate(r) if x} for r in rows]
    return ExactMatrix(range(len(rows)), range(ncols), sparse).rank()


def dense(mat):
    """The dense list-of-rows view of an ExactMatrix."""
    return [[row.get(j, 0) for j in range(len(mat.cols))] for row in mat.sparse]


def naive_rank(rows):
    """Textbook Gauss-Jordan over Fraction, as an independent oracle."""
    M = [[Fraction(x) for x in r] for r in rows]
    if not M:
        return 0
    rank = 0
    for c in range(len(M[0])):
        piv = next((i for i in range(rank, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = M[rank][c]
        for i in range(len(M)):
            if i != rank and M[i][c]:
                f = M[i][c] / inv
                M[i] = [a - f * b for a, b in zip(M[i], M[rank])]
        rank += 1
    return rank


def test_exact_rank_basics():
    eye = [[int(i == j) for j in range(5)] for i in range(5)]
    assert dense_rank(eye) == 5
    assert dense_rank([[0] * 4 for _ in range(3)]) == 0
    assert dense_rank([]) == 0
    assert dense_rank([[], []]) == 0
    assert dense_rank([], ncols=3) == 0
    # rank-one outer product
    outer = [[u * v for v in (1, -2, 3, 5, 0, 7)] for u in (2, -1, 4, 3)]
    assert dense_rank(outer) == 1
    assert dense_rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]) == 1


def test_exact_rank_matches_naive_oracle():
    rng = random.Random(11)
    for _ in range(60):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)

        def entry():
            if rng.random() < 0.3:
                return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            return rng.randint(-9, 9)

        rows = [[entry() for _ in range(nc)] for _ in range(nr)]
        assert dense_rank(rows) == naive_rank(rows), rows
    # tall, wide and square products A*B through an inner size k: rank k
    # at most, with entries large enough that the content division matters
    for nr, nc, k in [(30, 12, 7), (12, 30, 7), (20, 20, 13), (25, 25, 25)]:
        A = [[rng.randint(-99, 99) for _ in range(k)] for _ in range(nr)]
        B = [[Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(nc)]
             for _ in range(k)]
        rows = [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(nc)] for i in range(nr)]
        assert dense_rank(rows) == naive_rank(rows), (nr, nc, k)


entries_st = st.integers(-6, 6) | st.fractions(
    min_value=-6, max_value=6, max_denominator=4
)


@st.composite
def small_matrices(draw):
    """Dense rows, a third of them a product A*B with a short inner size, so
    that rank-deficient matrices are common."""
    nr, nc = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if draw(st.integers(0, 2)):
        return [draw(st.lists(entries_st, min_size=nc, max_size=nc)) for _ in range(nr)]
    k = draw(st.integers(0, min(nr, nc) - 1))
    A = [draw(st.lists(entries_st, min_size=k, max_size=k)) for _ in range(nr)]
    B = [draw(st.lists(entries_st, min_size=nc, max_size=nc)) for _ in range(k)]
    return [
        [sum((A[i][t] * B[t][j] for t in range(k)), 0) for j in range(nc)] for i in range(nr)
    ]


@settings(max_examples=80, deadline=None)
@given(small_matrices())
def test_matrix_rank_matches_naive(rows):
    assert dense_rank(rows) == naive_rank(rows)


def test_rank_with_multiples_of_a_large_prime():
    # entries that vanish modulo the prime 2^61 - 1 (or divide by it) are
    # plain integers and rationals to the elimination over the integers
    P = 2**61 - 1
    for rows in (
        [[P]],
        [[1, 1], [1, 1 + P]],
        [[Fraction(P, 3)]],
        [[1, 1], [1, 2 + P]],
        [[Fraction(1, P)]],
        [[P, 2 * P], [3 * P, 6 * P]],
        [[P, 1], [P * P, P], [0, Fraction(1, P)]],
    ):
        assert dense_rank(rows) == naive_rank(rows), rows


# -- the polarization map -----------------------------------------------------


def test_alpha_image_single_power():
    # one factor: x0^(2e) polarized e times is a falling-factorial multiple
    # of x0^e y0^e
    for e in (1, 2, 3):
        reg = VarRegistry(["x0"])
        F = Poly.variable(reg, "x0") ** (2 * e)
        out = alpha_image([F], e, 0)
        x0 = Poly.variable(out.registry, "x0")
        y0 = Poly.variable(out.registry, "y0")
        scale = 1
        for t in range(e):
            scale *= 2 * e - t
        assert out == scale * x0**e * y0**e


def test_alpha_image_pair_of_quadratics():
    reg = VarRegistry(["x0", "x1"])
    F = Poly.variable(reg, "x0") * Poly.variable(reg, "x1")
    out = alpha_image([F, F], 1, 1)
    x0, x1, y0, y1 = (Poly.variable(out.registry, n) for n in ("x0", "x1", "y0", "y1"))
    assert out == (x0 * y1 + x1 * y0) ** 2


def test_alpha_image_bidegree_and_symmetry():
    reg = VarRegistry(["x0", "x1", "x2"])
    x0, x1, x2 = (Poly.variable(reg, n) for n in ("x0", "x1", "x2"))
    forms = [x0 * x1 + x2**2, x0**2 - 3 * x1 * x2]
    out = alpha_image(forms, 1, 2)
    xnames = ["x0", "x1", "x2"]
    ynames = ["y0", "y1", "y2"]
    assert not out.is_zero()
    assert out.is_homogeneous_in(xnames, 2)
    assert out.is_homogeneous_in(ynames, 2)
    swap = {}
    for xn, yn in zip(xnames, ynames):
        swap[xn] = Poly.variable(out.registry, yn)
        swap[yn] = Poly.variable(out.registry, xn)
    assert out.substitute(swap) == out


def test_alpha_image_carries_coefficient_variables():
    reg = VarRegistry(["a", "b", "c", "x0", "x1"])
    a, b, c, x0, x1 = (Poly.variable(reg, n) for n in ("a", "b", "c", "x0", "x1"))
    F = a * x0**2 + b * x0 * x1 + c * x1**2
    out = alpha_image([F, F], 1, 1)
    assert out.uses("a") and out.uses("b") and out.uses("c")
    assert out.is_homogeneous_in(["x0", "x1"], 2)
    assert out.is_homogeneous_in(["a", "b", "c"], 2)


def test_alpha_image_registry_appends_y_names():
    reg = VarRegistry(["a", "x0", "x1"])
    a, x0, x1 = (Poly.variable(reg, n) for n in ("a", "x0", "x1"))
    out = alpha_image([a * x0 * x1, x1**2], 1, 1)
    assert out.registry.names == ("a", "x0", "x1", "y0", "y1")


def test_alpha_image_refuses_y_name_in_form_registry():
    reg = VarRegistry(["x0", "x1", "y0"])
    x0 = Poly.variable(reg, "x0")
    with pytest.raises(ValueError, match=r"^duplicate variable name 'y0'$"):
        alpha_image([x0**2], 1, 1)


def test_alpha_image_rejects_bad_arguments():
    reg = VarRegistry(["x0", "x1"])
    x0 = Poly.variable(reg, "x0")
    with pytest.raises(ValueError, match=r"^alpha_image needs e >= 0 and n >= 0, got \(-1, 1\)$"):
        alpha_image([Poly.zero(reg)], -1, 1)
    stranger = Poly.variable(VarRegistry(["x0", "x1"]), "x0")
    with pytest.raises(ValueError, match="^all forms must share one registry$"):
        alpha_image([x0**2, stranger**2], 1, 1)
    with pytest.raises(ValueError, match="^form registry lacks variable 'x1'$"):
        alpha_image([Poly.variable(VarRegistry(["x0"]), "x0") ** 2], 1, 1)


def test_alpha_image_degree_mismatch():
    reg = VarRegistry(["x0", "x1"])
    x0 = Poly.variable(reg, "x0")
    with pytest.raises(ValueError):
        alpha_image([x0**3], 1, 1)
    with pytest.raises(ValueError):
        alpha_image([x0**2 + x0], 1, 1)
    with pytest.raises(ValueError):
        alpha_image([], 1, 1)


# -- the matrix ---------------------------------------------------------------


def test_alpha_matrix_shapes():
    assert alpha_matrix(1, 4, 2).shape == (15, 15)
    assert alpha_matrix(1, 4, 1).shape == (6, 5)
    assert alpha_matrix(2, 4, 2).shape == (120, 120)


def test_alpha_matrix_input_guards():
    with pytest.raises(ValueError):
        alpha_matrix(1, 3, 2)
    with pytest.raises(ValueError):
        alpha_matrix(1, 4, 0)
    with pytest.raises(ValueError, match="n >= 0"):
        alpha_matrix(-1, 4, 2)
    with pytest.raises(ValueError, match="d >= 0"):
        alpha_matrix(1, -4, 2)
    with pytest.raises(ValueError, match="nvars >= 1"):
        monomial_exponents(0, 4)


def test_alpha_matrix_columns_reconstruct_images():
    # expanding a column back over the pair basis recovers alpha applied to
    # the column's monomial multiset
    mat = alpha_matrix(1, 4, 2)
    reg = VarRegistry(["x0", "x1", "y0", "y1"])

    def mono(names, exps):
        return Poly.term(reg, 1, dict(zip(names, exps)))

    xn, yn = ["x0", "x1"], ["y0", "y1"]
    for c in (0, 7, 14):
        recon = Poly.zero(reg)
        for label, row in zip(mat.rows, mat.sparse):
            coeff = row.get(c)
            if not coeff:
                continue
            ea, eb = label
            term = mono(xn, ea) * mono(yn, eb)
            if ea != eb:
                term = term + mono(xn, eb) * mono(yn, ea)
            recon = recon + coeff * term
        src = VarRegistry(["x0", "x1"])
        forms = [Poly.term(src, 1, dict(zip(xn, exps))) for exps in mat.cols[c]]
        assert recon == alpha_image(forms, 2, 1).lift(reg)


def symbolic_alpha_matrix(n, d, r):
    """Row labels, column labels and dense entries of the alpha_r matrix,
    assembled column by column from alpha_image."""
    e = d // 2
    dmons = monomial_exponents(n + 1, d)
    remons = monomial_exponents(n + 1, r * e)
    lookup = {m: i for i, m in enumerate(remons)}
    pairs = [(a, b) for a in range(len(remons)) for b in range(a, len(remons))]
    row_of = {pair: i for i, pair in enumerate(pairs)}
    combos = list(itertools.combinations_with_replacement(range(len(dmons)), r))
    xn = [f"x{l}" for l in range(n + 1)]
    reg = VarRegistry(xn)
    entries = [[0] * len(combos) for _ in pairs]
    for c, combo in enumerate(combos):
        forms = [Poly.term(reg, 1, dict(zip(xn, dmons[i]))) for i in combo]
        image = alpha_image(forms, e, n)
        for exps, coeff in image.exponent_terms().items():
            named = dict(zip(image.registry.names, exps))
            a = lookup[tuple(named[f"x{l}"] for l in range(n + 1))]
            b = lookup[tuple(named[f"y{l}"] for l in range(n + 1))]
            if a >= b:
                entries[row_of[(b, a)]][c] += coeff
    rows = [(remons[a], remons[b]) for a, b in pairs]
    cols = [tuple(dmons[i] for i in combo) for combo in combos]
    return rows, cols, entries


@pytest.mark.parametrize(
    "n,d,r",
    [(1, d, r) for d in (2, 4, 6) for r in (1, 2, 3)] + [(2, 4, 1), (2, 4, 2)],
)
def test_closed_build_matches_symbolic_polarization(n, d, r):
    mat = alpha_matrix(n, d, r)
    assert (mat.rows, mat.cols, dense(mat)) == symbolic_alpha_matrix(n, d, r)
    assert all(all(row.values()) for row in mat.sparse)


def test_alpha_matrix_size_cap(monkeypatch):
    monkeypatch.setenv(SIZE_CAP_ENV, "10")
    with pytest.raises(ValueError, match=SIZE_CAP_ENV):
        alpha_matrix(1, 4, 2)
    monkeypatch.setenv(SIZE_CAP_ENV, "1000")
    assert alpha_matrix(1, 4, 2).shape == (15, 15)


# -- ranks --------------------------------------------------------------------


def test_alpha_matrix_cap_counts_term_pairs(monkeypatch):
    # 15 rows and 2 * 15 label monomials fit a cap of 58; the 59 term pairs
    # the build multiplies (24 of them stored as nonzeros) do not
    monkeypatch.setenv(SIZE_CAP_ENV, "59")
    assert sum(len(row) for row in alpha_matrix(1, 4, 2).sparse) == 24
    monkeypatch.setenv(SIZE_CAP_ENV, "58")
    pairs = "^matrix build reaches 59 multiplied term pairs at column 15 of 15, above"
    with pytest.raises(ValueError, match=f"{pairs} the cap of 58 .*{SIZE_CAP_ENV}"):
        alpha_matrix(1, 4, 2)
    # 5151 rows and 100 * 5151 label monomials fit; 13 million pairs do not
    monkeypatch.setenv(SIZE_CAP_ENV, "600000")
    with pytest.raises(ValueError, match="multiplied term pairs at column .*cap of 600000 "):
        alpha_matrix(1, 2, 100)
    # a dimension above the cap is refused before any column is built
    monkeypatch.setenv(SIZE_CAP_ENV, "3000")
    with pytest.raises(ValueError, match="1035 rows and 3060 columns"):
        alpha_matrix(2, 4, 4)
    # so are the column labels, r monomials each, even for a 1x1 matrix
    monkeypatch.setenv(SIZE_CAP_ENV, "10")
    with pytest.raises(ValueError, match="r = 11 monomials"):
        alpha_matrix(0, 4, 11)
    assert alpha_rank(0, 4, 10) == {"rows": 1, "cols": 1, "rank": 1}
    monkeypatch.delenv(SIZE_CAP_ENV)
    assert alpha_matrix(0, 4, 10).sparse == [{0: 12**10}]
    # 501501 rows and columns each fit the default cap, their labels do not
    monkeypatch.setenv(SIZE_CAP_ENV, str(DEFAULT_SIZE_CAP))
    with pytest.raises(ValueError, match="501501 columns of r = 1000 monomials"):
        alpha_matrix(1, 2, 1000)


def test_alpha_rank_ternary_quartic_at_m0():
    # r = m0(2,2) = 4: full row rank, 1035 = dim S^2(S^8 C^3)
    r = m0(2, 2)
    assert r == 4
    assert s2_dim(sym_dim(2, 2 * r)) == 1035
    assert alpha_rank(2, 4, r) == {"rows": 1035, "cols": 3060, "rank": 1035}


def test_rank_deficient_at_alpha_size():
    # the rows of the (2,4,3) matrix twice over, the second copy scaled by
    # -1/3: 812 x 680 of rank 406
    mat = alpha_matrix(2, 4, 3)
    assert mat.shape == (406, 680)
    scaled = [{j: x * Fraction(-1, 3) for j, x in row.items()} for row in mat.sparse]
    stacked = ExactMatrix(mat.rows * 2, mat.cols, mat.sparse + scaled)
    assert stacked.shape == (812, 680)
    assert stacked.rank() == 406


def test_alpha_rank_reports():
    assert alpha_rank(1, 4, 2) == {"rows": 15, "cols": 15, "rank": 15}
    assert alpha_rank(1, 4, 1) == {"rows": 6, "cols": 5, "rank": 5}


def test_alpha_surjective_small():
    for d, r in [(4, 2), (4, 3), (6, 2)]:
        e = d // 2
        report = alpha_rank(1, d, r)
        assert report["rank"] == s2_dim(r * e + 1), (d, r)


# -- projection consistency ---------------------------------------------------


def proportional(A, B):
    """True iff A == c*B for one nonzero rational c."""
    if A.is_zero() or B.is_zero():
        return False
    exps, cb = next(iter(B.terms.items()))
    ca = A.terms.get(exps, 0)
    return ca != 0 and A * cb == B * ca


def test_projection_consistency_symbolic():
    # collapsing the image of (L_1^d, ..., L_r^d) with the p-th projection
    # agrees, up to one global scalar, with ((L_1...L_r)^e, (L_1...L_r)^e)_{2p}
    for r, e, ps in [(2, 1, (0, 1)), (3, 1, (0, 1)), (2, 2, (1, 2))]:
        lnames = [f"l{i}_{s}" for i in range(r) for s in (0, 1)]
        reg = VarRegistry(lnames + ["x0", "x1"])
        x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
        lines = [
            Poly.variable(reg, f"l{i}_0") * x0 + Poly.variable(reg, f"l{i}_1") * x1
            for i in range(r)
        ]
        image = alpha_image([L ** (2 * e) for L in lines], e, 1)
        Q = Poly.const(image.registry, 1)
        for i in range(r):
            Q = Q * (
                Poly.variable(image.registry, f"l{i}_0")
                * Poly.variable(image.registry, "x0")
                + Poly.variable(image.registry, f"l{i}_1")
                * Poly.variable(image.registry, "x1")
            )
        Qe = BinaryForm(Q**e, degree=r * e)
        for p in ps:
            proj = pi_p(image, p).poly
            trans = transvectant(Qe, Qe, 2 * p).poly
            assert proportional(proj, trans), (r, e, p)


def test_projection_consistency_vanishing_tail():
    # past the top weight both routes give zero
    reg = VarRegistry(["l0_0", "l0_1", "l1_0", "l1_1", "x0", "x1"])
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    lines = [
        Poly.variable(reg, "l0_0") * x0 + Poly.variable(reg, "l0_1") * x1,
        Poly.variable(reg, "l1_0") * x0 + Poly.variable(reg, "l1_1") * x1,
    ]
    image = alpha_image([L**2 for L in lines], 1, 1)
    assert pi_p(image, 2).poly.is_zero()
