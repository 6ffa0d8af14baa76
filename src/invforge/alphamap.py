"""The polarization map alpha_r on tuples of binary forms, its matrix with
respect to monomial bases, and exact integer rank computation.

alpha_r sends (F_1, ..., F_r), each of degree 2e, to the bidegree-(re, re)
polynomial obtained by polarizing each F_i into its own y-copy e times,
multiplying, and identifying all the copies.  Its image lands in the
symmetric square of the degree-re forms, so the matrix rows are indexed by
unordered pairs of degree-re monomials and the columns by multisets of r
degree-d monomials.
"""

import itertools
import math
import os

from fractions import Fraction

from .arith import binomial
from .poly import Poly, VarRegistry
from .transvect import polarize

SIZE_CAP_ENV = "INVFORGE_SIZE_CAP"
DEFAULT_SIZE_CAP = 2_000_000


def sym_dim(n: int, m: int) -> int:
    """Dimension of the degree-m forms in n+1 variables."""
    return binomial(n + m, n)


def s2_dim(dim: int) -> int:
    """Dimension of the symmetric square of a dim-dimensional space."""
    return dim * (dim + 1) // 2


def monomial_exponents(nvars: int, degree: int):
    """Exponent tuples of the degree-`degree` monomials in `nvars`
    variables, in graded-lex descending order (x0^d first)."""
    if nvars < 1:
        raise ValueError(f"monomial_exponents needs nvars >= 1, got {nvars}")
    if nvars == 1:
        return [(degree,)]
    out = []
    for first in range(degree, -1, -1):
        for rest in monomial_exponents(nvars - 1, degree - first):
            out.append((first,) + rest)
    return out


class ExactMatrix:
    """A dense matrix of exact rationals with labelled rows and columns."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        if len(entries) != len(rows) or any(len(r) != len(cols) for r in entries):
            raise ValueError("entry grid does not match the label shape")
        self.rows = list(rows)
        self.cols = list(cols)
        self.entries = [list(r) for r in entries]

    @property
    def shape(self) -> tuple:
        return len(self.rows), len(self.cols)

    def rank(self) -> int:
        return exact_rank(self.entries)


def exact_rank(entries) -> int:
    """Rank of a matrix of exact rationals, by fraction-free (Bareiss)
    elimination over the integers after clearing row denominators."""
    if not entries:
        return 0
    nrows, ncols = len(entries), len(entries[0])
    M = []
    for row in entries:
        lcm = 1
        for x in row:
            if isinstance(x, Fraction):
                lcm = math.lcm(lcm, x.denominator)
        M.append([int(x * lcm) if lcm != 1 else int(x) for x in row])

    rank = 0
    prev = 1
    for col in range(ncols):
        if rank == nrows:
            break
        # pick the nonzero pivot of smallest bit length to slow growth
        pivot_row = None
        for i in range(rank, nrows):
            v = M[i][col]
            if v and (pivot_row is None or abs(v).bit_length() < best):
                pivot_row, best = i, abs(v).bit_length()
        if pivot_row is None:
            continue
        M[rank], M[pivot_row] = M[pivot_row], M[rank]
        piv = M[rank][col]
        for i in range(rank + 1, nrows):
            factor = M[i][col]
            row_i, row_p = M[i], M[rank]
            for j in range(col + 1, ncols):
                row_i[j] = (piv * row_i[j] - factor * row_p[j]) // prev
            row_i[col] = 0
        prev = piv
        rank += 1
    return rank


def alpha_image(forms, e: int, n: int) -> Poly:
    """Apply alpha_r to the given degree-2e forms in x0..xn.

    Each form is polarized e times into a private y-copy, the results are
    multiplied, and the copies are all renamed to the common x and y.  The
    output has bidegree (re, re) in (x, y) and is symmetric under swapping
    the two groups.  Coefficient variables are carried along unchanged.
    """
    if e < 0 or n < 0:
        raise ValueError(f"alpha_image needs e >= 0 and n >= 0, got {(e, n)}")
    if not forms:
        raise ValueError("alpha_image needs at least one form")
    src = forms[0].registry
    for f in forms[1:]:
        if f.registry is not src:
            raise ValueError("all forms must share one registry")
    xnames = [f"x{l}" for l in range(n + 1)]
    ynames = [f"y{l}" for l in range(n + 1)]
    for nm in xnames:
        if nm not in src:
            raise ValueError(f"form registry lacks variable {nm!r}")
    for f in forms:
        if not f.is_homogeneous_in(xnames, 2 * e):
            raise ValueError(f"forms must be homogeneous of degree {2 * e} in x0..x{n}")

    carried = [nm for nm in src.names if nm not in xnames]
    copy_x = [[f"__c{i}x{l}" for l in range(n + 1)] for i in range(len(forms))]
    copy_y = [[f"__c{i}y{l}" for l in range(n + 1)] for i in range(len(forms))]
    names = list(carried)
    for i in range(len(forms)):
        names += copy_x[i] + copy_y[i]
    names += xnames + ynames
    for nm in names[len(carried) :]:
        if nm in carried:
            raise ValueError(f"reserved variable name {nm!r} already in use")
    reg = VarRegistry(names)

    pieces = []
    for i, f in enumerate(forms):
        bindings = {nm: Poly.variable(reg, cx) for nm, cx in zip(xnames, copy_x[i])}
        for nm in carried:
            bindings[nm] = Poly.variable(reg, nm)
        moved = f.substitute(bindings)
        pieces.append(polarize(moved, copy_x[i], copy_y[i], e))

    product = pieces[0]
    for piece in pieces[1:]:
        product = product * piece

    collapse = {}
    for i in range(len(forms)):
        for l in range(n + 1):
            collapse[copy_x[i][l]] = Poly.variable(reg, xnames[l])
            collapse[copy_y[i][l]] = Poly.variable(reg, ynames[l])
    return product.substitute(collapse)


def alpha_matrix(n: int, d: int, r: int, size_cap: int = None) -> ExactMatrix:
    """Matrix of alpha_r on degree-d forms in n+1 variables.

    Columns: multisets of r degree-d monomials (combinations with
    replacement over the graded-lex list).  Rows: unordered pairs of
    degree-re monomials; the row value of a bidegree-(re,re) polynomial P is
    the coefficient of m(x) m'(y) + m'(x) m(y) for m != m', and of
    m(x) m(y) on the diagonal.  Symmetry of P makes this well defined.
    """
    if d % 2:
        raise ValueError(f"alpha_matrix needs even degree, got d={d}")
    if r < 1:
        raise ValueError(f"alpha_matrix needs r >= 1, got {r}")
    if n < 0:
        raise ValueError(f"alpha_matrix needs n >= 0, got {n}")
    e = d // 2
    if size_cap is None:
        size_cap = int(os.environ.get(SIZE_CAP_ENV, DEFAULT_SIZE_CAP))

    dmons = monomial_exponents(n + 1, d)
    remons = monomial_exponents(n + 1, r * e)
    cols = list(itertools.combinations_with_replacement(range(len(dmons)), r))
    nrows = s2_dim(len(remons))
    if nrows * len(cols) > size_cap:
        raise ValueError(
            f"matrix would have {nrows}x{len(cols)} = {nrows * len(cols)} entries,"
            f" above the cap of {size_cap} (set {SIZE_CAP_ENV} to raise it)"
        )

    xnames = [f"x{l}" for l in range(n + 1)]
    reg = VarRegistry(xnames)
    basis = [Poly.term(reg, 1, dict(zip(xnames, exps))) for exps in dmons]

    row_labels = []
    row_index = {}
    for a in range(len(remons)):
        for b in range(a, len(remons)):
            row_index[(a, b)] = len(row_labels)
            row_labels.append((remons[a], remons[b]))

    re_lookup = {exps: i for i, exps in enumerate(remons)}
    entries = [[0] * len(cols) for _ in range(nrows)]
    for c, combo in enumerate(cols):
        image = alpha_image([basis[i] for i in combo], e, n)
        for exps, coeff in image.exponent_terms().items():
            named = dict(zip(image.registry.names, exps))
            xe = tuple(named[f"x{l}"] for l in range(n + 1))
            ye = tuple(named[f"y{l}"] for l in range(n + 1))
            a, b = re_lookup[xe], re_lookup[ye]
            if a < b:
                continue  # symmetric partner (a > b) carries the pair
            entries[row_index[(b, a)]][c] += coeff

    col_labels = [tuple(dmons[i] for i in combo) for combo in cols]
    return ExactMatrix(row_labels, col_labels, entries)


def alpha_rank(n: int, d: int, r: int, size_cap: int = None) -> dict:
    """Shape and exact rank of the alpha_r matrix, as a small report."""
    mat = alpha_matrix(n, d, r, size_cap=size_cap)
    nrows, ncols = mat.shape
    return {"rows": nrows, "cols": ncols, "rank": mat.rank()}
