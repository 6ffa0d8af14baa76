"""The polarization map alpha_r on tuples of binary forms, its matrix with
respect to monomial bases, and exact integer rank computation.

alpha_r sends (F_1, ..., F_r), each of degree 2e, to the bidegree-(re, re)
polynomial obtained by polarizing each F_i into its own y-copy e times,
multiplying, and identifying all the copies.  Its image lands in the
symmetric square of the degree-re forms, so the matrix rows are indexed by
unordered pairs of degree-re monomials and the columns by multisets of r
degree-d monomials.

`alpha_matrix` builds each column from the closed polarization of a
monomial, (y.dx)^e x^a = e! sum_{|b|=e, b<=a} prod_l C(a_l,b_l) x^(a-b) y^b,
multiplies those in poly's one multiply-accumulate loop on dicts of its
own packed keys, and stores the matrix sparse, one dict per row.
`ExactMatrix.rank` eliminates those rows fraction-free over the integers,
dividing each reduced row by its content; the rank is exact whether full
or not.
`alpha_image` is the independent symbolic route (polarize each form,
multiply) that the tests hold the matrix against.  The work cap bounds
the labels before the build and the term pairs it multiplies, hence its
work and its nonzeros.
"""

import functools
import itertools
import math
from operator import mul

from .arith import _compositions, binomial, check_cap, size_cap
from .poly import Poly, VarRegistry, _multiply_into
from .transvect import polarize


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
    # graded-lex descending is lex descending within one degree
    return _compositions(degree, [degree] * nvars)[::-1]


class ExactMatrix:
    """A sparse matrix of exact rationals with labelled rows and columns:
    `sparse[i]` maps a column index to the nonzero entry of row i there."""

    __slots__ = ("rows", "cols", "sparse")

    def __init__(self, rows, cols, sparse):
        self.rows, self.cols, self.sparse = list(rows), list(cols), list(sparse)
        if len(self.sparse) != len(self.rows):
            raise ValueError(f"{len(self.sparse)} sparse rows for {len(self.rows)} row labels")
        for row in self.sparse:
            if type(row) is not dict or 0 in row.values() or row and not (
                0 <= min(row) and max(row) < len(self.cols)
            ):
                raise ValueError(
                    f"a sparse row must be a dict of nonzero entries keyed by"
                    f" columns in range({len(self.cols)})"
                )

    @property
    def shape(self) -> tuple:
        return len(self.rows), len(self.cols)

    def rank(self) -> int:
        """Exact rank, by sparse fraction-free elimination over the integers.

        Each row, cleared of denominators, is reduced against the pivot rows
        keyed by their leading column: v <- a*v - b*pivot, with a and b the
        two leads over their gcd, and v is divided by its content after
        every step.  A row left with a new lead becomes its pivot, with a
        positive lead.  The walk stops at min(rows, cols) pivots.
        """
        pivots = {}
        for row in self.sparse:
            if len(pivots) == min(self.shape):
                break
            scale = math.lcm(*(x.denominator for x in row.values()))
            v = _primitive({j: x.numerator * (scale // x.denominator) for j, x in row.items()})
            while v and (lead := min(v)) in pivots:
                piv = pivots[lead]
                g = math.gcd(piv[lead], v[lead])
                a, b = piv[lead] // g, v[lead] // g
                v = {j: a * x for j, x in v.items()}
                for j, x in piv.items():
                    v[j] = v.get(j, 0) - b * x
                v = _primitive(v)
            if v:
                pivots[lead] = v if v[lead] > 0 else {j: -x for j, x in v.items()}
        return len(pivots)


def _primitive(v: dict) -> dict:
    """The nonzero entries of the integer row v, divided by their gcd."""
    g = math.gcd(*v.values())
    return {j: x // g for j, x in v.items() if x}


def alpha_image(forms, e: int, n: int) -> Poly:
    """Apply alpha_r to the given degree-2e forms in x0..xn.

    The result is the product of the polarizations (y.dx)^e F_i(x); renaming
    is a ring map, so no per-form copy of the variables is needed.  It lives
    over the forms' names followed by y0..yn (a form registry that already
    holds a y name is refused), has bidegree (re, re) in (x, y) and is
    symmetric under swapping the two groups.  Coefficient variables are
    carried along unchanged.
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

    reg = VarRegistry([*src.names, *ynames])
    pieces = (polarize(f.lift(reg), xnames, ynames, e) for f in forms)
    return functools.reduce(mul, pieces)


def _pack(exps, width: int) -> int:
    """One int per monomial: exponent l in bits [l*width, (l+1)*width)."""
    return sum(x << (l * width) for l, x in enumerate(exps))


def _polar(a, bs, e: int, width: int, yshift: int) -> dict:
    """(y.dx)^e x^a = e! sum_{|b|=e, b<=a} prod_l C(a_l,b_l) x^(a-b) y^b,
    keyed by the packed x exponents plus the packed y exponents shifted up
    by `yshift` bits.  `bs` lists every exponent tuple of degree e."""
    out = {}
    for b in bs:
        coeff = math.factorial(e) * math.prod(map(math.comb, a, b))  # 0 unless b <= a
        if coeff:
            x = [al - bl for al, bl in zip(a, b)]
            out[_pack(x, width) | _pack(b, width) << yshift] = coeff
    return out


def alpha_matrix(n: int, d: int, r: int) -> ExactMatrix:
    """Matrix of alpha_r on degree-d forms in n+1 variables.

    Columns: multisets of r degree-d monomials (combinations with
    replacement over the graded-lex list).  Rows: unordered pairs of
    degree-re monomials; the row value of a bidegree-(re,re) polynomial P is
    the coefficient of m(x) m'(y) + m'(x) m(y) for m != m', and of
    m(x) m(y) on the diagonal.  Symmetry of P makes this well defined.

    Each column is the product of the closed polarizations (`_polar`) of
    its r monomials, as {packed monomial: coefficient} with fields
    (r*e).bit_length() bits wide, enough for the exponent re.  They go
    through poly._multiply_into without the Poly wrapper, whose checks and
    bound upkeep cost more than these products of a handful of terms, and
    which bench/tracing.py would count as poly.mul.  The cap is checked
    twice: before anything is built against the row labels and the r*cols
    monomials of the column labels, and while building against the term
    pairs multiplied so far, which bound both the work and the nonzeros
    stored.
    """
    if d % 2:
        raise ValueError(f"alpha_matrix needs even degree, got d={d}")
    if r < 1:
        raise ValueError(f"alpha_matrix needs r >= 1, got {r}")
    if n < 0:
        raise ValueError(f"alpha_matrix needs n >= 0, got {n}")
    if d < 0:
        raise ValueError(f"alpha_matrix needs d >= 0, got {d}")
    e = d // 2
    cap = size_cap()
    ndmons = sym_dim(n, d)
    nrows = s2_dim(sym_dim(n, r * e))
    ncols = binomial(ndmons + r - 1, r)
    labels = f"matrix would have {nrows} rows and {ncols} columns of r = {r} monomials"
    check_cap(max(nrows, r * ncols), labels, cap)

    dmons = monomial_exponents(n + 1, d)
    remons = monomial_exponents(n + 1, r * e)
    width = (r * e).bit_length()
    yshift = (n + 1) * width

    # the coefficient of x^m y^m' with index(m) >= index(m') is the entry
    # of row (m', m); the partner x^m' y^m carries the same value
    row_labels = []
    row_of = {}
    for a in range(len(remons)):
        for b in range(a, len(remons)):
            key = _pack(remons[b], width) | _pack(remons[a], width) << yshift
            row_of[key] = len(row_labels)
            row_labels.append((remons[a], remons[b]))

    bs = monomial_exponents(n + 1, e)
    polars = [_polar(a, bs, e, width, yshift) for a in dmons]
    sparse = [{} for _ in range(nrows)]
    col_labels = []
    pairs = 0  # term pairs multiplied so far

    def charge(p, q):
        nonlocal pairs
        pairs += len(p) * len(q)
        if pairs > cap:
            at = f"at column {len(col_labels)} of {ncols}"
            check_cap(pairs, f"matrix build reaches {pairs} multiplied term pairs {at}", cap)
        return _multiply_into({}, p.items(), q.items())

    # columns come in lex order: share the product of all but the last monomial
    head_key = head = None
    combos = itertools.combinations_with_replacement(range(ndmons), r)
    for c, combo in enumerate(combos):
        col_labels.append(tuple(dmons[i] for i in combo))
        if combo[:-1] != head_key:
            head_key = combo[:-1]
            head = functools.reduce(charge, (polars[i] for i in head_key), {0: 1})
        for key, coeff in charge(head, polars[combo[-1]]).items():
            row = row_of.get(key)
            if row is not None:
                sparse[row][c] = coeff

    return ExactMatrix(row_labels, col_labels, sparse)


def alpha_rank(n: int, d: int, r: int) -> dict:
    """Shape and exact rank of the alpha_r matrix, as a small report."""
    mat = alpha_matrix(n, d, r)
    nrows, ncols = mat.shape
    return {"rows": nrows, "cols": ncols, "rank": mat.rank()}
