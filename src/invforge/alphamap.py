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
and stores the matrix sparse, one dict per row.  `ExactMatrix.rank`
eliminates sparsely mod the prime 2^61-1: rank mod p never exceeds the rank
over Q, so reaching min(rows, cols) certifies the rank exactly; otherwise
dense fraction-free Bareiss (`exact_rank`) decides.  `alpha_image` is the
independent symbolic route (polarize, multiply, rename) that the tests hold
the matrix against.  `INVFORGE_SIZE_CAP` bounds the labels before the
build and the term pairs it multiplies, hence its work and its nonzeros.
"""

import functools
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
    # stars and bars: nvars - 1 bars among degree + nvars - 1 slots, the
    # gaps between them the exponents; lex order of the bar positions is
    # lex order of the exponents, so reversing it puts x0^d first
    slots = degree + nvars - 1
    out = []
    for bars in itertools.combinations(range(slots), nvars - 1):
        ends = (-1, *bars, slots)
        out.append(tuple(b - a - 1 for a, b in itertools.pairwise(ends)))
    out.reverse()
    return out


class ExactMatrix:
    """A sparse matrix of exact rationals with labelled rows and columns.

    `sparse[i]` maps a column index to the nonzero entry of row i there;
    `entries` is the dense list-of-rows view, built on demand.  The
    constructor takes dense rows and checks them against the labels.
    """

    __slots__ = ("rows", "cols", "sparse")

    def __init__(self, rows, cols, entries):
        if len(entries) != len(rows) or any(len(r) != len(cols) for r in entries):
            raise ValueError("entry grid does not match the label shape")
        self.rows = list(rows)
        self.cols = list(cols)
        self.sparse = [{j: x for j, x in enumerate(r) if x} for r in entries]

    @classmethod
    def _from_sparse(cls, rows, cols, sparse):
        """Adopt row dicts of nonzero entries as they are (no check, no copy)."""
        mat = cls.__new__(cls)
        mat.rows, mat.cols, mat.sparse = rows, cols, sparse
        return mat

    @property
    def shape(self) -> tuple:
        return len(self.rows), len(self.cols)

    @property
    def entries(self) -> list:
        ncols = range(len(self.cols))
        return [[row.get(j, 0) for j in ncols] for row in self.sparse]

    def rank(self) -> int:
        """Exact rank.  Rank mod p never exceeds the rank over Q, so when
        the sparse elimination mod p reaches min(rows, cols) that value is
        certified; otherwise dense Bareiss over the integers decides."""
        full = min(self.shape)
        if _rank_mod_p(self.sparse, full) == full:
            return full
        return exact_rank(self.entries)


MODULUS = 2**61 - 1  # a Mersenne prime: the modulus of the certifying rank


def _rank_mod_p(sparse, stop: int) -> int:
    """Rank mod MODULUS of the rows (dicts of nonzero rationals), each
    scaled by the lcm of its denominators; stops early at `stop`.

    Rows are reduced one at a time against pivot rows kept monic at their
    smallest column, so every pivot row's other entries lie to its right.
    """
    p = MODULUS
    pivots = {}
    for row in sparse:
        if len(pivots) == stop:
            break
        scale = math.lcm(*(x.denominator for x in row.values()))
        v = {j: y for j, x in row.items() if (y := int(x * scale) % p)}
        while v:
            lead = min(v)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(v[lead], -1, p)
                pivots[lead] = {j: x * inv % p for j, x in v.items()}
                break
            f = v[lead]
            for j, x in piv.items():
                y = (v.get(j, 0) - f * x) % p
                if y:
                    v[j] = y
                else:
                    del v[j]
    return len(pivots)


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


def _mul(p: dict, q: dict) -> dict:
    """Product of two polynomials held as {packed monomial: coefficient}.

    The build does not go through `Poly`: its factors have a handful of
    terms, so a `Poly.__mul__` call would cost more in registry checks,
    coefficient settling and exponent-bound upkeep than in the product, and
    bench/tracing.py would count every such call as poly-layer work
    (`poly.mul`).  The fields here are (r*e).bit_length() bits wide, enough
    for the largest exponent re of the bidegree-(re, re) products.
    """
    out = {}
    get = out.get
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return out


def alpha_matrix(n: int, d: int, r: int) -> ExactMatrix:
    """Matrix of alpha_r on degree-d forms in n+1 variables.

    Columns: multisets of r degree-d monomials (combinations with
    replacement over the graded-lex list).  Rows: unordered pairs of
    degree-re monomials; the row value of a bidegree-(re,re) polynomial P is
    the coefficient of m(x) m'(y) + m'(x) m(y) for m != m', and of
    m(x) m(y) on the diagonal.  Symmetry of P makes this well defined.

    Each column is the product of the closed polarizations (`_polar`) of
    its r monomials.  The cap is checked twice: before anything is built
    against the row labels and the r*cols monomials of the column labels,
    and while building against the term pairs multiplied so far, which
    bound both the work and the nonzeros stored.
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
    size_cap = int(os.environ.get(SIZE_CAP_ENV, DEFAULT_SIZE_CAP))
    ndmons = sym_dim(n, d)
    nrows = s2_dim(sym_dim(n, r * e))
    ncols = binomial(ndmons + r - 1, r)
    if max(nrows, r * ncols) > size_cap:
        raise ValueError(
            f"matrix would have {nrows} rows and {ncols} columns of r = {r} monomials,"
            f" above the cap of {size_cap} (set {SIZE_CAP_ENV} to raise it)"
        )

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
        if pairs > size_cap:
            raise ValueError(
                f"matrix build passes the cap of {size_cap} multiplied term pairs"
                f" at column {len(col_labels)} of {ncols} (set {SIZE_CAP_ENV} to raise it)"
            )
        return _mul(p, q)

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

    return ExactMatrix._from_sparse(row_labels, col_labels, sparse)


def alpha_rank(n: int, d: int, r: int) -> dict:
    """Shape and exact rank of the alpha_r matrix, as a small report."""
    mat = alpha_matrix(n, d, r)
    nrows, ncols = mat.shape
    return {"rows": nrows, "cols": ncols, "rank": mat.rank()}
