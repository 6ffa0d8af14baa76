"""Brute-force combinatorial oracles.

These deliberately recompute, by exhaustive enumeration or direct operator
expansion, quantities that also have closed forms elsewhere in the package:

  - the weighted bipartite-multigraph sum behind n1_closed,
  - bordered transportation matrices and the symmetric function tau,
  - the identity tying tau to a transvectant of products of linear forms,
  - the direct Omega-power evaluation g_direct behind n3.

Keeping the two routes independent is the point; nothing here calls the
closed forms except the explicit cross-check helpers.
"""

from fractions import Fraction
from math import comb, prod

from .arith import check_cap, factorial, size_cap
from .closedform import n3
from .poly import Poly, VarRegistry
from .transvect import BinaryForm, pi_p, transvectant


def _compositions(total: int, caps) -> list:
    """The tuples v with sum total and 0 <= v[j] <= caps[j], in
    lexicographic order, built from the last cell to the first."""
    tails = {0: [()]}  # sum -> the tuples over the cells so far, in order
    for cap in reversed(caps):
        grown = {}
        for v in range(cap + 1):  # v ascending keeps every list in order
            for s, rows in tails.items():
                if s + v <= total:
                    grown.setdefault(s + v, []).extend((v, *row) for row in rows)
        tails = grown
    return tails.get(total, [])


def _bordered(margins, zero_diagonal: bool, border: bool, name: str):
    """The square nonnegative integer matrices, of two rows or more, whose
    row sums and column sums both equal margins, with a zero in the last
    diagonal cell (the corner) and, if zero_diagonal, in every diagonal
    cell, in row-major lexicographic order.  Each is yielded as a tuple of
    row tuples: whole if border, else without its last row and column.

    The rows above the last are chosen from the compositions of their
    margins, built up front in lexicographic order; the walk places one
    whole row per level, and the last row is what the columns have left.
    The columns' remaining sums are packed into one int, a field per column
    with a guard bit on top, so a row fits when subtracting it clears no
    guard bit.  A column j with a zero diagonal cell can only be filled by
    the rows below other than row j, so the walk backs out as soon as its
    remaining sum passes their margins.

    The candidate rows (a bound on their count, times their length) and
    then the rows tried while walking, dead ends included, are held to
    size_cap(); past it this raises ValueError.
    """
    cap = size_cap()
    size = len(margins)
    last = size - 1
    width = max(margins).bit_length() + 1
    field = (1 << width - 1) - 1  # the largest value of a field
    guard = sum(1 << width * j + width - 1 for j in range(size))

    def pack(values):
        return sum(v << width * j for j, v in enumerate(values))

    levels = []
    built = {}  # (margin, zero cell) -> its candidates
    cells = 0
    for i in range(last):
        caps = list(margins)
        if zero_diagonal:
            caps[i] = 0
        key = (margins[i], i if zero_diagonal else None)
        if key not in built:
            k = sum(1 for c in caps if c)  # the cells that may be nonzero
            cells += comb(margins[i] + k - 1, margins[i]) * size if k else size
            check_cap(cells, f"{name} would build {cells} cells of candidate rows", cap)
            built[key] = [
                (pack(row), row if border else row[:last])
                for row in _compositions(margins[i], caps)
            ]
        levels.append(built[key])

    # after row i, column j > i with a zero diagonal cell can still take
    # the margins of rows i+1.. other than row j
    bounds = []
    below = sum(margins)
    for i in range(last):
        below -= margins[i]
        limits = [field] * size
        for j in range(i + 1, size):
            if zero_diagonal or j == last:
                limits[j] = min(below - margins[j], field)
        bounds.append(pack(limits) | guard)

    rows = [None] * last
    lefts = [pack(margins)] + [0] * last  # the columns' sums left before row i
    stack = [iter(levels[0])]
    tried = len(levels[0])  # rows tried: a level's whole scan counts as it starts

    while stack:
        i = len(stack) - 1
        room = lefts[i] | guard
        bound = bounds[i]
        for packed, row in stack[i]:
            left = room - packed
            if left & guard != guard:  # the row overfills a column
                continue
            left ^= guard
            if (bound - left) & guard != guard:  # a column can no longer fill
                continue
            rows[i] = row
            if i + 1 < last:
                tried += len(levels[i + 1])
                if tried > cap:
                    check_cap(tried, f"{name} would try {tried} candidate rows", cap)
                lefts[i + 1] = left
                stack.append(iter(levels[i + 1]))
                break
            if border:
                yield (*rows, tuple(left >> width * j & field for j in range(size)))
            else:
                yield tuple(rows)
        else:
            stack.pop()


def multigraphs(e: int, p: int):
    """All e-by-e nonnegative integer matrices with entry sum 2p and every
    row and column sum <= 2, in row-major lexicographic order.

    Vertex-labelled bipartite multigraphs on L x R: entry m[i][j] is the edge
    multiplicity between left vertex i and right vertex j.  Each is the
    inner block of a bordered matrix whose row and column sums are all 2
    except the border's 2e - 2p: row i's border cell is 2 - l_i, column j's
    is 2 - c_j, and the corner is zero.  So the candidate rows are the
    length-e rows with entry sum <= 2, placed one per level; the work is
    held to the work cap, past which this raises ValueError.
    """
    if not (0 <= p <= e):
        raise ValueError(f"multigraphs needs 0 <= p <= e, got {(e, p)}")
    if e == 0:  # the empty graph
        yield ()
        return
    margins = [2] * e + [2 * e - 2 * p]
    yield from _bordered(margins, zero_diagonal=False, border=False, name="multigraphs")


def component_census(G) -> tuple:
    """(cycles, LL-chains, RR-chains, LR-chains) of a bipartite multigraph
    whose row and column sums are at most 2.

    A component is a cycle when it has as many edges as vertices (a double
    edge m[i][j] = 2 is a 2-cycle), else a chain.  A chain alternates sides:
    an odd edge count means LR, and with an even count both ends (one, for
    an isolated vertex) lie on the side holding more of its vertices.
    """
    e = len(G)
    # vertices 0..e-1 are L, e..2e-1 are R
    parent = list(range(2 * e))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i in range(e):
        for j in range(e):
            if G[i][j]:
                parent[find(i)] = find(e + j)

    counts = {}  # root -> [vertices, edges, L vertices]
    for v in range(2 * e):
        c = counts.setdefault(find(v), [0, 0, 0])
        c[0] += 1
        if v < e:
            c[1] += sum(G[v])
            c[2] += 1

    cycles = ll = rr = lr = 0
    for vertices, edges, left in counts.values():
        if edges == vertices:
            cycles += 1
        elif edges % 2:
            lr += 1
        elif 2 * left > vertices:
            ll += 1
        else:
            rr += 1
    return cycles, ll, rr, lr


def n1_brute(e: int, p: int) -> Fraction:
    """Weighted sum over multigraphs without L-to-R chains:

    sum_G (2p)! 2^(2e-2p+C(G)) / [prod m_ij! prod (2-l_i)! prod (2-c_j)!]
    where C(G) counts cycles and l_i, c_j are the row and column sums.

    Each row i divides the weight by prod_j m_ij! (2-l_i)!, looked up once
    per distinct row, and each column j by (2-c_j)!; each is at most 2, so
    the terms are summed as integer numerators over 2^(2e), and one
    Fraction is built at the end.
    """
    if not (0 <= p <= e):
        raise ValueError(f"n1_brute needs 0 <= p <= e, got {(e, p)}")
    common = 2 ** (2 * e)
    row_factors = {}  # row -> prod m_ij! (2-l_i)!
    column_factors = [factorial(2 - c) for c in range(3)]
    total = 0
    for G in multigraphs(e, p):
        cycles, _, _, lr = component_census(G)
        if lr:
            continue
        denom = 1
        for row in G:
            f = row_factors.get(row)
            if f is None:
                f = row_factors[row] = prod(map(factorial, row)) * factorial(2 - sum(row))
            denom *= f
        for c in map(sum, zip(*G)):
            denom *= column_factors[c]
        total += common // denom << cycles
    return Fraction(factorial(2 * p) * 2 ** (2 * e - 2 * p) * total, common)


def _check_range(name: str, r: int, e: int, p: int):
    """Refuse (r, e, p) outside r >= 2, e >= 1, 0 <= 2p <= re, naming the caller."""
    if r < 2 or e < 1:
        raise ValueError(f"{name} needs r >= 2, e >= 1, got {(r, e)}")
    if not (0 <= 2 * p <= r * e):
        raise ValueError(f"{name} needs 0 <= 2p <= re, got p={p}")


def transport_matrices(r: int, e: int, p: int):
    """All (r+1)x(r+1) nonnegative integer matrices with zero diagonal and
    row sums = column sums = (e, ..., e, re-2p), in row-major order.

    The candidate rows are the compositions of each margin with a zero on
    the diagonal, placed one per level; the last row is what the columns
    have left.  The work is held to the work cap, past which this raises
    ValueError."""
    _check_range("transport_matrices", r, e, p)
    margins = [e] * r + [r * e - 2 * p]
    yield from _bordered(margins, zero_diagonal=True, border=True, name="transport_matrices")


def tau(r: int, e: int, p: int) -> Poly:
    """The symmetric function

    sum over transportation matrices M of
      prod (z_i - z_j)^m_ij * prod (t - z_i)^m_{i,r+1} * prod (t - z_j)^m_{r+1,j}
      / prod m_ij!

    in variables t, z_1..z_r (all factorials over every entry of M).

    The entries of every M sum to 2re-2p, so each prod m_ij! divides
    L = (2re-2p)!.  Since z_j - z_i = -(z_i - z_j) and both border entries
    of index i are powers of t - z_i, M adds the integer weight
    sign * L // prod m_ij! times a product fixed by its merged exponents
    m_ij + m_ji, one per pair i < j <= r+1, where sign is -1 to the sum of
    the m_ji with i < j <= r.  So every matrix is enumerated and its weight
    summed under its merged key, and keys whose weights cancel are dropped.
    No closed form is used, so tau stays a route independent of the
    transvectant that tau_transvectant_check compares it with.

    The products are summed as one integer, by Kronecker substitution:
    t = 1 and z_i = 2^(width (2e+1)^(i-1)).  tau is homogeneous of degree
    D = 2re-2p, so t's exponent in a term is D less the z's, and setting
    t = 1 loses nothing.  z_i's exponent is at most 2e, its row sum plus
    its column sum, so each monomial owns one base-2^width digit, its
    z-exponents read as base-(2e+1) digits.  A product of D factors with
    coefficients +-1 has coefficients whose absolute values sum to at most
    2^D, so no coefficient of the sum passes sum |w| 2^D; width is two bits
    past that, so the balanced digits never carry.  Each kept key
    multiplies its weight in one factor at a time, a shift and a
    subtraction, and Poly.from_kronecker unpacks the sum and divides it by
    L once.

    The work cap bounds the answer's bits before any factorial (up to
    C(D + r, r) monomials of degree D over D!, of D * D.bit_length() bits
    at most), then, after the walk and before any shift, the bits of the
    packed sum, (2e+1)^r digits of width bits.
    """
    _check_range("tau", r, e, p)
    cap = size_cap()
    degree = 2 * r * e - 2 * p
    size = degree * degree.bit_length()  # at least the bit length of degree!
    for k in range(1, r + 1):  # size becomes C(degree + k, k) times those bits
        size = size * (degree + k) // k
        check_cap(size, f"tau's answer could hold {size} bits or more", cap)
    common = factorial(degree)
    facts = [factorial(m) for m in range(max(e, r * e - 2 * p) + 1)]
    # 0-based: index i < r is z_{i+1}, and index r the border row and column
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r + 1)]

    weights = {}  # merged exponents, one per pair -> summed integer weight
    for M in transport_matrices(r, e, p):
        denom = 1
        sign = 1
        for i, j in pairs:
            n = M[j][i]
            denom *= facts[M[i][j]] * facts[n]
            if n & 1 and j < r:
                sign = -sign
        key = tuple(M[i][j] + M[j][i] for i, j in pairs)
        weights[key] = weights.get(key, 0) + sign * (common // denom)

    kept = {key: w for key, w in weights.items() if w}
    radix = 2 * e + 1  # z_i's exponents, 0..2e
    width = (sum(map(abs, kept.values())) << degree).bit_length() + 2
    bits = radix**r * width
    check_cap(bits, f"tau's packed sum would take {bits} bits", cap)
    # t = 1 and z_i = 2^shifts[i]: (z_i - z_j)^m = z_i^m (1 - 2^step)^m with
    # step = shifts[j] - shifts[i], and (t - z_i)^m = (1 - 2^shifts[i])^m;
    # the shortest steps go first, so each partial product grows late
    shifts = [width * radix**i for i in range(r)]
    factors = sorted(
        (shifts[j] - shifts[i], shifts[i], q) if j < r else (shifts[i], 0, q)
        for q, (i, j) in enumerate(pairs)
    )
    total = 0
    for key, w in kept.items():
        low = 0  # the bits of the factored-out z_i^m
        for step, s, q in factors:
            m = key[q]
            for _ in range(m):
                w -= w << step
            low += m * s
        total += w << low
    registry = VarRegistry(["t"] + [f"z{i}" for i in range(1, r + 1)])
    z = (registry.names[1:], radix)
    return Poly.from_kronecker(registry, total, width, z, ("t", degree), common)


def tau_transvectant_check(r: int, e: int, p: int) -> bool:
    """Check that the transvectant (prod l_i^e, prod l_j^e)_{2p} of the
    lines l_i = z_i x0 + x1, dehomogenized by x0 = -1, x1 = t, equals
    (re-2p)!^2 (2p)! e!^(2r) / (re)!^2 times tau(r, e, p).
    tau runs first, so its work-cap checks precede all else here."""
    _check_range("tau_transvectant_check", r, e, p)
    rhs = tau(r, e, p) * Fraction(
        factorial(r * e - 2 * p) ** 2 * factorial(2 * p) * factorial(e) ** (2 * r),
        factorial(r * e) ** 2,
    )
    # tau's registry is fresh and its own: grow it by the form variables
    reg = rhs.registry
    reg.add("x0")
    reg.add("x1")
    x1 = Poly.variable(reg, "x1")
    product = Poly.const(reg, 1)
    for i in range(1, r + 1):
        product = product * (Poly.term(reg, 1, {f"z{i}": 1, "x0": 1}) + x1) ** e
    form = BinaryForm(product, r * e)
    trans = transvectant(form, form, 2 * p)
    lhs = trans.poly.substitute({"x0": Poly.const(reg, -1), "x1": Poly.variable(reg, "t")})
    return lhs == rhs


def g_direct(r: int, e: int, p: int, pprime: int) -> Poly:
    """Direct evaluation of

    Omega^{2p'} [ (xy)^{2p} a_x^{re-2p} a_y^{re-2p} b_x^e b_y^e ] at y:=x

    over the variables a0, a1, b0, b1, x0, x1, with (xy) = x0 y1 - x1 y0 and
    a_x = a0 x0 + a1 x1 etc.: pi_p(G, p') of the bracketed G.  Compare with
    n3(r,e,p',p) * a_x^{2(re-p'-p)} b_x^{2(e-p'+p)} (ab)^{2(p'-p)}.
    """
    _check_range("g_direct", r, e, p)
    if not (0 <= 2 * pprime <= (r + 1) * e):
        raise ValueError(f"g_direct needs 0 <= 2p' <= (r+1)e, got pprime={pprime}")
    reg = VarRegistry(["x0", "x1", "y0", "y1", "a0", "a1", "b0", "b1"])
    x0, x1, y0, y1 = (Poly.variable(reg, n) for n in ("x0", "x1", "y0", "y1"))
    a0, a1, b0, b1 = (Poly.variable(reg, n) for n in ("a0", "a1", "b0", "b1"))
    xy = x0 * y1 - x1 * y0
    a_x = a0 * x0 + a1 * x1
    a_y = a0 * y0 + a1 * y1
    b_x = b0 * x0 + b1 * x1
    b_y = b0 * y0 + b1 * y1
    G = xy ** (2 * p) * a_x ** (r * e - 2 * p) * a_y ** (r * e - 2 * p) * b_x**e * b_y**e
    return pi_p(G, pprime).poly


def g_closed_form(r: int, e: int, p: int, pprime: int, registry: VarRegistry) -> Poly:
    """n3(r,e,p',p) * a_x^{2(re-p'-p)} b_x^{2(e-p'+p)} (ab)^{2(p'-p)} over
    registry, which must hold x0, x1, a0, a1, b0, b1 (zero when the
    characteristic function is).

    Pass the registry of a g_direct result to compare the two directly."""
    value = n3(r, e, pprime, p)
    if value == 0:
        return Poly.zero(registry)
    x0, x1 = Poly.variable(registry, "x0"), Poly.variable(registry, "x1")
    a0, a1, b0, b1 = (Poly.variable(registry, n) for n in ("a0", "a1", "b0", "b1"))
    a_x = a0 * x0 + a1 * x1
    b_x = b0 * x0 + b1 * x1
    ab = a0 * b1 - a1 * b0
    return (
        a_x ** (2 * (r * e - pprime - p))
        * b_x ** (2 * (e - pprime + p))
        * ab ** (2 * (pprime - p))
        * value
    )
