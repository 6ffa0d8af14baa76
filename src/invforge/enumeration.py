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
from functools import lru_cache
from math import comb, prod

from .arith import _compositions, check_cap, factorial, size_cap
from .closedform import n3
from .poly import Poly, VarRegistry, kronecker_digits
from .transvect import BinaryForm, pi_p, transvectant


def _bordered(margins, transport: bool, ordered: bool = False):
    """The square nonnegative integer matrices, of two rows or more, whose
    row sums and column sums both equal margins, with a zero in the last
    diagonal cell (the corner) and, if transport, in every diagonal cell,
    in row-major lexicographic order.  Each is yielded as a tuple of row
    tuples: whole if transport, else without its last row and column; its
    errors name transport_matrices or multigraphs to match.

    If ordered (for n1_brute, with transport off, so the rows above the
    last share one list of candidates), only the matrices whose rows above
    the last are in lexicographic order are yielded, one per set of
    matrices that differ by an order of those rows: the scan at each level
    starts at the candidate chosen at the level above.

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
    name = "transport_matrices" if transport else "multigraphs"
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
        if transport:
            caps[i] = 0
        key = (margins[i], i if transport else None)
        if key not in built:
            k = sum(1 for c in caps if c)  # the cells that may be nonzero
            cells += comb(margins[i] + k - 1, margins[i]) * size if k else size
            check_cap(cells, f"{name} would build {cells} cells of candidate rows", cap)
            built[key] = [
                (pack(row), row if transport else row[:last], n)
                for n, row in enumerate(_compositions(margins[i], caps))
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
            if transport or j == last:
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
        for packed, row, n in stack[i]:
            left = room - packed
            if left & guard != guard:  # the row overfills a column
                continue
            left ^= guard
            if (bound - left) & guard != guard:  # a column can no longer fill
                continue
            rows[i] = row
            if i + 1 < last:
                scan = levels[i + 1][n:] if ordered else levels[i + 1]
                tried += len(scan)
                if tried > cap:
                    check_cap(tried, f"{name} would try {tried} candidate rows", cap)
                lefts[i + 1] = left
                stack.append(iter(scan))
                break
            if transport:
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
    yield from _bordered(margins, transport=False)


def component_census(G) -> tuple:
    """(cycles, LL-chains, RR-chains, LR-chains) of a bipartite multigraph
    whose row and column sums are at most 2.

    The union-find runs over the e columns only.  Each row is an L vertex
    of degree at most 2, so it joins at most two columns; its shape is read
    by the row's own count and index.  A row of sum 0 is an isolated L
    vertex, an LL chain on its own.  Every other component holds a column,
    and its chain ends are counted at its root: a pendant row (sum 1) is an
    L end, and a column of sum c has 2 - c R ends (an isolated column is
    both ends of an RR chain).  A component with no end is a cycle (a
    double edge m[i][j] = 2 is a 2-cycle); one with an end of each kind is
    an LR chain, else both ends lie on one side.
    """
    e = len(G)
    parent = list(range(e))
    left = [0] * e  # L ends (pendant rows) and R ends (deficits) per column
    right = [2] * e
    ll = 0
    for row in G:
        ones = row.count(1)
        if ones == 2:
            j = row.index(1)
            k = row.index(1, j + 1)
        elif ones:
            j = row.index(1)
            right[j] -= 1
            left[j] += 1
            continue
        elif 2 in row:
            j = k = row.index(2)
        else:
            ll += 1
            continue
        right[j] -= 1
        right[k] -= 1
        while parent[j] != j:
            j = parent[j]
        while parent[k] != k:
            k = parent[k]
        parent[j] = k

    for j in range(e):  # fold each column's ends into its root
        root = j
        while parent[root] != root:
            root = parent[root]
        if root != j:
            left[root] += left[j]
            right[root] += right[j]

    cycles = rr = lr = 0
    for j in range(e):
        if parent[j] == j:
            if left[j]:
                if right[j]:
                    lr += 1
                else:
                    ll += 1
            elif right[j]:
                rr += 1
            else:
                cycles += 1
    return cycles, ll, rr, lr


def n1_brute(e: int, p: int) -> Fraction:
    """Weighted sum over multigraphs without L-to-R chains:

    sum_G (2p)! 2^(2e-2p+C(G)) / [prod m_ij! prod (2-l_i)! prod (2-c_j)!]
    where C(G) counts cycles and l_i, c_j are the row and column sums.

    Every multigraph is walked once up to the order of its rows: the walk
    of multigraphs, with each row at least the one above it
    (lexicographically), yields one graph of each class, and the graph
    stands for its e!/prod_r m_r! row orders, m_r the times row r
    repeats.  Permuting the L vertices changes neither the weight nor the
    components.  component_census (a union-find over its columns) gives its
    cycles and LR chains; a graph with an LR chain adds nothing.  Each row
    i divides the weight by prod_j m_ij! (2-l_i)!, looked up once per
    distinct row, and each column j by (2-c_j)!; each is at most 2, so the
    terms are summed as integer numerators over 2^(2e), and one Fraction
    is built at the end.
    """
    if not (0 <= p <= e):
        raise ValueError(f"n1_brute needs 0 <= p <= e, got {(e, p)}")
    common = 2 ** (2 * e)
    row_factors = {}  # row -> prod m_ij! (2-l_i)!
    column_factors = [factorial(2 - c) for c in range(3)]
    orderings = factorial(e)
    graphs = _bordered([2] * e + [2 * e - 2 * p], transport=False, ordered=True) if e else [()]
    total = 0
    for G in graphs:
        cycles, _, _, lr = component_census(G)
        if lr:
            continue
        denom = 1
        orders = orderings
        run = 0  # how many rows so far equal the current one
        last = None
        for row in G:
            f = row_factors.get(row)
            if f is None:
                f = row_factors[row] = prod(map(factorial, row)) * factorial(2 - sum(row))
            denom *= f
            # e! / (1 * 2 * ... * m) for each run of m equal rows, one
            # division at a time, stays an integer throughout
            run = run + 1 if row == last else 1
            orders //= run
            last = row
        for c in map(sum, zip(*G)):
            denom *= column_factors[c]
        total += (common // denom << cycles) * orders
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
    yield from _bordered(margins, transport=True)


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
    subtraction.  poly.kronecker_digits unpacks the sum once, each nonzero
    digit is divided by L, and Poly.from_slots puts the quotients on the
    z-exponent slots with t filled in to degree D.

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
    digits = kronecker_digits(total, width, radix**r)
    coeffs = [Fraction(c, common) if c else 0 for c in digits]
    registry = VarRegistry(["t"] + [f"z{i}" for i in range(1, r + 1)])
    return Poly.from_slots(registry, coeffs, (registry.names[1:], radix), ("t", degree))


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
    a_x = a0 x0 + a1 x1 etc.: pi_p(G, p') of the bracketed G, which is built
    once per (r, e, p) and shared by every p'.  Compare with
    n3(r,e,p',p) * a_x^{2(re-p'-p)} b_x^{2(e-p'+p)} (ab)^{2(p'-p)}.
    """
    _check_range("g_direct", r, e, p)
    if not (0 <= 2 * pprime <= (r + 1) * e):
        raise ValueError(f"g_direct needs 0 <= 2p' <= (r+1)e, got pprime={pprime}")
    return pi_p(_bracket(r, e, p), pprime).poly


@lru_cache(maxsize=16)
def _bracket(r: int, e: int, p: int) -> Poly:
    """The bracketed G of g_direct, over a registry of its own.  It is kept
    and handed to every caller, so none may change its terms; its registry
    may grow, as any registry can, without changing what it means."""
    reg = VarRegistry(["x0", "x1", "y0", "y1", "a0", "a1", "b0", "b1"])
    x0, x1, y0, y1 = (Poly.variable(reg, n) for n in ("x0", "x1", "y0", "y1"))
    a0, a1, b0, b1 = (Poly.variable(reg, n) for n in ("a0", "a1", "b0", "b1"))
    xy = x0 * y1 - x1 * y0
    a_x = a0 * x0 + a1 * x1
    a_y = a0 * y0 + a1 * y1
    b_x = b0 * x0 + b1 * x1
    b_y = b0 * y0 + b1 * y1
    return xy ** (2 * p) * a_x ** (r * e - 2 * p) * a_y ** (r * e - 2 * p) * b_x**e * b_y**e


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
