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
from functools import reduce
from math import comb, prod
from operator import mul

from .arith import SIZE_CAP_ENV, factorial, size_cap
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
            if cells > cap:
                raise ValueError(
                    f"{name} would build {cells} cells of candidate rows, above the cap"
                    f" of {cap} (set {SIZE_CAP_ENV} to raise it)"
                )
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
                    raise ValueError(
                        f"{name} passes the cap of {cap} candidate rows tried"
                        f" (set {SIZE_CAP_ENV} to raise it)"
                    )
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
    held to INVFORGE_SIZE_CAP, past which this raises ValueError.
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


def transport_matrices(r: int, e: int, p: int):
    """All (r+1)x(r+1) nonnegative integer matrices with zero diagonal and
    row sums = column sums = (e, ..., e, re-2p), in row-major order.

    The candidate rows are the compositions of each margin with a zero on
    the diagonal, placed one per level; the last row is what the columns
    have left.  The work is held to INVFORGE_SIZE_CAP, past which this
    raises ValueError."""
    if r < 2 or e < 1:
        raise ValueError(f"transport_matrices needs r >= 2, e >= 1, got {(r, e)}")
    if not (0 <= 2 * p <= r * e):
        raise ValueError(f"transport_matrices needs 0 <= 2p <= re, got p={p}")
    margins = [e] * r + [r * e - 2 * p]
    yield from _bordered(margins, zero_diagonal=True, border=True, name="transport_matrices")


def tau(r: int, e: int, p: int, registry: VarRegistry = None) -> Poly:
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
    summed under its merged key; keys whose weights cancel are dropped, and
    each remaining key's product is accumulated over L by one
    Poly.weighted_sum, which multiplies in its last factor; the sum is
    divided by L once.  No closed form is used, so tau stays a route
    independent of the transvectant that tau_transvectant_check compares it
    with.
    """
    if r < 2 or e < 1:
        raise ValueError(f"tau needs r >= 2, e >= 1, got {(r, e)}")
    if not (0 <= 2 * p <= r * e):
        raise ValueError(f"tau needs 0 <= 2p <= re, got p={p}")
    if registry is None:
        registry = VarRegistry(["t"] + [f"z{i}" for i in range(1, r + 1)])
    t = Poly.variable(registry, "t")
    z = [Poly.variable(registry, f"z{i}") for i in range(1, r + 1)]
    common = factorial(2 * r * e - 2 * p)
    facts = [factorial(m) for m in range(max(e, r * e - 2 * p) + 1)]
    # 0-based: z[i] is z_{i+1}, and index r is the border row and column
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

    powers = {}  # (i, j, m) -> (z[i] - z[j])^m, or (t - z[i])^m when j = r
    one = Poly.const(registry, 1)

    def factor(i, j, m):
        f = powers.get((i, j, m))
        if f is None:
            base = z[i] - z[j] if j < r else t - z[i]
            f = powers[i, j, m] = base**m
        return f

    def triple(w, key):
        # the last factor is multiplied in by weighted_sum's accumulation
        *head, last = (factor(i, j, m) for (i, j), m in zip(pairs, key) if m)
        return w, reduce(mul, head) if head else one, last

    triples = (triple(w, key) for key, w in weights.items() if w)
    return Poly.weighted_sum(registry, triples) * Fraction(1, common)


def tau_transvectant_check(r: int, e: int, p: int) -> bool:
    """Check that the transvectant (prod l_i^e, prod l_j^e)_{2p} of symbolic
    linear forms, dehomogenized by l_{i,0} = z_i, l_{i,1} = 1, x0 = -1,
    x1 = t, equals (re-2p)!^2 (2p)! e!^(2r) / (re)!^2 times tau(r, e, p)."""
    if r < 2 or e < 1:
        raise ValueError(f"tau_transvectant_check needs r >= 2, e >= 1, got {(r, e)}")
    if not (0 <= 2 * p <= r * e):
        raise ValueError(f"tau_transvectant_check needs 0 <= 2p <= re, got p={p}")
    names = ["x0", "x1", "t"] + [f"z{i}" for i in range(1, r + 1)]
    for i in range(1, r + 1):
        names += [f"l{i}_0", f"l{i}_1"]
    reg = VarRegistry(names)

    product = Poly.const(reg, 1)
    for i in range(1, r + 1):
        li = Poly.term(reg, 1, {f"l{i}_0": 1, "x0": 1}) + Poly.term(
            reg, 1, {f"l{i}_1": 1, "x1": 1}
        )
        product = product * li**e
    form = BinaryForm(product, r * e)
    trans = transvectant(form, form, 2 * p)

    bindings = {"x0": Poly.const(reg, -1), "x1": Poly.variable(reg, "t")}
    for i in range(1, r + 1):
        bindings[f"l{i}_0"] = Poly.variable(reg, f"z{i}")
        bindings[f"l{i}_1"] = Poly.const(reg, 1)
    lhs = trans.poly.substitute(bindings)

    prefactor = Fraction(
        factorial(r * e - 2 * p) ** 2 * factorial(2 * p) * factorial(e) ** (2 * r),
        factorial(r * e) ** 2,
    )
    rhs = tau(r, e, p, registry=reg) * prefactor
    return lhs == rhs


def g_direct(r: int, e: int, p: int, pprime: int) -> Poly:
    """Direct evaluation of

    Omega^{2p'} [ (xy)^{2p} a_x^{re-2p} a_y^{re-2p} b_x^e b_y^e ] at y:=x

    over the variables a0, a1, b0, b1, x0, x1, with (xy) = x0 y1 - x1 y0 and
    a_x = a0 x0 + a1 x1 etc.: pi_p(G, p') of the bracketed G.  Compare with
    n3(r,e,p',p) * a_x^{2(re-p'-p)} b_x^{2(e-p'+p)} (ab)^{2(p'-p)}.
    """
    if r < 2 or e < 1:
        raise ValueError(f"g_direct needs r >= 2 and e >= 1, got {(r, e)}")
    if not (0 <= 2 * p <= r * e):
        raise ValueError(f"g_direct needs 0 <= 2p <= re, got p={p}")
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
