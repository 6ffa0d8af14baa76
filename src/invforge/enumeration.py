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
from operator import mul

from .arith import factorial
from .closedform import n3
from .poly import Poly, VarRegistry
from .transvect import BinaryForm, pi_p, transvectant


def multigraphs(e: int, p: int):
    """All e-by-e nonnegative integer matrices with entry sum 2p and every
    row and column sum <= 2, in row-major lexicographic order.

    Vertex-labelled bipartite multigraphs on L x R: entry m[i][j] is the edge
    multiplicity between left vertex i and right vertex j.
    """
    if not (0 <= p <= e):
        raise ValueError(f"multigraphs needs 0 <= p <= e, got {(e, p)}")
    total = 2 * p
    row = [0] * (e * e)
    col_used = [0] * e

    def cells_left(idx):
        return e * e - idx

    def walk(idx, placed, row_used):
        if idx == e * e:
            if placed == total:
                yield tuple(tuple(row[i * e : (i + 1) * e]) for i in range(e))
            return
        i, j = divmod(idx, e)
        if j == 0:
            row_used = 0
        # capacity pruning: remaining cells can still absorb what is left
        remaining = total - placed
        if remaining > 2 * cells_left(idx):
            return
        cap = min(2 - row_used, 2 - col_used[j], remaining)
        for v in range(cap + 1):
            row[idx] = v
            col_used[j] += v
            yield from walk(idx + 1, placed + v, row_used + v)
            col_used[j] -= v
        row[idx] = 0

    yield from walk(0, 0, 0)


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
    """
    if not (0 <= p <= e):
        raise ValueError(f"n1_brute needs 0 <= p <= e, got {(e, p)}")
    total = Fraction(0)
    base = factorial(2 * p)
    for G in multigraphs(e, p):
        cycles, _, _, lr = component_census(G)
        if lr:
            continue
        denom = 1
        for i in range(e):
            li = sum(G[i])
            denom *= factorial(2 - li)
            for j in range(e):
                denom *= factorial(G[i][j])
        for j in range(e):
            cj = sum(G[i][j] for i in range(e))
            denom *= factorial(2 - cj)
        total += Fraction(base * 2 ** (2 * e - 2 * p + cycles), denom)
    return total


def transport_matrices(r: int, e: int, p: int):
    """All (r+1)x(r+1) nonnegative integer matrices with zero diagonal and
    row sums = column sums = (e, ..., e, re-2p), in row-major order."""
    if r < 2 or e < 1:
        raise ValueError(f"transport_matrices needs r >= 2, e >= 1, got {(r, e)}")
    if not (0 <= 2 * p <= r * e):
        raise ValueError(f"transport_matrices needs 0 <= 2p <= re, got p={p}")
    size = r + 1
    margins = [e] * r + [r * e - 2 * p]
    col_left = list(margins)
    matrix = [[0] * size for _ in range(size)]

    def fill_row(i, j, row_left, room):
        # room: what cells j.. of this row can still absorb (column i excluded)
        if j == size:
            if row_left == 0:
                yield from fill(i + 1)
            return
        if j == i:
            matrix[i][j] = 0
            yield from fill_row(i, j + 1, row_left, room)
            return
        later = room - col_left[j]
        lo = max(0, row_left - later)
        hi = min(row_left, col_left[j])
        for v in range(lo, hi + 1):
            matrix[i][j] = v
            col_left[j] -= v
            yield from fill_row(i, j + 1, row_left - v, later)
            col_left[j] += v
        matrix[i][j] = 0

    def fill(i):
        if i == size:
            if all(c == 0 for c in col_left):
                yield tuple(tuple(row) for row in matrix)
            return
        yield from fill_row(i, 0, margins[i], sum(col_left) - col_left[i])

    yield from fill(0)


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
