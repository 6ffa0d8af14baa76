import itertools
from fractions import Fraction

import pytest

from invforge import closedform, enumeration
from invforge.closedform import n1_closed, n3
from invforge.enumeration import (
    component_census,
    g_closed_form,
    g_direct,
    multigraphs,
    n1_brute,
    tau,
    tau_transvectant_check,
    transport_matrices,
)
from invforge.arith import SIZE_CAP_ENV, factorial
from invforge.poly import Poly, VarRegistry


def brute_multigraphs(e, p):
    """Filter the full 0..2 grid; independent of the backtracking stream."""
    out = []
    for values in itertools.product(range(3), repeat=e * e):
        G = tuple(tuple(values[i * e : (i + 1) * e]) for i in range(e))
        if sum(values) != 2 * p:
            continue
        if any(sum(row) > 2 for row in G):
            continue
        if any(sum(G[i][j] for i in range(e)) > 2 for j in range(e)):
            continue
        out.append(G)
    return out


def brute_transport(r, e, p):
    """Every row with zero diagonal and the right sum, combined row by row and
    filtered on column sums; independent of the backtracking stream."""
    size = r + 1
    margins = [e] * r + [r * e - 2 * p]
    rows = []
    for i, m in enumerate(margins):
        rows.append([
            values[:i] + (0,) + values[i:]
            for values in itertools.product(range(m + 1), repeat=size - 1)
            if sum(values) == m
        ])
    return [
        M for M in itertools.product(*rows)
        if [sum(col) for col in zip(*M)] == margins
    ]


# -- multigraphs ------------------------------------------------------------


def count_multigraphs(e, p):
    """How many multigraphs multigraphs(e, p) yields, by a count over rows
    whose state is the tuple of column sums so far."""
    rows = [row for row in itertools.product(range(3), repeat=e) if sum(row) <= 2]
    counts = {(0,) * e: 1}
    for _ in range(e):
        grown = {}
        for cols, n in counts.items():
            for row in rows:
                new = tuple(c + v for c, v in zip(cols, row))
                if max(new, default=0) <= 2:
                    grown[new] = grown.get(new, 0) + n
        counts = grown
    return sum(n for cols, n in counts.items() if sum(cols) == 2 * p)


def test_multigraphs_match_brute_filter():
    # the brute filter runs over the grid in lexicographic order, so this
    # also holds the stream to row-major lexicographic order
    for e in (0, 1, 2, 3):
        for p in range(e + 1):
            assert list(multigraphs(e, p)) == brute_multigraphs(e, p), (e, p)


def test_multigraphs_count_e5_under_default_cap(monkeypatch):
    # the brute route of n1 at e = 5 (276,386 graphs) fits the default cap
    monkeypatch.delenv(SIZE_CAP_ENV, raising=False)
    got = [sum(1 for _ in multigraphs(5, p)) for p in range(6)]
    assert got == [count_multigraphs(5, p) for p in range(6)]
    assert sum(got) == 276_386


def test_multigraphs_count_2_1():
    assert len(list(multigraphs(2, 1))) == 10


def test_enumeration_size_cap(monkeypatch):
    # multigraphs(2, 1) builds one list of 6 candidate rows of length 3
    # (the row and its border cell), 18 cells; its walk tries the 6 rows at
    # the first level and, under each of the 6 that fit, the 6 again: 42
    monkeypatch.setenv(SIZE_CAP_ENV, "17")
    with pytest.raises(ValueError, match=f"18 cells of candidate rows.*cap of 17.*{SIZE_CAP_ENV}"):
        next(multigraphs(2, 1))
    monkeypatch.setenv(SIZE_CAP_ENV, "41")
    over = rf"above the cap of {{}} \(set {SIZE_CAP_ENV} to raise it\)$"
    with pytest.raises(ValueError, match="would try 42 candidate rows, " + over.format(41)):
        list(multigraphs(2, 1))
    monkeypatch.setenv(SIZE_CAP_ENV, "42")
    assert len(list(multigraphs(2, 1))) == 10
    # transport_matrices(4, 2, 2): 4 lists of 10 rows of length 5, 200 cells
    monkeypatch.setenv(SIZE_CAP_ENV, "300")
    tried = "^transport_matrices would try 310 candidate rows, "
    with pytest.raises(ValueError, match=tried + over.format(300)):
        list(transport_matrices(4, 2, 2))
    with pytest.raises(ValueError, match=f"^transport_matrices would build .* cap of 300 .*{SIZE_CAP_ENV}"):
        next(transport_matrices(6, 3, 4))


def test_multigraphs_range_guard():
    with pytest.raises(ValueError):
        list(multigraphs(2, 3))
    with pytest.raises(ValueError):
        list(multigraphs(2, -1))


# -- component census -------------------------------------------------------


def test_census_cases():
    # (cycles, left-left, right-right, left-right)
    assert component_census(((2,),)) == (1, 0, 0, 0)
    assert component_census(((1,),)) == (0, 0, 0, 1)
    assert component_census(((0,),)) == (0, 1, 1, 0)
    assert component_census(((1, 1), (1, 1))) == (1, 0, 0, 0)
    assert component_census(((1, 1), (0, 0))) == (0, 1, 1, 0)
    assert component_census(((2, 0), (0, 1))) == (1, 0, 0, 1)


def test_census_component_count_conserved():
    # every graph splits into cycles and chains covering all 2e vertices
    for G in multigraphs(2, 2):
        cycles, ll, rr, lr = component_census(G)
        vertices = sum(
            len(vs)
            for vs in _components(G).values()
        )
        assert vertices == 4
        assert cycles + ll + rr + lr == len(_components(G))


def test_census_matches_chain_ends():
    # a chain's ends are its vertices of degree < 2 (an isolated vertex is
    # both ends of its chain); classify chains by the sides of their ends
    for e in range(4):
        for p in range(e + 1):
            for G in multigraphs(e, p):
                degree = [sum(row) for row in G] + [sum(col) for col in zip(*G)]
                census = [0, 0, 0, 0]  # cycles, LL, RR, LR
                for vs in _components(G).values():
                    ends = [v for v in vs if degree[v] < 2]
                    if not ends:
                        census[0] += 1
                        continue
                    if len(vs) == 1:
                        ends *= 2
                    left_ends = sum(v < e for v in ends)
                    census[{2: 1, 0: 2, 1: 3}[left_ends]] += 1
                assert component_census(G) == tuple(census), G


def reference_census(G):
    """component_census by a union-find over all 2e vertices: a component
    is a cycle when it has as many edges as vertices, else a chain, LR for
    an odd edge count, and otherwise with both ends on the side holding
    more of its vertices."""
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


@pytest.mark.parametrize("e, p", [(e, p) for e in range(5) for p in range(e + 1)] + [(5, 3)])
def test_census_matches_vertex_union_find(e, p):
    for G in multigraphs(e, p):
        assert component_census(G) == reference_census(G), G


def test_census_takes_lists():
    assert component_census([[1, 1], [0, 0]]) == reference_census(((1, 1), (0, 0)))


def _components(G):
    e = len(G)
    parent = list(range(2 * e))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i in range(e):
        for j in range(e):
            if G[i][j]:
                parent[find(i)] = find(e + j)
    groups = {}
    for v in range(2 * e):
        groups.setdefault(find(v), []).append(v)
    return groups


# -- weighted count ---------------------------------------------------------


def test_n1_brute_frozen():
    assert n1_brute(1, 0) == 1
    assert n1_brute(1, 1) == 2


def test_n1_brute_matches_closed():
    for e in range(6):
        for p in range(e + 1):
            assert n1_brute(e, p) == n1_closed(e, p), (e, p)


def _weight(G, p):
    """The n1 weight of one multigraph, straight from its definition."""
    e = len(G)
    cycles, _, _, lr = component_census(G)
    if lr:
        return 0
    denom = 1
    for row in G:
        denom *= factorial(2 - sum(row))
        for m in row:
            denom *= factorial(m)
    for col in zip(*G):
        denom *= factorial(2 - sum(col))
    return Fraction(factorial(2 * p) * 2 ** (2 * e - 2 * p + cycles), denom)


def test_n1_brute_equals_the_sum_over_every_multigraph():
    # the walk up to row order against the whole row-major stream, graph by
    # graph, with no closed form
    for e in range(5):
        for p in range(e + 1):
            want = sum((_weight(G, p) for G in multigraphs(e, p)), Fraction(0))
            assert n1_brute(e, p) == want, (e, p)


def test_ordered_walk_yields_one_graph_per_row_order():
    # the ordered scan yields exactly the graphs of the full stream whose
    # rows are sorted, in the same order
    for e in range(1, 5):
        for p in range(e + 1):
            margins = [2] * e + [2 * e - 2 * p]
            ordered = list(enumeration._bordered(margins, transport=False, ordered=True))
            assert ordered == [G for G in multigraphs(e, p) if list(G) == sorted(G)], (e, p)


def test_n1_brute_calls_no_closed_form(monkeypatch):
    def refuse(*args):
        raise AssertionError("a closed form was called")

    for name in ("n1_closed", "n2", "_n2_parts"):
        monkeypatch.setattr(closedform, name, refuse)
    assert n1_brute(4, 2) == 51840


# -- transportation matrices ------------------------------------------------


def test_transport_unique_small_case():
    mats = list(transport_matrices(2, 1, 1))
    assert mats == [((0, 1, 0), (1, 0, 0), (0, 0, 0))]


def test_transport_margins_hold():
    for r, e, p in [(2, 1, 0), (2, 2, 1), (3, 1, 1), (4, 1, 2)]:
        margins = [e] * r + [r * e - 2 * p]
        seen = set()
        for M in transport_matrices(r, e, p):
            assert M not in seen
            seen.add(M)
            assert all(M[i][i] == 0 for i in range(r + 1))
            assert [sum(row) for row in M] == margins
            assert [sum(col) for col in zip(*M)] == margins
        assert seen


def test_transport_matches_brute_filter_in_order():
    grid = [(r, e, p) for r, e in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)]
            for p in range(r * e // 2 + 1)]
    for r, e, p in grid:
        assert list(transport_matrices(r, e, p)) == brute_transport(r, e, p), (r, e, p)


def test_transport_range_guards():
    with pytest.raises(ValueError):
        list(transport_matrices(1, 1, 0))
    with pytest.raises(ValueError):
        list(transport_matrices(2, 1, 2))


# -- tau ----------------------------------------------------------------


def test_tau_2_1_1_golden():
    t = tau(2, 1, 1)
    z1 = Poly.variable(t.registry, "z1")
    z2 = Poly.variable(t.registry, "z2")
    assert t == -((z1 - z2) ** 2)


def test_tau_2_1_0_golden():
    t = tau(2, 1, 0)
    tv = Poly.variable(t.registry, "t")
    z1 = Poly.variable(t.registry, "z1")
    z2 = Poly.variable(t.registry, "z2")
    assert t == ((tv - z1) * (tv - z2)) ** 2


def tau_reference(r, e, p):
    """tau as one Poly sum per matrix, each term scaled by its own 1/prod m_ij!."""
    registry = VarRegistry(["t"] + [f"z{i}" for i in range(1, r + 1)])
    t = Poly.variable(registry, "t")
    z = [None] + [Poly.variable(registry, f"z{i}") for i in range(1, r + 1)]
    total = Poly.zero(registry)
    for M in transport_matrices(r, e, p):
        prod = Poly.const(registry, 1)
        denom = 1
        for i in range(r + 1):
            for j in range(r + 1):
                m = M[i][j]
                denom *= factorial(m)
                if not m:
                    continue
                if i < r and j < r:
                    prod = prod * (z[i + 1] - z[j + 1]) ** m
                elif i < r:
                    prod = prod * (t - z[i + 1]) ** m
                else:
                    prod = prod * (t - z[j + 1]) ** m
        total = total + prod * Fraction(1, denom)
    return total


@pytest.mark.parametrize(
    "r,e,p",
    [(r, e, p) for r in (2, 3) for e in (1, 2) for p in range(r * e // 2 + 1)]
    + [(4, 1, p) for p in range(3)]
    + [(5, 1, p) for p in range(3)]
    # one matrix at p = 0; most matrices share their merged key at p >= 1
    + [(4, 2, p) for p in range(5)],
)
def test_tau_matches_reference_accumulation(r, e, p):
    got, want = tau(r, e, p), tau_reference(r, e, p)
    assert got.registry.names == want.registry.names
    assert got.terms == want.terms
    assert str(got) == str(want)


def test_tau_multiplies_no_poly(monkeypatch):
    # the products are shifts and subtractions of one packed int, decoded
    # once: no Poly product and no Omega table
    want = tau_reference(4, 2, 3)

    def refuse(*args):
        raise AssertionError("tau multiplied Poly values")

    monkeypatch.setattr(Poly, "__mul__", refuse)
    monkeypatch.setattr(Poly, "omega_table", refuse)
    got = tau(4, 2, 3)
    monkeypatch.undo()
    assert got.terms == want.terms
    assert str(got) == str(want)


def test_tau_range_guards():
    with pytest.raises(ValueError, match=r"^tau needs 0 <= 2p <= re, got p=2$"):
        tau(2, 1, 2)
    with pytest.raises(ValueError, match=r"^tau needs r >= 2, e >= 1, got \(2, 0\)$"):
        tau(2, 0, 0)


def test_tau_size_cap(monkeypatch):
    # tau(2, 1, 1): 6 monomials of degree 2 in t, z1, z2 times 2 * 2 bits
    monkeypatch.setenv(SIZE_CAP_ENV, "23")
    over = rf"above the cap of {{}} \(set {SIZE_CAP_ENV} to raise it\)$"
    bits = "^tau's answer could hold 24 bits or more, "
    with pytest.raises(ValueError, match=bits + over.format(23)):
        tau(2, 1, 1)
    # its packed sum is 3^2 digits of 6 bits, checked after the walk,
    # before any shift
    monkeypatch.setenv(SIZE_CAP_ENV, "53")
    packed = "^tau's packed sum would take 54 bits, "
    with pytest.raises(ValueError, match=packed + over.format(53)):
        tau(2, 1, 1)
    monkeypatch.setenv(SIZE_CAP_ENV, "54")
    assert str(tau(2, 1, 1)) == "-z1^2 + 2*z1*z2 - z2^2"
    # tau(4, 2, 4): 15,840 bits of answer fit, its packed sum of 5^4
    # digits of 29 bits does not
    monkeypatch.setenv(SIZE_CAP_ENV, "18124")
    packed = "^tau's packed sum would take 18125 bits, "
    with pytest.raises(ValueError, match=packed + over.format(18124)):
        tau(4, 2, 4)
    monkeypatch.setenv(SIZE_CAP_ENV, "18125")
    assert tau(4, 2, 4).terms == tau_reference(4, 2, 4).terms


def test_tau_over_default_cap_refused_before_any_factorial(monkeypatch):
    # (2, 300, 0) enumerates one matrix, yet its answer has 361,201 terms
    # over 1200!, of 10,550 bits; (2, 1000, 0) would pass 3 GB
    monkeypatch.delenv(SIZE_CAP_ENV, raising=False)
    calls = []
    monkeypatch.setattr(enumeration, "factorial", lambda n: calls.append(n))
    monkeypatch.setattr(enumeration, "transvectant", lambda *args: calls.append(args))
    for e in (300, 1000):
        with pytest.raises(ValueError, match=f"^tau's answer could hold .*{SIZE_CAP_ENV}"):
            tau(2, e, 0)
        with pytest.raises(ValueError, match=f"^tau's answer could hold .*{SIZE_CAP_ENV}"):
            tau_transvectant_check(2, e, 0)
    assert calls == []


def test_tau_symmetric_in_z():
    for r, e, p in [(2, 1, 1), (2, 2, 1), (3, 1, 1)]:
        t = tau(r, e, p)
        reg = t.registry
        swapped = t.substitute(
            {
                "z1": Poly.variable(reg, "z2"),
                "z2": Poly.variable(reg, "z1"),
            }
        )
        assert t == swapped, (r, e, p)


def test_tau_no_t_at_top_weight():
    # 2p = re empties the bordered margin, so t cannot appear
    for r, e in [(2, 1), (2, 2), (4, 1)]:
        t = tau(r, e, r * e // 2)
        assert t.degree_in(["t"]) <= 0


def test_tau_transvectant_identity_small():
    for r, e, p in [(2, 1, 0), (2, 1, 1), (3, 1, 0), (3, 1, 1), (2, 2, 2), (4, 1, 1), (4, 2, 3)]:
        assert tau_transvectant_check(r, e, p), (r, e, p)


def test_tau_transvectant_check_can_fail(monkeypatch):
    # negative control: a tau off by a factor of 2 must not pass the check
    real = enumeration.tau
    monkeypatch.setattr(enumeration, "tau", lambda r, e, p: real(r, e, p) * 2)
    assert not tau_transvectant_check(3, 1, 1)


def test_tau_transvectant_check_range_guards():
    # checked before the transvectant is built, in transport_matrices' style
    with pytest.raises(ValueError, match=r"^tau_transvectant_check needs 0 <= 2p <= re, got p=5$"):
        tau_transvectant_check(2, 1, 5)
    with pytest.raises(ValueError, match=r"^tau_transvectant_check needs 0 <= 2p <= re, got p=-1$"):
        tau_transvectant_check(2, 1, -1)
    with pytest.raises(ValueError, match=r"r >= 2, e >= 1, got \(1, 1\)$"):
        tau_transvectant_check(1, 1, 0)


# -- direct Omega-power evaluation -------------------------------------------


def test_g_direct_trivial_indices():
    out = g_direct(2, 1, 0, 0)
    reg = out.registry
    a0, a1, b0, b1, x0, x1 = (
        Poly.variable(reg, n) for n in ("a0", "a1", "b0", "b1", "x0", "x1")
    )
    a_x = a0 * x0 + a1 * x1
    b_x = b0 * x0 + b1 * x1
    assert out == a_x**4 * b_x**2


def test_g_direct_matches_closed_form_grid():
    # the paper's n = 1 operator against n3's normal form, every (p, p')
    # for r <= 4, e <= 3
    for r in (2, 3, 4):
        for e in (1, 2, 3):
            for p in range(r * e // 2 + 1):
                for pp in range((r + 1) * e // 2 + 1):
                    direct = g_direct(r, e, p, pp)
                    closed = g_closed_form(r, e, p, pp, registry=direct.registry)
                    assert direct == closed, (r, e, p, pp)


def test_g_direct_builds_each_bracket_once(monkeypatch):
    # every p' of one (r, e, p) folds the same bracketed G
    seen = []
    fold = enumeration.pi_p

    def recording(G, pprime):
        seen.append(G)
        return fold(G, pprime)

    monkeypatch.setattr(enumeration, "pi_p", recording)
    enumeration._bracket.cache_clear()
    outs = [g_direct(3, 2, 1, pp) for pp in range(5)]
    assert len(seen) == 5 and all(G is seen[0] for G in seen)
    assert enumeration._bracket.cache_info().misses == 1
    assert outs[2] == g_closed_form(3, 2, 1, 2, registry=outs[2].registry)


def test_g_direct_vanishes_outside_support():
    # p' < p forces the closed form to zero; the operator agrees
    out = g_direct(2, 2, 1, 0)
    assert n3(2, 2, 0, 1) == 0
    assert out.is_zero()


def test_g_direct_range_guards():
    with pytest.raises(ValueError):
        g_direct(1, 1, 0, 0)
    with pytest.raises(ValueError):
        g_direct(2, 1, 2, 0)
    with pytest.raises(ValueError):
        g_direct(2, 1, 0, 4)
