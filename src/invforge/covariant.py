"""Degree-three covariants of a binary form and the membership test for
the power-of-a-quadratic cone.

For a binary form F of even degree d = 2e the covariants

    U(i,j) = ((F,F)_{2i}, F)_j

of order 3d-4i-2j, the rational constants mu_{i,j}, and the combinations

    Phi(i,j,i',j') = mu_{i',j'} U(i,j) - mu_{i,j} U(i',j')

assemble into a set S(d) whose common vanishing characterizes the forms
that are e-th powers of quadratics.  S(d) lies in I_3, the cubic slice of
the ideal of those forms, and is 3-7 times redundant over it: I_3 splits
into ideal_character(3, d) irreducibles, and each covariant's
coefficients span one of them.  membership() evaluates one member per
irreducible, kept by the rule of _rule up to d = _RULE_MAX_D and all of
S(d) past it, and reports the first non-vanishing kept member as a
witness.  spans_ideal() is the exact certificate that the kept members
span I_3, and so all of S(d).

CovariantExpr is the one evaluation path: u_cov() and phi() evaluate one,
its constructor validates every index set, and evaluate reads each U,
unnormalized, from a _Window of F that holds their Omega work to the
work cap.  A lone member builds a window of its own U's and scales its
answer once; a Phi is p U(i,j) - q U(i2,j2) for the integer ratio p/q
of its two constants.  membership builds one window of the U's its kept
members read and only asks whether each vanishes: nothing is scaled and
no witness is built.

A dense integer form stays in integers from the parser to the verdict:
its window holds coefficient lists from transvect._omega_dense, so a
member vanishes when its list is all zero, and only the form evaluate
returns is built as a Poly.  Symbolic and Fraction forms take the same
steps on Polys: (F,F)_{2i} through transvect._omega_diagonal, and every
U(i,j) of one i from one transvect._omega_table of ((F,F)_{2i}, F),
which multiplies each pair of coefficient groups once for all the j the
window holds.  set_S(d) and each member's constants are built on first
use and kept, once per degree.
"""

import random

from fractions import Fraction
from functools import lru_cache
from math import perm

from .alphamap import ExactMatrix
from .arith import check_cap
from .closedform import n2
from .plethysm import ideal_character
from .poly import Poly, VarRegistry
from .transvect import X, BinaryForm, _omega_dense, _omega_diagonal, _omega_table


def in_range(d: int, i: int, j: int) -> bool:
    """The index window in which U(i,j) is not forced to vanish:
    0 <= i <= d/2 and 0 <= j <= min(d, 2d-4i)."""
    return 0 <= 2 * i <= d and 0 <= j <= min(d, 2 * d - 4 * i)


def u_cov(d: int, i: int, j: int, F: BinaryForm) -> BinaryForm:
    """The covariant ((F,F)_{2i}, F)_j of a degree-d form, exactly; the
    zero form outside the index window."""
    return CovariantExpr("U", d, (i, j)).evaluate(F)


def mu(e: int, i: int, j: int) -> Fraction:
    """mu_{i,j} = (-1)^(i+k) n2(e,e,i) n2(2e-2i,e,k) for j = 2k."""
    if j % 2:
        raise ValueError(f"mu needs even j, got j={j}")
    if not in_range(2 * e, i, j):
        raise ValueError(f"mu indices out of range: e={e}, i={i}, j={j}")
    k = j // 2
    sign = -1 if (i + k) % 2 else 1
    return sign * n2(e, e, i) * n2(2 * e - 2 * i, e, k)


def phi(d: int, i: int, j: int, i2: int, j2: int, F: BinaryForm) -> BinaryForm:
    """mu_{i2,j2} U(i,j) - mu_{i,j} U(i2,j2), for pairs with equal 2i+j and
    both j's even."""
    return CovariantExpr("Phi", d, (i, j, i2, j2)).evaluate(F)


class CovariantExpr:
    """A named element of the defining set: a single U(i,j) or a
    difference Phi(i,j,i2,j2).  d must be even; a Phi needs even j's,
    equal 2i+j and both pairs in the window.  A U outside the window
    evaluates to the zero form."""

    __slots__ = ("kind", "d", "indices", "_scalars")

    def __init__(self, kind: str, d: int, indices: tuple):
        if kind not in ("U", "Phi"):
            raise ValueError(f"unknown covariant kind {kind!r}")
        if kind == "U" and len(indices) != 2:
            raise ValueError("U takes two indices")
        if kind == "Phi" and len(indices) != 4:
            raise ValueError("Phi takes four indices")
        if d % 2:
            raise ValueError(f"{kind} needs even degree, got d={d}")
        if kind == "Phi":
            i, j, i2, j2 = indices
            if j % 2 or j2 % 2:
                raise ValueError(f"Phi needs even orders, got j={j}, j2={j2}")
            if 2 * i + j != 2 * i2 + j2:
                raise ValueError(
                    f"Phi needs 2i+j = 2i2+j2, got {2 * i + j} != {2 * i2 + j2}"
                )
            if not (in_range(d, i, j) and in_range(d, i2, j2)):
                raise ValueError(f"Phi indices out of range: {tuple(indices)}")
        self.kind = kind
        self.d = d
        self.indices = tuple(indices)
        self._scalars = None  # see _constants

    def name(self) -> str:
        return f"{self.kind}({','.join(str(t) for t in self.indices)})"

    @property
    def order(self) -> int:
        i, j = self.indices[0], self.indices[1]
        return 3 * self.d - 4 * i - 2 * j

    def evaluate(self, F: BinaryForm, window=None):
        """Evaluate on a form of degree d.  Alone, it builds a _Window of F
        for its own U's, which holds their Omega work to the work cap, and
        returns the exact form; a zero F, or a U outside the index window,
        gives the zero form at once.

        Given a window of F (membership's holds the U's of its kept
        members), it returns only whether the member vanishes: the raw
        combination (a U, or p U(i,j) - q U(i2,j2)) is tested as it stands,
        with no scalar applied, no Poly of the answer built and no cap of
        its own checked.
        A window of another form raises ValueError.
        """
        if F.degree != self.d:
            raise ValueError(f"form has degree {F.degree}, expected {self.d}")
        pairs = zip(self.indices[::2], self.indices[1::2])
        rows = {i: [j] for i, j in pairs if in_range(self.d, i, j)}
        given = window is not None
        if not given:
            window = _Window(F, rows, f"{self.name()} would take {{}} Omega branch terms")
        elif window.form is not F.poly and window.form != F.poly:
            raise ValueError("window was built for another form")
        if not (rows and window.work):  # a zero F, or a U outside the window
            return True if given else self._zero(F)
        if self.kind == "U":
            combo = window.raw(*self.indices)
            vanishes = not any(combo) if type(combo) is list else combo.is_zero()
        else:
            i, j, i2, j2 = self.indices
            p, q, _ = self._constants()
            a, b = window.raw(i, j), window.raw(i2, j2)
            if type(a) is list:
                combo = [p * x - q * y for x, y in zip(a, b)]
                vanishes = not any(combo)
            else:
                # p a - q b vanishes iff a and b share every key, in ratio q : p
                vanishes = a.terms.keys() == b.terms.keys() and all(
                    p * c == q * b.terms[key] for key, c in a.terms.items()
                )
                combo = None  # built only for a nonzero answer
        if given:
            return vanishes
        if vanishes:
            return self._zero(F)
        scale = self._constants()[2] if self.kind == "Phi" else self._constants()
        if combo is None:
            combo = a * p - b * q
        if type(combo) is not list:
            return BinaryForm(combo * scale, self.order)
        # scale * c, not c * scale: a Fraction times an int takes no detour
        combo = [scale * c for c in combo]
        box, fill = (X[1:], len(combo)), (X[0], self.order)
        return BinaryForm(Poly.from_slots(F.poly.registry, combo, box, fill), self.order)

    def _zero(self, F):
        return BinaryForm(Poly.zero(F.poly.registry), max(self.order, 0))

    def _constants(self):
        # kept after the first call: for U(i,j) its _scale s(i,j); for Phi,
        # c U_raw(i,j) - c2 U_raw(i2,j2) with c = mu_{i2,j2} s(i,j) and c2 =
        # mu_{i,j} s(i2,j2), the integers p/q = c/c2 and the scale c2/q
        if self._scalars is None:
            if self.kind == "U":
                self._scalars = self._scale(*self.indices)
            else:
                i, j, i2, j2 = self.indices
                e = self.d // 2
                c = mu(e, i2, j2) * self._scale(i, j)
                c2 = mu(e, i, j) * self._scale(i2, j2)
                ratio = c / c2  # mu, a ratio of factorials, never vanishes
                self._scalars = ratio.numerator, ratio.denominator, c2 / ratio.denominator
        return self._scalars

    def _scale(self, i, j) -> Fraction:
        # (d-2i)!^2/d!^2 * (u-j)!(d-j)!/(u!d!), as falling factorials
        d = self.d
        u = 2 * d - 4 * i
        return Fraction(1, perm(d, 2 * i) ** 2 * perm(u, j) * perm(d, j))

    def __repr__(self):
        return f"CovariantExpr({self.name()}, d={self.d})"

    def __eq__(self, other):
        if not isinstance(other, CovariantExpr):
            return NotImplemented
        return (self.kind, self.d, self.indices) == (other.kind, other.d, other.indices)

    def __hash__(self):
        return hash((self.kind, self.d, self.indices))


def _rows(members) -> dict:
    """i -> the ascending j of every U(i,j) inside the index window that
    the members read: the rows of their _Window."""
    rows = {}
    for expr in members:
        for i, j in zip(expr.indices[::2], expr.indices[1::2]):
            if in_range(expr.d, i, j):
                rows.setdefault(i, set()).add(j)
    return {i: sorted(js) for i, js in rows.items()}


class _Window:
    """The U(i,j) = ((F,F)_{2i}, F)_j of one form F, both transvectants
    unnormalized, for each i of rows and each j of rows[i], an ascending
    list or range; raw computes each once, on first use, in any order.  Built,
    it holds their Omega work to the work cap: 2i+1 branches for
    (F,F)_{2i} of each i and j+1 for each U(i,j), times the terms of F;
    what words the refusal, with {} for the work.

    For a dense integer F (Poly.dense_coefficients) both steps run
    _omega_dense on coefficient lists over one falling-factorial table; for
    any other F, (F,F)_{2i} comes from _omega_diagonal and every U(i,j) of
    one i from one _omega_table of ((F,F)_{2i}, F) up to the last j of
    rows[i], so U(i,j) and U(i,j') share each coefficient product.
    """

    def __init__(self, F: BinaryForm, rows: dict, what: str):
        branches = 0
        for i, js in rows.items():
            # the j+1 over a range of j sum as an arithmetic series
            ones = len(js) * (js[0] + js[-1] + 2) // 2 if type(js) is range else sum(js) + len(js)
            branches += 2 * i + 1 + ones
        self.work = branches * len(F.poly.terms)
        check_cap(self.work, what.format(self.work))
        self.form = F.poly
        self._rows = rows
        self._dense = F.poly.dense_coefficients(X)
        # (F,F)_{2i} has degree <= 2d
        self._ff = [[1] * (2 * F.degree + 1)] if self._dense else None
        self._by_i = {}  # i -> (j -> U(i,j))
        self._raw = {}  # (i, j) -> U(i,j)

    def raw(self, i: int, j: int):
        """U(i,j): a coefficient list for a dense integer F, else a Poly."""
        raw = self._raw.get((i, j))
        if raw is None:
            if i not in self._by_i:
                self._by_i[i] = self._row(i)
            raw = self._raw[i, j] = self._by_i[i](j)
        return raw

    def _row(self, i):
        F, f, ff = self.form, self._dense, self._ff
        if f is None:
            return _omega_table(_omega_diagonal(F, F, 2 * i), F, self._rows[i][-1])
        h = _omega_dense(f, f, 2 * i, ff)
        return lambda j: _omega_dense(h, f, j, ff)


def set_S(d: int) -> list:
    """The defining covariant set for degree d:

      - every U(i,j) with j odd inside the index window, and
      - Phi over consecutive pairs (by ascending i) of even-order indices
        sharing the same value of 2i+j.

    Order is canonical: the odd U's sorted by (j, i), then the Phi's by
    (2i+j, i).  Determinism of the membership witness relies on it.
    Each call returns a fresh list of the same members, built once per
    degree, so each Phi's constants are also computed once per degree.
    """
    if d % 2 or d < 4:
        raise ValueError(f"set_S needs even d >= 4, got {d}")
    return list(_members(d))


@lru_cache(maxsize=16)
def _members(d: int) -> tuple:
    e = d // 2
    exprs = []
    for j in range(1, d + 1, 2):
        for i in range(e + 1):
            if j <= min(d, 2 * d - 4 * i):
                exprs.append(CovariantExpr("U", d, (i, j)))

    by_s = {}
    for i in range(e + 1):
        for j in range(0, min(d, 2 * d - 4 * i) + 1, 2):
            by_s.setdefault(2 * i + j, []).append((i, j))
    for s in sorted(by_s):
        group = sorted(by_s[s])
        for (i, j), (i2, j2) in zip(group, group[1:]):
            exprs.append(CovariantExpr("Phi", d, (i, j, i2, j2)))
    return tuple(exprs)


# membership evaluates one member per irreducible of I_3 up to this
# degree, and all of S(d) past it; the certificate spans_ideal is held,
# in tests/test_covariant.py, to every even d up to it
_RULE_MAX_D = 32


@lru_cache(maxsize=16)
def _rule(d: int) -> tuple:
    """(keep, rows): keep[n] says whether membership evaluates the n-th
    member of S(d), in canonical order, and rows are the U's the kept
    members read, the rows of their _Window; built once per degree.

    Walking S(d), a member is kept while fewer than ideal_character(3,
    d)[order] members of its order have been kept: one per irreducible of
    I_3, so 1, 3, 6, 10 and 15 at d = 4..12 against 7, 15, 26, 40 and 57
    in S(d).  U(0,1) = (F^2, F)_1, identically zero, is kept first all the
    same: the tracer check of bench/test_bench.py at d = 4 reads the
    product F * F of its (F,F)_0.

    Past _RULE_MAX_D every member is kept (keep is None) and rows are the
    whole index window, every U(i,j) with j <= min(d, 2d - 4i), so the
    window holds S(d)'s work to the cap before S(d) is built.
    """
    if d > _RULE_MAX_D:
        return None, {i: range(min(d, 2 * d - 4 * i) + 1) for i in range(d // 2 + 1)}
    members = _members(d)
    room = ideal_character(3, d)
    keep = [True]
    for expr in members[1:]:
        keep.append(room.get(expr.order, 0) > 0)
        if keep[-1]:
            room[expr.order] -= 1
    return tuple(keep), _rows(x for x, kept in zip(members, keep) if kept)


def spans_ideal(members: list) -> bool:
    """Whether the members, degree-d covariants in I_3 as every member of
    S(d) is, span I_3, and so every member of S(d): an exact, one-sided
    certificate.

    Covariants of one order m are linearly independent exactly when their
    sources, the coefficients of x0^m, are, and the sources of the order-m
    covariants in I_3 span mult(m) = ideal_character(3, d)[m] dimensions.
    So the members span I_3 when, for each m, their sources reach rank
    mult(m) on K = max mult + 2 seeded dense integer forms: the rank of
    the evaluations is a lower bound for the rank of the sources as
    cubics, and ExactMatrix.rank is exact.  False means only that these
    forms found no such rank.
    """
    d = members[0].d
    mult = ideal_character(3, d)
    members = [expr for expr in members if expr.order in mult]
    rows = _rows(members)
    K = max(mult.values()) + 2
    rng = random.Random(d)
    reg = VarRegistry(X)
    sources = {expr: [] for expr in members}
    for _ in range(K):
        terms = {(d - t, t): rng.choice((-1, 1)) * rng.randint(1, 9) for t in range(d + 1)}
        window = _Window(BinaryForm(Poly(reg, terms), d), rows, "spans_ideal would take {}")
        for expr, row in sources.items():
            # the x0^order coefficient of the raw combination; 0 for a U
            # outside the index window
            pairs = zip(expr.indices[::2], expr.indices[1::2])
            heads = [(window.raw(i, j) or [0])[0] for i, j in pairs]
            if expr.kind == "U":
                row.append(heads[0])
            else:
                p, q, _ = expr._constants()
                row.append(p * heads[0] - q * heads[1])
    for m, need in mult.items():
        exprs = [expr for expr in members if expr.order == m]
        sparse = [{k: c for k, c in enumerate(sources[expr]) if c} for expr in exprs]
        if ExactMatrix(exprs, range(K), sparse).rank() != need:
            return False
    return True


def membership(F: BinaryForm) -> tuple:
    """Decide whether a binary form of even degree d = 2e is the e-th
    power of some quadratic, by evaluating the defining covariant set.

    Returns (True, None) on membership, else (False, name) where name
    labels the first kept member of S(d) (see _rule), in canonical order,
    that does not vanish on F.  Works for symbolic coefficients too, in
    which case True means the identity holds for every specialization.
    The kept members span I_3, and so every member of S(d) (spans_ideal
    certifies it for every even d <= _RULE_MAX_D), so the verdict is that
    of all of S(d); only a witness can differ.

    Before any covariant is evaluated, one _Window of the U's the kept
    members read bounds the Omega work of the whole set: k+1 branches for
    each (F,F)_{2i} (k = 2i) and each U(i,j) (k = j), each over as many
    terms as F has.  That is 681 branches at d = 20, and 10,837,702 at
    d = 400, past _RULE_MAX_D, where the window is the whole index window.
    Every member reads its U's from that window and checks no cap of its
    own; a grouped table still holds the bits of each weight it would
    build (see transvect._omega_table).
    """
    d = F.degree
    if d % 2:
        raise ValueError(f"membership needs even degree, got {d}")
    if d < 2:
        raise ValueError(f"membership needs degree >= 2, got {d}")
    if F.is_zero() or d == 2:
        # the zero form is the e-th power of the zero quadratic, and
        # every binary quadratic is trivially its own first power
        return True, None
    keep, rows = _rule(d)
    window = _Window(F, rows, f"membership would take {{}} Omega branch terms over S({d})")
    members = set_S(d)
    if keep is not None:
        members = [expr for expr, kept in zip(members, keep) if kept]
    for expr in members:
        if not expr.evaluate(F, window):
            return False, expr.name()
    return True, None


def octavic_preset() -> list:
    """A short list of degree-8 covariants whose common vanishing still
    cuts out the fourth powers of quadratics: three odd U's, two Phi's,
    and U(3,3)."""
    return [
        CovariantExpr("U", 8, (0, 3)),
        CovariantExpr("U", 8, (0, 5)),
        CovariantExpr("U", 8, (0, 7)),
        CovariantExpr("Phi", 8, (0, 6, 1, 4)),
        CovariantExpr("Phi", 8, (0, 8, 1, 6)),
        CovariantExpr("U", 8, (3, 3)),
    ]
