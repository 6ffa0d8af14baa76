"""Degree-three covariants of a binary form and the membership test for
the power-of-a-quadratic cone.

For a binary form F of even degree d = 2e the covariants

    U(i,j) = ((F,F)_{2i}, F)_j

of order 3d-4i-2j, the rational constants mu_{i,j}, and the combinations

    Phi(i,j,i',j') = mu_{i',j'} U(i,j) - mu_{i,j} U(i',j')

assemble into a set S whose common vanishing characterizes the forms that
are e-th powers of quadratics.  membership() evaluates that set on a given
form and reports the first non-vanishing element as a witness.

CovariantExpr is the one evaluation path: u_cov() and phi() evaluate one,
its constructor validates every index set, and evaluate reads each U,
unnormalized, from a _Window of F that holds their Omega work to the
work cap.  A lone member builds a window of its own U's and scales its
answer once; a Phi is p U(i,j) - q U(i2,j2) for the integer ratio p/q
of its two constants.  membership builds one window of the whole index
window and only asks whether each member vanishes: nothing is scaled
and no witness is built.

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

from fractions import Fraction
from functools import lru_cache
from math import perm

from .arith import check_cap
from .closedform import n2
from .poly import Poly
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

        Given a window of F (membership's holds the whole index window), it
        returns only whether the member vanishes: the raw combination (a U,
        or p U(i,j) - q U(i2,j2)) is tested as it stands, with no scalar
        applied, no Poly of the answer built and no cap of its own checked.
        A window of another form raises ValueError.
        """
        if F.degree != self.d:
            raise ValueError(f"form has degree {F.degree}, expected {self.d}")
        pairs = zip(self.indices[::2], self.indices[1::2])
        rows = {i: range(j, j + 1) for i, j in pairs if in_range(self.d, i, j)}
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


class _Window:
    """The U(i,j) = ((F,F)_{2i}, F)_j of one form F, both transvectants
    unnormalized, for each i of rows and each j of the range rows[i]; raw
    computes each once, on first use, in any order.  Built, it holds their
    Omega work to the work cap: 2i+1 branches for (F,F)_{2i} of each i and
    j+1 for each U(i,j), times the terms of F; what words the refusal,
    with {} for the work.

    For a dense integer F (Poly.dense_coefficients) both steps run
    _omega_dense on coefficient lists over one falling-factorial table; for
    any other F, (F,F)_{2i} comes from _omega_diagonal and every U(i,j) of
    one i from one _omega_table of ((F,F)_{2i}, F) up to the last j of
    rows[i], so U(i,j) and U(i,j') share each coefficient product.
    """

    def __init__(self, F: BinaryForm, rows: dict, what: str):
        # the j+1 over a range of j sum as an arithmetic series
        branches = sum(2 * i + 1 + len(js) * (js[0] + js[-1] + 2) // 2 for i, js in rows.items())
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


def membership(F: BinaryForm) -> tuple:
    """Decide whether a binary form of even degree d = 2e is the e-th
    power of some quadratic, by evaluating the defining covariant set.

    Returns (True, None) on membership, else (False, name) where name
    labels the first set element (in canonical order) that does not
    vanish on F.  Works for symbolic coefficients too, in which case
    True means the identity holds for every specialization.

    Before any covariant is evaluated, one _Window of the whole index
    window, which holds every U of S(d), bounds the Omega work of the
    whole set: k+1 branches for each (F,F)_{2i} (k = 2i) and each U(i,j)
    (k = j), each over as many terms as F has.  That is 1,812 branches at
    d = 20 and 10,837,702 at d = 400.  Every member reads its U's from that
    window and checks no cap of its own; a grouped table still holds the
    bits of each weight it would build (see transvect._omega_table).
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
    # the index window: every U(i,j) with j <= min(d, 2d - 4i)
    rows = {i: range(min(d, 2 * d - 4 * i) + 1) for i in range(d // 2 + 1)}
    window = _Window(F, rows, f"membership would take {{}} Omega branch terms over S({d})")
    for expr in set_S(d):
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
