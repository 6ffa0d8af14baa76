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
its constructor validates every index set, and evaluate holds its Omega
work to the work cap.  Every U is computed unnormalized, once per form in
any order (see evaluate), and scaled once; a Phi is p U(i,j) - q U(i2,j2)
for the integer ratio p/q of its two constants, scaled once.

A dense integer form stays in integers from the parser to the verdict:
its memo holds coefficient lists from transvect._omega_dense, so a member
vanishes when its list is all zero, and only the form evaluate returns is
built as a Poly.  Symbolic and Fraction forms take the same steps on
Polys, through transvect._omega_diagonal.  set_S(d) and each member's
constants are built on first use and kept, once per degree.
"""

from fractions import Fraction
from functools import lru_cache
from math import perm

from .arith import check_cap
from .closedform import n2
from .poly import Poly
from .transvect import X, BinaryForm, _omega_dense, _omega_diagonal


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

    def evaluate(self, F: BinaryForm, cache: dict = None) -> BinaryForm:
        """Evaluate on a form of degree d, after holding the Omega work to
        the work cap: 2i+1 branches for (F,F)_{2i} and j+1 for U(i,j), per U
        of the window taken, each over the terms of F (as in membership).  A
        zero F, or a U outside the window, gives the zero form at once.

        A cache dict shared across set members memoizes, for one form F,
        the unnormalized (F,F)_{2i} under key i and U(i,j) under key (i, j),
        each computed once in any member order: coefficient lists for a
        dense integer F (see _kernel), so that only a nonzero result is
        built as a Poly, and Polys for any other F.  A cache belongs to the
        form it was first used with: another form raises ValueError.
        """
        if F.degree != self.d:
            raise ValueError(f"form has degree {F.degree}, expected {self.d}")
        if cache is None:
            cache = {}
        owner = cache.setdefault("form", F.poly)
        if owner is not F.poly and owner != F.poly:
            raise ValueError("cache was filled for another form")
        d = self.d
        pairs = zip(self.indices[::2], self.indices[1::2])
        branches = sum(2 * i + j + 2 for i, j in pairs if in_range(d, i, j))
        work = branches * len(F.poly.terms)
        check_cap(work, f"{self.name()} would take {work} Omega branch terms")
        zero = BinaryForm(Poly.zero(F.poly.registry), max(self.order, 0))
        if not work:  # a zero F, or a U outside the window
            return zero
        if self.kind == "U":
            scale = self._constants()
            combo = self._raw(*self.indices, F, cache)
        else:
            i, j, i2, j2 = self.indices
            p, q, scale = self._constants()
            a = self._raw(i, j, F, cache)
            b = self._raw(i2, j2, F, cache)
            combo = [p * x - q * y for x, y in zip(a, b)] if type(a) is list else a * p - b * q
        if type(combo) is not list:
            return BinaryForm(combo * scale, self.order)
        if not any(combo):
            return zero
        # scale * c, not c * scale: a Fraction times an int takes no detour
        combo = Poly.from_dense(F.poly.registry, [scale * c for c in combo], X)
        return BinaryForm(combo, self.order)

    def _raw(self, i, j, F, cache):
        # U(i,j) with both transvectants unnormalized, memoized with the
        # (F,F)_{2i} it is built on
        raw = cache.get((i, j))
        if raw is None:
            kernel = cache.get("kernel")
            if kernel is None:
                kernel = cache["kernel"] = _kernel(F)
            f, omega = kernel
            h = cache.get(i)
            if h is None:
                h = cache[i] = omega(f, f, 2 * i)
            raw = cache[i, j] = omega(h, f, j)
        return raw

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


def _kernel(F: BinaryForm) -> tuple:
    """(f, omega) for the memo of evaluate: for a dense integer F
    (Poly.dense_coefficients), its coefficient list and _omega_dense over
    one falling-factorial table; else F.poly and _omega_diagonal."""
    f = F.poly.dense_coefficients(X)
    if f is None:
        return F.poly, _omega_diagonal
    ff = [[1] * (2 * F.degree + 1)]  # (F,F)_{2i} has degree 2d-4i <= 2d
    return f, lambda A, B, k: _omega_dense(A, B, k, ff)


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

    Before any covariant is evaluated, the work cap bounds the Omega
    work of the whole set: k+1 branches for each (F,F)_{2i} (k = 2i) and
    each U(i,j) (k = j) of the index window, which holds every U of S(d),
    each branch over as many terms as F has.  That is 1,812 branches at
    d = 20 and 10,837,702 at d = 400.  Each member's own check in evaluate
    counts a part of this sum, so it never refuses what this admitted.
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
    branches = 0  # Omega branches: k+1 for each transvectant of order k
    for i in range(d // 2 + 1):
        top = min(d, 2 * d - 4 * i)  # the window holds U(i,j) for j <= top
        branches += 2 * i + 1 + (top + 1) * (top + 2) // 2
    work = branches * len(F.poly.terms)
    check_cap(work, f"membership would take {work} Omega branch terms over S({d})")
    cache = {}
    for expr in set_S(d):
        if not expr.evaluate(F, cache).is_zero():
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
