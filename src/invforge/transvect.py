"""Transvectants of binary forms.

Every binary form lives in the fixed pair X = (x0, x1); other variables of
its registry are symbolic coefficients.  The central operator is
Omega = d^2/dx0 dy1 - d^2/dx1 dy0, acting on polynomials in X and the
second pair Y = (y0, y1).  Its k-th power expands binomially as

    Omega^k = sum_i (-1)^i C(k,i) dx0^(k-i) dy1^(k-i) dx1^i dy0^i

since the two mixed derivatives commute.  The k-th transvectant of forms A, B
of degrees a, b is

    (A, B)_k = (a-k)!(b-k)!/(a!b!) * [Omega^k A(x)B(y)] at y:=x,

identically zero when k > min(a, b).  Because A(x) depends only on X and
B(y) only on Y, each Omega branch factors into separate derivatives of A and
B in x0, x1; the implementation never materializes the product A(x)B(y) in
four variables.  omega_apply and pi_p act on a given polynomial in all four
variables, so its registry must hold y0 and y1 as well.
"""

from fractions import Fraction
from math import perm

from .arith import binomial
from .poly import Poly, VarRegistry


X = ("x0", "x1")
Y = ("y0", "y1")


class BinaryForm:
    """A Poly homogeneous of a declared degree in x0, x1.

    Other registry variables may appear freely (symbolic coefficients).
    """

    __slots__ = ("poly", "degree")

    def __init__(self, poly: Poly, degree=None):
        if degree is None:
            if poly.is_zero():
                raise ValueError("zero form needs an explicit degree")
            degree = poly.degree_in(X)
        if not poly.is_zero() and not poly.is_homogeneous_in(X, degree):
            raise ValueError(f"not a form of degree {degree} in {X}")
        if degree < 0:
            raise ValueError(f"negative form degree {degree}")
        self.poly = poly
        self.degree = degree

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __eq__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return self.poly == other.poly

    __hash__ = None

    def __str__(self):
        return str(self.poly)

    def __repr__(self):
        return f"BinaryForm({self.poly!r}, degree={self.degree})"


def omega_apply(P: Poly, k: int) -> Poly:
    """Omega^k P for a polynomial in x0, x1, y0, y1, expanded binomially."""
    if k < 0:
        raise ValueError("negative Omega power")
    (x0, x1), (y0, y1) = X, Y
    total = Poly.zero(P.registry)
    for i in range(k + 1):
        branch = (
            P.differentiate(x0, k - i)
            .differentiate(y1, k - i)
            .differentiate(x1, i)
            .differentiate(y0, i)
        )
        if branch.is_zero():
            continue
        sign = -1 if i % 2 else 1
        total = total + branch * (sign * binomial(k, i))
    return total


def polarize(P: Poly, xvars, yvars, times: int = 1) -> Poly:
    """(sum_l y_l d/dx_l)^times applied to P."""
    if len(xvars) != len(yvars):
        raise ValueError("variable lists must have equal length")
    if times < 0:
        raise ValueError("negative polarization count")
    for _ in range(times):
        acc = Poly.zero(P.registry)
        for xv, yv in zip(xvars, yvars):
            d = P.differentiate(xv)
            if not d.is_zero():
                acc = acc + d * Poly.variable(P.registry, yv)
        P = acc
    return P


def _omega_diagonal(apoly: Poly, bpoly: Poly, k: int) -> Poly:
    """Unnormalized [Omega^k A(x)B(y)] at y:=x via the factored expansion.

    Equals sum_i (-1)^i C(k,i) [dx0^(k-i) dx1^i A] * [dx0^i dx1^(k-i) B];
    keeps integer coefficients integer so callers can defer the rational
    normalization to a single scalar multiply.
    """
    x0, x1 = X
    total = Poly.zero(apoly.registry)
    for i in range(k + 1):
        da = apoly.differentiate(x0, k - i).differentiate(x1, i)
        if da.is_zero():
            continue
        db = bpoly.differentiate(x0, i).differentiate(x1, k - i)
        if db.is_zero():
            continue
        sign = -1 if i % 2 else 1
        total = total + (da * db) * (sign * binomial(k, i))
    return total


def transvectant(A: BinaryForm, B: BinaryForm, k: int) -> BinaryForm:
    """The k-th transvectant (A, B)_k, exactly normalized."""
    if k < 0:
        raise ValueError("negative transvectant index")
    a, b = A.degree, B.degree
    degree = max(a + b - 2 * k, 0)
    if k > min(a, b):
        return BinaryForm(Poly.zero(A.poly.registry), degree)
    raw = _omega_diagonal(A.poly, B.poly, k)
    # (a-k)!(b-k)!/(a!b!) as falling factorials: no factorial of a or b
    norm = Fraction(1, perm(a, k) * perm(b, k))
    return BinaryForm(raw * norm, degree)


def pi_p(G: Poly, p: int) -> BinaryForm:
    """(Omega^{2p} G) at y:=x, with no normalizing scalar.

    G must be bihomogeneous of equal degree in X and Y.
    """
    if p < 0:
        raise ValueError("negative projection index")
    n = G.degree_in(X)
    if G.is_zero():
        return BinaryForm(G, 0)
    if n != G.degree_in(Y) or not (G.is_homogeneous_in(X, n) and G.is_homogeneous_in(Y, n)):
        raise ValueError("input is not bihomogeneous of equal degree in both pairs")
    reduced = omega_apply(G, 2 * p)
    reg = G.registry
    diag = reduced.substitute({y: Poly.variable(reg, x) for x, y in zip(X, Y)})
    return BinaryForm(diag, max(2 * n - 4 * p, 0))


def discriminant(Q: BinaryForm) -> Poly:
    """For Q = a*x0^2 + b*x0*x1 + c*x1^2, the value b^2 - 4ac.

    Sign convention anchored by discriminant(x0*x1) = 1.
    """
    if Q.degree != 2:
        raise ValueError(f"discriminant needs a quadratic, got degree {Q.degree}")
    x0, x1 = X
    a = Q.poly.coefficient_of({x0: 2, x1: 0})
    b = Q.poly.coefficient_of({x0: 1, x1: 1})
    c = Q.poly.coefficient_of({x0: 0, x1: 2})
    return b * b - 4 * a * c


def generic_form(registry: VarRegistry, d: int, prefix="f") -> BinaryForm:
    """Fully symbolic degree-d form sum_i f_i x0^(d-i) x1^i.

    Coefficient variables prefix0..prefixd are registered on demand, so
    identities checked on the result are polynomial identities.
    """
    x0, x1 = X
    registry.ensure(x0)
    registry.ensure(x1)
    total = Poly.zero(registry)
    for i in range(d + 1):
        registry.ensure(f"{prefix}{i}")
        total = total + Poly.term(registry, 1, {f"{prefix}{i}": 1, x0: d - i, x1: i})
    return BinaryForm(total, d)
