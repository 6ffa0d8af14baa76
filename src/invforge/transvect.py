"""Transvectants of binary forms.

The central operator is Omega = d^2/dx0 dy1 - d^2/dx1 dy0 acting on
polynomials in two variable pairs.  Its k-th power expands binomially as

    Omega^k = sum_i (-1)^i C(k,i) dx0^(k-i) dy1^(k-i) dx1^i dy0^i

since the two mixed derivatives commute.  The k-th transvectant of forms A, B
of degrees a, b is

    (A, B)_k = (a-k)!(b-k)!/(a!b!) * [Omega^k A(x)B(y)] at y:=x,

identically zero when k > min(a, b).  Because A(x) depends only on the x pair
and B(y) only on the y pair, each Omega branch factors into separate
derivatives of A and B; the implementation never materializes the product
A(x)B(y) in four variables.
"""

from fractions import Fraction
from math import perm

from .arith import binomial
from .poly import Poly, VarRegistry


class BinaryForm:
    """A Poly homogeneous of a declared degree in a designated variable pair.

    Other registry variables may appear freely (symbolic coefficients).
    """

    __slots__ = ("poly", "xpair", "degree")

    def __init__(self, poly: Poly, xpair=("x0", "x1"), degree=None):
        x0, x1 = xpair
        if x0 == x1:
            raise ValueError("variable pair must be distinct")
        if degree is None:
            if poly.is_zero():
                raise ValueError("zero form needs an explicit degree")
            degree = poly.degree_in(xpair)
        if degree < 0:
            raise ValueError(f"negative form degree {degree}")
        if not poly.is_homogeneous_in(xpair, degree) and not poly.is_zero():
            raise ValueError(
                f"polynomial is not homogeneous of degree {degree} in {xpair}"
            )
        self.poly = poly
        self.xpair = (x0, x1)
        self.degree = degree

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    @staticmethod
    def zero_like(form, degree: int):
        """The zero form of the given degree over the same registry and pair."""
        return BinaryForm(Poly.zero(form.poly.registry), form.xpair, degree)

    def __eq__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return self.xpair == other.xpair and self.poly == other.poly

    __hash__ = None

    def __str__(self):
        return str(self.poly)

    def __repr__(self):
        return f"BinaryForm({self.poly!r}, xpair={self.xpair}, degree={self.degree})"


def omega_apply(P: Poly, xpair, ypair, k: int) -> Poly:
    """Omega^k P for a polynomial in the two pairs, expanded binomially."""
    if k < 0:
        raise ValueError("negative Omega power")
    x0, x1 = xpair
    y0, y1 = ypair
    if len({x0, x1, y0, y1}) != 4:
        raise ValueError(f"variable clash among {xpair} and {ypair}")
    for name in (x0, x1, y0, y1):
        P.registry.index(name)
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


def _omega_diagonal(apoly: Poly, bpoly: Poly, k: int, xpair) -> Poly:
    """Unnormalized [Omega^k A(x)B(y)] at y:=x via the factored expansion.

    Equals sum_i (-1)^i C(k,i) [dx0^(k-i) dx1^i A] * [dx0^i dx1^(k-i) B];
    keeps integer coefficients integer so callers can defer the rational
    normalization to a single scalar multiply.
    """
    x0, x1 = xpair
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
    if A.xpair != B.xpair:
        raise ValueError(f"mismatched variable pairs {A.xpair} and {B.xpair}")
    a, b = A.degree, B.degree
    degree = max(a + b - 2 * k, 0)
    if k > min(a, b):
        return BinaryForm(Poly.zero(A.poly.registry), A.xpair, degree)
    raw = _omega_diagonal(A.poly, B.poly, k, A.xpair)
    # (a-k)!(b-k)!/(a!b!) as falling factorials: no factorial of a or b
    norm = Fraction(1, perm(a, k) * perm(b, k))
    return BinaryForm(raw * norm, A.xpair, degree)


def pi_p(G: Poly, p: int, xpair=("x0", "x1"), ypair=("y0", "y1")) -> BinaryForm:
    """(Omega^{2p} G) at y:=x, with no normalizing scalar.

    G must be bihomogeneous of equal degree in the two pairs.
    """
    if p < 0:
        raise ValueError("negative projection index")
    n = G.degree_in(xpair)
    if G.is_zero():
        return BinaryForm(G, xpair, 0)
    if n != G.degree_in(ypair) or not (
        G.is_homogeneous_in(xpair, n) and G.is_homogeneous_in(ypair, n)
    ):
        raise ValueError("input is not bihomogeneous of equal degree in both pairs")
    reduced = omega_apply(G, xpair, ypair, 2 * p)
    x0, x1 = xpair
    y0, y1 = ypair
    reg = G.registry
    diag = reduced.substitute(
        {y0: Poly.variable(reg, x0), y1: Poly.variable(reg, x1)}
    )
    return BinaryForm(diag, xpair, max(2 * n - 4 * p, 0))


def discriminant(Q: BinaryForm) -> Poly:
    """For Q = a*x0^2 + b*x0*x1 + c*x1^2, the value b^2 - 4ac.

    Sign convention anchored by discriminant(x0*x1) = 1.
    """
    if Q.degree != 2:
        raise ValueError(f"discriminant needs a quadratic, got degree {Q.degree}")
    x0, x1 = Q.xpair
    a = Q.poly.coefficient_of({x0: 2, x1: 0})
    b = Q.poly.coefficient_of({x0: 1, x1: 1})
    c = Q.poly.coefficient_of({x0: 0, x1: 2})
    return b * b - 4 * a * c


def generic_form(registry: VarRegistry, d: int, xpair=("x0", "x1"), prefix="f") -> BinaryForm:
    """Fully symbolic degree-d form sum_i f_i x0^(d-i) x1^i.

    Coefficient variables prefix0..prefixd are registered on demand, so
    identities checked on the result are polynomial identities.
    """
    x0, x1 = xpair
    registry.ensure(x0)
    registry.ensure(x1)
    total = Poly.zero(registry)
    for i in range(d + 1):
        registry.ensure(f"{prefix}{i}")
        total = total + Poly.term(registry, 1, {f"{prefix}{i}": 1, x0: d - i, x1: i})
    return BinaryForm(total, xpair, d)
