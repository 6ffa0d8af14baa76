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

_omega_diagonal, the one transvectant kernel, has two routes.  Two dense
integer forms go by Kronecker substitution: Poly.dense_coefficients gives
their coefficient lists (int coefficients, x0 and x1 alone, at least
(a+1)/2 terms at degree a), each Omega branch is one big-int product of
base-2^width digits two bits wider than the bound 2^k (ab)^k |A|_1 |B|_inf
on every output coefficient, so no digit carries, and Poly.from_kronecker
decodes the one sum.  This module never touches a packed key.  Every other
pair sums its derivative pairs in one Poly.weighted_sum.

transvectant and pi_p hold their Omega work, branches times input terms,
to the work cap (arith.check_cap) before the first derivative.
"""

from fractions import Fraction
from math import perm

from .arith import binomial, check_cap
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
    """Omega^k P for a polynomial in x0, x1, y0, y1, expanded binomially.

    Branch i differentiates in x1 and y0 first and stops at its first zero
    derivative; the derivatives commute, so the order changes nothing else.
    """
    if k < 0:
        raise ValueError("negative Omega power")
    (x0, x1), (y0, y1) = X, Y
    total = Poly.zero(P.registry)
    for i in range(k + 1):
        branch = P
        for var, times in ((x1, i), (y0, i), (x0, k - i), (y1, k - i)):
            branch = branch.differentiate(var, times)
            if branch.is_zero():
                break
        else:
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

    Two dense integer forms over one registry (Poly.dense_coefficients)
    take the Kronecker route, _omega_dense.  Any other pair (symbolic
    coefficients, a Fraction, a zero, a sparse form such as x0^1048576)
    is summed by one Poly.weighted_sum fed the nonzero derivative pairs
    one at a time, so no pair outlives its accumulation.  Both routes give
    the same terms.
    """
    x0, x1 = X
    reg = apoly.registry
    if bpoly.registry is reg:
        A = apoly.dense_coefficients(X)
        B = A and bpoly.dense_coefficients(X)
        if B:
            return _omega_dense(reg, A, B, k)

    def triples():
        for i in range(k + 1):
            da = apoly.differentiate(x0, k - i).differentiate(x1, i)
            if da.is_zero():
                continue
            db = bpoly.differentiate(x0, i).differentiate(x1, k - i)
            if db.is_zero():
                continue
            sign = -1 if i % 2 else 1
            yield sign * binomial(k, i), da, db

    return Poly.weighted_sum(reg, triples())


def _omega_dense(registry, A, B, k) -> Poly:
    """_omega_diagonal on coefficient lists, by Kronecker substitution.

    Branch i packs its derivatives' coefficients as base-2^width digits,
    alpha_i(s) = A[s] (a-s)_{k-i} (s)_i for s = i..a-k+i and
    beta_i(t) = B[t] (b-t)_i (t)_{k-i} for t = k-i..b-i (falling
    factorials), and adds +-C(k,i) times the product of the two ints to
    one sum, whose digit m = s+t-k holds x0^(a+b-2k-m) x1^m for every
    branch.  No output coefficient exceeds 2^k (ab)^k |A|_1 |B|_inf in
    absolute value and the width is two bits past that, so the balanced
    digits never carry, and Poly.from_kronecker unpacks them exactly.
    """
    a, b = len(A) - 1, len(B) - 1
    if not 0 <= k <= min(a, b):
        return Poly.zero(registry)
    limit = 2**k * (a * b) ** k * sum(map(abs, A)) * max(map(abs, B))
    width = limit.bit_length() + 2
    total = 0
    for i in range(k + 1):
        pa = 0
        for s in range(a - k + i, i - 1, -1):
            pa = (pa << width) + A[s] * perm(a - s, k - i) * perm(s, i)
        pb = 0
        for t in range(b - i, k - i - 1, -1):
            pb = (pb << width) + B[t] * perm(b - t, i) * perm(t, k - i)
        if pa and pb:
            sign = -1 if i % 2 else 1
            total += sign * binomial(k, i) * pa * pb
    n = a + b - 2 * k
    return Poly.from_kronecker(registry, total, width, ((X[1],), n + 1), (X[0], n))


def transvectant(A: BinaryForm, B: BinaryForm, k: int) -> BinaryForm:
    """The k-th transvectant (A, B)_k, exactly normalized."""
    if k < 0:
        raise ValueError("negative transvectant index")
    a, b = A.degree, B.degree
    degree = max(a + b - 2 * k, 0)
    if k > min(a, b):
        return BinaryForm(Poly.zero(A.poly.registry), degree)
    work = (k + 1) * (len(A.poly.terms) + len(B.poly.terms))
    check_cap(work, f"the transvectant of order {k} would take {work} Omega branch terms")
    raw = _omega_diagonal(A.poly, B.poly, k)
    # (a-k)!(b-k)!/(a!b!) as falling factorials: no factorial of a or b
    norm = Fraction(1, perm(a, k) * perm(b, k))
    return BinaryForm(raw * norm, degree)


def pi_p(G: Poly, p: int) -> BinaryForm:
    """(Omega^{2p} G) at y:=x, with no normalizing scalar.

    G must be bihomogeneous of equal degree n in X and Y; the result is
    zero when 2p > n.
    """
    if p < 0:
        raise ValueError("negative projection index")
    n = G.degree_in(X)
    if G.is_zero():
        return BinaryForm(G, 0)
    if n != G.degree_in(Y) or not (G.is_homogeneous_in(X, n) and G.is_homogeneous_in(Y, n)):
        raise ValueError("input is not bihomogeneous of equal degree in both pairs")
    reg = G.registry
    if 2 * p > n:  # every branch takes 2p derivatives in X, past G's degree
        return BinaryForm(Poly.zero(reg), 0)
    work = (2 * p + 1) * len(G.terms)
    check_cap(work, f"pi_p would take {work} Omega branch terms")
    reduced = omega_apply(G, 2 * p)
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
