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
variables, so its registry must hold y0 and y1 as well.  omega_apply
expands Omega^k branch by branch, the four-variable reference; pi_p, which
restricts to y:=x, folds the branches into one weight per term instead.

_omega_diagonal, the one transvectant kernel, has two routes, chosen once
per call from one Poly.dense_coefficients read of each operand.  Two dense
integer forms (int coefficients, x0 and x1 alone, at least (a+1)/2 terms
at degree a) go by Kronecker substitution in _omega_dense, on coefficient
lists in and out: each Omega branch is one big-int product of
base-2^width digits two bits wider than the bound (a)_k (b)_k |A|_1
|B|_inf on every output coefficient, so no digit carries,
poly.kronecker_pack packs each side, poly.kronecker_digits decodes the
one sum, and Poly.from_slots puts the list back on x0, x1.  A covariant
window calls _omega_dense directly, with one falling-factorial table per
window.  Every other pair is the product A B at k = 0, and else goes
through a Poly.omega_table grouped by x0, x1, which folds the k+1
branches into one weight per pair of x-exponents, takes no derivative,
multiplies each pair of groups once however many k weigh it, and builds
no weight for sides whose branch windows never meet.  A covariant window
keeps one table per (F,F)_{2i}, and _omega_diagonal builds one and asks
it once.  This module never touches a packed key.

transvectant, omega_apply and pi_p hold their Omega work, branches times
input terms, to the work cap (arith.check_cap) before any branch runs.  Each
kernel then holds what it builds: _omega_dense the 30-bit limbs
(CPython's int digit) it would pack, before it packs any, and a
Poly.omega_table its weights and the term pairs of each product it
takes, as does the product A B at k = 0.  A covariant window reads the
cap once and passes it to each of its _omega_dense calls.  A zero raw
sum is returned without its normalizing scalar.
"""

from fractions import Fraction
from math import lcm, perm

from .arith import binomial, check_cap, falling_bits
from .poly import Poly, VarRegistry, kronecker_digits, kronecker_pack


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

    Branch i is one Poly.partial pass over the terms of P, taking i
    derivatives in x1 and y0 and k - i in x0 and y1: a term with an
    exponent below its count drops out before any falling factorial, and
    +-C(k,i) is computed only for a branch with a surviving term.  The k+1
    branches over the terms of P are held to the work cap, and then only
    those that the largest exponents of x0, x1, y0, y1 in P allow run.
    """
    if k < 0:
        raise ValueError("negative Omega power")
    work = (k + 1) * len(P.terms)
    check_cap(work, f"Omega^{k} would take {work} Omega branch terms")
    (x0, x1), (y0, y1) = X, Y
    lo = max(0, k - P.degree_in((x0,)), k - P.degree_in((y1,)))
    hi = min(k, P.degree_in((x1,)), P.degree_in((y0,)))
    total = Poly.zero(P.registry)
    for i in range(lo, hi + 1):
        branch = P.partial(((x1, i), (y0, i), (x0, k - i), (y1, k - i)))
        if branch.terms:
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
        if P.is_zero():
            break
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
    is the product A * B at k = 0, its term pairs held to the work cap,
    and else is asked once of a Poly.omega_table.  Both routes give the
    same terms, and each kernel holds its own size to the work cap.
    """
    A = B = None
    if bpoly.registry is apoly.registry:
        A = apoly.dense_coefficients(X)
        B = A and bpoly.dense_coefficients(X)
    if B:
        C = _omega_dense(A, B, k)
        return Poly.from_slots(apoly.registry, C, (X[1:], len(C)), (X[0], len(C) - 1))
    if k:
        return Poly.omega_table(apoly, bpoly, X, k)(k)
    # (A, B)_0 is the product, which one multiply loop takes whole
    pairs = len(apoly.terms) * len(bpoly.terms)
    check_cap(pairs, f"the transvectant of order 0 would multiply {pairs} term pairs")
    return apoly * bpoly


def _falling(ff, rows):
    """The table ff[m][t] = (t)_m, the falling factorial, grown in place to
    rows 0..rows; one multiply per entry, and 0 for t < m."""
    while len(ff) <= rows:
        m = len(ff)
        ff.append([f * (t - m + 1) for t, f in enumerate(ff[-1])])
    return ff


def _dense_width(A, B, k) -> int:
    """Digit width of _omega_dense: two bits past (a)_k (b)_k |A|_1 |B|_inf.

    That bounds every digit it packs and every output coefficient: by
    Vandermonde's identity sum_i C(k,i) (a-s)_{k-i} (s)_i = (a)_k, and each
    (b-t)_i (t)_{k-i} <= (b)_k, so the branches together weigh each pair
    A[s] B[t] by at most (a)_k (b)_k."""
    a, b = len(A) - 1, len(B) - 1
    limit = perm(a, k) * perm(b, k) * sum(map(abs, A)) * max(map(abs, B))
    return limit.bit_length() + 2


def _omega_dense(A, B, k, ff=None, cap=None) -> list:
    """_omega_diagonal on coefficient lists, by Kronecker substitution:
    the coefficient list [c_0, ..., c_n] of the raw transvectant, n =
    a+b-2k, or [] when k > min(a, b).

    Branch i packs its derivatives' coefficients with poly.kronecker_pack
    as base-2^width digits, alpha_i(s) = A[s] (a-s)_{k-i} (s)_i for s =
    i..a-k+i and beta_i(t) = B[t] (b-t)_i (t)_{k-i} for t = k-i..b-i
    (falling factorials, read from the table ff of _falling, grown here to
    k rows; a caller may pass one of at least max(a, b) + 1 columns to
    share), and adds +-C(k,i) times the product of the two ints to one
    sum, whose digit m = s+t-k holds the coefficient of x0^(n-m) x1^m for
    every branch.  No digit reaches the bound of _dense_width, so the
    balanced digits never carry, and poly.kronecker_digits unpacks them
    exactly.

    Before anything is packed, the work cap (cap, or arith.size_cap()
    when None) holds what the k+1 branches would pack: (k+1)(a+b-2k+2)
    digits of ceil(width/30) 30-bit limbs each.
    """
    a, b = len(A) - 1, len(B) - 1
    if not 0 <= k <= min(a, b):
        return []
    width = _dense_width(A, B, k)
    limbs = (k + 1) * (a + b - 2 * k + 2) * -(-width // 30)
    check_cap(limbs, f"the transvectant of order {k} would pack {limbs} limbs", cap)
    ff = _falling(ff or [[1] * (max(a, b) + 1)], k)
    total = 0
    for i in range(k + 1):
        fi, fki = ff[i], ff[k - i]
        pa = kronecker_pack([A[s] * fki[a - s] * fi[s] for s in range(i, a - k + i + 1)], width)
        if not pa:
            continue
        pb = kronecker_pack([B[t] * fi[b - t] * fki[t] for t in range(k - i, b - i + 1)], width)
        total += (-binomial(k, i) if i % 2 else binomial(k, i)) * pa * pb
    return kronecker_digits(total, width, a + b - 2 * k + 1)


def transvectant(A: BinaryForm, B: BinaryForm, k: int) -> BinaryForm:
    """The k-th transvectant (A, B)_k, exactly normalized; the zero form at
    once when k > min(a, b), either form is zero, A and B are equal Polys
    (over one registry) and k is odd, since (A, B)_k = (-1)^k (B, A)_k, or
    the raw sum is zero.

    Before any branch runs, the work cap holds the Omega work (branches
    times input terms); the kernel that _omega_diagonal picks then holds
    what it builds.
    """
    if k < 0:
        raise ValueError("negative transvectant index")
    a, b = A.degree, B.degree
    degree = max(a + b - 2 * k, 0)
    if k > min(a, b) or A.is_zero() or B.is_zero() or k % 2 and A.poly == B.poly:
        return BinaryForm(Poly.zero(A.poly.registry), degree)
    work = (k + 1) * (len(A.poly.terms) + len(B.poly.terms))
    check_cap(work, f"the transvectant of order {k} would take {work} Omega branch terms")
    raw = _omega_diagonal(A.poly, B.poly, k)
    if raw.is_zero():
        return BinaryForm(raw, degree)
    # (a-k)!(b-k)!/(a!b!) as falling factorials: no factorial of a or b
    norm = Fraction(1, perm(a, k) * perm(b, k))
    return BinaryForm(raw * norm, degree)


def pi_p(G: Poly, p: int) -> BinaryForm:
    """(Omega^{2p} G) at y:=x, with no normalizing scalar.

    G must be bihomogeneous of equal degree n in X and Y; the result is
    zero when 2p > n.

    Every branch i of Omega^k (k = 2p) sends a term c x^a y^b to a
    multiple of x0^(a0+b0-k) x1^(a1+b1-k) at y:=x, so the k+1 branches
    fold into one weight per term,

        sum_i (-1)^i C(k,i) (a0)_{k-i} (a1)_i (b0)_i (b1)_{k-i},

    over the branches the term survives, max(0, k-a0, k-b1) <= i <=
    min(k, a1, b0), the window of omega_apply.  One Poly.map_exponents
    pass over the terms of G weighs each distinct pattern (a0, a1, b0, b1)
    once, taking +-C(k,i) only for branches some term survives; no branch
    is built and nothing is substituted.  The k+1 branches over the terms
    of G are held to the work cap first, as omega_apply holds them.
    """
    if p < 0:
        raise ValueError("negative projection index")
    n = G.degree_in(X)
    if G.is_zero():
        return BinaryForm(G, 0)
    if not (G.is_homogeneous_in(X, n) and G.is_homogeneous_in(Y, n)):
        raise ValueError("input is not bihomogeneous of equal degree in both pairs")
    if 2 * p > n:  # every branch takes 2p derivatives in X, past G's degree
        return BinaryForm(Poly.zero(G.registry), 0)
    k = 2 * p
    work = (k + 1) * len(G.terms)
    check_cap(work, f"Omega^{k} would take {work} Omega branch terms")
    signed = {}  # i -> (-1)^i C(k, i), taken on first use

    def weigh(exps):
        a0, a1, b0, b1 = exps
        w = 0
        for i in range(max(0, k - a0, k - b1), min(k, a1, b0) + 1):
            c = signed.get(i)
            if c is None:
                c = signed[i] = -binomial(k, i) if i % 2 else binomial(k, i)
            w += c * perm(a0, k - i) * perm(a1, i) * perm(b0, i) * perm(b1, k - i)
        return w, (a0 + b0 - k, a1 + b1 - k, 0, 0)

    return BinaryForm(G.map_exponents((*X, *Y), weigh), max(2 * n - 4 * p, 0))


def _pi_p_bits(G: Poly, p: int) -> int:
    """A bound, taken before any branch, on the bits of the numerator and of
    the denominator of every coefficient of pi_p(G, p), G of degree n in X;
    0 when the answer is zero.

    A term c x^a y^b that some branch i of Omega^k (k = 2p) survives on
    both sides (the window of omega_apply) adds at most |c| (n)_k^2 to a
    coefficient: the C(k,i) (a0)_{k-i} (a1)_i sum to (n)_k over i
    (Vandermonde's identity), and each (b0)_i (b1)_{k-i} is at most (n)_k.
    Over the lcm L of G's denominators, each coefficient is then N/L' with
    L' dividing L and |N| at most L sum |c| (n)_k^2, rounded up by
    arith.falling_bits.
    """
    n = G.degree_in(X)
    k = 2 * p
    if not 0 <= k <= n:
        return 0
    index = [G.registry.index(v) for v in (*X, *Y)]
    common = lcm(*(Fraction(c).denominator for c in G.terms.values()))
    total = 0
    for exps, c in G.exponent_terms().items():
        a0, a1, b0, b1 = (exps[i] for i in index)
        if max(0, k - a0, k - b1) <= min(k, a1, b0):
            total += abs(c) * common
    if not total:
        return 0
    return max(int(total).bit_length() + 2 * falling_bits(n, k), common.bit_length())


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
