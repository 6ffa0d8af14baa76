"""Desk-scale verification battery.

Nine independent checks, each pitting two routes to the same quantity
against each other at small parameters: operator calculus vs closed
forms, brute-force enumerations vs product formulas, covariant vanishing
vs direct power extraction, character arithmetic vs matrix ranks.  All
comparisons are exact; there are no tolerances anywhere.

Each criterion function returns (passed, detail).  run_all() drives the
list; the CLI's verify-all subcommand and the test suite both call it.
"""

import math
import random

from fractions import Fraction

from .alphamap import alpha_rank
from .arith import binomial
from .closedform import (
    dixon_rhs,
    f32_term,
    j_closed,
    j_sum,
    n1_closed,
    n3,
    transvectant_power_closed,
)
from .covariant import CovariantExpr, covariants, membership
from .enumeration import g_closed_form, g_direct, n1_brute, tau, tau_transvectant_check
from .plethysm import (
    char_dimension,
    decompose_plethysm,
    decompose_s2,
    ideal_character,
    m0,
    m0_excluded,
)
from .poly import Poly, VarRegistry
from .transvect import BinaryForm, generic_form, transvectant

RANDOM_SEED = 20260817


def criterion_1() -> tuple:
    """Powers of a symbolic quadratic: (Q^p, Q^q)_k equals the closed form
    n2(p,q,m) Q^{p+q-2m} (-disc Q)^m for even k = 2m and vanishes for odd
    k, for all p, q <= 4 and k <= 2 min(p,q)."""
    reg = VarRegistry(["u", "v", "w", "x0", "x1"])
    u, v, w = (Poly.variable(reg, n) for n in "uvw")
    x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
    qpoly = u * x0**2 + v * x0 * x1 + w * x1**2
    Q = BinaryForm(qpoly, 2)
    checked = 0
    for p in range(5):
        A = BinaryForm(qpoly**p, 2 * p)
        for q in range(5):
            B = BinaryForm(qpoly**q, 2 * q)
            for k in range(2 * min(p, q) + 1):
                got = transvectant(A, B, k)
                want = transvectant_power_closed(p, q, k, Q)
                if got != want:
                    return False, f"mismatch at (p,q,k)={(p, q, k)}"
                checked += 1
    return True, f"{checked} symbolic transvectant identities"


def criterion_2() -> tuple:
    """Multigraph enumeration agrees with the closed form:
    n1_brute(e,p) = (2e)!^2/(2e-2p)!^2 * n2(e,e,p) for all p <= e <= 4."""
    checked = 0
    for e in range(5):
        for p in range(e + 1):
            brute = n1_brute(e, p)
            closed = n1_closed(e, p)
            if brute != closed:
                return False, f"mismatch at (e,p)={(e, p)}: {brute} vs {closed}"
            checked += 1
    return True, f"{checked} weighted graph counts"


def criterion_3() -> tuple:
    """Terminating hypergeometric sums equal their product closed forms:
    the two well-poised 3F2 parameterizations for all k <= 2p, p <= q <= 6,
    and the J-sum for s <= 12, p <= 6."""
    checked = 0
    for q in range(7):
        for p in range(q + 1):
            for k in range(2 * p + 1):
                if k <= p:
                    args = (-k, -p, -q)
                    lower = (p - k + 1, q - k + 1)
                else:
                    args = (-2 * p + k, -p, -p - q + k)
                    lower = (k - p + 1, q - p + 1)
                total = f32_term(*args, *lower)
                closed = dixon_rhs(*args)
                if total != closed:
                    return False, f"3F2 mismatch at (p,q,k)={(p, q, k)}"
                checked += 1
    for s in range(13):
        for p in range(7):
            if j_sum(s, p) != j_closed(s, p):
                return False, f"J mismatch at (s,p)={(s, p)}"
            checked += 1
    return True, f"{checked} sum-vs-product identities"


def criterion_4() -> tuple:
    """The reduced diagonal of Omega^{2p'} on the four-slot product equals
    the closed normal form for all valid indices with r <= 3, e <= 2, and
    the designated witness index is nonzero for every p'."""
    checked = 0
    for r in (2, 3):
        for e in (1, 2):
            for p in range(r * e // 2 + 1):
                for pp in range((r + 1) * e // 2 + 1):
                    direct = g_direct(r, e, p, pp)
                    closed = g_closed_form(r, e, p, pp, registry=direct.registry)
                    if direct != closed:
                        return False, f"mismatch at (r,e,p,p')={(r, e, p, pp)}"
                    checked += 1
            for pp in range((r + 1) * e // 2 + 1):
                p = pp if 2 * pp <= r * e else pp - e
                if n3(r, e, pp, p) == 0:
                    return False, f"zero witness at (r,e,p')={(r, e, pp)}"
                checked += 1
    return True, f"{checked} operator-vs-closed-form comparisons"


def criterion_5() -> tuple:
    """Full row rank of the polarization-product matrix at desk scale:
    rank = (re+1)(re+2)/2 for n=1, d in {4,6,8}, r in {2,3}; the square
    d=4, r=2 case is an isomorphism; n=2 smoke case has rank 120."""
    for d in (4, 6, 8):
        e = d // 2
        for r in (2, 3):
            report = alpha_rank(1, d, r)
            want = (r * e + 1) * (r * e + 2) // 2
            if report["rank"] != want or report["rows"] != want:
                return False, f"(n,d,r)=(1,{d},{r}) gave {report}, want rank {want}"
    square = alpha_rank(1, 4, 2)
    if square != {"rows": 15, "cols": 15, "rank": 15}:
        return False, f"square quartic case gave {square}"
    smoke = alpha_rank(2, 4, 2)
    if smoke != {"rows": 120, "cols": 120, "rank": 120}:
        return False, f"ternary smoke case gave {smoke}"
    return True, "8 exact ranks, all full"


def criterion_6() -> tuple:
    """Magic-square generating sums: tau(r,e,p) is nonzero throughout
    r <= 4, e <= 2; the transvectant identity holds for r <= 3, e <= 2;
    tau(2,1,1) = -(z1-z2)^2."""
    checked = 0
    for r in (2, 3, 4):
        for e in (1, 2):
            for p in range(r * e // 2 + 1):
                if tau(r, e, p).is_zero():
                    return False, f"tau vanished at (r,e,p)={(r, e, p)}"
                checked += 1
    for r in (2, 3):
        for e in (1, 2):
            for p in range(r * e // 2 + 1):
                if not tau_transvectant_check(r, e, p):
                    return False, f"identity failed at (r,e,p)={(r, e, p)}"
                checked += 1
    t = tau(2, 1, 1)
    z1 = Poly.variable(t.registry, "z1")
    z2 = Poly.variable(t.registry, "z2")
    if t != -((z1 - z2) ** 2):
        return False, f"tau(2,1,1) = {t}"
    return True, f"{checked} nonvanishing and identity checks"


def criterion_7() -> tuple:
    """Covariant membership: symbolically true on (L1 L2)^e for
    d in {4,6,8}; false with a witness on 20 seeded random non-powers per
    degree (certified by direct power extraction); the quintic identity
    (F,(F,F)_2)_5 = 0; and the two pinned octavic proportionalities."""
    for d in (4, 6, 8):
        e = d // 2
        reg = VarRegistry(["a0", "a1", "b0", "b1", "x0", "x1"])
        x0, x1 = Poly.variable(reg, "x0"), Poly.variable(reg, "x1")
        a0, a1 = Poly.variable(reg, "a0"), Poly.variable(reg, "a1")
        b0, b1 = Poly.variable(reg, "b0"), Poly.variable(reg, "b1")
        L1 = a0 * x0 + a1 * x1
        L2 = b0 * x0 + b1 * x1
        F = BinaryForm((L1 * L2) ** e, d)
        ok, witness = membership(F)
        if not ok:
            return False, f"symbolic power of degree {d} rejected by {witness}"

    rng = random.Random(RANDOM_SEED)
    for d in (4, 6, 8):
        rejected = 0
        while rejected < 20:
            coeffs = [rng.randint(-5, 5) for _ in range(d + 1)]
            if all(c == 0 for c in coeffs) or is_power_of_quadratic(coeffs):
                continue
            terms = {(d - t, t): c for t, c in enumerate(coeffs)}
            F = BinaryForm(Poly(VarRegistry(["x0", "x1"]), terms), d)
            ok, witness = membership(F)
            if ok or witness is None:
                return False, f"non-power {coeffs} accepted"
            rejected += 1

    reg = VarRegistry([f"f{i}" for i in range(6)] + ["x0", "x1"])
    F5 = generic_form(reg, 5)
    if not transvectant(F5, transvectant(F5, F5, 2), 5).is_zero():
        return False, "quintic identity (F,(F,F)_2)_5 != 0"

    reg = VarRegistry([f"f{i}" for i in range(9)] + ["x0", "x1"])
    F8 = generic_form(reg, 8)
    # the six octavic covariants share (F,F)_0, (F,F)_2 and their tables
    members = [CovariantExpr("Phi", 8, (0, 6, 1, 4)), CovariantExpr("Phi", 8, (0, 8, 1, 6))]
    members += [CovariantExpr("U", 8, ij) for ij in ((0, 6), (1, 4), (0, 8), (1, 6))]
    phi1, phi2, u06, u14, u08, u16 = (form.poly for form in covariants(F8, members))
    if phi1 * (-15015) != u06 * 13 - u14 * 63:
        return False, "13:63 proportionality failed"
    if phi2 * 504504 != u08 * 195 - u16 * 2744:
        return False, "195:2744 proportionality failed"
    return True, "3 symbolic memberships, 60 certified rejections, 3 identities"


def criterion_8() -> tuple:
    """Character arithmetic: the cubic-octavic decomposition, the
    symmetric square of weight 12, their difference, emptiness in degree
    2, and rank-nullity agreement with the exact matrix rank at (3,4)."""
    want_plethysm = {24: 1, 20: 1, 18: 1, 16: 1, 14: 1, 12: 2, 10: 1, 8: 2, 6: 1, 4: 1, 0: 1}
    got = decompose_plethysm(3, 8)
    if got != want_plethysm:
        return False, f"cubic-octavic decomposition gave {got}"
    if char_dimension(got) != binomial(11, 3):
        return False, "dimension count off in cubic-octavic decomposition"
    if decompose_s2(12) != {24: 1, 20: 1, 16: 1, 12: 1, 8: 1, 4: 1, 0: 1}:
        return False, f"symmetric square gave {decompose_s2(12)}"
    if ideal_character(3, 8) != {18: 1, 14: 1, 12: 1, 10: 1, 8: 1, 6: 1}:
        return False, f"ideal slice gave {ideal_character(3, 8)}"
    for d in (4, 6, 8):
        if ideal_character(2, d):
            return False, f"degree-2 slice nonempty at d={d}"
    report = alpha_rank(1, 4, 3)
    kernel = report["cols"] - report["rank"]
    if kernel != char_dimension(ideal_character(3, 4)):
        return False, f"kernel {kernel} vs character {ideal_character(3, 4)}"
    return True, "5 pinned characters plus rank-nullity agreement"


def criterion_9() -> tuple:
    """The regularity bound: value 3 whenever n=1 and e >= 2, agreement
    with the ceiling formula on the 4x4 grid, and the flagged (1,1)
    exclusion."""
    for e in (2, 3, 4):
        if m0(1, e) != 3:
            return False, f"m0(1,{e}) = {m0(1, e)}"
    for n in range(1, 5):
        for e in range(1, 5):
            want = math.ceil(2 * n + 1 - Fraction(n, e))
            if m0(n, e) != want:
                return False, f"m0({n},{e}) = {m0(n, e)}, want {want}"
    if m0(1, 1) != 2 or not m0_excluded(1, 1) or m0_excluded(1, 2):
        return False, "exclusion flag wrong"
    return True, "19 bound values plus exclusion flag"


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
)


def run_all() -> list:
    """Run the battery; one dict per criterion."""
    results = []
    for index, fn in enumerate(CRITERIA, start=1):
        passed, detail = fn()
        results.append({"criterion": index, "passed": passed, "detail": detail})
    return results


# -- independent power-extraction oracle ----------------------------------


def is_power_of_quadratic(coeffs) -> bool:
    """Whether sum coeffs[t] x0^(d-t) x1^t is the e-th power of some
    quadratic over the complex numbers (d = 2e).

    Works on the coefficient list alone, in integers: rational
    coefficients are first scaled by the lcm of their denominators, which
    changes no answer.  Shear x1 -> x1 + s x0 so the leading coefficient
    c0 is nonzero; the candidate quadratic is then c0^(1/e) (1 + alpha t
    + beta t^2) in t = x1/x0, read off the first three coefficients.  With
    D = c0 e^2, alpha = a/D and beta = b/D^2 for integers a, b, so the
    comparison c0 (1 + alpha t + beta t^2)^e = sheared becomes
    c0 (D^2 + aD t + b t^2)^e = D^(2e) sheared.  Deliberately avoids the
    polynomial engine and the covariant machinery.
    """
    d = len(coeffs) - 1
    if d % 2 or d < 2:
        raise ValueError(f"need an even degree >= 2, got {d}")
    e = d // 2
    if not all(type(c) is int for c in coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        common = math.lcm(*(c.denominator for c in coeffs))
        coeffs = [int(c * common) for c in coeffs]
    if not any(coeffs):
        return True

    # a nonzero univariate of degree <= d has a nonroot among 0..d
    for s in range(d + 1):
        powers = [s**t for t in range(d + 1)]
        if sum(c * w for c, w in zip(coeffs, powers)):
            break
    sheared = [
        sum(coeffs[t] * binomial(t, u) * powers[t - u] for t in range(u, d + 1))
        for u in range(d + 1)
    ]

    c0, s1, s2 = sheared[:3]
    D = c0 * e * e
    a = s1 * e
    b = s2 * c0 * e**3 - binomial(e, 2) * s1 * s1 * e
    q0, q1 = D * D, a * D
    power = [1]
    for _ in range(e):
        nxt = [0] * (len(power) + 2)
        for t, c in enumerate(power):
            nxt[t] += c * q0
            nxt[t + 1] += c * q1
            nxt[t + 2] += c * b
        power = nxt
    scale = D ** (2 * e)
    return all(c0 * pc == scale * fc for pc, fc in zip(power, sheared))
