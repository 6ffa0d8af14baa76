"""Workload inputs, expected outputs and the independent answer checks.

Nothing here imports invforge: the inputs reach the package only as argv
strings, and every check either compares bytes recorded in expected.json
or recomputes a property of the answer by other means.
"""

import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

WORKLOADS = ("battery", "membership")

SYMBOLIC_DEGREES = (8, 10)
POWER_DEGREES = (8, 10, 12, 14, 16)
POWERS_PER_DEGREE = 2
NONMEMBER_DEGREES = (8, 10, 12, 14, 16, 18, 20)
NONMEMBERS_PER_DEGREE = 8

MEMBER_STDOUT = '{"member":true,"witness":null}\n'


class Answer:
    """One cli.main call: its argv, the stdout this commit prints for it,
    and what the independent check needs to know about it."""

    __slots__ = ("argv", "expected", "kind", "info")

    def __init__(self, argv, expected, kind, info=None):
        self.argv = argv
        self.expected = expected
        self.kind = kind
        self.info = info


def load_expected(path=EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- fixed argv lists -------------------------------------------------------


def battery_argvs():
    return [["verify-all", "--level", "desk"]]


def symbolic_argvs():
    return [["membership", "--d", str(d), "--f", symbolic_member(d)] for d in SYMBOLIC_DEGREES]


def fixed_argvs():
    """Every argv whose stdout is recorded verbatim in expected.json."""
    return battery_argvs() + symbolic_argvs()


def argv_key(argv) -> str:
    return "\x1f".join(argv)


# -- polynomial text, built without the package -----------------------------


def _monomial(powers) -> str:
    return "*".join(name if k == 1 else f"{name}^{k}" for name, k in powers if k)


def poly_text(terms) -> str:
    """terms: list of (integer coefficient, [(name, exponent), ...])."""
    pieces = []
    for coeff, powers in terms:
        if not coeff:
            continue
        mono = _monomial(powers)
        mag = abs(coeff)
        body = f"{mag}*{mono}" if mono else str(mag)
        sign = "-" if coeff < 0 else "+"
        pieces.append((sign, body))
    if not pieces:
        return "0"
    text = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


def form_text(coeffs) -> str:
    """sum coeffs[t] x0^(d-t) x1^t as parser input."""
    d = len(coeffs) - 1
    return poly_text([(c, [("x0", d - t), ("x1", t)]) for t, c in enumerate(coeffs)])


def symbolic_member(d: int) -> str:
    """(L1 L2)^e with L1 = a0 x0 + a1 x1, L2 = b0 x0 + b1 x1, expanded."""
    e = d // 2
    terms = []
    for i in range(e + 1):
        for j in range(e + 1):
            powers = [
                ("a0", e - i), ("a1", i), ("b0", e - j), ("b1", j),
                ("x0", d - i - j), ("x1", i + j),
            ]
            terms.append((comb(e, i) * comb(e, j), powers))
    return poly_text(terms)


def quadratic_power(q, e: int) -> list:
    """Coefficient list of (q0 x0^2 + q1 x0 x1 + q2 x1^2)^e."""
    out = [1]
    for _ in range(e):
        nxt = [0] * (len(out) + 2)
        for t, c in enumerate(out):
            for s, qc in enumerate(q):
                nxt[t + s] += c * qc
        out = nxt
    return out


def is_power_of_quadratic(coeffs) -> bool:
    """Whether sum coeffs[t] x0^(d-t) x1^t is the e-th power of a complex
    quadratic, d = 2e, decided on the coefficient list alone.

    With c0 != 0 the form is c0 * G(x1/x0) x0^d; it is a power of a
    quadratic iff the power series G^(1/e) has no terms beyond t^2.
    """
    d = len(coeffs) - 1
    if d % 2 or d < 2:
        raise ValueError(f"need an even degree >= 2, got {d}")
    e = d // 2
    c = [Fraction(x) for x in coeffs]
    if not c[0]:
        if c[-1]:
            c.reverse()
        else:
            # x0*x1 divides F, so the quadratic is k*x0*x1
            return all(not x for t, x in enumerate(c) if t != e)
    g = [x / c[0] for x in c]
    a = Fraction(1, e)
    h = [Fraction(1)]
    for n in range(1, d + 1):
        acc = sum((a * k - (n - k)) * g[k] * h[n - k] for k in range(1, n + 1))
        h.append(acc / n)
    return not any(h[3:])


def nonmember_candidates(d: int, count: int, rng: random.Random) -> list:
    """Random integer forms of degree d that are not powers of quadratics."""
    out = []
    while len(out) < count:
        coeffs = [rng.randint(-5, 5) for _ in range(d + 1)]
        if any(coeffs) and not is_power_of_quadratic(coeffs):
            out.append(coeffs)
    return out


def random_quadratic(rng: random.Random) -> tuple:
    """Integer quadratic with every coefficient and the discriminant nonzero."""
    while True:
        q = tuple(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)) for _ in range(3))
        if q[1] * q[1] - 4 * q[0] * q[2]:
            return q


# -- passes -------------------------------------------------------------------


def build_pass(workload: str, seed: int, expected: dict) -> list:
    """The answers of one pass.  Only membership depends on the seed."""
    fixed = expected["fixed"]

    def pinned(argvs, kind, info=None):
        return [Answer(a, fixed[argv_key(a)], kind, info and info(a)) for a in argvs]

    if workload == "battery":
        return pinned(battery_argvs(), "battery")
    if workload != "membership":
        raise ValueError(f"unknown workload {workload!r}")

    rng = random.Random(seed)
    answers = pinned(symbolic_argvs(), "member", lambda a: True)
    for d in POWER_DEGREES:
        for _ in range(POWERS_PER_DEGREE):
            coeffs = quadratic_power(random_quadratic(rng), d // 2)
            argv = ["membership", "--d", str(d), "--f", form_text(coeffs)]
            answers.append(Answer(argv, MEMBER_STDOUT, "member", True))
    pool = expected["nonmember_pool"]
    for d in NONMEMBER_DEGREES:
        for entry in rng.sample(pool[str(d)], NONMEMBERS_PER_DEGREE):
            if is_power_of_quadratic(entry["coeffs"]):
                raise ValueError(f"pool entry {entry['coeffs']} is a power")
            argv = ["membership", "--d", str(d), "--f", form_text(entry["coeffs"])]
            answers.append(Answer(argv, entry["stdout"], "member", False))
    # interleaved, so that each kind of answer samples the whole pass and
    # a few seconds of a slow host do not land on one kind only
    rng.shuffle(answers)
    return answers


# -- checks -------------------------------------------------------------------


def check_answer(answer: Answer, record: dict):
    """None when the answer is right, else a short reason."""
    if record.get("error"):
        return f"raised {record['error']}"
    if record["code"] != 0:
        return f"exit code {record['code']}"
    if record["stdout"] != answer.expected:
        return "stdout differs from the recorded bytes"
    try:
        obj = json.loads(record["stdout"])
    except ValueError:
        return "stdout is not JSON"
    if answer.kind == "battery" and obj.get("all_passed") is not True:
        return "all_passed is not true"
    if answer.kind == "member":
        if obj.get("member") is not answer.info:
            return f"member flag {obj.get('member')}, built as {answer.info}"
        if answer.info != (obj.get("witness") is None):
            return "witness does not match the member flag"
    return None


def score_pass(answers, records) -> list:
    """One failure reason (or None) per answer; never raises on bad output."""
    return [check_answer(a, r) for a, r in zip(answers, records)]
