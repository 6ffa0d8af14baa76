"""Sparse multivariate polynomials over exact rationals.

A VarRegistry fixes an ordered alphabet of variable names; a Poly is a sparse
map from exponent vectors (one entry per registered variable) to nonzero
rational coefficients.  Registries are append-only: variables may be added
after polynomials exist, and an older Poly is carried into the grown registry
with an explicit lift().

Coefficients are Python ints or Fractions, under one invariant: no stored
coefficient is 0, and every integral coefficient is an int (never a Fraction
with denominator 1).  parse() and every operation keep it, so the inner loops
of the differential-operator calculus stay in (fast) integer arithmetic, and
the rational normalizations are applied once at the end as scalar multiples.

The public constructor Poly(registry, terms) validates and copies its input.
The ring operations build their results through Poly._trusted, which skips
both; every caller of _trusted must hand over a fresh dict, of exponent
vectors of the stated width, whose coefficients already keep the invariant.
"""

import re
from fractions import Fraction
from math import perm
from operator import add as _add

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Guard against absurd exponents sneaking in through parsed input.
_EXPONENT_CAP = 2**20


class VarRegistry:
    """Ordered, append-only collection of distinct variable names."""

    __slots__ = ("_names", "_index")

    def __init__(self, names=()):
        self._names = []
        self._index = {}
        for name in names:
            self.add(name)

    def add(self, name: str) -> int:
        """Register a new name; returns its index."""
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ValueError(f"invalid variable name {name!r}")
        if name in self._index:
            raise ValueError(f"duplicate variable name {name!r}")
        self._index[name] = len(self._names)
        self._names.append(name)
        return self._index[name]

    def ensure(self, name: str) -> int:
        """Register name if absent; returns its index either way."""
        idx = self._index.get(name)
        return self.add(name) if idx is None else idx

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    @property
    def names(self) -> tuple:
        return tuple(self._names)

    def __len__(self):
        return len(self._names)

    def __contains__(self, name):
        return name in self._index

    def __iter__(self):
        return iter(self._names)

    def __repr__(self):
        return f"VarRegistry({list(self._names)!r})"


class Poly:
    """Immutable sparse polynomial over a VarRegistry.

    terms maps exponent tuples (length = registry size at creation) to
    nonzero coefficients.  Do not mutate terms after construction.
    """

    __slots__ = ("registry", "terms", "width")

    def __init__(self, registry: VarRegistry, terms: dict):
        self.registry = registry
        self.width = len(registry)
        for exps in terms:
            if len(exps) != self.width:
                raise ValueError(
                    f"exponent vector length {len(exps)} != registry size {self.width}"
                )
        self.terms = _settle(dict(terms))

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, registry, width, terms):
        """Wrap terms without validation or copy (see the module docstring)."""
        p = object.__new__(cls)
        p.registry = registry
        p.width = width
        p.terms = terms
        return p

    def _const(self, c):
        # a constant at this Poly's width, which may trail a grown registry
        c = _demoted(c)
        terms = {(0,) * self.width: c} if c else {}
        return Poly._trusted(self.registry, self.width, terms)

    @classmethod
    def zero(cls, registry):
        return cls(registry, {})

    @classmethod
    def const(cls, registry, c):
        if not c:
            return cls(registry, {})
        return cls(registry, {(0,) * len(registry): c})

    @classmethod
    def variable(cls, registry, name):
        return cls.term(registry, 1, {name: 1})

    @classmethod
    def term(cls, registry, coeff, powers: dict):
        """Single term coeff * prod(name^k)."""
        exps = [0] * len(registry)
        for name, k in powers.items():
            if k < 0:
                raise ValueError(f"negative exponent {k} for {name!r}")
            exps[registry.index(name)] += k
        return cls(registry, {tuple(exps): coeff})

    # -- predicates and bookkeeping ---------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.registry is other.registry
            and self.width == other.width
            and self.terms == other.terms
        )

    __hash__ = None

    def _check_compatible(self, other):
        if self.registry is not other.registry or self.width != other.width:
            raise ValueError("registry mismatch (lift one operand first)")

    def total_degree(self) -> int:
        """Max term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def _indices(self, names):
        # variables registered after this Poly was created count as absent
        return [i for i in (self.registry.index(n) for n in names) if i < self.width]

    def degree_in(self, names) -> int:
        """Max combined degree in the given variables; -1 for zero."""
        if not self.terms:
            return -1
        idx = self._indices(names)
        return max(sum(e[i] for i in idx) for e in self.terms)

    def is_homogeneous_in(self, names, degree: int) -> bool:
        """True iff every term has the given combined degree in names."""
        idx = self._indices(names)
        return all(sum(e[i] for i in idx) == degree for e in self.terms)

    def uses(self, name) -> bool:
        """True iff the variable appears with nonzero exponent."""
        i = self.registry.index(name)
        if i >= self.width:
            return False
        return any(e[i] for e in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a variable-free polynomial."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1:
            ((exps, coeff),) = self.terms.items()
            if not any(exps):
                return Fraction(coeff)
        raise ValueError("polynomial is not constant")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        get = out.get
        for exps, c in other.terms.items():
            s = get(exps, 0) + c
            if s:
                if type(s) is Fraction and s.denominator == 1:
                    s = s.numerator
                out[exps] = s
            else:
                del out[exps]
        return Poly._trusted(self.registry, self.width, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(
            self.registry, self.width, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _demoted(other)
            if not other:
                return self._const(0)
            out = {e: c * other for e, c in self.terms.items()}
            _demote_in_place(out)
            return Poly._trusted(self.registry, self.width, out)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compatible(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        b = list(b.items())
        out = {}
        get = out.get
        for ea, ca in a.items():
            for eb, cb in b:
                key = tuple(map(_add, ea, eb))
                out[key] = get(key, 0) + ca * cb
        return Poly._trusted(self.registry, self.width, _settle(out))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self._const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus ----------------------------------------------------------

    def differentiate(self, var: str, times: int = 1):
        """Iterated exact partial derivative with respect to var."""
        if times < 0:
            raise ValueError("negative differentiation count")
        i = self.registry.index(var)
        if i >= self.width:
            return self._const(0) if times else self
        # d^t/dx^t x^k = k!/(k-t)! x^(k-t): one pass, one falling factorial
        out = {}
        for exps, c in self.terms.items():
            k = exps[i]
            if k >= times:
                out[exps[:i] + (k - times,) + exps[i + 1 :]] = c * perm(k, times)
        _demote_in_place(out)
        return Poly._trusted(self.registry, self.width, out)

    def substitute(self, bindings: dict):
        """Simultaneous substitution name -> Poly, fully expanded.

        All replacement polynomials must share one registry; it becomes the
        result's registry, and unbound variables must exist there by name.
        """
        if not bindings:
            return self
        target = None
        for p in bindings.values():
            if not isinstance(p, Poly):
                raise TypeError("bindings must map names to Poly values")
            if target is None:
                target = p
            elif p.registry is not target.registry or p.width != target.width:
                raise ValueError("registry mismatch among replacement polynomials")
        reg, width = target.registry, target.width

        bound = {}
        for name, p in bindings.items():
            bound[self.registry.index(name)] = p
        carry = {}
        for i, name in enumerate(self.registry.names[: self.width]):
            if i not in bound:
                carry[i] = reg.index(name)

        # Fast path: every replacement is a single term.  Then each input
        # term maps to exactly one output term.
        if all(len(p.terms) == 1 for p in bound.values()):
            mono = {}
            for i, p in bound.items():
                (bexps, bcoeff), = p.terms.items()
                mono[i] = (bexps, bcoeff)
            out = {}
            get = out.get
            for exps, c in self.terms.items():
                vec = [0] * width
                coeff = c
                for i, e in enumerate(exps):
                    if not e:
                        continue
                    hit = mono.get(i)
                    if hit is None:
                        vec[carry[i]] += e
                    else:
                        bexps, bcoeff = hit
                        if bcoeff != 1:
                            coeff = coeff * bcoeff**e
                        for j, be in enumerate(bexps):
                            if be:
                                vec[j] += be * e
                key = tuple(vec)
                out[key] = get(key, 0) + coeff
            return Poly._trusted(reg, width, _settle(out))

        # General path: per-term products with a power cache.
        powcache = {}

        def powered(i, e):
            got = powcache.get((i, e))
            if got is None:
                got = bound[i] ** e
                powcache[(i, e)] = got
            return got

        acc = {}
        get = acc.get
        for exps, c in self.terms.items():
            vec = [0] * width
            for i, e in enumerate(exps):
                if e and i not in bound:
                    vec[carry[i]] += e
            prod = Poly._trusted(reg, width, {tuple(vec): c})
            for i, e in enumerate(exps):
                if e and i in bound:
                    prod = prod * powered(i, e)
            for key, cc in prod.terms.items():
                acc[key] = get(key, 0) + cc
        return Poly._trusted(reg, width, _settle(acc))

    def coefficient_of(self, assignment: dict):
        """Coefficient polynomial of the monomial fixed by assignment.

        assignment maps a subset of variables to exact exponents; the result
        is the polynomial in the remaining variables multiplying that
        monomial (zero polynomial when absent).
        """
        idx = {}
        for n, e in assignment.items():
            i = self.registry.index(n)
            if i >= self.width:
                if e != 0:
                    return Poly.zero(self.registry)
            else:
                idx[i] = e
        out = {}
        for exps, c in self.terms.items():
            if all(exps[i] == e for i, e in idx.items()):
                key = tuple(0 if i in idx else v for i, v in enumerate(exps))
                out[key] = c
        return Poly._trusted(self.registry, self.width, out)

    def lift(self, target: VarRegistry = None):
        """Re-express in a larger registry (or this registry after growth).

        Every variable actually used must exist in the target by name.
        """
        if target is None or target is self.registry:
            target = self.registry
            if self.width == len(target):
                return self
            pad = (0,) * (len(target) - self.width)
            return Poly._trusted(
                target, len(target), {e + pad: c for e, c in self.terms.items()}
            )
        used = [False] * self.width
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used[i] = True
        remap = {}
        for i, name in enumerate(self.registry.names[: self.width]):
            if used[i]:
                remap[i] = target.index(name)
        nt = len(target)
        out = {}
        for exps, c in self.terms.items():
            vec = [0] * nt
            for i, e in enumerate(exps):
                if e:
                    vec[remap[i]] = e
            out[tuple(vec)] = c
        return Poly._trusted(target, nt, out)

    # -- text --------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.registry.names
        # graded lexicographic, highest first: degree, then exponent vector
        ordered = sorted(
            self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True
        )
        pieces = []
        for exps, c in ordered:
            vars_txt = "*".join(
                names[i] if e == 1 else f"{names[i]}^{e}"
                for i, e in enumerate(exps)
                if e
            )
            mag = abs(Fraction(c))
            if vars_txt and mag == 1:
                body = vars_txt
            elif vars_txt:
                body = f"{mag}*{vars_txt}"
            else:
                body = str(mag)
            sign = "-" if c < 0 else "+"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"Poly({self})"


def _demoted(c):
    """c, or its numerator when c is a Fraction with denominator 1."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _demote_in_place(terms):
    # the scan for any Fraction at all runs in C; all-int terms stop there
    if Fraction in map(type, terms.values()):
        for exps, c in terms.items():
            if type(c) is Fraction and c.denominator == 1:
                terms[exps] = c.numerator


def _settle(terms):
    """terms made to keep the coefficient invariant, in place where it can be."""
    if 0 in terms.values():
        terms = {e: c for e, c in terms.items() if c}
    _demote_in_place(terms)
    return terms


# -- parsing ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>\d+(?:/\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^])"
)


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} at position {position}")
        self.position = position


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


def parse(text: str, registry: VarRegistry) -> Poly:
    """Parse the polynomial grammar: terms joined by + or -, each term an
    optional rational coefficient ("p/q" or integer) followed by
    "*"-separated variable powers "name^k" (k omitted means 1).

    Integral coefficients (including "4/2") are stored as int.
    """
    tokens = _tokenize(text)
    i = 0

    def peek():
        return tokens[i]

    def advance():
        nonlocal i
        tok = tokens[i]
        i += 1
        return tok

    def parse_term(sign):
        kind, value, pos = peek()
        coeff = sign
        powers = []
        if kind == "num":
            advance()
            try:
                coeff *= _demoted(Fraction(value))
            except ZeroDivisionError:
                raise ParseError("zero denominator in coefficient", pos) from None
        elif kind != "name":
            raise ParseError("expected a coefficient or variable", pos)
        first = kind == "num"
        while True:
            kind, value, pos = peek()
            if first:
                first = False
                # after a leading coefficient, variables need a '*'
                if kind == "op" and value == "*":
                    advance()
                    kind, value, pos = peek()
                elif kind == "name":
                    raise ParseError("missing '*' between coefficient and variable", pos)
                else:
                    break
            if kind != "name":
                if kind == "num":
                    raise ParseError("coefficient must lead a term", pos)
                break
            if value not in registry:
                raise ParseError(f"unknown variable {value!r}", pos)
            advance()
            exp = 1
            kind2, value2, pos2 = peek()
            if kind2 == "op" and value2 == "^":
                advance()
                kind3, value3, pos3 = peek()
                if kind3 != "num" or "/" in value3:
                    raise ParseError("expected integer exponent after '^'", pos3)
                advance()
                exp = int(value3)
                if exp > _EXPONENT_CAP:
                    raise ParseError(f"exponent {exp} exceeds cap {_EXPONENT_CAP}", pos3)
            powers.append((value, exp))
            kind4, value4, pos4 = peek()
            if kind4 == "op" and value4 == "*":
                advance()
                kind5, _, pos5 = peek()
                if kind5 not in ("name", "num"):
                    raise ParseError("dangling '*'", pos5)
                continue
            break
        exps = [0] * len(registry)
        for name, exp in powers:
            exps[registry.index(name)] += exp
        return tuple(exps), coeff

    result = {}
    sign = 1
    kind, value, pos = peek()
    if kind == "op" and value in "+-":
        advance()
        sign = -1 if value == "-" else 1
    elif kind == "end":
        raise ParseError("empty input", pos)
    while True:
        exps, coeff = parse_term(sign)
        result[exps] = result.get(exps, 0) + coeff
        kind, value, pos = peek()
        if kind == "end":
            break
        if kind == "op" and value in "+-":
            advance()
            sign = -1 if value == "-" else 1
            continue
        raise ParseError(f"expected '+' or '-', got {value!r}", pos)
    return Poly(registry, result)
