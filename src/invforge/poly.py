"""Sparse multivariate polynomials over exact rationals.

A VarRegistry fixes an ordered alphabet of variable names; a Poly is a sparse
map from monomials to nonzero rational coefficients.  Registries are
append-only: variables may be added after polynomials exist, and a Poly made
before its registry grew combines freely with one made after.

Monomials are packed exponent vectors (Monagan & Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007).  The exponent of variable i occupies bits [W*i, W*(i+1)) of one
nonnegative int key, with field width W = 32, so the product of two
monomials is one integer add and a dict lookup hashes one int.  Variables
registered later take higher bits, and an unused field reads 0, so a key
means the same monomial at every size its registry has had.

partial() is the one derivative loop: one pass over the terms for any
number of (variable, order) pairs, each term's factor a falling factorial
per variable, computed once per distinct pattern of those exponents;
differentiate(var, times) is its one-pair case.  _degrees_in reads the
combined degrees in some variables the same way, once per distinct
pattern, for degree_in and is_homogeneous_in.

substitute() runs one loop over the terms: an unbound variable or a one-term
image adds to the output key (and scales the coefficient), and a longer image
is multiplied in as a cached power.  lift() is that loop with no bindings: it
moves fields by name into another registry.

A field must never carry into its neighbour.  Every Poly records `bound`,
an upper bound on each single exponent it holds (the maximum under +, the
sum under *), and Poly._trusted raises ValueError when the bound reaches
2^W.  Exponents up to 2^W - 1 work; the bound is not exact, so a product
may be refused whose true exponents would still fit.

`terms` is the stored dict, keyed by packed ints; read it for sizes and
coefficients.  exponent_terms() is the view keyed by exponent tuples (one
entry per variable of the registry as it is now), for readers that need the
exponents themselves.

Poly.weighted_sum holds the one multiply-accumulate loop.  It groups the
terms of each operand by their exponents in some named variables and gives
each pair of groups one int weight, the dot product of the groups' weight
vectors, built only over the indices both operands reach; each term pair
of nonzero weight is multiplied once, and its key lowered by a fixed
power of the named variables.  a * b is its trivial case, one group on
each side and weight 1; transvect._omega_diagonal groups by x0, x1 and
lowers by (x0 x1)^k, its weights folding the k+1 Omega branches into one
per pair of x-exponents.

kronecker_digits is the one decoder of a Kronecker-packed int: its
balanced base-2^width digits, lowest first.  transvect._omega_dense
multiplies coefficient lists as big ints and takes the digits as the
output's list; enumeration.tau takes them as its numerators.
Poly.from_slots is the one way such a list becomes a Poly: it puts the
entries on the slots of an exponent box and fills one variable in by
homogeneity (for a binary form, a box over x1 and x0 as the fill).
Poly.dense_coefficients gives the dense route the coefficient list of an
integer binary form, so packed keys are read and written only in this
module.

Text goes both ways.  str() writes terms in graded lexicographic order,
highest first; parse() reads terms joined by + or -, each an optional
rational coefficient and "*"-separated variable powers, where every "*" is
followed by a variable.  NAME_RE is the one pattern for a variable name (a
letter or underscore, then letters, digits or underscores): VarRegistry.add,
the tokenizer and the CLI's registration of typed names all use it.

Coefficients are Python ints or Fractions, and no stored coefficient is 0.
The public constructors (Poly(...), Poly.const, Poly.term) raise TypeError
for any other coefficient, a float included, and normalize an integral one
to an int, once; parse() builds through Poly(...), so "4/2" is stored as 2.
The result of an operation may hold an integral Fraction, which compares
and prints like the int.  Integer input keeps the operator calculus in
integer arithmetic; its rational scales are applied once, at the end.

The public constructor Poly(registry, terms) takes exponent tuples, and
validates, packs and copies them.  The ring operations build their results
through Poly._trusted, which skips all three; every caller of _trusted must
hand over a fresh dict of packed keys over the stated registry, holding no
zero and only int or Fraction coefficients, with a true exponent bound.
"""

import re
from fractions import Fraction
from functools import reduce
from math import perm
from operator import mul, or_

# the one variable-name pattern (see the module docstring)
NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Guards on parsed input: absurd exponents (a variable's total in one term),
# and number tokens too long to convert under every setting of the
# interpreter's int-string limit (>= 640).
_EXPONENT_CAP = 2**20
_NUMBER_CAP = 640

_W = 32  # bits per exponent field
_MASK = (1 << _W) - 1
# below this many digits, peeling one at a time beats splitting in halves
_DIGIT_RUN = 16


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
        if not isinstance(name, str) or not NAME_RE.fullmatch(name):
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


def _pack(exps) -> int:
    key = 0
    for e in reversed(exps):
        key = (key << _W) | e
    return key


def _unpack(key: int, width: int) -> tuple:
    return tuple((key >> s) & _MASK for s in range(0, _W * width, _W))


def _used_indices(keys):
    """Indices of the variables with a nonzero exponent in some key."""
    used = reduce(or_, keys, 0)
    i = 0
    while used:
        if used & _MASK:
            yield i
        used >>= _W
        i += 1


class Poly:
    """Immutable sparse polynomial over a VarRegistry.

    terms maps packed monomial keys to nonzero coefficients (see the module
    docstring); exponent_terms() gives the same map keyed by exponent
    tuples.  Do not mutate terms after construction.
    """

    __slots__ = ("registry", "terms", "bound")

    def __init__(self, registry: VarRegistry, terms: dict):
        self.registry = registry
        width = len(registry)
        packed = {}
        bound = 0
        for exps, c in terms.items():
            if len(exps) != width:
                raise ValueError(
                    f"exponent vector length {len(exps)} != registry size {width}"
                )
            if min(exps, default=0) < 0:
                raise ValueError(f"negative exponent in {exps}")
            bound = max(bound, max(exps, default=0))
            packed[_pack(exps)] = _coefficient(c)
        if bound > _MASK:
            raise _overflow(bound)
        self.bound = bound
        self.terms = _settle(packed)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, registry, terms, bound):
        """Wrap terms without validation or copy (see the module docstring)."""
        if bound > _MASK:
            raise _overflow(bound)
        p = object.__new__(cls)
        p.registry = registry
        p.terms = terms
        p.bound = bound
        return p

    @classmethod
    def zero(cls, registry):
        return cls._trusted(registry, {}, 0)

    @classmethod
    def const(cls, registry, c):
        c = _coefficient(c)
        return cls._trusted(registry, {0: c} if c else {}, 0)

    @classmethod
    def variable(cls, registry, name):
        return cls.term(registry, 1, {name: 1})

    @classmethod
    def term(cls, registry, coeff, powers: dict):
        """Single term coeff * prod(name^k)."""
        key = bound = 0
        for name, k in powers.items():
            if k < 0:
                raise ValueError(f"negative exponent {k} for {name!r}")
            key += k << (_W * registry.index(name))
            bound = max(bound, k)
        c = _coefficient(coeff)
        return cls._trusted(registry, {key: c} if c else {}, bound)

    @classmethod
    def weighted_sum(cls, a, b, names=(), lower=0, weights=None):
        """sum of w(p, q) * s * t / m^lower over the terms s of a and t of b,
        where p and q are the exponent tuples of s and t in names, m is the
        product of the names, and w(p, q) = sum_i l_i r_i over the indices
        i in both windows, for weights = (left, right).  Each side is a
        pair (window, entries): window(p) = (first, end) gives the indices
        first..end-1 its vector covers, and entries(p, lo, hi) the weights
        [l_lo, ..., l_(hi-1)] of a part lo..hi-1 of that window.

        Each operand's terms are listed once per group of equal exponents
        in names.  Every window is cut to the indices that some group of
        the other operand also covers, before any vector is built, and a
        group whose cut window is empty is dropped.  A pair of groups of
        weight 0 is skipped, and every other term pair is multiplied once,
        into one dict, the weight folded into the shorter group.
        weights=None makes each operand one group of weight 1: with no
        names that is a * b.  a and b must share a registry, and a weight
        but an int raises TypeError.  The weights must vanish wherever some
        p_j + q_j < lower, as a lowered exponent would be negative; this is
        not checked."""
        registry = a.registry
        if b.registry is not registry:
            raise ValueError("registry mismatch in weighted_sum")
        shifts = [_W * registry.index(n) for n in names]
        drop = sum(lower << s for s in shifts)
        if weights is None:  # one group a side, of weight 1
            ga = [(len(a.terms), list(a.terms.items()), 0, 1, [1])]
            gb = [(len(b.terms), list(b.terms.items()), 0, 1, [1])]
        else:
            (lwindow, lentries), (rwindow, rentries) = weights
            ga = _groups(a.terms, shifts, lwindow)
            gb = _groups(b.terms, shifts, rwindow)
            # the indices both operands reach: no weight is built past them
            lo = max(min([g[2] for g in ga], default=0), min([g[2] for g in gb], default=0))
            hi = min(max([g[3] for g in ga], default=0), max([g[3] for g in gb], default=0))
            ga = _weighed(ga, lentries, lo, hi)
            gb = _weighed(gb, rentries, lo, hi)
        acc = {}
        get = acc.get
        for na, sa, la, ha, va in ga:
            for nb, sb, lb, hb, vb in gb:
                lo = la if la > lb else lb
                hi = ha if ha < hb else hb
                if lo >= hi:
                    continue
                if hi - lo == 1:
                    w = va[lo - la] * vb[lo - lb]
                else:
                    w = sum(map(mul, va[lo - la : hi - la], vb[lo - lb : hi - lb]))
                if not w:
                    continue
                if not isinstance(w, int):
                    raise TypeError(f"weight {w!r} is not an int")
                outer, inner = (sa, sb) if na <= nb else (sb, sa)
                for ka, ca in outer:
                    ca *= w
                    ka -= drop
                    for kb, cb in inner:
                        key = ka + kb
                        acc[key] = get(key, 0) + ca * cb
        bound = a.bound + b.bound if acc else 0
        return cls._trusted(registry, _settle(acc), bound)

    @classmethod
    def from_slots(cls, registry, coeffs, box, fill):
        """The Poly over registry with coefficient coeffs[n] on slot n of an
        exponent box, for coeffs a list of ints or Fractions, one per slot;
        its zeros are dropped.

        box = (names, size) numbers the slots: slot n holds the monomial
        whose exponent of names[i] is the i-th base-size digit of n, lowest
        first, and whose exponent of fill = (name, degree) is degree less
        their sum, as homogeneity of that degree demands.  ValueError: coeffs
        does not have one entry per slot.  ArithmeticError: a nonzero entry
        would give fill a negative exponent.  Every exponent of the result
        lies in 0..degree, so degree is its exponent bound.  A binary form
        sum_s c_s x0^(a-s) x1^s is from_slots(registry, [c_0, ..., c_a],
        (("x1",), a + 1), ("x0", a)), the inverse of dense_coefficients.
        """
        names, size = box
        name, degree = fill
        shift = _W * registry.index(name)
        base = degree << shift
        keys = None  # each slot's key, the first name's exponent running fastest
        for n in names:
            step = (1 << _W * registry.index(n)) - (1 << shift)
            if keys is None:
                keys = range(base, base + size * step, step)
            else:
                keys = [key + a * step for a in range(size) for key in keys]
        if len(coeffs) != len(keys):
            raise ValueError(f"{len(coeffs)} coefficients for {len(keys)} slots")
        terms = {key: c for key, c in zip(keys, coeffs) if c}
        # past the degree, fill's exponent is negative and its field wraps
        if (size - 1) * len(names) > degree:
            if any((key >> shift) & _MASK > degree for key in terms):
                raise ArithmeticError(f"a nonzero digit lies past degree {degree}")
        return cls._trusted(registry, terms, degree if terms else 0)

    # -- predicates and bookkeeping ---------------------------------------

    def exponent_terms(self) -> dict:
        """A fresh dict of this Poly's terms keyed by exponent tuples."""
        width = len(self.registry)
        return {_unpack(key, width): c for key, c in self.terms.items()}

    def is_zero(self) -> bool:
        return not self.terms

    def dense_coefficients(self, names):
        """[c_0, ..., c_a] with this Poly = sum_s c_s u^(a-s) v^s for names
        = (u, v), or None unless it is a nonzero form of degree a in u, v
        alone with int coefficients and at least (a+1)/2 terms, so the list
        is at most twice its size."""
        terms = self.terms
        if not terms:
            return None
        s0, s1 = (_W * self.registry.index(n) for n in names)
        first = next(iter(terms))
        a = ((first >> s0) & _MASK) + ((first >> s1) & _MASK)
        if 2 * len(terms) < a + 1:
            return None
        coeffs = [0] * (a + 1)
        for key, c in terms.items():
            s = (key >> s1) & _MASK
            # s > a makes the rebuilt key negative, so it never matches
            if type(c) is not int or key != ((a - s) << s0 | s << s1):
                return None
            coeffs[s] = c
        return coeffs

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.registry is other.registry and self.terms == other.terms

    __hash__ = None

    def _check_compatible(self, other):
        if self.registry is not other.registry:
            raise ValueError("registry mismatch (lift one operand first)")

    def _degrees_in(self, names) -> set:
        """The combined degrees in names of the terms, in one pass: each
        distinct pattern of their fields is summed once."""
        shifts = [_W * self.registry.index(n) for n in names]
        fields = sum(_MASK << s for s in shifts)
        patterns = {key & fields for key in self.terms}
        return {sum([(key >> s) & _MASK for s in shifts]) for key in patterns}

    def degree_in(self, names) -> int:
        """Max combined degree in the given variables; -1 for zero."""
        return max(self._degrees_in(names), default=-1)

    def is_homogeneous_in(self, names, degree: int) -> bool:
        """True iff every term has the given combined degree in names."""
        return self._degrees_in(names) <= {degree}

    def uses(self, name) -> bool:
        """True iff the variable appears with nonzero exponent."""
        field = _MASK << (_W * self.registry.index(name))
        return any(key & field for key in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a variable-free polynomial."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1:
            ((key, coeff),) = self.terms.items()
            if not key:
                return Fraction(coeff)
        raise ValueError("polynomial is not constant")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.registry, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        get = out.get
        for key, c in other.terms.items():
            s = get(key, 0) + c
            if s:
                out[key] = s
            else:
                del out[key]
        bound = max(self.bound, other.bound)
        return Poly._trusted(self.registry, out, bound)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(
            self.registry, {key: -c for key, c in self.terms.items()}, self.bound
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.registry, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly.zero(self.registry)
            out = {key: c * other for key, c in self.terms.items()}
            return Poly._trusted(self.registry, out, self.bound)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compatible(other)
        return Poly.weighted_sum(self, other)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(self.registry, 1)
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
        return self.partial(((var, times),))

    def partial(self, orders):
        """The mixed partial derivative taking times derivatives in var for
        each (var, times) of orders, in one pass over the terms.

        Every name is resolved, and every count checked, before a zero count
        is dropped; a name given twice adds its counts.  d^t/dx^t x^k is
        k!/(k-t)! x^(k-t), so a term's factor is one falling factorial per
        variable, or 0, with no factorial taken, when some exponent is below
        its count; it is computed once per distinct pattern of the
        differentiated exponents."""
        index = self.registry.index
        counts = {}  # shift -> times
        for var, times in orders:
            if times < 0:
                raise ValueError("negative differentiation count")
            shift = _W * index(var)
            counts[shift] = counts.get(shift, 0) + times
        fields = []
        drop = mask = 0
        for shift, times in counts.items():
            if times:
                fields.append((shift, times))
                drop += times << shift
                mask |= _MASK << shift
        if not fields:
            return self
        factors = {}  # pattern of the fields -> the term's factor
        out = {}
        for key, c in self.terms.items():
            pattern = key & mask
            f = factors.get(pattern)
            if f is None:
                f = 0
                if all((pattern >> shift) & _MASK >= times for shift, times in fields):
                    f = 1
                    for shift, times in fields:
                        f *= perm((pattern >> shift) & _MASK, times)
                factors[pattern] = f
            if f:
                out[key - drop] = c * f
        return Poly._trusted(self.registry, out, self.bound)

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
            elif p.registry is not target.registry:
                raise ValueError("registry mismatch among replacement polynomials")
        images = {self.registry.index(name): p for name, p in bindings.items()}
        return self._substitute(target.registry, images)

    def _substitute(self, reg, images):
        """This Poly over reg, with variable i replaced by images[i] and each
        other variable it uses moved to reg by name.

        An unbound variable or a one-term image folds into the output key and
        coefficient of each term; a longer image is multiplied in as a power,
        cached per (variable, exponent).
        """
        names = self.registry.names
        folded = []  # (shift, image key, image coefficient)
        powered = []  # (shift, image)
        # an unbound variable lands in its own field, an image's terms in any
        carried = fold_spread = spread = 0
        for i in _used_indices(self.terms):
            p = images.get(i)
            if p is None:
                folded.append((_W * i, 1 << (_W * reg.index(names[i])), 1))
                carried = 1
            elif len(p.terms) == 1:
                ((ikey, icoeff),) = p.terms.items()
                folded.append((_W * i, ikey, icoeff))
                fold_spread += p.bound
            else:
                powered.append((_W * i, p))
                spread += p.bound
        fold_bound = self.bound * (carried + fold_spread)

        powers = {}
        out = {}
        get = out.get
        for key, c in self.terms.items():
            okey = 0
            for shift, ikey, icoeff in folded:
                e = (key >> shift) & _MASK
                if e:
                    okey += e * ikey
                    if icoeff != 1:
                        c = c * icoeff**e
            if not powered:
                out[okey] = get(okey, 0) + c
                continue
            prod = Poly._trusted(reg, {okey: c}, fold_bound)
            for shift, p in powered:
                e = (key >> shift) & _MASK
                if e:
                    power = powers.get((shift, e))
                    if power is None:
                        power = powers[(shift, e)] = p**e
                    prod = prod * power
            for pkey, pc in prod.terms.items():
                out[pkey] = get(pkey, 0) + pc
        return Poly._trusted(reg, _settle(out), fold_bound + self.bound * spread)

    def coefficient_of(self, assignment: dict):
        """Coefficient polynomial of the monomial fixed by assignment.

        assignment maps a subset of variables to exact exponents; the result
        is the polynomial in the remaining variables multiplying that
        monomial (zero polynomial when absent).
        """
        fields = want = 0
        for n, e in assignment.items():
            shift = _W * self.registry.index(n)
            if not 0 <= e <= _MASK:
                return Poly.zero(self.registry)
            fields |= _MASK << shift
            want |= e << shift
        out = {}
        for key, c in self.terms.items():
            if key & fields == want:
                out[key - want] = c
        return Poly._trusted(self.registry, out, self.bound)

    def lift(self, target: VarRegistry):
        """Re-express in another registry, moving each variable by name.

        Every variable actually used must exist in the target by name.
        """
        if target is self.registry:
            return self
        return self._substitute(target, {})

    # -- text --------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.registry.names
        # graded lexicographic, highest first: degree, then exponent vector
        ordered = sorted(
            self.exponent_terms().items(),
            key=lambda kv: (sum(kv[0]), kv[0]),
            reverse=True,
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


def _overflow(bound):
    return ValueError(f"exponent bound {bound} does not fit the {_W}-bit packed field")


def _coefficient(c):
    """c, after refusing anything but an int or a Fraction; a Fraction with
    denominator 1 becomes its numerator."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficient {c!r} is not an int or a Fraction")
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def kronecker_digits(value, width, count) -> list:
    """[c_0, ..., c_(count-1)] with value = sum_n c_n 2^(width*n) and every
    |c_n| < 2^(width-1); ArithmeticError if there are no such digits.

    The int is split in halves, a balanced low part and the exact rest,
    down to runs of at most _DIGIT_RUN digits, which are peeled one at a
    time; a run that leaves a remainder raises.  So the work grows with
    the bits times their log, not with their square."""
    full = 1 << width
    half = full >> 1
    mask = full - 1
    digits = []
    runs = [(value, count)]  # (int, digits), lowest on top
    while runs:
        v, n = runs.pop()
        if n > _DIGIT_RUN:
            mid = n >> 1
            shift = mid * width
            low = v & (1 << shift) - 1
            if low >> shift - 1:
                low -= 1 << shift
            runs.append(((v - low) >> shift, n - mid))
            runs.append((low, mid))
            continue
        for _ in range(n):
            c = v & mask
            v >>= width
            if c >= half:  # a negative digit borrows one from the next
                c -= full
                v += 1
            digits.append(c)
        if v:
            raise ArithmeticError("Kronecker digits overflowed their width")
    # a digit of -2^(width-1) is past the bound, and the halves assume none
    if -half in digits:
        raise ArithmeticError("Kronecker digits overflowed their width")
    return digits


def _groups(terms, shifts, window) -> list:
    """(size, [(key, coefficient), ...], first, end, p) per tuple p of the
    exponents of terms in the fields at shifts: the terms with those
    exponents, and (first, end) = window(p)."""
    fields = sum(_MASK << s for s in shifts)
    groups = {}
    for key, c in terms.items():
        group = groups.get(key & fields)
        if group is None:
            groups[key & fields] = [(key, c)]
        else:
            group.append((key, c))
    out = []
    for g, group in groups.items():
        p = tuple([(g >> s) & _MASK for s in shifts])
        out.append((len(group), group, *window(p), p))
    return out


def _weighed(groups, entries, lo, hi) -> list:
    """(size, terms, first, end, vector) per group of _groups whose window
    meets lo..hi-1, cut to it, with vector = entries(p, first, end)."""
    out = []
    for size, group, first, end, p in groups:
        first = first if first > lo else lo
        end = end if end < hi else hi
        if first < end:
            out.append((size, group, first, end, entries(p, first, end)))
    return out


def _settle(terms):
    """terms without their zero coefficients (a copy only when there are any)."""
    if 0 in terms.values():
        terms = {key: c for key, c in terms.items() if c}
    return terms


# -- parsing ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>\d+(?:/\d+)?)"
    rf"|(?P<name>{NAME_RE.pattern})"
    r"|(?P<op>[-+*^])"
    r"|(?P<bad>.)",
    re.DOTALL,
)


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} at position {position}")
        self.position = position


def _tokenize(text):
    out = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        value, pos = m.group(), m.start()
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", pos)
        if kind == "num" and len(value) > _NUMBER_CAP:
            raise ParseError(f"number longer than {_NUMBER_CAP} characters", pos)
        out.append((kind, value, pos))
    out.append(("end", "", len(text)))
    return out


def parse(text: str, registry: VarRegistry) -> Poly:
    """Parse the polynomial grammar: terms joined by + or -, each term an
    optional rational coefficient ("p/q" or integer) and "*"-separated
    variable powers "name^k" (k omitted means 1).  Every "*" must be
    followed by a variable, so a coefficient alone is a term but "3*" is
    not; every variable must already be in the registry.

    An integer literal is read as an int, and "p/q" as a Fraction, which
    Poly() stores as an int when it is integral ("4/2" becomes 2).
    """
    tokens = _tokenize(text)
    if tokens[0][0] == "end":
        raise ParseError("empty input", tokens[0][2])
    result = {}
    i = 0
    while True:
        kind, value, pos = tokens[i]
        coeff = 1
        if value in ("+", "-"):
            coeff = -1 if value == "-" else 1
            i += 1
            kind, value, pos = tokens[i]
        if kind == "num":
            try:
                coeff *= Fraction(value) if "/" in value else int(value)
            except ZeroDivisionError:
                raise ParseError("zero denominator in coefficient", pos) from None
            i += 1
            kind, value, pos = tokens[i]
            if kind == "name":
                raise ParseError("missing '*' between coefficient and variable", pos)
        elif kind != "name":
            raise ParseError("expected a coefficient or variable", pos)
        exps = [0] * len(registry)
        # one variable power per pass: the one that opens the term, then one
        # after each '*'
        while kind == "name" or value == "*":
            if value == "*":
                i += 1
                kind, value, pos = tokens[i]
                if kind == "num":
                    raise ParseError("coefficient must lead a term", pos)
                if kind != "name":
                    raise ParseError("dangling '*'", pos)
            if value not in registry:
                raise ParseError(f"unknown variable {value!r}", pos)
            exp = 1
            if tokens[i + 1][1] == "^":
                kind, digits, pos = tokens[i + 2]
                if kind != "num" or "/" in digits:
                    raise ParseError("expected integer exponent after '^'", pos)
                exp = int(digits)
                i += 2
            idx = registry.index(value)
            exps[idx] += exp
            if exps[idx] > _EXPONENT_CAP:
                raise ParseError(f"exponent {exps[idx]} exceeds cap {_EXPONENT_CAP}", pos)
            i += 1
            kind, value, pos = tokens[i]
            if value != "*":
                break
        key = tuple(exps)
        result[key] = result.get(key, 0) + coeff
        if kind == "end":
            return Poly(registry, result)
        if value not in ("+", "-"):
            raise ParseError(f"expected '+' or '-', got {value!r}", pos)
