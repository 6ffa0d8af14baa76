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

map_exponents() is the one loop that weighs and moves each term by its
exponents in some variables, computing a weight once per distinct pattern
of those exponents.  partial() is the derivative on it, one pass over the
terms for any number of (variable, order) pairs, each term's factor a
falling factorial per variable; differentiate(var, times) is its one-pair
case, and transvect.pi_p folds the Omega branches on it.  _degrees_in
reads the combined degrees in some variables the same way, once per
distinct pattern, for degree_in and is_homogeneous_in.

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

_multiply_into is the one multiply-accumulate loop: it adds each term
pair of two (key, coefficient) lists to a dict, the shorter list in the
outer loop.  a * b calls it once, and alphamap.alpha_matrix on its own
narrower keys.  Poly.omega_table is the one grouped kernel, the Omega
process of transvectants on a pair of names (x0, x1): a table that
groups each operand's terms once by their exponents in the names and
answers, for each k asked, a sum over pairs of groups, each weighted by
the k+1 Omega branches folded into one int and lowered by (x0 x1)^k.  It
works out each group's branch window, its weight entries and their bit
bound itself, multiplies a pair of groups once, through _multiply_into,
the first time a k weighs it, and keeps the product as one packed int,
so a later k costs one big-int sum per output group.  Every U(i,j) of
one (F,F)_{2i} asks one table.

kronecker_pack and kronecker_digits are the one packer and the one
decoder of Kronecker-packed ints: balanced base-2^width digits, lowest
first, both split in halves so the work grows with the bits times their
log.  The Omega table packs its products with them;
transvect._omega_dense multiplies coefficient lists as big ints and takes
the digits as the output's list; enumeration.tau takes them as its
numerators.  Poly.from_slots is the one way such a list becomes a Poly:
it puts the entries on the slots of an exponent box and fills one
variable in by homogeneity (for a binary form, a box over x1 and x0 as
the fill).  Poly.dense_coefficients gives the dense route the coefficient
list of an integer binary form, so packed keys are read and written only
in this module.

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
from math import comb, factorial, lcm, perm
from operator import mul, or_

from .arith import check_cap, falling_bits, size_cap

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
    def omega_table(cls, a, b, names, top):
        """A table of the Omega process on a and b in the pair names = (x0,
        x1), every other variable a coefficient: table(k), for 0 <= k <=
        top, is [Omega^k a(x) b(y)] at y:=x, Omega = d^2/dx0 dy1 - d^2/dx1
        dy0, with no normalizing scalar.

        Every Omega branch sends a term s of a with exponents p = (p0, p1)
        in names and a term t of b with exponents q = (q0, q1) to the same
        monomial s t / (x0 x1)^k, so the k+1 branches fold into one weight
        per pair of exponents,

            w = sum_i (-1)^i C(k,i) (p0)_{k-i} (p1)_i (q0)_i (q1)_{k-i}
              = sum_i (-1)^i C(p0,k-i) C(p1,i) * k! (q0)_i (q1)_{k-i}

        (falling factorials), over the branches i both terms survive: the
        window max(0, k-p0) <= i <= min(k, p1) on the left and max(0,
        k-q1) <= i <= min(k, q0) on the right.  Each window is cut to the
        branches the other side reaches before an entry is built, so no
        pair costs more than the branches it survives, and sides whose
        windows never meet (x0^a against x0^b at k > 0) cost none.

        Each term of that sum, and by Vandermonde's identity w itself, is
        at most (a)_k (b)_k for the degrees a, b in names, so at most
        2^bits for bits = arith.falling_bits(a, k) + falling_bits(b, k).
        arith.check_cap holds each call, in 30-bit limbs, bits // 30 + 1
        for each entry and each product of two: before any entry is built,
        the bits of one weight and the limbs of the entries of every window
        left once both sides are cut; then, pair by pair, the limbs of the
        products summed so far, and the term pairs of each pair of groups
        before it is multiplied.  a and b must share a registry.  See
        _OmegaTable for how a pair of groups is multiplied once, however
        many k weigh it."""
        return _OmegaTable(a, b, names, top)

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
        acc = _multiply_into({}, self.terms.items(), other.terms.items())
        bound = self.bound + other.bound if acc else 0
        return Poly._trusted(self.registry, _settle(acc), bound)

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
        each (var, times) of orders, in one map_exponents pass over the
        terms.

        Every name is resolved, and every count checked, before a zero count
        is dropped; a name given twice adds its counts.  d^t/dx^t x^k is
        k!/(k-t)! x^(k-t), so a term's factor is one falling factorial per
        variable, or 0, with no factorial taken, when some exponent is below
        its count; it is computed once per distinct pattern of the
        differentiated exponents."""
        counts = {}  # name -> times
        for var, times in orders:
            if times < 0:
                raise ValueError("negative differentiation count")
            self.registry.index(var)
            counts[var] = counts.get(var, 0) + times
        names = [var for var, times in counts.items() if times]
        if not names:
            return self
        times = [counts[var] for var in names]

        def lower(exps):
            if any(e < t for e, t in zip(exps, times)):
                return 0, None
            f = 1
            for e, t in zip(exps, times):
                f *= perm(e, t)
            return f, tuple([e - t for e, t in zip(exps, times)])

        return self.map_exponents(names, lower)

    def map_exponents(self, names, rule):
        """The sum of w c m' over the terms c m, where (w, image) = rule(p)
        for the tuple p of m's exponents in names, and m' is m with those
        exponents replaced by the tuple image; a term with w = 0 drops out,
        its image unread.  rule is called once per distinct p, in one pass
        over the terms."""
        shifts = [_W * self.registry.index(n) for n in names]
        fields = sum(_MASK << s for s in shifts)
        moves = {}  # p's fields -> (w, what adding to a key moves it to image)
        bound = self.bound
        out = {}
        get = out.get
        for key, c in self.terms.items():
            pattern = key & fields
            move = moves.get(pattern)
            if move is None:
                w, image = rule(tuple([(pattern >> s) & _MASK for s in shifts]))
                move = (0, 0)
                if w:
                    if min(image, default=0) < 0:
                        raise ValueError(f"negative exponent in {image}")
                    bound = max(bound, max(image, default=0))
                    move = (w, sum(e << s for e, s in zip(image, shifts)) - pattern)
                moves[pattern] = move
            w, step = move
            if w:
                out[key + step] = get(key + step, 0) + c * w
        return Poly._trusted(self.registry, _settle(out), bound)

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


def kronecker_pack(values, width) -> int:
    """sum_n values[n] 2^(width*n) for a list of ints, negative ones
    included: the inverse of kronecker_digits on digits it can return.

    The list is packed in halves, the high half shifted once, down to runs
    of at most _DIGIT_RUN entries, which are packed one at a time; so the
    work grows with the bits times their log, not with their square."""
    n = len(values)
    if n > _DIGIT_RUN:
        mid = n >> 1
        high = kronecker_pack(values[mid:], width)
        return kronecker_pack(values[:mid], width) + (high << mid * width)
    value = 0
    for c in reversed(values):
        value = (value << width) + c
    return value


def _multiply_into(acc, left, right):
    """acc, with c * d added at key j + k for every (j, c) of left and
    (k, d) of right, two sized iterables; the shorter one is the outer
    loop."""
    outer, inner = (left, right) if len(left) <= len(right) else (right, left)
    get = acc.get
    for ka, ca in outer:
        for kb, cb in inner:
            key = ka + kb
            acc[key] = get(key, 0) + ca * cb
    return acc


class _OmegaTable:
    """The table of Poly.omega_table.

    Each operand's terms are grouped once by their exponents in the
    names, Fraction coefficients scaled to ints by the lcm of their
    denominators, which every answer divides back out.  The first call
    that gives a pair of groups a nonzero weight multiplies the pair, once,
    through _multiply_into, and keeps the product packed into one int: its
    coefficient on the n-th monomial of the pair's output group (the two
    groups' exponents added) is balanced base-2^width digit n.  An output
    group numbers its monomials as products first reach them, so a number
    never changes and every packed product stays valid.  A call is one
    big-int sum of w * product per output group, decoded once by
    kronecker_digits; a group of one monomial is its own digit.

    width is the weight bits of top, plus the bits of |a|_1 |b|_inf, plus
    2.  A term of a meets at most one term of b in each output monomial,
    so while every |w| is at most 2^bits, no coefficient of an answer, and
    no digit of a product, reaches 2^bits |a|_1 |b|_inf, and the balanced
    digits never carry; a weight past it raises ArithmeticError."""

    __slots__ = (
        "registry", "shifts", "degrees", "bits", "width", "scale", "bound",
        "left", "right", "products", "outputs",
    )

    def __init__(self, a, b, names, top):
        registry = a.registry
        if b.registry is not registry:
            raise ValueError("registry mismatch in omega_table")
        self.registry = registry
        self.shifts = [_W * registry.index(n) for n in names]
        la, aterms = _integral(a.terms)
        lb, bterms = _integral(b.terms)
        self.scale = la * lb
        self.left = _grouped(aterms, self.shifts)
        self.right = _grouped(bterms, self.shifts)
        self.degrees = a.degree_in(names), b.degree_in(names)
        size = sum(map(abs, aterms.values())) * max(map(abs, bterms.values()), default=0)
        self.bits = self._bits(top)
        self.width = self.bits + size.bit_length() + 2
        self.bound = a.bound + b.bound
        # products[left group][right group] = (output group, packed product)
        self.products = [{} for _ in self.left]
        self.outputs = {}  # output group -> {key: number}, in number order

    def _bits(self, k):
        a, b = self.degrees
        return falling_bits(a, k) + falling_bits(b, k)

    def __call__(self, k):
        bits = self._bits(k)
        cap = size_cap()
        left = [(n, p, max(0, k - p[0]), min(k, p[1]) + 1) for n, (_, p, _) in enumerate(self.left)]
        right = [(n, q, max(0, k - q[1]), min(k, q[0]) + 1) for n, (_, q, _) in enumerate(self.right)]
        # the branches both operands reach: every window is cut to them, and
        # one left empty is dropped before any weight is built
        lo = max(min([w[2] for w in left], default=0), min([w[2] for w in right], default=0))
        hi = min(max([w[3] for w in left], default=0), max([w[3] for w in right], default=0))
        left = [(n, p, max(f, lo), min(e, hi)) for n, p, f, e in left if max(f, lo) < min(e, hi)]
        right = [(n, q, max(f, lo), min(e, hi)) for n, q, f, e in right if max(f, lo) < min(e, hi)]
        if not (left and right):
            left = right = []  # no pair is weighed, so no entry is built
        else:
            check_cap(bits, f"a pair weight could take {bits} bits", cap)
        # each entry, and each product l_i r_i summed into a weight, is at
        # most 2^bits: at most this many limbs
        limbs = bits // 30 + 1
        built = limbs * sum(e - f for side in (left, right) for _, _, f, e in side)
        check_cap(built, f"the pair weights would build {built} limbs", cap)
        scale = factorial(k) if right else 0
        left = [(n, f, e, [(-1) ** i * comb(p0, k - i) * comb(p1, i) for i in range(f, e)])
                for n, (p0, p1), f, e in left]
        right = [(n, f, e, [scale * perm(q0, i) * perm(q1, k - i) for i in range(f, e)])
                 for n, (q0, q1), f, e in right]
        # past the bits of k, the cap was misled; past those of top, the
        # digits would carry
        held = min(bits, self.bits)
        limit = 1 << held
        room = cap // limbs  # the weight products that fit the cap
        summed = 0  # weight products so far, one per branch two windows share
        sums = {}  # output group -> sum of w * packed product
        for ia, la, ha, va in left:
            products = self.products[ia]
            for ib, lb, hb, vb in right:
                lo = la if la > lb else lb
                hi = ha if ha < hb else hb
                if lo >= hi:
                    continue
                summed += hi - lo
                if summed > room:
                    break
                if hi - lo == 1:
                    w = va[lo - la] * vb[lo - lb]
                else:
                    w = sum(map(mul, va[lo - la : hi - la], vb[lo - lb : hi - lb]))
                if not w:
                    continue
                if not -limit <= w <= limit:
                    raise ArithmeticError(f"weight {w} is past 2^{held}")
                product = products.get(ib)
                if product is None:
                    product = self._multiply(ia, ib, cap)
                group, packed = product
                sums[group] = sums.get(group, 0) + w * packed
            if summed > room:
                break
        summed *= limbs
        check_cap(summed, f"the pair sums reach {summed} limbs of weight products", cap)
        drop = sum(k << s for s in self.shifts)
        width, outputs = self.width, self.outputs
        out = {}
        for group, total in sums.items():
            if total:
                index = outputs[group]
                digits = kronecker_digits(total, width, len(index)) if len(index) > 1 else (total,)
                out.update({key - drop: c for key, c in zip(index, digits) if c})
        if self.scale != 1:
            out = {key: Fraction(c, self.scale) for key, c in out.items()}
        return Poly._trusted(self.registry, out, self.bound if out else 0)

    def _multiply(self, ia, ib, cap):
        # the (output group, packed product) of a pair of groups, kept
        (ga, _, ta), (gb, _, tb) = self.left[ia], self.right[ib]
        pairs = len(ta) * len(tb)
        check_cap(pairs, f"a pair of coefficient groups would multiply {pairs} term pairs", cap)
        group = ga + gb
        index = self.outputs.setdefault(group, {})
        product = _multiply_into({}, ta, tb)
        # a monomial new to the group takes the next number; zeros past the
        # numbers in use leave the packed int as it is
        digits = [0] * (len(index) + len(product))
        for key, c in product.items():
            digits[index.setdefault(key, len(index))] = c
        entry = self.products[ia][ib] = (group, kronecker_pack(digits, self.width))
        return entry


def _integral(terms):
    """(m, terms times m), m the lcm of the denominators of their
    coefficients: terms itself when they are all ints."""
    if all(type(c) is int for c in terms.values()):
        return 1, terms
    m = lcm(*[c.denominator for c in terms.values()])
    return m, {key: (c * m).numerator for key, c in terms.items()}


def _grouped(terms, shifts) -> list:
    """(fields, p, [(key, coefficient), ...]) per tuple p of the exponents
    of terms in the fields at shifts: those fields of the keys, p, and the
    terms with those exponents."""
    fields = sum(_MASK << s for s in shifts)
    groups = {}
    for key, c in terms.items():
        group = groups.get(key & fields)
        if group is None:
            groups[key & fields] = [(key, c)]
        else:
            group.append((key, c))
    return [(g, tuple([(g >> s) & _MASK for s in shifts]), group) for g, group in groups.items()]


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
