"""Span tracing for the benchmark's traced run.

Tracer.install() wraps every public function of the invforge modules, a
few named private ones, and the Poly / CovariantExpr methods the layer
metrics name.  A function is replaced where it is defined and at every
module that imported it by name (cli.alpha_rank, covariant._omega_diagonal,
acceptance.CRITERIA, ...), so calls through any route are seen.
uninstall() puts every original object back.

Each call records one span (name id, parent span, start, end) in flat
arrays kept in memory; totals() reduces them once, after the traced
pass: self time is a span's duration minus the durations of its direct
children.  The counting hooks (product sizes, matrix shape) run as
"tracer.hook" spans of their own, children of the caller, so their cost
is taken out of the caller's self time.  Generator functions get no
span; they count the items they yield, and the time spent producing
those items belongs to whoever consumes them.
"""

import functools
import inspect
from array import array
from time import perf_counter_ns

MODULES = (
    "arith", "poly", "transvect", "closedform", "enumeration",
    "alphamap", "covariant", "plethysm", "acceptance", "cli",
)

# private functions traced as if public, under the name given
PRIVATE = {("transvect", "_omega_diagonal"): "transvect.omega_diagonal"}

# methods traced on their class: (module, class, attribute) -> span name
METHODS = {
    ("poly", "Poly", "__mul__"): "poly.mul",
    ("poly", "Poly", "__rmul__"): "poly.mul",
    ("poly", "Poly", "__add__"): "poly.add",
    ("poly", "Poly", "__radd__"): "poly.add",
    ("poly", "Poly", "__pow__"): "poly.pow",
    ("poly", "Poly", "differentiate"): "poly.differentiate",
    ("poly", "Poly", "substitute"): "poly.substitute",
    ("poly", "Poly", "lift"): "poly.lift",
    ("covariant", "CovariantExpr", "evaluate"): "covariant.evaluate",
}

HOOK = "tracer.hook"  # span name of the counting hooks; no metric reads it


def _entry_bits(x) -> int:
    if isinstance(x, int):
        return abs(x).bit_length()
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.names = []  # span name per id
        self.ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counters = {}
        self._stack = [-1]  # open spans; -1 is the root
        self._patched = []  # (owner, attribute, original)

    # -- counters ---------------------------------------------------------

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _after_mul(self, args, result):
        self_, other = args[0], args[1]
        if not hasattr(result, "terms"):
            return
        if hasattr(other, "terms"):
            self.count("poly.mul.pairs", len(self_.terms) * len(other.terms))
        coeffs = result.terms.values()
        self.count("poly.mul.terms_out", len(coeffs))
        self.count("poly.mul.fraction_terms", sum(1 for c in coeffs if type(c) is not int))

    def _before_exact_rank(self, args):
        entries = args[0]
        if not entries:
            return
        self.count("alphamap.cells", len(entries) * len(entries[0]))
        nnz = bits = 0
        for row in entries:
            for x in row:
                if x:
                    nnz += 1
                    bits = max(bits, _entry_bits(x))
        self.count("alphamap.nnz", nnz)
        self.counters["alphamap.entry_bits_max"] = max(
            self.counters.get("alphamap.entry_bits_max", 0), bits
        )

    def _after_census(self, args, result):
        if not result[3]:
            self.count("enumeration.n1_kept")

    def _after_set_s(self, args, result):
        self.count("covariant.set_S.size", len(result))

    # -- wrappers ---------------------------------------------------------

    def _name_id(self, name) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span_wrapper(self, fn, name, before=None, after=None):
        nid = self._name_id(name)
        hook_id = self._name_id(HOOK)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack

        def hook(fn, *args):
            # a leaf span under the caller: the hooks call nothing traced
            t0 = perf_counter_ns()
            fn(*args)
            t1 = perf_counter_ns()
            names.append(hook_id)
            parents.append(stack[-1])
            starts.append(t0)
            ends.append(t1)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                hook(before, args)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                hook(after, args, result)
            return result

        return wrapper

    def _generator_wrapper(self, fn, name):
        key = f"{name}.yielded"
        counters = self.counters
        counters.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counters[key] += 1
                yield item

        return wrapper

    def _wrap(self, fn, name):
        if inspect.isgeneratorfunction(fn):
            return self._generator_wrapper(fn, name)
        hooks = {
            "poly.mul": (None, self._after_mul),
            "alphamap.exact_rank": (self._before_exact_rank, None),
            "enumeration.component_census": (None, self._after_census),
            "covariant.set_S": (None, self._after_set_s),
        }
        before, after = hooks.get(name, (None, None))
        return self._span_wrapper(fn, name, before, after)

    # -- install / uninstall ------------------------------------------------

    def _set(self, owner, attr, value):
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, value)

    def install(self, package):
        """Wrap the traced functions of an imported invforge package."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {short: getattr(package, short) for short in MODULES}
        wrappers = {}  # id(original) -> wrapper; the originals stay alive in the modules
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                traced = PRIVATE.get((short, attr))
                if traced is None:
                    if attr.startswith("_") or not callable(obj) or isinstance(obj, type):
                        continue
                    if getattr(obj, "__module__", None) != mod.__name__:
                        continue
                    traced = f"{short}.{attr}"
                wrappers[id(obj)] = self._wrap(obj, traced)
        by_method = {}
        for (short, cls_name, attr), traced in METHODS.items():
            cls = getattr(modules[short], cls_name)
            fn = cls.__dict__[attr]
            if id(fn) not in by_method:
                by_method[id(fn)] = self._wrap(fn, traced)
            self._set(cls, attr, by_method[id(fn)])
        # every module attribute bound to a traced function, and every
        # module-level tuple of them, now points at the wrapper
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._set(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, tuple) and any(id(x) in wrappers for x in obj):
                    self._set(mod, attr, tuple(wrappers.get(id(x), x) for x in obj))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output -------------------------------------------------------------

    def totals(self) -> dict:
        """span_totals over every span recorded so far."""
        return span_totals(self.span_name, self.span_parent, self.span_start,
                           self.span_end, self.names)


def span_totals(names, parents, starts, ends, labels) -> dict:
    """Per span name: calls, inclusive seconds and self seconds.

    Self time of a span is its duration minus its direct children's
    durations; children never outlive their parent in one thread.
    """
    child = array("q", bytes(8 * len(names)))
    for i in range(len(names)):
        p = parents[i]
        if p >= 0:
            child[p] += ends[i] - starts[i]
    totals = {label: [0, 0, 0] for label in labels}
    for i in range(len(names)):
        entry = totals[labels[names[i]]]
        dur = ends[i] - starts[i]
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - child[i]
    return {
        label: {"calls": c, "total_s": tot / 1e9, "self_s": own / 1e9}
        for label, (c, tot, own) in totals.items()
    }
