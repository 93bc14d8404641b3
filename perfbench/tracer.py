"""In-memory span tracer that wraps the public callables of ultrafrac from outside.

Every wrapped call is accounted on a stack, so a module's self time is the time
of its calls minus the time of the wrapped calls they made into any module.
Calls become spans with a name, start, end and parent span.  A run makes
millions of calls to a few per-point primitives (the scalar ring in
``numerics``, point valuations and digit addresses in ``field``, table
evaluation, character phases), so those are kept as aggregate leaf spans:
one record per (name, parent span) with a count and a total time.  A call
nested directly inside an aggregate leaf of the same module is not accounted
separately (its time is that module's self time either way) but is still
counted.

Nothing in the library is edited: ``install`` rebinds module attributes and
class attributes, ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

MODULES = (
    "numerics",
    "field",
    "integrate",
    "functions",
    "operators",
    "fourier",
    "multidim",
    "funcfile",
    "cli",
)

# Per-point primitives recorded as aggregate leaf spans (besides all of numerics).
HOT = frozenset(
    {
        "field.valuation",
        "field.abs_exponent",
        "field.abs_value",
        "field.coset_digits",
        "field.digits_to_point",
        "field.point",
        "field.zero_point",
        "functions.TestFunction.evaluate",
        "functions.ExtendedFunction.evaluate",
        "functions.ExtendedFunction.tail_value_at_exponent",
        "integrate.profile_coset_integral",
        "integrate.profile_value",
        "fourier.fractional_part",
        "fourier.character_arg",
        "fourier.pairing_arg",
        "fourier.phase_value",
    }
)

# Scalar-ring arithmetic that counts as one value operation.
VALUE_OPS = tuple(
    f"numerics.NumericValue.{m}"
    for m in (
        "__add__",
        "__radd__",
        "__sub__",
        "__rsub__",
        "__mul__",
        "__rmul__",
        "__truediv__",
        "__rtruediv__",
        "__neg__",
        "pow_int",
    )
)
_BINARY_VALUE_OPS = frozenset(VALUE_OPS) - {"numerics.NumericValue.__neg__", "numerics.NumericValue.pow_int"}

_NUMERIC_DUNDERS = frozenset(
    {
        "__add__",
        "__radd__",
        "__sub__",
        "__rsub__",
        "__mul__",
        "__rmul__",
        "__truediv__",
        "__rtruediv__",
        "__neg__",
        "__abs__",
        "__float__",
        "__init__",
    }
)

_COSET_ENUMERATORS = ("field.enumerate_cosets", "field.sphere_coset_reps")


def _operand_exact(x) -> bool:
    if isinstance(x, (int, Fraction)):
        return True
    if isinstance(x, float):
        return False
    exact = getattr(x, "is_exact", None)
    if exact is None:  # an ExactScalar
        return True
    return bool(exact)


class Tracer:
    """Span recorder; ``install`` wraps ultrafrac, ``report`` summarizes."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        # individual spans, one entry per call, in four parallel columns
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        # aggregate leaf spans: (name index, parent span) -> [count, seconds]
        self.leaves: dict[tuple[int, int], list] = {}
        self._stack: list[list] = []
        self._current = -1
        self._patches: list[tuple[object, str, object]] = []
        self._field_caches: list = []
        self._cache_base = (0, 0)

    # -- recording -------------------------------------------------------

    def _index(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.incl.append(0.0)
        return len(self.names) - 1

    def _enter(self, idx: int, module: str, hot: bool) -> list:
        parent = self._current
        if hot:
            sid = -1
        else:
            sid = len(self.span_name)
            self.span_name.append(idx)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_parent.append(parent)
            self._current = sid
        frame = [idx, module, hot, sid, parent, 0.0, 0.0]
        self._stack.append(frame)
        frame[5] = perf_counter()
        if sid >= 0:
            self.span_start[sid] = frame[5]
        return frame

    def _exit(self, frame: list) -> None:
        t1 = perf_counter()
        idx, module, hot, sid, parent, t0, child = frame
        dur = t1 - t0
        self._stack.pop()
        self.self_s[module] += dur - child
        self.incl[idx] += dur
        if self._stack:
            self._stack[-1][6] += dur
        if sid >= 0:
            self.span_end[sid] = t1
            self._current = parent
        else:
            agg = self.leaves.get((idx, parent))
            if agg is None:
                self.leaves[(idx, parent)] = [1, dur]
            else:
                agg[0] += 1
                agg[1] += dur

    @contextmanager
    def span(self, name: str):
        """A benchmark-side span, the root of one op."""
        idx = self.names.index(name) if name in self.names else self._index(name)
        self.calls[idx] += 1
        frame = self._enter(idx, name.split(".", 1)[0], False)
        try:
            yield
        finally:
            self._exit(frame)

    # -- wrapping --------------------------------------------------------

    def _wrapper(self, fn, name: str, module: str):
        idx = self._index(name)
        hot = module == "numerics" or name in HOT
        calls = self.calls
        stack = self._stack
        enter, exit_ = self._enter, self._exit
        post = self._post_hook(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[idx] += 1
            if stack and stack[-1][2] and stack[-1][1] == module:
                result = fn(*args, **kwargs)
            else:
                frame = enter(idx, module, hot)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    exit_(frame)
            if post is not None:
                result = post(args, result)
            return result

        return wrapper

    def _post_hook(self, name: str):
        counters = self.counters
        if name in _BINARY_VALUE_OPS:

            def demotion(args, result):
                if len(args) == 2 and not result.is_exact and _operand_exact(args[0]) and _operand_exact(args[1]):
                    counters["numerics.demotions"] += 1
                return result

            return demotion
        if name in _COSET_ENUMERATORS:

            def count_len(args, result):
                counters["field.cosets_enumerated"] += len(result)
                return result

            return count_len
        if name == "field.enumerate_digits":

            def count_iter(args, result):
                for item in result:
                    counters["field.cosets_enumerated"] += 1
                    yield item

            return count_iter
        return None

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the public callables of the nine modules and every reference to them."""
        package = importlib.import_module("ultrafrac")
        mods = {m: importlib.import_module(f"ultrafrac.{m}") for m in MODULES}
        every = [package, importlib.import_module("ultrafrac.errors"), *mods.values()]
        replaced: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = (obj, self._wrapper(obj, f"{short}.{attr}", short))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, short)
        for mod in every:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        self._field_caches = [fn for fn in vars(mods["field"]).values() if callable(getattr(fn, "cache_info", None))]
        cli = mods["cli"]
        main = getattr(cli, "main", None)
        for cmd_name, cmd in getattr(main, "commands", {}).items():
            self._patch(cmd, "callback", self._wrapper(cmd.callback, f"cli.{cmd_name}", "cli"))
        self._cache_base = self._cache_totals()

    def _wrap_class(self, cls, short: str) -> None:
        for attr, obj in list(vars(cls).items()):
            public = not attr.startswith("_") or (short == "numerics" and attr in _NUMERIC_DUNDERS)
            if not public:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                self._patch(cls, attr, self._wrapper(obj, name, short))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._patch(cls, attr, type(obj)(self._wrapper(obj.__func__, name, short)))

    def uninstall(self) -> None:
        """Undo every patch and fold the field cache statistics into the counters."""
        hits, misses = self._cache_totals()
        self.counters["field.cache_hits"] += hits - self._cache_base[0]
        self.counters["field.cache_misses"] += misses - self._cache_base[1]
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _cache_totals(self) -> tuple[int, int]:
        """Hits and misses summed over every lru_cache in field."""
        infos = [fn.cache_info() for fn in self._field_caches]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    # -- output ----------------------------------------------------------

    def report(self) -> dict:
        """Mergeable summary: module self times, per-name calls and inclusive times, counters."""
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, float] = defaultdict(float)
        for name, n, t in zip(self.names, self.calls, self.incl):
            calls[name] += n
            incl[name] += t
        return {
            "self_s": dict(self.self_s),
            "calls": dict(calls),
            "incl_s": dict(incl),
            "counters": dict(self.counters),
        }

    def spans(self) -> dict:
        """Every span, in columns: name index, start, end, parent (-1 for a root)."""
        return {
            "names": self.names,
            "span_name": self.span_name.tolist(),
            "span_start": self.span_start.tolist(),
            "span_end": self.span_end.tolist(),
            "span_parent": self.span_parent.tolist(),
            "leaves": [[i, parent, n, t] for (i, parent), (n, t) in self.leaves.items()],
        }


def merge_reports(reports: list[dict]) -> dict:
    out: dict = {"self_s": defaultdict(float), "calls": defaultdict(int), "incl_s": defaultdict(float), "counters": defaultdict(int)}
    for r in reports:
        for key in out:
            for name, v in r.get(key, {}).items():
                out[key][name] += v
    return {k: dict(v) for k, v in out.items()}


def write_spans(path, runs: list[dict]) -> None:
    """Write the spans of one or more traced processes as one JSON document."""
    path.write_text(json.dumps({"processes": runs}, separators=(",", ":")))
