"""In-memory span recorder and the call-site wrappers of the traced run.

A span is (name, start, end, parent).  Spans are kept in flat arrays until
the run ends, then folded into per-name call counts and self times.  A
span's self time is its duration minus the part of that interval its
child spans cover.

``instrument`` wraps the public functions of every semivar layer where
their callers look them up (module globals, class attributes, the claim
registry and the claims module's cached accessors) and returns a
``Patches`` object whose ``restore`` puts every original back.  Nothing
in ``src/`` changes.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from array import array
from collections import Counter

#: public functions timed per layer, by module
FUNCTIONS = {
    "enumeration": ("enumerate_semigroups", "canonical_form"),
    "core": ("build_semigroup", "adjoin_identity"),
    "relations": ("green", "star", "tilde", "join", "meet"),
    "variants": ("variant", "p_sets"),
    "congruences": (
        "all_congruences", "principal_congruence", "quotient", "are_isomorphic",
        "u_translate_hom", "induced_subsemigroup", "is_fundamental",
    ),
    "orders": ("natural_leq", "variant_leq", "variant_idempotent_leq"),
    "sgt": ("inline_table", "parse_inline"),
    "runner": ("run_corpus",),
    "cli": ("main",),
}

#: methods and classmethods timed per layer: (module, class, attribute)
METHODS = (
    ("relations", "Equivalence", "from_keys"),
    ("report", "ClaimResult", "sort_key"),
    ("report", "Report", "dumps"),
    ("report", "Report", "loads"),
)

#: the claims module's lru_cache accessors and the kernel each one caches.
#: The last three are plain functions that call their kernel through a
#: module attribute, so the kernel's own wrapper already sees the miss.
CACHED_ACCESSORS = {
    "_green": "relations.green",
    "_star": "relations.star",
    "_idem": "core.idempotents",
    "_natural": "orders.natural_leq",
    "_abundant": "relations.is_abundant",
    "_variant": None,
    "_tilde": None,
    "_psets": None,
}

#: modules whose callers of build_semigroup are counted separately
BUILD_CALLERS = ("enumeration", "variants", "congruences", "core", "sgt")


class Recorder:
    """Spans in four parallel arrays; a span's index is its id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.counters: Counter = Counter()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.start)

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a finished span directly and return its id."""
        idx = len(self.start)
        self.name_of.append(self.name_id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return idx

    def wrap(self, name, fn, on_return=None, count_caller=None):
        """A wrapper that records one span per call of fn.

        on_return(result, args) runs after the call; count_caller is a
        counter prefix under which the calling module is tallied.
        """
        nid = self.name_id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        clock = time.perf_counter
        counters = self.counters
        rec = self

        def wrapper(*args, **kwargs):
            if count_caller is not None:
                module = sys._getframe(1).f_globals.get("__name__", "?")
                counters[count_caller + module.rpartition(".")[2]] += 1
            idx = len(start)
            name_of.append(nid)
            parent.append(rec.current)
            end.append(0.0)
            prev = rec.current
            rec.current = idx
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                rec.current = prev
            if on_return is not None:
                on_return(result, args)
            return result

        return functools.update_wrapper(wrapper, fn)

    def wrap_generator(self, name, fn, counter):
        """Records one span per step of the generator fn returns and
        counts the items it yields under counter."""
        nid = self.name_id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        clock = time.perf_counter
        counters = self.counters
        rec = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = len(start)
                name_of.append(nid)
                parent.append(rec.current)
                end.append(0.0)
                prev = rec.current
                rec.current = idx
                start.append(clock())
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    end[idx] = clock()
                    rec.current = prev
                counters[counter] += 1
                yield item

        return functools.update_wrapper(wrapper, fn)

    def wrap_cached(self, kernel_name, cached):
        """Wrap an lru_cache object whose kernel the recorder cannot reach.

        A call that misses the cache runs the kernel, so its span is kept
        under the kernel's name; a hit records nothing.
        """
        nid = self.name_id(kernel_name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        clock = time.perf_counter
        rec = self

        def wrapper(*args):
            misses = cached.cache_info().misses
            idx = len(start)
            name_of.append(nid)
            parent.append(rec.current)
            end.append(0.0)
            prev = rec.current
            rec.current = idx
            start.append(clock())
            try:
                return cached(*args)
            finally:
                end[idx] = clock()
                rec.current = prev
                if cached.cache_info().misses == misses and idx == len(start) - 1:
                    for column in (name_of, parent, start, end):
                        column.pop()

        return functools.update_wrapper(wrapper, cached)

    def summarize(self) -> dict[str, tuple[int, float]]:
        """{name: (calls, self seconds)} over every recorded span.

        Children are folded into their parent's covered interval in start
        order, so overlapping children are counted once and the part of a
        child outside its parent is not counted at all.
        """
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        order = range(n)
        if any(start[i] > start[i + 1] for i in range(n - 1)):
            order = sorted(order, key=start.__getitem__)
        covered = array("d", bytes(8 * n))
        frontier = array("d", start)
        for i in order:
            p = parent[i]
            if p < 0:
                continue
            lo = max(start[i], frontier[p])
            hi = min(end[i], end[p])
            if hi > lo:
                covered[p] += hi - lo
                frontier[p] = hi
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            nid = self.name_of[i]
            calls[nid] += 1
            self_s[nid] += (end[i] - start[i]) - covered[i]
        return {
            name: (calls[nid], self_s[nid])
            for nid, name in enumerate(self.names)
        }


class Patches:
    """Every replaced binding, so that restore() can put it back."""

    def __init__(self) -> None:
        self._undo: list[tuple] = []

    def set(self, owner, name: str, value) -> None:
        """setattr on a module or class, remembering the old binding."""
        self._undo.append((setattr, owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def set_item(self, mapping: dict, key, value) -> None:
        self._undo.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def restore(self) -> None:
        while self._undo:
            put, owner, name, old = self._undo.pop()
            put(owner, name, old)


def _semivar_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "semivar" or name.startswith("semivar."))
    ]


def _rebind_everywhere(patches: Patches, original, wrapper) -> None:
    """Point every semivar module global that names original at wrapper."""
    for mod in _semivar_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                patches.set(mod, key, wrapper)


def instrument(rec: Recorder) -> Patches:
    """Wrap every traced call site of the imported semivar package."""
    import semivar.claims as claims
    import semivar.cli  # noqa: F401 - the CLI's globals are call sites too

    patches = Patches()
    try:
        _instrument(rec, patches, claims)
    except BaseException:
        patches.restore()
        raise
    return patches


def _instrument(rec: Recorder, patches: Patches, claims) -> None:
    modules = {mod.__name__.rpartition(".")[2]: mod for mod in _semivar_modules()}

    for layer, names in FUNCTIONS.items():
        mod = modules[layer]
        for name in names:
            original = getattr(mod, name)
            span = f"{layer}.{name}"
            if span == "core.build_semigroup":
                wrapper = rec.wrap(span, original,
                                   count_caller="core.build_semigroup.calls_from.")
            elif span == "enumeration.enumerate_semigroups":
                wrapper = rec.wrap(span, original, on_return=_count_tables(rec))
            else:
                wrapper = rec.wrap(span, original)
            _rebind_everywhere(patches, original, wrapper)

    enumeration = modules["enumeration"]
    original = enumeration.iter_corpus
    _rebind_everywhere(patches, original, rec.wrap_generator(
        "enumeration.iter_corpus", original, "enumeration.iter_corpus.yielded"))

    for layer, cls_name, attr in METHODS:
        cls = getattr(modules[layer], cls_name)
        descriptor = cls.__dict__[attr]
        span = f"{layer}.{cls_name}.{attr}"
        on_return = None
        if span == "report.Report.dumps":
            on_return = _count_bytes(rec, lambda result, args: result)
        elif span == "report.Report.loads":
            on_return = _count_bytes(rec, lambda result, args: args[1])
        if isinstance(descriptor, classmethod):
            inner = rec.wrap(span, descriptor.__func__, on_return=on_return)
            patches.set(cls, attr, classmethod(inner))
        else:
            patches.set(cls, attr, rec.wrap(span, descriptor, on_return=on_return))

    for accessor, kernel in CACHED_ACCESSORS.items():
        if kernel is not None:
            patches.set(claims, accessor,
                        rec.wrap_cached(kernel, getattr(claims, accessor)))

    for cid, claim in list(claims.REGISTRY.items()):
        patches.set_item(claims.REGISTRY, cid, dataclasses.replace(
            claim,
            evaluate=rec.wrap(f"claims.eval.{cid}", claim.evaluate),
            recheck=rec.wrap(f"claims.recheck.{cid}", claim.recheck),
        ))


def _count_tables(rec: Recorder):
    def on_return(count, args):
        rec.counters["enumeration.tables_generated"] += count
    return on_return


def _count_bytes(rec: Recorder, text_of):
    def on_return(result, args):
        rec.counters["report.bytes"] += len(text_of(result, args).encode())
    return on_return


def cache_counts() -> dict[str, tuple[int, int]]:
    """{accessor: (hits, misses)} of the claims module's lru_caches."""
    import semivar.claims as claims

    out = {}
    for accessor in CACHED_ACCESSORS:
        info = getattr(claims, accessor).cache_info()
        out[accessor.lstrip("_")] = (info.hits, info.misses)
    return out
