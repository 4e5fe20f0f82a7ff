"""In-memory spans around reconkit's public functions, for the traced run.

``install`` wraps every public function of the layer modules at every
module binding.  The package imports names with ``from .graphs import ...``,
so patching only the defining module would miss most calls.  Each call
records a span (name, parent span, start, end) in flat arrays; nothing is
aggregated until ``summary`` runs after the timed phase.  A generator
function gets one span per resume, so a span never stays open across a
``yield``.  The wrappers stay installed for the life of the process, which
is one benchmark worker.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from itertools import combinations

LAYERS = ("graphs", "decks", "recon", "families", "caterpillar", "sweep", "store")


class Tracer:
    """Spans of one single-threaded process, kept in memory."""

    def __init__(self):
        self.names: list = []
        self.calls: list = []
        self.counts: dict = {}
        self.caches: dict = {}  # name -> cache_info of an lru-cached function
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = bytearray()  # 1 when no enclosing span has the same name
        self._open_by_name: list = []
        self._stack: list = []

    def name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self._open_by_name.append(0)
        return len(self.names) - 1

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outer.append(self._open_by_name[nid] == 0)
        self._open_by_name[nid] += 1
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._open_by_name[self.name[idx]] -= 1

    def add(self, key: str, value=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


def self_times(parent, start, end) -> list:
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest, so the children of a span are disjoint and
    their durations add up to the time they cover.
    """
    child = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    return [end[i] - start[i] - child[i] for i in range(len(start))]


def _pairs_tried(card, d=None) -> int:
    """Non-adjacent pairs that ``recon.extensions(card, d)`` turns into graphs."""
    degs = card.degrees()
    return sum(
        1
        for u, v in combinations(range(card.n), 2)
        if not card.has_edge(u, v) and (d is None or degs[u] + degs[v] == d)
    )


def _wrap(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    calls = tracer.calls

    if inspect.isgeneratorfunction(fn):
        def traced_gen(*args, **kwargs):
            calls[nid] += 1
            it = fn(*args, **kwargs)
            while True:
                idx = tracer.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                tracer.add(name + ".classes")
                yield item

        return traced_gen

    if hasattr(fn, "cache_info"):
        info = tracer.caches[name] = fn.cache_info

        def traced_cached(*args, **kwargs):
            calls[nid] += 1
            before = info().misses
            idx = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                if info().misses != before:
                    tracer.add(name + ".misses")
                    tracer.add(name + ".miss_s", tracer.end[idx] - tracer.start[idx])

        return traced_cached

    if name == "recon.extensions":
        def traced_extensions(*args, **kwargs):
            calls[nid] += 1
            idx = tracer.open(nid)
            try:
                found = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.add(name + ".pairs_tried", _pairs_tried(*args, **kwargs))
            tracer.add(name + ".distinct", len(found))
            return found

        return traced_extensions

    def traced(*args, **kwargs):
        calls[nid] += 1
        idx = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return traced


def install(tracer: Tracer) -> None:
    """Wrap each public function of every layer wherever a module binds it,
    plus ``decks.Deck.items``, whose re-sorting is a known hot spot."""
    mods = [importlib.import_module("reconkit")]
    mods += [importlib.import_module(f"reconkit.{m}") for m in LAYERS + ("cli",)]
    wrapped = {}
    for layer, mod in zip(LAYERS, mods[1:]):
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if callable(fn) and not inspect.isclass(fn):
                wrapped[id(fn)] = _wrap(tracer, f"{layer}.{attr}", fn)
    for mod in mods:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped:
                setattr(mod, attr, wrapped[id(value)])
    deck = importlib.import_module("reconkit.decks").Deck
    deck.items = _wrap(tracer, "decks.Deck.items", deck.items)


def summary(tracer: Tracer) -> dict:
    """Per function ``.calls``, ``.s`` (outermost spans only, so recursion
    is not counted twice) and ``.self_s``, plus the counters the wrappers
    kept, the final size of each lru cache and the ratios derived from them.
    """
    names, parent, start, end = tracer.names, tracer.parent, tracer.start, tracer.end
    total = [0.0] * len(names)
    own = [0.0] * len(names)
    candidates = [0] * len(names)
    enumerators = {i for i, n in enumerate(names) if n.startswith("families.enumerate_")}
    canon = names.index("graphs.canonical_form") if "graphs.canonical_form" in names else -1
    for i, s in enumerate(self_times(parent, start, end)):
        nid = tracer.name[i]
        own[nid] += s
        if tracer.outer[i]:
            total[nid] += end[i] - start[i]
        p = parent[i]
        if nid == canon and p >= 0 and tracer.name[p] in enumerators:
            candidates[tracer.name[p]] += 1
    out = {}
    for nid, name in enumerate(names):
        out[name + ".calls"] = tracer.calls[nid]
        out[name + ".s"] = total[nid]
        out[name + ".self_s"] = own[nid]
        if nid in enumerators:
            out[name + ".candidates"] = candidates[nid]
            out.setdefault(name + ".classes", 0)
    for key, value in tracer.counts.items():
        out[key] = value
    for name, info in tracer.caches.items():
        calls = out[name + ".calls"]
        out.setdefault(name + ".misses", 0)
        out.setdefault(name + ".miss_s", 0.0)
        out[name + ".hit_ratio"] = _ratio(calls - out[name + ".misses"], calls)
        out[name + ".cache_entries"] = info().currsize
    ext = "recon.extensions"
    out.setdefault(ext + ".pairs_tried", 0)
    out.setdefault(ext + ".distinct", 0)
    out[ext + ".yield_ratio"] = _ratio(out[ext + ".distinct"], out[ext + ".pairs_tried"])
    for nid in enumerators:
        name = names[nid]
        out[name + ".class_ratio"] = _ratio(out[name + ".classes"], out[name + ".candidates"])
    return out


def _ratio(part, whole) -> float:
    """part / whole, or 0.0 when nothing was attempted."""
    return part / whole if whole else 0.0
