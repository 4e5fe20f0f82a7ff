"""Constructors for named graph families and exhaustive enumeration.

The five classic constructors return canonical representatives so that
repeated runs print identical labels.  Caterpillars, spiders, and disjoint
unions keep their natural construction labels (spine first, center first,
blocks in order), which the sequence and deck machinery rely on.
"""

from __future__ import annotations

from functools import lru_cache

from .caterpillar import CaterpillarSeq
from .graphs import (
    MAX_VERTICES,
    Graph,
    GraphError,
    _classes,
    canonical_graph,
    certificate_graph,
    parse_graph6,
)

__all__ = [
    "path",
    "star",
    "complete",
    "complete_bipartite",
    "cycle",
    "disjoint_union",
    "graph_union",
    "caterpillar_graph",
    "spider",
    "enumerate_trees",
    "enumerate_graphs",
    "parse_family_spec",
    "resolve_graph_input",
]

MAX_TREE_N = 12
MAX_GRAPH_N = 8


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs at least one vertex")
    return canonical_graph(Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)]))


def star(t: int) -> Graph:
    """K_{1,t}: one center and t leaves."""
    if t < 1:
        raise GraphError("star needs at least one edge")
    return canonical_graph(Graph.from_edges(t + 1, [(0, i) for i in range(1, t + 1)]))


def complete(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs at least one vertex")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return canonical_graph(Graph.from_edges(n, edges))


def complete_bipartite(p: int, q: int) -> Graph:
    if p < 1 or q < 1:
        raise GraphError("complete bipartite parts must be nonempty")
    edges = [(i, p + j) for i in range(p) for j in range(q)]
    return canonical_graph(Graph.from_edges(p + q, edges))


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least three vertices")
    return canonical_graph(Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]))


def graph_union(*graphs: Graph) -> Graph:
    """Disjoint union, blocks keeping their internal labels in order."""
    if not graphs:
        raise GraphError("union of nothing")
    total = sum(g.n for g in graphs)
    if total > MAX_VERTICES:
        raise GraphError(f"union on {total} vertices exceeds cap {MAX_VERTICES}")
    rows = []
    offset = 0
    for g in graphs:
        rows.extend(row << offset for row in g.rows)
        offset += g.n
    return Graph._raw(total, tuple(rows))


def disjoint_union(k: int, h: Graph) -> Graph:
    """k disjoint copies of h."""
    if k < 1:
        raise GraphError("need at least one copy")
    return graph_union(*([h] * k))


def caterpillar_graph(seq) -> Graph:
    """Spine path v_1..v_n with a_i pendant leaves at v_i."""
    s = seq if isinstance(seq, CaterpillarSeq) else CaterpillarSeq(seq)
    a = s.a
    k = len(a)
    total = k + sum(a)
    if total > MAX_VERTICES:
        raise GraphError(f"caterpillar on {total} vertices exceeds cap {MAX_VERTICES}")
    edges = [(i, i + 1) for i in range(k - 1)]
    nxt = k
    for i, cnt in enumerate(a):
        for _ in range(cnt):
            edges.append((i, nxt))
            nxt += 1
    return Graph.from_edges(total, edges)


def spider(lengths) -> Graph:
    """Paths of the given edge-lengths sharing one center vertex."""
    legs = list(lengths)
    if len(legs) < 3:
        raise GraphError("a spider needs at least three legs (two would be a path)")
    if any(l < 1 for l in legs):
        raise GraphError("spider legs must have at least one edge")
    total = 1 + sum(legs)
    if total > MAX_VERTICES:
        raise GraphError(f"spider on {total} vertices exceeds cap {MAX_VERTICES}")
    edges = []
    nxt = 1
    for leg in legs:
        prev = 0
        for _ in range(leg):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph.from_edges(total, edges)


# ---------------------------------------------------------------------------
# Exhaustive enumeration, one representative per isomorphism class
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _trees(n: int) -> tuple:
    if n == 1:
        return (Graph.from_edges(1, []),)
    certs = _classes(t.add_vertex([v]) for t in _trees(n - 1) for v in range(t.n))
    return tuple(map(certificate_graph, certs))


def enumerate_trees(n: int):
    """All free trees on n vertices, one per isomorphism class.

    Grown by attaching a leaf everywhere on every (n-1)-vertex tree and
    deduplicating by certificate; every tree has a leaf, so this reaches
    every class.
    """
    if not 1 <= n <= MAX_TREE_N:
        raise GraphError(f"tree enumeration supports 1..{MAX_TREE_N}, got {n}")
    yield from _trees(n)


@lru_cache(maxsize=None)
def _graphs(n: int) -> tuple:
    if n == 1:
        return (Graph.from_edges(1, []),)
    certs = _classes(
        g.add_vertex([v for v in range(n - 1) if nb >> v & 1])
        for g in _graphs(n - 1)
        for nb in range(1 << (n - 1))
    )
    return tuple(map(certificate_graph, certs))


def enumerate_graphs(n: int, m: int | None = None):
    """All graphs on n vertices (optionally with exactly m edges), one per
    isomorphism class; n is capped at oracle scale."""
    if not 1 <= n <= MAX_GRAPH_N:
        raise GraphError(f"graph enumeration supports 1..{MAX_GRAPH_N}, got {n}")
    for g in _graphs(n):
        if m is None or g.m == m:
            yield g


# ---------------------------------------------------------------------------
# Family grammar:  P:n  S:n  K:n  Kpq:p,q  C:n  U:k*<spec>[+<spec>...]
#                  cat:a1,a2,...  spider:l1,l2,...
# ---------------------------------------------------------------------------

def _ints(text: str) -> list:
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise GraphError(f"expected comma-separated integers, got {text!r}") from None


def parse_family_spec(text: str) -> Graph:
    head, sep, rest = text.strip().partition(":")
    if not sep:
        raise GraphError(f"family spec needs 'name:args', got {text!r}")
    if head == "P":
        return path(int(rest))
    if head == "S":
        return star(int(rest))
    if head == "K":
        return complete(int(rest))
    if head == "Kpq":
        p, q = _ints(rest)
        return complete_bipartite(p, q)
    if head == "C":
        return cycle(int(rest))
    if head == "cat":
        return caterpillar_graph(_ints(rest))
    if head == "spider":
        return spider(_ints(rest))
    if head == "U":
        blocks = []
        for term in rest.split("+"):
            count, mul, inner = term.partition("*")
            if mul:
                k = int(count)
                if not 1 <= k <= MAX_VERTICES:
                    raise GraphError(f"union count must be in 1..{MAX_VERTICES}, got {k}")
                blocks.extend([parse_family_spec(inner)] * k)
            else:
                blocks.append(parse_family_spec(term))
        return graph_union(*blocks)
    raise GraphError(f"unknown family {head!r}")


_FAMILY_HEADS = {"P", "S", "K", "Kpq", "C", "U", "cat", "spider"}


def resolve_graph_input(text: str) -> Graph:
    """Parse either family-grammar text or a graph6 string."""
    head = text.strip().partition(":")[0]
    if head in _FAMILY_HEADS:
        return parse_family_spec(text)
    return parse_graph6(text)
