"""Constructors for named graph families and exhaustive enumeration.

The five classic constructors return canonical representatives so that
repeated runs print identical labels.  Caterpillars, spiders, and disjoint
unions keep their natural construction labels (spine first, center first,
blocks in order), which the sequence and deck machinery rely on.

Both enumerators yield one canonical graph per isomorphism class in
increasing certificate order.  Graphs come from canonical augmentation,
which labels only the candidate children whose new vertex has least
degree and the greatest vertex invariant, read from the child's rows
before it is labeled; trees come from level sequences, which make each tree
exactly once, so each tree is labeled once.
"""

from __future__ import annotations

from functools import lru_cache

from .caterpillar import CaterpillarSeq
from .graphs import (
    MAX_VERTICES,
    Certificate,
    Graph,
    GraphError,
    _bits,
    _integer,
    _least_leaf_code,
    _orbit,
    _require_int,
    _require_size,
    canonical_form,
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

MAX_TREE_N = 16
MAX_GRAPH_N = 8


def path(n: int) -> Graph:
    _require_size(n)
    return canonical_graph(Graph.from_edges(n, ((i, i + 1) for i in range(n - 1))))


def star(t: int) -> Graph:
    """K_{1,t}: one center and t leaves."""
    _require_int(t, 1, MAX_VERTICES - 1, "star leaf count")
    return canonical_graph(Graph.from_edges(t + 1, ((0, i) for i in range(1, t + 1))))


def complete(n: int) -> Graph:
    _require_size(n)
    edges = ((i, j) for i in range(n) for j in range(i + 1, n))
    return canonical_graph(Graph.from_edges(n, edges))


def complete_bipartite(p: int, q: int) -> Graph:
    _require_int(p, 1, MAX_VERTICES - 1, "complete bipartite part p")
    _require_int(q, 1, MAX_VERTICES - 1, "complete bipartite part q")
    _require_size(p + q)
    edges = ((i, p + j) for i in range(p) for j in range(q))
    return canonical_graph(Graph.from_edges(p + q, edges))


def cycle(n: int) -> Graph:
    _require_int(n, 3, MAX_VERTICES, "cycle length")
    return canonical_graph(Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n))))


def graph_union(*graphs: Graph) -> Graph:
    """Disjoint union, blocks keeping their internal labels in order."""
    total = sum(g.n for g in graphs)
    _require_size(total)
    rows = []
    offset = 0
    for g in graphs:
        rows.extend(row << offset for row in g.rows)
        offset += g.n
    return Graph._raw(total, tuple(rows))


def disjoint_union(k: int, h: Graph) -> Graph:
    """k disjoint copies of h."""
    _require_int(k, 1, MAX_VERTICES, "copy count")
    return graph_union(*([h] * k))


def caterpillar_graph(seq) -> Graph:
    """Spine path v_1..v_n with a_i pendant leaves at v_i."""
    s = seq if isinstance(seq, CaterpillarSeq) else CaterpillarSeq(seq)
    a = s.a
    k = len(a)
    total = k + sum(a)
    _require_size(total)
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
    for leg in legs:
        _require_int(leg, 1, MAX_VERTICES - 1, "spider leg")
    total = 1 + sum(legs)
    _require_size(total)
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
def _census(n: int) -> tuple:
    """(certificate, graph, generators of Aut(graph)) of every graph on n
    vertices, one per isomorphism class, in increasing certificate order:
    the child the census built, in its own labels, and its search's
    generators (bytes: n <= 32).

    Canonical augmentation (McKay, Isomorph-free exhaustive generation,
    1998): each class on n - 1 vertices gets a new vertex joined to one
    vertex set per orbit of its automorphism group.  A vertex's invariant
    is the sorted tuple of its neighbours' degrees.  The canonical vertex
    of a child is the last in canonical order among its vertices of least
    degree with the greatest invariant; both choices are invariant under
    isomorphism, so the rule picks one vertex orbit.  A child is kept when
    the new vertex is in that orbit, so each class is made exactly once:
    from the class of the child minus that vertex.  A candidate child's
    rows are built once, from the parent's, and degrees and invariants are
    read through them, so a child whose new vertex lacks the least degree
    or the greatest invariant is dropped before it is labeled.
    """
    if n == 1:
        return ((Certificate(1, 0, 0), Graph.from_edges(1, []), ()),)
    new = n - 1
    found = []
    for pcert, parent, pgens in _census(new):
        rows = parent.rows
        degs = parent.degrees()
        least = min(degs)
        mins = sum(1 << v for v, d in enumerate(degs) if d == least)
        # as in nauty's geng, before labeling: the new vertex has least degree,
        # so at most the old least, or one more if joined to all of that degree
        masks = [
            nb for nb in range(1 << new) if nb.bit_count() <= least + (nb & mins == mins)
        ]
        # each generator also permutes masks (degrees are invariant), imaged
        # lowest bit first: dropping it keeps a mask in the list, which ascends
        images = []
        for p in pgens:
            low_image = {1 << v: 1 << p[v] for v in range(new)}
            img = [0] * (1 << new)
            for x in masks[1:]:
                img[x] = img[x & x - 1] | low_image[x & -x]
            images.append(img)
        seen = set()
        for nb in masks:
            if nb in seen:
                continue
            seen |= _orbit(images, (), [nb])
            low = nb.bit_count()
            # the child's rows and degrees, and the invariants of its
            # least-degree vertices
            crows = [row | (nb >> v & 1) << new for v, row in enumerate(rows)]
            crows.append(nb)
            cdegs = [row.bit_count() for row in crows]
            top = sorted(cdegs[u] for u in _bits(nb))
            ties = [new]
            for v, d in enumerate(cdegs[:new]):
                if d == low:
                    inv = sorted(cdegs[u] for u in _bits(crows[v]))
                    if inv > top:
                        break  # a least-degree vertex beats the new one
                    if inv == top:
                        ties.append(v)
            else:  # none does: label the child
                child = Graph._raw(n, tuple(crows))
                code, order, _path, gens = _least_leaf_code(child)
                canon = next(v for v in reversed(order) if v in ties)
                if canon == new or new in _orbit(gens, (), [canon]):
                    cert = Certificate(n, pcert.m + low, code)
                    found.append((cert, child, tuple(dict.fromkeys(map(bytes, gens)))))
    return tuple(sorted(found, key=lambda entry: entry[0]))


def _next_rooted(levels: list, p: int) -> None:
    """Beyer & Hedetniemi's successor (Constant time generation of rooted
    trees, 1980), in place: the greatest level sequence that agrees with
    ``levels`` before p and is less at p.  Vertex p moves one level up,
    beside its parent q, and every later vertex copies the level of the
    vertex p - q places before it, so the tail repeats q's subtree."""
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    for i in range(p, len(levels)):
        levels[i] = levels[i - p + q]


def _level_sequences(n: int):
    """One level sequence per free tree on n vertices: levels[v] is v's
    depth below the root, vertex 0, and v's parent is the last vertex
    before v one level up.  No tree is labeled.

    Wright, Richmond, Odlyzko & McKay (Constant time generation of free
    trees, 1986): rooted trees come in decreasing lexicographic order of
    their canonical sequences, in which each subtree comes before its
    smaller siblings, from the path rooted at its centre down to the star.
    A tree is kept when its root is a centre and, for two centres, the
    right one.  Split it into the root's first subtree F, the deepest, and
    the rest R, the root with its other subtrees: F may reach at most one
    level deeper than R, and when it does, the edge to F is the central
    edge, and the root is kept only if F is smaller than R, or as large
    with F's sequence at most R's.  While F stays the same, R keeps its
    size and every later R is lower in the order and no deeper, so a
    rejected tree jumps to the next F.  A jump that leaves the root one
    subtree ends the sequence in the shortest R that makes the root a
    centre: a path as deep as F.
    """
    if n <= 2:
        yield tuple(range(n))
        return
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while True:
        split = next((v for v in range(2, n) if levels[v] == 1), n)
        first = [level - 1 for level in levels[1:split]]
        rest = [0] + levels[split:]
        if max(rest) > max(first) or (
            max(rest) == max(first) and (len(first), first) <= (len(rest), rest)
        ):
            yield tuple(levels)
            p = max((v for v in range(n) if levels[v] > 1), default=0)
            if p == 0:
                return  # the star
            _next_rooted(levels, p)
        else:
            p = split - 1
            inside = levels[p] > 2  # the copied tail stays below F
            _next_rooted(levels, p)
            if inside:
                depth = max(levels)
                levels[n - depth:] = range(1, depth + 1)


def _tree(levels) -> Graph:
    """The tree of a level sequence, in its vertex order."""
    n = len(levels)
    rows = [0] * n
    last = [0] * n  # last[d]: the latest vertex so far at depth d
    for v in range(1, n):
        u = last[levels[v] - 1]
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        last[levels[v]] = v
    return Graph._raw(n, tuple(rows))


def enumerate_trees(n: int):
    """All free trees on n vertices, one canonical graph per isomorphism
    class, in increasing certificate order.  Each tree of a level sequence
    is labeled once, by ``canonical_form``, which also stores its shape and
    automorphism group, so its canonical graph is found without a search."""
    _require_int(n, 1, MAX_TREE_N, "tree enumeration n")
    for cert in sorted(canonical_form(t) for t in map(_tree, _level_sequences(n))):
        yield certificate_graph(cert)


def enumerate_graphs(n: int, m: int | None = None):
    """All graphs on n vertices (optionally with exactly m edges), one
    canonical graph per isomorphism class in increasing certificate order;
    n is capped at oracle scale, and m is an int in 0..n(n-1)/2."""
    _require_int(n, 1, MAX_GRAPH_N, "graph enumeration n")
    if m is not None:
        _require_int(m, 0, n * (n - 1) // 2, "edge count")
    for cert, _g, _gens in _census(n):
        if m is None or cert.m == m:
            yield certificate_graph(cert)


# ---------------------------------------------------------------------------
# Family grammar:  P:n  S:n  K:n  Kpq:p,q  C:n  U:k*<spec>[+<spec>...]
#                  cat:a1,a2,...  spider:l1,l2,...
# ---------------------------------------------------------------------------

def _ints(text: str, count: int | None = None) -> list:
    values = [_integer(p) for p in text.split(",")]
    if count is not None and len(values) != count:
        raise GraphError(f"expected {count} comma-separated integers, got {text!r}")
    return values


def _union(rest: str) -> Graph:
    """Blocks joined by '+', each <spec> or k*<spec>; a block is never a
    union itself, so parsing nests one level at most."""
    blocks = []
    for term in rest.split("+"):
        count, mul, inner = term.partition("*")
        if not mul:
            count, inner = "1", term
        (k,) = _ints(count, 1)
        _require_int(k, 1, MAX_VERTICES, "union count")
        if inner.strip().partition(":")[0] == "U":
            raise GraphError("unions do not nest: write U:2*U:3*K:2 as U:6*K:2")
        blocks.extend([parse_family_spec(inner)] * k)
    return graph_union(*blocks)


# head -> builder from the text after the colon
_FAMILIES = {
    "P": lambda rest: path(*_ints(rest, 1)),
    "S": lambda rest: star(*_ints(rest, 1)),
    "K": lambda rest: complete(*_ints(rest, 1)),
    "Kpq": lambda rest: complete_bipartite(*_ints(rest, 2)),
    "C": lambda rest: cycle(*_ints(rest, 1)),
    "U": _union,
    "cat": lambda rest: caterpillar_graph(_ints(rest)),
    "spider": lambda rest: spider(_ints(rest)),
}


def parse_family_spec(text: str) -> Graph:
    head, sep, rest = text.strip().partition(":")
    if not sep:
        raise GraphError(f"family spec needs 'name:args', got {text!r}")
    if head not in _FAMILIES:
        raise GraphError(f"unknown family {head!r}")
    return _FAMILIES[head](rest)


def resolve_graph_input(text: str) -> Graph:
    """Parse either family-grammar text or a graph6 string."""
    if text.strip().partition(":")[0] in _FAMILIES:
        return parse_family_spec(text)
    return parse_graph6(text)
