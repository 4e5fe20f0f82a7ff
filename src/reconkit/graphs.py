"""Small labeled simple graphs with exact canonical forms.

Graphs live on vertices 0..n-1 (n <= 32) with the adjacency relation stored
as one bitmask row per vertex.  A Certificate is (n, m, code), where code is
the least upper-triangle bit packing, as one integer, over the leaves of an
individualization-refinement search with automorphism pruning (McKay &
Piperno, Practical graph isomorphism II, 2014; Junttila & Kaski, bliss,
2007), so certificates of two graphs are equal exactly when the graphs are
isomorphic.  That makes certificates usable directly as multiset keys.
A graph whose components have at most one cycle each also has an exact
linear-time code, its shape (``_shape``), so each such class is searched
once under any labeling.  CERT_SCHEME names this labeling for the store.
graph6 text is only the I/O form: the store, the CLI and
``Certificate.canon`` read and write it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

MAX_VERTICES = 32

# Names the canonical labeling, whose codes key stored records; a labeler
# that changes any certificate code needs a new name.
CERT_SCHEME = "ir1"

__all__ = [
    "MAX_VERTICES",
    "CERT_SCHEME",
    "Graph",
    "GraphError",
    "Graph6Error",
    "Certificate",
    "CentroidInfo",
    "canonical_form",
    "canonical_graph",
    "certificate_graph",
    "is_isomorphic",
    "edge_degree",
    "components",
    "centroid",
    "parse_graph6",
    "write_graph6",
]


class GraphError(ValueError):
    """Malformed graph, vertex, or edge input."""


class Graph6Error(ValueError):
    """Malformed graph6 text; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _is_int(x) -> bool:
    """Is x an int?  A bool is not, although Python counts it as one."""
    return isinstance(x, int) and not isinstance(x, bool)


def _require_int(x, least: int, most: int | float, what: str) -> None:
    """The one gate for a count, vertex id or adjacency row a caller
    passes, run before anything is built from it: x must be an int, not a
    bool, in least..most (most may be math.inf)."""
    if not _is_int(x) or not least <= x <= most:
        raise GraphError(f"{what} must be in {least}..{most}, got {x!r}")


def _integer(text: str) -> int:
    """The one reader of a number given as text: the int x whose ``str(x)``
    is text.  ``int`` alone would also take a plus sign, spaces,
    underscores, leading zeros and other scripts' digits."""
    if text.isascii() and text.removeprefix("-").isdigit() and str(int(text)) == text:
        return int(text)
    raise GraphError(f"expected an integer, got {text!r}")


def _require_size(n: int) -> None:
    """The gate for vertex counts."""
    _require_int(n, 1, MAX_VERTICES, "vertex count")


def _bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    ``rows[v]`` has bit ``u`` set iff ``u`` and ``v`` are adjacent.  Values
    are never mutated after construction, so graphs are safe to share, hash,
    and use as cache keys.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows):
        _require_size(n)
        rows = tuple(rows)
        if len(rows) != n:
            raise GraphError(f"expected {n} adjacency rows, got {len(rows)}")
        for row in rows:
            _require_int(row, 0, (1 << n) - 1, "adjacency row")
        for v, row in enumerate(rows):
            if row >> v & 1:
                raise GraphError(f"loop at vertex {v}")
            for u in _bits(row):
                if not rows[u] >> v & 1:
                    raise GraphError(f"adjacency not symmetric between {u} and {v}")
        self.n = n
        self.rows = rows

    @staticmethod
    def _raw(n: int, rows: tuple) -> "Graph":
        # Internal fast path: caller guarantees a valid symmetric loop-free tuple.
        g = object.__new__(Graph)
        g.n = n
        g.rows = rows
        return g

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        _require_size(n)
        rows = [0] * n
        for u, v in edges:
            _require_int(u, 0, n - 1, "vertex")
            _require_int(v, 0, n - 1, "vertex")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def degree(self, v: int) -> int:
        _require_int(v, 0, self.n - 1, "vertex")
        return self.rows[v].bit_count()

    def degrees(self) -> tuple:
        return tuple(row.bit_count() for row in self.rows)

    def edges(self) -> list:
        out = []
        for v in range(self.n):
            row = self.rows[v] >> (v + 1)
            for off in _bits(row):
                out.append((v, v + 1 + off))
        return out

    def has_edge(self, u: int, v: int) -> bool:
        _require_int(u, 0, self.n - 1, "vertex")
        _require_int(v, 0, self.n - 1, "vertex")
        return bool(self.rows[u] >> v & 1)

    def neighbors(self, v: int) -> tuple:
        _require_int(v, 0, self.n - 1, "vertex")
        return tuple(_bits(self.rows[v]))

    def add_edge(self, u: int, v: int) -> "Graph":
        if self.has_edge(u, v):
            raise GraphError(f"edge ({u},{v}) already present")
        if u == v:
            raise GraphError(f"loop at vertex {u}")
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph._raw(self.n, tuple(rows))

    def remove_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u},{v}) not present")
        rows = list(self.rows)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph._raw(self.n, tuple(rows))

    def add_vertex(self, neighbors=()) -> "Graph":
        """New graph with one extra vertex adjacent to ``neighbors``."""
        n = self.n
        _require_size(n + 1)
        nb = 0
        for u in neighbors:
            _require_int(u, 0, n - 1, "vertex")
            nb |= 1 << u
        rows = [self.rows[v] | ((nb >> v & 1) << n) for v in range(n)]
        rows.append(nb)
        return Graph._raw(n + 1, tuple(rows))

    def permuted(self, perm) -> "Graph":
        """Relabel vertex ``v`` as ``perm[v]``."""
        n = self.n
        if not all(map(_is_int, perm)) or sorted(perm) != list(range(n)):
            raise GraphError("perm is not a permutation of the vertices")
        rows = [0] * n
        for v in range(n):
            row = 0
            for u in _bits(self.rows[v]):
                row |= 1 << perm[u]
            rows[perm[v]] = row
        return Graph._raw(n, tuple(rows))

    def induced(self, vertices) -> "Graph":
        """Induced subgraph on ``vertices`` relabeled 0..k-1 in sorted order."""
        vs = list(vertices)
        for v in vs:
            _require_int(v, 0, self.n - 1, "vertex")
        vs.sort()
        if len(set(vs)) != len(vs) or not vs:
            raise GraphError("vertex set must be nonempty without repeats")
        idx = {v: i for i, v in enumerate(vs)}
        rows = []
        for v in vs:
            row = 0
            for u in _bits(self.rows[v]):
                if u in idx:
                    row |= 1 << idx[u]
            rows.append(row)
        return Graph._raw(len(vs), tuple(rows))

    def __eq__(self, other):
        return (
            isinstance(other, Graph) and self.n == other.n and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Graph({self.n}, {self.edges()})"


# ---------------------------------------------------------------------------
# graph6 text format (short form, n <= 62; one graph per line in files)
# ---------------------------------------------------------------------------

def _unpack(n: int, code: int) -> Graph:
    """The graph on n vertices whose upper triangle, packed column by
    column (graph6 order) with the first bit most significant, is code."""
    rows = [0] * n
    bit = n * (n - 1) // 2
    for j in range(1, n):
        bit -= j
        column = code >> bit & ((1 << j) - 1)
        for b in _bits(column):
            i = j - 1 - b
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph._raw(n, tuple(rows))


def _graph6_text(n: int, code: int) -> str:
    """Header byte n+63, then the packed triangle, zero-padded to 6-bit
    groups, each group offset by 63."""
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    code <<= 6 * need - npairs
    body = (chr((code >> 6 * k & 63) + 63) for k in reversed(range(need)))
    return chr(n + 63) + "".join(body)


def write_graph6(g: Graph) -> str:
    """Encode the labeled graph as graph6 text."""
    return _graph6_text(g.n, _leaf_code(g.rows, range(g.n)))


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string (optionally prefixed with '>>graph6<<')."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    c0 = ord(s[0])
    if c0 == 126:
        raise Graph6Error("multi-byte vertex counts are not supported", 0)
    if not 63 <= c0 <= 125:
        raise Graph6Error(f"invalid header byte {c0}", 0)
    n = c0 - 63
    if n == 0:
        raise Graph6Error("graphs must have at least one vertex", 0)
    if n > MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} exceeds cap {MAX_VERTICES}", 0)
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    body = s[1:]
    if len(body) != need:
        raise Graph6Error(
            f"expected {need} body bytes for n={n}, got {len(body)}",
            1 + min(len(body), need),
        )
    code = 0
    for idx, ch in enumerate(body):
        c = ord(ch)
        if not 63 <= c <= 126:
            raise Graph6Error(f"invalid body byte {c}", idx + 1)
        code = code << 6 | (c - 63)
    padding = 6 * need - npairs
    if code & ((1 << padding) - 1):
        raise Graph6Error("nonzero padding bits", need)
    return _unpack(n, code >> padding)


# ---------------------------------------------------------------------------
# Canonical form: individualization-refinement search with automorphism
# pruning, taking the least adjacency encoding over its leaves.
# ---------------------------------------------------------------------------

class Certificate(NamedTuple):
    """Canonical identifier of an isomorphism class.

    ``code`` is the upper triangle of the canonically relabeled graph packed
    column by column (graph6 order), first bit most significant; two
    certificates are equal iff the underlying graphs are isomorphic.  For
    equal n, comparing codes is comparing their graph6 texts, so the total
    order (n, m, code) is the order of (n, m, canon) and makes multisets
    and reports reproducible.
    """

    n: int
    m: int
    code: int

    @property
    def canon(self) -> str:
        """The graph6 text of the canonical graph, for I/O."""
        return _graph6_text(self.n, self.code)


def _refine(rows, cells, end, queue, starts: int) -> int:
    """Refine an ordered partition, in place, until it is equitable, and
    return the mask of its non-singleton cells' starts, given the mask
    before (``starts``); the partition is discrete when the mask is 0.

    ``cells[s]`` is the vertex mask of the cell starting at position s and
    ``end[s]`` that cell's end.  Each splitter cell taken from ``queue``
    (starts, first in first out) splits every cell by neighbour count in
    the splitter; the parts keep their cell's place, ordered by that count.
    Only non-singleton cells can split, so only the starts in the mask are
    visited.  A one-vertex splitter {w} splits a cell x into
    ``x & ~rows[w]`` and then ``x & rows[w]``; a larger one groups x's
    vertices by count.  A split cell that is not queued already accounts
    for its union, so its first largest part is not queued (Hopcroft).
    Refinement stops early at a discrete partition.  Every step reads
    positions, counts and whole cells only, never how vertex labels order
    a cell, so the result commutes with relabeling.
    """
    queued = set(queue)
    for s in queue:  # the loop also visits starts appended below
        if not starts:
            break
        queued.discard(s)
        splitter = cells[s]
        todo = starts  # the cells this splitter can split, ascending
        if splitter & (splitter - 1) == 0:
            row = rows[splitter.bit_length() - 1]
            while todo:
                low = todo & -todo
                todo ^= low
                c = low.bit_length() - 1
                x = cells[c]
                hit = x & row
                if hit and hit != x:
                    e = end[c]
                    miss = x ^ hit
                    p = c + miss.bit_count()
                    cells[c], cells[p] = miss, hit
                    end[c], end[p] = p, e
                    if p - c == 1:
                        starts ^= low
                    if e - p > 1:
                        starts |= 1 << p
                    new = p if c in queued or p - c >= e - p else c
                    queue.append(new)
                    queued.add(new)
            continue
        while todo:
            low = todo & -todo
            todo ^= low
            c = low.bit_length() - 1
            parts: dict = {}
            x = cells[c]
            while x:
                bit = x & -x
                count = (rows[bit.bit_length() - 1] & splitter).bit_count()
                parts[count] = parts.get(count, 0) | bit
                x ^= bit
            if len(parts) > 1:
                starts ^= low
                at = []
                sizes = []
                p = c
                for count in sorted(parts):
                    part = parts[count]
                    size = part.bit_count()
                    at.append(p)
                    sizes.append(size)
                    cells[p] = part
                    end[p] = p + size
                    if size > 1:
                        starts |= 1 << p
                    p += size
                del at[0 if c in queued else sizes.index(max(sizes))]
                queue.extend(at)
                queued.update(at)
    return starts


def _leaf_code(rows, order) -> int:
    """Upper triangle of the graph read in vertex order ``order``, packed
    column by column (graph6 order), first bit most significant: column j
    holds the neighbours of ``order[j]`` at earlier positions."""
    n = len(order)
    rev = [0] * n  # bit n-1-i marks the vertex at position i
    for i, v in enumerate(order):
        rev[v] = 1 << (n - 1 - i)
    code = 0
    seen = 0  # the vertices at positions before j
    for j in range(1, n):
        seen |= 1 << order[j - 1]
        row = rows[order[j]] & seen
        relabeled = 0
        while row:
            low = row & -row
            relabeled |= rev[low.bit_length() - 1]
            row ^= low
        code = code << j | relabeled >> (n - j)
    return code


def _least_leaf_code(g: Graph) -> tuple:
    """Individualization-refinement search: the least leaf code, its vertex
    order, the first path, and the leaf automorphisms followed by the
    transpositions of the skipped twin pairs.

    The root is the equitable refinement of the unit partition (see
    ``_refine``), which also keeps the mask of the starts of the
    non-singleton cells.  A node's children individualize each vertex v of
    its first non-singleton cell, the mask's lowest bit, in ascending
    order: {v} goes before the rest of the cell and refinement runs with
    {v} as the only splitter.  A leaf is a discrete partition, an empty
    mask, read as a vertex order; the first path is the individualized
    vertices of the first leaf.  A child is skipped when it is a twin of an
    explored sibling (equal open or closed neighbourhood, so the pair's
    transposition is an automorphism), or in an explored sibling's orbit
    under the leaf automorphisms found so far that fix the node's
    individualized vertices; that orbit is recomputed only when a sibling
    was explored or an automorphism found since it was last computed.  A
    leaf whose code equals the best's or the first leaf's gives an
    automorphism, and the search then returns to where that leaf's path
    left the other's, since the subtree it is in maps onto one already
    explored.  Skipped subtrees are images of explored ones, so the least
    code over all leaves is found, and the leaf automorphisms with the twin
    transpositions generate Aut(g) with the first path as a base (McKay &
    Piperno 2014): see ``_remember``.
    """
    n, rows = g.n, g.rows
    cells = [0] * n
    cells[0] = (1 << n) - 1
    end = [n] * n
    starts = _refine(rows, cells, end, [0], 1 if n > 1 else 0)
    best_code = best_order = best_path = None
    first_code = first_order = first_path = None
    autos = []
    twins = []

    def dfs(cells, end, starts, path) -> int:
        # Returns the depth the search unwinds to.
        nonlocal best_code, best_order, best_path, first_code, first_order, first_path
        depth = len(path)
        if not starts:
            order = [cell.bit_length() - 1 for cell in cells]
            code = _leaf_code(rows, order)
            if best_code is None:
                first_code, first_order, first_path = code, order, path
            if best_code is None or code < best_code:
                best_code, best_order, best_path = code, order, path
                return depth
            if code == best_code:
                other_order, other_path = best_order, best_path
            elif code == first_code:
                other_order, other_path = first_order, first_path
            else:
                return depth
            auto = [0] * n
            for v, w in zip(order, other_order):
                auto[v] = w
            autos.append(auto)
            return next(i for i, (v, w) in enumerate(zip(path, other_path)) if v != w)
        low = starts & -starts
        c = low.bit_length() - 1
        cell, e = cells[c], end[c]
        # a child's mask before refinement: {v} is a singleton, and so is
        # the rest of the cell when the cell has two vertices
        child_starts = starts ^ low if e - c == 2 else starts ^ low ^ low << 1
        tried = []
        # the orbit of tried, valid while len(tried) + len(autos) is known;
        # both lists only grow, and autos only while a child is explored
        orbit = set()
        known = len(autos)
        for v in _bits(cell):
            row = rows[v]
            twin = False
            for u in tried:
                if row == rows[u] or row | 1 << v == rows[u] | 1 << u:
                    twins.append((u, v))
                    twin = True
                    break
            if twin:
                continue
            grown = len(tried) + len(autos)
            if grown != known:
                orbit, known = _orbit(autos, path, tried), grown
            if v in orbit:
                continue
            tried.append(v)
            child, child_end = cells[:], end[:]
            child[c], child[c + 1] = 1 << v, cell ^ 1 << v
            child_end[c], child_end[c + 1] = c + 1, e
            refined = _refine(rows, child, child_end, [c], child_starts)
            back = dfs(child, child_end, refined, path + [v])
            if back < depth:
                return back
        return depth

    dfs(cells, end, starts, [])
    for u, v in twins:
        swap = bytearray(range(n))
        swap[u], swap[v] = v, u
        autos.append(bytes(swap))
    return best_code, best_order, first_path, autos


def _orbit(autos, fixed, seeds) -> set:
    """The images of the seeds under the group generated by the
    automorphisms in ``autos`` that fix every vertex of ``fixed``."""
    gens = [auto for auto in autos if all(auto[u] == u for u in fixed)]
    orbit = set(seeds)
    todo = list(seeds)
    while todo:
        v = todo.pop()
        for auto in gens:
            if auto[v] not in orbit:
                orbit.add(auto[v])
                todo.append(auto[v])
    return orbit


def _pair_orbits(gens, pairs):
    """(first pair, orbit size) for each orbit of the group generated by
    ``gens`` on ``pairs``, vertex pairs (u, v) with u < v that the group
    maps onto themselves.  The pairs of one orbit give isomorphic graphs
    when added or deleted, so callers label only the first (McKay,
    Isomorph-free exhaustive generation, 1998)."""
    seen = set()
    for pair in pairs:
        if pair in seen:
            continue
        orbit = {pair}
        todo = [pair]
        while todo:
            u, v = todo.pop()
            for gen in gens:
                a, b = gen[u], gen[v]
                image = (a, b) if a < b else (b, a)
                if image not in orbit:
                    orbit.add(image)
                    todo.append(image)
        seen |= orbit
        yield pair, len(orbit)


# Certificate -> its group (see ``_remember``), least recently used out first
_GROUPS_CAP = 1 << 17
_groups: OrderedDict = OrderedDict()


def _remember(cert: Certificate, search: tuple) -> tuple:
    """cert's group, stored once from ``search``, the ``_least_leaf_code``
    result that made cert: |Aut| of the canonical graph and generators as
    permutations of its own vertices (bytes: n <= 32).  The generators
    fixing the first k path vertices generate their pointwise stabilizer,
    so |Aut| is the product over the path of each vertex's orbit under
    those fixing the vertices before it (McKay & Piperno 2014), read along
    one stabilizer chain: after each path vertex's orbit, the generators
    that move it drop out.  The canonical graph's vertex i is the searched
    graph's order[i]."""
    if cert in _groups:
        _groups.move_to_end(cert)
        return _groups[cert]
    _code, order, path, gens = search
    gens = list(dict.fromkeys(map(bytes, gens)))
    size = 1
    fixing = gens  # the generators fixing the path vertices before v
    for v in path:
        size *= len(_orbit(fixing, (), [v]))
        fixing = [gen for gen in fixing if gen[v] == v]
    # the canonical graph's generator maps i to pos[gen[order[i]]], where
    # pos[order[i]] = i: bytes(order) read through gen, then through pos,
    # each padded to a 256-byte translate table
    pad = bytes(256 - cert.n)
    pos = bytes(sorted(range(cert.n), key=order.__getitem__)) + pad
    group = size, tuple(bytes(order).translate(gen + pad).translate(pos) for gen in gens)
    if len(_groups) >= _GROUPS_CAP:
        _groups.popitem(last=False)
    _groups[cert] = group
    return group


def _paren(codes) -> int:
    """'(', the codes in the given order, then ')', as bits with ( as 1
    and ) as 0.  Every code is such a balanced string, whose first bit is
    1, so its bit length is its length and a concatenation parses back."""
    out = 1
    for code in codes:
        out = out << code.bit_length() | code
    return out << 1


def _rooted(kids: list) -> int:
    """The AHU code of a root whose subtrees have the codes in ``kids``:
    '(', those codes in increasing order (``kids`` is sorted in place),
    then ')'."""
    if not kids:
        return 2  # a leaf, '()'
    kids.sort()
    return _paren(kids)


def _shape(g: Graph) -> int | None:
    """An exact isomorphism code for graphs whose every component has at
    most one cycle, None for any other graph: two such graphs have equal
    shapes exactly when they are isomorphic.

    Leaves are stripped layer by layer, and each stripped vertex gets the
    AHU code (Aho, Hopcroft & Ullman 1974) of its rooted subtree.  What is
    left of a tree is its centre, or the two ends of its central edge when
    both are leaves of one layer; what is left of a unicyclic component is
    its cycle, and a vertex of degree 3 or more left means two cycles.  A
    component's code is a parenthesis around one code (a tree's centre),
    two in increasing order (a central edge's ends) or k >= 3 (a cycle's
    vertices, read in the least of the rotations and reflections that start
    at the largest code); the shape is a parenthesis around the components'
    codes in increasing order.
    """
    n = g.n
    rows = list(g.rows)
    deg = [row.bit_count() for row in rows]
    if sum(deg) > 2 * n:  # some component has more edges than vertices
        return None
    kids = [[] for _ in range(n)]
    layer = [0] * n  # the layer a vertex is a leaf in
    leaves = [v for v in range(n) if deg[v] == 1]
    for v in leaves:  # in layer order, as leaves are appended
        if deg[v] != 1:
            continue
        u = rows[v].bit_length() - 1  # v's one neighbour left
        if deg[u] == 1 and layer[u] == layer[v]:  # all that is left of a tree
            continue
        kids[u].append(_rooted(kids[v]))
        rows[u] ^= 1 << v
        deg[v] = -1  # stripped
        deg[u] -= 1
        if deg[u] == 1:
            layer[u] = layer[v] + 1
            leaves.append(u)
    if max(deg) > 2:
        return None
    comps = []
    done = 0
    for v in range(n):
        if deg[v] < 0 or done >> v & 1:
            continue
        if deg[v] < 2:  # a centre, or one end of a central edge
            ends = [v] if deg[v] == 0 else [v, rows[v].bit_length() - 1]
            comps.append(_rooted([_rooted(kids[w]) for w in ends]))
            for w in ends:
                done |= 1 << w
            continue
        cycle, prev, w = [], v, rows[v].bit_length() - 1
        while not done >> w & 1:  # w's other neighbour is the next vertex
            cycle.append(_rooted(kids[w]))
            done |= 1 << w
            prev, w = w, (rows[w] ^ 1 << prev).bit_length() - 1
        top = max(cycle)
        comps.append(_paren(min(
            seq
            for i, code in enumerate(cycle)
            if code == top
            for seq in (cycle[i:] + cycle[:i], cycle[i::-1] + cycle[:i:-1])
        )))
    return _rooted(comps)


# Shape (see ``_shape``) -> Certificate, least recently used out first; it
# shares the group store's cap
_shapes: OrderedDict = OrderedDict()


@lru_cache(maxsize=1 << 12)
def canonical_form(g: Graph) -> Certificate:
    """Certificate of g; equal across all relabelings, distinct across
    non-isomorphic graphs.  A graph whose components have at most one
    cycle each is searched only when no graph of its shape was before."""
    shape = _shape(g)
    if shape is not None and shape in _shapes:
        _shapes.move_to_end(shape)
        return _shapes[shape]
    search = _least_leaf_code(g)
    cert = Certificate(g.n, g.m, search[0])
    _remember(cert, search)
    if shape is not None:
        if len(_shapes) >= _GROUPS_CAP:
            _shapes.popitem(last=False)
        _shapes[shape] = cert
    return cert


def _aut(cert: Certificate) -> tuple:
    """cert's group (see ``_remember``), read from the store; only without
    an entry is the canonical graph searched."""
    if cert not in _groups:
        return _remember(cert, _least_leaf_code(certificate_graph(cert)))
    _groups.move_to_end(cert)
    return _groups[cert]


def canonical_graph(g: Graph) -> Graph:
    """The canonical representative of g's isomorphism class."""
    return certificate_graph(canonical_form(g))


def certificate_graph(cert: Certificate) -> Graph:
    """Rebuild the canonical representative from a certificate."""
    return _unpack(cert.n, cert.code)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    return canonical_form(g) == canonical_form(h)


# ---------------------------------------------------------------------------
# Structure helpers
# ---------------------------------------------------------------------------

def edge_degree(g: Graph, e) -> int:
    """Number of edges adjacent to e = uv, i.e. deg(u) + deg(v) - 2."""
    u, v = e
    if not g.has_edge(u, v):
        raise GraphError(f"edge ({u},{v}) not in graph")
    return g.degree(u) + g.degree(v) - 2


def _component_masks(g: Graph) -> list:
    masks = []
    remaining = (1 << g.n) - 1
    rows = g.rows
    while remaining:
        comp = remaining & -remaining
        while True:
            grow = comp
            for v in _bits(comp):
                grow |= rows[v]
            if grow == comp:
                break
            comp = grow
        masks.append(comp)
        remaining &= ~comp
    return masks


def components(g: Graph) -> list:
    """Connected components as induced graphs, largest certificate first."""
    comps = [g.induced(list(_bits(mask))) for mask in _component_masks(g)]
    comps.sort(key=canonical_form, reverse=True)
    return comps


def _require_tree(t: Graph):
    if t.m != t.n - 1 or len(_component_masks(t)) != 1:
        raise GraphError("not a tree")


@dataclass(frozen=True)
class CentroidInfo:
    """Per-vertex weights and the centroid of a tree.

    ``weights[v]`` is the order of a largest component of T - v; the
    centroid collects the vertices of minimum weight (one vertex, or two
    adjacent ones joined by ``centroidal_edge``).
    """

    weights: tuple
    centroid: tuple
    kind: str  # "unicentroidal" | "bicentroidal"
    centroidal_edge: tuple | None


def centroid(t: Graph) -> CentroidInfo:
    _require_tree(t)
    n = t.n
    if n == 1:
        return CentroidInfo((0,), (0,), "unicentroidal", None)
    weights = []
    for v in range(n):
        rest = t.induced([u for u in range(n) if u != v])
        weights.append(max(mask.bit_count() for mask in _component_masks(rest)))
    wt = min(weights)
    cen = tuple(v for v in range(n) if weights[v] == wt)
    if len(cen) == 1:
        return CentroidInfo(tuple(weights), cen, "unicentroidal", None)
    # Jordan: a tree's centroid is one vertex or two adjacent ones
    return CentroidInfo(tuple(weights), cen, "bicentroidal", cen)
