"""Independent brute-force oracles used to derive expected test values.

Nothing here touches the package's canonical labeling: isomorphism and
automorphism counts are decided by trying every vertex permutation that
preserves degrees, and free trees are counted by decoding every Prufer
sequence and hashing an AHU-style rooted code at the tree's center.  Deck
facts are decided from labeled cards: a card of a graph on the same vertex
set is that graph minus one edge, so a graph with card C is C plus one
edge.  The four reconstruction numbers follow from those facts alone
(``ern``, ``dern``, ``adv_ern``, ``adv_dern``).
"""

from __future__ import annotations

import heapq
from itertools import combinations, permutations, product

from reconkit import Graph


def _isomorphisms(g: Graph, h: Graph):
    """Every isomorphism from g to h, as a list perm with g's vertex u
    mapped to perm[u]: each bijection that maps each vertex of g to a
    vertex of h of the same degree is tried, and any isomorphism is one
    of them."""
    if g.n != h.n or g.m != h.m:
        return
    gdeg, hdeg = g.degrees(), h.degrees()
    if sorted(gdeg) != sorted(hdeg):
        return
    degrees = sorted(set(gdeg))
    sources = [[v for v in range(g.n) if gdeg[v] == k] for k in degrees]
    images = [[v for v in range(h.n) if hdeg[v] == k] for k in degrees]
    target = set(h.edges())
    gedges = g.edges()
    perm = [0] * g.n
    for choice in product(*(permutations(cls) for cls in images)):
        for src, img in zip(sources, choice):
            for u, v in zip(src, img):
                perm[u] = v
        if all((perm[u], perm[v]) in target or (perm[v], perm[u]) in target for u, v in gedges):
            yield list(perm)


def exhaustive_isomorphic(g: Graph, h: Graph) -> bool:
    return any(True for _ in _isomorphisms(g, h))


def automorphism_count(g: Graph) -> int:
    """|Aut(g)|, counted over the degree-preserving vertex permutations."""
    return sum(1 for _ in _isomorphisms(g, g))


def da_ecards(g: Graph) -> list:
    """One (g - uv, d) pair per edge uv, with d = deg(u) + deg(v) - 2, the
    degree of the deleted edge."""
    degs = g.degrees()
    return [(g.remove_edge(u, v), degs[u] + degs[v] - 2) for u, v in g.edges()]


def carries(h: Graph, cards) -> bool:
    """Does h's da-edeck contain the multiset of (card, d) pairs, using each
    edge of h at most once?  With every d None, plain edge-cards are
    compared.

    Two given pairs match the same edges of h when they are isomorphic and
    disjoint sets of edges otherwise, so a greedy assignment is exact.
    """
    free = da_ecards(h)
    for card, d in cards:
        for i, (own, own_d) in enumerate(free):
            if d in (None, own_d) and exhaustive_isomorphic(own, card):
                del free[i]
                break
        else:
            return False
    return True


def one_edge_extensions(card: Graph, d: int | None = None):
    """card + uv over every non-adjacent pair; with d given, only pairs
    whose degrees sum to d, so that the new edge has degree d."""
    degs = card.degrees()
    for u, v in combinations(range(card.n), 2):
        if not card.has_edge(u, v) and (d is None or degs[u] + degs[v] == d):
            yield card.add_edge(u, v)


def blocker(g: Graph, cards):
    """A graph not isomorphic to g whose deck contains the multiset of
    (card, d) pairs, or None when there is none.

    Every such graph is the first card plus one edge (of degree d, when d
    is given), so scanning those extensions is complete.
    """
    card, d = cards[0]
    for h in one_edge_extensions(card, d):
        if not exhaustive_isomorphic(h, g) and carries(h, cards):
            return h
    return None


def _card_classes(g: Graph, da: bool) -> list:
    """g's (da-)ecards grouped by isomorphism and d, as [card, d,
    multiplicity]; d is None for plain edge-cards."""
    classes = []
    for card, d in da_ecards(g):
        d = d if da else None
        for cls in classes:
            if cls[1] == d and exhaustive_isomorphic(cls[0], card):
                cls[2] += 1
                break
        else:
            classes.append([card, d, 1])
    return classes


def _blocker_graphs(g: Graph, classes) -> list:
    """Every graph not isomorphic to g that shares a card with it, as
    labeled extensions of g's cards (a class may appear more than once)."""
    return [
        h
        for card, d, _ in classes
        for h in one_edge_extensions(card, d)
        if not exhaustive_isomorphic(h, g)
    ]


def _min_number(g: Graph, da: bool):
    """Least k such that some k cards of g's deck are carried by no
    blocker; None when the whole deck is carried by one."""
    classes = _card_classes(g, da)
    found = _blocker_graphs(g, classes)
    for k in range(1, g.m + 1):
        for xs in product(*(range(m + 1) for _, _, m in classes)):
            if sum(xs) != k:
                continue
            cards = [(card, d) for (card, d, _), x in zip(classes, xs) for _ in range(x)]
            if not any(carries(h, cards) for h in found):
                return k
    return None


def _shared(h: Graph, classes) -> int:
    """How many of the classes' cards h carries at once.  Cards of h match
    one class each, so adding the cards class by class is exact."""
    chosen = []
    for card, d, m in classes:
        for _ in range(m):
            if not carries(h, chosen + [(card, d)]):
                break
            chosen.append((card, d))
    return len(chosen)


def _adv_number(g: Graph, da: bool):
    """One more than the most cards g shares with a blocker; None when a
    blocker carries the whole deck."""
    classes = _card_classes(g, da)
    most = max((_shared(h, classes) for h in _blocker_graphs(g, classes)), default=0)
    return None if most >= g.m else most + 1


def ern(g: Graph):
    return _min_number(g, da=False)


def dern(g: Graph):
    return _min_number(g, da=True)


def adv_ern(g: Graph):
    return _adv_number(g, da=False)


def adv_dern(g: Graph):
    return _adv_number(g, da=True)


def labeled_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        yield Graph.from_edges(n, edges)


def iso_classes_by_permutation(graphs) -> int:
    """Number of isomorphism classes, grouping with the permutation oracle."""
    reps: list = []
    for g in graphs:
        if not any(exhaustive_isomorphic(g, r) for r in reps):
            reps.append(g)
    return len(reps)


def prufer_edges(seq, n: int) -> list:
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def ahu_code(n: int, edges) -> str:
    """Canonical string of a free tree: AHU rooted code at the center."""
    if n == 1:
        return "()"
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    deg = [len(a) for a in adj]
    layer = [v for v in range(n) if deg[v] <= 1]
    remaining = n
    while remaining > 2:
        nxt = []
        for v in layer:
            deg[v] = 0
            for u in adj[v]:
                if deg[u] > 1:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        remaining -= len(layer)
        layer = nxt

    def code(v, parent):
        subs = sorted(code(u, v) for u in adj[v] if u != parent)
        return "(" + "".join(subs) + ")"

    if len(layer) == 1:
        return code(layer[0], -1)
    a, b = layer
    return "".join(sorted([code(a, b), code(b, a)]))


def prufer_tree_class_count(n: int) -> int:
    """Free trees on n vertices, counted over all labeled trees."""
    if n == 1:
        return 1
    if n == 2:
        return 1
    codes = set()
    for seq in product(range(n), repeat=n - 2):
        codes.add(ahu_code(n, prufer_edges(seq, n)))
    return len(codes)
