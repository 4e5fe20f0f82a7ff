"""Blocker enumeration and the four reconstruction numbers.

A blocker for a collection of (da-)ecards of G is a graph H, not isomorphic
to G, whose own deck contains the collection.  Because cards keep all
vertices, any graph sharing a card C with G is C plus one edge, so scanning
single-edge extensions of the deck's cards enumerates every possible
blocker.  The deck labels one card per orbit of Aut(G) on the edges, and
each card class is scanned once, one non-edge per orbit of Aut(C).
Counting the pairs (edge e of H, isomorphism H - e -> C) two ways gives
H's multiplicity on C without building H's deck:

    m_H(C) = #{non-edges f of C : C + f = H} * |Aut H| / |Aut C|

It depends on C and H alone, so C's scan computes it once for every
graph with card C.

A card fixes the degree of the edge it lost:
sum deg^2(H) = sum deg^2(H - e) + 2 d(e) + 2.  So C occurs in G's
da-edeck with one d, and C's scan files each extension class H once,
with the one degree its new edge has.  The da-blockers are the blockers
whose new edge on C has C's d, the blockers with G's sum of squared
degrees, and their multiplicities are unchanged.  One blocker pass per
graph therefore serves both views.  Each view is one table from its deck
keys, in deck order, to index rows over all blockers, the two views
sharing each card's rows, so a key's multiplicity is its number of rows;
the da view reads the rows under the mask of the da-blockers.

The minimum variants (ern, dern) find the smallest sub-multiset of the deck
contained in no blocker's deck, each query an AND of per-card bitmasks over
the view's blockers; the adversary variants equal one plus the largest
overlap between G's deck and a blocker's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .decks import Deck, _deck_of_cert, _edged_cert
from .graphs import (
    Certificate,
    Graph,
    GraphError,
    _aut,
    _component_masks,
    _pair_orbits,
    _require_int,
    canonical_form,
    certificate_graph,
    components,
)

__all__ = [
    "ReconResult",
    "extensions",
    "determines",
    "blockers",
    "blocked",
    "recon_number",
    "adv_recon_number",
    "is_tree_from_two_cards",
    "union_bound",
]


@dataclass(frozen=True)
class ReconResult:
    """Outcome of a reconstruction-number computation.

    ``value`` is the number itself, or None when even the full deck lies in
    some blocker's deck (possible only below the four-edge threshold).  For
    the minimum variants the witness is the smallest unblocked sub-multiset,
    reported as (key, multiplicity) pairs; for the adversary variants it is
    the largest blocked sub-multiset, whose size is ``value - 1``.
    ``blocker_example`` is the canonical graph of the first blocker, in
    certificate order, whose deck shares ``max_shared`` cards with the deck.
    """

    value: int | None
    witness: tuple
    max_shared: int
    blocker_example: Graph | None

    @property
    def indeterminate(self) -> bool:
        return self.value is None


def extensions(card: Graph, d: int | None = None) -> Deck:
    """The classes of the graphs card+uv over non-adjacent pairs u,v: a Deck
    from each class's certificate to its number of pairs, in increasing
    certificate order.  With d given, only the classes whose new edge has
    degree d, which each class fixes (``_scan``).  The pairs are read on
    card's canonical graph, one labeled per orbit of its automorphism
    group (``graphs._pair_orbits``), weighted by the orbit's size.
    """
    if d is not None:
        _require_int(d, 0, math.inf, "edge degree")
    deck, ds, _mults = _scan(canonical_form(card))
    if d is None:
        return deck
    return Deck((h, f) for (h, f), e in zip(deck.items(), ds) if e == d)


@lru_cache(maxsize=1 << 14)
def _scan(cert: Certificate) -> tuple:
    """The card class's one walk of its non-edge orbits: the Deck of its
    extension classes and, in its key order, each class H's new-edge
    degree, deg u + deg v for every pair u,v reaching H since
    sum deg^2(C + uv) = sum deg^2(C) + 2 (deg u + deg v) + 2, and H's
    multiplicity m_H(C) on the card (module docstring).  ArithmeticError
    when a group order makes some m_H(C) fractional."""
    c = certificate_graph(cert)
    degs = c.degrees()
    card_order, gens = _aut(cert)
    pairs = ((u, v) for u, v in combinations(range(c.n), 2) if not c.rows[u] >> v & 1)
    counts, orders, d_of = {}, {}, {}
    for (u, v), size in _pair_orbits(gens, pairs):
        key = canonical_form(c.add_edge(u, v))
        if key not in orders:
            # read next to the labeling, which stores the group when it
            # searches, so an evicting group store rarely searches again
            orders[key] = _aut(key)[0]
            d_of[key] = degs[u] + degs[v]
        counts[key] = counts.get(key, 0) + size
    deck = Deck(counts)
    mults = []
    for h, f in deck.items():
        m, rest = divmod(f * orders[h], card_order)
        if rest:
            raise ArithmeticError(
                f"{f} * |Aut {h.canon}| is not divisible by |Aut {cert.canon}|"
                f" = {card_order}: a group order is wrong"
            )
        mults.append(m)
    return deck, tuple(d_of[h] for h in deck), tuple(mults)


def determines(card: Graph, d: int, origin: Graph) -> bool:
    """Does the single da-ecard (card, d) pin down origin uniquely?

    (card, d) is a da-ecard of origin exactly when origin's class is among
    the card's extensions of degree d, so the card determines origin
    exactly when it has one class of extension.
    """
    found = extensions(card, d)
    if canonical_form(origin) not in found:
        raise GraphError("(card, d) is not a da-ecard of origin")
    return len(found) == 1


def blockers(g: Graph, da: bool) -> list:
    """Every H (up to isomorphism, H != G) sharing at least one (da-)ecard
    with g.  Complete: a shared card C forces H = C plus one edge."""
    ctx = _context(_edged_cert(g, da))
    mask = ctx.masks[da]
    return [certificate_graph(h) for i, h in enumerate(ctx.hs) if mask >> i & 1]


class _Pass(NamedTuple):
    """The class's one blocker pass (module docstring).  ``views``,
    ``masks`` and ``best`` hold the edge-deck view, then the da view."""

    hs: tuple  # every blocker's certificate, in increasing order
    views: tuple  # deck key -> rows: bit i of row x - 1 is set if m_hs[i](card) >= x
    masks: tuple  # each view's blockers, bit i for hs[i]
    best: tuple  # each view's (max_shared, i of its first blocker or -1)


@lru_cache(maxsize=2048)
def _context(gcert: Certificate) -> _Pass:
    """Builds the pass from the class's deck and its cards' scans.  The
    blockers are the extensions of the cards other than g.  One walk of
    the da-edeck's keys fills each card's index rows, up to the deck's own
    multiplicity of the card, sets the da bit of a blocker whose new edge
    has the card's d, and sums each blocker's overlap with the deck."""
    da_deck, cards = _deck_of_cert(gcert)
    hs = tuple(sorted(set().union(*map(extensions, cards)) - {gcert}))
    pos = {h: i for i, h in enumerate(hs)}
    views, shared, da_mask = ({}, {}), [0] * len(hs), 0
    for key in da_deck:
        x = da_deck.mult(key)
        rows = [0] * x
        for h, e, m in zip(*_scan(key.card)):
            i = pos.get(h)
            if i is None:  # g itself
                continue
            bit, top = 1 << i, min(m, x)
            for j in range(top):
                rows[j] |= bit
            shared[i] += top
            if e == key.d:
                da_mask |= bit
        views[False][key.card] = views[True][key] = tuple(rows)
    masks = ((1 << len(hs)) - 1, da_mask)
    best = [(0, -1), (0, -1)]
    for i, s in enumerate(shared):
        for da in (False, True):
            if s > best[da][0] and masks[da] >> i & 1:
                best[da] = s, i
    return _Pass(hs, views, masks, tuple(best))


def blocked(g: Graph, cards: Deck, da: bool) -> bool:
    """Does some blocker's (da-)edeck contain the multiset of cards?

    Keys are DaEcard for da=True and plain certificates otherwise.  The
    cards must be a sub-multiset of g's own deck, since blocker
    multiplicities are known only on g's keys; ValueError otherwise.  An
    empty multiset is blocked exactly when g has a blocker.
    """
    ctx = _context(_edged_cert(g, da))
    view, reach = ctx.views[da], ctx.masks[da]
    for key in cards:
        x, rows = cards.mult(key), view.get(key, ())
        if x > len(rows):
            raise ValueError("cards are not a sub-multiset of the graph's own deck")
        reach &= rows[x - 1]
    return reach != 0


def _witness_vectors(mults, k):
    """Sub-multiset size-k vectors over deck keys, in witness tie-break
    order: for each key try multiplicity 1, 2, .., then absence."""
    if k == 0:
        yield ()
        return
    head, rest = mults[0], mults[1:]
    room = sum(rest)
    for x in list(range(1, min(head, k) + 1)) + [0]:
        if k - x > room:
            continue
        for tail in _witness_vectors(rest, k - x):
            yield (x,) + tail


def recon_number(g: Graph, da: bool = False) -> ReconResult:
    """Smallest k such that some k-sub-multiset of the (da-)edeck of g is
    contained in no blocker's deck (ern for da=False, dern for da=True)."""
    ctx = _context(_edged_cert(g, da))
    view, (max_shared, i) = ctx.views[da], ctx.best[da]
    example = None if i < 0 else certificate_graph(ctx.hs[i])
    if max_shared == g.m:  # every card of the deck
        return ReconResult(None, (), max_shared, example)
    keys, rows = list(view), list(view.values())
    # no blocker shares more than max_shared cards, so the search ends there
    for k in range(1, max_shared + 2):
        for vec in _witness_vectors([len(r) for r in rows], k):
            reach = ctx.masks[da]
            for row, x in zip(rows, vec):
                if x:
                    reach &= row[x - 1]
            if not reach:
                chosen = tuple((key, x) for key, x in zip(keys, vec) if x)
                return ReconResult(k, chosen, max_shared, example)


def adv_recon_number(g: Graph, da: bool = False) -> ReconResult:
    """Least k such that every k-sub-multiset of the deck is unblocked:
    1 + the largest deck intersection with any blocker."""
    ctx = _context(_edged_cert(g, da))
    view, (max_shared, i) = ctx.views[da], ctx.best[da]
    if i < 0:
        return ReconResult(1, (), 0, None)
    example = certificate_graph(ctx.hs[i])
    if max_shared == g.m:  # every card of the deck
        return ReconResult(None, (), max_shared, example)
    # the example's multiplicity on a key, capped at the deck's, is the
    # number of the key's rows holding its bit
    overlap = ((key, sum(row >> i & 1 for row in rows)) for key, rows in view.items())
    witness = tuple((key, x) for key, x in overlap if x)
    return ReconResult(max_shared + 1, witness, max_shared, example)


def is_tree_from_two_cards(c1: Graph, c2: Graph) -> str:
    """"tree" when both cards split into exactly two tree components whose
    order pairs differ; "unknown" otherwise.  Two components are both
    trees exactly when the card has n - 2 edges."""
    pairs = []
    for card in (c1, c2):
        masks = _component_masks(card)
        if len(masks) != 2 or card.m != card.n - 2:
            return "unknown"
        pairs.append(sorted(mask.bit_count() for mask in masks))
    return "tree" if pairs[0] != pairs[1] else "unknown"


def _isomorphic_components(g: Graph) -> Graph | None:
    """A component of g when g has at least two components and all are
    isomorphic; None otherwise."""
    comps = components(g)
    if len(comps) < 2 or len({canonical_form(c) for c in comps}) != 1:
        return None
    return comps[0]


def union_bound(g: Graph) -> tuple:
    """For g = kH (k >= 2 copies of connected H with at least two distinct
    edge-card classes): the bound min(adv_ern(H), 2 + mm(H)) and whether
    ern(g) stays below it.

    The published bound cannot hold when adv_ern(H) = 1 (every one-edge
    extension of every card of H is H itself, as for K_4 - e and K_5 - e):
    a single card of kH is always a card of some graph other than kH, so
    ern(kH) >= 2.  ``holds`` is then False.
    """
    h = _isomorphic_components(g)
    if h is None:
        raise GraphError("need at least two components, all isomorphic")
    # H's deck is read from the blocker pass that adv_recon_number reads
    view = _context(_edged_cert(h, False)).views[False]
    if len(view) < 2:
        raise GraphError("all edge-cards of the component are isomorphic")
    adv = adv_recon_number(h, da=False).value
    bound = min(2 + min(map(len, view.values())), math.inf if adv is None else adv)
    value = recon_number(g, da=False).value
    holds = value is not None and value <= bound
    return bound, holds
