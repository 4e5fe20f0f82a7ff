"""Edge-decks and degree-associated edge-decks as certificate-keyed multisets.

Deleting an edge keeps all vertices, so every card of a graph on n vertices
is itself a graph on n vertices with one edge fewer; isolated vertices are
first-class citizens here.  Keys are either plain certificates (edge-deck)
or (certificate, edge degree) pairs (da-edeck), which turns multiset
equality and containment into dictionary comparisons.

A card fixes the degree of the edge it lost, sum deg^2(G) =
sum deg^2(G - e) + 2 d(e) + 2, so each card class of G occurs in the
da-edeck with exactly one d.  Only the da-edeck is built; the edge-deck is
that deck with d dropped, one key for each key.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import NamedTuple

from .graphs import (
    Certificate,
    Graph,
    GraphError,
    _aut,
    _is_int,
    _pair_orbits,
    canonical_form,
    certificate_graph,
)

__all__ = [
    "DaEcard",
    "Deck",
    "edge_deck",
    "da_edeck",
    "min_multiplicity",
    "sub_multiset",
    "intersection_size",
    "format_deck",
]


class DaEcard(NamedTuple):
    """An edge-card certificate together with the degree of the deleted edge."""

    card: Certificate
    d: int


class Deck:
    """Multiset of deck keys (Certificate or DaEcard) with multiplicities,
    held in increasing key order, which every view of the deck reads.
    Built from a mapping or from (key, multiplicity) pairs, each key once."""

    __slots__ = ("_entries",)

    def __init__(self, entries):
        pairs = entries.items() if isinstance(entries, Mapping) else list(entries)
        items = dict(pairs)
        if len(items) < len(pairs):
            raise ValueError("deck entries repeat a key")
        for key, mult in items.items():
            if not _is_int(mult) or mult < 1:
                raise ValueError(f"multiplicity for {key!r} must be a positive int")
        self._entries = dict(sorted(items.items()))

    @property
    def total(self) -> int:
        return sum(self._entries.values())

    def mult(self, key) -> int:
        return self._entries.get(key, 0)

    def keys(self) -> list:
        return list(self._entries)

    def items(self) -> list:
        return list(self._entries.items())

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __contains__(self, key):
        return key in self._entries

    def __eq__(self, other):
        return isinstance(other, Deck) and self._entries == other._entries

    def __hash__(self):
        return hash(tuple(self._entries.items()))

    def __repr__(self):
        inner = ", ".join(f"{k!r}: {m}" for k, m in self._entries.items())
        return f"Deck({{{inner}}})"


def _edged_cert(g: Graph, da: bool) -> Certificate:
    """g's certificate; GraphError naming the (da-)edeck when g has no edge."""
    cert = canonical_form(g)
    if cert.m < 1:
        raise GraphError(f"{'da-edeck' if da else 'edge-deck'} of an edgeless graph")
    return cert


def _deck_of_cert(cert: Certificate) -> tuple:
    """The da-edeck of cert's class, that deck with d dropped (the
    edge-deck), and in their key order the card graph labeled for each key.
    The edges of one orbit of Aut(G) give the same da-ecard, so one card
    per edge orbit of the canonical graph is labeled and its key weighted
    by the orbit's size; the canonical graph itself is never searched."""
    g = certificate_graph(cert)
    degs = g.degrees()
    entries, cards = {}, {}
    for (u, v), size in _pair_orbits(_aut(cert)[1], g.edges()):
        card = g.remove_edge(u, v)
        key = DaEcard(canonical_form(card), degs[u] + degs[v] - 2)
        entries[key] = entries.get(key, 0) + size
        cards.setdefault(key, card)
    deck = Deck(entries)
    plain = Deck((key.card, m) for key, m in deck.items())
    return deck, plain, tuple(cards[key] for key in deck)


def edge_deck(g: Graph) -> Deck:
    """Multiset of certificates of G - e over all edges e."""
    return _deck_of_cert(_edged_cert(g, False))[1]


def da_edeck(g: Graph) -> Deck:
    """Multiset of (certificate of G - e, d(e)) pairs over all edges e."""
    return _deck_of_cert(_edged_cert(g, True))[0]


def min_multiplicity(g: Graph) -> int:
    """Least multiplicity among the edge-card classes of g."""
    return min(edge_deck(g)._entries.values())


def sub_multiset(s: Deck, t: Deck) -> bool:
    """True iff s is contained in t with multiplicity."""
    return all(t.mult(key) >= m for key, m in s._entries.items())


def intersection_size(s: Deck, t: Deck) -> int:
    """Size of the multiset intersection: sum of min multiplicities."""
    return sum(min(m, t.mult(key)) for key, m in s._entries.items())


def _key_parts(key, mult: int) -> tuple:
    """Multiplicity, d (or '-') and graph6 of the card, as text."""
    if isinstance(key, DaEcard):
        return str(mult), str(key.d), key.card.canon
    return str(mult), "-", key.canon


def format_deck(deck: Deck) -> list:
    """One line per key: multiplicity, d (or '-'), graph6 of the card."""
    return [" ".join(_key_parts(key, mult)) for key, mult in deck.items()]
