import random
from collections import Counter, OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from reconkit import decks, graphs
from reconkit import (
    DaEcard,
    Deck,
    Graph,
    GraphError,
    canonical_form,
    certificate_graph,
    complete,
    complete_bipartite,
    cycle,
    da_edeck,
    disjoint_union,
    edge_deck,
    enumerate_graphs,
    enumerate_trees,
    format_deck,
    graph_union,
    intersection_size,
    min_multiplicity,
    parse_family_spec,
    path,
    star,
    sub_multiset,
)


def P(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cert(g):
    return canonical_form(g)


def rand_graph(rng, n, p=0.4):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def test_edge_deck_of_p4():
    deck = edge_deck(P(4))
    p3_plus_isolate = cert(Graph.from_edges(4, [(0, 1), (1, 2)]))
    two_k2 = cert(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert deck.mult(p3_plus_isolate) == 2
    assert deck.mult(two_k2) == 1
    assert deck.total == 3 and len(deck) == 2


def test_edge_deck_of_star():
    deck = edge_deck(star(3))
    key = cert(Graph.from_edges(4, [(0, 1), (1, 2)]))
    assert deck.items() == [(key, 3)]


def test_edgeless_rejected():
    lone = Graph.from_edges(2, [])
    with pytest.raises(GraphError):
        edge_deck(lone)
    with pytest.raises(GraphError):
        da_edeck(lone)


def test_total_is_edge_count():
    rng = random.Random(5)
    for _ in range(500):
        g = rand_graph(rng, rng.randint(2, 8))
        if g.m == 0:
            continue
        assert edge_deck(g).total == g.m
        assert da_edeck(g).total == g.m


def test_da_edeck_of_path_unions():
    for k in (2, 3):
        deck = da_edeck(disjoint_union(k, P(3)))
        assert len(deck) == 1
        ((key, mult),) = deck.items()
        assert mult == 2 * k and key.d == 1


def test_da_edeck_of_triangle_unions():
    for p in (2, 3):
        deck = da_edeck(disjoint_union(p, complete(3)))
        ((key, mult),) = deck.items()
        assert mult == 3 * p and key.d == 2


def test_da_edeck_star_triangle_mix():
    g = graph_union(star(3), complete(3))
    deck = da_edeck(g)
    assert len(deck) == 2
    assert all(key.d == 2 for key, _ in deck.items())


def test_min_multiplicity():
    assert min_multiplicity(star(3)) == 3
    assert min_multiplicity(P(4)) == 1
    # P_7 has six cards in three classes, each appearing twice: the deck is
    # {P_1+P_6, P_2+P_5, P_3+P_4}, so the minimum multiplicity is 2.
    by_hand = {}
    for i in range(6):
        card = P(7).remove_edge(i, i + 1)
        by_hand[cert(card)] = by_hand.get(cert(card), 0) + 1
    assert sorted(by_hand.values()) == [2, 2, 2]
    assert min_multiplicity(P(7)) == 2


def test_sub_multiset_and_intersection():
    x, y = cert(P(3)), cert(complete(3))
    s = Deck({x: 2})
    t = Deck({x: 1, y: 3})
    assert sub_multiset(s, s)
    assert not sub_multiset(s, t)  # multiplicity matters
    assert intersection_size(s, t) == 1
    assert intersection_size(t, s) == 1


def test_shared_cards_with_triangle_closure():
    # 2K_{1,3} shares exactly three da-ecards with the graph obtained by
    # closing the P_3 of its card into a triangle.
    g = disjoint_union(2, star(3))
    h = graph_union(star(3), complete(3), Graph.from_edges(1, []))
    assert intersection_size(da_edeck(g), da_edeck(h)) == 3


def test_deck_labeling_invariance():
    rng = random.Random(9)
    for _ in range(60):
        g = rand_graph(rng, rng.randint(2, 7))
        if g.m == 0:
            continue
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert edge_deck(g) == edge_deck(g.permuted(perm))
        assert da_edeck(g) == da_edeck(g.permuted(perm))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, (1 << 21) - 1))
def test_da_degrees_match_edge_degrees(bits):
    n = 7
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
    if g.m == 0:
        return
    from_deck = sorted(
        d for key, mult in da_edeck(g).items() for d in [key.d] * mult
    )
    direct = sorted(g.degree(u) + g.degree(v) - 2 for u, v in g.edges())
    assert from_deck == direct


def test_edge_transitive_graphs_have_one_key():
    for g in (complete_bipartite(2, 3), complete(4), cycle(5), complete_bipartite(3, 3)):
        assert len(da_edeck(g)) == 1
        assert len(edge_deck(g)) == 1


def test_card_keys_keep_vertices():
    rng = random.Random(13)
    for _ in range(40):
        g = rand_graph(rng, rng.randint(2, 7))
        if g.m == 0:
            continue
        for key in edge_deck(g).keys():
            assert key.n == g.n and key.m == g.m - 1


def test_format_deck():
    lines = format_deck(da_edeck(star(3)))
    assert len(lines) == 1
    mult, d, g6 = lines[0].split()
    assert mult == "3" and d == "2"
    lines = format_deck(edge_deck(P(4)))
    assert all(parts.split()[1] == "-" for parts in lines)


def test_deck_validation():
    with pytest.raises(ValueError):
        Deck({cert(P(3)): 0})
    # pairs that repeat a key are not merged into a wrong multiset
    with pytest.raises(ValueError, match="repeat a key"):
        Deck([(cert(P(3)), 1), (cert(P(3)), 2)])
    assert Deck([(cert(P(3)), 1), (cert(P(4)), 2)]).total == 3


def test_deck_rejects_bool_multiplicities():
    # True is an int equal to 1, but not a multiplicity
    for flag in (True, False):
        with pytest.raises(ValueError, match="must be a positive int"):
            Deck({cert(P(3)): flag})
    assert Deck({cert(P(3)): 1}).mult(cert(P(3))) == 1


# --- order ---------------------------------------------------------------------

def test_deck_order_is_fixed_when_built():
    rng = random.Random(7)
    entries = list(da_edeck(disjoint_union(2, path(4))).items())
    entries += list(da_edeck(graph_union(star(3), complete(3))).items())
    decks = []
    for _ in range(5):
        rng.shuffle(entries)
        decks.append(Deck(dict(entries)))
    first = decks[0]
    assert first.keys() == sorted(first.keys())
    for deck in decks[1:]:
        assert deck.keys() == first.keys()
        assert deck.items() == first.items()
        assert list(iter(deck)) == list(iter(first))
        assert repr(deck) == repr(first)
        assert hash(deck) == hash(first)


def test_key_order_and_repr():
    rng = random.Random(11)
    certs = [cert(rand_graph(rng, rng.randint(2, 6))) for _ in range(40)]
    assert sorted(certs) == sorted(certs, key=lambda c: (c.n, c.m, c.code))
    keys = [DaEcard(c, rng.randint(0, 4)) for c in certs]
    by_fields = sorted(keys, key=lambda k: ((k.card.n, k.card.m, k.card.code), k.d))
    assert sorted(keys) == by_fields
    key = DaEcard(cert(P(3)), 1)
    assert repr(key) == "DaEcard(card=Certificate(n=3, m=2, code=3), d=1)"


# --- decks from the automorphism group -----------------------------------------

LADDER = [
    "U:2*S:3", "U:3*S:3", "U:4*S:2", "U:5*K:2", "U:3*C:4", "U:2*Kpq:2,3",
    "C:12", "C:13", "U:2*C:6",
]


def relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.permuted(perm)


def per_edge_deck(g, da):
    """The reference: every edge's card labeled on its own."""
    return Deck(Counter(
        DaEcard(cert(card), d) if da else cert(card) for card, d in oracles.da_ecards(g)
    ))


def test_orbit_built_decks_match_per_edge_reference():
    # one card per edge orbit, weighted by the orbit's size, gives the deck
    # that labeling every edge's card gives
    rng = random.Random(14)
    gs = [g for n in range(2, 8) for g in enumerate_graphs(n) if g.m >= 1]
    gs += [t for n in range(2, 11) for t in enumerate_trees(n)]
    gs += [parse_family_spec(spec) for spec in LADDER]
    for g in gs:
        g = relabeled(g, rng)
        assert edge_deck(g) == per_edge_deck(g, False), g
        assert da_edeck(g) == per_edge_deck(g, True), g


def test_one_edge_orbit_deck_labels_one_card(monkeypatch):
    # from a relabeled graph's certificate, with cold caches: the deck
    # labels its one card and never searches the canonical graph
    rng = random.Random(15)
    calls = []
    search = graphs._least_leaf_code
    monkeypatch.setattr(graphs, "_least_leaf_code", lambda h: calls.append(h) or search(h))
    for spec in ("C:12", "U:5*K:2", "U:2*C:6"):
        monkeypatch.setattr(graphs, "_groups", OrderedDict())
        monkeypatch.setattr(graphs, "_shapes", OrderedDict())
        canonical_form.cache_clear()
        g = parse_family_spec(spec)
        gcert = canonical_form(relabeled(g, rng))
        calls.clear()
        ((_key, mult),) = decks._deck_of_cert(gcert)[0].items()
        assert mult == g.m
        assert len(calls) == 1 and calls[0] != certificate_graph(gcert), spec
