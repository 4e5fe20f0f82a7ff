import random
from collections import Counter, OrderedDict
from itertools import product

import pytest

import oracles
from reconkit import decks, graphs, recon
from reconkit import (
    Certificate,
    DaEcard,
    Deck,
    Graph,
    GraphError,
    adv_recon_number,
    blocked,
    blockers,
    canonical_form,
    caterpillar_graph,
    certificate_graph,
    complete,
    cycle,
    da_edeck,
    determines,
    disjoint_union,
    edge_deck,
    enumerate_graphs,
    enumerate_trees,
    extensions,
    graph_union,
    intersection_size,
    is_tree_from_two_cards,
    parse_family_spec,
    path,
    recon_number,
    spider,
    star,
    sub_multiset,
    union_bound,
)
from reconkit.sweep import evaluate_graph


def P(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


K1 = Graph.from_edges(1, [])


# --- extensions -------------------------------------------------------------

def test_extensions_of_star_card():
    card = Graph.from_edges(4, [(0, 1), (1, 2)])  # P_3 plus isolated vertex
    exts = extensions(card, 2)
    expected = {
        canonical_form(star(3)),
        canonical_form(graph_union(complete(3), K1)),
    }
    assert exts.keys() == sorted(expected)


def test_extensions_on_triangle_card():
    # the only non-adjacent pair of P_3 closes the triangle
    exts = extensions(P(3), 2)
    assert exts.keys() == [canonical_form(complete(3))]
    assert extensions(P(3)) == exts


def test_extensions_degree_two_without_isolates_joins_endvertices():
    for card in (P(5), graph_union(P(4), P(3)), caterpillar_graph([1, 2])):
        degs = card.degrees()
        for u in range(card.n):
            for v in range(u + 1, card.n):
                if not card.has_edge(u, v) and degs[u] + degs[v] == 2:
                    assert degs[u] == 1 and degs[v] == 1


def test_extensions_degree_zero_needs_isolates():
    card = graph_union(P(3), K1, K1)
    assert extensions(card, 0).keys() == [canonical_form(graph_union(P(3), P(2)))]
    assert extensions(P(4), 0).keys() == []


def test_extensions_are_the_certificates_of_the_labeled_extensions():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            degs = g.degrees()
            for u, v in g.edges():
                card = g.remove_edge(u, v)
                for d in (None, *range(2 * n - 3)):
                    exts = extensions(card, d).keys()
                    assert all(a < b for a, b in zip(exts, exts[1:]))
                    want = {canonical_form(h) for h in oracles.one_edge_extensions(card, d)}
                    assert exts == sorted(want)


def test_extension_counts_match_labeled_non_edges():
    # every card of every graph with n <= 5: each class's count is the
    # number of labeled non-edges giving it, grouped by the permutation
    # oracle
    for n in range(2, 6):
        for g in enumerate_graphs(n):
            degs = g.degrees()
            for u, v in g.edges():
                card = g.remove_edge(u, v)
                for d in (None, degs[u] + degs[v] - 2):
                    groups = []
                    for h in oracles.one_edge_extensions(card, d):
                        for group in groups:
                            if oracles.exhaustive_isomorphic(group[0], h):
                                group[1] += 1
                                break
                        else:
                            groups.append([h, 1])
                    exts = extensions(card, d)
                    assert len(exts) == len(groups)
                    for key, count in exts.items():
                        (want,) = [
                            c for h, c in groups
                            if oracles.exhaustive_isomorphic(certificate_graph(key), h)
                        ]
                        assert count == want


# --- determines -------------------------------------------------------------

def test_determines_examples():
    g = disjoint_union(2, complete(3))
    ((key, _),) = da_edeck(g).items()
    card = graph_union(complete(3), P(3))
    assert determines(card, key.d, g)

    g = disjoint_union(2, star(3))
    card = graph_union(star(3), P(3), K1)
    assert not determines(card, 2, g)

    g = disjoint_union(2, star(4))
    card = graph_union(star(4), star(3), K1)
    assert determines(card, 3, g)


def test_determines_validates_input():
    with pytest.raises(GraphError):
        determines(P(3), 5, complete(3))
    # an edge degree is an int d >= 0, and a bool is not one
    card = graph_union(P(3), K1)  # a card of K_{1,3}, with d = 2
    for build in [
        lambda: extensions(card, True),
        lambda: extensions(card, 2.0),
        lambda: extensions(card, "2"),
        lambda: extensions(card, -1),
        lambda: determines(card, "2", star(3)),
    ]:
        with pytest.raises(GraphError, match="edge degree must be in"):
            build()


def test_determines_builds_no_deck(monkeypatch):
    # (card, d) is a da-ecard of origin exactly when origin's class is among
    # the card's extensions of degree d: origin's da-edeck is never built
    built = []
    build = decks._deck_of_cert
    monkeypatch.setattr(decks, "_deck_of_cert", lambda *a: built.append(a) or build(*a))
    assert determines(graph_union(star(4), star(3), K1), 3, disjoint_union(2, star(4)))
    assert not determines(graph_union(star(3), P(3), K1), 2, disjoint_union(2, star(3)))
    with pytest.raises(GraphError):
        determines(P(3), 5, complete(3))
    assert built == []


def test_determines_fast_path_agrees_with_scan():
    # wherever the sufficient condition fires, the full extension scan
    # must agree
    for n in range(2, 6):
        for g in enumerate_graphs(n):
            if g.m < 1:
                continue
            for u, v in g.edges():
                card = g.remove_edge(u, v)
                d = g.degree(u) + g.degree(v) - 2
                degs = card.degrees()
                qualifying = [
                    (a, b)
                    for a in range(card.n)
                    for b in range(a + 1, card.n)
                    if not card.has_edge(a, b) and degs[a] + degs[b] == d
                ]
                if d == 0 or len(qualifying) == 1:
                    assert extensions(card, d).keys() == [canonical_form(g)]


# --- blockers ---------------------------------------------------------------

def test_blockers_of_double_star():
    blks = blockers(disjoint_union(2, star(3)), da=True)
    certs = {canonical_form(h) for h in blks}
    # triangle closure of the P_3 inside the card
    assert canonical_form(graph_union(star(3), complete(3), K1)) in certs
    # joining a star leaf to a path end, and joining two star leaves,
    # produce the other two sharers
    assert len(certs) == 3


def test_blockers_of_star_triangle_unions():
    # union of 3 stars and a triangle: the four single-edge rewirings of the
    # star-deletion card all appear among the blockers
    g = graph_union(star(3), star(3), star(3), complete(3))
    blks = {canonical_form(h) for h in blockers(g, da=True)}
    h1 = graph_union(caterpillar_graph([2, 0, 0, 1]), star(3), complete(3), K1)
    h2 = graph_union(caterpillar_graph([2, 0, 0, 2]), complete(3), P(3), K1)
    z = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    h3 = graph_union(z, star(3), complete(3), P(3), K1)
    paw = complete(3).add_vertex([0])
    h4 = graph_union(paw, star(3), star(3), P(3))
    for h in (h1, h2, h3, h4):
        assert canonical_form(h) in blks


def test_blocker_sets_match_enumeration_oracle_n5():
    for da in (False, True):
        for m in range(1, 11):
            graphs = list(enumerate_graphs(5, m))
            decks = {
                canonical_form(g): (da_edeck(g) if da else edge_deck(g))
                for g in graphs
            }
            for g in graphs:
                gc = canonical_form(g)
                ext_route = {canonical_form(h) for h in blockers(g, da)}
                enum_route = {
                    hc
                    for hc, hd in decks.items()
                    if hc != gc and intersection_size(decks[gc], hd) >= 1
                }
                assert ext_route == enum_route


def sub_multisets(deck):
    """Every sub-multiset of the deck, the empty one included."""
    items = deck.items()
    for vec in product(*(range(m + 1) for _key, m in items)):
        yield Deck({key: x for (key, _m), x in zip(items, vec) if x})


def test_blocked_matches_blocker_decks_n5():
    # every sub-multiset of the deck, the empty one included, checked
    # against each blocker's freshly built deck, for all graphs with n <= 5
    # and all trees with n <= 8
    graphs = [g for n in range(1, 6) for g in enumerate_graphs(n) if g.m >= 1]
    graphs += [t for n in range(6, 9) for t in enumerate_trees(n)]
    for g in graphs:
        for da in (False, True):
            deck_of = da_edeck if da else edge_deck
            bdecks = [deck_of(h) for h in blockers(g, da)]
            for cards in sub_multisets(deck_of(g)):
                want = any(
                    all(bd.mult(key) >= x for key, x in cards.items()) for bd in bdecks
                )
                assert blocked(g, cards, da) == want, (g, da, cards)


def blocker_multiplicities(g, da):
    """The blockers of g's (da=True: da) view, in the pass's order, each to
    its multiplicities on the view's deck keys as g's card scans counted
    them.  Checks that the pass's index holds every blocker's, capped at
    the deck's own multiplicity, and that the view's mask selects it."""
    ctx = recon._context(canonical_form(g))
    deck, mask = ctx.decks[da], ctx.masks[da]
    on_card = {}
    for key in deck:
        ext, _ds, mults = recon._scan(key.card if da else key)
        on_card[key] = dict(zip(ext, mults))
    found = {}
    for i, h in enumerate(ctx.hs):
        on_keys = {key: on[h] for key, on in on_card.items() if h in on}
        for key in deck:
            rows = ctx.index[key.card if da else key]
            held = sum(row >> i & 1 for row in rows)
            assert held == min(on_keys.get(key, 0), deck.mult(key))
        if mask >> i & 1:
            found[h] = on_keys
    return found


def test_blocker_multiplicities_match_built_decks():
    # the double-counted multiplicities equal each blocker's freshly built
    # deck on the graph's own keys, for all graphs with n <= 6 and all
    # trees with n <= 9
    graphs = [g for n in range(2, 7) for g in enumerate_graphs(n) if g.m >= 1]
    graphs += [t for n in range(7, 10) for t in enumerate_trees(n)]
    for g in graphs:
        for da in (False, True):
            deck_of = da_edeck if da else edge_deck
            deck = deck_of(g)
            mults = blocker_multiplicities(g, da)
            assert list(mults) == sorted(mults)
            for h, on_keys in mults.items():
                built = deck_of(certificate_graph(h))
                expected = {key: built.mult(key) for key in deck if key in built}
                assert Deck(on_keys) == Deck(expected)


def sum_sq_degrees(g):
    return sum(x * x for x in g.degrees())


def test_da_context_is_the_plain_context_at_equal_degree_squares():
    # A card fixes the degree of the edge it lost:
    # sum deg^2(H) = sum deg^2(H - e) + 2 d(e) + 2, checked edge by edge on
    # the oracle's da-ecards.  So each card class occurs in the da-edeck
    # with one d, and the da-blockers are the plain blockers with G's sum
    # of squared degrees, multiplicities unchanged.  The code reads the da
    # view off the plain pass, so the blockers of both views are also
    # checked against the oracle's one-edge extensions of the cards.
    graphs = [g for n in range(2, 7) for g in enumerate_graphs(n) if g.m >= 1]
    graphs += [t for n in range(7, 10) for t in enumerate_trees(n)]
    for g in graphs:
        gcert = canonical_form(g)
        d_of, reached, da_reached = {}, set(), set()
        for card, d in oracles.da_ecards(g):
            assert sum_sq_degrees(g) == sum_sq_degrees(card) + 2 * d + 2
            assert d_of.setdefault(canonical_form(card), d) == d
            reached.update(map(canonical_form, oracles.one_edge_extensions(card)))
            da_reached.update(map(canonical_form, oracles.one_edge_extensions(card, d)))
        deck, da_deck = edge_deck(g), da_edeck(g)
        mults, da_mults = (blocker_multiplicities(g, da) for da in (False, True))
        assert list(mults) == sorted(reached - {gcert})
        assert list(da_mults) == sorted(da_reached - {gcert})
        assert [(key.card, m) for key, m in da_deck.items()] == deck.items()
        same_sq = [
            h for h in mults
            if sum_sq_degrees(certificate_graph(h)) == sum_sq_degrees(g)
        ]
        assert list(da_mults) == same_sq
        for h in same_sq:
            on_cards = [(key.card, m) for key, m in da_mults[h].items()]
            assert on_cards == list(mults[h].items())


def test_scan_files_each_extension_class_with_its_new_edge_degree():
    # sum deg^2(C + uv) = sum deg^2(C) + 2 (deg u + deg v) + 2, so the
    # scan's degree of each class H of every card class C is the degree of
    # the new edge, and the degree-restricted decks partition the scan's
    for n in range(2, 10):
        family = enumerate_graphs(n) if n <= 6 else enumerate_trees(n)
        cards = {key for g in family if g.m >= 1 for key in edge_deck(g)}
        for c in cards:
            card = certificate_graph(c)
            ext, ds, mults = recon._scan(c)
            assert len(ds) == len(mults) == len(ext)
            for h, d in zip(ext, ds):
                h_sq = sum_sq_degrees(certificate_graph(h))
                assert h_sq == sum_sq_degrees(card) + 2 * d + 2, (c, h)
            by_d = Counter()
            for d in set(ds):
                by_d.update(dict(extensions(card, d).items()))
            assert Deck(by_d) == extensions(card) == ext
            assert not extensions(card, max(ds) + 1)


def test_blocked_rejects_cards_outside_own_deck():
    g = P(4)
    for da in (False, True):
        deck = da_edeck(g) if da else edge_deck(g)
        other = da_edeck(star(3)) if da else edge_deck(star(3))
        key, mult = deck.items()[0]
        both = Deck(Counter(dict(deck.items())) + Counter(dict(other.items())))
        for cards in (Deck({key: mult + 1}), other, both):
            with pytest.raises(ValueError, match="sub-multiset"):
                blocked(g, cards, da)


def test_context_rejects_a_wrong_group_order(monkeypatch):
    # one more than the true order: f * |Aut H| / |Aut C| stops dividing
    true_aut = recon._aut
    monkeypatch.setattr(recon, "_aut", lambda cert: (true_aut(cert)[0] + 1, true_aut(cert)[1]))
    recon._scan.cache_clear()  # the check runs when a card class is scanned
    try:
        with pytest.raises(ArithmeticError, match="group order is wrong"):
            recon._context.__wrapped__(canonical_form(P(5)))
    finally:
        recon._scan.cache_clear()  # a scan that divided by chance is wrong


def test_blockers_and_examples_are_canonical_graphs():
    for n in range(2, 6):
        for g in enumerate_graphs(n):
            if g.m < 1:
                continue
            for da in (False, True):
                shown = blockers(g, da)
                for res in (recon_number(g, da), adv_recon_number(g, da)):
                    if res.blocker_example is not None:
                        shown.append(res.blocker_example)
                for h in shown:
                    assert certificate_graph(canonical_form(h)) == h


# --- reconstruction numbers --------------------------------------------------

def test_four_numbers_match_oracle():
    # every graph with n <= 5 and an edge, and every tree with n <= 7,
    # against oracles that never use the package's labeling or decks
    graphs = [g for n in range(2, 6) for g in enumerate_graphs(n) if g.m >= 1]
    graphs += [t for n in (6, 7) for t in enumerate_trees(n)]
    indeterminate = 0
    for g in graphs:
        got = (
            recon_number(g, da=False).value,
            recon_number(g, da=True).value,
            adv_recon_number(g, da=False).value,
            adv_recon_number(g, da=True).value,
        )
        want = (oracles.ern(g), oracles.dern(g), oracles.adv_ern(g), oracles.adv_dern(g))
        assert got == want, g
        indeterminate += got.count(None)
    assert indeterminate > 0

def test_recon_number_examples():
    assert recon_number(disjoint_union(2, complete(3)), da=True).value == 1
    assert recon_number(disjoint_union(2, star(3)), da=True).value == 4
    assert recon_number(disjoint_union(2, star(3)), da=False).value == 5
    assert recon_number(graph_union(star(3), complete(3)), da=True).value == 2
    assert recon_number(graph_union(complete(3), complete(3), K1), da=True).value == 4
    assert recon_number(disjoint_union(2, P(3)), da=True).value == 3
    assert recon_number(disjoint_union(2, P(4)), da=True).value == 2
    assert recon_number(disjoint_union(2, complete(3)), da=False).value == 2
    assert recon_number(star(5), da=True).value == 1
    assert recon_number(P(6), da=True).value == 1


def test_family_theorems_at_the_vertex_cap():
    # the paper's dern values on every instance of its families up to
    # MAX_VERTICES: tP_n (t >= 2), K_{1,n} (n >= 4) and the spiders S^k_L
    # with k >= 3 legs of length L >= 2; K_{1,3} is the proven exception
    cap = graphs.MAX_VERTICES
    ladder = [(disjoint_union(t, path(3)), 3) for t in range(2, cap // 3 + 1)]
    ladder += [
        (disjoint_union(t, path(n)), 2)
        for n in range(4, 17)
        for t in range(2, cap // n + 1)
    ]
    ladder += [(star(n), 1) for n in range(4, cap)]
    ladder += [
        (spider([legs] * k), 2)
        for legs in range(2, cap)
        for k in range(3, (cap - 1) // legs + 1)
    ]
    assert len(ladder) == 107
    for g, want in ladder:
        assert recon_number(g, da=True).value == want, g


def test_recon_number_rejects_edgeless():
    empty = Graph.from_edges(3, [])
    for da in (False, True):
        deck = "da-edeck" if da else "edge-deck"
        for call in (
            lambda: recon_number(empty, da),
            lambda: adv_recon_number(empty, da),
            lambda: blockers(empty, da),
            lambda: blocked(empty, Deck({}), da),
        ):
            with pytest.raises(GraphError, match=f"^{deck} of an edgeless graph$"):
                call()


def test_single_edge_graphs_allowed():
    k2 = Graph.from_edges(2, [(0, 1)])
    assert recon_number(k2, da=True).value == 1
    assert recon_number(k2, da=False).value == 1
    # with a spare vertex the lone edge can move: 2K_1+K_2 vs P_2+K_1 share
    k2_plus = Graph.from_edges(3, [(0, 1)])
    assert recon_number(k2_plus, da=False).value == 1


def test_star3_is_indeterminate():
    # K_{1,3} and K_3 + K_1 carry identical da-edecks, so neither is
    # reconstructible from its full deck
    r = recon_number(star(3), da=True)
    assert r.indeterminate and r.value is None
    assert r.max_shared == da_edeck(star(3)).total
    blocker_decks = [da_edeck(h) for h in blockers(star(3), da=True)]
    assert any(sub_multiset(da_edeck(star(3)), bd) for bd in blocker_decks)
    assert recon_number(star(3), da=False).indeterminate


def test_witness_is_valid_and_minimal():
    for g in (
        disjoint_union(2, star(3)),
        graph_union(star(3), complete(3)),
        disjoint_union(2, P(4)),
        P(6),
    ):
        for da in (False, True):
            res = recon_number(g, da)
            deck = da_edeck(g) if da else edge_deck(g)
            witness = Deck(dict(res.witness))
            assert witness.total == res.value
            assert sub_multiset(witness, deck)
            for h in blockers(g, da):
                hd = da_edeck(h) if da else edge_deck(h)
                assert not sub_multiset(witness, hd)


def test_witness_deterministic():
    g = disjoint_union(2, P(4))
    first = recon_number(g, da=True)
    again = recon_number(g.permuted([3, 2, 1, 0, 7, 6, 5, 4]), da=True)
    assert first.witness == again.witness


def test_single_card_determination_iff_dern_one():
    for n in range(2, 6):
        for g in enumerate_graphs(n):
            if g.m < 1:
                continue
            some = any(
                determines(g.remove_edge(u, v), g.degree(u) + g.degree(v) - 2, g)
                for u, v in g.edges()
            )
            assert some == (recon_number(g, da=True).value == 1)


# --- adversary variants -------------------------------------------------------

def test_adv_regular_graphs():
    for h in (complete(4), cycle(5), disjoint_union(2, complete(3)), cycle(6)):
        res = adv_recon_number(h, da=True)
        assert res.value == 1 and res.max_shared == 0
        assert recon_number(h, da=True).value == 1


def test_adv_equals_min_when_single_card_class():
    g = disjoint_union(2, star(3))
    assert adv_recon_number(g, da=True).value == recon_number(g, da=True).value == 4


def test_adv_dominates_min():
    for g in (P(5), P(7), graph_union(star(3), complete(3))):
        assert adv_recon_number(g).value >= recon_number(g).value


def test_adv_witness_is_max_shared_overlap():
    g = disjoint_union(2, star(3))
    res = adv_recon_number(g, da=True)
    assert res.max_shared == 3
    overlap = Deck(dict(res.witness))
    assert overlap.total == res.max_shared
    assert sub_multiset(overlap, da_edeck(g))
    assert sub_multiset(overlap, da_edeck(res.blocker_example))


# --- tree recognition ----------------------------------------------------------

def test_tree_from_two_cards():
    p5 = P(5)
    end = p5.remove_edge(0, 1)
    mid = p5.remove_edge(2, 3)
    assert is_tree_from_two_cards(end, mid) == "tree"
    s4 = star(4)
    e = s4.edges()[0]
    f = s4.edges()[1]
    assert is_tree_from_two_cards(s4.remove_edge(*e), s4.remove_edge(*f)) == "unknown"
    cat = caterpillar_graph([2, 2])
    leaf_card = cat.remove_edge(0, 2)  # orders {1, 5}
    spine_card = cat.remove_edge(0, 1)  # orders {3, 3}
    assert is_tree_from_two_cards(leaf_card, spine_card) == "tree"
    # a card with a cycle component stays unknown
    assert is_tree_from_two_cards(graph_union(complete(3), K1), end) == "unknown"


def test_tree_from_two_cards_labels_no_component(monkeypatch):
    # the component orders are read from the component masks, so with cold
    # caches no component is labeled
    searched = []
    search = graphs._least_leaf_code
    monkeypatch.setattr(graphs, "_least_leaf_code", lambda g: searched.append(g) or search(g))
    monkeypatch.setattr(graphs, "_groups", OrderedDict())
    monkeypatch.setattr(graphs, "_shapes", OrderedDict())
    canonical_form.cache_clear()
    cat = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    assert is_tree_from_two_cards(cat.remove_edge(0, 2), cat.remove_edge(0, 1)) == "tree"
    assert is_tree_from_two_cards(cat.remove_edge(0, 2), cat.remove_edge(1, 4)) == "unknown"
    triangle = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    assert is_tree_from_two_cards(triangle, cat.remove_edge(0, 1)) == "unknown"
    assert searched == []


def test_relabeled_graph_reuses_blocker_context():
    t = caterpillar_graph([1, 2, 0, 3])
    first = recon_number(t, True)
    perm = list(range(t.n))
    random.Random(5).shuffle(perm)
    relabeled = t.permuted(perm)
    assert relabeled != t
    before = recon._context.cache_info()
    again = recon_number(relabeled, True)
    after = recon._context.cache_info()
    assert after.misses == before.misses and after.hits > before.hits
    assert (again.value, again.witness) == (first.value, first.witness)


def test_context_searches_no_canonical_graph_it_holds(monkeypatch):
    # with cold caches, the context of a relabeled ladder graph labels each
    # card on the deck's own card graph and reads every group from a
    # record: no search is of the canonical graph of a certificate that
    # the graph or an earlier search already gave
    searched = []
    search = graphs._least_leaf_code

    def counted(h):
        found = search(h)
        searched.append((h, Certificate(h.n, h.m, found[0])))
        return found

    monkeypatch.setattr(graphs, "_least_leaf_code", counted)
    rng = random.Random(16)
    for spec in ("U:2*S:3", "U:4*S:2", "U:3*C:4", "U:2*Kpq:2,3", "C:12"):
        monkeypatch.setattr(graphs, "_groups", OrderedDict())
        monkeypatch.setattr(graphs, "_shapes", OrderedDict())
        for cached in (canonical_form, recon._scan):
            cached.cache_clear()
        g = parse_family_spec(spec)
        perm = list(range(g.n))
        rng.shuffle(perm)
        gcert = canonical_form(g.permuted(perm))
        known = {gcert}
        searched.clear()
        recon._context.__wrapped__(gcert)
        assert searched, spec
        for h, c in searched:
            assert h != certificate_graph(c) or c not in known, (spec, c)
            known.add(c)


def test_each_card_class_is_scanned_once(monkeypatch):
    # with cold caches, evaluating every tree on 9 vertices scans each card
    # class once, for ern and for every degree of dern alike
    monkeypatch.setattr(graphs, "_groups", OrderedDict())
    monkeypatch.setattr(graphs, "_shapes", OrderedDict())
    for cached in (canonical_form, recon._scan, recon._context):
        cached.cache_clear()
    trees = list(enumerate_trees(9))
    for t in trees:
        evaluate_graph(t)
    cards = {key.card for t in trees for key in da_edeck(t)}
    info = recon._scan.cache_info()
    assert info.misses == info.currsize == len(cards)


def test_group_orders_are_read_once_per_card_class_and_extension(monkeypatch):
    # with cold caches, evaluating every tree on 9 vertices reads |Aut C|
    # once per card class C and |Aut H| once per extension class H of C:
    # m_H(C) is computed in C's scan and shared by every tree with card C
    monkeypatch.setattr(graphs, "_groups", OrderedDict())
    monkeypatch.setattr(graphs, "_shapes", OrderedDict())
    for cached in (canonical_form, recon._scan, recon._context):
        cached.cache_clear()
    reads = []
    read = recon._aut
    monkeypatch.setattr(recon, "_aut", lambda cert: reads.append(cert) or read(cert))
    trees = list(enumerate_trees(9))
    for t in trees:
        evaluate_graph(t)
    cards = {key.card for t in trees for key in da_edeck(t)}
    pairs = sum(len(extensions(certificate_graph(c))) for c in cards)
    assert (len(cards), pairs) == (46, 609)
    assert len(reads) <= len(cards) + pairs


def test_one_blocker_pass_per_graph(monkeypatch):
    # with a cold context cache, evaluating every tree on 9 vertices builds
    # each tree's da-edeck once and keeps one context per tree, whose two
    # views serve ern, dern and their adversary variants
    built = []
    build = recon._deck_of_cert
    monkeypatch.setattr(recon, "_deck_of_cert", lambda *a: built.append(a[0]) or build(*a))
    recon._context.cache_clear()
    trees = list(enumerate_trees(9))
    for t in trees:
        evaluate_graph(t)
    assert len(trees) == 47
    assert sorted(built) == sorted(canonical_form(t) for t in trees)
    assert recon._context.cache_info().currsize == 47


# --- disjoint-union bound --------------------------------------------------------

def test_union_bound_holds_for_paths():
    bound, holds = union_bound(disjoint_union(2, P(4)))
    assert holds and bound == 3
    pendant = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    bound, holds = union_bound(disjoint_union(2, pendant))
    assert holds


def test_union_bound_builds_each_deck_once(monkeypatch):
    # H's edge-deck is read from the blocker pass that adv_ern(H) reads, so
    # union_bound(2H) builds H's deck and 2H's, once each; the union
    # sweep's uniform-cards check builds H's deck once
    from reconkit.sweep import _check_conj_uniform_cards

    built = []
    build = recon._deck_of_cert
    for module in (decks, recon):
        monkeypatch.setattr(module, "_deck_of_cert", lambda c: built.append(c) or build(c))
    recon._context.cache_clear()
    g = disjoint_union(2, P(4))
    assert union_bound(g) == (3, True)
    assert sorted(built) == sorted([canonical_form(P(4)), canonical_form(g)])
    built.clear()
    g = disjoint_union(3, cycle(5))
    assert _check_conj_uniform_cards(g, evaluate_graph(g))
    built.clear()
    assert _check_conj_uniform_cards(g, evaluate_graph(g))
    assert built == [canonical_form(cycle(5))]


def test_union_bound_rejects_uniform_cards():
    with pytest.raises(GraphError):
        union_bound(disjoint_union(2, star(4)))
    with pytest.raises(GraphError):
        union_bound(P(6))
    with pytest.raises(GraphError):
        union_bound(graph_union(P(4), P(5)))
