import hashlib
from collections import Counter, OrderedDict
from itertools import combinations

import pytest

from oracles import (
    ahu_code,
    exhaustive_isomorphic,
    iso_classes_by_permutation,
    labeled_graphs,
    prufer_tree_class_count,
)
from reconkit import (
    Graph,
    GraphError,
    canonical_form,
    canonical_graph,
    caterpillar_graph,
    complete,
    complete_bipartite,
    components,
    cycle,
    disjoint_union,
    enumerate_graphs,
    enumerate_trees,
    graph_union,
    is_isomorphic,
    parse_family_spec,
    path,
    resolve_graph_input,
    seq_of,
    spider,
    star,
    write_graph6,
)
from reconkit import families, graphs
from reconkit.caterpillar import CaterpillarSeq
from reconkit.sweep import (
    identifying_cards,
    sweep_caterpillars,
    sweep_disconnected,
    sweep_trees,
)
from reconkit.graphs import MAX_VERTICES


def test_named_constructors():
    assert sorted(star(3).degrees()) == [1, 1, 1, 3]
    kpq = complete_bipartite(2, 3)
    assert kpq.m == 6 and sorted(kpq.degrees()) == [2, 2, 2, 3, 3]
    assert path(2).m == 1 and path(2).n == 2
    assert cycle(4).degrees() == (2, 2, 2, 2)
    with pytest.raises(GraphError):
        cycle(2)
    with pytest.raises(GraphError):
        path(0)


def test_disjoint_union():
    g = disjoint_union(2, complete(3))
    assert (g.n, g.m, len(components(g))) == (6, 6, 2)
    g = disjoint_union(3, path(3))
    assert (g.n, g.m) == (9, 6)
    assert disjoint_union(1, path(4)) == path(4)
    with pytest.raises(GraphError):
        disjoint_union(9, complete(4))  # 36 vertices


def test_caterpillar_graph():
    g = caterpillar_graph([2, 0, 2])
    assert g.n == 7
    assert sorted(g.degrees(), reverse=True)[:3] == [3, 3, 2]  # spine degrees
    assert is_isomorphic(caterpillar_graph([1, 0, 0, 1]), path(6))
    assert caterpillar_graph([2, 2]).n == 6


def test_caterpillar_properties():
    import itertools
    for n in range(1, 5):
        for tup in itertools.product(range(4), repeat=n):
            if n >= 2 and (tup[0] < 1 or tup[-1] < 1):
                continue
            if n == 1 and tup[0] < 1:
                continue
            g = caterpillar_graph(tup)
            assert g.m == g.n - 1 and len(components(g)) == 1
            assert seq_of(g) is not None  # leaves removed is a path
            assert is_isomorphic(g, caterpillar_graph(tup[::-1]))


def test_spider():
    assert spider([1, 1, 2]).n == 5
    assert spider([2, 2, 2]).n == 7
    assert is_isomorphic(spider([1, 1, 1]), star(3))
    with pytest.raises(GraphError):
        spider([3, 4])  # that is a path, not a spider
    with pytest.raises(GraphError):
        spider([1, 1, 0])


def test_tree_counts_against_prufer_oracle():
    for n in range(1, 8):
        assert len(list(enumerate_trees(n))) == prufer_tree_class_count(n)


def test_tree_counts_frozen():
    # larger values computed once with the same Prufer oracle and frozen
    assert len(list(enumerate_trees(8))) == 23
    assert len(list(enumerate_trees(9))) == 47
    assert len(list(enumerate_trees(10))) == 106


def test_trees_are_deduplicated_trees():
    for n in (6, 8):
        trees = list(enumerate_trees(n))
        assert len({canonical_form(t) for t in trees}) == len(trees)
        graph_certs = {canonical_form(g) for g in enumerate_graphs(min(n, 8), n - 1)}
        for t in trees:
            assert t.m == t.n - 1 and len(components(t)) == 1
            if n <= 8:
                assert canonical_form(t) in graph_certs


def test_graph_counts():
    # OEIS A000088: graphs on n unlabeled vertices
    counts = [len(list(enumerate_graphs(n))) for n in range(1, 9)]
    assert counts == [1, 2, 4, 11, 34, 156, 1044, 12346]
    # OEIS A008406: the graphs on 8 vertices by edge count
    by_edges = Counter(g.m for g in enumerate_graphs(8))
    assert [by_edges[m] for m in range(29)] == [
        1, 1, 2, 5, 11, 24, 56, 115, 221, 402, 663, 980, 1312, 1557, 1646,
        1557, 1312, 980, 663, 402, 221, 115, 56, 24, 11, 5, 2, 1, 1,
    ]
    assert iso_classes_by_permutation(labeled_graphs(4)) == 11
    assert len(list(enumerate_graphs(5, 4))) == 6
    assert len(list(enumerate_graphs(5, 0))) == len(list(enumerate_graphs(5, 10))) == 1
    with pytest.raises(GraphError):
        list(enumerate_graphs(9))
    # an edge count is an int (not a bool) in 0..n(n-1)/2
    for m in (True, False, 2.0, "4", -1, 11, 99):
        with pytest.raises(GraphError):
            list(enumerate_graphs(5, m))
    with pytest.raises(GraphError):
        list(enumerate_trees(17))
    # so is a vertex count: True would yield K1, and 2.0 fail on a shift
    for enumerate_family, n in (
        (enumerate_graphs, True), (enumerate_graphs, 2.0),
        (enumerate_trees, True), (enumerate_trees, 3.0),
    ):
        with pytest.raises(GraphError):
            list(enumerate_family(n))


def test_bad_counts_rejected_by_the_gate(monkeypatch):
    # a bool, a float, an out-of-range int and, for a caterpillar entry, a
    # str: each is a GraphError naming the quantity, its bounds and the
    # value, raised before any graph is built, and never a TypeError
    k2 = path(2)

    def refuse(*args):
        raise AssertionError("built a graph from a bad count")

    monkeypatch.setattr(Graph, "__init__", refuse)
    monkeypatch.setattr(Graph, "_raw", staticmethod(refuse))
    table = [
        (lambda: star(True), "star leaf count must be in 1..31, got True"),
        (lambda: star(2.0), "star leaf count must be in 1..31, got 2.0"),
        (lambda: star(0), "star leaf count must be in 1..31, got 0"),
        (lambda: complete_bipartite(True, 2), "part p must be in 1..31, got True"),
        (lambda: complete_bipartite(2, 1.5), "part q must be in 1..31, got 1.5"),
        (lambda: complete_bipartite(2, 0), "part q must be in 1..31, got 0"),
        (lambda: cycle(True), "cycle length must be in 3..32, got True"),
        (lambda: cycle(4.0), "cycle length must be in 3..32, got 4.0"),
        (lambda: cycle(2), "cycle length must be in 3..32, got 2"),
        (lambda: spider([True, 1, 1]), "spider leg must be in 1..31, got True"),
        (lambda: spider([1.0, 1, 1]), "spider leg must be in 1..31, got 1.0"),
        (lambda: spider([1, 1, 0]), "spider leg must be in 1..31, got 0"),
        (lambda: disjoint_union(True, k2), "copy count must be in 1..32, got True"),
        (lambda: disjoint_union(2.0, k2), "copy count must be in 1..32, got 2.0"),
        (lambda: disjoint_union(0, k2), "copy count must be in 1..32, got 0"),
        (lambda: parse_family_spec("U:0*K:2"), "union count must be in 1..32, got 0"),
        (lambda: list(enumerate_trees(True)), "tree enumeration n must be in 1..16, got True"),
        (lambda: list(enumerate_trees(3.0)), "tree enumeration n must be in 1..16, got 3.0"),
        (lambda: list(enumerate_trees(17)), "tree enumeration n must be in 1..16, got 17"),
        (lambda: list(enumerate_graphs(True)), "graph enumeration n must be in 1..8, got True"),
        (lambda: list(enumerate_graphs(2.0)), "graph enumeration n must be in 1..8, got 2.0"),
        (lambda: list(enumerate_graphs(9)), "graph enumeration n must be in 1..8, got 9"),
        (lambda: list(enumerate_graphs(5, False)), "edge count must be in 0..10, got False"),
        (lambda: list(enumerate_graphs(5, 2.0)), "edge count must be in 0..10, got 2.0"),
        (lambda: list(enumerate_graphs(5, 11)), "edge count must be in 0..10, got 11"),
        (lambda: CaterpillarSeq([True, 1]), "caterpillar entry must be in 0..inf, got True"),
        (lambda: CaterpillarSeq([1.5, 2]), "caterpillar entry must be in 0..inf, got 1.5"),
        (lambda: CaterpillarSeq([1, -1, 1]), "caterpillar entry must be in 0..inf, got -1"),
        (lambda: CaterpillarSeq(["3", 1]), "caterpillar entry must be in 0..inf, got '3'"),
        (lambda: caterpillar_graph([1.7, 2]), "caterpillar entry must be in 0..inf, got 1.7"),
        (lambda: sweep_trees(True, "dern-le-2"), "tree sweep n must be in 2..16, got True"),
        (lambda: sweep_trees(5.0, "dern-le-2"), "tree sweep n must be in 2..16, got 5.0"),
        (lambda: sweep_caterpillars(17, "dern-le-2"), "sweep n must be in 2..16, got 17"),
        (lambda: sweep_disconnected(True, 3, "conj-2.1"), "sweep k must be in 2..16, got True"),
        (lambda: sweep_disconnected(2.0, 3, "conj-2.1"), "sweep k must be in 2..16, got 2.0"),
        (lambda: sweep_disconnected(1, 3, "conj-2.1"), "sweep k must be in 2..16, got 1"),
        (lambda: sweep_disconnected(2, True, "conj-2.1"), "n(H) must be in 2..8, got True"),
        (lambda: sweep_disconnected(2, 3.0, "conj-2.1"), "n(H) must be in 2..8, got 3.0"),
        (lambda: sweep_disconnected(2, 9, "conj-2.1"), "n(H) must be in 2..8, got 9"),
    ]
    for call, message in table:
        with pytest.raises(GraphError) as exc:
            call()
        assert message in str(exc.value), message
    monkeypatch.undo()
    # a position is one of the reduction positions, so an int: otherwise
    # the same ValueError as for an int that is not one of them
    s = CaterpillarSeq((2, 0, 3))
    assert len(identifying_cards(s, (1, 3))) == 2
    for positions in ((1.0, 3), (True, 3), (2, 3)):
        with pytest.raises(ValueError, match=r"is not one of \[1, 3\]"):
            identifying_cards(s, positions)


def count_searches(monkeypatch) -> list:
    """The graphs handed to the labeling search from now on, wherever it
    is bound."""
    calls = []
    search = graphs._least_leaf_code

    def counted(g):
        calls.append(g)
        return search(g)

    for module in (graphs, families):
        monkeypatch.setattr(module, "_least_leaf_code", counted)
    return calls


def test_cold_graph_census_labels_few_children_it_drops(monkeypatch):
    # a child is labeled only when its new vertex has least degree and the
    # greatest invariant; the search then decides between the tied vertices
    calls = count_searches(monkeypatch)
    families._census.cache_clear()
    censuses = [families._census(n) for n in range(1, 8)]
    classes = sum(len(census) for census in censuses[1:])
    assert classes == 1251  # OEIS A000088, n = 2..7
    assert classes <= len(calls) == 1299  # least degree alone labeled 1,639
    for census in censuses:
        certs = [cert for cert, _g, _gens in census]
        assert len(set(certs)) == len(certs)


# OEIS A000055: free trees on n unlabeled vertices, n = 0..16
FREE_TREES = [1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320]


def test_level_sequences_make_each_tree_once_without_labeling(monkeypatch):
    # the AHU code at the centre, an oracle apart from the labeler, tells
    # the generated trees apart
    calls = count_searches(monkeypatch)
    for n in range(1, 17):
        codes = set()
        for levels in families._level_sequences(n):
            t = families._tree(levels)
            assert t.m == n - 1 and len(graphs._component_masks(t)) == 1
            codes.add(ahu_code(n, t.edges()))
        assert len(codes) == FREE_TREES[n], n
    assert calls == []


def test_cold_tree_census_labels_each_tree_once(monkeypatch):
    calls = count_searches(monkeypatch)
    monkeypatch.setattr(graphs, "_shapes", OrderedDict())
    canonical_form.cache_clear()
    trees = list(enumerate_trees(12))
    assert len(trees) == len(calls) == 551
    # enumeration keeps nothing, and a second one searches no tree again
    calls.clear()
    assert list(enumerate_trees(12)) == trees and calls == []


def census_digest(graphs) -> str:
    text = "".join(write_graph6(g) + "\n" for g in graphs)
    return hashlib.sha256(text.encode()).hexdigest()


def test_census_pinned_in_yield_order():
    # the graph6 text of every yielded graph, in yield order, over every size
    graphs = (g for n in range(1, 9) for g in enumerate_graphs(n))
    assert census_digest(graphs) == (
        "9facfabaa9163676991aecafbc836ee850cbe284bce05637a0c01dae8787e4d2"
    )
    trees = (t for n in range(1, 13) for t in enumerate_trees(n))
    assert census_digest(trees) == (
        "2c10325cfe9ec091af89d1c3ae8f68124808335b0288b06adccffc3fe48e28f2"
    )


def test_census_entries_pinned():
    # the census's whole entries, not only the graphs it yields: each
    # class's certificate, the child the census built, in its own labels,
    # and the generators of that child's search
    entries = [
        (tuple(cert), list(g.rows), [list(gen) for gen in gens])
        for n in range(1, 8)
        for cert, g, gens in families._census(n)
    ]
    assert len(entries) == 1252
    assert hashlib.sha256(repr(entries).encode()).hexdigest() == (
        "5070e4583d1c1fa93b489e0cf7bee2f0443999634e161fcc8493a8350d3ece7a"
    )


def test_census_classes_distinct_by_oracle():
    # With the A000088 and Prufer counts, pairwise non-isomorphism decided
    # by the permutation oracle shows each census complete and duplicate-free.
    census = [list(enumerate_graphs(n)) for n in range(1, 8)]
    census += [list(enumerate_trees(n)) for n in range(1, 10)]
    for graphs in census:
        by_degrees: dict = {}
        for g in graphs:
            assert canonical_graph(g) == g
            by_degrees.setdefault(tuple(sorted(g.degrees())), []).append(g)
        for same in by_degrees.values():
            for g, h in combinations(same, 2):
                assert not exhaustive_isomorphic(g, h), (g, h)


def test_family_grammar():
    g = parse_family_spec("U:2*S:3")
    assert (g.n, g.m, len(components(g))) == (8, 6, 2)
    assert is_isomorphic(parse_family_spec("cat:2,0,2"), caterpillar_graph([2, 0, 2]))
    assert is_isomorphic(parse_family_spec("spider:1,1,2"), spider([1, 1, 2]))
    assert is_isomorphic(parse_family_spec("Kpq:2,3"), complete_bipartite(2, 3))
    mixed = parse_family_spec("U:2*K:3+K:1")
    assert (mixed.n, mixed.m) == (7, 6)
    with pytest.raises(GraphError):
        parse_family_spec("X:3")
    with pytest.raises(GraphError):
        parse_family_spec("P4")
    for spec in ("S:0", "Kpq:0,3"):
        with pytest.raises(GraphError):
            parse_family_spec(spec)
    for spec in ("Kpq:1,2,3", "Kpq:5", "P:3,4"):
        with pytest.raises(GraphError, match="comma-separated integers"):
            parse_family_spec(spec)


def test_family_specs_build_the_listed_graphs():
    def listed(n, edges):
        return canonical_graph(Graph.from_edges(n, edges))

    # canonical families, up to the cap: the canonical graph of the edge list
    for n in range(1, MAX_VERTICES + 1):
        assert parse_family_spec(f"P:{n}") == listed(n, [(i, i + 1) for i in range(n - 1)])
        assert parse_family_spec(f"K:{n}") == listed(n, list(combinations(range(n), 2)))
        if n >= 2:
            assert parse_family_spec(f"S:{n - 1}") == listed(n, [(0, i) for i in range(1, n)])
        if n >= 3:
            assert parse_family_spec(f"C:{n}") == listed(n, [(i, (i + 1) % n) for i in range(n)])
        for p in range(1, n):
            edges = [(i, j) for i in range(p) for j in range(p, n)]
            assert parse_family_spec(f"Kpq:{p},{n - p}") == listed(n, edges)
    # labeled families keep their construction labels
    assert parse_family_spec("cat:2,0,2") == Graph.from_edges(
        7, [(0, 1), (1, 2), (0, 3), (0, 4), (2, 5), (2, 6)]
    )
    assert parse_family_spec("spider:1,1,2") == Graph.from_edges(
        5, [(0, 1), (0, 2), (0, 3), (3, 4)]
    )
    assert parse_family_spec("U:2*K:3+K:1") == Graph.from_edges(
        7, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    )
    assert parse_family_spec("U:2*P:3") == graph_union(path(3), path(3))


def test_resolve_graph_input():
    assert resolve_graph_input("P:3").n == 3
    g = complete(3)
    assert resolve_graph_input(write_graph6(g)) == g
