import hashlib
import math
import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    automorphism_count,
    exhaustive_isomorphic,
    iso_classes_by_permutation,
    labeled_graphs,
)
from reconkit import (
    Graph,
    Graph6Error,
    GraphError,
    canonical_form,
    canonical_graph,
    certificate_graph,
    complete_bipartite,
    components,
    cycle,
    disjoint_union,
    edge_degree,
    enumerate_graphs,
    enumerate_trees,
    graph_union,
    is_isomorphic,
    parse_family_spec,
    parse_graph6,
    write_graph6,
)
from reconkit import families, graphs
from reconkit.graphs import _aut


def P(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def K(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def S(t):
    return Graph.from_edges(t + 1, [(0, i) for i in range(1, t + 1)])


def rand_graph(rng, n, p=0.4):
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


# --- construction and validation -------------------------------------------

def test_rejects_loops_and_asymmetry():
    with pytest.raises(GraphError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(GraphError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(0, ())
    with pytest.raises(GraphError):
        Graph.from_edges(33, [])
    for build in [
        lambda: Graph(3, (0b010, 0b001)),  # two rows for three vertices
        lambda: Graph(2, (0b110, 0b001)),  # bit 2 beyond vertex 1
        lambda: Graph(2, (0b011, 0b001)),  # loop at vertex 0
        lambda: Graph.from_edges(3, [(0, 3)]),
        lambda: P(3).add_edge(1, 1),
        lambda: P(3).add_vertex([3]),
        lambda: P(3).permuted([0, 0, 1]),
        lambda: P(3).induced([]),
        lambda: P(3).induced([1, 1]),
        lambda: P(3).induced([0, 3]),
        # a vertex id is an int in 0..n-1, and a bool is not one
        lambda: P(3).add_vertex([True]),
        lambda: P(3).add_vertex([1.0]),
        lambda: P(3).permuted([True, False, 2]),
        lambda: P(3).permuted([0.0, 1, 2]),
        lambda: P(3).induced([True, 2]),
        lambda: P(3).induced([0, 1.0]),
        lambda: P(3).degree(-1),
        lambda: P(3).neighbors(-1),
        lambda: P(3).has_edge(True, 2),
        lambda: P(3).has_edge(1.0, 2),
        lambda: P(3).has_edge(0, 7),
        lambda: P(3).add_edge(False, 2),
        lambda: P(3).remove_edge(True, 2),
        lambda: edge_degree(P(3), (0, 2.0)),
        lambda: P(3).degree(5),
        # an adjacency row is an int, and a bool is not one
        lambda: Graph(2, (2.0, 1)),
        lambda: Graph(2, (2, True)),
        lambda: Graph(2, (2, 1.0)),  # read by row 0's symmetry test first
        # a vertex count is an int, and a bool is not one
        lambda: Graph(True, [0]),
        lambda: Graph(2.0, (0b10, 0b01)),
        lambda: Graph.from_edges(3.0, []),
        lambda: families.path(2.5),
        lambda: families.path(True),
        lambda: families.star(2.5),
        lambda: families.complete(3.0),
        lambda: cycle(4.0),
        lambda: complete_bipartite(1.5, 1.5),
    ]:
        with pytest.raises(GraphError):
            build()


def test_edge_ops():
    g = P(4)
    assert g.m == 3
    assert g.degrees() == (1, 2, 2, 1)
    h = g.remove_edge(1, 2)
    assert h.m == 2 and not h.has_edge(1, 2)
    assert h.add_edge(1, 2) == g
    with pytest.raises(GraphError):
        g.add_edge(0, 1)
    with pytest.raises(GraphError):
        g.remove_edge(0, 2)


# --- canonical form ---------------------------------------------------------

def test_relabeling_invariance_small():
    a = Graph.from_edges(3, [(0, 1), (1, 2)])
    b = Graph.from_edges(3, [(0, 2), (1, 2)])
    assert canonical_form(a) == canonical_form(b)
    assert canonical_form(K(3)) != canonical_form(P(3))


def test_distinct_certificates_on_four_vertices():
    # brute-force pairwise isomorphism gives 11 classes; certificates agree
    graphs = list(labeled_graphs(4))
    assert iso_classes_by_permutation(graphs) == 11
    assert len({canonical_form(g) for g in graphs}) == 11


def test_certificates_respect_permutation_orbits_n5():
    groups = {}
    for g in labeled_graphs(5):
        groups.setdefault(canonical_form(g), []).append(g)
    for members in groups.values():
        rep = members[0]
        for other in members[1:5]:
            assert exhaustive_isomorphic(rep, other)
    reps = [members[0] for members in groups.values()]
    for i, a in enumerate(reps):
        for b in reps[i + 1:]:
            assert not exhaustive_isomorphic(a, b)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_canonical_form_permutation_invariant(data):
    n = data.draw(st.integers(1, 8))
    bits = data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
    perm = data.draw(st.permutations(range(n)))
    assert canonical_form(g.permuted(list(perm))) == canonical_form(g)


def test_canonical_graph_is_fixed_point():
    rng = random.Random(7)
    for _ in range(50):
        g = rand_graph(rng, rng.randint(1, 8))
        c = canonical_graph(g)
        assert canonical_graph(c) == c
        assert canonical_form(c) == canonical_form(g)


def test_certificate_code_orders_and_decodes_like_graph6():
    # every class on n <= 6 vertices plus random labeled graphs on n <= 10
    rng = random.Random(11)
    graphs = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    graphs += [rand_graph(rng, rng.randint(1, 10)) for _ in range(200)]
    certs = [canonical_form(g) for g in graphs]
    rng.shuffle(certs)
    assert sorted(certs) == sorted(certs, key=lambda c: (c.n, c.m, c.canon))
    for c in certs:
        h = certificate_graph(c)
        assert canonical_form(h) == c
        assert parse_graph6(c.canon) == h


def cube(d):
    n = 1 << d
    return Graph.from_edges(
        n, [(v, v | 1 << b) for v in range(n) for b in range(d) if not v >> b & 1]
    )


def test_symmetric_ladder_certificates():
    # highly symmetric inputs: one certificate under every relabeling, and
    # the certificate's own graph maps back to it
    rng = random.Random(5)
    ladder = [cycle(n) for n in range(8, 33)]
    ladder += [disjoint_union(k, S(3)) for k in range(2, 9)]
    ladder += [cube(4), cube(5)]
    for g in ladder:
        c = canonical_form(g)
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(g.permuted(perm)) == c
        assert canonical_form(certificate_graph(c)) == c


def relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.permuted(perm)


# SHA-256s of the search's results on the corpora below, made by the
# labeler that CERT_SCHEME "ir1" names
SEARCH_DIGEST = "0e756cf132413ebcf039ba6727594a8d180353b54a2900480cdc54eb49a30e85"
CASCADE_TWIN_DIGEST = "20de84e905d15197a46a57e703f82feb53459e60737df8b9f8b35dfe8dcfa448"

# the symmetric-unions benchmark ladder, in its order
LADDER = [
    "U:2*S:3", "U:3*S:3", "U:4*S:2", "U:5*K:2", "U:3*C:4",
    "U:2*Kpq:2,3", "C:12", "C:13", "U:2*C:6",
]


def search_corpus() -> list:
    """220 graphs under one seeded relabeling: every graph on 1 to 6
    vertices, the ladder, C_32, the 5-cube and 8K_{1,3}."""
    rng = random.Random(5)
    corpus = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    corpus += [parse_family_spec(spec) for spec in LADDER]
    corpus.append(Graph.from_edges(32, [(i, (i + 1) % 32) for i in range(32)]))
    corpus.append(Graph.from_edges(
        32, [(v, v ^ 1 << i) for v in range(32) for i in range(5) if v < v ^ 1 << i]
    ))
    corpus.append(graph_union(*[Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])] * 8))
    assert len(corpus) == 220
    return [relabeled(g, rng) for g in corpus]


def cascade_twin_corpus() -> list:
    """515 graphs the first corpus does not reach, under one seeded
    relabeling: paths, and cycles with a pendant path, on up to 32
    vertices, whose refinement cascades through singleton cells; then K_n
    and K_{p,q}, stars among them, on up to 12 vertices, mostly twins."""
    rng = random.Random(6)
    corpus = [P(n) for n in range(1, 33)]
    corpus += [
        Graph.from_edges(c + t, [(i, (i + 1) % c) for i in range(c)]
                         + [(i, i + 1) for i in range(c - 1, c + t - 1)])
        for c in range(3, 32)
        for t in range(1, 33 - c)
    ]
    corpus += [K(n) for n in range(1, 13)]
    corpus += [complete_bipartite(p, q) for p in range(1, 7) for q in range(p, 13 - p)]
    assert len(corpus) == 515
    return [relabeled(g, rng) for g in corpus]


def search_digest(corpus) -> str:
    """SHA-256 of the search's full result on each graph, not only its
    code: the best order, the first path and every generator in order,
    which the census and the group store read."""
    out = []
    for g in corpus:
        code, order, path, autos = graphs._least_leaf_code(g)
        out.append((code, list(order), list(path), [list(a) for a in autos]))
    return hashlib.sha256(repr(out).encode()).hexdigest()


def search_work(monkeypatch, corpus) -> dict:
    """The calls of ``_refine`` and ``_leaf_code`` that searching the
    corpus makes: a search that explores more of its tree fails a count,
    not a timing."""
    counts = {"_refine": 0, "_leaf_code": 0}

    def counting(name):
        step = getattr(graphs, name)

        def counted(*args):
            counts[name] += 1
            return step(*args)
        return counted

    for name in counts:
        monkeypatch.setattr(graphs, name, counting(name))
    for g in corpus:
        graphs._least_leaf_code(g)
    return counts


def test_search_output_is_pinned():
    assert search_digest(search_corpus()) == SEARCH_DIGEST


def test_search_work_is_pinned(monkeypatch):
    assert search_work(monkeypatch, search_corpus()) == {"_refine": 1076, "_leaf_code": 352}


def test_cascade_and_twin_search_is_pinned(monkeypatch):
    corpus = cascade_twin_corpus()
    assert search_digest(corpus) == CASCADE_TWIN_DIGEST
    assert search_work(monkeypatch, corpus) == {"_refine": 1720, "_leaf_code": 927}


def test_automorphism_group_matches_permutation_oracle_n7():
    # every graph on at most 7 vertices, under a seeded relabeling: the
    # order is the oracle's count and every generator is an automorphism
    # of the canonical graph, in its own labels
    rng = random.Random(3)
    graphs = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    assert len(graphs) == 1252
    for g in graphs:
        cert = canonical_form(relabeled(g, rng))
        order, gens = _aut(cert)
        assert order == automorphism_count(g), g
        canon = certificate_graph(cert)
        for gen in gens:
            assert sorted(gen) == list(range(g.n))
            assert canon.permuted(list(gen)) == canon


def count_searches(monkeypatch) -> list:
    """The graphs handed to graphs._least_leaf_code from now on."""
    calls = []
    search = graphs._least_leaf_code
    monkeypatch.setattr(graphs, "_least_leaf_code", lambda g: calls.append(g) or search(g))
    return calls


def orbits(n, gens) -> set:
    return {frozenset(graphs._orbit(gens, (), [v])) for v in range(n)}


def test_aut_reads_the_group_of_the_search_that_made_the_certificate(monkeypatch):
    # after canonical_form's search of a relabeled graph, _aut runs no
    # search: it reads the group that search stored
    monkeypatch.setattr(graphs, "_groups", OrderedDict())
    monkeypatch.setattr(graphs, "_shapes", OrderedDict())
    calls = count_searches(monkeypatch)
    rng = random.Random(4)
    for g in (g for n in range(1, 8) for g in enumerate_graphs(n)):
        cert = canonical_form.__wrapped__(relabeled(g, rng))
        calls.clear()
        assert _aut(cert)[0] == automorphism_count(g), g
        assert calls == []
    # a cold graph census stores no group: it keeps each class's graph with
    # the generators of that graph's own search
    monkeypatch.setattr(graphs, "_groups", OrderedDict())
    monkeypatch.setattr(graphs, "_shapes", OrderedDict())
    families._census.cache_clear()
    censuses = [families._census(n) for n in range(1, 8)]
    assert not graphs._groups
    for n, census in enumerate(censuses, 1):
        for cert, g, gens in census:
            assert canonical_form.__wrapped__(g) == cert
            for gen in gens:
                assert sorted(gen) == list(range(n))
                assert g.permuted(list(gen)) == g, (cert, gen)
    # a cold tree census labels each tree once, by canonical_form, which
    # stores its shape and group: each canonical tree is then found by its
    # shape and _aut reads its group, without a search
    monkeypatch.setattr(graphs, "_groups", OrderedDict())
    monkeypatch.setattr(graphs, "_shapes", OrderedDict())
    canonical_form.cache_clear()
    calls.clear()
    trees = list(enumerate_trees(9))
    assert len(trees) == len(calls) == len(graphs._groups) == 47
    calls.clear()
    for t in trees:
        assert _aut(canonical_form(t))[0] == automorphism_count(t), t
    assert calls == []


def test_aut_without_a_record_searches_the_canonical_graph(monkeypatch):
    # the same order and orbits from the recorded group of a relabeled
    # graph's search as from a search of the canonical graph itself
    rng = random.Random(5)
    certs = [
        canonical_form.__wrapped__(relabeled(g, rng))
        for n in range(1, 8)
        for g in enumerate_graphs(n)
    ]
    recorded = [_aut(cert) for cert in certs]
    monkeypatch.setattr(graphs, "_groups", OrderedDict())
    monkeypatch.setattr(graphs, "_shapes", OrderedDict())
    calls = count_searches(monkeypatch)
    for cert, (order, gens) in zip(certs, recorded):
        calls.clear()
        fresh_order, fresh_gens = _aut(cert)
        assert calls == [certificate_graph(cert)]
        assert fresh_order == order == automorphism_count(certificate_graph(cert))
        assert orbits(cert.n, fresh_gens) == orbits(cert.n, gens)
    assert list(graphs._groups) == certs  # each search recorded once


def test_group_store_stays_within_its_cap(monkeypatch):
    cap = 40
    monkeypatch.setattr(graphs, "_GROUPS_CAP", cap)
    monkeypatch.setattr(graphs, "_groups", OrderedDict())
    monkeypatch.setattr(graphs, "_shapes", OrderedDict())
    rng = random.Random(6)
    graphs_ = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    assert len(graphs_) > 3 * cap
    certs = []
    for g in graphs_:
        certs.append(canonical_form.__wrapped__(relabeled(g, rng)))
        assert len(graphs._groups) <= cap
    assert list(graphs._groups) == certs[-cap:]  # least recently used out first
    # a certificate whose group is kept gets no second record
    kept = dict(graphs._groups)
    for g in graphs_[-cap:]:
        canonical_form.__wrapped__(relabeled(g, rng))
    assert all(graphs._groups[c] is kept[c] for c in kept)
    # an evicted certificate still gets its group, by a search of its own
    for g, cert in zip(graphs_[:cap], certs[:cap]):
        assert _aut(cert)[0] == automorphism_count(g), g


def test_group_store_evicts_the_least_recently_used(monkeypatch):
    monkeypatch.setattr(graphs, "_GROUPS_CAP", 3)
    monkeypatch.setattr(graphs, "_groups", OrderedDict())
    monkeypatch.setattr(graphs, "_shapes", OrderedDict())
    c3, c4, c5 = (canonical_form.__wrapped__(cycle(n)) for n in (3, 4, 5))
    _aut(c3)  # a read makes C_3's group the most recently used
    c6 = canonical_form.__wrapped__(cycle(6))
    assert list(graphs._groups) == [c5, c3, c6]


def cycles_at_most_one_per_component(g) -> bool:
    """Every component has at most as many edges as vertices."""
    for mask in graphs._component_masks(g):
        edges = sum((g.rows[v] & mask).bit_count() for v in range(g.n) if mask >> v & 1)
        if edges // 2 > mask.bit_count():
            return False
    return True


def ir1_certificate(g):
    return graphs.Certificate(g.n, g.m, graphs._least_leaf_code(g)[0])


def test_shape_is_none_exactly_with_two_cycles_in_a_component():
    rng = random.Random(21)
    for g in (g for n in range(1, 8) for g in enumerate_graphs(n)):
        g = relabeled(g, rng)
        assert (graphs._shape(g) is None) != cycles_at_most_one_per_component(g), g
    # past the edge count: a theta graph beside enough isolated vertices
    theta = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert theta.m <= theta.n and graphs._shape(theta) is None


def test_shape_is_exact_on_graphs_with_at_most_one_cycle_per_component():
    # equal shapes exactly when the ir1 certificates of the search are
    # equal, on every such graph with n <= 7, every forest card of every
    # tree with n <= 10 and every one-edge extension of those cards; each
    # graph's shape is also its relabeled copy's
    rng = random.Random(22)
    pseudoforests = [
        g
        for n in range(1, 8)
        for g in enumerate_graphs(n)
        if cycles_at_most_one_per_component(g)
    ]
    cards = [
        t.remove_edge(u, v)
        for n in range(2, 11)
        for t in enumerate_trees(n)
        for u, v in t.edges()
    ]
    one_per_class = {ir1_certificate(c): c for c in cards}.values()
    extensions = [
        c.add_edge(u, v)
        for c in one_per_class
        for u in range(c.n)
        for v in range(u + 1, c.n)
        if not c.has_edge(u, v)
    ]
    pairs = set()
    for g in pseudoforests + cards + extensions:
        shape = graphs._shape(g)
        assert shape is not None and graphs._shape(relabeled(g, rng)) == shape, g
        pairs.add((shape, ir1_certificate(g)))
    assert len(pairs) == len({s for s, _ in pairs}) == len({c for _, c in pairs})
    assert len(pairs) == 1174  # classes, each met under several labelings


def test_automorphism_group_closed_forms():
    rng = random.Random(9)
    ladder = [(cycle(n), 2 * n) for n in range(3, 14)]
    ladder += [(disjoint_union(k, S(3)), 6**k * math.factorial(k)) for k in range(1, 9)]
    ladder += [
        (K(12), math.factorial(12)),
        (parse_family_spec("S:31"), math.factorial(31)),
        (parse_family_spec("U:16*K:2"), 2**16 * math.factorial(16)),
        (cube(5), 3840),
    ]
    for g, order in ladder:
        cert = canonical_form(relabeled(g, rng))
        size, gens = _aut(cert)
        assert size == order, g
        # every generator is an automorphism of the canonical graph
        canon = certificate_graph(cert)
        for gen in gens:
            assert canon.permuted(list(gen)) == canon, (g, gen)


def test_regular_look_alikes_have_distinct_certificates():
    prism = Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )
    groups = [
        [cycle(6), disjoint_union(2, K(3))],
        [complete_bipartite(3, 3), prism],
        [cycle(12), disjoint_union(2, cycle(6)), disjoint_union(3, cycle(4)),
         disjoint_union(4, K(3))],
    ]
    for group in groups:
        assert len({canonical_form(g) for g in group}) == len(group)
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                if a.n <= 8:
                    assert not exhaustive_isomorphic(a, b)
                else:  # too many bijections to try; components differ
                    assert len(components(a)) != len(components(b))


def test_is_isomorphic_examples():
    assert not is_isomorphic(S(3), K(3))
    p4 = P(4)
    assert is_isomorphic(p4, p4.permuted([3, 2, 1, 0]))
    two_p3 = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    other = Graph.from_edges(6, [(0, 2), (2, 4), (1, 3), (3, 5)])
    assert is_isomorphic(two_p3, other)


def test_is_isomorphic_matches_oracle():
    rng = random.Random(3)
    for n in (5, 6):
        for _ in range(60):
            g = rand_graph(rng, n)
            h = rand_graph(rng, n)
            assert is_isomorphic(g, h) == exhaustive_isomorphic(g, h)
        # permuted pairs exercise the isomorphic branch
        for _ in range(20):
            g = rand_graph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            assert is_isomorphic(g, g.permuted(perm))
            assert exhaustive_isomorphic(g, g.permuted(perm))


# --- edge degree ------------------------------------------------------------

def test_edge_degree():
    assert edge_degree(K(3), (0, 1)) == 2
    assert edge_degree(S(4), (0, 1)) == 3
    p4 = P(4)
    assert edge_degree(p4, (1, 2)) == 2
    assert edge_degree(p4, (0, 1)) == 1
    with pytest.raises(GraphError):
        edge_degree(p4, (0, 2))


# --- components -------------------------------------------------------------

def test_components_examples():
    g = Graph.from_edges(
        7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )  # 2K_3 + K_1
    comps = components(g)
    assert [c.n for c in comps] == [3, 3, 1]
    assert all(is_isomorphic(c, K(3)) for c in comps[:2])
    assert components(P(5)) == [P(5)]


def test_components_of_star_card():
    # deleting one edge from 2K_{1,3} leaves K_{1,3}, P_3, and an isolate
    g = Graph.from_edges(
        8, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)]
    ).remove_edge(4, 7)
    comps = components(g)
    assert [c.n for c in comps] == [4, 3, 1]
    assert is_isomorphic(comps[0], S(3))
    assert is_isomorphic(comps[1], P(3))


def test_component_counts_sum():
    rng = random.Random(11)
    for _ in range(50):
        g = rand_graph(rng, rng.randint(1, 9), 0.25)
        comps = components(g)
        assert sum(c.n for c in comps) == g.n
        assert sum(c.m for c in comps) == g.m


# --- graph6 -----------------------------------------------------------------

def test_graph6_known_strings():
    assert write_graph6(K(3)) == "Bw"
    assert write_graph6(Graph.from_edges(1, [])) == "@"
    assert parse_graph6("Bw") == K(3)
    assert parse_graph6(">>graph6<<Bw") == K(3)


def test_graph6_roundtrip_random():
    rng = random.Random(0)
    for _ in range(1000):
        g = rand_graph(rng, rng.randint(1, 10))
        assert parse_graph6(write_graph6(g)) == g


def test_graph6_errors_report_offsets():
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("")
    assert exc.value.offset == 0
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("B")  # missing body byte
    assert exc.value.offset == 1
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("B" + chr(20))
    assert exc.value.offset == 1
    with pytest.raises(Graph6Error):
        parse_graph6("~??")  # long form unsupported
    for text in ("!", "?"):  # header byte below 63; zero vertices
        with pytest.raises(Graph6Error) as exc:
            parse_graph6(text)
        assert exc.value.offset == 0
    # nonzero padding: n=2 needs 1 body byte with 5 padding bits
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("A" + chr(63 + 1))
    assert exc.value.offset == 1
