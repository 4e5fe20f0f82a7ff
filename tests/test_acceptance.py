"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines and timings.
Four published statements behind criteria 8, 10, 14 and 16 are false in
one spot each (see README).  Those criteria assert the proven value
instead, next to a proof from `oracles` that uses permutation isomorphism
and never the package's canonical labeling; each test's comment quotes the
published statement it replaces.
"""

import itertools
import time

from oracles import (
    blocker,
    carries,
    da_ecards,
    exhaustive_isomorphic,
    iso_classes_by_permutation,
    labeled_graphs,
    one_edge_extensions,
    prufer_tree_class_count,
)
from reconkit import (
    CaterpillarSeq,
    DaEcard,
    Deck,
    Graph,
    adv_recon_number,
    blockers,
    canonical_form,
    caterpillar_graph,
    complete,
    complete_bipartite,
    components,
    cycle,
    da_edeck,
    disjoint_union,
    edge_deck,
    enumerate_graphs,
    enumerate_trees,
    graph_union,
    identifying_pair,
    intersection_size,
    is_path_sequence,
    path,
    recon_number,
    reconstruct,
    reductions,
    seq_of,
    spider,
    star,
    sub_multiset,
    union_bound,
)
from reconkit.sweep import identifying_cards, pair_certifies, sweep_trees

K1 = Graph.from_edges(1, [])


def report(cid, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {cid}: {detail}  ({time.time() - t0:.1f}s)")


def dern(g):
    return recon_number(g, da=True).value


def ern(g):
    return recon_number(g, da=False).value


def check_values(cid, t0, pairs):
    got = [(label, fn(), want) for label, fn, want in pairs]
    bad = [(label, value, want) for label, value, want in got if value != want]
    report(cid, not bad, "; ".join(f"{l}={v} (want {w})" for l, v, w in got), t0)
    assert not bad, f"criterion {cid} mismatches: {bad}"


def star3_shares_its_da_edeck():
    """Oracle proof that K_{1,3} is indeterminate: K_3 + K_1 is not
    isomorphic to it, has as many edges, and carries its whole da-edeck, so
    the two da-edecks are equal and no sub-multiset determines the star."""
    k13, other = star(3), graph_union(complete(3), K1)
    return (
        other.m == k13.m
        and carries(other, da_ecards(k13))
        and not exhaustive_isomorphic(other, k13)
    )


def test_criterion_01_triangle_unions():
    t0 = time.time()
    check_values(1, t0, [
        ("dern(2K3)", lambda: dern(disjoint_union(2, complete(3))), 1),
        ("dern(3K3)", lambda: dern(disjoint_union(3, complete(3))), 1),
    ])


def test_criterion_02_double_star():
    t0 = time.time()
    check_values(2, t0, [
        ("dern(2K13)", lambda: dern(disjoint_union(2, star(3))), 4),
        ("ern(2K13)", lambda: ern(disjoint_union(2, star(3))), 5),
    ])


def test_criterion_03_bigger_stars():
    t0 = time.time()
    check_values(3, t0, [
        ("dern(2K14)", lambda: dern(disjoint_union(2, star(4))), 1),
    ])


def test_criterion_04_star_triangle_mix():
    t0 = time.time()
    check_values(4, t0, [
        ("dern(K13+K3)", lambda: dern(graph_union(star(3), complete(3))), 2),
    ])


def test_criterion_05_isolated_vertex_cases():
    t0 = time.time()
    check_values(5, t0, [
        ("dern(2K3+K1)", lambda: dern(graph_union(complete(3), complete(3), K1)), 4),
        ("dern(2K13+K1)", lambda: dern(graph_union(star(3), star(3), K1)), 4),
    ])


def test_criterion_06_path_unions():
    t0 = time.time()
    check_values(6, t0, [
        ("dern(2P3)", lambda: dern(disjoint_union(2, path(3))), 3),
        ("dern(3P3)", lambda: dern(disjoint_union(3, path(3))), 3),
        ("dern(2P4)", lambda: dern(disjoint_union(2, path(4))), 2),
        ("dern(2P5)", lambda: dern(disjoint_union(2, path(5))), 2),
        ("dern(3P4)", lambda: dern(disjoint_union(3, path(4))), 2),
    ])


def test_criterion_07_remark_values():
    t0 = time.time()
    check_values(7, t0, [
        ("dern(2K23)", lambda: dern(disjoint_union(2, complete_bipartite(2, 3))), 3),
        ("dern(2K12)", lambda: dern(disjoint_union(2, path(3))), 3),
    ])


def test_criterion_08_spiders_and_stars():
    t0 = time.time()
    # Published: "although $dern(K_{1,n}) = 1$", pinned here as
    # ("dern(K13)", ..., 1).  It fails at n = 3: all three da-ecards of
    # K_{1,3} are (P_3 + K_1, d=2), and so are all three of K_3 + K_1, so the
    # star is indeterminate.  The oracle row proves the equal da-edecks; the
    # stars with n >= 4 and both spiders keep their published values.
    check_values(8, t0, [
        ("dern(S_2^3)", lambda: dern(spider([2, 2, 2])), 2),
        ("dern(S_2^5)", lambda: dern(spider([2, 2, 2, 2, 2])), 2),
        ("dern(K13)", lambda: dern(star(3)), None),
        ("oracle: K3+K1 has the da-edeck of K13", star3_shares_its_da_edeck, True),
        ("dern(K14)", lambda: dern(star(4)), 1),
        ("dern(K15)", lambda: dern(star(5)), 1),
        ("dern(K16)", lambda: dern(star(6)), 1),
    ])


def test_criterion_09_odd_paths():
    t0 = time.time()
    check_values(9, t0, [
        ("ern(2K3)", lambda: ern(disjoint_union(2, complete(3))), 2),
        ("ern(P5)", lambda: ern(path(5)), 3),
        ("ern(P7)", lambda: ern(path(7)), 3),
        ("dern(P5)", lambda: dern(path(5)), 1),
        ("dern(P7)", lambda: dern(path(7)), 1),
    ])


def test_criterion_10_hand_checked_trees():
    t0 = time.time()
    # Published: dern(<2,1,2>) = 1, pinned here as
    # ("dern(<2,1,2>)", ..., 1).  The true value is 2.  Each of the three
    # da-ecard classes has a carrier not isomorphic to G: the spine card
    # P_3 + S_{1,1,2} with d=4 extends to the caterpillar <1,2,0,1>, and
    # both leaf-card classes (d=2) extend to a unicyclic graph plus an
    # isolated vertex.  The oracle rows prove both halves: every single
    # card is blocked, and some pair of cards is blocked by no graph.
    g = caterpillar_graph([2, 1, 2])
    cards = da_ecards(g)
    spine_card = (g.remove_edge(0, 1), 4)
    check_values(10, t0, [
        ("dern(<2,0,2>)", lambda: dern(caterpillar_graph([2, 0, 2])), 1),
        ("dern(<2,1,2>)", lambda: dern(g), 2),
        ("oracle: every da-ecard of <2,1,2> is blocked",
         lambda: all(blocker(g, [card]) is not None for card in cards), True),
        ("oracle: some pair of da-ecards of <2,1,2> is unblocked",
         lambda: any(
             blocker(g, list(pair)) is None
             for pair in itertools.combinations(cards, 2)
         ), True),
        ("oracle: <1,2,0,1> carries the spine card of <2,1,2>",
         lambda: carries(caterpillar_graph([1, 2, 0, 1]), [spine_card]), True),
        ("dern(<2,3,2>)", lambda: dern(caterpillar_graph([2, 3, 2])), 1),
        ("dern(<1,0,1,0,1>)", lambda: dern(caterpillar_graph([1, 0, 1, 0, 1])), 2),
        ("dern(<2,0,0,0,2>)", lambda: dern(caterpillar_graph([2, 0, 0, 0, 2])), 2),
        ("dern(S222)", lambda: dern(spider([2, 2, 2])), 2),
        ("dern(S333)", lambda: dern(spider([3, 3, 3])), 2),
    ])


def test_criterion_11_worked_reductions():
    t0 = time.time()
    unique = reconstruct(
        CaterpillarSeq((3, 4, 2, 7, 7, 2, 4, 3)),
        CaterpillarSeq((3, 4, 1, 7, 7, 3, 4, 3)),
    )
    ambiguous = reconstruct(
        CaterpillarSeq((1, 7, 3, 5, 3, 6, 2)),
        CaterpillarSeq((1, 6, 3, 5, 3, 7, 2)),
    )
    ok = (
        len(unique) == 1
        and len(ambiguous) >= 2
        and CaterpillarSeq((1, 7, 3, 5, 3, 7, 2)) in ambiguous
    )
    report(11, ok, f"unique={len(unique)} ambiguous={len(ambiguous)}", t0)
    assert ok


def test_criterion_12_inequalities():
    t0 = time.time()
    checked = 0
    bad = []
    for n in range(2, 7):
        for g in enumerate_graphs(n):
            if g.m < 4:
                continue
            e = ern(g)
            d = dern(g)
            ae = adv_recon_number(g, da=False).value
            ad = adv_recon_number(g, da=True).value
            if None in (e, d, ae, ad):
                continue
            checked += 1
            if not (d <= e <= ae and d <= ad):
                bad.append(canonical_form(g).canon)
    report(12, not bad, f"{checked} graphs checked, {len(bad)} violations", t0)
    assert not bad


def test_criterion_13_blocker_completeness():
    t0 = time.time()
    mismatches = []
    for n in range(2, 7):
        graphs = [g for g in enumerate_graphs(n) if g.m >= 1]
        for da in (False, True):
            decks = {
                canonical_form(g): (da_edeck(g) if da else edge_deck(g))
                for g in graphs
            }
            by_m = {}
            for g in graphs:
                by_m.setdefault(g.m, []).append(g)
            for group in by_m.values():
                for g in group:
                    gc = canonical_form(g)
                    ext = {canonical_form(h) for h in blockers(g, da)}
                    enum = {
                        canonical_form(h)
                        for h in group
                        if canonical_form(h) != gc
                        and intersection_size(decks[gc], decks[canonical_form(h)]) >= 1
                    }
                    if ext != enum:
                        mismatches.append((n, da, gc.canon))
    report(13, not mismatches, f"n<=6 both variants, {len(mismatches)} mismatches", t0)
    assert not mismatches


def leaf_card(t, pos):
    """The oracle's da-ecard of a caterpillar_graph t that deletes one leaf
    at 1-based spine position pos (spine vertex pos - 1): (card, d)."""
    v = pos - 1
    leaf = next(u for u in t.neighbors(v) if t.degree(u) == 1)
    return t.remove_edge(v, leaf), t.degree(v) - 1


def named_carrier_holds(seq, carrier):
    """Oracle check that carrier, not isomorphic to the caterpillar, carries
    both da-ecards of its identifying pair, and that those are the cards
    identifying_cards names."""
    s = CaterpillarSeq(seq)
    t = caterpillar_graph(s)
    positions = identifying_pair(s)
    cards = [leaf_card(t, pos) for pos in positions]
    named = tuple(DaEcard(canonical_form(card), d) for card, d in cards)
    return (
        named == identifying_cards(s, positions)
        and carries(carrier, cards)
        and not exhaustive_isomorphic(carrier, t)
    )


def test_criterion_14_caterpillar_sweep():
    t0 = time.time()
    # Published: "Finally we conjecture that for any tree $T$,
    # $dern(T) \leq 2$" and "We show how we can select two da-ecards to
    # identify caterpillars uniquely", pinned here as dern <= 2 for every
    # non-path caterpillar and as pair_certifies(t, identifying pair) for
    # every one that has an identifying pair.  Two spots fail:
    # - <3> is K_{1,3}, which is indeterminate (criterion 8's oracle proof).
    # - 22 identifying pairs do not certify.  identifying_pair promises
    #   uniqueness only among sequences that reduce at two distinct
    #   positions (reconstruct), while pair_certifies is exact over all
    #   graphs.  Every one of the 22 has a carrier with a cycle: a
    #   unicyclic component plus the detached leaf (a 5-cycle with a
    #   pendant, plus K_1, for <2,0,2>).  Five of them, whose pair is one
    #   card twice, also have a caterpillar carrier with two leaves on one
    #   spine vertex (<2,0,1,1> for <1,1,1,1>), which reconstruct never
    #   considers.  So the cards must lie in t's da-edeck, two distinct
    #   cards must be carried by no other tree, and one card twice by no
    #   tree in reconstruct(r, r).  Both named carriers are checked by the
    #   oracle.
    over = []
    bad = []
    tree_carried = []
    no_pair = 0
    total = 0
    certified = 0
    for n in range(3, 11):
        for t in enumerate_trees(n):
            s = seq_of(t)
            if s is None or is_path_sequence(s):
                continue
            total += 1
            value = dern(t)
            if s == CaterpillarSeq([3]):
                if value is not None:
                    bad.append(f"<3>: dern={value}, not indeterminate")
            elif value is None or value > 2:
                over.append(str(s))
            try:
                positions = identifying_pair(s)
            except ValueError:
                no_pair += 1
                continue
            cards = identifying_cards(s, positions)
            need = Deck({card: cards.count(card) for card in cards})
            if not sub_multiset(need, da_edeck(t)):
                bad.append(f"<{s}>: pair not in its da-edeck")
            carriers = [h for h in blockers(t, da=True) if sub_multiset(need, da_edeck(h))]
            if pair_certifies(t, cards) == bool(carriers):
                bad.append(f"<{s}>: pair_certifies disagrees with the carriers")
            certified += not carriers
            trees = [h for h in carriers if len(components(h)) == 1]
            if not trees:
                continue
            tree_carried.append(str(s))
            if cards[0] != cards[1]:
                bad.append(f"<{s}>: a tree carries two distinct cards")
                continue
            by_pos = reductions(s)
            unique = reconstruct(by_pos[positions[0]], by_pos[positions[1]])
            if any(seq_of(h) in unique for h in trees):
                bad.append(f"<{s}>: a tree carrier is in reconstruct(r, r)")
    if not star3_shares_its_da_edeck():
        bad.append("oracle: K3+K1 does not share the da-edeck of K13")
    for seq, carrier in (
        ([2, 0, 2], graph_union(cycle(5).add_vertex([0]), K1)),
        ([1, 1, 1, 1], caterpillar_graph([2, 0, 1, 1])),
    ):
        if not named_carrier_holds(seq, carrier):
            bad.append(f"oracle: the named carrier of <{CaterpillarSeq(seq)}> fails")
    detail = (
        f"{total} caterpillars, dern>2: {over}, {certified} pairs certify, "
        f"one card twice with a tree carrier: {tree_carried}, "
        f"no-pair fallbacks: {no_pair}, other failures: {bad}"
    )
    report(14, not over and not bad, detail, t0)
    assert not bad
    assert not over, f"dern <= 2 fails for {over}"


def test_criterion_15_tree_sweep():
    t0 = time.time()
    # violations are reported, not failed
    tree_counts = {}
    violations = []
    for n in range(2, 10):
        rep = sweep_trees(n, "dern-le-2", None)
        tree_counts[n] = len(rep.records)
        violations.extend(rep.violations)
    detail = f"counts {tree_counts}; violations: {[r.g6 for r in violations]}"
    report(15, True, detail, t0)
    for rec in violations:
        print(f"  reported violation: {rec.g6} dern={rec.dern} witness={rec.witness}")
    assert tree_counts[9] == 47


def adv_ern_one_and_union_blocked(h):
    """Oracle proof that the published bound fails for 2H: every one-edge
    extension of every card of H is H itself, so no blocker shares a card
    with H and adv-ern(H) = 1; yet every single card of 2H is carried by a
    graph that is not 2H, so ern(2H) >= 2."""
    two = disjoint_union(2, h)
    return all(
        exhaustive_isomorphic(ext, h)
        for card, _ in da_ecards(h)
        for ext in one_edge_extensions(card)
    ) and all(blocker(two, [(card, None)]) is not None for card, _ in da_ecards(two))


def test_criterion_16_union_bound():
    t0 = time.time()
    # Published: ern(kH) <= min(adv-ern(H), 2 + mm(H)), pinned here as
    # union_bound(2H) holding for every eligible H.  It fails for the
    # diamond K_4 - e and for K_5 - e: every one-edge extension of every
    # card of these H is H itself, so adv-ern(H) = 1, while ern(kH) >= 2 for
    # every k >= 2, since a single card of kH is also a card of a graph that
    # is not kH (K_4 + C_4 has the card diamond + C_4).  So the test asks
    # for ern(2H) <= max(2, bound), and for the bound to hold exactly when
    # adv-ern(H) >= 2.  The oracle proves both facts for every H with
    # adv-ern(H) = 1, the diamond among them, and the K_4 + C_4 carrier.
    failures = []
    exceptions = []
    checked = 0
    for n in range(2, 6):
        for h in enumerate_graphs(n):
            if h.m < 1 or len(components(h)) != 1 or len(edge_deck(h)) == 1:
                continue
            checked += 1
            bound, holds = union_bound(disjoint_union(2, h))
            value = ern(disjoint_union(2, h))
            adv = adv_recon_number(h, da=False).value
            if value is None or value > max(2, bound) or holds != (adv != 1):
                failures.append((canonical_form(h).canon, bound, holds, value, adv))
            if adv == 1:
                exceptions.append(h)
    diamond = complete(4).remove_edge(0, 1)
    k4_c4 = graph_union(complete(4), cycle(4))
    proof = (
        all(adv_ern_one_and_union_blocked(h) for h in exceptions)
        and any(exhaustive_isomorphic(h, diamond) for h in exceptions)
        and carries(k4_c4, [(graph_union(diamond, cycle(4)), None)])
        and not exhaustive_isomorphic(k4_c4, disjoint_union(2, diamond))
    )
    report(
        16,
        not failures and proof,
        f"{checked} unions checked, adv-ern(H) = 1 for "
        f"{[canonical_form(h).canon for h in exceptions]}, failures: {failures}, "
        f"oracle proof: {proof}",
        t0,
    )
    assert not failures, f"ern(2H) <= max(2, bound) or the bound fails for {failures}"
    assert proof


def test_criterion_17_enumeration_counts():
    t0 = time.time()
    live = all(
        len(list(enumerate_trees(n))) == prufer_tree_class_count(n)
        for n in range(1, 8)
    )
    t7 = len(list(enumerate_trees(7)))
    t9 = len(list(enumerate_trees(9)))
    t10 = len(list(enumerate_trees(10)))
    g4 = len(list(enumerate_graphs(4)))
    oracle4 = iso_classes_by_permutation(labeled_graphs(4))
    ok = live and (t7, t9, t10) == (11, 47, 106) and g4 == oracle4 == 11
    report(
        17,
        ok,
        f"trees n=7:{t7} n=9:{t9} n=10:{t10}, graphs n=4:{g4}, live oracle n<=7: {live}",
        t0,
    )
    assert ok


def test_criterion_18_sequence_calculus():
    t0 = time.time()
    prop_checked = round_checked = 0
    prop_bad = []
    round_bad = []
    no_pair = []
    for n in range(1, 8):
        for tup in itertools.product(range(4), repeat=n):
            if max(tup, default=0) > 3:
                continue
            if n >= 2 and (tup[0] < 1 or tup[-1] < 1):
                continue
            s = CaterpillarSeq(tup)
            if s.a != tup:
                continue  # one representative per reversal class
            a = s.a
            by_pos = reductions(s)
            # conjugate-pair property
            for i in range(1, n // 2 + 1):
                j = n - i + 1
                if i == j or i not in by_pos or j not in by_pos:
                    continue
                r1 = CaterpillarSeq(a[: i - 1] + (a[i - 1] - 1,) + a[i:])
                r2 = CaterpillarSeq(a[: j - 1] + (a[j - 1] - 1,) + a[j:])
                prop_checked += 1
                if len(reconstruct(r1, r2)) > 1:
                    diffs = [k for k in range(n // 2) if a[k] != a[n - 1 - k]]
                    if not (
                        a[i - 1] == a[j - 1]
                        and len(diffs) == 1
                        and abs(a[diffs[0]] - a[n - 1 - diffs[0]]) == 1
                    ):
                        prop_bad.append((str(s), i))
            # two-reduction round trip wherever an identifying pair exists
            if is_path_sequence(s) or len(by_pos) < 2:
                continue
            try:
                pi, pj = identifying_pair(s)
            except ValueError:
                no_pair.append(s)
                continue
            round_checked += 1
            if reconstruct(by_pos[pi], by_pos[pj]) != {s}:
                round_bad.append(str(s))
    # the only sequences without an identifying pair sit on the boundary
    # where one spine end carries a single leaf
    boundary = all(len(s.a) >= 2 and s.a[0] == 1 for s in no_pair)
    ok = not prop_bad and not round_bad and boundary
    report(
        18,
        ok,
        f"conjugate property on {prop_checked} pairs, round trip on "
        f"{round_checked} sequences, {len(no_pair)} end-1 boundary cases",
        t0,
    )
    assert ok
