import random
import re
import subprocess
import sys
import tracemalloc
from collections import OrderedDict
from dataclasses import replace
from functools import lru_cache

import pytest

from reconkit import (
    Certificate,
    DaEcard,
    Graph,
    GraphError,
    canonical_form,
    caterpillar_graph,
    complete,
    disjoint_union,
    enumerate_trees,
    graph_union,
    identifying_pair,
    is_path_sequence,
    parse_family_spec,
    path,
    seq_of,
    star,
)
from reconkit import decks, families, graphs, recon
from reconkit.families import _FAMILIES
from reconkit.graphs import MAX_VERTICES
from reconkit.store import (
    STORE_HEADER,
    ResultRecord,
    format_record,
    parse_record,
    parse_filter,
    store_append,
    store_scan,
)
from reconkit import sweep as sweep_module
from reconkit.sweep import (
    CLAIMS,
    evaluate_graph,
    pair_certifies,
    identifying_cards,
    sweep_caterpillars,
    sweep_disconnected,
    sweep_trees,
)
from reconkit.caterpillar import CaterpillarSeq


def rec_for(g):
    return evaluate_graph(g)


# --- store -------------------------------------------------------------------

def test_record_round_trip(tmp_path):
    rec = rec_for(disjoint_union(2, path(3)))
    assert parse_record(format_record(rec)) == rec
    store = tmp_path / "s.txt"
    store_append(store, rec)
    records, stats = store_scan(store)
    assert records == [rec]
    assert stats == {"corrupt": 0, "duplicates": 0}


def test_store_duplicates_and_corruption(tmp_path):
    store = tmp_path / "s.txt"
    rec = rec_for(path(4))
    store_append(store, rec)
    store_append(store, rec)
    with open(store, "a") as fh:
        fh.write("not a record\n")
    records, stats = store_scan(store)
    assert len(records) == 1
    assert stats["duplicates"] == 1 and stats["corrupt"] == 1
    # the header, then the appended lines: appends never rewrite
    with open(store) as fh:
        assert sum(1 for _ in fh) == 4


def test_store_rejects_malformed_graph6(tmp_path):
    store = tmp_path / "s.txt"
    rec = rec_for(path(5))
    store_append(store, rec)
    fields = format_record(rec).split("\t")
    bad = [
        ["zzz"] + fields[1:],  # not graph6 (header says 59 vertices)
        fields[:1] + ["9"] + fields[2:],  # graph6 has 5 vertices
        fields[:2] + ["7"] + fields[3:],  # graph6 has 4 edges
        [fields[0] + "?"] + fields[1:],  # one body byte too many
    ]
    with open(store, "a") as fh:
        for parts in bad:
            fh.write("\t".join(parts) + "\n")
    for parts in bad:
        with pytest.raises(ValueError):
            parse_record("\t".join(parts))
    records, stats = store_scan(store)
    assert records == [rec]
    assert stats == {"corrupt": len(bad), "duplicates": 0}


def test_store_rejects_malformed_numbers(tmp_path):
    # n, m and the elapsed milliseconds are unsigned ASCII decimals, and the
    # four numbers decimals of at least 1 or "indet"; int() alone takes
    # signs, spaces, underscores and other scripts' digits
    store = tmp_path / "s.txt"
    rec = rec_for(path(5))
    store_append(store, rec)
    fields = format_record(rec).split("\t")
    malformed = ["-1", "+2", " 2", "2 ", "1_0", "\u0663", "2.0", ""]
    bad = [(i, text) for i in (1, 2, 8) for text in malformed]
    bad += [(i, text) for i in (3, 4, 5, 6) for text in malformed + ["0", "00"]]
    lines = ["\t".join(fields[:i] + [text] + fields[i + 1:]) for i, text in bad]
    for line in lines:
        with pytest.raises(ValueError):
            parse_record(line)
    with open(store, "a", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)
    records, stats = store_scan(store)
    assert records == [rec]
    assert stats == {"corrupt": len(lines), "duplicates": 0}
    # the smallest values that are well formed
    for i, text in [(3, "indet"), (4, "1"), (8, "0")]:
        assert parse_record("\t".join(fields[:i] + [text] + fields[i + 1:]))


def test_store_rejects_witnesses_that_do_not_fit(tmp_path):
    # the witness is "-" exactly when dern is indet; otherwise its entries
    # are mult×d×g6 with decimals mult >= 1 and d >= 0, each card has the
    # record's n and m - 1 edges, and the multiplicities sum to dern
    store = tmp_path / "s.txt"
    rec = rec_for(path(5))
    store_append(store, rec)
    fields = format_record(rec).split("\t")
    assert fields[4] == "1" and fields[7] == "1×1×D@S"

    def line(dern, witness):
        return "\t".join(fields[:4] + [dern] + fields[5:7] + [witness] + fields[8:])

    witnesses = [
        "zzz", "1×1×Cz", "5×1×D@S", "1×x×D@S", "-", "", "0×1×D@S", "1×-×D@S",
        "1×-1×D@S", "+1×1×D@S", "1×1×D@S;", "1×1×D@S×1", "1×1×DBg",
        "1×1×D@S;1×1×D@S",
    ]
    lines = [line("1", w) for w in witnesses] + [line("indet", "1×1×D@S")]
    for bad in lines:
        with pytest.raises(ValueError):
            parse_record(bad)
    with open(store, "a", encoding="utf-8") as fh:
        fh.writelines(bad + "\n" for bad in lines)
    records, stats = store_scan(store)
    assert records == [rec]
    assert stats == {"corrupt": len(lines), "duplicates": 0}
    assert parse_record(line("indet", "-")).witness == "-"


def test_store_reads_only_graph6_as_written(tmp_path):
    # parse_graph6 strips spaces and a '>>graph6<<' prefix, but the record's
    # text is its dedupe and resume key: only write_graph6's text reads
    store = tmp_path / "s.txt"
    rec = rec_for(path(5))
    store_append(store, rec)
    fields = format_record(rec).split("\t")
    assert fields[0] == "DBg" and fields[7] == "1×1×D@S"
    g6s = [" DBg", "DBg ", ">>graph6<<DBg", "DBg\r"]
    witnesses = ["1×1× D@S", "1×1×D@S ", "1×1×>>graph6<<D@S"]
    lines = ["\t".join([g6] + fields[1:]) for g6 in g6s]
    lines += ["\t".join(fields[:7] + [w] + fields[8:]) for w in witnesses]
    for bad in lines:
        with pytest.raises(ValueError):
            parse_record(bad)
    with open(store, "a", encoding="utf-8") as fh:
        fh.writelines(bad + "\n" for bad in lines)
    records, stats = store_scan(store)
    assert records == [rec]
    assert stats == {"corrupt": len(lines), "duplicates": 0}
    # exact graph6 of another labeling of P_5 still reads: whether a key is
    # canonical is not checked here
    assert parse_record("\t".join(["DDW"] + fields[1:])).g6 == "DDW"


def test_sweep_recomputes_records_keyed_by_padded_graph6(tmp_path):
    store = tmp_path / "s.txt"
    sweep_trees(5, "dern-le-2", str(store))
    header, *lines = store.read_text(encoding="utf-8").splitlines(keepends=True)
    store.write_text(header + "".join(" " + line for line in lines), encoding="utf-8")
    assert store_scan(store) == ([], {"corrupt": 3, "duplicates": 0})
    report = sweep_trees(5, "dern-le-2", str(store))
    assert report.computed == 3 and report.resumed == 0
    records, stats = store_scan(store)
    assert len(records) == 3 and set(records) == set(report.records)
    assert stats == {"corrupt": 3, "duplicates": 0}


def test_store_header_names_certificate_scheme(tmp_path):
    store = tmp_path / "s.txt"
    store_append(store, rec_for(path(4)))
    store_append(store, rec_for(path(5)))
    lines = store.read_text(encoding="utf-8").splitlines()
    assert lines[0] == STORE_HEADER and len(lines) == 3
    report = sweep_trees(5, "dern-le-2", str(store))
    assert report.resumed == 1 and report.computed == 2


def test_sweep_refuses_store_of_another_scheme(tmp_path):
    # a store without a header was keyed by the lex-min labeler's graph6, so
    # resuming into it would miss every record and append duplicates
    record = format_record(rec_for(path(4))) + "\n"
    legacy = tmp_path / "legacy.txt"
    legacy.write_text(record, encoding="utf-8")
    other = tmp_path / "other.txt"
    other.write_text("#reconkit-store v2 cert=other\n" + record, encoding="utf-8")
    for store, why in ((legacy, "lex-min"), (other, "cert=other")):
        with pytest.raises(ValueError, match=why):
            sweep_trees(5, "dern-le-2", str(store))
        out = run_cli(["sweep", "--trees", "5", "--claim", "dern-le-2"], env_store=store)
        assert out.returncode == 1 and why in out.stderr
        assert store.read_text(encoding="utf-8").endswith(record)  # untouched
        records, stats = store_scan(store)  # still readable
        assert len(records) == 1 and stats == {"corrupt": 0, "duplicates": 0}
    out = run_cli(["store", "scan"], env_store=legacy)
    assert out.returncode == 0 and out.stdout == record


def test_store_filter(tmp_path):
    store = tmp_path / "s.txt"
    for g in (
        disjoint_union(2, complete(3)),
        disjoint_union(2, star(3)),
        disjoint_union(2, path(3)),
        graph_union(star(3), complete(3)),
    ):
        store_append(store, rec_for(g))
    records, _ = store_scan(store, "dern>=3")
    got = {r.g6 for r in records}
    want = {
        canonical_form(disjoint_union(2, star(3))).canon,
        canonical_form(disjoint_union(2, path(3))).canon,
    }
    assert got == want
    with pytest.raises(ValueError):
        parse_filter("bogus ~ 3")


def test_store_filter_reads_indet_and_rejects_other_words(tmp_path):
    store = tmp_path / "s.txt"
    indet, finite = rec_for(star(3)), rec_for(path(4))
    assert indet.dern is None and finite.dern is not None
    for rec in (indet, finite):
        store_append(store, rec)
    records, _ = store_scan(store, "dern=indet")
    assert records == [indet]
    for bad in ("dern>=x", "dern>=nan", "n=NaN"):
        with pytest.raises(ValueError, match="bad filter"):
            store_scan(store, bad)


def test_indeterminate_round_trips(tmp_path):
    rec = rec_for(star(3))
    assert rec.dern is None and rec.ern is None
    assert parse_record(format_record(rec)) == rec
    records, _ = store_scan_write(tmp_path, rec)
    assert records[0].dern is None


def store_scan_write(tmp_path, rec):
    store = tmp_path / "i.txt"
    store_append(store, rec)
    return store_scan(store)


# --- sweeps ------------------------------------------------------------------

def test_tree_sweep_counts_and_claim(tmp_path):
    store = tmp_path / "trees.txt"
    report = sweep_trees(9, "dern-le-2", str(store))
    assert len(report.records) == 47
    assert report.violations == [] and not report.failed


def test_small_group_store_writes_the_same_records(monkeypatch):
    # with the group and shape stores capped at 64, a cold sweep_trees(9)
    # evicts groups and shapes least recently used first, so canonical_form
    # searches a graph whose shape is evicted and _aut the canonical graph
    # of an evicted certificate again; the numbers and witnesses are
    # unchanged
    searches = []
    search = graphs._least_leaf_code
    monkeypatch.setattr(graphs, "_least_leaf_code", lambda g: searches.append(g) or search(g))

    def cold_records():
        monkeypatch.setattr(graphs, "_groups", OrderedDict())
        monkeypatch.setattr(graphs, "_shapes", OrderedDict())
        for cached in (canonical_form, recon._scan, recon._context):
            cached.cache_clear()
        searches.clear()
        report = sweep_trees(9, "dern-le-2", None)
        return [replace(r, elapsed_ms=0) for r in report.records], len(searches)

    records, default_searches = cold_records()
    monkeypatch.setattr(graphs, "_GROUPS_CAP", 64)
    small_cap_records, small_cap_searches = cold_records()
    assert small_cap_records == records
    assert len(graphs._groups) == len(graphs._shapes) == 64
    assert small_cap_searches > default_searches


def test_small_label_cache_writes_the_same_records(monkeypatch):
    # with canonical_form's cache capped at 64 in every module that binds
    # it, a cold sweep_trees(9) evicts labels and, with the shape and group
    # stores capped at 64 too, searches graphs again; the numbers and
    # witnesses are unchanged.  Both runs ask canonical_form for the same
    # graphs in the same order, so the 64-entry cache misses whenever the
    # 4,096-entry one does, and also on a graph asked for again after more
    # than 64 others
    monkeypatch.setattr(graphs, "_GROUPS_CAP", 64)

    def cold_records():
        monkeypatch.setattr(graphs, "_groups", OrderedDict())
        monkeypatch.setattr(graphs, "_shapes", OrderedDict())
        for cached in (graphs.canonical_form, recon._scan, recon._context):
            cached.cache_clear()
        report = sweep_trees(9, "dern-le-2", None)
        misses = graphs.canonical_form.cache_info().misses
        return [replace(r, elapsed_ms=0) for r in report.records], misses

    records, default_misses = cold_records()
    small = lru_cache(64)(graphs.canonical_form.__wrapped__)
    for module in (graphs, decks, families, recon, sweep_module):
        monkeypatch.setattr(module, "canonical_form", small)
    small_cap_records, small_cap_misses = cold_records()
    assert small_cap_records == records
    assert small.cache_info().currsize == 64 and small_cap_misses > default_misses


def test_cold_tree_sweep_searches_no_tree_it_evaluates(monkeypatch):
    # enumeration labels each generated tree, and the sweep evaluates the
    # canonical graphs of those trees, which canonical_form finds by their
    # shape without a search
    canonical_form.cache_clear()
    searched, evaluated = [], []
    search = graphs._least_leaf_code
    monkeypatch.setattr(graphs, "_least_leaf_code", lambda g: searched.append(g) or search(g))
    run, evaluate = sweep_module._run_sweep, sweep_module.evaluate_graph

    def enumerated_first(scope, trees, *rest):
        trees = list(trees)
        searched.clear()
        return run(scope, trees, *rest)

    monkeypatch.setattr(sweep_module, "_run_sweep", enumerated_first)
    monkeypatch.setattr(sweep_module, "evaluate_graph", lambda g: evaluated.append(g) or evaluate(g))
    assert sweep_trees(9, "dern-le-2", None).computed == len(evaluated) == 47
    assert set(searched) & set(evaluated) == set()


def test_cold_tree_sweep_searches_each_class_once(monkeypatch):
    # a cold sweep_trees(9), enumeration included, searches no class twice:
    # a graph met again under another labeling is found by its shape, also
    # after canonical_form's cache, here capped at 64, has evicted it
    searched = []
    search = graphs._least_leaf_code

    def counted(g):
        found = search(g)
        searched.append(Certificate(g.n, g.m, found[0]))
        return found

    monkeypatch.setattr(graphs, "_least_leaf_code", counted)
    label = graphs.canonical_form.__wrapped__
    per_cache = []
    for cap in (1 << 12, 64):
        cached_label = lru_cache(cap)(label)
        for module in (graphs, decks, families, recon, sweep_module):
            monkeypatch.setattr(module, "canonical_form", cached_label)
        monkeypatch.setattr(graphs, "_groups", OrderedDict())
        monkeypatch.setattr(graphs, "_shapes", OrderedDict())
        for cached in (recon._scan, recon._context):
            cached.cache_clear()
        searched.clear()
        assert len(sweep_trees(9, "dern-le-2", None).records) == 47
        assert len(searched) == len(set(searched))
        per_cache.append(sorted(searched))
    assert per_cache[0] == per_cache[1]


def test_pair_certifies_reads_the_evaluated_deck(monkeypatch):
    # after evaluate_graph(t), the identifying-pair check builds no deck;
    # da-ecards outside t's da-edeck do not certify
    built = []
    build = decks._deck_of_cert
    for module in (decks, recon):
        monkeypatch.setattr(module, "_deck_of_cert", lambda c: built.append(c) or build(c))
    rng = random.Random(3)
    checked = 0
    for t in enumerate_trees(9):
        s = seq_of(t)
        if s is None or is_path_sequence(s):
            continue
        try:
            cards = identifying_cards(s, identifying_pair(s))
        except ValueError:  # no identifying pair
            continue
        perm = list(range(t.n))
        rng.shuffle(perm)
        t = caterpillar_graph(s).permuted(perm)
        evaluate_graph(t)
        built.clear()
        pair_certifies(t, cards)
        (card, d), rest = cards[0], cards[1:]
        assert not pair_certifies(t, (DaEcard(card, d + 1),) + rest)
        assert not pair_certifies(t, cards * t.m)
        assert built == []
        checked += 1
    assert checked == 21


def test_census_claim_lists_expected_trees(tmp_path):
    report = sweep_trees(9, "ern-eq-3-census", None)
    hits = {r.g6 for r in report.violations}
    assert canonical_form(path(9)).canon in hits
    from reconkit import caterpillar_graph

    assert canonical_form(caterpillar_graph([2, 0, 0, 0, 2])).canon in hits
    assert len(hits) == 2
    assert not report.failed  # census claims never fail a sweep


def test_sweep_detects_violations(tmp_path):
    # trees on 4 vertices include the star whose full da-edeck is blocked
    report = sweep_trees(4, "dern-le-2", None)
    assert report.failed
    assert [r.g6 for r in report.violations] == [canonical_form(star(3)).canon]


def interrupted_copy(full, part, records):
    """Write to part what a crash after the first records leaves of the
    finished store full: its header and those records."""
    lines = full.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[0].rstrip("\n") == STORE_HEADER
    part.write_text("".join(lines[: 1 + records]), encoding="utf-8")


def test_sweep_resume_matches_uninterrupted(tmp_path):
    full = tmp_path / "full.txt"
    part = tmp_path / "part.txt"
    sweep_trees(8, "dern-le-2", str(full))
    interrupted_copy(full, part, 10)
    resumed = sweep_trees(8, "dern-le-2", str(part))
    assert resumed.resumed == 10 and resumed.computed == 13
    full_records, _ = store_scan(full)
    part_records, _ = store_scan(part)
    strip = lambda recs: [(r.g6, r.ern, r.dern, r.witness) for r in recs]
    assert strip(full_records) == strip(part_records)


def test_sweep_resume_after_torn_last_line(tmp_path):
    # a crash can cut the store before the last record's newline; the torn
    # record is recomputed and the next one must not run on from it
    full = tmp_path / "full.txt"
    part = tmp_path / "part.txt"
    sweep_trees(8, "dern-le-2", str(full))
    interrupted_copy(full, part, 10)
    text = part.read_text(encoding="utf-8")
    assert text.endswith("\n")
    part.write_text(text[:-1], encoding="utf-8")
    torn_records, stats = store_scan(part)
    assert len(torn_records) == 9 and stats["corrupt"] == 1
    resumed = sweep_trees(8, "dern-le-2", str(part))
    assert resumed.resumed == 9 and resumed.computed == 14
    full_records, _ = store_scan(full)
    part_records, _ = store_scan(part)
    strip = lambda recs: [
        (r.g6, r.ern, r.dern, r.adv_ern, r.adv_dern, r.witness) for r in recs
    ]
    assert strip(part_records) == strip(full_records)


def test_sweep_resume_after_line_torn_inside_a_character(tmp_path):
    # the witness separator '×' is two bytes in UTF-8, so a crash can cut a
    # record between them; the line is corrupt, not an error, and the
    # resumed sweep recomputes the record
    full = tmp_path / "full.txt"
    part = tmp_path / "part.txt"
    sweep_trees(8, "dern-le-2", str(full))
    interrupted_copy(full, part, 10)
    torn = full.read_bytes().splitlines(keepends=True)[11]
    cut = torn.index("×".encode("utf-8")) + 1
    with open(part, "ab") as fh:
        fh.write(torn[:cut])
    torn_records, stats = store_scan(str(part))
    assert len(torn_records) == 10 and stats["corrupt"] == 1
    out = run_cli(["store", "scan", "--store", str(part)])
    assert out.returncode == 0 and len(out.stdout.splitlines()) == 10
    resumed = sweep_trees(8, "dern-le-2", str(part))
    assert resumed.resumed == 10 and resumed.computed == 13
    untimed = lambda recs: [replace(r, elapsed_ms=0) for r in recs]
    full_records, _ = store_scan(str(full))
    part_records, stats = store_scan(str(part))
    assert untimed(part_records) == untimed(full_records)
    assert stats == {"corrupt": 1, "duplicates": 0}
    # the torn line now ends in a newline, inside the header's first read
    again = sweep_trees(8, "dern-le-2", str(part))
    assert again.resumed == 23 and again.computed == 0


def test_sweep_deterministic():
    a = sweep_trees(7, "dern-le-2", None)
    b = sweep_trees(7, "dern-le-2", None)
    assert [r.g6 for r in a.records] == [r.g6 for r in b.records]
    assert [r.witness for r in a.records] == [r.witness for r in b.records]


def test_disconnected_sweep_star_conjecture():
    report = sweep_disconnected(2, 4, "conj-2.1", None)
    assert not report.failed
    # every union here with ern > 3 (or blocked outright) is a union of
    # stars: 2K_2, 2K_{1,2}, 2K_{1,3}
    big = {r.g6 for r in report.records if r.ern is None or r.ern > 3}
    want = {
        canonical_form(disjoint_union(2, Graph.from_edges(2, [(0, 1)]))).canon,
        canonical_form(disjoint_union(2, path(3))).canon,
        canonical_form(disjoint_union(2, star(3))).canon,
    }
    assert big == want


def test_disconnected_sweep_uniform_cards_conjecture():
    report = sweep_disconnected(2, 4, "conj-4.1", None)
    assert not report.failed


def test_caterpillar_sweep_certification():
    report = sweep_caterpillars(7, "dern-le-2", None)
    assert not report.failed
    # the caterpillar scope is the tree sweep restricted to caterpillars,
    # record for record and in the same order
    for n in range(2, 11):
        trees = sweep_trees(n, "dern-le-2", None).records
        kept = [r for t, r in zip(enumerate_trees(n), trees) if seq_of(t) is not None]
        caterpillars = sweep_caterpillars(n, "dern-le-2", None).records
        assert [replace(r, elapsed_ms=0) for r in caterpillars] == [
            replace(r, elapsed_ms=0) for r in kept
        ], n
    from reconkit import caterpillar_graph, identifying_pair

    s = CaterpillarSeq((3, 3))
    cards = identifying_cards(s, identifying_pair(s))
    assert pair_certifies(caterpillar_graph(s), cards)
    # two leaf-deletion cards do not always pin the caterpillar down among
    # all graphs: for <2,0,2> a 5-cycle with a pendant leaf (plus isolate)
    # carries both copies of the pair's da-ecard
    s = CaterpillarSeq((2, 0, 2))
    cards = identifying_cards(s, identifying_pair(s))
    assert not pair_certifies(caterpillar_graph(s), cards)


def test_identifying_cards_rejects_non_reduction_positions():
    # <2,0,2> reduces only at its ends; position 0 once read a[-1] and
    # built a 14-vertex card, position 9 ran past the sequence
    s = CaterpillarSeq((2, 0, 2))
    for positions in ((0, 3), (1, 9), (1, 2)):
        with pytest.raises(ValueError, match=r"not one of \[1, 3\]"):
            identifying_cards(s, positions)


def test_sweeps_take_no_limit():
    with pytest.raises(TypeError):
        sweep_trees(5, "dern-le-2", None, limit=3)
    with pytest.raises(TypeError):
        sweep_caterpillars(5, "dern-le-2", None, limit=3)
    with pytest.raises(TypeError):
        sweep_disconnected(2, 3, "conj-2.1", None, limit=3)


def test_empty_sweep_scopes_rejected_before_store(tmp_path):
    # the store's header is wrong, so reading it would raise another error
    store = tmp_path / "store.txt"
    store.write_text("not a store header\n")
    for run, bad, bound in (
        (sweep_trees, 1, "tree sweep n must be in 2..16"),
        (sweep_trees, 0, "tree sweep n must be in 2..16"),
        (sweep_caterpillars, 1, "caterpillar sweep n must be in 2..16"),
        (lambda n, *rest: sweep_disconnected(2, n, *rest), 1, "disconnected sweep n(H) must be in 2..8"),
    ):
        with pytest.raises(GraphError, match=f"{re.escape(bound)}, got {bad}"):
            run(bad, "dern-le-2", str(store))


def test_oversized_union_scopes_rejected_before_evaluation(monkeypatch):
    evaluated = []

    def counter(g):
        evaluated.append(g)
        raise AssertionError("evaluated a graph of an oversized scope")

    monkeypatch.setattr(sweep_module, "evaluate_graph", counter)
    with pytest.raises(GraphError, match=r"disconnected sweep n\(H\) must be in 2\.\.8, got 9"):
        sweep_disconnected(2, 9, "conj-2.1", None, force=True)
    with pytest.raises(GraphError, match=f"vertex count must be in 1..{MAX_VERTICES}, got 35"):
        sweep_disconnected(5, 7, "conj-2.1", None, force=True)
    assert evaluated == []


# (sweep, its arguments, its largest vertex count) past the one cap
OVER_CAP = [
    (sweep_trees, (11, "dern-le-2"), 11),
    (sweep_caterpillars, (11, "dern-le-2"), 11),
    (sweep_disconnected, (3, 4, "conj-4.1"), 12),
]


def test_every_sweep_scope_passes_one_cap(tmp_path, monkeypatch):
    # refused before the store is read (its header is wrong, so reading it
    # would raise another error) and before any graph is evaluated
    store = tmp_path / "store.txt"
    store.write_text("not a store header\n")
    evaluated = []
    evaluate = sweep_module.evaluate_graph
    monkeypatch.setattr(sweep_module, "evaluate_graph", lambda g: evaluated.append(g) or evaluate(g))
    for run, args, n in OVER_CAP:
        with pytest.raises(GraphError) as refused:
            run(*args, str(store))
        assert str(refused.value) == f"sweep capped at 10 vertices, got {n}; use force"
    assert evaluated == [] and store.read_text() == "not a store header\n"
    counts = [len(run(*args, None, force=True).records) for run, args, _ in OVER_CAP]
    assert counts == [235, 136, 9] and len(evaluated) == sum(counts)


def test_claims_registry():
    assert set(CLAIMS) == {"dern-le-2", "ern-eq-3-census", "conj-2.1", "conj-4.1"}


# --- CLI ----------------------------------------------------------------------

def run_cli(args, env_store=None):
    import os

    env = dict(os.environ)
    if env_store:
        env["RECONKIT_STORE"] = str(env_store)
    return subprocess.run(
        [sys.executable, "-m", "reconkit.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_cli_deck_and_recon():
    out = run_cli(["deck", "U:2*S:3", "--da"])
    assert out.returncode == 0
    line = out.stdout.strip().splitlines()[0].split()
    assert line[0] == "6" and line[1] == "2"
    out = run_cli(["deck", "P:4"])
    assert len(out.stdout.strip().splitlines()) == 2
    out = run_cli(["recon", "U:2*S:3", "--which=dern"])
    assert "dern = 4" in out.stdout
    out = run_cli(["recon", "U:2*P:3", "--which=dern"])
    assert "dern = 3" in out.stdout
    out = run_cli(["recon", "spider:2,2,2", "--which=dern"])
    assert "dern = 2" in out.stdout
    out = run_cli(["recon", "K:4", "--which=adv-dern"])
    assert "adv-dern = 1" in out.stdout
    out = run_cli(["adv", "K:4", "--da"])
    assert out.returncode == 1 and "invalid choice: 'adv'" in out.stderr


def test_cli_recon_failure_prints_nothing_to_stdout():
    out = run_cli(["recon", "U:1*P:1", "--which=dern"])
    assert out.returncode == 1 and out.stdout == ""
    assert "da-edeck of an edgeless graph" in out.stderr


def test_cli_caterpillar():
    out = run_cli(["caterpillar", "reconstruct", "3,4,2,7,7,2,4,3", "3,4,1,7,7,3,4,3"])
    assert out.stdout.strip().splitlines() == ["3,4,2,7,7,3,4,3"]
    out = run_cli(["caterpillar", "pair", "2,7,3,5,3,6,2"])
    # the positions index the printed, lexicographically least orientation
    lines = out.stdout.splitlines()
    assert lines[:2] == ["sequence: <2,6,3,5,3,7,2>", "positions: 2,6"]


def test_cli_sweep_exit_codes(tmp_path):
    out = run_cli(
        ["sweep", "--trees", "9", "--claim", "dern-le-2", "--no-store"],
    )
    assert out.returncode == 0 and "violations: 0" in out.stdout
    out = run_cli(["sweep", "--trees", "4", "--claim", "dern-le-2", "--no-store"])
    assert out.returncode == 2  # violation found
    out = run_cli(["sweep", "--trees", "11", "--claim", "dern-le-2", "--no-store"])
    assert out.returncode == 1  # cap exceeded without --force
    out = run_cli(["sweep", "--trees", "5", "--limit", "3", "--claim", "dern-le-2"])
    assert out.returncode == 1 and "--limit" in out.stderr


def test_cli_sweep_store_and_no_store_exclude_each_other(tmp_path):
    path = tmp_path / "store.txt"
    out = run_cli(
        ["sweep", "--trees", "4", "--claim", "dern-le-2", "--no-store", "--store", str(path)]
    )
    assert out.returncode == 1 and "not allowed with argument" in out.stderr
    assert out.stdout == "" and not path.exists()


def test_cli_sweep_disconnected_scope(tmp_path):
    base = ["sweep", "--claim", "conj-2.1", "--no-store", "--disconnected"]
    out = run_cli(base + ["2:3"])
    assert out.returncode == 0 and "records: 3 " in out.stdout
    for bad in ("2", "2:x", "2:3:4", ":3"):
        out = run_cli(base + [bad])
        assert out.returncode == 1
        assert "expected K:MAXH" in out.stderr


def test_cli_sweep_scopes_pass_one_cap(tmp_path):
    # as in test_every_sweep_scope_passes_one_cap: refused before the store,
    # whose header is wrong, is read
    store = tmp_path / "store.txt"
    store.write_text("not a store header\n")
    for scope, claim, n in (
        (["--trees", "11"], "dern-le-2", 11),
        (["--caterpillars", "11"], "dern-le-2", 11),
        (["--disconnected", "3:4"], "conj-4.1", 12),
    ):
        out = run_cli(["sweep", *scope, "--claim", claim], env_store=store)
        assert out.returncode == 1 and out.stdout == "", scope
        assert out.stderr == f"error: sweep capped at 10 vertices, got {n}; use force\n"
    assert store.read_text() == "not a store header\n"
    out = run_cli(
        ["sweep", "--disconnected", "3:4", "--force", "--claim", "conj-4.1", "--no-store"]
    )
    assert out.returncode == 0
    assert "records: 9 (9 computed, 0 resumed)" in out.stdout and "violations: 0" in out.stdout


def test_cli_empty_sweep_scopes_exit_1():
    for scope in (["--trees", "1"], ["--trees", "0"], ["--caterpillars", "1"]):
        out = run_cli(["sweep", *scope, "--claim", "dern-le-2", "--no-store"])
        assert out.returncode == 1, scope
        assert f"sweep n must be in 2..16, got {scope[1]}" in out.stderr
        assert "records:" not in out.stdout
    out = run_cli(["sweep", "--disconnected", "2:1", "--claim", "conj-2.1", "--no-store"])
    assert out.returncode == 1 and "disconnected sweep n(H) must be in 2..8, got 1" in out.stderr


def test_cli_store_roundtrip(tmp_path):
    store = tmp_path / "store.txt"
    out = run_cli(
        ["sweep", "--trees", "6", "--claim", "dern-le-2"], env_store=store
    )
    assert out.returncode == 0
    out = run_cli(["store", "scan"], env_store=store)
    assert len(out.stdout.strip().splitlines()) == 6
    out = run_cli(["store", "scan", "--filter", "dern>=2"], env_store=store)
    for line in out.stdout.strip().splitlines():
        assert int(line.split("\t")[4]) >= 2


def test_cli_store_scan_rejects_a_missing_store(tmp_path):
    missing = tmp_path / "no-such-store.txt"
    out = run_cli(["store", "scan", "--store", str(missing)])
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr.strip() == f"error: no store at {missing}"
    assert store_scan(str(missing)) == ([], {"corrupt": 0, "duplicates": 0})


def test_cli_store_scan_warns_of_duplicates(tmp_path, capsys):
    from reconkit import cli

    store = tmp_path / "store.txt"
    rec = rec_for(path(4))
    store_append(store, rec)
    store_append(store, rec)
    assert cli.main(["store", "scan", "--store", str(store)]) == 0
    out, err = capsys.readouterr()
    assert err == "warning: 1 duplicate certificates (last wins)\n"
    assert out == format_record(rec) + "\n"


def test_cli_empty_store_variable_means_the_default_path(tmp_path, monkeypatch):
    # as --store "" does: an empty RECONKIT_STORE is unset, not "no store"
    from reconkit import cli

    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("RECONKIT_STORE", "")
    assert cli.main(["sweep", "--trees", "5", "--claim", "dern-le-2"]) == 0
    records, _ = store_scan(str(tmp_path / "reconkit-store.txt"))
    assert len(records) == 3


def test_union_count_out_of_range():
    for spec in ("U:-2*K:2+K:3", f"U:{10**19}*K:2", "U:0*K:2", f"U:{MAX_VERTICES + 1}*K:1"):
        with pytest.raises(GraphError, match="union count"):
            parse_family_spec(spec)
        out = run_cli(["recon", spec])
        assert out.returncode == 1 and out.stdout == ""
        assert out.stderr.startswith("error: union count") and "Traceback" not in out.stderr
    assert parse_family_spec(f"U:{MAX_VERTICES}*K:1").n == MAX_VERTICES


def rejected_within_1mb(spec):
    """parse_family_spec(spec) raises GraphError and peaks under 1 MB."""
    tracemalloc.start()
    try:
        with pytest.raises(GraphError):
            parse_family_spec(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, (spec[:40], peak)


def test_oversized_specs_rejected_before_construction():
    nested = "U:" + "1*U:" * 1199 + "1*K:1"  # 1200 nested unions
    for spec in (
        f"P:{10**8}", f"S:{10**6}", f"K:{10**6}", f"C:{10**6}", f"Kpq:{10**6},1",
        f"cat:{10**9}", f"spider:{10**6},1,1", nested, "Kpq:1,2,3",
    ):
        rejected_within_1mb(spec)
        out = run_cli(["recon", spec])
        assert out.returncode == 1 and out.stdout == ""
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
        assert "Traceback" not in out.stderr
    with pytest.raises(GraphError, match="U:6\\*K:2"):
        parse_family_spec("U:2*U:3*K:2")


@pytest.mark.parametrize("head", sorted(_FAMILIES))
def test_every_family_head_checks_size_first(head):
    # One argument of each shape the grammar has (one integer, two, a
    # sequence, a union block), each naming a 10**6-vertex graph, so a head
    # added without the vertex-count gate fails here.
    for args in ("1000000", "1000000,1", "1000000,1,1", "1000000*K:1", "1*P:1000000"):
        rejected_within_1mb(f"{head}:{args}")


def test_cli_family_and_errors():
    out = run_cli(["family", "gen", "cat:2,0,2"])
    assert out.returncode == 0 and out.stdout.strip()
    out = run_cli(["family", "list", "trees", "7"])
    assert len(out.stdout.strip().splitlines()) == 11
    out = run_cli(["family", "list", "graphs", "5", "--edges", "4"])
    assert len(out.stdout.strip().splitlines()) == 6
    out = run_cli(["family", "list", "trees", "5", "--edges", "2"])
    assert out.returncode == 1 and out.stdout == ""
    assert "--edges applies to graphs only" in out.stderr
    for edges in ("99", "-1"):
        out = run_cli(["family", "list", "graphs", "5", "--edges", edges])
        assert out.returncode == 1 and out.stdout == ""
        assert out.stderr.startswith("error: edge count") and out.stderr.count("\n") == 1
    out = run_cli(["deck", "not-a-graph"])
    assert out.returncode == 1
    # argparse's errors take the one error channel: the usage line, then
    # one "error: " line, exit 1
    out = run_cli(["nope"])
    assert out.returncode == 1 and out.stdout == ""
    usage, error = out.stderr.splitlines()
    assert usage.startswith("usage: reconkit")
    assert error.startswith("error: argument command: invalid choice: 'nope'")
    out = run_cli(["--help"])
    assert out.returncode == 0 and out.stdout.startswith("usage: reconkit")
