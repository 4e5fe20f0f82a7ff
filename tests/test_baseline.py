"""The behaviour baseline: one SHA-256 over every answer the blocker search
gives on a fixed set of small graphs, one over every tree on 10 vertices,
the trees the tree-sweep benchmark evaluates, and one over the records of
the union sweep 2H with n(H) <= 5.

The first digest was computed before blocker multiplicities came from
double counting, with every blocker's deck built in full, the second
before the two views of the blocker pass shared one index.  A refactor of the
labeler or of the blocker search that changes any number, witness,
``max_shared``, blocker example or blocker list changes the digest.
"""

import hashlib
from dataclasses import replace

from reconkit import (
    DaEcard,
    adv_recon_number,
    blockers,
    canonical_form,
    enumerate_graphs,
    enumerate_trees,
    recon_number,
)
from reconkit.store import format_record
from reconkit.sweep import sweep_disconnected

BASELINE_SHA256 = "86e4bdd98e736998cf94b16af8706f2a10442a718e6fadcf184c7c82b860bcf1"
TREES_10_SHA256 = "34ee0b39bf65ed0bad6918ccc595edead5e54e7d0c0e063b65d316aec1c044e8"
UNION_2_5_SHA256 = "a3ad6f7db81e7c27b38ab3a21f262fba0d85de060e1e060b9f0c60029b1075d6"


def _key_text(key) -> str:
    if isinstance(key, DaEcard):
        return f"{key.card.canon}/{key.d}"
    return key.canon


def _result_text(res) -> str:
    witness = ",".join(f"{_key_text(key)}*{x}" for key, x in res.witness)
    example = "-" if res.blocker_example is None else canonical_form(res.blocker_example).canon
    return f"{res.value} [{witness}] {res.max_shared} {example}"


def _lines(graphs):
    """One line per (graph, da): the canonical graph6, both results and
    the sorted blockers."""
    for g in graphs:
        canon = canonical_form(g).canon
        for da in (False, True):
            blks = sorted(canonical_form(h).canon for h in blockers(g, da))
            yield " ".join([
                canon,
                str(int(da)),
                _result_text(recon_number(g, da)),
                _result_text(adv_recon_number(g, da)),
                ",".join(blks),
            ])


def baseline_lines():
    """Every graph with n <= 6 and an edge, then every tree with
    7 <= n <= 9, one line per (graph, da) as in ``_lines``."""
    graphs = [g for n in range(2, 7) for g in enumerate_graphs(n) if g.m >= 1]
    graphs += [t for n in range(7, 10) for t in enumerate_trees(n)]
    yield from _lines(graphs)


def test_behaviour_matches_baseline():
    digest = hashlib.sha256()
    count = 0
    for line in baseline_lines():
        digest.update(line.encode() + b"\n")
        count += 1
    assert count == 2 * (1 + 3 + 10 + 33 + 155 + 11 + 23 + 47)
    assert digest.hexdigest() == BASELINE_SHA256


def test_trees_on_10_vertices_match_their_digest():
    digest = hashlib.sha256()
    count = 0
    for line in _lines(enumerate_trees(10)):
        digest.update(line.encode() + b"\n")
        count += 1
    assert count == 2 * 106
    assert digest.hexdigest() == TREES_10_SHA256


def test_union_sweep_records_match_their_digest():
    # every record of the scope, in sweep order, with elapsed_ms 0
    report = sweep_disconnected(2, 5, "conj-2.1", None)
    digest = hashlib.sha256()
    for rec in report.records:
        digest.update((format_record(replace(rec, elapsed_ms=0)) + "\n").encode())
    assert len(report.records) == 30 and report.scope == "disconnected 2H n(H)<=5"
    assert digest.hexdigest() == UNION_2_5_SHA256
