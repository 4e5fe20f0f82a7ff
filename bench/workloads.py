"""The three benchmark workloads and the checks on their outputs.

Each workload has a set-up step that builds its inputs from the seed, a
timed step that calls reconkit, and a check against references that do not
depend on the certificate scheme: counts, reconstruction numbers and OEIS
sequences, never graph6 text, because a new canonical labeler changes every
canonical string.  Calls go through module attributes (``sweep.evaluate_graph``,
not a name imported once) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import os
import random
import time
from collections import Counter

from reconkit import caterpillar, families, graphs, store, sweep

# ---------------------------------------------------------------------------
# tree-sweep: sweep_trees over every tree on n vertices into a fresh store,
# then the identifying-pair pass over the caterpillars among those trees.
# ---------------------------------------------------------------------------

TREE_N = {"full": 10, "toy": 6}

# (ern, dern, adv_ern, adv_dern, dern witness size) -> number of trees.
TREE_HISTOGRAM = {
    "toy": {
        (2, 1, 2, 1, 1): 1, (2, 1, 4, 3, 1): 3, (2, 2, 4, 3, 2): 1,
        (3, 1, 4, 3, 1): 1,
    },
    "full": {
        (2, 1, 2, 1, 1): 1, (2, 1, 4, 1, 1): 1, (2, 1, 4, 2, 1): 2,
        (2, 1, 4, 3, 1): 12, (2, 1, 4, 4, 1): 3, (2, 1, 5, 2, 1): 1,
        (2, 1, 5, 3, 1): 5, (2, 1, 5, 4, 1): 2, (2, 1, 5, 5, 1): 4,
        (2, 1, 6, 1, 1): 1, (2, 1, 6, 3, 1): 2, (2, 2, 3, 3, 2): 2,
        (2, 2, 4, 3, 2): 11, (2, 2, 4, 4, 2): 16, (2, 2, 5, 3, 2): 7,
        (2, 2, 5, 4, 2): 12, (2, 2, 5, 5, 2): 10, (2, 2, 6, 3, 2): 1,
        (2, 2, 6, 4, 2): 2, (2, 2, 6, 5, 2): 4, (2, 2, 6, 6, 2): 2,
        (3, 1, 5, 3, 1): 1, (3, 2, 4, 3, 2): 4,
    },
}

# Outcomes of the identifying-pair pass over non-path caterpillars.
# "no-pair" is identifying_pair's documented ValueError, an outcome and
# not a failure.
PAIR_OUTCOMES = {
    "toy": {"certified": 0, "uncertified": 1, "no-pair": 4},
    "full": {"certified": 39, "uncertified": 10, "no-pair": 22},
}


def _timed(fn, latencies_ms: list):
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            latencies_ms.append((time.perf_counter() - t0) * 1000)

    return timed


def tree_setup(size: str, seed: int, workdir: str):
    return TREE_N[size], os.path.join(workdir, "store.txt"), random.Random(seed)


def tree_run(inputs, latencies_ms: list):
    """The sweep, then the pass over its caterpillars, each relabeled by a
    permutation drawn from the seed (sequences do not depend on labels)."""
    n, store_path, rng = inputs
    evaluate = sweep.evaluate_graph
    sweep.evaluate_graph = _timed(evaluate, latencies_ms)
    try:
        report = sweep.sweep_trees(n, "dern-le-2", store_path, force=True)
    finally:
        sweep.evaluate_graph = evaluate
    outcomes = Counter()
    for rec in report.records:
        perm = list(range(rec.n))
        rng.shuffle(perm)
        t = graphs.parse_graph6(rec.g6).permuted(perm)
        s = caterpillar.seq_of(t)
        if s is None or caterpillar.is_path_sequence(s):
            continue
        try:
            positions = caterpillar.identifying_pair(s)
        except ValueError:
            outcomes["no-pair"] += 1
            continue
        cards = sweep.identifying_cards(s, positions)
        outcomes["certified" if sweep.pair_certifies(t, cards) else "uncertified"] += 1
    return report, outcomes, store_path


def _witness_size(witness: str) -> int:
    return sum(int(entry.split("×")[0]) for entry in witness.split(";"))


def _mismatches(observed: Counter, expected: dict) -> int:
    """Items that would have to move for observed to equal expected."""
    keys = set(observed) | set(expected)
    excess = sum(max(0, observed[k] - expected.get(k, 0)) for k in keys)
    short = sum(max(0, expected.get(k, 0) - observed[k]) for k in keys)
    return max(excess, short)


def tree_attempted(size: str) -> int:
    return sum(TREE_HISTOGRAM[size].values()) + sum(PAIR_OUTCOMES[size].values())


def tree_check(size: str, output) -> tuple:
    report, outcomes, store_path = output
    n = TREE_N[size]
    problems = []
    bad = sum(1 for rec in report.records if rec.n != n or rec.m != n - 1)
    hist = Counter(
        (r.ern, r.dern, r.adv_ern, r.adv_dern, _witness_size(r.witness))
        for r in report.records
    )
    bad += _mismatches(hist, TREE_HISTOGRAM[size])
    bad += len(report.violations)
    stored, stats = store.store_scan(store_path)
    if len(stored) != len(report.records) or stats != {"corrupt": 0, "duplicates": 0}:
        problems.append(f"store holds {len(stored)} records, {stats}")
        bad += max(1, abs(len(stored) - len(report.records)))
    bad += _mismatches(outcomes, PAIR_OUTCOMES[size])
    if bad:
        problems.append(
            f"{len(report.records)} records, {len(report.violations)} violations, "
            f"histogram {dict(hist)}, pair outcomes {dict(outcomes)}"
        )
    return min(bad, tree_attempted(size)), len(report.records), problems


# ---------------------------------------------------------------------------
# symmetric-unions: evaluate_graph on a ladder of symmetric graphs, each
# relabeled by a permutation drawn from the seed.
# ---------------------------------------------------------------------------

# spec -> (ern, dern, adv_ern, adv_dern); identical under every relabeling.
LADDER = {
    "U:2*S:3": (5, 4, 5, 4),
    "U:3*S:3": (5, 4, 5, 4),
    "U:4*S:2": (4, 3, 4, 3),
    "U:5*K:2": (3, 1, 3, 1),
    "U:3*C:4": (3, 1, 3, 1),
    "U:2*Kpq:2,3": (3, 3, 3, 3),
    "C:12": (3, 1, 3, 1),
    "C:13": (3, 1, 3, 1),
    "U:2*C:6": (3, 1, 3, 1),
}
LADDER_SPECS = {"full": list(LADDER), "toy": ["U:2*S:3", "U:5*K:2"]}


def symmetric_setup(size: str, seed: int, workdir: str):
    rng = random.Random(seed)
    inputs = []
    for spec in LADDER_SPECS[size]:
        g = families.parse_family_spec(spec)
        perm = list(range(g.n))
        rng.shuffle(perm)
        inputs.append((spec, g.permuted(perm)))
    return inputs


def symmetric_run(inputs, latencies_ms: list):
    out = []
    for spec, g in inputs:
        t0 = time.perf_counter()
        try:
            rec = sweep.evaluate_graph(g)
        except Exception as exc:  # a failed graph is counted, the rest still run
            rec = exc
        latencies_ms.append((time.perf_counter() - t0) * 1000)
        out.append((spec, g, rec))
    return out


def symmetric_attempted(size: str) -> int:
    return len(LADDER_SPECS[size])


def symmetric_check(size: str, output) -> tuple:
    problems = []
    for spec, g, rec in output:
        if isinstance(rec, Exception):
            problems.append(f"{spec}: {type(rec).__name__}: {rec}")
            continue
        got = (rec.ern, rec.dern, rec.adv_ern, rec.adv_dern)
        if got != LADDER[spec] or (rec.n, rec.m) != (g.n, g.m):
            problems.append(f"{spec}: got {got} n={rec.n} m={rec.m}, want {LADDER[spec]}")
    return len(problems), len(output), problems


# ---------------------------------------------------------------------------
# graph-census: every graph on n vertices, with cold caches.
# ---------------------------------------------------------------------------

CENSUS_N = {"full": 7, "toy": 5}
# OEIS A008406: graphs on n vertices by edge count; the sum is A000088(n).
EDGE_COUNTS = {
    5: [1, 1, 2, 4, 6, 6, 6, 4, 2, 1, 1],
    7: [1, 1, 2, 5, 10, 21, 41, 65, 97, 131, 148, 148, 131, 97, 65, 41, 21,
        10, 5, 2, 1, 1],
}


def census_setup(size: str, seed: int, workdir: str):
    return CENSUS_N[size]


def census_run(n: int, latencies_ms: list):
    t0 = time.perf_counter()
    classes = list(families.enumerate_graphs(n))
    latencies_ms.append((time.perf_counter() - t0) * 1000)
    return n, classes


def census_attempted(size: str) -> int:
    return sum(EDGE_COUNTS[CENSUS_N[size]])


def census_check(size: str, output) -> tuple:
    n, classes = output
    expected = dict(enumerate(EDGE_COUNTS[n]))
    by_edges = Counter(g.m for g in classes if g.n == n)
    bad = _mismatches(by_edges, expected) + sum(1 for g in classes if g.n != n)
    problems = []
    if bad:
        problems.append(f"{len(classes)} classes, by edge count {dict(by_edges)}")
    return min(bad, census_attempted(size)), len(classes), problems


# name -> (setup, run, check, attempted)
WORKLOADS = {
    "tree-sweep": (tree_setup, tree_run, tree_check, tree_attempted),
    "symmetric-unions": (symmetric_setup, symmetric_run, symmetric_check, symmetric_attempted),
    "graph-census": (census_setup, census_run, census_check, census_attempted),
}
