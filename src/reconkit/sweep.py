"""Sweep harness: evaluate claims over graph families, resumably.

A sweep enumerates a scope (trees on n vertices, caterpillars on n vertices,
or disjoint unions kH), computes all four reconstruction numbers per graph,
streams records into the store, and evaluates a named claim.  Graphs whose
certificates already sit in the store are skipped, so an interrupted sweep
resumes to the same final record set.  Claims come in two kinds: "verify"
claims flag violations (nonzero exit), "census" claims merely select rows.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from .caterpillar import CaterpillarSeq, reductions, seq_of
from .decks import DaEcard, Deck, _edged_cert, edge_deck, sub_multiset
from .families import (
    MAX_GRAPH_N,
    MAX_TREE_N,
    caterpillar_graph,
    disjoint_union,
    enumerate_graphs,
    enumerate_trees,
    parse_family_spec,
)
from .graphs import (
    MAX_VERTICES,
    Graph,
    GraphError,
    _component_masks,
    _is_int,
    _require_int,
    _require_size,
    canonical_form,
    edge_degree,
)
from .recon import (
    _context,
    _isomorphic_components,
    adv_recon_number,
    blocked,
    recon_number,
)
from .store import (
    ResultRecord,
    _num,
    check_store_scheme,
    format_witness,
    store_append,
    store_scan,
)

__all__ = [
    "Claim",
    "CLAIMS",
    "SweepReport",
    "evaluate_graph",
    "sweep_trees",
    "sweep_caterpillars",
    "sweep_disconnected",
    "identifying_cards",
    "pair_certifies",
]

SWEEP_CAP = 10


def evaluate_graph(g: Graph) -> ResultRecord:
    """All four reconstruction numbers plus the dern witness for one graph."""
    t0 = time.perf_counter()
    ern = recon_number(g, da=False)
    dern = recon_number(g, da=True)
    adv_e = adv_recon_number(g, da=False)
    adv_d = adv_recon_number(g, da=True)
    elapsed = int((time.perf_counter() - t0) * 1000)
    return ResultRecord(
        g6=canonical_form(g).canon,
        n=g.n,
        m=g.m,
        ern=ern.value,
        dern=dern.value,
        adv_ern=adv_e.value,
        adv_dern=adv_d.value,
        witness=format_witness(dern.witness),
        elapsed_ms=elapsed,
    )


# ---------------------------------------------------------------------------
# Claims: named predicates over result records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    name: str
    kind: str  # "verify" | "census"
    description: str
    check: object  # callable(graph, record) -> bool


def _is_star(h: Graph) -> bool:
    if h.n < 2:
        return False
    degs = sorted(h.degrees())
    return degs == [1] * (h.n - 1) + [h.n - 1]


def _check_dern_le_2(g: Graph, rec: ResultRecord) -> bool:
    return rec.dern is not None and rec.dern <= 2


def _check_conj_components_star(g: Graph, rec: ResultRecord) -> bool:
    # All-isomorphic-components graphs with ern > 3 must be unions of stars.
    h = _isomorphic_components(g)
    if h is None:
        return True
    if rec.ern is not None and rec.ern <= 3:
        return True
    return _is_star(h)


_STAR_LIKE_EXCEPTIONS = frozenset(
    canonical_form(parse_family_spec(spec)) for spec in ("S:2", "S:3", "Kpq:2,3")
)


def _check_conj_uniform_cards(g: Graph, rec: ResultRecord) -> bool:
    # Unions kH where all edge-cards of H are isomorphic should have
    # dern <= 2 once H is none of the three known exceptions.
    h = _isomorphic_components(g)
    if h is None or h.m < 1 or len(edge_deck(h)) != 1:
        return True
    if canonical_form(h) in _STAR_LIKE_EXCEPTIONS:
        return True
    return rec.dern is not None and rec.dern <= 2


CLAIMS = {
    claim.name: claim
    for claim in [
        Claim(
            "dern-le-2",
            "verify",
            "dern is finite and at most 2",
            _check_dern_le_2,
        ),
        Claim(
            "ern-eq-3-census",
            "census",
            "select graphs with ern exactly 3",
            lambda g, rec: rec.ern == 3,
        ),
        Claim(
            "conj-2.1",
            "verify",
            "all-isomorphic-components graphs with ern > 3 are unions of stars",
            _check_conj_components_star,
        ),
        Claim(
            "conj-4.1",
            "verify",
            "uniform-edge-card unions (past the three known exceptions) have dern <= 2",
            _check_conj_uniform_cards,
        ),
    ]
}


@dataclass
class SweepReport:
    scope: str
    claim: str
    records: list
    violations: list  # verify: failing records; census: selected records
    computed: int
    resumed: int
    elapsed: float

    @property
    def failed(self) -> bool:
        return bool(self.violations) and CLAIMS[self.claim].kind == "verify"

    def lines(self) -> list:
        claim = CLAIMS[self.claim]
        label = "violations" if claim.kind == "verify" else "matches"
        out = [
            f"sweep {self.scope} claim={self.claim} ({claim.description})",
            f"records: {len(self.records)} ({self.computed} computed, "
            f"{self.resumed} resumed)  elapsed: {self.elapsed:.1f}s",
            f"{label}: {len(self.violations)}",
        ]
        for rec in self.violations:
            out.append(
                f"  {rec.g6}  n={rec.n} m={rec.m} ern={_num(rec.ern)} "
                f"dern={_num(rec.dern)} witness={rec.witness}"
            )
        return out


def _run_sweep(
    scope: str, graphs, n: int, claim_name: str, store_path: str | None, force: bool
) -> SweepReport:
    """The one sweep driver: n, the scope's largest vertex count, is gated
    and capped before the claim is checked or the store read."""
    _require_size(n)
    if n > SWEEP_CAP and not force:
        raise GraphError(f"sweep capped at {SWEEP_CAP} vertices, got {n}; use force")
    if claim_name not in CLAIMS:
        raise ValueError(f"unknown claim {claim_name!r}; have {sorted(CLAIMS)}")
    claim = CLAIMS[claim_name]
    t0 = time.perf_counter()
    known = {}
    if store_path:
        check_store_scheme(store_path)
        existing, _stats = store_scan(store_path)
        known = {rec.g6: rec for rec in existing}
    records = []
    computed = resumed = 0
    violations = []
    for g in graphs:
        rec = known.get(canonical_form(g).canon)
        if rec is not None:
            resumed += 1
        else:
            rec = evaluate_graph(g)
            computed += 1
            if store_path:
                store_append(store_path, rec)
        records.append(rec)
        # a verify claim lists the records that fail it, a census those that pass
        if claim.check(g, rec) == (claim.kind == "census"):
            violations.append(rec)
    return SweepReport(
        scope=scope,
        claim=claim_name,
        records=records,
        violations=violations,
        computed=computed,
        resumed=resumed,
        elapsed=time.perf_counter() - t0,
    )


def sweep_trees(
    n: int,
    claim: str,
    store_path: str | None = None,
    force: bool = False,
) -> SweepReport:
    """All trees on exactly n vertices."""
    _require_int(n, 2, MAX_TREE_N, "tree sweep n")
    return _run_sweep(f"trees n={n}", enumerate_trees(n), n, claim, store_path, force)


def sweep_caterpillars(
    n: int,
    claim: str,
    store_path: str | None = None,
    force: bool = False,
) -> SweepReport:
    """All caterpillars on exactly n vertices."""
    _require_int(n, 2, MAX_TREE_N, "caterpillar sweep n")
    graphs = (t for t in enumerate_trees(n) if seq_of(t) is not None)
    return _run_sweep(f"caterpillars n={n}", graphs, n, claim, store_path, force)


def sweep_disconnected(
    k: int,
    max_component: int,
    claim: str,
    store_path: str | None = None,
    force: bool = False,
) -> SweepReport:
    """kH over all connected H with at most max_component vertices."""
    _require_int(k, 2, MAX_VERTICES // 2, "disconnected sweep k")
    _require_int(max_component, 2, MAX_GRAPH_N, "disconnected sweep n(H)")

    def graphs():
        for nh in range(2, max_component + 1):
            for h in enumerate_graphs(nh):
                if len(_component_masks(h)) == 1:
                    yield disjoint_union(k, h)

    scope = f"disconnected {k}H n(H)<={max_component}"
    return _run_sweep(scope, graphs(), k * max_component, claim, store_path, force)


# ---------------------------------------------------------------------------
# Certifying caterpillars from their identifying reduction pair
# ---------------------------------------------------------------------------

def identifying_cards(s: CaterpillarSeq, positions) -> tuple:
    """The da-ecards of caterpillar_graph(s) that delete one leaf at each
    given position: the edge from spine vertex pos - 1 to its first leaf,
    with that edge's degree (leaves are numbered after the spine, in spine
    order).  Raises ValueError for a position that is not one of
    reductions(s).
    """
    a = s.a
    valid = [r.pos for r in reductions(s)]
    g = caterpillar_graph(s)
    cards = []
    for pos in positions:
        if not _is_int(pos) or pos not in valid:
            raise ValueError(f"position {pos!r} of <{s}> is not one of {valid}")
        e = (pos - 1, len(a) + sum(a[: pos - 1]))
        cards.append(DaEcard(canonical_form(g.remove_edge(*e)), edge_degree(g, e)))
    return tuple(cards)


def pair_certifies(t: Graph, cards) -> bool:
    """True iff the multiset of da-ecards lies in t's da-edeck and in no
    blocker's da-edeck.  The deck is read from t's blocker pass, which
    ``evaluate_graph(t)`` has already made."""
    need = Deck(Counter(cards))
    da_deck = _context(_edged_cert(t, True)).decks[True]
    return sub_multiset(need, da_deck) and not blocked(t, need, True)
