"""Command-line surface.

Subcommands: deck, recon, sweep, caterpillar, family, store.  Graphs
are given as graph6 text or family grammar (P:n, S:n, K:n, Kpq:p,q, C:n,
U:k*<spec>, cat:a1,a2,..., spider:l1,l2,...).  The result store path comes
from --store or the RECONKIT_STORE environment variable.  Exit codes:
0 success, 2 a verify-claim found violations, 1 error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .caterpillar import CaterpillarSeq, identifying_pair, reconstruct, reductions
from .decks import da_edeck, edge_deck, format_deck
from .families import enumerate_graphs, enumerate_trees, resolve_graph_input
from .graphs import _integer, canonical_form, write_graph6
from .recon import adv_recon_number, recon_number
from .store import _num, default_store_path, format_record, format_witness, store_scan
from .sweep import (
    CLAIMS,
    evaluate_graph,
    sweep_caterpillars,
    sweep_disconnected,
    sweep_trees,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # the convention here: exit code 2 is reserved for claim violations
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _k_maxh(text: str) -> tuple:
    k_text, _, maxh_text = text.partition(":")
    try:
        return _integer(k_text), _integer(maxh_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected K:MAXH (two integers), got {text!r}"
        ) from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="reconkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("deck", help="print the (da-)edeck of a graph")
    p.add_argument("graph", help="graph6 or family grammar")
    p.add_argument("--da", action="store_true", help="degree-associated deck")

    p = sub.add_parser("recon", help="reconstruction numbers")
    p.add_argument("graph")
    p.add_argument(
        "--which",
        choices=["ern", "dern", "adv-ern", "adv-dern", "all"],
        default="dern",
    )

    p = sub.add_parser("sweep", help="evaluate a claim over a family")
    scope = p.add_mutually_exclusive_group(required=True)
    scope.add_argument("--trees", type=_integer, metavar="N")
    scope.add_argument("--caterpillars", type=_integer, metavar="N")
    scope.add_argument(
        "--disconnected",
        type=_k_maxh,
        metavar="K:MAXH",
        help="kH over connected H, n(H)<=MAXH",
    )
    p.add_argument("--claim", required=True, choices=sorted(CLAIMS))
    persist = p.add_mutually_exclusive_group()
    persist.add_argument("--store", default=None, help="store path (default from env)")
    persist.add_argument("--no-store", action="store_true", help="do not persist records")
    p.add_argument("--force", action="store_true", help="override size caps")

    p = sub.add_parser("caterpillar", help="sequence calculus")
    csub = p.add_subparsers(dest="action", required=True)
    c = csub.add_parser("reconstruct", help="sequences consistent with two reductions")
    c.add_argument("r1")
    c.add_argument("r2")
    c = csub.add_parser("pair", help="identifying reduction positions")
    c.add_argument("seq")

    p = sub.add_parser("family", help="generate or list graphs")
    fsub = p.add_subparsers(dest="action", required=True)
    f = fsub.add_parser("gen", help="print the graph6 of a family spec")
    f.add_argument("spec")
    f = fsub.add_parser("list", help="enumerate trees or graphs")
    f.add_argument("what", choices=["trees", "graphs"])
    f.add_argument("n", type=_integer)
    f.add_argument("--edges", type=_integer, default=None, help="graphs only")

    p = sub.add_parser("store", help="inspect the result store")
    ssub = p.add_subparsers(dest="action", required=True)
    s = ssub.add_parser("scan", help="print store records")
    s.add_argument("--filter", default=None, help="e.g. 'dern>=3'")
    s.add_argument("--store", default=None)

    return parser


def _cmd_deck(args) -> int:
    g = resolve_graph_input(args.graph)
    deck = da_edeck(g) if args.da else edge_deck(g)
    for line in format_deck(deck):
        print(line)
    return 0


# --which name -> (function, da)
_NUMBERS = {
    "ern": (recon_number, False),
    "dern": (recon_number, True),
    "adv-ern": (adv_recon_number, False),
    "adv-dern": (adv_recon_number, True),
}


def _cmd_recon(args) -> int:
    g = resolve_graph_input(args.graph)
    t0 = time.perf_counter()
    if args.which == "all":
        print(format_record(evaluate_graph(g)))
        return 0
    number, da = _NUMBERS[args.which]
    result = number(g, da=da)
    print(f"graph: {canonical_form(g).canon}  n={g.n} m={g.m}")
    print(f"{args.which} = {_num(result.value)}")
    print(f"witness: {format_witness(result.witness)}")
    print(f"max shared with a blocker: {result.max_shared}")
    if result.blocker_example is not None:
        print(f"blocker example: {write_graph6(result.blocker_example)}")
    print(f"elapsed: {int((time.perf_counter() - t0) * 1000)} ms")
    return 0


def _cmd_sweep(args) -> int:
    store_path = None if args.no_store else (args.store or default_store_path())
    if args.trees is not None:
        report = sweep_trees(args.trees, args.claim, store_path, args.force)
    elif args.caterpillars is not None:
        report = sweep_caterpillars(args.caterpillars, args.claim, store_path, args.force)
    else:
        k, maxh = args.disconnected
        report = sweep_disconnected(k, maxh, args.claim, store_path, args.force)
    for line in report.lines():
        print(line)
    return 2 if report.failed else 0


def _cmd_caterpillar(args) -> int:
    if args.action == "reconstruct":
        result = reconstruct(CaterpillarSeq.parse(args.r1), CaterpillarSeq.parse(args.r2))
        for s in sorted(result, key=lambda s: s.a):
            print(s)
        return 0
    s = CaterpillarSeq.parse(args.seq)
    i, j = identifying_pair(s)
    print(f"sequence: <{s}>")  # the stored orientation, which positions index
    print(f"positions: {i},{j}")
    by_pos = reductions(s)
    print(f"reductions: <{by_pos[i]}>  <{by_pos[j]}>")
    return 0


def _cmd_family(args) -> int:
    if args.action == "gen":
        g = resolve_graph_input(args.spec)
        print(write_graph6(g))
        return 0
    if args.what == "graphs":
        gen = enumerate_graphs(args.n, args.edges)
    elif args.edges is None:
        gen = enumerate_trees(args.n)
    else:
        raise ValueError("--edges applies to graphs only (a tree has n-1 edges)")
    count = 0
    for g in gen:  # each one its own canonical graph
        print(write_graph6(g))
        count += 1
    print(f"total: {count}", file=sys.stderr)
    return 0


def _cmd_store(args) -> int:
    path = args.store or default_store_path()
    if not os.path.exists(path):
        # store_scan reads a missing file as empty, which a new sweep needs
        raise ValueError(f"no store at {path}")
    records, stats = store_scan(path, args.filter)
    if stats["corrupt"]:
        print(f"warning: skipped {stats['corrupt']} corrupt lines", file=sys.stderr)
    if stats["duplicates"]:
        print(
            f"warning: {stats['duplicates']} duplicate certificates (last wins)",
            file=sys.stderr,
        )
    for rec in records:
        print(format_record(rec))
    return 0


_COMMANDS = {
    "deck": _cmd_deck,
    "recon": _cmd_recon,
    "sweep": _cmd_sweep,
    "caterpillar": _cmd_caterpillar,
    "family": _cmd_family,
    "store": _cmd_store,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # --help
        return exc.code or 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
