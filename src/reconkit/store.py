"""Append-only result store: one tab-separated record per line.

The first line of a store is the header ``#reconkit-store v2
cert=<scheme>``, naming the certificate scheme whose canonical graph6 keys
the records; stores written before headers existed have none and were
keyed by the lex-min labeler.  Record fields: canonical graph6, n, m, ern,
dern, adv_ern, adv_dern, witness, elapsed milliseconds.  Indeterminate
numbers are stored as "indet"; the witness is "-" exactly when dern is,
and otherwise a ";"-joined list of "mult x d x graph6" entries using the
'×' separator, which never occurs in graph6 text: each card has the
record's n and m - 1 edges, and the multiplicities sum to dern.  A record
counts only once its newline is written, so a line torn by a crash is
corrupt, and so is a line that is not UTF-8 (torn inside the two bytes of
'×', say), whose graph6 is not as ``write_graph6`` writes its graph with
its n and m, or whose witness does not fit dern.  Scanning decodes each
line on its own, skips corrupt lines with a warning count and
deduplicates by graph6 text, last write winning.  The sweeps write only
canonical graph6, one text per certificate, but a record keyed by exact
graph6 of another labeling (``DDW`` for P_5, canonical ``DBg``) is neither
corrupt nor a duplicate of the canonical record: flagging such keys is
left to a store verifier (ROADMAP item 5).
"""

from __future__ import annotations

import operator
import os
import re
from dataclasses import dataclass

from .decks import _key_parts
from .graphs import CERT_SCHEME, Graph, _integer, parse_graph6, write_graph6

__all__ = [
    "ResultRecord",
    "format_record",
    "parse_record",
    "format_witness",
    "store_append",
    "store_scan",
    "check_store_scheme",
    "default_store_path",
]

STORE_ENV = "RECONKIT_STORE"
_HEADER_PREFIX = "#reconkit-store "
STORE_HEADER = f"{_HEADER_PREFIX}v2 cert={CERT_SCHEME}"
_FIELDS = 9


def default_store_path() -> str:
    return os.environ.get(STORE_ENV) or "reconkit-store.txt"


@dataclass(frozen=True)
class ResultRecord:
    g6: str
    n: int
    m: int
    ern: int | None
    dern: int | None
    adv_ern: int | None
    adv_dern: int | None
    witness: str
    elapsed_ms: int


def format_witness(witness) -> str:
    return ";".join("×".join(_key_parts(key, mult)) for key, mult in witness) or "-"


def _num(value) -> str:
    return "indet" if value is None else str(value)


def _decimal(text: str, least: int) -> int:
    """An integer of at least ``least``, written as ``str`` writes it."""
    value = _integer(text)
    if value < least:
        raise ValueError(f"{text!r} is not a decimal of at least {least}")
    return value


def _parse_num(text: str):
    return None if text == "indet" else _decimal(text, 1)


def format_record(rec: ResultRecord) -> str:
    numbers = map(_num, (rec.ern, rec.dern, rec.adv_ern, rec.adv_dern))
    fields = [rec.g6, rec.n, rec.m, *numbers, rec.witness, rec.elapsed_ms]
    return "\t".join(map(str, fields))


def _graph6(text: str) -> Graph:
    """The graph of text, which must be as ``write_graph6`` writes it: a
    record keyed by padded or prefixed text misses its graph on resume."""
    g = parse_graph6(text)
    if write_graph6(g) != text:
        raise ValueError(f"{text!r} is not graph6 text as the store writes it")
    return g


def _check_witness(text: str, n: int, m: int, dern) -> None:
    """ValueError unless text is "-" with dern indet, or entries of
    ``mult×d×g6`` (mult >= 1, d >= 0) whose cards have n vertices and m - 1
    edges and whose multiplicities sum to dern."""
    if (dern is None) != (text == "-"):
        raise ValueError(f"witness {text!r} does not fit dern={_num(dern)}")
    if dern is None:
        return
    total = 0
    for entry in text.split(";"):
        mult, d, g6 = entry.split("×")
        card = _graph6(g6)
        if (card.n, card.m) != (n, m - 1):
            raise ValueError(f"card {g6!r} is not a card of a graph with n={n} m={m}")
        _decimal(d, 0)
        total += _decimal(mult, 1)
    if total != dern:
        raise ValueError(f"witness multiplicities sum to {total}, not dern={dern}")


def parse_record(line: str) -> ResultRecord:
    """One record; a ValueError when a field is malformed, a graph6 text is
    not as ``write_graph6`` writes a graph with the record's n and m, or the
    witness does not fit dern.  The four numbers are decimals of at least 1
    or "indet", and the elapsed milliseconds a decimal."""
    parts = line.rstrip("\n").split("\t")
    if len(parts) != _FIELDS:
        raise ValueError(f"expected {_FIELDS} fields, got {len(parts)}")
    g6, n, m, ern, dern, adv_ern, adv_dern, witness, ms = parts
    g = _graph6(g6)
    if (g.n, g.m) != (_decimal(n, 1), _decimal(m, 0)):
        raise ValueError(f"{g6!r} has n={g.n} m={g.m}, the record says n={n} m={m}")
    numbers = list(map(_parse_num, (ern, dern, adv_ern, adv_dern)))
    _check_witness(witness, g.n, g.m, numbers[1])
    return ResultRecord(g6, g.n, g.m, *numbers, witness, _decimal(ms, 0))


def store_append(path: str, rec: ResultRecord) -> None:
    """Append one record line, after the header when the store is new or
    empty, and after ending a line torn by a crash so that the new record
    does not run on from it."""
    line = (format_record(rec) + "\n").encode("utf-8")
    with open(path, "ab+") as fh:
        end = fh.seek(0, os.SEEK_END)
        if not end:
            line = (STORE_HEADER + "\n").encode("utf-8") + line
        else:
            fh.seek(end - 1)
            if fh.read(1) != b"\n":
                line = b"\n" + line
        fh.write(line)


def check_store_scheme(path: str) -> None:
    """Raise ValueError unless the store at path is missing, empty, or
    headed by this certificate scheme.  Records are found by canonical
    graph6, which another scheme writes differently, so resuming across a
    scheme change would miss every record and append duplicates."""
    try:
        with open(path, "rb") as fh:
            first = fh.readline().decode("utf-8", "replace")
    except FileNotFoundError:
        return
    header = first.rstrip("\n")
    if not first or header == STORE_HEADER:
        return
    if header.startswith(_HEADER_PREFIX):
        found = f"under {header!r}"
    else:
        found = "without a header, by the lex-min labeler"
    raise ValueError(
        f"store {path} was written {found}; this version writes "
        f"{STORE_HEADER!r}, so resume into a new store"
    )


_FILTER_RE = re.compile(r"^\s*(\w+)\s*(>=|<=|!=|=|>|<)\s*(\S+)\s*$")
_FILTER_FIELDS = {"n", "m", "ern", "dern", "adv_ern", "adv_dern", "elapsed_ms"}
_FILTER_OPS = {
    ">=": operator.ge,
    "<=": operator.le,
    "=": operator.eq,
    "!=": operator.ne,
    ">": operator.gt,
    "<": operator.lt,
}


def _filter_value(text: str):
    """A filter's value: an integer, or 'indet' as +infinity; None for any
    other text."""
    try:
        return float("inf") if text == "indet" else _integer(text)
    except ValueError:
        return None


def parse_filter(expr: str):
    """Tiny filter language: '<field> <op> <value>', e.g. 'dern>=3'.

    Indeterminate values compare as +infinity, so 'dern>=3' also selects
    graphs whose full deck is blocked, and 'dern=indet' selects only them.
    """
    match = _FILTER_RE.match(expr)
    field, op, raw = match.groups() if match else (None, None, "")
    target = _filter_value(raw)
    if field not in _FILTER_FIELDS or target is None:
        raise ValueError(f"bad filter {expr!r}; fields: {sorted(_FILTER_FIELDS)}")
    compare = _FILTER_OPS[op]

    def predicate(rec):
        v = getattr(rec, field)
        return compare(float("inf") if v is None else v, target)

    return predicate


def store_scan(path: str, filter_expr: str | None = None):
    """Records from the store, deduplicated by graph6 text (last write
    wins).

    Returns (records, stats) where stats counts corrupt lines skipped and
    repeated graph6 keys flagged as duplicates.  Two records of one graph
    under different labelings are both kept and not flagged (see the
    module docstring).  The header line is neither; stores without one are
    read the same way.
    """
    predicate = parse_filter(filter_expr) if filter_expr else None
    by_g6: dict = {}
    stats = {"corrupt": 0, "duplicates": 0}
    if os.path.exists(path):
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh):
                try:  # UnicodeDecodeError (torn inside a character) is a ValueError
                    line = raw.decode("utf-8")
                    if lineno == 0 and line.startswith(_HEADER_PREFIX):
                        continue
                    if not line.strip():
                        continue
                    if not line.endswith("\n"):
                        raise ValueError("torn by a crash")
                    rec = parse_record(line)
                except ValueError:
                    stats["corrupt"] += 1
                    continue
                if rec.g6 in by_g6:
                    stats["duplicates"] += 1
                by_g6[rec.g6] = rec
    records = [r for r in by_g6.values() if predicate is None or predicate(r)]
    records.sort(key=lambda r: (r.n, r.m, r.g6))
    return records, stats
