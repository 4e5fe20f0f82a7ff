"""Caterpillar sequences: reductions, reconstruction, identifying pairs.

A caterpillar is a tree whose non-leaf vertices induce a path (the spine);
writing a_i for the number of leaves hanging off the i-th spine vertex gives
the sequence <a_1..a_n>, unique up to left-to-right orientation.  Deleting a
leaf edge that keeps the spine intact decrements one entry; such a decrement
is a reduction.  Reconstructing a sequence from two of its reductions is the
sequence-level picture of recovering a caterpillar from two leaf-deletion
cards, and the identifying pair picks two reduction positions that pin the
sequence down uniquely.

The picture is partial on the graph side.  Two identical leaf-deletion
cards can also come from one spine position that carries two leaves (both
cards of <1,1,1,1> at positions 2 and 3 are cards of <2,0,1,1> at position
1), and ``reconstruct`` considers only two distinct positions.  Graphs with
a cycle can carry the cards too, so an identifying pair need not determine
the caterpillar among all graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, _bits, _integer, _require_int, _require_tree

__all__ = [
    "CaterpillarSeq",
    "seq_of",
    "reductions",
    "reconstruct",
    "identifying_pair",
    "is_path_sequence",
]


@dataclass(frozen=True)
class CaterpillarSeq:
    """Integer sequence <a_1..a_n>, stored in its lexicographically least
    orientation so that equality is equality up to reversal.  Each entry
    is an int >= 0 (GraphError otherwise); ``parse`` reads them from text."""

    a: tuple

    def __init__(self, a):
        a = tuple(a)
        if not a:
            raise ValueError("empty caterpillar sequence")
        for x in a:
            _require_int(x, 0, math.inf, "caterpillar entry")
        if len(a) >= 2 and (a[0] < 1 or a[-1] < 1):
            raise ValueError(f"end entries must be >= 1 in {a}")
        object.__setattr__(self, "a", min(a, a[::-1]))

    @classmethod
    def parse(cls, text: str) -> "CaterpillarSeq":
        try:
            return cls(_integer(part) for part in text.split(","))
        except ValueError as exc:
            raise ValueError(f"bad caterpillar sequence {text!r}: {exc}") from None

    def __len__(self):
        return len(self.a)

    def __str__(self):
        return ",".join(str(x) for x in self.a)

    def __repr__(self):
        return f"CaterpillarSeq(<{self}>)"


def is_path_sequence(s: CaterpillarSeq) -> bool:
    a = s.a
    if len(a) == 1:
        return a[0] <= 2
    return a[0] == 1 and a[-1] == 1 and all(x == 0 for x in a[1:-1])


def _dec_keeps_spine(a: tuple, i: int) -> bool:
    """Does deleting one leaf at 0-based position i keep the spine?

    The spine vertex keeps degree >= 2 exactly when enough leaves remain:
    interior positions always do, end positions need a_i >= 2, and a lone
    spine vertex needs a_i >= 3.
    """
    n = len(a)
    if a[i] < 1:
        return False
    if n == 1:
        return a[i] >= 3
    if i in (0, n - 1):
        return a[i] >= 2
    return True


def _dec(a: tuple, i: int) -> tuple:
    return a[:i] + (a[i] - 1,) + a[i + 1:]


def _inc(a: tuple, i: int) -> tuple:
    return a[:i] + (a[i] + 1,) + a[i + 1:]


def reductions(s: CaterpillarSeq) -> dict:
    """{position: reduced sequence} for every spine-preserving reduction,
    positions 1-based in the stored orientation, ascending; paths and
    stars that are too small yield an empty dict."""
    a = s.a
    return {
        i + 1: CaterpillarSeq(_dec(a, i))
        for i in range(len(a))
        if _dec_keeps_spine(a, i)
    }


def reconstruct(r1: CaterpillarSeq, r2: CaterpillarSeq) -> set:
    """All sequences S (up to reversal) admitting r1 and r2 as
    spine-preserving reductions at two distinct positions.

    Every candidate is an increment of r1 in one of its orientations; it
    survives if some other position reduces to r2.  Raises ValueError when
    the inputs cannot both come from one sequence.
    """
    if len(r1) != len(r2) or sum(r1.a) != sum(r2.a):
        raise ValueError("reductions have mismatched length or total")
    n = len(r1)
    found = set()
    for base in {r1.a, r1.a[::-1]}:
        for i in range(n):
            parent = _inc(base, i)  # reduced at i, it keeps the spine if n >= 2
            for j in range(n):
                if j == i or not _dec_keeps_spine(parent, j):
                    continue
                r = _dec(parent, j)  # valid, so stored as its lesser orientation
                if min(r, r[::-1]) == r2.a:
                    found.add(parent)
                    break
    if not found:
        raise ValueError(f"no sequence has both <{r1}> and <{r2}> as reductions")
    return set(map(CaterpillarSeq, found))


def identifying_pair(s: CaterpillarSeq) -> tuple:
    """Two reduction positions (1-based) whose reductions reconstruct s
    uniquely.

    The ends (1, n) work unless a_1 = a_n and exactly one conjugate pair
    differs, by exactly one, in which case that conjugate pair works.  When
    an end decrement would shorten the spine the remaining valid positions
    are searched directly.  Raises ValueError for paths, for sequences with
    fewer than two spine-preserving reductions, and when no pair identifies.
    """
    if is_path_sequence(s):
        raise ValueError("paths are handled directly, not via sequences")
    by_pos = reductions(s)
    if len(by_pos) < 2:
        raise ValueError("fewer than two spine-preserving reductions")
    a = s.a
    n = len(a)

    def singleton(i: int, j: int) -> bool:
        return reconstruct(by_pos[i], by_pos[j]) == {s}

    if 1 in by_pos and n in by_pos:
        pair = (1, n)
        if a[0] == a[-1]:
            diffs = [k for k in range(n // 2) if a[k] != a[n - 1 - k]]
            if len(diffs) == 1 and abs(a[diffs[0]] - a[n - 1 - diffs[0]]) == 1:
                pair = (diffs[0] + 1, n - diffs[0])
        if pair[0] in by_pos and pair[1] in by_pos and singleton(*pair):
            return pair
    for i, j in combinations(by_pos, 2):
        if singleton(i, j):
            return (i, j)
    raise ValueError(f"no identifying reduction pair for <{s}>")


# ---------------------------------------------------------------------------
# Graph side: recognizing caterpillars and reading their sequences
# ---------------------------------------------------------------------------

def seq_of(t: Graph) -> CaterpillarSeq | None:
    """Sequence of t if it is a caterpillar, else None; t must be a tree."""
    _require_tree(t)
    if t.n == 1:
        return CaterpillarSeq((0,))
    if t.n == 2:
        return CaterpillarSeq((1,))
    rows = t.rows
    spine = sum(1 << v for v, d in enumerate(t.degrees()) if d >= 2)
    if any((rows[v] & spine).bit_count() > 2 for v in _bits(spine)):
        return None  # leaves removed is not a path
    # the non-leaves of a tree induce a subtree, here one of maximum degree
    # at most 2, so a path: the walk from its lowest end covers the spine
    v = next(v for v in _bits(spine) if (rows[v] & spine).bit_count() < 2)
    counts, todo = [], spine
    while todo:
        todo ^= 1 << v
        counts.append((rows[v] & ~spine).bit_count())
        v = (rows[v] & todo).bit_length() - 1
    return CaterpillarSeq(counts)
