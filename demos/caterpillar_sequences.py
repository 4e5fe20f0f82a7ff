"""Reconstructing caterpillar sequences from two reductions.

A caterpillar <a_1..a_n> loses one leaf per reduction.  Two reductions
usually pin the sequence down; the worked examples below show the unique
case, the ambiguous case, and how the identifying pair of positions is
chosen.

Usage:
    python demos/caterpillar_sequences.py
"""

from reconkit import (
    CaterpillarSeq,
    caterpillar_graph,
    identifying_pair,
    recon_number,
    reconstruct,
    reductions,
    seq_of,
)


def show_reconstruct(label, r1, r2):
    print(f"{label}:")
    print(f"  reductions <{r1}> and <{r2}>")
    try:
        result = reconstruct(r1, r2)
    except ValueError as exc:
        print(f"  -> inconsistent: {exc}")
        return
    for s in sorted(result, key=lambda s: s.a):
        print(f"  -> <{s}>")


def main():
    print("=" * 72)
    print("Unique reconstruction")
    print("=" * 72)
    show_reconstruct(
        "one aligned overlay survives",
        CaterpillarSeq((3, 4, 2, 7, 7, 2, 4, 3)),
        CaterpillarSeq((3, 4, 1, 7, 7, 3, 4, 3)),
    )

    print()
    print("=" * 72)
    print("Ambiguous reconstruction")
    print("=" * 72)
    show_reconstruct(
        "two overlays survive (original <2,7,3,5,3,6,2> and an impostor)",
        CaterpillarSeq((1, 7, 3, 5, 3, 6, 2)),
        CaterpillarSeq((1, 6, 3, 5, 3, 7, 2)),
    )

    print()
    print("=" * 72)
    print("Choosing the identifying pair")
    print("=" * 72)
    for tup in [(2, 7, 3, 5, 3, 6, 2), (3, 4, 3, 7, 7, 2, 4, 3), (2, 1, 2), (1, 2, 2, 1)]:
        s = CaterpillarSeq(tup)
        i, j = identifying_pair(s)
        by_pos = reductions(s)
        print(f"<{s}>  ->  positions ({i},{j}), "
              f"reductions <{by_pos[i]}> / <{by_pos[j]}>")
        assert reconstruct(by_pos[i], by_pos[j]) == {s}

    print()
    print("=" * 72)
    print("Sequences against graphs")
    print("=" * 72)
    for tup in [(2, 0, 2), (2, 1, 2), (2, 3, 2), (1, 0, 1, 0, 1), (2, 0, 0, 0, 2)]:
        g = caterpillar_graph(tup)
        s = seq_of(g)
        d = recon_number(g, da=True).value
        print(f"<{s}>  n={g.n}  dern={d}")


if __name__ == "__main__":
    main()
