import itertools
import random

import pytest

from reconkit import (
    CaterpillarSeq,
    Graph,
    GraphError,
    canonical_form,
    caterpillar_graph,
    enumerate_trees,
    identifying_pair,
    is_path_sequence,
    path,
    reconstruct,
    reductions,
    seq_of,
    spider,
)


def seq(*a):
    return CaterpillarSeq(a)


def test_sequence_normalization_and_validation():
    assert seq(2, 0, 1).a == (1, 0, 2)
    assert seq(2, 0, 1) == seq(1, 0, 2)
    assert str(seq(2, 0, 2)) == "2,0,2"
    assert CaterpillarSeq.parse("2,0,2") == seq(2, 0, 2)
    with pytest.raises(ValueError):
        CaterpillarSeq(())
    with pytest.raises(ValueError):
        CaterpillarSeq((0, 1))
    with pytest.raises(ValueError):
        CaterpillarSeq((1, -1, 1))


def test_path_sequences():
    assert is_path_sequence(seq(0))
    assert is_path_sequence(seq(2))
    assert is_path_sequence(seq(1, 0, 0, 1))
    assert not is_path_sequence(seq(3))
    assert not is_path_sequence(seq(1, 1, 1))


def test_seq_of_round_trip():
    s = seq(2, 1, 2)
    assert seq_of(caterpillar_graph(s)) == s
    assert seq_of(path(6)) == seq(1, 0, 0, 1)
    assert seq_of(spider([2, 2, 2])) is None
    assert seq_of(Graph.from_edges(1, [])) == seq(0)
    assert seq_of(Graph.from_edges(2, [(0, 1)])) == seq(1)
    with pytest.raises(GraphError):
        seq_of(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))


def test_seq_of_on_every_tree():
    # the trees on n >= 4 vertices include 2^(n-4) + 2^floor((n-4)/2)
    # caterpillars (Harary & Schwenk 1973), each with its own sequence,
    # read alike from any labeling and building a tree isomorphic to it
    rng = random.Random(1)
    for n in range(4, 13):
        seqs = set()
        for t in enumerate_trees(n):
            s = seq_of(t)
            if s is None:
                continue
            perm = list(range(n))
            rng.shuffle(perm)
            assert seq_of(t.permuted(perm)) == s, t
            assert canonical_form(caterpillar_graph(s)) == canonical_form(t), t
            assert s not in seqs, t
            seqs.add(s)
        assert len(seqs) == 2 ** (n - 4) + 2 ** ((n - 4) // 2), n


def test_reductions():
    reds = set(reductions(seq(3, 4, 3, 7, 7, 2, 4, 3)).values())
    assert seq(3, 4, 2, 7, 7, 2, 4, 3) in reds
    reds = set(reductions(seq(2, 7, 3, 5, 3, 6, 2)).values())
    assert seq(1, 7, 3, 5, 3, 6, 2) in reds
    assert reductions(seq(1, 0, 1)) == {}
    # end decrements that would shorten the spine are excluded
    positions = list(reductions(seq(1, 2, 2)))
    assert 1 not in positions and set(positions) == {2, 3}
    # a lone spine vertex must keep degree >= 2
    assert reductions(seq(2)) == {}
    assert list(reductions(seq(4)).values()) == [seq(3)]


def test_reconstruct_unique():
    r1 = seq(3, 4, 2, 7, 7, 2, 4, 3)
    r2 = seq(3, 4, 1, 7, 7, 3, 4, 3)
    assert reconstruct(r1, r2) == {seq(3, 4, 3, 7, 7, 2, 4, 3)}


def test_reconstruct_ambiguous():
    r1 = seq(1, 7, 3, 5, 3, 6, 2)
    r2 = seq(1, 6, 3, 5, 3, 7, 2)
    result = reconstruct(r1, r2)
    assert len(result) == 2
    assert seq(1, 7, 3, 5, 3, 7, 2) in result
    assert seq(2, 7, 3, 5, 3, 6, 2) in result


def test_reconstruct_palindrome_from_equal_reductions():
    # a palindrome reduced at mirror positions yields two equal reductions;
    # together they still pin the palindrome down
    r = seq(1, 1, 2)  # reduction of <2,1,2> at either end
    assert reconstruct(r, r) == {seq(2, 1, 2)}
    r = seq(1, 0, 3, 0, 2)
    assert reconstruct(r, r) == {seq(2, 0, 3, 0, 2)}


def test_reconstruct_errors():
    with pytest.raises(ValueError):
        reconstruct(seq(1, 1), seq(1, 1, 1))
    with pytest.raises(ValueError):
        reconstruct(seq(5), seq(1, 4))
    with pytest.raises(ValueError):
        # equal totals but no common parent at distinct positions
        reconstruct(seq(5, 1), seq(3, 3))


def test_identifying_pair_examples():
    assert identifying_pair(seq(2, 7, 3, 5, 3, 6, 2)) == (2, 6)
    assert identifying_pair(seq(3, 4, 3, 7, 7, 2, 4, 3)) == (3, 6)
    assert identifying_pair(seq(2, 1, 2)) == (1, 3)


def test_identifying_pair_errors():
    with pytest.raises(ValueError):
        identifying_pair(seq(1, 0, 0, 1))  # path
    with pytest.raises(ValueError):
        identifying_pair(seq(4))  # star: one spine-preserving reduction


def test_identifying_pair_reconstructs():
    for tup in [(2, 2), (2, 3), (3, 1, 3), (2, 0, 2), (1, 2, 2, 1), (2, 3, 1, 2, 2)]:
        s = CaterpillarSeq(tup)
        i, j = identifying_pair(s)
        reds = reductions(s)
        assert reconstruct(reds[i], reds[j]) == {s}


def test_conjugate_reduction_property_small():
    # when conjugate reductions fail to reconstruct uniquely, the conjugate
    # entries are equal and exactly one conjugate pair differs by one
    for n in range(2, 6):
        for tup in itertools.product(range(3), repeat=n):
            if tup[0] < 1 or tup[-1] < 1:
                continue
            s = CaterpillarSeq(tup)
            a = s.a
            valid = reductions(s)
            for i in range(1, n // 2 + 1):
                j = n - i + 1
                if i == j or i not in valid or j not in valid:
                    continue
                r1 = CaterpillarSeq(a[: i - 1] + (a[i - 1] - 1,) + a[i:])
                r2 = CaterpillarSeq(a[: j - 1] + (a[j - 1] - 1,) + a[j:])
                if len(reconstruct(r1, r2)) > 1:
                    diffs = [k for k in range(n // 2) if a[k] != a[n - 1 - k]]
                    assert a[i - 1] == a[j - 1]
                    assert len(diffs) == 1
                    assert abs(a[diffs[0]] - a[n - 1 - diffs[0]]) == 1
