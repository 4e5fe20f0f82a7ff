"""Every number reconkit reads from text, in family specs, caterpillar
sequences, CLI arguments and store filters, goes through one reader that
takes exactly the text ``str`` writes for an int."""

import shlex

import pytest

from reconkit import CaterpillarSeq, Graph, GraphError, parse_family_spec
from reconkit import cli
from reconkit.graphs import _integer
from reconkit.store import parse_filter

# (reader, text): one row per boundary; ``int`` or ``float`` took each one
MALFORMED = [
    ("spec", "P:1_0"),
    ("spec", "P:+5"),
    ("spec", "P: 5"),
    ("spec", "Kpq:2, 3"),
    ("spec", "P:05"),
    ("spec", "U: 2 *K:2"),
    ("spec", "cat:1_0,2"),
    ("spec", "spider:１,1,1"),  # a fullwidth digit one
    ("sequence", "1_0,2"),
    ("cli", "sweep --trees 1_0 --claim dern-le-2 --no-store"),
    ("cli", "sweep --trees +4 --claim dern-le-2 --no-store"),
    ("cli", "sweep --caterpillars 0_9 --claim dern-le-2 --no-store"),
    ("cli", "family list trees ' 9'"),
    ("cli", "family list graphs 4 --edges 0_3"),
    ("cli", "sweep --disconnected 2:0_3 --claim conj-2.1 --no-store"),
    ("filter", "dern>=1e0"),
    ("filter", "n<=1_0"),
    ("filter", "dern>=inf"),
    ("filter", "dern>1.5"),
]


@pytest.mark.parametrize("reader, text", MALFORMED)
def test_malformed_numeric_text_is_rejected(reader, text, capsys):
    if reader == "spec":
        with pytest.raises(GraphError):
            parse_family_spec(text)
    elif reader == "sequence":
        with pytest.raises(ValueError, match="bad caterpillar sequence"):
            CaterpillarSeq.parse(text)
    elif reader == "cli":
        assert cli.main(shlex.split(text)) == 1
        assert capsys.readouterr().out == ""
    else:
        with pytest.raises(ValueError, match="bad filter"):
            parse_filter(text)


def test_reader_reads_what_str_writes():
    assert all(_integer(str(x)) == x for x in range(-1000, 1001))
    for text in ("", "-", "-0", "00", "--1", "1 ", "٣"):
        with pytest.raises(GraphError, match="expected an integer"):
            _integer(text)


def test_cli_numbers_may_be_negative_for_the_gates(capsys):
    # a negative count reaches the range gate, which names it
    assert cli.main(["sweep", "--trees", "-3", "--claim", "dern-le-2", "--no-store"]) == 1
    assert "tree sweep n must be in 2..16, got -3" in capsys.readouterr().err


@pytest.mark.parametrize("u, v", [(True, 2), (0, 2.0)])
def test_from_edges_rejects_endpoints_that_are_not_ints(u, v):
    with pytest.raises(GraphError, match=r"vertex must be in 0\.\.2"):
        Graph.from_edges(3, [(u, v)])
