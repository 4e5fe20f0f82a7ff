"""reconkit: edge-decks and reconstruction numbers of small graphs.

The toolkit computes edge-decks and degree-associated edge-decks as
certificate-keyed multisets, finds the four reconstruction numbers (ern,
dern, adv-ern, adv-dern) by exhaustive blocker search, implements the
caterpillar sequence calculus, and runs resumable conjecture sweeps over
tree and disjoint-union families.
"""

from .caterpillar import (
    CaterpillarSeq,
    Reduction,
    identifying_pair,
    is_path_sequence,
    reconstruct,
    reductions,
    seq_of,
)
from .decks import (
    DaEcard,
    Deck,
    da_edeck,
    edge_deck,
    format_deck,
    intersection_size,
    min_multiplicity,
    sub_multiset,
)
from .families import (
    caterpillar_graph,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    enumerate_graphs,
    enumerate_trees,
    graph_union,
    parse_family_spec,
    path,
    resolve_graph_input,
    spider,
    star,
)
from .graphs import (
    CentroidInfo,
    Certificate,
    Graph,
    Graph6Error,
    GraphError,
    canonical_form,
    canonical_graph,
    centroid,
    certificate_graph,
    components,
    edge_degree,
    is_isomorphic,
    parse_graph6,
    write_graph6,
)
from .recon import (
    ReconResult,
    adv_recon_number,
    blocked,
    blockers,
    determines,
    extensions,
    is_tree_from_two_cards,
    recon_number,
    union_bound,
)

__version__ = "0.1.0"
