"""Strong integer additive set-indexers on finite simple graphs.

A labeling of a graph's vertices by finite sets of non-negative integers is
a strong set-indexer when the vertex map and the induced edge-sumset map
are injective and every edge sumset has maximal cardinality.  The package
verifies such labelings, constructs them for every graph without isolated
vertices (products and coronas included), computes nourishing numbers
through clique analysis, and cross-checks the structural theory against
exhaustive brute-force oracles on tiny instances.
"""

from .construct import (
    ConstructionSpec,
    construct_strong,
    construct_strong_traced,
)
from .errors import InternalCheckError, ParseError
from .graph import (
    Graph,
    cartesian_product,
    clique_number,
    complement,
    complete_bipartite_graph,
    complete_graph,
    corona,
    cycle_graph,
    intersection,
    join,
    max_clique,
    path_graph,
    petersen_graph,
    read_graph,
    star_graph,
    union,
    write_graph,
)
from .labeling import (
    ChainReport,
    Labeling,
    VerificationReport,
    chain_report,
    nourishing_number,
    read_labeling,
    verify,
    verify_concurrent_strong,
    verify_uniform,
    write_labeling,
)
from .oracle import (
    ConcurrentSearch,
    LemmaCheck,
    MinChainResult,
    OracleConfig,
    exists_concurrent,
    lemma_oracle,
    min_max_chain,
)
from .setalg import IntSet, diff_set, is_strong_pair, scale, sumset

__version__ = "0.1.0"
