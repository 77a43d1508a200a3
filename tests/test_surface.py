"""The library's public surface, pinned: each module's `__all__` (or, where
a module has none, the public functions and classes it defines), the names
the `iasi` package exports, the public attributes of `Graph` and
`Labeling`, and the parameters of `min_max_chain`.  Adding or removing a
public name is a deliberate edit here and in the README's library layout."""

import importlib
import inspect
from types import ModuleType

import pytest

import iasi
from iasi import Graph, Labeling, min_max_chain

ALL = {
    "setalg": ["IntSet", "sumset", "scale", "diff_set", "is_strong_pair", "parse_int_set"],
    "graph": [
        "Graph", "union", "intersection", "join", "complement", "cartesian_product",
        "corona", "clique_number", "max_clique", "read_graph", "write_graph",
        "complete_graph", "path_graph", "cycle_graph", "star_graph",
        "complete_bipartite_graph", "petersen_graph", "PRODUCT_SEP", "CORONA_SEP",
    ],
    "labeling": [
        "Labeling", "VerificationReport", "ChainReport", "verify", "verify_uniform",
        "chain_report", "nourishing_number", "verify_concurrent_strong",
        "read_labeling", "write_labeling",
    ],
    "construct": [
        "ConstructionSpec", "construct_strong", "construct_strong_traced",
        "construct_for_product", "construct_for_corona", "sidon_bases", "primes_above",
    ],
    "oracle": [
        "OracleConfig", "LemmaCheck", "MinChainResult", "ConcurrentSearch",
        "lemma_oracle", "min_max_chain", "exists_concurrent", "write_bundle",
        "CHECKPOINT_ENV",
    ],
}
# Modules without `__all__`: the public functions and classes each defines.
DEFINED = {
    "errors": ["ParseError", "InternalCheckError", "parse_natural", "to_json"],
    "cli": ["build_parser", "main", "console_main"],
}
EXPORTS = [
    "IntSet", "sumset", "scale", "diff_set", "is_strong_pair",
    "Graph", "union", "intersection", "join", "complement", "cartesian_product",
    "corona", "clique_number", "max_clique", "read_graph", "write_graph",
    "complete_graph", "path_graph", "cycle_graph", "star_graph",
    "complete_bipartite_graph", "petersen_graph",
    "Labeling", "VerificationReport", "ChainReport", "verify", "verify_uniform",
    "chain_report", "nourishing_number", "verify_concurrent_strong",
    "read_labeling", "write_labeling",
    "ConstructionSpec", "construct_strong", "construct_strong_traced",
    "construct_for_product", "construct_for_corona",
    "OracleConfig", "LemmaCheck", "MinChainResult", "ConcurrentSearch",
    "lemma_oracle", "min_max_chain", "exists_concurrent", "write_bundle",
    "ParseError", "InternalCheckError",
]


def _defined(mod: ModuleType) -> set[str]:
    return {
        name
        for name, obj in vars(mod).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == mod.__name__
    }


def _public(cls: type) -> list[str]:
    return sorted(name for name in dir(cls) if not name.startswith("_"))


@pytest.mark.parametrize("name", sorted(ALL))
def test_module_all_is_pinned_and_covers_every_public_definition(name):
    mod = importlib.import_module(f"iasi.{name}")
    assert sorted(mod.__all__) == sorted(ALL[name])
    assert _defined(mod) <= set(mod.__all__)


@pytest.mark.parametrize("name", sorted(DEFINED))
def test_module_without_all_defines_only_the_pinned_names(name):
    mod = importlib.import_module(f"iasi.{name}")
    assert not hasattr(mod, "__all__")
    assert _defined(mod) == set(DEFINED[name])


def test_package_exports_exactly_the_pinned_names():
    exported = {
        name
        for name, obj in vars(iasi).items()
        if not name.startswith("_") and not isinstance(obj, ModuleType)
    }
    assert exported == set(EXPORTS)


def test_graph_and_labeling_keep_only_their_pinned_methods():
    """Exact lists, so `Graph.has_edge`, `Graph.degree` and
    `Labeling.relabeled`, which only tests called, stay out."""
    assert _public(Graph) == [
        "components", "edges", "induced", "isolated_vertices", "neighbors",
        "relabel", "rename", "sorted_edges", "sorted_vertices", "vertices",
    ]
    assert _public(Labeling) == ["items", "max_element", "restricted", "scaled", "vertices"]


def test_min_max_chain_takes_only_a_graph_and_a_config():
    # The checkpoint directory is a deployment path, read from
    # $IASI_ORACLE_CHECKPOINT_DIR alone.
    assert list(inspect.signature(min_max_chain).parameters) == ["g", "cfg"]
