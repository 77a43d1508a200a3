"""The library's public surface, pinned: each module's `__all__` (or, where
a module has none, the public functions and classes it defines), the names
the `iasi` package exports, the public attributes of `Graph` and
`Labeling`, the parameters of `min_max_chain`, the reprs of the result
types and what importing `iasi` loads.  Adding or removing a public name is
a deliberate edit here and in the README's library layout, whose rows are
checked against these lists; the README's length and its table cells are
capped too."""

import importlib
import inspect
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import iasi
from iasi import (
    ChainReport,
    ConcurrentSearch,
    ConstructionSpec,
    Graph,
    IntSet,
    Labeling,
    LemmaCheck,
    MinChainResult,
    OracleConfig,
    VerificationReport,
    min_max_chain,
)

SRC = Path(__file__).resolve().parents[1] / "src"

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
        "ConstructionSpec", "construct_strong", "construct_strong_traced", "sidon_bases", "primes_above",
    ],
    "oracle": [
        "OracleConfig", "LemmaCheck", "MinChainResult", "ConcurrentSearch",
        "lemma_oracle", "min_max_chain", "exists_concurrent", "CHECKPOINT_ENV",
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
    "OracleConfig", "LemmaCheck", "MinChainResult", "ConcurrentSearch",
    "lemma_oracle", "min_max_chain", "exists_concurrent",
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


def test_readme_library_table_opens_each_row_with_the_pinned_names():
    """Each `iasi.*` row's opening names, the backticked ones before its
    first `;` or `:`, are its module's pinned list, in order."""
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    layout = readme[readme.index("## Library layout"):]
    rows = dict(re.findall(r"^\| `iasi\.(\w+)` +\| (.*) \|$", layout, re.M))
    pinned = {**ALL, **DEFINED}
    assert rows.keys() == pinned.keys()
    for name, cell in rows.items():
        opening = re.split(r"[;:]", cell, maxsplit=1)[0]
        assert re.findall(r"`([^`]+)`", opening) == pinned[name], name


def test_readme_stays_within_its_word_and_cell_budgets():
    """At most 2,500 words, and no library-table cell over 600 characters:
    how the code works belongs in its docstrings, not in the README."""
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    assert len(readme.split()) <= 2500
    cells = dict(re.findall(r"^\| `iasi\.(\w+)` +\| (.*) \|$", readme, re.M))
    assert cells and {name: len(cell) for name, cell in cells.items() if len(cell) > 600} == {}


def test_graph_and_labeling_keep_only_their_pinned_methods():
    """Exact lists, so `Graph.has_edge`, `Graph.degree`, `Graph.induced`,
    `Graph.rename` and `Labeling.relabeled`, which only tests called, stay out."""
    assert _public(Graph) == [
        "components", "edges", "isolated_vertices", "neighbors",
        "relabel", "sorted_edges", "sorted_vertices", "vertices",
    ]
    assert _public(Labeling) == ["items", "max_element", "scaled", "vertices"]


def test_min_max_chain_takes_only_a_graph_and_a_config():
    # The checkpoint directory is a deployment path, read from
    # $IASI_ORACLE_CHECKPOINT_DIR alone.
    assert list(inspect.signature(min_max_chain).parameters) == ["g", "cfg"]


@pytest.mark.parametrize(
    "value, text",
    [
        (OracleConfig(universe_max=4), "OracleConfig(universe_max=4, min_card=2, max_card=2, vertex_limit=5)"),
        (ConstructionSpec(2), "ConstructionSpec(cardinalities=2, seed=0, mode='coloring')"),
        (
            ConstructionSpec({"a": 2}, 5, "clique-cover"),
            "ConstructionSpec(cardinalities={'a': 2}, seed=5, mode='clique-cover')",
        ),
        (
            VerificationReport(True, False, [(("a", "b"), True)], True, False),
            "VerificationReport(vertex_injective=True, edge_injective=False, "
            "strong_edges=[(('a', 'b'), True)], is_iasi=True, is_strong=False, witnesses=[])",
        ),
        (
            ChainReport(["a"], 1, [(("a", "b"), False)]),
            "ChainReport(max_chain=['a'], max_chain_length=1, per_edge_relation=[(('a', 'b'), False)])",
        ),
        (
            LemmaCheck(False, 4, (IntSet([0, 1]), IntSet([0, 2]))),
            "LemmaCheck(ok=False, pairs_checked=4, counterexample=(IntSet([0, 1]), IntSet([0, 2])))",
        ),
        (
            MinChainResult(False, 2, None, 3, 4),
            "MinChainResult(exhausted=False, value=2, witness=None, strong_count=3, partitions=4)",
        ),
        (
            ConcurrentSearch(True, None, 3, True, None),
            "ConcurrentSearch(exists=True, witness=None, witnesses_found=3, "
            "all_witnesses_pairwise_disjoint=True, disjointness_counterexample=None)",
        ),
    ],
    ids=[
        "oracle-config", "construction-spec", "construction-spec-map", "verification-report",
        "chain-report", "lemma-check", "min-chain-result", "concurrent-search",
    ],
)
def test_result_types_keep_their_reprs(value, text):
    # `oracle.min_max_chain` hashes repr(cfg) into its checkpoint file name.
    assert repr(value) == text


def test_importing_iasi_loads_neither_dataclasses_nor_inspect():
    """Every CLI answer pays for importing iasi; these two stdlib modules
    and what they import cost about as much as the rest of it."""
    probe = (
        "import os, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import iasi\n"
        "package = os.path.dirname(iasi.__file__)\n"
        "assert os.path.samefile(package, os.path.join(sys.argv[1], 'iasi')), package\n"
        "for name in sorted(os.listdir(package)):\n"
        "    if name.endswith('.py') and name != '__init__.py':\n"
        "        __import__('iasi.' + name[:-3])\n"
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(SRC)], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
