import random

import pytest
from helpers import connected_atlas, random_graph, scaled_copy_labeling

import iasi.construct as constructmod

from iasi import (
    ConstructionSpec,
    Graph,
    IntSet,
    Labeling,
    cartesian_product,
    chain_report,
    clique_number,
    complete_bipartite_graph,
    complete_graph,
    construct_strong,
    construct_strong_traced,
    corona,
    cycle_graph,
    path_graph,
    petersen_graph,
    star_graph,
    verify,
)
from iasi.construct import primes_above, sidon_bases
from iasi.errors import InternalCheckError


# ---------------------------------------------------------------------------
# numeric helpers
# ---------------------------------------------------------------------------

def test_primes_above():
    assert primes_above(3, 4) == [5, 7, 11, 13]
    assert primes_above(1, 3) == [2, 3, 5]


def _least_prime_at_least(n):
    p = max(n, 2)
    while any(p % d == 0 for d in range(2, p)):
        p += 1
    return p


def _is_sidon(terms):
    """Brute-force reference: every sum a_i + a_j with i <= j is distinct."""
    sums = [terms[i] + terms[j] for i in range(len(terms)) for j in range(i, len(terms))]
    return len(sums) == len(set(sums))


def test_sidon_bases_property():
    assert sidon_bases(0) == []
    assert sidon_bases(1) == [0]
    assert sidon_bases(2) == [0, 5]  # p = 2
    assert sidon_bases(12)[-1] == 290  # p = 13: 2*13*11 + 121 % 13
    for count in range(1, 301):
        terms = sidon_bases(count)
        p = _least_prime_at_least(count)
        assert len(terms) == count and terms[0] == 0
        assert all(a < b for a, b in zip(terms, terms[1:]))
        assert terms[-1] < 2 * p * p
        assert _is_sidon(terms), count


def test_offsets_are_the_sidon_bases():
    g = petersen_graph()
    cards = {v: 1 + i % 3 for i, v in enumerate(g.sorted_vertices())}
    f, trace = construct_strong_traced(g, ConstructionSpec(cardinalities=cards))
    bases = sidon_bases(len(g.vertices))
    assert trace["offsets"] == {v: bases[i] for i, v in enumerate(g.sorted_vertices())}
    assert all(f[v].min == trace["offsets"][v] for v in g.vertices)


@pytest.mark.parametrize("mode", ["coloring", "clique-cover"])
def test_large_sparse_graph_stays_below_erdos_turan_bound(mode):
    g = random_graph(random.Random(400), 400, 0.05)
    f, trace = construct_strong_traced(g, ConstructionSpec(cardinalities=3, seed=1, mode=mode))
    assert verify(g, f).is_strong
    # Largest base < 2p^2, and a label spans (c - 1) strides past its base.
    p = _least_prime_at_least(400)
    assert trace["max_label_element"] < 2 * p * p + (3 - 1) * trace["strides"][-1]


# ---------------------------------------------------------------------------
# construct_strong
# ---------------------------------------------------------------------------

def test_single_edge_construction():
    g = Graph(["a", "b"], [("a", "b")])
    f = construct_strong(g, ConstructionSpec(cardinalities=2))
    assert verify(g, f).is_strong
    assert len(f["a"]) == 2 and len(f["b"]) == 2


def test_complete_graph_uses_distinct_strides_and_full_chain():
    g = complete_graph(5)
    f, trace = construct_strong_traced(g, ConstructionSpec(cardinalities=2))
    assert verify(g, f).is_strong
    assert len(set(trace["strides"])) == 5
    assert chain_report(g, f).max_chain_length == 5


def test_bipartite_uses_two_strides():
    for g in [complete_bipartite_graph(3, 4), cycle_graph(6), path_graph(5), star_graph(4)]:
        f, trace = construct_strong_traced(g, ConstructionSpec(cardinalities=3))
        assert verify(g, f).is_strong
        assert len(trace["strides"]) == 2
        assert chain_report(g, f).max_chain_length == 2


def test_requested_cardinalities_are_honored():
    g = path_graph(3)
    spec = ConstructionSpec(cardinalities={"v0": 1, "v1": 3, "v2": 2})
    f = construct_strong(g, spec)
    assert [len(f[v]) for v in ("v0", "v1", "v2")] == [1, 3, 2]
    assert verify(g, f).is_strong


def test_soundness_on_small_corpus():
    rng = random.Random(23)
    graphs = list(connected_atlas(2, 5)) + [random_graph(rng, rng.randint(5, 20), 0.3) for _ in range(10)]
    for g in graphs:
        for card in (1, 2, 3):
            f = construct_strong(g, ConstructionSpec(cardinalities=card))
            assert verify(g, f).is_strong


def test_determinism_per_seed():
    g = petersen_graph()
    spec = ConstructionSpec(cardinalities=2, seed=4)
    assert construct_strong(g, spec) == construct_strong(g, spec)
    other = construct_strong(g, ConstructionSpec(cardinalities=2, seed=5))
    assert verify(g, other).is_strong


def test_modes_both_verify_and_tighten_on_perfect_structure():
    for g in [complete_graph(4), complete_bipartite_graph(2, 3)]:
        for mode in ("coloring", "clique-cover"):
            f = construct_strong(g, ConstructionSpec(cardinalities=2, mode=mode))
            assert verify(g, f).is_strong
            assert chain_report(g, f).max_chain_length == clique_number(g)


def test_clique_cover_mode_on_odd_cycle():
    g = cycle_graph(5)
    f = construct_strong(g, ConstructionSpec(cardinalities=2, mode="clique-cover"))
    assert verify(g, f).is_strong


def test_construct_rejects_bad_inputs():
    with pytest.raises(ValueError):
        construct_strong(Graph(["a"]), ConstructionSpec(cardinalities=2))
    with pytest.raises(ValueError):
        ConstructionSpec(cardinalities=0)
    with pytest.raises(ValueError):
        ConstructionSpec(mode="nope")
    with pytest.raises(ValueError):
        construct_strong(path_graph(2), ConstructionSpec(cardinalities={"v0": 2}))


def test_trace_reports_magnitude():
    g = cycle_graph(6)
    f, trace = construct_strong_traced(g, ConstructionSpec(cardinalities=2))
    assert trace["max_label_element"] == f.max_element()
    assert sorted(v for cls in trace["classes"] for v in cls) == g.sorted_vertices()


# ---------------------------------------------------------------------------
# scaled copies
# ---------------------------------------------------------------------------

def test_scaled_labeling_stays_strong():
    rng = random.Random(31)
    for g in rng.sample(list(connected_atlas(2, 6)), 15):
        f = construct_strong(g, ConstructionSpec(cardinalities=2))
        for r in (2, 3, 5, 7):
            assert verify(g, f.scaled(r)).is_strong


def test_product_construction_k2_k2():
    g1, g2 = complete_graph(2, "a"), complete_graph(2, "b")
    f1 = construct_strong(g1, ConstructionSpec(cardinalities=2))
    f = scaled_copy_labeling(g1, f1, g2)
    assert verify(cartesian_product(g1, g2), f).is_strong


def test_product_with_k1_keeps_labels():
    g1 = path_graph(3)
    f1 = construct_strong(g1, ConstructionSpec(cardinalities=2))
    f = scaled_copy_labeling(g1, f1, Graph(["w"]))
    for v in g1.vertices:
        assert f[f"{v}×w"] == f1[v]


def test_product_construction_p3_p2():
    g1, g2 = path_graph(3, "a"), path_graph(2, "b")
    f1 = construct_strong(g1, ConstructionSpec(cardinalities=2))
    product = cartesian_product(g1, g2)
    f = scaled_copy_labeling(g1, f1, g2)
    assert verify(product, f).is_strong
    assert clique_number(product) == 2


def test_corona_construction_examples():
    cases = [
        (Graph(["a"]), Graph(["w"])),
        (complete_graph(2, "a"), complete_graph(2, "b")),
        (cycle_graph(4, "a"), Graph(["w"])),
        (path_graph(2, "a"), complete_graph(3, "b")),
    ]
    for g1, g2 in cases:
        f1 = construct_strong(g1, ConstructionSpec(cardinalities=2)) if g1.edges else Labeling(
            {v: IntSet([0, 1]) for v in g1.vertices}
        )
        f2 = construct_strong(g2, ConstructionSpec(cardinalities=2)) if g2.edges else Labeling(
            {v: IntSet([0, 2]) for v in g2.vertices}
        )
        result = corona(g1, g2)
        f = scaled_copy_labeling(g1, f1, g2, f2)
        assert verify(result, f).is_strong


def test_corona_construction_keeps_host_labels():
    g1, g2 = complete_graph(2, "a"), complete_graph(2, "b")
    f1 = construct_strong(g1, ConstructionSpec(cardinalities=2))
    f2 = construct_strong(g2, ConstructionSpec(cardinalities=2))
    f = scaled_copy_labeling(g1, f1, g2, f2)
    for v in g1.vertices:
        assert f[v] == f1[v]


def _texts(f):
    return {v: str(s) for v, s in sorted(f.items())}


def test_scaled_copy_labelings_are_pinned():
    def strong(g):
        return construct_strong(g, ConstructionSpec(cardinalities=2))

    k2a, k2b, p3, p2 = complete_graph(2, "a"), complete_graph(2, "b"), path_graph(3, "a"), path_graph(2, "b")
    assert _texts(scaled_copy_labeling(k2a, strong(k2a), k2b)) == {
        "a0×b0": "{0,3}", "a0×b1": "{1105,1138}", "a1×b0": "{5,10}", "a1×b1": "{1160,1215}",
    }
    assert _texts(scaled_copy_labeling(p3, strong(p3), p2)) == {
        "a0×b0": "{0,3}", "a0×b1": "{2725,2776}", "a1×b0": "{7,12}",
        "a1×b1": "{2844,2929}", "a2×b0": "{13,16}", "a2×b1": "{2946,2997}",
    }
    # An edgeless second factor: one copy of f1 per vertex, no edges between them.
    assert _texts(scaled_copy_labeling(p2, strong(p2), Graph(["w0", "w1"]))) == {
        "b0×w0": "{0,3}", "b0×w1": "{1105,1138}", "b1×w0": "{5,10}", "b1×w1": "{1160,1215}",
    }
    c4, w = cycle_graph(4, "a"), Labeling({"w": IntSet([0, 2])})
    assert _texts(scaled_copy_labeling(c4, strong(c4), Graph(["w"]), w)) == {
        "a0": "{0,3}", "a0⊙0:w": "{4135,4217}", "a1": "{11,16}", "a1⊙1:w": "{12405,12491}",
        "a2": "{24,27}", "a2⊙2:w": "{20675,20769}", "a3": "{34,39}", "a3⊙3:w": "{28945,29051}",
    }
    p2a, k3 = path_graph(2, "a"), complete_graph(3, "b")
    assert _texts(scaled_copy_labeling(p2a, strong(p2a), k3, strong(k3))) == {
        "a0": "{0,3}", "a0⊙0:b0": "{1161,1230}", "a0⊙0:b1": "{1322,1437}",
        "a0⊙0:b2": "{1460,1621}", "a1": "{5,10}", "a1⊙1:b0": "{3483,3570}",
        "a1⊙1:b1": "{3686,3831}", "a1⊙1:b2": "{3860,4063}",
    }
    # Edgeless operands on both sides.
    assert _texts(scaled_copy_labeling(Graph(["a"]), Labeling({"a": IntSet([0, 1])}), Graph(["w"]), w)) == {
        "a": "{0,1}", "a⊙0:w": "{13,19}",
    }


def test_construct_strong_on_the_result_has_shorter_chains_than_the_scaled_copies():
    """Why the library labels a product or corona only by `construct_strong`
    on the result graph: the scaled copies' chain grows with the number of
    copies, while one coloring of the result keeps it near ω, with smaller
    labels."""
    k3a, k3b, pet, k2 = complete_graph(3, "a"), complete_graph(3, "b"), petersen_graph(), complete_graph(2, "b")
    cases = [
        (cartesian_product(k3a, k3b), scaled_copy_labeling(k3a, construct_strong(k3a), k3b), 3, 9),
        (cartesian_product(pet, k2), scaled_copy_labeling(pet, construct_strong(pet), k2), 2, 8),
        (corona(pet, k2), scaled_copy_labeling(pet, construct_strong(pet), k2, construct_strong(k2)), 3, 24),
    ]
    for g, recipe, omega, recipe_chain in cases:
        assert clique_number(g) == omega and verify(g, recipe).is_strong
        assert chain_report(g, recipe).max_chain_length == recipe_chain
        f = construct_strong(g)
        assert chain_report(g, f).max_chain_length <= 4
        assert f.max_element() < recipe.max_element()


def test_corona_kappa_matches_formula():
    g1, g2 = complete_graph(2, "a"), complete_graph(2, "b")
    assert clique_number(corona(g1, g2)) == 3
    c4 = cycle_graph(4, "a")
    assert clique_number(corona(c4, Graph(["w"]))) == 2


def test_spec_rejects_cardinalities_for_non_vertices():
    g = path_graph(2)
    with pytest.raises(ValueError, match=r"non-vertices \['zz'\]"):
        ConstructionSpec(cardinalities={"v0": 2, "v1": 2, "zz": 5}).resolve(g)
    assert ConstructionSpec(cardinalities={"v0": 2, "v1": 3}).resolve(g) == {"v0": 2, "v1": 3}


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: ConstructionSpec(cardinalities={"v0": 2, "v1": 0}),
                     "cardinality of 'v1' must be at least 1", id="mapped-cardinality-below-1"),
        pytest.param(lambda: construct_strong(Graph([])), "empty graph", id="empty-graph"),
        # a product or corona is labeled by construct_strong on the result graph
        pytest.param(lambda: construct_strong(cartesian_product(complete_graph(2, "a"), Graph([]))),
                     "empty graph", id="product-empty-factor"),
        pytest.param(lambda: construct_strong(cartesian_product(Graph(["a"]), Graph(["w"]))),
                     r"isolated vertices: \['a×w'\]", id="product-isolated-vertex"),
        pytest.param(lambda: construct_strong(corona(Graph([]), complete_graph(2, "b"))),
                     "empty graph", id="corona-empty-factor"),
        pytest.param(lambda: construct_strong(corona(Graph(["a", "b"]), Graph([]))),
                     r"isolated vertices: \['a', 'b'\]", id="corona-isolated-host"),
    ],
)
def test_construct_refuses(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: construct_strong(path_graph(3)), id="construct"),
        pytest.param(lambda: construct_strong(cartesian_product(complete_graph(2, "a"), complete_graph(2, "b"))),
                     id="product"),
        pytest.param(lambda: construct_strong(corona(complete_graph(2, "a"), complete_graph(2, "b"))), id="corona"),
    ],
)
def test_construct_self_verification_fires(monkeypatch, call):
    # the verifier is handed a labeling that repeats one label
    real = constructmod.verify
    monkeypatch.setattr(
        constructmod, "verify", lambda g, f: real(g, Labeling({v: IntSet([0, 1]) for v in f.vertices()}))
    )
    with pytest.raises(InternalCheckError, match="verification"):
        call()
