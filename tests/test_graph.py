import random
from itertools import combinations

import networkx as nx
import pytest
from helpers import (
    brute_maximal_cliques,
    connected_atlas,
    from_networkx,
    is_isomorphic_brute,
    random_graph,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from iasi import (
    Graph,
    cartesian_product,
    clique_number,
    complement,
    complete_bipartite_graph,
    complete_graph,
    corona,
    cycle_graph,
    intersection,
    is_triangle_free,
    join,
    max_clique,
    maximal_cliques,
    path_graph,
    petersen_graph,
    star_graph,
    union,
)


# ---------------------------------------------------------------------------
# construction and invariants
# ---------------------------------------------------------------------------

def test_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph(["a"], [("a", "a")])


def test_rejects_whitespace_and_empty_names():
    with pytest.raises(ValueError):
        Graph(["a b"])
    with pytest.raises(ValueError):
        Graph([""])


def test_rejects_undeclared_endpoint():
    with pytest.raises(ValueError):
        Graph(["a"], [("a", "b")])


def test_edges_are_normalized_and_deduped():
    g = Graph(["a", "b"], [("b", "a"), ("a", "b")])
    assert g.edges == frozenset({("a", "b")})
    assert g.neighbors("a") == frozenset({"b"})


def test_graph_is_immutable_and_hashable():
    g = complete_graph(3)
    with pytest.raises(AttributeError):
        g.vertices = frozenset()
    assert g == complete_graph(3)
    assert len({g, complete_graph(3)}) == 1


def test_induced_subgraph():
    g = complete_graph(4)
    h = g.induced(["v0", "v1", "v2"])
    assert h == complete_graph(3)
    with pytest.raises(ValueError):
        g.induced(["v0", "nope"])


def test_rename_and_relabel():
    g = path_graph(3)
    r = g.rename("a.")
    assert r.vertices == {"a.v0", "a.v1", "a.v2"}
    assert r.has_edge("a.v0", "a.v1")
    with pytest.raises(ValueError):
        g.relabel(lambda v: "same")


# ---------------------------------------------------------------------------
# union / intersection
# ---------------------------------------------------------------------------

def test_union_idempotent():
    g = cycle_graph(5)
    assert union(g, g) == g


def test_union_disjoint_copies():
    g = union(complete_graph(2, "a"), complete_graph(2, "c"))
    assert len(g.vertices) == 4 and len(g.edges) == 2


def test_union_overlapping_paths():
    g1 = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    g2 = Graph(["b", "c", "d"], [("b", "c"), ("c", "d")])
    merged = union(g1, g2)
    assert merged == Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])


def test_intersection_examples():
    g = cycle_graph(6)
    assert intersection(g, g) == g
    k3a = Graph(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
    k3b = Graph(["b", "c", "d"], [("b", "c"), ("b", "d"), ("c", "d")])
    assert intersection(k3a, k3b) == Graph(["b", "c"], [("b", "c")])
    empty = intersection(complete_graph(3, "x"), complete_graph(3, "y"))
    assert not empty.vertices and not empty.edges


# ---------------------------------------------------------------------------
# join
# ---------------------------------------------------------------------------

def test_join_of_single_vertices_is_edge():
    g = join(Graph(["a"]), Graph(["b"]))
    assert g == Graph(["a", "b"], [("a", "b")])


def test_join_of_complete_graphs_is_complete():
    g = join(complete_graph(3, "a"), complete_graph(3, "b"))
    n = len(g.vertices)
    assert n == 6 and len(g.edges) == n * (n - 1) // 2
    assert clique_number(g) == 6


def test_join_of_empty_graphs_is_c4():
    g = join(Graph(["a0", "a1"]), Graph(["b0", "b1"]))
    assert is_isomorphic_brute(g, cycle_graph(4))


def test_join_rejects_shared_names():
    with pytest.raises(ValueError):
        join(complete_graph(2), complete_graph(3))


def test_join_edge_count_formula():
    rng = random.Random(7)
    for _ in range(20):
        g1 = random_graph(rng, rng.randint(2, 7), 0.4, "a")
        g2 = random_graph(rng, rng.randint(2, 7), 0.4, "b")
        j = join(g1, g2)
        assert len(j.edges) == len(g1.edges) + len(g2.edges) + len(g1.vertices) * len(g2.vertices)
        assert clique_number(j) == clique_number(g1) + clique_number(g2)


# ---------------------------------------------------------------------------
# complement
# ---------------------------------------------------------------------------

def test_complement_of_complete_is_edgeless():
    g = complement(complete_graph(5))
    assert g.vertices == complete_graph(5).vertices and not g.edges


def test_complement_is_involution():
    rng = random.Random(3)
    for _ in range(10):
        g = random_graph(rng, 8, 0.5)
        assert complement(complement(g)) == g


def test_complement_c5_is_self_complementary():
    c5 = cycle_graph(5)
    assert is_isomorphic_brute(complement(c5), c5)


def test_complement_c4_is_two_disjoint_edges():
    g = complement(cycle_graph(4))
    assert g.edges == frozenset({("v0", "v2"), ("v1", "v3")})


# ---------------------------------------------------------------------------
# cartesian product
# ---------------------------------------------------------------------------

def test_product_k2_k2_is_c4():
    g = cartesian_product(complete_graph(2, "a"), complete_graph(2, "b"))
    assert len(g.vertices) == 4 and len(g.edges) == 4
    assert is_isomorphic_brute(g, cycle_graph(4))


def test_product_with_k1_is_identity_up_to_renaming():
    g = cartesian_product(path_graph(3), Graph(["w"]))
    assert is_isomorphic_brute(g, path_graph(3))


def test_product_edge_count_p3_p3():
    g = cartesian_product(path_graph(3, "a"), path_graph(3, "b"))
    assert len(g.edges) == 3 * 2 + 3 * 2


def test_product_counts_random():
    rng = random.Random(11)
    for _ in range(15):
        g1 = random_graph(rng, rng.randint(1, 6), 0.5, "a")
        g2 = random_graph(rng, rng.randint(1, 6), 0.5, "b")
        p = cartesian_product(g1, g2)
        p1, q1 = len(g1.vertices), len(g1.edges)
        p2, q2 = len(g2.vertices), len(g2.edges)
        assert len(p.vertices) == p1 * p2
        assert len(p.edges) == p1 * q2 + p2 * q1


def test_product_clique_number_is_max():
    pairs = [
        (complete_graph(3, "a"), path_graph(2, "b")),
        (cycle_graph(5, "a"), complete_graph(4, "b")),
        (star_graph(3, "a"), cycle_graph(3, "b")),
    ]
    for g1, g2 in pairs:
        assert clique_number(cartesian_product(g1, g2)) == max(
            clique_number(g1), clique_number(g2)
        )


# ---------------------------------------------------------------------------
# corona
# ---------------------------------------------------------------------------

def test_corona_k1_k1_is_k2():
    g = corona(Graph(["a"]), Graph(["w"]))
    assert len(g.vertices) == 2 and len(g.edges) == 1


def test_corona_k2_k1_is_p4():
    g = corona(complete_graph(2), Graph(["w"]))
    assert len(g.vertices) == 4 and len(g.edges) == 3
    assert is_isomorphic_brute(g, path_graph(4))


def test_corona_c3_k2_counts():
    g = corona(cycle_graph(3), complete_graph(2, "w"))
    assert len(g.vertices) == 9
    assert len(g.edges) == 3 + 3 * 1 + 3 * 2


def test_corona_counts_random():
    rng = random.Random(13)
    for _ in range(15):
        g1 = random_graph(rng, rng.randint(1, 5), 0.5, "a")
        g2 = random_graph(rng, rng.randint(1, 5), 0.5, "b")
        c = corona(g1, g2)
        p1, q1 = len(g1.vertices), len(g1.edges)
        p2, q2 = len(g2.vertices), len(g2.edges)
        assert len(c.vertices) == p1 * (1 + p2)
        assert len(c.edges) == q1 + p1 * q2 + p1 * p2


def test_corona_clique_number_covers_both_branches():
    assert clique_number(corona(complete_graph(4, "a"), complete_graph(2, "b"))) == 4
    assert clique_number(corona(path_graph(2, "a"), complete_graph(3, "b"))) == 4
    # equal operands, the case the two-branch piecewise formula omits
    assert clique_number(corona(complete_graph(2, "a"), complete_graph(2, "b"))) == 3


# ---------------------------------------------------------------------------
# cliques
# ---------------------------------------------------------------------------

def test_maximal_cliques_of_complete_graph():
    assert maximal_cliques(complete_graph(6)) == [tuple(f"v{i}" for i in range(6))]


def test_maximal_cliques_of_c4_are_edges():
    assert maximal_cliques(cycle_graph(4)) == [
        ("v0", "v1"), ("v0", "v3"), ("v1", "v2"), ("v2", "v3")
    ]


def test_maximal_cliques_triangle_with_pendant():
    g = Graph(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")])
    assert set(map(frozenset, maximal_cliques(g))) == {
        frozenset({"a", "b", "c"}), frozenset({"c", "d"})
    }


def test_maximal_cliques_match_brute_force():
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 6), rng.choice([0.2, 0.5, 0.8]))
        assert set(map(frozenset, maximal_cliques(g))) == brute_maximal_cliques(g)


def test_maximal_cliques_deterministic():
    g = random_graph(random.Random(5), 9, 0.5)
    assert maximal_cliques(g) == maximal_cliques(g)


def test_clique_number_examples():
    assert clique_number(complete_graph(7)) == 7
    assert clique_number(complete_bipartite_graph(3, 4)) == 2
    assert clique_number(petersen_graph()) == 2
    with pytest.raises(ValueError):
        clique_number(Graph([]))


def test_max_clique_is_deterministic_witness():
    g = complete_bipartite_graph(2, 2)
    w = max_clique(g)
    assert len(w) == 2 and g.has_edge(*w)
    assert w == max_clique(g)


def test_max_clique_is_least_maximum_clique_of_the_reference():
    rng = random.Random(29)
    corpus = list(connected_atlas(2, 7))
    corpus += [random_graph(rng, rng.randint(8, 16), rng.choice([0.3, 0.5, 0.7])) for _ in range(60)]
    ties = 0
    for g in corpus:
        cliques = maximal_cliques(g)
        omega = max(len(c) for c in cliques)
        largest = [c for c in cliques if len(c) == omega]
        ties += len(largest) > 1
        assert max_clique(g) == min(largest)
        assert clique_number(g) == len(max_clique(g)) == omega
    assert ties > 100


def _least_maximum_clique(g):
    cliques = maximal_cliques(g)
    omega = max(len(c) for c in cliques)
    return min(c for c in cliques if len(c) == omega)


def _complete_multipartite(sizes):
    parts = [[f"p{i}x{j}" for j in range(size)] for i, size in enumerate(sizes)]
    vertices = [v for part in parts for v in part]
    edges = [(u, v) for a, b in combinations(parts, 2) for u in a for v in b]
    return Graph(vertices, edges)


def _planted(rng, n, p, k):
    g = random_graph(rng, n, p)
    members = rng.sample(g.sorted_vertices(), k)
    return Graph(g.vertices, set(g.edges) | {tuple(sorted(e)) for e in combinations(members, 2)})


def test_max_clique_matches_reference_when_every_maximum_clique_ties():
    rng = random.Random(31)
    for parts in range(2, 5):
        for _ in range(6):
            sizes = [rng.randint(2, 4) for _ in range(parts)]
            g = _complete_multipartite(sizes)
            assert max_clique(g) == _least_maximum_clique(g) == tuple(f"p{i}x0" for i in range(parts))


def test_max_clique_matches_reference_on_planted_and_dense_graphs():
    rng = random.Random(37)
    corpus = [_planted(rng, 30, 0.5, rng.randint(6, 9)) for _ in range(8)]
    corpus += [random_graph(rng, 24, 0.9) for _ in range(4)]
    for g in corpus:
        assert max_clique(g) == _least_maximum_clique(g)


def test_max_clique_of_edgeless_graph_is_least_vertex():
    for names in (["b", "a", "c"], ["v2", "v10", "v3"], ["z"]):
        g = Graph(names)
        assert max_clique(g) == (min(names),) == _least_maximum_clique(g)


def test_max_clique_breaks_ties_by_name_not_number():
    # "v10" < "v2" as strings, so the triangle on v10 wins the tie.
    g = Graph(
        [f"v{i}" for i in range(12)],
        [("v2", "v3"), ("v2", "v4"), ("v3", "v4"), ("v10", "v11"), ("v10", "v5"), ("v11", "v5")],
    )
    assert max_clique(g) == ("v10", "v11", "v5") == _least_maximum_clique(g)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 18))
    names = [f"v{i}" for i in range(n)]
    pairs = list(combinations(names, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(names, (e for e, k in zip(pairs, keep) if k))


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_max_clique_is_least_maximum_clique_property(g):
    assert max_clique(g) == _least_maximum_clique(g)


def test_clique_number_matches_networkx():
    rng = random.Random(41)
    for _ in range(12):
        G = nx.gnp_random_graph(rng.randint(40, 60), 0.5, seed=rng.randrange(2**32))
        omega = max(len(c) for c in nx.find_cliques(G))
        assert clique_number(from_networkx(G)) == omega


def test_max_clique_is_not_bounded_by_the_recursion_limit():
    assert len(max_clique(complete_graph(1000))) == 1000


def test_triangle_free_examples():
    assert is_triangle_free(cycle_graph(4))
    assert not is_triangle_free(complete_graph(3))
    assert is_triangle_free(petersen_graph())


def test_clique_number_on_atlas_matches_brute():
    for g in connected_atlas(2, 5):
        assert clique_number(g) == max(len(c) for c in brute_maximal_cliques(g))


def test_components():
    g = union(path_graph(3, "a"), path_graph(2, "b"))
    assert g.components() == [["a0", "a1", "a2"], ["b0", "b1"]]
