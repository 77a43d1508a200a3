import inspect
import pickle
import random
import sys
from itertools import combinations

import networkx as nx
import pytest
from helpers import (
    brute_maximal_cliques,
    connected_atlas,
    from_networkx,
    is_isomorphic_brute,
    is_triangle_free,
    maximal_cliques,
    random_graph,
    reference_cartesian_product,
    reference_check_name,
    reference_max_clique,
    reference_named_lines,
    reference_trusted,
    reference_write_graph,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from iasi import (
    Graph,
    IntSet,
    Labeling,
    ParseError,
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
    read_labeling,
    star_graph,
    union,
    verify,
    write_graph,
)
from iasi import labeling as labelingmod
from iasi.cli import _read_cards
from iasi.graph import _check_name


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


def _result(f, *args):
    """What `f(*args)` returns, or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


def test_check_name_agrees_with_the_per_character_scan(monkeypatch):
    # Every whitespace code point, alone, doubled and embedded, and other
    # characters: the first 0x250 and a seeded sample of the rest.  The
    # labeling and cards readers see each name on line 2 of a file.
    spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    rng = random.Random(29)
    others = [chr(c) for c in range(0x250)]
    others += [chr(rng.randrange(sys.maxunicode + 1)) for _ in range(3000)]
    names = [s for c in spaces for s in (c, c * 2, f"a{c}b", f"{c}a", f"a{c}")]
    names += [s for c in others if not c.isspace() for s in (c, f"a{c}b", f"{c}a")]
    names += ["", "p", "v", "#", "#a", "a#", "pv", None, 3]
    assert len(spaces) >= 25
    for name in names:
        assert _result(_check_name, name) == _result(reference_check_name, name), name
    texts = [(read_labeling, f"a: {{1}}\n{name}: {{2}}\n") for name in names if isinstance(name, str)]
    texts += [(_read_cards, f"a: 1\n{name}: 2\n") for name in names if isinstance(name, str)]
    got = [_result(read, text) for read, text in texts]
    monkeypatch.setattr(labelingmod, "_named_lines", reference_named_lines)
    want = [_result(read, text) for read, text in texts]
    assert any("bad vertex name" in w for w in want if isinstance(w, str))
    for (_, text), g, w in zip(texts, got, want):
        assert g == w, text


def test_rejects_undeclared_endpoint():
    with pytest.raises(ValueError):
        Graph(["a"], [("a", "b")])


def test_edges_are_normalized_and_deduped():
    g = Graph(["a", "b"], [("b", "a"), ("a", "b")])
    assert g.edges == frozenset({("a", "b")})
    assert g.neighbors("a") == frozenset({"b"})


def test_graph_keeps_one_object_per_vertex_name():
    # Equal but distinct str objects: the constructor keeps the declared
    # ones, read_graph the first occurrence of each name.
    a, b = "".join(["a", "b"]), "".join(["c", "d"])
    g = Graph([a, b], [("".join(["a", "b"]), "".join(["c", "d"]))])
    h = read_graph("v ab\ncd ab\nab cd\n")
    for graph in (g, h):
        own = {v: v for v in graph.vertices}
        ((u, v),) = graph.edges
        assert own[u] is u and own[v] is v
        assert all(own[w] is w for x in own for w in graph.neighbors(x))


def test_graph_is_immutable_and_hashable():
    g = complete_graph(3)
    with pytest.raises(AttributeError):
        g.vertices = frozenset()
    assert g == complete_graph(3)
    assert len({g, complete_graph(3)}) == 1


def test_rename_and_relabel():
    g = path_graph(3)
    r = g.relabel(lambda v: "a." + v)
    assert r.vertices == {"a.v0", "a.v1", "a.v2"}
    assert ("a.v0", "a.v1") in r.edges
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


def test_product_and_corona_refuse_colliding_names():
    with pytest.raises(ValueError, match="collides"):
        # "a" × "b×c" and "a×b" × "c" are both named "a×b×c".
        cartesian_product(Graph(["a", "a×b"], [("a", "a×b")]), Graph(["c", "b×c"]))
    with pytest.raises(ValueError, match="collides"):
        corona(Graph(["u", "u⊙0:w"], [("u", "u⊙0:w")]), Graph(["w"]))


def test_product_orders_edges_whose_names_sort_against_their_factors():
    # "x1" < "x10", but "x10×w" < "x1×w": the separator sorts after "0".
    g = cartesian_product(Graph(["x1", "x10"], [("x1", "x10")]), Graph(["w"]))
    assert g.edges == {("x10×w", "x1×w")}


# Names where one is a prefix of another, so a name built from them can
# sort against the order of its parts.
_PREFIXED_NAMES = ["a", "ab", "abc", "b", "x", "x1", "x10", "x100", "x2", "1", "10", "9"]
# Names holding the product and corona separators.
_SEPARATED_NAMES = ["x×", "×1", "a×b", "b×", "⊙", "a⊙0:b", "a⊙0:", "0:b"]


def _factor_pairs():
    """Random factor pairs, and pairs of factors whose names are prefixes
    of one another or hold a separator, edgeless or on one vertex."""
    rng = random.Random(29)
    pairs = [
        tuple(random_graph(rng, rng.randint(1, 8), rng.choice([0.2, 0.5, 0.9]), p) for p in "ab")
        for _ in range(40)
    ]
    special = [
        Graph(["a1", "a10", "a100", "a2"], [("a1", "a10"), ("a10", "a100"), ("a2", "a1")]),
        Graph(_SEPARATED_NAMES, [("x×", "×1"), ("×1", "a⊙0:b"), ("a×b", "b×"), ("⊙", "0:b")]),
        Graph(["k"]),
        Graph(["e1", "e10", "e2"]),
        path_graph(3, "a1"),
    ]
    pairs += [(g, h) for g in special for h in special]
    return pairs


def test_product_matches_the_tuple_keyed_reference():
    built = 0
    for g1, g2 in _factor_pairs():
        want, got = _result(reference_cartesian_product, g1, g2), _result(cartesian_product, g1, g2)
        assert got == want
        if isinstance(got, Graph):
            built += 1
            assert got._adj == want._adj
    assert built > 60


def test_product_collision_raises_the_reference_error():
    g1, g2 = Graph(["a", "a×b"], [("a", "a×b")]), Graph(["c", "b×c"])
    want = _result(reference_cartesian_product, g1, g2)
    assert want == "product vertex naming collides; rename inputs first"
    assert _result(cartesian_product, g1, g2) == want


def _written_graphs():
    """Operation results on the factor pairs, and graphs with isolated
    vertices or no edges."""
    graphs = [Graph([]), Graph(["a"]), Graph(["b", "a10", "a1"]), Graph(["a", "b", "c"], [("c", "a")])]
    for g1, g2 in _factor_pairs():
        graphs += [_result(cartesian_product, g1, g2), _result(corona, g1, g2)]
        if g1.vertices.isdisjoint(g2.vertices):
            graphs.append(join(g1, g2))
    return [g for g in graphs if isinstance(g, Graph)]


def test_write_graph_matches_the_sorting_reference():
    graphs = _written_graphs()
    assert len(graphs) > 150 and any(g.isolated_vertices() for g in graphs)
    for g in graphs:
        text = write_graph(g)
        assert text == reference_write_graph(g)
        assert read_graph(text) == g


def test_trusted_builds_what_the_edge_set_first_reference_builds():
    # Seeded pair lists over names that sort against their parts: repeats,
    # both orientations, isolated vertices and no pairs at all.
    rng = random.Random(30)
    pool = _PREFIXED_NAMES + _SEPARATED_NAMES + ["a1", "a10"]
    cases = [([], []), (["a"], []), (["a1", "a10", "a2"], [("a10", "a1"), ("a1", "a10")] * 2)]
    for _ in range(300):
        vs = rng.sample(pool, rng.randint(2, len(pool)))
        possible = list(combinations(vs, 2))
        picks = rng.choices(possible, k=rng.randint(0, len(possible)))
        cases.append((vs, [e if rng.random() < 0.5 else e[::-1] for e in picks]))
    assert sum(1 for vs, pairs in cases if len(set(map(frozenset, pairs))) < len(pairs)) > 200
    for vs, pairs in cases:
        got, want = Graph._trusted(vs, pairs), reference_trusted(vs, pairs)
        assert got._edges is None
        assert (got.vertices, got._adj) == (want.vertices, want._adj)
        assert got.edges == want.edges and type(got.edges) is frozenset
        assert got == want and hash(got) == hash(want)
        own = {v: v for v in got.vertices}
        assert all(own[x] is x for e in got.edges for x in e)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_product_and_writer_match_their_references_on_awkward_names(data):
    names = _PREFIXED_NAMES + _SEPARATED_NAMES
    g1, g2 = data.draw(_named_graphs(names)), data.draw(_named_graphs(names))
    want, got = _result(reference_cartesian_product, g1, g2), _result(cartesian_product, g1, g2)
    assert got == want
    if isinstance(got, Graph):
        assert got._adj == want._adj
        assert write_graph(got) == reference_write_graph(got)
    for g in (g1, g2):
        assert write_graph(g) == reference_write_graph(g)


# Names whose string order is not their numeric order (`v10` < `v2`),
# non-ASCII names, and names holding the product and corona separators.
_WALKED_NAMES = [*_PREFIXED_NAMES, *_SEPARATED_NAMES, "v2", "v10", "é", "λ1", "λ10", "Ω", "😀", "Z"]


@st.composite
def _walked_graphs(draw):
    """A drawn graph, its edgeless copy, or its product or corona with a
    second one; isolated vertices allowed."""
    g = draw(_named_graphs(_WALKED_NAMES))
    op = draw(st.sampled_from(["graph", "edgeless", "product", "corona"]))
    if op == "edgeless":
        return Graph(g.vertices)
    if op in ("product", "corona"):
        build = cartesian_product if op == "product" else corona
        built = _result(build, g, draw(_named_graphs(_WALKED_NAMES)))
        return built if isinstance(built, Graph) else g  # a naming collision leaves g
    return g


@settings(max_examples=300, deadline=None)
@given(g=_walked_graphs(), data=st.data())
def test_every_sorted_walk_of_the_edges_gives_the_order_of_sorted_edges(g, data):
    # The graph's own walk, the writer's edge lines and the verifier's rows,
    # each against one sort of the edge set.
    want = sorted(g.edges)
    assert g.sorted_edges() == want
    lines = write_graph(g).splitlines()
    assert lines[1 + len(g.vertices):] == [f"{u} {v}" for u, v in want]
    labels = st.lists(st.integers(0, 9), min_size=1, max_size=3).map(IntSet)
    f = Labeling({v: data.draw(labels) for v in sorted(g.vertices)})
    rows = labelingmod._verify(g, f)[0].strong_edges
    assert [e for e, _ in rows] == want
    if want and not g.isolated_vertices():
        assert verify(g, f).strong_edges == rows


@st.composite
def _named_graphs(draw, names):
    vs = draw(st.lists(st.sampled_from(names), min_size=1, max_size=5, unique=True))
    pairs = list(combinations(vs, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(vs, [e for e, k in zip(pairs, keep) if k])


_BINARY = {
    "union": union,
    "intersection": intersection,
    "join": join,
    "cartesian_product": cartesian_product,
    "corona": corona,
}


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    op=st.sampled_from([*_BINARY, "complement", "relabel"]),
)
def test_operations_build_what_the_validating_constructor_would(data, op):
    g1 = data.draw(_named_graphs(_PREFIXED_NAMES))
    # join needs disjoint names; the others may share them.
    rest = [v for v in _PREFIXED_NAMES if op != "join" or v not in g1.vertices]
    g2 = data.draw(_named_graphs(rest))
    if op == "complement":
        h = complement(g1)
    elif op == "relabel":
        # A permutation of the names, so an edge's endpoints may swap order.
        image = data.draw(st.permutations(_PREFIXED_NAMES))
        h = g1.relabel(dict(zip(_PREFIXED_NAMES, image)))
    else:
        h = _BINARY[op](g1, g2)
    assert h._edges is None
    checked = Graph(h.vertices, h.edges)
    assert h == checked and hash(h) == hash(checked)
    assert h.edges is h.edges
    copy = pickle.loads(pickle.dumps(h))
    assert copy == h and copy._adj == h._adj and copy.edges == h.edges
    assert all(u < v for u, v in h.edges)
    assert isinstance(h.vertices, frozenset) and isinstance(h.edges, frozenset)
    assert h._adj.keys() == checked._adj.keys()
    for v in h.vertices:
        assert isinstance(h.neighbors(v), frozenset)
        assert h.neighbors(v) == checked.neighbors(v)


def test_read_graph_reports_a_refused_name_at_the_line_it_first_appears_on():
    # Names are checked once every line has parsed; "#q" appears on lines 2-4.
    with pytest.raises(ParseError) as exc:
        read_graph("a b\nb #q\nc #q\nv #q\n")
    assert exc.value.line == 2 and "'#q'" in str(exc.value)


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
    assert len(w) == 2 and w in g.edges
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


def test_clique_number_is_not_bounded_by_the_recursion_limit():
    # clique_number runs its own search, without the lexicographic phase.
    depth = len(inspect.stack(0))
    n = depth + 150
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        omega = clique_number(complete_graph(n))
    finally:
        sys.setrecursionlimit(limit)
    assert omega == n


@st.composite
def dense_and_sparse_graphs(draw):
    n = draw(st.integers(1, 30))
    p = draw(st.sampled_from([0.3, 0.5, 0.7, 0.9]))
    rng = draw(st.randoms(use_true_random=False))
    names = [f"v{i}" for i in range(n)]
    return Graph(names, (e for e in combinations(names, 2) if rng.random() < p))


@settings(max_examples=200, deadline=None)
@given(dense_and_sparse_graphs())
def test_max_clique_matches_the_name_order_search(g):
    expected = reference_max_clique(g)
    assert max_clique(g) == expected
    assert clique_number(g) == len(expected)


def _seeded_gnp(n, p, seed):
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(n)]
    return Graph(names, (e for e in combinations(names, 2) if rng.random() < p))


def test_max_clique_on_a_dense_graph_where_name_order_is_slow():
    g = _seeded_gnp(120, 0.9, 1)
    # Recorded once from reference_max_clique, which takes about 30 s here.
    expected = (
        "v0", "v102", "v104", "v107", "v108", "v110", "v111", "v112", "v13", "v14", "v21",
        "v31", "v4", "v42", "v43", "v44", "v45", "v51", "v52", "v61", "v67", "v68", "v69",
        "v77", "v78", "v8", "v84", "v85", "v94", "v95", "v97", "v98",
    )
    assert max_clique(g) == expected
    assert clique_number(g) == 32


def test_maximal_cliques_is_not_bounded_by_the_recursion_limit():
    # K_n's single maximal clique is n branch levels deep; a search that
    # recursed per level would need n frames beyond the lowered limit.
    depth = len(inspect.stack(0))
    n = depth + 150
    g = complete_graph(n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        cliques = maximal_cliques(g)
    finally:
        sys.setrecursionlimit(limit)
    assert cliques == [tuple(sorted(g.vertices))]


def test_maximal_cliques_match_networkx_sorted():
    rng = random.Random(43)
    for _ in range(6):
        n, p = rng.randint(20, 40), rng.choice([0.3, 0.6])
        G = nx.gnp_random_graph(n, p, seed=rng.randrange(2**32))
        expected = sorted(tuple(sorted(f"v{u}" for u in c)) for c in nx.find_cliques(G))
        assert maximal_cliques(from_networkx(G)) == expected


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


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: max_clique(Graph([])), "empty graph has no clique", id="max-clique-of-empty"),
        pytest.param(lambda: cycle_graph(2), "at least 3 vertices", id="cycle-below-3"),
    ],
)
def test_graph_refuses(call, message):
    with pytest.raises(ValueError, match=message):
        call()
