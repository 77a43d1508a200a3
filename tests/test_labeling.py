import copy
import inspect
import pickle
import random
from itertools import combinations

import pytest
from helpers import (
    automorphisms,
    connected_atlas,
    random_graph,
    random_induced_subgraph,
    reference_verify,
    restricted,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import iasi.labeling as labelingmod
from iasi import (
    ChainReport,
    ConcurrentSearch,
    Graph,
    IntSet,
    Labeling,
    LemmaCheck,
    MinChainResult,
    OracleConfig,
    VerificationReport,
    chain_report,
    complete_bipartite_graph,
    complete_graph,
    construct_strong,
    ConstructionSpec,
    cycle_graph,
    diff_set,
    max_clique,
    nourishing_number,
    path_graph,
    petersen_graph,
    verify,
    verify_concurrent_strong,
    verify_uniform,
)
from iasi.errors import InternalCheckError


def lab(**kv) -> Labeling:
    return Labeling({k: IntSet(v) for k, v in kv.items()})


K2 = Graph(["a", "b"], [("a", "b")])


def _twins(value) -> tuple:
    return copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize(
    "value",
    [
        complete_graph(3), IntSet([0, 2, 5]), lab(a=[0, 1], b=[0, 2]),
        OracleConfig(universe_max=4), ConstructionSpec(3),
    ],
    ids=["graph", "intset", "labeling", "oracle-config", "construction-spec"],
)
def test_copies_and_pickles_are_equal_and_stay_immutable(value):
    for twin in _twins(value):
        assert type(twin) is type(value)
        assert twin == value
        assert hash(twin) == hash(value)
        with pytest.raises(AttributeError, match="immutable"):
            twin.elements = ()


@pytest.mark.parametrize(
    "value,field",
    [
        (complete_graph(3), "edges"), (IntSet([0, 2, 5]), "elements"),
        (lab(a=[0, 1], b=[0, 2]), "_assignment"),
        (OracleConfig(universe_max=4), "min_card"), (ConstructionSpec(3), "seed"),
    ],
    ids=["graph", "intset", "labeling", "oracle-config", "construction-spec"],
)
def test_fields_cannot_be_deleted(value, field):
    twin = copy.deepcopy(value)
    with pytest.raises(AttributeError, match=f"{type(value).__name__} is immutable"):
        delattr(value, field)
    assert value == twin and hash(value) == hash(twin) and repr(value) == repr(twin)


@pytest.mark.parametrize(
    "record",
    [
        VerificationReport(True, False, [(("a", "b"), True)], False, True, ["edge map not injective"]),
        ChainReport(["a", "b"], 2, [(("a", "b"), True)]),
        LemmaCheck(False, 9, (IntSet([0, 1]), IntSet([0, 2]))),
        MinChainResult(False, 2, lab(a=[0, 1], b=[0, 2]), 12, 3),
        ConcurrentSearch(True, lab(a=[0, 1], b=[0, 2]), 4, False, lab(a=[0, 1], b=[1, 2])),
    ],
    ids=lambda record: type(record).__name__,
)
def test_result_records_copy_compare_field_by_field_and_stay_unhashable(record):
    for twin in _twins(record):
        assert type(twin) is type(record)
        assert twin == record and not twin != record
    for name in inspect.signature(type(record)).parameters:
        changed = copy.copy(record)
        setattr(changed, name, "changed")
        assert changed != record
    assert record.__eq__(repr(record)) is NotImplemented
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)


def test_each_report_gets_its_own_witness_list():
    first, second = (VerificationReport(True, True, [], True, True) for _ in range(2))
    first.witnesses.append("(a,b) weak")
    assert second.witnesses == []
P3 = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_strong_single_edge():
    report = verify(K2, lab(a=[1, 2], b=[3, 5]))
    assert report.is_strong and report.is_iasi
    assert report.strong_edges == [(("a", "b"), True)]
    assert report.witnesses == []


def test_verify_shared_difference_is_not_strong():
    report = verify(K2, lab(a=[1, 2], b=[3, 4]))
    assert report.is_iasi and not report.is_strong
    assert report.strong_edges == [(("a", "b"), False)]
    assert any("(a,b)" in w and "1" in w for w in report.witnesses)


def test_verify_path_with_interleaved_differences():
    # g_f(ab) = {0,1,2,3} and g_f(bc) = {1,2,3,4} stay distinct, and both
    # edges pair disjoint difference sets ({1} vs {2} twice).
    report = verify(P3, lab(a=[0, 1], b=[0, 2], c=[1, 2]))
    assert report.is_iasi
    assert report.is_strong


def test_verify_detects_vertex_collision():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    report = verify(g, lab(a=[1, 2], b=[1, 2], c=[7]))
    assert not report.vertex_injective and not report.is_iasi and not report.is_strong
    assert any("share the label" in w for w in report.witnesses)


def test_verify_detects_edge_collision():
    # two disjoint edges whose sumsets coincide: {0}+{5} = {1}+{4}
    g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    report = verify(g, lab(a=[0], b=[5], c=[1], d=[4]))
    assert report.vertex_injective and not report.edge_injective
    assert any("share the sumset" in w for w in report.witnesses)


def test_verify_requires_total_labeling():
    with pytest.raises(ValueError):
        verify(K2, lab(a=[1]))


def test_verify_rejects_isolated_vertices():
    g = Graph(["a", "b", "c"], [("a", "b")])
    with pytest.raises(ValueError):
        verify(g, lab(a=[1], b=[2], c=[3]))


def test_verify_reports_every_violation():
    g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    report = verify(g, lab(a=[1, 2], b=[3, 4], c=[0, 7], d=[5, 12]))
    assert [ok for _, ok in report.strong_edges] == [False, False]
    assert len(report.witnesses) == 2


def _same_as_reference(g, f):
    """verify and verify_uniform agree with the sumset-route reference."""
    report, sums = reference_verify(g, f)
    assert verify(g, f) == report
    if report.is_iasi:
        cards = {len(s) for s in sums.values()}
        labels = {len(f[v]) for v in g.vertices}
        expected = tuple(c.pop() if len(c) == 1 else None for c in (cards, labels))
        assert verify_uniform(g, f) == expected
    else:
        with pytest.raises(ValueError):
            verify_uniform(g, f)
    return report


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 7),
    p=st.sampled_from([0.3, 0.6, 0.9]),
    labels=st.lists(
        st.frozensets(st.integers(0, 6), min_size=1, max_size=3), min_size=7, max_size=7
    ),
)
def test_verify_matches_the_sumset_reference(seed, n, p, labels):
    # Small labels from {0..6} make weak edges and shared sumsets common.
    g = random_graph(random.Random(seed), n, p)
    f = Labeling({v: IntSet(labels[i]) for i, v in enumerate(g.sorted_vertices())})
    _same_as_reference(g, f)


TWO_EDGES = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])


def test_verify_colliding_fingerprints_of_distinct_sumsets(monkeypatch):
    # {0,3,5,8} and {0,1,7,8}: both (min 0, max 8, size 4, sum 16)
    import iasi.labeling as labelingmod

    f = lab(a=[0, 3], b=[0, 5], c=[0, 1], d=[0, 7])
    report = _same_as_reference(TWO_EDGES, f)
    assert report.is_strong and report.edge_injective
    calls = []
    real = labelingmod.sumset
    monkeypatch.setattr(labelingmod, "sumset", lambda a, b: calls.append(1) or real(a, b))
    verify(TWO_EDGES, f)
    assert len(calls) == 2


def _counting_sumset(monkeypatch) -> list:
    """Record each `sumset` call `labeling` makes."""
    calls = []
    real = labelingmod.sumset
    monkeypatch.setattr(labelingmod, "sumset", lambda a, b: calls.append(1) or real(a, b))
    return calls


THREE_EDGES = Graph(["a", "b", "c", "d", "e", "h"], [("a", "b"), ("c", "d"), ("e", "h")])


@pytest.mark.parametrize(
    "g, f",
    [
        # Both sumsets have minimum 0; their maxima are 8 and 3.
        (TWO_EDGES, lab(a=[0, 3], b=[0, 5], c=[0, 1], d=[0, 2])),
        # {0,3,4} and {1,2,4} differ in their minima alone; {0,7,9,16}
        # shares the first one's minimum.
        (THREE_EDGES, lab(a=[0], b=[0, 3, 4], c=[0, 1, 3], d=[1], e=[0, 7], h=[0, 9])),
    ],
)
def test_verify_shared_minimum_with_distinct_fingerprints_builds_no_sumset(g, f, monkeypatch):
    report = _same_as_reference(g, f)
    assert report.is_strong
    calls = _counting_sumset(monkeypatch)
    assert verify(g, f) == report
    assert calls == []


def test_verify_of_a_constructed_labeling_builds_no_sumset(monkeypatch):
    # The Sidon bases make the edge-sumset minima pairwise distinct.
    g = random_graph(random.Random(31), 40, 0.3)
    f = construct_strong(g, ConstructionSpec(cardinalities=3, seed=7))
    calls = _counting_sumset(monkeypatch)
    assert verify(g, f).is_strong
    assert calls == []
    assert verify_uniform(g, f) == (9, 3)
    assert calls == []


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 7),
    p=st.sampled_from([0.3, 0.6, 0.9]),
    labels=st.lists(st.frozensets(st.integers(1, 6), max_size=3), min_size=7, max_size=7),
)
def test_verify_matches_the_sumset_reference_when_every_label_holds_0(seed, n, p, labels):
    # Every edge sumset has minimum 0, so every edge goes to the fingerprint.
    g = random_graph(random.Random(seed), n, p)
    f = Labeling({v: IntSet(labels[i] | {0}) for i, v in enumerate(g.sorted_vertices())})
    _same_as_reference(g, f)


def test_verify_strong_edges_with_one_sumset():
    report = _same_as_reference(TWO_EDGES, lab(a=[1, 4], b=[0, 5], c=[0, 3], d=[1, 6]))
    assert not report.edge_injective
    assert report.witnesses == ["edges (a,b), (c,d) share the sumset {1,4,6,9}"]


def test_verify_weak_edge_shares_its_sumset_with_a_strong_edge():
    report = _same_as_reference(TWO_EDGES, lab(a=[0, 1], b=[1, 2], c=[1], d=[0, 1, 2]))
    assert report.strong_edges == [(("a", "b"), False), (("c", "d"), True)]
    assert report.witnesses == [
        "edges (a,b), (c,d) share the sumset {1,2,3}",
        "edge (a,b) is not strong: |{0,1}+{1,2}| = 3 < 4; shared differences {1}",
    ]


# ---------------------------------------------------------------------------
# uniformity
# ---------------------------------------------------------------------------

def test_uniform_single_edge():
    assert verify_uniform(K2, lab(a=[1, 2], b=[3, 5])) == (4, 2)


def test_uniform_star_of_singletons():
    star = Graph(["c", "x", "y"], [("c", "x"), ("c", "y")])
    assert verify_uniform(star, lab(c=[0], x=[1], y=[2])) == (1, 1)


def test_uniform_mixed_cardinalities():
    k, l = verify_uniform(P3, lab(a=[3], b=[0, 1], c=[5]))
    assert l is None
    assert k == 2


def test_uniform_builds_each_edge_sumset_once(monkeypatch):
    import iasi.labeling as labelingmod

    g = petersen_graph()
    f = construct_strong(g)
    calls = []
    real = labelingmod.sumset

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(labelingmod, "sumset", counting)
    assert verify_uniform(g, f) == (4, 2)
    assert len(calls) == 0
    # one weak edge (ab), whose fingerprint no other edge shares
    assert verify_uniform(P3, lab(a=[0, 1], b=[2, 3], c=[10, 20])) == (None, 2)
    assert len(calls) == 1


def test_uniform_requires_iasi():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    with pytest.raises(ValueError):
        verify_uniform(g, lab(a=[1, 2], b=[1, 2], c=[7]))


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

def test_chain_all_singletons_is_empty():
    report = chain_report(P3, lab(a=[1], b=[2], c=[3]))
    assert report.max_chain == [] and report.max_chain_length == 0
    assert all(ok for _, ok in report.per_edge_relation)


def test_chain_of_triangle():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    report = chain_report(g, lab(a=[0, 1], b=[0, 2], c=[0, 4]))
    assert report.max_chain_length == 3
    assert sorted(report.max_chain) == ["a", "b", "c"]


def test_chain_on_c4_with_repeated_differences():
    g = cycle_graph(4)
    f = lab(v0=[0, 1], v1=[0, 2], v2=[10, 11], v3=[20, 22])
    report = chain_report(g, f)
    assert report.max_chain_length == 2
    assert all(ok for _, ok in report.per_edge_relation)


def test_chain_at_least_clique_number_for_wide_labels():
    rng = random.Random(99)
    for g in rng.sample(list(connected_atlas(2, 5)), 12):
        f = construct_strong(g, ConstructionSpec(cardinalities=2))
        assert chain_report(g, f).max_chain_length >= nourishing_number(g)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 7),
    p=st.sampled_from([0.3, 0.6, 0.9]),
    labels=st.lists(
        st.frozensets(st.integers(0, 6), min_size=1, max_size=3), min_size=7, max_size=7
    ),
)
def test_chain_relation_matches_the_sumset_reference(seed, n, p, labels):
    # The difference-set relation of each edge equals strength read from
    # the sumset's cardinality.
    g = random_graph(random.Random(seed), n, p)
    f = Labeling({v: IntSet(labels[i]) for i, v in enumerate(g.sorted_vertices())})
    assert chain_report(g, f).per_edge_relation == reference_verify(g, f)[0].strong_edges


def test_chain_disjointness_graph_is_the_one_the_constructor_builds(monkeypatch):
    rng = random.Random(23)
    g = random_graph(rng, 12, 0.5)
    f = Labeling({v: IntSet(rng.sample(range(16), rng.randint(1, 3))) for v in g.sorted_vertices()})
    built = []

    def spy(aux):
        built.append(aux)
        return max_clique(aux)

    monkeypatch.setattr("iasi.graph.max_clique", spy)
    report = chain_report(g, f)
    diffs = {v: diff_set(f[v]) for v in g.vertices}
    carriers = [v for v in g.sorted_vertices() if diffs[v]]
    pairs = [(u, v) for u, v in combinations(carriers, 2) if diffs[u].isdisjoint(diffs[v])]
    checked = Graph(carriers, pairs)
    # Singletons carry no differences; the rest are neither all nor never disjoint.
    assert 0 < len(carriers) < len(g.vertices) and 0 < len(pairs) < len(carriers) * (len(carriers) - 1) // 2
    [aux] = built
    assert aux == checked
    assert all(aux.neighbors(v) == checked.neighbors(v) for v in carriers)
    assert report.max_chain == list(max_clique(checked))


# ---------------------------------------------------------------------------
# nourishing number
# ---------------------------------------------------------------------------

def test_nourishing_examples():
    assert nourishing_number(complete_graph(7)) == 7
    assert nourishing_number(complete_bipartite_graph(3, 2)) == 2
    assert nourishing_number(petersen_graph()) == 2
    with pytest.raises(ValueError):
        nourishing_number(Graph([]))


def test_nourishing_of_wheel():
    hub = Graph(
        ["h", "c0", "c1", "c2", "c3", "c4"],
        [(f"c{i}", f"c{(i + 1) % 5}") for i in range(5)] + [("h", f"c{i}") for i in range(5)],
    )
    assert nourishing_number(hub) == 3


# ---------------------------------------------------------------------------
# concurrent labelings
# ---------------------------------------------------------------------------

def test_concurrent_from_all_disjoint_differences():
    p4 = path_graph(4)
    # label the complete graph on the same vertices: all difference sets
    # pairwise disjoint, every spanning subgraph (p4 and its complement) strong
    f = construct_strong(complete_graph(4), ConstructionSpec(cardinalities=2))
    assert verify_concurrent_strong(p4, f)


def test_concurrent_fails_for_two_class_labeling():
    p4 = path_graph(4)
    f = construct_strong(p4, ConstructionSpec(cardinalities=2))
    # bipartite-style labeling reuses strides inside a class, so some
    # complement edge joins same-class vertices and is not strong
    assert not verify_concurrent_strong(p4, f)


def test_concurrent_rejects_isolated_complement():
    # complement of K2 is two isolated vertices
    with pytest.raises(ValueError):
        verify_concurrent_strong(K2, lab(a=[1, 2], b=[3, 5]))


def test_concurrent_c5():
    c5 = cycle_graph(5)
    f = construct_strong(complete_graph(5), ConstructionSpec(cardinalities=2))
    assert verify_concurrent_strong(c5, f)


def test_concurrent_holds_on_every_spanning_subgraph_pair():
    # four pairwise disjoint difference sets make every spanning subgraph of
    # K4 concurrent with its complementary subgraph, e.g. 2K2 against C4
    full = complete_graph(4)
    f = construct_strong(full, ConstructionSpec(cardinalities=2))
    two_k2 = Graph(full.vertices, [("v0", "v1"), ("v2", "v3")])
    c4 = Graph(full.vertices, [("v0", "v2"), ("v2", "v1"), ("v1", "v3"), ("v3", "v0")])
    assert verify_concurrent_strong(two_k2, f)
    assert verify_concurrent_strong(c4, f)


# ---------------------------------------------------------------------------
# heredity and symmetry
# ---------------------------------------------------------------------------

def test_strong_heredity_on_subgraphs():
    rng = random.Random(41)
    for g in rng.sample(list(connected_atlas(3, 6)), 20):
        f = construct_strong(g, ConstructionSpec(cardinalities=2))
        for _ in range(5):
            sub = random_induced_subgraph(rng, g)
            if sub is None:
                continue
            assert verify(sub, restricted(f, sub.vertices)).is_strong


def test_strong_heredity_on_spanning_subgraphs():
    rng = random.Random(43)
    for g in rng.sample(list(connected_atlas(4, 6)), 10):
        f = construct_strong(g, ConstructionSpec(cardinalities=2))
        edges = g.sorted_edges()
        for _ in range(5):
            keep = rng.sample(edges, rng.randint(1, len(edges)))
            # The kept edges on the vertices they touch: no vertex is isolated.
            sub = Graph({v for e in keep for v in e}, keep)
            assert verify(sub, restricted(f, sub.vertices)).is_strong


def test_verdict_invariant_under_automorphism():
    for g in [cycle_graph(4), complete_graph(3), path_graph(4)]:
        f = construct_strong(g, ConstructionSpec(cardinalities=2))
        base = verify(g, f).is_strong
        for sigma in automorphisms(g):
            relabeled = Labeling({v: f[sigma[v]] for v in g.vertices})
            assert verify(g, relabeled).is_strong == base


# ---------------------------------------------------------------------------
# labeling object basics
# ---------------------------------------------------------------------------

def test_labeling_rejects_empty_label():
    with pytest.raises(ValueError):
        lab(a=[])


def test_labeling_restrict_and_scale():
    f = lab(a=[1, 2], b=[3, 5])
    r = restricted(f, ["a"])
    assert r.vertices() == ["a"]
    s = f.scaled(3)
    assert s["a"] == IntSet([3, 6]) and s["b"] == IntSet([9, 15])
    with pytest.raises(ValueError):
        restricted(f, ["zz"])


def test_labeling_immutable():
    f = lab(a=[1])
    with pytest.raises(AttributeError):
        f._assignment = {}


def test_reports_serialize_to_stable_sorted_json():
    import json

    f = lab(a=[0, 1], b=[0, 2], c=[1, 2])
    v = json.dumps(verify(P3, f).to_dict(), sort_keys=True)
    c = json.dumps(chain_report(P3, f).to_dict(), sort_keys=True)
    assert json.dumps(verify(P3, f).to_dict(), sort_keys=True) == v
    assert json.dumps(chain_report(P3, f).to_dict(), sort_keys=True) == c
    assert json.loads(c)["max_chain_length"] == 2


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: Labeling({"a": frozenset({1, 2})}), "label of 'a' is not an IntSet",
                     id="label-not-an-intset"),
        pytest.param(lambda: lab(a=[1, 2]).scaled(0), "scale factor must be at least 1", id="scale-below-1"),
    ],
)
def test_labeling_refuses(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_labeling_is_a_container_of_its_vertices():
    f = lab(b=[3, 5], a=[1, 2])
    assert list(f) == ["a", "b"] and len(f) == 2
    assert "a" in f and "zz" not in f


def test_concurrent_self_check_fires_when_verify_disagrees_with_the_restatement(monkeypatch):
    # verify says "not strong" of a labeling whose difference sets are
    # pairwise disjoint and whose sumsets are distinct
    c5 = cycle_graph(5)
    f = construct_strong(complete_graph(5), ConstructionSpec(cardinalities=2))
    real = labelingmod.verify
    monkeypatch.setattr(
        labelingmod, "verify", lambda g, f: VerificationReport(**{**real(g, f).to_dict(), "is_strong": False})
    )
    with pytest.raises(InternalCheckError, match="concurrent-strong criteria disagree"):
        verify_concurrent_strong(c5, f)
