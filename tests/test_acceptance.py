"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line when its
checks hold (run with `pytest -s tests/test_acceptance.py` to see them).
Tolerances are exact throughout: the domain is integer combinatorics and
every expected value is either enumerated or forced by a formula.
"""

import itertools
import random
import time

import pytest
from helpers import connected_atlas, random_graph_corpus, random_induced_subgraph, restricted

from iasi import (
    ConstructionSpec,
    Graph,
    Labeling,
    OracleConfig,
    cartesian_product,
    chain_report,
    clique_number,
    complement,
    complete_graph,
    construct_strong,
    corona,
    cycle_graph,
    exists_concurrent,
    join,
    lemma_oracle,
    min_max_chain,
    path_graph,
    petersen_graph,
    union,
    verify,
    verify_concurrent_strong,
    write_graph,
    write_labeling,
)
from iasi.cli import main

SEED = 0xA51


def _corpus_small():
    return list(connected_atlas(2, 6))


def _corpus_random():
    return random_graph_corpus(200, SEED)


def test_criterion_01_sumset_cardinality_equivalence_exhaustive():
    started = time.time()
    check = lemma_oracle(8)
    elapsed = time.time() - started
    assert check.ok, f"counterexample: {check.counterexample}"
    assert check.pairs_checked == 511 * 511
    assert elapsed <= 30, f"sweep took {elapsed:.1f}s, budget is 30s"
    print(f"\n[criterion 1] cardinality/disjointness equivalence on {check.pairs_checked} "
          f"pairs in {elapsed:.1f}s: PASS")


def test_criterion_02_constructor_soundness():
    small = _corpus_small()
    rand = _corpus_random()
    # atlas coverage sanity: one graph per isomorphism class, 112 on six vertices
    assert sum(1 for g in small if len(g.vertices) == 6) == 112
    assert len(rand) == 200
    failures = 0
    for g in small + rand:
        for card in (1, 2, 3):
            f = construct_strong(g, ConstructionSpec(cardinalities=card))
            if not verify(g, f).is_strong:
                failures += 1
    assert failures == 0
    print(f"\n[criterion 2] constructor sound on {len(small)} catalog + {len(rand)} random "
          f"graphs at cardinalities 1-3: PASS")


def test_criterion_03_nourishing_number_matches_exhaustive_minimum():
    cfg = OracleConfig(universe_max=8, min_card=2, max_card=2, vertex_limit=4)
    disagreements = []
    checked = 0
    for g in connected_atlas(2, 4):
        result = min_max_chain(g, cfg)
        omega = clique_number(g)
        checked += 1
        if result.exhausted or result.value != omega:
            witness = "none\n" if result.witness is None else write_labeling(result.witness)
            disagreements.append(f"value {result.value}, omega {omega} on\n{write_graph(g)}witness\n{witness}")
    assert not disagreements, "clique number vs exhaustive minimum disagreed:\n" + "\n".join(disagreements)
    print(f"\n[criterion 3] exhaustive minimum chain equals clique number on "
          f"{checked} graphs (cards 2, universe 0..8): PASS")


@pytest.fixture(scope="module")
def op_results():
    """Results for criteria 4 and 5: every operation applied to every pair
    of connected graphs with at most 5 vertices."""
    graphs = list(connected_atlas(1, 5))
    out = []
    for i, g1 in enumerate(graphs):
        a = g1.relabel(lambda v: "a." + v)
        k1 = clique_number(a)
        for j, g2 in enumerate(graphs):
            b = g2.relabel(lambda v: "b." + v)
            k2 = clique_number(b)
            cor = corona(a, b)
            out.append(("corona", a, b, k1, k2, cor, clique_number(cor)))
            if j < i:
                continue  # join/product/union are symmetric; ordered pairs only for corona
            jn = join(a, b)
            out.append(("join", a, b, k1, k2, jn, clique_number(jn)))
            pr = cartesian_product(a, b)
            out.append(("product", a, b, k1, k2, pr, clique_number(pr)))
            un = union(a, b)
            out.append(("union", a, b, k1, k2, un, clique_number(un)))
    return out


def test_criterion_04_operation_formulas_exhaustive_small(op_results):
    started = time.time()
    expected = {
        "join": lambda k1, k2: k1 + k2,
        "product": max,
        "corona": lambda k1, k2: max(k1, k2 + 1),
        "union": max,
    }
    for op, a, b, k1, k2, result, kappa in op_results:
        want = expected[op](k1, k2)
        assert kappa == want, (
            f"{op} of {len(a.vertices)}v/{len(a.edges)}e and "
            f"{len(b.vertices)}v/{len(b.edges)}e graphs: kappa {kappa} != {want}\n"
            f"{write_graph(a)}\n{write_graph(b)}"
        )
    elapsed = time.time() - started
    print(f"\n[criterion 4] join/product/corona/disjoint-union formulas on "
          f"{len(op_results)} instances in {elapsed:.1f}s: PASS")


def test_criterion_05_product_and_corona_edge_counts(op_results):
    checked = 0
    for op, a, b, _, _, result, _ in op_results:
        p1, q1 = len(a.vertices), len(a.edges)
        p2, q2 = len(b.vertices), len(b.edges)
        if op == "product":
            assert len(result.vertices) == p1 * p2
            assert len(result.edges) == p1 * q2 + p2 * q1
            checked += 1
        elif op == "corona":
            assert len(result.vertices) == p1 * (1 + p2)
            assert len(result.edges) == q1 + p1 * q2 + p1 * p2
            checked += 1
    print(f"\n[criterion 5] product/corona size formulas on {checked} instances: PASS")


def _hundred_strong_pairs():
    rng = random.Random(SEED + 1)
    graphs = _corpus_small() + _corpus_random()[:40]
    picked = rng.sample(graphs, 100)
    return [(g, construct_strong(g, ConstructionSpec(cardinalities=2))) for g in picked]


def test_criterion_06_subgraph_heredity():
    rng = random.Random(SEED + 2)
    pairs = _hundred_strong_pairs()
    checked = 0
    for g, f in pairs:
        for _ in range(10):
            sub = random_induced_subgraph(rng, g)
            if sub is None:
                continue
            assert verify(sub, restricted(f, sub.vertices)).is_strong, (
                f"restriction to {sorted(sub.vertices)} lost strength"
            )
            checked += 1
    assert checked >= 900  # nearly every sample yields a usable subgraph
    print(f"\n[criterion 6] heredity held on {checked} induced subgraphs "
          f"of {len(pairs)} strong labelings: PASS")


def test_criterion_07_scaling_preserves_strength():
    pairs = _hundred_strong_pairs()
    for g, f in pairs:
        for r in (2, 3, 5, 7):
            assert verify(g, f.scaled(r)).is_strong, f"scaling by {r} lost strength"
    print(f"\n[criterion 7] scaled copies stayed strong for {len(pairs)} labelings "
          f"x 4 multipliers: PASS")


def test_criterion_08_concurrent_labelings():
    # constructive side: all-pairwise-disjoint labelings from the complete graph
    for g in (path_graph(4), cycle_graph(5)):
        full = complete_graph(len(g.vertices))
        k = construct_strong(full, ConstructionSpec(cardinalities=2))
        f = Labeling({v: k[u] for u, v in zip(full.sorted_vertices(), g.sorted_vertices())})
        assert verify_concurrent_strong(g, f)
    # oracle side: every witness over the whole space is a full chain
    result = exists_concurrent(
        path_graph(4), OracleConfig(universe_max=8, min_card=2, max_card=2, vertex_limit=4)
    )
    assert result.exists and result.all_witnesses_pairwise_disjoint, (
        f"witness without pairwise disjoint difference sets: {result.disjointness_counterexample}"
    )
    print(f"\n[criterion 8] concurrent labelings verified constructively and over "
          f"{result.witnesses_found} enumerated witnesses: PASS")


def test_criterion_09_cli_construction_is_deterministic(tmp_path, capsys):
    gp = tmp_path / "pet.g"
    gp.write_text(write_graph(petersen_graph()))
    a, b = tmp_path / "a.l", tmp_path / "b.l"
    assert main(["construct", str(gp), "--cardinality", "2", "--seed", "11",
                 "--output", str(a)]) == 0
    assert main(["construct", str(gp), "--cardinality", "2", "--seed", "11",
                 "--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    print("\n[criterion 9] identical inputs and seed give byte-identical labelings: PASS")


def test_criterion_10_pentagon_discrepancy_is_pinned():
    """The adopted resolution of the self-complement tension, frozen.

    A self-complementary graph's concurrent labelings need a full-length
    chain (n pairwise disjoint difference sets), which would read as
    nourishing number n; the invariant this library computes is the clique
    number, which for the pentagon is 2.  Both facts are asserted so any
    future redefinition must edit this test deliberately.
    """
    c5 = cycle_graph(5)
    from helpers import is_isomorphic_brute

    assert is_isomorphic_brute(c5, complement(c5))  # genuinely self-complementary
    assert clique_number(c5) == 2  # the invariant stays the clique number

    full = complete_graph(5)
    k5 = construct_strong(full, ConstructionSpec(cardinalities=2))
    f = Labeling({v: k5[u] for u, v in zip(full.sorted_vertices(), c5.sorted_vertices())})
    assert verify_concurrent_strong(c5, f)
    assert chain_report(c5, f).max_chain_length == 5  # concurrency costs a full chain

    # and a plain strong labeling of the pentagon needs no such chain
    g5 = construct_strong(c5, ConstructionSpec(cardinalities=2))
    assert verify(c5, g5).is_strong
    assert chain_report(c5, g5).max_chain_length < 5
    print("\n[criterion 10] pentagon: nourishing number 2, concurrent labelings "
          "need chain length 5; resolution pinned: PASS")
