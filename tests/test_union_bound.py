"""Clique behavior of overlapping unions.

The disjoint case is an equality and always holds.  For overlapping unions
only the lower bound is guaranteed; the stronger claim, that a
triangle-free intersection already forces equality, is audited
exhaustively at small scale below, and the audit's findings are reported,
not suppressed: shared vertices can merge two small cliques into a larger
one without the intersection containing any edge at all, so the claim has
counterexamples.  They are pinned here so the record cannot rot.
"""

from itertools import combinations

import pytest

from iasi import Graph, clique_number, intersection, union
from helpers import is_triangle_free, random_graph

import random


def test_disjoint_union_kappa_is_max():
    rng = random.Random(71)
    for _ in range(30):
        g1 = random_graph(rng, rng.randint(2, 7), 0.5, "a")
        g2 = random_graph(rng, rng.randint(2, 7), 0.5, "b")
        assert clique_number(union(g1, g2)) == max(clique_number(g1), clique_number(g2))


def _overlapping_pairs_on(names):
    """Every pair of graphs over the given shared vertex names."""
    slots = list(combinations(names, 2))
    for mask1 in range(1 << len(slots)):
        e1 = [slots[i] for i in range(len(slots)) if mask1 >> i & 1]
        if not e1:
            continue
        g1 = Graph(names, e1)
        for mask2 in range(1 << len(slots)):
            e2 = [slots[i] for i in range(len(slots)) if mask2 >> i & 1]
            if not e2:
                continue
            yield g1, Graph(names, e2)


def test_overlapping_union_kappa_lower_bound_exhaustive():
    for g1, g2 in _overlapping_pairs_on(("q0", "q1", "q2", "q3")):
        assert clique_number(union(g1, g2)) >= max(clique_number(g1), clique_number(g2))


def test_union_equality_under_triangle_free_intersection():
    """The claimed equality, exercised exhaustively over all graph pairs on
    four shared vertices.  Counterexamples are reported via xfail, and
    their number is pinned, so the record cannot vanish unnoticed."""
    counterexamples = []
    for g1, g2 in _overlapping_pairs_on(("q0", "q1", "q2", "q3")):
        if not is_triangle_free(intersection(g1, g2)):
            continue
        merged = clique_number(union(g1, g2))
        bound = max(clique_number(g1), clique_number(g2))
        if merged != bound:
            counterexamples.append((g1, g2, merged, bound))
    assert len(counterexamples) == 1358
    g1, g2, merged, bound = counterexamples[0]
    pytest.xfail(
        f"equality fails on {len(counterexamples)} of the scanned pairs; first: "
        f"E1={sorted(g1.edges)} E2={sorted(g2.edges)} give union clique {merged} > {bound} "
        f"with a triangle-free (here even edgeless) intersection"
    )


def test_union_equality_claim_pinned_counterexample():
    """Smallest shape of the failure: a path through a and the edge closing
    the triangle live in different operands, their intersection carries no
    edge, yet the union is a triangle."""
    g1 = Graph(["a", "b", "c"], [("a", "b"), ("a", "c")])
    g2 = Graph(["b", "c"], [("b", "c")])
    inter = intersection(g1, g2)
    assert inter.vertices == {"b", "c"} and not inter.edges
    assert is_triangle_free(inter)
    assert clique_number(g1) == 2 and clique_number(g2) == 2
    assert clique_number(union(g1, g2)) == 3  # strictly above the claimed equality
