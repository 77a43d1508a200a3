"""The bitmask enumeration behind `min_max_chain` and `exists_concurrent`
against naive permutation scans, the automorphism orbits it sweeps one
labeling of (on graphs rich in twins and on graphs whose symmetries are not
twin swaps), and minchain checkpoints across the mirror pairing of
partitions."""

import json
import math
import random
from functools import cache
from itertools import permutations

import pytest
from helpers import (
    automorphisms,
    connected_atlas,
    naive_concurrent,
    naive_min_max_chain,
    random_graph,
    reference_chain_extension,
    stabiliser_orbits,
    strong_labelings,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import iasi.oracle as oraclemod
from iasi import (
    Graph,
    OracleConfig,
    chain_report,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    exists_concurrent,
    min_max_chain,
    path_graph,
    star_graph,
    write_graph,
)
from iasi.cli import main


def _minchain(g, cfg):
    result = min_max_chain(g, cfg)
    return result.value, result.strong_count, result.witness


def _order(g: Graph) -> list[str]:
    """The order the oracle sweeps g in, which its witnesses are first in."""
    return oraclemod._search_order(g, g.sorted_vertices())


@pytest.mark.parametrize("universe_max", [3, 4, 5])
@pytest.mark.parametrize("cards", [1, 2, 3])
def test_minchain_matches_the_naive_scan_on_the_atlas(universe_max, cards):
    cfg = OracleConfig(universe_max=universe_max, min_card=cards, max_card=cards)
    for g in connected_atlas(2, 4):
        assert _minchain(g, cfg) == naive_min_max_chain(g, cfg, _order(g)), write_graph(g)


def test_minchain_chain_cache_that_starts_over_changes_nothing(monkeypatch):
    cfg = OracleConfig(universe_max=5)
    for g in connected_atlas(4, 4):
        kept = _minchain(g, cfg)
        monkeypatch.setattr(oraclemod, "CHAIN_CACHE_LIMIT", 1)
        assert _minchain(g, cfg) == kept
        monkeypatch.undo()


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 5),
    p=st.sampled_from([0.3, 0.6, 0.9]),
    universe_max=st.integers(2, 4),
    cards=st.integers(1, 3),
)
def test_minchain_matches_the_naive_scan_on_random_graphs(seed, n, p, universe_max, cards):
    g = random_graph(random.Random(seed), n, p)
    cfg = OracleConfig(universe_max=universe_max, min_card=cards, max_card=cards)
    assert _minchain(g, cfg) == naive_min_max_chain(g, cfg, _order(g))


@cache
def _space(universe_max: int, max_card: int):
    return oraclemod._Space(OracleConfig(universe_max=universe_max, min_card=1, max_card=max_card))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), universe_max=st.integers(2, 7), max_card=st.integers(1, 3))
def test_chain_extension_matches_the_subset_scan(data, universe_max, max_card):
    # Cards from 1 put singletons, which carry no difference, among the labels.
    space = _space(universe_max, max_card)
    picked = data.draw(
        st.lists(st.integers(0, len(space.labels) - 1), max_size=5, unique=True)
    )
    used = sum(1 << i for i in picked)
    assert oraclemod._chain_extension(space, used) == reference_chain_extension(space, used)


# ---------------------------------------------------------------------------
# automorphism orbits
# ---------------------------------------------------------------------------

DIAMOND = Graph("abcd", [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("c", "d")])
# A triangle b, c, d with a horn on b (a) and one on d (e): its one symmetry
# swaps the horns, which are not twins.
BULL = Graph("abcde", [("a", "b"), ("b", "c"), ("b", "d"), ("c", "d"), ("d", "e")])


def _reversed(g: Graph) -> Graph:
    """g with its names' sorted order reversed, so another vertex is vertex 0."""
    verts = g.sorted_vertices()
    return g.relabel({v: f"r{len(verts) - k}" for k, v in enumerate(verts)})


def _first(g: Graph, v: str) -> Graph:
    """g with `v` renamed so that it is vertex 0."""
    return g.relabel(lambda u: "a" if u == v else u)


def test_orbits_are_the_stabiliser_chain_on_the_atlas():
    for g in connected_atlas(1, 6):
        for named in (g, _reversed(g)):
            found = oraclemod._orbits(named, named.sorted_vertices())
            assert found == stabiliser_orbits(named), write_graph(named)
            assert math.prod(1 + len(orbit) for orbit in found) == len(automorphisms(named))


# (graph, orbit[k] for each sorted-vertex position k, |Aut|).  Each graph
# comes named twice.  In a star the centre is vertex 0, or a leaf is.  In
# K2,3 vertex 0 is in the part of two or of three, and in the diamond among
# the true twins (degree 3) or the false ones.  K4 and C4 look the same from
# every vertex.
TWIN_GRAPHS = {
    "k4": (complete_graph(4), [[1, 2, 3], [2, 3], [3], []], 24),
    "k4-reversed": (_reversed(complete_graph(4)), [[1, 2, 3], [2, 3], [3], []], 24),
    "k13-centre-first": (star_graph(3), [[], [2, 3], [3], []], 6),
    "k13-leaf-first": (_reversed(star_graph(3)), [[1, 2], [2], [], []], 6),
    "k14-centre-first": (star_graph(4), [[], [2, 3, 4], [3, 4], [4], []], 24),
    "k14-leaf-first": (_reversed(star_graph(4)), [[1, 2, 3], [2, 3], [3], [], []], 24),
    "k23-pair-first": (complete_bipartite_graph(2, 3), [[1], [], [3, 4], [4], []], 12),
    "k23-triple-first": (_reversed(complete_bipartite_graph(2, 3)), [[1, 2], [2], [], [4], []], 12),
    "diamond-true-twin-first": (DIAMOND, [[2], [3], [], []], 4),
    "diamond-false-twin-first": (_reversed(DIAMOND), [[2], [3], [], []], 4),
    "c4": (cycle_graph(4), [[1, 2, 3], [3], [], []], 8),
    "c4-reversed": (_reversed(cycle_graph(4)), [[1, 2, 3], [3], [], []], 8),
}


@pytest.mark.parametrize("name", TWIN_GRAPHS)
def test_orbits_of_graphs_rich_in_twins(name):
    g, orbits, order = TWIN_GRAPHS[name]
    assert oraclemod._orbits(g, g.sorted_vertices()) == orbits == stabiliser_orbits(g)
    assert len(automorphisms(g)) == order


# Graphs whose symmetries are not twin swaps, with their orbits: C5's
# rotations and reflections, the bull's swap of its horns (vertex 0 a horn),
# and P4's reflection with an end or a middle vertex as vertex 0.
SYMMETRIC_GRAPHS = {
    "c5": (cycle_graph(5), [[1, 2, 3, 4], [4], [], [], []]),
    "bull": (BULL, [[4], [], [], [], []]),
    "p4-end-first": (path_graph(4), [[3], [], [], []]),
    "p4-middle-first": (_first(path_graph(4), "v1"), [[2], [], [], []]),
}


@pytest.mark.parametrize("name", SYMMETRIC_GRAPHS)
def test_orbits_of_symmetries_that_are_not_twin_swaps(name):
    g, orbits = SYMMETRIC_GRAPHS[name]
    assert oraclemod._orbits(g, g.sorted_vertices()) == orbits == stabiliser_orbits(g)


# ---------------------------------------------------------------------------
# the search order
# ---------------------------------------------------------------------------

def _sweep_totals(g: Graph, order: list[str], space) -> tuple[int, int]:
    """(weighted count, least chain) of `_sweep` over g's labelings placed
    in `order`, each leaf's chain from the subset scan."""
    count, least = 0, len(order)

    def leaf(assign, used, mask, weighted):
        nonlocal count, least
        count += weighted
        c, up = reference_chain_extension(space, used)
        least = min(least, c if mask & ~up else c + 1)

    for _ in oraclemod._sweep(space, order, (g,), leaf):
        pass
    return count, least


def test_sweep_answers_do_not_depend_on_the_vertex_order():
    # Each edge is checked at the later of its ends in the order, whatever
    # their names.
    space = oraclemod._Space(OracleConfig(universe_max=5))
    for g in connected_atlas(4, 4):
        verts = g.sorted_vertices()
        expected = _sweep_totals(g, verts, space)
        assert expected[0] > 0
        for order in permutations(verts):
            assert _sweep_totals(g, list(order), space) == expected, (write_graph(g), order)


def _symmetry_breaking(g: Graph, order: list[str]) -> tuple[int, int]:
    """(F, E) of a sweep order: F = the product of 1 + |orbit[k] - {n-1}|,
    how much the orbit rules prune before the last vertex, whose candidates
    are counted in bulk, and E the edges among the vertices before it."""
    last = len(order) - 1
    f = math.prod(1 + len(set(orbit) - {last}) for orbit in stabiliser_orbits(g, order))
    front = set(order[:last])
    return f, sum(u in front and v in front for u, v in g.edges)


def test_search_order_breaks_the_most_symmetry_before_the_last_vertex():
    # Over every order, the greatest F predicts the fewest leaves, and among
    # those the greatest E.  One round of colour refinement reaches the
    # greatest F on every connected graph with 3-5 vertices, and the
    # greatest (F, E) with 4.
    for g in connected_atlas(3, 5):
        for named in (g, _reversed(g)):
            verts = named.sorted_vertices()
            order = oraclemod._search_order(named, verts)
            assert sorted(order) == verts
            best = max(_symmetry_breaking(named, list(p)) for p in permutations(verts))
            got = _symmetry_breaking(named, order)
            assert got[0] == best[0], (write_graph(named), order)
            if len(verts) == 4:
                assert got == best, (write_graph(named), order)


# Namings whose sorted order puts the symmetry late or nowhere, so the sweep
# runs in another order, which its witness is first in: P4 with an end
# first (its orbit-mate last), the paw with its pendant vertex first (fixed
# by Aut), K1,3 with its centre first (fixed too) and C5.
BAD_NAMINGS = {
    "p4": Graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")]),
    "paw": Graph("abcd", [("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]),
    "k13-centre-first": star_graph(3),
    "c5": cycle_graph(5),
}


def _small_spaces(g: Graph) -> list[tuple[int, int]]:
    """(universe_max, cards) pairs a permutation scan of g finishes soon:
    that of 5 vertices over the 15 labels of U 0..5 is slow."""
    return [(4, 1), (4, 2)] + [(5, 2)] * (len(g.vertices) == 4)


SYMMETRIC_SPACES = [
    (name, universe_max, cards)
    for name, (g, _) in SYMMETRIC_GRAPHS.items()
    for universe_max, cards in _small_spaces(g)
]


@pytest.mark.parametrize("name, universe_max, cards", SYMMETRIC_SPACES)
def test_minchain_matches_the_naive_scan_on_symmetries_that_are_not_twin_swaps(
    name, universe_max, cards
):
    g = SYMMETRIC_GRAPHS[name][0]
    cfg = OracleConfig(universe_max=universe_max, min_card=cards, max_card=cards)
    value, count, witness = _minchain(g, cfg)
    assert count > 0
    assert (value, count, witness) == naive_min_max_chain(g, cfg, _order(g))


@pytest.mark.parametrize("name, universe_max, cards", SYMMETRIC_SPACES)
def test_concurrent_matches_the_naive_scan_on_symmetries_that_are_not_twin_swaps(
    name, universe_max, cards
):
    # C5, the bull and P4 are each isomorphic to their complements.
    g = SYMMETRIC_GRAPHS[name][0]
    cfg = OracleConfig(universe_max=universe_max, min_card=cards, max_card=cards)
    result = exists_concurrent(g, cfg)
    assert (result.witnesses_found, result.witness) == naive_concurrent(g, cfg, _order(g))


@pytest.mark.parametrize(
    "name, universe_max, cards",
    [
        (name, universe_max, cards)
        for name, (g, _, _) in TWIN_GRAPHS.items()
        for universe_max, cards in _small_spaces(g)
    ],
)
def test_minchain_matches_the_naive_scan_on_twin_graphs(name, universe_max, cards):
    g = TWIN_GRAPHS[name][0]
    cfg = OracleConfig(universe_max=universe_max, min_card=cards, max_card=cards)
    assert _minchain(g, cfg) == naive_min_max_chain(g, cfg, _order(g))


@pytest.mark.parametrize(
    "name, universe_max, cards",
    [
        (name, universe_max, cards)
        for name, g in BAD_NAMINGS.items()
        for universe_max, cards in _small_spaces(g)
    ],
)
def test_minchain_matches_the_naive_scan_on_bad_namings(name, universe_max, cards):
    g = BAD_NAMINGS[name]
    verts = g.sorted_vertices()
    assert oraclemod._search_order(g, verts) != verts
    cfg = OracleConfig(universe_max=universe_max, min_card=cards, max_card=cards)
    assert _minchain(g, cfg) == naive_min_max_chain(g, cfg, _order(g))


def _leaf_calls(monkeypatch, search, *args):
    """(leaf calls of the sweeps it makes, result) of `search(*args)`."""
    calls = 0
    real = oraclemod._sweep

    def counting(space, verts, graphs, leaf, start=0):
        def counted(*leaf_args):
            nonlocal calls
            calls += 1
            leaf(*leaf_args)

        return real(space, verts, graphs, counted, start)

    with monkeypatch.context() as patched:
        patched.setattr(oraclemod, "_sweep", counting)
        result = search(*args)
    return calls, result


def test_minchain_on_a_badly_named_p4_takes_half_the_leaves_of_the_sorted_sweep(monkeypatch):
    g, cfg = BAD_NAMINGS["p4"], OracleConfig(universe_max=7)
    space = oraclemod._Space(cfg)

    def sorted_sweep():
        for _ in oraclemod._sweep(space, g.sorted_vertices(), (g,), lambda *args: None):
            pass

    # P4's reflection acts on the last vertex alone
    assert _leaf_calls(monkeypatch, sorted_sweep)[0] == 7544
    assert _leaf_calls(monkeypatch, min_max_chain, g, cfg)[0] <= 7544 // 2


@pytest.mark.parametrize("g, leaves", [(path_graph(4), 1139), (cycle_graph(4), 369)], ids=["p4", "c4"])
def test_concurrent_sweeps_every_naming_of_a_graph_alike(monkeypatch, g, leaves):
    # The search order follows the graph, not its names, so each of the 24
    # namings takes as many leaves to the same count.
    cfg = OracleConfig(universe_max=6)
    for names in permutations("abcd"):
        named = g.relabel(dict(zip(g.sorted_vertices(), names)))
        calls, result = _leaf_calls(monkeypatch, exists_concurrent, named, cfg)
        assert calls == leaves, names
        assert (result.witnesses_found, result.all_witnesses_pairwise_disjoint) == (38976, True)


@pytest.mark.parametrize("g", [path_graph(4), cycle_graph(4)], ids=["p4", "c4"])
@pytest.mark.parametrize("universe_max, cards", [(4, 1), (5, 2), (6, 2)])
def test_concurrent_matches_the_naive_scan(g, universe_max, cards):
    cfg = OracleConfig(universe_max=universe_max, min_card=cards, max_card=cards)
    result = exists_concurrent(g, cfg)
    assert (result.witnesses_found, result.witness) == naive_concurrent(g, cfg, _order(g))
    assert result.exists == (result.witness is not None)


# Graphs whose complements have no isolated vertex, beside P4 and C4 as
# path_graph and cycle_graph name them: C4 and K2,3 are rich in twins (of the
# complement too), and P4, which has none, comes with each other vertex as
# vertex 0.
CONCURRENT_GRAPHS = {
    **{n: TWIN_GRAPHS[n][0] for n in ("c4-reversed", "k23-pair-first", "k23-triple-first")},
    **{f"p4-v{k}-first": _first(path_graph(4), f"v{k}") for k in (1, 2, 3)},
}


@pytest.mark.parametrize(
    "name, universe_max, cards",
    [
        (name, universe_max, cards)
        for name, g in CONCURRENT_GRAPHS.items()
        # The permutation scan of 5 vertices over the 15 labels of U 0..5 is slow.
        for universe_max, cards in (
            [(4, 1), (5, 2)] if len(g.vertices) == 4 else [(5, 1), (6, 1)]
        )
    ],
)
def test_concurrent_matches_the_naive_scan_whichever_vertex_comes_first(name, universe_max, cards):
    g = CONCURRENT_GRAPHS[name]
    cfg = OracleConfig(universe_max=universe_max, min_card=cards, max_card=cards)
    result = exists_concurrent(g, cfg)
    assert (result.witnesses_found, result.witness) == naive_concurrent(g, cfg, _order(g))
    assert result.witnesses_found > 0


@pytest.mark.parametrize("g", [path_graph(4), cycle_graph(4)], ids=["p4", "c4"])
def test_concurrent_names_the_first_non_disjoint_witness(monkeypatch, g):
    # Make the disjointness rows say that the first witness's first two
    # labels share a difference.  Both sit in the partial labeling, not in
    # the last vertex's mask, and the first witness itself is reported.
    # In C4 every vertex is in vertex 0's orbit.
    cfg = OracleConfig(universe_max=5)
    labels = cfg.candidate_labels()
    order = _order(g)
    naive = list(strong_labelings(g, labels, (g, oraclemod.complement(g)), order))
    pair = {naive[0][order[0]], naive[0][order[1]]}
    i, j = (labels.index(s) for s in pair)
    real = oraclemod._Space

    def lying(*args, **kw):
        space = real(*args, **kw)
        space.ddisjoint[i] &= ~(1 << j)
        space.ddisjoint[j] &= ~(1 << i)
        return space

    monkeypatch.setattr(oraclemod, "_Space", lying)
    result = exists_concurrent(g, cfg)
    assert not result.all_witnesses_pairwise_disjoint
    assert result.disjointness_counterexample == naive[0]
    assert result.witnesses_found == len(naive)


def test_mirror_is_the_reflection_and_an_involution():
    cfg = OracleConfig(universe_max=5, min_card=1, max_card=6)
    space = oraclemod._Space(cfg)
    for i, label in enumerate(space.labels):
        j = space.mirror[i]
        assert sorted(5 - x for x in label) == list(space.labels[j])
        assert space.mirror[j] == i


# ---------------------------------------------------------------------------
# checkpoints across the pairing
# ---------------------------------------------------------------------------

def _killed_and_resumed(g, cfg, killed_after, tmp_path, monkeypatch):
    """Kill a checkpointed sweep after `killed_after` complete writes, check
    the file holds the last of them, and return the resumed result."""
    real = oraclemod._write_checkpoint
    written = []
    monkeypatch.setenv("IASI_ORACLE_CHECKPOINT_DIR", str(tmp_path))
    monkeypatch.setattr(oraclemod, "CHECKPOINT_INTERVAL_S", 0)

    def dying(path, state):
        if len(written) == killed_after:
            raise RuntimeError("killed")
        written.append(state)
        real(path, state)

    monkeypatch.setattr(oraclemod, "_write_checkpoint", dying)
    with pytest.raises(RuntimeError, match="killed"):
        min_max_chain(g, cfg)
    monkeypatch.setattr(oraclemod, "_write_checkpoint", real)
    (path,) = tmp_path.iterdir()
    state = json.loads(path.read_text())
    assert state == written[-1]
    assert 0 < state["next"] < len(cfg.candidate_labels())
    return _minchain(g, cfg)


@pytest.mark.parametrize("killed_after", [1, 3, 6])
def test_minchain_killed_mid_sweep_resumes_to_the_same_result(tmp_path, monkeypatch, killed_after):
    g, cfg = path_graph(4), OracleConfig(universe_max=5)
    clean = _minchain(g, cfg)
    assert _killed_and_resumed(g, cfg, killed_after, tmp_path, monkeypatch) == clean


@pytest.mark.parametrize("name", ["k13-leaf-first", "diamond-false-twin-first"])
@pytest.mark.parametrize("killed_after", [1, 4])
def test_minchain_on_a_twin_graph_resumed_mid_sweep_gives_the_uninterrupted_result(
    tmp_path, monkeypatch, name, killed_after
):
    g, cfg = TWIN_GRAPHS[name][0], OracleConfig(universe_max=5)
    assert _killed_and_resumed(g, cfg, killed_after, tmp_path, monkeypatch) == naive_min_max_chain(
        g, cfg, _order(g)
    )


@pytest.mark.parametrize("killed_after", [1, 4])
def test_minchain_on_c5_resumed_mid_sweep_gives_the_uninterrupted_result(
    tmp_path, monkeypatch, killed_after
):
    # Vertex 0's orbit is every vertex, so partitions hold ties.
    g, cfg = cycle_graph(5), OracleConfig(universe_max=5)
    clean = _minchain(g, cfg)
    assert _killed_and_resumed(g, cfg, killed_after, tmp_path, monkeypatch) == clean


@pytest.mark.parametrize("killed_after", [1, 4])
def test_minchain_on_the_paw_resumed_mid_sweep_gives_the_uninterrupted_result(
    tmp_path, monkeypatch, killed_after
):
    # Partitions are labels on the orbit of the search order's vertex 0, and
    # the witness is written in the search order, which it is first in.
    g, cfg = BAD_NAMINGS["paw"], OracleConfig(universe_max=5)
    clean = _minchain(g, cfg)
    assert _killed_and_resumed(g, cfg, killed_after, tmp_path, monkeypatch) == clean


def test_minchain_checkpoints_at_most_once_a_second_and_at_the_end(tmp_path, monkeypatch):
    g, cfg = path_graph(4), OracleConfig(universe_max=7)
    clean = _minchain(g, cfg)
    real = oraclemod._write_checkpoint
    written = []

    def counting(path, state):
        written.append(state)
        real(path, state)

    monkeypatch.setattr(oraclemod, "_write_checkpoint", counting)
    monkeypatch.setenv("IASI_ORACLE_CHECKPOINT_DIR", str(tmp_path))
    assert _minchain(g, cfg) == clean
    assert 1 <= len(written) <= 2
    # The last write leaves no partition to sweep: each is below `next` or
    # its mirror is.
    start = written[-1]["next"]
    assert all(min(i, m) < start for i, m in enumerate(oraclemod._Space(cfg).mirror))
    # Resumed from it, the run sweeps and writes nothing.
    writes = len(written)
    assert _leaf_calls(monkeypatch, _minchain, g, cfg) == (0, clean)
    assert len(written) == writes


def test_checkpoint_of_a_prefix_of_the_sweep_resumes_to_the_same_result(tmp_path, monkeypatch):
    # A checkpoint with `next` = 4 counts partitions 0..3 and their mirrors:
    # its strong labelings and the best so far are those of the labelings
    # whose least min(i, mirror i) over the labels on the orbit of the search
    # order's vertex 0 (the paw's two vertices of degree 2) is below 4.
    # Resumed from it, the sweep gives the uninterrupted answer.
    monkeypatch.setenv("IASI_ORACLE_CHECKPOINT_DIR", str(tmp_path))
    g, cfg = BAD_NAMINGS["paw"], OracleConfig(universe_max=5)
    clean = _minchain(g, cfg)
    (path,) = tmp_path.iterdir()
    labels = cfg.candidate_labels()
    order = _order(g)
    orbit = [order[0]] + [order[w] for w in stabiliser_orbits(g, order)[0]]
    assert sorted(orbit) == ["b", "c"]
    mirror = oraclemod._Space(cfg).mirror
    start = 4
    assert any(mirror[i] >= start for i in range(start))

    def partition(f, orbit) -> int:
        return min(min(i, mirror[i]) for i in (labels.index(f[v]) for v in orbit))

    scanned = list(strong_labelings(g, labels, (g,), order))
    counted = [f for f in scanned if partition(f, orbit) < start]
    # Partitions by sorted vertex 0's orbit, the pendant vertex alone, as
    # checkpoints of versions 1 and 2 counted, differ.
    assert len(counted) != sum(partition(f, ["a"]) < start for f in scanned)
    chains = [chain_report(g, f).max_chain_length for f in counted]
    best = min(chains)
    witness = counted[chains.index(best)]
    state = json.loads(path.read_text())
    del state["digest"]
    state.update(
        next=start,
        best=best,
        witness=[labels.index(witness[v]) for v in order],
        strong_count=len(counted),
    )
    path.write_text(json.dumps({**state, "digest": oraclemod._digest(state)}))
    assert _minchain(g, cfg) == clean


def test_checkpoint_of_another_version_exits_two_naming_the_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("IASI_ORACLE_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
    gp = tmp_path / "p3.g"
    gp.write_text(write_graph(path_graph(3)))
    argv = ["oracle", "minchain", str(gp), "--max", "4"]
    assert main(argv) == 0
    (path,) = (tmp_path / "ckpt").iterdir()
    state = json.loads(path.read_text())
    state["version"] = oraclemod.CHECKPOINT_VERSION + 1
    path.write_text(json.dumps(state))
    capsys.readouterr()
    assert main(argv) == 2
    assert str(path) in capsys.readouterr().err
