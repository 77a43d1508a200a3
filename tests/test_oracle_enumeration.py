"""The bitmask enumeration behind `min_max_chain` and `exists_concurrent`
against naive permutation scans, twin-sorted enumeration on graphs rich in
twins, and minchain checkpoints across the mirror pairing of partitions."""

import json
import math
import random
from functools import cache

import pytest
from helpers import (
    connected_atlas,
    naive_concurrent,
    naive_min_max_chain,
    random_graph,
    reference_chain_extension,
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


@pytest.mark.parametrize("universe_max", [3, 4, 5])
@pytest.mark.parametrize("cards", [1, 2, 3])
def test_minchain_matches_the_naive_scan_on_the_atlas(universe_max, cards):
    cfg = OracleConfig(universe_max=universe_max, min_card=cards, max_card=cards)
    for g in connected_atlas(2, 4):
        assert _minchain(g, cfg) == naive_min_max_chain(g, cfg), write_graph(g)


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
    assert _minchain(g, cfg) == naive_min_max_chain(g, cfg)


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
# twin classes
# ---------------------------------------------------------------------------

DIAMOND = Graph("abcd", [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("c", "d")])


def _reversed(g: Graph) -> Graph:
    """g with its names' sorted order reversed, so another vertex is vertex 0."""
    verts = g.sorted_vertices()
    return g.relabel({v: f"r{len(verts) - k}" for k, v in enumerate(verts)})


# (graph, twin classes among vertices 1..n-1, product of their factorials).
# Each graph comes named twice.  In a star the centre is vertex 0, which has
# no twin, or a leaf is.  In K2,3 vertex 0 is in the part of two or of
# three, and in the diamond among the true twins (degree 3) or the false
# ones.  K4 and C4 look the same from every vertex.
TWIN_GRAPHS = {
    "k4": (complete_graph(4), [[1, 2, 3]], 6),
    "k4-reversed": (_reversed(complete_graph(4)), [[1, 2, 3]], 6),
    "k13-centre-first": (star_graph(3), [[1, 2, 3]], 6),
    "k13-leaf-first": (_reversed(star_graph(3)), [[1, 2]], 2),
    "k14-centre-first": (star_graph(4), [[1, 2, 3, 4]], 24),
    "k14-leaf-first": (_reversed(star_graph(4)), [[1, 2, 3]], 6),
    "k23-pair-first": (complete_bipartite_graph(2, 3), [[2, 3, 4]], 6),
    "k23-triple-first": (_reversed(complete_bipartite_graph(2, 3)), [[1, 2], [3, 4]], 4),
    "diamond-true-twin-first": (DIAMOND, [[1, 3]], 2),
    "diamond-false-twin-first": (_reversed(DIAMOND), [[1, 3]], 2),
    "c4": (cycle_graph(4), [[1, 3]], 2),
    "c4-reversed": (_reversed(cycle_graph(4)), [[1, 3]], 2),
}


@pytest.mark.parametrize("name", TWIN_GRAPHS)
def test_twin_classes_leave_vertex_zero_out(name):
    g, classes, orbit = TWIN_GRAPHS[name]
    found = oraclemod._twin_classes(g, g.sorted_vertices())
    assert sorted(found) == classes
    assert math.prod(math.factorial(len(c)) for c in found) == orbit


@pytest.mark.parametrize(
    "name, universe_max, cards",
    [
        (name, universe_max, cards)
        for name, (g, _, _) in TWIN_GRAPHS.items()
        # The permutation scan of 5 vertices over the 15 labels of U 0..5 is slow.
        for universe_max, cards in [(4, 1), (4, 2)] + [(5, 2)] * (len(g.vertices) == 4)
    ],
)
def test_minchain_matches_the_naive_scan_on_twin_graphs(name, universe_max, cards):
    g = TWIN_GRAPHS[name][0]
    cfg = OracleConfig(universe_max=universe_max, min_card=cards, max_card=cards)
    assert _minchain(g, cfg) == naive_min_max_chain(g, cfg)


@pytest.mark.parametrize("g", [path_graph(4), cycle_graph(4)], ids=["p4", "c4"])
@pytest.mark.parametrize("universe_max, cards", [(4, 1), (5, 2), (6, 2)])
def test_concurrent_matches_the_naive_scan(g, universe_max, cards):
    cfg = OracleConfig(universe_max=universe_max, min_card=cards, max_card=cards)
    result = exists_concurrent(g, cfg)
    assert (result.witnesses_found, result.witness) == naive_concurrent(g, cfg)
    assert result.exists == (result.witness is not None)


def _first(g: Graph, v: str) -> Graph:
    """g with `v` renamed so that it is vertex 0."""
    return g.relabel(lambda u: "a" if u == v else u)


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
    assert (result.witnesses_found, result.witness) == naive_concurrent(g, cfg)
    assert result.witnesses_found > 0


@pytest.mark.parametrize("g", [path_graph(4), cycle_graph(4)], ids=["p4", "c4"])
def test_concurrent_names_the_first_non_disjoint_witness(monkeypatch, g):
    # Make the disjointness rows say that the first witness's first two
    # labels share a difference.  Both sit in the partial labeling, not in
    # the last vertex's mask, and the first witness itself is reported.
    # In C4, vertices 1 and 3 are twins.
    cfg = OracleConfig(universe_max=5)
    labels = cfg.candidate_labels()
    naive = list(strong_labelings(g, labels, (g, oraclemod.complement(g))))
    pair = {naive[0]["v0"], naive[0]["v1"]}
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
    assert 0 < len(state["done"]) < len(cfg.candidate_labels())
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
        g, cfg
    )


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
    assert len(written[-1]["done"]) == len(cfg.candidate_labels())
    assert _minchain(g, cfg) == clean
    assert len(written) <= 2


def test_checkpoint_of_an_unpaired_sweep_resumes_to_the_same_result(tmp_path, monkeypatch):
    # A sweep that counts each partition on its own records the same facts
    # (the partitions counted, their strong labelings, the best so far), so
    # resuming from one, some of whose partitions' mirrors are not yet
    # counted, gives the same answer.
    monkeypatch.setenv("IASI_ORACLE_CHECKPOINT_DIR", str(tmp_path))
    g, cfg = path_graph(3), OracleConfig(universe_max=5)
    clean = _minchain(g, cfg)
    (path,) = tmp_path.iterdir()
    labels = cfg.candidate_labels()
    verts = g.sorted_vertices()
    swept = 4
    assert any(oraclemod._Space(cfg).mirror[i] >= swept for i in range(swept))
    counted = [f for f in strong_labelings(g, labels, (g,)) if labels.index(f[verts[0]]) < swept]
    chains = [chain_report(g, f).max_chain_length for f in counted]
    best = min(chains)
    witness = counted[chains.index(best)]
    state = json.loads(path.read_text())
    state.update(
        done=list(range(swept)),
        best=best,
        witness=[labels.index(witness[v]) for v in verts],
        strong_count=len(counted),
    )
    path.write_text(json.dumps(state))
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
