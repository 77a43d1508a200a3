import hashlib
import json

import pytest

from iasi import (
    ChainReport,
    Graph,
    OracleConfig,
    VerificationReport,
    chain_report,
    complete_graph,
    cycle_graph,
    exists_concurrent,
    lemma_oracle,
    min_max_chain,
    path_graph,
    read_graph,
    read_labeling,
    verify,
    write_graph,
)
import iasi.oracle as oraclemod
from iasi.cli import main
from iasi.errors import InternalCheckError, to_json


K2 = Graph(["a", "b"], [("a", "b")])


# ---------------------------------------------------------------------------
# lemma sweep
# ---------------------------------------------------------------------------

def test_lemma_small_universes_agree():
    for u in (3, 6):
        check = lemma_oracle(u)
        assert check.ok and check.counterexample is None
        assert check.pairs_checked == ((1 << (u + 1)) - 1) ** 2


def test_lemma_refuses_large_universe():
    with pytest.raises(ValueError):
        lemma_oracle(11)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(min_card=3, max_card=2)
    with pytest.raises(ValueError):
        OracleConfig(universe_max=2, max_card=5)
    with pytest.raises(ValueError):
        OracleConfig(min_card=0)
    with pytest.raises(ValueError, match="exhaustive limit"):
        OracleConfig(universe_max=11)
    assert OracleConfig(universe_max=10).universe_max == 10


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: OracleConfig(vertex_limit=0), "vertex_limit must be positive", id="vertex-limit-0"),
        pytest.param(lambda: min_max_chain(Graph([]), OracleConfig()), "empty graph", id="minchain-empty"),
        pytest.param(lambda: exists_concurrent(Graph([]), OracleConfig()), "empty graph",
                     id="concurrent-empty"),
    ],
)
def test_oracle_refuses(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_candidate_labels_order_and_count():
    cfg = OracleConfig(universe_max=3, min_card=2, max_card=2)
    labels = cfg.candidate_labels()
    assert len(labels) == 6
    assert [s.elements for s in labels[:3]] == [(0, 1), (0, 2), (1, 2)]


# ---------------------------------------------------------------------------
# definitional nourishing number
# ---------------------------------------------------------------------------

def test_minchain_k2():
    result = min_max_chain(K2, OracleConfig(universe_max=6))
    assert not result.exhausted and result.value == 2


def test_minchain_p3():
    result = min_max_chain(path_graph(3), OracleConfig(universe_max=6))
    assert result.value == 2
    assert verify(path_graph(3), result.witness).is_strong


def test_minchain_k3():
    result = min_max_chain(complete_graph(3), OracleConfig(universe_max=6))
    assert result.value == 3
    assert chain_report(complete_graph(3), result.witness).max_chain_length == 3


def test_minchain_exhausted_space():
    # only one 3-element subset of {0,1,2} exists, so no injective labeling
    result = min_max_chain(K2, OracleConfig(universe_max=2, min_card=3, max_card=3))
    assert result.exhausted and result.value is None and result.witness is None


def test_minchain_vertex_limit():
    with pytest.raises(ValueError):
        min_max_chain(cycle_graph(6), OracleConfig(universe_max=6))


def test_minchain_matches_clique_number_small_universe():
    # pairs of 2-element labels from {0..6} already suffice to hit the
    # clique number on every connected graph with at most 4 vertices
    from helpers import connected_atlas
    from iasi import clique_number

    cfg = OracleConfig(universe_max=6, vertex_limit=4)
    for g in connected_atlas(2, 4):
        result = min_max_chain(g, cfg)
        assert not result.exhausted
        assert result.value == clique_number(g)


def test_minchain_witness_satisfies_heredity():
    import random

    from helpers import random_induced_subgraph, restricted

    rng = random.Random(47)
    for g in (path_graph(4), cycle_graph(4), complete_graph(4)):
        witness = min_max_chain(g, OracleConfig(universe_max=6)).witness
        for _ in range(5):
            sub = random_induced_subgraph(rng, g)
            if sub is not None:
                assert verify(sub, restricted(witness, sub.vertices)).is_strong


def test_minchain_invariant_under_relabeling():
    g = path_graph(4)
    renamed = g.relabel({"v0": "z9", "v1": "q1", "v2": "a7", "v3": "m3"})
    cfg = OracleConfig(universe_max=5)
    assert min_max_chain(g, cfg).value == min_max_chain(renamed, cfg).value


def _not_strong(real):
    return lambda g, f: VerificationReport(**{**real(g, f).to_dict(), "is_strong": False})


def _longer_chain(real):
    def broken(g, f):
        report = real(g, f)
        return ChainReport(**{**report.to_dict(), "max_chain_length": report.max_chain_length + 1})

    return broken


@pytest.mark.parametrize("target, broken", [("verify", _not_strong), ("chain_report", _longer_chain)])
def test_minchain_re_anchor_fires_when_the_reference_disagrees(
    tmp_path, monkeypatch, capsys, target, broken
):
    monkeypatch.setattr(oraclemod, target, broken(getattr(oraclemod, target)))
    with pytest.raises(InternalCheckError, match="by verify and chain_report"):
        min_max_chain(path_graph(3), OracleConfig(universe_max=4))
    (tmp_path / "p3.g").write_text(write_graph(path_graph(3)))
    assert main(["oracle", "minchain", "--max", "4", str(tmp_path / "p3.g")]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("internal error:") and not captured.out


def test_minchain_checkpoint_resume(tmp_path, monkeypatch):
    monkeypatch.setenv("IASI_ORACLE_CHECKPOINT_DIR", str(tmp_path))
    g = path_graph(3)
    cfg = OracleConfig(universe_max=5)
    first = min_max_chain(g, cfg)
    files = list(tmp_path.glob("minchain-*.json"))
    assert len(files) == 1
    state = json.loads(files[0].read_text())
    # every partition is below the next one to sweep, or its mirror is
    mirror = oraclemod._Space(cfg).mirror
    assert len(mirror) == first.partitions
    assert all(min(i, m) < state["next"] for i, m in enumerate(mirror))
    # a resumed run skips every partition and reproduces the result
    again = min_max_chain(g, cfg)
    assert again.value == first.value
    assert again.strong_count == first.strong_count


def _corrupt_truncated(path, other):
    path.write_text(path.read_text()[:-5])


def _corrupt_empty_object(path, other):
    path.write_text("{}")


def _corrupt_wrong_key(path, other):
    path.write_text(other.read_text())


def _corrupt_nested(path, other):
    # deeper than the JSON reader recurses
    path.write_text('{"version": 6, "x": ' + "[" * 100_000 + "]" * 100_000 + "}")


def _corrupt_fields(signed=True, **fields):
    """Fields wrong by type or value for P3 at --max 4, whose sweep of the
    10 labels ends with 430 strong labelings, best 2, witness [0, 2, 1] in
    its search order v0, v2, v1 (labels {0,1}, {1,2}, {0,2}) and next 7.
    The file is signed again unless `signed` is false, so that each case
    reaches the check on its fields."""

    def corrupt(path, other):
        state = json.loads(path.read_text())
        assert (state["strong_count"], state["best"], state["witness"], state["next"]) == (
            430, 2, [0, 2, 1], 7)
        state.update(fields)
        if signed:
            del state["digest"]
            state["digest"] = oraclemod._digest(state)
        path.write_text(json.dumps(state))

    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [
        _corrupt_truncated,
        _corrupt_empty_object,
        _corrupt_wrong_key,
        _corrupt_nested,
        pytest.param(_corrupt_fields(best=-1), id="best-below-0"),
        pytest.param(_corrupt_fields(best=4), id="best-above-n"),
        # in range, but the witness's chain is 2
        pytest.param(_corrupt_fields(best=3), id="best-not-the-witness-chain"),
        pytest.param(_corrupt_fields(witness=[0, 0, 0]), id="witness-repeats-a-label"),
        # v0's {0,1} and v1's {1,2} share the difference 1
        pytest.param(_corrupt_fields(witness=[0, 1, 2]), id="witness-not-strong"),
        # strong labelings counted with no best, and a best with none counted
        pytest.param(_corrupt_fields(best=None, witness=None), id="count-without-witness"),
        pytest.param(_corrupt_fields(strong_count=0), id="witness-without-count"),
        # the finished run's count and witness with no partition swept: resumed,
        # the sweep would count all 430 strong labelings again, to 860
        pytest.param(_corrupt_fields(next=0), id="count-before-any-partition"),
        pytest.param(_corrupt_fields(next=-1), id="next-below-0"),
        pytest.param(_corrupt_fields(next=11), id="next-above-the-labels"),
        pytest.param(_corrupt_fields(next="3"), id="next-not-an-integer"),
        # in range and past partition 0, but partitions 1..6 would be counted
        # again: resumed, the count would be 712
        pytest.param(_corrupt_fields(signed=False, next=1), id="next-edited-unsigned"),
        pytest.param(_corrupt_fields(signed=False, strong_count=431), id="count-edited-unsigned"),
    ],
)
def test_minchain_bad_checkpoint_exits_two_naming_the_file(tmp_path, monkeypatch, capsys, corrupt):
    monkeypatch.setenv("IASI_ORACLE_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
    for name, g in (("p3.g", path_graph(3)), ("k2.g", K2)):
        (tmp_path / name).write_text(write_graph(g))
    argv = ["oracle", "minchain", "--max", "4"]
    assert main(argv + [str(tmp_path / "k2.g")]) == 0
    other = next((tmp_path / "ckpt").iterdir())
    assert main(argv + [str(tmp_path / "p3.g")]) == 0
    (path,) = set((tmp_path / "ckpt").iterdir()) - {other}  # no temp file left behind
    assert json.loads(path.read_text())["version"] == 6
    capsys.readouterr()

    corrupt(path, other)
    assert main(argv + [str(tmp_path / "p3.g")]) == 2
    assert str(path) in capsys.readouterr().err


def test_minchain_checkpoint_too_deep_to_sign_exits_two(tmp_path, monkeypatch, capsys):
    # JSON nested just below the reader's limit can exceed it in the digest.
    monkeypatch.setenv("IASI_ORACLE_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
    (tmp_path / "k2.g").write_text(write_graph(K2))
    argv = ["oracle", "minchain", "--max", "4", str(tmp_path / "k2.g")]
    assert main(argv) == 0
    (path,) = (tmp_path / "ckpt").iterdir()

    def too_deep(state):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(oraclemod, "_digest", too_deep)
    capsys.readouterr()
    assert main(argv) == 2
    assert str(path) in capsys.readouterr().err


def test_minchain_checkpoint_dir_that_is_a_file_exits_two(tmp_path, monkeypatch, capsys):
    (tmp_path / "k2.g").write_text(write_graph(K2))
    (tmp_path / "ckpt").write_text("")
    monkeypatch.setenv("IASI_ORACLE_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
    assert main(["oracle", "minchain", "--max", "4", str(tmp_path / "k2.g")]) == 2
    assert str(tmp_path / "ckpt") in capsys.readouterr().err


def test_minchain_checkpoint_key_is_stable_and_a_version_1_checkpoint_exits_two(
    tmp_path, monkeypatch, capsys
):
    # The key hashes write_graph(g) + repr(cfg): a drifting OracleConfig repr
    # would silently orphan every checkpoint already on disk.
    (tmp_path / "p3.g").write_text(write_graph(Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])))
    monkeypatch.setenv("IASI_ORACLE_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
    argv = ["oracle", "minchain", "--max", "4", "--cards", "2", str(tmp_path / "p3.g")]
    assert main(argv) == 0
    clean = capsys.readouterr().out.rsplit("timing:", 1)[0]
    path = tmp_path / "ckpt" / "minchain-72268ec20f39bd84.json"
    assert list((tmp_path / "ckpt").iterdir()) == [path]
    # The digest is the SHA-256 of the other fields as sorted-key JSON.
    state = json.loads(path.read_text())
    digest = state.pop("digest")
    assert digest == hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()
    # What earlier releases wrote after 6 of the 10 partitions.  Version 1
    # partitioned the sweep by vertex 0's label alone and version 2 by the
    # label on sorted vertex 0's orbit, so their counts do not add up with a
    # sweep in the search order; version 3 wrote its witness in sorted-vertex
    # order, versions 1-4 list the partitions counted where version 5
    # records the next one, and version 5 carries no digest.  Each file is
    # refused and left as it is.
    done = '"done": [0, 1, 2, 5, 8, 9]'
    for version, progress in ((1, done), (2, done), (3, done), (4, done), (5, '"next": 3')):
        older = (
            f'{{"version": {version}, "key": "72268ec20f39bd84", {progress}, '
            '"best": 2, "witness": [0, 1, 2], "strong_count": 244}'
        )
        path.write_text(older)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "not a version 6 checkpoint" in err
        assert path.read_text() == older
    # Deleted, as the message asks, the sweep starts over to the same result.
    path.unlink()
    assert main(argv) == 0
    assert capsys.readouterr().out.rsplit("timing:", 1)[0] == clean


def test_minchain_checkpoint_env(tmp_path, monkeypatch):
    monkeypatch.setenv("IASI_ORACLE_CHECKPOINT_DIR", str(tmp_path))
    min_max_chain(K2, OracleConfig(universe_max=4))
    assert list(tmp_path.glob("minchain-*.json"))


# ---------------------------------------------------------------------------
# concurrent search
# ---------------------------------------------------------------------------

def test_concurrent_p4_exists_and_witnesses_are_chains():
    result = exists_concurrent(path_graph(4), OracleConfig(universe_max=6))
    assert result.exists
    assert result.witnesses_found > 0
    assert result.all_witnesses_pairwise_disjoint
    assert result.disjointness_counterexample is None


def test_concurrent_c4_report_is_audited():
    result = exists_concurrent(cycle_graph(4), OracleConfig(universe_max=6))
    assert isinstance(result.exists, bool)
    assert result.all_witnesses_pairwise_disjoint


def test_concurrent_with_singleton_labels():
    # all difference sets empty; only the two edge maps decide
    result = exists_concurrent(
        path_graph(4), OracleConfig(universe_max=4, min_card=1, max_card=1)
    )
    assert isinstance(result.exists, bool)
    assert result.all_witnesses_pairwise_disjoint  # vacuous for singletons
    if result.exists:
        assert all(len(s) == 1 for _, s in result.witness.items())


def test_concurrent_rejects_isolated_complement():
    with pytest.raises(ValueError):
        exists_concurrent(K2, OracleConfig(universe_max=5))


# ---------------------------------------------------------------------------
# bundles
# ---------------------------------------------------------------------------

def test_write_bundle_round_trips(tmp_path):
    # The CLI's minchain bundle reads back as the graph, the library's own
    # witness, and a canonical report of the library's value.
    g = cycle_graph(5)
    gp = tmp_path / "c5.g"
    gp.write_text(write_graph(g))
    result = min_max_chain(g, OracleConfig(universe_max=6, min_card=2, max_card=2))
    bundle = tmp_path / "bundle"
    argv = ["oracle", "minchain", str(gp), "--cards", "2", "--max", "6", "--bundle-dir", str(bundle)]
    assert main(argv) == 1
    assert read_graph((bundle / "minchain-disagreement.graph.txt").read_text()) == g
    assert read_labeling((bundle / "minchain-disagreement.labeling.txt").read_text()) == result.witness
    report = (bundle / "minchain-disagreement.report.json").read_text()
    doc = json.loads(report)
    assert report == to_json(doc) + "\n"
    assert {k: doc[k] for k in result.to_dict()} == result.to_dict()
    assert (doc["value"], doc["agree"]) == (result.value, False)
