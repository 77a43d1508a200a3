import json

import pytest

from iasi import (
    ConstructionSpec,
    Graph,
    complete_graph,
    construct_strong,
    cycle_graph,
    path_graph,
    petersen_graph,
    read_labeling,
    star_graph,
    write_graph,
    write_labeling,
)
from iasi.cli import main


@pytest.fixture
def files(tmp_path):
    def graph_file(name, g):
        p = tmp_path / name
        p.write_text(write_graph(g))
        return str(p)

    def labeling_file(name, f):
        p = tmp_path / name
        p.write_text(write_labeling(f))
        return str(p)

    def raw(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return graph_file, labeling_file, raw, tmp_path


def outcome_of(capsys) -> dict:
    out = capsys.readouterr().out
    body = out.split("outcome:\n", 1)[1].rsplit("timing:", 1)[0]
    return json.loads(body)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_valid_strong_labeling_exits_zero(files, capsys):
    graph_file, labeling_file, _, _ = files
    g = cycle_graph(4)
    gp = graph_file("c4.g", g)
    fp = labeling_file("c4.l", construct_strong(g, ConstructionSpec(cardinalities=2)))
    assert main(["verify", gp, fp, "--strong"]) == 0
    assert outcome_of(capsys)["holds"] is True


def test_verify_shared_difference_exits_one_with_witness(files, capsys):
    graph_file, _, raw, _ = files
    gp = graph_file("k2.g", complete_graph(2, "x"))
    fp = raw("bad.l", "x0: {1,2}\nx1: {3,4}\n")
    assert main(["verify", gp, fp, "--strong"]) == 1
    doc = outcome_of(capsys)
    assert doc["holds"] is False
    assert any("(x0,x1)" in w for w in doc["report"]["witnesses"])


def test_verify_malformed_set_exits_two(files, capsys):
    graph_file, _, raw, _ = files
    gp = graph_file("k2.g", complete_graph(2, "x"))
    fp = raw("broken.l", "x0: {1,2\nx1: {3,4}\n")
    assert main(["verify", gp, fp, "--strong"]) == 2
    assert "line 1" in capsys.readouterr().err


def test_verify_concurrent(files, capsys):
    graph_file, labeling_file, _, _ = files
    gp = graph_file("p4.g", path_graph(4))
    f = construct_strong(complete_graph(4), ConstructionSpec(cardinalities=2))
    fp = labeling_file("conc.l", f)
    assert main(["verify", gp, fp, "--concurrent"]) == 0


def test_verify_default_checks_set_indexer_only(files, capsys):
    graph_file, _, raw, _ = files
    gp = graph_file("k2.g", complete_graph(2, "x"))
    # injective but not strong: default verification still passes
    fp = raw("weak.l", "x0: {1,2}\nx1: {3,4}\n")
    assert main(["verify", gp, fp]) == 0
    assert outcome_of(capsys)["property"] == "iasi"


def test_verify_missing_file_exits_two(files):
    graph_file, _, _, _ = files
    gp = graph_file("c4.g", cycle_graph(4))
    assert main(["verify", gp, "/nonexistent/file.l"]) == 2


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def test_construct_round_trips_through_verify(files, capsys):
    graph_file, _, _, tmp = files
    gp = graph_file("pet.g", petersen_graph())
    out = tmp / "pet.l"
    assert main(["construct", gp, "--cardinality", "2", "--output", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", gp, str(out), "--strong"]) == 0


def test_construct_k5_uses_five_strides(files, capsys):
    graph_file, _, _, tmp = files
    gp = graph_file("k5.g", complete_graph(5))
    trace = tmp / "trace.json"
    assert main(["construct", gp, "--cardinality", "3", "--trace", str(trace)]) == 0
    doc = json.loads(trace.read_text())
    assert len(set(doc["strides"])) == 5


def test_construct_single_vertex_graph_exits_two(files, capsys):
    graph_file, _, raw, _ = files
    gp = raw("k1.g", "v lonely\n")
    assert main(["construct", gp]) == 2
    assert "isolated" in capsys.readouterr().err


def test_construct_determinism(files, capsys):
    graph_file, _, _, tmp = files
    gp = graph_file("c6.g", cycle_graph(6))
    a, b = tmp / "a.l", tmp / "b.l"
    assert main(["construct", gp, "--seed", "3", "--output", str(a)]) == 0
    assert main(["construct", gp, "--seed", "3", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_construct_cards_file(files, capsys):
    graph_file, _, raw, tmp = files
    gp = graph_file("p3.g", path_graph(3))
    cards = raw("cards.txt", "v0: 1\nv1: 2\nv2: 3\n")
    out = tmp / "p3.l"
    assert main(["construct", gp, "--cards", cards, "--output", str(out)]) == 0
    text = out.read_text()
    assert "v2: {" in text


def test_construct_cards_file_with_colon_names(files, capsys):
    graph_file, _, raw, tmp = files
    gp = graph_file("k2.g", Graph(["a⊙0:b", "c"], [("a⊙0:b", "c")]))
    cards = raw("cards.txt", "a⊙0:b: 3\nc: 1\n")
    out = tmp / "k2.l"
    assert main(["construct", gp, "--cards", cards, "--output", str(out)]) == 0
    assert len(read_labeling(out.read_text())["a⊙0:b"]) == 3


@pytest.mark.parametrize("card", ["٣", "²"])
def test_construct_cards_file_rejects_non_ascii_digits(files, capsys, card):
    graph_file, _, raw, _ = files
    gp = graph_file("p3.g", path_graph(3))
    cards = raw("cards.txt", f"v0: 1\nv1: {card}\nv2: 3\n")
    assert main(["construct", gp, "--cards", cards]) == 2
    assert "line 2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# nourish
# ---------------------------------------------------------------------------

def test_nourish_values(files, capsys):
    graph_file, _, _, _ = files
    cases = [
        (complete_graph(7), 7),
        (cycle_graph(6), 2),
        # wheel: 5-cycle plus hub
        (None, 3),
    ]
    gp = graph_file("k7.g", cases[0][0])
    assert main(["nourish", gp]) == 0
    assert outcome_of(capsys)["nourishing_number"] == 7

    gp = graph_file("c6.g", cases[1][0])
    assert main(["nourish", gp]) == 0
    assert outcome_of(capsys)["nourishing_number"] == 2

    from iasi import Graph

    wheel = Graph(
        ["h"] + [f"c{i}" for i in range(5)],
        [(f"c{i}", f"c{(i + 1) % 5}") for i in range(5)] + [("h", f"c{i}") for i in range(5)],
    )
    gp = graph_file("w5.g", wheel)
    assert main(["nourish", gp]) == 0
    doc = outcome_of(capsys)
    assert doc["nourishing_number"] == 3
    assert len(doc["max_clique"]) == 3


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def test_ops_join_prediction(files, capsys):
    graph_file, _, _, _ = files
    a = graph_file("k2.g", complete_graph(2, "a"))
    b = graph_file("k3.g", complete_graph(3, "b"))
    assert main(["ops", "join", a, b]) == 0
    doc = outcome_of(capsys)
    assert doc["kappa_predicted"] == 5 and doc["kappa_computed"] == 5
    assert doc["kappa_agrees"] is True


def test_ops_product_prediction(files, capsys):
    graph_file, _, _, _ = files
    a = graph_file("c3.g", cycle_graph(3, "a"))
    b = graph_file("p2.g", path_graph(2, "b"))
    assert main(["ops", "product", a, b]) == 0
    doc = outcome_of(capsys)
    assert doc["kappa_predicted"] == 3 and doc["kappa_computed"] == 3
    assert doc["edge_count_formula_holds"] is True


def test_ops_corona_prediction(files, capsys):
    graph_file, _, _, _ = files
    a = graph_file("p2.g", path_graph(2, "a"))
    b = graph_file("k3.g", complete_graph(3, "b"))
    assert main(["ops", "corona", a, b]) == 0
    doc = outcome_of(capsys)
    assert doc["kappa_predicted"] == 4 and doc["kappa_computed"] == 4


def test_ops_corona_flags_equal_operands(files, capsys):
    graph_file, _, _, _ = files
    a = graph_file("k2a.g", complete_graph(2, "a"))
    b = graph_file("k2b.g", complete_graph(2, "b"))
    assert main(["ops", "corona", a, b]) == 0
    doc = outcome_of(capsys)
    assert doc["notes"] and "two-branch" in doc["notes"][0]


def test_ops_join_name_collision_exits_two(files, capsys):
    graph_file, _, _, _ = files
    a = graph_file("a.g", complete_graph(2))
    b = graph_file("b.g", complete_graph(3))
    assert main(["ops", "join", a, b]) == 2


def test_ops_complement_arity(files, capsys):
    graph_file, _, _, _ = files
    a = graph_file("a.g", cycle_graph(5, "a"))
    b = graph_file("b.g", cycle_graph(5, "b"))
    assert main(["ops", "complement", a, b]) == 2
    capsys.readouterr()
    assert main(["ops", "complement", a]) == 0


def test_ops_writes_result(files, capsys):
    graph_file, _, _, tmp = files
    a = graph_file("a.g", complete_graph(2, "a"))
    b = graph_file("b.g", complete_graph(2, "b"))
    out = tmp / "u.g"
    assert main(["ops", "union", a, b, "--output", str(out)]) == 0
    from iasi import read_graph

    assert len(read_graph(out.read_text()).vertices) == 4


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_lemma(files, capsys):
    assert main(["oracle", "lemma", "--max", "6"]) == 0
    doc = outcome_of(capsys)
    assert doc["verdict"] == "agrees on all pairs"


def test_oracle_minchain_agrees(files, capsys):
    graph_file, _, _, _ = files
    gp = graph_file("k3.g", complete_graph(3))
    assert main(["oracle", "minchain", gp, "--cards", "2", "--max", "6"]) == 0
    doc = outcome_of(capsys)
    assert doc["value"] == 3 and doc["clique_number"] == 3 and doc["agree"] is True


def test_oracle_minchain_vertex_limit(files, capsys):
    graph_file, _, _, _ = files
    gp = graph_file("c6.g", cycle_graph(6))
    assert main(["oracle", "minchain", gp, "--max", "6"]) == 2
    assert "vertex limit" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["lemma", "minchain", "concurrent"])
def test_oracle_universe_above_limit_exits_two(files, capsys, command):
    graph_file, _, _, _ = files
    argv = ["oracle", command, "--max", "40"]
    if command != "lemma":
        argv.append(graph_file("k2.g", complete_graph(2)))
    assert main(argv) == 2
    assert "exceeds the exhaustive limit 10" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["lemma", "minchain", "concurrent"])
def test_oracle_negative_universe_exits_two(files, capsys, command):
    graph_file, _, _, _ = files
    argv = ["oracle", command, "--max", "-1"]
    if command != "lemma":
        argv.append(graph_file("k2.g", complete_graph(2)))
    assert main(argv) == 2
    assert "universe_max must be non-negative" in capsys.readouterr().err


def test_oracle_concurrent(files, capsys):
    graph_file, _, _, _ = files
    gp = graph_file("p4.g", path_graph(4))
    assert main(["oracle", "concurrent", gp, "--cards", "2", "--max", "6"]) == 0
    doc = outcome_of(capsys)
    assert doc["exists"] is True and doc["all_witnesses_pairwise_disjoint"] is True


def test_json_format_keeps_timing_outside_outcome(files, capsys):
    graph_file, _, _, _ = files
    gp = graph_file("c4.g", cycle_graph(4))
    assert main(["nourish", gp, "--format", "json"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    doc = json.loads("\n".join(lines[:-1]))
    assert "timing_ms" not in doc["outcome"]
    assert json.loads(lines[-1])["timing_ms"] >= 0


# ---------------------------------------------------------------------------
# unreadable inputs and failed writes exit 2 naming the path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", ["construct", "verify", "ops"])
def test_output_into_missing_directory_exits_two(files, capsys, command):
    graph_file, labeling_file, _, tmp = files
    g = complete_graph(2, "a")
    gp = graph_file("k2.g", g)
    argv = {
        "construct": ["construct", gp],
        "verify": ["verify", gp, labeling_file("k2.l", construct_strong(g))],
        "ops": ["ops", "complement", gp],
    }[command]
    target = tmp / "missing" / "out.txt"
    assert main([*argv, "--output", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {target}: ") and "Traceback" not in err


def test_directory_as_input_exits_two(files, capsys):
    _, _, _, tmp = files
    assert main(["nourish", str(tmp)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {tmp}: ")


def test_non_utf8_input_exits_two(files, capsys):
    _, _, _, tmp = files
    gp = tmp / "latin1.g"
    gp.write_bytes(b"a b\n\xe9 c\n")
    assert main(["nourish", str(gp)]) == 2
    assert "can't decode byte 0xe9" in capsys.readouterr().err


def test_missing_input_names_the_path(files, capsys):
    graph_file, _, _, tmp = files
    gp = graph_file("c4.g", cycle_graph(4))
    assert main(["verify", gp, str(tmp / "none.l")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {tmp / 'none.l'}: ")


def test_failed_checkpoint_write_exits_two(files, capsys, monkeypatch):
    graph_file, _, _, tmp = files
    gp = graph_file("k2.g", complete_graph(2))
    monkeypatch.setenv("IASI_ORACLE_CHECKPOINT_DIR", str(tmp / "ckpt"))

    def full_disk(src, dst):
        raise OSError(28, "No space left on device", str(dst))

    monkeypatch.setattr("os.replace", full_disk)
    assert main(["oracle", "minchain", gp, "--max", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp / 'ckpt'}") and "No space left on device" in err
    assert not any((tmp / "ckpt").iterdir())


# ---------------------------------------------------------------------------
# cards files
# ---------------------------------------------------------------------------

def test_cards_file_duplicate_name_exits_two(files, capsys):
    graph_file, _, raw, _ = files
    gp = graph_file("k2.g", complete_graph(2, "a"))
    cards = raw("cards.txt", "a0: 2\na1: 2\na0: 3\n")
    assert main(["construct", gp, "--cards", cards]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "duplicate" in err


def test_cards_file_unknown_name_exits_two(files, capsys):
    graph_file, _, raw, _ = files
    gp = graph_file("k2.g", complete_graph(2, "a"))
    cards = raw("cards.txt", "a0: 2\na1: 2\nzz: 5\n")
    assert main(["construct", gp, "--cards", cards]) == 2
    assert "zz" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# work done per request
# ---------------------------------------------------------------------------

def test_verify_concurrent_verifies_each_graph_once(files, capsys, monkeypatch):
    import iasi.labeling as labelingmod

    graph_file, labeling_file, _, _ = files
    gp = graph_file("p4.g", path_graph(4))
    fp = labeling_file("conc.l", construct_strong(complete_graph(4)))
    calls = []
    real = labelingmod.verify

    def counting(g, f):
        calls.append(len(g.edges))
        return real(g, f)

    monkeypatch.setattr(labelingmod, "verify", counting)
    assert main(["verify", gp, fp, "--concurrent"]) == 0
    assert calls == [3, 3]


def test_each_input_is_read_once(files, capsys, monkeypatch):
    from pathlib import Path

    graph_file, labeling_file, _, _ = files
    gp = graph_file("c4.g", cycle_graph(4))
    fp = labeling_file("c4.l", construct_strong(cycle_graph(4)))
    reads = []
    for method in ("read_bytes", "read_text"):
        real = getattr(Path, method)

        def counting(self, *args, _real=real, _method=method, **kwargs):
            reads.append((_method, self.name))
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(Path, method, counting)
    assert main(["verify", gp, fp, "--strong"]) == 0
    assert reads == [("read_bytes", "c4.g"), ("read_bytes", "c4.l")]


def test_nourish_searches_for_a_max_clique_once(files, capsys, monkeypatch):
    import iasi.cli as climod
    import iasi.graph as graphmod

    graph_file, _, _, _ = files
    gp = graph_file("k5.g", complete_graph(5))
    calls = []
    real = climod.max_clique

    def counting(g):
        calls.append(len(g.vertices))
        return real(g)

    def reference(g):
        raise AssertionError("the ω path went through the sorted reference")

    monkeypatch.setattr(climod, "max_clique", counting)
    monkeypatch.setattr(graphmod, "maximal_cliques", reference)
    assert main(["nourish", gp]) == 0
    assert calls == [5]
    doc = outcome_of(capsys)
    assert doc["nourishing_number"] == doc["clique_number"] == len(doc["max_clique"]) == 5
