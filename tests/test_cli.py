import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import iasi
from iasi import (
    ConstructionSpec,
    Graph,
    OracleConfig,
    cartesian_product,
    chain_report,
    complement,
    complete_graph,
    construct_strong,
    cycle_graph,
    max_clique,
    min_max_chain,
    path_graph,
    petersen_graph,
    read_graph,
    read_labeling,
    star_graph,
    verify,
    write_graph,
    write_labeling,
)
from iasi.cli import build_parser, main


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


BOM = b"\xef\xbb\xbf"


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


@pytest.mark.parametrize("flag", [[], ["--strong"], ["--concurrent"]])
def test_verify_empty_graph_exits_two(files, capsys, flag):
    # An empty graph has no edges to check; it is refused, not passed vacuously.
    _, _, raw, _ = files
    gp, fp = raw("empty.g", ""), raw("empty.l", "")
    assert main(["verify", gp, fp, *flag]) == 2
    captured = capsys.readouterr()
    assert "graph is empty" in captured.err and "outcome:" not in captured.out
    # The refusal is about the file, not a line of it.
    assert captured.err.startswith(f"error: {gp}: ") and "line 1" not in captured.err


def test_nourish_empty_graph_names_the_file(files, capsys):
    gp = files[2]("empty.g", "")
    assert main(["nourish", gp]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {gp}: graph is empty; nourishing number undefined\n"


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


def test_construct_cards_file_skips_comments_and_blank_lines(files, capsys):
    graph_file, _, raw, tmp = files
    gp = graph_file("p3.g", path_graph(3))
    cards = raw("cards.txt", "# sizes\nv0: 1\n\n  # v1 next\nv1: 2\n   \nv2: 3\n")
    out = tmp / "p3.l"
    assert main(["construct", gp, "--cards", cards, "--output", str(out)]) == 0
    assert {v: len(s) for v, s in read_labeling(out.read_text()).items()} == {"v0": 1, "v1": 2, "v2": 3}


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
    assert capsys.readouterr().err == "error: complement takes 1 graph file(s), got 2\n"
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


def test_oracle_minchain_disagreement_writes_a_bundle(files, capsys):
    # With 2-element labels from {0..6}, every strong labeling of C5 holds a
    # chain of 3, above its clique number 2.
    graph_file, _, _, tmp = files
    gp = graph_file("c5.g", cycle_graph(5))
    bundle = tmp / "bundle"
    argv = ["oracle", "minchain", gp, "--cards", "2", "--max", "6", "--bundle-dir", str(bundle)]
    assert main(argv) == 1
    doc = outcome_of(capsys)
    assert (doc["value"], doc["clique_number"], doc["agree"]) == (3, 2, False)
    stem = bundle / "minchain-disagreement"
    assert sorted(bundle.iterdir()) == [Path(f"{stem}.{x}") for x in ("graph.txt", "labeling.txt", "report.json")]
    assert json.loads(Path(f"{stem}.report.json").read_text()) == doc
    g = read_graph(Path(f"{stem}.graph.txt").read_text())
    f = read_labeling(Path(f"{stem}.labeling.txt").read_text())
    assert g == cycle_graph(5)
    assert verify(g, f).is_strong and chain_report(g, f).max_chain_length == 3


def test_oracle_minchain_failed_output_write_leaves_no_bundle(files, capsys):
    # The bundle is written with `--output`, all or none: a report that
    # cannot be written leaves no bundle directory.
    graph_file, _, _, tmp = files
    gp = graph_file("c5.g", cycle_graph(5))
    bundle = tmp / "bundle"
    argv = ["oracle", "minchain", gp, "--cards", "2", "--max", "6", "--bundle-dir", str(bundle)]
    assert main([*argv, "--output", str(tmp / "missing" / "report.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "missing" in captured.err
    assert not bundle.exists()


def test_oracle_minchain_bundle_makes_its_missing_parents_only_with_the_write(files, capsys):
    graph_file, _, _, tmp = files
    gp = graph_file("c5.g", cycle_graph(5))
    bundle = tmp / "a" / "b" / "bundle"
    argv = ["oracle", "minchain", gp, "--cards", "2", "--max", "6", "--bundle-dir", str(bundle)]
    before = sorted(os.listdir(tmp))
    assert main([*argv, "--output", str(tmp / "missing" / "report.json")]) == 2
    assert capsys.readouterr().err == f"error: {tmp / 'missing' / 'report.json'}: No such file or directory\n"
    assert sorted(os.listdir(tmp)) == before
    assert main([*argv, "--output", str(tmp / "report.json")]) == 1
    stem = bundle / "minchain-disagreement"
    assert sorted(bundle.iterdir()) == [Path(f"{stem}.{x}") for x in ("graph.txt", "labeling.txt", "report.json")]
    assert json.loads(Path(f"{stem}.report.json").read_text()) == json.loads((tmp / "report.json").read_text())


@pytest.mark.parametrize("output", ["bundle/minchain-disagreement.graph.txt", "./bundle/minchain-disagreement.graph.txt"])
def test_oracle_minchain_refuses_its_report_onto_a_bundle_file(files, capsys, monkeypatch, output):
    # `--output` gets minchain's report, never one of its bundle files, however
    # the path is spelled; nothing is written.
    graph_file, _, _, tmp = files
    gp = graph_file("c5.g", cycle_graph(5))
    monkeypatch.chdir(tmp)
    before = sorted(os.listdir(tmp))
    assert main(["oracle", "minchain", gp, "--max", "5", "--bundle-dir", "bundle", "--output", output]) == 2
    assert capsys.readouterr() == ("", f"error: {output}: the same file as another output\n")
    assert sorted(os.listdir(tmp)) == before


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

def _argv(files, command: str) -> list[str]:
    """A run of `command` that exits 0, on K2 where it takes a graph."""
    graph_file, labeling_file, _, _ = files
    g = complete_graph(2, "a")
    gp = graph_file("k2.g", g)
    return {
        "construct": ["construct", gp],
        "verify": ["verify", gp, labeling_file("k2.l", construct_strong(g))],
        "ops": ["ops", "complement", gp],
        "nourish": ["nourish", gp],
        "lemma": ["oracle", "lemma", "--max", "3"],
        "minchain": ["oracle", "minchain", gp, "--max", "3"],
        # K2's complement has isolated vertices; P4's is P4.
        "concurrent": ["oracle", "concurrent", graph_file("p4.g", path_graph(4))],
    }[command]


@pytest.mark.parametrize(
    "command", ["construct", "verify", "ops", "nourish", "lemma", "minchain", "concurrent"]
)
def test_output_into_missing_directory_exits_two(files, capsys, command):
    target = files[3] / "missing" / "out.txt"
    assert main([*_argv(files, command), "--output", str(target)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {target}: ") and "Traceback" not in err
    assert out == ""


def test_trace_into_missing_directory_exits_two(files, capsys):
    target = files[3] / "missing" / "trace.json"
    assert main([*_argv(files, "construct"), "--trace", str(target)]) == 2
    assert capsys.readouterr() == ("", f"error: {target}: No such file or directory\n")


@pytest.mark.parametrize(
    "output, trace, bad, reason",
    [
        ("missing/o.lab", "t.json", "missing/o.lab", "No such file or directory"),
        ("o.lab", "missing/t.json", "missing/t.json", "No such file or directory"),
        # A directory is written in place, not renamed onto, and fails there.
        ("dir", "t.json", "dir", "Is a directory"),
        ("o.lab", "dir", "dir", "Is a directory"),
    ],
)
def test_construct_writes_neither_file_when_one_write_fails(files, capsys, output, trace, bad, reason):
    tmp = files[3]
    argv = _argv(files, "construct")
    (tmp / "dir").mkdir()
    before = sorted(os.listdir(tmp))
    assert main([*argv, "--output", str(tmp / output), "--trace", str(tmp / trace)]) == 2
    assert capsys.readouterr() == ("", f"error: {tmp / bad}: {reason}\n")
    # Neither target nor any temp file is left.
    assert sorted(os.listdir(tmp)) == before and os.listdir(tmp / "dir") == []


@pytest.mark.parametrize("output", ["x.out", "./x.out", "link.out"])
def test_construct_refuses_two_outputs_to_one_file(files, capsys, monkeypatch, output):
    # --output and --trace naming one file, by one string, by two spellings
    # of one path or through a symlink, would leave only one of the texts.
    tmp = files[3]
    monkeypatch.chdir(tmp)
    argv = _argv(files, "construct")
    (tmp / "link.out").symlink_to(tmp / "x.out")
    before = sorted(os.listdir(tmp))
    assert main([*argv, "--output", output, "--trace", "x.out"]) == 2
    assert capsys.readouterr() == ("", f"error: {output}: the same file as another output\n")
    assert sorted(os.listdir(tmp)) == before and not (tmp / "x.out").exists()


def test_construct_writes_both_files_and_no_temp(files, capsys):
    tmp = files[3]
    argv = [*_argv(files, "construct"), "--format", "json"]
    before = os.listdir(tmp)
    assert main(argv) == 0
    printed = _printed_outcome(capsys, "json")
    assert main([*argv, "--output", str(tmp / "o.lab"), "--trace", str(tmp / "t.json")]) == 0
    assert (tmp / "o.lab").read_text(encoding="utf-8") == printed["labeling_text"]
    assert json.loads((tmp / "t.json").read_text(encoding="utf-8")) == printed["trace"]
    assert sorted(os.listdir(tmp)) == sorted([*before, "o.lab", "t.json"])
    # A symlinked target is written through, not replaced.
    (tmp / "link.lab").symlink_to(tmp / "o.lab")
    (tmp / "o.lab").write_text("old", encoding="utf-8")
    assert main([*argv, "--output", str(tmp / "link.lab")]) == 0
    assert (tmp / "link.lab").is_symlink()
    assert (tmp / "o.lab").read_text(encoding="utf-8") == printed["labeling_text"]


def _printed_outcome(capsys, fmt: str) -> dict:
    """The outcome block of the report just printed in `fmt`."""
    if fmt == "text":
        return outcome_of(capsys)
    return json.JSONDecoder().raw_decode(capsys.readouterr().out)[0]["outcome"]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["verify", "nourish", "lemma", "minchain", "concurrent"])
def test_output_writes_the_printed_outcome(files, capsys, command, fmt):
    text_file, target = files[3] / "text.json", files[3] / "report.json"
    assert main([*_argv(files, command), "--output", str(text_file)]) == 0
    block = capsys.readouterr().out.split("outcome:\n", 1)[1].rsplit("timing:", 1)[0]
    # In text mode the file holds the printed block byte for byte ...
    assert text_file.read_bytes() == block.encode("utf-8")
    assert main([*_argv(files, command), "--output", str(target), "--format", fmt]) == 0
    # ... and either format writes those same bytes.
    assert target.read_bytes() == block.encode("utf-8")
    assert _printed_outcome(capsys, fmt) == json.loads(block)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command, key", [("construct", "labeling_text"), ("ops", "graph_text")])
def test_output_writes_the_artifact_not_the_outcome(files, capsys, command, key, fmt):
    graph_file, _, _, tmp = files
    a, b = graph_file("a.g", complete_graph(2, "a")), graph_file("b.g", path_graph(3, "b"))
    argv = {"construct": ["construct", a], "ops": ["ops", "union", a, b]}[command]
    assert main([*argv, "--format", fmt]) == 0
    inline = _printed_outcome(capsys, fmt)
    target = tmp / "artifact.txt"
    assert main([*argv, "--format", fmt, "--output", str(target)]) == 0
    written = _printed_outcome(capsys, fmt)
    # The file holds the text that the outcome carries without --output ...
    assert target.read_text(encoding="utf-8") == inline.pop(key)
    # ... and the outcome drops that text; construct names the file instead.
    assert "labeling_text" not in written and "graph_text" not in written
    if command == "construct":
        assert (inline.pop("labeling_file"), written.pop("labeling_file")) == (None, str(target))
    assert written == inline


def test_directory_as_input_exits_two(files, capsys):
    _, _, _, tmp = files
    assert main(["nourish", str(tmp)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {tmp}: ")


@pytest.mark.parametrize("prefix", [b"", BOM], ids=["plain", "bom"])
def test_non_utf8_input_exits_two(files, capsys, prefix):
    _, _, _, tmp = files
    gp = tmp / "latin1.g"
    gp.write_bytes(prefix + b"a b\n\xe9 c\n")
    assert main(["nourish", str(gp)]) == 2
    err = capsys.readouterr().err
    assert "can't decode byte 0xe9" in err
    # The first bad byte is on line 2 of the named file, after a BOM too.
    assert err.startswith(f"error: line 2: {gp}: ")


@pytest.mark.parametrize(
    "kind, text",
    [
        ("graph", "a b\n"),
        ("graph", "p 2 1\na b\n"),
        ("labeling", "a: {0,1}\nb: {0,2}\n"),
        ("cards", "a: 2\nb: 3\n"),
    ],
    ids=["graph", "graph-header", "labeling", "cards"],
)
def test_leading_bom_is_ignored(files, capsys, kind, text):
    import hashlib

    _, _, raw, tmp = files
    paths = {
        "graph": raw("k2.g", "a b\n"),
        "labeling": raw("k2.l", "a: {0,2}\nb: {0,1}\n"),
        "cards": raw("k2.cards", "a: 1\nb: 1\n"),
    }
    paths[kind] = str(tmp / "input")
    argv = {
        "graph": ["nourish", paths["graph"]],
        "labeling": ["verify", paths["graph"], paths["labeling"], "--strong"],
        "cards": ["construct", paths["graph"], "--cards", paths["cards"]],
    }[kind]
    reports = []
    for prefix in (b"", BOM):
        data = prefix + text.encode("utf-8")
        (tmp / "input").write_bytes(data)
        assert main([*argv, "--format", "json"]) == 0
        doc = json.JSONDecoder().raw_decode(capsys.readouterr().out)[0]
        # The input record hashes the file's bytes, the BOM included.
        assert {"path": paths[kind], "sha256": hashlib.sha256(data).hexdigest()} in doc["inputs"]
        reports.append(doc["outcome"])
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "bad, text, message",
    [
        ("graph", "a b\na a\n", "line 2: {}: self-loop at 'a'"),
        ("labeling", "a: {0,1\n", "line 1, column 7: {}: unterminated set: expected '}}'"),
        ("cards", "a: 2\nb: x\n", "line 2: {}: expected 'name: <cardinality>'"),
        ("cards", "a b: 2\n", "line 1: {}: bad vertex name 'a b'"),
        ("cards", " : 2\n", "line 1: {}: bad vertex name ''"),
        ("cards", "a0: 2\na1: 0\n", "line 2: {}: cardinality of 'a1' must be at least 1"),
    ],
    ids=["graph", "labeling", "cards", "cards-name-with-space", "cards-empty-name", "cards-size-zero"],
)
def test_parse_error_names_its_file(files, capsys, bad, text, message):
    graph_file, _, raw, _ = files
    inputs = {
        "graph": graph_file("k2.g", complete_graph(2, "a")),
        "labeling": raw("k2.l", "a0: {0,1}\na1: {0,2}\n"),
        "cards": raw("k2.cards", "a0: 2\na1: 2\n"),
    }
    inputs[bad] = raw("bad", text)
    argv = (
        ["construct", inputs["graph"], "--cards", inputs["cards"]] if bad == "cards"
        else ["verify", inputs["graph"], inputs["labeling"]]
    )
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: " + message.format(inputs[bad]) + "\n"


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


def test_cards_file_is_a_hashed_input_read_once(files, capsys, monkeypatch):
    import hashlib
    from pathlib import Path

    graph_file, _, raw, _ = files
    gp = graph_file("k2.g", complete_graph(2, "a"))
    cards = raw("cards.txt", "a0: 2\na1: 3\n")
    reads = []
    real = Path.read_bytes

    def counting(self):
        reads.append(self.name)
        return real(self)

    monkeypatch.setattr(Path, "read_bytes", counting)
    monkeypatch.setattr(Path, "read_text", lambda self, *a, **k: pytest.fail("read as text"))
    assert main(["construct", gp, "--cards", cards, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out.split('\n{"timing_ms"', 1)[0])
    assert reads == ["k2.g", "cards.txt"]
    assert doc["inputs"] == [
        {"path": p, "sha256": hashlib.sha256(real(Path(p))).hexdigest()} for p in (gp, cards)
    ]


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


def test_reading_writing_searching_and_building_derive_no_edge_set(files, capsys, monkeypatch):
    import iasi.graph as graphmod

    _, _, raw, tmp = files
    g = read_graph(write_graph(petersen_graph()))
    h = read_graph("p 4 4\na b\nb c\nc d\nd a\n")
    write_graph(g)
    max_clique(g)
    verify(g, construct_strong(g))
    product = cartesian_product(g, h)
    write_graph(product)
    graphs = [g, h, complement(g), product]
    # `ops product` through the CLI: its two inputs and its result.
    real = graphmod.cartesian_product

    def recording(g1, g2):
        graphs.extend([g1, g2, real(g1, g2)])
        return graphs[-1]

    monkeypatch.setattr(graphmod, "cartesian_product", recording)
    a, b = raw("a.g", write_graph(g)), raw("b.g", write_graph(h))
    assert main(["ops", "product", a, b, "--output", str(tmp / "p.g")]) == 0
    assert len(graphs) == 7
    assert [x._edges for x in graphs] == [None] * 7


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

    graph_file, _, _, _ = files
    gp = graph_file("k5.g", complete_graph(5))
    calls = []
    real = climod.max_clique

    def counting(g):
        calls.append(len(g.vertices))
        return real(g)

    monkeypatch.setattr(climod, "max_clique", counting)
    assert main(["nourish", gp]) == 0
    assert calls == [5]
    doc = outcome_of(capsys)
    assert doc["nourishing_number"] == doc["clique_number"] == len(doc["max_clique"]) == 5


# ---------------------------------------------------------------------------
# repeated in-process calls (the parser is built once per process)
# ---------------------------------------------------------------------------

def test_consecutive_calls_do_not_share_options(files, capsys):
    graph_file, labeling_file, _, _ = files
    g = cycle_graph(4)
    gp = graph_file("c4.g", g)
    fp = labeling_file("c4.l", construct_strong(g, ConstructionSpec(cardinalities=2)))
    assert main(["verify", gp, fp, "--strong"]) == 0
    assert outcome_of(capsys)["property"] == "strong"
    assert main(["verify", gp, fp]) == 0
    assert outcome_of(capsys)["property"] == "iasi"

    k2 = complete_graph(2)
    kp = graph_file("k2.g", k2)
    assert main(["oracle", "minchain", kp, "--cards", "3", "--max", "5"]) == 0
    three = outcome_of(capsys)["strong_labelings"]
    assert main(["oracle", "minchain", kp, "--max", "5"]) == 0
    two = outcome_of(capsys)["strong_labelings"]
    assert two == min_max_chain(k2, OracleConfig(universe_max=5)).strong_count != three


def test_an_argparse_exit_leaves_the_next_call_intact(files, capsys):
    graph_file, _, _, _ = files
    gp = graph_file("k3.g", complete_graph(3))
    with pytest.raises(SystemExit) as exc:
        main(["nourish", gp, "--no-such-option"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-such-option" in capsys.readouterr().err
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == build_parser().format_help()
    assert main(["nourish", gp]) == 0
    assert outcome_of(capsys)["max_clique"] == ["v0", "v1", "v2"]


def test_a_wrapper_installed_after_the_first_call_sees_later_calls(files, capsys, monkeypatch):
    import iasi.cli as climod

    graph_file, _, _, _ = files
    gp = graph_file("k3.g", complete_graph(3))
    assert main(["nourish", gp]) == 0
    capsys.readouterr()
    calls = []
    real = climod._cmd_nourish

    def wrapper(args):
        calls.append(args.graph)
        return real(args)

    monkeypatch.setattr(climod, "_cmd_nourish", wrapper)
    assert main(["nourish", gp]) == 0
    assert calls == [gp]
    assert outcome_of(capsys)["nourishing_number"] == 3


def test_import_builds_no_parser_and_the_first_call_builds_it_once(tmp_path):
    # A fresh interpreter, so that no earlier test has filled the cache.
    script = """
import argparse
built = []
init = argparse.ArgumentParser.__init__

def counting(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counting
import iasi.cli
assert built == [], built
assert iasi.cli.main(["oracle", "lemma", "--max", "2"]) == 0
first = len(built)
assert iasi.cli.main(["oracle", "lemma", "--max", "2"]) == 0
assert first > 0 and len(built) == first, built
"""
    src = str(Path(iasi.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
