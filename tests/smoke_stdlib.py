"""Stdlib-only smoke run of the CLI, with no install and no site-packages.

Run from anywhere with `python -S tests/smoke_stdlib.py`; it exits non-zero
on the first failed check.  Pytest does not collect it (its name does not
match test_*.py), so the suite and this script stay independent.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from iasi.cli import main  # noqa: E402
from iasi.errors import ParseError  # noqa: E402
from iasi.graph import Graph, cartesian_product, corona, read_graph, write_graph  # noqa: E402
from iasi.labeling import chain_report, read_labeling, verify  # noqa: E402


def run(argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def outcome(argv: list[str], exit_code: int = 0) -> dict:
    """The `outcome` block of a `--format json` call that exits `exit_code`."""
    code, out = run([*argv, "--format", "json"])
    assert code == exit_code, (argv, code)
    return json.JSONDecoder().raw_decode(out)[0]["outcome"]


def write(directory: Path, name: str, text: str) -> str:
    path = directory / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def smoke(directory: Path) -> None:
    # The plain runs below must not checkpoint; the caller's value, if any,
    # is put back at the end.
    inherited = os.environ.pop("IASI_ORACLE_CHECKPOINT_DIR", None)
    try:
        checks(directory)
    finally:
        if inherited is not None:
            os.environ["IASI_ORACLE_CHECKPOINT_DIR"] = inherited


def checks(directory: Path) -> None:
    assert run(["oracle", "lemma", "--max", "10"])[0] == 0

    # A strong labeling of K2 through the graph parser, the edge-row writer
    # and the GC pause, and κ of K2 through the clique search.  Every call
    # here shares one parser; each keeps its own exit code.
    k2 = write(directory, "k2.graph", "p 2 1\na b\n")
    k2_labeling = write(directory, "k2.labeling", "a: {0,1}\nb: {0,2}\n")
    assert run(["verify", k2, k2_labeling, "--strong"])[0] == 0
    assert run(["nourish", k2])[0] == 0
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            main(["nourish", k2, "--no-such-option"])
    except SystemExit as exc:
        assert exc.code == 2, exc.code
    else:
        raise AssertionError("an unknown option did not exit")
    assert run(["oracle", "lemma", "--max", "3"])[0] == 0

    # One graph through both paths of `read_graph`: its canonical text, read
    # in one pass, and a commented, tabbed text, read line by line.
    canonical = "p 4 4\nv a\nv b\nv c\nv d\na b\na d\nb c\nc d\n"
    commented = "# C4\n\nv d\na\tb\r\nb c  \n\tc d\nd a\n"
    cycle = Graph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    assert read_graph(canonical) == read_graph(commented) == cycle
    assert write_graph(read_graph(commented)) == canonical

    # The JSON writer's bytes against the standard library's: a path a-é-c
    # whose edge é-c is weak, so the report holds both row flags and a
    # witness, and a name that is escaped as \u00e9.
    p3 = write(directory, "p3.graph", "p 3 2\na é\né c\n")
    p3_labeling = write(directory, "p3.labeling", "a: {0,1}\né: {0,2}\nc: {0,1,2}\n")
    code, out = run(["verify", p3, p3_labeling, "--strong", "--format", "json"])
    doc, end = json.JSONDecoder().raw_decode(out)
    report = doc["outcome"]["report"]
    assert code == 1 and report["witnesses"], (code, doc)
    assert report["strong_edges"] == [[["a", "é"], True], [["c", "é"], False]], report
    assert out[:end] == json.dumps(doc, indent=2, sort_keys=True), out

    # The concurrent report, which prints two row lists: a path a-é-c-d,
    # strong on itself and weak on two edges of its complement.
    p4e = write(directory, "p4e.graph", "p 4 3\na é\né c\nc d\n")
    p4e_labeling = write(directory, "p4e.labeling", "a: {0,1}\né: {0,2}\nc: {0,4}\nd: {0,1,3}\n")
    code, out = run(["verify", p4e, p4e_labeling, "--concurrent", "--format", "json"])
    doc, end = json.JSONDecoder().raw_decode(out)
    got = doc["outcome"]
    assert code == 1 and got["report"]["is_strong"] and got["complement_report"]["witnesses"], got
    assert [ok for _, ok in got["complement_report"]["strong_edges"]] == [True, False, False], got
    assert out[:end] == json.dumps(doc, indent=2, sort_keys=True), out

    # κ by exhaustive search, which sweeps one labeling per automorphism
    # orbit, against the value and count of the full sweep: K4 (every vertex
    # in vertex 0's orbit), K1,3 with a leaf as vertex 0, and C5, whose
    # rotations are the first symmetries here that swap no twins.  C5's
    # minimum is 3 against ω = 2, the pinned pentagon case, so it exits 1.
    # P4 and the paw are named so that the search order, which every oracle
    # sweeps in, is not the sorted one.  Every run gets one bundle directory,
    # so C5's disagreement alone writes there: its graph, a witness strong on
    # it with longest chain 3, and the report.
    bundle = directory / "bundle"
    write(directory, "k4.graph", "p 4 6\na b\na c\na d\nb c\nb d\nc d\n")
    write(directory, "k13.graph", "p 4 3\nc a\nc b\nc d\n")
    write(directory, "c5.graph", "p 5 5\na b\nb c\nc d\nd e\na e\n")
    write(directory, "p4.graph", "p 4 3\na b\nb c\nc d\n")
    write(directory, "paw.graph", "p 4 4\na d\nb c\nb d\nc d\n")
    for name, top, value, count, code in [
        ("k4", "5", 4, 6576, 0), ("k13", "5", 2, 17136, 0), ("c5", "6", 3, 938980, 1),
        ("p4", "6", 2, 82264, 0), ("paw", "6", 3, 65912, 0),
    ]:
        graph = str(directory / f"{name}.graph")
        got = outcome(["oracle", "minchain", graph, "--max", top, "--bundle-dir", str(bundle)], code)
        assert (got["value"], got["strong_labelings"]) == (value, count), (name, got)
    stem = bundle / "minchain-disagreement"
    names = ["graph.txt", "labeling.txt", "report.json"]
    assert sorted(bundle.iterdir()) == [Path(f"{stem}.{x}") for x in names], list(bundle.iterdir())
    g = read_graph(Path(f"{stem}.graph.txt").read_text(encoding="utf-8"))
    f = read_labeling(Path(f"{stem}.labeling.txt").read_text(encoding="utf-8"))
    assert g == read_graph((directory / "c5.graph").read_text(encoding="utf-8")), g
    assert verify(g, f).is_strong and chain_report(g, f).max_chain_length == 3, f

    # The sweep's shapes at its last two vertices: K2, where vertex 0 is
    # the one placed before them, and P3, against the counts of the full
    # sweep.
    for graph, count in ((k2, 644), (p3, 14252)):
        got = outcome(["oracle", "minchain", graph, "--max", "7"])
        assert (got["value"], got["strong_labelings"]) == (2, count), (graph, got)

    # Two refused writes that leave nothing: construct's --output and
    # --trace naming one file, and C5's bundle into a new directory beside
    # a report that cannot be written.
    same, lost = directory / "same.out", directory / "lost" / "bundle"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run(["construct", k2, "--output", str(same), "--trace", str(same)]) == (2, "")
        c5 = ["oracle", "minchain", str(directory / "c5.graph"), "--max", "5", "--bundle-dir", str(lost)]
        assert run([*c5, "--output", str(directory / "missing" / "c5.json")]) == (2, "")
    assert not same.exists() and not lost.parent.exists(), err.getvalue()
    assert err.getvalue().count("error: ") == 2, err.getvalue()

    # A minchain checkpoint round trip through $IASI_ORACLE_CHECKPOINT_DIR,
    # the one switch: a sweep writes one file, a second run resumes from it
    # to the same outcome, and the file with its best chain out of range
    # exits 2 naming it.
    k4 = ["oracle", "minchain", str(directory / "k4.graph"), "--max", "5"]
    plain = outcome(k4)
    checkpoints = directory / "checkpoints"
    os.environ["IASI_ORACLE_CHECKPOINT_DIR"] = str(checkpoints)
    try:
        swept = outcome(k4)
        (path,) = checkpoints.glob("minchain-*.json")
        resumed = outcome(k4)
        assert plain == swept == resumed, (plain, swept, resumed)
        state = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**state, "best": -1}), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(k4)[0] == 2
        assert str(path) in err.getvalue(), err.getvalue()
    finally:
        del os.environ["IASI_ORACLE_CHECKPOINT_DIR"]

    # The concurrent search on C4 and on the badly named P4, one labeling
    # per orbit of their automorphisms and the mirror, against the count of
    # the full sweep.
    c4 = write(directory, "c4.graph", "p 4 4\na b\nb c\nc d\na d\n")
    for graph in (c4, str(directory / "p4.graph")):
        got = outcome(["oracle", "concurrent", graph, "--max", "6"])
        assert (got["witnesses_found"], got["all_witnesses_pairwise_disjoint"]) == (38976, True), got

    # K2 x P3 and K2 corona P3 through `Graph._trusted` and the edge walk
    # of `write_graph`, each file re-read and checked against the outcome's
    # counts and the library's own product or corona of the inputs.  The
    # library's graph is written before its edge set is first derived: the
    # `p` line counts from the neighbour table, and the edge set derived
    # after it rebuilds the same graph through the checking constructor.
    factors = [read_graph(Path(path).read_text(encoding="utf-8")) for path in (k2, p3)]
    for op, build in (("product", cartesian_product), ("corona", corona)):
        target = directory / f"{op}.graph"
        got = outcome(["ops", op, k2, p3, "--output", str(target)])
        g = read_graph(target.read_text(encoding="utf-8"))
        assert (len(g.vertices), len(g.edges)) == (got["vertices"], got["edges"]), (op, got)
        r = build(*factors)
        text = write_graph(r)
        assert r._edges is None and read_graph(text) == r == g, op
        assert text.split("\n", 1)[0] == f"p {len(r.vertices)} {len(r.edges)}", (op, text)
        assert Graph(r.vertices, r.edges) == r, op

    # nourish --output against the outcome it prints.
    report = directory / "nourish.json"
    printed = outcome(["nourish", k2, "--output", str(report)])
    written = json.loads(report.read_text(encoding="utf-8"))
    assert written == printed, (written, printed)

    # The two artifacts --output writes instead of the outcome block: K4's
    # labeling, re-read and verified strong, and a union graph whose counts
    # are the printed ones.
    k4 = str(directory / "k4.graph")
    labeling = directory / "k4.labeling"
    built = outcome(["construct", k4, "--output", str(labeling)])
    assert built["labeling_file"] == str(labeling) and "labeling_text" not in built, built
    # Read as written, one match per line, and hand-edited, line by line,
    # where a bad element is reported at its line and column.
    text = labeling.read_text(encoding="utf-8")
    assert sorted(read_labeling(text).vertices()) == list("abcd")
    edited = "# K4\n" + text.replace(": {", " :  { ").replace(",", " , ")
    assert edited != text and read_labeling(edited) == read_labeling(text)
    try:
        read_labeling(text + "e : {2,x}\n")
    except ParseError as exc:
        assert (exc.line, exc.column, exc.message) == (5, 8, "invalid set element 'x'"), exc
    else:
        raise AssertionError("a bad element was read")
    assert run(["verify", k4, str(labeling), "--strong"])[0] == 0
    union = directory / "union.graph"
    got = outcome(["ops", "union", k2, str(directory / "p4.graph"), "--output", str(union)])
    g = read_graph(union.read_text(encoding="utf-8"))
    assert "graph_text" not in got and (len(g.vertices), len(g.edges)) == (got["vertices"], got["edges"]), got


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        smoke(Path(tmp))
    print("stdlib smoke: ok")
