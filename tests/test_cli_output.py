"""The CLI's JSON writer against the standard library, the collector state
`main` hands back, and the inputs `iasi verify` refuses before checking
anything."""

import gc
import json
import os
import random
from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from iasi import Graph, Labeling, complement, verify, write_graph, write_labeling
from iasi import cli as climod
from iasi.cli import main
from iasi.errors import _EdgeRows, to_json
from iasi.setalg import IntSet

strings = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\x00\x08\x1f\n\t\x7fé€λ😀'), st.characters())
)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), strings)
# ((u, v), ok), the edge rows of a report, which the writer formats from a
# template, and shapes close to one, which it must leave to its general path.
rows = st.tuples(st.tuples(strings, strings), st.booleans())
near_rows = st.one_of(
    st.tuples(st.tuples(strings, scalars), scalars),
    st.tuples(st.lists(strings, min_size=2, max_size=2), st.booleans()),
    st.tuples(st.tuples(strings, strings, strings), st.booleans()),
    st.tuples(st.tuples(strings, strings), st.booleans(), scalars),
)
documents = st.recursive(
    st.one_of(scalars, st.lists(rows)),
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(strings, children),
        st.lists(st.one_of(rows, near_rows, children)),
    ),
    max_leaves=40,
)


def assert_same_text(got: str, want: str) -> None:
    """`got == want`, failing with the first offset where they differ and
    about 80 characters around it: pytest's own report of a failed `==`
    diffs the two strings, which for a 1 MB document runs for minutes."""
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        lo, hi = max(at - 40, 0), at + 40
        pytest.fail(
            f"texts differ at offset {at} (lengths {len(got)} and {len(want)}):\n"
            f"  got:  {got[lo:hi]!r}\n  want: {want[lo:hi]!r}",
            pytrace=False,
        )


@given(documents)
@example({})
@example([])
@example({"": [(), {}, []], "b": {"c": ""}, "a": [True, False, None, -0, 2**70]})
@example({"strong_edges": [(("a", "b"), True), (('"', "é\n"), False), (["a", "b"], True), "x"]})
def test_dumps_writes_the_bytes_of_json_dumps(doc):
    assert_same_text(to_json(doc), json.dumps(doc, indent=2, sort_keys=True))


@pytest.mark.parametrize("doc", [1.5, {1: "a"}, [{"a": {2}}], b"x"])
def test_dumps_refuses_other_types(doc):
    with pytest.raises(TypeError):
        to_json(doc)


def test_dumps_writes_a_large_verify_report_as_json_dumps():
    # Sizes the property never draws: a seeded report of 10,000 edges with
    # weak edges and witnesses, the shape `iasi verify` prints.
    rng = random.Random(18)
    names = [f"v{i}" if i % 7 else f"λ{i}" for i in range(400)]
    edges = set()
    while len(edges) < 10_000:
        edges.add(tuple(sorted(rng.sample(names, 2))))
    labels = {v: IntSet(rng.sample(range(60), rng.randint(1, 3))) for v in names}
    report = verify(Graph(names, sorted(edges)), Labeling(labels))
    doc = {"property": "strong", "holds": report.is_strong, "report": report.to_dict()}
    rows = doc["report"]["strong_edges"]
    assert len(rows) == 10_000 and not all(ok for _, ok in rows) and doc["report"]["witnesses"]
    assert_same_text(to_json(doc), json.dumps(doc, indent=2, sort_keys=True))


ROWS = [((f"u{i}", f"é{i}"), i % 3 == 0) for i in range(9_999)]


@pytest.mark.parametrize("last", [(("a", "b"), 1), (["a", "b"], True), ("ab", True)])
def test_dumps_leaves_a_long_list_ending_in_a_near_row_to_the_general_path(last):
    doc = {"strong_edges": [*ROWS, last]}
    assert_same_text(to_json(doc), json.dumps(doc, indent=2, sort_keys=True))


def test_dumps_refuses_a_long_row_list_ending_in_a_float():
    with pytest.raises(TypeError):
        to_json([*ROWS, 1.5])


def _verify_outcome(tmp_path, mode: str) -> dict:
    """The outcome `iasi verify` builds, before it is written: a seeded
    G(30, 0.5) with names that need escaping, `v10` sorting before `v2`,
    and labels that make some edges weak."""
    rng = random.Random(32)
    names = [f"v{i}" if i % 4 else f"é{i}\"" for i in range(30)]
    g = Graph(names, [])
    while not g.edges or complement(g).isolated_vertices() or g.isolated_vertices():
        g = Graph(names, [e for e in combinations(names, 2) if rng.random() < 0.5])
    labels = {v: IntSet(rng.sample(range(40), rng.randint(1, 3))) for v in names}
    gp, fp = tmp_path / "g.graph", tmp_path / "f.labeling"
    gp.write_text(write_graph(g), encoding="utf-8")
    fp.write_text(write_labeling(Labeling(labels)), encoding="utf-8")
    args = climod._parser().parse_args(["verify", str(gp), str(fp), mode])
    return climod._cmd_verify(args)[1]


@pytest.mark.parametrize("mode", ["--strong", "--concurrent"])
def test_dumps_writes_a_verify_outcome_as_json_dumps_whatever_list_holds_its_rows(tmp_path, mode):
    outcome = _verify_outcome(tmp_path, mode)
    reports = [outcome[k] for k in ("report", "complement_report") if k in outcome]
    assert len(reports) == (2 if mode == "--concurrent" else 1)
    assert all(type(r["strong_edges"]) is _EdgeRows for r in reports)
    rows = [ok for r in reports for _, ok in r["strong_edges"]]
    assert True in rows and False in rows
    want = json.dumps(outcome, indent=2, sort_keys=True)
    assert_same_text(to_json(outcome), want)
    # The same rows in a plain list go through the general path, to the same text.
    for r in reports:
        r["strong_edges"] = list(r["strong_edges"])
    assert_same_text(to_json(outcome), want)
    # The typed list holding no rows.
    for r in reports:
        r["strong_edges"] = _EdgeRows()
    assert_same_text(to_json(outcome), json.dumps(outcome, indent=2, sort_keys=True))
    assert to_json(_EdgeRows()) == to_json([]) == "[]"


@pytest.mark.parametrize("mode", [[], ["--strong"], ["--concurrent"]])
def test_verify_refuses_labels_of_vertices_the_graph_lacks(tmp_path, capsys, mode):
    gp, fp = tmp_path / "k2.g", tmp_path / "k2.l"
    gp.write_text(write_graph(Graph(["a", "b"], [("a", "b")])))
    fp.write_text("a: {0,1}\nb: {0,2}\nzz: {0,1}\n")
    assert main(["verify", str(gp), str(fp), *mode]) == 2
    captured = capsys.readouterr()
    assert "zz" in captured.err and captured.out == ""


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "labels,code",
    [("a: {0,1}\nb: {0,2}\n", 0), ("a: {0,1}\nb: {0,1,2}\n", 1), ("a: {0,1}\nzz: {0,2}\n", 2)],
)
def test_main_hands_back_the_collector_state_it_found(tmp_path, enabled, labels, code):
    gp, fp = tmp_path / "k2.g", tmp_path / "k2.l"
    gp.write_text(write_graph(Graph(["a", "b"], [("a", "b")])))
    fp.write_text(labels)
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert main(["verify", str(gp), str(fp), "--strong"]) == code
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
