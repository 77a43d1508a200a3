"""The CLI's JSON writer against the standard library, the collector state
`main` hands back, and the inputs `iasi verify` refuses before checking
anything."""

import gc
import json
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from iasi import Graph, Labeling, verify, write_graph
from iasi.cli import main
from iasi.errors import to_json
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


@given(documents)
@example({})
@example([])
@example({"": [(), {}, []], "b": {"c": ""}, "a": [True, False, None, -0, 2**70]})
@example({"strong_edges": [(("a", "b"), True), (('"', "é\n"), False), (["a", "b"], True), "x"]})
def test_dumps_writes_the_bytes_of_json_dumps(doc):
    assert to_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


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
    assert to_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


ROWS = [((f"u{i}", f"é{i}"), i % 3 == 0) for i in range(9_999)]


@pytest.mark.parametrize("last", [(("a", "b"), 1), (["a", "b"], True), ("ab", True)])
def test_dumps_leaves_a_long_list_ending_in_a_near_row_to_the_general_path(last):
    doc = {"strong_edges": [*ROWS, last]}
    assert to_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_dumps_refuses_a_long_row_list_ending_in_a_float():
    with pytest.raises(TypeError):
        to_json([*ROWS, 1.5])


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
