"""The CLI's JSON writer against the standard library, the collector state
`main` hands back, and the inputs `iasi verify` refuses before checking
anything."""

import gc
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from iasi import Graph, write_graph
from iasi.cli import main
from iasi.errors import to_json

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
