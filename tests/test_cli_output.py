"""The CLI's JSON writer against the standard library, and the inputs
`iasi verify` refuses before checking anything."""

import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from iasi import Graph, write_graph
from iasi.cli import _dumps, main

strings = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\x00\x08\x1f\n\t\x7fé€λ😀'), st.characters())
)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), strings)
documents = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(strings, children),
    ),
    max_leaves=40,
)


@given(documents)
@example({})
@example([])
@example({"": [(), {}, []], "b": {"c": ""}, "a": [True, False, None, -0, 2**70]})
def test_dumps_writes_the_bytes_of_json_dumps(doc):
    assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [1.5, {1: "a"}, [{"a": {2}}], b"x"])
def test_dumps_refuses_other_types(doc):
    with pytest.raises(TypeError):
        _dumps(doc)


@pytest.mark.parametrize("mode", [[], ["--strong"], ["--concurrent"]])
def test_verify_refuses_labels_of_vertices_the_graph_lacks(tmp_path, capsys, mode):
    gp, fp = tmp_path / "k2.g", tmp_path / "k2.l"
    gp.write_text(write_graph(Graph(["a", "b"], [("a", "b")])))
    fp.write_text("a: {0,1}\nb: {0,2}\nzz: {0,1}\n")
    assert main(["verify", str(gp), str(fp), *mode]) == 2
    captured = capsys.readouterr()
    assert "zz" in captured.err and captured.out == ""
