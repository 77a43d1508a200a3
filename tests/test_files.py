import random

import pytest
from helpers import random_graph, reference_read_graph
from hypothesis import example, given
from hypothesis import strategies as st

import iasi.graph as graphmod
import iasi.labeling as labelingmod
from iasi import (
    Graph,
    IntSet,
    Labeling,
    petersen_graph,
    read_graph,
    read_labeling,
    write_graph,
    write_labeling,
)
from iasi.errors import ParseError


# ---------------------------------------------------------------------------
# graph files
# ---------------------------------------------------------------------------

def test_graph_write_then_read_round_trip():
    rng = random.Random(61)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 15), rng.choice([0.1, 0.4, 0.8]))
        assert read_graph(write_graph(g)) == g


def test_graph_writer_is_sorted_and_stable():
    g = Graph(["b", "a", "c"], [("c", "a"), ("b", "a")])
    text = write_graph(g)
    assert text == "p 3 2\nv a\nv b\nv c\na b\na c\n"
    assert write_graph(g) == text


def test_graph_parser_accepts_comments_and_isolated_vertices():
    g = read_graph("# a triangle plus a loner\np 4 3\nv d\na b\nb c\nc a\n")
    assert g.vertices == {"a", "b", "c", "d"}
    assert g.isolated_vertices() == ["d"]


def test_graph_parser_header_optional():
    g = read_graph("x y\n")
    assert g.edges == frozenset({("x", "y")})


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("p 2 2 2\na b\n", "header"),
        ("p 3 1\na b\n", "header says"),
        ("a a\n", "self-loop"),
        ("a b c\n", "unrecognized"),
        ("v\n", "vertex line"),
        ("p 1 0\np 1 0\n", "duplicate"),
        ("p ² 1\na b\n", "header"),
        ("p ٢ 1\na b\n", "header"),
        ("v p\n", "reserved"),
    ],
)
def test_graph_parser_rejects(text, fragment):
    with pytest.raises(ParseError) as exc:
        read_graph(text)
    assert fragment in str(exc.value)


def test_graph_parse_error_has_line_number():
    cases = [
        ("a b\n\nc c\n", 3),
        # A reserved name is reported where it first appears, a header count
        # mismatch at its header.
        ("a b\nv p\n", 2),
        ("a #b\n", 1),
        ("a b\nc v\nv #q\nd p\n", 2),
        ("# a path\n\np 3 1\na b\n", 3),
        ("p 2 1\na p\n", 2),
        ("v a\nb v\n", 2),
    ]
    for text, line in cases:
        with pytest.raises(ParseError) as exc:
            read_graph(text)
        assert exc.value.line == line, text


# Edge lines, vertex lines, headers (good, malformed, repeated), comments,
# blank lines, reserved names and self-loops, over a few names, with tabs,
# Unicode spaces and every kind of line break.
spaces = st.sampled_from([" ", "  ", "\t", "\x1f", "\xa0", "\u2003", "\u3000"])
line_breaks = st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1e", "\x85", "\u2028"])
# Names other than the reserved ones are longer than one character: CPython
# keeps one object per one-character string, which would hide a parser that
# stores each occurrence of a name as its own string.
names = st.sampled_from(["ab", "bc", "cab", "pv", "éé", "a:b", "p", "v", "#", "#q"])
counts = st.sampled_from(["0", "1", "2", "3", "4", "x", "²", "٢"])
line_tokens = st.one_of(
    st.tuples(names, names).map(list),  # edges, self-loops, both orientations
    st.tuples(st.just("v"), names).map(list),
    st.tuples(st.just("p"), counts, counts).map(list),
    st.lists(st.sampled_from(["p", "v"]) | names | counts, max_size=3),
    st.tuples(st.sampled_from(["#", "# note", "#a"]), names).map(list),
)


@st.composite
def graph_texts(draw):
    lines = []
    for tokens in draw(st.lists(line_tokens, max_size=10)):
        pad = draw(st.sampled_from(["", " ", "\t"]))
        lines.append(pad + draw(spaces).join(tokens) + pad + draw(line_breaks))
    return "".join(lines)


# Well-formed texts, of which the strategy above draws few (about one text in
# eight parses): edges between two unreserved names, `v` lines, comments and
# blank lines in any order, and a header with the right counts or none.  Most
# draws name a vertex on two lines, where the parser must keep one string
# object per name.
plain_names = st.sampled_from(["ab", "bc", "cab", "pv", "éé", "a:b", "vv"])


@st.composite
def well_formed_graph_texts(draw):
    edges = draw(st.lists(st.tuples(plain_names, plain_names).filter(lambda e: e[0] != e[1])))
    loners = draw(st.lists(plain_names, max_size=3))
    lines = [draw(spaces).join(e) for e in edges] + [f"v{draw(spaces)}{v}" for v in loners]
    lines += draw(st.lists(st.sampled_from(["", "#", "# note", "#a b", "\t"]), max_size=3))
    lines = draw(st.permutations(lines))
    if draw(st.booleans()):
        names = {v for e in edges for v in e}.union(loners)
        header = f"p {len(names)} {len({frozenset(e) for e in edges})}"
        lines.insert(draw(st.integers(0, len(lines))), header)
    return "".join(line + draw(line_breaks) for line in lines)


def _parse(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return exc


def _message(exc: ParseError) -> str:
    return str(exc).split(": ", 1)[1]


@given(graph_texts() | well_formed_graph_texts())
@example("p 3 1\na b\nb a\na b\nv c\n")
@example("v #q\nv p\n")
@example("p 2 1\nb a\n")
@example("p 3 1\na b\n")
@example("v pv\na pv\n")
# Line shapes at the edge of the two-token fast path.
@example("ab ab\n")
@example("ab\tab\n")
@example("p 3\nab cd\n")
@example("p 1 2 3\nab cd\n")
@example("ab cd\nv\n")
@example("v ab cd\n")
@example("#ab cd\nab cd\n")
@example("ab #cd\n")
@example("ab cd\nx y z\n")
@example("ab cd\n a   b   c \n")
@example(" \t \nab cd\r\n\u3000\r\nv ef\r\n")
@example("ab cd\x1ccd ef\u2028ef ab\x1c")
@example("p 3 3\nab cd\ncd ab\nv ef\n")
def test_read_graph_agrees_with_the_reference_parser(text):
    want, got = _parse(reference_read_graph, text), _parse(read_graph, text)
    if isinstance(want, Graph):
        assert got == want
        assert all(got.neighbors(v) == want.neighbors(v) for v in want.vertices)
        # One string object per name: every endpoint and neighbour is the
        # vertex's own.
        own = {v: v for v in got.vertices}
        assert all(own[x] is x for e in got.edges for x in e)
        assert all(own[w] is w for v in got.vertices for w in got.neighbors(v))
        return
    assert isinstance(got, ParseError), got
    lines = [raw.split() for raw in text.splitlines()]
    if "is reserved" in _message(want):
        # The reference reports line 1 and whichever reserved name its set
        # yields first; the parser, the first to appear and its line.  Every
        # line parsed, so a reserved name is the second of two tokens on a
        # line that is not a comment.
        line, name = next(
            (i, t[1])
            for i, t in enumerate(lines, start=1)
            if len(t) == 2 and t[0][0] != "#" and (t[1] in ("p", "v") or t[1][0] == "#")
        )
        assert (got.line, _message(got)) == (
            line, f"vertex name {name!r} is reserved by the graph file format"
        )
    elif _message(want).startswith("header says"):
        # The reference reports line 1; the parser, the header's line.
        header = next(i for i, t in enumerate(lines, start=1) if t[:1] == ["p"])
        assert (got.line, _message(got)) == (header, _message(want))
    else:
        assert (got.line, _message(got)) == (want.line, _message(want))


# Canonical texts, the shape `write_graph` and the bench write (an optional
# header, `v` lines, then edge lines, one space and one newline each), each
# with at most one mutation that moves it off the whole-text path.
MUTATIONS = [
    None, "space", "line break", "blank", "comment", "late v", "self-loop", "reserved",
    "header count", "second header", "no final newline", "split line",
]


@st.composite
def canonical_graph_texts(draw):
    edges = draw(st.lists(st.tuples(plain_names, plain_names).filter(lambda e: e[0] != e[1]), min_size=1))
    loners = draw(st.lists(plain_names, max_size=3))
    lines = [f"v {v}" for v in loners] + [" ".join(e) for e in edges]
    names = {v for e in edges for v in e}.union(loners)
    header = [len(names), len({frozenset(e) for e in edges})]
    headed = draw(st.booleans())
    mutation = draw(st.sampled_from(MUTATIONS))
    at = draw(st.integers(0, len(lines)))  # where a mutation puts or changes a line
    name = draw(plain_names)
    if mutation == "space":
        lines[at - 1] = lines[at - 1].replace(" ", draw(spaces.filter(lambda c: c != " ")), 1)
    elif mutation == "blank":
        lines.insert(at, "")
    elif mutation == "comment":
        lines.insert(at, draw(st.sampled_from(["#", "# note", "#ab bc"])))
    elif mutation == "late v":
        lines.insert(max(at, len(loners) + 1), f"v {name}")
    elif mutation == "self-loop":
        lines.insert(at, f"{name} {name}")
    elif mutation == "reserved":
        lines.insert(at, f"{name} {draw(st.sampled_from(['p', 'v', '#q']))}")
    elif mutation == "header count":
        header[draw(st.integers(0, 1))] += draw(st.sampled_from([-1, 1]))
        headed = True
    elif mutation == "second header":
        lines.insert(at, f"p {header[0]} {header[1]}")
    elif mutation == "split line":  # "a b" and "c d" as "a b c" and "d"
        lines.append(f"{name} zz")
        at = min(at, len(lines) - 2)
        first, rest = lines[at + 1].split(" ", 1)
        lines[at:at + 2] = [f"{lines[at]} {first}", rest]
    if headed:
        lines.insert(0, f"p {header[0]} {header[1]}")
    ends = ["\n"] * len(lines)
    if mutation == "line break":
        ends[at - 1] = draw(line_breaks.filter(lambda b: b != "\n"))
    elif mutation == "no final newline":
        ends[-1] = ""
    return "".join(map(str.__add__, lines, ends))


@given(canonical_graph_texts())
@example("p 3 2\nv cab\nab bc\nbc ab\nab cab\n")  # none: read whole
@example("ab\tbc\n")  # space
@example("ab\u3000bc\nbc cab\n")
@example("ab bc\r\nbc cab\n")  # line break
@example("ab bc\u2028bc cab\n")
@example("ab bc\n\nbc cab\n")  # blank
@example("# note\nab bc\n")  # comment
@example("ab bc\nv cab\n")  # late v
@example("p 2 1\nab bc\nbc bc\n")  # self-loop
@example("ab p\n")  # reserved
@example("v ab\nab v\n")
@example("ab #q\n")
@example("p 2 2\nab bc\n")  # header count
@example("p 2 1\nab bc\np 2 1\n")  # second header
@example("p 2 1\nab bc")  # no final newline
@example("ab bc cab\nbc\n")  # split line
def test_whole_text_graph_reader_agrees_with_the_line_reader(text):
    want, got = _parse(graphmod._read_lines, text), _parse(read_graph, text)
    if isinstance(want, ParseError):
        assert isinstance(got, ParseError), got
        assert (got.message, got.line) == (want.message, want.line)
        return
    assert got == want
    own = {v: v for v in got.vertices}
    assert all(own[x] is x for e in got.edges for x in e)
    assert all(own[w] is w for v in got.vertices for w in got.neighbors(v))


def _graph_line_reader_refused(text):
    raise AssertionError(f"not read in one pass: {text!r}")


@pytest.mark.parametrize(
    "text",
    [
        write_graph(petersen_graph()),
        # The bench's shape: sorted `v` lines, each edge's ends sorted, the edge lines not.
        "p 5 4\nv ab\nv bc\nv cab\nv pv\nv vv\nbc pv\nab cab\ncab vv\nab bc\n",
        "pv ab\nab cab\ncab pv\n",
    ],
)
def test_canonical_graph_texts_are_read_in_one_pass(text, monkeypatch):
    want = graphmod._read_lines(text)
    monkeypatch.setattr(graphmod, "_read_lines", _graph_line_reader_refused)
    assert read_graph(text) == want


# ---------------------------------------------------------------------------
# labeling files
# ---------------------------------------------------------------------------

def test_labeling_round_trip():
    f = Labeling({"a": IntSet([0, 2, 5]), "b": IntSet([7])})
    assert read_labeling(write_labeling(f)) == f


def test_labeling_writer_canonical():
    f = Labeling({"b": IntSet([3, 1]), "a": IntSet([2])})
    assert write_labeling(f) == "a: {2}\nb: {1,3}\n"


def test_labeling_parser_tolerates_whitespace():
    f = read_labeling("# comment\n  a :  { 1 , 2 }\nb: {0}\n")
    assert f["a"] == IntSet([1, 2])


@pytest.mark.parametrize(
    "text",
    [
        "a {1,2}\n", "a: {1,2\n", "a: {}\n", "a: {2,1}\n", "a: {1,2}\na: {3}\n", ": {1}\n",
        "a: {1,٣}\n", "a: {1,²}\n",
    ],
)
def test_labeling_parser_rejects(text):
    with pytest.raises(ParseError):
        read_labeling(text)


def test_labeling_round_trips_names_containing_colons():
    f = Labeling({"a⊙0:b": IntSet([1, 4]), "c": IntSet([2])})
    assert read_labeling(write_labeling(f)) == f


# Lines on either side of the canonical shape `name: {a,b,...}`.
LABELING_LINES = [
    "#a: {1}", " a: {1}", "a: {1} ", "a:{1}", "a:  {1}", "a: { 1,2 }", "a: {1, 2}", "a: {1,,2}",
    "a: {1,}", "a: {2,1}", "a: {1,1}", "a: {}", "a: {007}", "a: {0,010}", "a: {٣}", "a: {²}",
    "a: {+1}", "a: {1_0}", "a: {1," + "7" * 5000 + "}", "a⊙0:b: {1}", "a:: {1}", "a: {1}: {2}",
    "a\u3000b: {1}", "a\x1cb: {1}", "a\u2028b: {1}", "a\u00a0: {1}", "a: {1}\r\nz: {2}\r",
    "a: {1}\nb: {3}\na: {2}", "a: {1}\n\n\n", "a: {1}\n# note", "{1}: {2}", ": {1}", "a",
]


def _read_or_error(read, text):
    try:
        return read(text)
    except ParseError as exc:
        return exc.message, exc.line, exc.column


@pytest.mark.parametrize("line", LABELING_LINES)
def test_canonical_labeling_reader_agrees_with_the_line_reader(line):
    # Alone, closed by a newline, and after or before a canonical line.
    for text in (line, line + "\n", "x: {0}\n" + line + "\n", line + "\ny: {5}\n"):
        want = _read_or_error(labelingmod._read_lines, text)
        assert _read_or_error(read_labeling, text) == want, text


def _line_reader_refused(text):
    raise AssertionError(f"not read as canonical: {text!r}")


@pytest.mark.parametrize("text", ["", "a: {007}\n", "a⊙0:b: {1}\na:: {2,9}\n"])
def test_canonical_texts_are_not_read_line_by_line(text, monkeypatch):
    want = labelingmod._read_lines(text)
    monkeypatch.setattr(labelingmod, "_read_lines", _line_reader_refused)
    assert read_labeling(text) == want


def test_labeling_parse_error_position():
    with pytest.raises(ParseError) as exc:
        read_labeling("a: {1,2}\nb: {4,3}\n")
    assert exc.value.line == 2


# ---------------------------------------------------------------------------
# properties: every text parses or fails with ParseError; write -> read = id
# ---------------------------------------------------------------------------

# Keywords, format characters, ASCII and non-ASCII digits, and any other text.
format_text = st.lists(
    st.sampled_from(["p ", "v ", "#", ":", "{", "}", ",", " ", "\n", "a", "1", "٣", "²"])
    | st.text(max_size=3),
    max_size=20,
).map("".join)


@given(format_text)
def test_parsers_give_a_value_or_parse_error(text):
    for parse in (read_graph, read_labeling):
        try:
            parse(text)
        except ParseError:
            pass


def _is_vertex_name(name):
    try:
        Graph([name])
    except ValueError:
        return False
    return True


vertex_names = st.text(min_size=1, max_size=6).filter(_is_vertex_name)


@st.composite
def graphs(draw):
    names = draw(st.lists(vertex_names, min_size=1, max_size=8, unique=True))
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1 :]]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    return Graph(names, edges)


@given(graphs())
def test_graph_write_then_read_is_identity(g):
    assert read_graph(write_graph(g)) == g


@given(
    st.dictionaries(
        vertex_names,
        st.frozensets(st.integers(min_value=0), min_size=1, max_size=5).map(IntSet),
        min_size=1,
        max_size=8,
    )
)
def test_labeling_write_then_read_is_identity(assignment):
    f = Labeling(assignment)
    assert read_labeling(write_labeling(f)) == f


@given(
    st.dictionaries(
        vertex_names,
        st.frozensets(st.integers(min_value=0), min_size=1, max_size=5).map(IntSet),
        min_size=1,
        max_size=8,
    )
)
def test_written_labelings_take_the_canonical_path(assignment):
    f = Labeling(assignment)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(labelingmod, "_read_lines", _line_reader_refused)
        assert read_labeling(write_labeling(f)) == f
