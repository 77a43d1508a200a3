"""Set-valued vertex labelings and their verification.

A labeling assigns a nonempty IntSet to every vertex.  It is an integer
additive set-indexer (IASI) when the vertex map and the induced edge map
uv -> f(u) + f(v) are both injective, and a *strong* IASI when additionally
every edge sumset has cardinality |f(u)| * |f(v)|.  The verifier recomputes
everything and reports every violation, as evidence for structural theorems.
It reads strength from difference sets and keys edge injectivity by each
sumset's minimum, then its fingerprint.  A text as `write_labeling` writes
it is read one regex match per line, any other text line by line.

The chain machinery looks at difference sets: vertices whose difference
sets are nonempty and pairwise disjoint form a chain, and the longest chain
is the clique number of an auxiliary disjointness graph.  Singleton labels
(empty difference set) are left out, or every family would be disjoint.
"""

from __future__ import annotations

import re
from operator import ge
from typing import Iterator, Mapping

from . import graph as graphmod
from .errors import InternalCheckError, ParseError, _EdgeRows, _immutable, _Record
from .graph import Graph, clique_number, complement
from .setalg import IntSet, _sharing, diff_set, parse_int_set, scale, sumset

__all__ = [
    "Labeling",
    "VerificationReport",
    "ChainReport",
    "verify",
    "verify_uniform",
    "chain_report",
    "nourishing_number",
    "verify_concurrent_strong",
    "read_labeling",
    "write_labeling",
]

Edge = tuple[str, str]


class Labeling:
    """Immutable map from vertex names to nonempty IntSets."""

    __slots__ = ("_assignment",)

    def __init__(self, assignment: Mapping[str, IntSet]):
        checked = {}
        for v, s in assignment.items():
            if not isinstance(s, IntSet):
                raise ValueError(f"label of {v!r} is not an IntSet")
            if len(s) == 0:
                raise ValueError(f"label of {v!r} is empty")
            checked[v] = s
        object.__setattr__(self, "_assignment", dict(sorted(checked.items())))

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        return Labeling, (self._assignment,)

    def __getitem__(self, v: str) -> IntSet:
        return self._assignment[v]

    def __iter__(self) -> Iterator[str]:
        return iter(self._assignment)

    def __len__(self) -> int:
        return len(self._assignment)

    def __contains__(self, v) -> bool:
        return v in self._assignment

    def __eq__(self, other) -> bool:
        return isinstance(other, Labeling) and self._assignment == other._assignment

    def __hash__(self) -> int:
        return hash(tuple(self._assignment.items()))

    def __repr__(self) -> str:
        return f"Labeling({len(self._assignment)} vertices)"

    def items(self):
        return self._assignment.items()

    def vertices(self) -> list[str]:
        return list(self._assignment)

    def scaled(self, r: int) -> "Labeling":
        """Elementwise scaling v -> r.f(v) of every label."""
        if r < 1:
            raise ValueError("scale factor must be at least 1")
        return Labeling({v: scale(r, s) for v, s in self._assignment.items()})

    def max_element(self) -> int:
        return max(s.max for s in self._assignment.values())


class VerificationReport(_Record):
    """Outcome of checking one labeling against one graph.

    `strong_edges` lists, per edge, whether the sumset cardinality is the
    full product.  Every False anywhere is backed by at least one witness
    string naming the offending vertices or edges.
    """

    __slots__ = ("vertex_injective", "edge_injective", "strong_edges", "is_iasi", "is_strong",
                 "witnesses")

    def __init__(
        self, vertex_injective: bool, edge_injective: bool, strong_edges: list[tuple[Edge, bool]],
        is_iasi: bool, is_strong: bool, witnesses: list[str] | None = None,
    ):
        self._set(vertex_injective, edge_injective, strong_edges, is_iasi, is_strong,
                  [] if witnesses is None else witnesses)


class ChainReport(_Record):
    """Longest family of vertices with pairwise disjoint nonempty difference
    sets, plus the per-edge disjointness relation."""

    __slots__ = ("max_chain", "max_chain_length", "per_edge_relation")

    def __init__(self, max_chain: list[str], max_chain_length: int,
                 per_edge_relation: list[tuple[Edge, bool]]):
        self._set(max_chain, max_chain_length, per_edge_relation)


def _check_total(g: Graph, f: Labeling) -> None:
    missing = g.vertices - set(f.vertices())
    if missing:
        raise ValueError(f"labeling is partial; unlabeled vertices: {sorted(missing)}")


def _check_no_isolated(g: Graph, where: str = "graph") -> None:
    isolated = g.isolated_vertices()
    if isolated:
        raise ValueError(f"{where} has isolated vertices: {isolated}")


def verify(g: Graph, f: Labeling) -> VerificationReport:
    """Full recomputation of the IASI and strength conditions.

    Checks that f is injective as a set-valued map, that edge sumsets are
    pairwise distinct as sets, and that every edge is a strong pair.  All
    violations are collected, not just the first.  Graphs with isolated
    vertices are refused.
    """
    _check_no_isolated(g)
    return _verify(g, f)[0]


def _verify(g: Graph, f: Labeling) -> tuple[VerificationReport, list[int]]:
    """`verify` without its isolated-vertex check, which each caller makes
    first, plus the sumset cardinality of each weak edge, which
    `verify_uniform` reads, both in the sorted order of `Graph._forward`.

    An edge is strong iff its ends' difference sets are disjoint.  Equal
    sumsets have equal minima, so edges are keyed by f(u).min + f(v).min
    first: if no two share one, as with `construct`'s Sidon bases, nothing
    more is built.  Edges that do are grouped by the rest of the fingerprint
    (max, size, sum), read from the labels for a strong edge, and their
    sumsets compared only where a fingerprint is shared."""
    _check_total(g, f)
    forward = g._forward()

    witnesses: list[str] = []
    by_label: dict[IntSet, list[str]] = {}
    for v in forward:
        by_label.setdefault(f[v], []).append(v)
    vertex_injective = len(by_label) == len(forward)
    for label, vs in () if vertex_injective else sorted(by_label.items(), key=lambda kv: kv[1]):
        if len(vs) > 1:
            witnesses.append(f"vertices {', '.join(vs)} share the label {label}")

    facts = {v: (f[v].elements[0], diff_set(f[v])) for v in forward}
    strong_edges: list[tuple[Edge, bool]] = _EdgeRows()
    mins: list[int] = []
    for u, later in forward.items():
        lo_u, d_u = facts[u]
        for v in later:
            lo_v, d_v = facts[v]
            strong_edges.append(((u, v), d_u.isdisjoint(d_v)))
            mins.append(lo_u + lo_v)
    weak = [e for e, strong in strong_edges if not strong]
    sums = {e: sumset(f[e[0]], f[e[1]]) for e in weak}

    # Only a shared minimum, and then a shared fingerprint, can hide a shared sumset.
    shared: list[tuple[list[Edge], IntSet]] = []
    if len(set(mins)) < len(mins):
        first: dict[int, int] = {}  # each minimum to its first row
        at = first.setdefault
        rows = [i for i, lo in enumerate(mins) if at(lo, i) != i]  # the later rows of a shared minimum
        rows += {first[mins[i]] for i in rows}  # and the first row of each
        by_key: dict[tuple[int, int, int, int], list[Edge]] = {}
        for i in sorted(rows):
            (e, strong), lo = strong_edges[i], mins[i]
            if strong:
                # Every a + b is distinct, so the fingerprint is exact.
                a, b = f[e[0]].elements, f[e[1]].elements
                key = (lo, a[-1] + b[-1], len(a) * len(b), len(b) * sum(a) + len(a) * sum(b))
            else:
                el = sums[e].elements
                key = (lo, el[-1], len(el), sum(el))
            by_key.setdefault(key, []).append(e)
        for group in by_key.values():
            if len(group) > 1:
                by_sum: dict[IntSet, list[Edge]] = {}
                for e in group:
                    s = sums.get(e)
                    if s is None:
                        s = sums[e] = sumset(f[e[0]], f[e[1]])
                    by_sum.setdefault(s, []).append(e)
                shared.extend((es, s) for s, es in by_sum.items() if len(es) > 1)
    edge_injective = not shared
    for es, s in sorted(shared, key=lambda pair: pair[0]):
        names = ", ".join(f"({u},{v})" for u, v in es)
        witnesses.append(f"edges {names} share the sumset {s}")

    for u, v in weak:
        shared_diffs = sorted(facts[u][1] & facts[v][1])
        witnesses.append(
            f"edge ({u},{v}) is not strong: |{f[u]}+{f[v]}| = {len(sums[u, v])} "
            f"< {len(f[u]) * len(f[v])}; shared differences "
            f"{{{','.join(map(str, shared_diffs))}}}"
        )

    is_iasi = vertex_injective and edge_injective
    return VerificationReport(
        vertex_injective=vertex_injective,
        edge_injective=edge_injective,
        strong_edges=strong_edges,
        is_iasi=is_iasi,
        is_strong=is_iasi and not weak,
        witnesses=witnesses,
    ), [len(sums[e]) for e in weak]


def verify_uniform(g: Graph, f: Labeling) -> tuple[int | None, int | None]:
    """(k, l) uniformity of a valid IASI: k is the common edge-sumset
    cardinality if the edges agree on one, l the common vertex cardinality;
    None where they disagree."""
    _check_no_isolated(g)
    report, weak_cards = _verify(g, f)
    if not report.is_iasi:
        raise ValueError("labeling is not an IASI: " + "; ".join(report.witnesses))
    edge_cards = {len(f[u]) * len(f[v]) for (u, v), ok in report.strong_edges if ok}.union(weak_cards)
    vertex_cards = {len(f[v]) for v in g.vertices}
    k = edge_cards.pop() if len(edge_cards) == 1 else None
    l = vertex_cards.pop() if len(vertex_cards) == 1 else None
    return k, l


def chain_report(g: Graph, f: Labeling) -> ChainReport:
    """Chain analysis of the difference sets of f.

    Builds the disjointness graph on the vertices with nonempty difference
    sets (edge iff disjoint) and reports its maximum clique, the longest
    chain, plus the disjointness relation on each edge of g, both by `_sharing`.
    """
    _check_total(g, f)
    bit = {v: 1 << i for i, v in enumerate(g.sorted_vertices())}  # in name order
    shared = dict(zip(bit, _sharing([diff_set(f[v]) for v in bit])))

    carriers = [v for v in bit if shared[v] & bit[v]]
    aux_edges = [(u, v) for i, u in enumerate(carriers) for v in carriers[i + 1:] if not shared[u] & bit[v]]
    chain = list(graphmod.max_clique(Graph._trusted(carriers, aux_edges))) if carriers else []

    relation = [((u, v), not shared[u] & bit[v]) for u, v in g.sorted_edges()]
    return ChainReport(max_chain=chain, max_chain_length=len(chain), per_edge_relation=relation)


def nourishing_number(g: Graph) -> int:
    """The nourishing number of a strong-IASI-admitting graph: the clique
    number.  Every complete subgraph forces that many pairwise disjoint
    difference sets, and no longer chain is ever required."""
    if not g.vertices:
        raise ValueError("nourishing number of the empty graph is undefined")
    return clique_number(g)


def verify_concurrent_strong(g: Graph, f: Labeling) -> bool:
    """Whether one labeling is simultaneously strong on g and its complement.

    Computed as verify on both graphs, then cross-checked against the
    equivalent direct criterion: f injective, all difference sets pairwise
    disjoint, and both induced edge maps injective.
    """
    return _verify_concurrent(g, f)[0]


def _verify_concurrent(
    g: Graph, f: Labeling
) -> tuple[bool, VerificationReport, VerificationReport]:
    """`verify_concurrent_strong` with the reports of g and its complement."""
    rep_g = verify(g, f)
    gbar = complement(g)
    _check_no_isolated(gbar, "complement")
    rep_gbar = verify(gbar, f)
    primary = rep_g.is_strong and rep_gbar.is_strong

    labels = [f[v] for v in g.sorted_vertices()]
    all_disjoint = all(row.bit_count() < 2 for row in _sharing([diff_set(s) for s in labels]))
    injective = len(set(labels)) == len(labels)
    direct = injective and all_disjoint and rep_g.edge_injective and rep_gbar.edge_injective
    if primary != direct:
        raise InternalCheckError(
            "concurrent-strong criteria disagree; this falsifies the pairwise-disjointness restatement"
        )
    return primary, rep_g, rep_gbar


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def _named_lines(text: str, form: str, what: str) -> Iterator[tuple[int, str, str, int]]:
    """(line number, name, value text, its column offset) of each `name: value`
    line but blank and `#` ones, refusing a line without ':', a bad name or a
    repeat.  Values hold no ':', so the last ends the name (corona names may)."""
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, rest = raw.rpartition(":")
        if not sep:
            raise ParseError(f"expected 'name: {form}'", line=lineno)
        name = name.strip()
        if name.split() != [name]:  # empty, or whitespace by str.isspace in it
            raise ParseError(f"bad vertex name {name!r}", line=lineno)
        if name in seen:
            raise ParseError(f"duplicate {what} for vertex {name!r}", line=lineno)
        seen.add(name)
        yield lineno, name, rest, len(raw) - len(rest)


# A line as `write_labeling` writes it: a name without whitespace (\s is
# str.isspace) that opens no comment, then ASCII-digit elements.
_CANONICAL = re.compile(r"([^\s#]\S*): \{([0-9]+(?:,[0-9]+)*)\}").fullmatch


def read_labeling(text: str) -> Labeling:
    """Parse `name: {a,b,c}` lines; `#` comments and blank lines allowed.

    A text of canonical lines only, elements strictly increasing and no
    name repeated, is read one match per line; any other goes through
    `_read_lines`, so every error is its error at its line and column."""
    assignment: dict[str, IntSet] = {}
    for line in text.splitlines():
        m = _CANONICAL(line)
        if m is None or m[1] in assignment:
            return _read_lines(text)
        try:
            elements = tuple(map(int, m[2].split(",")))
        except ValueError:  # past the integer-string limit
            return _read_lines(text)
        if any(map(ge, elements, elements[1:])):
            return _read_lines(text)
        assignment[m[1]] = IntSet._trusted(elements)
    return Labeling(assignment)


def _read_lines(text: str) -> Labeling:
    """`read_labeling` of any text, line by line through `parse_int_set`."""
    assignment: dict[str, IntSet] = {}
    for lineno, name, rest, col in _named_lines(text, "{elements}", "label"):
        label = assignment[name] = parse_int_set(rest, line=lineno, col_offset=col)
        if len(label) == 0:
            raise ParseError(f"label of {name!r} is empty", line=lineno)
    return Labeling(assignment)


def write_labeling(f: Labeling) -> str:
    return "\n".join(f"{v}: {s}" for v, s in f.items()) + "\n"
