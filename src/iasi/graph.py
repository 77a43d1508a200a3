"""Finite simple graphs and the operations studied by the library.

Vertices are opaque string names; a graph is an immutable (vertices, edges)
pair.  Besides the five binary operations (union, intersection, join,
Cartesian product, corona) and complement, the module houses the clique
machinery: `max_clique`, a colour-bounded branch-and-bound over int bitsets
that returns the lexicographically least maximum clique (ties broken by
vertex name order); the clique number as its length; pivoted Bron-Kerbosch
enumeration of all maximal cliques, the slow reference it is tested
against; and a triangle test.  Worst-case exponential clique search is
accepted; the intended inputs are desk scale.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Mapping

from .errors import ParseError, parse_natural

__all__ = [
    "Graph",
    "union",
    "intersection",
    "join",
    "complement",
    "cartesian_product",
    "corona",
    "maximal_cliques",
    "clique_number",
    "max_clique",
    "is_triangle_free",
    "read_graph",
    "write_graph",
    "complete_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_bipartite_graph",
    "petersen_graph",
    "PRODUCT_SEP",
    "CORONA_SEP",
]

PRODUCT_SEP = "×"
CORONA_SEP = "⊙"


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not name:
        raise ValueError(f"vertex name must be a non-empty string, got {name!r}")
    if any(c.isspace() for c in name):
        raise ValueError(f"vertex name {name!r} contains whitespace")
    # The text format would read these back as a header, a vertex line or a
    # comment, so such a graph could not round-trip through its file.
    if name in ("p", "v") or name.startswith("#"):
        raise ValueError(f"vertex name {name!r} is reserved by the graph file format")
    return name


def _norm_edge(u: str, v: str) -> tuple[str, str]:
    if u == v:
        raise ValueError(f"self-loop at vertex {u!r}")
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable finite simple graph with string vertex identifiers."""

    __slots__ = ("vertices", "edges", "_adj")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        vs = frozenset(_check_name(v) for v in vertices)
        es = set()
        adj: dict[str, set[str]] = {v: set() for v in vs}
        for u, v in edges:
            e = _norm_edge(u, v)
            for x in e:
                if x not in vs:
                    raise ValueError(f"edge endpoint {x!r} is not a declared vertex")
            es.add(e)
            adj[e[0]].add(e[1])
            adj[e[1]].add(e[0])
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", frozenset(es))
        object.__setattr__(self, "_adj", {v: frozenset(ns) for v, ns in adj.items()})

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"Graph(|V|={len(self.vertices)}, |E|={len(self.edges)})"

    def neighbors(self, v: str) -> frozenset[str]:
        return self._adj[v]

    def degree(self, v: str) -> int:
        return len(self._adj[v])

    def has_edge(self, u: str, v: str) -> bool:
        return u != v and _norm_edge(u, v) in self.edges

    def sorted_vertices(self) -> list[str]:
        return sorted(self.vertices)

    def sorted_edges(self) -> list[tuple[str, str]]:
        return sorted(self.edges)

    def isolated_vertices(self) -> list[str]:
        return sorted(v for v in self.vertices if not self._adj[v])

    def induced(self, keep: Iterable[str]) -> "Graph":
        """Subgraph induced by the given vertices."""
        ks = set(keep)
        missing = ks - self.vertices
        if missing:
            raise ValueError(f"not vertices of this graph: {sorted(missing)}")
        return Graph(ks, (e for e in self.edges if e[0] in ks and e[1] in ks))

    def relabel(self, mapping: Mapping[str, str] | Callable[[str], str]) -> "Graph":
        """New graph with every vertex renamed through `mapping` (must stay injective)."""
        f = mapping if callable(mapping) else mapping.__getitem__
        new = {v: _check_name(f(v)) for v in self.vertices}
        if len(set(new.values())) != len(new):
            raise ValueError("relabeling is not injective")
        return Graph(new.values(), ((new[u], new[v]) for u, v in self.edges))

    def rename(self, prefix: str) -> "Graph":
        """Prefix every vertex name; the stock way to force disjointness before a union."""
        return self.relabel(lambda v: prefix + v)

    def components(self) -> list[list[str]]:
        """Connected components, each sorted, listed by smallest member."""
        seen: set[str] = set()
        out = []
        for root in self.sorted_vertices():
            if root in seen:
                continue
            comp, stack = {root}, [root]
            while stack:
                for w in self._adj[stack.pop()]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            out.append(sorted(comp))
        return out


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def union(g1: Graph, g2: Graph) -> Graph:
    """Name-based union: shared names identify shared vertices."""
    return Graph(g1.vertices | g2.vertices, g1.edges | g2.edges)


def intersection(g1: Graph, g2: Graph) -> Graph:
    return Graph(g1.vertices & g2.vertices, g1.edges & g2.edges)


def join(g1: Graph, g2: Graph) -> Graph:
    """Both graphs plus every cross edge.  Vertex names must not overlap."""
    clash = g1.vertices & g2.vertices
    if clash:
        raise ValueError(f"join requires disjoint vertex names; shared: {sorted(clash)}")
    cross = ((u, v) for u in g1.vertices for v in g2.vertices)
    return Graph(g1.vertices | g2.vertices, list(g1.edges) + list(g2.edges) + list(cross))


def complement(g: Graph) -> Graph:
    vs = g.sorted_vertices()
    return Graph(vs, (e for e in combinations(vs, 2) if e not in g.edges))


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Box product: (u1,u2) ~ (v1,v2) iff equal in one coordinate and
    adjacent in the other.  |V| = p1*p2 and |E| = p1*q2 + p2*q1."""
    name = {}
    for u in g1.vertices:
        for v in g2.vertices:
            name[(u, v)] = f"{u}{PRODUCT_SEP}{v}"
    if len(set(name.values())) != len(name):
        raise ValueError("product vertex naming collides; rename inputs first")
    edges = []
    for u in g1.vertices:
        for a, b in g2.edges:
            edges.append((name[(u, a)], name[(u, b)]))
    for a, b in g1.edges:
        for v in g2.vertices:
            edges.append((name[(a, v)], name[(b, v)]))
    return Graph(name.values(), edges)


def corona(g1: Graph, g2: Graph) -> Graph:
    """One copy of g1; for its i-th vertex, a fresh copy of g2 fully joined
    to that vertex.  |V| = p1*(1+p2) and |E| = q1 + p1*q2 + p1*p2."""
    roots = g1.sorted_vertices()
    vertices = set(g1.vertices)
    edges = list(g1.edges)
    for i, u in enumerate(roots):
        copy = {w: f"{u}{CORONA_SEP}{i}:{w}" for w in g2.vertices}
        if vertices & set(copy.values()):
            raise ValueError("corona vertex naming collides; rename inputs first")
        vertices |= set(copy.values())
        edges.extend((copy[a], copy[b]) for a, b in g2.edges)
        edges.extend((u, cw) for cw in copy.values())
    return Graph(vertices, edges)


# ---------------------------------------------------------------------------
# cliques
# ---------------------------------------------------------------------------

def maximal_cliques(g: Graph) -> list[tuple[str, ...]]:
    """All maximal cliques via Bron-Kerbosch with Tomita's pivot: the slow
    reference for `max_clique`.  Each clique sorted, cliques listed sorted."""
    adj = g._adj
    out: list[tuple[str, ...]] = []

    def expand(r: set[str], p: set[str], x: set[str]) -> None:
        if not p and not x:
            out.append(tuple(sorted(r)))
            return
        pivot = max(sorted(p | x), key=lambda u: len(adj[u] & p))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)
    expand(set(), set(g.vertices), set())
    return sorted(out)


def clique_number(g: Graph) -> int:
    """Order of a largest clique."""
    if not g.vertices:
        raise ValueError("clique number of the empty graph is undefined")
    return len(max_clique(g))


def _colours(cand: int, non_adj: list[int], cap: int) -> int:
    """Classes of a greedy colouring of bitset `cand`, counted up to `cap`."""
    k = 0
    while cand and k < cap:
        k += 1
        free = cand
        while free:
            low = free & -free
            cand ^= low
            free &= non_adj[low.bit_length() - 1]
    return k


def max_clique(g: Graph) -> tuple[str, ...]:
    """One largest clique, the lexicographically least among them.

    Colour-bounded branch-and-bound over int bitsets (Tomita & Seki's MCQ,
    San Segundo et al.'s BBMC): bit i is the i-th vertex by name, and a
    child's candidates are the later vertices adjacent to it.  Depth first
    and lowest candidate first, the search meets cliques in lexicographic
    order and keeps a new best only if it is strictly larger, so it returns
    `min(maximal_cliques(g), key=lambda c: (-len(c), c))`.  The stack is
    explicit, so clique size is not bound by the recursion limit.
    """
    if not g.vertices:
        raise ValueError("empty graph has no clique")
    names = g.sorted_vertices()
    bit = {v: 1 << i for i, v in enumerate(names)}
    full = (1 << len(names)) - 1
    adj = [sum(bit[w] for w in g._adj[v]) for v in names]
    non_adj = [full ^ a ^ bit[v] for v, a in zip(names, adj)]
    best: tuple[int, ...] = ()
    stack = [(best, full)]
    while stack:
        clique, cand = stack[-1]
        if len(clique) + cand.bit_count() <= len(best):
            stack.pop()
            continue
        low = cand & -cand
        stack[-1] = (clique, cand ^ low)
        v = low.bit_length() - 1
        grown, sub = clique + (v,), cand & adj[v]
        if len(grown) > len(best):
            best = grown
        # A child survives only if its candidates could still beat `best`.
        room = len(best) - len(grown)
        if sub.bit_count() > room and _colours(sub, non_adj, room + 1) > room:
            stack.append((grown, sub))
    return tuple(names[i] for i in best)


def is_triangle_free(g: Graph) -> bool:
    return all(not (g._adj[u] & g._adj[v]) for u, v in g.edges)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def read_graph(text: str) -> Graph:
    """Parse the edge-list format.

    Lines: `# comment`, optional `p <n> <m>` header, `v <name>` vertex
    declarations, and `u v` edges.  A header, when present, must match the
    final counts.
    """
    vertices: set[str] = set()
    edges: list[tuple[str, str]] = []
    header: tuple[int, int] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if header is not None:
                raise ParseError("duplicate p header", line=lineno)
            counts = tuple(parse_natural(t) for t in tokens[1:])
            if len(counts) != 2 or None in counts:
                raise ParseError("malformed header, expected 'p <n> <m>'", line=lineno)
            header = counts
        elif tokens[0] == "v":
            if len(tokens) != 2:
                raise ParseError("malformed vertex line, expected 'v <name>'", line=lineno)
            vertices.add(tokens[1])
        elif len(tokens) == 2:
            if tokens[0] == tokens[1]:
                raise ParseError(f"self-loop at {tokens[0]!r}", line=lineno)
            vertices.update(tokens)
            edges.append((tokens[0], tokens[1]))
        else:
            raise ParseError(f"unrecognized line {line!r}", line=lineno)
    try:
        g = Graph(vertices, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if header is not None and header != (len(g.vertices), len(g.edges)):
        raise ParseError(
            f"header says {header[0]} vertices / {header[1]} edges, "
            f"file has {len(g.vertices)} / {len(g.edges)}"
        )
    return g


def write_graph(g: Graph) -> str:
    """Deterministic writer: header, sorted vertex lines, sorted edges."""
    lines = [f"p {len(g.vertices)} {len(g.edges)}"]
    lines.extend(f"v {v}" for v in g.sorted_vertices())
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# stock families (test and CLI fodder)
# ---------------------------------------------------------------------------

def _names(n: int, prefix: str) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def complete_graph(n: int, prefix: str = "v") -> Graph:
    vs = _names(n, prefix)
    return Graph(vs, combinations(vs, 2))


def path_graph(n: int, prefix: str = "v") -> Graph:
    vs = _names(n, prefix)
    return Graph(vs, zip(vs, vs[1:]))


def cycle_graph(n: int, prefix: str = "v") -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    vs = _names(n, prefix)
    return Graph(vs, list(zip(vs, vs[1:])) + [(vs[-1], vs[0])])


def star_graph(leaves: int, prefix: str = "v") -> Graph:
    vs = _names(leaves + 1, prefix)
    return Graph(vs, ((vs[0], w) for w in vs[1:]))


def complete_bipartite_graph(m: int, n: int) -> Graph:
    xs = _names(m, "x")
    ys = _names(n, "y")
    return Graph(xs + ys, ((x, y) for x in xs for y in ys))


def petersen_graph() -> Graph:
    outer = _names(5, "o")
    inner = _names(5, "i")
    edges = [(outer[i], outer[(i + 1) % 5]) for i in range(5)]
    edges += [(outer[i], inner[i]) for i in range(5)]
    edges += [(inner[i], inner[(i + 2) % 5]) for i in range(5)]
    return Graph(outer + inner, edges)
