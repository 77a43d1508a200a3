"""Finite simple graphs and the operations studied by the library.

Vertices are opaque string names; an immutable graph is its neighbour table,
each vertex to the frozenset of its neighbours, filled straight from vertex
pairs by one private builder, `Graph._trusted`, which the constructor,
`read_graph` and every derivation of valid graphs call.  The edge set, each
edge once as (u, v) with u < v, is derived from the table on first use.
The constructor and `read_graph` keep one string object per name, so the
per-edge lookups of verification and clique search match by identity.
Besides the five binary operations (union, intersection, join,
Cartesian product, corona) and complement, the module houses the clique
machinery: `clique_number`, Tomita & Seki's colour-sort branch-and-bound
(MCQ) over int bitsets; `max_clique`, which finds ω that way and then grows
the lexicographically least maximum clique one vertex name at a time.
Their slow references, pivoted Bron-Kerbosch enumeration of all maximal
cliques and the former search in name order, live with the tests.
Worst-case exponential clique search is accepted; the intended inputs are
desk scale.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Callable, Iterable, Mapping

from .errors import ParseError, _immutable, parse_natural

__all__ = [
    "Graph",
    "union",
    "intersection",
    "join",
    "complement",
    "cartesian_product",
    "corona",
    "clique_number",
    "max_clique",
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
    if name.split() != [name]:  # whitespace, by str.isspace, anywhere in it
        raise ValueError(f"vertex name {name!r} contains whitespace")
    # The text format would read these back as a header, a vertex line or a
    # comment, so such a graph could not round-trip through its file.
    if name in ("p", "v") or name.startswith("#"):
        raise ValueError(f"vertex name {name!r} is reserved by the graph file format")
    return name


class Graph:
    """Immutable finite simple graph with string vertex identifiers."""

    __slots__ = ("vertices", "_adj", "_edges")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        vs = frozenset(_check_name(v) for v in vertices)
        own = dict(zip(vs, vs))  # each name to the declared object, kept in the edges
        pairs = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u!r}")
            pair = own.get(u), own.get(v)
            if None in pair:
                missing = min(x for x in (u, v) if x not in own)
                raise ValueError(f"edge endpoint {missing!r} is not a declared vertex")
            pairs.append(pair)
        built = Graph._trusted(vs, pairs)
        for slot in Graph.__slots__:
            object.__setattr__(self, slot, getattr(built, slot))

    @classmethod
    def _trusted(cls, vertices: Iterable[str], pairs: Iterable[tuple[str, str]]) -> "Graph":
        """The graph on `vertices` with an edge for each of `pairs`, taken
        without checking either: the names must be valid and each pair a
        tuple of two distinct ones among them, in either order and possibly
        repeated.

        The one place a graph is built, as its neighbour table only: repeats
        and reversed pairs collapse in each vertex's frozenset of neighbours.
        """
        vs = frozenset(vertices)
        adj: dict[str, list[str]] = {v: [] for v in vs}
        for u, v in pairs:
            adj[u].append(v)
            adj[v].append(u)
        g = object.__new__(cls)
        object.__setattr__(g, "vertices", vs)
        object.__setattr__(g, "_adj", {v: frozenset(ns) for v, ns in adj.items()})
        object.__setattr__(g, "_edges", None)
        return g

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        """Each edge once as (u, v) with u < v, derived on first use and kept."""
        if self._edges is None:
            object.__setattr__(self, "_edges", frozenset(self._pairs()))
        return self._edges

    def _pairs(self) -> list[tuple[str, str]]:
        adj = self._adj
        return [(u, v) for u in adj for v in adj[u] if u < v]

    def _edge_count(self) -> int:
        return sum(map(len, self._adj.values())) // 2

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        return Graph._trusted, (self.vertices, self._pairs())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"Graph(|V|={len(self.vertices)}, |E|={self._edge_count()})"

    def neighbors(self, v: str) -> frozenset[str]:
        return self._adj[v]

    def sorted_vertices(self) -> list[str]:
        return sorted(self.vertices)

    def sorted_edges(self) -> list[tuple[str, str]]:
        return [(u, v) for u, later in self._forward().items() for v in later]

    def _forward(self) -> dict[str, list[str]]:
        """Each vertex in name order to its later neighbours in name order,
        the edges of `sorted(self.edges)`: v, walked in name order, joins
        the list of each smaller neighbour, so no list needs a sort."""
        adj = self._adj
        later: dict[str, list[str]] = {v: [] for v in sorted(adj)}
        for v in later:
            for u in adj[v]:
                if u < v:
                    later[u].append(v)
        return later

    def isolated_vertices(self) -> list[str]:
        return sorted(v for v in self.vertices if not self._adj[v])

    def relabel(self, mapping: Mapping[str, str] | Callable[[str], str]) -> "Graph":
        """New graph with every vertex renamed through `mapping` (must stay injective)."""
        f = mapping if callable(mapping) else mapping.__getitem__
        new = {v: _check_name(f(v)) for v in self.vertices}
        if len(set(new.values())) != len(new):
            raise ValueError("relabeling is not injective")
        return Graph._trusted(new.values(), ((new[u], new[v]) for u, v in self._pairs()))

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
    return Graph._trusted(g1.vertices | g2.vertices, g1.edges | g2.edges)


def intersection(g1: Graph, g2: Graph) -> Graph:
    return Graph._trusted(g1.vertices & g2.vertices, g1.edges & g2.edges)


def join(g1: Graph, g2: Graph) -> Graph:
    """Both graphs plus every cross edge.  Vertex names must not overlap."""
    clash = g1.vertices & g2.vertices
    if clash:
        raise ValueError(f"join requires disjoint vertex names; shared: {sorted(clash)}")
    cross = ((u, v) for u in g1.vertices for v in g2.vertices)
    return Graph._trusted(g1.vertices | g2.vertices, chain(g1._pairs(), g2._pairs(), cross))


def complement(g: Graph) -> Graph:
    adj = g._adj
    return Graph._trusted(adj, ((u, v) for u, v in combinations(adj, 2) if v not in adj[u]))


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Box product: (u1,u2) ~ (v1,v2) iff equal in one coordinate and
    adjacent in the other.  |V| = p1*p2 and |E| = p1*q2 + p2*q1.
    Names of valid graphs joined by PRODUCT_SEP are valid; a collision
    between them is refused."""
    # One row of product names per vertex of g1, row[u][v] the name of
    # (u, v); every name is built once and every edge takes its ends from the
    # rows.  All rows list g2's vertices in one order, so zipping two rows
    # pairs the names of one column.
    row = {u: {v: f"{u}{PRODUCT_SEP}{v}" for v in g2.vertices} for u in g1.vertices}
    vertices = frozenset(chain.from_iterable(r.values() for r in row.values()))
    if len(vertices) != len(g1.vertices) * len(g2.vertices):
        raise ValueError("product vertex naming collides; rename inputs first")
    pairs2 = g2._pairs()
    edges = [(r[a], r[b]) for r in row.values() for a, b in pairs2]
    for a, b in g1._pairs():
        edges += zip(row[a].values(), row[b].values())
    return Graph._trusted(vertices, edges)


def corona(g1: Graph, g2: Graph) -> Graph:
    """One copy of g1; for its i-th vertex, a fresh copy of g2 fully joined
    to that vertex.  |V| = p1*(1+p2) and |E| = q1 + p1*q2 + p1*p2.
    A copy's name that is already taken is refused."""
    roots = g1.sorted_vertices()
    vertices = set(g1.vertices)
    edges, pairs2 = g1._pairs(), g2._pairs()
    for i, u in enumerate(roots):
        copy = {w: f"{u}{CORONA_SEP}{i}:{w}" for w in g2.vertices}
        names = frozenset(copy.values())
        if vertices & names:
            raise ValueError("corona vertex naming collides; rename inputs first")
        vertices |= names
        edges += [(copy[a], copy[b]) for a, b in pairs2]
        edges += [(u, cw) for cw in names]
    return Graph._trusted(vertices, edges)


# ---------------------------------------------------------------------------
# cliques
# ---------------------------------------------------------------------------

def _bitsets(g: Graph) -> tuple[dict[str, int], list[int], list[int]]:
    """Each vertex's bit, and by bit index each vertex's neighbours and
    non-neighbours (itself excluded) as bitsets.

    Bit i is the i-th vertex in non-increasing degree order, ties broken by
    name, so greedy colouring in bit order meets high degrees first (MCQ's
    initial order).
    """
    adj = g._adj
    order = sorted(sorted(adj), key=lambda v: -len(adj[v]))
    bit = {v: 1 << i for i, v in enumerate(order)}
    get = bit.__getitem__
    rows = [sum(map(get, adj[v])) for v in order]
    return bit, rows, [~row ^ bit[v] for v, row in zip(order, rows)]


def _largest(
    adj: list[int], non_adj: list[int], cand: int, target: int, best: int = 0
) -> tuple[int, int]:
    """Order of a largest clique inside bitset `cand` and that clique as a
    bitset, stopping at the first clique of `target` vertices.

    Only cliques larger than `best` are sought; if there is none the result
    is `(best, 0)`.  Tomita & Seki's MCQ (2003) over int bitsets: each frame
    greedily colours its candidates in bit order, and branches on them from
    the highest colour down while clique size + colour can beat the best so
    far.  A frame whose colour count equals its candidate count is a clique
    (greedy colouring gives one class per vertex only there), so it is taken
    whole without branching.  The stack of frames is explicit, so clique
    size is not bound by the recursion limit.
    """
    found = 0
    # Frames: [clique size, candidates left, vertices to branch on and
    # their colours (ascending), bit of the vertex being tried].
    stack: list[list] = []
    size, sub = 0, cand
    while True:
        # Colour `sub`, the candidates of a clique of `size` vertices.  Only
        # a vertex whose colour could lift the clique past `best` is kept
        # for branching.
        verts: list[int] = []
        colours: list[int] = []
        floor = best - size
        rest, colour = sub, 0
        while rest:
            colour += 1
            free = rest
            while free:
                low = free & -free
                rest ^= low
                v = low.bit_length() - 1
                free &= non_adj[v]
                if colour > floor:
                    verts.append(v)
                    colours.append(colour)
        if colour == sub.bit_count():
            if colour > floor:
                best = size + colour
                found = sub
                for frame in stack:
                    found |= frame[4]
                if best >= target:
                    return target, found
        elif colour > floor:
            stack.append([size, sub, verts, colours, 0])
        while stack:
            frame = stack[-1]
            size, sub, verts, colours, _ = frame
            if not verts or size + colours[-1] <= best:
                stack.pop()
                continue
            v = verts.pop()
            colours.pop()
            frame[1] = sub ^ (1 << v)
            frame[4] = 1 << v
            size, sub = size + 1, sub & adj[v]
            break
        else:
            return best, found


def clique_number(g: Graph) -> int:
    """Order of a largest clique: the colour-sort search of `_largest`
    alone, with no lexicographic phase."""
    if not g.vertices:
        raise ValueError("clique number of the empty graph is undefined")
    _, adj, non_adj = _bitsets(g)
    return _largest(adj, non_adj, (1 << len(adj)) - 1, len(adj))[0]


def max_clique(g: Graph) -> tuple[str, ...]:
    """One largest clique, the lexicographically least among them.

    Two phases.  `_largest` first finds the clique number ω and one
    ω-clique.  The least one is then grown one name at a time: walking the
    names in sorted order, v joins the prefix when v is adjacent to every
    member and some clique of the missing size lies among their common
    neighbours and v's.  Each step so takes the least vertex of some
    ω-clique through the prefix, and the result is the least of the largest
    maximal cliques, each a sorted tuple.  The last ω-clique found through
    the prefix answers for its own later vertices without a search.
    """
    if not g.vertices:
        raise ValueError("empty graph has no clique")
    bits, adj, non_adj = _bitsets(g)
    cand = (1 << len(adj)) - 1
    omega, witness = _largest(adj, non_adj, cand, len(adj))
    clique: list[str] = []
    for v in sorted(bits):
        bit = bits[v]
        if not cand & bit:
            continue
        # A vertex passed over is in no ω-clique through the prefix, which
        # only grows, so it leaves the candidates either way.
        cand ^= bit
        need = omega - len(clique) - 1
        row = adj[bit.bit_length() - 1]
        if need and not witness & bit:
            # Only a clique of `need` vertices decides v, so none smaller is sought.
            size, found = _largest(adj, non_adj, cand & row, need, need - 1)
            if size < need:
                continue
            witness = found
        clique.append(v)
        if not need:
            break
        cand &= row
    return tuple(clique)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def read_graph(text: str) -> Graph:
    """Parse the edge-list format.

    Lines: `# comment`, optional `p <n> <m>` header, `v <name>` vertex
    declarations, and `u v` edges.  A header, when present, must match the
    counts of the graph built.  The graph is built once every line has
    parsed, from the names and the edges as read, so an edge listed twice,
    in either orientation, counts once.  Each name is checked once, and one
    `Graph` would refuse is reported at the line it first appears on.

    Each later occurrence of a name is replaced by its first, so the graph
    holds one string object per name and lookups match it by identity.
    """
    names: dict[str, str] = {}  # each name, as first read, in order of appearance
    pairs: list[tuple[str, str]] = []
    own, add = names.setdefault, pairs.append
    header: tuple[int, int] | None = None
    header_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if len(tokens) == 2:
            u, v = tokens
            if u != v and u != "p" and u != "v" and u[0] != "#":  # an edge line
                add((own(u, u), own(v, v)))
                continue
        if not tokens or tokens[0][0] == "#":
            continue
        first = tokens[0]
        if len(tokens) == 2 and first != "p" and first != "v":  # the fast path took all but u == v
            raise ParseError(f"self-loop at {first!r}", line=lineno)
        elif first == "p":
            if header is not None:
                raise ParseError("duplicate p header", line=lineno)
            counts = tuple(parse_natural(t) for t in tokens[1:])
            if len(counts) != 2 or None in counts:
                raise ParseError("malformed header, expected 'p <n> <m>'", line=lineno)
            header, header_line = counts, lineno
        elif first == "v":
            if len(tokens) != 2:
                raise ParseError("malformed vertex line, expected 'v <name>'", line=lineno)
            names.setdefault(tokens[1], tokens[1])
        else:
            raise ParseError(f"unrecognized line {raw.strip()!r}", line=lineno)
    # Names are checked only now, so that a malformed line anywhere is
    # reported before a name `Graph` would refuse; the first such name wins,
    # at the first edge or vertex line that names it.
    for name in names:
        try:
            _check_name(name)
        except ValueError as exc:
            lineno = next(
                i for i, t in enumerate(map(str.split, text.splitlines()), start=1)
                if t and t[0][0] != "#" and t[0] != "p" and name in t[t[0] == "v":]
            )
            raise ParseError(str(exc), line=lineno) from None
    g = Graph._trusted(names, pairs)
    if header is not None and header != (len(g.vertices), g._edge_count()):
        raise ParseError(
            f"header says {header[0]} vertices / {header[1]} edges, "
            f"file has {len(g.vertices)} / {g._edge_count()}",
            line=header_line,
        )
    return g


def write_graph(g: Graph) -> str:
    """Deterministic writer: header, sorted vertex lines, sorted edges.

    The edges come in the order of `sorted(g.edges)` from `Graph._forward`,
    each vertex's lines written as one string."""
    forward = g._forward()
    lines = [f"p {len(forward)} {g._edge_count()}", *(f"v {v}" for v in forward)]
    # u's edge lines, `u v` for each later neighbour v, as one string
    lines += [f"{u} " + f"\n{u} ".join(later) for u, later in forward.items() if later]
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
