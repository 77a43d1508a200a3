"""Shared corpus builders and brute-force reference implementations.

The reference implementations here stay deliberately naive (permutation
scans, subset scans) so that the library's cleverer code has something
independent to be checked against.
"""

from __future__ import annotations

import random
from functools import cache, lru_cache, wraps
from itertools import combinations, permutations

import networkx as nx

from iasi import (
    Graph,
    IntSet,
    Labeling,
    ParseError,
    VerificationReport,
    chain_report,
    complement,
    diff_set,
    is_strong_pair,
    scale,
    sumset,
    verify,
)
from iasi.construct import primes_above, sidon_bases
from iasi.errors import parse_natural
from iasi.graph import CORONA_SEP, PRODUCT_SEP


def from_networkx(G, prefix: str = "v") -> Graph:
    return Graph(
        (f"{prefix}{u}" for u in G.nodes),
        ((f"{prefix}{u}", f"{prefix}{v}") for u, v in G.edges),
    )


@lru_cache(maxsize=None)
def connected_atlas(min_n: int, max_n: int) -> tuple[Graph, ...]:
    """All connected graphs with min_n..max_n vertices, one per isomorphism
    class, from the graph atlas."""
    assert max_n <= 7
    out = []
    for G in nx.graph_atlas_g():
        n = G.number_of_nodes()
        if min_n <= n <= max_n and n >= 1 and nx.is_connected(G):
            out.append(from_networkx(G))
    return tuple(out)


def random_graph(rng: random.Random, n: int, p: float, prefix: str = "v") -> Graph:
    """G(n, p) with isolated vertices patched by one extra edge each (except
    the degenerate single-vertex graph, which stays bare)."""
    names = [f"{prefix}{i}" for i in range(n)]
    if n == 1:
        return Graph(names)
    edges = {e for e in combinations(names, 2) if rng.random() < p}
    covered = {x for e in edges for x in e}
    for v in names:
        if v not in covered:
            w = rng.choice([u for u in names if u != v])
            edges.add((min(v, w), max(v, w)))
            covered.update((v, w))
    return Graph(names, edges)


def random_graph_corpus(count: int, seed: int, max_n: int = 50) -> list[Graph]:
    rng = random.Random(seed)
    probs = [0.1, 0.3, 0.6]
    return [
        random_graph(rng, rng.randint(2, max_n), probs[i % len(probs)])
        for i in range(count)
    ]


def maximal_cliques(g: Graph) -> list[tuple[str, ...]]:
    """All maximal cliques via Bron-Kerbosch with Tomita's pivot: the slow
    reference for `graph.max_clique` and `graph.clique_number`.  Each clique
    sorted, cliques listed sorted."""
    adj = g._adj
    out: list[tuple[str, ...]] = []
    # An explicit stack of (r, p, x) calls, so clique size is not bounded by
    # the recursion limit; a child's sets are copied before p and x move on.
    stack = [(set(), set(g.vertices), set())]
    while stack:
        r, p, x = stack.pop()
        if not p and not x:
            out.append(tuple(sorted(r)))
            continue
        pivot = max(sorted(p | x), key=lambda u: len(adj[u] & p))
        for v in sorted(p - adj[pivot]):
            stack.append((r | {v}, p & adj[v], x & adj[v]))
            p.remove(v)
            x.add(v)
    return sorted(out)


def brute_maximal_cliques(g: Graph) -> set[frozenset[str]]:
    """Maximal cliques by scanning every vertex subset.  Only for tiny graphs."""
    verts = g.sorted_vertices()
    cliques = [
        frozenset(sub)
        for size in range(1, len(verts) + 1)
        for sub in combinations(verts, size)
        if all(v in g.neighbors(u) for u, v in combinations(sub, 2))
    ]
    return {c for c in cliques if not any(c < d for d in cliques)}


def is_isomorphic_brute(g1: Graph, g2: Graph) -> bool:
    v1, v2 = g1.sorted_vertices(), g2.sorted_vertices()
    if len(v1) != len(v2) or len(g1.edges) != len(g2.edges):
        return False
    for perm in permutations(v2):
        mapping = dict(zip(v1, perm))
        if all(mapping[v] in g2.neighbors(mapping[u]) for u, v in g1.edges):
            return True
    return False


@cache
def automorphisms(g: Graph) -> tuple[dict[str, str], ...]:
    verts = g.sorted_vertices()
    out = []
    for perm in permutations(verts):
        mapping = dict(zip(verts, perm))
        if all(
            (v in g.neighbors(u)) == (mapping[v] in g.neighbors(mapping[u]))
            for u, v in combinations(verts, 2)
        ):
            out.append(mapping)
    return tuple(out)


def stabiliser_orbits(g: Graph, verts: list[str] | None = None) -> list[list[int]]:
    """`oracle._orbits` from the whole group: for each position k of `verts`
    (by default the sorted vertices), the positions w > k that some
    automorphism fixing positions 0..k-1 maps k to."""
    verts = verts or g.sorted_vertices()
    pos = {v: k for k, v in enumerate(verts)}
    group = automorphisms(g)
    return [
        sorted({pos[s[verts[k]]] for s in group if all(s[v] == v for v in verts[:k])} - {k})
        for k in range(len(verts))
    ]


def restricted(f: Labeling, keep) -> Labeling:
    """f on the vertices in `keep` alone; ValueError if f misses one."""
    ks = set(keep)
    missing = ks - set(f.vertices())
    if missing:
        raise ValueError(f"labeling does not cover {sorted(missing)}")
    return Labeling({v: s for v, s in f.items() if v in ks})


def is_triangle_free(g: Graph) -> bool:
    """Whether no edge's ends share a neighbour: the intersection condition
    of the union-bound audit in `test_union_bound.py`."""
    return all(not (g.neighbors(u) & g.neighbors(v)) for u, v in g.edges)


def random_induced_subgraph(rng: random.Random, g: Graph, tries: int = 50) -> Graph | None:
    """A random induced subgraph with at least one edge and no isolated
    vertices, or None if the sampler keeps missing."""
    verts = g.sorted_vertices()
    for _ in range(tries):
        k = rng.randint(2, len(verts))
        keep = set(rng.sample(verts, k))
        edges = [e for e in g.edges if e[0] in keep and e[1] in keep]
        if edges:  # the vertices the edges touch induce the same edges
            return Graph({v for e in edges for v in e}, edges)
    return None


def strong_labelings(g: Graph, labels, graphs: tuple[Graph, ...], order):
    """Every injective assignment of `labels` to g's vertices in `order`, in
    lexicographic order, that `verify` calls strong on each of `graphs`.
    A cached `is_strong_pair` per edge skips, before `verify` runs, the
    assignments with a weak edge, which `verify` would reject anyway."""
    strong_pair = cache(is_strong_pair)
    edges = [e for h in graphs for e in h.edges]
    for combo in permutations(labels, len(order)):
        f = dict(zip(order, combo))
        if all(strong_pair(f[u], f[v]) for u, v in edges):
            labeling = Labeling(f)
            if all(verify(h, labeling).is_strong for h in graphs):
                yield labeling


def _shared(scan):
    """`scan(g, cfg, order)` run once per graph, configuration and order:
    tests with equal inputs share one permutation scan."""
    cached = cache(scan)
    return wraps(scan)(lambda g, cfg, order: cached(g, cfg, tuple(order)))


@_shared
def naive_min_max_chain(g: Graph, cfg, order) -> tuple[int | None, int, Labeling | None]:
    """(value, strong labelings, witness) of `oracle.min_max_chain` by a
    permutations scan over `cfg.candidate_labels()`: `verify` decides
    strength, `chain_report` measures the chain, and the witness is the
    first minimiser in lexicographic order with g's vertices in `order`."""
    best, count, witness = None, 0, None
    chains: dict[frozenset, int] = {}  # the chain depends only on the set of labels
    for f in strong_labelings(g, cfg.candidate_labels(), (g,), order):
        count += 1
        key = frozenset(s for _, s in f.items())
        if key not in chains:
            chains[key] = chain_report(g, f).max_chain_length
        if best is None or chains[key] < best:
            best, witness = chains[key], f
    return best, count, witness


@_shared
def naive_concurrent(g: Graph, cfg, order) -> tuple[int, Labeling | None]:
    """(witness count, first witness) of `oracle.exists_concurrent` by a
    permutations scan with g's vertices in `order`: a witness is strong on
    g and on its complement."""
    count, first = 0, None
    for f in strong_labelings(g, cfg.candidate_labels(), (g, complement(g)), order):
        count += 1
        if first is None:
            first = f
    return count, first


def reference_verify(g: Graph, f: Labeling) -> tuple[VerificationReport, dict]:
    """`labeling.verify` by the definitions, with the edge sumsets it built:
    every edge's sumset is computed, injectivity compares the sets
    themselves and strength compares each size with |f(u)|·|f(v)|.
    Difference sets only name the shared differences of a weak edge."""
    witnesses: list[str] = []
    verts = g.sorted_vertices()

    by_label: dict = {}
    for v in verts:
        by_label.setdefault(f[v], []).append(v)
    vertex_injective = True
    for label, vs in sorted(by_label.items(), key=lambda kv: kv[1]):
        if len(vs) > 1:
            vertex_injective = False
            witnesses.append(f"vertices {', '.join(vs)} share the label {label}")

    edges = sorted(g.edges)  # not `g.sorted_edges()`, the walk `verify` shares
    edge_sums = {e: sumset(f[e[0]], f[e[1]]) for e in edges}
    by_sum: dict = {}
    for e in edges:
        by_sum.setdefault(edge_sums[e], []).append(e)
    edge_injective = True
    for s, es in sorted(by_sum.items(), key=lambda kv: kv[1]):
        if len(es) > 1:
            edge_injective = False
            names = ", ".join(f"({u},{v})" for u, v in es)
            witnesses.append(f"edges {names} share the sumset {s}")

    strong_edges = []
    for u, v in edges:
        size, full = len(edge_sums[(u, v)]), len(f[u]) * len(f[v])
        strong_edges.append(((u, v), size == full))
        if size != full:
            shared = sorted(diff_set(f[u]) & diff_set(f[v]))
            witnesses.append(
                f"edge ({u},{v}) is not strong: |{f[u]}+{f[v]}| = {size} "
                f"< {full}; shared differences {{{','.join(map(str, shared))}}}"
            )

    is_iasi = vertex_injective and edge_injective
    return VerificationReport(
        vertex_injective=vertex_injective,
        edge_injective=edge_injective,
        strong_edges=strong_edges,
        is_iasi=is_iasi,
        is_strong=is_iasi and all(ok for _, ok in strong_edges),
        witnesses=witnesses,
    ), edge_sums


def reference_read_graph(text: str) -> Graph:
    """`graph.read_graph` by way of `Graph.__init__`: the lines are collected,
    then the constructor checks every name and edge.  A name it refuses and
    a header count mismatch are reported at line 1."""
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


def reference_check_name(name: str) -> str:
    """`graph._check_name` testing each character with `str.isspace`."""
    if not isinstance(name, str) or not name:
        raise ValueError(f"vertex name must be a non-empty string, got {name!r}")
    if any(c.isspace() for c in name):
        raise ValueError(f"vertex name {name!r} contains whitespace")
    if name in ("p", "v") or name.startswith("#"):
        raise ValueError(f"vertex name {name!r} is reserved by the graph file format")
    return name


def reference_named_lines(text: str, form: str, what: str):
    """`labeling._named_lines` testing each character of a name with
    `str.isspace`."""
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, rest = raw.rpartition(":")
        if not sep:
            raise ParseError(f"expected 'name: {form}'", line=lineno)
        name = name.strip()
        if not name or any(c.isspace() for c in name):
            raise ParseError(f"bad vertex name {name!r}", line=lineno)
        if name in seen:
            raise ParseError(f"duplicate {what} for vertex {name!r}", line=lineno)
        seen.add(name)
        yield lineno, name, rest, len(raw) - len(rest)


def reference_cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """`graph.cartesian_product` with each product name keyed by its (u, v)
    pair, looked up by that tuple at each end of each edge."""
    name = {}
    for u in g1.vertices:
        for v in g2.vertices:
            name[(u, v)] = f"{u}{PRODUCT_SEP}{v}"
    vertices = frozenset(name.values())
    if len(vertices) != len(name):
        raise ValueError("product vertex naming collides; rename inputs first")
    edges = [(name[(u, a)], name[(u, b)]) for u in g1.vertices for a, b in g2.edges]
    edges += [(name[(a, v)], name[(b, v)]) for a, b in g1.edges for v in g2.vertices]
    return Graph._trusted(vertices, edges)


def scaled_copy_labeling(g1: Graph, f1: Labeling, g2: Graph, f2: Labeling | None = None) -> Labeling:
    """The paper's scaled-copy labeling of g1□g2 (f2 None) or of g1⊙g2, from
    strong labelings of the factors: the second proof that products and
    coronas admit strong IASIs, kept as a reference for `construct_strong`.

    Copy i is r_i·f plus bases[i] blocks.  r_0 = 1 and the rest are primes
    above every label element, so the copies' difference sets are disjoint;
    a block is wider than any copy's sumsets, so the bases decide which can
    meet.  A product's copies of f1, one per vertex of g2 in sorted order,
    sit at Sidon terms; a corona keeps f1 at 0 and hangs the copy of f2 on
    the i-th vertex of g1 at 2i + 1, so copies and their internal sums
    (odd and even multiples) never meet."""
    if f2 is None:
        parts = [(f1, {v: f"{v}{PRODUCT_SEP}{c}" for v in g1.vertices}) for c in g2.sorted_vertices()]
        bases = sidon_bases(len(parts))
    else:
        roots = g1.sorted_vertices()
        parts = [(f1, {v: v for v in g1.vertices})]
        parts += [(f2, {w: f"{u}{CORONA_SEP}{i}:{w}" for w in g2.vertices}) for i, u in enumerate(roots)]
        bases = [0, *range(1, 2 * len(roots), 2)]
    m = max(1, *(f[v].max for f, names in parts for v in names))
    multipliers = [1] + primes_above(m, len(parts) - 1)
    block = 2 * multipliers[-1] * m + 1
    return Labeling({
        new: IntSet(x + base * block for x in scale(r, f[v]))
        for (f, names), r, base in zip(parts, multipliers, bases) for v, new in names.items()
    })


def reference_trusted(vertices, pairs) -> Graph:
    """`Graph._trusted` edge set first: each pair is oriented u < v, the
    oriented pairs are frozen into the edge set, and each vertex's
    neighbours are filled from that set."""
    vs = frozenset(vertices)
    es = frozenset([e if e[0] < e[1] else e[::-1] for e in pairs])
    adj: dict[str, list[str]] = {v: [] for v in vs}
    for u, v in es:
        adj[u].append(v)
        adj[v].append(u)
    g = object.__new__(Graph)
    object.__setattr__(g, "vertices", vs)
    object.__setattr__(g, "_edges", es)
    object.__setattr__(g, "_adj", {v: frozenset(ns) for v, ns in adj.items()})
    return g


def reference_write_graph(g: Graph) -> str:
    """`graph.write_graph` by one sort of all the edges, not through the
    sorted walk `Graph._forward` the writer and `Graph.sorted_edges` share."""
    lines = [f"p {len(g.vertices)} {len(g.edges)}"]
    lines.extend(f"v {v}" for v in sorted(g.vertices))
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def reference_chain_extension(space, used: int) -> tuple[int, int]:
    """`oracle._chain_extension` by testing every subset of the carriers in
    `used`: (c, up), where c is the size of the largest pairwise
    difference-disjoint subset and up the carriers outside `used` that
    extend some disjoint subset of size c."""
    members = []  # (bit, its disjointness row with its own bit set)
    rest = used & space.carriers
    while rest:
        bit = rest & -rest
        members.append((bit, space.ddisjoint[bit.bit_length() - 1] | bit))
        rest ^= bit
    outside = space.carriers & ~used
    best, up = 0, outside  # every carrier extends the empty chain
    for pick in range(1, 1 << len(members)):
        size = pick.bit_count()
        if size < best:
            continue
        chosen, reach = 0, -1
        for p, (bit, row) in enumerate(members):
            if pick >> p & 1:
                chosen |= bit
                reach &= row
        if chosen & ~reach:
            continue  # some two picked labels share a difference
        if size > best:
            best, up = size, 0
        up |= reach & outside
    return best, up


def reference_pair_table(cfg) -> tuple[list[int], list[dict[int, int]]]:
    """(strong, partners) with one product per unordered pair of labels, not
    per pair of translation classes as `oracle._Space` takes them: each
    label is spread into fields of w = (universe_max + 1).bit_length() bits,
    a pair is strong when no field of its product exceeds 1, and
    `partners[i]` maps the product of each strong pair (i, j) to the bit of j."""
    labels = cfg.candidate_labels()
    n = len(labels)
    bits = [1 << i for i in range(n)]
    width = cfg.universe_max + 1
    w = width.bit_length()
    spread = [sum(1 << w * x for x in s) for s in labels]
    repeated = sum(((1 << w) - 2) << w * x for x in range(2 * width - 1))
    strong = [0] * n
    partners: list[dict[int, int]] = [{} for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            p = spread[i] * spread[j]
            if not p & repeated:
                strong[i] |= bits[j]
                strong[j] |= bits[i]
                partners[i][p] = bits[j]
                partners[j][p] = bits[i]
    return strong, partners


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


def reference_max_clique(g: Graph) -> tuple[str, ...]:
    """The lexicographically least largest clique by one search in name
    order, the one `graph.max_clique` replaced.

    Colour-bounded branch-and-bound over int bitsets: bit i is the i-th
    vertex by name, and a child's candidates are the later vertices
    adjacent to it.  Depth first and lowest candidate first, the search
    meets cliques in lexicographic order and keeps a new best only if it is
    strictly larger, so it returns `min(maximal_cliques(g), key=lambda c:
    (-len(c), c))`.  Its colour bound is weak on dense graphs: G(120, 0.9)
    takes about 30 s.
    """
    if not g.vertices:
        raise ValueError("empty graph has no clique")
    names = g.sorted_vertices()
    bit = {v: 1 << i for i, v in enumerate(names)}
    full = (1 << len(names)) - 1
    adj = [sum(bit[w] for w in g.neighbors(v)) for v in names]
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
