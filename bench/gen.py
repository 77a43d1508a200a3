"""Seeded input generators for the iasi benchmark (stdlib only).

Everything here is independent of the library under test: graphs, proper
colorings and strong labelings are built from the benchmark's own recipe,
so a change to `iasi.construct` cannot change the inputs of the workloads
that do not construct.

A graph is a sorted list of index pairs over range(n); vertex names are
attached only when it is written out.  All iteration is over lists or
sorted sequences, never over sets of strings, so output is byte-identical
for a given seed in every process.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

def _patch_isolated(rng: random.Random, n: int, edges: set, allowed=None) -> None:
    """Give every isolated vertex one edge to a random partner (restricted
    to `allowed(u, v)` pairs when given)."""
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    for v in range(n):
        if degree[v]:
            continue
        partners = [w for w in range(n) if w != v and (allowed is None or allowed(v, w))]
        w = rng.choice(partners)
        edges.add((min(v, w), max(v, w)))
        degree[v] += 1
        degree[w] += 1


def gnp(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """G(n, p) with isolated vertices patched."""
    edges = {(i, j) for i, j in combinations(range(n), 2) if rng.random() < p}
    _patch_isolated(rng, n, edges)
    return sorted(edges)


def gnm(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """G(n, m): m distinct uniform edges, isolated vertices patched."""
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        i, j = rng.sample(range(n), 2)
        edges.add((min(i, j), max(i, j)))
    _patch_isolated(rng, n, edges)
    return sorted(edges)


def plant_clique(rng: random.Random, n: int, edges: list, k: int) -> list[tuple[int, int]]:
    """Add every edge among k random vertices."""
    clique = sorted(rng.sample(range(n), k))
    return sorted(set(edges) | set(combinations(clique, 2)))


def multipartite(rng: random.Random, sizes: list[int], p: float) -> tuple[list[int], list]:
    """Random graph whose only edges join different parts, so the parts are
    a proper coloring.  Returns (part of each vertex, edges)."""
    part = [j for j, size in enumerate(sizes) for _ in range(size)]
    rng.shuffle(part)
    n = len(part)
    edges = {
        (i, j) for i, j in combinations(range(n), 2) if part[i] != part[j] and rng.random() < p
    }
    _patch_isolated(rng, n, edges, lambda u, v: part[u] != part[v])
    return part, sorted(edges)


def greedy_coloring(rng: random.Random, n: int, edges: list) -> list[int]:
    """Smallest-available greedy coloring in a seeded random vertex order."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    order = list(range(n))
    rng.shuffle(order)
    color = [-1] * n
    for v in order:
        taken = {color[w] for w in adj[v]}
        c = 0
        while c in taken:
            c += 1
        color[v] = c
    return color


def _connected(n: int, edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def connected_graph_classes(n: int) -> list[tuple[tuple[int, int], ...]]:
    """Every connected graph on n vertices, one per isomorphism class, as its
    canonical edge tuple (the least relabeling), in edge-mask order."""
    pairs = list(combinations(range(n), 2))
    perms = list(permutations(range(n)))
    seen: set = set()
    out = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if not _connected(n, edges):
            continue
        canon = min(tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in edges)) for p in perms)
        if canon not in seen:
            seen.add(canon)
            out.append(canon)
    return out


def complement_edges(n: int, edges) -> list[tuple[int, int]]:
    present = set(edges)
    return [e for e in combinations(range(n), 2) if e not in present]


def has_isolated(n: int, edges) -> bool:
    return len({x for e in edges for x in e}) < n


# ---------------------------------------------------------------------------
# strong labelings
# ---------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def primes_above(floor: int, count: int) -> list[int]:
    out, n = [], floor
    while len(out) < count:
        n += 1
        if _is_prime(n):
            out.append(n)
    return out


def erdos_turan_bases(n: int) -> list[int]:
    """Sidon set a_k = 2pk + (k^2 mod p), k < n, with p the least prime >= n:
    all pairwise sums a_i + a_j (i <= j) are distinct."""
    p = n
    while not _is_prime(p):
        p += 1
    return [2 * p * k + (k * k) % p for k in range(n)]


def strong_labeling(rng: random.Random, classes: list[int], card: int) -> list[list[int]]:
    """Label vertex v with {a + i*d : i < card}: a a distinct Sidon base (in a
    seeded order) and d the prime stride of v's class.

    Distinct bases make the vertex map injective, Sidon bases make edge
    sumset minima distinct, and distinct prime strides above `card` keep
    the difference sets of different classes disjoint, so the labeling is
    strong on every graph that `classes` properly colors.
    """
    n = len(classes)
    bases = erdos_turan_bases(n)
    rng.shuffle(bases)
    strides = primes_above(card, max(classes) + 1)
    return [[bases[v] + i * strides[classes[v]] for i in range(card)] for v in range(n)]


def corrupt(rng: random.Random, labels: list[list[int]], edges: list, kind: str) -> list[list[int]]:
    """A copy of a strong labeling that is no longer strong.

    "stride": one endpoint of a random edge takes the other's stride, so
    that edge's difference sets meet.  "duplicate": one vertex takes
    another's label, so the vertex map is not injective.
    """
    out = [list(x) for x in labels]
    if kind == "stride":
        u, v = rng.choice(edges)
        step = labels[u][1] - labels[u][0]
        out[v] = [labels[v][0] + i * step for i in range(len(labels[v]))]
    elif kind == "duplicate":
        u, v = rng.sample(range(len(labels)), 2)
        out[v] = list(labels[u])
    else:
        raise ValueError(f"unknown corruption {kind!r}")
    return out


# ---------------------------------------------------------------------------
# text formats (the ones `iasi` reads)
# ---------------------------------------------------------------------------

def graph_text(names: list[str], edges) -> str:
    lines = [f"p {len(names)} {len(edges)}"]
    lines.extend(f"v {v}" for v in sorted(names))
    lines.extend(" ".join(sorted((names[u], names[v]))) for u, v in edges)
    return "\n".join(lines) + "\n"


def labeling_text(names: list[str], labels: list[list[int]]) -> str:
    rows = sorted(zip(names, labels))
    return "".join(f"{v}: {{{','.join(map(str, sorted(s)))}}}\n" for v, s in rows)


def read_edges(text: str) -> set[tuple[str, str]]:
    """Edges of a graph file, as sorted name pairs (for outcome checks)."""
    out = set()
    for line in text.splitlines():
        tokens = line.split()
        if len(tokens) == 2 and tokens[0] != "v":
            out.add(tuple(sorted(tokens)))
    return out
