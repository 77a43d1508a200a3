"""Constructive strong set-indexer labelings.

The existence of strong labelings becomes an explicit recipe:

1. Properly color the graph (BFS-order greedy; in clique-cover mode the
   greedy run is seeded with one maximum clique so the color count can
   witness the clique number on well-structured inputs).
2. Give color class j a stride d_j, the j-th prime exceeding every
   requested label cardinality.  A vertex of cardinality c gets the
   arithmetic progression {b, b+d_j, ..., b+(c-1)d_j}; its difference set
   is contained in {d_j, 2d_j, ...} with multipliers below every stride,
   so difference sets of distinct classes are disjoint by unique
   factorization and every (necessarily cross-class) edge is strong.
3. Give the i-th vertex in name order the base b = a_i of the Erdős–Turán
   Sidon set a_k = 2pk + (k^2 mod p), p the least prime >= the vertex
   count.  Each label's minimum is its base, so the vertex minima are
   distinct and the vertex map is injective; an edge's sumset has minimum
   b_u + b_v, and the Sidon sums of distinct pairs are distinct, so the
   edge map is injective too.
"""

from __future__ import annotations

from typing import Mapping

from .errors import InternalCheckError, _immutable, _Record
from .graph import Graph, max_clique
from .labeling import Labeling, _check_no_isolated, verify
from .setalg import IntSet

__all__ = [
    "ConstructionSpec",
    "construct_strong",
    "construct_strong_traced",
    "sidon_bases",
    "primes_above",
]

MODES = ("coloring", "clique-cover")


class ConstructionSpec(_Record):
    """What to build: per-vertex label sizes, a seed, and a strategy.

    `cardinalities` is either a single size applied uniformly or a
    per-vertex map; every size must be at least 1.  The seed rotates the
    BFS roots, so distinct seeds explore different (all valid) labelings
    while equal seeds reproduce byte-identical output.
    """

    __slots__ = ("cardinalities", "seed", "mode")

    def __init__(self, cardinalities: int | Mapping[str, int] = 2, seed: int = 0, mode: str = "coloring"):
        self._set(cardinalities, seed, mode)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if isinstance(self.cardinalities, int):
            if self.cardinalities < 1:
                raise ValueError("cardinality must be at least 1")
        else:
            for v, c in self.cardinalities.items():
                if c < 1:
                    raise ValueError(f"cardinality of {v!r} must be at least 1")

    __setattr__ = __delattr__ = _immutable

    def __hash__(self) -> int:
        return hash(self._values())

    def resolve(self, g: Graph) -> dict[str, int]:
        if isinstance(self.cardinalities, int):
            return {v: self.cardinalities for v in g.vertices}
        missing = g.vertices - self.cardinalities.keys()
        if missing:
            raise ValueError(f"no cardinality given for {sorted(missing)}")
        extra = self.cardinalities.keys() - g.vertices
        if extra:
            raise ValueError(f"cardinalities given for non-vertices {sorted(extra)}")
        return {v: self.cardinalities[v] for v in g.vertices}


# ---------------------------------------------------------------------------
# number-theoretic helpers
# ---------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes_above(floor: int, count: int) -> list[int]:
    """The first `count` primes strictly greater than `floor`."""
    out: list[int] = []
    n = floor
    while len(out) < count:
        n += 1
        if _is_prime(n):
            out.append(n)
    return out


def sidon_bases(count: int) -> list[int]:
    """The Erdős–Turán Sidon set a_k = 2pk + (k^2 mod p), k < count, with p
    the least prime >= count (Erdős & Turán, J. London Math. Soc. 1941).

    All pairwise sums a_i + a_j (i <= j) are distinct: the quotient by 2p
    fixes i + j, the remainder fixes i^2 + j^2 mod p, and over the field
    Z/p those two determine {i, j}.  Terms start at 0, strictly increase
    and stay below 2p^2.
    """
    p = primes_above(max(count, 2) - 1, 1)[0]
    return [2 * p * k + (k * k) % p for k in range(count)]


# ---------------------------------------------------------------------------
# coloring
# ---------------------------------------------------------------------------

def _bfs_order(g: Graph, seed: int) -> list[str]:
    """Vertices in BFS order, component by component; the seed rotates which
    vertex of each component is the root."""
    order: list[str] = []
    for comp in g.components():
        root = comp[seed % len(comp)]
        seen = {root}
        queue = [root]
        for v in queue:  # the list grows as it is walked, so it is the BFS queue
            for w in sorted(g.neighbors(v)):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        order += queue
    return order


def _greedy_coloring(g: Graph, seed: int, preset: dict[str, int] | None = None) -> dict[str, int]:
    """Smallest-available greedy coloring in BFS order.

    On bipartite graphs BFS order makes this the parity 2-coloring.  A
    preset (used by clique-cover mode) pins chosen vertices to fixed colors
    before the sweep.
    """
    colors: dict[str, int] = dict(preset or {})
    for v in _bfs_order(g, seed):
        if v in colors:
            continue
        taken = {colors[w] for w in g.neighbors(v) if w in colors}
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    return colors


def _color_classes(g: Graph, spec: ConstructionSpec) -> list[list[str]]:
    if spec.mode == "clique-cover" and g._edge_count():
        seed_clique = max_clique(g)
        preset = {v: i for i, v in enumerate(seed_clique)}
        colors = _greedy_coloring(g, spec.seed, preset)
    else:
        colors = _greedy_coloring(g, spec.seed)
    t = max(colors.values()) + 1
    classes: list[list[str]] = [[] for _ in range(t)]
    for v in sorted(colors):
        classes[colors[v]].append(v)
    return classes


# ---------------------------------------------------------------------------
# the main construction
# ---------------------------------------------------------------------------

def construct_strong_traced(g: Graph, spec: ConstructionSpec) -> tuple[Labeling, dict]:
    """Build a strong labeling and an audit trace (classes, strides, offsets).

    Always succeeds on a finite simple graph without isolated vertices; the
    result is self-verified before being returned.
    """
    if not g.vertices:
        raise ValueError("cannot label the empty graph")
    _check_no_isolated(g)

    cards = spec.resolve(g)
    classes = _color_classes(g, spec)
    strides = primes_above(max(cards.values()), len(classes))

    verts = g.sorted_vertices()
    base = dict(zip(verts, sidon_bases(len(verts))))

    stride_of: dict[str, int] = {}
    for j, cls in enumerate(classes):
        for v in cls:
            stride_of[v] = strides[j]

    assignment = {
        v: IntSet(base[v] + i * stride_of[v] for i in range(cards[v])) for v in verts
    }
    labeling = Labeling(assignment)

    report = verify(g, labeling)
    if not report.is_strong:
        raise InternalCheckError(
            "constructed labeling failed verification: " + "; ".join(report.witnesses)
        )

    trace = {
        "mode": spec.mode,
        "seed": spec.seed,
        "classes": [list(cls) for cls in classes],
        "strides": strides,
        "offsets": base,
        "cardinalities": {v: cards[v] for v in verts},
        "max_label_element": labeling.max_element(),
    }
    return labeling, trace


def construct_strong(g: Graph, spec: ConstructionSpec | None = None) -> Labeling:
    return construct_strong_traced(g, spec or ConstructionSpec())[0]
