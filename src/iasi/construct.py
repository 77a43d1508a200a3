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
3. Draw the base offsets b from the Erdős–Turán Sidon set
   a_k = 2pk + (k^2 mod p), p the least prime >= the vertex count, scaled
   past the largest possible in-label spread: pairwise-distinct base sums
   make the edge-sumset minima pairwise distinct, which forces the edge map
   to be injective, and distinct bases make the vertex map injective.

Products and coronas share one scaled-copy recipe: multiplying a strong
labeling by r keeps it strong, multiplying different copies by different
primes larger than every label element keeps the copies' difference sets
disjoint, and shifting copy i to a multiple bases[i] of one block keeps the
copies apart.  The two differ only in the bases: Sidon terms for a product,
0 for the host and then odd multiples for a corona.
"""

from __future__ import annotations

from typing import Mapping

from .errors import InternalCheckError, _immutable, _Record
from .graph import CORONA_SEP, PRODUCT_SEP, Graph, cartesian_product, corona, max_clique
from .labeling import Labeling, _check_no_isolated, _verify, verify
from .setalg import IntSet, scale

__all__ = [
    "ConstructionSpec",
    "construct_strong",
    "construct_strong_traced",
    "construct_for_product",
    "construct_for_corona",
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
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in sorted(g.neighbors(v)):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
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
    max_card = max(cards.values())
    strides = primes_above(max_card, len(classes))

    # Base offsets: one Sidon term per vertex (in sorted order), scaled so a
    # whole arithmetic progression fits strictly between consecutive bases.
    verts = g.sorted_vertices()
    separation = strides[-1] * max_card
    sidon = sidon_bases(len(verts))
    base = {v: sidon[i] * separation for i, v in enumerate(verts)}

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
        "offsets": {v: base[v] for v in verts},
        "cardinalities": {v: cards[v] for v in verts},
        "max_label_element": labeling.max_element(),
    }
    return labeling, trace


def construct_strong(g: Graph, spec: ConstructionSpec | None = None) -> Labeling:
    return construct_strong_traced(g, spec or ConstructionSpec())[0]


# ---------------------------------------------------------------------------
# scaled copies for products and coronas
# ---------------------------------------------------------------------------

def _scaled_copies(parts: list[tuple[Labeling, dict[str, str]]], bases: list[int]) -> Labeling:
    """Copy i of `parts`, a labeling and new names for the vertices it copies,
    as r_i . f plus bases[i] blocks.  r_0 = 1 and the rest are primes above
    every label element, so the copies' difference sets are disjoint; a block
    is wider than any copy's sumsets, so `bases` decides which can meet."""
    m = max(f[v].max for f, names in parts for v in names)
    multipliers = [1] + primes_above(max(m, 1), len(parts) - 1)
    block = 2 * multipliers[-1] * max(m, 1) + 1
    return Labeling({
        new: scale(r, f[v]).translated(base * block)
        for (f, names), r, base in zip(parts, multipliers, bases) for v, new in names.items()
    })


def construct_for_product(g1: Graph, f1: Labeling, g2: Graph) -> Labeling:
    """Strong labeling of the Cartesian product from a strong labeling of g1.

    Copy i of g1 (one per vertex of g2, in sorted order) is a scaled copy of
    f1, so the product edges between corresponding vertices are strong.  Its
    base is the i-th Erdős–Turán Sidon term (`sidon_bases`): Sidon base sums
    are distinct, which keeps both vertex and edge maps injective across
    copies.
    """
    if not g1.vertices or not g2.vertices:
        raise ValueError("product factors must both be nonempty")
    if not _verify(g1, f1)[0].is_strong:
        raise ValueError("f1 is not a strong labeling of g1")

    parts = [(f1, {v: f"{v}{PRODUCT_SEP}{c}" for v in g1.vertices}) for c in g2.sorted_vertices()]
    out = _scaled_copies(parts, sidon_bases(len(parts)))

    if not _verify(cartesian_product(g1, g2), out)[0].is_strong:
        raise InternalCheckError("product labeling failed self-verification")
    return out


def construct_for_corona(g1: Graph, f1: Labeling, g2: Graph, f2: Labeling) -> Labeling:
    """Strong labeling of the corona from strong labelings of both factors.

    g1 keeps f1 (copy 0, base 0).  The copy of g2 hung on the i-th vertex of
    g1 is a scaled copy of f2 at base 2i + 1: copies sit at odd multiples of
    the block and their internal sums at even ones, so no two edge sumsets
    can coincide across contexts.
    """
    if not g1.vertices or not g2.vertices:
        raise ValueError("corona factors must both be nonempty")
    if not _verify(g1, f1)[0].is_strong:
        raise ValueError("f1 is not a strong labeling of g1")
    if not _verify(g2, f2)[0].is_strong:
        raise ValueError("f2 is not a strong labeling of g2")

    roots = g1.sorted_vertices()
    parts = [(f1, {v: v for v in g1.vertices})]
    parts += [(f2, {w: f"{u}{CORONA_SEP}{i}:{w}" for w in g2.vertices}) for i, u in enumerate(roots)]
    out = _scaled_copies(parts, [0, *range(1, 2 * len(roots), 2)])

    if not _verify(corona(g1, g2), out)[0].is_strong:
        raise InternalCheckError("corona labeling failed self-verification")
    return out
