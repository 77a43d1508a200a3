"""Exhaustive ground truth on tiny instances.

Everything here is deliberately brute force: enumerate every candidate
labeling over a small universe, keep the ones that are genuinely strong,
and measure them.  The point is to give the constructive and clique-based
code something independent to disagree with.  Limits are hard: the oracle
refuses instances it cannot finish rather than approximating.

A search that finds nothing reports "exhausted" as a first-class outcome:
the theorems quantify over an infinite universe, so an empty finite search
space is not a nonexistence proof.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from pathlib import Path
from typing import Callable, Iterator

from .errors import InternalCheckError, _immutable, _Record
from .graph import Graph, complement, write_graph
from .labeling import (
    Labeling,
    _check_no_isolated,
    chain_report,
    verify,
    verify_concurrent_strong,
)
from .setalg import IntSet, _sharing, diff_set

__all__ = [
    "OracleConfig",
    "LemmaCheck",
    "MinChainResult",
    "ConcurrentSearch",
    "lemma_oracle",
    "min_max_chain",
    "exists_concurrent",
    "CHECKPOINT_ENV",
]

CHECKPOINT_ENV = "IASI_ORACLE_CHECKPOINT_DIR"
CHECKPOINT_VERSION = 6
# Least seconds between minchain checkpoint writes.  A write (temp file, fsync,
# rename) can take tens of milliseconds, mostly the rename, while a partition
# of a small sweep takes well under one.
CHECKPOINT_INTERVAL_S = 1.0
UNIVERSE_LIMIT = 10
# Partial labelings whose chain facts are kept before the cache starts over.
CHAIN_CACHE_LIMIT = 1 << 16


class OracleConfig(_Record):
    """Search-space bounds: labels are subsets of {0..universe_max} with
    cardinality in [min_card, max_card]; universes above UNIVERSE_LIMIT and
    graphs above vertex_limit are refused outright."""

    __slots__ = ("universe_max", "min_card", "max_card", "vertex_limit")

    def __init__(self, universe_max: int = 6, min_card: int = 2, max_card: int = 2, vertex_limit: int = 5):
        self._set(universe_max, min_card, max_card, vertex_limit)
        # Every oracle refuses a negative universe or one it could not finish.
        if self.universe_max < 0:
            raise ValueError("universe_max must be non-negative")
        if self.universe_max > UNIVERSE_LIMIT:
            raise ValueError(
                f"universe_max {self.universe_max} exceeds the exhaustive limit {UNIVERSE_LIMIT}"
            )
        if not (1 <= self.min_card <= self.max_card <= self.universe_max + 1):
            raise ValueError(
                "need 1 <= min_card <= max_card <= universe_max + 1, got "
                f"min_card={self.min_card}, max_card={self.max_card}, "
                f"universe_max={self.universe_max}"
            )
        if self.vertex_limit < 1:
            raise ValueError("vertex_limit must be positive")

    __setattr__ = __delattr__ = _immutable

    def __hash__(self) -> int:
        return hash(self._values())

    def candidate_labels(self) -> list[IntSet]:
        """Every admissible label, ordered by subset rank (binary counting
        over the universe), so enumeration order is canonical."""
        universe = range(self.universe_max + 1)
        return [IntSet(x for x in universe if mask >> x & 1) for mask in range(1, 1 << len(universe))
                if self.min_card <= mask.bit_count() <= self.max_card]


class LemmaCheck(_Record):
    """Verdict of the sumset-cardinality vs difference-set-disjointness sweep."""

    __slots__ = ("ok", "pairs_checked", "counterexample")

    def __init__(self, ok: bool, pairs_checked: int, counterexample: tuple[IntSet, IntSet] | None = None):
        self._set(ok, pairs_checked, counterexample)

    def to_dict(self) -> dict:
        pair = self.counterexample
        return {
            "ok": self.ok,
            "pairs_checked": self.pairs_checked,
            "counterexample": None if pair is None else [str(s) for s in pair],
        }


def lemma_oracle(universe_max: int) -> LemmaCheck:
    """Exhaustively compare |A+B| == |A|*|B| with D_A disjoint from D_B over
    every ordered pair of nonempty subsets of {0..universe_max}.

    Both relations are symmetric, so the pair table holds each unordered
    pair once and ordered pairs are compared row by row; a counterexample
    is the first disagreeing pair in subset-rank order."""
    cfg = OracleConfig(universe_max=universe_max, min_card=1, max_card=universe_max + 1)
    space = _Space(cfg)
    n = len(space.labels)
    for i, (strong, ddisjoint) in enumerate(zip(space.strong, space.ddisjoint)):
        differ = strong ^ ddisjoint
        if differ:
            j = _lowest(differ)
            return LemmaCheck(False, i * n + j + 1, (space.labels[i], space.labels[j]))
    return LemmaCheck(ok=True, pairs_checked=n * n)


# ---------------------------------------------------------------------------
# labeling enumeration
# ---------------------------------------------------------------------------

class _Space:
    """Pairwise facts about the candidate labels, one product per unordered
    pair of translation classes.

    `strong[i]` is a bitmask of the j with |L_i + L_j| == |L_i| * |L_j|
    (read from a product, the cardinality route); `ddisjoint[i]` marks the
    j whose difference sets avoid L_i's (the difference route: the j not in
    L_i's row of the difference index `_sharing`).  The searches prune with
    the former and audit with the latter, so a failure of the equivalence
    would surface as a disagreement instead of being assumed away.

    Each label L becomes the 0/1 polynomial L(t) = sum of t^x over x in L,
    evaluated at t = 2^w with field width w = (universe_max + 1).bit_length().
    In L_i(t) * L_j(t) the field at s counts the ways s = a + b with a in
    L_i, b in L_j; that count is at most |universe| < 2^w, so no field
    carries into the next.  The |L_i| * |L_j| ways are all distinct sums,
    i.e. the pair is strong, iff no field exceeds 1: one AND with the bits
    above the lowest of every field.  The product of a strong pair is then
    the sumset's indicator, an exact key for it.

    Strength is invariant under translating either label, since (A + s) +
    (B + t) = (A + B) + s + t.  So the labels fall into translation classes,
    each represented by its member that holds 0, and only the pairs of
    representatives take a product: a strong one ORs each class's whole
    member mask into the other's row, and `strong[i]` is the row of L_i's
    class.

    `spread[i]` is L_i(2^w), so `spread[i] * spread[j]` keys the sumset of
    a strong pair: two strong pairs have equal products exactly when their
    sumsets are equal.  `carriers` marks the labels with a nonempty
    difference set and `mirror[i]` is the index of L_i reflected by
    x -> universe_max - x.
    """

    def __init__(self, cfg: OracleConfig):
        self.labels = labels = cfg.candidate_labels()
        n = len(labels)
        bits = [1 << i for i in range(n)]
        masks = [sum(1 << x for x in s) for s in labels]
        rank = {m: i for i, m in enumerate(masks)}
        width = cfg.universe_max + 1
        self.mirror = [rank[int(f"{m:0{width}b}"[::-1], 2)] for m in masks]

        shared = _sharing([diff_set(s) for s in labels])
        self.carriers = sum(bit & row for bit, row in zip(bits, shared))
        self.ddisjoint = [~row & (1 << n) - 1 for row in shared]

        w = width.bit_length()
        self.spread = spread = [sum(1 << w * x for x in s) for s in labels]
        repeated = sum(((1 << w) - 2) << w * x for x in range(2 * width - 1))
        # cls[i]: the index of L_i's translate that holds 0; members[r]: r's class
        cls = [rank[m >> _lowest(m)] for m in masks]
        members = [0] * n
        for bit, r in zip(bits, cls):
            members[r] |= bit
        reps = [r for r in range(n) if masks[r] & 1]
        rows = [0] * n
        for a, r in enumerate(reps):
            sr, mr = spread[r], members[r]
            for s in reps[a:]:
                if not sr * spread[s] & repeated:
                    rows[r] |= members[s]
                    rows[s] |= mr
        self.strong = [rows[r] for r in cls]


def _search_vertices(g: Graph, cfg: OracleConfig) -> list[str]:
    """The vertices of a graph the oracle agrees to search, in the one
    order every search sweeps in (`_search_order` of the sorted ones)."""
    verts = sorted(g.vertices)
    if len(verts) > cfg.vertex_limit:
        raise ValueError(
            f"graph has {len(verts)} vertices, above the oracle vertex limit {cfg.vertex_limit}"
        )
    if not verts:
        raise ValueError("cannot search labelings of the empty graph")
    _check_no_isolated(g)
    return _search_order(g, verts)


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _orbits(g: Graph, verts: list[str]) -> list[list[int]]:
    """orbit[k]: the positions w > k of `verts` to which an automorphism of g
    fixing positions 0..k-1 maps k (the basic orbits of a stabiliser chain,
    so |Aut(g)| is the product of the 1 + |orbit[k]|).  Each w takes one
    backtracking search for such an automorphism, position by position
    through vertices of equal degree and agreeing adjacency; the group is
    never listed."""
    n = len(verts)
    adj = [{verts.index(u) for u in g.neighbors(v)} for v in verts]

    def extends(image: tuple[int, ...]) -> bool:
        # Whether position k, the last that `image` maps, keeps its adjacency
        # to positions 0..k-1, and `image` extends to an automorphism.
        k = len(image) - 1
        w = image[k]
        if w in image[:k] or len(adj[w]) != len(adj[k]) or any(
            (j in adj[k]) != (x in adj[w]) for j, x in enumerate(image[:k])
        ):
            return False
        return k == n - 1 or any(extends((*image, x)) for x in range(n))

    return [[w for w in range(k + 1, n) if extends((*range(k), w))] for k in range(n)]


def _search_order(g: Graph, verts: list[str]) -> list[str]:
    """The order every oracle search sweeps `verts` in, and so the order
    its first witnesses are first in: large orbits early, where their rules
    prune, and last a vertex z whose rules would only narrow its bulk mask.
    A vertex's colour is its degree, its neighbours' sorted degrees and its
    adjacency to each placed vertex.  z has the rarest colour (then
    least degree, name); before it, each next vertex is the first by: not
    of z's colour, in the largest colour class left, not adjacent to z, most
    edges to the placed vertices, highest degree, name."""
    nbrs = {v: g.neighbors(v) for v in verts}
    base = {v: (len(nbrs[v]), *sorted(len(nbrs[u]) for u in nbrs[v])) for v in verts}
    colours = list(base.values())
    z = min(verts, key=lambda v: (colours.count(base[v]), base[v][0], v))
    order, rest = [], [v for v in verts if v != z]
    while rest:
        colour = {v: (base[v], *(p in nbrs[v] for p in order)) for v in rest}
        colours = list(colour.values())
        order.append(min(rest, key=lambda v: (
            base[v] == base[z], -colours.count(colour[v]), z in nbrs[v],
            -sum(colour[v][1:]), -base[v][0], v)))
        rest.remove(order[-1])
    return order + [z]


def _sweep(
    space: _Space,
    verts: list[str],
    graphs: tuple[Graph, ...],
    leaf: Callable[[list[int], int, list[tuple[int, int, int]]], None],
    start: int = 0,
) -> Iterator[int]:
    """Sweep the injective labelings of `verts` (n >= 2, any order) by label
    index strong on each of `graphs` (a graph, or it and its complement):
    every edge a strong pair, each graph's edge sumsets distinct.  Partitions
    below `start`, and their mirrors, are skipped; after each other one, a,
    yield a + 1, below which every partition and its mirror is then counted.

    Aut(G) of the first graph (of its complement too) and the mirror
    x -> universe_max - x of every label keep strength, edge sumsets and
    difference sets, so one labeling per orbit is swept (`_orbits`): each
    w in orbit[k], k >= 1, has a higher label than k; vertex 0 has the
    lower label a of a mirror pair, its orbit-mates labels b with
    min(b, mirror b) > a or b = mirror a (a tie).  Only the identity fixes
    an injective labeling, so a swept one counts |Aut(G)|, twice that
    unless a is its own mirror or at a tie (its mirror image's orbit is
    swept here then).  Partition a holds the labelings whose least min(b,
    mirror b) over vertex 0's orbit is a.  The lexicographically first
    labeling with a property both symmetries keep is swept; counts do not
    depend on the order, which only decides where the rules prune.

    `leaf(assign, used, batch)` gets, in lexicographic order, each
    assignment of vertices 0..n-3 (`assign[:n-2]`, reused: copy it to keep
    it) that some labels complete; `used` marks its labels.  `batch` holds
    (x, mask, count) for each label x of vertex n-2 that some label
    completes, in ascending x: `mask` marks those vertex n-1 can take,
    `count` the labelings they stand for.  So the leaves come in
    lexicographic order, and the first with a property is the
    lexicographically first labeling with it.  A vertex's candidates are the
    unused labels its orbit rules allow that are strong with each earlier
    neighbour (an edge is checked at its later end), minus the partners
    whose sum with it is already taken in that graph.  A sum is keyed by its
    product (`_Space`); `partners[i]` maps the key of each strong L_i + L_j
    to the bit of j, unique as L_i(t)X(t) = L_i(t)Y(t) gives X = Y, so two
    new edges at one vertex never share a sum.  The frame placing vertex n-2
    finds n-1's candidates too, the rules not involving n-2's label once."""
    n = len(verts)
    last = n - 1
    pos = {v: k for k, v in enumerate(verts)}
    # earlier[k]: (graph, neighbour) for each edge from vertex k to an earlier vertex
    earlier: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for h, graph in enumerate(graphs):
        for a, b in sorted(sorted((pos[u], pos[v])) for u, v in graph.edges):
            earlier[b].append((h, a))
    orbits = _orbits(graphs[0], verts)
    group = math.prod(1 + len(orbit) for orbit in orbits)
    # above[w]: the last k >= 1 with w in orbit[k], whose label w's must exceed
    above = [max([k for k in range(1, w) if w in orbits[k]], default=0) for w in range(n)]
    strong, spread, mirror = space.strong, space.spread, space.mirror
    partners = [{si * spread[j]: 1 << j for j in range(len(mirror)) if row >> j & 1}
                for si, row in zip(spread, strong)]
    full_mask = (1 << len(mirror)) - 1
    sums: list[list[int]] = [[] for _ in graphs]  # edge sumset keys taken, per graph
    assign = [0] * n
    gate = [full_mask] * n  # the labels each vertex may take in this partition
    halves = [0] * n  # at vertex 0's orbit-mates, the tie label's bit if it halves the count

    def search(k: int, used: int, weight: int) -> None:
        allowed = gate[k] & ~used
        if above[k]:
            allowed &= -2 << assign[above[k]]
        for h, p in earlier[k]:
            row = partners[assign[p]]
            allowed &= strong[assign[p]]
            for s in sums[h]:
                allowed &= ~row.get(s, 0)
        if k < last - 1:
            while allowed:
                bit = allowed & -allowed
                x = assign[k] = bit.bit_length() - 1
                for h, p in earlier[k]:
                    sums[h].append(spread[assign[p]] * spread[x])
                search(k + 1, used | bit, weight // 2 if bit == halves[k] else weight)
                for h, _ in earlier[k]:
                    sums[h].pop()
                allowed ^= bit
            return
        # k = n-2.  Vertex n-1's rules that do not involve k's label:
        rest = gate[last] & ~used
        top = above[last]
        if top and top != k:
            rest &= -2 << assign[top]
        rows: list[list[dict]] = [[] for _ in graphs]  # per graph: partners of n-1's neighbours but k
        joined = []  # the sums taken in each graph where k-(n-1) is an edge
        for h, p in earlier[last]:
            if p == k:
                joined.append(sums[h])
                continue
            row = partners[assign[p]]
            rows[h].append(row)
            rest &= strong[assign[p]]
            for s in sums[h]:
                rest &= ~row.get(s, 0)
        # k's new sums against those rows (against x's own they meet only used labels)
        fresh = [(spread[assign[p]], rows[h]) for h, p in earlier[k] if rows[h]]
        batch = []
        while allowed:
            bit = allowed & -allowed
            x = bit.bit_length() - 1
            mask = rest & ~bit
            if top and top == k:
                mask &= -2 << x
            for sp, others in fresh:
                key = sp * spread[x]
                for row in others:
                    mask &= ~row.get(key, 0)
            for taken in joined:
                mask &= strong[x]
                for s in taken:
                    mask &= ~partners[x].get(s, 0)
            if mask:
                w = weight // 2 if bit == halves[k] else weight
                batch.append((x, mask, w * mask.bit_count() - (w // 2 if mask & halves[last] else 0)))
            allowed ^= bit
        if batch:
            leaf(assign, used, batch)

    for first, image in enumerate(mirror):
        if first < start or image < first:
            continue
        tie = 1 << image if first < image else 0
        outside = sum(1 << b for b, m in enumerate(mirror) if min(b, m) > first)
        for w in orbits[0]:
            gate[w], halves[w] = outside | tie, tie
        gate[0] = 1 << first
        search(0, 0, 2 * group if tie else group)
        yield first + 1


def _chain_extension(space: _Space, used: int) -> tuple[int, int]:
    """For the labels in `used`: the length c of their longest pairwise
    difference-disjoint subfamily (only labels with nonempty difference sets
    count), and the mask of the other carriers that extend some such
    subfamily of length c.  One more label x makes the longest chain c + 1
    when x is in that mask, and leaves it c otherwise.

    The subfamilies grow member by member: each is kept as (size, labels
    difference-disjoint from every member), and a member is added to each
    one it fits."""
    families = [(0, -1)]
    rest = used & space.carriers
    while rest:
        bit = rest & -rest
        row = space.ddisjoint[bit.bit_length() - 1]
        families += [(size + 1, reach & row) for size, reach in families if reach & bit]
        rest ^= bit
    best, up = 0, 0
    for size, reach in families:
        if size > best:
            best, up = size, reach
        elif size == best:
            up |= reach
    return best, up & space.carriers & ~used


class MinChainResult(_Record):
    """Definitional nourishing-number search: the minimum, over every strong
    labeling in the space, of the longest difference-set chain."""

    __slots__ = ("exhausted", "value", "witness", "strong_count", "partitions")

    def __init__(self, exhausted: bool, value: int | None, witness: Labeling | None,
                 strong_count: int, partitions: int):
        self._set(exhausted, value, witness, strong_count, partitions)

    def to_dict(self) -> dict:
        return {
            "exhausted": self.exhausted,
            "value": self.value,
            "strong_labelings": self.strong_count,
            "partitions": self.partitions,
        }


def _checkpoint_path(g: Graph, cfg: OracleConfig) -> tuple[str, Path] | tuple[None, None]:
    """(key, file) of g's minchain checkpoint, or Nones: no checkpoint directory."""
    directory = os.environ.get(CHECKPOINT_ENV)
    if not directory:
        return None, None
    key = hashlib.sha256((write_graph(g) + repr(cfg)).encode("utf-8")).hexdigest()[:16]
    path = Path(directory)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot use oracle checkpoint directory {path}: {exc}") from exc
    return key, path / f"minchain-{key}.json"


def _labeling(labels: list[IntSet], verts: list[str], assign) -> Labeling:
    """The labeling giving verts[k] the label of index assign[k]."""
    return Labeling({v: labels[i] for v, i in zip(verts, assign)})


def _has_chain(g: Graph, f: Labeling, best: int) -> bool:
    """Whether the reference verifier finds f strong on g, with longest chain `best`."""
    return verify(g, f).is_strong and chain_report(g, f).max_chain_length == best


def _digest(state: dict) -> str:
    """SHA-256 of a checkpoint's fields, the digest itself not among them."""
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode("utf-8")).hexdigest()


def _read_checkpoint(
    path: Path, key: str, g: Graph, verts: list[str], labels: list[IntSet]
) -> dict:
    """Load a minchain checkpoint, refusing (ValueError naming the file) one
    that is unreadable, of another schema version, changed since written (by
    its digest), written for another graph or configuration, holding bad
    fields, or whose witness is not a strong labeling of g with its chain."""

    def bad(why: str) -> ValueError:
        return ValueError(f"oracle checkpoint {path} is unusable ({why}); delete it to start over")

    try:  # JSON nested deep enough raises RecursionError in the reader or the digest
        state = json.loads(path.read_text(encoding="utf-8"))
        signed = isinstance(state, dict) and state.pop("digest", None) == _digest(state)
    except (OSError, ValueError, RecursionError) as exc:
        raise bad(f"unreadable: {exc}") from exc
    if not isinstance(state, dict) or state.get("version") != CHECKPOINT_VERSION:
        raise bad(f"not a version {CHECKPOINT_VERSION} checkpoint")
    if not signed:
        raise bad("its digest does not match its fields")
    if state.get("key") != key:
        raise bad("written for another graph or configuration")

    start, best, witness, count = (state.get(k) for k in ("next", "best", "witness", "strong_count"))
    # Nothing is counted before partition 0 is swept.
    if not (type(start) is int and 0 <= start <= len(labels) and type(count) is int and (
        (best is None and witness is None and count == 0)
        or (type(best) is int and count > 0 and start > 0 and isinstance(witness, list)
            and len(witness) == len(verts) and all(type(i) is int and 0 <= i < len(labels) for i in witness))
    )):
        raise bad("malformed fields")
    # A best chain outside 0..n or a witness repeating a label fails here too.
    if witness is not None and not _has_chain(g, _labeling(labels, verts, witness), best):
        raise bad("the witness is not a strong labeling with the recorded chain")
    return state


def _write_checkpoint(path: Path, state: dict) -> None:
    """Write through a per-process temp file and an atomic rename, so a crash
    (or a concurrent sweep) never leaves a half-written checkpoint behind."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(state))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def min_max_chain(g: Graph, cfg: OracleConfig) -> MinChainResult:
    """Enumerate every labeling in the space, keep the strong ones, and take
    the minimum of their longest chains.

    `_sweep` enumerates one per orbit of Aut(g) and the mirror, which keep
    the chains, weighted by the orbit, in the search order of
    `_search_vertices`; the witness is the lexicographically first minimiser
    in that order.  With a checkpoint directory in IASI_ORACLE_CHECKPOINT_DIR
    the next partition to sweep (a label on the orbit of the search order's
    vertex 0: those below it and their mirrors are counted) is recorded at
    most once per CHECKPOINT_INTERVAL_S and after the last partition, and
    re-runs resume from it; the best witness so far is in the search order.

    A chain never shrinks as labels join.  So once a minimum is known, a
    partial labeling whose placed labels already hold a chain that long has
    no completion below it: its leaves are counted and not measured.  The
    placed labels' chain comes from the facts of the prefix a batch shares,
    read once per batch and cached like the rest.  n - 1 labels hold no
    chain longer than n - 1, so the test is skipped while the minimum is
    above that."""
    verts = _search_vertices(g, cfg)
    space = _Space(cfg)
    labels = space.labels
    total = len(labels)

    ckpt_key, ckpt = _checkpoint_path(g, cfg)
    start = 0  # the next partition to sweep
    best: int | None = None
    best_assign: list[int] | None = None
    strong_count = 0
    if ckpt is not None and ckpt.exists():
        state = _read_checkpoint(ckpt, ckpt_key, g, verts, labels)
        start, best, best_assign, strong_count = (
            state["next"], state["best"], state["witness"], state["strong_count"])

    last = len(verts) - 1
    # (longest chain, extending carriers) per set of labels, keyed by its label mask
    chains: dict[int, tuple[int, int]] = {}

    def facts(used: int) -> tuple[int, int]:
        known = chains.get(used)
        if known is None:
            if len(chains) >= CHAIN_CACHE_LIMIT:
                chains.clear()
            known = chains[used] = _chain_extension(space, used)
        return known

    def leaf(assign: list[int], used: int, batch: list[tuple[int, int, int]]) -> None:
        nonlocal best, best_assign, strong_count
        prefix = facts(used) if best is not None and best <= last else None
        for x, mask, count in batch:
            strong_count += count
            if prefix and prefix[0] + (prefix[1] >> x & 1) >= best:
                continue
            c, up = facts(used | 1 << x)
            shorter = mask & ~up
            chain = c if shorter else c + 1
            if best is None or chain < best:
                best = chain
                best_assign = [*assign[:last - 1], x, _lowest(shorter or mask)]

    def save() -> None:
        state = {"version": CHECKPOINT_VERSION, "key": ckpt_key, "next": start,
                 "best": best, "witness": best_assign, "strong_count": strong_count}
        _write_checkpoint(ckpt, {**state, "digest": _digest(state)})

    unsaved = False
    saved_at = time.monotonic()
    for start in _sweep(space, verts, (g,), leaf, start):
        unsaved = True
        if ckpt is not None and time.monotonic() - saved_at >= CHECKPOINT_INTERVAL_S:
            save()
            unsaved, saved_at = False, time.monotonic()
    if ckpt is not None and unsaved:
        save()

    if best_assign is None:
        return MinChainResult(exhausted=True, value=None, witness=None, strong_count=0, partitions=total)
    witness = _labeling(labels, verts, best_assign)
    # Re-anchor the fast enumeration to the reference verifier.
    if not _has_chain(g, witness, best):
        raise InternalCheckError("oracle witness is not strong with its chain by verify and chain_report")
    return MinChainResult(exhausted=False, value=best, witness=witness, strong_count=strong_count,
                          partitions=total)


class ConcurrentSearch(_Record):
    """Search for a labeling that is strong on a graph and its complement."""

    __slots__ = ("exists", "witness", "witnesses_found", "all_witnesses_pairwise_disjoint",
                 "disjointness_counterexample")

    def __init__(self, exists: bool, witness: Labeling | None, witnesses_found: int,
                 all_witnesses_pairwise_disjoint: bool, disjointness_counterexample: Labeling | None):
        self._set(exists, witness, witnesses_found, all_witnesses_pairwise_disjoint,
                  disjointness_counterexample)

    def to_dict(self) -> dict:
        return {
            "exists": self.exists,
            "witnesses_found": self.witnesses_found,
            "all_witnesses_pairwise_disjoint": self.all_witnesses_pairwise_disjoint,
        }


def exists_concurrent(g: Graph, cfg: OracleConfig) -> ConcurrentSearch:
    """Enumerate labelings strong on both g and its complement.

    Pruning uses the per-edge sumset-cardinality condition on the two edge
    sets (the definition); every witness is then audited for pairwise
    difference-set disjointness, the chain-style restatement, so the two
    routes stay independent.  `_sweep` enumerates one witness per orbit of
    Aut(g) = Aut(complement) and the mirror, which keep both routes, so the
    first witness and the first non-disjoint one, first in the search order
    of `_search_vertices`, are swept; a sample of the swept ones is
    re-checked with verify_concurrent_strong."""
    verts = _search_vertices(g, cfg)
    gbar = complement(g)
    _check_no_isolated(gbar, "complement")

    space = _Space(cfg)
    # Witnesses stream past, a partial labeling and its mask of last labels
    # at a time: keep their weighted count, the first non-disjoint one and an
    # audit sample (enumerated witnesses 1-8, then each power-of-two one).
    last = len(verts) - 1
    count = seen = 0  # witnesses, and those enumerated
    audit = 1  # the number of the next enumerated witness to sample
    bad: tuple[int, ...] | None = None
    sample: list[tuple[int, ...]] = []

    def leaf(assign: list[int], used: int, batch: list[tuple[int, int, int]]) -> None:
        nonlocal count, seen, audit, bad
        prefix = assign[:last - 1]
        reach = -1  # labels difference-disjoint from every label of the prefix
        for a in prefix:
            reach &= space.ddisjoint[a] | 1 << a
        for x, mask, weighted in batch:
            if bad is None:
                apart = reach & (space.ddisjoint[x] | 1 << x)
                flawed = mask if (used | 1 << x) & ~apart else mask & ~apart
                if flawed:
                    bad = (*prefix, x, _lowest(flawed))
            found = mask.bit_count()
            while audit <= seen + found:
                rest = mask
                for _ in range(audit - seen - 1):
                    rest &= rest - 1
                sample.append((*prefix, x, _lowest(rest)))
                audit = audit + 1 if audit < 8 else audit << 1
            seen += found
            count += weighted

    for _ in _sweep(space, verts, (g, gbar), leaf):
        pass

    for w in sample:  # the reference checker on every witness would be slow
        if not verify_concurrent_strong(g, _labeling(space.labels, verts, w)):
            raise InternalCheckError("oracle witness rejected by verify_concurrent_strong")

    return ConcurrentSearch(
        exists=bool(sample),
        witness=_labeling(space.labels, verts, sample[0]) if sample else None,
        witnesses_found=count,
        all_witnesses_pairwise_disjoint=bad is None,
        disjointness_counterexample=None if bad is None else _labeling(space.labels, verts, bad),
    )

