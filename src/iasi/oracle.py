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
import os
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

from .errors import InternalCheckError
from .graph import Graph, complement, write_graph
from .labeling import (
    Labeling,
    _check_no_isolated,
    chain_report,
    verify,
    verify_concurrent_strong,
    write_labeling,
)
from .setalg import IntSet, diff_set, disjoint, is_strong_pair, sumset

__all__ = [
    "OracleConfig",
    "LemmaCheck",
    "MinChainResult",
    "ConcurrentSearch",
    "lemma_oracle",
    "min_max_chain",
    "exists_concurrent",
    "write_bundle",
    "CHECKPOINT_ENV",
]

CHECKPOINT_ENV = "IASI_ORACLE_CHECKPOINT_DIR"
CHECKPOINT_VERSION = 1
UNIVERSE_LIMIT = 10


def _check_universe(universe_max: int) -> None:
    """Every oracle refuses a negative universe or one it could not finish."""
    if universe_max < 0:
        raise ValueError("universe_max must be non-negative")
    if universe_max > UNIVERSE_LIMIT:
        raise ValueError(f"universe_max {universe_max} exceeds the exhaustive limit {UNIVERSE_LIMIT}")


@dataclass(frozen=True)
class OracleConfig:
    """Search-space bounds: labels are subsets of {0..universe_max} with
    cardinality in [min_card, max_card]; universes above UNIVERSE_LIMIT and
    graphs above vertex_limit are refused outright."""

    universe_max: int = 6
    min_card: int = 2
    max_card: int = 2
    vertex_limit: int = 5

    def __post_init__(self):
        _check_universe(self.universe_max)
        if not (1 <= self.min_card <= self.max_card <= self.universe_max + 1):
            raise ValueError(
                "need 1 <= min_card <= max_card <= universe_max + 1, got "
                f"min_card={self.min_card}, max_card={self.max_card}, "
                f"universe_max={self.universe_max}"
            )
        if self.vertex_limit < 1:
            raise ValueError("vertex_limit must be positive")

    def candidate_labels(self) -> list[IntSet]:
        """Every admissible label, ordered by subset rank (binary counting
        over the universe), so enumeration order is canonical."""
        universe = range(self.universe_max + 1)
        out = []
        for mask in range(1, 1 << (self.universe_max + 1)):
            if self.min_card <= mask.bit_count() <= self.max_card:
                out.append(IntSet(x for x in universe if mask >> x & 1))
        return out


@dataclass
class LemmaCheck:
    """Verdict of the sumset-cardinality vs difference-set-disjointness sweep."""

    ok: bool
    pairs_checked: int
    counterexample: tuple[IntSet, IntSet] | None = None

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "pairs_checked": self.pairs_checked,
            "counterexample": None
            if self.counterexample is None
            else [str(self.counterexample[0]), str(self.counterexample[1])],
        }


def lemma_oracle(universe_max: int) -> LemmaCheck:
    """Exhaustively compare |A+B| == |A|*|B| with D_A disjoint from D_B over
    every pair of nonempty subsets of {0..universe_max}."""
    _check_universe(universe_max)
    universe = list(range(universe_max + 1))
    subsets = []
    for size in range(1, len(universe) + 1):
        subsets.extend(IntSet(c) for c in combinations(universe, size))
    diffs = {s: diff_set(s) for s in subsets}

    checked = 0
    for a in subsets:
        da = diffs[a]
        for b in subsets:
            checked += 1
            if is_strong_pair(a, b) != disjoint(da, diffs[b]):
                return LemmaCheck(ok=False, pairs_checked=checked, counterexample=(a, b))
    return LemmaCheck(ok=True, pairs_checked=checked)


# ---------------------------------------------------------------------------
# labeling enumeration
# ---------------------------------------------------------------------------

class _Space:
    """Precomputed pairwise data over the candidate labels.

    `strong[i]` is a bitmask of the j with |L_i + L_j| == |L_i| * |L_j|
    (computed through the sumset, the cardinality route); `ddisjoint[i]`
    marks the j whose difference sets avoid L_i's (the difference route).
    The searches prune with the former and audit with the latter, so a
    failure of the equivalence would surface as a disagreement instead of
    being assumed away.
    """

    def __init__(self, cfg: OracleConfig):
        self.labels = cfg.candidate_labels()
        n = len(self.labels)
        self.diffs = [diff_set(s) for s in self.labels]
        self.carrier = [len(d) > 0 for d in self.diffs]
        self.strong = [0] * n
        self.ddisjoint = [0] * n
        for i in range(n):
            for j in range(i, n):
                if is_strong_pair(self.labels[i], self.labels[j]):
                    self.strong[i] |= 1 << j
                    self.strong[j] |= 1 << i
                if disjoint(self.diffs[i], self.diffs[j]):
                    self.ddisjoint[i] |= 1 << j
                    self.ddisjoint[j] |= 1 << i
        self._sums: dict[tuple[int, int], int] = {}
        self._sum_ids: dict[IntSet, int] = {}

    def sum_key(self, i: int, j: int) -> int:
        """A small integer naming the sumset L_i + L_j: equal iff the sumsets are."""
        key = (i, j) if i <= j else (j, i)
        cached = self._sums.get(key)
        if cached is None:
            s = sumset(self.labels[key[0]], self.labels[key[1]])
            cached = self._sums[key] = self._sum_ids.setdefault(s, len(self._sum_ids))
        return cached


def _edge_indices(g: Graph, verts: list[str]) -> list[tuple[int, int]]:
    pos = {v: k for k, v in enumerate(verts)}
    return sorted((min(pos[u], pos[v]), max(pos[u], pos[v])) for u, v in g.edges)


def _search_vertices(g: Graph, cfg: OracleConfig) -> list[str]:
    """The sorted vertices of a graph the oracle agrees to search."""
    verts = sorted(g.vertices)
    if len(verts) > cfg.vertex_limit:
        raise ValueError(
            f"graph has {len(verts)} vertices, above the oracle vertex limit {cfg.vertex_limit}"
        )
    if not verts:
        raise ValueError("cannot search labelings of the empty graph")
    _check_no_isolated(g)
    return verts


def _enumerate(
    space: _Space,
    n: int,
    edge_groups: list[list[tuple[int, int]]],
    first: int,
    hit: Callable[[list[int]], None],
) -> None:
    """Call `hit(assign)` for every injective assignment of label indices to
    vertices 0..n-1 with assign[0] = first, every edge of every group a
    strong pair, and the edge sumsets distinct within each group.  Leaves
    come in lexicographic order; `assign` is reused, so copy it to keep it."""
    prev_nbrs: list[list[int]] = [[] for _ in range(n)]
    for edges in edge_groups:
        for a, b in edges:
            prev_nbrs[b].append(a)
    strong, sum_key = space.strong, space.sum_key
    full_mask = (1 << len(space.labels)) - 1
    assign = [first] * n

    def search(k: int, used: int) -> None:
        if k == n:
            for edges in edge_groups:
                if len({sum_key(assign[a], assign[b]) for a, b in edges}) != len(edges):
                    return
            hit(assign)
            return
        allowed = full_mask & ~used
        for p in prev_nbrs[k]:
            allowed &= strong[assign[p]]
        while allowed:
            bit = allowed & -allowed
            assign[k] = bit.bit_length() - 1
            search(k + 1, used | bit)
            allowed ^= bit

    search(1, 1 << first)


def _max_chain_of(space: _Space, chosen: tuple[int, ...], cache: dict) -> int:
    """Longest pairwise difference-disjoint subfamily among the chosen labels
    (only labels with nonempty difference sets count)."""
    key = frozenset(chosen)
    hit = cache.get(key)
    if hit is not None:
        return hit
    idx = [i for i in chosen if space.carrier[i]]
    n = len(idx)
    best = 0
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if size <= best:
            continue
        members = [idx[p] for p in range(n) if mask >> p & 1]
        if all(
            space.ddisjoint[a] >> b & 1 for a, b in combinations(members, 2)
        ):
            best = size
    cache[key] = best
    return best


@dataclass
class MinChainResult:
    """Definitional nourishing-number search: the minimum, over every strong
    labeling in the space, of the longest difference-set chain."""

    exhausted: bool
    value: int | None
    witness: Labeling | None
    strong_count: int
    partitions: int

    def to_dict(self) -> dict:
        return {
            "exhausted": self.exhausted,
            "value": self.value,
            "strong_labelings": self.strong_count,
            "partitions": self.partitions,
        }


def _checkpoint_path(checkpoint_dir: str | None, key: str) -> Path | None:
    directory = checkpoint_dir if checkpoint_dir is not None else os.environ.get(CHECKPOINT_ENV)
    if not directory:
        return None
    path = Path(directory)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot use oracle checkpoint directory {path}: {exc}") from exc
    return path / f"minchain-{key}.json"


def _read_checkpoint(path: Path, key: str, total: int, n: int) -> dict:
    """Load a minchain checkpoint, refusing (ValueError naming the file) one
    that is unreadable, of another schema version, written for another
    graph or configuration, or holding out-of-range fields."""

    def bad(why: str) -> ValueError:
        return ValueError(f"oracle checkpoint {path} is unusable ({why}); delete it to start over")

    try:
        state = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise bad(f"unreadable: {exc}") from exc
    if not isinstance(state, dict) or state.get("version") != CHECKPOINT_VERSION:
        raise bad(f"not a version {CHECKPOINT_VERSION} checkpoint")
    if state.get("key") != key:
        raise bad("written for another graph or configuration")

    def indices(x) -> bool:
        return isinstance(x, list) and all(type(i) is int and 0 <= i < total for i in x)

    best, witness, count = state.get("best"), state.get("witness"), state.get("strong_count")
    if not (
        indices(state.get("done"))
        and type(count) is int
        and count >= 0
        and (
            (best is None and witness is None)
            or (type(best) is int and indices(witness) and len(witness) == n)
        )
    ):
        raise bad("malformed fields")
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


def min_max_chain(
    g: Graph, cfg: OracleConfig, checkpoint_dir: str | None = None
) -> MinChainResult:
    """Enumerate every labeling in the space, keep the strong ones, and take
    the minimum of their longest chains.

    The sweep is partitioned by the first vertex's label; with a checkpoint
    directory (argument or the IASI_ORACLE_CHECKPOINT_DIR variable) finished
    partitions are recorded and skipped on re-runs.
    """
    verts = _search_vertices(g, cfg)
    space = _Space(cfg)
    labels = space.labels
    total = len(labels)
    n = len(verts)
    edges = _edge_indices(g, verts)

    ckpt_key = hashlib.sha256(
        (write_graph(g) + repr(cfg)).encode("utf-8")
    ).hexdigest()[:16]
    ckpt = _checkpoint_path(checkpoint_dir, ckpt_key)
    done: set[int] = set()
    best: int | None = None
    best_assign: tuple[int, ...] | None = None
    strong_count = 0
    if ckpt is not None and ckpt.exists():
        state = _read_checkpoint(ckpt, ckpt_key, total, n)
        done = set(state["done"])
        best = state["best"]
        best_assign = tuple(state["witness"]) if state["witness"] is not None else None
        strong_count = state["strong_count"]

    chain_cache: dict[frozenset[int], int] = {}

    def hit(assign: list[int]) -> None:
        nonlocal best, best_assign, strong_count
        strong_count += 1
        chain = _max_chain_of(space, tuple(assign), chain_cache)
        if best is None or chain < best:
            best = chain
            best_assign = tuple(assign)

    for first in range(total):
        if first in done:
            continue
        _enumerate(space, n, [edges], first, hit)
        done.add(first)
        if ckpt is not None:
            _write_checkpoint(
                ckpt,
                {
                    "version": CHECKPOINT_VERSION,
                    "key": ckpt_key,
                    "done": sorted(done),
                    "best": best,
                    "witness": list(best_assign) if best_assign is not None else None,
                    "strong_count": strong_count,
                },
            )

    if best_assign is None:
        return MinChainResult(
            exhausted=True, value=None, witness=None, strong_count=0, partitions=total
        )

    witness = Labeling({v: labels[best_assign[k]] for k, v in enumerate(verts)})
    # Re-anchor the fast enumeration to the reference verifier.
    if not verify(g, witness).is_strong:
        raise InternalCheckError("oracle accepted a labeling the verifier rejects")
    if chain_report(g, witness).max_chain_length != best:
        raise InternalCheckError("oracle chain length disagrees with chain_report")
    return MinChainResult(
        exhausted=False,
        value=best,
        witness=witness,
        strong_count=strong_count,
        partitions=total,
    )


@dataclass
class ConcurrentSearch:
    """Search for a labeling that is strong on a graph and its complement."""

    exists: bool
    witness: Labeling | None
    witnesses_found: int
    all_witnesses_pairwise_disjoint: bool
    disjointness_counterexample: Labeling | None

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
    routes stay independent.  A sample of witnesses is re-checked with
    verify_concurrent_strong.
    """
    verts = _search_vertices(g, cfg)
    gbar = complement(g)
    _check_no_isolated(gbar, "complement")

    space = _Space(cfg)
    groups = [_edge_indices(g, verts), _edge_indices(gbar, verts)]
    found: list[tuple[int, ...]] = []
    for first in range(len(space.labels)):
        _enumerate(space, len(verts), groups, first, lambda assign: found.append(tuple(assign)))

    bad = next(
        (w for w in found if not all(space.ddisjoint[a] >> b & 1 for a, b in combinations(w, 2))),
        None,
    )

    def to_labeling(w: tuple[int, ...]) -> Labeling:
        return Labeling({v: space.labels[w[k]] for k, v in enumerate(verts)})

    # Sample audit with the reference checker (every witness would be slow).
    for w in found[:: max(1, len(found) // 7)][:8]:
        if not verify_concurrent_strong(g, to_labeling(w)):
            raise InternalCheckError("oracle witness rejected by verify_concurrent_strong")

    return ConcurrentSearch(
        exists=bool(found),
        witness=to_labeling(found[0]) if found else None,
        witnesses_found=len(found),
        all_witnesses_pairwise_disjoint=bad is None,
        disjointness_counterexample=to_labeling(bad) if bad is not None else None,
    )


def write_bundle(
    directory: str | Path,
    name: str,
    g: Graph,
    f: Labeling | None,
    report: dict,
) -> list[Path]:
    """Serialize a (graph, labeling, report) evidence bundle to a directory."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / f"{name}.graph.txt"]
    paths[0].write_text(write_graph(g), encoding="utf-8")
    if f is not None:
        p = out / f"{name}.labeling.txt"
        p.write_text(write_labeling(f), encoding="utf-8")
        paths.append(p)
    rp = out / f"{name}.report.json"
    rp.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    paths.append(rp)
    return paths
