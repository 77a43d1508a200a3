"""The four workloads: a seeded, fixed list of requests each.

A request is one `iasi` CLI call (argv, run in-process by `child.py`) or,
for `chain_report`, which has no CLI, one library call on a graph and a
labeling file.  Each request carries the outcome its input was built to
produce, so every run checks every answer.

Sizes are fixed per workload; the seed only changes which edges, labels,
corruptions and vertex names a request gets, so run-to-run cost stays
level across seeds.
"""

from __future__ import annotations

import random
from pathlib import Path

import gen

WORKLOADS = ("construct", "verify", "kappa", "oracle")

# construct: (n, p, cardinality, mode).  The greedy Sidon search grows
# ~n^3.7, so n stays fixed and only the edges follow the seed.
CONSTRUCT = [
    (100, 0.1, 2, "coloring"),
    (120, 0.1, 3, "clique-cover"),
    (140, 0.1, 2, "clique-cover"),
    (160, 0.1, 3, "coloring"),
]

# verify --strong: (n, m, cardinality, corruption or None).
VERIFY_STRONG = [
    (400, 8000, 8, None),
    (500, 10000, 6, "stride"),
    (600, 12000, 5, None),
    (800, 16000, 4, "duplicate"),
    (700, 14000, 4, None),
    (450, 9000, 7, "stride"),
]
# verify --concurrent: (n, p, cardinality, corruption or None); one stride
# per vertex, so the labeling is strong on the graph and its complement.
VERIFY_CONCURRENT = [
    (100, 0.4, 3, None),
    (90, 0.5, 3, "stride"),
]

# nourish: (n, p, planted clique size or 0).  The G(n, 0.5) group holds
# most requests, so the median request falls well inside it.
NOURISH = [(70, 0.5, 0)] * 5 + [(70, 0.5, 12)] * 5 + [(36, 0.9, 0), (36, 0.9, 20)]
# ops: (op, (n1, p1), (n2, p2)).
OPS = [
    ("join", (22, 0.5), (22, 0.5)),
    ("product", (30, 0.3), (20, 0.3)),
    ("corona", (30, 0.3), (12, 0.5)),
]
# chain_report: part sizes of a multipartite graph labeled per part; the
# disjointness graph is complete multipartite with prod(sizes) maximal cliques.
CHAIN_PARTS = [(8, 8, 8, 8, 8, 8)]

ORACLE_MINCHAIN_MAX = 7
ORACLE_CONCURRENT_MAX = 6
ORACLE_LEMMA_MAX = 8


def _rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{k}")


def _names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


class _Batch:
    def __init__(self, workload: str, seed: int, inputs: Path):
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.requests: list[dict] = []

    def rng(self) -> random.Random:
        return _rng(self.workload, self.seed, len(self.requests))

    def write(self, name: str, text: str) -> str:
        path = self.inputs / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def add(self, label: str, argv: list[str], expect: dict, kind: str = "cli") -> None:
        self.requests.append(
            {"id": len(self.requests), "label": label, "kind": kind, "argv": argv, "expect": expect}
        )


def _construct(b: _Batch) -> None:
    for i, (n, p, card, mode) in enumerate(CONSTRUCT):
        rng = b.rng()
        edges = gen.gnp(rng, n, p)
        graph = b.write(f"c{i}.graph", gen.graph_text(_names("v", n), edges))
        out = f"{{tmp}}/c{i}.labeling"
        b.add(
            f"construct n={n} c={card} {mode}",
            ["construct", graph, "--cardinality", str(card), "--mode", mode,
             "--seed", str(rng.randrange(1000)), "--output", out, "--format", "json"],
            {"check": "construct", "exit": 0, "vertices": n, "edges": len(edges)},
        )
        b.add(
            f"verify construct output n={n}",
            ["verify", graph, out, "--strong", "--format", "json"],
            {"check": "verify", "exit": 0, "property": "strong"},
        )


def _verify(b: _Batch) -> None:
    for i, (n, m, card, bad) in enumerate(VERIFY_STRONG):
        rng = b.rng()
        edges = gen.gnm(rng, n, m)
        labels = gen.strong_labeling(rng, gen.greedy_coloring(rng, n, edges), card)
        if bad:
            labels = gen.corrupt(rng, labels, edges, bad)
        names = _names("v", n)
        graph = b.write(f"s{i}.graph", gen.graph_text(names, edges))
        labeling = b.write(f"s{i}.labeling", gen.labeling_text(names, labels))
        b.add(
            f"verify --strong n={n} m={len(edges)} c={card} {bad or 'clean'}",
            ["verify", graph, labeling, "--strong", "--format", "json"],
            {"check": "verify", "exit": 1 if bad else 0, "property": "strong"},
        )
    for i, (n, p, card, bad) in enumerate(VERIFY_CONCURRENT):
        rng = b.rng()
        edges = gen.gnp(rng, n, p)
        while gen.has_isolated(n, gen.complement_edges(n, edges)):
            edges = gen.gnp(rng, n, p)
        labels = gen.strong_labeling(rng, list(range(n)), card)
        if bad:
            labels = gen.corrupt(rng, labels, edges, bad)
        names = _names("v", n)
        graph = b.write(f"k{i}.graph", gen.graph_text(names, edges))
        labeling = b.write(f"k{i}.labeling", gen.labeling_text(names, labels))
        b.add(
            f"verify --concurrent n={n} c={card} {bad or 'clean'}",
            ["verify", graph, labeling, "--concurrent", "--format", "json"],
            {"check": "verify", "exit": 1 if bad else 0, "property": "concurrent-strong"},
        )


def _kappa(b: _Batch) -> None:
    for i, sizes in enumerate(CHAIN_PARTS):
        rng = b.rng()
        part, edges = gen.multipartite(rng, list(sizes), 0.3)
        labels = gen.strong_labeling(rng, part, 2)
        names = _names("v", len(part))
        graph = b.write(f"r{i}.graph", gen.graph_text(names, edges))
        labeling = b.write(f"r{i}.labeling", gen.labeling_text(names, labels))
        b.add(
            f"chain_report parts={'x'.join(map(str, sizes))}",
            [graph, labeling],
            {"check": "chain", "exit": 0, "length": len(sizes),
             "part": dict(zip(names, part))},
            kind="chain_report",
        )
    for i, (n, p, planted) in enumerate(NOURISH):
        rng = b.rng()
        edges = gen.gnp(rng, n, p)
        if planted:
            edges = gen.plant_clique(rng, n, edges, planted)
        graph = b.write(f"n{i}.graph", gen.graph_text(_names("v", n), edges))
        b.add(
            f"nourish G({n},{p}) planted={planted}",
            ["nourish", graph, "--format", "json"],
            {"check": "nourish", "exit": 0, "planted": planted, "graph": graph},
        )
    for i, (op, (n1, p1), (n2, p2)) in enumerate(OPS):
        rng = b.rng()
        e1, e2 = gen.gnp(rng, n1, p1), gen.gnp(rng, n2, p2)
        g1 = b.write(f"o{i}a.graph", gen.graph_text(_names("a", n1), e1))
        g2 = b.write(f"o{i}b.graph", gen.graph_text(_names("b", n2), e2))
        q1, q2 = len(e1), len(e2)
        shape = {
            "join": (n1 + n2, q1 + q2 + n1 * n2, None),
            "product": (n1 * n2, n1 * q2 + n2 * q1, True),
            "corona": (n1 * (1 + n2), q1 + n1 * q2 + n1 * n2, True),
        }[op]
        b.add(
            f"ops {op} G({n1},{p1}) G({n2},{p2})",
            ["ops", op, g1, g2, "--output", f"{{tmp}}/o{i}.graph", "--format", "json"],
            {"check": "ops", "exit": 0, "vertices": shape[0], "edges": shape[1],
             "edge_formula": shape[2]},
        )


def _oracle(b: _Batch) -> None:
    for n in (2, 3, 4):
        for j, canon in enumerate(gen.connected_graph_classes(n)):
            rng = b.rng()
            names = [f"x{k}" for k in rng.sample(range(100), n)]
            graph = b.write(f"m{n}_{j}.graph", gen.graph_text(names, canon))
            b.add(
                f"oracle minchain {n}-vertex class {j}",
                ["oracle", "minchain", graph, "--max", str(ORACLE_MINCHAIN_MAX), "--format", "json"],
                {"check": "minchain", "exit": 0},
            )
    for j, canon in enumerate(gen.connected_graph_classes(4)):
        if gen.has_isolated(4, gen.complement_edges(4, canon)):
            continue
        rng = b.rng()
        names = [f"x{k}" for k in rng.sample(range(100), 4)]
        graph = b.write(f"q{j}.graph", gen.graph_text(names, canon))
        b.add(
            f"oracle concurrent 4-vertex class {j}",
            ["oracle", "concurrent", graph, "--max", str(ORACLE_CONCURRENT_MAX), "--format", "json"],
            {"check": "concurrent_oracle", "exit": 0},
        )
    subsets = 2 ** (ORACLE_LEMMA_MAX + 1) - 1
    b.add(
        f"oracle lemma --max {ORACLE_LEMMA_MAX}",
        ["oracle", "lemma", "--max", str(ORACLE_LEMMA_MAX), "--format", "json"],
        {"check": "lemma", "exit": 0, "pairs": subsets * subsets},
    )


RECIPES = {"construct": _construct, "verify": _verify, "kappa": _kappa, "oracle": _oracle}


def build(workload: str, seed: int, inputs: Path) -> list[dict]:
    """Write the workload's input files under `inputs` and return its requests."""
    inputs.mkdir(parents=True, exist_ok=True)
    b = _Batch(workload, seed, inputs)
    RECIPES[workload](b)
    return b.requests
