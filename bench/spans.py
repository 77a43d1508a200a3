"""Outside-in spans around the public functions of each `iasi` module.

`install` replaces every binding of a boundary function, in every loaded
`iasi.*` namespace, with a recording wrapper.  Calls between modules go
through module globals, so wrapping `iasi.construct.sidon_sequence` also
times the call `construct_strong_traced` makes.  A boundary whose name no
longer exists is reported as absent, never as an error, so the trace
survives refactors that delete or fold functions.

Spans live in flat arrays until the pass ends: request id, name, parent
span, start and end.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter

# (module, function) pairs wrapped in a traced run.
BOUNDARIES = [
    ("cli", "main"),
    ("graph", "read_graph"),
    ("graph", "write_graph"),
    ("graph", "complement"),
    ("graph", "join"),
    ("graph", "cartesian_product"),
    ("graph", "corona"),
    ("graph", "union"),
    ("graph", "intersection"),
    ("graph", "clique_number"),
    ("graph", "max_clique"),
    ("graph", "maximal_cliques"),
    ("construct", "construct_strong_traced"),
    ("construct", "sidon_sequence"),
    ("construct", "primes_above"),
    ("labeling", "read_labeling"),
    ("labeling", "write_labeling"),
    ("labeling", "verify"),
    ("labeling", "verify_concurrent_strong"),
    ("labeling", "chain_report"),
    ("setalg", "sumset"),
    ("setalg", "is_strong_pair"),
    ("setalg", "diff_set"),
    ("setalg", "disjoint"),
    ("oracle", "min_max_chain"),
    ("oracle", "exists_concurrent"),
    ("oracle", "lemma_oracle"),
]

GRAPH_OPS = ("join", "cartesian_product", "corona", "union", "intersection")


# Work counted at a boundary from its arguments or result.
COUNTERS = {
    "labeling.verify": ("labeling.edges_checked", lambda args, result: len(args[0].edges)),
    "graph.maximal_cliques": ("graph.cliques_enumerated", lambda args, result: len(result)),
}


class Tracer:
    """Spans of one pass, tagged with the id of the request that ran them."""

    def __init__(self):
        self.names: list[str] = []
        self.req = array("i")
        self.name = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request_id = -1
        self.absent: list[str] = []

    def wrap(self, label: str, fn):
        index = len(self.names)
        self.names.append(label)
        counter = COUNTERS.get(label)
        clock = time.perf_counter
        req, name, parent, t0, t1, stack = (
            self.req, self.name, self.parent, self.t0, self.t1, self.stack
        )

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(t0)
            req.append(self.request_id)
            name.append(index)
            parent.append(stack[-1] if stack else -1)
            t1.append(0.0)
            stack.append(i)
            t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[i] = clock()
                stack.pop()
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, result)
            return result

        return span

    def install(self, boundaries=BOUNDARIES) -> None:
        modules = [m for k, m in sorted(sys.modules.items()) if k == "iasi" or k.startswith("iasi.")]
        for module, function in boundaries:
            label = f"{module}.{function}"
            owner = sys.modules.get(f"iasi.{module}")
            fn = getattr(owner, function, None)
            if fn is None:
                self.absent.append(label)
                continue
            wrapped = self.wrap(label, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapped)

    def summary(self) -> dict:
        """Per-name calls and self time, plus the time of `verify` calls made
        from inside `construct_strong_traced`."""
        n = len(self.t0)
        duration = [self.t1[i] - self.t0[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += duration[i]
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for i in range(n):
            label = self.names[self.name[i]]
            self_s[label] += duration[i] - child[i]
            calls[label] += 1
        self_verify = 0.0
        if "labeling.verify" in self.names and "construct.construct_strong_traced" in self.names:
            v = self.names.index("labeling.verify")
            c = self.names.index("construct.construct_strong_traced")
            for i in range(n):
                p = self.parent[i]
                if self.name[i] == v and p >= 0 and self.name[p] == c:
                    self_verify += duration[i]
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "counts": dict(self.counts),
            "self_verify_s": self_verify,
            "absent": list(self.absent),
            "spans": n,
        }

    def write_spans(self, path) -> None:
        """Gzipped CSV, one row per span: request id, name, parent span, start, end."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span,request,name,parent,start_s,end_s\n")
            for i in range(len(self.t0)):
                out.write(
                    f"{i},{self.req[i]},{self.names[self.name[i]]},{self.parent[i]},"
                    f"{self.t0[i]!r},{self.t1[i]!r}\n"
                )


def layer_metrics(summary: dict, outcome_counts: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    s = summary["self_s"]
    calls = summary["calls"]
    counts = summary["counts"]

    def t(label: str) -> tuple[float, str]:
        return (s.get(label, 0.0), "s")

    def c(value) -> tuple[float, str]:
        return (value, "count")

    edges = counts.get("labeling.edges_checked", 0)
    sumsets = calls.get("setalg.sumset", 0)
    return {
        "cli.main_self_s": t("cli.main"),
        "graph.read_graph_s": t("graph.read_graph"),
        "graph.write_graph_s": t("graph.write_graph"),
        "labeling.read_labeling_s": t("labeling.read_labeling"),
        "labeling.write_labeling_s": t("labeling.write_labeling"),
        "graph.complement_s": t("graph.complement"),
        "graph.ops_s": (sum(s.get(f"graph.{op}", 0.0) for op in GRAPH_OPS), "s"),
        "graph.clique_number_s": t("graph.clique_number"),
        "graph.max_clique_s": t("graph.max_clique"),
        "graph.maximal_cliques_s": t("graph.maximal_cliques"),
        "graph.maximal_cliques_calls": c(calls.get("graph.maximal_cliques", 0)),
        "graph.cliques_enumerated": c(counts.get("graph.cliques_enumerated", 0)),
        "construct.construct_strong_traced_self_s": t("construct.construct_strong_traced"),
        "construct.sidon_sequence_s": t("construct.sidon_sequence"),
        "construct.primes_above_s": t("construct.primes_above"),
        "construct.self_verify_s": (summary["self_verify_s"], "s"),
        "construct.color_classes": c(outcome_counts.get("color_classes", 0)),
        "construct.max_label_element": c(outcome_counts.get("max_label_element", 0)),
        "labeling.verify_s": t("labeling.verify"),
        "labeling.verify_calls": c(calls.get("labeling.verify", 0)),
        "labeling.edges_checked": c(edges),
        "labeling.verify_concurrent_strong_s": t("labeling.verify_concurrent_strong"),
        "labeling.chain_report_s": t("labeling.chain_report"),
        "setalg.sumset_calls": c(sumsets),
        "setalg.sumset_s": t("setalg.sumset"),
        "setalg.is_strong_pair_calls": c(calls.get("setalg.is_strong_pair", 0)),
        "setalg.diff_set_calls": c(calls.get("setalg.diff_set", 0)),
        "setalg.disjoint_calls": c(calls.get("setalg.disjoint", 0)),
        "setalg.sumsets_per_edge": (sumsets / edges if edges else 0.0, "sumsets/edge"),
        "oracle.min_max_chain_s": t("oracle.min_max_chain"),
        "oracle.exists_concurrent_s": t("oracle.exists_concurrent"),
        "oracle.lemma_oracle_s": t("oracle.lemma_oracle"),
        "oracle.strong_labelings": c(outcome_counts.get("strong_labelings", 0)),
        "oracle.witnesses_found": c(outcome_counts.get("witnesses_found", 0)),
        "oracle.lemma_pairs_checked": c(outcome_counts.get("lemma_pairs_checked", 0)),
    }
