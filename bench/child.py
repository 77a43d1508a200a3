"""One pass of a workload's request list, in a fresh interpreter.

    python3 bench/child.py <src> <requests.json> <tmpdir> <result.json> [<spans.csv>]

Imports `iasi` from <src> (refusing any other copy) and runs every request
in order as a closed loop, checking each outcome against what its input
was built to produce.  Given <spans.csv>, the pass is traced: the module
boundaries are wrapped, and the spans and per-layer summary are written
out after the last request.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import sys
import time
from itertools import combinations
from pathlib import Path

import gen
import reference


def import_iasi(src: str):
    """Import `iasi` and every submodule from `src`; fail if another copy loads."""
    sys.path.insert(0, src)
    iasi = importlib.import_module("iasi")
    package = Path(src).resolve() / "iasi"
    if Path(iasi.__file__).resolve().parent != package:
        raise ImportError(f"iasi imported from {iasi.__file__}, not from {package}")
    for path in sorted(package.glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"iasi.{path.stem}")
    return iasi


def _call(request: dict, tmp: str) -> tuple[int, str]:
    """Run one request; returns (exit code, captured stdout)."""
    args = [a.replace("{tmp}", tmp) for a in request["argv"]]
    out = io.StringIO()
    if request["kind"] == "chain_report":
        graph, labeling = sys.modules["iasi.graph"], sys.modules["iasi.labeling"]
        g = graph.read_graph(Path(args[0]).read_text(encoding="utf-8"))
        f = labeling.read_labeling(Path(args[1]).read_text(encoding="utf-8"))
        out.write(json.dumps(labeling.chain_report(g, f).to_dict()))
        return 0, out.getvalue()
    cli = sys.modules["iasi.cli"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(args)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# outcome checks: each returns (problem or None, work counts)
# ---------------------------------------------------------------------------

def _check_verify(e, o):
    if o["property"] != e["property"] or o["holds"] != (e["exit"] == 0):
        return f"property {o['property']} holds={o['holds']}", {}
    return None, {}


def _check_construct(e, o):
    if o["self_verified"] is not True:
        return "not self-verified", {}
    if (o["vertices"], o["edges"]) != (e["vertices"], e["edges"]):
        return f"built for {o['vertices']} vertices / {o['edges']} edges", {}
    return None, {"color_classes": o["color_classes"], "max_label_element": o["max_label_element"]}


def _check_nourish(e, o):
    kappa, witness = o["nourishing_number"], o["max_clique"]
    if not kappa == o["clique_number"] == len(witness):
        return f"kappa {kappa} vs witness of {len(witness)}", {}
    if kappa < e["planted"]:
        return f"kappa {kappa} below the planted clique {e['planted']}", {}
    edges = gen.read_edges(Path(e["graph"]).read_text(encoding="utf-8"))
    if any(tuple(sorted(p)) not in edges for p in combinations(witness, 2)):
        return "witness is not a clique", {}
    return None, {}


def _check_ops(e, o):
    if o["kappa_agrees"] is not True:
        return f"kappa_agrees={o['kappa_agrees']}", {}
    if o["edge_count_formula_holds"] != e["edge_formula"]:
        return f"edge_count_formula_holds={o['edge_count_formula_holds']}", {}
    if (o["vertices"], o["edges"]) != (e["vertices"], e["edges"]):
        return f"result has {o['vertices']} vertices / {o['edges']} edges", {}
    return None, {}


def _check_chain(e, o):
    chain = o["max_chain"]
    if o["max_chain_length"] != e["length"] or len(chain) != e["length"]:
        return f"chain of {o['max_chain_length']}, expected {e['length']}", {}
    if len({e["part"][v] for v in chain}) != len(chain):
        return "chain repeats a stride class", {}
    return None, {}


def _check_minchain(e, o):
    if o["agree"] is not True:
        return f"agree={o['agree']}", {}
    return None, {"strong_labelings": o["strong_labelings"]}


def _check_concurrent_oracle(e, o):
    if o["all_witnesses_pairwise_disjoint"] is not True:
        return "a witness has overlapping difference sets", {}
    return None, {"witnesses_found": o["witnesses_found"]}


def _check_lemma(e, o):
    if o["ok"] is not True or o["pairs_checked"] != e["pairs"]:
        return f"ok={o['ok']} pairs_checked={o['pairs_checked']}", {}
    return None, {"lemma_pairs_checked": o["pairs_checked"]}


CHECKS = {
    "verify": _check_verify,
    "construct": _check_construct,
    "nourish": _check_nourish,
    "ops": _check_ops,
    "chain": _check_chain,
    "minchain": _check_minchain,
    "concurrent_oracle": _check_concurrent_oracle,
    "lemma": _check_lemma,
}


def _outcome(request: dict, stdout: str) -> dict:
    if request["kind"] == "chain_report":
        return json.loads(stdout)
    # The CLI prints the JSON document, then a one-line timing object.
    document, _, _ = stdout.rstrip("\n").rpartition("\n")
    return json.loads(document)["outcome"]


def check(request: dict, code: int, stdout: str) -> tuple[str | None, dict]:
    """Whether one request produced what its input was built to produce."""
    expect = request["expect"]
    if code != expect["exit"]:
        return f"exit {code}, expected {expect['exit']}", {}
    try:
        return CHECKS[expect["check"]](expect, _outcome(request, stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable outcome: {type(exc).__name__}: {exc}", {}


def run_pass(requests: list[dict], tmp: str, tracer=None) -> dict:
    """One closed-loop pass: each request runs and is timed, then is checked.

    The reference kernel is timed before each request and after the last.
    `wall_s` is the sum of the request latencies, so neither checks nor
    reference timings count toward it.
    """
    latencies: list[float] = []
    failures: list[dict] = []
    counts: dict[str, int] = {}
    references = [reference.seconds()]
    for request in requests:
        if tracer is not None:
            tracer.request_id = request["id"]
        t = time.perf_counter()
        try:
            code, stdout = _call(request, tmp)
            error = None
        except (Exception, SystemExit) as exc:
            error = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t)
        problem, found = (error, {}) if error is not None else check(request, code, stdout)
        if problem is not None:
            failures.append({"id": request["id"], "label": request["label"], "problem": problem})
        for key, value in found.items():
            merge = max if key == "max_label_element" else int.__add__
            counts[key] = merge(counts.get(key, 0), value)
        references.append(reference.seconds())
    return {
        "wall_s": sum(latencies),
        "latencies_s": latencies,
        "reference_s": references,
        "attempted": len(requests),
        "failures": failures,
        "outcome_counts": counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv: list[str]) -> int:
    src, requests_path, tmp, result_path = argv[:4]
    spans_path = argv[4] if len(argv) > 4 else None
    try:
        import_iasi(src)
    except ImportError as exc:
        print(f"child: {exc}", file=sys.stderr)
        return 2
    requests = json.loads(Path(requests_path).read_text(encoding="utf-8"))
    tracer = None
    if spans_path is not None:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    result = run_pass(requests, tmp, tracer)
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(spans_path)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
