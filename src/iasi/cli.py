"""Command-line front end.

Subcommands: verify, construct, nourish, ops, oracle.  Every run prints a
report whose `outcome` block is stable, machine-parseable text (sorted
keys, no timestamps); wall-clock timing is printed outside that block so
golden-file comparisons stay byte-exact.  Each `_cmd_<command>` handler
returns its input records, outcome, exit code and the files it writes as
(path, text) pairs (construct's labeling and trace, ops' graph, minchain's
bundle directory and files); construct and ops give `--output` their
artifact, and every other command writes its outcome block there.  `main`
alone starts the clock, writes the files, all of them or none and each
once, and prints the report.

Exit codes are a contract:
  0  success / requested property holds
  1  property fails (or an oracle sweep found a falsifying instance)
  2  input error: unreadable or unparseable file, failed write, bad arity,
     name collision, oracle limit
  3  internal invariant breach (self-verification failed; never expected)
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import os
import sys
import time
from pathlib import Path

from . import construct as constructmod
from . import graph as graphmod
from . import labeling as labelingmod
from . import oracle as oraclemod
from .errors import InternalCheckError, ParseError, parse_natural, to_json
from .graph import Graph, clique_number, max_clique, read_graph, write_graph
from .labeling import read_labeling, write_labeling

EXIT_OK = 0
EXIT_PROPERTY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL = 3

# op -> (arity, function of iasi.graph); the function is looked up by name at
# call time, so a wrapper installed on the module (a profiler's) sees the call.
# Subcommands dispatch the same way: the parser is built once per process, and
# `main` looks up `_cmd_<command>` in this module on every call.
OPS = {
    "union": (2, "union"),
    "join": (2, "join"),
    "complement": (1, "complement"),
    "product": (2, "cartesian_product"),
    "corona": (2, "corona"),
    "intersection": (2, "intersection"),
}


def _load(path: str, reader) -> tuple:
    """The parsed file and its input record (path and SHA-256)."""
    data = Path(path).read_bytes()
    try:
        # A leading BOM is dropped after decoding, so a bad byte's offset counts from byte 0.
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        bad = f"{path}: can't decode byte 0x{data[exc.start]:02x} as UTF-8 ({exc.reason})"
        raise ParseError(bad, line=data.count(b"\n", 0, exc.start) + 1) from None
    try:
        parsed = reader(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc.message}", exc.line, exc.column) from None
    return parsed, {"path": path, "sha256": hashlib.sha256(data).hexdigest()}


def _emit(command: str, inputs: list[dict], outcome: dict, fmt: str, started: float, block: str | None) -> None:
    """Print the report; the text format prints `block`, the outcome's JSON."""
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if fmt == "json":
        doc = {"command": command, "inputs": inputs, "outcome": outcome}
        print(to_json(doc))
        print(f'{{"timing_ms": {elapsed_ms:.1f}}}')
    else:
        print(f"command: {command}")
        for item in inputs:
            print(f"input: {item['path']} sha256={item['sha256']}")
        print("outcome:")
        print(block)
        print(f"timing: {elapsed_ms:.1f} ms")


def _write_files(files: list[tuple[str, str | None]]) -> None:
    """Write every (path, text) entry, or none if one write fails.

    An entry whose text is None is a directory, made with its missing
    parents; it comes before the files in it.  Two entries naming one path
    (symlinks followed) are refused before anything is made.  Each text
    goes to a new temp file beside its target, and the temps are renamed
    onto the targets only once all are written; on a failure they and the
    directories made are removed.  A target that exists and is not a
    regular file (a pipe, a terminal, a directory) cannot be renamed onto,
    so it is written in place, after the temps and before the renames.  An
    error names the target as given, not the temp."""
    targets = [Path(path).resolve() for path, _ in files]
    for i, (path, _) in enumerate(files):
        if targets[i] in targets[:i]:
            raise ValueError(f"{path}: the same file as another output")
    made: list[Path] = []
    staged: list[tuple[str, Path, Path]] = []  # (path, temp, target)
    in_place: list[tuple[str, str]] = []
    path = None
    try:
        for (path, text), target in zip(files, targets):
            if text is None:
                # A resolved path: its missing ancestors are the ones below the lowest that exists.
                for directory in reversed([d for d in (target, *target.parents) if not d.exists()]):
                    directory.mkdir()
                    made.append(directory)
            elif target.exists() and not target.is_file():
                in_place.append((path, text))
            else:
                temp = target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
                with temp.open("x", encoding="utf-8") as out:
                    staged.append((path, temp, target))
                    out.write(text)
        for path, text in in_place:
            Path(path).write_text(text, encoding="utf-8")
        for path, temp, target in staged:
            temp.replace(target)
    except BaseException as exc:
        for _, temp, _ in staged:
            temp.unlink(missing_ok=True)
        for directory in reversed(made):
            directory.rmdir()
        if isinstance(exc, OSError):
            exc.filename, exc.filename2 = path, None
        raise


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> tuple[list[dict], dict, int, list[tuple[str, str | None]]]:
    g, gin = _load(args.graph, read_graph)
    if not g.vertices:
        raise ValueError(f"{args.graph}: graph is empty; nothing to verify")
    f, fin = _load(args.labeling, read_labeling)
    extra = set(f.vertices()) - g.vertices
    if extra:
        raise ValueError(f"labeling names vertices not in the graph: {sorted(extra)}")

    if args.concurrent:
        holds, report, complement_report = labelingmod._verify_concurrent(g, f)
        outcome = {
            "property": "concurrent-strong",
            "holds": holds,
            "report": report.to_dict(),
            "complement_report": complement_report.to_dict(),
        }
    else:
        report = labelingmod.verify(g, f)
        prop = "strong" if args.strong else "iasi"
        holds = report.is_strong if args.strong else report.is_iasi
        outcome = {"property": prop, "holds": holds, "report": report.to_dict()}

    return [gin, fin], outcome, EXIT_OK if holds else EXIT_PROPERTY_FAILED, []


def _read_cards(text: str) -> dict[str, int]:
    cards: dict[str, int] = {}
    for lineno, name, rest, _ in labelingmod._named_lines(text, "<cardinality>", "cardinality"):
        card = cards[name] = parse_natural(rest.strip())
        if card is None:
            raise ParseError("expected 'name: <cardinality>'", line=lineno)
        if card < 1:
            raise ParseError(f"cardinality of {name!r} must be at least 1", line=lineno)
    return cards


def _cmd_construct(args) -> tuple[list[dict], dict, int, list[tuple[str, str | None]]]:
    g, gin = _load(args.graph, read_graph)
    inputs, cards = [gin], args.cardinality
    if args.cards:
        cards, cin = _load(args.cards, _read_cards)
        inputs.append(cin)
    spec = constructmod.ConstructionSpec(cardinalities=cards, seed=args.seed, mode=args.mode)
    labeling, trace = constructmod.construct_strong_traced(g, spec)

    text = write_labeling(labeling)
    outcome = {
        "vertices": len(g.vertices),
        "edges": g._edge_count(),
        "mode": spec.mode,
        "seed": spec.seed,
        "color_classes": len(trace["classes"]),
        "strides": trace["strides"],
        "max_label_element": trace["max_label_element"],
        "self_verified": True,
        "labeling_file": args.output,
        "trace": trace,
    }
    files = [(args.trace, to_json(trace) + "\n")] if args.trace else []
    if args.output:
        files.append((args.output, text))
    else:
        outcome["labeling_text"] = text
    return inputs, outcome, EXIT_OK, files


def _cmd_nourish(args) -> tuple[list[dict], dict, int, list[tuple[str, str | None]]]:
    g, gin = _load(args.graph, read_graph)
    if not g.vertices:
        raise ValueError(f"{args.graph}: graph is empty; nourishing number undefined")
    # κ is ω (labeling.nourishing_number), so one search gives both and a witness.
    clique = max_clique(g)
    outcome = {
        "nourishing_number": len(clique),
        "clique_number": len(clique),
        "max_clique": list(clique),
    }
    return [gin], outcome, EXIT_OK, []


def _predict_kappa(op: str, graphs: list[Graph], kappas: list[int | None]) -> tuple[int | None, str, list[str]]:
    notes: list[str] = []
    if op == "join":
        return kappas[0] + kappas[1], "exact", notes
    if op == "product":
        return max(kappas[0], kappas[1]), "exact", notes
    if op == "corona":
        if kappas[0] == kappas[1]:
            notes.append(
                "equal operand values fall outside the two-branch piecewise formula; "
                "using max(k1, k2+1)"
            )
        return max(kappas[0], kappas[1] + 1), "exact", notes
    if op == "union":
        if graphs[0].vertices & graphs[1].vertices:
            return max(kappas[0], kappas[1]), "lower-bound", notes
        return max(kappas[0], kappas[1]), "exact", notes
    return None, "none", notes


def _cmd_ops(args) -> tuple[list[dict], dict, int, list[tuple[str, str | None]]]:
    op = args.op
    arity, operation = OPS[op]
    if len(args.graphs) != arity:
        raise ValueError(f"{op} takes {arity} graph file(s), got {len(args.graphs)}")
    loaded = [_load(p, read_graph) for p in args.graphs]
    graphs = [g for g, _ in loaded]
    inputs = [meta for _, meta in loaded]

    result = getattr(graphmod, operation)(*graphs)

    kappas = [clique_number(g) if g.vertices else None for g in graphs]
    kappa_result = clique_number(result) if result.vertices else None
    predicted, kind, notes = (None, "none", [])
    if all(k is not None for k in kappas):
        predicted, kind, notes = _predict_kappa(op, graphs, kappas)

    agrees: bool | None = None
    if predicted is not None and kappa_result is not None:
        agrees = kappa_result >= predicted if kind == "lower-bound" else kappa_result == predicted

    p = [len(g.vertices) for g in graphs]
    q = [g._edge_count() for g in graphs]
    m = result._edge_count()
    edge_check: bool | None = None
    if op == "product":
        edge_check = m == p[0] * q[1] + p[1] * q[0]
    elif op == "corona":
        edge_check = m == q[0] + p[0] * q[1] + p[0] * p[1]

    outcome = {
        "op": op,
        "vertices": len(result.vertices),
        "edges": m,
        "kappa_inputs": kappas,
        "kappa_computed": kappa_result,
        "kappa_predicted": predicted,
        "prediction_kind": kind,
        "kappa_agrees": agrees,
        "edge_count_formula_holds": edge_check,
        "notes": notes,
    }
    text = write_graph(result)
    if not args.output:
        outcome["graph_text"] = text
    failed = (agrees is False) or (edge_check is False)
    files = [(args.output, text)] if args.output else []
    return inputs, outcome, EXIT_PROPERTY_FAILED if failed else EXIT_OK, files


def _cmd_oracle(args) -> tuple[list[dict], dict, int, list[tuple[str, str | None]]]:
    if args.oracle_cmd == "lemma":
        check = oraclemod.lemma_oracle(args.max)
        outcome = {"check": "lemma", **check.to_dict()}
        outcome["verdict"] = (
            "agrees on all pairs" if check.ok else "DISAGREEMENT FOUND"
        )
        return [], outcome, EXIT_OK if check.ok else EXIT_PROPERTY_FAILED, []

    g, gin = _load(args.graph, read_graph)
    cfg = oraclemod.OracleConfig(
        universe_max=args.max,
        min_card=args.cards,
        max_card=args.cards,
        vertex_limit=args.vertex_limit,
    )
    if args.oracle_cmd == "minchain":
        result = oraclemod.min_max_chain(g, cfg)
        omega = clique_number(g)
        outcome = {
            "check": "minchain",
            **result.to_dict(),
            "clique_number": omega,
            "agree": None if result.exhausted else result.value == omega,
        }
        files = []
        if outcome["agree"] is False and args.bundle_dir:
            stem = str(Path(args.bundle_dir) / "minchain-disagreement")
            files = [(args.bundle_dir, None),
                     (f"{stem}.graph.txt", write_graph(g)),
                     (f"{stem}.labeling.txt", write_labeling(result.witness)),
                     (f"{stem}.report.json", to_json(outcome) + "\n")]
        return [gin], outcome, EXIT_PROPERTY_FAILED if outcome["agree"] is False else EXIT_OK, files

    result = oraclemod.exists_concurrent(g, cfg)
    outcome = {"check": "concurrent", **result.to_dict()}
    return [gin], outcome, EXIT_OK if result.all_witnesses_pairwise_disjoint else EXIT_PROPERTY_FAILED, []


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iasi",
        description="Strong integer additive set-indexers: verify, construct, analyze.",
        epilog=f"oracle minchain checkpoints into ${oraclemod.CHECKPOINT_ENV} when set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", help="also write the primary artifact/report here")

    p = sub.add_parser("verify", help="check a labeling against a graph")
    p.add_argument("graph")
    p.add_argument("labeling")
    p.add_argument("--strong", action="store_true", help="require the strong condition")
    p.add_argument("--concurrent", action="store_true", help="require strength on graph and complement")
    common(p)

    p = sub.add_parser("construct", help="build a strong labeling")
    p.add_argument("graph")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--cardinality", type=int, default=2, help="uniform label size")
    group.add_argument("--cards", help="file of per-vertex 'name: size' lines")
    p.add_argument("--mode", choices=constructmod.MODES, default="coloring")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", help="write the JSON construction trace here")
    common(p)

    p = sub.add_parser("nourish", help="nourishing number with a clique witness")
    p.add_argument("graph")
    common(p)

    p = sub.add_parser("ops", help="apply a graph operation and report invariants")
    p.add_argument("op", choices=sorted(OPS))
    p.add_argument("graphs", nargs="+")
    common(p)

    p = sub.add_parser("oracle", help="exhaustive small-instance checks")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)

    q = osub.add_parser("lemma", help="sumset-cardinality vs difference-disjointness sweep")
    q.add_argument("--max", type=int, default=6, help="universe maximum")
    common(q)

    for name, about in (
        ("minchain", "definitional nourishing number by enumeration"),
        ("concurrent", "search for a labeling strong on graph and complement"),
    ):
        q = osub.add_parser(name, help=about)
        q.add_argument("graph")
        q.add_argument("--cards", type=int, default=2)
        q.add_argument("--max", type=int, default=6)
        q.add_argument("--vertex-limit", type=int, default=5)
        if name == "minchain":
            q.add_argument("--bundle-dir", help="emit a counterexample bundle here on disagreement")
        common(q)

    return parser


# Filled by the first `main` call, not at import; parsing leaves no state on
# the tree, so every later call in the process reuses it.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    # What a command builds (tuples, frozensets, dicts of names) holds no
    # reference cycles, so reference counting frees it; the cyclic collector
    # would only re-scan the per-edge objects.  The caller's state comes back.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        inputs, outcome, code, files = globals()[f"_cmd_{args.command}"](args)
        # `--output` gets construct's or ops' artifact, else the outcome block,
        # which the text format prints too: it is serialised once.
        report = args.output and args.command not in ("construct", "ops")
        block = to_json(outcome) if args.format == "text" or report else None
        if report:
            files.append((args.output, block + "\n"))
        _write_files(files)
        _emit(args.command, inputs, outcome, args.format, started, block)
        return code
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:  # ParseError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        reason = f"{exc.filename}: {exc.strerror}" if exc.filename is not None else exc
        print(f"error: {reason}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    finally:
        if gc_was_enabled:
            gc.enable()


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
