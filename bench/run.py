"""Benchmark of the iasi CLI and library, end to end and per module.

    python3 bench/run.py --workload construct|verify|kappa|oracle|all \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has `src/iasi`.  The workload's
inputs are generated from the seed (see workloads.py).  A pass runs the
whole request list once in a fresh interpreter (a closed loop: one client,
one process, no concurrency) with its own temp directory, a fixed
PYTHONHASHSEED and no IASI_ORACLE_CHECKPOINT_DIR, so no cache or
checkpoint outlives a pass.  Passes repeat until the next one would
overrun --seconds; every metric is a median over passes.

End-to-end times are scaled by a reference kernel timed around every
request (reference.py), because the machines this runs on drift in speed
by tens of percent over minutes; the unscaled figures are printed too.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of the traced ones
(spans from spans.py) plus the tracing overhead.  Every request's outcome
is checked; the last line of output is one JSON object with the keys
correct, attempted, failed and metrics.  Temporary files and the spans of
the last traced pass go to .bench_out/ at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
SETUP_PER_PASS = 3
CHILD_TIMEOUT_S = 120

# Time to import iasi and all its submodules in a fresh interpreter, then
# the reference kernel's time in the same process.
SETUP_PROBE = r"""
import os, sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import iasi
package = os.path.dirname(iasi.__file__)
for name in sorted(os.listdir(package)):
    if name.endswith(".py") and name != "__init__.py":
        __import__("iasi." + name[:-3])
elapsed = time.perf_counter() - t
if os.path.realpath(package) != os.path.realpath(os.path.join(sys.argv[1], "iasi")):
    sys.exit("iasi imported from " + package)
sys.path.insert(0, sys.argv[2])
import reference
print(repr(elapsed), repr(reference.seconds(3)))
"""


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("IASI_ORACLE_CHECKPOINT_DIR", None)
    env.pop("PYTHONPATH", None)
    # String hashing decides set and dict iteration order, hence allocation
    # and GC timing: with a random hash seed peak RSS on kappa moves by 10%
    # between passes over the same input.
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(argv: list[str]) -> str:
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=_child_env(), capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def setup_sample() -> tuple[float, float]:
    """(import seconds, reference kernel seconds) from one fresh interpreter."""
    import_s, reference_s = _spawn(["-c", SETUP_PROBE, str(SRC), str(HERE)]).split()
    return float(import_s), float(reference_s)


def run_pass(work: Path, requests_path: Path, index: int, spans_path: Path | None) -> dict:
    tmp = work / f"pass-{index}"
    tmp.mkdir()
    result = tmp / "result.json"
    argv = [str(HERE / "child.py"), str(SRC), str(requests_path), str(tmp), str(result)]
    if spans_path is not None:
        argv.append(str(spans_path))
    _spawn(argv)
    data = json.loads(result.read_text(encoding="utf-8"))
    shutil.rmtree(tmp)
    return data


def measure(work: Path, requests_path: Path, seconds: float, traced: bool, spans_path: Path):
    """Rounds until the next one would overrun `seconds`.  An untraced round
    is SETUP_PER_PASS set-up samples and a pass; a traced round is an
    untraced pass and a traced one.  Returns (untraced, traced, set-up)."""
    plain: list[dict] = []
    with_spans: list[dict] = []
    setup: list[tuple[float, float]] = []
    if not traced:
        setup_sample()  # fill the bytecode cache before timing imports
    started = time.perf_counter()
    rounds: list[float] = []
    while True:
        t = time.perf_counter()
        if not traced:
            setup.extend(setup_sample() for _ in range(SETUP_PER_PASS))
        plain.append(run_pass(work, requests_path, len(plain) + len(with_spans), None))
        if traced:
            with_spans.append(run_pass(work, requests_path, len(plain) + len(with_spans), spans_path))
        rounds.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - started
        enough = traced or len(plain) >= MIN_PASSES
        if enough and elapsed + median(rounds) > seconds:
            return plain, with_spans, setup


def scaled_latencies(result: dict) -> list[float]:
    """Each latency scaled by the mean of the reference timings on either
    side of it (see reference.py)."""
    refs = result["reference_s"]
    return [
        x * 2.0 * reference.NOMINAL_S / (refs[i] + refs[i + 1])
        for i, x in enumerate(result["latencies_s"])
    ]


def end_to_end(plain: list[dict], setup: list[tuple[float, float]]) -> dict:
    """name -> (value, unit, samples); times are scaled to the reference."""
    lat = [scaled_latencies(r) for r in plain]
    return {
        "wall_s": (median(sum(x) for x in lat), "s", len(plain)),
        "req_p50_ms": (median(median(x) for x in lat) * 1000.0, "ms", sum(map(len, lat))),
        "req_max_ms": (median(max(x) for x in lat) * 1000.0, "ms", len(plain)),
        "setup_s": (median(s * reference.NOMINAL_S / r for s, r in setup), "s", len(setup)),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in plain), "MB", len(plain)),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """name -> (value, unit, samples), plus problems (counts that did not
    repeat).  Layer times are unscaled; the tracing overhead is the
    difference of the scaled wall times."""
    runs = [spans.layer_metrics(r["trace"], r["outcome_counts"]) for r in traced]
    problems = []
    out = {}
    for name, (value, unit) in runs[0].items():
        values = [run[name][0] for run in runs]
        if unit == "s":
            value = median(values)
        elif len(set(values)) != 1:
            problems.append(f"{name} did not repeat across traced passes: {values}")
        out[name] = (value, unit, len(runs))
    def wall(runs: list[dict]) -> float:
        return median(sum(scaled_latencies(r)) for r in runs)

    out["trace.overhead_s"] = (wall(traced) - wall(plain), "s", min(len(plain), len(traced)))
    return out, problems


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        requests = workloads.build(name, seed, work / "inputs")
        requests_path = work / "requests.json"
        requests_path.write_text(json.dumps(requests), encoding="utf-8")
        spans_path = OUT / f"spans-{name}.csv.gz"
        plain, with_spans, setup = measure(work, requests_path, seconds, traced, spans_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = plain + with_spans
    attempted = sum(r["attempted"] for r in passes)
    failures = [f for r in passes for f in r["failures"]]
    if traced:
        metrics, problems = per_layer(plain, with_spans)
        absent = with_spans[0]["trace"]["absent"]
    else:
        metrics, problems, absent = end_to_end(plain, setup), [], []
    return {
        "workload": name, "seed": seed, "requests": len(requests),
        "passes": len(plain), "traced_passes": len(with_spans),
        "attempted": attempted, "failures": failures, "problems": problems,
        "absent": absent, "metrics": metrics,
        "unscaled": {
            "wall_s": [median(r["wall_s"] for r in runs) for runs in (plain, with_spans) if runs],
            "setup_s": median(s for s, _ in setup) if setup else None,
            "reference_s": median(x for r in passes for x in r["reference_s"]),
        },
        "request_ms": [
            (r["label"], median(p["latencies_s"][r["id"]] for p in plain) * 1000.0)
            for r in requests
        ],
        "spans_file": str(spans_path.relative_to(ROOT)) if traced else None,
    }


def report(result: dict) -> None:
    """Human-readable lines, then the one-line JSON result."""
    failed = len(result["failures"])
    print(
        f"workload {result['workload']}  seed {result['seed']}  "
        f"{result['requests']} requests/pass  {result['passes']} untraced + "
        f"{result['traced_passes']} traced passes  (closed loop, 1 client, 1 process)"
    )
    for name, (value, unit, samples) in result["metrics"].items():
        print(f"  {name:42s} {value:14.6f} {unit:13s} n={samples}")
    metrics = result["metrics"]
    raw = result["unscaled"]
    print(f"  unscaled: reference kernel {raw['reference_s']:.6f} s (nominal "
          f"{reference.NOMINAL_S} s); wall_s untraced"
          + (" / traced " if result["traced_passes"] else " ")
          + " / ".join(f"{w:.6f}" for w in raw["wall_s"]) + " s"
          + (f"; setup_s {raw['setup_s']:.6f} s" if raw["setup_s"] is not None else ""))
    for label, ms in result["request_ms"]:
        print(f"  request {label:55s} {ms:12.3f} ms median")
    if "setalg.sumsets_per_edge" in metrics:
        print(f"  setalg.sumsets_per_edge base: labeling.edges_checked = "
              f"{metrics['labeling.edges_checked'][0]}")
    print(f"  fail_ratio {failed}/{result['attempted']} = {failed / result['attempted']:.4f}")
    if result["absent"]:
        print(f"  absent boundaries (reported as 0): {', '.join(result['absent'])}")
    if result["spans_file"]:
        print(f"  spans of the last traced pass: {result['spans_file']}")
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")
    for f in result["failures"][:20]:
        print(f"  FAILED request {f['id']} ({f['label']}): {f['problem']}")
    correct = failed == 0 and not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "iasi" / "__init__.py").is_file():
        print(f"error: no iasi package under {SRC}; run inside a checkout", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            report(run_workload(name, args.seed, args.seconds, bool(args.trace)))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
