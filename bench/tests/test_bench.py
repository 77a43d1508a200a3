"""Checks of the benchmark itself.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

iasi = child.import_iasi(str(ROOT / "src"))
from iasi.graph import complement, read_graph  # noqa: E402
from iasi.labeling import read_labeling, verify  # noqa: E402


def _snapshot(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_are_byte_identical_for_a_seed(tmp_path, name):
    first = workloads.build(name, 7, tmp_path / "a")
    again = workloads.build(name, 7, tmp_path / "b")
    other = workloads.build(name, 8, tmp_path / "c")
    assert _snapshot(tmp_path / "a") == _snapshot(tmp_path / "b")
    assert _snapshot(tmp_path / "a") != _snapshot(tmp_path / "c")
    text = json.dumps(first).replace(str(tmp_path / "a"), "")
    assert text == json.dumps(again).replace(str(tmp_path / "b"), "")


def _labeled_requests(name: str, directory: Path):
    """(graph, labeling, request) for every request that reads a labeling file."""
    for request in workloads.build(name, 3, directory):
        files = [a for a in request["argv"] if a.endswith((".graph", ".labeling"))]
        if len(files) == 2 and "{tmp}" not in files[1]:
            yield (
                read_graph(Path(files[0]).read_text(encoding="utf-8")),
                read_labeling(Path(files[1]).read_text(encoding="utf-8")),
                request,
            )


@pytest.mark.parametrize("name", ["verify", "kappa"])
def test_clean_inputs_verify_and_corrupted_inputs_fail(tmp_path, name):
    seen = {True: 0, False: 0}
    for g, f, request in _labeled_requests(name, tmp_path):
        clean = request["expect"]["exit"] == 0
        strong = verify(g, f).is_strong
        if "--concurrent" in request["argv"]:
            strong = strong and verify(complement(g), f).is_strong
        assert strong == clean, request["label"]
        seen[clean] += 1
    assert seen[True] >= 1
    assert seen[False] >= (1 if name == "verify" else 0)


def test_a_wrong_expectation_raises_the_fail_ratio(tmp_path):
    requests = [r for r in workloads.build("verify", 1, tmp_path / "in") if "--concurrent" in r["argv"]]
    assert [r["expect"]["exit"] for r in requests] == [0, 1]
    assert child.run_pass(requests, str(tmp_path))["failures"] == []

    requests[0]["expect"]["exit"] = 1
    result = child.run_pass(requests, str(tmp_path))
    assert [f["id"] for f in result["failures"]] == [requests[0]["id"]]
    assert len(result["failures"]) / result["attempted"] > 0


@pytest.fixture
def restore_iasi():
    modules = {k: dict(vars(m)) for k, m in sys.modules.items() if k.startswith("iasi")}
    yield
    for k, saved in modules.items():
        for attr, value in saved.items():
            setattr(sys.modules[k], attr, value)


def test_tracer_reports_absent_names_and_sees_calls_between_modules(restore_iasi):
    tracer = spans.Tracer()
    tracer.install([("construct", "no_such_function"), ("setalg", "sumset"),
                    ("setalg", "is_strong_pair")])
    assert tracer.absent == ["construct.no_such_function"]

    setalg = sys.modules["iasi.setalg"]
    a, b = setalg.IntSet([0, 1]), setalg.IntSet([0, 2])
    tracer.request_id = 5
    assert setalg.is_strong_pair(a, b)
    summary = tracer.summary()
    assert summary["calls"] == {"setalg.is_strong_pair": 1, "setalg.sumset": 1}
    assert list(tracer.req) == [5, 5]
    assert list(tracer.parent) == [-1, 0]


def test_benchmark_json_names_every_metric_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    fake = {"wall_s": 1.0, "latencies_s": [1.0], "peak_rss_mb": 1.0, "reference_s": [1.0, 1.0]}
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end([fake], [(1.0, 1.0)]))
    layer = {"self_s": {}, "calls": {}, "counts": {}, "self_verify_s": 0.0}
    names = list(spans.layer_metrics(layer, {})) + ["trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == names
