"""Byte-exact `outcome` blocks and exit codes of the CLI on fixed inputs.

The fixtures in `golden_outcomes.json` pin what every subcommand prints
inside its `outcome` block, so a refactor that must not change behaviour
can be checked against them.  Only temporary paths are normalised.

Re-record (only when an outcome change is intended and explained):

    PYTHONPATH=src python tests/test_golden_outcomes.py --record
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from iasi.cli import main

FIXTURES = Path(__file__).with_name("golden_outcomes.json")

K2 = "x0 x1\n"
P3 = "v0 v1\nv1 v2\n"
P4 = "v0 v1\nv1 v2\nv2 v3\n"
C5 = "a0 a1\na1 a2\na2 a3\na3 a4\na0 a4\n"
STAR = "h l0\nh l1\nh l2\n"
WHEEL = "h c0\nh c1\nh c2\nh c3\nh c4\nc0 c1\nc1 c2\nc2 c3\nc3 c4\nc0 c4\n"
PETERSEN = (
    "o0 o1\no1 o2\no2 o3\no3 o4\no0 o4\n"
    "i0 i2\ni2 i4\ni1 i4\ni1 i3\ni0 i3\n"
    "i0 o0\ni1 o1\ni2 o2\ni3 o3\ni4 o4\n"
)
PETERSEN_LAB = (
    "i0: {0,3}\ni1: {506,513}\ni2: {1056,1061}\ni3: {1650,1655}\ni4: {2046,2049}\n"
    "o0: {2486,2491}\no1: {2970,2981}\no2: {3498,3501}\no3: {4070,4077}\no4: {4444,4455}\n"
)
# triangle a b c plus pendant d: a shared label, a shared sumset, three weak edges
WEAK = "a b\nb c\na c\nc d\n"
WEAK_LAB = "a: {1,2}\nb: {3,4}\nc: {1,2}\nd: {0,5}\n"
K4_LAB = "v0: {0,3}\nv1: {242,247}\nv2: {528,535}\nv3: {748,759}\n"
# strong on P4, but v0 and v2 (adjacent in the complement) share difference 1
P4_NOT_CONCURRENT = "v0: {0,1}\nv1: {2,4}\nv2: {10,11}\nv3: {20,23}\n"
K2A, K3B = "a0 a1\n", "b0 b1\nb0 b2\nb1 b2\n"
C3A, P2B = "a0 a1\na1 a2\na0 a2\n", "b0 b1\n"
OVERLAP1, OVERLAP2 = "q0 q1\nq1 q2\nq2 q3\n", "q0 q1\nq0 q2\nq2 q3\n"

# name -> (files written to the temp dir, argv with {name} placeholders)
CASES: dict[str, tuple[dict[str, str], list[str]]] = {
    "verify_strong_pass": (
        {"g": PETERSEN, "f": PETERSEN_LAB}, ["verify", "{g}", "{f}", "--strong"]),
    "verify_strong_fail": ({"g": WEAK, "f": WEAK_LAB}, ["verify", "{g}", "{f}", "--strong"]),
    "verify_iasi": ({"g": K2, "f": "x0: {1,2}\nx1: {3,4}\n"}, ["verify", "{g}", "{f}"]),
    "verify_iasi_fail": ({"g": WEAK, "f": WEAK_LAB}, ["verify", "{g}", "{f}"]),
    "verify_concurrent_pass": ({"g": P4, "f": K4_LAB}, ["verify", "{g}", "{f}", "--concurrent"]),
    "verify_concurrent_fail": (
        {"g": P4, "f": P4_NOT_CONCURRENT}, ["verify", "{g}", "{f}", "--concurrent"]),
    "verify_concurrent_isolated_complement": (
        {"g": STAR, "f": "h: {0,1}\nl0: {2,4}\nl1: {10,13}\nl2: {20,27}\n"},
        ["verify", "{g}", "{f}", "--concurrent"]),
    "verify_partial_labeling": (
        {"g": P3, "f": "v0: {0,1}\nv1: {2,4}\n"}, ["verify", "{g}", "{f}", "--strong"]),
    "construct_coloring_seed0": ({"g": WHEEL}, ["construct", "{g}", "--seed", "0"]),
    "construct_coloring_seed3": (
        {"g": WHEEL}, ["construct", "{g}", "--seed", "3", "--cardinality", "3"]),
    "construct_clique_cover_seed0": (
        {"g": PETERSEN}, ["construct", "{g}", "--mode", "clique-cover", "--seed", "0"]),
    "construct_clique_cover_seed3": (
        {"g": WHEEL}, ["construct", "{g}", "--mode", "clique-cover", "--seed", "3"]),
    "construct_cards": (
        {"g": P3, "c": "v0: 1\nv1: 2\nv2: 3\n"}, ["construct", "{g}", "--cards", "{c}"]),
    "construct_output": ({"g": P4}, ["construct", "{g}", "--output", "{tmp}/p4.lab"]),
    "ops_union": ({"a": K2A, "b": K3B}, ["ops", "union", "{a}", "{b}"]),
    "ops_union_overlap": ({"a": OVERLAP1, "b": OVERLAP2}, ["ops", "union", "{a}", "{b}"]),
    "ops_join": ({"a": K2A, "b": K3B}, ["ops", "join", "{a}", "{b}"]),
    "ops_complement": ({"a": C5}, ["ops", "complement", "{a}"]),
    "ops_product": ({"a": C3A, "b": P2B}, ["ops", "product", "{a}", "{b}"]),
    "ops_corona": ({"a": K2A, "b": K3B}, ["ops", "corona", "{a}", "{b}"]),
    "ops_intersection": ({"a": OVERLAP1, "b": OVERLAP2}, ["ops", "intersection", "{a}", "{b}"]),
    "oracle_minchain_k3": ({"g": K3B}, ["oracle", "minchain", "{g}", "--max", "5"]),
    "oracle_minchain_p3": ({"g": P3}, ["oracle", "minchain", "{g}", "--max", "5"]),
    "oracle_minchain_cards3": (
        {"g": K2}, ["oracle", "minchain", "{g}", "--cards", "3", "--max", "6"]),
    "oracle_concurrent_p4": ({"g": P4}, ["oracle", "concurrent", "{g}", "--max", "5"]),
    "oracle_concurrent_c5": ({"g": C5}, ["oracle", "concurrent", "{g}", "--max", "5"]),
    "oracle_concurrent_star": ({"g": STAR}, ["oracle", "concurrent", "{g}", "--max", "5"]),
    "oracle_lemma": ({}, ["oracle", "lemma", "--max", "4"]),
}


def run_case(name: str, tmp: Path) -> dict:
    """Exit code, outcome block and stderr of one case, temp paths normalised."""
    files, argv = CASES[name]
    paths = {"tmp": str(tmp)}
    for key, text in files.items():
        p = tmp / f"{name}.{key}"
        p.write_text(text, encoding="utf-8")
        paths[key] = str(p)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([a.format(**paths) for a in argv])
    text = out.getvalue()
    outcome = text.split("outcome:\n", 1)[1].rsplit("timing:", 1)[0] if text else ""
    return {
        "exit": code,
        "outcome": outcome.replace(str(tmp), "<tmp>"),
        "stderr": err.getvalue().replace(str(tmp), "<tmp>"),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_outcome_is_byte_identical(tmp_path, name):
    expected = json.loads(FIXTURES.read_text(encoding="utf-8"))[name]
    assert run_case(name, tmp_path) == expected


def test_fixtures_cover_every_case():
    assert sorted(json.loads(FIXTURES.read_text(encoding="utf-8"))) == sorted(CASES)


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    with tempfile.TemporaryDirectory() as d:
        record = {name: run_case(name, Path(d)) for name in sorted(CASES)}
    FIXTURES.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
