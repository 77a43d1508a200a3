"""Fixed 2-element labels measure a chromatic bound, not the nourishing number.

With |f(v)| = 2 every difference set is a single number, so a chain is a
set of distinct differences and strength makes the differences a proper
colouring: the minimum chain is at least χ.  On the pentagon (χ = 3,
ω = 2) `oracle minchain --cards 2` therefore reports 3 and flags a
disagreement with ω, while 3-element labels inside {0..7} already reach a
strong labeling whose longest chain is 2.  Both facts are pinned here so
neither the oracle's verdict nor the labeling can drift unnoticed.
"""

import json

from iasi import IntSet, Labeling, chain_report, cycle_graph, verify, write_graph, write_labeling
from iasi.cli import main

C5 = cycle_graph(5)
# v0..v4 in cycle order
C5_CHAIN_TWO = Labeling(
    {
        "v0": IntSet([0, 1, 2]),
        "v1": IntSet([0, 3, 6]),
        "v2": IntSet([0, 2, 4]),
        "v3": IntSet([0, 1, 6]),
        "v4": IntSet([0, 3, 7]),
    }
)


def test_minchain_with_two_element_labels_reports_chi_on_c5(tmp_path, capsys):
    gp = tmp_path / "c5.g"
    gp.write_text(write_graph(C5))
    code = main(["oracle", "minchain", str(gp), "--cards", "2", "--max", "6", "--format", "json"])
    doc = json.loads(capsys.readouterr().out.split('\n{"timing_ms"', 1)[0])
    outcome = doc["outcome"]
    assert (outcome["value"], outcome["clique_number"], outcome["agree"]) == (3, 2, False)
    assert code == 1


def test_three_element_labels_reach_omega_on_c5(tmp_path, capsys):
    assert verify(C5, C5_CHAIN_TWO).is_strong
    assert chain_report(C5, C5_CHAIN_TWO).max_chain_length == 2
    gp, fp = tmp_path / "c5.g", tmp_path / "c5.lab"
    gp.write_text(write_graph(C5))
    fp.write_text(write_labeling(C5_CHAIN_TWO))
    assert main(["verify", str(gp), str(fp), "--strong"]) == 0
